//! The [`Backend`] trait: the Olden programming model, abstracted over
//! *how* it executes.
//!
//! A benchmark is ordinary Rust code over some `B: Backend`. Two backends
//! implement the trait:
//!
//! * [`OldenCtx`](crate::OldenCtx) — the **simulator**: runs the program
//!   once, sequentially, computing exact values while recording the task
//!   DAG that `olden-machine` replays into a cycle-accurate parallel
//!   makespan;
//! * `olden_exec::ExecCtx` — the **thread backend**: really executes the
//!   program across one OS worker thread per simulated processor,
//!   realizing migrations, cache fills, and future steals as typed
//!   messages between mailboxes.
//!
//! The two must agree: identical values always, and (in the thread
//! backend's lockstep mode) identical event counters — each backend is the
//! other's correctness oracle.
//!
//! A backend implements one word access, [`Backend::access`], and every
//! typed reader and writer is a provided method over it. Both backends
//! implement it, and `call`/`future_call`/`touch`, by handing themselves
//! to the one definition of each rule in [`crate::thread`]; the trait is
//! the simulator's whole surface (it has no inherent twin of these
//! methods), so a program over `OldenCtx` imports `Backend`.
//!
//! ### Why the future-body closures are `Send + 'static`
//!
//! The simulator runs future bodies inline on the caller's stack, but the
//! thread backend may hand a body to another OS thread (that is the whole
//! point). [`Backend::future_call`] therefore demands `Send + 'static` of
//! bodies and their results; benchmark kernels pass small `move` closures
//! capturing [`GPtr`]s and scalars, which satisfy the bounds for free.
//! [`Backend::future_call_inline`] is the same spawn rule for a body that
//! borrows its caller's state (the IR interpreter's stacks): every
//! backend runs it to its end on the calling OS thread.

use crate::config::{Check, Mechanism};
use crate::report::TransportStats;
use crate::sanitize::RaceViolation;
use olden_gptr::{GPtr, ProcId, Word};

/// The Olden execution interface: `ALLOC`, mechanism-annotated
/// dereferences, procedure-call boundaries, and futures with lazy task
/// creation. See the crate docs of `olden-runtime` for the model and §2–3
/// of the paper for the source semantics.
pub trait Backend: Sized {
    /// A pending future's value, claimed by [`Backend::touch`].
    type Handle<T: Send + 'static>;

    /// Number of processors in this configuration (for placement math).
    fn nprocs(&self) -> usize;

    /// Processor the thread is currently executing on.
    fn cur_proc(&self) -> ProcId;

    /// Charge `cycles` of benchmark-specific local computation. The
    /// simulator adds them to the current segment; the thread backend
    /// only counts the call as progress for its stall watchdog.
    fn work(&mut self, cycles: u64);

    /// `ALLOC(proc, words)`: allocate on the named processor (§2).
    fn alloc(&mut self, proc: ProcId, words: usize) -> GPtr;

    /// Allocate on the processor that owns `near` (a common idiom).
    fn alloc_near(&mut self, near: GPtr, words: usize) -> GPtr {
        self.alloc(near.proc(), words)
    }

    /// One word access, the only one a backend implements: field `field`
    /// of the object at `ptr`, written when `wval` is set, resolved by
    /// `mech` under the static optimizer's verdict `check` for the site
    /// (`olden-analysis`' redundant-check elimination). Returns the word
    /// read or written.
    fn access(
        &mut self,
        ptr: GPtr,
        field: usize,
        wval: Option<Word>,
        mech: Mechanism,
        check: Check,
    ) -> Word;

    /// Read field `field` of the object at `ptr`, resolving remote data
    /// with `mech`.
    fn read(&mut self, ptr: GPtr, field: usize, mech: Mechanism) -> Word {
        self.access(ptr, field, None, mech, Check::Perform)
    }

    /// Write field `field` of the object at `ptr` (monomorphic form; use
    /// [`Backend::write`] from benchmark code).
    fn write_word(&mut self, ptr: GPtr, field: usize, value: Word, mech: Mechanism) {
        self.access(ptr, field, Some(value), mech, Check::Perform);
    }

    /// Write field `field` of the object at `ptr`.
    fn write(&mut self, ptr: GPtr, field: usize, value: impl Into<Word>, mech: Mechanism) {
        self.write_word(ptr, field, value.into(), mech);
    }

    /// Read a pointer-valued field.
    fn read_ptr(&mut self, ptr: GPtr, field: usize, mech: Mechanism) -> GPtr {
        self.read(ptr, field, mech).as_ptr()
    }

    /// Read an integer field.
    fn read_i64(&mut self, ptr: GPtr, field: usize, mech: Mechanism) -> i64 {
        self.read(ptr, field, mech).as_i64()
    }

    /// Read a floating-point field.
    fn read_f64(&mut self, ptr: GPtr, field: usize, mech: Mechanism) -> f64 {
        self.read(ptr, field, mech).as_f64()
    }

    /// [`Backend::read`] carrying the static optimizer's verdict for this
    /// site.
    fn read_checked(&mut self, ptr: GPtr, field: usize, mech: Mechanism, check: Check) -> Word {
        self.access(ptr, field, None, mech, check)
    }

    /// [`Backend::write_word`] carrying the optimizer's verdict.
    fn write_word_checked(
        &mut self,
        ptr: GPtr,
        field: usize,
        value: Word,
        mech: Mechanism,
        check: Check,
    ) {
        self.access(ptr, field, Some(value), mech, check);
    }

    /// [`Backend::write`] carrying the optimizer's verdict.
    fn write_checked(
        &mut self,
        ptr: GPtr,
        field: usize,
        value: impl Into<Word>,
        mech: Mechanism,
        check: Check,
    ) {
        self.write_word_checked(ptr, field, value.into(), mech, check);
    }

    /// [`Backend::read_ptr`] carrying the optimizer's verdict.
    fn read_ptr_checked(&mut self, ptr: GPtr, field: usize, mech: Mechanism, check: Check) -> GPtr {
        self.read_checked(ptr, field, mech, check).as_ptr()
    }

    /// [`Backend::read_i64`] carrying the optimizer's verdict.
    fn read_i64_checked(&mut self, ptr: GPtr, field: usize, mech: Mechanism, check: Check) -> i64 {
        self.read_checked(ptr, field, mech, check).as_i64()
    }

    /// [`Backend::read_f64`] carrying the optimizer's verdict.
    fn read_f64_checked(&mut self, ptr: GPtr, field: usize, mech: Mechanism, check: Check) -> f64 {
        self.read_checked(ptr, field, mech, check).as_f64()
    }

    /// Execute `f` without charging costs or recording events: values are
    /// still computed and allocations still placed. Used to exclude
    /// data-structure-building phases from kernel-time runs (§5).
    fn uncharged<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R;

    /// A procedure-call boundary. If the body migrates, the return stub
    /// migrates the thread back to the caller's processor (§3.1).
    fn call<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R;

    /// `futurecall f(...)`: lazy task creation (§2). The body forks into
    /// a real parallel task only if it migrates off the spawning
    /// processor.
    fn future_call<T, F>(&mut self, f: F) -> Self::Handle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Self) -> T + Send + 'static;

    /// [`Backend::future_call`] of a body that borrows from its caller:
    /// the body runs to its end on the calling OS thread, in every mode,
    /// before this returns; a migration that steals its continuation still
    /// counts and joins as a fork.
    fn future_call_inline<T: Send + 'static>(
        &mut self,
        f: impl FnOnce(&mut Self) -> T,
    ) -> Self::Handle<T>;

    /// `touch`: claim a future's value, joining with the body thread if
    /// it forked.
    fn touch<T: Send + 'static>(&mut self, h: Self::Handle<T>) -> T;

    /// Happens-before violations the backend's dynamic race sanitizer has
    /// detected so far (the `olden-racecheck` oracle). The default is for
    /// backends without a sanitizer — and sanitizer-off runs report none.
    fn race_violations(&mut self) -> Vec<RaceViolation> {
        Vec::new()
    }

    /// Message-transport counters accumulated so far (the `olden-chaos`
    /// observation surface). The default is for backends that pass no real
    /// messages — the simulator's transport is trivially perfect, so it
    /// reports all zeros; the thread backend counts every envelope.
    fn transport_stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Take the structured event recording accumulated so far (the
    /// `olden-obs` observation surface), once. The default is for
    /// backends that never record. The simulator records into the
    /// context itself, so it overrides this; the thread backend's lanes
    /// live with its worker threads and are only assembled at shutdown —
    /// its recording arrives in `ExecReport::recording` instead.
    fn take_recording(&mut self) -> Option<olden_obs::Recording> {
        None
    }

    /// Spawn one future per element and touch them all: the `do in
    /// parallel` idiom of Figure 5.
    fn parallel_for<I, T, F>(&mut self, items: I, body: F) -> Vec<T>
    where
        I: IntoIterator,
        I::Item: Send + 'static,
        T: Send + 'static,
        F: FnMut(&mut Self, I::Item) -> T + Clone + Send + 'static,
    {
        let handles: Vec<Self::Handle<T>> = items
            .into_iter()
            .map(|it| {
                let mut body = body.clone();
                self.future_call(move |ctx| body(ctx, it))
            })
            .collect();
        handles.into_iter().map(|h| self.touch(h)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::ctx::OldenCtx;

    fn sum_tree<B: Backend>(ctx: &mut B, node: GPtr) -> i64 {
        let v = ctx.read_i64(node, 0, Mechanism::Migrate);
        let l = ctx.read_ptr(node, 1, Mechanism::Migrate);
        let r = ctx.read_ptr(node, 2, Mechanism::Migrate);
        let mut total = v;
        if !l.is_null() {
            total += ctx.call(|c| sum_tree(c, l));
        }
        if !r.is_null() {
            total += ctx.call(|c| sum_tree(c, r));
        }
        total
    }

    /// A kernel written against the trait behaves identically to the same
    /// kernel written against `OldenCtx` directly.
    #[test]
    fn generic_kernel_runs_on_sim_backend() {
        let mut c = OldenCtx::new(Config::olden(4));
        let root = c.uncharged(|c| {
            let root = c.alloc(0, 3);
            let l = c.alloc(1, 3);
            let r = c.alloc(2, 3);
            c.write(root, 0, 1i64, Mechanism::Migrate);
            c.write(root, 1, l, Mechanism::Migrate);
            c.write(root, 2, r, Mechanism::Migrate);
            for (n, v) in [(l, 10i64), (r, 100i64)] {
                c.write(n, 0, v, Mechanism::Migrate);
                c.write(n, 1, GPtr::NULL, Mechanism::Migrate);
                c.write(n, 2, GPtr::NULL, Mechanism::Migrate);
            }
            root
        });
        assert_eq!(sum_tree(&mut c, root), 111);
        assert!(c.stats().migrations > 0, "kernel really migrated");
    }

    #[test]
    fn generic_future_call_forks_on_migration() {
        let mut c = OldenCtx::new(Config::olden(4));
        let a = c.uncharged(|c| {
            let a = c.alloc(2, 1);
            c.write(a, 0, 21i64, Mechanism::Migrate);
            a
        });
        fn go<B: Backend>(ctx: &mut B, a: GPtr) -> i64 {
            let h = ctx.future_call(move |c| c.call(move |c| c.read_i64(a, 0, Mechanism::Migrate)));
            ctx.touch(h)
        }
        assert_eq!(go(&mut c, a), 21);
        assert_eq!(c.stats().steals, 1, "body migrated, continuation stolen");
    }
}
