//! §2's logical-thread discipline, stated once for both backends.
//!
//! A procedure call returns to its caller's processor: if the body
//! migrated, the return stub migrates back, an acquire that (§3.2's
//! local-knowledge refinement) invalidates only lines homed where the
//! callee wrote. A `futurecall` runs its body inline and forks only when
//! a migration vacates the spawning processor, which steals the
//! continuation; a touch of a forked body joins it and acquires with the
//! body's written set. [`call`], [`future_call`], [`touch`] and
//! [`migrate`] are those rules, over a [`ThreadState`] they keep.
//!
//! §3's dereference rule is here too, as [`deref`](fn@deref): the
//! compiler-inserted check before each heap access, a pointer test that
//! migrates the thread to a remote word under the migrate mechanism, or a
//! cache lookup under the cache mechanism; with the force override, the
//! `Check::Elide` gate and every counter the check keeps.
//!
//! A backend is a [`Driver`]: it supplies only how the thread moves and
//! acquires, how a stolen body and its touch are joined, and how a word is
//! reached at its home or through the cache. The simulator's `OldenCtx`
//! drives the rules with `cache.depart`, trace edges and heap operations;
//! the thread backend's `ExecCtx` with worker round trips (its parallel
//! mode also forks bodies onto OS threads itself).
//!
//! The written set is a [`ProcSet`], so each scope saves the enclosing
//! set in a local and unions it back on exit: no scope stack.

use crate::config::{Check, Mechanism};
use crate::report::RunStats;
use olden_cache::{Arrival, CacheStats};
use olden_gptr::{GPtr, ProcId, ProcSet, Word};
use olden_machine::CostModel;
use olden_obs::{EventKind, Recorder};

/// A future whose body is running: its continuation waits on `anchor`'s
/// work list until a migration off `anchor` steals it.
#[derive(Clone)]
pub struct Frame<H> {
    pub anchor: ProcId,
    pub stolen: bool,
    /// The backend's record of the steal.
    pub handle: H,
}

/// One logical thread's state: where it is, whether it is charged, what
/// it wrote, its pending futures, and its counters and events.
#[derive(Default)]
pub struct ThreadState<H> {
    /// Processor the thread is executing on.
    pub proc: ProcId,
    /// When > 0, execution is in an uncharged region: values are computed
    /// but no costs, traffic or statistics are recorded (used to exclude
    /// structure-building phases from kernel-time benchmarks, §5).
    free_depth: u32,
    /// Homes written since the innermost call or future body began.
    written: ProcSet,
    pub frames: Vec<Frame<H>>,
    pub stats: RunStats,
    /// Structured event recorder (recorded runs only).
    pub rec: Option<Recorder>,
}

impl<H> ThreadState<H> {
    pub fn new(proc: ProcId, rec: Option<Recorder>) -> Self
    where
        H: Default,
    {
        let t = ThreadState::default();
        ThreadState { proc, rec, ..t }
    }

    #[inline]
    pub fn charged(&self) -> bool {
        self.free_depth == 0
    }

    /// The thread wrote memory homed on `home`.
    #[inline]
    pub fn wrote(&mut self, home: ProcId) {
        self.written.insert(home);
    }

    /// A joined body's writes become this thread's.
    pub fn adopt(&mut self, written: ProcSet) {
        self.written = self.written.union(written);
    }

    /// Everything written since the thread (or its innermost scope) began.
    pub fn written(&self) -> ProcSet {
        self.written
    }

    /// The steal rule: a migration vacating `from` steals every pending
    /// future spawned there that is not stolen yet. Yields their handles.
    pub fn steal_from(&mut self, from: ProcId) -> impl Iterator<Item = &mut H> {
        let fresh = move |f: &&mut Frame<H>| f.anchor == from && !f.stolen;
        self.frames.iter_mut().rev().filter(fresh).map(|f| {
            f.stolen = true;
            &mut f.handle
        })
    }

    #[inline]
    pub fn instant(&mut self, kind: EventKind, proc: ProcId, arg: u64) {
        if let Some(r) = self.rec.as_mut() {
            r.instant(kind, proc, arg);
        }
    }

    #[inline]
    pub fn begin(&mut self, kind: EventKind, proc: ProcId) {
        if let Some(r) = self.rec.as_mut() {
            r.begin(kind, proc, 0);
        }
    }

    #[inline]
    pub fn end(&mut self, kind: EventKind, proc: ProcId) {
        if let Some(r) = self.rec.as_mut() {
            r.end(kind, proc);
        }
    }
}

/// The result of a [`future_call`], claimed by [`touch`].
#[must_use = "a future must be touched before its value is used"]
pub enum Spawned<T, B> {
    /// The body completed without its continuation being stolen.
    Ready(T),
    /// The body forked: the touch joins it.
    Forked(B),
}

impl<T, B> Spawned<T, B> {
    /// Whether this future turned into a real parallel task.
    pub fn is_parallel(&self) -> bool {
        matches!(self, Spawned::Forked(_))
    }
}

/// A stolen body that ran to its end on this thread: its value, what it
/// wrote, and the driver's mark of where it ended (what a touch joins).
pub struct Ended<T, E> {
    pub value: T,
    pub written: ProcSet,
    pub end: E,
}

/// What a backend supplies to run the discipline.
pub trait Driver: Sized {
    /// Each pending future's record of its steal.
    type Frame: Default;
    /// Where a stolen body ended.
    type End;
    /// A forked body, as the touch that joins it finds it.
    type Body<T>: From<Ended<T, Self::End>>;

    fn thread(&mut self) -> &mut ThreadState<Self::Frame>;
    /// Charge a spawn's, a touch's or a dereference check's cost (cycles
    /// on the simulator, progress on threads).
    fn cost(&mut self, op: fn(&CostModel) -> u64);
    /// Release at the current processor, steal the futures anchored there
    /// ([`ThreadState::steal_from`]), move to `to` and [`Driver::acquire`].
    fn hop(&mut self, to: ProcId, arrival: Arrival);
    /// The acquire at the current processor.
    fn acquire(&mut self, arrival: Arrival);
    /// A body ended with its continuation stolen (`frame`): release as it
    /// sends its value home, resume the continuation on `anchor`, and
    /// return where the body ended.
    fn fork(&mut self, anchor: ProcId, frame: Self::Frame) -> Self::End;
    /// Order the thread after a forked body's end; its value and written set.
    fn join<T>(&mut self, body: Self::Body<T>) -> (T, ProcSet);
    /// The run's forced mechanism, and whether it honors `Check::Elide`.
    fn gate(&self) -> (Option<Mechanism>, bool);
    /// The cache counters [`deref`](fn@deref) keeps.
    fn cache_stats(&mut self) -> &mut CacheStats;
    /// The word at `p` (written when `wval` is set), reached at its home:
    /// where the thread now is, or anywhere when uncharged. Returns the
    /// word read or written.
    fn home_word(&mut self, p: GPtr, wval: Option<Word>) -> Word;
    /// A remote word through the current processor's cache, a write
    /// also written through to its home; `elide` asks for the verified-hit
    /// fast path. Returns the word seen and whether the fast path fired.
    fn cached_word(&mut self, p: GPtr, wval: Option<Word>, elide: bool) -> (Word, bool);
    /// A charged write of `p`, for the next release's coherence actions.
    fn note_write(&mut self, p: GPtr);
}

/// The argument of an acquire's `Invalidate` event: `u64::MAX` for a call
/// (the whole cache), else the number of written homes.
pub fn invalidated(arrival: Arrival) -> u64 {
    match arrival {
        Arrival::Call => u64::MAX,
        Arrival::Return { written_homes } => written_homes.len() as u64,
    }
}

/// Run `f` as a scope of its own; returns its result and what it wrote,
/// which the enclosing scope has then written too.
fn scope<D: Driver, R>(d: &mut D, f: impl FnOnce(&mut D) -> R) -> (R, ProcSet) {
    let outer = std::mem::take(&mut d.thread().written);
    let r = f(d);
    let t = d.thread();
    let inner = t.written;
    t.written = outer.union(inner);
    (r, inner)
}

/// A spawn: charge and count it, and push its frame, anchored here.
pub fn spawn<D: Driver>(d: &mut D, handle: D::Frame) -> ProcId {
    d.cost(|c| c.future_spawn);
    let t = d.thread();
    t.stats.futures += 1;
    let anchor = t.proc;
    t.frames.push(Frame {
        anchor,
        stolen: false,
        handle,
    });
    anchor
}

/// Execute `f` uncharged (see [`ThreadState`]'s depth).
pub fn uncharged<D: Driver, R>(d: &mut D, f: impl FnOnce(&mut D) -> R) -> R {
    d.thread().free_depth += 1;
    let r = f(d);
    d.thread().free_depth -= 1;
    r
}

/// Thread migration to `to` (§3.1): a forward move, acquiring as a call.
pub fn migrate<D: Driver>(d: &mut D, to: ProcId) {
    let t = d.thread();
    let from = t.proc;
    debug_assert_ne!(from, to);
    t.stats.migrations += 1;
    t.instant(EventKind::MigrateSend, from, to as u64);
    d.hop(to, Arrival::Call);
    d.thread().instant(EventKind::MigrateRecv, to, from as u64);
}

/// §3's dereference rule: field `field` of the object at `ptr`, written
/// when `wval` is set, resolved by `mech` (or the run's forced mechanism).
///
/// A local word, or any word under the migrate mechanism, is reached at
/// its home, the thread first migrating to a remote one; a remote word
/// under the cache mechanism goes through the cache. A `Check::Elide`
/// verdict, when the run honors it, skips the pointer test only where the
/// optimizer's fact verifies: a local word, or a line already valid in the
/// cache. A stale hint performs the full check, so only the check counters
/// and cycles move. The check, performed or not, is charged once.
pub fn deref<D: Driver>(
    d: &mut D,
    ptr: GPtr,
    field: usize,
    wval: Option<Word>,
    mech: Mechanism,
    check: Check,
) -> Word {
    debug_assert!(!ptr.is_null(), "null dereference");
    let p = ptr.offset(field as u64);
    if !d.thread().charged() {
        return d.home_word(p, wval);
    }
    let (force, elide_checks) = d.gate();
    let want = check == Check::Elide && elide_checks && force.is_none();
    let cache = force.unwrap_or(mech) == Mechanism::Cache;
    let write = wval.is_some();
    if cache {
        let s = d.cache_stats();
        if write {
            s.cacheable_writes += 1;
        } else {
            s.cacheable_reads += 1;
        }
    }
    let t = d.thread();
    let local = p.is_local_to(t.proc);
    let (value, elided) = if cache && !local {
        let (value, elided) = d.cached_word(p, wval, want);
        charge_check(d, elided);
        (value, elided)
    } else {
        if !cache && local {
            t.stats.migrate_local += 1;
        } else if !cache {
            t.stats.migrate_remote += 1;
        }
        // A stale hint (a remote word) performs the test, where the thread
        // is before it migrates.
        let elided = want && local;
        charge_check(d, elided);
        if !local {
            migrate(d, p.proc());
        }
        (d.home_word(p, wval), elided)
    };
    let t = d.thread();
    if elided {
        t.stats.checks_elided += 1;
    } else {
        t.stats.checks_performed += 1;
    }
    if write {
        // Write tracking applies to every charged write, however resolved.
        d.note_write(p);
        d.thread().wrote(p.proc());
    }
    value
}

/// Charge a dereference's check: the pointer test, unless elided.
#[inline]
fn charge_check<D: Driver>(d: &mut D, elided: bool) {
    if elided {
        d.cost(|_| 0);
    } else {
        d.cost(|c| c.ptr_test);
    }
}

/// A procedure-call boundary: if the body migrated, the return stub
/// migrates back, acquiring with what the body wrote.
pub fn call<D: Driver, R>(d: &mut D, f: impl FnOnce(&mut D) -> R) -> R {
    if !d.thread().charged() {
        return f(d);
    }
    let entry = d.thread().proc;
    let (r, written_homes) = scope(d, f);
    let t = d.thread();
    let from = t.proc;
    if from != entry {
        t.stats.return_migrations += 1;
        t.instant(EventKind::ReturnSend, from, entry as u64);
        d.hop(entry, Arrival::Return { written_homes });
        let t = d.thread();
        t.instant(EventKind::ReturnRecv, entry, from as u64);
    }
    r
}

/// `futurecall`: run the body inline, forking only if a migration stole
/// its continuation (lazy task creation, §2).
pub fn future_call<D: Driver, T>(d: &mut D, f: impl FnOnce(&mut D) -> T) -> Spawned<T, D::Body<T>> {
    if !d.thread().charged() {
        return Spawned::Ready(f(d));
    }
    let anchor = spawn(d, D::Frame::default());
    d.thread().begin(EventKind::FutureBody, anchor);
    let (value, written) = scope(d, f);
    let t = d.thread();
    let frame = t.frames.pop().expect("frame underflow");
    t.end(EventKind::FutureBody, t.proc);
    if !frame.stolen {
        debug_assert_eq!(t.proc, anchor, "unstolen body cannot move");
        return Spawned::Ready(value);
    }
    t.stats.steals += 1;
    let end = d.fork(anchor, frame.handle);
    let body = Ended {
        value,
        written,
        end,
    };
    Spawned::Forked(body.into())
}

/// `touch`: claim a future's value; a forked body is joined, and receiving
/// its value is an acquire with the body's written set (uncharged: the
/// join alone).
pub fn touch<D: Driver, T>(d: &mut D, h: Spawned<T, D::Body<T>>) -> T {
    let charged = d.thread().charged();
    if charged {
        d.cost(|c| c.touch);
        d.thread().stats.touches += 1;
    }
    let body = match h {
        Spawned::Ready(value) => return value,
        Spawned::Forked(body) => body,
    };
    let at = d.thread().proc;
    if charged {
        d.thread().begin(EventKind::TouchStall, at);
    }
    let (value, written_homes) = d.join(body);
    if charged {
        d.acquire(Arrival::Return { written_homes });
        d.thread().end(EventKind::TouchStall, at);
    }
    value
}
