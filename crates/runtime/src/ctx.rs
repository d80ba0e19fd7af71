//! The execution context: Olden's runtime system as seen by a program.
//!
//! A benchmark runs *once*, sequentially, computing exact values; the
//! context meanwhile simulates where each instruction would have executed
//! (the current processor follows migrations), what the software cache
//! would have done, and how futures would have forked, recording the task
//! DAG that `olden-machine` replays into a parallel makespan.
//!
//! ### Futures and lazy task creation (paper §2)
//!
//! The call, future and touch rules live in [`crate::thread`], shared
//! with the thread backend; this context is their simulator driver. A
//! move releases through `cache.depart`, charges its costs and opens a
//! trace segment behind a `Migrate` or `Return` edge. A future's body runs
//! inline; if it migrated off the spawning processor, the continuation is
//! re-anchored there (a `Steal` edge) and the matching
//! [`OldenCtx::touch`] becomes a join (a `Join` edge carrying the
//! value-return message). An untouched-by-migration future costs only the
//! spawn bookkeeping, as in the original system.

use crate::config::{Check, Config, Mechanism};
use crate::heap::DistributedHeap;
use crate::report::RunStats;
use crate::sanitize::{LineSanitizer, RaceViolation};
use crate::thread::{self, Driver, Ended, Spawned, ThreadState};
use olden_cache::{Access, Arrival, CacheSystem};
use olden_gptr::{GPtr, ProcId, ProcSet, Word};
use olden_machine::trace::{EdgeKind, SegId, Trace};
use olden_machine::{CostModel, VClock};
use olden_obs::{EventKind, Recorder, Recording};

/// The result of an [`OldenCtx::future_call`], to be claimed by
/// [`OldenCtx::touch`]. A forked body ended at a segment, with a clock
/// (sanitizer only).
pub type FutureHandle<T> = Spawned<T, Ended<T, (SegId, VClock)>>;

/// The Olden runtime context.
pub struct OldenCtx {
    cfg: Config,
    heap: DistributedHeap,
    cache: CacheSystem,
    trace: Trace,
    cur_seg: SegId,
    /// The logical thread; each pending future's frame holds, once stolen,
    /// the segment whose end lets the idle processor grab the continuation
    /// and (sanitizer only) that segment's clock.
    t: ThreadState<Option<(SegId, VClock)>>,
    /// Sanitizer: the current segment's vector clock — what
    /// `olden_machine::clocks` defines for it, maintained online. Advanced
    /// with a fresh per-processor tick (`ticks`) at every new segment.
    /// Untouched when `Config::sanitize` is off.
    clock: VClock,
    ticks: Vec<u64>,
    /// Sanitizer: fed every charged heap access, in execution order.
    sanitizer: LineSanitizer,
}

impl OldenCtx {
    pub fn new(cfg: Config) -> OldenCtx {
        assert!(cfg.procs >= 1 && cfg.procs <= olden_gptr::MAX_PROCS);
        let mut trace = Trace::new();
        let cur_seg = trace.new_segment(0);
        let mut ctx = OldenCtx {
            heap: DistributedHeap::new(cfg.procs),
            cache: CacheSystem::new(cfg.procs, cfg.protocol),
            trace,
            cur_seg,
            t: ThreadState::new(0, cfg.record.then(Recorder::sim)),
            clock: VClock::new(),
            ticks: vec![0; cfg.procs],
            sanitizer: LineSanitizer::new(),
            cfg,
        };
        ctx.clock_bump(0);
        ctx
    }

    /// Number of processors in this configuration (for placement math).
    pub fn nprocs(&self) -> usize {
        self.cfg.procs
    }

    /// Processor the thread is currently executing on.
    pub fn cur_proc(&self) -> ProcId {
        self.t.proc
    }

    /// Run configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Runtime statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.t.stats
    }

    /// Cache system (stats, protocol state) so far.
    pub fn cache(&self) -> &CacheSystem {
        &self.cache
    }

    /// Happens-before violations among the heap accesses so far (always
    /// empty unless the run was configured with [`Config::sanitized`]).
    /// The sanitizer runs online, so this can be called mid-run.
    pub fn race_violations(&self) -> Vec<RaceViolation> {
        self.sanitizer.violations().to_vec()
    }

    /// Start a new segment on `p`: draw `p`'s next tick and advance the
    /// clock's `p` component to it (the segment-clock rule of
    /// `olden_machine::clocks`, applied as segments are created).
    fn clock_bump(&mut self, p: ProcId) {
        if self.cfg.sanitize {
            self.clock.bump(p, &mut self.ticks[p as usize]);
        }
    }

    /// Take the run's event recording (once; `None` unless the run was
    /// configured with [`Config::recorded`]). The simulator's one logical
    /// thread makes a single lane, labeled `sim`; the lane's timestamps
    /// are logical (one tick per event), its `proc` fields follow the
    /// thread's migrations.
    pub fn take_recording(&mut self) -> Option<Recording> {
        let rec = self.t.rec.take()?;
        Some(Recording::new(
            self.cfg.procs,
            vec![rec.into_lane("sim".to_string())],
        ))
    }

    /// The recorded trace, counters and cache system (consumed by the
    /// report layer and by external tools that inspect raw traces).
    pub fn into_parts_public(self) -> (Trace, RunStats, CacheSystem) {
        (self.trace, self.t.stats, self.cache)
    }

    #[inline]
    fn charge(&mut self, cycles: u64) {
        if self.t.charged() && cycles > 0 {
            self.trace.charge(self.cur_seg, cycles);
        }
    }

    /// Charge `cycles` of benchmark-specific local computation.
    #[inline]
    pub fn work(&mut self, cycles: u64) {
        self.charge(cycles);
    }

    /// Execute `f` without charging costs or recording traffic: values
    /// are still computed and allocations still placed. Used to exclude
    /// data-structure-building phases from kernel-time runs.
    pub fn uncharged<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        thread::uncharged(self, f)
    }

    /// `ALLOC(proc, words)`: allocate on the named processor (§2).
    pub fn alloc(&mut self, proc: ProcId, words: usize) -> GPtr {
        assert!(
            (proc as usize) < self.cfg.procs,
            "ALLOC on unknown processor"
        );
        self.charge(self.cfg.cost.alloc);
        if self.t.charged() {
            self.t.stats.allocs += 1;
            self.t.stats.words_allocated += words as u64;
        }
        self.heap.alloc(proc, words)
    }

    /// Allocate on the processor that owns `near` (a common idiom).
    pub fn alloc_near(&mut self, near: GPtr, words: usize) -> GPtr {
        self.alloc(near.proc(), words)
    }

    // ------------------------------------------------------------------
    // Dereferences
    // ------------------------------------------------------------------

    /// Read field `field` of the object at `ptr`, resolving remote data
    /// with `mech`.
    pub fn read(&mut self, ptr: GPtr, field: usize, mech: Mechanism) -> Word {
        self.read_checked(ptr, field, mech, Check::Perform)
    }

    /// Write field `field` of the object at `ptr`.
    pub fn write(&mut self, ptr: GPtr, field: usize, value: impl Into<Word>, mech: Mechanism) {
        self.write_checked(ptr, field, value, mech, Check::Perform);
    }

    /// Read a pointer-valued field.
    pub fn read_ptr(&mut self, ptr: GPtr, field: usize, mech: Mechanism) -> GPtr {
        self.read(ptr, field, mech).as_ptr()
    }

    /// Read an integer field.
    pub fn read_i64(&mut self, ptr: GPtr, field: usize, mech: Mechanism) -> i64 {
        self.read(ptr, field, mech).as_i64()
    }

    /// Read a floating-point field.
    pub fn read_f64(&mut self, ptr: GPtr, field: usize, mech: Mechanism) -> f64 {
        self.read(ptr, field, mech).as_f64()
    }

    /// [`Self::read`] carrying the static optimizer's verdict for the site.
    pub fn read_checked(&mut self, ptr: GPtr, field: usize, mech: Mechanism, check: Check) -> Word {
        let p = ptr.offset(field as u64);
        self.resolve(p, false, mech, check);
        self.heap.read(p)
    }

    /// [`Self::write`] carrying the static optimizer's verdict for the site.
    pub fn write_checked(
        &mut self,
        ptr: GPtr,
        field: usize,
        value: impl Into<Word>,
        mech: Mechanism,
        check: Check,
    ) {
        let p = ptr.offset(field as u64);
        self.resolve(p, true, mech, check);
        self.heap.write(p, value.into());
    }

    /// The pointer test + mechanism simulation for one word access.
    ///
    /// With `Check::Elide` (honored only when the configuration opted in
    /// and no force override is active), the compiler-inserted check is
    /// skipped when the optimizer's availability fact verifies against
    /// live state: a migrate-mechanism pointer that is local, a
    /// cache-mechanism pointer that is local, or a remote line already
    /// valid in the cache. A stale hint falls back to the byte-exact
    /// perform path — values, coherence actions, and every other counter
    /// are unchanged; only check cycles and lookup counters move.
    fn resolve(&mut self, ptr: GPtr, write: bool, mech: Mechanism, check: Check) {
        debug_assert!(!ptr.is_null(), "null dereference");
        if !self.t.charged() {
            return;
        }
        let cur = self.t.proc;
        let mech = self.cfg.force.unwrap_or(mech);
        let want = check == Check::Elide && self.cfg.elide_checks && self.cfg.force.is_none();
        let mut elided = false;
        match mech {
            Mechanism::Migrate => {
                if ptr.is_local_to(cur) {
                    self.t.stats.migrate_local += 1;
                    if want {
                        // Fact verified: the thread is already where the
                        // data lives, exactly what the pointer test would
                        // have concluded. Skip it.
                        elided = true;
                    } else {
                        self.charge(self.cfg.cost.ptr_test);
                    }
                } else {
                    // A stale elision hint performs the full check.
                    self.charge(self.cfg.cost.ptr_test);
                    self.t.stats.migrate_remote += 1;
                    thread::migrate(self, ptr.proc());
                }
                self.charge(self.cfg.cost.local_ref);
            }
            Mechanism::Cache => {
                if write {
                    self.cache.stats_mut().cacheable_writes += 1;
                } else {
                    self.cache.stats_mut().cacheable_reads += 1;
                }
                if ptr.is_local_to(cur) {
                    if want {
                        elided = true;
                    } else {
                        self.charge(self.cfg.cost.ptr_test);
                    }
                    self.charge(self.cfg.cost.local_ref);
                } else {
                    let before = self.cache.stats().checks_elided;
                    let acc = self.cache.access_checked(
                        cur,
                        ptr.proc(),
                        ptr.page(),
                        ptr.line_in_page(),
                        write,
                        want,
                    );
                    if self.cache.stats().checks_elided > before {
                        // Verified cached hit: pointer test and hash probe
                        // both skipped; the access costs a local
                        // reference (plus the write-through a cached
                        // write always pays).
                        elided = true;
                        self.charge(self.cfg.cost.local_ref);
                    } else {
                        self.charge(self.cfg.cost.ptr_test);
                        self.charge(self.cfg.cost.cache_lookup);
                        if let Access::Miss { .. } = acc {
                            self.charge(self.cfg.cost.miss_service);
                            let home = ptr.proc() as u64;
                            self.t.instant(EventKind::LineFetch, cur, home);
                        }
                    }
                    if write {
                        // Write-through: the word travels home.
                        self.charge(self.cfg.cost.write_through);
                    }
                }
            }
        }
        if elided {
            self.t.stats.checks_elided += 1;
        } else {
            self.t.stats.checks_performed += 1;
        }
        if write {
            // Compiler-inserted write tracking (global/bilateral schemes)
            // applies to every heap write, however it was resolved.
            // A cache-mechanism write leaves the thread where it was, but a
            // migrate-mechanism one may have moved it.
            let at = self.t.proc;
            let track = self
                .cache
                .note_write(at, ptr.proc(), ptr.page(), ptr.line_in_page());
            self.charge(track);
            self.t.wrote(ptr.proc());
        }
        if self.cfg.sanitize {
            // After any migration, so the clock is the segment's that
            // really performs the access.
            self.sanitizer.access(
                (ptr.proc(), ptr.page(), ptr.line_in_page()),
                write,
                &self.clock,
            );
        }
    }

    /// A procedure-call boundary ([`thread::call`]).
    pub fn call<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        thread::call(self, f)
    }

    /// `futurecall f(...)` ([`thread::future_call`]).
    pub fn future_call<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> FutureHandle<T> {
        thread::future_call(self, f)
    }

    /// `touch`: claim a future's value ([`thread::touch`]).
    pub fn touch<T>(&mut self, h: FutureHandle<T>) -> T {
        thread::touch(self, h)
    }
}

/// The simulator's moves: a release through `cache.depart` with its
/// charged costs, a new trace segment behind an edge, an acquire in the
/// destination's cache.
impl Driver for OldenCtx {
    type Frame = Option<(SegId, VClock)>;
    type End = (SegId, VClock);
    type Body<T> = Ended<T, (SegId, VClock)>;

    fn thread(&mut self) -> &mut ThreadState<Self::Frame> {
        &mut self.t
    }

    fn cost(&mut self, op: fn(&CostModel) -> u64) {
        self.charge(op(&self.cfg.cost));
    }

    /// Release at the origin, send registers + PC + frame, acquire at the
    /// destination (§3.1); a call and a return stub differ in costs and
    /// edge kind only.
    fn hop(&mut self, to: ProcId, arrival: Arrival) {
        let c = &self.cfg.cost;
        let (send, wire, recv, edge) = match arrival {
            Arrival::Call => (c.mig_send, c.mig_wire, c.mig_recv, EdgeKind::Migrate),
            Arrival::Return { .. } => (c.ret_send, c.ret_wire, c.ret_recv, EdgeKind::Return),
        };
        let inval = self.cache.depart(self.t.proc, c.write_through);
        self.charge(inval);
        self.charge(send);
        // The list scheduler serializes every continuation stolen here on
        // the vacated processor, so all anchor at the departure segment.
        let src = self.cur_seg;
        for stolen in self.t.steal_from(self.t.proc) {
            *stolen = Some((src, self.clock.clone()));
        }
        let seg = self.trace.new_segment(to);
        self.trace.add_edge(src, seg, wire, edge);
        self.cur_seg = seg;
        self.t.proc = to;
        self.clock_bump(to);
        self.charge(recv);
        self.acquire(arrival);
    }

    fn acquire(&mut self, arrival: Arrival) {
        self.cache.arrive(self.t.proc, arrival);
        let arg = thread::invalidated(arrival);
        self.t.instant(EventKind::Invalidate, self.t.proc, arg);
    }

    fn fork(&mut self, anchor: ProcId, frame: Self::Frame) -> (SegId, VClock) {
        let (steal_src, steal_clock) = frame.expect("a stolen frame records its steal");
        // The body thread releases and sends its value home.
        let inval = self.cache.depart(self.t.proc, self.cfg.cost.write_through);
        self.charge(inval);
        self.charge(self.cfg.cost.ret_send);
        let end = (
            self.cur_seg,
            std::mem::replace(&mut self.clock, steal_clock),
        );
        // The idle spawn processor grabs the continuation; its clock
        // rewinds to the steal point's.
        let cont = self.trace.new_segment(anchor);
        self.trace.add_edge(steal_src, cont, 0, EdgeKind::Steal);
        self.cur_seg = cont;
        self.t.proc = anchor;
        self.clock_bump(anchor);
        self.charge(self.cfg.cost.steal);
        self.t.instant(EventKind::Steal, anchor, 0);
        end
    }

    fn join<T>(&mut self, body: Self::Body<T>) -> (T, ProcSet) {
        let (end, body_clock) = body.end;
        let post = self.trace.new_segment(self.t.proc);
        self.trace.add_edge(self.cur_seg, post, 0, EdgeKind::Seq);
        self.trace
            .add_edge(end, post, self.cfg.cost.ret_wire, EdgeKind::Join);
        self.cur_seg = post;
        self.clock.join(&body_clock);
        self.clock_bump(self.t.proc);
        self.charge(self.cfg.cost.ret_recv);
        (body.value, body.written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use olden_cache::Protocol;

    fn ctx(procs: usize) -> OldenCtx {
        OldenCtx::new(Config::olden(procs))
    }

    #[test]
    fn local_deref_does_not_migrate() {
        let mut c = ctx(4);
        let a = c.alloc(0, 2);
        c.write(a, 0, 5i64, Mechanism::Migrate);
        assert_eq!(c.read_i64(a, 0, Mechanism::Migrate), 5);
        assert_eq!(c.cur_proc(), 0);
        assert_eq!(c.stats().migrations, 0);
    }

    #[test]
    fn remote_migrate_deref_moves_thread() {
        let mut c = ctx(4);
        let a = c.alloc(2, 2);
        c.write(a, 1, 9i64, Mechanism::Migrate);
        assert_eq!(c.cur_proc(), 2);
        assert_eq!(c.stats().migrations, 1);
        assert_eq!(c.read_i64(a, 1, Mechanism::Migrate), 9);
        assert_eq!(c.stats().migrations, 1, "second access is local");
    }

    #[test]
    fn remote_cache_deref_stays_put() {
        let mut c = ctx(4);
        let a = c.alloc(2, 2);
        c.write(a, 0, 7i64, Mechanism::Cache);
        assert_eq!(c.cur_proc(), 0);
        assert_eq!(c.stats().migrations, 0);
        assert_eq!(c.read_i64(a, 0, Mechanism::Cache), 7);
        let cs = c.cache().stats();
        assert_eq!(cs.remote_writes, 1);
        assert_eq!(cs.remote_reads, 1);
        assert_eq!(cs.misses, 1, "write-allocate miss");
        assert_eq!(cs.hits, 1, "read hits the allocated line");
    }

    #[test]
    fn force_override_controls_mechanism() {
        let mut c = OldenCtx::new(Config::olden(4).forced(Mechanism::Migrate));
        let a = c.alloc(3, 1);
        c.write(a, 0, 1i64, Mechanism::Cache); // forced to migrate
        assert_eq!(c.cur_proc(), 3);
        assert_eq!(c.stats().migrations, 1);
        assert_eq!(c.cache().stats().remote_writes, 0);
    }

    #[test]
    fn call_returns_thread_to_caller_processor() {
        let mut c = ctx(4);
        let a = c.alloc(1, 1);
        c.write(a, 0, 3i64, Mechanism::Cache);
        let v = c.call(|c| c.read_i64(a, 0, Mechanism::Migrate));
        assert_eq!(v, 3);
        assert_eq!(c.cur_proc(), 0, "return stub migrated back");
        assert_eq!(c.stats().return_migrations, 1);
    }

    #[test]
    fn unstolen_future_is_cheap_and_inline() {
        let mut c = ctx(4);
        let a = c.alloc(0, 1);
        c.write(a, 0, 11i64, Mechanism::Migrate);
        let h = c.future_call(|c| c.read_i64(a, 0, Mechanism::Migrate));
        assert!(!h.is_parallel(), "no migration, no new thread");
        assert_eq!(c.touch(h), 11);
        assert_eq!(c.stats().futures, 1);
        assert_eq!(c.stats().steals, 0);
    }

    #[test]
    fn migrating_future_forks() {
        let mut c = ctx(4);
        let a = c.alloc(2, 1);
        c.uncharged(|c| c.write(a, 0, 21i64, Mechanism::Migrate));
        let h = c.future_call(|c| c.call(|c| c.read_i64(a, 0, Mechanism::Migrate)));
        assert!(h.is_parallel(), "body migrated: continuation stolen");
        assert_eq!(c.cur_proc(), 0, "continuation runs at spawn proc");
        assert_eq!(c.touch(h), 21);
        assert_eq!(c.stats().steals, 1);
    }

    #[test]
    fn local_knowledge_migration_clears_cache() {
        let mut c = ctx(4);
        let a = c.alloc(1, 1);
        let b = c.alloc(2, 1);
        c.uncharged(|c| {
            c.write(a, 0, 1i64, Mechanism::Migrate);
            c.write(b, 0, 2i64, Mechanism::Migrate);
        });
        // Cache a's line on proc 0, then migrate to proc 2 and back home
        // is not needed: a second cached read after a migration through
        // proc 2 must miss again.
        c.read(a, 0, Mechanism::Cache); // miss
        c.read(a, 0, Mechanism::Cache); // hit
        assert_eq!(c.cache().stats().hits, 1);
        c.read(b, 0, Mechanism::Migrate); // migrate 0 -> 2 (acquire clears 2's cache; 0's stays)
        assert_eq!(c.cur_proc(), 2);
        c.read(a, 0, Mechanism::Cache); // proc 2's cache: miss
        assert_eq!(c.cache().stats().misses, 2);
    }

    #[test]
    fn uncharged_region_records_nothing() {
        let mut c = ctx(4);
        let a = c.uncharged(|c| {
            let a = c.alloc(3, 2);
            c.write(a, 0, 5i64, Mechanism::Migrate);
            c.write(a, 1, 6i64, Mechanism::Cache);
            a
        });
        assert_eq!(c.stats().allocs, 0);
        assert_eq!(c.stats().migrations, 0);
        assert_eq!(c.cache().stats().cacheable_writes, 0);
        assert_eq!(c.cur_proc(), 0);
        // Values are real.
        assert_eq!(c.read_i64(a, 0, Mechanism::Cache), 5);
        assert_eq!(c.read_i64(a, 1, Mechanism::Cache), 6);
    }

    #[test]
    fn parallel_for_touches_everything() {
        let mut c = ctx(4);
        let ptrs: Vec<GPtr> = (0..4u8)
            .map(|p| {
                let a = c.alloc(p, 1);
                c.uncharged(|c| c.write(a, 0, p as i64 * 10, Mechanism::Migrate));
                a
            })
            .collect();
        let vals = c.parallel_for(ptrs, |c, p| {
            c.call(|c| c.read_i64(p, 0, Mechanism::Migrate))
        });
        assert_eq!(vals, vec![0, 10, 20, 30]);
        assert_eq!(c.stats().futures, 4);
        assert!(c.stats().steals >= 3, "remote bodies forked");
    }

    #[test]
    fn write_sets_flow_to_return_acquire() {
        // A thread caches a line from proc 1, calls a procedure that
        // migrates to proc 2 and writes proc 1's memory; on return the
        // local-knowledge refinement must drop the cached line.
        let mut c = ctx(4);
        let a = c.alloc(1, 8);
        let b = c.alloc(2, 1);
        c.uncharged(|c| {
            c.write(a, 0, 1i64, Mechanism::Migrate);
            c.write(b, 0, 2i64, Mechanism::Migrate);
        });
        c.read(a, 0, Mechanism::Cache); // miss; cached on proc 0
        c.call(|c| {
            c.read(b, 0, Mechanism::Migrate); // migrate to proc 2
            c.write(a, 0, 99i64, Mechanism::Cache); // write proc 1's memory
        });
        assert_eq!(c.cur_proc(), 0);
        // The cached copy of a's line must be gone.
        let before = c.cache().stats().misses;
        assert_eq!(c.read_i64(a, 0, Mechanism::Cache), 99);
        assert_eq!(c.cache().stats().misses, before + 1);
    }

    #[test]
    fn return_acquire_preserves_unwritten_homes() {
        let mut c = ctx(4);
        let a = c.alloc(1, 8);
        let b = c.alloc(3, 1);
        c.uncharged(|c| {
            c.write(a, 0, 1i64, Mechanism::Migrate);
            c.write(b, 0, 2i64, Mechanism::Migrate);
        });
        c.read(a, 0, Mechanism::Cache); // cached from home 1
        c.call(|c| {
            c.read(b, 0, Mechanism::Migrate); // migrate to 3, write nothing on 1
        });
        let before = c.cache().stats().hits;
        c.read(a, 0, Mechanism::Cache);
        assert_eq!(c.cache().stats().hits, before + 1, "line survived return");
    }

    #[test]
    fn elision_gates_on_config_and_counts() {
        // Default config: Elide verdicts are ignored but still counted as
        // performed checks.
        let mut c = ctx(4);
        let a = c.alloc(0, 1);
        c.write(a, 0, 5i64, Mechanism::Migrate);
        let before = c.stats().checks_performed;
        let v = c.read_checked(a, 0, Mechanism::Migrate, Check::Elide);
        assert_eq!(v.as_i64(), 5);
        assert_eq!(c.stats().checks_performed, before + 1);
        assert_eq!(c.stats().checks_elided, 0);

        // Optimized config: the verified fact skips the check.
        let mut c = OldenCtx::new(Config::olden(4).optimized());
        let a = c.alloc(0, 1);
        c.write(a, 0, 5i64, Mechanism::Migrate);
        let v = c.read_checked(a, 0, Mechanism::Migrate, Check::Elide);
        assert_eq!(v.as_i64(), 5);
        assert_eq!(c.stats().checks_elided, 1);
    }

    #[test]
    fn stale_elision_hint_falls_back_exactly() {
        // A remote migrate pointer under a (wrong) Elide hint must behave
        // byte-for-byte like the perform path: migrate, same counters.
        let mut c = OldenCtx::new(Config::olden(4).optimized());
        let a = c.alloc(2, 1);
        c.uncharged(|c| c.write(a, 0, 9i64, Mechanism::Migrate));
        let v = c.read_checked(a, 0, Mechanism::Migrate, Check::Elide);
        assert_eq!(v.as_i64(), 9);
        assert_eq!(c.cur_proc(), 2, "stale hint still migrated");
        assert_eq!(c.stats().migrations, 1);
        assert_eq!(c.stats().checks_performed, 1);
        assert_eq!(c.stats().checks_elided, 0);
    }

    #[test]
    fn cache_elision_skips_lookup_on_verified_hit() {
        let mut c = OldenCtx::new(Config::olden(4).optimized());
        let a = c.alloc(1, 1);
        c.uncharged(|c| c.write(a, 0, 7i64, Mechanism::Migrate));
        c.read(a, 0, Mechanism::Cache); // miss: line becomes resident
        let (hits, lookups) = {
            let cs = c.cache().stats();
            (cs.hits, c.cache().cache(0).lookups())
        };
        let v = c.read_checked(a, 0, Mechanism::Cache, Check::Elide);
        assert_eq!(v.as_i64(), 7);
        let cs = *c.cache().stats();
        assert_eq!(cs.hits, hits + 1, "elided access still a hit");
        assert_eq!(c.cache().cache(0).lookups(), lookups, "no hash probe");
        assert_eq!(cs.checks_elided, 1);
        assert_eq!(c.stats().checks_elided, 1);
    }

    #[test]
    fn forced_runs_ignore_elision() {
        let mut c = OldenCtx::new(Config::olden(4).optimized().forced(Mechanism::Cache));
        let a = c.alloc(0, 1);
        c.write(a, 0, 1i64, Mechanism::Migrate);
        c.read_checked(a, 0, Mechanism::Migrate, Check::Elide);
        assert_eq!(c.stats().checks_elided, 0, "force override disables hints");
    }

    #[test]
    fn protocols_agree_on_values() {
        for proto in [
            Protocol::LocalKnowledge,
            Protocol::GlobalKnowledge,
            Protocol::Bilateral,
        ] {
            let mut c = OldenCtx::new(Config::olden(4).with_protocol(proto));
            let a = c.alloc(1, 4);
            c.write(a, 0, 42i64, Mechanism::Cache);
            c.read(a, 1, Mechanism::Migrate);
            c.write(a, 1, 43i64, Mechanism::Cache);
            assert_eq!(c.read_i64(a, 0, Mechanism::Cache), 42, "{proto:?}");
            assert_eq!(c.read_i64(a, 1, Mechanism::Cache), 43, "{proto:?}");
        }
    }
}
