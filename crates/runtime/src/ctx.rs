//! The execution context: Olden's runtime system as seen by a program.
//!
//! A benchmark runs *once*, sequentially, computing exact values; the
//! context meanwhile simulates where each instruction would have executed
//! (the current processor follows migrations), what the software cache
//! would have done, and how futures would have forked, recording the task
//! DAG that `olden-machine` replays into a parallel makespan.
//!
//! A program drives it through [`Backend`] alone: the dereference, call,
//! future and touch rules live once in [`crate::thread`], shared with the
//! thread backend, and this context is their simulator [`Driver`]. A word
//! is a heap operation charged a local reference, and a remote cached one
//! goes through [`CacheSystem::access_checked`] with its lookup, miss and
//! write-through costs. A move releases through `cache.depart`, charges
//! its costs and opens a trace segment behind a `Migrate` or `Return`
//! edge. A future's body runs inline; if it migrated off the spawning
//! processor, the continuation is re-anchored there (a `Steal` edge) and
//! the matching touch becomes a join (a `Join` edge carrying the
//! value-return message). An untouched-by-migration future costs only the
//! spawn bookkeeping, as in the original system.

use crate::backend::Backend;
use crate::config::{Check, Config, Mechanism};
use crate::heap::DistributedHeap;
use crate::report::RunStats;
use crate::sanitize::{LineSanitizer, RaceViolation};
use crate::thread::{self, Driver, Ended, Spawned, ThreadState};
use olden_cache::{Access, Arrival, CacheStats, CacheSystem};
use olden_gptr::{GPtr, ProcId, ProcSet, Word};
use olden_machine::trace::{EdgeKind, SegId, Trace};
use olden_machine::{CostModel, VClock};
use olden_obs::{EventKind, Recorder, Recording};

/// The simulator's future handle, claimed by [`Backend::touch`]. A forked
/// body ended at a segment, with a clock (sanitizer only).
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

    /// Start a new segment on `p`: draw `p`'s next tick and advance the
    /// clock's `p` component to it (the segment-clock rule of
    /// `olden_machine::clocks`, applied as segments are created).
    fn clock_bump(&mut self, p: ProcId) {
        if self.cfg.sanitize {
            self.clock.bump(p, &mut self.ticks[p as usize]);
        }
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

    /// The heap operation of one word access, logged with the sanitizer
    /// when charged (after any migration, so the clock is the segment's
    /// that really performs it).
    #[inline(always)]
    fn heap_word(&mut self, p: GPtr, wval: Option<Word>) -> Word {
        if self.cfg.sanitize && self.t.charged() {
            let line = (p.proc(), p.page(), p.line_in_page());
            self.sanitizer.access(line, wval.is_some(), &self.clock);
        }
        match wval {
            Some(v) => {
                self.heap.write(p, v);
                v
            }
            None => self.heap.read(p),
        }
    }
}

impl Backend for OldenCtx {
    type Handle<T: Send + 'static> = FutureHandle<T>;

    fn nprocs(&self) -> usize {
        self.cfg.procs
    }

    fn cur_proc(&self) -> ProcId {
        self.t.proc
    }

    fn work(&mut self, cycles: u64) {
        self.charge(cycles);
    }

    fn alloc(&mut self, proc: ProcId, words: usize) -> GPtr {
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

    fn access(
        &mut self,
        ptr: GPtr,
        field: usize,
        wval: Option<Word>,
        mech: Mechanism,
        check: Check,
    ) -> Word {
        thread::deref(self, ptr, field, wval, mech, check)
    }

    fn uncharged<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        thread::uncharged(self, f)
    }

    fn call<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        thread::call(self, f)
    }

    fn future_call<T, F>(&mut self, f: F) -> FutureHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Self) -> T + Send + 'static,
    {
        thread::future_call(self, f)
    }

    fn future_call_inline<T: Send + 'static>(
        &mut self,
        f: impl FnOnce(&mut Self) -> T,
    ) -> FutureHandle<T> {
        thread::future_call(self, f)
    }

    fn touch<T: Send + 'static>(&mut self, h: FutureHandle<T>) -> T {
        thread::touch(self, h)
    }

    /// The sanitizer runs online, so this can be called mid-run; always
    /// empty unless the run was configured with [`Config::sanitized`].
    fn race_violations(&mut self) -> Vec<RaceViolation> {
        self.sanitizer.violations().to_vec()
    }

    /// The simulator's one logical thread makes a single lane, labeled
    /// `sim`; the lane's timestamps are logical (one tick per event), its
    /// `proc` fields follow the thread's migrations. `None` unless the run
    /// was configured with [`Config::recorded`].
    fn take_recording(&mut self) -> Option<Recording> {
        let rec = self.t.rec.take()?;
        Some(Recording::new(
            self.cfg.procs,
            vec![rec.into_lane("sim".to_string())],
        ))
    }
}

/// The simulator's moves: a release through `cache.depart` with its
/// charged costs, a new trace segment behind an edge, an acquire in the
/// destination's cache; and its words: heap operations with their cycle
/// costs, a remote cached one through the cache system.
impl Driver for OldenCtx {
    type Frame = Option<(SegId, VClock)>;
    type End = (SegId, VClock);
    type Body<T> = Ended<T, (SegId, VClock)>;

    fn thread(&mut self) -> &mut ThreadState<Self::Frame> {
        &mut self.t
    }

    #[inline]
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

    #[inline]
    fn gate(&self) -> (Option<Mechanism>, bool) {
        (self.cfg.force, self.cfg.elide_checks)
    }

    #[inline]
    fn cache_stats(&mut self) -> &mut CacheStats {
        self.cache.stats_mut()
    }

    /// Always inlined into `thread::deref`, as is `heap_word`: out of line,
    /// the extra call per access measured about a tenth fewer
    /// `sim-kernels` jobs per second.
    #[inline(always)]
    fn home_word(&mut self, p: GPtr, wval: Option<Word>) -> Word {
        self.charge(self.cfg.cost.local_ref);
        self.heap_word(p, wval)
    }

    /// A verified cached hit skips the hash probe too and costs a local
    /// reference; otherwise the probe, and on a miss the line's service.
    /// A write always pays its write-through.
    fn cached_word(&mut self, p: GPtr, wval: Option<Word>, elide: bool) -> (Word, bool) {
        let (cur, home, write) = (self.t.proc, p.proc(), wval.is_some());
        let before = self.cache.stats().checks_elided;
        let (page, line) = (p.page(), p.line_in_page());
        let acc = self
            .cache
            .access_checked(cur, home, page, line, write, elide);
        let elided = self.cache.stats().checks_elided > before;
        let c = &self.cfg.cost;
        let mut cycles = if elided { c.local_ref } else { c.cache_lookup };
        if let Access::Miss { .. } = acc {
            cycles += c.miss_service;
            self.t.instant(EventKind::LineFetch, cur, home as u64);
        }
        if write {
            cycles += c.write_through;
        }
        self.charge(cycles);
        (self.heap_word(p, wval), elided)
    }

    /// Compiler-inserted write tracking (global/bilateral schemes), charged
    /// where the write ran.
    fn note_write(&mut self, p: GPtr) {
        let track = self
            .cache
            .note_write(self.t.proc, p.proc(), p.page(), p.line_in_page());
        self.charge(track);
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

    /// A field of the null pointer is a null dereference, not processor
    /// 0's reserved line.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "null dereference")]
    fn null_field_read_panics() {
        ctx(4).read(GPtr::NULL, 1, Mechanism::Migrate);
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
        let h = c.future_call(move |c| c.read_i64(a, 0, Mechanism::Migrate));
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
        let h = c.future_call(move |c| c.call(move |c| c.read_i64(a, 0, Mechanism::Migrate)));
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
