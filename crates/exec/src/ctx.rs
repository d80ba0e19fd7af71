//! [`ExecCtx`]: the thread backend's execution context.
//!
//! One `ExecCtx` is the state of one *logical Olden thread* — the thread
//! of control the paper's runtime migrates between processors. It tracks
//! the current processor, the future-frame stack, and the write-set
//! scopes, and turns every heap operation into messages to the worker
//! that owns the touched processor.
//!
//! ### Lockstep parity
//!
//! In [`Mode::Lockstep`](crate::Mode) the context performs *exactly* the
//! operation sequence of the simulator's `OldenCtx` (future bodies run
//! inline on the one logical thread), so every event counter — migrations,
//! steals, cache hits and misses, per-processor pages cached — must equal
//! the simulator's for the same program. The integration tests hold the
//! two implementations to that.
//!
//! ### Parallel mode
//!
//! In [`Mode::Parallel`](crate::Mode) a `future_call` spawns the body on
//! its own OS thread and blocks until the body either completes or
//! migrates off the spawning processor (lazy task creation: only a
//! migration makes the continuation stealable). Values and the
//! steal/migration counters stay deterministic — both depend only on the
//! program's own data — but cache hit/miss totals become
//! interleaving-dependent, since concurrent threads really do share the
//! per-processor caches.

use crate::chaos::{ExecError, Verdict};
use crate::frame::{CompleteOnDrop, FrameHandle};
use crate::msg::{ArrivalKind, Envelope, LookupReply, Reply, Request};
use crate::transport::ClientConn;
use crate::{ClientSlot, Mode, Shared, C_DONE, C_JOINING, C_RUNNING, C_WAITING_BODY};
use olden_cache::{invalidation_targets, DirtyPage, Release, WriteEpoch};
use olden_gptr::{GPtr, ProcId, Word, LINE_WORDS};
use olden_obs::{EventKind, Recorder};
use olden_runtime::{
    Backend, Check, FaultEvent, FaultTag, Mechanism, RaceViolation, RunStats, TransportStats,
    VClock,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What a future body's thread hands back when joined.
pub(crate) struct BodyOutcome<T> {
    value: T,
    written: Vec<ProcId>,
    stats: RunStats,
    cacheable_reads: u64,
    cacheable_writes: u64,
    /// The body's write epoch (continues the spawner's when the body
    /// completed inline).
    epoch: WriteEpoch,
    /// Sanitizer: the body's final vector clock, joined into the
    /// toucher's clock (the simulator's `Join` edge).
    clock: VClock,
}

enum HandleInner<T: Send + 'static> {
    /// Body already completed on this logical thread (lockstep, an
    /// uncharged region, or a parallel body that finished without
    /// migrating). `parallel` records whether the continuation was stolen,
    /// i.e. whether the touch is a real join needing a return-acquire.
    Ready {
        value: T,
        written: Vec<ProcId>,
        parallel: bool,
        /// Sanitizer, stolen lockstep futures only: the body's final
        /// clock, joined at the touch.
        clock: Option<VClock>,
    },
    /// Parallel mode, continuation stolen: the body is (or was) running on
    /// its own OS thread; the touch joins it.
    Pending { join: JoinHandle<BodyOutcome<T>> },
}

/// The result of a `future_call` on the thread backend, claimed by
/// `touch`.
#[must_use = "a future must be touched before its value is used"]
pub struct ExecHandle<T: Send + 'static>(HandleInner<T>);

impl<T: Send + 'static> ExecHandle<T> {
    /// A future whose body completed on the spawning logical thread (its
    /// write set already merged there): the touch is not a join.
    fn inline(value: T) -> Self {
        ExecHandle(HandleInner::Ready {
            value,
            written: Vec::new(),
            parallel: false,
            clock: None,
        })
    }

    /// Whether this future turned into a real parallel task.
    pub fn is_parallel(&self) -> bool {
        match &self.0 {
            HandleInner::Ready { parallel, .. } => *parallel,
            HandleInner::Pending { .. } => true,
        }
    }
}

fn join_body<T>(join: JoinHandle<BodyOutcome<T>>) -> BodyOutcome<T> {
    match join.join() {
        Ok(out) => out,
        // The body panicked; its CompleteOnDrop guard already woke us.
        // Re-raise on the joining thread so the failure surfaces.
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// One logical Olden thread executing against the worker fleet.
pub struct ExecCtx {
    shared: Arc<Shared>,
    cur_proc: ProcId,
    /// When > 0, execution is in an uncharged region: values are computed
    /// (heap traffic still flows) but no events are counted and no cache
    /// or migration machinery runs — mirroring the simulator.
    free_depth: u32,
    /// In-flight future frames this thread can steal from: its own plus,
    /// for a body thread, the frames inherited from its spawner (a
    /// migration here must be able to steal an ancestor's continuation).
    frames: Vec<Arc<FrameHandle>>,
    write_scopes: Vec<Vec<ProcId>>,
    stats: RunStats,
    /// Client-side halves of the cache counters (the remote halves live in
    /// the workers).
    cacheable_reads: u64,
    cacheable_writes: u64,
    /// Lines this logical thread wrote since its last migration
    /// departure, drained by [`ExecCtx::depart_release`].
    epoch: WriteEpoch,
    /// Sanitizer: this logical thread's vector clock, mirroring the
    /// simulator's per-segment clocks — advanced (with a fresh shared
    /// tick) on every migration, steal resume, and touch join. Untouched
    /// when the sanitizer is off.
    clock: VClock,
    slot: Arc<ClientSlot>,
    /// This logical thread's connection to the worker fleet (mailbox
    /// lanes in-process, TCP sockets under `olden-net`).
    conn: Box<dyn ClientConn>,
    /// Per-sender logical sequence number (the exactly-once key); the
    /// next message will carry `seq + 1`.
    seq: u64,
    /// Injected *delayed* duplicates, held back here and flushed before
    /// the next send — so the copy really does arrive out of order with
    /// the traffic in between.
    delayed: Vec<(ProcId, Envelope)>,
    /// Event recorder (recorded runs only). Single-owner: only this
    /// logical thread writes it; the lane is parked in `Shared::lanes`
    /// when the thread finishes.
    rec: Option<Recorder>,
}

impl ExecCtx {
    pub(crate) fn root(shared: Arc<Shared>) -> ExecCtx {
        let mut ctx = ExecCtx::fresh(shared, 0);
        // The root segment's tick, matching the simulator's segment 0.
        ctx.clock_bump(0);
        ctx
    }

    /// A new logical thread on `proc`: its own client id (hence its own
    /// sequence space), connection and event lane, and nothing inherited.
    fn fresh(shared: Arc<Shared>, proc: ProcId) -> ExecCtx {
        let slot = shared.register_client(proc);
        let conn = shared.link.connect(slot.id);
        let rec = shared.record.then(|| Recorder::exec(shared.epoch));
        ExecCtx {
            shared,
            cur_proc: proc,
            free_depth: 0,
            frames: Vec::new(),
            write_scopes: vec![Vec::new()],
            stats: RunStats::default(),
            cacheable_reads: 0,
            cacheable_writes: 0,
            epoch: WriteEpoch::default(),
            clock: VClock::new(),
            slot,
            conn,
            seq: 0,
            delayed: Vec::new(),
            rec,
        }
    }

    fn sanitizing(&self) -> bool {
        self.shared.sanitize
    }

    /// Clock to piggyback on a heap-access message: the current one when
    /// sanitizing and charged, `None` otherwise (uncharged accesses are
    /// invisible to the sanitizer, exactly as in the simulator).
    fn clock_for_msg(&self) -> Option<VClock> {
        (self.sanitizing() && self.free_depth == 0).then(|| self.clock.clone())
    }

    /// Start a new segment on `p`: draw a fresh shared tick for `p` and
    /// advance the clock's `p` component to it.
    fn clock_bump(&mut self, p: ProcId) {
        if self.sanitizing() {
            let tick = self.shared.ticks[p as usize].fetch_add(1, Ordering::Relaxed) + 1;
            self.clock.advance(p, tick);
        }
    }

    pub(crate) fn finish(mut self) -> ClientFinal {
        self.park_lane();
        self.slot.state.store(C_DONE, Ordering::Relaxed);
        ClientFinal {
            stats: self.stats,
            cacheable_reads: self.cacheable_reads,
            cacheable_writes: self.cacheable_writes,
        }
    }

    /// Hand this logical thread's event lane to the run (recorded runs
    /// only); called once when the thread finishes.
    fn park_lane(&mut self) {
        if let Some(r) = self.rec.take() {
            let lane = r.into_lane(format!("client{:04}", self.slot.id));
            self.shared.lanes.lock().unwrap().push(lane);
        }
    }

    #[inline]
    fn rec_instant(&mut self, kind: EventKind, proc: ProcId, arg: u64) {
        if let Some(r) = self.rec.as_mut() {
            r.instant(kind, proc, arg);
        }
    }

    #[inline]
    fn rec_begin(&mut self, kind: EventKind, proc: ProcId) {
        if let Some(r) = self.rec.as_mut() {
            r.begin(kind, proc, 0);
        }
    }

    #[inline]
    fn rec_end(&mut self, kind: EventKind, proc: ProcId) {
        if let Some(r) = self.rec.as_mut() {
            r.end(kind, proc);
        }
    }

    /// Event counters accumulated by this logical thread so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Every operation bumps the run's progress counter; the watchdog
    /// declares a stall only when this stops moving.
    fn bump(&self) {
        self.shared.progress.fetch_add(1, Ordering::Relaxed);
        self.slot.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Release any delayed duplicates before the next primary send, so
    /// the copies arrive genuinely reordered past intervening traffic.
    /// (Copies still held when the client exits were simply eaten by the
    /// network: never transmitted, never counted.)
    fn flush_delayed(&mut self) {
        if self.delayed.is_empty() {
            return;
        }
        for (dst, env) in std::mem::take(&mut self.delayed) {
            self.shared.transport.sends.fetch_add(1, Ordering::Relaxed);
            self.conn.send(dst, &env);
        }
    }

    /// One request/reply round trip to a worker, through the fault layer.
    ///
    /// The reply doubles as the acknowledgement: a dropped transmission
    /// is re-sent after exponential backoff (the stand-in for an ack
    /// timeout), every copy of the message carrying the same sequence
    /// number so the receiver services it at most once. A message whose
    /// every allowed attempt is dropped fails the run with a typed
    /// [`ExecError::Starved`] — under [`FaultPlan`](crate::FaultPlan)'s
    /// liveness rule that can only happen to a 100%-dropped class.
    fn req(&mut self, proc: ProcId, req: Request) -> Reply {
        self.flush_delayed();
        let kind = req.kind();
        self.seq += 1;
        let env = Envelope {
            src: self.slot.id,
            seq: self.seq,
            req,
        };
        let plan = &self.shared.plan;
        let t = &self.shared.transport;
        let mut attempt: u32 = 0;
        loop {
            match plan.verdict(kind, env.src, proc, env.seq, attempt) {
                Verdict::Deliver => {
                    t.sends.fetch_add(1, Ordering::Relaxed);
                    self.conn.send(proc, &env);
                    break;
                }
                Verdict::Duplicate { delayed } => {
                    t.sends.fetch_add(1, Ordering::Relaxed);
                    self.conn.send(proc, &env);
                    t.record(FaultEvent {
                        tag: if delayed {
                            FaultTag::DelayedDuplicate
                        } else {
                            FaultTag::Duplicated
                        },
                        msg: kind.name(),
                        src: env.src,
                        dst: proc,
                        seq: env.seq,
                        attempt,
                    });
                    if delayed {
                        self.delayed.push((proc, env.clone()));
                    } else {
                        t.sends.fetch_add(1, Ordering::Relaxed);
                        self.conn.send(proc, &env);
                    }
                    break;
                }
                Verdict::Drop => {
                    t.sends.fetch_add(1, Ordering::Relaxed);
                    t.drops.fetch_add(1, Ordering::Relaxed);
                    t.record(FaultEvent {
                        tag: FaultTag::Dropped,
                        msg: kind.name(),
                        src: env.src,
                        dst: proc,
                        seq: env.seq,
                        attempt,
                    });
                    attempt += 1;
                    if attempt >= plan.max_attempts {
                        std::panic::panic_any(ExecError::Starved {
                            kind,
                            dst: proc,
                            seq: env.seq,
                            attempts: attempt,
                        });
                    }
                    t.retries.fetch_add(1, Ordering::Relaxed);
                    // Direct field access: `plan`/`t` borrow `self.shared`,
                    // which is disjoint from `self.rec`.
                    if let Some(r) = self.rec.as_mut() {
                        r.instant(EventKind::Retry, proc, attempt as u64);
                    }
                    // Backing off is forward progress: keep the watchdog
                    // informed so a retry storm is not mistaken for a
                    // stall.
                    self.shared.progress.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(1u64 << attempt.min(11)));
                }
            }
        }
        let r = self.conn.recv_reply(proc);
        self.bump();
        r
    }

    /// One word access at the home: the write-through of `wval`, or a
    /// read. Returns the word written or read.
    fn home_access(&mut self, p: GPtr, wval: Option<Word>) -> Word {
        let (local, clock) = (p.local(), self.clock_for_msg());
        let Some(value) = wval else {
            return self
                .req(p.proc(), Request::ReadHome { local, clock })
                .expect_word();
        };
        // Charged writes run the home-side half of the write-tracking
        // instrumentation (global/bilateral); uncharged writes — like the
        // simulator's — are invisible to the coherence machinery.
        let track = self.free_depth == 0 && self.shared.protocol.tracks_writes();
        let req = Request::WriteHome {
            local,
            value,
            clock,
            track,
        };
        self.req(p.proc(), req).expect_unit();
        value
    }

    /// A remote access under the cache mechanism (a write when `wval` is
    /// set): consult the current processor's cache; on a miss, do the
    /// fetch round trip to the home and install the line. Returns the word
    /// seen through the cache — which, by design, may be stale until the
    /// next acquire — and whether the worker answered via the elision fast
    /// path.
    fn cached_access(&mut self, p: GPtr, wval: Option<Word>, elide: bool) -> (Word, bool) {
        let (home, page, line) = (p.proc(), p.page(), p.line_in_page());
        let word = p.local() as usize % LINE_WORDS;
        let write = wval.is_some();
        let cur = self.cur_proc;
        let lookup = Request::CacheLookup {
            home,
            page,
            line,
            word,
            write,
            wval,
            elide,
        };
        let reply = self.req(cur, lookup).expect_lookup();
        if let LookupReply::Hit(w) | LookupReply::ElidedHit(w) = reply {
            if !write {
                // A cached read hit never generates home traffic, but the
                // line's happens-before state lives at the home: notify
                // it. (Write hits are covered by the write-through that
                // follows.) Elided hits are still real accesses, so they
                // notify too.
                if let Some(clock) = self.clock_for_msg() {
                    self.req(home, Request::SanitizeHit { page, line, clock })
                        .expect_unit()
                }
            }
            return (w, matches!(reply, LookupReply::ElidedHit(_)));
        }
        // Not a hit: the access takes a round trip to the home whatever
        // happens next — the miss-class event the simulator records. That
        // first trip (the fetch, or under bilateral the revalidation of an
        // epoch-marked page) doubles as the sanitized read access; a write
        // instead carries its clock on the write-through, so each
        // simulator-side logged access maps to exactly one clocked message.
        self.rec_instant(EventKind::LineFetch, cur, home as u64);
        let mut clock = if write { None } else { self.clock_for_msg() };
        if let LookupReply::RevalNeeded { validated_ts } = reply {
            let query = Request::RevalQuery {
                page,
                line,
                validated_ts,
                clock: clock.take(),
            };
            let (ts, stale_mask) = self.req(home, query).expect_reval();
            let apply = Request::RevalApply {
                home,
                page,
                line,
                ts,
                stale_mask,
                word,
                write,
                wval,
            };
            match self.req(cur, apply).expect_lookup() {
                // The line survived: answered like a hit (one round trip
                // total, counted as a revalidation).
                LookupReply::Hit(w) => return (w, false),
                // Stale: fetched for real below, clock-free — the query
                // already carried the sanitized read.
                LookupReply::Miss => {}
                other => unreachable!("RevalApply answered {other:?}"),
            }
        }
        (self.fetch_and_install(p, wval, clock), false)
    }

    /// The fetch + install round trips of a true miss. `clock` is set when
    /// the fetch is also the access the sanitizer logs.
    fn fetch_and_install(&mut self, p: GPtr, wval: Option<Word>, clock: Option<VClock>) -> Word {
        let (home, page, line) = (p.proc(), p.page(), p.line_in_page());
        let cur = self.cur_proc;
        let fetch = Request::LineFetchReq {
            page,
            line,
            requester: cur,
            clock,
        };
        let (data, ts) = self.req(home, fetch).expect_line();
        let install = Request::CacheInstall {
            home,
            page,
            line,
            data,
            word: p.local() as usize % LINE_WORDS,
            write: wval.is_some(),
            wval,
            ts,
        };
        self.req(cur, install).expect_word()
    }

    fn note_written(&mut self, home: ProcId) {
        let top = self.write_scopes.last_mut().expect("write scope stack");
        if !top.contains(&home) {
            top.push(home);
        }
    }

    fn merge_written(&mut self, written: &[ProcId]) {
        for &p in written {
            self.note_written(p);
        }
    }

    /// The release half of a migration send: end this thread's write
    /// epoch and carry out its verdict. All traffic is client-driven round
    /// trips (workers never talk to each other), in the verdict's sorted
    /// order so chaotic runs see a deterministic message sequence.
    fn depart_release(&mut self, from: ProcId) {
        match self.epoch.drain(self.shared.protocol) {
            Release::Nothing => {}
            Release::Invalidate(pages) => {
                for DirtyPage { home, page, mask } in pages {
                    let sharers = self
                        .req(home, Request::SharerQuery { page })
                        .expect_sharers();
                    for s in invalidation_targets(&sharers, from) {
                        self.req(s, Request::InvalidateLines { home, page, mask })
                            .expect_unit();
                    }
                }
            }
            Release::Bump(by_home) => {
                for (home, pages) in by_home {
                    self.req(home, Request::BumpTs { pages }).expect_unit();
                }
            }
        }
    }

    /// Thread migration to `target`.
    fn migrate_to(&mut self, target: ProcId) {
        let from = self.cur_proc;
        debug_assert_ne!(from, target);
        self.stats.migrations += 1;
        self.rec_instant(EventKind::MigrateSend, from, target as u64);
        self.hop(target, ArrivalKind::Call);
        // The worker recorded the acquire's invalidation while servicing
        // the round trip, so this lands after it — same order as the
        // simulator's send → invalidate → receive.
        self.rec_instant(EventKind::MigrateRecv, target, from as u64);
    }

    /// What a forward and a return migration share: release at the origin
    /// (see [`ExecCtx::depart_release`]), make futures spawned from the
    /// vacated processor stealable, and acquire at the destination.
    fn hop(&mut self, to: ProcId, arrival: ArrivalKind) {
        let from = self.cur_proc;
        self.depart_release(from);
        // Steals are marked with the *departing* segment's clock, before
        // the bump: the resumed continuation is ordered after everything
        // up to the migration, not after the body's later work.
        self.mark_steals(from);
        self.cur_proc = to;
        self.slot.proc.store(to, Ordering::Relaxed);
        self.clock_bump(to);
        self.arrive(arrival);
    }

    /// The idle spawn processor grabbed the continuation; resume there (no
    /// acquire — the continuation never left). Clock-wise this rewinds to
    /// the steal point: the continuation saw nothing the body did after
    /// its migration.
    fn resume_stolen(&mut self, spawn_proc: ProcId, steal_clock: Option<VClock>) {
        if let Some(sc) = steal_clock {
            self.clock = sc;
        }
        self.cur_proc = spawn_proc;
        self.slot.proc.store(spawn_proc, Ordering::Relaxed);
        self.clock_bump(spawn_proc);
        self.rec_instant(EventKind::Steal, spawn_proc, 0);
    }

    /// A migration just vacated `proc`: every in-flight future anchored
    /// there becomes stolen (in parallel mode this wakes the spawner
    /// blocked in `future_call` — the StealNotify of the protocol).
    fn mark_steals(&mut self, proc: ProcId) {
        let clock = self.sanitizing().then(|| self.clock.clone());
        for f in self.frames.iter().rev() {
            if f.anchor == proc {
                f.steal(clock.as_ref());
            }
        }
    }

    /// The acquire at the current processor: a migration's arrival, or a
    /// touched future's value receipt (a return with the body's write set).
    fn arrive(&mut self, arrival: ArrivalKind) {
        self.req(self.cur_proc, Request::MigrateThread { arrival })
            .expect_unit();
    }

    /// Fold a joined future body's counters into this thread's.
    fn absorb<T>(&mut self, out: &BodyOutcome<T>) {
        self.stats.absorb(&out.stats);
        self.cacheable_reads += out.cacheable_reads;
        self.cacheable_writes += out.cacheable_writes;
    }

    /// One charged or uncharged word access — a write when `wval` is set —
    /// resolved by `mech`. Returns the word read (or written).
    fn access(
        &mut self,
        ptr: GPtr,
        field: usize,
        wval: Option<Word>,
        mech: Mechanism,
        check: Check,
    ) -> Word {
        let p = ptr.offset(field as u64);
        debug_assert!(!p.is_null(), "null dereference");
        if self.free_depth > 0 {
            return self.home_access(p, wval);
        }
        self.bump();
        let mech = self.shared.force.unwrap_or(mech);
        // Whether a `Check::Elide` verdict is honored in this run (the
        // simulator's gate in `OldenCtx::resolve`).
        let want = check == Check::Elide && self.shared.elide_checks && self.shared.force.is_none();
        let local = p.is_local_to(self.cur_proc);
        let (value, elided) = match mech {
            Mechanism::Migrate => {
                if local {
                    self.stats.migrate_local += 1;
                } else {
                    // A stale elision hint performs the full check.
                    self.stats.migrate_remote += 1;
                    self.migrate_to(p.proc());
                }
                (self.home_access(p, wval), want && local)
            }
            Mechanism::Cache => {
                if wval.is_some() {
                    self.cacheable_writes += 1;
                } else {
                    self.cacheable_reads += 1;
                }
                if local {
                    (self.home_access(p, wval), want)
                } else {
                    let seen = self.cached_access(p, wval, want);
                    if wval.is_some() {
                        // The cached copy is updated (the line allocated on
                        // a miss); now write through to the home — every
                        // write reaches the authoritative copy
                        // synchronously.
                        self.home_access(p, wval);
                    }
                    seen
                }
            }
        };
        if elided {
            self.stats.checks_elided += 1;
        } else {
            self.stats.checks_performed += 1;
        }
        if wval.is_some() {
            // The thread-side half of the write tracking: remember the
            // dirty line for the next departure's release.
            self.epoch
                .note_write(self.shared.protocol, p.proc(), p.page(), p.line_in_page());
            self.note_written(p.proc());
        }
        value
    }
}

/// What the root logical thread hands back when the program completes:
/// the client-side halves of the run's counters. Public so alternative
/// orchestrators (`olden-net`'s parent process) can assemble an
/// [`ExecReport`](crate::ExecReport) from it.
pub struct ClientFinal {
    pub stats: RunStats,
    pub cacheable_reads: u64,
    pub cacheable_writes: u64,
}

impl Backend for ExecCtx {
    type Handle<T: Send + 'static> = ExecHandle<T>;

    fn nprocs(&self) -> usize {
        self.shared.procs
    }

    fn cur_proc(&self) -> ProcId {
        self.cur_proc
    }

    /// Cycle accounting belongs to the simulator; here the call only feeds
    /// the watchdog's progress signal.
    fn work(&mut self, _cycles: u64) {
        self.bump();
    }

    fn alloc(&mut self, proc: ProcId, words: usize) -> GPtr {
        assert!(
            (proc as usize) < self.shared.procs,
            "ALLOC on unknown processor"
        );
        if self.free_depth == 0 {
            self.bump();
            self.stats.allocs += 1;
            self.stats.words_allocated += words as u64;
        }
        self.req(proc, Request::Alloc { words }).expect_ptr()
    }

    fn read(&mut self, ptr: GPtr, field: usize, mech: Mechanism) -> Word {
        self.access(ptr, field, None, mech, Check::Perform)
    }

    fn write_word(&mut self, ptr: GPtr, field: usize, value: Word, mech: Mechanism) {
        self.access(ptr, field, Some(value), mech, Check::Perform);
    }

    fn read_checked(&mut self, ptr: GPtr, field: usize, mech: Mechanism, check: Check) -> Word {
        self.access(ptr, field, None, mech, check)
    }

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

    fn uncharged<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        self.free_depth += 1;
        let r = f(self);
        self.free_depth -= 1;
        r
    }

    fn call<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.free_depth > 0 {
            return f(self);
        }
        let entry = self.cur_proc;
        self.write_scopes.push(Vec::new());
        let r = f(self);
        let written = self.write_scopes.pop().expect("scope underflow");
        self.merge_written(&written);
        if self.cur_proc != entry {
            self.stats.return_migrations += 1;
            let from = self.cur_proc;
            self.rec_instant(EventKind::ReturnSend, from, entry as u64);
            self.hop(entry, ArrivalKind::Return(written));
            self.rec_instant(EventKind::ReturnRecv, entry, from as u64);
        }
        r
    }

    fn future_call<T, F>(&mut self, f: F) -> ExecHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Self) -> T + Send + 'static,
    {
        if self.free_depth > 0 {
            return ExecHandle::inline(f(self));
        }
        self.bump();
        self.stats.futures += 1;
        let spawn_proc = self.cur_proc;
        let frame = Arc::new(FrameHandle::new(spawn_proc));
        self.frames.push(Arc::clone(&frame));
        match self.shared.mode {
            Mode::Lockstep => {
                // The simulator's discipline exactly: body inline, one
                // logical thread throughout.
                self.rec_begin(EventKind::FutureBody, spawn_proc);
                self.write_scopes.push(Vec::new());
                let value = f(self);
                let written = self.write_scopes.pop().expect("scope underflow");
                self.merge_written(&written);
                self.frames.pop().expect("frame underflow");
                self.rec_end(EventKind::FutureBody, self.cur_proc);
                if frame.is_stolen() {
                    self.stats.steals += 1;
                    // The body thread releases as it sends its value home
                    // (the simulator's depart at the stolen arm).
                    self.depart_release(self.cur_proc);
                    // The touch joins the body's final clock.
                    let body_clock = self.sanitizing().then(|| self.clock.clone());
                    self.resume_stolen(spawn_proc, frame.steal_clock());
                    ExecHandle(HandleInner::Ready {
                        value,
                        written,
                        parallel: true,
                        clock: body_clock,
                    })
                } else {
                    debug_assert_eq!(self.cur_proc, spawn_proc, "unstolen body cannot move");
                    ExecHandle::inline(value)
                }
            }
            Mode::Parallel => {
                let mut child = ExecCtx::fresh(Arc::clone(&self.shared), spawn_proc);
                // The body can steal its own frame and any ancestor's.
                child.frames = self.frames.clone();
                // The body continues the spawner's write epoch: dirty lines
                // accumulated here travel with it and flush at its next
                // departure (one thread in the simulator).
                child.epoch = self.epoch.clone();
                // The body continues the spawner's segment (no bump until
                // it migrates), exactly as in the simulator.
                child.clock = self.clock.clone();
                let body_frame = Arc::clone(&frame);
                let join = std::thread::Builder::new()
                    .name(format!("olden-body-{}", child.slot.id))
                    .spawn(move || {
                        let _complete = CompleteOnDrop(body_frame);
                        child.rec_begin(EventKind::FutureBody, spawn_proc);
                        let value = f(&mut child);
                        let written = child.write_scopes.pop().expect("scope underflow");
                        child.rec_end(EventKind::FutureBody, child.cur_proc);
                        if _complete.0.is_stolen() {
                            // A forked body releases as it sends its value
                            // home (the simulator's depart at the stolen
                            // arm); an inline body's dirty lines return to
                            // the spawner instead.
                            let end_proc = child.cur_proc;
                            child.depart_release(end_proc);
                        }
                        child.park_lane();
                        child.slot.state.store(C_DONE, Ordering::Relaxed);
                        BodyOutcome {
                            value,
                            written,
                            stats: child.stats,
                            cacheable_reads: child.cacheable_reads,
                            cacheable_writes: child.cacheable_writes,
                            epoch: std::mem::take(&mut child.epoch),
                            clock: child.clock,
                        }
                    })
                    .expect("spawn future body thread");
                // Lazy task creation: the spawner is not a parallel thread
                // yet. It waits until the body either finishes (inline
                // future, cheap) or migrates away, stealing it the
                // continuation.
                self.slot.state.store(C_WAITING_BODY, Ordering::Relaxed);
                let st = frame.wait_done_or_stolen();
                self.slot.state.store(C_RUNNING, Ordering::Relaxed);
                self.bump();
                self.frames.pop().expect("frame underflow");
                if st.stolen {
                    self.stats.steals += 1;
                    // The stolen body took the write epoch with it (it
                    // cloned ours and departs at its end); the
                    // continuation starts a fresh epoch here.
                    self.epoch = WriteEpoch::default();
                    self.resume_stolen(spawn_proc, st.steal_clock);
                    ExecHandle(HandleInner::Pending { join })
                } else {
                    // Completed without migrating: join immediately; the
                    // future never forked. The body never migrated, so
                    // its clock equals ours — nothing to join.
                    let out = join_body(join);
                    self.absorb(&out);
                    self.merge_written(&out.written);
                    // The inline body extended our write epoch; adopt its
                    // final state (ours was a prefix of it).
                    self.epoch = out.epoch;
                    ExecHandle::inline(out.value)
                }
            }
        }
    }

    fn touch<T: Send + 'static>(&mut self, h: ExecHandle<T>) -> T {
        if self.free_depth == 0 {
            self.bump();
            self.stats.touches += 1;
        }
        match h.0 {
            HandleInner::Ready {
                value,
                written,
                parallel,
                clock,
            } => {
                if parallel && self.free_depth == 0 {
                    self.rec_begin(EventKind::TouchStall, self.cur_proc);
                    // The touch is a join: order this thread after the
                    // body's final segment, in a fresh segment.
                    if let Some(bc) = &clock {
                        self.clock.join(bc);
                        self.clock_bump(self.cur_proc);
                    }
                    // Receiving the future's value is a migration receipt:
                    // acquire with the body's write set.
                    self.arrive(ArrivalKind::Return(written));
                    self.rec_end(EventKind::TouchStall, self.cur_proc);
                }
                value
            }
            HandleInner::Pending { join } => {
                if self.free_depth == 0 {
                    self.rec_begin(EventKind::TouchStall, self.cur_proc);
                }
                self.slot.state.store(C_JOINING, Ordering::Relaxed);
                let out = join_body(join);
                self.slot.state.store(C_RUNNING, Ordering::Relaxed);
                self.bump();
                self.absorb(&out);
                self.merge_written(&out.written);
                if self.free_depth == 0 {
                    if self.sanitizing() {
                        self.clock.join(&out.clock);
                        self.clock_bump(self.cur_proc);
                    }
                    self.arrive(ArrivalKind::Return(out.written));
                    self.rec_end(EventKind::TouchStall, self.cur_proc);
                }
                out.value
            }
        }
    }

    /// Snapshot of the run's global transport counters (all clients and
    /// workers share them).
    fn transport_stats(&self) -> TransportStats {
        self.shared.transport.snapshot()
    }

    /// Collect the per-line findings from every worker (round trips, so
    /// all of this thread's earlier accesses are already accounted).
    fn race_violations(&mut self) -> Vec<RaceViolation> {
        let mut out = Vec::new();
        for p in 0..self.shared.procs {
            out.extend(self.req(p as ProcId, Request::RaceQuery).expect_races());
        }
        out
    }
}
