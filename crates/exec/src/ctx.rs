//! [`ExecCtx`]: the thread backend's execution context.
//!
//! One `ExecCtx` is the state of one *logical Olden thread* — the thread
//! of control the paper's runtime migrates between processors. It drives
//! the thread discipline of `olden_runtime::thread` (whose `ThreadState`
//! holds the processor, the frames and the written set), and turns every
//! heap operation into requests to the worker that owns the touched
//! processor. A request to another processor — a
//! remote word, a line fetch, a migration arrival, coherence traffic — is
//! a message; one to the processor the thread occupies (a local load or
//! store, a cache probe or install, a local allocation), and every
//! request of an uncharged region, is serviced in place on threads and is
//! a message over `net` (see `ExecCtx::req`).
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
//! per-processor caches. A `future_call_inline` body (the IR
//! interpreter's) borrows its spawner's state, so it runs inline in this
//! mode too, exactly as in lockstep.

use crate::chaos::{ExecError, MsgCounts, Verdict};
use crate::frame::{CompleteOnDrop, FrameHandle};
use crate::msg::{ArrivalKind, Envelope, LookupReply, Reply, Request};
use crate::transport::ClientConn;
use crate::{ClientSlot, Mode, Shared, C_DONE, C_JOINING, C_RUNNING, C_WAITING_BODY};
use olden_cache::{invalidation_targets, Arrival, DirtyPage, Release, WriteEpoch};
use olden_gptr::{GPtr, ProcId, ProcSet, Word, LINE_WORDS};
use olden_obs::{EventKind, Recorder};
use olden_runtime::thread::{self, Driver, Ended, Spawned, ThreadState};
use olden_runtime::{
    Backend, CacheStats, Check, CostModel, FaultEvent, FaultTag, Mechanism, RaceViolation,
    RunStats, TransportStats, VClock,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What a future body's thread hands back when joined: its value, written
/// set and counters; its write epoch (continuing the spawner's when the
/// body completed inline); and (sanitizer only) its final vector clock,
/// joined into the toucher's (the simulator's `Join` edge).
pub struct BodyOutcome<T> {
    value: T,
    written: ProcSet,
    counters: ClientFinal,
    epoch: WriteEpoch,
    clock: VClock,
}

/// A forked future body, as the touch that joins it finds it.
pub enum ExecBody<T> {
    /// Lockstep: the body ran on this logical thread, ending with a clock
    /// (sanitizer only).
    Ended(Ended<T, Option<VClock>>),
    /// Parallel: the body is (or was) running on its own OS thread.
    Running(JoinHandle<BodyOutcome<T>>),
}

impl<T> From<Ended<T, Option<VClock>>> for ExecBody<T> {
    fn from(ended: Ended<T, Option<VClock>>) -> Self {
        ExecBody::Ended(ended)
    }
}

/// The result of a `future_call` on the thread backend, claimed by
/// `touch`.
pub type ExecHandle<T> = Spawned<T, ExecBody<T>>;

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
    /// The logical thread. Its frames are its own plus, for a body thread,
    /// those inherited from its spawner (a migration here must be able to
    /// steal an ancestor's continuation); an uncharged region reaches the
    /// heap in place, counts no events and runs no cache or migration
    /// machinery, as in the simulator. Its recorder is single-owner: the
    /// lane is parked in `Shared::lanes` when the thread finishes.
    t: ThreadState<Arc<FrameHandle>>,
    /// Client-side half of the cache counters, the cacheable accesses (the
    /// remote half lives in the workers).
    cache: CacheStats,
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
    /// Primary sends by kind, this thread's and its joined bodies'.
    sent: MsgCounts,
    /// Injected *delayed* duplicates, held back here and flushed before
    /// the next send — so the copy really does arrive out of order with
    /// the traffic in between.
    delayed: Vec<(ProcId, Envelope)>,
    /// Acknowledgements owed by each worker: posted requests sent to it
    /// whose replies are not read yet (see [`ExecCtx::settle`]).
    owed: Vec<u32>,
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
        let rec = shared.cfg.record.then(|| Recorder::exec(shared.epoch));
        ExecCtx {
            t: ThreadState::new(proc, rec),
            cache: CacheStats::default(),
            epoch: WriteEpoch::default(),
            clock: VClock::new(),
            slot,
            conn,
            seq: 0,
            sent: MsgCounts::default(),
            delayed: Vec::new(),
            owed: vec![0; shared.cfg.procs],
            shared,
        }
    }

    fn sanitizing(&self) -> bool {
        self.shared.cfg.sanitize
    }

    /// Clock to piggyback on a heap-access message: the current one when
    /// sanitizing and charged, `None` otherwise (uncharged accesses are
    /// invisible to the sanitizer, exactly as in the simulator).
    fn clock_for_msg(&self) -> Option<VClock> {
        (self.sanitizing() && self.t.charged()).then(|| self.clock.clone())
    }

    /// Start a new segment on `p`: draw a fresh shared tick for `p` and
    /// advance the clock's `p` component to it.
    fn clock_bump(&mut self, p: ProcId) {
        if self.sanitizing() {
            let tick = self.shared.ticks[p as usize].fetch_add(1, Ordering::Relaxed) + 1;
            self.clock.advance(p, tick);
        }
    }

    /// End this logical thread: a release, so its posted requests are
    /// performed before its spawner, the toucher or the shutdown drain goes
    /// on, and every copy it sent is on its way.
    pub(crate) fn finish(mut self) -> ClientFinal {
        self.settle();
        self.park_lane();
        self.slot.state.store(C_DONE, Ordering::Relaxed);
        ClientFinal {
            stats: self.t.stats,
            cache: self.cache,
            sent: self.sent,
        }
    }

    /// Hand this logical thread's event lane to the run (recorded runs
    /// only); called once when the thread finishes.
    fn park_lane(&mut self) {
        if let Some(r) = self.t.rec.take() {
            let lane = r.into_lane(format!("client{:04}", self.slot.id));
            self.shared.lanes.lock().unwrap().push(lane);
        }
    }

    /// Event counters accumulated by this logical thread so far.
    pub fn stats(&self) -> &RunStats {
        &self.t.stats
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

    /// One request to a worker, through the fault layer.
    ///
    /// The reply doubles as the acknowledgement: a dropped transmission
    /// is re-sent after exponential backoff (the stand-in for an ack
    /// timeout), every copy of the message carrying the same sequence
    /// number so the receiver services it at most once. A message whose
    /// every allowed attempt is dropped fails the run with a typed
    /// [`ExecError::Starved`] — under [`FaultPlan`](crate::FaultPlan)'s
    /// liveness rule that can only happen to a 100%-dropped class.
    ///
    /// A *posted* kind ([`MsgKind::posted`](crate::msg::MsgKind::posted)),
    /// whose reply is only that acknowledgement, does not wait for it:
    /// `req` answers `Unit` at once and the worker's real `Unit` is read
    /// later, by the next blocking request to the same worker (queued
    /// behind the post) or by the next release ([`ExecCtx::settle`]).
    /// Under release consistency a write need only be performed by the
    /// writer's next release. The connection holds a posted envelope
    /// until this thread's next send to that worker or a flush, so the
    /// posts and the request that waits travel as one batch.
    ///
    /// A request is serviced in place when the target processor's state
    /// lives in this process (threads, not `net`) and either the thread
    /// occupies that processor or the thread is uncharged: the thread calls
    /// the worker's `handle` itself under its lock — no envelope, sequence
    /// number, fault verdict or reply lane. The paper's local load or
    /// inline cache probe needs no message, and an uncharged region (a
    /// structure-building phase, §5) records no traffic. Off its own
    /// processor the thread first collects what it posted to that worker,
    /// so its own earlier write-throughs are performed before the request;
    /// on it, it owes nothing, as every move settles. An arrival stays a
    /// message wherever it lands, so every migration still costs exactly
    /// one.
    fn req(&mut self, proc: ProcId, req: Request) -> Reply {
        let here = proc == self.t.proc;
        if (here || !self.t.charged()) && !matches!(req, Request::MigrateThread { .. }) {
            if let Some(worker) = self.shared.link.resident(proc) {
                if !here && self.owed[proc as usize] > 0 {
                    // `collect`, on the fields `worker` does not borrow.
                    self.conn.flush();
                    for _ in 0..std::mem::take(&mut self.owed[proc as usize]) {
                        self.conn.recv_reply(proc).expect_unit();
                    }
                }
                let reply = worker.lock().unwrap().handle(req);
                self.bump();
                return reply;
            }
        }
        let posted = req.kind().posted();
        self.transmit(proc, req, posted);
        self.bump();
        if posted {
            self.owed[proc as usize] += 1;
            return Reply::Unit;
        }
        self.collect(proc);
        self.conn.recv_reply(proc)
    }

    /// Read the acknowledgements `proc` owes, in the order it was sent the
    /// posts.
    fn collect(&mut self, proc: ProcId) {
        for _ in 0..std::mem::take(&mut self.owed[proc as usize]) {
            self.conn.recv_reply(proc).expect_unit();
        }
    }

    /// The release point of posting: transmit everything the connection
    /// holds, then read every acknowledgement owed, so each posted request
    /// is performed before the thread moves, forks or ends. Delayed
    /// duplicates still held by the fault layer stay held.
    fn settle(&mut self) {
        // Only posts are held, and each is owed until collected.
        if self.owed.iter().all(|&n| n == 0) {
            return;
        }
        self.conn.flush();
        for p in 0..self.owed.len() {
            self.collect(p as ProcId);
        }
    }

    /// Send one logical message, or post it: a fresh sequence number and
    /// as many copies as the fault layer's verdicts call for.
    fn transmit(&mut self, proc: ProcId, req: Request, posted: bool) {
        self.flush_delayed();
        let kind = req.kind();
        self.sent.add(kind, 1);
        self.seq += 1;
        let env = Envelope {
            src: self.slot.id,
            seq: self.seq,
            req,
        };
        let plan = &self.shared.cfg.plan;
        let t = &self.shared.transport;
        let put = |conn: &mut dyn ClientConn| {
            if posted {
                conn.post(proc, &env)
            } else {
                conn.send(proc, &env)
            }
        };
        let mut attempt: u32 = 0;
        loop {
            match plan.verdict(kind, env.src, proc, env.seq, attempt) {
                Verdict::Deliver => {
                    t.sends.fetch_add(1, Ordering::Relaxed);
                    put(self.conn.as_mut());
                    break;
                }
                Verdict::Duplicate { delayed } => {
                    t.sends.fetch_add(1, Ordering::Relaxed);
                    put(self.conn.as_mut());
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
                        put(self.conn.as_mut());
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
                    // `plan` and the counters borrow `self.shared`, not the
                    // thread state.
                    self.t.instant(EventKind::Retry, proc, attempt as u64);
                    // Backing off is forward progress: keep the watchdog
                    // informed so a retry storm is not mistaken for a
                    // stall.
                    self.shared.progress.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(1u64 << attempt.min(11)));
                }
            }
        }
    }

    /// The cache half of [`Driver::cached_word`]: consult the current
    /// processor's cache; on a miss, do the fetch round trip to the home
    /// and install the line. Returns the word seen through the cache —
    /// which, by design, may be stale until the next acquire — and whether
    /// the worker answered via the elision fast path.
    fn cached_access(&mut self, p: GPtr, wval: Option<Word>, elide: bool) -> (Word, bool) {
        let (home, page, line) = (p.proc(), p.page(), p.line_in_page());
        let word = (p.local() % LINE_WORDS as u64) as u8;
        let write = wval.is_some();
        let cur = self.t.proc;
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
        self.t.instant(EventKind::LineFetch, cur, home as u64);
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
        let cur = self.t.proc;
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
            word: (p.local() % LINE_WORDS as u64) as u8,
            write: wval.is_some(),
            wval,
            ts,
        };
        self.req(cur, install).expect_word()
    }

    /// The release half of a migration send: end this thread's write
    /// epoch and carry out its verdict. All traffic is client-driven round
    /// trips (workers never talk to each other), in the verdict's sorted
    /// order so chaotic runs see a deterministic message sequence.
    fn depart_release(&mut self, from: ProcId) {
        match self.epoch.drain(self.shared.cfg.protocol) {
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

    /// The idle spawn processor grabbed the continuation; resume there (no
    /// acquire — the continuation never left). Clock-wise this rewinds to
    /// the steal point: the continuation saw nothing the body did after
    /// its migration.
    fn resume_stolen(&mut self, spawn_proc: ProcId, steal_clock: Option<VClock>) {
        if let Some(sc) = steal_clock {
            self.clock = sc;
        }
        self.t.proc = spawn_proc;
        self.slot.proc.store(spawn_proc, Ordering::Relaxed);
        self.clock_bump(spawn_proc);
        self.t.instant(EventKind::Steal, spawn_proc, 0);
    }

    /// Parallel mode's fork: the body runs on its own OS thread, and the
    /// spawner blocks until it either completes or migrates off the
    /// spawning processor (lazy task creation: only a migration makes the
    /// continuation stealable).
    fn fork_thread<T, F>(&mut self, f: F) -> ExecHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Self) -> T + Send + 'static,
    {
        if !self.t.charged() {
            return Spawned::Ready(f(self));
        }
        // The body is another client: what the spawner posted must be
        // performed before it can read it.
        self.settle();
        let frame = Arc::<FrameHandle>::default();
        let spawn_proc = thread::spawn(self, Arc::clone(&frame));
        let mut child = ExecCtx::fresh(Arc::clone(&self.shared), spawn_proc);
        // The body can steal its own frame and any ancestor's.
        child.t.frames = self.t.frames.clone();
        // The body continues the spawner's write epoch: dirty lines
        // accumulated here travel with it and flush at its next departure
        // (one thread in the simulator).
        child.epoch = self.epoch.clone();
        // The body continues the spawner's segment (no bump until it
        // migrates), exactly as in the simulator.
        child.clock = self.clock.clone();
        let body_frame = Arc::clone(&frame);
        let join = std::thread::Builder::new()
            .name(format!("olden-body-{}", child.slot.id))
            .spawn(move || {
                let _complete = CompleteOnDrop(body_frame);
                child.t.begin(EventKind::FutureBody, spawn_proc);
                let value = f(&mut child);
                child.t.end(EventKind::FutureBody, child.t.proc);
                if _complete.0.is_stolen() {
                    // A forked body releases as it sends its value home
                    // (the simulator's depart at the stolen arm); an
                    // inline body's dirty lines return to the spawner
                    // instead.
                    let end_proc = child.t.proc;
                    child.depart_release(end_proc);
                }
                BodyOutcome {
                    value,
                    written: child.t.written(),
                    epoch: std::mem::take(&mut child.epoch),
                    clock: std::mem::take(&mut child.clock),
                    counters: child.finish(),
                }
            })
            .expect("spawn future body thread");
        self.slot.state.store(C_WAITING_BODY, Ordering::Relaxed);
        let st = frame.wait_done_or_stolen();
        self.slot.state.store(C_RUNNING, Ordering::Relaxed);
        self.bump();
        self.t.frames.pop().expect("frame underflow");
        if st.stolen {
            self.t.stats.steals += 1;
            // The stolen body took the write epoch with it (it cloned ours
            // and departs at its end); the continuation starts a fresh
            // epoch here.
            self.epoch = WriteEpoch::default();
            self.resume_stolen(spawn_proc, st.steal_clock);
            Spawned::Forked(ExecBody::Running(join))
        } else {
            // Completed without migrating: join immediately; the future
            // never forked. The body never migrated, so its clock equals
            // ours — nothing to join.
            let out = join_body(join);
            self.absorb(&out.counters);
            self.t.adopt(out.written);
            // The inline body extended our write epoch; adopt its final
            // state (ours was a prefix of it).
            self.epoch = out.epoch;
            Spawned::Ready(out.value)
        }
    }

    /// Fold a joined future body's counters into this thread's.
    fn absorb(&mut self, body: &ClientFinal) {
        self.t.stats.absorb(&body.stats);
        self.cache.absorb(&body.cache);
        self.sent.absorb(&body.sent);
    }
}

/// The thread backend's moves: every release, steal and acquire is a
/// message to a worker, and a release first collects every posted
/// request's acknowledgement (see `ExecCtx::settle`).
impl Driver for ExecCtx {
    type Frame = Arc<FrameHandle>;
    type End = Option<VClock>;
    type Body<T> = ExecBody<T>;

    fn thread(&mut self) -> &mut ThreadState<Arc<FrameHandle>> {
        &mut self.t
    }

    /// Cycle accounting belongs to the simulator: a spawn, a touch or a
    /// dereference's check only feeds the watchdog's progress signal.
    fn cost(&mut self, _: fn(&CostModel) -> u64) {
        self.bump();
    }

    /// Release at the origin (see `ExecCtx::depart_release`, then every
    /// posted request performed), steal the futures spawned there, and
    /// acquire at the destination.
    fn hop(&mut self, to: ProcId, arrival: Arrival) {
        let from = self.t.proc;
        self.depart_release(from);
        self.settle();
        // Steals are marked with the *departing* segment's clock, before
        // the bump: the resumed continuation is ordered after everything
        // up to the migration, not after the body's later work. In
        // parallel mode a steal wakes the spawner blocked in
        // `fork_thread` — the StealNotify of the protocol.
        let clock = self.sanitizing().then(|| self.clock.clone());
        for frame in self.t.steal_from(from) {
            frame.steal(clock.as_ref());
        }
        self.t.proc = to;
        self.slot.proc.store(to, Ordering::Relaxed);
        self.clock_bump(to);
        self.acquire(arrival);
    }

    /// The worker records the acquire's invalidation while servicing the
    /// round trip, so it lands between the thread's send and receive
    /// events — the simulator's order.
    fn acquire(&mut self, arrival: Arrival) {
        let arrival = ArrivalKind::from(arrival);
        self.req(self.t.proc, Request::MigrateThread { arrival })
            .expect_unit();
    }

    fn fork(&mut self, anchor: ProcId, frame: Arc<FrameHandle>) -> Option<VClock> {
        // The body thread releases as it sends its value home (the
        // simulator's depart at the stolen arm); the continuation then
        // reads in place on `anchor` what the body posted there.
        self.depart_release(self.t.proc);
        self.settle();
        let body_clock = self.sanitizing().then(|| self.clock.clone());
        self.resume_stolen(anchor, frame.steal_clock());
        body_clock
    }

    fn gate(&self) -> (Option<Mechanism>, bool) {
        (self.shared.cfg.force, self.shared.cfg.elide_checks)
    }

    /// The client-side half: the cacheable accesses.
    fn cache_stats(&mut self) -> &mut CacheStats {
        &mut self.cache
    }

    /// A read, or the write-through of `wval`, at the home.
    fn home_word(&mut self, p: GPtr, wval: Option<Word>) -> Word {
        let (local, clock) = (p.local(), self.clock_for_msg());
        let Some(value) = wval else {
            return self
                .req(p.proc(), Request::ReadHome { local, clock })
                .expect_word();
        };
        // Charged writes run the home-side half of the write-tracking
        // instrumentation (global/bilateral); uncharged writes — like the
        // simulator's — are invisible to the coherence machinery.
        let track = self.t.charged() && self.shared.cfg.protocol.tracks_writes();
        let req = Request::WriteHome {
            local,
            value,
            clock,
            track,
        };
        self.req(p.proc(), req).expect_unit();
        value
    }

    fn cached_word(&mut self, p: GPtr, wval: Option<Word>, elide: bool) -> (Word, bool) {
        let seen = self.cached_access(p, wval, elide);
        if wval.is_some() {
            // The cached copy is updated (the line allocated on a miss);
            // now write through to the home, which is performed by the
            // next release.
            self.home_word(p, wval);
        }
        seen
    }

    /// The thread-side half of the write tracking: remember the dirty
    /// line for the next departure's release.
    fn note_write(&mut self, p: GPtr) {
        let protocol = self.shared.cfg.protocol;
        self.epoch
            .note_write(protocol, p.proc(), p.page(), p.line_in_page());
    }

    fn join<T>(&mut self, body: ExecBody<T>) -> (T, ProcSet) {
        let (value, written, clock) = match body {
            ExecBody::Ended(e) => (e.value, e.written, e.end),
            ExecBody::Running(join) => {
                self.slot.state.store(C_JOINING, Ordering::Relaxed);
                let out = join_body(join);
                self.slot.state.store(C_RUNNING, Ordering::Relaxed);
                self.bump();
                self.absorb(&out.counters);
                self.t.adopt(out.written);
                let clock = self.sanitizing().then_some(out.clock);
                (out.value, out.written, clock)
            }
        };
        // Order this thread after the body's final segment, in a fresh one.
        if let Some(c) = clock {
            self.clock.join(&c);
            self.clock_bump(self.t.proc);
        }
        (value, written)
    }
}

/// What the root logical thread hands back when the program completes:
/// the client-side halves of the run's counters. Public so alternative
/// orchestrators (`olden-net`'s parent process) can assemble an
/// [`ExecReport`](crate::ExecReport) from it.
pub struct ClientFinal {
    pub stats: RunStats,
    /// The cacheable accesses; the workers' reports hold the rest.
    pub cache: CacheStats,
    /// Primary sends by kind over the whole program.
    pub sent: MsgCounts,
}

impl Backend for ExecCtx {
    type Handle<T: Send + 'static> = ExecHandle<T>;

    fn nprocs(&self) -> usize {
        self.shared.cfg.procs
    }

    fn cur_proc(&self) -> ProcId {
        self.t.proc
    }

    /// Cycle accounting belongs to the simulator; here the call only feeds
    /// the watchdog's progress signal.
    fn work(&mut self, _cycles: u64) {
        self.bump();
    }

    fn alloc(&mut self, proc: ProcId, words: usize) -> GPtr {
        assert!(
            (proc as usize) < self.shared.cfg.procs,
            "ALLOC on unknown processor"
        );
        if self.t.charged() {
            self.bump();
            self.t.stats.allocs += 1;
            self.t.stats.words_allocated += words as u64;
        }
        self.req(proc, Request::Alloc { words }).expect_ptr()
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

    fn future_call<T, F>(&mut self, f: F) -> ExecHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Self) -> T + Send + 'static,
    {
        match self.shared.cfg.mode {
            // The simulator's discipline exactly: body inline, one logical
            // thread throughout.
            Mode::Lockstep => thread::future_call(self, f),
            Mode::Parallel => self.fork_thread(f),
        }
    }

    /// Inline in both modes: the simulator's discipline, as in lockstep.
    fn future_call_inline<T: Send + 'static>(
        &mut self,
        f: impl FnOnce(&mut Self) -> T,
    ) -> ExecHandle<T> {
        thread::future_call(self, f)
    }

    fn touch<T: Send + 'static>(&mut self, h: ExecHandle<T>) -> T {
        thread::touch(self, h)
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
        for p in 0..self.shared.cfg.procs {
            out.extend(self.req(p as ProcId, Request::RaceQuery).expect_races());
        }
        out
    }
}
