//! The worker: owner of one simulated processor.
//!
//! Each worker holds the processor's heap section (the authoritative copy
//! of every word homed there), the payloads of the lines it caches, and
//! the two per-processor halves of `olden-cache`'s coherence engine: a
//! [`ProcCache`] (this processor as requester) and a [`HomeDir`] (this
//! processor as home). Every coherence request is one call to a rule of
//! those — the rules the simulator's `CacheSystem` composes in-process —
//! under whichever Appendix-A scheme the run selected; the worker only
//! attaches line payloads and builds the reply. `Worker::handle` is the
//! one definition of every request arm, and it services each request from
//! local state only (see `msg` module docs for why that makes the system
//! deadlock-free).
//!
//! A request reaches `handle` one of two ways. Every *message* goes
//! through [`Worker::deliver`], the one home of dedup and delivery
//! accounting: on the thread backend the service loop (`Worker::serve`)
//! takes batches from the processor's mailbox, a [`Lane`], until a
//! [`Request::Shutdown`] arrives or a failed run closes the lane, and in
//! a worker *process* under
//! `olden-net` each connection's thread delivers the TCP frames it reads.
//! On the thread backend a logical thread also calls `handle` directly,
//! under the worker's lock, for a request addressed to the processor it
//! occupies — in place on threads, a message over `net`. The sanitizer
//! and obs recorder sit inside `handle`, so they see both paths alike.

use crate::envelope::{Dedup, CONTROL_SRC};
use crate::msg::{Envelope, LineData, LookupReply, Reply, Request, WorkerReport};
use crate::transport::{Lane, MailboxTransport};
use crate::TransportCounters;
use olden_cache::{CacheStats, HomeDir, Probe, ProcCache, Protocol};
use olden_gptr::{GPtr, LineInPage, PageNum, ProcId, Word, LINE_WORDS, PAGE_WORDS};
use olden_obs::{EventKind, Recorder};
use olden_runtime::thread::invalidated;
use olden_runtime::{LineKey, LineSanitizer};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Lock-free view of a worker's liveness for the watchdog's state dump
/// (a stalled worker cannot answer a mailbox query, so this must be
/// readable from outside).
#[derive(Debug, Default)]
pub struct WorkerSlot {
    /// Messages serviced so far.
    pub served: AtomicU64,
    /// 0 = waiting on mailbox, 1 = servicing a message, 2 = exited.
    pub state: AtomicU8,
}

pub const W_WAITING: u8 = 0;
pub const W_SERVING: u8 = 1;
pub const W_EXITED: u8 = 2;

pub struct Worker {
    proc: ProcId,
    /// Coherence scheme in force for this run (identical across the
    /// fleet), handed to the cache rules that depend on it.
    protocol: Protocol,
    /// Heap section; word 0's line reserved so the all-zero GPtr stays
    /// null (the simulator's heap section layout).
    section: Vec<Word>,
    /// Line-validity metadata: the Figure-1 translation table.
    cache: ProcCache,
    /// Directory of the pages homed here: sharer lists and timestamps.
    /// Empty under local knowledge.
    home: HomeDir,
    /// The cached lines' payloads. Clearing the table's metadata leaves
    /// their entries behind (unreachable until re-installed), so an
    /// acquire costs what the table holds, O(resident pages), and never
    /// touches this map.
    lines: HashMap<(ProcId, PageNum, LineInPage), LineData>,
    stats: CacheStats,
    /// Happens-before state of every line homed here. All accesses to a
    /// line reach its home worker (sanitized runs route cache read hits
    /// here via [`Request::SanitizeHit`]), and every happens-before
    /// predecessor of a request — a message or an in-place call — was
    /// serviced before it: one thread's requests reach a worker in order,
    /// and a thread collects its posted requests' acknowledgements at
    /// every release, before another thread can be ordered after it. So
    /// the order in which `handle` runs is a valid feeding order.
    san: LineSanitizer,
    slot: Arc<WorkerSlot>,
    progress: Arc<AtomicU64>,
    /// Run-global transport counters. In-process fleets share one
    /// instance with every client; a worker *process* holds its own,
    /// whose receiver-side values travel home in the shutdown report.
    transport: Arc<TransportCounters>,
    /// Receiver-side exactly-once state (see [`Dedup`]).
    dedup: Dedup,
    /// This worker's own receiver-side counters, mirrored into the
    /// shutdown report so the network backend can assemble run totals
    /// across process boundaries.
    deliveries: u64,
    dupes_suppressed: u64,
    /// Event recorder (recorded runs only). Single-owner: only this
    /// worker writes it; the lane leaves in the shutdown report.
    rec: Option<Recorder>,
}

impl Worker {
    pub fn new(
        proc: ProcId,
        protocol: Protocol,
        slot: Arc<WorkerSlot>,
        progress: Arc<AtomicU64>,
        transport: Arc<TransportCounters>,
        rec: Option<Recorder>,
    ) -> Worker {
        Worker {
            proc,
            protocol,
            section: vec![Word::ZERO; LINE_WORDS],
            cache: ProcCache::new(),
            home: HomeDir::default(),
            lines: HashMap::new(),
            stats: CacheStats::default(),
            san: LineSanitizer::new(),
            slot,
            progress,
            transport,
            dedup: Dedup::new(),
            deliveries: 0,
            dupes_suppressed: 0,
            rec,
        }
    }

    /// The line (homed here) that a section-local word address falls in.
    fn line_of(&self, local: u64) -> LineKey {
        let page = local / PAGE_WORDS as u64;
        let line = ((local % PAGE_WORDS as u64) / LINE_WORDS as u64) as LineInPage;
        (self.proc, page, line)
    }

    /// Service this processor's mailbox until shutdown, answering on the
    /// senders' reply lanes in `hub`. Each wake-up takes every envelope
    /// queued and delivers them under one lock, queueing the replies on
    /// their clients' lanes; once the lock is released each client is
    /// woken once per run of its replies (see `ReplyBatch`).
    /// Threads resident on this processor call `handle` between batches.
    /// Nothing under the lock blocks.
    pub(crate) fn serve(this: &Mutex<Worker>, mailbox: &Lane<Envelope>, hub: &MailboxTransport) {
        let (slot, proc) = {
            let w = this.lock().unwrap();
            (Arc::clone(&w.slot), w.proc)
        };
        let (mut batch, mut replies) = (VecDeque::new(), hub.replies(proc));
        loop {
            slot.state.store(W_WAITING, Ordering::Relaxed);
            if !mailbox.pop_batch(&mut batch) {
                // Mailbox closed without a shutdown: the run failed
                // (stalled, starved or panicked); exit quietly.
                break;
            }
            slot.state.store(W_SERVING, Ordering::Relaxed);
            let mut shutdown = false;
            let mut worker = this.lock().unwrap();
            while let Some(env) = batch.pop_front() {
                let src = env.src;
                shutdown |= matches!(env.req, Request::Shutdown);
                if let Some(reply) = worker.deliver(env) {
                    replies.queue(src, reply);
                }
            }
            drop(worker);
            replies.wake();
            if shutdown {
                break;
            }
        }
        slot.state.store(W_EXITED, Ordering::Relaxed);
    }

    /// Count one delivered envelope and service it, or `None` when it is a
    /// copy of a message already serviced. Every message — mailbox or TCP
    /// frame — enters here, under the worker's lock.
    pub fn deliver(&mut self, env: Envelope) -> Option<Reply> {
        debug_assert!(
            !matches!(env.req, Request::Shutdown) || env.src == CONTROL_SRC,
            "shutdown is control-plane only"
        );
        self.deliveries += 1;
        self.transport.deliveries.fetch_add(1, Ordering::Relaxed);
        self.progress.fetch_add(1, Ordering::Relaxed);
        if !self.dedup.admit(env.src, env.seq) {
            // A retry's or injected duplicate's copy of a message already
            // serviced: discard it (the primary already answered).
            // Delivered but not *served*, so `ExecReport.messages` stays
            // byte-equal to the fault-free run.
            self.dupes_suppressed += 1;
            self.transport
                .dupes_suppressed
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.slot.served.fetch_add(1, Ordering::Relaxed);
        Some(self.handle(env.req))
    }

    /// Service one request from this processor's local state: the single
    /// definition of every request arm, whether the request arrived as a
    /// message or was issued in place by a resident logical thread.
    pub(crate) fn handle(&mut self, req: Request) -> Reply {
        match req {
            Request::Alloc { words } => {
                assert!(words > 0, "zero-size allocation");
                let base = self.section.len() as u64;
                self.section.resize(self.section.len() + words, Word::ZERO);
                Reply::Ptr(GPtr::new(self.proc, base))
            }
            Request::ReadHome { local, clock } => {
                if let Some(c) = clock {
                    self.san.access(self.line_of(local), false, &c);
                }
                Reply::Word(self.section[local as usize])
            }
            Request::WriteHome {
                local,
                value,
                clock,
                track,
            } => {
                if let Some(c) = clock {
                    self.san.access(self.line_of(local), true, &c);
                }
                self.section[local as usize] = value;
                if track {
                    let (_, page, line) = self.line_of(local);
                    self.home
                        .track_write(self.protocol, &mut self.stats, page, line);
                }
                Reply::Unit
            }
            Request::LineFetchReq {
                page,
                line,
                requester,
                clock,
            } => {
                if let Some(c) = clock {
                    self.san.access((self.proc, page, line), false, &c);
                }
                let ts = self.home.register_fetch(self.protocol, page, requester);
                Reply::Line(self.read_line(page, line), ts)
            }
            Request::SanitizeHit { page, line, clock } => {
                self.san.access((self.proc, page, line), false, &clock);
                Reply::Unit
            }
            Request::RaceQuery => Reply::Races(self.san.violations().to_vec()),
            Request::CacheLookup {
                home,
                page,
                line,
                word,
                write,
                wval,
                elide,
            } => {
                debug_assert_ne!(home, self.proc, "local references bypass the cache");
                let probe = self.cache.probe_checked(
                    self.protocol,
                    &mut self.stats,
                    home,
                    page,
                    line,
                    write,
                    elide,
                );
                let key = (home, page, line);
                Reply::Lookup(match probe {
                    Probe::Hit => LookupReply::Hit(self.cached_word(key, word, wval)),
                    Probe::ElidedHit => LookupReply::ElidedHit(self.cached_word(key, word, wval)),
                    // The client now performs the fetch round trip to the
                    // home and installs the line.
                    Probe::Miss => LookupReply::Miss,
                    // The client must consult the home before this access
                    // can be decided; [`Request::RevalApply`] settles it.
                    Probe::RevalNeeded { validated_ts } => {
                        LookupReply::RevalNeeded { validated_ts }
                    }
                })
            }
            Request::CacheInstall {
                home,
                page,
                line,
                mut data,
                word,
                wval,
                ts,
                ..
            } => {
                if let Some(v) = wval {
                    data[word as usize] = v;
                }
                self.cache.install_line(home, page, line, ts);
                self.lines.insert((home, page, line), data);
                Reply::Word(data[word as usize])
            }
            Request::MigrateThread { arrival } => {
                let arrival = arrival.as_arrival();
                if let Some(r) = self.rec.as_mut() {
                    // The same invalidate event the simulator records,
                    // under every protocol — the *acquire* happens
                    // regardless of what bookkeeping it costs.
                    r.instant(EventKind::Invalidate, self.proc, invalidated(arrival));
                }
                self.cache.acquire(self.protocol, arrival);
                Reply::Unit
            }
            Request::SharerQuery { page } => Reply::Sharers(self.home.sharers(page).to_vec()),
            Request::InvalidateLines { home, page, mask } => {
                self.cache
                    .apply_invalidation(&mut self.stats, home, page, mask);
                Reply::Unit
            }
            Request::BumpTs { pages } => {
                self.home.bump_timestamps(&pages);
                Reply::Unit
            }
            Request::RevalQuery {
                page,
                line,
                validated_ts,
                clock,
            } => {
                if let Some(c) = clock {
                    self.san.access((self.proc, page, line), false, &c);
                }
                let (ts, stale_mask) = self.home.revalidate(page, validated_ts);
                Reply::Reval { ts, stale_mask }
            }
            Request::RevalApply {
                home,
                page,
                line,
                ts,
                stale_mask,
                word,
                wval,
                ..
            } => {
                // A surviving line answers like a hit; a stale one sends
                // the client on to the ordinary fetch.
                let survived = self.cache.settle_revalidation(
                    &mut self.stats,
                    home,
                    page,
                    line,
                    ts,
                    stale_mask,
                );
                Reply::Lookup(if survived {
                    LookupReply::Hit(self.cached_word((home, page, line), word, wval))
                } else {
                    LookupReply::Miss
                })
            }
            Request::Shutdown => Reply::Report(Box::new(WorkerReport {
                cache: self.stats,
                pages_ever: self.cache.pages_ever(),
                words_allocated: (self.section.len() - LINE_WORDS) as u64,
                served: self.slot.served.load(Ordering::Relaxed),
                deliveries: self.deliveries,
                dupes_suppressed: self.dupes_suppressed,
                races: self.san.violations().to_vec(),
                lane: self
                    .rec
                    .take()
                    .map(|r| r.into_lane(format!("worker{:02}", self.proc))),
            })),
        }
    }

    /// The word a cache hit answers with, after applying a write's value
    /// to the cached copy (the client still writes through to the home).
    fn cached_word(
        &mut self,
        key: (ProcId, PageNum, LineInPage),
        word: u8,
        wval: Option<Word>,
    ) -> Word {
        let data = self.lines.get_mut(&key).expect("valid line has data");
        if let Some(v) = wval {
            data[word as usize] = v;
        }
        data[word as usize]
    }

    /// Read one line of the home section, zero-padding past the
    /// bump-allocator's high-water mark (a fetched line may cover words
    /// not yet allocated).
    fn read_line(&self, page: PageNum, line: LineInPage) -> LineData {
        let start = page as usize * PAGE_WORDS + line as usize * LINE_WORDS;
        let mut out = [Word::ZERO; LINE_WORDS];
        for (i, w) in out.iter_mut().enumerate() {
            if let Some(v) = self.section.get(start + i) {
                *w = *v;
            }
        }
        out
    }
}
