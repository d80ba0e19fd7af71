//! olden-exec: a real multi-threaded SPMD execution backend for the Olden
//! reproduction, cross-validated against the simulator.
//!
//! Where `olden-runtime`'s `OldenCtx` *simulates* the paper's runtime —
//! one sequential pass recording a task DAG — this crate *executes* it:
//! one OS **worker thread per simulated processor**, each owning its heap
//! section and its software cache, exchanging the typed messages of
//! [`msg::Request`]/[`msg::Reply`] over a pluggable [`Transport`].
//! Migrations, cache-line fetches, and the coherence traffic of whichever
//! Appendix-A scheme the run selected really happen as messages between
//! threads; a request to the processor the logical thread occupies (a
//! local dereference, a cache probe, a local allocation) is serviced in
//! place, under that worker's lock, as the paper's inline check would be.
//! Future steals and touch joins really happen as thread wake-ups. The
//! coherence *rules* are `olden-cache`'s — the ones the simulator runs
//! in-process; workers and logical threads here only drive them.
//!
//! The topology is a strict client–server star (see [`msg`]): logical
//! Olden threads send requests, workers answer from local state, and
//! workers never wait on anything — so no wait cycle can form and the
//! message system is deadlock-free by construction. A worker's lock is
//! held only while one request is handled, never across a wait, so the
//! in-place path adds no cycle either. Program-level hangs
//! (a buggy kernel blocking forever) are caught by a watchdog that fails
//! the run with a per-worker/per-client state dump instead of hanging the
//! test suite.
//!
//! Two modes (see [`Mode`]): **lockstep** mirrors the simulator's
//! operation sequence exactly, so every event counter reconciles with the
//! simulator's trace (each backend is the other's correctness oracle);
//! **parallel** spawns each future body on its own OS thread, turning
//! migrations into genuine parallelism while keeping values — and the
//! data-dependent migration/steal counters — deterministic.
//!
//! The protocol layer is transport-generic: [`try_run_exec`] wires the
//! fleet over in-process [`MailboxTransport`] lanes, while `olden-net`
//! reuses the same [`ExecCtx`], [`worker::Worker`] loop, chaos layer, and
//! report assembly ([`drive_root`]/[`assemble_report`]) over
//! length-prefixed TCP frames between OS processes.

pub mod chaos;
pub mod envelope;
pub mod frame;
pub mod msg;
pub mod transport;
pub mod wire;
pub mod worker;

mod ctx;

pub use chaos::{ExecError, FaultPlan, MsgCounts, Verdict};
pub use ctx::{ClientFinal, ExecCtx, ExecHandle};
pub use msg::MsgKind;
pub use olden_cache::Protocol;
pub use transport::{ClientConn, MailboxTransport, Transport};

use crate::msg::{Envelope, Request, WorkerReport, CONTROL_SRC};
use crate::worker::{Worker, WorkerSlot, W_EXITED, W_SERVING, W_WAITING};
use olden_gptr::{ProcId, MAX_PROCS};
use olden_obs::{Lane, Recorder, Recording};
use olden_runtime::{
    CacheStats, FaultEvent, FaultLog, Mechanism, RaceViolation, RunStats, TransportStats,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How future bodies execute.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Bodies run inline on the one logical thread, in exactly the
    /// simulator's order: every counter must reconcile with the
    /// simulator's for the same program.
    Lockstep,
    /// Each future body runs on its own OS thread; the spawner blocks
    /// until the body completes or migrates away (lazy task creation).
    /// Values stay deterministic; cache hit/miss totals become
    /// interleaving-dependent.
    Parallel,
}

/// Configuration of one execution.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Worker (simulated processor) count.
    pub procs: usize,
    pub mode: Mode,
    /// When set, every dereference uses this mechanism regardless of what
    /// the benchmark requested (the simulator's `Config::force`).
    pub force: Option<Mechanism>,
    /// The watchdog fails the run if the global progress counter stops
    /// moving for this long.
    pub stall_timeout: Duration,
    /// Run the happens-before race sanitizer: logical threads maintain
    /// vector clocks (advanced on migration, steal, and touch edges) and
    /// piggyback them on their heap traffic; each line's home worker
    /// checks every access against the line's clock state.
    pub sanitize: bool,
    /// Honor the static optimizer's `Check::Elide` verdicts at `*_checked`
    /// access sites (the simulator's `Config::elide_checks`). Off by
    /// default; force overrides disable it regardless.
    pub elide_checks: bool,
    /// Coherence scheme (Appendix A) the worker fleet runs under — the
    /// simulator's `Config::protocol`. Local knowledge by default, like
    /// the paper's measured configuration.
    pub protocol: Protocol,
    /// Deterministic fault schedule for the transport. The default
    /// ([`FaultPlan::none`]) injects nothing and the transport behaves
    /// exactly as if the chaos layer did not exist.
    pub plan: FaultPlan,
    /// Capture an `olden-obs` event recording of the run: every logical
    /// thread and every worker keeps its own event buffer (no shared
    /// state on the hot path), drained into
    /// [`ExecReport::recording`] at shutdown. Off by default — the hooks
    /// are a branch-on-`None` when disabled.
    pub record: bool,
}

impl ExecConfig {
    pub fn lockstep(procs: usize) -> ExecConfig {
        ExecConfig {
            procs,
            mode: Mode::Lockstep,
            force: None,
            stall_timeout: Duration::from_secs(10),
            sanitize: false,
            elide_checks: false,
            protocol: Protocol::LocalKnowledge,
            plan: FaultPlan::none(),
            record: false,
        }
    }

    pub fn parallel(procs: usize) -> ExecConfig {
        ExecConfig {
            mode: Mode::Parallel,
            ..ExecConfig::lockstep(procs)
        }
    }

    /// Same configuration with a forced mechanism.
    pub fn forced(mut self, m: Mechanism) -> ExecConfig {
        self.force = Some(m);
        self
    }

    pub fn with_stall_timeout(mut self, d: Duration) -> ExecConfig {
        self.stall_timeout = d;
        self
    }

    /// Same configuration with the happens-before sanitizer on.
    pub fn sanitized(mut self) -> ExecConfig {
        self.sanitize = true;
        self
    }

    /// Same configuration with the static optimizer's check elisions
    /// honored.
    pub fn optimized(mut self) -> ExecConfig {
        self.elide_checks = true;
        self
    }

    /// Same configuration under another coherence scheme — the
    /// simulator's `Config::with_protocol`.
    pub fn with_protocol(mut self, p: Protocol) -> ExecConfig {
        self.protocol = p;
        self
    }

    /// Same configuration under an explicit fault schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> ExecConfig {
        self.plan = plan;
        self
    }

    /// Same configuration under the seed-derived chaotic fault schedule
    /// (the one the chaos suite sweeps: see [`FaultPlan::from_seed`]).
    pub fn chaotic(self, seed: u64) -> ExecConfig {
        self.with_faults(FaultPlan::from_seed(seed))
    }

    /// Same configuration with event recording on.
    pub fn recorded(mut self) -> ExecConfig {
        self.record = true;
        self
    }
}

/// Watchdog-readable state of one logical thread.
pub struct ClientSlot {
    pub id: u64,
    /// Operations performed (monotone).
    pub ops: AtomicU64,
    pub state: AtomicU8,
    /// Processor the thread currently executes on.
    pub proc: AtomicU8,
}

pub const C_RUNNING: u8 = 0;
pub const C_WAITING_BODY: u8 = 1;
pub const C_JOINING: u8 = 2;
pub const C_DONE: u8 = 3;

/// Global transport accounting for one run. Senders bump
/// `sends`/`drops`/`retries`; receivers bump
/// `deliveries`/`dupes_suppressed`; the fault log records every injected
/// fault. In-process fleets share one instance between every client and
/// every worker; under `olden-net` each worker process holds its own,
/// shipping the receiver-side values home in its shutdown report. On a
/// successful run the assembled totals must satisfy
/// [`TransportStats::conservation_violation`].
#[derive(Default)]
pub struct TransportCounters {
    pub sends: AtomicU64,
    pub deliveries: AtomicU64,
    pub drops: AtomicU64,
    pub retries: AtomicU64,
    pub dupes_suppressed: AtomicU64,
    faults: Mutex<FaultLog>,
}

impl TransportCounters {
    pub fn record(&self, ev: FaultEvent) {
        self.faults.lock().unwrap().record(ev);
    }

    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            sends: self.sends.load(Ordering::Relaxed),
            deliveries: self.deliveries.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            dupes_suppressed: self.dupes_suppressed.load(Ordering::Relaxed),
        }
    }

    pub fn fault_log(&self) -> FaultLog {
        self.faults.lock().unwrap().clone()
    }
}

/// State shared by every logical thread of one run.
pub struct Shared {
    pub cfg: ExecConfig,
    pub transport: Arc<TransportCounters>,
    /// The run's link to its worker fleet; every client connection is
    /// minted from it.
    pub link: Arc<dyn Transport>,
    /// Bumped by every worker message and every client operation; the
    /// watchdog's only signal.
    pub progress: Arc<AtomicU64>,
    pub clients: Mutex<Vec<Arc<ClientSlot>>>,
    /// Sanitizer vector-clock tick source, one counter per processor:
    /// every clock bump on processor `p` draws a fresh tick, so distinct
    /// segments on one processor stay distinguishable across threads.
    pub ticks: Vec<AtomicU64>,
    /// The run's time zero: every recorder stamps monotonic nanoseconds
    /// since this instant, so lanes from different threads align.
    pub epoch: Instant,
    /// Finished client lanes, pushed by each logical thread as it
    /// completes (never touched on the hot path; worker lanes travel in
    /// their shutdown reports instead).
    pub lanes: Mutex<Vec<Lane>>,
    next_client: AtomicU64,
}

impl Shared {
    /// The client-side state of one run over `link`. `counters` is the
    /// sender-side accounting instance (in-process runs hand the same
    /// instance to the workers).
    pub fn new(
        cfg: &ExecConfig,
        link: Arc<dyn Transport>,
        counters: Arc<TransportCounters>,
        progress: Arc<AtomicU64>,
    ) -> Shared {
        Shared {
            cfg: *cfg,
            transport: counters,
            link,
            progress,
            clients: Mutex::new(Vec::new()),
            ticks: (0..cfg.procs).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            lanes: Mutex::new(Vec::new()),
            next_client: AtomicU64::new(0),
        }
    }

    pub fn register_client(&self, proc: ProcId) -> Arc<ClientSlot> {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(ClientSlot {
            id,
            ops: AtomicU64::new(0),
            state: AtomicU8::new(C_RUNNING),
            proc: AtomicU8::new(proc),
        });
        self.clients.lock().unwrap().push(Arc::clone(&slot));
        slot
    }
}

/// Everything measured about one execution (the thread backend's
/// counterpart of the simulator's `RunReport`, minus cycle accounting —
/// timing is the simulator's job).
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Workers in the configuration.
    pub procs: usize,
    /// Runtime event counters, summed over every logical thread.
    pub stats: RunStats,
    /// Software-cache counters: client-side cacheable totals plus the
    /// remote/hit/miss counts summed over the workers.
    pub cache: CacheStats,
    /// Distinct pages ever cached, summed over the workers.
    pub pages_cached: u64,
    /// Words held in the workers' heap sections at shutdown (includes
    /// uncharged allocations, unlike `stats.words_allocated`).
    pub section_words: u64,
    /// Inter-processor messages: logical messages the workers serviced
    /// through `Worker::deliver`, the shutdown drain included. A request a
    /// logical thread serviced in place — on the processor it occupies, or
    /// anywhere from an uncharged region — is not one (threads only — over
    /// `net` every request is a message).
    pub messages: u64,
    /// `messages` by kind, tallied at the senders (the drain's
    /// `Shutdown`s included); the kinds sum to `messages`.
    pub sent: MsgCounts,
    /// Logical threads that existed over the run (1 in lockstep mode).
    pub clients: u64,
    /// Happens-before violations found by the sanitizer, over all
    /// workers (empty unless `ExecConfig::sanitize` was set).
    pub races: Vec<RaceViolation>,
    /// Transport counters (sends, deliveries, drops, retries, suppressed
    /// duplicates). On every successful run these satisfy the
    /// conservation law against `messages`; with a quiet
    /// [`FaultPlan`] they collapse to `sends == deliveries == messages`.
    pub transport: TransportStats,
    /// Every fault the chaos layer injected, in a bounded log.
    pub faults: FaultLog,
    /// Structured event recording — one lane per logical thread plus one
    /// per worker (`None` unless `ExecConfig::record` was set).
    pub recording: Option<Recording>,
}

impl ExecReport {
    /// The lockstep parity predicate, written once: `None` when this
    /// run's full `RunStats`, all twelve `CacheStats` counters and
    /// `pages_cached` equal the simulator's, otherwise the first counter
    /// that differs as `block.name: exec N, sim M`. Called after a run,
    /// by every sim-vs-backend gate; values are the caller's to compare
    /// (their type varies by program).
    pub fn diff_from_sim(
        &self,
        stats: &RunStats,
        cache: &CacheStats,
        pages_cached: u64,
    ) -> Option<String> {
        let first_diff = |block: &str, exec: &[(&str, u64)], sim: &[(&str, u64)]| {
            let mut pairs = exec.iter().zip(sim);
            let ((name, exec), (_, sim)) = pairs.find(|((_, exec), (_, sim))| exec != sim)?;
            Some(format!("{block}{name}: exec {exec}, sim {sim}"))
        };
        first_diff("runtime.", &self.stats.counters(), &stats.counters())
            .or_else(|| first_diff("cache.", &self.cache.counters(), &cache.counters()))
            .or_else(|| {
                let pages = |n| [("pages_cached", n)];
                first_diff("", &pages(self.pages_cached), &pages(pages_cached))
            })
    }
}

/// The client half of the watchdog's state dump. Public so alternative
/// orchestrators compose it with their own worker-side dump (a worker
/// *process* has no in-memory [`WorkerSlot`] to read).
pub fn dump_clients(shared: &Shared) -> String {
    let mut s = String::new();
    for c in shared.clients.lock().unwrap().iter() {
        let st = match c.state.load(Ordering::Relaxed) {
            C_RUNNING => "running",
            C_WAITING_BODY => "waiting for a future body",
            C_JOINING => "joining a touched future",
            C_DONE => "done",
            _ => "unknown",
        };
        let _ = writeln!(
            s,
            "  client {}: {st} on proc {}, {} ops",
            c.id,
            c.proc.load(Ordering::Relaxed),
            c.ops.load(Ordering::Relaxed)
        );
    }
    s
}

fn dump_state(worker_slots: &[Arc<WorkerSlot>], shared: &Shared) -> String {
    let mut s = String::new();
    for (p, w) in worker_slots.iter().enumerate() {
        let st = match w.state.load(Ordering::Relaxed) {
            W_WAITING => "waiting on mailbox",
            W_SERVING => "servicing a message",
            W_EXITED => "exited",
            _ => "unknown",
        };
        let _ = writeln!(
            s,
            "  worker {p}: {st}, {} messages served",
            w.served.load(Ordering::Relaxed)
        );
    }
    s.push_str(&dump_clients(shared));
    s
}

/// Run `program` as the root logical thread against an already-wired
/// fleet, under the stall watchdog.
///
/// The calling thread blocks as the watchdog: if `shared.progress` stops
/// moving for `stall_timeout`, the run fails with
/// [`ExecError::Stalled`] carrying `dump()`'s state snapshot. A root
/// panic whose payload is a typed [`ExecError`] (e.g. a starved message
/// class) is returned as that error; any other panic is the program's
/// own and propagates. Shared between [`try_run_exec`] (thread fleet)
/// and `olden-net` (process fleet).
pub fn drive_root<T, F>(
    shared: &Arc<Shared>,
    stall_timeout: Duration,
    dump: impl Fn() -> String,
    program: F,
) -> Result<(T, ClientFinal), ExecError>
where
    T: Send + 'static,
    F: FnOnce(&mut ExecCtx) -> T + Send + 'static,
{
    let (res_tx, res_rx) = mpsc::channel();
    let root_shared = Arc::clone(shared);
    let root = thread::Builder::new()
        .name("olden-root".into())
        .spawn(move || {
            let mut ctx = ExecCtx::root(root_shared);
            let value = program(&mut ctx);
            let _ = res_tx.send((value, ctx.finish()));
        })
        .expect("spawn root client thread");

    // Watchdog loop: wait for the result, checking the progress counter
    // at every tick. A run making any progress at all never trips it.
    let tick = (stall_timeout / 8).max(Duration::from_millis(10));
    let mut last = shared.progress.load(Ordering::Relaxed);
    let mut stalled = Duration::ZERO;
    let outcome = loop {
        match res_rx.recv_timeout(tick) {
            Ok(out) => break Some(out),
            Err(RecvTimeoutError::Timeout) => {
                let now = shared.progress.load(Ordering::Relaxed);
                if now != last {
                    last = now;
                    stalled = Duration::ZERO;
                } else {
                    stalled += tick;
                    if stalled >= stall_timeout {
                        return Err(ExecError::Stalled {
                            dump: format!("no progress for {stall_timeout:?}\n{}", dump()),
                        });
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => break None,
        }
    };
    let Some(out) = outcome else {
        // The root dropped its channel without sending a result: it
        // panicked. An `ExecError` payload (e.g. a starved message) is
        // this backend's own typed failure: return it. Anything else is
        // the program's panic — re-raise so the failure is the caller's.
        match root.join() {
            Err(payload) => match payload.downcast::<ExecError>() {
                Ok(err) => return Err(*err),
                Err(payload) => std::panic::resume_unwind(payload),
            },
            Ok(()) => unreachable!("root client exited without a result"),
        }
    };
    root.join().expect("root client already sent its result");
    Ok(out)
}

/// The deterministic shutdown drain: a [`Request::Shutdown`] to each of
/// `procs` workers over `control`, in processor order, collecting each
/// one's final report. Control-plane envelopes bypass the fault layer but
/// still count as transport sends, keeping the conservation law exact.
/// Shared between [`try_run_exec`] and `olden-net`.
pub fn drain_fleet(
    control: &mut dyn ClientConn,
    procs: usize,
    counters: &TransportCounters,
) -> Vec<WorkerReport> {
    (0..procs as ProcId)
        .map(|p| {
            counters.sends.fetch_add(1, Ordering::Relaxed);
            control.send(
                p,
                &Envelope {
                    src: CONTROL_SRC,
                    seq: 0,
                    req: Request::Shutdown,
                },
            );
            *control.recv_reply(p).expect_report()
        })
        .collect()
}

/// Aggregate one run's report from the root client's finals and the
/// workers' shutdown reports, verifying the transport conservation law.
/// Shared between [`try_run_exec`] and `olden-net`'s parent orchestrator
/// (which assembles `transport` from its sender-side counters plus the
/// reports' receiver-side sums).
pub fn assemble_report(
    shared: &Shared,
    client: ClientFinal,
    mut reports: Vec<WorkerReport>,
    transport: TransportStats,
    faults: FaultLog,
) -> ExecReport {
    let mut cache = client.cache;
    let (mut pages_cached, mut section_words, mut messages) = (0, 0, 0);
    let mut races = Vec::new();
    for r in &reports {
        cache.absorb(&r.cache);
        pages_cached += r.pages_ever;
        section_words += r.words_allocated;
        messages += r.served;
        races.extend(r.races.iter().copied());
    }
    // Assemble the recording: client lanes parked in `shared.lanes` plus
    // each worker's lane from its shutdown report, sorted by label inside
    // `Recording::new` for determinism.
    let recording = shared.cfg.record.then(|| {
        let mut lanes = std::mem::take(&mut *shared.lanes.lock().unwrap());
        lanes.extend(reports.iter_mut().filter_map(|r| r.lane.take()));
        Recording::new(shared.cfg.procs, lanes)
    });
    let clients = shared.clients.lock().unwrap().len() as u64;
    let mut sent = client.sent;
    sent.add(MsgKind::Shutdown, reports.len() as u64);
    // Self-check the exactly-once machinery on every successful run:
    // nothing lost silently, nothing serviced twice.
    if let Some(violation) = transport.conservation_violation(messages) {
        panic!("olden-exec transport conservation violated: {violation}");
    }
    ExecReport {
        procs: shared.cfg.procs,
        stats: client.stats,
        cache,
        pages_cached,
        section_words,
        messages,
        sent,
        clients,
        races,
        transport,
        faults,
        recording,
    }
}

/// Execute `program` on `cfg.procs` worker threads and report, returning
/// failures as values.
///
/// Spawns the worker fleet over an in-process [`MailboxTransport`], runs
/// the program as the root logical thread, then drains the fleet
/// ([`drain_fleet`]). The calling thread meanwhile acts as the
/// watchdog — if the run's progress counter stalls for
/// `cfg.stall_timeout`, it fails with [`ExecError::Stalled`] carrying a
/// state dump of every worker and logical thread instead of hanging. A
/// message class starved by the fault plan fails with
/// [`ExecError::Starved`]. On either error every mailbox is closed, so
/// the workers exit, and a logical thread still blocked in the program
/// is abandoned; a program panic that is not an [`ExecError`] still
/// propagates as a panic.
pub fn try_run_exec<T, F>(cfg: ExecConfig, program: F) -> Result<(T, ExecReport), ExecError>
where
    T: Send + 'static,
    F: FnOnce(&mut ExecCtx) -> T + Send + 'static,
{
    assert!(cfg.procs >= 1 && cfg.procs <= MAX_PROCS);
    let progress = Arc::new(AtomicU64::new(0));
    let counters = Arc::new(TransportCounters::default());
    let epoch = Instant::now();
    let worker_slots: Vec<_> = (0..cfg.procs)
        .map(|_| Arc::new(WorkerSlot::default()))
        .collect();
    let workers: Vec<_> = worker_slots
        .iter()
        .enumerate()
        .map(|(p, slot)| {
            Arc::new(Mutex::new(Worker::new(
                p as ProcId,
                cfg.protocol,
                Arc::clone(slot),
                Arc::clone(&progress),
                Arc::clone(&counters),
                cfg.record.then(|| Recorder::exec(epoch)),
            )))
        })
        .collect();
    let (hub, mailboxes) = MailboxTransport::new(workers.clone());
    let worker_joins: Vec<_> = workers
        .into_iter()
        .zip(mailboxes.clone())
        .enumerate()
        .map(|(p, (worker, mailbox))| {
            let hub = Arc::clone(&hub);
            thread::Builder::new()
                .name(format!("olden-worker-{p}"))
                .spawn(move || Worker::serve(&worker, &mailbox, &hub))
                .expect("spawn worker thread")
        })
        .collect();
    let shared = Arc::new(Shared {
        epoch,
        ..Shared::new(&cfg, hub, Arc::clone(&counters), Arc::clone(&progress))
    });

    let (value, client) = drive_root(
        &shared,
        cfg.stall_timeout,
        || dump_state(&worker_slots, &shared),
        program,
    )
    .inspect_err(|_| mailboxes.iter().for_each(|m| m.close()))?;

    let mut control = shared.link.connect(CONTROL_SRC);
    let reports = drain_fleet(control.as_mut(), cfg.procs, &counters);
    for jh in worker_joins {
        jh.join().expect("worker exited cleanly");
    }

    let stats = counters.snapshot();
    let faults = counters.fault_log();
    let report = assemble_report(&shared, client, reports, stats, faults);
    Ok((value, report))
}

/// [`try_run_exec`], panicking on failure (the original interface; the
/// panic message carries the [`ExecError`] description, so a stall still
/// reads "watchdog … stalled" with the full state dump).
pub fn run_exec<T, F>(cfg: ExecConfig, program: F) -> (T, ExecReport)
where
    T: Send + 'static,
    F: FnOnce(&mut ExecCtx) -> T + Send + 'static,
{
    match try_run_exec(cfg, program) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olden_gptr::GPtr;
    use olden_runtime::{Backend, Config, OldenCtx};

    /// A field of the null pointer is a null dereference, not processor
    /// 0's reserved line.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "null dereference")]
    fn null_field_read_panics() {
        run_exec(ExecConfig::lockstep(2), |ctx| {
            ctx.read(GPtr::NULL, 1, Mechanism::Migrate)
        });
    }

    /// The exec backend round-trips values through real worker threads.
    #[test]
    fn values_round_trip_through_workers() {
        let (sum, rep) = run_exec(ExecConfig::lockstep(4), |ctx| {
            let mut total = 0i64;
            for p in 0..4u8 {
                let a = ctx.alloc(p, 2);
                ctx.write(a, 0, p as i64 * 3, Mechanism::Migrate);
                total += ctx.read_i64(a, 0, Mechanism::Migrate);
            }
            total
        });
        assert_eq!(sum, 3 + 6 + 9);
        assert_eq!(rep.stats.allocs, 4);
        assert_eq!(rep.stats.migrations, 3, "procs 1..3 are remote");
        assert!(rep.messages > 0);
        assert_eq!(rep.clients, 1);
    }

    /// `diff_from_sim` is `None` on an equal pair and, for every counter
    /// of both blocks and `pages_cached` bumped in turn, names exactly
    /// that counter.
    #[test]
    fn diff_from_sim_names_the_first_differing_counter() {
        macro_rules! bumps {
            ($ty:ty: $($f:ident)*) => {
                [$((stringify!($f), (|s| s.$f += 1) as fn(&mut $ty))),*]
            };
        }
        let runtime = bumps!(RunStats: migrations return_migrations futures steals touches
            allocs words_allocated migrate_local migrate_remote checks_performed checks_elided);
        let cache = bumps!(CacheStats: cacheable_reads cacheable_writes remote_reads
            remote_writes hits misses revalidations invalidations_sent
            invalidations_spurious write_track_cycles checks_performed checks_elided);
        let (_, rep) = run_exec(ExecConfig::lockstep(2), |ctx| {
            let a = ctx.alloc(1, 2);
            ctx.write(a, 0, 7i64, Mechanism::Cache);
        });
        let (stats, cached, pages) = (rep.stats, rep.cache, rep.pages_cached);
        assert_eq!(rep.diff_from_sim(&stats, &cached, pages), None);

        assert_eq!(
            runtime.len(),
            stats.counters().len(),
            "a RunStats field is unlisted"
        );
        for ((field, bump), (name, _)) in runtime.iter().zip(stats.counters()) {
            assert_eq!(*field, name, "counters() order");
            let mut sim = stats;
            bump(&mut sim);
            let msg = rep.diff_from_sim(&sim, &cached, pages).expect(name);
            assert!(msg.starts_with(&format!("runtime.{name}:")), "{msg}");
        }
        assert_eq!(
            cache.len(),
            cached.counters().len(),
            "a CacheStats field is unlisted"
        );
        for ((field, bump), (name, _)) in cache.iter().zip(cached.counters()) {
            assert_eq!(*field, name, "counters() order");
            let mut sim = cached;
            bump(&mut sim);
            let msg = rep.diff_from_sim(&stats, &sim, pages).expect(name);
            assert!(msg.starts_with(&format!("cache.{name}:")), "{msg}");
        }
        let msg = rep.diff_from_sim(&stats, &cached, pages + 1).unwrap();
        assert!(msg.starts_with("pages_cached:"), "{msg}");
    }

    /// A kernel generic over `Backend` produces identical values AND
    /// identical event counters on the simulator and the lockstep thread
    /// backend.
    #[test]
    fn lockstep_counters_reconcile_with_simulator() {
        fn kernel<B: Backend>(ctx: &mut B) -> i64 {
            let n = ctx.nprocs() as u8;
            let ptrs: Vec<GPtr> = (0..n)
                .map(|p| {
                    let a = ctx.alloc(p, 2);
                    ctx.uncharged(|c| c.write(a, 0, p as i64 + 1, Mechanism::Migrate));
                    a
                })
                .collect();
            let mut total = 0i64;
            // Cached remote reads (miss then hit), then a migrating sweep.
            for &a in &ptrs {
                total += ctx.read_i64(a, 0, Mechanism::Cache);
                total += ctx.read_i64(a, 0, Mechanism::Cache);
            }
            for &a in &ptrs {
                total += ctx.call(|c| c.read_i64(a, 0, Mechanism::Migrate));
            }
            let hs: Vec<_> = ptrs
                .iter()
                .map(|&a| {
                    ctx.future_call(move |c| c.call(move |c| c.read_i64(a, 0, Mechanism::Migrate)))
                })
                .collect();
            for h in hs {
                total += ctx.touch(h);
            }
            total
        }
        let mut sim = OldenCtx::new(Config::olden(4));
        let sim_val = kernel(&mut sim);
        let (exec_val, rep) = run_exec(ExecConfig::lockstep(4), kernel);
        assert_eq!(exec_val, sim_val);
        assert_eq!(rep.stats, *sim.stats(), "runtime event counters");
        let sc = sim.cache().stats();
        assert_eq!(rep.cache.cacheable_reads, sc.cacheable_reads);
        assert_eq!(rep.cache.cacheable_writes, sc.cacheable_writes);
        assert_eq!(rep.cache.remote_reads, sc.remote_reads);
        assert_eq!(rep.cache.remote_writes, sc.remote_writes);
        assert_eq!(rep.cache.hits, sc.hits);
        assert_eq!(rep.cache.misses, sc.misses);
        assert_eq!(rep.pages_cached, sim.cache().pages_cached());
    }

    /// Local-knowledge acquire: arriving by migration really clears the
    /// destination worker's cache.
    #[test]
    fn migration_clears_destination_cache() {
        let (_, rep) = run_exec(ExecConfig::lockstep(4), |ctx| {
            let a = ctx.alloc(1, 1);
            let b = ctx.alloc(2, 1);
            ctx.uncharged(|c| {
                c.write(a, 0, 1i64, Mechanism::Migrate);
                c.write(b, 0, 2i64, Mechanism::Migrate);
            });
            ctx.read(a, 0, Mechanism::Cache); // proc 0: miss
            ctx.read(a, 0, Mechanism::Cache); // proc 0: hit
            ctx.read(b, 0, Mechanism::Migrate); // migrate 0 -> 2
            assert_eq!(ctx.cur_proc(), 2);
            ctx.read(a, 0, Mechanism::Cache); // proc 2's cache: miss
        });
        assert_eq!(rep.cache.hits, 1);
        assert_eq!(rep.cache.misses, 2);
    }

    /// Writes through the cache reach the home synchronously and are seen
    /// by a later reader on a third processor.
    #[test]
    fn cached_writes_reach_home() {
        let (v, _) = run_exec(ExecConfig::lockstep(4), |ctx| {
            let a = ctx.alloc(1, 1);
            ctx.write(a, 0, 41i64, Mechanism::Cache); // from proc 0, write miss
            ctx.write(a, 0, 42i64, Mechanism::Cache); // write hit, still written through
            let b = ctx.alloc(3, 1);
            ctx.read(b, 0, Mechanism::Migrate); // hop to proc 3
            ctx.read_i64(a, 0, Mechanism::Cache) // fresh cache: fetches home copy
        });
        assert_eq!(v, 42);
    }

    /// A build phase sends nothing: uncharged allocations, writes and reads
    /// on every processor, by either mechanism, are serviced in place, so
    /// the only messages are the shutdown drain's.
    #[test]
    fn an_uncharged_build_phase_sends_nothing() {
        let (sum, rep) = run_exec(ExecConfig::lockstep(4), |ctx| {
            ctx.uncharged(|c| {
                (0..4u8)
                    .map(|p| {
                        let a = c.alloc(p, 2);
                        c.write(a, 0, p as i64 + 1, Mechanism::Migrate);
                        c.write(a, 1, p as i64 * 10, Mechanism::Cache);
                        c.read_i64(a, 0, Mechanism::Cache) + c.read_i64(a, 1, Mechanism::Migrate)
                    })
                    .sum::<i64>()
            })
        });
        assert_eq!(sum, 10 + 60);
        assert_eq!(
            rep.sent.nonzero().collect::<Vec<_>>(),
            [(MsgKind::Shutdown, 4)]
        );
        assert_eq!(rep.messages, 4);
        assert_eq!(rep.stats, RunStats::default(), "nothing is charged");
    }

    /// An uncharged read at another processor's home is serviced in place
    /// after the thread's own posted write-through there, so it sees the
    /// value a charged cached write just wrote.
    #[test]
    fn an_uncharged_read_sees_the_threads_own_posted_write() {
        let (v, rep) = run_exec(ExecConfig::lockstep(2), |ctx| {
            let a = ctx.alloc(1, 1);
            ctx.write(a, 0, 41i64, Mechanism::Cache); // write-through to proc 1, posted
            ctx.uncharged(|c| c.read_i64(a, 0, Mechanism::Migrate))
        });
        assert_eq!(v, 41);
        assert_eq!(rep.sent.get(MsgKind::WriteHome), 1);
        assert_eq!(rep.sent.get(MsgKind::ReadHome), 0);
    }

    /// Parallel mode: a migrating body forks for real; values and the
    /// deterministic counters match the simulator.
    #[test]
    fn parallel_future_forks_and_joins() {
        fn kernel<B: Backend>(ctx: &mut B) -> i64 {
            let a = ctx.alloc(2, 1);
            ctx.uncharged(|c| c.write(a, 0, 21i64, Mechanism::Migrate));
            let h = ctx.future_call(move |c| c.call(move |c| c.read_i64(a, 0, Mechanism::Migrate)));
            let local = ctx.alloc(0, 1);
            ctx.write(local, 0, 1i64, Mechanism::Migrate);
            ctx.touch(h) + ctx.read_i64(local, 0, Mechanism::Migrate)
        }
        let mut sim = OldenCtx::new(Config::olden(4));
        let sim_val = kernel(&mut sim);
        let (v, rep) = run_exec(ExecConfig::parallel(4), kernel);
        assert_eq!(v, sim_val);
        assert_eq!(rep.stats.steals, sim.stats().steals);
        assert_eq!(rep.stats.migrations, sim.stats().migrations);
        assert_eq!(rep.clients, 2, "root + one forked body");
    }

    /// Parallel mode: an unstolen body stays an inline future.
    #[test]
    fn parallel_unstolen_future_is_inline() {
        let (v, rep) = run_exec(ExecConfig::parallel(2), |ctx| {
            let a = ctx.alloc(0, 1);
            ctx.write(a, 0, 7i64, Mechanism::Migrate);
            let h = ctx.future_call(move |c| c.read_i64(a, 0, Mechanism::Migrate));
            ctx.touch(h)
        });
        assert_eq!(v, 7);
        assert_eq!(rep.stats.futures, 1);
        assert_eq!(rep.stats.steals, 0, "no migration, no fork");
    }

    /// The forced-mechanism override reaches every dereference.
    #[test]
    fn forced_migrate_disables_caching() {
        let (_, rep) = run_exec(ExecConfig::lockstep(4).forced(Mechanism::Migrate), |ctx| {
            let a = ctx.alloc(3, 1);
            ctx.write(a, 0, 1i64, Mechanism::Cache); // forced to migrate
        });
        assert_eq!(rep.stats.migrations, 1);
        assert_eq!(rep.cache.remote_writes, 0);
    }

    /// The happens-before sanitizer: a stolen continuation racing with
    /// its body is detected, and the detection agrees byte-for-byte with
    /// the simulator's on both exec modes.
    #[test]
    fn sanitizer_detects_future_vs_continuation_race() {
        fn kernel<B: Backend>(ctx: &mut B) -> i64 {
            let a = ctx.alloc(1, 1);
            let h = ctx.future_call(move |c| {
                c.call(move |c| {
                    c.write(a, 0, 1i64, Mechanism::Migrate);
                    0i64
                })
            });
            ctx.write(a, 0, 2i64, Mechanism::Cache); // races with the body
            ctx.touch(h)
        }
        let mut sim = OldenCtx::new(Config::olden(4).sanitized());
        kernel(&mut sim);
        let mut sim_races = Backend::race_violations(&mut sim);
        sim_races.sort();
        assert_eq!(sim_races.len(), 1, "{sim_races:?}");
        assert_eq!(sim_races[0].kind(), "write-write");
        for cfg in [
            ExecConfig::lockstep(4).sanitized(),
            ExecConfig::parallel(4).sanitized(),
        ] {
            let mode = cfg.mode;
            let (_, rep) = run_exec(cfg, kernel);
            let mut races = rep.races.clone();
            races.sort();
            assert_eq!(races, sim_races, "{mode:?}");
        }
    }

    /// Ordering the same accesses with a touch silences the sanitizer on
    /// every backend, and the mid-run `Backend::race_violations` hook
    /// agrees with the shutdown report.
    #[test]
    fn sanitizer_is_quiet_when_touch_orders_the_writes() {
        fn kernel<B: Backend>(ctx: &mut B) -> usize {
            let a = ctx.alloc(1, 1);
            let h = ctx.future_call(move |c| {
                c.call(move |c| {
                    c.write(a, 0, 1i64, Mechanism::Migrate);
                    0i64
                })
            });
            ctx.touch(h); // join first …
            ctx.write(a, 0, 2i64, Mechanism::Cache); // … then write: ordered
            ctx.race_violations().len()
        }
        let mut sim = OldenCtx::new(Config::olden(4).sanitized());
        assert_eq!(kernel(&mut sim), 0);
        for cfg in [
            ExecConfig::lockstep(4).sanitized(),
            ExecConfig::parallel(4).sanitized(),
        ] {
            let mode = cfg.mode;
            let (mid_run, rep) = run_exec(cfg, kernel);
            assert_eq!(mid_run, 0, "{mode:?}");
            assert!(rep.races.is_empty(), "{mode:?}: {:?}", rep.races);
        }
    }

    /// Sibling futures whose bodies write one shared line race; the
    /// violation lands on the shared line's home worker.
    #[test]
    fn sanitizer_detects_sibling_future_race() {
        fn kernel<B: Backend>(ctx: &mut B) {
            let shared = ctx.alloc(2, 1);
            let b1 = ctx.alloc(1, 1);
            let b3 = ctx.alloc(3, 1);
            let mk = |probe: GPtr| {
                move |c: &mut B| {
                    c.call(move |c| {
                        c.read(probe, 0, Mechanism::Migrate); // migrate away
                        c.write(shared, 0, 1i64, Mechanism::Cache);
                    })
                }
            };
            let h1 = ctx.future_call(mk(b1));
            let h2 = ctx.future_call(mk(b3));
            ctx.touch(h1);
            ctx.touch(h2);
        }
        for cfg in [
            ExecConfig::lockstep(4).sanitized(),
            ExecConfig::parallel(4).sanitized(),
        ] {
            let mode = cfg.mode;
            let (_, rep) = run_exec(cfg, kernel);
            assert_eq!(rep.races.len(), 1, "{mode:?}: {:?}", rep.races);
            assert_eq!(rep.races[0].kind(), "write-write", "{mode:?}");
            assert_eq!(rep.races[0].line.0, 2, "{mode:?}: shared cell's home");
        }
    }

    /// With the sanitizer off, clocks stay home: no races reported, no
    /// extra messages beyond the unsanitized baseline.
    #[test]
    fn sanitizer_off_is_free() {
        fn kernel<B: Backend>(ctx: &mut B) {
            let a = ctx.alloc(1, 1);
            ctx.write(a, 0, 1i64, Mechanism::Cache);
            ctx.read(a, 0, Mechanism::Cache);
            ctx.read(a, 0, Mechanism::Cache); // hit: would SanitizeHit
        }
        let (_, plain) = run_exec(ExecConfig::lockstep(4), kernel);
        let (_, sane) = run_exec(ExecConfig::lockstep(4).sanitized(), kernel);
        assert!(plain.races.is_empty());
        assert!(sane.races.is_empty());
        assert!(
            sane.messages > plain.messages,
            "sanitized cache hits notify the home"
        );
    }

    /// A stalled run fails loudly — as a typed [`ExecError::Stalled`]
    /// value carrying the state dump — not by hanging.
    #[test]
    fn watchdog_trips_on_a_stalled_client() {
        let cfg = ExecConfig::lockstep(2).with_stall_timeout(Duration::from_millis(300));
        let err = try_run_exec(cfg, |ctx| {
            let a = ctx.alloc(1, 1);
            ctx.write(a, 0, 1i64, Mechanism::Migrate);
            // A buggy kernel that blocks forever.
            thread::sleep(Duration::from_secs(3600));
        })
        .expect_err("a blocked client must trip the watchdog");
        match err {
            ExecError::Stalled { dump } => {
                assert!(dump.contains("no progress for 300ms"), "{dump}");
                assert!(dump.contains("worker 0"), "{dump}");
                assert!(dump.contains("client 0"), "{dump}");
                assert!(dump.contains("running on proc 1"), "{dump}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    /// With the default (quiet) fault plan the transport is perfect:
    /// every send is a delivery, every delivery is serviced, and the
    /// fault log is empty — the chaos layer is invisible.
    #[test]
    fn quiet_plan_transport_is_perfect() {
        let (_, rep) = run_exec(ExecConfig::lockstep(4), |ctx| {
            let a = ctx.alloc(2, 2);
            ctx.write(a, 0, 5i64, Mechanism::Cache);
            ctx.read_i64(a, 0, Mechanism::Cache) + ctx.read_i64(a, 1, Mechanism::Migrate)
        });
        assert_eq!(rep.transport.sends, rep.transport.deliveries);
        assert_eq!(rep.transport.deliveries, rep.messages);
        assert_eq!(rep.transport.drops, 0);
        assert_eq!(rep.transport.retries, 0);
        assert_eq!(rep.transport.dupes_suppressed, 0);
        assert_eq!(rep.faults.total(), 0);
    }

    /// Under a chaotic schedule values and event counters still match the
    /// fault-free run exactly; the injected faults show up only in the
    /// transport counters and the fault log, and the conservation law
    /// (checked inside `try_run_exec` on every run) holds.
    #[test]
    fn chaotic_run_matches_fault_free_run() {
        fn kernel(ctx: &mut ExecCtx) -> i64 {
            let n = ctx.nprocs() as u8;
            let mut total = 0i64;
            for p in 0..n {
                let a = ctx.alloc(p, 2);
                ctx.write(a, 0, p as i64 + 1, Mechanism::Cache);
                total += ctx.read_i64(a, 0, Mechanism::Cache);
                total += ctx.call(|c| c.read_i64(a, 0, Mechanism::Migrate));
            }
            total
        }
        let (base_val, base) = run_exec(ExecConfig::lockstep(4), kernel);
        let mut any_faults = false;
        for seed in 0..8 {
            let (v, rep) = run_exec(ExecConfig::lockstep(4).chaotic(seed), kernel);
            assert_eq!(v, base_val, "seed {seed}");
            assert_eq!(rep.stats, base.stats, "seed {seed}");
            assert_eq!(rep.messages, base.messages, "seed {seed}");
            assert_eq!(
                rep.faults.count(olden_runtime::FaultTag::Dropped),
                rep.transport.drops,
                "seed {seed}: every drop is logged"
            );
            any_faults |= rep.faults.total() > 0;
        }
        assert!(any_faults, "eight chaotic seeds must inject something");
    }

    /// A message class dropped at 100% fails with a typed error naming
    /// the starved kind — never a raw panic, never a deadlock.
    #[test]
    fn starved_class_fails_with_typed_error() {
        let plan = FaultPlan::from_seed(1).starving(MsgKind::Alloc);
        let err = try_run_exec(ExecConfig::lockstep(2).with_faults(plan), |ctx| {
            ctx.alloc(1, 1);
        })
        .expect_err("Alloc is unreachable");
        match err {
            ExecError::Starved { kind, attempts, .. } => {
                assert_eq!(kind, MsgKind::Alloc);
                assert_eq!(attempts, plan.max_attempts);
            }
            other => panic!("expected Starved, got {other:?}"),
        }
    }
}
