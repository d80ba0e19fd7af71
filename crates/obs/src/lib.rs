//! olden-obs: structured observability for both Olden backends.
//!
//! The paper's evaluation is built on per-processor event counts and
//! timelines; this crate is the layer that captures them. A [`Recorder`]
//! collects typed spans and instants — future bodies, migration
//! send/receive pairs, return-stub bounces, cache-line fetches,
//! invalidations, touch stalls — into a bounded per-thread event buffer.
//! The simulator owns one recorder (its single logical thread stamps
//! events with a logical clock); the thread backend gives every logical
//! thread and every worker its own recorder (stamped with monotonic
//! nanoseconds from a shared epoch) and drains them at shutdown, so the
//! hot path never takes a lock — each buffer is touched by exactly one
//! thread until the run ends.
//!
//! A finished run's buffers become a [`Recording`]: lanes of events plus
//! exact per-kind counts (maintained past the buffer cap, so counters
//! always reconcile with `RunStats`/`ExecReport` even when a trace is
//! truncated). Export paths live in the submodules: Chrome `trace_event`
//! JSON ([`chrome`]), plain-text per-processor timelines ([`timeline`]),
//! and a counters-and-histograms [`MetricsRegistry`] ([`metrics`]) that
//! serializes through the hand-rolled [`json`] module.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod timeline;

pub use metrics::{Histogram, MetricsRegistry};

use std::time::Instant;

/// Everything the recorder knows how to capture. A closed vocabulary, so
/// exporters and parity tests can enumerate it (`ALL`, like the machine
/// crate's `EdgeKind`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EventKind {
    /// Span: a future body, from spawn to completion.
    FutureBody,
    /// Span: a touch that is a real join — the toucher waits for (and
    /// then acquires from) a forked body.
    TouchStall,
    /// Instant at the vacated processor: a forward migration departs
    /// (`arg` = destination processor).
    MigrateSend,
    /// Instant at the destination: the migrated thread arrives
    /// (`arg` = source processor).
    MigrateRecv,
    /// Instant: a return-stub migration departs (`arg` = the caller's
    /// processor it bounces back to).
    ReturnSend,
    /// Instant: the return stub arrives back at the caller's processor
    /// (`arg` = the processor it returned from).
    ReturnRecv,
    /// Instant at the spawn processor: an idle processor grabbed a
    /// future's continuation (lazy task creation turned real).
    Steal,
    /// Instant at the accessing processor: a software-cache miss fetched
    /// one line from its home (`arg` = home processor).
    LineFetch,
    /// Instant at the arriving processor: the migration-acquire
    /// invalidation (`arg` = written-home count for a return acquire,
    /// `u64::MAX` for a call acquire's whole-cache clear).
    Invalidate,
    /// Instant: the chaos fault layer dropped a send and the client is
    /// retrying (`arg` = attempt number). Never recorded on a fault-free
    /// run.
    Retry,
}

/// Where an event is recorded on the thread backend: by the logical
/// client thread itself, or by the worker that owns the processor. The
/// simulator records both classes into its one lane; the parity tests
/// filter by site so the two backends' per-processor sequences compare
/// like for like.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Site {
    Client,
    Worker,
}

impl EventKind {
    pub const ALL: [EventKind; 10] = [
        EventKind::FutureBody,
        EventKind::TouchStall,
        EventKind::MigrateSend,
        EventKind::MigrateRecv,
        EventKind::ReturnSend,
        EventKind::ReturnRecv,
        EventKind::Steal,
        EventKind::LineFetch,
        EventKind::Invalidate,
        EventKind::Retry,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EventKind::FutureBody => "future-body",
            EventKind::TouchStall => "touch-stall",
            EventKind::MigrateSend => "migrate-send",
            EventKind::MigrateRecv => "migrate-recv",
            EventKind::ReturnSend => "return-send",
            EventKind::ReturnRecv => "return-recv",
            EventKind::Steal => "steal",
            EventKind::LineFetch => "line-fetch",
            EventKind::Invalidate => "invalidate",
            EventKind::Retry => "retry",
        }
    }

    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL")
    }

    /// Spans are recorded as a begin/end pair; everything else is an
    /// instant.
    pub fn is_span(self) -> bool {
        matches!(self, EventKind::FutureBody | EventKind::TouchStall)
    }

    pub fn site(self) -> Site {
        match self {
            EventKind::Invalidate => Site::Worker,
            _ => Site::Client,
        }
    }
}

/// Which half of a span an event is (instants carry [`Phase::Instant`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    Begin,
    End,
    Instant,
}

/// One recorded event. `ts` is a logical counter in the simulator and
/// monotonic nanoseconds since the run's epoch on the thread backend;
/// `arg` is kind-specific (see [`EventKind`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    pub kind: EventKind,
    pub phase: Phase,
    pub proc: u8,
    pub ts: u64,
    pub arg: u64,
}

/// Default per-lane event capacity (~1.5 MiB of events). Past it, events
/// are counted but not stored — the same drop-the-tail discipline as the
/// machine crate's `FaultLog`, keeping the stored prefix well-formed and
/// the per-kind counts exact.
pub const LANE_CAP: usize = 1 << 16;

#[derive(Clone, Copy, Debug)]
enum ObsClock {
    /// The simulator's logical time: one tick per recorded event.
    Logical(u64),
    /// The thread backend's time: nanoseconds since the run's epoch.
    Monotonic(Instant),
}

/// A single-owner event collector. Cheap when events are few, bounded
/// when they are not; never shared between threads (the thread backend
/// drains one per client/worker at shutdown instead of locking on the
/// hot path).
#[derive(Clone, Debug)]
pub struct Recorder {
    clock: ObsClock,
    events: Vec<Event>,
    cap: usize,
    dropped: u64,
    counts: [u64; EventKind::ALL.len()],
}

impl Recorder {
    /// A recorder on the simulator's logical clock.
    pub fn sim() -> Recorder {
        Recorder::with_clock(ObsClock::Logical(0))
    }

    /// A recorder on monotonic nanoseconds since `epoch` (one shared
    /// epoch per run, so lanes from different threads align).
    pub fn exec(epoch: Instant) -> Recorder {
        Recorder::with_clock(ObsClock::Monotonic(epoch))
    }

    fn with_clock(clock: ObsClock) -> Recorder {
        Recorder {
            clock,
            events: Vec::new(),
            cap: LANE_CAP,
            dropped: 0,
            counts: [0; EventKind::ALL.len()],
        }
    }

    /// Same recorder with a different event capacity (tests).
    pub fn with_cap(mut self, cap: usize) -> Recorder {
        self.cap = cap;
        self
    }

    fn now(&mut self) -> u64 {
        match &mut self.clock {
            ObsClock::Logical(t) => {
                let ts = *t;
                *t += 1;
                ts
            }
            ObsClock::Monotonic(epoch) => epoch.elapsed().as_nanos() as u64,
        }
    }

    fn push(&mut self, kind: EventKind, phase: Phase, proc: u8, arg: u64) {
        // Count begins and instants (a span counts once); counts stay
        // exact past the cap.
        if !matches!(phase, Phase::End) {
            self.counts[kind.index()] += 1;
        }
        let ts = self.now();
        if self.events.len() < self.cap {
            self.events.push(Event {
                kind,
                phase,
                proc,
                ts,
                arg,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn instant(&mut self, kind: EventKind, proc: u8, arg: u64) {
        debug_assert!(!kind.is_span(), "spans use begin/end");
        self.push(kind, Phase::Instant, proc, arg);
    }

    pub fn begin(&mut self, kind: EventKind, proc: u8, arg: u64) {
        debug_assert!(kind.is_span(), "instants use instant()");
        self.push(kind, Phase::Begin, proc, arg);
    }

    pub fn end(&mut self, kind: EventKind, proc: u8) {
        debug_assert!(kind.is_span(), "instants use instant()");
        self.push(kind, Phase::End, proc, 0);
    }

    /// Exact number of events of `kind` recorded so far (spans count
    /// their begins), including any past the buffer cap.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Freeze this recorder into a named lane.
    pub fn into_lane(self, label: String) -> Lane {
        Lane {
            label,
            nanos: matches!(self.clock, ObsClock::Monotonic(_)),
            events: self.events,
            dropped: self.dropped,
            counts: self.counts,
        }
    }
}

/// One thread's worth of events in a finished [`Recording`].
#[derive(Clone, Debug, PartialEq)]
pub struct Lane {
    /// Stable display name; lanes sort by it, so `clientNNNN` /
    /// `workerNN` labels give a deterministic lane order.
    pub label: String,
    /// Whether `ts` is monotonic nanoseconds (thread backend) rather
    /// than logical ticks (simulator).
    pub nanos: bool,
    pub events: Vec<Event>,
    /// Events past [`LANE_CAP`] that were counted but not stored.
    pub dropped: u64,
    counts: [u64; EventKind::ALL.len()],
}

impl Lane {
    /// Exact per-kind count (spans count their begins), including
    /// events dropped past the cap.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Reassemble a lane from its serialized parts (the network backend
    /// ships worker lanes between processes); `counts` is the per-kind
    /// table in [`EventKind::ALL`] order, as produced by
    /// [`Lane::count`] over all kinds.
    pub fn from_parts(
        label: String,
        nanos: bool,
        events: Vec<Event>,
        dropped: u64,
        counts: [u64; EventKind::ALL.len()],
    ) -> Lane {
        Lane {
            label,
            nanos,
            events,
            dropped,
            counts,
        }
    }
}

/// Everything one run recorded: the lanes of every logical thread and
/// (on the thread backend) every worker, in label order.
#[derive(Clone, Debug)]
pub struct Recording {
    /// Processors in the run's configuration.
    pub procs: usize,
    pub lanes: Vec<Lane>,
}

impl Recording {
    /// Assemble a recording; lanes are sorted by label so the result is
    /// deterministic however the threads finished.
    pub fn new(procs: usize, mut lanes: Vec<Lane>) -> Recording {
        lanes.sort_by(|a, b| a.label.cmp(&b.label));
        Recording { procs, lanes }
    }

    /// Exact event count of `kind` across all lanes (spans count once).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.lanes.iter().map(|l| l.count(kind)).sum()
    }

    /// Events dropped past the per-lane cap, across all lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// Events actually stored, across all lanes.
    pub fn events_stored(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// The `(kind, phase, arg)` sequence of `site`-class events per
    /// processor, lanes visited in label order. Timestamps are omitted
    /// deliberately: this is the surface on which the simulator's
    /// logical-time events and the thread backend's wall-time events
    /// must agree exactly (the lockstep parity oracle).
    pub fn site_sequences(&self, site: Site) -> Vec<Vec<(EventKind, Phase, u64)>> {
        let mut out = vec![Vec::new(); self.procs];
        for lane in &self.lanes {
            for e in &lane.events {
                if e.kind.site() == site {
                    out[e.proc as usize].push((e.kind, e.phase, e.arg));
                }
            }
        }
        out
    }

    /// Check that every lane's span events nest: each end matches the
    /// kind on top of that lane's open-span stack. Spans left open are
    /// an error unless the lane dropped events past its cap (the end
    /// may have been among the dropped tail).
    pub fn span_nesting_ok(&self) -> Result<(), String> {
        for lane in &self.lanes {
            let mut stack: Vec<EventKind> = Vec::new();
            for e in &lane.events {
                match e.phase {
                    Phase::Begin => stack.push(e.kind),
                    Phase::End => match stack.pop() {
                        Some(open) if open == e.kind => {}
                        Some(open) => {
                            return Err(format!(
                                "lane {}: end of {} closes an open {}",
                                lane.label,
                                e.kind.name(),
                                open.name()
                            ));
                        }
                        None => {
                            return Err(format!(
                                "lane {}: end of {} with no open span",
                                lane.label,
                                e.kind.name()
                            ));
                        }
                    },
                    Phase::Instant => {}
                }
            }
            if !stack.is_empty() && lane.dropped == 0 {
                return Err(format!(
                    "lane {}: {} span(s) left open",
                    lane.label,
                    stack.len()
                ));
            }
        }
        Ok(())
    }

    /// The count identities a recording must satisfy against its run's
    /// counters, plus well-formed span nesting. Returns every broken
    /// identity (empty = trustworthy trace).
    pub fn reconcile(
        &self,
        migrations: u64,
        return_migrations: u64,
        futures: u64,
        steals: u64,
        misses: u64,
    ) -> Vec<String> {
        let mut bad = Vec::new();
        let mut check = |kind: EventKind, want: u64| {
            let got = self.count(kind);
            if got != want {
                bad.push(format!(
                    "{}: recording says {got}, counters say {want}",
                    kind.name()
                ));
            }
        };
        check(EventKind::MigrateSend, migrations);
        check(EventKind::MigrateRecv, migrations);
        check(EventKind::ReturnSend, return_migrations);
        check(EventKind::ReturnRecv, return_migrations);
        check(EventKind::FutureBody, futures);
        check(EventKind::Steal, steals);
        check(EventKind::LineFetch, misses);
        // Every invalidation acquire is a call arrival, a return-stub
        // arrival, or a touched value's receipt.
        check(
            EventKind::Invalidate,
            migrations + return_migrations + self.count(EventKind::TouchStall),
        );
        if let Err(e) = self.span_nesting_ok() {
            bad.push(format!("span nesting: {e}"));
        }
        bad
    }

    /// Earliest and latest timestamp stored, if any events were.
    pub fn ts_bounds(&self) -> Option<(u64, u64)> {
        let mut bounds: Option<(u64, u64)> = None;
        for lane in &self.lanes {
            for e in &lane.events {
                bounds = Some(match bounds {
                    None => (e.ts, e.ts),
                    Some((lo, hi)) => (lo.min(e.ts), hi.max(e.ts)),
                });
            }
        }
        bounds
    }

    /// Latencies between each `from` instant and the next `to` instant
    /// in the same lane (e.g. `MigrateSend` → `MigrateRecv` is the
    /// migration latency, retries included).
    pub fn latencies(&self, from: EventKind, to: EventKind) -> Histogram {
        let mut h = Histogram::new();
        for lane in &self.lanes {
            let mut pending: Option<u64> = None;
            for e in &lane.events {
                if e.kind == from {
                    pending = Some(e.ts);
                } else if e.kind == to {
                    if let Some(t0) = pending.take() {
                        h.observe(e.ts.saturating_sub(t0));
                    }
                }
            }
        }
        h
    }

    /// Durations of every completed span of `kind` (begins pair with
    /// ends through a per-lane stack, so nested future bodies pair
    /// correctly).
    pub fn span_durations(&self, kind: EventKind) -> Histogram {
        let mut h = Histogram::new();
        for lane in &self.lanes {
            let mut stack: Vec<u64> = Vec::new();
            for e in &lane.events {
                if e.kind != kind {
                    continue;
                }
                match e.phase {
                    Phase::Begin => stack.push(e.ts),
                    Phase::End => {
                        if let Some(t0) = stack.pop() {
                            h.observe(e.ts.saturating_sub(t0));
                        }
                    }
                    Phase::Instant => {}
                }
            }
        }
        h
    }

    /// The recording summarized as a metrics registry: one counter per
    /// event kind plus the latency/duration histograms the paper's
    /// evaluation cares about.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::default();
        for kind in EventKind::ALL {
            reg.set(&format!("events.{}", kind.name()), self.count(kind));
        }
        reg.set("events.dropped", self.dropped());
        for (name, h) in [
            (
                "migration_latency",
                self.latencies(EventKind::MigrateSend, EventKind::MigrateRecv),
            ),
            (
                "return_latency",
                self.latencies(EventKind::ReturnSend, EventKind::ReturnRecv),
            ),
            ("future_body", self.span_durations(EventKind::FutureBody)),
            ("touch_stall", self.span_durations(EventKind::TouchStall)),
        ] {
            if h.count > 0 {
                reg.observe_all(name, &h);
            }
        }
        reg
    }

    /// Chrome `trace_event` JSON of this recording alone (see
    /// [`chrome::trace_json`] to combine several runs in one trace).
    pub fn chrome_trace(&self) -> String {
        chrome::trace_json(&[("run", self)])
    }

    /// Plain-text per-processor event-density timeline.
    pub fn timeline(&self, width: usize) -> String {
        timeline::event_timeline(self, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(label: &str, rec: Recorder) -> Lane {
        rec.into_lane(label.to_string())
    }

    #[test]
    fn logical_clock_ticks_per_event() {
        let mut r = Recorder::sim();
        r.instant(EventKind::Steal, 0, 0);
        r.begin(EventKind::FutureBody, 1, 0);
        r.end(EventKind::FutureBody, 1);
        let l = lane("sim", r);
        assert_eq!(
            l.events.iter().map(|e| e.ts).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(!l.nanos);
    }

    #[test]
    fn counts_stay_exact_past_the_cap() {
        let mut r = Recorder::sim().with_cap(4);
        for _ in 0..10 {
            r.instant(EventKind::LineFetch, 0, 1);
        }
        assert_eq!(r.count(EventKind::LineFetch), 10);
        let l = lane("sim", r);
        assert_eq!(l.events.len(), 4);
        assert_eq!(l.dropped, 6);
        assert_eq!(l.count(EventKind::LineFetch), 10);
        let rec = Recording::new(1, vec![l]);
        assert_eq!(rec.count(EventKind::LineFetch), 10);
        assert_eq!(rec.dropped(), 6);
    }

    #[test]
    fn ends_do_not_double_count_spans() {
        let mut r = Recorder::sim();
        r.begin(EventKind::FutureBody, 0, 0);
        r.end(EventKind::FutureBody, 0);
        assert_eq!(r.count(EventKind::FutureBody), 1);
    }

    #[test]
    fn lanes_sort_by_label() {
        let rec = Recording::new(
            2,
            vec![
                lane("worker01", Recorder::sim()),
                lane("client0000", Recorder::sim()),
                lane("worker00", Recorder::sim()),
            ],
        );
        let labels: Vec<&str> = rec.lanes.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(labels, vec!["client0000", "worker00", "worker01"]);
    }

    #[test]
    fn site_sequences_split_by_processor_and_site() {
        let mut r = Recorder::sim();
        r.instant(EventKind::MigrateSend, 0, 2);
        r.instant(EventKind::Invalidate, 2, u64::MAX);
        r.instant(EventKind::MigrateRecv, 2, 0);
        let rec = Recording::new(4, vec![lane("sim", r)]);
        let client = rec.site_sequences(Site::Client);
        assert_eq!(client[0], vec![(EventKind::MigrateSend, Phase::Instant, 2)]);
        assert_eq!(client[2], vec![(EventKind::MigrateRecv, Phase::Instant, 0)]);
        let worker = rec.site_sequences(Site::Worker);
        assert_eq!(
            worker[2],
            vec![(EventKind::Invalidate, Phase::Instant, u64::MAX)]
        );
        assert!(worker[0].is_empty());
    }

    #[test]
    fn nesting_checker_accepts_nested_and_rejects_mismatched() {
        let mut r = Recorder::sim();
        r.begin(EventKind::FutureBody, 0, 0);
        r.begin(EventKind::FutureBody, 0, 0);
        r.end(EventKind::FutureBody, 0);
        r.end(EventKind::FutureBody, 0);
        r.begin(EventKind::TouchStall, 0, 0);
        r.end(EventKind::TouchStall, 0);
        let ok = Recording::new(1, vec![lane("a", r)]);
        assert!(ok.span_nesting_ok().is_ok());

        let mut r = Recorder::sim();
        r.begin(EventKind::FutureBody, 0, 0);
        r.end(EventKind::TouchStall, 0);
        let bad = Recording::new(1, vec![lane("a", r)]);
        assert!(bad.span_nesting_ok().is_err());

        let mut r = Recorder::sim();
        r.begin(EventKind::FutureBody, 0, 0);
        let open = Recording::new(1, vec![lane("a", r)]);
        assert!(open.span_nesting_ok().is_err(), "unclosed span, no drops");
    }

    #[test]
    fn latency_pairs_and_span_durations() {
        let mut r = Recorder::sim();
        r.instant(EventKind::MigrateSend, 0, 1); // ts 0
        r.instant(EventKind::MigrateRecv, 1, 0); // ts 1
        r.begin(EventKind::FutureBody, 1, 0); // ts 2
        r.end(EventKind::FutureBody, 1); // ts 3
        let rec = Recording::new(2, vec![lane("sim", r)]);
        let mig = rec.latencies(EventKind::MigrateSend, EventKind::MigrateRecv);
        assert_eq!((mig.count, mig.min, mig.max), (1, 1, 1));
        let body = rec.span_durations(EventKind::FutureBody);
        assert_eq!((body.count, body.sum), (1, 1));
        assert_eq!(rec.ts_bounds(), Some((0, 3)));
        let m = rec.metrics();
        assert_eq!(m.counter("events.migrate-send"), 1);
        assert_eq!(m.counter("events.dropped"), 0);
        assert!(m.histogram("migration_latency").is_some());
    }

    #[test]
    fn exec_clock_is_monotonic_nanos() {
        let mut r = Recorder::exec(Instant::now());
        r.instant(EventKind::Steal, 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        r.instant(EventKind::Steal, 0, 0);
        let l = lane("w", r);
        assert!(l.nanos);
        assert!(l.events[1].ts > l.events[0].ts);
    }
}
