//! Execution traces: the task DAG recorded during instrumented execution.
//!
//! A **segment** is a maximal stretch of one thread's execution on one
//! processor; its cost is the sum of all cycles charged while it was
//! current. Segments are split by events that change where or when work can
//! run: a migration (the thread moves), a future spawn (the continuation
//! may later be stolen), a touch (a join), a steal (the continuation
//! restarts on the vacated processor).
//!
//! **Edges** order segments. Each carries a latency (e.g. the wire time of
//! a migration message) and a kind used for reporting and for tests.

use olden_gptr::ProcId;

/// Index of a segment within its [`Trace`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SegId(pub u32);

impl SegId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One contiguous stretch of computation bound to a processor.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    /// Processor this segment must execute on (data placement binds it).
    pub proc: ProcId,
    /// Accumulated cycle cost.
    pub cost: u64,
}

/// Why two segments are ordered.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Program order within one thread on one processor.
    Seq,
    /// Thread migration to the data's owner (§3.1).
    Migrate,
    /// Return-stub migration back to the caller's processor (§3.1).
    Return,
    /// A stolen continuation restarting on the processor a migration
    /// vacated (§2, future stealing).
    Steal,
    /// A touch joining a future's value into the continuation.
    Join,
}

/// A dependency: `to` may not start before `finish(from) + latency`.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    pub from: SegId,
    pub to: SegId,
    pub latency: u64,
    pub kind: EdgeKind,
}

impl EdgeKind {
    /// All kinds, indexed consistently with [`Trace::count_edges`]'s
    /// internal counters.
    pub const ALL: [EdgeKind; 5] = [
        EdgeKind::Seq,
        EdgeKind::Migrate,
        EdgeKind::Return,
        EdgeKind::Steal,
        EdgeKind::Join,
    ];

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// The recorded task DAG plus summary counters.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    segments: Vec<Segment>,
    edges: Vec<Edge>,
    /// Edge counts by [`EdgeKind::index`], maintained by [`Trace::add_edge`]
    /// so [`Trace::count_edges`] is O(1) instead of a full edge scan.
    kind_counts: [usize; 5],
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Open a new segment bound to `proc` with zero accumulated cost.
    pub fn new_segment(&mut self, proc: ProcId) -> SegId {
        let id =
            SegId(u32::try_from(self.segments.len()).expect("trace exceeds u32 segment capacity"));
        self.segments.push(Segment { proc, cost: 0 });
        id
    }

    /// Charge `cycles` to an existing segment.
    #[inline]
    pub fn charge(&mut self, seg: SegId, cycles: u64) {
        self.segments[seg.index()].cost += cycles;
    }

    /// Record a dependency edge. Edges point forward in recording order
    /// (the runtime's always end at the segment it has just opened), so
    /// the trace is a DAG whose segment order is topological.
    pub fn add_edge(&mut self, from: SegId, to: SegId, latency: u64, kind: EdgeKind) {
        assert!(from < to, "edge {from:?} -> {to:?} must point forward");
        debug_assert!(to.index() < self.segments.len());
        self.kind_counts[kind.index()] += 1;
        self.edges.push(Edge {
            from,
            to,
            latency,
            kind,
        });
    }

    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    pub fn segment(&self, id: SegId) -> &Segment {
        &self.segments[id.index()]
    }

    pub fn len(&self) -> usize {
        self.segments.len()
    }

    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Sum of all segment costs: the total work the machine must execute.
    pub fn total_cost(&self) -> u64 {
        self.segments.iter().map(|s| s.cost).sum()
    }

    /// Count of edges of a given kind (e.g. migrations for Table 2's
    /// discussion of MST's `O(N·P)` migrations). O(1): counters are
    /// maintained incrementally by [`Trace::add_edge`].
    pub fn count_edges(&self, kind: EdgeKind) -> usize {
        self.kind_counts[kind.index()]
    }
}

/// What a chaos transport did to one message attempt.
///
/// The execution backends tag injected transport faults with these the
/// same way trace edges are tagged with [`EdgeKind`]s: a stable, closed
/// vocabulary that reports and golden files can pin. The machine crate
/// owns the vocabulary; it knows nothing about any particular message
/// protocol (the payload is described by a plain kind name).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultTag {
    /// The attempt was lost in transit; the sender must retry.
    Dropped,
    /// The message was delivered twice back to back.
    Duplicated,
    /// The message was delivered, and a copy was held back to be
    /// re-delivered later — out of order with intervening traffic.
    DelayedDuplicate,
}

impl FaultTag {
    /// All tags, indexed consistently with [`FaultLog::count`].
    pub const ALL: [FaultTag; 3] = [
        FaultTag::Dropped,
        FaultTag::Duplicated,
        FaultTag::DelayedDuplicate,
    ];

    #[inline]
    fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            FaultTag::Dropped => "drop",
            FaultTag::Duplicated => "duplicate",
            FaultTag::DelayedDuplicate => "delayed-duplicate",
        }
    }
}

/// One injected transport fault, as recorded by a chaos layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    pub tag: FaultTag,
    /// Message-kind name of the affected payload (e.g. `"CacheLookup"`).
    pub msg: &'static str,
    /// Logical sender id.
    pub src: u64,
    /// Destination processor.
    pub dst: ProcId,
    /// The affected message's sequence number on its sender's channel.
    pub seq: u64,
    /// Which transmission attempt was hit (0 = first send).
    pub attempt: u32,
}

/// A bounded record of injected faults: exact per-tag counts always, plus
/// the first [`FaultLog::CAP`] events verbatim for diagnostics. Counts
/// stay exact past the cap so conservation laws remain checkable on runs
/// of any length.
#[derive(Clone, Debug, Default)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
    counts: [u64; 3],
}

impl FaultLog {
    /// Events kept verbatim; recording beyond this only bumps counts.
    pub const CAP: usize = 4096;

    pub fn new() -> FaultLog {
        FaultLog::default()
    }

    pub fn record(&mut self, ev: FaultEvent) {
        self.counts[ev.tag.index()] += 1;
        if self.events.len() < FaultLog::CAP {
            self.events.push(ev);
        }
    }

    /// Exact number of faults recorded with `tag` (not capped).
    pub fn count(&self, tag: FaultTag) -> u64 {
        self.counts[tag.index()]
    }

    /// Total faults injected, over all tags.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The retained event prefix (at most [`FaultLog::CAP`] entries).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_trace() {
        let mut t = Trace::new();
        let a = t.new_segment(0);
        let b = t.new_segment(1);
        t.charge(a, 100);
        t.charge(a, 50);
        t.charge(b, 25);
        t.add_edge(a, b, 540, EdgeKind::Migrate);
        assert_eq!(t.len(), 2);
        assert_eq!(t.segment(a).cost, 150);
        assert_eq!(t.segment(b).proc, 1);
        assert_eq!(t.total_cost(), 175);
        assert_eq!(t.count_edges(EdgeKind::Migrate), 1);
        assert_eq!(t.count_edges(EdgeKind::Seq), 0);
    }

    #[test]
    fn kind_counters_track_every_kind() {
        let mut t = Trace::new();
        let a = t.new_segment(0);
        let b = t.new_segment(1);
        let c = t.new_segment(2);
        t.add_edge(a, b, 0, EdgeKind::Migrate);
        t.add_edge(a, c, 0, EdgeKind::Steal);
        t.add_edge(b, c, 0, EdgeKind::Join);
        t.add_edge(a, c, 0, EdgeKind::Migrate);
        for kind in EdgeKind::ALL {
            let scanned = t.edges().iter().filter(|e| e.kind == kind).count();
            assert_eq!(t.count_edges(kind), scanned, "{kind:?}");
        }
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.total_cost(), 0);
    }

    #[test]
    fn fault_log_counts_every_tag() {
        let mut log = FaultLog::new();
        let ev = |tag, seq| FaultEvent {
            tag,
            msg: "CacheLookup",
            src: 0,
            dst: 1,
            seq,
            attempt: 0,
        };
        log.record(ev(FaultTag::Dropped, 1));
        log.record(ev(FaultTag::Dropped, 1));
        log.record(ev(FaultTag::Duplicated, 2));
        log.record(ev(FaultTag::DelayedDuplicate, 3));
        assert_eq!(log.count(FaultTag::Dropped), 2);
        assert_eq!(log.count(FaultTag::Duplicated), 1);
        assert_eq!(log.count(FaultTag::DelayedDuplicate), 1);
        assert_eq!(log.total(), 4);
        assert_eq!(log.events().len(), 4);
        for tag in FaultTag::ALL {
            let scanned = log.events().iter().filter(|e| e.tag == tag).count() as u64;
            assert_eq!(log.count(tag), scanned, "{tag:?}");
        }
    }

    #[test]
    fn fault_log_caps_events_but_not_counts() {
        let mut log = FaultLog::new();
        for seq in 0..(FaultLog::CAP as u64 + 100) {
            log.record(FaultEvent {
                tag: FaultTag::Dropped,
                msg: "ReadHome",
                src: 7,
                dst: 0,
                seq,
                attempt: 1,
            });
        }
        assert_eq!(log.events().len(), FaultLog::CAP, "events bounded");
        assert_eq!(log.count(FaultTag::Dropped), FaultLog::CAP as u64 + 100);
    }
}
