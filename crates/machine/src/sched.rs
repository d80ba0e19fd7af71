//! Deterministic list-scheduling replay of a recorded trace.
//!
//! Each segment is bound to one processor; a processor executes one segment
//! at a time. The scheduler is a discrete-event Graham list scheduler:
//! whenever a processor is free and has ready segments, it starts the one
//! with the smallest `(ready_time, segment id)` — segment ids increase in
//! recording order, so ties resolve to program order and the whole replay
//! is deterministic. Completion events release successor segments.
//!
//! The resulting makespan respects both classic lower bounds (asserted by
//! property tests): the critical path of the DAG and `total_work / P`
//! per-processor capacity (per processor, since segments are bound).

use crate::trace::{SegId, Trace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of replaying a trace on a machine.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Start time of each segment (indexed by `SegId`).
    pub start: Vec<u64>,
    /// Finish time of each segment.
    pub finish: Vec<u64>,
    /// Total busy cycles per processor.
    pub busy: Vec<u64>,
    /// Completion time of the whole computation.
    pub makespan: u64,
    /// The DAG's [`critical_path`], from the same successor lists.
    pub critical_path: u64,
}

impl Schedule {
    /// Per-processor utilization: `busy[p] / makespan`, in `[0, 1]`.
    /// All-zero when the makespan is zero (an empty trace).
    pub fn utilization(&self) -> Vec<f64> {
        // A zero makespan means zero busy cycles everywhere.
        let makespan = self.makespan.max(1) as f64;
        self.busy.iter().map(|&b| b as f64 / makespan).collect()
    }
}

/// Replay failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// A segment names a processor outside the machine configuration.
    ProcOutOfRange { seg: SegId, proc: u8, procs: usize },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ScheduleError::ProcOutOfRange { seg, proc, procs } = self;
        write!(
            f,
            "segment {seg:?} bound to processor {proc} but machine has {procs}"
        )
    }
}

impl std::error::Error for ScheduleError {}

/// Every segment's outgoing edges as one flat list, grouped by source in
/// recording order: segment `i`'s `(target, latency)` pairs are
/// `edges[first[i]..first[i + 1]]`.
struct Succs {
    first: Vec<usize>,
    edges: Vec<(usize, u64)>,
}

impl Succs {
    fn new(trace: &Trace) -> Succs {
        let mut first = vec![0; trace.len() + 1];
        for e in trace.edges() {
            first[e.from.index() + 1] += 1;
        }
        for i in 0..trace.len() {
            first[i + 1] += first[i];
        }
        let (mut next, mut edges) = (first.clone(), vec![(0, 0); trace.edges().len()]);
        for e in trace.edges() {
            edges[next[e.from.index()]] = (e.to.index(), e.latency);
            next[e.from.index()] += 1;
        }
        Succs { first, edges }
    }

    fn of(&self, i: usize) -> &[(usize, u64)] {
        &self.edges[self.first[i]..self.first[i + 1]]
    }

    /// Longest path through the DAG: one pass in segment order, which is
    /// topological because every edge points forward.
    fn critical_path(&self, trace: &Trace) -> u64 {
        let mut start = vec![0u64; trace.len()];
        let mut best = 0;
        for (i, s) in trace.segments().iter().enumerate() {
            let f = start[i] + s.cost;
            best = best.max(f);
            for &(j, lat) in self.of(i) {
                start[j] = start[j].max(f + lat);
            }
        }
        best
    }
}

/// Replay `trace` on `procs` processors.
pub fn schedule(trace: &Trace, procs: usize) -> Result<Schedule, ScheduleError> {
    let n = trace.len();
    for (i, s) in trace.segments().iter().enumerate() {
        if (s.proc as usize) >= procs {
            return Err(ScheduleError::ProcOutOfRange {
                seg: SegId(i as u32),
                proc: s.proc,
                procs,
            });
        }
    }

    let succs = Succs::new(trace);
    let mut indeg = vec![0u32; n];
    for &(to, _) in &succs.edges {
        indeg[to] += 1;
    }

    // ready_at[i]: earliest start permitted by already-finished predecessors.
    let mut ready_at = vec![0u64; n];
    let mut start = vec![0u64; n];
    let mut finish = vec![0u64; n];
    let mut busy = vec![0u64; procs];
    let mut avail = vec![0u64; procs];

    // Per-processor ready queues ordered by (ready_time, seg id).
    let mut ready: Vec<BinaryHeap<Reverse<(u64, u32)>>> =
        (0..procs).map(|_| BinaryHeap::new()).collect();
    // Global completion-event queue: (finish_time, seg id).
    let mut events: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();

    for (i, &deg) in indeg.iter().enumerate() {
        if deg == 0 {
            let p = trace.segments()[i].proc as usize;
            ready[p].push(Reverse((0, i as u32)));
        }
    }

    let mut makespan = 0u64;

    loop {
        // Best start candidate across processors.
        let mut best: Option<(u64, u64, u32, usize)> = None; // (start, ready, seg, proc)
        for (p, q) in ready.iter().enumerate() {
            if let Some(&Reverse((r, seg))) = q.peek() {
                let st = r.max(avail[p]);
                let cand = (st, r, seg, p);
                if best.is_none_or(|b| (cand.0, cand.2) < (b.0, b.2)) {
                    best = Some(cand);
                }
            }
        }

        // Process completion events that occur strictly before the best
        // candidate start — they may release earlier-ready work.
        if let Some(&Reverse((t, seg))) = events.peek() {
            let flush = match best {
                Some((st, _, _, _)) => t <= st,
                None => true,
            };
            if flush {
                events.pop();
                let f = finish[seg as usize];
                debug_assert_eq!(f, t);
                for &(i, lat) in succs.of(seg as usize) {
                    indeg[i] -= 1;
                    ready_at[i] = ready_at[i].max(f + lat);
                    if indeg[i] == 0 {
                        let p = trace.segments()[i].proc as usize;
                        ready[p].push(Reverse((ready_at[i], i as u32)));
                    }
                }
                continue;
            }
        }

        match best {
            Some((st, _r, seg, p)) => {
                ready[p].pop();
                let i = seg as usize;
                let cost = trace.segments()[i].cost;
                start[i] = st;
                finish[i] = st + cost;
                avail[p] = finish[i];
                busy[p] += cost;
                makespan = makespan.max(finish[i]);
                events.push(Reverse((finish[i], seg)));
            }
            None => {
                if events.is_empty() {
                    break;
                }
            }
        }
    }

    Ok(Schedule {
        start,
        finish,
        busy,
        makespan,
        critical_path: succs.critical_path(trace),
    })
}

/// Length of the critical path of the DAG (infinite processors): a lower
/// bound on any makespan.
pub fn critical_path(trace: &Trace) -> u64 {
    Succs::new(trace).critical_path(trace)
}

/// Per-processor total work: `makespan >= max_p busy[p]`.
pub fn per_proc_work(trace: &Trace, procs: usize) -> Vec<u64> {
    let mut w = vec![0u64; procs];
    for s in trace.segments() {
        w[s.proc as usize] += s.cost;
    }
    w
}

/// Convenience: makespan lower bound from work and critical path.
pub fn makespan_lower_bound(trace: &Trace, procs: usize) -> u64 {
    let cp = critical_path(trace);
    let per = per_proc_work(trace, procs).into_iter().max().unwrap_or(0);
    cp.max(per)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EdgeKind;

    fn seg(t: &mut Trace, proc: u8, cost: u64) -> SegId {
        let s = t.new_segment(proc);
        t.charge(s, cost);
        s
    }

    #[test]
    fn single_segment() {
        let mut t = Trace::new();
        seg(&mut t, 0, 100);
        let s = schedule(&t, 1).unwrap();
        assert_eq!(s.makespan, 100);
        assert_eq!(s.busy, vec![100]);
        assert_eq!(s.utilization(), vec![1.0]);
    }

    #[test]
    fn utilization_reflects_idle_processors() {
        let mut t = Trace::new();
        seg(&mut t, 0, 100);
        seg(&mut t, 1, 50);
        let s = schedule(&t, 3).unwrap();
        let u = s.utilization();
        assert_eq!(u, vec![1.0, 0.5, 0.0]);
        // Empty trace: no division by zero.
        let e = schedule(&Trace::new(), 2).unwrap();
        assert_eq!(e.utilization(), vec![0.0, 0.0]);
    }

    #[test]
    fn chain_with_latency() {
        let mut t = Trace::new();
        let a = seg(&mut t, 0, 100);
        let b = seg(&mut t, 1, 50);
        t.add_edge(a, b, 540, EdgeKind::Migrate);
        let s = schedule(&t, 2).unwrap();
        assert_eq!(s.start[b.index()], 640);
        assert_eq!(s.makespan, 690);
    }

    #[test]
    fn independent_segments_run_in_parallel() {
        let mut t = Trace::new();
        seg(&mut t, 0, 100);
        seg(&mut t, 1, 100);
        let s = schedule(&t, 2).unwrap();
        assert_eq!(s.makespan, 100);
    }

    #[test]
    fn same_processor_serializes() {
        let mut t = Trace::new();
        seg(&mut t, 0, 100);
        seg(&mut t, 0, 100);
        let s = schedule(&t, 2).unwrap();
        assert_eq!(s.makespan, 200);
        assert_eq!(s.busy[0], 200);
        assert_eq!(s.busy[1], 0);
    }

    #[test]
    fn diamond_join_waits_for_both() {
        let mut t = Trace::new();
        let a = seg(&mut t, 0, 10);
        let b = seg(&mut t, 1, 100);
        let c = seg(&mut t, 2, 30);
        let d = seg(&mut t, 0, 5);
        t.add_edge(a, b, 0, EdgeKind::Seq);
        t.add_edge(a, c, 0, EdgeKind::Steal);
        t.add_edge(b, d, 0, EdgeKind::Join);
        t.add_edge(c, d, 0, EdgeKind::Join);
        let s = schedule(&t, 3).unwrap();
        assert_eq!(s.start[d.index()], 110);
        assert_eq!(s.makespan, 115);
    }

    #[test]
    fn deterministic_tiebreak_by_segment_id() {
        // Two segments ready at the same instant on one processor run in
        // id (program) order.
        let mut t = Trace::new();
        let a = seg(&mut t, 0, 10);
        let b = seg(&mut t, 0, 10);
        let s1 = schedule(&t, 1).unwrap();
        assert!(s1.start[a.index()] < s1.start[b.index()]);
    }

    #[test]
    fn proc_out_of_range_rejected() {
        let mut t = Trace::new();
        seg(&mut t, 3, 10);
        assert!(matches!(
            schedule(&t, 2),
            Err(ScheduleError::ProcOutOfRange { .. })
        ));
    }

    #[test]
    fn cycle_detected() {
        // A cycle needs a backward edge, and recording one panics before
        // the edge is stored, so the trace stays a schedulable DAG.
        let mut t = Trace::new();
        let a = seg(&mut t, 0, 10);
        let b = seg(&mut t, 0, 10);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.add_edge(b, a, 0, EdgeKind::Seq)
        }))
        .expect_err("a backward edge must be rejected");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("forward"), "unexpected panic: {msg}");
        assert!(t.edges().is_empty());
        assert_eq!(schedule(&t, 1).unwrap().makespan, 20);
    }

    #[test]
    fn critical_path_of_chain_and_fork() {
        let mut t = Trace::new();
        let a = seg(&mut t, 0, 10);
        let b = seg(&mut t, 1, 20);
        let c = seg(&mut t, 2, 5);
        t.add_edge(a, b, 100, EdgeKind::Migrate);
        t.add_edge(a, c, 0, EdgeKind::Steal);
        assert_eq!(critical_path(&t), 130);
    }

    #[test]
    fn makespan_respects_lower_bounds() {
        let mut t = Trace::new();
        let a = seg(&mut t, 0, 17);
        let b = seg(&mut t, 1, 23);
        let c = seg(&mut t, 0, 11);
        let d = seg(&mut t, 1, 40);
        t.add_edge(a, b, 7, EdgeKind::Migrate);
        t.add_edge(a, c, 0, EdgeKind::Steal);
        t.add_edge(b, d, 0, EdgeKind::Seq);
        t.add_edge(c, d, 3, EdgeKind::Join);
        let s = schedule(&t, 2).unwrap();
        assert!(s.makespan >= makespan_lower_bound(&t, 2));
        assert_eq!(s.busy.iter().sum::<u64>(), t.total_cost());
    }

    #[test]
    fn busy_gap_ready_later_event_first() {
        // Processor 0 idles; an event at t=10 releases a segment ready
        // earlier than a queued one; event processing must come first.
        let mut t = Trace::new();
        let a = seg(&mut t, 1, 10);
        let b = seg(&mut t, 0, 5); // ready at 0 but starts after... no dep
        let c = seg(&mut t, 0, 5);
        t.add_edge(a, c, 0, EdgeKind::Migrate);
        // b ready at 0, c ready at 10: b should run first on proc 0.
        let s = schedule(&t, 2).unwrap();
        assert_eq!(s.start[b.index()], 0);
        assert_eq!(s.start[c.index()], 10);
        assert_eq!(s.makespan, 15);
    }
}
