//! Randomized tests for the list-scheduler replay: random forests of
//! segments with random forward edges must always schedule, respect the
//! classic lower bounds, never beat the critical path, and be
//! deterministic.

use olden_machine::sched::{critical_path, makespan_lower_bound, schedule};
use olden_machine::trace::{EdgeKind, Trace};
use olden_machine::SegId;
use olden_rng::SplitMix64;

/// Build a random trace: `n` segments over `procs` processors, with
/// forward-only edges (indices guarantee acyclicity).
fn random_trace(r: &mut SplitMix64) -> (Trace, usize) {
    let n = r.range(2, 40);
    let procs = r.range(1, 9);
    let mut t = Trace::new();
    for _ in 0..n {
        let s = t.new_segment(r.below(procs as u64) as u8);
        t.charge(s, r.below(1000));
    }
    for _ in 0..r.below(2 * n as u64) {
        let a = r.below(n as u64) as usize;
        let b = r.below(n as u64) as usize;
        let lat = r.below(600);
        let (a, b) = (a.min(b), a.max(b));
        if a != b {
            t.add_edge(SegId(a as u32), SegId(b as u32), lat, EdgeKind::Seq);
        }
    }
    (t, procs)
}

#[test]
fn random_dags_schedule_within_bounds() {
    let mut r = SplitMix64::new(0x5C4ED);
    for _ in 0..256 {
        let (t, procs) = random_trace(&mut r);
        let s = schedule(&t, procs).expect("forward edges cannot cycle");
        assert!(s.makespan >= makespan_lower_bound(&t, procs));
        assert!(s.makespan >= critical_path(&t));
        assert_eq!(s.critical_path, critical_path(&t));
        // Never worse than fully serializing everything plus all edge
        // latencies.
        let serial: u64 = t.total_cost() + t.edges().iter().map(|e| e.latency).sum::<u64>();
        assert!(s.makespan <= serial);
        // Work conservation.
        assert_eq!(s.busy.iter().sum::<u64>(), t.total_cost());
        // Start/finish consistency and per-edge precedence.
        for (i, seg) in t.segments().iter().enumerate() {
            assert_eq!(s.finish[i], s.start[i] + seg.cost);
        }
        for e in t.edges() {
            assert!(
                s.start[e.to.index()] >= s.finish[e.from.index()] + e.latency,
                "edge precedence violated"
            );
        }
        // Utilization is busy/makespan, clamped to [0, 1] per processor.
        for (p, u) in s.utilization().into_iter().enumerate() {
            assert!((0.0..=1.0).contains(&u), "utilization[{p}] = {u}");
        }
    }
}

#[test]
fn scheduling_is_deterministic() {
    let mut r = SplitMix64::new(0x5C4EE);
    for _ in 0..128 {
        let (t, procs) = random_trace(&mut r);
        let a = schedule(&t, procs).unwrap();
        let b = schedule(&t, procs).unwrap();
        assert_eq!(a.start, b.start);
        assert_eq!(a.makespan, b.makespan);
    }
}

#[test]
fn more_processors_never_hurt() {
    let mut r = SplitMix64::new(0x5C4EF);
    for _ in 0..128 {
        // Graham anomalies can occur for list scheduling in general, but
        // our segments are *bound* to processors: adding processors the
        // trace never uses cannot change the schedule at all.
        let (t, procs) = random_trace(&mut r);
        let a = schedule(&t, procs).unwrap();
        let b = schedule(&t, procs + 3).unwrap();
        assert_eq!(a.makespan, b.makespan);
    }
}
