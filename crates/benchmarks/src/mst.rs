//! **MST** — minimum spanning tree of a graph (Table 1: 1 K nodes), after
//! Bentley's parallel algorithm.
//!
//! Vertices are distributed blocked across the processors, each holding a
//! `mindist` to the growing tree. Every iteration sweeps all blocks —
//! updating each vertex's `mindist` against the vertex added last and
//! finding the block-local minimum — then adds the global minimum to the
//! tree. The sweep visits every processor, so the number of migrations is
//! **O(N·P)**; the paper's Table 2 shows exactly the resulting poor,
//! sharply degrading speed-up (4.56 at 32 processors), and notes that
//! caching would not help because "these migrations serve mostly as a
//! mechanism for synchronization". The heuristic accordingly selects
//! migration only.
//!
//! Edge weights are an implicit symmetric function of the endpoint ids
//! (a complete graph), as in the Olden benchmark's hash-table weights.

use crate::rng::mix2;
use crate::{Descriptor, SizeClass};
use olden_gptr::{GPtr, ProcId};
use olden_runtime::{Backend, Check, Mechanism};

const M: Mechanism = Mechanism::Migrate;

/// Vertex layout: block-list link, vertex id, current mindist.
const F_NEXT: usize = 0;
const F_ID: usize = 1;
const F_MINDIST: usize = 2;
const VERTEX_WORDS: usize = 3;

/// Cycles per vertex visited in a sweep. Calibrated from Table 2's
/// sequential time (9.81 s at 33 MHz for 1 K vertices ≈ 320 k cycles per
/// round — the Olden benchmark does a hash-table lookup per vertex).
const W_VERTEX: u64 = 500;

/// Kernel DSL: the per-block vertex-list walk. Blocked layout gives the
/// list a high affinity; the enclosing sweep is parallelizable, so the
/// walk migrates — and the bottleneck pass leaves it alone because each
/// future receives a different block head.
pub const DSL: &str = r#"
    struct vertex { vertex *next @ 96; int mindist; };
    struct block { block *next; vertex *head; };
    int SweepBlocks(block *b) {
        int best = 9999999;
        while (b != null) {
            int m = futurecall ScanBlock(b->head);
            touch m;
            if (m < best) { best = m; }
            b = b->next;
        }
        return best;
    }
    int ScanBlock(vertex *v) {
        int best = 9999999;
        while (v != null) {
            if (v->mindist < best) { best = v->mindist; }
            v = v->next;
        }
        return best;
    }
"#;

/// Vertex count per size class.
pub fn vertices(size: SizeClass) -> usize {
    match size {
        SizeClass::Tiny => 32,
        SizeClass::Default => 512,
        SizeClass::Paper => 1024, // Table 1: 1K nodes
    }
}

/// Symmetric implicit edge weight between vertices `i` and `j`.
pub fn weight(i: u64, j: u64) -> u64 {
    let (a, b) = if i < j { (i, j) } else { (j, i) };
    1 + mix2(a, b) % 100_000
}

const INF: i64 = i64::MAX / 2;

/// Per-processor block anchors: anchor word 0 holds the block's list head.
fn build<B: Backend>(ctx: &mut B, n: usize) -> Vec<GPtr> {
    let procs = ctx.nprocs();
    ctx.uncharged(|ctx| {
        let mut anchors = Vec::with_capacity(procs);
        for p in 0..procs {
            let anchor = ctx.alloc(p as ProcId, 1);
            ctx.write(anchor, 0, GPtr::NULL, M);
            anchors.push(anchor);
        }
        // Vertex 0 starts in the tree; vertices 1.. go on their block's
        // list with mindist = weight(0, id).
        for id in (1..n).rev() {
            let p = (id * procs / n) as ProcId;
            let v = ctx.alloc(p, VERTEX_WORDS);
            let head = ctx.read_ptr(anchors[p as usize], 0, M);
            ctx.write(v, F_NEXT, head, M);
            ctx.write(v, F_ID, id as i64, M);
            ctx.write(v, F_MINDIST, weight(0, id as u64) as i64, M);
            ctx.write(anchors[p as usize], 0, v, M);
        }
        anchors
    })
}

/// One block sweep: unlink `remove_id` if present, fold the new tree
/// vertex `last_id` into every remaining `mindist`, and report the block
/// minimum.
fn scan_block<B: Backend>(ctx: &mut B, anchor: GPtr, last_id: i64, remove_id: i64) -> (i64, i64) {
    let mut best = INF;
    let mut best_id = -1i64;
    let mut prev = anchor; // anchor's slot 0 is the head pointer
    let mut prev_field = 0usize;
    let mut v = ctx.read_ptr(anchor, 0, M);
    while !v.is_null() {
        ctx.work(W_VERTEX);
        // The id read is the iteration's first check of `v`; the optimizer
        // elides the next/mindist checks that follow (`ELIDED_SITES`).
        let id = ctx.read_i64(v, F_ID, M);
        let next = ctx.read_ptr_checked(v, F_NEXT, M, Check::Elide);
        if id == remove_id {
            // Unlink the vertex added to the tree last round.
            ctx.write(prev, prev_field, next, M);
            v = next;
            continue;
        }
        let mut md = ctx.read_i64_checked(v, F_MINDIST, M, Check::Elide);
        let w = weight(last_id as u64, id as u64) as i64;
        if w < md {
            md = w;
            ctx.write(v, F_MINDIST, md, M);
        }
        if md < best {
            best = md;
            best_id = id;
        }
        prev = v;
        prev_field = F_NEXT;
        v = next;
    }
    (best, best_id)
}

/// Compute the MST weight: N−1 rounds, each a parallel sweep over the
/// blocks followed by a serial reduction at the root.
pub fn run<B: Backend>(ctx: &mut B, size: SizeClass) -> u64 {
    let n = vertices(size);
    let anchors = build(ctx, n);
    let mut total = 0u64;
    let mut last_id = 0i64; // vertex 0 seeds the tree
    let mut remove_id = -1i64;
    for _round in 1..n {
        let handles: Vec<_> = anchors
            .iter()
            .map(|&a| {
                ctx.future_call(move |ctx| {
                    ctx.call(move |ctx| scan_block(ctx, a, last_id, remove_id))
                })
            })
            .collect();
        let mut best = INF;
        let mut best_id = -1;
        for h in handles {
            let (d, id) = ctx.touch(h);
            if d < best || (d == best && id < best_id) {
                best = d;
                best_id = id;
            }
        }
        total += best as u64;
        last_id = best_id;
        remove_id = best_id;
    }
    total
}

/// Serial Prim's algorithm over the same implicit complete graph.
pub fn reference(size: SizeClass) -> u64 {
    let n = vertices(size);
    let mut mindist = vec![INF; n];
    let mut intree = vec![false; n];
    intree[0] = true;
    for (id, slot) in mindist.iter_mut().enumerate().skip(1) {
        *slot = weight(0, id as u64) as i64;
    }
    let mut total = 0u64;
    for _ in 1..n {
        let mut best = INF;
        let mut best_id = usize::MAX;
        for id in 1..n {
            if !intree[id] && (mindist[id] < best || (mindist[id] == best && id < best_id)) {
                best = mindist[id];
                best_id = id;
            }
        }
        intree[best_id] = true;
        total += best as u64;
        for id in 1..n {
            if !intree[id] {
                let w = weight(best_id as u64, id as u64) as i64;
                if w < mindist[id] {
                    mindist[id] = w;
                }
            }
        }
    }
    total
}

/// Optimizer-proven redundant check sites of `DSL` (see `Descriptor::elided_sites`).
pub const ELIDED_SITES: &[&str] = &[
    "SweepBlocks 10:17 b->next",
    "ScanBlock 17:45 v->mindist",
    "ScanBlock 18:17 v->next",
];

/// Heuristic verdicts for every dereference site of `DSL` (see
/// `Descriptor::selected_mechanisms`).
pub const SELECTED_MECHANISMS: &[&str] = &[
    "SweepBlocks 7:42 b->head -> migrate",
    "SweepBlocks 10:17 b->next -> migrate",
    "ScanBlock 17:17 v->mindist -> migrate",
    "ScanBlock 17:45 v->mindist -> migrate",
    "ScanBlock 18:17 v->next -> migrate",
];

/// Principal traversal variables and the mechanisms the kernel
/// hard-codes for them (see `Descriptor::kernel_mechs`).
pub const KERNEL_MECHS: &[(&str, &str, Mechanism)] = &[
    ("SweepBlocks", "b", Mechanism::Migrate),
    ("ScanBlock", "v", Mechanism::Migrate),
];

/// Static trip counts for the cost model: each of the `n - 1` Prim
/// rounds sweeps all `procs` blocks, and the per-block vertex scans sum
/// to the shrinking frontier (~`n(n-1)/2` visits overall).
pub fn trips(size: SizeClass, procs: usize) -> Vec<(&'static str, u64)> {
    let n = vertices(size) as u64;
    vec![
        ("SweepBlocks#0", (n - 1) * procs as u64),
        ("ScanBlock#0", n * (n - 1) / 2),
    ]
}

pub const DESCRIPTOR: Descriptor = Descriptor {
    name: "MST",
    description: "Computes the minimum spanning tree of a graph",
    problem_size: "1K nodes",
    choice: "M",
    whole_program: false,
    dsl: DSL,
    elided_sites: ELIDED_SITES,
    selected_mechanisms: SELECTED_MECHANISMS,
    kernel_mechs: KERNEL_MECHS,
    trips,
    bands: [(0.2, 1.5), (0.5, 2.0), (0.2, 1.5), (0.15, 1.2)],
    run,
    reference,
};

#[cfg(test)]
mod tests {
    use super::*;
    use olden_analysis::{parse, select, Mech};
    use olden_runtime::{run as run_sim, Config};

    #[test]
    fn tree_weight_matches_prim() {
        for procs in [1, 2, 4] {
            let (w, _) = run_sim(Config::olden(procs), |ctx| run(ctx, SizeClass::Tiny));
            assert_eq!(w, reference(SizeClass::Tiny), "procs={procs}");
        }
    }

    #[test]
    fn migrations_scale_with_n_times_p() {
        let n = vertices(SizeClass::Tiny);
        let (_, rep4) = run_sim(Config::olden(4), |ctx| run(ctx, SizeClass::Tiny));
        let (_, rep8) = run_sim(Config::olden(8), |ctx| run(ctx, SizeClass::Tiny));
        // Each round sweeps every block: ≈ N·P forward migrations.
        let lo4 = ((n - 1) * 3) as u64;
        assert!(
            rep4.stats.migrations >= lo4,
            "4 procs: {} migrations < {lo4}",
            rep4.stats.migrations
        );
        assert!(
            rep8.stats.migrations > rep4.stats.migrations * 3 / 2,
            "migrations grow with P: {} vs {}",
            rep8.stats.migrations,
            rep4.stats.migrations
        );
    }

    #[test]
    fn speedup_saturates() {
        let (_, seq) = run_sim(Config::sequential(), |ctx| run(ctx, SizeClass::Default));
        let s = |p: usize| {
            let (_, rep) = run_sim(Config::olden(p), |ctx| run(ctx, SizeClass::Default));
            rep.speedup_vs(seq.makespan)
        };
        let s2 = s(2);
        let s8 = s(8);
        let s16 = s(16);
        assert!(s2 > 0.8, "2 procs {s2}");
        // The O(N·P) synchronization migrations keep MST's curve flat —
        // Table 2 shows 4.56 at 32; efficiency must fall sharply.
        assert!(s16 < 8.0, "16 procs should saturate: {s16}");
        assert!(s16 / 16.0 < s8 / 8.0, "efficiency degrades with P");
    }

    #[test]
    fn heuristic_selects_migration() {
        let prog = parse(DSL).unwrap();
        let sel = select(&prog);
        let scan = &sel.for_func("ScanBlock")[0];
        assert_eq!(scan.mech("v"), Mech::Migrate, "96% blocked affinity");
        let sweep = &sel.for_func("SweepBlocks")[0];
        assert!(sweep.cl.parallel);
        assert_eq!(sweep.mech("b"), Mech::Migrate, "parallelizable sweep");
    }
}
