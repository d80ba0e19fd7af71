//! **TSP** — an estimate of the best Hamiltonian circuit (Table 1: 32 K
//! cities), after Karp's partitioning algorithm.
//!
//! The plane is recursively bisected (alternating axes) until cells hold
//! a handful of cities; trivial cell tours are then merged pairwise up
//! the partition tree by splicing the two cycles along their cheapest
//! connecting pair, chosen with a closest-point heuristic. Tours are
//! circular singly-linked lists in the distributed heap; each cell's
//! cities live on one processor and the partition distributes cells over
//! the machine.
//!
//! The heuristic selects **migration only** (Table 2): the divide phase
//! is a parallelizable recursion and each merge "is sequential and walks
//! through the subtrees, which requires a migration for each
//! participating processor. Using software caching in place of migration
//! would increase rather than decrease the cost of communication ...
//! because a large amount of data is accessed on each processor during
//! the subtree walk" (§5) — which is why TSP trails TreeAdd/Power in
//! Table 2 (10.08 at 16, 15.8 at 32).

use crate::rng::SplitMix64;
use crate::{Descriptor, SizeClass};
use olden_gptr::{GPtr, ProcId};
use olden_runtime::{Backend, Mechanism};

const M: Mechanism = Mechanism::Migrate;

/// City layout: tour link, x, y.
const F_NEXT: usize = 0;
const F_X: usize = 1;
const F_Y: usize = 2;
const CITY_WORDS: usize = 3;

/// Cities per leaf cell.
const LEAF_CITIES: usize = 4;

/// Cycles per city visited during a merge scan.
const W_SCAN: u64 = 60;
/// Cycles per city spent solving a leaf cell (the local tour-improvement
/// work that dominates Karp's algorithm; calibrated from Table 2's
/// 43.35 s sequential time at 33 MHz for 32 K cities).
const W_LEAF: u64 = 4000;

/// The merge's tour walk in the analysis DSL: a cycle traversal whose
/// blocked layout gives `c = c->next` a high affinity → migration.
pub const DSL: &str = r#"
    struct city { city *next @ 97; int x; int y; };
    int ScanTour(city *start) {
        int best = 99999999;
        city *c = start;
        while (c != null) {
            int d = dist(c);
            if (d < best) { best = d; }
            c = c->next;
        }
        return best;
    }
"#;

/// Number of cities (a power of two times `LEAF_CITIES`).
pub fn cities(size: SizeClass) -> usize {
    match size {
        SizeClass::Tiny => 64,
        SizeClass::Default => 2048,
        SizeClass::Paper => 32768, // Table 1: 32K cities
    }
}

/// A plain point for the reference and for coordinate generation.
#[derive(Clone, Copy, Debug)]
pub struct Pt {
    pub x: f64,
    pub y: f64,
}

fn dist(a: Pt, b: Pt) -> f64 {
    ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt()
}

/// Deterministic city coordinates: hierarchical bisection (cell
/// `[x0,x1)×[y0,y1)` splits along `axis`) so the partition tree's spatial
/// structure is identical at every processor count.
#[allow(clippy::too_many_arguments)]
fn gen_cell(
    out: &mut Vec<Pt>,
    n: usize,
    index: u64,
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
    vertical: bool,
) {
    if n <= LEAF_CITIES {
        let mut rng = SplitMix64::new(index ^ 0x7599);
        for _ in 0..n {
            out.push(Pt {
                x: x0 + rng.unit_f64() * (x1 - x0),
                y: y0 + rng.unit_f64() * (y1 - y0),
            });
        }
        return;
    }
    let half = n / 2;
    if vertical {
        let xm = (x0 + x1) / 2.0;
        gen_cell(out, half, index * 2, x0, xm, y0, y1, false);
        gen_cell(out, n - half, index * 2 + 1, xm, x1, y0, y1, false);
    } else {
        let ym = (y0 + y1) / 2.0;
        gen_cell(out, half, index * 2, x0, x1, y0, ym, true);
        gen_cell(out, n - half, index * 2 + 1, x0, x1, ym, y1, true);
    }
}

/// All city coordinates, in partition order.
pub fn points(size: SizeClass) -> Vec<Pt> {
    let n = cities(size);
    let mut out = Vec::with_capacity(n);
    gen_cell(&mut out, n, 1, 0.0, 1.0, 0.0, 1.0, true);
    out
}

// ---------------------------------------------------------------------
// Shared merge logic (operating over an abstract tour representation so
// the distributed run and the serial reference are one algorithm).
// ---------------------------------------------------------------------

/// Merge two cycles: pick `a` = the city of tour 1 closest to tour 2's
/// first city, then `b` = the city of tour 2 closest to `a`; splice by
/// redirecting `a → b.next…b → a.next`. O(|T1| + |T2|).
fn splice_choice(t1: &[(usize, Pt)], t2: &[(usize, Pt)]) -> (usize, usize) {
    let probe = t2[0].1;
    let mut ai = 0;
    let mut best = f64::INFINITY;
    for (i, &(_, p)) in t1.iter().enumerate() {
        let d = dist(p, probe);
        if d < best {
            best = d;
            ai = i;
        }
    }
    let ap = t1[ai].1;
    let mut bi = 0;
    best = f64::INFINITY;
    for (i, &(_, p)) in t2.iter().enumerate() {
        let d = dist(p, ap);
        if d < best {
            best = d;
            bi = i;
        }
    }
    (ai, bi)
}

// ---------------------------------------------------------------------
// Distributed version.
// ---------------------------------------------------------------------

/// Solve a cell: returns the tour head. Cities of a leaf live on one
/// processor; the recursion splits the processor range (far half first so
/// the left future forks).
#[allow(clippy::too_many_arguments)]
fn solve<B: Backend>(
    ctx: &mut B,
    pts: &std::sync::Arc<Vec<Pt>>,
    offset: usize,
    n: usize,
    lo: usize,
    hi: usize,
) -> GPtr {
    if n <= LEAF_CITIES {
        // Build the trivial cell tour (a cycle in generation order).
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let c = ctx.alloc(lo as ProcId, CITY_WORDS);
            let p = pts[offset + i];
            ctx.write(c, F_X, p.x, M);
            ctx.write(c, F_Y, p.y, M);
            // Leaf tour-improvement work happens *after* the first write
            // has migrated the thread to the cell's processor — charging
            // it earlier would bill every leaf to the spawning processor.
            ctx.work(W_LEAF);
            nodes.push(c);
        }
        for i in 0..n {
            ctx.write(nodes[i], F_NEXT, nodes[(i + 1) % n], M);
        }
        return nodes[0];
    }
    let half = n / 2;
    let mid = usize::midpoint(lo, hi);
    let (l_lo, l_hi, r_lo, r_hi) = if hi - lo <= 1 {
        (lo, hi, lo, hi)
    } else {
        (mid, hi, lo, mid)
    };
    let h = {
        let pts = std::sync::Arc::clone(pts);
        ctx.future_call(move |ctx| ctx.call(move |ctx| solve(ctx, &pts, offset, half, l_lo, l_hi)))
    };
    let t2 = ctx.call(|ctx| solve(ctx, pts, offset + half, n - half, r_lo, r_hi));
    let t1 = ctx.touch(h);
    merge(ctx, t1, t2)
}

/// Collect a tour into `(ptr, point)` pairs by walking the cycle — the
/// §5 "subtree walk" that migrates across each participating processor.
fn collect_tour<B: Backend>(ctx: &mut B, head: GPtr) -> Vec<(GPtr, Pt)> {
    let mut out = Vec::new();
    let mut c = head;
    loop {
        ctx.work(W_SCAN);
        let x = ctx.read_f64(c, F_X, M);
        let y = ctx.read_f64(c, F_Y, M);
        out.push((c, Pt { x, y }));
        c = ctx.read_ptr(c, F_NEXT, M);
        if c == head {
            break;
        }
    }
    out
}

/// Merge two distributed tours.
fn merge<B: Backend>(ctx: &mut B, t1: GPtr, t2: GPtr) -> GPtr {
    let c1 = ctx.call(|ctx| collect_tour(ctx, t1));
    let c2 = ctx.call(|ctx| collect_tour(ctx, t2));
    let k1: Vec<(usize, Pt)> = c1.iter().enumerate().map(|(i, &(_, p))| (i, p)).collect();
    let k2: Vec<(usize, Pt)> = c2.iter().enumerate().map(|(i, &(_, p))| (i, p)).collect();
    let (ai, bi) = splice_choice(&k1, &k2);
    // Splice: a → b.next … b → a.next.
    let a = c1[ai].0;
    let b = c2[bi].0;
    let a_next = ctx.read_ptr(a, F_NEXT, M);
    let b_next = ctx.read_ptr(b, F_NEXT, M);
    ctx.write(a, F_NEXT, b_next, M);
    ctx.write(b, F_NEXT, a_next, M);
    t1
}

/// Total tour length (bit-exact accumulation order: from the head).
fn tour_length<B: Backend>(ctx: &mut B, head: GPtr) -> f64 {
    let pts = collect_tour(ctx, head);
    let mut total = 0.0;
    for i in 0..pts.len() {
        total += dist(pts[i].1, pts[(i + 1) % pts.len()].1);
    }
    total
}

/// Kernel run: the partition tours are built as part of the kernel (the
/// paper's TSP is a kernel benchmark over a pre-generated city set; the
/// coordinates here are inputs, the heap structures are the kernel's).
pub fn run<B: Backend>(ctx: &mut B, size: SizeClass) -> u64 {
    let pts = std::sync::Arc::new(points(size));
    let n = ctx.nprocs();
    let head = ctx.call(|ctx| solve(ctx, &pts, 0, pts.len(), 0, n));
    let mut len = 0.0;
    ctx.uncharged(|ctx| {
        len = tour_length(ctx, head);
    });
    len.to_bits()
}

/// Serial reference: the same partition, merges, and arithmetic over
/// plain vectors.
pub fn reference(size: SizeClass) -> u64 {
    let pts = points(size);
    fn solve_ref(pts: &[Pt], offset: usize, n: usize) -> Vec<(usize, Pt)> {
        if n <= LEAF_CITIES {
            return (0..n).map(|i| (offset + i, pts[offset + i])).collect();
        }
        let half = n / 2;
        let t1 = solve_ref(pts, offset, half);
        let t2 = solve_ref(pts, offset + half, n - half);
        let (ai, bi) = splice_choice(&t1, &t2);
        // Cycle splice on vectors: result = t1[..=ai] ++ t2[bi+1..] ++
        // t2[..=bi] ++ t1[ai+1..].
        let mut out = Vec::with_capacity(t1.len() + t2.len());
        out.extend_from_slice(&t1[..=ai]);
        out.extend_from_slice(&t2[bi + 1..]);
        out.extend_from_slice(&t2[..=bi]);
        out.extend_from_slice(&t1[ai + 1..]);
        out
    }
    let tour = solve_ref(&pts, 0, pts.len());
    // Rotate so the tour starts at city 0 — the distributed version's
    // head is the first leaf's first city, which is city 0.
    let start = tour.iter().position(|&(i, _)| i == 0).unwrap();
    let mut total = 0.0;
    let n = tour.len();
    for k in 0..n {
        let a = tour[(start + k) % n].1;
        let b = tour[(start + k + 1) % n].1;
        total += dist(a, b);
    }
    total.to_bits()
}

/// Optimizer-proven redundant check sites of `DSL` (see `Descriptor::elided_sites`).
pub const ELIDED_SITES: &[&str] = &[];

/// Heuristic verdicts for every dereference site of `DSL` (see
/// `Descriptor::selected_mechanisms`).
pub const SELECTED_MECHANISMS: &[&str] = &["ScanTour 9:17 c->next -> migrate"];

/// Principal traversal variables and the mechanisms the kernel
/// hard-codes for them (see `Descriptor::kernel_mechs`).
pub const KERNEL_MECHS: &[(&str, &str, Mechanism)] = &[("ScanTour", "c", Mechanism::Migrate)];

/// Static trip counts for the cost model: each merge level rescans the
/// tour, so the scan loop runs ~`n log2(n / LEAF_CITIES)` times total.
pub fn trips(size: SizeClass, _procs: usize) -> Vec<(&'static str, u64)> {
    let n = cities(size) as u64;
    vec![("ScanTour#0", n * (n / LEAF_CITIES as u64).ilog2() as u64)]
}

pub const DESCRIPTOR: Descriptor = Descriptor {
    name: "TSP",
    description: "Computes an estimate of the best hamiltonian circuit",
    problem_size: "32K cities",
    choice: "M",
    whole_program: false,
    dsl: DSL,
    elided_sites: ELIDED_SITES,
    selected_mechanisms: SELECTED_MECHANISMS,
    kernel_mechs: KERNEL_MECHS,
    trips,
    bands: [(0.04, 1.0), (0.5, 2.0), (0.04, 1.0), (0.02, 1.5)],
    run,
    reference,
};

#[cfg(test)]
mod tests {
    use super::*;
    use olden_analysis::{parse, select, Mech};
    use olden_runtime::{run as run_sim, Config};

    #[test]
    fn tour_length_matches_reference() {
        for procs in [1, 2, 4] {
            let (v, _) = run_sim(Config::olden(procs), |ctx| run(ctx, SizeClass::Tiny));
            assert_eq!(v, reference(SizeClass::Tiny), "procs={procs}");
        }
    }

    #[test]
    fn tour_is_a_single_cycle_visiting_every_city() {
        let n = cities(SizeClass::Tiny);
        let ((), _) = run_sim(Config::olden(4), |ctx| {
            let pts = std::sync::Arc::new(points(SizeClass::Tiny));
            let p = ctx.nprocs();
            let head = ctx.call(|ctx| solve(ctx, &pts, 0, pts.len(), 0, p));
            ctx.uncharged(|ctx| {
                let tour = collect_tour(ctx, head);
                assert_eq!(tour.len(), n, "every city exactly once");
                let mut seen = std::collections::HashSet::new();
                for &(c, _) in &tour {
                    assert!(seen.insert(c), "city repeated in tour");
                }
            });
        });
    }

    #[test]
    fn tour_is_reasonably_short() {
        // For n uniform points in the unit square the optimal tour is
        // ≈ 0.7·√n; a partition-merge estimate should be within ~2.5× of
        // that, far below a random permutation's Θ(n).
        let n = cities(SizeClass::Default) as f64;
        let len = f64::from_bits(reference(SizeClass::Default));
        assert!(len < 2.5 * 0.85 * n.sqrt(), "tour length {len}");
        assert!(len > 0.5 * n.sqrt(), "implausibly short {len}");
    }

    #[test]
    fn heuristic_migrates_tour_walk() {
        let prog = parse(DSL).unwrap();
        let sel = select(&prog);
        let c = &sel.for_func("ScanTour")[0];
        assert_eq!(c.mech("c"), Mech::Migrate, "97% affinity tour walk");
    }

    #[test]
    fn merge_walks_migrate_per_processor() {
        let (_, rep) = run_sim(Config::olden(8), |ctx| run(ctx, SizeClass::Tiny));
        // Each of the log(n/4) merge levels walks both subtours across
        // their processors.
        assert!(rep.stats.migrations > 8, "{}", rep.stats.migrations);
        assert_eq!(
            rep.cache.cacheable_reads + rep.cache.cacheable_writes,
            0,
            "TSP is migration-only"
        );
    }
}
