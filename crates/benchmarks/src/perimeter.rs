//! **Perimeter** — perimeter of quad-tree-encoded raster images
//! (Table 1: 4 K × 4 K image), after Samet's algorithm.
//!
//! A binary image (a disk) is encoded as a quadtree with parent pointers.
//! The perimeter is computed by visiting every black leaf and, for each
//! of its four sides, locating the adjacent neighbour of greater-or-equal
//! size via parent-pointer climbing; a white (or off-image) neighbour
//! contributes the side length, a grey neighbour contributes the white
//! leaves along the shared border.
//!
//! "The algorithm superficially looks similar to TreeAdd, but traverses
//! the tree in a very different way when computing the contribution of
//! neighboring quadrants. The heuristic chooses to use caching when
//! determining the neighbors of a quadrant, because they may be far away
//! in the tree" (§5) — the top-down traversal migrates, the neighbour
//! climbs and descents cache.

use crate::rng::mix2;
use crate::{Descriptor, SizeClass};
use olden_gptr::{GPtr, ProcId};
use olden_runtime::{Backend, Check, Mechanism};

const MI: Mechanism = Mechanism::Migrate;
const CA: Mechanism = Mechanism::Cache;

/// Quadrants, ordered NW, NE, SW, SE.
const NW: usize = 0;
const NE: usize = 1;
const SW: usize = 2;
const SE: usize = 3;

/// Node layout.
const F_CHILD0: usize = 0; // ..3
const F_PARENT: usize = 4;
const F_COLOR: usize = 5; // 0 white, 1 black, 2 grey
const F_QUAD: usize = 6; // which child of the parent this node is
const NODE_WORDS: usize = 8;

const WHITE: i64 = 0;
const BLACK: i64 = 1;
const GREY: i64 = 2;

/// Cycles per node visit / neighbour probe.
const W_VISIT: u64 = 30;

/// The neighbour-finding loop in the DSL: climbing parent pointers is a
/// single-field traversal at the default 70 % — cached; the perimeter
/// recursion (four recursive calls) migrates and is parallel.
pub const DSL: &str = r#"
    struct quad { quad *nw; quad *ne; quad *sw; quad *se; quad *parent; int color; };
    int Perimeter(quad *t, int size) {
        if (t == null) { return 0; }
        int a = futurecall Perimeter(t->nw, size);
        int b = futurecall Perimeter(t->ne, size);
        int c = futurecall Perimeter(t->sw, size);
        int d = Perimeter(t->se, size);
        touch a;
        touch b;
        touch c;
        return a + b + c + d;
    }
    quad *NorthNeighbor(quad *t) {
        quad *q = t;
        while (q != null) {
            q = q->parent;
        }
        return q;
    }
"#;

/// Image side length (pixels) per size class.
pub fn image_size(size: SizeClass) -> usize {
    match size {
        SizeClass::Tiny => 16,
        SizeClass::Default => 256,
        SizeClass::Paper => 4096, // Table 1: 4K x 4K
    }
}

/// The raster: a disk plus deterministic speckle so the quadtree is
/// irregular.
pub fn pixel(n: usize, x: usize, y: usize) -> bool {
    let c = n as f64 / 2.0;
    let r = n as f64 * 0.375;
    let dx = x as f64 + 0.5 - c;
    let dy = y as f64 + 0.5 - c;
    let inside = dx * dx + dy * dy <= r * r;
    if inside {
        // Pock-marks: carve out ~3 % of interior pixels in 2x2 blocks.
        mix2((x / 2) as u64, (y / 2) as u64 ^ 0x9E41) % 100 >= 3
    } else {
        false
    }
}

/// Does the square `[x, x+s) × [y, y+s)` have a uniform colour?
fn uniform(n: usize, x: usize, y: usize, s: usize) -> Option<bool> {
    let first = pixel(n, x, y);
    for yy in y..y + s {
        for xx in x..x + s {
            if pixel(n, xx, yy) != first {
                return None;
            }
        }
    }
    Some(first)
}

/// Build the quadtree over `[x, x+s)²`, distributing quadrant subtrees
/// over the processor range.
#[allow(clippy::too_many_arguments)]
fn build<B: Backend>(
    ctx: &mut B,
    n: usize,
    x: usize,
    y: usize,
    s: usize,
    parent: GPtr,
    quad: usize,
    lo: usize,
    hi: usize,
) -> GPtr {
    let node = ctx.alloc(lo as ProcId, NODE_WORDS);
    ctx.write(node, F_PARENT, parent, MI);
    ctx.write(node, F_QUAD, quad as i64, MI);
    match uniform(n, x, y, s) {
        Some(black) => {
            ctx.write(node, F_COLOR, if black { BLACK } else { WHITE }, MI);
        }
        None => {
            ctx.write(node, F_COLOR, GREY, MI);
            let h = s / 2;
            let coords = [(x, y), (x + h, y), (x, y + h), (x + h, y + h)]; // NW,NE,SW,SE
            for (q, &(cx, cy)) in coords.iter().enumerate() {
                // Child 0 takes the *far* quarter so its future forks.
                let (clo, chi) = crate::split_range4(lo, hi, 3 - q);
                let child = build(ctx, n, cx, cy, h, node, q, clo, chi);
                ctx.write(node, F_CHILD0 + q, child, MI);
            }
        }
    }
    node
}

/// Direction of a neighbour probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Dir {
    North,
    East,
    South,
    West,
}

/// Is `quad` on the `dir` edge of its parent?
fn on_edge(quad: usize, dir: Dir) -> bool {
    match dir {
        Dir::North => quad == NW || quad == NE,
        Dir::South => quad == SW || quad == SE,
        Dir::West => quad == NW || quad == SW,
        Dir::East => quad == NE || quad == SE,
    }
}

/// Mirror a quadrant across the axis perpendicular to `dir` (the Samet
/// reflection used when descending back down).
fn mirror(quad: usize, dir: Dir) -> usize {
    match dir {
        Dir::North | Dir::South => match quad {
            NW => SW,
            NE => SE,
            SW => NW,
            _ => NE,
        },
        Dir::East | Dir::West => match quad {
            NW => NE,
            NE => NW,
            SW => SE,
            _ => SW,
        },
    }
}

/// Find the neighbour of greater-or-equal size in direction `dir`
/// (Samet's `gtequal_adj_neighbor`): climb while on the `dir` edge of the
/// parent, step across, then descend the mirrored path. All dereferences
/// cache — "they may be far away in the tree".
fn gtequal_adj_neighbor<B: Backend>(ctx: &mut B, node: GPtr, dir: Dir) -> GPtr {
    let parent = ctx.read_ptr(node, F_PARENT, CA);
    if parent.is_null() {
        return GPtr::NULL; // off the image
    }
    let quad = ctx.read_i64(node, F_QUAD, CA) as usize;
    let q = if on_edge(quad, dir) {
        // Still on the boundary of the parent: find the parent's
        // neighbour first.
        let pn = gtequal_adj_neighbor(ctx, parent, dir);
        if pn.is_null() {
            return GPtr::NULL;
        }
        if ctx.read_i64(pn, F_COLOR, CA) != GREY {
            return pn; // a leaf at least as large as `node`
        }
        pn
    } else {
        parent
    };
    ctx.read_ptr(q, F_CHILD0 + mirror(quad, dir), CA)
}

/// Sum of the side lengths of white leaves along the `dir`-facing border
/// of `t` (the contribution when a black leaf's neighbour is grey).
fn sum_adjacent<B: Backend>(ctx: &mut B, t: GPtr, dir: Dir, size: i64) -> i64 {
    ctx.work(W_VISIT);
    let color = ctx.read_i64(t, F_COLOR, CA);
    if color == GREY {
        // The two children adjacent to the border facing *against* dir.
        let (q1, q2) = match dir {
            Dir::North => (SW, SE), // probe came from the south side
            Dir::South => (NW, NE),
            Dir::East => (NW, SW),
            Dir::West => (NE, SE),
        };
        let c1 = ctx.read_ptr(t, F_CHILD0 + q1, CA);
        let c2 = ctx.read_ptr(t, F_CHILD0 + q2, CA);
        sum_adjacent(ctx, c1, dir, size / 2) + sum_adjacent(ctx, c2, dir, size / 2)
    } else if color == WHITE {
        size
    } else {
        0
    }
}

/// Perimeter contribution of the subtree at `t` whose square side is
/// `size`. The recursion migrates (and forks); neighbour probes cache.
fn perimeter<B: Backend>(ctx: &mut B, t: GPtr, size: i64) -> i64 {
    ctx.work(W_VISIT);
    let color = ctx.read_i64(t, F_COLOR, MI);
    if color == GREY {
        // The color read above performed the check of `t`; the child
        // reads that follow are proven redundant (`ELIDED_SITES`) — each
        // future's continuation resumes on `t`'s processor.
        let mut handles = Vec::new();
        for q in 0..3 {
            let c = ctx.read_ptr_checked(t, F_CHILD0 + q, MI, Check::Elide);
            handles
                .push(ctx.future_call(move |ctx| ctx.call(move |ctx| perimeter(ctx, c, size / 2))));
        }
        let c3 = ctx.read_ptr_checked(t, F_CHILD0 + SE, MI, Check::Elide);
        let mut total = ctx.call(|ctx| perimeter(ctx, c3, size / 2));
        for h in handles {
            total += ctx.touch(h);
        }
        total
    } else if color == BLACK {
        let mut total = 0;
        for dir in [Dir::North, Dir::East, Dir::South, Dir::West] {
            let nbr = ctx.call(|ctx| gtequal_adj_neighbor(ctx, t, dir));
            if nbr.is_null() {
                total += size; // image border
            } else {
                let ncolor = ctx.read_i64(nbr, F_COLOR, CA);
                if ncolor == WHITE {
                    total += size;
                } else if ncolor == GREY {
                    total += ctx.call(|ctx| sum_adjacent(ctx, nbr, dir, size));
                }
            }
        }
        total
    } else {
        0
    }
}

/// Kernel run (build uncharged).
pub fn run<B: Backend>(ctx: &mut B, size: SizeClass) -> u64 {
    let n = image_size(size);
    let procs = ctx.nprocs();
    let root = ctx.uncharged(|ctx| build(ctx, n, 0, 0, n, GPtr::NULL, 0, 0, procs));
    ctx.call(|ctx| perimeter(ctx, root, n as i64)) as u64
}

/// Serial reference: count black↔white (or black↔border) pixel edges
/// directly on the raster.
pub fn reference(size: SizeClass) -> u64 {
    let n = image_size(size);
    let mut total = 0u64;
    let black = |x: isize, y: isize| -> bool {
        if x < 0 || y < 0 || x >= n as isize || y >= n as isize {
            false
        } else {
            pixel(n, x as usize, y as usize)
        }
    };
    for y in 0..n as isize {
        for x in 0..n as isize {
            if black(x, y) {
                for (dx, dy) in [(0, -1), (1, 0), (0, 1), (-1, 0)] {
                    if !black(x + dx, y + dy) {
                        total += 1;
                    }
                }
            }
        }
    }
    total
}

/// Optimizer-proven redundant check sites of `DSL` (see `Descriptor::elided_sites`).
pub const ELIDED_SITES: &[&str] = &[
    "Perimeter 6:38 t->ne",
    "Perimeter 7:38 t->sw",
    "Perimeter 8:27 t->se",
];

/// Heuristic verdicts for every dereference site of `DSL` (see
/// `Descriptor::selected_mechanisms`).
pub const SELECTED_MECHANISMS: &[&str] = &[
    "Perimeter 5:38 t->nw -> migrate",
    "Perimeter 6:38 t->ne -> migrate",
    "Perimeter 7:38 t->sw -> migrate",
    "Perimeter 8:27 t->se -> migrate",
    "NorthNeighbor 17:17 q->parent -> cache",
];

/// Principal traversal variables and the mechanisms the kernel
/// hard-codes for them (see `Descriptor::kernel_mechs`).
pub const KERNEL_MECHS: &[(&str, &str, Mechanism)] = &[
    ("Perimeter", "t", Mechanism::Migrate),
    ("NorthNeighbor", "q", Mechanism::Cache),
];

/// Static trip counts for the cost model: the quad-tree has ~`4/3` as
/// many nodes as leaves, and each leaf's neighbor probes climb at most
/// `log2(image_size)` levels.
pub fn trips(size: SizeClass, _procs: usize) -> Vec<(&'static str, u64)> {
    let s = image_size(size) as u64;
    let leaves = s * s / 4;
    vec![
        ("Perimeter#0", 4 * leaves / 3),
        ("NorthNeighbor#0", leaves * s.ilog2() as u64),
    ]
}

pub const DESCRIPTOR: Descriptor = Descriptor {
    name: "Perimeter",
    description: "Computes the perimeter of a set of quad-tree encoded raster images",
    problem_size: "4K x 4K image",
    choice: "M+C",
    whole_program: false,
    dsl: DSL,
    elided_sites: ELIDED_SITES,
    selected_mechanisms: SELECTED_MECHANISMS,
    kernel_mechs: KERNEL_MECHS,
    trips,
    bands: [(1.0, 5.0), (0.5, 2.0), (1.5, 8.0), (2.5, 15.0)],
    run,
    reference,
};

#[cfg(test)]
mod tests {
    use super::*;
    use olden_analysis::{parse, select, Mech};
    use olden_runtime::{run as run_sim, Config};

    #[test]
    fn quadtree_perimeter_matches_pixel_count() {
        for procs in [1, 2, 4] {
            let (v, _) = run_sim(Config::olden(procs), |ctx| run(ctx, SizeClass::Tiny));
            assert_eq!(v, reference(SizeClass::Tiny), "procs={procs}");
        }
    }

    #[test]
    fn default_size_matches_too() {
        let (v, _) = run_sim(Config::olden(4), |ctx| run(ctx, SizeClass::Default));
        assert_eq!(v, reference(SizeClass::Default));
    }

    #[test]
    fn disk_perimeter_is_plausible() {
        // The disk of radius 0.375·n has circumference ≈ 2.36·n; a
        // rasterized circle's edge count is larger (L∞ geometry) plus the
        // speckle holes add more.
        let n = image_size(SizeClass::Tiny) as u64;
        let p = reference(SizeClass::Tiny);
        assert!(p > 2 * n, "perimeter {p} too small for n={n}");
        assert!(p < n * n, "perimeter {p} absurdly large");
    }

    #[test]
    fn heuristic_migrates_recursion_caches_climb() {
        let prog = parse(DSL).unwrap();
        let sel = select(&prog);
        let rec = sel.recursion_of("Perimeter").unwrap();
        assert_eq!(rec.migration_var(), Some("t"));
        assert!(rec.cl.parallel);
        let climb = &sel.for_func("NorthNeighbor")[0];
        assert_eq!(climb.mech("q"), Mech::Cache, "parent climb caches");
    }

    #[test]
    fn uses_both_mechanisms() {
        let (_, rep) = run_sim(Config::olden(4), |ctx| run(ctx, SizeClass::Tiny));
        assert!(rep.stats.migrations > 0);
        assert!(rep.cache.cacheable_reads > 0);
        assert_eq!(rep.cache.cacheable_writes, 0, "Table 3: Perimeter writes 0");
    }
}
