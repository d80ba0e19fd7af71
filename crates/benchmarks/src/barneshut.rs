//! **Barnes-Hut** — hierarchical N-body simulation (Table 1: 8 K bodies).
//!
//! Each time step (1) builds an octree over the bodies — sequential, as
//! in the paper, where tree building "starts to represent a substantial
//! fraction of the computation as the number of processors increases";
//! (2) computes cell centers of mass bottom-up; (3) computes every body's
//! acceleration by walking the tree with the opening criterion
//! `size/dist < θ`; (4) advances positions with leapfrog.
//!
//! The heuristic picks **migration for the particles** (high locality:
//! bodies are blocked across processors on per-processor lists) and
//! **software caching for the tree** — even though the tree has high
//! locality, migrating on it would serialize every thread at the root,
//! which is precisely the Figure-5 bottleneck pass 2 exists to avoid
//! (§5). Table 3 shows the result: 55.6 % of Barnes-Hut's cacheable reads
//! are remote, by far the highest in the suite. The paper reports
//! whole-program times.

use crate::rng::{mix2, SplitMix64};
use crate::{Descriptor, SizeClass};
use olden_gptr::{GPtr, ProcId};
use olden_runtime::{Backend, Check, Mechanism};

const MI: Mechanism = Mechanism::Migrate;
const CA: Mechanism = Mechanism::Cache;

/// Body layout.
const B_NEXT: usize = 0;
const B_X: usize = 1; // .. B_Z = 3
const B_VX: usize = 4; // .. B_VZ = 6
const B_MASS: usize = 7;
const BODY_WORDS: usize = 8;

/// Cell layout: 8 children, then mass and center of mass, then a type
/// tag (0 = internal cell, 1 = body leaf) and, for leaves, the body ptr.
const C_CHILD0: usize = 0; // ..7
const C_MASS: usize = 8;
const C_CX: usize = 9; // .. C_CZ = 11
const C_KIND: usize = 12;
const C_BODY: usize = 13;
const CELL_WORDS: usize = 14;

const KIND_CELL: i64 = 0;
const KIND_LEAF: i64 = 1;

/// Opening criterion.
const THETA: f64 = 0.5;
/// Leapfrog step.
const DT: f64 = 0.025;
/// Softening length (avoids singular close encounters).
const EPS2: f64 = 1e-4;
/// Time steps.
const STEPS: usize = 2;

/// Cycles per body–cell interaction and per tree-insert step.
const W_INTERACT: u64 = 60;
const W_INSERT: u64 = 40;

/// The force walk in the DSL: the cell pointer descends a different
/// child per iteration (a tree search → cached), and the outer parallel
/// loop over bodies passes the *same* tree root to every future —
/// Figure 5's bottleneck shape, so pass 2 demotes the walk to caching
/// even with high-affinity annotations.
pub const DSL: &str = r#"
    struct cell { cell *c0 @ 95; cell *c1 @ 95; int mass; };
    struct body { body *next @ 95; int x; };
    void Gravity(body *b, cell *root) {
        while (b != null) {
            futurecall Walk(root);
            b = b->next;
        }
    }
    void Walk(cell *t) {
        if (t == null) { return; }
        Walk(t->c0);
        Walk(t->c1);
    }
"#;

/// Body count per size class.
pub fn bodies(size: SizeClass) -> usize {
    match size {
        SizeClass::Tiny => 32,
        SizeClass::Default => 1024,
        SizeClass::Paper => 8192, // Table 1: 8K bodies
    }
}

/// Deterministic initial conditions: a centrally condensed cluster in the
/// unit cube with small random velocities.
pub fn initial(n: usize) -> Vec<([f64; 3], [f64; 3], f64)> {
    let mut rng = SplitMix64::new(0xBA12E5);
    (0..n)
        .map(|_| {
            // Bias positions toward the center (Plummer-flavoured).
            let u = rng.unit_f64();
            let r = 0.5 * u * u;
            let mut pos = [0.0; 3];
            let mut norm = 0.0;
            let dir: Vec<f64> = (0..3).map(|_| rng.unit_f64() - 0.5).collect();
            for d in &dir {
                norm += d * d;
            }
            let norm = norm.sqrt().max(1e-9);
            for (k, p) in pos.iter_mut().enumerate() {
                *p = 0.5 + r * dir[k] / norm;
            }
            let vel = [
                (rng.unit_f64() - 0.5) * 0.1,
                (rng.unit_f64() - 0.5) * 0.1,
                (rng.unit_f64() - 0.5) * 0.1,
            ];
            let mass = 1.0 / n as f64;
            (pos, vel, mass)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Distributed version.
// ---------------------------------------------------------------------

/// Which octant of the cell centered at `c` with half-size `h` holds `p`?
fn octant(cx: f64, cy: f64, cz: f64, p: [f64; 3]) -> usize {
    (usize::from(p[0] >= cx)) | (usize::from(p[1] >= cy) << 1) | (usize::from(p[2] >= cz) << 2)
}

fn child_center(cx: f64, cy: f64, cz: f64, h: f64, o: usize) -> (f64, f64, f64) {
    (
        cx + if o & 1 != 0 { h / 2.0 } else { -h / 2.0 },
        cy + if o & 2 != 0 { h / 2.0 } else { -h / 2.0 },
        cz + if o & 4 != 0 { h / 2.0 } else { -h / 2.0 },
    )
}

struct TreeBuilder<'a, B: Backend> {
    ctx: &'a mut B,
}

/// The build phase runs sequentially on processor 0 (as in the paper) and
/// accesses everything through the cache: migrating on each insert would
/// bounce the builder between the cells' processors. Cells are allocated
/// on the processor of the body that creates them, so each body's force
/// walk later finds its own region of the tree *local* and only the
/// shared upper cells remote — those are exactly the "distant tree nodes"
/// the heuristic caches (§5).
impl<B: Backend> TreeBuilder<'_, B> {
    fn new_cell(&mut self, near: GPtr) -> GPtr {
        let c = self.ctx.alloc(near.proc(), CELL_WORDS);
        self.ctx.write(c, C_KIND, KIND_CELL, CA);
        c
    }

    fn new_leaf(&mut self, body: GPtr, pos: [f64; 3], mass: f64) -> GPtr {
        let c = self.ctx.alloc(body.proc(), CELL_WORDS);
        self.ctx.write(c, C_KIND, KIND_LEAF, CA);
        self.ctx.write(c, C_BODY, body, CA);
        self.ctx.write(c, C_MASS, mass, CA);
        self.ctx.write(c, C_CX, pos[0], CA);
        self.ctx.write(c, C_CX + 1, pos[1], CA);
        self.ctx.write(c, C_CX + 2, pos[2], CA);
        c
    }

    /// Insert a body into the subtree rooted at `cell` (centered `c`,
    /// half-size `h`).
    #[allow(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        cell: GPtr,
        cx: f64,
        cy: f64,
        cz: f64,
        h: f64,
        body: GPtr,
        pos: [f64; 3],
        mass: f64,
    ) {
        self.ctx.work(W_INSERT);
        let o = octant(cx, cy, cz, pos);
        let child = self.ctx.read_ptr(cell, C_CHILD0 + o, CA);
        if child.is_null() {
            let leaf = self.new_leaf(body, pos, mass);
            self.ctx.write(cell, C_CHILD0 + o, leaf, CA);
            return;
        }
        let kind = self.ctx.read_i64(child, C_KIND, CA);
        let (ncx, ncy, ncz) = child_center(cx, cy, cz, h, o);
        if kind == KIND_CELL {
            self.insert(child, ncx, ncy, ncz, h / 2.0, body, pos, mass);
        } else {
            // Split the leaf: push the resident body down, then retry.
            let other_body = self.ctx.read_ptr(child, C_BODY, CA);
            let opos = [
                self.ctx.read_f64(child, C_CX, CA),
                self.ctx.read_f64(child, C_CX + 1, CA),
                self.ctx.read_f64(child, C_CX + 2, CA),
            ];
            let omass = self.ctx.read_f64(child, C_MASS, CA);
            let fresh = self.new_cell(other_body);
            self.ctx.write(cell, C_CHILD0 + o, fresh, CA);
            self.insert(fresh, ncx, ncy, ncz, h / 2.0, other_body, opos, omass);
            self.insert(fresh, ncx, ncy, ncz, h / 2.0, body, pos, mass);
        }
    }

    /// Bottom-up mass and center-of-mass computation. Returns (mass,
    /// weighted position).
    fn summarize(&mut self, cell: GPtr) -> (f64, [f64; 3]) {
        let kind = self.ctx.read_i64(cell, C_KIND, CA);
        if kind == KIND_LEAF {
            let m = self.ctx.read_f64(cell, C_MASS, CA);
            let p = [
                self.ctx.read_f64(cell, C_CX, CA),
                self.ctx.read_f64(cell, C_CX + 1, CA),
                self.ctx.read_f64(cell, C_CX + 2, CA),
            ];
            return (m, p);
        }
        let mut mass = 0.0;
        let mut wp = [0.0; 3];
        for o in 0..8 {
            let child = self.ctx.read_ptr(cell, C_CHILD0 + o, CA);
            if child.is_null() {
                continue;
            }
            let (m, p) = self.summarize(child);
            mass += m;
            for k in 0..3 {
                wp[k] += m * p[k];
            }
        }
        let com = [wp[0] / mass, wp[1] / mass, wp[2] / mass];
        self.ctx.write(cell, C_MASS, mass, CA);
        self.ctx.write(cell, C_CX, com[0], CA);
        self.ctx.write(cell, C_CX + 1, com[1], CA);
        self.ctx.write(cell, C_CX + 2, com[2], CA);
        (mass, com)
    }
}

/// Force walk for one body: cached tree reads (§5).
fn accel_on<B: Backend>(ctx: &mut B, cell: GPtr, h: f64, pos: [f64; 3], body: GPtr) -> [f64; 3] {
    if cell.is_null() {
        return [0.0; 3];
    }
    ctx.work(W_INTERACT);
    let kind = ctx.read_i64(cell, C_KIND, CA);
    // The kind read above performed the check and fetched the line; the
    // mass/center/body reads of the same cell are proven redundant
    // (`ELIDED_SITES`). When a field happens to land on an uncached line
    // the elision hint falls back to the full counted lookup.
    let m = ctx.read_f64_checked(cell, C_MASS, CA, Check::Elide);
    let cpos = [
        ctx.read_f64_checked(cell, C_CX, CA, Check::Elide),
        ctx.read_f64_checked(cell, C_CX + 1, CA, Check::Elide),
        ctx.read_f64_checked(cell, C_CX + 2, CA, Check::Elide),
    ];
    let dx = cpos[0] - pos[0];
    let dy = cpos[1] - pos[1];
    let dz = cpos[2] - pos[2];
    let d2 = dx * dx + dy * dy + dz * dz + EPS2;
    let d = d2.sqrt();
    if kind == KIND_LEAF {
        let self_cell = ctx.read_ptr_checked(cell, C_BODY, CA, Check::Elide) == body;
        if self_cell {
            return [0.0; 3];
        }
        let f = m / (d2 * d);
        return [f * dx, f * dy, f * dz];
    }
    if (2.0 * h) / d < THETA {
        // Far enough: interact with the cell's center of mass.
        let f = m / (d2 * d);
        return [f * dx, f * dy, f * dz];
    }
    let mut acc = [0.0; 3];
    for o in 0..8 {
        let child = ctx.read_ptr_checked(cell, C_CHILD0 + o, CA, Check::Elide);
        if !child.is_null() {
            let a = accel_on(ctx, child, h / 2.0, pos, body);
            for k in 0..3 {
                acc[k] += a[k];
            }
        }
    }
    acc
}

/// Advance one per-processor body sublist: migrate to the bodies, cache
/// the tree.
fn advance_sublist<B: Backend>(ctx: &mut B, head: GPtr, root: GPtr) {
    let mut b = head;
    while !b.is_null() {
        let pos = [
            ctx.read_f64(b, B_X, MI),
            ctx.read_f64(b, B_X + 1, MI),
            ctx.read_f64(b, B_X + 2, MI),
        ];
        let acc = accel_on(ctx, root, 0.5, pos, b);
        for k in 0..3 {
            let v = ctx.read_f64(b, B_VX + k, MI) + DT * acc[k];
            ctx.write(b, B_VX + k, v, MI);
            ctx.write(b, B_X + k, pos[k] + DT * v, MI);
        }
        b = ctx.read_ptr(b, B_NEXT, MI);
    }
}

/// Whole-program run.
pub fn run<B: Backend>(ctx: &mut B, size: SizeClass) -> u64 {
    let n = bodies(size);
    let procs = ctx.nprocs();
    let init = initial(n);
    // Bodies blocked across processors on per-processor lists. The
    // initializing thread stays pinned on processor 0 and streams the
    // initial conditions out through the write-through cache; migrating
    // per body would drag the whole-program prologue (and with it the
    // sequential build phase) to an arbitrary processor.
    let mut body_ptrs = Vec::with_capacity(n);
    for (i, (pos, vel, mass)) in init.iter().enumerate() {
        let p = (i * procs / n) as ProcId;
        let b = ctx.alloc(p, BODY_WORDS);
        for k in 0..3 {
            ctx.write(b, B_X + k, pos[k], CA);
            ctx.write(b, B_VX + k, vel[k], CA);
        }
        ctx.write(b, B_MASS, *mass, CA);
        body_ptrs.push(b);
    }
    let mut heads = Vec::new();
    for i in 0..n {
        let next = if i + 1 < n && body_ptrs[i + 1].proc() == body_ptrs[i].proc() {
            body_ptrs[i + 1]
        } else {
            GPtr::NULL
        };
        ctx.write(body_ptrs[i], B_NEXT, next, CA);
        if i == 0 || body_ptrs[i].proc() != body_ptrs[i - 1].proc() {
            heads.push(body_ptrs[i]);
        }
    }

    for _ in 0..STEPS {
        // (1) sequential tree build on processor 0 (as in the paper).
        // Remote bodies are *cached* into the builder — migrating per
        // body would bounce the build thread between every body's
        // processor and processor 0 on each insert.
        let root = {
            let mut tb = TreeBuilder { ctx };
            let root = tb.new_cell(GPtr::new(0, 8));
            for &b in &body_ptrs {
                let pos = [
                    tb.ctx.read_f64(b, B_X, CA),
                    tb.ctx.read_f64(b, B_X + 1, CA),
                    tb.ctx.read_f64(b, B_X + 2, CA),
                ];
                let mass = tb.ctx.read_f64(b, B_MASS, CA);
                tb.insert(root, 0.5, 0.5, 0.5, 0.5, b, pos, mass);
            }
            // (2) centers of mass.
            tb.summarize(root);
            root
        };
        // (3)+(4) parallel force + advance, a future per body sublist.
        // Remote sublists are spawned first: processor 0's own sublist
        // runs inline and would otherwise delay every other fork.
        let handles: Vec<_> = heads
            .iter()
            .rev()
            .map(|&h| {
                ctx.future_call(move |ctx| ctx.call(move |ctx| advance_sublist(ctx, h, root)))
            })
            .collect();
        for h in handles {
            ctx.touch(h);
        }
    }

    // Checksum over final positions.
    let mut acc = 0u64;
    ctx.uncharged(|ctx| {
        for &b in &body_ptrs {
            for k in 0..3 {
                acc = mix2(acc, ctx.read(b, B_X + k, MI).as_u64());
            }
        }
    });
    acc
}

// ---------------------------------------------------------------------
// Serial reference (same algorithm on native structures).
// ---------------------------------------------------------------------

enum RCell {
    Leaf {
        idx: usize,
        pos: [f64; 3],
        mass: f64,
    },
    Cell {
        children: [Option<Box<RCell>>; 8],
        mass: f64,
        com: [f64; 3],
    },
}

#[allow(clippy::too_many_arguments)]
fn rinsert(
    cell: &mut RCell,
    cx: f64,
    cy: f64,
    cz: f64,
    h: f64,
    idx: usize,
    pos: [f64; 3],
    mass: f64,
) {
    let RCell::Cell { children, .. } = cell else {
        unreachable!("insert into leaf");
    };
    let o = octant(cx, cy, cz, pos);
    let (ncx, ncy, ncz) = child_center(cx, cy, cz, h, o);
    match &mut children[o] {
        slot @ None => {
            *slot = Some(Box::new(RCell::Leaf { idx, pos, mass }));
        }
        Some(child) => match child.as_mut() {
            RCell::Cell { .. } => {
                rinsert(child, ncx, ncy, ncz, h / 2.0, idx, pos, mass);
            }
            RCell::Leaf {
                idx: oidx,
                pos: opos,
                mass: omass,
            } => {
                let (oidx, opos, omass) = (*oidx, *opos, *omass);
                let mut fresh = RCell::Cell {
                    children: Default::default(),
                    mass: 0.0,
                    com: [0.0; 3],
                };
                rinsert(&mut fresh, ncx, ncy, ncz, h / 2.0, oidx, opos, omass);
                rinsert(&mut fresh, ncx, ncy, ncz, h / 2.0, idx, pos, mass);
                children[o] = Some(Box::new(fresh));
            }
        },
    }
}

fn rsummarize(cell: &mut RCell) -> (f64, [f64; 3]) {
    match cell {
        RCell::Leaf { pos, mass, .. } => (*mass, *pos),
        RCell::Cell {
            children,
            mass,
            com,
        } => {
            let mut m = 0.0;
            let mut wp = [0.0; 3];
            for c in children.iter_mut().flatten() {
                let (cm, cp) = rsummarize(c);
                m += cm;
                for k in 0..3 {
                    wp[k] += cm * cp[k];
                }
            }
            *mass = m;
            *com = [wp[0] / m, wp[1] / m, wp[2] / m];
            (m, *com)
        }
    }
}

fn raccel(cell: &RCell, h: f64, pos: [f64; 3], idx: usize) -> [f64; 3] {
    let (m, cpos, kind_leaf) = match cell {
        RCell::Leaf {
            idx: i,
            pos: p,
            mass,
        } => {
            if *i == idx {
                return [0.0; 3];
            }
            (*mass, *p, true)
        }
        RCell::Cell { mass, com, .. } => (*mass, *com, false),
    };
    let dx = cpos[0] - pos[0];
    let dy = cpos[1] - pos[1];
    let dz = cpos[2] - pos[2];
    let d2 = dx * dx + dy * dy + dz * dz + EPS2;
    let d = d2.sqrt();
    if kind_leaf || (2.0 * h) / d < THETA {
        let f = m / (d2 * d);
        return [f * dx, f * dy, f * dz];
    }
    let RCell::Cell { children, .. } = cell else {
        unreachable!()
    };
    let mut acc = [0.0; 3];
    for c in children.iter().flatten() {
        let a = raccel(c, h / 2.0, pos, idx);
        for k in 0..3 {
            acc[k] += a[k];
        }
    }
    acc
}

pub fn reference(size: SizeClass) -> u64 {
    let n = bodies(size);
    let init = initial(n);
    let mut pos: Vec<[f64; 3]> = init.iter().map(|b| b.0).collect();
    let mut vel: Vec<[f64; 3]> = init.iter().map(|b| b.1).collect();
    let mass: Vec<f64> = init.iter().map(|b| b.2).collect();
    for _ in 0..STEPS {
        let mut root = RCell::Cell {
            children: Default::default(),
            mass: 0.0,
            com: [0.0; 3],
        };
        for i in 0..n {
            rinsert(&mut root, 0.5, 0.5, 0.5, 0.5, i, pos[i], mass[i]);
        }
        rsummarize(&mut root);
        for i in 0..n {
            let acc = raccel(&root, 0.5, pos[i], i);
            for k in 0..3 {
                vel[i][k] += DT * acc[k];
                pos[i][k] += DT * vel[i][k];
            }
        }
    }
    let mut acc = 0u64;
    for p in &pos {
        for v in p {
            acc = mix2(acc, v.to_bits());
        }
    }
    acc
}

/// Optimizer-proven redundant check sites of `DSL` (see `Descriptor::elided_sites`).
pub const ELIDED_SITES: &[&str] = &["Walk 13:14 t->c1"];

/// Heuristic verdicts for every dereference site of `DSL` (see
/// `Descriptor::selected_mechanisms`).
pub const SELECTED_MECHANISMS: &[&str] = &[
    "Gravity 7:17 b->next -> migrate",
    "Walk 12:14 t->c0 -> cache",
    "Walk 13:14 t->c1 -> cache",
];

/// Principal traversal variables and the mechanisms the kernel
/// hard-codes for them (see `Descriptor::kernel_mechs`).
pub const KERNEL_MECHS: &[(&str, &str, Mechanism)] = &[
    ("Gravity", "b", Mechanism::Migrate),
    ("Walk", "t", Mechanism::Cache),
];

/// Static trip counts for the cost model: per step, the gravity pass
/// walks the body list once and each body's force walk visits O(n) tree
/// cells in the worst case.
pub fn trips(size: SizeClass, _procs: usize) -> Vec<(&'static str, u64)> {
    let n = bodies(size) as u64;
    let s = STEPS as u64;
    vec![("Gravity#0", s * n), ("Walk#0", s * n * n)]
}

pub const DESCRIPTOR: Descriptor = Descriptor {
    name: "Barnes-Hut",
    description: "Solves the N-body problem using hierarchical methods",
    problem_size: "8K bodies",
    choice: "M+C",
    whole_program: true,
    dsl: DSL,
    elided_sites: ELIDED_SITES,
    selected_mechanisms: SELECTED_MECHANISMS,
    kernel_mechs: KERNEL_MECHS,
    trips,
    bands: [(0.1, 1.5), (0.5, 2.0), (0.08, 1.0), (0.02, 1.5)],
    run,
    reference,
};

#[cfg(test)]
mod tests {
    use super::*;
    use olden_analysis::{parse, select, Mech};
    use olden_runtime::{run as run_sim, Config};

    #[test]
    fn positions_match_reference_bitwise() {
        for procs in [1, 2, 4] {
            let (v, _) = run_sim(Config::olden(procs), |ctx| run(ctx, SizeClass::Tiny));
            assert_eq!(v, reference(SizeClass::Tiny), "procs={procs}");
        }
    }

    #[test]
    fn heuristic_demotes_tree_walk_to_caching() {
        // The tree has high locality (95 % hints) but every parallel body
        // passes the same root: the bottleneck pass must force caching.
        let prog = parse(DSL).unwrap();
        let sel = select(&prog);
        let walk = sel.recursion_of("Walk").unwrap();
        assert!(walk.bottleneck, "pass 2 flags the shared root");
        assert_eq!(walk.mech("t"), Mech::Cache);
        // The body list itself migrates (parallelizable loop).
        let grav = &sel.for_func("Gravity")[0];
        assert_eq!(grav.mech("b"), Mech::Migrate);
    }

    #[test]
    fn tree_reads_are_heavily_remote() {
        let (_, rep) = run_sim(Config::olden(8), |ctx| run(ctx, SizeClass::Default));
        let pct = rep.cache.read_remote_pct();
        // Table 3: 55.6 % of cacheable reads are remote — the tree lives
        // on processor 0 while the walkers are everywhere. Expect a
        // clearly-majority remote share.
        assert!(pct > 40.0, "remote read share {pct}%");
    }

    #[test]
    fn energy_like_sanity() {
        // Bodies should not fly apart in two steps: positions remain
        // within a loose bounding box.
        let n = bodies(SizeClass::Tiny);
        let init = initial(n);
        let mut pos: Vec<[f64; 3]> = init.iter().map(|b| b.0).collect();
        let vel: Vec<[f64; 3]> = init.iter().map(|b| b.1).collect();
        let _ = (&mut pos, vel);
        for p in &pos {
            for v in p {
                assert!((0.0..=1.0).contains(v), "initial positions in cube");
            }
        }
    }
}
