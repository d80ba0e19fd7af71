//! **Bisort** — adaptive bitonic sort in a binary tree (Table 1: 128 K
//! integers), after Bilardi and Nicolau.
//!
//! Values live in a perfect binary tree (plus one spare); `Bisort`
//! recursively sorts the two subtrees in opposite directions and
//! `Bimerge` merges the resulting bitonic sequence. The benchmark
//! performs two sorts — one forward, one backward — as in the paper.
//!
//! Where the textbook algorithm swaps subtree *pointers* on the merge
//! spine, the Olden version **swaps the subtrees' contents**: "swapping
//! the trees rather than pointers to the trees is expensive, but helps
//! maintain locality" (§5). The spine search uses a pair of pointers the
//! heuristic assigns to **software caching** (a tree search: averaged
//! affinity below threshold), while the recursive traversals and the
//! deep swaps use **migration** — Table 2's first M+C row.

use crate::rng::mix2;
use crate::{Descriptor, SizeClass};
use olden_gptr::{GPtr, ProcId};
use olden_runtime::{Backend, Check, Mechanism};

const MI: Mechanism = Mechanism::Migrate;
const CA: Mechanism = Mechanism::Cache;

/// Node layout.
const F_LEFT: usize = 0;
const F_RIGHT: usize = 1;
const F_VAL: usize = 2;
const NODE_WORDS: usize = 3;

/// Cycles per spine-step comparison and per recursion node.
const W_STEP: u64 = 30;

/// The merge spine in the analysis DSL: both branches update `pl`/`pr`
/// along different fields, so the join averages to the 70 % default —
/// below threshold, cached (§4.3 "tree searches will use caching"). The
/// `Bisort` recursion combines two calls to 0.91 ≥ 0.90 and migrates.
pub const DSL: &str = r#"
    struct tree { tree *left; tree *right; int value; };
    void SpineSearch(tree *pl, tree *pr, int dir) {
        while (pl != null) {
            if (cmp(pl, pr, dir)) {
                pl = pl->left;
                pr = pr->left;
            } else {
                pl = pl->right;
                pr = pr->right;
            }
        }
    }
    int Bisort(tree *root, int spr, int dir) {
        if (root == null) { return spr; }
        int v = futurecall Bisort(root->left, root->value, dir);
        touch v;
        int s = Bisort(root->right, spr, dir);
        return s;
    }
"#;

/// Tree levels (values = 2^levels including the spare).
pub fn levels(size: SizeClass) -> u32 {
    match size {
        SizeClass::Tiny => 5,     // 32 values
        SizeClass::Default => 11, // 2 048 values
        SizeClass::Paper => 17,   // 128 K values (Table 1)
    }
}

fn init_val(index: u64) -> i64 {
    (mix2(index, 0xB150) % 1_000_000) as i64
}

// ---------------------------------------------------------------------
// Plain-Rust model (the serial reference, and the oracle for tests).
// ---------------------------------------------------------------------

/// Reference tree node.
pub struct RNode {
    pub left: Option<Box<RNode>>,
    pub right: Option<Box<RNode>>,
    pub value: i64,
}

/// Build a perfect tree of `level` levels; values are assigned in-order
/// from `index`.
pub fn rbuild(level: u32, index: &mut u64) -> Option<Box<RNode>> {
    if level == 0 {
        return None;
    }
    let left = rbuild(level - 1, index);
    let value = init_val(*index);
    *index += 1;
    let right = rbuild(level - 1, index);
    Some(Box::new(RNode { left, right, value }))
}

fn rbimerge(t: &mut RNode, mut spr: i64, up: bool) -> i64 {
    let rightexchange = (t.value > spr) == up;
    if rightexchange {
        std::mem::swap(&mut t.value, &mut spr);
    }
    // Spine walk: find the crossover, swapping values and one pair of
    // subtrees at each exchanged node.
    {
        let (mut pl, mut pr) = (t.left.as_deref_mut(), t.right.as_deref_mut());
        while let (Some(l), Some(r)) = (pl, pr) {
            let elementexchange = (l.value > r.value) == up;
            if rightexchange {
                if elementexchange {
                    std::mem::swap(&mut l.value, &mut r.value);
                    std::mem::swap(&mut l.right, &mut r.right);
                    pl = l.left.as_deref_mut();
                    pr = r.left.as_deref_mut();
                } else {
                    pl = l.right.as_deref_mut();
                    pr = r.right.as_deref_mut();
                }
            } else if elementexchange {
                std::mem::swap(&mut l.value, &mut r.value);
                std::mem::swap(&mut l.left, &mut r.left);
                pl = l.right.as_deref_mut();
                pr = r.right.as_deref_mut();
            } else {
                pl = l.left.as_deref_mut();
                pr = r.left.as_deref_mut();
            }
        }
    }
    if let Some(left) = t.left.as_deref_mut() {
        t.value = rbimerge(left, t.value, up);
    }
    if let Some(right) = t.right.as_deref_mut() {
        spr = rbimerge(right, spr, up);
    }
    spr
}

/// Sort `inorder(t) ++ [spr]` ascending (`up`) or descending; returns the
/// new spare.
pub fn rbisort(t: &mut RNode, mut spr: i64, up: bool) -> i64 {
    if t.left.is_none() {
        if (t.value > spr) == up {
            std::mem::swap(&mut t.value, &mut spr);
        }
        spr
    } else {
        let v = t.value;
        t.value = rbisort(t.left.as_deref_mut().unwrap(), v, up);
        spr = rbisort(t.right.as_deref_mut().unwrap(), spr, !up);
        rbimerge(t, spr, up)
    }
}

fn rinorder(t: &RNode, out: &mut Vec<i64>) {
    if let Some(l) = &t.left {
        rinorder(l, out);
    }
    out.push(t.value);
    if let Some(r) = &t.right {
        rinorder(r, out);
    }
}

/// Serial reference: forward sort then backward sort; checksum over both
/// resulting sequences.
pub fn reference(size: SizeClass) -> u64 {
    let mut index = 0u64;
    let mut t = rbuild(levels(size), &mut index).expect("nonempty");
    let spare = init_val(index);
    let mut acc = 0u64;
    let s1 = rbisort(&mut t, spare, true);
    let mut seq = Vec::new();
    rinorder(&t, &mut seq);
    seq.push(s1);
    for v in &seq {
        acc = mix2(acc, *v as u64);
    }
    let s2 = rbisort(&mut t, s1, false);
    let mut seq = Vec::new();
    rinorder(&t, &mut seq);
    seq.push(s2);
    for v in &seq {
        acc = mix2(acc, *v as u64);
    }
    acc
}

// ---------------------------------------------------------------------
// Distributed version.
// ---------------------------------------------------------------------

/// Build the tree with subtrees distributed at a fixed depth (left child
/// takes the far half of the processor range so its future forks).
fn build<B: Backend>(ctx: &mut B, level: u32, index: &mut u64, lo: usize, hi: usize) -> GPtr {
    if level == 0 {
        return GPtr::NULL;
    }
    let t = ctx.alloc(lo as ProcId, NODE_WORDS);
    let mid = usize::midpoint(lo, hi);
    let (l_lo, l_hi, r_lo, r_hi) = if hi - lo <= 1 {
        (lo, hi, lo, hi)
    } else {
        (mid, hi, lo, mid)
    };
    let left = build(ctx, level - 1, index, l_lo, l_hi);
    ctx.write(t, F_VAL, init_val(*index), MI);
    *index += 1;
    let right = build(ctx, level - 1, index, r_lo, r_hi);
    ctx.write(t, F_LEFT, left, MI);
    ctx.write(t, F_RIGHT, right, MI);
    t
}

/// Deep swap of two isomorphic subtrees' values — the Olden locality
/// trick standing in for a pointer swap. Each subtree is walked whole
/// before touching the other, so the thread migrates a constant number
/// of times per swap: "a large amount of data is touched on each
/// processor between migrations" (§5). An interleaved node-by-node swap
/// would ping-pong between the subtrees' processors on every pair.
fn swap_trees<B: Backend>(ctx: &mut B, a: GPtr, b: GPtr) {
    if a.is_null() || b.is_null() {
        debug_assert!(a.is_null() && b.is_null(), "isomorphic shapes");
        return;
    }
    let mut av = Vec::new();
    ctx.call(|ctx| collect_preorder(ctx, a, &mut av));
    let mut bv = Vec::new();
    ctx.call(|ctx| collect_preorder(ctx, b, &mut bv));
    let mut it = bv.into_iter();
    ctx.call(|ctx| write_preorder(ctx, a, &mut it));
    let mut it = av.into_iter();
    ctx.call(|ctx| write_preorder(ctx, b, &mut it));
}

fn collect_preorder<B: Backend>(ctx: &mut B, t: GPtr, out: &mut Vec<i64>) {
    if t.is_null() {
        return;
    }
    ctx.work(W_STEP);
    out.push(ctx.read_i64(t, F_VAL, MI));
    let l = ctx.read_ptr(t, F_LEFT, MI);
    collect_preorder(ctx, l, out);
    let r = ctx.read_ptr(t, F_RIGHT, MI);
    collect_preorder(ctx, r, out);
}

fn write_preorder<B: Backend>(ctx: &mut B, t: GPtr, vals: &mut impl Iterator<Item = i64>) {
    if t.is_null() {
        return;
    }
    ctx.work(W_STEP);
    ctx.write(t, F_VAL, vals.next().expect("isomorphic shapes"), MI);
    let l = ctx.read_ptr(t, F_LEFT, MI);
    write_preorder(ctx, l, vals);
    let r = ctx.read_ptr(t, F_RIGHT, MI);
    write_preorder(ctx, r, vals);
}

fn bimerge<B: Backend>(ctx: &mut B, t: GPtr, mut spr: i64, up: bool) -> i64 {
    ctx.work(W_STEP);
    let tv = ctx.read_i64(t, F_VAL, MI);
    let rightexchange = (tv > spr) == up;
    if rightexchange {
        ctx.write(t, F_VAL, spr, MI);
        spr = tv;
    }
    // Spine search: pl/pr dereferences are cached (§5); the deep subtree
    // swaps migrate.
    let mut pl = ctx.read_ptr(t, F_LEFT, MI);
    let mut pr = ctx.read_ptr(t, F_RIGHT, MI);
    while !pl.is_null() {
        ctx.work(W_STEP);
        let lv = ctx.read_i64(pl, F_VAL, CA);
        let rv = ctx.read_i64(pr, F_VAL, CA);
        let elementexchange = (lv > rv) == up;
        if rightexchange {
            if elementexchange {
                ctx.write(pl, F_VAL, rv, CA);
                ctx.write(pr, F_VAL, lv, CA);
                let a = ctx.read_ptr(pl, F_RIGHT, CA);
                let b = ctx.read_ptr(pr, F_RIGHT, CA);
                ctx.call(|ctx| swap_trees(ctx, a, b));
                pl = ctx.read_ptr(pl, F_LEFT, CA);
                pr = ctx.read_ptr(pr, F_LEFT, CA);
            } else {
                pl = ctx.read_ptr(pl, F_RIGHT, CA);
                pr = ctx.read_ptr(pr, F_RIGHT, CA);
            }
        } else if elementexchange {
            ctx.write(pl, F_VAL, rv, CA);
            ctx.write(pr, F_VAL, lv, CA);
            let a = ctx.read_ptr(pl, F_LEFT, CA);
            let b = ctx.read_ptr(pr, F_LEFT, CA);
            ctx.call(|ctx| swap_trees(ctx, a, b));
            pl = ctx.read_ptr(pl, F_RIGHT, CA);
            pr = ctx.read_ptr(pr, F_RIGHT, CA);
        } else {
            pl = ctx.read_ptr(pl, F_LEFT, CA);
            pr = ctx.read_ptr(pr, F_LEFT, CA);
        }
    }
    let left = ctx.read_ptr(t, F_LEFT, MI);
    if !left.is_null() {
        let tv = ctx.read_i64(t, F_VAL, MI);
        let h = ctx.future_call(move |ctx| ctx.call(move |ctx| bimerge(ctx, left, tv, up)));
        let right = ctx.read_ptr(t, F_RIGHT, MI);
        let s = ctx.call(|ctx| bimerge(ctx, right, spr, up));
        let new_tv = ctx.touch(h);
        ctx.write(t, F_VAL, new_tv, MI);
        spr = s;
    }
    spr
}

fn bisort<B: Backend>(ctx: &mut B, t: GPtr, mut spr: i64, up: bool) -> i64 {
    ctx.work(W_STEP);
    let left = ctx.read_ptr(t, F_LEFT, MI);
    if left.is_null() {
        let tv = ctx.read_i64(t, F_VAL, MI);
        if (tv > spr) == up {
            ctx.write(t, F_VAL, spr, MI);
            return tv;
        }
        return spr;
    }
    // The left read above performed the check of `t`; the value and right
    // checks are proven redundant (`ELIDED_SITES`) — the future spawn does
    // not move the logical thread off `t`'s processor.
    let tv = ctx.read_i64_checked(t, F_VAL, MI, Check::Elide);
    let h = ctx.future_call(move |ctx| ctx.call(move |ctx| bisort(ctx, left, tv, up)));
    let right = ctx.read_ptr_checked(t, F_RIGHT, MI, Check::Elide);
    spr = ctx.call(|ctx| bisort(ctx, right, spr, !up));
    let new_tv = ctx.touch(h);
    ctx.write(t, F_VAL, new_tv, MI);
    ctx.call(|ctx| bimerge(ctx, t, spr, up))
}

fn collect_inorder<B: Backend>(ctx: &mut B, t: GPtr, out: &mut Vec<i64>) {
    if t.is_null() {
        return;
    }
    let l = ctx.read_ptr(t, F_LEFT, MI);
    collect_inorder(ctx, l, out);
    out.push(ctx.read_i64(t, F_VAL, MI));
    let r = ctx.read_ptr(t, F_RIGHT, MI);
    collect_inorder(ctx, r, out);
}

/// Kernel: forward sort, then backward sort (build uncharged).
pub fn run<B: Backend>(ctx: &mut B, size: SizeClass) -> u64 {
    let n = ctx.nprocs();
    let mut index = 0u64;
    let root = ctx.uncharged(|ctx| build(ctx, levels(size), &mut index, 0, n));
    let spare = init_val(index);
    let mut acc = 0u64;
    let s1 = ctx.call(|ctx| bisort(ctx, root, spare, true));
    ctx.uncharged(|ctx| {
        let mut vals = Vec::new();
        collect_inorder(ctx, root, &mut vals);
        vals.push(s1);
        for v in vals {
            acc = mix2(acc, v as u64);
        }
    });
    let s2 = ctx.call(|ctx| bisort(ctx, root, s1, false));
    ctx.uncharged(|ctx| {
        let mut vals = Vec::new();
        collect_inorder(ctx, root, &mut vals);
        vals.push(s2);
        for v in vals {
            acc = mix2(acc, v as u64);
        }
    });
    acc
}

/// Optimizer-proven redundant check sites of `DSL` (see `Descriptor::elided_sites`).
pub const ELIDED_SITES: &[&str] = &["Bisort 16:47 root->value", "Bisort 18:24 root->right"];

/// Heuristic verdicts for every dereference site of `DSL` (see
/// `Descriptor::selected_mechanisms`).
pub const SELECTED_MECHANISMS: &[&str] = &[
    "SpineSearch 6:22 pl->left -> cache",
    "SpineSearch 7:22 pr->left -> cache",
    "SpineSearch 9:22 pl->right -> cache",
    "SpineSearch 10:22 pr->right -> cache",
    "Bisort 16:35 root->left -> migrate",
    "Bisort 16:47 root->value -> migrate",
    "Bisort 18:24 root->right -> migrate",
];

/// Principal traversal variables and the mechanisms the kernel
/// hard-codes for them (see `Descriptor::kernel_mechs`).
pub const KERNEL_MECHS: &[(&str, &str, Mechanism)] = &[
    ("Bisort", "root", Mechanism::Migrate),
    ("SpineSearch", "pl", Mechanism::Cache),
    ("SpineSearch", "pr", Mechanism::Cache),
];

/// Static trip counts for the cost model: the spine comparison visits
/// each level of each subtree (~`2^L * L`) and the merge recursion
/// touches every node of the tree (~`2 * (2^L - 1)` calls).
pub fn trips(size: SizeClass, _procs: usize) -> Vec<(&'static str, u64)> {
    let l = levels(size) as u64;
    vec![
        ("SpineSearch#0", (1u64 << l) * l),
        ("Bisort#0", 2 * ((1u64 << l) - 1)),
    ]
}

pub const DESCRIPTOR: Descriptor = Descriptor {
    name: "Bisort",
    description: "Sort by creating two disjoint bitonic sequences and then merging them",
    problem_size: "128K integers",
    choice: "M+C",
    whole_program: false,
    dsl: DSL,
    elided_sites: ELIDED_SITES,
    selected_mechanisms: SELECTED_MECHANISMS,
    kernel_mechs: KERNEL_MECHS,
    trips,
    bands: [(0.08, 1.0), (0.5, 2.5), (0.1, 1.0), (0.2, 1.2)],
    run,
    reference,
};

#[cfg(test)]
mod tests {
    use super::*;
    use olden_analysis::{parse, select, Mech};
    use olden_runtime::{run as run_sim, Config};

    /// The reference model must actually sort — the oracle for everything
    /// else.
    #[test]
    fn reference_model_sorts() {
        for levels in 1..=7u32 {
            let mut index = 0u64;
            let mut t = rbuild(levels, &mut index).unwrap();
            let spare = init_val(index);
            let s = rbisort(&mut t, spare, true);
            let mut seq = Vec::new();
            rinorder(&t, &mut seq);
            seq.push(s);
            let mut sorted = seq.clone();
            sorted.sort_unstable();
            assert_eq!(seq, sorted, "ascending, {levels} levels");
            // And backward.
            let s = rbisort(&mut t, s, false);
            let mut seq = Vec::new();
            rinorder(&t, &mut seq);
            seq.push(s);
            let mut sorted = seq.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(seq, sorted, "descending, {levels} levels");
        }
    }

    #[test]
    fn distributed_matches_reference() {
        for procs in [1, 2, 4] {
            let (v, _) = run_sim(Config::olden(procs), |ctx| run(ctx, SizeClass::Tiny));
            assert_eq!(v, reference(SizeClass::Tiny), "procs={procs}");
        }
    }

    #[test]
    fn heuristic_migrates_recursion_caches_spine() {
        let prog = parse(DSL).unwrap();
        let sel = select(&prog);
        let rec = sel.recursion_of("Bisort").unwrap();
        assert_eq!(rec.migration_var(), Some("root"));
        let spine = &sel.for_func("SpineSearch")[0];
        assert_eq!(spine.mech("pl"), Mech::Cache, "tree search caches");
        assert_eq!(spine.mech("pr"), Mech::Cache);
    }

    #[test]
    fn uses_both_mechanisms() {
        let (_, rep) = run_sim(Config::olden(4), |ctx| run(ctx, SizeClass::Tiny));
        assert!(rep.stats.migrations > 0, "migration used");
        assert!(
            rep.cache.cacheable_reads > 0 && rep.cache.cacheable_writes > 0,
            "caching used for spine reads and writes (Table 3 row 1)"
        );
    }
}
