//! **TreeAdd** — adds the values in a binary tree (Table 1: 1024 K nodes).
//!
//! The simplest Olden benchmark and the paper's running example
//! (Figure 4). The tree is built with subtrees distributed equally across
//! the processors at a fixed depth (§2's layout example); the kernel is
//! the recursive sum with a `futurecall` on the left child. The heuristic
//! selects **migration only** (Table 2 row 1): the recursion's update
//! affinity is `1 − (1−a_left)(1−a_right)` ≥ the 90 % threshold, and the
//! recursion is parallelizable, so dereferences of `t` migrate.

use crate::rng::mix2;
use crate::{Descriptor, SizeClass};
use olden_gptr::{GPtr, ProcId};
use olden_runtime::{Backend, Check, Mechanism};

/// Field offsets of a tree node (3 words).
pub const F_LEFT: usize = 0;
pub const F_RIGHT: usize = 1;
pub const F_VAL: usize = 2;
const NODE_WORDS: usize = 3;

/// Cycles of local computation per visited node (chosen so the
/// one-processor Olden/sequential ratio lands near Table 2's 0.73; the
/// paper's sequential TreeAdd runs ≈ 148 cycles/node on a 33 MHz SPARC).
const W_NODE: u64 = 70;

/// The kernel's shape in the analysis DSL (Figure 4 verbatim plus the
/// future annotation the real benchmark carries).
pub const DSL: &str = r#"
    struct tree { tree *left; tree *right; int val; };
    int TreeAdd(tree *t) {
        if (t == null) { return 0; }
        else {
            int lv = futurecall TreeAdd(t->left);
            int rv = TreeAdd(t->right);
            touch lv;
            return lv + rv + t->val;
        }
    }
"#;

/// Tree depth for each size class (2^depth − 1 nodes).
pub fn levels(size: SizeClass) -> u32 {
    match size {
        SizeClass::Tiny => 6,
        SizeClass::Default => 16,
        SizeClass::Paper => 20, // 1 M nodes
    }
}

/// Deterministic per-node value (index-mixed so ordering bugs cannot
/// cancel out the checksum).
fn node_val(index: u64) -> i64 {
    (mix2(index, 0xADD) % 1000) as i64
}

/// Build a tree of `level` levels, distributing subtrees over the
/// processor range `[lo, hi)`: the range splits between the children
/// until it is a single processor, which then owns the whole subtree —
/// the §2 layout that yields one large-granularity task per subtree.
fn build<B: Backend>(ctx: &mut B, level: u32, index: u64, lo: usize, hi: usize) -> GPtr {
    if level == 0 {
        return GPtr::NULL;
    }
    let t = ctx.alloc(lo as ProcId, NODE_WORDS);
    let mid = usize::midpoint(lo, hi);
    // The *left* child takes the far half of the processor range: the
    // kernel's futurecall is on the left child, so placing it remotely is
    // what makes the future migrate and fork while the parent's processor
    // keeps the (local) right half — the layout an Olden programmer
    // writes to get one large-granularity task per subtree (§2).
    let (l_lo, l_hi, r_lo, r_hi) = if hi - lo <= 1 {
        (lo, hi, lo, hi)
    } else {
        (mid, hi, lo, mid)
    };
    let left = build(ctx, level - 1, 2 * index, l_lo, l_hi);
    let right = build(ctx, level - 1, 2 * index + 1, r_lo, r_hi);
    ctx.write(t, F_LEFT, left, Mechanism::Migrate);
    ctx.write(t, F_RIGHT, right, Mechanism::Migrate);
    ctx.write(t, F_VAL, node_val(index), Mechanism::Migrate);
    t
}

/// The recursive kernel. Every dereference of `t` migrates, per the
/// heuristic. The `t->left` read is the first check of `t` on the path;
/// the optimizer proves the `t->right` and `t->val` checks redundant
/// (`ELIDED_SITES`): the logical thread is back on `t`'s processor after
/// the future spawn and the call, so `t` is still local.
fn tree_add<B: Backend>(ctx: &mut B, t: GPtr) -> i64 {
    if t.is_null() {
        return 0;
    }
    ctx.work(W_NODE);
    let left = ctx.read_ptr(t, F_LEFT, Mechanism::Migrate);
    let h = ctx.future_call(move |ctx| ctx.call(move |ctx| tree_add(ctx, left)));
    let right = ctx.read_ptr_checked(t, F_RIGHT, Mechanism::Migrate, Check::Elide);
    let rv = ctx.call(|ctx| tree_add(ctx, right));
    let v = ctx.read_i64_checked(t, F_VAL, Mechanism::Migrate, Check::Elide);
    let lv = ctx.touch(h);
    lv + rv + v
}

/// Build (uncharged — Table 2 reports TreeAdd as a kernel time) and sum.
pub fn run<B: Backend>(ctx: &mut B, size: SizeClass) -> u64 {
    let n = ctx.nprocs();
    let root = ctx.uncharged(|ctx| build(ctx, levels(size), 1, 0, n));
    ctx.call(|ctx| tree_add(ctx, root)) as u64
}

/// Serial reference: the same values, summed without any runtime.
pub fn reference(size: SizeClass) -> u64 {
    fn sum(level: u32, index: u64) -> i64 {
        if level == 0 {
            0
        } else {
            node_val(index) + sum(level - 1, 2 * index) + sum(level - 1, 2 * index + 1)
        }
    }
    sum(levels(size), 1) as u64
}

/// Optimizer-proven redundant check sites of `DSL` (see `Descriptor::elided_sites`).
pub const ELIDED_SITES: &[&str] = &["TreeAdd 7:30 t->right", "TreeAdd 9:30 t->val"];

/// Heuristic verdicts for every dereference site of `DSL` (see
/// `Descriptor::selected_mechanisms`).
pub const SELECTED_MECHANISMS: &[&str] = &[
    "TreeAdd 6:41 t->left -> migrate",
    "TreeAdd 7:30 t->right -> migrate",
    "TreeAdd 9:30 t->val -> migrate",
];

/// Principal traversal variables and the mechanisms the kernel
/// hard-codes for them (see `Descriptor::kernel_mechs`).
pub const KERNEL_MECHS: &[(&str, &str, Mechanism)] = &[("TreeAdd", "t", Mechanism::Migrate)];

/// Static trip counts for the cost model: the recursion touches every
/// tree node once.
pub fn trips(size: SizeClass, _procs: usize) -> Vec<(&'static str, u64)> {
    vec![("TreeAdd#0", (1u64 << levels(size)) - 1)]
}

pub const DESCRIPTOR: Descriptor = Descriptor {
    name: "TreeAdd",
    description: "Adds the values in a tree",
    problem_size: "1024K nodes",
    choice: "M",
    whole_program: false,
    dsl: DSL,
    elided_sites: ELIDED_SITES,
    selected_mechanisms: SELECTED_MECHANISMS,
    kernel_mechs: KERNEL_MECHS,
    trips,
    bands: [(1.2, 5.0), (0.5, 2.0), (1.2, 5.0), (1.2, 5.0)],
    run,
    reference,
};

#[cfg(test)]
mod tests {
    use super::*;
    use olden_analysis::{parse, select, Mech};
    use olden_runtime::{run as run_sim, Config};

    #[test]
    fn values_match_reference_across_procs() {
        for procs in [1, 2, 4, 8] {
            let (sum, _) = run_sim(Config::olden(procs), |ctx| run(ctx, SizeClass::Tiny));
            assert_eq!(sum, reference(SizeClass::Tiny), "procs={procs}");
        }
    }

    #[test]
    fn sequential_baseline_matches_too() {
        let (sum, rep) = run_sim(Config::sequential(), |ctx| run(ctx, SizeClass::Tiny));
        assert_eq!(sum, reference(SizeClass::Tiny));
        assert_eq!(rep.stats.migrations, 0, "one processor: all local");
    }

    #[test]
    fn heuristic_selects_migration_for_t() {
        let prog = parse(DSL).unwrap();
        let sel = select(&prog);
        let rec = sel.recursion_of("TreeAdd").unwrap();
        assert_eq!(rec.migration_var(), Some("t"));
        assert!(rec.cl.parallel);
        // Default affinities: 1 − 0.3² = 0.91.
        assert!((rec.affinity.unwrap() - 0.91).abs() < 1e-12);
        assert_eq!(sel.mech("TreeAdd", "t"), Mech::Migrate);
    }

    #[test]
    fn migrations_scale_with_processor_boundaries_not_nodes() {
        let (_, rep) = run_sim(Config::olden(8), |ctx| run(ctx, SizeClass::Tiny));
        // 2^6−1 = 63 nodes; subtree distribution means only the top of the
        // tree crosses processors.
        assert!(rep.stats.migrations >= 7, "at least one per processor");
        assert!(
            rep.stats.migrations <= 20,
            "far fewer migrations ({}) than nodes (63)",
            rep.stats.migrations
        );
    }

    #[test]
    fn parallel_speedup_is_real() {
        let (_, seq) = run_sim(Config::sequential(), |ctx| run(ctx, SizeClass::Default));
        let (_, p8) = run_sim(Config::olden(8), |ctx| run(ctx, SizeClass::Default));
        let s = p8.speedup_vs(seq.makespan);
        assert!(s > 4.0, "8-processor speedup {s}");
        let (_, p1) = run_sim(Config::olden(1), |ctx| run(ctx, SizeClass::Default));
        let s1 = p1.speedup_vs(seq.makespan);
        assert!((0.6..0.9).contains(&s1), "1-proc overhead ratio {s1}");
    }
}
