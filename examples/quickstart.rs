//! Quickstart: build a distributed tree, sum it with futures and
//! migration, and watch the Table-2 machinery produce a speedup curve.
//!
//! Run with: `cargo run --release --example quickstart`

use olden_core::prelude::*;

/// Tree node fields.
const LEFT: usize = 0;
const RIGHT: usize = 1;
const VAL: usize = 2;

/// Build a tree whose subtrees are distributed across the processor
/// range, the layout advice of the paper's §2.
fn build(ctx: &mut OldenCtx, depth: u32, lo: usize, hi: usize) -> GPtr {
    if depth == 0 {
        return GPtr::NULL;
    }
    let t = ctx.alloc(lo as ProcId, 3);
    let mid = usize::midpoint(lo, hi);
    let (llo, lhi, rlo, rhi) = if hi - lo <= 1 {
        (lo, hi, lo, hi)
    } else {
        (mid, hi, lo, mid) // left child remote: its future forks
    };
    let l = build(ctx, depth - 1, llo, lhi);
    let r = build(ctx, depth - 1, rlo, rhi);
    ctx.write(t, LEFT, l, Mechanism::Migrate);
    ctx.write(t, RIGHT, r, Mechanism::Migrate);
    ctx.write(t, VAL, 1i64, Mechanism::Migrate);
    t
}

/// The paper's Figure-4 kernel: futurecall on the left child, recursion
/// on the right, dereferences of `t` migrating (the heuristic's choice).
fn tree_add(ctx: &mut OldenCtx, t: GPtr) -> i64 {
    if t.is_null() {
        return 0;
    }
    ctx.work(70);
    let left = ctx.read_ptr(t, LEFT, Mechanism::Migrate);
    let h = ctx.future_call(move |ctx| ctx.call(move |ctx| tree_add(ctx, left)));
    let right = ctx.read_ptr(t, RIGHT, Mechanism::Migrate);
    let rv = ctx.call(|ctx| tree_add(ctx, right));
    let v = ctx.read_i64(t, VAL, Mechanism::Migrate);
    ctx.touch(h) + rv + v
}

fn main() {
    const DEPTH: u32 = 14; // 16 383 nodes

    let program = |ctx: &mut OldenCtx| {
        let n = ctx.nprocs();
        let root = ctx.uncharged(|ctx| build(ctx, DEPTH, 0, n));
        ctx.call(|ctx| tree_add(ctx, root))
    };

    // Verify the value once.
    let (sum, _) = run(Config::olden(4), program);
    assert_eq!(sum, (1 << DEPTH) - 1);
    println!("TreeAdd of {} nodes = {}", (1 << DEPTH) - 1, sum);

    // Speedups against the no-overhead sequential baseline (paper §5).
    println!("\n{:>6} {:>9}", "procs", "speedup");
    for (p, s) in speedup_curve(
        |ctx| {
            program(ctx);
        },
        &[1, 2, 4, 8, 16, 32],
        Config::olden,
    ) {
        println!("{p:>6} {s:>9.2}");
    }
}
