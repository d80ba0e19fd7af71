//! **Power** — the Power System Optimization problem (Table 1: 10 000
//! customers), after Lumetta et al.'s decentralized optimal power pricing.
//!
//! The network is the reference hierarchy: a root feeds **10 feeders × 20
//! laterals × 5 branches × 10 customers** = 10 000 leaves. Each pricing
//! iteration sends the current price down the tree; every customer
//! computes its optimal demand (constant-elasticity `α/π` here — the
//! paper's exact customer model is immaterial to the communication
//! pattern); demands sum up the hierarchy with per-level line losses; the
//! root adjusts the price multiplicatively until demand meets capacity.
//!
//! Placement puts each lateral's whole subtree on one processor, laterals
//! spread evenly — large-granularity tasks, exactly the §2 layout advice.
//! The heuristic selects **migration only** (Table 2): the traversal has
//! high locality and futures at the feeder and lateral levels generate
//! the threads. The paper reports Power as a *whole-program* time, so the
//! build phase is charged (and parallelized the same way).

use crate::rng::mix2;
use crate::{Descriptor, SizeClass};
use olden_gptr::{GPtr, ProcId};
use olden_runtime::{Backend, Mechanism};

const M: Mechanism = Mechanism::Migrate;

/// List-node layout shared by feeders, laterals, and branches:
/// next-sibling pointer, first-child pointer. Customers use CHILD as
/// their α value instead.
pub const F_NEXT: usize = 0;
pub const F_CHILD: usize = 1;
const NODE_WORDS: usize = 2;

/// Cycles a customer's demand optimization costs. Calibrated from
/// Table 2's sequential time (286.59 s at 33 MHz for 10 000 customers
/// over the convergence sweeps ≈ a few thousand cycles per customer
/// optimization).
const W_CUSTOMER: u64 = 2500;
/// Cycles per interior node visit (loss application, accumulation).
const W_NODE: u64 = 100;

/// Per-level loss factor applied to aggregated demand.
const LOSS: f64 = 1.02;
/// Target capacity per customer (the root converges total demand to
/// `CAP_PER_CUSTOMER × customers`).
const CAP_PER_CUSTOMER: f64 = 1.1;
/// Relative convergence tolerance.
const TOL: f64 = 1e-6;

/// The kernel in the analysis DSL: a parallel walk of the feeder list
/// spawning lateral work — list traversal with futures, which the
/// heuristic migrates (parallelizable loop, §4.3).
pub const DSL: &str = r#"
    struct node { node *next @ 95; node *child @ 95; };
    int ComputeFeeder(node *f) {
        int total = 0;
        node *l = f->child;
        while (l != null) {
            int d = futurecall ComputeLateral(l);
            touch d;
            total = total + d;
            l = l->next;
        }
        return total;
    }
"#;

/// (feeders, laterals/feeder, branches/lateral, customers/branch).
pub fn shape(size: SizeClass) -> (usize, usize, usize, usize) {
    match size {
        SizeClass::Tiny => (2, 2, 2, 3),
        SizeClass::Default => (10, 10, 5, 10),
        SizeClass::Paper => (10, 20, 5, 10), // 10 000 customers
    }
}

fn alpha(feeder: usize, lateral: usize, branch: usize, cust: usize) -> f64 {
    let key = ((feeder * 64 + lateral) * 64 + branch) * 64 + cust;
    1.0 + (mix2(key as u64, 0x90E7) % 1000) as f64 / 1000.0
}

/// Build one lateral: the lateral's list node lives on the *feeder's*
/// processor (`fproc`) so the feeder can walk its lateral list locally
/// while spawning; the branch/customer subtree lives on the lateral's
/// own processor (`proc`) so the lateral future's first dereference
/// migrates there and forks.
fn build_lateral<B: Backend>(
    ctx: &mut B,
    fproc: ProcId,
    proc: ProcId,
    fi: usize,
    li: usize,
    branches: usize,
    customers: usize,
) -> GPtr {
    let lat = ctx.alloc(fproc, NODE_WORDS);
    let mut bhead = GPtr::NULL;
    for bi in (0..branches).rev() {
        let b = ctx.alloc(proc, NODE_WORDS);
        let mut chead = GPtr::NULL;
        for ci in (0..customers).rev() {
            let c = ctx.alloc(proc, NODE_WORDS);
            ctx.write(c, F_NEXT, chead, M);
            ctx.write(c, F_CHILD, alpha(fi, li, bi, ci), M);
            chead = c;
        }
        ctx.write(b, F_NEXT, bhead, M);
        ctx.write(b, F_CHILD, chead, M);
        bhead = b;
    }
    ctx.write(lat, F_CHILD, bhead, M);
    lat
}

/// Build the whole network; returns the feeder-list head.
///
/// Layout (the §2 "place related data together" discipline, applied so
/// every list is local to the thread that walks it):
/// * feeder list nodes live on processor 0, where the root's pricing
///   loop walks them without migrating;
/// * feeder `fi`'s lateral list nodes live on its region processor
///   `fi·P/nf`, so the feeder body's first lateral dereference migrates
///   there (forking the feeder future) and then walks locally;
/// * each lateral's branch/customer subtree is spread across all
///   processors, so lateral futures fork to wherever their subtree is.
fn build<B: Backend>(ctx: &mut B, size: SizeClass) -> GPtr {
    let (nf, nl, nb, nc) = shape(size);
    let p = ctx.nprocs();
    // Feeders are built in parallel: each future migrates to the feeder's
    // region processor and builds the lateral list there.
    let handles: Vec<_> = (0..nf)
        .map(|fi| {
            ctx.future_call(move |ctx| {
                ctx.call(move |ctx| {
                    let fproc = (fi * p / nf) as ProcId;
                    let mut lhead = GPtr::NULL;
                    for li in (0..nl).rev() {
                        // Round-robin subtrees: each feeder's laterals
                        // spread over the whole machine, so its futures
                        // fork instead of queueing inline.
                        let proc = ((fi * nl + li) % p) as ProcId;
                        let lat = build_lateral(ctx, fproc, proc, fi, li, nb, nc);
                        ctx.write(lat, F_NEXT, lhead, M);
                        lhead = lat;
                    }
                    lhead
                })
            })
        })
        .collect();
    let lheads: Vec<GPtr> = handles.into_iter().map(|h| ctx.touch(h)).collect();
    let mut fhead = GPtr::NULL;
    for &lhead in lheads.iter().rev() {
        let f = ctx.alloc(0, NODE_WORDS);
        ctx.write(f, F_NEXT, fhead, M);
        ctx.write(f, F_CHILD, lhead, M);
        fhead = f;
    }
    fhead
}

/// Demand of one lateral at the given price (walks branches, customers).
fn lateral_demand<B: Backend>(ctx: &mut B, lat: GPtr, price: f64) -> f64 {
    let mut total = 0.0;
    let mut b = ctx.read_ptr(lat, F_CHILD, M);
    while !b.is_null() {
        ctx.work(W_NODE);
        let mut bd = 0.0;
        let mut c = ctx.read_ptr(b, F_CHILD, M);
        while !c.is_null() {
            ctx.work(W_CUSTOMER);
            let a = ctx.read_f64(c, F_CHILD, M);
            bd += a / price;
            c = ctx.read_ptr(c, F_NEXT, M);
        }
        total += bd * LOSS;
        b = ctx.read_ptr(b, F_NEXT, M);
    }
    total * LOSS
}

/// Demand of one feeder: a future per lateral.
fn feeder_demand<B: Backend>(ctx: &mut B, feeder: GPtr, price: f64) -> f64 {
    let mut handles = Vec::new();
    let mut l = ctx.read_ptr(feeder, F_CHILD, M);
    while !l.is_null() {
        handles
            .push(ctx.future_call(move |ctx| ctx.call(move |ctx| lateral_demand(ctx, l, price))));
        l = ctx.read_ptr(l, F_NEXT, M);
    }
    let mut total = 0.0;
    for h in handles {
        total += ctx.touch(h);
    }
    ctx.work(W_NODE);
    total * LOSS
}

/// One root pricing sweep: futures over feeders.
fn total_demand<B: Backend>(ctx: &mut B, fhead: GPtr, price: f64) -> f64 {
    let mut handles = Vec::new();
    let mut f = fhead;
    while !f.is_null() {
        handles.push(ctx.future_call(move |ctx| ctx.call(move |ctx| feeder_demand(ctx, f, price))));
        f = ctx.read_ptr(f, F_NEXT, M);
    }
    let mut total = 0.0;
    for h in handles {
        total += ctx.touch(h);
    }
    total
}

/// Whole-program run (build charged): iterate the price to convergence;
/// the checksum mixes the converged price's bit pattern with the
/// iteration count.
pub fn run<B: Backend>(ctx: &mut B, size: SizeClass) -> u64 {
    let (nf, nl, nb, nc) = shape(size);
    let capacity = CAP_PER_CUSTOMER * (nf * nl * nb * nc) as f64;
    let fhead = build(ctx, size);
    let mut price = 0.05; // deliberately far from the optimum
    let mut iters = 0u32;
    loop {
        let demand = total_demand(ctx, fhead, price);
        iters += 1;
        if (demand - capacity).abs() / capacity < TOL || iters >= 200 {
            break;
        }
        price *= (demand / capacity).sqrt();
    }
    price.to_bits() ^ iters as u64
}

/// Serial reference mirroring the exact loop structure (and therefore the
/// exact floating-point evaluation order).
pub fn reference(size: SizeClass) -> u64 {
    let (nf, nl, nb, nc) = shape(size);
    let capacity = CAP_PER_CUSTOMER * (nf * nl * nb * nc) as f64;
    let demand_at = |price: f64| -> f64 {
        let mut total = 0.0;
        for fi in 0..nf {
            let mut fd = 0.0;
            for li in 0..nl {
                let mut ld = 0.0;
                for bi in 0..nb {
                    let mut bd = 0.0;
                    for ci in 0..nc {
                        bd += alpha(fi, li, bi, ci) / price;
                    }
                    ld += bd * LOSS;
                }
                fd += ld * LOSS;
            }
            total += fd * LOSS;
        }
        total
    };
    let mut price = 0.05;
    let mut iters = 0u32;
    loop {
        let demand = demand_at(price);
        iters += 1;
        if (demand - capacity).abs() / capacity < TOL || iters >= 200 {
            break;
        }
        price *= (demand / capacity).sqrt();
    }
    price.to_bits() ^ iters as u64
}

/// Optimizer-proven redundant check sites of `DSL` (see `Descriptor::elided_sites`).
pub const ELIDED_SITES: &[&str] = &[];

/// Heuristic verdicts for every dereference site of `DSL` (see
/// `Descriptor::selected_mechanisms`).
pub const SELECTED_MECHANISMS: &[&str] = &[
    "ComputeFeeder 5:19 f->child -> cache",
    "ComputeFeeder 10:17 l->next -> migrate",
];

/// Principal traversal variables and the mechanisms the kernel
/// hard-codes for them (see `Descriptor::kernel_mechs`).
pub const KERNEL_MECHS: &[(&str, &str, Mechanism)] = &[("ComputeFeeder", "l", Mechanism::Migrate)];

/// Static trip counts for the cost model: the DSL abstracts only the
/// feeder-level lateral walk; the full kernel recurses two levels
/// further (hence the wide `bands`).
pub fn trips(size: SizeClass, _procs: usize) -> Vec<(&'static str, u64)> {
    let (f, l, _, _) = shape(size);
    vec![("ComputeFeeder#0", (f * l) as u64)]
}

pub const DESCRIPTOR: Descriptor = Descriptor {
    name: "Power",
    description: "Solves the Power System Optimization problem",
    problem_size: "10,000 customers",
    choice: "M",
    whole_program: true,
    dsl: DSL,
    elided_sites: ELIDED_SITES,
    selected_mechanisms: SELECTED_MECHANISMS,
    kernel_mechs: KERNEL_MECHS,
    trips,
    bands: [(0.008, 0.8), (0.5, 2.0), (0.006, 0.6), (0.008, 0.8)],
    run,
    reference,
};

#[cfg(test)]
mod tests {
    use super::*;
    use olden_analysis::{parse, select, Mech};
    use olden_runtime::{run as run_sim, Config};

    #[test]
    fn converged_price_matches_reference_bitwise() {
        for procs in [1, 2, 4] {
            let (v, _) = run_sim(Config::olden(procs), |ctx| run(ctx, SizeClass::Tiny));
            assert_eq!(v, reference(SizeClass::Tiny), "procs={procs}");
        }
    }

    #[test]
    fn takes_multiple_sweeps_to_converge() {
        // The checksum xors the iteration count into the price bits; with
        // a start of 0.05 the multiplicative update needs several sweeps.
        let v = reference(SizeClass::Tiny);
        let one_sweep = {
            // What the checksum would be if it converged instantly.
            let (nf, nl, nb, nc) = shape(SizeClass::Tiny);
            let _ = (nf, nl, nb, nc);
            1u64
        };
        assert_ne!(v & 0xff, one_sweep, "must take more than one sweep");
    }

    #[test]
    fn heuristic_migrates_the_feeder_walk() {
        let prog = parse(DSL).unwrap();
        let sel = select(&prog);
        let c = &sel.for_func("ComputeFeeder")[0];
        assert!(c.cl.parallel);
        assert_eq!(c.mech("l"), Mech::Migrate);
    }

    #[test]
    fn speedup_scales() {
        let (_, seq) = run_sim(Config::sequential(), |ctx| run(ctx, SizeClass::Default));
        let (_, p8) = run_sim(Config::olden(8), |ctx| run(ctx, SizeClass::Default));
        let s = p8.speedup_vs(seq.makespan);
        assert!(s > 3.0, "8-processor Power speedup {s}");
        let (_, p1) = run_sim(Config::olden(1), |ctx| run(ctx, SizeClass::Default));
        let s1 = p1.speedup_vs(seq.makespan);
        assert!(s1 > 0.85, "Power's 1-proc overhead should be small: {s1}");
    }
}
