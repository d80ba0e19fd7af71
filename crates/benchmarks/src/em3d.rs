//! **EM3D** — electromagnetic-wave propagation in a 3D object (Table 1:
//! 2 K nodes), after Culler et al.'s Split-C application.
//!
//! The object is a bipartite graph of E nodes and H nodes. At each time
//! step every E node's value is recomputed as a weighted difference of
//! its H-node neighbours' values, then symmetrically for H nodes. Nodes
//! live on per-processor linked lists (blocked layout → the list walk has
//! high locality); a fraction of each node's neighbours live on other
//! processors (low locality).
//!
//! The heuristic chooses **migration for the node lists and software
//! caching for the edges** (§5) — and Table 2's starkest result is the
//! migrate-only column: 0.05 at 32 processors, because migrating on every
//! remote neighbour read ping-pongs the thread across the machine.

use crate::rng::{mix2, SplitMix64};
use crate::{Descriptor, SizeClass};
use olden_gptr::{GPtr, ProcId};
use olden_runtime::{Backend, Check, Mechanism};

/// Node layout: list link, value, then `DEGREE` (neighbour ptr, weight)
/// pairs.
pub const F_NEXT: usize = 0;
pub const F_VAL: usize = 1;
const F_NBR0: usize = 2;
pub const DEGREE: usize = 10;
const NODE_WORDS: usize = F_NBR0 + 2 * DEGREE;

/// Fraction of neighbour edges that cross processors (Table 3 reports
/// 19.4 % of EM3D's cacheable reads as remote).
const REMOTE_FRAC: f64 = 0.20;

/// Cycles per node update beyond the dereferences (the weighted-sum
/// arithmetic over `DEGREE` neighbours).
const W_NODE: u64 = 150;

/// Time steps simulated.
const STEPS: usize = 4;

/// Kernel DSL: the node-list walk reading neighbour values. The list
/// update (`n = n->next`, 95 % blocked affinity) migrates; the neighbour
/// pointer `h` is not an induction variable and caches.
pub const DSL: &str = r#"
    struct enode { enode *next @ 95; hnode *nbr; int val; };
    struct hnode { hnode *next @ 95; int val; };
    void ComputeE(enode *n) {
        while (n != null) {
            hnode *h = n->nbr;
            n->val = n->val - h->val;
            n = n->next;
        }
    }
"#;

/// Nodes per side (E and H each) for a size class.
pub fn nodes(size: SizeClass) -> usize {
    match size {
        SizeClass::Tiny => 64,
        SizeClass::Default => 1024, // divisible by VREGIONS: regions align with processors
        SizeClass::Paper => 2048,
    }
}

fn init_val(side: usize, i: usize) -> f64 {
    1.0 + (mix2(i as u64, side as u64 ^ 0xE3D) % 4096) as f64 / 4096.0
}

fn weight(side: usize, i: usize, k: usize) -> f64 {
    ((mix2((i * DEGREE + k) as u64, side as u64 ^ 0x3E3D) % 2048) as f64 / 2048.0) * 0.1
}

/// Virtual locality regions for topology generation. Fixed (independent
/// of the machine size) so the same graph is simulated at every
/// processor count — matching the paper's methodology of one input graph
/// per problem size.
const VREGIONS: usize = 32;

/// Deterministic neighbour index for edge `k` of node `i`: mostly within
/// the node's own virtual region, `REMOTE_FRAC` of the time anywhere.
fn neighbour_index(rng_val: u64, i: usize, n: usize) -> usize {
    let block = n / VREGIONS;
    let r = SplitMix64::new(rng_val).unit_f64();
    let mut rng = SplitMix64::new(rng_val ^ 0x5eed);
    let region = (i / block.max(1)).min(VREGIONS - 1);
    if block == 0 {
        return rng.below(n as u64) as usize;
    }
    if r < REMOTE_FRAC {
        // Remote edges go to the spatially adjacent region (the graph is
        // a 3-D mesh slice): heavy line reuse keeps the miss rate low,
        // as in Table 3 (6.18 % of EM3D's remote references miss).
        let other = (region + 1) % VREGIONS;
        other * block + rng.below(block as u64) as usize
    } else {
        region * block + rng.below(block as u64) as usize
    }
}

struct Graph {
    e_heads: Vec<GPtr>,
    h_heads: Vec<GPtr>,
}

/// Build both node sets, blocked across processors, with per-processor
/// list chains (uncharged — EM3D is a kernel-time benchmark).
fn build<B: Backend>(ctx: &mut B, n: usize) -> Graph {
    let procs = ctx.nprocs();
    ctx.uncharged(|ctx| {
        let alloc_side = |ctx: &mut B, side: usize| -> Vec<GPtr> {
            (0..n)
                .map(|i| {
                    let proc = (i * procs / n) as ProcId;
                    let nd = ctx.alloc(proc, NODE_WORDS);
                    ctx.write(nd, F_VAL, init_val(side, i), Mechanism::Migrate);
                    nd
                })
                .collect()
        };
        let e_nodes = alloc_side(ctx, 0);
        let h_nodes = alloc_side(ctx, 1);
        let link = |ctx: &mut B, nodes: &[GPtr], side: usize, others: &[GPtr]| {
            for i in 0..n {
                let next = if i + 1 < n && nodes[i + 1].proc() == nodes[i].proc() {
                    nodes[i + 1]
                } else {
                    GPtr::NULL
                };
                ctx.write(nodes[i], F_NEXT, next, Mechanism::Migrate);
                for k in 0..DEGREE {
                    let key = mix2((side * n + i) as u64, k as u64);
                    let j = neighbour_index(key, i, n);
                    ctx.write(nodes[i], F_NBR0 + 2 * k, others[j], Mechanism::Migrate);
                    ctx.write(
                        nodes[i],
                        F_NBR0 + 2 * k + 1,
                        weight(side, i, k),
                        Mechanism::Migrate,
                    );
                }
            }
        };
        link(ctx, &e_nodes, 0, &h_nodes);
        link(ctx, &h_nodes, 1, &e_nodes);
        let heads = |nodes: &[GPtr]| -> Vec<GPtr> {
            let mut hs = Vec::new();
            let mut last: Option<ProcId> = None;
            for &nd in nodes {
                if last != Some(nd.proc()) {
                    hs.push(nd);
                    last = Some(nd.proc());
                }
            }
            hs
        };
        Graph {
            e_heads: heads(&e_nodes),
            h_heads: heads(&h_nodes),
        }
    })
}

/// Update one per-processor sublist: the list walk migrates, neighbour
/// reads cache. The iteration's first `node` access performs the check;
/// every later `node` access in the straight-line body is proven
/// redundant by the optimizer (`ELIDED_SITES`) — cached neighbour reads
/// between them cannot move the thread.
fn update_sublist<B: Backend>(ctx: &mut B, head: GPtr) {
    let mut node = head;
    while !node.is_null() {
        ctx.work(W_NODE);
        let mut v = ctx.read_f64(node, F_VAL, Mechanism::Migrate);
        for k in 0..DEGREE {
            let nbr = ctx.read_ptr_checked(node, F_NBR0 + 2 * k, Mechanism::Migrate, Check::Elide);
            let w =
                ctx.read_f64_checked(node, F_NBR0 + 2 * k + 1, Mechanism::Migrate, Check::Elide);
            let nv = ctx.read_f64(nbr, F_VAL, Mechanism::Cache);
            v -= w * nv;
        }
        ctx.write_checked(node, F_VAL, v, Mechanism::Migrate, Check::Elide);
        node = ctx.read_ptr_checked(node, F_NEXT, Mechanism::Migrate, Check::Elide);
    }
}

/// One half-step over a node set: a future per processor sublist, remote
/// sublists spawned first (processor 0's own sublist runs inline and
/// would delay every other fork).
fn compute<B: Backend>(ctx: &mut B, heads: &[GPtr]) {
    let handles: Vec<_> = heads
        .iter()
        .rev()
        .map(|&h| ctx.future_call(move |ctx| ctx.call(move |ctx| update_sublist(ctx, h))))
        .collect();
    for h in handles {
        ctx.touch(h);
    }
}

/// Checksum: bitwise mix of every node value after the simulation.
fn checksum<B: Backend>(ctx: &mut B, g: &Graph) -> u64 {
    let mut acc = 0u64;
    for &head in g.e_heads.iter().chain(&g.h_heads) {
        let mut node = head;
        while !node.is_null() {
            acc = mix2(acc, ctx.read(node, F_VAL, Mechanism::Cache).as_u64());
            node = ctx.read_ptr(node, F_NEXT, Mechanism::Cache);
        }
    }
    acc
}

pub fn run<B: Backend>(ctx: &mut B, size: SizeClass) -> u64 {
    let n = nodes(size);
    let g = build(ctx, n);
    for _ in 0..STEPS {
        compute(ctx, &g.e_heads);
        compute(ctx, &g.h_heads);
    }
    let mut out = 0;
    ctx.uncharged(|ctx| {
        out = checksum(ctx, &g);
    });
    out
}

/// Serial reference with identical arithmetic order (the topology is
/// machine-independent, so one reference covers every processor count).
pub fn reference(size: SizeClass) -> u64 {
    let n = nodes(size);
    let mut e_val: Vec<f64> = (0..n).map(|i| init_val(0, i)).collect();
    let mut h_val: Vec<f64> = (0..n).map(|i| init_val(1, i)).collect();
    let nbrs = |side: usize| -> Vec<Vec<(usize, f64)>> {
        (0..n)
            .map(|i| {
                (0..DEGREE)
                    .map(|k| {
                        let key = mix2((side * n + i) as u64, k as u64);
                        (neighbour_index(key, i, n), weight(side, i, k))
                    })
                    .collect()
            })
            .collect()
    };
    let e_nbrs = nbrs(0);
    let h_nbrs = nbrs(1);
    for _ in 0..STEPS {
        for i in 0..n {
            let mut v = e_val[i];
            for &(j, w) in &e_nbrs[i] {
                v -= w * h_val[j];
            }
            e_val[i] = v;
        }
        for i in 0..n {
            let mut v = h_val[i];
            for &(j, w) in &h_nbrs[i] {
                v -= w * e_val[j];
            }
            h_val[i] = v;
        }
    }
    let mut acc = 0u64;
    for v in e_val.iter().chain(&h_val) {
        acc = mix2(acc, v.to_bits());
    }
    acc
}

/// Optimizer-proven redundant check sites of `DSL` (see `Descriptor::elided_sites`).
pub const ELIDED_SITES: &[&str] = &[
    "ComputeE 7:22 n->val",
    "ComputeE 7:13 n->val",
    "ComputeE 8:17 n->next",
];

/// Heuristic verdicts for every dereference site of `DSL` (see
/// `Descriptor::selected_mechanisms`).
pub const SELECTED_MECHANISMS: &[&str] = &[
    "ComputeE 6:24 n->nbr -> migrate",
    "ComputeE 7:22 n->val -> migrate",
    "ComputeE 7:31 h->val -> cache",
    "ComputeE 7:13 n->val -> migrate",
    "ComputeE 8:17 n->next -> migrate",
];

/// Principal traversal variables and the mechanisms the kernel
/// hard-codes for them (see `Descriptor::kernel_mechs`).
pub const KERNEL_MECHS: &[(&str, &str, Mechanism)] = &[
    ("ComputeE", "n", Mechanism::Migrate),
    ("ComputeE", "h", Mechanism::Cache),
];

/// Static trip counts for the cost model: each of the `STEPS` phases
/// relaxes both halves of the bipartite graph, one list visit per node.
pub fn trips(size: SizeClass, _procs: usize) -> Vec<(&'static str, u64)> {
    vec![("ComputeE#0", (STEPS * 2 * nodes(size)) as u64)]
}

pub const DESCRIPTOR: Descriptor = Descriptor {
    name: "EM3D",
    description: "Simulates the propagation of electro-magnetic waves in a 3D object",
    problem_size: "2K nodes",
    choice: "M+C",
    whole_program: false,
    dsl: DSL,
    elided_sites: ELIDED_SITES,
    selected_mechanisms: SELECTED_MECHANISMS,
    kernel_mechs: KERNEL_MECHS,
    trips,
    bands: [(0.2, 1.5), (0.6, 3.0), (0.15, 1.0), (0.008, 0.8)],
    run,
    reference,
};

#[cfg(test)]
mod tests {
    use super::*;
    use olden_analysis::{parse, select, Mech};
    use olden_runtime::{run as run_sim, Config, Mechanism};

    #[test]
    fn values_match_reference() {
        for procs in [1, 2, 4] {
            let (v, _) = run_sim(Config::olden(procs), |ctx| run(ctx, SizeClass::Tiny));
            assert_eq!(v, reference(SizeClass::Tiny), "procs={procs}");
        }
    }

    #[test]
    fn heuristic_migrates_list_caches_neighbours() {
        let prog = parse(DSL).unwrap();
        let sel = select(&prog);
        let c = &sel.for_func("ComputeE")[0];
        assert_eq!(c.mech("n"), Mech::Migrate, "node list: high locality");
        assert_eq!(c.mech("h"), Mech::Cache, "edges: low locality");
    }

    #[test]
    fn remote_read_share_near_table3() {
        // Table 3 reports 19.4 % of cacheable reads remote at 32
        // processors, where every virtual region boundary is also a
        // processor boundary.
        let (_, rep) = run_sim(Config::olden(32), |ctx| run(ctx, SizeClass::Default));
        let pct = rep.cache.read_remote_pct();
        assert!(
            (10.0..30.0).contains(&pct),
            "remote share {pct}% out of range"
        );
        assert_eq!(rep.cache.cacheable_writes, 0, "Table 3: EM3D writes 0");
    }

    #[test]
    fn migrate_only_collapses() {
        let (_, seq) = run_sim(Config::sequential(), |ctx| run(ctx, SizeClass::Default));
        let heuristic = run_sim(Config::olden(16), |ctx| run(ctx, SizeClass::Default)).1;
        let forced = run_sim(Config::olden(16).forced(Mechanism::Migrate), |ctx| {
            run(ctx, SizeClass::Default)
        })
        .1;
        let s_h = heuristic.speedup_vs(seq.makespan);
        let s_m = forced.speedup_vs(seq.makespan);
        assert!(
            s_m < s_h / 4.0,
            "migrate-only ({s_m}) must collapse vs heuristic ({s_h})"
        );
        assert!(s_m < 0.5, "Table 2: EM3D migrate-only ≈ 0.05");
    }
}
