//! The ten Olden benchmarks (paper Table 1), implemented against the
//! reproduction runtime, each with a plain-Rust serial reference for value
//! verification and a DSL rendition of its kernel so the selection
//! heuristic's choices can be checked against the paper's §5 prose.
//!
//! | benchmark  | description (Table 1)                                  | heuristic choice |
//! |------------|--------------------------------------------------------|------------------|
//! | TreeAdd    | adds the values in a tree                              | M                |
//! | Power      | power-system optimization                              | M                |
//! | TSP        | estimated best Hamiltonian circuit                     | M                |
//! | MST        | minimum spanning tree of a graph                       | M                |
//! | Bisort     | bitonic sort in a binary tree                          | M+C              |
//! | Voronoi    | Voronoi diagram / Delaunay of a point set              | M+C              |
//! | EM3D       | electromagnetic-wave propagation on a bipartite graph  | M+C              |
//! | Barnes-Hut | hierarchical N-body                                    | M+C              |
//! | Perimeter  | perimeter of quad-tree-encoded raster images           | M+C              |
//! | Health     | Columbian health-care simulation                       | M+C              |
//!
//! Problem sizes: each benchmark accepts a [`SizeClass`]; `Default` keeps
//! `cargo test` fast, `Paper` matches Table 1 where feasible on one host.

pub mod barneshut;
pub mod bisort;
pub mod em3d;
pub mod health;
pub mod listdist;
pub mod mst;
pub mod perimeter;
pub mod power;
pub mod racy;
pub mod treeadd;
pub mod tsp;
pub mod voronoi;

/// The shared deterministic RNG (re-exported so benchmark modules and
/// downstream crates keep addressing it as `olden_benchmarks::rng`).
pub use olden_rng as rng;

use olden_runtime::{Backend, Mechanism, OldenCtx};

/// Split a processor range `[lo, hi)` into its `k`-th quarter (k in
/// 0..4), degrading gracefully when the range is smaller than four: every
/// quarter is non-empty and the quarters cover the range, so 4-way tree
/// distributions keep using all processors down to 2-processor machines.
pub fn split_range4(lo: usize, hi: usize, k: usize) -> (usize, usize) {
    debug_assert!(k < 4 && lo < hi);
    let span = hi - lo;
    if span <= 1 {
        return (lo, hi);
    }
    let clo = lo + k * span / 4;
    let chi = lo + (k + 1) * span / 4;
    if chi <= clo {
        let c = clo.min(hi - 1);
        (c, c + 1)
    } else {
        (clo, chi)
    }
}

/// Problem-size selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SizeClass {
    /// Very small: exhaustive tests and property tests.
    Tiny,
    /// Development default: seconds per full Table-2 row.
    Default,
    /// The paper's Table 1 sizes (or as close as is sensible on a single
    /// host; see each module's docs).
    Paper,
}

/// One benchmark's registry entry.
#[derive(Clone, Copy)]
pub struct Descriptor {
    /// Table 1 name.
    pub name: &'static str,
    /// Table 1 description.
    pub description: &'static str,
    /// Table 1 problem size (the `Paper` size class).
    pub problem_size: &'static str,
    /// Table 2 "Heuristic choice" column: "M" or "M+C".
    pub choice: &'static str,
    /// True for the three benchmarks the paper reports as whole-program
    /// times (Power, Barnes-Hut, Health); the rest report kernel times
    /// with the build phase uncharged.
    pub whole_program: bool,
    /// The kernel's DSL rendition (each module's `DSL` constant): input
    /// to the selection heuristic and to `oldenc`'s static race pass.
    pub dsl: &'static str,
    /// Check sites of `dsl` the optimizer proves redundant, as stable
    /// `"{func} {span} {site}"` keys (`SiteReport::key`). Recorded from
    /// `oldenc opt` output and cross-checked against the live optimizer
    /// by a test, so a heuristic or optimizer change that shifts a
    /// verdict shows up as a diff here, not as silent drift.
    pub elided_sites: &'static [&'static str],
    /// The heuristic's verdict for *every* dereference site of `dsl`, as
    /// stable `"{func} {span} {site} -> {mech}"` keys
    /// (`SiteVerdict::key`). Recorded from `oldenc select` output and
    /// cross-checked against the live heuristic by `select_parity`, the
    /// same discipline as `elided_sites`.
    pub selected_mechanisms: &'static [&'static str],
    /// `(func, var, mechanism)` triples naming the principal traversal
    /// variables of the DSL rendition and the [`Mechanism`] the
    /// hand-written kernel hard-codes for their dereferences.
    /// `select_parity` asserts the live heuristic agrees with each — the
    /// conformance gate tying the static selection to what the kernels
    /// actually execute.
    pub kernel_mechs: &'static [(&'static str, &'static str, Mechanism)],
    /// Static per-loop trip-count summaries for the cost model: how many
    /// iterations each DSL control loop (keyed `"{func}#{ordinal}"`, see
    /// `olden_analysis::loop_key`) executes at a given size class and
    /// processor count. Derived from the benchmark's size parameters,
    /// not measured.
    pub trips: fn(SizeClass, usize) -> Vec<(&'static str, u64)>,
    /// Accepted `(lo, hi)` ratio bands for predicted vs measured dynamic
    /// counters, in the order `[migrations, line_fetches, invalidations,
    /// remote_touches]`. The comparison is
    /// `(predicted + 1) / (measured + 1)` at `SizeClass::Tiny` on 8
    /// processors; `select_parity`
    /// asserts each ratio lands in its band and that every band is
    /// non-vacuous (`hi < 1000 × lo`, and a 1000× prediction fails).
    /// Wide bands are honest gaps between the DSL abstraction and the
    /// kernel (see EXPERIMENTS.md), not tolerances.
    pub bands: [(f64, f64); 4],
    /// Run the benchmark under the simulator context; returns a checksum
    /// that must equal `reference` for the same size. (The kernels are
    /// generic over [`Backend`]; this field is their `OldenCtx`
    /// instantiation. Other backends dispatch through [`generic_run`].)
    pub run: fn(&mut OldenCtx, SizeClass) -> u64,
    /// Plain serial Rust implementation of the same computation.
    pub reference: fn(SizeClass) -> u64,
}

/// All ten Table-1 benchmarks, in the paper's row order.
pub fn all() -> Vec<Descriptor> {
    vec![
        treeadd::DESCRIPTOR,
        power::DESCRIPTOR,
        tsp::DESCRIPTOR,
        mst::DESCRIPTOR,
        bisort::DESCRIPTOR,
        voronoi::DESCRIPTOR,
        em3d::DESCRIPTOR,
        barneshut::DESCRIPTOR,
        perimeter::DESCRIPTOR,
        health::DESCRIPTOR,
    ]
}

/// Look a benchmark up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Descriptor> {
    all()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
}

/// Run a benchmark by (case-insensitive) name on *any* backend.
///
/// [`Descriptor::run`] is a plain fn pointer and therefore pinned to the
/// simulator context; this is the generic counterpart used by the thread
/// backend (and any future backend) to reach the same kernels. Returns
/// `None` for an unknown name.
pub fn generic_run<B: Backend>(name: &str, ctx: &mut B, size: SizeClass) -> Option<u64> {
    let run: fn(&mut B, SizeClass) -> u64 = match name.to_ascii_lowercase().as_str() {
        "treeadd" => treeadd::run,
        "power" => power::run,
        "tsp" => tsp::run,
        "mst" => mst::run,
        "bisort" => bisort::run,
        "voronoi" => voronoi::run,
        "em3d" => em3d::run,
        "barnes-hut" | "barneshut" => barneshut::run,
        "perimeter" => perimeter::run,
        "health" => health::run,
        _ => return None,
    };
    Some(run(ctx, size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table1() {
        let a = all();
        assert_eq!(a.len(), 10);
        assert_eq!(a[0].name, "TreeAdd");
        assert_eq!(a[9].name, "Health");
        let m_only: Vec<&str> = a
            .iter()
            .filter(|d| d.choice == "M")
            .map(|d| d.name)
            .collect();
        assert_eq!(m_only, vec!["TreeAdd", "Power", "TSP", "MST"]);
        let whole: Vec<&str> = a
            .iter()
            .filter(|d| d.whole_program)
            .map(|d| d.name)
            .collect();
        assert_eq!(whole, vec!["Power", "Barnes-Hut", "Health"]);
    }

    #[test]
    fn split_range4_covers_and_is_nonempty() {
        for hi in 1..20usize {
            for k in 0..4 {
                let (a, b) = split_range4(0, hi, k);
                assert!(a < b && b <= hi, "({a},{b}) of [0,{hi}) k={k}");
            }
        }
        // Width-2 ranges use both halves.
        assert_eq!(split_range4(0, 2, 0), (0, 1));
        assert_eq!(split_range4(0, 2, 3), (1, 2));
        // Wide ranges quarter exactly.
        assert_eq!(split_range4(0, 8, 1), (2, 4));
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(by_name("treeadd").is_some());
        assert!(by_name("BARNES-HUT").is_some());
        assert!(by_name("nope").is_none());
    }

    /// Every function of every benchmark DSL lowers to a well-formed CFG:
    /// single entry, reachable blocks, terminators only at block ends,
    /// and edges that agree in both directions. The optimizer's verdicts
    /// are only as trustworthy as the graphs it solves over.
    #[test]
    fn every_benchmark_dsl_lowers_to_well_formed_cfgs() {
        use olden_analysis::{lower_program, parse};
        for d in all() {
            let prog = parse(d.dsl).unwrap_or_else(|e| panic!("{} DSL: {e}", d.name));
            assert!(!prog.funcs.is_empty(), "{} DSL has no functions", d.name);
            for (f, cfg) in prog.funcs.iter().zip(lower_program(&prog)) {
                cfg.check_well_formed(f)
                    .unwrap_or_else(|e| panic!("{} fn {}: {e}", d.name, f.name));
            }
        }
    }
}
