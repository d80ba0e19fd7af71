//! # olden — Software Caching and Computation Migration
//!
//! A from-scratch Rust reproduction of *"Software Caching and Computation
//! Migration in Olden"* (Carlisle & Rogers, PPoPP 1995): the Olden
//! execution model for pointer-based programs on distributed-memory
//! machines, its two remote-data-access mechanisms, the compile-time
//! heuristic that selects between them per dereference, the three cache
//! coherence schemes of Appendix A, and the ten Olden benchmarks —
//! running on a deterministic cost-model simulator in place of the CM-5.
//!
//! This crate re-exports the whole workspace behind one API:
//!
//! * [`analysis`] — the selection heuristic (path-affinities, update
//!   matrices, bottleneck avoidance) over a restricted-C DSL;
//! * [`runtime`] — the distributed heap, futures with lazy task
//!   creation, computation migration, and the software cache;
//! * [`machine`] — the cost model, trace recording and list-scheduler
//!   replay that turn one instrumented run into Table-2 speedups;
//! * [`cache`] — the 1 K-bucket translation table and the local /
//!   global / bilateral coherence protocols;
//! * [`benchmarks`] — TreeAdd, Power, TSP, MST, Bisort, Voronoi, EM3D,
//!   Barnes-Hut, Perimeter, and Health, each verified against a plain
//!   serial reference.
//!
//! ```
//! use olden_core::prelude::*;
//!
//! // Sum a distributed tree on a simulated 8-processor machine.
//! let (sum, report) = run(Config::olden(8), |ctx| {
//!     let d = olden_core::benchmarks::treeadd::DESCRIPTOR;
//!     (d.run)(ctx, SizeClass::Tiny)
//! });
//! assert_eq!(sum, (olden_core::benchmarks::treeadd::DESCRIPTOR.reference)(SizeClass::Tiny));
//! assert!(report.makespan > 0);
//! ```

pub use olden_analysis as analysis;
pub use olden_benchmarks as benchmarks;
pub use olden_cache as cache;
pub use olden_gptr as gptr;
pub use olden_machine as machine;
pub use olden_runtime as runtime;

/// The names most programs need.
pub mod prelude {
    pub use olden_analysis::{parse, select, Mech, Selection};
    pub use olden_benchmarks::SizeClass;
    pub use olden_cache::Protocol;
    pub use olden_gptr::{GPtr, ProcId, Word};
    pub use olden_machine::CostModel;
    pub use olden_runtime::{run, speedup_curve, Backend, Config, Mechanism, OldenCtx, RunReport};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_everything() {
        let (v, rep) = run(Config::olden(4), |ctx| {
            let a = ctx.alloc(3, 1);
            ctx.write(a, 0, 7i64, Mechanism::Cache);
            ctx.read_i64(a, 0, Mechanism::Migrate)
        });
        assert_eq!(v, 7);
        assert_eq!(rep.stats.migrations, 1);
        let prog = parse("struct l { l *n; }; void w(l *x) { while (x) { x = x->n; } }").unwrap();
        assert_eq!(select(&prog).mech("w", "x"), Mech::Cache);
    }
}
