//! End-to-end verification of the optimizer's check elision on both
//! backends — the tentpole guarantee of olden-opt.
//!
//! Elision is a *hint with a fallback*: a `Check::Elide` site skips the
//! compiler-inserted pointer test / cache lookup only when its dataflow
//! fact verifies at runtime, so turning `elide_checks` on must change
//! nothing observable except the check counters and the cycles they cost.
//! Three layers, each over every benchmark:
//!
//! 1. **Simulator on-vs-off** — byte-identical values; identical
//!    migration / steal / future / touch / alloc counters; identical
//!    cache hit / miss / invalidation traffic; and the conservation law
//!    `performed(on) + elided(on) == performed(off)`.
//! 2. **Static-to-dynamic** — every benchmark whose DSL the optimizer
//!    annotated (non-empty `elided_sites`) actually elides checks at
//!    runtime, and elision makes the run cheaper, never dearer.
//! 3. **Exec lockstep** — the thread backend with elision on reconciles
//!    with the simulator with elision on, plain and under each forced
//!    mechanism: `ExecReport::diff_from_sim` (full `RunStats`, all twelve
//!    `CacheStats` counters, pages).

use olden_benchmarks::{all, generic_run, SizeClass};
use olden_exec::{run_exec, ExecConfig};
use olden_runtime::{Config, Mechanism, OldenCtx, RunStats};

const PROCS: usize = 8;

fn sim(name: &'static str, optimize: bool) -> (u64, OldenCtx) {
    let cfg = if optimize {
        Config::olden(PROCS).optimized()
    } else {
        Config::olden(PROCS)
    };
    let mut ctx = OldenCtx::new(cfg);
    let v = generic_run(name, &mut ctx, SizeClass::Tiny).expect("known benchmark");
    (v, ctx)
}

/// The two check counters are the *only* runtime counters elision may
/// move; everything else in `RunStats` must be bit-identical.
fn without_checks(s: &RunStats) -> RunStats {
    let mut s = *s;
    s.checks_performed = 0;
    s.checks_elided = 0;
    s
}

/// Simulator, every benchmark: elision changes no values, no control-flow
/// counters, no coherence traffic — and every check is conserved:
/// elided ones are exactly the ones no longer performed.
#[test]
fn sim_elision_is_observation_free() {
    for d in all() {
        let (v_off, off) = sim(d.name, false);
        let (v_on, on) = sim(d.name, true);
        assert_eq!(v_on, v_off, "{} value", d.name);
        assert_eq!(
            without_checks(on.stats()),
            without_checks(off.stats()),
            "{} non-check runtime counters",
            d.name
        );
        assert_eq!(
            off.stats().checks_elided,
            0,
            "{} elides nothing when off",
            d.name
        );
        assert_eq!(
            on.stats().checks_performed + on.stats().checks_elided,
            off.stats().checks_performed,
            "{} check conservation",
            d.name
        );
        let (con, coff) = (on.cache().stats(), off.cache().stats());
        assert_eq!(
            (con.hits, con.misses),
            (coff.hits, coff.misses),
            "{} hit/miss",
            d.name
        );
        assert_eq!(
            (con.remote_reads, con.remote_writes),
            (coff.remote_reads, coff.remote_writes),
            "{} remote traffic",
            d.name
        );
        assert_eq!(
            (con.invalidations_sent, con.revalidations),
            (coff.invalidations_sent, coff.revalidations),
            "{} coherence traffic",
            d.name
        );
        assert_eq!(
            con.checks_performed + con.checks_elided,
            coff.checks_performed,
            "{} cache check conservation",
            d.name
        );
    }
}

/// Every optimizer-annotated benchmark really elides checks at runtime,
/// and the saved check cycles make the run no slower.
#[test]
fn annotated_benchmarks_elide_at_runtime() {
    let mut annotated = 0;
    for d in all() {
        let (_, on) = sim(d.name, true);
        if d.elided_sites.is_empty() {
            assert_eq!(
                on.stats().checks_elided,
                0,
                "{} has no annotated sites yet elided checks",
                d.name
            );
            continue;
        }
        annotated += 1;
        assert!(
            on.stats().checks_elided > 0,
            "{} is annotated ({} sites) but elided no checks",
            d.name,
            d.elided_sites.len()
        );
        let (_, off) = sim(d.name, false);
        assert!(
            on.stats().checks_performed < off.stats().checks_performed,
            "{} should perform fewer checks with elision on",
            d.name
        );
    }
    assert!(annotated >= 3, "only {annotated} benchmarks annotated");
}

/// Thread backend, elision on, every benchmark: lockstep execution
/// reconciles with the simulator — the elision fast path fires at the
/// same sites on both backends — plain and under either forced mechanism,
/// which turns every elision off.
#[test]
fn exec_elision_reconciles_with_simulator() {
    for force in [None, Some(Mechanism::Migrate), Some(Mechanism::Cache)] {
        let (mut cfg, mut exec_cfg) = (Config::olden(PROCS), ExecConfig::lockstep(PROCS));
        if let Some(m) = force {
            (cfg, exec_cfg) = (cfg.forced(m), exec_cfg.forced(m));
        }
        for d in all() {
            let mut simctx = OldenCtx::new(cfg.optimized());
            let sim_val = generic_run(d.name, &mut simctx, SizeClass::Tiny).unwrap();
            let name = d.name;
            let (exec_val, rep) = run_exec(exec_cfg.optimized(), move |ctx| {
                generic_run(name, ctx, SizeClass::Tiny).expect("known benchmark")
            });
            assert_eq!(exec_val, sim_val, "{} {force:?} value", d.name);
            let (sc, pages) = (simctx.cache().stats(), simctx.cache().pages_cached());
            if let Some(diff) = rep.diff_from_sim(simctx.stats(), sc, pages) {
                panic!("{} {force:?}: {diff}", d.name);
            }
            if force.is_some() {
                assert_eq!(rep.stats.checks_elided, 0, "{} {force:?} elided", d.name);
            }
        }
    }
}

/// The elision fast path saves cycles: with the optimizer on, the
/// simulated makespan never increases, and strictly decreases for the
/// check-heaviest annotated kernels.
#[test]
fn elision_saves_cycles() {
    for name in ["TreeAdd", "MST", "EM3D"] {
        let (_, off) = olden_runtime::run(Config::olden(PROCS), |ctx| {
            generic_run(name, ctx, SizeClass::Tiny).unwrap()
        });
        let (_, on) = olden_runtime::run(Config::olden(PROCS).optimized(), |ctx| {
            generic_run(name, ctx, SizeClass::Tiny).unwrap()
        });
        assert!(
            on.makespan < off.makespan,
            "{name}: optimized makespan {} !< {}",
            on.makespan,
            off.makespan
        );
    }
}
