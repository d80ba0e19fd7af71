//! Cross-validation of the thread backend against the simulator and the
//! serial references: the tentpole guarantee of olden-exec.
//!
//! Three layers of agreement, in increasing strictness:
//!
//! 1. **Values** — every benchmark, executed for real across ≥ 4 worker
//!    threads, computes the same checksum as its plain serial reference.
//! 2. **Counters** — in lockstep mode, the migration / steal / cache
//!    counters of the real execution equal the simulator's for the same
//!    program (each backend is the other's oracle).
//! 3. **Determinism** — two runs of the same seed are identical, values
//!    and counters both.

use olden_benchmarks::{all, generic_run, SizeClass};
use olden_exec::{run_exec, ExecConfig, Protocol};
use olden_runtime::{Config, OldenCtx};

const PROCS: usize = 8;

fn exec_lockstep(name: &'static str, procs: usize) -> (u64, olden_exec::ExecReport) {
    let (v, rep) = run_exec(ExecConfig::lockstep(procs), move |ctx| {
        generic_run(name, ctx, SizeClass::Tiny).expect("known benchmark")
    });
    (v, rep)
}

/// Every benchmark's value on the thread backend equals its serial
/// reference — the structures really lived in per-worker heap sections,
/// every remote word really crossed a channel.
#[test]
fn all_benchmark_values_match_references_on_workers() {
    for d in all() {
        let expected = (d.reference)(SizeClass::Tiny);
        let (got, rep) = exec_lockstep(d.name, PROCS);
        assert_eq!(got, expected, "{} value on {PROCS} workers", d.name);
        assert!(rep.messages > 0, "{} exchanged no messages", d.name);
    }
}

/// Lockstep counter parity with the simulator, for every benchmark: the
/// full `RunStats`, all twelve `CacheStats` counters and pages cached.
#[test]
fn all_benchmark_counters_reconcile_with_simulator() {
    for d in all() {
        let mut sim = OldenCtx::new(Config::olden(PROCS));
        let sim_val = generic_run(d.name, &mut sim, SizeClass::Tiny).unwrap();
        let (exec_val, rep) = exec_lockstep(d.name, PROCS);
        assert_eq!(exec_val, sim_val, "{} value", d.name);
        assert_eq!(
            rep.diff_from_sim(sim.stats(), sim.cache().stats(), sim.cache().pages_cached()),
            None,
            "{} counters",
            d.name
        );
    }
}

/// Full counter parity under every Appendix-A coherence scheme: global
/// knowledge's pushed invalidations (sent + spurious) and write-tracking
/// cycles, and the bilateral scheme's timestamp revalidations, all
/// reconcile with the simulator's — the coherence traffic really crossed
/// worker mailboxes and produced the exact same Table-3 numbers.
#[test]
fn every_scheme_reconciles_with_simulator() {
    for protocol in Protocol::ALL {
        for d in all() {
            let mut sim = OldenCtx::new(Config::olden(PROCS).with_protocol(protocol));
            let sim_val = generic_run(d.name, &mut sim, SizeClass::Tiny).unwrap();
            let (exec_val, rep) = run_exec(
                ExecConfig::lockstep(PROCS).with_protocol(protocol),
                move |ctx| generic_run(d.name, ctx, SizeClass::Tiny).expect("known benchmark"),
            );
            assert_eq!(exec_val, sim_val, "{} value under {protocol:?}", d.name);
            assert_eq!(
                rep.diff_from_sim(sim.stats(), sim.cache().stats(), sim.cache().pages_cached()),
                None,
                "{} counters under {protocol:?}",
                d.name
            );
        }
    }
}

/// Two same-seed runs are bit-identical: values, event counters, cache
/// counters, and even the message count.
#[test]
fn same_seed_runs_are_identical() {
    for name in ["TreeAdd", "EM3D", "Health"] {
        let (v1, r1) = exec_lockstep(name, PROCS);
        let (v2, r2) = exec_lockstep(name, PROCS);
        assert_eq!(v1, v2, "{name} value");
        assert_eq!(r1.stats, r2.stats, "{name} runtime counters");
        assert_eq!(r1.cache, r2.cache, "{name} cache counters");
        assert_eq!(r1.messages, r2.messages, "{name} message count");
    }
}

/// Parallel mode — future bodies on their own OS threads — still computes
/// reference values, and the data-dependent migration/steal counters
/// still match the simulator.
#[test]
fn parallel_mode_values_and_deterministic_counters() {
    for name in ["TreeAdd", "Power", "EM3D", "Health"] {
        let d = olden_benchmarks::by_name(name).unwrap();
        let expected = (d.reference)(SizeClass::Tiny);
        let mut sim = OldenCtx::new(Config::olden(4));
        generic_run(name, &mut sim, SizeClass::Tiny).unwrap();
        let (got, rep) = run_exec(ExecConfig::parallel(4), move |ctx| {
            generic_run(name, ctx, SizeClass::Tiny).expect("known benchmark")
        });
        assert_eq!(got, expected, "{name} value in parallel mode");
        assert_eq!(
            rep.stats.migrations,
            sim.stats().migrations,
            "{name} migrations are data-dependent, not schedule-dependent"
        );
        assert_eq!(rep.stats.steals, sim.stats().steals, "{name} steals");
        assert_eq!(rep.stats.futures, sim.stats().futures, "{name} futures");
    }
}
