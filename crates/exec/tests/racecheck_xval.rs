//! Cross-validation of the static race pass against the dynamic
//! happens-before oracle — the tentpole guarantee of olden-racecheck.
//!
//! Two directions, over two program sets:
//!
//! 1. **Soundness on the corpus** (`olden_benchmarks::racy`): every seed
//!    the sanitizer flags — on the simulator or on either thread-backend
//!    mode — carries at least one static warning on its DSL rendition,
//!    i.e. static warnings ⊇ dynamic detections. Clean seeds are silent
//!    everywhere.
//! 2. **Benchmarks are clean**: the DSL renditions of all ten Table-1
//!    benchmarks lint clean of warnings (`oldenc`'s golden file pins the
//!    remaining notes), and the real kernels run sanitizer-clean on the
//!    simulator and on the thread backend in lockstep *and* parallel
//!    modes.
//!
//! Lockstep detections must equal the simulator's byte for byte (same
//! one-access-one-request mapping, same feeding order); parallel mode is
//! only held to flag-or-not, since a write-read pair's arrival order at
//! the home worker — and hence the recorded direction — is schedule-
//! dependent.

use olden_analysis::racecheck::racecheck_src;
use olden_analysis::Severity;
use olden_benchmarks::racy::{run_seed, seeds};
use olden_benchmarks::{all, generic_run, SizeClass};
use olden_exec::{run_exec, ExecConfig};
use olden_runtime::{Backend, Config, OldenCtx, RaceViolation};

const PROCS: usize = 4;

/// A seed's sanitizer findings on the simulator.
fn sim_races(name: &'static str) -> Vec<RaceViolation> {
    let mut ctx = OldenCtx::new(Config::olden(PROCS).sanitized());
    run_seed(name, &mut ctx).expect("known seed");
    let mut v = ctx.race_violations();
    v.sort();
    v
}

/// A seed's sanitizer findings on the thread backend.
fn exec_races(name: &'static str, cfg: ExecConfig) -> Vec<RaceViolation> {
    let (_, rep) = run_exec(cfg, move |ctx| {
        run_seed(name, ctx).expect("known seed");
    });
    let mut v = rep.races;
    v.sort();
    v
}

/// Static warnings ⊇ dynamic detections, seed by seed, on all three
/// executions; lockstep agrees with the simulator exactly.
#[test]
fn corpus_static_warnings_cover_dynamic_detections() {
    for seed in seeds() {
        let diags = racecheck_src(seed.dsl).unwrap_or_else(|e| panic!("{}: {e}", seed.name));
        let statically_warned = diags.iter().any(|d| d.severity >= Severity::Warning);

        let sim = sim_races(seed.name);
        let lockstep = exec_races(seed.name, ExecConfig::lockstep(PROCS).sanitized());
        let parallel = exec_races(seed.name, ExecConfig::parallel(PROCS).sanitized());

        assert_eq!(sim, lockstep, "{}: lockstep must mirror the sim", seed.name);
        assert_eq!(
            sim.is_empty(),
            parallel.is_empty(),
            "{}: parallel flag disagrees (sim {sim:?}, parallel {parallel:?})",
            seed.name
        );

        let dynamically_detected = !sim.is_empty() || !parallel.is_empty();
        assert!(
            statically_warned || !dynamically_detected,
            "{}: sanitizer found {sim:?} but the static pass only said {diags:?}",
            seed.name
        );

        // The corpus is labelled: both sides must also match the label,
        // so a silently weakened oracle cannot make this test vacuous.
        assert_eq!(seed.racy, dynamically_detected, "{} dynamic", seed.name);
        assert_eq!(seed.racy, statically_warned, "{} static", seed.name);
    }
}

/// The ten benchmark DSLs carry no static *warnings* (notes are allowed
/// and pinned by `oldenc`'s golden file).
#[test]
fn benchmark_dsls_have_no_static_warnings() {
    for d in all() {
        let diags = racecheck_src(d.dsl).unwrap_or_else(|e| panic!("{}: {e}", d.name));
        let warns: Vec<_> = diags
            .iter()
            .filter(|di| di.severity >= Severity::Warning)
            .collect();
        assert!(warns.is_empty(), "{}: {warns:?}", d.name);
    }
}

/// All ten benchmarks run sanitizer-clean on the simulator: their touch
/// discipline really does order every conflicting access pair.
#[test]
fn benchmarks_are_sanitizer_clean_on_simulator() {
    for d in all() {
        let mut ctx = OldenCtx::new(Config::olden(PROCS).sanitized());
        generic_run(d.name, &mut ctx, SizeClass::Tiny).unwrap();
        let races = ctx.race_violations();
        assert!(races.is_empty(), "{}: {races:?}", d.name);
    }
}

/// Benchmarks whose *parallel-mode* executions exhibit benign false
/// sharing: sibling tasks allocate concurrently on the same processors,
/// so cells of unordered tasks interleave within one cache line, and one
/// task's initialization writes collide at the sanitizer's line
/// granularity with another task's writes *or reads* of its own cells.
/// Lockstep and the simulator allocate depth-first — whole lines per
/// task — so only parallel schedules can produce these. Logging the word
/// offsets of every reported pair (the access each one was detected at
/// and the earlier accesses it conflicted with, in the home's feeding
/// order) over 60 parallel TSP runs and 300 parallel Health runs found
/// 913 pairs, every one two different words of one line — write-write,
/// write-read and read-write alike — and none on the same word. The
/// computed values stay correct (write-through is word-granular), which
/// is why this is a golden list and not a bug list.
const PARALLEL_FALSE_SHARING: &[&str] = &["TSP", "Health"];

/// …and on the thread backend, in both modes, where the accesses and the
/// clock piggybacking are real requests between real OS threads. The
/// golden-listed benchmarks may report parallel-mode pairs of any kind
/// (false sharing, above) — a finding on any other benchmark, or any
/// finding in lockstep mode, fails.
#[test]
fn benchmarks_are_sanitizer_clean_on_thread_backend() {
    for d in all() {
        for cfg in [
            ExecConfig::lockstep(PROCS).sanitized(),
            ExecConfig::parallel(PROCS).sanitized(),
        ] {
            let mode = cfg.mode;
            let name = d.name;
            let (_, rep) = run_exec(cfg, move |ctx| {
                generic_run(name, ctx, SizeClass::Tiny).expect("known benchmark");
            });
            let excused =
                mode == olden_exec::Mode::Parallel && PARALLEL_FALSE_SHARING.contains(&name);
            assert!(
                rep.races.is_empty() || excused,
                "{name} ({mode:?}): {:?}",
                rep.races
            );
        }
    }
}
