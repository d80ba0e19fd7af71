//! End-to-end verification of olden-select — the §4 heuristic as the
//! live decision surface, cross-validated against both backends.
//!
//! Two gates, each over every registry benchmark:
//!
//! 1. **Conformance** — the static selection is what actually runs. Each
//!    descriptor's `selected_mechanisms` list byte-matches the live
//!    heuristic's whole-program verdict table on its DSL, and each
//!    `kernel_mechs` triple (the `Mechanism` the hand-written kernel
//!    hard-codes for a traversal variable) agrees with what the heuristic
//!    decides for that `(func, var)`. A heuristic change that flips any
//!    verdict fails here, not silently.
//!
//! 2. **Prediction** — the static cost model is quantitatively tied to
//!    the machine. `olden_analysis::predict`, fed only the DSL, the
//!    selection, and size-derived trip counts, must land within each
//!    descriptor's accepted ratio band of the *measured* dynamic
//!    counters — migrations, cache line fetches, invalidations, and
//!    remote-touch stalls — on the simulator **and** on the thread
//!    backend (which runs lockstep and reconciles byte-for-byte, so one
//!    band set covers both). The bands themselves are checked
//!    non-vacuous: `hi < 1000 × lo`, and a deliberately wrong model
//!    (every prediction scaled 1000×) must fail every benchmark.

use olden_analysis::{mech_table, parse, predict, MechTable, Prediction};
use olden_benchmarks::{all, Descriptor, SizeClass};
use olden_exec::{run_exec, ExecConfig};
use olden_runtime::{run as run_sim, Config, EventKind};

const PROCS: usize = 8;

/// The verdict table the live heuristic computes for a descriptor's DSL.
fn live_table(d: &Descriptor) -> MechTable {
    let prog = parse(d.dsl).unwrap_or_else(|e| panic!("{} DSL: {e}", d.name));
    mech_table(&prog).clone()
}

// ---------------------------------------------------------------- gate 1

/// Every descriptor's recorded verdict keys are exactly the live
/// heuristic's, in evaluation order.
#[test]
fn recorded_verdicts_match_live_heuristic() {
    for d in all() {
        let live = live_table(&d).keys();
        let recorded: Vec<String> = d
            .selected_mechanisms
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            recorded, live,
            "{}: descriptor selected_mechanisms diverge from the heuristic",
            d.name
        );
        assert!(
            !live.is_empty(),
            "{}: a benchmark DSL with no dereference sites pins nothing",
            d.name
        );
    }
}

/// The mechanisms the kernels hard-code are the ones the heuristic
/// selects: for every `(func, var, mechanism)` triple, the live
/// selection's verdict for that variable in that function names the same
/// mechanism.
#[test]
fn kernels_hard_code_what_the_heuristic_selects() {
    for d in all() {
        assert!(
            !d.kernel_mechs.is_empty(),
            "{}: no kernel conformance triples recorded",
            d.name
        );
        let table = live_table(&d);
        for (func, var, mechanism) in d.kernel_mechs {
            let chosen = table.selection.mech(func, var);
            assert_eq!(
                chosen.name(),
                mechanism.name(),
                "{}: kernel uses {} for `{var}` in {func}, heuristic selects {}",
                d.name,
                mechanism.name(),
                chosen.name()
            );
        }
    }
}

// ---------------------------------------------------------------- gate 2

/// The four dynamic counters the cost model predicts, in
/// `Prediction::counters` order, measured on the simulator.
fn measure_sim(d: &Descriptor) -> [u64; 4] {
    let (_, rep) = run_sim(Config::olden(PROCS).recorded(), |ctx| {
        (d.run)(ctx, SizeClass::Tiny)
    });
    let rec = rep.recording.as_ref().expect("recorded sim run");
    [
        rep.stats.migrations,
        rep.cache.misses,
        rec.count(EventKind::Invalidate),
        rec.count(EventKind::TouchStall),
    ]
}

/// The same counters measured on the thread backend (lockstep).
fn measure_exec(d: &Descriptor) -> [u64; 4] {
    let name = d.name;
    let (_, rep) = run_exec(ExecConfig::lockstep(PROCS).recorded(), move |ctx| {
        olden_benchmarks::generic_run(name, ctx, SizeClass::Tiny).expect("registry benchmark")
    });
    let rec = rep.recording.as_ref().expect("recorded exec run");
    [
        rep.stats.migrations,
        rep.cache.misses,
        rec.count(EventKind::Invalidate),
        rec.count(EventKind::TouchStall),
    ]
}

/// The model's prediction for a descriptor at the measurement point.
fn predicted(d: &Descriptor) -> Prediction {
    let prog = parse(d.dsl).unwrap_or_else(|e| panic!("{} DSL: {e}", d.name));
    let table = mech_table(&prog);
    let trips = (d.trips)(SizeClass::Tiny, PROCS);
    predict(&prog, table, &trips, PROCS)
}

/// `(predicted + 1) / (measured + 1)` — finite even when a counter is 0.
fn ratio(pred: u64, meas: u64) -> f64 {
    (pred as f64 + 1.0) / (meas as f64 + 1.0)
}

fn assert_within_bands(d: &Descriptor, meas: [u64; 4], backend: &str) {
    let p = predicted(d);
    for (i, (counter, pred)) in p.counters().iter().enumerate() {
        let (lo, hi) = d.bands[i];
        let r = ratio(*pred, meas[i]);
        assert!(
            r >= lo && r <= hi,
            "{} on {backend}: {counter} predicted {pred}, measured {}, \
             ratio {r:.3} outside [{lo}, {hi}]",
            d.name,
            meas[i]
        );
    }
}

/// The cost model's predictions land inside every benchmark's accepted
/// ratio bands against the simulator's measured counters.
#[test]
fn predictions_within_bands_on_sim() {
    for d in all() {
        assert_within_bands(&d, measure_sim(&d), "sim");
    }
}

/// ... and against the thread backend's. Lockstep execution reconciles
/// with the simulator byte-for-byte, so this doubles as a check that the
/// band set genuinely covers both machines, not just the one it was
/// calibrated on.
#[test]
fn predictions_within_bands_on_exec() {
    for d in all() {
        assert_within_bands(&d, measure_exec(&d), "exec");
    }
}

/// Anti-vacuity, structurally: a band that spans three orders of
/// magnitude accepts anything and pins nothing.
#[test]
fn bands_are_not_vacuous() {
    for d in all() {
        for (i, (lo, hi)) in d.bands.iter().enumerate() {
            assert!(
                *lo > 0.0 && hi > lo,
                "{} band {i} is malformed: [{lo}, {hi}]",
                d.name
            );
            assert!(
                *hi < 1000.0 * lo,
                "{} band {i} is vacuous: [{lo}, {hi}] spans >= 1000x",
                d.name
            );
        }
    }
}

/// Anti-vacuity, behaviorally: a deliberately wrong cost model — every
/// predicted counter inflated 1000× — must violate at least one band of
/// every benchmark. If this fails, the bands would also accept a model
/// that predicts garbage.
#[test]
fn bands_reject_a_wrong_model() {
    for d in all() {
        let meas = measure_sim(&d);
        let p = predicted(&d);
        let rejected = p.counters().iter().enumerate().any(|(i, (_, pred))| {
            let r = ratio(pred.saturating_mul(1000), meas[i]);
            let (lo, hi) = d.bands[i];
            r < lo || r > hi
        });
        assert!(
            rejected,
            "{}: a 1000x-inflated prediction still passes every band",
            d.name
        );
    }
}
