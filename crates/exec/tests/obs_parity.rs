//! Observability parity: the simulator's logical-time event stream and
//! the thread backend's wall-time event stream describe the *same*
//! computation.
//!
//! In lockstep mode the two backends execute identical event sequences,
//! so their recordings must agree exactly once timestamps are stripped:
//! per processor, the same kinds, phases, and arguments in the same
//! order. The comparison is split by event site — the simulator records
//! everything into one lane, the exec backend splits thread-side events
//! (client lanes) from invalidation acquires (worker lanes) — which is
//! exactly what [`Recording::site_sequences`] normalizes away.

use std::sync::OnceLock;

use olden_benchmarks::{all, generic_run, SizeClass};
use olden_exec::{run_exec, ExecConfig, ExecReport, Protocol};
use olden_runtime::{Backend, Config, EventKind, OldenCtx, Recording, RunStats, Site};

const PROCS: usize = 8;

fn recorded_exec(name: &'static str, cfg: ExecConfig) -> ExecReport {
    let (_, rep) = run_exec(cfg.recorded(), move |ctx| {
        generic_run(name, ctx, SizeClass::Tiny).expect("known benchmark")
    });
    rep
}

/// Every count identity `rec` breaks against its run's own counters.
fn broken_identities(rec: &Recording, stats: &RunStats, misses: u64) -> Vec<String> {
    rec.reconcile(
        stats.migrations,
        stats.return_migrations,
        stats.futures,
        stats.steals,
        misses,
    )
}

/// One benchmark's recorded simulator run beside its recorded lockstep
/// exec run.
struct LockstepPair {
    name: &'static str,
    sim_rec: Recording,
    sim_stats: RunStats,
    sim_misses: u64,
    rep: ExecReport,
}

/// Every benchmark's recorded sim and lockstep exec runs, made once per
/// test binary and shared by the tests that read them.
fn lockstep_pairs() -> &'static [LockstepPair] {
    static PAIRS: OnceLock<Vec<LockstepPair>> = OnceLock::new();
    PAIRS.get_or_init(|| {
        all()
            .iter()
            .map(|d| {
                let mut sim = OldenCtx::new(Config::olden(PROCS).recorded());
                generic_run(d.name, &mut sim, SizeClass::Tiny).unwrap();
                LockstepPair {
                    name: d.name,
                    sim_rec: sim.take_recording().expect("recorded sim run"),
                    sim_stats: *sim.stats(),
                    sim_misses: sim.cache().stats().misses,
                    rep: recorded_exec(d.name, ExecConfig::lockstep(PROCS)),
                }
            })
            .collect()
    })
}

/// Every benchmark, both sites: the sim's per-processor `(kind, phase,
/// arg)` sequences equal the exec backend's in lockstep mode, and the
/// sim recording reconciles with the sim's own counters.
#[test]
fn lockstep_event_sequences_match_simulator_per_processor() {
    for p in lockstep_pairs() {
        let (name, sim_rec) = (p.name, &p.sim_rec);
        let exec_rec = p.rep.recording.as_ref().expect("recorded exec run");

        assert_eq!(sim_rec.dropped(), 0, "{name}: sim lane overflowed");
        assert_eq!(exec_rec.dropped(), 0, "{name}: exec lane overflowed");
        for site in [Site::Client, Site::Worker] {
            assert_eq!(
                sim_rec.site_sequences(site),
                exec_rec.site_sequences(site),
                "{name}: per-processor {site:?}-site event sequences diverge"
            );
        }
        let sim_bad = broken_identities(sim_rec, &p.sim_stats, p.sim_misses);
        assert!(sim_bad.is_empty(), "{name} sim: {sim_bad:?}");
    }
}

/// The recording's exact per-kind counts reconcile with the run's own
/// counters — the same identities `oldenc profile` checks
/// (`Recording::reconcile`), here asserted for every benchmark on the
/// exec backend.
#[test]
fn lockstep_event_counts_reconcile_with_exec_report() {
    for p in lockstep_pairs() {
        let (name, rep) = (p.name, &p.rep);
        let rec = rep.recording.as_ref().expect("recorded exec run");
        let bad = broken_identities(rec, &rep.stats, rep.cache.misses);
        assert!(bad.is_empty(), "{name}: {bad:?}");
        assert_eq!(
            rec.count(EventKind::Retry),
            0,
            "{name}: fault-free run retried"
        );
    }
}

/// The other coherence schemes leave the event stream in lockstep with
/// the simulator too: revalidation misses still record one `LineFetch`
/// each (`LineFetch == misses` holds per scheme), and the unconditional
/// `Invalidate` acquire at every migration receipt keeps both sites'
/// sequences identical.
#[test]
fn coherence_scheme_event_streams_match_simulator() {
    for protocol in [Protocol::GlobalKnowledge, Protocol::Bilateral] {
        for name in ["TreeAdd", "Power", "EM3D", "Health"] {
            let mut sim = OldenCtx::new(Config::olden(PROCS).with_protocol(protocol).recorded());
            generic_run(name, &mut sim, SizeClass::Tiny).unwrap();
            let sim_rec = sim.take_recording().expect("recorded sim run");
            let rep = recorded_exec(name, ExecConfig::lockstep(PROCS).with_protocol(protocol));
            let rec = rep.recording.as_ref().expect("recorded exec run");
            for site in [Site::Client, Site::Worker] {
                assert_eq!(
                    sim_rec.site_sequences(site),
                    rec.site_sequences(site),
                    "{name} under {protocol:?}: {site:?}-site sequences diverge"
                );
            }
            assert_eq!(
                rec.count(EventKind::LineFetch),
                rep.cache.misses,
                "{name} under {protocol:?}: one fetch span per miss, \
                 revalidations included"
            );
        }
    }
}

/// Recording is observation, not perturbation: a recorded lockstep run
/// produces byte-identical counters and message counts to a plain one.
#[test]
fn recording_does_not_perturb_the_run() {
    for name in ["TreeAdd", "MST", "Health"] {
        let (v0, plain) = run_exec(ExecConfig::lockstep(PROCS), move |ctx| {
            generic_run(name, ctx, SizeClass::Tiny).expect("known benchmark")
        });
        let (v1, rec) = run_exec(ExecConfig::lockstep(PROCS).recorded(), move |ctx| {
            generic_run(name, ctx, SizeClass::Tiny).expect("known benchmark")
        });
        assert_eq!(v0, v1, "{name} value");
        assert_eq!(plain.stats, rec.stats, "{name} runtime counters");
        assert_eq!(plain.cache, rec.cache, "{name} cache counters");
        assert_eq!(plain.messages, rec.messages, "{name} message count");
        assert!(
            plain.recording.is_none(),
            "{name}: unrecorded run grew a recording"
        );
    }
}

/// Parallel mode — real body threads, child lanes pushed concurrently —
/// still yields well-formed recordings whose counts reconcile with the
/// report.
#[test]
fn parallel_mode_recording_is_well_formed_and_reconciles() {
    for name in ["TreeAdd", "Power", "EM3D", "Health"] {
        let rep = recorded_exec(name, ExecConfig::parallel(4));
        let rec = rep.recording.as_ref().expect("recorded parallel run");
        let bad = broken_identities(rec, &rep.stats, rep.cache.misses);
        assert!(bad.is_empty(), "{name}: {bad:?}");
    }
}
