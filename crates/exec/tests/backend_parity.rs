//! Cross-validation of the thread backend against the simulator under
//! the non-default coherence schemes, and in parallel mode; and the
//! per-kind message counts against the counters they must follow from.
//!
//! Local knowledge in lockstep is pinned elsewhere: the `run` row of
//! `goldens_are_current` executes all ten benchmarks on 8 workers and
//! prints each value, every counter and a `parity:` verdict against the
//! simulator, so a divergence or a nondeterministic counter is a diff;
//! `tests/integration.rs` holds the simulator's values to the serial
//! references.

use olden_benchmarks::{all, generic_run, SizeClass};
use olden_exec::{run_exec, try_run_exec, ExecConfig, ExecReport, MsgKind, Protocol};
use olden_runtime::{Config, OldenCtx};
use std::time::Duration;

const PROCS: usize = 8;

/// The per-kind message counts against the run's own counters: one
/// `Migrate` per forward migration, return and stolen-future receipt;
/// one `LineFetch` per miss that a revalidation did not save; one
/// `WriteHome` per cached write to a remote home (its write-through: every
/// other write is local or uncharged); nothing sent of the kinds a thread
/// always services in place, `ReadHome` among them (a charged read at a
/// home follows a migration, an uncharged one is in place); and the kinds
/// sum to `messages`.
fn assert_kinds_account_for_messages(name: &str, rep: &ExecReport) {
    let (s, c, sent) = (&rep.stats, &rep.cache, &rep.sent);
    assert_eq!(
        sent.get(MsgKind::Migrate),
        s.migrations + s.return_migrations + s.steals,
        "{name}: Migrate"
    );
    assert_eq!(
        sent.get(MsgKind::LineFetch),
        c.misses - c.revalidations,
        "{name}: LineFetch"
    );
    assert_eq!(
        sent.get(MsgKind::WriteHome),
        c.remote_writes,
        "{name}: WriteHome"
    );
    for kind in [
        MsgKind::CacheLookup,
        MsgKind::CacheInstall,
        MsgKind::RevalApply,
        MsgKind::ReadHome,
    ] {
        assert_eq!(sent.get(kind), 0, "{name}: {kind} is serviced in place");
    }
    assert_eq!(sent.total(), rep.messages, "{name}: kinds sum to messages");
}

/// Every kernel of the `run` golden (8 workers, local knowledge,
/// lockstep): the message breakdown `oldenc run` prints is exact.
#[test]
fn message_kinds_account_for_every_message() {
    for d in all() {
        let (_, rep) = run_exec(ExecConfig::lockstep(PROCS), move |ctx| {
            generic_run(d.name, ctx, SizeClass::Tiny).expect("known benchmark")
        });
        assert_kinds_account_for_messages(d.name, &rep);
    }
}

/// Full counter parity under the other Appendix-A coherence schemes:
/// global knowledge's pushed invalidations (sent + spurious) and
/// write-tracking cycles, and the bilateral scheme's timestamp
/// revalidations, all reconcile with the simulator's — the coherence
/// traffic really crossed worker mailboxes and produced the exact same
/// Table-3 numbers.
#[test]
fn every_scheme_reconciles_with_simulator() {
    for protocol in [Protocol::GlobalKnowledge, Protocol::Bilateral] {
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
            assert_kinds_account_for_messages(d.name, &rep);
        }
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

/// Parallel mode hands frames between OS threads on every steal and
/// completion: 200 repeated runs give a lost wake-up many chances to
/// show. The watchdog turns one into `Stalled` rather than a hang.
#[test]
fn parallel_mode_survives_repeated_runs() {
    let expected = (olden_benchmarks::by_name("TreeAdd").unwrap().reference)(SizeClass::Tiny);
    for run in 0..200 {
        let cfg = ExecConfig::parallel(4).with_stall_timeout(Duration::from_secs(2));
        let got = try_run_exec(cfg, |ctx| {
            generic_run("TreeAdd", ctx, SizeClass::Tiny).unwrap()
        })
        .unwrap_or_else(|e| panic!("run {run}: {e}"))
        .0;
        assert_eq!(got, expected, "run {run}: TreeAdd value");
    }
}
