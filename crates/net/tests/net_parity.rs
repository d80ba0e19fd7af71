//! The network backend's tentpole gate: real worker *processes* over
//! real loopback sockets are observationally identical to the simulator.
//!
//! - **Lockstep counter equality, all ten benchmarks** — values equal
//!   the serial references and every runtime / cache counter equals the
//!   simulator's, exactly as the thread backend's `backend_parity`
//!   suite pins, but with every remote word crossing a TCP frame
//!   between OS processes.
//! - **Chaos over real sockets** — ≥ 25 seeded fault schedules replayed
//!   over the socket transport are byte-equal to the fault-free
//!   simulator in values, stats, and cache counters, with transport
//!   conservation intact. Verdicts are sender-side, so TCP's
//!   reliability and the fault model compose instead of fighting.
//! - The sanitizer's piggybacked vector clocks and the obs recording
//!   both survive serialization end-to-end.
//!
//! Every test skips (loudly) when the sandbox denies loopback TCP.

use olden_benchmarks::{all, generic_run, SizeClass};
use olden_exec::{run_exec, ExecConfig, ExecReport, Protocol};
use olden_net::{loopback_available, run_net, NetConfig};
use olden_obs::EventKind;
use olden_runtime::{Config, FaultTag, OldenCtx, TransportStats};

const PROCS: usize = 4;

/// 13 seeds on each of two benchmarks = 26 socket chaos schedules.
const CHAOS_SEEDS: u64 = 13;

fn net_cfg(exec: ExecConfig) -> NetConfig {
    NetConfig::new(
        exec,
        vec![env!("CARGO_BIN_EXE_olden-net-worker").to_string()],
    )
}

fn net_with(name: &'static str, exec: ExecConfig) -> (u64, ExecReport) {
    run_net(net_cfg(exec), move |ctx| {
        generic_run(name, ctx, SizeClass::Tiny).expect("known benchmark")
    })
}

macro_rules! require_loopback {
    () => {
        if !loopback_available() {
            eprintln!("SKIP: loopback TCP unavailable in this environment");
            return;
        }
    };
}

/// The first counter on which `rep` differs from the simulator run.
fn sim_diff(rep: &ExecReport, sim: &OldenCtx) -> Option<String> {
    rep.diff_from_sim(sim.stats(), sim.cache().stats(), sim.cache().pages_cached())
}

/// Every benchmark: reference value and full counter parity with the
/// simulator, across four worker processes.
#[test]
fn all_benchmark_counters_reconcile_with_simulator_over_tcp() {
    require_loopback!();
    for d in all() {
        let expected = (d.reference)(SizeClass::Tiny);
        let mut sim = OldenCtx::new(Config::olden(PROCS));
        let sim_val = generic_run(d.name, &mut sim, SizeClass::Tiny).unwrap();
        let (got, rep) = net_with(d.name, ExecConfig::lockstep(PROCS));
        assert_eq!(
            got, expected,
            "{} value on {PROCS} worker processes",
            d.name
        );
        assert_eq!(got, sim_val, "{} value vs simulator", d.name);
        assert_eq!(sim_diff(&rep, &sim), None, "{} counters", d.name);
        assert!(rep.messages > 0, "{} exchanged no frames", d.name);
        assert_eq!(
            rep.transport,
            TransportStats {
                sends: rep.messages,
                deliveries: rep.messages,
                ..TransportStats::default()
            },
            "{} quiet socket transport is perfect",
            d.name
        );
    }
}

/// Every benchmark under every Appendix-A coherence scheme: the pushed
/// invalidations, timestamp bumps, and revalidation round trips cross
/// real TCP frames (the `<protocol>` argument travels to each worker
/// process on its command line), and the full cache-counter block —
/// including the scheme-specific Table-3 columns — still equals the
/// simulator's.
#[test]
fn every_scheme_reconciles_with_simulator_over_tcp() {
    require_loopback!();
    for protocol in [Protocol::GlobalKnowledge, Protocol::Bilateral] {
        for d in all() {
            let mut sim = OldenCtx::new(Config::olden(PROCS).with_protocol(protocol));
            let sim_val = generic_run(d.name, &mut sim, SizeClass::Tiny).unwrap();
            let (got, rep) = net_with(d.name, ExecConfig::lockstep(PROCS).with_protocol(protocol));
            assert_eq!(got, sim_val, "{} value under {protocol:?}", d.name);
            assert_eq!(
                sim_diff(&rep, &sim),
                None,
                "{} counters under {protocol:?}",
                d.name
            );
        }
    }
}

fn chaos_over_sockets(name: &'static str) {
    // The fault-free simulator is the oracle; every seeded schedule over
    // real sockets must be indistinguishable from it.
    let mut sim = OldenCtx::new(Config::olden(PROCS));
    let sim_val = generic_run(name, &mut sim, SizeClass::Tiny).expect("known benchmark");
    let (base_val, base_rep) = net_with(name, ExecConfig::lockstep(PROCS));
    assert_eq!(base_val, sim_val, "{name}: fault-free net vs simulator");
    assert_eq!(
        sim_diff(&base_rep, &sim),
        None,
        "{name}: fault-free counters"
    );

    let mut injected = [0u64; 3];
    for seed in 0..CHAOS_SEEDS {
        // Value, every counter and even the serviced-frame count: faults
        // on a real socket must be invisible above the transport.
        let (val, rep) = net_with(name, ExecConfig::lockstep(PROCS).chaotic(seed));
        assert_eq!(val, sim_val, "{name} seed {seed}: value");
        assert_eq!(sim_diff(&rep, &sim), None, "{name} seed {seed}: counters");
        assert_eq!(
            rep.messages, base_rep.messages,
            "{name} seed {seed}: frames"
        );
        assert_eq!(
            rep.faults.count(FaultTag::Dropped),
            rep.transport.drops,
            "{name} seed {seed}: drop accounting"
        );
        assert_eq!(
            rep.transport.retries, rep.transport.drops,
            "{name} seed {seed}: every drop was retried"
        );
        assert_eq!(
            rep.transport.sends,
            rep.transport.deliveries + rep.transport.drops,
            "{name} seed {seed}: sends conserved across process boundaries"
        );
        injected[0] += rep.faults.count(FaultTag::Dropped);
        injected[1] += rep.faults.count(FaultTag::Duplicated);
        injected[2] += rep.faults.count(FaultTag::DelayedDuplicate);
    }
    assert!(
        injected.iter().all(|&n| n > 0),
        "{name}: the sweep must inject every fault kind over sockets, got {injected:?}"
    );
}

#[test]
fn treeadd_survives_chaos_over_sockets() {
    require_loopback!();
    chaos_over_sockets("TreeAdd");
}

#[test]
fn power_survives_chaos_over_sockets() {
    require_loopback!();
    chaos_over_sockets("Power");
}

/// The sanitizer's vector clocks piggyback on every heap message; over
/// the socket transport they serialize, travel, and join exactly as in
/// process. Held to the labelled racy corpus: every racy seed is flagged
/// with detections byte-equal to the simulator's, every clean seed stays
/// silent — so neither dropped nor corrupted clocks can hide.
#[test]
fn sanitizer_clocks_survive_the_wire() {
    require_loopback!();
    use olden_benchmarks::racy::{run_seed, seeds};
    for seed in seeds() {
        let mut ctx = OldenCtx::new(Config::olden(PROCS).sanitized());
        run_seed(seed.name, &mut ctx).expect("known seed");
        let mut sim = ctx.race_violations();
        sim.sort();

        let name = seed.name;
        let (_, rep) = run_net(
            net_cfg(ExecConfig::lockstep(PROCS).sanitized()),
            move |ctx| {
                run_seed(name, ctx).expect("known seed");
            },
        );
        let mut net = rep.races;
        net.sort();
        assert_eq!(
            sim, net,
            "{}: lockstep detections over sockets must mirror the simulator",
            seed.name
        );
        assert_eq!(
            seed.racy,
            !net.is_empty(),
            "{}: detection flag must match the corpus label",
            seed.name
        );
    }
}

/// Obs recording round-trips through worker shutdown reports: the net
/// run produces the same per-kind event totals as the thread backend,
/// with one lane per worker process present by label.
#[test]
fn recording_lanes_cross_the_process_boundary() {
    require_loopback!();
    let (_, net_rep) = net_with("Power", ExecConfig::lockstep(PROCS).recorded());
    let (_, exec_rep) = run_exec(ExecConfig::lockstep(PROCS).recorded(), |ctx| {
        generic_run("Power", ctx, SizeClass::Tiny).expect("known benchmark")
    });
    let net_rec = net_rep.recording.expect("net run recorded");
    let exec_rec = exec_rep.recording.expect("exec run recorded");
    for p in 0..PROCS {
        let label = format!("worker{p:02}");
        assert!(
            net_rec.lanes.iter().any(|l| l.label == label),
            "lane {label} missing from the net recording"
        );
    }
    for kind in EventKind::ALL {
        assert_eq!(
            net_rec.count(kind),
            exec_rec.count(kind),
            "{kind:?} events across backends"
        );
    }
}

/// Parallel mode over processes: future bodies run on their own client
/// threads, each with its own socket fan-out; values still match the
/// references and the data-dependent counters still match the simulator.
#[test]
fn parallel_mode_values_hold_over_tcp() {
    require_loopback!();
    for name in ["TreeAdd", "Power"] {
        let d = olden_benchmarks::by_name(name).unwrap();
        let expected = (d.reference)(SizeClass::Tiny);
        let mut sim = OldenCtx::new(Config::olden(PROCS));
        generic_run(name, &mut sim, SizeClass::Tiny).unwrap();
        let (got, rep) = net_with(name, ExecConfig::parallel(PROCS));
        assert_eq!(got, expected, "{name} value in parallel mode over TCP");
        assert_eq!(
            rep.stats.migrations,
            sim.stats().migrations,
            "{name} migrations"
        );
        assert_eq!(rep.stats.steals, sim.stats().steals, "{name} steals");
        assert_eq!(rep.stats.futures, sim.stats().futures, "{name} futures");
        assert!(
            rep.clients > 1,
            "{name} parallel mode spawned client threads"
        );
    }
}
