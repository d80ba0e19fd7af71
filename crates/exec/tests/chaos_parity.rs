//! The chaos suite: every benchmark, under a sweep of seeded fault
//! schedules, must be *indistinguishable at the observation layer* from
//! the fault-free run — the tentpole guarantee of olden-chaos.
//!
//! For each benchmark, 100 seeds of [`FaultPlan::from_seed`] (drop,
//! duplicate, and reorder rates each derived from the seed) are run in
//! lockstep mode and held to:
//!
//! - **Values** byte-equal to the fault-free simulator's (which equals
//!   the serial reference, by `backend_parity`).
//! - **Event counters** — migrations, steals, touches, cache hits and
//!   misses, pages cached, even the serviced-message count — byte-equal
//!   to the fault-free simulator and the fault-free execution. Retries
//!   and suppressed duplicates must be *invisible* here.
//! - **Conservation** — `sends = deliveries + drops`, every drop paid
//!   for by a retry, every delivery serviced exactly once or suppressed
//!   as a duplicate, and every drop present in the fault log. (The first
//!   three equations are also self-checked inside `try_run_exec` on
//!   every successful run.)
//!
//! The sweep must also actually exercise the machinery: across each
//! benchmark's 100 seeds the schedules are required to have injected
//! drops, back-to-back duplicates, and delayed duplicates.

use olden_benchmarks::{generic_run, SizeClass};
use olden_exec::{run_exec, ExecConfig, ExecReport, Protocol};
use olden_runtime::{CacheStats, Config, FaultTag, OldenCtx, RunStats, TransportStats};

const PROCS: usize = 4;
const SEEDS: u64 = 100;

fn exec_with(name: &'static str, cfg: ExecConfig) -> (u64, ExecReport) {
    run_exec(cfg, move |ctx| {
        generic_run(name, ctx, SizeClass::Tiny).expect("known benchmark")
    })
}

/// The observable fingerprint of a run: everything that must be
/// invariant under fault injection.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    value: u64,
    stats: RunStats,
    cache: CacheStats,
    pages_cached: u64,
    messages: u64,
}

impl Fingerprint {
    fn of(value: u64, rep: &ExecReport) -> Fingerprint {
        Fingerprint {
            value,
            stats: rep.stats,
            cache: rep.cache,
            pages_cached: rep.pages_cached,
            messages: rep.messages,
        }
    }
}

fn chaos_sweep(name: &'static str) {
    // Fault-free baselines: the simulator and the quiet execution agree
    // (backend_parity pins this too; restated here so a divergence
    // reports locally).
    let mut sim = OldenCtx::new(Config::olden(PROCS));
    let sim_val = generic_run(name, &mut sim, SizeClass::Tiny).expect("known benchmark");
    let (base_val, base_rep) = exec_with(name, ExecConfig::lockstep(PROCS));
    let base = Fingerprint::of(base_val, &base_rep);
    assert_eq!(base_val, sim_val, "{name}: fault-free exec vs simulator");
    assert_eq!(
        base_rep.diff_from_sim(sim.stats(), sim.cache().stats(), sim.cache().pages_cached()),
        None,
        "{name}: fault-free counters"
    );
    assert_eq!(
        base_rep.transport,
        TransportStats {
            sends: base_rep.messages,
            deliveries: base_rep.messages,
            ..TransportStats::default()
        },
        "{name}: a quiet transport is perfect"
    );

    let mut injected = [0u64; 3]; // drops, dupes, delayed dupes over the sweep
    for seed in 0..SEEDS {
        let (val, rep) = exec_with(name, ExecConfig::lockstep(PROCS).chaotic(seed));
        assert_eq!(
            Fingerprint::of(val, &rep),
            base,
            "{name} seed {seed}: a faulty transport must be invisible above the transport layer"
        );
        // Conservation, including the log: every drop the counters saw
        // is in the fault log and vice versa. (FaultLog caps its event
        // *list*, never its counts.)
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
            "{name} seed {seed}: sends conserved"
        );
        injected[0] += rep.faults.count(FaultTag::Dropped);
        injected[1] += rep.faults.count(FaultTag::Duplicated);
        injected[2] += rep.faults.count(FaultTag::DelayedDuplicate);
    }
    assert!(
        injected.iter().all(|&n| n > 0),
        "{name}: the sweep must inject every fault kind, got {injected:?} \
         (drops / duplicates / delayed duplicates)"
    );
}

/// The coherence schemes' extra traffic — sharer queries, pushed
/// invalidations, timestamp bumps, revalidation round trips — is itself
/// chaos-proof: under global knowledge and the bilateral scheme every
/// chaotic run's fingerprint (including the scheme-specific Table-3
/// counters, via the full [`CacheStats`]) equals the quiet run's.
#[test]
fn coherence_schemes_survive_chaos() {
    for protocol in [Protocol::GlobalKnowledge, Protocol::Bilateral] {
        for name in ["TreeAdd", "EM3D", "Health"] {
            let cfg = ExecConfig::lockstep(PROCS).with_protocol(protocol);
            let (base_val, base_rep) = exec_with(name, cfg);
            let base = Fingerprint::of(base_val, &base_rep);
            let mut injected = 0;
            for seed in 0..25 {
                let (val, rep) = exec_with(name, cfg.chaotic(seed));
                assert_eq!(
                    Fingerprint::of(val, &rep),
                    base,
                    "{name} under {protocol:?} seed {seed}: faults must stay \
                     invisible to the coherence traffic"
                );
                injected += rep.faults.total();
            }
            assert!(injected > 0, "{name} under {protocol:?}: nothing injected");
        }
    }
}

#[test]
fn treeadd_survives_chaos() {
    chaos_sweep("TreeAdd");
}

#[test]
fn power_survives_chaos() {
    chaos_sweep("Power");
}

#[test]
fn tsp_survives_chaos() {
    chaos_sweep("TSP");
}

#[test]
fn mst_survives_chaos() {
    chaos_sweep("MST");
}

#[test]
fn bisort_survives_chaos() {
    chaos_sweep("Bisort");
}

#[test]
fn voronoi_survives_chaos() {
    chaos_sweep("Voronoi");
}

#[test]
fn em3d_survives_chaos() {
    chaos_sweep("EM3D");
}

#[test]
fn barneshut_survives_chaos() {
    chaos_sweep("Barnes-Hut");
}

#[test]
fn perimeter_survives_chaos() {
    chaos_sweep("Perimeter");
}

#[test]
fn health_survives_chaos() {
    chaos_sweep("Health");
}
