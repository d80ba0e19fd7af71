//! The chaos suite under the non-default coherence schemes: seeded fault
//! schedules must stay *indistinguishable at the observation layer* from
//! the fault-free run.
//!
//! Local knowledge is pinned elsewhere: the `chaos` row of
//! `goldens_are_current` runs all ten benchmarks on 8 workers under 32
//! seeds each, holding value, every counter, pages and the serviced-message
//! count to the fault-free simulator and pinning the per-benchmark fault
//! and retry totals; `assemble_report` self-checks transport conservation
//! on every run. This suite covers what that row does not — global
//! knowledge and the bilateral scheme.

use olden_benchmarks::{generic_run, SizeClass};
use olden_exec::{run_exec, ExecConfig, ExecReport, Protocol};
use olden_runtime::{CacheStats, RunStats};

const PROCS: usize = 4;

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
