//! The starvation property: 100% drop of any single message class fails
//! the run with a typed [`ExecError::Starved`] naming the starved kind —
//! never a raw panic payload, never a deadlock, never a watchdog trip.
//!
//! The scheme-independent kinds are exercised by one kernel under local
//! knowledge; the coherence-traffic kinds need the scheme that emits them
//! (sharer queries and pushed invalidations exist only under global
//! knowledge, timestamp bumps and revalidations only under the bilateral
//! scheme), so each kind runs its own (protocol, kernel) pair.
//!
//! Four kinds are never sent by the thread backend ([`IN_PLACE`]): three
//! are always addressed to the processor the logical thread occupies, and
//! a `ReadHome` is either local (after a migration) or uncharged, so the
//! thread services each in place and starving it here must change
//! nothing. They are starved over sockets instead (`olden-net`'s
//! `net_parity`), so every data-plane kind fails typed on some backend.

use olden_exec::{try_run_exec, ExecConfig, ExecCtx, ExecError, FaultPlan, MsgKind, Protocol};
use olden_runtime::{Backend, Config, Mechanism, OldenCtx};
use std::time::Duration;

/// The kinds a thread-backend run never sends, each with the message kind
/// that always travels beside it (a lookup or install brackets every line
/// fetch; a revalidation query is always followed by its apply; a
/// migration arrives before its local read), so the coverage check knows
/// the in-place request really happened.
const IN_PLACE: [(MsgKind, MsgKind); 4] = [
    (MsgKind::CacheLookup, MsgKind::LineFetch),
    (MsgKind::CacheInstall, MsgKind::LineFetch),
    (MsgKind::RevalApply, MsgKind::RevalQuery),
    (MsgKind::ReadHome, MsgKind::Migrate),
];

fn in_place_witness(kind: MsgKind) -> Option<MsgKind> {
    IN_PLACE.iter().find(|(k, _)| *k == kind).map(|&(_, w)| w)
}

/// Sends every scheme-independent data-plane [`MsgKind`] at least once
/// when unfaulted (allocation, a home write, a line fetch around its
/// in-place lookup and install, a sanitized cache hit, a migration before
/// its in-place home read, a race query).
fn universal_kernel<B: Backend>(ctx: &mut B) {
    let a = ctx.alloc(1, 2); // Alloc, on a remote home
    ctx.write(a, 0, 7i64, Mechanism::Cache); // lookup miss → LineFetch → install → WriteHome
    ctx.read_i64(a, 0, Mechanism::Cache); // lookup hit → SanitizeHit (sanitized run)
    ctx.read_i64(a, 1, Mechanism::Migrate); // Migrate, then a local ReadHome
    ctx.race_violations(); // RaceQuery to the other processors
}

/// Global knowledge: the second departure (the call's return migration)
/// finds a dirty line whose page has a sharer other than the departing
/// processor — SharerQuery to the home, then InvalidateLines to proc 0.
fn global_kernel<B: Backend>(ctx: &mut B) {
    let a = ctx.alloc(1, 1);
    let probe = ctx.alloc(2, 1);
    ctx.write(a, 0, 1i64, Mechanism::Cache); // proc 0 becomes a sharer, line dirty
    ctx.call(|c| {
        c.read_i64(probe, 0, Mechanism::Migrate); // depart 0 → SharerQuery (no sharers but 0)
        c.write(a, 0, 2i64, Mechanism::Cache); // proc 2 becomes a sharer, line dirty
    }); // return depart 2 → SharerQuery + InvalidateLines → 0
}

/// Bilateral: departing with a dirty line sends BumpTs to its home; the
/// return receipt marks proc 0's cache, so the next cached read of `a`
/// revalidates — RevalQuery to the home, then the apply in place.
fn bilateral_kernel<B: Backend>(ctx: &mut B) {
    let a = ctx.alloc(1, 1);
    let probe = ctx.alloc(2, 1);
    ctx.write(a, 0, 1i64, Mechanism::Cache); // cache the line, mark it dirty
    ctx.call(|c| {
        c.read_i64(probe, 0, Mechanism::Migrate); // depart 0 → BumpTs → home 1
    }); // return receipt marks proc 0's cached pages
    ctx.read_i64(a, 0, Mechanism::Cache); // marked page → RevalQuery + RevalApply
}

/// A scheme with one kernel instantiated for the thread backend and for
/// the simulator.
type Scenario = (Protocol, fn(&mut ExecCtx), fn(&mut OldenCtx));

/// The scheme whose kernel emits `kind`, with that kernel on each backend.
fn scenario_for(kind: MsgKind) -> Scenario {
    match kind {
        MsgKind::SharerQuery | MsgKind::InvalidateLines => {
            (Protocol::GlobalKnowledge, global_kernel, global_kernel)
        }
        MsgKind::BumpTs | MsgKind::RevalQuery | MsgKind::RevalApply => {
            (Protocol::Bilateral, bilateral_kernel, bilateral_kernel)
        }
        _ => (Protocol::LocalKnowledge, universal_kernel, universal_kernel),
    }
}

fn cfg(protocol: Protocol, plan: FaultPlan) -> ExecConfig {
    ExecConfig::lockstep(4)
        .sanitized()
        .with_protocol(protocol)
        .with_stall_timeout(Duration::from_secs(30))
        .with_faults(plan)
}

/// The kernels really do exercise every data-plane kind (otherwise the
/// starvation sweep below would vacuously pass for an unexercised kind):
/// each is sent, or — for the in-place kinds — never sent while the
/// message beside it is.
#[test]
fn kernels_cover_every_data_plane_kind() {
    for kind in MsgKind::DATA_PLANE {
        let (protocol, kernel, _) = scenario_for(kind);
        let (_, rep) =
            try_run_exec(cfg(protocol, FaultPlan::none()), kernel).expect("unfaulted run succeeds");
        match in_place_witness(kind) {
            None => assert!(rep.sent.get(kind) > 0, "{kind}: never sent"),
            Some(witness) => {
                assert_eq!(rep.sent.get(kind), 0, "{kind}: sent, not serviced in place");
                assert!(rep.sent.get(witness) > 0, "{kind}: {witness} never sent");
            }
        }
    }
}

/// Starving each sent class yields `Starved` naming exactly that class,
/// as a value — the run neither hangs (watchdog would say `Stalled`) nor
/// escapes as an untyped panic (`try_run_exec` would propagate it and
/// the test would abort, not fail an assertion). Starving an in-place
/// kind leaves the run clean and byte-equal to the simulator: a request
/// serviced in place cannot be lost.
#[test]
fn every_starved_class_fails_with_its_own_name() {
    for kind in MsgKind::DATA_PLANE {
        let (protocol, kernel, sim_kernel) = scenario_for(kind);
        let plan = FaultPlan::from_seed(99).starving(kind);
        let res = try_run_exec(cfg(protocol, plan), kernel);
        if in_place_witness(kind).is_some() {
            let (_, rep) = res.unwrap_or_else(|e| panic!("{kind} starved in place: {e}"));
            let mut sim = OldenCtx::new(Config::olden(4).sanitized().with_protocol(protocol));
            sim_kernel(&mut sim);
            let diff =
                rep.diff_from_sim(sim.stats(), sim.cache().stats(), sim.cache().pages_cached());
            assert_eq!(diff, None, "{kind}: starved run vs simulator");
            continue;
        }
        let err = res.expect_err("a starved class cannot complete");
        match err {
            ExecError::Starved {
                kind: got,
                attempts,
                ..
            } => {
                assert_eq!(got, kind, "error names the starved class");
                assert_eq!(attempts, plan.max_attempts, "retry budget was exhausted");
            }
            ref other => panic!("{kind}: expected Starved, got {other:?}"),
        }
        assert!(
            err.to_string().contains(kind.name()),
            "{kind}: display names the class: {err}"
        );
    }
}
