//! `oldenc profile`: one benchmark, recorded on either backend, with the
//! recording reconciled against the run's own counters before export.
//!
//! The reconciliation is the layer's trust anchor: a Chrome trace is only
//! worth opening if its event counts are *exactly* the run's counters —
//! `count(migrate-recv) == stats.migrations`, `count(line-fetch) ==
//! cache.misses`, and so on. Both profile constructors run that identity
//! and the caller decides whether a mismatch is fatal (`oldenc profile`
//! exits 1).

use olden_benchmarks::{generic_run, Descriptor, SizeClass};
use olden_exec::{run_exec, ExecConfig, ExecReport};
use olden_net::{run_net, NetConfig};
use olden_obs::Recording;
use olden_runtime::{run, Config, RunReport};
use std::process::ExitCode;
use std::time::Instant;

/// A recorded simulator run.
pub struct SimProfile {
    pub report: RunReport,
    pub recording: Recording,
}

/// A recorded lockstep execution on the thread backend.
pub struct ExecProfile {
    pub report: ExecReport,
    pub recording: Recording,
    /// Wall-clock time of the run (excluding reporting).
    pub wall_ns: u64,
}

pub fn profile_sim(d: &Descriptor, procs: usize, size: SizeClass) -> SimProfile {
    let (value, mut report) = run(Config::olden(procs).recorded(), |ctx| (d.run)(ctx, size));
    assert_eq!(value, (d.reference)(size), "{}: value diverged", d.name);
    let recording = report
        .recording
        .take()
        .expect("recorded run yields a recording");
    SimProfile { report, recording }
}

pub fn profile_exec(d: &Descriptor, procs: usize, size: SizeClass) -> ExecProfile {
    let name = d.name;
    let t = Instant::now();
    let (value, mut report) = run_exec(ExecConfig::lockstep(procs).recorded(), move |ctx| {
        generic_run(name, ctx, size).expect("registry benchmark")
    });
    let wall_ns = t.elapsed().as_nanos() as u64;
    assert_eq!(value, (d.reference)(size), "{}: value diverged", d.name);
    let recording = report
        .recording
        .take()
        .expect("recorded run yields a recording");
    ExecProfile {
        report,
        recording,
        wall_ns,
    }
}

/// A recorded lockstep run on the multi-process net backend. The shape
/// is `ExecProfile` — same report type, same reconciliation — but every
/// event in the worker lanes was recorded in a different OS process and
/// shipped home in that worker's shutdown report.
pub fn profile_net(
    d: &Descriptor,
    procs: usize,
    size: SizeClass,
    worker_cmd: Vec<String>,
) -> ExecProfile {
    let name = d.name;
    let t = Instant::now();
    let (value, mut report) = run_net(
        NetConfig::new(ExecConfig::lockstep(procs).recorded(), worker_cmd),
        move |ctx| generic_run(name, ctx, size).expect("registry benchmark"),
    );
    let wall_ns = t.elapsed().as_nanos() as u64;
    assert_eq!(value, (d.reference)(size), "{}: value diverged", d.name);
    let recording = report
        .recording
        .take()
        .expect("recorded run yields a recording");
    ExecProfile {
        report,
        recording,
        wall_ns,
    }
}

impl SimProfile {
    /// Every count identity the recording breaks ([`Recording::reconcile`]).
    pub fn reconcile(&self) -> Vec<String> {
        let (s, misses) = (&self.report.stats, self.report.cache.misses);
        self.recording.reconcile(
            s.migrations,
            s.return_migrations,
            s.futures,
            s.steals,
            misses,
        )
    }
}

impl ExecProfile {
    /// Every count identity the recording breaks ([`Recording::reconcile`]).
    pub fn reconcile(&self) -> Vec<String> {
        let (s, misses) = (&self.report.stats, self.report.cache.misses);
        self.recording.reconcile(
            s.migrations,
            s.return_migrations,
            s.futures,
            s.steals,
            misses,
        )
    }
}

/// `oldenc profile BENCH [--trace PATH] [--procs N] [--width N] [--net]`:
/// one benchmark recorded on the simulator and the thread backend (and,
/// with `--net`, on worker processes), each recording reconciled against
/// its run's counters (exit 1 on any mismatch), per-processor timelines
/// printed, and optionally a Chrome `trace_event` JSON file written —
/// open it at `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn profile(
    d: &Descriptor,
    trace: Option<&str>,
    procs: usize,
    width: usize,
    net: bool,
) -> ExitCode {
    let sim = profile_sim(d, procs, SizeClass::Tiny);
    let exec = profile_exec(d, procs, SizeClass::Tiny);
    let net_prof = if net {
        if !olden_net::loopback_available() {
            eprintln!("oldenc: --net requires loopback TCP, unavailable here");
            return ExitCode::from(3);
        }
        match crate::parity::self_worker_cmd() {
            Ok(cmd) => Some(profile_net(d, procs, SizeClass::Tiny, cmd)),
            Err(e) => {
                eprintln!("oldenc: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let mut broken = 0usize;
    let mut surfaces = vec![("sim", sim.reconcile()), ("exec", exec.reconcile())];
    if let Some(n) = &net_prof {
        surfaces.push(("net", n.reconcile()));
    }
    for (which, bad) in surfaces {
        for b in &bad {
            eprintln!(
                "oldenc: {} {which} recording does not reconcile: {b}",
                d.name
            );
        }
        broken += bad.len();
    }
    if broken > 0 {
        eprintln!("oldenc: trace untrustworthy; nothing written");
        return ExitCode::FAILURE;
    }
    println!(
        "{} on {procs} procs: makespan {} cycles (sim), wall {:.2} ms (exec lockstep){}",
        d.name,
        sim.report.makespan,
        exec.wall_ns as f64 / 1e6,
        match &net_prof {
            Some(n) => format!(", wall {:.2} ms (net lockstep)", n.wall_ns as f64 / 1e6),
            None => String::new(),
        }
    );
    println!(
        "events: {} stored (sim) / {} stored (exec){}; counters reconcile on every backend",
        sim.recording.events_stored(),
        exec.recording.events_stored(),
        match &net_prof {
            Some(n) => format!(" / {} stored (net)", n.recording.events_stored()),
            None => String::new(),
        }
    );
    print!("{}", exec.recording.metrics().render());
    let mut lanes = vec![
        ("sim lane activity (logical time)", &sim.recording),
        ("exec lane activity (wall time)", &exec.recording),
    ];
    if let Some(n) = &net_prof {
        lanes.push((
            "net lane activity (wall time, per-process epochs)",
            &n.recording,
        ));
    }
    for (title, recording) in lanes {
        println!("-- {title} --");
        print!("{}", olden_obs::timeline::event_timeline(recording, width));
    }
    if let Some(path) = trace {
        let mut groups = vec![("sim", &sim.recording), ("exec", &exec.recording)];
        if let Some(n) = &net_prof {
            groups.push(("net", &n.recording));
        }
        let text = olden_obs::chrome::trace_json(&groups);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("oldenc: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote Chrome trace to {path} (open at https://ui.perfetto.dev)");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use olden_benchmarks::by_name;
    use olden_obs::json::Json;

    /// The acceptance identity, end to end: `profile treeadd` yields a
    /// Chrome trace whose migration/fetch span counts equal the run's
    /// counters — on both backends.
    #[test]
    fn treeadd_trace_event_counts_equal_run_counters() {
        let d = by_name("TreeAdd").unwrap();
        let sim = profile_sim(&d, 8, SizeClass::Tiny);
        let exec = profile_exec(&d, 8, SizeClass::Tiny);
        assert!(sim.reconcile().is_empty(), "{:?}", sim.reconcile());
        assert!(exec.reconcile().is_empty(), "{:?}", exec.reconcile());

        let text =
            olden_obs::chrome::trace_json(&[("sim", &sim.recording), ("exec", &exec.recording)]);
        let doc = Json::parse(&text).expect("emitted trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // Count by (pid-group, name, phase) straight off the parsed JSON —
        // the same numbers a human reads in the trace viewer.
        let count = |pid: u64, name: &str, ph: &str| {
            events
                .iter()
                .filter(|e| {
                    e.get("pid").and_then(Json::as_u64) == Some(pid)
                        && e.get("name").and_then(Json::as_str) == Some(name)
                        && e.get("ph").and_then(Json::as_str) == Some(ph)
                })
                .count() as u64
        };
        for (pid, migrations, misses, futures) in [
            (
                0,
                sim.report.stats.migrations,
                sim.report.cache.misses,
                sim.report.stats.futures,
            ),
            (
                1,
                exec.report.stats.migrations,
                exec.report.cache.misses,
                exec.report.stats.futures,
            ),
        ] {
            assert_eq!(count(pid, "migrate-recv", "i"), migrations, "pid {pid}");
            assert_eq!(count(pid, "line-fetch", "i"), misses, "pid {pid}");
            assert_eq!(count(pid, "future-body", "B"), futures, "pid {pid}");
        }
        assert!(sim.report.stats.migrations > 0, "TreeAdd migrates");
    }

    /// A deliberately broken identity is reported, not swallowed.
    #[test]
    fn reconcile_flags_a_mismatch() {
        let d = by_name("TreeAdd").unwrap();
        let p = profile_sim(&d, 4, SizeClass::Tiny);
        let bad = p.recording.reconcile(
            p.report.stats.migrations + 1, // off by one
            p.report.stats.return_migrations,
            p.report.stats.futures,
            p.report.stats.steals,
            p.report.cache.misses,
        );
        assert!(
            bad.iter().any(|b| b.contains("migrate-send")),
            "mismatch not reported: {bad:?}"
        );
    }
}
