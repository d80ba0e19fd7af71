//! One workload, one process: the end-to-end run (tracing off) and the
//! traced run that yields the per-layer numbers.

use crate::layers;
use crate::pins::Pins;
use crate::report::{per_layer_catalog, Env, Metric, RunResult, END_TO_END, KERNELS};
use crate::span::Tracer;
use crate::stats::{median, percentile};
use crate::sys;
use crate::workloads::{Counts, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// Timed rounds below which a run keeps going past `--seconds`: p90 needs
/// ten samples beyond it.
const MIN_ROUNDS: u64 = 100;
/// Warm-up rounds at the end of every set-up.
const WARMUP_ROUNDS: u64 = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: u64 = 3;
/// Rounds per throughput window: `jobs_per_s` is the median window's.
const THROUGHPUT_WINDOW: usize = 10;
/// Rounds per workload in `--smoke`.
const SMOKE_ROUNDS: u64 = 3;
/// Traced rounds of each workload other than the selected one.
const SIDE_ROUNDS: u64 = 3;
/// Rounds of the selected workload whose spans go into its trace file.
const TRACE_FILE_ROUNDS: u32 = 20;
/// The exit code for "loopback TCP is denied here" (house convention).
pub const EXIT_NO_LOOPBACK: u8 = 3;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Self-test only: flip one pinned value of each kind first.
    pub corrupt: bool,
}

pub enum Failure {
    NoLoopback,
    Other(String),
}

impl From<String> for Failure {
    fn from(s: String) -> Failure {
        Failure::Other(s)
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| {
            String::from_utf8_lossy(&o.stdout)
                .trim()
                .replace('\n', "; ")
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The worker command of the net backend: this binary, re-entered through
/// its hidden `net-worker` argument.
fn worker_cmd() -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(vec![
        exe.to_string_lossy().into_owned(),
        "net-worker".into(),
    ])
}

/// A built workload plus the rounds it has run.
struct Session {
    workload: Workload,
    seed: u64,
    tr: Tracer,
    counts: Counts,
    next_round: u64,
    failed: u64,
    attempted: u64,
}

impl Session {
    /// Build the job list and run `warmup` rounds: one set-up.
    fn set_up(
        name: &str,
        seed: u64,
        pins: &Pins,
        cmd: &[String],
        traced: bool,
        warmup: u64,
    ) -> Result<Session, String> {
        // Set-up spans are recorded (they carry `analysis.gen`); warm-up
        // rounds are not, so a layer's totals are timed rounds only.
        let mut tr = Tracer::new(traced);
        let workload = Workload::build(name, seed, pins, cmd, &mut tr)?;
        let mut s = Session {
            workload,
            seed,
            tr,
            counts: Counts::default(),
            next_round: 0,
            failed: 0,
            attempted: 0,
        };
        for _ in 0..warmup {
            s.untraced_round();
        }
        Ok(s)
    }

    /// A round that leaves no spans and no boundary counts behind.
    fn untraced_round(&mut self) -> f64 {
        let was_on = self.tr.set_on(false);
        let counts = std::mem::take(&mut self.counts);
        let ms = self.round();
        self.counts = counts;
        self.tr.set_on(was_on);
        ms
    }

    /// Run the next round; returns its wall time in ms.
    fn round(&mut self) -> f64 {
        let r = self
            .workload
            .run_round(self.seed, self.next_round, &mut self.tr, &mut self.counts);
        self.next_round += 1;
        self.attempted += self.workload.jobs.len() as u64;
        self.failed += r.failed;
        r.wall_ns as f64 / 1e6
    }
}

/// What must be read before the process pins itself.
fn env_before_pinning() -> Env {
    Env {
        nproc: sys::nproc() as u64,
        affinity: sys::allowed_cpus().into_iter().map(|c| c as u64).collect(),
        loadavg_start: sys::loadavg1().unwrap_or(-1.0),
        ..Env::default()
    }
}

/// Close the environment record. `git` and `rustc` are asked only now:
/// they are child processes, and a child's peak memory would otherwise
/// be read as a worker's by `peak_rss_mb`.
fn finish_env(env: &mut Env, warnings: &mut Vec<String>) {
    env.calib_ms_after = sys::calib_ms();
    env.git_commit = command_line("git", &["rev-parse", "HEAD"]);
    env.rustc = command_line("rustc", &["-vV"]);
    env.loadavg_end = sys::loadavg1().unwrap_or(-1.0);
    let load = env.loadavg_start.max(env.loadavg_end);
    if load > env.nproc as f64 {
        warnings.push(format!(
            "loadavg {load:.2} above nproc {}: timings are contended",
            env.nproc
        ));
    }
    let drift = (env.calib_ms_after - env.calib_ms_before).abs() / env.calib_ms_before;
    if drift > 0.10 {
        warnings.push(format!(
            "host.calib_ms moved {:.0}% during the run ({:.2} -> {:.2} ms): the host changed speed",
            drift * 100.0,
            env.calib_ms_before,
            env.calib_ms_after
        ));
    }
}

/// Run `opts.workload` and report. Pins the process to one CPU first and
/// refuses to time anything if that fails.
pub fn run(opts: &Options) -> Result<RunResult, Failure> {
    let mut env = env_before_pinning();
    // Before the first thread is spawned, so every worker inherits it.
    let cpu = sys::pin_to_one_cpu()
        .map_err(|e| format!("cannot pin to one CPU ({e}); refusing to report timings"))?;
    env.pinned_cpu = cpu as u64;
    env.calib_ms_before = sys::calib_ms();

    let mut pins = Pins::load()?;
    if opts.corrupt {
        pins.corrupt();
    }
    let cmd = worker_cmd()?;
    let needs_net = opts.trace || opts.workload == "net-loopback";
    if needs_net && !olden_net::loopback_available() {
        return Err(Failure::NoLoopback);
    }

    let mut result = RunResult {
        workload: opts.workload.clone(),
        seed: opts.seed,
        traced: opts.trace,
        smoke: opts.smoke,
        ..RunResult::default()
    };
    if opts.trace {
        traced_run(opts, &pins, &cmd, &mut result, env.calib_ms_before)?;
    } else {
        end_to_end_run(opts, &pins, &cmd, &mut result)?;
    }
    finish_env(&mut env, &mut result.warnings);
    result.env = env;
    Ok(result)
}

/// p90 where the sample allows it; a smoke run's three rounds report
/// their slowest instead (it gives no timing verdict).
fn p90(sorted: &[f64], smoke: bool) -> Result<f64, String> {
    match percentile(sorted, 0.9) {
        Ok(v) => Ok(v),
        Err(_) if smoke => Ok(*sorted.last().expect("a smoke run has rounds")),
        Err(e) => Err(e),
    }
}

fn end_to_end_run(
    opts: &Options,
    pins: &Pins,
    cmd: &[String],
    out: &mut RunResult,
) -> Result<(), String> {
    let (repeats, warmup) = if opts.smoke {
        (1, 1)
    } else {
        (SETUP_REPEATS, WARMUP_ROUNDS)
    };
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..repeats {
        drop(session.take());
        let t = Instant::now();
        session = Some(Session::set_up(
            &opts.workload,
            opts.seed,
            pins,
            cmd,
            false,
            warmup,
        )?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut s = session.expect("at least one set-up");
    // Until `--seconds` have passed and MIN_ROUNDS are in; a smoke run
    // stops at SMOKE_ROUNDS.
    let start = Instant::now();
    let mut ms = Vec::new();
    let floor = if opts.smoke { SMOKE_ROUNDS } else { MIN_ROUNDS };
    while (ms.len() as u64) < floor
        || (!opts.smoke && start.elapsed().as_secs_f64() < opts.seconds as f64)
    {
        ms.push(s.round());
    }
    let jobs = s.workload.jobs.len() as u64;
    out.rounds = ms.len() as u64;
    out.jobs_per_round = jobs;
    out.setup_repeats = repeats;
    // Warm-up rounds are set-up, not load; but a job that fails there is
    // a wrong output all the same, so they stay in both counts.
    out.attempted = s.attempted;
    out.failed = s.failed;
    let rss = sys::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?
        + sys::children_peak_rss_mb();
    // Throughput is the median over windows of THROUGHPUT_WINDOW rounds:
    // a burst of host noise slows a window or two, not the figure.
    let window_jobs_per_s: Vec<f64> = ms
        .chunks(THROUGHPUT_WINDOW)
        .map(|w| (w.len() as u64 * jobs) as f64 / (w.iter().sum::<f64>() / 1e3))
        .collect();
    ms.sort_by(f64::total_cmp);
    let values = [
        median(&setups),
        median(&window_jobs_per_s),
        median(&ms),
        p90(&ms, opts.smoke)?,
        rss,
    ];
    out.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name.to_string(),
            value,
            unit: m.unit.to_string(),
            exact: false,
            gated: m.gated,
        })
        .collect();
    Ok(())
}

fn traced_run(
    opts: &Options,
    pins: &Pins,
    cmd: &[String],
    out: &mut RunResult,
    calib_ms: f64,
) -> Result<(), String> {
    let (side_rounds, reps) = if opts.smoke { (1, 1) } else { (SIDE_ROUNDS, 3) };
    let warmup = if opts.smoke { 1 } else { WARMUP_ROUNDS };

    // The selected workload alternates untraced and traced rounds, so
    // both medians see the same host and their ratio is the tracing
    // overhead.
    let mut own = Session::set_up(&opts.workload, opts.seed, pins, cmd, true, warmup)?;
    let first_timed = own.next_round;
    let start = Instant::now();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let pairs = if opts.smoke { SMOKE_ROUNDS } else { 20 };
    while (traced_ms.len() as u64) < pairs
        || (!opts.smoke && start.elapsed().as_secs_f64() < opts.seconds as f64)
    {
        untraced_ms.push(own.untraced_round());
        traced_ms.push(own.round());
    }
    let overhead = median(&traced_ms) / median(&untraced_ms) - 1.0;

    // Every workload contributes its layers' spans and counts: the
    // selected one from the rounds above, the others from a few rounds.
    let mut sessions: BTreeMap<&str, (Session, Vec<f64>)> = BTreeMap::new();
    for (name, _) in WORKLOADS {
        if name == opts.workload {
            continue;
        }
        let mut s = Session::set_up(name, opts.seed, pins, cmd, true, 1)?;
        let ms = (0..side_rounds).map(|_| s.round()).collect();
        sessions.insert(name, (s, ms));
    }
    let own_name = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == opts.workload)
        .expect("workload was built, so it is listed");
    sessions.insert(own_name, (own, traced_ms));

    let mut probe_tr = Tracer::new(true);
    let mut probed = layers::machine(reps, &mut probe_tr);
    probed.extend(layers::cache(if opts.smoke { 20_000 } else { 200_000 }));
    let net_round_ms = median(&sessions["net-loopback"].1);
    let twin = sessions["net-loopback"].0.workload.threads_twin();
    {
        let migrate = &sessions["exec-migrate"].0.workload;
        probed.extend(layers::exec(migrate, 5 * reps, &mut probe_tr));
        probed.extend(layers::obs(migrate, reps, &mut probe_tr));
    }
    probed.extend(layers::net(
        net_round_ms,
        &twin,
        cmd,
        reps,
        opts.seed,
        &mut probe_tr,
    ));

    let mut values: BTreeMap<String, f64> = probed
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    derive_layer_metrics(&sessions, &mut values);
    values.insert("host.calib_ms".into(), calib_ms);
    values.insert("trace.overhead_share".into(), overhead);
    let spans: usize = sessions.values().map(|(s, _)| s.tr.spans().len()).sum();
    values.insert(
        "trace.spans".into(),
        (spans + probe_tr.spans().len()) as f64,
    );

    let (own, own_ms) = &sessions[own_name];
    out.rounds = own_ms.len() as u64;
    out.jobs_per_round = own.workload.jobs.len() as u64;
    out.setup_repeats = 1;
    out.attempted = sessions.values().map(|(s, _)| s.attempted).sum();
    out.failed = sessions.values().map(|(s, _)| s.failed).sum();
    out.metrics = per_layer_catalog()
        .into_iter()
        .map(|m| {
            let value = values
                .remove(&m.name)
                .ok_or_else(|| format!("traced run produced no {}", m.name))?;
            Ok(Metric {
                name: m.name,
                value,
                unit: m.unit.to_string(),
                exact: m.exact,
                gated: true,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some(extra) = values.keys().next() {
        return Err(format!("traced run produced uncatalogued metric {extra}"));
    }

    std::fs::create_dir_all("perf/out").map_err(|e| format!("perf/out: {e}"))?;
    let path = format!("perf/out/{own_name}.trace.json");
    // Every other timed round is traced.
    let keep = first_timed as u32 + 2 * TRACE_FILE_ROUNDS;
    std::fs::write(&path, own.tr.chrome_json(own_name, keep))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(())
}

/// The per-layer metrics that come from spans and boundary counts of the
/// workloads' own rounds.
fn derive_layer_metrics(
    sessions: &BTreeMap<&str, (Session, Vec<f64>)>,
    values: &mut BTreeMap<String, f64>,
) {
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    let rounds = |w: &str| sessions[w].1.len() as f64;
    let per_round = |w: &str, key: &str| sessions[w].0.counts.get(key) / rounds(w);
    let wall_ms = |w: &str| sessions[w].1.iter().sum::<f64>();

    // analysis: mean self time per program of each phase of dsl-compile.
    let compile = sessions["dsl-compile"].0.tr.by_name();
    for phase in [
        "parse",
        "typecheck",
        "select",
        "lower",
        "opt",
        "racecheck",
        "scheme",
        "gen",
    ] {
        let agg = compile.get(format!("analysis.{phase}").as_str());
        put(
            &format!("analysis.{phase}_us"),
            agg.copied().unwrap_or_default().mean_self_us(),
        );
    }
    put(
        "analysis.src_bytes",
        per_round("dsl-compile", "analysis.src_bytes"),
    );
    put(
        "analysis.ir_sites",
        per_round("dsl-compile", "analysis.ir_sites"),
    );
    put(
        "analysis.elided_sites",
        per_round("dsl-compile", "analysis.elided_sites"),
    );
    put(
        "analysis.cache_sites_share",
        sessions["dsl-compile"].0.counts.get("analysis.cache_sites")
            / sessions["dsl-compile"].0.counts.get("analysis.ir_sites"),
    );

    // runtime: the interpreter on dsl-interp, the simulator on sim-kernels.
    let interp = sessions["dsl-interp"].0.tr.by_name();
    let run_ir = interp.get("runtime.run_ir").copied().unwrap_or_default();
    let interp_events = sessions["dsl-interp"].0.counts.get("runtime.interp_events");
    put("runtime.interp_us_per_prog", run_ir.mean_self_us());
    put(
        "runtime.interp_ns_per_event",
        run_ir.total_ns as f64 / interp_events,
    );
    put(
        "runtime.ctx_new_us",
        interp
            .get("runtime.ctx_new")
            .copied()
            .unwrap_or_default()
            .mean_self_us(),
    );
    put(
        "runtime.interp_events",
        interp_events / rounds("dsl-interp"),
    );
    put(
        "runtime.interp_halted",
        per_round("dsl-interp", "runtime.interp_halted"),
    );
    let sim = &sessions["sim-kernels"].0;
    let sim_run = sim
        .tr
        .by_name()
        .get("runtime.run")
        .copied()
        .unwrap_or_default();
    put(
        "runtime.sim_ns_per_event",
        sim_run.total_ns as f64 / sim.counts.get("runtime.sim_events"),
    );
    put(
        "runtime.sim_events",
        per_round("sim-kernels", "runtime.sim_events"),
    );

    // cache: what the simulator's reports say of the ten kernels, and the
    // coherence traffic of the two non-local schemes.
    let (hits, misses) = (sim.counts.get("cache.hits"), sim.counts.get("cache.misses"));
    put("cache.hit_share", hits / (hits + misses));
    put(
        "cache.pages_cached",
        per_round("sim-kernels", "cache.pages_cached"),
    );
    put(
        "cache.mean_chain_length",
        sim.counts.get("cache.chain_length_millionths")
            / (sim.counts.get("cache.chain_length_n") * 1e6),
    );
    put(
        "cache.invalidations_sent",
        per_round("exec-coherence", "cache.invalidations_sent"),
    );
    put(
        "cache.revalidations",
        per_round("exec-coherence", "cache.revalidations"),
    );

    // benchmarks: median wall per kernel on each backend.
    let sim_ms = sim.tr.durations_ms_by_arg("runtime.run");
    let mut exec_ms = sessions["exec-migrate"]
        .0
        .tr
        .durations_ms_by_arg("exec.run_exec");
    exec_ms.extend(
        sessions["exec-cache"]
            .0
            .tr
            .durations_ms_by_arg("exec.run_exec"),
    );
    for k in KERNELS {
        if let Some(ms) = sim_ms.get(k) {
            put(&format!("benchmarks.sim_ms.{k}"), median(ms));
        }
        if let Some(ms) = exec_ms.get(k) {
            put(&format!("benchmarks.exec_ms.{k}"), median(ms));
        }
    }

    // exec and net: round wall per serviced message, and the counts.
    for (class, w) in [
        ("migrate", "exec-migrate"),
        ("cache", "exec-cache"),
        ("coherence", "exec-coherence"),
    ] {
        let msgs = sessions[w].0.counts.get(&format!("exec.msgs.{class}"));
        put(&format!("exec.us_per_msg.{class}"), wall_ms(w) * 1e3 / msgs);
        put(&format!("exec.msgs_per_round.{class}"), msgs / rounds(w));
    }
    put(
        "exec.migrations_per_round",
        per_round("exec-migrate", "exec.migrations"),
    );
    put(
        "exec.line_fetches_per_round",
        per_round("exec-cache", "exec.line_fetches"),
    );
    put(
        "exec.retries",
        ["exec-migrate", "exec-cache", "exec-coherence"]
            .iter()
            .map(|w| sessions[w].0.counts.get("exec.retries"))
            .sum(),
    );
    put(
        "net.us_per_msg",
        wall_ms("net-loopback") * 1e3 / sessions["net-loopback"].0.counts.get("net.msgs"),
    );
}

/// `name value unit` lines, one per metric, then the failure account.
pub fn print_metrics(r: &RunResult) {
    for m in &r.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if !r.traced {
        println!("failed_share {} share", r.failed_share());
    }
    eprintln!(
        "olden-perf: {} seed {} on cpu {}: {} rounds of {} jobs, {} of {} jobs failed",
        r.workload, r.seed, r.env.pinned_cpu, r.rounds, r.jobs_per_round, r.failed, r.attempted
    );
    for w in &r.warnings {
        eprintln!("olden-perf: warning: {w}");
    }
}
