//! `olden-perf`: the repository's benchmark harness.
//!
//! ```text
//! olden-perf [--seed S] [--seconds N] [--trace] [--smoke] [--sets N] [--out PATH]
//!     every workload, each in its own pinned child process; writes
//!     perf/out/results.json
//! olden-perf --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//!     one workload in this process; the last line of output is the
//!     result object a driver reads
//! olden-perf compare A.json B.json
//! olden-perf --self-test
//! olden-perf bless
//! ```
//!
//! Run from the repository root (`perf/run.sh` does). See perf/README.md.

mod layers;
mod measure;
mod pins;
mod report;
mod span;
mod stats;
mod sys;
mod workloads;

use measure::{Failure, Options, EXIT_NO_LOOPBACK};
use olden_obs::json::Json;
use pins::{Pins, PIN_FILE};
use report::{compare, contract_check, results_from_json, results_to_json, RunResult};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{is_workload, WORKLOADS};

const OUT_DIR: &str = "perf/out";
/// How long a child may run before the orchestrator kills it: under the
/// 180 s a driver allows one run.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);
/// Seconds a run measures when `--seconds` is not given: `run_seconds`
/// of BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 10;

fn usage() -> ExitCode {
    eprintln!(
        "usage: olden-perf [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] \
         [--sets N] [--out PATH]\n       olden-perf compare A.json B.json\n       \
         olden-perf --self-test\n       olden-perf bless\nworkloads: {}",
        WORKLOADS.map(|(n, _)| n).join(" ")
    );
    ExitCode::from(2)
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    corrupt: bool,
    sets: u64,
    out: String,
}

fn parse_cli(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        corrupt: false,
        sets: 1,
        out: format!("{OUT_DIR}/results.json"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(it.next().filter(|w| is_workload(w))?.clone()),
            "--seed" => cli.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                cli.seconds = it.next()?.parse().ok().filter(|s| (1..=60).contains(s))?
            }
            "--sets" => cli.sets = it.next()?.parse().ok().filter(|n| *n >= 1)?,
            "--out" => cli.out = it.next()?.clone(),
            "--smoke" => cli.smoke = true,
            "--corrupt-pins" => cli.corrupt = true,
            // A bare `--trace` is the human form; a driver passes 0 or 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => return None,
        }
    }
    Some(cli)
}

fn read_json(path: &str) -> Result<Json, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .map_err(|e| format!("{path}: {e}"))
}

fn result_path(workload: &str, traced: bool) -> String {
    let kind = if traced { "traced" } else { "plain" };
    format!("{OUT_DIR}/{workload}.{kind}.result.json")
}

/// One workload in this process.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let opts = Options {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        corrupt: cli.corrupt,
    };
    let result = match measure::run(&opts) {
        Ok(r) => r,
        Err(Failure::NoLoopback) => {
            eprintln!("olden-perf: loopback TCP unavailable; the net backend cannot run here");
            return ExitCode::from(EXIT_NO_LOOPBACK);
        }
        Err(Failure::Other(e)) => {
            eprintln!("olden-perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    measure::print_metrics(&result);
    let saved = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(result_path(workload, cli.trace), result.to_json().render()));
    if let Err(e) = saved {
        eprintln!("olden-perf: {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", result.driver_line());
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run this binary again with `args`, wait for it (killing it past the
/// deadline), and return its exit code and captured standard output.
fn child(args: &[String], capture: bool) -> Result<(Option<i32>, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args);
    if capture {
        cmd.stdout(Stdio::piped());
    }
    let mut proc = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let out = proc.stdout.take();
    let reader = out.map(|mut o| {
        std::thread::spawn(move || {
            let mut text = String::new();
            let _ = std::io::Read::read_to_string(&mut o, &mut text);
            text
        })
    });
    let start = Instant::now();
    let status = loop {
        match proc.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if start.elapsed() > CHILD_TIMEOUT => {
                let _ = proc.kill();
                let _ = proc.wait();
                return Err(format!("child {args:?} ran past {CHILD_TIMEOUT:?}; killed"));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = match reader {
        Some(r) => r.join().map_err(|_| "stdout reader panicked")?,
        None => String::new(),
    };
    Ok((status.code(), text))
}

fn child_args(cli: &Cli, workload: &str, traced: bool) -> Vec<String> {
    let mut args = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        cli.seed.to_string(),
        "--seconds".to_string(),
        cli.seconds.to_string(),
        "--trace".to_string(),
        u8::from(traced).to_string(),
    ];
    if cli.smoke {
        args.push("--smoke".to_string());
    }
    args
}

/// Every workload, each in its own child process; then the results file.
fn run_all(cli: &Cli) -> ExitCode {
    let started = Instant::now();
    let mut runs: Vec<RunResult> = Vec::new();
    let mut code = ExitCode::SUCCESS;
    for set in 0..cli.sets {
        // A smoke run traces once: one traced run visits every layer.
        let traced: &[(&str, &str)] = match (cli.smoke, cli.trace) {
            (true, _) => &WORKLOADS[..1],
            (false, true) => &WORKLOADS,
            (false, false) => &[],
        };
        let plan = WORKLOADS
            .iter()
            .map(|(n, _)| (*n, false))
            .chain(traced.iter().map(|(n, _)| (*n, true)));
        for (workload, traced) in plan {
            println!(
                "# set {set} workload {workload}{}",
                if traced { " (traced)" } else { "" }
            );
            let path = result_path(workload, traced);
            let _ = std::fs::remove_file(&path);
            match child(&child_args(cli, workload, traced), false) {
                Ok((Some(0), _)) => {}
                Ok((Some(c), _)) if c == i32::from(EXIT_NO_LOOPBACK) => {
                    eprintln!("olden-perf: {workload}: skipped, no loopback TCP");
                    code = ExitCode::from(EXIT_NO_LOOPBACK);
                    continue;
                }
                Ok((c, _)) => {
                    eprintln!("olden-perf: {workload}: child exited with {c:?}");
                    code = ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("olden-perf: {workload}: {e}");
                    code = ExitCode::FAILURE;
                    continue;
                }
            }
            match read_json(&path).and_then(|j| RunResult::from_json(&j)) {
                Ok(r) => runs.push(r),
                Err(e) => {
                    eprintln!("olden-perf: {e}");
                    code = ExitCode::FAILURE;
                }
            }
        }
    }
    if cli.smoke {
        match read_json("BENCHMARK.json").and_then(|doc| contract_check(&doc, &runs)) {
            Ok(()) => println!(
                "# smoke ok: {} runs, every name of BENCHMARK.json emitted once, {:.1} s",
                runs.len(),
                started.elapsed().as_secs_f64()
            ),
            Err(e) => {
                eprintln!("olden-perf: smoke: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&cli.out, results_to_json(&runs).render()) {
        eprintln!("olden-perf: {}: {e}", cli.out);
        return ExitCode::FAILURE;
    }
    println!("# wrote {}", cli.out);
    code
}

fn compare_cmd(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        read_json(path).and_then(|j| results_from_json(&j).map_err(|e| format!("{path}: {e}")))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("olden-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let (rows, bad) = compare(&ra, &rb);
    println!(
        "{:<15} {:<13} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse-by", "spread", "bound"
    );
    for r in &rows {
        let spread = r
            .spread
            .map_or("n=1".to_string(), |s| format!("{:.1}%", s * 100.0));
        println!(
            "{:<15} {:<13} {:>12.4} {:>12.4} {:>8.1}% {:>8} {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            spread,
            r.bound * 100.0,
            r.verdict
        );
    }
    for b in &bad {
        println!("VIOLATION {b}");
    }
    let unresolved = rows.iter().filter(|r| r.verdict == "unresolved").count();
    println!(
        "{} rows: {} worse, {unresolved} unresolved, {} violations in all",
        rows.len(),
        rows.iter().filter(|r| r.verdict == "worse").count(),
        bad.len()
    );
    if bad.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prove the correctness gate is live: with one pinned value of each kind
/// flipped, the workloads that read it must count failed jobs and exit
/// non-zero.
fn self_test() -> ExitCode {
    for workload in ["sim-kernels", "dsl-compile", "dsl-interp"] {
        let args: Vec<String> = ["--workload", workload, "--smoke", "--corrupt-pins"]
            .map(String::from)
            .to_vec();
        let (code, text) = match child(&args, true) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("olden-perf: self-test: {e}");
                return ExitCode::FAILURE;
            }
        };
        let failed = text
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|j| j.get("failed").and_then(Json::as_u64));
        match (code, failed) {
            (Some(c), Some(f)) if c != 0 && f > 0 => {
                println!("self-test {workload}: corrupted pin -> {f} failed jobs, exit {c}");
            }
            _ => {
                eprintln!(
                    "olden-perf: self-test: {workload} with a corrupted pin exited {code:?} \
                     reporting {failed:?} failed jobs; the gate is dead"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!("self-test ok: failed_share > 0 and a non-zero exit on every corrupted pin");
    ExitCode::SUCCESS
}

fn bless() -> ExitCode {
    let saved = Pins::bless().and_then(|pins| {
        std::fs::write(PIN_FILE, pins.to_json().render() + "\n")
            .map_err(|e| format!("{PIN_FILE}: {e}"))
    });
    match saved {
        Ok(()) => {
            println!("wrote {PIN_FILE}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("olden-perf: bless: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // Hidden: this binary is its own net-backend worker.
        Some("net-worker") if args.len() == 5 => {
            let parsed = (
                args[1].parse::<u8>(),
                args[2].parse::<u16>(),
                olden_exec::Protocol::from_name(&args[4]),
            );
            let (Ok(proc), Ok(port), Some(protocol)) = parsed else {
                return usage();
            };
            olden_net::worker::worker_main(proc, port, args[3] == "1", protocol)
        }
        Some("compare") if args.len() == 3 => compare_cmd(&args[1], &args[2]),
        Some("bless") if args.len() == 1 => bless(),
        Some("--self-test") if args.len() == 1 => self_test(),
        _ => match parse_cli(&args) {
            Some(cli) => match cli.workload.clone() {
                Some(w) => run_one(&cli, &w),
                None => run_all(&cli),
            },
            None => usage(),
        },
    }
}
