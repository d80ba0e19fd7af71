//! Metric names (the contract later issues refer to), one run's result
//! and its JSON forms, and `compare`.

use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use olden_obs::json::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, with the share
/// of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Whether the metric is an `end_to_end` entry of BENCHMARK.json and
    /// so part of the result object a driver reads.
    pub gated: bool,
}

/// Reported for every workload, tracing off; `compare` applies every
/// bound.
///
/// Two of the six figures a run prints are not BENCHMARK.json entries.
/// `failed_share` is zero on a correct run, so it travels as the result's
/// `attempted`/`failed` pair and `compare` forbids any increase instead of
/// bounding a ratio of zeros. `round_p90_ms` is a tail: the reference box
/// switches for seconds at a time into regimes where a thread hand-off
/// costs half as much again, which moves a run's p90 by 40 % from one run
/// to the next while its median holds, so no bound within the contract's
/// limit can gate on it.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        gated: true,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.24,
        gated: true,
    },
    EndToEnd {
        name: "round_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.24,
        gated: true,
    },
    EndToEnd {
        name: "round_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        gated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        gated: true,
    },
];

/// The kernels with per-kernel rows, in the paper's order.
pub const KERNELS: [&str; 10] = [
    "TreeAdd",
    "Power",
    "TSP",
    "MST",
    "Bisort",
    "Voronoi",
    "EM3D",
    "Barnes-Hut",
    "Perimeter",
    "Health",
];

/// A per-layer metric of the traced run. `exact` marks a count that must
/// repeat exactly between two runs of one commit and seed.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

/// Every per-layer metric, layer by layer (the layer is the crate name
/// before the first dot).
pub fn per_layer_catalog() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, exact: bool| {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            exact,
        });
    };
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
        add(&format!("analysis.{phase}_us"), "us", Lower, false);
    }
    add("analysis.src_bytes", "bytes", Lower, true);
    add("analysis.ir_sites", "count", Lower, true);
    add("analysis.elided_sites", "count", Higher, true);
    add("analysis.cache_sites_share", "share", Higher, true);

    add("runtime.interp_us_per_prog", "us", Lower, false);
    add("runtime.interp_ns_per_event", "ns", Lower, false);
    add("runtime.ctx_new_us", "us", Lower, false);
    add("runtime.interp_events", "count", Lower, true);
    add("runtime.interp_halted", "count", Lower, true);
    add("runtime.sim_ns_per_event", "ns", Lower, false);
    add("runtime.sim_events", "count", Lower, true);

    add("machine.schedule_ms", "ms", Lower, false);
    add("machine.segments", "count", Lower, true);
    add("machine.makespan_geomean_kcycles", "kcycles", Lower, true);
    add("machine.speedup8_geomean", "x", Higher, true);
    add("machine.speedup32_geomean", "x", Higher, true);

    for op in [
        "lookup_hit_ns",
        "ensure_ns",
        "invalidate_ns",
        "access_hit_ns",
        "access_miss_ns",
    ] {
        add(&format!("cache.{op}"), "ns", Lower, false);
    }
    add("cache.hit_share", "share", Higher, true);
    add("cache.pages_cached", "count", Lower, true);
    add("cache.mean_chain_length", "probes", Lower, true);
    add("cache.invalidations_sent", "count", Lower, true);
    add("cache.revalidations", "count", Lower, true);

    for k in KERNELS {
        add(&format!("benchmarks.sim_ms.{k}"), "ms", Lower, false);
    }
    // The eight kernels of the exec-migrate and exec-cache job lists.
    for k in KERNELS
        .iter()
        .filter(|k| !["EM3D", "Barnes-Hut"].contains(k))
    {
        add(&format!("benchmarks.exec_ms.{k}"), "ms", Lower, false);
    }

    for class in ["migrate", "cache", "coherence"] {
        add(&format!("exec.us_per_msg.{class}"), "us", Lower, false);
    }
    add("exec.fleet_spawn_us", "us", Lower, false);
    add("exec.parallel_ms_per_round", "ms", Lower, false);
    for class in ["migrate", "cache", "coherence"] {
        add(
            &format!("exec.msgs_per_round.{class}"),
            "count",
            Lower,
            true,
        );
    }
    add("exec.migrations_per_round", "count", Lower, true);
    add("exec.line_fetches_per_round", "count", Lower, true);
    add("exec.retries", "count", Lower, true);

    add("net.fleet_spawn_ms", "ms", Lower, false);
    add("net.us_per_msg", "us", Lower, false);
    add("net.wire_encode_ns", "ns", Lower, false);
    add("net.wire_decode_ns", "ns", Lower, false);
    add("net.bytes_per_msg", "bytes", Lower, true);
    add("net.vs_threads_ratio", "x", Lower, false);

    add("obs.record_overhead_share.sim", "share", Lower, false);
    add("obs.record_overhead_share.exec", "share", Lower, false);
    add("obs.events_per_round", "count", Lower, true);
    add("obs.chrome_export_ms", "ms", Lower, false);

    add("host.calib_ms", "ms", Lower, false);
    add("trace.overhead_share", "share", Lower, false);
    add("trace.spans", "count", Lower, false);
    out
}

/// Letters, digits, `_`, `.` and `-`, starting with a letter or digit,
/// at most 64 long: what a metric or workload may be called.
pub fn legal_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub exact: bool,
    /// Declared in BENCHMARK.json, so part of the driver's result object.
    pub gated: bool,
}

/// Where and on what a run was measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Env {
    pub git_commit: String,
    pub rustc: String,
    pub nproc: u64,
    /// CPUs the process was allowed before it pinned itself.
    pub affinity: Vec<u64>,
    pub pinned_cpu: u64,
    pub loadavg_start: f64,
    pub loadavg_end: f64,
    pub calib_ms_before: f64,
    pub calib_ms_after: f64,
}

/// One workload measured once, in one process.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    /// Timed rounds (the n of the round percentiles) and jobs in each.
    pub rounds: u64,
    pub jobs_per_round: u64,
    pub setup_repeats: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub env: Env,
    pub warnings: Vec<String>,
}

fn nums(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&n| Json::u64(n)).collect())
}

impl RunResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of standard output: the four keys a driver reads.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.gated)
            .map(|m| {
                let body = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::str(m.unit.as_str())),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::u64(self.attempted)),
            ("failed".into(), Json::u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        let e = &self.env;
        let env = Json::Obj(vec![
            ("git_commit".into(), Json::str(e.git_commit.as_str())),
            ("rustc".into(), Json::str(e.rustc.as_str())),
            ("nproc".into(), Json::u64(e.nproc)),
            ("affinity".into(), nums(&e.affinity)),
            ("pinned_cpu".into(), Json::u64(e.pinned_cpu)),
            ("loadavg_start".into(), Json::Num(e.loadavg_start)),
            ("loadavg_end".into(), Json::Num(e.loadavg_end)),
            ("calib_ms_before".into(), Json::Num(e.calib_ms_before)),
            ("calib_ms_after".into(), Json::Num(e.calib_ms_after)),
        ]);
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("name".into(), Json::str(m.name.as_str())),
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::str(m.unit.as_str())),
                    ("exact".into(), Json::Bool(m.exact)),
                    ("gated".into(), Json::Bool(m.gated)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str(self.workload.as_str())),
            ("seed".into(), Json::Str(self.seed.to_string())),
            ("traced".into(), Json::Bool(self.traced)),
            ("smoke".into(), Json::Bool(self.smoke)),
            ("rounds".into(), Json::u64(self.rounds)),
            ("jobs_per_round".into(), Json::u64(self.jobs_per_round)),
            ("setup_repeats".into(), Json::u64(self.setup_repeats)),
            ("attempted".into(), Json::u64(self.attempted)),
            ("failed".into(), Json::u64(self.failed)),
            ("failed_share".into(), Json::Num(self.failed_share())),
            ("metrics".into(), Json::Arr(metrics)),
            ("env".into(), env),
            (
                "warnings".into(),
                Json::Arr(
                    self.warnings
                        .iter()
                        .map(|w| Json::str(w.as_str()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<RunResult, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("result has no {k:?}"));
        let text = |k: &str| Ok::<_, String>(field(k)?.as_str().ok_or(k)?.to_string());
        let count = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("{k:?} is not a count"))
        };
        let flag = |k: &str| match field(k)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{k:?} is not a flag")),
        };
        let env = field("env")?;
        let enum_ = |k: &str| {
            env.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("env has no number {k:?}"))
        };
        let estr = |k: &str| {
            env.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("env has no string {k:?}"))
        };
        let metrics = field("metrics")?
            .as_arr()
            .ok_or("metrics is not a list")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("metric name")?
                        .to_string(),
                    value: m
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or("metric value")?,
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or("metric unit")?
                        .to_string(),
                    exact: m.get("exact") == Some(&Json::Bool(true)),
                    gated: m.get("gated") == Some(&Json::Bool(true)),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            workload: text("workload")?,
            seed: text("seed")?.parse().map_err(|e| format!("seed: {e}"))?,
            traced: flag("traced")?,
            smoke: flag("smoke")?,
            rounds: count("rounds")?,
            jobs_per_round: count("jobs_per_round")?,
            setup_repeats: count("setup_repeats")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            env: Env {
                git_commit: estr("git_commit")?,
                rustc: estr("rustc")?,
                nproc: enum_("nproc")? as u64,
                affinity: env
                    .get("affinity")
                    .and_then(Json::as_arr)
                    .ok_or("env has no affinity")?
                    .iter()
                    .filter_map(Json::as_u64)
                    .collect(),
                pinned_cpu: enum_("pinned_cpu")? as u64,
                loadavg_start: enum_("loadavg_start")?,
                loadavg_end: enum_("loadavg_end")?,
                calib_ms_before: enum_("calib_ms_before")?,
                calib_ms_after: enum_("calib_ms_after")?,
            },
            warnings: field("warnings")?
                .as_arr()
                .ok_or("warnings is not a list")?
                .iter()
                .filter_map(|w| w.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// A results file: every run of one invocation of the harness.
pub fn results_to_json(runs: &[RunResult]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str("olden-perf/v1")),
        (
            "runs".into(),
            Json::Arr(runs.iter().map(RunResult::to_json).collect()),
        ),
    ])
}

pub fn results_from_json(doc: &Json) -> Result<Vec<RunResult>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some("olden-perf/v1") {
        return Err("not an olden-perf/v1 results file".to_string());
    }
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or("results file has no runs")?
        .iter()
        .map(RunResult::from_json)
        .collect()
}

/// The `key` entries of BENCHMARK.json, each as the `fields` joined by
/// spaces.
fn declared(doc: &Json, key: &str, fields: &[&str]) -> Result<Vec<String>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|entry| {
            let cells = fields.iter().map(|f| match entry.get(f) {
                Some(Json::Str(s)) => Ok(s.clone()),
                Some(Json::Num(n)) => Ok(n.to_string()),
                _ => Err(format!("BENCHMARK.json: a {key} entry has no {f}")),
            });
            Ok(cells.collect::<Result<Vec<_>, String>>()?.join(" "))
        })
        .collect()
}

fn same_set(what: &str, mut got: Vec<String>, mut want: Vec<String>) -> Result<(), String> {
    got.sort();
    want.sort();
    if got == want {
        return Ok(());
    }
    let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
    let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
    Err(format!("{what}: unexpected {extra:?}, missing {missing:?}"))
}

/// The `--smoke` contract check: BENCHMARK.json declares exactly the
/// harness's workloads and metrics (name, unit, direction, bound), every
/// workload has a plain run and some workload a traced one, each run
/// emitted every declared name exactly once with its unit, every name is
/// legal, and no job failed.
pub fn contract_check(doc: &Json, runs: &[RunResult]) -> Result<(), String> {
    same_set(
        "BENCHMARK.json workloads",
        declared(doc, "workloads", &["name", "why"])?,
        WORKLOADS
            .iter()
            .map(|(n, why)| format!("{n} {why}"))
            .collect(),
    )?;
    let gated = || END_TO_END.iter().filter(|m| m.gated);
    same_set(
        "BENCHMARK.json end_to_end",
        declared(doc, "end_to_end", &["name", "unit", "better", "bound"])?,
        gated()
            .map(|m| format!("{} {} {} {}", m.name, m.unit, m.better.name(), m.bound))
            .collect(),
    )?;
    same_set(
        "BENCHMARK.json per_layer",
        declared(doc, "per_layer", &["name", "unit", "better"])?,
        per_layer_catalog()
            .iter()
            .map(|m| format!("{} {} {}", m.name, m.unit, m.better.name()))
            .collect(),
    )?;
    let emitted = |run: &RunResult, want: Vec<String>| {
        let got = run.metrics.iter().filter(|m| m.gated);
        if let Some(bad) = got.clone().find(|m| !legal_name(&m.name)) {
            return Err(format!(
                "{}: illegal metric name {:?}",
                run.workload, bad.name
            ));
        }
        let kind = if run.traced { "traced" } else { "plain" };
        same_set(
            &format!("{} ({kind}) metrics", run.workload),
            got.map(|m| format!("{} {}", m.name, m.unit)).collect(),
            want,
        )
    };
    for (workload, _) in WORKLOADS {
        let run = runs
            .iter()
            .find(|r| r.workload == workload && !r.traced)
            .ok_or_else(|| format!("no plain run of {workload}"))?;
        emitted(
            run,
            gated().map(|m| format!("{} {}", m.name, m.unit)).collect(),
        )?;
    }
    let traced = runs.iter().find(|r| r.traced).ok_or("no traced run")?;
    emitted(
        traced,
        per_layer_catalog()
            .iter()
            .map(|m| format!("{} {}", m.name, m.unit))
            .collect(),
    )?;
    match runs.iter().find(|r| r.failed > 0) {
        Some(r) => Err(format!(
            "{}: {} of {} jobs failed",
            r.workload, r.failed, r.attempted
        )),
        None => Ok(()),
    }
}

/// One row of `compare`.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B's median is than A's, as a share of A's (negative
    /// when B is better).
    pub worse_by: f64,
    /// Distance between A's quartiles as a share of its median; `None`
    /// with fewer than two runs of A.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: &'static str,
}

/// Untraced values of `metric` on `workload`, one per run.
fn values(runs: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .flat_map(|r| {
            r.metrics
                .iter()
                .filter(|m| m.name == metric)
                .map(|m| m.value)
        })
        .collect()
}

/// Apply each end-to-end metric's bound per (metric, workload): `ok`,
/// `worse`, or `unresolved` when A's own run-to-run spread is wider than
/// the bound. Then hold every exact per-layer count, and the failure
/// counts, to equality. Returns the rows and the list of violations.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> (Vec<Row>, Vec<String>) {
    let (mut rows, mut bad) = (Vec::new(), Vec::new());
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(a, workload, m.name), values(b, workload, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spread = quartiles(&va).map(|(q1, q3)| (q3 - q1) / ma);
            let verdict = if spread.is_some_and(|s| s > m.bound) {
                "unresolved"
            } else if worse_by > m.bound {
                "worse"
            } else {
                "ok"
            };
            if verdict == "worse" {
                bad.push(format!(
                    "{workload} {}: {mb} vs {ma} is {:.1}% worse (bound {:.0}%)",
                    m.name,
                    worse_by * 100.0,
                    m.bound * 100.0
                ));
            }
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name.to_string(),
                a: ma,
                b: mb,
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
        let failed = |runs: &[RunResult]| -> u64 {
            runs.iter()
                .filter(|r| r.workload == workload)
                .map(|r| r.failed)
                .sum()
        };
        if failed(b) > failed(a) {
            bad.push(format!(
                "{workload} failed_share: {} failed jobs vs {}",
                failed(b),
                failed(a)
            ));
        }
    }
    // Exact counts: every traced run of a (workload, seed) must agree.
    let exact = |runs: &[RunResult]| {
        let mut out: BTreeMap<(String, u64, String), Vec<f64>> = BTreeMap::new();
        for r in runs.iter().filter(|r| r.traced) {
            for m in r.metrics.iter().filter(|m| m.exact) {
                out.entry((r.workload.clone(), r.seed, m.name.clone()))
                    .or_default()
                    .push(m.value);
            }
        }
        out
    };
    let (ea, eb) = (exact(a), exact(b));
    for (key, va) in &ea {
        let all = va.iter().chain(eb.get(key).into_iter().flatten());
        let first = va[0];
        if all.clone().any(|v| *v != first) {
            let seen: Vec<f64> = all.copied().collect();
            bad.push(format!(
                "exact count {} ({} seed {}) differs: {seen:?}",
                key.2, key.0, key.1
            ));
        }
    }
    (rows, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, p50: f64) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed: u64::MAX - 3,
            rounds: 100,
            jobs_per_round: 4,
            setup_repeats: 3,
            attempted: 400,
            metrics: vec![Metric {
                name: "round_p50_ms".into(),
                value: p50,
                unit: "ms".into(),
                exact: false,
                gated: true,
            }],
            env: Env {
                git_commit: "abc".into(),
                rustc: "rustc 1.0".into(),
                nproc: 2,
                affinity: vec![0, 1],
                pinned_cpu: 1,
                loadavg_start: 0.25,
                loadavg_end: 0.5,
                calib_ms_before: 21.125,
                calib_ms_after: 21.5,
            },
            warnings: vec!["loadavg above nproc".into()],
            ..RunResult::default()
        }
    }

    #[test]
    fn results_json_round_trips() {
        let runs = vec![result("exec-migrate", 25.8125), result("dsl-interp", 0.1)];
        let text = results_to_json(&runs).render();
        let back = results_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, runs, "seed near u64::MAX survives as a string");
    }

    #[test]
    fn driver_line_has_exactly_the_four_keys() {
        let line = result("exec-migrate", 25.8125).driver_line();
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("round_p50_ms"))
            .unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(25.8125));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn compare_verdicts() {
        let a: Vec<RunResult> = [25.0, 25.2, 25.4, 25.6]
            .map(|v| result("exec-migrate", v))
            .to_vec();
        // 4 % slower: inside the bound.
        let (rows, bad) = compare(&a, &[result("exec-migrate", 26.3)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, "ok");
        assert!(bad.is_empty());
        // 40 % slower: worse.
        let (rows, bad) = compare(&a, &[result("exec-migrate", 35.4)]);
        assert_eq!(rows[0].verdict, "worse");
        assert_eq!(bad.len(), 1);
        // A spread wider than the bound decides nothing either way.
        let noisy: Vec<RunResult> = [20.0, 25.0, 30.0, 35.0]
            .map(|v| result("exec-migrate", v))
            .to_vec();
        let (rows, bad) = compare(&noisy, &[result("exec-migrate", 60.0)]);
        assert_eq!(rows[0].verdict, "unresolved");
        assert!(bad.is_empty());
    }

    #[test]
    fn compare_holds_exact_counts_and_failures_equal() {
        let traced = |v: f64| RunResult {
            traced: true,
            metrics: vec![Metric {
                name: "exec.msgs_per_round.migrate".into(),
                value: v,
                unit: "count".into(),
                exact: true,
                gated: true,
            }],
            ..result("exec-migrate", 0.0)
        };
        let (_, bad) = compare(&[traced(6890.0)], &[traced(6890.0)]);
        assert!(bad.is_empty());
        let (_, bad) = compare(&[traced(6890.0)], &[traced(6889.0)]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        let mut failing = result("exec-migrate", 25.0);
        failing.failed = 1;
        let (_, bad) = compare(&[result("exec-migrate", 25.0)], &[failing]);
        assert!(bad.iter().any(|b| b.contains("failed_share")), "{bad:?}");
    }

    #[test]
    fn contract_check_catches_a_renamed_metric() {
        let entry = |fields: &[(&str, Json)]| {
            Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            )
        };
        let doc = |p50_name: &str| {
            Json::Obj(vec![
                (
                    "workloads".into(),
                    Json::Arr(
                        WORKLOADS
                            .iter()
                            .map(|(n, w)| entry(&[("name", Json::str(*n)), ("why", Json::str(*w))]))
                            .collect(),
                    ),
                ),
                (
                    "end_to_end".into(),
                    Json::Arr(
                        END_TO_END
                            .iter()
                            .filter(|m| m.gated)
                            .map(|m| {
                                let name = if m.name == "round_p50_ms" {
                                    p50_name
                                } else {
                                    m.name
                                };
                                entry(&[
                                    ("name", Json::str(name)),
                                    ("unit", Json::str(m.unit)),
                                    ("better", Json::str(m.better.name())),
                                    ("bound", Json::Num(m.bound)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "per_layer".into(),
                    Json::Arr(
                        per_layer_catalog()
                            .iter()
                            .map(|m| {
                                entry(&[
                                    ("name", Json::str(m.name.as_str())),
                                    ("unit", Json::str(m.unit)),
                                    ("better", Json::str(m.better.name())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let metrics = |names: Vec<(String, &str)>| -> Vec<Metric> {
            names
                .into_iter()
                .map(|(name, unit)| Metric {
                    name,
                    value: 1.0,
                    unit: unit.into(),
                    exact: false,
                    gated: true,
                })
                .collect()
        };
        let mut runs: Vec<RunResult> = WORKLOADS
            .iter()
            .map(|(w, _)| RunResult {
                metrics: metrics(
                    END_TO_END
                        .iter()
                        .filter(|m| m.gated)
                        .map(|m| (m.name.to_string(), m.unit))
                        .collect(),
                ),
                ..result(w, 0.0)
            })
            .collect();
        runs.push(RunResult {
            traced: true,
            metrics: metrics(
                per_layer_catalog()
                    .into_iter()
                    .map(|m| (m.name, m.unit))
                    .collect(),
            ),
            ..result("sim-kernels", 0.0)
        });
        assert_eq!(contract_check(&doc("round_p50_ms"), &runs), Ok(()));
        let err = contract_check(&doc("round_median_ms"), &runs).unwrap_err();
        assert!(
            err.contains("round_median_ms") && err.contains("round_p50_ms"),
            "{err}"
        );
        runs[2].metrics.pop();
        let err = contract_check(&doc("round_p50_ms"), &runs).unwrap_err();
        assert!(
            err.contains("exec-cache") && err.contains("peak_rss_mb"),
            "{err}"
        );
    }

    #[test]
    fn catalog_names_are_legal_and_unique() {
        let names: Vec<String> = per_layer_catalog()
            .into_iter()
            .map(|m| m.name)
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .collect();
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() - END_TO_END.len() <= 128);
        assert!(!legal_name("") && !legal_name(".x") && !legal_name("a b"));
    }
}
