//! `oldenc bench`: machine-readable benchmark points and the perf-smoke
//! comparison CI runs against a committed baseline.
//!
//! Each point is one benchmark executed for real on the thread backend:
//! its wall time plus every deterministic counter the run produces
//! (runtime events, cache traffic, messages serviced). The counters pin
//! exactly — any drift is a behavior change, not noise. Wall times are
//! compared through a **calibration ratio**: both files record how long a
//! fixed integer spin took on their host, and a point only fails when its
//! *normalized* time (benchmark wall / calibration wall) slows down by
//! more than the tolerance. That keeps the gate meaningful across CI
//! machines of very different speeds.

use olden_benchmarks::{all, generic_run, Descriptor, SizeClass};
use olden_exec::{run_exec, ExecConfig};
use olden_net::{run_net, NetConfig};
use olden_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Schema tag; bump on any incompatible shape change.
pub const SCHEMA: &str = "olden-bench/v1";

/// One benchmark's measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchPoint {
    pub name: String,
    /// Best-of-reps wall time of the lockstep execution, nanoseconds.
    pub wall_ns: u64,
    /// Best-of-reps wall time of the same run on the network backend
    /// (worker processes over loopback TCP), when measured with
    /// `oldenc bench --net`. Absent from files produced without `--net`
    /// and from baselines that predate the column; the counters need no
    /// second column — a net run whose counters diverge from the
    /// lockstep execution fails the measurement itself.
    pub net_wall_ns: Option<u64>,
    /// Deterministic counters; exact across hosts for a fixed config.
    pub counters: BTreeMap<String, u64>,
}

/// A full `oldenc bench` output file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchFile {
    pub procs: usize,
    /// Wall time of [`calibration_ns`]'s fixed spin on the producing
    /// host: the denominator that normalizes wall times across machines.
    pub calib_ns: u64,
    pub points: Vec<BenchPoint>,
}

/// Time a fixed integer workload (an xorshift spin) on this host. Pure
/// ALU work with no allocation: a stable yardstick for "how fast is this
/// machine today".
pub fn calibration_ns() -> u64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..8_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as u64
}

/// Measure one benchmark: best-of-`reps` wall time plus the run's full
/// counter set (identical across reps — lockstep runs are deterministic).
///
/// With `net_cmd` set, the same benchmark is also run best-of-`reps` on
/// the network backend (worker processes spawned from that command) and
/// its wall time recorded in the `net` column. Lockstep runs are
/// transport-independent, so the net run's value and every counter must
/// equal the thread-backend run's *exactly* — a divergence is a
/// correctness bug and panics rather than producing a misleading point.
pub fn point(
    d: &Descriptor,
    procs: usize,
    size: SizeClass,
    reps: usize,
    net_cmd: Option<&[String]>,
) -> BenchPoint {
    let name = d.name;
    let mut best = u64::MAX;
    let mut counters = BTreeMap::new();
    let collect = |report: &olden_exec::ExecReport, into: &mut BTreeMap<String, u64>| {
        for (k, v) in report.stats.counters() {
            into.insert(k.to_string(), v);
        }
        for (k, v) in report.cache.counters() {
            into.insert(k.to_string(), v);
        }
        into.insert("messages".to_string(), report.messages);
        into.insert("pages_cached".to_string(), report.pages_cached);
    };
    for rep in 0..reps.max(1) {
        let t = Instant::now();
        let (value, report) = run_exec(ExecConfig::lockstep(procs), move |ctx| {
            generic_run(name, ctx, size).expect("registry benchmark")
        });
        best = best.min(t.elapsed().as_nanos() as u64);
        assert_eq!(value, (d.reference)(size), "{name}: value diverged");
        if rep == 0 {
            collect(&report, &mut counters);
        }
    }
    let net_wall_ns = net_cmd.map(|cmd| {
        let mut net_best = u64::MAX;
        for _ in 0..reps.max(1) {
            let cfg = NetConfig::new(ExecConfig::lockstep(procs), cmd.to_vec());
            let t = Instant::now();
            let (value, report) = run_net(cfg, move |ctx| {
                generic_run(name, ctx, size).expect("registry benchmark")
            });
            net_best = net_best.min(t.elapsed().as_nanos() as u64);
            assert_eq!(value, (d.reference)(size), "{name}: net value diverged");
            let mut net_counters = BTreeMap::new();
            collect(&report, &mut net_counters);
            assert_eq!(
                net_counters, counters,
                "{name}: net counters diverged from the thread backend"
            );
        }
        net_best
    });
    BenchPoint {
        name: name.to_string(),
        wall_ns: best,
        net_wall_ns,
        counters,
    }
}

/// Measure every registry benchmark. `net_cmd`, when set, adds the
/// network-backend wall column (see [`point`]).
pub fn measure(
    procs: usize,
    size: SizeClass,
    reps: usize,
    net_cmd: Option<&[String]>,
) -> BenchFile {
    BenchFile {
        procs,
        calib_ns: calibration_ns(),
        points: all()
            .iter()
            .map(|d| point(d, procs, size, reps, net_cmd))
            .collect(),
    }
}

impl BenchFile {
    pub fn render(&self) -> String {
        let points = self
            .points
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("name".into(), Json::str(&p.name)),
                    ("wall_ns".into(), Json::u64(p.wall_ns)),
                ];
                // Optional column: omitted entirely when not measured,
                // so files without --net render byte-identically to the
                // pre-net schema and old baselines stay valid.
                if let Some(n) = p.net_wall_ns {
                    fields.push(("net_wall_ns".into(), Json::u64(n)));
                }
                fields.push((
                    "counters".into(),
                    Json::Obj(
                        p.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::u64(*v)))
                            .collect(),
                    ),
                ));
                Json::Obj(fields)
            })
            .collect();
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("procs".into(), Json::u64(self.procs as u64)),
            ("calib_ns".into(), Json::u64(self.calib_ns)),
            ("points".into(), Json::Arr(points)),
        ]);
        let mut s = doc.render();
        s.push('\n');
        s
    }

    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let doc = Json::parse(text)?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing field {k:?}"));
        let schema = field("schema")?.as_str().ok_or("schema is not a string")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let procs = field("procs")?.as_u64().ok_or("procs is not an integer")? as usize;
        let calib_ns = field("calib_ns")?
            .as_u64()
            .ok_or("calib_ns is not an integer")?;
        let mut points = Vec::new();
        for p in field("points")?.as_arr().ok_or("points is not an array")? {
            let name = p
                .get("name")
                .and_then(Json::as_str)
                .ok_or("point without a name")?
                .to_string();
            let wall_ns = p
                .get("wall_ns")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: wall_ns missing"))?;
            let net_wall_ns = match p.get("net_wall_ns") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| format!("{name}: net_wall_ns is not an integer"))?,
                ),
            };
            let mut counters = BTreeMap::new();
            for (k, v) in p
                .get("counters")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{name}: counters missing"))?
            {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("{name}: counter {k:?} is not an integer"))?;
                counters.insert(k.clone(), v);
            }
            points.push(BenchPoint {
                name,
                wall_ns,
                net_wall_ns,
                counters,
            });
        }
        Ok(BenchFile {
            procs,
            calib_ns,
            points,
        })
    }
}

/// Outcome of comparing a fresh measurement against a baseline.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Hard failures: counter drift, missing benchmarks, or a normalized
    /// slowdown beyond the tolerance. Non-empty fails CI.
    pub violations: Vec<String>,
    /// Informational lines (e.g. speedups); never fail the run.
    pub notes: Vec<String>,
}

/// Compare `cur` against `base`. Counters must match exactly; wall times
/// are normalized by each file's calibration spin and must not slow down
/// by more than `tolerance` (0.35 = 35%).
pub fn check(cur: &BenchFile, base: &BenchFile, tolerance: f64) -> CheckOutcome {
    let mut out = CheckOutcome::default();
    if cur.procs != base.procs {
        out.violations.push(format!(
            "processor counts differ: current {} vs baseline {}",
            cur.procs, base.procs
        ));
        return out;
    }
    for b in &base.points {
        let Some(c) = cur.points.iter().find(|p| p.name == b.name) else {
            out.violations
                .push(format!("{}: present in baseline, missing from run", b.name));
            continue;
        };
        for (k, bv) in &b.counters {
            match c.counters.get(k) {
                Some(cv) if cv == bv => {}
                Some(cv) => out.violations.push(format!(
                    "{}: counter {k} drifted: baseline {bv}, current {cv}",
                    b.name
                )),
                None => out
                    .violations
                    .push(format!("{}: counter {k} missing from run", b.name)),
            }
        }
        for k in c.counters.keys() {
            if !b.counters.contains_key(k) {
                out.notes
                    .push(format!("{}: new counter {k} (not in baseline)", b.name));
            }
        }
        // Normalized ratio: >1 means this run is slower than the baseline
        // after accounting for host speed.
        let ratio =
            (c.wall_ns as f64 / cur.calib_ns as f64) / (b.wall_ns as f64 / base.calib_ns as f64);
        if ratio > 1.0 + tolerance {
            out.violations.push(format!(
                "{}: {:.2}x normalized slowdown (tolerance {:.0}%)",
                b.name,
                ratio,
                tolerance * 100.0
            ));
        } else if ratio < 1.0 / (1.0 + tolerance) {
            out.notes.push(format!(
                "{}: {:.2}x normalized speedup",
                b.name,
                1.0 / ratio
            ));
        }
        // The net column gates the same way, but only when both sides
        // carry it — a baseline from before the column (or measured
        // without --net) neither fails nor warns, so adopting the column
        // never breaks an existing perf-smoke gate.
        match (c.net_wall_ns, b.net_wall_ns) {
            (Some(cn), Some(bn)) => {
                let ratio = (cn as f64 / cur.calib_ns as f64) / (bn as f64 / base.calib_ns as f64);
                if ratio > 1.0 + tolerance {
                    out.violations.push(format!(
                        "{}: {:.2}x normalized net-backend slowdown (tolerance {:.0}%)",
                        b.name,
                        ratio,
                        tolerance * 100.0
                    ));
                }
            }
            (Some(_), None) => out.notes.push(format!(
                "{}: net column measured but absent from baseline",
                b.name
            )),
            (None, Some(_)) => out.notes.push(format!(
                "{}: baseline has a net column this run did not measure (pass --net)",
                b.name
            )),
            (None, None) => {}
        }
    }
    for c in &cur.points {
        if !base.points.iter().any(|b| b.name == c.name) {
            out.notes
                .push(format!("{}: new benchmark (not in baseline)", c.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use olden_benchmarks::by_name;

    fn sample() -> BenchFile {
        let d = by_name("TreeAdd").unwrap();
        BenchFile {
            procs: 8,
            calib_ns: 10_000_000,
            points: vec![point(&d, 8, SizeClass::Tiny, 1, None)],
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let f = sample();
        let parsed = BenchFile::parse(&f.render()).expect("own output parses");
        assert_eq!(parsed, f);
        assert!(
            f.points[0].counters["futures"] > 0,
            "TreeAdd spawns futures"
        );
        assert!(f.points[0].counters.contains_key("messages"));
    }

    /// The perf-smoke gate really fires: a synthetic 2x slowdown on one
    /// benchmark (same calibration) is a violation at 35% tolerance.
    #[test]
    fn synthetic_double_slowdown_is_a_violation() {
        let base = sample();
        let mut cur = base.clone();
        cur.points[0].wall_ns *= 2;
        let out = check(&cur, &base, 0.35);
        assert!(
            out.violations.iter().any(|v| v.contains("slowdown")),
            "2x slowdown not flagged: {out:?}"
        );
        // And the same wall times pass clean.
        assert!(check(&base, &base, 0.35).violations.is_empty());
    }

    /// A twice-as-fast *host* is not a slowdown: the calibration ratio
    /// cancels machine speed out.
    #[test]
    fn calibration_normalizes_host_speed() {
        let base = sample();
        let mut cur = base.clone();
        cur.calib_ns *= 2; // slower host...
        cur.points[0].wall_ns *= 2; // ...slows the benchmark equally
        assert!(check(&cur, &base, 0.35).violations.is_empty());
    }

    #[test]
    fn counter_drift_is_a_violation() {
        let base = sample();
        let mut cur = base.clone();
        *cur.points[0].counters.get_mut("migrations").unwrap() += 1;
        let out = check(&cur, &base, 0.35);
        assert!(
            out.violations.iter().any(|v| v.contains("migrations")),
            "counter drift not flagged: {out:?}"
        );
    }

    /// The net column survives render → parse, and a file measured
    /// without `--net` renders with no trace of the column at all.
    #[test]
    fn net_column_round_trips_and_is_truly_optional() {
        let mut f = sample();
        assert!(
            !f.render().contains("net_wall_ns"),
            "unmeasured net column must not appear in the JSON"
        );
        f.points[0].net_wall_ns = Some(123_456_789);
        let parsed = BenchFile::parse(&f.render()).expect("own output parses");
        assert_eq!(parsed, f);
        assert_eq!(parsed.points[0].net_wall_ns, Some(123_456_789));
    }

    /// A net-backend slowdown beyond tolerance is a violation when both
    /// files carry the column; a column mismatch is only a note, so a
    /// pre-net baseline keeps gating exactly as before.
    #[test]
    fn net_column_gates_symmetrically_and_skips_asymmetrically() {
        let mut base = sample();
        base.points[0].net_wall_ns = Some(50_000_000);
        let mut cur = base.clone();
        cur.points[0].net_wall_ns = Some(200_000_000);
        let out = check(&cur, &base, 0.35);
        assert!(
            out.violations.iter().any(|v| v.contains("net-backend")),
            "4x net slowdown not flagged: {out:?}"
        );

        // No net column, as committed baselines predate it. Derived from
        // `base` rather than measured again: a second `sample()` has its
        // own wall time, which under a loaded test run can differ by more
        // than the tolerance and flag a slowdown this test is not about.
        let mut old_base = base.clone();
        old_base.points[0].net_wall_ns = None;
        let out = check(&cur, &old_base, 0.35);
        assert!(
            out.violations.is_empty(),
            "a pre-net baseline must keep passing: {out:?}"
        );
        assert!(out.notes.iter().any(|n| n.contains("absent from baseline")));
    }

    #[test]
    fn missing_benchmark_is_a_violation() {
        let base = sample();
        let cur = BenchFile {
            procs: 8,
            calib_ns: base.calib_ns,
            points: Vec::new(),
        };
        let out = check(&cur, &base, 0.35);
        assert!(out.violations.iter().any(|v| v.contains("missing")));
    }
}
