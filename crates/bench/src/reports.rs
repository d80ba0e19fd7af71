//! `oldenc`'s static surfaces: what the analysis stack says about the DSL
//! renditions of the ten Table-1 benchmarks (lint, opt, select, scheme,
//! predict), about files (check, typecheck) and about generated programs
//! (gen, fuzz). Every `*_report` is a pure function of its arguments, so
//! the [`crate::golden`] table pins it byte for byte.

use olden_analysis::diag::Diagnostic;
use olden_analysis::gen::gen_source;
use olden_analysis::racecheck::racecheck_src;
use olden_analysis::typeck::typecheck_src;
use olden_analysis::verify::{shrink, source_fails, verify_seed, Coverage};
use olden_analysis::{mech_table, optimize_src, parse, predict, select_scheme_src, ParseError};
use olden_benchmarks::{Descriptor, SizeClass};
use olden_obs::json::Json;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One `== name ==` section per selected benchmark, in registry (paper
/// Table 1) order. A benchmark DSL that stops parsing is a bug in the
/// repo, not in the user's input; it is written into the report so the
/// golden comparison catches it.
fn sections(
    bench: Option<&str>,
    body: impl Fn(&Descriptor) -> Result<String, ParseError>,
) -> String {
    let mut out = String::new();
    for d in crate::selected(bench) {
        let _ = writeln!(out, "== {} ==", d.name);
        match body(&d) {
            Ok(text) => out.push_str(&text),
            Err(e) => {
                let _ = writeln!(out, "parse error: {e}");
            }
        }
    }
    out
}

/// `key=value` columns, space-separated.
pub(crate) fn columns<K: std::fmt::Display>(pairs: &[(K, u64)]) -> String {
    let cols: Vec<String> = pairs.iter().map(|(k, n)| format!("{k}={n}")).collect();
    cols.join(" ")
}

/// The `lint` report: one `name: ...` line per race finding (or
/// `name: clean`). Diagnostics come out of the checker already sorted.
pub fn lint_report() -> String {
    let mut out = String::new();
    for d in olden_benchmarks::all() {
        match racecheck_src(d.dsl) {
            Err(e) => {
                let _ = writeln!(out, "{}: parse error: {e}", d.name);
            }
            Ok(diags) if diags.is_empty() => {
                let _ = writeln!(out, "{}: clean", d.name);
            }
            Ok(diags) => {
                for diag in diags {
                    let _ = writeln!(out, "{}: {}", d.name, diag.one_line());
                }
            }
        }
    }
    out
}

/// One unit's diagnostics as a JSON row: stable code, severity name,
/// 1-based position and the rendered message per finding.
fn diags_json(name: &str, diags: &[Diagnostic]) -> Json {
    let diag = |d: &Diagnostic| {
        Json::Obj(vec![
            ("code".into(), Json::str(d.code)),
            ("severity".into(), Json::str(d.severity.name())),
            ("line".into(), Json::u64(u64::from(d.span.line))),
            ("col".into(), Json::u64(u64::from(d.span.col))),
            ("message".into(), Json::str(d.message.clone())),
        ])
    };
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        (
            "diagnostics".into(),
            Json::Arr(diags.iter().map(diag).collect()),
        ),
    ])
}

/// `lint --json`: the same racecheck sweep as [`lint_report`], one object
/// per benchmark with its diagnostics array.
pub fn lint_json_report() -> Result<String, String> {
    let mut rows = Vec::new();
    for d in olden_benchmarks::all() {
        let diags = racecheck_src(d.dsl).map_err(|e| format!("{} DSL: {e}", d.name))?;
        rows.push(diags_json(d.name, &diags));
    }
    Ok(Json::Arr(rows).render())
}

/// Read each path, or fail with the exit-2 message.
fn read_files(files: &[String]) -> Result<Vec<(String, String)>, String> {
    let read = |path: &String| match std::fs::read_to_string(path) {
        Ok(src) => Ok((path.clone(), src)),
        Err(e) => Err(format!("cannot read {path}: {e}")),
    };
    files.iter().map(read).collect()
}

/// The default `typecheck` sweep: the registry benchmarks plus the racy
/// corpus, all of which must be type-clean (races are a scheduling
/// property, not a typing one).
pub fn typecheck_units() -> Vec<(String, String)> {
    let benches = olden_benchmarks::all()
        .into_iter()
        .map(|d| (d.name.to_string(), d.dsl.to_string()));
    let racy = olden_benchmarks::racy::seeds()
        .into_iter()
        .map(|s| (format!("racy/{}", s.name), s.dsl.to_string()));
    benches.chain(racy).collect()
}

/// `oldenc typecheck [FILE...] [--json]`: the TC0xx front gate — struct /
/// field / pointer types, future-handle touch discipline, loop induction
/// variables, call arity — over the files, or [`typecheck_units`] when
/// none. Exit 1 on any diagnostic, 2 on read or parse errors.
pub fn typecheck(files: &[String], json: bool) -> ExitCode {
    let units = if files.is_empty() {
        typecheck_units()
    } else {
        match read_files(files) {
            Ok(units) => units,
            Err(e) => {
                eprintln!("oldenc: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let mut findings = 0usize;
    let mut rows = Vec::new();
    for (name, src) in &units {
        let diags = match typecheck_src(src) {
            Ok(diags) => diags,
            Err(e) => {
                eprintln!("{name}: parse error: {e}");
                return ExitCode::from(2);
            }
        };
        findings += diags.len();
        if json {
            rows.push(diags_json(name, &diags));
        } else if diags.is_empty() {
            println!("{name}: clean");
        } else {
            for d in &diags {
                println!("{name}: {}", d.one_line());
            }
        }
    }
    if json {
        println!("{}", Json::Arr(rows).render());
    }
    if findings == 0 {
        if !json {
            eprintln!("oldenc: {} unit(s) type-clean", units.len());
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("oldenc: {findings} type error(s)");
        ExitCode::FAILURE
    }
}

/// `oldenc check FILE...`: the race linter over source files, printing
/// full multi-line diagnostics. Exit 1 when anything is reported, 2 on
/// read or parse errors.
pub fn check(files: &[String]) -> ExitCode {
    let units = match read_files(files) {
        Ok(units) => units,
        Err(e) => {
            eprintln!("oldenc: {e}");
            return ExitCode::from(2);
        }
    };
    let mut findings = 0usize;
    for (path, src) in &units {
        match racecheck_src(src) {
            Ok(diags) => {
                for d in &diags {
                    println!("{path}: {d}");
                }
                findings += diags.len();
            }
            Err(e) => {
                eprintln!("{path}: parse error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if findings == 0 {
        eprintln!("oldenc: {} file(s) clean", files.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("oldenc: {findings} finding(s)");
        ExitCode::FAILURE
    }
}

/// The `gen` report: `count` well-typed programs from consecutive seeds
/// starting at `seed`, each under a `// seed N` header. Any grammar or
/// seeding change to `olden_analysis::gen` shows up in its golden as a
/// reviewable diff rather than silently shifting every fuzz seed.
pub fn gen_report(seed: u64, count: u64) -> String {
    let mut out = String::new();
    for s in seed..seed.saturating_add(count) {
        let _ = writeln!(out, "// seed {s}");
        out.push_str(&gen_source(s));
    }
    out
}

/// The mutation classes `verify_seed` seeds into generated programs;
/// each must be rejected with its matching TC0xx code somewhere in any
/// sweep of at least [`NON_VACUITY_SEEDS`] seeds.
const MUTATION_CLASSES: [&str; 5] = [
    "drop-touch",
    "break-arity",
    "retype-arg",
    "retype-field",
    "double-touch",
];

/// Sweep length from which the non-vacuity gate is enforced: every
/// class provably fires within any 100 consecutive seeds starting at 0
/// (pinned by `every_mutation_class_is_exercised`).
pub const NON_VACUITY_SEEDS: u64 = 100;

/// `oldenc fuzz [--seeds N] [--start S]`: the metamorphic verification
/// sweep of `olden_analysis::verify` — per generated program, pretty-
/// print→reparse round-trip, a clean typecheck, totality and cross-pass
/// consistency of every analysis, metamorphic invariance, and rejection
/// of seeded ill-typed mutations with the matching TC0xx code. A failing
/// seed is delta-debugged to a minimal reproducer written under
/// `tests/corpus/`, where `corpus_repros_replay_clean` replays it on
/// every future `cargo test`.
pub fn fuzz(seeds: u64, start: u64) -> ExitCode {
    let mut cov = Coverage::default();
    for seed in start..start.saturating_add(seeds) {
        if let Err(f) = verify_seed(seed, &mut cov) {
            eprintln!("oldenc: {f}");
            let small = shrink(&f.source, &source_fails);
            save_repro(&format!("tests/corpus/fail-seed{seed}.dsl"), &small);
            return ExitCode::FAILURE;
        }
    }
    print!("{}", cov.render());
    if seeds >= NON_VACUITY_SEEDS {
        for class in MUTATION_CLASSES {
            if cov.mutations.get(class).copied().unwrap_or(0) == 0 {
                eprintln!("oldenc: mutation class `{class}` never fired over {seeds} seed(s)");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Write a shrunken reproducer into the corpus (or, failing that, to
/// stderr so the finding is not lost).
pub(crate) fn save_repro(path: &str, small: &str) {
    match std::fs::write(path, small) {
        Ok(()) => eprintln!("oldenc: shrunken reproducer written to {path}"),
        Err(e) => eprintln!("oldenc: cannot write {path}: {e}; reproducer:\n{small}"),
    }
}

/// The `opt` report: each benchmark's per-site check-elision verdicts
/// (site, span, mechanism, verdict, reason) plus touch findings.
pub fn opt_report() -> String {
    sections(None, |d| optimize_src(d.dsl).map(|r| r.render()))
}

/// The `select` report: each benchmark's whole-program mechanism table —
/// the per-control-loop selection summary (induction variable, affinity
/// vs the 90 % threshold, parallel/bottleneck flags) followed by one
/// verdict line per dereference site.
pub fn select_report(bench: Option<&str>) -> String {
    sections(bench, |d| {
        parse(d.dsl).map(|prog| mech_table(&prog).render())
    })
}

/// The `scheme` report: each benchmark's Appendix-A coherence-scheme
/// verdict — the signals it was derived from (migration density, cached
/// write-set size, parallel fan-out, shared-root bottlenecks, race
/// findings) and the chosen scheme with reasons.
pub fn scheme_report(bench: Option<&str>) -> String {
    sections(bench, |d| select_scheme_src(d.dsl).map(|v| v.render()))
}

/// Processor count `predict` evaluates at — with `SizeClass::Tiny`, the
/// point `select_parity` measures, so the printed numbers are exactly
/// the ones that gate holds within each descriptor's ratio bands.
const PREDICT_PROCS: usize = 8;

/// One benchmark's cost-model input and output: the size-derived trip
/// counts and the predicted dynamic counters (migrations, line fetches,
/// invalidations, remote touches).
type Prediction = (Vec<(&'static str, u64)>, [(&'static str, u64); 4]);

fn predicted(d: &Descriptor) -> Result<Prediction, ParseError> {
    let prog = parse(d.dsl)?;
    let trips = (d.trips)(SizeClass::Tiny, PREDICT_PROCS);
    let p = predict(&prog, mech_table(&prog), &trips, PREDICT_PROCS);
    Ok((trips, p.counters()))
}

/// The `predict` report: per benchmark, the trip counts the static cost
/// model consumed and the counters it predicts from them — no execution.
pub fn predict_report(bench: Option<&str>) -> String {
    sections(bench, |d| {
        let (trips, counters) = predicted(d)?;
        Ok(format!(
            "trips ({PREDICT_PROCS} procs): {}\npredicted: {}\n",
            columns(&trips),
            columns(&counters)
        ))
    })
}

/// `predict --json`: one `{name, procs, trips, predicted}` row per
/// selected benchmark.
pub fn predict_json_report(bench: Option<&str>) -> Result<String, String> {
    let object = |pairs: &[(&'static str, u64)]| {
        Json::Obj(
            pairs
                .iter()
                .map(|(k, n)| (k.to_string(), Json::u64(*n)))
                .collect(),
        )
    };
    let mut rows = Vec::new();
    for d in crate::selected(bench) {
        let (trips, counters) = predicted(&d).map_err(|e| format!("{} DSL: {e}", d.name))?;
        rows.push(Json::Obj(vec![
            ("name".into(), Json::str(d.name)),
            ("procs".into(), Json::u64(PREDICT_PROCS as u64)),
            ("trips".into(), object(&trips)),
            ("predicted".into(), object(&counters)),
        ]));
    }
    Ok(Json::Arr(rows).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `lint --json` parses back through the same hand-rolled JSON layer
    /// and carries one row per registry benchmark.
    #[test]
    fn lint_json_round_trips() {
        let parsed = Json::parse(&lint_json_report().unwrap()).unwrap();
        let rows = parsed.as_arr().unwrap();
        assert_eq!(rows.len(), olden_benchmarks::all().len());
        for row in rows {
            assert!(row.get("name").and_then(Json::as_str).is_some());
            assert!(row.get("diagnostics").and_then(Json::as_arr).is_some());
        }
    }

    /// `predict --json` round-trips too: ten rows, each naming its
    /// benchmark, the processor count, its trips and its predictions —
    /// the same numbers the text surface prints.
    #[test]
    fn predict_json_round_trips() {
        let parsed = Json::parse(&predict_json_report(None).unwrap()).unwrap();
        let rows = parsed.as_arr().unwrap();
        assert_eq!(rows.len(), olden_benchmarks::all().len());
        let text = predict_report(None);
        for row in rows {
            let name = row.get("name").and_then(Json::as_str).unwrap();
            assert_eq!(row.get("procs").and_then(Json::as_u64), Some(8), "{name}");
            assert!(row.get("trips").and_then(Json::as_obj).is_some(), "{name}");
            let predicted = row.get("predicted").and_then(Json::as_obj).unwrap();
            let pairs: Vec<_> = predicted
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_u64().unwrap()))
                .collect();
            assert_eq!(pairs.len(), 4, "{name}");
            assert!(text.contains(&format!("predicted: {}\n", columns(&pairs))));
        }
        let one = Json::parse(&predict_json_report(Some("TreeAdd")).unwrap()).unwrap();
        assert_eq!(one.as_arr().unwrap().len(), 1);
    }

    /// The TC0xx front gate must never reject a program the later passes
    /// are specified over.
    #[test]
    fn typecheck_sweep_units_are_clean() {
        let units = typecheck_units();
        assert!(units.len() > olden_benchmarks::all().len());
        for (name, src) in units {
            let diags = typecheck_src(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(diags.is_empty(), "{name}: {}", diags[0].one_line());
        }
    }

    /// Every scheme verdict names a scheme the runtime can actually run:
    /// the analysis-side `Scheme` spellings and the runtime's `Protocol`
    /// spellings are the same namespace.
    #[test]
    fn scheme_verdicts_name_runnable_protocols() {
        for d in olden_benchmarks::all() {
            let v = select_scheme_src(d.dsl).unwrap_or_else(|e| panic!("{} DSL: {e}", d.name));
            assert!(
                olden_runtime::Protocol::from_name(v.scheme.name()).is_some(),
                "{}: scheme {:?} has no runtime protocol",
                d.name,
                v.scheme
            );
        }
    }

    /// Every descriptor's recorded `elided_sites` list is byte-equal to
    /// what the live optimizer proves on its DSL — the runtime trusts
    /// these keys, so they must never go stale.
    #[test]
    fn descriptor_elided_sites_match_optimizer() {
        for d in olden_benchmarks::all() {
            let rep = optimize_src(d.dsl).unwrap_or_else(|e| panic!("{} DSL: {e}", d.name));
            let recorded: Vec<String> = d.elided_sites.iter().map(|s| s.to_string()).collect();
            assert_eq!(
                recorded,
                rep.elided_keys(),
                "{}: descriptor elided_sites diverge from the optimizer",
                d.name
            );
        }
    }

    /// Every descriptor's recorded `selected_mechanisms` list is
    /// byte-equal to what the live heuristic decides on its DSL — same
    /// discipline as `elided_sites`. (`select_parity` re-asserts this
    /// plus kernel conformance; this keeps `cargo test -p olden-bench`
    /// self-contained.)
    #[test]
    fn descriptor_selected_mechanisms_match_heuristic() {
        for d in olden_benchmarks::all() {
            let prog = parse(d.dsl).unwrap_or_else(|e| panic!("{} DSL: {e}", d.name));
            let recorded: Vec<String> = d
                .selected_mechanisms
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(
                recorded,
                mech_table(&prog).keys(),
                "{}: descriptor selected_mechanisms diverge from the heuristic",
                d.name
            );
        }
    }

    #[test]
    fn every_benchmark_dsl_parses() {
        for d in olden_benchmarks::all() {
            racecheck_src(d.dsl).unwrap_or_else(|e| panic!("{} DSL: {e}", d.name));
        }
    }
}
