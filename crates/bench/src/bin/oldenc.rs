//! `oldenc` — the command line over the Olden DSL stack and its backends.
//!
//! This file is usage, one table of subcommands ([`SPECS`]: synopsis,
//! accepted flags, and the call the validated flags turn into) and
//! dispatch. Every body lives in `olden_bench` — [`reports`] for the static
//! surfaces (`lint`, `check`, `typecheck`, `gen`, `fuzz`, `opt`, `select`,
//! `scheme`, `predict`), [`parity`] for the executed ones (`run`, `elide`,
//! `chaos`, `difftest`, `net`), [`profile`] and [`golden`] — where the
//! tests call the same functions, so CLI and tests cannot drift. Each
//! function's doc comment is its subcommand's reference.
//!
//! Exit codes: 0 clean, 1 a finding / divergence / drifted golden, 2 a
//! usage, read or parse error, 3 loopback TCP unavailable (`net`,
//! `profile --net`).
//!
//! The net backend's worker processes re-enter this binary through a
//! hidden `net-worker` subcommand, so a single installed `oldenc` is the
//! whole fleet.

use olden_bench::cli::{self, known_bench, Args};
use olden_bench::{golden, parity, profile, reports};
use olden_runtime::Protocol;
use std::process::ExitCode;

/// One subcommand: its usage line, the flags it accepts, and the call
/// they turn into. `run` validates every value (`?`) before it calls, so
/// an `Err` means nothing ran.
struct Spec {
    name: &'static str,
    synopsis: &'static str,
    valued: &'static [&'static str],
    switches: &'static [&'static str],
    positionals: usize,
    run: fn(&Args) -> Result<ExitCode, String>,
}

const LOCAL: Protocol = Protocol::LocalKnowledge;

/// Print a report.
fn show(report: String) -> ExitCode {
    print!("{report}");
    ExitCode::SUCCESS
}

const SPECS: [Spec; 16] = [
    Spec {
        name: "lint",
        synopsis: "[--json]",
        valued: &[],
        switches: &["--json"],
        positionals: 0,
        run: |a| {
            if a.has("--json") {
                return Ok(show(reports::lint_json_report()? + "\n"));
            }
            Ok(show(reports::lint_report()))
        },
    },
    Spec {
        name: "check",
        synopsis: "FILE...",
        valued: &[],
        switches: &[],
        positionals: usize::MAX,
        run: |a| {
            if a.positionals.is_empty() {
                return Err("check needs at least one FILE".into());
            }
            Ok(reports::check(&a.positionals))
        },
    },
    Spec {
        name: "typecheck",
        synopsis: "[FILE...] [--json]",
        valued: &[],
        switches: &["--json"],
        positionals: usize::MAX,
        run: |a| Ok(reports::typecheck(&a.positionals, a.has("--json"))),
    },
    Spec {
        name: "gen",
        synopsis: "[--seed S] [--count N]",
        valued: &["--seed", "--count"],
        switches: &[],
        positionals: 0,
        run: |a| {
            let seed = a.num("--seed", 0, 0..=u64::MAX)?;
            Ok(show(reports::gen_report(
                seed,
                a.num("--count", 1, 1..=10_000)?,
            )))
        },
    },
    Spec {
        name: "fuzz",
        synopsis: "[--seeds N] [--start S]",
        valued: &["--seeds", "--start"],
        switches: &[],
        positionals: 0,
        run: |a| {
            let seeds = a.seeds(reports::NON_VACUITY_SEEDS)?;
            Ok(reports::fuzz(seeds, a.num("--start", 0, 0..=u64::MAX)?))
        },
    },
    Spec {
        name: "opt",
        synopsis: "",
        valued: &[],
        switches: &[],
        positionals: 0,
        run: |_| Ok(show(reports::opt_report())),
    },
    Spec {
        name: "select",
        synopsis: "[BENCH]",
        valued: &[],
        switches: &[],
        positionals: 1,
        run: |a| Ok(show(reports::select_report(a.bench()?))),
    },
    Spec {
        name: "scheme",
        synopsis: "[BENCH]",
        valued: &[],
        switches: &[],
        positionals: 1,
        run: |a| Ok(show(reports::scheme_report(a.bench()?))),
    },
    Spec {
        name: "predict",
        synopsis: "[BENCH] [--json]",
        valued: &[],
        switches: &["--json"],
        positionals: 1,
        run: |a| {
            let bench = a.bench()?;
            if a.has("--json") {
                return Ok(show(reports::predict_json_report(bench)? + "\n"));
            }
            Ok(show(reports::predict_report(bench)))
        },
    },
    Spec {
        name: "run",
        synopsis: "[BENCH] [--procs N] [--protocol local|global|bilateral|auto]",
        valued: &["--procs", "--protocol"],
        switches: &[],
        positionals: 1,
        run: |a| {
            // `auto`, the default, asks the scheme pass.
            let protocol = match a.get("--protocol") {
                Some("auto") => None,
                _ => a.protocol()?,
            };
            Ok(parity::run(a.bench()?, a.procs(8)?, protocol))
        },
    },
    Spec {
        name: "elide",
        synopsis: "",
        valued: &[],
        switches: &[],
        positionals: 0,
        run: |_| Ok(parity::elide()),
    },
    Spec {
        name: "chaos",
        synopsis: "[--seeds N] [--stall-timeout SECS]",
        valued: &["--seeds", "--stall-timeout"],
        switches: &[],
        positionals: 0,
        run: |a| Ok(parity::chaos(a.seeds(32)?, a.stall()?)),
    },
    Spec {
        name: "difftest",
        synopsis: "[--seeds N] [--protocol local|global|bilateral]",
        valued: &["--seeds", "--protocol"],
        switches: &[],
        positionals: 0,
        run: |a| {
            let protocol = a.protocol()?.unwrap_or(LOCAL);
            Ok(parity::difftest(a.seeds(200)?, protocol))
        },
    },
    Spec {
        name: "profile",
        synopsis: "BENCH [--trace PATH] [--procs N] [--width N] [--net]",
        valued: &["--trace", "--procs", "--width"],
        switches: &["--net"],
        positionals: 1,
        run: |a| {
            let bench = a.positionals.first().ok_or("profile needs a BENCH")?;
            let (d, procs) = (known_bench(bench)?, a.procs(8)?);
            let width = a.num("--width", 72, 8..=usize::MAX)?;
            let trace = a.get("--trace");
            Ok(profile::profile(&d, trace, procs, width, a.has("--net")))
        },
    },
    Spec {
        name: "net",
        synopsis: "[BENCH] [--procs N] [--seeds N] [--protocol P] [--stall-timeout SECS]",
        valued: &["--procs", "--seeds", "--protocol", "--stall-timeout"],
        switches: &[],
        positionals: 1,
        run: |a| {
            let (bench, procs, seeds) = (a.bench()?, a.procs(4)?, a.seeds(0)?);
            let protocol = a.protocol()?.unwrap_or(LOCAL);
            Ok(parity::net(bench, procs, seeds, protocol, a.stall()?))
        },
    },
    Spec {
        name: "golden",
        synopsis: "[NAME...] [--bless]",
        valued: &[],
        switches: &["--bless"],
        positionals: usize::MAX,
        run: |a| {
            let rows = golden::select(&a.positionals)?;
            Ok(golden::golden(&rows, a.has("--bless")))
        },
    },
];

fn usage() {
    for (i, s) in SPECS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        eprintln!("{lead} oldenc {} {}", s.name, s.synopsis);
    }
    let rows: Vec<&str> = golden::GOLDENS.iter().map(|g| g.name).collect();
    eprintln!("golden NAMEs: {}", rows.join(" "));
}

/// Look the subcommand up and walk its flags.
fn resolve(argv: &[String]) -> Result<(&'static Spec, Args), String> {
    let (name, rest) = argv.split_first().ok_or("no subcommand given")?;
    let spec = SPECS.iter().find(|s| s.name == name);
    let spec = spec.ok_or_else(|| format!("unknown subcommand {name:?}"))?;
    let args = cli::parse(rest, spec.valued, spec.switches, spec.positionals)?;
    Ok((spec, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|name| name == "net-worker") {
        // Spawned by the orchestrator, never typed by a user, so it stays
        // out of SPECS and usage().
        olden_net::worker::main_from_args(&argv[1..]);
    }
    match resolve(&argv).and_then(|(spec, args)| (spec.run)(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("oldenc: {e}");
            usage();
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve_line(line: &str) -> Result<(&'static Spec, Args), String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        resolve(&argv)
    }

    /// The `Err` a malformed line yields — from the flag walk or from a
    /// typed accessor inside `run`, which validates before it calls.
    fn rejection(line: &str) -> String {
        let outcome = resolve_line(line).and_then(|(spec, args)| (spec.run)(&args));
        outcome
            .err()
            .unwrap_or_else(|| panic!("{line:?} must be rejected"))
    }

    /// The positional `BENCH` is accepted anywhere among the flags.
    #[test]
    fn bench_position_does_not_matter() {
        for (first, second) in [
            ("net --procs 4 TreeAdd", "net TreeAdd --procs 4"),
            ("run --procs 4 Power", "run Power --procs 4"),
            ("profile --procs 4 health", "profile health --procs 4"),
            ("predict --json em3d", "predict em3d --json"),
        ] {
            let (a, b) = (resolve_line(first).unwrap(), resolve_line(second).unwrap());
            assert_eq!(a.0.name, b.0.name, "{first}");
            assert_eq!(a.1, b.1, "{first}");
        }
        let (_, a) = resolve_line("net --procs 4 TreeAdd").unwrap();
        assert_eq!(a.bench(), Ok(Some("TreeAdd")));
        assert_eq!(a.procs(8), Ok(4));
    }

    /// Every malformed invocation is a usage error (exit 2) — never a
    /// panic, never a silent default, and nothing runs.
    #[test]
    fn malformed_invocations_are_usage_errors() {
        for line in [
            "",
            "frobnicate",
            "bench",
            "net --bogus",
            "net --procs",
            "net TreeAdd --stall-timeout",
            "net --procs 0",
            "run --procs 65",
            "chaos --seeds 0",
            "difftest --seeds 0",
            "fuzz --seeds 0",
            "difftest --protocol auto",
            "run NoSuchBench",
            "run TreeAdd Power",
            "profile",
            "check",
            "gen --count 0",
            "opt extra",
        ] {
            rejection(line);
        }
        let err = rejection("golden --bless nope");
        for g in &golden::GOLDENS {
            assert!(err.contains(g.name), "{err}");
        }
    }

    /// Goldens are checked and blessed through `oldenc golden` only: no
    /// subcommand keeps a `--golden` flag.
    #[test]
    fn no_subcommand_accepts_a_golden_flag() {
        for s in &SPECS {
            let err = rejection(&format!("{} --golden tests/golden/x.txt", s.name));
            assert!(err.contains("unknown flag --golden"), "{}: {err}", s.name);
        }
        let (_, a) = resolve_line("golden run lint --bless").unwrap();
        assert_eq!(golden::select(&a.positionals).unwrap(), ["lint", "run"]);
        assert!(a.has("--bless"));
    }

    /// The command lines CI and the nightly workflow type.
    #[test]
    fn documented_invocations_resolve() {
        let (_, a) = resolve_line("fuzz --seeds 5000").unwrap();
        assert_eq!(a.seeds(100), Ok(5000));
        let (_, a) = resolve_line("difftest --seeds 1000 --protocol bilateral").unwrap();
        assert_eq!(a.seeds(200), Ok(1000));
        assert_eq!(a.protocol(), Ok(Some(Protocol::Bilateral)));
        let (_, a) = resolve_line("net --procs 4 --seeds 2").unwrap();
        assert_eq!(
            (a.bench(), a.procs(8), a.seeds(0)),
            (Ok(None), Ok(4), Ok(2))
        );
        let (_, a) = resolve_line("run --procs 8 --protocol local").unwrap();
        assert_eq!((a.bench(), a.protocol()), (Ok(None), Ok(Some(LOCAL))));
    }
}
