//! The one table of pinned surfaces. Each row names a report function
//! and the file under `tests/golden/` holding exactly what it prints
//! today; any drift — a new warning, a moved counter, a silently vanished
//! line — is a diff. Two callers: the `goldens_are_current` test and
//! `oldenc golden [NAME...] [--bless]`.

use crate::parity::{chaos_report, difftest_report, run_report};
use crate::reports::{gen_report, lint_report, opt_report, scheme_report, select_report};
use olden_runtime::Protocol;
use std::path::Path;
use std::process::ExitCode;

/// One pinned surface.
pub struct Golden {
    /// The row's name on the `oldenc golden` command line.
    pub name: &'static str,
    /// File name under `tests/golden/`.
    pub file: &'static str,
    /// The report, a pure function of the repository.
    pub report: fn() -> String,
}

/// Where the files live, relative to the repository root.
pub const GOLDEN_DIR: &str = "tests/golden";

/// Every pinned surface. The dynamic rows carry their own verdict lines
/// (`320/320 faulted runs byte-equal`, `0 divergence(s)`, `parity:
/// byte-equal`), so equality with the file also asserts a clean sweep.
pub const GOLDENS: [Golden; 10] = [
    Golden {
        name: "lint",
        file: "oldenc-benchmarks.txt",
        report: lint_report,
    },
    Golden {
        name: "gen",
        file: "oldenc-gen.txt",
        report: || gen_report(0, 5),
    },
    Golden {
        name: "opt",
        file: "oldenc-opt.txt",
        report: opt_report,
    },
    Golden {
        name: "select",
        file: "oldenc-select.txt",
        report: || select_report(None),
    },
    Golden {
        name: "scheme",
        file: "oldenc-scheme.txt",
        report: || scheme_report(None),
    },
    Golden {
        name: "chaos",
        file: "oldenc-chaos.txt",
        report: || chaos_report(32, None).0,
    },
    Golden {
        name: "difftest",
        file: "oldenc-difftest.txt",
        report: || difftest_report(200, Protocol::LocalKnowledge).0,
    },
    Golden {
        name: "difftest-global",
        file: "oldenc-difftest-global.txt",
        report: || difftest_report(200, Protocol::GlobalKnowledge).0,
    },
    Golden {
        name: "difftest-bilateral",
        file: "oldenc-difftest-bilateral.txt",
        report: || difftest_report(200, Protocol::Bilateral).0,
    },
    Golden {
        name: "run",
        file: "oldenc-run.txt",
        report: || run_report(None, 8, Some(Protocol::LocalKnowledge)).0,
    },
];

/// Minimal line diff: every golden line not in the output (`-`) and
/// every output line not in the golden (`+`), in file order.
fn diff_lines(want: &str, got: &str) -> Vec<String> {
    let want: Vec<&str> = want.lines().collect();
    let got: Vec<&str> = got.lines().collect();
    let gone = want.iter().filter(|w| !got.contains(w));
    let new = got.iter().filter(|g| !want.contains(g));
    gone.map(|w| format!("- {w}"))
        .chain(new.map(|g| format!("+ {g}")))
        .collect()
}

impl Golden {
    /// Hold the live report against the file in `dir`; on mismatch, the
    /// line diff and the exact command that re-records it.
    pub fn verify(&self, dir: &Path) -> Result<(), String> {
        let path = dir.join(self.file);
        let want = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read golden file {}: {e}", path.display()))?;
        let got = (self.report)();
        if got == want {
            return Ok(());
        }
        Err(format!(
            "{} output diverges from {}:\n  {}\nre-record with: cargo run --release -q \
             -p olden-bench --bin oldenc -- golden {} --bless",
            self.name,
            path.display(),
            diff_lines(&want, &got).join("\n  "),
            self.name
        ))
    }
}

/// The row names `names` select, in table order (all of them when
/// empty), or the table's names when one is unknown.
pub fn select(names: &[String]) -> Result<Vec<&'static str>, String> {
    let known: Vec<&str> = GOLDENS.iter().map(|g| g.name).collect();
    if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
        return Err(format!(
            "no golden named {bad:?}; known: {}",
            known.join(", ")
        ));
    }
    let wanted = |name: &&str| names.is_empty() || names.iter().any(|n| n == name);
    Ok(known.into_iter().filter(wanted).collect())
}

/// `oldenc golden [NAME...] [--bless]`, run from the repository root:
/// verify each row [`select`] named (exit 1 on any drift) or, with
/// `--bless`, re-record its file in place.
pub fn golden(rows: &[&str], bless: bool) -> ExitCode {
    let dir = Path::new(GOLDEN_DIR);
    let mut drifted = 0usize;
    for g in GOLDENS.iter().filter(|g| rows.contains(&g.name)) {
        if bless {
            let path = dir.join(g.file);
            if let Err(e) = std::fs::write(&path, (g.report)()) {
                eprintln!("oldenc: cannot write golden file {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("oldenc: blessed {} output into {}", g.name, path.display());
        } else if let Err(e) = g.verify(dir) {
            eprintln!("oldenc: {e}");
            drifted += 1;
        } else {
            eprintln!("oldenc: {} output matches {}", g.name, g.file);
        }
    }
    if drifted == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(GOLDEN_DIR)
    }

    /// Every checked-in golden is exactly what its report prints today.
    #[test]
    fn goldens_are_current() {
        let dir = golden_dir();
        let drift: Vec<String> = GOLDENS
            .iter()
            .filter_map(|g| g.verify(&dir).err())
            .collect();
        assert!(drift.is_empty(), "\n{}", drift.join("\n\n"));
    }

    /// The table and the directory name the same files: no orphan
    /// golden, no missing one, no row listed twice.
    #[test]
    fn table_paths_are_exactly_the_golden_directory() {
        let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
            .expect("tests/golden exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        on_disk.sort();
        let mut in_table: Vec<&str> = GOLDENS.iter().map(|g| g.file).collect();
        in_table.sort_unstable();
        assert_eq!(in_table, on_disk);
        let mut names: Vec<&str> = GOLDENS.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GOLDENS.len(), "row names are unique");
    }

    #[test]
    fn select_keeps_table_order_and_rejects_unknown_names() {
        let all = select(&[]).unwrap();
        assert_eq!(all.len(), GOLDENS.len());
        let two = select(&["run".to_string(), "lint".to_string()]).unwrap();
        assert_eq!(two, ["lint", "run"]);
        let err = select(&["lint".to_string(), "nope".to_string()]).unwrap_err();
        for g in &GOLDENS {
            assert!(err.contains(g.name), "{err}");
        }
    }

    #[test]
    fn a_drifted_golden_reports_the_diff_and_the_bless_command() {
        let dir = std::env::temp_dir().join(format!("olden-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = &GOLDENS[0];
        let live = (g.report)();
        std::fs::write(dir.join(g.file), format!("{live}stale line\n")).unwrap();
        let err = g.verify(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains("- stale line"), "{err}");
        assert!(err.contains("oldenc -- golden lint --bless"), "{err}");
    }
}
