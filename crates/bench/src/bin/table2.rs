//! Regenerates the paper's Table 2: heuristic choice, sequential time,
//! speedups at 1–32 processors, and the migrate-only speedup at 32 for
//! the M+C benchmarks.
//!
//! Usage: `table2 [--bench NAME] [--paper-sizes | --tiny] [--procs N,N,...]`
//! (the migrate-only column is always printed).
//!
//! Sequential "time" is reported in simulated mega-cycles (the cost-model
//! substitute for the CM-5's wall-clock seconds; see DESIGN.md §5).

use olden_bench::{cli, table2_row, TABLE2_PROCS};
use olden_benchmarks::SizeClass;
use std::process::ExitCode;

const USAGE: &str = "table2 [--bench NAME] [--paper-sizes | --tiny] [--procs N,N,...]";

fn options(argv: &[String]) -> Result<(SizeClass, Option<&'static str>, Vec<usize>), String> {
    let a = cli::parse(
        argv,
        &["--bench", "--procs"],
        &["--paper-sizes", "--tiny"],
        0,
    )?;
    let only = a.get("--bench").map(cli::known_bench).transpose()?;
    let procs = match a.get("--procs") {
        None => TABLE2_PROCS.to_vec(),
        Some(list) => list
            .split(',')
            .map(|n| match n.parse() {
                Ok(p) if (1..=64).contains(&p) => Ok(p),
                _ => Err(format!("--procs {list}: expected N,N,... with N in 1..=64")),
            })
            .collect::<Result<_, _>>()?,
    };
    Ok((a.size(), only.map(|d| d.name), procs))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (size, only, procs) = match options(&argv) {
        Ok(o) => o,
        Err(e) => return cli::usage_error(USAGE, &e),
    };

    println!("Table 2: Results ({size:?} sizes)");
    println!("{:-<110}", "");
    print!("{:<12} {:<7} {:>12} ", "Benchmark", "Choice", "Seq (Mcyc)");
    for p in &procs {
        print!("{:>7} ", p);
    }
    println!("{:>12}", "Mig-only(32)");
    println!("{:-<110}", "");

    for d in olden_bench::selected(only) {
        let row = table2_row(&d, &procs, size);
        let label = if row.whole_program {
            format!("{}(W)", row.name)
        } else {
            row.name.to_string()
        };
        print!(
            "{:<12} {:<7} {:>12.2} ",
            label,
            row.choice,
            row.seq_makespan as f64 / 1e6
        );
        for (_, s) in &row.speedups {
            print!("{:>7.2} ", s);
        }
        match row.migrate_only {
            Some(m) => println!("{:>12.2}", m),
            None => println!("{:>12}", "-"),
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options_of(line: &str) -> Result<(SizeClass, Option<&'static str>, Vec<usize>), String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        options(&argv)
    }

    /// A flag missing its value, a malformed list and the never-accepted
    /// `--migrate-only` are usage errors, not index panics.
    #[test]
    fn bad_arguments_are_usage_errors() {
        for line in [
            "--procs",
            "--bench",
            "--procs 1,x",
            "--procs 0",
            "--bench nosuch",
            "--migrate-only",
        ] {
            assert!(options_of(line).is_err(), "{line}");
        }
        let (size, only, procs) = options_of("--tiny --bench barnes-hut --procs 1,4").unwrap();
        assert!(matches!(size, SizeClass::Tiny));
        assert_eq!((only, procs), (Some("Barnes-Hut"), vec![1, 4]));
        assert_eq!(options_of("").unwrap().2, TABLE2_PROCS);
    }
}
