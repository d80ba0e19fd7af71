//! Regenerates the Figure 2 analysis: one list, blocked vs cyclic
//! distribution, migration vs caching — reporting the §4 closed-form
//! communication counts alongside the measured makespans.
//!
//! Usage: `fig2 [--elements N] [--procs N]`

use olden_bench::cli;
use olden_benchmarks::listdist::{build, walk, Distribution};
use olden_runtime::{run, Config, Mechanism};
use std::process::ExitCode;

fn options(argv: &[String]) -> Result<(usize, usize), String> {
    let a = cli::parse(argv, &["--elements", "--procs"], &[], 0)?;
    Ok((a.num("--elements", 4096, 1..=1 << 24)?, a.procs(32)?))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (n, procs) = match options(&argv) {
        Ok(o) => o,
        Err(e) => return cli::usage_error("fig2 [--elements N] [--procs N]", &e),
    };

    println!("Figure 2: list of {n} elements over {procs} processors");
    println!(
        "paper closed forms: blocked+migrate = P-1 = {}, cyclic+migrate = N-1 = {},",
        procs - 1,
        n - 1
    );
    println!(
        "                    cyclic+cache remote accesses = N(P-1)/P = {}",
        n * (procs - 1) / procs
    );
    println!("{:-<84}", "");
    println!(
        "{:<10} {:<9} {:>12} {:>14} {:>12} {:>12}",
        "layout", "mechanism", "migrations", "remote refs", "misses", "makespan"
    );
    println!("{:-<84}", "");
    let (_, seq) = run(Config::sequential(), |ctx| {
        let head = build(ctx, n, Distribution::Blocked);
        walk(ctx, head, Mechanism::Cache)
    });
    for dist in [Distribution::Blocked, Distribution::Cyclic] {
        for mech in [Mechanism::Migrate, Mechanism::Cache] {
            let (_, rep) = run(Config::olden(procs), |ctx| {
                let head = build(ctx, n, dist);
                walk(ctx, head, mech)
            });
            println!(
                "{:<10} {:<9} {:>12} {:>14} {:>12} {:>12}",
                format!("{dist:?}"),
                mech.name(),
                rep.stats.migrations,
                rep.cache.remote_reads + rep.cache.remote_writes,
                rep.cache.misses,
                rep.makespan
            );
        }
    }
    println!("{:-<84}", "");
    println!(
        "sequential makespan (single processor, no overheads): {}",
        seq.makespan
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_arguments_are_usage_errors() {
        let options_of = |line: &str| {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            options(&argv)
        };
        for line in [
            "--elements",
            "--procs",
            "--elements 0",
            "--procs 0",
            "--bogus",
        ] {
            assert!(options_of(line).is_err(), "{line}");
        }
        assert_eq!(options_of("--procs 8 --elements 64"), Ok((64, 8)));
        assert_eq!(options_of(""), Ok((4096, 32)));
    }
}
