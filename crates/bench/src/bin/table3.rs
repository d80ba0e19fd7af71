//! Regenerates the paper's Table 3: caching statistics for the M+C
//! benchmarks under the local-knowledge, global-knowledge, and bilateral
//! coherence schemes — one full run per scheme per benchmark, with the
//! Appendix-A bookkeeping columns (pushed invalidations, spurious
//! invalidations, revalidation round trips) printed per scheme.
//!
//! Usage: `table3 [--procs N] [--paper-sizes | --tiny]`
//! (the paper reports 32 processors).

use olden_bench::{cli, table3_row};
use olden_benchmarks::SizeClass;
use std::process::ExitCode;

fn options(argv: &[String]) -> Result<(SizeClass, usize), String> {
    let a = cli::parse(argv, &["--procs"], &["--paper-sizes", "--tiny"], 0)?;
    Ok((a.size(), a.procs(32)?))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (size, procs) = match options(&argv) {
        Ok(o) => o,
        Err(e) => return cli::usage_error("table3 [--procs N] [--paper-sizes | --tiny]", &e),
    };

    println!("Table 3: Caching Statistics on {procs} processors ({size:?} sizes)");
    println!("{:-<112}", "");
    println!(
        "{:<12} {:>12} {:>8} {:>13} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "Benchmark",
        "Cache Wr",
        "%Remote",
        "Cache Rd",
        "%Remote",
        "local%",
        "global%",
        "bilat%",
        "Pages"
    );
    println!("{:-<112}", "");
    let rows: Vec<_> = olden_benchmarks::all()
        .iter()
        .filter(|d| d.choice == "M+C")
        .map(|d| table3_row(d, procs, size))
        .collect();
    for row in &rows {
        let miss = row.miss_pct();
        println!(
            "{:<12} {:>12} {:>8.3} {:>13} {:>8.3} {:>8.2} {:>8.2} {:>8.2} {:>10}",
            row.name,
            row.cacheable_writes,
            row.write_remote_pct,
            row.cacheable_reads,
            row.read_remote_pct,
            miss[0],
            miss[1],
            miss[2],
            row.pages_cached
        );
    }

    // The scheme × benchmark sweep: what each scheme's bookkeeping
    // actually did. Local knowledge has no columns here by construction
    // (it tracks nothing), so the block prints global and bilateral.
    println!();
    println!("Appendix A bookkeeping per scheme");
    println!("{:-<76}", "");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>14}",
        "Benchmark", "inval sent", "spurious", "spur%", "revalidations"
    );
    println!("{:-<76}", "");
    for row in &rows {
        let g = &row.schemes[1];
        let b = &row.schemes[2];
        let spur_pct = if g.invalidations_sent == 0 {
            0.0
        } else {
            100.0 * g.invalidations_spurious as f64 / g.invalidations_sent as f64
        };
        println!(
            "{:<12} {:>12} {:>12} {:>10.1} {:>14}",
            row.name, g.invalidations_sent, g.invalidations_spurious, spur_pct, b.revalidations
        );
    }
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
        for line in ["--procs", "--procs 0", "--procs many", "--bogus", "extra"] {
            assert!(options_of(line).is_err(), "{line}");
        }
        let (size, procs) = options_of("--paper-sizes --procs 16").unwrap();
        assert!(matches!(size, SizeClass::Paper));
        assert_eq!(procs, 16);
        assert_eq!(options_of("").unwrap().1, 32, "the paper reports 32");
    }
}
