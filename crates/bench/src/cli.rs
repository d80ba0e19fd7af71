//! The one flag parser behind `oldenc` and the table/figure regenerators.
//!
//! A subcommand declares which flags take a value, which are switches
//! and how many positionals it accepts; [`parse`] walks argv once and
//! the typed accessors on [`Args`] turn a missing value, an unknown flag,
//! a malformed number or an out-of-range one into an `Err(message)` the
//! binary prints before exiting 2. Positionals may appear anywhere among
//! the flags.

use olden_benchmarks::{Descriptor, SizeClass};
use olden_runtime::Protocol;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// Parsed argv of one subcommand.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    flags: Vec<(&'static str, Option<String>)>,
    pub positionals: Vec<String>,
}

/// Walk `argv` against the declared `valued` flags (each consumes the
/// next argument), `switches` (none) and at most `max_positionals` bare
/// arguments.
pub fn parse(
    argv: &[String],
    valued: &[&'static str],
    switches: &[&'static str],
    max_positionals: usize,
) -> Result<Args, String> {
    let mut args = Args::default();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        if let Some(flag) = valued.iter().find(|f| *f == arg) {
            let value = rest.next().ok_or(format!("{flag} needs a value"))?;
            args.flags.push((flag, Some(value.clone())));
        } else if let Some(flag) = switches.iter().find(|f| *f == arg) {
            args.flags.push((flag, None));
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else if args.positionals.len() < max_positionals {
            args.positionals.push(arg.clone());
        } else {
            return Err(format!("unexpected argument {arg:?}"));
        }
    }
    Ok(args)
}

impl Args {
    /// Was the switch given?
    pub fn has(&self, switch: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == switch)
    }

    /// The flag's value, last occurrence winning.
    pub fn get(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(f, _)| *f == flag)?;
        value.as_deref()
    }

    /// The flag's value parsed and held to `range`; `default` when absent.
    pub fn num<T>(&self, flag: &str, default: T, range: RangeInclusive<T>) -> Result<T, String>
    where
        T: FromStr + PartialOrd + std::fmt::Debug,
    {
        let Some(text) = self.get(flag) else {
            return Ok(default);
        };
        match text.parse() {
            Ok(n) if range.contains(&n) => Ok(n),
            _ => Err(format!("{flag} {text}: expected {range:?}")),
        }
    }

    /// `--seeds N`, N ≥ 1; `default` when absent.
    pub fn seeds(&self, default: u64) -> Result<u64, String> {
        self.num("--seeds", default, 1..=u64::MAX)
    }

    /// `--procs N`, 1 ≤ N ≤ 64; `default` when absent.
    pub fn procs(&self, default: usize) -> Result<usize, String> {
        self.num("--procs", default, 1..=64)
    }

    /// `--protocol P`: an Appendix-A scheme name; `None` when absent.
    pub fn protocol(&self) -> Result<Option<Protocol>, String> {
        let Some(p) = self.get("--protocol") else {
            return Ok(None);
        };
        let named = Protocol::from_name(p);
        named.map(Some).ok_or(format!(
            "--protocol {p}: expected local, global or bilateral"
        ))
    }

    /// `--stall-timeout SECS`: the watchdog override; `None` when absent.
    pub fn stall(&self) -> Result<Option<Duration>, String> {
        let Some(text) = self.get("--stall-timeout") else {
            return Ok(None);
        };
        match text.parse::<f64>() {
            Ok(secs) if secs > 0.0 && secs <= 3600.0 => Ok(Some(Duration::from_secs_f64(secs))),
            _ => Err(format!(
                "--stall-timeout {text}: expected seconds in (0, 3600]"
            )),
        }
    }

    /// `--paper-sizes` / `--tiny`: the regenerators' problem-size class.
    pub fn size(&self) -> SizeClass {
        if self.has("--paper-sizes") {
            SizeClass::Paper
        } else if self.has("--tiny") {
            SizeClass::Tiny
        } else {
            SizeClass::Default
        }
    }

    /// The optional positional `BENCH`, resolved to its registry name.
    pub fn bench(&self) -> Result<Option<&'static str>, String> {
        let bench = self.positionals.first().map(|b| known_bench(b));
        Ok(bench.transpose()?.map(|d| d.name))
    }
}

/// Resolve a (case-insensitive) benchmark name, or list the registry.
pub fn known_bench(name: &str) -> Result<Descriptor, String> {
    olden_benchmarks::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = olden_benchmarks::all().iter().map(|d| d.name).collect();
        format!("unknown benchmark {name:?}; known: {}", known.join(", "))
    })
}

/// A regenerator's answer to bad arguments: the reason, its usage line,
/// exit 2.
pub fn usage_error(usage: &str, err: &str) -> ExitCode {
    eprintln!("{err}\nusage: {usage}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn positionals_may_sit_anywhere_among_the_flags() {
        for line in ["TreeAdd --procs 4 --json", "--procs 4 TreeAdd --json"] {
            let a = parse(&argv(line), &["--procs"], &["--json"], 1).unwrap();
            assert_eq!(a.positionals, ["TreeAdd"], "{line}");
            assert_eq!(a.procs(8), Ok(4), "{line}");
            assert!(a.has("--json"), "{line}");
        }
    }

    #[test]
    fn malformed_argv_is_an_error_never_a_panic() {
        let p = |line: &str| parse(&argv(line), &["--procs", "--seeds"], &["--net"], 1);
        assert!(p("--bogus").unwrap_err().contains("unknown flag --bogus"));
        assert!(p("--procs").unwrap_err().contains("--procs needs a value"));
        assert!(p("a b").unwrap_err().contains("unexpected argument"));
        assert!(p("--procs 0").unwrap().procs(8).is_err());
        assert!(p("--procs 65").unwrap().procs(8).is_err());
        assert!(p("--procs four").unwrap().procs(8).is_err());
        assert!(p("--seeds 0").unwrap().seeds(32).is_err());
        assert_eq!(p("--seeds 3 --seeds 5").unwrap().seeds(32), Ok(5));
        assert_eq!(p("").unwrap().seeds(32), Ok(32));
    }

    #[test]
    fn typed_accessors_reject_bad_values() {
        let p = |line: &str| parse(&argv(line), &["--protocol", "--stall-timeout"], &[], 1);
        assert_eq!(p("").unwrap().protocol(), Ok(None));
        assert_eq!(
            p("--protocol global").unwrap().protocol(),
            Ok(Some(Protocol::GlobalKnowledge))
        );
        assert!(p("--protocol mesi").unwrap().protocol().is_err());
        assert_eq!(p("").unwrap().stall(), Ok(None));
        assert_eq!(
            p("--stall-timeout 2.5").unwrap().stall(),
            Ok(Some(Duration::from_secs_f64(2.5)))
        );
        assert!(p("--stall-timeout 0").unwrap().stall().is_err());
        assert!(p("--stall-timeout 9999").unwrap().stall().is_err());
        assert_eq!(p("treeadd").unwrap().bench(), Ok(Some("TreeAdd")));
        let err = p("NoSuch").unwrap().bench().unwrap_err();
        assert!(
            err.contains("NoSuch") && err.contains("Barnes-Hut"),
            "{err}"
        );
    }
}
