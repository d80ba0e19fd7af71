//! Running a program and summarizing what happened.

use crate::backend::Backend;
use crate::config::Config;
use crate::ctx::OldenCtx;
use crate::sanitize::RaceViolation;
use olden_cache::CacheStats;
use olden_machine::{sched, trace::EdgeKind};

/// Runtime event counters for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Forward thread migrations (remote dereference under the migrate
    /// mechanism).
    pub migrations: u64,
    /// Return-stub migrations back to a caller's processor.
    pub return_migrations: u64,
    /// Futures spawned.
    pub futures: u64,
    /// Futures whose continuation was actually stolen (real forks).
    pub steals: u64,
    /// Touches executed.
    pub touches: u64,
    /// `ALLOC` calls.
    pub allocs: u64,
    /// Words allocated.
    pub words_allocated: u64,
    /// Dereferences under the migrate mechanism that were local.
    pub migrate_local: u64,
    /// Dereferences under the migrate mechanism that were remote (each
    /// one is a migration).
    pub migrate_remote: u64,
    /// Charged dereferences whose compiler-inserted check ran (the
    /// pointer test, plus the cache lookup when remote). Every plain
    /// access performs its check; a `*_checked` access performs it unless
    /// its `Check::Elide` hint verified. `checks_performed + checks_elided`
    /// is therefore invariant under `Config::elide_checks`.
    pub checks_performed: u64,
    /// Charged dereferences whose check the optimizer elided and whose
    /// availability fact verified at runtime, skipping the check cost
    /// entirely.
    pub checks_elided: u64,
}

impl RunStats {
    /// Add every counter of `other` into `self` (a joined future body's
    /// events folding into its toucher's). The field list lives here and
    /// in [`RunStats::counters`] only; a test holds the two together.
    pub fn absorb(&mut self, other: &RunStats) {
        self.migrations += other.migrations;
        self.return_migrations += other.return_migrations;
        self.futures += other.futures;
        self.steals += other.steals;
        self.touches += other.touches;
        self.allocs += other.allocs;
        self.words_allocated += other.words_allocated;
        self.migrate_local += other.migrate_local;
        self.migrate_remote += other.migrate_remote;
        self.checks_performed += other.checks_performed;
        self.checks_elided += other.checks_elided;
    }

    /// Every counter as a `(stable_name, value)` list — the shape a
    /// metrics registry or a report printer ingests. Names are part of
    /// the pinned `oldenc run` surface (`tests/golden/oldenc-run.txt`)
    /// and of `ExecReport::diff_from_sim`'s messages; do not rename.
    pub fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("migrations", self.migrations),
            ("return_migrations", self.return_migrations),
            ("futures", self.futures),
            ("steals", self.steals),
            ("touches", self.touches),
            ("allocs", self.allocs),
            ("words_allocated", self.words_allocated),
            ("migrate_local", self.migrate_local),
            ("migrate_remote", self.migrate_remote),
            ("checks_performed", self.checks_performed),
            ("checks_elided", self.checks_elided),
        ]
    }
}

/// Message-transport counters for one run, in the shape every backend
/// shares (the chaos layer's observation surface).
///
/// The simulator performs no real message passing, so its transport is
/// trivially perfect: all fields zero. The thread backend counts every
/// envelope its mailbox transport carries; under fault injection the
/// counters must satisfy the **conservation law** checked by
/// [`TransportStats::conservation_violation`] — nothing is ever lost
/// silently, every drop is paid for by a retry or surfaces as a typed
/// error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Envelopes handed to the transport: every transmission attempt,
    /// including retries and duplicates (and attempts the fault layer
    /// then lost in transit).
    pub sends: u64,
    /// Envelopes that arrived at a receiver, including duplicates the
    /// receiver then suppressed.
    pub deliveries: u64,
    /// Attempts lost in transit by the fault layer.
    pub drops: u64,
    /// Re-transmissions after a drop.
    pub retries: u64,
    /// Arrived envelopes discarded by sequence-number dedupe.
    pub dupes_suppressed: u64,
}

impl TransportStats {
    /// Check the conservation law for a *successfully completed* run.
    /// `serviced` is the number of messages the receivers actually
    /// processed (exactly-once: each logical message once). Returns a
    /// description of the first violated equation, or `None` when all
    /// hold:
    ///
    /// 1. `sends = deliveries + drops` — every attempt either arrived or
    ///    was dropped;
    /// 2. `retries = drops` — every drop was retried (a run that gave up
    ///    fails with a typed error and never reports at all);
    /// 3. `deliveries = serviced + dupes_suppressed` — every arrival was
    ///    processed exactly once or discarded as a known duplicate.
    pub fn conservation_violation(&self, serviced: u64) -> Option<String> {
        if self.sends != self.deliveries + self.drops {
            return Some(format!(
                "sends {} != deliveries {} + drops {}",
                self.sends, self.deliveries, self.drops
            ));
        }
        if self.retries != self.drops {
            return Some(format!(
                "retries {} != drops {} (an unretried drop leaked)",
                self.retries, self.drops
            ));
        }
        if self.deliveries != serviced + self.dupes_suppressed {
            return Some(format!(
                "deliveries {} != serviced {} + dupes_suppressed {}",
                self.deliveries, serviced, self.dupes_suppressed
            ));
        }
        None
    }

    /// Fold another run's counters into this one (aggregation across
    /// seeds in the chaos harness).
    pub fn absorb(&mut self, other: &TransportStats) {
        self.sends += other.sends;
        self.deliveries += other.deliveries;
        self.drops += other.drops;
        self.retries += other.retries;
        self.dupes_suppressed += other.dupes_suppressed;
    }
}

/// Everything measured about one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Processors in the configuration.
    pub procs: usize,
    /// Parallel completion time (cycles) from the list-scheduler replay.
    pub makespan: u64,
    /// Total work across all segments (cycles).
    pub total_work: u64,
    /// DAG critical path (cycles): a lower bound on the makespan.
    pub critical_path: u64,
    /// Number of recorded segments.
    pub segments: usize,
    /// Runtime event counters.
    pub stats: RunStats,
    /// Software-cache counters (Table 3 shape).
    pub cache: CacheStats,
    /// Distinct pages ever cached across all processors.
    pub pages_cached: u64,
    /// Mean translation-table chain length (§3.2: ≈ 1).
    pub mean_chain_length: f64,
    /// Happens-before violations found by the dynamic race sanitizer
    /// (empty unless the run was configured with `Config::sanitized`).
    pub races: Vec<RaceViolation>,
    /// Structured event recording (`None` unless the run was configured
    /// with `Config::recorded`).
    pub recording: Option<olden_obs::Recording>,
}

impl RunReport {
    /// Speedup relative to a sequential-baseline makespan.
    pub fn speedup_vs(&self, seq_makespan: u64) -> f64 {
        seq_makespan as f64 / self.makespan as f64
    }
}

/// Execute `program` under `cfg`, replay the trace, and report.
///
/// Returns the program's result alongside the report so benchmarks can
/// verify values against their serial references.
pub fn run<R>(cfg: Config, program: impl FnOnce(&mut OldenCtx) -> R) -> (R, RunReport) {
    let mut ctx = OldenCtx::new(cfg);
    let result = program(&mut ctx);
    let stats = *ctx.stats();
    let races = if cfg.sanitize {
        ctx.race_violations()
    } else {
        Vec::new()
    };
    let recording = ctx.take_recording();
    let (trace, _, cache_sys) = {
        let (t, s, c) = ctx.into_parts_public();
        debug_assert_eq!(s, stats);
        (t, s, c)
    };
    let schedule = sched::schedule(&trace, cfg.procs).expect("trace must be schedulable");
    let report = RunReport {
        procs: cfg.procs,
        makespan: schedule.makespan,
        total_work: trace.total_cost(),
        critical_path: schedule.critical_path,
        segments: trace.len(),
        stats,
        cache: *cache_sys.stats(),
        pages_cached: cache_sys.pages_cached(),
        mean_chain_length: cache_sys.mean_chain_length(),
        races,
        recording,
    };
    debug_assert_eq!(
        trace.count_edges(EdgeKind::Migrate) as u64,
        stats.migrations
    );
    (result, report)
}

/// Table-2-style speedup curve: run the sequential baseline once, then the
/// Olden configuration at each processor count, and report
/// `T_seq / makespan(P)`.
///
/// `make_cfg` maps a processor count to the Olden configuration (so
/// callers can force mechanisms or switch protocols).
pub fn speedup_curve<F>(
    program: F,
    procs: &[usize],
    make_cfg: impl Fn(usize) -> Config,
) -> Vec<(usize, f64)>
where
    F: Fn(&mut OldenCtx),
{
    let (_, seq) = run(Config::sequential(), &program);
    procs
        .iter()
        .map(|&p| {
            let (_, rep) = run(make_cfg(p), &program);
            (p, rep.speedup_vs(seq.makespan))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mechanism;

    #[test]
    fn transport_conservation_law() {
        // A fault-free transport: sends == deliveries == serviced.
        let quiet = TransportStats {
            sends: 10,
            deliveries: 10,
            ..Default::default()
        };
        assert_eq!(quiet.conservation_violation(10), None);
        // A faulty but conserved run: 3 drops all retried, 2 dupes
        // suppressed, 10 logical messages serviced exactly once.
        let chaotic = TransportStats {
            sends: 15,
            deliveries: 12,
            drops: 3,
            retries: 3,
            dupes_suppressed: 2,
        };
        assert_eq!(chaotic.conservation_violation(10), None);
        // Each law violated in turn.
        let lost = TransportStats {
            sends: 11,
            deliveries: 10,
            ..Default::default()
        };
        assert!(lost.conservation_violation(10).unwrap().contains("drops"));
        let unretried = TransportStats {
            sends: 11,
            deliveries: 10,
            drops: 1,
            retries: 0,
            dupes_suppressed: 0,
        };
        assert!(unretried
            .conservation_violation(10)
            .unwrap()
            .contains("retries"));
        let double_serviced = TransportStats {
            sends: 11,
            deliveries: 11,
            ..Default::default()
        };
        assert!(double_serviced
            .conservation_violation(10)
            .unwrap()
            .contains("dupes_suppressed"));
        let mut agg = quiet;
        agg.absorb(&chaotic);
        assert_eq!(agg.sends, 25);
        assert_eq!(agg.conservation_violation(20), None);
    }

    #[test]
    fn run_reports_consistent_totals() {
        let (sum, rep) = run(Config::olden(4), |ctx| {
            let mut total = 0i64;
            for p in 0..4u8 {
                let a = ctx.alloc(p, 2);
                ctx.write(a, 0, p as i64, Mechanism::Migrate);
                total += ctx.read_i64(a, 0, Mechanism::Migrate);
            }
            total
        });
        assert_eq!(sum, 1 + 2 + 3);
        assert!(rep.makespan >= rep.critical_path);
        assert!(rep.makespan <= rep.total_work + 10_000);
        assert_eq!(rep.procs, 4);
        assert!(rep.stats.migrations >= 3);
    }

    #[test]
    fn recording_reconciles_with_stats() {
        use olden_obs::EventKind;
        let program = |ctx: &mut OldenCtx| {
            let a = ctx.alloc(1, 2);
            ctx.write(a, 0, 5i64, Mechanism::Cache); // miss (write-allocate)
            ctx.read_i64(a, 0, Mechanism::Cache); // hit
            let h = ctx.future_call(move |c| c.call(move |c| c.read_i64(a, 1, Mechanism::Migrate)));
            ctx.touch(h);
        };
        let (_, plain) = run(Config::olden(4), program);
        assert!(plain.recording.is_none(), "recording is opt-in");
        let (_, rep) = run(Config::olden(4).recorded(), program);
        let rec = rep.recording.as_ref().expect("recorded run");
        assert_eq!(rec.count(EventKind::MigrateRecv), rep.stats.migrations);
        assert_eq!(
            rec.count(EventKind::ReturnRecv),
            rep.stats.return_migrations
        );
        assert_eq!(rec.count(EventKind::FutureBody), rep.stats.futures);
        assert_eq!(rec.count(EventKind::Steal), rep.stats.steals);
        assert_eq!(rec.count(EventKind::LineFetch), rep.cache.misses);
        assert_eq!(
            rec.count(EventKind::Invalidate),
            rep.stats.migrations + rep.stats.return_migrations + rec.count(EventKind::TouchStall),
            "every arrival acquire records exactly one invalidation"
        );
        rec.span_nesting_ok().unwrap();
        // The recorded run's measurements are unperturbed by recording.
        assert_eq!(rep.makespan, plain.makespan);
        assert_eq!(rep.stats, plain.stats);
    }

    #[test]
    fn run_stats_counters_cover_every_field() {
        let (_, rep) = run(Config::olden(4), |ctx| {
            let a = ctx.alloc(1, 1);
            ctx.write(a, 0, 1i64, Mechanism::Migrate);
        });
        let c = rep.stats.counters();
        assert_eq!(
            c.len() * std::mem::size_of::<u64>(),
            std::mem::size_of::<RunStats>()
        );
        assert!(c
            .iter()
            .any(|&(n, v)| n == "migrations" && v == rep.stats.migrations));
        assert!(c
            .iter()
            .any(|&(n, v)| n == "allocs" && v == rep.stats.allocs));
    }

    /// A counter listed in `counters()` but forgotten in `absorb` would be
    /// a silent zero in every parallel-mode report; here it fails to
    /// double.
    #[test]
    fn run_stats_absorb_doubles_every_counter() {
        let distinct = RunStats {
            migrations: 1,
            return_migrations: 2,
            futures: 3,
            steals: 4,
            touches: 5,
            allocs: 6,
            words_allocated: 7,
            migrate_local: 8,
            migrate_remote: 9,
            checks_performed: 10,
            checks_elided: 11,
        };
        let mut s = distinct;
        s.absorb(&distinct);
        for ((name, was), (_, now)) in distinct.counters().into_iter().zip(s.counters()) {
            assert_eq!(now, 2 * was, "{name}");
        }
    }

    #[test]
    fn sequential_makespan_equals_total_work() {
        let (_, rep) = run(Config::sequential(), |ctx| {
            let a = ctx.alloc(0, 4);
            for i in 0..4 {
                ctx.write(a, i, i as i64, Mechanism::Migrate);
            }
            ctx.work(1000);
        });
        assert_eq!(rep.makespan, rep.total_work, "one processor, no gaps");
    }

    #[test]
    fn speedup_curve_monotone_for_embarrassing_parallelism() {
        // Four independent chunks of pure work (a fixed problem size),
        // placed so the spawning loop hops processors: each remote body
        // migrates, the vacated processor steals the continuation, and the
        // loop keeps spawning — Olden's way of parallelizing a flat loop.
        const CHUNKS: usize = 4;
        let program = |ctx: &mut OldenCtx| {
            let n = ctx.nprocs();
            let ptrs: Vec<_> = (0..CHUNKS)
                .map(|i| {
                    let a = ctx.alloc(((i + 1) % n) as u8, 1);
                    ctx.uncharged(|c| c.write(a, 0, 1i64, Mechanism::Migrate));
                    a
                })
                .collect();
            let hs: Vec<_> = ptrs
                .iter()
                .map(|&a| {
                    ctx.future_call(move |c| {
                        c.call(move |c| {
                            c.read_i64(a, 0, Mechanism::Migrate);
                            c.work(2_000_000);
                        })
                    })
                })
                .collect();
            for h in hs {
                ctx.touch(h);
            }
        };
        let curve = speedup_curve(program, &[1, 2, 4], Config::olden);
        assert!(curve[0].1 <= 1.02, "1 proc: {}", curve[0].1);
        assert!(curve[0].1 > 0.9, "1 proc overhead too high: {}", curve[0].1);
        assert!(curve[1].1 > 1.7, "2 procs: {}", curve[1].1);
        assert!(curve[2].1 > 3.0, "4 procs: {}", curve[2].1);
        assert!(curve[2].1 <= 4.0 + 1e-9);
    }
}
