//! The reproduction's front end as a library: the Table 2 / Table 3 row
//! computations behind the regenerator binaries, and every `oldenc`
//! surface as a report function the binary prints and the tests pin.

pub mod cli;
pub mod golden;
pub mod parity;
pub mod profile;
pub mod reports;

use olden_benchmarks::{Descriptor, SizeClass};
use olden_runtime::{run, Config, Mechanism, Protocol, RunReport};

/// Processor counts evaluated in the paper's Table 2.
pub const TABLE2_PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The registry in paper Table 1 order, narrowed to `bench` when given
/// (a name `cli::known_bench` resolved).
pub fn selected(bench: Option<&str>) -> Vec<Descriptor> {
    let mut all = olden_benchmarks::all();
    all.retain(|d| bench.is_none_or(|b| d.name.eq_ignore_ascii_case(b)));
    all
}

/// Run one benchmark at one configuration, verifying the value against
/// its serial reference.
pub fn run_checked(d: &Descriptor, cfg: Config, size: SizeClass) -> RunReport {
    let (value, rep) = run(cfg, |ctx| (d.run)(ctx, size));
    assert_eq!(
        value,
        (d.reference)(size),
        "{}: simulated value diverged from the serial reference",
        d.name
    );
    rep
}

/// A full Table-2 row: sequential makespan, per-processor-count speedups,
/// and the migrate-only speedup at the largest count.
pub struct Table2Row {
    pub name: &'static str,
    pub choice: &'static str,
    pub whole_program: bool,
    pub seq_makespan: u64,
    pub speedups: Vec<(usize, f64)>,
    pub migrate_only: Option<f64>,
}

/// Compute a Table-2 row.
pub fn table2_row(d: &Descriptor, procs: &[usize], size: SizeClass) -> Table2Row {
    let seq = run_checked(d, Config::sequential(), size);
    let speedups = procs
        .iter()
        .map(|&p| {
            let rep = run_checked(d, Config::olden(p), size);
            (p, rep.speedup_vs(seq.makespan))
        })
        .collect();
    let migrate_only = if d.choice == "M+C" {
        let p = *procs.last().unwrap();
        let rep = run_checked(d, Config::olden(p).forced(Mechanism::Migrate), size);
        Some(rep.speedup_vs(seq.makespan))
    } else {
        None
    };
    Table2Row {
        name: d.name,
        choice: d.choice,
        whole_program: d.whole_program,
        seq_makespan: seq.makespan,
        speedups,
        migrate_only,
    }
}

/// One coherence scheme's column block in a Table-3 row: the miss rate
/// plus the Appendix-A bookkeeping counters that distinguish the
/// schemes (pushed invalidations and how many were spurious under
/// global knowledge, revalidation round trips under bilateral).
#[derive(Clone, Copy, Default)]
pub struct SchemeStats {
    pub miss_pct: f64,
    pub invalidations_sent: u64,
    pub invalidations_spurious: u64,
    pub revalidations: u64,
}

/// A Table-3 row: caching statistics under each coherence protocol.
pub struct Table3Row {
    pub name: &'static str,
    pub cacheable_writes: u64,
    pub write_remote_pct: f64,
    pub cacheable_reads: u64,
    pub read_remote_pct: f64,
    /// Per-scheme blocks in [`Protocol::ALL`] order (local, global,
    /// bilateral).
    pub schemes: [SchemeStats; 3],
    pub pages_cached: u64,
}

impl Table3Row {
    /// Miss rates in scheme order — the paper's three `%` columns.
    pub fn miss_pct(&self) -> [f64; 3] {
        [
            self.schemes[0].miss_pct,
            self.schemes[1].miss_pct,
            self.schemes[2].miss_pct,
        ]
    }
}

/// Compute a Table-3 row at `procs` processors: one full run per
/// Appendix-A scheme, with the traffic columns taken from the
/// local-knowledge baseline (they are scheme-independent and the parity
/// suites hold them equal).
pub fn table3_row(d: &Descriptor, procs: usize, size: SizeClass) -> Table3Row {
    let mut schemes = [SchemeStats::default(); 3];
    let mut base = None;
    for (i, proto) in Protocol::ALL.into_iter().enumerate() {
        let rep = run_checked(d, Config::olden(procs).with_protocol(proto), size);
        schemes[i] = SchemeStats {
            miss_pct: rep.cache.miss_pct(),
            invalidations_sent: rep.cache.invalidations_sent,
            invalidations_spurious: rep.cache.invalidations_spurious,
            revalidations: rep.cache.revalidations,
        };
        if i == 0 {
            base = Some(rep);
        }
    }
    let rep = base.unwrap();
    Table3Row {
        name: d.name,
        cacheable_writes: rep.cache.cacheable_writes,
        write_remote_pct: rep.cache.write_remote_pct(),
        cacheable_reads: rep.cache.cacheable_reads,
        read_remote_pct: rep.cache.read_remote_pct(),
        schemes,
        pages_cached: rep.pages_cached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olden_benchmarks::by_name;

    #[test]
    fn table2_row_smoke() {
        let d = by_name("TreeAdd").unwrap();
        let row = table2_row(&d, &[1, 4], SizeClass::Tiny);
        assert_eq!(row.speedups.len(), 2);
        assert!(row.migrate_only.is_none(), "TreeAdd is M-only");
        assert!(row.seq_makespan > 0);
    }

    #[test]
    fn table3_row_smoke() {
        let d = by_name("EM3D").unwrap();
        let row = table3_row(&d, 4, SizeClass::Tiny);
        assert!(row.cacheable_reads > 0);
        assert!(row.miss_pct().iter().all(|&m| (0.0..=100.0).contains(&m)));
        assert!(row.pages_cached > 0);
        // Scheme bookkeeping shows up in the right columns only: local
        // knowledge does neither, global never revalidates, bilateral
        // never pushes invalidations.
        let [local, global, bilateral] = row.schemes;
        assert_eq!(local.invalidations_sent, 0);
        assert_eq!(local.revalidations, 0);
        assert_eq!(global.revalidations, 0);
        assert_eq!(bilateral.invalidations_sent, 0);
        assert!(global.invalidations_spurious <= global.invalidations_sent);
    }
}
