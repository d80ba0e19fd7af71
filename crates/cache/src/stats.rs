//! Caching statistics in the shape of the paper's Table 3.

/// Counters accumulated over one benchmark run.
///
/// "Cacheable" references are dereferences the heuristic assigned to the
/// caching mechanism — local or remote (the runtime counts these, since a
/// local cacheable reference never consults the cache). "Remote" ones are
/// the subset whose pointer named another processor; those hit or miss in
/// the software cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cacheable reads, local + remote (Table 3 "Cacheable Reads").
    pub cacheable_reads: u64,
    /// Cacheable writes, local + remote (Table 3 "Cachable Writes").
    pub cacheable_writes: u64,
    /// Remote cacheable reads.
    pub remote_reads: u64,
    /// Remote cacheable writes.
    pub remote_writes: u64,
    /// Remote references satisfied from the local cache.
    pub hits: u64,
    /// Remote references that required a line transfer (or, under the
    /// bilateral scheme, a revalidation round trip).
    pub misses: u64,
    /// Bilateral only: misses that were revalidations of a still-valid
    /// line (control round trip, no line payload).
    pub revalidations: u64,
    /// Global scheme: invalidation messages pushed to sharers.
    pub invalidations_sent: u64,
    /// Global scheme: pushed invalidations that found the page *not*
    /// resident at the sharer when they arrived (the "spurious
    /// invalidation messages" of App. A — sharer lists only grow, so a
    /// processor that has since dropped the page still gets the push).
    pub invalidations_spurious: u64,
    /// Global/bilateral: cycles spent in the compiler-inserted
    /// write-tracking code (7 instructions non-shared, 23 shared).
    pub write_track_cycles: u64,
    /// Remote cacheable accesses that took the full check (hash probe)
    /// path — including elision hints that turned out stale and fell
    /// back. Only incremented through `access_checked`.
    pub checks_performed: u64,
    /// Remote cacheable accesses whose check the optimizer elided and
    /// whose fact verified, skipping the hash probe entirely.
    pub checks_elided: u64,
}

impl CacheStats {
    /// Fraction of remote references that missed (Table 3 "% of Remote
    /// references that miss").
    pub fn miss_pct(&self) -> f64 {
        let remote = self.remote_reads + self.remote_writes;
        if remote == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / remote as f64
        }
    }

    /// Fraction of cacheable reads that were remote (Table 3 "% Remote").
    pub fn read_remote_pct(&self) -> f64 {
        if self.cacheable_reads == 0 {
            0.0
        } else {
            100.0 * self.remote_reads as f64 / self.cacheable_reads as f64
        }
    }

    /// Fraction of cacheable writes that were remote.
    pub fn write_remote_pct(&self) -> f64 {
        if self.cacheable_writes == 0 {
            0.0
        } else {
            100.0 * self.remote_writes as f64 / self.cacheable_writes as f64
        }
    }

    /// Add every counter of `other` into `self` (summing the per-worker
    /// halves of a distributed run). The field list lives here and in
    /// [`CacheStats::counters`] only; a test holds the two together.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.cacheable_reads += other.cacheable_reads;
        self.cacheable_writes += other.cacheable_writes;
        self.remote_reads += other.remote_reads;
        self.remote_writes += other.remote_writes;
        self.hits += other.hits;
        self.misses += other.misses;
        self.revalidations += other.revalidations;
        self.invalidations_sent += other.invalidations_sent;
        self.invalidations_spurious += other.invalidations_spurious;
        self.write_track_cycles += other.write_track_cycles;
        self.checks_performed += other.checks_performed;
        self.checks_elided += other.checks_elided;
    }

    /// Every counter as a `(stable_name, value)` list — the shape a
    /// metrics registry or a report printer ingests. Names are part of
    /// the pinned `oldenc run` surface (`tests/golden/oldenc-run.txt`)
    /// and of `ExecReport::diff_from_sim`'s messages; do not rename.
    pub fn counters(&self) -> [(&'static str, u64); 12] {
        [
            ("cacheable_reads", self.cacheable_reads),
            ("cacheable_writes", self.cacheable_writes),
            ("remote_reads", self.remote_reads),
            ("remote_writes", self.remote_writes),
            ("hits", self.hits),
            ("misses", self.misses),
            ("revalidations", self.revalidations),
            ("invalidations_sent", self.invalidations_sent),
            ("invalidations_spurious", self.invalidations_spurious),
            ("write_track_cycles", self.write_track_cycles),
            ("checks_performed", self.checks_performed),
            ("checks_elided", self.checks_elided),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages() {
        let s = CacheStats {
            cacheable_reads: 200,
            cacheable_writes: 50,
            remote_reads: 20,
            remote_writes: 5,
            hits: 20,
            misses: 5,
            ..Default::default()
        };
        assert!((s.miss_pct() - 20.0).abs() < 1e-9);
        assert!((s.read_remote_pct() - 10.0).abs() < 1e-9);
        assert!((s.write_remote_pct() - 10.0).abs() < 1e-9);
    }

    /// Every field set to a distinct non-zero value.
    fn distinct() -> CacheStats {
        CacheStats {
            cacheable_reads: 1,
            cacheable_writes: 2,
            remote_reads: 3,
            remote_writes: 4,
            hits: 5,
            misses: 6,
            revalidations: 7,
            invalidations_sent: 8,
            invalidations_spurious: 9,
            write_track_cycles: 10,
            checks_performed: 11,
            checks_elided: 12,
        }
    }

    #[test]
    fn counters_cover_every_field() {
        let c = distinct().counters();
        // One entry per struct field, values in declaration order.
        assert_eq!(
            c.len() * std::mem::size_of::<u64>(),
            std::mem::size_of::<CacheStats>()
        );
        assert_eq!(c.iter().map(|(_, v)| *v).sum::<u64>(), (1..=12).sum());
        assert!(c.iter().any(|&(n, v)| n == "misses" && v == 6));
    }

    /// A counter listed in `counters()` but forgotten in `absorb` would be
    /// a silent zero in every distributed report; here it fails to double.
    #[test]
    fn absorb_doubles_every_counter() {
        let mut s = distinct();
        s.absorb(&distinct());
        for ((name, was), (_, now)) in distinct().counters().into_iter().zip(s.counters()) {
            assert_eq!(now, 2 * was, "{name}");
        }
    }

    #[test]
    fn empty_stats_are_zero_pct() {
        let s = CacheStats::default();
        assert_eq!(s.miss_pct(), 0.0);
        assert_eq!(s.read_remote_pct(), 0.0);
        assert_eq!(s.write_remote_pct(), 0.0);
    }
}
