//! The requester half of the coherence rules: what a processor's own
//! cache decides about a remote reference, an arriving thread and a
//! pushed invalidation.
//!
//! Every rule counts into the `CacheStats` it is handed and walks the
//! translation table a fixed number of times: a hit is one counted
//! lookup, a miss two (the probe, then the install), an elided hit none.

use crate::protocol::{Arrival, Protocol};
use crate::stats::CacheStats;
use crate::table::ProcCache;
use olden_gptr::{LineInPage, PageNum, ProcId};

/// What the cache can say about a remote reference on its own.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// Line resident and valid. Counted as a hit.
    Hit,
    /// As [`Probe::Hit`], answered from an uncounted peek because the
    /// optimizer's elision hint verified.
    ElidedHit,
    /// Line absent or invalid. Counted as a miss; the line must be fetched
    /// from its home and handed to [`ProcCache::install_line`].
    Miss,
    /// The page is epoch-marked (bilateral): the home must be consulted
    /// first, and [`ProcCache::settle_revalidation`] then counts the
    /// access. Neither hit nor miss has been counted yet.
    RevalNeeded { validated_ts: u64 },
}

fn count_reference(stats: &mut CacheStats, write: bool) {
    if write {
        stats.remote_writes += 1;
    } else {
        stats.remote_reads += 1;
    }
}

impl ProcCache {
    /// One counted lookup for a remote reference to `home`/`page`/`line`.
    /// Pages carry epoch marks only under the bilateral scheme, so the
    /// mark itself says whether to revalidate.
    pub fn probe(
        &mut self,
        stats: &mut CacheStats,
        home: ProcId,
        page: PageNum,
        line: LineInPage,
        write: bool,
    ) -> Probe {
        count_reference(stats, write);
        match self.lookup(home, page) {
            Some(cp) if cp.marked => Probe::RevalNeeded {
                validated_ts: cp.validated_ts,
            },
            Some(cp) if cp.line_valid(line) => {
                stats.hits += 1;
                Probe::Hit
            }
            _ => {
                stats.misses += 1;
                Probe::Miss
            }
        }
    }

    /// [`ProcCache::probe`] with the optimizer's verdict attached.
    ///
    /// `elide` means a must-availability fact says this processor checked
    /// the same object earlier on every path and nothing has invalidated
    /// the line since. The fact is a *verified hint*: an uncounted peek
    /// confirms the line is resident, valid and unmarked, and anything
    /// else (cold, invalidated, marked) takes the counted path. Hits and
    /// misses therefore never change, only whether the check lands in
    /// `checks_elided` or `checks_performed`.
    ///
    /// Bilateral refuses elision outright: epoch marks are set at every
    /// acquire behind the static analysis's back, and a marked page *must*
    /// take the revalidation round trip.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_checked(
        &mut self,
        protocol: Protocol,
        stats: &mut CacheStats,
        home: ProcId,
        page: PageNum,
        line: LineInPage,
        write: bool,
        elide: bool,
    ) -> Probe {
        let verified = elide
            && protocol != Protocol::Bilateral
            && self
                .peek(home, page)
                .is_some_and(|cp| cp.line_valid(line) && !cp.marked);
        if !verified {
            stats.checks_performed += 1;
            return self.probe(stats, home, page, line, write);
        }
        count_reference(stats, write);
        stats.hits += 1;
        stats.checks_elided += 1;
        Probe::ElidedHit
    }

    /// Finish a [`Probe::RevalNeeded`] access with the home's verdict:
    /// drop the stale lines, unmark, adopt the home's timestamp, then
    /// re-examine the wanted line (one more counted lookup). The round
    /// trip counts as a miss either way; returns whether the line survived
    /// (a revalidation — no payload moved) or must now be fetched.
    pub fn settle_revalidation(
        &mut self,
        stats: &mut CacheStats,
        home: ProcId,
        page: PageNum,
        line: LineInPage,
        ts: u64,
        stale_mask: u32,
    ) -> bool {
        let survived = self.lookup(home, page).is_some_and(|cp| {
            cp.clear_lines(stale_mask);
            cp.marked = false;
            cp.validated_ts = ts;
            cp.line_valid(line)
        });
        stats.misses += 1;
        if survived {
            stats.revalidations += 1;
        }
        survived
    }

    /// Install a fetched line: find-or-allocate the page descriptor in one
    /// counted lookup and set the valid bit. `ts` is the home page's
    /// timestamp from the fetch; the page's validation time never moves
    /// backwards.
    pub fn install_line(&mut self, home: ProcId, page: PageNum, line: LineInPage, ts: u64) {
        let cp = self.ensure(home, page);
        cp.set_line(line);
        cp.validated_ts = cp.validated_ts.max(ts);
    }

    /// A thread arrives by migration (the acquire).
    pub fn acquire(&mut self, protocol: Protocol, arrival: Arrival) {
        match protocol {
            Protocol::LocalKnowledge => match arrival {
                Arrival::Call => self.clear_all(),
                Arrival::Return { written_homes } => self.clear_homes(written_homes),
            },
            // Invalidations were pushed eagerly at departure.
            Protocol::GlobalKnowledge => {}
            Protocol::Bilateral => self.mark_all(),
        }
    }

    /// A global-knowledge invalidation pushed by a releasing thread.
    /// Counted as sent, and as spurious when the page was not resident
    /// here when it arrived.
    pub fn apply_invalidation(
        &mut self,
        stats: &mut CacheStats,
        home: ProcId,
        page: PageNum,
        mask: u32,
    ) {
        stats.invalidations_sent += 1;
        if !self.invalidate_lines(home, page, mask) {
            stats.invalidations_spurious += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm(c: &mut ProcCache, home: ProcId, page: PageNum, line: LineInPage) {
        c.install_line(home, page, line, 0);
    }

    #[test]
    fn marked_page_counts_nothing_until_settled() {
        let mut c = ProcCache::new();
        let mut stats = CacheStats::default();
        warm(&mut c, 1, 5, 2);
        warm(&mut c, 1, 5, 3);
        c.acquire(Protocol::Bilateral, Arrival::Call);
        assert_eq!(
            c.probe(&mut stats, 1, 5, 2, false),
            Probe::RevalNeeded { validated_ts: 0 }
        );
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(stats.remote_reads, 1, "the reference itself is counted");
        // The home says line 3 was written: line 2 survives.
        assert!(c.settle_revalidation(&mut stats, 1, 5, 2, 4, 1 << 3));
        assert_eq!((stats.hits, stats.misses, stats.revalidations), (0, 1, 1));
        // Unmarked now, and line 3 is gone.
        assert_eq!(c.probe(&mut stats, 1, 5, 2, false), Probe::Hit);
        assert_eq!(c.probe(&mut stats, 1, 5, 3, false), Probe::Miss);
        assert_eq!(c.peek(1, 5).unwrap().validated_ts, 4);
    }

    #[test]
    fn a_line_the_home_calls_stale_does_not_survive() {
        let mut c = ProcCache::new();
        let mut stats = CacheStats::default();
        warm(&mut c, 1, 5, 2);
        c.acquire(Protocol::Bilateral, Arrival::Call);
        c.probe(&mut stats, 1, 5, 2, true);
        assert!(!c.settle_revalidation(&mut stats, 1, 5, 2, 1, 1 << 2));
        assert_eq!((stats.misses, stats.revalidations), (1, 0));
    }

    #[test]
    fn elide_hint_on_cold_marked_or_invalid_line_takes_the_counted_path() {
        let l = Protocol::LocalKnowledge;
        let mut c = ProcCache::new();
        let mut stats = CacheStats::default();
        // Cold.
        assert_eq!(
            c.probe_checked(l, &mut stats, 1, 5, 2, false, true),
            Probe::Miss
        );
        warm(&mut c, 1, 5, 2);
        // Page resident, line invalid.
        assert_eq!(
            c.probe_checked(l, &mut stats, 1, 5, 3, false, true),
            Probe::Miss
        );
        let lookups = c.lookups();
        assert_eq!(
            c.probe_checked(l, &mut stats, 1, 5, 2, true, true),
            Probe::ElidedHit
        );
        assert_eq!(c.lookups(), lookups, "an elided hit walks no chain");
        assert_eq!((stats.checks_performed, stats.checks_elided), (2, 1));
        assert_eq!((stats.hits, stats.misses), (1, 2));
        // Marked: the hint is refused whatever the protocol argument says.
        c.mark_all();
        assert_eq!(
            c.probe_checked(l, &mut stats, 1, 5, 2, false, true),
            Probe::RevalNeeded { validated_ts: 0 }
        );
        assert_eq!((stats.checks_performed, stats.checks_elided), (3, 1));
    }

    #[test]
    fn bilateral_refuses_elision_even_on_an_unmarked_page() {
        let mut c = ProcCache::new();
        let mut stats = CacheStats::default();
        warm(&mut c, 1, 5, 2);
        assert_eq!(
            c.probe_checked(Protocol::Bilateral, &mut stats, 1, 5, 2, false, true),
            Probe::Hit
        );
        assert_eq!((stats.checks_performed, stats.checks_elided), (1, 0));
    }

    #[test]
    fn installed_validation_time_is_monotone() {
        let mut c = ProcCache::new();
        c.install_line(1, 5, 0, 3);
        c.install_line(1, 5, 1, 2);
        assert_eq!(c.peek(1, 5).unwrap().validated_ts, 3);
        assert_eq!(c.lookups(), 2, "one counted lookup per install");
    }

    #[test]
    fn acquire_follows_the_scheme() {
        let ret = Arrival::Return {
            written_homes: [2].into_iter().collect(),
        };
        let mut c = ProcCache::new();
        warm(&mut c, 1, 5, 0);
        warm(&mut c, 2, 9, 0);
        c.acquire(Protocol::GlobalKnowledge, Arrival::Call);
        assert_eq!(c.resident(), 2);
        c.acquire(Protocol::LocalKnowledge, ret);
        assert!(c.peek(1, 5).is_some() && c.peek(2, 9).is_none());
        c.acquire(Protocol::Bilateral, ret);
        assert!(c.peek(1, 5).unwrap().marked);
        c.acquire(Protocol::LocalKnowledge, Arrival::Call);
        assert_eq!(c.resident(), 0);
    }

    /// `invalidations_spurious` counts pushes that found the page *not*
    /// resident; every push counts as sent.
    #[test]
    fn invalidation_is_spurious_exactly_when_the_page_is_absent() {
        let mut c = ProcCache::new();
        let mut stats = CacheStats::default();
        warm(&mut c, 1, 5, 2);
        c.apply_invalidation(&mut stats, 1, 5, 1 << 2);
        assert_eq!(
            (stats.invalidations_sent, stats.invalidations_spurious),
            (1, 0)
        );
        assert!(!c.peek(1, 5).unwrap().line_valid(2));
        // Resident page, line already invalid: still not spurious.
        c.apply_invalidation(&mut stats, 1, 5, 1 << 2);
        assert_eq!(
            (stats.invalidations_sent, stats.invalidations_spurious),
            (2, 0)
        );
        c.apply_invalidation(&mut stats, 1, 6, u32::MAX);
        assert_eq!(
            (stats.invalidations_sent, stats.invalidations_spurious),
            (3, 1)
        );
    }
}
