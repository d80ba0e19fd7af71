//! The home half of the coherence rules: one processor's directory of the
//! pages homed on it.
//!
//! Local knowledge keeps no global state, so every rule here is a no-op
//! under it and never creates an entry. The other two schemes track
//! sharers per page (Appendix A); bilateral adds a per-page timestamp and
//! the timestamp at which each line was last written.

use crate::protocol::Protocol;
use crate::stats::CacheStats;
use olden_gptr::{LineInPage, PageNum, ProcId, LINES_PER_PAGE};
use std::collections::HashMap;

/// Instruction costs of the compiler-inserted write-tracking code
/// (Appendix A: "seven instructions for non-shared pages, and twenty-three
/// instructions for shared pages").
const TRACK_NONSHARED: u64 = 7;
const TRACK_SHARED: u64 = 23;

#[derive(Clone, Debug, Default)]
struct HomePage {
    /// Processors that have fetched lines of this page.
    sharers: Vec<ProcId>,
    /// Bilateral: current timestamp, bumped at a release that wrote the
    /// page.
    ts: u64,
    /// Bilateral: the value `ts` will have once the write to each line is
    /// released.
    line_ts: [u64; LINES_PER_PAGE],
}

/// Directory state for the pages homed on one processor.
#[derive(Clone, Debug, Default)]
pub struct HomeDir {
    pages: HashMap<PageNum, HomePage>,
}

impl HomeDir {
    /// A line of `page` is being fetched by `requester`: register it as a
    /// sharer (once) and return the page's timestamp for the install.
    pub fn register_fetch(&mut self, protocol: Protocol, page: PageNum, requester: ProcId) -> u64 {
        if !protocol.tracks_writes() {
            return 0;
        }
        let hp = self.pages.entry(page).or_default();
        if !hp.sharers.contains(&requester) {
            hp.sharers.push(requester);
        }
        hp.ts
    }

    /// Bilateral revalidation: the page's timestamp and the mask of lines
    /// written since the requester validated at `validated_ts`.
    pub fn revalidate(&mut self, page: PageNum, validated_ts: u64) -> (u64, u32) {
        let hp = self.pages.entry(page).or_default();
        let mut stale_mask = 0u32;
        for (l, &written) in hp.line_ts.iter().enumerate() {
            if written > validated_ts {
                stale_mask |= 1 << l;
            }
        }
        (hp.ts, stale_mask)
    }

    /// The home side of the write-tracking code, run for every charged
    /// heap write to `page`/`line`: stamp the line (bilateral) and pay 7
    /// cycles, or 23 once the page has a sharer. Returns the cycles, which
    /// are also added to `stats.write_track_cycles`.
    pub fn track_write(
        &mut self,
        protocol: Protocol,
        stats: &mut CacheStats,
        page: PageNum,
        line: LineInPage,
    ) -> u64 {
        if !protocol.tracks_writes() {
            return 0;
        }
        if protocol == Protocol::Bilateral {
            let hp = self.pages.entry(page).or_default();
            hp.line_ts[line as usize] = hp.ts + 1;
        }
        let cycles = if self.sharers(page).is_empty() {
            TRACK_NONSHARED
        } else {
            TRACK_SHARED
        };
        stats.write_track_cycles += cycles;
        cycles
    }

    /// Processors registered as sharers of `page`. Read-only.
    pub fn sharers(&self, page: PageNum) -> &[ProcId] {
        self.pages.get(&page).map_or(&[], |hp| &hp.sharers)
    }

    /// Bilateral release: the pages written during the departing thread's
    /// epoch move to their next timestamp.
    pub fn bump_timestamps(&mut self, pages: &[PageNum]) {
        for &page in pages {
            self.pages.entry(page).or_default().ts += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracked(d: &mut HomeDir, p: Protocol, page: PageNum, line: LineInPage) -> u64 {
        d.track_write(p, &mut CacheStats::default(), page, line)
    }

    #[test]
    fn tracking_cost_flips_when_the_first_sharer_registers() {
        for p in [Protocol::GlobalKnowledge, Protocol::Bilateral] {
            let mut d = HomeDir::default();
            let mut stats = CacheStats::default();
            assert_eq!(d.track_write(p, &mut stats, 5, 0), 7, "{p:?} unshared");
            d.register_fetch(p, 6, 2);
            assert_eq!(d.track_write(p, &mut stats, 5, 0), 7, "{p:?} other page");
            d.register_fetch(p, 5, 2);
            assert_eq!(d.track_write(p, &mut stats, 5, 0), 23, "{p:?} shared");
            assert_eq!(stats.write_track_cycles, 7 + 7 + 23);
        }
    }

    #[test]
    fn a_requester_registers_once() {
        let mut d = HomeDir::default();
        for _ in 0..3 {
            d.register_fetch(Protocol::GlobalKnowledge, 5, 2);
        }
        d.register_fetch(Protocol::GlobalKnowledge, 5, 1);
        assert_eq!(d.sharers(5), &[2, 1]);
        assert!(d.sharers(6).is_empty());
    }

    #[test]
    fn stale_mask_is_exactly_the_lines_written_since_validation() {
        let b = Protocol::Bilateral;
        let mut d = HomeDir::default();
        assert_eq!(d.register_fetch(b, 5, 1), 0);
        tracked(&mut d, b, 5, 3);
        // Written but not yet released: already stale for a reader at ts 0.
        assert_eq!(d.revalidate(5, 0), (0, 1 << 3));
        d.bump_timestamps(&[5]);
        tracked(&mut d, b, 5, 31);
        d.bump_timestamps(&[5]);
        assert_eq!(d.revalidate(5, 0), (2, (1 << 3) | (1 << 31)));
        assert_eq!(d.revalidate(5, 1), (2, 1 << 31));
        assert_eq!(d.revalidate(5, 2), (2, 0));
        assert_eq!(d.register_fetch(b, 5, 1), 2, "fetch reports the epoch");
    }

    #[test]
    fn local_knowledge_creates_no_directory_entry() {
        let l = Protocol::LocalKnowledge;
        let mut d = HomeDir::default();
        let mut stats = CacheStats::default();
        assert_eq!(d.register_fetch(l, 5, 1), 0);
        assert_eq!(d.track_write(l, &mut stats, 5, 2), 0);
        assert!(d.pages.is_empty());
        assert_eq!(stats, CacheStats::default());
        // Global tracking reads the directory without adding to it.
        assert_eq!(tracked(&mut d, Protocol::GlobalKnowledge, 5, 2), 7);
        assert!(d.pages.is_empty());
    }
}
