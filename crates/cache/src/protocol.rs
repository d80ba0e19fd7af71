//! The three coherence schemes of Appendix A, behind one interface.
//!
//! All three are correct because Olden reduces to release consistency: a
//! migration *send* releases, a migration *receipt* acquires, and the
//! future semantics guarantee concurrent threads never read each other's
//! in-flight writes. The schemes differ only in what bookkeeping they pay
//! and when cached lines become invalid:
//!
//! | scheme    | on heap write                   | on migration depart            | on migration arrive            |
//! |-----------|---------------------------------|--------------------------------|--------------------------------|
//! | local     | –                               | –                              | clear whole cache (returns: only written homes) |
//! | global    | record dirty line (7/23 instrs) | push invalidations to sharers  | –                              |
//! | bilateral | record dirty line (7/23 instrs) | bump written pages' timestamps | mark all pages for revalidation |

use crate::epoch::{invalidation_targets, DirtyPage, Release, WriteEpoch};
use crate::home::HomeDir;
use crate::requester::Probe;
use crate::stats::CacheStats;
use crate::table::ProcCache;
use olden_gptr::{LineInPage, PageNum, ProcId};

/// Which Appendix-A coherence scheme is in force.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    /// Invalidate the whole local cache on every migration receipt; on
    /// returns, only pages homed on processors the thread wrote.
    LocalKnowledge,
    /// Eager release consistency: track writes per line, sharers per page;
    /// push invalidations at each migration departure.
    GlobalKnowledge,
    /// Per-page timestamps at home + epoch marks at receivers; first
    /// access after an acquire revalidates.
    Bilateral,
}

impl Protocol {
    pub const ALL: [Protocol; 3] = [
        Protocol::LocalKnowledge,
        Protocol::GlobalKnowledge,
        Protocol::Bilateral,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Protocol::LocalKnowledge => "local",
            Protocol::GlobalKnowledge => "global",
            Protocol::Bilateral => "bilateral",
        }
    }

    /// Inverse of [`Protocol::name`] — the CLI flag and wire spellings.
    pub fn from_name(s: &str) -> Option<Protocol> {
        match s {
            "local" => Some(Protocol::LocalKnowledge),
            "global" => Some(Protocol::GlobalKnowledge),
            "bilateral" => Some(Protocol::Bilateral),
            _ => None,
        }
    }

    /// Whether the compiler inserts write-tracking code under this scheme
    /// (and homes therefore keep a directory). Local knowledge keeps no
    /// global state at all.
    pub fn tracks_writes(self) -> bool {
        self != Protocol::LocalKnowledge
    }
}

/// Outcome of a remote cacheable access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// Line present and valid: serviced locally.
    Hit,
    /// Round trip to the home node. `revalidation` is true when the trip
    /// only refreshed a timestamp and the line itself was still valid
    /// (bilateral), so no 64-byte payload moved.
    Miss { revalidation: bool },
}

/// How a thread arrived at a processor (migration receipt = acquire).
#[derive(Clone, Copy, Debug)]
pub enum Arrival<'a> {
    /// Forward migration into a procedure body.
    Call,
    /// Return-stub migration; `written_homes` are the processors whose
    /// memories the returning thread wrote (the §3 refinement: only their
    /// lines can be stale for this thread).
    Return { written_homes: &'a [ProcId] },
}

/// Every processor's cache and home directory plus the one running
/// thread's write epoch, under one protocol: the rules of [`ProcCache`],
/// [`HomeDir`] and [`WriteEpoch`] composed in the order a distributed
/// client sends the corresponding messages. This is what the simulator
/// runs.
#[derive(Clone, Debug)]
pub struct CacheSystem {
    protocol: Protocol,
    caches: Vec<ProcCache>,
    homes: Vec<HomeDir>,
    epoch: WriteEpoch,
    stats: CacheStats,
}

impl CacheSystem {
    pub fn new(procs: usize, protocol: Protocol) -> CacheSystem {
        CacheSystem {
            protocol,
            caches: (0..procs).map(|_| ProcCache::new()).collect(),
            homes: (0..procs).map(|_| HomeDir::default()).collect(),
            epoch: WriteEpoch::default(),
            stats: CacheStats::default(),
        }
    }

    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Total distinct pages ever cached, across all processors (Table 3
    /// "Total Pages Cached").
    pub fn pages_cached(&self) -> u64 {
        self.caches.iter().map(|c| c.pages_ever()).sum()
    }

    /// Mean translation-table chain length across processors (§3.2 claims
    /// ≈ 1).
    pub fn mean_chain_length(&self) -> f64 {
        let with_lookups: Vec<f64> = self
            .caches
            .iter()
            .map(|c| c.mean_chain_length())
            .filter(|&m| m > 0.0)
            .collect();
        if with_lookups.is_empty() {
            0.0
        } else {
            with_lookups.iter().sum::<f64>() / with_lookups.len() as f64
        }
    }

    /// A remote cacheable reference by `requester` to a word on
    /// `home`/`page`/`line`. Decides hit or miss, updates sharer and valid
    /// state, and records statistics. The caller charges cycle costs based
    /// on the returned [`Access`], and must separately call
    /// [`CacheSystem::note_write`] for every heap write (this one
    /// included) — write tracking is a compiler-inserted instrumentation
    /// on the write itself, independent of how the address was resolved.
    pub fn access(
        &mut self,
        requester: ProcId,
        home: ProcId,
        page: PageNum,
        line: LineInPage,
        write: bool,
    ) -> Access {
        debug_assert_ne!(requester, home, "local references bypass the cache");
        let probe = self.caches[requester as usize].probe(&mut self.stats, home, page, line, write);
        self.complete(probe, requester, home, page, line)
    }

    /// [`CacheSystem::access`] with the optimizer's `Check::Elide` verdict
    /// attached; see [`ProcCache::probe_checked`] for what the hint may and
    /// may not change.
    pub fn access_checked(
        &mut self,
        requester: ProcId,
        home: ProcId,
        page: PageNum,
        line: LineInPage,
        write: bool,
        elide: bool,
    ) -> Access {
        let probe = self.caches[requester as usize].probe_checked(
            self.protocol,
            &mut self.stats,
            home,
            page,
            line,
            write,
            elide,
        );
        self.complete(probe, requester, home, page, line)
    }

    /// Carry a probe's verdict through the home: the line fetch of a miss,
    /// or the revalidation round trip (which a stale line turns into a
    /// fetch on the same trip).
    fn complete(
        &mut self,
        probe: Probe,
        requester: ProcId,
        home: ProcId,
        page: PageNum,
        line: LineInPage,
    ) -> Access {
        let revalidation = match probe {
            Probe::Hit | Probe::ElidedHit => return Access::Hit,
            Probe::Miss => false,
            Probe::RevalNeeded { validated_ts } => {
                let (ts, stale_mask) = self.homes[home as usize].revalidate(page, validated_ts);
                self.caches[requester as usize].settle_revalidation(
                    &mut self.stats,
                    home,
                    page,
                    line,
                    ts,
                    stale_mask,
                )
            }
        };
        if !revalidation {
            let ts = self.homes[home as usize].register_fetch(self.protocol, page, requester);
            self.caches[requester as usize].install_line(home, page, line, ts);
        }
        Access::Miss { revalidation }
    }

    /// Record a heap write for the write-tracking protocols. Called for
    /// *every* heap write (local, migrated-to, or cached-remote) — the
    /// compiler cannot tell which at the write site, which is exactly why
    /// the tracking overhead is pervasive. Returns the cycles the inserted
    /// tracking code costs (zero under local knowledge).
    pub fn note_write(
        &mut self,
        _writer: ProcId,
        home: ProcId,
        page: PageNum,
        line: LineInPage,
    ) -> u64 {
        self.epoch.note_write(self.protocol, home, page, line);
        self.homes[home as usize].track_write(self.protocol, &mut self.stats, page, line)
    }

    /// A migration is leaving `from` (a release). Returns the cycle cost
    /// of any invalidation traffic generated (global scheme).
    pub fn depart(&mut self, from: ProcId, msg_cost: u64) -> u64 {
        let mut cost = 0;
        match self.epoch.drain(self.protocol) {
            Release::Nothing => {}
            Release::Invalidate(pages) => {
                for DirtyPage { home, page, mask } in pages {
                    let sharers = self.homes[home as usize].sharers(page);
                    for s in invalidation_targets(sharers, from) {
                        self.caches[s as usize].apply_invalidation(
                            &mut self.stats,
                            home,
                            page,
                            mask,
                        );
                        cost += msg_cost;
                    }
                }
            }
            Release::Bump(by_home) => {
                for (home, pages) in by_home {
                    self.homes[home as usize].bump_timestamps(&pages);
                }
            }
        }
        cost
    }

    /// A migration arrived at `to` (an acquire).
    pub fn arrive(&mut self, to: ProcId, arrival: Arrival<'_>) {
        self.caches[to as usize].acquire(self.protocol, arrival);
    }

    /// Direct read-only view of one processor's cache (tests, reporting).
    pub fn cache(&self, proc: ProcId) -> &ProcCache {
        &self.caches[proc as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(p: Protocol) -> CacheSystem {
        CacheSystem::new(4, p)
    }

    #[test]
    fn first_access_misses_then_hits() {
        for p in Protocol::ALL {
            let mut s = sys(p);
            assert_eq!(
                s.access(0, 1, 5, 2, false),
                Access::Miss {
                    revalidation: false
                },
                "{:?}",
                p
            );
            assert_eq!(s.access(0, 1, 5, 2, false), Access::Hit, "{:?}", p);
            assert_eq!(s.stats().misses, 1);
            assert_eq!(s.stats().hits, 1);
        }
    }

    #[test]
    fn line_granularity_within_page() {
        let mut s = sys(Protocol::LocalKnowledge);
        s.access(0, 1, 5, 2, false);
        // Different line, same page: page allocated but line invalid.
        assert_eq!(
            s.access(0, 1, 5, 3, false),
            Access::Miss {
                revalidation: false
            }
        );
        assert_eq!(s.cache(0).pages_ever(), 1, "page allocated once");
    }

    /// Two consecutive word addresses straddling a 2 KB page boundary
    /// (word 255 → page 0 line 31; word 256 → page 1 line 0) are distinct
    /// cache units under every protocol: each misses on first touch,
    /// allocates its own page descriptor, and hits independently.
    #[test]
    fn page_straddling_accesses_are_independent_units() {
        use olden_gptr::geometry::{line_in_page_of_word, page_of_word};
        let words = [255u64, 256u64];
        for p in Protocol::ALL {
            let mut s = sys(p);
            for &w in &words {
                assert_eq!(
                    s.access(0, 1, page_of_word(w), line_in_page_of_word(w), false),
                    Access::Miss {
                        revalidation: false
                    },
                    "{p:?} word {w}: first touch of its own line"
                );
            }
            for &w in &words {
                assert_eq!(
                    s.access(0, 1, page_of_word(w), line_in_page_of_word(w), false),
                    Access::Hit,
                    "{p:?} word {w}"
                );
            }
            assert_eq!(
                s.cache(0).pages_ever(),
                2,
                "{p:?}: the straddle spans two descriptors"
            );
        }
    }

    #[test]
    fn local_call_arrival_clears_everything() {
        let mut s = sys(Protocol::LocalKnowledge);
        s.access(0, 1, 5, 2, false);
        s.arrive(0, Arrival::Call);
        assert_eq!(
            s.access(0, 1, 5, 2, false),
            Access::Miss {
                revalidation: false
            }
        );
    }

    #[test]
    fn local_return_arrival_is_selective() {
        let mut s = sys(Protocol::LocalKnowledge);
        s.access(0, 1, 5, 2, false); // page homed on 1
        s.access(0, 2, 9, 0, false); // page homed on 2
                                     // Thread returns having written only processor 2's memory.
        s.arrive(
            0,
            Arrival::Return {
                written_homes: &[2],
            },
        );
        assert_eq!(s.access(0, 1, 5, 2, false), Access::Hit);
        assert_eq!(
            s.access(0, 2, 9, 0, false),
            Access::Miss {
                revalidation: false
            }
        );
    }

    #[test]
    fn global_pushes_invalidations_to_sharers() {
        let mut s = sys(Protocol::GlobalKnowledge);
        // Proc 0 caches line (1, page 5, line 2).
        s.access(0, 1, 5, 2, false);
        // Proc 2 migrates somewhere and writes that line remotely (cached
        // write): dirty tracking records it.
        s.access(2, 1, 5, 2, true);
        s.note_write(2, 1, 5, 2);
        // Departure of proc 2's thread pushes invalidations.
        let cost = s.depart(2, 100);
        assert!(cost >= 100, "at least one invalidation message");
        assert!(s.stats().invalidations_sent >= 1);
        // Proc 0's copy is gone; proc 2's own copy survived.
        assert_eq!(
            s.access(0, 1, 5, 2, false),
            Access::Miss {
                revalidation: false
            }
        );
        assert_eq!(s.access(2, 1, 5, 2, false), Access::Hit);
    }

    #[test]
    fn global_arrival_is_free() {
        let mut s = sys(Protocol::GlobalKnowledge);
        s.access(0, 1, 5, 2, false);
        s.arrive(0, Arrival::Call);
        assert_eq!(s.access(0, 1, 5, 2, false), Access::Hit);
    }

    #[test]
    fn bilateral_marked_page_revalidates_and_survives_if_clean() {
        let mut s = sys(Protocol::Bilateral);
        s.access(0, 1, 5, 2, false);
        s.arrive(0, Arrival::Call); // marks all pages
                                    // Nothing was written: revalidation round trip, line survives.
        assert_eq!(
            s.access(0, 1, 5, 2, false),
            Access::Miss { revalidation: true }
        );
        assert_eq!(s.stats().revalidations, 1);
        // Unmarked now: plain hit.
        assert_eq!(s.access(0, 1, 5, 2, false), Access::Hit);
    }

    #[test]
    fn bilateral_invalidates_written_lines_on_revalidation() {
        let mut s = sys(Protocol::Bilateral);
        s.access(0, 1, 5, 2, false);
        s.access(0, 1, 5, 3, false);
        // Another thread (on proc 3) writes line 2 and departs: ts bump.
        s.access(3, 1, 5, 2, true);
        s.note_write(3, 1, 5, 2);
        s.depart(3, 100);
        s.arrive(0, Arrival::Call);
        // Line 2 was written since validation: full miss.
        assert_eq!(
            s.access(0, 1, 5, 2, false),
            Access::Miss {
                revalidation: false
            }
        );
        // Line 3 was not written; it survived the same revalidation and
        // the page is unmarked, so this is a hit.
        assert_eq!(s.access(0, 1, 5, 3, false), Access::Hit);
    }

    #[test]
    fn write_tracking_costs_seven_or_twentythree() {
        let mut s = sys(Protocol::GlobalKnowledge);
        // Page with no sharers yet: 7 instructions.
        assert_eq!(s.note_write(0, 0, 77, 0), 7);
        // Make page (1,5) shared, then write it: 23 instructions.
        s.access(0, 1, 5, 2, false);
        assert_eq!(s.note_write(1, 1, 5, 2), 23);
        // Local scheme pays nothing.
        let mut l = sys(Protocol::LocalKnowledge);
        assert_eq!(l.note_write(0, 1, 5, 2), 0);
        assert_eq!(l.stats().write_track_cycles, 0);
    }

    #[test]
    fn write_allocate_counts_as_miss_then_write_hits() {
        let mut s = sys(Protocol::LocalKnowledge);
        assert_eq!(
            s.access(0, 1, 5, 2, true),
            Access::Miss {
                revalidation: false
            }
        );
        assert_eq!(s.access(0, 1, 5, 2, true), Access::Hit);
        assert_eq!(s.stats().remote_writes, 2);
        assert_eq!(s.stats().remote_reads, 0);
    }

    #[test]
    fn pages_cached_sums_across_processors() {
        let mut s = sys(Protocol::LocalKnowledge);
        s.access(0, 1, 5, 2, false);
        s.access(2, 1, 5, 2, false);
        s.access(2, 3, 8, 0, false);
        assert_eq!(s.pages_cached(), 3);
    }

    /// Regression for the `fetch_line` double lookup: a miss must cost
    /// exactly two counted lookups (the access probe + the single install
    /// probe) and a hit exactly one, under every protocol. The old code
    /// probed up to twice more on the install path, inflating `lookups`/
    /// `probes` and with them `mean_probes_per_lookup`.
    #[test]
    fn miss_path_counts_exactly_two_lookups() {
        for p in Protocol::ALL {
            let mut s = sys(p);
            s.access(0, 1, 5, 2, false); // miss: access probe + install probe
            assert_eq!(s.cache(0).lookups(), 2, "{p:?} miss path");
            s.access(0, 1, 5, 2, false); // hit: one probe
            assert_eq!(s.cache(0).lookups(), 3, "{p:?} hit path");
            // Empty-chain walks cost zero probes; only the hit's
            // first-position find costs one.
            assert_eq!(s.cache(0).probes(), 1, "{p:?} probes");
        }
    }

    #[test]
    fn access_checked_elides_only_verified_hits() {
        let mut s = sys(Protocol::LocalKnowledge);
        // Stale hint on a cold cache: falls back, full miss, counted as
        // performed.
        assert_eq!(
            s.access_checked(0, 1, 5, 2, false, true),
            Access::Miss {
                revalidation: false
            }
        );
        assert_eq!(s.stats().checks_performed, 1);
        assert_eq!(s.stats().checks_elided, 0);
        let lookups = s.cache(0).lookups();
        // Verified hint: hit without touching the hash table.
        assert_eq!(s.access_checked(0, 1, 5, 2, false, true), Access::Hit);
        assert_eq!(s.stats().checks_elided, 1);
        assert_eq!(s.cache(0).lookups(), lookups, "no probe on the fast path");
        // Perform path still counts normally.
        assert_eq!(s.access_checked(0, 1, 5, 2, false, false), Access::Hit);
        assert_eq!(s.stats().checks_performed, 2);
        assert_eq!(s.cache(0).lookups(), lookups + 1);
        // Hits/misses are indistinguishable from the unchecked path.
        assert_eq!(s.stats().hits, 2);
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn bilateral_refuses_elision() {
        let mut s = sys(Protocol::Bilateral);
        s.access(0, 1, 5, 2, false);
        s.arrive(0, Arrival::Call); // marks the page: must revalidate
        assert_eq!(
            s.access_checked(0, 1, 5, 2, false, true),
            Access::Miss { revalidation: true },
            "marked page takes the round trip even under an elide hint"
        );
        assert_eq!(s.stats().checks_elided, 0);
        assert_eq!(s.stats().checks_performed, 1);
    }

    #[test]
    fn bilateral_depart_without_writes_keeps_ts() {
        let mut s = sys(Protocol::Bilateral);
        s.access(0, 1, 5, 2, false);
        s.depart(2, 100); // no writes: no ts bump anywhere
        s.arrive(0, Arrival::Call);
        assert_eq!(
            s.access(0, 1, 5, 2, false),
            Access::Miss { revalidation: true }
        );
    }
}
