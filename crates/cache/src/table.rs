//! The per-processor translation table of Figure 1.
//!
//! A 1 K-bucket hash table; each bucket holds a list of cached-page
//! descriptors. A descriptor records the page's identity (home processor +
//! page number — together the "tag" that also translates the global address
//! to a local one), one valid bit per 64-byte line, and the bookkeeping the
//! bilateral protocol needs (an epoch mark and the timestamp at which the
//! page was last validated against its home).
//!
//! Beside the buckets the table keeps an index of the non-empty ones, so
//! the three whole-cache operations an acquire performs (`clear_all`,
//! `clear_homes`, `mark_all`) walk only the occupied chains and cost
//! O(resident pages), not O(1 024). The clears really drop descriptors:
//! a generation counter that left stale entries in the chains would
//! lengthen the walks `lookup` counts, and those probes are the §3.2
//! chain-length claim (`mean_chain_length`, pinned by the benchmark).

use olden_gptr::{LineInPage, PageNum, ProcId, ProcSet, LINES_PER_PAGE};

/// Bucket count of the translation table (paper Figure 1: "1024 hash
/// buckets", described in §3.2 as "a 1K hash table").
pub const HASH_BUCKETS: usize = 1024;

/// Descriptor of one remotely homed page held in a processor's cache.
#[derive(Clone, Copy, Debug)]
pub struct CachedPage {
    /// Home processor of the page.
    pub home: ProcId,
    /// Page number within the home's heap section.
    pub page: PageNum,
    /// One valid bit per line (32 lines per 2 KB page).
    pub valid: u32,
    /// Bilateral protocol: set on migration receipt; the next access must
    /// revalidate against the home's timestamp.
    pub marked: bool,
    /// Bilateral protocol: home timestamp at the last revalidation.
    pub validated_ts: u64,
}

impl CachedPage {
    #[inline]
    pub fn line_valid(&self, line: LineInPage) -> bool {
        debug_assert!((line as usize) < LINES_PER_PAGE);
        self.valid & (1u32 << line) != 0
    }

    #[inline]
    pub fn set_line(&mut self, line: LineInPage) {
        self.valid |= 1u32 << line;
    }

    #[inline]
    pub fn clear_lines(&mut self, mask: u32) {
        self.valid &= !mask;
    }
}

/// One processor's software cache: the hash table plus hit/miss-relevant
/// occupancy statistics.
#[derive(Clone, Debug)]
pub struct ProcCache {
    buckets: Vec<Vec<CachedPage>>,
    /// Each non-empty bucket exactly once, in no particular order. `ensure`
    /// (the only insertion) adds a bucket when its chain becomes non-empty;
    /// the clears remove the buckets they empty.
    occupied: Vec<u16>,
    /// Distinct pages ever inserted (monotone; Table 3's "Total Pages
    /// Cached" sums this across processors).
    pages_ever: u64,
    /// Pages currently resident.
    resident: usize,
    /// Chain-walk probes performed (for the "average chain length ≈ 1"
    /// claim of §3.2).
    probes: u64,
    lookups: u64,
}

/// Hash of (home, page) into the bucket array: a splitmix64-style mix of
/// the combined key, as cheap as the original's shift-and-mask while
/// spreading distinct homes and nearby page numbers.
#[inline]
fn bucket_of(home: ProcId, page: PageNum) -> usize {
    let mut z = ((page << 8) | home as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize & (HASH_BUCKETS - 1)
}

impl ProcCache {
    pub fn new() -> ProcCache {
        ProcCache {
            buckets: vec![Vec::new(); HASH_BUCKETS],
            occupied: Vec::new(),
            pages_ever: 0,
            resident: 0,
            probes: 0,
            lookups: 0,
        }
    }

    /// Find the descriptor for `(home, page)`, walking the bucket chain.
    pub fn lookup(&mut self, home: ProcId, page: PageNum) -> Option<&mut CachedPage> {
        self.lookups += 1;
        let b = bucket_of(home, page);
        let chain = &mut self.buckets[b];
        for (i, cp) in chain.iter().enumerate() {
            if cp.home == home && cp.page == page {
                self.probes += (i + 1) as u64;
                return Some(&mut chain[i]);
            }
        }
        self.probes += chain.len() as u64;
        None
    }

    /// Uncounted shared probe: the optimizer's elision fast path verifies
    /// its static fact against the live descriptor without charging a
    /// lookup — skipping exactly this bookkeeping is the point of eliding.
    pub fn peek(&self, home: ProcId, page: PageNum) -> Option<&CachedPage> {
        let b = bucket_of(home, page);
        self.buckets[b]
            .iter()
            .find(|cp| cp.home == home && cp.page == page)
    }

    /// Find-or-insert with a *single* counted probe: the miss-service
    /// library routine walks the chain once, installing a descriptor with
    /// no valid lines at the end if the walk came up empty (allocation is
    /// at page granularity, §3.2).
    pub fn ensure(&mut self, home: ProcId, page: PageNum) -> &mut CachedPage {
        self.lookups += 1;
        let b = bucket_of(home, page);
        let chain = &mut self.buckets[b];
        match chain
            .iter()
            .position(|cp| cp.home == home && cp.page == page)
        {
            Some(i) => {
                self.probes += (i + 1) as u64;
                &mut chain[i]
            }
            None => {
                self.probes += chain.len() as u64;
                if chain.is_empty() {
                    self.occupied.push(b as u16);
                }
                self.pages_ever += 1;
                self.resident += 1;
                chain.push(CachedPage {
                    home,
                    page,
                    valid: 0,
                    marked: false,
                    validated_ts: 0,
                });
                chain.last_mut().unwrap()
            }
        }
    }

    /// Counted lookups so far (regression surface for the double-count
    /// fix in the miss path).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Chain probes so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Local-knowledge acquire: drop everything. Walks the occupied
    /// chains only, O(resident pages).
    pub fn clear_all(&mut self) {
        for &b in &self.occupied {
            self.buckets[b as usize].clear();
        }
        self.occupied.clear();
        self.resident = 0;
    }

    /// Local-knowledge return refinement: drop only pages homed on the
    /// given processors. Filters the occupied chains only and unindexes
    /// those it empties.
    pub fn clear_homes(&mut self, homes: ProcSet) {
        self.occupied.retain(|&b| {
            let chain = &mut self.buckets[b as usize];
            let before = chain.len();
            chain.retain(|cp| !homes.contains(cp.home));
            self.resident -= before - chain.len();
            !chain.is_empty()
        });
    }

    /// Global-knowledge invalidation: clear specific lines of one page.
    /// Returns true if the page was cached here (a useful, non-spurious
    /// invalidation).
    pub fn invalidate_lines(&mut self, home: ProcId, page: PageNum, mask: u32) -> bool {
        // An uncounted walk: the pushed invalidation is not a lookup of
        // the running program.
        let cached = self.buckets[bucket_of(home, page)]
            .iter_mut()
            .find(|cp| cp.home == home && cp.page == page);
        cached.map(|cp| cp.clear_lines(mask)).is_some()
    }

    /// Bilateral acquire: mark every cached page so its next access
    /// revalidates (the epoch-bit technique of Darnell et al.). Visits the
    /// occupied chains only.
    pub fn mark_all(&mut self) {
        for &b in &self.occupied {
            for cp in self.buckets[b as usize].iter_mut() {
                cp.marked = true;
            }
        }
    }

    /// Distinct pages ever cached on this processor.
    pub fn pages_ever(&self) -> u64 {
        self.pages_ever
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Mean probes per lookup — §3.2 claims this stays ≈ 1.
    pub fn mean_chain_length(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.probes as f64 / self.lookups as f64
        }
    }
}

impl Default for ProcCache {
    fn default() -> Self {
        ProcCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_figure1() {
        assert_eq!(HASH_BUCKETS, 1024);
        assert_eq!(LINES_PER_PAGE, 32); // one u32 of valid bits per page
    }

    #[test]
    fn miss_then_ensure_then_hit() {
        let mut c = ProcCache::new();
        assert!(c.lookup(3, 7).is_none());
        let cp = c.ensure(3, 7);
        assert!(!cp.line_valid(0));
        cp.set_line(5);
        let cp = c.lookup(3, 7).expect("resident after ensure");
        assert!(cp.line_valid(5));
        assert!(!cp.line_valid(4));
        assert_eq!(c.resident(), 1);
        assert_eq!(c.pages_ever(), 1);
    }

    #[test]
    fn distinct_homes_same_page_number_do_not_collide_logically() {
        let mut c = ProcCache::new();
        c.ensure(1, 42).set_line(0);
        c.ensure(2, 42).set_line(1);
        assert!(c.lookup(1, 42).unwrap().line_valid(0));
        assert!(!c.lookup(1, 42).unwrap().line_valid(1));
        assert!(c.lookup(2, 42).unwrap().line_valid(1));
    }

    #[test]
    fn clear_all_empties() {
        let mut c = ProcCache::new();
        c.ensure(0, 1);
        c.ensure(1, 2);
        c.clear_all();
        assert_eq!(c.resident(), 0);
        assert!(c.lookup(0, 1).is_none());
        // pages_ever is monotone.
        assert_eq!(c.pages_ever(), 2);
    }

    #[test]
    fn clear_homes_is_selective() {
        let mut c = ProcCache::new();
        c.ensure(1, 10);
        c.ensure(2, 20);
        c.ensure(3, 30);
        c.clear_homes([1, 3].into_iter().collect());
        assert!(c.lookup(1, 10).is_none());
        assert!(c.lookup(2, 20).is_some());
        assert!(c.lookup(3, 30).is_none());
        assert_eq!(c.resident(), 1);
        // Either side of the bitset's first word boundary.
        c.ensure(63, 40);
        c.ensure(64, 50);
        c.clear_homes([64].into_iter().collect());
        assert!(c.lookup(63, 40).is_some());
        assert!(c.lookup(64, 50).is_none());
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn invalidate_lines_clears_only_mask() {
        let mut c = ProcCache::new();
        let cp = c.ensure(4, 9);
        cp.set_line(0);
        cp.set_line(1);
        cp.set_line(2);
        assert!(c.invalidate_lines(4, 9, 0b010));
        let cp = c.lookup(4, 9).unwrap();
        assert!(cp.line_valid(0));
        assert!(!cp.line_valid(1));
        assert!(cp.line_valid(2));
        // Spurious invalidation of an uncached page reports false.
        assert!(!c.invalidate_lines(4, 99, u32::MAX));
    }

    #[test]
    fn mark_all_sets_epoch_bits() {
        let mut c = ProcCache::new();
        c.ensure(0, 1);
        c.ensure(5, 2);
        c.mark_all();
        assert!(c.lookup(0, 1).unwrap().marked);
        assert!(c.lookup(5, 2).unwrap().marked);
    }

    #[test]
    fn ensure_counts_one_lookup_insert_or_not() {
        let mut c = ProcCache::new();
        let cp = c.ensure(3, 7);
        cp.set_line(2);
        assert_eq!(c.lookups(), 1, "install path probes once");
        assert_eq!(c.pages_ever(), 1);
        assert!(c.ensure(3, 7).line_valid(2), "found, not re-inserted");
        assert_eq!(c.lookups(), 2);
        assert_eq!(c.pages_ever(), 1);
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn peek_is_uncounted_and_readonly() {
        let mut c = ProcCache::new();
        c.ensure(1, 9).set_line(0);
        let (lk, pr) = (c.lookups(), c.probes());
        assert!(c.peek(1, 9).unwrap().line_valid(0));
        assert!(c.peek(1, 10).is_none());
        assert_eq!((c.lookups(), c.probes()), (lk, pr), "peek left counters");
    }

    /// The last line of a page is bit 31 of the valid mask — the u32's
    /// sign bit, the classic shift-arithmetic trap. Setting, testing, and
    /// clearing it must not disturb its neighbors.
    #[test]
    fn line_31_uses_the_sign_bit_safely() {
        let mut c = ProcCache::new();
        let cp = c.ensure(1, 0);
        cp.set_line(31);
        cp.set_line(30);
        assert_eq!(cp.valid, (1u32 << 31) | (1u32 << 30));
        assert!(cp.line_valid(31));
        assert!(cp.line_valid(30));
        assert!(!cp.line_valid(0));
        assert!(c.invalidate_lines(1, 0, 1u32 << 31));
        let cp = c.lookup(1, 0).unwrap();
        assert!(!cp.line_valid(31), "line 31 cleared");
        assert!(cp.line_valid(30), "line 30 untouched");
        // All 32 lines valid is exactly a full mask.
        let cp = c.ensure(1, 1);
        for l in 0..LINES_PER_PAGE {
            cp.set_line(l as LineInPage);
        }
        assert_eq!(cp.valid, u32::MAX);
    }

    /// A deref one word past word 255 lands on a *different page's* line
    /// 0, never on the same page's (nonexistent) line 32: the descriptors
    /// are distinct and each tracks its own valid bits.
    #[test]
    fn page_straddling_words_map_to_distinct_descriptors() {
        use olden_gptr::geometry::{line_in_page_of_word, page_of_word};
        let (last, first) = (255u64, 256u64); // last word of page 0, first of page 1
        assert_eq!(
            (page_of_word(last), line_in_page_of_word(last)),
            (0, 31),
            "word 255 is page 0's last line"
        );
        assert_eq!(
            (page_of_word(first), line_in_page_of_word(first)),
            (1, 0),
            "word 256 starts page 1"
        );
        let mut c = ProcCache::new();
        c.ensure(2, page_of_word(last))
            .set_line(line_in_page_of_word(last));
        c.ensure(2, page_of_word(first))
            .set_line(line_in_page_of_word(first));
        assert_eq!(c.pages_ever(), 2, "straddle allocated two descriptors");
        assert!(c.lookup(2, 0).unwrap().line_valid(31));
        assert!(!c.lookup(2, 0).unwrap().line_valid(0));
        assert!(c.lookup(2, 1).unwrap().line_valid(0));
        assert!(!c.lookup(2, 1).unwrap().line_valid(31));
    }

    /// With more pages than buckets, some chain must hold several
    /// descriptors (pigeonhole). `ensure` walks the full chain before
    /// concluding find-vs-insert: every page keeps its own identity, no
    /// page is ever re-inserted, and the probe counters reflect the walk.
    #[test]
    fn ensure_disambiguates_hash_collisions() {
        let mut c = ProcCache::new();
        let n = HASH_BUCKETS as u64 + 512;
        for p in 0..n {
            c.ensure(1, p).set_line((p % 32) as LineInPage);
        }
        assert_eq!(c.pages_ever(), n);
        assert_eq!(c.resident(), n as usize);
        assert_eq!(c.lookups(), n);
        // Second pass: all finds, no inserts, bits where we left them.
        for p in 0..n {
            let cp = c.ensure(1, p);
            assert_eq!(cp.page, p);
            assert!(cp.line_valid((p % 32) as LineInPage), "page {p}");
            assert!(!cp.line_valid(((p + 1) % 32) as LineInPage), "page {p}");
        }
        assert_eq!(c.pages_ever(), n, "ensure never re-inserts a resident page");
        assert_eq!(c.resident(), n as usize);
        assert_eq!(c.lookups(), 2 * n);
        // A found entry at chain position i costs i+1 probes, so the find
        // pass alone contributes ≥ n — and strictly more than n exactly
        // when some chain held several descriptors, which the pigeonhole
        // guarantees here.
        assert!(
            c.probes() > c.lookups(),
            "with {n} pages in {HASH_BUCKETS} buckets some ensure walked a chain \
             ({} probes over {} lookups)",
            c.probes(),
            c.lookups()
        );
    }

    /// `ensure` right after `clear_all` re-inserts: resident count comes
    /// back, `pages_ever` keeps counting, and the new descriptor is
    /// pristine (no stale valid bits, no stale mark).
    #[test]
    fn ensure_after_clear_reinserts_pristine() {
        let mut c = ProcCache::new();
        let cp = c.ensure(3, 5);
        cp.set_line(4);
        cp.marked = true;
        cp.validated_ts = 9;
        c.clear_all();
        let cp = c.ensure(3, 5);
        assert_eq!(cp.valid, 0, "fresh descriptor has no valid lines");
        assert!(!cp.marked);
        assert_eq!(cp.validated_ts, 0);
        assert_eq!(c.pages_ever(), 2, "monotone across the clear");
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn chain_length_near_one_for_scattered_pages() {
        let mut c = ProcCache::new();
        for p in 0..500u64 {
            c.ensure((p % 32) as ProcId, p);
        }
        for p in 0..500u64 {
            assert!(c.lookup((p % 32) as ProcId, p).is_some());
        }
        // ≈1 probe per lookup with 500 pages in 1024 buckets.
        assert!(
            c.mean_chain_length() < 1.6,
            "chain length {}",
            c.mean_chain_length()
        );
    }

    /// The table without the occupied-bucket index: every whole-cache
    /// operation walks all `HASH_BUCKETS` chains. Counted the same way.
    #[derive(Default)]
    struct AllBuckets {
        buckets: Vec<Vec<CachedPage>>,
        pages_ever: u64,
        resident: usize,
        probes: u64,
        lookups: u64,
    }

    impl AllBuckets {
        fn new() -> AllBuckets {
            AllBuckets {
                buckets: vec![Vec::new(); HASH_BUCKETS],
                ..AllBuckets::default()
            }
        }

        fn find(&mut self, home: ProcId, page: PageNum, insert: bool) -> Option<&mut CachedPage> {
            self.lookups += 1;
            let chain = &mut self.buckets[bucket_of(home, page)];
            match chain
                .iter()
                .position(|cp| cp.home == home && cp.page == page)
            {
                Some(i) => {
                    self.probes += (i + 1) as u64;
                    Some(&mut chain[i])
                }
                None => {
                    self.probes += chain.len() as u64;
                    if !insert {
                        return None;
                    }
                    self.pages_ever += 1;
                    self.resident += 1;
                    chain.push(CachedPage {
                        home,
                        page,
                        valid: 0,
                        marked: false,
                        validated_ts: 0,
                    });
                    chain.last_mut()
                }
            }
        }

        fn clear_all(&mut self) {
            for b in &mut self.buckets {
                b.clear();
            }
            self.resident = 0;
        }

        fn clear_homes(&mut self, homes: &[ProcId]) {
            for b in &mut self.buckets {
                let before = b.len();
                b.retain(|cp| !homes.contains(&cp.home));
                self.resident -= before - b.len();
            }
        }

        fn mark_all(&mut self) {
            for cp in self.buckets.iter_mut().flatten() {
                cp.marked = true;
            }
        }
    }

    type Desc = (ProcId, PageNum, u32, bool, u64);

    fn desc(cp: &CachedPage) -> Desc {
        (cp.home, cp.page, cp.valid, cp.marked, cp.validated_ts)
    }

    fn assert_same(c: &ProcCache, r: &AllBuckets, step: usize) {
        assert_eq!(
            (c.lookups, c.probes, c.resident, c.pages_ever),
            (r.lookups, r.probes, r.resident, r.pages_ever),
            "counters after op {step}"
        );
        for (b, (ours, theirs)) in c.buckets.iter().zip(&r.buckets).enumerate() {
            assert!(
                ours.iter().map(desc).eq(theirs.iter().map(desc)),
                "bucket {b} after op {step}: {ours:?} vs {theirs:?}"
            );
        }
        let mut index: Vec<usize> = c.occupied.iter().map(|&b| b as usize).collect();
        index.sort_unstable();
        let non_empty: Vec<usize> = (0..HASH_BUCKETS)
            .filter(|&b| !c.buckets[b].is_empty())
            .collect();
        assert_eq!(
            index, non_empty,
            "index lists each non-empty bucket once, after op {step}"
        );
    }

    /// Seeded random operation sequences over more pages than buckets on
    /// a few homes, so chains collide: the indexed table must agree with
    /// the all-bucket one on every counter and every descriptor, in chain
    /// order, after every operation.
    #[test]
    fn occupied_index_matches_an_all_bucket_walk() {
        use olden_rng::SplitMix64;
        const HOMES: u64 = 3;
        let pages = HASH_BUCKETS as u64 + 512;
        for seed in 0..3 {
            let mut rng = SplitMix64::new(seed);
            let (mut c, mut r) = (ProcCache::new(), AllBuckets::new());
            let mut collided = false;
            for step in 0..3000 {
                let home = rng.below(HOMES) as ProcId;
                let page = rng.below(pages);
                let line = rng.below(LINES_PER_PAGE as u64) as LineInPage;
                // Per mille, so whole-cache operations are rare enough for
                // hundreds of pages to pile up between them.
                match rng.below(1000) {
                    0..=449 => {
                        let ts = rng.below(8);
                        c.install_line(home, page, line, ts);
                        let cp = r.find(home, page, true).unwrap();
                        cp.set_line(line);
                        cp.validated_ts = cp.validated_ts.max(ts);
                    }
                    450..=549 => {
                        let ours = desc(c.ensure(home, page));
                        let theirs = desc(r.find(home, page, true).unwrap());
                        assert_eq!(ours, theirs, "ensure at op {step}");
                    }
                    550..=749 => {
                        // A hit settles the page the way a revalidation does.
                        let ours = c.lookup(home, page).map(|cp| {
                            cp.marked = false;
                            desc(cp)
                        });
                        let theirs = r.find(home, page, false).map(|cp| {
                            cp.marked = false;
                            desc(cp)
                        });
                        assert_eq!(ours, theirs, "lookup at op {step}");
                    }
                    750..=829 => {
                        let theirs = r.buckets[bucket_of(home, page)]
                            .iter()
                            .find(|cp| cp.home == home && cp.page == page)
                            .map(desc);
                        assert_eq!(c.peek(home, page).map(desc), theirs, "peek at op {step}");
                    }
                    830..=979 => {
                        let mask = rng.next_u64() as u32;
                        let cp = r.buckets[bucket_of(home, page)]
                            .iter_mut()
                            .find(|cp| cp.home == home && cp.page == page);
                        let theirs = cp.map(|cp| cp.clear_lines(mask)).is_some();
                        assert_eq!(c.invalidate_lines(home, page, mask), theirs);
                    }
                    980..=989 => {
                        c.mark_all();
                        r.mark_all();
                    }
                    990..=996 => {
                        let homes: Vec<ProcId> =
                            (0..HOMES as ProcId).filter(|_| rng.chance(0.5)).collect();
                        c.clear_homes(homes.iter().copied().collect());
                        r.clear_homes(&homes);
                    }
                    _ => {
                        c.clear_all();
                        r.clear_all();
                    }
                }
                assert_same(&c, &r, step);
                collided |= c.occupied.len() < c.resident();
            }
            assert!(
                c.pages_ever() > HASH_BUCKETS as u64 && collided,
                "seed {seed} inserted more pages than buckets and shared a chain"
            );
        }
    }
}
