//! Global pointers and heap geometry for the Olden distributed heap.
//!
//! Olden views a heap address as a pair `<processor, local address>` encoded
//! in a single word (paper §2). The original system packed the pair into a
//! 32-bit SPARC word; we widen to 64 bits for a modern host but keep the
//! same operations: encode, extract-processor, extract-local, and the
//! local-versus-remote test the compiler inserts before each dereference.
//!
//! The geometry constants reproduce Figure 1 of the paper: the software
//! cache allocates at **2 KB page** granularity and transfers at **64 B
//! line** granularity, giving 32 lines per page. The heap is word-addressed
//! with 8-byte words, so a line is 8 words and a page is 256 words.

pub mod geometry;
pub mod word;

pub use geometry::{
    LineInPage, PageNum, LINES_PER_PAGE, LINE_BYTES, LINE_WORDS, PAGE_BYTES, PAGE_WORDS, WORD_BYTES,
};
pub use word::Word;

/// Identifier of a simulated processor (the `p` of `<p, l>`).
///
/// Eight bits of the pointer encoding are reserved for the processor name,
/// so configurations up to 256 processors are representable; the paper's
/// experiments use up to 32.
pub type ProcId = u8;

/// Maximum number of processors representable in a [`GPtr`].
pub const MAX_PROCS: usize = 256;

/// A set of processors, one bit per [`ProcId`] over all [`MAX_PROCS`]:
/// `Copy`, so saving and restoring one is a move, never an allocation.
/// Iteration is in ascending processor order.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ProcSet([u64; MAX_PROCS / 64]);

impl ProcSet {
    pub const EMPTY: ProcSet = ProcSet([0; MAX_PROCS / 64]);

    #[inline]
    pub fn insert(&mut self, p: ProcId) {
        self.0[p as usize / 64] |= 1 << (p % 64);
    }

    #[inline]
    pub fn contains(&self, p: ProcId) -> bool {
        self.0[p as usize / 64] & (1 << (p % 64)) != 0
    }

    #[inline]
    pub fn union(self, other: ProcSet) -> ProcSet {
        ProcSet(std::array::from_fn(|i| self.0[i] | other.0[i]))
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        *self == ProcSet::EMPTY
    }

    pub fn iter(self) -> impl Iterator<Item = ProcId> {
        (0..=ProcId::MAX).filter(move |&p| self.contains(p))
    }
}

impl FromIterator<ProcId> for ProcSet {
    fn from_iter<I: IntoIterator<Item = ProcId>>(procs: I) -> ProcSet {
        let mut set = ProcSet::EMPTY;
        procs.into_iter().for_each(|p| set.insert(p));
        set
    }
}

impl std::fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Number of bits reserved for the local word address.
pub const LOCAL_BITS: u32 = 56;

/// Mask covering the local-address field of the encoding.
pub const LOCAL_MASK: u64 = (1u64 << LOCAL_BITS) - 1;

/// A global heap pointer: `<processor, local word address>` in one word.
///
/// The local address is a *word* index into the owning processor's heap
/// section (words are 8 bytes). Word address `0` is reserved so that the
/// all-zero encoding can serve as the null pointer, exactly as C's `NULL`
/// does in the original system.
///
/// ```
/// use olden_gptr::GPtr;
/// let p = GPtr::new(3, 1024);
/// assert_eq!(p.proc(), 3);
/// assert_eq!(p.local(), 1024);
/// assert!(!p.is_null());
/// assert!(p.is_local_to(3));
/// assert!(!p.is_local_to(4));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GPtr(u64);

impl GPtr {
    /// The null pointer: all bits zero.
    pub const NULL: GPtr = GPtr(0);

    /// Encode a `<proc, local>` pair.
    ///
    /// # Panics
    /// Panics if `local` does not fit in [`LOCAL_BITS`] bits.
    #[inline]
    pub fn new(proc: ProcId, local: u64) -> GPtr {
        assert!(local <= LOCAL_MASK, "local address overflows encoding");
        GPtr(((proc as u64) << LOCAL_BITS) | local)
    }

    /// Extract the owning processor's name.
    #[inline]
    pub fn proc(self) -> ProcId {
        (self.0 >> LOCAL_BITS) as ProcId
    }

    /// Extract the local word address.
    #[inline]
    pub fn local(self) -> u64 {
        self.0 & LOCAL_MASK
    }

    /// The local-versus-remote check Olden's compiler inserts before every
    /// heap reference (paper §3.1).
    #[inline]
    pub fn is_local_to(self, proc: ProcId) -> bool {
        self.proc() == proc
    }

    /// True for the all-zero (null) encoding.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Pointer arithmetic: advance by `words` heap words on the same
    /// processor. Used for field addressing: field `k` of an object lives
    /// at `base.offset(k)`.
    #[inline]
    pub fn offset(self, words: u64) -> GPtr {
        let local = self.local() + words;
        debug_assert!(local <= LOCAL_MASK);
        GPtr(((self.0 >> LOCAL_BITS) << LOCAL_BITS) | local)
    }

    /// The raw 64-bit encoding (stored in heap words when a structure field
    /// holds a pointer).
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Rebuild a pointer from its raw encoding.
    #[inline]
    pub fn from_bits(bits: u64) -> GPtr {
        GPtr(bits)
    }

    /// Page number of the pointed-to word within its owner's heap.
    #[inline]
    pub fn page(self) -> PageNum {
        geometry::page_of_word(self.local())
    }

    /// Line index (0..32) of the pointed-to word within its page.
    #[inline]
    pub fn line_in_page(self) -> LineInPage {
        geometry::line_in_page_of_word(self.local())
    }
}

impl std::fmt::Debug for GPtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_null() {
            write!(f, "GPtr(NULL)")
        } else {
            write!(f, "GPtr<{}, {:#x}>", self.proc(), self.local())
        }
    }
}

impl std::fmt::Display for GPtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

impl Default for GPtr {
    fn default() -> Self {
        GPtr::NULL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_all_zero() {
        assert_eq!(GPtr::NULL.bits(), 0);
        assert!(GPtr::NULL.is_null());
        assert_eq!(GPtr::default(), GPtr::NULL);
    }

    #[test]
    fn encode_extract_roundtrip() {
        let p = GPtr::new(17, 0xdead_beef);
        assert_eq!(p.proc(), 17);
        assert_eq!(p.local(), 0xdead_beef);
    }

    #[test]
    fn proc_zero_nonzero_local_is_not_null() {
        let p = GPtr::new(0, 8);
        assert!(!p.is_null());
        assert_eq!(p.proc(), 0);
    }

    #[test]
    fn max_proc_and_max_local() {
        let p = GPtr::new(255, LOCAL_MASK);
        assert_eq!(p.proc(), 255);
        assert_eq!(p.local(), LOCAL_MASK);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn local_overflow_panics() {
        let _ = GPtr::new(0, LOCAL_MASK + 1);
    }

    #[test]
    fn locality_test() {
        let p = GPtr::new(5, 100);
        assert!(p.is_local_to(5));
        assert!(!p.is_local_to(0));
    }

    #[test]
    fn offset_stays_on_processor() {
        let p = GPtr::new(9, 256);
        let q = p.offset(7);
        assert_eq!(q.proc(), 9);
        assert_eq!(q.local(), 263);
    }

    #[test]
    fn bits_roundtrip() {
        let p = GPtr::new(31, 123_456);
        assert_eq!(GPtr::from_bits(p.bits()), p);
    }

    #[test]
    fn page_and_line_of_pointer() {
        // Word 300 = page 1, word 44 within the page, line 5.
        let p = GPtr::new(0, 300);
        assert_eq!(p.page(), 1);
        assert_eq!(p.line_in_page(), 5);
    }

    /// Insert, contains, union, len and ascending iteration at each side
    /// of every word boundary of the bitset.
    #[test]
    fn proc_set_at_word_boundaries() {
        let edges: [ProcId; 6] = [0, 63, 64, 127, 128, 255];
        let mut all = ProcSet::EMPTY;
        for (i, &p) in edges.iter().enumerate() {
            let mut one = ProcSet::EMPTY;
            assert!(one.is_empty() && !one.contains(p));
            one.insert(p);
            one.insert(p);
            assert_eq!(one.len(), 1, "{p}");
            assert!(one.contains(p));
            assert!(edges.iter().filter(|&&q| q != p).all(|&q| !one.contains(q)));
            assert_eq!(one.iter().collect::<Vec<_>>(), vec![p]);
            all = all.union(one);
            assert_eq!(all.len(), i + 1);
        }
        assert_eq!(all.iter().collect::<Vec<_>>(), edges);
        let evens: ProcSet = [128, 0, 64].into_iter().collect();
        let odds: ProcSet = [255, 63, 127].into_iter().collect();
        assert_eq!(evens.union(odds), all);
        assert_eq!(odds.union(evens), all);
        assert_eq!(evens.union(ProcSet::EMPTY), evens);
        assert_eq!(format!("{evens:?}"), "{0, 64, 128}");
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", GPtr::NULL), "GPtr(NULL)");
        assert_eq!(format!("{:?}", GPtr::new(2, 16)), "GPtr<2, 0x10>");
    }
}
