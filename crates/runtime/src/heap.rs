//! The distributed heap: one section per processor, word-addressed.
//!
//! `ALLOC` (paper §2) "allocates memory on a specified processor, and
//! returns a pointer that encodes both the processor name and the local
//! address". Each section is a simple bump allocator over 8-byte words;
//! word 0 of every section is reserved so that the all-zero [`GPtr`]
//! encoding stays null.

use olden_gptr::{GPtr, ProcId, Word, LINE_WORDS};

/// Per-processor heap sections holding the authoritative ("home") copy of
/// every word. The software cache holds metadata only; values are always
/// read from here (see `olden-cache` crate docs).
#[derive(Clone, Debug)]
pub struct DistributedHeap {
    sections: Vec<Vec<Word>>,
}

impl DistributedHeap {
    /// A heap with `procs` empty sections.
    pub fn new(procs: usize) -> DistributedHeap {
        DistributedHeap {
            // Word 0 reserved (null); start each section one line in so
            // that an allocation never straddles address zero's line.
            sections: vec![vec![Word::ZERO; LINE_WORDS]; procs],
        }
    }

    /// Allocate `words` words on `proc`, zero-initialized.
    pub fn alloc(&mut self, proc: ProcId, words: usize) -> GPtr {
        assert!(words > 0, "zero-size allocation");
        let sec = &mut self.sections[proc as usize];
        let base = sec.len() as u64;
        sec.resize(sec.len() + words, Word::ZERO);
        GPtr::new(proc, base)
    }

    /// Read the home copy of a word.
    #[inline]
    pub fn read(&self, ptr: GPtr) -> Word {
        self.sections[ptr.proc() as usize][ptr.local() as usize]
    }

    /// Write the home copy of a word.
    #[inline]
    pub fn write(&mut self, ptr: GPtr, value: Word) {
        self.sections[ptr.proc() as usize][ptr.local() as usize] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_encodes_proc_and_address() {
        let mut h = DistributedHeap::new(4);
        let a = h.alloc(2, 3);
        assert_eq!(a.proc(), 2);
        assert_eq!(a.local(), LINE_WORDS as u64);
        let b = h.alloc(2, 5);
        assert_eq!(b.local(), LINE_WORDS as u64 + 3);
        let c = h.alloc(0, 1);
        assert_eq!(c.proc(), 0);
    }

    #[test]
    fn first_allocation_is_never_null() {
        let mut h = DistributedHeap::new(1);
        assert!(!h.alloc(0, 1).is_null());
    }

    #[test]
    fn read_write_roundtrip() {
        let mut h = DistributedHeap::new(2);
        let a = h.alloc(1, 4);
        h.write(a.offset(2), Word::from(-7i64));
        assert_eq!(h.read(a.offset(2)).as_i64(), -7);
        assert_eq!(h.read(a).as_u64(), 0, "zero-initialized");
    }

    #[test]
    fn accounting() {
        let mut h = DistributedHeap::new(2);
        h.alloc(0, 10);
        h.alloc(1, 20);
        h.alloc(1, 5);
        let words = |p: usize| h.sections[p].len() - LINE_WORDS;
        assert_eq!((words(0), words(1)), (10, 25));
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn zero_alloc_rejected() {
        DistributedHeap::new(1).alloc(0, 0);
    }
}
