//! The byte codec every message type shares: a [`Wire`] impl per field
//! type, the checked decode cursor, and [`encode`]/[`decode`] for whole
//! frame payloads.
//!
//! All integers are little-endian and fixed-width, so a field's width
//! follows from its Rust type (`usize` goes out as `u64`). Sequences
//! carry an element count first, at a width fixed per sequence type.
//! Enums are a one-byte tag, then the variant's fields: the message enums
//! of [`msg`](crate::msg) get their tags and codecs from that module's
//! tables. There is no versioning and no self-description: both
//! endpoints are always built from the same source tree, so a decode
//! error is a bug or a corrupted stream, never a compatibility case.

use crate::msg::{Envelope, WorkerReport};
use olden_cache::CacheStats;
use olden_gptr::{GPtr, PageNum, ProcId, Word};
use olden_obs::{Event, EventKind, Lane, Phase};
use olden_runtime::{RaceViolation, VClock};

/// A type with a byte encoding. `get` consumes exactly the bytes `put`
/// appended, and rejects any byte string `put` cannot produce. The
/// decoders a message nests are `#[inline]`, so decoding one compiles to
/// one function.
pub trait Wire: Sized {
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut Reader) -> Result<Self, String>;
}

/// Encode one value as a frame payload.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut w = Vec::new();
    v.put(&mut w);
    w
}

/// Decode a whole frame payload as one value; trailing bytes are an
/// error, as the two endpoints then disagree about the format.
pub fn decode<T: Wire>(buf: &[u8]) -> Result<T, String> {
    let mut r = Reader { buf, pos: 0 };
    let v = T::get(&mut r)?;
    match buf.len() - r.pos {
        0 => Ok(v),
        n => Err(format!("{n} trailing bytes after a complete message")),
    }
}

/// Checked decode cursor: every read is bounds-checked.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("frame truncated at byte {} (wanted {n} more)", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

/// The decoded index `v`, if it is below `limit`: a `line` field indexes
/// a page's lines and a `word` field a line's words, and an index past
/// the end would address the next page or line.
pub(crate) fn in_range(v: u8, limit: usize, what: &str) -> Result<u8, String> {
    if (v as usize) < limit {
        Ok(v)
    } else {
        Err(format!("{what} index {v} out of range (limit {limit})"))
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader) -> Result<Self, String> {
                let bytes = r.take(size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns the width asked")))
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64);

/// Sequences: the element count at the given width, then each element.
macro_rules! wire_seq {
    ($($t:ty => $count:ty),*) => {$(
        impl Wire for Vec<$t> {
            fn put(&self, w: &mut Vec<u8>) {
                (self.len() as $count).put(w);
                self.iter().for_each(|x| x.put(w));
            }
            #[inline]
            fn get(r: &mut Reader) -> Result<Self, String> {
                let n = <$count as Wire>::get(r)? as usize;
                // Every element takes at least a byte: a corrupted count
                // cannot reserve more than the frame's remaining length.
                let mut out = Vec::with_capacity(n.min(r.buf.len() - r.pos));
                for _ in 0..n {
                    out.push(Wire::get(r)?);
                }
                Ok(out)
            }
        }
    )*};
}
wire_seq!(ProcId => u16, PageNum => u32, RaceViolation => u32, Event => u32);

/// Structs: each field in the order listed.
macro_rules! wire_struct {
    ($($t:ty { $($f:ident),* })*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut Vec<u8>) {
                $(self.$f.put(w);)*
            }
            #[inline]
            fn get(r: &mut Reader) -> Result<Self, String> {
                Ok(Self { $($f: Wire::get(r)?),* })
            }
        }
    )*};
}
wire_struct! {
    Envelope { src, seq, req }
    CacheStats {
        cacheable_reads, cacheable_writes, remote_reads, remote_writes, hits, misses,
        revalidations, invalidations_sent, invalidations_spurious, write_track_cycles,
        checks_performed, checks_elided
    }
    WorkerReport {
        cache, pages_ever, words_allocated, served, deliveries, dupes_suppressed, races, lane
    }
    RaceViolation { line, write, prev_write }
    Event { kind, phase, proc, ts, arg }
}

/// Tuples: each element in order.
macro_rules! wire_tuple {
    ($($t:ident $v:ident),*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            fn put(&self, w: &mut Vec<u8>) {
                let ($($v,)*) = self;
                $($v.put(w);)*
            }
            fn get(r: &mut Reader) -> Result<Self, String> {
                Ok(($($t::get(r)?,)*))
            }
        }
    };
}
wire_tuple!(A a, B b);
wire_tuple!(A a, B b, C c);

impl Wire for bool {
    fn put(&self, w: &mut Vec<u8>) {
        w.push(*self as u8);
    }
    #[inline]
    fn get(r: &mut Reader) -> Result<Self, String> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }
}

impl Wire for usize {
    fn put(&self, w: &mut Vec<u8>) {
        (*self as u64).put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        Ok(u64::get(r)? as usize)
    }
}

impl Wire for Word {
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
    }
    #[inline]
    fn get(r: &mut Reader) -> Result<Self, String> {
        u64::get(r).map(Word)
    }
}

impl Wire for GPtr {
    fn put(&self, w: &mut Vec<u8>) {
        self.bits().put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        u64::get(r).map(GPtr::from_bits)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Vec<u8>) {
        match self {
            None => w.push(0),
            Some(v) => {
                w.push(1);
                v.put(w);
            }
        }
    }
    #[inline]
    fn get(r: &mut Reader) -> Result<Self, String> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            b => Err(format!("bad Option tag {b}")),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Vec<u8>) {
        (**self).put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        T::get(r).map(Box::new)
    }
}

/// Fixed-length arrays (a cache line's words, a lane's per-kind counts)
/// carry no count.
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn put(&self, w: &mut Vec<u8>) {
        self.iter().for_each(|x| x.put(w));
    }
    #[inline]
    fn get(r: &mut Reader) -> Result<Self, String> {
        let mut out = [T::default(); N];
        for x in &mut out {
            *x = T::get(r)?;
        }
        Ok(out)
    }
}

impl Wire for String {
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u16).put(w);
        w.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        let n = u16::get(r)? as usize;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|e| e.to_string())
    }
}

impl Wire for VClock {
    fn put(&self, w: &mut Vec<u8>) {
        let comps = self.components();
        (comps.len() as u16).put(w);
        comps.iter().for_each(|c| c.put(w));
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        let n = u16::get(r)?;
        let comps: Result<_, _> = (0..n).map(|_| u64::get(r)).collect();
        comps.map(VClock::from_components)
    }
}

impl Wire for EventKind {
    fn put(&self, w: &mut Vec<u8>) {
        (self.index() as u8).put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        let i = u8::get(r)?;
        EventKind::ALL
            .get(i as usize)
            .copied()
            .ok_or_else(|| format!("bad EventKind index {i}"))
    }
}

const PHASES: [Phase; 3] = [Phase::Begin, Phase::End, Phase::Instant];

impl Wire for Phase {
    fn put(&self, w: &mut Vec<u8>) {
        w.push(
            PHASES
                .iter()
                .position(|p| p == self)
                .expect("every phase is listed") as u8,
        );
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        let b = u8::get(r)?;
        PHASES
            .get(b as usize)
            .copied()
            .ok_or_else(|| format!("bad Phase tag {b}"))
    }
}

impl Wire for Lane {
    fn put(&self, w: &mut Vec<u8>) {
        self.label.put(w);
        self.nanos.put(w);
        self.dropped.put(w);
        EventKind::ALL.map(|k| self.count(k)).put(w);
        self.events.put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        let label = Wire::get(r)?;
        let nanos = Wire::get(r)?;
        let dropped = Wire::get(r)?;
        let counts = Wire::get(r)?;
        let events = Wire::get(r)?;
        Ok(Lane::from_parts(label, nanos, events, dropped, counts))
    }
}
