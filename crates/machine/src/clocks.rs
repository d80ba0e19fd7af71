//! Vector clocks over execution traces: the happens-before half of
//! `olden-racecheck`.
//!
//! The release-consistency contract of Appendix A induces a
//! happens-before order on trace segments: every [`crate::trace::Edge`]
//! (program order, migration send→receipt, return stub, steal, touch
//! join) orders its endpoints, and happens-before is the transitive
//! closure. A [`VClock`] has one component per processor; the clock of a
//! segment is the component-wise join of its predecessors' clocks,
//! bumped on the segment's own processor:
//!
//! ```text
//! clock(seg) = join(clock(pred) for every edge pred → seg) ⊔ bump(seg.proc)
//! ```
//!
//! Two segments `a`, `b` are **HB-ordered** iff `clock(a) ≤ clock(b)` or
//! vice versa. The implication holds in one direction only: a path of
//! edges forces `≤`, but two unordered segments that happen to run on the
//! same processor can receive comparable clocks (each processor has a
//! single counter). The approximation is therefore conservative *toward*
//! happens-before: the dynamic sanitizer built on it never reports a
//! spurious race, which is exactly the direction the static-superset
//! cross-validation needs.

use olden_gptr::ProcId;

/// A vector clock: one monotone counter per processor. Missing
/// components are zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock {
    comps: Vec<u64>,
}

impl VClock {
    pub fn new() -> VClock {
        VClock::default()
    }

    /// Component for processor `p`.
    #[inline]
    pub fn get(&self, p: ProcId) -> u64 {
        self.comps.get(p as usize).copied().unwrap_or(0)
    }

    fn set(&mut self, p: ProcId, v: u64) {
        let i = p as usize;
        if self.comps.len() <= i {
            self.comps.resize(i + 1, 0);
        }
        self.comps[i] = v;
    }

    /// Advance processor `p`'s component past `counter`'s current value
    /// and return the new per-processor tick. Callers thread one counter
    /// per processor (the simulator's `OldenCtx`).
    pub fn bump(&mut self, p: ProcId, counter: &mut u64) {
        *counter += 1;
        self.set(p, *counter);
    }

    /// Set processor `p`'s component to `tick`, which must not move it
    /// backwards. Clients of the thread backend draw ticks from shared
    /// per-processor counters instead of threading a `&mut u64` through
    /// [`VClock::bump`].
    pub fn advance(&mut self, p: ProcId, tick: u64) {
        debug_assert!(tick >= self.get(p), "clocks are monotone");
        self.set(p, tick);
    }

    /// The raw component vector (for wire serialization); missing
    /// trailing components are zero.
    pub fn components(&self) -> &[u64] {
        &self.comps
    }

    /// Rebuild a clock from its raw components (the inverse of
    /// [`VClock::components`], used by the network backend's
    /// deserializer).
    pub fn from_components(comps: Vec<u64>) -> VClock {
        VClock { comps }
    }

    /// Component-wise maximum (the join of two histories).
    pub fn join(&mut self, other: &VClock) {
        if other.comps.len() > self.comps.len() {
            self.comps.resize(other.comps.len(), 0);
        }
        for (i, &v) in other.comps.iter().enumerate() {
            if v > self.comps[i] {
                self.comps[i] = v;
            }
        }
    }

    /// True if every component of `self` is ≤ the matching component of
    /// `other`: all events `self` has seen, `other` has seen too.
    pub fn leq(&self, other: &VClock) -> bool {
        self.comps
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.comps.get(i).copied().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_basics() {
        let mut a = VClock::new();
        let mut n0 = 0u64;
        let mut n1 = 0u64;
        a.bump(0, &mut n0);
        assert_eq!(a.get(0), 1);
        assert_eq!(a.get(7), 0);
        let mut b = VClock::new();
        b.bump(1, &mut n1);
        assert!(!a.leq(&b));
        assert!(!b.leq(&a));
        b.join(&a);
        assert!(a.leq(&b));
        assert_eq!(b.get(0), 1);
        assert_eq!(b.get(1), 1);
    }
}
