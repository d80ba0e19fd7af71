//! The dynamic half of `olden-racecheck`: a happens-before sanitizer
//! over cache-line accesses.
//!
//! The static pass (`olden_analysis::racecheck`) reports every *pair of
//! syntactic accesses* that release consistency might leave unordered;
//! this module is its runtime oracle. Each heap access is stamped with
//! the vector clock of the thread segment performing it
//! ([`olden_machine::VClock`]); the [`LineSanitizer`] keeps, per cache
//! line, the join of all read clocks and the join of all write clocks
//! seen so far, and flags any access not ordered after every conflicting
//! predecessor — the FastTrack check collapsed to two clocks per line.
//!
//! Feeding order: accesses must be fed in **some linearization of
//! happens-before** (if `a` happens before `b`, `a` is fed first).
//! The simulator feeds each access as it executes, which qualifies (it
//! executes depth-first and every trace edge points forward); in the
//! thread backend each line's home worker qualifies (clients only send a
//! request after all their happens-before predecessors' round trips
//! completed). Both stamp accesses with a clock maintained online, bumped
//! at every new segment.
//!
//! Because the per-processor clock bump aliases unordered same-processor
//! segments (see `olden_machine::clocks`), the sanitizer can *miss*
//! races but never invents one — the safe direction for the
//! cross-validation claim that static warnings are a superset of dynamic
//! detections.

use olden_gptr::{LineInPage, PageNum, ProcId};
use olden_machine::VClock;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A cache line named globally: (home processor, page, line-in-page).
pub type LineKey = (ProcId, PageNum, LineInPage);

/// Two accesses to one cache line, at least one a write, unordered by
/// happens-before. One violation is reported per line (the first pair
/// detected); later pairs on the same line are suppressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RaceViolation {
    /// The line both accesses touched.
    pub line: LineKey,
    /// Whether the later (detected) access was a write.
    pub write: bool,
    /// Whether the earlier conflicting access was a write.
    pub prev_write: bool,
}

impl RaceViolation {
    /// "write-write", "write-read", or "read-write" (earlier-later).
    pub fn kind(&self) -> &'static str {
        match (self.prev_write, self.write) {
            (true, true) => "write-write",
            (true, false) => "write-read",
            (false, true) => "read-write",
            (false, false) => "read-read",
        }
    }
}

impl fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (home, page, line) = self.line;
        write!(f, "{} race on line {}:{}:{}", self.kind(), home, page, line)
    }
}

#[derive(Default)]
struct LineState {
    /// Join of the clocks of every read so far.
    read: VClock,
    /// Join of the clocks of every write so far.
    write: VClock,
}

/// Per-line happens-before race detector.
///
/// A read with clock `C` requires `write ≤ C`; a write requires both
/// `write ≤ C` and `read ≤ C`. Keeping only the two joined clocks is
/// sound for detection-or-not: if any individual conflicting predecessor
/// is unordered with `C`, the join is too.
#[derive(Default)]
pub struct LineSanitizer {
    lines: HashMap<LineKey, LineState>,
    flagged: BTreeSet<LineKey>,
    violations: Vec<RaceViolation>,
}

impl LineSanitizer {
    pub fn new() -> LineSanitizer {
        LineSanitizer::default()
    }

    /// Feed one access. Calls must arrive in a linearization of
    /// happens-before (see module docs).
    pub fn access(&mut self, line: LineKey, write: bool, clock: &VClock) {
        let st = self.lines.entry(line).or_default();
        let prev_write = if !st.write.leq(clock) {
            Some(true)
        } else if write && !st.read.leq(clock) {
            Some(false)
        } else {
            None
        };
        if let Some(prev_write) = prev_write {
            if self.flagged.insert(line) {
                self.violations.push(RaceViolation {
                    line,
                    write,
                    prev_write,
                });
            }
        }
        if write {
            st.write.join(clock);
        } else {
            st.read.join(clock);
        }
    }

    /// Violations detected so far, in detection order.
    pub fn violations(&self) -> &[RaceViolation] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Config, Mechanism};
    use crate::ctx::OldenCtx;
    use crate::Backend;

    fn ctx() -> OldenCtx {
        OldenCtx::new(Config::olden(4).sanitized())
    }

    #[test]
    fn stolen_continuation_write_write_races_with_body() {
        let mut c = ctx();
        let a = c.alloc(1, 1);
        // The body migrates to proc 1 (making the continuation stealable)
        // and writes a's line; the continuation writes the same line
        // before the touch orders them.
        let h = c.future_call(move |c| c.call(move |c| c.write(a, 0, 1i64, Mechanism::Migrate)));
        assert!(h.is_parallel());
        c.write(a, 0, 2i64, Mechanism::Cache);
        c.touch(h);
        let races = c.race_violations();
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].kind(), "write-write");
        assert_eq!(races[0].line.0, 1, "line homed on proc 1");
    }

    #[test]
    fn touch_before_conflicting_write_is_clean() {
        let mut c = ctx();
        let a = c.alloc(1, 1);
        let h = c.future_call(move |c| c.call(move |c| c.write(a, 0, 1i64, Mechanism::Migrate)));
        c.touch(h); // join: everything after is ordered behind the body
        c.write(a, 0, 2i64, Mechanism::Cache);
        assert!(c.race_violations().is_empty());
    }

    #[test]
    fn sibling_futures_writing_one_line_race() {
        let mut c = ctx();
        let shared = c.alloc(2, 1);
        let b1 = c.alloc(1, 1);
        let b3 = c.alloc(3, 1);
        let mk = |probe: olden_gptr::GPtr| {
            move |c: &mut OldenCtx| {
                c.call(move |c| {
                    c.read(probe, 0, Mechanism::Migrate); // migrate away
                    c.write(shared, 0, 1i64, Mechanism::Cache);
                })
            }
        };
        let h1 = c.future_call(mk(b1));
        let h2 = c.future_call(mk(b3));
        c.touch(h1);
        c.touch(h2);
        let races = c.race_violations();
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].kind(), "write-write");
        assert_eq!(races[0].line.0, 2, "the shared cell's line");
    }

    #[test]
    fn read_only_siblings_are_clean() {
        let mut c = ctx();
        let shared = c.alloc(2, 1);
        let b1 = c.alloc(1, 1);
        let b3 = c.alloc(3, 1);
        let mk = |probe: olden_gptr::GPtr| {
            move |c: &mut OldenCtx| {
                c.call(move |c| {
                    c.read(probe, 0, Mechanism::Migrate);
                    c.read(shared, 0, Mechanism::Cache);
                })
            }
        };
        let h1 = c.future_call(mk(b1));
        let h2 = c.future_call(mk(b3));
        c.touch(h1);
        c.touch(h2);
        assert!(c.race_violations().is_empty());
    }

    #[test]
    fn body_read_vs_continuation_write_races() {
        let mut c = ctx();
        let a = c.alloc(1, 1);
        let probe = c.alloc(3, 1);
        let h = c.future_call(move |c| {
            c.call(move |c| {
                c.read(probe, 0, Mechanism::Migrate); // migrate away first
                c.read(a, 0, Mechanism::Cache); // then read the contested line
            })
        });
        c.write(a, 0, 2i64, Mechanism::Cache); // continuation writes it
        c.touch(h);
        let races = c.race_violations();
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].kind(), "read-write");
    }

    #[test]
    fn sanitizer_off_records_nothing() {
        let mut c = OldenCtx::new(Config::olden(4));
        let a = c.alloc(1, 1);
        let h = c.future_call(move |c| c.call(move |c| c.write(a, 0, 1i64, Mechanism::Migrate)));
        c.write(a, 0, 2i64, Mechanism::Cache);
        c.touch(h);
        assert!(c.race_violations().is_empty(), "no sanitizer, no findings");
    }
}
