//! Envelope framing and receiver-side exactly-once state, shared by
//! every transport.
//!
//! A logical message travels as an [`Envelope`]: the data-plane
//! [`Request`] stamped with its sender's identity
//! and a per-sender sequence number. The fault layer may transmit one
//! logical message several times (a retry after a drop, or an injected
//! duplicate); every copy carries the *same* `(src, seq)`, which is what
//! lets the receiving worker service each logical message exactly once —
//! whether the copies arrive on an in-process mailbox or a TCP socket.
//!
//! [`Dedup`] is the receiver half of that contract, extracted here so the
//! mailbox worker and the socket worker run the identical filter and so
//! the edge cases (duplicate-after-suppress, interleaved senders,
//! sequence numbers at the top of the `u64` range) pin under unit tests
//! instead of hiding inside a service loop.

use crate::msg::Request;
use std::collections::HashMap;

/// Sender id stamped on control-plane envelopes (shutdown), which carry
/// no client sequence numbers and bypass receiver-side dedupe.
pub const CONTROL_SRC: u64 = u64::MAX;

/// What actually travels on a transport: a [`Request`] stamped with its
/// sender's identity and a per-sender sequence number.
///
/// `Clone` exists for exactly one purpose — the fault layer's duplicate
/// copies; a suppressed copy is simply discarded by the receiver.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Sending client's id ([`CONTROL_SRC`] for control messages).
    pub src: u64,
    /// Per-sender logical sequence number, starting at 1; retries and
    /// duplicates of one logical message share it.
    pub seq: u64,
    pub req: Request,
}

/// Receiver-side exactly-once state: the highest sequence number yet
/// serviced from each sender.
///
/// Sound as a dedupe filter because a client numbers its logical
/// messages in the order it sends them, posted or not, and the path from
/// a client to a worker is FIFO, so its primaries arrive in increasing
/// `seq` order and anything at or below the high-water mark is a copy of
/// an already-serviced message. The filter is therefore
/// independent of *how many* copies the fault layer transmits (retry
/// attempt counts never appear on the wire) and of how late a delayed
/// duplicate straggles in.
#[derive(Debug, Default)]
pub struct Dedup {
    seen: HashMap<u64, u64>,
}

impl Dedup {
    pub fn new() -> Dedup {
        Dedup::default()
    }

    /// Admit or suppress one arrival. Returns `true` when the envelope
    /// is a not-yet-serviced primary (and records it as serviced),
    /// `false` when it is a copy of an already-serviced message.
    /// Control-plane envelopes ([`CONTROL_SRC`]) always pass.
    pub fn admit(&mut self, src: u64, seq: u64) -> bool {
        if src == CONTROL_SRC {
            return true;
        }
        let high = self.seen.entry(src).or_insert(0);
        if seq <= *high {
            false
        } else {
            *high = seq;
            true
        }
    }

    /// Senders seen so far (diagnostics).
    pub fn senders(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Primaries in order are admitted; every extra copy of a serviced
    /// sequence number is suppressed no matter how many attempts the
    /// retry loop transmitted it under.
    #[test]
    fn copies_of_a_serviced_message_are_suppressed() {
        let mut d = Dedup::new();
        assert!(d.admit(7, 1));
        for _attempt in 0..100 {
            assert!(!d.admit(7, 1), "every late copy is a duplicate");
        }
        assert!(d.admit(7, 2));
        assert!(!d.admit(7, 1), "stale seq stays suppressed after progress");
    }

    /// A delayed duplicate arriving *after* later primaries were already
    /// serviced (the duplicate-after-suppress shape: its immediate twin
    /// was suppressed long ago) is still recognized as a copy.
    #[test]
    fn delayed_duplicate_after_suppress_is_still_a_copy() {
        let mut d = Dedup::new();
        assert!(d.admit(3, 1));
        assert!(!d.admit(3, 1)); // immediate duplicate: suppressed
        assert!(d.admit(3, 2));
        assert!(d.admit(3, 3));
        assert!(!d.admit(3, 1), "the delayed copy straggles in last");
        assert!(!d.admit(3, 2), "so does a delayed copy of a later seq");
    }

    /// High-water marks are per sender: interleaved senders never alias
    /// each other's sequence spaces.
    #[test]
    fn interleaved_senders_have_independent_high_water() {
        let mut d = Dedup::new();
        assert!(d.admit(1, 1));
        assert!(d.admit(2, 1), "same seq, different sender");
        assert!(d.admit(1, 2));
        assert!(!d.admit(2, 1), "sender 2's own duplicate");
        assert!(d.admit(2, 2));
        assert!(!d.admit(1, 1));
        assert_eq!(d.senders(), 2);
    }

    /// Sequence numbers at the very top of the `u64` range (the
    /// wraparound frontier: one step from overflowing the attempt
    /// space) still order correctly — the filter compares magnitudes,
    /// it never does modular arithmetic.
    #[test]
    fn dedup_near_the_top_of_the_sequence_space() {
        let mut d = Dedup::new();
        assert!(d.admit(9, u64::MAX - 2));
        assert!(d.admit(9, u64::MAX - 1));
        assert!(!d.admit(9, u64::MAX - 2));
        assert!(d.admit(9, u64::MAX));
        assert!(!d.admit(9, u64::MAX - 1));
        assert!(!d.admit(9, u64::MAX));
    }

    /// Control-plane envelopes carry no client sequence space and always
    /// pass, without polluting any sender's high-water mark.
    #[test]
    fn control_envelopes_bypass_dedup() {
        let mut d = Dedup::new();
        assert!(d.admit(CONTROL_SRC, 0));
        assert!(d.admit(CONTROL_SRC, 0), "control is never deduped");
        assert_eq!(d.senders(), 0, "control leaves no per-sender state");
    }
}
