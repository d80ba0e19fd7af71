//! olden-chaos: deterministic fault injection for the mailbox transport.
//!
//! The paper's runtime assumes the CM-5's reliable message layer; real
//! distributed machines drop, delay, duplicate, and reorder. This module
//! makes the exec backend's transport *loss-tolerant* and makes the
//! losses *injectable and reproducible*: a seeded [`FaultPlan`] decides
//! the fate of every transmission attempt as a pure function of the
//! message's identity, so the same seed replays the same fault schedule
//! on every run, regardless of thread interleaving.
//!
//! ### The exactly-once argument
//!
//! Every request already carries a rendezvous reply channel, so the reply
//! doubles as the acknowledgement; a request the fault layer loses is
//! simply re-sent by its waiting client (retry with exponential backoff,
//! standing in for an ack timeout). Senders stamp each *logical* message
//! with a per-client sequence number that all retries and duplicates
//! share; receivers service an envelope only if its sequence number
//! exceeds the highest yet seen from that sender — sound because a client
//! numbers its messages in the order it sends them and the path from a
//! client to a worker is FIFO, so primaries arrive in sequence order and
//! anything at or below the high-water mark can only be a copy of an
//! already-serviced message.
//! Drop + retry gives at-least-once; dedupe cuts it back to exactly-once
//! at the observation layer. Retries are bounded: a message class that
//! never gets through (see [`FaultPlan::drop_all`]) ends the run with a
//! typed [`ExecError::Starved`] naming the starved kind, never a hang.
//!
//! Delay/reorder is modelled on the duplicate path: a *delayed
//! duplicate* is held back by the sender and flushed before a later
//! send, so it arrives out of order with intervening traffic. (Delaying
//! a *primary* is indistinguishable from drop + retry under a rendezvous
//! transport, so the plan folds that case into `drop`.)

use crate::msg::MsgKind;
use olden_gptr::ProcId;
use olden_rng::{mix2, SplitMix64};
use std::fmt;

/// Logical messages sent, per [`MsgKind`]: each primary send counts once,
/// however many copies the fault layer transmits, and a request serviced
/// in place counts nothing.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MsgCounts([u64; MsgKind::ALL.len()]);

impl MsgCounts {
    pub fn add(&mut self, kind: MsgKind, n: u64) {
        self.0[kind as usize] += n;
    }

    pub fn get(&self, kind: MsgKind) -> u64 {
        self.0[kind as usize]
    }

    pub fn absorb(&mut self, other: &MsgCounts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The kinds sent at least once, in tag order.
    pub fn nonzero(&self) -> impl Iterator<Item = (MsgKind, u64)> + '_ {
        MsgKind::ALL
            .into_iter()
            .map(|k| (k, self.get(k)))
            .filter(|&(_, n)| n > 0)
    }
}

/// The fate of one transmission attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Delivered normally.
    Deliver,
    /// Lost in transit; the sender retries after backoff.
    Drop,
    /// Delivered, plus a copy: immediately (back-to-back duplicate) or
    /// held back and flushed before a later send (reordered duplicate).
    Duplicate { delayed: bool },
}

/// A deterministic, seeded fault schedule.
///
/// The verdict for an attempt is a pure function of
/// `(seed, kind, src, dst, seq, attempt)` — no global state, no clocks —
/// so fault schedules are reproducible bit-for-bit and independent of
/// thread interleaving. Probabilities are expressed per-mille in integer
/// arithmetic to keep verdicts platform-identical.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// Seed of the schedule; `seed` alone determines every verdict.
    pub seed: u64,
    /// Per-mille chance an attempt is dropped (never on the final
    /// attempt — see [`FaultPlan::verdict`]'s liveness guarantee).
    pub drop_pm: u16,
    /// Per-mille chance a delivered message is duplicated.
    pub dup_pm: u16,
    /// Of the duplicates, per-mille chance the copy is *delayed*
    /// (re-delivered out of order) rather than sent back to back.
    pub delay_pm: u16,
    /// Transmission attempts allowed per logical message before the
    /// sender gives up with [`ExecError::Starved`].
    pub max_attempts: u32,
    /// Target one message class with 100% drop — the starvation
    /// experiment: the run must fail with a typed error naming this
    /// kind, never a raw panic or a deadlock.
    pub drop_all: Option<MsgKind>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The fault-free plan: every verdict is `Deliver`, and the transport
    /// behaves (and counts) exactly as it did before chaos existed.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_pm: 0,
            dup_pm: 0,
            delay_pm: 0,
            max_attempts: 1,
            drop_all: None,
        }
    }

    /// Derive a complete schedule from one seed: drop and duplicate rates
    /// each in 1–15%, up to 70% of duplicates delayed, 12 attempts per
    /// message. This is the generator the chaos suite sweeps.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut r = SplitMix64::new(mix2(seed, 0xC4A0_5C4A_05C4_A05C));
        FaultPlan {
            seed,
            drop_pm: (10 + r.below(140)) as u16,
            dup_pm: (10 + r.below(140)) as u16,
            delay_pm: r.below(700) as u16,
            max_attempts: 12,
            drop_all: None,
        }
    }

    /// Same plan with one message class dropped at 100%.
    pub fn starving(mut self, kind: MsgKind) -> FaultPlan {
        self.drop_all = Some(kind);
        self
    }

    /// Whether this plan can never fault anything.
    pub fn is_quiet(&self) -> bool {
        self.drop_pm == 0 && self.dup_pm == 0 && self.drop_all.is_none()
    }

    /// The fate of attempt `attempt` (0-based) of logical message `seq`
    /// from client `src` to worker `dst`.
    ///
    /// Liveness guarantee: the final allowed attempt is never dropped
    /// (the network's loss rate is < 100%), so every message is
    /// eventually delivered — *except* under [`FaultPlan::drop_all`],
    /// where the targeted class is dropped unconditionally and the sender
    /// surfaces [`ExecError::Starved`] once its attempts are exhausted.
    pub fn verdict(&self, kind: MsgKind, src: u64, dst: ProcId, seq: u64, attempt: u32) -> Verdict {
        if kind == MsgKind::Shutdown {
            return Verdict::Deliver;
        }
        if self.drop_all == Some(kind) {
            return Verdict::Drop;
        }
        if self.is_quiet() {
            return Verdict::Deliver;
        }
        let mut h = mix2(self.seed, kind as u64 + 1);
        h = mix2(h, src);
        h = mix2(h, dst as u64);
        h = mix2(h, seq);
        h = mix2(h, attempt as u64);
        let mut r = SplitMix64::new(h);
        let roll = r.below(1000) as u16;
        if roll < self.drop_pm && attempt + 1 < self.max_attempts {
            Verdict::Drop
        } else if roll < self.drop_pm + self.dup_pm {
            Verdict::Duplicate {
                delayed: (r.below(1000) as u16) < self.delay_pm,
            }
        } else {
            Verdict::Deliver
        }
    }
}

/// How an execution fails, as a value rather than a raw panic.
///
/// `run_exec` panics on these for drop-in compatibility;
/// [`try_run_exec`](crate::try_run_exec) returns them so tests can
/// assert on the outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// The watchdog saw no progress for the configured stall timeout.
    /// `dump` is the per-worker / per-client state at the moment of the
    /// trip.
    Stalled { dump: String },
    /// A sender exhausted its retry budget: every one of `attempts`
    /// transmissions of message `seq` to worker `dst` was dropped. Under
    /// a [`FaultPlan`] with a liveness guarantee this can only happen
    /// when `drop_all` starves the named kind.
    Starved {
        kind: MsgKind,
        dst: ProcId,
        seq: u64,
        attempts: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Stalled { dump } => {
                write!(f, "olden-exec watchdog: run is stalled\n{dump}")
            }
            ExecError::Starved {
                kind,
                dst,
                seq,
                attempts,
            } => write!(
                f,
                "olden-exec transport: {kind} message (seq {seq}, to worker {dst}) \
                 starved after {attempts} dropped attempts"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::from_seed(7);
        let other = FaultPlan::from_seed(8);
        let mut diverged = false;
        for seq in 0..500u64 {
            let v = plan.verdict(MsgKind::CacheLookup, 0, 3, seq, 0);
            assert_eq!(
                v,
                plan.verdict(MsgKind::CacheLookup, 0, 3, seq, 0),
                "same inputs, same verdict"
            );
            if v != other.verdict(MsgKind::CacheLookup, 0, 3, seq, 0) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds yield different schedules");
    }

    #[test]
    fn from_seed_rates_are_in_range_and_all_verdicts_reachable() {
        let mut saw = (false, false, false, false); // deliver, drop, dup, delayed
        for seed in 0..50u64 {
            let p = FaultPlan::from_seed(seed);
            assert!((10..150).contains(&p.drop_pm), "drop_pm {}", p.drop_pm);
            assert!((10..150).contains(&p.dup_pm), "dup_pm {}", p.dup_pm);
            assert!(p.delay_pm < 700, "delay_pm {}", p.delay_pm);
            assert_eq!(p.max_attempts, 12);
            assert!(!p.is_quiet());
            for seq in 0..200 {
                match p.verdict(MsgKind::ReadHome, 1, 0, seq, 0) {
                    Verdict::Deliver => saw.0 = true,
                    Verdict::Drop => saw.1 = true,
                    Verdict::Duplicate { delayed: false } => saw.2 = true,
                    Verdict::Duplicate { delayed: true } => saw.3 = true,
                }
            }
        }
        assert!(saw.0 && saw.1 && saw.2 && saw.3, "verdict coverage {saw:?}");
    }

    #[test]
    fn final_attempt_is_never_dropped() {
        for seed in 0..100u64 {
            let p = FaultPlan::from_seed(seed);
            for seq in 0..200u64 {
                assert_ne!(
                    p.verdict(MsgKind::Migrate, 2, 1, seq, p.max_attempts - 1),
                    Verdict::Drop,
                    "liveness: seed {seed} seq {seq}"
                );
            }
        }
    }

    #[test]
    fn quiet_plan_always_delivers() {
        let p = FaultPlan::none();
        assert!(p.is_quiet());
        for kind in MsgKind::DATA_PLANE {
            for seq in 0..50 {
                assert_eq!(p.verdict(kind, 0, 0, seq, 0), Verdict::Deliver);
            }
        }
    }

    #[test]
    fn drop_all_starves_only_its_class_and_shutdown_is_exempt() {
        let p = FaultPlan::none().starving(MsgKind::CacheInstall);
        for attempt in 0..5 {
            assert_eq!(
                p.verdict(MsgKind::CacheInstall, 0, 1, 9, attempt),
                Verdict::Drop
            );
        }
        assert_eq!(
            p.verdict(MsgKind::CacheLookup, 0, 1, 9, 0),
            Verdict::Deliver
        );
        let chaotic = FaultPlan::from_seed(3).starving(MsgKind::Shutdown);
        assert_eq!(
            chaotic.verdict(MsgKind::Shutdown, u64::MAX, 0, 1, 0),
            Verdict::Deliver,
            "control plane is never faulted"
        );
    }

    /// `MsgCounts` indexes by discriminant and lists kinds in `ALL`
    /// order, which is `DATA_PLANE` then `Shutdown`: the three must agree.
    #[test]
    fn msg_counts_index_every_kind_by_its_discriminant() {
        for (i, kind) in MsgKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
        let mut c = MsgCounts::default();
        for (i, kind) in MsgKind::DATA_PLANE.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
            c.add(kind, i as u64 + 1);
        }
        c.add(MsgKind::Shutdown, 100);
        let listed: Vec<_> = c.nonzero().collect();
        assert_eq!(listed.len(), MsgKind::DATA_PLANE.len() + 1);
        assert_eq!(listed.last(), Some(&(MsgKind::Shutdown, 100)));
        assert_eq!(c.total(), 100 + (1..=14).sum::<u64>());
        let mut twice = c;
        twice.absorb(&c);
        assert_eq!(twice.get(MsgKind::Migrate), 2 * c.get(MsgKind::Migrate));
    }

    #[test]
    fn errors_display_their_cause() {
        let e = ExecError::Starved {
            kind: MsgKind::LineFetch,
            dst: 3,
            seq: 41,
            attempts: 12,
        };
        let s = e.to_string();
        assert!(s.contains("LineFetch") && s.contains("starved"), "{s}");
        let st = ExecError::Stalled {
            dump: "  worker 0: waiting\n".into(),
        };
        assert!(st.to_string().contains("watchdog"));
    }
}
