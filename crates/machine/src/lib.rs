//! Simulated distributed-memory machine for the Olden reproduction.
//!
//! The paper's prototype ran on a Thinking Machines CM-5; its claims are
//! about *relative* communication costs (a thread migration costs about
//! seven times a remote cache-line fetch, §4 footnote 3) and the shape of
//! the resulting speedup curves. This crate replaces the CM-5 with a
//! deterministic cost-model simulator in two phases:
//!
//! 1. **Trace recording** ([`trace`]): while a benchmark executes
//!    (sequentially, with exact values), the runtime records *segments* —
//!    stretches of computation bound to one processor with an accumulated
//!    cycle cost — and *edges* between them: program order, thread
//!    migrations, procedure-return migrations, future steals, and touch
//!    joins.
//! 2. **Schedule replay** ([`sched`]): a deterministic Graham list
//!    scheduler executes the recorded DAG under the constraint that each
//!    processor runs one segment at a time, yielding the parallel makespan.
//!    `speedup(P) = T_seq / makespan(P)` where `T_seq` is the same
//!    algorithm costed under the no-overhead sequential model (matching the
//!    paper's "true sequential implementation" baseline, so one-processor
//!    speedups land below 1 exactly as in Table 2).
//!
//! Costs are expressed in abstract cycles; [`cost::CostModel`] holds the
//! CM-5-flavoured defaults and the sequential baseline variant.

pub mod clocks;
pub mod cost;
pub mod sched;
pub mod trace;

pub use clocks::VClock;
pub use cost::CostModel;
pub use sched::{Schedule, ScheduleError};
pub use trace::{EdgeKind, FaultEvent, FaultLog, FaultTag, SegId, Segment, Trace};
