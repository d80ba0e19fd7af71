//! The Olden runtime: distributed heap, computation migration, software
//! caching, and futures with lazy task creation.
//!
//! This crate is the programmer-facing layer of the reproduction. A
//! benchmark is an ordinary Rust function over a [`Backend`], such as the
//! simulator's [`OldenCtx`]; it allocates structures in the distributed
//! heap with [`Backend::alloc`] (naming the owning processor, exactly like
//! Olden's `ALLOC`), dereferences global pointers with an explicit
//! [`Mechanism`] (the choice the Olden compiler's heuristic makes per
//! program point), and expresses parallelism with
//! [`Backend::future_call`] / [`Backend::touch`].
//!
//! Execution is *sequential and exact* — every value a benchmark computes
//! is the real value, verified against plain serial references — while the
//! context records a timing trace (segments bound to processors, migration
//! and steal edges, touch joins) that `olden-machine`'s list scheduler
//! replays to produce the parallel makespan. See DESIGN.md §5 for the full
//! model.

pub mod backend;
pub mod config;
pub mod ctx;
mod heap;
pub mod interp;
pub mod report;
pub mod sanitize;
pub mod thread;

pub use backend::Backend;
pub use config::{Check, Config, Mechanism};
pub use ctx::{FutureHandle, OldenCtx};
pub use interp::{run_ir, RunOutcome, Value, DEFAULT_FUEL};
pub use olden_cache::{Access, CacheStats, Protocol};
pub use olden_gptr::{GPtr, ProcId, Word};
pub use olden_machine::{CostModel, EdgeKind, FaultEvent, FaultLog, FaultTag, VClock};
pub use olden_obs::{
    EventKind, Histogram, Lane, MetricsRegistry, Phase, Recorder, Recording, Site,
};
pub use report::{run, speedup_curve, RunReport, RunStats, TransportStats};
pub use sanitize::{LineKey, LineSanitizer, RaceViolation};
