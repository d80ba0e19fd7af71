//! Olden's software cache and its coherence protocols.
//!
//! Each processor uses its local memory as a large, fully associative,
//! write-through cache (paper §3.2, after Blizzard-S). Allocation happens
//! at page granularity (2 KB) and transfer at line granularity (64 B).
//! Because the CM-5 port could not rely on virtual-memory support, the
//! translation structure is a **1 K-bucket hash table with a list of pages
//! in each bucket** (Figure 1); chains average about one entry.
//!
//! Three coherence schemes are implemented (Appendix A), all of which
//! realize release consistency by treating a migration send as a release
//! and a migration receipt as an acquire:
//!
//! * **local knowledge** — invalidate the entire local cache on every
//!   migration receipt; on *return* migrations only pages homed on
//!   processors the returning thread wrote are dropped;
//! * **global knowledge** (eager release consistency) — writes are tracked
//!   per line, sharers per page; each migration departure pushes
//!   invalidations to sharers;
//! * **bilateral** — homes keep per-page timestamps bumped at migration
//!   departure if the page was written; receivers mark all cached pages so
//!   the first access revalidates against the home timestamp.
//!
//! ## One engine, two drivers
//!
//! The rules of the three schemes are written once, here, over the three
//! pieces of state the protocol has. None owns a thread, a channel or a
//! statistics block; each takes the [`Protocol`] and the [`CacheStats`]
//! to count into:
//!
//! * the **requester half** on [`ProcCache`] (module [`requester`]);
//! * the **home half**, [`HomeDir`]: one processor's page directory;
//! * the **write epoch**, [`WriteEpoch`]: what a thread wrote since its
//!   last release, drained into a [`Release`] verdict.
//!
//! [`CacheSystem`] composes all processors' halves plus one epoch for the
//! simulator. `olden-exec` gives each worker one `ProcCache` and one
//! `HomeDir`, each logical thread one epoch, and carries the same calls as
//! messages (threads, or TCP under `olden-net`).
//!
//! The cache stores *metadata only* (valid bits, marks, timestamps):
//! because the protocol is write-through and Olden's future semantics
//! forbid concurrent threads from interfering, the home copy is always
//! current in the simulator's serial order, so values are read from home
//! while the metadata decides hit or miss and who pays what. The
//! distributed backends keep the line payloads next to their `ProcCache`.

pub mod epoch;
pub mod home;
pub mod protocol;
pub mod requester;
pub mod stats;
pub mod table;

pub use epoch::{invalidation_targets, DirtyPage, Release, WriteEpoch};
pub use home::HomeDir;
pub use protocol::{Access, Arrival, CacheSystem, Protocol};
pub use requester::Probe;
pub use stats::CacheStats;
pub use table::{CachedPage, ProcCache, HASH_BUCKETS};
