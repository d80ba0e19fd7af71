//! Typed messages between logical Olden threads and the worker that owns
//! each simulated processor.
//!
//! The topology is a strict client–server star: **only logical threads
//! send requests, and only workers reply**, one [`Reply`] per serviced
//! [`Request`]. Workers service every message with purely local state
//! (their heap section and their processor's software cache) and never
//! wait on another worker, so no wait cycle can form and the system is
//! deadlock-free by construction.
//!
//! Both enums are **pure data** — no channels, no callbacks — so the
//! same protocol runs unchanged over in-process mailboxes and over the
//! network backend's length-prefixed TCP frames (`olden-net`). The reply
//! path belongs to the [`Transport`](crate::Transport): the mailbox
//! transport routes replies over per-client channels, the socket
//! transport writes them back on the connection the request arrived on.
//!
//! Two of the protocol's events never appear on a transport because they
//! are in-process by nature: *StealNotify* (a migration vacating a
//! processor wakes the continuations anchored there) and *TouchResult*
//! (a touch joining a forked body) travel through
//! [`FrameHandle`](crate::frame::FrameHandle)s shared between the
//! spawning and the body thread.

use crate::chaos::MsgKind;
use olden_cache::{Arrival, CacheStats};
use olden_gptr::{GPtr, LineInPage, PageNum, ProcId, Word, LINE_WORDS};
use olden_runtime::{RaceViolation, VClock};

pub use crate::envelope::{Envelope, CONTROL_SRC};

/// One 64-byte line's payload, as moved by a fetch reply.
pub type LineData = [Word; LINE_WORDS];

/// How a thread arrives at a processor (the acquire of the release-
/// consistency reduction): the owned, wire-going form of
/// [`olden_cache::Arrival`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Forward migration into a procedure body: under local knowledge the
    /// whole cache is invalidated.
    Call,
    /// Return-stub migration (or a touched future's value receipt);
    /// carries the processors whose memories the thread wrote, so only
    /// lines homed there are invalidated (§3.2 refinement).
    Return(Vec<ProcId>),
}

impl ArrivalKind {
    /// The borrowing view the cache's acquire rule takes.
    pub fn as_arrival(&self) -> Arrival<'_> {
        match self {
            ArrivalKind::Call => Arrival::Call,
            ArrivalKind::Return(written_homes) => Arrival::Return { written_homes },
        }
    }
}

/// Reply to a [`Request::CacheLookup`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupReply {
    /// Line valid in this worker's cache; the word read from (or, for a
    /// write, now updated in) the cached copy.
    Hit(Word),
    /// Line absent or invalid. The client performs the fetch round trip
    /// ([`Request::LineFetchReq`] to the home, then
    /// [`Request::CacheInstall`] back here); the miss has already been
    /// counted.
    Miss,
    /// The request carried a verified `elide` hint: the line was resident,
    /// so the worker answered from an *uncounted* probe — no table lookup
    /// charged, `checks_elided` bumped instead of `checks_performed`.
    ElidedHit(Word),
    /// Bilateral only: the page is epoch-marked, so the access must
    /// revalidate against the home before it can hit. Carries the cached
    /// page's last-validated timestamp; the client performs the
    /// [`Request::RevalQuery`] / [`Request::RevalApply`] round trips.
    /// Neither hit nor miss has been counted yet.
    RevalNeeded { validated_ts: u64 },
}

/// Everything a worker can be asked to do. Pure data: every variant is
/// answered by exactly one [`Reply`] variant (see [`Request::kind`] for
/// the fault-targeting class).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `ALLOC(words)` in this worker's heap section. → [`Reply::Ptr`].
    Alloc { words: usize },
    /// Read the home copy of one word. `clock` (sanitizer runs only) is
    /// the accessing segment's vector clock, fed to this line's
    /// happens-before state. → [`Reply::Word`].
    ReadHome { local: u64, clock: Option<VClock> },
    /// Write the home copy of one word (the write-through of every heap
    /// write, however its address was resolved). `track` is set for
    /// charged writes: the home runs the compiler-inserted write-tracking
    /// code of the global/bilateral schemes (dirty line timestamps, the
    /// 7-vs-23-instruction shared check). → [`Reply::Unit`].
    WriteHome {
        local: u64,
        value: Word,
        clock: Option<VClock>,
        track: bool,
    },
    /// Home side of a cache miss: ship one line of this worker's section.
    /// `requester` is the processor installing the line — under the
    /// global/bilateral schemes the home registers it as a sharer of the
    /// page and returns the page's current timestamp. `clock` is set for
    /// sanitized cache-read misses; cached writes leave it `None` (their
    /// write-through carries the clock). → [`Reply::Line`].
    LineFetchReq {
        page: PageNum,
        line: LineInPage,
        requester: ProcId,
        clock: Option<VClock>,
    },
    /// Sanitizer only: a cache **read hit** on a line homed here — the
    /// one access kind that otherwise never reaches the home worker,
    /// where the line's happens-before state lives. A round trip, so
    /// transport arrival order stays a happens-before linearization.
    /// → [`Reply::Unit`].
    SanitizeHit {
        page: PageNum,
        line: LineInPage,
        clock: VClock,
    },
    /// Mid-run query of this worker's sanitizer findings.
    /// → [`Reply::Races`].
    RaceQuery,
    /// Consult this worker's software cache for a remotely homed word.
    /// → [`Reply::Lookup`].
    CacheLookup {
        home: ProcId,
        page: PageNum,
        line: LineInPage,
        /// Word index within the line (0..8).
        word: usize,
        /// For a write hit the worker updates the cached copy in place
        /// with `wval` (the client still write-throughs to the home).
        write: bool,
        wval: Option<Word>,
        /// The static optimizer elided this site's check and the run opted
        /// in: answer from an uncounted probe when the line is resident
        /// ([`LookupReply::ElidedHit`]), fall back to the counted path
        /// otherwise.
        elide: bool,
    },
    /// Install a line fetched from its home into this worker's cache and
    /// return the requested word (after applying `wval` for a write).
    /// `ts` is the home page's timestamp from the fetch reply (bilateral:
    /// the installed line is valid as of that epoch). → [`Reply::Word`].
    CacheInstall {
        home: ProcId,
        page: PageNum,
        line: LineInPage,
        data: LineData,
        word: usize,
        write: bool,
        wval: Option<Word>,
        ts: u64,
    },
    /// The logical thread arrives here by migration: perform the acquire
    /// (per-protocol — local knowledge invalidates, bilateral epoch-marks,
    /// global knowledge did its work at departure).
    /// → [`Reply::Unit`].
    MigrateThread { arrival: ArrivalKind },
    /// Global knowledge, from a departing thread (release): read this
    /// home's sharer list for one of its pages. Read-only — no directory
    /// state changes. → [`Reply::Sharers`].
    SharerQuery { page: PageNum },
    /// Global knowledge: invalidate specific lines of a remotely homed
    /// page in *this* worker's cache (a pushed invalidation, delivered on
    /// the departing thread's behalf). The worker counts it sent, and
    /// spurious when the page was not cached. → [`Reply::Unit`].
    InvalidateLines {
        home: ProcId,
        page: PageNum,
        mask: u32,
    },
    /// Bilateral, from a departing thread (release): bump the home
    /// timestamp of each written page. → [`Reply::Unit`].
    BumpTs { pages: Vec<PageNum> },
    /// Bilateral revalidation, home side: report the page's current
    /// timestamp and the mask of lines written since `validated_ts`.
    /// `clock` is set for sanitized reads (the revalidation doubles as
    /// the logged access; writes carry their clock on the write-through).
    /// → [`Reply::Reval`].
    RevalQuery {
        page: PageNum,
        line: LineInPage,
        validated_ts: u64,
        clock: Option<VClock>,
    },
    /// Bilateral revalidation, requester side: apply the home's verdict to
    /// the cached page (drop stale lines, unmark, adopt `ts`), then
    /// re-examine the wanted line. A surviving line answers like a hit
    /// (`revalidations` counted); a stale one reports
    /// [`LookupReply::Miss`] and the client performs the ordinary fetch.
    /// Either way the round trip counts as a miss. → [`Reply::Lookup`].
    RevalApply {
        home: ProcId,
        page: PageNum,
        line: LineInPage,
        ts: u64,
        stale_mask: u32,
        word: usize,
        write: bool,
        wval: Option<Word>,
    },
    /// Deterministic shutdown: reply with the worker's final statistics
    /// and exit the service loop. → [`Reply::Report`].
    Shutdown,
}

impl Request {
    /// The message's class, for fault targeting and error reporting.
    pub fn kind(&self) -> MsgKind {
        match self {
            Request::Alloc { .. } => MsgKind::Alloc,
            Request::ReadHome { .. } => MsgKind::ReadHome,
            Request::WriteHome { .. } => MsgKind::WriteHome,
            Request::LineFetchReq { .. } => MsgKind::LineFetch,
            Request::SanitizeHit { .. } => MsgKind::SanitizeHit,
            Request::RaceQuery => MsgKind::RaceQuery,
            Request::CacheLookup { .. } => MsgKind::CacheLookup,
            Request::CacheInstall { .. } => MsgKind::CacheInstall,
            Request::MigrateThread { .. } => MsgKind::Migrate,
            Request::SharerQuery { .. } => MsgKind::SharerQuery,
            Request::InvalidateLines { .. } => MsgKind::InvalidateLines,
            Request::BumpTs { .. } => MsgKind::BumpTs,
            Request::RevalQuery { .. } => MsgKind::RevalQuery,
            Request::RevalApply { .. } => MsgKind::RevalApply,
            Request::Shutdown => MsgKind::Shutdown,
        }
    }
}

/// A worker's answer to one serviced [`Request`]. Each request class maps
/// to exactly one reply variant; the `expect_*` accessors assert that
/// mapping at the client call sites.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Ptr(GPtr),
    Word(Word),
    Unit,
    /// A fetched line plus the home page's timestamp (0 under local
    /// knowledge, where homes keep no directory state).
    Line(LineData, u64),
    Races(Vec<RaceViolation>),
    Lookup(LookupReply),
    /// A page's sharer list, answering [`Request::SharerQuery`].
    Sharers(Vec<ProcId>),
    /// A home's revalidation verdict, answering [`Request::RevalQuery`]:
    /// the page's current timestamp and the stale-line mask.
    Reval {
        ts: u64,
        stale_mask: u32,
    },
    Report(Box<WorkerReport>),
}

macro_rules! expect_variant {
    ($name:ident, $variant:ident, $ty:ty, $what:literal) => {
        #[track_caller]
        pub fn $name(self) -> $ty {
            match self {
                Reply::$variant(v) => v,
                other => panic!(concat!("protocol: expected ", $what, ", got {:?}"), other),
            }
        }
    };
}

impl Reply {
    expect_variant!(expect_ptr, Ptr, GPtr, "Ptr");
    expect_variant!(expect_word, Word, Word, "Word");
    expect_variant!(expect_races, Races, Vec<RaceViolation>, "Races");
    expect_variant!(expect_lookup, Lookup, LookupReply, "Lookup");
    expect_variant!(expect_sharers, Sharers, Vec<ProcId>, "Sharers");
    expect_variant!(expect_report, Report, Box<WorkerReport>, "Report");

    #[track_caller]
    pub fn expect_line(self) -> (LineData, u64) {
        match self {
            Reply::Line(data, ts) => (data, ts),
            other => panic!("protocol: expected Line, got {other:?}"),
        }
    }

    #[track_caller]
    pub fn expect_reval(self) -> (u64, u32) {
        match self {
            Reply::Reval { ts, stale_mask } => (ts, stale_mask),
            other => panic!("protocol: expected Reval, got {other:?}"),
        }
    }

    #[track_caller]
    pub fn expect_unit(self) {
        match self {
            Reply::Unit => {}
            other => panic!("protocol: expected Unit, got {other:?}"),
        }
    }
}

/// A worker's final accounting, returned in the [`Request::Shutdown`]
/// reply.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerReport {
    /// Cache-side statistics accumulated by this worker (hits, misses,
    /// remote reads/writes).
    pub cache: CacheStats,
    /// Distinct pages ever cached here (Table 3's per-processor term).
    pub pages_ever: u64,
    /// Words allocated in this worker's section (excluding the reserved
    /// null line).
    pub words_allocated: u64,
    /// Messages serviced over the worker's lifetime.
    pub served: u64,
    /// Envelopes delivered to this worker (serviced + suppressed). On
    /// the network backend this is the worker process's only way to
    /// report its receiver-side transport counters to the parent.
    pub deliveries: u64,
    /// Duplicate envelopes this worker suppressed.
    pub dupes_suppressed: u64,
    /// Happens-before violations on lines homed here (sanitizer runs).
    pub races: Vec<RaceViolation>,
    /// The worker's event lane (recorded runs only): the worker-site
    /// events — invalidation acquires — this worker performed.
    pub lane: Option<olden_obs::Lane>,
}
