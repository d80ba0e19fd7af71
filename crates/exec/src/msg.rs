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
//! transport routes replies over one lane per (client, worker), the socket
//! transport writes them back on the connection the request arrived on.
//! On the thread backend a request addressed to the processor the
//! logical thread occupies, or made from an uncharged region, never
//! reaches a transport at all: the thread hands it to that worker's
//! `handle` in place (every `CacheLookup`, `CacheInstall`, `RevalApply`
//! and `ReadHome`, the local `WriteHome` and `Alloc`, and every uncharged
//! one; a `MigrateThread` always travels).
//!
//! Every message is declared once, in a `messages!` table below: one
//! row per variant with its wire tag, its fields and, for a request, its
//! [`MsgKind`]. The enums, `MsgKind` (discriminant = tag),
//! [`Request::kind`] and the [`Wire`] codec are all generated from it, so
//! adding a message is adding a row.
//!
//! Two of the protocol's events never appear on a transport because they
//! are in-process by nature: *StealNotify* (a migration vacating a
//! processor wakes the continuations anchored there) and *TouchResult*
//! (a touch joining a forked body) travel through
//! [`FrameHandle`](crate::frame::FrameHandle)s shared between the
//! spawning and the body thread.

use crate::wire::{in_range, Reader, Wire};
use olden_cache::{Arrival, CacheStats};
use olden_gptr::{GPtr, LineInPage, PageNum, ProcId, Word, LINES_PER_PAGE, LINE_WORDS};
use olden_runtime::{RaceViolation, VClock};

pub use crate::envelope::{Envelope, CONTROL_SRC};

/// One 64-byte line's payload, as moved by a fetch reply.
pub type LineData = [Word; LINE_WORDS];

/// Declares a message enum from a table with one row per variant:
/// `TAG Variant { field: Type, .. }`, `TAG Variant(name: Type, ..)` (a
/// tuple variant; the names only bind its fields in the codec) or
/// `TAG Variant`, each under its doc comment and followed by a comma.
/// Generated: the enum, and its [`Wire`] codec — the tag byte, then each
/// field in order. Decoding a field named `line` or `word` rejects an
/// index past the end of a page or a line, and decoding a `Request`
/// rejects a `write` flag that disagrees with its `wval`.
///
/// `pub enum Request: MsgKind` also declares `MsgKind`: one kind per row,
/// named after the variant (or after `as Kind`), with the tag as its
/// discriminant; plus `MsgKind::ALL`, `MsgKind::name` and
/// `Request::kind`.
macro_rules! messages {
    // Normalize one row: its docs, tag, variant, `[kind variant]`, the
    // variant's declaration, its shape and its fields.
    (@row $head:tt [$($done:tt)*]
        $(#[$doc:meta])* $tag:literal $var:ident $(as $kind:ident)?
        { $($(#[$fdoc:meta])* $f:ident: $t:ty),* $(,)? }, $($rest:tt)*
    ) => {
        messages!(@row $head [$($done)* {
            [$(#[$doc])*] $tag $var [$($kind)? $var]
            [{ $($(#[$fdoc])* $f: $t),* }] brace [$($f: $t),*]
        }] $($rest)*);
    };
    (@row $head:tt [$($done:tt)*]
        $(#[$doc:meta])* $tag:literal $var:ident $(as $kind:ident)?
        ($($f:ident: $t:ty),* $(,)?), $($rest:tt)*
    ) => {
        messages!(@row $head [$($done)* {
            [$(#[$doc])*] $tag $var [$($kind)? $var] [($($t),*)] paren [$($f: $t),*]
        }] $($rest)*);
    };
    (@row $head:tt [$($done:tt)*]
        $(#[$doc:meta])* $tag:literal $var:ident $(as $kind:ident)?, $($rest:tt)*
    ) => {
        messages!(@row $head [$($done)* {
            [$(#[$doc])*] $tag $var [$($kind)? $var] [] unit []
        }] $($rest)*);
    };
    // Every row read: emit the enum, and for a request the kinds.
    (@row [$(#[$meta:meta])* $name:ident $(: $kinds:ident)?] $rows:tt) => {
        messages!(@enum [$(#[$meta])* $name] $rows);
        $(messages!(@kinds $kinds $name $rows);)?
    };
    (@enum [$(#[$meta:meta])* $name:ident] [$({
        [$($doc:tt)*] $tag:literal $var:ident $kind:tt [$($decl:tt)*] $shape:ident
        [$($f:ident: $t:ty),*]
    })*]) => {
        $(#[$meta])*
        pub enum $name {
            $($($doc)* $var $($decl)*,)*
        }

        impl Wire for $name {
            fn put(&self, w: &mut Vec<u8>) {
                match self {
                    $(messages!(@pat $shape $name $var [$($f)*]) => {
                        w.push($tag);
                        $($f.put(w);)*
                    })*
                }
            }

            #[inline]
            fn get(r: &mut Reader) -> Result<Self, String> {
                let v = match u8::get(r)? {
                    $($tag => messages!(@new $shape $name $var
                        [$($f: messages!(@check $f Wire::get(r)?)),*]),)*
                    b => return Err(format!(concat!("bad ", stringify!($name), " tag {}"), b)),
                };
                messages!(@valid $name v);
                Ok(v)
            }
        }
    };
    (@kinds $kinds:ident $name:ident [$({
        [$($doc:tt)*] $tag:literal $var:ident [$kind:ident $($_var:ident)?] $($_rest:tt)*
    })*]) => {
        /// The class of a [`Request`], for fault targeting, starvation
        /// errors and per-kind message counts. A kind's discriminant is
        /// its request's wire tag.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub enum $kinds {
            $($($doc)* $kind = $tag,)*
        }

        impl $kinds {
            /// Every kind, in tag order.
            pub const ALL: [$kinds; [$($tag),*].len()] = [$($kinds::$kind),*];

            pub fn name(self) -> &'static str {
                match self {
                    $($kinds::$kind => stringify!($kind),)*
                }
            }
        }

        impl $name {
            /// The message's class, for fault targeting and error reporting.
            pub fn kind(&self) -> $kinds {
                match self {
                    $($name::$var { .. } => $kinds::$kind,)*
                }
            }
        }
    };
    // A variant's pattern binding its fields, its constructor from decoded
    // fields, and the range check of a decoded `line` or `word` index.
    (@pat brace $name:ident $var:ident [$($f:ident)*]) => { $name::$var { $($f),* } };
    (@pat paren $name:ident $var:ident [$($f:ident)*]) => { $name::$var($($f),*) };
    (@pat unit $name:ident $var:ident []) => { $name::$var };
    (@new brace $name:ident $var:ident [$($f:ident: $e:expr),*]) => { $name::$var { $($f: $e),* } };
    (@new paren $name:ident $var:ident [$($f:ident: $e:expr),*]) => { $name::$var($($e),*) };
    (@new unit $name:ident $var:ident []) => { $name::$var };
    (@check line $v:expr) => { in_range($v, LINES_PER_PAGE, "line")? };
    (@check word $v:expr) => { in_range($v, LINE_WORDS, "word")? };
    (@check $f:ident $v:expr) => { $v };
    // A decoded request whose `write` flag disagrees with its value.
    (@valid Request $v:ident) => { $v.write_agrees()? };
    (@valid $name:ident $v:ident) => {};
    (
        $(#[$meta:meta])*
        pub enum $name:ident $(: $kinds:ident)? { $($rows:tt)* }
    ) => {
        messages!(@row [$(#[$meta])* $name $(: $kinds)?] [] $($rows)*);
    };
}

messages! {
    /// How a thread arrives at a processor (the acquire of the release-
    /// consistency reduction): the owned, wire-going form of
    /// [`olden_cache::Arrival`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum ArrivalKind {
        /// Forward migration into a procedure body: under local knowledge the
        /// whole cache is invalidated.
        0 Call,
        /// Return-stub migration (or a touched future's value receipt);
        /// carries the processors whose memories the thread wrote, so only
        /// lines homed there are invalidated (§3.2 refinement).
        1 Return(written_homes: Vec<ProcId>),
    }
}

impl ArrivalKind {
    /// The form the cache's acquire rule takes.
    pub fn as_arrival(&self) -> Arrival {
        match self {
            ArrivalKind::Call => Arrival::Call,
            ArrivalKind::Return(homes) => Arrival::Return {
                written_homes: homes.iter().copied().collect(),
            },
        }
    }
}

/// The wire form of an acquire: a return's homes in ascending order.
impl From<Arrival> for ArrivalKind {
    fn from(arrival: Arrival) -> ArrivalKind {
        match arrival {
            Arrival::Call => ArrivalKind::Call,
            Arrival::Return { written_homes } => {
                ArrivalKind::Return(written_homes.iter().collect())
            }
        }
    }
}

messages! {
    /// Reply to a [`Request::CacheLookup`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum LookupReply {
        /// Line valid in this worker's cache; the word read from (or, for a
        /// write, now updated in) the cached copy.
        0 Hit(value: Word),
        /// Line absent or invalid. The client performs the fetch round trip
        /// ([`Request::LineFetchReq`] to the home, then
        /// [`Request::CacheInstall`] back here); the miss has already been
        /// counted.
        1 Miss,
        /// The request carried a verified `elide` hint: the line was resident,
        /// so the worker answered from an *uncounted* probe — no table lookup
        /// charged, `checks_elided` bumped instead of `checks_performed`.
        2 ElidedHit(value: Word),
        /// Bilateral only: the page is epoch-marked, so the access must
        /// revalidate against the home before it can hit. Carries the cached
        /// page's last-validated timestamp; the client performs the
        /// [`Request::RevalQuery`] / [`Request::RevalApply`] round trips.
        /// Neither hit nor miss has been counted yet.
        3 RevalNeeded { validated_ts: u64 },
    }
}

messages! {
    /// Everything a worker can be asked to do. Pure data: every variant is
    /// answered by exactly one [`Reply`] variant (see [`Request::kind`] for
    /// the fault-targeting class).
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request: MsgKind {
        /// `ALLOC(words)` in this worker's heap section. → [`Reply::Ptr`].
        0 Alloc { words: usize },
        /// Read the home copy of one word. `clock` (sanitizer runs only) is
        /// the accessing segment's vector clock, fed to this line's
        /// happens-before state. → [`Reply::Word`].
        1 ReadHome { local: u64, clock: Option<VClock> },
        /// Write the home copy of one word (the write-through of every heap
        /// write, however its address was resolved). `track` is set for
        /// charged writes: the home runs the compiler-inserted write-tracking
        /// code of the global/bilateral schemes (dirty line timestamps, the
        /// 7-vs-23-instruction shared check). → [`Reply::Unit`].
        2 WriteHome {
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
        3 LineFetchReq as LineFetch {
            page: PageNum,
            line: LineInPage,
            requester: ProcId,
            clock: Option<VClock>,
        },
        /// Sanitizer only: a cache **read hit** on a line homed here — the
        /// one access kind that otherwise never reaches the home worker,
        /// where the line's happens-before state lives. Posted: every
        /// release collects its acknowledgement, so service order at the
        /// home stays a happens-before linearization. → [`Reply::Unit`].
        4 SanitizeHit {
            page: PageNum,
            line: LineInPage,
            clock: VClock,
        },
        /// Mid-run query of this worker's sanitizer findings.
        /// → [`Reply::Races`].
        5 RaceQuery,
        /// Consult this worker's software cache for a remotely homed word.
        /// → [`Reply::Lookup`].
        6 CacheLookup {
            home: ProcId,
            page: PageNum,
            line: LineInPage,
            /// Word index within the line (0..8).
            word: u8,
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
        7 CacheInstall {
            home: ProcId,
            page: PageNum,
            line: LineInPage,
            data: LineData,
            word: u8,
            write: bool,
            wval: Option<Word>,
            ts: u64,
        },
        /// The logical thread arrives here by migration: perform the acquire
        /// (per-protocol — local knowledge invalidates, bilateral epoch-marks,
        /// global knowledge did its work at departure).
        /// → [`Reply::Unit`].
        8 MigrateThread as Migrate { arrival: ArrivalKind },
        /// Global knowledge, from a departing thread (release): read this
        /// home's sharer list for one of its pages. Read-only — no directory
        /// state changes. → [`Reply::Sharers`].
        9 SharerQuery { page: PageNum },
        /// Global knowledge: invalidate specific lines of a remotely homed
        /// page in *this* worker's cache (a pushed invalidation, delivered on
        /// the departing thread's behalf). The worker counts it sent, and
        /// spurious when the page was not cached. → [`Reply::Unit`].
        10 InvalidateLines {
            home: ProcId,
            page: PageNum,
            mask: u32,
        },
        /// Bilateral, from a departing thread (release): bump the home
        /// timestamp of each written page. → [`Reply::Unit`].
        11 BumpTs { pages: Vec<PageNum> },
        /// Bilateral revalidation, home side: report the page's current
        /// timestamp and the mask of lines written since `validated_ts`.
        /// `clock` is set for sanitized reads (the revalidation doubles as
        /// the logged access; writes carry their clock on the write-through).
        /// → [`Reply::Reval`].
        12 RevalQuery {
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
        13 RevalApply {
            home: ProcId,
            page: PageNum,
            line: LineInPage,
            ts: u64,
            stale_mask: u32,
            word: u8,
            write: bool,
            wval: Option<Word>,
        },
        /// Deterministic shutdown: reply with the worker's final statistics
        /// and exit the service loop. → [`Reply::Report`]. Control plane:
        /// never faulted (a worker exits on its first shutdown, so a
        /// duplicate would hit a closed mailbox). Listed last, after every
        /// data-plane kind.
        14 Shutdown,
    }
}

impl Request {
    /// A cached access carries a value exactly when it is a write; a frame
    /// that pairs a write with no value, or a read with one, is corrupt.
    fn write_agrees(&self) -> Result<(), String> {
        match self {
            Request::CacheLookup { write, wval, .. }
            | Request::CacheInstall { write, wval, .. }
            | Request::RevalApply { write, wval, .. }
                if *write != wval.is_some() =>
            {
                Err(format!("write flag {write} disagrees with value {wval:?}"))
            }
            _ => Ok(()),
        }
    }
}

impl MsgKind {
    /// Every data-plane kind (the ones the fault layer may target): all
    /// but `Shutdown`, which the table lists last.
    pub const DATA_PLANE: [MsgKind; MsgKind::ALL.len() - 1] =
        *MsgKind::ALL.first_chunk().expect("ALL ends with Shutdown");

    /// Whether the kind is *posted*: its reply is only an acknowledgement,
    /// so the sender does not wait for it and collects it by its next
    /// release (see `ExecCtx::req`). `MigrateThread` also answers `Unit`
    /// but is the acquire, so it is a round trip.
    pub fn posted(self) -> bool {
        matches!(
            self,
            MsgKind::WriteHome | MsgKind::SanitizeHit | MsgKind::InvalidateLines | MsgKind::BumpTs
        )
    }
}

impl std::fmt::Display for MsgKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

messages! {
    /// A worker's answer to one serviced [`Request`]. Each request class maps
    /// to exactly one reply variant; the `expect_*` accessors assert that
    /// mapping at the client call sites.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Reply {
        0 Ptr(ptr: GPtr),
        1 Word(value: Word),
        2 Unit,
        /// A fetched line plus the home page's timestamp (0 under local
        /// knowledge, where homes keep no directory state).
        3 Line(data: LineData, ts: u64),
        4 Races(races: Vec<RaceViolation>),
        5 Lookup(lookup: LookupReply),
        /// A page's sharer list, answering [`Request::SharerQuery`].
        6 Sharers(sharers: Vec<ProcId>),
        /// A home's revalidation verdict, answering [`Request::RevalQuery`]:
        /// the page's current timestamp and the stale-line mask.
        7 Reval { ts: u64, stale_mask: u32 },
        8 Report(report: Box<WorkerReport>),
    }
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
