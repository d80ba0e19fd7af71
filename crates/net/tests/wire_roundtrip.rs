//! Serialization round-trip property tests: every variant of every
//! data-plane enum survives `decode(encode(x)) == x` across seeded
//! random instances, including the boundary shapes the protocol leans
//! on — max-size line payloads, page-straddling fetches, clocks with
//! zero and `MAX_PROCS` components, reports carrying full event lanes.
//! The sweeps must generate every `MsgKind` and every reply tag, so a
//! message added to the table without a generator here fails them.
//!
//! One instance of every variant is also pinned to its exact bytes, and
//! every truncation, trailing byte and unused tag value of a pinned frame
//! must be rejected.
//!
//! Randomness comes from `olden-rng`'s SplitMix64 with fixed seeds, so a
//! failure names a reproducible instance.

use olden_exec::msg::{
    ArrivalKind, Envelope, LookupReply, Reply, Request, WorkerReport, CONTROL_SRC,
};
use olden_exec::MsgKind;
use olden_gptr::{GPtr, Word, LINES_PER_PAGE, LINE_WORDS, LOCAL_MASK, MAX_PROCS};
use olden_net::wire::{
    decode_envelope, decode_hello, decode_reply, encode_envelope, encode_hello, encode_reply,
};
use olden_obs::{Event, EventKind, Lane, Phase, Recorder};
use olden_rng::SplitMix64;
use olden_runtime::{RaceViolation, VClock};
use std::collections::{BTreeSet, HashSet};

const TRIALS: usize = 200;

fn rt_env(env: &Envelope) -> Envelope {
    decode_envelope(&encode_envelope(env)).expect("envelope decodes")
}

fn rt_reply(reply: &Reply) -> Reply {
    decode_reply(&encode_reply(reply)).expect("reply decodes")
}

/// Round-trip one envelope; returns its request's kind.
fn check_env(env: Envelope) -> MsgKind {
    assert_eq!(rt_env(&env), env, "envelope round trip");
    env.req.kind()
}

/// Round-trip one reply; returns its tag byte.
fn check_reply(reply: Reply) -> u8 {
    assert_eq!(rt_reply(&reply), reply, "reply round trip");
    encode_reply(&reply)[0]
}

/// The tags the reply decoder accepts.
fn reply_tags() -> BTreeSet<u8> {
    (0..=255u8)
        .filter(|&t| !decode_reply(&[t]).is_err_and(|e| e.starts_with("bad Reply tag")))
        .collect()
}

fn rand_clock(rng: &mut SplitMix64) -> VClock {
    let n = rng.range(0, MAX_PROCS + 1);
    VClock::from_components((0..n).map(|_| rng.next_u64()).collect())
}

fn rand_opt_clock(rng: &mut SplitMix64) -> Option<VClock> {
    rng.chance(0.5).then(|| rand_clock(rng))
}

/// A write flag and the value it carries exactly when set.
fn rand_write(rng: &mut SplitMix64) -> (bool, Option<Word>) {
    let wval = rng.chance(0.5).then(|| Word(rng.next_u64()));
    (wval.is_some(), wval)
}

fn rand_line(rng: &mut SplitMix64) -> [Word; LINE_WORDS] {
    let mut data = [Word::ZERO; LINE_WORDS];
    for w in &mut data {
        *w = Word(rng.next_u64());
    }
    data
}

fn rand_race(rng: &mut SplitMix64) -> RaceViolation {
    RaceViolation {
        line: (
            rng.below(256) as u8,
            rng.next_u64(),
            rng.below(LINES_PER_PAGE as u64) as u8,
        ),
        write: rng.chance(0.5),
        prev_write: rng.chance(0.5),
    }
}

fn envelope(req: Request, rng: &mut SplitMix64) -> Envelope {
    // `req` first: its construction draws from the same rng the envelope
    // header does, so it must be fully built before the header borrow.
    Envelope {
        src: rng.next_u64(),
        seq: rng.next_u64(),
        req,
    }
}

#[test]
fn every_request_variant_round_trips() {
    let mut rng = SplitMix64::new(0x0522_1995);
    let mut kinds = HashSet::new();
    for _ in 0..TRIALS {
        kinds.insert(check_env(envelope(
            Request::Alloc {
                words: rng.next_u64() as usize,
            },
            &mut rng,
        )));
        kinds.insert(check_env(envelope(
            Request::ReadHome {
                local: rng.next_u64() & LOCAL_MASK,
                clock: rand_opt_clock(&mut rng),
            },
            &mut rng,
        )));
        kinds.insert(check_env(envelope(
            Request::WriteHome {
                local: rng.next_u64() & LOCAL_MASK,
                value: Word(rng.next_u64()),
                clock: rand_opt_clock(&mut rng),
                track: rng.chance(0.5),
            },
            &mut rng,
        )));
        kinds.insert(check_env(envelope(
            Request::LineFetchReq {
                page: rng.next_u64(),
                line: rng.below(LINES_PER_PAGE as u64) as u8,
                requester: rng.below(256) as u8,
                clock: rand_opt_clock(&mut rng),
            },
            &mut rng,
        )));
        kinds.insert(check_env(envelope(
            Request::SanitizeHit {
                page: rng.next_u64(),
                line: rng.below(LINES_PER_PAGE as u64) as u8,
                clock: rand_clock(&mut rng),
            },
            &mut rng,
        )));
        kinds.insert(check_env(envelope(Request::RaceQuery, &mut rng)));
        let (write, wval) = rand_write(&mut rng);
        kinds.insert(check_env(envelope(
            Request::CacheLookup {
                home: rng.below(256) as u8,
                page: rng.next_u64(),
                line: rng.below(LINES_PER_PAGE as u64) as u8,
                word: rng.range(0, LINE_WORDS) as u8,
                write,
                wval,
                elide: rng.chance(0.5),
            },
            &mut rng,
        )));
        let (write, wval) = rand_write(&mut rng);
        kinds.insert(check_env(envelope(
            Request::CacheInstall {
                home: rng.below(256) as u8,
                page: rng.next_u64(),
                line: rng.below(LINES_PER_PAGE as u64) as u8,
                data: rand_line(&mut rng),
                word: rng.range(0, LINE_WORDS) as u8,
                write,
                wval,
                ts: rng.next_u64(),
            },
            &mut rng,
        )));
        let arrival = if rng.chance(0.5) {
            ArrivalKind::Call
        } else {
            let n = rng.range(0, MAX_PROCS + 1);
            ArrivalKind::Return((0..n).map(|_| rng.below(256) as u8).collect())
        };
        kinds.insert(check_env(envelope(
            Request::MigrateThread { arrival },
            &mut rng,
        )));
        kinds.insert(check_env(envelope(
            Request::SharerQuery {
                page: rng.next_u64(),
            },
            &mut rng,
        )));
        kinds.insert(check_env(envelope(
            Request::InvalidateLines {
                home: rng.below(256) as u8,
                page: rng.next_u64(),
                mask: rng.next_u64() as u32,
            },
            &mut rng,
        )));
        let n = rng.range(0, 32);
        kinds.insert(check_env(envelope(
            Request::BumpTs {
                pages: (0..n).map(|_| rng.next_u64()).collect(),
            },
            &mut rng,
        )));
        kinds.insert(check_env(envelope(
            Request::RevalQuery {
                page: rng.next_u64(),
                line: rng.below(LINES_PER_PAGE as u64) as u8,
                validated_ts: rng.next_u64(),
                clock: rand_opt_clock(&mut rng),
            },
            &mut rng,
        )));
        let (write, wval) = rand_write(&mut rng);
        kinds.insert(check_env(envelope(
            Request::RevalApply {
                home: rng.below(256) as u8,
                page: rng.next_u64(),
                line: rng.below(LINES_PER_PAGE as u64) as u8,
                ts: rng.next_u64(),
                stale_mask: rng.next_u64() as u32,
                word: rng.range(0, LINE_WORDS) as u8,
                write,
                wval,
            },
            &mut rng,
        )));
        kinds.insert(check_env(Envelope {
            src: CONTROL_SRC,
            seq: 0,
            req: Request::Shutdown,
        }));
    }
    assert_eq!(
        kinds,
        HashSet::from(MsgKind::ALL),
        "the sweep sends every kind"
    );
}

#[test]
fn every_reply_variant_round_trips() {
    let mut rng = SplitMix64::new(0x6f6c_64656e);
    let mut tags = BTreeSet::new();
    for trial in 0..TRIALS {
        let (proc, local) = (
            rng.below(MAX_PROCS as u64) as u8,
            rng.next_u64() & LOCAL_MASK,
        );
        tags.insert(check_reply(Reply::Ptr(GPtr::new(proc, local))));
        tags.insert(check_reply(Reply::Word(Word(rng.next_u64()))));
        tags.insert(check_reply(Reply::Unit));
        tags.insert(check_reply(Reply::Line(
            rand_line(&mut rng),
            rng.next_u64(),
        )));
        let n = rng.range(0, 64);
        tags.insert(check_reply(Reply::Races(
            (0..n).map(|_| rand_race(&mut rng)).collect(),
        )));
        tags.insert(check_reply(Reply::Lookup(match rng.below(4) {
            0 => LookupReply::Hit(Word(rng.next_u64())),
            1 => LookupReply::Miss,
            2 => LookupReply::ElidedHit(Word(rng.next_u64())),
            _ => LookupReply::RevalNeeded {
                validated_ts: rng.next_u64(),
            },
        })));
        let n = rng.range(0, MAX_PROCS + 1);
        tags.insert(check_reply(Reply::Sharers(
            (0..n).map(|_| rng.below(256) as u8).collect(),
        )));
        tags.insert(check_reply(Reply::Reval {
            ts: rng.next_u64(),
            stale_mask: rng.next_u64() as u32,
        }));
        let report = rand_report(&mut rng, &format!("worker{trial:02}"));
        tags.insert(check_reply(Reply::Report(Box::new(report))));
    }
    assert_eq!(tags, reply_tags(), "the sweep sends every reply");
}

/// A cache line whose every word is at the extremes of the encoding:
/// the largest frame the data plane produces per direction.
#[test]
fn max_size_line_payloads_round_trip() {
    let full = [Word(u64::MAX); LINE_WORDS];
    check_reply(Reply::Line(full, u64::MAX));
    check_env(Envelope {
        src: u64::MAX - 1,
        seq: u64::MAX,
        req: Request::CacheInstall {
            home: u8::MAX,
            page: u64::MAX,
            line: (LINES_PER_PAGE - 1) as u8,
            data: full,
            word: (LINE_WORDS - 1) as u8,
            write: true,
            wval: Some(Word(u64::MAX)),
            ts: u64::MAX,
        },
    });
}

/// Fetches that walk across a page boundary — last line of page `p`,
/// then line 0 of page `p + 1` — keep their distinct (page, line)
/// coordinates through the wire; a packing bug that shared bits between
/// the fields would collapse them.
#[test]
fn page_straddling_fetches_round_trip() {
    let mut rng = SplitMix64::new(42);
    for _ in 0..TRIALS {
        let page = rng.next_u64() & (LOCAL_MASK >> 8);
        let before = Envelope {
            src: 7,
            seq: 1,
            req: Request::LineFetchReq {
                page,
                line: (LINES_PER_PAGE - 1) as u8,
                requester: 7,
                clock: None,
            },
        };
        let after = Envelope {
            src: 7,
            seq: 2,
            req: Request::LineFetchReq {
                page: page + 1,
                line: 0,
                requester: 7,
                clock: None,
            },
        };
        let (b, a) = (rt_env(&before), rt_env(&after));
        assert_eq!(b, before);
        assert_eq!(a, after);
        match (b.req, a.req) {
            (
                Request::LineFetchReq {
                    page: bp, line: bl, ..
                },
                Request::LineFetchReq {
                    page: ap, line: al, ..
                },
            ) => {
                assert_eq!((bp, bl), (page, (LINES_PER_PAGE - 1) as u8));
                assert_eq!((ap, al), (page + 1, 0));
            }
            other => panic!("variant changed in flight: {other:?}"),
        }
    }
}

fn rand_lane(rng: &mut SplitMix64, label: &str) -> Lane {
    let kinds = EventKind::ALL;
    let n = rng.range(0, 512);
    let mut counts = [0u64; 10];
    let events: Vec<Event> = (0..n)
        .map(|_| {
            let kind = kinds[rng.range(0, kinds.len())];
            counts[kind.index()] += 1;
            Event {
                kind,
                phase: match rng.below(3) {
                    0 => Phase::Begin,
                    1 => Phase::End,
                    _ => Phase::Instant,
                },
                proc: rng.below(256) as u8,
                ts: rng.next_u64(),
                arg: rng.next_u64(),
            }
        })
        .collect();
    Lane::from_parts(
        label.to_string(),
        rng.chance(0.5),
        events,
        rng.below(1 << 20),
        counts,
    )
}

/// A report with every counter drawn, and a lane half the time.
fn rand_report(rng: &mut SplitMix64, label: &str) -> WorkerReport {
    let mut rep = WorkerReport::default();
    rep.cache.hits = rng.next_u64();
    rep.cache.misses = rng.next_u64();
    rep.cache.remote_reads = rng.next_u64();
    rep.cache.remote_writes = rng.next_u64();
    rep.cache.revalidations = rng.next_u64();
    rep.cache.invalidations_sent = rng.next_u64();
    rep.cache.invalidations_spurious = rng.next_u64();
    rep.cache.write_track_cycles = rng.next_u64();
    rep.cache.checks_performed = rng.next_u64();
    rep.cache.checks_elided = rng.next_u64();
    rep.cache.cacheable_reads = rng.next_u64();
    rep.cache.cacheable_writes = rng.next_u64();
    rep.pages_ever = rng.next_u64();
    rep.words_allocated = rng.next_u64();
    rep.served = rng.next_u64();
    rep.deliveries = rng.next_u64();
    rep.dupes_suppressed = rng.next_u64();
    rep.races = (0..rng.range(0, 16)).map(|_| rand_race(rng)).collect();
    rep.lane = rng.chance(0.5).then(|| rand_lane(rng, label));
    rep
}

#[test]
fn shutdown_reports_round_trip_with_and_without_lanes() {
    let mut rng = SplitMix64::new(0xdead_beef);
    for trial in 0..64 {
        let rep = rand_report(&mut rng, &format!("worker{trial:02}"));
        check_reply(Reply::Report(Box::new(rep)));
    }
}

/// A lane built by a real `Recorder` (not synthesized parts) survives
/// the wire with its per-kind counts intact.
#[test]
fn recorder_lane_round_trips_exactly() {
    let mut rec = Recorder::sim();
    rec.begin(EventKind::FutureBody, 3, 17);
    rec.end(EventKind::FutureBody, 3);
    rec.instant(EventKind::Invalidate, 1, 9);
    let lane = rec.into_lane("worker03".into());
    let mut rep = WorkerReport {
        lane: Some(lane.clone()),
        ..WorkerReport::default()
    };
    rep.served = 3;
    let back = rt_reply(&Reply::Report(Box::new(rep)));
    let rep = match back {
        Reply::Report(r) => r,
        other => panic!("expected report, got {other:?}"),
    };
    let got = rep.lane.expect("lane survives");
    assert_eq!(got, lane);
    for kind in EventKind::ALL {
        assert_eq!(got.count(kind), lane.count(kind), "{kind:?} count");
    }
}

#[test]
fn hello_round_trips() {
    for proc in [0u8, 1, 127, 255] {
        for port in [1u16, 1024, 54321, u16::MAX] {
            let buf = encode_hello(proc, port);
            assert_eq!(decode_hello(&buf).unwrap(), (proc, port));
        }
    }
}

/// `frame` with byte `at` replaced by `b`.
fn patched(frame: &[u8], at: usize, b: u8) -> Vec<u8> {
    let mut out = frame.to_vec();
    out[at] = b;
    out
}

/// The tag bytes of a pinned frame, as `(offset, first unused value)`.
/// Offsets follow the pinned hex; an envelope's request tag follows its
/// 16-byte `src`/`seq` header.
fn tag_sites(frame: &Frame, len: usize) -> Vec<(usize, u8)> {
    match frame {
        Frame::Env(env) => {
            let sub = match env.req {
                Request::MigrateThread { .. } => Some((17, 2)),
                Request::ReadHome { .. } => Some((25, 2)),
                Request::LineFetchReq { .. } => Some((27, 2)),
                Request::CacheLookup { .. } => Some((29, 2)),
                Request::WriteHome { .. } => Some((33, 2)),
                Request::RevalQuery { .. } => Some((34, 2)),
                Request::RevalApply { .. } => Some((41, 2)),
                Request::CacheInstall { .. } => Some((93, 2)),
                _ => None,
            };
            [(16, 15)].into_iter().chain(sub).collect()
        }
        Frame::Reply(reply) => {
            let sub = match reply {
                Reply::Lookup(_) => vec![(1, 4)],
                Reply::Report(rep) if rep.lane.is_some() => vec![(153, 2), (len - 18, 3)],
                Reply::Report(_) => vec![(153, 2)],
                _ => vec![],
            };
            [(0, 9)].into_iter().chain(sub).collect()
        }
    }
}

/// Truncated, padded and mis-tagged copies of every pinned frame are
/// rejected, never misread, and no byte value anywhere in a frame makes
/// the decoder panic.
#[test]
fn corrupt_frames_are_rejected() {
    for (frame, _) in pinned_frames() {
        let good = frame.encode();
        for cut in 0..good.len() {
            assert!(
                frame.decode(&good[..cut]).is_err(),
                "{frame:?}: truncation at {cut} must fail"
            );
        }
        let mut padded = good.clone();
        padded.push(0);
        assert!(
            frame.decode(&padded).is_err(),
            "{frame:?}: trailing bytes must fail"
        );
        for (at, unused) in tag_sites(&frame, good.len()) {
            assert!(good[at] < unused, "{frame:?}: byte {at} is a tag");
            for b in unused..=255 {
                assert!(
                    frame.decode(&patched(&good, at, b)).is_err(),
                    "{frame:?}: tag {b} at byte {at} must fail"
                );
            }
        }
        for at in 0..good.len() {
            for b in 0..=255 {
                let _ = frame.decode(&patched(&good, at, b));
            }
        }
    }
    assert!(decode_envelope(&[]).is_err(), "empty frame must fail");
    assert!(decode_reply(&[]).is_err(), "empty frame must fail");
}

/// A cached access whose `write` flag disagrees with its `wval` is
/// rejected at decode: a worker would otherwise panic under its lock.
#[test]
fn write_flag_disagreeing_with_its_value_is_rejected() {
    let mut sites = 0;
    for (frame, _) in pinned_frames() {
        let Frame::Env(env) = &frame else { continue };
        let at = match env.req {
            Request::CacheLookup { .. } => 28,
            Request::CacheInstall { .. } => 92,
            Request::RevalApply { .. } => 40,
            _ => continue,
        };
        sites += 1;
        let good = frame.encode();
        assert!(good[at] <= 1, "{frame:?}: byte {at} is the write flag");
        let err = frame.decode(&patched(&good, at, good[at] ^ 1)).unwrap_err();
        assert!(err.contains("disagrees"), "{frame:?}: {err}");
    }
    assert_eq!(sites, 3, "every request with a write flag is covered");
}

/// A `line` or `word` index past the end of its page or line is rejected
/// at decode: a worker would otherwise read the next page's line or index
/// past a line's words.
#[test]
fn out_of_range_line_and_word_indices_are_rejected() {
    let mut sites = 0;
    for (frame, _) in pinned_frames() {
        let Frame::Env(env) = &frame else { continue };
        let indices = match env.req {
            Request::LineFetchReq { .. } | Request::SanitizeHit { .. } => {
                vec![(25, LINES_PER_PAGE)]
            }
            Request::RevalQuery { .. } => vec![(25, LINES_PER_PAGE)],
            Request::CacheLookup { .. } => vec![(26, LINES_PER_PAGE), (27, LINE_WORDS)],
            Request::CacheInstall { .. } => vec![(26, LINES_PER_PAGE), (91, LINE_WORDS)],
            Request::RevalApply { .. } => vec![(26, LINES_PER_PAGE), (39, LINE_WORDS)],
            _ => vec![],
        };
        let good = frame.encode();
        for (at, limit) in indices {
            sites += 1;
            for b in 0..=255u8 {
                let back = frame.decode(&patched(&good, at, b));
                assert_eq!(
                    back.is_ok(),
                    (b as usize) < limit,
                    "{frame:?}: {b} at byte {at}"
                );
            }
        }
    }
    assert_eq!(sites, 9, "every line and word field is covered");
}

// ---------------------------------------------------------------------
// Pinned frames
// ---------------------------------------------------------------------

/// A frame payload of either direction.
#[derive(Debug, PartialEq)]
enum Frame {
    Env(Envelope),
    Reply(Reply),
}

impl Frame {
    fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Env(env) => encode_envelope(env),
            Frame::Reply(reply) => encode_reply(reply),
        }
    }

    /// Decode `buf` with the decoder of this frame's direction.
    fn decode(&self, buf: &[u8]) -> Result<Frame, String> {
        match self {
            Frame::Env(_) => decode_envelope(buf).map(Frame::Env),
            Frame::Reply(_) => decode_reply(buf).map(Frame::Reply),
        }
    }
}

fn pin_env(req: Request) -> Frame {
    Frame::Env(Envelope {
        src: 2,
        seq: 7,
        req,
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Hex digits to bytes; whitespace between digits is ignored.
fn unhex(digits: &str) -> Vec<u8> {
    let digits: Vec<u8> = digits
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    digits
        .chunks(2)
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
        .collect()
}

/// One fixed instance of every frame shape, with the bytes it encodes
/// to: each `Request` variant inside an envelope (`MigrateThread` once
/// per `ArrivalKind`), each `Reply` variant (`Lookup` once per
/// `LookupReply`, `Report` with and without a lane).
fn pinned_frames() -> Vec<(Frame, &'static str)> {
    let clock = || VClock::from_components(vec![3, 0, 1]);
    let data = [1, 2, 3, 4, 5, 6, 7, 8].map(Word);
    let race = RaceViolation {
        line: (1, 16, 3),
        write: true,
        prev_write: false,
    };
    let report = |lane: Option<Lane>| {
        let mut rep = WorkerReport {
            pages_ever: 1,
            words_allocated: 40,
            served: 9,
            deliveries: 10,
            dupes_suppressed: 1,
            races: vec![race],
            lane,
            ..WorkerReport::default()
        };
        rep.cache.cacheable_reads = 12;
        rep.cache.hits = 3;
        rep.cache.misses = 2;
        rep.cache.checks_elided = 5;
        Frame::Reply(Reply::Report(Box::new(rep)))
    };
    let mut counts = [0u64; 10];
    counts[EventKind::Invalidate.index()] = 1;
    let lane = Lane::from_parts(
        "worker01".to_string(),
        true,
        vec![Event {
            kind: EventKind::Invalidate,
            phase: Phase::Instant,
            proc: 1,
            ts: 10,
            arg: 11,
        }],
        0,
        counts,
    );
    vec![
        (
            pin_env(Request::Alloc { words: 4 }),
            "0200000000000000 0700000000000000 00 0400000000000000",
        ),
        (
            pin_env(Request::ReadHome {
                local: 4096,
                clock: None,
            }),
            "0200000000000000 0700000000000000 01 0010000000000000 00",
        ),
        (
            pin_env(Request::WriteHome {
                local: 4104,
                value: Word(42),
                clock: Some(clock()),
                track: true,
            }),
            "\
                0200000000000000 0700000000000000 02 0810000000000000 \
                2a00000000000000 01 0300 0300000000000000 0000000000000000 \
                0100000000000000 01",
        ),
        (
            pin_env(Request::LineFetchReq {
                page: 16,
                line: 3,
                requester: 1,
                clock: Some(clock()),
            }),
            "\
                0200000000000000 0700000000000000 03 1000000000000000 03 01 01 0300 \
                0300000000000000 0000000000000000 0100000000000000",
        ),
        (
            pin_env(Request::SanitizeHit {
                page: 16,
                line: 31,
                clock: clock(),
            }),
            "\
                0200000000000000 0700000000000000 04 1000000000000000 1f 0300 \
                0300000000000000 0000000000000000 0100000000000000",
        ),
        (
            pin_env(Request::RaceQuery),
            "0200000000000000 0700000000000000 05",
        ),
        (
            pin_env(Request::CacheLookup {
                home: 1,
                page: 16,
                line: 3,
                word: 5,
                write: true,
                wval: Some(Word(9)),
                elide: false,
            }),
            "\
                0200000000000000 0700000000000000 06 01 1000000000000000 03 05 01 01 \
                0900000000000000 00",
        ),
        (
            pin_env(Request::CacheInstall {
                home: 1,
                page: 16,
                line: 3,
                data,
                word: 7,
                write: false,
                wval: None,
                ts: 9,
            }),
            "\
                0200000000000000 0700000000000000 07 01 1000000000000000 03 \
                0100000000000000 0200000000000000 0300000000000000 0400000000000000 \
                0500000000000000 0600000000000000 0700000000000000 0800000000000000 \
                07 00 00 0900000000000000",
        ),
        (
            pin_env(Request::MigrateThread {
                arrival: ArrivalKind::Call,
            }),
            "0200000000000000 0700000000000000 08 00",
        ),
        (
            pin_env(Request::MigrateThread {
                arrival: ArrivalKind::Return(vec![0, 2]),
            }),
            "0200000000000000 0700000000000000 08 01 0200 00 02",
        ),
        (
            pin_env(Request::SharerQuery { page: 17 }),
            "0200000000000000 0700000000000000 09 1100000000000000",
        ),
        (
            pin_env(Request::InvalidateLines {
                home: 2,
                page: 17,
                mask: 0x8000_0001,
            }),
            "\
                0200000000000000 0700000000000000 0a 02 1100000000000000 01000080",
        ),
        (
            pin_env(Request::BumpTs {
                pages: vec![16, 17],
            }),
            "\
                0200000000000000 0700000000000000 0b 02000000 1000000000000000 \
                1100000000000000",
        ),
        (
            pin_env(Request::RevalQuery {
                page: 16,
                line: 4,
                validated_ts: 5,
                clock: None,
            }),
            "\
                0200000000000000 0700000000000000 0c 1000000000000000 04 \
                0500000000000000 00",
        ),
        (
            pin_env(Request::RevalApply {
                home: 1,
                page: 16,
                line: 4,
                ts: 6,
                stale_mask: 0x10,
                word: 2,
                write: true,
                wval: Some(Word(77)),
            }),
            "\
                0200000000000000 0700000000000000 0d 01 1000000000000000 04 \
                0600000000000000 10000000 02 01 01 4d00000000000000",
        ),
        (
            Frame::Env(Envelope {
                src: CONTROL_SRC,
                seq: 0,
                req: Request::Shutdown,
            }),
            "ffffffffffffffff 0000000000000000 0e",
        ),
        (
            Frame::Reply(Reply::Ptr(GPtr::new(1, 4096))),
            "00 0010000000000001",
        ),
        (Frame::Reply(Reply::Word(Word(42))), "01 2a00000000000000"),
        (Frame::Reply(Reply::Unit), "02"),
        (
            Frame::Reply(Reply::Line(data, 9)),
            "\
                03 0100000000000000 0200000000000000 0300000000000000 \
                0400000000000000 0500000000000000 0600000000000000 0700000000000000 \
                0800000000000000 0900000000000000",
        ),
        (
            Frame::Reply(Reply::Races(vec![race])),
            "04 01000000 01 1000000000000000 03 01 00",
        ),
        (
            Frame::Reply(Reply::Lookup(LookupReply::Hit(Word(5)))),
            "05 00 0500000000000000",
        ),
        (Frame::Reply(Reply::Lookup(LookupReply::Miss)), "05 01"),
        (
            Frame::Reply(Reply::Lookup(LookupReply::ElidedHit(Word(6)))),
            "05 02 0600000000000000",
        ),
        (
            Frame::Reply(Reply::Lookup(LookupReply::RevalNeeded { validated_ts: 7 })),
            "05 03 0700000000000000",
        ),
        (Frame::Reply(Reply::Sharers(vec![0, 3])), "06 0200 00 03"),
        (
            Frame::Reply(Reply::Reval {
                ts: 8,
                stale_mask: 0x3,
            }),
            "07 0800000000000000 03000000",
        ),
        (
            report(None),
            "\
                08 0c00000000000000 0000000000000000 0000000000000000 \
                0000000000000000 0300000000000000 0200000000000000 0000000000000000 \
                0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
                0500000000000000 0100000000000000 2800000000000000 0900000000000000 \
                0a00000000000000 0100000000000000 01000000 01 1000000000000000 03 01 \
                00 00",
        ),
        (
            report(Some(lane)),
            "\
                08 0c00000000000000 0000000000000000 0000000000000000 \
                0000000000000000 0300000000000000 0200000000000000 0000000000000000 \
                0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
                0500000000000000 0100000000000000 2800000000000000 0900000000000000 \
                0a00000000000000 0100000000000000 01000000 01 1000000000000000 03 01 \
                00 01 0800 776f726b65723031 01 0000000000000000 0000000000000000 \
                0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
                0000000000000000 0000000000000000 0000000000000000 0100000000000000 \
                0000000000000000 01000000 08 02 01 0a00000000000000 0b00000000000000",
        ),
    ]
}

/// `perf`'s wire sample (`perf/src/layers.rs::wire_sample`): eight
/// envelopes whose mean size is the benchmark's `net.bytes_per_msg`.
fn perf_wire_sample() -> Vec<Envelope> {
    let line = [Word(0x0123_4567_89ab_cdef); LINE_WORDS];
    let reqs = vec![
        Request::Alloc { words: 4 },
        Request::ReadHome {
            local: 4096,
            clock: None,
        },
        Request::WriteHome {
            local: 4104,
            value: Word(42),
            clock: None,
            track: true,
        },
        Request::LineFetchReq {
            page: 16,
            line: 3,
            requester: 1,
            clock: None,
        },
        Request::CacheLookup {
            home: 1,
            page: 16,
            line: 3,
            word: 5,
            write: false,
            wval: None,
            elide: false,
        },
        Request::CacheInstall {
            home: 1,
            page: 16,
            line: 3,
            data: line,
            word: 5,
            write: false,
            wval: None,
            ts: 9,
        },
        Request::MigrateThread {
            arrival: ArrivalKind::Call,
        },
        Request::MigrateThread {
            arrival: ArrivalKind::Return(vec![0, 1]),
        },
    ];
    reqs.into_iter()
        .enumerate()
        .map(|(i, req)| Envelope {
            src: 1,
            seq: i as u64 + 1,
            req,
        })
        .collect()
}

/// Every frame shape encodes to exactly its pinned bytes and decodes back
/// to itself, and the pins cover every request kind and reply tag.
#[test]
fn every_variant_encodes_to_its_pinned_bytes() {
    let pinned = pinned_frames();
    for (frame, want) in &pinned {
        let bytes = frame.encode();
        assert_eq!(hex(&bytes), hex(&unhex(want)), "{frame:?}");
        assert_eq!(frame.decode(&bytes).as_ref(), Ok(frame));
    }
    let kinds: std::collections::HashSet<_> = pinned
        .iter()
        .filter_map(|(f, _)| match f {
            Frame::Env(env) => Some(env.req.kind()),
            Frame::Reply(_) => None,
        })
        .collect();
    assert_eq!(kinds.len(), MsgKind::DATA_PLANE.len() + 1, "{kinds:?}");
    let reply_tags: std::collections::BTreeSet<_> = pinned
        .iter()
        .filter(|(f, _)| matches!(f, Frame::Reply(_)))
        .map(|(f, _)| f.encode()[0])
        .collect();
    assert_eq!(reply_tags.len(), 9, "{reply_tags:?}");
    let sample_bytes: usize = perf_wire_sample()
        .iter()
        .map(|e| encode_envelope(e).len())
        .sum();
    assert_eq!(
        sample_bytes, 287,
        "8 envelopes averaging net.bytes_per_msg = 35.875"
    );
}
