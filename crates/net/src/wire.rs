//! Hand-rolled wire format for the network backend.
//!
//! Everything on a socket is a **frame**: a little-endian `u32` byte
//! length followed by that many payload bytes. Three frame payloads
//! exist, each tied to a connection direction:
//!
//! | direction                | payload      | encoding entry point |
//! |--------------------------|--------------|----------------------|
//! | worker → parent (hello)  | `Hello`      | [`encode_hello`]     |
//! | client → worker          | [`Envelope`] | [`encode_envelope`]  |
//! | worker → client          | [`Reply`]    | [`encode_reply`]     |
//!
//! All integers are little-endian and fixed-width; variable-length
//! sequences carry an explicit count. Enum variants are a one-byte tag
//! in declaration order. There is no versioning and no self-description:
//! both endpoints are always built from the same source tree (the parent
//! spawns the worker binary itself), so a decode error is a bug, not a
//! compatibility case — decoding therefore returns `Err(String)` and the
//! caller treats it as fatal.
//!
//! The format follows the repo's zero-dependency convention: no serde,
//! no derive magic — each message type has an explicit `put_*`/`get_*`
//! pair, and the round-trip property tests in `tests/wire_roundtrip.rs`
//! cover every variant of every data-plane enum.

use olden_exec::msg::{ArrivalKind, Envelope, LineData, LookupReply, Reply, Request, WorkerReport};
use olden_gptr::{GPtr, ProcId, Word, LINE_WORDS};
use olden_obs::{Event, EventKind, Lane, Phase};
use olden_runtime::{RaceViolation, VClock};
use std::io::{self, Read, Write};

/// Ceiling on a single frame's payload, far above anything the protocol
/// produces (the largest legitimate frame is a shutdown report carrying
/// a full event lane, well under a megabyte). A length prefix past this
/// means a corrupted stream; failing the read beats allocating garbage.
pub const MAX_FRAME: usize = 64 << 20;

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Write one length-prefixed frame: prefix and body go out in a single
/// `write`, so a `TCP_NODELAY` socket sends one segment, not two.
pub fn write_frame<W: Write>(out: &mut W, body: &[u8]) -> io::Result<()> {
    assert!(body.len() <= MAX_FRAME, "oversized frame");
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    out.write_all(&frame)
}

/// Read one length-prefixed frame. An EOF cleanly between frames maps to
/// `Ok(None)`; an EOF inside a frame is an error. Sockets are read
/// through a `BufReader`, so a frame normally costs one `read` call.
pub fn read_frame<R: Read>(input: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let got = loop {
        match input.read(&mut len) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            got => break got?,
        }
    };
    if got == 0 {
        return Ok(None);
    }
    input.read_exact(&mut len[got..])?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::other(format!(
            "frame length {n} exceeds MAX_FRAME"
        )));
    }
    let mut body = vec![0u8; n];
    input.read_exact(&mut body)?;
    Ok(Some(body))
}

// ---------------------------------------------------------------------
// Cursor types
// ---------------------------------------------------------------------

/// Append-only encode cursor.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Checked decode cursor. Every read is bounds-checked; [`Reader::done`]
/// asserts the payload was consumed exactly.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("frame truncated at byte {} (wanted {n} more)", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }

    /// Assert the frame was consumed exactly — trailing bytes mean the
    /// two endpoints disagree about the format.
    pub fn done(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after a complete message",
                self.buf.len() - self.pos
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Leaf encoders
// ---------------------------------------------------------------------

fn put_clock(w: &mut Writer, c: &VClock) {
    let comps = c.components();
    w.u16(comps.len() as u16);
    for &v in comps {
        w.u64(v);
    }
}

fn get_clock(r: &mut Reader) -> Result<VClock, String> {
    let n = r.u16()? as usize;
    let mut comps = Vec::with_capacity(n);
    for _ in 0..n {
        comps.push(r.u64()?);
    }
    Ok(VClock::from_components(comps))
}

fn put_opt_clock(w: &mut Writer, c: &Option<VClock>) {
    match c {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            put_clock(w, c);
        }
    }
}

fn get_opt_clock(r: &mut Reader) -> Result<Option<VClock>, String> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_clock(r)?)),
        b => Err(format!("bad Option tag {b}")),
    }
}

fn put_opt_word(w: &mut Writer, v: &Option<Word>) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.u64(v.0);
        }
    }
}

fn get_opt_word(r: &mut Reader) -> Result<Option<Word>, String> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Word(r.u64()?))),
        b => Err(format!("bad Option tag {b}")),
    }
}

fn put_line(w: &mut Writer, data: &LineData) {
    for word in data {
        w.u64(word.0);
    }
}

fn get_line(r: &mut Reader) -> Result<LineData, String> {
    let mut data = [Word::ZERO; LINE_WORDS];
    for word in &mut data {
        *word = Word(r.u64()?);
    }
    Ok(data)
}

fn put_procs(w: &mut Writer, procs: &[ProcId]) {
    w.u16(procs.len() as u16);
    for &p in procs {
        w.u8(p);
    }
}

fn get_procs(r: &mut Reader) -> Result<Vec<ProcId>, String> {
    let n = r.u16()? as usize;
    let mut procs = Vec::with_capacity(n);
    for _ in 0..n {
        procs.push(r.u8()?);
    }
    Ok(procs)
}

fn put_race(w: &mut Writer, v: &RaceViolation) {
    let (home, page, line) = v.line;
    w.u8(home);
    w.u64(page);
    w.u8(line);
    w.bool(v.write);
    w.bool(v.prev_write);
}

fn get_race(r: &mut Reader) -> Result<RaceViolation, String> {
    Ok(RaceViolation {
        line: (r.u8()?, r.u64()?, r.u8()?),
        write: r.bool()?,
        prev_write: r.bool()?,
    })
}

fn put_races(w: &mut Writer, races: &[RaceViolation]) {
    w.u32(races.len() as u32);
    for v in races {
        put_race(w, v);
    }
}

fn get_races(r: &mut Reader) -> Result<Vec<RaceViolation>, String> {
    let n = r.u32()? as usize;
    let mut races = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        races.push(get_race(r)?);
    }
    Ok(races)
}

fn put_event(w: &mut Writer, e: &Event) {
    w.u8(e.kind.index() as u8);
    w.u8(match e.phase {
        Phase::Begin => 0,
        Phase::End => 1,
        Phase::Instant => 2,
    });
    w.u8(e.proc);
    w.u64(e.ts);
    w.u64(e.arg);
}

fn get_event(r: &mut Reader) -> Result<Event, String> {
    let ki = r.u8()? as usize;
    let kind = *EventKind::ALL
        .get(ki)
        .ok_or_else(|| format!("bad EventKind index {ki}"))?;
    let phase = match r.u8()? {
        0 => Phase::Begin,
        1 => Phase::End,
        2 => Phase::Instant,
        b => return Err(format!("bad Phase tag {b}")),
    };
    Ok(Event {
        kind,
        phase,
        proc: r.u8()?,
        ts: r.u64()?,
        arg: r.u64()?,
    })
}

fn put_lane(w: &mut Writer, lane: &Lane) {
    let label = lane.label.as_bytes();
    w.u16(label.len() as u16);
    w.bytes(label);
    w.bool(lane.nanos);
    w.u64(lane.dropped);
    for kind in EventKind::ALL {
        w.u64(lane.count(kind));
    }
    w.u32(lane.events.len() as u32);
    for e in &lane.events {
        put_event(w, e);
    }
}

fn get_lane(r: &mut Reader) -> Result<Lane, String> {
    let ln = r.u16()? as usize;
    let label = String::from_utf8(r.take(ln)?.to_vec()).map_err(|e| e.to_string())?;
    let nanos = r.bool()?;
    let dropped = r.u64()?;
    let mut counts = [0u64; EventKind::ALL.len()];
    for c in &mut counts {
        *c = r.u64()?;
    }
    let n = r.u32()? as usize;
    let mut events = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        events.push(get_event(r)?);
    }
    Ok(Lane::from_parts(label, nanos, events, dropped, counts))
}

// ---------------------------------------------------------------------
// Request / Reply / Envelope
// ---------------------------------------------------------------------

fn put_request(w: &mut Writer, req: &Request) {
    match req {
        Request::Alloc { words } => {
            w.u8(0);
            w.u64(*words as u64);
        }
        Request::ReadHome { local, clock } => {
            w.u8(1);
            w.u64(*local);
            put_opt_clock(w, clock);
        }
        Request::WriteHome {
            local,
            value,
            clock,
            track,
        } => {
            w.u8(2);
            w.u64(*local);
            w.u64(value.0);
            put_opt_clock(w, clock);
            w.bool(*track);
        }
        Request::LineFetchReq {
            page,
            line,
            requester,
            clock,
        } => {
            w.u8(3);
            w.u64(*page);
            w.u8(*line);
            w.u8(*requester);
            put_opt_clock(w, clock);
        }
        Request::SanitizeHit { page, line, clock } => {
            w.u8(4);
            w.u64(*page);
            w.u8(*line);
            put_clock(w, clock);
        }
        Request::RaceQuery => w.u8(5),
        Request::CacheLookup {
            home,
            page,
            line,
            word,
            write,
            wval,
            elide,
        } => {
            w.u8(6);
            w.u8(*home);
            w.u64(*page);
            w.u8(*line);
            w.u8(*word as u8);
            w.bool(*write);
            put_opt_word(w, wval);
            w.bool(*elide);
        }
        Request::CacheInstall {
            home,
            page,
            line,
            data,
            word,
            write,
            wval,
            ts,
        } => {
            w.u8(7);
            w.u8(*home);
            w.u64(*page);
            w.u8(*line);
            put_line(w, data);
            w.u8(*word as u8);
            w.bool(*write);
            put_opt_word(w, wval);
            w.u64(*ts);
        }
        Request::MigrateThread { arrival } => {
            w.u8(8);
            match arrival {
                ArrivalKind::Call => w.u8(0),
                ArrivalKind::Return(written) => {
                    w.u8(1);
                    put_procs(w, written);
                }
            }
        }
        Request::SharerQuery { page } => {
            w.u8(9);
            w.u64(*page);
        }
        Request::InvalidateLines { home, page, mask } => {
            w.u8(10);
            w.u8(*home);
            w.u64(*page);
            w.u32(*mask);
        }
        Request::BumpTs { pages } => {
            w.u8(11);
            w.u32(pages.len() as u32);
            for &p in pages {
                w.u64(p);
            }
        }
        Request::RevalQuery {
            page,
            line,
            validated_ts,
            clock,
        } => {
            w.u8(12);
            w.u64(*page);
            w.u8(*line);
            w.u64(*validated_ts);
            put_opt_clock(w, clock);
        }
        Request::RevalApply {
            home,
            page,
            line,
            ts,
            stale_mask,
            word,
            write,
            wval,
        } => {
            w.u8(13);
            w.u8(*home);
            w.u64(*page);
            w.u8(*line);
            w.u64(*ts);
            w.u32(*stale_mask);
            w.u8(*word as u8);
            w.bool(*write);
            put_opt_word(w, wval);
        }
        Request::Shutdown => w.u8(14),
    }
}

fn get_request(r: &mut Reader) -> Result<Request, String> {
    Ok(match r.u8()? {
        0 => Request::Alloc {
            words: r.u64()? as usize,
        },
        1 => Request::ReadHome {
            local: r.u64()?,
            clock: get_opt_clock(r)?,
        },
        2 => Request::WriteHome {
            local: r.u64()?,
            value: Word(r.u64()?),
            clock: get_opt_clock(r)?,
            track: r.bool()?,
        },
        3 => Request::LineFetchReq {
            page: r.u64()?,
            line: r.u8()?,
            requester: r.u8()?,
            clock: get_opt_clock(r)?,
        },
        4 => Request::SanitizeHit {
            page: r.u64()?,
            line: r.u8()?,
            clock: get_clock(r)?,
        },
        5 => Request::RaceQuery,
        6 => Request::CacheLookup {
            home: r.u8()?,
            page: r.u64()?,
            line: r.u8()?,
            word: r.u8()? as usize,
            write: r.bool()?,
            wval: get_opt_word(r)?,
            elide: r.bool()?,
        },
        7 => Request::CacheInstall {
            home: r.u8()?,
            page: r.u64()?,
            line: r.u8()?,
            data: get_line(r)?,
            word: r.u8()? as usize,
            write: r.bool()?,
            wval: get_opt_word(r)?,
            ts: r.u64()?,
        },
        8 => Request::MigrateThread {
            arrival: match r.u8()? {
                0 => ArrivalKind::Call,
                1 => ArrivalKind::Return(get_procs(r)?),
                b => return Err(format!("bad ArrivalKind tag {b}")),
            },
        },
        9 => Request::SharerQuery { page: r.u64()? },
        10 => Request::InvalidateLines {
            home: r.u8()?,
            page: r.u64()?,
            mask: r.u32()?,
        },
        11 => Request::BumpTs {
            pages: {
                let n = r.u32()? as usize;
                let mut pages = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    pages.push(r.u64()?);
                }
                pages
            },
        },
        12 => Request::RevalQuery {
            page: r.u64()?,
            line: r.u8()?,
            validated_ts: r.u64()?,
            clock: get_opt_clock(r)?,
        },
        13 => Request::RevalApply {
            home: r.u8()?,
            page: r.u64()?,
            line: r.u8()?,
            ts: r.u64()?,
            stale_mask: r.u32()?,
            word: r.u8()? as usize,
            write: r.bool()?,
            wval: get_opt_word(r)?,
        },
        14 => Request::Shutdown,
        b => return Err(format!("bad Request tag {b}")),
    })
}

fn put_report(w: &mut Writer, rep: &WorkerReport) {
    let c = &rep.cache;
    for v in [
        c.cacheable_reads,
        c.cacheable_writes,
        c.remote_reads,
        c.remote_writes,
        c.hits,
        c.misses,
        c.revalidations,
        c.invalidations_sent,
        c.invalidations_spurious,
        c.write_track_cycles,
        c.checks_performed,
        c.checks_elided,
    ] {
        w.u64(v);
    }
    w.u64(rep.pages_ever);
    w.u64(rep.words_allocated);
    w.u64(rep.served);
    w.u64(rep.deliveries);
    w.u64(rep.dupes_suppressed);
    put_races(w, &rep.races);
    match &rep.lane {
        None => w.u8(0),
        Some(lane) => {
            w.u8(1);
            put_lane(w, lane);
        }
    }
}

fn get_report(r: &mut Reader) -> Result<WorkerReport, String> {
    let cache = olden_cache::CacheStats {
        cacheable_reads: r.u64()?,
        cacheable_writes: r.u64()?,
        remote_reads: r.u64()?,
        remote_writes: r.u64()?,
        hits: r.u64()?,
        misses: r.u64()?,
        revalidations: r.u64()?,
        invalidations_sent: r.u64()?,
        invalidations_spurious: r.u64()?,
        write_track_cycles: r.u64()?,
        checks_performed: r.u64()?,
        checks_elided: r.u64()?,
    };
    Ok(WorkerReport {
        cache,
        pages_ever: r.u64()?,
        words_allocated: r.u64()?,
        served: r.u64()?,
        deliveries: r.u64()?,
        dupes_suppressed: r.u64()?,
        races: get_races(r)?,
        lane: match r.u8()? {
            0 => None,
            1 => Some(get_lane(r)?),
            b => return Err(format!("bad Option tag {b}")),
        },
    })
}

/// Encode a client→worker envelope frame payload.
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(env.src);
    w.u64(env.seq);
    put_request(&mut w, &env.req);
    w.finish()
}

/// Decode a client→worker envelope frame payload.
pub fn decode_envelope(buf: &[u8]) -> Result<Envelope, String> {
    let mut r = Reader::new(buf);
    let env = Envelope {
        src: r.u64()?,
        seq: r.u64()?,
        req: get_request(&mut r)?,
    };
    r.done()?;
    Ok(env)
}

/// Encode a worker→client reply frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut w = Writer::new();
    match reply {
        Reply::Ptr(p) => {
            w.u8(0);
            w.u64(p.bits());
        }
        Reply::Word(v) => {
            w.u8(1);
            w.u64(v.0);
        }
        Reply::Unit => w.u8(2),
        Reply::Line(data, ts) => {
            w.u8(3);
            put_line(&mut w, data);
            w.u64(*ts);
        }
        Reply::Races(races) => {
            w.u8(4);
            put_races(&mut w, races);
        }
        Reply::Lookup(l) => {
            w.u8(5);
            match l {
                LookupReply::Hit(v) => {
                    w.u8(0);
                    w.u64(v.0);
                }
                LookupReply::Miss => w.u8(1),
                LookupReply::ElidedHit(v) => {
                    w.u8(2);
                    w.u64(v.0);
                }
                LookupReply::RevalNeeded { validated_ts } => {
                    w.u8(3);
                    w.u64(*validated_ts);
                }
            }
        }
        Reply::Sharers(procs) => {
            w.u8(6);
            put_procs(&mut w, procs);
        }
        Reply::Reval { ts, stale_mask } => {
            w.u8(7);
            w.u64(*ts);
            w.u32(*stale_mask);
        }
        Reply::Report(rep) => {
            w.u8(8);
            put_report(&mut w, rep);
        }
    }
    w.finish()
}

/// Decode a worker→client reply frame payload.
pub fn decode_reply(buf: &[u8]) -> Result<Reply, String> {
    let mut r = Reader::new(buf);
    let reply = match r.u8()? {
        0 => Reply::Ptr(GPtr::from_bits(r.u64()?)),
        1 => Reply::Word(Word(r.u64()?)),
        2 => Reply::Unit,
        3 => {
            let data = get_line(&mut r)?;
            Reply::Line(data, r.u64()?)
        }
        4 => Reply::Races(get_races(&mut r)?),
        5 => Reply::Lookup(match r.u8()? {
            0 => LookupReply::Hit(Word(r.u64()?)),
            1 => LookupReply::Miss,
            2 => LookupReply::ElidedHit(Word(r.u64()?)),
            3 => LookupReply::RevalNeeded {
                validated_ts: r.u64()?,
            },
            b => return Err(format!("bad LookupReply tag {b}")),
        }),
        6 => Reply::Sharers(get_procs(&mut r)?),
        7 => Reply::Reval {
            ts: r.u64()?,
            stale_mask: r.u32()?,
        },
        8 => Reply::Report(Box::new(get_report(&mut r)?)),
        b => return Err(format!("bad Reply tag {b}")),
    };
    r.done()?;
    Ok(reply)
}

/// Encode the worker's handshake announcement: which processor it is and
/// the loopback port its data listener accepted.
pub fn encode_hello(proc: ProcId, port: u16) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(proc);
    w.u16(port);
    w.finish()
}

/// Decode a handshake announcement.
pub fn decode_hello(buf: &[u8]) -> Result<(ProcId, u16), String> {
    let mut r = Reader::new(buf);
    let hello = (r.u8()?, r.u16()?);
    r.done()?;
    Ok(hello)
}
