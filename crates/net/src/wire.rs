//! Frames for the network backend: length-prefixed I/O and the three
//! payloads a socket carries.
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
//! The payload bytes come from `olden_exec::wire`: every message type is
//! declared once in `olden_exec::msg`'s tables, which generate its codec,
//! and the round-trip and pinned-byte tests in `tests/wire_roundtrip.rs`
//! cover every variant. Decoding returns `Err(String)` on any malformed
//! payload, and the caller treats it as fatal.
//!
//! Frames travel in batches: a client's [`FrameLink`] holds the frames
//! it posts until it next sends, and a worker answers the frames that
//! arrived together with one write (`worker::serve_frames`).

use olden_exec::msg::{Envelope, Reply};
use olden_exec::wire::{decode, encode, Wire};
use olden_gptr::ProcId;
use std::io::{self, BufReader, Read, Write};

/// Ceiling on a single frame's payload, far above anything the protocol
/// produces (the largest legitimate frame is a shutdown report carrying
/// a full event lane, well under a megabyte). A length prefix past this
/// means a corrupted stream; failing the read beats allocating garbage.
pub const MAX_FRAME: usize = 64 << 20;

/// Write one length-prefixed frame: prefix and body go out in a single
/// `write`, so a `TCP_NODELAY` socket sends one segment, not two.
pub fn write_frame<W: Write>(out: &mut W, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame_into(&mut frame, |f| f.extend_from_slice(body));
    out.write_all(&frame)
}

/// Append `msg` to `out` as one frame, encoded in place.
pub fn append_frame<T: Wire>(out: &mut Vec<u8>, msg: &T) {
    frame_into(out, |f| msg.put(f));
}

/// Append one frame to `out`: the length prefix, then the payload that
/// `body` appends after it.
fn frame_into(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let n = out.len() - start - 4;
    assert!(n <= MAX_FRAME, "oversized frame");
    out[start..start + 4].copy_from_slice(&(n as u32).to_le_bytes());
}

/// A client's end of one worker connection. The envelopes it posts are
/// held, and written in one `write` with the next one it sends (or when
/// it flushes): posted requests go out with the request that waits, one
/// segment on a `TCP_NODELAY` socket. The buffer is reused, so a frame
/// costs no allocation to send.
pub struct FrameLink<S> {
    /// Replies are read through the buffer; frames are written to the
    /// stream underneath it.
    stream: BufReader<S>,
    held: Vec<u8>,
}

impl<S: Read + Write> FrameLink<S> {
    pub fn new(stream: S) -> FrameLink<S> {
        FrameLink {
            stream: BufReader::new(stream),
            held: Vec::new(),
        }
    }

    /// Hold one envelope frame for the next write.
    pub fn post(&mut self, env: &Envelope) {
        append_frame(&mut self.held, env);
    }

    /// Write the held frames and `env`'s.
    pub fn send(&mut self, env: &Envelope) -> io::Result<()> {
        self.post(env);
        self.flush()
    }

    /// Write every held frame, in one `write` when the stream takes it
    /// whole.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.held.is_empty() {
            self.stream.get_mut().write_all(&self.held)?;
            self.held.clear();
        }
        Ok(())
    }

    /// Read the next reply frame ([`read_frame`]'s `None` on a clean
    /// EOF).
    pub fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        read_frame(&mut self.stream)
    }

    /// The stream underneath.
    pub fn get_ref(&self) -> &S {
        self.stream.get_ref()
    }
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

/// Encode a client→worker envelope frame payload.
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    encode(env)
}

/// Decode a client→worker envelope frame payload.
pub fn decode_envelope(buf: &[u8]) -> Result<Envelope, String> {
    decode(buf)
}

/// Encode a worker→client reply frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    encode(reply)
}

/// Decode a worker→client reply frame payload.
pub fn decode_reply(buf: &[u8]) -> Result<Reply, String> {
    decode(buf)
}

/// Encode the worker's handshake announcement: which processor it is and
/// the loopback port its data listener accepted.
pub fn encode_hello(proc: ProcId, port: u16) -> Vec<u8> {
    encode(&(proc, port))
}

/// Decode a handshake announcement.
pub fn decode_hello(buf: &[u8]) -> Result<(ProcId, u16), String> {
    decode(buf)
}
