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

use olden_exec::msg::{Envelope, Reply};
use olden_exec::wire::{decode, encode};
use olden_gptr::ProcId;
use std::io::{self, Read, Write};

/// Ceiling on a single frame's payload, far above anything the protocol
/// produces (the largest legitimate frame is a shutdown report carrying
/// a full event lane, well under a megabyte). A length prefix past this
/// means a corrupted stream; failing the read beats allocating garbage.
pub const MAX_FRAME: usize = 64 << 20;

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
