//! Frame I/O on in-memory buffers: what `write_frame` hands the socket
//! per frame, and how `read_frame` splits a buffered byte stream back
//! into frames, including every way the stream can end.

use olden_net::wire::{read_frame, write_frame, MAX_FRAME};
use std::io::{self, BufReader, Cursor, Write};

/// A writer that records the size of every `write` call it receives.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    writes: Vec<usize>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.push(buf.len());
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn framed(bodies: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    for body in bodies {
        write_frame(&mut out, body).unwrap();
    }
    out
}

#[test]
fn a_frame_is_one_write_of_prefix_and_body() {
    for body in [&b""[..], b"x", &[7u8; 36], &[1u8; 5000]] {
        let mut w = CountingWriter::default();
        write_frame(&mut w, body).unwrap();
        assert_eq!(w.writes, [4 + body.len()], "one write per frame");
        assert_eq!(w.bytes[..4], (body.len() as u32).to_le_bytes());
        assert_eq!(&w.bytes[4..], body);
    }
}

#[test]
fn back_to_back_frames_both_decode_through_one_buffer() {
    let stream = framed(&[b"first frame", b"", b"third"]);
    let mut r = BufReader::new(Cursor::new(stream));
    assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first frame");
    assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
    assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"third");
    assert_eq!(read_frame(&mut r).unwrap(), None);
}

#[test]
fn eof_between_frames_is_a_clean_end() {
    assert_eq!(read_frame(&mut Cursor::new(Vec::new())).unwrap(), None);
    let mut r = BufReader::new(Cursor::new(framed(&[b"only"])));
    assert!(read_frame(&mut r).unwrap().is_some());
    assert_eq!(read_frame(&mut r).unwrap(), None);
}

#[test]
fn eof_inside_a_frame_is_an_error() {
    let whole = framed(&[b"a body of some length"]);
    for cut in 1..whole.len() {
        let mut r = BufReader::new(Cursor::new(whole[..cut].to_vec()));
        let err = read_frame(&mut r).expect_err("a truncated frame must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}

#[test]
fn an_oversized_length_prefix_fails_before_the_body_is_read() {
    let mut stream = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
    stream.extend_from_slice(b"trailing bytes");
    let mut r = Cursor::new(stream);
    let err = read_frame(&mut r).expect_err("an oversized prefix must fail");
    assert!(err.to_string().contains("MAX_FRAME"), "{err}");
    assert_eq!(r.position(), 4, "nothing past the prefix was read");
}
