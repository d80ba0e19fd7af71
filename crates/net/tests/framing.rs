//! Frame I/O on in-memory buffers: what `write_frame` hands the socket
//! per frame, and how `read_frame` splits a buffered byte stream back
//! into frames, including every way the stream can end. Then batching:
//! a worker connection answers the frames that arrived together with one
//! write, and a client writes its held frames in one write before it
//! reads.

use olden_exec::msg::{Envelope, Reply, Request};
use olden_exec::worker::{Worker, WorkerSlot};
use olden_exec::{Protocol, TransportCounters};
use olden_gptr::Word;
use olden_net::wire::{
    decode_reply, encode_envelope, encode_reply, read_frame, write_frame, FrameLink, MAX_FRAME,
};
use olden_net::worker::serve_frames;
use std::collections::VecDeque;
use std::io::{self, BufReader, Cursor, Read, Write};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

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

/// A worker for processor 0 with the counters nobody reads.
fn worker() -> Worker {
    let counters = Arc::new(TransportCounters::default());
    let progress = Arc::new(AtomicU64::new(0));
    let slot = Arc::new(WorkerSlot::default());
    Worker::new(0, Protocol::LocalKnowledge, slot, progress, counters, None)
}

/// Client 1's envelopes for `reqs`, numbered from `seq`.
fn envelopes(seq: u64, reqs: Vec<Request>) -> Vec<Envelope> {
    (seq..)
        .zip(reqs)
        .map(|(seq, req)| Envelope { src: 1, seq, req })
        .collect()
}

/// Client 1's envelope frames for `reqs`, numbered from `seq`.
fn frames(seq: u64, reqs: Vec<Request>) -> Vec<u8> {
    let mut out = Vec::new();
    for env in envelopes(seq, reqs) {
        write_frame(&mut out, &encode_envelope(&env)).unwrap();
    }
    out
}

/// `n` posted write-throughs to words 0..n of the section, word `i`
/// getting `i * 10`, then a read of word 3 that waits for its answer.
fn posts_then_read(n: u64) -> Vec<Request> {
    let write = |i: u64| Request::WriteHome {
        local: i,
        value: Word::from(i as i64 * 10),
        clock: None,
        track: false,
    };
    let read = Request::ReadHome {
        local: 3,
        clock: None,
    };
    (0..n).map(write).chain([read]).collect()
}

/// Every reply frame in `bytes`, decoded.
fn replies(bytes: &[u8]) -> Vec<Reply> {
    let mut r = Cursor::new(bytes);
    std::iter::from_fn(|| read_frame(&mut r).unwrap())
        .map(|body| decode_reply(&body).unwrap())
        .collect()
}

/// What the worker answers `posts_then_read(n)` with, frame by frame.
fn expected_replies(n: usize) -> Vec<Reply> {
    let mut want = vec![Reply::Unit; n];
    want.push(Reply::Word(Word::from(30i64)));
    want
}

/// A reader that hands out one chunk per `read` call, as a socket hands
/// out what has arrived.
struct Chunks(VecDeque<Vec<u8>>);

impl Read for Chunks {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(chunk) = self.0.pop_front() else {
            return Ok(0);
        };
        assert!(chunk.len() <= buf.len(), "a chunk fits the reader's buffer");
        buf[..chunk.len()].copy_from_slice(&chunk);
        Ok(chunk.len())
    }
}

#[test]
fn posts_and_the_request_behind_them_are_answered_in_order_in_one_write() {
    const N: usize = 6;
    let mut w = worker();
    let mut out = CountingWriter::default();
    let input = frames(1, posts_then_read(N as u64));
    let shutdown = serve_frames(&mut BufReader::new(Cursor::new(input)), &mut out, |env| {
        w.deliver(env)
    });
    assert!(!shutdown, "the input ended without a shutdown");
    assert_eq!(replies(&out.bytes), expected_replies(N));
    assert_eq!(out.writes, [out.bytes.len()], "one write for N + 1 replies");
}

#[test]
fn nothing_is_written_while_more_input_is_buffered() {
    const N: usize = 4;
    let reqs = posts_then_read(N as u64);
    let input = frames(1, reqs.clone());
    let read_start = frames(1, reqs[..N].to_vec()).len();
    let unit_frames = N * (4 + encode_reply(&Reply::Unit).len());

    // Split inside the read's frame: the posts are served while the rest
    // of it is still to come, so their replies wait for it.
    let cut = read_start + 3;
    let chunks = Chunks(VecDeque::from([
        input[..cut].to_vec(),
        input[cut..].to_vec(),
    ]));
    let (mut w, mut out) = (worker(), CountingWriter::default());
    serve_frames(&mut BufReader::new(chunks), &mut out, |env| w.deliver(env));
    assert_eq!(replies(&out.bytes), expected_replies(N));
    assert_eq!(
        out.writes,
        [out.bytes.len()],
        "no write before the input drained"
    );

    // Split between the posts and the read: each arrival is answered once
    // the input it brought is drained.
    let chunks = Chunks(VecDeque::from([
        input[..read_start].to_vec(),
        input[read_start..].to_vec(),
    ]));
    let (mut w, mut out) = (worker(), CountingWriter::default());
    serve_frames(&mut BufReader::new(chunks), &mut out, |env| w.deliver(env));
    assert_eq!(replies(&out.bytes), expected_replies(N));
    assert_eq!(out.writes, [unit_frames, out.bytes.len() - unit_frames]);
}

/// A client's end of a connection: replies read from `input`, writes
/// counted, and the number of writes made when the first read came.
#[derive(Default)]
struct Duplex {
    input: Cursor<Vec<u8>>,
    out: CountingWriter,
    writes_at_first_read: Option<usize>,
}

impl Read for Duplex {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.writes_at_first_read
            .get_or_insert(self.out.writes.len());
        self.input.read(buf)
    }
}

impl Write for Duplex {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_client_writes_its_held_frames_in_one_write_before_it_reads() {
    let mut reply = Vec::new();
    write_frame(&mut reply, &encode_reply(&Reply::Unit)).unwrap();
    let mut link = FrameLink::new(Duplex {
        input: Cursor::new(reply),
        ..Duplex::default()
    });
    let reqs = posts_then_read(3);
    let envs = envelopes(1, reqs.clone());
    let (read, posts) = envs.split_last().unwrap();
    posts.iter().for_each(|env| link.post(env));
    assert!(link.get_ref().out.writes.is_empty(), "posts are held");
    link.send(read).unwrap();
    let body = link.recv().unwrap().expect("one reply frame");
    assert_eq!(decode_reply(&body).unwrap(), Reply::Unit);
    let sent = frames(1, reqs);
    let duplex = link.get_ref();
    assert_eq!(duplex.out.bytes, sent, "the held frames, then the sent one");
    assert_eq!(duplex.out.writes, [sent.len()], "in one write");
    assert_eq!(
        duplex.writes_at_first_read,
        Some(1),
        "written before the read"
    );
}
