//! The worker half of the network backend: one OS process per simulated
//! processor, delivering every frame through the same
//! [`olden_exec::worker::Worker::deliver`] entry as the thread backend's
//! mailbox loop (dedup, delivery accounting, then `handle`).
//!
//! Process lifecycle:
//!
//! 1. Bind a data listener on `127.0.0.1:0` (kernel-assigned port).
//! 2. Dial the parent's rendezvous port and send a `Hello` frame naming
//!    this processor and the data port. The rendezvous connection is
//!    then kept open as a **tether**: a thread blocks reading it, and an
//!    EOF (parent exited, cleanly or not) terminates this process, so a
//!    crashed parent can never leak worker processes.
//! 3. The main thread accepts data connections and gives each one its
//!    own thread ([`serve_frames`]). A client writes its posted requests
//!    and the one request it then waits on together: the connection's
//!    thread reads frames, delivers each under the worker's lock, and
//!    writes the replies back on the connection they came in on, in one
//!    write once the input it has read is drained. No reply routes, no
//!    hand-off between threads.
//! 4. A `Shutdown` envelope (on the parent's control connection) first
//!    waits for every other connection to close, so each copy a client
//!    transmitted has been delivered and counted; it then answers with
//!    the report and exits the process 0.
//!
//! The worker's [`TransportCounters`] and progress counter are
//! process-local throwaways — receiver-side accounting travels home in
//! the shutdown report (`deliveries` / `dupes_suppressed` fields), and
//! the parent's watchdog is driven by client-side progress alone.

use crate::wire::{append_frame, decode_envelope, encode_hello, read_frame, write_frame};
use olden_exec::msg::{Envelope, Reply, Request};
use olden_exec::worker::{Worker, WorkerSlot};
use olden_exec::{Protocol, TransportCounters};
use olden_gptr::ProcId;
use olden_obs::Recorder;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// What every connection thread of the process shares.
struct Served {
    worker: Mutex<Worker>,
    /// Data connections open right now, a shutdown's own included.
    open: Mutex<usize>,
    closed: Condvar,
}

const POISONED: &str = "worker: a connection thread panicked holding the lock";

/// Serve one connection's envelope frames from `input` until it ends,
/// answering on `output`. `deliver` services one envelope, or returns
/// `None` for a suppressed copy. Replies collect in one buffer, written
/// in one `write` once `input` holds no more buffered bytes: the frames
/// that arrived together (a client's posts and the request it waits on)
/// are answered together, and nothing is written while more input is
/// buffered. A `Shutdown`'s reply is written at once. Returns whether a
/// `Shutdown` was answered; otherwise the input ended, cleanly or not,
/// and either way the client is done.
pub fn serve_frames<R: Read, W: Write>(
    input: &mut BufReader<R>,
    output: &mut W,
    mut deliver: impl FnMut(Envelope) -> Option<Reply>,
) -> bool {
    let mut replies = Vec::new();
    while let Ok(Some(body)) = read_frame(input) {
        let env =
            decode_envelope(&body).unwrap_or_else(|e| panic!("malformed envelope frame: {e}"));
        let is_shutdown = matches!(env.req, Request::Shutdown);
        if let Some(reply) = deliver(env) {
            append_frame(&mut replies, &reply);
        }
        if is_shutdown || input.buffer().is_empty() {
            // A failed write means the client is gone — the run has
            // already aborted, so the replies have no reader.
            let _ = output.write_all(&replies);
            replies.clear();
        }
        if is_shutdown {
            return true;
        }
    }
    false
}

/// Serve one client connection until it closes (or a shutdown on it
/// ends the process).
fn serve_conn(conn: TcpStream, served: &Served) {
    let shutdown = serve_frames(&mut BufReader::new(&conn), &mut &conn, |env| {
        if matches!(env.req, Request::Shutdown) {
            // Every client has finished, but a copy it sent after its
            // last answered primary (a duplicate) may still be queued on
            // another connection: wait until that connection's thread
            // has read it to EOF, so the report counts it.
            let open = served.open.lock().expect(POISONED);
            drop(served.closed.wait_while(open, |n| *n > 1).expect(POISONED));
        }
        served.worker.lock().expect(POISONED).deliver(env)
    });
    if shutdown {
        std::process::exit(0);
    }
    *served.open.lock().expect(POISONED) -= 1;
    served.closed.notify_all();
}

/// The spawn protocol's argument list, as the parent appends it to the
/// worker command.
pub const WORKER_USAGE: &str = "<proc> <parent_port> <record:0|1> <protocol>";

fn parse_args(args: &[String]) -> Option<(ProcId, u16, bool, Protocol)> {
    let [proc, port, record, protocol] = args else {
        return None;
    };
    let record = match record.as_str() {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    Some((
        proc.parse().ok()?,
        port.parse().ok()?,
        record,
        Protocol::from_name(protocol)?,
    ))
}

/// Parse [`WORKER_USAGE`] and run [`worker_main`]: the whole `main` of a
/// worker binary. A malformed list exits 2 with the usage line.
pub fn main_from_args(args: &[String]) -> ! {
    match parse_args(args) {
        Some((proc, port, record, protocol)) => worker_main(proc, port, record, protocol),
        None => {
            eprintln!("net worker: bad arguments {args:?}; usage: {WORKER_USAGE}");
            std::process::exit(2);
        }
    }
}

/// Run one worker process to completion. Never returns: exits 0 after a
/// clean shutdown, or immediately when the parent's tether drops.
pub fn worker_main(proc: ProcId, parent_port: u16, record: bool, protocol: Protocol) -> ! {
    let listener =
        TcpListener::bind(("127.0.0.1", 0)).expect("worker: bind loopback data listener");
    let port = listener
        .local_addr()
        .expect("worker: data listener address")
        .port();

    // Rendezvous: announce ourselves, then hold the connection as a
    // parent-death tether.
    let mut tether =
        TcpStream::connect(("127.0.0.1", parent_port)).expect("worker: dial parent rendezvous");
    write_frame(&mut tether, &encode_hello(proc, port)).expect("worker: send hello frame");
    thread::Builder::new()
        .name("olden-net-tether".into())
        .spawn(move || {
            // The parent never writes here; the read only completes
            // when the parent process is gone.
            let mut byte = [0u8; 1];
            let _ = tether.read(&mut byte);
            std::process::exit(0);
        })
        .expect("worker: spawn tether thread");

    // The slot / progress / counters instances are process-local: nobody
    // on this side reads them. The values that matter (deliveries,
    // dupes_suppressed, cache stats, races, lane) ship home inside the
    // shutdown report. The recorder epoch is likewise local — cross-lane
    // timestamp alignment is meaningless across processes, and the
    // parity surface compares (kind, phase, arg) only.
    let served = Arc::new(Served {
        worker: Mutex::new(Worker::new(
            proc,
            protocol,
            Arc::new(WorkerSlot::default()),
            Arc::new(AtomicU64::new(0)),
            Arc::new(TransportCounters::default()),
            record.then(|| Recorder::exec(Instant::now())),
        )),
        open: Mutex::new(0),
        closed: Condvar::new(),
    });
    loop {
        let Ok((conn, _)) = listener.accept() else {
            continue;
        };
        let _ = conn.set_nodelay(true);
        *served.open.lock().expect(POISONED) += 1;
        let served = Arc::clone(&served);
        thread::Builder::new()
            .name("olden-net-conn".into())
            .spawn(move || serve_conn(conn, &served))
            .expect("worker: spawn connection thread");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_argv_parses_or_is_rejected_whole() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&argv("3 4100 1 global")),
            Some((3, 4100, true, Protocol::GlobalKnowledge))
        );
        for bad in [
            "3 4100 1",
            "3 4100 1 global extra",
            "x 4100 0 local",
            "3 70000 0 local",
            "3 4100 2 local",
            "3 4100 0 mesi",
        ] {
            assert_eq!(parse_args(&argv(bad)), None, "{bad}");
        }
    }
}
