//! The worker half of the network backend: one OS process per simulated
//! processor, running the exact same [`olden_exec::worker::Worker`] loop
//! as the thread backend, fed by a [`NetWorkerPort`] instead of an
//! in-process mailbox.
//!
//! Process lifecycle:
//!
//! 1. Bind a data listener on `127.0.0.1:0` (kernel-assigned port).
//! 2. Dial the parent's rendezvous port and send a `Hello` frame naming
//!    this processor and the data port. The rendezvous connection is
//!    then kept open as a **tether**: a thread blocks reading it, and an
//!    EOF (parent exited, cleanly or not) terminates this process, so a
//!    crashed parent can never leak worker processes.
//! 3. Accept data connections. Each client holds one connection per
//!    worker, so a connection carries envelopes from exactly one `src`;
//!    a reader thread per connection decodes frames and funnels them
//!    into the single serve loop, registering the connection as the
//!    reply route for that `src` first.
//! 4. Run [`olden_exec::worker::Worker::serve`] until a `Shutdown`
//!    envelope arrives, then exit 0.
//!
//! The worker's [`TransportCounters`] and progress counter are
//! process-local throwaways — receiver-side accounting travels home in
//! the shutdown report (`deliveries` / `dupes_suppressed` fields), and
//! the parent's watchdog is driven by client-side progress alone.

use crate::wire::{decode_envelope, encode_reply, read_frame, write_frame};
use olden_exec::msg::{Envelope, Reply};
use olden_exec::worker::{Worker, WorkerSlot};
use olden_exec::{Protocol, TransportCounters, WorkerPort};
use olden_gptr::ProcId;
use olden_obs::Recorder;
use std::collections::HashMap;
use std::io::Read as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

/// Reply routes: the latest connection each `src` sent an envelope on.
type Writers = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// [`WorkerPort`] over TCP: envelopes arrive via the per-connection
/// reader threads, replies go back on the connection the request came
/// in on.
pub struct NetWorkerPort {
    rx: Receiver<Envelope>,
    writers: Writers,
}

impl WorkerPort for NetWorkerPort {
    fn recv(&mut self) -> Option<Envelope> {
        self.rx.recv().ok()
    }

    fn reply(&mut self, dst: u64, reply: Reply) {
        let conn = {
            let writers = self.writers.lock().unwrap();
            writers.get(&dst).and_then(|c| c.try_clone().ok())
        };
        // A missing or dead route means the client is gone — the run has
        // already aborted, so the reply has no reader; drop it.
        if let Some(mut conn) = conn {
            let _ = write_frame(&mut conn, &encode_reply(&reply));
        }
    }
}

/// Decode envelopes off one client connection into the serve loop.
fn read_loop(mut conn: TcpStream, tx: Sender<Envelope>, writers: Writers) {
    loop {
        let body = match read_frame(&mut conn) {
            Ok(Some(body)) => body,
            // Clean or dirty close either way: this client connection is
            // done. The serve loop keeps running for the others.
            Ok(None) | Err(_) => return,
        };
        let env = match decode_envelope(&body) {
            Ok(env) => env,
            Err(e) => panic!("malformed envelope frame: {e}"),
        };
        // Register the reply route before handing the envelope over so
        // the serve loop can always answer it.
        if let Ok(back) = conn.try_clone() {
            writers.lock().unwrap().insert(env.src, back);
        }
        if tx.send(env).is_err() {
            return; // serve loop exited (shutdown)
        }
    }
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
    write_frame(&mut tether, &crate::wire::encode_hello(proc, port))
        .expect("worker: send hello frame");
    {
        let mut tether = tether.try_clone().expect("worker: clone tether");
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
    }

    let (tx, rx) = mpsc::channel();
    let writers: Writers = Arc::default();
    {
        let writers = Arc::clone(&writers);
        thread::Builder::new()
            .name("olden-net-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    let Ok(conn) = conn else { continue };
                    let _ = conn.set_nodelay(true);
                    let tx = tx.clone();
                    let writers = Arc::clone(&writers);
                    thread::Builder::new()
                        .name("olden-net-read".into())
                        .spawn(move || read_loop(conn, tx, writers))
                        .expect("worker: spawn reader thread");
                }
            })
            .expect("worker: spawn accept thread");
    }

    // The slot / progress / counters instances are process-local: nobody
    // on this side reads them. The values that matter (deliveries,
    // dupes_suppressed, cache stats, races, lane) ship home inside the
    // shutdown report. The recorder epoch is likewise local — cross-lane
    // timestamp alignment is meaningless across processes, and the
    // parity surface compares (kind, phase, arg) only.
    let worker = Worker::new(
        proc,
        protocol,
        Arc::new(WorkerSlot::default()),
        Arc::new(AtomicU64::new(0)),
        Arc::new(TransportCounters::default()),
        record.then(|| Recorder::exec(Instant::now())),
    );
    Worker::serve(&Mutex::new(worker), NetWorkerPort { rx, writers });
    std::process::exit(0);
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
