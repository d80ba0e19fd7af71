//! The [`Transport`] abstraction: how envelopes reach workers and how
//! replies come back.
//!
//! The client side of the protocol ([`ExecCtx::req`](crate::ExecCtx)) is
//! written against two small traits, and the worker side enters through
//! [`Worker::deliver`](crate::worker::Worker::deliver) on either fleet,
//! so the fault injection, retry/backoff, dedup, obs recording, and
//! sanitizer machinery run *identically* whether the fleet is in-process
//! threads or `olden-net`'s one-OS-process-per-processor TCP fleet:
//!
//! * [`ClientConn`] — one logical thread's outbound half: transmit an
//!   [`Envelope`] to a worker, block for that worker's [`Reply`]. A
//!   client has at most one request in flight (the reply doubles as the
//!   acknowledgement), so the reply path needs no request matching.
//! * [`Transport`] — the factory that mints a [`ClientConn`] per client
//!   id (fresh logical threads appear mid-run in parallel mode, and the
//!   orchestrator's control plane is just the client id
//!   [`CONTROL_SRC`](crate::msg::CONTROL_SRC)), and that says whether a
//!   processor's [`Worker`] lives in this process
//!   ([`Transport::resident`]). A logical thread services a request
//!   addressed to the resident processor it occupies in place instead of
//!   sending it: in place on threads, a message over `net`.
//!
//! The exactly-once contract the protocol relies on: a transport
//! delivers every transmitted envelope (losses are *injected* by the
//! chaos layer sender-side, never suffered), per-connection order is
//! FIFO, and the worker answers each *serviced* envelope with exactly
//! one reply (suppressed duplicates get none — the primary already
//! answered).
//!
//! [`MailboxTransport`] is the in-process implementation backing
//! [`try_run_exec`](crate::try_run_exec): an mpsc mailbox per worker, an
//! mpsc reply lane per client, and every worker's state behind a lock
//! shared by its serve loop and the logical threads resident on it.

use crate::envelope::Envelope;
use crate::msg::Reply;
use crate::worker::Worker;
use olden_gptr::ProcId;
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// One logical thread's connection to the worker fleet.
pub trait ClientConn: Send {
    /// Transmit one envelope to worker `dst`. Fire-and-forget: the fault
    /// layer calls this once per *copy* (primary, duplicate, delayed
    /// duplicate); transmission must not wait for servicing.
    fn send(&mut self, dst: ProcId, env: &Envelope);

    /// Block for the reply to this client's outstanding request at
    /// worker `dst`.
    fn recv_reply(&mut self, dst: ProcId) -> Reply;
}

/// Factory for per-client connections; the run's link to its fleet.
pub trait Transport: Send + Sync {
    /// Open the connection for client id `client`. Called once per
    /// logical thread (and once for the control plane).
    fn connect(&self, client: u64) -> Box<dyn ClientConn>;

    /// Processor `proc`'s worker state, when it lives in this process;
    /// `None` when only messages reach it. Whoever takes the lock holds
    /// it while one request is serviced and nothing else, as the serve
    /// loop does, so no wait ever happens under it.
    fn resident(&self, proc: ProcId) -> Option<&Mutex<Worker>>;
}

/// The in-process transport: one mpsc mailbox per worker thread, one
/// mpsc reply lane per client, and the workers themselves.
pub struct MailboxTransport {
    mailboxes: Vec<Sender<Envelope>>,
    /// Reply lanes by client id. A lock per reply is fine here — the
    /// mailbox transport is the testing/parity fleet, not a throughput
    /// play — and it keeps the worker loop free of per-client state.
    replies: Mutex<HashMap<u64, Sender<Reply>>>,
    /// Every processor's state, shared with its worker thread's serve
    /// loop.
    workers: Vec<Arc<Mutex<Worker>>>,
}

impl MailboxTransport {
    /// Build the transport over `workers` (processor `p` is
    /// `workers[p]`), returning the mailbox each worker thread serves.
    pub fn new(
        workers: Vec<Arc<Mutex<Worker>>>,
    ) -> (Arc<MailboxTransport>, Vec<Receiver<Envelope>>) {
        let (mailboxes, rxs) = workers.iter().map(|_| mpsc::channel()).unzip();
        let hub = Arc::new(MailboxTransport {
            mailboxes,
            replies: Mutex::new(HashMap::new()),
            workers,
        });
        (hub, rxs)
    }

    /// Send `reply` to client `dst` (an envelope's `src`). A client that
    /// already exited simply misses its reply.
    pub(crate) fn reply(&self, dst: u64, reply: Reply) {
        if let Some(tx) = self.replies.lock().unwrap().get(&dst) {
            let _ = tx.send(reply);
        }
    }
}

impl Transport for MailboxTransport {
    fn connect(&self, client: u64) -> Box<dyn ClientConn> {
        let (tx, rx) = mpsc::channel();
        self.replies.lock().unwrap().insert(client, tx);
        Box::new(MailboxConn {
            mailboxes: self.mailboxes.clone(),
            rx,
        })
    }

    fn resident(&self, proc: ProcId) -> Option<&Mutex<Worker>> {
        Some(&self.workers[proc as usize])
    }
}

/// Client half of [`MailboxTransport`].
pub struct MailboxConn {
    mailboxes: Vec<Sender<Envelope>>,
    rx: Receiver<Reply>,
}

impl ClientConn for MailboxConn {
    fn send(&mut self, dst: ProcId, env: &Envelope) {
        self.mailboxes[dst as usize]
            .send(env.clone())
            .expect("worker mailbox closed mid-run");
    }

    fn recv_reply(&mut self, _dst: ProcId) -> Reply {
        self.rx.recv().expect("worker dropped a reply")
    }
}
