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
//! [`try_run_exec`](crate::try_run_exec): a [`Lane`] mailbox per worker,
//! a [`Lane`] of replies per client, and every worker's state behind a
//! lock shared by its serve loop and the logical threads resident on it.

use crate::envelope::Envelope;
use crate::msg::Reply;
use crate::worker::Worker;
use olden_gptr::ProcId;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

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

/// A FIFO hand-off between threads: any number of producers, one
/// consumer. `push` wakes the consumer only after releasing the lock, so
/// a woken consumer never finds it held (see DESIGN §4).
pub struct Lane<T> {
    /// The items, oldest first, and whether the lane is closed.
    queue: Mutex<(VecDeque<T>, bool)>,
    ready: Condvar,
}

impl<T> Lane<T> {
    pub fn new() -> Arc<Lane<T>> {
        Arc::new(Lane {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        })
    }

    pub fn push(&self, item: T) {
        self.queue.lock().unwrap().0.push_back(item);
        self.ready.notify_one();
    }

    /// The oldest item, blocking while the lane is empty; `None` once the
    /// lane is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut queue = self.queue.lock().unwrap();
        while queue.0.is_empty() && !queue.1 {
            queue = self.ready.wait(queue).unwrap();
        }
        queue.0.pop_front()
    }

    /// Let `pop` return `None` once the items already pushed are gone.
    pub fn close(&self) {
        self.queue.lock().unwrap().1 = true;
        self.ready.notify_all();
    }
}

/// The in-process transport: one mailbox per worker thread, one reply
/// lane per client, and the workers themselves.
pub struct MailboxTransport {
    mailboxes: Vec<Arc<Lane<Envelope>>>,
    /// Reply lanes by client id, kept here so the worker loop holds no
    /// per-client state.
    replies: Mutex<HashMap<u64, Arc<Lane<Reply>>>>,
    /// Every processor's state, shared with its worker thread's serve
    /// loop.
    workers: Vec<Arc<Mutex<Worker>>>,
}

impl MailboxTransport {
    /// Build the transport over `workers` (processor `p` is
    /// `workers[p]`), returning the mailbox each worker thread serves.
    pub fn new(
        workers: Vec<Arc<Mutex<Worker>>>,
    ) -> (Arc<MailboxTransport>, Vec<Arc<Lane<Envelope>>>) {
        let mailboxes: Vec<_> = workers.iter().map(|_| Lane::new()).collect();
        let hub = Arc::new(MailboxTransport {
            mailboxes: mailboxes.clone(),
            replies: Mutex::new(HashMap::new()),
            workers,
        });
        (hub, mailboxes)
    }

    /// Send `reply` to client `dst` (an envelope's `src`), outside the
    /// map's lock. A client that already exited never reads it.
    pub(crate) fn reply(&self, dst: u64, reply: Reply) {
        let lane = self.replies.lock().unwrap().get(&dst).cloned();
        if let Some(lane) = lane {
            lane.push(reply);
        }
    }
}

impl Transport for MailboxTransport {
    fn connect(&self, client: u64) -> Box<dyn ClientConn> {
        let rx = Lane::new();
        self.replies.lock().unwrap().insert(client, Arc::clone(&rx));
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
    mailboxes: Vec<Arc<Lane<Envelope>>>,
    rx: Arc<Lane<Reply>>,
}

impl ClientConn for MailboxConn {
    fn send(&mut self, dst: ProcId, env: &Envelope) {
        self.mailboxes[dst as usize].push(env.clone());
    }

    fn recv_reply(&mut self, _dst: ProcId) -> Reply {
        self.rx.pop().expect("reply lanes are never closed")
    }
}

#[cfg(test)]
mod tests {
    use super::Lane;
    use std::thread;
    use std::time::Duration;

    /// Four producers interleave freely, but each one's items reach the
    /// single consumer in the order it pushed them, and none is lost.
    #[test]
    fn lane_is_fifo_per_producer() {
        const PRODUCERS: u64 = 4;
        const PUSHES: u64 = 10_000;
        let lane = Lane::new();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let lane = lane.clone();
                thread::spawn(move || (0..PUSHES).for_each(|i| lane.push((p, i))))
            })
            .collect();
        let mut next = [0; PRODUCERS as usize];
        for _ in 0..PRODUCERS * PUSHES {
            let (p, i) = lane.pop().unwrap();
            assert_eq!(i, next[p as usize], "producer {p} out of order");
            next[p as usize] += 1;
        }
        producers.into_iter().for_each(|h| h.join().unwrap());
        assert_eq!(next, [PUSHES; PRODUCERS as usize]);
    }

    /// A consumer that blocks on an empty lane gets the item pushed later.
    /// The sleep only makes it likely that `pop` waits before the push;
    /// either order must return the item.
    #[test]
    fn pop_blocked_before_the_push_returns_the_item() {
        let lane = Lane::new();
        let consumer = thread::spawn({
            let lane = lane.clone();
            move || lane.pop()
        });
        thread::sleep(Duration::from_millis(50));
        lane.push(7);
        assert_eq!(consumer.join().unwrap(), Some(7));
    }

    /// Closing wakes a blocked consumer with `None`; a closed lane still
    /// hands out what was pushed before `None`.
    #[test]
    fn close_wakes_a_blocked_pop() {
        let lane = Lane::<u32>::new();
        let consumer = thread::spawn({
            let lane = lane.clone();
            move || lane.pop()
        });
        thread::sleep(Duration::from_millis(50));
        lane.close();
        assert_eq!(consumer.join().unwrap(), None);
        lane.push(1);
        assert_eq!(lane.pop(), Some(1));
        assert_eq!(lane.pop(), None);
    }
}
