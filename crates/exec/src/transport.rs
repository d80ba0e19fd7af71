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
//!   [`Envelope`] to a worker, read that worker's next [`Reply`]. A sent
//!   envelope may be held until the client next reads from that worker
//!   or flushes, so the posted requests a client does not wait for
//!   travel as one batch with the request it does wait for. Each worker
//!   answers a client's requests in the order it received them, so the
//!   reply path needs no request matching.
//! * [`Transport`] — the factory that mints a [`ClientConn`] per client
//!   id (fresh logical threads appear mid-run in parallel mode, and the
//!   orchestrator's control plane is just the client id
//!   [`CONTROL_SRC`](crate::msg::CONTROL_SRC)), and that says whether a
//!   processor's [`Worker`] lives in this process
//!   ([`Transport::resident`]). A logical thread services a request
//!   addressed to the resident processor it occupies, or any request of
//!   an uncharged region, in place instead of sending it: in place on
//!   threads, a message over `net`.
//!
//! The exactly-once contract the protocol relies on: a transport
//! delivers every transmitted envelope (losses are *injected* by the
//! chaos layer sender-side, never suffered), per-(client, worker) order
//! is FIFO both ways, and the worker answers each *serviced* envelope
//! with exactly one reply (suppressed duplicates get none — the primary
//! already answered).
//!
//! [`MailboxTransport`] is the in-process implementation backing
//! [`try_run_exec`](crate::try_run_exec): a [`Lane`] mailbox per worker,
//! a [`Lane`] of replies per (client, worker) opened on the client's
//! first transmit to that worker, and every worker's state behind a lock
//! shared by its serve loop and the logical threads resident on it.

use crate::envelope::Envelope;
use crate::msg::Reply;
use crate::worker::Worker;
use olden_gptr::ProcId;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// One logical thread's connection to the worker fleet. Sending is
/// fire-and-forget: the fault layer sends once per *copy* (primary,
/// duplicate, delayed duplicate), and neither way of sending waits for
/// servicing. Per worker, envelopes are transmitted in the order they
/// were sent or posted.
pub trait ClientConn: Send {
    /// Transmit one envelope to worker `dst` now, behind whatever is
    /// held for `dst`, as one batch.
    fn send(&mut self, dst: ProcId, env: &Envelope);

    /// Hold one envelope for worker `dst` until the next
    /// [`ClientConn::send`] to `dst` or [`ClientConn::flush`]: a posted
    /// request travels with the next request that waits.
    fn post(&mut self, dst: ProcId, env: &Envelope);

    /// Transmit everything held, to every worker.
    fn flush(&mut self);

    /// Block for `dst`'s next reply to this client: replies come back in
    /// the order `dst` received the requests.
    fn recv_reply(&mut self, dst: ProcId) -> Reply;
}

/// Factory for per-client connections; the run's link to its fleet.
pub trait Transport: Send + Sync {
    /// Open the connection for client id `client`. Called once per
    /// logical thread (and once for the control plane).
    fn connect(&self, client: u64) -> Box<dyn ClientConn>;

    /// Processor `proc`'s worker state, when it lives in this process;
    /// `None` when only messages reach it. Whoever takes the lock holds
    /// it only while servicing requests — one in place, or the serve
    /// loop's batch — so no wait ever happens under it.
    fn resident(&self, proc: ProcId) -> Option<&Mutex<Worker>>;
}

/// A FIFO hand-off between threads: any number of producers, one
/// consumer. A push moves a whole batch for one lock and one wake-up,
/// and wakes the consumer only after releasing the lock, so a woken
/// consumer never finds it held (see DESIGN §4); a producer holding some
/// other lock queues quietly and wakes once it has released that one.
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

    /// Append `items`, in order, under one lock, then wake the consumer.
    pub fn push_batch(&self, items: impl IntoIterator<Item = T>) {
        self.queue.lock().unwrap().0.extend(items);
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

    /// Append `item` without waking the consumer: a producer queueing
    /// several calls [`Lane::wake`] once after the last.
    pub(crate) fn push_quiet(&self, item: T) {
        self.queue.lock().unwrap().0.push_back(item);
    }

    /// Wake the consumer.
    pub(crate) fn wake(&self) {
        self.ready.notify_one();
    }

    /// Every queued item, oldest first, swapped into the empty `out`,
    /// blocking while the lane is empty; `false` (and `out` still empty)
    /// once the lane is closed and drained. The swap hands the lane
    /// `out`'s buffer, so a consumer that pops into the same `VecDeque`
    /// each time allocates nothing once both buffers have grown.
    pub fn pop_batch(&self, out: &mut VecDeque<T>) -> bool {
        debug_assert!(out.is_empty(), "pop_batch into a non-empty buffer");
        let mut queue = self.queue.lock().unwrap();
        while queue.0.is_empty() && !queue.1 {
            queue = self.ready.wait(queue).unwrap();
        }
        std::mem::swap(&mut queue.0, out);
        !out.is_empty()
    }

    /// Let the pops return nothing once the items already pushed are gone.
    pub fn close(&self) {
        self.queue.lock().unwrap().1 = true;
        self.ready.notify_all();
    }
}

/// Every client's reply lanes, by (client, worker).
type ReplyLanes = Mutex<HashMap<(u64, ProcId), Arc<Lane<Reply>>>>;

/// The in-process transport: one mailbox per worker thread, one reply
/// lane per (client, worker), and the workers themselves.
pub struct MailboxTransport {
    mailboxes: Vec<Arc<Lane<Envelope>>>,
    /// Kept here so the worker loop holds no per-client state. A client
    /// opens its lane from a worker on its first transmit there, and
    /// removes its lanes when its connection drops.
    replies: Arc<ReplyLanes>,
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
            replies: Arc::default(),
            workers,
        });
        (hub, mailboxes)
    }

    /// Worker `from`'s reply queue, empty.
    pub(crate) fn replies(&self, from: ProcId) -> ReplyBatch<'_> {
        ReplyBatch {
            hub: self,
            from,
            open: None,
            runs: Vec::new(),
        }
    }
}

/// One worker's replies to its batches of envelopes. While the worker's
/// lock is held, each reply is queued on its client's lane without a
/// wake-up; [`ReplyBatch::wake`], called once the lock is released,
/// wakes each client once per run of consecutive replies to it.
pub(crate) struct ReplyBatch<'a> {
    hub: &'a MailboxTransport,
    from: ProcId,
    /// The client of the run being queued.
    open: Option<u64>,
    /// The lane of each run queued since the last wake, oldest first
    /// (`None` for a client that already exited); reused across batches.
    runs: Vec<Option<Arc<Lane<Reply>>>>,
}

impl ReplyBatch<'_> {
    /// Queue `reply` to `client`. A client that already exited (or never
    /// connected) never reads it.
    pub(crate) fn queue(&mut self, client: u64, reply: Reply) {
        if self.open != Some(client) {
            self.open = Some(client);
            let lanes = self.hub.replies.lock().unwrap();
            self.runs.push(lanes.get(&(client, self.from)).cloned());
        }
        if let Some(Some(lane)) = self.runs.last() {
            lane.push_quiet(reply);
        }
    }

    /// Wake the client of every run queued since the last wake.
    pub(crate) fn wake(&mut self) {
        self.open = None;
        self.runs.drain(..).flatten().for_each(|lane| lane.wake());
    }
}

impl Transport for MailboxTransport {
    fn connect(&self, client: u64) -> Box<dyn ClientConn> {
        let procs = self.mailboxes.len();
        Box::new(MailboxConn {
            client,
            mailboxes: self.mailboxes.clone(),
            lanes: Arc::clone(&self.replies),
            rx: vec![None; procs],
            held: vec![Vec::new(); procs],
        })
    }

    fn resident(&self, proc: ProcId) -> Option<&Mutex<Worker>> {
        Some(&self.workers[proc as usize])
    }
}

/// Client half of [`MailboxTransport`].
pub struct MailboxConn {
    client: u64,
    mailboxes: Vec<Arc<Lane<Envelope>>>,
    /// Every client's reply lanes, shared with the hub.
    lanes: Arc<ReplyLanes>,
    /// Each worker's replies to this client, once it has transmitted
    /// there.
    rx: Vec<Option<Arc<Lane<Reply>>>>,
    /// Envelopes posted but not yet pushed, by worker.
    held: Vec<Vec<Envelope>>,
}

impl MailboxConn {
    /// Push everything held for `dst` as one batch, opening this client's
    /// reply lane from `dst` first if this is its first transmit there.
    fn transmit(&mut self, dst: ProcId) {
        let d = dst as usize;
        if self.rx[d].is_none() {
            let lane = Lane::new();
            self.lanes
                .lock()
                .unwrap()
                .insert((self.client, dst), Arc::clone(&lane));
            self.rx[d] = Some(lane);
        }
        self.mailboxes[d].push_batch(self.held[d].drain(..));
    }
}

impl ClientConn for MailboxConn {
    fn send(&mut self, dst: ProcId, env: &Envelope) {
        self.held[dst as usize].push(env.clone());
        self.transmit(dst);
    }

    fn post(&mut self, dst: ProcId, env: &Envelope) {
        self.held[dst as usize].push(env.clone());
    }

    fn flush(&mut self) {
        for dst in 0..self.held.len() {
            if !self.held[dst].is_empty() {
                self.transmit(dst as ProcId);
            }
        }
    }

    fn recv_reply(&mut self, dst: ProcId) -> Reply {
        self.rx[dst as usize]
            .as_ref()
            .expect("replies come only from a worker sent to")
            .pop()
            .expect("reply lanes are never closed")
    }
}

impl Drop for MailboxConn {
    fn drop(&mut self) {
        let mut lanes = self.lanes.lock().unwrap_or_else(PoisonError::into_inner);
        for (dst, rx) in self.rx.iter().enumerate() {
            if rx.is_some() {
                lanes.remove(&(self.client, dst as ProcId));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Lane;
    use std::collections::VecDeque;
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
                thread::spawn(move || (0..PUSHES).for_each(|i| lane.push_batch([(p, i)])))
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
        lane.push_batch([7]);
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
        lane.push_batch([1]);
        assert_eq!(lane.pop(), Some(1));
        assert_eq!(lane.pop(), None);
    }

    /// Four producers push batches of varying length; the consumer pops
    /// whatever is queued each time. Each producer's items still arrive in
    /// the order it pushed them, across batch boundaries on both sides.
    #[test]
    fn batches_are_fifo_per_producer() {
        const PRODUCERS: u64 = 4;
        const PUSHES: u64 = 10_000;
        let lane = Lane::new();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let lane = lane.clone();
                thread::spawn(move || {
                    let mut i = 0;
                    while i < PUSHES {
                        let n = (1 + (i + p) % 7).min(PUSHES - i);
                        lane.push_batch((i..i + n).map(|i| (p, i)));
                        i += n;
                    }
                })
            })
            .collect();
        let (mut next, mut batch) = ([0; PRODUCERS as usize], VecDeque::new());
        while next.iter().sum::<u64>() < PRODUCERS * PUSHES {
            assert!(lane.pop_batch(&mut batch));
            for (p, i) in batch.drain(..) {
                assert_eq!(i, next[p as usize], "producer {p} out of order");
                next[p as usize] += 1;
            }
        }
        producers.into_iter().for_each(|h| h.join().unwrap());
        assert_eq!(next, [PUSHES; PRODUCERS as usize]);
    }

    /// A batch pop that blocks on an empty lane returns the whole batch
    /// pushed later, not its first item. As above, the sleep only makes
    /// the blocking order likely; either order must return the batch.
    #[test]
    fn batch_pop_blocked_before_the_push_returns_the_whole_batch() {
        let lane = Lane::new();
        let consumer = thread::spawn({
            let lane = lane.clone();
            move || {
                let mut batch = VecDeque::new();
                lane.pop_batch(&mut batch);
                batch
            }
        });
        thread::sleep(Duration::from_millis(50));
        lane.push_batch([1, 2, 3]);
        assert_eq!(consumer.join().unwrap(), [1, 2, 3]);
    }

    /// Closing wakes a blocked batch pop with nothing; a closed lane
    /// still hands out what was pushed before it reports the end.
    #[test]
    fn close_wakes_a_blocked_batch_pop_with_nothing() {
        let lane = Lane::<u32>::new();
        let consumer = thread::spawn({
            let lane = lane.clone();
            move || {
                let mut batch = VecDeque::new();
                (lane.pop_batch(&mut batch), batch)
            }
        });
        thread::sleep(Duration::from_millis(50));
        lane.close();
        assert_eq!(consumer.join().unwrap(), (false, VecDeque::new()));
        lane.push_batch([4, 5]);
        let mut batch = VecDeque::new();
        assert!(lane.pop_batch(&mut batch));
        assert_eq!(batch, [4, 5]);
        batch.clear();
        assert!(!lane.pop_batch(&mut batch));
    }
}
