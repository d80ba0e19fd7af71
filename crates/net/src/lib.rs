//! `olden-net`: the multi-process distributed backend.
//!
//! The third backend of the stack. The simulator models an Olden machine
//! in one thread; `olden-exec` runs real worker *threads* over in-process
//! mailboxes; this crate runs real worker *processes* — one per simulated
//! processor — speaking a hand-rolled, length-prefixed binary protocol
//! over loopback TCP (see [`wire`]). Everything above the transport is
//! shared with the thread backend through `olden_exec`'s [`Transport`]
//! abstraction: the client logic (`ExecCtx`), the worker's delivery entry
//! (`Worker::deliver`), the chaos fault layer, sequence-number dedup, the
//! stall watchdog, obs recording, and the vector-clock sanitizer are
//! byte-for-byte the same code, so lockstep runs reconcile with the
//! simulator exactly as the thread backend does.
//!
//! Topology per run:
//!
//! - The parent binds a **rendezvous** listener and spawns one worker
//!   process per processor, passing the rendezvous port on the command
//!   line ([`NetConfig::worker_cmd`] names the binary).
//! - Each worker binds its own data listener, dials the rendezvous port,
//!   and announces `(proc, data_port)` in a `Hello` frame. The
//!   rendezvous connection stays open as a parent-death tether (worker
//!   side: EOF ⇒ exit), and the parent kills the fleet via
//!   `FleetGuard` on any error path, so neither side can leak
//!   processes.
//! - Clients (the root logical thread, and one thread per spawned future
//!   in parallel mode) each get a [`ClientConn`] holding one lazy TCP
//!   connection per worker. A client writes the requests it posted with
//!   the next one it waits on, in one write, and then reads their replies
//!   in order: the worker serves each connection on its own thread and
//!   writes the replies back on the connection their requests came in
//!   on, in one write once it has read all that arrived, with no reply
//!   routing at all.
//! - Shutdown drains the fleet in processor order over a control
//!   connection (src = `CONTROL_SRC`, bypasses dedup), collecting each
//!   worker's [`WorkerReport`](olden_exec::msg::WorkerReport) — cache
//!   counters, receiver-side transport counts, races, and its obs lane —
//!   then waits for every child to exit 0.
//!
//! Chaos over real sockets: fault verdicts are *sender-side* (a `Drop`
//! is counted as a send but never written to the socket), so TCP's
//! reliability is not in tension with the fault model — every frame that
//! is actually transmitted is delivered, and the conservation law
//! (`sends = deliveries + drops`) holds exactly, which
//! `assemble_report` self-checks on every run.

pub mod wire;
pub mod worker;

use olden_exec::msg::{Envelope, Reply};
use olden_exec::worker::Worker;
use olden_exec::{
    assemble_report, drain_fleet, drive_root, dump_clients, ClientConn, ExecConfig, ExecCtx,
    ExecError, ExecReport, Shared, Transport, TransportCounters,
};
use olden_gptr::{ProcId, MAX_PROCS};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command};
use std::sync::atomic::AtomicU64;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;
use wire::{decode_hello, decode_reply, read_frame, FrameLink};

/// Configuration for one network-backend run: the shared exec-layer
/// settings plus the command that starts a worker process.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The transport-independent settings (procs, mode, fault plan,
    /// stall timeout, sanitizer, recording, …), interpreted identically
    /// to the thread backend.
    pub exec: ExecConfig,
    /// Command prefix that execs one worker process; the orchestrator
    /// appends `<proc> <parent_port> <record> <protocol>`. Tests use the
    /// `olden-net-worker` binary; `oldenc` uses itself with a hidden
    /// `net-worker` subcommand.
    pub worker_cmd: Vec<String>,
}

impl NetConfig {
    pub fn new(exec: ExecConfig, worker_cmd: Vec<String>) -> NetConfig {
        NetConfig { exec, worker_cmd }
    }
}

/// Whether loopback TCP works in this environment (sandboxes sometimes
/// deny even 127.0.0.1 binds). CI uses this to skip the net suite
/// gracefully instead of failing it.
pub fn loopback_available() -> bool {
    TcpListener::bind(("127.0.0.1", 0)).is_ok()
}

// ---------------------------------------------------------------------
// Client-side transport
// ---------------------------------------------------------------------

/// [`Transport`] over loopback TCP: knows every worker's data port and
/// mints one [`TcpConn`] per client.
struct TcpTransport {
    ports: Vec<u16>,
}

impl Transport for TcpTransport {
    fn connect(&self, _client: u64) -> Box<dyn ClientConn> {
        Box::new(TcpConn::new(self.ports.clone(), None))
    }

    /// Every processor's state lives in its worker process, so every
    /// request — local ones included — is a round trip.
    fn resident(&self, _proc: ProcId) -> Option<&Mutex<Worker>> {
        None
    }
}

/// One client's connections to the fleet, dialed lazily on first use so
/// a client that never touches a worker costs that worker nothing.
struct TcpConn {
    ports: Vec<u16>,
    links: Vec<Option<FrameLink<TcpStream>>>,
    /// Set on the control connection only: a worker that hangs during
    /// the shutdown drain should fail the run loudly, not wedge it.
    read_timeout: Option<Duration>,
}

impl TcpConn {
    fn new(ports: Vec<u16>, read_timeout: Option<Duration>) -> TcpConn {
        let n = ports.len();
        TcpConn {
            ports,
            links: (0..n).map(|_| None).collect(),
            read_timeout,
        }
    }

    fn link(&mut self, dst: ProcId) -> &mut FrameLink<TcpStream> {
        let i = dst as usize;
        if self.links[i].is_none() {
            let s = TcpStream::connect(("127.0.0.1", self.ports[i]))
                .expect("net: connect to worker data port");
            s.set_nodelay(true).expect("net: set NODELAY");
            s.set_read_timeout(self.read_timeout)
                .expect("net: set read timeout");
            self.links[i] = Some(FrameLink::new(s));
        }
        self.links[i].as_mut().unwrap()
    }
}

impl ClientConn for TcpConn {
    fn send(&mut self, dst: ProcId, env: &Envelope) {
        self.link(dst)
            .send(env)
            .expect("net: worker connection lost mid-send");
    }

    fn post(&mut self, dst: ProcId, env: &Envelope) {
        self.link(dst).post(env);
    }

    fn flush(&mut self) {
        for link in self.links.iter_mut().flatten() {
            link.flush().expect("net: worker connection lost mid-send");
        }
    }

    fn recv_reply(&mut self, dst: ProcId) -> Reply {
        let body = self
            .link(dst)
            .recv()
            .expect("net: read reply frame")
            .expect("net: worker closed connection mid-request");
        match decode_reply(&body) {
            Ok(reply) => reply,
            Err(e) => panic!("net: malformed reply frame from worker {dst}: {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Fleet lifecycle
// ---------------------------------------------------------------------

/// Kills the worker fleet if the run unwinds before the orderly
/// shutdown drain; disarmed once every child has been waited on.
struct FleetGuard {
    children: Vec<Child>,
    armed: bool,
}

impl FleetGuard {
    fn new() -> FleetGuard {
        FleetGuard {
            children: Vec::new(),
            armed: true,
        }
    }

    /// Wait for every child to exit cleanly (the success path).
    fn join(mut self) {
        self.armed = false;
        for child in &mut self.children {
            let status = child.wait().expect("net: wait for worker process");
            assert!(status.success(), "net: worker process exited with {status}");
        }
    }
}

impl Drop for FleetGuard {
    fn drop(&mut self) {
        if self.armed {
            for child in &mut self.children {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Spawn the fleet and collect the handshake: every worker's data port,
/// plus the rendezvous connections kept open as tethers.
fn spawn_fleet(
    cfg: &NetConfig,
    guard: &mut FleetGuard,
) -> Result<(Vec<u16>, Vec<TcpStream>), ExecError> {
    let procs = cfg.exec.procs;
    let rendezvous = TcpListener::bind(("127.0.0.1", 0)).expect("net: bind rendezvous listener");
    let parent_port = rendezvous
        .local_addr()
        .expect("net: rendezvous address")
        .port();

    let (bin, prefix) = cfg
        .worker_cmd
        .split_first()
        .expect("net: worker_cmd must name a binary");
    for p in 0..procs {
        let child = Command::new(bin)
            .args(prefix)
            .arg(p.to_string())
            .arg(parent_port.to_string())
            .arg(if cfg.exec.record { "1" } else { "0" })
            .arg(cfg.exec.protocol.name())
            .spawn()
            .unwrap_or_else(|e| panic!("net: spawn worker {p} ({bin}): {e}"));
        guard.children.push(child);
    }

    // Collector thread: accept and decode hellos; the main thread owns
    // the timeout so a half-arrived fleet turns into a typed error.
    let (htx, hrx) = mpsc::channel();
    let collector = thread::Builder::new()
        .name("olden-net-rendezvous".into())
        .spawn(move || {
            for _ in 0..procs {
                let Ok((mut conn, _)) = rendezvous.accept() else {
                    return;
                };
                let hello = match read_frame(&mut conn) {
                    Ok(Some(body)) => body,
                    _ => return,
                };
                let Ok((proc, port)) = decode_hello(&hello) else {
                    return;
                };
                if htx.send((proc, port, conn)).is_err() {
                    return;
                }
            }
        })
        .expect("net: spawn rendezvous thread");

    let mut ports = vec![0u16; procs];
    let mut seen = vec![false; procs];
    let mut tethers = Vec::with_capacity(procs);
    for arrived in 0..procs {
        match hrx.recv_timeout(HANDSHAKE_TIMEOUT) {
            Ok((proc, port, conn)) => {
                let pi = proc as usize;
                if pi >= procs || seen[pi] {
                    return Err(ExecError::Stalled {
                        dump: format!(
                            "net handshake: bogus or duplicate worker id {proc} (fleet of {procs})"
                        ),
                    });
                }
                seen[pi] = true;
                ports[pi] = port;
                tethers.push(conn);
            }
            Err(_) => {
                return Err(ExecError::Stalled {
                    dump: format!(
                        "net handshake: only {arrived}/{procs} workers reported within {:?}",
                        HANDSHAKE_TIMEOUT
                    ),
                });
            }
        }
    }
    collector.join().expect("net: rendezvous thread");
    Ok((ports, tethers))
}

// ---------------------------------------------------------------------
// Run entry points
// ---------------------------------------------------------------------

/// How long to wait for the whole fleet to dial back after spawning
/// before declaring the run stalled.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the shutdown drain waits on each worker's report before
/// declaring it hung. Generous: a worker only has to serialize its
/// report, but a recorded lane can be large and CI machines are slow.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Run `program` against a fleet of worker processes. The typed-error
/// twin of [`run_net`], mirroring `olden_exec::try_run_exec` — same
/// `(value, report)` on success, same `Starved` / `Stalled` surface
/// when a fault plan or a wedged fleet stops the run.
pub fn try_run_net<T, F>(cfg: NetConfig, program: F) -> Result<(T, ExecReport), ExecError>
where
    T: Send + 'static,
    F: FnOnce(&mut ExecCtx) -> T + Send + 'static,
{
    assert!(cfg.exec.procs >= 1 && cfg.exec.procs <= MAX_PROCS);
    let procs = cfg.exec.procs;

    let mut guard = FleetGuard::new();
    let (ports, tethers) = spawn_fleet(&cfg, &mut guard)?;
    let pids: Vec<u32> = guard.children.iter().map(|c| c.id()).collect();

    let progress = Arc::new(AtomicU64::new(0));
    let counters = Arc::new(TransportCounters::default());
    let shared = Arc::new(Shared::new(
        &cfg.exec,
        Arc::new(TcpTransport {
            ports: ports.clone(),
        }),
        Arc::clone(&counters),
        Arc::clone(&progress),
    ));

    let dump_shared = Arc::clone(&shared);
    let (value, client) = drive_root(
        &shared,
        cfg.exec.stall_timeout,
        move || {
            format!(
                "net backend: worker pids {pids:?}\n{}",
                dump_clients(&dump_shared)
            )
        },
        program,
    )?;

    // The control connection reads under a timeout so a hung worker
    // fails the run instead of wedging it.
    let mut control = TcpConn::new(ports, Some(DRAIN_TIMEOUT));
    let reports = drain_fleet(&mut control, procs, &counters);
    drop(control);
    drop(tethers);
    guard.join();

    // Receiver-side transport accounting lives in the worker processes
    // and travels home in the reports; sender-side counts accumulated
    // in this process. Splice them into one stats block before the
    // conservation self-check in `assemble_report`.
    let mut stats = counters.snapshot();
    stats.deliveries = reports.iter().map(|r| r.deliveries).sum();
    stats.dupes_suppressed = reports.iter().map(|r| r.dupes_suppressed).sum();
    let faults = counters.fault_log();
    Ok((
        value,
        assemble_report(&shared, client, reports, stats, faults),
    ))
}

/// Panicking convenience wrapper over [`try_run_net`].
pub fn run_net<T, F>(cfg: NetConfig, program: F) -> (T, ExecReport)
where
    T: Send + 'static,
    F: FnOnce(&mut ExecCtx) -> T + Send + 'static,
{
    match try_run_net(cfg, program) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}
