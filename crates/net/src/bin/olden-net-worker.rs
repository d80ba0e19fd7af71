//! Entry point for one network-backend worker process.
//!
//! Usage: `olden-net-worker <proc> <parent_port> <record:0|1> <protocol>`
//!
//! Spawned by the parent orchestrator (`olden_net::try_run_net`), never
//! run by hand; the argument list is the internal spawn protocol, not a
//! user interface. `oldenc` re-exports the same entry point as a hidden
//! `net-worker` subcommand so a single installed binary can serve as
//! both driver and fleet.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    olden_net::worker::main_from_args(&args);
}
