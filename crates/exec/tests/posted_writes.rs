//! Posted write-throughs are performed by the writer's next release.
//!
//! A `WriteHome` does not wait for its acknowledgement; the thread collects
//! it at its next blocking request to that worker or at a release. One test
//! per release: a parallel fork, a lockstep fork whose continuation resumes
//! in place, a migration that steals a parallel continuation, and the end
//! of the program. Each post is the write-through of a charged cached
//! write to a remote home (a posted `WriteHome`), and the reader is
//! another client or an in-place access on the writer's own processor,
//! so nothing but the release can order it after the write.

use olden_exec::{run_exec, try_run_exec, ExecConfig, MsgKind};
use olden_runtime::{Backend, Mechanism};
use std::sync::mpsc;

/// `fork_thread`: the body is another client, so the word its spawner
/// posted must be performed before the body's thread starts.
#[test]
fn parallel_body_reads_a_word_its_spawner_posted() {
    let (v, rep) = run_exec(ExecConfig::parallel(2), |ctx| {
        let w = ctx.alloc(1, 1);
        // Cached from proc 0: the write-through to proc 1 is posted.
        ctx.write(w, 0, 21i64, Mechanism::Cache);
        let h = ctx.future_call(move |c| c.uncharged(|c| c.read_i64(w, 0, Mechanism::Migrate)));
        ctx.touch(h)
    });
    assert_eq!(v, 21);
    assert_eq!(rep.sent.get(MsgKind::WriteHome), 1);
}

/// `Driver::fork`: the body migrates to proc 1 (stealing the continuation)
/// and posts a cached write's write-through to proc 0 from there; the
/// continuation resumes on proc 0 and reads the word in place, not through
/// the mailbox.
#[test]
fn lockstep_continuation_reads_in_place_what_the_body_posted() {
    let (v, rep) = run_exec(ExecConfig::lockstep(2), |ctx| {
        let w = ctx.alloc(0, 1);
        let there = ctx.alloc(1, 1);
        let h = ctx.future_call(move |c| {
            c.read_i64(there, 0, Mechanism::Migrate);
            c.write(w, 0, 34i64, Mechanism::Cache);
        });
        assert_eq!(ctx.cur_proc(), 0, "the continuation resumed on the anchor");
        let seen = ctx.uncharged(|c| c.read_i64(w, 0, Mechanism::Migrate));
        ctx.touch(h);
        seen
    });
    assert_eq!(v, 34);
    assert_eq!(rep.stats.steals, 1);
}

/// `hop`: the body posts a cached write's write-through to proc 1, then
/// migrates to proc 2, which steals the continuation. The continuation
/// reads the word from proc 1 while the body waits for it to have read,
/// so only the migration's release can have performed the write.
#[test]
fn parallel_continuation_stolen_at_a_migration_reads_what_the_body_posted() {
    let (v, rep) = run_exec(ExecConfig::parallel(3), |ctx| {
        let w = ctx.alloc(1, 1);
        let there = ctx.alloc(2, 1);
        let (read, wait) = mpsc::channel::<()>();
        let h = ctx.future_call(move |c| {
            c.write(w, 0, 55i64, Mechanism::Cache);
            c.read_i64(there, 0, Mechanism::Migrate);
            wait.recv()
                .expect("the continuation signals after its read");
        });
        let seen = ctx.uncharged(|c| c.read_i64(w, 0, Mechanism::Migrate));
        read.send(()).expect("the body waits for the signal");
        ctx.touch(h);
        seen
    });
    assert_eq!(v, 55);
    assert_eq!(rep.stats.steals, 1);
}

/// `finish`: a program whose last operation is a remote write completes,
/// and the write is delivered before the shutdown drain, so the
/// conservation self-check in `assemble_report` holds.
#[test]
fn a_run_ending_in_a_remote_write_conserves_its_messages() {
    let (_, rep) = try_run_exec(ExecConfig::lockstep(2), |ctx| {
        let w = ctx.alloc(1, 1);
        ctx.write(w, 0, 8i64, Mechanism::Cache);
    })
    .expect("the run completes");
    assert_eq!(rep.sent.get(MsgKind::WriteHome), 1);
    assert_eq!(rep.transport.conservation_violation(rep.messages), None);
    assert_eq!(rep.transport.deliveries, rep.messages);
}
