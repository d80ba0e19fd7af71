//! A failed run leaves none of its worker threads behind: on `Stalled`
//! and `Starved`, `try_run_exec` closes every mailbox and each worker
//! exits. Only a logical thread still blocked inside the program stays,
//! because the program owns it.
//!
//! A test binary of its own, so that no other test's threads are counted.

use olden_exec::{try_run_exec, ExecConfig, ExecError, FaultPlan, MsgKind};
use olden_runtime::{Backend, Mechanism};
use std::thread;
use std::time::{Duration, Instant};

/// Threads in this process now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

/// Wait up to a second for the thread count to fall to `want`.
fn settles_to(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let now = threads();
        if now <= want || Instant::now() >= deadline {
            return now;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn failed_runs_leave_no_worker_threads() {
    let baseline = threads();
    for _ in 0..20 {
        let cfg = ExecConfig::lockstep(2).with_faults(FaultPlan::none().starving(MsgKind::Alloc));
        let err = try_run_exec(cfg, |ctx| ctx.alloc(1, 1)).expect_err("Alloc is starved");
        assert!(matches!(err, ExecError::Starved { .. }), "{err:?}");
    }
    assert_eq!(
        settles_to(baseline),
        baseline,
        "starved runs leaked threads"
    );

    let cfg = ExecConfig::lockstep(2).with_stall_timeout(Duration::from_millis(200));
    let err = try_run_exec(cfg, |ctx| {
        let a = ctx.alloc(1, 1);
        ctx.write(a, 0, 1i64, Mechanism::Migrate);
        // A kernel that blocks forever: its thread is the program's.
        loop {
            thread::park();
        }
    })
    .expect_err("a blocked client trips the watchdog");
    assert!(matches!(err, ExecError::Stalled { .. }), "{err:?}");
    assert_eq!(
        settles_to(baseline + 1),
        baseline + 1,
        "a stalled run leaked more than its blocked client thread"
    );
}
