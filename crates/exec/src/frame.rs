//! Future frames: the in-process half of the protocol.
//!
//! A `futurecall` saves the caller's continuation on the spawning
//! processor's work list; the continuation runs only when the body
//! migrates away (a *steal*) or completes. The frame handle carries that
//! state between the spawning thread and (in parallel mode) the body's
//! OS thread: the body's migrations deliver *StealNotify* by flipping
//! `stolen` under the mutex and waking the spawner, and body completion
//! delivers *TouchResult* the same way. Both wake the spawner after
//! releasing the mutex, so it never wakes only to wait for it.

use olden_runtime::VClock;
use std::sync::{Condvar, Mutex};

#[derive(Debug, Default)]
pub struct FrameState {
    /// A migration vacated the spawn processor while this frame's body
    /// was outstanding: the continuation has been stolen.
    pub stolen: bool,
    /// The body finished (normally or by panic).
    pub done: bool,
    /// Sanitizer only: the stealing thread's vector clock at the moment
    /// of the steal — the departing segment, which the resumed
    /// continuation is ordered after (the simulator's `Steal` edge).
    pub steal_clock: Option<VClock>,
}

/// Shared bookkeeping for one spawned future (its anchor processor is
/// kept by the thread state's frame that holds this handle).
#[derive(Debug, Default)]
pub struct FrameHandle {
    state: Mutex<FrameState>,
    cv: Condvar,
}

impl FrameHandle {
    /// Mark the continuation stolen (idempotent; only the first steal
    /// records `clock`).
    pub fn steal(&self, clock: Option<&VClock>) {
        let mut st = self.state.lock().unwrap();
        if !st.stolen {
            st.stolen = true;
            st.steal_clock = clock.cloned();
        }
        drop(st);
        self.cv.notify_all();
    }

    /// The clock recorded by the first steal, if any.
    pub fn steal_clock(&self) -> Option<VClock> {
        self.state.lock().unwrap().steal_clock.clone()
    }

    /// Mark the body complete and wake the spawner.
    pub fn complete(&self) {
        self.state.lock().unwrap().done = true;
        self.cv.notify_all();
    }

    pub fn is_stolen(&self) -> bool {
        self.state.lock().unwrap().stolen
    }

    /// Block until the body completes or the continuation is stolen;
    /// returns the state at wake-up.
    pub fn wait_done_or_stolen(&self) -> FrameState {
        let mut st = self.state.lock().unwrap();
        while !st.done && !st.stolen {
            st = self.cv.wait(st).unwrap();
        }
        FrameState {
            stolen: st.stolen,
            done: st.done,
            steal_clock: st.steal_clock.clone(),
        }
    }
}

/// Marks the frame complete even if the body panics, so the spawner
/// blocked in [`FrameHandle::wait_done_or_stolen`] wakes up and the panic
/// propagates through the join instead of deadlocking the run.
pub struct CompleteOnDrop(pub std::sync::Arc<FrameHandle>);

impl Drop for CompleteOnDrop {
    fn drop(&mut self) {
        self.0.complete();
    }
}
