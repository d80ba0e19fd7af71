//! A warm interpreter run allocates nothing per call or per spawn: a
//! future body's registers and handles live on stacks that only grow to
//! the run's deepest point. Its own test binary, because it installs a
//! counting global allocator.

use olden_analysis::{compile, gen_program, render};
use olden_runtime::{run_ir, Config, OldenCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Generator seed 20 spawns one future per few blocks until its fuel
/// runs out, so its spawn count scales with the fuel.
const SEED: u64 = 20;

/// Allocations of one `run_ir` of seed 20's program at `fuel`, and the
/// futures it spawned.
fn run_allocs(fuel: i64) -> (usize, u64) {
    let (_, _, ir) = compile(&render(&gen_program(SEED))).unwrap();
    let ir = Arc::new(ir);
    let mut ctx = OldenCtx::new(Config::olden(8));
    let before = ALLOCS.load(Ordering::Relaxed);
    run_ir(&mut ctx, &ir, SEED, fuel, None);
    (ALLOCS.load(Ordering::Relaxed) - before, ctx.stats().futures)
}

#[test]
fn spawns_allocate_nothing() {
    let (small, few) = run_allocs(20_000);
    let (large, many) = run_allocs(2_000_000);
    assert!(many >= 100 * few, "{few} vs {many} futures");
    assert!(
        large.abs_diff(small) < 64,
        "{few} futures cost {small} allocations, {many} cost {large}"
    );
}
