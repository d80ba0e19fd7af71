//! A call or future scope allocates nothing: the written set a return or a
//! touch acquires with is a `Copy` bitset saved in a local, not a grown
//! vector. Its own test binary, because it installs a counting global
//! allocator.

use olden_runtime::{Backend, Config, GPtr, Mechanism, OldenCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

const WORDS: usize = 16;

/// One charged `call` and one inline `future_call` + `touch`, each
/// writing one word of `obj`.
fn round(c: &mut OldenCtx, obj: GPtr, i: usize) {
    let v = i as i64;
    c.call(|c| c.write(obj, i % WORDS, v, Mechanism::Migrate));
    let h = c.future_call(move |c| c.write(obj, (i + 1) % WORDS, v, Mechanism::Migrate));
    assert!(!h.is_parallel(), "a local body is never stolen");
    c.touch(h);
}

#[test]
fn charged_scopes_allocate_nothing() {
    let mut c = OldenCtx::new(Config::olden(4));
    let obj = c.uncharged(|c| {
        let obj = c.alloc(0, WORDS);
        for f in 0..WORDS {
            c.write(obj, f, 0i64, Mechanism::Migrate);
        }
        obj
    });
    for i in 0..10 {
        round(&mut c, obj, i);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..1_000 {
        round(&mut c, obj, i);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "1 000 calls and 1 000 futures allocated");
    assert_eq!(c.stats().futures, 1_010);
    assert_eq!(c.read_i64(obj, 999 % WORDS, Mechanism::Migrate), 999);
}
