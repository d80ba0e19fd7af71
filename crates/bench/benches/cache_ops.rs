//! Micro-benchmarks of the Figure-1 software cache: the hash-table
//! lookup the compiler inserts before every cached dereference, the
//! page-allocation path, and the three protocols' coherence events.

use olden_bench::microbench::{black_box, Bench};
use olden_cache::{Arrival, CacheSystem, ProcCache, Protocol};

fn bench_table() {
    let b = Bench::new("translation_table");
    b.run("lookup_hit", {
        let mut t = ProcCache::new();
        for p in 0..512u64 {
            t.ensure((p % 32) as u8, p).set_line(0);
        }
        let mut i = 0u64;
        move || {
            i = (i + 1) % 512;
            black_box(t.lookup((i % 32) as u8, i).is_some())
        }
    });
    b.run("lookup_miss", {
        let mut t = ProcCache::new();
        for p in 0..512u64 {
            t.ensure((p % 32) as u8, p);
        }
        let mut i = 0u64;
        move || {
            i += 1;
            black_box(t.lookup(7, 100_000 + i).is_none())
        }
    });
}

fn bench_protocols() {
    let b = Bench::new("coherence");
    for proto in Protocol::ALL {
        b.run(&format!("access_cycle_{}", proto.name()), {
            let mut sys = CacheSystem::new(32, proto);
            let mut i = 0u64;
            move || {
                i += 1;
                let page = i % 256;
                sys.access(0, 1, page, (i % 32) as u8, i.is_multiple_of(3));
                if i.is_multiple_of(64) {
                    sys.depart(0, 30);
                    sys.arrive(0, Arrival::Call);
                }
                black_box(sys.stats().misses)
            }
        });
    }
}

fn main() {
    bench_table();
    bench_protocols();
}
