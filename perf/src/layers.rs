//! Probes of single layers that no workload's rounds isolate: direct
//! calls into `machine::sched`, `cache`, the wire codec, an empty fleet
//! on each real backend, and recorded-versus-plain runs for `obs`.
//!
//! Every probe drives public functions only and reports what an outside
//! caller sees.

use crate::span::Tracer;
use crate::stats::{geomean, median};
use crate::workloads::{sim_size, Counts, Workload, REAL_PROCS, REAL_SIZE, SIM_PROCS};
use olden_benchmarks::generic_run;
use olden_cache::{CacheSystem, ProcCache};
use olden_exec::msg::{ArrivalKind, Envelope, Request};
use olden_exec::{run_exec, ExecConfig};
use olden_gptr::geometry::LINES_PER_PAGE;
use olden_gptr::Word;
use olden_machine::sched;
use olden_net::wire::{decode_envelope, encode_envelope};
use olden_net::{try_run_net, NetConfig};
use olden_runtime::{run, Config, OldenCtx, Protocol};
use std::hint::black_box;
use std::time::Instant;

/// Named results of the probes, in catalogue units.
pub type Probed = Vec<(&'static str, f64)>;

fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// `machine`: list-schedule and critical-path every kernel's raw trace.
/// The simulated times are properties of the modelled design and must not
/// move under a host-speed change.
pub fn machine(reps: usize, tr: &mut Tracer) -> Probed {
    let kernels = olden_benchmarks::all();
    let mut schedule_ms = Vec::new();
    let (mut segments, mut makespans, mut s8, mut s32) = (0u64, vec![], vec![], vec![]);
    for rep in 0..reps {
        let mut total_ns = 0u128;
        for d in &kernels {
            let size = sim_size(d);
            let mut ctx = OldenCtx::new(Config::olden(SIM_PROCS));
            (d.run)(&mut ctx, size);
            let (trace, _, _) = ctx.into_parts_public();
            let t = Instant::now();
            let made = tr.call("machine.schedule", d.name, || {
                let s = sched::schedule(&trace, SIM_PROCS).expect("kernel trace schedules");
                (s.makespan, sched::critical_path(&trace))
            });
            total_ns += t.elapsed().as_nanos();
            black_box(made);
            if rep == 0 {
                segments += trace.len() as u64;
                let seq = run(Config::sequential(), |ctx| (d.run)(ctx, size)).1;
                let wide = run(Config::olden(32), |ctx| (d.run)(ctx, size)).1;
                makespans.push(made.0 as f64 / 1e3);
                s8.push(seq.makespan as f64 / made.0 as f64);
                s32.push(wide.speedup_vs(seq.makespan));
            }
        }
        schedule_ms.push(total_ns as f64 / 1e6);
    }
    vec![
        ("machine.schedule_ms", median(&schedule_ms)),
        ("machine.segments", segments as f64),
        ("machine.makespan_geomean_kcycles", geomean(&makespans)),
        ("machine.speedup8_geomean", geomean(&s8)),
        ("machine.speedup32_geomean", geomean(&s32)),
    ]
}

/// `cache`: the translation table and the protocol front door, called
/// directly on a populated table.
pub fn cache(ops: u64) -> Probed {
    const PAGES: u64 = 512;
    let mut table = ProcCache::new();
    for page in 0..PAGES {
        table.ensure((page % 7) as u8 + 1, page).set_line(0);
    }
    let lookup_hit_ns = ns_per_op(ops, || {
        for i in 0..ops {
            let page = i.wrapping_mul(0x9e37_79b9) % PAGES;
            black_box(table.lookup((page % 7) as u8 + 1, page).is_some());
        }
    });
    let invalidate_ns = ns_per_op(ops, || {
        for i in 0..ops {
            let page = i.wrapping_mul(0x9e37_79b9) % PAGES;
            black_box(table.invalidate_lines((page % 7) as u8 + 1, page, 1 << (i % 32)));
        }
    });
    // Half the ensures find their page, half install a new one.
    let mut fresh = ProcCache::new();
    let ensure_ns = ns_per_op(ops, || {
        for i in 0..ops {
            black_box(fresh.ensure(1, i / 2).valid);
        }
    });

    let mut sys = CacheSystem::new(2, Protocol::LocalKnowledge);
    let lines = LINES_PER_PAGE as u64;
    let access_miss_ns = ns_per_op(ops, || {
        for i in 0..ops {
            black_box(sys.access(0, 1, i / lines, (i % lines) as u8, false));
        }
    });
    let access_hit_ns = ns_per_op(ops, || {
        for i in 0..ops {
            black_box(sys.access(0, 1, i / lines, (i % lines) as u8, false));
        }
    });
    assert_eq!(sys.stats().hits, ops, "second pass hits every line");
    vec![
        ("cache.lookup_hit_ns", lookup_hit_ns),
        ("cache.ensure_ns", ensure_ns),
        ("cache.invalidate_ns", invalidate_ns),
        ("cache.access_hit_ns", access_hit_ns),
        ("cache.access_miss_ns", access_miss_ns),
    ]
}

/// `exec`: what a fleet costs before it does anything, and the
/// parallel-mode round (diagnostic: it is bound by the host scheduler).
pub fn exec(migrate: &Workload, spawns: usize, tr: &mut Tracer) -> Probed {
    let spawn_us: Vec<f64> = (0..spawns)
        .map(|_| {
            let t = Instant::now();
            tr.call("exec.run_exec", "(empty)", || {
                run_exec(ExecConfig::lockstep(REAL_PROCS), |_ctx| 0u64)
            });
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let t = Instant::now();
    let span = tr.enter("exec.parallel_round", "");
    for d in migrate.kernels() {
        let kernel = d.name;
        let (value, _) = run_exec(ExecConfig::parallel(REAL_PROCS), move |ctx| {
            generic_run(kernel, ctx, REAL_SIZE).expect("registry kernel")
        });
        assert_eq!(value, (d.reference)(REAL_SIZE), "{kernel}: parallel value");
    }
    tr.exit(span);
    vec![
        ("exec.fleet_spawn_us", median(&spawn_us)),
        (
            "exec.parallel_ms_per_round",
            t.elapsed().as_nanos() as f64 / 1e6,
        ),
    ]
}

/// A fixed sample of envelopes: one of each request the kernels' traffic
/// is made of.
fn wire_sample() -> Vec<Envelope> {
    let line = [Word(0x0123_4567_89ab_cdef); olden_gptr::geometry::LINE_WORDS];
    let reqs = vec![
        Request::Alloc { words: 4 },
        Request::ReadHome {
            local: 4096,
            clock: None,
        },
        Request::WriteHome {
            local: 4104,
            value: Word(42),
            clock: None,
            track: true,
        },
        Request::LineFetchReq {
            page: 16,
            line: 3,
            requester: 1,
            clock: None,
        },
        Request::CacheLookup {
            home: 1,
            page: 16,
            line: 3,
            word: 5,
            write: false,
            wval: None,
            elide: false,
        },
        Request::CacheInstall {
            home: 1,
            page: 16,
            line: 3,
            data: line,
            word: 5,
            write: false,
            wval: None,
            ts: 9,
        },
        Request::MigrateThread {
            arrival: ArrivalKind::Call,
        },
        Request::MigrateThread {
            arrival: ArrivalKind::Return(vec![0, 1]),
        },
    ];
    reqs.into_iter()
        .enumerate()
        .map(|(i, req)| Envelope {
            src: 1,
            seq: i as u64 + 1,
            req,
        })
        .collect()
}

/// `net`: the wire codec on the fixed sample, an empty fleet of worker
/// processes, and the same job list on worker threads for the ratio.
pub fn net(
    net_round_ms: f64,
    threads_twin: &Workload,
    worker_cmd: &[String],
    reps: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Probed {
    let sample = wire_sample();
    let passes = 2_000 * reps as u64;
    let ops = passes * sample.len() as u64;
    let mut bytes = 0usize;
    let encode_ns = ns_per_op(ops, || {
        for _ in 0..passes {
            for env in &sample {
                bytes += black_box(encode_envelope(env)).len();
            }
        }
    });
    let frames: Vec<Vec<u8>> = sample.iter().map(encode_envelope).collect();
    let decode_ns = ns_per_op(ops, || {
        for _ in 0..passes {
            for (frame, env) in frames.iter().zip(&sample) {
                let back = decode_envelope(frame).expect("sample decodes");
                debug_assert_eq!(&back, env);
                black_box(back);
            }
        }
    });
    let spawn_ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let cfg = NetConfig::new(ExecConfig::lockstep(REAL_PROCS), worker_cmd.to_vec());
            tr.call("net.run_net", "(empty)", || {
                try_run_net(cfg, |_ctx| 0u64).expect("empty fleet runs")
            });
            t.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    let mut scratch = Counts::default();
    let threads_ms: Vec<f64> = (0..reps as u64)
        .map(|r| threads_twin.run_round(seed, r, tr, &mut scratch).wall_ns as f64 / 1e6)
        .collect();
    vec![
        ("net.fleet_spawn_ms", median(&spawn_ms)),
        ("net.wire_encode_ns", encode_ns),
        ("net.wire_decode_ns", decode_ns),
        ("net.bytes_per_msg", bytes as f64 / ops as f64),
        ("net.vs_threads_ratio", net_round_ms / median(&threads_ms)),
    ]
}

/// `obs`: the cost of recording, as recorded ÷ plain − 1 on the same
/// programs, plus what a round records and what exporting it costs.
pub fn obs(migrate: &Workload, reps: usize, tr: &mut Tracer) -> Probed {
    let kernels = olden_benchmarks::all();
    let time_sim = |cfg: Config| {
        let t = Instant::now();
        let mut recs = Vec::new();
        for d in &kernels {
            let (_, mut rep) = run(cfg, |ctx| (d.run)(ctx, sim_size(d)));
            recs.extend(rep.recording.take());
        }
        (t.elapsed().as_nanos() as f64, recs)
    };
    let time_exec = |cfg: ExecConfig| {
        let t = Instant::now();
        let mut recs = Vec::new();
        for d in migrate.kernels() {
            let kernel = d.name;
            let (_, mut rep) = run_exec(cfg, move |ctx| {
                generic_run(kernel, ctx, REAL_SIZE).expect("registry kernel")
            });
            recs.extend(rep.recording.take());
        }
        (t.elapsed().as_nanos() as f64, recs)
    };
    let (mut sim_share, mut exec_share, mut export_ms) = (vec![], vec![], vec![]);
    let mut events = 0usize;
    for _ in 0..reps {
        let span = tr.enter("obs.recorded_vs_plain", "");
        let (plain, _) = time_sim(Config::olden(SIM_PROCS));
        let (recorded, sim_recs) = time_sim(Config::olden(SIM_PROCS).recorded());
        sim_share.push(recorded / plain - 1.0);
        let (plain, _) = time_exec(ExecConfig::lockstep(REAL_PROCS));
        let (recorded, exec_recs) = time_exec(ExecConfig::lockstep(REAL_PROCS).recorded());
        exec_share.push(recorded / plain - 1.0);
        tr.exit(span);
        events = sim_recs
            .iter()
            .chain(&exec_recs)
            .map(|r| r.events_stored())
            .sum();
        let t = Instant::now();
        tr.call("obs.chrome_trace", "", || {
            for r in sim_recs.iter().chain(&exec_recs) {
                black_box(r.chrome_trace().len());
            }
        });
        export_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
    }
    vec![
        ("obs.record_overhead_share.sim", median(&sim_share)),
        ("obs.record_overhead_share.exec", median(&exec_share)),
        ("obs.events_per_round", events as f64),
        ("obs.chrome_export_ms", median(&export_ms)),
    ]
}
