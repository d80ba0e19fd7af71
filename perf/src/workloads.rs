//! The seven workloads: their job lists, how a job runs, and what makes
//! it fail.
//!
//! A *job* is one program execution or one compilation; a *round* is one
//! pass over a workload's fixed job list in an order drawn from the seed.
//! All workloads are closed-loop with one job in flight.

use crate::pins::{sim_named, Pins, SimPin};
use crate::span::Tracer;
use crate::stats::{permutation, Fnv};
use olden_analysis::{
    compile, gen_source, lower_ir, mech_table, optimize, parse, racecheck, select_scheme,
    typecheck, IrProgram, Mech,
};
use olden_benchmarks::{by_name, generic_run, Descriptor, SizeClass};
use olden_exec::{try_run_exec, ExecConfig, ExecReport};
use olden_net::{try_run_net, NetConfig};
use olden_rng::mix2;
use olden_runtime::{run, run_ir, CacheStats, Config, OldenCtx, Protocol, RunReport, RunStats};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Simulated processors for simulator workloads (the paper's mid-size
/// machine; costs nothing real).
pub const SIM_PROCS: usize = 8;
/// Simulated processors on the real backends: one worker thread or
/// process each, so never more than the 2 cores of the reference box.
pub const REAL_PROCS: usize = 2;
/// Interpreter instruction budget per program.
pub const INTERP_FUEL: i64 = 500_000;
/// Generated programs in the `dsl-compile` job list, drawn afresh for
/// each seed (the ten paper programs are added to them).
pub const COMPILE_GEN: usize = 290;
/// Generated programs in the `dsl-interp` job list: generator seeds
/// `0..INTERP_GEN`, the same for every `--seed`. An interpreted program's
/// cost is too heavy-tailed to compare two draws: 4 % of generated
/// programs burn their whole fuel and take 79 % of the time, and even one
/// fixed set of 200 ranges from 41 to 74 ms with the input seeds alone.
pub const INTERP_GEN: usize = 190;
/// Problem size of every kernel job on a real backend: rounds must stay
/// short enough that a hundred of them fit a run.
pub const REAL_SIZE: SizeClass = SizeClass::Tiny;

/// Problem size of a kernel on the simulator: `Default`, except that
/// Barnes-Hut at `Default` (145 ms) would be two thirds of every round.
pub fn sim_size(d: &Descriptor) -> SizeClass {
    if d.name == "Barnes-Hut" {
        SizeClass::Tiny
    } else {
        SizeClass::Default
    }
}

/// Name and one-line reason of each workload, in reporting order.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "sim-kernels",
        "ten kernels on the simulator (Default size, Barnes-Hut Tiny): runtime::ctx + cache + machine::sched, no messages",
    ),
    (
        "exec-migrate",
        "TreeAdd, Power, TSP, MST on 2 lockstep worker threads: every remote op is a migration message, the cache idles",
    ),
    (
        "exec-cache",
        "Bisort, Voronoi, Perimeter, Health on the same threads: lookup, line-fetch and hit traffic dominates",
    ),
    (
        "exec-coherence",
        "Bisort and Voronoi under global and bilateral knowledge: sharer lists, pushed invalidations, revalidation",
    ),
    (
        "net-loopback",
        "TreeAdd and Perimeter over 2 worker processes on loopback TCP: wire codec, framing, spawn, handshake, drain",
    ),
    (
        "dsl-compile",
        "290 generated DSL programs drawn by the seed plus the paper's ten through the whole static stack, nothing run",
    ),
    (
        "dsl-interp",
        "190 generated programs plus the paper's ten precompiled in set-up, interpreted on the simulator: dispatch cost",
    ),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}

/// The counters a lockstep run on a real backend must reproduce from the
/// simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counters {
    pub stats: RunStats,
    pub cache: CacheStats,
    pub pages_cached: u64,
}

impl Counters {
    fn of_sim(rep: &RunReport) -> Counters {
        Counters {
            stats: rep.stats,
            cache: rep.cache,
            pages_cached: rep.pages_cached,
        }
    }

    fn of_exec(rep: &ExecReport) -> Counters {
        Counters {
            stats: rep.stats,
            cache: rep.cache,
            pages_cached: rep.pages_cached,
        }
    }
}

/// Charged runtime operations: dereferences under either mechanism, future
/// spawns and touches, allocations and return migrations. The unit the
/// `*_ns_per_event` figures divide by.
fn events(s: &RunStats, c: &CacheStats) -> u64 {
    s.migrate_local
        + s.migrate_remote
        + s.return_migrations
        + s.futures
        + s.touches
        + s.allocs
        + c.cacheable_reads
        + c.cacheable_writes
}

/// Which backend an execution job runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Real {
    Threads,
    Processes,
}

#[derive(Clone)]
pub enum Job {
    /// One kernel on the simulator. Fails when the value differs from the
    /// serial reference or any counter from its pin.
    Sim {
        d: Descriptor,
        want_value: u64,
        want: SimPin,
    },
    /// One kernel, lockstep, on worker threads or worker processes. Fails
    /// on a typed `ExecError`, a value other than the serial reference, or
    /// counters other than the simulator's for the same kernel + protocol.
    Exec {
        d: Descriptor,
        protocol: Protocol,
        on: Real,
        want_value: u64,
        want: Counters,
    },
    /// One program through parse, typecheck, mechanism selection,
    /// lowering, the optimizer, the race checker and scheme selection.
    /// Fails on a compile error, a diagnostic from the typechecker, a
    /// verdict digest other than the wanted one, or — for a paper program
    /// — verdict keys other than the ones its `Descriptor` pins.
    Compile {
        src: Arc<str>,
        paper: Option<Descriptor>,
        want_digest: u64,
    },
    /// One precompiled program interpreted on a fresh simulator context.
    /// Fails when the checksum differs from its pin.
    Interp {
        ir: Arc<IrProgram>,
        input_seed: u64,
        want_checksum: u64,
    },
}

/// Counts taken at job boundaries from the reports the layers return.
#[derive(Default, Clone, Debug)]
pub struct Counts(pub BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

pub struct Workload {
    pub name: &'static str,
    pub jobs: Vec<Job>,
    worker_cmd: Vec<String>,
}

/// What one round did.
pub struct Round {
    pub wall_ns: u64,
    pub failed: u64,
}

fn kernel(name: &str) -> Descriptor {
    by_name(name).unwrap_or_else(|| panic!("no kernel named {name}"))
}

/// The simulator's counters for `d` on the real backends' processor count
/// — the reference a lockstep run is held to.
fn sim_reference(d: &Descriptor, protocol: Protocol, tr: &mut Tracer) -> Counters {
    let cfg = Config::olden(REAL_PROCS).with_protocol(protocol);
    let (_, rep) = tr.call("runtime.run", d.name, || {
        run(cfg, |ctx| (d.run)(ctx, REAL_SIZE))
    });
    Counters::of_sim(&rep)
}

fn exec_jobs(names: &[&str], protocols: &[Protocol], on: Real, tr: &mut Tracer) -> Vec<Job> {
    let mut jobs = Vec::new();
    for name in names {
        let d = kernel(name);
        let want_value = tr.call("benchmarks.reference", d.name, || (d.reference)(REAL_SIZE));
        for &protocol in protocols {
            jobs.push(Job::Exec {
                d,
                protocol,
                on,
                want_value,
                want: sim_reference(&d, protocol, tr),
            });
        }
    }
    jobs
}

/// DSL sources: the generator's programs for `gen_seeds`, then the
/// paper's ten.
fn dsl_sources(
    gen_seeds: impl Iterator<Item = u64>,
    tr: &mut Tracer,
) -> Vec<(Arc<str>, Option<Descriptor>)> {
    let mut out: Vec<(Arc<str>, Option<Descriptor>)> = gen_seeds
        .map(|g| {
            let src = tr.call("analysis.gen", "", || gen_source(g));
            (Arc::from(src), None)
        })
        .collect();
    out.extend(
        olden_benchmarks::all()
            .into_iter()
            .map(|d| (Arc::from(d.dsl), Some(d))),
    );
    out
}

/// Everything one compilation decided, folded to 64 bits.
struct Compiled {
    digest: u64,
    keys_match_paper: bool,
}

/// The compile job proper. Each phase is its own span; untraced it is the
/// same calls in the same order.
fn compile_phases(
    src: &str,
    paper: Option<&Descriptor>,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<Compiled, String> {
    let prog = tr
        .call("analysis.parse", "", || parse(src))
        .map_err(|e| format!("parse error: {e}"))?;
    let diags = tr.call("analysis.typecheck", "", || typecheck(&prog));
    if let Some(d) = diags.first() {
        return Err(format!("type error: {}", d.one_line()));
    }
    let table = tr.call("analysis.select", "", || mech_table(&prog));
    let ir = tr.call("analysis.lower", "", || lower_ir(&prog, &table))?;
    let opt = tr.call("analysis.opt", "", || optimize(&prog));
    let races = tr.call("analysis.racecheck", "", || racecheck(&prog));
    let scheme = tr.call("analysis.scheme", "", || select_scheme(&prog));

    let v = tr.enter("harness.verify", "");
    let keys = table.keys();
    let elided = opt.elided_keys();
    let mut h = Fnv::new();
    for k in keys.iter().chain(&elided) {
        h.bytes(k.as_bytes());
    }
    for r in &races {
        h.bytes(r.one_line().as_bytes());
    }
    h.bytes(scheme.scheme.name().as_bytes());
    h.bytes(&(ir.site_count() as u64).to_le_bytes());
    let keys_match_paper = paper.is_none_or(|d| {
        keys.iter()
            .map(String::as_str)
            .eq(d.selected_mechanisms.iter().copied())
            && elided
                .iter()
                .map(String::as_str)
                .eq(d.elided_sites.iter().copied())
    });
    let cache_sites = table.sites.iter().filter(|s| s.mech == Mech::Cache).count();
    counts.add("analysis.src_bytes", src.len() as f64);
    counts.add("analysis.ir_sites", ir.site_count() as f64);
    counts.add("analysis.elided_sites", elided.len() as f64);
    counts.add("analysis.cache_sites", cache_sites as f64);
    tr.exit(v);
    Ok(Compiled {
        digest: h.0,
        keys_match_paper,
    })
}

/// The `dsl-interp` programs, compiled, each with its input seed.
pub fn interp_programs(tr: &mut Tracer) -> Result<Vec<(Arc<IrProgram>, u64)>, String> {
    dsl_sources(0..INTERP_GEN as u64, tr)
        .into_iter()
        .enumerate()
        .map(|(i, (src, _))| {
            let (_, _, ir) = tr.call("analysis.compile", "", || compile(&src))?;
            Ok((Arc::new(ir), i as u64))
        })
        .collect()
}

/// One interpreter run on a fresh context; returns the checksum.
pub fn interp_once(
    ir: &Arc<IrProgram>,
    input_seed: u64,
    force: Option<Mech>,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> u64 {
    let mut ctx = tr.call("runtime.ctx_new", "", || {
        OldenCtx::new(Config::olden(SIM_PROCS))
    });
    let out = tr.call("runtime.run_ir", "", || {
        run_ir(&mut ctx, ir, input_seed, INTERP_FUEL, force)
    });
    let done = events(ctx.stats(), ctx.cache().stats());
    counts.add("runtime.interp_events", done as f64);
    counts.add("runtime.interp_halted", f64::from(u8::from(out.halted)));
    out.checksum
}

impl Workload {
    /// Build the job list of `name` for `seed`: inputs, reference values,
    /// precompiled programs. (The warm-up rounds that complete a set-up
    /// are the caller's, since they are ordinary rounds.)
    pub fn build(
        name: &str,
        seed: u64,
        pins: &Pins,
        worker_cmd: &[String],
        tr: &mut Tracer,
    ) -> Result<Workload, String> {
        use Protocol::{Bilateral, GlobalKnowledge, LocalKnowledge};
        let (name, _) = *WORKLOADS
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        let jobs = match name {
            "sim-kernels" => olden_benchmarks::all()
                .into_iter()
                .map(|d| {
                    let want = pins.sim.get(d.name).cloned().ok_or_else(|| {
                        format!("perf/expected has no simulator pin for {}", d.name)
                    })?;
                    let want_value = tr.call("benchmarks.reference", d.name, || {
                        (d.reference)(sim_size(&d))
                    });
                    Ok(Job::Sim {
                        d,
                        want_value,
                        want,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            "exec-migrate" => exec_jobs(
                &["TreeAdd", "Power", "TSP", "MST"],
                &[LocalKnowledge],
                Real::Threads,
                tr,
            ),
            "exec-cache" => exec_jobs(
                &["Bisort", "Voronoi", "Perimeter", "Health"],
                &[LocalKnowledge],
                Real::Threads,
                tr,
            ),
            "exec-coherence" => exec_jobs(
                &["Bisort", "Voronoi"],
                &[GlobalKnowledge, Bilateral],
                Real::Threads,
                tr,
            ),
            "net-loopback" => exec_jobs(
                &["TreeAdd", "Perimeter"],
                &[LocalKnowledge],
                Real::Processes,
                tr,
            ),
            "dsl-compile" => {
                let pinned = pins.compile_for(seed);
                let mut scratch = Counts::default();
                let draws = (0..COMPILE_GEN as u64).map(|i| mix2(seed, i));
                dsl_sources(draws, tr)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (src, paper))| {
                        // A seed without pins is held to what set-up saw:
                        // the compiler must at least repeat itself.
                        let want_digest = match pinned {
                            Some(p) => p[i],
                            None => compile_phases(&src, paper.as_ref(), tr, &mut scratch)?.digest,
                        };
                        Ok(Job::Compile {
                            src,
                            paper,
                            want_digest,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?
            }
            "dsl-interp" => interp_programs(tr)?
                .into_iter()
                .zip(&pins.interp)
                .map(|((ir, input_seed), &want_checksum)| Job::Interp {
                    ir,
                    input_seed,
                    want_checksum,
                })
                .collect(),
            _ => unreachable!("every name in WORKLOADS has a job list"),
        };
        Ok(Workload {
            name,
            jobs,
            worker_cmd: worker_cmd.to_vec(),
        })
    }

    /// The kernels of this workload's execution jobs, in list order.
    pub fn kernels(&self) -> impl Iterator<Item = Descriptor> + '_ {
        self.jobs.iter().filter_map(|j| match j {
            Job::Exec { d, .. } => Some(*d),
            _ => None,
        })
    }

    /// The same job list with every worker process replaced by a worker
    /// thread: the denominator of `net.vs_threads_ratio`.
    pub fn threads_twin(&self) -> Workload {
        let mut jobs = self.jobs.clone();
        for job in &mut jobs {
            if let Job::Exec { on, .. } = job {
                *on = Real::Threads;
            }
        }
        Workload {
            name: self.name,
            jobs,
            worker_cmd: Vec::new(),
        }
    }

    /// Where this workload's serviced-message count is filed.
    fn msgs_key(&self) -> &'static str {
        match self.name {
            "exec-migrate" => "exec.msgs.migrate",
            "exec-cache" => "exec.msgs.cache",
            "exec-coherence" => "exec.msgs.coherence",
            _ => "net.msgs",
        }
    }

    /// Run one job; `true` when its output is correct.
    pub fn run_job(&self, job: &Job, tr: &mut Tracer, counts: &mut Counts) -> bool {
        match job {
            Job::Sim {
                d,
                want_value,
                want,
            } => {
                let (value, rep) = tr.call("runtime.run", d.name, || {
                    run(Config::olden(SIM_PROCS), |ctx| (d.run)(ctx, sim_size(d)))
                });
                counts.add("runtime.sim_events", events(&rep.stats, &rep.cache) as f64);
                counts.add("cache.hits", rep.cache.hits as f64);
                counts.add("cache.misses", rep.cache.misses as f64);
                counts.add("cache.pages_cached", rep.pages_cached as f64);
                if rep.pages_cached > 0 {
                    // In whole millionths, so that the sum is exact and the
                    // mean does not depend on how many rounds were run.
                    let millionths = (rep.mean_chain_length * 1e6).round();
                    counts.add("cache.chain_length_millionths", millionths);
                    counts.add("cache.chain_length_n", 1.0);
                }
                value == *want_value && sim_named(&rep) == *want
            }
            Job::Exec {
                d,
                protocol,
                on,
                want_value,
                want,
            } => {
                let cfg = ExecConfig::lockstep(REAL_PROCS).with_protocol(*protocol);
                let kernel = d.name;
                let program = move |ctx: &mut olden_exec::ExecCtx| {
                    generic_run(kernel, ctx, REAL_SIZE).expect("registry kernel")
                };
                let out = match on {
                    Real::Threads => {
                        tr.call("exec.run_exec", d.name, || try_run_exec(cfg, program))
                    }
                    Real::Processes => tr.call("net.run_net", d.name, || {
                        try_run_net(NetConfig::new(cfg, self.worker_cmd.clone()), program)
                    }),
                };
                let Ok((value, rep)) = out else { return false };
                counts.add(self.msgs_key(), rep.messages as f64);
                if *on == Real::Threads {
                    counts.add("exec.migrations", rep.stats.migrations as f64);
                    counts.add("exec.line_fetches", rep.cache.misses as f64);
                    counts.add("exec.retries", rep.transport.retries as f64);
                    counts.add(
                        "cache.invalidations_sent",
                        rep.cache.invalidations_sent as f64,
                    );
                    counts.add("cache.revalidations", rep.cache.revalidations as f64);
                }
                value == *want_value && Counters::of_exec(&rep) == *want
            }
            Job::Compile {
                src,
                paper,
                want_digest,
            } => match compile_phases(src, paper.as_ref(), tr, counts) {
                Ok(c) => c.digest == *want_digest && c.keys_match_paper,
                Err(_) => false,
            },
            Job::Interp {
                ir,
                input_seed,
                want_checksum,
            } => interp_once(ir, *input_seed, None, tr, counts) == *want_checksum,
        }
    }

    /// One pass over the job list, in the order `(seed, round)` names.
    pub fn run_round(&self, seed: u64, round: u64, tr: &mut Tracer, counts: &mut Counts) -> Round {
        tr.set_round(round as u32);
        let order = permutation(self.jobs.len(), seed, round);
        let t = Instant::now();
        let span = tr.enter("harness.round", self.name);
        let mut failed = 0;
        for i in order {
            if !self.run_job(&self.jobs[i], tr, counts) {
                failed += 1;
            }
        }
        tr.exit(span);
        Round {
            wall_ns: t.elapsed().as_nanos() as u64,
            failed,
        }
    }
}
