//! `oldenc`'s dynamic surfaces: programs executed for real — on worker
//! threads (`run`, `chaos`, `difftest`) or worker processes over loopback
//! TCP (`net`) — and held byte-equal to the simulator. Every comparison
//! is `ExecReport::diff_from_sim` against an `Oracle` snapshot; seed
//! sweeps go through [`par_seeds`].

use crate::reports::{columns, save_repro};
use olden_analysis::{compile, gen_source, predict, shrink, IrProgram, Mech};
use olden_benchmarks::{generic_run, SizeClass};
use olden_exec::{run_exec, try_run_exec, ExecConfig, ExecCtx, ExecError, ExecReport};
use olden_net::{loopback_available, run_net, NetConfig};
use olden_runtime::{
    run_ir, CacheStats, Config, FaultTag, OldenCtx, Protocol, RunOutcome, RunStats, TransportStats,
    DEFAULT_FUEL,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `f` on every seed in `0..n` across the host's cores and return the
/// results in seed order. Each seed's run is independent, so aggregating
/// the returned vector is byte-identical to a sequential sweep.
pub fn par_seeds<T: Send>(n: u64, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    par_seeds_on(cores, n, f)
}

/// [`par_seeds`] on an explicit worker count: work-stealing over an
/// atomic next-seed index, results slotted back by seed so the order
/// never depends on scheduling.
fn par_seeds_on<T: Send>(workers: usize, n: u64, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let next = AtomicU64::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel::<(u64, T)>();
        for _ in 0..workers.clamp(1, n.max(1) as usize) {
            let (tx, next, f) = (tx.clone(), &next, &f);
            s.spawn(move || loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= n {
                    break;
                }
                tx.send((seed, f(seed))).expect("collector alive");
            });
        }
        drop(tx);
        for (seed, r) in rx {
            slots[seed as usize] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every seed ran"))
        .collect()
}

/// What the simulator counted on one program: the reference side of
/// every parity check, snapshotted so sweep threads can share it.
#[derive(Clone, Copy)]
struct Oracle {
    stats: RunStats,
    cache: CacheStats,
    pages: u64,
}

impl Oracle {
    fn of(sim: &OldenCtx) -> Oracle {
        Oracle {
            stats: *sim.stats(),
            cache: *sim.cache().stats(),
            pages: sim.cache().pages_cached(),
        }
    }

    /// The first counter on which `rep` differs from the simulator.
    fn diff(&self, rep: &ExecReport) -> Option<String> {
        rep.diff_from_sim(&self.stats, &self.cache, self.pages)
    }
}

/// A registry benchmark at the Tiny size, as a program for any backend.
fn kernel(name: &'static str) -> impl FnOnce(&mut ExecCtx) -> u64 + Send + 'static {
    move |ctx| generic_run(name, ctx, SizeClass::Tiny).expect("registry benchmark")
}

/// The benchmark's value and counters on the simulator.
fn simulate(name: &str, procs: usize, protocol: Protocol) -> (u64, Oracle) {
    let mut sim = OldenCtx::new(Config::olden(procs).with_protocol(protocol));
    let value = generic_run(name, &mut sim, SizeClass::Tiny).expect("registry benchmark");
    (value, Oracle::of(&sim))
}

/// Lockstep on `procs` workers under `protocol`, with the CLI watchdog
/// override, if any, on top of the default stall timeout.
fn lockstep(procs: usize, protocol: Protocol, stall: Option<Duration>) -> ExecConfig {
    let cfg = ExecConfig::lockstep(procs).with_protocol(protocol);
    match stall {
        Some(d) => cfg.with_stall_timeout(d),
        None => cfg,
    }
}

/// Exit 0 when nothing went `bad`; otherwise say how many `what` and
/// exit 1.
fn exit_unless_zero(bad: usize, what: &str) -> ExitCode {
    if bad == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("oldenc: {bad} {what}");
    ExitCode::FAILURE
}

/// The `run` report: each selected benchmark executed on the thread
/// backend under `protocol` (`None` asks the scheme pass, per benchmark),
/// with its value, every `RunStats` and `CacheStats` counter, the
/// inter-processor message total with its nonzero kinds, the cached-page
/// total, and a `parity:` verdict
/// against the simulator. Lockstep runs are deterministic, so the whole
/// surface pins: at 8 procs under `local` it is the exact-counter gate of
/// the thread backend. Returns the report and the divergent-run count.
pub fn run_report(
    bench: Option<&str>,
    procs: usize,
    protocol: Option<Protocol>,
) -> (String, usize) {
    let mut out = String::new();
    let mut divergent = 0usize;
    for d in crate::selected(bench) {
        let (protocol, why) = match protocol {
            Some(p) => (p, "requested"),
            None => {
                let v = olden_analysis::select_scheme_src(d.dsl)
                    .unwrap_or_else(|e| panic!("{} DSL: {e}", d.name));
                let p = Protocol::from_name(v.scheme.name()).expect("scheme names match protocols");
                (p, "scheme pass")
            }
        };
        let (sim_val, oracle) = simulate(d.name, procs, protocol);
        let (val, rep) = run_exec(lockstep(procs, protocol, None), kernel(d.name));
        let _ = writeln!(
            out,
            "{} on {procs} procs, protocol {} ({why}): value {val}",
            d.name,
            protocol.name()
        );
        let _ = writeln!(out, "runtime: {}", columns(&rep.stats.counters()));
        let _ = writeln!(out, "cache: {}", columns(&rep.cache.counters()));
        let by_kind: Vec<_> = rep.sent.nonzero().collect();
        let _ = writeln!(
            out,
            "messages={} ({}) pages_cached={}",
            rep.messages,
            columns(&by_kind),
            rep.pages_cached
        );
        let value_diff = || (val != sim_val).then(|| format!("value: exec {val}, sim {sim_val}"));
        match oracle.diff(&rep).or_else(value_diff) {
            None => out.push_str("parity: byte-equal to the simulator\n"),
            Some(diff) => {
                let _ = writeln!(out, "parity: DIVERGED from the simulator ({diff})");
                divergent += 1;
            }
        }
    }
    (out, divergent)
}

/// `oldenc run [BENCH] [--procs N] [--protocol P]`: print [`run_report`];
/// exit 1 on any divergence.
pub fn run(bench: Option<&str>, procs: usize, protocol: Option<Protocol>) -> ExitCode {
    let (report, divergent) = run_report(bench, procs, protocol);
    print!("{report}");
    exit_unless_zero(divergent, "run(s) diverged from the simulator")
}

/// `oldenc elide`: every optimizer-annotated benchmark on the simulator
/// with elision enabled, printing the runtime check counters. A
/// benchmark whose descriptor carries elision sites but whose run elides
/// nothing means the `Check::Elide` hints in its kernel went dead: exit 1.
pub fn elide() -> ExitCode {
    let mut dead = 0usize;
    for d in olden_benchmarks::all() {
        if d.elided_sites.is_empty() {
            continue;
        }
        let mut ctx = OldenCtx::new(Config::olden(8).optimized());
        generic_run(d.name, &mut ctx, SizeClass::Tiny).expect("registry benchmark");
        let s = ctx.stats();
        let total = s.checks_performed + s.checks_elided;
        println!(
            "{}: {} static sites, {} of {} runtime checks elided ({:.1}%)",
            d.name,
            d.elided_sites.len(),
            s.checks_elided,
            total,
            100.0 * s.checks_elided as f64 / total.max(1) as f64
        );
        if s.checks_elided == 0 {
            eprintln!("oldenc: {} is annotated but elided no checks", d.name);
            dead += 1;
        }
    }
    exit_unless_zero(dead, "benchmark(s) with dead elision hints")
}

/// The `chaos` report: every benchmark on 8 worker threads under `seeds`
/// seeded fault schedules (message drops, duplicates, reorders), each
/// run held byte-equal — in value, every counter, pages cached and
/// serviced-message count — to the fault-free simulator and execution.
///
/// Fault verdicts are pure integer functions of the seed and each
/// message's identity, and lockstep execution sends a deterministic
/// message sequence, so the per-benchmark fault totals are reproducible
/// bit-for-bit and the whole surface pins. Returns the report and the
/// number of divergent runs.
pub fn chaos_report(seeds: u64, stall: Option<Duration>) -> (String, usize) {
    const PROCS: usize = 8;
    struct SeedOutcome {
        equivalent: bool,
        transport: TransportStats,
        injected: [u64; 3], // drops, duplicates, delayed duplicates
    }

    let mut out = String::new();
    let mut divergent = 0usize;
    for d in olden_benchmarks::all() {
        let name = d.name;
        let quiet = lockstep(PROCS, Protocol::LocalKnowledge, stall);
        let (sim_val, oracle) = simulate(name, PROCS, quiet.protocol);
        let (base_val, base) = run_exec(quiet, kernel(name));
        let outcomes = par_seeds(seeds, |seed| {
            let (v, rep) = run_exec(quiet.chaotic(seed), kernel(name));
            SeedOutcome {
                equivalent: v == base_val
                    && v == sim_val
                    && oracle.diff(&rep).is_none()
                    && rep.messages == base.messages,
                transport: rep.transport,
                injected: [
                    rep.faults.count(FaultTag::Dropped),
                    rep.faults.count(FaultTag::Duplicated),
                    rep.faults.count(FaultTag::DelayedDuplicate),
                ],
            }
        });
        let mut bad = 0usize;
        let mut agg = TransportStats::default();
        let mut injected = [0u64; 3];
        for (seed, r) in outcomes.iter().enumerate() {
            if !r.equivalent {
                let _ = writeln!(out, "{name}: seed {seed} DIVERGED from the fault-free run");
                bad += 1;
            }
            agg.absorb(&r.transport);
            for (slot, n) in injected.iter_mut().zip(r.injected) {
                *slot += n;
            }
        }
        let _ = writeln!(
            out,
            "{name}: {}/{seeds} seeds equivalent; injected drops={} dups={} delayed={}; \
             retries={} suppressed={}",
            seeds - bad as u64,
            injected[0],
            injected[1],
            injected[2],
            agg.retries,
            agg.dupes_suppressed,
        );
        divergent += bad;
    }
    let runs = olden_benchmarks::all().len() as u64 * seeds;
    let _ = writeln!(
        out,
        "chaos: {}/{runs} faulted runs byte-equal to the fault-free simulator",
        runs - divergent as u64
    );
    (out, divergent)
}

/// `oldenc chaos [--seeds N] [--stall-timeout SECS]`: print
/// [`chaos_report`]; exit 1 on any divergence.
pub fn chaos(seeds: u64, stall: Option<Duration>) -> ExitCode {
    let (report, divergent) = chaos_report(seeds, stall);
    print!("{report}");
    exit_unless_zero(divergent, "chaotic run(s) diverged")
}

/// Processor count for the differential sweep. Smaller than the chaos
/// gate's 8 so generated heaps spread across procs without drowning the
/// migrate/cache signal in placement noise.
const DIFF_PROCS: usize = 4;

/// Every `DIFF_CHAOS_EVERY`-th seed also runs under seeded fault
/// injection (seed 0, 8, 16, … — 25 chaotic runs per 200-seed sweep).
const DIFF_CHAOS_EVERY: u64 = 8;

/// Accepted band on `(predicted + 1) / (measured + 1)` per counter. The
/// static model is order-of-magnitude on benchmark-shaped code, but
/// generated programs hit corners it deliberately smooths over — above
/// all loops whose pointer goes null early, where the model charges
/// every predicted trip while execution skips the heap entirely — so the
/// per-seed gate only catches catastrophic breakage. The *pinned* part
/// is the golden file, which records the exact live spread: any model or
/// runtime change that moves a counter shows up as a diff there, and the
/// tight-band claim lives on the mixed-mechanism flip seed (asserted at
/// [0.05, 20] by `mechanism_mix_drives_execution_within_cost_bands`).
const DIFF_BAND: (f64, f64) = (0.01, 5000.0);

/// One lowered program from input seed `seed` on the simulator.
fn simulate_ir(ir: &Arc<IrProgram>, seed: u64, protocol: Protocol) -> (RunOutcome, Oracle) {
    let mut sim = OldenCtx::new(Config::olden(DIFF_PROCS).with_protocol(protocol));
    let out = run_ir(&mut sim, ir, seed, DEFAULT_FUEL, None);
    (out, Oracle::of(&sim))
}

/// The same program and input seed on the thread backend.
fn exec_ir(
    ir: &Arc<IrProgram>,
    seed: u64,
    cfg: ExecConfig,
) -> Result<(RunOutcome, ExecReport), ExecError> {
    let ir = Arc::clone(ir);
    try_run_exec(cfg, move |ctx| run_ir(ctx, &ir, seed, DEFAULT_FUEL, None))
}

/// True when `src` still reproduces a sim-vs-lockstep divergence for
/// `seed`'s input data: values/trips unequal, any counter unequal, the
/// exec backend erroring out, or either side panicking. This is the
/// predicate the delta-debugging shrinker minimizes under; sources that
/// stop compiling don't count (the divergence must survive the front
/// gate to be a *differential* finding).
fn difftest_diverges(src: &str, seed: u64, protocol: Protocol) -> bool {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let Ok((_, _, ir)) = compile(src) else {
        return false;
    };
    let ir = Arc::new(ir);
    catch_unwind(AssertUnwindSafe(|| {
        let (out_sim, oracle) = simulate_ir(&ir, seed, protocol);
        match exec_ir(&ir, seed, lockstep(DIFF_PROCS, protocol, None)) {
            Ok((out, rep)) => out != out_sim || oracle.diff(&rep).is_some(),
            Err(_) => true,
        }
    }))
    .unwrap_or(true)
}

/// The `difftest` report: `seeds` generated programs, each type-checked,
/// mechanism-selected, lowered to the executable IR, and run on the
/// simulator and the lockstep thread backend from the same input seed
/// under one Appendix-A scheme — held byte-equal in checksum, per-loop
/// trip counts, every runtime and cache counter, and pages cached. Every
/// `DIFF_CHAOS_EVERY`-th seed re-runs under seeded fault injection and
/// must stay equal to the fault-free simulator (plus lockstep's serviced
/// message count). Per seed, the static cost model evaluated at the
/// *measured* trip counts must bracket the executed counters within
/// `DIFF_BAND`.
///
/// Everything printed is a pure function of the seeds and the protocol,
/// so the surface pins. Returns the report, the divergent seeds (parity
/// or chaos), and the band-miss count.
pub fn difftest_report(seeds: u64, protocol: Protocol) -> (String, Vec<u64>, usize) {
    struct SeedOutcome {
        parity_ok: bool,
        /// Some(equal) when this seed also ran under fault injection.
        chaos_ok: Option<bool>,
        /// `(pred + 1)/(meas + 1)` for migrations, line fetches, remote
        /// touches.
        ratios: [f64; 3],
        mixed: bool,
        fuel_cut: bool,
        /// migrations, cache misses, steals, checks performed.
        totals: [u64; 4],
    }

    let run_seed = |seed: u64| {
        let src = gen_source(seed);
        let (prog, table, ir) =
            compile(&src).unwrap_or_else(|e| panic!("seed {seed} failed to lower: {e}"));
        let ir = Arc::new(ir);
        let (out_sim, oracle) = simulate_ir(&ir, seed, protocol);
        let quiet = lockstep(DIFF_PROCS, protocol, None);
        let (out_exec, rep) = exec_ir(&ir, seed, quiet).unwrap_or_else(|e| panic!("{e}"));
        let chaos_ok = seed.is_multiple_of(DIFF_CHAOS_EVERY).then(|| {
            let (out, chaotic) =
                exec_ir(&ir, seed, quiet.chaotic(seed)).unwrap_or_else(|e| panic!("{e}"));
            out == out_sim && oracle.diff(&chaotic).is_none() && chaotic.messages == rep.messages
        });
        let trips: Vec<(&str, u64)> = out_sim
            .trips
            .iter()
            .map(|(k, n)| (k.as_str(), *n))
            .collect();
        let p = predict(&prog, &table, &trips, DIFF_PROCS);
        let (stats, misses) = (oracle.stats, oracle.cache.misses);
        let pairs = [
            (p.migrations, stats.migrations),
            (p.line_fetches, misses),
            (p.remote_touches, stats.steals),
        ];
        let migrate = table
            .sites
            .iter()
            .filter(|s| s.mech == Mech::Migrate)
            .count();
        SeedOutcome {
            parity_ok: out_exec == out_sim && oracle.diff(&rep).is_none(),
            chaos_ok,
            ratios: pairs.map(|(pr, m)| (pr + 1.0) / (m as f64 + 1.0)),
            mixed: migrate > 0 && migrate < table.sites.len(),
            fuel_cut: out_sim.halted,
            totals: [
                stats.migrations,
                misses,
                stats.steals,
                stats.checks_performed,
            ],
        }
    };
    let results = par_seeds(seeds, run_seed);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "difftest: {seeds} generated programs on {DIFF_PROCS} procs, \
         fuel {DEFAULT_FUEL}, protocol {}, input seed = program seed",
        protocol.name()
    );
    let mut divergent = Vec::new();
    let mut parity_bad = 0u64;
    let (mut chaos_runs, mut chaos_ok) = (0u64, 0u64);
    let mut band_misses = 0usize;
    let (mut mixed, mut fuel_cut) = (0u64, 0u64);
    let mut totals = [0u64; 4];
    let mut spread = [(f64::INFINITY, f64::NEG_INFINITY); 3];
    for (seed, r) in results.iter().enumerate() {
        if !r.parity_ok {
            let _ = writeln!(out, "seed {seed} DIVERGED: sim vs exec-lockstep");
            divergent.push(seed as u64);
            parity_bad += 1;
        }
        if let Some(ok) = r.chaos_ok {
            chaos_runs += 1;
            if ok {
                chaos_ok += 1;
            } else {
                let _ = writeln!(out, "seed {seed} chaos DIVERGED from the fault-free run");
                if r.parity_ok {
                    divergent.push(seed as u64);
                }
            }
        }
        let in_band = r
            .ratios
            .iter()
            .all(|x| (DIFF_BAND.0..=DIFF_BAND.1).contains(x));
        if !in_band {
            let _ = writeln!(
                out,
                "seed {seed} OUT OF BAND: migrations {:.3} line-fetches {:.3} \
                 remote-touches {:.3}",
                r.ratios[0], r.ratios[1], r.ratios[2]
            );
            band_misses += 1;
        }
        for (slot, x) in spread.iter_mut().zip(r.ratios) {
            *slot = (slot.0.min(x), slot.1.max(x));
        }
        mixed += u64::from(r.mixed);
        fuel_cut += u64::from(r.fuel_cut);
        for (slot, n) in totals.iter_mut().zip(r.totals) {
            *slot += n;
        }
    }
    let _ = writeln!(
        out,
        "parity: {}/{seeds} programs byte-equal on sim vs exec-lockstep \
         (checksum, trips, runtime counters, cache, pages)",
        seeds - parity_bad
    );
    let _ = writeln!(
        out,
        "chaos: {chaos_ok}/{chaos_runs} fault-injected runs byte-equal to the \
         fault-free simulator"
    );
    let _ = writeln!(
        out,
        "bands: {}/{seeds} seeds inside [{:.2}, {:.1}] on (predicted+1)/(measured+1); \
         spread migrations [{:.3}, {:.3}] line-fetches [{:.3}, {:.3}] \
         remote-touches [{:.3}, {:.3}]",
        seeds - band_misses as u64,
        DIFF_BAND.0,
        DIFF_BAND.1,
        spread[0].0,
        spread[0].1,
        spread[1].0,
        spread[1].1,
        spread[2].0,
        spread[2].1,
    );
    let _ = writeln!(
        out,
        "mix: {mixed}/{seeds} programs select both mechanisms; {fuel_cut} fuel-cut"
    );
    // The mechanism-flip experiment: on the first mixed-mechanism seed,
    // the live verdicts must execute differently from forcing either
    // mechanism everywhere — proof the selection *drives* execution.
    if let Some(seed) = results.iter().position(|r| r.mixed) {
        let seed = seed as u64;
        let (_, _, ir) = compile(&gen_source(seed)).expect("mixed seed lowers");
        let ir = Arc::new(ir);
        let counters = |force: Option<Mech>| {
            let mut ctx = OldenCtx::new(Config::olden(DIFF_PROCS).with_protocol(protocol));
            run_ir(&mut ctx, &ir, seed, DEFAULT_FUEL, force);
            (ctx.stats().migrations, ctx.cache().stats().misses)
        };
        let live = counters(None);
        let mig = counters(Some(Mech::Migrate));
        let cache = counters(Some(Mech::Cache));
        let _ = writeln!(
            out,
            "flip seed {seed}: live migrations={} misses={} | all-migrate \
             migrations={} misses={} | all-cache migrations={} misses={}",
            live.0, live.1, mig.0, mig.1, cache.0, cache.1
        );
    }
    let _ = writeln!(
        out,
        "totals: migrations={} line-fetches={} steals={} checks={}",
        totals[0], totals[1], totals[2], totals[3]
    );
    let _ = writeln!(out, "difftest: {} divergence(s)", divergent.len());
    (out, divergent, band_misses)
}

/// `oldenc difftest [--seeds N] [--protocol P]`: print
/// [`difftest_report`]. Any divergence is delta-debugged down to a
/// minimal reproducer under `tests/corpus/`, where
/// `corpus_repros_execute_differentially` replays it on both backends
/// forever. Exit 1 on any divergence or band miss.
pub fn difftest(seeds: u64, protocol: Protocol) -> ExitCode {
    let (report, divergent, band_misses) = difftest_report(seeds, protocol);
    print!("{report}");
    for &seed in &divergent {
        let small = shrink(&gen_source(seed), &|s| difftest_diverges(s, seed, protocol));
        let path = format!("tests/corpus/difftest-seed{seed}-{}.dsl", protocol.name());
        save_repro(&path, &small);
    }
    if divergent.is_empty() && band_misses == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "oldenc: {} divergence(s), {band_misses} band miss(es)",
            divergent.len()
        );
        ExitCode::FAILURE
    }
}

/// The command prefix that re-enters the running binary as a net worker:
/// the parent appends `olden_net::worker::WORKER_USAGE` per process.
pub fn self_worker_cmd() -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let exe = exe
        .into_os_string()
        .into_string()
        .map_err(|p| format!("own binary path is not unicode: {p:?}"))?;
    Ok(vec![exe, "net-worker".to_string()])
}

/// `oldenc net [BENCH] [--procs N] [--seeds N] [--protocol P]
/// [--stall-timeout SECS]`: every benchmark (or one) executed on the
/// multi-process network backend — one worker OS process per simulated
/// processor over loopback TCP, re-entering this binary through its
/// hidden `net-worker` subcommand — held to value and full counter parity
/// with the simulator, plus `seeds` chaos schedules per benchmark over
/// the real sockets. Exit 1 on any divergence, 3 when the sandbox denies
/// loopback (CI treats that as "skip").
pub fn net(
    bench: Option<&str>,
    procs: usize,
    seeds: u64,
    protocol: Protocol,
    stall: Option<Duration>,
) -> ExitCode {
    if !loopback_available() {
        eprintln!("oldenc: loopback TCP unavailable; cannot run the net backend here");
        return ExitCode::from(3);
    }
    let worker_cmd = match self_worker_cmd() {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("oldenc: {e}");
            return ExitCode::from(2);
        }
    };
    let quiet = lockstep(procs, protocol, stall);
    let net_with = |name: &'static str, cfg: ExecConfig| {
        run_net(NetConfig::new(cfg, worker_cmd.clone()), kernel(name))
    };

    let descriptors = crate::selected(bench);
    let mut divergent = 0usize;
    for d in &descriptors {
        let name = d.name;
        let (sim_val, oracle) = simulate(name, procs, protocol);
        let t = Instant::now();
        let (val, rep) = net_with(name, quiet);
        let wall_ms = t.elapsed().as_nanos() as f64 / 1e6;
        let clean = val == sim_val && oracle.diff(&rep).is_none();
        if !clean {
            println!("{name}: DIVERGED from the simulator over TCP");
            divergent += 1;
        }
        let mut chaos_bad = 0usize;
        for seed in 0..seeds {
            let (cv, chaotic) = net_with(name, quiet.chaotic(seed));
            if cv != sim_val || oracle.diff(&chaotic).is_some() || chaotic.messages != rep.messages
            {
                println!("{name}: chaos seed {seed} DIVERGED over TCP");
                chaos_bad += 1;
            }
        }
        divergent += chaos_bad;
        println!(
            "{name}: {} on {procs} worker processes, {} frames, {wall_ms:.2} ms{}",
            if clean { "parity ok" } else { "PARITY BROKEN" },
            rep.messages,
            if seeds > 0 {
                format!(", chaos {}/{seeds} seeds ok", seeds as usize - chaos_bad)
            } else {
                String::new()
            }
        );
    }
    if divergent == 0 {
        println!(
            "net: {} benchmark(s) byte-equal to the simulator across process boundaries \
             (protocol {})",
            descriptors.len(),
            protocol.name()
        );
    }
    exit_unless_zero(divergent, "net run(s) diverged")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Results come back in seed order whatever the worker count —
    /// including no seeds, one seed, and more workers than seeds.
    #[test]
    fn par_seeds_returns_results_in_seed_order() {
        for n in [0u64, 1, 7] {
            let want: Vec<u64> = (0..n).map(|s| s * s + 1).collect();
            for workers in [1, 2, 3, 16] {
                assert_eq!(
                    par_seeds_on(workers, n, |s| s * s + 1),
                    want,
                    "n={n} workers={workers}"
                );
            }
            assert_eq!(
                par_seeds(n, |s| s * s + 1),
                want,
                "n={n} on the host's cores"
            );
        }
    }
}
