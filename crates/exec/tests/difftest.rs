//! Differential execution of lowered DSL programs: the IR interpreter
//! driving the simulator and the thread backend must agree byte-for-byte
//! — in values, trip counts, every runtime event counter, cache totals,
//! and pages cached. These are the named (non-fuzz) anchors of the
//! `oldenc difftest` harness: the saved corpus, the ten benchmark DSLs,
//! the IR edge cases, and the mechanism-flip experiment.

use olden_analysis::{compile, gen_program, render, Mech, Stmt};
use olden_exec::{run_exec, ExecConfig};
use olden_runtime::{run_ir, Config, OldenCtx, RunOutcome, DEFAULT_FUEL};
use std::sync::Arc;

const PROCS: usize = 4;

/// Compile `src`, run it on the simulator and on the lockstep thread
/// backend from the same input seed, and hold every observable equal.
/// Returns the (shared) outcome and the simulator context for further
/// assertions.
fn assert_parity(name: &str, src: &str, seed: u64) -> (RunOutcome, OldenCtx) {
    let (_, _, ir) = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let ir = Arc::new(ir);
    let mut sim = OldenCtx::new(Config::olden(PROCS));
    let out_sim = run_ir(&mut sim, &ir, seed, DEFAULT_FUEL, None);
    let ir2 = Arc::clone(&ir);
    let (out_exec, rep) = run_exec(ExecConfig::lockstep(PROCS), move |ctx| {
        run_ir(ctx, &ir2, seed, DEFAULT_FUEL, None)
    });
    assert_eq!(out_exec, out_sim, "{name}: values/trips diverged");
    assert_eq!(
        rep.diff_from_sim(sim.stats(), sim.cache().stats(), sim.cache().pages_cached()),
        None,
        "{name}: counters"
    );
    (out_sim, sim)
}

/// Satellite: every shrunk repro saved under `tests/corpus/` replays
/// through the IR interpreter on both backends — old fuzz findings are
/// executable regressions forever. Repros that (by design) fail the
/// front gate must fail it cleanly rather than execute.
#[test]
fn corpus_repros_execute_differentially() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "dsl"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "tests/corpus must hold the seed repros");
    let mut executed = 0usize;
    for path in paths {
        let name = path.display().to_string();
        let src = std::fs::read_to_string(&path).unwrap();
        match compile(&src) {
            Ok(_) => {
                for seed in 0..3 {
                    assert_parity(&name, &src, seed);
                }
                executed += 1;
            }
            Err(e) => {
                // A repro the front gate rejects is still a regression
                // anchor: it must keep failing for a *typed* reason, not
                // crash the lowering.
                assert!(
                    e.starts_with("parse error") || e.starts_with("type error"),
                    "{name}: lowering failed after the front gate: {e}"
                );
            }
        }
    }
    assert!(executed >= 3, "the seed repros are executable: {executed}");
}

/// The ten benchmark DSL renditions — until now only analyzed — execute
/// on both backends with full counter parity, under their live
/// olden-select verdicts.
#[test]
fn benchmark_dsls_execute_with_parity() {
    for d in olden_benchmarks::all() {
        assert_parity(d.name, d.dsl, 0);
    }
}

/// IR edge case: a future whose body is empty (and one never touched).
#[test]
fn empty_future_body_parity() {
    let src = "struct s { s *n; int v; }\n\
               void nop(s *p) { }\n\
               int main(s *p) {\n\
                   h = futurecall nop(p);\n\
                   touch h;\n\
                   futurecall nop(p);\n\
                   return 1;\n\
               }\n";
    let (_, sim) = assert_parity("empty-future", src, 5);
    assert_eq!(sim.stats().futures, 2);
    assert_eq!(sim.stats().touches, 1);
}

/// IR edge case: a loop whose condition is false on entry — zero trips,
/// zero body checks, on both backends.
#[test]
fn zero_trip_loop_parity() {
    let src = "struct s { s *n; int v; }\n\
               int f(s *p) {\n\
                   i = 0;\n\
                   while (i > 0) { i = i - 1; x = p->v; }\n\
                   return i;\n\
               }\n";
    let (out, sim) = assert_parity("zero-trip", src, 5);
    assert_eq!(out.trips, vec![("f#0".to_string(), 0)]);
    assert_eq!(sim.stats().checks_performed, 0);
}

/// IR edge case: paths from a null-assigned base (typed `Unknown` by the
/// flow-sensitive checker) are inert on both backends.
#[test]
fn null_unknown_path_parity() {
    let src = "struct s { s *n; int v; }\n\
               int f(s *unused) {\n\
                   p = null;\n\
                   x = p->v;\n\
                   p->v = 9;\n\
                   q = p->n->n->v;\n\
                   return x + q;\n\
               }\n";
    let (_, sim) = assert_parity("null-path", src, 5);
    assert_eq!(sim.stats().checks_performed, 0, "null paths skip the heap");
}

/// `main` spawns and touches a future of `body` per iteration and makes
/// a plain call to `leaf`, which calls `twig`. `body`'s and `leaf`'s
/// loops run only under `main`: their top-level runs get `k <= 7`.
const NESTED_FUTURES: &str = "struct s { s *n @ 80; int v; }\n\
    int main(s *p) {\n\
        t = 0;\n\
        i = 0;\n\
        while (i < 3) {\n\
            h = futurecall body(p, i + 10);\n\
            c = leaf(p, i + 10);\n\
            touch h;\n\
            t = t * 31 + h * 7 + c;\n\
            i = i + 1;\n\
            p = p->n;\n\
        }\n\
        return t;\n\
    }\n\
    int body(s *p, int k) {\n\
        j = 0;\n\
        while (j < k - 9) { j = j + 1; }\n\
        return j + p->v;\n\
    }\n\
    int leaf(s *p, int k) {\n\
        m = 0;\n\
        while (m < k - 9) { m = m + twig(p); }\n\
        return m;\n\
    }\n\
    int twig(s *p) { return p->v; }\n";

/// Fuel cuts land on the same block on both backends, wherever they
/// fall: every fuel value from 1 up to the uncut cost of
/// [`NESTED_FUTURES`] must give equal outcomes and counters. A trip count
/// that rises between fuel `f` and `f + 1` shows the cut at `f` landed on
/// that loop's body block: inside a future body, or inside a plain callee.
#[test]
fn every_fuel_cut_agrees_across_backends() {
    let (_, _, ir) = compile(NESTED_FUTURES).unwrap();
    let ir = Arc::new(ir);
    let run = |fuel: i64| {
        let mut sim = OldenCtx::new(Config::olden(PROCS));
        let out_sim = run_ir(&mut sim, &ir, 3, fuel, None);
        let ir2 = Arc::clone(&ir);
        let (out_exec, rep) = run_exec(ExecConfig::lockstep(PROCS), move |ctx| {
            run_ir(ctx, &ir2, 3, fuel, None)
        });
        assert_eq!(out_exec, out_sim, "fuel {fuel}: values/trips diverged");
        let diff = rep.diff_from_sim(sim.stats(), sim.cache().stats(), sim.cache().pages_cached());
        assert_eq!(diff, None, "fuel {fuel}: counters");
        out_sim
    };
    // rows[f - 1] is the outcome at fuel f; the last row is the first uncut.
    let mut rows = vec![run(1)];
    while rows.last().unwrap().halted {
        assert!(
            rows.len() < 2_000,
            "the program should finish well within 2 000 fuel"
        );
        rows.push(run(rows.len() as i64 + 1));
    }
    assert_eq!(rows.len(), 234, "the uncut cost");
    let keys: Vec<&str> = rows[0].trips.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["main#0", "body#0", "leaf#0"]);
    let trips = |f: usize| -> Vec<u64> { rows[f - 1].trips.iter().map(|(_, n)| *n).collect() };
    let cuts_in = |slot: usize| -> Vec<usize> {
        (1..rows.len())
            .filter(|&f| trips(f + 1)[slot] > trips(f)[slot])
            .collect()
    };
    assert_eq!(
        cuts_in(1),
        [40, 100, 108, 168, 176, 184],
        "cuts inside a future body"
    );
    assert_eq!(cuts_in(2), [58, 126, 202], "cuts inside a plain callee");
    // Every cut under `main` returns zero from it: the checksum only moves
    // once the cuts reach the top-level runs of `body`, `leaf` and `twig`.
    let cut_to_zero = 17531236018355781396;
    let pinned: [(usize, u64, [u64; 3], bool); 8] = [
        (40, cut_to_zero, [1, 0, 0], true),
        (41, cut_to_zero, [1, 1, 0], true),
        (58, cut_to_zero, [1, 1, 0], true),
        (59, cut_to_zero, [1, 1, 1], true),
        (101, cut_to_zero, [2, 2, 1], true),
        (214, 911176399111507098, [3, 6, 3], true),
        (233, 13756121196452938701, [3, 6, 3], true),
        (234, 17163712724697802224, [3, 6, 3], false),
    ];
    for (f, checksum, t, halted) in pinned {
        let out = &rows[f - 1];
        assert_eq!(
            (out.checksum, trips(f), out.halted),
            (checksum, t.to_vec(), halted),
            "fuel {f}"
        );
    }
}

/// Figure 4's TreeAdd over a tree whose children mostly live on other
/// processors: future bodies migrate, so their continuations are stolen.
const SCATTERED_TREE: &str = "struct tree { tree *left @ 20; tree *right @ 20; int val; };\n\
    int TreeAdd(tree *t) {\n\
        if (t == null) { return 0; }\n\
        int lv = futurecall TreeAdd(t->left);\n\
        int rv = TreeAdd(t->right);\n\
        touch lv;\n\
        return lv + rv + t->val;\n\
    }\n";

/// In parallel mode an IR program still runs every future body inline on
/// its spawner's OS thread, as lockstep does: a body that migrates forks
/// and has its continuation stolen, but no second client is started. So
/// the run is the simulator's, counter for counter.
#[test]
fn parallel_mode_computes_the_simulators_values() {
    for (name, src, stolen) in [
        ("nested", NESTED_FUTURES, false),
        ("scattered", SCATTERED_TREE, true),
    ] {
        let (_, _, ir) = compile(src).unwrap();
        let ir = Arc::new(ir);
        let mut sim = OldenCtx::new(Config::olden(PROCS));
        let out_sim = run_ir(&mut sim, &ir, 3, DEFAULT_FUEL, None);
        let ir2 = Arc::clone(&ir);
        let (out, rep) = run_exec(ExecConfig::parallel(PROCS), move |ctx| {
            run_ir(ctx, &ir2, 3, DEFAULT_FUEL, None)
        });
        assert!(!out.halted && !out_sim.halted, "{name}");
        assert_eq!(out.checksum, out_sim.checksum, "{name}");
        assert_eq!(rep.clients, 1, "{name}: a body left its spawner's thread");
        assert_eq!(
            rep.diff_from_sim(sim.stats(), sim.cache().stats(), sim.cache().pages_cached()),
            None,
            "{name}: counters"
        );
        assert_eq!(sim.stats().steals > 0, stolen, "{name}: steals");
    }
}

/// Statement-nesting depth of a function body (while/if nesting).
fn nesting_depth(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::If { then_, else_, .. } => 1 + nesting_depth(then_).max(nesting_depth(else_)),
            Stmt::While { body, .. } => 1 + nesting_depth(body),
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// IR edge case: the deepest-nesting program the generator produces in
/// its first 300 seeds executes with parity — the "generator extremes"
/// anchor, self-selecting so it tracks grammar changes.
#[test]
fn generator_max_nesting_parity() {
    let (mut best_seed, mut best_depth) = (0u64, 0usize);
    for seed in 0..300u64 {
        let prog = gen_program(seed);
        let d = prog
            .funcs
            .iter()
            .map(|f| nesting_depth(&f.body))
            .max()
            .unwrap_or(0);
        if d > best_depth {
            (best_seed, best_depth) = (seed, d);
        }
    }
    // The grammar's ceiling today: count_loop bodies nest an `if` or an
    // inner loop inside the `while` (depth 2). If the generator grows
    // deeper shapes, this anchor automatically follows them.
    assert!(
        best_depth >= 2,
        "generator extremes shrank to depth {best_depth}?"
    );
    let src = render(&gen_program(best_seed));
    assert_parity(&format!("max-nesting seed {best_seed}"), &src, best_seed);
}

/// Chaos smoke: a lowered generated program under seeded fault injection
/// stays byte-equal to the fault-free simulator (the full 25-seed sweep
/// lives in `oldenc difftest`).
#[test]
fn chaotic_generated_run_matches_simulator() {
    let src = render(&gen_program(0));
    let (_, _, ir) = compile(&src).unwrap();
    let ir = Arc::new(ir);
    let mut sim = OldenCtx::new(Config::olden(PROCS));
    let out_sim = run_ir(&mut sim, &ir, 0, DEFAULT_FUEL, None);
    for chaos_seed in 0..3 {
        let ir2 = Arc::clone(&ir);
        let (out, rep) = run_exec(
            ExecConfig::lockstep(PROCS).chaotic(chaos_seed),
            move |ctx| run_ir(ctx, &ir2, 0, DEFAULT_FUEL, None),
        );
        assert_eq!(out, out_sim, "chaos seed {chaos_seed}");
        assert_eq!(
            rep.diff_from_sim(sim.stats(), sim.cache().stats(), sim.cache().pages_cached()),
            None,
            "chaos seed {chaos_seed}"
        );
    }
}

/// The acceptance experiment: a generated (non-benchmark) program whose
/// verdict table mixes migrate and cache sites, where honoring the live
/// olden-select verdicts produces different executed counters than
/// forcing either mechanism — the heuristic demonstrably *drives*
/// execution — and the live counters sit inside the static cost model's
/// bands at the measured trip counts.
#[test]
fn mechanism_mix_drives_execution_within_cost_bands() {
    use olden_analysis::{mech_table, predict};
    let mixed = (0..200u64).find(|&seed| {
        let prog = gen_program(seed);
        let table = mech_table(&prog);
        let migrate = table
            .sites
            .iter()
            .filter(|s| s.mech == Mech::Migrate)
            .count();
        migrate > 0 && migrate < table.sites.len()
    });
    let seed = mixed.expect("some generated program mixes mechanisms");
    let prog = gen_program(seed);
    let table = mech_table(&prog);
    let src = render(&prog);
    let (_, _, ir) = compile(&src).unwrap();
    let ir = Arc::new(ir);

    let run = |force: Option<Mech>| {
        let mut ctx = OldenCtx::new(Config::olden(PROCS));
        let out = run_ir(&mut ctx, &ir, seed, DEFAULT_FUEL, force);
        let stats = *ctx.stats();
        let misses = ctx.cache().stats().misses;
        (out, stats, misses)
    };
    let (live_out, live, live_misses) = run(None);
    let (mig_out, mig, mig_misses) = run(Some(Mech::Migrate));
    let (cache_out, cache, cache_misses) = run(Some(Mech::Cache));
    assert_eq!(
        live_out.checksum, mig_out.checksum,
        "mechanism never changes values"
    );
    assert_eq!(live_out.checksum, cache_out.checksum);
    assert!(
        (live.migrations, live_misses) != (mig.migrations, mig_misses)
            && (live.migrations, live_misses) != (cache.migrations, cache_misses),
        "seed {seed}: the live selection must execute differently from \
         both forced mechanisms: live=({}, {live_misses}), migrate=({}, {mig_misses}), \
         cache=({}, {cache_misses})",
        live.migrations,
        mig.migrations,
        cache.migrations,
    );

    // Cost-band conformance: predictions at the *measured* trip counts
    // bracket the executed counters.
    let trips: Vec<(&str, u64)> = live_out
        .trips
        .iter()
        .map(|(k, n)| (k.as_str(), *n))
        .collect();
    let p = predict(&prog, table, &trips, PROCS);
    let measured = [
        ("migrations", p.migrations, live.migrations),
        ("line_fetches", p.line_fetches, live_misses),
        ("remote_touches", p.remote_touches, live.steals),
    ];
    for (what, pred, meas) in measured {
        let ratio = (pred + 1.0) / (meas as f64 + 1.0);
        assert!(
            (0.05..=20.0).contains(&ratio),
            "seed {seed}: {what} out of band: predicted {pred:.1}, measured {meas} \
             (ratio {ratio:.3})"
        );
    }
}
