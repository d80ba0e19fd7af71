//! The olden-verify fuzz gate: metamorphic cross-validation of the
//! whole analysis stack over generated programs, the ten benchmark
//! DSLs, the racy corpus, and the saved shrunken repros.
//!
//! `oldenc fuzz` runs the same sweep from the command line (and CI runs
//! it over 500 seeds); these tests keep a smaller always-on slice in
//! `cargo test`.

use olden_analysis::gen::gen_source;
use olden_analysis::typeck::typecheck_src;
use olden_analysis::verify::{verify_seed, verify_source, Coverage};
use olden_analysis::{cfg, parse};

/// Seeds 0..150 pass every oracle: round-trip, typecheck, totality,
/// cross-pass consistency, metamorphic invariance, non-vacuity.
#[test]
fn fuzz_smoke_over_seed_range() {
    let mut cov = Coverage::default();
    for seed in 0..150u64 {
        if let Err(f) = verify_seed(seed, &mut cov) {
            panic!("{f}\n--- source ---\n{}", f.source);
        }
    }
    assert_eq!(cov.programs, 150);
    // The sweep must exercise the grammar, not just straight-line code.
    assert!(cov.whiles > 0 && cov.ifs > 0, "{cov:?}");
    assert!(cov.futures > 0 && cov.touches > 0, "{cov:?}");
    assert!(cov.stores > 0 && cov.paths > 0, "{cov:?}");
}

/// The sweep is bit-for-bit deterministic: same seeds, same coverage,
/// same generated sources.
#[test]
fn fuzz_sweep_is_deterministic() {
    let mut c1 = Coverage::default();
    let mut c2 = Coverage::default();
    for seed in 0..25u64 {
        verify_seed(seed, &mut c1).unwrap();
        verify_seed(seed, &mut c2).unwrap();
        assert_eq!(gen_source(seed), gen_source(seed));
    }
    assert_eq!(c1, c2);
}

/// Every ill-typed mutation class is applied (and rejected with its
/// matching code) somewhere in the first hundred seeds — the
/// non-vacuity gate for the typechecker itself.
#[test]
fn every_mutation_class_is_exercised() {
    let mut cov = Coverage::default();
    for seed in 0..100u64 {
        verify_seed(seed, &mut cov).unwrap();
    }
    for class in [
        "drop-touch",
        "break-arity",
        "retype-arg",
        "retype-field",
        "double-touch",
    ] {
        assert!(
            cov.mutations.get(class).copied().unwrap_or(0) > 0,
            "mutation class `{class}` never fired: {:?}",
            cov.mutations
        );
    }
}

/// All ten Table-1 benchmark DSLs pass the source-level oracles:
/// rendering idempotence, a clean typecheck, pass totality, and
/// cross-pass consistency.
#[test]
fn benchmark_dsls_pass_source_oracles() {
    let mut cov = Coverage::default();
    for d in olden_benchmarks::all() {
        if let Err(f) = verify_source(d.name, d.dsl, &mut cov) {
            panic!("{}: {f}", d.name);
        }
    }
    assert_eq!(cov.programs, olden_benchmarks::all().len());
}

/// The racy corpus — including its deliberately-racing seeds — is
/// type-clean and CFG-well-formed: races are a scheduling property, not
/// a typing one, and the front gate must not reject them.
#[test]
fn racy_corpus_typechecks_and_is_well_formed() {
    let mut cov = Coverage::default();
    for seed in olden_benchmarks::racy::seeds() {
        let diags = typecheck_src(seed.dsl).unwrap_or_else(|e| panic!("{}: {e}", seed.name));
        assert!(
            diags.is_empty(),
            "{}: {:?}",
            seed.name,
            diags.iter().map(|d| d.one_line()).collect::<Vec<_>>()
        );
        let p = parse(seed.dsl).unwrap();
        for (f, cfg) in p.funcs.iter().zip(cfg::lower_program(&p)) {
            cfg.check_well_formed(f)
                .unwrap_or_else(|e| panic!("{}: {e}", seed.name));
        }
        verify_source(seed.name, seed.dsl, &mut cov)
            .unwrap_or_else(|f| panic!("{}: {f}", seed.name));
    }
    assert!(cov.programs >= 6, "racy corpus shrank? {}", cov.programs);
}

/// Replay every shrunken repro saved by `oldenc fuzz`: once fixed, a
/// failure must stay fixed.
#[test]
fn corpus_repros_replay_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "dsl"))
        .collect();
    names.sort();
    assert!(
        !names.is_empty(),
        "tests/corpus must hold at least the seed repros"
    );
    let mut cov = Coverage::default();
    for path in names {
        let src = std::fs::read_to_string(&path).unwrap();
        if let Err(f) = verify_source(&path.display().to_string(), &src, &mut cov) {
            panic!("{}: {f}", path.display());
        }
    }
}
