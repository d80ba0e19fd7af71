//! A program computes its CFGs, verdict table and race findings once, on
//! first use, and every later pass reads them. This sweep checks that no
//! pass's output depends on which pass ran first: over generated
//! programs and the ten Table-1 benchmark DSLs, every pass run on one
//! shared `Program` — in the compile job's table-first order and in
//! scheme-first order — renders byte-identically to the same pass run on
//! its own fresh parse.

use olden_analysis::{
    gen_source, loop_keys, lower_ir, mech_table, optimize, parse, predict, racecheck,
    select_scheme, Program,
};

const PASSES: [&str; 6] = ["table", "ir", "opt", "races", "scheme", "predict"];

/// One pass's rendered output.
fn run(pass: &str, p: &Program) -> String {
    match pass {
        "table" => mech_table(p).render(),
        "ir" => format!("{:?}", lower_ir(p, mech_table(p))),
        "opt" => optimize(p).render(),
        "races" => racecheck(p).iter().map(|d| d.one_line() + "\n").collect(),
        "scheme" => select_scheme(p).render(),
        "predict" => {
            let keys = loop_keys(p);
            let trips: Vec<(&str, u64)> = keys.iter().map(|k| (k.as_str(), 5)).collect();
            format!("{:?}", predict(p, mech_table(p), &trips, 8))
        }
        _ => unreachable!("unknown pass {pass}"),
    }
}

/// The passes run in `order` on one shared parse, reported in
/// [`PASSES`] order.
fn shared(src: &str, order: [&str; 6]) -> Vec<String> {
    let p = parse(src).unwrap();
    let mut out = vec![String::new(); PASSES.len()];
    for pass in order {
        out[PASSES.iter().position(|x| *x == pass).unwrap()] = run(pass, &p);
    }
    out
}

fn check(name: &str, src: &str) {
    let fresh: Vec<String> = PASSES
        .iter()
        .map(|pass| run(pass, &parse(src).unwrap()))
        .collect();
    let table_first = ["table", "ir", "opt", "races", "scheme", "predict"];
    let scheme_first = ["scheme", "opt", "races", "predict", "table", "ir"];
    for order in [table_first, scheme_first] {
        for (i, got) in shared(src, order).iter().enumerate() {
            assert_eq!(
                got, &fresh[i],
                "{name}: `{}` differs when the passes run in order {order:?}",
                PASSES[i]
            );
        }
    }
}

#[test]
fn shared_analysis_matches_fresh_passes_on_generated_programs() {
    for seed in 0..300u64 {
        check(&format!("seed {seed}"), &gen_source(seed));
    }
}

#[test]
fn shared_analysis_matches_fresh_passes_on_the_paper_benchmarks() {
    let all = olden_benchmarks::all();
    assert_eq!(all.len(), 10);
    for d in all {
        check(d.name, d.dsl);
    }
}
