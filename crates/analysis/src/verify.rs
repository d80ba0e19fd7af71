//! Metamorphic cross-validation of the whole analysis stack.
//!
//! [`verify_seed`] runs every oracle we have against one generated
//! program ([`crate::gen`]); [`verify_source`] runs the source-level
//! subset against an arbitrary DSL program (the benchmark descriptors,
//! the racy corpus, saved repros). The oracles:
//!
//! * **Round-trip** — `parse(render(gen(seed)))` equals the generated
//!   AST up to spans; for arbitrary sources, `render∘parse` is
//!   idempotent after one round.
//! * **Typecheck** — generated programs are well-typed by construction;
//!   the typechecker must agree.
//! * **Totality** — every pass (racecheck, CFG lowering, which emits
//!   the IR's instructions too, + `check_well_formed`, the optimizer, the
//!   §4 heuristic, the verdict table, the cost model) terminates without
//!   panicking.
//! * **Order independence** — a clone analysed scheme-first derives the
//!   same scheme, optimizer report and race findings as the program.
//! * **Consistency** — the optimizer and that clone's `MechTable` agree
//!   site by site on `(func, span, site, mech)`, so check elision is
//!   proven under the mechanism the program runs; `CheckNeeded +
//!   CheckElided` is conserved; cost predictions are finite and
//!   non-negative.
//! * **Metamorphic invariance** (generated programs) — α-renaming
//!   preserves every verdict up to renaming; inserting dead statements
//!   changes no existing-site verdict; adding a `touch` never
//!   *introduces* a race diagnostic; doubling trip counts is monotone in
//!   every predicted counter.
//! * **Non-vacuity** — seeded ill-typed mutations (drop a touch, break
//!   an arity, retype an argument or field, double a touch) must each be
//!   rejected by the matching `TC0xx` code, so a typechecker that
//!   rubber-stamps everything cannot pass the fuzz gate.
//!
//! On failure, [`shrink`] delta-debugs the source down to a small repro
//! (the `oldenc fuzz` driver writes it to `tests/corpus/`).

use crate::ast::{walk_mut, Expr, NodeMut, Program, Stmt};
use crate::cfg;
use crate::cost::{loop_keys, predict, Prediction};
use crate::diag::{codes, Span};
use crate::gen::{gen_program, render, strip_spans};
use crate::opt::optimize;
use crate::parser::parse;
use crate::racecheck::racecheck;
use crate::scheme::select_scheme;
use crate::typeck::typecheck;
use crate::verdicts::{mech_table, MechTable};
use olden_rng::{mix2, SplitMix64};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the fuzz sweep exercised, for reporting (and for asserting the
/// sweep was not vacuous).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Coverage {
    pub programs: usize,
    pub structs: usize,
    pub funcs: usize,
    pub whiles: usize,
    pub ifs: usize,
    pub stores: usize,
    pub touches: usize,
    pub futures: usize,
    pub calls: usize,
    pub paths: usize,
    /// Individual oracle assertions that ran.
    pub oracle_checks: usize,
    /// Ill-typed mutations applied (and rejected), per class.
    pub mutations: BTreeMap<&'static str, usize>,
}

impl Coverage {
    fn record_program(&mut self, p: &Program) {
        self.programs += 1;
        self.structs += p.structs.len();
        self.funcs += p.funcs.len();
        for f in &p.funcs {
            crate::ast::walk_stmts(&f.body, &mut |s| {
                match s {
                    Stmt::While { .. } => self.whiles += 1,
                    Stmt::If { .. } => self.ifs += 1,
                    Stmt::Store { .. } => self.stores += 1,
                    Stmt::Touch { .. } => self.touches += 1,
                    _ => {}
                }
                s.exprs(&mut |e| match e {
                    Expr::Call { future, .. } => {
                        self.calls += 1;
                        if *future {
                            self.futures += 1;
                        }
                    }
                    Expr::Path { .. } => self.paths += 1,
                    _ => {}
                });
            });
        }
    }

    /// Deterministic multi-line summary (the `oldenc fuzz` report).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "programs verified: {}", self.programs);
        let _ = writeln!(
            out,
            "nodes hit: structs {} funcs {} whiles {} ifs {} stores {} touches {} futures {} calls {} paths {}",
            self.structs,
            self.funcs,
            self.whiles,
            self.ifs,
            self.stores,
            self.touches,
            self.futures,
            self.calls,
            self.paths
        );
        let _ = writeln!(out, "oracle checks: {}", self.oracle_checks);
        let muts: Vec<String> = self
            .mutations
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        let _ = writeln!(
            out,
            "mutations rejected: {}",
            if muts.is_empty() {
                "none".to_string()
            } else {
                muts.join(", ")
            }
        );
        out
    }
}

/// One oracle violation: which oracle, on which program.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The generator seed, when the program came from [`gen_program`].
    pub seed: Option<u64>,
    pub oracle: &'static str,
    pub detail: String,
    /// DSL source of the offending program (pre-shrink).
    pub source: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.seed {
            Some(s) => write!(f, "seed {s}: oracle `{}`: {}", self.oracle, self.detail),
            None => write!(f, "oracle `{}`: {}", self.oracle, self.detail),
        }
    }
}

type Check = Result<(), (&'static str, String)>;

/// Run every oracle against the program generated from `seed`.
pub fn verify_seed(seed: u64, cov: &mut Coverage) -> Result<(), Failure> {
    let gp = gen_program(seed);
    let src = render(&gp);
    let wrap = |r: Check, src: &str| {
        r.map_err(|(oracle, detail)| Failure {
            seed: Some(seed),
            oracle,
            detail,
            source: src.to_string(),
        })
    };
    let p = match parse(&src) {
        Ok(p) => p,
        Err(e) => {
            return Err(Failure {
                seed: Some(seed),
                oracle: "round-trip",
                detail: format!("generated source does not parse: {e}"),
                source: src,
            })
        }
    };
    cov.oracle_checks += 1;
    if strip_spans(&p) != gp {
        return Err(Failure {
            seed: Some(seed),
            oracle: "round-trip",
            detail: "reparsed AST differs from the generated one".into(),
            source: src,
        });
    }
    wrap(check_program(&p, cov), &src)?;
    wrap(metamorphic(seed, &p, cov), &src)?;
    wrap(mutations(&p, cov), &src)?;
    cov.record_program(&p);
    Ok(())
}

/// Run the source-level oracles (round-trip idempotence, typecheck,
/// totality, consistency) against an arbitrary DSL program.
pub fn verify_source(name: &str, src: &str, cov: &mut Coverage) -> Result<(), Failure> {
    let fail = |oracle: &'static str, detail: String| Failure {
        seed: None,
        oracle,
        detail: format!("{name}: {detail}"),
        source: src.to_string(),
    };
    let p = parse(src).map_err(|e| fail("parse", e.to_string()))?;
    // render∘parse idempotence: one canonicalizing round, then stable.
    let r1 = render(&p);
    let p2 = parse(&r1).map_err(|e| fail("render-reparse", format!("{e}\n{r1}")))?;
    cov.oracle_checks += 1;
    if render(&p2) != r1 {
        return Err(fail("render-reparse", "rendering is not idempotent".into()));
    }
    check_program(&p, cov).map_err(|(oracle, detail)| fail(oracle, detail))?;
    cov.record_program(&p);
    Ok(())
}

/// Totality guard: run a pass, converting a panic into an oracle
/// failure.
fn total<T>(name: &'static str, f: impl FnOnce() -> T) -> Result<T, (&'static str, String)> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| ("totality", format!("pass `{name}` panicked")))
}

/// Typecheck + totality + cross-pass consistency, shared by generated
/// and hand-written programs.
fn check_program(p: &Program, cov: &mut Coverage) -> Check {
    // Front gate: the program must be well-typed.
    let diags = total("typecheck", || typecheck(p))?;
    cov.oracle_checks += 1;
    if !diags.is_empty() {
        let lines: Vec<String> = diags.iter().map(|d| d.one_line()).collect();
        return Err(("typecheck", lines.join("\n")));
    }

    // Totality of every downstream pass.
    let races = total("racecheck", || racecheck(p))?;
    cov.oracle_checks += 1;
    let cfgs = total("cfg-lower", || cfg::lower_program(p))?;
    cov.oracle_checks += 1;
    for (f, cfgv) in p.funcs.iter().zip(&cfgs) {
        if let Err(e) = cfgv.check_well_formed(f) {
            return Err(("well-formed", e));
        }
        cov.oracle_checks += 1;
    }
    let opt = total("optimize", || optimize(p))?;
    total("select", || crate::heuristic::select(p))?;

    // Order independence: each pass reads what the first pass to run
    // derived, so a clone (which starts with nothing derived) analysed
    // scheme-first must derive the same scheme, optimizer verdicts and
    // race findings, and the table checked below.
    let q = p.clone();
    let fresh = total("scheme-first", || {
        let scheme = select_scheme(&q).render();
        (scheme, optimize(&q).render(), racecheck(&q))
    })?;
    let first = (select_scheme(p).render(), opt.render(), races);
    cov.oracle_checks += 1;
    if fresh != first {
        return Err((
            "order-independence",
            format!("analysed scheme-first, a clone derived {fresh:?}, not {first:?}"),
        ));
    }
    let table = total("mech-table", || mech_table(&q))?;
    cov.oracle_checks += 2;

    // Conservation: every site gets exactly one of the two verdicts.
    let (opt_total, elided) = opt.stats();
    let needed = opt
        .sites
        .iter()
        .filter(|s| s.verdict == crate::opt::Verdict::CheckNeeded)
        .count();
    cov.oracle_checks += 1;
    if needed + elided != opt_total {
        return Err((
            "consistency",
            format!("CheckNeeded {needed} + CheckElided {elided} != total {opt_total}"),
        ));
    }

    // The optimizer reasons about exactly the sites of the table the
    // clone derived, under its mechanisms — the ones the IR executes.
    cov.oracle_checks += 1;
    if opt.sites.len() != table.sites.len() {
        return Err((
            "consistency",
            format!(
                "optimizer has {} sites, mech table {}",
                opt.sites.len(),
                table.sites.len()
            ),
        ));
    }
    for (o, t) in opt.sites.iter().zip(&table.sites) {
        if (&o.func, o.span, &o.site, o.mech) != (&t.func, t.span, &t.site, t.mech) {
            return Err((
                "consistency",
                format!(
                    "optimizer reasons `{} -> {}` where the mech table has `{}`",
                    o.key(),
                    o.mech.name(),
                    t.key()
                ),
            ));
        }
    }

    // Cost model: finite, non-negative, and monotone in trip counts.
    let keys = total("loop-keys", || loop_keys(p))?;
    let pred4 = predict_with(p, table, &keys, 4)?;
    let pred8 = predict_with(p, table, &keys, 8)?;
    cov.oracle_checks += 2;
    for (label, pred) in [("trips=4", &pred4), ("trips=8", &pred8)] {
        for (name, v) in [
            ("migrations", pred.migrations),
            ("line_fetches", pred.line_fetches),
            ("invalidations", pred.invalidations),
            ("remote_touches", pred.remote_touches),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(("consistency", format!("{label}: {name} = {v}")));
            }
        }
    }
    cov.oracle_checks += 1;
    for (name, lo, hi) in [
        ("migrations", pred4.migrations, pred8.migrations),
        ("line_fetches", pred4.line_fetches, pred8.line_fetches),
        ("invalidations", pred4.invalidations, pred8.invalidations),
        ("remote_touches", pred4.remote_touches, pred8.remote_touches),
    ] {
        if hi < lo {
            return Err((
                "monotonicity",
                format!("{name} fell from {lo} to {hi} when trips doubled"),
            ));
        }
    }
    Ok(())
}

fn predict_with(
    p: &Program,
    table: &MechTable,
    keys: &[String],
    trip: u64,
) -> Result<Prediction, (&'static str, String)> {
    let trips: Vec<(&str, u64)> = keys.iter().map(|k| (k.as_str(), trip)).collect();
    total("predict", || predict(p, table, &trips, 8))
}

// ----- metamorphic transforms ---------------------------------------------

/// Prefix every identifier with `r_`. A prefix (rather than a suffix)
/// preserves the relative lexicographic order of any two names, so every
/// name-ordered tie-break in the passes resolves identically.
fn rename_ident(s: &str) -> String {
    format!("r_{s}")
}

fn rename_program(p: &Program) -> Program {
    let mut out = p.clone();
    for s in &mut out.structs {
        s.name = rename_ident(&s.name);
        for f in &mut s.fields {
            f.name = rename_ident(&f.name);
            if f.is_pointer {
                f.ty = rename_ident(&f.ty);
            }
        }
    }
    for f in &mut out.funcs {
        f.name = rename_ident(&f.name);
        for p in &mut f.params {
            *p = rename_ident(p);
        }
        for a in &mut f.param_tys {
            if a.is_pointer {
                a.name = rename_ident(&a.name);
            }
        }
        if f.ret.is_pointer {
            f.ret.name = rename_ident(&f.ret.name);
        }
        walk_mut(&mut f.body, &mut |node| {
            match node {
                NodeMut::Stmt(Stmt::Assign { dst: v, .. } | Stmt::Touch { var: v, .. })
                | NodeMut::Expr(Expr::Var(v) | Expr::Call { func: v, .. }) => *v = rename_ident(v),
                NodeMut::Stmt(Stmt::Store { base, fields, .. })
                | NodeMut::Expr(Expr::Path { base, fields, .. }) => {
                    *base = rename_ident(base);
                    for f in fields {
                        *f = rename_ident(f);
                    }
                }
                _ => {}
            }
            false
        });
    }
    out
}

/// Racecheck findings as an order-insensitive footprint. Messages embed
/// identifier names (which α-renaming changes), so the footprint is
/// `(span, code)` with multiplicity.
fn race_footprint(p: &Program) -> Vec<(Span, &'static str)> {
    let mut v: Vec<(Span, &'static str)> = racecheck(p).iter().map(|d| (d.span, d.code)).collect();
    v.sort();
    v
}

fn metamorphic(seed: u64, p: &Program, cov: &mut Coverage) -> Check {
    // --- α-renaming preserves every verdict up to renaming -----------
    let rn = rename_program(p);
    let tds = total("typecheck(α)", || typecheck(&rn))?;
    cov.oracle_checks += 1;
    if !tds.is_empty() {
        return Err((
            "alpha-rename",
            format!(
                "renamed program no longer typechecks: {}",
                tds[0].one_line()
            ),
        ));
    }
    cov.oracle_checks += 1;
    if race_footprint(p) != total("racecheck(α)", || race_footprint(&rn))? {
        return Err(("alpha-rename", "racecheck footprint changed".into()));
    }
    let m1 = total("mech-table", || mech_table(p))?;
    let m2 = total("mech-table(α)", || mech_table(&rn))?;
    cov.oracle_checks += 1;
    if m1.sites.len() != m2.sites.len() {
        return Err((
            "alpha-rename",
            format!("site count {} -> {}", m1.sites.len(), m2.sites.len()),
        ));
    }
    for (a, b) in m1.sites.iter().zip(&m2.sites) {
        let want_site: String = a
            .site
            .split("->")
            .map(rename_ident)
            .collect::<Vec<_>>()
            .join("->");
        if b.span != a.span
            || b.mech != a.mech
            || b.func != rename_ident(&a.func)
            || b.site != want_site
        {
            return Err((
                "alpha-rename",
                format!("verdict changed: `{}` -> `{}`", a.key(), b.key()),
            ));
        }
    }
    let o1 = total("optimize", || optimize(p))?;
    let o2 = total("optimize(α)", || optimize(&rn))?;
    cov.oracle_checks += 1;
    if o1.stats() != o2.stats() {
        return Err((
            "alpha-rename",
            format!("opt stats {:?} -> {:?}", o1.stats(), o2.stats()),
        ));
    }
    let e1: Vec<String> = o1.elided_keys().iter().map(|k| rename_opt_key(k)).collect();
    let e2 = o2.elided_keys();
    cov.oracle_checks += 1;
    if e1 != e2 {
        return Err(("alpha-rename", "elided-site set changed".into()));
    }
    let k1 = loop_keys(p);
    let k2 = loop_keys(&rn);
    let k1r: Vec<String> = k1
        .iter()
        .map(|k| match k.split_once('#') {
            Some((f, ord)) => format!("{}#{ord}", rename_ident(f)),
            None => k.clone(),
        })
        .collect();
    cov.oracle_checks += 1;
    if k1r != k2 {
        return Err(("alpha-rename", format!("loop keys {k1:?} -> {k2:?}")));
    }
    let pr1 = predict_with(p, m1, &k1, 4)?;
    let pr2 = predict_with(&rn, m2, &k2, 4)?;
    cov.oracle_checks += 1;
    if pr1 != pr2 {
        return Err((
            "alpha-rename",
            format!("prediction changed: {pr1:?} -> {pr2:?}"),
        ));
    }

    // --- dead statements change no existing verdict ------------------
    let mut dead = p.clone();
    let mut rng = SplitMix64::new(mix2(seed, 0xdead));
    for f in &mut dead.funcs {
        // Insert only at top level, never after a trailing return, so
        // the CFG stays fully reachable.
        let limit = match f.body.last() {
            Some(Stmt::Return(_)) => f.body.len() - 1,
            _ => f.body.len(),
        };
        let at = rng.below(limit as u64 + 1) as usize;
        f.body.insert(
            at,
            Stmt::Assign {
                dst: "zdead0".into(),
                src: Expr::Int(rng.below(100) as i64),
                span: Span::DUMMY,
            },
        );
    }
    cov.oracle_checks += 1;
    if race_footprint(p) != total("racecheck(dead)", || race_footprint(&dead))? {
        return Err(("dead-insert", "racecheck footprint changed".into()));
    }
    let md = total("mech-table(dead)", || mech_table(&dead))?;
    cov.oracle_checks += 1;
    if md.keys() != m1.keys() {
        return Err(("dead-insert", "mech-table keys changed".into()));
    }
    let od = total("optimize(dead)", || optimize(&dead))?;
    cov.oracle_checks += 1;
    if od.elided_keys() != o1.elided_keys() {
        return Err(("dead-insert", "elided-site set changed".into()));
    }

    // --- adding a touch never introduces a race ----------------------
    if let Some(touched) = insert_touch(p) {
        let before = race_footprint(p);
        let after = total("racecheck(touch)", || race_footprint(&touched))?;
        cov.oracle_checks += 1;
        // Multiset inclusion: everything reported after must have been
        // reported before (a touch only ever orders, never races).
        let mut pool = before.clone();
        for item in &after {
            match pool.iter().position(|x| x == item) {
                Some(i) => {
                    pool.remove(i);
                }
                None => {
                    return Err((
                        "touch-insert",
                        format!("new diagnostic {item:?} after adding a touch"),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// `"{func} {span} {site}"` under α-renaming.
fn rename_opt_key(k: &str) -> String {
    let mut parts = k.splitn(3, ' ');
    match (parts.next(), parts.next(), parts.next()) {
        (Some(f), Some(span), Some(site)) => {
            let site: String = site
                .split("->")
                .map(rename_ident)
                .collect::<Vec<_>>()
                .join("->");
            format!("{} {span} {site}", rename_ident(f))
        }
        _ => k.to_string(),
    }
}

/// An edited copy of `p`: `f` visits every function body ([`walk_mut`])
/// until it reports an edit, `None` if it never does.
fn edit(p: &Program, mut f: impl FnMut(NodeMut) -> bool) -> Option<Program> {
    let mut out = p.clone();
    let hit = out
        .funcs
        .iter_mut()
        .any(|fd| walk_mut(&mut fd.body, &mut f));
    hit.then_some(out)
}

/// Insert `touch v` right after the first statement `var_of` maps to
/// `Some(v)`.
fn touch_after(p: &Program, var_of: impl Fn(&Stmt) -> Option<&String>) -> Option<Program> {
    edit(p, |node| {
        let NodeMut::Block(block) = node else {
            return false;
        };
        let found = block
            .iter()
            .enumerate()
            .find_map(|(i, s)| Some((i, var_of(s)?.clone())));
        let Some((i, var)) = found else {
            return false;
        };
        let span = Span::DUMMY;
        block.insert(i + 1, Stmt::Touch { var, span });
        true
    })
}

/// Insert a `touch h` directly after the first `h = futurecall …`.
fn insert_touch(p: &Program) -> Option<Program> {
    touch_after(p, |s| match s {
        Stmt::Assign {
            dst,
            src: Expr::Call { future: true, .. },
            ..
        } => Some(dst),
        _ => None,
    })
}

// ----- non-vacuity mutations ----------------------------------------------

/// Remove a `touch` whose handle is read by a later statement in the
/// same block — the use must then trip `TC008`.
fn mutate_drop_touch(p: &Program) -> Option<Program> {
    edit(p, |node| {
        let NodeMut::Block(block) = node else {
            return false;
        };
        for i in 0..block.len() {
            if let Stmt::Touch { var, .. } = &block[i] {
                let var = var.clone();
                let read_later = block[i + 1..].iter().any(|s| {
                    let mut used = false;
                    s.walk(&mut |ss| {
                        ss.exprs(&mut |e| {
                            if matches!(e, Expr::Var(v) if *v == var) {
                                used = true;
                            }
                        })
                    });
                    used
                });
                if read_later {
                    block.remove(i);
                    return true;
                }
            }
        }
        false
    })
}

/// Append a surplus argument to a known call — `TC004`.
fn mutate_break_arity(p: &Program) -> Option<Program> {
    let known: Vec<String> = p.funcs.iter().map(|f| f.name.clone()).collect();
    edit(p, |node| match node {
        NodeMut::Expr(Expr::Call { func, args, .. }) if known.contains(func) => {
            args.push(Expr::Int(7));
            true
        }
        _ => false,
    })
}

/// Replace a pointer-typed argument of a known call with an int literal
/// — `TC005`.
fn mutate_retype_arg(p: &Program) -> Option<Program> {
    let ptr_params: BTreeMap<String, Vec<bool>> = p
        .funcs
        .iter()
        .map(|f| {
            (
                f.name.clone(),
                f.param_tys.iter().map(|a| a.is_pointer).collect(),
            )
        })
        .collect();
    edit(p, |node| {
        if let NodeMut::Expr(Expr::Call { func, args, .. }) = node {
            if let Some(flags) = ptr_params.get(func.as_str()) {
                if args.len() == flags.len() {
                    for (i, is_ptr) in flags.iter().enumerate() {
                        if *is_ptr {
                            args[i] = Expr::Int(3);
                            return true;
                        }
                    }
                }
            }
        }
        false
    })
}

/// Retype a pointer field that some path navigates *through* (a
/// non-final step) down to `int` — `TC003` at that step.
fn mutate_retype_field(p: &Program) -> Option<Program> {
    let mut victim: Option<String> = None;
    for f in &p.funcs {
        // Only paths based on a pointer-typed *parameter* that is never
        // reassigned qualify: a local base may be statically null and a
        // reassigned base (`p = p->f` in a loop) turns into a type
        // conflict under the mutation — in both cases the checker
        // recovers the walk as Unknown/TC009 instead of reporting the
        // TC003 step this class pins.
        let mut reassigned: Vec<String> = Vec::new();
        crate::ast::walk_stmts(&f.body, &mut |s| {
            if let Stmt::Assign { dst, .. } = s {
                reassigned.push(dst.clone());
            }
        });
        let ptr_params: Vec<&String> = f
            .params
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                f.param_tys.get(*i).is_some_and(|a| a.is_pointer) && !reassigned.contains(p)
            })
            .map(|(_, p)| p)
            .collect();
        crate::ast::walk_stmts(&f.body, &mut |s| {
            if victim.is_some() {
                return;
            }
            if let Stmt::Store { base, fields, .. } = s {
                if fields.len() >= 2 && ptr_params.contains(&base) {
                    victim = Some(fields[0].clone());
                }
            }
            s.exprs(&mut |e| {
                if victim.is_none() {
                    if let Expr::Path { base, fields, .. } = e {
                        if fields.len() >= 2 && ptr_params.contains(&base) {
                            victim = Some(fields[0].clone());
                        }
                    }
                }
            });
        });
    }
    let victim = victim?;
    let mut out = p.clone();
    for s in &mut out.structs {
        for fd in &mut s.fields {
            if fd.name == victim {
                fd.is_pointer = false;
                fd.ty = "int".into();
                fd.affinity = None;
                return Some(out);
            }
        }
    }
    None
}

/// Duplicate an existing `touch` — the copy must trip `TC007`.
fn mutate_double_touch(p: &Program) -> Option<Program> {
    touch_after(p, |s| match s {
        Stmt::Touch { var, .. } => Some(var),
        _ => None,
    })
}

fn expect_code(mutant: &Program, class: &'static str, code: &'static str) -> Check {
    let diags = total("typecheck(mutant)", || typecheck(mutant))?;
    if diags.iter().any(|d| d.code == code) {
        Ok(())
    } else {
        let got: Vec<&str> = diags.iter().map(|d| d.code).collect();
        Err((
            "non-vacuity",
            format!("mutation `{class}` expected {code}, typechecker reported {got:?}"),
        ))
    }
}

fn mutations(p: &Program, cov: &mut Coverage) -> Check {
    let classes: [(&'static str, Option<Program>, &'static str); 5] = [
        (
            "drop-touch",
            mutate_drop_touch(p),
            codes::FUTURE_UNTOUCHED_USE,
        ),
        ("break-arity", mutate_break_arity(p), codes::CALL_ARITY),
        ("retype-arg", mutate_retype_arg(p), codes::ARG_TYPE),
        (
            "retype-field",
            mutate_retype_field(p),
            codes::NON_POINTER_DEREF,
        ),
        ("double-touch", mutate_double_touch(p), codes::DOUBLE_TOUCH),
    ];
    for (class, mutant, code) in classes {
        if let Some(m) = mutant {
            expect_code(&m, class, code)?;
            cov.oracle_checks += 1;
            *cov.mutations.entry(class).or_default() += 1;
        }
    }
    Ok(())
}

// ----- shrinking ----------------------------------------------------------

/// The oracle suite [`shrink`] preserves by default: parse + typecheck +
/// totality + consistency + the seed-independent metamorphic checks.
pub fn source_fails(src: &str) -> bool {
    let mut cov = Coverage::default();
    let Ok(p) = parse(src) else { return false };
    if check_program(&p, &mut cov).is_err() {
        return true;
    }
    metamorphic(0, &p, &mut cov).is_err()
}

/// Delta-debug `src` down to a (locally) minimal program for which
/// `still_fails` holds. Reductions: drop a whole function or struct,
/// drop a struct field, drop a statement, or replace an `if`/`while`
/// with one of its branches/body. Greedy, restarting after every
/// successful reduction, capped at ~500 oracle evaluations.
pub fn shrink(src: &str, still_fails: &dyn Fn(&str) -> bool) -> String {
    let mut best = src.to_string();
    let mut evals = 0usize;
    'outer: while let Ok(p) = parse(&best) {
        for cand in candidates(&p) {
            let cs = render(&cand);
            if cs.len() >= best.len() {
                continue;
            }
            evals += 1;
            if evals > 500 {
                break 'outer;
            }
            if still_fails(&cs) {
                best = cs;
                continue 'outer;
            }
        }
        break;
    }
    best
}

/// All one-edit reductions of `p`, biggest cuts first.
fn candidates(p: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    for i in 0..p.funcs.len() {
        let mut c = p.clone();
        c.funcs.remove(i);
        out.push(c);
    }
    for i in 0..p.structs.len() {
        let mut c = p.clone();
        c.structs.remove(i);
        out.push(c);
    }
    for si in 0..p.structs.len() {
        for fi in 0..p.structs[si].fields.len() {
            let mut c = p.clone();
            c.structs[si].fields.remove(fi);
            out.push(c);
        }
    }
    for fi in 0..p.funcs.len() {
        for body in block_variants(&p.funcs[fi].body) {
            let mut c = p.clone();
            c.funcs[fi].body = body;
            out.push(c);
        }
    }
    out
}

/// Every one-edit variant of a statement block: drop a statement,
/// replace a compound statement with one of its sub-blocks, or edit a
/// nested block in place.
fn block_variants(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..stmts.len() {
        let mut dropped = stmts.to_vec();
        dropped.remove(i);
        out.push(dropped);
        match &stmts[i] {
            Stmt::If { then_, else_, .. } => {
                for branch in [then_, else_] {
                    let mut v = stmts.to_vec();
                    v.splice(i..=i, branch.iter().cloned());
                    out.push(v);
                }
                for tv in block_variants(then_) {
                    let mut v = stmts.to_vec();
                    if let Stmt::If { then_, .. } = &mut v[i] {
                        *then_ = tv;
                    }
                    out.push(v);
                }
                for ev in block_variants(else_) {
                    let mut v = stmts.to_vec();
                    if let Stmt::If { else_, .. } = &mut v[i] {
                        *else_ = ev;
                    }
                    out.push(v);
                }
            }
            Stmt::While { body, .. } => {
                let mut v = stmts.to_vec();
                v.splice(i..=i, body.iter().cloned());
                out.push(v);
                for bv in block_variants(body) {
                    let mut v = stmts.to_vec();
                    if let Stmt::While { body, .. } = &mut v[i] {
                        *body = bv;
                    }
                    out.push(v);
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clone starts with nothing derived, so an edited clone of an
    /// analysed program is analysed afresh; equality and `Debug` see
    /// only the syntax.
    #[test]
    fn clones_start_fresh() {
        let p = parse(
            r#"
            struct tree { tree *left; tree *right; int val; };
            int Work(tree *t) { t->val = 1; return 0; }
            int g(tree *t) {
                int h = futurecall Work(t);
                touch h;
                t->val = 2;
                return h;
            }
            "#,
        )
        .unwrap();
        let debug = format!("{p:?}");
        assert!(racecheck(&p).is_empty());
        mech_table(&p);
        assert!(p.memo.table.get().is_some() && p.memo.races.get().is_some());
        let c = p.clone();
        assert!(c.memo.table.get().is_none() && c.memo.races.get().is_none());
        assert_eq!(p, c);
        assert_eq!(format!("{p:?}"), debug, "analysis shows in Debug");
        assert_eq!(format!("{c:?}"), debug);
        assert!(!debug.contains("memo") && !debug.contains("OnceLock"));

        // Dropping the touch lets `t->val = 2` race with the future.
        let mutant = mutate_drop_touch(&p).expect("h is read after its touch");
        assert!(mutant.memo.table.get().is_none() && mutant.memo.races.get().is_none());
        let codes: Vec<&str> = racecheck(&mutant).iter().map(|d| d.code).collect();
        assert!(codes.contains(&codes::FUTURE_VS_CONTINUATION), "{codes:?}");
        assert!(
            racecheck(&p).is_empty(),
            "the original keeps its own findings"
        );
    }

    #[test]
    fn a_sweep_of_seeds_passes_every_oracle() {
        let mut cov = Coverage::default();
        for seed in 0..40u64 {
            if let Err(f) = verify_seed(seed, &mut cov) {
                panic!("{f}\n--- source ---\n{}", f.source);
            }
        }
        assert_eq!(cov.programs, 40);
        assert!(cov.oracle_checks > 40 * 5, "oracles barely ran: {cov:?}");
    }

    #[test]
    fn verify_is_deterministic() {
        let mut c1 = Coverage::default();
        let mut c2 = Coverage::default();
        for seed in 0..10u64 {
            verify_seed(seed, &mut c1).unwrap();
            verify_seed(seed, &mut c2).unwrap();
        }
        assert_eq!(c1, c2);
    }

    #[test]
    fn every_mutation_class_fires_across_the_sweep() {
        let mut cov = Coverage::default();
        for seed in 0..80u64 {
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
                "mutation class `{class}` never applied: {:?}",
                cov.mutations
            );
        }
    }

    #[test]
    fn alpha_rename_keeps_programs_parseable() {
        for seed in 0..10u64 {
            let p = gen_program(seed);
            let rn = rename_program(&p);
            let src = render(&rn);
            parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn shrinker_reduces_while_preserving_the_predicate() {
        // An artificial predicate: "program still contains a touch".
        let src = crate::gen::gen_source(3);
        assert!(src.contains("touch"), "seed 3 should exercise touch\n{src}");
        let has_touch = |s: &str| {
            parse(s)
                .map(|p| render(&p).contains("touch "))
                .unwrap_or(false)
        };
        let small = shrink(&src, &has_touch);
        assert!(has_touch(&small));
        assert!(
            small.len() < src.len(),
            "no reduction achieved: {} -> {}",
            src.len(),
            small.len()
        );
    }

    #[test]
    fn verify_source_accepts_the_figure4_program() {
        let mut cov = Coverage::default();
        verify_source(
            "treeadd",
            "struct tree { tree *left @ 90; tree *right @ 70; int val; };
             int TreeAdd(tree *t) {
                 if (t == null) { return 0; }
                 else {
                     int lv = futurecall TreeAdd(t->left);
                     int rv = TreeAdd(t->right);
                     touch lv;
                     return lv + rv + t->val;
                 }
             }",
            &mut cov,
        )
        .unwrap();
        assert_eq!(cov.programs, 1);
    }

    #[test]
    fn coverage_render_is_stable() {
        let mut cov = Coverage::default();
        verify_seed(0, &mut cov).unwrap();
        let r = cov.render();
        assert!(r.contains("programs verified: 1"), "{r}");
        assert!(r.contains("oracle checks:"), "{r}");
    }
}
