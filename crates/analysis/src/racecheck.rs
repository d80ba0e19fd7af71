//! Static release-consistency race analysis (the compile half of
//! `olden-racecheck`).
//!
//! The paper's coherence story (Appendix A) rests on an implicit
//! contract: a migration send is a *release*, a migration receipt is an
//! *acquire*, and a stolen future body must not share written heap lines
//! with its continuation except through `touch`. Within one thread a
//! migration preserves program order (the send releases, the receipt
//! acquires), so the only constructs that create concurrency in the DSL
//! are `futurecall` (the spawn is a release: the body is ordered after
//! everything before it) and `touch` (an acquire: the continuation is
//! ordered after the body). Between a spawn and its touch the future body
//! and the continuation — and any sibling in-flight futures — may run
//! concurrently.
//!
//! This pass walks each function linearly, carrying the set of *in-flight*
//! futures, and reports every pair of concurrent accesses to overlapping
//! `(variable-path, field)` heap locations where at least one side writes:
//!
//! * [`crate::diag::codes::FUTURE_VS_CONTINUATION`] (RC001): a
//!   continuation access conflicts with an in-flight future's body;
//! * [`crate::diag::codes::SIBLING_FUTURES`] (RC002): two in-flight
//!   sibling futures conflict, or a loop-spawned future conflicts with
//!   the next iteration (itself included);
//! * [`crate::diag::codes::UNTOUCHED_FUTURE`] (RC003, a note): a future
//!   is still in flight when its function returns.
//!
//! **Location abstraction.** A heap access is `(root, field)`: the
//! syntactic root variable of the pointer path and the field read or
//! written. Every field on a multi-field path is attributed to the path's
//! root, which matches the update-matrix view of paths as navigations
//! from an iteration-entry value (§4.2): `t->left->val` reads
//! `(t, left)` and `(t, val)`. The abstraction cannot prove that two
//! subtrees of the same root are disjoint, so futures that *write*
//! disjoint halves of one structure are reported (a documented false
//! positive — kept because the pass must never miss a real race; the
//! dynamic sanitizer's detections are asserted to be a subset of this
//! pass's reports). Calls are resolved interprocedurally through
//! *summaries* in terms of callee parameters — each function's may-reads
//! and may-writes, its futures' bodies included, computed by the same
//! walk with reporting off and iterated over the call graph to a fixpoint;
//! calls to unknown (extern) functions are assumed to read their pointer
//! arguments (any field) and write nothing.

use crate::ast::{Expr, FuncDef, Program, Stmt};
use crate::diag::{codes, Diagnostic, Severity, Span};
use std::collections::{BTreeSet, HashMap};

/// Root of an abstract heap location.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
enum Base {
    /// Rooted at a function entry variable (or an opaque per-site root
    /// for call results, spelled `<f@line:col>` so it cannot collide
    /// with an identifier).
    Var(String),
    /// Unknown — may alias anything.
    Any,
}

impl Base {
    fn overlaps(&self, other: &Base) -> bool {
        matches!(self, Base::Any) || matches!(other, Base::Any) || self == other
    }

    fn show(&self) -> String {
        match self {
            Base::Var(v) => v.clone(),
            Base::Any => "?".into(),
        }
    }
}

/// The wildcard field (extern calls, whole-object effects).
const ANY_FIELD: &str = "*";

fn fields_overlap(a: &str, b: &str) -> bool {
    a == ANY_FIELD || b == ANY_FIELD || a == b
}

/// One may-access, with the source span it is reported at.
#[derive(Clone, Debug)]
struct Access {
    base: Base,
    field: String,
    write: bool,
    span: Span,
}

impl Access {
    fn loc(&self) -> String {
        if self.field == ANY_FIELD {
            format!("{}->…", self.base.show())
        } else {
            format!("{}->{}", self.base.show(), self.field)
        }
    }

    fn conflicts(&self, other: &Access) -> bool {
        (self.write || other.write)
            && self.base.overlaps(&other.base)
            && fields_overlap(&self.field, &other.field)
    }

    fn rw(&self) -> &'static str {
        if self.write {
            "write"
        } else {
            "read"
        }
    }
}

// ---------------------------------------------------------------------
// Function summaries
// ---------------------------------------------------------------------

/// Base of a summary location: a parameter of the summarised function,
/// or unknown.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
enum AbsBase {
    Param(usize),
    Any,
}

/// May-read / may-write sets of a function body in terms of its
/// parameters, reusing the symbolic-path discipline of the update-matrix
/// pass (§4.2): a local assigned `p->f…` stays rooted at `p`.
#[derive(Clone, Default, PartialEq, Debug)]
struct Summary {
    reads: BTreeSet<(AbsBase, String)>,
    writes: BTreeSet<(AbsBase, String)>,
}

type Env = HashMap<String, Base>;

fn resolve(env: &Env, var: &str) -> Base {
    env.get(var)
        .cloned()
        .unwrap_or_else(|| Base::Var(var.to_string()))
}

/// Opaque root for a call result: distinct from every identifier and
/// every other call site.
fn ret_root(func: &str, span: Span) -> Base {
    Base::Var(format!("<{func}@{span}>"))
}

/// Collect the heap accesses of evaluating `e` on the current thread into
/// `out`, and the bodies of futures it spawns into `spawned`. Callee
/// effects are instantiated from `summaries`.
fn expr_accesses(
    summaries: &HashMap<String, Summary>,
    env: &Env,
    e: &Expr,
    out: &mut Vec<Access>,
    spawned: &mut Vec<InFlight>,
) {
    e.walk(&mut |sub| match sub {
        Expr::Path { base, fields, span } => {
            let root = resolve(env, base);
            for f in fields {
                out.push(Access {
                    base: root.clone(),
                    field: f.clone(),
                    write: false,
                    span: *span,
                });
            }
        }
        Expr::Call {
            func,
            args,
            future,
            span,
        } => {
            let acc = instantiate(summaries, env, func, args, *span);
            if *future {
                spawned.push(InFlight {
                    func: func.clone(),
                    var: None,
                    span: *span,
                    acc,
                });
            } else {
                out.extend(acc);
            }
        }
        _ => {}
    });
}

/// The accesses `func(args)` may perform, in the caller's roots.
fn instantiate(
    summaries: &HashMap<String, Summary>,
    env: &Env,
    func: &str,
    args: &[Expr],
    span: Span,
) -> Vec<Access> {
    let arg_base = |i: usize| -> Option<Base> {
        args.get(i)
            .and_then(|a| a.as_path())
            .map(|(b, _)| resolve(env, b))
    };
    let mut acc = Vec::new();
    match summaries.get(func) {
        Some(sm) => {
            for (write, set) in [(false, &sm.reads), (true, &sm.writes)] {
                for (ab, field) in set {
                    let base = match ab {
                        AbsBase::Param(i) => match arg_base(*i) {
                            Some(b) => b,
                            None => continue, // non-pointer argument
                        },
                        AbsBase::Any => Base::Any,
                    };
                    acc.push(Access {
                        base,
                        field: field.clone(),
                        write,
                        span,
                    });
                }
            }
        }
        None => {
            // Extern function: assume it reads (any field of) its pointer
            // arguments and writes nothing.
            for i in 0..args.len() {
                if let Some(base) = arg_base(i) {
                    acc.push(Access {
                        base,
                        field: ANY_FIELD.into(),
                        write: false,
                        span,
                    });
                }
            }
        }
    }
    acc
}

/// Apply an assignment's effect on the root environment.
fn assign_env(env: &mut Env, dst: &str, src: &Expr) {
    let base = match src {
        Expr::Call { func, span, .. } => ret_root(func, *span),
        _ => match src.as_path() {
            Some((b, _)) => resolve(env, b),
            // Scalar / null: accesses through it would be meaningless;
            // give it a site-local root that aliases nothing.
            None => Base::Var(format!("<scalar:{dst}>")),
        },
    };
    env.insert(dst.to_string(), base);
}

/// Merge branch environments at a join: agreement keeps the base,
/// disagreement goes to [`Base::Any`].
fn merge_env(env: &mut Env, then_: &Env, else_: &Env) {
    let keys: BTreeSet<&String> = then_.keys().chain(else_.keys()).collect();
    for k in keys {
        let a = then_
            .get(k)
            .cloned()
            .unwrap_or_else(|| Base::Var(k.clone()));
        let b = else_
            .get(k)
            .cloned()
            .unwrap_or_else(|| Base::Var(k.clone()));
        env.insert(k.clone(), if a == b { a } else { Base::Any });
    }
}

/// Add to `into` every future of `other` it does not already hold.
fn merge_inflight(into: &mut Vec<InFlight>, other: Vec<InFlight>) {
    for f in other {
        if !into
            .iter()
            .any(|g| g.span == f.span && g.var == f.var && g.func == f.func)
        {
            into.push(f);
        }
    }
}

/// Compute one function's summary given the current summary map.
fn summarize_func(summaries: &HashMap<String, Summary>, f: &FuncDef) -> Summary {
    let (acc, _) = Checker::new(summaries, &f.name, false).run(f);
    let mut sm = Summary::default();
    for a in acc {
        let ab = match &a.base {
            Base::Any => AbsBase::Any,
            Base::Var(v) => match f.params.iter().position(|p| p == v) {
                Some(i) => AbsBase::Param(i),
                // Function-local root (call result / scalar): invisible
                // to callers.
                None => continue,
            },
        };
        let set = if a.write {
            &mut sm.writes
        } else {
            &mut sm.reads
        };
        set.insert((ab, a.field));
    }
    sm
}

/// Fixpoint over the call graph. Summaries only grow, over a finite set
/// of (parameter, field) pairs, so this terminates — for direct and
/// mutual recursion alike, and however deep a call chain runs (each
/// round can lift an effect only one call level).
fn summarize(prog: &Program) -> HashMap<String, Summary> {
    let mut summaries: HashMap<String, Summary> = prog
        .funcs
        .iter()
        .map(|f| (f.name.clone(), Summary::default()))
        .collect();
    loop {
        let mut changed = false;
        for f in &prog.funcs {
            let sm = summarize_func(&summaries, f);
            if summaries.get(&f.name) != Some(&sm) {
                summaries.insert(f.name.clone(), sm);
                changed = true;
            }
        }
        if !changed {
            return summaries;
        }
    }
}

// ---------------------------------------------------------------------
// The race walk
// ---------------------------------------------------------------------

/// A spawned, not-yet-touched future.
#[derive(Clone, Debug)]
struct InFlight {
    func: String,
    /// Variable holding the future's value (None for bare
    /// `futurecall f(…);` statements — those can never be touched).
    var: Option<String>,
    /// Spawn site.
    span: Span,
    /// The body's may-accesses, in the spawner's roots.
    acc: Vec<Access>,
}

struct Checker<'a> {
    summaries: &'a HashMap<String, Summary>,
    func: &'a str,
    /// Off while computing a summary: spawned bodies then count among the
    /// function's own accesses instead of going in flight, so nothing is
    /// checked against them and nothing is reported.
    report: bool,
    diags: Vec<Diagnostic>,
    /// Dedup: (code, primary span, other span, location) already reported.
    seen: BTreeSet<(String, Span, Span, String)>,
}

impl<'a> Checker<'a> {
    fn new(summaries: &'a HashMap<String, Summary>, func: &'a str, report: bool) -> Self {
        Checker {
            summaries,
            func,
            report,
            diags: Vec::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Walk `f`'s body from its entry: every current-thread access, and
    /// the futures still in flight at the end.
    fn run(&mut self, f: &FuncDef) -> (Vec<Access>, Vec<InFlight>) {
        let mut env: Env = f
            .params
            .iter()
            .map(|p| (p.clone(), Base::Var(p.clone())))
            .collect();
        let mut inflight = Vec::new();
        let mut collected = Vec::new();
        self.walk(&mut env, &mut inflight, &f.body, &mut collected);
        (collected, inflight)
    }

    fn report_rc001(&mut self, cur: &Access, fut: &InFlight, body: &Access) {
        let key = (
            codes::FUTURE_VS_CONTINUATION.to_string(),
            cur.span,
            fut.span,
            cur.loc(),
        );
        if !self.seen.insert(key) {
            return;
        }
        let mut d = Diagnostic::new(
            codes::FUTURE_VS_CONTINUATION,
            Severity::Warning,
            cur.span,
            format!(
                "{} of `{}` may race with in-flight future `{}` ({} in its body)",
                cur.rw(),
                cur.loc(),
                fut.func,
                body.rw(),
            ),
        )
        .with_note(format!("future spawned at {}", fut.span));
        if let Some(v) = &fut.var {
            d = d.with_note(format!("order the accesses with `touch {v};`"));
        }
        self.diags.push(d);
    }

    fn report_rc002(&mut self, a: &InFlight, b: &InFlight, loc: &Access, loop_carried: bool) {
        let key = (
            codes::SIBLING_FUTURES.to_string(),
            b.span,
            a.span,
            loc.loc(),
        );
        if !self.seen.insert(key) {
            return;
        }
        let msg = if loop_carried && a.span == b.span {
            format!(
                "future `{}` spawned in a loop may race with its next-iteration sibling on `{}`",
                a.func,
                loc.loc()
            )
        } else {
            format!(
                "sibling futures `{}` and `{}` may race on `{}`",
                a.func,
                b.func,
                loc.loc()
            )
        };
        let d = Diagnostic::new(codes::SIBLING_FUTURES, Severity::Warning, b.span, msg)
            .with_note(format!("other future spawned at {}", a.span));
        self.diags.push(d);
    }

    /// Check one batch of current-thread accesses against every in-flight
    /// future.
    fn check_current(&mut self, cur: &[Access], inflight: &[InFlight]) {
        for c in cur {
            for fut in inflight {
                for b in &fut.acc {
                    if c.conflicts(b) {
                        self.report_rc001(c, fut, b);
                        break; // one report per (access, future)
                    }
                }
            }
        }
    }

    /// Check a newly spawned future against the already-in-flight set.
    fn check_sibling(&mut self, new: &InFlight, inflight: &[InFlight], loop_carried: bool) {
        for old in inflight {
            'pairs: for a in &old.acc {
                for b in &new.acc {
                    if a.conflicts(b) {
                        self.report_rc002(old, new, b, loop_carried);
                        break 'pairs;
                    }
                }
            }
        }
    }

    /// Put a newly spawned future in flight. A summary instead counts its
    /// body among the function's own accesses: it runs within the call's
    /// dynamic extent or concurrently with the caller's continuation —
    /// either way callers must account for it.
    fn spawn(&mut self, fut: InFlight, inflight: &mut Vec<InFlight>, collected: &mut Vec<Access>) {
        if self.report {
            self.check_sibling(&fut, inflight, false);
            inflight.push(fut);
        } else {
            collected.extend(fut.acc);
        }
    }

    /// Walk statements, carrying the root environment and in-flight set.
    /// Appends every current-thread access to `collected` (used by loop
    /// bodies for the loop-carried check, and as a summary's accesses).
    fn walk(
        &mut self,
        env: &mut Env,
        inflight: &mut Vec<InFlight>,
        stmts: &[Stmt],
        collected: &mut Vec<Access>,
    ) {
        for s in stmts {
            match s {
                Stmt::Touch { var, .. } => {
                    inflight.retain(|f| f.var.as_deref() != Some(var));
                }
                Stmt::If { cond, then_, else_ } => {
                    for f in self.step_expr(env, inflight, cond, collected) {
                        self.spawn(f, inflight, collected);
                    }
                    let mut env_t = env.clone();
                    let mut env_e = env.clone();
                    let mut inf_t = inflight.clone();
                    let mut inf_e = inflight.clone();
                    self.walk(&mut env_t, &mut inf_t, then_, collected);
                    self.walk(&mut env_e, &mut inf_e, else_, collected);
                    merge_env(env, &env_t, &env_e);
                    // A future is still in flight if either branch left it
                    // in flight (the other may not have executed).
                    *inflight = inf_t;
                    merge_inflight(inflight, inf_e);
                }
                Stmt::While { cond, body } => {
                    for f in self.step_expr(env, inflight, cond, collected) {
                        self.spawn(f, inflight, collected);
                    }
                    // The body may run zero times. Only a root it reassigns
                    // (`v = v->f` keeps `v`'s) or a future it touches can
                    // differ from before the body, so save just those.
                    let (mut pre_roots, mut touched) = (Vec::new(), Vec::new());
                    crate::ast::walk_stmts(body, &mut |s| match s {
                        Stmt::Assign { dst, src, .. }
                            if src.as_path().is_none_or(|(b, _)| b != dst) =>
                        {
                            pre_roots.push((dst, resolve(env, dst)))
                        }
                        Stmt::Touch { var, .. } => touched.push(var.as_str()),
                        _ => {}
                    });
                    let joined: Vec<InFlight> = inflight
                        .iter()
                        .filter(|f| f.var.as_deref().is_some_and(|v| touched.contains(&v)))
                        .cloned()
                        .collect();
                    let pre_spans: BTreeSet<Span> = inflight.iter().map(|f| f.span).collect();
                    let mut body_acc = Vec::new();
                    self.walk(env, inflight, body, &mut body_acc);
                    // Loop-carried concurrency: a future spawned in the
                    // body and still in flight at its end overlaps the
                    // next iteration — both its sibling spawned there and
                    // every current-thread access of the body.
                    let carried: Vec<InFlight> = inflight
                        .iter()
                        .filter(|f| !pre_spans.contains(&f.span))
                        .cloned()
                        .collect();
                    for f in &carried {
                        self.check_current(&body_acc, std::slice::from_ref(f));
                        self.check_sibling(f, std::slice::from_ref(f), true);
                    }
                    collected.extend(body_acc);
                    // Join with that zero-iteration state, as after an `if`
                    // without `else`.
                    for (v, pre) in pre_roots {
                        if let Some(now) = env.get_mut(v).filter(|now| **now != pre) {
                            *now = Base::Any;
                        }
                    }
                    merge_inflight(inflight, joined);
                }
                Stmt::Assign { dst, src, .. } => {
                    let spawned = self.step_expr(env, inflight, src, collected);
                    assign_env(env, dst, src);
                    for mut f in spawned {
                        f.var = Some(dst.clone());
                        self.spawn(f, inflight, collected);
                    }
                }
                Stmt::Store {
                    base,
                    fields,
                    src,
                    span,
                } => {
                    let spawned = self.step_expr(env, inflight, src, collected);
                    let root = resolve(env, base);
                    let mut cur = Vec::new();
                    for f in &fields[..fields.len() - 1] {
                        cur.push(Access {
                            base: root.clone(),
                            field: f.clone(),
                            write: false,
                            span: *span,
                        });
                    }
                    cur.push(Access {
                        base: root,
                        field: fields.last().unwrap().clone(),
                        write: true,
                        span: *span,
                    });
                    self.check_current(&cur, inflight);
                    collected.extend(cur);
                    for f in spawned {
                        self.spawn(f, inflight, collected);
                    }
                }
                Stmt::ExprStmt(e) | Stmt::Return(Some(e)) => {
                    let spawned = self.step_expr(env, inflight, e, collected);
                    for f in spawned {
                        self.spawn(f, inflight, collected);
                    }
                }
                Stmt::Return(None) => {}
            }
        }
    }

    /// Evaluate one expression: check its current-thread accesses against
    /// the in-flight set and return the futures it spawns (not yet added
    /// to the set — argument evaluation precedes the spawn, so the
    /// expression's own reads are ordered before the new bodies).
    fn step_expr(
        &mut self,
        env: &Env,
        inflight: &[InFlight],
        e: &Expr,
        collected: &mut Vec<Access>,
    ) -> Vec<InFlight> {
        let mut cur = Vec::new();
        let mut spawned = Vec::new();
        expr_accesses(self.summaries, env, e, &mut cur, &mut spawned);
        self.check_current(&cur, inflight);
        collected.extend(cur);
        spawned
    }

    fn finish(&mut self, inflight: &[InFlight]) {
        for f in inflight {
            let key = (
                codes::UNTOUCHED_FUTURE.to_string(),
                f.span,
                f.span,
                String::new(),
            );
            if !self.seen.insert(key) {
                continue;
            }
            self.diags.push(Diagnostic::new(
                codes::UNTOUCHED_FUTURE,
                Severity::Note,
                f.span,
                format!(
                    "future `{}` is never touched before `{}` returns",
                    f.func, self.func
                ),
            ));
        }
    }
}

/// Run the static race analysis over a whole program.
///
/// Diagnostics are deterministic: sorted by source position, then lint
/// code, then message.
pub fn racecheck(prog: &Program) -> Vec<Diagnostic> {
    race_findings(prog).to_vec()
}

/// [`racecheck`]'s findings, computed once per program on first use.
pub(crate) fn race_findings(prog: &Program) -> &[Diagnostic] {
    prog.memo.races.get_or_init(|| {
        let summaries = summarize(prog);
        let mut diags = Vec::new();
        for f in &prog.funcs {
            let mut ck = Checker::new(&summaries, &f.name, true);
            let (_, inflight) = ck.run(f);
            ck.finish(&inflight);
            diags.extend(ck.diags);
        }
        diags.sort_by(|a, b| {
            (a.span, a.code, &a.message)
                .partial_cmp(&(b.span, b.code, &b.message))
                .unwrap()
        });
        diags
    })
}

/// Parse and check in one step (what `oldenc` does per file).
pub fn racecheck_src(src: &str) -> Result<Vec<Diagnostic>, crate::parser::ParseError> {
    Ok(racecheck(&crate::parser::parse(src)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(src: &str) -> Vec<Diagnostic> {
        racecheck(&parse(src).unwrap())
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_when_touch_orders_write() {
        let d = check(
            r#"
            struct tree { tree *left; tree *right; int val; };
            int Work(tree *t) { t->val = 1; return 0; }
            int g(tree *t) {
                int h = futurecall Work(t);
                touch h;
                t->val = 2;
                return t->val;
            }
            "#,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn rc001_write_write_future_vs_continuation() {
        let d = check(
            r#"
            struct tree { tree *left; tree *right; int val; };
            int Work(tree *t) { t->val = 1; return 0; }
            int g(tree *t) {
                int h = futurecall Work(t);
                t->val = 2;
                touch h;
                return t->val;
            }
            "#,
        );
        assert_eq!(codes_of(&d), vec![codes::FUTURE_VS_CONTINUATION], "{d:?}");
        assert!(d[0].message.contains("t->val"), "{}", d[0].message);
        assert!(d[0].notes.iter().any(|n| n.contains("touch h")), "{d:?}");
    }

    #[test]
    fn rc001_read_write_conflict() {
        let d = check(
            r#"
            struct node { node *next; int v; };
            int Bump(node *n) { n->v = n->v + 1; return 0; }
            int g(node *n) {
                int h = futurecall Bump(n);
                int x = n->v;
                touch h;
                return x;
            }
            "#,
        );
        assert_eq!(codes_of(&d), vec![codes::FUTURE_VS_CONTINUATION], "{d:?}");
    }

    #[test]
    fn read_only_futures_are_clean() {
        // TreeAdd's shape: sibling futures that only read.
        let d = check(
            r#"
            struct tree { tree *left @ 90; tree *right @ 70; int val; };
            int TreeAdd(tree *t) {
                if (t == null) { return 0; }
                int l = futurecall TreeAdd(t->left);
                int r = TreeAdd(t->right);
                touch l;
                return l + r + t->val;
            }
            "#,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn rc002_sibling_futures_conflict() {
        let d = check(
            r#"
            struct tree { tree *left; tree *right; int val; };
            int Mark(tree *t) { t->val = 1; return 0; }
            int g(tree *t) {
                int a = futurecall Mark(t->left);
                int b = futurecall Mark(t->left);
                touch a;
                touch b;
                return 0;
            }
            "#,
        );
        assert_eq!(codes_of(&d), vec![codes::SIBLING_FUTURES], "{d:?}");
    }

    #[test]
    fn rc002_loop_carried_future() {
        let d = check(
            r#"
            struct list { list *next; };
            struct tree { tree *left; int val; };
            int Mark(tree *t) { t->val = 1; return 0; }
            void WalkAndMark(list *l, tree *t) {
                while (l != null) {
                    futurecall Mark(t);
                    l = l->next;
                }
            }
            "#,
        );
        // The bare futurecall is never touched (RC003) and races with its
        // next-iteration sibling (RC002).
        assert!(codes_of(&d).contains(&codes::SIBLING_FUTURES), "{d:?}");
        assert!(codes_of(&d).contains(&codes::UNTOUCHED_FUTURE), "{d:?}");
    }

    #[test]
    fn while_body_may_run_zero_times() {
        // The only `touch` is in a loop that may not run: the future is
        // still in flight at the store, and may never be joined.
        for guard in ["while", "if"] {
            let d = check(&format!(
                r#"
                struct tree {{ tree *left; int val; }};
                int g(tree *t) {{ t->val = 2; return 0; }}
                void f(tree *t, int c) {{
                    int h = futurecall g(t);
                    {guard} (c) {{ touch h; }}
                    t->val = 1;
                }}
                "#
            ));
            let codes = codes_of(&d);
            assert!(
                codes.contains(&codes::FUTURE_VS_CONTINUATION),
                "{guard}: {d:?}"
            );
            assert!(codes.contains(&codes::UNTOUCHED_FUTURE), "{guard}: {d:?}");
        }
    }

    #[test]
    fn rc003_untouched_future_notes() {
        let d = check(
            r#"
            struct tree { tree *left; int val; };
            int Sum(tree *t) { if (t == null) { return 0; } return Sum(t->left) + t->val; }
            int g(tree *t) {
                int h = futurecall Sum(t);
                return 0;
            }
            "#,
        );
        assert_eq!(codes_of(&d), vec![codes::UNTOUCHED_FUTURE], "{d:?}");
        assert_eq!(d[0].severity, Severity::Note);
    }

    #[test]
    fn touch_in_both_branches_clears() {
        let d = check(
            r#"
            struct tree { tree *left; int val; };
            int Work(tree *t) { t->val = 1; return 0; }
            int g(tree *t, int c) {
                int h = futurecall Work(t);
                if (c) { touch h; } else { touch h; }
                t->val = 2;
                return 0;
            }
            "#,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn touch_in_one_branch_keeps_inflight() {
        let d = check(
            r#"
            struct tree { tree *left; int val; };
            int Work(tree *t) { t->val = 1; return 0; }
            int g(tree *t, int c) {
                int h = futurecall Work(t);
                if (c) { touch h; }
                t->val = 2;
                touch h;
                return 0;
            }
            "#,
        );
        assert_eq!(codes_of(&d), vec![codes::FUTURE_VS_CONTINUATION], "{d:?}");
    }

    #[test]
    fn interprocedural_write_through_callee() {
        // The continuation's conflicting write happens inside a helper.
        let d = check(
            r#"
            struct tree { tree *left; int val; };
            int Work(tree *t) { t->val = 1; return 0; }
            void Helper(tree *u) { u->val = 3; }
            int g(tree *t) {
                int h = futurecall Work(t);
                Helper(t);
                touch h;
                return 0;
            }
            "#,
        );
        assert_eq!(codes_of(&d), vec![codes::FUTURE_VS_CONTINUATION], "{d:?}");
    }

    #[test]
    fn recursive_summary_converges() {
        // Mark recurses; its write must still be seen through the fixpoint.
        let d = check(
            r#"
            struct tree { tree *left; tree *right; int val; };
            void Mark(tree *t) {
                if (t == null) { return; }
                t->val = 1;
                Mark(t->left);
                Mark(t->right);
            }
            int g(tree *t) {
                int h = futurecall Mark(t);
                int x = t->val;
                touch h;
                return x;
            }
            "#,
        );
        assert_eq!(codes_of(&d), vec![codes::FUTURE_VS_CONTINUATION], "{d:?}");
    }

    #[test]
    fn write_at_the_end_of_a_deep_call_chain_is_seen() {
        // main spawns f1, and f1 -> f2 -> ... -> f12; only f12 writes.
        // Declared caller-first, each summary round lifts the write one
        // call level, so a capped fixpoint would lose it.
        let mut src = String::from(
            "struct node { node *next; int v; };
             int main(node *t) { int h = futurecall f1(t); int x = t->v; touch h; return x; }\n",
        );
        for i in 1..12 {
            src += &format!("int f{i}(node *p) {{ return f{}(p); }}\n", i + 1);
        }
        src += "int f12(node *p) { p->v = 1; return 0; }\n";
        let d = check(&src);
        assert_eq!(codes_of(&d), vec![codes::FUTURE_VS_CONTINUATION], "{d:?}");
    }

    #[test]
    fn summary_counts_futures_spawned_in_conditions() {
        // Outer's only write is inside a future spawned by a condition;
        // callers of Outer must still see it.
        let d = check(
            r#"
            struct tree { tree *left; int val; };
            int Work(tree *t) { t->val = 1; return 0; }
            int Outer(tree *t) {
                while (futurecall Work(t)) { return 0; }
                return 0;
            }
            int g(tree *t) {
                int h = futurecall Outer(t);
                int x = t->val;
                touch h;
                return x;
            }
            "#,
        );
        assert!(
            d.iter()
                .any(|d| d.code == codes::FUTURE_VS_CONTINUATION && d.message.contains("Outer")),
            "{d:?}"
        );
    }

    #[test]
    fn distinct_roots_do_not_conflict() {
        let d = check(
            r#"
            struct tree { tree *left; int val; };
            int Work(tree *t) { t->val = 1; return 0; }
            int g(tree *t, tree *u) {
                int h = futurecall Work(t);
                u->val = 2;
                touch h;
                return 0;
            }
            "#,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn extern_calls_assumed_read_only() {
        let d = check(
            r#"
            struct tree { tree *left; int val; };
            int Sum(tree *t) { if (t == null) { return 0; } return Sum(t->left) + t->val; }
            int g(tree *t) {
                int h = futurecall Sum(t);
                Print(t);
                touch h;
                return 0;
            }
            "#,
        );
        // Print reads t->… ; Sum's body only reads — no conflict.
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn diagnostics_are_sorted_and_deterministic() {
        let src = r#"
            struct tree { tree *left; int val; };
            int W(tree *t) { t->val = 1; return 0; }
            int g(tree *t) {
                int a = futurecall W(t);
                t->val = 2;
                int x = t->val;
                return x;
            }
        "#;
        let d1 = check(src);
        let d2 = check(src);
        assert_eq!(d1, d2);
        assert!(d1.len() >= 2);
        let spans: Vec<_> = d1.iter().map(|d| d.span).collect();
        let mut sorted = spans.clone();
        sorted.sort();
        assert_eq!(spans, sorted);
    }
}
