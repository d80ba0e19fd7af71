//! The check-elision and touch-placement optimizer.
//!
//! The paper's compiler "inserts the lookup before each cached deref"
//! (§3) and a residence test before each migrated one. Naively that
//! re-tests the same pointer along straight-line code and around loop
//! bodies. This pass removes the redundant tests with a **must-
//! availability** dataflow over the [`crate::cfg`] lowering, each site
//! checked under the mechanism of its [`crate::MechTable`] verdict — the
//! one the program executes:
//!
//! * `Local(p)` — a *migration*-mechanism check of `p` was performed (or
//!   elided) on every path to here and the thread has provably not moved
//!   since, so the object `p` points at is still on this processor.
//! * `Cached(p)` — a *caching*-mechanism check of `p` succeeded on every
//!   path, and nothing has invalidated this processor's copy since.
//!
//! Kill sets follow the release-consistency reduction (§3.2): a
//! migration **send is a release and its receipt an acquire**, and under
//! local knowledge an acquire invalidates the whole software cache. So a
//! performed migration-mechanism check (which may move the thread) kills
//! *everything*; a call or touch whose callee/future body may migrate,
//! write, or touch kills every fact except `Local`s of bare variables —
//! those survive because the logical thread always returns to the
//! processor it entered on, and home locations never move. Pointer
//! reassignment kills the variable's facts, and a store to field `f`
//! kills facts whose access *path* runs through `f` (the write-through
//! keeps already-cached lines coherent; only path navigation can go
//! stale). Calls to functions that provably perform no migration-
//! mechanism checks, stores, futures, or touches (directly or
//! transitively) kill nothing.
//!
//! The second pass checks **touch placement**: a touch whose future value
//! is never consumed on any path and whose body is transitively
//! write-free is dead (removing it cannot lose an acquire); a touch
//! separated from its first dependent statement by independent work was
//! hoisted too early, and the latest safe point is reported.
//!
//! Everything here assumes data-race freedom — the racecheck pass
//! (RC001–RC003) is the tool that validates that assumption.

use crate::ast::{Expr, FuncDef, Program, Stmt};
use crate::cfg::{Block, Cfg, Event, Site};
use crate::dataflow::{solve, Analysis, Direction};
use crate::diag::Span;
use crate::heuristic::Selection;
use crate::parser::{parse, ParseError};
use crate::verdicts::lowered;
use crate::Mech;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The optimizer's decision for one check site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The check must stay.
    CheckNeeded,
    /// The check is redundant: the fact it would establish already holds
    /// on every path to this site.
    CheckElided,
}

/// One check site's verdict, with provenance.
#[derive(Clone, Debug)]
pub struct SiteReport {
    pub func: String,
    /// `base->f1->…->field` rendering of the site.
    pub site: String,
    pub span: Span,
    pub mech: Mech,
    pub is_store: bool,
    pub verdict: Verdict,
    /// Why: the covering check for an elision, the invalidator (or
    /// "first check") for a kept one.
    pub reason: String,
}

impl SiteReport {
    /// Stable identity used by benchmark descriptors and the CI gate.
    pub fn key(&self) -> String {
        format!("{} {} {}", self.func, self.span, self.site)
    }
}

/// A touch-placement finding.
#[derive(Clone, Debug)]
pub struct TouchReport {
    pub func: String,
    pub var: String,
    pub span: Span,
    pub kind: TouchKind,
    pub detail: String,
}

/// What is wrong with the touch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TouchKind {
    /// Value never consumed on any path, body transitively write-free:
    /// removing the touch cannot lose a value or an acquire.
    Dead,
    /// Independent statements sit between the touch and its first
    /// dependence; `latest` is the latest safe point.
    TooEarly { latest: Span },
}

/// The whole program's optimization report.
#[derive(Clone, Debug, Default)]
pub struct OptReport {
    pub sites: Vec<SiteReport>,
    pub touches: Vec<TouchReport>,
}

impl OptReport {
    /// (total sites, elided sites).
    pub fn stats(&self) -> (usize, usize) {
        let total = self.sites.len();
        let elided = self
            .sites
            .iter()
            .filter(|s| s.verdict == Verdict::CheckElided)
            .count();
        (total, elided)
    }

    /// Stable keys of every elided site (descriptor / CI-gate currency).
    pub fn elided_keys(&self) -> Vec<String> {
        self.sites
            .iter()
            .filter(|s| s.verdict == Verdict::CheckElided)
            .map(SiteReport::key)
            .collect()
    }

    /// Deterministic multi-line rendering (the `oldenc opt` surface).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let (total, elided) = self.stats();
        let pct = if total == 0 {
            0
        } else {
            ((elided as f64 / total as f64) * 100.0).round() as u32
        };
        let _ = writeln!(out, "checks: {total} sites, {elided} elided ({pct}%)");
        for s in &self.sites {
            let mech = match s.mech {
                Mech::Migrate => "migrate",
                Mech::Cache => "cache",
            };
            let store = if s.is_store { " store" } else { "" };
            let verdict = match s.verdict {
                Verdict::CheckNeeded => "check",
                Verdict::CheckElided => "elide",
            };
            let _ = writeln!(
                out,
                "  {} {} {} [{mech}{store}] {verdict}: {}",
                s.func, s.span, s.site, s.reason
            );
        }
        if self.touches.is_empty() {
            let _ = writeln!(out, "touches: clean");
        } else {
            let _ = writeln!(out, "touches: {} finding(s)", self.touches.len());
            for t in &self.touches {
                let kind = match &t.kind {
                    TouchKind::Dead => "dead".to_string(),
                    TouchKind::TooEarly { latest } => format!("too-early (move to {latest})"),
                };
                let _ = writeln!(
                    out,
                    "  {} {} touch {} {kind}: {}",
                    t.func, t.span, t.var, t.detail
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Facts.
// ---------------------------------------------------------------------

/// One availability fact about the object reached by `base->path`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AvailFact {
    /// A migration-mechanism check saw the object on this processor, and
    /// the thread has not moved since.
    Local { base: String, path: Vec<String> },
    /// A caching-mechanism check left the object's line valid in this
    /// processor's cache.
    Cached { base: String, path: Vec<String> },
}

impl AvailFact {
    fn base(&self) -> &str {
        match self {
            AvailFact::Local { base, .. } | AvailFact::Cached { base, .. } => base,
        }
    }
    fn path(&self) -> &[String] {
        match self {
            AvailFact::Local { path, .. } | AvailFact::Cached { path, .. } => path,
        }
    }
    fn is_bare_local(&self) -> bool {
        matches!(self, AvailFact::Local { path, .. } if path.is_empty())
    }
    fn object(&self) -> String {
        object_name(self.base(), self.path())
    }
}

fn object_name(base: &str, path: &[String]) -> String {
    let mut s = base.to_string();
    for f in path {
        s.push_str("->");
        s.push_str(f);
    }
    s
}

/// The fact set at a program point: `None` is ⊤ (unvisited), the meet is
/// set intersection — a fact holds only if it holds on *every* path.
type Facts = Option<BTreeSet<AvailFact>>;

// ---------------------------------------------------------------------
// Function summaries.
// ---------------------------------------------------------------------

/// Callee names appearing anywhere in a function body.
fn callees(f: &FuncDef) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    crate::ast::walk_stmts(&f.body, &mut |s| {
        s.exprs(&mut |e| {
            if let Expr::Call { func, .. } = e {
                out.insert(func.clone());
            }
        });
    });
    out
}

/// Per-function: can calling it disturb the caller's availability facts?
/// True if the function (transitively) performs a migration-mechanism
/// check, a store, a future spawn, or a touch — or calls outside the
/// program. A non-disturbing callee provably never moves the thread and
/// never triggers an acquire, so facts flow straight across the call.
fn disturbs_map(prog: &Program, sel: &Selection) -> HashMap<String, bool> {
    let mut own: HashMap<String, bool> = HashMap::new();
    for f in &prog.funcs {
        let mut d = false;
        crate::ast::walk_stmts(&f.body, &mut |s| {
            match s {
                Stmt::Store { .. } | Stmt::Touch { .. } => d = true,
                _ => {}
            }
            s.exprs(&mut |e| match e {
                Expr::Call { future: true, .. } => d = true,
                Expr::Path { base, .. } if sel.mech(&f.name, base) == Mech::Migrate => d = true,
                _ => {}
            });
            if let Stmt::Store { base, .. } = s {
                if sel.mech(&f.name, base) == Mech::Migrate {
                    d = true;
                }
            }
        });
        own.insert(f.name.clone(), d);
    }
    propagate_through_calls(prog, own)
}

/// Per-function: may it (transitively) write the heap? Used by the
/// dead-touch pass — a write-free future body has nothing for the
/// touch's acquire to order.
fn writes_map(prog: &Program) -> HashMap<String, bool> {
    let mut own: HashMap<String, bool> = HashMap::new();
    for f in &prog.funcs {
        let mut w = false;
        crate::ast::walk_stmts(&f.body, &mut |s| {
            if matches!(s, Stmt::Store { .. }) {
                w = true;
            }
        });
        own.insert(f.name.clone(), w);
    }
    propagate_through_calls(prog, own)
}

/// Close a per-function boolean property over the call graph: a function
/// acquires the property if any callee has it; calls to functions not in
/// the program count as having it (conservative).
fn propagate_through_calls(
    prog: &Program,
    mut flags: HashMap<String, bool>,
) -> HashMap<String, bool> {
    let call_lists: Vec<(String, BTreeSet<String>)> = prog
        .funcs
        .iter()
        .map(|f| (f.name.clone(), callees(f)))
        .collect();
    loop {
        let mut changed = false;
        for (name, cs) in &call_lists {
            if flags[name] {
                continue;
            }
            let hit = cs.iter().any(|c| *flags.get(c.as_str()).unwrap_or(&true));
            if hit {
                flags.insert(name.clone(), true);
                changed = true;
            }
        }
        if !changed {
            return flags;
        }
    }
}

// ---------------------------------------------------------------------
// Must-availability.
// ---------------------------------------------------------------------

struct PassCtx<'a> {
    cfg: &'a Cfg,
    mechs: &'a [Mech],
    disturbs: &'a HashMap<String, bool>,
}

/// Walk state: facts plus per-block provenance (why each fact is here,
/// why each absent fact died) for human-readable verdict reasons.
#[derive(Default)]
struct State {
    facts: BTreeSet<AvailFact>,
    origin: BTreeMap<AvailFact, String>,
    killed: BTreeMap<AvailFact, String>,
}

impl State {
    fn kill(&mut self, pred: impl Fn(&AvailFact) -> bool, reason: impl Fn(&AvailFact) -> String) {
        let dead: Vec<AvailFact> = self.facts.iter().filter(|f| pred(f)).cloned().collect();
        for f in dead {
            self.facts.remove(&f);
            self.origin.remove(&f);
            let r = reason(&f);
            self.killed.insert(f, r);
        }
    }

    fn gen(&mut self, fact: AvailFact, span: Span) {
        self.origin
            .insert(fact.clone(), format!("checked at {span}"));
        self.facts.insert(fact);
    }
}

/// Apply one event; returns the verdict when the event is a check site.
fn step(st: &mut State, ev: &Event, ctx: &PassCtx) -> Option<(usize, Verdict, String)> {
    match ev {
        Event::Use { .. } | Event::Return => None,
        Event::Check(sid) => Some(step_check(st, *sid, ctx)),
        Event::Assign { var, span, .. } => {
            st.kill(
                |f| f.base() == var,
                |f| {
                    format!(
                        "{} invalidated by reassignment of {var} at {span}",
                        f.object()
                    )
                },
            );
            None
        }
        Event::Store { field, span } => {
            st.kill(
                |f| f.path().contains(field),
                |f| format!("{} invalidated by store to {field} at {span}", f.object()),
            );
            None
        }
        Event::Call { func, span, .. } => {
            if *ctx.disturbs.get(func.as_str()).unwrap_or(&true) {
                st.kill(
                    |f| !f.is_bare_local(),
                    |f| format!("{} invalidated by call to {func} at {span}", f.object()),
                );
            }
            None
        }
        Event::Touch { var, span } => {
            st.kill(
                |f| !f.is_bare_local(),
                |f| format!("{} invalidated by touch of {var} at {span}", f.object()),
            );
            None
        }
    }
}

fn step_check(st: &mut State, sid: usize, ctx: &PassCtx) -> (usize, Verdict, String) {
    let site: &Site = &ctx.cfg.sites[sid];
    let obj = object_name(&site.base, &site.path);
    let local = AvailFact::Local {
        base: site.base.clone(),
        path: site.path.clone(),
    };
    match ctx.mechs[sid] {
        Mech::Migrate => {
            if st.facts.contains(&local) {
                let why = st.origin.get(&local).cloned().unwrap_or_default();
                (sid, Verdict::CheckElided, format!("{obj} {why}"))
            } else {
                let why = st
                    .killed
                    .get(&local)
                    .cloned()
                    .unwrap_or_else(|| format!("first check of {obj} on this path"));
                // A performed migration check may move the thread: every
                // Local of another object and every Cached line is gone.
                let span = site.span;
                st.kill(
                    |_| true,
                    |f| format!("{} invalidated by possible migration at {span}", f.object()),
                );
                st.gen(local, span);
                (sid, Verdict::CheckNeeded, why)
            }
        }
        Mech::Cache => {
            let cached = AvailFact::Cached {
                base: site.base.clone(),
                path: site.path.clone(),
            };
            if st.facts.contains(&local) {
                let why = st.origin.get(&local).cloned().unwrap_or_default();
                (sid, Verdict::CheckElided, format!("{obj} {why}"))
            } else if st.facts.contains(&cached) {
                let why = st.origin.get(&cached).cloned().unwrap_or_default();
                (sid, Verdict::CheckElided, format!("{obj} {why}"))
            } else {
                let why = st
                    .killed
                    .get(&cached)
                    .or_else(|| st.killed.get(&local))
                    .cloned()
                    .unwrap_or_else(|| format!("first check of {obj} on this path"));
                // A cache fetch never moves the thread: gen, no kill.
                st.gen(cached, site.span);
                (sid, Verdict::CheckNeeded, why)
            }
        }
    }
}

struct MustAvail<'a> {
    ctx: PassCtx<'a>,
}

impl Analysis for MustAvail<'_> {
    type Fact = Facts;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self) -> Facts {
        Some(BTreeSet::new())
    }
    fn top(&self) -> Facts {
        None
    }
    fn meet(&self, a: &Facts, b: &Facts) -> Facts {
        match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(a), Some(b)) => Some(a.intersection(b).cloned().collect()),
        }
    }
    fn transfer(&self, _cfg: &Cfg, block: &Block, input: &Facts) -> Facts {
        let facts = input.as_ref()?;
        let mut st = State {
            facts: facts.clone(),
            ..State::default()
        };
        for ev in &block.events {
            step(&mut st, ev, &self.ctx);
        }
        Some(st.facts)
    }
}

// ---------------------------------------------------------------------
// Touch liveness.
// ---------------------------------------------------------------------

struct LiveVars;

impl Analysis for LiveVars {
    type Fact = BTreeSet<String>;
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn boundary(&self) -> BTreeSet<String> {
        BTreeSet::new()
    }
    fn top(&self) -> BTreeSet<String> {
        BTreeSet::new()
    }
    fn meet(&self, a: &BTreeSet<String>, b: &BTreeSet<String>) -> BTreeSet<String> {
        a.union(b).cloned().collect()
    }
    fn transfer(&self, _cfg: &Cfg, block: &Block, input: &BTreeSet<String>) -> BTreeSet<String> {
        let mut live = input.clone();
        for ev in block.events.iter().rev() {
            live_step(&mut live, ev);
        }
        live
    }
}

/// One event's backward liveness effect. A touch is *not* a use of the
/// value — it only synchronizes; consumption is what keeps it alive.
fn live_step(live: &mut BTreeSet<String>, ev: &Event) {
    match ev {
        Event::Use { var } => {
            live.insert(var.clone());
        }
        Event::Assign { var, .. } => {
            live.remove(var);
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

/// Run both passes over a parsed program.
pub fn optimize(prog: &Program) -> OptReport {
    // Each site is checked under the mechanism of its own verdict — the
    // one the table reports and the IR executes.
    let (table, cfgs) = lowered(prog);
    let disturbs = disturbs_map(prog, &table.selection);
    let writes = writes_map(prog);
    let mut report = OptReport::default();
    let mut verdicts = table.sites.iter();
    for (func, cfg) in prog.funcs.iter().zip(cfgs) {
        let mechs: Vec<Mech> = verdicts
            .by_ref()
            .take(cfg.sites.len())
            .map(|v| v.mech)
            .collect();
        let ctx = PassCtx {
            cfg,
            mechs: &mechs,
            disturbs: &disturbs,
        };
        site_verdicts(cfg, &ctx, func, &mut report);
        touch_findings(cfg, func, &writes, &mut report);
    }
    report
}

/// Parse and optimize a DSL source.
pub fn optimize_src(src: &str) -> Result<OptReport, ParseError> {
    Ok(optimize(&parse(src)?))
}

/// Deterministic post-fixpoint walk assigning one verdict per site.
fn site_verdicts(cfg: &Cfg, ctx: &PassCtx, func: &FuncDef, report: &mut OptReport) {
    let sol = solve(
        &MustAvail {
            ctx: PassCtx { ..*ctx },
        },
        cfg,
    );
    let mut verdicts: Vec<Option<(Verdict, String)>> = vec![None; cfg.sites.len()];
    for b in &cfg.blocks {
        let init = sol.input[b.id].clone().unwrap_or_default();
        let mut st = State::default();
        for f in init {
            st.origin
                .insert(f.clone(), "checked on every path to this block".into());
            st.facts.insert(f);
        }
        for ev in &b.events {
            if let Some((sid, v, why)) = step(&mut st, ev, ctx) {
                verdicts[sid] = Some((v, why));
            }
        }
    }
    for (sid, site) in cfg.sites.iter().enumerate() {
        let (verdict, reason) = verdicts[sid]
            .clone()
            .unwrap_or((Verdict::CheckNeeded, "unreachable".into()));
        report.sites.push(SiteReport {
            func: func.name.clone(),
            site: site.render(),
            span: site.span,
            mech: ctx.mechs[sid],
            is_store: site.is_store,
            verdict,
            reason,
        });
    }
}

/// The future body bound to `var`, when every assignment to `var` in the
/// function is the same `futurecall`.
fn future_body_of(cfg: &Cfg, var: &str) -> Option<String> {
    let mut body: Option<String> = None;
    for b in &cfg.blocks {
        for ev in &b.events {
            if let Event::Assign {
                var: v, future_of, ..
            } = ev
            {
                if v != var {
                    continue;
                }
                match (future_of, &body) {
                    (Some(f), None) => body = Some(f.clone()),
                    (Some(f), Some(prev)) if f == prev => {}
                    _ => return None,
                }
            }
        }
    }
    body
}

/// Dead touches (backward liveness + write-free body) and too-early
/// touches (independent statements before the first dependence).
fn touch_findings(
    cfg: &Cfg,
    func: &FuncDef,
    writes: &HashMap<String, bool>,
    report: &mut OptReport,
) {
    let live = solve(&LiveVars, cfg);
    for b in &cfg.blocks {
        // Dead: walk the block backward tracking liveness per event.
        let mut cur = live.input[b.id].clone();
        for ev in b.events.iter().rev() {
            if let Event::Touch { var, span } = ev {
                if !cur.contains(var) {
                    if let Some(body) = future_body_of(cfg, var) {
                        if !*writes.get(body.as_str()).unwrap_or(&true) {
                            report.touches.push(TouchReport {
                                func: func.name.clone(),
                                var: var.clone(),
                                span: *span,
                                kind: TouchKind::Dead,
                                detail: format!(
                                    "value of {var} is never used and {body} performs no \
                                     writes; the touch is removable"
                                ),
                            });
                        }
                    }
                }
            }
            live_step(&mut cur, ev);
        }
        // Too early: for each touch, count the independent statements
        // between it and its first in-block dependence.
        for (i, ev) in b.events.iter().enumerate() {
            let Event::Touch { var, span } = ev else {
                continue;
            };
            let mut gap = 0usize;
            for later in &b.events[i + 1..] {
                match later {
                    Event::Use { var: u } if u != var => {}
                    Event::Assign { var: a, .. } if a != var => gap += 1,
                    _ => {
                        if gap > 0 {
                            let latest = barrier_span(b, later);
                            report.touches.push(TouchReport {
                                func: func.name.clone(),
                                var: var.clone(),
                                span: *span,
                                kind: TouchKind::TooEarly { latest },
                                detail: format!(
                                    "{gap} independent statement(s) run between this \
                                     touch and the first use of {var}; touching later \
                                     would overlap them with the future"
                                ),
                            });
                        }
                        break;
                    }
                }
            }
        }
    }
    // Deterministic order: by span.
    report
        .touches
        .sort_by_key(|t| (t.func.clone(), t.span.line, t.span.col));
}

/// Best span for a barrier event: its own when it has one, else the next
/// event in the block that does.
fn barrier_span(block: &Block, barrier: &Event) -> Span {
    let own = |ev: &Event| -> Option<Span> {
        match ev {
            Event::Assign { span, .. }
            | Event::Store { span, .. }
            | Event::Call { span, .. }
            | Event::Touch { span, .. } => Some(*span),
            // Checks, uses and returns carry no span of their own.
            _ => None,
        }
    };
    if let Some(s) = own(barrier) {
        return s;
    }
    // Scan past the barrier for the first located event.
    let pos = block.events.iter().position(|e| std::ptr::eq(e, barrier));
    if let Some(p) = pos {
        for ev in &block.events[p..] {
            if let Some(s) = own(ev) {
                return s;
            }
        }
    }
    Span::DUMMY
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(src: &str) -> OptReport {
        optimize_src(src).unwrap()
    }

    fn verdict_of<'a>(r: &'a OptReport, site: &str) -> &'a SiteReport {
        r.sites
            .iter()
            .find(|s| s.site == site)
            .unwrap_or_else(|| panic!("no site {site} in {:#?}", r.sites))
    }

    const TREEADD: &str = r#"
        struct tree { tree *left; tree *right; int val; };
        int TreeAdd(tree *t) {
            if (t == null) { return 0; }
            else {
                int lv = futurecall TreeAdd(t->left);
                int rv = TreeAdd(t->right);
                touch lv;
                return lv + rv + t->val;
            }
        }
    "#;

    #[test]
    fn treeadd_elides_after_first_migrate_check() {
        let r = rep(TREEADD);
        let (total, elided) = r.stats();
        assert_eq!(total, 3);
        assert_eq!(elided, 2, "{}", r.render());
        assert_eq!(verdict_of(&r, "t->left").verdict, Verdict::CheckNeeded);
        assert_eq!(verdict_of(&r, "t->right").verdict, Verdict::CheckElided);
        assert_eq!(verdict_of(&r, "t->val").verdict, Verdict::CheckElided);
        // The bare Local(t) fact survives both the future spawn and the
        // touch: the thread comes back to its entry processor.
        assert!(verdict_of(&r, "t->val").reason.contains("checked at"));
    }

    #[test]
    fn reassignment_kills_availability_around_the_backedge() {
        let r = rep(r#"
            struct list { list *next @ 97; int v; };
            int Walk(list *l) {
                int acc = 0;
                while (l != null) {
                    acc = acc + l->v;
                    acc = acc + l->v;
                    l = l->next;
                }
                return acc;
            }
        "#);
        // 97% affinity -> migrate on l. First l->v re-checks every
        // iteration (the backedge's reassignment killed the fact); the
        // second and l->next ride the first.
        let needed: Vec<_> = r
            .sites
            .iter()
            .map(|s| (s.site.as_str(), s.verdict))
            .collect();
        assert_eq!(
            needed,
            vec![
                ("l->v", Verdict::CheckNeeded),
                ("l->v", Verdict::CheckElided),
                ("l->next", Verdict::CheckElided),
            ]
        );
        // The kill is on the backedge (previous iteration's `l = l->next`),
        // which is out of this block: the reason falls back to first-check.
        assert!(r.sites[0].reason.contains("first check of l"));
    }

    #[test]
    fn performed_migrate_check_kills_other_pointers_facts() {
        let r = rep(r#"
            struct node { node *next @ 95; int v; };
            int f(node *a, node *b) {
                int x = a->v;
                int y = b->v;
                int z = a->v;
                return x + y + z;
            }
        "#);
        // No loop: every variable's deref caches. But with migrate
        // forced via affinity there is no loop either — mech() consults
        // loops only, so both cache here; the second a->v still elides
        // and b->v performs.
        assert_eq!(verdict_of(&r, "b->v").verdict, Verdict::CheckNeeded);
        let a_sites: Vec<_> = r.sites.iter().filter(|s| s.site == "a->v").collect();
        assert_eq!(a_sites[0].verdict, Verdict::CheckNeeded);
        assert_eq!(a_sites[1].verdict, Verdict::CheckElided);
    }

    #[test]
    fn migration_invalidates_cached_lines() {
        let r = rep(r#"
            struct cell { cell *c @ 50; int v; };
            struct item { item *next @ 95; int w; };
            int f(item *p, cell *q) {
                int acc = 0;
                while (p != null) {
                    acc = acc + q->v;
                    acc = acc + p->w;
                    acc = acc + q->v;
                    p = p->next;
                }
                return acc;
            }
        "#);
        // p migrates (95 %), q caches. The performed migrate check on
        // p->w between the two q->v reads may move the thread: the
        // second q->v must re-check.
        let q_sites: Vec<_> = r.sites.iter().filter(|s| s.site == "q->v").collect();
        assert_eq!(q_sites[0].verdict, Verdict::CheckNeeded);
        assert_eq!(q_sites[1].verdict, Verdict::CheckNeeded, "{}", r.render());
        assert!(q_sites[1].reason.contains("possible migration"));
    }

    #[test]
    fn nondisturbing_callee_preserves_cached_facts() {
        let r = rep(r#"
            struct cell { cell *c0 @ 50; cell *c1 @ 50; };
            void Walk(cell *t) {
                if (t == null) { return; }
                else {
                    Walk(t->c0);
                    Walk(t->c1);
                }
            }
        "#);
        // Walk performs only cache-mechanism checks (50 % affinities):
        // it can never move the thread or trigger an acquire, so the
        // Cached(t) fact flows across the recursive call.
        assert_eq!(verdict_of(&r, "t->c0").verdict, Verdict::CheckNeeded);
        assert_eq!(verdict_of(&r, "t->c1").verdict, Verdict::CheckElided);
    }

    #[test]
    fn disturbing_callee_kills_cached_facts() {
        let r = rep(r#"
            struct cell { cell *c0 @ 50; cell *c1 @ 50; int v; };
            void f(cell *t) {
                if (t == null) { return; }
                else {
                    int a = t->v;
                    consume(a);
                    int b = t->c0->v;
                    return;
                }
            }
        "#);
        // `consume` is not in the program: assume the worst (it may
        // migrate/write), which invalidates this processor's cache.
        let t_sites: Vec<_> = r.sites.iter().filter(|s| s.site == "t->v").collect();
        assert_eq!(t_sites[0].verdict, Verdict::CheckNeeded);
        assert_eq!(verdict_of(&r, "t->c0").verdict, Verdict::CheckNeeded);
        assert!(verdict_of(&r, "t->c0").reason.contains("call to consume"));
    }

    #[test]
    fn store_kills_facts_whose_path_navigates_the_field() {
        let r = rep(r#"
            struct node { node *link @ 50; int v; };
            void f(node *p, node *q) {
                int a = p->link->v;
                q->link = null;
                int b = p->link->v;
                return;
            }
        "#);
        // Writing any `link` may redirect the path p->link: the second
        // p->link->v's *second* step must re-check (its object may have
        // changed), while the first step (object *p, path []) survives —
        // the store doesn't move p itself.
        let deep: Vec<_> = r.sites.iter().filter(|s| s.site == "p->link->v").collect();
        assert_eq!(deep[0].verdict, Verdict::CheckNeeded);
        assert_eq!(deep[1].verdict, Verdict::CheckNeeded, "{}", r.render());
        assert!(deep[1].reason.contains("store to link"));
        let shallow: Vec<_> = r.sites.iter().filter(|s| s.site == "p->link").collect();
        assert_eq!(shallow[1].verdict, Verdict::CheckElided);
    }

    #[test]
    fn touch_kills_cached_but_not_bare_local() {
        let r = rep(r#"
            struct tree { tree *left; tree *right; int val; };
            struct side { side *s @ 50; int w; };
            int f(tree *t, side *x) {
                int a = x->w;
                int h = futurecall f(t->left, x);
                touch h;
                int b = x->w;
                int c = t->val;
                return a + b + c + h;
            }
        "#);
        // Cached(x) dies at the call/touch; Local(t) survives both.
        let x_sites: Vec<_> = r.sites.iter().filter(|s| s.site == "x->w").collect();
        assert_eq!(x_sites[1].verdict, Verdict::CheckNeeded);
        assert_eq!(verdict_of(&r, "t->val").verdict, Verdict::CheckElided);
    }

    #[test]
    fn dead_touch_detected_for_writefree_unused_future() {
        let r = rep(r#"
            struct tree { tree *left; tree *right; int v; };
            int Sum(tree *t) {
                if (t == null) { return 0; }
                else { return Sum(t->left) + Sum(t->right); }
            }
            int Driver(tree *t) {
                int h = futurecall Sum(t);
                touch h;
                return 0;
            }
        "#);
        assert_eq!(r.touches.len(), 1, "{}", r.render());
        let t = &r.touches[0];
        assert_eq!(t.kind, TouchKind::Dead);
        assert_eq!(t.var, "h");
        assert!(t.detail.contains("Sum performs no writes"));
    }

    #[test]
    fn dead_touch_not_reported_when_body_writes() {
        let r = rep(r#"
            struct tree { tree *left; int v; };
            int Mark(tree *t) {
                if (t == null) { return 0; }
                else { t->v = 1; return Mark(t->left); }
            }
            int Driver(tree *t) {
                int h = futurecall Mark(t);
                touch h;
                return 0;
            }
        "#);
        assert!(
            r.touches.iter().all(|t| t.kind != TouchKind::Dead),
            "{}",
            r.render()
        );
    }

    #[test]
    fn too_early_touch_reports_latest_safe_point() {
        let r = rep(r#"
            struct tree { tree *left; tree *right; int v; };
            int Sum(tree *t) {
                if (t == null) { return 0; }
                else { return Sum(t->left) + Sum(t->right); }
            }
            int Driver(tree *t, int n) {
                int h = futurecall Sum(t);
                touch h;
                int a = n + 1;
                int b = a + 2;
                int c = h + b;
                return c;
            }
        "#);
        let early: Vec<_> = r
            .touches
            .iter()
            .filter(|t| matches!(t.kind, TouchKind::TooEarly { .. }))
            .collect();
        assert_eq!(early.len(), 1, "{}", r.render());
        assert!(early[0].detail.contains("2 independent statement(s)"));
        if let TouchKind::TooEarly { latest } = early[0].kind {
            assert!(latest.is_real());
        }
    }

    #[test]
    fn well_placed_touch_is_clean() {
        let r = rep(TREEADD);
        assert!(r.touches.is_empty(), "{}", r.render());
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let a = rep(TREEADD).render();
        let b = rep(TREEADD).render();
        assert_eq!(a, b);
        assert!(a.contains("checks: 3 sites, 2 elided (67%)"));
        assert!(a.contains("touches: clean"));
    }

    #[test]
    fn elided_keys_are_stable_site_identities() {
        let r = rep(TREEADD);
        let keys = r.elided_keys();
        assert_eq!(keys.len(), 2);
        for k in &keys {
            assert!(k.starts_with("TreeAdd "), "{k}");
        }
        assert!(keys[0].contains("t->right"));
        assert!(keys[1].contains("t->val"));
    }
}
