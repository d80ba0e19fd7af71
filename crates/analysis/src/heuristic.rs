//! The two-pass mechanism-selection heuristic (§4.3).
//!
//! **Pass 1**, each control loop in isolation: select the induction
//! variable whose update has the strongest path-affinity. Migration is
//! chosen for it when the affinity reaches the 90 % threshold *or* the
//! loop is parallelizable (migration is what lets Olden generate new
//! threads); otherwise its dereferences are cached. Every other pointer
//! variable is cached. A loop with no induction variable selects
//! migration for the same variable as its parent loop.
//!
//! **Pass 2**, interactions between nested loops: inside a parallel loop,
//! migrating on an inner structure whose root is *the same across
//! iterations* would serialize every thread on that root's processor
//! (Figure 5's `WalkAndTraverse`). The approximation from the paper: if
//! the inner loop's induction-variable seed is updated in the parent
//! loop, assume no bottleneck; otherwise force the inner loop to caching.
//! Incorrect answers here cost time, never correctness.

use crate::ast::{Expr, Program, Stmt};
use crate::cfg::{ControlLoop, LoopId, LoopKind};
use crate::update::{update_matrix, UpdateMatrix};
use crate::{Mech, MIGRATION_THRESHOLD};
use std::collections::HashMap;
use std::sync::Arc;

/// The heuristic's decision for one control loop.
#[derive(Clone, Debug)]
pub struct LoopChoice {
    /// The control loop decided for.
    pub cl: Arc<ControlLoop>,
    /// The variable selected as the loop's traversal variable, if any.
    pub selected: Option<String>,
    /// Its update affinity (absent when inherited from the parent).
    pub affinity: Option<f64>,
    /// Whether the selection was inherited from the parent loop.
    pub inherited: bool,
    /// Mechanism per pointer variable appearing in the loop's matrix.
    pub mechanisms: HashMap<String, Mech>,
    /// Set by pass 2 when migration was demoted to caching to avoid a
    /// bottleneck.
    pub bottleneck: bool,
}

impl LoopChoice {
    /// Mechanism for dereferences of `var` in this loop. Variables not
    /// mentioned in the matrix are cached ("dereferences of all other
    /// pointer variables are cached", §4.3).
    pub fn mech(&self, var: &str) -> Mech {
        self.mechanisms.get(var).copied().unwrap_or(Mech::Cache)
    }

    /// The variable this loop migrates on, if any.
    pub fn migration_var(&self) -> Option<&str> {
        self.selected
            .as_deref()
            .filter(|v| self.mechanisms.get(*v) == Some(&Mech::Migrate))
    }
}

/// The complete selection for a program.
#[derive(Clone, Debug)]
pub struct Selection {
    pub loops: Vec<LoopChoice>,
    matrices: Vec<UpdateMatrix>,
}

impl Selection {
    /// All choices for loops belonging to `func`.
    pub fn for_func(&self, func: &str) -> Vec<&LoopChoice> {
        self.loops.iter().filter(|l| l.cl.func == func).collect()
    }

    /// The choice for `func`'s recursion loop, if it has one.
    pub fn recursion_of(&self, func: &str) -> Option<&LoopChoice> {
        self.loops
            .iter()
            .find(|l| l.cl.func == func && matches!(l.cl.kind, LoopKind::Recursion))
    }

    /// Mechanism for dereferences of `var` anywhere in `func`: migrate if
    /// any of the function's loops migrates on it, cache otherwise. A
    /// function-wide summary; the mechanism one site executes under is
    /// its [`crate::MechTable`] verdict.
    pub fn mech(&self, func: &str, var: &str) -> Mech {
        for l in self.for_func(func) {
            if l.migration_var() == Some(var) {
                return Mech::Migrate;
            }
        }
        Mech::Cache
    }

    /// The update matrix computed for a loop (kept for reporting and for
    /// tests that reproduce Figures 3 and 4).
    pub fn matrix(&self, id: LoopId) -> &UpdateMatrix {
        &self.matrices[id.0]
    }
}

/// Is `var` syntactically assigned anywhere in `stmts` (at any depth)?
fn assigns(stmts: &[Stmt], var: &str) -> bool {
    let mut found = false;
    crate::ast::walk_stmts(stmts, &mut |s| {
        if let Stmt::Assign { dst, .. } = s {
            if dst == var {
                found = true;
            }
        }
    });
    found
}

/// Visit `dst = src` assignments in `stmts`, descending into `if`
/// branches but *not* into nested `while` loops — a nested loop's own
/// induction update is not a re-seeding by the enclosing iteration.
fn immediate_assigns(stmts: &[Stmt], f: &mut impl FnMut(&str, &Expr)) {
    for s in stmts {
        match s {
            Stmt::Assign { dst, src, .. } => f(dst, src),
            Stmt::If { then_, else_, .. } => {
                immediate_assigns(then_, f);
                immediate_assigns(else_, f);
            }
            _ => {}
        }
    }
}

/// The full three-step selection over a program: the one its verdict
/// table ([`crate::mech_table`]) resolves, computed on first use.
pub fn select(prog: &Program) -> &Selection {
    &crate::verdicts::mech_table(prog).selection
}

/// The selection over `loops`, every control loop of `prog` in
/// [`LoopId`] order (as [`crate::cfg::lower_program`] numbers them).
pub(crate) fn select_loops(prog: &Program, loops: Vec<Arc<ControlLoop>>) -> Selection {
    let matrices: Vec<UpdateMatrix> = loops.iter().map(|l| update_matrix(prog, l)).collect();

    // ---- Pass 1: each control loop in isolation -----------------------
    let mut choices: Vec<LoopChoice> = Vec::with_capacity(loops.len());
    for (cl, m) in loops.into_iter().zip(&matrices) {
        let induction = m.induction_vars();
        let mut mechanisms: HashMap<String, Mech> = HashMap::new();
        for v in m.row_vars() {
            mechanisms.insert(v.to_string(), Mech::Cache);
        }
        let (selected, affinity, inherited);
        match induction.first() {
            Some(&(var, aff)) => {
                selected = Some(var.to_string());
                affinity = Some(aff);
                inherited = false;
                let mech = if aff >= MIGRATION_THRESHOLD || cl.parallel {
                    Mech::Migrate
                } else {
                    Mech::Cache
                };
                mechanisms.insert(var.to_string(), mech);
            }
            None => {
                // Inherit the parent's migration variable (parents appear
                // earlier in the vector).
                let parent_var = cl
                    .parent
                    .and_then(|p| choices[p.0].migration_var().map(str::to_string));
                inherited = parent_var.is_some();
                affinity = None;
                if let Some(v) = parent_var {
                    mechanisms.insert(v.clone(), Mech::Migrate);
                    selected = Some(v);
                } else {
                    selected = None;
                }
            }
        }
        choices.push(LoopChoice {
            cl,
            selected,
            affinity,
            inherited,
            mechanisms,
            bottleneck: false,
        });
    }

    // ---- Pass 2: interactions between nested loops --------------------
    // For each parallelizable loop, examine (a) inner while loops in the
    // same function and (b) called functions' recursion loops; demote
    // migration to caching when the inner induction variable's seed is
    // loop-invariant in the parent.
    let mut demote: Vec<LoopId> = Vec::new();
    for (pi, parent) in choices.iter().map(|c| &c.cl).enumerate() {
        if !parent.parallel {
            continue;
        }
        let pm = &matrices[pi];
        let seed_is_fresh = |base: &str| -> bool {
            // "Updated in the parent loop": assigned in its body or has an
            // update entry in its matrix (covers recursion parameters).
            pm.updates(base) || assigns(&parent.body, base)
        };

        // (a) Directly nested loops in the same function. Only seed
        // assignments *outside* nested loop bodies count — the child's
        // own `p = p->next` is not a re-seeding by the parent iteration.
        for (ci, child) in choices.iter().map(|c| &c.cl).enumerate() {
            if child.parent != Some(parent.id) {
                continue;
            }
            let Some(var) = choices[ci].migration_var().map(str::to_string) else {
                continue;
            };
            let mut seeds: Vec<Option<String>> = Vec::new();
            immediate_assigns(&parent.body, &mut |dst, src| {
                if dst == var {
                    seeds.push(src.as_path().map(|(b, _)| b.to_string()));
                }
            });
            let fresh = if seeds.is_empty() {
                // Never re-seeded between iterations: fresh only when the
                // parent's own update advances it (an inherited induction
                // variable).
                pm.updates(&var)
            } else {
                seeds.iter().any(|seed| match seed.as_deref() {
                    Some(b) => b == var || seed_is_fresh(b),
                    None => true, // unknown seed (call result): no claim
                })
            };
            if !fresh {
                demote.push(child.id);
            }
        }

        // (b) Calls out of the parallel loop into recursive functions.
        let mut callee_seeds: Vec<(String, Option<String>)> = Vec::new();
        crate::ast::walk_stmts(&parent.body, &mut |s| {
            s.exprs(&mut |e| {
                if let Expr::Call { func, args, .. } = e {
                    if func == &parent.func {
                        return; // the parent's own recursion
                    }
                    if let Some(g) = prog.func(func) {
                        // Seed = base of the argument bound to the callee's
                        // migration parameter; resolved below.
                        for (i, _) in g.params.iter().enumerate() {
                            let base = args
                                .get(i)
                                .and_then(|a| a.as_path())
                                .map(|(b, _)| b.to_string());
                            callee_seeds.push((format!("{func}#{i}"), base));
                        }
                    }
                }
            });
        });
        for (key, base) in callee_seeds {
            let (callee, idx) = key.split_once('#').unwrap();
            let idx: usize = idx.parse().unwrap();
            let Some(g) = prog.func(callee) else { continue };
            let Some(param) = g.params.get(idx) else {
                continue;
            };
            // Find the callee's recursion loop choice.
            let Some(ci) = choices
                .iter()
                .position(|c| c.cl.func == callee && matches!(c.cl.kind, LoopKind::Recursion))
            else {
                continue;
            };
            if choices[ci].migration_var() != Some(param.as_str()) {
                continue;
            }
            let fresh = base.as_deref().is_some_and(seed_is_fresh);
            if !fresh {
                demote.push(LoopId(ci));
            }
        }
    }

    for id in demote {
        let c = &mut choices[id.0];
        if let Some(v) = c.selected.clone() {
            c.mechanisms.insert(v, Mech::Cache);
            c.bottleneck = true;
        }
    }

    Selection {
        loops: choices,
        matrices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn sel(src: &str) -> Selection {
        select(&parse(src).unwrap()).clone()
    }

    #[test]
    fn tree_traversal_migrates_by_default() {
        // §4.3: "by default … tree traversals will use computation
        // migration". Two recursive calls at the 70 % default combine to
        // 1 − 0.3² = 0.91 ≥ 0.90.
        let s = sel(r#"
            struct tree { tree *left; tree *right; };
            void T(tree *t) {
                if (t == null) { return; }
                T(t->left);
                T(t->right);
            }
        "#);
        let c = s.recursion_of("T").unwrap();
        assert_eq!(c.migration_var(), Some("t"));
        assert!((c.affinity.unwrap() - 0.91).abs() < 1e-12);
        assert_eq!(s.mech("T", "t"), Mech::Migrate);
    }

    #[test]
    fn list_traversal_caches_by_default() {
        // §4.3: "list traversals will use caching" — 70 % < 90 %.
        let s = sel(r#"
            struct list { list *next; };
            void W(list *l) { while (l) { l = l->next; } }
        "#);
        let c = &s.for_func("W")[0];
        assert_eq!(c.mech("l"), Mech::Cache);
        assert_eq!(c.migration_var(), None);
        assert_eq!(s.mech("W", "l"), Mech::Cache);
    }

    #[test]
    fn tree_search_caches_by_default() {
        // §4.3: "tree searches will use caching" — avg(70, 70) < 90.
        let s = sel(r#"
            struct tree { tree *left; tree *right; int val; };
            void S(tree *t, int x) {
                while (t) {
                    if (x < t->val) { t = t->left; } else { t = t->right; }
                }
            }
        "#);
        assert_eq!(s.for_func("S")[0].mech("t"), Mech::Cache);
    }

    #[test]
    fn threshold_boundary() {
        // Exactly 90 % migrates; 89 % caches.
        let at = sel(r#"
            struct l90 { l90 *next @ 90; };
            void f(l90 *p) { while (p) { p = p->next; } }
        "#);
        assert_eq!(at.for_func("f")[0].mech("p"), Mech::Migrate);
        let below = sel(r#"
            struct l89 { l89 *next @ 89; };
            void f(l89 *p) { while (p) { p = p->next; } }
        "#);
        assert_eq!(below.for_func("f")[0].mech("p"), Mech::Cache);
    }

    #[test]
    fn parallelizable_loop_migrates_below_threshold() {
        // Futures force migration so new threads can be generated.
        let s = sel(r#"
            struct list { list *next; work *item; };
            struct work { int x; };
            void f(list *l) {
                while (l) {
                    futurecall Do(l->item);
                    l = l->next;
                }
            }
        "#);
        let c = &s.for_func("f")[0];
        assert!(c.cl.parallel);
        assert_eq!(c.mech("l"), Mech::Migrate, "70% but parallelizable");
    }

    #[test]
    fn other_variables_cache() {
        let s = sel(r#"
            struct node { node *next @ 95; node *peer; };
            void f(node *a) {
                while (a) {
                    node *b = a->peer;
                    a = a->next;
                }
            }
        "#);
        let c = &s.for_func("f")[0];
        assert_eq!(c.mech("a"), Mech::Migrate);
        assert_eq!(c.mech("b"), Mech::Cache);
        assert_eq!(c.mech("anything_else"), Mech::Cache);
    }

    #[test]
    fn loop_without_induction_var_inherits_parent() {
        let s = sel(r#"
            struct node { node *next @ 95; };
            void f(node *a, int n) {
                while (a) {
                    int i = 0;
                    while (i < n) { i = consume(a, i); }
                    a = a->next;
                }
            }
        "#);
        let inner = &s.for_func("f")[1];
        assert!(inner.inherited);
        assert_eq!(inner.migration_var(), Some("a"));
    }

    #[test]
    fn parent_without_migration_var_leaves_inner_unselected() {
        // The inheritance rule's other edge: the parent *caches* (70 %
        // list walk), so an induction-free inner loop has nothing to
        // inherit and selects no variable at all.
        let s = sel(r#"
            struct list { list *next; };
            void f(list *l, int n) {
                while (l) {
                    int i = 0;
                    while (i < n) { i = consume(l, i); }
                    l = l->next;
                }
            }
        "#);
        let inner = &s.for_func("f")[1];
        assert!(!inner.inherited, "nothing to inherit");
        assert!(inner.selected.is_none());
        assert_eq!(inner.migration_var(), None);
    }

    #[test]
    fn nested_walk_of_shared_structure_demoted_in_parallel_loop() {
        // Pass-2 case (a), the inline WalkAndTraverse shape: the inner
        // while would migrate on `c` (95 %), but its seed `g` is the same
        // for every parallel iteration — every thread would serialize on
        // g's processor. Demote to caching.
        let s = sel(r#"
            struct list { list *next; work *item; };
            struct work { int x; };
            struct chain { chain *hop @ 95; };
            void f(list *l, chain *g) {
                while (l) {
                    futurecall Do(l->item);
                    chain *c = g;
                    while (c) { c = c->hop; }
                    l = l->next;
                }
            }
        "#);
        let inner = &s.for_func("f")[1];
        assert!(inner.bottleneck, "shared seed g must demote");
        assert_eq!(inner.mech("c"), Mech::Cache);
        assert_eq!(inner.migration_var(), None);
    }

    #[test]
    fn nested_walk_keeps_migration_when_seed_advances_with_parent() {
        // Same shape, but the seed hangs off the parent's induction
        // variable: every iteration walks a *different* chain, so the
        // pass-1 migration choice stands.
        let s = sel(r#"
            struct list { list *next; work *item; chain *start; };
            struct work { int x; };
            struct chain { chain *hop @ 95; };
            void f(list *l) {
                while (l) {
                    futurecall Do(l->item);
                    chain *c = l->start;
                    while (c) { c = c->hop; }
                    l = l->next;
                }
            }
        "#);
        let inner = &s.for_func("f")[1];
        assert!(!inner.bottleneck);
        assert_eq!(inner.migration_var(), Some("c"));
    }

    const FIG5: &str = r#"
        struct list { list *next; body *item; };
        struct body { int x; };
        struct tree { tree *left; tree *right; list *items; };

        void Traverse(tree *t) {
            if (t == null) { return; }
            else { Traverse(t->left); Traverse(t->right); }
        }

        void Walk(list *l) {
            while (l) { visit(l); l = l->next; }
        }

        void WalkAndTraverse(list *l, tree *t) {
            while (l) {
                futurecall Traverse(t);
                l = l->next;
            }
        }

        void TraverseAndWalk(tree *t) {
            if (t == null) { return; }
            else {
                futurecall TraverseAndWalk(t->left);
                futurecall TraverseAndWalk(t->right);
                Walk(t->items);
            }
        }
    "#;

    #[test]
    fn figure5_walk_and_traverse_bottleneck() {
        let s = sel(FIG5);
        // `t` is the same for every parallel iteration: Traverse's
        // migration on `t` would serialize at the tree root — demoted.
        let trav = s.recursion_of("Traverse").unwrap();
        assert!(trav.bottleneck);
        assert_eq!(trav.mech("t"), Mech::Cache);
    }

    #[test]
    fn figure5_traverse_and_walk_no_bottleneck() {
        let s = sel(FIG5);
        // `t->items` differs at every node: Walk keeps its pass-1 choice
        // (caching at 70 %, but *not* marked as a bottleneck).
        let walk = &s.for_func("Walk")[0];
        assert!(!walk.bottleneck);
        // And the recursion of TraverseAndWalk itself migrates (parallel).
        let rec = s.recursion_of("TraverseAndWalk").unwrap();
        assert_eq!(rec.migration_var(), Some("t"));
        assert!(!rec.bottleneck);
    }

    #[test]
    fn bottleneck_demotion_requires_parallel_parent() {
        // Same shape as WalkAndTraverse but without futures: no demotion.
        let s = sel(r#"
            struct list { list *next; };
            struct tree { tree *left; tree *right; };
            void Traverse(tree *t) {
                if (t == null) { return; }
                else { Traverse(t->left); Traverse(t->right); }
            }
            void serial(list *l, tree *t) {
                while (l) { Traverse(t); l = l->next; }
            }
        "#);
        let trav = s.recursion_of("Traverse").unwrap();
        assert!(!trav.bottleneck);
        assert_eq!(trav.mech("t"), Mech::Migrate);
    }

    #[test]
    fn figure3_selection() {
        let s = sel(r#"
            struct node { node *left @ 90; node *right @ 70; };
            void f(node *s, node *t, node *u) {
                while (s) {
                    s = s->left;
                    t = t->right->left;
                    u = s->right;
                }
            }
        "#);
        let c = &s.for_func("f")[0];
        // s (90 %) beats t (63 %): s migrates at the threshold, t and u cache.
        assert_eq!(c.migration_var(), Some("s"));
        assert_eq!(c.mech("t"), Mech::Cache);
        assert_eq!(c.mech("u"), Mech::Cache);
    }
}
