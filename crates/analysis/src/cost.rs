//! Static cost prediction: an abstract interpretation of the selection.
//!
//! The paper's heuristic picks mechanisms from *costs it never reports*;
//! this module makes those costs a falsifiable output. Given the
//! per-site verdict table ([`crate::verdicts::MechTable`]), the update
//! matrices behind it, and per-loop **trip-count summaries** (how many
//! iterations each control loop executes for a given problem size —
//! static knowledge the benchmark descriptors carry), it predicts four
//! dynamic event counts:
//!
//! * **migrations** — for a migrating `while`, each iteration crosses a
//!   processor boundary with probability `1 − a` (the induction update's
//!   affinity); for a migrating recursion, each invocation arrives over
//!   one call edge whose remoteness is the mean of `1 − aᵢ` over the
//!   recursive call sites' argument-path affinities; a future whose body
//!   is another migrating function adds its departure probability as an
//!   entry migration.
//! * **line fetches** — per iteration, each distinct cached object is
//!   remote (and, new objects every iteration, missed) with probability
//!   `1 − a_base · a_path`; a pass-2 bottleneck walker is pinned to its
//!   spawning processor, so its base locality degrades to `1/procs`.
//! * **remote touches** — a future's continuation is stolen (and its
//!   later `touch` stalls) when the body migrates away at spawn: the
//!   argument path's remoteness when the callee migrates on that
//!   parameter, zero when the callee caches, and the 70 % default when
//!   the callee's body is outside the program.
//! * **invalidations** — the runtime flushes cached lines at every
//!   acquire point: migration arrivals, return arrivals, and stalled
//!   touches, so the prediction is the identity
//!   `2 × migrations + remote touches` (returns pair with migrations).
//!
//! Trip counts are given under each control loop's stable key
//! ([`crate::cfg::loop_key`], `"{func}#{ordinal}"`). Missing keys
//! predict zero — the parity test cross-checks descriptor keys against
//! [`loop_keys`].

use crate::ast::{Expr, Program, Stmt};
use crate::cfg::LoopKind;
use crate::heuristic::{LoopChoice, Selection};
use crate::verdicts::{mech_table, MechTable};
use crate::{Mech, DEFAULT_AFFINITY};
use std::collections::{BTreeMap, BTreeSet};

/// Predicted event counts for one program at one problem size.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Prediction {
    pub migrations: f64,
    pub line_fetches: f64,
    pub invalidations: f64,
    pub remote_touches: f64,
}

impl Prediction {
    /// The four counters in a fixed reporting order, rounded.
    pub fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("migrations", self.migrations.round() as u64),
            ("line_fetches", self.line_fetches.round() as u64),
            ("invalidations", self.invalidations.round() as u64),
            ("remote_touches", self.remote_touches.round() as u64),
        ]
    }
}

/// Keys of every control loop in the program, in [`crate::LoopId`]
/// order.
pub fn loop_keys(prog: &Program) -> Vec<String> {
    let loops = &mech_table(prog).selection.loops;
    loops.iter().map(|c| c.cl.key()).collect()
}

/// Visit the expressions of a loop body *without* descending into nested
/// `while` loops (their events belong to the inner loop's own trips).
fn immediate_exprs(ss: &[Stmt], f: &mut impl FnMut(&Expr)) {
    for s in ss {
        match s {
            Stmt::While { .. } => {}
            Stmt::If { cond, then_, else_ } => {
                cond.walk(f);
                immediate_exprs(then_, f);
                immediate_exprs(else_, f);
            }
            other => other.exprs(f),
        }
    }
}

/// Mean remoteness of one recursive descent step: the average of
/// `1 − aᵢ` over the loop's recursive call sites' argument paths (an
/// identity pass-through contributes 0, a non-path argument the default).
fn recursion_step_remoteness(prog: &Program, c: &LoopChoice) -> f64 {
    let Some(v) = c.migration_var() else {
        return 0.0;
    };
    let l = &c.cl;
    let Some(pi) = l.params.iter().position(|p| p == v) else {
        return 0.0;
    };
    let mut rs: Vec<f64> = Vec::new();
    immediate_exprs(&l.body, &mut |e| {
        if let Expr::Call { func, args, .. } = e {
            if *func == l.func {
                let a = args
                    .get(pi)
                    .and_then(|a| a.as_path())
                    .map(|(_, fields)| {
                        if fields.is_empty() {
                            1.0
                        } else {
                            prog.path_affinity(fields)
                        }
                    })
                    .unwrap_or(DEFAULT_AFFINITY);
                rs.push(1.0 - a);
            }
        }
    });
    if rs.is_empty() {
        0.0
    } else {
        rs.iter().sum::<f64>() / rs.len() as f64
    }
}

/// Effective affinity of a loop's migration variable, following the
/// inheritance chain up to the nearest ancestor that computed one.
fn effective_affinity(sel: &Selection, li: usize) -> f64 {
    if let Some(a) = sel.loops[li].affinity {
        return a;
    }
    let mut p = sel.loops[li].cl.parent;
    while let Some(pid) = p {
        if let Some(a) = sel.loops[pid.0].affinity {
            return a;
        }
        p = sel.loops[pid.0].cl.parent;
    }
    DEFAULT_AFFINITY
}

/// Probability a cached object's *base variable* points at local data at
/// the moment of dereference.
fn base_locality(sel: &Selection, li: usize, base: &str, procs: usize) -> f64 {
    let c = &sel.loops[li];
    if c.bottleneck && c.selected.as_deref() == Some(base) {
        // A demoted walker stays on its spawning processor while the
        // structure it walks is spread over all of them.
        return 1.0 / procs.max(1) as f64;
    }
    let m = sel.matrix(c.cl.id);
    if let Some(a) = m.row_affinity(base) {
        return a;
    }
    DEFAULT_AFFINITY
}

/// Probability the body of a `futurecall` migrates away from its spawn
/// processor, leaving its continuation to be stolen.
fn steal_probability(
    prog: &Program,
    sel: &Selection,
    li: usize,
    callee: &str,
    args: &[Expr],
) -> f64 {
    if prog.func(callee).is_none() {
        // Body outside the program: assume it walks its argument at the
        // default affinity.
        return 1.0 - DEFAULT_AFFINITY;
    }
    // The body only leaves if some loop of the callee migrates (a callee
    // that caches — including one demoted by pass 2 — stays put).
    let mig_loops: Vec<&LoopChoice> = sel
        .loops
        .iter()
        .filter(|c| c.cl.func == callee && c.migration_var().is_some())
        .collect();
    if mig_loops.is_empty() {
        return 0.0;
    }
    // A recursion on a bound parameter departs over the argument path
    // (or over the callee's own first descent for an identity seed).
    if let Some(&c) = mig_loops
        .iter()
        .find(|c| matches!(c.cl.kind, LoopKind::Recursion))
    {
        let v = c.migration_var().unwrap_or_default();
        if let Some(pi) = c.cl.params.iter().position(|p| p == v) {
            return match args.get(pi).and_then(|a| a.as_path()) {
                Some((_, fields)) if !fields.is_empty() => 1.0 - prog.path_affinity(fields),
                Some((base, _)) => {
                    if sel.loops[li].migration_var() == Some(base) {
                        // Seeded with the spawner's own (local) traversal
                        // value: the body leaves when its first descent
                        // step does.
                        recursion_step_remoteness(prog, c)
                    } else {
                        1.0 - DEFAULT_AFFINITY
                    }
                }
                None => 1.0 - DEFAULT_AFFINITY,
            };
        }
    }
    // A migrating iterative walk inside the callee leaves as soon as its
    // seed is remote: the first path argument's remoteness.
    args.iter()
        .find_map(|a| a.as_path())
        .map(|(_, fields)| {
            if fields.is_empty() {
                1.0 - DEFAULT_AFFINITY
            } else {
                1.0 - prog.path_affinity(fields)
            }
        })
        .unwrap_or(1.0 - DEFAULT_AFFINITY)
}

/// Predict dynamic event counts for `prog` given per-loop trip counts
/// and the machine's processor count.
pub fn predict(
    prog: &Program,
    table: &MechTable,
    trips: &[(&str, u64)],
    procs: usize,
) -> Prediction {
    let sel = &table.selection;
    let keys: Vec<String> = sel.loops.iter().map(|c| c.cl.key()).collect();
    let trip_of = |li: usize| -> f64 {
        trips
            .iter()
            .find(|(k, _)| *k == keys[li])
            .map(|&(_, t)| t as f64)
            .unwrap_or(0.0)
    };

    let mut p = Prediction::default();

    for (li, c) in sel.loops.iter().enumerate() {
        let t = trip_of(li);
        if t == 0.0 {
            continue;
        }
        let l = &c.cl;
        // Migrations of the loop's traversal variable.
        if c.migration_var().is_some() {
            let per_iter = match l.kind {
                LoopKind::While { .. } => 1.0 - effective_affinity(sel, li),
                LoopKind::Recursion => recursion_step_remoteness(prog, c),
            };
            p.migrations += t * per_iter;
        }
        // Stolen continuations from futures spawned in this loop. A
        // future whose body belongs to *another* function also moves the
        // computation when it departs — an entry migration the loop's
        // own traversal terms don't see (self-recursive futures are
        // already inside `recursion_step_remoteness`).
        let mut steal = 0.0;
        let mut entry = 0.0;
        immediate_exprs(&l.body, &mut |e| {
            if let Expr::Call {
                func,
                args,
                future: true,
                ..
            } = e
            {
                let ps = steal_probability(prog, sel, li, func, args);
                steal += ps;
                if *func != l.func {
                    entry += ps;
                }
            }
        });
        p.remote_touches += t * steal;
        p.migrations += t * entry;
    }

    // Line fetches: distinct cached objects per iteration of each loop.
    let mut objects: BTreeMap<usize, BTreeSet<(String, Vec<String>)>> = BTreeMap::new();
    for s in &table.sites {
        if s.mech != Mech::Cache {
            continue;
        }
        // Straight-line (loop-free) sites run once; their constant cost
        // is below the model's resolution.
        let Some(li) = s.loop_idx else { continue };
        objects
            .entry(li)
            .or_default()
            .insert((s.base.clone(), s.prefix.clone()));
    }
    for (li, objs) in objects {
        let t = trip_of(li);
        if t == 0.0 {
            continue;
        }
        for (base, prefix) in objs {
            let a_obj = base_locality(sel, li, &base, procs) * prog.path_affinity(&prefix);
            p.line_fetches += t * (1.0 - a_obj);
        }
    }

    // Every acquire point flushes the cache: migration arrivals, their
    // paired return arrivals, and stalled touches.
    p.invalidations = 2.0 * p.migrations + p.remote_touches;
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::verdicts::mech_table;

    fn predict_src(src: &str, trips: &[(&str, u64)], procs: usize) -> Prediction {
        let prog = parse(src).unwrap();
        let t = mech_table(&prog);
        predict(&prog, t, trips, procs)
    }

    const TREE: &str = r#"
        struct tree { tree *left; tree *right; int val; };
        int T(tree *t) {
            if (t == null) { return 0; }
            else { return T(t->left) + T(t->right) + t->val; }
        }
    "#;

    #[test]
    fn migrating_recursion_uses_mean_edge_remoteness() {
        // Both descent edges have affinity 0.70: each of the 100
        // invocations arrives remotely with probability 0.30.
        let p = predict_src(TREE, &[("T#0", 100)], 8);
        assert!((p.migrations - 30.0).abs() < 1e-9, "{}", p.migrations);
        assert_eq!(p.line_fetches, 0.0, "everything migrates");
        assert!((p.invalidations - 60.0).abs() < 1e-9, "2x migrations");
        assert_eq!(p.remote_touches, 0.0, "no futures");
    }

    #[test]
    fn migrating_while_uses_update_affinity() {
        let p = predict_src(
            r#"
            struct node { node *next @ 95; };
            void W(node *n) { while (n) { n = n->next; } }
        "#,
            &[("W#0", 200)],
            8,
        );
        assert!((p.migrations - 10.0).abs() < 1e-9, "200 x 0.05");
    }

    #[test]
    fn cached_traversal_fetches_lines() {
        let p = predict_src(
            r#"
            struct node { node *next; int val; };
            void W(node *n) { int s = 0; while (n) { s = s + n->val; n = n->next; } }
        "#,
            &[("W#0", 100)],
            8,
        );
        assert_eq!(p.migrations, 0.0, "70% < 90%: caches");
        // One distinct object (n) per iteration, remote with 1 - 0.7.
        assert!((p.line_fetches - 30.0).abs() < 1e-9, "{}", p.line_fetches);
    }

    #[test]
    fn derived_object_composes_base_and_path() {
        // h = n->nbr caches; its base locality comes from the matrix row
        // (h <- n at 0.7) while n itself migrates at 95%.
        let p = predict_src(
            r#"
            struct enode { enode *next @ 95; hnode *nbr; int val; };
            struct hnode { int val; };
            void C(enode *n) {
                while (n != null) {
                    hnode *h = n->nbr;
                    n->val = n->val - h->val;
                    n = n->next;
                }
            }
        "#,
            &[("C#0", 100)],
            8,
        );
        assert!((p.migrations - 5.0).abs() < 1e-9);
        // Cached objects per iteration: h only (1 - 0.7 remote).
        assert!((p.line_fetches - 30.0).abs() < 1e-9, "{}", p.line_fetches);
    }

    #[test]
    fn future_with_path_argument_predicts_steals() {
        // futurecall T(l->item): the callee migrates on its parameter, so
        // the body leaves with 1 - a(item) = 0.3 per spawn.
        let p = predict_src(
            r#"
            struct list { list *next @ 95; tree *item; };
            struct tree { tree *left; tree *right; };
            void T(tree *t) {
                if (t == null) { return; }
                else { T(t->left); T(t->right); }
            }
            void F(list *l) {
                while (l) {
                    futurecall T(l->item);
                    l = l->next;
                }
            }
        "#,
            &[("F#0", 100)],
            8,
        );
        assert!(
            (p.remote_touches - 30.0).abs() < 1e-9,
            "{}",
            p.remote_touches
        );
        // The departing bodies are entry migrations (plus the parallel
        // loop's own l walk at 1 - 0.95).
        assert!((p.migrations - 35.0).abs() < 1e-9, "{}", p.migrations);
        assert!(
            (p.invalidations - (2.0 * p.migrations + p.remote_touches)).abs() < 1e-9,
            "acquire identity"
        );
    }

    #[test]
    fn demoted_walker_degrades_to_one_over_procs() {
        // Figure 5: Traverse is demoted; its walker stays on the spawning
        // processor, so the cached tree is local only 1/procs of the time
        // and no steals are predicted (the body never migrates).
        let p = predict_src(
            r#"
            struct list { list *next; };
            struct tree { tree *left @ 95; tree *right @ 95; };
            void Traverse(tree *t) {
                if (t == null) { return; }
                else { Traverse(t->left); Traverse(t->right); }
            }
            void WT(list *l, tree *t) {
                while (l) {
                    futurecall Traverse(t);
                    l = l->next;
                }
            }
        "#,
            &[("WT#0", 10), ("Traverse#0", 100)],
            4,
        );
        // WT is parallel, so `l` is force-migrated: 10 x (1 - 0.7).
        assert!((p.migrations - 3.0).abs() < 1e-9, "{}", p.migrations);
        assert_eq!(p.remote_touches, 0.0, "demoted body cannot migrate");
        // Traverse's t->left / t->right share base t with an empty
        // prefix: one cached object per invocation, remote 1 - 1/4. The
        // WT loop itself has no cached sites (l migrates, t is only a
        // bare future argument).
        assert!((p.line_fetches - 75.0).abs() < 1e-9, "{}", p.line_fetches);
    }

    #[test]
    fn unknown_callee_assumes_default_walk() {
        let p = predict_src(
            r#"
            struct node { node *next @ 95; };
            void F(node *l) {
                while (l) {
                    futurecall Go(l);
                    l = l->next;
                }
            }
        "#,
            &[("F#0", 100)],
            8,
        );
        assert!(
            (p.remote_touches - 30.0).abs() < 1e-9,
            "{}",
            p.remote_touches
        );
        assert!((p.migrations - 35.0).abs() < 1e-9, "5 walk + 30 entry");
    }

    #[test]
    fn missing_trip_counts_predict_zero() {
        let p = predict_src(TREE, &[], 8);
        assert_eq!(p, Prediction::default());
    }

    #[test]
    fn loop_keys_are_per_function_ordinals() {
        let prog = parse(
            r#"
            struct node { node *next; };
            void A(node *n) {
                if (n == null) { return; }
                node *p = n->next;
                while (p) { p = p->next; }
                A(n->next);
            }
            void B(node *n) { while (n) { n = n->next; } }
        "#,
        )
        .unwrap();
        assert_eq!(loop_keys(&prog), vec!["A#0", "A#1", "B#0"]);
    }

    #[test]
    fn counters_round_in_fixed_order() {
        let p = Prediction {
            migrations: 1.4,
            line_fetches: 2.6,
            invalidations: 3.5,
            remote_touches: 0.2,
        };
        let names: Vec<&str> = p.counters().iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "migrations",
                "line_fetches",
                "invalidations",
                "remote_touches"
            ]
        );
        assert_eq!(p.counters()[1].1, 3);
    }
}
