//! Update matrices (§4.2): how pointer variables move through a recursive
//! structure per control-loop iteration.
//!
//! The entry at `(s, t)` is the path-affinity of the update if `s`'s value
//! at the end of an iteration is `t`'s value at the start dereferenced
//! through some field path (`s' = t->F…`); blank otherwise. Diagonal
//! entries identify induction variables. The pass is a forward symbolic
//! evaluation of one iteration:
//!
//! * assignments through pointer paths compose (`s = s->left; u = s->right`
//!   gives `u ← s` along `left->right`, affinity 0.9 × 0.7 = 0.63 — the
//!   `u` row of Figure 3);
//! * at a join the two branches' updates are **averaged** if both assign
//!   the variable along the same base, and **omitted** if only one does
//!   (§4.2 case 1);
//! * for a recursion loop, each recursive call site contributes the
//!   affinity of its argument path, and multiple sites combine as
//!   `1 − Π(1 − aᵢ)` — the probability at least one child is local
//!   (§4.2 case 2, Figure 4's 97 %);
//! * a multi-field path multiplies per-field affinities (§4.2 case 3).
//!
//! Exactness is not required: "errors in the update matrices will not
//! affect program correctness" — they only steer the cost heuristic.

use crate::ast::{Expr, Program, Stmt};
use crate::cfg::{ControlLoop, LoopKind};
use std::collections::HashMap;

/// The update matrix of one control loop: `(s, t) → affinity`, stored as
/// row maps so lookups borrow instead of building owned key tuples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateMatrix {
    rows: HashMap<String, HashMap<String, f64>>,
}

impl UpdateMatrix {
    /// Affinity of the `(s, t)` entry, if present.
    pub fn get(&self, s: &str, t: &str) -> Option<f64> {
        self.rows.get(s).and_then(|r| r.get(t)).copied()
    }

    /// Record the `(s, t)` entry.
    pub fn insert(&mut self, s: String, t: String, affinity: f64) {
        self.rows.entry(s).or_default().insert(t, affinity);
    }

    /// Variables updated by themselves — the induction variables.
    pub fn induction_vars(&self) -> Vec<(&str, f64)> {
        let mut v: Vec<(&str, f64)> = self
            .rows
            .iter()
            .filter_map(|(s, r)| r.get(s).map(|&a| (s.as_str(), a)))
            .collect();
        // Deterministic order: strongest affinity first, then name.
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(b.0)));
        v
    }

    /// Every variable appearing as an updated (row) variable.
    pub fn row_vars(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.rows.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// True if `var` has any update entry (used by the bottleneck pass to
    /// ask "is this variable updated in the parent loop?").
    pub fn updates(&self, var: &str) -> bool {
        self.rows.contains_key(var)
    }

    /// Locality of `s`'s fresh value each iteration: the diagonal entry
    /// if `s` is an induction variable, else the strongest update in its
    /// row (deterministic: highest affinity, ties by column name).
    pub fn row_affinity(&self, s: &str) -> Option<f64> {
        let r = self.rows.get(s)?;
        if let Some(&a) = r.get(s) {
            return Some(a);
        }
        r.iter()
            .max_by(|(ta, aa), (tb, ab)| aa.partial_cmp(ab).unwrap().then(tb.cmp(ta)))
            .map(|(_, &a)| a)
    }
}

/// Symbolic value of a variable during the one-iteration evaluation:
/// a path from an iteration-entry variable, or unknown.
#[derive(Clone, Debug, PartialEq)]
enum Sym {
    /// `base`'s iteration-entry value followed through a path with the
    /// given accumulated affinity. `assigned` distinguishes a variable
    /// actually written this iteration from the identity binding.
    Path {
        base: String,
        affinity: f64,
        assigned: bool,
    },
    /// Not expressible as a path from an entry value.
    Unknown,
}

type State = HashMap<String, Sym>;

/// Resolve a variable to its current symbolic value (identity if never
/// assigned).
fn lookup(state: &State, var: &str) -> Sym {
    state.get(var).cloned().unwrap_or(Sym::Path {
        base: var.to_string(),
        affinity: 1.0,
        assigned: false,
    })
}

/// Resolve an expression to a symbolic path value, if it is one.
fn eval_expr(prog: &Program, state: &State, e: &Expr) -> Sym {
    match e.as_path() {
        Some((base, fields)) => match lookup(state, base) {
            Sym::Path {
                base: b0,
                affinity,
                assigned,
            } => {
                let fa: f64 = fields.iter().map(|f| prog.affinity(f)).product();
                Sym::Path {
                    base: b0,
                    affinity: affinity * fa,
                    // Navigating fields counts as a real update even from
                    // an identity binding.
                    assigned: assigned || !fields.is_empty(),
                }
            }
            Sym::Unknown => Sym::Unknown,
        },
        None => Sym::Unknown,
    }
}

/// Apply one statement's effect to the symbolic state. `rec` carries the
/// recursion-site collector when analysing a recursion loop.
fn eval_stmt(prog: &Program, state: &mut State, s: &Stmt, rec: &mut Option<RecCollector<'_>>) {
    // Collect recursive call sites *before* applying the statement's own
    // binding effect (arguments are evaluated in the pre-state).
    if let Some(rc) = rec.as_mut() {
        s.exprs(&mut |e| {
            if let Expr::Call { func, args, .. } = e {
                if func == rc.func {
                    rc.visit_site(prog, state, args);
                }
            }
        });
    }
    match s {
        Stmt::Assign { dst, src, .. } => {
            let v = eval_expr(prog, state, src);
            state.insert(dst.clone(), v);
        }
        Stmt::Store { .. } | Stmt::ExprStmt(_) | Stmt::Touch { .. } | Stmt::Return(_) => {
            // Stores mutate the heap, not variable bindings; returns end
            // the iteration on paths the merge rule already discounts.
        }
        Stmt::If { then_, else_, .. } => {
            let mut st = state.clone();
            let mut se = state.clone();
            for stmt in then_ {
                eval_stmt(prog, &mut st, stmt, rec);
            }
            for stmt in else_ {
                eval_stmt(prog, &mut se, stmt, rec);
            }
            *state = merge(st, se);
        }
        Stmt::While { body, .. } => {
            // A nested loop's net effect on enclosing-loop analysis:
            // anything it assigns becomes unknown (it ran 0..n times).
            let mut assigned = Vec::new();
            crate::ast::walk_stmts(body, &mut |s| {
                if let Stmt::Assign { dst, .. } = s {
                    assigned.push(dst.clone());
                }
            });
            for v in assigned {
                state.insert(v, Sym::Unknown);
            }
        }
    }
}

/// Join-point merge (§4.2 case 1): average affinities of updates present
/// in both branches along the same base; omit updates present in only
/// one; identity bindings flow through untouched.
fn merge(a: State, b: State) -> State {
    let mut out = State::new();
    let keys: std::collections::HashSet<&String> = a.keys().chain(b.keys()).collect();
    for k in keys {
        let va = a.get(k).cloned().unwrap_or(Sym::Path {
            base: k.clone(),
            affinity: 1.0,
            assigned: false,
        });
        let vb = b.get(k).cloned().unwrap_or(Sym::Path {
            base: k.clone(),
            affinity: 1.0,
            assigned: false,
        });
        let merged = match (va, vb) {
            (
                Sym::Path {
                    base: ba,
                    affinity: fa,
                    assigned: sa,
                },
                Sym::Path {
                    base: bb,
                    affinity: fb,
                    assigned: sb,
                },
            ) => {
                if ba == bb && sa == sb {
                    Sym::Path {
                        base: ba,
                        affinity: (fa + fb) / 2.0,
                        assigned: sa,
                    }
                } else if !sa && !sb {
                    Sym::Path {
                        base: ba,
                        affinity: 1.0,
                        assigned: false,
                    }
                } else {
                    // Assigned in only one branch, or along different
                    // bases: omit (the update is not guaranteed every
                    // iteration).
                    Sym::Unknown
                }
            }
            _ => Sym::Unknown,
        };
        out.insert(k.clone(), merged);
    }
    out
}

/// Collector for recursion loops: per parameter, the affinity contributed
/// by each recursive call site.
struct RecCollector<'a> {
    func: &'a str,
    params: &'a [String],
    /// `per_param[i]` = list of `(base, affinity, traversed)` from each
    /// call site; `traversed` is false for identity pass-throughs.
    per_param: Vec<Vec<Option<(String, f64, bool)>>>,
    sites: usize,
}

impl<'a> RecCollector<'a> {
    fn new(func: &'a str, params: &'a [String]) -> Self {
        RecCollector {
            func,
            params,
            per_param: vec![Vec::new(); params.len()],
            sites: 0,
        }
    }

    fn visit_site(&mut self, prog: &Program, state: &State, args: &[Expr]) {
        self.sites += 1;
        for (i, _p) in self.params.iter().enumerate() {
            let entry = args.get(i).and_then(|a| match eval_expr(prog, state, a) {
                Sym::Path {
                    base,
                    affinity,
                    assigned,
                } => Some((base, affinity, assigned)),
                Sym::Unknown => None,
            });
            self.per_param[i].push(entry);
        }
    }
}

/// Compute the update matrix of one control loop.
pub fn update_matrix(prog: &Program, cl: &ControlLoop) -> UpdateMatrix {
    let mut m = UpdateMatrix::default();
    match cl.kind {
        LoopKind::While { .. } => {
            let mut state = State::new();
            let mut rec = None;
            for s in &cl.body {
                eval_stmt(prog, &mut state, s, &mut rec);
            }
            for (var, sym) in state {
                if let Sym::Path {
                    base,
                    affinity,
                    assigned: true,
                } = sym
                {
                    m.insert(var, base, affinity);
                }
            }
        }
        LoopKind::Recursion => {
            let mut state = State::new();
            let mut collector = Some(RecCollector::new(&cl.func, &cl.params));
            for s in &cl.body {
                eval_stmt(prog, &mut state, s, &mut collector);
            }
            let rc = collector.unwrap();
            for (i, param) in cl.params.iter().enumerate() {
                let sites = &rc.per_param[i];
                if sites.is_empty() {
                    continue;
                }
                // All call sites must contribute a path along the same
                // base; otherwise the update is omitted.
                let first_base = match sites.first().and_then(|s| s.as_ref()) {
                    Some((b, _, _)) => b.clone(),
                    None => continue,
                };
                if !sites
                    .iter()
                    .all(|s| s.as_ref().is_some_and(|(b, _, _)| *b == first_base))
                {
                    continue;
                }
                // An argument that is passed through unchanged at every
                // site (`f(dir)`) is not traversing the structure — only
                // record the update if some site navigates a field.
                if !sites.iter().any(|s| s.as_ref().unwrap().2) {
                    continue;
                }
                // §4.2 case 2: both (all) updates execute; the combined
                // affinity is the probability at least one stays local.
                let p_all_remote: f64 = sites.iter().map(|s| 1.0 - s.as_ref().unwrap().1).product();
                m.insert(param.clone(), first_base, 1.0 - p_all_remote);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::lower_program;
    use crate::parser::parse;

    fn matrix_of(src: &str, loop_idx: usize) -> (crate::ast::Program, UpdateMatrix) {
        let p = parse(src).unwrap();
        let loops: Vec<_> = lower_program(&p)
            .into_iter()
            .flat_map(|c| c.loops)
            .collect();
        let m = update_matrix(&p, &loops[loop_idx]);
        (p, m)
    }

    const FIG3: &str = r#"
        struct node { node *left @ 90; node *right @ 70; };
        void f(node *s, node *t, node *u) {
            while (s) {
                s = s->left;
                t = t->right->left;
                u = s->right;
            }
        }
    "#;

    #[test]
    fn figure3_matrix() {
        let (_, m) = matrix_of(FIG3, 0);
        // s ← s along left: 90.
        assert!((m.get("s", "s").unwrap() - 0.90).abs() < 1e-12);
        // t ← t along right->left: 0.7 × 0.9 = 63.
        assert!((m.get("t", "t").unwrap() - 0.63).abs() < 1e-12);
        // u ← s (not by itself!): s->left->right = 0.9 × 0.7.
        assert!((m.get("u", "s").unwrap() - 0.63).abs() < 1e-12);
        assert!(m.get("u", "u").is_none(), "u is not an induction variable");
        let ind = m.induction_vars();
        assert_eq!(
            ind.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec!["s", "t"]
        );
    }

    const FIG4: &str = r#"
        struct tree { tree *left @ 90; tree *right @ 70; int val; };
        int TreeAdd(tree *t) {
            if (t == null) { return 0; }
            else { return TreeAdd(t->left) + TreeAdd(t->right) + t->val; }
        }
    "#;

    #[test]
    fn figure4_recursion_combines_to_97() {
        let (_, m) = matrix_of(FIG4, 0);
        // 1 − (1 − .9)(1 − .7) = 0.97.
        assert!((m.get("t", "t").unwrap() - 0.97).abs() < 1e-12);
    }

    #[test]
    fn default_affinity_list_traversal() {
        let (_, m) = matrix_of(
            "struct list { list *next; }; void w(list *l) { while (l) { l = l->next; } }",
            0,
        );
        assert!((m.get("l", "l").unwrap() - crate::DEFAULT_AFFINITY).abs() < 1e-12);
    }

    #[test]
    fn join_averages_when_both_branches_update() {
        // Tree search: both branches assign t; affinities average.
        let (_, m) = matrix_of(
            r#"
            struct tree { tree *left @ 90; tree *right @ 70; int val; };
            void search(tree *t, int x) {
                while (t) {
                    if (x < t->val) { t = t->left; }
                    else { t = t->right; }
                }
            }
            "#,
            0,
        );
        assert!(
            (m.get("t", "t").unwrap() - 0.80).abs() < 1e-12,
            "avg(90,70)"
        );
    }

    #[test]
    fn join_averages_across_different_field_paths_on_same_base() {
        // §4.2 case 1 with *unequal paths*: both branches assign `t` from
        // `t`'s entry value, but one descends one field (0.90) and the
        // other two (0.7 × 0.9 = 0.63). Same base + both assigned ⇒ the
        // rule still averages the accumulated affinities: 0.765.
        let (_, m) = matrix_of(
            r#"
            struct tree { tree *left @ 90; tree *right @ 70; int val; };
            void rotate(tree *t, int x) {
                while (t) {
                    if (x < t->val) { t = t->left; }
                    else { t = t->right->left; }
                }
            }
            "#,
            0,
        );
        assert!(
            (m.get("t", "t").unwrap() - 0.765).abs() < 1e-12,
            "avg(0.90, 0.63), got {:?}",
            m.get("t", "t")
        );
    }

    #[test]
    fn row_affinity_prefers_diagonal_then_strongest() {
        let (_, m) = matrix_of(FIG3, 0);
        // s is an induction variable: diagonal wins.
        assert!((m.row_affinity("s").unwrap() - 0.90).abs() < 1e-12);
        // u has only the off-diagonal u ← s entry.
        assert!((m.row_affinity("u").unwrap() - 0.63).abs() < 1e-12);
        assert!(m.row_affinity("zzz").is_none());
    }

    #[test]
    fn join_omits_when_one_branch_lacks_update() {
        let (_, m) = matrix_of(
            r#"
            struct tree { tree *left @ 90; tree *right @ 70; int flag; };
            void f(tree *t) {
                while (t) {
                    if (t->flag) { t = t->left; }
                }
            }
            "#,
            0,
        );
        assert!(m.get("t", "t").is_none(), "update not in every iteration");
    }

    #[test]
    fn assignment_after_conditional_still_counts() {
        // `if (…) return; t = t->left;` — the update is on every completed
        // iteration.
        let (_, m) = matrix_of(
            r#"
            struct tree { tree *left @ 90; int val; };
            void f(tree *t, int x) {
                while (t) {
                    if (t->val == x) { return; }
                    t = t->left;
                }
            }
            "#,
            0,
        );
        assert!((m.get("t", "t").unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn non_path_update_is_omitted() {
        let (_, m) = matrix_of(
            r#"
            struct list { list *next; };
            void f(list *l) {
                while (l) {
                    l = pick(l);
                }
            }
            "#,
            0,
        );
        assert!(m.get("l", "l").is_none(), "call results are unknown");
    }

    #[test]
    fn single_recursive_call_keeps_plain_affinity() {
        let (_, m) = matrix_of(
            r#"
            struct list { list *next @ 80; };
            void walk(list *l) {
                if (l == null) { return; }
                walk(l->next);
            }
            "#,
            0,
        );
        assert!((m.get("l", "l").unwrap() - 0.80).abs() < 1e-12);
    }

    #[test]
    fn recursion_sites_with_different_bases_omit() {
        let (_, m) = matrix_of(
            r#"
            struct tree { tree *left; tree *right; };
            void f(tree *t, tree *u) {
                if (t == null) { return; }
                f(t->left, u);
                f(u->right, t);
            }
            "#,
            0,
        );
        // Param 1 (t): sites give bases t and u — omitted.
        assert!(m.get("t", "t").is_none());
        assert!(m.get("t", "u").is_none());
    }

    #[test]
    fn nested_while_clobbers_its_assignments() {
        let (_, m) = matrix_of(
            r#"
            struct node { node *next @ 95; node *inner; };
            void f(node *a, node *b) {
                while (a) {
                    b = a->inner;
                    while (b) { b = b->next; }
                    a = a->next;
                }
            }
            "#,
            0, // outer loop
        );
        assert!((m.get("a", "a").unwrap() - 0.95).abs() < 1e-12);
        assert!(m.get("b", "a").is_none(), "b is loop-dependent: unknown");
    }

    #[test]
    fn three_field_path_multiplies_all_affinities() {
        // §4.2 case 3 past two fields: `n->a->b->c` is the product of all
        // three per-field affinities, 0.9 × 0.8 × 0.5.
        let (_, m) = matrix_of(
            r#"
            struct node { node *a @ 90; node *b @ 80; node *c @ 50; };
            void f(node *n) {
                while (n) {
                    n = n->a->b->c;
                }
            }
            "#,
            0,
        );
        assert!((m.get("n", "n").unwrap() - 0.36).abs() < 1e-12);
    }

    #[test]
    fn three_recursive_sites_combine_at_least_one_local() {
        // §4.2 case 2 past Figure 4's pair: a ternary recursion combines
        // as 1 − (1−.9)(1−.7)(1−.5) = 0.985 — still "the probability at
        // least one child is local", not a sum or an average.
        let (_, m) = matrix_of(
            r#"
            struct tree { tree *c0 @ 90; tree *c1 @ 70; tree *c2 @ 50; };
            void walk(tree *t) {
                if (t == null) { return; }
                walk(t->c0);
                walk(t->c1);
                walk(t->c2);
            }
            "#,
            0,
        );
        assert!((m.get("t", "t").unwrap() - 0.985).abs() < 1e-12);
    }

    #[test]
    fn join_omits_when_branches_update_along_different_bases() {
        // Both branches assign `t`, but from different entry values; the
        // update has no single (row, column) home, so it is omitted — the
        // other half of §4.2 case 1 next to the one-branch-only rule.
        let (_, m) = matrix_of(
            r#"
            struct tree { tree *left @ 90; tree *right @ 70; int val; };
            void f(tree *t, tree *u, int x) {
                while (t) {
                    if (x < t->val) { t = t->left; }
                    else { t = u->right; }
                }
            }
            "#,
            0,
        );
        assert!(m.get("t", "t").is_none(), "no single base");
        assert!(m.get("t", "u").is_none(), "no single base");
    }

    #[test]
    fn updates_query() {
        let (_, m) = matrix_of(FIG3, 0);
        assert!(m.updates("s"));
        assert!(m.updates("u"));
        assert!(!m.updates("zzz"));
    }
}
