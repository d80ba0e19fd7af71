//! olden-select: the §4 heuristic as a whole-program decision surface.
//!
//! [`crate::heuristic::select`] decides mechanisms per *control loop and
//! variable*; this module resolves that selection at every check site
//! of the CFG lowering ([`crate::cfg::Cfg::sites`], where a path
//! `base->f1->…->fk` is `k` sites, each knowing its innermost control
//! loop), producing one [`SiteVerdict`] per site in the same order. Each
//! verdict records the chosen [`Mech`], and [`MechTable::reason`] says
//! *why*: the pass-1 affinity against the 90 % threshold, parallel-loop
//! forcing, inheritance, or a pass-2 bottleneck demotion (rendered only
//! when asked for). The optimizer and the executable IR take
//! their per-site mechanism from this table, so all three agree by
//! construction.
//!
//! The table is the conformance surface for the benchmark descriptors:
//! `Descriptor::selected_mechanisms` pins these keys byte-for-byte, and a
//! test checks the kernels' hard-coded `Mechanism` arguments agree (see
//! `tests/select_parity.rs`).

use crate::ast::Program;
use crate::cfg::{lower_program, Cfg, LoopKind};
use crate::diag::Span;
use crate::heuristic::{select_loops, LoopChoice, Selection};
use crate::{Mech, MIGRATION_THRESHOLD};

/// The verdict for one pointer-check site.
#[derive(Clone, Debug)]
pub struct SiteVerdict {
    /// Function the site belongs to.
    pub func: String,
    /// Source location of the dereference expression.
    pub span: Span,
    /// `base->f1->…->field` rendering (one verdict per arrow of a path).
    pub site: String,
    /// The pointer variable the path starts from.
    pub base: String,
    /// Index into [`Selection::loops`] of the innermost enclosing control
    /// loop, if any.
    pub loop_idx: Option<usize>,
    /// Fields navigated before the accessed one (empty for `base->f`).
    pub prefix: Vec<String>,
    /// True when the site is the final step of a store.
    pub is_store: bool,
    /// The mechanism the heuristic chose for dereferences of `base` here
    /// ([`MechTable::reason`] says why).
    pub mech: Mech,
}

impl SiteVerdict {
    /// Stable annotation key: `"{func} {span} {site} -> {mech}"` — the
    /// format `Descriptor::selected_mechanisms` pins.
    pub fn key(&self) -> String {
        format!(
            "{} {} {} -> {}",
            self.func,
            self.span,
            self.site,
            self.mech.name()
        )
    }
}

/// The whole-program verdict table.
#[derive(Clone, Debug)]
pub struct MechTable {
    pub sites: Vec<SiteVerdict>,
    pub selection: Selection,
}

impl MechTable {
    /// All site keys, in source (evaluation) order.
    pub fn keys(&self) -> Vec<String> {
        self.sites.iter().map(|s| s.key()).collect()
    }

    /// Human-readable listing: the per-loop selection summary followed by
    /// one line per site (the `oldenc select` surface).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for l in &self.selection.loops {
            let kind = match &l.cl.kind {
                LoopKind::While { cond } => format!("while ({cond})"),
                LoopKind::Recursion => "recursion".to_string(),
            };
            let sel = match (&l.selected, l.affinity) {
                (Some(v), Some(a)) => format!("{v} @ {}", pct(a)),
                (Some(v), None) => format!("{v} (inherited)"),
                _ => "-".to_string(),
            };
            let mech = l
                .selected
                .as_deref()
                .map(|v| l.mech(v).name())
                .unwrap_or("-");
            let _ = writeln!(
                out,
                "loop {}: {} [{}{}] selected={} -> {}",
                l.cl.func,
                kind,
                if l.cl.parallel { "parallel" } else { "serial" },
                if l.bottleneck { ", bottleneck" } else { "" },
                sel,
                mech,
            );
        }
        for s in &self.sites {
            let _ = writeln!(out, "{} ({})", s.key(), self.reason(s));
        }
        out
    }

    /// Why pass 1 / pass 2 chose `v`'s mechanism.
    pub fn reason(&self, v: &SiteVerdict) -> String {
        let Some(li) = v.loop_idx else {
            return "outside any control loop".to_string();
        };
        let c: &LoopChoice = &self.selection.loops[li];
        if c.selected.as_deref() != Some(v.base.as_str()) {
            return "not the selected traversal variable".to_string();
        }
        if c.bottleneck {
            return "demoted by pass 2: migration here would serialize on a shared root"
                .to_string();
        }
        if c.inherited {
            return "no induction variable: migration inherited from the parent loop".to_string();
        }
        // A selected, non-inherited variable always has an affinity from
        // pass 1.
        let a = c.affinity.unwrap_or(crate::DEFAULT_AFFINITY);
        match v.mech {
            Mech::Migrate if a >= MIGRATION_THRESHOLD => format!(
                "affinity {} >= threshold {}",
                pct(a),
                pct(MIGRATION_THRESHOLD)
            ),
            Mech::Migrate => format!("parallel loop forces migration (affinity {})", pct(a)),
            Mech::Cache => format!(
                "affinity {} < threshold {}",
                pct(a),
                pct(MIGRATION_THRESHOLD)
            ),
        }
    }
}

/// Render an affinity as a percentage with one decimal (deterministic,
/// and does not round 99.75 % up to a misleading "100%").
fn pct(a: f64) -> String {
    format!("{:.1}%", a * 100.0)
}

/// The per-site verdict table of `prog`, computed on its first use.
pub fn mech_table(prog: &Program) -> &MechTable {
    &lowered(prog).0
}

/// `prog`'s CFGs and the verdict table over their sites, one verdict
/// per [`Cfg::sites`] entry in the same order — what the optimizer
/// reasons over. Computed once per program, on first use: the program
/// is lowered once and the selection made over the CFGs' control loops.
pub(crate) fn lowered(prog: &Program) -> &(MechTable, Vec<Cfg>) {
    prog.memo.table.get_or_init(|| {
        let cfgs = lower_program(prog);
        let loops = cfgs.iter().flat_map(|c| c.loops.iter().cloned());
        let selection = select_loops(prog, loops.collect());
        let mut sites = Vec::new();
        for cfg in &cfgs {
            for s in &cfg.sites {
                let loop_idx = s.loop_ord.map(|k| cfg.loops[k].id.0);
                // §4.3 only speaks about control loops; straight-line code
                // runs once, so the cheap mechanism (no thread movement) wins.
                let mech = loop_idx.map_or(Mech::Cache, |li| selection.loops[li].mech(&s.base));
                sites.push(SiteVerdict {
                    func: cfg.func.clone(),
                    span: s.span,
                    site: s.render(),
                    base: s.base.clone(),
                    loop_idx,
                    prefix: s.path.clone(),
                    is_store: s.is_store,
                    mech,
                });
            }
        }
        (MechTable { sites, selection }, cfgs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn table(src: &str) -> MechTable {
        mech_table(&parse(src).unwrap()).clone()
    }

    const FUTURES: &str = r#"
        struct tree { tree *left; tree *right; int val; };
        int Work(tree *t) { t->val = 1; return 0; }
        int T(tree *t) {
            if (t == null) { return 0; }
            int h = futurecall T(t->left);
            int w = futurecall Work(t->right);
            t->val = 2;
            touch h;
            return T(t->right) + h + t->val;
        }
    "#;

    /// A compile job's passes share one derivation: whichever pass runs
    /// first fills the memo, and the table `mech_table` returns is the
    /// one `optimize` and `select_scheme` read, as are the race findings.
    #[test]
    fn each_fact_is_computed_once() {
        use crate::{lower_ir, optimize, racecheck, select_scheme, Severity};
        // The perf job's order: table, IR, optimizer, races, scheme.
        let p = parse(FUTURES).unwrap();
        let t = mech_table(&p);
        assert!(
            p.memo.races.get().is_none(),
            "the table needs no race findings"
        );
        lower_ir(&p, t).unwrap();
        optimize(&p);
        let races = racecheck(&p);
        assert!(!races.is_empty(), "the program races: {races:?}");
        let r = p.memo.races.get().expect("racecheck fills the memo");
        assert_eq!(*r, races);
        let scheme = select_scheme(&p);
        let warnings = races.iter().filter(|d| d.severity != Severity::Note);
        assert_eq!(scheme.signals.race_findings, warnings.count());
        assert!(std::ptr::eq(t, mech_table(&p)));
        assert!(std::ptr::eq(t, &lowered(&p).0));
        assert!(std::ptr::eq(r, p.memo.races.get().unwrap()));

        // Scheme first: it derives the table and the findings, and the
        // later passes read them.
        let q = parse(FUTURES).unwrap();
        let verdict = select_scheme(&q);
        let (t, _) = q.memo.table.get().expect("select_scheme derives the table");
        let r = q.memo.races.get().expect("select_scheme derives the races");
        assert_eq!(verdict.render(), scheme.render());
        assert_eq!(optimize(&q).render(), optimize(&p).render());
        assert_eq!(racecheck(&q), races);
        assert!(std::ptr::eq(t, mech_table(&q)));
        assert!(std::ptr::eq(r, q.memo.races.get().unwrap()));

        // The optimizer derives the table, not the race findings.
        let o = parse(FUTURES).unwrap();
        optimize(&o);
        assert!(o.memo.table.get().is_some() && o.memo.races.get().is_none());
    }

    #[test]
    fn treeadd_shape_migrates_everywhere() {
        let t = table(
            r#"
            struct tree { tree *left; tree *right; int val; };
            int T(tree *t) {
                if (t == null) { return 0; }
                else { return T(t->left) + T(t->right) + t->val; }
            }
        "#,
        );
        assert_eq!(t.sites.len(), 3);
        for s in &t.sites {
            assert_eq!(s.mech, Mech::Migrate, "{}", s.site);
            assert!(t.reason(s).contains("91.0%"), "{}", t.reason(s));
        }
    }

    #[test]
    fn non_traversal_variable_caches_with_reason() {
        let t = table(
            r#"
            struct node { node *next @ 95; node *peer; int x; };
            void f(node *a) {
                while (a) {
                    node *b = a->peer;
                    int y = b->x;
                    a = a->next;
                }
            }
        "#,
        );
        let b_site = t.sites.iter().find(|s| s.base == "b").unwrap();
        assert_eq!(b_site.mech, Mech::Cache);
        assert_eq!(t.reason(b_site), "not the selected traversal variable");
        let a_next = t.sites.iter().find(|s| s.site == "a->next").unwrap();
        assert_eq!(a_next.mech, Mech::Migrate);
    }

    #[test]
    fn bottleneck_demotion_reaches_the_sites() {
        // Figure 5's WalkAndTraverse: Traverse's sites cache, with the
        // pass-2 reason attached.
        let t = table(
            r#"
            struct list { list *next; };
            struct tree { tree *left; tree *right; };
            void Traverse(tree *t) {
                if (t == null) { return; }
                else { Traverse(t->left); Traverse(t->right); }
            }
            void WalkAndTraverse(list *l, tree *t) {
                while (l) {
                    futurecall Traverse(t);
                    l = l->next;
                }
            }
        "#,
        );
        for s in t.sites.iter().filter(|s| s.func == "Traverse") {
            assert_eq!(s.mech, Mech::Cache);
            assert!(t.reason(s).contains("pass 2"), "{}", t.reason(s));
        }
    }

    #[test]
    fn sites_outside_loops_cache() {
        let t = table(
            r#"
            struct node { node *next @ 95; node *child @ 95; };
            int f(node *x) {
                node *l = x->child;
                while (l != null) { l = l->next; }
                return 0;
            }
        "#,
        );
        let child = t.sites.iter().find(|s| s.site == "x->child").unwrap();
        assert_eq!(child.mech, Mech::Cache);
        assert_eq!(t.reason(child), "outside any control loop");
        assert_eq!(child.loop_idx, None);
        let next = t.sites.iter().find(|s| s.site == "l->next").unwrap();
        assert_eq!(next.mech, Mech::Migrate);
        assert!(next.loop_idx.is_some());
    }

    #[test]
    fn keys_are_stable_and_unique() {
        let t = table(
            r#"
            struct node { node *a; node *b; };
            void f(node *n) { while (n) { n = n->a->b; } }
        "#,
        );
        let keys = t.keys();
        assert_eq!(keys.len(), 2, "two arrows, two sites");
        assert!(keys[0].ends_with("n->a -> cache"), "{}", keys[0]);
        assert!(keys[1].ends_with("n->a->b -> cache"), "{}", keys[1]);
        let mut dedup = keys.clone();
        dedup.dedup();
        assert_eq!(dedup, keys);
    }

    #[test]
    fn render_mentions_loops_and_sites() {
        let t = table(
            r#"
            struct tree { tree *left; tree *right; };
            void T(tree *t) {
                if (t == null) { return; }
                else { T(t->left); T(t->right); }
            }
        "#,
        );
        let r = t.render();
        assert!(r.contains("loop T: recursion"));
        assert!(r.contains("t->left -> migrate"));
    }
}
