//! olden-scheme: per-program coherence-scheme selection (Appendix A).
//!
//! The paper specifies three software-coherence schemes — local
//! knowledge, global knowledge, bilateral — and Table 3 measures them,
//! but leaves *choosing* one to the system builder. This pass closes
//! that loop the same way §4.3 closes mechanism selection: a static
//! heuristic over summaries the compiler already computes.
//!
//! The inputs are the whole-program surfaces of the earlier passes:
//!
//! * **Migration density** — the fraction of dereference sites the §4
//!   heuristic migrates ([`crate::verdicts::mech_table`]). Every
//!   migration arrival is an acquire; under local knowledge an acquire
//!   flushes the whole software cache, so dense migration is what makes
//!   the smarter schemes worth their bookkeeping.
//! * **Write-set size** — the distinct fields stored through *cached*
//!   sites. Global knowledge charges every cached write a sharer-list
//!   probe at the home (`olden-cache`'s `TRACK_SHARED`-class cycles when
//!   the page is shared), so a wide write set is the argument against
//!   it.
//! * **Sharing fan-out** — parallel loops and pass-2 bottleneck
//!   demotions ([`crate::heuristic::select`]). A bottleneck means many
//!   futures touch one structure root: exactly the long-sharer-list,
//!   spurious-invalidation regime where bilateral's timestamps beat
//!   pushed invalidations.
//! * **Race findings** — [`crate::racecheck::racecheck`]. The schemes
//!   are observationally equivalent only for race-free programs, so a
//!   racy program pins the conservative default and says why.
//!
//! The output mirrors [`crate::verdicts::MechTable`]: a [`SchemeVerdict`]
//! with the chosen [`Scheme`], the [`SchemeSignals`] it was derived
//! from, and human-readable reasons — rendered deterministically for the
//! `oldenc scheme` golden surface. Like the path-affinity hints, a wrong
//! choice here costs cycles, never correctness: every backend runs every
//! scheme, and the parity suites hold them all byte-equal.

use crate::ast::Program;
use crate::diag::Severity;
use crate::racecheck::race_findings;
use crate::verdicts::{mech_table, MechTable};
use crate::Mech;
use std::collections::BTreeSet;

/// An Appendix-A coherence scheme. Mirrors the runtime's `Protocol`;
/// kept separate (like [`Mech`] vs `Mechanism`) so the compiler crate
/// has no dependency on the machine layers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scheme {
    /// Flush the whole cache at each acquire; no per-write bookkeeping.
    LocalKnowledge,
    /// Per-page sharer lists at the home; pushed invalidations at each
    /// release.
    GlobalKnowledge,
    /// Per-page home timestamps; first access after an acquire
    /// revalidates against the home.
    Bilateral,
}

impl Scheme {
    /// The runtime's spelling (`Protocol::from_name` accepts these).
    pub fn name(self) -> &'static str {
        match self {
            Scheme::LocalKnowledge => "local",
            Scheme::GlobalKnowledge => "global",
            Scheme::Bilateral => "bilateral",
        }
    }

    pub fn from_name(name: &str) -> Option<Scheme> {
        match name {
            "local" => Some(Scheme::LocalKnowledge),
            "global" => Some(Scheme::GlobalKnowledge),
            "bilateral" => Some(Scheme::Bilateral),
            _ => None,
        }
    }
}

/// Migration-site density below which local knowledge wins: acquires
/// are rare enough that flushing on each one costs less than tracking
/// every cached write.
pub const SPARSE_MIGRATION: f64 = 0.25;

/// Write-set width (distinct cached-store fields) from which global
/// knowledge's per-write home tracking is charged too often and
/// bilateral's lazy revalidation amortizes better.
pub const WIDE_WRITE_SET: usize = 3;

/// What the selection was computed from — one number per input surface,
/// so the rendered verdict is auditable against the other passes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchemeSignals {
    /// Total dereference sites in the program.
    pub sites: usize,
    /// Sites the §4 heuristic migrates (acquire points).
    pub migrate_sites: usize,
    /// Sites the §4 heuristic caches.
    pub cached_sites: usize,
    /// Distinct fields stored through cached sites (write-set size).
    pub write_set: usize,
    /// Control loops containing futures (parallel fan-out).
    pub parallel_loops: usize,
    /// Pass-2 bottleneck demotions (futures sharing one structure root).
    pub shared_roots: usize,
    /// Racecheck diagnostics (scheme equivalence needs race freedom).
    pub race_findings: usize,
}

impl SchemeSignals {
    /// Fraction of sites that migrate — how often the cache faces an
    /// acquire, relative to how much it is used.
    pub fn migration_density(&self) -> f64 {
        if self.sites == 0 {
            0.0
        } else {
            self.migrate_sites as f64 / self.sites as f64
        }
    }
}

/// The whole-program coherence verdict.
#[derive(Clone, Debug)]
pub struct SchemeVerdict {
    pub scheme: Scheme,
    pub signals: SchemeSignals,
    /// Why, one clause per line — first the decisive rule, then any
    /// advisory notes (races, inert caching).
    pub reasons: Vec<String>,
}

impl SchemeVerdict {
    /// Deterministic multi-line rendering (the `oldenc scheme` surface):
    /// the signal summary, the chosen scheme, and one indented reason
    /// line each.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let s = &self.signals;
        let _ = writeln!(
            out,
            "signals: sites={} migrate={} cached={} density={:.0}% write-set={} \
             parallel-loops={} shared-roots={} races={}",
            s.sites,
            s.migrate_sites,
            s.cached_sites,
            s.migration_density() * 100.0,
            s.write_set,
            s.parallel_loops,
            s.shared_roots,
            s.race_findings,
        );
        let _ = writeln!(out, "scheme: {}", self.scheme.name());
        for r in &self.reasons {
            let _ = writeln!(out, "  - {r}");
        }
        out
    }
}

/// Collect the selection signals from the passes' summaries.
fn signals(prog: &Program, table: &MechTable) -> SchemeSignals {
    let mut write_set: BTreeSet<&str> = BTreeSet::new();
    let mut migrate_sites = 0usize;
    let mut cached_sites = 0usize;
    for s in &table.sites {
        match s.mech {
            Mech::Migrate => migrate_sites += 1,
            Mech::Cache => cached_sites += 1,
        }
        if s.is_store && s.mech == Mech::Cache {
            if let Some(field) = s.site.rsplit("->").next() {
                write_set.insert(field);
            }
        }
    }
    let loops = &table.selection.loops;
    let parallel_loops = loops.iter().filter(|l| l.cl.parallel).count();
    let shared_roots = loops.iter().filter(|l| l.bottleneck).count();
    SchemeSignals {
        sites: table.sites.len(),
        migrate_sites,
        cached_sites,
        write_set: write_set.len(),
        parallel_loops,
        shared_roots,
        // Notes (e.g. RC003 untouched futures) are style findings, not
        // violations of the release-consistency contract the schemes'
        // equivalence rests on — only warnings and errors count.
        race_findings: race_findings(prog)
            .iter()
            .filter(|d| d.severity != Severity::Note)
            .count(),
    }
}

/// Pick the coherence scheme for a program.
///
/// The decision tree, first match wins:
///
/// 1. **No cached sites** → local. Invalidation bookkeeping protects a
///    cache nothing uses; flushing empty state is free.
/// 2. **Race findings** → local. The schemes only coincide on race-free
///    programs; local knowledge is the paper's baseline and the one the
///    race diagnostics are phrased against.
/// 3. **Sparse migration** (density < [`SPARSE_MIGRATION`]) → local.
///    Few acquires means few flushes; per-write tracking or timestamp
///    checks would run far more often than the flushes they prevent.
/// 4. **Shared roots, or parallel loops over a wide write set** →
///    bilateral. Long sharer lists make pushed invalidations mostly
///    spurious; a timestamp bump at the release is O(1) regardless of
///    fan-out, and only the lines actually re-read pay a revalidation.
/// 5. **Otherwise** → global. Migration is frequent and the cached
///    write set narrow: sharer lists stay short, pushed invalidations
///    are precise, and surviving lines keep serving hits across
///    acquires with no revalidation latency.
pub fn select_scheme(prog: &Program) -> SchemeVerdict {
    let s = signals(prog, mech_table(prog));
    let mut reasons = Vec::new();
    let density = s.migration_density();
    let scheme = if s.cached_sites == 0 {
        reasons.push(
            "no cached sites: every dereference migrates, so coherence machinery \
             would track an unused cache"
                .to_string(),
        );
        Scheme::LocalKnowledge
    } else if s.race_findings > 0 {
        reasons.push(format!(
            "{} race finding(s): scheme equivalence is only guaranteed for race-free \
             programs, so keep the baseline",
            s.race_findings
        ));
        Scheme::LocalKnowledge
    } else if density < SPARSE_MIGRATION {
        reasons.push(format!(
            "sparse migration ({:.0}% of sites < {:.0}%): acquires are rare, so \
             flush-on-arrival costs little and writes stay untracked",
            density * 100.0,
            SPARSE_MIGRATION * 100.0
        ));
        Scheme::LocalKnowledge
    } else if s.shared_roots > 0 || (s.parallel_loops > 0 && s.write_set >= WIDE_WRITE_SET) {
        if s.shared_roots > 0 {
            reasons.push(format!(
                "{} shared structure root(s) under parallel loops: sharer lists would \
                 grow with fan-out and pushed invalidations turn spurious; timestamp \
                 revalidation pays only for lines actually re-read",
                s.shared_roots
            ));
        } else {
            reasons.push(format!(
                "parallel loops over a {}-field cached write set: per-write sharer \
                 tracking at the home would charge every store; an O(1) timestamp bump \
                 per release amortizes better",
                s.write_set
            ));
        }
        Scheme::Bilateral
    } else {
        reasons.push(format!(
            "dense migration ({:.0}% of sites) over a {}-field cached write set: \
             pushed invalidations are precise and surviving lines keep serving hits \
             across acquires",
            density * 100.0,
            s.write_set
        ));
        Scheme::GlobalKnowledge
    };
    SchemeVerdict {
        scheme,
        signals: s,
        reasons,
    }
}

/// Convenience for tools: parse then select.
pub fn select_scheme_src(src: &str) -> Result<SchemeVerdict, crate::parser::ParseError> {
    Ok(select_scheme(&crate::parser::parse(src)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn verdict(src: &str) -> SchemeVerdict {
        select_scheme(&parse(src).unwrap())
    }

    #[test]
    fn scheme_names_round_trip() {
        for s in [
            Scheme::LocalKnowledge,
            Scheme::GlobalKnowledge,
            Scheme::Bilateral,
        ] {
            assert_eq!(Scheme::from_name(s.name()), Some(s));
        }
        assert_eq!(Scheme::from_name("eager"), None);
    }

    #[test]
    fn all_migrate_program_stays_local() {
        // TreeAdd's shape: every site migrates, nothing is ever cached.
        let v = verdict(
            r#"
            struct tree { tree *left; tree *right; int val; };
            int T(tree *t) {
                if (t == null) { return 0; }
                else { return T(t->left) + T(t->right) + t->val; }
            }
        "#,
        );
        assert_eq!(v.scheme, Scheme::LocalKnowledge);
        assert_eq!(v.signals.cached_sites, 0);
        assert!(v.reasons[0].contains("no cached sites"), "{:?}", v.reasons);
    }

    #[test]
    fn straight_line_caching_stays_local() {
        // No control loop: everything caches, nothing migrates — zero
        // migration density, so coherence machinery has nothing to save.
        let v = verdict(
            r#"
            struct node { node *next; int val; };
            int f(node *n) {
                n->val = 1;
                return n->next->val;
            }
        "#,
        );
        assert_eq!(v.scheme, Scheme::LocalKnowledge);
        assert_eq!(v.signals.migrate_sites, 0);
        assert!(v.reasons[0].contains("sparse migration"), "{:?}", v.reasons);
    }

    #[test]
    fn mixed_serial_traversal_goes_global() {
        // A 95%-affinity list walk migrates on `a` while caching stores
        // through `b`: dense acquires, narrow write set.
        let v = verdict(
            r#"
            struct node { node *next @ 95; node *peer; int x; };
            void f(node *a) {
                while (a) {
                    node *b = a->peer;
                    b->x = 1;
                    a = a->next;
                }
            }
        "#,
        );
        assert_eq!(v.scheme, Scheme::GlobalKnowledge);
        assert!(v.signals.migration_density() >= SPARSE_MIGRATION);
        assert!(v.signals.write_set < WIDE_WRITE_SET);
        assert!(v.reasons[0].contains("dense migration"), "{:?}", v.reasons);
    }

    #[test]
    fn shared_root_fan_out_goes_bilateral() {
        // Figure 5's bottleneck shape: futures all traversing one tree
        // root. Pass 2 demotes the inner loop; the scheme pass reads the
        // same flag as sharing fan-out. The parallel walk itself still
        // migrates on `l`, so migration stays dense.
        let v = verdict(
            r#"
            struct list { list *next @ 95; };
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
        assert_eq!(v.scheme, Scheme::Bilateral);
        assert!(v.signals.shared_roots > 0);
        assert!(
            v.reasons[0].contains("shared structure root"),
            "{:?}",
            v.reasons
        );
    }

    #[test]
    fn racy_program_pins_the_baseline() {
        // Same fan-out shape but the futures race on `t->v`: racecheck
        // findings preempt every performance rule.
        let v = verdict(
            r#"
            struct list { list *next @ 95; };
            struct tree { tree *left; tree *right; int v; };
            void Traverse(tree *t) {
                if (t == null) { return; }
                else { t->v = 1; Traverse(t->left); Traverse(t->right); }
            }
            void WalkAndTraverse(list *l, tree *t) {
                while (l) {
                    futurecall Traverse(t);
                    l = l->next;
                }
            }
        "#,
        );
        assert_eq!(v.scheme, Scheme::LocalKnowledge);
        assert!(v.signals.race_findings > 0);
        assert!(v.reasons[0].contains("race finding"), "{:?}", v.reasons);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let src = r#"
            struct node { node *next @ 95; int x; };
            void f(node *a) { while (a) { a = a->next; } }
        "#;
        let a = verdict(src).render();
        let b = verdict(src).render();
        assert_eq!(a, b);
        assert!(a.starts_with("signals: "), "{a}");
        assert!(a.contains("\nscheme: "), "{a}");
        assert!(a.contains("\n  - "), "{a}");
    }

    #[test]
    fn signals_count_the_write_set_distinctly() {
        // Two stores through the same cached field count once; a second
        // field makes two.
        let v = verdict(
            r#"
            struct node { node *next @ 95; node *peer; int x; int y; };
            void f(node *a) {
                while (a) {
                    node *b = a->peer;
                    b->x = 1;
                    b->x = 2;
                    b->y = 3;
                    a = a->next;
                }
            }
        "#,
        );
        assert_eq!(v.signals.write_set, 2);
    }
}
