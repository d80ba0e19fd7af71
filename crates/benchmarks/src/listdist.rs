//! **ListDist** — the Figure 2 micro-workload: one list, two
//! distributions, two mechanisms.
//!
//! A list of `N` elements evenly divided among `P` processors, traversed
//! once. With a **blocked** layout the traversal crosses a processor
//! boundary only `P − 1` times, so migration wins; with a **cyclic**
//! layout every `next` crosses, so a traversal costs `N − 1` migrations
//! but only `N(P−1)/P` remote accesses under caching. The closed forms in
//! §4 are asserted by this module's tests, and the `fig2` bench binary
//! prints the measured crossover.

use crate::{Descriptor, SizeClass};
use olden_gptr::{GPtr, ProcId};
use olden_runtime::{Backend, Mechanism};

/// Field offsets of a list node (2 words).
pub const F_NEXT: usize = 0;
pub const F_VAL: usize = 1;
const NODE_WORDS: usize = 2;

/// Cycles of local computation per visited element.
const W_VISIT: u64 = 40;

/// How list elements map to processors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Distribution {
    /// Element `i` lives on processor `i * P / N` (contiguous runs).
    Blocked,
    /// Element `i` lives on processor `i mod P`.
    Cyclic,
}

/// The list-traversal kernel in the analysis DSL. At the default 70 %
/// affinity the heuristic picks caching; Figure 2's blocked layout
/// corresponds to an affinity of `1 − (P−1)/(N−1)` ≈ 99 %+, for which it
/// picks migration — exactly the §4 discussion.
pub const DSL_DEFAULT: &str = r#"
    struct list { list *next; int val; };
    int Walk(list *l) {
        int sum = 0;
        while (l != null) {
            sum = sum + l->val;
            l = l->next;
        }
        return sum;
    }
"#;

/// Same kernel with a blocked-layout affinity annotation (99 %).
pub const DSL_BLOCKED: &str = r#"
    struct list { list *next @ 99; int val; };
    int Walk(list *l) {
        int sum = 0;
        while (l != null) {
            sum = sum + l->val;
            l = l->next;
        }
        return sum;
    }
"#;

/// Number of elements for each size class.
pub fn elements(size: SizeClass) -> usize {
    match size {
        SizeClass::Tiny => 64,
        SizeClass::Default => 4096,
        SizeClass::Paper => 32768,
    }
}

/// Build the list (uncharged), returning its head.
pub fn build<B: Backend>(ctx: &mut B, n: usize, dist: Distribution) -> GPtr {
    let p = ctx.nprocs();
    ctx.uncharged(|ctx| {
        let mut head = GPtr::NULL;
        // Build back to front so each node links to the next.
        for i in (0..n).rev() {
            let proc = match dist {
                Distribution::Blocked => i * p / n,
                Distribution::Cyclic => i % p,
            } as ProcId;
            let node = ctx.alloc(proc, NODE_WORDS);
            ctx.write(node, F_NEXT, head, Mechanism::Migrate);
            ctx.write(node, F_VAL, (i as i64) + 1, Mechanism::Migrate);
            head = node;
        }
        head
    })
}

/// Traverse the list with the given mechanism, summing values.
pub fn walk<B: Backend>(ctx: &mut B, head: GPtr, mech: Mechanism) -> i64 {
    ctx.call(|ctx| {
        let mut sum = 0i64;
        let mut l = head;
        while !l.is_null() {
            ctx.work(W_VISIT);
            sum += ctx.read_i64(l, F_VAL, mech);
            l = ctx.read_ptr(l, F_NEXT, mech);
        }
        sum
    })
}

/// Registry entry: the default run uses the paper's default choice for a
/// list traversal (caching) on a blocked layout.
pub fn run<B: Backend>(ctx: &mut B, size: SizeClass) -> u64 {
    let n = elements(size);
    let head = build(ctx, n, Distribution::Blocked);
    walk(ctx, head, Mechanism::Cache) as u64
}

/// Serial reference: `Σ i+1 = n(n+1)/2`.
pub fn reference(size: SizeClass) -> u64 {
    let n = elements(size) as u64;
    n * (n + 1) / 2
}

/// Optimizer-proven redundant check sites of `DSL` (see `Descriptor::elided_sites`).
pub const ELIDED_SITES: &[&str] = &[];

/// Heuristic verdicts for every dereference site of `DSL_DEFAULT` (see
/// `Descriptor::selected_mechanisms`).
pub const SELECTED_MECHANISMS: &[&str] =
    &["Walk 6:25 l->val -> cache", "Walk 7:17 l->next -> cache"];

/// Principal traversal variables and the mechanisms the kernel
/// hard-codes for them (see `Descriptor::kernel_mechs`).
pub const KERNEL_MECHS: &[(&str, &str, Mechanism)] = &[("Walk", "l", Mechanism::Cache)];

/// Static trip counts for the cost model: one visit per element.
pub fn trips(size: SizeClass, _procs: usize) -> Vec<(&'static str, u64)> {
    vec![("Walk#0", elements(size) as u64)]
}

pub const DESCRIPTOR: Descriptor = Descriptor {
    name: "ListDist",
    description: "Figure 2 list-distribution micro-workload",
    problem_size: "32K elements",
    choice: "-",
    whole_program: false,
    dsl: DSL_DEFAULT,
    elided_sites: ELIDED_SITES,
    selected_mechanisms: SELECTED_MECHANISMS,
    kernel_mechs: KERNEL_MECHS,
    trips,
    bands: [(0.01, 2.0), (0.01, 2.0), (0.01, 2.0), (0.01, 2.0)],
    run,
    reference,
};

#[cfg(test)]
mod tests {
    use super::*;
    use olden_analysis::{parse, select, Mech};
    use olden_runtime::{run as run_sim, Config};

    const N: usize = 64;

    #[test]
    fn sum_correct_for_all_combinations() {
        for dist in [Distribution::Blocked, Distribution::Cyclic] {
            for mech in [Mechanism::Migrate, Mechanism::Cache] {
                let (sum, _) = run_sim(Config::olden(4), |ctx| {
                    let head = build(ctx, N, dist);
                    walk(ctx, head, mech)
                });
                assert_eq!(sum as u64, (N * (N + 1) / 2) as u64, "{dist:?}/{mech:?}");
            }
        }
    }

    #[test]
    fn blocked_migrate_crosses_p_minus_1_times() {
        let p = 4;
        let (_, rep) = run_sim(Config::olden(p), |ctx| {
            let head = build(ctx, N, Distribution::Blocked);
            walk(ctx, head, Mechanism::Migrate)
        });
        assert_eq!(rep.stats.migrations as usize, p - 1, "§4: P−1 migrations");
    }

    #[test]
    fn cyclic_migrate_crosses_every_link() {
        let p = 4;
        let (_, rep) = run_sim(Config::olden(p), |ctx| {
            let head = build(ctx, N, Distribution::Cyclic);
            walk(ctx, head, Mechanism::Migrate)
        });
        // §4: N−1 migrations (the val read keeps the thread on the node's
        // processor; only the next-hop crosses).
        assert_eq!(rep.stats.migrations as usize, N - 1);
    }

    #[test]
    fn cyclic_cache_remote_share_is_p_minus_1_over_p() {
        let p = 4;
        let (_, rep) = run_sim(Config::olden(p), |ctx| {
            let head = build(ctx, N, Distribution::Cyclic);
            walk(ctx, head, Mechanism::Cache)
        });
        let remote = rep.cache.remote_reads;
        let total = rep.cache.cacheable_reads;
        // §4: N(P−1)/P remote accesses.
        let expect = (N * 2) * (p - 1) / p; // two reads per node
        assert_eq!(total as usize, N * 2);
        assert_eq!(remote as usize, expect);
        assert_eq!(rep.stats.migrations, 0);
    }

    #[test]
    fn crossover_matches_figure2() {
        // Blocked: migration beats caching. Cyclic: caching beats
        // migration. (Makespans on 4 processors.) The list must be long
        // enough for migration's fixed per-crossing cost to amortize
        // against line-granularity caching.
        let p = 4;
        let n = 512;
        let time = |dist, mech| {
            let (_, rep) = run_sim(Config::olden(p), |ctx| {
                let head = build(ctx, n, dist);
                walk(ctx, head, mech)
            });
            rep.makespan
        };
        let bm = time(Distribution::Blocked, Mechanism::Migrate);
        let bc = time(Distribution::Blocked, Mechanism::Cache);
        let cm = time(Distribution::Cyclic, Mechanism::Migrate);
        let cc = time(Distribution::Cyclic, Mechanism::Cache);
        assert!(bm < bc, "blocked: migrate {bm} should beat cache {bc}");
        assert!(cc < cm, "cyclic: cache {cc} should beat migrate {cm}");
    }

    #[test]
    fn heuristic_default_caches_blocked_hint_migrates() {
        let prog = parse(DSL_DEFAULT).unwrap();
        let sel = select(&prog);
        assert_eq!(sel.mech("Walk", "l"), Mech::Cache, "70% default");
        let prog = parse(DSL_BLOCKED).unwrap();
        let sel = select(&prog);
        assert_eq!(sel.mech("Walk", "l"), Mech::Migrate, "99% blocked hint");
    }

    #[test]
    fn registry_run_matches_reference() {
        let (v, _) = run_sim(Config::olden(4), |ctx| run(ctx, SizeClass::Tiny));
        assert_eq!(v, reference(SizeClass::Tiny));
    }
}
