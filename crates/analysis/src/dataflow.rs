//! A generic worklist solver over [`Cfg`]s.
//!
//! Passes describe themselves through the [`Analysis`] trait — a
//! direction, a lattice (top element + meet), a boundary fact for the
//! entry (forward) or the exit blocks (backward), and a monotone block
//! transfer function. The solver iterates to the greatest fixpoint under
//! the meet; *must* analyses use intersection-like meets with a
//! distinguished top, *may* analyses use union-like meets whose top is
//! the empty fact.

use crate::cfg::{Block, Cfg};

/// Propagation direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
}

/// One dataflow pass.
pub trait Analysis {
    /// The lattice element attached to each block boundary.
    type Fact: Clone + PartialEq;

    fn direction(&self) -> Direction;

    /// The fact at the graph boundary: the entry block's input (forward)
    /// or every exit block's input (backward).
    fn boundary(&self) -> Self::Fact;

    /// The optimistic initial value for interior block boundaries.
    fn top(&self) -> Self::Fact;

    /// Lattice meet, applied over all incoming edges.
    fn meet(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Monotone block transfer: fact at block input → fact at block
    /// output (input = start of block for forward, end for backward).
    fn transfer(&self, cfg: &Cfg, block: &Block, input: &Self::Fact) -> Self::Fact;
}

/// Converged facts per block.
pub struct Solution<F> {
    /// The transfer input of each block (block start for forward passes,
    /// block end for backward ones).
    pub input: Vec<F>,
    /// The transfer output of each block.
    pub output: Vec<F>,
    /// Transfer applications needed to converge (for the fixpoint tests).
    pub iterations: usize,
}

/// Iterate `analysis` over `cfg` to a fixpoint.
///
/// Panics if the pass fails to converge within `64 × |blocks|²` transfer
/// applications — only possible for a non-monotone transfer or an
/// infinite-height lattice, both programming errors in the pass.
pub fn solve<A: Analysis>(analysis: &A, cfg: &Cfg) -> Solution<A::Fact> {
    let n = cfg.blocks.len();
    let forward = analysis.direction() == Direction::Forward;
    fn sources(forward: bool, b: &Block) -> &[usize] {
        if forward {
            &b.preds
        } else {
            &b.succs
        }
    }
    fn dests(forward: bool, b: &Block) -> &[usize] {
        if forward {
            &b.succs
        } else {
            &b.preds
        }
    }
    let is_boundary = |b: &Block| sources(forward, b).is_empty() || (forward && b.id == 0);

    let mut input: Vec<A::Fact> = cfg.blocks.iter().map(|_| analysis.top()).collect();
    let mut output: Vec<A::Fact> = cfg.blocks.iter().map(|_| analysis.top()).collect();
    let mut on_list = vec![true; n];
    let mut worklist: Vec<usize> = if forward {
        (0..n).collect()
    } else {
        (0..n).rev().collect()
    };
    let mut iterations = 0usize;
    let budget = 64 * n * n + 64;
    while let Some(b) = worklist.pop() {
        on_list[b] = false;
        let block = &cfg.blocks[b];
        let mut inp = if is_boundary(block) {
            analysis.boundary()
        } else {
            analysis.top()
        };
        for &s in sources(forward, block) {
            inp = analysis.meet(&inp, &output[s]);
        }
        let out = analysis.transfer(cfg, block, &inp);
        iterations += 1;
        assert!(
            iterations <= budget,
            "dataflow failed to converge on {} ({} blocks)",
            cfg.func,
            n
        );
        input[b] = inp;
        if out != output[b] {
            output[b] = out;
            for &d in dests(forward, block) {
                if !on_list[d] {
                    on_list[d] = true;
                    worklist.push(d);
                }
            }
        }
    }
    Solution {
        input,
        output,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Block, Cfg};

    /// Hand-built graph with a cross-linked double cycle — the classic
    /// irreducible shape (two entries into a loop), which structured
    /// lowering can never produce but the solver must still converge on:
    ///
    /// ```text
    ///        0
    ///       / \
    ///      1   2
    ///      |\ /|
    ///      | X |
    ///      |/ \|
    ///      3   4      3 -> 4, 4 -> 3 (the irreducible cycle)
    ///       \ /
    ///        5
    /// ```
    fn torture_graph() -> Cfg {
        let edges: &[(usize, usize)] = &[
            (0, 1),
            (0, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (4, 3),
            (3, 5),
            (4, 5),
        ];
        let mut blocks: Vec<Block> = (0..6)
            .map(|id| Block {
                id,
                ..Block::default()
            })
            .collect();
        for &(a, b) in edges {
            blocks[a].succs.push(b);
            blocks[b].preds.push(a);
        }
        Cfg {
            func: "torture".into(),
            blocks,
            sites: Vec::new(),
            loops: Vec::new(),
            nregs: 0,
            nslots: 0,
        }
    }

    /// Gen/kill reaching-defs over bitsets: block b gens bit b; blocks 3
    /// and 4 additionally kill each other's bit, so facts keep flowing
    /// around the 3↔4 cycle until the fixpoint.
    struct Reach;
    impl Analysis for Reach {
        type Fact = u64;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self) -> u64 {
            0
        }
        fn top(&self) -> u64 {
            0
        }
        fn meet(&self, a: &u64, b: &u64) -> u64 {
            a | b
        }
        fn transfer(&self, _cfg: &Cfg, block: &Block, input: &u64) -> u64 {
            let kill = match block.id {
                3 => 1 << 4,
                4 => 1 << 3,
                _ => 0,
            };
            (input & !kill) | (1 << block.id)
        }
    }

    #[test]
    fn irreducible_torture_graph_reaches_fixpoint() {
        let cfg = torture_graph();
        let sol = solve(&Reach, &cfg);
        // Fixpoint: every block's equations hold exactly.
        for b in &cfg.blocks {
            let mut inp = 0;
            for &p in &b.preds {
                inp |= sol.output[p];
            }
            assert_eq!(sol.input[b.id], inp, "input equation, block {}", b.id);
            assert_eq!(
                sol.output[b.id],
                Reach.transfer(&cfg, b, &inp),
                "transfer equation, block {}",
                b.id
            );
        }
        // Defs 0, 1, 2 and both cycle defs reach the exit (neither kill
        // wins on all paths); the solver converged well under the budget.
        assert_eq!(sol.input[5] & 0b111, 0b111);
        assert!(sol.iterations <= 64 * 36 + 64);
        assert!(sol.iterations >= cfg.blocks.len());
    }

    /// A must-style (intersection) pass on the same graph, with an
    /// explicit top: available-expressions-like bits gen'd at 1 and 2.
    struct Avail;
    impl Analysis for Avail {
        type Fact = Option<u64>;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self) -> Option<u64> {
            Some(0)
        }
        fn top(&self) -> Option<u64> {
            None
        }
        fn meet(&self, a: &Option<u64>, b: &Option<u64>) -> Option<u64> {
            match (a, b) {
                (None, x) | (x, None) => *x,
                (Some(a), Some(b)) => Some(a & b),
            }
        }
        fn transfer(&self, _cfg: &Cfg, block: &Block, input: &Option<u64>) -> Option<u64> {
            let gen = match block.id {
                1 => 0b01,
                2 => 0b10,
                _ => 0,
            };
            input.map(|i| i | gen)
        }
    }

    #[test]
    fn must_meet_keeps_only_all_paths_facts() {
        let cfg = torture_graph();
        let sol = solve(&Avail, &cfg);
        // Bit 0 holds only through block 1, bit 1 only through block 2:
        // nothing is available on *every* path into the cycle or exit.
        assert_eq!(sol.input[3], Some(0));
        assert_eq!(sol.input[4], Some(0));
        assert_eq!(sol.input[5], Some(0));
        // But along the straight edges the gen survives.
        assert_eq!(sol.output[1], Some(0b01));
        assert_eq!(sol.output[2], Some(0b10));
    }

    /// Backward may-pass: liveness-style, boundary at the exit block.
    struct Live;
    impl Analysis for Live {
        type Fact = u64;
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn boundary(&self) -> u64 {
            1 << 5
        }
        fn top(&self) -> u64 {
            0
        }
        fn meet(&self, a: &u64, b: &u64) -> u64 {
            a | b
        }
        fn transfer(&self, _cfg: &Cfg, block: &Block, input: &u64) -> u64 {
            input | (1 << block.id)
        }
    }

    #[test]
    fn backward_pass_propagates_from_exits() {
        let cfg = torture_graph();
        let sol = solve(&Live, &cfg);
        // The exit's boundary bit reaches every block against the edges.
        for b in 0..cfg.blocks.len() {
            assert_eq!(sol.output[b] & (1 << 5), 1 << 5, "block {b}");
        }
        // And the entry accumulates everything on some path below it.
        assert_eq!(sol.output[0], 0b111111);
    }
}
