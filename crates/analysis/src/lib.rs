//! The Olden compiler's mechanism-selection analysis (paper §4).
//!
//! This crate reproduces the compile-time side of the paper: given a
//! program in the restricted C subset (§2), decide **per pointer
//! dereference** whether to use computation migration or software caching.
//! The pipeline is the paper's three-step process:
//!
//! 1. **Path-affinities** (§4.1) — programmer hints on structure fields:
//!    the probability that a path along that field stays on-processor.
//!    Unannotated fields default to 70 %; hints may be wrong without
//!    affecting correctness (they only steer costs).
//! 2. **Update matrices** (§4.2) — per *control loop* (an iterative loop
//!    or the set of direct recursive calls of a function), a data-flow
//!    pass computes, for each pointer variable `s`, whether its value at
//!    the end of an iteration is a path from some variable `t`'s value at
//!    the start (`s' = t->F…`), and the affinity of that path. Diagonal
//!    entries identify **induction variables**. Join points average the
//!    affinities of updates present in both branches and omit updates
//!    present in only one; multiple recursive call sites combine as
//!    `1 − Π(1 − aᵢ)`; multi-field paths multiply affinities.
//! 3. **The heuristic** (§4.3) — pass 1 picks, per control loop, the
//!    induction variable with the strongest update and chooses migration
//!    for it when the affinity clears the 90 % threshold *or* the loop is
//!    parallelizable (contains futures); everything else caches. Loops
//!    with no induction variable inherit the parent's migration variable.
//!    Pass 2 forces caching where migration inside a parallel loop would
//!    serialize on a shared structure root (Figure 5's bottleneck).
//!
//! Programs are written in a small C-like DSL (see [`parser`]); the
//! examples from Figures 3–5 parse verbatim up to surface syntax. The
//! output is a [`heuristic::Selection`] mapping each control loop and
//! variable to a [`Mech`], resolved per dereference site of the CFG
//! lowering into a [`MechTable`] that the optimizer, the executable IR
//! and the benchmark crate all read.

pub mod ast;
pub mod cfg;
pub mod cost;
pub mod dataflow;
pub mod diag;
pub mod gen;
pub mod heuristic;
pub mod ir;
pub mod lower;
pub mod opt;
pub mod parser;
pub mod racecheck;
pub mod scheme;
pub mod typeck;
pub mod update;
pub mod verdicts;
pub mod verify;

pub use ast::{Expr, FieldDef, FuncDef, Program, Stmt, StructDef, TypeAnn};
pub use cfg::{loop_key, lower_program, Cfg, ControlLoop, LoopId, LoopKind};
pub use cost::{loop_keys, predict, Prediction};
pub use dataflow::{solve, Analysis, Direction, Solution};
pub use diag::{Diagnostic, Severity, Span};
pub use gen::{gen_program, gen_source, render, strip_spans};
pub use heuristic::{select, LoopChoice, Selection};
pub use ir::{IrBlock, IrField, IrFunc, IrProgram, IrSite, IrStruct, IrTy};
pub use lower::{compile, lower_ir};
pub use opt::{optimize, optimize_src, OptReport, SiteReport, TouchKind, TouchReport, Verdict};
pub use parser::{parse, ParseError};
pub use racecheck::racecheck;
pub use scheme::{select_scheme, select_scheme_src, Scheme, SchemeSignals, SchemeVerdict};
pub use typeck::{typecheck, typecheck_src};
pub use update::{update_matrix, UpdateMatrix};
pub use verdicts::{mech_table, MechTable, SiteVerdict};
pub use verify::{shrink, source_fails, verify_seed, verify_source, Coverage, Failure};

/// Default path-affinity for unannotated pointer fields (§4.3: 70 %).
pub const DEFAULT_AFFINITY: f64 = 0.70;

/// Migration threshold on the selected induction variable's update
/// affinity (§4.3: 90 %; the break-even at the 7× cost ratio is ≈ 86 %).
pub const MIGRATION_THRESHOLD: f64 = 0.90;

/// The mechanism the heuristic assigns to a dereference site.
///
/// Mirrors the runtime's `Mechanism`; kept separate so the compiler crate
/// has no dependency on the machine layers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mech {
    /// Move the thread to the data.
    Migrate,
    /// Move the data's cache line to the thread.
    Cache,
}

impl Mech {
    pub fn name(self) -> &'static str {
        match self {
            Mech::Migrate => "migrate",
            Mech::Cache => "cache",
        }
    }
}
