//! The executable IR: flattened basic blocks over gptr loads and stores.
//!
//! The CFG lowering ([`crate::cfg`]) emits each block's instructions and
//! terminator in the same walk that records its events and check sites;
//! [`crate::lower::lower_ir`] assembles them, with the verdicts, into this
//! form; `olden_runtime::interp` executes it against any `Backend`. The
//! IR is deliberately tiny — a register machine whose only memory
//! operations are the DSL's pointer-path loads and stores, plus
//! `futurecall`/`touch` — because the whole point is that every heap
//! access goes through a *check site* carrying the live olden-select
//! verdict for that dereference.
//!
//! Two invariants tie the IR to the analysis stack:
//!
//! 1. **Site identity.** `IrFunc::sites` lists one [`IrSite`] per pointer
//!    check, *in evaluation order*, and each carries the index of its
//!    verdict in [`crate::MechTable::sites`] — the verdict resolved for
//!    the same [`crate::cfg::Site`] the optimizer reasons about: the
//!    instruction and the site are emitted together, so the `k`-th site of
//!    a function is its `k`-th [`crate::cfg::Cfg::sites`] entry.
//! 2. **Trip identity.** A `while` body's entry block carries the slot
//!    of its control loop's [`crate::cfg::loop_key`], and recursive
//!    functions carry their recursion loop's, so an interpreter can
//!    measure the per-loop trip counts the static cost model
//!    ([`crate::predict`]) takes as input — making predictions and
//!    executions directly comparable.

use crate::Mech;

/// A virtual register (per-function, dynamically typed at run time).
pub type Reg = usize;

/// A basic-block index within an [`IrFunc`].
pub type BlockId = usize;

/// Static type of a function parameter: what the heap builder must
/// construct for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IrTy {
    /// An integer (also the fallback for `Unknown`-typed parameters).
    Int,
    /// A pointer to instances of `structs[idx]`.
    Ptr(usize),
}

/// One field of a lowered structure.
#[derive(Clone, Debug)]
pub struct IrField {
    pub name: String,
    /// Word offset within the object. Field names are global (as in the
    /// paper's examples), so offsets are assigned program-wide: two
    /// structs sharing a field name share its slot.
    pub word: usize,
    pub is_pointer: bool,
    /// Index of the pointed-to struct, when declared and resolvable.
    pub target: Option<usize>,
    /// Path-affinity the heap builder should realize for this edge.
    pub affinity: f64,
}

/// A lowered structure: its heap footprint and fields.
#[derive(Clone, Debug)]
pub struct IrStruct {
    pub name: String,
    /// Allocation size in words (max field slot + 1).
    pub words: usize,
    pub fields: Vec<IrField>,
}

/// One pointer-check site: a single arrow of a `base->f1->…->fk` path.
#[derive(Clone, Debug)]
pub struct IrSite {
    /// Index into [`crate::MechTable::sites`] of the verdict this site
    /// executes under.
    pub verdict: usize,
    /// That verdict's mechanism.
    pub mech: Mech,
    /// Word offset of the accessed field.
    pub field: usize,
    /// True when the field is pointer-typed (the loaded word is a gptr).
    pub loads_ptr: bool,
    /// True when this site is the final arrow of a store.
    pub is_store: bool,
}

/// Binary operators (the parser's full set; `&&`/`||` are strict, like
/// the CFG lowering, which evaluates both operands unconditionally).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn parse(op: &str) -> Option<BinOp> {
        Some(match op {
            "+" => BinOp::Add,
            "-" => BinOp::Sub,
            "*" => BinOp::Mul,
            "/" => BinOp::Div,
            "%" => BinOp::Rem,
            "==" => BinOp::Eq,
            "!=" => BinOp::Ne,
            "<" => BinOp::Lt,
            ">" => BinOp::Gt,
            "<=" => BinOp::Le,
            ">=" => BinOp::Ge,
            "&&" => BinOp::And,
            "||" => BinOp::Or,
            _ => return None,
        })
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

impl UnOp {
    pub fn parse(op: &str) -> Option<UnOp> {
        match op {
            "-" => Some(UnOp::Neg),
            "!" => Some(UnOp::Not),
            _ => None,
        }
    }
}

/// Instructions. `Load`/`Store` are the only heap operations; `site`
/// indexes the enclosing function's [`IrFunc::sites`].
#[derive(Clone, Debug)]
pub enum Inst {
    /// `dst = n`.
    ConstInt { dst: Reg, val: i64 },
    /// `dst = null`.
    ConstNull { dst: Reg },
    /// `dst = src`.
    Copy { dst: Reg, src: Reg },
    /// `dst = op arg`.
    Un { dst: Reg, op: UnOp, arg: Reg },
    /// `dst = lhs op rhs`.
    Bin {
        dst: Reg,
        op: BinOp,
        lhs: Reg,
        rhs: Reg,
    },
    /// `dst = base->field` through check site `site`. A null (or
    /// non-pointer) base yields the field type's zero without touching
    /// the heap — the guard the DSL's `if (p == null)` idiom relies on.
    Load { dst: Reg, base: Reg, site: usize },
    /// `base->field = src` through check site `site`; a null base is a
    /// no-op.
    Store { base: Reg, src: Reg, site: usize },
    /// `dst = funcs[func](args…)` under a procedure-call boundary.
    Call {
        dst: Reg,
        func: usize,
        args: Vec<Reg>,
    },
    /// `dst = futurecall funcs[func](args…)`: the pending future waits
    /// in the frame's future slot `slot` (below [`IrFunc::nslots`]) until
    /// a `Touch` of `dst` claims it. Every `FutureCall` writing one
    /// register shares that register's slot.
    FutureCall {
        dst: Reg,
        slot: usize,
        func: usize,
        args: Vec<Reg>,
    },
    /// A call to an undefined (extern) function: a deterministic pure
    /// function of the callee name, pre-hashed at lowering into `hash`
    /// (FNV-1a), and the argument values.
    ExternCall { dst: Reg, hash: u64, args: Vec<Reg> },
    /// `touch reg`: claim the future pending in `slot`, the slot of the
    /// `FutureCall`s writing `reg`. A no-op when `slot` is `None` (no
    /// `FutureCall` writes `reg`) or holds no future.
    Touch { reg: Reg, slot: Option<usize> },
}

/// Block terminators: a block's outgoing edges, in successor order.
#[derive(Clone, Debug)]
pub enum Term {
    Jump(BlockId),
    Branch {
        cond: Reg,
        then_: BlockId,
        else_: BlockId,
    },
    Ret(Option<Reg>),
}

impl Default for Term {
    /// A block no walk has terminated returns nothing.
    fn default() -> Term {
        Term::Ret(None)
    }
}

impl Term {
    /// The blocks control can pass to, in order.
    pub fn succs(&self) -> Vec<BlockId> {
        match *self {
            Term::Jump(to) => vec![to],
            Term::Branch { then_, else_, .. } => vec![then_, else_],
            Term::Ret(_) => Vec::new(),
        }
    }
}

/// One basic block.
#[derive(Clone, Debug)]
pub struct IrBlock {
    pub insts: Vec<Inst>,
    pub term: Term,
    /// Set on the body-entry block of a `while`: index into
    /// [`IrProgram::trip_keys`] to bump once per iteration.
    pub trip_slot: Option<usize>,
}

/// A lowered function.
#[derive(Clone, Debug)]
pub struct IrFunc {
    pub name: String,
    /// Parameter types (the heap builder constructs one value each);
    /// parameters occupy registers `0..params.len()`.
    pub params: Vec<IrTy>,
    /// True when the declared return type is non-void (the checksum
    /// folds the value in).
    pub returns_value: bool,
    pub nregs: usize,
    /// Future-handle slots a frame needs: one per register some
    /// `FutureCall` writes.
    pub nslots: usize,
    /// Entry is block 0.
    pub blocks: Vec<IrBlock>,
    /// Check sites in evaluation order, each pointing at its verdict.
    pub sites: Vec<IrSite>,
    /// Index into [`IrProgram::trip_keys`] of this function's recursion
    /// control loop, bumped once per invocation (present iff the
    /// function is directly recursive).
    pub rec_slot: Option<usize>,
}

/// A whole lowered program.
#[derive(Clone, Debug)]
pub struct IrProgram {
    pub structs: Vec<IrStruct>,
    pub funcs: Vec<IrFunc>,
    /// Every control-loop key ([`crate::cfg::loop_key`]) in discovery
    /// order; trip counters are indexed by position.
    pub trip_keys: Vec<String>,
}

impl IrProgram {
    /// Index of the named function.
    pub fn func(&self, name: &str) -> Option<usize> {
        self.funcs.iter().position(|f| f.name == name)
    }

    /// Total check sites across all functions.
    pub fn site_count(&self) -> usize {
        self.funcs.iter().map(|f| f.sites.len()).sum()
    }
}
