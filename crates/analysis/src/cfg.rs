//! Basic-block control-flow graphs lowered from the DSL AST — and the
//! one place evaluation order is decided: check sites, control loops and
//! the executable IR's instructions are all born in this walk.
//!
//! The AST's structured statements lower to a small CFG whose blocks
//! carry a linear **event** stream — one event per variable use,
//! pointer-check site, assignment, store, call, touch, or return, in
//! evaluation order — and, emitted beside each event, the block's
//! [`crate::ir`] instructions and its terminator. An edge is written once,
//! by the terminator; `succs` and `preds` are derived from it. Spans
//! survive lowering so every verdict points back at source.
//!
//! The order: a store's source expression before its destination path;
//! `if` conditions before the branches; `while` conditions in the loop
//! head, re-evaluated per iteration; call arguments left to right, then
//! the call; binary operands left before right.
//!
//! A pointer path `base->f1->…->fk` is `k` check sites: site `j` checks
//! the object reached by `base->f1->…->fj-1` before loading (or, for the
//! final step of a store, writing) field `fj`. This mirrors the runtime,
//! where each arrow is one `read_ptr`/`write` with its own mechanism
//! test; the `Load`/`Store` emitted with site `j` names it by its index.
//! Each [`Site`] also records its innermost enclosing control loop
//! (§4.2), so [`Cfg::sites`] is the site stream every later pass indexes:
//! [`crate::verdicts::mech_table`] resolves one verdict per site, the
//! optimizer ([`crate::opt`]) reasons under that verdict's mechanism, and
//! [`crate::lower::lower_ir`] pairs each executable site with it.
//!
//! A *control loop* (§4.2) is a `while` loop or the set of a function's
//! direct recursive calls; a `while` nests inside enclosing `while`s and
//! the function's recursion loop. Mutual recursion is not modelled, as in
//! the paper's prototype. Lowering records each loop in [`Cfg::loops`],
//! the one list the selection, the cost model and the IR's trip slots
//! read.

use crate::ast::{contains_future, Expr, FuncDef, Program, Stmt};
use crate::diag::Span;
use crate::ir::{BinOp, Inst, Reg, Term, UnOp};
use std::collections::HashMap;
use std::sync::Arc;

/// Program-wide index of a control loop: its position in the
/// concatenation of every function's [`Cfg::loops`], as numbered by
/// [`lower_program`]. Parents always have smaller ids than their
/// children.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LoopId(pub usize);

/// What kind of control loop.
#[derive(Clone, Debug, PartialEq)]
pub enum LoopKind {
    /// An iterative `while` loop; the payload is a human-readable
    /// description of its condition for reporting.
    While { cond: String },
    /// The set of direct recursive calls of `func`.
    Recursion,
}

/// One control loop, with everything later passes need.
#[derive(Clone, Debug)]
pub struct ControlLoop {
    pub id: LoopId,
    /// Position among the function's loops (its [`Cfg::loops`] index).
    pub ord: usize,
    pub func: String,
    pub kind: LoopKind,
    /// Loop body: the `while` body, or the whole function body for a
    /// recursion loop.
    pub body: Vec<Stmt>,
    /// Innermost enclosing control loop, if any.
    pub parent: Option<LoopId>,
    /// Whether the loop is parallelizable — the Olden compiler "checks
    /// for the presence of futures" (§4.3).
    pub parallel: bool,
    /// Function parameters (used by update-matrix computation for
    /// recursion loops).
    pub params: Vec<String>,
}

impl ControlLoop {
    /// A loop of `func` over `body`, numbered (`id`, `ord`, and the
    /// `parent` given as a position in `func`'s loops) by [`lower_at`].
    fn new(func: &FuncDef, kind: LoopKind, body: &[Stmt], parent: Option<usize>) -> ControlLoop {
        ControlLoop {
            id: LoopId(0),
            ord: 0,
            func: func.name.clone(),
            kind,
            body: body.to_vec(),
            parent: parent.map(LoopId),
            parallel: contains_future(body),
            params: func.params.clone(),
        }
    }

    /// The loop's stable key, under which trip counts are given.
    pub fn key(&self) -> String {
        loop_key(&self.func, self.ord)
    }
}

/// Stable key of the `i`-th control loop of `func` (the recursion loop
/// first, then the `while`s pre-order): `"{func}#{i}"`, the name trip
/// counts are given under.
pub fn loop_key(func: &str, ordinal: usize) -> String {
    format!("{func}#{ordinal}")
}

fn cond_string(e: &Expr) -> String {
    match e {
        Expr::Var(v) => v.clone(),
        Expr::Path { base, fields, .. } => {
            let mut s = base.clone();
            for f in fields {
                s.push_str("->");
                s.push_str(f);
            }
            s
        }
        Expr::Binary { op, lhs, rhs } => {
            format!("{} {} {}", cond_string(lhs), op, cond_string(rhs))
        }
        Expr::Unary { op, arg } => format!("{}{}", op, cond_string(arg)),
        Expr::Null => "null".into(),
        Expr::Int(n) => n.to_string(),
        Expr::Call { func, .. } => format!("{func}(…)"),
    }
}

/// One pointer-check site: the test the compiler inserts before a
/// dereference (paper §3, "inserts the lookup before each cached deref" —
/// or the residence test before a migrated one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Site {
    /// The pointer variable the path starts from.
    pub base: String,
    /// Fields navigated before the accessed one (empty for `base->f`).
    pub path: Vec<String>,
    /// The field this site accesses.
    pub field: String,
    /// Source location of the dereference.
    pub span: Span,
    /// True when the access is the final step of a store.
    pub is_store: bool,
    /// The innermost enclosing control loop, as an index into
    /// [`Cfg::loops`].
    pub loop_ord: Option<usize>,
}

impl Site {
    /// Render as `base->f1->…->field`.
    pub fn render(&self) -> String {
        let mut s = self.base.clone();
        for f in &self.path {
            s.push_str("->");
            s.push_str(f);
        }
        s.push_str("->");
        s.push_str(&self.field);
        s
    }
}

/// One step of a block's event stream, in evaluation order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A check site fires (index into [`Cfg::sites`]).
    Check(usize),
    /// A variable's value is read.
    Use { var: String },
    /// A variable is (re)assigned. `future_of` names the callee when the
    /// right-hand side is a `futurecall`.
    Assign {
        var: String,
        span: Span,
        future_of: Option<String>,
    },
    /// A store through a pointer path writes `field` (the address
    /// computation's checks precede this event).
    Store { field: String, span: Span },
    /// A call (plain or `futurecall`) to `func`.
    Call {
        func: String,
        future: bool,
        span: Span,
    },
    /// `touch var;` — join with the future bound to `var`.
    Touch { var: String, span: Span },
    /// `return;` — terminates the block.
    Return,
}

/// A basic block.
#[derive(Clone, Debug, Default)]
pub struct Block {
    pub id: usize,
    pub events: Vec<Event>,
    /// The block's executable instructions, emitted beside its events.
    pub insts: Vec<Inst>,
    /// How control leaves the block: the one place an edge is written.
    pub term: Term,
    /// `term`'s targets, in its order.
    pub succs: Vec<usize>,
    /// The blocks whose `term` targets this one, by block index.
    pub preds: Vec<usize>,
    /// True for `while` condition blocks — the only legal backedge
    /// targets.
    pub loop_head: bool,
    /// Set on a `while` body's entry block: the loop's index in
    /// [`Cfg::loops`], whose trips the block counts.
    pub trip: Option<usize>,
    /// Pre-order indices of the AST statements whose events start in this
    /// block (used by the well-formedness checks).
    pub stmts: Vec<usize>,
}

/// A function's control-flow graph. Block 0 is the entry.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub func: String,
    pub blocks: Vec<Block>,
    pub sites: Vec<Site>,
    /// The function's control loops: the recursion loop first when the
    /// function calls itself directly (it encloses the whole body), then
    /// one per `while`, pre-order. Shared with the selection's
    /// [`crate::LoopChoice`]s, so selecting copies no loop bodies.
    pub loops: Vec<Arc<ControlLoop>>,
    /// Registers a frame needs; the parameters hold `0..params`.
    pub nregs: usize,
    /// Future slots a frame needs: one per register a `FutureCall` writes.
    pub nslots: usize,
}

struct Builder<'a> {
    func: &'a FuncDef,
    /// The program's functions by name: a call to one is a `Call`, to
    /// any other name an `ExternCall`.
    funcs: &'a HashMap<&'a str, usize>,
    blocks: Vec<Block>,
    sites: Vec<Site>,
    cur: usize,
    next_stmt: usize,
    /// `while` loops seen so far, and the innermost one being lowered.
    /// Until [`lower_at`] numbers them, parents count `while`s only.
    loops: Vec<ControlLoop>,
    cur_while: Option<usize>,
    /// Whether the function calls itself directly.
    recursive: bool,
    /// Each variable's register, and the future slot of each register a
    /// `FutureCall` writes.
    env: HashMap<String, Reg>,
    nregs: usize,
    future_slots: HashMap<Reg, usize>,
}

impl Builder<'_> {
    fn new_block(&mut self) -> usize {
        let id = self.blocks.len();
        self.blocks.push(Block {
            id,
            ..Block::default()
        });
        id
    }

    fn emit(&mut self, ev: Event) {
        let cur = self.cur;
        self.blocks[cur].events.push(ev);
    }

    fn inst(&mut self, inst: Inst) {
        let cur = self.cur;
        self.blocks[cur].insts.push(inst);
    }

    fn fresh(&mut self) -> Reg {
        self.nregs += 1;
        self.nregs - 1
    }

    fn var(&mut self, name: &str) -> Reg {
        if let Some(&r) = self.env.get(name) {
            return r;
        }
        let r = self.fresh();
        self.env.insert(name.to_string(), r);
        r
    }

    /// Use `base`, then one check site and one load per arrow of
    /// `base->f1->…->fk`; for a store of `src` the last arrow writes
    /// instead. Returns the register the path loaded.
    fn path(&mut self, base: &str, fields: &[String], span: Span, src: Option<Reg>) -> Reg {
        self.emit(Event::Use {
            var: base.to_string(),
        });
        let mut cur = self.var(base);
        for j in 0..fields.len() {
            let site = self.sites.len();
            let is_store = src.is_some() && j == fields.len() - 1;
            self.sites.push(Site {
                base: base.to_string(),
                path: fields[..j].to_vec(),
                field: fields[j].clone(),
                span,
                is_store,
                // A `while` ordinal for now; `lower_at` makes it a loop one.
                loop_ord: self.cur_while,
            });
            self.emit(Event::Check(site));
            match src {
                Some(src) if is_store => self.inst(Inst::Store {
                    base: cur,
                    src,
                    site,
                }),
                _ => {
                    let dst = self.fresh();
                    self.inst(Inst::Load {
                        dst,
                        base: cur,
                        site,
                    });
                    cur = dst;
                }
            }
        }
        cur
    }

    /// A call's arguments left to right, then the call's event.
    fn call_args(&mut self, func: &str, args: &[Expr], future: bool, span: Span) -> Vec<Reg> {
        let regs = args.iter().map(|a| self.lower_expr(a)).collect();
        self.recursive |= func == self.func.name;
        self.emit(Event::Call {
            func: func.to_string(),
            future,
            span,
        });
        regs
    }

    /// `dst = futurecall funcs[func](args…)` in `dst`'s future slot.
    fn spawn(&mut self, dst: Reg, func: usize, args: Vec<Reg>) {
        let next = self.future_slots.len();
        let slot = *self.future_slots.entry(dst).or_insert(next);
        self.inst(Inst::FutureCall {
            dst,
            slot,
            func,
            args,
        });
    }

    /// `futurecall f(…)` of a program function as a whole statement: the
    /// future stays pending in `dst`'s register (a fresh one when it is
    /// spawned for effect) until a `touch` claims it. Lowers nothing and
    /// returns false for any other expression.
    fn spawn_stmt(&mut self, e: &Expr, dst: Option<&str>) -> bool {
        let Expr::Call {
            func,
            args,
            future: true,
            span,
        } = e
        else {
            return false;
        };
        let Some(&callee) = self.funcs.get(func.as_str()) else {
            return false;
        };
        let args = self.call_args(func, args, true, *span);
        let dst = match dst {
            Some(v) => self.var(v),
            None => self.fresh(),
        };
        self.spawn(dst, callee, args);
        true
    }

    /// Lower an expression into events and instructions in evaluation
    /// order (left to right, arguments before the call itself); returns
    /// the register holding its value.
    fn lower_expr(&mut self, e: &Expr) -> Reg {
        let (dst, inst) = match e {
            Expr::Var(v) => {
                self.emit(Event::Use { var: v.clone() });
                return self.var(v);
            }
            Expr::Path { base, fields, span } => return self.path(base, fields, *span, None),
            Expr::Int(n) => {
                let dst = self.fresh();
                (dst, Inst::ConstInt { dst, val: *n })
            }
            Expr::Null => {
                let dst = self.fresh();
                (dst, Inst::ConstNull { dst })
            }
            Expr::Call {
                func,
                args,
                future,
                span,
            } => {
                let args = self.call_args(func, args, *future, *span);
                let dst = self.fresh();
                match self.funcs.get(func.as_str()) {
                    // A future in expression position is claimed before
                    // its value is used (typeck enforces
                    // assignment-then-touch; this keeps stray shapes total).
                    Some(&func) if *future => {
                        self.spawn(dst, func, args);
                        (
                            dst,
                            Inst::Touch {
                                reg: dst,
                                slot: None,
                            },
                        )
                    }
                    Some(&func) => (dst, Inst::Call { dst, func, args }),
                    None => (
                        dst,
                        Inst::ExternCall {
                            dst,
                            hash: fnv1a(func),
                            args,
                        },
                    ),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lhs = self.lower_expr(lhs);
                let rhs = self.lower_expr(rhs);
                let op = BinOp::parse(op).expect("the parser's binary operators");
                let dst = self.fresh();
                (dst, Inst::Bin { dst, op, lhs, rhs })
            }
            Expr::Unary { op, arg } => {
                let arg = self.lower_expr(arg);
                let op = UnOp::parse(op).expect("the parser's unary operators");
                let dst = self.fresh();
                (dst, Inst::Un { dst, op, arg })
            }
        };
        self.inst(inst);
        dst
    }

    /// Lower a statement list into the current block, creating successor
    /// blocks as control flow demands. Returns whether control can fall
    /// through past the list's end.
    fn lower_stmts(&mut self, stmts: &[Stmt]) -> bool {
        let mut falls = true;
        for s in stmts {
            if !falls {
                // Dead code after a return: give it its own (unreachable)
                // block so the exactly-one-block invariant holds.
                self.cur = self.new_block();
                falls = true;
            }
            let idx = self.next_stmt;
            self.next_stmt += 1;
            let cur = self.cur;
            self.blocks[cur].stmts.push(idx);
            match s {
                Stmt::Assign { dst, src, span } => {
                    if !self.spawn_stmt(src, Some(dst)) {
                        let src = self.lower_expr(src);
                        let dst = self.var(dst);
                        self.inst(Inst::Copy { dst, src });
                    }
                    let future_of = match src {
                        Expr::Call {
                            func, future: true, ..
                        } => Some(func.clone()),
                        _ => None,
                    };
                    self.emit(Event::Assign {
                        var: dst.clone(),
                        span: *span,
                        future_of,
                    });
                }
                Stmt::Store {
                    base,
                    fields,
                    src,
                    span,
                } => {
                    let src = self.lower_expr(src);
                    self.path(base, fields, *span, Some(src));
                    self.emit(Event::Store {
                        field: fields.last().expect("store has a field").clone(),
                        span: *span,
                    });
                }
                Stmt::If { cond, then_, else_ } => {
                    let cond = self.lower_expr(cond);
                    let then_b = self.new_block();
                    let else_b = self.new_block();
                    self.blocks[cur].term = Term::Branch {
                        cond,
                        then_: then_b,
                        else_: else_b,
                    };
                    self.cur = then_b;
                    let ft_then = self.lower_stmts(then_);
                    let then_end = self.cur;
                    self.cur = else_b;
                    let ft_else = self.lower_stmts(else_);
                    let else_end = self.cur;
                    if ft_then || ft_else {
                        let merge = self.new_block();
                        for (ft, end) in [(ft_then, then_end), (ft_else, else_end)] {
                            if ft {
                                self.blocks[end].term = Term::Jump(merge);
                            }
                        }
                        self.cur = merge;
                    } else {
                        falls = false;
                    }
                }
                Stmt::While { cond, body } => {
                    // Numbered before its body, so nested loops come later
                    // (pre-order); the condition re-evaluates every
                    // iteration, so its sites belong to the loop.
                    let kind = LoopKind::While {
                        cond: cond_string(cond),
                    };
                    let lp = ControlLoop::new(self.func, kind, body, self.cur_while);
                    let outer = self.cur_while.replace(self.loops.len());
                    self.loops.push(lp);
                    let head = self.new_block();
                    self.blocks[head].loop_head = true;
                    self.blocks[cur].term = Term::Jump(head);
                    self.cur = head;
                    let cond = self.lower_expr(cond);
                    let body_b = self.new_block();
                    let exit_b = self.new_block();
                    self.blocks[head].term = Term::Branch {
                        cond,
                        then_: body_b,
                        else_: exit_b,
                    };
                    self.blocks[body_b].trip = self.cur_while;
                    self.cur = body_b;
                    if self.lower_stmts(body) {
                        let body_end = self.cur;
                        self.blocks[body_end].term = Term::Jump(head);
                    }
                    self.cur = exit_b;
                    self.cur_while = outer;
                }
                Stmt::ExprStmt(e) => {
                    // `futurecall f(…);` spawns and is never touched.
                    if !self.spawn_stmt(e, None) {
                        self.lower_expr(e);
                    }
                }
                Stmt::Touch { var, span } => {
                    self.emit(Event::Touch {
                        var: var.clone(),
                        span: *span,
                    });
                    let reg = self.var(var);
                    self.inst(Inst::Touch { reg, slot: None });
                }
                Stmt::Return(e) => {
                    let r = e.as_ref().map(|e| self.lower_expr(e));
                    self.emit(Event::Return);
                    self.blocks[cur].term = Term::Ret(r);
                    falls = false;
                }
            }
        }
        falls
    }
}

/// FNV-1a of an extern callee's name: the seed of its value hash.
fn fnv1a(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// Lower every function of a program, numbering control loops
/// program-wide: each function's loops follow the previous function's.
pub fn lower_program(prog: &Program) -> Vec<Cfg> {
    let funcs: HashMap<&str, usize> = prog
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let mut first = 0;
    prog.funcs
        .iter()
        .map(|f| {
            let cfg = lower_at(f, &funcs, first);
            first += cfg.loops.len();
            cfg
        })
        .collect()
}

/// Lower `func` with its first control loop numbered `first`.
fn lower_at(func: &FuncDef, funcs: &HashMap<&str, usize>, first: usize) -> Cfg {
    let mut b = Builder {
        func,
        funcs,
        blocks: Vec::new(),
        sites: Vec::new(),
        cur: 0,
        next_stmt: 0,
        loops: Vec::new(),
        cur_while: None,
        recursive: false,
        env: HashMap::new(),
        nregs: 0,
        future_slots: HashMap::new(),
    };
    b.new_block();
    for p in &func.params {
        let r = b.fresh();
        b.env.insert(p.clone(), r);
    }
    if b.lower_stmts(&func.body) {
        let cur = b.cur;
        b.blocks[cur].events.push(Event::Return);
        b.blocks[cur].term = Term::Ret(None);
    }
    // A touch can precede the futurecall it claims (across a loop's back
    // edge), so touches take their slots once every call is lowered.
    for inst in b.blocks.iter_mut().flat_map(|blk| &mut blk.insts) {
        if let Inst::Touch { reg, slot } = inst {
            *slot = b.future_slots.get(reg).copied();
        }
    }
    // A direct self-call makes the function a recursion loop: its first
    // loop, enclosing every site and `while` outside another `while`.
    if b.recursive {
        for s in &mut b.sites {
            s.loop_ord = Some(s.loop_ord.map_or(0, |w| w + 1));
        }
        for t in b.blocks.iter_mut().filter_map(|blk| blk.trip.as_mut()) {
            *t += 1;
        }
        for l in &mut b.loops {
            l.parent = Some(l.parent.map_or(LoopId(0), |p| LoopId(p.0 + 1)));
        }
        let rec = ControlLoop::new(func, LoopKind::Recursion, &func.body, None);
        b.loops.insert(0, rec);
    }
    for (k, l) in b.loops.iter_mut().enumerate() {
        l.id = LoopId(first + k);
        l.ord = k;
        if let Some(p) = &mut l.parent {
            p.0 += first;
        }
    }
    let mut cfg = Cfg {
        func: func.name.clone(),
        blocks: b.blocks,
        sites: b.sites,
        loops: b.loops.into_iter().map(Arc::new).collect(),
        nregs: b.nregs,
        nslots: b.future_slots.len(),
    };
    cfg.link();
    cfg.prune();
    cfg
}

impl Cfg {
    /// Reachability from the entry block.
    pub fn reachable(&self) -> Vec<bool> {
        self.reachable_from(vec![0])
    }

    fn reachable_from(&self, mut stack: Vec<usize>) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        for &b in &stack {
            seen[b] = true;
        }
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// DFS back edges `(from, to)`: edges whose target is on the current
    /// DFS stack. In a reducible CFG these are exactly the loop backedges.
    pub fn back_edges(&self) -> Vec<(usize, usize)> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; self.blocks.len()];
        let mut out = Vec::new();
        // Iterative DFS: (block, next-successor-index).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = Color::Grey;
        while let Some(&(b, i)) = stack.last() {
            if i < self.blocks[b].succs.len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let s = self.blocks[b].succs[i];
                match color[s] {
                    Color::Grey => out.push((b, s)),
                    Color::White => {
                        color[s] = Color::Grey;
                        stack.push((s, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[b] = Color::Black;
                stack.pop();
            }
        }
        out
    }

    /// Derive every block's `succs` and `preds` from the terminators.
    fn link(&mut self) {
        for b in &mut self.blocks {
            b.succs = b.term.succs();
            b.preds.clear();
        }
        for from in 0..self.blocks.len() {
            for k in 0..self.blocks[from].succs.len() {
                let to = self.blocks[from].succs[k];
                self.blocks[to].preds.push(from);
            }
        }
    }

    /// Drop unreachable blocks that carry no events and no statements
    /// (structural leftovers of lowering), renumbering the rest. An edge
    /// from dead code into a dropped block is cut: a branch keeps its
    /// other target as a jump, and a block left with no target returns.
    fn prune(&mut self) {
        let reach = self.reachable();
        let keep: Vec<bool> = self
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| reach[i] || !b.events.is_empty() || !b.stmts.is_empty())
            .collect();
        if keep.iter().all(|&k| k) {
            return;
        }
        let mut remap = vec![usize::MAX; self.blocks.len()];
        let mut next = 0;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = next;
                next += 1;
            }
        }
        let to = |t: usize| keep[t].then(|| remap[t]);
        let old = std::mem::take(&mut self.blocks);
        for (i, mut b) in old.into_iter().enumerate() {
            if !keep[i] {
                continue;
            }
            b.id = remap[i];
            b.term = match b.term {
                Term::Jump(t) => to(t).map_or(Term::Ret(None), Term::Jump),
                Term::Branch { cond, then_, else_ } => match (to(then_), to(else_)) {
                    (Some(then_), Some(else_)) => Term::Branch { cond, then_, else_ },
                    (Some(t), None) | (None, Some(t)) => Term::Jump(t),
                    (None, None) => Term::Ret(None),
                },
                ret => ret,
            };
            self.blocks.push(b);
        }
        self.link();
    }

    /// Structural invariants, checked against the source function:
    /// 1. every AST statement lands in exactly one block;
    /// 2. every block is reachable from the entry or from dead code: a
    ///    block no edge enters that holds statements (those after a
    ///    `return`, which pruning keeps);
    /// 3. DFS back edges target only loop-head blocks;
    /// 4. every edge is mirrored in its target's `preds`.
    pub fn check_well_formed(&self, func: &FuncDef) -> Result<(), String> {
        let mut count = 0usize;
        crate::ast::walk_stmts(&func.body, &mut |_| count += 1);
        let mut placed: Vec<usize> = self
            .blocks
            .iter()
            .flat_map(|b| b.stmts.iter().copied())
            .collect();
        placed.sort_unstable();
        let expect: Vec<usize> = (0..count).collect();
        if placed != expect {
            return Err(format!(
                "{}: {} statements, but blocks hold indices {:?}",
                self.func, count, placed
            ));
        }
        let roots = self
            .blocks
            .iter()
            .filter(|b| b.id == 0 || (b.preds.is_empty() && !b.stmts.is_empty()));
        let reach = self.reachable_from(roots.map(|b| b.id).collect());
        if let Some(b) = reach.iter().position(|&r| !r) {
            return Err(format!(
                "{}: block {} unreachable from the entry and from dead code",
                self.func, b
            ));
        }
        for (from, to) in self.back_edges() {
            if !self.blocks[to].loop_head {
                return Err(format!(
                    "{}: back edge {} -> {} targets a non-loop-head",
                    self.func, from, to
                ));
            }
        }
        for b in &self.blocks {
            for &s in &b.succs {
                if !self.blocks[s].preds.contains(&b.id) {
                    return Err(format!("{}: edge {} -> {s} not mirrored", self.func, b.id));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cfgs(src: &str) -> Vec<(FuncDef, Cfg)> {
        let prog = parse(src).unwrap();
        prog.funcs
            .iter()
            .cloned()
            .zip(lower_program(&prog))
            .collect()
    }

    const TORTURE_SRC: &str = r#"
        struct tree { tree *left; tree *right; int val; };
        int Mixed(tree *t, int n) {
            int acc = 0;
            while (t != null) {
                if (t->val < n) {
                    acc = acc + t->val;
                    t = t->left;
                } else {
                    while (n > 0) {
                        n = n - 1;
                    }
                    t = t->right;
                }
            }
            if (acc > 100) { return acc; } else { return 0; }
        }
        int Early(tree *t) {
            if (t == null) { return 0; }
            int v = futurecall Early(t->left);
            touch v;
            return v + t->val;
        }
    "#;

    #[test]
    fn every_statement_in_exactly_one_block() {
        for (f, cfg) in cfgs(TORTURE_SRC) {
            cfg.check_well_formed(&f).unwrap();
        }
    }

    #[test]
    fn all_blocks_reachable_and_backedges_at_loop_heads() {
        for (f, cfg) in cfgs(TORTURE_SRC) {
            cfg.check_well_formed(&f).unwrap();
            // Mixed has two loops: exactly two back edges, both to heads.
            if f.name == "Mixed" {
                let be = cfg.back_edges();
                assert_eq!(be.len(), 2, "two while loops");
                for (_, to) in be {
                    assert!(cfg.blocks[to].loop_head);
                }
            }
        }
    }

    #[test]
    fn both_branches_returning_leaves_no_dangling_merge() {
        let (f, cfg) = cfgs(
            r#"
            struct t { t *n; };
            int f(t *p) {
                if (p == null) { return 0; } else { return 1; }
            }
        "#,
        )
        .pop()
        .unwrap();
        cfg.check_well_formed(&f).unwrap();
        // No block falls through past the if: every reachable leaf block
        // ends in Return.
        for b in &cfg.blocks {
            if b.succs.is_empty() {
                assert_eq!(b.events.last(), Some(&Event::Return));
            }
        }
    }

    #[test]
    fn path_lowering_emits_one_site_per_arrow() {
        let (_, cfg) = cfgs(
            r#"
            struct t { t *n; int v; };
            int f(t *p) { return p->n->n->v; }
        "#,
        )
        .pop()
        .unwrap();
        assert_eq!(cfg.sites.len(), 3);
        assert_eq!(cfg.sites[0].path.len(), 0);
        assert_eq!(cfg.sites[1].path, vec!["n".to_string()]);
        assert_eq!(cfg.sites[2].path, vec!["n".to_string(), "n".to_string()]);
        assert_eq!(cfg.sites[2].field, "v");
        assert_eq!(cfg.sites[0].render(), "p->n");
        assert_eq!(cfg.sites[2].render(), "p->n->n->v");
        assert!(cfg.sites.iter().all(|s| s.span.is_real()));
    }

    #[test]
    fn sites_record_their_innermost_control_loop() {
        let (_, cfg) = cfgs(
            r#"
            struct t { t *n; int v; };
            int f(t *p) {
                int a = p->v;
                while (p->n != null) {
                    while (a > 0) { a = a - p->v; }
                    p = p->n;
                }
                return f(p->n);
            }
        "#,
        )
        .pop()
        .unwrap();
        // Recursion is loop 0 and encloses the straight-line sites; the
        // outer while (with its condition) is 1, the inner one 2.
        let loops: Vec<(String, Option<usize>)> =
            cfg.sites.iter().map(|s| (s.render(), s.loop_ord)).collect();
        let want = [
            ("p->v", 0),
            ("p->n", 1),
            ("p->v", 2),
            ("p->n", 1),
            ("p->n", 0),
        ];
        let want: Vec<(String, Option<usize>)> = want
            .iter()
            .map(|&(s, l)| (s.to_string(), Some(l)))
            .collect();
        assert_eq!(loops, want);
        assert_eq!(cfg.loops.len(), 3);
        let (_, flat) = cfgs("struct t { t *n; }; int g(t *p) { return h(p->n); }")
            .pop()
            .unwrap();
        assert_eq!((flat.sites[0].loop_ord, flat.loops.len()), (None, 0));
    }

    /// Every control loop of a program, numbered program-wide.
    fn loops_of(src: &str) -> Vec<Arc<ControlLoop>> {
        let prog = parse(src).unwrap();
        lower_program(&prog)
            .into_iter()
            .flat_map(|c| c.loops)
            .collect()
    }

    #[test]
    fn finds_while_loops_with_nesting() {
        let loops = loops_of(
            r#"
            void f(node *a) {
                while (a) {
                    node *b = a->inner;
                    while (b) { b = b->next; }
                    a = a->next;
                }
            }
            "#,
        );
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].parent, None);
        assert_eq!(loops[1].parent, Some(loops[0].id));
        assert!(matches!(loops[0].kind, LoopKind::While { .. }));
    }

    #[test]
    fn recursion_forms_a_loop_enclosing_whiles() {
        let loops = loops_of(
            r#"
            void T(tree *t) {
                if (t == null) { return; }
                list *l = t->items;
                while (l) { l = l->next; }
                T(t->left);
                T(t->right);
            }
            "#,
        );
        assert_eq!(loops.len(), 2);
        assert!(matches!(loops[0].kind, LoopKind::Recursion));
        assert_eq!(loops[1].parent, Some(loops[0].id));
    }

    #[test]
    fn parallel_flag_from_futures() {
        let loops = loops_of(
            r#"
            void f(list *l, tree *t) {
                while (l) { futurecall Go(t); l = l->next; }
            }
            void g(list *l) {
                while (l) { l = l->next; }
            }
            "#,
        );
        assert!(loops[0].parallel);
        assert!(!loops[1].parallel);
    }

    #[test]
    fn nonrecursive_function_has_no_recursion_loop() {
        assert!(loops_of("int f(int x) { return g(x); } int g(int x) { return x; }").is_empty());
    }

    #[test]
    fn whiles_inside_if_branches_found() {
        let loops = loops_of(
            r#"
            void f(node *a, int c) {
                if (c) { while (a) { a = a->next; } }
                else { while (a) { a = a->prev; } }
            }
            "#,
        );
        assert_eq!(loops.len(), 2);
    }

    #[test]
    fn loops_are_numbered_program_wide() {
        // Ids run on across functions, keys restart per function, and a
        // recursion loop's `while`s take it as their parent.
        let loops = loops_of(
            r#"
            void A(node *n) {
                if (n == null) { return; }
                while (n) { while (n) { n = n->next; } }
                A(n->next);
            }
            void B(node *n) { while (n) { n = n->next; } }
            "#,
        );
        let got: Vec<(usize, String, Option<usize>)> = loops
            .iter()
            .map(|l| (l.id.0, l.key(), l.parent.map(|p| p.0)))
            .collect();
        let want = [
            (0, "A#0", None),
            (1, "A#1", Some(0)),
            (2, "A#2", Some(1)),
            (3, "B#0", None),
        ];
        assert_eq!(got, want.map(|(i, k, p)| (i, k.to_string(), p)));
    }

    #[test]
    fn store_marks_only_final_step() {
        let (_, cfg) = cfgs(
            r#"
            struct t { t *n; int v; };
            void f(t *p) { p->n->v = 3; }
        "#,
        )
        .pop()
        .unwrap();
        assert_eq!(cfg.sites.len(), 2);
        assert!(!cfg.sites[0].is_store);
        assert!(cfg.sites[1].is_store);
        // The Store event follows the final check.
        let evs = &cfg.blocks[0].events;
        let check_pos = evs.iter().position(|e| e == &Event::Check(1)).unwrap();
        assert!(matches!(evs[check_pos + 1], Event::Store { .. }));
    }

    #[test]
    fn futurecall_assign_records_callee() {
        let (_, cfg) = cfgs(
            r#"
            struct t { t *n; };
            int f(t *p) {
                int h = futurecall f(p->n);
                touch h;
                return h;
            }
        "#,
        )
        .pop()
        .unwrap();
        let assigns: Vec<_> = cfg
            .blocks
            .iter()
            .flat_map(|b| &b.events)
            .filter_map(|e| match e {
                Event::Assign { var, future_of, .. } => Some((var.clone(), future_of.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(assigns, vec![("h".to_string(), Some("f".to_string()))]);
    }

    #[test]
    fn dead_code_after_return_keeps_statement_invariant() {
        // Dead code keeps its statements (and check sites) in blocks no
        // edge enters, and the graph is still well formed.
        for src in [
            "struct t { t *n; int v; }; int f(t *p) { return 0; int x = p->v; return x; }",
            "struct t { t *n; int v; }; int f(t *p, int c) { if (c) { return 1; } else { return 2; } return p->v; }",
            "struct t { t *n; }; int f(t *p, int c) { while (c) { if (c) { return 1; c = 2; } else { return 2; } } return 0; }",
            "struct t { t *n; }; int f(t *p, int c) { return 1; if (c) { } c = 2; return c; }",
        ] {
            let (f, cfg) = cfgs(src).pop().unwrap();
            cfg.check_well_formed(&f).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert!(cfg.reachable().contains(&false), "{src}: has dead code");
        }
    }

    #[test]
    fn orphaned_statement_free_block_is_malformed() {
        // Cut the jump into a loop head: the head holds no statement, so
        // nothing but a lost edge can explain its being unreachable.
        let prog = parse("void f(int c) { while (c) { c = c - 1; } }").unwrap();
        let mut cfg = lower_program(&prog).pop().unwrap();
        cfg.blocks[0].term = Term::Ret(None);
        cfg.link();
        let err = cfg.check_well_formed(&prog.funcs[0]).unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
    }

    #[test]
    fn edges_are_the_terminators_targets() {
        for (_, cfg) in cfgs(TORTURE_SRC) {
            for b in &cfg.blocks {
                assert_eq!(b.succs, b.term.succs(), "{} block {}", cfg.func, b.id);
                for &p in &b.preds {
                    assert!(cfg.blocks[p].succs.contains(&b.id));
                }
            }
        }
    }
}
