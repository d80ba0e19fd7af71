//! AST → executable-IR lowering.
//!
//! [`lower_ir`] flattens a type-checked [`Program`] into
//! [`IrProgram`] basic blocks, in the CFG lowering's evaluation order:
//! for a path `base->f1->…->fk`, one check site per arrow in navigation
//! order; for a store, the source expression first, then the destination
//! path with `is_store` on the final arrow; `if` conditions before
//! branches; `while` conditions in the loop head, re-evaluated per
//! iteration; call arguments left to right; binary operands left before
//! right.
//!
//! The [`MechTable`] holds one verdict per [`crate::cfg::Site`] in that
//! same order, so the `k`-th check site lowered within a function claims
//! the function's `k`-th verdict: the emitted [`IrSite`] records the
//! verdict's index and mechanism, and lowering returns an error rather
//! than guess if its rendering of the site ever disagrees with the
//! verdict's. A function's trip slots are the program-wide ids of its
//! own control loops ([`crate::cfg::Cfg::loops`]). The IR interpreter
//! thereby honors the live olden-select verdicts without any name-based
//! lookup at run time. The same holds for futures and externs:
//! each register a `futurecall` writes gets a future slot, every `touch`
//! of it names that slot, and each extern call carries its callee name's
//! hash, so the interpreter indexes instead of looking anything up.

use crate::ast::{Expr, FuncDef, Program, Stmt};
use crate::cfg::{Cfg, LoopKind};
use crate::ir::{
    BinOp, BlockId, Inst, IrBlock, IrField, IrFunc, IrProgram, IrSite, IrStruct, IrTy, Reg, Term,
    UnOp,
};
use crate::verdicts::{lowered, mech_table, MechTable, SiteVerdict};
use std::collections::HashMap;

/// Global field layout: the DSL treats field names as program-global
/// (affinities already resolve that way, see [`Program::affinity`]), so
/// each distinct name gets one word slot program-wide.
struct FieldMap {
    slots: HashMap<String, FieldInfo>,
}

#[derive(Clone)]
struct FieldInfo {
    word: usize,
    is_pointer: bool,
}

impl FieldMap {
    fn build(prog: &Program) -> FieldMap {
        let mut slots = HashMap::new();
        let mut next = 0usize;
        for s in &prog.structs {
            for f in &s.fields {
                slots.entry(f.name.clone()).or_insert_with(|| {
                    let info = FieldInfo {
                        word: next,
                        is_pointer: f.is_pointer,
                    };
                    next += 1;
                    info
                });
            }
        }
        FieldMap { slots }
    }

    /// Unknown field names (possible only in programs the typechecker
    /// rejects) fall back to slot 0 as an integer, keeping lowering
    /// total.
    fn info(&self, name: &str) -> FieldInfo {
        self.slots.get(name).cloned().unwrap_or(FieldInfo {
            word: 0,
            is_pointer: false,
        })
    }
}

fn lower_structs(prog: &Program, fields: &FieldMap) -> Vec<IrStruct> {
    let struct_idx: HashMap<&str, usize> = prog
        .structs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.as_str(), i))
        .collect();
    prog.structs
        .iter()
        .map(|s| {
            let mut words = 1usize;
            let fs: Vec<IrField> = s
                .fields
                .iter()
                .map(|f| {
                    let info = fields.info(&f.name);
                    words = words.max(info.word + 1);
                    IrField {
                        name: f.name.clone(),
                        word: info.word,
                        is_pointer: f.is_pointer,
                        target: struct_idx.get(f.ty.as_str()).copied(),
                        affinity: f.affinity.unwrap_or(crate::DEFAULT_AFFINITY),
                    }
                })
                .collect();
            IrStruct {
                name: s.name.clone(),
                words,
                fields: fs,
            }
        })
        .collect()
}

/// Per-function lowering state.
struct FnLower<'a> {
    fields: &'a FieldMap,
    func_idx: &'a HashMap<&'a str, usize>,
    func: &'a FuncDef,
    env: HashMap<String, Reg>,
    nregs: usize,
    blocks: Vec<BlockBuf>,
    cur: BlockId,
    sites: Vec<IrSite>,
    /// This function's verdicts with their table indices, in table
    /// order; `next_verdict` walks it.
    verdicts: Vec<(usize, &'a SiteVerdict)>,
    next_verdict: usize,
    /// Global trip-key slots of this function's `while` loops, consumed
    /// in pre-order as lowering encounters them — the CFG lowering's
    /// order, which the count at the end checks.
    while_slots: Vec<usize>,
    next_while: usize,
    /// Future slot of each register some `FutureCall` writes.
    future_slots: HashMap<Reg, usize>,
}

struct BlockBuf {
    insts: Vec<Inst>,
    term: Option<Term>,
    trip_slot: Option<usize>,
}

impl<'a> FnLower<'a> {
    fn fresh(&mut self) -> Reg {
        let r = self.nregs;
        self.nregs += 1;
        r
    }

    fn var(&mut self, name: &str) -> Reg {
        if let Some(&r) = self.env.get(name) {
            return r;
        }
        let r = self.fresh();
        self.env.insert(name.to_string(), r);
        r
    }

    fn emit(&mut self, inst: Inst) {
        self.blocks[self.cur].insts.push(inst);
    }

    /// Emit `dst = futurecall funcs[func](args…)` in `dst`'s future slot.
    fn emit_future(&mut self, dst: Reg, func: usize, args: Vec<Reg>) {
        let next = self.future_slots.len();
        let slot = *self.future_slots.entry(dst).or_insert(next);
        self.emit(Inst::FutureCall {
            dst,
            slot,
            func,
            args,
        });
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BlockBuf {
            insts: Vec::new(),
            term: None,
            trip_slot: None,
        });
        self.blocks.len() - 1
    }

    fn terminate(&mut self, term: Term) {
        if self.blocks[self.cur].term.is_none() {
            self.blocks[self.cur].term = Some(term);
        }
    }

    /// Claim the next verdict for a site and cross-check its rendering.
    fn site(
        &mut self,
        base: &str,
        prefix: &[String],
        field: &str,
        is_store: bool,
    ) -> Result<usize, String> {
        let &(verdict, v) = self.verdicts.get(self.next_verdict).ok_or_else(|| {
            format!(
                "{}: lowering produced more check sites than the mech table has verdicts \
                 (at {base}->{field})",
                self.func.name
            )
        })?;
        self.next_verdict += 1;
        let mut rendered = String::from(base);
        for p in prefix {
            rendered.push_str("->");
            rendered.push_str(p);
        }
        rendered.push_str("->");
        rendered.push_str(field);
        if v.site != rendered || v.is_store != is_store {
            return Err(format!(
                "{}: site stream out of sync with mech table: lowered {rendered} \
                 (store={is_store}), table has {} (store={})",
                self.func.name, v.site, v.is_store
            ));
        }
        let info = self.fields.info(field);
        self.sites.push(IrSite {
            verdict,
            mech: v.mech,
            field: info.word,
            loads_ptr: info.is_pointer,
            is_store,
        });
        Ok(self.sites.len() - 1)
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<Reg, String> {
        match e {
            Expr::Int(n) => {
                let dst = self.fresh();
                self.emit(Inst::ConstInt { dst, val: *n });
                Ok(dst)
            }
            Expr::Null => {
                let dst = self.fresh();
                self.emit(Inst::ConstNull { dst });
                Ok(dst)
            }
            Expr::Var(v) => Ok(self.var(v)),
            Expr::Path { base, fields, .. } => {
                let mut cur = self.var(base);
                for (i, f) in fields.iter().enumerate() {
                    let site = self.site(base, &fields[..i], f, false)?;
                    let dst = self.fresh();
                    self.emit(Inst::Load {
                        dst,
                        base: cur,
                        site,
                    });
                    cur = dst;
                }
                Ok(cur)
            }
            Expr::Call {
                func, args, future, ..
            } => {
                let arg_regs = args
                    .iter()
                    .map(|a| self.lower_expr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let dst = self.fresh();
                match self.func_idx.get(func.as_str()) {
                    Some(&fi) if *future => {
                        // A future in expression position must be claimed
                        // before its value can be used (typeck enforces
                        // assignment-then-touch; this keeps stray shapes
                        // total).
                        self.emit_future(dst, fi, arg_regs);
                        self.emit(Inst::Touch {
                            reg: dst,
                            slot: None,
                        });
                    }
                    Some(&fi) => self.emit(Inst::Call {
                        dst,
                        func: fi,
                        args: arg_regs,
                    }),
                    None => self.emit(Inst::ExternCall {
                        dst,
                        hash: fnv1a(func),
                        args: arg_regs,
                    }),
                }
                Ok(dst)
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.lower_expr(lhs)?;
                let r = self.lower_expr(rhs)?;
                let bop = BinOp::parse(op)
                    .ok_or_else(|| format!("{}: unknown binary op {op:?}", self.func.name))?;
                let dst = self.fresh();
                self.emit(Inst::Bin {
                    dst,
                    op: bop,
                    lhs: l,
                    rhs: r,
                });
                Ok(dst)
            }
            Expr::Unary { op, arg } => {
                let a = self.lower_expr(arg)?;
                let uop = match op.as_str() {
                    "-" => UnOp::Neg,
                    "!" => UnOp::Not,
                    other => return Err(format!("{}: unknown unary op {other:?}", self.func.name)),
                };
                let dst = self.fresh();
                self.emit(Inst::Un {
                    dst,
                    op: uop,
                    arg: a,
                });
                Ok(dst)
            }
        }
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), String> {
        for s in stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), String> {
        match s {
            Stmt::Assign { dst, src, .. } => {
                // `x = futurecall f(...)`: the variable holds the pending
                // future until `touch x` claims it.
                if let Expr::Call {
                    func,
                    args,
                    future: true,
                    ..
                } = src
                {
                    if let Some(&fi) = self.func_idx.get(func.as_str()) {
                        let arg_regs = args
                            .iter()
                            .map(|a| self.lower_expr(a))
                            .collect::<Result<Vec<_>, _>>()?;
                        let dreg = self.var(dst);
                        self.emit_future(dreg, fi, arg_regs);
                        return Ok(());
                    }
                }
                let r = self.lower_expr(src)?;
                let dreg = self.var(dst);
                self.emit(Inst::Copy { dst: dreg, src: r });
                Ok(())
            }
            Stmt::Store {
                base, fields, src, ..
            } => {
                let r = self.lower_expr(src)?;
                let mut cur = self.var(base);
                let last = fields.len() - 1;
                for (i, f) in fields.iter().enumerate() {
                    if i < last {
                        let site = self.site(base, &fields[..i], f, false)?;
                        let dst = self.fresh();
                        self.emit(Inst::Load {
                            dst,
                            base: cur,
                            site,
                        });
                        cur = dst;
                    } else {
                        let site = self.site(base, &fields[..i], f, true)?;
                        self.emit(Inst::Store {
                            base: cur,
                            src: r,
                            site,
                        });
                    }
                }
                Ok(())
            }
            Stmt::If { cond, then_, else_ } => {
                let c = self.lower_expr(cond)?;
                let then_b = self.new_block();
                let else_b = self.new_block();
                let merge = self.new_block();
                self.terminate(Term::Branch {
                    cond: c,
                    then_: then_b,
                    else_: else_b,
                });
                self.cur = then_b;
                self.lower_stmts(then_)?;
                self.terminate(Term::Jump(merge));
                self.cur = else_b;
                self.lower_stmts(else_)?;
                self.terminate(Term::Jump(merge));
                self.cur = merge;
                Ok(())
            }
            Stmt::While { cond, body } => {
                // Consume this loop's trip slot *before* descending, so
                // nested loops take later slots — the CFG lowering
                // numbers `while`s pre-order.
                let slot = self.while_slots.get(self.next_while).copied();
                self.next_while += 1;
                let head = self.new_block();
                self.terminate(Term::Jump(head));
                self.cur = head;
                let c = self.lower_expr(cond)?;
                let body_b = self.new_block();
                self.blocks[body_b].trip_slot = slot;
                let exit = self.new_block();
                // The condition may span several blocks (it cannot today:
                // conditions are expressions without control flow — but
                // terminate from wherever lowering ended up).
                self.terminate(Term::Branch {
                    cond: c,
                    then_: body_b,
                    else_: exit,
                });
                self.cur = body_b;
                self.lower_stmts(body)?;
                self.terminate(Term::Jump(head));
                self.cur = exit;
                Ok(())
            }
            Stmt::ExprStmt(e) => {
                // `futurecall f(...);` for effect: spawn and never touch
                // (fire-and-forget), exactly what the DSL wrote.
                if let Expr::Call {
                    func,
                    args,
                    future: true,
                    ..
                } = e
                {
                    if let Some(&fi) = self.func_idx.get(func.as_str()) {
                        let arg_regs = args
                            .iter()
                            .map(|a| self.lower_expr(a))
                            .collect::<Result<Vec<_>, _>>()?;
                        let dst = self.fresh();
                        self.emit_future(dst, fi, arg_regs);
                        return Ok(());
                    }
                }
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::Touch { var, .. } => {
                let r = self.var(var);
                self.emit(Inst::Touch { reg: r, slot: None });
                Ok(())
            }
            Stmt::Return(e) => {
                let r = match e {
                    Some(e) => Some(self.lower_expr(e)?),
                    None => None,
                };
                self.terminate(Term::Ret(r));
                // Dead code after a return still lowers (and still
                // consumes verdicts — the CFG lowering records its sites).
                self.cur = self.new_block();
                Ok(())
            }
        }
    }
}

fn lower_func(
    prog: &Program,
    fields: &FieldMap,
    func_idx: &HashMap<&str, usize>,
    func: &FuncDef,
    verdicts: Vec<(usize, &SiteVerdict)>,
    cfg: &Cfg,
) -> Result<IrFunc, String> {
    let mut rec_slot = None;
    let mut while_slots = Vec::new();
    for l in &cfg.loops {
        match l.kind {
            LoopKind::Recursion => rec_slot = Some(l.id.0),
            LoopKind::While { .. } => while_slots.push(l.id.0),
        }
    }
    let mut lw = FnLower {
        fields,
        func_idx,
        func,
        env: HashMap::new(),
        nregs: 0,
        blocks: Vec::new(),
        cur: 0,
        sites: Vec::new(),
        verdicts,
        next_verdict: 0,
        while_slots,
        next_while: 0,
        future_slots: HashMap::new(),
    };
    lw.new_block();
    for p in &func.params {
        let r = lw.fresh();
        lw.env.insert(p.clone(), r);
    }
    lw.lower_stmts(&func.body)?;
    lw.terminate(Term::Ret(None));
    if lw.next_verdict != lw.verdicts.len() {
        return Err(format!(
            "{}: mech table has {} verdicts but lowering consumed {}",
            func.name,
            lw.verdicts.len(),
            lw.next_verdict
        ));
    }
    if lw.next_while != lw.while_slots.len() {
        return Err(format!(
            "{}: the CFG lowering found {} while loop(s) but this lowering saw {}",
            func.name,
            lw.while_slots.len(),
            lw.next_while
        ));
    }
    let struct_idx: HashMap<&str, usize> = prog
        .structs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.as_str(), i))
        .collect();
    let params = func
        .param_tys
        .iter()
        .map(|t| match struct_idx.get(t.name.as_str()) {
            Some(&si) if t.is_pointer => IrTy::Ptr(si),
            _ => IrTy::Int,
        })
        .collect();
    let returns_value = func.ret.name != "void" || func.ret.is_pointer;
    // A touch can precede the futurecall it claims (across a loop's back
    // edge), so touches take their slots once every call is lowered.
    let slots = &lw.future_slots;
    let blocks = lw
        .blocks
        .into_iter()
        .map(|mut b| {
            for inst in &mut b.insts {
                if let Inst::Touch { reg, slot } = inst {
                    *slot = slots.get(reg).copied();
                }
            }
            IrBlock {
                insts: b.insts,
                term: b.term.unwrap_or(Term::Ret(None)),
                trip_slot: b.trip_slot,
            }
        })
        .collect();
    Ok(IrFunc {
        name: func.name.clone(),
        params,
        returns_value,
        nregs: lw.nregs,
        nslots: slots.len(),
        blocks,
        sites: lw.sites,
        rec_slot,
    })
}

/// FNV-1a of an extern callee's name: the seed of its value hash.
fn fnv1a(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// Lower a program against its live mechanism table. Fails (never
/// guesses) if the lowered site stream disagrees with the table — which
/// would mean this lowering and the CFG lowering no longer share an
/// evaluation order.
pub fn lower_ir(prog: &Program, table: &MechTable) -> Result<IrProgram, String> {
    let fields = FieldMap::build(prog);
    let structs = lower_structs(prog, &fields);
    let func_idx: HashMap<&str, usize> = prog
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let trip_keys = table.selection.loops.iter().map(|c| c.cl.key()).collect();

    let mut funcs = Vec::new();
    let mut verdicts = table.sites.iter().enumerate();
    for (f, cfg) in prog.funcs.iter().zip(&lowered(prog).1) {
        let verdicts = verdicts.by_ref().take(cfg.sites.len()).collect();
        funcs.push(lower_func(prog, &fields, &func_idx, f, verdicts, cfg)?);
    }
    Ok(IrProgram {
        structs,
        funcs,
        trip_keys,
    })
}

/// Front door: parse, typecheck, select, and lower a source program.
/// Returns the parsed program, its mechanism table, and the executable
/// IR — or the first reason the program cannot be executed.
pub fn compile(src: &str) -> Result<(Program, MechTable, IrProgram), String> {
    let prog = crate::parse(src).map_err(|e| format!("parse error: {e}"))?;
    let diags = crate::typecheck(&prog);
    if let Some(d) = diags.first() {
        return Err(format!("type error: {}", d.one_line()));
    }
    let table = mech_table(&prog).clone();
    let ir = lower_ir(&prog, &table)?;
    Ok((prog, table, ir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_program;
    use crate::ir::Inst;

    /// Every lowered site points at the next verdict of the table: each
    /// verdict is claimed exactly once, in table order.
    fn claims_every_verdict_in_order(ir: &IrProgram, table: &MechTable) -> bool {
        let claimed = ir.funcs.iter().flat_map(|f| &f.sites);
        claimed.map(|s| s.verdict).eq(0..table.sites.len())
    }

    /// The load-bearing invariant: for every generated program, the
    /// lowered site stream claims the mech table's verdicts one to one
    /// (lowering has already compared each rendering and store flag), so
    /// the IR executes under exactly the olden-select decisions.
    #[test]
    fn lowered_sites_match_mech_table_keys() {
        for seed in 0..300 {
            let prog = gen_program(seed);
            let table = mech_table(&prog);
            let ir = lower_ir(&prog, table).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(claims_every_verdict_in_order(&ir, table), "seed {seed}");
            let mechs = ir.funcs.iter().flat_map(|f| &f.sites).map(|s| s.mech);
            assert!(mechs.eq(table.sites.iter().map(|v| v.mech)), "seed {seed}");
        }
    }

    /// Trip keys are the cost model's loop keys, and every while body
    /// lowered got a slot.
    #[test]
    fn trip_slots_cover_all_control_loops() {
        for seed in 0..100 {
            let prog = gen_program(seed);
            let table = mech_table(&prog);
            let ir = lower_ir(&prog, table).unwrap();
            assert_eq!(ir.trip_keys, crate::loop_keys(&prog), "seed {seed}");
            let mut used: Vec<usize> = ir
                .funcs
                .iter()
                .flat_map(|f| {
                    f.rec_slot
                        .into_iter()
                        .chain(f.blocks.iter().filter_map(|b| b.trip_slot))
                })
                .collect();
            used.sort_unstable();
            assert_eq!(
                used,
                (0..ir.trip_keys.len()).collect::<Vec<_>>(),
                "seed {seed}: every control loop owns exactly one trip slot"
            );
        }
    }

    /// Lowering fixes every future slot and extern hash the interpreter
    /// indexes: each `FutureCall` slot is in range and shared by the calls
    /// writing one register, a `Touch` has a slot exactly when some
    /// `FutureCall` writes its register (and it is that call's slot), and
    /// the extern calls carry the FNV-1a hashes of the source's extern
    /// callee names, one each. The generated seeds never write one
    /// register by two `futurecall`s, so a hand-written respawn joins them.
    #[test]
    fn future_slots_and_extern_hashes_are_fixed_at_lowering() {
        let fnv = |name: &str| {
            let mut h = 0xcbf29ce484222325u64;
            for byte in name.bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100000001b3);
            }
            h
        };
        let respawn = "struct s { s *n; int v; }\n\
                       int one(s *p) { return 1; }\n\
                       int main(s *p, int k) {\n\
                           h = 0;\n\
                           if (k > 0) { h = futurecall one(p); }\n\
                           h = futurecall one(p);\n\
                           touch h;\n\
                           return h;\n\
                       }\n";
        let respawn = ("respawn".to_string(), crate::parse(respawn).unwrap());
        let generated = (0..300).map(|seed| (format!("seed {seed}"), gen_program(seed)));
        let (mut touches, mut externs, mut shared) = (0, 0, 0);
        for (seed, prog) in generated.chain([respawn]) {
            let ir = lower_ir(&prog, mech_table(&prog)).unwrap();
            for (f, def) in ir.funcs.iter().zip(&prog.funcs) {
                let insts: Vec<&Inst> = f.blocks.iter().flat_map(|b| &b.insts).collect();
                let mut slot_of = HashMap::new();
                for inst in &insts {
                    if let Inst::FutureCall { dst, slot, .. } = inst {
                        assert!(*slot < f.nslots, "{seed} {}", f.name);
                        shared += usize::from(slot_of.contains_key(dst));
                        let first = *slot_of.entry(*dst).or_insert(*slot);
                        assert_eq!(first, *slot, "{seed} {}: one slot per register", f.name);
                    }
                }
                let mut hashes = Vec::new();
                for inst in &insts {
                    match inst {
                        Inst::Touch { reg, slot } => {
                            assert_eq!(*slot, slot_of.get(reg).copied(), "{seed} {}", f.name);
                            touches += 1;
                        }
                        Inst::ExternCall { hash, .. } => hashes.push(*hash),
                        _ => {}
                    }
                }
                let mut named = Vec::new();
                crate::ast::walk_stmts(&def.body, &mut |s| {
                    s.exprs(&mut |e| match e {
                        Expr::Call { func, .. } if prog.func(func).is_none() => {
                            named.push(fnv(func))
                        }
                        _ => {}
                    })
                });
                hashes.sort_unstable();
                named.sort_unstable();
                assert_eq!(hashes, named, "{seed} {}", f.name);
                externs += hashes.len();
            }
        }
        assert!(
            touches > 0 && externs > 0 && shared > 0,
            "every case is exercised"
        );
    }

    /// Field slots are global: structs sharing a field name share its
    /// word, and struct footprints cover their largest slot.
    #[test]
    fn field_layout_is_global_and_covering() {
        let src = "struct a { int v; b *next; }\n\
                   struct b { int v; a *back; }\n\
                   int main(a *p) { return p->next->v; }\n";
        let (_, _, ir) = compile(src).unwrap();
        let a = &ir.structs[0];
        let b = &ir.structs[1];
        let slot = |s: &IrStruct, n: &str| s.fields.iter().find(|f| f.name == n).unwrap().word;
        assert_eq!(slot(a, "v"), slot(b, "v"));
        assert!(a.words > slot(a, "next"));
        assert!(b.words > slot(b, "back"));
        assert_eq!(ir.funcs[0].sites.len(), 2);
        assert!(ir.funcs[0].sites[0].loads_ptr);
        assert!(!ir.funcs[0].sites[1].loads_ptr);
    }

    /// A store lowers its source before the destination path, with
    /// `is_store` only on the final arrow — the CFG's order.
    #[test]
    fn store_lowers_source_then_destination() {
        let src = "struct n { n *next; int v; }\n\
                   void f(n *p) { p->next->v = p->v; }\n";
        let (_, table, ir) = compile(src).unwrap();
        let f = &ir.funcs[0];
        // Three sites: p->v (the source), p->next, p->next->v (store).
        assert_eq!(f.sites.len(), 3);
        assert!(!f.sites[0].is_store && !f.sites[1].is_store && f.sites[2].is_store);
        assert!(claims_every_verdict_in_order(&ir, &table));
    }

    /// Fire-and-forget futures lower to an untouched `FutureCall`;
    /// assigned futures keep the handle in the variable's register until
    /// `touch`.
    #[test]
    fn future_shapes_lower_without_spurious_touch() {
        let src = "struct n { n *next; int v; }\n\
                   void leaf(n *p) { p->v = 1; }\n\
                   int main(n *p) {\n\
                       futurecall leaf(p);\n\
                       h = futurecall main(p->next);\n\
                       touch h;\n\
                       return h;\n\
                   }\n";
        let (_, _, ir) = compile(src).unwrap();
        let main = &ir.funcs[1];
        let touches = main
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Touch { .. }))
            .count();
        assert_eq!(touches, 1, "only the explicit touch lowers");
        assert!(main.rec_slot.is_some(), "main is directly recursive");
    }

    /// Dead code after `return` still consumes verdicts, because the
    /// mech-table walker visits it.
    #[test]
    fn dead_code_still_aligns_with_table() {
        let src = "struct n { n *next; int v; }\n\
                   int f(n *p) { return 0; x = p->v; return x; }\n";
        let (_, table, ir) = compile(src).unwrap();
        assert!(claims_every_verdict_in_order(&ir, &table));
        assert_eq!(ir.site_count(), 1);
    }
}
