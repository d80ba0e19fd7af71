//! Executable-IR assembly.
//!
//! The CFG lowering ([`crate::cfg`]) is the one walk over a function's
//! statements: it decides evaluation order once and emits each block's
//! events, check sites and IR instructions together. [`lower_ir`] reads
//! no statement. It assigns field slots, pairs each CFG site with its
//! verdict in the [`MechTable`] (which holds one per site, in the same
//! order), copies the blocks with the trip slots of their control loops
//! ([`crate::cfg::Cfg::loops`]), and marks directly-recursive functions
//! with their recursion loop's slot. The IR interpreter thereby honors
//! the live olden-select verdicts without any name-based lookup at run
//! time; future slots and extern-callee hashes are likewise fixed while
//! the CFG is lowered.

use crate::ast::Program;
use crate::cfg::LoopKind;
use crate::ir::{IrBlock, IrField, IrFunc, IrProgram, IrSite, IrStruct, IrTy};
use crate::verdicts::{lowered, mech_table, MechTable};
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

fn lower_structs(
    prog: &Program,
    fields: &FieldMap,
    struct_idx: &HashMap<&str, usize>,
) -> Vec<IrStruct> {
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

/// Assemble `prog`'s executable IR from its CFGs, whose blocks already
/// hold their instructions and terminators, and from `table`, which holds
/// one verdict per CFG site in order: the `k`-th site of a function whose
/// sites start at table index `first` executes under verdict `first + k`.
/// Fails when `table` is another program's: it has another site count
/// than the CFGs, or pairs a site with a verdict of another function.
pub fn lower_ir(prog: &Program, table: &MechTable) -> Result<IrProgram, String> {
    let cfgs = &lowered(prog).1;
    let sites: usize = cfgs.iter().map(|c| c.sites.len()).sum();
    if sites != table.sites.len() {
        return Err(format!(
            "the program's CFGs have {sites} check sites but the mech table has {} verdicts",
            table.sites.len()
        ));
    }
    let fields = FieldMap::build(prog);
    let struct_idx: HashMap<&str, usize> = prog
        .structs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.as_str(), i))
        .collect();
    let mut funcs = Vec::new();
    let mut first = 0;
    for (func, cfg) in prog.funcs.iter().zip(cfgs) {
        let verdicts = &table.sites[first..first + cfg.sites.len()];
        if let Some(v) = verdicts.iter().find(|v| v.func != func.name) {
            return Err(format!(
                "a check site of `{}` is paired with a verdict of `{}` in the mech table",
                func.name, v.func
            ));
        }
        let sites = cfg.sites.iter().enumerate().map(|(k, s)| {
            let info = fields.info(&s.field);
            IrSite {
                verdict: first + k,
                mech: verdicts[k].mech,
                field: info.word,
                loads_ptr: info.is_pointer,
                is_store: s.is_store,
            }
        });
        let blocks = cfg.blocks.iter().map(|b| IrBlock {
            insts: b.insts.clone(),
            term: b.term.clone(),
            trip_slot: b.trip.map(|l| cfg.loops[l].id.0),
        });
        let params = func
            .param_tys
            .iter()
            .map(|t| match struct_idx.get(t.name.as_str()) {
                Some(&si) if t.is_pointer => IrTy::Ptr(si),
                _ => IrTy::Int,
            });
        let rec = cfg.loops.iter().find(|l| l.kind == LoopKind::Recursion);
        funcs.push(IrFunc {
            name: func.name.clone(),
            params: params.collect(),
            returns_value: func.ret.name != "void" || func.ret.is_pointer,
            nregs: cfg.nregs,
            nslots: cfg.nslots,
            blocks: blocks.collect(),
            sites: sites.collect(),
            rec_slot: rec.map(|l| l.id.0),
        });
        first += cfg.sites.len();
    }
    Ok(IrProgram {
        structs: lower_structs(prog, &fields, &struct_idx),
        funcs,
        trip_keys: table.selection.loops.iter().map(|c| c.cl.key()).collect(),
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
    use crate::ast::Expr;
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

    /// The one error left: a table of another program, with another site
    /// count, is refused, naming both counts.
    #[test]
    fn another_programs_table_is_refused() {
        let p = crate::parse("struct n { n *next; int v; }\nint f(n *p) { return p->next->v; }\n")
            .unwrap();
        let q =
            crate::parse("struct n { n *next; int v; }\nint f(n *p) { return p->v; }\n").unwrap();
        let err = lower_ir(&p, mech_table(&q)).unwrap_err();
        assert!(
            err.contains("2 check sites") && err.contains("1 verdicts"),
            "{err}"
        );
        assert!(lower_ir(&p, mech_table(&p)).is_ok());
    }

    /// A table of another program with the same site count is refused
    /// too: three sites split 2 + 1 over `f` and `g` against 1 + 2.
    #[test]
    fn another_programs_table_with_as_many_sites_is_refused() {
        let p = crate::parse(
            "struct n { n *next; int v; }\nint f(n *p) { return p->next->v; }\nint g(n *p) { return p->v; }\n",
        )
        .unwrap();
        let q = crate::parse(
            "struct n { n *next; int v; }\nint f(n *p) { return p->v; }\nint g(n *p) { return p->next->v; }\n",
        )
        .unwrap();
        assert_eq!(mech_table(&p).sites.len(), 3);
        assert_eq!(mech_table(&q).sites.len(), 3);
        let err = lower_ir(&p, mech_table(&q)).unwrap_err();
        assert!(err.contains("`f`") && err.contains("`g`"), "{err}");
        let err = lower_ir(&q, mech_table(&p)).unwrap_err();
        assert!(err.contains("`f`") && err.contains("`g`"), "{err}");
        assert!(lower_ir(&p, mech_table(&p)).is_ok());
        assert!(lower_ir(&q, mech_table(&q)).is_ok());
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
