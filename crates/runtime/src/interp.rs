//! The executable-IR interpreter: generated DSL programs running for
//! real on any [`Backend`].
//!
//! `olden_analysis::lower` flattens a type-checked DSL program into
//! basic blocks whose only heap operations are check-site-annotated
//! loads and stores; this module executes that IR against the simulator
//! (`OldenCtx`), the thread backend (`olden_exec::ExecCtx`), or any
//! other `Backend` — which is what makes whole-stack differential
//! testing possible: the *same* program, under the *same* olden-select
//! verdicts, on executors that must agree byte-for-byte.
//!
//! A run is one logical thread, a small record: a register stack whose
//! windows are its frames, the future handles beside them, its fuel and
//! its trip counts. A call pushes its arguments on top and the callee's
//! frame starts there; a future body is such a call wrapped in the
//! backend's [`Backend::future_call_inline`], so it runs to its end on the
//! spawner's stacks and its window is gone before the spawner goes on.
//! Lowering fixes every index a step needs (registers, future slots,
//! extern hashes), so a step only indexes and never allocates.
//!
//! ## Determinism contract
//!
//! Every semantic decision here is a pure function of computed values,
//! never of backend internals, so lockstep runs on different backends
//! take identical paths:
//!
//! * **Heap inputs** are built by a seeded builder from the DSL struct
//!   declarations — allocation order, placement (honoring the declared
//!   path affinities), and field values are functions of the seed alone,
//!   so the bump allocators on both backends hand out identical gptrs.
//! * **Null dereferences** yield the field type's zero without touching
//!   the heap; null-based stores are no-ops.
//! * **Extern calls** (`ext0(...)` and friends) return a deterministic
//!   hash of the callee name and argument values.
//! * **Arithmetic** wraps; division and remainder by zero yield zero.
//! * **Runaway programs** (generated heap cycles or unbounded mutual
//!   recursion) are cut by a *fuel* budget ([`DEFAULT_FUEL`]) and a
//!   call-depth cap — both counted in execution order, so the cut lands
//!   on the same block everywhere.

use crate::backend::Backend;
use crate::config::Mechanism;
use olden_analysis::ir::{BinOp, Inst, IrProgram, IrSite, IrTy, Term, UnOp};
use olden_analysis::Mech;
use olden_gptr::{GPtr, ProcId, Word};
use olden_rng::{mix2, SplitMix64};

/// Default fuel for one program run: far above what any generated
/// program needs, small enough that a heap cycle or runaway recursion
/// halts in microseconds. Entering a block costs its instruction count
/// plus one; the block is refused, halting the run, when the fuel left
/// is ≤ that cost. Future bodies run inline on every backend, so one
/// count in the run's one thread record covers them in execution order.
pub const DEFAULT_FUEL: i64 = 60_000;

/// Call-depth cap (stack safety on worker threads; generated recursion
/// over builder-made data never gets near it).
const MAX_CALL_DEPTH: u32 = 40;

/// Per-root node budget and depth bound for the heap builder.
const BUILD_NODES: i64 = 48;
const BUILD_DEPTH: u32 = 5;

/// A dynamically-typed IR value. The DSL is typechecked before lowering,
/// so in practice each register holds one kind for its whole life; the
/// dynamic representation keeps the interpreter total on odd corpus
/// programs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    Int(i64),
    Ptr(GPtr),
}

impl Value {
    fn truthy(self) -> bool {
        self.as_i64() != 0
    }

    /// Integer view. Pointers coerce to 0/1 (null/non-null), never to
    /// their raw bits: heap addresses are backend-specific, and any
    /// integer derived from one would silently break sim-vs-exec parity.
    fn as_i64(self) -> i64 {
        match self {
            Value::Int(n) => n,
            Value::Ptr(p) => i64::from(!p.is_null()),
        }
    }

    fn word(self) -> Word {
        match self {
            Value::Int(n) => Word::from(n),
            Value::Ptr(p) => Word::from(p),
        }
    }

    /// Backend-independent digest for checksums and extern hashing:
    /// integers contribute their bits, pointers only their nullness.
    fn digest(self) -> u64 {
        self.as_i64() as u64
    }
}

/// What a run reads: the program, and the mechanism override.
struct Run<'p> {
    prog: &'p IrProgram,
    /// Override every site's mechanism (the flip experiment); `None`
    /// honors the live olden-select verdicts baked into the IR.
    force: Option<Mech>,
}

/// The run's logical thread: its register and future-handle stacks, the
/// fuel left, trip counters (indexed like `IrProgram::trip_keys`), and
/// whether a cut fired.
struct Thread<B: Backend> {
    regs: Vec<Value>,
    futs: Vec<Option<B::Handle<Value>>>,
    fuel: i64,
    trips: Vec<u64>,
    halted: bool,
}

/// What one IR run produced, beyond the backend's own counters.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// FNV/splitmix fold of every top-level function's return value —
    /// the "byte-equal values" surface of the differential harness.
    pub checksum: u64,
    /// Measured trips per control loop, aligned with
    /// `IrProgram::trip_keys` (recursion loops count invocations).
    pub trips: Vec<(String, u64)>,
    /// True when the fuel or depth cut fired (still deterministic; the
    /// harness compares it across backends like any other value).
    pub halted: bool,
}

impl Run<'_> {
    fn mech(&self, site: &IrSite) -> Mechanism {
        match self.force.unwrap_or(site.mech) {
            Mech::Migrate => Mechanism::Migrate,
            Mech::Cache => Mechanism::Cache,
        }
    }

    /// A DSL-level call of `funcs[fi]` whose arguments start at `base`
    /// of `t.regs`: a procedure-call boundary on the backend, like the
    /// hand-written kernels wrap every call. Pops the frame on return.
    fn call<B: Backend>(
        &self,
        ctx: &mut B,
        t: &mut Thread<B>,
        fi: usize,
        base: usize,
        depth: u32,
    ) -> Value {
        let f = &self.prog.funcs[fi];
        let (top, fut) = (t.regs.len().max(base + f.nregs), t.futs.len());
        t.regs.resize(top, Value::Int(0));
        t.futs.resize_with(fut + f.nslots, || None);
        let v = ctx.call(|ctx| {
            if depth > MAX_CALL_DEPTH {
                t.halted = true;
                return Value::Int(0);
            }
            if let Some(i) = f.rec_slot {
                t.trips[i] += 1;
            }
            let mut bi = 0usize;
            loop {
                let b = &f.blocks[bi];
                t.fuel -= b.insts.len() as i64 + 1;
                if t.fuel <= 0 {
                    t.halted = true;
                    return Value::Int(0);
                }
                if let Some(i) = b.trip_slot {
                    t.trips[i] += 1;
                }
                for inst in &b.insts {
                    let regs = &mut t.regs[base..];
                    match inst {
                        Inst::ConstInt { dst, val } => regs[*dst] = Value::Int(*val),
                        Inst::ConstNull { dst } => regs[*dst] = Value::Ptr(GPtr::NULL),
                        Inst::Copy { dst, src } => regs[*dst] = regs[*src],
                        Inst::Un { dst, op, arg } => {
                            let a = regs[*arg];
                            regs[*dst] = Value::Int(match op {
                                UnOp::Neg => a.as_i64().wrapping_neg(),
                                UnOp::Not => i64::from(!a.truthy()),
                            });
                        }
                        Inst::Bin { dst, op, lhs, rhs } => {
                            regs[*dst] = bin_op(*op, regs[*lhs], regs[*rhs]);
                        }
                        Inst::Load { dst, base, site } => {
                            let s = &f.sites[*site];
                            // A null (or non-pointer) base reads zero, no heap.
                            let w = match regs[*base] {
                                Value::Ptr(p) if !p.is_null() => ctx.read(p, s.field, self.mech(s)),
                                _ => Word::ZERO,
                            };
                            regs[*dst] = match s.loads_ptr {
                                true => Value::Ptr(w.as_ptr()),
                                false => Value::Int(w.as_i64()),
                            };
                        }
                        Inst::Store { base, src, site } => match regs[*base] {
                            Value::Ptr(p) if !p.is_null() => {
                                let s = &f.sites[*site];
                                ctx.write_word(p, s.field, regs[*src].word(), self.mech(s));
                            }
                            _ => {}
                        },
                        // A future body is a call on the same stacks,
                        // run inline by the backend's spawn rule.
                        Inst::Call { dst, func, args }
                        | Inst::FutureCall {
                            dst, func, args, ..
                        } => {
                            let top = t.regs.len();
                            for &r in args {
                                t.regs.push(t.regs[base + r]);
                            }
                            let d = depth + 1;
                            t.regs[base + dst] = match inst {
                                Inst::FutureCall { slot, .. } => {
                                    let h =
                                        ctx.future_call_inline(|c| self.call(c, t, *func, top, d));
                                    t.futs[fut + slot] = Some(h);
                                    Value::Int(0)
                                }
                                _ => self.call(ctx, t, *func, top, d),
                            };
                        }
                        Inst::ExternCall { dst, hash, args } => {
                            let h = args.iter().fold(*hash, |h, &r| mix2(h, regs[r].digest()));
                            regs[*dst] = Value::Int((h % 97) as i64);
                        }
                        Inst::Touch { reg, slot } => {
                            if let Some(h) = slot.and_then(|s| t.futs[fut + s].take()) {
                                regs[*reg] = ctx.touch(h);
                            }
                        }
                    }
                }
                let regs = &t.regs[base..];
                match &b.term {
                    Term::Jump(to) => bi = *to,
                    Term::Branch { cond, then_, else_ } => {
                        bi = if regs[*cond].truthy() { *then_ } else { *else_ };
                    }
                    Term::Ret(r) => return r.map_or(Value::Int(0), |r| regs[r]),
                }
            }
        });
        t.regs.truncate(base);
        t.futs.truncate(fut);
        v
    }
}

fn bin_op(op: BinOp, l: Value, r: Value) -> Value {
    // Pointer identity (`p == q` between two pointer registers) compares
    // the references' bits: whether two registers name the same object
    // is a program property, equal on every backend, unlike any ordering
    // or arithmetic over raw addresses (which `as_i64` refuses to leak).
    let (a, b) = match (l, r) {
        (Value::Ptr(p), Value::Ptr(q)) if matches!(op, BinOp::Eq | BinOp::Ne) => {
            (p.bits() as i64, q.bits() as i64)
        }
        _ => (l.as_i64(), r.as_i64()),
    };
    Value::Int(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div | BinOp::Rem if b == 0 => 0,
        BinOp::Div => a.wrapping_div(b),
        BinOp::Rem => a.wrapping_rem(b),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::Lt => i64::from(a < b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::And => i64::from(l.truthy() && r.truthy()),
        BinOp::Or => i64::from(l.truthy() || r.truthy()),
    })
}

/// Build one heap instance of `structs[si]` rooted on `proc`, honoring
/// each pointer field's declared affinity: the child lands on the
/// parent's processor with probability `affinity`, elsewhere uniformly
/// otherwise — so the static cost model's affinity assumptions hold *in
/// distribution* on the actual input data.
fn build_node<B: Backend>(
    ctx: &mut B,
    prog: &IrProgram,
    rng: &mut SplitMix64,
    si: usize,
    proc: usize,
    depth: u32,
    budget: &mut i64,
) -> GPtr {
    if *budget <= 0 || depth >= BUILD_DEPTH {
        return GPtr::NULL;
    }
    *budget -= 1;
    let nprocs = ctx.nprocs();
    let s = &prog.structs[si];
    let p = ctx.alloc(proc as ProcId, s.words);
    for fld in &s.fields {
        if fld.is_pointer {
            let extend = [0.95, 0.80, 0.60, 0.40, 0.20][depth.min(4) as usize];
            let child = match fld.target {
                Some(t) if rng.chance(extend) => {
                    let child_proc = if nprocs > 1 && !rng.chance(fld.affinity) {
                        (proc + 1 + rng.below(nprocs as u64 - 1) as usize) % nprocs
                    } else {
                        proc
                    };
                    build_node(ctx, prog, rng, t, child_proc, depth + 1, budget)
                }
                _ => GPtr::NULL,
            };
            ctx.write(p, fld.word, child, Mechanism::Migrate);
        } else {
            ctx.write(p, fld.word, rng.below(9) as i64 + 1, Mechanism::Migrate);
        }
    }
    p
}

/// Execute a lowered program: build seeded inputs for every function's
/// parameters (uncharged, like the kernels' build phases), invoke each
/// function under a procedure-call boundary, and fold the returns into a
/// checksum. `force` overrides every site's mechanism; `None` executes
/// the live olden-select verdicts.
pub fn run_ir<B: Backend>(
    ctx: &mut B,
    prog: &IrProgram,
    seed: u64,
    fuel: i64,
    force: Option<Mech>,
) -> RunOutcome {
    let run = Run { prog, force };
    let mut rng = SplitMix64::new(mix2(seed, 0x01dead5eed));
    let mut checksum = 0xcbf29ce484222325u64;
    let nprocs = ctx.nprocs();
    // Build phase: *every* function's inputs, before *any* function
    // runs — the kernels' own build-then-compute discipline. This is
    // load-bearing for cross-backend parity, not just style: the
    // builder's uncharged writes bypass the coherence machinery, and
    // heap layout is backend-specific, so an object allocated after some
    // line was cached may share that line on one backend and not the
    // other — making a later cached read see the stale pre-build
    // snapshot on exactly one side. With no allocation after the first
    // charged read, the scenario cannot arise.
    let build = |ty: &IrTy| match *ty {
        IrTy::Int => Value::Int(rng.below(7) as i64 + 1),
        IrTy::Ptr(si) => {
            let root_proc = rng.below(nprocs as u64) as usize;
            Value::Ptr(ctx.uncharged(|c| {
                let mut budget = BUILD_NODES;
                build_node(c, prog, &mut rng, si, root_proc, 0, &mut budget)
            }))
        }
    };
    let params = prog.funcs.iter().flat_map(|f| &f.params);
    let mut args = params.map(build).collect::<Vec<_>>().into_iter();
    let mut t = Thread {
        regs: Vec::new(),
        futs: Vec::new(),
        fuel,
        trips: vec![0; prog.trip_keys.len()],
        halted: false,
    };
    for (fi, f) in prog.funcs.iter().enumerate() {
        t.regs.extend(args.by_ref().take(f.params.len()));
        let v = run.call(ctx, &mut t, fi, 0, 0);
        checksum = mix2(checksum, mix2(fi as u64, v.digest()));
    }
    RunOutcome {
        checksum,
        trips: prog.trip_keys.iter().cloned().zip(t.trips).collect(),
        halted: t.halted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::ctx::OldenCtx;
    use olden_analysis::compile;

    fn run_sim(src: &str, seed: u64) -> (RunOutcome, OldenCtx) {
        let (_, _, ir) = compile(src).unwrap_or_else(|e| panic!("{e}"));
        let mut ctx = OldenCtx::new(Config::olden(4));
        let out = run_ir(&mut ctx, &ir, seed, DEFAULT_FUEL, None);
        (out, ctx)
    }

    /// A hand-checkable program: walk a built list, summing values. The
    /// interpreter must do real heap traffic (checks performed) and
    /// terminate on the builder's null spine end.
    #[test]
    fn list_walk_sums_and_checks() {
        let src = "struct node { node *next @ 80; int v; }\n\
                   int walk(node *p) {\n\
                       s = 0;\n\
                       while (p != null) {\n\
                           s = s + p->v;\n\
                           p = p->next;\n\
                       }\n\
                       return s;\n\
                   }\n";
        let (out, ctx) = run_sim(src, 7);
        assert!(!out.halted);
        assert!(ctx.stats().checks_performed > 0, "real heap traffic");
        let walked = out.trips.iter().find(|(k, _)| k == "walk#0").unwrap().1;
        assert!(walked > 0, "the builder made a non-empty list");
        // Same seed, same everything — the run is a pure function.
        let (again, _) = run_sim(src, 7);
        assert_eq!(out, again);
        // A different seed builds different data.
        let (other, _) = run_sim(src, 8);
        assert_ne!(out.checksum, other.checksum);
    }

    /// Empty future bodies: spawning and touching a future whose body
    /// does nothing is legal and terminates.
    #[test]
    fn empty_future_body_runs() {
        let src = "struct s { s *n; int v; }\n\
                   void nop(s *p) { }\n\
                   int main(s *p) {\n\
                       h = futurecall nop(p);\n\
                       touch h;\n\
                       futurecall nop(p);\n\
                       return 1;\n\
                   }\n";
        let (out, ctx) = run_sim(src, 0);
        assert!(!out.halted);
        assert_eq!(ctx.stats().futures, 2, "both spawns happened");
        assert_eq!(ctx.stats().touches, 1, "fire-and-forget stays untouched");
    }

    /// The checksum `run_ir` folds from the top-level return values.
    fn checksum_of(values: &[i64]) -> u64 {
        values
            .iter()
            .enumerate()
            .fold(0xcbf29ce484222325, |c, (fi, &v)| {
                mix2(c, mix2(fi as u64, v as u64))
            })
    }

    /// A second `futurecall` into the same register before its touch
    /// replaces the first handle: both bodies run, one touch claims the
    /// second body's value. (The `if` makes `h` a maybe-touched int, so
    /// the respawn type-checks; `k` is at least 1.)
    #[test]
    fn respawn_before_touch_claims_the_second_body() {
        let src = "struct s { s *n; int v; }\n\
                   int one(s *p) { return 1; }\n\
                   int two(s *p) { return 2; }\n\
                   int main(s *p, int k) {\n\
                       h = 0;\n\
                       if (k > 0) { h = futurecall one(p); }\n\
                       h = futurecall two(p);\n\
                       touch h;\n\
                       return h;\n\
                   }\n";
        let (out, ctx) = run_sim(src, 4);
        assert!(!out.halted);
        assert_eq!(ctx.stats().futures, 2);
        assert_eq!(ctx.stats().touches, 1);
        assert_eq!(out.checksum, checksum_of(&[1, 2, 2]));
    }

    /// `touch` of a register that never held a future is a no-op: one
    /// some `futurecall` could have written (not on this path), and one
    /// holding an extern's value.
    #[test]
    fn touch_without_a_future_is_a_noop() {
        let src = "struct s { s *n; int v; }\n\
                   int one(s *p) { return 1; }\n\
                   int main(s *p, int k) {\n\
                       x = 5;\n\
                       if (k > 100) { x = futurecall one(p); }\n\
                       touch x;\n\
                       y = ext0(k);\n\
                       touch y;\n\
                       return x;\n\
                   }\n";
        let (out, ctx) = run_sim(src, 4);
        assert!(!out.halted);
        assert_eq!(ctx.stats().futures, 0);
        assert_eq!(ctx.stats().touches, 0);
        assert_eq!(out.checksum, checksum_of(&[1, 5]));
    }

    /// Fire-and-forget futures in a loop: every iteration spawns, none is
    /// touched, and the loop runs to completion.
    #[test]
    fn fire_and_forget_futures_in_a_loop() {
        let src = "struct s { s *n; int v; }\n\
                   int one(s *p) { return 1; }\n\
                   int main(s *p) {\n\
                       i = 0;\n\
                       while (i < 4) { futurecall one(p); i = i + 1; }\n\
                       return i;\n\
                   }\n";
        let (out, ctx) = run_sim(src, 4);
        assert!(!out.halted);
        assert_eq!(ctx.stats().futures, 4);
        assert_eq!(ctx.stats().touches, 0);
        assert_eq!(out.trips, vec![("main#0".to_string(), 4)]);
        assert_eq!(out.checksum, checksum_of(&[1, 4]));
    }

    /// Zero-trip loops: a while whose condition is false on entry
    /// executes no body and measures zero trips.
    #[test]
    fn zero_trip_loop_measures_zero() {
        let src = "struct s { s *n; int v; }\n\
                   int f(s *p) {\n\
                       i = 0;\n\
                       while (i > 0) { i = i - 1; x = p->v; }\n\
                       return i;\n\
                   }\n";
        let (out, ctx) = run_sim(src, 3);
        assert!(!out.halted);
        assert_eq!(out.trips, vec![("f#0".to_string(), 0)]);
        assert_eq!(ctx.stats().checks_performed, 0, "the body load never ran");
    }

    /// Null-based paths (`Unknown`-typed after `p = null`): loads yield
    /// zero, stores are no-ops, and no checks reach the backend.
    #[test]
    fn null_based_paths_are_inert() {
        let src = "struct s { s *n; int v; }\n\
                   int f(s *unused) {\n\
                       p = null;\n\
                       x = p->v;\n\
                       p->v = 9;\n\
                       q = p->n->n->v;\n\
                       return x + q;\n\
                   }\n";
        let (_, _, ir) = compile(src).unwrap();
        let mut ctx = OldenCtx::new(Config::olden(4));
        // Build nothing: pass seed whose builder output is irrelevant —
        // the function ignores its parameter.
        let out = run_ir(&mut ctx, &ir, 0, DEFAULT_FUEL, None);
        assert!(!out.halted);
        assert_eq!(ctx.stats().checks_performed, 0, "null paths skip the heap");
        assert_eq!(ctx.stats().checks_elided, 0);
    }

    /// A generated heap cycle (pointer stores can tie the structure into
    /// a loop) cannot hang the interpreter: fuel cuts the run, and the
    /// cut is seed-deterministic.
    #[test]
    fn heap_cycle_is_cut_by_fuel() {
        let src = "struct s { s *n; int v; }\n\
                   int f(s *p) {\n\
                       p->n = p;\n\
                       s = 0;\n\
                       while (p != null) { s = s + p->v; p = p->n; }\n\
                       return s;\n\
                   }\n";
        let (out, _) = run_sim(src, 1);
        assert!(out.halted, "the self-loop must hit the fuel cut");
        let (again, _) = run_sim(src, 1);
        assert_eq!(out, again, "the cut lands on the same instruction");
    }

    /// Mutual recursion with no data descent terminates via the depth
    /// cap, deterministically.
    #[test]
    fn mutual_recursion_is_cut_by_depth() {
        let src = "struct s { s *n; int v; }\n\
                   int a(s *p) { return b(p); }\n\
                   int b(s *p) { return a(p); }\n";
        let (out, _) = run_sim(src, 2);
        assert!(out.halted);
        let (again, _) = run_sim(src, 2);
        assert_eq!(out, again);
    }

    /// Forcing a mechanism really changes what the backend executes.
    #[test]
    fn forced_mechanism_changes_counters() {
        let src = "struct node { node *next @ 40; int v; }\n\
                   int walk(node *p) {\n\
                       s = 0;\n\
                       while (p != null) { s = s + p->v; p = p->next; }\n\
                       return s;\n\
                   }\n";
        let (_, _, ir) = compile(src).unwrap();
        let run = |force| {
            let mut ctx = OldenCtx::new(Config::olden(4));
            let out = run_ir(&mut ctx, &ir, 11, DEFAULT_FUEL, force);
            (out, ctx.stats().migrations, ctx.cache().stats().misses)
        };
        let (v_m, mig_m, miss_m) = run(Some(Mech::Migrate));
        let (v_c, mig_c, miss_c) = run(Some(Mech::Cache));
        assert_eq!(v_m.checksum, v_c.checksum, "mechanism never changes values");
        assert!(mig_m > 0 && mig_c == 0, "only migrate-forced runs migrate");
        assert!(
            miss_c > 0 && miss_m == 0,
            "only cache-forced runs fetch lines"
        );
    }
}
