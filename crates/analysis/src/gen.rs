//! A seeded generator of well-typed DSL programs (ROADMAP item 5).
//!
//! [`gen_program`] maps a `u64` seed deterministically (via
//! [`olden_rng::SplitMix64`]) to a [`Program`] that:
//!
//! * parses back from its canonical rendering ([`render`]) to the same
//!   AST (up to spans — generated nodes carry [`Span::DUMMY`]);
//! * typechecks cleanly ([`crate::typeck::typecheck`] returns nothing);
//! * exercises the grammar the passes consume — recursive structs with
//!   affinity annotations, tree-recursive and list-walk functions,
//!   nested control loops, `futurecall`/`touch` patterns, stores
//!   (releases), extern calls, and multi-field / multi-base paths.
//!
//! The generator works signature-first: struct layouts and function
//! signatures are fixed before any body is produced, so calls (including
//! recursive and cross-function ones) can always be emitted with correct
//! arity and argument types. Bodies are then grown from a small set of
//! shape templates (guard-return, tree recursion, list walk, counting
//! loop) plus typed filler statements, tracking a variable→type
//! environment so every emitted expression is well-typed by
//! construction.
//!
//! The fuzz harness ([`crate::verify`]) treats this family as an
//! unbounded workload set: every oracle that holds on the ten
//! hand-written benchmarks is re-checked on as many generated programs
//! as the seed range asks for.

use crate::ast::{walk_mut, Expr, FieldDef, FuncDef, NodeMut, Program, Stmt, StructDef, TypeAnn};
use crate::diag::Span;
use olden_rng::SplitMix64;

/// Generate the well-typed program for `seed`. Deterministic: equal
/// seeds give equal programs, on every platform.
pub fn gen_program(seed: u64) -> Program {
    Gen::new(seed).run()
}

/// [`gen_program`] rendered to canonical DSL source.
pub fn gen_source(seed: u64) -> String {
    render(&gen_program(seed))
}

/// A generated value type: the generator only ever manipulates ints and
/// struct pointers (futures appear only in the fixed spawn/touch/use
/// template, so they never live in the environment).
#[derive(Clone, Copy, PartialEq)]
enum GTy {
    Int,
    Ptr(usize),
}

/// A generated return type.
#[derive(Clone, Copy, PartialEq)]
enum Ret {
    Int,
    Void,
    Ptr(usize),
}

struct Sig {
    name: String,
    params: Vec<GTy>,
    ret: Ret,
}

struct Gen {
    rng: SplitMix64,
    structs: Vec<StructDef>,
    sigs: Vec<Sig>,
    /// Fresh-name counter, per function (locals are `l…`/`h…`/`q…`/`i…`
    /// plus the counter, so distinct prefixes can share it).
    ctr: usize,
    /// Extern callee counter, program-global so names stay unique.
    ext: usize,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: SplitMix64::new(seed),
            structs: Vec::new(),
            sigs: Vec::new(),
            ctr: 0,
            ext: 0,
        }
    }

    fn run(&mut self) -> Program {
        self.gen_structs();
        self.gen_sigs();
        let funcs = (0..self.sigs.len()).map(|i| self.gen_func(i)).collect();
        Program {
            structs: self.structs.clone(),
            funcs,
            ..Program::default()
        }
    }

    // ----- declarations --------------------------------------------------

    fn gen_structs(&mut self) {
        let n = 1 + self.rng.below(3) as usize;
        let mut fctr = 0usize;
        let mut vctr = 0usize;
        for i in 0..n {
            let mut fields = Vec::new();
            let nptr = 1 + self.rng.below(2) as usize;
            for j in 0..nptr {
                // The first field of struct 0 always points back at
                // struct 0, so a recursive spine is guaranteed.
                let target = if i == 0 && j == 0 {
                    0
                } else {
                    self.rng.below(n as u64) as usize
                };
                let affinity = if self.rng.chance(0.6) {
                    // Integer percentages only, so the `@ NN` rendering
                    // round-trips exactly.
                    Some((40 + self.rng.below(61)) as f64 / 100.0)
                } else {
                    None
                };
                fields.push(FieldDef {
                    name: format!("f{fctr}"),
                    ty: format!("s{target}"),
                    is_pointer: true,
                    affinity,
                });
                fctr += 1;
            }
            let nint = 1 + self.rng.below(2) as usize;
            for _ in 0..nint {
                fields.push(FieldDef {
                    name: format!("v{vctr}"),
                    ty: "int".into(),
                    is_pointer: false,
                    affinity: None,
                });
                vctr += 1;
            }
            self.structs.push(StructDef {
                name: format!("s{i}"),
                fields,
            });
        }
    }

    fn gen_sigs(&mut self) {
        let nfuncs = 2 + self.rng.below(3) as usize;
        let nstructs = self.structs.len() as u64;
        // Function 0 is the anchor: int-returning over the recursive
        // struct, so the tree-recursion template always has a home.
        self.sigs.push(Sig {
            name: "g0".into(),
            params: vec![GTy::Ptr(0)],
            ret: Ret::Int,
        });
        for i in 1..nfuncs {
            let ret = match self.rng.below(3) {
                0 => Ret::Int,
                1 => Ret::Void,
                _ => Ret::Ptr(self.rng.below(nstructs) as usize),
            };
            let nparams = 1 + self.rng.below(2) as usize;
            let params = (0..nparams)
                .map(|_| {
                    if self.rng.chance(0.7) {
                        GTy::Ptr(self.rng.below(nstructs) as usize)
                    } else {
                        GTy::Int
                    }
                })
                .collect();
            self.sigs.push(Sig {
                name: format!("g{i}"),
                params,
                ret,
            });
        }
    }

    // ----- struct queries ------------------------------------------------

    /// A pointer field of struct `s` that points back at `s`, if any.
    fn self_field(&self, s: usize) -> Option<&FieldDef> {
        let me = &self.structs[s].name;
        self.structs[s]
            .fields
            .iter()
            .find(|f| f.is_pointer && f.ty == *me)
    }

    /// Some int field of struct `s` (every generated struct has one).
    fn int_field(&self, s: usize) -> &FieldDef {
        self.structs[s]
            .fields
            .iter()
            .find(|f| !f.is_pointer)
            .expect("every generated struct has an int field")
    }

    /// A pointer field of struct `s` and the index of its target.
    fn ptr_field(&self, s: usize, k: usize) -> (&FieldDef, usize) {
        let ptrs: Vec<&FieldDef> = self.structs[s]
            .fields
            .iter()
            .filter(|f| f.is_pointer)
            .collect();
        let fd = ptrs[k % ptrs.len()];
        let target = self
            .structs
            .iter()
            .position(|sd| sd.name == fd.ty)
            .expect("pointer fields target generated structs");
        (fd, target)
    }

    // ----- typed expressions ---------------------------------------------

    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.ctr;
        self.ctr += 1;
        format!("{prefix}{n}")
    }

    fn int_var(&mut self, env: &[(String, GTy)]) -> Option<String> {
        let ints: Vec<&String> = env
            .iter()
            .filter(|(_, t)| *t == GTy::Int)
            .map(|(n, _)| n)
            .collect();
        if ints.is_empty() {
            None
        } else {
            Some(ints[self.rng.below(ints.len() as u64) as usize].clone())
        }
    }

    fn ptr_var(&mut self, env: &[(String, GTy)]) -> Option<(String, usize)> {
        let ptrs: Vec<(&String, usize)> = env
            .iter()
            .filter_map(|(n, t)| match t {
                GTy::Ptr(s) => Some((n, *s)),
                GTy::Int => None,
            })
            .collect();
        if ptrs.is_empty() {
            None
        } else {
            let (n, s) = ptrs[self.rng.below(ptrs.len() as u64) as usize];
            Some((n.clone(), s))
        }
    }

    fn ptr_var_of(&mut self, env: &[(String, GTy)], s: usize) -> Option<String> {
        let ptrs: Vec<&String> = env
            .iter()
            .filter(|(_, t)| *t == GTy::Ptr(s))
            .map(|(n, _)| n)
            .collect();
        if ptrs.is_empty() {
            None
        } else {
            Some(ptrs[self.rng.below(ptrs.len() as u64) as usize].clone())
        }
    }

    /// An `int`-typed expression over `env`.
    fn int_expr(&mut self, env: &[(String, GTy)], depth: usize) -> Expr {
        let choice = self.rng.below(5);
        match choice {
            0 | 1 => Expr::Int(self.rng.below(10) as i64),
            2 => match self.int_var(env) {
                Some(v) => Expr::Var(v),
                None => Expr::Int(self.rng.below(10) as i64),
            },
            3 => match self.ptr_var(env) {
                // A (possibly multi-field) int-valued path: ptr fields
                // then a final int field.
                Some((base, s)) => {
                    let mut fields = Vec::new();
                    let mut cur = s;
                    if self.rng.chance(0.4) {
                        let k = self.rng.below(4) as usize;
                        let (fd, target) = self.ptr_field(cur, k);
                        fields.push(fd.name.clone());
                        cur = target;
                    }
                    fields.push(self.int_field(cur).name.clone());
                    Expr::Path {
                        base,
                        fields,
                        span: Span::DUMMY,
                    }
                }
                None => Expr::Int(self.rng.below(10) as i64),
            },
            _ if depth > 0 => {
                let ops = ["+", "-", "*", "%"];
                let op = ops[self.rng.below(ops.len() as u64) as usize];
                Expr::Binary {
                    op: op.into(),
                    lhs: Box::new(self.int_expr(env, depth - 1)),
                    rhs: Box::new(self.int_expr(env, depth - 1)),
                }
            }
            _ => Expr::Int(self.rng.below(10) as i64),
        }
    }

    /// A pointer-typed expression of struct `s` over `env`.
    fn ptr_expr(&mut self, env: &[(String, GTy)], s: usize) -> Expr {
        if self.rng.chance(0.7) {
            if let Some(v) = self.ptr_var_of(env, s) {
                // Maybe step through a field that lands back on `s`.
                if self.rng.chance(0.4) {
                    if let Some(fd) = self.self_field(s) {
                        return Expr::Path {
                            base: v,
                            fields: vec![fd.name.clone()],
                            span: Span::DUMMY,
                        };
                    }
                }
                return Expr::Var(v);
            }
        }
        Expr::Null
    }

    /// Arguments matching `self.sigs[j]`'s declared parameter types.
    fn args_for(&mut self, j: usize, env: &[(String, GTy)]) -> Vec<Expr> {
        let ptys = self.sigs[j].params.clone();
        ptys.iter()
            .map(|t| match t {
                GTy::Int => self.int_expr(env, 0),
                GTy::Ptr(s) => self.ptr_expr(env, *s),
            })
            .collect()
    }

    // ----- statements ----------------------------------------------------

    fn assign(dst: String, src: Expr) -> Stmt {
        Stmt::Assign {
            dst,
            src,
            span: Span::DUMMY,
        }
    }

    /// A batch of well-typed filler statements, extending `env` with any
    /// locals it introduces.
    fn filler(&mut self, env: &mut Vec<(String, GTy)>, out: &mut Vec<Stmt>) {
        match self.rng.below(7) {
            // Int local.
            0 => {
                let v = self.fresh("l");
                let e = self.int_expr(env, 1);
                out.push(Gen::assign(v.clone(), e));
                env.push((v, GTy::Int));
            }
            // Pointer local.
            1 => {
                let s = self.rng.below(self.structs.len() as u64) as usize;
                let v = self.fresh("q");
                let e = self.ptr_expr(env, s);
                out.push(Gen::assign(v.clone(), e));
                env.push((v, GTy::Ptr(s)));
            }
            // Store (a release): through an int or pointer field.
            2 => {
                if let Some((base, s)) = self.ptr_var(env) {
                    if self.rng.chance(0.6) {
                        let f = self.int_field(s).name.clone();
                        let e = self.int_expr(env, 1);
                        out.push(Stmt::Store {
                            base,
                            fields: vec![f],
                            src: e,
                            span: Span::DUMMY,
                        });
                    } else {
                        let k = self.rng.below(4) as usize;
                        let (fd, target) = self.ptr_field(s, k);
                        let fname = fd.name.clone();
                        let e = self.ptr_expr(env, target);
                        out.push(Stmt::Store {
                            base,
                            fields: vec![fname],
                            src: e,
                            span: Span::DUMMY,
                        });
                    }
                }
            }
            // Extern call: unconstrained callee, result treated as int.
            3 => {
                let v = self.fresh("l");
                let name = format!("ext{}", self.ext);
                self.ext += 1;
                let mut args = vec![self.int_expr(env, 0)];
                if let Some((p, _)) = self.ptr_var(env) {
                    args.insert(0, Expr::Var(p));
                }
                out.push(Gen::assign(
                    v.clone(),
                    Expr::Call {
                        func: name,
                        args,
                        future: false,
                        span: Span::DUMMY,
                    },
                ));
                env.push((v, GTy::Int));
            }
            // Known call, arity- and type-correct: fused future for int
            // callees, bare (maybe future) call for void callees.
            4 => {
                let j = self.rng.below(self.sigs.len() as u64) as usize;
                match self.sigs[j].ret {
                    Ret::Int => {
                        let args = self.args_for(j, env);
                        let callee = self.sigs[j].name.clone();
                        let h = self.fresh("h");
                        if self.rng.chance(0.6) {
                            // Spawn, overlap with independent work, then
                            // touch and use — the §2 future idiom.
                            out.push(Gen::assign(
                                h.clone(),
                                Expr::Call {
                                    func: callee,
                                    args,
                                    future: true,
                                    span: Span::DUMMY,
                                },
                            ));
                            let l = self.fresh("l");
                            let e = self.int_expr(env, 1);
                            out.push(Gen::assign(l.clone(), e));
                            env.push((l.clone(), GTy::Int));
                            out.push(Stmt::Touch {
                                var: h.clone(),
                                span: Span::DUMMY,
                            });
                            let u = self.fresh("l");
                            out.push(Gen::assign(
                                u.clone(),
                                Expr::Binary {
                                    op: "+".into(),
                                    lhs: Box::new(Expr::Var(h.clone())),
                                    rhs: Box::new(Expr::Var(l)),
                                },
                            ));
                            env.push((h, GTy::Int));
                            env.push((u, GTy::Int));
                        } else {
                            out.push(Gen::assign(
                                h.clone(),
                                Expr::Call {
                                    func: callee,
                                    args,
                                    future: false,
                                    span: Span::DUMMY,
                                },
                            ));
                            env.push((h, GTy::Int));
                        }
                    }
                    Ret::Void => {
                        let args = self.args_for(j, env);
                        let callee = self.sigs[j].name.clone();
                        // Fire-and-forget futures are part of the
                        // benchmark idiom (health, barneshut).
                        let future = self.rng.chance(0.5);
                        out.push(Stmt::ExprStmt(Expr::Call {
                            func: callee,
                            args,
                            future,
                            span: Span::DUMMY,
                        }));
                    }
                    Ret::Ptr(s) => {
                        let args = self.args_for(j, env);
                        let callee = self.sigs[j].name.clone();
                        let q = self.fresh("q");
                        out.push(Gen::assign(
                            q.clone(),
                            Expr::Call {
                                func: callee,
                                args,
                                future: false,
                                span: Span::DUMMY,
                            },
                        ));
                        env.push((q, GTy::Ptr(s)));
                    }
                }
            }
            // Multi-base field product: reads off two different bases in
            // one expression.
            5 => {
                if let Some((a, sa)) = self.ptr_var(env) {
                    if let Some((b, sb)) = self.ptr_var(env) {
                        let v = self.fresh("l");
                        let fa = self.int_field(sa).name.clone();
                        let fb = self.int_field(sb).name.clone();
                        out.push(Gen::assign(
                            v.clone(),
                            Expr::Binary {
                                op: "+".into(),
                                lhs: Box::new(Expr::Path {
                                    base: a,
                                    fields: vec![fa],
                                    span: Span::DUMMY,
                                }),
                                rhs: Box::new(Expr::Path {
                                    base: b,
                                    fields: vec![fb],
                                    span: Span::DUMMY,
                                }),
                            },
                        ));
                        env.push((v, GTy::Int));
                    }
                }
            }
            // Conditional over an int or pointer test.
            _ => {
                let cond = if self.rng.chance(0.5) {
                    match self.ptr_var(env) {
                        Some((p, _)) => Expr::Binary {
                            op: "!=".into(),
                            lhs: Box::new(Expr::Var(p)),
                            rhs: Box::new(Expr::Null),
                        },
                        None => self.int_expr(env, 0),
                    }
                } else {
                    Expr::Binary {
                        op: "<".into(),
                        lhs: Box::new(self.int_expr(env, 0)),
                        rhs: Box::new(self.int_expr(env, 0)),
                    }
                };
                // Branch bodies only mutate locals they introduce, so
                // the join environments always agree.
                let mut then_ = Vec::new();
                let mut tenv = env.clone();
                let v = self.fresh("l");
                let e1 = self.int_expr(&tenv, 1);
                then_.push(Gen::assign(v.clone(), e1));
                tenv.push((v.clone(), GTy::Int));
                let else_ = if self.rng.chance(0.5) {
                    vec![Gen::assign(v, self.int_expr(env, 1))]
                } else {
                    Vec::new()
                };
                out.push(Stmt::If { cond, then_, else_ });
            }
        }
    }

    /// The tree-recursion template over function `i` (Figure 4's shape):
    /// guard, spawn a recursive future on one spine field, recurse
    /// plainly on another, touch, combine.
    fn tree_recursion(&mut self, i: usize, env: &mut Vec<(String, GTy)>, out: &mut Vec<Stmt>) {
        let p = env[0].0.clone();
        let GTy::Ptr(s) = env[0].1 else {
            unreachable!()
        };
        let Some(spine) = self.self_field(s).map(|f| f.name.clone()) else {
            return;
        };
        out.push(Stmt::If {
            cond: Expr::Binary {
                op: "==".into(),
                lhs: Box::new(Expr::Var(p.clone())),
                rhs: Box::new(Expr::Null),
            },
            then_: vec![Stmt::Return(Some(Expr::Int(0)))],
            else_: Vec::new(),
        });
        let step = |_g: &mut Gen, field: &str| Expr::Path {
            base: p.clone(),
            fields: vec![field.to_string()],
            span: Span::DUMMY,
        };
        // Second spine field if the struct has one (distinct recursion
        // arms, like left/right), else reuse the first.
        let arm2 = self.structs[s]
            .fields
            .iter()
            .filter(|f| f.is_pointer && f.ty == self.structs[s].name)
            .nth(1)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| spine.clone());
        let mut spawn_args = vec![step(self, &spine)];
        let mut plain_args = vec![step(self, &arm2)];
        for t in self.sigs[i].params.clone().iter().skip(1) {
            spawn_args.push(match t {
                GTy::Int => self.int_expr(env, 0),
                GTy::Ptr(k) => self.ptr_expr(env, *k),
            });
            plain_args.push(match t {
                GTy::Int => self.int_expr(env, 0),
                GTy::Ptr(k) => self.ptr_expr(env, *k),
            });
        }
        let callee = self.sigs[i].name.clone();
        let h = self.fresh("h");
        let l = self.fresh("l");
        out.push(Gen::assign(
            h.clone(),
            Expr::Call {
                func: callee.clone(),
                args: spawn_args,
                future: true,
                span: Span::DUMMY,
            },
        ));
        out.push(Gen::assign(
            l.clone(),
            Expr::Call {
                func: callee,
                args: plain_args,
                future: false,
                span: Span::DUMMY,
            },
        ));
        out.push(Stmt::Touch {
            var: h.clone(),
            span: Span::DUMMY,
        });
        let vfield = self.int_field(s).name.clone();
        let u = self.fresh("l");
        out.push(Gen::assign(
            u.clone(),
            Expr::Binary {
                op: "+".into(),
                lhs: Box::new(Expr::Binary {
                    op: "+".into(),
                    lhs: Box::new(Expr::Var(h.clone())),
                    rhs: Box::new(Expr::Var(l.clone())),
                }),
                rhs: Box::new(Expr::Path {
                    base: p,
                    fields: vec![vfield],
                    span: Span::DUMMY,
                }),
            },
        ));
        env.push((h, GTy::Int));
        env.push((l, GTy::Int));
        env.push((u, GTy::Int));
    }

    /// The list-walk template: accumulate over a spine, stepping the
    /// pointer parameter — the classic induction-variable shape the §4
    /// update matrices are built for.
    fn list_walk(&mut self, env: &mut Vec<(String, GTy)>, out: &mut Vec<Stmt>) {
        let Some((p, s)) = self.ptr_var(env) else {
            return;
        };
        let Some(spine) = self.self_field(s).map(|f| f.name.clone()) else {
            return;
        };
        let acc = self.fresh("l");
        out.push(Gen::assign(acc.clone(), Expr::Int(0)));
        env.push((acc.clone(), GTy::Int));
        let vfield = self.int_field(s).name.clone();
        let mut body = vec![Gen::assign(
            acc.clone(),
            Expr::Binary {
                op: "+".into(),
                lhs: Box::new(Expr::Var(acc.clone())),
                rhs: Box::new(Expr::Path {
                    base: p.clone(),
                    fields: vec![vfield.clone()],
                    span: Span::DUMMY,
                }),
            },
        )];
        if self.rng.chance(0.5) {
            // A release inside the loop.
            body.push(Stmt::Store {
                base: p.clone(),
                fields: vec![vfield],
                src: Expr::Var(acc.clone()),
                span: Span::DUMMY,
            });
        }
        body.push(Gen::assign(
            p.clone(),
            Expr::Path {
                base: p.clone(),
                fields: vec![spine],
                span: Span::DUMMY,
            },
        ));
        out.push(Stmt::While {
            cond: Expr::Binary {
                op: "!=".into(),
                lhs: Box::new(Expr::Var(p)),
                rhs: Box::new(Expr::Null),
            },
            body,
        });
    }

    /// A bounded counting loop, optionally with a nested conditional or
    /// inner loop — the nested-control-structure coverage.
    fn count_loop(&mut self, env: &mut Vec<(String, GTy)>, out: &mut Vec<Stmt>) {
        let i = self.fresh("i");
        let acc = self.fresh("l");
        out.push(Gen::assign(i.clone(), Expr::Int(0)));
        out.push(Gen::assign(acc.clone(), Expr::Int(0)));
        env.push((i.clone(), GTy::Int));
        env.push((acc.clone(), GTy::Int));
        let bound = 2 + self.rng.below(7) as i64;
        let mut body = Vec::new();
        let mut benv = env.clone();
        match self.rng.below(3) {
            0 => {
                // Nested conditional on parity.
                body.push(Stmt::If {
                    cond: Expr::Binary {
                        op: "==".into(),
                        lhs: Box::new(Expr::Binary {
                            op: "%".into(),
                            lhs: Box::new(Expr::Var(i.clone())),
                            rhs: Box::new(Expr::Int(2)),
                        }),
                        rhs: Box::new(Expr::Int(0)),
                    },
                    then_: vec![Gen::assign(
                        acc.clone(),
                        Expr::Binary {
                            op: "+".into(),
                            lhs: Box::new(Expr::Var(acc.clone())),
                            rhs: Box::new(Expr::Var(i.clone())),
                        },
                    )],
                    else_: Vec::new(),
                });
            }
            1 => {
                // Nested inner loop.
                let j = self.fresh("i");
                body.push(Gen::assign(j.clone(), Expr::Int(0)));
                body.push(Stmt::While {
                    cond: Expr::Binary {
                        op: "<".into(),
                        lhs: Box::new(Expr::Var(j.clone())),
                        rhs: Box::new(Expr::Int(2 + self.rng.below(4) as i64)),
                    },
                    body: vec![
                        Gen::assign(
                            acc.clone(),
                            Expr::Binary {
                                op: "+".into(),
                                lhs: Box::new(Expr::Var(acc.clone())),
                                rhs: Box::new(Expr::Int(1)),
                            },
                        ),
                        Gen::assign(
                            j.clone(),
                            Expr::Binary {
                                op: "+".into(),
                                lhs: Box::new(Expr::Var(j)),
                                rhs: Box::new(Expr::Int(1)),
                            },
                        ),
                    ],
                });
            }
            _ => {
                self.filler(&mut benv, &mut body);
            }
        }
        body.push(Gen::assign(
            i.clone(),
            Expr::Binary {
                op: "+".into(),
                lhs: Box::new(Expr::Var(i.clone())),
                rhs: Box::new(Expr::Int(1)),
            },
        ));
        out.push(Stmt::While {
            cond: Expr::Binary {
                op: "<".into(),
                lhs: Box::new(Expr::Var(i)),
                rhs: Box::new(Expr::Int(bound)),
            },
            body,
        });
    }

    fn gen_func(&mut self, i: usize) -> FuncDef {
        self.ctr = 0;
        let params: Vec<String> = (0..self.sigs[i].params.len())
            .map(|j| format!("p{j}"))
            .collect();
        let param_tys: Vec<TypeAnn> = self.sigs[i]
            .params
            .iter()
            .map(|t| match t {
                GTy::Int => TypeAnn::int(),
                GTy::Ptr(s) => TypeAnn::ptr(format!("s{s}")),
            })
            .collect();
        let ret_ann = match self.sigs[i].ret {
            Ret::Int => TypeAnn::int(),
            Ret::Void => TypeAnn::void(),
            Ret::Ptr(s) => TypeAnn::ptr(format!("s{s}")),
        };
        let mut env: Vec<(String, GTy)> = params
            .iter()
            .cloned()
            .zip(self.sigs[i].params.iter().copied())
            .collect();
        let mut body = Vec::new();
        let ret = self.sigs[i].ret;

        // Main shape. Function 0 always gets the recursive template so
        // the future/touch machinery is exercised on every seed.
        let recursive_home = matches!(env.first(), Some((_, GTy::Ptr(s))) if self.self_field(*s).is_some())
            && ret == Ret::Int;
        if i == 0 || (recursive_home && self.rng.chance(0.4)) {
            self.tree_recursion(i, &mut env, &mut body);
        } else {
            match self.rng.below(3) {
                0 => self.list_walk(&mut env, &mut body),
                1 => self.count_loop(&mut env, &mut body),
                _ => {}
            }
        }

        // Typed filler.
        let nfill = self.rng.below(3) as usize;
        for _ in 0..nfill {
            self.filler(&mut env, &mut body);
        }

        // Final return, matching the declared type. (Returns only ever
        // appear in a guard's then-branch or here, in tail position, so
        // the CFG has no unreachable blocks.)
        match ret {
            Ret::Int => {
                let e = self.int_expr(&env, 1);
                body.push(Stmt::Return(Some(e)));
            }
            Ret::Void => {
                if self.rng.chance(0.3) {
                    body.push(Stmt::Return(None));
                }
            }
            Ret::Ptr(s) => {
                let e = self.ptr_expr(&env, s);
                body.push(Stmt::Return(Some(e)));
            }
        }
        FuncDef {
            name: self.sigs[i].name.clone(),
            params,
            param_tys,
            ret: ret_ann,
            body,
        }
    }
}

// ----- canonical rendering ------------------------------------------------

/// Render a program to canonical DSL source. For generated programs the
/// rendering reparses to the same AST ([`strip_spans`] both sides); for
/// arbitrary parsed programs it is idempotent after one round
/// (render∘parse∘render = render).
pub fn render(p: &Program) -> String {
    let mut out = String::new();
    for s in &p.structs {
        out.push_str(&format!("struct {} {{\n", s.name));
        for f in &s.fields {
            if f.is_pointer {
                out.push_str(&format!("    {} *{}", f.ty, f.name));
                if let Some(a) = f.affinity {
                    out.push_str(&format!(" @ {}", (a * 100.0).round() as i64));
                }
            } else {
                out.push_str(&format!("    {} {}", f.ty, f.name));
            }
            out.push_str(";\n");
        }
        out.push_str("};\n\n");
    }
    for f in &p.funcs {
        let ret = if f.ret.is_pointer {
            format!("{} *", f.ret.name)
        } else {
            format!("{} ", f.ret.name)
        };
        let params: Vec<String> = f
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let ann = f.param_tys.get(i);
                match ann {
                    Some(a) if a.is_pointer => format!("{} *{}", a.name, p),
                    Some(a) => format!("{} {}", a.name, p),
                    None => format!("int {p}"),
                }
            })
            .collect();
        out.push_str(&format!("{ret}{}({}) {{\n", f.name, params.join(", ")));
        render_stmts(&f.body, 1, &mut out);
        out.push_str("}\n\n");
    }
    out
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn render_stmts(stmts: &[Stmt], level: usize, out: &mut String) {
    for s in stmts {
        render_stmt(s, level, out);
    }
}

fn render_stmt(s: &Stmt, level: usize, out: &mut String) {
    match s {
        Stmt::Assign { dst, src, .. } => {
            indent(level, out);
            out.push_str(&format!("{dst} = {};\n", render_expr(src)));
        }
        Stmt::Store {
            base, fields, src, ..
        } => {
            indent(level, out);
            out.push_str(&format!(
                "{base}->{} = {};\n",
                fields.join("->"),
                render_expr(src)
            ));
        }
        Stmt::If { cond, then_, else_ } => {
            indent(level, out);
            out.push_str(&format!("if ({}) {{\n", render_expr(cond)));
            render_stmts(then_, level + 1, out);
            indent(level, out);
            if else_.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                render_stmts(else_, level + 1, out);
                indent(level, out);
                out.push_str("}\n");
            }
        }
        Stmt::While { cond, body } => {
            indent(level, out);
            out.push_str(&format!("while ({}) {{\n", render_expr(cond)));
            render_stmts(body, level + 1, out);
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::ExprStmt(e) => {
            indent(level, out);
            out.push_str(&format!("{};\n", render_expr(e)));
        }
        Stmt::Touch { var, .. } => {
            indent(level, out);
            out.push_str(&format!("touch {var};\n"));
        }
        Stmt::Return(e) => {
            indent(level, out);
            match e {
                Some(e) => out.push_str(&format!("return {};\n", render_expr(e))),
                None => out.push_str("return;\n"),
            }
        }
    }
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Int(n) => n.to_string(),
        Expr::Null => "null".into(),
        Expr::Var(v) => v.clone(),
        Expr::Path { base, fields, .. } => format!("{base}->{}", fields.join("->")),
        Expr::Call {
            func, args, future, ..
        } => {
            let args: Vec<String> = args.iter().map(render_expr).collect();
            let kw = if *future { "futurecall " } else { "" };
            format!("{kw}{func}({})", args.join(", "))
        }
        // Fully parenthesized, so precedence never matters on reparse.
        Expr::Binary { op, lhs, rhs } => {
            format!("({} {op} {})", render_expr(lhs), render_expr(rhs))
        }
        Expr::Unary { op, arg } => format!("{op}({})", render_expr(arg)),
    }
}

// ----- span erasure -------------------------------------------------------

/// A copy of `p` with every span replaced by [`Span::DUMMY`] — the
/// equality the pretty-print→reparse round-trip oracle compares under
/// (generated ASTs carry no source positions; reparsed ones do).
pub fn strip_spans(p: &Program) -> Program {
    let mut out = p.clone();
    for f in &mut out.funcs {
        walk_mut(&mut f.body, &mut |node| {
            match node {
                NodeMut::Stmt(
                    Stmt::Assign { span, .. } | Stmt::Store { span, .. } | Stmt::Touch { span, .. },
                )
                | NodeMut::Expr(Expr::Path { span, .. } | Expr::Call { span, .. }) => {
                    *span = Span::DUMMY
                }
                _ => {}
            }
            false
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typeck::typecheck;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 7, 42, 0xdead_beef] {
            assert_eq!(gen_source(seed), gen_source(seed));
            assert_eq!(gen_program(seed), gen_program(seed));
        }
        // Different seeds almost surely differ; check a couple.
        assert_ne!(gen_source(0), gen_source(1));
    }

    #[test]
    fn generated_programs_round_trip() {
        for seed in 0..60u64 {
            let gp = gen_program(seed);
            let src = render(&gp);
            let reparsed = parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert_eq!(strip_spans(&reparsed), gp, "seed {seed}\n{src}");
        }
    }

    #[test]
    fn generated_programs_typecheck() {
        for seed in 0..60u64 {
            let src = gen_source(seed);
            let p = parse(&src).unwrap();
            let diags = typecheck(&p);
            assert!(diags.is_empty(), "seed {seed}: {diags:#?}\n{src}");
        }
    }

    #[test]
    fn generator_covers_the_grammar() {
        let (mut whiles, mut ifs, mut stores, mut touches, mut futures, mut multi) =
            (0, 0, 0, 0, 0, 0);
        for seed in 0..60u64 {
            let p = gen_program(seed);
            for f in &p.funcs {
                crate::ast::walk_stmts(&f.body, &mut |s| {
                    match s {
                        Stmt::While { .. } => whiles += 1,
                        Stmt::If { .. } => ifs += 1,
                        Stmt::Store { .. } => stores += 1,
                        Stmt::Touch { .. } => touches += 1,
                        _ => {}
                    }
                    s.exprs(&mut |e| match e {
                        Expr::Call { future: true, .. } => futures += 1,
                        Expr::Path { fields, .. } if fields.len() > 1 => multi += 1,
                        _ => {}
                    });
                });
            }
        }
        assert!(whiles > 0, "no loops generated");
        assert!(ifs > 0, "no conditionals generated");
        assert!(stores > 0, "no stores generated");
        assert!(touches > 0, "no touches generated");
        assert!(futures > 0, "no futures generated");
        assert!(multi > 0, "no multi-field paths generated");
    }

    #[test]
    fn render_is_idempotent_on_benchmarks() {
        // For any parsed program: render, reparse, render again — the
        // two renderings must be byte-identical.
        let src = "struct tree { tree *left @ 90; tree *right @ 70; int val; };
                   int TreeAdd(tree *t) {
                       if (t == null) { return 0; }
                       else {
                           int lv = futurecall TreeAdd(t->left);
                           int rv = TreeAdd(t->right);
                           touch lv;
                           return lv + rv + t->val;
                       }
                   }";
        let p1 = parse(src).unwrap();
        let r1 = render(&p1);
        let p2 = parse(&r1).unwrap();
        assert_eq!(render(&p2), r1);
        assert_eq!(strip_spans(&p2), strip_spans(&p1));
    }
}
