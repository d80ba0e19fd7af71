//! A flow-sensitive typechecker for the DSL — the front gate run before
//! racecheck/opt/select.
//!
//! The untyped analyses infer pointer-ness from use; this pass instead
//! *enforces* the declarations the parser records ([`TypeAnn`] on
//! functions, `ty` on fields) so that generated and hand-written
//! programs alike are known to mean what the passes assume:
//!
//! * **Struct/field/pointer types** — every declared type resolves
//!   (`TC001`), every path step names a real field (`TC002`) and only
//!   dereferences pointers (`TC003`), stores match the field's type
//!   (`TC009`).
//! * **Call discipline** — known callees are checked for arity (`TC004`)
//!   and per-argument type (`TC005`); unknown callees are externs, whose
//!   results are unconstrained (mirroring racecheck's extern model).
//! * **Well-structured futures** — `h = futurecall f(…)` makes `h` a
//!   future handle of `f`'s return type; the handle's value exists only
//!   after `touch h`. Using or overwriting an un-touched handle is
//!   `TC008`, touching a non-future is `TC006`, definitely touching
//!   twice is `TC007`. A `touch` on only one branch of an `if` leaves
//!   the handle *maybe-touched*: a later touch is the first touch on
//!   some path, so it is allowed (matching racecheck's conservative
//!   in-flight merge).
//! * **Loop induction-variable discipline** — types are joined over
//!   branch merges and loop back edges to a fixpoint; a variable whose
//!   merged types are irreconcilable (e.g. `x = x->f` stepping to a
//!   different struct each iteration) is `TC009` at its next use.
//!
//! All diagnostics are `Severity::Error` with stable `TC0xx` codes from
//! [`crate::diag::codes`], rendered through the same [`Diagnostic`]
//! framework as the racecheck `RC0xx` findings.

use crate::ast::{Expr, FuncDef, Program, Stmt, StructDef, TypeAnn};
use crate::diag::{codes, Diagnostic, Severity, Span};
use crate::parser::{parse, ParseError};
use std::collections::{HashMap, HashSet};

/// A value type, as inferred flow-sensitively.
#[derive(Clone, Debug, PartialEq)]
pub enum Ty {
    Int,
    /// Pointer to the named (declared) struct.
    Ptr(String),
    /// The null literal: joins with any pointer type.
    Null,
    /// The "result" of a void function.
    Void,
    /// An un-touched future handle; the payload is the value type the
    /// `touch` will produce.
    Future(Box<Ty>),
    /// Unconstrained: extern call results and error recovery.
    Unknown,
    /// Irreconcilable types met at a join; the strings are the two
    /// renderings, kept for the diagnostic at the next use.
    Conflict(String, String),
}

impl Ty {
    fn render(&self) -> String {
        match self {
            Ty::Int => "int".into(),
            Ty::Ptr(s) => format!("{s} *"),
            Ty::Null => "null".into(),
            Ty::Void => "void".into(),
            Ty::Future(inner) => format!("future<{}>", inner.render()),
            Ty::Unknown => "?".into(),
            Ty::Conflict(a, b) => format!("{a} vs {b}"),
        }
    }
}

/// Whether a variable that once held a future has been touched.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Touched {
    No,
    /// Touched on some but not all paths to here.
    Maybe,
    /// Touched on every path.
    Yes,
}

#[derive(Clone, Debug, PartialEq)]
struct VarInfo {
    ty: Ty,
    touched: Touched,
}

type Env = HashMap<String, VarInfo>;

/// Typecheck a whole program. Diagnostics come out sorted by (span,
/// code, message) like [`crate::racecheck::racecheck`]'s.
pub fn typecheck(prog: &Program) -> Vec<Diagnostic> {
    let mut ck = Checker {
        structs: prog.struct_map(),
        funcs: prog.funcs.iter().map(|f| (f.name.as_str(), f)).collect(),
        diags: Vec::new(),
        seen: HashSet::new(),
        report: true,
        assigned: HashSet::new(),
        ret: Ty::Void,
        anchor: Span::DUMMY,
    };
    ck.check_decls(prog);
    for f in &prog.funcs {
        ck.check_func(f);
    }
    let mut out = ck.diags;
    out.sort_by(|a, b| {
        (a.span, a.code, &a.message)
            .partial_cmp(&(b.span, b.code, &b.message))
            .expect("total order")
    });
    out
}

/// Parse then typecheck DSL source.
pub fn typecheck_src(src: &str) -> Result<Vec<Diagnostic>, ParseError> {
    Ok(typecheck(&parse(src)?))
}

struct Checker<'a> {
    structs: HashMap<&'a str, &'a StructDef>,
    funcs: HashMap<&'a str, &'a FuncDef>,
    diags: Vec<Diagnostic>,
    seen: HashSet<(&'static str, Span, String)>,
    /// False while iterating loop bodies to a fixpoint (diagnostics
    /// would be emitted from pre-fixpoint environments, and repeatedly).
    report: bool,
    /// Names that are a parameter of, or assigned somewhere in, the
    /// current function — anything else is `TC012` at use.
    assigned: HashSet<String>,
    /// Declared return type of the current function.
    ret: Ty,
    /// Span of the statement being checked, used for expression-level
    /// diagnostics on nodes that carry no span of their own.
    anchor: Span,
}

impl<'a> Checker<'a> {
    fn emit(&mut self, code: &'static str, span: Span, message: String) {
        if self.report && self.seen.insert((code, span, message.clone())) {
            self.diags
                .push(Diagnostic::new(code, Severity::Error, span, message));
        }
    }

    /// Resolve a declared annotation to a value type, reporting `TC001`
    /// for names that do not resolve. `where_` names the declaration
    /// site for the message.
    fn resolve_ann(&mut self, ann: &TypeAnn, where_: &str) -> Ty {
        if ann.is_pointer {
            if self.structs.contains_key(ann.name.as_str()) {
                Ty::Ptr(ann.name.clone())
            } else {
                self.emit(
                    codes::UNKNOWN_TYPE,
                    Span::DUMMY,
                    format!(
                        "pointer type `{} *` of {where_} names no declared struct",
                        ann.name
                    ),
                );
                Ty::Unknown
            }
        } else {
            match ann.name.as_str() {
                "int" => Ty::Int,
                "void" => Ty::Void,
                _ => {
                    self.emit(
                        codes::UNKNOWN_TYPE,
                        Span::DUMMY,
                        format!(
                            "type `{}` of {where_} is neither `int`, `void`, nor a pointer",
                            ann.name
                        ),
                    );
                    Ty::Unknown
                }
            }
        }
    }

    /// Program-level checks: duplicate definitions and declared-type
    /// resolution for every struct field and function signature.
    fn check_decls(&mut self, prog: &Program) {
        let mut struct_names = HashSet::new();
        for s in &prog.structs {
            if !struct_names.insert(s.name.as_str()) {
                self.emit(
                    codes::DUPLICATE_DEF,
                    Span::DUMMY,
                    format!("duplicate struct `{}`", s.name),
                );
            }
            let mut field_names = HashSet::new();
            for fd in &s.fields {
                if !field_names.insert(fd.name.as_str()) {
                    self.emit(
                        codes::DUPLICATE_DEF,
                        Span::DUMMY,
                        format!("duplicate field `{}` in struct `{}`", fd.name, s.name),
                    );
                }
                let ann = TypeAnn {
                    name: fd.ty.clone(),
                    is_pointer: fd.is_pointer,
                };
                let where_ = format!("field `{}.{}`", s.name, fd.name);
                if !fd.is_pointer && fd.ty != "int" {
                    // By-value struct (or void) fields are outside the
                    // subset: every non-scalar lives behind a pointer.
                    self.emit(
                        codes::UNKNOWN_TYPE,
                        Span::DUMMY,
                        format!("{where_} must be `int` or a pointer, not `{}`", fd.ty),
                    );
                } else {
                    self.resolve_ann(&ann, &where_);
                }
            }
        }
        let mut func_names = HashSet::new();
        for f in &prog.funcs {
            if !func_names.insert(f.name.as_str()) {
                self.emit(
                    codes::DUPLICATE_DEF,
                    Span::DUMMY,
                    format!("duplicate function `{}`", f.name),
                );
            }
            let mut param_names = HashSet::new();
            for (i, p) in f.params.iter().enumerate() {
                if !param_names.insert(p.as_str()) {
                    self.emit(
                        codes::DUPLICATE_DEF,
                        Span::DUMMY,
                        format!("duplicate parameter `{p}` of `{}`", f.name),
                    );
                }
                if let Some(ann) = f.param_tys.get(i) {
                    if !ann.is_pointer && ann.name == "void" {
                        self.emit(
                            codes::UNKNOWN_TYPE,
                            Span::DUMMY,
                            format!("parameter `{p}` of `{}` cannot be void", f.name),
                        );
                    } else {
                        let where_ = format!("parameter `{p}` of `{}`", f.name);
                        self.resolve_ann(ann, &where_);
                    }
                }
            }
            let where_ = format!("return of `{}`", f.name);
            self.resolve_ann(&f.ret, &where_);
        }
    }

    /// Declared value type of an annotation without reporting — used at
    /// call sites and returns, where `check_decls` already reported any
    /// bad declaration once.
    fn ann_ty(&self, ann: &TypeAnn) -> Ty {
        if ann.is_pointer {
            if self.structs.contains_key(ann.name.as_str()) {
                Ty::Ptr(ann.name.clone())
            } else {
                Ty::Unknown
            }
        } else {
            match ann.name.as_str() {
                "int" => Ty::Int,
                "void" => Ty::Void,
                _ => Ty::Unknown,
            }
        }
    }

    fn check_func(&mut self, f: &'a FuncDef) {
        self.ret = self.ann_ty(&f.ret);
        self.assigned = f.params.iter().cloned().collect();
        let mut touch_vars = Vec::new();
        crate::ast::walk_stmts(&f.body, &mut |s| match s {
            Stmt::Assign { dst, .. } => {
                touch_vars.push(dst.clone());
            }
            Stmt::Touch { var, .. } => {
                touch_vars.push(var.clone());
            }
            _ => {}
        });
        self.assigned.extend(touch_vars);
        let mut env: Env = HashMap::new();
        for (i, p) in f.params.iter().enumerate() {
            let ty = f
                .param_tys
                .get(i)
                .map(|a| self.ann_ty(a))
                .unwrap_or(Ty::Unknown);
            env.insert(
                p.clone(),
                VarInfo {
                    ty,
                    touched: Touched::No,
                },
            );
        }
        self.walk_block(&f.body, &mut env);
    }

    fn walk_block(&mut self, stmts: &[Stmt], env: &mut Env) {
        for s in stmts {
            self.walk_stmt(s, env);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt, env: &mut Env) {
        match s {
            Stmt::Assign { dst, src, span } => {
                self.anchor = *span;
                let t = self.infer(src, env);
                if let Some(info) = env.get(dst) {
                    if matches!(info.ty, Ty::Future(_)) {
                        self.emit(
                            codes::FUTURE_UNTOUCHED_USE,
                            *span,
                            format!("future handle `{dst}` overwritten before its touch"),
                        );
                    }
                }
                let ty = match t {
                    Ty::Void => {
                        self.emit(
                            codes::INVALID_OPERAND,
                            *span,
                            format!("`{dst}` is assigned the result of a void call"),
                        );
                        Ty::Unknown
                    }
                    other => other,
                };
                env.insert(
                    dst.clone(),
                    VarInfo {
                        ty,
                        touched: Touched::No,
                    },
                );
            }
            Stmt::Store {
                base,
                fields,
                src,
                span,
            } => {
                self.anchor = *span;
                let vt = self.infer(src, env);
                let slot = self.path_ty(base, fields, *span, env);
                if matches!(vt, Ty::Void) {
                    self.emit(
                        codes::INVALID_OPERAND,
                        *span,
                        "a void value is stored through a pointer path".into(),
                    );
                } else if !store_compatible(&slot, &vt) {
                    self.emit(
                        codes::TYPE_CONFLICT,
                        *span,
                        format!(
                            "store to `{base}->{}` of type {} with a value of type {}",
                            fields.join("->"),
                            slot.render(),
                            vt.render()
                        ),
                    );
                }
            }
            Stmt::If { cond, then_, else_ } => {
                self.check_cond(cond, env);
                let mut e1 = env.clone();
                let mut e2 = env.clone();
                self.walk_block(then_, &mut e1);
                self.walk_block(else_, &mut e2);
                *env = join_env(&e1, &e2);
            }
            Stmt::While { cond, body } => {
                // Fixpoint over the back edge, silently; then one
                // reporting pass of cond + body from the stable head. The
                // join only climbs a lattice of finite height (Null < Ptr,
                // anything → Conflict/Unknown, one Maybe step for
                // touches), so iterating to convergence terminates — but a
                // chain of copies can take one round per link.
                let mut head = env.clone();
                let was = self.report;
                self.report = false;
                loop {
                    let mut e = head.clone();
                    self.check_cond(cond, &e);
                    self.walk_block(body, &mut e);
                    let joined = join_env(&head, &e);
                    if joined == head {
                        break;
                    }
                    head = joined;
                }
                self.report = was;
                self.check_cond(cond, &head);
                let mut e = head.clone();
                self.walk_block(body, &mut e);
                // Zero or more iterations: the fixpoint head already
                // includes the entry env.
                *env = head;
            }
            Stmt::ExprStmt(e) => {
                self.anchor = expr_anchor(e).unwrap_or(Span::DUMMY);
                // Bare `futurecall f(…);` discards its handle: type-legal
                // (fire-and-forget); the racecheck pass owns RC003.
                let _ = self.infer(e, env);
            }
            Stmt::Touch { var, span } => {
                self.anchor = *span;
                match env.get_mut(var) {
                    Some(info) => {
                        if let Ty::Future(inner) = info.ty.clone() {
                            info.ty = *inner;
                            info.touched = Touched::Yes;
                        } else {
                            match info.touched {
                                Touched::Yes => self.emit(
                                    codes::DOUBLE_TOUCH,
                                    *span,
                                    format!("future `{var}` is already touched on every path"),
                                ),
                                Touched::Maybe => info.touched = Touched::Yes,
                                Touched::No => {
                                    // Unknown may be anything, including a
                                    // future from an extern: stay quiet.
                                    if info.ty != Ty::Unknown {
                                        self.emit(
                                            codes::TOUCH_NON_FUTURE,
                                            *span,
                                            format!(
                                                "touch of `{var}`, which holds {} — not a future",
                                                info.ty.render()
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                    None => {
                        self.emit(
                            codes::TOUCH_NON_FUTURE,
                            *span,
                            format!("touch of `{var}`, which holds no future here"),
                        );
                    }
                }
            }
            Stmt::Return(e) => {
                self.anchor = e.as_ref().and_then(expr_anchor).unwrap_or(Span::DUMMY);
                let anchor = self.anchor;
                match (e, self.ret.clone()) {
                    (Some(expr), Ty::Void) => {
                        let _ = self.infer(expr, env);
                        self.emit(
                            codes::RETURN_MISMATCH,
                            anchor,
                            "a void function returns a value".into(),
                        );
                    }
                    (Some(expr), want) => {
                        let got = self.infer(expr, env);
                        if !store_compatible(&want, &got) {
                            self.emit(
                                codes::RETURN_MISMATCH,
                                anchor,
                                format!(
                                    "return of type {} from a function declared {}",
                                    got.render(),
                                    want.render()
                                ),
                            );
                        }
                    }
                    (None, Ty::Void) => {}
                    (None, want) => {
                        self.emit(
                            codes::RETURN_MISMATCH,
                            anchor,
                            format!("bare `return;` in a function declared {}", want.render()),
                        );
                    }
                }
            }
        }
    }

    fn check_cond(&mut self, cond: &Expr, env: &Env) {
        self.anchor = expr_anchor(cond).unwrap_or(Span::DUMMY);
        let anchor = self.anchor;
        let t = self.infer(cond, env);
        if t == Ty::Void {
            self.emit(
                codes::INVALID_OPERAND,
                anchor,
                "a void value is used as a condition".into(),
            );
        }
    }

    /// Look up a variable use, reporting un-touched futures, conflicts,
    /// and undefined names. Returns the recovered type.
    fn use_var(&mut self, v: &str, span: Span, env: &Env) -> Ty {
        match env.get(v) {
            Some(info) => match &info.ty {
                Ty::Future(_) => {
                    self.emit(
                        codes::FUTURE_UNTOUCHED_USE,
                        span,
                        format!("future handle `{v}` is used before its touch"),
                    );
                    Ty::Unknown
                }
                Ty::Conflict(a, b) => {
                    self.emit(
                        codes::TYPE_CONFLICT,
                        span,
                        format!("`{v}` has irreconcilable types on merging paths ({a} vs {b})"),
                    );
                    Ty::Unknown
                }
                other => other.clone(),
            },
            None => {
                if !self.assigned.contains(v) {
                    self.emit(
                        codes::UNDEFINED_VAR,
                        span,
                        format!("`{v}` is neither a parameter nor assigned in this function"),
                    );
                }
                // Assigned later in the function (or not at all): no
                // flow-sensitive information yet.
                Ty::Unknown
            }
        }
    }

    /// Type of `base->f1->…->fk`, checking each step.
    fn path_ty(&mut self, base: &str, fields: &[String], span: Span, env: &Env) -> Ty {
        let mut cur = self.use_var(base, span, env);
        for (i, f) in fields.iter().enumerate() {
            let last = i + 1 == fields.len();
            match cur {
                Ty::Ptr(ref sname) => {
                    let Some(sd) = self.structs.get(sname.as_str()).copied() else {
                        return Ty::Unknown;
                    };
                    match sd.fields.iter().find(|fd| fd.name == *f) {
                        None => {
                            let sname = sname.clone();
                            self.emit(
                                codes::UNKNOWN_FIELD,
                                span,
                                format!("struct `{sname}` has no field `{f}`"),
                            );
                            return Ty::Unknown;
                        }
                        Some(fd) => {
                            if fd.is_pointer {
                                cur = if self.structs.contains_key(fd.ty.as_str()) {
                                    Ty::Ptr(fd.ty.clone())
                                } else {
                                    Ty::Unknown
                                };
                            } else if last {
                                cur = Ty::Int;
                            } else {
                                self.emit(
                                    codes::NON_POINTER_DEREF,
                                    span,
                                    format!("`->` through non-pointer field `{f}`"),
                                );
                                return Ty::Unknown;
                            }
                        }
                    }
                }
                Ty::Int => {
                    self.emit(
                        codes::NON_POINTER_DEREF,
                        span,
                        format!("`->{f}` applied to a value of type int"),
                    );
                    return Ty::Unknown;
                }
                Ty::Void => {
                    self.emit(
                        codes::INVALID_OPERAND,
                        span,
                        format!("`->{f}` applied to a void value"),
                    );
                    return Ty::Unknown;
                }
                // Null: statically null-typed only until a real pointer
                // joins in; be quiet (the flow may refine it later).
                // Unknown/Future/Conflict: already reported or externs.
                _ => return Ty::Unknown,
            }
        }
        cur
    }

    fn infer(&mut self, e: &Expr, env: &Env) -> Ty {
        match e {
            Expr::Int(_) => Ty::Int,
            Expr::Null => Ty::Null,
            Expr::Var(v) => self.use_var(v, self.anchor, env),
            Expr::Path { base, fields, span } => self.path_ty(base, fields, *span, env),
            Expr::Call {
                func,
                args,
                future,
                span,
            } => {
                let arg_tys: Vec<Ty> = args.iter().map(|a| self.infer(a, env)).collect();
                let ret = if let Some(fd) = self.funcs.get(func.as_str()).copied() {
                    if arg_tys.len() != fd.params.len() {
                        self.emit(
                            codes::CALL_ARITY,
                            *span,
                            format!(
                                "call to `{func}` passes {} argument(s), expected {}",
                                arg_tys.len(),
                                fd.params.len()
                            ),
                        );
                    } else {
                        for (i, (at, ann)) in arg_tys.iter().zip(&fd.param_tys).enumerate() {
                            let want = self.ann_ty(ann);
                            if !matches!(at, Ty::Void) && !store_compatible(&want, at) {
                                self.emit(
                                    codes::ARG_TYPE,
                                    *span,
                                    format!(
                                        "argument {} of `{func}` has type {}, expected {}",
                                        i + 1,
                                        at.render(),
                                        want.render()
                                    ),
                                );
                            }
                            if matches!(at, Ty::Void) {
                                self.emit(
                                    codes::INVALID_OPERAND,
                                    *span,
                                    format!("argument {} of `{func}` is a void value", i + 1),
                                );
                            }
                        }
                    }
                    self.ann_ty(&fd.ret)
                } else {
                    // Extern callee: unconstrained, like racecheck's
                    // read-only extern model.
                    Ty::Unknown
                };
                if *future {
                    Ty::Future(Box::new(ret))
                } else {
                    ret
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lt = self.infer(lhs, env);
                let rt = self.infer(rhs, env);
                let arith = matches!(
                    op.as_str(),
                    "+" | "-" | "*" | "/" | "%" | "<" | ">" | "<=" | ">="
                );
                for t in [&lt, &rt] {
                    match t {
                        Ty::Void => {
                            let anchor = self.anchor;
                            self.emit(
                                codes::INVALID_OPERAND,
                                anchor,
                                format!("void value used as an operand of `{op}`"),
                            );
                        }
                        Ty::Ptr(_) | Ty::Null if arith => {
                            let anchor = self.anchor;
                            self.emit(
                                codes::INVALID_OPERAND,
                                anchor,
                                format!("pointer used as an operand of arithmetic `{op}`"),
                            );
                        }
                        _ => {}
                    }
                }
                Ty::Int
            }
            Expr::Unary { op, arg } => {
                let t = self.infer(arg, env);
                if t == Ty::Void || (op == "-" && matches!(t, Ty::Ptr(_) | Ty::Null)) {
                    let anchor = self.anchor;
                    self.emit(
                        codes::INVALID_OPERAND,
                        anchor,
                        format!("invalid operand of type {} for unary `{op}`", t.render()),
                    );
                }
                Ty::Int
            }
        }
    }
}

/// Can a value of type `got` flow into a slot declared `want`?
/// (`Unknown` on either side is compatible — error recovery and externs
/// never cascade.)
fn store_compatible(want: &Ty, got: &Ty) -> bool {
    match (want, got) {
        (Ty::Unknown, _) | (_, Ty::Unknown) => true,
        (Ty::Int, Ty::Int) => true,
        (Ty::Ptr(_), Ty::Null) => true,
        (Ty::Ptr(a), Ty::Ptr(b)) => a == b,
        // A conflicted value was already reported at its use.
        (_, Ty::Conflict(..)) => true,
        _ => false,
    }
}

/// Where is this expression, for diagnostics? The first span-carrying
/// node in evaluation order, if any.
fn expr_anchor(e: &Expr) -> Option<Span> {
    let mut found = None;
    e.walk(&mut |sub| {
        if found.is_none() {
            match sub {
                Expr::Path { span, .. } | Expr::Call { span, .. } => found = Some(*span),
                _ => {}
            }
        }
    });
    found
}

fn join_ty(a: &Ty, b: &Ty) -> (Ty, Option<Touched>) {
    if a == b {
        return (a.clone(), None);
    }
    match (a, b) {
        // Conflict is sticky — it must survive joining with the Unknown
        // its own error-recovery produces, or a loop's second fixpoint
        // iteration would silently wash the conflict out.
        (Ty::Conflict(x, y), _) | (_, Ty::Conflict(x, y)) => {
            (Ty::Conflict(x.clone(), y.clone()), None)
        }
        (Ty::Unknown, _) | (_, Ty::Unknown) => (Ty::Unknown, None),
        (Ty::Null, Ty::Ptr(s)) | (Ty::Ptr(s), Ty::Null) => (Ty::Ptr(s.clone()), None),
        (Ty::Future(x), Ty::Future(y)) => {
            let (inner, _) = join_ty(x, y);
            (Ty::Future(Box::new(inner)), None)
        }
        // Touched on one path, in flight on the other: the value type if
        // they agree, marked maybe-touched.
        (Ty::Future(x), other) | (other, Ty::Future(x)) => {
            let (inner, _) = join_ty(x, other);
            if matches!(inner, Ty::Conflict(..)) {
                (inner, None)
            } else {
                (inner, Some(Touched::Maybe))
            }
        }
        _ => (Ty::Conflict(a.render(), b.render()), None),
    }
}

fn join_touched(a: Touched, b: Touched) -> Touched {
    match (a, b) {
        (Touched::Yes, Touched::Yes) => Touched::Yes,
        (Touched::No, Touched::No) => Touched::No,
        _ => Touched::Maybe,
    }
}

fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (k, va) in a {
        match b.get(k) {
            Some(vb) => {
                let (ty, forced) = join_ty(&va.ty, &vb.ty);
                let touched = forced.unwrap_or_else(|| join_touched(va.touched, vb.touched));
                out.insert(k.clone(), VarInfo { ty, touched });
            }
            // Declared on one path only: function-scoped, keep it.
            None => {
                out.insert(k.clone(), va.clone());
            }
        }
    }
    for (k, vb) in b {
        if !a.contains_key(k) {
            out.insert(k.clone(), vb.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes_of(src: &str) -> Vec<&'static str> {
        typecheck_src(src)
            .expect("parses")
            .iter()
            .map(|d| d.code)
            .collect()
    }

    fn clean(src: &str) {
        let diags = typecheck_src(src).expect("parses");
        assert!(diags.is_empty(), "expected clean, got {diags:#?}");
    }

    const TREE: &str = "struct tree { tree *left @ 90; tree *right @ 70; int val; };";

    #[test]
    fn accepts_figure4_treeadd() {
        clean(&format!(
            "{TREE}
             int TreeAdd(tree *t) {{
                 if (t == null) {{ return 0; }}
                 else {{
                     int lv = futurecall TreeAdd(t->left);
                     int rv = TreeAdd(t->right);
                     touch lv;
                     return lv + rv + t->val;
                 }}
             }}"
        ));
    }

    #[test]
    fn unknown_pointer_type_is_tc001() {
        assert_eq!(
            codes_of("struct s { ghost *n; };"),
            vec![codes::UNKNOWN_TYPE]
        );
        assert_eq!(
            codes_of("struct s { s *n; }; void f(ghost *g) { }"),
            vec![codes::UNKNOWN_TYPE]
        );
        assert_eq!(
            codes_of("struct s { s *n; }; ghost f(s *x) { }"),
            vec![codes::UNKNOWN_TYPE]
        );
    }

    #[test]
    fn unknown_field_is_tc002() {
        assert_eq!(
            codes_of(&format!("{TREE} int f(tree *t) {{ return t->missing; }}")),
            vec![codes::UNKNOWN_FIELD]
        );
    }

    #[test]
    fn non_pointer_deref_is_tc003() {
        assert_eq!(
            codes_of(&format!("{TREE} int f(tree *t) {{ return t->val->val; }}")),
            vec![codes::NON_POINTER_DEREF]
        );
        assert_eq!(
            codes_of(&format!("{TREE} int f(int x) {{ return x->val; }}")),
            vec![codes::NON_POINTER_DEREF]
        );
    }

    #[test]
    fn call_arity_is_tc004() {
        assert_eq!(
            codes_of(&format!(
                "{TREE} int g(tree *t) {{ return 0; }} int f(tree *t) {{ return g(t, 1); }}"
            )),
            vec![codes::CALL_ARITY]
        );
    }

    #[test]
    fn arg_type_is_tc005() {
        assert_eq!(
            codes_of(&format!(
                "{TREE} int g(tree *t) {{ return 0; }} int f(tree *t) {{ return g(3); }}"
            )),
            vec![codes::ARG_TYPE]
        );
        // Pointers to the wrong struct are caught too.
        assert_eq!(
            codes_of(
                "struct a { a *n; }; struct b { b *n; };
                 int g(a *x) { return 0; }
                 int f(b *y) { return g(y); }"
            ),
            vec![codes::ARG_TYPE]
        );
    }

    #[test]
    fn extern_calls_are_unconstrained() {
        clean(&format!(
            "{TREE} int f(tree *t) {{ int d = dist(t, 1, 2, 3); return d; }}"
        ));
    }

    #[test]
    fn touch_non_future_is_tc006() {
        assert_eq!(
            codes_of(&format!("{TREE} int f(int x) {{ touch x; return x; }}")),
            vec![codes::TOUCH_NON_FUTURE]
        );
    }

    #[test]
    fn double_touch_is_tc007() {
        assert_eq!(
            codes_of(&format!(
                "{TREE} int g(tree *t) {{ return 1; }}
                 int f(tree *t) {{
                     int h = futurecall g(t);
                     touch h;
                     touch h;
                     return h;
                 }}"
            )),
            vec![codes::DOUBLE_TOUCH]
        );
    }

    #[test]
    fn touch_on_one_branch_then_touch_is_legal() {
        // The second touch is the first on the else path — matching
        // racecheck's conservative merge, this is allowed.
        clean(&format!(
            "{TREE} int g(tree *t) {{ return 1; }}
             int f(tree *t, int c) {{
                 int h = futurecall g(t);
                 if (c) {{ touch h; }}
                 touch h;
                 return h;
             }}"
        ));
    }

    #[test]
    fn untouched_future_use_is_tc008() {
        assert_eq!(
            codes_of(&format!(
                "{TREE} int g(tree *t) {{ return 1; }}
                 int f(tree *t) {{
                     int h = futurecall g(t);
                     return h;
                 }}"
            )),
            vec![codes::FUTURE_UNTOUCHED_USE]
        );
        // Overwriting an in-flight handle loses the join.
        assert_eq!(
            codes_of(&format!(
                "{TREE} int g(tree *t) {{ return 1; }}
                 int f(tree *t) {{
                     int h = futurecall g(t);
                     h = 3;
                     return h;
                 }}"
            )),
            vec![codes::FUTURE_UNTOUCHED_USE]
        );
    }

    #[test]
    fn bare_futurecall_is_legal() {
        // Fire-and-forget: the racecheck pass owns RC003.
        clean(&format!(
            "{TREE} int g(tree *t) {{ return 1; }}
             void f(tree *t) {{ futurecall g(t); }}"
        ));
    }

    #[test]
    fn branch_type_conflict_is_tc009() {
        assert_eq!(
            codes_of(&format!(
                "{TREE} int f(tree *t, int c) {{
                     int x = 0;
                     if (c) {{ x = 1; }} else {{ x = t; }}
                     return x;
                 }}"
            )),
            vec![codes::TYPE_CONFLICT]
        );
    }

    #[test]
    fn loop_induction_discipline_is_tc009() {
        // x steps to a *different* struct each iteration: the back-edge
        // join is irreconcilable.
        assert_eq!(
            codes_of(
                "struct a { b *n; int v; }; struct b { a *n; int v; };
                 void f(a *x, int c) {
                     while (c) { x = x->n; }
                 }"
            ),
            vec![codes::TYPE_CONFLICT]
        );
        // Stepping within one struct is the well-typed induction shape.
        clean(
            "struct a { a *n; int v; };
             void f(a *x, int c) {
                 while (c) { x = x->n; }
             }",
        );
    }

    #[test]
    fn loop_fixpoint_runs_to_convergence() {
        // `t` reaches `v0` one link per round; a head taken before the
        // last round still types `v0` as int and blames `->val` (TC003).
        for n in [5, 6, 8, 10] {
            let decls: String = (0..n).map(|i| format!("int v{i} = 0; ")).collect();
            let chain: String = (1..n).map(|i| format!("v{} = v{i}; ", i - 1)).collect();
            let src = format!(
                "{TREE} int f(tree *t, int c) {{ {decls} \
                 while (c) {{ {chain} v{} = t; }} return v0->val; }}",
                n - 1
            );
            assert_eq!(codes_of(&src), vec![codes::TYPE_CONFLICT], "{n} variables");
        }
    }

    #[test]
    fn store_type_mismatch_is_tc009() {
        assert_eq!(
            codes_of(&format!("{TREE} void f(tree *t) {{ t->left = 3; }}")),
            vec![codes::TYPE_CONFLICT]
        );
        clean(&format!(
            "{TREE} void f(tree *t) {{ t->left = t->right; t->val = 4; t->left = null; }}"
        ));
    }

    #[test]
    fn void_misuse_is_tc010() {
        assert_eq!(
            codes_of(&format!(
                "{TREE} void g(tree *t) {{ }} int f(tree *t) {{ int x = g(t); return x; }}"
            )),
            vec![codes::INVALID_OPERAND]
        );
        let pointer_arith = codes_of(&format!("{TREE} int f(tree *t) {{ return t + 1; }}"));
        assert!(
            pointer_arith.contains(&codes::INVALID_OPERAND),
            "{pointer_arith:?}"
        );
    }

    #[test]
    fn return_mismatch_is_tc011() {
        assert_eq!(
            codes_of(&format!("{TREE} void f(tree *t) {{ return 3; }}")),
            vec![codes::RETURN_MISMATCH]
        );
        assert_eq!(
            codes_of(&format!("{TREE} int f(tree *t) {{ return t; }}")),
            vec![codes::RETURN_MISMATCH]
        );
        assert_eq!(
            codes_of(&format!("{TREE} int f(tree *t) {{ return; }}")),
            vec![codes::RETURN_MISMATCH]
        );
        clean(&format!(
            "{TREE} tree *f(tree *t) {{ if (t == null) {{ return null; }} return t->left; }}"
        ));
    }

    #[test]
    fn undefined_var_is_tc012() {
        assert_eq!(
            codes_of(&format!("{TREE} int f(tree *t) {{ return ghost; }}")),
            vec![codes::UNDEFINED_VAR]
        );
        // Assigned later in the function: flow recovers, no report.
        clean(&format!(
            "{TREE} int f(tree *t, int c) {{
                 int acc = 0;
                 while (c) {{ acc = acc + x; int x = 1; }}
                 return acc;
             }}"
        ));
    }

    #[test]
    fn duplicates_are_tc013() {
        assert_eq!(
            codes_of("struct s { s *n; }; struct s { s *n; };"),
            vec![codes::DUPLICATE_DEF]
        );
        assert_eq!(
            codes_of("struct s { s *n; s *n; };"),
            vec![codes::DUPLICATE_DEF]
        );
        assert_eq!(
            codes_of("void f() { } void f() { }"),
            vec![codes::DUPLICATE_DEF]
        );
        assert_eq!(
            codes_of("struct s { s *n; }; void f(s *x, s *x) { }"),
            vec![codes::DUPLICATE_DEF]
        );
    }

    #[test]
    fn loop_respawn_of_touched_handle_is_legal() {
        // The MST shape: the handle is respawned each iteration after
        // being touched — the back-edge join must not report.
        clean(
            "struct block { block *next; int v; };
             int scan(block *b) { return b->v; }
             int sweep(block *b) {
                 int best = 0;
                 while (b != null) {
                     int m = futurecall scan(b);
                     touch m;
                     if (m < best) { best = m; }
                     b = b->next;
                 }
                 return best;
             }",
        );
    }

    #[test]
    fn diagnostics_carry_real_spans() {
        let diags = typecheck_src(
            "struct tree { tree *left; int val; };\nint f(tree *t) {\n  return t->ghost;\n}",
        )
        .unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].span, Span::new(3, 10));
        assert_eq!(diags[0].code, codes::UNKNOWN_FIELD);
    }
}
