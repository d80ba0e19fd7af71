//! Abstract syntax for the restricted C subset of §2.
//!
//! The subset is exactly what the analysis consumes: structures with
//! (affinity-annotated) pointer fields, functions, assignments whose
//! right-hand sides may navigate pointer paths, conditionals, `while`
//! loops, (recursive) calls, and `futurecall`/`touch` annotations.
//! Programs may not take the address of stack objects, so every pointer
//! points into the heap — which is what makes the per-dereference
//! mechanism choice well-defined.

use crate::cfg::Cfg;
use crate::diag::{Diagnostic, Span};
use crate::verdicts::MechTable;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A declared type annotation: a base type name (`int`, `void`, or a
/// struct name) plus pointer-ness. The parser records these from the
/// surface syntax; the typechecker ([`crate::typeck`]) resolves and
/// enforces them. The untyped analyses (racecheck/opt/select) ignore
/// them entirely.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeAnn {
    pub name: String,
    pub is_pointer: bool,
}

impl TypeAnn {
    pub fn int() -> TypeAnn {
        TypeAnn {
            name: "int".into(),
            is_pointer: false,
        }
    }

    pub fn void() -> TypeAnn {
        TypeAnn {
            name: "void".into(),
            is_pointer: false,
        }
    }

    pub fn ptr(name: impl Into<String>) -> TypeAnn {
        TypeAnn {
            name: name.into(),
            is_pointer: true,
        }
    }
}

/// A structure field.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldDef {
    pub name: String,
    /// Declared base type name (`int` for scalars, the target struct
    /// name for pointers).
    pub ty: String,
    /// True for pointer fields (the only ones that carry affinities).
    pub is_pointer: bool,
    /// Path-affinity hint in [0, 1]; `None` means the 70 % default.
    pub affinity: Option<f64>,
}

/// A structure declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<FieldDef>,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// The null pointer.
    Null,
    /// A variable use.
    Var(String),
    /// Pointer navigation: `base->f1->f2…` (at least one field).
    Path {
        base: String,
        fields: Vec<String>,
        span: Span,
    },
    /// A (possibly recursive) call; `future` marks `futurecall`.
    Call {
        func: String,
        args: Vec<Expr>,
        future: bool,
        span: Span,
    },
    /// A binary operation (arithmetic/comparison; the analysis only cares
    /// that it is not a pointer path).
    Binary {
        op: String,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Logical/unary operator application.
    Unary { op: String, arg: Box<Expr> },
}

impl Expr {
    /// If this expression is a pure pointer path (a variable or a
    /// `base->f…` navigation), return `(base, fields)`.
    pub fn as_path(&self) -> Option<(&str, &[String])> {
        match self {
            Expr::Var(v) => Some((v, &[])),
            Expr::Path { base, fields, .. } => Some((base, fields)),
            _ => None,
        }
    }

    /// Visit every sub-expression (including `self`).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Unary { arg, .. } => arg.walk(f),
            _ => {}
        }
    }
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `x = expr;` (also covers declarations; the subset is untyped at
    /// the analysis level, pointer-ness is inferred from use).
    Assign { dst: String, src: Expr, span: Span },
    /// `lhs->f… = expr;` — a store through a pointer path.
    Store {
        base: String,
        fields: Vec<String>,
        src: Expr,
        span: Span,
    },
    /// `if (cond) { then } else { els }`.
    If {
        cond: Expr,
        then_: Vec<Stmt>,
        else_: Vec<Stmt>,
    },
    /// `while (cond) { body }` — an iterative control loop.
    While { cond: Expr, body: Vec<Stmt> },
    /// An expression evaluated for effect (typically a call).
    ExprStmt(Expr),
    /// `touch x;` — claim a future's value.
    Touch { var: String, span: Span },
    /// `return expr?;`
    Return(Option<Expr>),
}

impl Stmt {
    /// Visit every expression in this statement (not descending into
    /// nested statements).
    pub fn exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Assign { src, .. } => src.walk(f),
            Stmt::Store { src, .. } => src.walk(f),
            Stmt::If { cond, .. } => cond.walk(f),
            Stmt::While { cond, .. } => cond.walk(f),
            Stmt::ExprStmt(e) => e.walk(f),
            Stmt::Return(Some(e)) => e.walk(f),
            Stmt::Touch { .. } | Stmt::Return(None) => {}
        }
    }

    /// Visit this statement and all nested statements, pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::If { then_, else_, .. } => {
                for s in then_.iter().chain(else_) {
                    s.walk(f);
                }
            }
            Stmt::While { body, .. } => {
                for s in body {
                    s.walk(f);
                }
            }
            _ => {}
        }
    }
}

/// Walk a statement list, visiting every statement pre-order.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        s.walk(f);
    }
}

/// A node [`walk_mut`] hands its visitor: a statement block (which the
/// visitor may grow or shrink before it is walked), a statement, or an
/// expression.
pub enum NodeMut<'a> {
    Block(&'a mut Vec<Stmt>),
    Stmt(&'a mut Stmt),
    Expr(&'a mut Expr),
}

/// The mutable counterpart of [`walk_stmts`]: visit the block, then each
/// statement, its expressions and its nested blocks, pre-order, until `f`
/// returns true. Returns whether it did.
pub fn walk_mut(stmts: &mut Vec<Stmt>, f: &mut impl FnMut(NodeMut) -> bool) -> bool {
    f(NodeMut::Block(stmts)) || stmts.iter_mut().any(|s| stmt_mut(s, f))
}

fn stmt_mut(s: &mut Stmt, f: &mut impl FnMut(NodeMut) -> bool) -> bool {
    if f(NodeMut::Stmt(s)) {
        return true;
    }
    match s {
        Stmt::Assign { src: e, .. }
        | Stmt::Store { src: e, .. }
        | Stmt::ExprStmt(e)
        | Stmt::Return(Some(e)) => expr_mut(e, f),
        Stmt::If { cond, then_, else_ } => {
            expr_mut(cond, f) || walk_mut(then_, f) || walk_mut(else_, f)
        }
        Stmt::While { cond, body } => expr_mut(cond, f) || walk_mut(body, f),
        Stmt::Touch { .. } | Stmt::Return(None) => false,
    }
}

fn expr_mut(e: &mut Expr, f: &mut impl FnMut(NodeMut) -> bool) -> bool {
    if f(NodeMut::Expr(e)) {
        return true;
    }
    match e {
        Expr::Call { args, .. } => args.iter_mut().any(|a| expr_mut(a, f)),
        Expr::Binary { lhs, rhs, .. } => expr_mut(lhs, f) || expr_mut(rhs, f),
        Expr::Unary { arg, .. } => expr_mut(arg, f),
        _ => false,
    }
}

/// Collect every call expression in a statement list (including those in
/// nested statements), with its nesting relationship ignored.
pub fn collect_calls(stmts: &[Stmt]) -> Vec<Expr> {
    let mut out = Vec::new();
    walk_stmts(stmts, &mut |s| {
        s.exprs(&mut |e| {
            if matches!(e, Expr::Call { .. }) {
                out.push(e.clone());
            }
        });
    });
    out
}

/// True if any expression in the statements (at any nesting depth) is a
/// `futurecall`.
pub fn contains_future(stmts: &[Stmt]) -> bool {
    let mut found = false;
    walk_stmts(stmts, &mut |s| {
        s.exprs(&mut |e| {
            if let Expr::Call { future: true, .. } = e {
                found = true;
            }
        });
    });
    found
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct FuncDef {
    pub name: String,
    pub params: Vec<String>,
    /// Declared parameter types, parallel to `params`.
    pub param_tys: Vec<TypeAnn>,
    /// Declared return type.
    pub ret: TypeAnn,
    pub body: Vec<Stmt>,
}

/// A whole program.
///
/// Each value computes its CFGs, verdict table and race findings once,
/// on first use ([`crate::mech_table`], [`crate::racecheck()`]), and every
/// later pass reads them. So a program is not mutated after it has been
/// analysed: edit a clone, which starts with nothing computed. Equality
/// and `Debug` see only the syntax.
#[derive(Clone, Default, PartialEq)]
pub struct Program {
    pub structs: Vec<StructDef>,
    pub funcs: Vec<FuncDef>,
    pub(crate) memo: Memo,
}

/// What the passes derived from a [`Program`], each set on first use.
#[derive(Default)]
pub(crate) struct Memo {
    /// The CFG lowering and the verdict table resolved over its sites.
    pub(crate) table: OnceLock<(MechTable, Vec<Cfg>)>,
    pub(crate) races: OnceLock<Vec<Diagnostic>>,
}

impl Clone for Memo {
    fn clone(&self) -> Memo {
        Memo::default()
    }
}

impl PartialEq for Memo {
    fn eq(&self, _: &Memo) -> bool {
        true
    }
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("structs", &self.structs)
            .field("funcs", &self.funcs)
            .finish()
    }
}

impl Program {
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Affinity of `field`, searching all structures (field names are
    /// treated as global, as in the paper's examples); unannotated or
    /// unknown fields get the default.
    pub fn affinity(&self, field: &str) -> f64 {
        for s in &self.structs {
            for fd in &s.fields {
                if fd.name == field {
                    return fd.affinity.unwrap_or(crate::DEFAULT_AFFINITY);
                }
            }
        }
        crate::DEFAULT_AFFINITY
    }

    /// Affinity of a multi-field path: the product of per-field
    /// affinities (§4.2, final case).
    pub fn path_affinity(&self, fields: &[String]) -> f64 {
        fields.iter().map(|f| self.affinity(f)).product()
    }

    /// A map from struct name to its definition.
    pub fn struct_map(&self) -> HashMap<&str, &StructDef> {
        self.structs.iter().map(|s| (s.name.as_str(), s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog_with_tree() -> Program {
        Program {
            structs: vec![StructDef {
                name: "tree".into(),
                fields: vec![
                    FieldDef {
                        name: "left".into(),
                        ty: "tree".into(),
                        is_pointer: true,
                        affinity: Some(0.9),
                    },
                    FieldDef {
                        name: "right".into(),
                        ty: "tree".into(),
                        is_pointer: true,
                        affinity: Some(0.7),
                    },
                    FieldDef {
                        name: "val".into(),
                        ty: "int".into(),
                        is_pointer: false,
                        affinity: None,
                    },
                ],
            }],
            funcs: vec![],
            ..Program::default()
        }
    }

    #[test]
    fn affinity_lookup_and_default() {
        let p = prog_with_tree();
        assert_eq!(p.affinity("left"), 0.9);
        assert_eq!(p.affinity("right"), 0.7);
        assert_eq!(p.affinity("val"), crate::DEFAULT_AFFINITY);
        assert_eq!(p.affinity("nonexistent"), crate::DEFAULT_AFFINITY);
    }

    #[test]
    fn path_affinity_multiplies() {
        let p = prog_with_tree();
        let path = vec!["right".to_string(), "left".to_string()];
        assert!((p.path_affinity(&path) - 0.63).abs() < 1e-12);
        assert_eq!(p.path_affinity(&[]), 1.0);
    }

    #[test]
    fn as_path_classifies() {
        let v = Expr::Var("s".into());
        assert_eq!(v.as_path(), Some(("s", &[][..])));
        let p = Expr::Path {
            base: "s".into(),
            fields: vec!["left".into()],
            span: Span::DUMMY,
        };
        let (b, f) = p.as_path().unwrap();
        assert_eq!(b, "s");
        assert_eq!(f.len(), 1);
        assert!(Expr::Int(3).as_path().is_none());
    }

    #[test]
    fn contains_future_finds_nested() {
        let body = vec![Stmt::While {
            cond: Expr::Var("l".into()),
            body: vec![Stmt::ExprStmt(Expr::Call {
                func: "Traverse".into(),
                args: vec![Expr::Var("t".into())],
                future: true,
                span: Span::DUMMY,
            })],
        }];
        assert!(contains_future(&body));
        let plain = vec![Stmt::Return(None)];
        assert!(!contains_future(&plain));
    }

    #[test]
    fn collect_calls_descends_into_exprs() {
        let body = vec![Stmt::Return(Some(Expr::Binary {
            op: "+".into(),
            lhs: Box::new(Expr::Call {
                func: "f".into(),
                args: vec![],
                future: false,
                span: Span::DUMMY,
            }),
            rhs: Box::new(Expr::Call {
                func: "g".into(),
                args: vec![],
                future: false,
                span: Span::DUMMY,
            }),
        }))];
        assert_eq!(collect_calls(&body).len(), 2);
    }
}
