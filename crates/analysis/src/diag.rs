//! Diagnostics: source spans, lint codes, severities.
//!
//! The racecheck pass ([`crate::racecheck`](mod@crate::racecheck)) reports its findings through
//! this framework so that tools (the `oldenc` binary, CI golden files,
//! tests) see one stable, line-oriented format:
//!
//! ```text
//! warning[RC001]: continuation may race with in-flight future `Work` …
//!   --> 7:5
//!   note: future spawned at 5:13
//! ```
//!
//! Spans are `(line, column)` pairs, both 1-based, attached to tokens by
//! the lexer and threaded through the AST nodes the analyses report on.
//! `0:0` ([`Span::DUMMY`]) marks synthesized nodes (e.g. the implicit
//! `= null` of an uninitialized declaration, or hand-built test ASTs).

use std::fmt;

/// A source position: 1-based line and column. `0:0` means "synthesized,
/// no source location".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl Span {
    /// The span of synthesized nodes (no source location).
    pub const DUMMY: Span = Span { line: 0, col: 0 };

    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }

    /// True for real source positions (anything the lexer produced).
    pub fn is_real(self) -> bool {
        self != Span::DUMMY
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth knowing, not necessarily wrong.
    Note,
    /// Likely bug: the release-consistency contract may be violated.
    Warning,
    /// Definite contract violation.
    Error,
}

impl Severity {
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable lint codes for the racecheck pass.
pub mod codes {
    /// A continuation access conflicts with an in-flight (un-touched)
    /// future's body: if the continuation is stolen, the two run
    /// concurrently with no ordering `touch`.
    pub const FUTURE_VS_CONTINUATION: &str = "RC001";
    /// Two in-flight sibling futures (or a loop-carried future and the
    /// next iteration) have conflicting accesses with no join between.
    pub const SIBLING_FUTURES: &str = "RC002";
    /// A future is still in flight when its function returns — its body
    /// is ordered only by the caller's implicit join.
    pub const UNTOUCHED_FUTURE: &str = "RC003";

    // ----- typechecker codes ([`crate::typeck`]) ------------------------

    /// A declared type (field, parameter, return) names no known type:
    /// pointers must target a declared struct, scalars must be `int`.
    pub const UNKNOWN_TYPE: &str = "TC001";
    /// A path step names a field the struct does not have.
    pub const UNKNOWN_FIELD: &str = "TC002";
    /// `->` applied to something that is not a pointer.
    pub const NON_POINTER_DEREF: &str = "TC003";
    /// A call passes the wrong number of arguments.
    pub const CALL_ARITY: &str = "TC004";
    /// A call argument's type does not match the parameter declaration.
    pub const ARG_TYPE: &str = "TC005";
    /// `touch x` where `x` does not hold a future.
    pub const TOUCH_NON_FUTURE: &str = "TC006";
    /// A future handle is touched twice on some path.
    pub const DOUBLE_TOUCH: &str = "TC007";
    /// An un-touched future handle is used (or overwritten) — the value
    /// does not exist until the `touch` joins the body.
    pub const FUTURE_UNTOUCHED_USE: &str = "TC008";
    /// A variable has irreconcilable types on merging control paths
    /// (branch join or loop back edge), or a store's value type does not
    /// match the field — the loop induction-variable discipline.
    pub const TYPE_CONFLICT: &str = "TC009";
    /// An operand has an invalid type for the operator (void value used,
    /// pointer arithmetic).
    pub const INVALID_OPERAND: &str = "TC010";
    /// A `return` does not match the declared return type.
    pub const RETURN_MISMATCH: &str = "TC011";
    /// A variable is used but never a parameter or assigned anywhere in
    /// the function.
    pub const UNDEFINED_VAR: &str = "TC012";
    /// Two structs, functions, fields, or parameters share a name.
    pub const DUPLICATE_DEF: &str = "TC013";
}

/// One finding, with enough structure for golden-file comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable lint code (see [`codes`]).
    pub code: &'static str,
    pub severity: Severity,
    /// Primary location (the later of the two conflicting accesses, or
    /// the construct at fault).
    pub span: Span,
    /// Human-readable, deterministic message.
    pub message: String,
    /// Secondary locations / context, e.g. where the future was spawned.
    pub notes: Vec<String>,
}

impl Diagnostic {
    pub fn new(
        code: &'static str,
        severity: Severity,
        span: Span,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// The single-line form used by `oldenc` and the CI golden file:
    /// `severity[CODE] line:col: message`.
    pub fn one_line(&self) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity.name(),
            self.code,
            self.span,
            self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}\n  --> {}",
            self.severity.name(),
            self.code,
            self.message,
            self.span
        )?;
        for n in &self.notes {
            write!(f, "\n  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_display_and_dummy() {
        assert_eq!(Span::new(7, 12).to_string(), "7:12");
        assert!(!Span::DUMMY.is_real());
        assert!(Span::new(1, 1).is_real());
    }

    #[test]
    fn diagnostic_formats() {
        let d = Diagnostic::new(
            codes::FUTURE_VS_CONTINUATION,
            Severity::Warning,
            Span::new(7, 5),
            "continuation may race with in-flight future `Work`",
        )
        .with_note("future spawned at 5:13");
        assert_eq!(
            d.one_line(),
            "warning[RC001] 7:5: continuation may race with in-flight future `Work`"
        );
        let long = d.to_string();
        assert!(long.contains("--> 7:5"));
        assert!(long.contains("note: future spawned at 5:13"));
    }

    #[test]
    fn severity_order() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    /// The multi-line `Display` form keeps one `note:` line per note, in
    /// insertion order, after the `-->` span line — the shape `oldenc
    /// check` prints for multi-location findings.
    #[test]
    fn multi_note_rendering_keeps_order() {
        let d = Diagnostic::new(
            codes::SIBLING_FUTURES,
            Severity::Warning,
            Span::new(12, 9),
            "sibling futures conflict on `t->val`",
        )
        .with_note("first future spawned at 10:13")
        .with_note("second future spawned at 11:13");
        let text = d.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].starts_with("warning[RC002]"));
        assert_eq!(lines[1].trim(), "--> 12:9");
        assert_eq!(lines[2].trim(), "note: first future spawned at 10:13");
        assert_eq!(lines[3].trim(), "note: second future spawned at 11:13");
    }

    /// Spans on constructs that span multiple source lines point at the
    /// construct's first token, and dummy spans render as `0:0` without
    /// claiming to be real.
    #[test]
    fn dummy_span_renders_but_is_not_real() {
        let d = Diagnostic::new(
            codes::TYPE_CONFLICT,
            Severity::Error,
            Span::DUMMY,
            "synthesized node",
        );
        assert_eq!(d.one_line(), "error[TC009] 0:0: synthesized node");
        assert!(!d.span.is_real());
    }

    /// TC codes are distinct from each other and from the RC codes.
    #[test]
    fn codes_are_unique() {
        let all = [
            codes::FUTURE_VS_CONTINUATION,
            codes::SIBLING_FUTURES,
            codes::UNTOUCHED_FUTURE,
            codes::UNKNOWN_TYPE,
            codes::UNKNOWN_FIELD,
            codes::NON_POINTER_DEREF,
            codes::CALL_ARITY,
            codes::ARG_TYPE,
            codes::TOUCH_NON_FUTURE,
            codes::DOUBLE_TOUCH,
            codes::FUTURE_UNTOUCHED_USE,
            codes::TYPE_CONFLICT,
            codes::INVALID_OPERAND,
            codes::RETURN_MISMATCH,
            codes::UNDEFINED_VAR,
            codes::DUPLICATE_DEF,
        ];
        let set: std::collections::HashSet<&str> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len());
    }
}
