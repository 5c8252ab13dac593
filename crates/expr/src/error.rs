//! Error type shared by both expression engines.

use std::fmt;

/// What class of failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalErrorKind {
    /// The source text could not be tokenized or parsed.
    Syntax,
    /// An operation was applied to values of the wrong type.
    Type,
    /// An unknown variable, attribute, or function was referenced.
    Name,
    /// User code raised an exception (`raise` / `throw`).
    Raised,
    /// A language feature outside the supported subset was used.
    Unsupported,
    /// Evaluation exceeded the step budget (runaway loop protection).
    Budget,
}

impl fmt::Display for EvalErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EvalErrorKind::Syntax => "syntax error",
            EvalErrorKind::Type => "type error",
            EvalErrorKind::Name => "name error",
            EvalErrorKind::Raised => "exception",
            EvalErrorKind::Unsupported => "unsupported feature",
            EvalErrorKind::Budget => "evaluation budget exceeded",
        };
        f.write_str(s)
    }
}

/// An error raised while compiling or evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Failure class.
    pub(crate) kind: EvalErrorKind,
    /// Human-readable description.
    pub(crate) message: String,
    /// 1-based line within the expression source (0 when unknown).
    pub(crate) line: usize,
}

impl EvalError {
    /// Build an error with an unknown position.
    pub(crate) fn new(kind: EvalErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
            line: 0,
        }
    }

    /// Build an error at a known 1-based line.
    pub(crate) fn at(kind: EvalErrorKind, message: impl Into<String>, line: usize) -> Self {
        Self {
            kind,
            message: message.into(),
            line,
        }
    }

    /// Shorthand for a syntax error.
    pub(crate) fn syntax(message: impl Into<String>, line: usize) -> Self {
        Self::at(EvalErrorKind::Syntax, message, line)
    }

    /// Shorthand for a type error.
    pub(crate) fn type_err(message: impl Into<String>) -> Self {
        Self::new(EvalErrorKind::Type, message)
    }

    /// Shorthand for a name error.
    pub(crate) fn name(message: impl Into<String>) -> Self {
        Self::new(EvalErrorKind::Name, message)
    }

    /// Shorthand for a user-raised exception.
    pub(crate) fn raised(message: impl Into<String>) -> Self {
        Self::new(EvalErrorKind::Raised, message)
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{} at line {}: {}", self.kind, self.line, self.message)
        } else {
            write!(f, "{}: {}", self.kind, self.message)
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_line() {
        let e = EvalError::syntax("unexpected token", 3);
        assert_eq!(e.to_string(), "syntax error at line 3: unexpected token");
        let e = EvalError::type_err("cannot add");
        assert_eq!(e.to_string(), "type error: cannot add");
    }

    #[test]
    fn kind_display() {
        assert_eq!(EvalErrorKind::Raised.to_string(), "exception");
        assert_eq!(
            EvalErrorKind::Budget.to_string(),
            "evaluation budget exceeded"
        );
    }
}
