//! AST for the Python subset.

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PBinOp {
    Add,
    Sub,
    Mul,
    /// True division (`/`) — always float, like Python 3.
    Div,
    /// Floor division (`//`).
    FloorDiv,
    Mod,
    Pow,
}

/// Comparison operators (chainable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    In,
    NotIn,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PUnOp {
    Neg,
    Pos,
    Not,
}

/// Short-circuit boolean operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PBoolOp {
    And,
    Or,
}

/// One segment of a parsed f-string.
#[derive(Debug, Clone, PartialEq)]
pub enum FSeg {
    Lit(String),
    Expr(Box<PExpr>),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    None_,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    FString(Vec<FSeg>),
    List(Vec<PExpr>),
    Dict(Vec<(PExpr, PExpr)>),
    Ident(String),
    /// `$(inputs.x)` — resolved against the CWL evaluation context.
    ParamRef(String),
    /// `obj.attr`
    Attr(Box<PExpr>, String),
    /// `obj[index]`
    Index(Box<PExpr>, Box<PExpr>),
    /// `obj[a:b]` with optional bounds (no step).
    Slice(Box<PExpr>, Option<Box<PExpr>>, Option<Box<PExpr>>),
    /// `callee(args...)`
    Call(Box<PExpr>, Vec<PExpr>),
    Unary(PUnOp, Box<PExpr>),
    Binary(PBinOp, Box<PExpr>, Box<PExpr>),
    BoolOp(PBoolOp, Box<PExpr>, Box<PExpr>),
    /// Chained comparison: `first (op next)+`.
    Compare(Box<PExpr>, Vec<(CmpOp, PExpr)>),
    /// `body if cond else orelse`
    Ternary {
        body: Box<PExpr>,
        cond: Box<PExpr>,
        orelse: Box<PExpr>,
    },
}

impl PExpr {
    /// Whether this expression is a valid assignment target.
    pub(crate) fn is_lvalue(&self) -> bool {
        matches!(
            self,
            PExpr::Ident(_) | PExpr::Attr(_, _) | PExpr::Index(_, _)
        )
    }
}

/// A user-defined function (from `def`).
#[derive(Debug, Clone, PartialEq)]
pub struct PyFunction {
    pub name: String,
    /// Parameter names with optional default expressions.
    pub(crate) params: Vec<(String, Option<PExpr>)>,
    pub(crate) body: Vec<PStmt>,
    /// 1-based line of the `def` (for error messages).
    pub(crate) line: usize,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum PStmt {
    Expr(PExpr),
    Assign(PExpr, PExpr),
    AugAssign(PBinOp, PExpr, PExpr),
    Return(Option<PExpr>),
    Raise(Option<PExpr>),
    Pass,
    Break,
    Continue,
    /// `(cond, body)` branches for if/elif, plus the else body.
    If(Vec<(PExpr, Vec<PStmt>)>, Vec<PStmt>),
    While(PExpr, Vec<PStmt>),
    For(String, PExpr, Vec<PStmt>),
    Def(PyFunction),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lvalues() {
        assert!(PExpr::Ident("x".into()).is_lvalue());
        assert!(PExpr::Attr(Box::new(PExpr::Ident("a".into())), "b".into()).is_lvalue());
        assert!(!PExpr::Int(1).is_lvalue());
        assert!(!PExpr::ParamRef("inputs.x".into()).is_lvalue());
    }
}
