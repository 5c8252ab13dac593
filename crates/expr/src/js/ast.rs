//! AST for the JavaScript subset.

/// Binary (non-short-circuit) operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Lt,
    Le,
    Gt,
    Ge,
    /// Loose equality `==` (numeric widening + null/undefined folding).
    EqLoose,
    /// Loose inequality `!=`.
    NeLoose,
    /// Strict equality `===`.
    EqStrict,
    /// Strict inequality `!==`.
    NeStrict,
    /// `in` (key membership in object, index in array).
    In,
}

/// Short-circuit logical operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOp {
    And,
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Plus,
    Not,
    Typeof,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Null,
    Undefined,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Expr>),
    Object(Vec<(String, Expr)>),
    Ident(String),
    /// `obj.prop`
    Member(Box<Expr>, String),
    /// `obj[expr]`
    Index(Box<Expr>, Box<Expr>),
    /// `callee(args...)` — method calls appear as `Call(Member(..), args)`.
    Call(Box<Expr>, Vec<Expr>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Logical(LogOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `target = value` (also used for desugared `+=` etc.)
    Assign(Box<Expr>, Box<Expr>),
}

/// Statements (inside `${...}` bodies).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Expr(Expr),
    /// `var`/`let`/`const` declarations (all treated alike).
    VarDecl(Vec<(String, Option<Expr>)>),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    While(Expr, Vec<Stmt>),
    /// Classic `for (init; cond; update) body`.
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        update: Option<Expr>,
        body: Vec<Stmt>,
    },
    /// `for (var x of seq) body`.
    ForOf {
        var: String,
        iter: Expr,
        body: Vec<Stmt>,
    },
    Return(Option<Expr>),
    Break,
    Continue,
}

impl Expr {
    /// Whether this expression is a valid assignment target.
    pub(crate) fn is_lvalue(&self) -> bool {
        matches!(
            self,
            Expr::Ident(_) | Expr::Member(_, _) | Expr::Index(_, _)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lvalue_classification() {
        assert!(Expr::Ident("x".into()).is_lvalue());
        assert!(Expr::Member(Box::new(Expr::Ident("a".into())), "b".into()).is_lvalue());
        assert!(!Expr::Num(1.0).is_lvalue());
        assert!(!Expr::Call(Box::new(Expr::Ident("f".into())), vec![]).is_lvalue());
    }
}
