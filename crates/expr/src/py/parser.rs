//! Recursive-descent parser for the Python subset.

use super::ast::*;
use super::lexer::{lex, FPart, SpannedTok, Tok};
use crate::error::{EvalError, EvalErrorKind};

/// Parse a module (a sequence of statements, e.g. an `expressionLib` block).
pub(crate) fn parse_module(src: &str) -> Result<Vec<PStmt>, EvalError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut stmts = Vec::new();
    while !p.at_end() {
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

/// Parse a single expression (e.g. an f-string fragment).
pub(crate) fn parse_expression(src: &str) -> Result<PExpr, EvalError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let e = p.expression()?;
    p.eat(&Tok::Newline);
    if !p.at_end() {
        return Err(p.err_here("unexpected tokens after expression"));
    }
    Ok(e)
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), EvalError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn err_here(&self, msg: impl Into<String>) -> EvalError {
        EvalError::syntax(msg, self.line())
    }

    fn ident(&mut self, what: &str) -> Result<String, EvalError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err_here(format!("expected {what}, found {other:?}"))),
        }
    }

    // ---- statements ----

    fn statement(&mut self) -> Result<PStmt, EvalError> {
        match self.peek() {
            Some(Tok::Def) => self.def_statement(),
            Some(Tok::If) => self.if_statement(),
            Some(Tok::While) => {
                self.next();
                let cond = self.expression()?;
                let body = self.suite()?;
                Ok(PStmt::While(cond, body))
            }
            Some(Tok::For) => {
                self.next();
                let var = self.ident("loop variable")?;
                self.expect(&Tok::In, "'in' in for statement")?;
                let iter = self.expression()?;
                let body = self.suite()?;
                Ok(PStmt::For(var, iter, body))
            }
            Some(Tok::Import) => Err(EvalError::at(
                EvalErrorKind::Unsupported,
                "imports are not supported inside InlinePythonRequirement; \
                 use externalLib to reference other expression libraries",
                self.line(),
            )),
            Some(Tok::Lambda) => Err(EvalError::at(
                EvalErrorKind::Unsupported,
                "lambda is not supported; use def",
                self.line(),
            )),
            _ => {
                let s = self.simple_statement()?;
                self.end_of_statement()?;
                Ok(s)
            }
        }
    }

    fn simple_statement(&mut self) -> Result<PStmt, EvalError> {
        match self.peek() {
            Some(Tok::Return) => {
                self.next();
                let v = if matches!(self.peek(), Some(Tok::Newline) | None) {
                    None
                } else {
                    Some(self.expression()?)
                };
                Ok(PStmt::Return(v))
            }
            Some(Tok::Raise) => {
                self.next();
                let v = if matches!(self.peek(), Some(Tok::Newline) | None) {
                    None
                } else {
                    Some(self.expression()?)
                };
                Ok(PStmt::Raise(v))
            }
            Some(Tok::Pass) => {
                self.next();
                Ok(PStmt::Pass)
            }
            Some(Tok::Break) => {
                self.next();
                Ok(PStmt::Break)
            }
            Some(Tok::Continue) => {
                self.next();
                Ok(PStmt::Continue)
            }
            _ => {
                let e = self.expression()?;
                let aug = match self.peek() {
                    Some(Tok::Assign) => None,
                    Some(Tok::PlusAssign) => Some(PBinOp::Add),
                    Some(Tok::MinusAssign) => Some(PBinOp::Sub),
                    Some(Tok::StarAssign) => Some(PBinOp::Mul),
                    Some(Tok::SlashAssign) => Some(PBinOp::Div),
                    _ => return Ok(PStmt::Expr(e)),
                };
                if !e.is_lvalue() {
                    return Err(self.err_here("invalid assignment target"));
                }
                self.next();
                let value = self.expression()?;
                Ok(match aug {
                    None => PStmt::Assign(e, value),
                    Some(op) => PStmt::AugAssign(op, e, value),
                })
            }
        }
    }

    fn end_of_statement(&mut self) -> Result<(), EvalError> {
        if self.eat(&Tok::Newline) || self.at_end() {
            Ok(())
        } else {
            Err(self.err_here(format!(
                "expected end of statement, found {:?}",
                self.peek()
            )))
        }
    }

    fn def_statement(&mut self) -> Result<PStmt, EvalError> {
        let line = self.line();
        self.next(); // def
        let name = self.ident("function name")?;
        self.expect(&Tok::LParen, "'(' after function name")?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let pname = self.ident("parameter name")?;
                let default = if self.eat(&Tok::Assign) {
                    Some(self.expression()?)
                } else {
                    None
                };
                params.push((pname, default));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "')' after parameters")?;
        let body = self.suite()?;
        Ok(PStmt::Def(PyFunction {
            name,
            params,
            body,
            line,
        }))
    }

    fn if_statement(&mut self) -> Result<PStmt, EvalError> {
        self.next(); // if
        let mut branches = Vec::new();
        let cond = self.expression()?;
        let body = self.suite()?;
        branches.push((cond, body));
        let mut orelse = Vec::new();
        loop {
            if self.eat(&Tok::Elif) {
                let cond = self.expression()?;
                let body = self.suite()?;
                branches.push((cond, body));
            } else if self.eat(&Tok::Else) {
                orelse = self.suite()?;
                break;
            } else {
                break;
            }
        }
        Ok(PStmt::If(branches, orelse))
    }

    /// A suite: `:` then either an inline simple statement or an indented
    /// block.
    fn suite(&mut self) -> Result<Vec<PStmt>, EvalError> {
        self.expect(&Tok::Colon, "':'")?;
        if self.eat(&Tok::Newline) {
            self.expect(&Tok::Indent, "an indented block")?;
            let mut stmts = Vec::new();
            while self.peek() != Some(&Tok::Dedent) {
                if self.at_end() {
                    return Err(self.err_here("unterminated block"));
                }
                stmts.push(self.statement()?);
            }
            self.expect(&Tok::Dedent, "dedent")?;
            Ok(stmts)
        } else {
            // Inline suite: a single simple statement on the same line.
            let s = self.simple_statement()?;
            self.end_of_statement()?;
            Ok(vec![s])
        }
    }

    // ---- expressions ----

    fn expression(&mut self) -> Result<PExpr, EvalError> {
        // Conditional expression: `body if cond else orelse`.
        let body = self.or_expr()?;
        if self.eat(&Tok::If) {
            let cond = self.or_expr()?;
            self.expect(&Tok::Else, "'else' in conditional expression")?;
            let orelse = self.expression()?;
            Ok(PExpr::Ternary {
                body: Box::new(body),
                cond: Box::new(cond),
                orelse: Box::new(orelse),
            })
        } else {
            Ok(body)
        }
    }

    fn or_expr(&mut self) -> Result<PExpr, EvalError> {
        let mut e = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let r = self.and_expr()?;
            e = PExpr::BoolOp(PBoolOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<PExpr, EvalError> {
        let mut e = self.not_expr()?;
        while self.eat(&Tok::And) {
            let r = self.not_expr()?;
            e = PExpr::BoolOp(PBoolOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<PExpr, EvalError> {
        if self.eat(&Tok::Not) {
            let e = self.not_expr()?;
            Ok(PExpr::Unary(PUnOp::Not, Box::new(e)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<PExpr, EvalError> {
        let first = self.arith()?;
        let mut chain = Vec::new();
        loop {
            let op = match self.peek() {
                Some(Tok::EqEq) => CmpOp::Eq,
                Some(Tok::NotEq) => CmpOp::Ne,
                Some(Tok::Lt) => CmpOp::Lt,
                Some(Tok::Le) => CmpOp::Le,
                Some(Tok::Gt) => CmpOp::Gt,
                Some(Tok::Ge) => CmpOp::Ge,
                Some(Tok::In) => CmpOp::In,
                Some(Tok::Not) if self.peek2() == Some(&Tok::In) => {
                    self.next();
                    CmpOp::NotIn
                }
                _ => break,
            };
            self.next();
            let rhs = self.arith()?;
            chain.push((op, rhs));
        }
        if chain.is_empty() {
            Ok(first)
        } else {
            Ok(PExpr::Compare(Box::new(first), chain))
        }
    }

    fn arith(&mut self) -> Result<PExpr, EvalError> {
        let mut e = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => PBinOp::Add,
                Some(Tok::Minus) => PBinOp::Sub,
                _ => break,
            };
            self.next();
            let r = self.term()?;
            e = PExpr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn term(&mut self) -> Result<PExpr, EvalError> {
        let mut e = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => PBinOp::Mul,
                Some(Tok::Slash) => PBinOp::Div,
                Some(Tok::SlashSlash) => PBinOp::FloorDiv,
                Some(Tok::Percent) => PBinOp::Mod,
                _ => break,
            };
            self.next();
            let r = self.factor()?;
            e = PExpr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn factor(&mut self) -> Result<PExpr, EvalError> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.next();
                let e = self.factor()?;
                Ok(PExpr::Unary(PUnOp::Neg, Box::new(e)))
            }
            Some(Tok::Plus) => {
                self.next();
                let e = self.factor()?;
                Ok(PExpr::Unary(PUnOp::Pos, Box::new(e)))
            }
            _ => self.power(),
        }
    }

    fn power(&mut self) -> Result<PExpr, EvalError> {
        let base = self.postfix()?;
        if self.eat(&Tok::StarStar) {
            // Right-associative; exponent may itself be a unary factor.
            let exp = self.factor()?;
            Ok(PExpr::Binary(PBinOp::Pow, Box::new(base), Box::new(exp)))
        } else {
            Ok(base)
        }
    }

    fn postfix(&mut self) -> Result<PExpr, EvalError> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                Some(Tok::Dot) => {
                    self.next();
                    let name = self.ident("attribute name")?;
                    e = PExpr::Attr(Box::new(e), name);
                }
                Some(Tok::LBracket) => {
                    self.next();
                    // Distinguish `a[i]` from slices `a[i:j]`, `a[:j]`, `a[i:]`.
                    let start = if self.peek() == Some(&Tok::Colon) {
                        None
                    } else {
                        Some(Box::new(self.expression()?))
                    };
                    if self.eat(&Tok::Colon) {
                        let end = if self.peek() == Some(&Tok::RBracket) {
                            None
                        } else {
                            Some(Box::new(self.expression()?))
                        };
                        self.expect(&Tok::RBracket, "']'")?;
                        e = PExpr::Slice(Box::new(e), start, end);
                    } else {
                        self.expect(&Tok::RBracket, "']'")?;
                        let idx = start.ok_or_else(|| self.err_here("empty subscript"))?;
                        e = PExpr::Index(Box::new(e), idx);
                    }
                }
                Some(Tok::LParen) => {
                    self.next();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.expression()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                            if self.peek() == Some(&Tok::RParen) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen, "')' after arguments")?;
                    e = PExpr::Call(Box::new(e), args);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<PExpr, EvalError> {
        match self.next() {
            Some(Tok::Int(i)) => Ok(PExpr::Int(i)),
            Some(Tok::Float(f)) => Ok(PExpr::Float(f)),
            Some(Tok::Str(s)) => Ok(PExpr::Str(s)),
            Some(Tok::FString(parts)) => {
                let mut segs = Vec::with_capacity(parts.len());
                for part in parts {
                    match part {
                        FPart::Lit(s) => segs.push(FSeg::Lit(s)),
                        FPart::Expr(src) => {
                            let e = parse_expression(&src)?;
                            segs.push(FSeg::Expr(Box::new(e)));
                        }
                    }
                }
                Ok(PExpr::FString(segs))
            }
            Some(Tok::True_) => Ok(PExpr::Bool(true)),
            Some(Tok::False_) => Ok(PExpr::Bool(false)),
            Some(Tok::None_) => Ok(PExpr::None_),
            Some(Tok::Ident(s)) => Ok(PExpr::Ident(s)),
            Some(Tok::ParamRef(path)) => Ok(PExpr::ParamRef(path)),
            Some(Tok::LParen) => {
                let e = self.expression()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Some(Tok::LBracket) => {
                let mut items = Vec::new();
                if self.peek() != Some(&Tok::RBracket) {
                    loop {
                        items.push(self.expression()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if self.peek() == Some(&Tok::RBracket) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket, "']'")?;
                Ok(PExpr::List(items))
            }
            Some(Tok::LBrace) => {
                let mut pairs = Vec::new();
                if self.peek() != Some(&Tok::RBrace) {
                    loop {
                        let k = self.expression()?;
                        self.expect(&Tok::Colon, "':' in dict literal")?;
                        let v = self.expression()?;
                        pairs.push((k, v));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if self.peek() == Some(&Tok::RBrace) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBrace, "'}'")?;
                Ok(PExpr::Dict(pairs))
            }
            other => Err(self.err_here(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_with_def() {
        let src = "
def capitalize_words(message):
    \"\"\"Docstring.\"\"\"
    return message.title()
";
        let stmts = parse_module(src).unwrap();
        assert_eq!(stmts.len(), 1);
        match &stmts[0] {
            PStmt::Def(f) => {
                assert_eq!(f.name, "capitalize_words");
                assert_eq!(f.params.len(), 1);
                assert_eq!(f.body.len(), 2); // docstring expr + return
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn def_with_defaults() {
        let stmts = parse_module("def f(a, b=2, c='x'):\n    return a\n").unwrap();
        match &stmts[0] {
            PStmt::Def(f) => {
                assert_eq!(f.params[0], ("a".into(), None));
                assert_eq!(f.params[1], ("b".into(), Some(PExpr::Int(2))));
                assert_eq!(f.params[2], ("c".into(), Some(PExpr::Str("x".into()))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_elif_else() {
        let src = "
if x > 1:
    y = 1
elif x > 0:
    y = 2
else:
    y = 3
";
        let stmts = parse_module(src).unwrap();
        match &stmts[0] {
            PStmt::If(branches, orelse) => {
                assert_eq!(branches.len(), 2);
                assert_eq!(orelse.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inline_suite() {
        let stmts = parse_module("if x: return 1\n").unwrap();
        match &stmts[0] {
            PStmt::If(branches, _) => assert_eq!(branches[0].1.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chained_comparison() {
        let e = parse_expression("0 <= x < 10").unwrap();
        match e {
            PExpr::Compare(_, chain) => {
                assert_eq!(chain.len(), 2);
                assert_eq!(chain[0].0, CmpOp::Le);
                assert_eq!(chain[1].0, CmpOp::Lt);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn not_in() {
        let e = parse_expression("x not in ys").unwrap();
        match e {
            PExpr::Compare(_, chain) => assert_eq!(chain[0].0, CmpOp::NotIn),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ternary() {
        let e = parse_expression("'yes' if ok else 'no'").unwrap();
        assert!(matches!(e, PExpr::Ternary { .. }));
    }

    #[test]
    fn slices() {
        assert!(matches!(
            parse_expression("w[1:]").unwrap(),
            PExpr::Slice(_, Some(_), None)
        ));
        assert!(matches!(
            parse_expression("w[:2]").unwrap(),
            PExpr::Slice(_, None, Some(_))
        ));
        assert!(matches!(
            parse_expression("w[1:2]").unwrap(),
            PExpr::Slice(_, Some(_), Some(_))
        ));
        assert!(matches!(
            parse_expression("w[i]").unwrap(),
            PExpr::Index(_, _)
        ));
    }

    #[test]
    fn fstring_with_call_and_paramref() {
        let e = parse_expression(r#"f"{valid_file($(inputs.data_file), '.csv')}""#).unwrap();
        match e {
            PExpr::FString(segs) => match &segs[0] {
                FSeg::Expr(inner) => match inner.as_ref() {
                    PExpr::Call(callee, args) => {
                        assert_eq!(**callee, PExpr::Ident("valid_file".into()));
                        assert_eq!(args[0], PExpr::ParamRef("inputs.data_file".into()));
                        assert_eq!(args[1], PExpr::Str(".csv".into()));
                    }
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn power_right_assoc_and_unary() {
        // -2 ** 2 == -(2 ** 2) in Python
        let e = parse_expression("-2 ** 2").unwrap();
        match e {
            PExpr::Unary(PUnOp::Neg, inner) => {
                assert!(matches!(*inner, PExpr::Binary(PBinOp::Pow, _, _)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse_module("import os\n").is_err());
        assert!(parse_module("x = lambda y: y\n").is_err());
        assert!(parse_module("def f(:\n    pass\n").is_err());
        assert!(parse_module("if x:\n").is_err());
        assert!(parse_expression("1 +").is_err());
        assert!(parse_expression("1 2").is_err());
    }

    #[test]
    fn for_and_while() {
        let src = "
total = 0
for w in words:
    total += 1
while total > 0:
    total -= 1
";
        let stmts = parse_module(src).unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(matches!(stmts[1], PStmt::For(_, _, _)));
        assert!(matches!(stmts[2], PStmt::While(_, _)));
    }

    #[test]
    fn raise_statement() {
        let stmts = parse_module("raise Exception(f\"Invalid file. Expected '{ext}'\")\n").unwrap();
        assert!(matches!(stmts[0], PStmt::Raise(Some(_))));
    }
}
