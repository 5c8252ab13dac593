//! Recursive-descent / precedence-climbing parser for the JavaScript subset.

use super::ast::{BinOp, Expr, LogOp, Stmt, UnOp};
use super::lexer::{lex, SpannedTok, Tok};
use crate::error::EvalError;

/// Parse a single expression (e.g. the contents of `$(...)`).
pub(crate) fn parse_expression(src: &str) -> Result<Expr, EvalError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let e = p.expression()?;
    if !p.at_end() {
        return Err(p.err_here("unexpected tokens after expression"));
    }
    Ok(e)
}

/// Parse a statement list (e.g. the contents of `${...}`).
pub(crate) fn parse_body(src: &str) -> Result<Vec<Stmt>, EvalError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut stmts = Vec::new();
    while !p.at_end() {
        stmts.push(p.statement()?);
    }
    Ok(stmts)
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

    // ---- statements ----

    fn statement(&mut self) -> Result<Stmt, EvalError> {
        match self.peek() {
            Some(Tok::Var) | Some(Tok::Let) | Some(Tok::Const) => {
                self.next();
                let mut decls = Vec::new();
                loop {
                    let name = self.ident("variable name")?;
                    let init = if self.eat(&Tok::Assign) {
                        Some(self.expression()?)
                    } else {
                        None
                    };
                    decls.push((name, init));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.eat(&Tok::Semi);
                Ok(Stmt::VarDecl(decls))
            }
            Some(Tok::If) => {
                self.next();
                self.expect(&Tok::LParen, "'(' after if")?;
                let cond = self.expression()?;
                self.expect(&Tok::RParen, "')' after condition")?;
                let then = self.block_or_single()?;
                let els = if self.eat(&Tok::Else) {
                    if self.peek() == Some(&Tok::If) {
                        vec![self.statement()?]
                    } else {
                        self.block_or_single()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then, els))
            }
            Some(Tok::While) => {
                self.next();
                self.expect(&Tok::LParen, "'(' after while")?;
                let cond = self.expression()?;
                self.expect(&Tok::RParen, "')' after condition")?;
                let body = self.block_or_single()?;
                Ok(Stmt::While(cond, body))
            }
            Some(Tok::For) => self.for_statement(),
            Some(Tok::Return) => {
                self.next();
                let value = if self.at_end() || self.peek() == Some(&Tok::Semi) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.eat(&Tok::Semi);
                Ok(Stmt::Return(value))
            }
            Some(Tok::Break) => {
                self.next();
                self.eat(&Tok::Semi);
                Ok(Stmt::Break)
            }
            Some(Tok::Continue) => {
                self.next();
                self.eat(&Tok::Semi);
                Ok(Stmt::Continue)
            }
            Some(Tok::Function) => Err(EvalError::at(
                crate::error::EvalErrorKind::Unsupported,
                "function declarations are not supported in ${...} bodies",
                self.line(),
            )),
            Some(Tok::Semi) => {
                self.next();
                self.statement()
            }
            _ => {
                let e = self.expression()?;
                self.eat(&Tok::Semi);
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn for_statement(&mut self) -> Result<Stmt, EvalError> {
        self.next(); // for
        self.expect(&Tok::LParen, "'(' after for")?;
        // Disambiguate `for (var x of xs)` from the classic form.
        let is_decl = matches!(
            self.peek(),
            Some(Tok::Var) | Some(Tok::Let) | Some(Tok::Const)
        );
        if is_decl {
            let save = self.pos;
            self.next();
            if let Some(Tok::Ident(name)) = self.peek().cloned() {
                self.next();
                if self.eat(&Tok::Of) || self.eat(&Tok::In) {
                    let iter = self.expression()?;
                    self.expect(&Tok::RParen, "')' after for-of")?;
                    let body = self.block_or_single()?;
                    return Ok(Stmt::ForOf {
                        var: name,
                        iter,
                        body,
                    });
                }
            }
            self.pos = save;
        }
        let init = if self.eat(&Tok::Semi) {
            None
        } else {
            let s = self.statement()?; // consumes trailing `;`
            Some(Box::new(s))
        };
        let cond = if self.peek() == Some(&Tok::Semi) {
            None
        } else {
            Some(self.expression()?)
        };
        self.expect(&Tok::Semi, "';' after for condition")?;
        let update = if self.peek() == Some(&Tok::RParen) {
            None
        } else {
            Some(self.expression()?)
        };
        self.expect(&Tok::RParen, "')' after for clauses")?;
        let body = self.block_or_single()?;
        Ok(Stmt::For {
            init,
            cond,
            update,
            body,
        })
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, EvalError> {
        if self.eat(&Tok::LBrace) {
            let mut stmts = Vec::new();
            while self.peek() != Some(&Tok::RBrace) {
                if self.at_end() {
                    return Err(self.err_here("unterminated block"));
                }
                stmts.push(self.statement()?);
            }
            self.expect(&Tok::RBrace, "'}'")?;
            Ok(stmts)
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, EvalError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err_here(format!("expected {what}, found {other:?}"))),
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expression(&mut self) -> Result<Expr, EvalError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, EvalError> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            Some(Tok::Assign) => None,
            Some(Tok::PlusAssign) => Some(BinOp::Add),
            Some(Tok::MinusAssign) => Some(BinOp::Sub),
            Some(Tok::StarAssign) => Some(BinOp::Mul),
            Some(Tok::SlashAssign) => Some(BinOp::Div),
            _ => return Ok(lhs),
        };
        if !lhs.is_lvalue() {
            return Err(self.err_here("invalid assignment target"));
        }
        self.next();
        let rhs = self.assignment()?;
        let value = match op {
            None => rhs,
            Some(op) => Expr::Binary(op, Box::new(lhs.clone()), Box::new(rhs)),
        };
        Ok(Expr::Assign(Box::new(lhs), Box::new(value)))
    }

    fn ternary(&mut self) -> Result<Expr, EvalError> {
        let cond = self.logical_or()?;
        if self.eat(&Tok::Question) {
            let a = self.assignment()?;
            self.expect(&Tok::Colon, "':' in ternary")?;
            let b = self.assignment()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)))
        } else {
            Ok(cond)
        }
    }

    fn logical_or(&mut self) -> Result<Expr, EvalError> {
        let mut e = self.logical_and()?;
        while self.eat(&Tok::OrOr) {
            let r = self.logical_and()?;
            e = Expr::Logical(LogOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn logical_and(&mut self) -> Result<Expr, EvalError> {
        let mut e = self.equality()?;
        while self.eat(&Tok::AndAnd) {
            let r = self.equality()?;
            e = Expr::Logical(LogOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn equality(&mut self) -> Result<Expr, EvalError> {
        let mut e = self.relational()?;
        loop {
            let op = match self.peek() {
                Some(Tok::EqEq) => BinOp::EqLoose,
                Some(Tok::NotEq) => BinOp::NeLoose,
                Some(Tok::EqEqEq) => BinOp::EqStrict,
                Some(Tok::NotEqEqEq) => BinOp::NeStrict,
                _ => break,
            };
            self.next();
            let r = self.relational()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn relational(&mut self) -> Result<Expr, EvalError> {
        let mut e = self.additive()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Lt) => BinOp::Lt,
                Some(Tok::Le) => BinOp::Le,
                Some(Tok::Gt) => BinOp::Gt,
                Some(Tok::Ge) => BinOp::Ge,
                Some(Tok::In) => BinOp::In,
                _ => break,
            };
            self.next();
            let r = self.additive()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn additive(&mut self) -> Result<Expr, EvalError> {
        let mut e = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let r = self.multiplicative()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn multiplicative(&mut self) -> Result<Expr, EvalError> {
        let mut e = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Mod,
                _ => break,
            };
            self.next();
            let r = self.unary()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Expr, EvalError> {
        let op = match self.peek() {
            Some(Tok::Minus) => Some(UnOp::Neg),
            Some(Tok::Plus) => Some(UnOp::Plus),
            Some(Tok::Not) => Some(UnOp::Not),
            Some(Tok::Typeof) => Some(UnOp::Typeof),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let e = self.unary()?;
            return Ok(Expr::Unary(op, Box::new(e)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, EvalError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Some(Tok::Dot) => {
                    self.next();
                    let name = match self.next() {
                        Some(Tok::Ident(s)) => s,
                        // Allow keywords as property names (e.g. `x.in`).
                        Some(Tok::In) => "in".to_string(),
                        Some(Tok::Of) => "of".to_string(),
                        other => {
                            return Err(self.err_here(format!(
                                "expected property name after '.', found {other:?}"
                            )))
                        }
                    };
                    e = Expr::Member(Box::new(e), name);
                }
                Some(Tok::LBracket) => {
                    self.next();
                    let idx = self.expression()?;
                    self.expect(&Tok::RBracket, "']'")?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                Some(Tok::LParen) => {
                    self.next();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.assignment()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen, "')' after arguments")?;
                    e = Expr::Call(Box::new(e), args);
                }
                Some(Tok::PlusPlus) | Some(Tok::MinusMinus) => {
                    // Desugar `x++` to `x = x + 1` (value semantics differ
                    // from JS post-increment, acceptable for CWL usage where
                    // the result value is almost never consumed).
                    let op = if self.peek() == Some(&Tok::PlusPlus) {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    };
                    self.next();
                    if !e.is_lvalue() {
                        return Err(self.err_here("invalid increment target"));
                    }
                    e = Expr::Assign(
                        Box::new(e.clone()),
                        Box::new(Expr::Binary(op, Box::new(e), Box::new(Expr::Num(1.0)))),
                    );
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, EvalError> {
        match self.next() {
            Some(Tok::Num(n)) => Ok(Expr::Num(n)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::True) => Ok(Expr::Bool(true)),
            Some(Tok::False) => Ok(Expr::Bool(false)),
            Some(Tok::Null) => Ok(Expr::Null),
            Some(Tok::Undefined) => Ok(Expr::Undefined),
            Some(Tok::Ident(s)) => Ok(Expr::Ident(s)),
            Some(Tok::LParen) => {
                let e = self.expression()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Some(Tok::LBracket) => {
                let mut items = Vec::new();
                if self.peek() != Some(&Tok::RBracket) {
                    loop {
                        items.push(self.assignment()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if self.peek() == Some(&Tok::RBracket) {
                            break; // trailing comma
                        }
                    }
                }
                self.expect(&Tok::RBracket, "']'")?;
                Ok(Expr::Array(items))
            }
            Some(Tok::LBrace) => {
                let mut props = Vec::new();
                if self.peek() != Some(&Tok::RBrace) {
                    loop {
                        let key = match self.next() {
                            Some(Tok::Ident(s)) => s,
                            Some(Tok::Str(s)) => s,
                            Some(Tok::Num(n)) => crate::js::eval::js_number_to_string(n),
                            other => {
                                return Err(
                                    self.err_here(format!("expected object key, found {other:?}"))
                                )
                            }
                        };
                        self.expect(&Tok::Colon, "':' after object key")?;
                        let value = self.assignment()?;
                        props.push((key, value));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if self.peek() == Some(&Tok::RBrace) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBrace, "'}'")?;
                Ok(Expr::Object(props))
            }
            other => Err(self.err_here(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_member_chains() {
        let e = parse_expression("inputs.message.length").unwrap();
        assert_eq!(
            e,
            Expr::Member(
                Box::new(Expr::Member(
                    Box::new(Expr::Ident("inputs".into())),
                    "message".into()
                )),
                "length".into()
            )
        );
    }

    #[test]
    fn precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let e = parse_expression("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ternary_and_logical() {
        let e = parse_expression("a && b ? x : y || z").unwrap();
        assert!(matches!(e, Expr::Ternary(_, _, _)));
    }

    #[test]
    fn calls_and_indexing() {
        let e = parse_expression("self[0].basename.split('.')[1]").unwrap();
        // Just check it parses to an index at top level.
        assert!(matches!(e, Expr::Index(_, _)));
    }

    #[test]
    fn object_and_array_literals() {
        let e = parse_expression("{a: 1, 'b c': [1, 2,], 3: x}").unwrap();
        match e {
            Expr::Object(props) => {
                assert_eq!(props.len(), 3);
                assert_eq!(props[1].0, "b c");
                assert_eq!(props[2].0, "3");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn body_statements() {
        let body = parse_body(
            "var parts = inputs.name.split('.');\n\
             var out = [];\n\
             for (var i = 0; i < parts.length; i++) { out = out.concat(parts[i]); }\n\
             return out.join('-');",
        )
        .unwrap();
        assert_eq!(body.len(), 4);
        assert!(matches!(body[3], Stmt::Return(Some(_))));
    }

    #[test]
    fn for_of() {
        let body = parse_body("for (var w of words) { total = total + 1; } return total;").unwrap();
        assert!(matches!(body[0], Stmt::ForOf { .. }));
    }

    #[test]
    fn postincrement_desugars() {
        let body = parse_body("i++;").unwrap();
        match &body[0] {
            Stmt::Expr(Expr::Assign(t, v)) => {
                assert_eq!(**t, Expr::Ident("i".into()));
                assert!(matches!(**v, Expr::Binary(BinOp::Add, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_cases() {
        assert!(parse_expression("1 +").is_err());
        assert!(parse_expression("(1").is_err());
        assert!(parse_expression("1 2").is_err());
        assert!(parse_expression("1 = 2").is_err());
        assert!(parse_body("if (x) { return 1").is_err());
        assert!(parse_body("function f() {}").is_err());
    }

    #[test]
    fn else_if_chain() {
        let body = parse_body("if (a) { return 1; } else if (b) { return 2; } else { return 3; }")
            .unwrap();
        match &body[0] {
            Stmt::If(_, _, els) => match &els[0] {
                Stmt::If(_, _, els2) => assert_eq!(els2.len(), 1),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
