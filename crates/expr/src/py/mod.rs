//! The Python-subset interpreter backing the paper's
//! `InlinePythonRequirement` (§V).
//!
//! An `expressionLib` block compiles to a [`PyLib`]; f-string-style
//! expressions (`f"{capitalize_words($(inputs.message))}"`) evaluate against
//! it in-process — no interpreter is spawned, which is exactly the property
//! the paper's Fig. 2 measures against JavaScript expressions.

pub mod ast;
pub mod builtins;
pub(crate) mod eval;
pub(crate) mod lexer;
pub(crate) mod parser;

pub use eval::PyLib;

use crate::cache;
use crate::error::EvalError;
use std::sync::Arc;

/// Lex and parse a Python expression without evaluating it. Shares the
/// compiled-expression cache with [`PyLib::eval_expression`].
pub fn parse_only_expression(src: &str) -> Result<Arc<ast::PExpr>, EvalError> {
    cache::global::py_expr().get_or_compile(src, parser::parse_expression)
}

/// Lex and parse an `expressionLib` module without executing any of its
/// top-level statements (unlike [`PyLib::compile`], which runs them to build
/// module globals). This is the safe entry point for static analysis.
pub fn parse_only_module(src: &str) -> Result<Vec<ast::PStmt>, EvalError> {
    parser::parse_module(src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::{vmap, Map, Value};

    fn ctx() -> Map {
        match vmap! {"inputs" => vmap!{"n" => 6i64}} {
            Value::Map(m) => m,
            _ => unreachable!(),
        }
    }

    /// A library with several interdependent functions, exercising the
    /// module-compilation path end to end.
    #[test]
    fn multi_function_library() {
        let src = "
BASE = 10

def scale(x):
    return x * BASE

def describe(x):
    s = scale(x)
    if s > 50:
        return f'big: {s}'
    return f'small: {s}'
";
        let lib = PyLib::compile(src).unwrap();
        assert_eq!(
            lib.eval_expression("describe($(inputs.n))", &ctx())
                .unwrap(),
            Value::str("big: 60")
        );
        assert_eq!(
            lib.eval_expression("describe(2)", &ctx()).unwrap(),
            Value::str("small: 20")
        );
    }

    #[test]
    fn extend_merges_libraries() {
        let mut a = PyLib::compile("def f(x):\n    return x + 1\n").unwrap();
        let b = PyLib::compile("def g(x):\n    return x * 2\n").unwrap();
        a.extend(&b);
        assert_eq!(a.eval_expression("g(f(3))", &ctx()).unwrap(), Value::Int(8));
    }

    #[test]
    fn module_level_loops_allowed() {
        let lib = PyLib::compile("xs = []\nfor i in range(3):\n    xs.append(i * i)\n").unwrap();
        assert_eq!(
            lib.eval_expression("xs", &ctx()).unwrap(),
            yamlite::vseq![0i64, 1i64, 4i64]
        );
    }

    #[test]
    fn module_level_return_rejected() {
        assert!(PyLib::compile("return 1\n").is_err());
        assert!(PyLib::compile("break\n").is_err());
    }
}
