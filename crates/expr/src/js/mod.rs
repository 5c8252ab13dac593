//! The JavaScript-subset interpreter backing CWL's
//! `InlineJavascriptRequirement`.
//!
//! Two entry points mirror the CWL expression forms:
//!
//! * [`eval_expression`] evaluates a single expression — the contents of a
//!   `$(...)` parameter reference/expression;
//! * [`run_body`] executes a statement body — the contents of a `${...}`
//!   block — and returns the value of its `return` statement.
//!
//! The interpreter is a plain lexer → AST → tree-walking evaluator over
//! [`yamlite::Value`]. A step budget guards against runaway loops.

pub mod ast;
pub(crate) mod eval;
pub(crate) mod lexer;
pub(crate) mod parser;
pub mod stdlib;

pub use eval::{eval_expression, js_to_number, js_to_string, run_body};

use crate::cache;
use crate::error::EvalError;
use std::sync::Arc;

/// Lex and parse a `$(...)` expression without evaluating it and without
/// charging the modelled engine-spawn cost. Shares the compiled-expression
/// cache with [`eval_expression`], so a document that is linted and then
/// executed parses each distinct expression exactly once.
pub fn parse_only_expression(src: &str) -> Result<Arc<ast::Expr>, EvalError> {
    cache::global::js_expr().get_or_compile(src, parser::parse_expression)
}

/// Lex and parse a `${...}` statement body without executing it. Shares the
/// compiled-body cache with [`run_body`].
pub fn parse_only_body(src: &str) -> Result<Arc<Vec<ast::Stmt>>, EvalError> {
    cache::global::js_body().get_or_compile(src, parser::parse_body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::{vmap, Map, Value};

    fn globals() -> Map {
        match vmap! {
            "inputs" => vmap!{"message" => "hello brave new world"},
        } {
            Value::Map(m) => m,
            _ => unreachable!(),
        }
    }

    /// End-to-end: the kind of expression a real CWL tool uses to build an
    /// output filename from an input filename.
    #[test]
    fn realistic_output_name_expression() {
        let g = match vmap! {
            "inputs" => vmap!{"src" => vmap!{"basename" => "sample.fastq.gz"}},
        } {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        let v = eval_expression("inputs.src.basename.split('.')[0] + '.bam'", &g).unwrap();
        assert_eq!(v, Value::str("sample.bam"));
    }

    /// End-to-end: a `${...}` body that word-counts, as Fig. 2's workload
    /// does at scale.
    #[test]
    fn word_processing_body() {
        let src = "
            var words = inputs.message.split(' ');
            var out = [];
            for (var i = 0; i < words.length; i++) {
                var w = words[i];
                out.push(w.charAt(0).toUpperCase() + w.slice(1));
            }
            return out.join(' ');
        ";
        let v = run_body(src, &globals()).unwrap();
        assert_eq!(v, Value::str("Hello Brave New World"));
    }

    #[test]
    fn resource_expression() {
        let g = match vmap! {
            "runtime" => vmap!{"cores" => 48i64, "ram" => 126000i64},
        } {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        let v = eval_expression("Math.floor(runtime.ram / runtime.cores)", &g).unwrap();
        assert_eq!(v, Value::Int(2625));
    }
}
