//! The [`ExpressionEngine`] abstraction and its two implementations, with the
//! cost model that distinguishes them in the paper's Fig. 2.
//!
//! * [`JsEngine`] — evaluates CWL JavaScript expressions. Real `cwltool`
//!   spawns a `node` process per expression evaluation and pipes the full
//!   input object into it as JSON. We model that process boundary: each
//!   evaluation *pays* a spawn cost plus a per-KiB marshalling cost over the
//!   serialized context (through [`gridsim::pay`], globally scalable), then
//!   runs our real JS-subset interpreter.
//! * [`PyEngine`] — evaluates the paper's `InlinePythonRequirement`
//!   expressions **in-process** against a compiled [`PyLib`], with no
//!   modelled overhead — exactly the architectural property that makes the
//!   paper's inline-Python curve flat.

use crate::error::EvalError;
use crate::js;
use crate::paramref::EvalContext;
use crate::py::PyLib;
use std::time::Duration;
use yamlite::Value;

/// Which language an engine implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// CWL `InlineJavascriptRequirement`.
    Javascript,
    /// The paper's `InlinePythonRequirement`.
    InlinePython,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Javascript => f.write_str("javascript"),
            EngineKind::InlinePython => f.write_str("inline-python"),
        }
    }
}

/// An expression engine a CWL runner can delegate dynamic behaviour to.
pub trait ExpressionEngine: Send + Sync {
    /// Which language this engine speaks.
    fn kind(&self) -> EngineKind;

    /// Evaluate the content of a `$(...)` fragment.
    fn eval_paren(&self, src: &str, ctx: &EvalContext) -> Result<Value, EvalError>;

    /// Evaluate the content of a `${...}` statement body.
    fn eval_body(&self, src: &str, ctx: &EvalContext) -> Result<Value, EvalError>;

    /// Evaluate a whole string literal that may itself be an expression in
    /// this engine's surface syntax (e.g. the paper's `f"{...}"` notation
    /// for inline Python). Returns `None` when the string is not an
    /// expression for this engine and should go through ordinary
    /// interpolation instead.
    fn eval_literal(&self, s: &str, ctx: &EvalContext) -> Option<Result<Value, EvalError>>;
}

/// Cost model for the JavaScript engine's process boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct JsCostModel {
    /// Engine (node process) start-up paid once per evaluation.
    pub(crate) spawn: Duration,
    /// Marshalling cost per KiB of serialized evaluation context.
    pub(crate) marshal_per_kib: Duration,
}

impl JsCostModel {
    /// Calibrated to measured `node -e` start-up (~35 ms) and JSON pipe
    /// throughput on commodity hardware. Scaled globally by
    /// [`gridsim::TimeScale`].
    pub fn cwltool_like() -> Self {
        Self {
            spawn: Duration::from_millis(35),
            marshal_per_kib: Duration::from_micros(400),
        }
    }

    /// Toil evaluates expressions through the same node-per-expression path
    /// but adds job-store bookkeeping around it.
    pub fn toil_like() -> Self {
        Self {
            spawn: Duration::from_millis(45),
            marshal_per_kib: Duration::from_micros(500),
        }
    }

    /// No modelled cost (pure interpreter benchmarking).
    pub fn free() -> Self {
        Self {
            spawn: Duration::ZERO,
            marshal_per_kib: Duration::ZERO,
        }
    }

    /// Pay the boundary cost for one evaluation over `ctx`.
    fn pay(&self, ctx: &EvalContext) {
        if self.spawn.is_zero() && self.marshal_per_kib.is_zero() {
            return;
        }
        let bytes = yamlite::to_string_flow(&ctx.inputs).len()
            + yamlite::to_string_flow(&ctx.self_).len()
            + yamlite::to_string_flow(&ctx.runtime).len();
        let kib = (bytes as f64 / 1024.0).ceil() as u32;
        gridsim::pay(self.spawn + self.marshal_per_kib * kib);
    }
}

/// The JavaScript expression engine (CWL `InlineJavascriptRequirement`).
pub struct JsEngine {
    cost: JsCostModel,
}

impl JsEngine {
    /// Engine with a given process-boundary cost model.
    pub fn new(cost: JsCostModel) -> Self {
        Self { cost }
    }

    /// Engine with no modelled overhead.
    pub fn in_process() -> Self {
        Self::new(JsCostModel::free())
    }
}

impl ExpressionEngine for JsEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Javascript
    }

    fn eval_paren(&self, src: &str, ctx: &EvalContext) -> Result<Value, EvalError> {
        // Simple parameter references skip the JS engine entirely — real
        // cwltool also short-circuits these without spawning node.
        if crate::paramref::is_simple_reference(src) {
            return crate::paramref::resolve(&ctx.to_globals(), src.trim());
        }
        self.cost.pay(ctx);
        js::eval_expression(src, &ctx.to_globals())
    }

    fn eval_body(&self, src: &str, ctx: &EvalContext) -> Result<Value, EvalError> {
        self.cost.pay(ctx);
        js::run_body(src, &ctx.to_globals())
    }

    fn eval_literal(&self, _s: &str, _ctx: &EvalContext) -> Option<Result<Value, EvalError>> {
        None // JS has no whole-literal expression form beyond $()/${}.
    }
}

/// The inline-Python expression engine (the paper's
/// `InlinePythonRequirement`).
pub struct PyEngine {
    lib: PyLib,
}

impl PyEngine {
    /// Engine over a compiled expression library.
    pub fn new(lib: PyLib) -> Self {
        Self { lib }
    }

    /// Compile an `expressionLib` source block into an engine.
    pub fn compile(src: &str) -> Result<Self, EvalError> {
        Ok(Self {
            lib: PyLib::compile(src)?,
        })
    }
}

impl ExpressionEngine for PyEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::InlinePython
    }

    fn eval_paren(&self, src: &str, ctx: &EvalContext) -> Result<Value, EvalError> {
        if crate::paramref::is_simple_reference(src) {
            return crate::paramref::resolve(&ctx.to_globals(), src.trim());
        }
        self.lib.eval_expression(src, &ctx.to_globals())
    }

    fn eval_body(&self, src: &str, ctx: &EvalContext) -> Result<Value, EvalError> {
        // Python has no `${...}` form; treat the body as an expression for
        // interoperability with documents written for JS runners.
        self.lib.eval_expression(src.trim(), &ctx.to_globals())
    }

    fn eval_literal(&self, s: &str, ctx: &EvalContext) -> Option<Result<Value, EvalError>> {
        // The paper's signal that a string is an inline-Python expression:
        // it is written as a Python f-string literal.
        if !crate::interp::is_fstring_literal(s) {
            return None;
        }
        Some(self.lib.eval_expression(s.trim(), &ctx.to_globals()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::vmap;

    fn ctx() -> EvalContext {
        EvalContext::from_inputs(vmap! {"message" => "hello world", "n" => 3i64})
    }

    #[test]
    fn js_engine_paren_and_body() {
        let e = JsEngine::in_process();
        assert_eq!(
            e.eval_paren("inputs.message", &ctx()).unwrap(),
            Value::str("hello world")
        );
        assert_eq!(
            e.eval_paren("inputs.message.toUpperCase()", &ctx())
                .unwrap(),
            Value::str("HELLO WORLD")
        );
        assert_eq!(
            e.eval_body("return inputs.n * 2;", &ctx()).unwrap(),
            Value::Int(6)
        );
        assert!(e.eval_literal("f\"{x}\"", &ctx()).is_none());
    }

    #[test]
    fn py_engine_fstring_literal() {
        let engine = PyEngine::compile("def shout(m):\n    return m.upper()\n").unwrap();
        let out = engine
            .eval_literal("f\"{shout($(inputs.message))}!\"", &ctx())
            .unwrap()
            .unwrap();
        assert_eq!(out, Value::str("HELLO WORLD!"));
        // Non-f-strings are not literals for this engine.
        assert!(engine.eval_literal("plain", &ctx()).is_none());
        assert!(engine.eval_literal("$(inputs.message)", &ctx()).is_none());
    }

    #[test]
    fn py_engine_paren() {
        let e = PyEngine::new(PyLib::default());
        assert_eq!(e.eval_paren("inputs.n", &ctx()).unwrap(), Value::Int(3));
        assert_eq!(
            e.eval_paren("len($(inputs.message))", &ctx()).unwrap(),
            Value::Int(11)
        );
    }

    #[test]
    fn js_cost_scales_with_context_size() {
        // With TimeScale at default 1.0 this would sleep; use explicit
        // zero-cost check plus arithmetic check of the model itself.
        let m = JsCostModel {
            spawn: Duration::from_millis(10),
            marshal_per_kib: Duration::from_millis(1),
        };
        assert_eq!(m.spawn, Duration::from_millis(10));
        let free = JsCostModel::free();
        assert!(free.spawn.is_zero());
        // Paying a free model is instantaneous.
        let t = std::time::Instant::now();
        free.pay(&ctx());
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn kind_display() {
        assert_eq!(EngineKind::Javascript.to_string(), "javascript");
        assert_eq!(EngineKind::InlinePython.to_string(), "inline-python");
    }
}
