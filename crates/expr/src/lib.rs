//! `expr` — the two expression engines behind CWL dynamic behaviour.
//!
//! CWL workflows embed *expressions* in their YAML definitions. The spec
//! supports JavaScript (via `InlineJavascriptRequirement`); the Parsl+CWL
//! paper (§V) proposes `InlinePythonRequirement`, a Python equivalent that
//! matches Parsl's execution environment. This crate implements both as
//! small tree-walking interpreters over the shared [`yamlite::Value`] model:
//!
//! * [`js`] — a JavaScript subset: literals, member/index access, calls,
//!   arithmetic/comparison/logic, ternary, and `${...}` function bodies with
//!   `var`/`if`/`for`/`while`/`return`. String/array/Math builtins cover what
//!   CWL expressions use in practice.
//! * [`py`] — a Python subset: `def` functions, f-strings, conditionals,
//!   loops, `raise`, and a pragmatic builtin library (`len`, `range`, `str`
//!   methods like `title`/`endswith`, …).
//! * [`cache`] — the compiled-expression cache: each distinct expression
//!   source lexes/parses once into an `Arc`'d AST (bounded LRU keyed by
//!   source hash); repeated evaluations pay only tree-walking. The modelled
//!   process-boundary costs below are *not* cached — they are per-evaluation
//!   by construction, as in the systems they model.
//! * [`paramref`] — `$(inputs.x)` CWL parameter references.
//! * [`interp`] — CWL string interpolation: embedding any number of
//!   `$(...)`/`${...}` fragments in a string, and the paper's f-string-like
//!   notation (`f"{fn($(inputs.x))}"`) that marks inline-Python expressions.
//! * [`engine`] — the [`engine::ExpressionEngine`] trait plus the **cost
//!   model** that reproduces the paper's Fig. 2: the JS engine pays a
//!   modelled engine-spawn plus per-byte input-marshalling cost on every
//!   evaluation (as `cwltool` does by spawning a `node` process and piping
//!   the full input object as JSON), while the Python engine evaluates
//!   in-process with no modelled overhead (as `parsl-cwl` does).
//!
//! The interpreters are real: lexer → AST → evaluator, with precise error
//! positions. Only the *process-boundary overhead* of the JS path is
//! modelled (through [`gridsim::pay`]); everything else is genuine work.

#![warn(unreachable_pub)]

pub mod cache;
pub(crate) mod engine;
pub(crate) mod error;
pub mod interp;
pub mod js;
pub(crate) mod paramref;
pub mod py;

pub use cache::{CacheStats, ProgramCache};
pub use engine::{EngineKind, ExpressionEngine, JsCostModel, JsEngine, PyEngine};
pub use error::{EvalError, EvalErrorKind};
pub use interp::{fragments, interpolate, is_fstring_literal, Frag, Interpolatable};
pub use paramref::EvalContext;
