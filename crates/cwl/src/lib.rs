//! `cwl` — a from-scratch implementation of the Common Workflow Language
//! v1.2 subset the Parsl+CWL paper exercises.
//!
//! CWL has two main abstractions (paper §II-A), both modeled here:
//!
//! * [`CommandLineTool`] — the YAML description of a command-line program:
//!   `baseCommand`, typed `inputs` with `inputBinding`s, typed `outputs`
//!   (including `stdout`/`stderr` capture and `glob` collection),
//!   `arguments`, and `requirements`;
//! * [`Workflow`] — steps linked by `source` references, with
//!   `StepInputExpressionRequirement` (`valueFrom`),
//!   `ScatterFeatureRequirement` (`scatter`), and
//!   `SubworkflowFeatureRequirement` (nested workflows) — everything the
//!   paper's image-processing evaluation workflow (Listing 3 plus the §VI
//!   scatter wrapper) requires.
//!
//! Supporting machinery:
//!
//! * [`loader`] — YAML document → model;
//! * [`docs`] — the set of files a run consists of: `run:` references
//!   resolved relative to the referencing file, each file read once;
//! * [`validate`] — structural validation with precise diagnostics
//!   (cwltool's `--validate` role);
//! * [`analyze`] — whole-document static analysis (`cwl-check`): typed
//!   dataflow checking, parse-only expression linting, span-carrying
//!   diagnostics with stable codes;
//! * [`binding`] — the command-line binding algorithm (position/prefix
//!   sorting, array `itemSeparator`, boolean flags, `valueFrom`);
//! * [`outputs`] — post-execution output collection (stdout capture, glob);
//! * [`input`] — input-object normalization, defaults, type checking, and
//!   the paper's `validate:` field (§V, Listing 6).
//!
//! Expressions inside documents are delegated to an
//! [`expr::ExpressionEngine`] — JavaScript per the CWL spec, or the paper's
//! inline Python.

pub mod analyze;
pub mod binding;
pub mod docs;
pub mod input;
pub mod loader;
pub mod outputs;
pub mod requirements;
pub mod tool;
pub mod types;
pub mod validate;
pub mod workflow;

pub use analyze::{analyze_file, analyze_str, Diag, Report};
pub use binding::{build_command, BuiltCommand};
pub use docs::DocSet;
pub use loader::{load_document, load_file, CwlDocument};
pub use requirements::Requirements;
pub use tool::{Argument, CommandLineTool, InputBinding, InputParam, OutputParam};
pub use types::CwlType;
pub use validate::{validate_document, Diagnostic, Severity};
pub use workflow::{Step, StepInput, Workflow, WorkflowOutput};
