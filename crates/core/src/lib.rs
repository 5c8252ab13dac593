//! `cwl_parsl` — the paper's contribution: the integration of CWL and Parsl.
//!
//! Its pieces (paper §III–§V, and the run lifecycle they share):
//!
//! * [`CwlApp`] — *importing tool definitions*: load a CWL
//!   `CommandLineTool` and call it like any other Parsl app. Inputs are
//!   keyword arguments; `File`-typed inputs accept paths or upstream
//!   [`parsl::DataFuture`]s; every declared file output comes back as a
//!   `DataFuture` that downstream apps (CWL or not) can consume without
//!   waiting (§III-A, Listings 1–2);
//! * [`config`] — the TaPS-style YAML configuration the `parsl-cwl` runner
//!   uses to pick an executor/provider (§III-B), plus the runner library
//!   behind the `parsl-cwl` binary;
//! * [`run`] — one run's document set and inputs ([`RunSpec`]), and the
//!   lifecycle steps `parsl-cwl` and `parsl-serve` share: gate, hash,
//!   prestage, execute;
//! * [`wfrunner`] — the paper's stated future work, implemented here as an
//!   extension: executing a complete CWL `Workflow` (including scatter and
//!   subworkflows) on Parsl's dataflow kernel, one Parsl task per step
//!   instance with dependencies expressed as futures.
//!
//! Inline-Python expressions (§V) flow in through the `cwl`/`expr` crates:
//! any document carrying `InlinePythonRequirement` gets its expressions
//! evaluated in-process by the Python-subset interpreter.

#![warn(unreachable_pub)]

pub mod checkpoint;
pub mod config;
pub(crate) mod cwlapp;
pub mod lint;
pub mod proto;
pub(crate) mod run;
pub mod runner;
mod task;
pub(crate) mod wfrunner;

pub use config::{load_config_file, load_config_value, RunnerConfig, ServeSettings};
pub use cwlapp::{CwlApp, CwlAppOptions, CwlInvocation, CwlRun};
pub use run::RunSpec;
pub use runner::{run_tool_cli, run_tool_cli_resumable, CkptReport, CliOutcome};
pub use wfrunner::ParslWorkflowRunner;
