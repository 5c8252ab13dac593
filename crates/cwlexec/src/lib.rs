//! `cwlexec` — the shared execution semantics every runner in this
//! workspace builds on: what one tool run means, and what one workflow step
//! instance means.
//!
//! Running one `CommandLineTool` means: resolve the input object → run the
//! paper's `validate:` hooks → build the command line → execute it → collect
//! the output object. That pipeline is identical whether the caller is the
//! Parsl bridge (`cwl_parsl`), the cwltool-like reference runner, or the
//! Toil-like runner — they differ in *scheduling* and *overhead structure*,
//! not in semantics. This crate owns the per-tool semantics:
//!
//! * [`engine_for`] — pick and build the expression engine a tool needs
//!   (inline Python from the paper's `InlinePythonRequirement`, otherwise
//!   JavaScript with a configurable process-boundary cost model);
//! * [`ToolDispatch`] — how a built command actually runs:
//!   [`SubprocessDispatch`] spawns the real process;
//!   [`BuiltinDispatch`] recognizes the workspace's workload commands
//!   (`imgtool`, `echo`, `cat`, `sleepms`, `wc-words`) and executes them
//!   in-process, which keeps thousand-task benchmark sweeps hermetic while
//!   exercising the identical binding/collection code path;
//! * [`execute_tool`] — the full per-tool pipeline; [`execute_tool_staged`]
//!   is the same pipeline with the content-addressed data plane attached
//!   (inputs staged zero-copy into the workdir, outputs registered as CAS
//!   handles with digests).
//!
//! and the per-step semantics of a `Workflow`, as pure functions in
//! [`step`]: workflow-input resolution, run-target preparation, source
//! gathering (`linkMerge`, step `default`), scatter, `valueFrom`, `when`
//! and step outputs. The ready-wave executor in `runners` and the Parsl
//! workflow compiler in `cwl_parsl` both bind a step instance through it.

#![warn(unreachable_pub)]

pub(crate) mod dispatch;
pub(crate) mod engine;
pub(crate) mod exec;
pub(crate) mod staging;
pub mod step;

pub use dispatch::{BuiltinDispatch, FlakyDispatch, SubprocessDispatch, ToolDispatch};
pub use engine::engine_for;
pub use exec::{execute_tool, execute_tool_staged, ToolRun};
pub use staging::{probe_creatable, publish_stage_stats, StageCtx, StagingSettings};
