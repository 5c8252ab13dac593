//! `parsl` — a Rust reconstruction of the Parsl parallel programming
//! library (Babuji et al., HPDC '19), the execution substrate of the
//! Parsl+CWL paper.
//!
//! The Python original lets developers annotate functions as *apps*; calling
//! an app returns a *future*, and passing one app's future into another app
//! implicitly builds a dataflow graph that the *DataFlowKernel* maps onto an
//! *executor* backed by compute *providers*. This crate reproduces that
//! architecture:
//!
//! * [`AppFuture`]/[`DataFuture`] — completion futures built on
//!   Mutex + Condvar with completion callbacks (no polling anywhere);
//! * [`DataFlowKernel`] — dependency tracking via callback-driven counters,
//!   failure propagation, retries, and event counters read through
//!   [`Monitoring`];
//! * [`Executor`] implementations:
//!   [`ThreadPoolExecutor`] (the paper's
//!   single-node configuration) and
//!   [`HighThroughputExecutor`] — the
//!   pilot-job model with an interchange, per-node managers, and
//!   a modelled network dispatch cost;
//! * [`Provider`] implementations: [`LocalProvider`]
//!   and [`SlurmProvider`] (pilot jobs through the
//!   simulated [`gridsim`] batch scheduler);
//! * [`apps`] — `FnApp`, the python_app analogue: any Rust closure is an
//!   app body (a CWL tool's is one that runs the tool through `cwlexec`'s
//!   dispatch);
//! * one checkpoint journal binding: a kernel-level journal
//!   ([`Config::with_checkpoint`]) and a `parsl-serve` run's journal
//!   ([`DataFlowKernel::attach_run_journal`]) seed, append, replay and
//!   flush through the same code.
//!
//! # Quickstart
//!
//! ```
//! use parsl::{DataFlowKernel, Config, AppArg};
//! use std::sync::Arc;
//! use yamlite::Value;
//!
//! let dfk = DataFlowKernel::new(Config::local_threads(4));
//! let double = Arc::new(|args: &[Value]| {
//!     Ok(Value::Int(args[0].as_int().unwrap() * 2))
//! });
//! let a = dfk.submit("double", vec![AppArg::value(21i64)], double.clone());
//! let b = dfk.submit("double", vec![AppArg::future(&a)], double);
//! assert_eq!(b.result().unwrap(), Value::Int(84));
//! dfk.shutdown();
//! ```

pub mod apps;
pub mod config;
pub mod dfk;
pub mod error;
pub mod executor;
pub mod file;
pub mod future;
pub mod htex;
pub mod monitoring;
pub mod provider;
pub mod strategy;
pub mod task;

pub use apps::{AppBody, FnApp};
pub use config::{Capacity, Config, ExecutorChoice, RetryPolicy};
pub use dfk::{AppArg, CkptStats, DataFlowKernel, DispatchGate, GatedLaunch, RunTag};
pub use error::TaskError;
pub use executor::{Executor, TaskPayload, ThreadPoolExecutor};
pub use file::File;
pub use future::{AppFuture, DataFuture, Promise};
pub use htex::{HighThroughputExecutor, HtexConfig};
pub use monitoring::{FaultSummary, Monitoring, TaskSummary};
pub use provider::{LocalProvider, NodeHandle, Provider, SlurmProvider};
pub use strategy::{ScalingPolicy, Strategy};
pub use task::TaskId;

// Re-export the observability surface callers need to configure and read
// traces without depending on `obs` directly.
pub use obs::{ObsConfig, Observability, SpanCtx, SpanKind, SpanRecord};
