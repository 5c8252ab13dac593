//! `serve` — the `parsl-serve` multi-run workflow service.
//!
//! The standalone `parsl-cwl` runner pays full kernel/executor startup on
//! every invocation and gives each workflow the machine to itself. This
//! crate turns the same stack into a long-running daemon: one warm
//! [`parsl::DataFlowKernel`] and HTEX pool, one shared content-addressed
//! store, one observability registry — and many concurrent workflow runs
//! multiplexed over them:
//!
//! * [`Service`] — the core: admission control (the static
//!   analyzer runs at submit time with the daemon's real executor
//!   capacity, so unschedulable documents are rejected at the door with
//!   E032 diagnostics), a run registry with durable per-run manifests and
//!   checkpoint journals, and crash-resume on restart;
//! * [`FairShare`] — a deficit-round-robin
//!   [`parsl::DispatchGate`] giving each tenant executor slots in
//!   proportion to its configured weight;
//! * [`daemon`] — the Unix-socket protocol front end
//!   (`parsl-serve` binary): one readiness loop that waits on events, not
//!   on a timer, with graceful drain and SIGTERM fast-stop;
//! * the client side lives in
//!   `parsl-cwl submit|status|wait|logs|cancel|drain` (the `cwl_parsl`
//!   crate), sharing the wire format via [`cwl_parsl::proto`].

#![warn(unreachable_pub)]

pub(crate) mod daemon;
pub(crate) mod queue;
pub(crate) mod run;
pub(crate) mod service;
mod sys;

pub use daemon::{serve_daemon, Daemon, StopHandle};
pub use run::{RunRecord, RunState};
pub use service::{RunSnapshot, Service, SubmitError};
