//! `gridsim` — a simulated HPC-cluster substrate.
//!
//! The paper evaluates Parsl+CWL on a departmental Slurm cluster (3 nodes,
//! 2×12-core Intel CPUs = 48 logical CPUs and 126 GB RAM per node). This
//! workspace has no such cluster, so `gridsim` provides the closest synthetic
//! equivalent that still exercises the real code paths:
//!
//! * [`ClusterSpec`] / [`NodeSpec`] describe the simulated machine room;
//! * [`BatchScheduler`] implements a first-come-first-served batch queue with
//!   configurable submit latency and scheduling interval — pilot jobs wait in
//!   this queue exactly like Slurm jobs do;
//! * [`LatencyModel`] models network/dispatch costs that executors and
//!   baseline runners *pay* (by sleeping a scaled amount) when they would in
//!   reality cross a process or network boundary;
//! * [`TimeScale`] globally compresses all modelled latencies so full paper
//!   sweeps run in CI time while preserving the *ratios* between systems;
//! * [`interchange`] holds the HTEX interchange protocol's decisions with no
//!   I/O inside them: `parsl::htex` ships them and [`sim`] checks them.
//!
//! Everything that represents computation (image kernels, expression
//! evaluation) runs for real on real threads; only distributed-systems
//! overheads are modelled. This preserves contention, speedup curves, and
//! scheduling behaviour — the properties the paper's figures depend on.

#![warn(unreachable_pub)]

pub(crate) mod cluster;
pub(crate) mod fault;
pub mod interchange;
pub(crate) mod latency;
pub(crate) mod scheduler;
pub mod sim;

pub use cluster::{ClusterSpec, NodeSpec};
pub use fault::FaultPlan;
pub use latency::{pay, scaled, LatencyModel, TimeScale};
pub use scheduler::{BatchScheduler, JobHandle, JobId, JobRequest, JobState, SchedulerConfig};
pub use sim::{Scenario, SimConfig, SimDag, SimEvent, SimEventKind, SimFault, SimReport};
