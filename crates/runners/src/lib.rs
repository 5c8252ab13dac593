//! `runners` — honest re-implementations of the CWL runners the paper
//! benchmarks against (§VI): the reference runner `cwltool` (with its
//! `--parallel` option) and `toil-cwl-runner` (job-store based, batch
//! submission, polling leader).
//!
//! Both are built from the same generic workflow executor
//! ([`wfexec::WorkflowExecutor`]) parameterized by an [`ExecProfile`] that
//! encodes each system's *architectural* costs — they do the extra work
//! their originals do (per-step document re-parsing and re-validation for
//! cwltool; job-store file round-trips, submit latency, and poll-discovery
//! delay for Toil), rather than applying a fudge factor. Per-process costs
//! that cannot be reproduced in-process (CPython/node start-up) are paid
//! through [`gridsim::pay`] and globally scalable via
//! [`gridsim::TimeScale`].

#![warn(unreachable_pub)]

pub(crate) mod pool;
pub(crate) mod profile;
pub(crate) mod refrunner;
pub(crate) mod report;
pub(crate) mod toil;
pub(crate) mod wfexec;

pub use profile::ExecProfile;
pub use refrunner::RefRunner;
pub use report::RunReport;
pub use toil::ToilRunner;
