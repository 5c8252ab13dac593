//! Execution profiles: the per-architecture cost structure of each runner.

use cwlexec::StagingSettings;
use datastore::StageMode;
use expr::JsCostModel;
use std::path::PathBuf;
use std::time::Duration;

/// The knobs distinguishing runner architectures. All `Duration` costs are
/// paid through [`gridsim::pay`] and therefore scale with
/// [`gridsim::TimeScale`]; boolean knobs select *real work* (file I/O,
/// re-parsing) that the original systems genuinely perform.
#[derive(Clone)]
pub struct ExecProfile {
    /// Runner name for reports.
    pub(crate) name: String,
    /// Concurrent job slots (the paper configures "all cores on the
    /// allocated nodes").
    pub(crate) slots: usize,
    /// Interpreter/process start-up paid per task (cwltool forks a Python
    /// job runner per step; measured CPython start-up is ~25 ms). Paid on
    /// the worker, so it overlaps across slots.
    pub(crate) per_task_overhead: Duration,
    /// Coordinator-side job construction paid per task, **serialized** on
    /// the scheduling thread (cwltool/Toil build each job's object —
    /// deep-copying the job order, provenance records — in the main
    /// process before dispatch).
    pub(crate) setup_per_task: Duration,
    /// Additional serialized coordinator cost per KiB of the job's input
    /// object (the deep copies grow with the inputs; this is what makes
    /// expression-heavy workflows with large contexts superlinear).
    pub(crate) setup_per_kib: Duration,
    /// Re-parse and re-validate the step's CWL document per task, as
    /// cwltool's per-job pipeline effectively does (real CPU work).
    pub revalidate_per_task: bool,
    /// Cost model for JavaScript expression evaluation (node process
    /// spawn + context marshalling).
    pub(crate) js_cost: JsCostModel,
    /// Batch-system submit latency per task (Toil's sbatch round trip).
    pub(crate) submit_latency: Duration,
    /// Leader poll interval; completed tasks become visible half an
    /// interval later on average (Toil's polling leader).
    pub(crate) poll_interval: Duration,
    /// Write job/result files into this job store per task (Toil's
    /// file-backed job store; real I/O).
    pub(crate) job_store: Option<PathBuf>,
    /// Run the `cwl::analyze` static pass before execution and refuse to
    /// start when it reports errors (cwltool's pre-flight `--validate`
    /// role, but with typed dataflow + expression linting).
    pub(crate) precheck: bool,
    /// Under `precheck`, also refuse to start on warnings.
    pub(crate) precheck_strict: bool,
    /// Data-plane configuration. The baseline profiles stage by byte
    /// copy (what cwltool and Toil actually do); `bare` uses the
    /// zero-copy ladder.
    pub(crate) staging: StagingSettings,
}

impl ExecProfile {
    /// A zero-overhead profile (unit tests, upper-bound measurements).
    pub fn bare(slots: usize) -> Self {
        Self {
            name: "bare".to_string(),
            slots,
            per_task_overhead: Duration::ZERO,
            setup_per_task: Duration::ZERO,
            setup_per_kib: Duration::ZERO,
            revalidate_per_task: false,
            js_cost: JsCostModel::free(),
            submit_latency: Duration::ZERO,
            poll_interval: Duration::ZERO,
            job_store: None,
            precheck: false,
            precheck_strict: false,
            staging: StagingSettings::default(),
        }
    }

    /// `cwltool --parallel`: thread-per-ready-job scheduling, per-job Python
    /// process start-up, per-job document re-processing, node-per-expression
    /// JS evaluation.
    pub(crate) fn cwltool_like(slots: usize) -> Self {
        Self {
            name: "cwltool".to_string(),
            slots,
            per_task_overhead: Duration::from_millis(25),
            setup_per_task: Duration::from_millis(2),
            setup_per_kib: Duration::from_millis(1),
            revalidate_per_task: true,
            js_cost: JsCostModel::cwltool_like(),
            submit_latency: Duration::ZERO,
            poll_interval: Duration::ZERO,
            job_store: None,
            precheck: true,
            precheck_strict: false,
            staging: StagingSettings {
                mode: StageMode::Copy,
                ..StagingSettings::default()
            },
        }
    }

    /// `toil-cwl-runner` with the slurm batch system: job-store round trips,
    /// sbatch submit latency, polling leader, node-per-expression JS.
    pub(crate) fn toil_like(slots: usize, job_store: PathBuf) -> Self {
        Self {
            name: "toil".to_string(),
            slots,
            per_task_overhead: Duration::from_millis(30),
            setup_per_task: Duration::from_millis(4),
            setup_per_kib: Duration::from_micros(1500),
            revalidate_per_task: false,
            js_cost: JsCostModel::toil_like(),
            submit_latency: Duration::from_millis(20),
            poll_interval: Duration::from_millis(40),
            job_store: Some(job_store),
            precheck: true,
            precheck_strict: false,
            staging: StagingSettings {
                mode: StageMode::Copy,
                ..StagingSettings::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_architecturally() {
        let bare = ExecProfile::bare(4);
        let cwl = ExecProfile::cwltool_like(4);
        let toil = ExecProfile::toil_like(4, "/tmp/js".into());
        assert!(bare.per_task_overhead.is_zero());
        assert!(cwl.revalidate_per_task);
        assert!(!toil.revalidate_per_task);
        assert!(toil.job_store.is_some());
        assert!(cwl.job_store.is_none());
        assert!(toil.submit_latency > Duration::ZERO);
        assert!(cwl.submit_latency.is_zero());
    }
}
