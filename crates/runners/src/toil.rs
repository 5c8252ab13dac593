//! The Toil-like runner.

use crate::profile::ExecProfile;
use crate::report::RunReport;
use crate::wfexec::WorkflowExecutor;
use cwlexec::ToolDispatch;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use yamlite::Map;

/// A runner reproducing `toil-cwl-runner`'s architecture: a leader that
/// persists every job to a file-backed *job store*, submits tasks through a
/// batch system (paying submit latency), and discovers completions by
/// polling. Distributed deployments take their slot count from the
/// simulated cluster.
pub struct ToilRunner {
    exec: WorkflowExecutor,
    job_store: PathBuf,
}

impl ToilRunner {
    /// Single-machine deployment (`--batchSystem single_machine`).
    pub fn single_machine(
        slots: usize,
        job_store: PathBuf,
        dispatch: Arc<dyn ToolDispatch>,
    ) -> Self {
        Self {
            exec: WorkflowExecutor::new(ExecProfile::toil_like(slots, job_store.clone()), dispatch),
            job_store,
        }
    }

    /// Slurm deployment over the simulated cluster: slot count = total
    /// cluster cores, submit latency per task as with real sbatch.
    pub fn slurm(
        cluster: &gridsim::ClusterSpec,
        job_store: PathBuf,
        dispatch: Arc<dyn ToolDispatch>,
    ) -> Self {
        Self::single_machine(cluster.total_cores(), job_store, dispatch)
    }

    /// Execute a tool or workflow file.
    pub fn run(
        &self,
        path: impl AsRef<Path>,
        inputs: &Map,
        workdir: impl AsRef<Path>,
    ) -> Result<RunReport, String> {
        std::fs::create_dir_all(&self.job_store)
            .map_err(|e| format!("cannot create job store: {e}"))?;
        self.exec
            .run_docs(&cwl::DocSet::load(path), inputs, workdir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwlexec::BuiltinDispatch;
    use yamlite::{vmap, Value};

    impl ToilRunner {
        /// Number of job files currently in the job store.
        fn job_store_entries(&self) -> usize {
            std::fs::read_dir(&self.job_store)
                .map(|rd| {
                    rd.filter_map(Result::ok)
                        .filter(|e| e.path().extension().is_some_and(|x| x == "yml"))
                        .count()
                })
                .unwrap_or(0)
        }
    }

    fn fixtures() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
    }

    fn workdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("toil-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn as_map(v: Value) -> Map {
        match v {
            Value::Map(m) => m,
            _ => unreachable!(),
        }
    }

    #[test]
    fn runs_pipeline_and_populates_job_store() {
        let dir = workdir("pipeline");
        imaging::write_rimg(dir.join("input.rimg"), &imaging::gradient(24, 24, 5)).unwrap();
        let runner =
            ToilRunner::single_machine(4, dir.join("job-store"), Arc::new(BuiltinDispatch));
        let report = runner
            .run(
                fixtures().join("image_pipeline.cwl"),
                &as_map(vmap! {
                    "input_image" => dir.join("input.rimg").to_string_lossy().into_owned(),
                    "size" => 12i64,
                    "sepia" => false,
                    "radius" => 2i64,
                }),
                &dir,
            )
            .unwrap();
        assert_eq!(report.tasks, 3);
        assert_eq!(runner.job_store_entries(), 3);
        // Every job has a terminal status file.
        let statuses: Vec<String> = std::fs::read_dir(dir.join("job-store"))
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "status"))
            .map(|e| std::fs::read_to_string(e.path()).unwrap())
            .collect();
        assert_eq!(statuses.len(), 3);
        assert!(statuses.iter().all(|s| s.trim() == "done"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slurm_deployment_uses_cluster_width() {
        let cluster = gridsim::ClusterSpec::small(3, 4);
        let dir = workdir("slurm");
        let runner = ToilRunner::slurm(&cluster, dir.join("js"), Arc::new(BuiltinDispatch));
        assert_eq!(runner.exec.profile.slots, 12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_job_records_failed_status() {
        let dir = workdir("fail");
        let runner = ToilRunner::single_machine(2, dir.join("js"), Arc::new(BuiltinDispatch));
        let err = runner
            .run(
                fixtures().join("image_pipeline.cwl"),
                &as_map(vmap! {
                    "input_image" => "/ghost.rimg",
                    "size" => 8i64,
                    "sepia" => false,
                    "radius" => 1i64,
                }),
                &dir,
            )
            .unwrap_err();
        assert!(err.contains("resize_image"), "{err}");
        let statuses: Vec<String> = std::fs::read_dir(dir.join("js"))
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "status"))
            .map(|e| std::fs::read_to_string(e.path()).unwrap())
            .collect();
        assert!(statuses.iter().any(|s| s.trim() == "failed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
