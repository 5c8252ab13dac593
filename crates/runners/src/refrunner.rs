//! The cwltool-like reference runner.

use crate::profile::ExecProfile;
use crate::report::RunReport;
use crate::wfexec::WorkflowExecutor;
use cwl::DocSet;
use cwlexec::ToolDispatch;
use std::path::Path;
use std::sync::Arc;
use yamlite::Map;

/// A runner reproducing `cwltool`'s architecture: upfront validation, a
/// coordinator that launches ready jobs on threads (`--parallel`), a Python
/// job-runner process per step (modelled start-up + real per-job document
/// reprocessing), and a `node` process per JavaScript expression.
pub struct RefRunner {
    exec: WorkflowExecutor,
}

impl RefRunner {
    /// Runner with `slots` parallel job slots (the paper uses all cores).
    pub fn new(slots: usize, dispatch: Arc<dyn ToolDispatch>) -> Self {
        Self {
            exec: WorkflowExecutor::new(ExecProfile::cwltool_like(slots), dispatch),
        }
    }

    /// Runner with a custom profile (ablations).
    pub fn with_profile(profile: ExecProfile, dispatch: Arc<dyn ToolDispatch>) -> Self {
        Self {
            exec: WorkflowExecutor::new(profile, dispatch),
        }
    }

    /// Attach a per-run observability instance (spans and lineage records
    /// for subsequent runs land there).
    pub fn with_observability(mut self, obs: Arc<obs::Observability>) -> Self {
        self.exec = self.exec.with_observability(obs);
        self
    }

    /// Execute a tool or workflow file. Like cwltool, it checks the
    /// documents before running them: the profile's pre-run gate.
    pub fn run(
        &self,
        path: impl AsRef<Path>,
        inputs: &Map,
        workdir: impl AsRef<Path>,
    ) -> Result<RunReport, String> {
        self.exec.run_docs(&DocSet::load(path), inputs, workdir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwlexec::BuiltinDispatch;
    use yamlite::{vmap, Value};

    fn fixtures() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
    }

    fn workdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("refrunner-{tag}-{}", std::process::id()));
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
    fn runs_echo_tool() {
        let dir = workdir("echo");
        let runner = RefRunner::new(2, Arc::new(BuiltinDispatch));
        let report = runner
            .run(
                fixtures().join("echo.cwl"),
                &as_map(vmap! {"message" => "from refrunner"}),
                &dir,
            )
            .unwrap();
        assert_eq!(report.tasks, 1);
        // The tool ran in the run's private directory under `dir`.
        let out = report.outputs.get("output").unwrap()["path"]
            .as_str()
            .unwrap();
        let out = std::path::Path::new(out);
        assert_eq!(out.file_name().unwrap(), "hello.txt");
        assert_eq!(out.parent().unwrap().parent(), Some(dir.as_path()));
        assert_eq!(std::fs::read_to_string(out).unwrap(), "from refrunner\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runs_image_pipeline_workflow() {
        let dir = workdir("pipeline");
        imaging::write_rimg(dir.join("input.rimg"), &imaging::gradient(32, 32, 3)).unwrap();
        let runner = RefRunner::new(4, Arc::new(BuiltinDispatch));
        let report = runner
            .run(
                fixtures().join("image_pipeline.cwl"),
                &as_map(vmap! {
                    "input_image" => dir.join("input.rimg").to_string_lossy().into_owned(),
                    "size" => 16i64,
                    "sepia" => true,
                    "radius" => 1i64,
                }),
                &dir,
            )
            .unwrap();
        assert_eq!(report.tasks, 3);
        let final_path = report.outputs.get("final_output").unwrap()["path"]
            .as_str()
            .unwrap()
            .to_string();
        let img = imaging::read_rimg(&final_path).unwrap();
        assert_eq!((img.width(), img.height()), (16, 16));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runs_scatter_over_images() {
        let dir = workdir("scatter");
        let mut paths = Vec::new();
        for i in 0..4 {
            let p = dir.join(format!("img{i}.rimg"));
            imaging::write_rimg(&p, &imaging::gradient(24, 24, i as u64)).unwrap();
            paths.push(Value::str(p.to_string_lossy().into_owned()));
        }
        let runner = RefRunner::new(4, Arc::new(BuiltinDispatch));
        let report = runner
            .run(
                fixtures().join("scatter_images.cwl"),
                &as_map(vmap! {
                    "input_images" => Value::Seq(paths),
                    "size" => 12i64,
                    "sepia" => true,
                    "radius" => 1i64,
                }),
                &dir,
            )
            .unwrap();
        // 4 images × 3 stages.
        assert_eq!(report.tasks, 12);
        let outs = report
            .outputs
            .get("final_outputs")
            .unwrap()
            .as_seq()
            .unwrap();
        assert_eq!(outs.len(), 4);
        for out in outs {
            let img = imaging::read_rimg(out["path"].as_str().unwrap()).unwrap();
            assert_eq!((img.width(), img.height()), (12, 12));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validation_failure_blocks_run() {
        let dir = workdir("badval");
        let bad = dir.join("bad.cwl");
        std::fs::write(
            &bad,
            "cwlVersion: v1.2\nclass: CommandLineTool\ninputs: {}\noutputs: {}\n",
        )
        .unwrap();
        let runner = RefRunner::new(2, Arc::new(BuiltinDispatch));
        let err = runner.run(&bad, &Map::new(), &dir).unwrap_err();
        assert!(err.contains("E004"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_reports_diagnostics() {
        let report = cwl::analyze_file(fixtures().join("image_pipeline.cwl"));
        assert!(report.is_clean(true), "{}", report.render_text());
    }

    #[test]
    fn failing_step_reports_step_id() {
        let dir = workdir("fail");
        // Missing input image file → resize step fails.
        let runner = RefRunner::new(2, Arc::new(BuiltinDispatch));
        let err = runner
            .run(
                fixtures().join("image_pipeline.cwl"),
                &as_map(vmap! {
                    "input_image" => "/ghost/missing.rimg",
                    "size" => 16i64,
                    "sepia" => false,
                    "radius" => 1i64,
                }),
                &dir,
            )
            .unwrap_err();
        assert!(err.contains("resize_image"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
