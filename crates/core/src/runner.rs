//! The `parsl-cwl` runner library (§III-B): execute a CWL file on Parsl
//! given a YAML configuration and inputs from a file and/or command-line
//! flags.
//!
//! ```text
//! $ parsl-cwl config.yml echo.cwl inputs.yml
//! $ parsl-cwl config.yml echo.cwl --message='Hello'
//! ```

use crate::checkpoint;
use crate::config::RunnerConfig;
use crate::cwlapp::{CwlApp, CwlAppOptions};
use crate::wfrunner::ParslWorkflowRunner;
use cwl::loader::{load_file, CwlDocument};
use parsl::DataFlowKernel;
use std::path::Path;
use yamlite::{Map, Value};

/// The outcome of a CLI run.
pub struct CliOutcome {
    /// The collected output object.
    pub outputs: Map,
    /// Where working files were written.
    pub workdir: std::path::PathBuf,
    /// Number of Parsl tasks executed.
    pub tasks: usize,
    /// Where the trace was exported, when monitoring was configured with
    /// an export path.
    pub trace: Option<std::path::PathBuf>,
    /// Checkpoint activity, when a journal was configured.
    pub ckpt: Option<CkptReport>,
}

/// End-of-run checkpoint accounting for the CLI and tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptReport {
    /// The journal file in use.
    pub journal: std::path::PathBuf,
    /// Tasks satisfied from the journal without re-executing.
    pub replayed: usize,
    /// Completions appended this run.
    pub appended: usize,
    /// Journal records rejected on resume (stale hash, missing outputs,
    /// unparseable results).
    pub invalidated: usize,
    /// A torn tail was detected and truncated on resume.
    pub torn: bool,
    /// The whole journal was set aside as stale (workflow/inputs changed).
    pub stale: bool,
}

/// Parse `--key=value` command-line input overrides. Values go through YAML
/// scalar resolution so `--size=1024` is an int and `--sepia=true` a bool;
/// `--files=[a, b]` style flow values also work.
pub fn parse_overrides(args: &[String]) -> Result<Map, String> {
    let mut m = Map::new();
    for arg in args {
        let stripped = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --key=value, got {arg:?}"))?;
        let (key, value) = stripped
            .split_once('=')
            .ok_or_else(|| format!("expected --key=value, got {arg:?}"))?;
        let parsed = yamlite::parse_str(value).map_err(|e| format!("value of {key:?}: {e}"))?;
        m.insert(key.to_string(), parsed);
    }
    Ok(m)
}

/// Load inputs from an optional YAML file plus `--key=value` overrides
/// (overrides win).
pub fn load_inputs(inputs_file: Option<&Path>, overrides: &Map) -> Result<Map, String> {
    let mut inputs = match inputs_file {
        None => Map::new(),
        Some(path) => match yamlite::parse_file(path).map_err(|e| e.to_string())? {
            Value::Map(m) => m,
            Value::Null => Map::new(),
            other => {
                return Err(format!(
                    "inputs file must be a mapping, got {}",
                    other.kind()
                ))
            }
        },
    };
    for (k, v) in overrides.iter() {
        inputs.insert(k.to_string(), v.clone());
    }
    Ok(inputs)
}

/// Execute a CWL file (CommandLineTool or, as an extension, a Workflow) on
/// Parsl with the given configuration and inputs.
pub fn run_tool_cli(
    config: RunnerConfig,
    cwl_path: &Path,
    inputs: &Map,
) -> Result<CliOutcome, String> {
    run_tool_cli_resumable(config, cwl_path, inputs, None)
}

/// [`run_tool_cli`], optionally resuming a crashed run's checkpoint
/// journal (`--resume <run-dir>`). The resumed run must use the same
/// config (workdir in particular): journaled results reference files
/// staged under the crashed run's directories.
pub fn run_tool_cli_resumable(
    mut config: RunnerConfig,
    cwl_path: &Path,
    inputs: &Map,
    resume: Option<&Path>,
) -> Result<CliOutcome, String> {
    // The cwl-check pre-run gate: refuse to start a run the static
    // analyzer can already prove broken (configurable via `check:`).
    // The configured executor's capacity feeds the feasibility pass, so a
    // ResourceRequirement no node can satisfy fails here, not mid-run.
    if config.pre_run_check {
        let opts = cwl::analyze::AnalyzeOptions {
            capacity: Some(crate::lint::executor_capacity(&config.parsl)),
        };
        let report = cwl::analyze::analyze_file_opts(cwl_path, &opts);
        if !report.is_clean(config.strict_check) {
            return Err(format!(
                "static analysis found {} error(s), {} warning(s):\n{}",
                report.error_count(),
                report.warning_count(),
                report.render_text().trim_end()
            ));
        }
    }

    let doc = load_file(cwl_path)?;
    let trace = if config.parsl.monitoring.enabled {
        config.parsl.monitoring.export_path.clone()
    } else {
        None
    };

    // Bind the checkpoint journal before the kernel exists so the very
    // first completion is journaled. The run hash walks every referenced
    // CWL file — only worth computing when a journal is in play.
    let prepared = if config.checkpoint.sync_mode().is_some() || resume.is_some() {
        let hash = checkpoint::run_hash(cwl_path, inputs)?;
        let label = cwl_path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        checkpoint::prepare_with_pool(
            &config.checkpoint,
            &config.workdir,
            resume,
            hash,
            &label,
            config.staging.pool,
        )?
    } else {
        None
    };
    if let Some(p) = &prepared {
        config.parsl = config.parsl.with_checkpoint(p.journal.clone());
    }

    let dfk = DataFlowKernel::try_new(config.parsl)?;
    let mut invalidated = 0usize;
    if let Some(p) = &prepared {
        let (_seeded, unparseable) = dfk.seed_checkpoint(&p.seed);
        invalidated = p.invalidated + unparseable;
        if invalidated > 0 {
            dfk.observability()
                .counter(obs::names::CKPT_INVALIDATED)
                .add(invalidated as u64);
        }
    }
    let mut options = CwlAppOptions::in_dir(&config.workdir);
    if config.builtin_tools {
        options = options.with_builtin_tools();
    }
    // One data plane for the whole run: every task stages through the
    // same content store, and the run publishes one set of counters.
    let stager = config.staging.build(&config.workdir)?;
    options = options
        .with_staging(config.staging.clone())
        .with_stager(stager.clone());
    prestage_inputs(&stager, inputs, config.staging.pool);

    let outputs = match doc {
        CwlDocument::Tool(tool) => {
            let app = CwlApp::from_tool(
                &dfk,
                tool,
                cwl_path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned()),
                options,
            )?;
            let mut invocation = app.call();
            for (k, v) in inputs.iter() {
                invocation = invocation.arg(k.to_string(), v.clone());
            }
            let run = invocation.submit()?;
            match run.future.result() {
                Ok(Value::Map(m)) => m,
                Ok(other) => return Err(format!("unexpected tool result {other:?}")),
                Err(e) => return Err(e.to_string()),
            }
        }
        CwlDocument::Workflow(_) => {
            // Paper future work, implemented here: run full workflows.
            let runner = ParslWorkflowRunner::new(&dfk, options);
            runner.run(cwl_path, inputs)?
        }
    };

    let tasks = dfk.monitoring().summary().completed;
    // Before shutdown: export (inside shutdown) folds metrics into the
    // trace, so the stage counters must land first.
    cwlexec::publish_stage_stats(dfk.observability(), stager.stats());
    dfk.shutdown();
    let ckpt = prepared.map(|p| {
        let stats = dfk.checkpoint_stats().unwrap_or_default();
        CkptReport {
            journal: p.journal.path().to_path_buf(),
            replayed: stats.replayed,
            appended: stats.appended,
            invalidated,
            torn: p.torn,
            stale: p.stale,
        }
    });
    Ok(CliOutcome {
        outputs,
        workdir: config.workdir,
        tasks,
        trace,
        ckpt,
    })
}

/// Hash the run's root `class:File` inputs into the content store up
/// front, in parallel — tasks consuming them then stage by index hit.
/// Best-effort: unreadable paths surface later as per-task errors.
fn prestage_inputs(stager: &datastore::Stager, inputs: &Map, pool: usize) {
    let mut paths = Vec::new();
    for (_, v) in inputs.iter() {
        collect_file_paths(v, &mut paths);
    }
    paths.sort();
    paths.dedup();
    if paths.is_empty() {
        return;
    }
    let _ = stager.store().ingest_parallel(&paths, pool.max(1));
}

/// Collect `class: File` paths from an input value, recursively.
fn collect_file_paths(value: &Value, out: &mut Vec<std::path::PathBuf>) {
    match value {
        Value::Map(m) => {
            if m.get("class").and_then(|c| c.as_str()) == Some("File") {
                if let Some(p) = m.get("path").or_else(|| m.get("location")) {
                    if let Some(p) = p.as_str() {
                        out.push(std::path::PathBuf::from(p));
                    }
                }
            }
            for (_, v) in m.iter() {
                collect_file_paths(v, out);
            }
        }
        Value::Seq(s) => {
            for v in s {
                collect_file_paths(v, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::load_config_value;

    fn fixtures() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
    }

    fn workdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("parsl-cwl-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn override_parsing_resolves_scalars() {
        let m = parse_overrides(&[
            "--message=Hello".to_string(),
            "--size=1024".to_string(),
            "--sepia=true".to_string(),
            "--xs=[1, 2]".to_string(),
        ])
        .unwrap();
        assert_eq!(m.get("message").unwrap(), &Value::str("Hello"));
        assert_eq!(m.get("size").unwrap(), &Value::Int(1024));
        assert_eq!(m.get("sepia").unwrap(), &Value::Bool(true));
        assert_eq!(m.get("xs").unwrap(), &yamlite::vseq![1i64, 2i64]);
        assert!(parse_overrides(&["message=Hello".to_string()]).is_err());
        assert!(parse_overrides(&["--noequals".to_string()]).is_err());
    }

    #[test]
    fn inputs_file_plus_overrides() {
        let dir = workdir("inputs");
        let f = dir.join("inputs.yml");
        std::fs::write(&f, "message: from-file\nsize: 7\n").unwrap();
        let overrides = parse_overrides(&["--size=9".to_string()]).unwrap();
        let inputs = load_inputs(Some(&f), &overrides).unwrap();
        assert_eq!(inputs.get("message").unwrap(), &Value::str("from-file"));
        assert_eq!(inputs.get("size").unwrap(), &Value::Int(9));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The §III-B invocation: parsl-cwl config.yml echo.cwl --message=…
    #[test]
    fn cli_runs_echo_tool() {
        let dir = workdir("echo");
        let config = load_config_value(
            &yamlite::parse_str(&format!(
                "executor:\n  kind: thread-pool\n  workers: 2\nrun:\n  workdir: {}\n  builtin_tools: true\n",
                dir.display()
            ))
            .unwrap(),
        )
        .unwrap();
        let inputs = parse_overrides(&["--message=Hello".to_string()]).unwrap();
        let outcome = run_tool_cli(config, &fixtures().join("echo.cwl"), &inputs).unwrap();
        assert_eq!(outcome.tasks, 1);
        let out = outcome.outputs.get("output").unwrap();
        assert_eq!(out["basename"].as_str(), Some("hello.txt"));
        assert_eq!(
            std::fs::read_to_string(out["path"].as_str().unwrap()).unwrap(),
            "Hello\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Extension: the CLI also accepts full workflows.
    #[test]
    fn cli_runs_workflow() {
        let dir = workdir("wf");
        imaging::write_rimg(dir.join("in.rimg"), &imaging::gradient(24, 24, 2)).unwrap();
        let config = load_config_value(
            &yamlite::parse_str(&format!(
                "executor:\n  kind: thread-pool\n  workers: 4\nrun:\n  workdir: {}\n  builtin_tools: true\n",
                dir.display()
            ))
            .unwrap(),
        )
        .unwrap();
        let inputs = parse_overrides(&[
            format!("--input_image={}", dir.join("in.rimg").display()),
            "--size=12".to_string(),
            "--sepia=true".to_string(),
            "--radius=1".to_string(),
        ])
        .unwrap();
        let outcome =
            run_tool_cli(config, &fixtures().join("image_pipeline.cwl"), &inputs).unwrap();
        assert_eq!(outcome.tasks, 3);
        let final_out = outcome.outputs.get("final_output").unwrap();
        let img = imaging::read_rimg(final_out["path"].as_str().unwrap()).unwrap();
        assert_eq!((img.width(), img.height()), (12, 12));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
