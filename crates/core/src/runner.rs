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
use crate::cwlapp::CwlAppOptions;
use crate::run::RunSpec;
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
    let spec = RunSpec::load(cwl_path, inputs.clone());
    // The cwl-check pre-run gate: refuse to start a run the static
    // analyzer can already prove broken (`check: {strict}` also refuses on
    // warnings). The configured executor's capacity feeds the feasibility
    // pass, so a ResourceRequirement no node can satisfy fails here, not
    // mid-run.
    let capacity = crate::lint::executor_capacity(&config.parsl);
    spec.gate(capacity, config.strict_check)
        .map_err(|report| report.refusal())?;
    spec.document()?;
    let trace = if config.parsl.monitoring.enabled {
        config.parsl.monitoring.export_path.clone()
    } else {
        None
    };

    // Bind the checkpoint journal before the kernel exists so the very
    // first completion is journaled. The run hash reads every file of the
    // set — only worth computing when a journal is in play.
    let prepared = if config.checkpoint.sync_mode().is_some() || resume.is_some() {
        checkpoint::prepare_with_pool(
            &config.checkpoint,
            &config.workdir,
            resume,
            spec.hash()?,
            &spec.label(),
            config.staging.pool,
        )?
    } else {
        None
    };
    if let Some(p) = &prepared {
        config.parsl = config.parsl.with_checkpoint(p.journal.clone());
    }

    let dfk = DataFlowKernel::try_new(config.parsl)?;
    let invalidated = prepared.as_ref().map_or(0, |p| p.seed_into(&dfk, None));
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
    spec.prestage(&stager, config.staging.pool);
    let outputs = spec.execute(&dfk, options)?;

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

    /// Each monitored run's trace counts its own tool runs: three diamond
    /// runs in one process each export four dispatches, not a running
    /// total.
    #[test]
    fn monitored_runs_in_one_process_each_count_their_own_dispatches() {
        let dir = workdir("three-traces");
        for round in 0..3 {
            let config = load_config_value(
                &yamlite::parse_str(&format!(
                    "executor:\n  kind: thread-pool\n  workers: 2\nmonitoring:\n  enabled: true\n  export: {}\nrun:\n  workdir: {}\n  builtin_tools: true\n",
                    dir.join(format!("trace-{round}.jsonl")).display(),
                    dir.join(format!("work-{round}")).display()
                ))
                .unwrap(),
            )
            .unwrap();
            let inputs = parse_overrides(&["--message=diamond".to_string()]).unwrap();
            let outcome = run_tool_cli(config, &fixtures().join("diamond.cwl"), &inputs).unwrap();
            assert_eq!(outcome.tasks, 4);
            let trace = obs::report::load_trace(&outcome.trace.unwrap()).unwrap();
            let execs = trace
                .metrics
                .iter()
                .find(|m| m.name == obs::names::DISPATCH_EXECS)
                .map(|m| m.value);
            assert_eq!(execs, Some(4), "run {round}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every YAML file the runner reads is stat'ed before it is opened: a
    /// FIFO (whose `open(2)` waits for a writer) and a file one byte over
    /// the cap (sparse, so it takes no disk) are refused at once, with the
    /// reason, by the config linter, the config loader and the inputs
    /// loader alike.
    #[test]
    fn yaml_readers_refuse_special_and_oversized_files_unopened() {
        let dir = workdir("special-yaml");
        let fifo = dir.join("pipe.yml");
        let made = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .unwrap();
        assert!(made.success());
        let big = dir.join("big.yml");
        std::fs::File::create(&big)
            .unwrap()
            .set_len(yamlite::MAX_FILE_BYTES + 1)
            .unwrap();
        type Reader = fn(&Path) -> String;
        let readers: [(&str, Reader); 3] = [
            ("lint_file", |p| {
                let linted = crate::lint::lint_file(p).unwrap();
                linted.report.diags[0].message.clone()
            }),
            ("load_config_file", |p| {
                crate::config::load_config_file(p).err().unwrap()
            }),
            ("load_inputs", |p| {
                load_inputs(Some(p), &Map::new()).unwrap_err()
            }),
        ];
        for (name, read) in readers {
            for (file, reason) in [
                (&fifo, "not a regular file".to_string()),
                (
                    &big,
                    format!("over the {}-byte limit", yamlite::MAX_FILE_BYTES),
                ),
            ] {
                let path = file.clone();
                let err = simtest::returns_within(std::time::Duration::from_secs(20), move || {
                    read(&path)
                })
                .unwrap_or_else(|| panic!("{name} blocked on {}", file.display()));
                let want = format!("cannot read {}: ", file.display());
                assert!(err.contains(&want), "{name}: {err}");
                assert!(err.contains(&reason), "{name}: {err}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
