//! Failure injection across the stack: injected tool failures must trigger
//! Parsl retries (and succeed once the fault clears), exhaust retries into
//! clean task failures, and propagate through baseline runners without
//! corrupting state.

use cwl_parsl::{CwlApp, CwlAppOptions, ParslWorkflowRunner};
use cwlexec::{BuiltinDispatch, FlakyDispatch};
use parsl::{Config, DataFlowKernel, TaskError};
use runners::{ExecProfile, RefRunner, ToilRunner};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use yamlite::{Map, Value};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("failinj-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn parsl_retries_recover_from_transient_tool_failures() {
    gridsim::TimeScale::set(0.0);
    let dir = scratch("retry");
    let flaky = Arc::new(FlakyDispatch::new(BuiltinDispatch, 2));
    let dfk = DataFlowKernel::new(Config::local_threads(1).with_retries(3));
    let echo = CwlApp::load(
        &dfk,
        fixtures().join("echo.cwl"),
        CwlAppOptions::in_dir(&dir).with_dispatch(flaky.clone()),
    )
    .unwrap();
    let run = echo.call().arg("message", "eventually").submit().unwrap();
    run.future.result().unwrap();
    assert_eq!(flaky.invocations(), 3, "two failures + one success");
    assert_eq!(dfk.monitoring().summary().retried, 2);
    assert_eq!(
        std::fs::read_to_string(run.output().result().unwrap().path()).unwrap(),
        "eventually\n"
    );
    dfk.shutdown();
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parsl_retries_exhaust_into_task_failure() {
    gridsim::TimeScale::set(0.0);
    let dir = scratch("exhaust");
    let flaky = Arc::new(FlakyDispatch::new(BuiltinDispatch, 100));
    let dfk = DataFlowKernel::new(Config::local_threads(1).with_retries(2));
    let echo = CwlApp::load(
        &dfk,
        fixtures().join("echo.cwl"),
        CwlAppOptions::in_dir(&dir).with_dispatch(flaky.clone()),
    )
    .unwrap();
    let run = echo.call().arg("message", "never").submit().unwrap();
    match run.future.result() {
        Err(TaskError::Failed(m)) => assert!(m.contains("injected"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(flaky.invocations(), 3, "initial + 2 retries");
    dfk.shutdown();
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workflow_on_parsl_fails_downstream_cleanly() {
    gridsim::TimeScale::set(0.0);
    let dir = scratch("wf");
    imaging::write_rimg(dir.join("in.rimg"), &imaging::gradient(16, 16, 1)).unwrap();
    // Every dispatch fails: the first stage fails, later stages must report
    // dependency failures, not run.
    let flaky = Arc::new(FlakyDispatch::new(BuiltinDispatch, usize::MAX / 2));
    let dfk = DataFlowKernel::new(Config::local_threads(2));
    let runner = ParslWorkflowRunner::new(
        &dfk,
        CwlAppOptions::in_dir(&dir).with_dispatch(flaky.clone()),
    );
    let mut inputs = Map::new();
    inputs.insert(
        "input_image",
        Value::str(dir.join("in.rimg").to_string_lossy().into_owned()),
    );
    inputs.insert("size", Value::Int(8));
    inputs.insert("sepia", Value::Bool(false));
    inputs.insert("radius", Value::Int(1));
    let err = runner
        .run(fixtures().join("image_pipeline.cwl"), &inputs)
        .unwrap_err();
    assert!(
        err.contains("injected") || err.contains("dependency"),
        "{err}"
    );
    // Only the first stage's dispatch ran; the rest were short-circuited.
    assert_eq!(flaky.invocations(), 1);
    let summary = dfk.monitoring().summary();
    assert_eq!(summary.failed, 3);
    assert_eq!(summary.completed, 0);
    dfk.shutdown();
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn baseline_runners_surface_injected_failures() {
    gridsim::TimeScale::set(0.0);
    let dir = scratch("baseline");
    let mut inputs = Map::new();
    inputs.insert("message", Value::str("x"));

    let profile = ExecProfile::bare(2);
    let runner = RefRunner::with_profile(
        profile,
        Arc::new(FlakyDispatch::new(BuiltinDispatch, usize::MAX / 2)),
    );
    let err = runner
        .run(fixtures().join("echo.cwl"), &inputs, dir.join("ref"))
        .unwrap_err();
    assert!(err.contains("injected"), "{err}");

    let toil = ToilRunner::single_machine(
        2,
        dir.join("js"),
        Arc::new(FlakyDispatch::new(BuiltinDispatch, usize::MAX / 2)),
    );
    let err = toil
        .run(fixtures().join("echo.cwl"), &inputs, dir.join("toil"))
        .unwrap_err();
    assert!(err.contains("injected"), "{err}");
    // The job store still recorded the failed job.
    let statuses: Vec<String> = std::fs::read_dir(dir.join("js"))
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "status"))
        .map(|e| std::fs::read_to_string(e.path()).unwrap())
        .collect();
    assert!(statuses.iter().any(|s| s.trim() == "failed"));
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Six broken documents whose rules the executor also meets, each with the
/// analyzer code that refuses it and an input object it could otherwise
/// run with.
const GATED: [(&str, &str, &str); 6] = [
    ("unknown_source", "E010", "{}"),
    ("cycle", "E017", "{}"),
    ("linkmerge_bad", "E015", "{a: x, b: y}"),
    ("scatter_missing_req", "E014", "{words: [x, y]}"),
    ("valuefrom_missing_req", "E024", "{x: hi}"),
    ("scatter_not_input", "E012", "{words: [x, y]}"),
];

/// Every run is gated: the CLI entry and the `ParslWorkflowRunner::run`
/// library entry each refuse a broken document with its analyzer code.
#[test]
fn broken_documents_are_refused_with_their_analyzer_code() {
    let dir = scratch("gated");
    for (name, code, inputs) in GATED {
        let doc = fixtures().join("broken").join(format!("{name}.cwl"));
        let Value::Map(inputs) = yamlite::parse_str(inputs).unwrap() else {
            unreachable!()
        };
        let config = cwl_parsl::load_config_value(
            &yamlite::parse_str(&format!(
                "executor: {{kind: thread-pool, workers: 2}}\n\
                 run: {{workdir: {}, builtin_tools: true}}\n",
                dir.join(name).display()
            ))
            .unwrap(),
        )
        .unwrap();
        let refused = cwl_parsl::run_tool_cli(config, &doc, &inputs)
            .map(|o| o.outputs)
            .unwrap_err();
        assert!(
            refused.contains(&format!("error[{code}]")),
            "{name}: {refused}"
        );
        let dfk = DataFlowKernel::new(Config::local_threads(2));
        let runner = ParslWorkflowRunner::new(
            &dfk,
            CwlAppOptions::in_dir(dir.join(format!("{name}-lib"))).with_builtin_tools(),
        );
        let refused = runner.run(&doc, &inputs).unwrap_err();
        dfk.shutdown();
        assert!(
            refused.contains(&format!("error[{code}]")),
            "{name}: {refused}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
