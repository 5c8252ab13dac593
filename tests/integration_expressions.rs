//! Integration of the expression layer across runners: JS and inline-Python
//! documents must agree semantically, the paper's `validate:` hooks must
//! behave identically everywhere, and the Fig. 2 cost asymmetry must point
//! in the documented direction.

use cwl_parsl::{CwlAppOptions, ParslWorkflowRunner};
use cwlexec::BuiltinDispatch;
use parsl::{Config, DataFlowKernel};
use runners::RefRunner;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use yamlite::{Map, Value};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("expr-int-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `gridsim::TimeScale` is process-global and the harness runs this
/// binary's tests on parallel threads, so a test that sets the scale holds
/// this guard for as long as it depends on it: one such test at a time, and
/// the previous scale restored on drop (also when the test panics).
struct ScaleGuard {
    previous: f64,
    _turn: MutexGuard<'static, ()>,
}

fn time_scale(factor: f64) -> ScaleGuard {
    static TURN: Mutex<()> = Mutex::new(());
    // A test that failed while holding the guard restored the scale in
    // `drop`, so the poison carries no broken state.
    let turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let previous = gridsim::TimeScale::get();
    gridsim::TimeScale::set(factor);
    ScaleGuard {
        previous,
        _turn: turn,
    }
}

impl Drop for ScaleGuard {
    fn drop(&mut self) {
        gridsim::TimeScale::set(self.previous);
    }
}

fn word_inputs(n: usize) -> Map {
    let words: Vec<Value> = (0..n).map(|i| Value::str(format!("item{i:03}"))).collect();
    let mut m = Map::new();
    m.insert("words", Value::Seq(words));
    m
}

#[test]
fn js_and_python_word_workflows_agree_across_runners() {
    let _scale = time_scale(0.0);
    let base = scratch("agree");

    // JS under the cwltool-like runner.
    let js_report = RefRunner::new(4, Arc::new(BuiltinDispatch))
        .run(
            fixtures().join("scatter_words_js.cwl"),
            &word_inputs(6),
            base.join("js"),
        )
        .unwrap();

    // Python under parsl-cwl.
    let dfk = DataFlowKernel::new(Config::local_threads(4));
    let py_out = ParslWorkflowRunner::new(
        &dfk,
        CwlAppOptions::in_dir(base.join("py")).with_builtin_tools(),
    )
    .run(fixtures().join("scatter_words_py.cwl"), &word_inputs(6))
    .unwrap();
    dfk.shutdown();

    let texts = |files: &Value| -> Vec<String> {
        files
            .as_seq()
            .unwrap()
            .iter()
            .map(|f| std::fs::read_to_string(f["path"].as_str().unwrap()).unwrap())
            .collect()
    };
    let js_texts = texts(js_report.outputs.get("capitalized").unwrap());
    let py_texts = texts(py_out.get("capitalized").unwrap());
    assert_eq!(js_texts, py_texts);
    assert_eq!(js_texts[0], "Item000\n");
    assert_eq!(js_texts.len(), 6);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn validate_hook_enforced_by_baseline_runner_too() {
    let _scale = time_scale(0.0);
    let base = scratch("validate");
    std::fs::write(base.join("good.csv"), "a,b\n").unwrap();
    std::fs::write(base.join("bad.json"), "{}").unwrap();
    let runner = RefRunner::new(1, Arc::new(BuiltinDispatch));

    let mut inputs = Map::new();
    inputs.insert(
        "data_file",
        Value::str(base.join("good.csv").to_string_lossy().into_owned()),
    );
    runner
        .run(
            fixtures().join("validate_csv.cwl"),
            &inputs,
            base.join("ok"),
        )
        .unwrap();

    let mut inputs = Map::new();
    inputs.insert(
        "data_file",
        Value::str(base.join("bad.json").to_string_lossy().into_owned()),
    );
    let err = runner
        .run(
            fixtures().join("validate_csv.cwl"),
            &inputs,
            base.join("bad"),
        )
        .unwrap_err();
    assert!(err.contains("Expected '.csv'"), "{err}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn fig2_cost_asymmetry_direction() {
    // With overheads at full scale, JS-under-cwltool must cost strictly
    // more than Python-under-parsl for the same word workload — the
    // asymmetry Fig. 2 plots. Small n keeps this fast.
    let _scale = time_scale(0.2);
    let base = scratch("asym");
    let n = 12;

    let t_js = {
        let report = RefRunner::new(8, Arc::new(BuiltinDispatch))
            .run(
                fixtures().join("scatter_words_js.cwl"),
                &word_inputs(n),
                base.join("js"),
            )
            .unwrap();
        report.elapsed
    };
    let t_py = {
        let dfk = DataFlowKernel::new(Config::local_threads(8));
        let start = std::time::Instant::now();
        ParslWorkflowRunner::new(
            &dfk,
            CwlAppOptions::in_dir(base.join("py")).with_builtin_tools(),
        )
        .run(fixtures().join("scatter_words_py.cwl"), &word_inputs(n))
        .unwrap();
        let t = start.elapsed();
        dfk.shutdown();
        t
    };
    assert!(
        t_js > t_py * 2,
        "expected JS ({t_js:?}) to cost well over 2x inline Python ({t_py:?})"
    );
    let _ = std::fs::remove_dir_all(&base);
}
