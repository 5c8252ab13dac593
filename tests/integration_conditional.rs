//! CWL v1.2 conditional execution (`when:`) across all runners: a falsy
//! condition skips the step and nulls its outputs; a truthy one runs it.

use cwl_parsl::{CwlAppOptions, ParslWorkflowRunner};
use cwlexec::BuiltinDispatch;
use parsl::{Config, DataFlowKernel};
use runners::RefRunner;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use yamlite::{Map, Value};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cond-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn inputs(dir: &Path, radius: i64) -> Map {
    let img = dir.join("in.rimg");
    if !img.exists() {
        imaging::write_rimg(&img, &imaging::gradient(24, 24, 1)).unwrap();
    }
    let mut m = Map::new();
    m.insert(
        "input_image",
        Value::str(img.to_string_lossy().into_owned()),
    );
    m.insert("size", Value::Int(12));
    m.insert("radius", Value::Int(radius));
    m
}

#[test]
fn refrunner_when_true_runs_and_false_skips() {
    gridsim::TimeScale::set(0.0);
    let dir = scratch("ref");
    let wf = fixtures().join("conditional_blur.cwl");
    let runner = RefRunner::new(2, Arc::new(BuiltinDispatch));

    let on = runner.run(&wf, &inputs(&dir, 2), dir.join("on")).unwrap();
    assert!(on.outputs.get("blurred_output").unwrap()["path"]
        .as_str()
        .is_some());
    assert_eq!(on.tasks, 2);

    let off = runner.run(&wf, &inputs(&dir, 0), dir.join("off")).unwrap();
    assert!(off.outputs.get("blurred_output").unwrap().is_null());
    // Only the resize task ran.
    assert_eq!(off.tasks, 1);
    // The unconditional output is still produced.
    assert!(off.outputs.get("resized_output").unwrap()["path"]
        .as_str()
        .is_some());
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parsl_compiler_when_semantics_match() {
    gridsim::TimeScale::set(0.0);
    let dir = scratch("parsl");
    let wf = fixtures().join("conditional_blur.cwl");
    let dfk = DataFlowKernel::new(Config::local_threads(2));
    let runner = ParslWorkflowRunner::new(
        &dfk,
        CwlAppOptions::in_dir(dir.join("w")).with_builtin_tools(),
    );

    let on = runner.run(&wf, &inputs(&dir, 2)).unwrap();
    assert!(on.get("blurred_output").unwrap()["path"].as_str().is_some());

    let off = runner.run(&wf, &inputs(&dir, 0)).unwrap();
    assert!(off.get("blurred_output").unwrap().is_null());
    assert!(off.get("resized_output").unwrap()["path"]
        .as_str()
        .is_some());
    dfk.shutdown();
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `when` may reference *upstream outputs* — decided at runtime, after the
/// producing task completes. A tiny resize target yields a small file that
/// fails the size gate, skipping the blur.
#[test]
fn when_on_upstream_output_decides_at_runtime() {
    gridsim::TimeScale::set(0.0);
    let dir = scratch("dynamic");
    let wf_src = r#"
cwlVersion: v1.2
class: Workflow
requirements:
  - class: StepInputExpressionRequirement
inputs:
  input_image:
    type: File
  size:
    type: int
outputs:
  maybe_blurred:
    type: File?
    outputSource: blur_image/output_image
steps:
  resize_image:
    run: resize_image.cwl
    in:
      input_image: input_image
      size: size
      output_image:
        valueFrom: "resized.rimg"
    out: [output_image]
  blur_image:
    run: blur_image.cwl
    when: $(inputs.input_image.size > 2000)
    in:
      input_image: resize_image/output_image
      radius:
        default: 1
      output_image:
        valueFrom: "blurred.rimg"
    out: [output_image]
"#;
    // The fixture references resize_image.cwl/blur_image.cwl relative to
    // its own location, so write it into the fixtures directory's sibling
    // space by copying those tools next to it instead.
    std::fs::copy(
        fixtures().join("resize_image.cwl"),
        dir.join("resize_image.cwl"),
    )
    .unwrap();
    std::fs::copy(
        fixtures().join("blur_image.cwl"),
        dir.join("blur_image.cwl"),
    )
    .unwrap();
    let wf = dir.join("gated.cwl");
    std::fs::write(&wf, wf_src).unwrap();

    let dfk = DataFlowKernel::new(Config::local_threads(2));
    let runner = ParslWorkflowRunner::new(
        &dfk,
        CwlAppOptions::in_dir(dir.join("w")).with_builtin_tools(),
    );

    // Large resize target → file over the gate → blur runs.
    let big = runner.run(&wf, &inputs(&dir, 0).tap_set_size(40)).unwrap();
    assert!(big.get("maybe_blurred").unwrap()["path"].as_str().is_some());

    // Tiny resize target → small file → blur skipped at runtime.
    let small = runner.run(&wf, &inputs(&dir, 0).tap_set_size(4)).unwrap();
    assert!(small.get("maybe_blurred").unwrap().is_null());
    dfk.shutdown();
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

trait TapSize {
    fn tap_set_size(self, size: i64) -> Map;
}

impl TapSize for Map {
    fn tap_set_size(mut self, size: i64) -> Map {
        self.insert("size", Value::Int(size));
        self.remove("radius");
        self
    }
}

#[test]
fn validator_accepts_conditional_document() {
    let report = cwl::analyze_file(fixtures().join("conditional_blur.cwl"));
    assert!(report.is_clean(true), "{}", report.render_text());
}
