//! Cross-system integration: all three runners (cwltool-like, Toil-like,
//! parsl-cwl) must produce **identical content** for the same CWL workflow
//! and inputs — the correctness property underneath the paper's performance
//! comparison — and must refuse the same documents for the same reason.
//! [`CASES`] is the table: every fixture workflow and one inline document
//! per workflow construct, each run on all three (parsl-cwl on both its
//! thread pool and HTEX).

use cwl_parsl::{CwlAppOptions, ParslWorkflowRunner};
use cwlexec::BuiltinDispatch;
use gridsim::LatencyModel;
use parsl::{Config, DataFlowKernel, HtexConfig, LocalProvider};
use runners::{RefRunner, ToilRunner};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use yamlite::{Map, Value};

/// `gridsim::TimeScale` is process-global: the tests here take turns, so
/// none restores modelled latency under another.
static SERIAL: Mutex<()> = Mutex::new(());

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xsys-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Fingerprints of the final images from a list of File values.
fn fingerprints(files: &Value) -> Vec<u64> {
    files
        .as_seq()
        .expect("array of Files")
        .iter()
        .map(|f| {
            imaging::read_rimg(f["path"].as_str().expect("path"))
                .expect("readable output")
                .fingerprint()
        })
        .collect()
}

#[test]
fn all_three_systems_agree_on_scattered_pipeline() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    gridsim::TimeScale::set(0.0); // correctness test: no modelled latency
    let base = scratch("agree");
    let wf = fixtures().join("scatter_images.cwl");

    // Shared inputs.
    let mut images = Vec::new();
    for i in 0..5u64 {
        let p = base.join(format!("in{i}.rimg"));
        imaging::write_rimg(&p, &imaging::noise(40, 40, i)).unwrap();
        images.push(Value::str(p.to_string_lossy().into_owned()));
    }
    let mut inputs = Map::new();
    inputs.insert("input_images", Value::Seq(images));
    inputs.insert("size", Value::Int(20));
    inputs.insert("sepia", Value::Bool(true));
    inputs.insert("radius", Value::Int(2));

    // cwltool-like.
    let ref_dir = base.join("refrunner");
    let ref_report = RefRunner::new(4, Arc::new(BuiltinDispatch))
        .run(&wf, &inputs, &ref_dir)
        .unwrap();
    let ref_prints = fingerprints(ref_report.outputs.get("final_outputs").unwrap());

    // Toil-like.
    let toil_dir = base.join("toil");
    let toil_report = ToilRunner::single_machine(4, toil_dir.join("js"), Arc::new(BuiltinDispatch))
        .run(&wf, &inputs, &toil_dir)
        .unwrap();
    let toil_prints = fingerprints(toil_report.outputs.get("final_outputs").unwrap());

    // parsl-cwl.
    let parsl_dir = base.join("parsl");
    let dfk = DataFlowKernel::new(Config::local_threads(4));
    let parsl_out =
        ParslWorkflowRunner::new(&dfk, CwlAppOptions::in_dir(&parsl_dir).with_builtin_tools())
            .run(&wf, &inputs)
            .unwrap();
    dfk.shutdown();
    let parsl_prints = fingerprints(parsl_out.get("final_outputs").unwrap());

    assert_eq!(ref_prints, toil_prints, "cwltool vs toil outputs differ");
    assert_eq!(ref_prints, parsl_prints, "cwltool vs parsl outputs differ");
    assert_eq!(ref_prints.len(), 5);
    // Distinct inputs must give distinct outputs (no accidental sharing).
    let unique: std::collections::HashSet<_> = ref_prints.iter().collect();
    assert_eq!(unique.len(), 5);

    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn manual_parsl_chain_matches_workflow_runner() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Listing 4 (hand-chained CwlApps) and the workflow compiler must give
    // byte-identical results for the same single image.
    gridsim::TimeScale::set(0.0);
    let base = scratch("manual");
    let input = base.join("in.rimg");
    imaging::write_rimg(&input, &imaging::gradient(36, 36, 11)).unwrap();

    // Hand-chained.
    let dfk = DataFlowKernel::new(Config::local_threads(3));
    let opts = || CwlAppOptions::in_dir(base.join("hand")).with_builtin_tools();
    let resize =
        cwl_parsl::CwlApp::load(&dfk, fixtures().join("resize_image.cwl"), opts()).unwrap();
    let filter =
        cwl_parsl::CwlApp::load(&dfk, fixtures().join("filter_image.cwl"), opts()).unwrap();
    let blur = cwl_parsl::CwlApp::load(&dfk, fixtures().join("blur_image.cwl"), opts()).unwrap();
    let r = resize
        .call()
        .arg("input_image", input.to_string_lossy().into_owned())
        .arg("size", 18i64)
        .arg("output_image", "resized.rimg")
        .submit()
        .unwrap();
    let f = filter
        .call()
        .arg_data("input_image", r.output())
        .arg("sepia", true)
        .arg("output_image", "filtered.rimg")
        .submit()
        .unwrap();
    let b = blur
        .call()
        .arg_data("input_image", f.output())
        .arg("radius", 1i64)
        .arg("output_image", "blurred.rimg")
        .submit()
        .unwrap();
    let hand_img = imaging::read_rimg(b.output().result().unwrap().path()).unwrap();

    // Workflow-compiled.
    let mut inputs = Map::new();
    inputs.insert(
        "input_image",
        Value::str(input.to_string_lossy().into_owned()),
    );
    inputs.insert("size", Value::Int(18));
    inputs.insert("sepia", Value::Bool(true));
    inputs.insert("radius", Value::Int(1));
    let wf_out = ParslWorkflowRunner::new(
        &dfk,
        CwlAppOptions::in_dir(base.join("compiled")).with_builtin_tools(),
    )
    .run(fixtures().join("image_pipeline.cwl"), &inputs)
    .unwrap();
    let wf_img = imaging::read_rimg(
        wf_out.get("final_output").unwrap()["path"]
            .as_str()
            .unwrap(),
    )
    .unwrap();
    dfk.shutdown();

    assert_eq!(hand_img.fingerprint(), wf_img.fingerprint());
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&base);
}

/// What a case must come to on every runner.
enum Want {
    /// The output object, written as YAML with every File replaced by its
    /// content, after this many tool executions on the baselines (the
    /// Parsl compiler makes a skipped instance a task too).
    Outputs(&'static str, usize),
    /// The same output object from all three, whatever it is.
    Agreement,
    /// A refusal whose message contains this.
    Rejected(&'static str),
}

struct Case {
    name: &'static str,
    /// The workflow: a file under `fixtures/`, or the text of a document
    /// written next to copies of them (so `run: echo.cwl` resolves).
    workflow: &'static str,
    /// Extra documents an inline workflow refers to.
    files: &'static [(&'static str, &'static str)],
    /// The input object as YAML; `IMAGE` stands for a generated image file.
    inputs: &'static str,
    want: Want,
}

const NUM_TOOL: &str = "cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  n: {type: int, inputBinding: {position: 1}}
outputs:
  out: {type: stdout}
stdout: n.txt
";

const PAIR_TOOL: &str = "cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  a: {type: string, inputBinding: {position: 1}}
  b: {type: string, inputBinding: {position: 2}}
outputs:
  out: {type: stdout}
stdout: pair.txt
";

/// A nested workflow: echo its one input, and hand it back as it came.
const INNER_WORKFLOW: &str = "cwlVersion: v1.2
class: Workflow
inputs:
  message: string
outputs:
  out: {type: File, outputSource: say/output}
  original: {type: string, outputSource: message}
steps:
  say:
    run: echo.cwl
    in: {message: message}
    out: [output]
";

const DOT_PRODUCT: &str = "cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
inputs:
  xs: string[]
  ys: string[]
outputs:
  pairs: {type: 'File[]', outputSource: s/out}
steps:
  s:
    run: pair.cwl
    scatter: [a, b]
    in: {a: xs, b: ys}
    out: [out]
";

const CASES: &[Case] = &[
    Case {
        name: "fixture: three-step pipeline with constant valueFrom",
        workflow: "image_pipeline.cwl",
        files: &[],
        inputs: "{input_image: IMAGE, size: 16, sepia: true, radius: 1}",
        want: Want::Agreement,
    },
    Case {
        name: "fixture: scattered nested workflow",
        workflow: "scatter_images.cwl",
        files: &[],
        inputs: "{input_images: [IMAGE, IMAGE], size: 12, sepia: false, radius: 1}",
        want: Want::Agreement,
    },
    Case {
        name: "fixture: JavaScript expression scatter",
        workflow: "scatter_words_js.cwl",
        files: &[],
        inputs: "{words: [alpha, beta]}",
        want: Want::Outputs("{capitalized: [\"Alpha\\n\", \"Beta\\n\"]}", 2),
    },
    Case {
        name: "fixture: inline-Python expression scatter",
        workflow: "scatter_words_py.cwl",
        files: &[],
        inputs: "{words: [alpha, beta]}",
        want: Want::Outputs("{capitalized: [\"Alpha\\n\", \"Beta\\n\"]}", 2),
    },
    Case {
        name: "fixture: `when` true on a tool step",
        workflow: "conditional_blur.cwl",
        files: &[],
        inputs: "{input_image: IMAGE, size: 12, radius: 2}",
        want: Want::Agreement,
    },
    Case {
        name: "fixture: `when` false on a tool step",
        workflow: "conditional_blur.cwl",
        files: &[],
        inputs: "{input_image: IMAGE, size: 12, radius: 0}",
        want: Want::Agreement,
    },
    Case {
        name: "fixture: diamond",
        workflow: "diamond.cwl",
        files: &[],
        inputs: "{message: x}",
        want: Want::Outputs("{joined: \"x\\nx\\n\"}", 4),
    },
    Case {
        name: "fixture: linkMerge merge_flattened over two upstream outputs",
        workflow: "diamond_merge.cwl",
        files: &[],
        inputs: "{message: x}",
        want: Want::Outputs("{joined: \"x\\nx\\n\"}", 4),
    },
    Case {
        name: "fixture: a producer that ran feeds {source, default}",
        workflow: "conditional_default.cwl",
        files: &[],
        inputs: "{message: produced}",
        want: Want::Outputs("{report: \"produced hello.txt\\n\"}", 2),
    },
    Case {
        name: "fixture: a skipped producer's null falls back to the step default",
        workflow: "conditional_default.cwl",
        files: &[],
        inputs: "{message: ''}",
        want: Want::Outputs("{report: \"nothing was produced\\n\"}", 1),
    },
    Case {
        name: "linkMerge merge_nested (the default) over two upstream outputs",
        workflow: "cwlVersion: v1.2
class: Workflow
requirements:
  - class: MultipleInputFeatureRequirement
inputs:
  message: string
outputs:
  joined: {type: File, outputSource: join/output}
steps:
  left:
    run: echo.cwl
    in: {message: message}
    out: [output]
  right:
    run: echo.cwl
    in: {message: message}
    out: [output]
  join:
    run: cat_files.cwl
    in:
      files:
        source: [left/output, right/output]
    out: [output]
",
        files: &[],
        inputs: "{message: n}",
        want: Want::Outputs("{joined: \"n\\nn\\n\"}", 3),
    },
    Case {
        name: "linkMerge merge_flattened splices a scattered step's array",
        workflow: "cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
  - class: MultipleInputFeatureRequirement
inputs:
  words: string[]
  last: string
outputs:
  joined: {type: File, outputSource: join/output}
steps:
  each:
    run: echo.cwl
    scatter: message
    in: {message: words}
    out: [output]
  one:
    run: echo.cwl
    in: {message: last}
    out: [output]
  join:
    run: cat_files.cwl
    in:
      files:
        source: [each/output, one/output]
        linkMerge: merge_flattened
    out: [output]
",
        files: &[],
        inputs: "{words: [a, b], last: c}",
        want: Want::Outputs("{joined: \"a\\nb\\nc\\n\"}", 4),
    },
    Case {
        name: "dot-product scatter over two arrays",
        workflow: DOT_PRODUCT,
        files: &[("pair.cwl", PAIR_TOOL)],
        inputs: "{xs: ['1', '2'], ys: [x, y]}",
        want: Want::Outputs("{pairs: [\"1 x\\n\", \"2 y\\n\"]}", 2),
    },
    Case {
        name: "scatter over an empty array",
        workflow: "scatter_words_js.cwl",
        files: &[],
        inputs: "{words: []}",
        want: Want::Outputs("{capitalized: []}", 0),
    },
    Case {
        name: "dot-product scatter over arrays of different lengths",
        workflow: DOT_PRODUCT,
        files: &[("pair.cwl", PAIR_TOOL)],
        inputs: "{xs: ['1', '2'], ys: [only]}",
        want: Want::Rejected("different lengths"),
    },
    Case {
        name: "scatter over a value that turns out not to be an array",
        workflow: "cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
inputs:
  one: Any
outputs: {}
steps:
  s:
    run: echo.cwl
    scatter: message
    in: {message: one}
    out: [output]
",
        files: &[],
        inputs: "{one: not-an-array}",
        want: Want::Rejected("is not an array"),
    },
    Case {
        name: "nested workflow without SubworkflowFeatureRequirement",
        workflow: "cwlVersion: v1.2
class: Workflow
inputs:
  message: string
outputs: {}
steps:
  nested:
    run: inner.cwl
    in: {message: message}
    out: [out]
",
        files: &[("inner.cwl", INNER_WORKFLOW)],
        inputs: "{message: hi}",
        want: Want::Rejected("SubworkflowFeatureRequirement"),
    },
    Case {
        name: "`when` skips scatter instances one by one",
        workflow: "cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
inputs:
  ns: int[]
outputs:
  outs: {type: 'File[]', outputSource: s/out}
steps:
  s:
    run: num.cwl
    scatter: n
    when: $(inputs.n % 2 == 0)
    in: {n: ns}
    out: [out]
",
        files: &[("num.cwl", NUM_TOOL)],
        inputs: "{ns: [1, 2, 3, 4]}",
        want: Want::Outputs("{outs: [null, \"2\\n\", null, \"4\\n\"]}", 2),
    },
    Case {
        name: "a workflow output forwards a workflow input",
        workflow: "cwlVersion: v1.2
class: Workflow
inputs:
  message: string
outputs:
  echoed: {type: File, outputSource: e/output}
  original: {type: string, outputSource: message}
steps:
  e:
    run: echo.cwl
    in: {message: message}
    out: [output]
",
        files: &[],
        inputs: "{message: roundtrip}",
        want: Want::Outputs("{echoed: \"roundtrip\\n\", original: roundtrip}", 1),
    },
    Case {
        name: "`when` true on a nested workflow with literal inputs",
        workflow: GATED_NESTED,
        files: &[("inner.cwl", INNER_WORKFLOW)],
        inputs: "{message: go}",
        want: Want::Outputs("{out: \"go\\n\"}", 1),
    },
    Case {
        name: "`when` false on a nested workflow with literal inputs",
        workflow: GATED_NESTED,
        files: &[("inner.cwl", INNER_WORKFLOW)],
        inputs: "{message: skip}",
        want: Want::Outputs("{out: null}", 0),
    },
    Case {
        name: "scattered nested workflow with a valueFrom",
        workflow: "cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
  - class: SubworkflowFeatureRequirement
  - class: StepInputExpressionRequirement
  - class: InlineJavascriptRequirement
inputs:
  messages: string[]
outputs:
  outs: {type: 'File[]', outputSource: nested/out}
steps:
  nested:
    run: inner.cwl
    scatter: message
    in:
      message:
        source: messages
        valueFrom: $(self + '!')
    out: [out]
",
        files: &[("inner.cwl", INNER_WORKFLOW)],
        inputs: "{messages: [a, b]}",
        want: Want::Outputs("{outs: [\"a!\\n\", \"b!\\n\"]}", 2),
    },
    Case {
        name: "scatter over the array a scattered nested workflow forwards",
        workflow: "cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
  - class: SubworkflowFeatureRequirement
inputs:
  messages: string[]
outputs:
  again: {type: 'File[]', outputSource: again/output}
steps:
  nested:
    run: inner.cwl
    scatter: message
    in: {message: messages}
    out: [out, original]
  again:
    run: echo.cwl
    scatter: message
    in: {message: nested/original}
    out: [output]
",
        files: &[("inner.cwl", INNER_WORKFLOW)],
        inputs: "{messages: [a, b]}",
        want: Want::Outputs("{again: [\"a\\n\", \"b\\n\"]}", 4),
    },
];

const GATED_NESTED: &str = "cwlVersion: v1.2
class: Workflow
requirements:
  - class: SubworkflowFeatureRequirement
  - class: InlineJavascriptRequirement
inputs:
  message: string
outputs:
  out: {type: 'File?', outputSource: nested/out}
steps:
  nested:
    run: inner.cwl
    when: $(inputs.message != 'skip')
    in: {message: message}
    out: [out]
";

/// Lay a case out under `dir`; returns the workflow to run and its inputs.
fn stage(case: &Case, dir: &Path) -> (PathBuf, Map) {
    let workflow = if case.workflow.ends_with(".cwl") {
        fixtures().join(case.workflow)
    } else {
        for entry in std::fs::read_dir(fixtures()).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
            }
        }
        for (name, text) in case.files {
            std::fs::write(dir.join(name), text).unwrap();
        }
        std::fs::write(dir.join("wf.cwl"), case.workflow).unwrap();
        dir.join("wf.cwl")
    };
    let image = dir.join("in.rimg");
    imaging::write_rimg(&image, &imaging::gradient(24, 24, 7)).unwrap();
    let inputs = case.inputs.replace("IMAGE", &image.to_string_lossy());
    match yamlite::parse_str(&inputs).unwrap() {
        Value::Map(m) => (workflow, m),
        other => panic!("{}: inputs must be a map, got {other:?}", case.name),
    }
}

/// Replace every File by its content: runners place files differently and
/// must still agree on what is in them.
fn by_content(value: &Value) -> Value {
    match value {
        Value::Map(m) if m.get("class").and_then(Value::as_str) == Some("File") => {
            let path = m.get("path").and_then(Value::as_str).expect("File path");
            let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            Value::Str(String::from_utf8_lossy(&bytes).into_owned())
        }
        Value::Map(m) => Value::Map(
            m.iter()
                .map(|(k, v)| (k.to_string(), by_content(v)))
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.iter().map(by_content).collect()),
        other => other.clone(),
    }
}

/// One runner's answer: the output object by content, and how many tools
/// ran (when the runner counts them).
type Answer = Result<(Value, Option<usize>), String>;

/// Every case on RefRunner, ToilRunner, and the Parsl runner on both of
/// its executors: the thread pool and HTEX (2 nodes × 2 workers, default
/// `batch_size`, no modelled latency, local provider).
fn run_on_all_three(case: &Case, dir: &Path) -> [(&'static str, Answer); 4] {
    let (workflow, inputs) = stage(case, dir);
    let report = |r: Result<runners::RunReport, String>| {
        r.map(|r| (by_content(&Value::Map(r.outputs)), Some(r.tasks)))
    };
    let dispatch = || Arc::new(BuiltinDispatch);
    let reference = RefRunner::new(4, dispatch()).run(&workflow, &inputs, dir.join("ref"));
    let toil = ToilRunner::single_machine(4, dir.join("toil/js"), dispatch()).run(
        &workflow,
        &inputs,
        dir.join("toil"),
    );
    let parsl = |config: Config, sub: &str| {
        let dfk = DataFlowKernel::new(config);
        let options = CwlAppOptions::in_dir(dir.join(sub)).with_builtin_tools();
        let outputs = ParslWorkflowRunner::new(&dfk, options).run(&workflow, &inputs);
        dfk.shutdown();
        outputs.map(|outputs| (by_content(&Value::Map(outputs)), None))
    };
    let htex = Config::htex(
        HtexConfig {
            label: "xsys-htex".to_string(),
            nodes: 2,
            workers_per_node: 2,
            latency: LatencyModel::in_process(),
            ..HtexConfig::default()
        },
        Arc::new(LocalProvider::new(2)),
    );
    [
        ("RefRunner", report(reference)),
        ("ToilRunner", report(toil)),
        (
            "ParslWorkflowRunner",
            parsl(Config::local_threads(4), "parsl"),
        ),
        ("ParslWorkflowRunner on HTEX", parsl(htex, "parsl-htex")),
    ]
}

/// Why a case fails, if it does.
fn verdict(case: &Case, answers: &[(&'static str, Answer); 4]) -> Result<(), String> {
    if let Want::Rejected(reason) = case.want {
        for (runner, answer) in answers {
            match answer {
                Ok((outputs, _)) => return Err(format!("{runner} accepted it: {outputs:?}")),
                Err(e) if !e.contains(reason) => {
                    return Err(format!("{runner} refused without {reason:?}: {e}"))
                }
                Err(_) => {}
            }
        }
        return Ok(());
    }
    let mut agreed: Option<&Value> = None;
    for (runner, answer) in answers {
        let (outputs, tasks) = answer.as_ref().map_err(|e| format!("{runner}: {e}"))?;
        if let Want::Outputs(expected, expected_tasks) = case.want {
            let expected = yamlite::parse_str(expected).expect("expected outputs parse");
            if *outputs != expected {
                return Err(format!("{runner}: {outputs:?}, expected {expected:?}"));
            }
            if tasks.is_some_and(|n| n != expected_tasks) {
                return Err(format!(
                    "{runner} ran {tasks:?} tools, expected {expected_tasks}"
                ));
            }
        }
        match agreed {
            None => agreed = Some(outputs),
            Some(first) if first != outputs => {
                return Err(format!("{runner} differs: {outputs:?} against {first:?}"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[test]
fn every_case_means_the_same_on_all_three_runners() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    gridsim::TimeScale::set(0.0);
    let base = scratch("cases");
    let mut failures = Vec::new();
    for (i, case) in CASES.iter().enumerate() {
        let dir = base.join(format!("case{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        if let Err(why) = verdict(case, &run_on_all_three(case, &dir)) {
            failures.push(format!("{}: {why}", case.name));
        }
    }
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&base);
    assert!(
        failures.is_empty(),
        "{} of {} cases fail:\n{}",
        failures.len(),
        CASES.len(),
        failures.join("\n")
    );
}

/// What only the Parsl compiler refuses: it submits the whole graph before
/// anything runs, so a scatter whose width an upstream step decides (here:
/// over the array another scatter gathers) has no graph to submit. The
/// baselines schedule wave by wave and run it.
#[test]
fn parsl_alone_refuses_what_shapes_the_graph_at_run_time() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    gridsim::TimeScale::set(0.0);
    let case = Case {
        name: "scatter over an upstream step's gathered output",
        workflow: "cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
inputs:
  words: string[]
outputs:
  copies: {type: 'File[]', outputSource: copy/output}
steps:
  say:
    run: echo.cwl
    scatter: message
    in: {message: words}
    out: [output]
  copy:
    run: copy_text.cwl
    scatter: text
    in: {text: say/output}
    out: [output]
",
        files: &[],
        inputs: "{words: [a, b]}",
        want: Want::Agreement,
    };
    let dir = scratch("graph-shape");
    let [reference, toil, parsl, parsl_htex] = run_on_all_three(&case, &dir);
    let expected = yamlite::parse_str("{copies: [\"a\\n\", \"b\\n\"]}").unwrap();
    assert_eq!(reference.1.unwrap().0, expected);
    assert_eq!(toil.1.unwrap().0, expected);
    let refusal = parsl.1.unwrap_err();
    assert!(
        refusal.contains("the scatter width depends on the output of an upstream step"),
        "{refusal}"
    );
    assert_eq!(parsl_htex.1.unwrap_err(), refusal);
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&dir);
}
