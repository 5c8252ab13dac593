//! Snapshot-style tests for the `cwl::analyze` static pass: every shipped
//! fixture must be diagnostic-free (even under `--strict`), every file in
//! the broken corpus must produce its expected stable code, and analyzer
//! spans must point at the right line/column. A property test closes the
//! loop: workflows the analyzer passes execute their expressions without
//! syntax errors.

use cwl::analyze::{
    analyze_file, analyze_file_opts, analyze_str, codes, AnalyzeOptions, ExecutorCapacity,
};
use cwl::loader::CwlDocument;
use expr::{interpolate, EvalContext, JsEngine};
use proptest::prelude::*;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

#[test]
fn all_fixtures_are_clean_even_under_strict() {
    let mut checked = 0;
    for entry in std::fs::read_dir(fixtures_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("cwl") {
            continue;
        }
        let report = analyze_file(&path);
        assert!(
            report.is_clean(true),
            "{} should be clean:\n{}",
            path.display(),
            report.render_text()
        );
        checked += 1;
    }
    assert!(
        checked >= 13,
        "expected the full fixture set, found {checked}"
    );
}

/// An 8-core single-node capacity, for the capacity-dependent entries.
fn eight_core_node() -> ExecutorCapacity {
    ExecutorCapacity {
        label: "test (1 node(s) x 8 worker(s))".to_string(),
        slots: 8,
        cores_per_node: Some(8),
        ram_per_node_mb: Some(16 * 1024),
    }
}

#[test]
fn broken_corpus_produces_expected_codes() {
    // (file, expected code, executor capacity handed to the analyzer).
    let expected: [(&str, &str, Option<ExecutorCapacity>); 24] = [
        ("bad_link_type.cwl", codes::LINK_TYPE, None),
        ("scatter_nonarray.cwl", codes::SCATTER_NOT_ARRAY, None),
        ("scatter_not_input.cwl", codes::SCATTER_NOT_INPUT, None),
        ("scatter_missing_req.cwl", codes::SCATTER_NEEDS_REQ, None),
        ("cycle.cwl", codes::CYCLE, None),
        ("unknown_source.cwl", codes::UNKNOWN_SOURCE, None),
        ("bad_js_syntax.cwl", codes::JS_SYNTAX, None),
        ("bad_py_syntax.cwl", codes::PY_SYNTAX, None),
        ("unbound_variable.cwl", codes::UNBOUND_VAR, None),
        ("body_missing_req.cwl", codes::BODY_NEEDS_REQ, None),
        (
            "valuefrom_missing_req.cwl",
            codes::VALUE_FROM_NEEDS_REQ,
            None,
        ),
        ("missing_required_input.cwl", codes::UNWIRED_INPUT, None),
        ("bad_out.cwl", codes::BAD_STEP_OUT, None),
        ("linkmerge_bad.cwl", codes::LINK_MERGE, None),
        ("output_type_mismatch.cwl", codes::OUTPUT_TYPE, None),
        ("yaml_error.cwl", codes::YAML_PARSE, None),
        ("dead_step.cwl", codes::DEAD_STEP, None),
        ("optional_coercion.cwl", codes::OPTIONAL_COERCION, None),
        ("effect_collision.cwl", codes::EFFECT_COLLISION, None),
        ("scatter_effect.cwl", codes::SCATTER_EFFECT, None),
        ("writable_input.cwl", codes::WRITABLE_INPUT, None),
        ("unschedulable.cwl", codes::UNSCHEDULABLE, None),
        // The same E032 one workflow deeper, in another directory: the
        // nested file's `run:` resolves against its own directory.
        ("nested_unschedulable.cwl", codes::UNSCHEDULABLE, None),
        // W111 only fires against a capacity: coresMin 6 vs an 8-core node.
        (
            "near_capacity.cwl",
            codes::NEAR_CAPACITY,
            Some(eight_core_node()),
        ),
    ];
    for (file, code, capacity) in expected {
        let path = fixtures_dir().join("broken").join(file);
        let opts = AnalyzeOptions { capacity };
        let report = analyze_file_opts(&path, &opts);
        assert!(
            report.has_code(code),
            "{file} should produce {code}:\n{}",
            report.render_text()
        );
        assert!(!report.is_clean(true), "{file} must fail under strict");
        // The stable code must survive into the JSON rendering.
        let json = report.to_json();
        assert!(json.contains(&format!("\"code\":\"{code}\"")), "{json}");
        // Every diagnostic of a parsed file carries a source position.
        for d in &report.diags {
            assert!(d.position.is_some(), "{file}: diagnostic without span: {d}");
        }
    }
}

/// A step input's `default` replaces a null source value, so an optional
/// source may feed a required sink through one; without it W103 stands.
#[test]
fn step_input_default_answers_optional_coercion() {
    let workflow = |step_input: &str| {
        format!(
            "cwlVersion: v1.2\nclass: Workflow\ninputs:\n  x: string?\noutputs: {{}}\nsteps:\n  s:\n    \
             run:\n      class: CommandLineTool\n      baseCommand: echo\n      inputs:\n        \
             x: string\n      outputs: {{}}\n    in:\n      x: {step_input}\n    out: []\n"
        )
    };
    for (step_input, warns) in [
        ("x", true),
        ("{source: x}", true),
        ("{source: x, default: null}", true),
        ("{source: x, default: fallback}", false),
    ] {
        let report = analyze_str(&workflow(step_input), None);
        assert_eq!(
            report.has_code(codes::OPTIONAL_COERCION),
            warns,
            "in: {{x: {step_input}}}:\n{}",
            report.render_text()
        );
        assert_eq!(report.is_clean(true), !warns, "{}", report.render_text());
    }
}

#[test]
fn broken_corpus_is_complete() {
    // Every corpus file is covered by the expectation table above.
    let count = std::fs::read_dir(fixtures_dir().join("broken"))
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .and_then(|x| x.to_str())
                == Some("cwl")
        })
        .count();
    assert_eq!(count, 24);
}

#[test]
fn ordered_shared_writers_are_not_flagged() {
    // A chain a -> b where both write ../log.txt: the dataflow edge orders
    // the writes, so the effect pass must stay silent. Remove the edge and
    // the same pair becomes E030.
    let chained = shared_writer_workflow(&[vec![], vec![0]]);
    let report = analyze_str(&chained, None);
    assert!(
        !report.has_code(codes::EFFECT_COLLISION),
        "ordered writers flagged:\n{}",
        report.render_text()
    );
    let parallel = shared_writer_workflow(&[vec![], vec![]]);
    let report = analyze_str(&parallel, None);
    assert!(
        report.has_code(codes::EFFECT_COLLISION),
        "unordered writers missed:\n{}",
        report.render_text()
    );

    // Diamond shape: s0 -> s1, s0 -> s2, {s1, s2} -> s3. The only
    // unordered pair is (s1, s2).
    let diamond = shared_writer_workflow(&[vec![], vec![0], vec![0], vec![1, 2]]);
    let report = analyze_str(&diamond, None);
    let collisions: Vec<_> = report
        .diags
        .iter()
        .filter(|d| d.code == codes::EFFECT_COLLISION)
        .collect();
    assert_eq!(collisions.len(), 1, "{}", report.render_text());
    assert!(
        collisions[0].message.contains("\"s1\""),
        "{}",
        collisions[0]
    );
    assert!(
        collisions[0].message.contains("\"s2\""),
        "{}",
        collisions[0]
    );
}

/// Build a workflow of `deps.len()` steps, step `i` depending on the steps
/// in `deps[i]` (indices < i), every step writing `../log.txt` via stdout.
fn shared_writer_workflow(deps: &[Vec<usize>]) -> String {
    let mut doc = String::from("cwlVersion: v1.2\nclass: Workflow\ninputs:\n  x: string\n");
    doc.push_str("outputs:\n");
    for (i, _) in deps.iter().enumerate() {
        doc.push_str(&format!(
            "  out{i}:\n    type: File\n    outputSource: s{i}/o\n"
        ));
    }
    doc.push_str("steps:\n");
    for (i, ds) in deps.iter().enumerate() {
        doc.push_str(&format!(
            "  s{i}:\n    run:\n      class: CommandLineTool\n"
        ));
        doc.push_str("      baseCommand: echo\n      stdout: ../log.txt\n");
        doc.push_str("      inputs:\n        m: string\n");
        for d in ds {
            doc.push_str(&format!("        d{d}: File\n"));
        }
        doc.push_str("      outputs:\n        o:\n          type: stdout\n");
        doc.push_str("    in:\n      m: x\n");
        for d in ds {
            doc.push_str(&format!("      d{d}: s{d}/o\n"));
        }
        doc.push_str("    out: [o]\n");
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness *and* completeness of the effect pass on random DAGs
    /// whose steps all write the same shared path: E030 fires iff some
    /// pair of steps has no ordering edge between them.
    #[test]
    fn effect_collisions_match_reachability(
        edges in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 5), 2..6)
    ) {
        // deps[i] = sorted indices j < i with an edge j -> i.
        let n = edges.len();
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..i).filter(|&j| edges[i][j]).collect())
            .collect();

        // Ground truth: transitive reachability over the chosen edges.
        let mut reach = vec![vec![false; n]; n];
        for (i, ds) in deps.iter().enumerate() {
            for &j in ds {
                reach[j][i] = true;
                let ancestors: Vec<usize> = (0..n).filter(|&k| reach[k][j]).collect();
                for k in ancestors {
                    reach[k][i] = true;
                }
            }
        }
        let unordered_pair_exists = (0..n).any(|a| {
            (a + 1..n).any(|b| !reach[a][b] && !reach[b][a])
        });

        let doc = shared_writer_workflow(&deps);
        let report = analyze_str(&doc, None);
        prop_assert_eq!(
            report.has_code(codes::EFFECT_COLLISION),
            unordered_pair_exists,
            "deps {:?}:\n{}",
            deps,
            report.render_text()
        );
    }
}

#[test]
fn scatter_images_is_clean_with_correct_spans() {
    let path = fixtures_dir().join("scatter_images.cwl");
    let text = std::fs::read_to_string(&path).unwrap();
    let report = analyze_str(&text, Some(&path));
    assert!(report.is_clean(true), "{}", report.render_text());

    // The span side-table places the step machinery where the file has it.
    let (_, spans) = yamlite::parse_str_spanned(&text).unwrap();
    let pos = |p: &str| spans.get(p).unwrap_or_else(|| panic!("no span for {p}"));
    assert_eq!((pos("steps").line, pos("steps").col), (25, 1));
    assert_eq!(
        (pos("steps.per_image").line, pos("steps.per_image").col),
        (26, 3)
    );
    let scatter = pos("steps.per_image.scatter");
    assert_eq!((scatter.line, scatter.col), (28, 5));

    // Break the scatter dimensionality and the diagnostic lands on that
    // exact span.
    let broken = text.replace("scatter: input_image", "scatter: size");
    let report = analyze_str(&broken, Some(&path));
    let diag = report
        .diags
        .iter()
        .find(|d| d.code == codes::SCATTER_NOT_ARRAY)
        .expect("scattering over an int input must be E013");
    assert_eq!(diag.path, "steps.per_image.scatter");
    let p = diag.position.expect("span-carrying diagnostic");
    assert_eq!((p.line, p.col), (28, 5));
}

#[test]
fn config_files_are_not_mistaken_for_cwl() {
    // Runner configs have no `class:` key; the analyzer is only invoked on
    // CWL documents, but analyze_str on one must at least not panic and
    // must flag it as not fitting the CWL model.
    let text = "executor:\n  kind: thread-pool\n  workers: 2\n";
    let report = analyze_str(text, None);
    assert!(report.has_code(codes::CWL_MODEL));
}

// ------------------------------------------------------------ property test

/// Components a generated workflow draws from. Some combinations are
/// analyzer-clean, some are broken; the property only constrains the clean
/// ones.
fn value_from_pool() -> impl Strategy<Value = Option<&'static str>> {
    prop_oneof![
        Just(None),
        Just(Some("$(self)")),
        Just(Some("$(inputs.x)")),
        Just(Some("prefix-$(inputs.x)")),
        Just(Some("${ return inputs.x; }")),
        Just(Some("$(nope)")),
        Just(Some("$(inputs.x +)")),
        Just(Some("${ return inputs.x")),
    ]
}

fn build_workflow(
    vf: Option<&str>,
    step_expr_req: bool,
    js_req: bool,
    scatter_req: bool,
    input_type: &str,
    do_scatter: bool,
) -> String {
    let mut reqs = String::new();
    if step_expr_req {
        reqs.push_str("  - class: StepInputExpressionRequirement\n");
    }
    if js_req {
        reqs.push_str("  - class: InlineJavascriptRequirement\n");
    }
    if scatter_req {
        reqs.push_str("  - class: ScatterFeatureRequirement\n");
    }
    let requirements = if reqs.is_empty() {
        String::new()
    } else {
        format!("requirements:\n{reqs}")
    };
    let mut doc = String::from("cwlVersion: v1.2\nclass: Workflow\n");
    doc.push_str(&requirements);
    doc.push_str(&format!("inputs:\n  x: {input_type}\noutputs: {{}}\n"));
    doc.push_str("steps:\n  s:\n    run:\n      class: CommandLineTool\n");
    doc.push_str("      baseCommand: echo\n      inputs:\n        y: Any\n");
    doc.push_str("      outputs: {}\n");
    if do_scatter {
        doc.push_str("    scatter: y\n");
    }
    doc.push_str("    in:\n      y:\n        source: x\n");
    if let Some(e) = vf {
        doc.push_str(&format!(
            "        valueFrom: \"{}\"\n",
            e.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
    doc.push_str("    out: []\n");
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness of the pre-run gate: any generated workflow the analyzer
    /// passes loads, topologically orders, and evaluates its expressions
    /// without syntax errors.
    #[test]
    fn analyzer_clean_workflows_execute_their_expressions(
        vf in value_from_pool(),
        step_expr_req in any::<bool>(),
        js_req in any::<bool>(),
        scatter_req in any::<bool>(),
        input_type in prop_oneof![Just("string"), Just("int"), Just("string[]")],
        do_scatter in any::<bool>(),
    ) {
        let doc = build_workflow(vf, step_expr_req, js_req, scatter_req, input_type, do_scatter);
        let report = analyze_str(&doc, None);
        if !report.is_clean(false) {
            return Ok(()); // the gate rejects it before execution
        }

        let parsed = yamlite::parse_str(&doc).expect("clean doc reparses");
        let wf = match cwl::load_document(&parsed).expect("clean doc loads") {
            CwlDocument::Workflow(w) => w,
            _ => unreachable!("generator emits workflows"),
        };
        wf.topo_order().expect("clean workflow orders");

        // E013 soundness: a surviving scatter always has an array source.
        let step = &wf.steps[0];
        if !step.scatter.is_empty() {
            prop_assert_eq!(input_type, "string[]");
        }

        // Expression soundness: every valueFrom the analyzer passed
        // evaluates without a syntax error under the engine that runs it.
        let engine = JsEngine::in_process();
        let sample = match input_type {
            "int" => yamlite::Value::Int(7),
            "string" => yamlite::Value::str("hello"),
            _ => yamlite::Value::Seq(vec![yamlite::Value::str("a"), yamlite::Value::str("b")]),
        };
        for si in &step.inputs {
            if let Some(vf) = &si.value_from {
                let mut ctx = EvalContext::from_inputs(
                    yamlite::vmap! {"x" => sample.clone()},
                );
                ctx.self_ = sample.clone();
                interpolate(vf, &engine, &ctx)
                    .unwrap_or_else(|e| panic!("analyzer-clean valueFrom {vf:?} failed: {e}"));
            }
        }
    }
}
