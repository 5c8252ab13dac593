//! The meaning of one CWL workflow step instance, as pure functions.
//!
//! A runner decides *when* and *where* a step instance runs; what the
//! instance is given and what it leaves behind is decided here, once, for
//! every runner. In the order an instance meets them:
//!
//! 1. [`resolve_workflow_inputs`] — the workflow's own input object;
//! 2. [`prepare_workflow`] — every step's `run:` target taken from the
//!    run's [`DocSet`] and its expression engine compiled once, nested
//!    workflows recursively;
//! 3. [`gather_input`] / [`gather_inputs`] — `source`, `linkMerge` and the
//!    step input's `default`, over values that are already known (whether
//!    they were literals or arrived from an upstream step);
//! 4. [`scatter_width`] / [`scatter_instance`] — dot-product scatter;
//! 5. [`apply_value_from`] — `valueFrom` over the pre-transform inputs;
//! 6. [`should_run`] / [`skipped_outputs`] — the `when` verdict;
//! 7. [`output_key`], [`declared_output`], [`record_outputs`],
//!    [`gather_outputs`] — what downstream steps see.
//!
//! Values move between these functions by reference count (`Arc<Value>`
//! cells of [`Map`]), so the cost of binding one scatter instance does not
//! depend on the size of the inputs it only carries.

use crate::engine::engine_for;
use cwl::docs::{DocEntry, DocSet};
use cwl::input::normalize_value;
use cwl::loader::CwlDocument;
use cwl::workflow::{Step, StepInput, Workflow, WorkflowInput};
use cwl::CommandLineTool;
use expr::{interpolate, EvalContext, ExpressionEngine, JsCostModel};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use yamlite::{Map, Value};

/// `run:` nesting deeper than this is taken for a reference cycle.
const MAX_NESTING: usize = 32;

/// A workflow ready to run: every step's target loaded, every expression
/// engine compiled. Built once per run and shared by all step instances.
pub struct PreparedWorkflow {
    pub workflow: Workflow,
    /// Engine for the steps' `valueFrom` and `when` expressions.
    pub engine: Arc<dyn ExpressionEngine>,
    /// Step indices in dependency order.
    pub order: Vec<usize>,
    /// What each step runs, in `workflow.steps` order.
    pub targets: Vec<StepTarget>,
}

/// What a step runs.
pub enum StepTarget {
    Tool {
        tool: Arc<CommandLineTool>,
        /// The engine the tool's requirements select, its `expressionLib`
        /// compiled.
        engine: Arc<dyn ExpressionEngine>,
        /// Text of the file a `run:` path named, as the document set read it
        /// (an inline tool has none); runners that model per-task document
        /// reprocessing re-parse it.
        raw: Option<String>,
    },
    Workflow(Arc<PreparedWorkflow>),
}

/// Compile everything the root workflow of `docs` runs. Every `run:`
/// target is looked up in the set, which resolved relative paths against
/// the referencing file's directory; nothing is read here.
pub fn prepare_workflow(
    docs: &DocSet,
    js_cost: &JsCostModel,
) -> Result<Arc<PreparedWorkflow>, String> {
    let root = docs.root();
    let CwlDocument::Workflow(workflow) = root.document()? else {
        return Err(format!("{} is not a Workflow", root.path.display()));
    };
    prepare(workflow.clone(), docs, docs.root_dir(), js_cost, 0)
}

fn prepare(
    workflow: Workflow,
    docs: &DocSet,
    dir: Option<&Path>,
    js_cost: &JsCostModel,
    depth: usize,
) -> Result<Arc<PreparedWorkflow>, String> {
    if depth > MAX_NESTING {
        return Err(format!(
            "workflows nest deeper than {MAX_NESTING} levels (does a `run:` reference itself?)"
        ));
    }
    let order = workflow.topo_order()?;
    let engine = Arc::from(engine_for(&workflow.requirements, js_cost.clone())?);
    let mut targets = Vec::with_capacity(workflow.steps.len());
    for step in &workflow.steps {
        let target = prepare_target(step, &workflow, docs, dir, js_cost, depth)
            .map_err(|e| format!("step {:?}: {e}", step.id))?;
        targets.push(target);
    }
    Ok(Arc::new(PreparedWorkflow {
        workflow,
        engine,
        order,
        targets,
    }))
}

fn prepare_target(
    step: &Step,
    parent: &Workflow,
    docs: &DocSet,
    dir: Option<&Path>,
    js_cost: &JsCostModel,
    depth: usize,
) -> Result<StepTarget, String> {
    let target = docs
        .resolve(&step.run, dir)
        .ok_or("a `run:` path needs the workflow's file to resolve against")??;
    let raw = target.file.and_then(DocEntry::text).map(str::to_string);
    match target.doc.into_owned() {
        CwlDocument::Tool(tool) => Ok(StepTarget::Tool {
            engine: Arc::from(engine_for(&tool.requirements, js_cost.clone())?),
            tool: Arc::new(tool),
            raw,
        }),
        CwlDocument::Workflow(_) if !parent.requirements.subworkflow => {
            Err("runs a nested workflow but SubworkflowFeatureRequirement is absent".to_string())
        }
        CwlDocument::Workflow(sub) => Ok(StepTarget::Workflow(prepare(
            sub,
            docs,
            target.dir,
            js_cost,
            depth + 1,
        )?)),
    }
}

/// Reject a provided input the workflow does not declare.
pub fn check_input_names<'a>(
    wf: &Workflow,
    provided: impl IntoIterator<Item = &'a str>,
) -> Result<(), String> {
    for key in provided {
        if !wf.inputs.iter().any(|i| i.id == key) {
            return Err(format!("unknown workflow input {key:?}"));
        }
    }
    Ok(())
}

/// One workflow input's value: its `default` when none (or null) was
/// provided, required unless the type is optional, Files normalized.
pub fn resolve_workflow_input(
    input: &WorkflowInput,
    provided: Option<&Value>,
) -> Result<Value, String> {
    let raw = provided
        .filter(|v| !v.is_null())
        .or(input.default.as_ref())
        .unwrap_or(&Value::Null);
    if raw.is_null() && !input.typ.allows_null() {
        return Err(format!("missing required workflow input {:?}", input.id));
    }
    normalize_value(raw, &input.typ).map_err(|e| format!("workflow input {:?}: {e}", input.id))
}

/// Resolve `provided` against the workflow's declared inputs:
/// [`check_input_names`], then [`resolve_workflow_input`] for each.
pub fn resolve_workflow_inputs(wf: &Workflow, provided: &Map) -> Result<Map, String> {
    check_input_names(wf, provided.keys())?;
    let mut resolved = Map::with_capacity(wf.inputs.len());
    for input in &wf.inputs {
        let value = resolve_workflow_input(input, provided.get(&input.id))?;
        resolved.insert(input.id.clone(), value);
    }
    Ok(resolved)
}

/// The value of one step input given the values of its `source`s, in
/// order: a source list is merged per `linkMerge`, and a null result falls
/// back to the step input's `default`.
pub fn gather_input(
    step: &Step,
    input: &StepInput,
    sources: &[Arc<Value>],
) -> Result<Arc<Value>, String> {
    let value = if input.is_multi_source() {
        let merged = match input.link_merge.as_deref().unwrap_or("merge_nested") {
            "merge_nested" => sources.iter().map(|v| Value::clone(v)).collect(),
            "merge_flattened" => {
                let mut flat = Vec::new();
                for v in sources {
                    match &**v {
                        Value::Seq(items) => flat.extend(items.iter().cloned()),
                        other => flat.push(other.clone()),
                    }
                }
                flat
            }
            other => {
                return Err(format!(
                    "step {:?} input {:?}: unknown linkMerge method {other:?}",
                    step.id, input.id
                ))
            }
        };
        Arc::new(Value::Seq(merged))
    } else {
        sources
            .first()
            .cloned()
            .unwrap_or_else(|| Arc::new(Value::Null))
    };
    match &input.default {
        Some(default) if value.is_null() => Ok(Arc::new(default.clone())),
        _ => Ok(value),
    }
}

/// The diagnostic for a `source` that names nothing.
pub fn unknown_source(step: &Step, input: &StepInput, source: &str) -> String {
    format!(
        "step {:?} input {:?}: source {source:?} is neither a workflow input nor the output \
         of a finished step",
        step.id, input.id
    )
}

/// A step's input object before scatter and `valueFrom`: [`gather_input`]
/// over every input, with `lookup` supplying each source's value.
pub fn gather_inputs(
    step: &Step,
    lookup: impl Fn(&str) -> Option<Arc<Value>>,
) -> Result<Map, String> {
    let mut inputs = Map::with_capacity(step.inputs.len());
    for input in &step.inputs {
        let sources = input
            .sources
            .iter()
            .map(|src| lookup(src).ok_or_else(|| unknown_source(step, input, src)))
            .collect::<Result<Vec<_>, _>>()?;
        inputs.insert_shared(input.id.clone(), gather_input(step, input, &sources)?);
    }
    Ok(inputs)
}

/// How many instances a step scatters into (`None`: it does not scatter).
/// Every scatter target must be an array, all of one length (dot product).
pub fn scatter_width(step: &Step, inputs: &Map) -> Result<Option<usize>, String> {
    let mut width = None;
    for target in &step.scatter {
        let len = inputs
            .get(target)
            .and_then(Value::as_seq)
            .ok_or_else(|| {
                format!(
                    "step {:?}: scatter target {target:?} is not an array",
                    step.id
                )
            })?
            .len();
        match width {
            None => width = Some(len),
            Some(n) if n != len => {
                return Err(format!(
                    "step {:?}: scatter arrays have different lengths ({n} vs {len})",
                    step.id
                ))
            }
            Some(_) => {}
        }
    }
    Ok(width)
}

/// Instance `k`'s input object: each scatter target replaced by its `k`-th
/// element, everything else shared with `inputs`. `k` must be below the
/// width [`scatter_width`] returned for the same inputs.
pub fn scatter_instance(step: &Step, inputs: &Map, k: usize) -> Map {
    let mut instance = inputs.clone();
    for target in &step.scatter {
        let array = inputs
            .get(target)
            .and_then(Value::as_seq)
            .expect("scatter_width accepted these inputs");
        // `_shared`: the array replaced is still shared with `inputs`;
        // `insert` would copy it to hand it back.
        instance.insert_shared(target.clone(), Arc::new(array[k].clone()));
    }
    instance
}

/// Apply the step's `valueFrom` transforms: each sees `inputs` (the whole
/// pre-transform object) and `self` (its own input's value).
pub fn apply_value_from(
    step: &Step,
    engine: &dyn ExpressionEngine,
    inputs: Map,
) -> Result<Map, String> {
    if step.inputs.iter().all(|i| i.value_from.is_none()) {
        return Ok(inputs);
    }
    let frozen = Value::Map(inputs.clone());
    let mut out = inputs;
    for input in &step.inputs {
        let Some(value_from) = &input.value_from else {
            continue;
        };
        let mut ctx = EvalContext::from_inputs(frozen.clone());
        ctx.self_ = out.get(&input.id).cloned().unwrap_or(Value::Null);
        let value = interpolate(value_from, engine, &ctx)
            .map_err(|e| format!("step {:?} input {:?} valueFrom: {e}", step.id, input.id))?;
        // `_shared`: `frozen` still holds the replaced value.
        out.insert_shared(input.id.clone(), Arc::new(value));
    }
    Ok(out)
}

/// CWL v1.2 conditional execution: whether an instance with these (post-
/// `valueFrom`) inputs runs. A step without `when` always does.
pub fn should_run(
    step: &Step,
    engine: &dyn ExpressionEngine,
    inputs: &Map,
) -> Result<bool, String> {
    let Some(when) = &step.when else {
        return Ok(true);
    };
    let ctx = EvalContext::from_inputs(Value::Map(inputs.clone()));
    interpolate(when, engine, &ctx)
        .map(|verdict| verdict.truthy())
        .map_err(|e| format!("step {:?} when: {e}", step.id))
}

/// The output object of an instance `when` skipped: every declared output,
/// null.
pub fn skipped_outputs(step: &Step) -> Map {
    let mut outputs = Map::with_capacity(step.out.len());
    for out_id in &step.out {
        outputs.insert(out_id.clone(), Value::Null);
    }
    outputs
}

/// The name downstream `source`s use for a step output.
pub fn output_key(step_id: &str, out_id: &str) -> String {
    format!("{step_id}/{out_id}")
}

/// The diagnostic for a declared output the step's target did not produce.
pub fn missing_output(step: &Step, out_id: &str) -> String {
    format!(
        "step {:?} did not produce declared output {out_id:?}",
        step.id
    )
}

/// One declared output of a finished instance; the target must have
/// produced it.
pub fn declared_output<'a>(
    step: &Step,
    outputs: &'a Map,
    out_id: &str,
) -> Result<&'a Arc<Value>, String> {
    outputs
        .get_shared(out_id)
        .ok_or_else(|| missing_output(step, out_id))
}

/// Publish a non-scattered step's declared outputs under their
/// [`output_key`]s.
pub fn record_outputs(
    step: &Step,
    outputs: &Map,
    values: &mut HashMap<String, Arc<Value>>,
) -> Result<(), String> {
    for out_id in &step.out {
        let value = declared_output(step, outputs, out_id)?;
        values.insert(output_key(&step.id, out_id), Arc::clone(value));
    }
    Ok(())
}

/// Publish a scattered step's declared outputs: one array per output, one
/// element per instance, in instance order.
pub fn gather_outputs(
    step: &Step,
    instances: &[Map],
    values: &mut HashMap<String, Arc<Value>>,
) -> Result<(), String> {
    for out_id in &step.out {
        let gathered = instances
            .iter()
            .map(|outputs| declared_output(step, outputs, out_id).map(|v| Value::clone(v)))
            .collect::<Result<Vec<_>, _>>()?;
        values.insert(output_key(&step.id, out_id), Arc::new(Value::Seq(gathered)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::parse_str;

    /// A one-step workflow around `step_body` (the step's YAML, indented
    /// four spaces); returns the step.
    fn parse_step(step_body: &str) -> Step {
        let text = format!(
            "cwlVersion: v1.2\nclass: Workflow\ninputs: {{}}\noutputs: {{}}\nsteps:\n  s:\n    run: t.cwl\n{step_body}"
        );
        Workflow::parse(&parse_str(&text).unwrap())
            .unwrap()
            .steps
            .remove(0)
    }

    fn js() -> Box<dyn ExpressionEngine> {
        engine_for(&Default::default(), JsCostModel::free()).unwrap()
    }

    fn yaml(text: &str) -> Value {
        parse_str(text).unwrap()
    }

    fn map(text: &str) -> Map {
        match yaml(text) {
            Value::Map(m) => m,
            other => panic!("not a map: {other:?}"),
        }
    }

    #[test]
    fn gather_merges_sources_and_defaults_nulls() {
        // (step input, source values, gathered value)
        let table = [
            ("x: a", "[1]", "1"),
            ("x: {source: a, default: 9}", "[1]", "1"),
            ("x: {source: a, default: 9}", "[null]", "9"),
            ("x: {source: a}", "[null]", "null"),
            ("x: {default: 9}", "[]", "9"),
            ("x: {source: [a, b]}", "[1, 2]", "[1, 2]"),
            ("x: {source: [a, b]}", "[[1], [2, 3]]", "[[1], [2, 3]]"),
            (
                "x: {source: [a, b], linkMerge: merge_nested}",
                "[[1], 2]",
                "[[1], 2]",
            ),
            (
                "x: {source: [a, b], linkMerge: merge_flattened}",
                "[[1], [2, 3]]",
                "[1, 2, 3]",
            ),
            (
                "x: {source: [a, b], linkMerge: merge_flattened}",
                "[1, [2]]",
                "[1, 2]",
            ),
            // A merged list is never null, so its default never applies.
            (
                "x: {source: [a, b], default: 9}",
                "[null, null]",
                "[null, null]",
            ),
        ];
        for (input, sources, expected) in table {
            let step = parse_step(&format!("    in:\n      {input}\n    out: []\n"));
            let sources: Vec<Arc<Value>> = yaml(sources)
                .as_seq()
                .unwrap()
                .iter()
                .cloned()
                .map(Arc::new)
                .collect();
            let got = gather_input(&step, &step.inputs[0], &sources).unwrap();
            assert_eq!(*got, yaml(expected), "{input} over {sources:?}");
        }
        let bad =
            parse_step("    in:\n      x: {source: [a, b], linkMerge: merge_zip}\n    out: []\n");
        let err = gather_input(&bad, &bad.inputs[0], &[]).unwrap_err();
        assert!(err.contains("unknown linkMerge method"), "{err}");
    }

    #[test]
    fn gather_inputs_looks_every_source_up_and_names_the_missing_one() {
        let step = parse_step("    in:\n      x: a\n      y: {source: [a, up/out]}\n    out: []\n");
        let values = map("{a: 1, up/out: 2}");
        let inputs = gather_inputs(&step, |src| values.get_shared(src).cloned()).unwrap();
        assert_eq!(inputs, map("{x: 1, y: [1, 2]}"));
        // The carried value is shared, not copied.
        assert!(Arc::ptr_eq(
            inputs.get_shared("x").unwrap(),
            values.get_shared("a").unwrap()
        ));
        let err = gather_inputs(&step, |_| None).unwrap_err();
        assert!(
            err.contains("input \"x\"") && err.contains("\"a\""),
            "{err}"
        );
    }

    #[test]
    fn scatter_is_a_dot_product_over_equal_length_arrays() {
        let two = parse_step(
            "    scatter: [x, y]\n    in:\n      x: a\n      y: b\n      z: c\n    out: []\n",
        );
        // (inputs, width or the refusal's wording)
        let table = [
            ("{x: [1, 2], y: [a, b], z: [7, 8, 9]}", Ok(Some(2))),
            ("{x: [], y: [], z: 0}", Ok(Some(0))),
            (
                "{x: [1, 2], y: [a], z: 0}",
                Err("different lengths (2 vs 1)"),
            ),
            ("{x: [1, 2], y: a, z: 0}", Err("\"y\" is not an array")),
            ("{x: [1, 2], z: 0}", Err("\"y\" is not an array")),
        ];
        for (inputs, expected) in table {
            match (scatter_width(&two, &map(inputs)), expected) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{inputs}"),
                (Err(e), Err(want)) => assert!(e.contains(want), "{inputs}: {e}"),
                (got, want) => panic!("{inputs}: {got:?}, expected {want:?}"),
            }
        }
        let plain = parse_step("    in:\n      x: a\n    out: []\n");
        assert_eq!(scatter_width(&plain, &map("{x: [1, 2]}")), Ok(None));

        let inputs = map("{x: [1, 2], y: [a, b], z: [7, 8, 9]}");
        let second = scatter_instance(&two, &inputs, 1);
        assert_eq!(second, map("{x: 2, y: b, z: [7, 8, 9]}"));
        assert!(Arc::ptr_eq(
            second.get_shared("z").unwrap(),
            inputs.get_shared("z").unwrap()
        ));
    }

    #[test]
    fn value_from_sees_the_frozen_inputs_and_self() {
        let step = parse_step(
            "    in:\n      a: {source: p, valueFrom: $(self + inputs.b)}\n      b: {source: q, valueFrom: $(self * 10)}\n      c: r\n    out: []\n",
        );
        let out = apply_value_from(&step, js().as_ref(), map("{a: 1, b: 2, c: 3}")).unwrap();
        // `a` adds the *pre-transform* b (2), not the transformed one (20).
        assert_eq!(out, map("{a: 3, b: 20, c: 3}"));

        let broken =
            parse_step("    in:\n      a: {source: p, valueFrom: $(nope.x)}\n    out: []\n");
        let err = apply_value_from(&broken, js().as_ref(), map("{a: 1}")).unwrap_err();
        assert!(err.contains("step \"s\" input \"a\" valueFrom"), "{err}");
    }

    #[test]
    fn when_decides_and_a_skipped_instance_yields_all_null_outputs() {
        let gated = parse_step(
            "    when: $(inputs.n > 1)\n    in:\n      n: n\n    out: [first, second]\n",
        );
        let engine = js();
        assert_eq!(
            should_run(&gated, engine.as_ref(), &map("{n: 2}")),
            Ok(true)
        );
        assert_eq!(
            should_run(&gated, engine.as_ref(), &map("{n: 1}")),
            Ok(false)
        );
        assert_eq!(skipped_outputs(&gated), map("{first: null, second: null}"));
        let always = parse_step("    in:\n      n: n\n    out: [first]\n");
        assert_eq!(
            should_run(&always, engine.as_ref(), &map("{n: 0}")),
            Ok(true)
        );
    }

    #[test]
    fn outputs_are_published_under_step_slash_out_and_must_be_declared() {
        let step = parse_step("    in: {}\n    out: [kept, other]\n");
        let mut values = HashMap::new();
        record_outputs(&step, &map("{kept: 1, other: 2, extra: 3}"), &mut values).unwrap();
        assert_eq!(*values["s/kept"], Value::Int(1));
        assert!(!values.contains_key("s/extra"));

        let instances = [map("{kept: 1, other: a}"), map("{kept: null, other: b}")];
        gather_outputs(&step, &instances, &mut values).unwrap();
        assert_eq!(*values["s/kept"], yaml("[1, null]"));
        assert_eq!(*values["s/other"], yaml("[a, b]"));

        let err = record_outputs(&step, &map("{kept: 1}"), &mut values).unwrap_err();
        assert!(
            err.contains("did not produce declared output \"other\""),
            "{err}"
        );
    }

    #[test]
    fn workflow_inputs_take_defaults_and_reject_unknowns() {
        let wf = Workflow::parse(&yaml(
            "cwlVersion: v1.2\nclass: Workflow\ninputs:\n  need: int\n  opt: string?\n  dflt: {type: int, default: 5}\n  ratio: float\noutputs: {}\nsteps: {}\n",
        ))
        .unwrap();
        let resolved = resolve_workflow_inputs(&wf, &map("{need: 1, dflt: null, ratio: 2}"));
        assert_eq!(
            resolved.unwrap(),
            map("{need: 1, opt: null, dflt: 5, ratio: 2.0}")
        );
        // One input at a time, for a caller that does not know them all yet.
        assert_eq!(
            resolve_workflow_input(&wf.inputs[2], None),
            Ok(Value::Int(5))
        );
        assert!(check_input_names(&wf, ["need", "ratio"]).is_ok());

        let table = [
            ("{ratio: 1}", "missing required workflow input \"need\""),
            (
                "{need: 1, ratio: 1, bogus: 2}",
                "unknown workflow input \"bogus\"",
            ),
            ("{need: x, ratio: 1}", "workflow input \"need\":"),
        ];
        for (provided, wording) in table {
            let err = resolve_workflow_inputs(&wf, &map(provided)).unwrap_err();
            assert!(err.contains(wording), "{provided}: {err}");
        }
    }

    #[test]
    fn prepare_loads_each_target_once_against_its_own_directory() {
        let dir = std::env::temp_dir().join(format!("cwlexec-step-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let tool = "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: cat\ninputs:\n  f: File\noutputs: {}\n";
        std::fs::write(dir.join("sub/tool.cwl"), tool).unwrap();
        let inner = "cwlVersion: v1.2\nclass: Workflow\ninputs:\n  f: File\noutputs: {}\nsteps:\n  t:\n    run: tool.cwl\n    in: {f: f}\n    out: []\n";
        std::fs::write(dir.join("sub/inner.cwl"), inner).unwrap();
        // The set is loaded from the outer file, which lives in `dir`.
        let outer = |requirements: &str| {
            let text = format!(
                "cwlVersion: v1.2\nclass: Workflow\n{requirements}inputs: {{}}\noutputs: {{}}\nsteps:\n  nested:\n    run: sub/inner.cwl\n    in:\n      f: {{default: data.txt}}\n    out: []\n"
            );
            std::fs::write(dir.join("outer.cwl"), text).unwrap();
            DocSet::load(dir.join("outer.cwl"))
        };

        let requirement = "requirements:\n  - class: SubworkflowFeatureRequirement\n";
        let prepared = prepare_workflow(&outer(requirement), &JsCostModel::free()).unwrap();
        let StepTarget::Workflow(nested) = &prepared.targets[0] else {
            panic!("nested step must prepare as a workflow");
        };
        // The nested workflow's own `run:` resolved against *its* directory.
        let StepTarget::Tool {
            tool: loaded, raw, ..
        } = &nested.targets[0]
        else {
            panic!("inner step must prepare as a tool");
        };
        assert_eq!(loaded.inputs[0].id, "f");
        assert_eq!(raw.as_deref(), Some(tool));

        let err = prepare_workflow(&outer(""), &JsCostModel::free())
            .err()
            .unwrap();
        assert!(
            err.contains("SubworkflowFeatureRequirement is absent"),
            "{err}"
        );
        std::fs::write(dir.join("sub/tool.cwl"), "class: Nonsense\n").unwrap();
        let err = prepare_workflow(&outer(requirement), &JsCostModel::free())
            .err()
            .unwrap();
        assert!(err.contains("step \"nested\": step \"t\":"), "{err}");

        // The set is what runs: once loaded, deleting every file changes
        // nothing.
        let docs = outer(requirement);
        std::fs::remove_dir_all(&dir).unwrap();
        let err = prepare_workflow(&docs, &JsCostModel::free()).err().unwrap();
        assert!(err.contains("unknown CWL class"), "{err}");
    }
}
