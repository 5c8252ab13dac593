//! Executing complete CWL `Workflow`s on Parsl — the paper's stated future
//! work ("in the future we will extend this integration to support Workflow
//! definitions"), implemented here.
//!
//! The workflow *compiles* onto the dataflow kernel: every step instance
//! (scatter instances individually, subworkflow steps recursively) becomes
//! one Parsl task, and step-to-step `source` wiring becomes future
//! dependencies. Nothing blocks at compile time — the entire graph is
//! submitted up front and Parsl interleaves whatever is ready, exactly the
//! behaviour Listing 4 demonstrates by hand.

use crate::cwlapp::CwlAppOptions;
use cwl::loader::{load_file, resolve_run, CwlDocument};
use cwl::workflow::{Step, Workflow};
use cwl::CommandLineTool;
use cwlexec::{execute_tool_staged, StageCtx, ToolDispatch};
use datastore::Stager;
use expr::{interpolate, EvalContext, ExpressionEngine, JsCostModel};
use parsl::{AppArg, AppFuture, DataFlowKernel, TaskError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use yamlite::{Map, Value};

/// A dataflow node: either a known value or (gathered) task futures with an
/// output key to extract. A literal is held by reference count: every
/// scatter instance of every step it feeds shares the one value.
#[derive(Clone)]
enum Node {
    Lit(Arc<Value>),
    Fut { fut: AppFuture, key: Option<String> },
    Gather { futs: Vec<AppFuture>, key: String },
}

/// How one tool input gets its value inside the task body. The body is
/// `Fn` (a retried or re-dispatched task runs it again), so a literal is
/// shared into each attempt's input object, never moved out.
enum Slot {
    Lit(Arc<Value>),
    One {
        arg: usize,
        key: Option<String>,
    },
    Many {
        start: usize,
        len: usize,
        key: String,
    },
}

/// What a step runs, prepared once per step and shared by all of its
/// scatter instances.
enum StepRun {
    Tool {
        tool: Arc<CommandLineTool>,
        /// The engine the tool's requirements select (its `expressionLib`
        /// compiled once).
        engine: Arc<dyn ExpressionEngine>,
    },
    Workflow(Box<Workflow>),
}

/// Runs CWL workflows on a Parsl kernel.
pub struct ParslWorkflowRunner {
    dfk: Arc<DataFlowKernel>,
    workdir_base: PathBuf,
    dispatch: Arc<dyn ToolDispatch>,
    // Deferred so `new` stays infallible; surfaced by `run`.
    stager: Result<Arc<Stager>, String>,
    /// Service run identity stamped on every submitted task.
    run_tag: Option<parsl::RunTag>,
}

impl ParslWorkflowRunner {
    /// Build a runner over an existing kernel.
    pub fn new(dfk: &Arc<DataFlowKernel>, options: CwlAppOptions) -> Self {
        let dispatch = options.resolve_dispatch();
        let stager = options.resolve_stager();
        Self {
            dfk: dfk.clone(),
            workdir_base: options.workdir_base,
            dispatch,
            stager,
            run_tag: options.run_tag,
        }
    }

    /// The data plane tasks stage through (when the store opened).
    pub fn stager(&self) -> Option<&Arc<Stager>> {
        self.stager.as_ref().ok()
    }

    /// Execute the workflow at `path` with `provided` inputs; blocks until
    /// all tasks finish and returns the workflow output object.
    pub fn run(&self, path: impl AsRef<Path>, provided: &Map) -> Result<Map, String> {
        let path = path.as_ref();
        let doc = load_file(path)?;
        let CwlDocument::Workflow(wf) = doc else {
            return Err(format!("{} is not a Workflow", path.display()));
        };
        let diags = cwl::validate_document(&yamlite::parse_file(path).map_err(|e| e.to_string())?);
        if !cwl::validate::is_valid(&diags) {
            return Err(format!("validation failed: {}", diags[0]));
        }
        let base_dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();
        // A data plane that failed to open fails the run up front, not one
        // task at a time.
        self.stager.as_ref().map_err(|e| e.clone())?;

        let mut given: HashMap<String, Node> = HashMap::new();
        for (k, v) in provided.iter() {
            given.insert(k.to_string(), Node::Lit(Arc::new(v.clone())));
        }
        let outputs = self.compile(&wf, &base_dir, given, "")?;

        // Materialize: wait on every output's futures.
        let mut out = Map::with_capacity(outputs.len());
        for output in &wf.outputs {
            let node = outputs
                .get(&output.id)
                .cloned()
                .ok_or_else(|| format!("internal: output {:?} not compiled", output.id))?;
            out.insert(output.id.clone(), materialize(node)?);
        }
        Ok(out)
    }

    /// Compile a workflow into submitted tasks; returns output nodes.
    fn compile(
        &self,
        wf: &Workflow,
        base_dir: &Path,
        given: HashMap<String, Node>,
        prefix: &str,
    ) -> Result<HashMap<String, Node>, String> {
        // Resolve workflow inputs: literals are normalized now; futures pass
        // through and are checked by the consuming tool.
        let mut values: HashMap<String, Node> = HashMap::new();
        for input in &wf.inputs {
            let node = match given.get(&input.id) {
                Some(Node::Lit(v)) if v.is_null() => default_or_err(input)?,
                Some(Node::Lit(v)) => Node::Lit(Arc::new(
                    cwl::input::normalize_value(v, &input.typ)
                        .map_err(|e| format!("workflow input {:?}: {e}", input.id))?,
                )),
                Some(fut) => fut.clone(),
                None => default_or_err(input)?,
            };
            values.insert(input.id.clone(), node);
        }
        for key in given.keys() {
            if !wf.inputs.iter().any(|i| &i.id == key) {
                return Err(format!("unknown workflow input {key:?}"));
            }
        }

        // Engine for step-level valueFrom expressions.
        let wf_engine: Arc<dyn ExpressionEngine> =
            Arc::from(cwlexec::engine_for(&wf.requirements, JsCostModel::free())?);

        let order = wf.topo_order()?;
        for idx in order {
            let step = &wf.steps[idx];
            let run = match resolve_run(&step.run, base_dir)
                .map_err(|e| format!("step {:?}: {e}", step.id))?
            {
                CwlDocument::Tool(tool) => StepRun::Tool {
                    engine: Arc::from(cwlexec::engine_for(
                        &tool.requirements,
                        JsCostModel::free(),
                    )?),
                    tool: Arc::new(tool),
                },
                CwlDocument::Workflow(sub) => StepRun::Workflow(Box::new(sub)),
            };
            let step_base = match &step.run {
                cwl::workflow::RunRef::Path(p) => {
                    let p = if Path::new(p).is_absolute() {
                        PathBuf::from(p)
                    } else {
                        base_dir.join(p)
                    };
                    p.parent().unwrap_or(base_dir).to_path_buf()
                }
                cwl::workflow::RunRef::Inline(_) => base_dir.to_path_buf(),
            };

            // Gather this step's input nodes.
            let mut inputs: Vec<(String, Node, Option<String>)> = Vec::new();
            for si in &step.inputs {
                if si.is_multi_source() {
                    return Err(format!(
                        "step {:?} input {:?}: multiple sources (linkMerge) are not \
                         supported by the Parsl workflow compiler; use a single source",
                        step.id, si.id
                    ));
                }
                let node = match &si.source {
                    Some(src) => values.get(src).cloned().ok_or_else(|| {
                        format!(
                            "step {:?} input {:?}: unknown source {src:?}",
                            step.id, si.id
                        )
                    })?,
                    None => Node::Lit(Arc::new(Value::Null)),
                };
                // A null from a missing source falls back to the default.
                let node = match (&node, &si.default) {
                    (Node::Lit(v), Some(d)) if v.is_null() => Node::Lit(Arc::new(d.clone())),
                    _ => node,
                };
                inputs.push((si.id.clone(), node, si.value_from.clone()));
            }

            if step.scatter.is_empty() {
                match &run {
                    StepRun::Tool { tool, engine } => {
                        let fut = self.submit_step(
                            step,
                            tool,
                            engine,
                            inputs,
                            &wf_engine,
                            &format!("{prefix}{}", step.id),
                        )?;
                        record(step, fut, &mut values, None);
                    }
                    StepRun::Workflow(sub) => {
                        // Non-scattered subworkflow: compile recursively so
                        // its steps join the same dataflow graph.
                        if !wf.requirements.subworkflow {
                            return Err(format!(
                                "step {:?} runs a nested workflow but \
                                 SubworkflowFeatureRequirement is absent",
                                step.id
                            ));
                        }
                        if step.when.is_some() {
                            return Err(format!(
                                "step {:?}: `when` on subworkflow steps is not supported \
                                 by the Parsl workflow compiler",
                                step.id
                            ));
                        }
                        let sub_given = apply_value_from_static(inputs, &wf_engine)?;
                        let outs = self.compile(
                            sub,
                            &step_base,
                            sub_given,
                            &format!("{prefix}{}_", step.id),
                        )?;
                        for out_id in &step.out {
                            let node = outs.get(out_id).cloned().ok_or_else(|| {
                                format!("step {:?}: subworkflow lacks output {out_id:?}", step.id)
                            })?;
                            values.insert(format!("{}/{}", step.id, out_id), node);
                        }
                    }
                }
            } else {
                // Scatter: the scattered arrays must be known at compile
                // time (dynamic scatter would need join-app machinery).
                let mut n: Option<usize> = None;
                for target in &step.scatter {
                    let (_, node, _) =
                        inputs
                            .iter()
                            .find(|(id, _, _)| id == target)
                            .ok_or_else(|| {
                                format!("step {:?}: scatter target {target:?} not wired", step.id)
                            })?;
                    let Some(arr) = literal_seq(node) else {
                        return Err(format!(
                            "step {:?}: scatter over a dynamic (future-valued) array is not \
                             supported by the Parsl workflow compiler",
                            step.id
                        ));
                    };
                    match n {
                        None => n = Some(arr.len()),
                        Some(m) if m != arr.len() => {
                            return Err(format!(
                                "step {:?}: scatter arrays disagree on length",
                                step.id
                            ))
                        }
                        _ => {}
                    }
                }
                let n = n.ok_or_else(|| format!("step {:?}: empty scatter", step.id))?;
                let mut futs: Vec<AppFuture> = Vec::with_capacity(n);
                let mut sub_outs: Vec<HashMap<String, Node>> = Vec::with_capacity(n);
                for k in 0..n {
                    let instance: Vec<(String, Node, Option<String>)> = inputs
                        .iter()
                        .map(|(id, node, vf)| {
                            let node = if step.scatter.contains(id) {
                                let arr = literal_seq(node).expect("scatter arrays checked above");
                                Node::Lit(Arc::new(arr[k].clone()))
                            } else {
                                node.clone()
                            };
                            (id.clone(), node, vf.clone())
                        })
                        .collect();
                    match &run {
                        StepRun::Tool { tool, engine } => {
                            let fut = self.submit_step(
                                step,
                                tool,
                                engine,
                                instance,
                                &wf_engine,
                                &format!("{prefix}{}_{k}", step.id),
                            )?;
                            futs.push(fut);
                        }
                        StepRun::Workflow(sub) => {
                            if !wf.requirements.subworkflow {
                                return Err(format!(
                                    "step {:?} runs a nested workflow but \
                                     SubworkflowFeatureRequirement is absent",
                                    step.id
                                ));
                            }
                            let sub_given = apply_value_from_static(instance, &wf_engine)?;
                            let outs = self.compile(
                                sub,
                                &step_base,
                                sub_given,
                                &format!("{prefix}{}_{k}_", step.id),
                            )?;
                            sub_outs.push(outs);
                        }
                    }
                }
                if !futs.is_empty() {
                    for out_id in &step.out {
                        values.insert(
                            format!("{}/{}", step.id, out_id),
                            Node::Gather {
                                futs: futs.clone(),
                                key: out_id.clone(),
                            },
                        );
                    }
                } else {
                    // Scattered subworkflow: gather each declared output.
                    for out_id in &step.out {
                        let mut parts = Vec::with_capacity(sub_outs.len());
                        for outs in &sub_outs {
                            parts.push(outs.get(out_id).cloned().ok_or_else(|| {
                                format!("step {:?}: subworkflow lacks output {out_id:?}", step.id)
                            })?);
                        }
                        values.insert(format!("{}/{}", step.id, out_id), gather_nodes(parts)?);
                    }
                }
            }
        }

        // Workflow outputs.
        let mut outputs = HashMap::new();
        for out in &wf.outputs {
            let node = values.get(&out.output_source).cloned().ok_or_else(|| {
                format!("outputSource {:?} was never produced", out.output_source)
            })?;
            outputs.insert(out.id.clone(), node);
        }
        Ok(outputs)
    }

    /// Submit one instance of a tool step as a Parsl task. `tool` and
    /// `tool_engine` are the step's, shared by every instance.
    fn submit_step(
        &self,
        step: &Step,
        tool: &Arc<CommandLineTool>,
        tool_engine: &Arc<dyn ExpressionEngine>,
        inputs: Vec<(String, Node, Option<String>)>,
        wf_engine: &Arc<dyn ExpressionEngine>,
        task_name: &str,
    ) -> Result<AppFuture, String> {
        // Translate input nodes into Parsl args + body slots.
        let mut parsl_args: Vec<AppArg> = Vec::new();
        let mut slots: Vec<(String, Slot)> = Vec::new();
        let mut value_froms: Vec<(String, String)> = Vec::new();
        for (id, node, vf) in inputs {
            if let Some(vf) = vf {
                value_froms.push((id.clone(), vf));
            }
            let slot = match node {
                Node::Lit(v) => Slot::Lit(v),
                Node::Fut { fut, key } => {
                    let arg = parsl_args.len();
                    parsl_args.push(AppArg::future(&fut));
                    Slot::One { arg, key }
                }
                Node::Gather { futs, key } => {
                    let start = parsl_args.len();
                    let len = futs.len();
                    for f in &futs {
                        parsl_args.push(AppArg::future(f));
                    }
                    Slot::Many { start, len, key }
                }
            };
            slots.push((id, slot));
        }

        let workdir = self.workdir_base.join(task_name);
        let dispatch = self.dispatch.clone();
        let stager = self.stager.as_ref().map_err(|e| e.clone())?.clone();
        let obs = self.dfk.observability().clone();
        // Task id for staging-span lineage, assigned after submit;
        // a racing no-dependency task may read 0 (untracked spans).
        let lineage = Arc::new(AtomicU64::new(0));
        let body_lineage = lineage.clone();
        let tool = tool.clone();
        let tool_engine = tool_engine.clone();
        let wf_engine = wf_engine.clone();
        let step_id = step.id.clone();
        let when = step.when.clone();
        let declared_outs = step.out.clone();
        let body = parsl::apps::FnApp::new(move |vals: &[Value]| {
            let mut provided = Map::with_capacity(slots.len());
            for (id, slot) in &slots {
                let v = match slot {
                    Slot::Lit(v) => Arc::clone(v),
                    Slot::One { arg, key } => {
                        Arc::new(extract(&vals[*arg], key.as_deref()).map_err(TaskError::failed)?)
                    }
                    Slot::Many { start, len, key } => {
                        let mut seq = Vec::with_capacity(*len);
                        for v in &vals[*start..*start + *len] {
                            seq.push(extract(v, Some(key)).map_err(TaskError::failed)?);
                        }
                        Arc::new(Value::Seq(seq))
                    }
                };
                provided.insert_shared(id.clone(), v);
            }
            // Step-level valueFrom transforms, each over the
            // pre-transform inputs.
            if !value_froms.is_empty() {
                let frozen = Value::Map(provided.clone());
                for (id, vf) in &value_froms {
                    let mut ctx = EvalContext::from_inputs(frozen.clone());
                    ctx.self_ = provided.get(id).cloned().unwrap_or(Value::Null);
                    let v = interpolate(vf, wf_engine.as_ref(), &ctx).map_err(|e| {
                        TaskError::failed(format!("step {step_id:?} input {id:?} valueFrom: {e}"))
                    })?;
                    // `_shared`: `frozen` still holds the replaced value.
                    provided.insert_shared(id.clone(), Arc::new(v));
                }
            }
            // CWL v1.2 conditional execution: a falsy `when` skips
            // the tool; outputs become null.
            if let Some(when) = &when {
                let ctx = EvalContext::from_inputs(Value::Map(provided.clone()));
                let verdict = interpolate(when, wf_engine.as_ref(), &ctx)
                    .map_err(|e| TaskError::failed(format!("step {step_id:?} when: {e}")))?;
                if !verdict.truthy() {
                    let mut skipped = Map::with_capacity(declared_outs.len());
                    for out_id in &declared_outs {
                        skipped.insert(out_id.clone(), Value::Null);
                    }
                    return Ok(Value::Map(skipped));
                }
            }
            let ctx = StageCtx {
                stager: &stager,
                obs: &obs,
                lineage: body_lineage.load(Ordering::Acquire),
                parent: 0,
            };
            let run = execute_tool_staged(
                &tool,
                &provided,
                &workdir,
                tool_engine.as_ref(),
                dispatch.as_ref(),
                Some(&ctx),
            )
            .map_err(|e| TaskError::failed(format!("step {step_id:?}: {e}")))?;
            Ok(Value::Map(run.outputs))
        });
        // `submit_bound` joins the Parsl task id to the CWL step id
        // in both the lineage table and the checkpoint journal
        // before the task can launch — binding after submit races a
        // fast worker journaling a step-less record. Scatter
        // instances share the step id; the task label keeps the
        // per-instance index.
        let fut = match &self.run_tag {
            Some(tag) => {
                self.dfk
                    .submit_tagged(task_name, Some(&step.id), parsl_args, body, tag.clone())
            }
            None => self
                .dfk
                .submit_bound(task_name, Some(&step.id), parsl_args, body),
        };
        lineage.store(fut.id().0, Ordering::Release);
        Ok(fut)
    }
}

/// Record a step's output futures under `step/out` keys.
fn record(step: &Step, fut: AppFuture, values: &mut HashMap<String, Node>, _k: Option<usize>) {
    for out_id in &step.out {
        values.insert(
            format!("{}/{}", step.id, out_id),
            Node::Fut {
                fut: fut.clone(),
                key: Some(out_id.clone()),
            },
        );
    }
}

fn default_or_err(input: &cwl::workflow::WorkflowInput) -> Result<Node, String> {
    if let Some(d) = &input.default {
        return Ok(Node::Lit(Arc::new(
            cwl::input::normalize_value(d, &input.typ)
                .map_err(|e| format!("workflow input {:?}: {e}", input.id))?,
        )));
    }
    if input.typ.allows_null() {
        return Ok(Node::Lit(Arc::new(Value::Null)));
    }
    Err(format!("missing required workflow input {:?}", input.id))
}

/// The array behind a literal node, if it is one.
fn literal_seq(node: &Node) -> Option<&[Value]> {
    match node {
        Node::Lit(v) => v.as_seq(),
        _ => None,
    }
}

/// Extract an output by key from a task's output object.
fn extract(v: &Value, key: Option<&str>) -> Result<Value, String> {
    match key {
        None => Ok(v.clone()),
        Some(k) => v
            .get(k)
            .cloned()
            .ok_or_else(|| format!("upstream task did not produce output {k:?}")),
    }
}

/// Apply valueFrom transforms whose inputs are fully static (used when
/// feeding literal scatter elements into a subworkflow).
fn apply_value_from_static(
    inputs: Vec<(String, Node, Option<String>)>,
    engine: &Arc<dyn ExpressionEngine>,
) -> Result<HashMap<String, Node>, String> {
    let mut literal = Map::new();
    let mut any_future = false;
    for (id, node, _) in &inputs {
        match node {
            Node::Lit(v) => {
                literal.insert_shared(id.clone(), Arc::clone(v));
            }
            _ => any_future = true,
        }
    }
    let frozen = Value::Map(literal);
    let mut out = HashMap::new();
    for (id, node, vf) in inputs {
        let node = match (&node, vf) {
            (Node::Lit(v), Some(vf)) => {
                let mut ctx = EvalContext::from_inputs(frozen.clone());
                ctx.self_ = Value::clone(v);
                Node::Lit(Arc::new(
                    interpolate(&vf, engine.as_ref(), &ctx)
                        .map_err(|e| format!("input {id:?} valueFrom: {e}"))?,
                ))
            }
            (_, Some(_)) if any_future => {
                return Err(format!(
                    "input {id:?}: valueFrom on future-valued subworkflow inputs is not supported"
                ))
            }
            _ => node,
        };
        out.insert(id, node);
    }
    Ok(out)
}

/// Combine per-instance subworkflow output nodes into one gathered node.
fn gather_nodes(parts: Vec<Node>) -> Result<Node, String> {
    // All-literal parts collapse to a literal array; future-valued parts
    // must share the extraction shape.
    if parts.iter().all(|p| matches!(p, Node::Lit(_))) {
        let vals = parts
            .into_iter()
            .map(|p| match p {
                Node::Lit(v) => Arc::unwrap_or_clone(v),
                _ => unreachable!(),
            })
            .collect();
        return Ok(Node::Lit(Arc::new(Value::Seq(vals))));
    }
    let mut futs = Vec::with_capacity(parts.len());
    let mut shared_key: Option<String> = None;
    for p in parts {
        match p {
            Node::Fut { fut, key } => {
                match (&shared_key, key) {
                    (None, Some(k)) => shared_key = Some(k),
                    (Some(a), Some(b)) if *a == b => {}
                    (_, k) => {
                        return Err(format!(
                            "cannot gather subworkflow outputs with mixed keys ({shared_key:?} vs {k:?})"
                        ))
                    }
                }
                futs.push(fut);
            }
            other => {
                let _ = other;
                return Err(
                    "cannot gather a mix of literal and future subworkflow outputs".to_string(),
                );
            }
        }
    }
    Ok(Node::Gather {
        futs,
        key: shared_key.ok_or("gather requires an output key")?,
    })
}

/// Wait for a node's futures and produce its final value.
fn materialize(node: Node) -> Result<Value, String> {
    match node {
        Node::Lit(v) => Ok(Arc::unwrap_or_clone(v)),
        Node::Fut { fut, key } => {
            let v = fut.result().map_err(|e| e.to_string())?;
            extract(&v, key.as_deref())
        }
        Node::Gather { futs, key } => {
            let mut out = Vec::with_capacity(futs.len());
            for fut in futs {
                let v = fut.result().map_err(|e| e.to_string())?;
                out.push(extract(&v, Some(&key))?);
            }
            Ok(Value::Seq(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsl::Config;

    fn fixtures() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
    }

    fn workdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wfrunner-{tag}-{}", std::process::id()));
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
    fn runs_listing3_pipeline() {
        let dir = workdir("pipe");
        imaging::write_rimg(dir.join("in.rimg"), &imaging::gradient(32, 32, 4)).unwrap();
        let dfk = DataFlowKernel::new(Config::local_threads(4));
        let runner =
            ParslWorkflowRunner::new(&dfk, CwlAppOptions::in_dir(&dir).with_builtin_tools());
        let outputs = runner
            .run(
                fixtures().join("image_pipeline.cwl"),
                &as_map(yamlite::vmap! {
                    "input_image" => dir.join("in.rimg").to_string_lossy().into_owned(),
                    "size" => 16i64,
                    "sepia" => true,
                    "radius" => 1i64,
                }),
            )
            .unwrap();
        let img = imaging::read_rimg(
            outputs.get("final_output").unwrap()["path"]
                .as_str()
                .unwrap(),
        )
        .unwrap();
        assert_eq!((img.width(), img.height()), (16, 16));
        assert_eq!(dfk.monitoring().summary().completed, 3);
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runs_scattered_subworkflow() {
        let dir = workdir("scatter");
        let mut paths = Vec::new();
        for i in 0..3 {
            let p = dir.join(format!("img{i}.rimg"));
            imaging::write_rimg(&p, &imaging::gradient(24, 24, i as u64)).unwrap();
            paths.push(Value::str(p.to_string_lossy().into_owned()));
        }
        let dfk = DataFlowKernel::new(Config::local_threads(4));
        let runner =
            ParslWorkflowRunner::new(&dfk, CwlAppOptions::in_dir(&dir).with_builtin_tools());
        let outputs = runner
            .run(
                fixtures().join("scatter_images.cwl"),
                &as_map(yamlite::vmap! {
                    "input_images" => Value::Seq(paths),
                    "size" => 12i64,
                    "sepia" => false,
                    "radius" => 1i64,
                }),
            )
            .unwrap();
        let outs = outputs.get("final_outputs").unwrap().as_seq().unwrap();
        assert_eq!(outs.len(), 3);
        for o in outs {
            let img = imaging::read_rimg(o["path"].as_str().unwrap()).unwrap();
            assert_eq!((img.width(), img.height()), (12, 12));
        }
        // 3 images × 3 stages = 9 Parsl tasks.
        assert_eq!(dfk.monitoring().summary().completed, 9);
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runs_word_scatter_python() {
        let dir = workdir("words");
        let dfk = DataFlowKernel::new(Config::local_threads(4));
        let runner =
            ParslWorkflowRunner::new(&dfk, CwlAppOptions::in_dir(&dir).with_builtin_tools());
        let words: Vec<Value> = ["alpha", "beta", "gamma"]
            .iter()
            .map(|w| Value::str(*w))
            .collect();
        let outputs = runner
            .run(
                fixtures().join("scatter_words_py.cwl"),
                &as_map(yamlite::vmap! {"words" => Value::Seq(words)}),
            )
            .unwrap();
        let files = outputs.get("capitalized").unwrap().as_seq().unwrap();
        assert_eq!(files.len(), 3);
        let texts: Vec<String> = files
            .iter()
            .map(|f| std::fs::read_to_string(f["path"].as_str().unwrap()).unwrap())
            .collect();
        assert_eq!(texts, vec!["Alpha\n", "Beta\n", "Gamma\n"]);
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_input_rejected() {
        let dir = workdir("missing");
        let dfk = DataFlowKernel::new(Config::local_threads(1));
        let runner =
            ParslWorkflowRunner::new(&dfk, CwlAppOptions::in_dir(&dir).with_builtin_tools());
        let err = runner
            .run(fixtures().join("image_pipeline.cwl"), &Map::new())
            .unwrap_err();
        assert!(err.contains("missing required workflow input"), "{err}");
        dfk.shutdown();
    }

    #[test]
    fn tool_file_rejected() {
        let dir = workdir("tool");
        let dfk = DataFlowKernel::new(Config::local_threads(1));
        let runner =
            ParslWorkflowRunner::new(&dfk, CwlAppOptions::in_dir(&dir).with_builtin_tools());
        let err = runner
            .run(fixtures().join("echo.cwl"), &Map::new())
            .unwrap_err();
        assert!(err.contains("not a Workflow"), "{err}");
        dfk.shutdown();
    }
}
