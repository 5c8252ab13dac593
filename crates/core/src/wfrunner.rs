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
use crate::task::ToolTask;
use cwl::loader::CwlDocument;
use cwl::workflow::Step;
use cwl::DocSet;
use cwlexec::step::{self, PreparedWorkflow, StepTarget};
use cwlexec::ToolDispatch;
use datastore::Stager;
use expr::JsCostModel;
use parsl::{AppArg, AppFuture, DataFlowKernel};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use yamlite::{Map, Value};

/// A dataflow node: a known value, one output of a task that may not have
/// run yet, or an array of nodes (a scattered step's gathered output). A
/// literal is held by reference count: every scatter instance of every
/// step it feeds shares the one value.
#[derive(Clone)]
enum Node {
    Lit(Arc<Value>),
    Fut { fut: AppFuture, key: Arc<str> },
    Seq(Vec<Node>),
}

/// A [`Node`] as a task body reads it: futures have become positions in
/// the task's dependency values.
enum Src {
    Lit(Arc<Value>),
    Arg { arg: usize, key: Arc<str> },
    Seq(Vec<Src>),
}

/// How one step input gets its value.
#[derive(Clone)]
enum Slot<S> {
    /// Known when the step was compiled: every source was a literal (then
    /// already gathered), or it is one element of a scattered array.
    Ready(Arc<Value>),
    /// Gathered in the task body, once these sources' tasks have finished.
    Pending(Vec<S>),
}

/// The one construct the compiler cannot express: the whole graph is
/// submitted before anything runs, so what shapes the graph — how wide a
/// scatter is, whether a nested workflow's steps exist, what they are fed —
/// cannot wait for a task (that would take a join app).
fn needs_upstream(step: &Step, what: &str) -> String {
    format!(
        "step {:?}: {what} depends on the output of an upstream step, which the Parsl \
         workflow compiler cannot know when it submits the graph",
        step.id
    )
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
    /// all tasks finish and returns the workflow output object. The library
    /// entry: nothing gates before it, so it applies the pre-run gate
    /// itself (no executor capacity, warnings allowed).
    pub fn run(&self, path: impl AsRef<Path>, provided: &Map) -> Result<Map, String> {
        let docs = DocSet::load(path);
        cwl::analyze::gate(&docs, &Default::default(), false).map_err(|r| r.refusal())?;
        self.run_docs(&docs, provided)
    }

    /// [`ParslWorkflowRunner::run`] over an already-loaded document set: the
    /// root workflow and every file it runs come from `docs`. The caller
    /// gates `docs` ([`crate::run::RunSpec::gate`]); nothing here checks
    /// them against the spec's rules again.
    pub fn run_docs(&self, docs: &DocSet, provided: &Map) -> Result<Map, String> {
        let root = docs.root();
        let CwlDocument::Workflow(_) = root.document()? else {
            return Err(format!("{} is not a Workflow", root.path.display()));
        };
        // A data plane that failed to open fails the run up front, not one
        // task at a time.
        let stager = self.stager.as_ref().map_err(|e| e.clone())?;
        // parsl-cwl evaluates expressions in-process (the paper's §V fast
        // path): no modelled process-boundary cost.
        let prepared = step::prepare_workflow(docs, &JsCostModel::free())?;

        let outputs = self.compile(&prepared, stager, literals(provided).collect(), "")?;

        // Materialize: wait on every output's futures.
        let mut out = Map::with_capacity(outputs.len());
        for output in &prepared.workflow.outputs {
            let node = outputs
                .get(&output.id)
                .ok_or_else(|| format!("internal: output {:?} not compiled", output.id))?;
            out.insert_shared(output.id.clone(), materialize(node)?);
        }
        Ok(out)
    }

    /// Compile a workflow into submitted tasks; returns output nodes.
    fn compile(
        &self,
        prepared: &Arc<PreparedWorkflow>,
        stager: &Arc<Stager>,
        mut given: HashMap<String, Node>,
        prefix: &str,
    ) -> Result<HashMap<String, Node>, String> {
        let wf = &prepared.workflow;
        // Workflow inputs: what is known is resolved now; a future (feeding
        // a nested workflow) passes through and is checked by the tool that
        // consumes it.
        step::check_input_names(wf, given.keys().map(String::as_str))?;
        let mut values: HashMap<String, Node> = HashMap::new();
        for input in &wf.inputs {
            let node = match given.remove(&input.id) {
                Some(Node::Lit(v)) => {
                    Node::Lit(Arc::new(step::resolve_workflow_input(input, Some(&v))?))
                }
                Some(pending) => pending,
                None => Node::Lit(Arc::new(step::resolve_workflow_input(input, None)?)),
            };
            values.insert(input.id.clone(), node);
        }

        for &idx in &prepared.order {
            let step = &wf.steps[idx];
            // An input whose sources are all known is gathered now; the
            // rest wait for the task body — except a scatter target: the
            // width is part of the graph's shape.
            let mut slots: Vec<Slot<Node>> = Vec::with_capacity(step.inputs.len());
            let mut ready = Map::with_capacity(step.inputs.len());
            for input in &step.inputs {
                let mut nodes = Vec::with_capacity(input.sources.len());
                let mut known = Vec::with_capacity(input.sources.len());
                for src in &input.sources {
                    let node = values
                        .get(src)
                        .ok_or_else(|| step::unknown_source(step, input, src))?;
                    if let Node::Lit(v) = node {
                        known.push(v.clone());
                    }
                    nodes.push(node.clone());
                }
                if known.len() == nodes.len() {
                    let value = step::gather_input(step, input, &known)?;
                    ready.insert_shared(input.id.clone(), value.clone());
                    slots.push(Slot::Ready(value));
                } else if step.scatter.contains(&input.id) {
                    return Err(needs_upstream(step, "the scatter width"));
                } else {
                    slots.push(Slot::Pending(nodes));
                }
            }
            let instances: Vec<(String, Vec<Slot<Node>>)> =
                match step::scatter_width(step, &ready)? {
                    None => vec![(format!("{prefix}{}", step.id), slots)],
                    Some(n) => (0..n)
                        .map(|k| {
                            let sliced = step::scatter_instance(step, &ready, k);
                            let slots = step.inputs.iter().zip(&slots).map(|(input, slot)| {
                                match sliced.get_shared(&input.id) {
                                    Some(v) => Slot::Ready(v.clone()),
                                    None => slot.clone(),
                                }
                            });
                            (format!("{prefix}{}_{k}", step.id), slots.collect())
                        })
                        .collect(),
                };

            // Each instance is one task, or a nested workflow compiled into
            // this same dataflow graph; either way, one node per declared
            // output.
            let out_keys: Vec<Arc<str>> = step.out.iter().map(|o| Arc::from(&**o)).collect();
            let mut parts: Vec<Vec<Node>> = Vec::with_capacity(instances.len());
            for (name, slots) in instances {
                parts.push(match &prepared.targets[idx] {
                    StepTarget::Tool { .. } => {
                        let fut = self.submit_step(prepared, idx, stager, slots, &name);
                        let output = |key: &Arc<str>| Node::Fut {
                            fut: fut.clone(),
                            key: key.clone(),
                        };
                        out_keys.iter().map(output).collect()
                    }
                    StepTarget::Workflow(sub) => match self.bind_nested(prepared, idx, slots)? {
                        None => literals(&step::skipped_outputs(step))
                            .map(|(_, null)| null)
                            .collect(),
                        Some(given) => {
                            let outs = self.compile(sub, stager, given, &format!("{name}_"))?;
                            let output = |out_id: &String| {
                                outs.get(out_id)
                                    .cloned()
                                    .ok_or_else(|| step::missing_output(step, out_id))
                            };
                            step.out.iter().map(output).collect::<Result<_, _>>()?
                        }
                    },
                });
            }
            for (j, out_id) in step.out.iter().enumerate() {
                let mut nodes = parts.iter().map(|part| part[j].clone());
                let node = if step.scatter.is_empty() {
                    nodes.next().expect("an unscattered step is one instance")
                } else {
                    gathered(nodes.collect())
                };
                values.insert(step::output_key(&step.id, out_id), node);
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

    /// The inputs of one nested-workflow instance, or `None` when its
    /// `when` skips it. There is no task body to finish binding in, so an
    /// input still waiting for a task passes through only if that task's
    /// output *is* its value: one source, no `default`, and no `valueFrom`
    /// or `when` to evaluate over it.
    fn bind_nested(
        &self,
        prepared: &PreparedWorkflow,
        idx: usize,
        slots: Vec<Slot<Node>>,
    ) -> Result<Option<HashMap<String, Node>>, String> {
        let step = &prepared.workflow.steps[idx];
        let mut known = Map::with_capacity(slots.len());
        let mut given = HashMap::new();
        for (input, slot) in step.inputs.iter().zip(slots) {
            match slot {
                Slot::Ready(v) => {
                    known.insert_shared(input.id.clone(), v);
                }
                Slot::Pending(mut nodes) if input.source.is_some() && input.default.is_none() => {
                    given.extend(nodes.pop().map(|node| (input.id.clone(), node)));
                }
                Slot::Pending(_) => {
                    let what = format!("the linkMerge or default of input {:?}", input.id);
                    return Err(needs_upstream(step, &what));
                }
            }
        }
        let evaluates = step.when.is_some() || step.inputs.iter().any(|i| i.value_from.is_some());
        if evaluates && !given.is_empty() {
            return Err(needs_upstream(
                step,
                "`when` or `valueFrom` on a nested workflow",
            ));
        }
        let engine = prepared.engine.as_ref();
        let inputs = step::apply_value_from(step, engine, known)?;
        if !step::should_run(step, engine, &inputs)? {
            return Ok(None);
        }
        given.extend(literals(&inputs));
        Ok(Some(given))
    }

    /// Submit one instance of a tool step as a Parsl task. Scatter
    /// instances share the step id; the task name keeps the instance index.
    fn submit_step(
        &self,
        prepared: &Arc<PreparedWorkflow>,
        idx: usize,
        stager: &Arc<Stager>,
        slots: Vec<Slot<Node>>,
        task_name: &str,
    ) -> AppFuture {
        let StepTarget::Tool { tool, engine, .. } = &prepared.targets[idx] else {
            unreachable!("submit_step is called for tool steps only");
        };
        // Futures become the task's dependencies, in input order.
        let mut args: Vec<AppArg> = Vec::new();
        let slots: Vec<Slot<Src>> = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(v) => Slot::Ready(v),
                Slot::Pending(nodes) => {
                    Slot::Pending(nodes.iter().map(|n| wire(n, &mut args)).collect())
                }
            })
            .collect();
        let task = ToolTask {
            tool: tool.clone(),
            engine: engine.clone(),
            dispatch: self.dispatch.clone(),
            stager: stager.clone(),
            workdir: self.workdir_base.join(task_name),
        };
        let body_prepared = prepared.clone();
        task.submit(
            &self.dfk,
            self.run_tag.as_ref(),
            task_name,
            Some(&prepared.workflow.steps[idx].id),
            args,
            move |run, vals| {
                let prepared = &body_prepared;
                let step = &prepared.workflow.steps[idx];
                let engine = prepared.engine.as_ref();
                let mut inputs = Map::with_capacity(slots.len());
                for (input, slot) in step.inputs.iter().zip(&slots) {
                    let value = match slot {
                        Slot::Ready(v) => v.clone(),
                        Slot::Pending(srcs) => {
                            let sources =
                                srcs.iter()
                                    .map(|src| src.value(vals))
                                    .collect::<Result<Vec<_>, _>>()?;
                            step::gather_input(step, input, &sources)?
                        }
                    };
                    inputs.insert_shared(input.id.clone(), value);
                }
                let inputs = step::apply_value_from(step, engine, inputs)?;
                if !step::should_run(step, engine, &inputs)? {
                    return Ok(step::skipped_outputs(step));
                }
                let outputs = run(&inputs).map_err(|e| format!("step {:?}: {e}", step.id))?;
                for out_id in &step.out {
                    step::declared_output(step, &outputs, out_id)?;
                }
                Ok(outputs)
            },
        )
    }
}

/// Every entry of `map` as a literal node sharing the map's cell.
fn literals(map: &Map) -> impl Iterator<Item = (String, Node)> + '_ {
    map.keys()
        .filter_map(|k| Some((k.to_string(), Node::Lit(map.get_shared(k)?.clone()))))
}

/// A scattered step's gathered output, one node per instance. Instances
/// that are all known (skipped by `when`, or nested workflows forwarding
/// literal inputs) gather into a known array, so a downstream step may
/// scatter over it.
fn gathered(instances: Vec<Node>) -> Node {
    let known = instances.iter().map(|node| match node {
        Node::Lit(v) => Some(Value::clone(v)),
        _ => None,
    });
    match known.collect() {
        Some(items) => Node::Lit(Arc::new(Value::Seq(items))),
        None => Node::Seq(instances),
    }
}

/// Turn a node into what a task body reads, adding the futures it holds to
/// the task's dependencies.
fn wire(node: &Node, args: &mut Vec<AppArg>) -> Src {
    match node {
        Node::Lit(v) => Src::Lit(v.clone()),
        Node::Fut { fut, key } => {
            args.push(AppArg::future(fut));
            Src::Arg {
                arg: args.len() - 1,
                key: key.clone(),
            }
        }
        Node::Seq(items) => Src::Seq(items.iter().map(|n| wire(n, args)).collect()),
    }
}

/// One named output of an upstream task's output object.
fn extract(outputs: &Value, key: &str) -> Result<Value, String> {
    outputs
        .get(key)
        .cloned()
        .ok_or_else(|| format!("upstream task did not produce output {key:?}"))
}

impl Src {
    /// The value, given the task's dependency values.
    fn value(&self, vals: &[Value]) -> Result<Arc<Value>, String> {
        Ok(match self {
            Src::Lit(v) => v.clone(),
            Src::Arg { arg, key } => Arc::new(extract(&vals[*arg], key)?),
            Src::Seq(items) => {
                let seq = items
                    .iter()
                    .map(|item| item.value(vals).map(Arc::unwrap_or_clone))
                    .collect::<Result<_, _>>()?;
                Arc::new(Value::Seq(seq))
            }
        })
    }
}

/// Wait for a node's futures and produce its final value.
fn materialize(node: &Node) -> Result<Arc<Value>, String> {
    Ok(match node {
        Node::Lit(v) => v.clone(),
        Node::Fut { fut, key } => {
            let outputs = fut.result().map_err(|e| e.to_string())?;
            Arc::new(extract(&outputs, key)?)
        }
        Node::Seq(items) => {
            let seq = items
                .iter()
                .map(|item| materialize(item).map(Arc::unwrap_or_clone))
                .collect::<Result<_, _>>()?;
            Arc::new(Value::Seq(seq))
        }
    })
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
