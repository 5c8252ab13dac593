//! The typed dataflow checker: resolves every step link against declared
//! CWL types, including scatter array wrapping/unwrapping, `when` optional
//! wrapping, `linkMerge` shapes, and graph-level checks (cycles, dead
//! steps, unused outputs).

use super::{codes, entry_path, join, step_value, Sink};
use crate::docs::DocSet;
use crate::loader::CwlDocument;
use crate::requirements::Requirements;
use crate::tool::CommandLineTool;
use crate::types::CwlType;
use crate::workflow::{RunRef, Workflow};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use yamlite::Value;

/// How a source type fits a sink type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fit {
    /// Assignable.
    Ok,
    /// Assignable only when the optional source is non-null at runtime.
    Warn,
    /// Not assignable.
    No,
}

/// Static assignability of a `source` value to a `sink` parameter.
///
/// Beyond exact equality: `stdout`/`stderr` sources are files, numeric
/// types widen (`int` → `long`/`float`/`double`), strings are accepted
/// where files are expected (path strings), arrays are covariant, `Any`
/// fits both ways, and an optional source feeding a required sink is a
/// warning rather than an error (null only surfaces at runtime).
pub(crate) fn fit(source: &CwlType, sink: &CwlType) -> Fit {
    use CwlType::*;
    // Output-only shorthands produce files on disk.
    let source = match source {
        Stdout | Stderr => &File,
        s => s,
    };
    match (source, sink) {
        (_, Any) | (Any, _) => Fit::Ok,
        (a, b) if a == b => Fit::Ok,
        (Null, Optional(_)) => Fit::Ok,
        (Optional(s), Optional(t)) => fit(s, t),
        (s, Optional(t)) => fit(s, t),
        (Optional(s), t) => match fit(s, t) {
            Fit::No => Fit::No,
            _ => Fit::Warn,
        },
        (Array(s), Array(t)) => fit(s, t),
        (Int, Long | Float | Double) => Fit::Ok,
        (Long | Float, Double) => Fit::Ok,
        (Str, File | Directory) => Fit::Ok,
        _ => Fit::No,
    }
}

/// Common supertype of a set of gathered source types (`Any` when mixed).
fn unify(types: &[CwlType]) -> CwlType {
    match types.split_first() {
        None => CwlType::Any,
        Some((first, rest)) if rest.iter().all(|t| t == first) => first.clone(),
        _ => CwlType::Any,
    }
}

/// The IO signature of a step's run target.
pub(crate) struct RunIo {
    /// `(id, type, has_default)` per declared input.
    pub(crate) inputs: Vec<(String, CwlType, bool)>,
    pub(crate) outputs: Vec<(String, CwlType)>,
    pub(crate) is_workflow: bool,
}

fn run_io(doc: &CwlDocument) -> RunIo {
    match doc {
        CwlDocument::Tool(t) => RunIo {
            inputs: t
                .inputs
                .iter()
                .map(|p| (p.id.clone(), p.typ.clone(), p.default.is_some()))
                .collect(),
            outputs: t
                .outputs
                .iter()
                .map(|p| (p.id.clone(), p.typ.clone()))
                .collect(),
            is_workflow: false,
        },
        CwlDocument::Workflow(w) => RunIo {
            inputs: w
                .inputs
                .iter()
                .map(|p| (p.id.clone(), p.typ.clone(), p.default.is_some()))
                .collect(),
            outputs: w
                .outputs
                .iter()
                .map(|p| (p.id.clone(), p.typ.clone()))
                .collect(),
            is_workflow: true,
        },
    }
}

fn req_warnings(reqs: &Requirements, out: &mut Sink) {
    for ignored in &reqs.ignored {
        out.warning(
            codes::IGNORED_REQ,
            "requirements",
            format!("{ignored} is recognized but ignored by this runner"),
        );
    }
    for unknown in &reqs.unknown {
        out.warning(
            codes::UNKNOWN_REQ,
            "requirements",
            format!("unknown requirement {unknown}"),
        );
    }
}

/// Structural checks on a `CommandLineTool`.
pub(crate) fn check_tool(tool: &CommandLineTool, doc: &Value, out: &mut Sink) {
    if tool.base_command.is_empty() && tool.arguments.is_empty() {
        out.error(
            codes::NO_COMMAND,
            "baseCommand",
            "tool has neither baseCommand nor arguments",
        );
    }
    let mut seen = HashSet::new();
    for p in &tool.inputs {
        let ppath = entry_path(doc, "", "inputs", &p.id);
        if !seen.insert(p.id.as_str()) {
            out.error(
                codes::DUPLICATE_ID,
                ppath.clone(),
                format!("duplicate input id {:?}", p.id),
            );
        }
        if p.validate.is_some() && !tool.requirements.inline_python {
            out.error(
                codes::VALIDATE_NEEDS_PY,
                join(&ppath, "validate"),
                "validate: requires InlinePythonRequirement",
            );
        }
    }
    let mut seen_out = HashSet::new();
    for p in &tool.outputs {
        if !seen_out.insert(p.id.as_str()) {
            out.error(
                codes::DUPLICATE_ID,
                entry_path(doc, "", "outputs", &p.id),
                format!("duplicate output id {:?}", p.id),
            );
        }
    }
    req_warnings(&tool.requirements, out);
}

/// Full dataflow analysis of a `Workflow`.
pub(crate) fn check_workflow(
    wf: &Workflow,
    doc: &Value,
    docs: &DocSet,
    base_dir: Option<&Path>,
    out: &mut Sink,
) {
    req_warnings(&wf.requirements, out);

    // Resolve each step's run target to its IO signature. `None` means the
    // target could not be loaded (diagnosed) or there is no file context to
    // resolve a path reference against (type checks degrade gracefully).
    let mut ios: HashMap<&str, Option<RunIo>> = HashMap::new();
    for step in &wf.steps {
        let spath = entry_path(doc, "", "steps", &step.id);
        let io = match docs.resolve(&step.run, base_dir) {
            None => None,
            Some(Ok(target)) => Some(run_io(&target.doc)),
            Some(Err(e)) => {
                let message = match &step.run {
                    RunRef::Inline(_) => format!("cannot load inline run document: {e}"),
                    RunRef::Path(_) => e,
                };
                out.error(codes::RUN_UNLOADABLE, join(&spath, "run"), message);
                None
            }
        };
        if matches!(
            &io,
            Some(RunIo {
                is_workflow: true,
                ..
            })
        ) && !wf.requirements.subworkflow
        {
            out.error(
                codes::SUBWORKFLOW_NEEDS_REQ,
                join(&spath, "run"),
                format!(
                    "step {:?} runs a nested workflow; SubworkflowFeatureRequirement is required",
                    step.id
                ),
            );
        }
        ios.insert(step.id.as_str(), io);
    }

    let input_types: HashMap<&str, &CwlType> =
        wf.inputs.iter().map(|i| (i.id.as_str(), &i.typ)).collect();

    // Type of a link source. `Err(())` = names nothing (E010); `Ok(None)` =
    // valid reference whose type is unknown (unresolved run target).
    let source_type = |src: &str| -> Result<Option<CwlType>, ()> {
        match src.split_once('/') {
            None => match input_types.get(src) {
                Some(t) => Ok(Some((*t).clone())),
                None => Err(()),
            },
            Some((sid, out_id)) => {
                let Some(step) = wf.step(sid) else {
                    return Err(());
                };
                if !step.out.iter().any(|o| o == out_id) {
                    return Err(());
                }
                match ios.get(sid) {
                    Some(Some(io)) => {
                        let Some((_, t)) = io.outputs.iter().find(|(o, _)| o == out_id) else {
                            return Ok(None); // E018 reported on the producing step
                        };
                        let mut t = match t {
                            CwlType::Stdout | CwlType::Stderr => CwlType::File,
                            other => other.clone(),
                        };
                        // `when` makes each instance's outputs nullable;
                        // scatter then wraps them into an array.
                        if step.when.is_some() {
                            t = CwlType::Optional(Box::new(t));
                        }
                        if !step.scatter.is_empty() {
                            t = CwlType::Array(Box::new(t));
                        }
                        Ok(Some(t))
                    }
                    _ => Ok(None),
                }
            }
        }
    };

    for step in &wf.steps {
        let spath = entry_path(doc, "", "steps", &step.id);
        let sval = step_value(doc, &step.id).cloned().unwrap_or(Value::Null);
        let io = ios.get(step.id.as_str()).and_then(|o| o.as_ref());

        if step.when.is_some() && !matches!(wf.cwl_version.as_str(), "v1.2" | "") {
            out.error(
                codes::WHEN_NEEDS_V12,
                join(&spath, "when"),
                format!(
                    "conditional execution requires cwlVersion v1.2 (found {:?})",
                    wf.cwl_version
                ),
            );
        }

        if let Some(io) = io {
            for o in &step.out {
                if !io.outputs.iter().any(|(id, _)| id == o) {
                    out.error(
                        codes::BAD_STEP_OUT,
                        join(&spath, "out"),
                        format!("run target declares no output {o:?}"),
                    );
                }
            }
            for input in &step.inputs {
                if !io.inputs.iter().any(|(id, _, _)| id == &input.id) {
                    out.error(
                        codes::UNKNOWN_STEP_INPUT,
                        entry_path(&sval, &spath, "in", &input.id),
                        format!("run target has no input {:?}", input.id),
                    );
                }
            }
            for (id, typ, has_default) in &io.inputs {
                if !has_default && !typ.allows_null() && !step.inputs.iter().any(|i| &i.id == id) {
                    out.error(
                        codes::UNWIRED_INPUT,
                        join(&spath, "in"),
                        format!("required input {id:?} of the run target is not wired"),
                    );
                }
            }
        }

        if !step.scatter.is_empty() && !wf.requirements.scatter {
            out.error(
                codes::SCATTER_NEEDS_REQ,
                join(&spath, "scatter"),
                "scatter requires ScatterFeatureRequirement",
            );
        }
        for target in &step.scatter {
            if !step.inputs.iter().any(|i| &i.id == target) {
                out.error(
                    codes::SCATTER_NOT_INPUT,
                    join(&spath, "scatter"),
                    format!("scatter target {target:?} is not a step input"),
                );
            }
        }

        for input in &step.inputs {
            let ipath = entry_path(&sval, &spath, "in", &input.id);
            if input.sources.is_empty() && input.default.is_none() && input.value_from.is_none() {
                out.error(
                    codes::DANGLING_STEP_INPUT,
                    ipath.clone(),
                    "step input has no source, default, or valueFrom",
                );
            }
            if input.value_from.is_some() && !wf.requirements.step_input_expression {
                out.error(
                    codes::VALUE_FROM_NEEDS_REQ,
                    join(&ipath, "valueFrom"),
                    "valueFrom requires StepInputExpressionRequirement",
                );
            }
            if let Some(lm) = &input.link_merge {
                if !matches!(lm.as_str(), "merge_nested" | "merge_flattened") {
                    out.error(
                        codes::LINK_MERGE,
                        join(&ipath, "linkMerge"),
                        format!("unknown linkMerge method {lm:?}"),
                    );
                    continue;
                }
                if !input.is_multi_source() {
                    out.error(
                        codes::LINK_MERGE,
                        join(&ipath, "linkMerge"),
                        "linkMerge requires a list of sources",
                    );
                }
            }

            let mut types = Vec::new();
            let mut unknown = false;
            for src in &input.sources {
                match source_type(src) {
                    Err(()) => {
                        out.error(
                            codes::UNKNOWN_SOURCE,
                            ipath.clone(),
                            format!("source {src:?} does not name a workflow input or step output"),
                        );
                        unknown = true;
                    }
                    Ok(t) => types.push(t),
                }
            }
            if unknown {
                continue;
            }

            // Effective type arriving at this sink.
            let eff: Option<CwlType> = if input.is_multi_source() {
                if types.iter().any(Option::is_none) {
                    None
                } else {
                    let ts: Vec<CwlType> = types.into_iter().flatten().collect();
                    match input.link_merge.as_deref().unwrap_or("merge_nested") {
                        "merge_flattened" => {
                            let items: Vec<CwlType> = ts
                                .iter()
                                .map(|t| match t {
                                    CwlType::Array(i) => (**i).clone(),
                                    other => other.clone(),
                                })
                                .collect();
                            Some(CwlType::Array(Box::new(unify(&items))))
                        }
                        _ => Some(CwlType::Array(Box::new(unify(&ts)))),
                    }
                }
            } else {
                types.into_iter().next().flatten()
            };
            let Some(mut src_t) = eff else { continue };

            // A scattered input consumes one element of its array source.
            if step.scatter.contains(&input.id) {
                match src_t {
                    CwlType::Array(item) => src_t = *item,
                    CwlType::Any => {}
                    other => {
                        out.error(
                            codes::SCATTER_NOT_ARRAY,
                            join(&spath, "scatter"),
                            format!(
                                "scatter source for {:?} has non-array type {other}",
                                input.id
                            ),
                        );
                        continue;
                    }
                }
            }

            // `valueFrom` transforms the value — its result type is dynamic.
            if input.value_from.is_some() {
                continue;
            }
            let Some(io) = io else { continue };
            let Some((_, sink_t, _)) = io.inputs.iter().find(|(id, _, _)| id == &input.id) else {
                continue;
            };
            // A null source value is replaced by the step input's `default`,
            // so with one the sink never sees the null.
            if input.default.as_ref().is_some_and(|d| !d.is_null()) {
                if let CwlType::Optional(inner) = src_t {
                    src_t = *inner;
                }
            }
            match fit(&src_t, sink_t) {
                Fit::Ok => {}
                Fit::Warn => out.warning(
                    codes::OPTIONAL_COERCION,
                    ipath,
                    format!(
                        "optional source type {src_t} feeds required sink type {sink_t}; \
                         a null value will fail at runtime"
                    ),
                ),
                Fit::No => out.error(
                    codes::LINK_TYPE,
                    ipath,
                    format!("source type {src_t} is not assignable to sink type {sink_t}"),
                ),
            }
        }
    }

    for o in &wf.outputs {
        let opath = entry_path(doc, "", "outputs", &o.id);
        match source_type(&o.output_source) {
            Err(()) => out.error(
                codes::UNKNOWN_SOURCE,
                join(&opath, "outputSource"),
                format!(
                    "outputSource {:?} does not name a workflow input or step output",
                    o.output_source
                ),
            ),
            Ok(None) => {}
            Ok(Some(t)) => match fit(&t, &o.typ) {
                Fit::Ok => {}
                Fit::Warn => out.warning(
                    codes::OPTIONAL_COERCION,
                    opath,
                    format!(
                        "optional source type {t} feeds required output type {}; \
                         a null value will fail at runtime",
                        o.typ
                    ),
                ),
                Fit::No => out.error(
                    codes::OUTPUT_TYPE,
                    opath,
                    format!(
                        "outputSource type {t} is not assignable to declared type {}",
                        o.typ
                    ),
                ),
            },
        }
    }

    if let Err(e) = wf.topo_order() {
        // Unknown-step references are already E010; only surface cycles.
        if e.contains("cycle") {
            out.error(codes::CYCLE, "steps", e);
        }
    }

    // W102: step outputs nothing ever consumes.
    let mut consumed: HashSet<(&str, &str)> = HashSet::new();
    for step in &wf.steps {
        for input in &step.inputs {
            for src in &input.sources {
                if let Some((sid, o)) = src.split_once('/') {
                    consumed.insert((sid, o));
                }
            }
        }
    }
    for o in &wf.outputs {
        if let Some((sid, oid)) = o.output_source.split_once('/') {
            consumed.insert((sid, oid));
        }
    }
    for step in &wf.steps {
        for o in &step.out {
            if !consumed.contains(&(step.id.as_str(), o.as_str())) {
                out.warning(
                    codes::UNUSED_OUTPUT,
                    join(&entry_path(doc, "", "steps", &step.id), "out"),
                    format!("step output \"{}/{o}\" is never consumed", step.id),
                );
            }
        }
    }

    // W101: steps from which no workflow output is reachable. Steps with no
    // declared outputs are side-effect sinks and stay unflagged.
    if !wf.outputs.is_empty() {
        let mut live: HashSet<&str> = wf
            .outputs
            .iter()
            .filter_map(|o| o.output_source.split_once('/').map(|(s, _)| s))
            .collect();
        loop {
            let mut changed = false;
            for step in &wf.steps {
                if live.contains(step.id.as_str()) {
                    for up in step.upstream_steps() {
                        changed |= live.insert(up);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for step in &wf.steps {
            if !live.contains(step.id.as_str()) && !step.out.is_empty() {
                out.warning(
                    codes::DEAD_STEP,
                    entry_path(doc, "", "steps", &step.id),
                    format!("step {:?} contributes to no workflow output", step.id),
                );
            }
        }
    }
}
