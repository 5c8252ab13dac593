//! Feasibility analysis: `ResourceRequirement` propagation through nested
//! workflows × scatter width, checked against the configured executor
//! capacity, plus a critical-path lower bound on the makespan.
//!
//! Two kinds of findings:
//!
//! * **E032 (unschedulable)** — a task whose declared resources can never
//!   be placed: `coresMin > coresMax` (self-contradictory, no capacity
//!   needed), or `coresMin`/`ramMin` exceeding what any single node of the
//!   configured executor offers;
//! * **W111 (near capacity)** — a task demanding ≥ 75% of a node: it
//!   schedules, but nothing else co-schedules with it, so the effective
//!   parallelism collapses.
//!
//! The [`PlanSummary`] (printed by `cwl-check --plan`) reports task
//! counts, the critical-path length, and the resulting makespan lower
//! bound `max(critical path, ceil(work / slots))` in task units — the
//! classic greedy-scheduling bound (work law / span law).

use super::{codes, entry_path, join, Sink};
use crate::docs::DocSet;
use crate::loader::CwlDocument;
use crate::requirements::ResourceRequirement;
use crate::tool::CommandLineTool;
use crate::workflow::{Step, Workflow};
use std::collections::HashMap;
use std::path::Path;
use yamlite::Value;

/// Static capacity of a configured executor, as the feasibility pass sees
/// it. Built from a loaded `parsl::Config` by
/// `cwl_parsl::lint::executor_capacity`, for the pre-run gate and
/// `cwl-check --config` alike.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorCapacity {
    /// Human label for messages (`"htex (3 nodes × 4 workers)"`).
    pub label: String,
    /// Total concurrent task slots across the executor.
    pub slots: usize,
    /// Cores a single node offers, when known.
    pub cores_per_node: Option<i64>,
    /// RAM (MiB) a single node offers, when known.
    pub ram_per_node_mb: Option<i64>,
}

/// Check one resource declaration. `where_` anchors the diagnostic; `who`
/// names the task in messages.
fn check_resources(
    res: &ResourceRequirement,
    capacity: Option<&ExecutorCapacity>,
    who: &str,
    where_: &str,
    out: &mut Sink,
) {
    if let (Some(min), Some(max)) = (res.cores_min, res.cores_max) {
        if min > max {
            out.error(
                codes::UNSCHEDULABLE,
                where_,
                format!("{who}: coresMin {min} exceeds coresMax {max}; no schedule satisfies it"),
            );
            return;
        }
    }
    if let (Some(min), Some(max)) = (res.ram_min, res.ram_max) {
        if min > max {
            out.error(
                codes::UNSCHEDULABLE,
                where_,
                format!("{who}: ramMin {min} exceeds ramMax {max}; no schedule satisfies it"),
            );
            return;
        }
    }
    let Some(cap) = capacity else { return };
    let mut blocked = false;
    if let (Some(min), Some(node)) = (res.cores_min, cap.cores_per_node) {
        if min > node {
            blocked = true;
            out.error(
                codes::UNSCHEDULABLE,
                where_,
                format!(
                    "{who}: coresMin {min} exceeds the {node} cores a node of \
                     {} offers; statically unschedulable",
                    cap.label
                ),
            );
        }
    }
    if let (Some(min), Some(node)) = (res.ram_min, cap.ram_per_node_mb) {
        if min > node {
            blocked = true;
            out.error(
                codes::UNSCHEDULABLE,
                where_,
                format!(
                    "{who}: ramMin {min} MiB exceeds the {node} MiB a node of \
                     {} offers; statically unschedulable",
                    cap.label
                ),
            );
        }
    }
    if blocked {
        return;
    }
    // Near-capacity: ≥ 75% of a node's cores or RAM.
    if let (Some(min), Some(node)) = (res.cores_min, cap.cores_per_node) {
        if min * 4 >= node * 3 {
            out.warning(
                codes::NEAR_CAPACITY,
                where_,
                format!(
                    "{who}: coresMin {min} is >= 75% of a {node}-core node of {}; \
                     nothing co-schedules with it",
                    cap.label
                ),
            );
        }
    }
    if let (Some(min), Some(node)) = (res.ram_min, cap.ram_per_node_mb) {
        if min * 4 >= node * 3 {
            out.warning(
                codes::NEAR_CAPACITY,
                where_,
                format!(
                    "{who}: ramMin {min} MiB is >= 75% of a {node} MiB node of {}; \
                     nothing co-schedules with it",
                    cap.label
                ),
            );
        }
    }
}

/// Feasibility check for a standalone tool document.
pub(crate) fn check_tool(
    tool: &CommandLineTool,
    capacity: Option<&ExecutorCapacity>,
    out: &mut Sink,
) {
    if let Some(res) = &tool.requirements.resources {
        check_resources(res, capacity, "tool", "requirements", out);
    }
}

/// Literal scatter width of a step: the length of a literal array default
/// bound to the scattered input (step default, or the sourced workflow
/// input's default). `None` = statically unknown.
fn scatter_width(wf: &Workflow, step: &Step) -> Option<usize> {
    let target = step.scatter.first()?;
    let si = step.inputs.iter().find(|i| &i.id == target)?;
    if let Some(Value::Seq(items)) = &si.default {
        return Some(items.len());
    }
    let src = si.sources.first()?;
    if src.contains('/') {
        return None; // fed by another step: width unknown statically
    }
    let wi = wf.inputs.iter().find(|i| &i.id == src)?;
    match &wi.default {
        Some(Value::Seq(items)) => Some(items.len()),
        _ => None,
    }
}

/// Per-workflow aggregate the recursion returns: task count and
/// critical-path length, both in task units.
#[derive(Debug, Clone, Copy, Default)]
struct SubPlan {
    tasks: usize,
    critical_path: usize,
    width_unknown: bool,
}

/// Where [`walk_workflow`] reports E032/W111: the document being checked,
/// its sink, and — inside a nested workflow — the outer step that runs it,
/// which every nested finding is anchored on (the nested file has its own
/// spans only when checked itself).
type DiagCtx<'a, 'b, 's> = (&'a Value, &'a mut Sink<'b>, Option<&'s Step>);

/// Walk a workflow, checking each step's effective resources (when `diag`
/// is given) and summing task counts. `base_dir` anchors the workflow's own
/// `run:` paths; a nested file workflow's steps resolve against its
/// directory. `depth` caps nested-workflow recursion (cycles between files
/// would otherwise hang the analyzer).
fn walk_workflow<'s>(
    wf: &'s Workflow,
    docs: &DocSet,
    base_dir: Option<&Path>,
    capacity: Option<&ExecutorCapacity>,
    inherited: Option<&ResourceRequirement>,
    depth: usize,
    mut diag: Option<DiagCtx<'_, '_, 's>>,
) -> SubPlan {
    let outer = wf.requirements.resources.as_ref().or(inherited);
    let mut per_step: HashMap<&str, SubPlan> = HashMap::new();
    for step in &wf.steps {
        let width = if step.scatter.is_empty() {
            Some(1)
        } else {
            scatter_width(wf, step)
        };
        let target = docs.resolve(&step.run, base_dir).and_then(Result::ok);
        let (doc, dir) = match &target {
            Some(t) => (Some(t.doc.as_ref()), t.dir),
            None => (None, None),
        };
        let inner = match doc {
            Some(CwlDocument::Tool(tool)) => {
                let res = tool.requirements.resources.as_ref().or(outer);
                if let (Some(res), Some((doc, out, via))) = (res, diag.as_mut()) {
                    let (who, anchor) = match via {
                        Some(outer_step) => (
                            format!("nested step {:?} (via step {:?})", step.id, outer_step.id),
                            join(&entry_path(doc, "", "steps", &outer_step.id), "run"),
                        ),
                        // Inline tools carry their requirements in this
                        // document, so the span can point straight at
                        // them; path-referenced tools anchor on `run:`.
                        None => {
                            let run = join(&entry_path(doc, "", "steps", &step.id), "run");
                            let anchor = match &step.run {
                                crate::workflow::RunRef::Inline(_) => join(&run, "requirements"),
                                _ => run,
                            };
                            (format!("step {:?}", step.id), anchor)
                        }
                    };
                    check_resources(res, capacity, &who, &anchor, out);
                }
                SubPlan {
                    tasks: 1,
                    critical_path: 1,
                    width_unknown: false,
                }
            }
            Some(CwlDocument::Workflow(sub)) if depth > 0 => {
                let nested = diag
                    .as_mut()
                    .map(|(doc, out, via)| (*doc, &mut **out, Some(via.unwrap_or(step))));
                walk_workflow(sub, docs, dir, capacity, outer, depth - 1, nested)
            }
            _ => SubPlan {
                tasks: 1,
                critical_path: 1,
                width_unknown: false,
            },
        };
        let w = width.unwrap_or(1);
        per_step.insert(
            step.id.as_str(),
            SubPlan {
                tasks: inner.tasks * w.max(1),
                // Shards run in parallel: scatter widens work, not the path.
                critical_path: inner.critical_path,
                width_unknown: width.is_none() || inner.width_unknown,
            },
        );
    }

    // Critical path: longest chain through the step DAG, weighting each
    // step by its inner critical path. topo_order fails only on cycles
    // (E017 already reported); fall back to unordered sum-free estimate.
    let mut longest: HashMap<&str, usize> = HashMap::new();
    let order = wf
        .topo_order()
        .unwrap_or_else(|_| (0..wf.steps.len()).collect());
    let mut cp = 0usize;
    for i in order {
        let step = &wf.steps[i];
        let weight = per_step
            .get(step.id.as_str())
            .map(|p| p.critical_path)
            .unwrap_or(1);
        let from_upstream = step
            .upstream_steps()
            .iter()
            .filter_map(|u| longest.get(u))
            .copied()
            .max()
            .unwrap_or(0);
        let total = from_upstream + weight;
        longest.insert(step.id.as_str(), total);
        cp = cp.max(total);
    }

    SubPlan {
        tasks: per_step.values().map(|p| p.tasks).sum(),
        critical_path: cp,
        width_unknown: per_step.values().any(|p| p.width_unknown),
    }
}

/// Workflow-level feasibility diagnostics (E032 / W111).
pub(crate) fn check_workflow(
    wf: &Workflow,
    doc: &Value,
    docs: &DocSet,
    base_dir: Option<&Path>,
    capacity: Option<&ExecutorCapacity>,
    out: &mut Sink,
) {
    walk_workflow(
        wf,
        docs,
        base_dir,
        capacity,
        None,
        8,
        Some((doc, out, None)),
    );
}

/// The `cwl-check --plan` summary: task counts, critical path, and the
/// makespan lower bound in task units.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// Total task instances (scatter widths × nested tasks).
    pub(crate) tasks: usize,
    /// Longest dependency chain, in task units.
    pub(crate) critical_path: usize,
    /// Executor slots the bound was computed against, when capacity known.
    pub(crate) slots: Option<usize>,
    /// Some scatter width could not be determined statically (counted as
    /// one shard; the real plan is at least this large).
    pub(crate) width_unknown: bool,
}

impl PlanSummary {
    /// Greedy-scheduling lower bound: `max(span, ceil(work / slots))`.
    pub(crate) fn makespan_lower_bound(&self) -> usize {
        let work_bound = match self.slots {
            Some(s) if s > 0 => self.tasks.div_ceil(s),
            _ => 0,
        };
        self.critical_path.max(work_bound)
    }

    /// One-line human rendering (used by `cwl-check --plan`).
    pub fn render(&self) -> String {
        let tasks = if self.width_unknown {
            format!(">= {}", self.tasks)
        } else {
            format!("{}", self.tasks)
        };
        match self.slots {
            Some(s) => format!(
                "plan: {tasks} task(s), critical path {} — makespan >= {} task-unit(s) on {} slot(s)",
                self.critical_path,
                self.makespan_lower_bound(),
                s
            ),
            None => format!(
                "plan: {tasks} task(s), critical path {} — makespan >= {} task-unit(s)",
                self.critical_path,
                self.makespan_lower_bound()
            ),
        }
    }
}

/// Compute the plan summary for a document set's root (tool or workflow).
pub fn plan_docs(
    docs: &DocSet,
    capacity: Option<&ExecutorCapacity>,
) -> Result<PlanSummary, String> {
    let sub = match docs.root().document()? {
        CwlDocument::Tool(_) => SubPlan {
            tasks: 1,
            critical_path: 1,
            width_unknown: false,
        },
        CwlDocument::Workflow(wf) => {
            walk_workflow(wf, docs, docs.root_dir(), capacity, None, 8, None)
        }
    };
    Ok(PlanSummary {
        tasks: sub.tasks,
        critical_path: sub.critical_path,
        slots: capacity.map(|c| c.slots),
        width_unknown: sub.width_unknown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_bound_is_max_of_span_and_work() {
        let p = PlanSummary {
            tasks: 10,
            critical_path: 2,
            slots: Some(4),
            width_unknown: false,
        };
        // work bound: ceil(10/4) = 3 > span 2.
        assert_eq!(p.makespan_lower_bound(), 3);
        let p = PlanSummary {
            tasks: 4,
            critical_path: 4,
            slots: Some(4),
            width_unknown: false,
        };
        assert_eq!(p.makespan_lower_bound(), 4);
        let p = PlanSummary {
            tasks: 7,
            critical_path: 3,
            slots: None,
            width_unknown: false,
        };
        assert_eq!(p.makespan_lower_bound(), 3);
    }
}
