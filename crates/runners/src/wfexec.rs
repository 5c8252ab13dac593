//! The generic workflow executor both baseline runners are built from.
//!
//! Execution model (mirroring `cwltool --parallel`): repeatedly collect the
//! steps whose upstream steps have completed, expand scatter, and run the
//! resulting leaf jobs on a bounded slot pool. Architectural costs (process
//! start-up, job-store I/O, revalidation, submit/poll latency) come from the
//! [`ExecProfile`].

use crate::pool::run_parallel;
use crate::profile::ExecProfile;
use crate::report::RunReport;
use cwl::input::normalize_value;
use cwl::loader::{load_document, resolve_run, CwlDocument};
use cwl::workflow::{RunRef, Step, Workflow};
use cwl::CommandLineTool;
use cwlexec::{engine_for, execute_tool_staged, StageCtx, ToolDispatch};
use datastore::Stager;
use expr::{interpolate, EvalContext, ExpressionEngine};
use obs::{Observability, SpanKind};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use yamlite::{Map, Value};

/// A step's resolved run target, loaded once up front (all runners cache
/// parsed documents; the *revalidation* knob models cwltool's per-job
/// reprocessing separately).
struct ResolvedStep {
    target: StepTarget,
    /// Raw document text, kept for per-task revalidation cost.
    raw: Option<String>,
    /// Directory for resolving the step document's own references.
    base_dir: PathBuf,
}

/// What a resolved step runs.
enum StepTarget {
    Tool {
        tool: Box<CommandLineTool>,
        /// The engine the tool's requirements select, compiled once for
        /// all of the step's jobs.
        engine: Box<dyn ExpressionEngine>,
    },
    Workflow(Box<Workflow>),
}

/// The generic executor. See [`crate::RefRunner`] / [`crate::ToilRunner`]
/// for the configured baselines.
pub struct WorkflowExecutor {
    /// Cost/scheduling profile.
    pub profile: ExecProfile,
    dispatch: Arc<dyn ToolDispatch>,
    tasks: AtomicUsize,
    /// Per-run observability; `None` falls back to the process-global
    /// instance (disabled unless a run enables it).
    obs: Option<Arc<Observability>>,
}

impl WorkflowExecutor {
    /// Build an executor.
    pub fn new(profile: ExecProfile, dispatch: Arc<dyn ToolDispatch>) -> Self {
        Self {
            profile,
            dispatch,
            tasks: AtomicUsize::new(0),
            obs: None,
        }
    }

    /// Attach a per-run observability instance (traces + lineage for this
    /// executor's runs land there instead of the process-global one).
    pub fn with_observability(mut self, obs: Arc<Observability>) -> Self {
        self.obs = Some(obs);
        self
    }

    fn obs(&self) -> &Observability {
        self.obs.as_deref().unwrap_or_else(|| obs::global())
    }

    /// Execute the CWL file at `path` with `provided` inputs, placing all
    /// working files under `workdir`. Works for both CommandLineTools and
    /// Workflows (including scatter and subworkflows).
    pub fn run_file(
        &self,
        path: impl AsRef<Path>,
        provided: &Map,
        workdir: impl AsRef<Path>,
    ) -> Result<RunReport, String> {
        let path = path.as_ref();
        let workdir = workdir.as_ref();
        std::fs::create_dir_all(workdir)
            .map_err(|e| format!("cannot create workdir {}: {e}", workdir.display()))?;
        // Every run stages under its own `run-*` subdirectory: two runs
        // sharing a workdir (concurrent invocations, or a rerun after a
        // crash) must never clobber each other's staged files.
        let run_dir = unique_run_dir(workdir)?;
        let raw = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = load_document(
            &yamlite::parse_str(&raw).map_err(|e| format!("{}: {e}", path.display()))?,
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        let base_dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();

        // Pre-run gate: refuse to start a run the static analyzer can
        // already prove broken (type-mismatched links, bad expressions).
        if self.profile.precheck {
            let report = cwl::analyze::analyze_str(&raw, Some(path));
            if !report.is_clean(self.profile.precheck_strict) {
                return Err(format!(
                    "static analysis found {} error(s), {} warning(s):\n{}",
                    report.error_count(),
                    report.warning_count(),
                    report.render_text().trim_end()
                ));
            }
        }

        // The run's data plane: a content store under the run directory
        // (or a shared one, if config pins `staging.dir`).
        let stager = self.profile.staging.build(&run_dir)?;

        self.tasks.store(0, Ordering::SeqCst);
        let start = Instant::now();
        // Root span for the whole run; every leaf task hangs off it. An
        // early-error `?` drops the span unfinished, which never records.
        let wf_label = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| self.profile.name.clone());
        let wf_span = self
            .obs()
            .start_span(SpanKind::WorkflowRun, 0, 0, &wf_label);
        let root = wf_span.id();
        let outputs = match &doc {
            CwlDocument::Tool(tool) => {
                // Single-tool runs pay the coordinator setup once.
                let bytes = yamlite::to_string_flow(&Value::Map(provided.clone())).len();
                let kib = (bytes as f64 / 1024.0).ceil() as u32;
                gridsim::pay(self.profile.setup_per_task + self.profile.setup_per_kib * kib);
                let label = tool.id.clone().unwrap_or_else(|| "tool".to_string());
                let engine = engine_for(&tool.requirements, self.profile.js_cost.clone())?;
                self.run_tool_task(
                    tool,
                    engine.as_ref(),
                    Some(&raw),
                    provided,
                    &run_dir,
                    &label,
                    None,
                    root,
                    &stager,
                )?
            }
            CwlDocument::Workflow(wf) => {
                self.run_workflow(wf, &base_dir, provided, &run_dir, root, &stager)?
            }
        };
        self.obs().finish_span(wf_span);
        // Fold the run's staging counters into the trace exactly once
        // (stagers are shared across tasks; deltas would race).
        cwlexec::publish_stage_stats(self.obs(), stager.stats());
        Ok(RunReport {
            runner: self.profile.name.clone(),
            outputs,
            tasks: self.tasks.load(Ordering::SeqCst),
            elapsed: start.elapsed(),
            run_dir,
        })
    }

    /// Execute one leaf tool task, paying the profile's per-task costs.
    #[allow(clippy::too_many_arguments)]
    fn run_tool_task(
        &self,
        tool: &CommandLineTool,
        engine: &dyn ExpressionEngine,
        raw: Option<&str>,
        provided: &Map,
        workdir: &Path,
        label: &str,
        step: Option<&str>,
        parent: u64,
        stager: &Arc<Stager>,
    ) -> Result<Map, String> {
        let task_no = self.tasks.fetch_add(1, Ordering::SeqCst);
        // Lineage ids are 1-based (0 means "no task" in span records).
        let lineage = task_no as u64 + 1;
        let obs = self.obs();
        let span = obs.start_span(SpanKind::ToolExec, lineage, parent, label);
        if obs.is_enabled() {
            obs.lineage_submit(lineage, label);
            obs.lineage_dispatch(lineage);
            if let Some(step) = step {
                obs.lineage_bind_step(lineage, step);
            }
        }

        // Per-task interpreter/process start-up.
        gridsim::pay(self.profile.per_task_overhead);

        // cwltool-style per-job document reprocessing (real work).
        if self.profile.revalidate_per_task {
            if let Some(raw) = raw {
                let doc = yamlite::parse_str(raw).map_err(|e| format!("revalidation: {e}"))?;
                let diags = cwl::validate_document(&doc);
                if !cwl::validate::is_valid(&diags) {
                    return Err(format!("revalidation failed: {}", diags[0]));
                }
            }
        }

        // Toil-style job store round trip: persist the job description,
        // pay the batch submit latency.
        let job_file = if let Some(store) = &self.profile.job_store {
            std::fs::create_dir_all(store).map_err(|e| format!("cannot create job store: {e}"))?;
            let job_file = store.join(format!("job-{task_no}.yml"));
            let mut desc = Map::new();
            desc.insert(
                "tool",
                tool.id.clone().unwrap_or_else(|| "anonymous".into()),
            );
            desc.insert("inputs", Value::Map(provided.clone()));
            std::fs::write(&job_file, yamlite::to_string(&Value::Map(desc)))
                .map_err(|e| format!("cannot write job file: {e}"))?;
            gridsim::pay(self.profile.submit_latency);
            Some(job_file)
        } else {
            None
        };

        let stage_ctx = StageCtx {
            stager,
            obs,
            lineage,
            parent: span.id(),
        };
        let result = execute_tool_staged(
            tool,
            provided,
            workdir,
            engine,
            self.dispatch.as_ref(),
            Some(&stage_ctx),
        );

        if let Some(job_file) = job_file {
            // Persist the outcome and pay the leader's poll-discovery delay
            // (half an interval on average).
            let status = if result.is_ok() { "done" } else { "failed" };
            let _ = std::fs::write(job_file.with_extension("status"), format!("{status}\n"));
            gridsim::pay(self.profile.poll_interval / 2);
        }

        if obs.is_enabled() {
            let outcome = if result.is_ok() {
                "completed"
            } else {
                "failed"
            };
            obs.lineage_complete(lineage, outcome);
        }
        obs.finish_span(span);
        result.map(|run| run.outputs)
    }

    /// Execute a workflow: ready-wave scheduling with scatter expansion.
    fn run_workflow(
        &self,
        wf: &Workflow,
        base_dir: &Path,
        provided: &Map,
        workdir: &Path,
        parent: u64,
        stager: &Arc<Stager>,
    ) -> Result<Map, String> {
        // Check structure first (cheap; mirrors runners validating upfront).
        wf.topo_order()?;

        // Resolve workflow inputs.
        let mut wf_inputs = Map::with_capacity(wf.inputs.len());
        for key in provided.keys() {
            if !wf.inputs.iter().any(|i| i.id == key) {
                return Err(format!("unknown workflow input {key:?}"));
            }
        }
        for input in &wf.inputs {
            let raw = provided
                .get(&input.id)
                .cloned()
                .or_else(|| input.default.clone())
                .unwrap_or(Value::Null);
            if raw.is_null() && !input.typ.allows_null() {
                return Err(format!("missing required workflow input {:?}", input.id));
            }
            let v = normalize_value(&raw, &input.typ)
                .map_err(|e| format!("workflow input {:?}: {e}", input.id))?;
            wf_inputs.insert(input.id.clone(), v);
        }

        // Load each step's run target once.
        let mut resolved: Vec<ResolvedStep> = Vec::with_capacity(wf.steps.len());
        for step in &wf.steps {
            let (doc, raw, step_base) = match &step.run {
                RunRef::Path(p) => {
                    let path = if Path::new(p).is_absolute() {
                        PathBuf::from(p)
                    } else {
                        base_dir.join(p)
                    };
                    let raw = std::fs::read_to_string(&path).map_err(|e| {
                        format!("step {:?}: cannot read {}: {e}", step.id, path.display())
                    })?;
                    let doc = load_document(
                        &yamlite::parse_str(&raw)
                            .map_err(|e| format!("step {:?}: {e}", step.id))?,
                    )
                    .map_err(|e| format!("step {:?}: {e}", step.id))?;
                    let dir = path.parent().unwrap_or(base_dir).to_path_buf();
                    (doc, Some(raw), dir)
                }
                inline @ RunRef::Inline(_) => {
                    let doc = resolve_run(inline, base_dir)
                        .map_err(|e| format!("step {:?}: {e}", step.id))?;
                    (doc, None, base_dir.to_path_buf())
                }
            };
            let target = match doc {
                CwlDocument::Tool(tool) => StepTarget::Tool {
                    engine: engine_for(&tool.requirements, self.profile.js_cost.clone())
                        .map_err(|e| format!("step {:?}: {e}", step.id))?,
                    tool: Box::new(tool),
                },
                CwlDocument::Workflow(_) if !wf.requirements.subworkflow => {
                    return Err(format!(
                        "step {:?} runs a nested workflow but \
                         SubworkflowFeatureRequirement is absent",
                        step.id
                    ));
                }
                CwlDocument::Workflow(sub) => StepTarget::Workflow(Box::new(sub)),
            };
            resolved.push(ResolvedStep {
                target,
                raw,
                base_dir: step_base,
            });
        }

        // Expression engine for step-level valueFrom.
        let wf_engine = engine_for(&wf.requirements, self.profile.js_cost.clone())?;

        let mut completed: HashMap<String, Value> = HashMap::new();
        let mut done: HashSet<usize> = HashSet::new();

        while done.len() < wf.steps.len() {
            let ready: Vec<usize> = (0..wf.steps.len())
                .filter(|i| !done.contains(i))
                .filter(|&i| {
                    wf.steps[i].upstream_steps().iter().all(|up| {
                        wf.step(up).is_some()
                            && done.contains(
                                &wf.steps
                                    .iter()
                                    .position(|s| &s.id == up)
                                    .expect("validated"),
                            )
                    })
                })
                .collect();
            if ready.is_empty() {
                return Err("workflow scheduling deadlock (cycle?)".to_string());
            }

            // Expand every ready step into leaf jobs.
            struct Job<'a> {
                step_idx: usize,
                scatter_idx: Option<usize>,
                inputs: Map,
                rstep: &'a ResolvedStep,
                step: &'a Step,
            }
            let mut jobs: Vec<Job> = Vec::new();
            for &i in &ready {
                let step = &wf.steps[i];
                let rstep = &resolved[i];
                let base = self.step_base_inputs(step, &wf_inputs, &completed)?;
                if step.scatter.is_empty() {
                    let inputs = self.apply_value_from(step, base, wf_engine.as_ref())?;
                    jobs.push(Job {
                        step_idx: i,
                        scatter_idx: None,
                        inputs,
                        rstep,
                        step,
                    });
                } else {
                    let n = scatter_len(step, &base)?;
                    for k in 0..n {
                        let mut inst = base.clone();
                        for target in &step.scatter {
                            let arr = inst
                                .get(target)
                                .and_then(Value::as_seq)
                                .expect("scatter_len validated arrays");
                            let element = Arc::new(arr[k].clone());
                            // `_shared`: the array replaced is still
                            // shared with `base`; `insert` would copy it.
                            inst.insert_shared(target.clone(), element);
                        }
                        let inputs = self.apply_value_from(step, inst, wf_engine.as_ref())?;
                        jobs.push(Job {
                            step_idx: i,
                            scatter_idx: Some(k),
                            inputs,
                            rstep,
                            step,
                        });
                    }
                }
            }

            // Coordinator-side job construction: cwltool/Toil build each
            // job object (deep copies of the job order) serially in the
            // main process before any dispatch. Paid here, on the
            // scheduling thread, proportional to each job's input size.
            if !self.profile.setup_per_task.is_zero() || !self.profile.setup_per_kib.is_zero() {
                for job in &jobs {
                    let bytes = yamlite::to_string_flow(&Value::Map(job.inputs.clone())).len();
                    let kib = (bytes as f64 / 1024.0).ceil() as u32;
                    gridsim::pay(self.profile.setup_per_task + self.profile.setup_per_kib * kib);
                }
            }

            // Prestage: hash every distinct input file of this wave on
            // the staging pool before any job runs, so a file scattered
            // across the wave is ingested once, in parallel with its
            // siblings — per-job stage-in then only links.
            self.prestage_wave(jobs.iter().map(|job| &job.inputs), stager);

            // Run this wave's jobs on the bounded pool.
            let closures: Vec<_> = jobs
                .iter()
                .map(|job| {
                    let job_dir = match job.scatter_idx {
                        None => workdir.join(&job.step.id),
                        Some(k) => workdir.join(format!("{}_{k}", job.step.id)),
                    };
                    let inputs = job.inputs.clone();
                    let rstep = job.rstep;
                    let step = job.step;
                    // Scatter instances keep the index in the label but
                    // share the bare step id in the lineage record.
                    let label = match job.scatter_idx {
                        None => step.id.clone(),
                        Some(k) => format!("{}_{k}", step.id),
                    };
                    let wf_engine = &wf_engine;
                    move || -> Result<Map, String> {
                        // CWL v1.2 conditional execution: a falsy `when`
                        // skips the step; its outputs become null.
                        if let Some(when) = &step.when {
                            let ctx = expr::EvalContext::from_inputs(Value::Map(inputs.clone()));
                            let verdict = interpolate(when, wf_engine.as_ref(), &ctx)
                                .map_err(|e| format!("step {:?} when: {e}", step.id))?;
                            if !verdict.truthy() {
                                let mut skipped = Map::with_capacity(step.out.len());
                                for out_id in &step.out {
                                    skipped.insert(out_id.clone(), Value::Null);
                                }
                                return Ok(skipped);
                            }
                        }
                        match &rstep.target {
                            StepTarget::Tool { tool, engine } => self
                                .run_tool_task(
                                    tool,
                                    engine.as_ref(),
                                    rstep.raw.as_deref(),
                                    &inputs,
                                    &job_dir,
                                    &label,
                                    Some(&step.id),
                                    parent,
                                    stager,
                                )
                                .map_err(|e| format!("step {:?}: {e}", step.id)),
                            StepTarget::Workflow(sub) => self
                                .run_workflow(
                                    sub,
                                    &rstep.base_dir,
                                    &inputs,
                                    &job_dir,
                                    parent,
                                    stager,
                                )
                                .map_err(|e| format!("step {:?}: {e}", step.id)),
                        }
                    }
                })
                .collect();
            let results = run_parallel(closures, self.profile.slots);

            // Gather results back into `completed`.
            let mut scatter_acc: HashMap<usize, Vec<Map>> = HashMap::new();
            for (job, result) in jobs.iter().zip(results) {
                let outputs = result?;
                match job.scatter_idx {
                    None => record_outputs(&wf.steps[job.step_idx], outputs, &mut completed)?,
                    Some(_) => scatter_acc.entry(job.step_idx).or_default().push(outputs),
                }
            }
            for (step_idx, parts) in scatter_acc {
                let step = &wf.steps[step_idx];
                for out_id in &step.out {
                    let collected: Result<Vec<Value>, String> = parts
                        .iter()
                        .map(|m| {
                            m.get(out_id).cloned().ok_or_else(|| {
                                format!("step {:?} did not produce output {out_id:?}", step.id)
                            })
                        })
                        .collect();
                    completed.insert(format!("{}/{}", step.id, out_id), Value::Seq(collected?));
                }
            }
            for i in ready {
                done.insert(i);
            }
        }

        // Wire workflow outputs.
        let mut outputs = Map::with_capacity(wf.outputs.len());
        for out in &wf.outputs {
            let value = if out.output_source.contains('/') {
                completed
                    .get(&out.output_source)
                    .cloned()
                    .ok_or_else(|| format!("outputSource {:?} never produced", out.output_source))?
            } else {
                wf_inputs.get(&out.output_source).cloned().ok_or_else(|| {
                    format!("outputSource {:?} is not an input", out.output_source)
                })?
            };
            outputs.insert(out.id.clone(), value);
        }
        Ok(outputs)
    }

    /// Ingest every distinct `class: File` referenced by a wave's job
    /// inputs on the bounded staging pool. Errors are deliberately
    /// swallowed here: a missing file surfaces with full context when the
    /// owning task stages it for real.
    fn prestage_wave<'a>(&self, inputs: impl Iterator<Item = &'a Map>, stager: &Arc<Stager>) {
        let mut seen: HashSet<PathBuf> = HashSet::new();
        for map in inputs {
            for (_, v) in map.iter() {
                collect_file_paths(v, &mut seen);
            }
        }
        if seen.len() < 2 {
            // One file (or none) gains nothing from the pool; the task's
            // own stage-in handles it.
            for path in &seen {
                let _ = stager.store().ingest(path);
            }
            return;
        }
        let store = stager.store();
        let jobs: Vec<_> = seen
            .into_iter()
            .map(|path| {
                let store = Arc::clone(store);
                move || {
                    let _ = store.ingest(&path);
                    Ok::<(), String>(())
                }
            })
            .collect();
        let _ = run_parallel(jobs, self.profile.staging.pool.max(1));
    }

    /// Resolve a step's inputs from sources and defaults (pre-scatter,
    /// pre-valueFrom).
    fn step_base_inputs(
        &self,
        step: &Step,
        wf_inputs: &Map,
        completed: &HashMap<String, Value>,
    ) -> Result<Map, String> {
        let mut out = Map::with_capacity(step.inputs.len());
        for input in &step.inputs {
            let resolve_one = |src: &str| -> Result<Value, String> {
                if src.contains('/') {
                    completed.get(src).cloned().ok_or_else(|| {
                        format!(
                            "step {:?} input {:?}: source {src:?} not ready",
                            step.id, input.id
                        )
                    })
                } else {
                    wf_inputs.get(src).cloned().ok_or_else(|| {
                        format!(
                            "step {:?} input {:?}: unknown workflow input {src:?}",
                            step.id, input.id
                        )
                    })
                }
            };
            let mut value = if input.is_multi_source() {
                // Gather a source list according to linkMerge (default
                // merge_nested: one array element per listed source).
                let gathered: Vec<Value> = input
                    .sources
                    .iter()
                    .map(|s| resolve_one(s))
                    .collect::<Result<_, _>>()?;
                match input.link_merge.as_deref().unwrap_or("merge_nested") {
                    "merge_flattened" => {
                        let mut flat = Vec::new();
                        for v in gathered {
                            match v {
                                Value::Seq(items) => flat.extend(items),
                                other => flat.push(other),
                            }
                        }
                        Value::Seq(flat)
                    }
                    "merge_nested" => Value::Seq(gathered),
                    other => {
                        return Err(format!(
                            "step {:?} input {:?}: unknown linkMerge method {other:?}",
                            step.id, input.id
                        ))
                    }
                }
            } else {
                match &input.source {
                    Some(src) => resolve_one(src)?,
                    None => Value::Null,
                }
            };
            if value.is_null() {
                if let Some(default) = &input.default {
                    value = default.clone();
                }
            }
            out.insert(input.id.clone(), value);
        }
        Ok(out)
    }

    /// Apply `valueFrom` transforms: each sees `inputs` (the full
    /// pre-transform map) and `self` (its own current value).
    fn apply_value_from(
        &self,
        step: &Step,
        base: Map,
        engine: &dyn ExpressionEngine,
    ) -> Result<Map, String> {
        let frozen = Value::Map(base.clone());
        let mut out = base;
        for input in &step.inputs {
            if let Some(vf) = &input.value_from {
                let mut ctx = EvalContext::from_inputs(frozen.clone());
                ctx.self_ = out.get(&input.id).cloned().unwrap_or(Value::Null);
                let v = interpolate(vf, engine, &ctx).map_err(|e| {
                    format!("step {:?} input {:?} valueFrom: {e}", step.id, input.id)
                })?;
                // `_shared`: `frozen` still holds the replaced value.
                out.insert_shared(input.id.clone(), Arc::new(v));
            }
        }
        Ok(out)
    }
}

/// Name of the persisted run counter inside a work dir.
const RUN_SEQ_FILE: &str = ".run-seq";

/// Create a fresh `run-<pid>-<n>` subdirectory of `workdir`. Uniqueness is
/// claimed by `create_dir`'s atomicity, not by the name alone. The counter
/// `n` is *persisted in the work dir* rather than held in a process-global:
/// a long-lived daemon that restarts (possibly with a recycled pid, so
/// `run-<pid>-0` would repeat) continues the sequence instead of reissuing
/// run identities that earlier incarnations already used — even when their
/// directories have since been cleaned up. The pid stays in the name purely
/// for debuggability.
fn unique_run_dir(workdir: &Path) -> Result<PathBuf, String> {
    let pid = std::process::id();
    let seq_path = workdir.join(RUN_SEQ_FILE);
    let mut n: usize = std::fs::read_to_string(&seq_path)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    loop {
        let candidate = workdir.join(format!("run-{pid}-{n}"));
        match std::fs::create_dir(&candidate) {
            Ok(()) => {
                // Persist the next counter via a unique temp file + rename
                // so concurrent allocators never read a torn write. A racer
                // may persist a smaller value last; correctness still rests
                // on `create_dir` arbitration above — the counter only has
                // to keep moving forward across process restarts.
                let tmp = workdir.join(format!("{RUN_SEQ_FILE}.tmp-{pid}-{n}"));
                if std::fs::write(&tmp, format!("{}\n", n + 1)).is_ok() {
                    let _ = std::fs::rename(&tmp, &seq_path);
                }
                return Ok(candidate);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => n += 1,
            Err(e) => {
                return Err(format!(
                    "cannot create run directory {}: {e}",
                    candidate.display()
                ))
            }
        }
    }
}

/// Collect the `path` of every `class: File` object in a value.
fn collect_file_paths(value: &Value, out: &mut HashSet<PathBuf>) {
    match value {
        Value::Map(map) => {
            if map.get("class").and_then(Value::as_str) == Some("File") {
                if let Some(p) = map.get("path").and_then(Value::as_str) {
                    out.insert(PathBuf::from(p));
                }
                return;
            }
            for (_, v) in map.iter() {
                collect_file_paths(v, out);
            }
        }
        Value::Seq(items) => {
            for v in items {
                collect_file_paths(v, out);
            }
        }
        _ => {}
    }
}

/// Validate scatter targets are equal-length arrays; return the length.
fn scatter_len(step: &Step, inputs: &Map) -> Result<usize, String> {
    let mut len: Option<usize> = None;
    for target in &step.scatter {
        let arr = inputs.get(target).and_then(Value::as_seq).ok_or_else(|| {
            format!(
                "step {:?}: scatter target {target:?} is not an array",
                step.id
            )
        })?;
        match len {
            None => len = Some(arr.len()),
            Some(n) if n != arr.len() => {
                return Err(format!(
                    "step {:?}: scatter arrays have different lengths ({n} vs {})",
                    step.id,
                    arr.len()
                ))
            }
            _ => {}
        }
    }
    len.ok_or_else(|| format!("step {:?}: empty scatter", step.id))
}

/// Record a non-scattered step's outputs under `step/out` keys.
fn record_outputs(
    step: &Step,
    outputs: Map,
    completed: &mut HashMap<String, Value>,
) -> Result<(), String> {
    for out_id in &step.out {
        let v = outputs.get(out_id).cloned().ok_or_else(|| {
            format!(
                "step {:?} did not produce declared output {out_id:?}",
                step.id
            )
        })?;
        completed.insert(format!("{}/{}", step.id, out_id), v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression (daemon restart): the run counter must survive the
    /// process. Before the persisted counter, a restarted daemon whose pid
    /// the OS recycled restarted its in-process sequence at zero and
    /// reissued `run-<pid>-0` over an existing work tree — or, worse, after
    /// the old run dir was cleaned up, silently reused a run identity an
    /// earlier incarnation had already published. Simulate exactly that:
    /// allocate, delete the directory (old run cleaned up), allocate again
    /// "after restart" — the second allocation must advance, not reuse.
    #[test]
    fn run_dirs_never_reuse_identities_across_restarts() {
        let workdir = std::env::temp_dir().join(format!("wfexec-runseq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&workdir);
        std::fs::create_dir_all(&workdir).unwrap();
        let pid = std::process::id();

        let first = unique_run_dir(&workdir).unwrap();
        assert_eq!(
            first.file_name().unwrap().to_str().unwrap(),
            format!("run-{pid}-0")
        );
        // The previous incarnation's run dir gets cleaned up; with only an
        // in-process counter a "restarted" allocator would hand out
        // run-<pid>-0 again.
        std::fs::remove_dir_all(&first).unwrap();
        let second = unique_run_dir(&workdir).unwrap();
        assert_eq!(
            second.file_name().unwrap().to_str().unwrap(),
            format!("run-{pid}-1"),
            "persisted counter must advance past cleaned-up runs"
        );
        // A stale leftover directory is still resolved by create_dir
        // arbitration, and the counter skips past it afterwards.
        std::fs::create_dir(workdir.join(format!("run-{pid}-2"))).unwrap();
        let third = unique_run_dir(&workdir).unwrap();
        assert_eq!(
            third.file_name().unwrap().to_str().unwrap(),
            format!("run-{pid}-3")
        );
        std::fs::remove_dir_all(&workdir).unwrap();
    }
}
