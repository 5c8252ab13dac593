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
use cwl::loader::CwlDocument;
use cwl::{CommandLineTool, DocSet, Severity};
use cwlexec::step::{self, PreparedWorkflow, StepTarget};
use cwlexec::{engine_for, execute_tool_staged, StageCtx, ToolDispatch};
use datastore::Stager;
use expr::ExpressionEngine;
use obs::{Observability, SpanKind};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use yamlite::{Map, Value};

/// The generic executor. See [`crate::RefRunner`] / [`crate::ToilRunner`]
/// for the configured baselines.
pub(crate) struct WorkflowExecutor {
    /// Cost/scheduling profile.
    pub(crate) profile: ExecProfile,
    dispatch: Arc<dyn ToolDispatch>,
    tasks: AtomicUsize,
    /// Per-run observability; `None` falls back to the process-global
    /// instance (disabled unless a run enables it).
    obs: Option<Arc<Observability>>,
}

impl WorkflowExecutor {
    /// Build an executor.
    pub(crate) fn new(profile: ExecProfile, dispatch: Arc<dyn ToolDispatch>) -> Self {
        Self {
            profile,
            dispatch,
            tasks: AtomicUsize::new(0),
            obs: None,
        }
    }

    /// Attach a per-run observability instance (traces + lineage for this
    /// executor's runs land there instead of the process-global one).
    pub(crate) fn with_observability(mut self, obs: Arc<Observability>) -> Self {
        self.obs = Some(obs);
        self
    }

    fn obs(&self) -> &Observability {
        self.obs.as_deref().unwrap_or_else(|| obs::global())
    }

    /// Execute the root document of `docs` with `provided` inputs, placing
    /// all working files under `workdir`. Works for both CommandLineTools
    /// and Workflows (including scatter and subworkflows); every file the
    /// run needs comes from `docs`.
    pub(crate) fn run_docs(
        &self,
        docs: &DocSet,
        provided: &Map,
        workdir: impl AsRef<Path>,
    ) -> Result<RunReport, String> {
        let workdir = workdir.as_ref();
        let file = docs.root();
        let doc = file.document()?;
        std::fs::create_dir_all(workdir)
            .map_err(|e| format!("cannot create workdir {}: {e}", workdir.display()))?;
        // Every run stages under its own `run-*` subdirectory: two runs
        // sharing a workdir (concurrent invocations, or a rerun after a
        // crash) must never clobber each other's staged files.
        let run_dir = unique_run_dir(workdir)?;

        // Pre-run gate: refuse to start a run the static analyzer can
        // already prove broken (type-mismatched links, bad expressions).
        if self.profile.precheck {
            cwl::analyze::gate(docs, &Default::default(), self.profile.precheck_strict)
                .map_err(|report| report.refusal())?;
        }

        // The run's data plane: a content store under the run directory
        // (or a shared one, if config pins `staging.dir`).
        let stager = self.profile.staging.build(&run_dir)?;

        self.tasks.store(0, Ordering::SeqCst);
        let start = Instant::now();
        // Root span for the whole run; every leaf task hangs off it. An
        // early-error `?` drops the span unfinished, which never records.
        let wf_label = file
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| self.profile.name.clone());
        let wf_span = self
            .obs()
            .start_span(SpanKind::WorkflowRun, 0, 0, &wf_label);
        let root = wf_span.id();
        let outputs = match doc {
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
                    file.text(),
                    provided,
                    &run_dir,
                    &label,
                    None,
                    root,
                    &stager,
                )?
            }
            CwlDocument::Workflow(_) => {
                let prepared = step::prepare_workflow(docs, &self.profile.js_cost)?;
                self.run_workflow(&prepared, provided, &run_dir, root, &stager)?
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

        // cwltool-style per-job document reprocessing (real work): re-parse
        // the tool and apply the analyzer to it.
        if self.profile.revalidate_per_task {
            if let Some(raw) = raw {
                let doc = yamlite::parse_str(raw).map_err(|e| format!("revalidation: {e}"))?;
                let report = cwl::analyze_value(&doc);
                if let Some(error) = report.diags.iter().find(|d| d.severity == Severity::Error) {
                    return Err(format!("revalidation failed: {error}"));
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
    /// What each step instance is given and leaves behind is
    /// [`cwlexec::step`]'s; this decides when and on which thread.
    fn run_workflow(
        &self,
        prepared: &PreparedWorkflow,
        provided: &Map,
        workdir: &Path,
        parent: u64,
        stager: &Arc<Stager>,
    ) -> Result<Map, String> {
        let wf = &prepared.workflow;
        let engine = prepared.engine.as_ref();
        let resolved = step::resolve_workflow_inputs(wf, provided)?;
        // Workflow inputs by id, then step outputs by `step/out` key.
        let mut values: HashMap<String, Arc<Value>> = wf
            .inputs
            .iter()
            .filter_map(|i| Some((i.id.clone(), resolved.get_shared(&i.id)?.clone())))
            .collect();
        let mut done: HashSet<usize> = HashSet::new();

        while done.len() < wf.steps.len() {
            let ready: Vec<usize> = (0..wf.steps.len())
                .filter(|i| !done.contains(i))
                .filter(|&i| {
                    wf.steps[i].upstream_steps().iter().all(|up| {
                        wf.steps
                            .iter()
                            .position(|s| &s.id == up)
                            .is_some_and(|j| done.contains(&j))
                    })
                })
                .collect();
            if ready.is_empty() {
                return Err("workflow scheduling deadlock (cycle?)".to_string());
            }

            // Expand every ready step into leaf jobs. `valueFrom` is
            // evaluated here, on the scheduling thread, one job after
            // another — where cwltool and Toil build their job objects.
            struct Job {
                step_idx: usize,
                scatter_idx: Option<usize>,
                inputs: Map,
            }
            let mut jobs: Vec<Job> = Vec::new();
            // Per scattered step, its instances' outputs in instance order
            // (present even when the step scatters over nothing).
            let mut scattered: HashMap<usize, Vec<Map>> = HashMap::new();
            for &i in &ready {
                let step = &wf.steps[i];
                let base = step::gather_inputs(step, |src| values.get(src).cloned())?;
                let instances: Vec<(Option<usize>, Map)> = match step::scatter_width(step, &base)? {
                    None => vec![(None, base)],
                    Some(n) => {
                        scattered.insert(i, Vec::with_capacity(n));
                        (0..n)
                            .map(|k| (Some(k), step::scatter_instance(step, &base, k)))
                            .collect()
                    }
                };
                for (scatter_idx, instance) in instances {
                    jobs.push(Job {
                        step_idx: i,
                        scatter_idx,
                        inputs: step::apply_value_from(step, engine, instance)?,
                    });
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

            // Run this wave's jobs on the bounded pool; `when` is decided
            // on the worker, next to the job it gates.
            let closures: Vec<_> = jobs
                .iter()
                .map(|job| {
                    let step = &wf.steps[job.step_idx];
                    let target = &prepared.targets[job.step_idx];
                    // Scatter instances keep the index in the label (and
                    // the job directory) but share the bare step id in
                    // the lineage record.
                    let label = match job.scatter_idx {
                        None => step.id.clone(),
                        Some(k) => format!("{}_{k}", step.id),
                    };
                    let job_dir = workdir.join(&label);
                    let inputs = &job.inputs;
                    move || -> Result<Map, String> {
                        if !step::should_run(step, engine, inputs)? {
                            return Ok(step::skipped_outputs(step));
                        }
                        match target {
                            StepTarget::Tool { tool, engine, raw } => self.run_tool_task(
                                tool,
                                engine.as_ref(),
                                raw.as_deref(),
                                inputs,
                                &job_dir,
                                &label,
                                Some(&step.id),
                                parent,
                                stager,
                            ),
                            StepTarget::Workflow(sub) => {
                                self.run_workflow(sub, inputs, &job_dir, parent, stager)
                            }
                        }
                        .map_err(|e| format!("step {:?}: {e}", step.id))
                    }
                })
                .collect();
            let results = run_parallel(closures, self.profile.slots);

            // Publish results for downstream steps.
            for (job, result) in jobs.iter().zip(results) {
                let outputs = result?;
                match scattered.get_mut(&job.step_idx) {
                    None => step::record_outputs(&wf.steps[job.step_idx], &outputs, &mut values)?,
                    Some(instances) => instances.push(outputs),
                }
            }
            for (step_idx, instances) in scattered {
                step::gather_outputs(&wf.steps[step_idx], &instances, &mut values)?;
            }
            done.extend(ready);
        }

        // Wire workflow outputs.
        let mut outputs = Map::with_capacity(wf.outputs.len());
        for out in &wf.outputs {
            let value = values.get(&out.output_source).ok_or_else(|| {
                format!("outputSource {:?} was never produced", out.output_source)
            })?;
            outputs.insert_shared(out.id.clone(), Arc::clone(value));
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
