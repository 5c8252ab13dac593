//! The full `parsl-cwl` CLI path, shared by the Fig. 1 and Fig. 2 Parsl
//! legs: once as the program runs it (`load_config_file` → `load_inputs` →
//! `run_tool_cli[_resumable]`), and once decomposed into the same calls with
//! a span around each layer for the traced run.

use crate::harness::{Report, SLOTS};
use crate::trace::Recorder;
use cwl_parsl::config::RunnerConfig;
use cwl_parsl::{CkptReport, CwlAppOptions, ParslWorkflowRunner};
use cwlexec::{BuiltinDispatch, ToolDispatch};
use parsl::DataFlowKernel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use yamlite::{Map, Value};

/// Which executor a generated config selects; both give [`SLOTS`] slots.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// HTEX, two nodes of one worker each, local provider.
    Htex,
    /// Thread pool with two workers.
    ThreadPool,
}

/// Config text for one run: executor, `staging: auto`, a workdir, and
/// optionally a periodic checkpoint journal and full-rate monitoring.
pub fn config_yaml(
    executor: Executor,
    workdir: &Path,
    checkpoint: bool,
    monitoring_export: Option<&Path>,
) -> String {
    let mut out = match executor {
        Executor::Htex => format!(
            "executor:\n  kind: htex\n  nodes: {SLOTS}\n  workers_per_node: 1\nprovider:\n  kind: local\n  cores_per_node: 1\n"
        ),
        Executor::ThreadPool => format!("executor:\n  kind: thread-pool\n  workers: {SLOTS}\n"),
    };
    out.push_str("staging:\n  mode: auto\n");
    if checkpoint {
        out.push_str("checkpoint:\n  mode: periodic\n");
    }
    if let Some(path) = monitoring_export {
        out.push_str(&format!(
            "monitoring:\n  enabled: true\n  sample_rate: 1.0\n  export: {}\n",
            path.display()
        ));
    }
    out.push_str(&format!(
        "run:\n  workdir: {}\n  builtin_tools: true\n",
        workdir.display()
    ));
    out
}

/// One CLI invocation: `parsl-cwl <config> <cwl> <inputs> [--resume <dir>]`.
pub struct Job<'a> {
    pub config: &'a Path,
    pub cwl: &'a Path,
    pub inputs: &'a Path,
    pub resume: Option<&'a Path>,
}

/// What a run produced, in the shape verification needs.
pub struct Outcome {
    pub outputs: Map,
    pub tasks: usize,
    pub ckpt: Option<CkptReport>,
    /// Wall from config load to outputs returned, in seconds.
    pub wall_s: f64,
}

/// The path the program itself takes.
pub fn run(job: &Job) -> Result<Outcome, String> {
    let t = Instant::now();
    let config = cwl_parsl::load_config_file(job.config)?;
    let inputs = cwl_parsl::runner::load_inputs(Some(job.inputs), &Map::new())?;
    let out = cwl_parsl::run_tool_cli_resumable(config, job.cwl, &inputs, job.resume)?;
    Ok(Outcome {
        wall_s: t.elapsed().as_secs_f64(),
        outputs: out.outputs,
        tasks: out.tasks,
        ckpt: out.ckpt,
    })
}

/// A `BuiltinDispatch` that records a `cwlexec.tool` span per execution
/// under whichever span is current (the enclosing `core.run`).
pub struct TracedDispatch {
    rec: Arc<Recorder>,
    parent: AtomicU64,
    trace: u64,
    durations_ns: Mutex<Vec<u64>>,
}

impl TracedDispatch {
    pub fn new(rec: Arc<Recorder>, trace: u64) -> Arc<Self> {
        Arc::new(Self {
            rec,
            parent: AtomicU64::new(0),
            trace,
            durations_ns: Mutex::new(Vec::new()),
        })
    }

    /// Tool spans recorded from now on hang under `span`.
    pub fn set_parent(&self, span: u64) {
        self.parent.store(span, Ordering::SeqCst);
    }

    /// Durations of every tool execution so far, in ns.
    pub fn durations_ns(&self) -> Vec<u64> {
        self.durations_ns
            .lock()
            .expect("tool duration lock poisoned by a panicking worker")
            .clone()
    }
}

impl ToolDispatch for TracedDispatch {
    fn run(&self, cmd: &cwl::BuiltCommand, workdir: &Path) -> Result<(), String> {
        let id = self.rec.next_id();
        let start = self.rec.now_ns();
        let out = BuiltinDispatch.run(cmd, workdir);
        let dur = self.rec.now_ns() - start;
        self.rec.record(
            id,
            self.parent.load(Ordering::SeqCst),
            self.trace,
            "cwlexec.tool",
            start,
        );
        self.durations_ns
            .lock()
            .expect("tool duration lock poisoned by a panicking worker")
            .push(dur);
        out
    }

    fn label(&self) -> &'static str {
        "traced-builtin"
    }
}

/// Tool-execution summary of a traced run.
pub struct ToolStats {
    pub count: usize,
    pub busy_s: f64,
    pub p50_us: f64,
}

pub fn tool_stats(durations_ns: &[u64]) -> ToolStats {
    let us: Vec<f64> = durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
    ToolStats {
        count: us.len(),
        busy_s: us.iter().sum::<f64>() / 1e6,
        p50_us: crate::stats::median(&us),
    }
}

/// Per-layer timings of one decomposed run, in seconds unless named.
#[derive(Default)]
pub struct Stages {
    pub config_load_s: f64,
    pub parse_calls: usize,
    pub parse_bytes: u64,
    pub parse_s: f64,
    pub load_s: f64,
    pub validate_s: f64,
    pub docs: usize,
    pub analyze_s: f64,
    pub ckpt_prepare_s: f64,
    pub dfk_start_s: f64,
    pub prestage_s: f64,
    pub prestaged_files: usize,
    pub run_s: f64,
    pub emit_s: f64,
    pub export_s: f64,
    pub shutdown_s: f64,
    pub stage: datastore::StageStats,
    pub journal_bytes: u64,
}

/// A decomposed run: what it produced plus where the time went.
pub struct Traced {
    pub outcome: Outcome,
    pub stages: Stages,
    pub tools: ToolStats,
}

/// Every CWL file a workflow references through `run:`, the workflow first.
fn referenced_docs(cwl_path: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = vec![cwl_path.to_path_buf()];
    let mut i = 0;
    while i < out.len() {
        let path = out[i].clone();
        if let cwl::CwlDocument::Workflow(wf) = cwl::load_file(&path)? {
            let base = path.parent().unwrap_or(Path::new("."));
            for step in &wf.steps {
                if let cwl::workflow::RunRef::Path(p) = &step.run {
                    let p = base.join(p);
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
        }
        i += 1;
    }
    Ok(out)
}

fn file_paths(value: &Value, out: &mut Vec<PathBuf>) {
    match value {
        Value::Map(m) => {
            if m.get("class").and_then(Value::as_str) == Some("File") {
                if let Some(p) = m.get("path").and_then(Value::as_str) {
                    out.push(PathBuf::from(p));
                }
            }
            for (_, v) in m.iter() {
                file_paths(v, out);
            }
        }
        Value::Seq(items) => items.iter().for_each(|v| file_paths(v, out)),
        _ => {}
    }
}

/// The same run as [`run`], decomposed into the public calls the CLI path
/// makes, with a span around each:
/// `core.config_load → yamlite.parse → cwl.load → cwl.validate →
/// cwl.analyze → ckpt.prepare → parsl.dfk_start → datastore.prestage →
/// core.run ⊃ cwlexec.tool×N → yamlite.emit → [obs.export] → parsl.shutdown`.
pub fn run_traced(job: &Job, rec: &Arc<Recorder>, root: u64, trace: u64) -> Result<Traced, String> {
    let mut st = Stages::default();
    let t0 = Instant::now();

    let (config, s) = rec.span("core.config_load", root, trace, |_| {
        cwl_parsl::load_config_file(job.config)
    });
    let mut config: RunnerConfig = config?;
    st.config_load_s = s;

    // yamlite: every CWL document of the workflow plus the inputs file.
    let docs = referenced_docs(job.cwl)?;
    st.docs = docs.len();
    let mut parsed = Vec::new();
    for path in docs.iter().map(PathBuf::as_path).chain([job.inputs]) {
        st.parse_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let (v, s) = rec.span("yamlite.parse", root, trace, |_| yamlite::parse_file(path));
        parsed.push(v.map_err(|e| e.to_string())?);
        st.parse_calls += 1;
        st.parse_s += s;
    }
    let inputs = match parsed.pop() {
        Some(Value::Map(m)) => m,
        _ => return Err(format!("{} is not a mapping", job.inputs.display())),
    };
    for path in &docs {
        let (doc, s) = rec.span("cwl.load", root, trace, |_| cwl::load_file(path));
        doc?;
        st.load_s += s;
    }
    for doc in &parsed {
        let (diags, s) = rec.span("cwl.validate", root, trace, |_| cwl::validate_document(doc));
        if !cwl::validate::is_valid(&diags) {
            return Err(format!("validation failed: {}", diags[0]));
        }
        st.validate_s += s;
    }
    let (report, s) = rec.span("cwl.analyze", root, trace, |_| {
        let opts = cwl::analyze::AnalyzeOptions {
            capacity: Some(cwl_parsl::lint::executor_capacity(&config.parsl)),
        };
        cwl::analyze::analyze_file_opts(job.cwl, &opts)
    });
    if !report.is_clean(false) {
        return Err(format!("static analysis: {}", report.render_text()));
    }
    st.analyze_s = s;

    // ckpt: bind (or resume) the journal before the kernel exists.
    let checkpointing = config.checkpoint.sync_mode().is_some();
    let (prepared, s) = rec.span("ckpt.prepare", root, trace, |_| {
        if !checkpointing {
            return Ok(None);
        }
        let hash = cwl_parsl::checkpoint::run_hash(job.cwl, &inputs)?;
        let label = job
            .cwl
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        cwl_parsl::checkpoint::prepare(
            &config.checkpoint,
            &config.workdir,
            job.resume,
            hash,
            &label,
        )
    });
    let prepared = prepared?;
    st.ckpt_prepare_s = s;
    if let Some(p) = &prepared {
        config.parsl = config.parsl.with_checkpoint(p.journal.clone());
    }

    let (dfk, s) = rec.span("parsl.dfk_start", root, trace, |_| {
        DataFlowKernel::try_new(config.parsl)
    });
    let dfk = dfk?;
    st.dfk_start_s = s;
    let mut invalidated = 0;
    if let Some(p) = &prepared {
        let (_seeded, unparseable) = dfk.seed_checkpoint(&p.seed);
        invalidated = p.invalidated + unparseable;
    }

    // datastore: one store for the run; root File inputs hashed up front.
    let mut roots = Vec::new();
    file_paths(&Value::Map(inputs.clone()), &mut roots);
    roots.sort();
    roots.dedup();
    st.prestaged_files = roots.len();
    let (stager, s) = rec.span("datastore.prestage", root, trace, |_| {
        let stager = config.staging.build(&config.workdir)?;
        if !roots.is_empty() {
            let _ = stager.store().ingest_parallel(&roots, config.staging.pool);
        }
        Ok::<_, String>(stager)
    });
    let stager = stager?;
    st.prestage_s = s;

    let dispatch = TracedDispatch::new(rec.clone(), trace);
    let options = CwlAppOptions::in_dir(&config.workdir)
        .with_dispatch(dispatch.clone())
        .with_staging(config.staging.clone())
        .with_stager(stager.clone());
    let (outputs, s) = rec.span("core.run", root, trace, |run_span| {
        dispatch.set_parent(run_span);
        ParslWorkflowRunner::new(&dfk, options).run(job.cwl, &inputs)
    });
    let outputs = outputs?;
    st.run_s = s;

    let (text, s) = rec.span("yamlite.emit", root, trace, |_| {
        yamlite::to_string(&Value::Map(outputs.clone()))
    });
    std::hint::black_box(text);
    st.emit_s = s;

    let tasks = dfk.monitoring().summary().completed;
    st.stage = stager.stats();
    if dfk.observability().is_enabled() {
        let (res, s) = rec.span("obs.export", root, trace, |_| dfk.observability().export());
        res.map_err(|e| format!("trace export: {e}"))?;
        st.export_s = s;
    }
    let ((), s) = rec.span("parsl.shutdown", root, trace, |_| dfk.shutdown());
    st.shutdown_s = s;
    let wall_s = t0.elapsed().as_secs_f64();

    let ckpt = prepared.map(|p| {
        let stats = dfk.checkpoint_stats().unwrap_or_default();
        st.journal_bytes = std::fs::metadata(p.journal.path())
            .map(|m| m.len())
            .unwrap_or(0);
        CkptReport {
            journal: p.journal.path().to_path_buf(),
            replayed: stats.replayed,
            appended: stats.appended,
            invalidated,
            torn: p.torn,
            stale: p.stale,
        }
    });
    Ok(Traced {
        outcome: Outcome {
            outputs,
            tasks,
            ckpt,
            wall_s,
        },
        stages: st,
        tools: tool_stats(&dispatch.durations_ns()),
    })
}

/// Layer metrics every CLI-path traced run reports.
pub fn layers(report: &mut Report, t: &Traced, untraced_wall_s: f64) {
    let st = &t.stages;
    let per = |total_s: f64, n: usize| total_s * 1e6 / n.max(1) as f64;
    report.layer("yamlite.parse_us", per(st.parse_s, st.parse_calls));
    report.layer(
        "yamlite.parse_mb_per_s",
        st.parse_bytes as f64 / 1e6 / st.parse_s.max(1e-9),
    );
    report.layer("yamlite.emit_us", st.emit_s * 1e6);
    report.layer("cwl.load_us", per(st.load_s, st.docs));
    report.layer("cwl.validate_us", per(st.validate_s, st.docs));
    report.layer("cwl.analyze_us", st.analyze_s * 1e6);
    report.layer("core.config_load_us", st.config_load_s * 1e6);
    // Compile + bind + dispatch overhead: the run span minus the tool
    // executions spread over the executor's slots.
    let run_self_s = (st.run_s - t.tools.busy_s / SLOTS as f64).max(0.0);
    report.layer("core.run_self_s", run_self_s);
    report.layer(
        "core.overhead_us_per_task",
        run_self_s * 1e6 / t.outcome.tasks.max(1) as f64,
    );
    report.layer("cwlexec.tool_count", t.tools.count as f64);
    report.layer("cwlexec.tool_busy_s", t.tools.busy_s);
    report.layer("cwlexec.tool_p50_us", t.tools.p50_us);
    let staged = (st.stage.hits + st.stage.links + st.stage.copies).max(1) as f64;
    report.layer(
        "datastore.link_ratio",
        st.stage.links as f64 / (st.stage.links + st.stage.copies).max(1) as f64,
    );
    report.layer("datastore.hit_ratio", st.stage.hits as f64 / staged);
    report.layer("datastore.bytes_copied", st.stage.bytes_copied as f64);
    if st.prestaged_files > 0 {
        report.layer(
            "datastore.ingest_files_per_s",
            st.prestaged_files as f64 / st.prestage_s.max(1e-9),
        );
    }
    if let Some(c) = &t.outcome.ckpt {
        report.layer("ckpt.appended", c.appended as f64);
        report.layer("ckpt.replayed", c.replayed as f64);
        report.layer("ckpt.invalidated", c.invalidated as f64);
        report.layer("ckpt.journal_bytes", st.journal_bytes as f64);
    }
    report.layer("parsl.dfk_start_ms", st.dfk_start_s * 1e3);
    report.layer("parsl.dfk_shutdown_ms", st.shutdown_s * 1e3);
    report.layer(
        "ledger.trace_overhead_frac",
        t.outcome.wall_s / untraced_wall_s.max(1e-9) - 1.0,
    );
}

/// The `path` of every File in an output list, in scatter order.
pub fn output_paths(outputs: &Map, key: &str) -> Result<Vec<PathBuf>, String> {
    outputs
        .get(key)
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("outputs have no list {key:?}"))?
        .iter()
        .map(|f| {
            f.get("path")
                .and_then(Value::as_str)
                .map(PathBuf::from)
                .ok_or_else(|| format!("output {key:?} entry without a path"))
        })
        .collect()
}
