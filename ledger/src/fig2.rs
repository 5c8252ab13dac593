//! Paper Fig. 2: capitalise every word of a list, one task per word, each
//! task's input object carrying the whole list.
//!
//! `fig2_words` runs `fixtures/scatter_words_py.cwl` (InlinePython,
//! evaluated in-process) through the CLI path on the Parsl thread pool:
//! `yamlite`, `cwl`, `expr`, `core::wfrunner` input binding and per-task
//! `Value` handling dominate and the files are tiny. It is the workload
//! where scatter-width-dependent (O(n²)) costs show.
//! `fig2_baseline` runs `fixtures/scatter_words_js.cwl` on
//! `runners::RefRunner` (the JS interpreter; the modelled node-spawn cost
//! is zeroed by `TimeScale 0`): the same `expr` and workflow-semantics
//! layers through the other implementation.

use crate::cli::{self, Executor, Job, TracedDispatch};
use crate::harness::{self, Ctx, Report, SLOTS};
use crate::trace::Recorder;
use runners::{RefRunner, ToilRunner};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use yamlite::{Map, Value};

/// Words scattered over by each leg: the same list for both, so the two
/// legs are the paper's Fig. 2 comparison at one width.
pub const WORDS: usize = 1024;
/// Words of the JavaScript warm-up that ends a `fig2_baseline` set-up.
const JS_WARM_WORDS: usize = 128;
/// Words the Toil-like runner probe scatters over.
const TOIL_WORDS: usize = 256;

struct Setup {
    words: Vec<String>,
    inputs: Map,
    inputs_yml: PathBuf,
    config_yml: PathBuf,
    py_cwl: PathBuf,
    js_cwl: PathBuf,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let dir = ctx.scratch.unique("setup");
    harness::fresh_dir(&dir)?;
    let words = crate::gen::words(ctx.size(WORDS), ctx.seed);
    let mut text = String::from("words:\n");
    for w in &words {
        text.push_str(&format!("  - {w}\n"));
    }
    let inputs_yml = dir.join("inputs.yml");
    harness::write_file(&inputs_yml, &text)?;
    let mut inputs = Map::new();
    inputs.insert(
        "words",
        Value::Seq(words.iter().map(|w| Value::str(w.clone())).collect()),
    );
    Ok(Setup {
        words,
        inputs,
        inputs_yml,
        config_yml: dir.join("config.yml"),
        py_cwl: ctx.fixtures.join("scatter_words_py.cwl"),
        js_cwl: ctx.fixtures.join("scatter_words_js.cwl"),
    })
}

fn builtin() -> Arc<dyn cwlexec::ToolDispatch> {
    Arc::new(cwlexec::BuiltinDispatch)
}

/// Read every output file of the `capitalized` list.
fn output_texts(outputs: &Map) -> Result<Vec<String>, String> {
    cli::output_paths(outputs, "capitalized")?
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

impl Setup {
    /// Compare every output with the driver's own title-casing; returns
    /// how many are missing or wrong.
    fn wrong(&self, texts: &[String]) -> usize {
        let matching = texts
            .iter()
            .zip(&self.words)
            .filter(|(got, w)| **got == format!("{}\n", crate::gen::title_case(w)))
            .count();
        self.words.len() - matching.min(self.words.len())
    }

    /// Count one run's outputs: each word is an operation; a wrong task
    /// count, or output that disagrees with `reference` (the other leg's
    /// texts), fails them all.
    fn check(
        &self,
        outputs: &Map,
        tasks: usize,
        reference: Option<&[String]>,
        report: &mut Report,
    ) {
        let n = self.words.len();
        let texts = output_texts(outputs).unwrap_or_default();
        let mut bad = self.wrong(&texts);
        if tasks != n {
            report.note(format!("expected {n} tasks, ran {tasks}"));
            bad = n;
        }
        if reference.is_some_and(|r| r != texts) {
            report.note("the JavaScript leg disagrees with the Python leg");
            bad = n;
        }
        report.count(n, bad);
    }

    fn py_job(&self) -> Job<'_> {
        Job {
            config: &self.config_yml,
            cwl: &self.py_cwl,
            inputs: &self.inputs_yml,
            resume: None,
        }
    }

    /// One Parsl (InlinePython) run through the CLI path into `workdir`.
    fn py_run(
        &self,
        workdir: &Path,
        monitoring: Option<&Path>,
        report: &mut Report,
    ) -> Result<cli::Outcome, String> {
        harness::fresh_dir(workdir)?;
        harness::write_file(
            &self.config_yml,
            &cli::config_yaml(Executor::ThreadPool, workdir, false, monitoring),
        )?;
        let outcome = cli::run(&self.py_job())?;
        self.check(&outcome.outputs, outcome.tasks, None, report);
        Ok(outcome)
    }

    /// One RefRunner (InlineJavascript) run into `workdir`, checked against
    /// the driver's title-casing and, when given, the Python leg's outputs;
    /// returns the wall in seconds.
    fn js_run(
        &self,
        workdir: &Path,
        dispatch: Arc<dyn cwlexec::ToolDispatch>,
        py_texts: Option<&[String]>,
        report: &mut Report,
    ) -> Result<f64, String> {
        harness::fresh_dir(workdir)?;
        let t = Instant::now();
        let run = RefRunner::new(SLOTS, dispatch).run(&self.js_cwl, &self.inputs, workdir)?;
        let wall_s = t.elapsed().as_secs_f64();
        self.check(&run.outputs, run.tasks, py_texts, report);
        Ok(wall_s)
    }

    /// The first `n` words as a job order of their own.
    fn first_words(&self, n: usize) -> Map {
        let mut inputs = Map::new();
        inputs.insert(
            "words",
            Value::Seq(
                self.words
                    .iter()
                    .take(n)
                    .map(|w| Value::str(w.clone()))
                    .collect(),
            ),
        );
        inputs
    }
}

pub fn run_words(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let s = harness::repeat_setup(ctx, &mut report, |report| {
        let s = setup(ctx)?;
        let warm_dir = ctx.scratch.unique("warm");
        s.py_run(&warm_dir, None, report)?;
        let _ = std::fs::remove_dir_all(&warm_dir);
        Ok(s)
    })?;
    if ctx.trace {
        return trace_words(ctx, &s, report);
    }
    let n = s.words.len();
    harness::measure_loop(ctx, "fig2_words iteration", 3, &mut report, n, |_, r| {
        let workdir = ctx.scratch.unique("run");
        let outcome = s.py_run(&workdir, None, r)?;
        let _ = std::fs::remove_dir_all(&workdir);
        Ok(outcome.wall_s * 1e3)
    });
    report.peak_rss_mb = harness::peak_rss_mb(None);
    Ok(report)
}

pub fn run_baseline(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (s, py_texts) = harness::repeat_setup(ctx, &mut report, |report| {
        let s = setup(ctx)?;
        // The Python leg on the same words: the JS outputs must agree
        // with it as well as with the driver's own title-casing.
        let py_dir = ctx.scratch.unique("reference");
        let py = s.py_run(&py_dir, None, report)?;
        let py_texts = output_texts(&py.outputs)?;
        let _ = std::fs::remove_dir_all(&py_dir);
        // A short JavaScript run warms the interpreter's caches.
        let warm_dir = ctx.scratch.unique("warm");
        harness::fresh_dir(&warm_dir)?;
        RefRunner::new(SLOTS, builtin()).run(
            &s.js_cwl,
            &s.first_words(JS_WARM_WORDS),
            &warm_dir,
        )?;
        let _ = std::fs::remove_dir_all(&warm_dir);
        Ok((s, py_texts))
    })?;
    if ctx.trace {
        return trace_baseline(ctx, &s, report);
    }
    let n = s.words.len();
    harness::measure_loop(ctx, "fig2_baseline iteration", 3, &mut report, n, |_, r| {
        let workdir = ctx.scratch.unique("run");
        let wall_s = s.js_run(&workdir, builtin(), Some(&py_texts), r)?;
        let _ = std::fs::remove_dir_all(&workdir);
        Ok(wall_s * 1e3)
    });
    report.peak_rss_mb = harness::peak_rss_mb(None);
    Ok(report)
}

/// Mean µs to evaluate `expression` (the fixture tool's argument) over an
/// inputs object carrying `n` words.
fn eval_us(
    engine: &dyn expr::ExpressionEngine,
    expression: &str,
    words: &[String],
    n: usize,
) -> f64 {
    let all: Vec<Value> = words
        .iter()
        .cycle()
        .take(n)
        .map(|w| Value::str(w.clone()))
        .collect();
    let mut inputs = Map::new();
    inputs.insert("word", Value::str(words[0].clone()));
    inputs.insert("all_words", Value::Seq(all));
    let ctx = expr::EvalContext::from_inputs(Value::Map(inputs));
    harness::per_call_s(200, || {
        std::hint::black_box(
            expr::interpolate(expression, engine, std::hint::black_box(&ctx))
                .expect("fixture expression evaluates"),
        );
    }) * 1e6
}

/// The fixture tool's expression-bearing argument and the engine its
/// requirements select (with no modelled boundary cost).
fn fixture_expression(path: &Path) -> Result<(String, Box<dyn expr::ExpressionEngine>), String> {
    let cwl::CwlDocument::Tool(tool) = cwl::load_file(path)? else {
        return Err(format!("{} is not a CommandLineTool", path.display()));
    };
    let expression = tool
        .arguments
        .first()
        .and_then(|a| a.value.as_str())
        .ok_or_else(|| format!("{} has no expression argument", path.display()))?
        .to_string();
    let engine = cwlexec::engine_for(&tool.requirements, expr::JsCostModel::free())?;
    Ok((expression, engine))
}

fn trace_words(ctx: &Ctx, s: &Setup, mut report: Report) -> Result<Report, String> {
    let scratch = &ctx.scratch;
    // Untraced reference, monitoring off; then the same with monitoring on.
    let off = s.py_run(&scratch.unique("untraced"), None, &mut report)?;
    let export = scratch.path().join("monitored-trace.jsonl");
    let on = s.py_run(&scratch.unique("monitored"), Some(&export), &mut report)?;
    report.layer(
        "obs.monitoring_overhead_frac",
        on.wall_s / off.wall_s.max(1e-9) - 1.0,
    );

    // The traced, decomposed run — with monitoring on, so `obs.export` is
    // timed on a full trace — then one with monitoring off for the table.
    let rec = Arc::new(Recorder::new());
    let workdir = scratch.unique("traced-monitored");
    harness::fresh_dir(&workdir)?;
    harness::write_file(
        &s.config_yml,
        &cli::config_yaml(Executor::ThreadPool, &workdir, false, Some(&export)),
    )?;
    let monitored = cli::run_traced(&s.py_job(), &rec, 0, 2)?;
    report.layer("obs.export_ms", monitored.stages.export_s * 1e3);

    let workdir = scratch.unique("traced");
    harness::fresh_dir(&workdir)?;
    harness::write_file(
        &s.config_yml,
        &cli::config_yaml(Executor::ThreadPool, &workdir, false, None),
    )?;
    expr::cache::reset_stats();
    let rec = Arc::new(Recorder::new());
    let root = rec.next_id();
    let start = rec.now_ns();
    let traced = cli::run_traced(&s.py_job(), &rec, root, 1)?;
    let ((), _) = rec.span("verify", root, 1, |_| {
        s.check(
            &traced.outcome.outputs,
            traced.outcome.tasks,
            None,
            &mut report,
        )
    });
    rec.record(root, 0, 1, "ledger.iteration", start);
    let cache = expr::cache::stats();
    report.layer(
        "expr.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    cli::layers(&mut report, &traced, off.wall_s);

    let (expression, engine) = fixture_expression(&ctx.fixtures.join("capitalize_word_py.cwl"))?;
    report.layer(
        "expr.py_eval_us_n16",
        eval_us(engine.as_ref(), &expression, &s.words, 16),
    );
    report.layer(
        "expr.py_eval_us_n2048",
        eval_us(engine.as_ref(), &expression, &s.words, 2048),
    );
    harness::finish_trace("fig2_words", &rec, root, &mut report)?;
    Ok(report)
}

fn trace_baseline(ctx: &Ctx, s: &Setup, mut report: Report) -> Result<Report, String> {
    let scratch = &ctx.scratch;
    let untraced_s = s.js_run(&scratch.unique("untraced"), builtin(), None, &mut report)?;

    let rec = Arc::new(Recorder::new());
    let root = rec.next_id();
    let start = rec.now_ns();
    let mut parse_s = 0.0;
    let mut parse_bytes = 0u64;
    let docs = [
        s.js_cwl.clone(),
        ctx.fixtures.join("capitalize_word_js.cwl"),
    ];
    let mut load_s = 0.0;
    let mut validate_s = 0.0;
    for path in &docs {
        parse_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let (doc, secs) = rec.span("yamlite.parse", root, 1, |_| yamlite::parse_file(path));
        let doc = doc.map_err(|e| e.to_string())?;
        parse_s += secs;
        let (loaded, secs) = rec.span("cwl.load", root, 1, |_| cwl::load_file(path));
        loaded?;
        load_s += secs;
        let (_, secs) = rec.span("cwl.validate", root, 1, |_| cwl::validate_document(&doc));
        validate_s += secs;
    }
    let dispatch = TracedDispatch::new(rec.clone(), 1);
    let run_id = rec.next_id();
    let run_start = rec.now_ns();
    dispatch.set_parent(run_id);
    let run_s = s.js_run(
        &scratch.unique("traced"),
        dispatch.clone(),
        None,
        &mut report,
    )?;
    rec.record(run_id, root, 1, "runners.run", run_start);
    rec.record(root, 0, 1, "ledger.iteration", start);

    let tools = cli::tool_stats(&dispatch.durations_ns());
    let per_doc = |total_s: f64| total_s * 1e6 / docs.len() as f64;
    report.layer("yamlite.parse_us", per_doc(parse_s));
    report.layer(
        "yamlite.parse_mb_per_s",
        parse_bytes as f64 / 1e6 / parse_s.max(1e-9),
    );
    report.layer("cwl.load_us", per_doc(load_s));
    report.layer("cwl.validate_us", per_doc(validate_s));
    report.layer("cwlexec.tool_count", tools.count as f64);
    report.layer("cwlexec.tool_busy_s", tools.busy_s);
    report.layer("cwlexec.tool_p50_us", tools.p50_us);
    report.layer(
        "runners.ref_overhead_us_per_task",
        (run_s - tools.busy_s / SLOTS as f64).max(0.0) * 1e6 / tools.count.max(1) as f64,
    );
    report.layer(
        "ledger.trace_overhead_frac",
        run_s / untraced_s.max(1e-9) - 1.0,
    );

    // The Toil-like runner on a smaller scatter (its job store makes it
    // the slowest of the three).
    let toil_n = ctx.size(TOIL_WORDS).min(s.words.len());
    let toil_inputs = s.first_words(toil_n);
    let toil_dir = scratch.unique("toil");
    harness::fresh_dir(&toil_dir)?;
    let toil = ToilRunner::single_machine(SLOTS, toil_dir.join("job-store"), builtin());
    let (run, secs) = harness::timed(|| toil.run(&s.js_cwl, &toil_inputs, &toil_dir));
    let run = run?;
    let texts = output_texts(&run.outputs)?;
    let wrong = texts
        .iter()
        .zip(&s.words)
        .filter(|(got, w)| **got != format!("{}\n", crate::gen::title_case(w)))
        .count();
    report.count(toil_n, wrong + toil_n.saturating_sub(texts.len()));
    report.layer("runners.toil_makespan_s", secs);

    let (expression, _) = fixture_expression(&ctx.fixtures.join("capitalize_word_js.cwl"))?;
    let engine = expr::JsEngine::in_process();
    report.layer(
        "expr.js_eval_us_n16",
        eval_us(&engine, &expression, &s.words, 16),
    );
    report.layer(
        "expr.js_eval_us_n2048",
        eval_us(&engine, &expression, &s.words, 2048),
    );
    harness::finish_trace("fig2_baseline", &rec, root, &mut report)?;
    Ok(report)
}
