//! Crash-injection integration tests for durable checkpointing: a run
//! killed at an arbitrary point must resume from its journal with zero
//! re-execution of journaled tasks and byte-identical outputs.
//!
//! Crashes are injected three ways, each exercising a different layer:
//!
//! * a dispatch that dies after N successful tool executions (deterministic
//!   in-process crash at every possible point of the DAG);
//! * a scripted HTEX node death ([`gridsim::FaultPlan`]) with retries
//!   disabled, so the run aborts partway like a real worker loss;
//! * a literal `SIGKILL` of the `parsl-cwl` binary mid-run.

use cwl_parsl::checkpoint::{self, PreparedCkpt};
use cwl_parsl::config::{CheckpointMode, CheckpointSettings};
use cwl_parsl::{CwlAppOptions, ParslWorkflowRunner};
use cwlexec::{BuiltinDispatch, ToolDispatch};
use gridsim::{BatchScheduler, ClusterSpec, FaultPlan, LatencyModel, SchedulerConfig};
use parsl::{Config, DataFlowKernel, HtexConfig, SlurmProvider};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use yamlite::{Map, Value};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ckpt-int-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn settings(dir: &Path) -> CheckpointSettings {
    CheckpointSettings {
        mode: CheckpointMode::TaskExit,
        dir: Some(dir.join("ckpt")),
        period: Duration::from_millis(500),
    }
}

/// Counts real tool executions, so tests can assert that replayed tasks
/// never reach the dispatch layer.
struct CountingDispatch {
    inner: BuiltinDispatch,
    runs: AtomicUsize,
}

impl CountingDispatch {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: BuiltinDispatch,
            runs: AtomicUsize::new(0),
        })
    }

    fn runs(&self) -> usize {
        self.runs.load(Ordering::SeqCst)
    }
}

impl ToolDispatch for CountingDispatch {
    fn run(&self, cmd: &cwl::BuiltCommand, workdir: &Path) -> Result<(), String> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        self.inner.run(cmd, workdir)
    }

    fn label(&self) -> &'static str {
        "counting"
    }
}

/// Succeeds for the first `budget` tool executions, then fails every call —
/// the process-internal equivalent of the worker host dying after N tasks.
struct DyingDispatch {
    inner: BuiltinDispatch,
    budget: AtomicIsize,
}

impl DyingDispatch {
    fn after(budget: usize) -> Arc<Self> {
        Arc::new(Self {
            inner: BuiltinDispatch,
            budget: AtomicIsize::new(budget as isize),
        })
    }
}

impl ToolDispatch for DyingDispatch {
    fn run(&self, cmd: &cwl::BuiltCommand, workdir: &Path) -> Result<(), String> {
        if self.budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return Err("simulated crash (DyingDispatch budget exhausted)".to_string());
        }
        self.inner.run(cmd, workdir)
    }

    fn label(&self) -> &'static str {
        "dying"
    }
}

/// Run a workflow on a thread-pool kernel with a checkpoint journal wired
/// exactly the way `run_tool_cli_resumable` wires it. Returns the workflow
/// result plus the prepared journal state and end-of-run stats.
fn run_checkpointed(
    wf: &Path,
    inputs: &Map,
    workdir: &Path,
    resume: Option<&Path>,
    dispatch: Arc<dyn ToolDispatch>,
    workers: usize,
) -> (Result<Map, String>, PreparedCkpt, parsl::CkptStats) {
    let settings = settings(workdir);
    let hash = checkpoint::run_hash(wf, inputs).unwrap();
    let prepared = checkpoint::prepare(&settings, workdir, resume, hash, "test")
        .unwrap()
        .expect("checkpointing is on");
    let config = Config::local_threads(workers).with_checkpoint(prepared.journal.clone());
    let dfk = DataFlowKernel::try_new(config).unwrap();
    let (_, unparseable) = dfk.seed_checkpoint(&prepared.seed);
    assert_eq!(unparseable, 0, "validated seed records must all parse");
    let runner =
        ParslWorkflowRunner::new(&dfk, CwlAppOptions::in_dir(workdir).with_dispatch(dispatch));
    let result = runner.run(wf, inputs);
    dfk.shutdown();
    let stats = dfk.checkpoint_stats().expect("checkpointing is on");
    (result, prepared, stats)
}

fn diamond_inputs() -> Map {
    let mut m = Map::new();
    m.insert("message", Value::str("crash and resume"));
    m
}

/// Read the file behind a `File`-typed workflow output.
fn output_bytes(outputs: &Map, key: &str) -> Vec<u8> {
    let path = outputs.get(key).unwrap()["path"]
        .as_str()
        .unwrap()
        .to_string();
    std::fs::read(path).unwrap()
}

/// Tentpole proof: kill the diamond workflow after every possible number of
/// completed tasks (0..4), resume, and require byte-identical output with
/// exactly the journaled tasks skipped. One worker keeps completion order
/// (and thus each crash point) deterministic.
#[test]
fn diamond_crash_at_every_point_resumes_without_reexecution() {
    // Clean baseline for the byte-identity check.
    let base_dir = scratch("diamond-base");
    let (result, _, _) = run_checkpointed(
        &fixtures().join("diamond.cwl"),
        &diamond_inputs(),
        &base_dir,
        None,
        CountingDispatch::new(),
        1,
    );
    let expected = output_bytes(&result.unwrap(), "joined");

    for crash_after in 0..4usize {
        let dir = scratch(&format!("diamond-k{crash_after}"));
        let wf = fixtures().join("diamond.cwl");

        // First run: the dispatch dies after `crash_after` successes.
        let (result, prepared, stats) = run_checkpointed(
            &wf,
            &diamond_inputs(),
            &dir,
            None,
            DyingDispatch::after(crash_after),
            1,
        );
        assert!(result.is_err(), "k={crash_after}: run must abort");
        assert_eq!(stats.appended, crash_after, "k={crash_after}");
        let journal_path = prepared.journal.path().to_path_buf();
        drop(prepared);
        assert_eq!(
            ckpt::load(&journal_path).unwrap().records.len(),
            crash_after,
            "k={crash_after}: every completion must be durable at crash time"
        );

        // Resume: journaled tasks replay, the rest execute.
        let counting = CountingDispatch::new();
        let (result, prepared, stats) = run_checkpointed(
            &wf,
            &diamond_inputs(),
            &dir,
            Some(&dir.join("ckpt")),
            counting.clone(),
            1,
        );
        let outputs = result.unwrap_or_else(|e| panic!("k={crash_after}: resume failed: {e}"));
        assert_eq!(
            output_bytes(&outputs, "joined"),
            expected,
            "k={crash_after}"
        );
        assert_eq!(counting.runs(), 4 - crash_after, "k={crash_after}");
        assert_eq!(stats.replayed, crash_after, "k={crash_after}");
        assert_eq!(stats.appended, 4 - crash_after, "k={crash_after}");
        assert_eq!(prepared.invalidated, 0, "k={crash_after}");
        assert!(!prepared.torn, "k={crash_after}");

        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}

/// Same discipline for a scattered workflow: two of four parallel scatter
/// instances complete before the crash; the resume replays exactly those.
#[test]
fn scatter_crash_resume_replays_completed_instances() {
    let wf = fixtures().join("scatter_words_py.cwl");
    let mut inputs = Map::new();
    inputs.insert(
        "words",
        Value::Seq(vec![
            Value::str("alpha"),
            Value::str("beta"),
            Value::str("gamma"),
            Value::str("delta"),
        ]),
    );

    let base_dir = scratch("scatter-base");
    let (result, _, _) =
        run_checkpointed(&wf, &inputs, &base_dir, None, CountingDispatch::new(), 4);
    let base_outputs = result.unwrap();
    let expected: Vec<Vec<u8>> = base_outputs
        .get("capitalized")
        .and_then(Value::as_seq)
        .unwrap()
        .iter()
        .map(|f| std::fs::read(f["path"].as_str().unwrap()).unwrap())
        .collect();

    let dir = scratch("scatter-crash");
    let (result, _, stats) = run_checkpointed(&wf, &inputs, &dir, None, DyingDispatch::after(2), 4);
    assert!(result.is_err(), "run must abort");
    assert_eq!(stats.appended, 2, "exactly the budgeted instances complete");

    let counting = CountingDispatch::new();
    let (result, _, stats) = run_checkpointed(
        &wf,
        &inputs,
        &dir,
        Some(&dir.join("ckpt")),
        counting.clone(),
        4,
    );
    let outputs = result.unwrap();
    let produced: Vec<Vec<u8>> = outputs
        .get("capitalized")
        .and_then(Value::as_seq)
        .unwrap()
        .iter()
        .map(|f| std::fs::read(f["path"].as_str().unwrap()).unwrap())
        .collect();
    assert_eq!(produced, expected);
    assert_eq!(counting.runs(), 2);
    assert_eq!(stats.replayed, 2);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base_dir);
}

/// A scripted node death that takes down the whole executor
/// ([`gridsim::FaultPlan`] killing the only node, no replacement floor)
/// aborts the run with `ExecutorLost`; the journal holds whatever
/// completed, and a resume on a healthy executor finishes the workflow
/// without redoing it.
#[test]
fn aborted_htex_run_resumes_on_healthy_executor() {
    let dir = scratch("htex-abort");
    let wf = fixtures().join("diamond.cwl");
    let inputs = diamond_inputs();

    let settings = settings(&dir);
    let hash = checkpoint::run_hash(&wf, &inputs).unwrap();
    let prepared = checkpoint::prepare(&settings, &dir, None, hash, "htex")
        .unwrap()
        .unwrap();
    let sched = BatchScheduler::new(ClusterSpec::small(2, 1), SchedulerConfig::immediate());
    let config = Config::htex(
        HtexConfig {
            label: "ckpt-fault".to_string(),
            nodes: 1,
            workers_per_node: 1,
            latency: LatencyModel::in_process(),
            heartbeat_period: Duration::from_millis(5),
            heartbeat_threshold: Duration::from_millis(60),
            // No replacement floor: losing the only node strands the run.
            min_nodes: 0,
            fault_plan: Some(FaultPlan::new().kill_after_tasks("node01", 2)),
            batch_size: 1,
            ..HtexConfig::default()
        },
        Arc::new(SlurmProvider::new(sched)),
    )
    .with_checkpoint(prepared.journal.clone());
    let dfk = DataFlowKernel::try_new(config).unwrap();
    let runner = ParslWorkflowRunner::new(&dfk, CwlAppOptions::in_dir(&dir).with_builtin_tools());
    let result = runner.run(&wf, &inputs);
    dfk.shutdown();
    let stats = dfk.checkpoint_stats().unwrap();
    assert!(
        result.is_err(),
        "losing every node must abort the run: {result:?}"
    );
    let journaled = stats.appended;
    assert!(
        (1..4).contains(&journaled),
        "the node death must land mid-run: {journaled}"
    );
    drop(prepared);
    drop(dfk);

    let counting = CountingDispatch::new();
    let (result, _, stats) = run_checkpointed(
        &wf,
        &inputs,
        &dir,
        Some(&dir.join("ckpt")),
        counting.clone(),
        2,
    );
    let outputs = result.unwrap();
    assert!(!output_bytes(&outputs, "joined").is_empty());
    assert_eq!(stats.replayed, journaled);
    assert_eq!(counting.runs(), 4 - journaled);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A partially written final frame (the torn tail a mid-`write` crash
/// leaves behind) is detected, truncated, and the rest of the journal
/// trusted.
#[test]
fn torn_tail_is_truncated_and_prefix_replayed() {
    let dir = scratch("torn");
    let wf = fixtures().join("diamond.cwl");
    let inputs = diamond_inputs();

    let (result, prepared, _) =
        run_checkpointed(&wf, &inputs, &dir, None, CountingDispatch::new(), 1);
    let expected = output_bytes(&result.unwrap(), "joined");
    let journal_path = prepared.journal.path().to_path_buf();
    drop(prepared);

    // Simulate a crash mid-append: a frame header promising more bytes
    // than follow.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal_path)
        .unwrap();
    f.write_all(&[0xEE, 0xFF, 0x00, 0x00, 0x12, 0x34]).unwrap();
    drop(f);
    let before = ckpt::load(&journal_path).unwrap();
    assert!(before.torn);
    assert_eq!(before.records.len(), 4);

    let counting = CountingDispatch::new();
    let (result, prepared, stats) = run_checkpointed(
        &wf,
        &inputs,
        &dir,
        Some(&dir.join("ckpt")),
        counting.clone(),
        1,
    );
    assert!(prepared.torn, "the resume must report the truncated tail");
    assert_eq!(output_bytes(&result.unwrap(), "joined"), expected);
    assert_eq!(counting.runs(), 0);
    assert_eq!(stats.replayed, 4);

    // The truncation is durable: a clean reload sees no tear.
    let after = ckpt::load(&journal_path).unwrap();
    assert!(!after.torn);
    assert_eq!(after.records.len(), 4, "replays must not re-append records");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a journaled task whose `File` output was deleted on disk is
/// invalidated and re-executed; everything downstream whose inputs are
/// unchanged still replays.
#[test]
fn deleted_file_output_invalidates_record_and_reruns_task() {
    let dir = scratch("deleted");
    let wf = fixtures().join("diamond.cwl");
    let inputs = diamond_inputs();

    let (result, prepared, _) =
        run_checkpointed(&wf, &inputs, &dir, None, CountingDispatch::new(), 1);
    let outputs = result.unwrap();
    let expected = output_bytes(&outputs, "joined");
    drop(prepared);

    // Find the `left` copy task's output file via its journal record and
    // delete it out from under the journal.
    let journal_path = dir.join("ckpt").join("journal.ckpt");
    let loaded = ckpt::load(&journal_path).unwrap();
    let left = loaded
        .records
        .iter()
        .find(|r| r.step.as_deref() == Some("left"))
        .expect("left step journaled with its CWL step id");
    let parsed = ckpt::invalidate::parse_result(&left.result).unwrap();
    let left_file = parsed["output"]["path"].as_str().unwrap().to_string();
    std::fs::remove_file(&left_file).unwrap();

    let counting = CountingDispatch::new();
    let (result, prepared, stats) = run_checkpointed(
        &wf,
        &inputs,
        &dir,
        Some(&dir.join("ckpt")),
        counting.clone(),
        1,
    );
    assert_eq!(
        prepared.invalidated, 1,
        "only the deleted-output record is dropped"
    );
    let outputs = result.unwrap();
    assert_eq!(output_bytes(&outputs, "joined"), expected);
    assert_eq!(counting.runs(), 1, "only `left` re-executes");
    assert_eq!(stats.replayed, 3);
    assert_eq!(stats.appended, 1);
    assert!(
        Path::new(&left_file).exists(),
        "the re-run must recreate the deleted output"
    );

    // Second resume: the fresh record supersedes the stale one (last-wins
    // dedupe), so now everything replays.
    let counting = CountingDispatch::new();
    let (result, prepared, stats) = run_checkpointed(
        &wf,
        &inputs,
        &dir,
        Some(&dir.join("ckpt")),
        counting.clone(),
        1,
    );
    assert!(result.is_ok());
    assert_eq!(
        prepared.invalidated, 1,
        "the superseded duplicate counts as invalidated"
    );
    assert_eq!(counting.runs(), 0);
    assert_eq!(stats.replayed, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same-size, same-path corruption: an exists-check (and even a size
/// check) would wrongly replay the record. The data plane's content
/// digest, journaled with each `class: File` output, catches it.
#[test]
fn corrupted_file_output_fails_digest_check_and_reruns_task() {
    let dir = scratch("corrupt");
    let wf = fixtures().join("diamond.cwl");
    let inputs = diamond_inputs();

    let (result, prepared, _) =
        run_checkpointed(&wf, &inputs, &dir, None, CountingDispatch::new(), 1);
    let outputs = result.unwrap();
    let expected = output_bytes(&outputs, "joined");
    drop(prepared);

    // Overwrite `left`'s output with different bytes of the same length:
    // still present, same size, wrong content.
    let journal_path = dir.join("ckpt").join("journal.ckpt");
    let loaded = ckpt::load(&journal_path).unwrap();
    let left = loaded
        .records
        .iter()
        .find(|r| r.step.as_deref() == Some("left"))
        .expect("left step journaled with its CWL step id");
    let parsed = ckpt::invalidate::parse_result(&left.result).unwrap();
    assert!(
        parsed["output"]["checksum"]
            .as_str()
            .is_some_and(|c| c.starts_with("xxh64:")),
        "journaled outputs must carry the data plane's content digest"
    );
    let left_file = parsed["output"]["path"].as_str().unwrap().to_string();
    let original = std::fs::read(&left_file).unwrap();
    let corrupted: Vec<u8> = original.iter().map(|_| b'X').collect();
    assert_eq!(corrupted.len(), original.len());
    std::fs::write(&left_file, &corrupted).unwrap();

    let counting = CountingDispatch::new();
    let (result, prepared, stats) = run_checkpointed(
        &wf,
        &inputs,
        &dir,
        Some(&dir.join("ckpt")),
        counting.clone(),
        1,
    );
    assert_eq!(
        prepared.invalidated, 1,
        "the digest mismatch must invalidate exactly the corrupted record"
    );
    let outputs = result.unwrap();
    assert_eq!(output_bytes(&outputs, "joined"), expected);
    assert_eq!(counting.runs(), 1, "only `left` re-executes");
    assert_eq!(stats.replayed, 3);
    assert_eq!(
        std::fs::read(&left_file).unwrap(),
        original,
        "the re-run must restore the corrupted output's true content"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Editing the workflow (or its inputs) makes the journal untrustworthy:
/// it is set aside whole and the run starts over.
#[test]
fn changed_inputs_set_stale_journal_aside() {
    let dir = scratch("stale");
    let wf = fixtures().join("diamond.cwl");

    let (result, prepared, _) = run_checkpointed(
        &wf,
        &diamond_inputs(),
        &dir,
        None,
        CountingDispatch::new(),
        1,
    );
    assert!(result.is_ok());
    drop(prepared);

    let mut changed = Map::new();
    changed.insert("message", Value::str("a different message"));
    let counting = CountingDispatch::new();
    let (result, prepared, stats) = run_checkpointed(
        &wf,
        &changed,
        &dir,
        Some(&dir.join("ckpt")),
        counting.clone(),
        1,
    );
    assert!(prepared.stale, "the mismatched journal must be set aside");
    assert_eq!(prepared.invalidated, 4);
    assert!(result.is_ok());
    assert_eq!(
        counting.runs(),
        4,
        "nothing replays across a run-hash change"
    );
    assert_eq!(stats.replayed, 0);
    assert!(
        dir.join("ckpt").join("journal.ckpt.stale").exists(),
        "the stale journal is kept for post-mortems"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The real thing: SIGKILL the parsl-cwl binary mid-run, then resume it.
// ---------------------------------------------------------------------------

fn parsl_cwl() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_parsl-cwl"))
}

/// Write a slow sequential workflow (each step gates on the previous one's
/// output) so there is a wide window to kill the process after the first
/// completion but before the last.
fn write_slow_workflow(dir: &Path) -> (PathBuf, PathBuf) {
    let tool = dir.join("slow_step.cwl");
    std::fs::write(
        &tool,
        "cwlVersion: v1.2\n\
         class: CommandLineTool\n\
         baseCommand: sleepms\n\
         inputs:\n\
         \x20 ms:\n\
         \x20   type: int\n\
         \x20   inputBinding:\n\
         \x20     position: 1\n\
         \x20 gate:\n\
         \x20   type: File?\n\
         \x20   inputBinding:\n\
         \x20     position: 2\n\
         outputs:\n\
         \x20 output:\n\
         \x20   type: stdout\n\
         stdout: slept.txt\n",
    )
    .unwrap();
    let wf = dir.join("slow.cwl");
    let mut doc = String::from(
        "cwlVersion: v1.2\n\
         class: Workflow\n\
         inputs:\n\
         \x20 first_ms:\n\
         \x20   type: int\n\
         outputs:\n\
         \x20 done:\n\
         \x20   type: File\n\
         \x20   outputSource: s4/output\n\
         steps:\n\
         \x20 s1:\n\
         \x20   run: slow_step.cwl\n\
         \x20   in:\n\
         \x20     ms: first_ms\n\
         \x20   out: [output]\n",
    );
    for i in 2..=4 {
        doc.push_str(&format!(
            "\x20 s{i}:\n\
             \x20   run: slow_step.cwl\n\
             \x20   in:\n\
             \x20     ms:\n\
             \x20       default: 500\n\
             \x20     gate: s{}/output\n\
             \x20   out: [output]\n",
            i - 1
        ));
    }
    std::fs::write(&wf, doc).unwrap();
    (wf, tool)
}

#[test]
fn sigkill_mid_run_then_resume_completes() {
    let dir = scratch("sigkill");
    let (wf, _) = write_slow_workflow(&dir);
    let work = dir.join("work");
    let config = dir.join("config.yml");
    std::fs::write(
        &config,
        format!(
            "executor:\n  kind: thread-pool\n  workers: 1\n\
             run:\n  workdir: {}\n  builtin_tools: true\n\
             checkpoint:\n  mode: task-exit\n",
            work.display()
        ),
    )
    .unwrap();

    let mut child = parsl_cwl()
        .arg(&config)
        .arg(&wf)
        .arg("--first_ms=10")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary runs");

    // Wait for at least one durable record, then SIGKILL the process.
    // Deadline-bounded wall-clock wait: the observed state lives in another
    // process's filesystem writes, so there is no in-process condvar or
    // virtual clock to hang this on — polling the journal file is the only
    // signal available.
    let journal = work.join("ckpt").join("journal.ckpt");
    let appeared = simtest::wait_until(Duration::from_secs(30), || {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("parsl-cwl finished before it could be killed: {status}");
        }
        ckpt::load(&journal).is_ok_and(|loaded| !loaded.records.is_empty())
    });
    assert!(appeared, "no journal record appeared in time");
    child.kill().unwrap();
    child.wait().unwrap();

    let survived = ckpt::load(&journal).unwrap().records.len();
    assert!(
        (1..4).contains(&survived),
        "kill landed mid-run: {survived}"
    );

    // Resume: must succeed, replay the survivors, and execute the rest.
    let output = parsl_cwl()
        .arg(&config)
        .arg(&wf)
        .arg("--first_ms=10")
        .arg("--resume")
        .arg(&work)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("{survived} replayed")),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains(&format!("{} appended", 4 - survived)),
        "stderr: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("slept.txt"), "stdout: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// CLI contract around checkpointing.
// ---------------------------------------------------------------------------

#[test]
fn cli_rejects_unknown_flags_with_usage() {
    let dir = scratch("badflag");
    let config = dir.join("config.yml");
    std::fs::write(
        &config,
        format!(
            "executor:\n  kind: thread-pool\n  workers: 1\nrun:\n  workdir: {}\n  builtin_tools: true\n",
            dir.join("work").display()
        ),
    )
    .unwrap();
    let output = parsl_cwl()
        .arg(&config)
        .arg(fixtures().join("echo.cwl"))
        .arg("--reusme")
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown flag \"--reusme\""),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_resume_without_checkpoint_config_is_an_error() {
    let dir = scratch("resume-off");
    let config = dir.join("config.yml");
    std::fs::write(
        &config,
        format!(
            "executor:\n  kind: thread-pool\n  workers: 1\nrun:\n  workdir: {}\n  builtin_tools: true\n",
            dir.join("work").display()
        ),
    )
    .unwrap();
    let output = parsl_cwl()
        .arg(&config)
        .arg(fixtures().join("echo.cwl"))
        .arg("--message=x")
        .arg("--resume")
        .arg(dir.join("work"))
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--resume requires checkpointing"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_run_refuses_to_clobber_existing_journal() {
    let dir = scratch("noclobber");
    let wf = fixtures().join("diamond.cwl");
    let inputs = diamond_inputs();
    let (result, prepared, _) =
        run_checkpointed(&wf, &inputs, &dir, None, CountingDispatch::new(), 1);
    assert!(result.is_ok());
    drop(prepared);

    let hash = checkpoint::run_hash(&wf, &inputs).unwrap();
    let err = checkpoint::prepare(&settings(&dir), &dir, None, hash, "test")
        .err()
        .expect("a fresh run over a live journal must be refused");
    assert!(err.contains("already exists"), "{err}");
    assert!(err.contains("--resume"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Resume equivalence: the single-pass resume (one load, one parse per
// record, one stat per File, index probed by that stat) must decide exactly what
// the two-pass one decided.
// ---------------------------------------------------------------------------

/// A stale-hash journal is set aside as it was found, torn tail included:
/// truncation is for journals that will be appended to, not for evidence.
#[test]
fn stale_journal_with_torn_tail_is_set_aside_byte_for_byte() {
    let dir = scratch("stale-torn");
    let wf = fixtures().join("diamond.cwl");
    let (result, prepared, _) = run_checkpointed(
        &wf,
        &diamond_inputs(),
        &dir,
        None,
        CountingDispatch::new(),
        1,
    );
    assert!(result.is_ok());
    drop(prepared);

    // A crash mid-append: a frame header promising more payload than
    // follows.
    let journal_path = dir.join("ckpt").join("journal.ckpt");
    let mut bytes = std::fs::read(&journal_path).unwrap();
    bytes.extend_from_slice(&1000u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(b"torn mid-append");
    std::fs::write(&journal_path, &bytes).unwrap();

    let mut changed = Map::new();
    changed.insert("message", Value::str("a different message"));
    let counting = CountingDispatch::new();
    let (result, prepared, stats) = run_checkpointed(
        &wf,
        &changed,
        &dir,
        Some(&dir.join("ckpt")),
        counting.clone(),
        1,
    );
    assert!(result.is_ok());
    assert!(prepared.stale && prepared.torn);
    assert_eq!(prepared.invalidated, 4);
    assert_eq!((counting.runs(), stats.replayed), (4, 0));
    assert_eq!(
        std::fs::read(dir.join("ckpt").join("journal.ckpt.stale")).unwrap(),
        bytes,
        "the stale journal must be kept exactly as found, torn tail and all"
    );
    let fresh = ckpt::load(&journal_path).unwrap();
    assert!(!fresh.torn);
    assert_eq!(fresh.records.len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journaled path that runs through a symlinked directory names the same
/// file, so the digest index (keyed by file identity) must vouch for it
/// through that path — and a corrupted output behind the symlink must still
/// be caught, not waved through.
#[test]
fn output_reached_through_a_symlinked_directory_still_verifies() {
    let real = scratch("symlink-real");
    let link = real.with_file_name(format!("ckpt-int-symlink-link-{}", std::process::id()));
    let _ = std::fs::remove_file(&link);
    std::os::unix::fs::symlink(&real, &link).unwrap();
    let wf = fixtures().join("diamond.cwl");
    let inputs = diamond_inputs();

    let (result, prepared, _) =
        run_checkpointed(&wf, &inputs, &link, None, CountingDispatch::new(), 1);
    let expected = output_bytes(&result.unwrap(), "joined");
    drop(prepared);

    let loaded = ckpt::load(&link.join("ckpt").join("journal.ckpt")).unwrap();
    let left = loaded
        .records
        .iter()
        .find(|r| r.step.as_deref() == Some("left"))
        .unwrap();
    let left_file = ckpt::invalidate::parse_result(&left.result).unwrap()["output"]["path"]
        .as_str()
        .unwrap()
        .to_string();
    assert!(
        Path::new(&left_file).starts_with(&link)
            && Path::new(&left_file).canonicalize().unwrap() != Path::new(&left_file),
        "the journaled path must run through the symlink for this test to mean anything: {left_file}"
    );

    // Untouched outputs replay through the symlinked path.
    let counting = CountingDispatch::new();
    let (result, prepared, stats) = run_checkpointed(
        &wf,
        &inputs,
        &link,
        Some(&link.join("ckpt")),
        counting.clone(),
        1,
    );
    assert_eq!(output_bytes(&result.unwrap(), "joined"), expected);
    assert_eq!(prepared.invalidated, 0);
    assert_eq!((counting.runs(), stats.replayed), (0, 4));
    drop(prepared);

    // Same size, different bytes, behind the symlink: re-run, not replay.
    let original = std::fs::read(&left_file).unwrap();
    std::fs::write(&left_file, vec![b'X'; original.len()]).unwrap();
    let counting = CountingDispatch::new();
    let (result, prepared, stats) = run_checkpointed(
        &wf,
        &inputs,
        &link,
        Some(&link.join("ckpt")),
        counting.clone(),
        1,
    );
    assert_eq!(output_bytes(&result.unwrap(), "joined"), expected);
    assert_eq!(prepared.invalidated, 1);
    assert_eq!((counting.runs(), stats.replayed), (1, 3));
    assert_eq!(std::fs::read(&left_file).unwrap(), original);
    let _ = std::fs::remove_file(&link);
    let _ = std::fs::remove_dir_all(&real);
}

/// Write a journal by hand: `records` are `(label, fingerprint, result)`.
fn handmade_journal(dir: &Path, hash: u64, records: &[(&str, u64, &str)]) -> PathBuf {
    let path = dir.join("ckpt").join("journal.ckpt");
    let header = ckpt::Header {
        version: 1,
        run_hash: hash,
        label: "handmade".to_string(),
    };
    let journal = ckpt::Journal::create(&path, &header, ckpt::SyncMode::TaskExit).unwrap();
    for (label, fingerprint, result) in records {
        journal
            .append(&ckpt::Record {
                label: label.to_string(),
                fingerprint: *fingerprint,
                step: None,
                result: result.to_string(),
            })
            .unwrap();
    }
    path
}

/// Duplicate memo keys: the last record's value wins, the survivor keeps
/// the position its key first appeared at, and each superseded record
/// counts as invalidated.
#[test]
fn duplicate_records_stay_last_wins_in_first_seen_order() {
    let dir = scratch("dupes");
    handmade_journal(
        &dir,
        42,
        &[
            ("a", 1, "{v: 1}"),
            ("b", 2, "{v: 2}"),
            ("a", 1, "{v: 3}"),
            ("a", 9, "{v: 4}"),
            ("b", 2, "{v: 5}"),
        ],
    );
    let prepared = checkpoint::prepare(&settings(&dir), &dir, Some(&dir.join("ckpt")), 42, "test")
        .unwrap()
        .unwrap();
    assert_eq!(prepared.invalidated, 2);
    let seeded: Vec<(&str, u64, String)> = prepared
        .seed
        .iter()
        .map(|s| {
            (
                s.label.as_str(),
                s.fingerprint,
                yamlite::to_string_flow(&s.value),
            )
        })
        .collect();
    assert_eq!(
        seeded,
        vec![
            ("a", 1, "{v: 3}".to_string()),
            ("b", 2, "{v: 5}".to_string()),
            ("a", 9, "{v: 4}".to_string()),
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record whose result does not parse is invalidated by `prepare` and,
/// handed to the kernel raw, is still counted as unparseable — never
/// seeded, never silently dropped from the count.
#[test]
fn unparseable_result_is_counted_by_prepare_and_by_the_kernel() {
    let dir = scratch("unparseable");
    let path = handmade_journal(
        &dir,
        42,
        &[("good", 1, "{v: 1}"), ("bad", 2, "{unclosed: [")],
    );
    let raw = ckpt::load(&path).unwrap().records;
    let prepared = checkpoint::prepare(&settings(&dir), &dir, Some(&dir.join("ckpt")), 42, "test")
        .unwrap()
        .unwrap();
    assert_eq!(prepared.invalidated, 1);
    assert_eq!(prepared.seed.len(), 1);
    assert_eq!(prepared.seed[0].label, "good");

    let dfk =
        DataFlowKernel::try_new(Config::local_threads(1).with_checkpoint(prepared.journal.clone()))
            .unwrap();
    assert_eq!(dfk.seed_checkpoint(&prepared.seed), (1, 0));
    assert_eq!(
        dfk.seed_checkpoint(&raw),
        (1, 1),
        "a raw record that does not parse is reported, not seeded"
    );
    dfk.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Validating on a pool changes how long the pass takes, not what it
/// decides: same survivors in the same order, same invalidated count. The
/// files here were never staged, so the digest index does not know them —
/// the fresh-process case, where every checksummed File is read and hashed
/// (that is the part the pool runs).
#[test]
fn pooled_validation_keeps_record_order_and_invalidated_count() {
    let dir = scratch("pooled");
    let sums: Vec<(PathBuf, String)> = (0..40)
        .map(|i| {
            let path = dir.join(format!("out-{i}.txt"));
            let bytes = format!("output number {i}").into_bytes();
            std::fs::write(&path, &bytes).unwrap();
            (path, datastore::Digest::of_bytes(&bytes).checksum())
        })
        .collect();
    let file = |path: &Path, sum: &str| {
        format!(
            "{{out: {{class: File, path: {}, checksum: '{sum}'}}}}",
            path.display()
        )
    };
    let results: Vec<String> = (0..97usize)
        .map(|i| {
            let (path, sum) = &sums[i % sums.len()];
            match i % 6 {
                // Content as recorded (files 0..40 recur: hashed once or
                // twice, same verdict).
                0 | 1 => file(path, sum),
                // Same path, some other file's checksum: content mismatch.
                2 => file(path, &sums[(i + 1) % sums.len()].1),
                3 => file(&dir.join(format!("gone-{i}.txt")), sum),
                4 => "{unclosed: [".to_string(),
                _ => format!("{{v: {i}}}"),
            }
        })
        .collect();
    // Every seventh record re-uses an earlier key (last wins).
    let records: Vec<(String, u64, &str)> = results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let key = if i % 7 == 6 { i - 6 } else { i };
            (format!("t{key}"), key as u64, r.as_str())
        })
        .collect();
    let records: Vec<(&str, u64, &str)> = records
        .iter()
        .map(|(l, f, r)| (l.as_str(), *f, *r))
        .collect();
    handmade_journal(&dir, 42, &records);

    let outcome = |pool: usize| {
        let p = checkpoint::prepare_with_pool(
            &settings(&dir),
            &dir,
            Some(&dir.join("ckpt")),
            42,
            "test",
            pool,
        )
        .unwrap()
        .unwrap();
        let keys: Vec<(String, u64)> = p
            .seed
            .iter()
            .map(|s| (s.label.clone(), s.fingerprint))
            .collect();
        (keys, p.invalidated)
    };
    // Pooled first, while the index is still cold for these files.
    let (pooled_keys, pooled_invalidated) = outcome(4);
    assert_eq!(pooled_keys.len() + pooled_invalidated, records.len());
    // By hand: what the rules say about each deduplicated record.
    let mut last: Vec<(usize, usize)> = Vec::new(); // (key, index of its last record)
    for (i, record) in records.iter().enumerate() {
        let key = record.1 as usize;
        match last.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = i,
            None => last.push((key, i)),
        }
    }
    let expected: Vec<(String, u64)> = last
        .iter()
        .filter(|(_, i)| matches!(i % 6, 0 | 1 | 5))
        .map(|(key, _)| (format!("t{key}"), *key as u64))
        .collect();
    assert_eq!(pooled_keys, expected);
    for pool in [1, 2, 16] {
        assert_eq!(
            outcome(pool),
            (pooled_keys.clone(), pooled_invalidated),
            "pool {pool}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The run hash: over the files that run, byte-compatible with older journals.
// ---------------------------------------------------------------------

/// Journals written before the document set existed must still resume: the
/// hash walks the same files in the same order and so keeps its value.
#[test]
fn run_hash_values_are_pinned() {
    let mut diamond = Map::new();
    diamond.insert("message", Value::str("pinned"));
    let images = yamlite::parse_str(
        "input_images:\n  - {class: File, path: /data/a.rimg}\n  \
         - {class: File, path: /data/b.rimg}\nsize: 64\nsepia: true\nradius: 2\n",
    )
    .unwrap();
    let Value::Map(images) = images else {
        panic!("inputs are a mapping")
    };
    assert_eq!(
        checkpoint::run_hash(&fixtures().join("diamond.cwl"), &diamond).unwrap(),
        0x0f5b_e876_9a02_9715
    );
    assert_eq!(
        checkpoint::run_hash(&fixtures().join("scatter_images.cwl"), &images).unwrap(),
        0x0fa1_8188_5512_f2d5
    );
}

/// A workflow reached through a symlink runs the tool next to the link, so
/// that tool is what the hash covers: editing it must set a journal aside.
#[test]
fn run_hash_covers_the_tool_next_to_a_symlinked_workflow() {
    let dir = scratch("hash-symlink");
    let tool = |word: &str| {
        format!(
            "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: [echo, {word}]\n\
             inputs: {{}}\noutputs:\n  output:\n    type: stdout\nstdout: out.txt\n"
        )
    };
    let wf = "cwlVersion: v1.2\nclass: Workflow\ninputs: {}\noutputs: {}\nsteps:\n  \
              say:\n    run: tool.cwl\n    in: {}\n    out: [output]\n";
    for side in ["A", "B"] {
        std::fs::create_dir_all(dir.join(side)).unwrap();
    }
    std::fs::write(dir.join("A/wf.cwl"), wf).unwrap();
    std::fs::write(dir.join("A/tool.cwl"), tool("a")).unwrap();
    std::fs::write(dir.join("B/tool.cwl"), tool("b")).unwrap();
    std::os::unix::fs::symlink(dir.join("A/wf.cwl"), dir.join("B/wf.cwl")).unwrap();

    let inputs = Map::new();
    let linked = dir.join("B/wf.cwl");
    let before = checkpoint::run_hash(&linked, &inputs).unwrap();
    assert_ne!(
        before,
        checkpoint::run_hash(&dir.join("A/wf.cwl"), &inputs).unwrap(),
        "the two directories run different tools"
    );
    std::fs::write(dir.join("B/tool.cwl"), tool("edited")).unwrap();
    assert_ne!(checkpoint::run_hash(&linked, &inputs).unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}
