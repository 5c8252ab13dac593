//! Service-level integration tests for `parsl-serve`: many workflow runs
//! multiplexed over one warm kernel + shared CAS must be observationally
//! identical to running each workflow alone.
//!
//! The first half drives [`serve::Service`] directly (the in-process core).
//! The second half talks to [`serve::Daemon`]s over their sockets — each on
//! its own thread, with its own scratch directory — and covers what the
//! readiness loop owes its clients: the response shapes, the `wait` verb,
//! exit after a drain with nobody connected, the in-process equivalent of
//! SIGTERM, and a table of hostile clients. The `parsl-cwl` client binary
//! and a real SIGTERM + `--resume` are exercised by the CI serve smoke
//! (`ci.sh`).

use cwl_parsl::config::{load_config_value, RunnerConfig};
use cwl_parsl::proto::{self, obj, s};
use cwl_parsl::runner::run_tool_cli;
use obs::json::Json;
use serve::{Daemon, RunRecord, RunState, Service, StopHandle, SubmitError};
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;
use yamlite::{Map, Value};

const WAIT: Duration = Duration::from_secs(120);

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "serve-int-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A thread-pool runner config rooted at `workdir`; `extra` appends raw
/// YAML blocks (monitoring, serve, …).
fn config(workdir: &Path, extra: &str) -> RunnerConfig {
    let yaml = format!(
        "executor:\n  kind: thread-pool\n  workers: 4\n\
         run:\n  workdir: {}\n  builtin_tools: true\n{extra}",
        workdir.display()
    );
    load_config_value(&yamlite::parse_str(&yaml).unwrap()).unwrap()
}

fn msg_inputs(message: &str) -> Map {
    let mut m = Map::new();
    m.insert("message", Value::Str(message.to_string()));
    m
}

fn words_inputs(words: &[&str]) -> Map {
    let mut m = Map::new();
    m.insert(
        "words",
        Value::Seq(words.iter().map(|w| Value::Str(w.to_string())).collect()),
    );
    m
}

/// Collect the bytes of every `class: File` in an output value, in
/// deterministic traversal order.
fn collect_output_bytes(value: &Value, out: &mut Vec<Vec<u8>>) {
    match value {
        Value::Map(m) => {
            if m.get("class").and_then(Value::as_str) == Some("File") {
                let path = m.get("path").and_then(Value::as_str).unwrap();
                out.push(std::fs::read(path).unwrap());
                return;
            }
            for (_, v) in m.iter() {
                collect_output_bytes(v, out);
            }
        }
        Value::Seq(s) => {
            for v in s {
                collect_output_bytes(v, out);
            }
        }
        _ => {}
    }
}

fn output_bytes(outputs: &Map) -> Vec<Vec<u8>> {
    let mut bytes = Vec::new();
    collect_output_bytes(&Value::Map(outputs.clone()), &mut bytes);
    assert!(!bytes.is_empty(), "workflow produced no file outputs");
    bytes
}

/// The standalone baseline: run `wf` alone with `parsl-cwl`'s code path
/// in a private workdir, returning every file output's bytes.
fn solo_bytes(wf: &Path, inputs: &Map, tag: &str) -> Vec<Vec<u8>> {
    let dir = scratch(tag);
    let outcome = run_tool_cli(config(&dir, ""), wf, inputs)
        .unwrap_or_else(|e| panic!("solo run of {} failed: {e}", wf.display()));
    let bytes = output_bytes(&outcome.outputs);
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn completed(svc: &Service, id: u64) -> serve::RunSnapshot {
    let snap = svc.wait(id, WAIT).unwrap();
    assert_eq!(
        snap.state,
        RunState::Completed,
        "run {id} ended {:?}: {:?}",
        snap.state,
        snap.error
    );
    snap
}

/// Three concurrent runs — two workflows, two tenants — through one
/// daemon must each produce outputs byte-identical to running the same
/// workflow alone: no cross-run bleed through the shared CAS, memo
/// table, or lineage namespace.
#[test]
fn concurrent_runs_match_standalone_outputs() {
    let dir = scratch("concurrent");
    let svc = Service::start(config(&dir, ""), false).unwrap();
    let diamond = fixtures().join("diamond.cwl");
    let scatter = fixtures().join("scatter_words_py.cwl");

    let a = svc
        .submit(&diamond, &msg_inputs("service alpha"), "alice")
        .unwrap();
    let b = svc
        .submit(
            &scatter,
            &words_inputs(&["shared", "warm", "kernel"]),
            "bob",
        )
        .unwrap();
    let c = svc
        .submit(&diamond, &msg_inputs("service gamma"), "alice")
        .unwrap();

    let snap_a = completed(&svc, a);
    let snap_b = completed(&svc, b);
    let snap_c = completed(&svc, c);

    assert_eq!(
        output_bytes(snap_a.outputs.as_ref().unwrap()),
        solo_bytes(&diamond, &msg_inputs("service alpha"), "solo-a"),
    );
    assert_eq!(
        output_bytes(snap_b.outputs.as_ref().unwrap()),
        solo_bytes(
            &scatter,
            &words_inputs(&["shared", "warm", "kernel"]),
            "solo-b"
        ),
    );
    assert_eq!(
        output_bytes(snap_c.outputs.as_ref().unwrap()),
        solo_bytes(&diamond, &msg_inputs("service gamma"), "solo-c"),
    );

    let obs = svc.kernel().observability();
    assert_eq!(obs.counter(obs::names::SERVE_ADMITTED).value(), 3);
    assert_eq!(obs.counter(obs::names::SERVE_REJECTED).value(), 0);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An identical resubmission dedupes against the shared memo table: the
/// second run executes nothing (its journal gains zero entries) yet
/// returns the same outputs.
#[test]
fn identical_resubmission_dedupes_in_shared_memo() {
    let dir = scratch("dedupe");
    let svc = Service::start(
        config(&dir, "monitoring:\n  enabled: true\n  sample_rate: 1.0\n"),
        false,
    )
    .unwrap();
    let diamond = fixtures().join("diamond.cwl");

    let first = svc
        .submit(&diamond, &msg_inputs("same message"), "alice")
        .unwrap();
    let snap1 = completed(&svc, first);
    assert!(snap1.appended > 0, "first run journals its executed tasks");

    let obs = svc.kernel().observability();
    let hits_before = obs.counter(obs::names::MEMO_HITS).value();
    let second = svc
        .submit(&diamond, &msg_inputs("same message"), "bob")
        .unwrap();
    let snap2 = completed(&svc, second);

    assert_eq!(
        snap2.appended, 0,
        "fully deduplicated run must execute (and journal) nothing"
    );
    assert!(
        obs.counter(obs::names::MEMO_HITS).value() >= hits_before + 4,
        "all four diamond tasks should hit the shared memo table"
    );
    assert_eq!(
        output_bytes(snap1.outputs.as_ref().unwrap()),
        output_bytes(snap2.outputs.as_ref().unwrap()),
    );
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control rejects an unschedulable document at submit time
/// with the analyzer's E032 diagnostics — nothing is queued.
#[test]
fn unschedulable_document_is_rejected_at_the_door() {
    let dir = scratch("reject");
    let svc = Service::start(config(&dir, ""), false).unwrap();
    let doc = fixtures().join("broken/unschedulable.cwl");

    let err = svc.submit(&doc, &msg_inputs("hello"), "alice").unwrap_err();
    match err {
        SubmitError::Rejected { diagnostics, .. } => {
            assert!(
                diagnostics.contains("E032"),
                "expected E032 in rejection diagnostics, got:\n{diagnostics}"
            );
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(
        svc.list().is_empty(),
        "rejected submissions are not recorded"
    );
    let obs = svc.kernel().observability();
    assert_eq!(obs.counter(obs::names::SERVE_REJECTED).value(), 1);
    assert_eq!(obs.counter(obs::names::SERVE_ADMITTED).value(), 0);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every task in the exported trace is attributed to exactly one run
/// namespace (`tenant/run-id`) — concurrent runs never bleed lineage.
#[test]
fn lineage_is_namespaced_per_run() {
    let dir = scratch("lineage");
    let trace_path = dir.join("trace.jsonl");
    let svc = Service::start(
        config(
            &dir,
            &format!(
                "monitoring:\n  enabled: true\n  sample_rate: 1.0\n  export: {}\n  sinks: [jsonl]\n",
                trace_path.display()
            ),
        ),
        false,
    )
    .unwrap();
    let diamond = fixtures().join("diamond.cwl");

    let a = svc
        .submit(&diamond, &msg_inputs("lineage alpha"), "alice")
        .unwrap();
    let b = svc
        .submit(&diamond, &msg_inputs("lineage beta"), "bob")
        .unwrap();
    completed(&svc, a);
    completed(&svc, b);
    svc.shutdown();

    let trace = obs::report::load_trace(&trace_path).unwrap();
    assert!(!trace.lineage.is_empty(), "trace has lineage records");
    let ns_a = format!("alice/run-{a}");
    let ns_b = format!("bob/run-{b}");
    let mut per_ns = std::collections::BTreeMap::new();
    for rec in &trace.lineage {
        let ns = rec
            .run
            .as_deref()
            .unwrap_or_else(|| panic!("service task {} has no run namespace", rec.label));
        assert!(
            ns == ns_a || ns == ns_b,
            "unexpected run namespace {ns:?} on task {}",
            rec.label
        );
        *per_ns.entry(ns.to_string()).or_insert(0usize) += 1;
    }
    assert_eq!(
        per_ns.get(&ns_a),
        per_ns.get(&ns_b),
        "both runs of the same workflow carry the same task count: {per_ns:?}"
    );
    assert_eq!(per_ns.len(), 2, "exactly two run namespaces: {per_ns:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon restarted with `--resume` re-queues an interrupted run and
/// replays every journaled task from its checkpoint — zero re-execution,
/// identical outputs.
#[test]
fn resume_replays_interrupted_run_from_its_journal() {
    let dir = scratch("resume");
    let diamond = fixtures().join("diamond.cwl");

    let svc = Service::start(config(&dir, ""), false).unwrap();
    let id = svc
        .submit(&diamond, &msg_inputs("resume me"), "alice")
        .unwrap();
    let before = completed(&svc, id);
    assert!(before.appended > 0, "run journals its executed tasks");
    svc.shutdown();

    // Rewind the manifest to `running`, as a SIGTERM mid-run leaves it.
    let mut rec = RunRecord::load(&before.run_dir).unwrap();
    rec.state = RunState::Running;
    rec.save().unwrap();

    let svc = Service::start(config(&dir, ""), true).unwrap();
    let after = completed(&svc, id);
    assert_eq!(
        after.replayed, before.appended,
        "every journaled task replays instead of re-executing"
    );
    assert_eq!(after.appended, 0, "a full replay journals nothing new");
    assert_eq!(
        output_bytes(before.outputs.as_ref().unwrap()),
        output_bytes(after.outputs.as_ref().unwrap()),
    );
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resumed run whose journal names an output file that is gone drops
/// that record — counted into `ckpt.invalidated`, as a resumed `parsl-cwl`
/// run counts it — and re-runs the task, recreating the file.
#[test]
fn resume_counts_invalidated_records_and_recreates_deleted_outputs() {
    let dir = scratch("resume-invalidated");
    let diamond = fixtures().join("diamond.cwl");

    let svc = Service::start(config(&dir, ""), false).unwrap();
    let id = svc
        .submit(&diamond, &msg_inputs("delete one output"), "alice")
        .unwrap();
    let before = completed(&svc, id);
    svc.shutdown();

    let mut rec = RunRecord::load(&before.run_dir).unwrap();
    rec.state = RunState::Running;
    rec.save().unwrap();
    let joined = before.outputs.as_ref().unwrap().get("joined").unwrap();
    std::fs::remove_file(joined["path"].as_str().unwrap()).unwrap();

    let svc = Service::start(config(&dir, ""), true).unwrap();
    let after = completed(&svc, id);
    let invalidated = svc
        .kernel()
        .observability()
        .counter(obs::names::CKPT_INVALIDATED)
        .value();
    assert!(invalidated >= 1, "ckpt.invalidated = {invalidated}");
    assert!(after.appended >= 1, "the invalidated task runs again");
    let recreated = after.outputs.as_ref().unwrap().get("joined").unwrap();
    assert_eq!(
        std::fs::read_to_string(recreated["path"].as_str().unwrap()).unwrap(),
        "delete one output\ndelete one output\n"
    );
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run queued behind `max_in_flight` executes the document it was
/// admitted with: overwriting the file before the run starts changes
/// nothing about what runs.
#[test]
fn queued_run_executes_the_document_it_was_admitted_with() {
    let dir = scratch("admitted");
    let slow = write_slow_tool(&dir);
    let echo = dir.join("echo.cwl");
    std::fs::copy(fixtures().join("echo.cwl"), &echo).unwrap();
    let svc = Service::start(config(&dir, "serve:\n  max_in_flight: 1\n"), false).unwrap();

    let mut ms = Map::new();
    ms.insert("ms", Value::Int(1500));
    let blocker = svc.submit(&slow, &ms, "alice").unwrap();
    let id = svc
        .submit(&echo, &msg_inputs("as admitted"), "alice")
        .unwrap();
    std::fs::write(
        &echo,
        "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: [echo, overwritten]\n\
         inputs:\n  message:\n    type: string\n    inputBinding:\n      position: 1\n\
         outputs:\n  output:\n    type: stdout\nstdout: overwritten.txt\n",
    )
    .unwrap();
    assert_eq!(
        svc.status(id).unwrap().state,
        RunState::Queued,
        "the file must change while the run waits for its slot"
    );

    completed(&svc, blocker);
    let snap = completed(&svc, id);
    let output = snap.outputs.as_ref().unwrap().get("output").unwrap();
    assert_eq!(output["basename"].as_str(), Some("hello.txt"));
    assert_eq!(
        std::fs::read_to_string(output["path"].as_str().unwrap()).unwrap(),
        "as admitted\n"
    );
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Socket level: `serve::Daemon` behind its Unix socket.
// ---------------------------------------------------------------------

/// How long a hostile-client row lets an honest `ping` take. The parent's
/// loop read each request inline with a 10 s timeout, so one silent client
/// starved every other for longer than this.
const PING_TIMEOUT: Duration = Duration::from_secs(5);

/// A daemon serving on its own thread.
struct Served {
    socket: PathBuf,
    stop: StopHandle,
    /// Receives `Daemon::run`'s result when the loop returns.
    exit: mpsc::Receiver<Result<(), String>>,
}

fn spawn_daemon(config: RunnerConfig, resume: bool) -> Served {
    let socket = config.serve.socket_path(&config.workdir);
    // Bound and listening before `run`: a client may connect at once.
    let daemon = Daemon::bind(config, resume).unwrap();
    let stop = daemon.stop_handle();
    let (tx, exit) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(daemon.run());
    });
    Served { socket, stop, exit }
}

impl Served {
    fn connect(&self) -> Client {
        Client::connect(&self.socket, WAIT)
    }

    /// One honest round trip; `Err` carries the daemon's error text.
    fn request(&self, req: &Json) -> Result<Json, String> {
        proto::request(&self.socket, req)
    }

    /// An honest client with little patience ([`PING_TIMEOUT`]).
    fn ping(&self) -> Json {
        let mut c = Client::connect(&self.socket, PING_TIMEOUT);
        c.send(&cmd("ping"));
        c.recv().expect("ping must be answered")
    }

    fn submit(&self, cwl: &Path, inputs: Json) -> u64 {
        let resp = self
            .request(&obj(vec![
                ("cmd", s("submit")),
                ("cwl", s(cwl.display().to_string())),
                ("inputs", inputs),
                ("tenant", s("alice")),
            ]))
            .unwrap();
        resp.get("run").and_then(Json::as_u64).unwrap()
    }

    fn status_of(&self, run: u64) -> Json {
        let resp = self.request(&cmd_run("status", run)).unwrap();
        resp.get("runs").and_then(Json::as_arr).unwrap()[0].clone()
    }

    /// The loop returned. The bound is generous on purpose: a daemon that
    /// fails it is hung, not slow.
    fn exited(&self) -> Result<(), String> {
        self.exit
            .recv_timeout(WAIT)
            .expect("daemon loop did not return")
    }
}

/// One raw connection: frames or arbitrary bytes out, at most one frame in.
struct Client(UnixStream);

impl Client {
    fn connect(socket: &Path, read_timeout: Duration) -> Self {
        let stream = UnixStream::connect(socket).unwrap();
        stream.set_read_timeout(Some(read_timeout)).unwrap();
        Self(stream)
    }

    fn send(&mut self, req: &Json) {
        proto::write_frame(&mut self.0, req).unwrap();
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.0.write_all(bytes).unwrap();
    }

    /// The response frame, or `None` if the daemon closed without one.
    fn recv(&mut self) -> Option<Json> {
        proto::read_frame(&mut self.0).unwrap()
    }

    /// The daemon has closed its end without sending anything (more).
    fn at_eof(&mut self) -> bool {
        matches!(self.0.read(&mut [0u8; 1]), Ok(0))
    }
}

fn cmd(name: &str) -> Json {
    obj(vec![("cmd", s(name))])
}

fn cmd_run(name: &str, run: u64) -> Json {
    obj(vec![("cmd", s(name)), ("run", Json::Num(run as f64))])
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| panic!("missing `{key}` in {}", proto::render(v)))
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    field(v, key).as_str().unwrap()
}

fn num_field(v: &Json, key: &str) -> u64 {
    field(v, key).as_u64().unwrap()
}

/// `sleepms` as a CommandLineTool, optionally gated on a File so that
/// steps of it chain.
fn write_slow_tool(dir: &Path) -> PathBuf {
    let tool = dir.join("slow_step.cwl");
    std::fs::write(
        &tool,
        "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: sleepms\ninputs:\n  ms:\n    type: int\n    inputBinding:\n      position: 1\n  gate:\n    type: File?\n    inputBinding:\n      position: 2\noutputs:\n  output:\n    type: stdout\nstdout: slept.txt\n",
    )
    .unwrap();
    tool
}

/// A workflow of [`write_slow_tool`] steps in a row, each gated on the one
/// before and sleeping its entry of `steps_ms`.
fn write_slow_chain(dir: &Path, steps_ms: &[u64]) -> PathBuf {
    write_slow_tool(dir);
    let mut wf = format!(
        "cwlVersion: v1.2\nclass: Workflow\ninputs: {{}}\noutputs:\n  done:\n    type: File\n    outputSource: s{}/output\nsteps:\n",
        steps_ms.len()
    );
    for (i, ms) in steps_ms.iter().enumerate() {
        let n = i + 1;
        wf += &format!(
            "  s{n}:\n    run: slow_step.cwl\n    in:\n      ms:\n        default: {ms}\n"
        );
        if i > 0 {
            wf += &format!("      gate: s{i}/output\n");
        }
        wf += "    out: [output]\n";
    }
    let workflow = dir.join("slow.cwl");
    std::fs::write(&workflow, wf).unwrap();
    workflow
}

fn ms_inputs(ms: u64) -> Json {
    obj(vec![("ms", Json::Num(ms as f64))])
}

/// (a) The response shapes the ledger's `serve_mix` reads, field by field,
/// one request and one response frame per connection.
#[test]
fn socket_responses_have_the_shapes_clients_read() {
    let dir = scratch("shapes");
    let d = spawn_daemon(config(&dir, ""), false);

    // Connect-then-close with nothing sent is the liveness probe
    // (`serve_daemon`'s own, and the ledger's): not a request, no reply.
    drop(d.connect());
    let pong = d.request(&cmd("ping")).unwrap();
    assert_eq!(pong, obj(vec![("ok", Json::Bool(true))]));

    let mut c = d.connect();
    c.send(&obj(vec![
        ("cmd", s("submit")),
        (
            "cwl",
            s(fixtures().join("diamond.cwl").display().to_string()),
        ),
        ("inputs", obj(vec![("message", s("over the socket"))])),
        ("tenant", s("alice")),
    ]));
    let ack = c.recv().unwrap();
    assert_eq!(field(&ack, "ok"), &Json::Bool(true));
    let run = num_field(&ack, "run");
    assert!(Path::new(str_field(&ack, "run_dir")).is_dir());
    assert!(c.at_eof(), "one response frame, then the daemon closes");

    let done = d.request(&cmd_run("wait", run)).unwrap();
    assert_eq!(str_field(&done, "state"), "completed");

    let status = d.request(&cmd_run("status", run)).unwrap();
    assert_eq!(num_field(&status, "active"), 0);
    assert_eq!(num_field(&status, "queued"), 0);
    let runs = field(&status, "runs").as_arr().unwrap();
    assert_eq!(runs.len(), 1);
    let entry = &runs[0];
    assert_eq!(num_field(entry, "run"), run);
    assert_eq!(str_field(entry, "tenant"), "alice");
    assert_eq!(str_field(entry, "state"), "completed");
    assert_eq!(str_field(entry, "run_dir"), str_field(&ack, "run_dir"));
    assert!(str_field(entry, "cwl").ends_with("diamond.cwl"));
    assert_eq!(num_field(entry, "replayed"), 0);
    assert!(num_field(entry, "appended") > 0);
    assert!(entry.get("error").is_none());
    let joined = field(field(entry, "outputs"), "joined");
    assert_eq!(
        std::fs::read_to_string(str_field(joined, "path")).unwrap(),
        "over the socket\nover the socket\n"
    );

    let second = d.submit(
        &fixtures().join("diamond.cwl"),
        obj(vec![("message", s("two"))]),
    );
    d.request(&cmd_run("wait", second)).unwrap();
    let all = d.request(&cmd("status")).unwrap();
    let ids: Vec<u64> = field(&all, "runs")
        .as_arr()
        .unwrap()
        .iter()
        .map(|r| num_field(r, "run"))
        .collect();
    assert_eq!(ids, vec![run, second], "bare status lists every run");

    // A failed run reports `error` where a completed one has `outputs`.
    let bad = d.submit(&fixtures().join("diamond.cwl"), obj(vec![]));
    let failed = d.request(&cmd_run("wait", bad)).unwrap();
    assert_eq!(str_field(&failed, "state"), "failed");
    assert!(!str_field(&failed, "error").is_empty());
    assert!(failed.get("outputs").is_none());

    let draining = d.request(&cmd("drain")).unwrap();
    assert_eq!(num_field(&draining, "active"), 0);
    assert_eq!(num_field(&draining, "queued"), 0);
    d.exited().unwrap();
    assert!(!d.socket.exists(), "a drained daemon removes its socket");
    let _ = std::fs::remove_dir_all(&dir);
}

/// (b) `wait` parks the connection until its run is terminal and answers
/// with exactly that run's `status` entry (plus `ok`); every case that
/// needs no waiting is answered at once.
#[test]
fn wait_answers_with_the_status_entry_once_the_run_is_terminal() {
    let dir = scratch("wait");
    let tool = write_slow_tool(&dir);
    let d = spawn_daemon(config(&dir, ""), false);

    // Nothing submitted yet: idle, so a bare `wait` returns at once.
    let idle = d.request(&cmd("wait")).unwrap();
    assert_eq!(
        (num_field(&idle, "active"), num_field(&idle, "queued")),
        (0, 0)
    );
    let unknown = d.request(&cmd_run("wait", 99)).unwrap_err();
    assert!(unknown.contains("unknown run 99"), "{unknown}");
    let bad = d
        .request(&obj(vec![("cmd", s("wait")), ("run", s("seven"))]))
        .unwrap_err();
    assert!(bad.contains("numeric `run`"), "{bad}");

    let run = d.submit(&tool, ms_inputs(300));
    let mut waiter = d.connect();
    waiter.send(&cmd_run("wait", run));
    let mut everything = d.connect();
    everything.send(&cmd("wait"));
    let mut answer = waiter.recv().expect("a parked wait is answered");
    assert_eq!(str_field(&answer, "state"), "completed");
    let output = field(field(&answer, "outputs"), "output");
    assert_eq!(
        std::fs::read_to_string(str_field(output, "path")).unwrap(),
        "slept\n"
    );
    let idle = everything.recv().expect("a parked bare wait is answered");
    assert_eq!(
        (num_field(&idle, "active"), num_field(&idle, "queued")),
        (0, 0)
    );

    // `ok` + exactly the fields of a status entry — now, and again for a
    // run that is already terminal when the `wait` arrives.
    let entry = d.status_of(run);
    let Json::Obj(fields) = &mut answer else {
        panic!("wait response is not an object");
    };
    assert_eq!(fields.remove("ok"), Some(Json::Bool(true)));
    assert_eq!(answer, entry);
    let mut again = d.request(&cmd_run("wait", run)).unwrap();
    let Json::Obj(fields) = &mut again else {
        panic!("wait response is not an object");
    };
    fields.remove("ok");
    assert_eq!(again, entry);

    d.request(&cmd("drain")).unwrap();
    d.exited().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// (b) A waiter parked on a run that cannot end by itself inside the test
/// (a minute of `sleepms`) is woken by that run's cancellation, with
/// `cancelled`. The interleaving is forced, not timed: the `status` that
/// sees the run non-terminal is answered after the `wait` was parked (one
/// loop, connections served in order), and only then is the run cancelled.
#[test]
fn cancelling_a_run_wakes_its_parked_waiter() {
    let dir = scratch("wait-cancel");
    let tool = write_slow_tool(&dir);
    let d = spawn_daemon(config(&dir, ""), false);

    // A second, uncancelled run keeps the daemon busy until it is stopped,
    // whether or not the cancelled run's task had left the fair-share gate
    // (a cancel that lands before it does aborts that run at once).
    d.submit(&tool, ms_inputs(60_000));
    let run = d.submit(&tool, ms_inputs(60_000));
    let mut waiter = d.connect();
    waiter.send(&cmd_run("wait", run));
    let state = str_field(&d.status_of(run), "state").to_string();
    assert!(state == "queued" || state == "running", "{state}");
    let cancelled = d.request(&cmd_run("cancel", run)).unwrap();
    assert_eq!(field(&cancelled, "cancelled"), &Json::Bool(true));

    let answer = waiter.recv().expect("cancellation answers the waiter");
    assert_eq!(str_field(&answer, "state"), "cancelled");
    assert_eq!(str_field(&answer, "error"), "cancelled by client");

    // The sleeping task cannot be preempted, so a drain would take the
    // minute: stop instead. A client parked on idleness sees EOF.
    let mut parked = d.connect();
    parked.send(&cmd("wait"));
    d.ping();
    d.stop.term();
    d.exited().unwrap();
    assert!(parked.recv().is_none(), "a stopped daemon answers nobody");
    let _ = std::fs::remove_dir_all(&dir);
}

/// (c) `drain` while a run is in flight: `serve_daemon` returns by itself
/// once that run completes — no connection is made after the drain — and
/// the client parked on idleness gets its answer first. A loop that only
/// looks at its exit conditions when a connection arrives hangs here.
#[test]
fn drained_daemon_exits_with_nobody_connected() {
    let dir = scratch("drain-exit");
    let tool = write_slow_tool(&dir);
    let cfg = config(&dir, "");
    let socket = cfg.serve.socket_path(&cfg.workdir);
    let (tx, exit) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(serve::serve_daemon(cfg, false));
    });
    // The same probe `serve_daemon` and the ledger use: connect, say
    // nothing, close.
    assert!(simtest::wait_until(WAIT, || UnixStream::connect(&socket).is_ok()));

    let ack = proto::request(
        &socket,
        &obj(vec![
            ("cmd", s("submit")),
            ("cwl", s(tool.display().to_string())),
            ("inputs", ms_inputs(700)),
        ]),
    )
    .unwrap();
    let run_dir = PathBuf::from(str_field(&ack, "run_dir"));
    let mut parked = Client::connect(&socket, WAIT);
    parked.send(&cmd("wait"));
    let draining = proto::request(&socket, &cmd("drain")).unwrap();
    assert_eq!(num_field(&draining, "active"), 1, "the run is in flight");

    let idle = parked.recv().expect("parked wait is answered before exit");
    assert_eq!(
        (num_field(&idle, "active"), num_field(&idle, "queued")),
        (0, 0)
    );
    exit.recv_timeout(WAIT)
        .expect("serve_daemon did not return after the drained run ended")
        .unwrap();
    assert_eq!(
        RunRecord::load(&run_dir).unwrap().state,
        RunState::Completed
    );
    assert!(!socket.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// (d) The in-process equivalent of SIGTERM, with a run in flight and an
/// idle client connected: the loop returns without waiting for either, the
/// manifest still says `running`, the journal holds what completed, and a
/// second daemon started with `resume` finishes the run by replay.
#[test]
fn term_returns_at_once_and_resume_replays_the_interrupted_run() {
    let dir = scratch("term");
    let workflow = write_slow_chain(&dir, &[10, 400, 400, 400]);
    let d = spawn_daemon(config(&dir, ""), false);

    let run = d.submit(&workflow, obj(vec![]));
    let run_dir = PathBuf::from(str_field(&d.status_of(run), "run_dir"));
    assert!(
        simtest::wait_until(WAIT, || num_field(&d.status_of(run), "appended") >= 1),
        "first step never journaled"
    );
    let mut idle = d.connect();
    let mut parked = d.connect();
    parked.send(&cmd_run("wait", run));
    d.ping();

    d.stop.term();
    d.exited().unwrap();
    assert!(idle.at_eof() && parked.recv().is_none());
    assert_eq!(RunRecord::load(&run_dir).unwrap().state, RunState::Running);
    let journal = run_dir
        .join("ckpt")
        .join(cwl_parsl::checkpoint::JOURNAL_FILE);
    assert!(std::fs::metadata(&journal).unwrap().len() > 0);

    let d = spawn_daemon(config(&dir, ""), true);
    let done = d.request(&cmd_run("wait", run)).unwrap();
    assert_eq!(str_field(&done, "state"), "completed");
    assert!(num_field(&done, "replayed") > 0, "{}", proto::render(&done));
    assert_eq!(
        RunRecord::load(&run_dir).unwrap().state,
        RunState::Completed
    );
    d.request(&cmd("drain")).unwrap();
    d.exited().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a hostile client sends, and what (if anything) it gets back.
struct Hostile {
    name: &'static str,
    bytes: Vec<u8>,
    /// Close the sending side after `bytes`.
    half_close: bool,
    reply: Expect,
}

enum Expect {
    /// An `ok: false` frame carrying this text.
    Error(String),
    /// No frame, and the connection stays open: nothing to answer yet.
    Silence,
    /// No frame, and the daemon closes: the client went away.
    Eof,
}

/// The error text `proto::read_frame` gives for `bytes` followed by EOF —
/// what the parent's blocking reader answered, and so what the buffered
/// reader must.
fn read_frame_error(bytes: &[u8]) -> Expect {
    Expect::Error(proto::read_frame(&mut &bytes[..]).unwrap_err())
}

fn framed(body: &[u8]) -> Vec<u8> {
    let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(body);
    bytes
}

/// Hostile clients. For every row: an honest `ping` made *while the hostile
/// connection is still open* is answered within [`PING_TIMEOUT`] (at the
/// parent the first row starves it for 10 s); rows that amount to a
/// malformed request get the text `read_frame` has always given; a submit
/// naming a FIFO is refused at admission without the loop opening it
/// (opened, it would block the loop in `open(2)` for want of a writer);
/// nothing
/// panics; connections that never complete a request are dropped at the
/// request deadline with no other client noticing; and the daemon still
/// drains and exits afterwards.
#[test]
fn hostile_clients_cost_a_poll_slot_and_nothing_else() {
    let dir = scratch("hostile");
    let tool = write_slow_tool(&dir);
    let d = spawn_daemon(config(&dir, ""), false);
    // Something for the half-closing `wait` row to be parked on.
    let slow = d.submit(&tool, ms_inputs(1500));

    let oversized = (proto::MAX_FRAME + 1).to_be_bytes().to_vec();
    let mut wait_frame = Vec::new();
    proto::write_frame(&mut wait_frame, &cmd_run("wait", slow)).unwrap();
    let mut submit_frame = Vec::new();
    proto::write_frame(
        &mut submit_frame,
        &obj(vec![("cmd", s("submit")), ("cwl", s("/nowhere.cwl"))]),
    )
    .unwrap();
    let cut_submit = submit_frame[..submit_frame.len() - 5].to_vec();
    // A FIFO with no writer: opening it would block the loop thread.
    let fifo = dir.join("pipe.cwl");
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .unwrap();
    assert!(made.success());
    let mut fifo_frame = Vec::new();
    proto::write_frame(
        &mut fifo_frame,
        &obj(vec![
            ("cmd", s("submit")),
            ("cwl", s(fifo.display().to_string())),
            ("tenant", s("alice")),
        ]),
    )
    .unwrap();

    let rows = vec![
        Hostile {
            name: "connects and never sends",
            bytes: vec![],
            half_close: false,
            reply: Expect::Silence,
        },
        Hostile {
            name: "two of four header bytes, then silence",
            bytes: vec![0, 0],
            half_close: false,
            reply: Expect::Silence,
        },
        Hostile {
            name: "header announcing MAX_FRAME + 1",
            reply: read_frame_error(&oversized),
            bytes: oversized,
            half_close: false,
        },
        Hostile {
            name: "body is not UTF-8",
            reply: read_frame_error(&framed(&[0xff, 0xfe, 0xfd])),
            bytes: framed(&[0xff, 0xfe, 0xfd]),
            half_close: false,
        },
        Hostile {
            name: "body is not JSON",
            reply: read_frame_error(&framed(b"drain, please")),
            bytes: framed(b"drain, please"),
            half_close: false,
        },
        Hostile {
            name: "JSON without cmd",
            bytes: framed(b"{\"run\": 0}"),
            half_close: false,
            reply: Expect::Error("unknown command None".to_string()),
        },
        Hostile {
            name: "half-close in the middle of a submit",
            reply: read_frame_error(&cut_submit),
            bytes: cut_submit,
            half_close: true,
        },
        Hostile {
            name: "submit naming a FIFO",
            bytes: fifo_frame,
            half_close: false,
            reply: Expect::Error("admission rejected: 1 error(s), 0 warning(s)".to_string()),
        },
        Hostile {
            name: "half-close after a complete wait",
            bytes: wait_frame,
            half_close: true,
            reply: Expect::Eof,
        },
    ];

    // Every row's connection stays open until the end of the test.
    let mut open = Vec::new();
    for row in rows {
        let mut c = Client::connect(&d.socket, PING_TIMEOUT);
        c.send_bytes(&row.bytes);
        if row.half_close {
            c.0.shutdown(Shutdown::Write).unwrap();
        }
        let pong = d.ping();
        assert_eq!(field(&pong, "ok"), &Json::Bool(true), "row: {}", row.name);
        match &row.reply {
            Expect::Error(text) => {
                let resp = c
                    .recv()
                    .unwrap_or_else(|| panic!("row `{}` got no reply", row.name));
                assert_eq!(field(&resp, "ok"), &Json::Bool(false), "row: {}", row.name);
                assert_eq!(str_field(&resp, "error"), text, "row: {}", row.name);
                assert!(c.at_eof(), "row: {}", row.name);
            }
            Expect::Eof => assert!(c.at_eof(), "row: {}", row.name),
            Expect::Silence => {}
        }
        open.push((row, c));
    }

    // Sixty-four idle connections at once, then gone again.
    let crowd: Vec<Client> = (0..64).map(|_| d.connect()).collect();
    d.ping();
    drop(crowd);
    d.ping();

    // The silent rows are dropped at their deadline — a blocking read sees
    // EOF, not a frame — and the honest client between them sees nothing.
    for (row, c) in &mut open {
        if matches!(row.reply, Expect::Silence) {
            c.0.set_read_timeout(Some(WAIT)).unwrap();
            assert!(c.at_eof(), "row `{}` was not dropped", row.name);
            d.ping();
        }
    }

    assert_eq!(
        str_field(&d.request(&cmd_run("wait", slow)).unwrap(), "state"),
        "completed"
    );
    d.request(&cmd("drain")).unwrap();
    d.exited().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
