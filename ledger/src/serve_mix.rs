//! `serve_mix`: one warm `parsl-serve` daemon under an **open-loop** load.
//!
//! Independent users do not wait for each other, so arrivals follow a
//! seeded Poisson schedule regardless of how the daemon is doing; a closed
//! loop would phase-lock its clients on the daemon's accept loop and send a
//! slow daemon less load. One submitter thread sends each run when it is
//! due (a seeded 50/50 mix of `diamond.cwl`, four dependent tasks, and
//! `scatter_words_py.cwl` over 16 words); one poller thread asks
//! `status {run}` with seeded 0.5–1.5 ms jitter between requests. A run's
//! latency is timed from its *due* time to the first `completed` status,
//! which counts the wait a stall imposes on later arrivals; how late the
//! generator itself ran is reported as `serve.generator_late_p95_ms`.
//!
//! `serve`, `core::proto`, admission `cwl::analyze`, per-run `ckpt`
//! journals and manifest writes dominate; task bodies are trivial.
//!
//! The daemon is this executable re-run in a hidden mode that does exactly
//! what `parsl-serve`'s `main` does (`load_config_file`, `serve_daemon`),
//! so the served code is the code this build compiled, it runs with
//! `TimeScale 0` like every other leg, and the ledger needs no binary from
//! another package.

use crate::gen::{self, Arrival, Doc, PollJitter};
use crate::harness::{self, Ctx, Report, CHILD_PID, RUN_TIMEOUT, SLOTS};
use crate::stats;
use crate::trace::Recorder;
use cwl_parsl::proto::{self, obj, s};
use obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// First argument that turns this executable into the daemon.
pub const DAEMON_FLAG: &str = "--serve-daemon";

/// Open-loop arrival rate, runs per second.
pub const RATE_PER_S: f64 = 20.0;
/// Words per `scatter_words_py.cwl` submission.
pub const WORDS_PER_RUN: usize = 16;
/// The tail this workload states: p90 of run latency. Beyond it the
/// latencies are sparse stalls, too few in a 10 s window to pin a p95.
const TAIL_PERCENTILE: usize = 90;
/// Warm-up runs of each document that end a set-up.
const WARM_RUNS: usize = 2;
/// Length of each of the two windows of a traced run, in seconds.
const TRACE_WINDOW_S: f64 = 4.0;

/// The hidden daemon mode: `parsl-serve <config.yml>` by another name.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let [config_path] = args else {
        return Err(format!("{DAEMON_FLAG} takes exactly one config path"));
    };
    gridsim::TimeScale::set(crate::spec::TIME_SCALE);
    let config = cwl_parsl::load_config_file(config_path)?;
    serve::serve_daemon(config, false)
}

/// A running daemon child. Dropping it kills the child, so a panic or an
/// early return never leaves a daemon behind.
struct Daemon {
    child: Child,
    socket: PathBuf,
    start_s: f64,
}

/// `path` relative to the current directory when it lies below it: Unix
/// socket addresses are limited to ~100 bytes and a checkout may sit deep.
fn short_path(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

impl Daemon {
    /// Write the config, spawn the daemon, and wait for its first `ping`.
    fn start(dir: &Path) -> Result<Self, String> {
        harness::fresh_dir(dir)?;
        let config_path = dir.join("serve.yml");
        // The socket is named relative to the daemon's working directory
        // (`dir`), again to stay within the address limit.
        // Each served run gets a directory under `work/runs`; let them
        // spread over the disk like the batch workloads' workdirs do.
        let runs_dir = dir.join("work").join("runs");
        std::fs::create_dir_all(&runs_dir).map_err(|e| format!("{}: {e}", runs_dir.display()))?;
        harness::spread_children(&runs_dir);
        harness::write_file(
            &config_path,
            &format!(
                "executor:\n  kind: thread-pool\n  workers: {SLOTS}\nstaging:\n  mode: auto\nrun:\n  workdir: {}\n  builtin_tools: true\nserve:\n  socket: s.sock\n  max_in_flight: 2\n  queue_cap: 256\n  default_weight: 1.0\n  tenants:\n    {}: 2.0\n    {}: 1.0\n",
                dir.join("work").display(),
                gen::TENANTS[0],
                gen::TENANTS[1],
            ),
        )?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let log = std::fs::File::create(dir.join("daemon.log"))
            .map_err(|e| format!("daemon log: {e}"))?;
        let t = Instant::now();
        let child = Command::new(exe)
            .arg(DAEMON_FLAG)
            .arg(&config_path)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        CHILD_PID.store(child.id(), Ordering::SeqCst);
        let mut daemon = Daemon {
            child,
            socket: short_path(&dir.join("s.sock")),
            start_s: 0.0,
        };
        let ping = obj(vec![("cmd", s("ping"))]);
        let up = simtest::wait_until(Duration::from_secs(20), || {
            daemon.socket.exists() && proto::request(&daemon.socket, &ping).is_ok()
        });
        if !up {
            let log = std::fs::read_to_string(dir.join("daemon.log")).unwrap_or_default();
            return Err(format!("daemon did not answer a ping within 20 s: {log}"));
        }
        daemon.start_s = t.elapsed().as_secs_f64();
        Ok(daemon)
    }

    fn request(&self, req: &Json) -> Result<Json, String> {
        proto::request(&self.socket, req)
    }

    /// [`Daemon::request`], recorded as a span of the run `parent` when
    /// tracing.
    fn request_spanned(
        &self,
        tracing: Option<(&Recorder, u64)>,
        name: &'static str,
        parent: u64,
        req: &Json,
    ) -> Result<Json, String> {
        match tracing {
            Some((rec, _)) => rec.span(name, parent, parent, |_| self.request(req)).0,
            None => self.request(req),
        }
    }

    /// Ask the daemon to drain and wait for it to exit; returns the time
    /// that took in seconds.
    fn drain(mut self) -> Result<f64, String> {
        let t = Instant::now();
        self.request(&obj(vec![("cmd", s("drain"))]))?;
        let exited = simtest::wait_until(Duration::from_secs(30), || {
            matches!(self.child.try_wait(), Ok(Some(_)))
        });
        if !exited {
            return Err("daemon did not exit within 30 s of drain".to_string());
        }
        Ok(t.elapsed().as_secs_f64())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        CHILD_PID.store(0, Ordering::SeqCst);
    }
}

/// One submission: the request to send and the output bytes to expect.
struct Submission {
    request: Json,
    /// (output key, expected text of each file in order).
    expected: (&'static str, Vec<String>),
}

/// Seeded inputs for arrival number `index`.
fn submission(ctx: &Ctx, index: usize, arrival: &Arrival) -> Submission {
    let words = gen::words(WORDS_PER_RUN, ctx.seed ^ ((index as u64 + 1) << 20));
    let (cwl, inputs, expected) = match arrival.doc {
        Doc::Diamond => {
            let message = format!("{}-{index}", words[0]);
            (
                "diamond.cwl",
                obj(vec![("message", s(message.clone()))]),
                ("joined", vec![format!("{message}\n{message}\n")]),
            )
        }
        Doc::Words => (
            "scatter_words_py.cwl",
            obj(vec![(
                "words",
                Json::Arr(words.iter().map(|w| s(w.clone())).collect()),
            )]),
            (
                "capitalized",
                words
                    .iter()
                    .map(|w| format!("{}\n", gen::title_case(w)))
                    .collect(),
            ),
        ),
    };
    Submission {
        request: obj(vec![
            ("cmd", s("submit")),
            ("cwl", s(ctx.fixtures.join(cwl).display().to_string())),
            ("inputs", inputs),
            ("tenant", s(arrival.tenant)),
        ]),
        expected,
    }
}

/// Do a completed run's `outputs` hold exactly the expected bytes?
fn outputs_match(snapshot: &Json, expected: &(&'static str, Vec<String>)) -> bool {
    let (key, texts) = expected;
    let Some(value) = snapshot.get("outputs").and_then(|o| o.get(key)) else {
        return false;
    };
    let files: Vec<&Json> = match value {
        Json::Arr(items) => items.iter().collect(),
        single => vec![single],
    };
    files.len() == texts.len()
        && files.iter().zip(texts).all(|(f, want)| {
            f.get("path")
                .and_then(Json::as_str)
                .and_then(|p| std::fs::read_to_string(p).ok())
                .is_some_and(|got| got == *want)
        })
}

/// A submitted run the poller is watching.
struct Pending {
    run: u64,
    due: Instant,
    doc: Doc,
    expected: (&'static str, Vec<String>),
    /// Span id of this run when tracing.
    span: u64,
    span_start_ns: u64,
}

/// What one open-loop window measured.
#[derive(Default)]
struct Window {
    submitted: usize,
    failed: usize,
    latency_ms: Vec<f64>,
    diamond_ms: Vec<f64>,
    words_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    status_rtt_ms: Vec<f64>,
    polls: u64,
    notes: Vec<String>,
}

/// Run one open-loop window against `daemon`. With `tracing`, every run,
/// submit round trip and status poll is recorded as a span under the root.
fn open_loop(
    ctx: &Ctx,
    daemon: &Daemon,
    schedule: &[Arrival],
    tracing: Option<(&Recorder, u64)>,
) -> Window {
    // Every run has its own 60 s deadline in the poller; this one covers a
    // daemon that stops answering requests altogether.
    let window = schedule.last().map_or(Duration::ZERO, |a| a.due);
    let _deadline = harness::Watchdog::arm(
        "serve_mix window",
        ctx.scratch.path(),
        window + 2 * RUN_TIMEOUT,
    );
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut w = Window::default();
            for (index, arrival) in schedule.iter().enumerate() {
                let sub = submission(ctx, index, arrival);
                let due = start + arrival.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                w.late_ms.push((sent - due).as_secs_f64() * 1e3);
                // The run's span starts at its due time, not at the send.
                let (span, span_start_ns) = match tracing {
                    Some((rec, _)) => (
                        rec.next_id(),
                        rec.now_ns().saturating_sub((sent - due).as_nanos() as u64),
                    ),
                    None => (0, 0),
                };
                let ack = daemon.request_spanned(tracing, "serve.submit", span, &sub.request);
                w.ack_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                w.submitted += 1;
                match ack.as_ref().map(|a| a.get("run").and_then(Json::as_u64)) {
                    Ok(Some(run)) => {
                        let _ = tx.send(Pending {
                            run,
                            due,
                            doc: arrival.doc,
                            expected: sub.expected,
                            span,
                            span_start_ns,
                        });
                    }
                    Ok(None) => {
                        w.failed += 1;
                        w.notes
                            .push(format!("run {index}: submit ack without a run id"));
                    }
                    Err(e) => {
                        w.failed += 1;
                        w.notes.push(format!("run {index}: submit refused: {e}"));
                    }
                }
            }
            drop(tx);
            w
        });

        // The poller runs on this thread.
        let mut w = Window::default();
        let mut jitter = PollJitter::new(ctx.seed);
        let mut pending: Vec<Pending> = Vec::new();
        let mut submitting = true;
        let mut next = 0usize;
        while submitting || !pending.is_empty() {
            loop {
                match rx.try_recv() {
                    Ok(p) => pending.push(p),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        submitting = false;
                        break;
                    }
                }
            }
            std::thread::sleep(jitter.next());
            if pending.is_empty() {
                continue;
            }
            next %= pending.len();
            let p = &pending[next];
            let req = obj(vec![("cmd", s("status")), ("run", Json::Num(p.run as f64))]);
            let t = Instant::now();
            let resp = daemon.request_spanned(tracing, "serve.status", p.span, &req);
            let seen = Instant::now();
            w.status_rtt_ms.push((seen - t).as_secs_f64() * 1e3);
            w.polls += 1;
            let snapshot = resp.as_ref().ok().and_then(|r| match r.get("runs") {
                Some(Json::Arr(runs)) => runs.first(),
                _ => None,
            });
            let state = snapshot.and_then(|r| r.get("state")).and_then(Json::as_str);
            let verdict = match state {
                Some("completed") => {
                    let snapshot = snapshot.expect("state came from the snapshot");
                    Some(
                        outputs_match(snapshot, &p.expected)
                            .then_some(())
                            .ok_or_else(|| {
                                format!("run {}: outputs are not the expected bytes", p.run)
                            }),
                    )
                }
                Some("failed") | Some("cancelled") => Some(Err(format!(
                    "run {} ended {}: {}",
                    p.run,
                    state.unwrap_or_default(),
                    snapshot
                        .and_then(|r| r.get("error"))
                        .and_then(Json::as_str)
                        .unwrap_or("no error text")
                ))),
                _ if seen - p.due > RUN_TIMEOUT => Some(Err(format!(
                    "run {} not completed {} s after it was due",
                    p.run,
                    RUN_TIMEOUT.as_secs()
                ))),
                _ => None,
            };
            let Some(verdict) = verdict else {
                next += 1;
                continue;
            };
            let p = pending.swap_remove(next);
            if let Some((rec, root)) = tracing {
                rec.record(p.span, root, p.span, "serve.run", p.span_start_ns);
            }
            match verdict {
                Ok(()) => {
                    let ms = (seen - p.due).as_secs_f64() * 1e3;
                    w.latency_ms.push(ms);
                    match p.doc {
                        Doc::Diamond => w.diamond_ms.push(ms),
                        Doc::Words => w.words_ms.push(ms),
                    }
                }
                Err(e) => {
                    w.failed += 1;
                    w.notes.push(e);
                }
            }
        }
        let sub = submitter.join().expect("submitter thread panicked");
        w.submitted = sub.submitted;
        w.failed += sub.failed;
        w.ack_ms = sub.ack_ms;
        w.late_ms = sub.late_ms;
        w.notes.extend(sub.notes);
        w
    })
}

/// Warm-up: a few runs of each document, spaced so each finishes before the
/// next, so the kernel's threads, the expression caches and the store are
/// warm.
fn warm_up(ctx: &Ctx, daemon: &Daemon, report: &mut Report) {
    let schedule: Vec<Arrival> = (0..WARM_RUNS * 2)
        .map(|i| Arrival {
            // Far enough apart that each run finishes before the next.
            due: Duration::from_millis(150 * i as u64),
            doc: if i % 2 == 0 { Doc::Diamond } else { Doc::Words },
            tenant: gen::TENANTS[i % gen::TENANTS.len()],
        })
        .collect();
    let w = open_loop(ctx, daemon, &schedule, None);
    report.count(w.submitted, w.failed);
    report.notes.extend(w.notes);
}

/// Start a daemon and warm it up, several times (the previous daemon is
/// dropped, which kills it, before the next starts).
fn start_warm(ctx: &Ctx, report: &mut Report) -> Result<Daemon, String> {
    harness::repeat_setup(ctx, report, |report| {
        let d = Daemon::start(&ctx.scratch.unique("serve"))?;
        warm_up(ctx, &d, report);
        Ok(d)
    })
}

fn window_seconds(ctx: &Ctx, full: f64) -> Duration {
    Duration::from_secs_f64(if ctx.smoke { full.min(1.0) } else { full })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let daemon = start_warm(ctx, &mut report)?;
    if ctx.trace {
        return trace(ctx, daemon, report);
    }
    let schedule = gen::poisson_schedule(RATE_PER_S, window_seconds(ctx, ctx.seconds), ctx.seed);
    let w = open_loop(ctx, &daemon, &schedule, None);
    report.count(w.submitted, w.failed);
    report.notes.extend(w.notes);
    report.tail_percentile = TAIL_PERCENTILE;
    let tail = stats::tail(&w.latency_ms, TAIL_PERCENTILE);
    report.note(format!(
        "serve_mix: {} runs due over {:.1} s at {RATE_PER_S}/s, {} completed; p50 {:.2} ms, p{} {:.2} ms from {} samples; generator late p95 {:.2} ms",
        schedule.len(),
        window_seconds(ctx, ctx.seconds).as_secs_f64(),
        w.latency_ms.len(),
        stats::median(&w.latency_ms),
        tail.percentile,
        tail.value,
        tail.samples,
        stats::percentile(&w.late_ms, 95),
    ));
    report.run_ms = w.latency_ms;
    // The daemon hosts the system under test: its peak, read before drain.
    report.peak_rss_mb = harness::peak_rss_mb(Some(daemon.child.id()));
    daemon.drain()?;
    Ok(report)
}

fn trace(ctx: &Ctx, daemon: Daemon, mut report: Report) -> Result<Report, String> {
    report.layer("serve.start_ms", daemon.start_s * 1e3);
    let ping = obj(vec![("cmd", s("ping"))]);
    let mut ping_ms = Vec::new();
    for _ in 0..50 {
        let (res, secs) = harness::timed(|| daemon.request(&ping));
        res?;
        ping_ms.push(secs * 1e3);
    }
    report.layer("serve.ping_rtt_p50_ms", stats::median(&ping_ms));

    // Two windows on the same warm daemon: untraced, then traced.
    let window = window_seconds(ctx, TRACE_WINDOW_S);
    let untraced = open_loop(
        ctx,
        &daemon,
        &gen::poisson_schedule(RATE_PER_S, window, ctx.seed),
        None,
    );
    report.count(untraced.submitted, untraced.failed);
    report.notes.extend(untraced.notes);

    let rec = Recorder::new();
    let root = rec.next_id();
    let start = rec.now_ns();
    let schedule = gen::poisson_schedule(RATE_PER_S, window, ctx.seed.wrapping_add(1));
    let w = open_loop(ctx, &daemon, &schedule, Some((&rec, root)));
    rec.record(root, 0, 0, "ledger.window", start);
    report.count(w.submitted, w.failed);
    report.notes.extend(w.notes);

    report.layer("serve.submit_ack_p50_ms", stats::median(&w.ack_ms));
    report.layer("serve.submit_ack_p95_ms", stats::percentile(&w.ack_ms, 95));
    report.layer("serve.status_rtt_p50_ms", stats::median(&w.status_rtt_ms));
    report.layer(
        "serve.polls_per_run",
        w.polls as f64 / w.latency_ms.len().max(1) as f64,
    );
    report.layer(
        "serve.generator_late_p95_ms",
        stats::percentile(&w.late_ms, 95),
    );
    report.layer("serve.diamond_p50_ms", stats::median(&w.diamond_ms));
    report.layer("serve.words_p50_ms", stats::median(&w.words_ms));
    report.layer(
        "ledger.trace_overhead_frac",
        stats::median(&w.latency_ms) / stats::median(&untraced.latency_ms).max(1e-9) - 1.0,
    );

    // What the daemon's journals and manifests recorded for those runs.
    let status = daemon.request(&obj(vec![("cmd", s("status"))]))?;
    let mut appended = 0.0;
    let mut replayed = 0.0;
    let mut journal_bytes = 0u64;
    if let Some(Json::Arr(runs)) = status.get("runs") {
        for run in runs {
            appended += run.get("appended").and_then(Json::as_f64).unwrap_or(0.0);
            replayed += run.get("replayed").and_then(Json::as_f64).unwrap_or(0.0);
            if let Some(dir) = run.get("run_dir").and_then(Json::as_str) {
                let journal = Path::new(dir)
                    .join("ckpt")
                    .join(cwl_parsl::checkpoint::JOURNAL_FILE);
                journal_bytes += std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    report.layer("ckpt.appended", appended);
    report.layer("ckpt.replayed", replayed);
    report.layer("ckpt.journal_bytes", journal_bytes as f64);

    if let Some(first) = schedule.first() {
        crate::probes::proto(&mut report, &submission(ctx, 0, first).request)?;
    }
    crate::probes::admission(ctx, &mut report)?;

    let pid = daemon.child.id();
    report.layer("serve.daemon_cpu_s", harness::cpu_s(pid));
    report.layer("serve.drain_ms", daemon.drain()? * 1e3);
    harness::finish_trace("serve_mix", &rec, root, &mut report)?;
    Ok(report)
}
