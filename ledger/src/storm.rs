//! No-op `FnApp` storms straight into `DataFlowKernel::submit`:
//! `parsl::{dfk, htex, executor, future, monitoring}` and the vendored
//! `crossbeam` do all the work and every CWL and data layer does none.
//!
//! `task_storm` submits independent tasks (wide): queue- and
//! lock-throughput-bound. `storm_chain` submits four dependency chains:
//! per-hop-latency-bound (futures, wake-ups). Batching or lock changes that
//! help one and hurt the other show up as a disagreement between the two.

use crate::harness::{self, Ctx, Report, SLOTS};
use crate::trace::Recorder;
use parsl::{AppArg, AppFuture, Config, DataFlowKernel, FnApp, HtexConfig, LocalProvider};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yamlite::Value;

/// Independent tasks per wide storm.
pub const WIDE_TASKS: usize = 30_000;
/// Dependency chains and tasks per chain.
pub const CHAINS: usize = 4;
pub const CHAIN_LEN: usize = 3_000;
/// Serial submit→result round trips of the latency probe.
const RTT_PINGS: usize = 10_000;
/// Tasks of the modelled-latency storm (`TimeScale 1.0`, `cluster_lan`).
const LAN_TASKS: usize = 20_000;

/// HTEX with two nodes of one worker each on the local provider: two slots.
fn htex() -> Result<Arc<DataFlowKernel>, String> {
    DataFlowKernel::try_new(Config::htex(
        HtexConfig {
            label: "ledger-storm".to_string(),
            nodes: SLOTS,
            workers_per_node: 1,
            latency: gridsim::LatencyModel::cluster_lan(),
            ..HtexConfig::default()
        },
        Arc::new(LocalProvider::new(1)),
    ))
}

fn threadpool() -> Result<Arc<DataFlowKernel>, String> {
    DataFlowKernel::try_new(Config::local_threads(SLOTS))
}

fn noop() -> parsl::AppBody {
    FnApp::new(|_: &[Value]| Ok(Value::Null))
}

/// A chain link: its predecessor's value plus one.
fn link() -> parsl::AppBody {
    FnApp::new(|v: &[Value]| {
        v[0].as_int()
            .map(|n| Value::Int(n + 1))
            .ok_or_else(|| parsl::TaskError::failed("chain link got a non-integer"))
    })
}

/// Timings of one storm on a fresh kernel.
struct Storm {
    start_s: f64,
    submit_s: f64,
    drain_s: f64,
    shutdown_s: f64,
    completed: usize,
}

impl Storm {
    /// First submit to `wait_all` return.
    fn wall_s(&self) -> f64 {
        self.submit_s + self.drain_s
    }
}

/// Where spans go when tracing: the recorder and the root span.
type Tracing<'a> = Option<(&'a Recorder, u64)>;

fn spanned<T>(tracing: Tracing, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match tracing {
        Some((rec, root)) => rec.span(name, root, 1, |_| f()),
        None => harness::timed(f),
    }
}

/// One storm on a fresh kernel: start it, `submit` everything, wait for
/// all of it, shut down. Returns the timings and whatever `submit` kept.
fn storm<T>(
    make: fn() -> Result<Arc<DataFlowKernel>, String>,
    tracing: Tracing,
    submit: impl FnOnce(&Arc<DataFlowKernel>) -> T,
) -> Result<(Storm, T), String> {
    let (dfk, start_s) = spanned(tracing, "parsl.dfk_start", make);
    let dfk = dfk?;
    let (kept, submit_s) = spanned(tracing, "parsl.submit", || submit(&dfk));
    let ((), drain_s) = spanned(tracing, "parsl.drain", || dfk.wait_all());
    let completed = dfk.monitoring().summary().completed;
    let ((), shutdown_s) = spanned(tracing, "parsl.shutdown", || dfk.shutdown());
    Ok((
        Storm {
            start_s,
            submit_s,
            drain_s,
            shutdown_s,
            completed,
        },
        kept,
    ))
}

/// `tasks` independent no-ops.
fn wide(
    make: fn() -> Result<Arc<DataFlowKernel>, String>,
    tasks: usize,
    tracing: Tracing,
) -> Result<Storm, String> {
    let (s, ()) = storm(make, tracing, |dfk| {
        for _ in 0..tasks {
            dfk.submit("noop", vec![], noop());
        }
    })?;
    Ok(s)
}

/// [`CHAINS`] chains of `len` dependent tasks on HTEX; returns the timings
/// and each chain's final value.
fn chains(len: usize, tracing: Tracing) -> Result<(Storm, Vec<Option<i64>>), String> {
    let (s, tails) = storm(htex, tracing, |dfk| {
        let mut tails: Vec<AppFuture> = Vec::with_capacity(CHAINS);
        for _ in 0..CHAINS {
            let mut prev = dfk.submit("link", vec![AppArg::value(-1i64)], link());
            for _ in 1..len {
                prev = dfk.submit("link", vec![AppArg::future(&prev)], link());
            }
            tails.push(prev);
        }
        tails
    })?;
    let ends = tails
        .iter()
        .map(|f| f.result().ok().and_then(|v| v.as_int()))
        .collect();
    Ok((s, ends))
}

/// `parsl.task_rtt_us`: serial submit→`result()` ping-pongs on an idle HTEX.
fn task_rtt_us(pings: usize) -> Result<f64, String> {
    let dfk = htex()?;
    // Let the pool finish starting before timing single hops.
    dfk.submit("noop", vec![], noop())
        .result()
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    for _ in 0..pings {
        dfk.submit("noop", vec![], noop())
            .result()
            .map_err(|e| e.to_string())?;
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / pings.max(1) as f64;
    dfk.shutdown();
    Ok(us)
}

fn storm_layers(report: &mut Report, s: &Storm, tasks: usize) {
    report.layer("parsl.dfk_start_ms", s.start_s * 1e3);
    report.layer("parsl.dfk_shutdown_ms", s.shutdown_s * 1e3);
    report.layer("parsl.submit_us", s.submit_s * 1e6 / tasks.max(1) as f64);
    report.layer("parsl.drain_s", s.drain_s);
    report.layer("parsl.tasks_per_s", tasks as f64 / s.wall_s().max(1e-9));
}

/// First argument of the hidden mode that runs one storm in this process
/// and prints its outcome on one line.
pub const ITERATION_FLAG: &str = "--storm-iteration";

/// What one storm in a child process reports.
struct ChildStorm {
    wall_ms: f64,
    completed: usize,
    peak_rss_mb: f64,
    ends: Vec<Option<i64>>,
}

/// The hidden mode: `--storm-iteration <wide|chain> <n>`. Prints
/// `wall_ms completed peak_rss_mb [chain ends…]`.
pub fn iteration_main(args: &[String]) -> Result<(), String> {
    let [kind, n] = args else {
        return Err(format!("{ITERATION_FLAG} takes a kind and a size"));
    };
    let n: usize = n.parse().map_err(|_| format!("bad storm size {n:?}"))?;
    gridsim::TimeScale::set(crate::spec::TIME_SCALE);
    let (s, ends) = match kind.as_str() {
        "wide" => (wide(htex, n, None)?, Vec::new()),
        "chain" => chains(n, None)?,
        other => return Err(format!("unknown storm kind {other:?}")),
    };
    let ends: Vec<String> = ends
        .iter()
        .map(|e| e.map_or("none".to_string(), |v| v.to_string()))
        .collect();
    println!(
        "{} {} {} {}",
        s.wall_s() * 1e3,
        s.completed,
        harness::peak_rss_mb(None),
        ends.join(" ")
    );
    Ok(())
}

/// Run one storm in a child process.
///
/// Each timed storm gets a process of its own because a process settles
/// into one of several scheduling modes: the same 12 000-task chain storm
/// takes about 57, 110, 125 or 145 ms per iteration depending on the
/// process it runs in, every iteration inside that process shares the mode,
/// and a run's median then reports the mode rather than the code. A fresh
/// process per iteration samples the modes, so the run's median is steady.
fn child_storm(kind: &str, n: usize) -> Result<ChildStorm, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = std::process::Command::new(exe)
        .args([ITERATION_FLAG, kind, &n.to_string()])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning a {kind} storm: {e}"))?;
    // The watchdog kills this child if the storm hangs.
    harness::CHILD_PID.store(child.id(), std::sync::atomic::Ordering::SeqCst);
    let out = child.wait_with_output();
    harness::CHILD_PID.store(0, std::sync::atomic::Ordering::SeqCst);
    let out = out.map_err(|e| format!("waiting for a {kind} storm: {e}"))?;
    if !out.status.success() {
        return Err(format!("{kind} storm exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace();
    let mut number = |what: &str| {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{kind} storm printed no {what}: {text:?}"))
    };
    let wall_ms = number("wall")?;
    let completed = number("completed count")? as usize;
    let peak_rss_mb = number("peak RSS")?;
    Ok(ChildStorm {
        wall_ms,
        completed,
        peak_rss_mb,
        ends: fields.map(|f| f.parse().ok()).collect(),
    })
}

/// Storms that end each set-up (the executable and its libraries paged in,
/// the machine's caches warm). Three of them, because a single 0.1 s storm
/// is too short for `setup_s` to be steady.
const WARM_STORMS: usize = 3;

/// How long untimed storms run before anything is timed. A process tree
/// that starts after the machine was idle runs faster for about its first
/// second (the VM's CPU burst allowance): a chain storm takes 65 ms instead
/// of 160 ms. A storm set-up is nothing but storms, so a run that began
/// inside the allowance reported half the set-up time of one that did not;
/// the allowance is spent here first.
const SETTLE: Duration = Duration::from_millis(1500);

fn warm_up(ctx: &Ctx, report: &mut Report, kind: &str, n: usize) -> Result<(), String> {
    let start = Instant::now();
    while !ctx.smoke && start.elapsed() < SETTLE {
        child_storm(kind, n)?;
    }
    harness::repeat_setup(ctx, report, |_| {
        (0..WARM_STORMS).try_for_each(|_| child_storm(kind, n).map(|_| ()))
    })
}

pub fn run_wide(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let tasks = ctx.size(WIDE_TASKS);
    warm_up(ctx, &mut report, "wide", tasks)?;
    if ctx.trace {
        return trace_wide(ctx, tasks, report);
    }
    let mut peaks_mb = Vec::new();
    harness::measure_loop(
        ctx,
        "task_storm iteration",
        3,
        &mut report,
        tasks,
        |_, r| {
            let s = child_storm("wide", tasks)?;
            r.count(tasks, tasks.saturating_sub(s.completed));
            peaks_mb.push(s.peak_rss_mb);
            Ok(s.wall_ms)
        },
    );
    // The usual peak of a storm process: how far submission runs ahead of
    // the workers varies from process to process, so the largest of their
    // peaks is an extreme, not a measurement.
    report.peak_rss_mb = crate::stats::median(&peaks_mb);
    Ok(report)
}

/// Count a chain storm: every task must complete and every chain must end
/// at `len − 1` (a broken chain fails all of its tasks).
fn check_chains(report: &mut Report, completed: usize, ends: &[Option<i64>], len: usize) {
    let tasks = CHAINS * len;
    let broken = ends.iter().filter(|e| **e != Some(len as i64 - 1)).count()
        + CHAINS.saturating_sub(ends.len());
    if broken > 0 {
        report.note(format!("chain ends {ends:?}, expected {}", len - 1));
    }
    report.count(tasks, tasks.saturating_sub(completed).max(broken * len));
}

pub fn run_chain(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let len = ctx.size(CHAIN_LEN);
    warm_up(ctx, &mut report, "chain", len)?;
    if ctx.trace {
        return trace_chain(len, report);
    }
    let mut peaks_mb = Vec::new();
    harness::measure_loop(
        ctx,
        "storm_chain iteration",
        3,
        &mut report,
        CHAINS * len,
        |_, r| {
            let s = child_storm("chain", len)?;
            check_chains(r, s.completed, &s.ends, len);
            peaks_mb.push(s.peak_rss_mb);
            Ok(s.wall_ms)
        },
    );
    report.peak_rss_mb = crate::stats::median(&peaks_mb);
    Ok(report)
}

fn trace_wide(ctx: &Ctx, tasks: usize, mut report: Report) -> Result<Report, String> {
    let untraced = wide(htex, tasks, None)?;
    report.count(tasks, tasks.saturating_sub(untraced.completed));

    let rec = Recorder::new();
    let root = rec.next_id();
    let start = rec.now_ns();
    let traced = wide(htex, tasks, Some((&rec, root)))?;
    rec.record(root, 0, 1, "ledger.iteration", start);
    report.count(tasks, tasks.saturating_sub(traced.completed));
    storm_layers(&mut report, &traced, tasks);
    report.layer(
        "ledger.trace_overhead_frac",
        traced.wall_s() / untraced.wall_s().max(1e-9) - 1.0,
    );

    // The thread pool on the same storm: the reference the HTEX number
    // should land within a small constant of.
    let tp = wide(threadpool, tasks, None)?;
    report.count(tasks, tasks.saturating_sub(tp.completed));
    let tp_rate = tasks as f64 / tp.wall_s().max(1e-9);
    report.layer("parsl.threadpool_tasks_per_s", tp_rate);
    report.layer(
        "parsl.htex_vs_threadpool",
        tp_rate / (tasks as f64 / traced.wall_s().max(1e-9)),
    );
    report.layer("parsl.task_rtt_us", task_rtt_us(ctx.size(RTT_PINGS))?);

    // Modelled cost, reported apart from every real-cost number: the same
    // kind of storm with the LAN latency model's sleeps switched on, minus
    // the storm with them scaled to zero.
    let lan_tasks = ctx.size(LAN_TASKS);
    let real = wide(htex, lan_tasks, None)?;
    gridsim::TimeScale::set(1.0);
    let lan = wide(htex, lan_tasks, None);
    gridsim::TimeScale::set(crate::spec::TIME_SCALE);
    let lan = lan?;
    report.count(lan_tasks, lan_tasks.saturating_sub(lan.completed));
    report.layer(
        "gridsim.lan_tasks_per_s",
        lan_tasks as f64 / lan.wall_s().max(1e-9),
    );
    report.layer(
        "gridsim.modelled_s_per_task",
        (lan.wall_s() - real.wall_s()) / lan_tasks.max(1) as f64,
    );
    report.note(format!(
        "modelled (gridsim cluster_lan at TimeScale 1.0): {lan_tasks} tasks in {:.3} s vs {:.3} s real",
        lan.wall_s(),
        real.wall_s()
    ));
    harness::finish_trace("task_storm", &rec, root, &mut report)?;
    Ok(report)
}

fn trace_chain(len: usize, mut report: Report) -> Result<Report, String> {
    let (untraced, ends) = chains(len, None)?;
    check_chains(&mut report, untraced.completed, &ends, len);

    let rec = Recorder::new();
    let root = rec.next_id();
    let start = rec.now_ns();
    let (traced, ends) = chains(len, Some((&rec, root)))?;
    rec.record(root, 0, 1, "ledger.iteration", start);
    check_chains(&mut report, traced.completed, &ends, len);
    storm_layers(&mut report, &traced, CHAINS * len);
    report.layer(
        "ledger.trace_overhead_frac",
        traced.wall_s() / untraced.wall_s().max(1e-9) - 1.0,
    );
    report.layer("parsl.task_rtt_us", task_rtt_us(len.min(RTT_PINGS))?);
    harness::finish_trace("storm_chain", &rec, root, &mut report)?;
    Ok(report)
}
