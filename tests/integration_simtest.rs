//! Deterministic simulation harness driver (DESIGN.md §4i): schedule
//! exploration over seeded scenarios, with every failure reproducible from
//! its seed.
//!
//! Two layers, with different guarantees:
//!
//! 1. **Discrete-event simulation** (`gridsim::sim`): a single-threaded
//!    virtual-time event loop whose entire run is a pure function of the
//!    seed — the event log is *byte-identical* across repeats. The invariant
//!    suite sweeps a seed matrix (50 seeds by default) and asserts no lost
//!    tasks, no double completions, and no completion from a declared-lost
//!    dispatch attempt.
//! 2. **Full multithreaded stack under a virtual clock**: the real DFK,
//!    HTEX, heartbeats, and retry backoff running on
//!    [`simtest::VirtualClock`], so timeout-scale schedules (30-second
//!    heartbeat thresholds, multi-second backoff ladders) complete in
//!    milliseconds of wall time. Thread interleavings still vary, so the
//!    assertions here are *invariants and outputs*, not event-log bytes.
//!
//! Seed selection (all env-overridable, used by ci.sh):
//! - `SIM_SEED=n`      — run exactly one seed (the replay recipe).
//! - `SIM_SEEDS=a,b,c` — run an explicit list.
//! - `SIM_SEED_BASE=b`, `SIM_SEED_COUNT=n` — run `b..b+n` (default `1..51`).

use gridsim::{FaultPlan, LatencyModel, Scenario};
use parsl::{AppArg, Config, DataFlowKernel, FnApp, HtexConfig, LocalProvider, RetryPolicy};
use simtest::{Clock as _, VirtualClock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use yamlite::Value;

// ------------------------------------------------------------ seed matrix

/// The seeds this run explores. Deterministic by default; ci.sh adds a
/// rotating run-indexed seed through `SIM_SEEDS` so the explored schedule
/// space grows across CI runs while every failure stays replayable.
fn seed_matrix() -> Vec<u64> {
    if let Ok(s) = std::env::var("SIM_SEED") {
        return vec![s.parse().expect("SIM_SEED must be a u64")];
    }
    if let Ok(s) = std::env::var("SIM_SEEDS") {
        return s
            .split(',')
            .map(|t| t.trim().parse().expect("SIM_SEEDS entries must be u64"))
            .collect();
    }
    let base: u64 = std::env::var("SIM_SEED_BASE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let count: u64 = std::env::var("SIM_SEED_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    (0..count).map(|i| base + i).collect()
}

/// The line a failing assertion prints so the schedule can be replayed.
fn replay(seed: u64) -> String {
    format!(
        "reproduce with: SIM_SEED={seed} cargo test -p cwl_parsl --test integration_simtest\n\
         event log:       cargo run -p gridsim --bin simrun -- --log {seed}"
    )
}

// ------------------------------------------------- DES schedule exploration

/// The invariant suite: every seed in the matrix builds a random scenario
/// (DAG shape, cluster size, fault schedule) and runs it to completion.
/// The engine checks its own invariants as it runs — a task completed on a
/// node already declared lost, a double completion, or a task stranded
/// while a usable node survived all land in `report.violations`.
#[test]
fn des_invariant_suite_over_seed_matrix() {
    let seeds = seed_matrix();
    let mut faulted = 0usize;
    for &seed in &seeds {
        let scenario = Scenario::from_seed(seed);
        let report = scenario.run();
        assert!(
            report.violations.is_empty(),
            "seed {seed} ({}): invariant violations: {:?}\n{}",
            scenario.shape,
            report.violations,
            replay(seed)
        );
        if !report.nodes_lost.is_empty() {
            faulted += 1;
            assert!(
                report.redispatches > 0 || report.completed == scenario.dag.tasks.len(),
                "seed {seed}: a lost node with in-flight work must re-dispatch\n{}",
                replay(seed)
            );
        }
        // A surviving node means no task may be stranded.
        if report.nodes_lost.len() < scenario.cfg.nodes {
            assert!(
                report.all_completed(),
                "seed {seed} ({}): {} of {} tasks completed, stranded: {:?}\n{}",
                scenario.shape,
                report.completed,
                scenario.dag.tasks.len(),
                report.stranded,
                replay(seed)
            );
        }
    }
    // The generator is biased toward fault schedules; a matrix where almost
    // nothing died would be a regression in exploration power.
    if seeds.len() >= 20 {
        assert!(
            faulted * 5 >= seeds.len(),
            "only {faulted}/{} seeds exercised node loss — fault bias regressed",
            seeds.len()
        );
    }
}

/// Same seed ⇒ byte-identical event log, ten times over. This is the replay
/// guarantee: a CI failure's seed reproduces the exact schedule locally.
#[test]
fn des_same_seed_byte_identical_logs_ten_runs() {
    for seed in [1u64, 7, 23] {
        let reference = Scenario::from_seed(seed).run().event_log();
        for rep in 1..10 {
            let log = Scenario::from_seed(seed).run().event_log();
            assert!(
                log == reference,
                "seed {seed}: run {rep} diverged from run 0\n{}",
                replay(seed)
            );
        }
    }
}

// ------------------------------------- full stack under the virtual clock

fn add_app() -> parsl::AppBody {
    FnApp::new(|vals: &[Value]| {
        let sum = vals.iter().map(|v| v.as_int().unwrap_or(0)).sum::<i64>();
        Ok(Value::Int(sum))
    })
}

/// Diamond workflow on a virtually-clocked kernel: the result is a pure
/// function of the inputs, whatever the schedule.
fn run_diamond(seed: u64) -> Value {
    let vc = VirtualClock::new();
    let dfk = DataFlowKernel::new(
        Config::local_threads(2)
            .with_clock(vc.clone())
            .with_seed(seed),
    );
    let root = dfk.submit("root", vec![AppArg::value(1i64)], add_app());
    let left = dfk.submit(
        "l",
        vec![AppArg::future(&root), AppArg::value(10i64)],
        add_app(),
    );
    let right = dfk.submit(
        "r",
        vec![AppArg::future(&root), AppArg::value(100i64)],
        add_app(),
    );
    let join = dfk.submit(
        "join",
        vec![AppArg::future(&left), AppArg::future(&right)],
        add_app(),
    );
    let out = join.result().unwrap();
    dfk.shutdown();
    out
}

/// Scatter workflow on a virtually-clocked HTEX: every task completes with
/// the right value across every explored seed.
#[test]
fn virtual_clock_scatter_completes_on_htex() {
    for seed in seed_matrix().into_iter().take(5) {
        let vc = VirtualClock::new();
        let dfk = DataFlowKernel::try_new(
            Config::htex(
                HtexConfig {
                    label: format!("sim-scatter-{seed}"),
                    nodes: 3,
                    workers_per_node: 2,
                    latency: LatencyModel::in_process(),
                    ..HtexConfig::default()
                },
                Arc::new(LocalProvider::new(2)),
            )
            .with_clock(vc.clone())
            .with_seed(seed),
        )
        .unwrap();
        let futs: Vec<_> = (0..24)
            .map(|i| dfk.submit("scatter", vec![AppArg::value(i as i64)], add_app()))
            .collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(
                f.result_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|| panic!("seed {seed}: task {i} hung\n{}", replay(seed)))
                    .unwrap(),
                Value::Int(i as i64),
                "seed {seed}: wrong output\n{}",
                replay(seed)
            );
        }
        assert_eq!(dfk.monitoring().summary().failed, 0, "{}", replay(seed));
        dfk.shutdown();
    }
}

/// Outputs are byte-identical run to run for the same seed — serialize the
/// diamond result and compare across 10 repeats (the full-stack half of the
/// determinism criterion; event *logs* are only byte-stable in the DES).
#[test]
fn virtual_clock_diamond_outputs_byte_identical() {
    for seed in [3u64, 11] {
        let reference = yamlite::to_string_flow(&run_diamond(seed));
        for rep in 1..10 {
            let out = yamlite::to_string_flow(&run_diamond(seed));
            assert!(
                out == reference,
                "seed {seed}: output diverged on rep {rep}: {out} vs {reference}\n{}",
                replay(seed)
            );
        }
    }
}

/// A silently-dead node (heartbeat stops, no task ever arrives) with a
/// **30-second** staleness threshold: only virtual time makes this
/// testable — detection needs 30+ seconds of logical time and completes in
/// well under the wall-clock timeout because every sleeper (heartbeat,
/// monitor, dispatcher idle) runs on the virtual clock.
#[test]
fn virtual_clock_detects_silent_death_without_wall_time() {
    let vc = VirtualClock::new();
    let plan = FaultPlan::with_clock(vc.clone()).kill_now("localhost/1");
    let dfk = DataFlowKernel::try_new(
        Config::htex(
            HtexConfig {
                label: "sim-silent".into(),
                nodes: 2,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                heartbeat_period: Duration::from_secs(1),
                heartbeat_threshold: Duration::from_secs(30),
                fault_plan: Some(plan),
                ..HtexConfig::default()
            },
            Arc::new(LocalProvider::new(1)),
        )
        .with_clock(vc.clone()),
    )
    .unwrap();
    let wall = std::time::Instant::now();
    dfk.monitoring()
        .wait_for_events(Duration::from_secs(30), |s| s.node_lost > 0);
    let fs = dfk.monitoring().fault_summary();
    assert_eq!(fs.nodes_lost, vec!["localhost/1".to_string()]);
    // The staleness threshold alone is 30 virtual seconds; crossing it this
    // fast in wall time proves the detector ran on the virtual clock.
    assert!(
        wall.elapsed() < Duration::from_secs(25),
        "detection took {:?} of wall time — the monitor is not on the virtual clock",
        wall.elapsed()
    );
    assert!(
        vc.now() >= Duration::from_secs(30),
        "detection at {:?} of virtual time — threshold not honoured",
        vc.now()
    );
    // The survivor still executes work afterwards.
    let fut = dfk.submit("after", vec![AppArg::value(5i64)], add_app());
    assert_eq!(fut.result().unwrap(), Value::Int(5));
    assert_eq!(dfk.monitoring().summary().failed, 0);
    dfk.shutdown();
}

/// Node kill mid-workflow under the virtual clock: in-flight tasks are
/// re-dispatched, every output is correct, and no task is both completed
/// and lost — the full-stack version of the DES invariants.
#[test]
fn virtual_clock_fault_workflow_loses_no_tasks() {
    const TASKS: usize = 24;
    for seed in [5u64, 17, 41] {
        let vc = VirtualClock::new();
        let plan = FaultPlan::with_clock(vc.clone()).kill_after_tasks("localhost/0", 2);
        let dfk = DataFlowKernel::try_new(
            Config::htex(
                HtexConfig {
                    label: format!("sim-fault-{seed}"),
                    nodes: 2,
                    workers_per_node: 1,
                    latency: LatencyModel::in_process(),
                    heartbeat_period: Duration::from_millis(250),
                    heartbeat_threshold: Duration::from_secs(2),
                    fault_plan: Some(plan.clone()),
                    batch_size: 6,
                    ..HtexConfig::default()
                },
                Arc::new(LocalProvider::new(1)),
            )
            .with_clock(vc.clone())
            .with_seed(seed)
            .with_retry_policy(RetryPolicy::retries(2)),
        )
        .unwrap();
        let executions: Arc<Vec<AtomicUsize>> =
            Arc::new((0..TASKS).map(|_| AtomicUsize::new(0)).collect());
        let futs: Vec<_> = (0..TASKS)
            .map(|i| {
                let executions = executions.clone();
                let body = FnApp::new(move |vals: &[Value]| {
                    let n = vals[0].as_int().unwrap() as usize;
                    executions[n].fetch_add(1, Ordering::SeqCst);
                    Ok(Value::Int(n as i64 * 11))
                });
                dfk.submit("sim-fault", vec![AppArg::value(i as i64)], body)
            })
            .collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(
                f.result_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|| panic!("seed {seed}: task {i} lost\n{}", replay(seed)))
                    .unwrap(),
                Value::Int(i as i64 * 11),
                "seed {seed}\n{}",
                replay(seed)
            );
        }
        assert!(plan.is_dead("localhost/0"));
        dfk.monitoring()
            .wait_for_events(Duration::from_secs(10), |s| s.node_lost > 0);
        let fs = dfk.monitoring().fault_summary();
        assert_eq!(fs.nodes_lost, vec!["localhost/0".to_string()]);
        for (i, e) in executions.iter().enumerate() {
            assert!(
                e.load(Ordering::SeqCst) >= 1,
                "seed {seed}: task {i} never executed\n{}",
                replay(seed)
            );
        }
        assert_eq!(dfk.monitoring().summary().failed, 0);
        dfk.shutdown();
    }
}

/// Seeded retry backoff replays exactly: two kernels with the same seed and
/// their own virtual clocks walk the same multi-second backoff ladder, and
/// because the kernel timer's backoff entries are the only virtual-time
/// consumer, the final virtual timestamp *is* the summed schedule —
/// identical across runs, different across seeds.
#[test]
fn virtual_clock_backoff_schedule_replays_by_seed() {
    fn total_backoff(seed: u64) -> Duration {
        let vc = VirtualClock::new();
        let policy = RetryPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_secs(5),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(60),
            jitter_frac: 0.5,
            walltime: None,
        };
        let dfk = DataFlowKernel::new(
            Config::local_threads(1)
                .with_clock(vc.clone())
                .with_seed(seed)
                .with_retry_policy(policy),
        );
        let attempts = Arc::new(AtomicUsize::new(0));
        let a = attempts.clone();
        let fut = dfk.submit(
            "flaky",
            vec![],
            FnApp::new(move |_| {
                if a.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(parsl::TaskError::failed("transient"))
                } else {
                    Ok(Value::Int(9))
                }
            }),
        );
        assert_eq!(fut.result().unwrap(), Value::Int(9));
        let total = vc.now();
        dfk.shutdown();
        // Two failures ⇒ two jittered backoffs of ~5s and ~10s of virtual
        // time; the run finishes in milliseconds of wall time regardless.
        assert!(
            total >= Duration::from_secs(7) && total <= Duration::from_secs(23),
            "seed {seed}: implausible backoff total {total:?}"
        );
        total
    }
    for seed in [2u64, 13] {
        let first = total_backoff(seed);
        assert_eq!(first, total_backoff(seed), "seed {seed}: schedule diverged");
    }
    assert_ne!(
        total_backoff(2),
        total_backoff(13),
        "distinct seeds drew identical jitter — RNG not threaded through"
    );
}

/// Checkpoint + replay under the sim harness: a journaled run's completions
/// are never re-executed on resume, and the resumed outputs are
/// byte-identical to the original — the "journal replays never re-execute"
/// invariant from the issue, full-stack.
#[test]
fn virtual_clock_checkpoint_replay_never_reexecutes() {
    let dir = std::env::temp_dir().join(format!("simtest-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("journal.ckpt");
    let header = ckpt::Header {
        version: 1,
        run_hash: 0xD1A0_0D5E,
        label: "sim-diamond".into(),
    };
    let executions = Arc::new(AtomicUsize::new(0));

    let submit_diamond = |dfk: &Arc<DataFlowKernel>, executions: &Arc<AtomicUsize>| {
        let body = {
            let executions = executions.clone();
            FnApp::new(move |vals: &[Value]| {
                executions.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Int(
                    vals.iter().map(|v| v.as_int().unwrap_or(0)).sum::<i64>(),
                ))
            })
        };
        let root = dfk.submit("root", vec![AppArg::value(1i64)], body.clone());
        let left = dfk.submit(
            "l",
            vec![AppArg::future(&root), AppArg::value(10i64)],
            body.clone(),
        );
        let right = dfk.submit(
            "r",
            vec![AppArg::future(&root), AppArg::value(100i64)],
            body.clone(),
        );
        dfk.submit(
            "join",
            vec![AppArg::future(&left), AppArg::future(&right)],
            body,
        )
    };

    // First run: all four tasks execute and journal.
    let vc = VirtualClock::new();
    let journal = Arc::new(
        ckpt::Journal::create_with_clock(
            &journal_path,
            &header,
            ckpt::SyncMode::TaskExit,
            vc.clone(),
        )
        .unwrap(),
    );
    let dfk = DataFlowKernel::new(
        Config::local_threads(2)
            .with_clock(vc.clone())
            .with_seed(7)
            .with_checkpoint(journal),
    );
    let first = submit_diamond(&dfk, &executions).result().unwrap();
    dfk.shutdown();
    assert_eq!(executions.load(Ordering::SeqCst), 4);
    assert_eq!(dfk.checkpoint_stats().unwrap().appended, 4);

    // Resume: every task replays from the journal; nothing re-executes.
    let vc = VirtualClock::new();
    let (journal, loaded) =
        ckpt::Journal::resume_with_clock(&journal_path, ckpt::SyncMode::TaskExit, vc.clone())
            .unwrap();
    assert_eq!(loaded.records.len(), 4);
    let dfk = DataFlowKernel::new(
        Config::local_threads(2)
            .with_clock(vc.clone())
            .with_seed(7)
            .with_checkpoint(Arc::new(journal)),
    );
    let (seeded, unparseable) = dfk.seed_checkpoint(&loaded.records);
    assert_eq!((seeded, unparseable), (4, 0));
    let second = submit_diamond(&dfk, &executions).result().unwrap();
    dfk.shutdown();
    assert_eq!(
        executions.load(Ordering::SeqCst),
        4,
        "resume re-executed journaled tasks"
    );
    assert_eq!(dfk.checkpoint_stats().unwrap().replayed, 4);
    assert_eq!(
        yamlite::to_string_flow(&second),
        yamlite::to_string_flow(&first),
        "replayed outputs must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
