//! Fault-tolerance integration: a scripted node death mid-workflow must be
//! detected by the heartbeat monitor, the lost node's in-flight tasks
//! re-dispatched to survivors, the block replaced to hold the `min_nodes`
//! floor, and the workflow must still produce exactly the right outputs.
//!
//! The scenario is run three times back-to-back: fault handling has to be
//! deterministic in outcome (the same events fire, the same answers come
//! out) even though thread interleavings differ run to run.

use cwl_parsl::config::load_config_file;
use cwl_parsl::{CwlApp, CwlAppOptions, ParslWorkflowRunner};
use cwlexec::{BuiltinDispatch, ToolDispatch};
use gridsim::{BatchScheduler, ClusterSpec, FaultPlan, LatencyModel, SchedulerConfig};
use parsl::{
    AppArg, Config, DataFlowKernel, FnApp, HighThroughputExecutor, HtexConfig, RetryPolicy,
    SlurmProvider, TaskSummary,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use yamlite::Value;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

fn configs() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs")
}

/// Wait (bounded) for an expected monitoring condition: fault handling runs
/// on the monitor thread, so events like a block replacement can land
/// slightly after the workflow's futures resolve. Condvar-notified on every
/// counted event — no sleep-and-poll.
fn wait_for(dfk: &DataFlowKernel, what: &str, cond: impl FnMut(&TaskSummary) -> bool) {
    assert!(
        dfk.monitoring()
            .wait_for_events(Duration::from_secs(5), cond),
        "timed out waiting for {what}; summary: {:?}",
        dfk.monitoring().summary()
    );
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("htex-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Three-node HTEX on a four-node cluster; node01 dies after two task
/// arrivals, the spare node replaces it. The executor handle reads the
/// node table.
fn faulty_kernel(
    round: usize,
) -> (
    Arc<DataFlowKernel>,
    Arc<HighThroughputExecutor>,
    BatchScheduler,
) {
    let cluster = ClusterSpec::small(4, 1);
    let sched = BatchScheduler::new(cluster, SchedulerConfig::immediate());
    let plan = FaultPlan::new().kill_after_tasks("node01", 2);
    let obs = Arc::new(obs::Observability::off());
    let htex = HighThroughputExecutor::start(
        HtexConfig {
            label: format!("fault-r{round}"),
            nodes: 3,
            workers_per_node: 1,
            latency: LatencyModel::in_process(),
            heartbeat_period: Duration::from_millis(5),
            heartbeat_threshold: Duration::from_millis(60),
            min_nodes: 3,
            fault_plan: Some(plan),
            // Batched dispatch: node01 dies mid-batch, so the unfinished
            // remainder of its batch must be re-dispatched.
            batch_size: 4,
            ..HtexConfig::default()
        },
        Arc::new(SlurmProvider::new(sched.clone())),
        obs.clone(),
    )
    .unwrap();
    let dfk = DataFlowKernel::with_executor(
        htex.clone(),
        obs,
        Config::local_threads(0).with_retry_policy(RetryPolicy::retries(1)),
    );
    (dfk, htex, sched)
}

#[test]
fn node_death_mid_workflow_recovers_deterministically() {
    for round in 0..3 {
        let (dfk, htex, sched) = faulty_kernel(round);
        // The pilot job holds 3 of 4 nodes.
        assert_eq!(sched.free_node_count(), 1, "round {round}");

        let square = FnApp::new(|args: &[Value]| {
            std::thread::sleep(Duration::from_millis(4));
            let n = args[0].as_int().unwrap();
            Ok(Value::Int(n * n))
        });
        let futs: Vec<_> = (0..24)
            .map(|i| dfk.submit("square", vec![AppArg::value(i as i64)], square.clone()))
            .collect();
        for (i, f) in futs.iter().enumerate() {
            let n = i as i64;
            assert_eq!(
                f.result().unwrap(),
                Value::Int(n * n),
                "round {round} task {i}"
            );
        }

        wait_for(&dfk, "block replacement", |s| s.blocks_replaced == 1);
        let fs = dfk.monitoring().fault_summary();
        assert_eq!(
            fs.nodes_lost,
            vec!["node01".to_string()],
            "round {round}: exactly the scripted node dies"
        );
        assert!(
            fs.tasks_redispatched >= 1,
            "round {round}: the task that found the node dead is re-queued"
        );
        assert_eq!(fs.blocks_replaced, 1, "round {round}");
        // The spare node is the replacement.
        assert_eq!(
            htex.live_nodes(),
            ["node02", "node03", "node04"],
            "round {round}"
        );
        // No task ends in a failed state.
        assert_eq!(dfk.monitoring().summary().failed, 0, "round {round}");

        dfk.shutdown();
        // Shutdown returns every node, including the dead one's allocation.
        assert_eq!(sched.free_node_count(), 4, "round {round}");
        // The fault story outlives the executor.
        assert_eq!(
            dfk.monitoring().fault_summary().nodes_lost,
            ["node01"],
            "round {round}"
        );
    }
}

/// Batched dispatch meets a mid-batch node kill: localhost/0 receives a
/// multi-task message, executes two of its tasks, and dies. Exactly the
/// unfinished remainder must be re-dispatched — every task completes, no
/// task is lost, and no completed task is double-counted.
#[test]
fn mid_batch_node_kill_redispatches_exactly_the_unfinished() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const TASKS: usize = 24;
    let plan = FaultPlan::new().kill_after_tasks("localhost/0", 2);
    let dfk = DataFlowKernel::try_new(
        Config::htex(
            HtexConfig {
                label: "mid-batch".into(),
                nodes: 2,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                heartbeat_period: Duration::from_millis(5),
                heartbeat_threshold: Duration::from_millis(60),
                min_nodes: 0,
                fault_plan: Some(plan.clone()),
                // Multi-task messages: the kill lands in the middle of one.
                batch_size: 6,
                ..HtexConfig::default()
            },
            Arc::new(parsl::LocalProvider::new(1)),
        )
        // Per-task re-dispatches are read from the trace's spans.
        .with_monitoring(parsl::ObsConfig::on()),
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
                std::thread::sleep(Duration::from_millis(2));
                Ok(Value::Int(n as i64 * 11))
            });
            dfk.submit("batched", vec![AppArg::value(i as i64)], body)
        })
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(10))
                .expect("task hung")
                .unwrap(),
            Value::Int(i as i64 * 11),
            "task {i}"
        );
    }
    assert!(plan.is_dead("localhost/0"));

    wait_for(&dfk, "node loss processed", |s| s.node_lost > 0);
    let fs = dfk.monitoring().fault_summary();
    assert_eq!(fs.nodes_lost, vec!["localhost/0".to_string()]);
    assert!(
        fs.tasks_redispatched >= 1,
        "a mid-batch kill must strand at least one unfinished task"
    );

    // Per-task accounting: a task runs once, plus at most once per
    // re-dispatch of that specific task — a result that died with the node
    // re-executes, but nothing runs without having been re-dispatched. A
    // task's lineage id is its task id (1-based).
    let mut redispatches = [0usize; TASKS];
    for s in dfk.observability().spans() {
        if s.kind == parsl::SpanKind::Redispatched && s.lineage >= 1 {
            redispatches[(s.lineage - 1) as usize] += 1;
        }
    }
    assert!(
        redispatches.iter().sum::<usize>() >= 1,
        "each re-dispatch leaves a Redispatched span"
    );
    for i in 0..TASKS {
        let runs = executions[i].load(Ordering::SeqCst);
        assert!(runs >= 1, "task {i} never executed");
        assert!(
            runs <= 1 + redispatches[i],
            "task {i} ran {runs} times with {} redispatches",
            redispatches[i]
        );
        if redispatches[i] == 0 {
            assert_eq!(
                runs, 1,
                "task {i} was never re-dispatched yet ran {runs} times"
            );
        }
    }
    assert_eq!(dfk.monitoring().summary().failed, 0);
    dfk.shutdown();
}

#[test]
fn cwl_workflow_survives_node_loss() {
    let dir = scratch("cwl");
    let (dfk, _htex, _sched) = faulty_kernel(9);
    let echo = CwlApp::load(
        &dfk,
        fixtures().join("echo.cwl"),
        CwlAppOptions::in_dir(&dir).with_builtin_tools(),
    )
    .unwrap();
    // Enough tasks that node01 is certain to see its third arrival (the one
    // that kills it) however the submits race the dispatcher's drain. A
    // drain of q tasks is cut into chunks of ceil(q / alive), at most
    // `batch_size` = 4, handed round-robin per chunk, so node01's share
    // depends on where the drains fall: over every split of the submits
    // into drains its minimum is 2 of 12 (it never dies) but 5 of 24.
    let runs: Vec<_> = (0..24)
        .map(|i| {
            echo.call()
                .arg("message", format!("survivor {i}"))
                .stdout(format!("out{i}.txt"))
                .submit()
                .unwrap()
        })
        .collect();
    for (i, run) in runs.iter().enumerate() {
        let f = run.output().result().unwrap();
        assert_eq!(
            std::fs::read_to_string(f.path()).unwrap(),
            format!("survivor {i}\n")
        );
    }
    // The node can die holding no unfinished task; the monitor then records
    // the loss only after every future has already resolved.
    wait_for(&dfk, "node loss processed", |s| s.node_lost > 0);
    let fs = dfk.monitoring().fault_summary();
    assert_eq!(fs.nodes_lost, vec!["node01".to_string()]);
    dfk.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builtin tools, except that the first command mentioning `word` fails.
struct FailsOnceOn {
    word: &'static str,
    tripped: AtomicBool,
}

impl ToolDispatch for FailsOnceOn {
    fn run(&self, cmd: &cwl::BuiltCommand, workdir: &Path) -> Result<(), String> {
        if cmd.argv.iter().any(|a| a == self.word) && !self.tripped.swap(true, Ordering::SeqCst) {
            return Err(format!("injected failure on {:?}", self.word));
        }
        BuiltinDispatch.run(cmd, workdir)
    }

    fn label(&self) -> &'static str {
        "fails-once"
    }
}

/// The workflow compiler shares a step's literal inputs (here the scattered
/// word and the whole carried list) across instances and attempts. A task
/// body runs again on retry, so the second attempt must find the same
/// literals the first one did — a body that moved them out on first use
/// would retry with its required inputs missing.
#[test]
fn retried_scatter_instance_sees_the_same_literal_inputs() {
    let dir = scratch("retry-literals");
    let dfk = DataFlowKernel::new(Config::local_threads(2).with_retries(1));
    let dispatch = Arc::new(FailsOnceOn {
        word: "Beta",
        tripped: AtomicBool::new(false),
    });
    let words = ["alpha", "beta", "gamma"].map(Value::str).to_vec();
    let mut inputs = yamlite::Map::new();
    inputs.insert("words", Value::Seq(words));
    let outputs = ParslWorkflowRunner::new(
        &dfk,
        CwlAppOptions::in_dir(&dir).with_dispatch(dispatch.clone()),
    )
    .run(fixtures().join("scatter_words_py.cwl"), &inputs)
    .unwrap();
    let texts: Vec<String> = outputs
        .get("capitalized")
        .unwrap()
        .as_seq()
        .unwrap()
        .iter()
        .map(|f| std::fs::read_to_string(f["path"].as_str().unwrap()).unwrap())
        .collect();
    assert_eq!(texts, vec!["Alpha\n", "Beta\n", "Gamma\n"]);
    assert!(dispatch.tripped.load(Ordering::SeqCst));
    let summary = dfk.monitoring().summary();
    assert_eq!((summary.completed, summary.failed), (3, 0));
    assert_eq!(summary.retried, 1);
    dfk.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault-path trace coverage: a killed manager must leave a `NodeLost`
/// span, and every task re-queued by the loss must leave a `Redispatched`
/// span whose parent is that `NodeLost` span and whose lineage id joins it
/// back to the task's original `Submit`/`Dispatch` spans.
#[test]
fn node_loss_produces_linked_trace_spans() {
    use parsl::SpanKind;
    use std::collections::HashSet;

    const TASKS: usize = 24;
    let plan = FaultPlan::new().kill_after_tasks("localhost/0", 2);
    let dfk = DataFlowKernel::try_new(
        Config::htex(
            HtexConfig {
                label: "fault-trace".into(),
                nodes: 2,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                heartbeat_period: Duration::from_millis(5),
                heartbeat_threshold: Duration::from_millis(60),
                min_nodes: 0,
                fault_plan: Some(plan),
                batch_size: 6,
                ..HtexConfig::default()
            },
            Arc::new(parsl::LocalProvider::new(1)),
        )
        .with_monitoring(parsl::ObsConfig::on()),
    )
    .unwrap();
    let obs = dfk.observability().clone();

    let body = FnApp::new(|vals: &[Value]| {
        std::thread::sleep(Duration::from_millis(2));
        Ok(Value::Int(vals[0].as_int().unwrap() * 7))
    });
    let futs: Vec<_> = (0..TASKS)
        .map(|i| dfk.submit("traced", vec![AppArg::value(i as i64)], body.clone()))
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(10))
                .expect("task hung")
                .unwrap(),
            Value::Int(i as i64 * 7),
            "task {i}"
        );
    }
    wait_for(&dfk, "node loss processed", |s| s.node_lost > 0);
    dfk.shutdown();

    let spans = obs.spans();
    let lost: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::NodeLost)
        .collect();
    assert!(!lost.is_empty(), "node death must leave a NodeLost span");
    for s in &lost {
        assert_eq!(s.name, "localhost/0", "the scripted node is the one lost");
        assert_eq!(s.lineage, 0, "node loss is a node event, not a task event");
    }
    let lost_ids: HashSet<u64> = lost.iter().map(|s| s.id).collect();

    let redispatched: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Redispatched)
        .collect();
    assert!(
        !redispatched.is_empty(),
        "a mid-batch kill must strand and re-dispatch at least one task"
    );
    for r in &redispatched {
        assert!(
            lost_ids.contains(&r.parent),
            "Redispatched span {} must hang off the NodeLost span that caused it",
            r.id
        );
        assert_ne!(r.lineage, 0, "re-dispatch is attributed to a task");
        assert!(
            spans
                .iter()
                .any(|s| s.kind == SpanKind::Dispatch && s.lineage == r.lineage),
            "lineage {} joins the re-dispatch to the task's original Dispatch span",
            r.lineage
        );
        assert!(
            spans
                .iter()
                .any(|s| s.kind == SpanKind::Submit && s.lineage == r.lineage),
            "lineage {} joins the re-dispatch to the task's Submit span",
            r.lineage
        );
    }
}

#[test]
fn yaml_fault_config_drives_injection() {
    let rc = load_config_file(configs().join("htex-fault.yml")).unwrap();
    let plan = rc.fault_plan.clone().expect("fault block parsed");
    assert!(!plan.is_empty());
    let sched = rc.scheduler.clone().expect("slurm provider configured");
    let dfk = DataFlowKernel::try_new(rc.parsl).unwrap();
    let triple = FnApp::new(|args: &[Value]| {
        std::thread::sleep(Duration::from_millis(3));
        Ok(Value::Int(args[0].as_int().unwrap() * 3))
    });
    let futs: Vec<_> = (0..18)
        .map(|i| dfk.submit("triple", vec![AppArg::value(i as i64)], triple.clone()))
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.result().unwrap(), Value::Int(3 * i as i64));
    }
    wait_for(&dfk, "block replacement", |s| s.blocks_replaced == 1);
    let fs = dfk.monitoring().fault_summary();
    assert_eq!(fs.nodes_lost, vec!["node02".to_string()]);
    assert!(plan.is_dead("node02"));
    dfk.shutdown();
    assert_eq!(sched.free_node_count(), 4);
}
