//! Integration of the HTEX pilot-job path with the simulated cluster:
//! queue waits, node release, and CWL work flowing through a Slurm-backed
//! HighThroughputExecutor.

use cwl_parsl::{CwlApp, CwlAppOptions};
use gridsim::{BatchScheduler, ClusterSpec, JobRequest, LatencyModel, SchedulerConfig};
use obs::names;
use parsl::{Config, DataFlowKernel, HtexConfig, ObsConfig, SlurmProvider};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("htex-int-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn cwl_tools_run_on_htex_over_slurm() {
    gridsim::TimeScale::set(0.01);
    let dir = scratch("run");
    let cluster = ClusterSpec::small(3, 2);
    let sched = BatchScheduler::new(cluster, SchedulerConfig::default());
    let dfk = DataFlowKernel::try_new(Config::htex(
        HtexConfig {
            label: "itest".into(),
            nodes: 2,
            workers_per_node: 2,
            latency: LatencyModel::cluster_lan(),
            ..HtexConfig::default()
        },
        Arc::new(SlurmProvider::new(sched.clone())),
    ))
    .unwrap();
    // The pilot job holds 2 of 3 nodes while the kernel is up.
    assert_eq!(sched.free_node_count(), 1);

    let echo = CwlApp::load(
        &dfk,
        fixtures().join("echo.cwl"),
        CwlAppOptions::in_dir(&dir).with_builtin_tools(),
    )
    .unwrap();
    let runs: Vec<_> = (0..8)
        .map(|i| {
            echo.call()
                .arg("message", format!("task {i}"))
                .stdout(format!("out{i}.txt"))
                .submit()
                .unwrap()
        })
        .collect();
    for (i, run) in runs.iter().enumerate() {
        let f = run.output().result().unwrap();
        assert_eq!(
            std::fs::read_to_string(f.path()).unwrap(),
            format!("task {i}\n")
        );
    }
    dfk.shutdown();
    // Shutdown releases the pilot job's nodes.
    assert_eq!(sched.free_node_count(), 3);
    gridsim::TimeScale::set(1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A monitored CWL run on HTEX over Slurm records tool dispatch and block
/// provisioning into the kernel's own handle, read before any export.
#[test]
fn monitored_htex_run_records_dispatch_and_provisioning_in_its_kernel() {
    let dir = scratch("monitored");
    let sched = BatchScheduler::new(ClusterSpec::small(2, 2), SchedulerConfig::immediate());
    let dfk = DataFlowKernel::try_new(
        Config::htex(
            HtexConfig {
                label: "monitored".into(),
                nodes: 1,
                workers_per_node: 2,
                latency: LatencyModel::in_process(),
                ..HtexConfig::default()
            },
            Arc::new(SlurmProvider::new(sched)),
        )
        .with_monitoring(ObsConfig::on()),
    )
    .unwrap();
    let echo = CwlApp::load(
        &dfk,
        fixtures().join("echo.cwl"),
        CwlAppOptions::in_dir(&dir).with_builtin_tools(),
    )
    .unwrap();
    let run = echo.call().arg("message", "traced").submit().unwrap();
    run.output().result().unwrap();
    let obs = dfk.observability();
    assert!(obs.counter(names::DISPATCH_EXECS).value() >= 1);
    assert!(obs.histogram(names::PROVIDER_PROVISION_US).count() >= 1);
    dfk.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pilot_job_waits_in_queue_behind_other_work() {
    gridsim::TimeScale::set(0.0);
    let cluster = ClusterSpec::small(2, 2);
    let sched = BatchScheduler::new(cluster, SchedulerConfig::immediate());
    // Occupy the whole cluster first.
    let blocker = sched.submit(JobRequest::nodes(2, "blocker")).unwrap();

    let sched2 = sched.clone();
    let starter = std::thread::spawn(move || {
        DataFlowKernel::try_new(Config::htex(
            HtexConfig {
                label: "queued".into(),
                nodes: 1,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                ..HtexConfig::default()
            },
            Arc::new(SlurmProvider::new(sched2)),
        ))
    });
    // The kernel cannot start while the blocker holds all nodes; wait
    // (bounded) for its pilot-job request to reach the batch queue.
    assert!(
        simtest::wait_until(Duration::from_secs(5), || sched.queue_depth() == 1),
        "pilot job should be queued"
    );
    blocker.release().unwrap();
    let dfk = starter.join().unwrap().unwrap();
    dfk.shutdown();
    gridsim::TimeScale::set(1.0);
}

#[test]
fn oversized_htex_request_fails_fast() {
    let cluster = ClusterSpec::small(1, 2);
    let sched = BatchScheduler::new(cluster, SchedulerConfig::immediate());
    let err = DataFlowKernel::try_new(Config::htex(
        HtexConfig {
            label: "big".into(),
            nodes: 4,
            workers_per_node: 1,
            latency: LatencyModel::in_process(),
            ..HtexConfig::default()
        },
        Arc::new(SlurmProvider::new(sched)),
    ))
    .err()
    .expect("provisioning must fail");
    assert!(err.contains("has only 1"), "{err}");
}
