//! Pins what `load_config_file` makes of every shipped `configs/*.yml`:
//! executor kind and counts, heartbeats and batching, the retry policy,
//! checkpoint, staging, monitoring and serve settings, the workdir and
//! `builtin_tools`. A change to how any key is read shows up here as a
//! one-line diff against the record below.

use cwl_parsl::config::RunnerConfig;
use parsl::ExecutorChoice;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn configs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../configs")
}

/// One stable, host-independent line per setting.
fn record(name: &str, c: &RunnerConfig) -> String {
    let mut out = format!("{name}\n");
    match &c.parsl.executor {
        ExecutorChoice::ThreadPool { workers } => {
            writeln!(out, "  executor: thread-pool workers={workers}").unwrap();
        }
        ExecutorChoice::Htex { config, provider } => {
            writeln!(
                out,
                "  executor: htex label={} nodes={} workers_per_node={} min_nodes={} \
                 heartbeat={:?} heartbeat_timeout={:?} batch_size={} latency={:?} fault_plan={}",
                config.label,
                config.nodes,
                config.workers_per_node,
                config.min_nodes,
                config.heartbeat_period,
                config.heartbeat_threshold,
                config.batch_size,
                config.latency,
                config.fault_plan.is_some(),
            )
            .unwrap();
            writeln!(out, "  provider: hint={:?}", provider.node_capacity_hint()).unwrap();
        }
    }
    let cap = c.parsl.capacity();
    writeln!(
        out,
        "  capacity: label={} nodes={} workers_per_node={} slots={}",
        c.parsl.label,
        cap.nodes,
        cap.workers_per_node,
        cap.total_slots()
    )
    .unwrap();
    writeln!(out, "  retry: {:?}", c.parsl.retry).unwrap();
    writeln!(out, "  checkpoint: {:?}", c.checkpoint).unwrap();
    writeln!(out, "  staging: {:?}", c.staging).unwrap();
    writeln!(out, "  monitoring: {:?}", c.parsl.monitoring).unwrap();
    writeln!(out, "  serve: {:?}", c.serve).unwrap();
    let tmp = std::env::temp_dir().join(format!("parsl-cwl-{}", std::process::id()));
    let workdir = if c.workdir == tmp {
        "<temp>/parsl-cwl-<pid>".to_string()
    } else {
        c.workdir.display().to_string()
    };
    writeln!(
        out,
        "  run: workdir={workdir} builtin_tools={} strict_check={}",
        c.builtin_tools, c.strict_check
    )
    .unwrap();
    let scheduler = c.scheduler.as_ref().map(|s| {
        let cluster = s.cluster();
        (cluster.node_count(), cluster.total_cores())
    });
    writeln!(
        out,
        "  scheduler(nodes, cores)={scheduler:?} fault_plan={:?}",
        c.fault_plan
    )
    .unwrap();
    out
}

const EXPECTED: &str = r#"configs/checkpoint.yml
  executor: thread-pool workers=4
  capacity: label=local nodes=1 workers_per_node=4 slots=4
  retry: RetryPolicy { max_retries: 0, initial_backoff: 0ns, multiplier: 2.0, max_backoff: 30s, jitter_frac: 0.1, walltime: None }
  checkpoint: CheckpointSettings { mode: TaskExit, dir: None, period: 500ms }
  staging: StagingSettings { mode: Auto, dir: None, pool: 4 }
  monitoring: ObsConfig { enabled: false, sample_rate: 1.0, export_path: None, sink_jsonl: true, sink_chrome: false }
  serve: ServeSettings { socket: None, max_in_flight: 4, queue_cap: 64, tenants: [], default_weight: 1.0 }
  run: workdir=./target/checkpoint-work builtin_tools=true strict_check=false
  scheduler(nodes, cores)=None fault_plan=None
configs/htex-fault.yml
  executor: htex label=htex nodes=3 workers_per_node=1 min_nodes=3 heartbeat=5ms heartbeat_timeout=60ms batch_size=8 latency=LatencyModel { dispatch: 500µs, result: 300µs, jitter_frac: 0.1 } fault_plan=true
  provider: hint=Some((1, 126))
  capacity: label=htex nodes=3 workers_per_node=1 slots=3
  retry: RetryPolicy { max_retries: 2, initial_backoff: 10ms, multiplier: 2.0, max_backoff: 200ms, jitter_frac: 0.1, walltime: None }
  checkpoint: CheckpointSettings { mode: Off, dir: None, period: 500ms }
  staging: StagingSettings { mode: Auto, dir: None, pool: 4 }
  monitoring: ObsConfig { enabled: false, sample_rate: 1.0, export_path: None, sink_jsonl: true, sink_chrome: false }
  serve: ServeSettings { socket: None, max_in_flight: 4, queue_cap: 64, tenants: [], default_weight: 1.0 }
  run: workdir=<temp>/parsl-cwl-<pid> builtin_tools=true strict_check=false
  scheduler(nodes, cores)=Some((4, 4)) fault_plan=Some(FaultPlan { pending: 1, dead: [] })
configs/htex-slurm.yml
  executor: htex label=htex nodes=3 workers_per_node=48 min_nodes=0 heartbeat=25ms heartbeat_timeout=250ms batch_size=8 latency=LatencyModel { dispatch: 500µs, result: 300µs, jitter_frac: 0.1 } fault_plan=false
  provider: hint=Some((48, 126))
  capacity: label=htex nodes=3 workers_per_node=48 slots=144
  retry: RetryPolicy { max_retries: 1, initial_backoff: 0ns, multiplier: 2.0, max_backoff: 30s, jitter_frac: 0.1, walltime: None }
  checkpoint: CheckpointSettings { mode: Off, dir: None, period: 500ms }
  staging: StagingSettings { mode: Auto, dir: None, pool: 4 }
  monitoring: ObsConfig { enabled: false, sample_rate: 1.0, export_path: None, sink_jsonl: true, sink_chrome: false }
  serve: ServeSettings { socket: None, max_in_flight: 4, queue_cap: 64, tenants: [], default_weight: 1.0 }
  run: workdir=./work builtin_tools=true strict_check=false
  scheduler(nodes, cores)=Some((3, 144)) fault_plan=None
configs/local-threads.yml
  executor: thread-pool workers=8
  capacity: label=local nodes=1 workers_per_node=8 slots=8
  retry: RetryPolicy { max_retries: 0, initial_backoff: 0ns, multiplier: 2.0, max_backoff: 30s, jitter_frac: 0.1, walltime: None }
  checkpoint: CheckpointSettings { mode: Off, dir: None, period: 500ms }
  staging: StagingSettings { mode: Auto, dir: None, pool: 4 }
  monitoring: ObsConfig { enabled: false, sample_rate: 1.0, export_path: None, sink_jsonl: true, sink_chrome: false }
  serve: ServeSettings { socket: None, max_in_flight: 4, queue_cap: 64, tenants: [], default_weight: 1.0 }
  run: workdir=./work builtin_tools=true strict_check=false
  scheduler(nodes, cores)=None fault_plan=None
configs/serve.yml
  executor: thread-pool workers=4
  capacity: label=local nodes=1 workers_per_node=4 slots=4
  retry: RetryPolicy { max_retries: 0, initial_backoff: 0ns, multiplier: 2.0, max_backoff: 30s, jitter_frac: 0.1, walltime: None }
  checkpoint: CheckpointSettings { mode: Off, dir: None, period: 500ms }
  staging: StagingSettings { mode: Auto, dir: None, pool: 4 }
  monitoring: ObsConfig { enabled: true, sample_rate: 1.0, export_path: Some("target/serve-work/trace.jsonl"), sink_jsonl: true, sink_chrome: false }
  serve: ServeSettings { socket: None, max_in_flight: 3, queue_cap: 64, tenants: [("alice", 2.0), ("bob", 1.0)], default_weight: 1.0 }
  run: workdir=./target/serve-work builtin_tools=true strict_check=false
  scheduler(nodes, cores)=None fault_plan=None
configs/trace-smoke.yml
  executor: thread-pool workers=4
  capacity: label=local nodes=1 workers_per_node=4 slots=4
  retry: RetryPolicy { max_retries: 0, initial_backoff: 0ns, multiplier: 2.0, max_backoff: 30s, jitter_frac: 0.1, walltime: None }
  checkpoint: CheckpointSettings { mode: Off, dir: None, period: 500ms }
  staging: StagingSettings { mode: Auto, dir: None, pool: 4 }
  monitoring: ObsConfig { enabled: true, sample_rate: 1.0, export_path: Some("target/trace-smoke.jsonl"), sink_jsonl: true, sink_chrome: true }
  serve: ServeSettings { socket: None, max_in_flight: 4, queue_cap: 64, tenants: [], default_weight: 1.0 }
  run: workdir=./target/trace-smoke-work builtin_tools=true strict_check=false
  scheduler(nodes, cores)=None fault_plan=None
"#;

#[test]
fn every_shipped_config_loads_to_its_recorded_settings() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(configs_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("yml"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 6,
        "expected the shipped configs, found {paths:?}"
    );
    let mut got = String::new();
    for path in &paths {
        let config = cwl_parsl::load_config_file(path)
            .unwrap_or_else(|e| panic!("{} must load: {e}", path.display()));
        let name = Path::new("configs").join(path.file_name().unwrap());
        got.push_str(&record(&name.display().to_string(), &config));
    }
    assert_eq!(got, EXPECTED, "\n--- loaded ---\n{got}");
}
