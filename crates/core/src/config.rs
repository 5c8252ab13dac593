//! TaPS-style YAML configuration for the `parsl-cwl` runner (§III-B).
//!
//! The paper adopts a YAML configuration format (following the TaPS
//! benchmark suite) so the Parsl execution setup lives next to the CWL
//! documents. Example:
//!
//! ```yaml
//! executor:
//!   kind: htex            # or thread-pool
//!   nodes: 3
//!   workers_per_node: 48  # 0 = one worker per core
//!   min_nodes: 3          # replace lost nodes to keep this floor
//!   heartbeat_ms: 25      # manager heartbeat period
//!   heartbeat_timeout_ms: 250
//! provider:
//!   kind: slurm           # or local
//!   cluster:
//!     nodes: 3
//!     cores_per_node: 48
//! retry:
//!   max_retries: 1
//!   initial_backoff_ms: 50
//!   multiplier: 2.0
//!   max_backoff_ms: 2000
//!   jitter: 0.1
//!   walltime_ms: 60000
//! fault:                  # scripted node deaths (experiments only)
//!   kill:
//!     - node: node02
//!       after_tasks: 10
//!     - node: node03
//!       after_ms: 500
//! run:
//!   workdir: ./work
//!   builtin_tools: true
//! check:                  # cwl-check pre-run gate
//!   pre_run: true         # analyze the document before executing
//!   strict: false         # also refuse to run on warnings
//! checkpoint:             # durable crash-resume journal
//!   mode: task-exit       # off | task-exit | periodic
//!   dir: ./work/ckpt      # journal directory (default: <workdir>/ckpt)
//!   period_ms: 500        # periodic mode: the exact fsync period
//! staging:                # content-addressed data plane
//!   mode: auto            # copy | link | auto (default auto)
//!   dir: /shared/cas      # shared store (default: per-run <workdir>/cas)
//!   pool: 8               # parallel stage-in pool width
//! serve:                  # parsl-serve daemon (multi-run service)
//!   socket: ./work/serve.sock  # UDS path (default: <workdir>/serve.sock)
//!   max_in_flight: 4      # runs executing concurrently
//!   queue_cap: 64         # queued runs before backpressure rejection
//!   default_weight: 1.0   # fair-share weight for unlisted tenants
//!   tenants:              # per-tenant fair-share weights
//!     alice: 3.0
//!     bob: 1.0
//! ```
//!
//! `retries: N` at the top level is still accepted as shorthand for
//! `retry: {max_retries: N}`.

use cwlexec::StagingSettings;
use gridsim::{BatchScheduler, ClusterSpec, FaultPlan, LatencyModel, SchedulerConfig};
use parsl::{Config, HtexConfig, LocalProvider, Provider, RetryPolicy, SlurmProvider};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use yamlite::Value;

/// A fully resolved runner configuration.
pub struct RunnerConfig {
    /// The Parsl kernel configuration (executor + provider + retry policy).
    pub parsl: Config,
    /// Working-directory base for tool invocations.
    pub workdir: PathBuf,
    /// Run recognized workload tools in-process.
    pub builtin_tools: bool,
    /// The simulated batch scheduler, when a slurm provider was configured
    /// (kept so callers can inspect queue state).
    pub scheduler: Option<BatchScheduler>,
    /// The fault plan, when a `fault:` block was configured (kept so
    /// callers can assert which nodes died).
    pub fault_plan: Option<FaultPlan>,
    /// Run the `cwl::analyze` static pass before executing (the `cwl-check`
    /// pre-run gate).
    pub pre_run_check: bool,
    /// Under `pre_run_check`, also refuse to run on warnings.
    pub strict_check: bool,
    /// Durable checkpointing of task completions (the `checkpoint:` block).
    pub checkpoint: CheckpointSettings,
    /// Content-addressed data plane (the `staging:` block).
    pub staging: StagingSettings,
    /// Multi-run service daemon settings (the `serve:` block).
    pub serve: ServeSettings,
}

/// The parsed `serve:` block — settings for the `parsl-serve` daemon.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeSettings {
    /// Unix-domain socket path; `None` defaults to `<workdir>/serve.sock`.
    pub socket: Option<PathBuf>,
    /// Maximum number of runs executing concurrently; further admitted
    /// runs wait in the queue.
    pub max_in_flight: usize,
    /// Maximum number of queued-but-not-started runs before submissions
    /// are rejected with backpressure.
    pub queue_cap: usize,
    /// Per-tenant fair-share weights (name, weight). Tenants not listed
    /// get [`ServeSettings::default_weight`].
    pub tenants: Vec<(String, f64)>,
    /// Fair-share weight for tenants without an explicit entry.
    pub default_weight: f64,
}

impl Default for ServeSettings {
    fn default() -> Self {
        Self {
            socket: None,
            max_in_flight: 4,
            queue_cap: 64,
            tenants: Vec::new(),
            default_weight: 1.0,
        }
    }
}

impl ServeSettings {
    /// Resolve the socket path against the configured workdir.
    pub fn socket_path(&self, workdir: &Path) -> PathBuf {
        self.socket
            .clone()
            .unwrap_or_else(|| workdir.join("serve.sock"))
    }

    /// The fair-share weight for a tenant.
    pub fn weight_for(&self, tenant: &str) -> f64 {
        self.tenants
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, w)| *w)
            .unwrap_or(self.default_weight)
    }
}

/// When completed tasks are made durable in the checkpoint journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointMode {
    /// No journal (the default): a crashed run loses all completed work.
    Off,
    /// fsync the journal on every task completion.
    TaskExit,
    /// Append without syncing; a background flusher fsyncs on an interval.
    Periodic,
}

/// The parsed `checkpoint:` block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSettings {
    /// Journal durability mode.
    pub mode: CheckpointMode,
    /// Journal directory; `None` defaults to `<workdir>/ckpt` at run time.
    pub dir: Option<PathBuf>,
    /// fsync period for [`CheckpointMode::Periodic`] (exact: the flusher's
    /// deadlines are this far apart).
    pub period: Duration,
}

impl Default for CheckpointSettings {
    fn default() -> Self {
        Self {
            mode: CheckpointMode::Off,
            dir: None,
            period: Duration::from_millis(500),
        }
    }
}

impl CheckpointSettings {
    /// The journal of one `parsl-serve` run, kept in `dir`. Whatever the
    /// daemon's own `checkpoint:` block says, every task exit is fsynced:
    /// a SIGTERMed daemon resumes its runs from these journals, and a
    /// periodic flush would lose the tasks of the last period.
    pub fn per_run(dir: PathBuf) -> Self {
        Self {
            mode: CheckpointMode::TaskExit,
            dir: Some(dir),
            ..Self::default()
        }
    }

    /// The journal sync mode, unless checkpointing is off.
    pub fn sync_mode(&self) -> Option<ckpt::SyncMode> {
        match self.mode {
            CheckpointMode::Off => None,
            CheckpointMode::TaskExit => Some(ckpt::SyncMode::TaskExit),
            CheckpointMode::Periodic => Some(ckpt::SyncMode::Periodic(self.period)),
        }
    }
}

/// Load a configuration from a YAML file.
///
/// The file is first run through the `parsl-lint` pass ([`crate::lint`]),
/// honouring the config's own `check:` block: with `pre_run: true` (the
/// default) lint *errors* (unknown keys, bad values/combos, unreachable
/// staging dirs) fail the load; with `strict: true` warnings do too.
/// [`load_config_value`] stays gate-free for programmatic construction.
pub fn load_config_file(path: impl AsRef<Path>) -> Result<RunnerConfig, String> {
    let path = path.as_ref();
    let (v, spans) = yamlite::parse_file_spanned(path).map_err(|e| e.to_string())?;
    let check = v.get("check").cloned().unwrap_or(Value::Null);
    let pre_run = check
        .get("pre_run")
        .and_then(Value::as_bool)
        .unwrap_or(true);
    let strict = check
        .get("strict")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    if pre_run {
        let mut report = cwl::analyze::Report::new();
        report.file = Some(path.display().to_string());
        crate::lint::lint_value(&v, &spans, &mut report);
        report.sort();
        if !report.is_clean(strict) {
            return Err(format!(
                "config lint found {} error(s), {} warning(s):\n{}",
                report.error_count(),
                report.warning_count(),
                report.render_text().trim_end()
            ));
        }
    }
    load_config_value(&v)
}

/// Parse the `retry:` block (or the legacy top-level `retries:` count).
/// Values that would misbehave at retry time — `jitter` outside `[0, 1]`,
/// a negative `multiplier` — are load errors, not silent clamps: a typo'd
/// policy should fail before the run starts, with the offending value in
/// the message.
fn parse_retry(v: &Value) -> Result<RetryPolicy, String> {
    let mut policy = RetryPolicy::default();
    if let Some(n) = v.get("retries").and_then(Value::as_int) {
        policy.max_retries = n.max(0) as usize;
    }
    if let Some(block) = v.get("retry") {
        if let Some(n) = block.get("max_retries").and_then(Value::as_int) {
            policy.max_retries = n.max(0) as usize;
        }
        if let Some(ms) = block.get("initial_backoff_ms").and_then(Value::as_int) {
            policy.initial_backoff = Duration::from_millis(ms.max(0) as u64);
        }
        if let Some(m) = block.get("multiplier").and_then(Value::as_float) {
            policy.multiplier = m;
        }
        if let Some(ms) = block.get("max_backoff_ms").and_then(Value::as_int) {
            policy.max_backoff = Duration::from_millis(ms.max(0) as u64);
        }
        if let Some(j) = block.get("jitter").and_then(Value::as_float) {
            policy.jitter_frac = j;
        }
        if let Some(ms) = block.get("walltime_ms").and_then(Value::as_int) {
            policy.walltime = Some(Duration::from_millis(ms.max(1) as u64));
        }
    }
    policy.validate()?;
    Ok(policy)
}

/// Parse the `checkpoint:` block. Writing the block at all means "turn it
/// on" (in `task-exit` mode) unless `mode: off` is explicit — mirroring the
/// `monitoring:` block's convention.
fn parse_checkpoint(v: &Value) -> Result<CheckpointSettings, String> {
    let mut settings = CheckpointSettings::default();
    let Some(block) = v.get("checkpoint") else {
        return Ok(settings);
    };
    settings.mode = match block.get("mode").and_then(Value::as_str) {
        None | Some("task-exit") => CheckpointMode::TaskExit,
        Some("periodic") => CheckpointMode::Periodic,
        Some("off") => CheckpointMode::Off,
        Some(other) => {
            return Err(format!(
                "unknown checkpoint mode {other:?} (expected off, task-exit, or periodic)"
            ))
        }
    };
    if let Some(dir) = block.get("dir").and_then(Value::as_str) {
        settings.dir = Some(PathBuf::from(dir));
    }
    if let Some(ms) = block.get("period_ms").and_then(Value::as_int) {
        settings.period = Duration::from_millis(ms.max(1) as u64);
    }
    Ok(settings)
}

/// Parse the `staging:` block into [`StagingSettings`]. Absent block =
/// defaults (auto mode, per-run store).
fn parse_staging(v: &Value) -> Result<StagingSettings, String> {
    let mut settings = StagingSettings::default();
    let Some(block) = v.get("staging") else {
        return Ok(settings);
    };
    if let Some(mode) = block.get("mode").and_then(Value::as_str) {
        settings.mode = datastore::StageMode::parse(mode).ok_or_else(|| {
            format!("unknown staging mode {mode:?} (expected copy, link, or auto)")
        })?;
    }
    if let Some(dir) = block.get("dir").and_then(Value::as_str) {
        settings.dir = Some(PathBuf::from(dir));
    }
    if let Some(pool) = block.get("pool").and_then(Value::as_int) {
        settings.pool = pool.max(1) as usize;
    }
    // A pinned dir that can never be created should fail at load, not
    // after tasks have started.
    settings.validate()?;
    Ok(settings)
}

/// Parse the `monitoring:` block into an [`obs::ObsConfig`].
///
/// ```yaml
/// monitoring:
///   enabled: true
///   sample_rate: 1.0      # fraction of tasks whose spans are recorded
///   export: trace.jsonl   # JSONL trace path (read by parsl-trace)
///   sinks: [jsonl, chrome]
/// ```
fn parse_monitoring(v: &Value) -> Result<obs::ObsConfig, String> {
    let mut cfg = obs::ObsConfig::default();
    let Some(block) = v.get("monitoring") else {
        return Ok(cfg);
    };
    cfg.enabled = block
        .get("enabled")
        .and_then(Value::as_bool)
        // Writing a `monitoring:` block at all means "turn it on" unless
        // explicitly disabled.
        .unwrap_or(true);
    if let Some(r) = block.get("sample_rate").and_then(Value::as_float) {
        cfg.sample_rate = r.clamp(0.0, 1.0);
    }
    if let Some(p) = block.get("export").and_then(Value::as_str) {
        cfg.export_path = Some(PathBuf::from(p));
    }
    if let Some(cap) = block.get("events_cap").and_then(Value::as_int) {
        cfg.events_cap = cap.max(1) as usize;
    }
    if let Some(sinks) = block.get("sinks").and_then(Value::as_seq) {
        cfg.sink_jsonl = false;
        cfg.sink_chrome = false;
        for s in sinks {
            match s.as_str() {
                Some("jsonl") => cfg.sink_jsonl = true,
                Some("chrome") => cfg.sink_chrome = true,
                other => return Err(format!("unknown monitoring sink {other:?}")),
            }
        }
    }
    Ok(cfg)
}

/// Parse the `serve:` block into [`ServeSettings`]. Absent block =
/// defaults (the daemon can still run; clients then use the default
/// `<workdir>/serve.sock`). Misconfigurations that would wedge the
/// service — a zero in-flight limit, a non-positive fair-share weight —
/// are load errors, mirroring `parse_retry`.
fn parse_serve(v: &Value) -> Result<ServeSettings, String> {
    let mut settings = ServeSettings::default();
    let Some(block) = v.get("serve") else {
        return Ok(settings);
    };
    if let Some(p) = block.get("socket").and_then(Value::as_str) {
        settings.socket = Some(PathBuf::from(p));
    }
    if let Some(n) = block.get("max_in_flight").and_then(Value::as_int) {
        if n < 1 {
            return Err(format!("serve.max_in_flight must be >= 1 (got {n})"));
        }
        settings.max_in_flight = n as usize;
    }
    if let Some(n) = block.get("queue_cap").and_then(Value::as_int) {
        if n < 1 {
            return Err(format!("serve.queue_cap must be >= 1 (got {n})"));
        }
        settings.queue_cap = n as usize;
    }
    if let Some(w) = block.get("default_weight").and_then(Value::as_float) {
        if w <= 0.0 {
            return Err(format!("serve.default_weight must be > 0 (got {w})"));
        }
        settings.default_weight = w;
    }
    if let Some(tenants) = block.get("tenants").and_then(Value::as_map) {
        for (name, weight) in tenants.iter() {
            let w = weight
                .as_float()
                .ok_or_else(|| format!("serve.tenants.{name} must be a number"))?;
            if w <= 0.0 {
                return Err(format!("serve.tenants.{name} must be > 0 (got {w})"));
            }
            settings.tenants.push((name.to_string(), w));
        }
    }
    Ok(settings)
}

/// Parse the `fault:` block into a [`FaultPlan`].
fn parse_fault(v: &Value) -> Result<Option<FaultPlan>, String> {
    let Some(block) = v.get("fault") else {
        return Ok(None);
    };
    let mut plan = FaultPlan::new();
    if let Some(kills) = block.get("kill").and_then(Value::as_seq) {
        for kill in kills {
            let node = kill
                .get("node")
                .and_then(Value::as_str)
                .ok_or("fault.kill entries need a `node:` name")?
                .to_string();
            if let Some(n) = kill.get("after_tasks").and_then(Value::as_int) {
                plan = plan.kill_after_tasks(node, n.max(0) as usize);
            } else if let Some(ms) = kill.get("after_ms").and_then(Value::as_int) {
                plan = plan.kill_after(node, Duration::from_millis(ms.max(0) as u64));
            } else {
                plan = plan.kill_now(node);
            }
        }
    }
    Ok(Some(plan))
}

/// Load a configuration from a parsed value.
pub fn load_config_value(v: &Value) -> Result<RunnerConfig, String> {
    let executor = v.get("executor").cloned().unwrap_or(Value::Null);
    let kind = executor
        .get("kind")
        .and_then(Value::as_str)
        .unwrap_or("thread-pool");
    let retry = parse_retry(v)?;
    let fault_plan = parse_fault(v)?;
    let monitoring = parse_monitoring(v)?;
    let checkpoint = parse_checkpoint(v)?;
    let staging = parse_staging(v)?;
    let serve = parse_serve(v)?;

    let mut scheduler = None;
    let parsl = match kind {
        "thread-pool" | "threads" | "local-threads" => {
            let workers = executor
                .get("workers")
                .and_then(Value::as_int)
                .map(|n| n.max(1) as usize)
                .unwrap_or_else(default_parallelism);
            Config::local_threads(workers).with_retry_policy(retry)
        }
        "htex" | "high-throughput" => {
            let nodes = executor
                .get("nodes")
                .and_then(Value::as_int)
                .unwrap_or(1)
                .max(1) as usize;
            let workers_per_node = executor
                .get("workers_per_node")
                .and_then(Value::as_int)
                .unwrap_or(0)
                .max(0) as usize;
            let provider_cfg = v.get("provider").cloned().unwrap_or(Value::Null);
            let provider: Arc<dyn Provider> = match provider_cfg
                .get("kind")
                .and_then(Value::as_str)
                .unwrap_or("local")
            {
                "local" => {
                    let cores = provider_cfg
                        .get("cores_per_node")
                        .and_then(Value::as_int)
                        .map(|n| n.max(1) as usize)
                        .unwrap_or_else(default_parallelism);
                    Arc::new(LocalProvider::new(cores))
                }
                "slurm" => {
                    let cluster_cfg = provider_cfg.get("cluster").cloned().unwrap_or(Value::Null);
                    let cluster = ClusterSpec::homogeneous(
                        "configured",
                        cluster_cfg
                            .get("nodes")
                            .and_then(Value::as_int)
                            .unwrap_or(nodes as i64)
                            .max(1) as usize,
                        cluster_cfg
                            .get("cores_per_node")
                            .and_then(Value::as_int)
                            .map(|n| n.max(1) as usize)
                            .unwrap_or_else(default_parallelism),
                        126,
                    );
                    let sched = BatchScheduler::new(cluster, SchedulerConfig::default());
                    scheduler = Some(sched.clone());
                    Arc::new(SlurmProvider::new(sched))
                }
                other => return Err(format!("unknown provider kind {other:?}")),
            };
            let defaults = HtexConfig::default();
            let htex = HtexConfig {
                label: executor
                    .get("label")
                    .and_then(Value::as_str)
                    .unwrap_or("htex")
                    .to_string(),
                nodes,
                workers_per_node,
                latency: LatencyModel::cluster_lan(),
                min_nodes: executor
                    .get("min_nodes")
                    .and_then(Value::as_int)
                    .map(|n| n.max(0) as usize)
                    .unwrap_or(0),
                heartbeat_period: executor
                    .get("heartbeat_ms")
                    .and_then(Value::as_int)
                    .map(|ms| Duration::from_millis(ms.max(1) as u64))
                    .unwrap_or(defaults.heartbeat_period),
                heartbeat_threshold: executor
                    .get("heartbeat_timeout_ms")
                    .and_then(Value::as_int)
                    .map(|ms| Duration::from_millis(ms.max(1) as u64))
                    .unwrap_or(defaults.heartbeat_threshold),
                fault_plan: fault_plan.clone(),
                batch_size: executor
                    .get("batch_size")
                    .and_then(Value::as_int)
                    .map(|n| n.max(1) as usize)
                    .unwrap_or(defaults.batch_size),
                clock: defaults.clock,
            };
            Config::htex(htex, provider).with_retry_policy(retry)
        }
        other => return Err(format!("unknown executor kind {other:?}")),
    };

    let run = v.get("run").cloned().unwrap_or(Value::Null);
    let workdir = run
        .get("workdir")
        .and_then(Value::as_str)
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("parsl-cwl-{}", std::process::id())));
    let builtin_tools = run
        .get("builtin_tools")
        .and_then(Value::as_bool)
        .unwrap_or(false);

    let check = v.get("check").cloned().unwrap_or(Value::Null);
    let pre_run_check = check
        .get("pre_run")
        .and_then(Value::as_bool)
        .unwrap_or(true);
    let strict_check = check
        .get("strict")
        .and_then(Value::as_bool)
        .unwrap_or(false);

    let parsl = parsl.with_monitoring(monitoring);

    Ok(RunnerConfig {
        parsl,
        workdir,
        builtin_tools,
        scheduler,
        fault_plan,
        pre_run_check,
        strict_check,
        checkpoint,
        staging,
        serve,
    })
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsl::ExecutorChoice;
    use yamlite::parse_str;

    #[test]
    fn default_config_is_thread_pool() {
        let c = load_config_value(&Value::Null).unwrap();
        assert!(matches!(
            c.parsl.executor,
            ExecutorChoice::ThreadPool { .. }
        ));
        assert!(!c.builtin_tools);
        assert!(c.scheduler.is_none());
        assert!(c.fault_plan.is_none());
        assert_eq!(c.parsl.retry, RetryPolicy::default());
    }

    #[test]
    fn thread_pool_with_workers() {
        let v = parse_str("executor:\n  kind: thread-pool\n  workers: 6\nretries: 2\n").unwrap();
        let c = load_config_value(&v).unwrap();
        match c.parsl.executor {
            ExecutorChoice::ThreadPool { workers } => assert_eq!(workers, 6),
            _ => panic!("wrong executor"),
        }
        assert_eq!(c.parsl.retry.max_retries, 2);
    }

    #[test]
    fn retry_block_overrides_shorthand() {
        let v = parse_str(
            "retries: 1\nretry:\n  max_retries: 3\n  initial_backoff_ms: 50\n  multiplier: 3.0\n  max_backoff_ms: 800\n  jitter: 0.2\n  walltime_ms: 1500\n",
        )
        .unwrap();
        let c = load_config_value(&v).unwrap();
        let r = &c.parsl.retry;
        assert_eq!(r.max_retries, 3);
        assert_eq!(r.initial_backoff, Duration::from_millis(50));
        assert_eq!(r.multiplier, 3.0);
        assert_eq!(r.max_backoff, Duration::from_millis(800));
        assert_eq!(r.jitter_frac, 0.2);
        assert_eq!(r.walltime, Some(Duration::from_millis(1500)));
    }

    #[test]
    fn htex_with_slurm_cluster() {
        let v = parse_str(
            "executor:\n  kind: htex\n  nodes: 3\n  workers_per_node: 4\nprovider:\n  kind: slurm\n  cluster:\n    nodes: 3\n    cores_per_node: 4\nrun:\n  workdir: /tmp/x\n  builtin_tools: true\n",
        )
        .unwrap();
        let c = load_config_value(&v).unwrap();
        assert!(matches!(c.parsl.executor, ExecutorChoice::Htex { .. }));
        assert!(c.builtin_tools);
        assert_eq!(c.workdir, PathBuf::from("/tmp/x"));
        let sched = c.scheduler.unwrap();
        assert_eq!(sched.cluster().node_count(), 3);
        assert_eq!(sched.cluster().total_cores(), 12);
    }

    #[test]
    fn htex_fault_tolerance_surface() {
        let v = parse_str(
            "executor:\n  kind: htex\n  nodes: 3\n  workers_per_node: 2\n  min_nodes: 3\n  heartbeat_ms: 10\n  heartbeat_timeout_ms: 120\nprovider:\n  kind: slurm\n  cluster:\n    nodes: 4\n    cores_per_node: 2\nretry:\n  max_retries: 1\nfault:\n  kill:\n    - node: node02\n      after_tasks: 5\n    - node: node03\n      after_ms: 250\n",
        )
        .unwrap();
        let c = load_config_value(&v).unwrap();
        let plan = c.fault_plan.clone().expect("fault plan parsed");
        assert!(!plan.is_empty());
        assert!(!plan.is_dead("node02"));
        match c.parsl.executor {
            ExecutorChoice::Htex { config, .. } => {
                assert_eq!(config.min_nodes, 3);
                assert_eq!(config.heartbeat_period, Duration::from_millis(10));
                assert_eq!(config.heartbeat_threshold, Duration::from_millis(120));
                // The executor's plan shares state with the returned one.
                assert!(config.fault_plan.is_some());
            }
            _ => panic!("wrong executor"),
        }
        assert_eq!(c.parsl.retry.max_retries, 1);
    }

    #[test]
    fn check_block_defaults_and_overrides() {
        let c = load_config_value(&Value::Null).unwrap();
        assert!(c.pre_run_check);
        assert!(!c.strict_check);
        let v = parse_str("check:\n  pre_run: false\n  strict: true\n").unwrap();
        let c = load_config_value(&v).unwrap();
        assert!(!c.pre_run_check);
        assert!(c.strict_check);
    }

    #[test]
    fn monitoring_block_parses() {
        let c = load_config_value(&Value::Null).unwrap();
        assert!(!c.parsl.monitoring.enabled, "monitoring must default off");

        let v = parse_str(
            "monitoring:\n  sample_rate: 0.5\n  export: /tmp/t.jsonl\n  sinks: [jsonl, chrome]\n",
        )
        .unwrap();
        let c = load_config_value(&v).unwrap();
        let m = &c.parsl.monitoring;
        assert!(m.enabled, "a monitoring block implies enabled");
        assert_eq!(m.sample_rate, 0.5);
        assert_eq!(m.export_path, Some(PathBuf::from("/tmp/t.jsonl")));
        assert!(m.sink_jsonl);
        assert!(m.sink_chrome);

        let v = parse_str("monitoring:\n  enabled: false\n  export: x.jsonl\n").unwrap();
        assert!(!load_config_value(&v).unwrap().parsl.monitoring.enabled);

        let v = parse_str("monitoring:\n  sinks: [bogus]\n").unwrap();
        assert!(load_config_value(&v).is_err());
    }

    #[test]
    fn out_of_range_jitter_is_a_load_error() {
        // Regression: a negative jitter used to be silently clamped (and,
        // fed directly to RetryPolicy, could panic in gen_range).
        let v = parse_str("retry:\n  jitter: -0.3\n").unwrap();
        let err = match load_config_value(&v) {
            Err(e) => e,
            Ok(_) => panic!("negative jitter must be rejected"),
        };
        assert!(err.contains("retry.jitter"), "{err}");
        assert!(err.contains("-0.3"), "{err}");
        let v = parse_str("retry:\n  jitter: 2.5\n").unwrap();
        assert!(load_config_value(&v).is_err());
        // In-range values still load.
        let v = parse_str("retry:\n  jitter: 0.25\n").unwrap();
        assert_eq!(load_config_value(&v).unwrap().parsl.retry.jitter_frac, 0.25);
    }

    #[test]
    fn checkpoint_block_parses() {
        let c = load_config_value(&Value::Null).unwrap();
        assert_eq!(c.checkpoint, CheckpointSettings::default());
        assert_eq!(c.checkpoint.mode, CheckpointMode::Off);
        assert!(c.checkpoint.sync_mode().is_none());

        // A bare block implies task-exit mode.
        let v = parse_str("checkpoint: {}\n").unwrap();
        let c = load_config_value(&v).unwrap();
        assert_eq!(c.checkpoint.mode, CheckpointMode::TaskExit);
        assert_eq!(c.checkpoint.sync_mode(), Some(ckpt::SyncMode::TaskExit));

        let v =
            parse_str("checkpoint:\n  mode: periodic\n  dir: /tmp/j\n  period_ms: 250\n").unwrap();
        let c = load_config_value(&v).unwrap();
        assert_eq!(c.checkpoint.mode, CheckpointMode::Periodic);
        assert_eq!(c.checkpoint.dir, Some(PathBuf::from("/tmp/j")));
        assert_eq!(
            c.checkpoint.sync_mode(),
            Some(ckpt::SyncMode::Periodic(Duration::from_millis(250)))
        );

        let v = parse_str("checkpoint:\n  mode: off\n  dir: /tmp/j\n").unwrap();
        assert_eq!(
            load_config_value(&v).unwrap().checkpoint.mode,
            CheckpointMode::Off
        );

        let v = parse_str("checkpoint:\n  mode: sometimes\n").unwrap();
        match load_config_value(&v) {
            Err(e) => assert!(e.contains("checkpoint mode"), "{e}"),
            Ok(_) => panic!("unknown checkpoint mode must be rejected"),
        }
    }

    #[test]
    fn staging_block_parses() {
        let c = load_config_value(&Value::Null).unwrap();
        assert_eq!(c.staging, StagingSettings::default());
        assert_eq!(c.staging.mode, datastore::StageMode::Auto);
        assert!(c.staging.dir.is_none());

        let v = parse_str("staging:\n  mode: copy\n  dir: /shared/cas\n  pool: 8\n").unwrap();
        let c = load_config_value(&v).unwrap();
        assert_eq!(c.staging.mode, datastore::StageMode::Copy);
        assert_eq!(c.staging.dir, Some(PathBuf::from("/shared/cas")));
        assert_eq!(c.staging.pool, 8);

        let v = parse_str("staging:\n  mode: link\n").unwrap();
        assert_eq!(
            load_config_value(&v).unwrap().staging.mode,
            datastore::StageMode::Link
        );

        let v = parse_str("staging:\n  mode: teleport\n").unwrap();
        match load_config_value(&v) {
            Err(e) => assert!(e.contains("staging mode"), "{e}"),
            Ok(_) => panic!("unknown staging mode must be rejected"),
        }
    }

    #[test]
    fn fault_kill_requires_node_name() {
        let v = parse_str("fault:\n  kill:\n    - after_tasks: 2\n").unwrap();
        assert!(load_config_value(&v).is_err());
    }

    #[test]
    fn unknown_kinds_rejected() {
        let v = parse_str("executor:\n  kind: quantum\n").unwrap();
        assert!(load_config_value(&v).is_err());
        let v = parse_str("executor:\n  kind: htex\nprovider:\n  kind: cloud9\n").unwrap();
        assert!(load_config_value(&v).is_err());
    }
}
