//! TaPS-style YAML configuration for the `parsl-cwl` runner (§III-B), and
//! the one reader of it.
//!
//! The paper adopts a YAML configuration format (following the TaPS
//! benchmark suite) so the Parsl execution setup lives next to the CWL
//! documents. [`KEYS`] is its schema: one row per key, giving the key's
//! path, type, range or enum, default, and whether only HTEX reads it.
//! [`read_config`] walks a config once against that table. It reports
//! every finding through a [`Sink`] and, when none is an error, builds the
//! [`RunnerConfig`]. The findings are E041 (unknown key, with a
//! did-you-mean), E042 (wrong type or out of range), E043 (keys fine alone
//! but not together), E044/E045 (a staging dir or serve socket that can
//! never be created) and W120 (a setting nothing reads).
//!
//! `load_config_file`, `parsl-lint` (plus its cross-file W121, see
//! [`crate::lint`]) and `cwl-check --config` all read through it, so a key
//! cannot be known to one of them and unknown to another.
//!
//! # Reference
//!
//! Every key, with its range and default. A test holds this block to
//! [`KEYS`] and lints it (warnings allowed: no single config uses every
//! key).
//!
//! ```yaml
//! executor:
//!   kind: htex                 # thread-pool | threads | local-threads | htex | high-throughput (default thread-pool)
//!   workers: 8                 # thread pool: worker threads, >= 1 (default: one per host core)
//!   nodes: 3                   # htex: nodes requested at start, >= 1 (default 1)
//!   workers_per_node: 48       # htex: >= 0, 0 = one worker per core (default 0)
//!   min_nodes: 3               # htex: replace lost nodes to keep this floor, >= 0 (default 0)
//!   heartbeat_ms: 25           # htex: manager heartbeat period, >= 1 (default 25)
//!   heartbeat_timeout_ms: 250  # htex: silence that declares a manager lost, > heartbeat_ms (default 250)
//!   label: htex                # htex: executor label (default htex)
//!   batch_size: 8              # htex: tasks per interchange message, >= 1 (default 8)
//! provider:                    # htex only
//!   kind: slurm                # local | slurm (default local)
//!   cores_per_node: 8          # local: cores per node, >= 1 (default: host cores)
//!   cluster:                   # slurm: the simulated cluster, 126 GiB per node
//!     nodes: 4                 # >= executor.nodes and min_nodes (default: executor.nodes)
//!     cores_per_node: 48       # >= 1 (default: host cores)
//! retries: 1                   # shorthand for retry.max_retries, >= 0
//! retry:
//!   max_retries: 1             # >= 0 (default 0)
//!   initial_backoff_ms: 50     # >= 0 (default 0)
//!   multiplier: 2.0            # finite, >= 0 (default 2.0)
//!   max_backoff_ms: 2000       # >= 0 (default 30000)
//!   jitter: 0.1                # in [0, 1] (default 0.1)
//!   walltime_ms: 60000         # per-attempt limit, >= 1 (default: none)
//! fault:                       # htex only: scripted node deaths (experiments)
//!   kill:
//!     - node: node02           # required
//!       after_tasks: 10        # die after this many task arrivals, >= 0
//!     - node: node03
//!       after_ms: 500          # die this long after start, >= 0 (no trigger: at start)
//! run:
//!   workdir: ./work            # default: <temp>/parsl-cwl-<pid>
//!   builtin_tools: true        # run recognized workload tools in-process (default false)
//! check:                       # the pre-run cwl-check gate analyzes every run
//!   strict: false              # also refuse warnings, this config's included (default false)
//! checkpoint:                  # durable crash-resume journal; the block turns it on
//!   mode: periodic             # off | task-exit | periodic (default task-exit)
//!   dir: ./work/ckpt           # journal directory (default <workdir>/ckpt)
//!   period_ms: 500             # periodic: the exact fsync period, >= 1 (default 500)
//! staging:                     # content-addressed data plane
//!   mode: auto                 # copy | link | auto (default auto)
//!   dir: ./work/cas            # shared store, must be creatable (default: per-run <workdir>/cas)
//!   pool: 8                    # parallel stage-in pool width, >= 1 (default 4)
//! monitoring:                  # the block turns monitoring on
//!   enabled: true              # (default true)
//!   sample_rate: 1.0           # fraction of task lineages traced, in [0, 1] (default 1.0)
//!   export: ./work/trace.jsonl # JSONL trace path, read by parsl-trace (default: no export)
//!   sinks: [jsonl, chrome]     # list of jsonl | chrome (default [jsonl])
//! serve:                       # parsl-serve daemon (multi-run service)
//!   socket: ./work/serve.sock  # UDS path, directory must be creatable (default <workdir>/serve.sock)
//!   max_in_flight: 4           # runs executing concurrently, >= 1 (default 4)
//!   queue_cap: 64              # queued runs before backpressure, >= 1 (default 64)
//!   default_weight: 1.0        # fair-share weight of unlisted tenants, > 0 (default 1.0)
//!   tenants:                   # fair-share weight per tenant, each > 0
//!     alice: 3.0
//!     bob: 1.0
//! ```

use cwl::analyze::diag::{codes, Report, Sink};
use cwlexec::{probe_creatable, StagingSettings};
use gridsim::{BatchScheduler, ClusterSpec, FaultPlan, LatencyModel, SchedulerConfig};
use parsl::{Config, HtexConfig, LocalProvider, Provider, RetryPolicy, SlurmProvider};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use yamlite::span::{child_path, item_path};
use yamlite::{SpanIndex, Value};
use Kind::*;

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
    /// The `cwl-check` pre-run gate, which analyzes every run's documents
    /// before executing, also refuses to run on warnings.
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
    pub(crate) socket: Option<PathBuf>,
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

impl ServeSettings {
    /// Resolve the socket path against the configured workdir.
    pub fn socket_path(&self, workdir: &Path) -> PathBuf {
        self.socket
            .clone()
            .unwrap_or_else(|| workdir.join("serve.sock"))
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

/// What a key's value must be.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Kind {
    /// A map of the rows one level below (an empty value counts as `{}`).
    Block,
    /// A list of such maps, checked against the rows below `<path>[]`.
    BlockList,
    /// An integer `>=` this minimum.
    Int(i64),
    Bool,
    Str,
    /// One of these names.
    Enum(&'static [&'static str]),
    /// A list of names, each one of these.
    EnumList(&'static [&'static str]),
    /// A finite number in `[0, 1]`.
    Fraction,
    /// A finite number `>= 0`.
    NonNegative,
    /// A finite number `> 0`: a fair-share weight.
    Weight,
    /// A map from tenant names to weights.
    Weights,
}

/// One row of the config schema.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Key {
    /// Dotted path from the top of the file; `[]` stands for every entry
    /// of a list.
    pub(crate) path: &'static str,
    pub(crate) kind: Kind,
    /// What an absent key means, as YAML. Empty when the reader computes
    /// it (host cores, a path under the workdir: see the reference above).
    pub(crate) default: &'static str,
    /// Only the HTEX executor reads it, so a thread pool warns W120.
    pub(crate) htex_only: bool,
}

const fn key(path: &'static str, kind: Kind, default: &'static str) -> Key {
    Key {
        path,
        kind,
        default,
        htex_only: false,
    }
}

const fn htex(path: &'static str, kind: Kind, default: &'static str) -> Key {
    Key {
        htex_only: true,
        ..key(path, kind, default)
    }
}

const HTEX_KINDS: &[&str] = &["htex", "high-throughput"];

/// The config schema: every key there is.
#[rustfmt::skip]
pub(crate) const KEYS: &[Key] = &[
    key("executor",                        Block,       ""),
    key("executor.kind",                   Enum(&["thread-pool", "threads", "local-threads", "htex", "high-throughput"]), "thread-pool"),
    key("executor.workers",                Int(1),      ""),
    htex("executor.nodes",                 Int(1),      "1"),
    htex("executor.workers_per_node",      Int(0),      "0"),
    htex("executor.min_nodes",             Int(0),      "0"),
    htex("executor.heartbeat_ms",          Int(1),      "25"),
    htex("executor.heartbeat_timeout_ms",  Int(1),      "250"),
    htex("executor.label",                 Str,         "htex"),
    htex("executor.batch_size",            Int(1),      "8"),
    htex("provider",                       Block,       ""),
    key("provider.kind",                   Enum(&["local", "slurm"]), "local"),
    key("provider.cores_per_node",         Int(1),      ""),
    key("provider.cluster",                Block,       ""),
    key("provider.cluster.nodes",          Int(1),      ""),
    key("provider.cluster.cores_per_node", Int(1),      ""),
    key("retries",                         Int(0),      "0"),
    key("retry",                           Block,       ""),
    key("retry.max_retries",               Int(0),      ""),
    key("retry.initial_backoff_ms",        Int(0),      "0"),
    key("retry.multiplier",                NonNegative, "2.0"),
    key("retry.max_backoff_ms",            Int(0),      "30000"),
    key("retry.jitter",                    Fraction,    "0.1"),
    key("retry.walltime_ms",               Int(1),      ""),
    htex("fault",                          Block,       ""),
    key("fault.kill",                      BlockList,   ""),
    key("fault.kill[].node",               Str,         ""),
    key("fault.kill[].after_tasks",        Int(0),      ""),
    key("fault.kill[].after_ms",           Int(0),      ""),
    key("run",                             Block,       ""),
    key("run.workdir",                     Str,         ""),
    key("run.builtin_tools",               Bool,        "false"),
    key("check",                           Block,       ""),
    key("check.strict",                    Bool,        "false"),
    key("checkpoint",                      Block,       ""),
    key("checkpoint.mode",                 Enum(&["off", "task-exit", "periodic"]), "task-exit"),
    key("checkpoint.dir",                  Str,         ""),
    key("checkpoint.period_ms",            Int(1),      "500"),
    key("staging",                         Block,       ""),
    key("staging.mode",                    Enum(&["copy", "link", "auto"]), "auto"),
    key("staging.dir",                     Str,         ""),
    key("staging.pool",                    Int(1),      "4"),
    key("monitoring",                      Block,       ""),
    key("monitoring.enabled",              Bool,        "true"),
    key("monitoring.sample_rate",          Fraction,    "1.0"),
    key("monitoring.export",               Str,         ""),
    key("monitoring.sinks",                EnumList(&["jsonl", "chrome"]), "[jsonl]"),
    key("serve",                           Block,       ""),
    key("serve.socket",                    Str,         ""),
    key("serve.max_in_flight",             Int(1),      "4"),
    key("serve.queue_cap",                 Int(1),      "64"),
    key("serve.tenants",                   Weights,     ""),
    key("serve.default_weight",            Weight,      "1.0"),
];

/// Memory per node of the simulated Slurm cluster, in GiB.
const SIMULATED_NODE_GIB: usize = 126;

/// The row for a concrete path (`fault.kill[2].node` → `fault.kill[].node`).
fn row(path: &str) -> Option<&'static Key> {
    let mut parts = path.split('[');
    let mut generic = parts.next().unwrap_or_default().to_string();
    for part in parts {
        generic.push_str("[]");
        generic.push_str(part.split_once(']').map_or("", |(_, rest)| rest));
    }
    KEYS.iter().find(|k| k.path == generic)
}

/// Levenshtein edit distance, for did-you-mean suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// ` (did you mean "x"?)` for the closest known name, when close enough
/// to be a plausible typo; empty otherwise.
fn did_you_mean(name: &str, known: &[&str]) -> String {
    known
        .iter()
        .map(|k| (edit_distance(name, k), *k))
        .min()
        .filter(|(d, k)| *d <= 2.max(k.len() / 3))
        .map(|(_, k)| format!(" (did you mean {k:?}?)"))
        .unwrap_or_default()
}

/// What a scalar should have been, and what it is, when `v` does not fit
/// `kind`.
fn misfit(kind: Kind, v: &Value) -> Option<String> {
    let number = v.as_float().filter(|f| f.is_finite());
    let expected = match kind {
        Int(min) => match v.as_int() {
            Some(n) if n >= min => return None,
            Some(_) => format!(">= {min}"),
            None => "an integer".to_string(),
        },
        Bool if v.as_bool().is_none() => "a boolean".to_string(),
        Str if v.as_str().is_none() => "a string".to_string(),
        Enum(names) => match v.as_str() {
            Some(s) if names.contains(&s) => return None,
            s => {
                let suggestion = s.map(|s| did_you_mean(s, names)).unwrap_or_default();
                return Some(format!(
                    "one of {names:?}, got {}{suggestion}",
                    v.to_display_string()
                ));
            }
        },
        Fraction if !number.is_some_and(|f| (0.0..=1.0).contains(&f)) => {
            "a fraction in [0, 1]".to_string()
        }
        NonNegative if !number.is_some_and(|f| f >= 0.0) => {
            "a finite non-negative number".to_string()
        }
        Weight if !number.is_some_and(|f| f > 0.0) => "a number > 0".to_string(),
        _ => return None,
    };
    Some(format!("{expected}, got {}", v.to_display_string()))
}

/// What [`read_config`] makes of one config.
#[derive(Default)]
pub(crate) struct Reading {
    /// The config, when no finding was an error.
    pub(crate) config: Option<RunnerConfig>,
    /// The checkpoint journal directory the config pins, and the key that
    /// pins it (`parsl-lint`'s cross-file W121 compares these). `None`
    /// when checkpointing is off or the journal lands in the per-process
    /// temp workdir, which is unique by construction.
    pub(crate) journal: Option<(PathBuf, &'static str)>,
}

/// Read a config: check `doc` against [`KEYS`] in one walk, report every
/// finding to `sink`, and build the [`RunnerConfig`] when none is an
/// error.
pub(crate) fn read_config(doc: &Value, sink: &mut Sink) -> Reading {
    let mut pass = Pass {
        sink,
        found: BTreeMap::new(),
        errors: 0,
    };
    if !matches!(doc, Value::Null | Value::Map(_)) {
        let got = doc.to_display_string();
        pass.error(
            codes::CFG_VALUE,
            "",
            format!("config must be a YAML map, got {got}"),
        );
        return Reading::default();
    }
    pass.block(doc, "", "");
    pass.combinations();
    pass.no_effect();
    let retry = pass.retry();
    if let Err(e) = retry.validate() {
        pass.error(codes::CFG_VALUE, "retry", e);
    }
    let staging = pass.staging();
    if let Err(e) = staging.validate() {
        pass.error(codes::CFG_STAGING_DIR, "staging.dir", e);
    }
    let serve = pass.serve();
    if let Some(sock) = &serve.socket {
        // `bind()` creates the socket file, so its directory must be
        // creatable (a bare file name binds in the working directory).
        let subject = format!("serve.socket {}", sock.display());
        if let Err(e) = probe_creatable(sock.parent().unwrap_or(sock), &subject, "creatable") {
            pass.error(codes::CFG_SERVE_SOCKET, "serve.socket", e);
        }
    }
    Reading {
        journal: pass.journal(),
        config: (pass.errors == 0).then(|| pass.build(retry, staging, serve)),
    }
}

/// The state of one [`read_config`] walk.
struct Pass<'a, 's, 'r> {
    sink: &'s mut Sink<'r>,
    /// Every known key the config sets, by concrete path, and whether its
    /// value passed its row.
    found: BTreeMap<String, (&'a Value, bool)>,
    errors: usize,
}

impl<'a> Pass<'a, '_, '_> {
    fn error(&mut self, code: &'static str, path: impl Into<String>, message: impl Into<String>) {
        self.errors += 1;
        self.sink.error(code, path, message);
    }

    /// Check every key of the map `v` (at `at`) against the rows below
    /// `parent`.
    fn block(&mut self, v: &'a Value, parent: &str, at: &str) {
        let Value::Map(m) = v else { return };
        for (name, value) in m.iter() {
            let path = child_path(at, name);
            match row(&child_path(parent, name)) {
                Some(key) => self.value(key, value, path),
                None => self.unknown(name, parent, at),
            }
        }
    }

    /// E041 for `name` in the block at `at`.
    fn unknown(&mut self, name: &str, parent: &str, at: &str) {
        let known: Vec<&str> = KEYS
            .iter()
            .filter_map(|k| match parent {
                "" => Some(k.path),
                _ => k.path.strip_prefix(parent)?.strip_prefix('.'),
            })
            .filter(|rest| !rest.contains('.'))
            .collect();
        let suggestion = did_you_mean(name, &known);
        let where_ = match at {
            "" => "the top level".to_string(),
            _ => format!("`{at}:`"),
        };
        self.error(
            codes::CFG_UNKNOWN_KEY,
            child_path(at, name),
            format!("unknown key {name:?} in {where_}{suggestion}"),
        );
    }

    /// Check `v` against its row; E042 when it does not fit.
    fn value(&mut self, key: &'static Key, v: &'a Value, path: String) {
        let shown = v.to_display_string();
        let misfit = match (key.kind, v) {
            (Block, Value::Map(_) | Value::Null) => {
                self.block(v, key.path, &path);
                None
            }
            (Block, _) => Some(format!("a map, got {shown}")),
            (BlockList, Value::Seq(items)) => {
                let entry = format!("{}[]", key.path);
                for (i, item) in items.iter().enumerate() {
                    self.block(item, &entry, &item_path(&path, i));
                }
                None
            }
            (EnumList(names), Value::Seq(items)) => {
                let label = format!("{path} entries");
                for (i, item) in items.iter().enumerate() {
                    self.check(Enum(names), item, item_path(&path, i), &label);
                }
                None
            }
            (BlockList | EnumList(_), _) => Some(format!("a list, got {shown}")),
            (Weights, Value::Map(m)) => {
                for (name, weight) in m.iter() {
                    let at = child_path(&path, name);
                    self.check(Weight, weight, at.clone(), &at);
                }
                None
            }
            (Weights, _) => Some(format!("a map of tenant -> weight, got {shown}")),
            (scalar, _) => misfit(scalar, v),
        };
        if let Some(misfit) = &misfit {
            self.error(
                codes::CFG_VALUE,
                path.clone(),
                format!("{path} must be {misfit}"),
            );
        }
        self.found.insert(path, (v, misfit.is_none()));
    }

    /// E042 at `at` unless `v` fits the scalar `kind`; `label` names the
    /// value in the message.
    fn check(&mut self, kind: Kind, v: &Value, at: String, label: &str) {
        if let Some(misfit) = misfit(kind, v) {
            self.error(codes::CFG_VALUE, at, format!("{label} must be {misfit}"));
        }
    }

    /// The value at `path`, when it passed its row.
    fn get(&self, path: &str) -> Option<&'a Value> {
        self.found.get(path).filter(|(_, ok)| *ok).map(|(v, _)| *v)
    }

    /// Whether the config sets `path` at all.
    fn set(&self, path: &str) -> bool {
        self.found.contains_key(path)
    }

    /// The value at `path`, or its row's default.
    fn effective(&self, path: &str) -> Option<Value> {
        if let Some(v) = self.get(path) {
            return Some(v.clone());
        }
        let default = row(path)?.default;
        (!default.is_empty()).then(|| yamlite::parse_str(default).expect("KEYS defaults are YAML"))
    }

    fn int(&self, path: &str) -> Option<i64> {
        self.effective(path)?.as_int()
    }

    fn count(&self, path: &str) -> usize {
        self.int(path).unwrap_or_default() as usize
    }

    /// A count whose default is the host's core count.
    fn cores(&self, path: &str) -> usize {
        self.int(path)
            .map_or_else(default_parallelism, |n| n as usize)
    }

    fn millis(&self, path: &str) -> Duration {
        Duration::from_millis(self.int(path).unwrap_or_default() as u64)
    }

    fn float(&self, path: &str) -> f64 {
        self.effective(path)
            .and_then(|v| v.as_float())
            .unwrap_or_default()
    }

    fn flag(&self, path: &str) -> bool {
        self.effective(path).and_then(|v| v.as_bool()) == Some(true)
    }

    fn text(&self, path: &str) -> String {
        let v = self.effective(path).unwrap_or_default();
        v.as_str().unwrap_or_default().to_string()
    }

    /// A path the config sets; these have no literal default.
    fn path(&self, path: &str) -> Option<PathBuf> {
        self.get(path)?.as_str().map(PathBuf::from)
    }

    fn is_htex(&self) -> bool {
        HTEX_KINDS.contains(&self.text("executor.kind").as_str())
    }

    /// E043: keys that are fine alone but not together.
    fn combinations(&mut self) {
        // A heartbeat timeout not above the period declares every manager
        // lost between two beats. Either key alone is compared with the
        // other's default: that is the executor the run would get. (A
        // thread pool has no heartbeats; W120 says so.)
        let (period_key, timeout_key) = ("executor.heartbeat_ms", "executor.heartbeat_timeout_ms");
        if self.is_htex() && (self.get(period_key).is_some() || self.get(timeout_key).is_some()) {
            let period = self.int(period_key).unwrap_or_default();
            let timeout = self.int(timeout_key).unwrap_or_default();
            if timeout <= period {
                let at = match self.get(timeout_key) {
                    Some(_) => timeout_key,
                    None => period_key,
                };
                self.error(
                    codes::CFG_COMBO,
                    at,
                    format!(
                        "heartbeat_timeout_ms ({timeout}) must exceed heartbeat_ms \
                         ({period}); as configured every manager misses its deadline"
                    ),
                );
            }
        }

        // Asking the provider for more nodes than the cluster has.
        let cluster_nodes = self.get("provider.cluster.nodes").and_then(Value::as_int);
        if let (Some(cluster_nodes), "slurm") = (cluster_nodes, self.text("provider.kind").as_str())
        {
            for key in ["nodes", "min_nodes"] {
                let path = child_path("executor", key);
                match self.get(&path).and_then(Value::as_int) {
                    Some(n) if n > cluster_nodes => self.error(
                        codes::CFG_COMBO,
                        path,
                        format!(
                            "executor.{key} ({n}) exceeds the cluster's \
                             {cluster_nodes} node(s); the pilot job can never start"
                        ),
                    ),
                    _ => {}
                }
            }
        }

        // A kill names its node and has at most one trigger.
        let kills = match self.get("fault.kill") {
            Some(Value::Seq(kills)) => kills.as_slice(),
            _ => &[],
        };
        for (i, kill) in kills.iter().enumerate() {
            let at = item_path("fault.kill", i);
            if kill.get("node").is_none() {
                self.error(
                    codes::CFG_VALUE,
                    at.clone(),
                    format!("fault.kill[{i}] needs a `node:` name"),
                );
            }
            if kill.get("after_tasks").is_some() && kill.get("after_ms").is_some() {
                self.error(
                    codes::CFG_COMBO,
                    at,
                    format!(
                        "fault.kill[{i}] sets both after_tasks and after_ms; \
                         a kill has one trigger (after_tasks wins here, which \
                         is probably not what you meant)"
                    ),
                );
            }
        }
    }

    /// W120: settings the chosen executor or mode never reads.
    fn no_effect(&mut self) {
        let kind = self.text("executor.kind");
        let mut idle: Vec<(&str, String)> = Vec::new();
        if !self.is_htex() {
            for key in KEYS.iter().filter(|k| k.htex_only && self.set(k.path)) {
                let what = match key.kind {
                    Block => format!("`{}:`", key.path),
                    _ => key.path.to_string(),
                };
                let message = format!("{what} has no effect with the {kind} executor");
                idle.push((key.path, message));
            }
        } else {
            let provider = self.text("provider.kind");
            #[rustfmt::skip]
            let rules = [
                ("executor.workers", true, "has no effect with htex (use workers_per_node)"),
                ("provider.cores_per_node", provider == "slurm", "has no effect with slurm (set provider.cluster.cores_per_node)"),
                ("provider.cluster", provider == "local", "has no effect with the local provider"),
            ];
            for (path, unread, message) in rules {
                if unread && self.set(path) {
                    idle.push((path, format!("{path} {message}")));
                }
            }
        }
        let mode = self.text("checkpoint.mode");
        if self.set("checkpoint.period_ms") && mode != "periodic" {
            let message = format!("only applies to mode: periodic (mode here is {mode})");
            idle.push((
                "checkpoint.period_ms",
                format!("checkpoint.period_ms {message}"),
            ));
        }
        for (path, message) in idle {
            self.sink.warning(codes::CFG_NO_EFFECT, path, message);
        }
    }

    /// The `retry:` block; `retries: N` stands in for its `max_retries`.
    fn retry(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self
                .int("retry.max_retries")
                .map_or(self.count("retries"), |n| n as usize),
            initial_backoff: self.millis("retry.initial_backoff_ms"),
            multiplier: self.float("retry.multiplier"),
            max_backoff: self.millis("retry.max_backoff_ms"),
            jitter_frac: self.float("retry.jitter"),
            walltime: self
                .int("retry.walltime_ms")
                .map(|ms| Duration::from_millis(ms as u64)),
        }
    }

    fn staging(&self) -> StagingSettings {
        StagingSettings {
            mode: datastore::StageMode::parse(&self.text("staging.mode")).unwrap_or_default(),
            dir: self.path("staging.dir"),
            pool: self.count("staging.pool"),
        }
    }

    fn serve(&self) -> ServeSettings {
        let tenants = match self.get("serve.tenants") {
            Some(Value::Map(m)) => m
                .iter()
                .filter_map(|(name, w)| Some((name.to_string(), w.as_float()?)))
                .collect(),
            _ => Vec::new(),
        };
        ServeSettings {
            socket: self.path("serve.socket"),
            max_in_flight: self.count("serve.max_in_flight"),
            queue_cap: self.count("serve.queue_cap"),
            tenants,
            default_weight: self.float("serve.default_weight"),
        }
    }

    /// Where the checkpoint journal lands, when the config pins it.
    fn journal(&self) -> Option<(PathBuf, &'static str)> {
        if !self.set("checkpoint") || self.text("checkpoint.mode") == "off" {
            return None;
        }
        if let Some(dir) = self.path("checkpoint.dir") {
            return Some((dir, "checkpoint.dir"));
        }
        Some((self.path("run.workdir")?.join("ckpt"), "checkpoint"))
    }

    /// The `checkpoint:` block; writing it turns checkpointing on.
    fn checkpoint(&self) -> CheckpointSettings {
        let mode = match self.text("checkpoint.mode").as_str() {
            _ if !self.set("checkpoint") => CheckpointMode::Off,
            "off" => CheckpointMode::Off,
            "periodic" => CheckpointMode::Periodic,
            _ => CheckpointMode::TaskExit,
        };
        CheckpointSettings {
            mode,
            dir: self.path("checkpoint.dir"),
            period: self.millis("checkpoint.period_ms"),
        }
    }

    /// The `monitoring:` block; writing it turns monitoring on.
    fn monitoring(&self) -> obs::ObsConfig {
        let sinks = self.effective("monitoring.sinks").unwrap_or_default();
        let sink = |name| {
            sinks
                .as_seq()
                .unwrap_or_default()
                .iter()
                .any(|s| s.as_str() == Some(name))
        };
        obs::ObsConfig {
            enabled: self.set("monitoring") && self.flag("monitoring.enabled"),
            sample_rate: self.float("monitoring.sample_rate"),
            export_path: self.path("monitoring.export"),
            sink_jsonl: sink("jsonl"),
            sink_chrome: sink("chrome"),
        }
    }

    /// The `fault:` block's scripted node deaths.
    fn fault_plan(&self) -> Option<FaultPlan> {
        if !self.set("fault") {
            return None;
        }
        let mut plan = FaultPlan::new();
        if let Some(Value::Seq(kills)) = self.get("fault.kill") {
            for i in 0..kills.len() {
                let at = item_path("fault.kill", i);
                let field = |name: &str| child_path(&at, name);
                let node = self.text(&field("node"));
                plan = if let Some(n) = self.int(&field("after_tasks")) {
                    plan.kill_after_tasks(node, n as usize)
                } else if self.get(&field("after_ms")).is_some() {
                    plan.kill_after(node, self.millis(&field("after_ms")))
                } else {
                    plan.kill_now(node)
                };
            }
        }
        Some(plan)
    }

    /// Build the config from a walk that reported no error.
    fn build(
        &self,
        retry: RetryPolicy,
        staging: StagingSettings,
        serve: ServeSettings,
    ) -> RunnerConfig {
        let fault_plan = self.fault_plan();
        let mut scheduler = None;
        let parsl = if self.is_htex() {
            let nodes = self.count("executor.nodes");
            let provider: Arc<dyn Provider> = match self.text("provider.kind").as_str() {
                "slurm" => {
                    let cluster = ClusterSpec::homogeneous(
                        "configured",
                        self.int("provider.cluster.nodes")
                            .map_or(nodes, |n| n as usize),
                        self.cores("provider.cluster.cores_per_node"),
                        SIMULATED_NODE_GIB,
                    );
                    let sched = BatchScheduler::new(cluster, SchedulerConfig::default());
                    scheduler = Some(sched.clone());
                    Arc::new(SlurmProvider::new(sched))
                }
                _ => Arc::new(LocalProvider::new(self.cores("provider.cores_per_node"))),
            };
            let htex = HtexConfig {
                label: self.text("executor.label"),
                nodes,
                workers_per_node: self.count("executor.workers_per_node"),
                latency: LatencyModel::cluster_lan(),
                min_nodes: self.count("executor.min_nodes"),
                heartbeat_period: self.millis("executor.heartbeat_ms"),
                heartbeat_threshold: self.millis("executor.heartbeat_timeout_ms"),
                fault_plan: fault_plan.clone(),
                batch_size: self.count("executor.batch_size"),
                ..HtexConfig::default()
            };
            Config::htex(htex, provider)
        } else {
            Config::local_threads(self.cores("executor.workers"))
        };
        RunnerConfig {
            parsl: parsl
                .with_retry_policy(retry)
                .with_monitoring(self.monitoring()),
            workdir: self.path("run.workdir").unwrap_or_else(|| {
                std::env::temp_dir().join(format!("parsl-cwl-{}", std::process::id()))
            }),
            builtin_tools: self.flag("run.builtin_tools"),
            scheduler,
            fault_plan,
            strict_check: self.flag("check.strict"),
            checkpoint: self.checkpoint(),
            staging,
            serve,
        }
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Load a configuration from a YAML file through [`read_config`]. Any
/// error finding refuses the load; with the config's own
/// `check: {strict: true}`, so does any warning.
pub fn load_config_file(path: impl AsRef<Path>) -> Result<RunnerConfig, String> {
    let path = path.as_ref();
    let (v, spans) = yamlite::parse_file_spanned(path).map_err(|e| e.to_string())?;
    load(&v, &spans, Some(path.display().to_string()))
}

/// [`load_config_file`] for an already parsed value (findings carry no
/// line numbers).
pub fn load_config_value(v: &Value) -> Result<RunnerConfig, String> {
    load(v, &SpanIndex::default(), None)
}

fn load(v: &Value, spans: &SpanIndex, file: Option<String>) -> Result<RunnerConfig, String> {
    let mut report = Report::new();
    report.file = file;
    let reading = read_config(v, &mut Sink::new(spans, &mut report));
    report.sort();
    match reading.config {
        Some(config) if report.is_clean(config.strict_check) => Ok(config),
        _ => Err(format!(
            "config lint found {} error(s), {} warning(s):\n{}",
            report.error_count(),
            report.warning_count(),
            report.render_text().trim_end()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::executor_capacity;
    use parsl::ExecutorChoice;
    use yamlite::parse_str;

    fn load(text: &str) -> Result<RunnerConfig, String> {
        load_config_value(&parse_str(text).unwrap())
    }

    /// The findings of one read, sorted.
    fn findings(text: &str) -> Report {
        let (doc, spans) = yamlite::parse_str_spanned(text).unwrap();
        let mut report = Report::new();
        read_config(&doc, &mut Sink::new(&spans, &mut report));
        report.sort();
        report
    }

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
        assert!(!c.strict_check);
        let v = parse_str("check:\n  strict: true\n").unwrap();
        let c = load_config_value(&v).unwrap();
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
            Err(e) => assert!(
                e.contains("error[E042]") && e.contains("(at checkpoint.mode)"),
                "{e}"
            ),
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
            Err(e) => assert!(
                e.contains("error[E042]") && e.contains("(at staging.mode)"),
                "{e}"
            ),
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

    #[test]
    fn capacity_from_thread_pool_config() {
        let c = load("executor:\n  kind: thread-pool\n  workers: 6\n").unwrap();
        let cap = executor_capacity(&c.parsl);
        assert_eq!(cap.slots, 6);
        assert!(cap.cores_per_node.is_some());
        assert!(cap.ram_per_node_mb.is_none());
        assert_eq!(cap.label, "local (1 node(s) x 6 worker(s))");
    }

    #[test]
    fn capacity_from_htex_slurm_config() {
        let c = load(
            "executor:\n  kind: htex\n  nodes: 3\n  workers_per_node: 4\nprovider:\n  kind: slurm\n  cluster:\n    nodes: 3\n    cores_per_node: 8\n",
        )
        .unwrap();
        let cap = executor_capacity(&c.parsl);
        assert_eq!(cap.slots, 12);
        assert_eq!(cap.cores_per_node, Some(8));
        assert_eq!(cap.ram_per_node_mb, Some(126 * 1024));
    }

    #[test]
    fn capacity_names_the_executor_label() {
        let c = load(
            "executor:\n  kind: htex\n  label: gpu-pool\n  nodes: 2\n  workers_per_node: 3\nprovider:\n  kind: local\n",
        )
        .unwrap();
        let cap = executor_capacity(&c.parsl);
        assert!(cap.label.starts_with("gpu-pool ("), "{}", cap.label);
        assert_eq!(cap.label, "gpu-pool (2 node(s) x 3 worker(s))");
    }

    #[test]
    fn capacity_htex_workers_default_to_cores() {
        let c = load(
            "executor:\n  kind: htex\n  nodes: 2\nprovider:\n  kind: local\n  cores_per_node: 5\n",
        )
        .unwrap();
        let cap = executor_capacity(&c.parsl);
        assert_eq!(cap.slots, 10);
        assert_eq!(cap.cores_per_node, Some(5));
    }

    #[test]
    fn string_keys_are_typed() {
        // Each of these used to be dropped without a word (the loader read
        // the key with `as_str`, and nothing checked it).
        for (text, path) in [
            ("run:\n  workdir: 2024\n", "run.workdir"),
            ("checkpoint:\n  dir: 7\n", "checkpoint.dir"),
            ("staging:\n  dir: [a, b]\n", "staging.dir"),
            ("serve:\n  socket: true\n", "serve.socket"),
            ("monitoring:\n  export: 3\n", "monitoring.export"),
            ("executor:\n  kind: htex\n  label: 12\n", "executor.label"),
            ("monitoring:\n  sinks: jsonl\n", "monitoring.sinks"),
        ] {
            let r = findings(text);
            let d = r
                .diags
                .iter()
                .find(|d| d.code == codes::CFG_VALUE)
                .unwrap_or_else(|| panic!("{text:?} must be E042:\n{}", r.render_text()));
            assert_eq!(d.path, path, "{}", r.render_text());
            assert!(load(text).is_err(), "{text:?} must not load");
        }
    }

    #[test]
    fn fault_kill_triggers_are_integers() {
        let text = "executor:\n  kind: htex\nfault:\n  kill:\n    - node: node01\n      after_tasks: five\n";
        let r = findings(text);
        assert!(
            r.diags
                .iter()
                .any(|d| d.code == codes::CFG_VALUE && d.path == "fault.kill[0].after_tasks"),
            "{}",
            r.render_text()
        );
        let r = findings(
            "executor:\n  kind: htex\nfault:\n  kill:\n    - node: n\n      after_ms: -1\n",
        );
        assert!(r.has_code(codes::CFG_VALUE), "{}", r.render_text());
        assert!(load(text).is_err());
    }

    #[test]
    fn heartbeat_combo_uses_effective_values() {
        // 25 ms is the default heartbeat period, so a 20 ms timeout alone
        // declares every manager lost.
        let r = findings("executor:\n  kind: htex\n  heartbeat_timeout_ms: 20\n");
        let d = r
            .diags
            .iter()
            .find(|d| d.code == codes::CFG_COMBO)
            .unwrap_or_else(|| panic!("{}", r.render_text()));
        assert_eq!(d.path, "executor.heartbeat_timeout_ms");
        assert!(
            d.message.contains("(20)") && d.message.contains("(25)"),
            "{}",
            d.message
        );
        // And a period alone is compared with the default 250 ms timeout.
        let r = findings("executor:\n  kind: htex\n  heartbeat_ms: 300\n");
        assert!(r.has_code(codes::CFG_COMBO), "{}", r.render_text());
        let r = findings("executor:\n  kind: htex\n  heartbeat_ms: 100\n");
        assert!(r.is_clean(true), "{}", r.render_text());
        // A thread pool has no heartbeats: the key is W120, not E043.
        let r = findings("executor:\n  kind: thread-pool\n  heartbeat_timeout_ms: 20\n");
        assert!(!r.has_code(codes::CFG_COMBO), "{}", r.render_text());
        assert!(r.has_code(codes::CFG_NO_EFFECT), "{}", r.render_text());
    }

    #[test]
    fn table_defaults_match_the_typed_targets() {
        let c = load(
            "executor:\n  kind: htex\nretry: {}\ncheckpoint:\n  mode: periodic\nstaging: {}\nmonitoring: {}\nserve: {}\n",
        )
        .unwrap();
        let ExecutorChoice::Htex { config, .. } = &c.parsl.executor else {
            panic!("htex expected");
        };
        let htex = HtexConfig::default();
        assert_eq!(config.label, htex.label);
        assert_eq!(config.nodes, htex.nodes);
        assert_eq!(config.workers_per_node, htex.workers_per_node);
        assert_eq!(config.min_nodes, htex.min_nodes);
        assert_eq!(config.heartbeat_period, htex.heartbeat_period);
        assert_eq!(config.heartbeat_threshold, htex.heartbeat_threshold);
        assert_eq!(config.batch_size, htex.batch_size);
        assert_eq!(c.parsl.retry, RetryPolicy::default());
        assert_eq!(c.checkpoint.period, CheckpointSettings::default().period);
        assert_eq!(c.staging, StagingSettings::default());
        let obs = obs::ObsConfig::default();
        let m = &c.parsl.monitoring;
        assert!(m.enabled);
        assert_eq!(
            (m.sample_rate, m.sink_jsonl, m.sink_chrome),
            (obs.sample_rate, obs.sink_jsonl, obs.sink_chrome)
        );
    }

    /// The YAML block of this module's reference documentation.
    fn reference_yaml() -> String {
        let mut yaml = String::new();
        let mut inside = false;
        for line in include_str!("config.rs").lines() {
            let Some(doc) = line.strip_prefix("//!") else {
                continue;
            };
            let doc = doc.strip_prefix(' ').unwrap_or(doc);
            match doc {
                "```yaml" => inside = true,
                "```" if inside => break,
                _ if inside => {
                    yaml.push_str(doc);
                    yaml.push('\n');
                }
                _ => {}
            }
        }
        yaml
    }

    /// Whether `doc` sets the row `path` (`[]`: in some entry of a list).
    fn sets(doc: &Value, path: &str) -> bool {
        let (head, rest) = path.split_once('.').unwrap_or((path, ""));
        let (name, list) = match head.strip_suffix("[]") {
            Some(name) => (name, true),
            None => (head, false),
        };
        match (doc.get(name), list, rest) {
            (None, _, _) => false,
            (Some(_), _, "") => true,
            (Some(v), false, rest) => sets(v, rest),
            (Some(v), true, rest) => v
                .as_seq()
                .is_some_and(|items| items.iter().any(|item| sets(item, rest))),
        }
    }

    #[test]
    fn reference_documents_every_key_and_lints() {
        let yaml = reference_yaml();
        let doc = parse_str(&yaml).unwrap();
        for key in KEYS {
            assert!(
                sets(&doc, key.path),
                "the reference is missing {}",
                key.path
            );
        }
        let r = findings(&yaml);
        assert_eq!(r.error_count(), 0, "{}", r.render_text());
    }
}
