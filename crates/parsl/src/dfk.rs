//! The DataFlowKernel (DFK): Parsl's runtime core. Tracks dependencies
//! between app invocations through future-completion callbacks, launches
//! tasks on the configured executor when their inputs are ready, propagates
//! failures, retries, and counts task events in its obs registry.

use crate::apps::{AppBody, CommandApp, CommandSpec};
use crate::config::{Config, ExecutorChoice, RetryPolicy};
use crate::error::TaskError;
use crate::executor::{Attempt, Executor, TaskPayload, ThreadPoolExecutor};
use crate::file::File;
use crate::future::{promise_pair, AppFuture, DataFuture, Promise, TaskResult};
use crate::htex::HighThroughputExecutor;
use crate::monitoring::Monitoring;
use crate::task::TaskId;
use obs::{names, Observability, SpanCtx, SpanKind};
use parking_lot::{Condvar, Mutex};
use simtest::{StopSignal, Waited};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use yamlite::Value;

/// An argument to an app invocation: a literal value, another app's future
/// (dataflow edge), or a file future.
#[derive(Clone)]
pub enum AppArg {
    /// A plain value.
    Literal(Value),
    /// Depend on another app's result value.
    Fut(AppFuture),
    /// Depend on a file another app will produce; materializes as the
    /// file's path string.
    Data(DataFuture),
}

impl AppArg {
    /// Literal argument.
    pub fn value(v: impl Into<Value>) -> Self {
        AppArg::Literal(v.into())
    }

    /// Dataflow edge from another app's future.
    pub fn future(f: &AppFuture) -> Self {
        AppArg::Fut(f.clone())
    }

    /// Dataflow edge from a file future.
    pub fn data(d: &DataFuture) -> Self {
        AppArg::Data(d.clone())
    }

    fn dependency(&self) -> Option<AppFuture> {
        match self {
            AppArg::Literal(_) => None,
            AppArg::Fut(f) => Some(f.clone()),
            AppArg::Data(d) => Some(d.parent().clone()),
        }
    }

    /// Resolve to a concrete value; all dependencies must be complete.
    fn materialize(&self) -> Result<Value, TaskError> {
        match self {
            AppArg::Literal(v) => Ok(v.clone()),
            AppArg::Fut(f) => match f.peek() {
                Some(Ok(v)) => Ok(v),
                Some(Err(e)) => Err(TaskError::DependencyFailed {
                    dep: f.id(),
                    reason: e.to_string(),
                }),
                None => unreachable!("materialize called before dependency completed"),
            },
            AppArg::Data(d) => match d.parent().peek() {
                Some(Ok(_)) => Ok(Value::str(d.filepath().to_string_lossy().into_owned())),
                Some(Err(e)) => Err(TaskError::DependencyFailed {
                    dep: d.parent().id(),
                    reason: e.to_string(),
                }),
                None => unreachable!("materialize called before dependency completed"),
            },
        }
    }
}

/// Identifies the service run a task belongs to when the kernel hosts
/// many concurrent workflow runs (the `parsl-serve` daemon). Untagged
/// tasks — everything submitted through [`DataFlowKernel::submit`] /
/// [`DataFlowKernel::submit_bound`] — behave exactly as before.
#[derive(Clone, Debug)]
pub struct RunTag {
    /// Daemon-assigned run id (also the key for the run's journal).
    pub run: u64,
    /// Fair-share tenant the run was submitted under.
    pub tenant: Arc<str>,
    /// Memo namespace mixed into input fingerprints so tasks from
    /// *different* workflows can never collide in the shared memo table,
    /// while identical workflows share the namespace and still dedupe
    /// across runs. Conventionally the workflow run hash.
    pub memo_ns: u64,
}

impl RunTag {
    /// The run's lineage namespace, as exported in the trace.
    pub fn lineage_name(&self) -> String {
        format!("{}/run-{}", self.tenant, self.run)
    }
}

/// A tagged task whose dependencies are met and whose memo lookup missed:
/// the gate now owns when (or whether) it executes. Call
/// [`GatedLaunch::launch`] — from any thread, now or later — to dispatch
/// it, or [`GatedLaunch::abort`] to fail it without executing.
pub struct GatedLaunch {
    dfk: Arc<DataFlowKernel>,
    task: Arc<TaskInner>,
    vals: Arc<Vec<Value>>,
    fingerprint: Option<u64>,
}

impl GatedLaunch {
    /// The run this task belongs to.
    pub fn tag(&self) -> &RunTag {
        self.task
            .tag
            .as_ref()
            .expect("GatedLaunch exists only for tagged tasks")
    }

    /// Task label (app name).
    pub fn label(&self) -> &str {
        &self.task.label
    }

    /// Dispatch the task to the executor. The gate receives
    /// [`DispatchGate::finished`] when the task reaches a terminal state.
    pub fn launch(self) {
        self.task.gated.store(true, Ordering::Release);
        self.dfk.attempt(self.task, self.vals, self.fingerprint);
    }

    /// Fail the task without executing it (run cancellation). The gate is
    /// *not* notified — it never dispatched this task.
    pub fn abort(self, reason: &str) {
        self.dfk
            .finish(&self.task, Err(TaskError::failed(reason.to_string())));
    }
}

/// Scheduling hook between dependency resolution and the executor: a
/// fair-share scheduler implements this to decide which run's ready tasks
/// dispatch next. Only tasks submitted with a [`RunTag`] are gated.
pub trait DispatchGate: Send + Sync {
    /// A tagged task became runnable. The implementation must eventually
    /// call [`GatedLaunch::launch`] or [`GatedLaunch::abort`].
    fn ready(&self, launch: GatedLaunch);
    /// A task this gate launched reached a terminal state; its slot is
    /// free. Called once per `launch()`, never for aborted tasks.
    fn finished(&self, tag: &RunTag);
}

struct TaskInner {
    id: TaskId,
    /// `Arc<str>` so attempts, retries, and memo keys share one allocation
    /// instead of cloning a `String` per use.
    label: Arc<str>,
    body: AppBody,
    args: Vec<AppArg>,
    retries_left: AtomicUsize,
    promise: Mutex<Option<Promise>>,
    /// The task's `Submit` span id — the root every later span for this
    /// task hangs off (0 when monitoring is off or the task unsampled).
    root_span: u64,
    /// CWL step id, carried on the task so per-run journal records can
    /// name it without the kernel-wide step map.
    step: Option<String>,
    /// Service run this task belongs to (`None` for one-shot kernels).
    tag: Option<RunTag>,
    /// Set when a [`DispatchGate`] launched this task; the terminal
    /// `finish` then owes the gate a `finished` callback.
    gated: std::sync::atomic::AtomicBool,
}

/// One execution attempt of a task: the [`Attempt`] the kernel hands its
/// executor. The executor runs it and completes it; the walltime watchdog,
/// when one is configured, races it to completion on the same object.
struct TaskAttempt {
    dfk: Arc<DataFlowKernel>,
    task: Arc<TaskInner>,
    /// The resolved inputs: the body's arguments, and a retry's.
    vals: Arc<Vec<Value>>,
    fingerprint: Option<u64>,
    /// Set by the first completion; every later one is a no-op.
    claimed: AtomicBool,
    /// Raised by the first completion, for the walltime watchdog to wake
    /// on. Allocated only when a walltime is configured.
    done: Option<Box<StopSignal>>,
}

impl Attempt for TaskAttempt {
    fn run(&self) -> TaskResult {
        (self.task.body)(&self.vals)
    }

    /// Deliver the first outcome: memoize and journal a success, retry a
    /// retryable failure while budget remains (after the policy's
    /// backoff), and otherwise finish the task.
    fn complete(&self, result: TaskResult) {
        if self.claimed.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(done) = &self.done {
            done.raise();
        }
        let (dfk, task) = (&self.dfk, &self.task);
        let e = match result {
            Ok(value) => {
                if let Some(fp) = self.fingerprint {
                    dfk.memo.insert(task.label.clone(), fp, value.clone());
                    dfk.journal(task, fp, &value);
                }
                return dfk.finish(task, Ok(value));
            }
            Err(e) => e,
        };
        // Dependency failures are final — re-running cannot change the
        // upstream outcome — and shutdown means there is nothing left to
        // run on. Execution failures (including timeouts and lost
        // executors) retry.
        let retryable = !matches!(e, TaskError::DependencyFailed { .. } | TaskError::Shutdown);
        let granted = task
            .retries_left
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                if retryable {
                    n.checked_sub(1)
                } else {
                    None
                }
            });
        let Ok(prev) = granted else {
            return dfk.finish(task, Err(e));
        };
        dfk.obs.count(&dfk.metrics.retries);
        dfk.obs
            .instant_span(SpanKind::Retry, task.id.0, task.root_span, &task.label);
        let retry_index = dfk.retry.max_retries - prev + 1;
        let delay = dfk
            .retry
            .backoff_for_seeded(retry_index, &mut dfk.rng.lock());
        let (task, vals, fingerprint) = (task.clone(), self.vals.clone(), self.fingerprint);
        if delay.is_zero() {
            dfk.attempt(task, vals, fingerprint);
        } else {
            let dfk = dfk.clone();
            let _ = std::thread::Builder::new()
                .name(format!("backoff-{}", task.id))
                .spawn(move || {
                    dfk.clock.sleep(delay); // timer-ok: retry backoff, a modelled delay
                    dfk.attempt(task, vals, fingerprint);
                });
        }
    }
}

impl TaskAttempt {
    /// The walltime watchdog: wait up to `walltime` of real time for the
    /// attempt to complete, and fail it with a timeout if it has not. The
    /// first completion wins, so an attempt that finishes after the wait
    /// ends makes this completion a no-op.
    fn watch(&self, walltime: Duration) {
        let done = self
            .done
            .as_deref()
            .expect("an attempt with a walltime has a completion signal");
        if simtest::real_clock().wait(walltime, done) == Waited::Elapsed {
            let (dfk, task) = (&self.dfk, &self.task);
            dfk.obs.count(&dfk.metrics.timed_out);
            dfk.obs
                .instant_span(SpanKind::TimedOut, task.id.0, task.root_span, &task.label);
            self.complete(Err(TaskError::Timeout(walltime)));
        }
    }
}

/// Shards in the memoization table. Power of two so the shard index is a
/// mask of the fingerprint. Sixteen shards keep contention negligible even
/// with every worker of a wide HTEX completing tasks at once.
const MEMO_SHARDS: usize = 16;

/// The memoization table, sharded by input fingerprint so concurrent
/// lookups and inserts from many worker threads don't serialize on one
/// lock. Values are `Arc`'d: a lookup clones only the `Arc` under the
/// shard lock (hash → shard → get → drop); the deep `Value` clone a task
/// result needs happens outside any lock.
struct ShardedMemo {
    shards: Vec<Mutex<MemoShard>>,
}

/// One shard's map: (label, fingerprint of resolved inputs) → result.
type MemoShard = std::collections::HashMap<(Arc<str>, u64), Arc<Value>>;

impl ShardedMemo {
    fn new() -> Self {
        Self {
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(std::collections::HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<MemoShard> {
        &self.shards[(fingerprint as usize) & (MEMO_SHARDS - 1)]
    }

    fn get(&self, label: &Arc<str>, fingerprint: u64) -> Option<Arc<Value>> {
        self.shard(fingerprint)
            .lock()
            .get(&(label.clone(), fingerprint))
            .cloned()
    }

    fn insert(&self, label: Arc<str>, fingerprint: u64, value: Value) {
        self.shard(fingerprint)
            .lock()
            .insert((label, fingerprint), Arc::new(value));
    }
}

/// The dataflow kernel. Create with [`DataFlowKernel::new`]; returns an
/// `Arc` because completion callbacks keep references to it.
pub struct DataFlowKernel {
    executor: Arc<dyn Executor>,
    retry: RetryPolicy,
    memoize: bool,
    /// Memo table: (label, fingerprint of resolved inputs) → successful
    /// result. Only successes are cached, matching Parsl's memoizer.
    memo: ShardedMemo,
    next_id: AtomicU64,
    /// `done_lock`/`all_done` exist solely so `wait_all` can sleep on the
    /// outstanding-task count (`metrics.outstanding`); the condvar is
    /// notified only on its 1→0 transition.
    done_lock: Mutex<()>,
    all_done: Condvar,
    /// This run's observability instance, shared with the executor so
    /// executor-side spans and node events (lost, re-dispatched,
    /// replaced) land in the same trace and registry as task events.
    obs: Arc<Observability>,
    /// Pre-resolved metric handles so hot paths skip the registry lookup.
    metrics: DfkMetrics,
    /// Durable checkpointing, when configured (None keeps the completion
    /// path checkpoint-free apart from this one branch).
    ckpt: Option<CkptState>,
    /// Kernel time source: retry-backoff sleeps go through this, so a
    /// virtual clock makes backoff elapse in logical time.
    clock: simtest::ClockRef,
    /// Jitter RNG for the retry backoff schedule — seeded from
    /// [`Config::seed`] so a simulated run replays identical delays.
    rng: Mutex<simtest::SimRng>,
    /// Multi-run dispatch gate (fair-share scheduling), when configured.
    gate: Option<Arc<dyn DispatchGate>>,
    /// Per-run checkpoint journals for a kernel hosting many concurrent
    /// runs; keyed by [`RunTag::run`]. Independent of the legacy
    /// single-journal `ckpt` state used by one-shot kernels.
    run_ckpts: Mutex<std::collections::HashMap<u64, Arc<RunCkpt>>>,
}

/// Handles to the kernel's well-known metrics, resolved once at startup.
/// Each task event is one counter, counted through
/// [`Observability::count`] whether or not monitoring is on.
struct DfkMetrics {
    submitted: Arc<obs::Counter>,
    completed: Arc<obs::Counter>,
    failed: Arc<obs::Counter>,
    timed_out: Arc<obs::Counter>,
    retries: Arc<obs::Counter>,
    memo_hits: Arc<obs::Counter>,
    memo_misses: Arc<obs::Counter>,
    /// Tasks not yet in a terminal state: the kernel's one count of them,
    /// kept whether or not monitoring is on. Submission and completion
    /// touch only this atomic.
    outstanding: Arc<obs::Gauge>,
}

/// Checkpointing state: the journal plus the bookkeeping that separates a
/// *replay* (memo hit on a journal-seeded key) from an ordinary memo hit.
struct CkptState {
    journal: Arc<ckpt::Journal>,
    /// Memo keys seeded from the journal on resume; a hit on one of these
    /// means the resumed run skipped a task the crashed run had finished.
    seeded: Mutex<std::collections::HashSet<(Arc<str>, u64)>>,
    /// Task id → CWL step id, bound by the workflow compiler so journal
    /// records carry the originating step.
    steps: Mutex<std::collections::HashMap<u64, String>>,
    /// Independent of the obs counters so `checkpoint_stats` works with
    /// monitoring off.
    appended: AtomicUsize,
    replayed: AtomicUsize,
    append_metric: Arc<obs::Counter>,
    replay_metric: Arc<obs::Counter>,
}

/// One service run's journal inside a multi-run kernel. Fingerprints in
/// these journals are already namespace-mixed (see [`RunTag::memo_ns`]),
/// so seeding on resume lands on the same keys tagged launches compute.
struct RunCkpt {
    journal: Arc<ckpt::Journal>,
    /// Memo keys seeded from this run's journal on resume.
    seeded: Mutex<std::collections::HashSet<(Arc<str>, u64)>>,
    appended: AtomicUsize,
    replayed: AtomicUsize,
    append_metric: Arc<obs::Counter>,
    replay_metric: Arc<obs::Counter>,
}

/// A snapshot of checkpoint activity for end-of-run reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CkptStats {
    /// Completions appended to the journal by this kernel.
    pub appended: usize,
    /// Tasks satisfied from seeded journal records instead of executing.
    pub replayed: usize,
}

/// FNV-1a fingerprint of a task's resolved input values.
fn fingerprint_inputs(vals: &[Value]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for v in vals {
        for b in yamlite::to_string_flow(v).bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        h = (h ^ 0x1f).wrapping_mul(PRIME); // value separator
    }
    h
}

impl DataFlowKernel {
    /// Build a kernel, provisioning the executor. Panics when the provider
    /// cannot satisfy the request — use [`DataFlowKernel::try_new`] to
    /// handle that case.
    pub fn new(config: Config) -> Arc<Self> {
        Self::try_new(config).expect("failed to start executor")
    }

    /// Build a kernel, returning provisioning errors.
    pub fn try_new(config: Config) -> Result<Arc<Self>, String> {
        // Built before the executor starts, so the executor records into the
        // run's own instance from its first block on.
        let obs = Arc::new(Observability::new(config.monitoring.clone()));
        let executor: Arc<dyn Executor> = match &config.executor {
            ExecutorChoice::ThreadPool { workers } => {
                ThreadPoolExecutor::new(format!("{}-tpe", config.label), *workers, obs.clone())
            }
            ExecutorChoice::Htex {
                config: hc,
                provider,
            } => {
                let mut hc = hc.clone();
                // A non-default kernel clock is the run-wide time source:
                // the HTEX it starts must read the same one, or heartbeats
                // and backoff would disagree about when "now" is.
                if !Arc::ptr_eq(&config.clock, &simtest::real_clock()) {
                    hc.clock = config.clock.clone();
                }
                HighThroughputExecutor::start(hc, provider.clone(), obs.clone())?
            }
        };
        Ok(Self::with_executor(executor, obs, config))
    }

    /// Build a kernel on an already-running executor — for custom executors
    /// and fault-injection tests. `obs` is the handle the executor was built
    /// with, and the kernel records into the same one; `config.executor`
    /// and `config.monitoring` are not read.
    pub fn with_executor(
        executor: Arc<dyn Executor>,
        obs: Arc<Observability>,
        config: Config,
    ) -> Arc<Self> {
        if obs.is_enabled() {
            // Layers with no handle to a kernel (expression cache, tool
            // dispatch, providers) record against the process-global
            // instance; export folds its metrics into this run's trace.
            obs::global().set_enabled(true);
        }
        // The executor's event counters exist from the start too, so every
        // summary field has its metric in the trace even at zero.
        for name in [
            names::HTEX_NODES_LOST,
            names::HTEX_REDISPATCHES,
            names::HTEX_BLOCKS_REPLACED,
        ] {
            obs.counter(name);
        }
        let metrics = DfkMetrics {
            submitted: obs.counter(names::DFK_SUBMITTED),
            completed: obs.counter(names::DFK_COMPLETED),
            failed: obs.counter(names::DFK_FAILED),
            timed_out: obs.counter(names::DFK_TIMED_OUT),
            retries: obs.counter(names::DFK_RETRIES),
            memo_hits: obs.counter(names::MEMO_HITS),
            memo_misses: obs.counter(names::MEMO_MISSES),
            outstanding: obs.gauge(names::DFK_OUTSTANDING),
        };
        let ckpt = config.checkpoint.map(|journal| CkptState {
            journal,
            seeded: Mutex::new(std::collections::HashSet::new()),
            steps: Mutex::new(std::collections::HashMap::new()),
            appended: AtomicUsize::new(0),
            replayed: AtomicUsize::new(0),
            append_metric: obs.counter(names::CKPT_APPEND),
            replay_metric: obs.counter(names::CKPT_REPLAYED),
        });
        Arc::new(Self {
            executor,
            retry: config.retry,
            // Checkpointing is durable memoization: a journal implies the
            // memo table, or replays would have nowhere to land.
            memoize: config.memoize || ckpt.is_some(),
            memo: ShardedMemo::new(),
            next_id: AtomicU64::new(1),
            done_lock: Mutex::new(()),
            all_done: Condvar::new(),
            obs,
            metrics,
            ckpt,
            clock: config.clock,
            rng: Mutex::new(match config.seed {
                Some(s) => simtest::SimRng::seeded(s),
                None => simtest::SimRng::from_entropy(),
            }),
            gate: config.gate,
            run_ckpts: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// The executor in use.
    pub fn executor(&self) -> &Arc<dyn Executor> {
        &self.executor
    }

    /// This kernel's event counts and fault story, read from its obs
    /// registry and its executor's node table.
    pub fn monitoring(&self) -> Monitoring<'_> {
        Monitoring {
            obs: &self.obs,
            executor: &*self.executor,
        }
    }

    /// This run's observability instance (spans, metrics, lineage).
    pub fn observability(&self) -> &Arc<Observability> {
        &self.obs
    }

    /// Number of tasks not yet in a terminal state.
    pub fn outstanding(&self) -> usize {
        usize::try_from(self.metrics.outstanding.value()).unwrap_or(0)
    }

    /// Seed the memo table from journal records loaded on resume — raw
    /// [`ckpt::Record`]s, or [`ckpt::Seed`]s whose results the caller has
    /// already parsed while validating them. Records whose result fails to
    /// parse are skipped (counted as the second element of the return
    /// value); callers have already applied the stale-hash and missing-file
    /// invalidation rules. Later memo hits on seeded keys are counted as
    /// *replays*, not plain memo hits.
    ///
    /// No-op (all records "invalid") when the kernel has no checkpoint
    /// journal — seeding without one would replay results that nothing
    /// guards.
    pub fn seed_checkpoint<R: ckpt::SeedSource>(&self, records: &[R]) -> (usize, usize) {
        match &self.ckpt {
            Some(ckpt) => self.seed_memo(&ckpt.seeded, records),
            None => (0, records.len()),
        }
    }

    /// Insert each record's result into the memo table and note its key in
    /// `seeded`; returns `(seeded, unparseable)`.
    fn seed_memo<R: ckpt::SeedSource>(
        &self,
        seeded: &Mutex<std::collections::HashSet<(Arc<str>, u64)>>,
        records: &[R],
    ) -> (usize, usize) {
        let mut keys = seeded.lock();
        let mut invalid = 0usize;
        for rec in records {
            match rec.value() {
                Ok(value) => {
                    let (label, fingerprint) = rec.memo_key();
                    let label: Arc<str> = Arc::from(label);
                    keys.insert((label.clone(), fingerprint));
                    self.memo.insert(label, fingerprint, value);
                }
                Err(_) => invalid += 1,
            }
        }
        (records.len() - invalid, invalid)
    }

    /// Record that a task originated from a CWL workflow step, so its
    /// journal record carries the step id. No-op without a checkpoint.
    pub fn bind_step(&self, id: TaskId, step: &str) {
        if let Some(ckpt) = &self.ckpt {
            ckpt.steps.lock().insert(id.0, step.to_string());
        }
    }

    /// Checkpoint activity so far, when checkpointing is configured.
    pub fn checkpoint_stats(&self) -> Option<CkptStats> {
        self.ckpt.as_ref().map(|c| CkptStats {
            appended: c.appended.load(Ordering::Relaxed),
            replayed: c.replayed.load(Ordering::Relaxed),
        })
    }

    // ---- multi-run service support -------------------------------------

    /// Attach a per-run checkpoint journal for a service run. Completions
    /// of tasks tagged with this run id append here (with their
    /// namespace-mixed fingerprints); the legacy single-journal path is
    /// untouched. Tagged tasks always compute fingerprints, so a run
    /// journal works even on a kernel built without `memoize`.
    pub fn attach_run_journal(&self, run: u64, journal: Arc<ckpt::Journal>) {
        self.run_ckpts.lock().insert(
            run,
            Arc::new(RunCkpt {
                journal,
                seeded: Mutex::new(std::collections::HashSet::new()),
                appended: AtomicUsize::new(0),
                replayed: AtomicUsize::new(0),
                append_metric: self.obs.counter(names::CKPT_APPEND),
                replay_metric: self.obs.counter(names::CKPT_REPLAYED),
            }),
        );
    }

    /// Seed the shared memo table from a resumed run journal (the per-run
    /// analogue of [`DataFlowKernel::seed_checkpoint`]). Record
    /// fingerprints are already namespace-mixed, so hits land only on
    /// tasks tagged with the same workflow namespace. Returns
    /// `(seeded, invalid)`; no-op when `run` has no attached journal.
    pub fn seed_run_checkpoint<R: ckpt::SeedSource>(
        &self,
        run: u64,
        records: &[R],
    ) -> (usize, usize) {
        match self.run_ckpt(run) {
            Some(rc) => self.seed_memo(&rc.seeded, records),
            None => (0, records.len()),
        }
    }

    /// Checkpoint activity for one service run, when its journal is
    /// attached.
    pub fn run_checkpoint_stats(&self, run: u64) -> Option<CkptStats> {
        self.run_ckpt(run).map(|c| CkptStats {
            appended: c.appended.load(Ordering::Relaxed),
            replayed: c.replayed.load(Ordering::Relaxed),
        })
    }

    /// Flush and detach a service run's journal, returning its final
    /// stats. The run's memo entries stay — cross-run dedupe is the point
    /// of the shared table.
    pub fn detach_run_journal(&self, run: u64) -> Option<CkptStats> {
        let rc = self.run_ckpts.lock().remove(&run)?;
        if let Err(e) = rc.journal.flush() {
            eprintln!("warning: {e}");
        }
        Some(CkptStats {
            appended: rc.appended.load(Ordering::Relaxed),
            replayed: rc.replayed.load(Ordering::Relaxed),
        })
    }

    fn run_ckpt(&self, run: u64) -> Option<Arc<RunCkpt>> {
        self.run_ckpts.lock().get(&run).cloned()
    }

    /// Invoke an app: returns immediately with a future. The task launches
    /// once every future among `args` has completed; any failed dependency
    /// fails this task without launching it.
    pub fn submit(self: &Arc<Self>, label: &str, args: Vec<AppArg>, body: AppBody) -> AppFuture {
        self.submit_bound(label, None, args, body)
    }

    /// `submit`, with the originating CWL step id bound before the task can
    /// launch. Binding after `submit` returns races the worker: a fast task
    /// could journal its completion record before the submitting thread gets
    /// to `bind_step`, dropping the step id from the record.
    pub fn submit_bound(
        self: &Arc<Self>,
        label: &str,
        step: Option<&str>,
        args: Vec<AppArg>,
        body: AppBody,
    ) -> AppFuture {
        self.submit_inner(label, step, args, body, None)
    }

    /// `submit_bound`, tagged with the service run the task belongs to.
    /// Tagged tasks always fingerprint their inputs (namespace-mixed so
    /// distinct workflows never collide), journal completions to the run's
    /// attached journal, and — when the kernel has a [`DispatchGate`] —
    /// dispatch through it instead of straight to the executor.
    pub fn submit_tagged(
        self: &Arc<Self>,
        label: &str,
        step: Option<&str>,
        args: Vec<AppArg>,
        body: AppBody,
        tag: RunTag,
    ) -> AppFuture {
        self.submit_inner(label, step, args, body, Some(tag))
    }

    fn submit_inner(
        self: &Arc<Self>,
        label: &str,
        step: Option<&str>,
        args: Vec<AppArg>,
        body: AppBody,
        tag: Option<RunTag>,
    ) -> AppFuture {
        let id = TaskId(self.next_id.fetch_add(1, Ordering::Relaxed));
        if let Some(step) = step {
            self.bind_step(id, step);
        }
        let (fut, promise) = promise_pair(id);
        self.metrics.outstanding.fetch_add(1, Ordering::AcqRel);
        self.obs.count(&self.metrics.submitted);
        // The Submit span is this task's trace root; its id is valid as a
        // parent from the moment it opens, so spans from a synchronous
        // launch below nest correctly.
        let submit_span = self.obs.start_span(SpanKind::Submit, id.0, 0, label);
        if self.obs.is_enabled() {
            self.obs.lineage_submit(id.0, label);
            if let Some(step) = step {
                self.obs.lineage_bind_step(id.0, step);
            }
            if let Some(tag) = &tag {
                self.obs.lineage_bind_run(id.0, &tag.lineage_name());
            }
        }

        let deps: Vec<AppFuture> = args.iter().filter_map(AppArg::dependency).collect();
        let task = Arc::new(TaskInner {
            id,
            label: Arc::from(label),
            body,
            args,
            retries_left: AtomicUsize::new(self.retry.max_retries),
            promise: Mutex::new(Some(promise)),
            root_span: submit_span.id(),
            step: step.map(str::to_string),
            tag,
            gated: std::sync::atomic::AtomicBool::new(false),
        });

        if deps.is_empty() {
            self.launch(task);
        } else {
            // Counter starts at the dependency count; the launch fires on
            // the thread that resolves the final dependency.
            let remaining = Arc::new(AtomicUsize::new(deps.len()));
            for dep in deps {
                let remaining = remaining.clone();
                let dfk = self.clone();
                let task = task.clone();
                dep.on_complete(move |_| {
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        dfk.launch(task);
                    }
                });
            }
        }
        self.obs.finish_span(submit_span);
        fut
    }

    /// Invoke a command app: `build` turns resolved input values into a
    /// [`CommandSpec`]; `outputs` are files the command will produce, each
    /// returned as a [`DataFuture`] (Parsl's `bash_app(outputs=[...])`).
    pub fn submit_command(
        self: &Arc<Self>,
        label: &str,
        args: Vec<AppArg>,
        build: impl Fn(&[Value]) -> Result<CommandSpec, TaskError> + Send + Sync + 'static,
        outputs: Vec<PathBuf>,
    ) -> (AppFuture, Vec<DataFuture>) {
        let body = CommandApp::new(build);
        let fut = self.submit(label, args, body);
        let data = outputs
            .into_iter()
            .map(|p| DataFuture::new(File::new(p), fut.clone()))
            .collect();
        (fut, data)
    }

    /// Dependencies are met: materialize inputs and start the first attempt
    /// (or fail fast on upstream failure).
    fn launch(self: &Arc<Self>, task: Arc<TaskInner>) {
        let mut vals = Vec::with_capacity(task.args.len());
        for arg in &task.args {
            match arg.materialize() {
                Ok(v) => vals.push(v),
                Err(e) => {
                    self.finish(&task, Err(e));
                    return;
                }
            }
        }
        // Memoization: a prior success with the same label and inputs
        // short-circuits execution entirely. The fingerprint (which
        // serializes every input value) is computed exactly once and
        // reused for the memo insert when the attempt succeeds. Tagged
        // tasks always fingerprint (their run journal needs the key) and
        // mix in the run's memo namespace, so distinct workflows sharing
        // the kernel can never collide on a key while identical workflows
        // still dedupe across runs.
        let fingerprint = if self.memoize || task.tag.is_some() {
            let base = fingerprint_inputs(&vals);
            Some(match &task.tag {
                Some(tag) => ckpt::fnv1a(base, &tag.memo_ns.to_le_bytes()),
                None => base,
            })
        } else {
            None
        };
        if let Some(fp) = fingerprint {
            let lookup =
                self.obs
                    .start_span(SpanKind::MemoLookup, task.id.0, task.root_span, &task.label);
            let cached = self.memo.get(&task.label, fp);
            self.obs.finish_span(lookup);
            if let Some(cached) = cached {
                self.obs.count(&self.metrics.memo_hits);
                // A hit on a journal-seeded key is a *replay*: the crashed
                // run finished this task and the resume is skipping it.
                // Tagged tasks consult their own run's seeded set.
                let seeded_hit = |c: &Mutex<std::collections::HashSet<(Arc<str>, u64)>>| {
                    c.lock().contains(&(task.label.clone(), fp))
                };
                let replayed = match &task.tag {
                    Some(tag) => self
                        .run_ckpt(tag.run)
                        .map(|c| {
                            let hit = seeded_hit(&c.seeded);
                            if hit {
                                c.replayed.fetch_add(1, Ordering::Relaxed);
                                c.replay_metric.incr();
                            }
                            hit
                        })
                        .unwrap_or(false),
                    None => self
                        .ckpt
                        .as_ref()
                        .map(|c| {
                            let hit = seeded_hit(&c.seeded);
                            if hit {
                                c.replayed.fetch_add(1, Ordering::Relaxed);
                                c.replay_metric.incr();
                            }
                            hit
                        })
                        .unwrap_or(false),
                };
                self.obs
                    .lineage_complete(task.id.0, if replayed { "replayed" } else { "memoized" });
                self.finish(&task, Ok((*cached).clone()));
                return;
            }
            self.metrics.memo_misses.incr();
        }
        // Tagged tasks go through the dispatch gate (when one is
        // configured) so the fair-share scheduler decides when this run's
        // work reaches the executor. Untagged tasks dispatch directly.
        let vals = Arc::new(vals);
        match (&self.gate, task.tag.is_some()) {
            (Some(gate), true) => gate.ready(GatedLaunch {
                dfk: self.clone(),
                task,
                vals,
                fingerprint,
            }),
            _ => self.attempt(task, vals, fingerprint),
        }
    }

    /// Hand one execution attempt to the executor: a [`TaskAttempt`] that
    /// the executor runs and completes, and whose completion retries on
    /// failure while budget remains. `fingerprint` is the precomputed input
    /// fingerprint when memoization is on (`None` otherwise) — computed
    /// once in [`Self::launch`].
    fn attempt(
        self: &Arc<Self>,
        task: Arc<TaskInner>,
        vals: Arc<Vec<Value>>,
        fingerprint: Option<u64>,
    ) {
        let id = task.id;
        let walltime = self.retry.walltime;
        // The Dispatch span covers the executor hand-off; executor-side
        // spans (enqueue, recv, exec, result) parent onto it via the
        // payload's trace context.
        let dispatch = self
            .obs
            .start_span(SpanKind::Dispatch, id.0, task.root_span, &task.label);
        self.obs.lineage_dispatch(id.0);
        let attempt = Arc::new(TaskAttempt {
            dfk: self.clone(),
            task,
            vals,
            fingerprint,
            claimed: AtomicBool::new(false),
            done: walltime.map(|_| Box::new(StopSignal::new())),
        });
        let watchdog = walltime.map(|walltime| (walltime, attempt.clone()));
        self.executor.submit(TaskPayload {
            id,
            attempt,
            ctx: SpanCtx {
                lineage: id.0,
                parent: dispatch.id(),
            },
        });
        self.obs.finish_span(dispatch);
        if let Some((walltime, attempt)) = watchdog {
            let _ = std::thread::Builder::new()
                .name(format!("walltime-{id}"))
                .spawn(move || attempt.watch(walltime));
        }
    }

    /// Durable completion record for a successful attempt. Journal
    /// failures degrade to a warning — losing checkpoint coverage must not
    /// fail a task that actually succeeded. Tagged tasks journal to their
    /// run's journal; untagged tasks to the kernel-wide one.
    fn journal(&self, task: &TaskInner, fingerprint: u64, value: &Value) {
        match &task.tag {
            Some(tag) => {
                if let Some(rc) = self.run_ckpt(tag.run) {
                    let record = ckpt::Record {
                        label: task.label.to_string(),
                        fingerprint,
                        step: task.step.clone(),
                        result: yamlite::to_string_flow(value),
                    };
                    match rc.journal.append(&record) {
                        Ok(()) => {
                            rc.appended.fetch_add(1, Ordering::Relaxed);
                            rc.append_metric.incr();
                        }
                        Err(e) => eprintln!("warning: {e}"),
                    }
                }
            }
            None => {
                if let Some(ckpt) = &self.ckpt {
                    let record = ckpt::Record {
                        label: task.label.to_string(),
                        fingerprint,
                        step: ckpt.steps.lock().get(&task.id.0).cloned(),
                        result: yamlite::to_string_flow(value),
                    };
                    match ckpt.journal.append(&record) {
                        Ok(()) => {
                            ckpt.appended.fetch_add(1, Ordering::Relaxed);
                            ckpt.append_metric.incr();
                        }
                        Err(e) => eprintln!("warning: {e}"),
                    }
                }
            }
        }
    }

    /// Resolve the task's public future and update accounting.
    fn finish(&self, task: &TaskInner, result: TaskResult) {
        let (counter, outcome) = if result.is_ok() {
            (&self.metrics.completed, "completed")
        } else {
            (&self.metrics.failed, "failed")
        };
        self.obs.count(counter);
        if self.obs.is_enabled() {
            // Memoized tasks recorded their (sticky) outcome in `launch`.
            self.obs.lineage_complete(task.id.0, outcome);
        }
        if let Some(promise) = task.promise.lock().take() {
            promise.complete(result);
        }
        // A gate-launched task owes the gate exactly one `finished` — after
        // the promise resolved, so dependents enqueued by the completion
        // callbacks are already queued when the freed slot is re-filled.
        if task.gated.swap(false, Ordering::AcqRel) {
            if let (Some(gate), Some(tag)) = (&self.gate, &task.tag) {
                gate.finished(tag);
            }
        }
        // Zero-transition protocol: only the finisher that drops the count
        // to zero takes the lock, so the common case is one atomic RMW.
        // Taking `done_lock` before notifying closes the race with a waiter
        // that observed a non-zero count and is about to sleep.
        if self.metrics.outstanding.fetch_add(-1, Ordering::AcqRel) == 1 {
            let _guard = self.done_lock.lock();
            self.all_done.notify_all();
        }
    }

    /// Block until every submitted task reaches a terminal state.
    pub fn wait_all(&self) {
        let mut guard = self.done_lock.lock();
        while self.metrics.outstanding.value() > 0 {
            self.all_done.wait(&mut guard);
        }
    }

    /// Wait for all tasks, then stop the executor and export the trace
    /// (when monitoring is configured with an export path).
    pub fn shutdown(&self) {
        self.wait_all();
        self.executor.shutdown();
        // Make periodic-mode journal appends durable before declaring the
        // run finished (TaskExit mode already synced each one).
        if let Some(ckpt) = &self.ckpt {
            if let Err(e) = ckpt.journal.flush() {
                eprintln!("warning: {e}");
            }
        }
        if let Err(e) = self.obs.export() {
            eprintln!("warning: trace export failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::FnApp;
    use std::time::Duration;

    fn dfk() -> Arc<DataFlowKernel> {
        DataFlowKernel::new(Config::local_threads(4))
    }

    fn add_app() -> AppBody {
        FnApp::new(|vals| {
            let mut total = 0i64;
            for v in vals {
                total += v
                    .as_int()
                    .ok_or_else(|| TaskError::failed(format!("non-int input {v:?}")))?;
            }
            Ok(Value::Int(total))
        })
    }

    #[test]
    fn simple_chain() {
        let dfk = dfk();
        let a = dfk.submit(
            "a",
            vec![AppArg::value(1i64), AppArg::value(2i64)],
            add_app(),
        );
        let b = dfk.submit(
            "b",
            vec![AppArg::future(&a), AppArg::value(10i64)],
            add_app(),
        );
        assert_eq!(b.result().unwrap(), Value::Int(13));
        dfk.shutdown();
    }

    #[test]
    fn diamond_dependencies() {
        let dfk = dfk();
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
        assert_eq!(join.result().unwrap(), Value::Int(112));
        dfk.shutdown();
    }

    #[test]
    fn failure_propagates_without_running_dependents() {
        let dfk = dfk();
        let boom = dfk.submit(
            "boom",
            vec![],
            FnApp::new(|_| Err(TaskError::failed("explosion"))),
        );
        let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let ran2 = ran.clone();
        let dependent = dfk.submit(
            "dep",
            vec![AppArg::future(&boom)],
            FnApp::new(move |_| {
                ran2.store(true, Ordering::SeqCst);
                Ok(Value::Null)
            }),
        );
        match dependent.result() {
            Err(TaskError::DependencyFailed { reason, .. }) => {
                assert!(reason.contains("explosion"))
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!ran.load(Ordering::SeqCst), "dependent body must not run");
        dfk.shutdown();
        let s = dfk.monitoring().summary();
        assert_eq!(s.failed, 2);
    }

    #[test]
    fn retries_eventually_succeed() {
        let dfk = DataFlowKernel::new(Config::local_threads(2).with_retries(3));
        let attempts = Arc::new(AtomicUsize::new(0));
        let attempts2 = attempts.clone();
        let fut = dfk.submit(
            "flaky",
            vec![],
            FnApp::new(move |_| {
                if attempts2.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(TaskError::failed("transient"))
                } else {
                    Ok(Value::str("finally"))
                }
            }),
        );
        assert_eq!(fut.result().unwrap(), Value::str("finally"));
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        assert_eq!(dfk.monitoring().summary().retried, 2);
        dfk.shutdown();
    }

    #[test]
    fn retries_exhaust() {
        let dfk = DataFlowKernel::new(Config::local_threads(2).with_retries(2));
        let fut = dfk.submit(
            "always-bad",
            vec![],
            FnApp::new(|_| Err(TaskError::failed("no"))),
        );
        assert!(fut.result().is_err());
        assert_eq!(dfk.monitoring().summary().retried, 2);
        dfk.shutdown();
    }

    #[test]
    fn dependency_failure_is_not_retried() {
        let dfk = DataFlowKernel::new(Config::local_threads(2).with_retries(5));
        let boom = dfk.submit("boom", vec![], FnApp::new(|_| Err(TaskError::failed("x"))));
        let dep = dfk.submit("dep", vec![AppArg::future(&boom)], add_app());
        assert!(dep.result().is_err());
        // Only the root task retried; the dependent failed exactly once.
        assert_eq!(dfk.monitoring().summary().retried, 5);
        dfk.shutdown();
    }

    #[test]
    fn submit_command_produces_data_futures() {
        let dir = std::env::temp_dir().join(format!("parsl-dfk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("echoed.txt");
        let dfk = dfk();
        let out2 = out.clone();
        let (fut, outputs) = dfk.submit_command(
            "echo",
            vec![AppArg::value("payload")],
            move |vals| {
                Ok(CommandSpec {
                    argv: vec!["echo".into(), vals[0].to_display_string()],
                    stdout: Some(out2.clone()),
                    ..Default::default()
                })
            },
            vec![out.clone()],
        );
        let produced = outputs[0].result().unwrap();
        assert!(produced.exists());
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "payload\n");
        assert_eq!(fut.result().unwrap()["exit_code"].as_int(), Some(0));
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn data_future_chains_tasks() {
        let dir = std::env::temp_dir().join(format!("parsl-chain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let first_out = dir.join("first.txt");
        let dfk = dfk();
        let fo = first_out.clone();
        let (_f1, outs1) = dfk.submit_command(
            "produce",
            vec![],
            move |_| {
                Ok(CommandSpec {
                    argv: vec!["echo".into(), "chained-content".into()],
                    stdout: Some(fo.clone()),
                    ..Default::default()
                })
            },
            vec![first_out.clone()],
        );
        // Second task consumes the DataFuture: materializes as the path.
        let consume = dfk.submit(
            "consume",
            vec![AppArg::data(&outs1[0])],
            FnApp::new(|vals| {
                let path = vals[0]
                    .as_str()
                    .ok_or_else(|| TaskError::failed("no path"))?;
                let text = std::fs::read_to_string(path).map_err(TaskError::failed)?;
                Ok(Value::str(text.trim()))
            }),
        );
        assert_eq!(consume.result().unwrap(), Value::str("chained-content"));
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wait_all_blocks_until_done() {
        let dfk = dfk();
        for _ in 0..6 {
            dfk.submit(
                "sleepy",
                vec![],
                FnApp::new(|_| {
                    std::thread::sleep(Duration::from_millis(20));
                    Ok(Value::Null)
                }),
            );
        }
        dfk.wait_all();
        assert_eq!(dfk.outstanding(), 0);
        assert_eq!(dfk.monitoring().summary().completed, 6);
        dfk.shutdown();
    }

    /// The `tasks_outstanding` gauge is the kernel's one count of
    /// unfinished tasks: mid-run it reads what `outstanding()` reads, and
    /// 0 after `wait_all`, with monitoring on and with it off.
    #[test]
    fn outstanding_gauge_is_the_kernel_count() {
        for monitoring in [obs::ObsConfig::default(), obs::ObsConfig::on()] {
            let enabled = monitoring.enabled;
            let dfk = DataFlowKernel::new(Config::local_threads(2).with_monitoring(monitoring));
            let gauge = dfk.observability().gauge(names::DFK_OUTSTANDING);
            let gate = Arc::new(Mutex::new(()));
            let held = gate.lock();
            let (started_tx, started) = std::sync::mpsc::channel();
            let blocker = {
                let gate = gate.clone();
                FnApp::new(move |_: &[Value]| {
                    started_tx.send(()).unwrap();
                    drop(gate.lock());
                    Ok(Value::Null)
                })
            };
            for _ in 0..2 {
                dfk.submit("blocked", vec![], blocker.clone());
            }
            for _ in 0..3 {
                dfk.submit("queued", vec![], add_app());
            }
            started.recv().unwrap();
            started.recv().unwrap();
            assert_eq!(dfk.outstanding(), 5, "monitoring {enabled}");
            assert_eq!(gauge.value(), 5, "monitoring {enabled}");
            drop(held);
            dfk.wait_all();
            assert_eq!(dfk.outstanding(), 0, "monitoring {enabled}");
            assert_eq!(gauge.value(), 0, "monitoring {enabled}");
            dfk.shutdown();
        }
    }

    #[test]
    fn many_tasks_fan_out() {
        let dfk = dfk();
        let futs: Vec<AppFuture> = (0..200)
            .map(|i| dfk.submit("w", vec![AppArg::value(i as i64)], add_app()))
            .collect();
        let total: i64 = futs
            .iter()
            .map(|f| f.result().unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total, (0..200).sum::<i64>());
        dfk.shutdown();
    }

    #[test]
    fn memoization_skips_repeat_executions() {
        let dfk = DataFlowKernel::new(Config::local_threads(2).with_memoization());
        let executions = Arc::new(AtomicUsize::new(0));
        let body = {
            let executions = executions.clone();
            FnApp::new(move |vals: &[Value]| {
                executions.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Int(vals[0].as_int().unwrap() * 2))
            })
        };
        let a = dfk.submit("dbl", vec![AppArg::value(21i64)], body.clone());
        assert_eq!(a.result().unwrap(), Value::Int(42));
        // Same label + same inputs → memo hit, body not re-run.
        let b = dfk.submit("dbl", vec![AppArg::value(21i64)], body.clone());
        assert_eq!(b.result().unwrap(), Value::Int(42));
        // Different inputs → executes.
        let c = dfk.submit("dbl", vec![AppArg::value(5i64)], body.clone());
        assert_eq!(c.result().unwrap(), Value::Int(10));
        // Different label, same inputs → executes.
        let d = dfk.submit("other", vec![AppArg::value(21i64)], body);
        assert_eq!(d.result().unwrap(), Value::Int(42));
        assert_eq!(executions.load(Ordering::SeqCst), 3);
        assert_eq!(dfk.monitoring().summary().memoized, 1);
        dfk.shutdown();
    }

    #[test]
    fn memoization_ignores_failures_and_respects_future_inputs() {
        let dfk = DataFlowKernel::new(Config::local_threads(2).with_memoization());
        let attempts = Arc::new(AtomicUsize::new(0));
        let flaky = {
            let attempts = attempts.clone();
            FnApp::new(move |_: &[Value]| {
                if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(TaskError::failed("first try fails"))
                } else {
                    Ok(Value::str("ok"))
                }
            })
        };
        // First submission fails — failures are not cached.
        assert!(dfk
            .submit("flaky", vec![AppArg::value(1i64)], flaky.clone())
            .result()
            .is_err());
        // Second submission with the same inputs re-executes and succeeds.
        assert_eq!(
            dfk.submit("flaky", vec![AppArg::value(1i64)], flaky.clone())
                .result()
                .unwrap(),
            Value::str("ok")
        );
        // Third is a memo hit of the success.
        assert_eq!(
            dfk.submit("flaky", vec![AppArg::value(1i64)], flaky)
                .result()
                .unwrap(),
            Value::str("ok")
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 2);

        // Future-valued inputs memoize on the *resolved* value.
        let lit = dfk.submit("src", vec![], FnApp::new(|_| Ok(Value::Int(9))));
        let runs = Arc::new(AtomicUsize::new(0));
        let body = {
            let runs = runs.clone();
            FnApp::new(move |vals: &[Value]| {
                runs.fetch_add(1, Ordering::SeqCst);
                Ok(vals[0].clone())
            })
        };
        let via_future = dfk.submit("sel", vec![AppArg::future(&lit)], body.clone());
        assert_eq!(via_future.result().unwrap(), Value::Int(9));
        let via_literal = dfk.submit("sel", vec![AppArg::value(9i64)], body);
        assert_eq!(via_literal.result().unwrap(), Value::Int(9));
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "resolved-value memo must hit"
        );
        dfk.shutdown();
    }

    #[test]
    fn memoization_off_by_default() {
        let dfk = dfk();
        let runs = Arc::new(AtomicUsize::new(0));
        let body = {
            let runs = runs.clone();
            FnApp::new(move |_: &[Value]| {
                runs.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Null)
            })
        };
        dfk.submit("x", vec![], body.clone()).result().unwrap();
        dfk.submit("x", vec![], body).result().unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        dfk.shutdown();
    }

    #[test]
    fn checkpoint_appends_then_replays_without_reexecution() {
        let dir = std::env::temp_dir().join(format!("parsl-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dfk-roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);
        let header = ckpt::Header {
            version: 1,
            run_hash: 42,
            label: "dfk-test".into(),
        };

        // First run: completions land in the journal.
        let journal =
            Arc::new(ckpt::Journal::create(&path, &header, ckpt::SyncMode::TaskExit).unwrap());
        let dfk = DataFlowKernel::new(Config::local_threads(2).with_checkpoint(journal));
        let a = dfk.submit("a", vec![AppArg::value(1i64)], add_app());
        let b = dfk.submit(
            "b",
            vec![AppArg::future(&a), AppArg::value(10i64)],
            add_app(),
        );
        assert_eq!(b.result().unwrap(), Value::Int(11));
        dfk.shutdown();
        let stats = dfk.checkpoint_stats().unwrap();
        assert_eq!(
            stats,
            CkptStats {
                appended: 2,
                replayed: 0
            }
        );

        // Second run resumes the journal: same submissions replay from the
        // seeded memo table; bodies never execute, nothing re-appends.
        let (journal, loaded) = ckpt::Journal::resume(&path, ckpt::SyncMode::TaskExit).unwrap();
        assert_eq!(loaded.records.len(), 2);
        let dfk = DataFlowKernel::new(Config::local_threads(2).with_checkpoint(Arc::new(journal)));
        assert_eq!(dfk.seed_checkpoint(&loaded.records), (2, 0));
        let executions = Arc::new(AtomicUsize::new(0));
        let body = {
            let executions = executions.clone();
            FnApp::new(move |_: &[Value]| {
                executions.fetch_add(1, Ordering::SeqCst);
                panic!("journaled task must not re-execute");
            })
        };
        let a = dfk.submit("a", vec![AppArg::value(1i64)], body.clone());
        let b = dfk.submit("b", vec![AppArg::future(&a), AppArg::value(10i64)], body);
        assert_eq!(b.result().unwrap(), Value::Int(11));
        dfk.shutdown();
        assert_eq!(executions.load(Ordering::SeqCst), 0);
        let stats = dfk.checkpoint_stats().unwrap();
        assert_eq!(
            stats,
            CkptStats {
                appended: 0,
                replayed: 2
            }
        );
        assert_eq!(ckpt::load(&path).unwrap().records.len(), 2);
    }

    #[test]
    fn backoff_delays_retries() {
        let policy = RetryPolicy {
            max_retries: 2,
            initial_backoff: Duration::from_millis(40),
            multiplier: 1.0,
            max_backoff: Duration::from_secs(1),
            jitter_frac: 0.0,
            walltime: None,
        };
        let dfk = DataFlowKernel::new(Config::local_threads(2).with_retry_policy(policy));
        let attempts = Arc::new(AtomicUsize::new(0));
        let attempts2 = attempts.clone();
        let start = std::time::Instant::now();
        let fut = dfk.submit(
            "flaky",
            vec![],
            FnApp::new(move |_| {
                if attempts2.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(TaskError::failed("transient"))
                } else {
                    Ok(Value::Null)
                }
            }),
        );
        fut.result().unwrap();
        // Two retries, each preceded by a 40ms (no-jitter) backoff.
        assert!(
            start.elapsed() >= Duration::from_millis(80),
            "{:?}",
            start.elapsed()
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        dfk.shutdown();
    }

    #[test]
    fn walltime_kills_runaway_attempt() {
        let dfk =
            DataFlowKernel::new(Config::local_threads(2).with_walltime(Duration::from_millis(40)));
        let fut = dfk.submit(
            "runaway",
            vec![],
            FnApp::new(|_| {
                std::thread::sleep(Duration::from_millis(400));
                Ok(Value::Null)
            }),
        );
        match fut.result() {
            Err(TaskError::Timeout(d)) => assert_eq!(d, Duration::from_millis(40)),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(dfk.monitoring().summary().timed_out, 1);
        dfk.shutdown();
    }

    #[test]
    fn walltime_spares_fast_tasks() {
        let dfk =
            DataFlowKernel::new(Config::local_threads(2).with_walltime(Duration::from_secs(5)));
        let fut = dfk.submit("quick", vec![], FnApp::new(|_| Ok(Value::Int(1))));
        assert_eq!(fut.result().unwrap(), Value::Int(1));
        assert_eq!(dfk.monitoring().summary().timed_out, 0);
        dfk.shutdown();
    }

    #[test]
    fn timed_out_attempt_is_retried() {
        let policy = RetryPolicy {
            max_retries: 1,
            walltime: Some(Duration::from_millis(60)),
            ..RetryPolicy::default()
        };
        let dfk = DataFlowKernel::new(Config::local_threads(2).with_retry_policy(policy));
        let attempts = Arc::new(AtomicUsize::new(0));
        let attempts2 = attempts.clone();
        let fut = dfk.submit(
            "slow-then-fast",
            vec![],
            FnApp::new(move |_| {
                if attempts2.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(Value::str("made it"))
            }),
        );
        assert_eq!(fut.result().unwrap(), Value::str("made it"));
        assert_eq!(dfk.monitoring().summary().timed_out, 1);
        dfk.shutdown();
    }

    /// An executor that loses its first submission to a synthetic node
    /// failure, then behaves normally.
    struct LosesFirstTask {
        inner: Arc<ThreadPoolExecutor>,
        tripped: std::sync::atomic::AtomicBool,
    }

    impl Executor for LosesFirstTask {
        fn submit(&self, task: TaskPayload) {
            if !self.tripped.swap(true, Ordering::SeqCst) {
                task.complete(Err(TaskError::ExecutorLost("synthetic node loss".into())));
                return;
            }
            self.inner.submit(task);
        }
        fn label(&self) -> &str {
            "loses-first"
        }
        fn worker_count(&self) -> usize {
            self.inner.worker_count()
        }
        fn shutdown(&self) {
            self.inner.shutdown();
        }
    }

    #[test]
    fn executor_lost_is_retried_but_dependency_failure_is_not() {
        let obs = Arc::new(Observability::off());
        let flaky = Arc::new(LosesFirstTask {
            inner: ThreadPoolExecutor::new("inner", 2, obs.clone()),
            tripped: std::sync::atomic::AtomicBool::new(false),
        });
        let dfk =
            DataFlowKernel::with_executor(flaky, obs, Config::local_threads(0).with_retries(2));
        // First submission is lost with ExecutorLost → retried → succeeds.
        let survivor = dfk.submit("survivor", vec![], FnApp::new(|_| Ok(Value::Int(7))));
        assert_eq!(survivor.result().unwrap(), Value::Int(7));
        assert_eq!(dfk.monitoring().summary().retried, 1);
        // A dependency failure must fail immediately, consuming no retries.
        let boom = dfk.submit("boom", vec![], FnApp::new(|_| Err(TaskError::failed("x"))));
        let dep = dfk.submit("dep", vec![AppArg::future(&boom)], add_app());
        match dep.result() {
            Err(TaskError::DependencyFailed { .. }) => {}
            other => panic!("expected DependencyFailed, got {other:?}"),
        }
        // boom itself retried (2), dep did not (0), survivor retried once.
        assert_eq!(dfk.monitoring().summary().retried, 3);
        dfk.shutdown();
    }

    /// A gate that parks every ready task until the test releases it, and
    /// counts finished callbacks.
    struct ParkingGate {
        parked: Mutex<Vec<GatedLaunch>>,
        finished: AtomicUsize,
    }

    impl DispatchGate for ParkingGate {
        fn ready(&self, launch: GatedLaunch) {
            self.parked.lock().push(launch);
        }
        fn finished(&self, _tag: &RunTag) {
            self.finished.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tag(run: u64, ns: u64) -> RunTag {
        RunTag {
            run,
            tenant: Arc::from("t"),
            memo_ns: ns,
        }
    }

    #[test]
    fn gate_holds_tagged_tasks_until_released() {
        let gate = Arc::new(ParkingGate {
            parked: Mutex::new(Vec::new()),
            finished: AtomicUsize::new(0),
        });
        let dfk = DataFlowKernel::new(Config::local_threads(2).with_gate(gate.clone() as Arc<_>));
        let gated = dfk.submit_tagged("g", None, vec![AppArg::value(1i64)], add_app(), tag(1, 7));
        // Untagged tasks bypass the gate entirely.
        let free = dfk.submit("free", vec![AppArg::value(2i64)], add_app());
        assert_eq!(free.result().unwrap(), Value::Int(2));
        assert!(gated.peek().is_none(), "gated task must not run unreleased");
        let parked: Vec<_> = std::mem::take(&mut *gate.parked.lock());
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].tag().run, 1);
        for l in parked {
            l.launch();
        }
        assert_eq!(gated.result().unwrap(), Value::Int(1));
        // `finished` is owed *after* the promise resolves (see `finish`), so
        // the result can be seen a moment before the callback has run.
        assert!(simtest::wait_until(Duration::from_secs(20), || {
            gate.finished.load(Ordering::SeqCst) == 1
        }));
        // Aborted tasks fail without executing and without a finished().
        let doomed = dfk.submit_tagged("d", None, vec![], add_app(), tag(1, 7));
        let parked: Vec<_> = std::mem::take(&mut *gate.parked.lock());
        for l in parked {
            l.abort("run cancelled");
        }
        assert!(doomed.result().is_err());
        assert_eq!(gate.finished.load(Ordering::SeqCst), 1);
        dfk.shutdown();
    }

    #[test]
    fn memo_namespaces_isolate_workflows_but_dedupe_within_one() {
        let dfk = dfk();
        let runs = Arc::new(AtomicUsize::new(0));
        let body = {
            let runs = runs.clone();
            FnApp::new(move |vals: &[Value]| {
                runs.fetch_add(1, Ordering::SeqCst);
                Ok(vals[0].clone())
            })
        };
        // Same label+inputs, same namespace (two runs of one workflow):
        // the second is a memo hit even though the kernel has memoize off —
        // tagged tasks always fingerprint.
        let a = dfk.submit_tagged(
            "t",
            None,
            vec![AppArg::value(5i64)],
            body.clone(),
            tag(1, 99),
        );
        assert_eq!(a.result().unwrap(), Value::Int(5));
        let b = dfk.submit_tagged(
            "t",
            None,
            vec![AppArg::value(5i64)],
            body.clone(),
            tag(2, 99),
        );
        assert_eq!(b.result().unwrap(), Value::Int(5));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "same namespace must dedupe");
        // Different namespace (a different workflow): must re-execute.
        let c = dfk.submit_tagged("t", None, vec![AppArg::value(5i64)], body, tag(3, 100));
        assert_eq!(c.result().unwrap(), Value::Int(5));
        assert_eq!(
            runs.load(Ordering::SeqCst),
            2,
            "foreign namespace must miss"
        );
        dfk.shutdown();
    }

    #[test]
    fn per_run_journals_append_and_replay_independently() {
        let dir = std::env::temp_dir().join(format!("parsl-runckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run7.ckpt");
        let _ = std::fs::remove_file(&path);
        let header = ckpt::Header {
            version: 1,
            run_hash: 77,
            label: "run-7".into(),
        };

        // First daemon incarnation: run 7's completions land in its own
        // journal; an untagged task journals nowhere.
        let dfk = dfk();
        let journal =
            Arc::new(ckpt::Journal::create(&path, &header, ckpt::SyncMode::TaskExit).unwrap());
        dfk.attach_run_journal(7, journal);
        let a = dfk.submit_tagged(
            "a",
            Some("s1"),
            vec![AppArg::value(1i64)],
            add_app(),
            tag(7, 77),
        );
        assert_eq!(a.result().unwrap(), Value::Int(1));
        dfk.submit("plain", vec![AppArg::value(9i64)], add_app())
            .result()
            .unwrap();
        dfk.wait_all();
        let stats = dfk.detach_run_journal(7).unwrap();
        assert_eq!(
            stats,
            CkptStats {
                appended: 1,
                replayed: 0
            }
        );
        dfk.shutdown();
        let loaded = ckpt::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].step.as_deref(), Some("s1"));

        // Restarted daemon: resume run 7's journal, seed, and the same
        // tagged submission replays without executing.
        let dfk = DataFlowKernel::new(Config::local_threads(4));
        let (journal, loaded) = ckpt::Journal::resume(&path, ckpt::SyncMode::TaskExit).unwrap();
        dfk.attach_run_journal(7, Arc::new(journal));
        assert_eq!(dfk.seed_run_checkpoint(7, &loaded.records), (1, 0));
        let body = FnApp::new(|_: &[Value]| -> Result<Value, TaskError> {
            panic!("journaled task must not re-execute")
        });
        let a = dfk.submit_tagged("a", Some("s1"), vec![AppArg::value(1i64)], body, tag(7, 77));
        assert_eq!(a.result().unwrap(), Value::Int(1));
        dfk.wait_all();
        assert_eq!(
            dfk.run_checkpoint_stats(7).unwrap(),
            CkptStats {
                appended: 0,
                replayed: 1
            }
        );
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn htex_config_end_to_end() {
        use crate::htex::HtexConfig;
        use crate::provider::LocalProvider;
        use gridsim::LatencyModel;
        let config = Config::htex(
            HtexConfig {
                label: "htex-test".into(),
                nodes: 2,
                workers_per_node: 2,
                latency: LatencyModel::in_process(),
                ..HtexConfig::default()
            },
            Arc::new(LocalProvider::new(2)),
        );
        let dfk = DataFlowKernel::new(config);
        let futs: Vec<AppFuture> = (0..10)
            .map(|i| dfk.submit("h", vec![AppArg::value(i as i64)], add_app()))
            .collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(f.result().unwrap(), Value::Int(i as i64));
        }
        dfk.shutdown();
    }

    /// The kernel's observability handle reaches HTEX before its first
    /// block is provisioned, so a traced run exports that block too.
    #[test]
    fn traced_htex_kernel_exports_its_first_block() {
        use crate::htex::HtexConfig;
        use crate::provider::LocalProvider;
        let dir = std::env::temp_dir().join(format!("dfk-first-block-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let dfk = DataFlowKernel::new(
            Config::htex(
                HtexConfig {
                    label: "traced".into(),
                    nodes: 1,
                    workers_per_node: 1,
                    ..HtexConfig::default()
                },
                Arc::new(LocalProvider::new(1)),
            )
            .with_monitoring(obs::ObsConfig::exporting(&path)),
        );
        dfk.shutdown();
        dfk.observability().export().unwrap();
        let trace = obs::report::load_trace(&path).unwrap();
        let blocks = trace
            .metrics
            .iter()
            .find(|m| m.name == names::HTEX_BLOCKS_ADDED)
            .map(|m| m.value);
        assert_eq!(blocks, Some(1));
        let provisions = trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::BlockProvision)
            .count();
        assert_eq!(provisions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
