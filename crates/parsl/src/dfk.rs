//! The DataFlowKernel (DFK): Parsl's runtime core. Tracks dependencies
//! between app invocations through future-completion callbacks, launches
//! tasks on the configured executor when their inputs are ready, propagates
//! failures, retries, and counts task events in its obs registry.

use crate::apps::AppBody;
use crate::config::{Config, ExecutorChoice, RetryPolicy};
use crate::error::TaskError;
use crate::executor::{Attempt, Executor, TaskPayload, ThreadPoolExecutor};
use crate::future::{promise_pair, AppFuture, DataFuture, Promise, TaskResult};
use crate::htex::HighThroughputExecutor;
use crate::monitoring::Monitoring;
use crate::task::TaskId;
use crate::timer::{Due, Timer};
use obs::{names, Observability, SpanCtx, SpanKind};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
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
/// tasks — [`DataFlowKernel::submit`], or [`DataFlowKernel::submit_tagged`]
/// with no tag — fingerprint only when the kernel memoizes, leave their
/// fingerprints unmixed, journal to the kernel's journal and bypass the
/// [`DispatchGate`].
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
    pub(crate) fn lineage_name(&self) -> String {
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
    /// CWL step id, which the task's journal record names.
    step: Option<String>,
    /// Service run this task belongs to (`None` for one-shot kernels).
    tag: Option<RunTag>,
    /// Set when a [`DispatchGate`] launched this task; the terminal
    /// `finish` then owes the gate a `finished` callback.
    gated: std::sync::atomic::AtomicBool,
}

impl TaskInner {
    /// The service run whose journal this task records into; `None`
    /// selects the kernel's own.
    fn run(&self) -> Option<u64> {
        self.tag.as_ref().map(|tag| tag.run)
    }
}

/// One execution attempt of a task: the [`Attempt`] the kernel hands its
/// executor. The executor runs it and completes it; its walltime, when one
/// is configured, races it to completion on the same object from the
/// kernel timer.
struct TaskAttempt {
    dfk: Arc<DataFlowKernel>,
    task: Arc<TaskInner>,
    /// The resolved inputs: the body's arguments, and a retry's.
    vals: Arc<Vec<Value>>,
    fingerprint: Option<u64>,
    /// Set by the first completion; every later one is a no-op.
    claimed: AtomicBool,
}

impl Attempt for TaskAttempt {
    fn run(&self) -> TaskResult {
        (self.task.body)(&self.vals)
    }

    fn complete(&self, result: TaskResult) {
        if !self.claimed.swap(true, Ordering::AcqRel) {
            self.settle(result);
        }
    }
}

impl TaskAttempt {
    /// Deliver the outcome of the completion that claimed the attempt:
    /// memoize and journal a success, retry a retryable failure while
    /// budget remains (after the policy's backoff), and otherwise finish
    /// the task.
    fn settle(&self, result: TaskResult) {
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
            let backoff = Timed::Backoff(dfk.clone(), task, vals, fingerprint);
            dfk.timer.after(delay, backoff);
        }
    }
}

/// What the kernel's [`Timer`] holds until its deadline.
enum Timed {
    /// An attempt's walltime: fail the attempt with a timeout unless it has
    /// completed. Weak, so a finished attempt's task and inputs are freed
    /// when it completes, not at this deadline.
    Walltime(Weak<TaskAttempt>, Duration),
    /// A retry waiting out its backoff: the next attempt's task, inputs
    /// and fingerprint.
    Backoff(
        Arc<DataFlowKernel>,
        Arc<TaskInner>,
        Arc<Vec<Value>>,
        Option<u64>,
    ),
}

impl Due for Timed {
    fn fire(self) {
        match self {
            Timed::Walltime(attempt, walltime) => {
                let Some(attempt) = attempt.upgrade() else {
                    return;
                };
                if attempt.claimed.swap(true, Ordering::AcqRel) {
                    return;
                }
                let (dfk, task) = (&attempt.dfk, &attempt.task);
                dfk.obs.count(&dfk.metrics.timed_out);
                dfk.obs
                    .instant_span(SpanKind::TimedOut, task.id.0, task.root_span, &task.label);
                attempt.settle(Err(TaskError::Timeout(walltime)));
            }
            Timed::Backoff(dfk, task, vals, fingerprint) => dfk.attempt(task, vals, fingerprint),
        }
    }

    fn refuse(self, reason: String) {
        let error = TaskError::failed(reason);
        match self {
            Timed::Walltime(attempt, _) => {
                if let Some(attempt) = attempt.upgrade() {
                    attempt.complete(Err(error));
                }
            }
            Timed::Backoff(dfk, task, ..) => dfk.finish(&task, Err(error)),
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
    /// The kernel's checkpoint journal, which untagged tasks record into
    /// ([`Config::checkpoint`]; a `parsl-cwl` run).
    ckpt: Option<BoundJournal>,
    /// The kernel's one timer, on the kernel's clock: walltimes and retry
    /// backoffs, so a virtual clock makes both elapse in logical time.
    timer: Timer<Timed>,
    /// Jitter RNG for the retry backoff schedule — seeded from
    /// [`Config::seed`] so a simulated run replays identical delays.
    rng: Mutex<simtest::SimRng>,
    /// Multi-run dispatch gate (fair-share scheduling), when configured.
    gate: Option<Arc<dyn DispatchGate>>,
    /// Per-run checkpoint journals for a kernel hosting many concurrent
    /// runs (a `parsl-serve` daemon), keyed by [`RunTag::run`]: tagged
    /// tasks record into their run's. The same [`BoundJournal`] as `ckpt`;
    /// see [`Self::with_journal`].
    run_ckpts: Mutex<std::collections::HashMap<u64, Arc<BoundJournal>>>,
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
    ckpt_append: Arc<obs::Counter>,
    ckpt_replayed: Arc<obs::Counter>,
    /// Tasks not yet in a terminal state: the kernel's one count of them,
    /// kept whether or not monitoring is on. Submission and completion
    /// touch only this atomic.
    outstanding: Arc<obs::Gauge>,
}

/// A checkpoint journal bound to the kernel (untagged tasks) or to one
/// service run (its tagged tasks), plus the bookkeeping that separates a
/// *replay* (memo hit on a key this journal seeded) from an ordinary memo
/// hit. A run journal's fingerprints are namespace-mixed (see
/// [`RunTag::memo_ns`]), so seeding on resume lands on the same keys its
/// tagged launches compute.
struct BoundJournal {
    journal: Arc<ckpt::Journal>,
    /// Memo keys seeded from the journal on resume; a hit on one of these
    /// means the resumed run skipped a task the crashed run had finished.
    seeded: Mutex<std::collections::HashSet<(Arc<str>, u64)>>,
    /// Independent of the obs counters so the stats work with monitoring
    /// off.
    appended: AtomicUsize,
    replayed: AtomicUsize,
}

impl BoundJournal {
    fn new(journal: Arc<ckpt::Journal>) -> Self {
        Self {
            journal,
            seeded: Mutex::new(std::collections::HashSet::new()),
            appended: AtomicUsize::new(0),
            replayed: AtomicUsize::new(0),
        }
    }

    fn stats(&self) -> CkptStats {
        CkptStats {
            appended: self.appended.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
        }
    }

    /// Whether a memo hit on `(label, fingerprint)` replays a record this
    /// journal seeded; counts the replay when it does.
    fn replays(&self, label: &Arc<str>, fingerprint: u64) -> bool {
        let hit = self.seeded.lock().contains(&(label.clone(), fingerprint));
        if hit {
            self.replayed.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Make periodic-mode appends durable (TaskExit mode already synced
    /// each one) and return the final stats.
    fn close(&self) -> CkptStats {
        if let Err(e) = self.journal.flush() {
            eprintln!("warning: {e}");
        }
        self.stats()
    }
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
            ckpt_append: obs.counter(names::CKPT_APPEND),
            ckpt_replayed: obs.counter(names::CKPT_REPLAYED),
            outstanding: obs.gauge(names::DFK_OUTSTANDING),
        };
        let ckpt = config.checkpoint.map(BoundJournal::new);
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
            timer: Timer::new(config.clock),
            rng: Mutex::new(match config.seed {
                Some(s) => simtest::SimRng::seeded(s),
                None => simtest::SimRng::from_entropy(),
            }),
            gate: config.gate,
            run_ckpts: Mutex::new(std::collections::HashMap::new()),
        })
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

    /// Seed the memo table from the kernel's journal's records — see
    /// [`DataFlowKernel::seed_journal`].
    pub fn seed_checkpoint<R: ckpt::SeedSource>(&self, records: &[R]) -> (usize, usize) {
        self.seed_journal(None, records)
    }

    /// Seed the memo table from journal records loaded on resume — raw
    /// [`ckpt::Record`]s, or [`ckpt::Seed`]s whose results the caller has
    /// already parsed while validating them — into service run `run`'s
    /// attached journal, or the kernel's own when `None`. A run journal's
    /// fingerprints are already namespace-mixed, so its hits land only on
    /// tasks tagged with the same workflow namespace. Records whose result
    /// fails to parse are skipped (counted as the second element of the
    /// return value); callers have already applied the stale-hash and
    /// missing-file invalidation rules. Later memo hits on seeded keys
    /// count as that journal's *replays*, not plain memo hits.
    ///
    /// No-op (all records "invalid") when there is no such journal —
    /// seeding without one would replay results that nothing guards.
    pub fn seed_journal<R: ckpt::SeedSource>(
        &self,
        run: Option<u64>,
        records: &[R],
    ) -> (usize, usize) {
        self.with_journal(run, |bound| {
            let mut keys = bound.seeded.lock();
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
        })
        .unwrap_or((0, records.len()))
    }

    /// The kernel's checkpoint activity so far, when it has a journal.
    pub fn checkpoint_stats(&self) -> Option<CkptStats> {
        self.journal_stats(None)
    }

    /// Checkpoint activity so far of service run `run`'s attached journal,
    /// or of the kernel's own when `None`.
    pub fn journal_stats(&self, run: Option<u64>) -> Option<CkptStats> {
        self.with_journal(run, BoundJournal::stats)
    }

    /// Attach a per-run checkpoint journal for a service run. Completions
    /// of tasks tagged with this run id append here, with their
    /// namespace-mixed fingerprints. Tagged tasks always compute
    /// fingerprints, so a run journal works even on a kernel built without
    /// `memoize`.
    pub fn attach_run_journal(&self, run: u64, journal: Arc<ckpt::Journal>) {
        self.run_ckpts
            .lock()
            .insert(run, Arc::new(BoundJournal::new(journal)));
    }

    /// Flush and detach a service run's journal, returning its final
    /// stats. The run's memo entries stay — cross-run dedupe is the point
    /// of the shared table.
    pub fn detach_run_journal(&self, run: u64) -> Option<CkptStats> {
        let bound = self.run_ckpts.lock().remove(&run)?;
        Some(bound.close())
    }

    /// Apply `f` to the journal a task of service run `run` records into:
    /// the run's attached journal, or the kernel's own when `None`. `None`
    /// when there is no such journal. The kernel's is reached without a
    /// lock; a run's is cloned out of the map so `f` runs unlocked.
    fn with_journal<T>(&self, run: Option<u64>, f: impl FnOnce(&BoundJournal) -> T) -> Option<T> {
        match run {
            None => self.ckpt.as_ref().map(f),
            Some(run) => {
                let bound = self.run_ckpts.lock().get(&run).cloned();
                bound.map(|bound| f(&bound))
            }
        }
    }

    /// Invoke an app: returns immediately with a future. The task launches
    /// once every future among `args` has completed; any failed dependency
    /// fails this task without launching it.
    pub fn submit(self: &Arc<Self>, label: &str, args: Vec<AppArg>, body: AppBody) -> AppFuture {
        self.submit_tagged(label, None, args, body, None)
    }

    /// `submit`, with the originating CWL step id, which the task's
    /// lineage and journal record name, and the service run the task
    /// belongs to. A tagged task always fingerprints its inputs
    /// (namespace-mixed so distinct workflows never collide), journals its
    /// completion to the run's attached journal, and — when the kernel has
    /// a [`DispatchGate`] — dispatches through it instead of straight to
    /// the executor.
    pub fn submit_tagged(
        self: &Arc<Self>,
        label: &str,
        step: Option<&str>,
        args: Vec<AppArg>,
        body: AppBody,
        tag: Option<RunTag>,
    ) -> AppFuture {
        let id = TaskId(self.next_id.fetch_add(1, Ordering::Relaxed));
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
                // A hit on a key the task's own journal seeded is a
                // *replay*: the crashed run finished this task and the
                // resume is skipping it.
                let replayed = self
                    .with_journal(task.run(), |bound| bound.replays(&task.label, fp))
                    .unwrap_or(false);
                if replayed {
                    self.metrics.ckpt_replayed.incr();
                }
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
        });
        let walltime = self
            .retry
            .walltime
            .map(|walltime| (walltime, Arc::downgrade(&attempt)));
        self.executor.submit(TaskPayload {
            attempt,
            ctx: SpanCtx {
                lineage: id.0,
                parent: dispatch.id(),
            },
        });
        self.obs.finish_span(dispatch);
        if let Some((walltime, attempt)) = walltime {
            self.timer
                .after(walltime, Timed::Walltime(attempt, walltime));
        }
    }

    /// Durable completion record for a successful attempt, in the task's
    /// journal (see [`Self::with_journal`]). Journal failures degrade to a
    /// warning — losing checkpoint coverage must not fail a task that
    /// actually succeeded.
    fn journal(&self, task: &TaskInner, fingerprint: u64, value: &Value) {
        self.with_journal(task.run(), |bound| {
            let record = ckpt::Record {
                label: task.label.to_string(),
                fingerprint,
                step: task.step.clone(),
                result: yamlite::to_string_flow(value),
            };
            match bound.journal.append(&record) {
                Ok(()) => {
                    bound.appended.fetch_add(1, Ordering::Relaxed);
                    self.metrics.ckpt_append.incr();
                }
                Err(e) => eprintln!("warning: {e}"),
            }
        });
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

    /// Wait for all tasks, then stop the timer and the executor and export
    /// the trace (when monitoring is configured with an export path).
    pub fn shutdown(&self) {
        self.wait_all();
        self.timer.stop();
        self.executor.shutdown();
        // The journal is durable before the run is declared finished.
        if let Some(bound) = &self.ckpt {
            bound.close();
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

    impl DataFlowKernel {
        /// Number of tasks not yet in a terminal state.
        fn outstanding(&self) -> usize {
            usize::try_from(self.metrics.outstanding.value()).unwrap_or(0)
        }
    }

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

    /// A tool's app run through the kernel: the command spawned by
    /// `cwlexec::SubprocessDispatch`, its output file a `DataFuture` that
    /// resolves once the task has produced it.
    #[test]
    fn submit_command_produces_data_futures() {
        use crate::apps::tests::{command, tool_app};
        let dir = std::env::temp_dir().join(format!("parsl-dfk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("out.txt");
        let dfk = dfk();
        let fut = dfk.submit(
            "echo",
            vec![AppArg::value("payload")],
            tool_app(dir.clone(), |vals| {
                command(&["echo", &vals[0].to_display_string()])
            }),
        );
        let produced = DataFuture::new(crate::file::File::new(&out), fut.clone());
        assert!(produced.result().unwrap().path().exists());
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "payload\n");
        assert_eq!(fut.result().unwrap(), Value::Null);
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
        let produce = dfk.submit(
            "produce",
            vec![AppArg::value("chained-content")],
            FnApp::new(move |vals| {
                let text = format!("{}\n", vals[0].to_display_string());
                std::fs::write(&fo, text).map_err(TaskError::failed)?;
                Ok(Value::Null)
            }),
        );
        let produced = DataFuture::new(crate::file::File::new(&first_out), produce);
        // Second task consumes the DataFuture: materializes as the path.
        let consume = dfk.submit(
            "consume",
            vec![AppArg::data(&produced)],
            FnApp::new(|vals| {
                let path = vals[0]
                    .as_str()
                    .ok_or_else(|| TaskError::failed("no path"))?;
                let text = std::fs::read_to_string(path).map_err(TaskError::failed)?;
                Ok(Value::str(text.trim()))
            }),
        );
        assert_eq!(consume.result().unwrap(), Value::str("chained-content"));
        assert!(produced.result().unwrap().path().exists());
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

    const HOUR: Duration = Duration::from_secs(3600);

    /// No wait under test may outlive this much real time.
    const BOUND: Duration = Duration::from_secs(20);

    /// A thread-pool kernel on a virtual clock that only the test moves.
    fn manual_clock_kernel(
        policy: RetryPolicy,
    ) -> (Arc<DataFlowKernel>, Arc<simtest::VirtualClock>) {
        let vc = simtest::VirtualClock::new();
        vc.set_auto(false);
        let config = Config::local_threads(2)
            .with_clock(vc.clone())
            .with_retry_policy(policy);
        (DataFlowKernel::new(config), vc)
    }

    /// Two hundred retries waiting out an hour's backoff share the kernel's
    /// one timer: one sleeper on the kernel's clock, not one per retry, and
    /// advancing that clock by the hour runs every retry.
    #[test]
    fn backoffs_share_one_timer_on_the_kernel_clock() {
        let (dfk, vc) = manual_clock_kernel(RetryPolicy {
            max_retries: 1,
            initial_backoff: HOUR,
            multiplier: 1.0,
            max_backoff: HOUR,
            jitter_frac: 0.0,
            walltime: None,
        });
        let futs: Vec<AppFuture> = (0..200i64)
            .map(|i| {
                let failed_once = AtomicBool::new(false);
                let body = FnApp::new(move |vals: &[Value]| {
                    if failed_once.swap(true, Ordering::SeqCst) {
                        Ok(vals[0].clone())
                    } else {
                        Err(TaskError::failed("first attempt fails"))
                    }
                });
                dfk.submit("flaky", vec![AppArg::value(i)], body)
            })
            .collect();
        let retries = dfk.observability().counter(names::DFK_RETRIES);
        assert!(simtest::wait_until(BOUND, || retries.value() == 200));
        assert!(simtest::wait_until(BOUND, || vc.sleeper_count() >= 1));
        assert_eq!(
            vc.sleeper_count(),
            1,
            "one timer, not one sleeper per retry"
        );
        vc.advance(HOUR);
        let values = simtest::returns_within(BOUND, move || {
            futs.iter().map(|f| f.result().unwrap()).collect::<Vec<_>>()
        })
        .expect("the hour has passed on the kernel's clock: every retry must run");
        assert_eq!(values, (0..200).map(Value::Int).collect::<Vec<_>>());
        dfk.shutdown();
        assert_eq!(vc.sleeper_count(), 0);
    }

    /// A walltime runs on the kernel's clock: a body that never returns by
    /// itself times out when the test advances that clock by the walltime.
    #[test]
    fn walltime_fires_on_the_kernel_clock() {
        let (dfk, vc) = manual_clock_kernel(RetryPolicy {
            walltime: Some(HOUR),
            ..RetryPolicy::default()
        });
        let (release, held) = std::sync::mpsc::channel::<()>();
        let held = Mutex::new(held);
        let fut = dfk.submit(
            "stuck",
            vec![],
            FnApp::new(move |_| {
                let _ = held.lock().recv();
                Ok(Value::Null)
            }),
        );
        assert!(
            simtest::wait_until(BOUND, || vc.sleeper_count() == 1),
            "the walltime waits on the kernel's clock"
        );
        vc.advance(HOUR);
        match simtest::returns_within(BOUND, move || fut.result()) {
            Some(Err(TaskError::Timeout(d))) => assert_eq!(d, HOUR),
            other => panic!("expected Timeout(1h), got {other:?}"),
        }
        assert_eq!(dfk.monitoring().summary().timed_out, 1);
        drop(release);
        dfk.shutdown();
    }

    /// The walltimes of attempts that completed stay on the timer until
    /// their deadlines; `shutdown` stops it anyway and leaves nothing
    /// waiting on the clock.
    #[test]
    fn shutdown_stops_a_timer_holding_finished_walltimes() {
        let (dfk, vc) = manual_clock_kernel(RetryPolicy {
            walltime: Some(HOUR),
            ..RetryPolicy::default()
        });
        for i in 0..200i64 {
            dfk.submit("fast", vec![AppArg::value(i)], add_app());
        }
        dfk.wait_all();
        let kernel = dfk.clone();
        assert!(
            simtest::returns_within(BOUND, move || kernel.shutdown()).is_some(),
            "shutdown must not wait out an hour-long walltime"
        );
        assert_eq!(vc.sleeper_count(), 0);
        assert_eq!(dfk.monitoring().summary().timed_out, 0);
        assert_eq!(dfk.monitoring().summary().completed, 200);
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
        let gated = dfk.submit_tagged(
            "g",
            None,
            vec![AppArg::value(1i64)],
            add_app(),
            Some(tag(1, 7)),
        );
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
        let doomed = dfk.submit_tagged("d", None, vec![], add_app(), Some(tag(1, 7)));
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
            Some(tag(1, 99)),
        );
        assert_eq!(a.result().unwrap(), Value::Int(5));
        let b = dfk.submit_tagged(
            "t",
            None,
            vec![AppArg::value(5i64)],
            body.clone(),
            Some(tag(2, 99)),
        );
        assert_eq!(b.result().unwrap(), Value::Int(5));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "same namespace must dedupe");
        // Different namespace (a different workflow): must re-execute.
        let c = dfk.submit_tagged(
            "t",
            None,
            vec![AppArg::value(5i64)],
            body,
            Some(tag(3, 100)),
        );
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
            Some(tag(7, 77)),
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
        assert_eq!(dfk.seed_journal(Some(7), &loaded.records), (1, 0));
        let body = FnApp::new(|_: &[Value]| -> Result<Value, TaskError> {
            panic!("journaled task must not re-execute")
        });
        let a = dfk.submit_tagged(
            "a",
            Some("s1"),
            vec![AppArg::value(1i64)],
            body,
            Some(tag(7, 77)),
        );
        assert_eq!(a.result().unwrap(), Value::Int(1));
        dfk.wait_all();
        assert_eq!(
            dfk.journal_stats(Some(7)).unwrap(),
            CkptStats {
                appended: 0,
                replayed: 1
            }
        );
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Where a journal binds: the kernel's own (a `parsl-cwl` run, its
    /// tasks untagged) or one service run's (a `parsl-serve` run, its tasks
    /// tagged).
    #[derive(Clone, Copy, Debug)]
    enum Binding {
        Kernel,
        Run,
    }

    impl Binding {
        /// A kernel with `journal` bound, and the tag its tasks carry.
        fn kernel(self, journal: ckpt::Journal) -> (Arc<DataFlowKernel>, Option<RunTag>) {
            let journal = Arc::new(journal);
            match self {
                Binding::Kernel => (
                    DataFlowKernel::new(Config::local_threads(2).with_checkpoint(journal)),
                    None,
                ),
                Binding::Run => {
                    let dfk = DataFlowKernel::new(Config::local_threads(2));
                    dfk.attach_run_journal(7, journal);
                    (dfk, Some(tag(7, 77)))
                }
            }
        }

        /// End the binding — shutdown for the kernel's journal, detach for
        /// a run's — and return its final stats.
        fn close(self, dfk: &DataFlowKernel) -> CkptStats {
            match self {
                Binding::Kernel => {
                    dfk.shutdown();
                    dfk.checkpoint_stats().unwrap()
                }
                Binding::Run => {
                    dfk.wait_all();
                    let stats = dfk.detach_run_journal(7).unwrap();
                    dfk.shutdown();
                    stats
                }
            }
        }
    }

    /// What one binding did over submit → close → resume → replay: the
    /// first and the resumed kernel's stats, the journal's `(label, step)`
    /// records, and how many bodies the resumed kernel executed.
    type JournalTrace = (CkptStats, CkptStats, Vec<(String, Option<String>)>, usize);

    fn journal_round_trip(binding: Binding) -> JournalTrace {
        let dir =
            std::env::temp_dir().join(format!("parsl-journal-{binding:?}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.ckpt");
        let _ = std::fs::remove_file(&path);
        let header = ckpt::Header {
            version: 1,
            run_hash: 77,
            label: "journal-contract".into(),
        };
        let submit = |dfk: &Arc<DataFlowKernel>, tag: &Option<RunTag>, body: &AppBody| {
            let a = dfk.submit_tagged(
                "a",
                Some("s1"),
                vec![AppArg::value(1i64)],
                body.clone(),
                tag.clone(),
            );
            let b = dfk.submit_tagged(
                "b",
                Some("s2"),
                vec![AppArg::future(&a), AppArg::value(10i64)],
                body.clone(),
                tag.clone(),
            );
            assert_eq!(b.result().unwrap(), Value::Int(11), "{binding:?}");
        };

        let journal = ckpt::Journal::create(&path, &header, ckpt::SyncMode::TaskExit).unwrap();
        let (dfk, tag) = binding.kernel(journal);
        submit(&dfk, &tag, &add_app());
        let first = binding.close(&dfk);
        let records = ckpt::load(&path)
            .unwrap()
            .records
            .into_iter()
            .map(|r| (r.label, r.step))
            .collect();

        let (journal, loaded) = ckpt::Journal::resume(&path, ckpt::SyncMode::TaskExit).unwrap();
        let (dfk, tag) = binding.kernel(journal);
        let run = tag.as_ref().map(|t| t.run);
        assert_eq!(
            dfk.seed_journal(run, &loaded.records),
            (2, 0),
            "{binding:?}"
        );
        let executions = Arc::new(AtomicUsize::new(0));
        let body = {
            let executions = executions.clone();
            FnApp::new(move |vals: &[Value]| {
                executions.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Int(vals.iter().filter_map(Value::as_int).sum()))
            })
        };
        submit(&dfk, &tag, &body);
        let resumed = binding.close(&dfk);
        assert_eq!(ckpt::load(&path).unwrap().records.len(), 2, "{binding:?}");
        std::fs::remove_dir_all(&dir).ok();
        (first, resumed, records, executions.load(Ordering::SeqCst))
    }

    /// One journal contract on both bindings: the same submissions append
    /// the same records with the same stats, and a resume replays every
    /// one of them without executing a body.
    #[test]
    fn kernel_and_run_journals_keep_one_contract() {
        let expected: JournalTrace = (
            CkptStats {
                appended: 2,
                replayed: 0,
            },
            CkptStats {
                appended: 0,
                replayed: 2,
            },
            vec![
                ("a".to_string(), Some("s1".to_string())),
                ("b".to_string(), Some("s2".to_string())),
            ],
            0,
        );
        for binding in [Binding::Kernel, Binding::Run] {
            assert_eq!(journal_round_trip(binding), expected, "{binding:?}");
        }
    }

    /// A run sharing a resumed run's memo namespace hits the keys that
    /// run's journal seeded as plain memo hits: they are the resumed run's
    /// replays, not its own, and the resumed run's stats do not move.
    #[test]
    fn same_namespace_run_hits_seeded_keys_as_memo_hits() {
        let dir = std::env::temp_dir().join(format!("parsl-run8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let header = |run: u64| ckpt::Header {
            version: 1,
            run_hash: 77,
            label: format!("run-{run}"),
        };
        let path7 = dir.join("run7.ckpt");
        let _ = std::fs::remove_file(&path7);
        let dfk = dfk();
        let journal = ckpt::Journal::create(&path7, &header(7), ckpt::SyncMode::TaskExit);
        dfk.attach_run_journal(7, Arc::new(journal.unwrap()));
        let a = dfk.submit_tagged(
            "a",
            Some("s1"),
            vec![AppArg::value(1i64)],
            add_app(),
            Some(tag(7, 77)),
        );
        assert_eq!(a.result().unwrap(), Value::Int(1));
        dfk.wait_all();
        dfk.detach_run_journal(7).unwrap();
        dfk.shutdown();

        // Restarted daemon: run 7 resumes and is seeded; run 8, a new run
        // of the same workflow, has a fresh journal.
        let dfk = DataFlowKernel::new(Config::local_threads(4));
        let (journal, loaded) = ckpt::Journal::resume(&path7, ckpt::SyncMode::TaskExit).unwrap();
        dfk.attach_run_journal(7, Arc::new(journal));
        assert_eq!(dfk.seed_journal(Some(7), &loaded.records), (1, 0));
        let path8 = dir.join("run8.ckpt");
        let _ = std::fs::remove_file(&path8);
        let journal = ckpt::Journal::create(&path8, &header(8), ckpt::SyncMode::TaskExit);
        dfk.attach_run_journal(8, Arc::new(journal.unwrap()));
        let never = FnApp::new(|_: &[Value]| -> Result<Value, TaskError> {
            panic!("a seeded key must not re-execute")
        });
        let b = dfk.submit_tagged(
            "a",
            Some("s1"),
            vec![AppArg::value(1i64)],
            never,
            Some(tag(8, 77)),
        );
        assert_eq!(b.result().unwrap(), Value::Int(1));
        dfk.wait_all();
        let untouched = CkptStats::default();
        assert_eq!(dfk.monitoring().summary().memoized, 1);
        let replays = dfk.observability().counter(names::CKPT_REPLAYED);
        assert_eq!(replays.value(), 0);
        assert_eq!(dfk.detach_run_journal(8), Some(untouched));
        assert_eq!(dfk.detach_run_journal(7), Some(untouched));
        dfk.shutdown();
        assert!(ckpt::load(&path8).unwrap().records.is_empty());
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
