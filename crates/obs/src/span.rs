//! Structured spans: typed, named intervals with parent/child links and a
//! lineage id tying every span of one logical task together across layers
//! (DFK → interchange → manager → worker → result path).

use parking_lot::Mutex;

/// What stage of the pipeline a span covers.
///
/// The declaration order is the *causal* order of the fast path: when two
/// spans of the same task tie on start time, sorting by kind reproduces the
/// order the stages actually run in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A whole-workflow run (reference runner / workflow compiler root).
    WorkflowRun,
    /// `DataFlowKernel::submit` — task creation and dependency wiring.
    Submit,
    /// Memoization table consultation.
    MemoLookup,
    /// Handing the task to the executor (one per attempt).
    Dispatch,
    /// The task entering the interchange queue.
    BatchEnqueue,
    /// A manager's worker receiving the task message.
    ManagerRecv,
    /// The task body executing on a worker.
    WorkerExec,
    /// Input files being staged into a task workdir (data plane).
    StageIn,
    /// A tool process executing (reference runner / cwlexec layer).
    ToolExec,
    /// Outputs being registered with the content store after collection.
    StageOut,
    /// The result message completing the task's promise.
    ResultReturn,
    /// A retry being scheduled after a failed attempt.
    Retry,
    /// The task's walltime passing before its attempt completed.
    TimedOut,
    /// A manager declared dead by the heartbeat monitor.
    NodeLost,
    /// An in-flight task re-queued after its node died.
    Redispatched,
    /// A provider block being provisioned (scale-out or replacement).
    BlockProvision,
}

impl SpanKind {
    /// Every kind, in causal order.
    pub(crate) const ALL: [SpanKind; 16] = [
        SpanKind::WorkflowRun,
        SpanKind::Submit,
        SpanKind::MemoLookup,
        SpanKind::Dispatch,
        SpanKind::BatchEnqueue,
        SpanKind::ManagerRecv,
        SpanKind::WorkerExec,
        SpanKind::StageIn,
        SpanKind::ToolExec,
        SpanKind::StageOut,
        SpanKind::ResultReturn,
        SpanKind::Retry,
        SpanKind::TimedOut,
        SpanKind::NodeLost,
        SpanKind::Redispatched,
        SpanKind::BlockProvision,
    ];

    /// Stable wire name (used by the JSONL exporter and goldens).
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::WorkflowRun => "workflow_run",
            SpanKind::Submit => "submit",
            SpanKind::MemoLookup => "memo_lookup",
            SpanKind::Dispatch => "dispatch",
            SpanKind::BatchEnqueue => "batch_enqueue",
            SpanKind::ManagerRecv => "manager_recv",
            SpanKind::WorkerExec => "worker_exec",
            SpanKind::StageIn => "stage_in",
            SpanKind::ToolExec => "tool_exec",
            SpanKind::StageOut => "stage_out",
            SpanKind::ResultReturn => "result_return",
            SpanKind::Retry => "retry",
            SpanKind::TimedOut => "timed_out",
            SpanKind::NodeLost => "node_lost",
            SpanKind::Redispatched => "redispatched",
            SpanKind::BlockProvision => "block_provision",
        }
    }

    /// Inverse of [`SpanKind::as_str`].
    pub(crate) fn parse(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the run (allocation order; never 0).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Lineage id — the Parsl task id all spans of one task share
    /// (0 for spans not tied to a task, e.g. `NodeLost`).
    pub lineage: u64,
    /// Pipeline stage.
    pub kind: SpanKind,
    /// Human name (task label, node name, step id, …).
    pub name: String,
    /// Start, µs since run start.
    pub start_us: u64,
    /// End, µs since run start (== `start_us` for instant spans).
    pub end_us: u64,
}

impl SpanRecord {
    /// Duration in microseconds.
    pub(crate) fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// An in-flight span handle returned by `Observability::start_span`.
///
/// When the span was not sampled the handle is inert (`id == 0`) and
/// finishing it is free. The handle is `Copy`-cheap to thread through call
/// stacks; its `id` may be used as a parent for child spans before it is
/// finished.
#[derive(Debug)]
pub struct ActiveSpan {
    pub(crate) id: u64,
    pub(crate) parent: u64,
    pub(crate) lineage: u64,
    pub(crate) kind: SpanKind,
    pub(crate) name: Option<String>,
    pub(crate) start_us: u64,
}

impl ActiveSpan {
    /// An inert handle (nothing recorded).
    pub(crate) fn none() -> Self {
        Self {
            id: 0,
            parent: 0,
            lineage: 0,
            kind: SpanKind::Submit,
            name: None,
            start_us: 0,
        }
    }

    /// The span id (0 when not sampled). Valid as a child's parent id
    /// before the span finishes.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Cross-layer span context carried inside a task payload: the lineage id
/// and the parent span id the executor should hang its spans off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCtx {
    /// Lineage id (Parsl task id); 0 = untracked.
    pub lineage: u64,
    /// Parent span id for executor-side spans; 0 = root.
    pub parent: u64,
}

impl SpanCtx {
    /// An untracked context (monitoring disabled or not wired).
    pub const NONE: SpanCtx = SpanCtx {
        lineage: 0,
        parent: 0,
    };
}

const SHARDS: usize = 16;

/// Sharded store of finished spans: writers stripe over per-shard mutexes
/// keyed by thread, so the fast path is an uncontended lock plus a push.
pub(crate) struct Tracer {
    shards: [Mutex<Vec<SpanRecord>>; SHARDS],
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Self {
            shards: [(); SHARDS].map(|_| Mutex::new(Vec::new())),
        }
    }

    pub(crate) fn push(&self, record: SpanRecord) {
        self.shards[crate::metrics::thread_stripe() % SHARDS]
            .lock()
            .push(record);
    }

    /// All spans so far, sorted by id (allocation order).
    pub(crate) fn snapshot(&self) -> Vec<SpanRecord> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().iter().cloned());
        }
        all.sort_by_key(|s| s.id);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(SpanKind::parse("nope"), None);
    }

    #[test]
    fn tracer_snapshot_sorts_by_id() {
        let t = Tracer::new();
        for id in [5, 1, 3] {
            t.push(SpanRecord {
                id,
                parent: 0,
                lineage: 0,
                kind: SpanKind::Submit,
                name: String::new(),
                start_us: 0,
                end_us: 0,
            });
        }
        let ids: Vec<u64> = t.snapshot().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn inert_handle_reports_not_recording() {
        assert_eq!(ActiveSpan::none().id(), 0);
    }
}
