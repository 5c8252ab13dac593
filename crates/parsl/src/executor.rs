//! The [`Executor`] abstraction and the in-process
//! [`ThreadPoolExecutor`] — Parsl's single-node executor, used for the
//! paper's Fig. 1b configuration.
//!
//! An executor receives [`TaskPayload`]s. Each carries one [`Attempt`]: a
//! single object that both runs the task body and takes its outcome, and
//! the only one the kernel allocates per dispatch. The executor calls
//! [`TaskPayload::run`] on a worker and hands the result to
//! [`TaskPayload::complete`]; it never sees the task's future.

use crate::error::TaskError;
use crate::future::TaskResult;
use crossbeam::channel::{unbounded, Receiver, Sender};
use obs::{names, Observability, SpanCtx, SpanKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One execution attempt of a task, as the kernel hands it to an executor.
///
/// The contract:
/// - [`Attempt::run`] executes the task body and returns its outcome. It
///   may be called more than once for one attempt: HTEX re-runs a payload
///   whose node was lost before its result was accepted. It neither
///   resolves nor records anything; the caller isolates panics
///   ([`TaskPayload::run`] does).
/// - [`Attempt::complete`] delivers the outcome. The first call wins;
///   every later call — a second executor resolution, the kernel timer's
///   walltime losing the race — is a no-op. Any thread may call it,
///   including one that never ran the body (a shutdown or a lost node
///   fails the attempt without running it).
///
/// An executor completes every payload it is given: with the outcome of a
/// run, or with the error it fails the task with.
pub(crate) trait Attempt: Send + Sync {
    /// Execute the task body once and return its outcome.
    fn run(&self) -> TaskResult;
    /// Resolve the attempt with `result`; only the first call has effect.
    fn complete(&self, result: TaskResult);
}

/// The work handed to an executor: the attempt to run and complete, plus
/// the ids the executor's spans need. Cloning shares the attempt (one
/// reference-count bump), so a lost dispatch can be re-run on a surviving
/// worker; which clone completes it is the executor's call, and HTEX's
/// ledger accepts exactly one.
#[derive(Clone)]
pub struct TaskPayload {
    /// The attempt: runs the body and takes its outcome.
    pub(crate) attempt: Arc<dyn Attempt>,
    /// Trace context: the lineage id and the dispatch span executor-side
    /// spans hang off. [`SpanCtx::NONE`] when monitoring is off.
    pub(crate) ctx: SpanCtx,
}

impl TaskPayload {
    /// Execute the attempt's body, converting panics into
    /// [`TaskError::Panicked`] so one bad app cannot take down a worker.
    pub(crate) fn run(&self) -> TaskResult {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.attempt.run())) {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                Err(TaskError::Panicked(msg))
            }
        }
    }

    /// Resolve the attempt (first completion wins).
    pub(crate) fn complete(&self, result: TaskResult) {
        self.attempt.complete(result);
    }
}

/// An execution backend, mirroring Parsl's `ParslExecutor` interface
/// (itself modeled on `concurrent.futures.Executor`).
pub trait Executor: Send + Sync {
    /// Queue a task for execution. Must not block on task completion.
    /// After [`Executor::shutdown`], implementations must complete the
    /// task with [`TaskError::Shutdown`] instead of accepting it.
    fn submit(&self, task: TaskPayload);

    /// Human-readable label (appears in monitoring).
    fn label(&self) -> &str;

    /// Number of worker slots currently provisioned.
    fn worker_count(&self) -> usize;

    /// Stop accepting tasks and join workers. Queued tasks are completed
    /// with [`TaskError::Shutdown`].
    fn shutdown(&self);

    /// Names of the nodes this executor has declared dead. Default: none
    /// (an executor without nodes loses none).
    fn lost_nodes(&self) -> Vec<String> {
        Vec::new()
    }
}

enum Msg {
    Task(TaskPayload),
    Stop,
}

/// A fixed-size pool of worker threads fed from one queue — the
/// `ThreadPoolExecutor` of the paper's single-node runs.
pub(crate) struct ThreadPoolExecutor {
    label: String,
    tx: Sender<Msg>,
    workers: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
    worker_count: usize,
    closed: AtomicBool,
}

impl ThreadPoolExecutor {
    /// Spawn a pool with `workers` threads that record their spans and
    /// metrics into `obs`, the kernel's observability handle.
    pub(crate) fn new(
        label: impl Into<String>,
        workers: usize,
        obs: Arc<Observability>,
    ) -> Arc<Self> {
        let workers = workers.max(1);
        let label = label.into();
        let (tx, rx) = unbounded::<Msg>();
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx: Receiver<Msg> = rx.clone();
            let obs = obs.clone();
            let name = format!("{label}-worker-{i}");
            handles.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(rx, obs))
                    .expect("failed to spawn worker thread"),
            );
        }
        Arc::new(Self {
            label,
            tx,
            workers: parking_lot::Mutex::new(handles),
            worker_count: workers,
            closed: AtomicBool::new(false),
        })
    }
}

fn worker_loop(rx: Receiver<Msg>, obs: Arc<Observability>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Task(task) => {
                if obs.is_enabled() {
                    let ctx = task.ctx;
                    let span = obs.start_span(
                        SpanKind::WorkerExec,
                        ctx.lineage,
                        ctx.parent,
                        "thread-pool",
                    );
                    let start = obs.now_us();
                    task.complete(task.run());
                    obs.histogram(names::TASK_EXEC_US)
                        .record(obs.now_us().saturating_sub(start));
                    obs.finish_span(span);
                } else {
                    task.complete(task.run());
                }
            }
            Msg::Stop => break,
        }
    }
}

impl Executor for ThreadPoolExecutor {
    fn submit(&self, task: TaskPayload) {
        if self.closed.load(Ordering::SeqCst) {
            // Fail fast: a submit after shutdown must not leave the caller
            // blocked forever on a task nobody will complete.
            task.complete(Err(TaskError::Shutdown));
            return;
        }
        if let Err(send_err) = self.tx.send(Msg::Task(task)) {
            // Lost the race with shutdown; recover the payload from the
            // failed send and complete it.
            if let Msg::Task(task) = send_err.0 {
                task.complete(Err(TaskError::Shutdown));
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn worker_count(&self) -> usize {
        self.worker_count
    }

    fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
        for _ in 0..self.worker_count {
            let _ = self.tx.send(Msg::Stop);
        }
        let mut workers = self.workers.lock();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::future::{promise_pair, AppFuture, Promise};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;
    use yamlite::Value;

    /// A test attempt: a closure and the promise of the future it
    /// resolves, standing in for the kernel's attempt object.
    struct FnAttempt<F> {
        body: F,
        promise: Mutex<Option<Promise>>,
    }

    impl<F: Fn() -> TaskResult + Send + Sync> Attempt for FnAttempt<F> {
        fn run(&self) -> TaskResult {
            (self.body)()
        }
        fn complete(&self, result: TaskResult) {
            if let Some(promise) = self.promise.lock().take() {
                promise.complete(result);
            }
        }
    }

    /// A payload that runs `body` and resolves the returned future.
    pub(crate) fn payload(
        id: u64,
        body: impl Fn() -> TaskResult + Send + Sync + 'static,
    ) -> (AppFuture, TaskPayload) {
        let (fut, promise) = promise_pair(crate::task::TaskId(id));
        let attempt = Arc::new(FnAttempt {
            body,
            promise: Mutex::new(Some(promise)),
        });
        (
            fut,
            TaskPayload {
                attempt,
                ctx: SpanCtx::NONE,
            },
        )
    }

    #[test]
    fn executes_tasks() {
        let pool = ThreadPoolExecutor::new("tp", 4, Arc::new(Observability::off()));
        let (fut, task) = payload(1, || Ok(Value::Int(7)));
        pool.submit(task);
        assert_eq!(fut.result().unwrap(), Value::Int(7));
        pool.shutdown();
    }

    #[test]
    fn parallelism_actually_happens() {
        let pool = ThreadPoolExecutor::new("tp", 4, Arc::new(Observability::off()));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut futs = Vec::new();
        for i in 0..8 {
            let running = running.clone();
            let peak = peak.clone();
            let (fut, task) = payload(i, move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(30));
                running.fetch_sub(1, Ordering::SeqCst);
                Ok(Value::Null)
            });
            pool.submit(task);
            futs.push(fut);
        }
        for f in &futs {
            f.result().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) >= 3, "peak {:?}", peak);
        pool.shutdown();
    }

    #[test]
    fn panics_are_isolated() {
        let pool = ThreadPoolExecutor::new("tp", 2, Arc::new(Observability::off()));
        let (bad, task) = payload(1, || panic!("kaboom"));
        pool.submit(task);
        match bad.result() {
            Err(TaskError::Panicked(m)) => assert!(m.contains("kaboom")),
            other => panic!("unexpected {other:?}"),
        }
        // Pool still works afterwards.
        let (ok, task) = payload(2, || Ok(Value::Int(1)));
        pool.submit(task);
        assert_eq!(ok.result().unwrap(), Value::Int(1));
        pool.shutdown();
    }

    #[test]
    fn shutdown_joins_workers() {
        let pool = ThreadPoolExecutor::new("tp", 2, Arc::new(Observability::off()));
        let (fut, task) = payload(1, || Ok(Value::Null));
        pool.submit(task);
        fut.result().unwrap();
        pool.shutdown();
        assert!(pool.workers.lock().is_empty());
    }

    #[test]
    fn submit_after_shutdown_fails_fast() {
        let pool = ThreadPoolExecutor::new("tp", 2, Arc::new(Observability::off()));
        pool.shutdown();
        let (fut, task) = payload(1, || Ok(Value::Int(1)));
        pool.submit(task);
        // The promise must resolve promptly with Shutdown, not hang.
        match fut.result_timeout(Duration::from_secs(2)) {
            Some(Err(TaskError::Shutdown)) => {}
            other => panic!("expected fast Shutdown error, got {other:?}"),
        }
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let pool = ThreadPoolExecutor::new("tp", 0, Arc::new(Observability::off()));
        assert_eq!(pool.worker_count(), 1);
        pool.shutdown();
    }
}
