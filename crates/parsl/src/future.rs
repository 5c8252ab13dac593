//! Completion futures, built the way Rust Atomics & Locks builds blocking
//! primitives: a Mutex-guarded state plus a Condvar for waiters, extended
//! with completion callbacks so the dataflow kernel never polls.

use crate::error::TaskError;
use crate::file::File;
use crate::task::TaskId;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yamlite::Value;

/// The outcome a future resolves to.
pub(crate) type TaskResult = Result<Value, TaskError>;

type Callback = Box<dyn FnOnce(&TaskResult) + Send>;

struct FutState {
    result: Option<TaskResult>,
    callbacks: Vec<Callback>,
}

struct Shared {
    state: Mutex<FutState>,
    cond: Condvar,
}

/// The future returned when an app is invoked: tracks the asynchronous
/// execution of the app. Cheap to clone; all clones observe the same result.
#[derive(Clone)]
pub struct AppFuture {
    shared: Arc<Shared>,
    id: TaskId,
}

impl std::fmt::Debug for AppFuture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = self.shared.state.lock().result.is_some();
        f.debug_struct("AppFuture")
            .field("id", &self.id)
            .field("done", &done)
            .finish()
    }
}

/// The write side of an [`AppFuture`]: the kernel holds one per task and
/// resolves it once, when the task reaches a terminal state. Completing
/// twice is a logic error and is ignored (first completion wins), matching
/// `concurrent.futures`.
pub struct Promise {
    shared: Arc<Shared>,
}

/// Create a connected future/promise pair for task `id`.
pub fn promise_pair(id: TaskId) -> (AppFuture, Promise) {
    let shared = Arc::new(Shared {
        state: Mutex::new(FutState {
            result: None,
            callbacks: Vec::new(),
        }),
        cond: Condvar::new(),
    });
    (
        AppFuture {
            shared: shared.clone(),
            id,
        },
        Promise { shared },
    )
}

impl Promise {
    /// Resolve the future. Callbacks run inline on the completing thread,
    /// after the lock is released, on a copy of the result that is made
    /// only when a callback is registered.
    pub fn complete(self, result: TaskResult) {
        let (callbacks, snapshot) = {
            let mut st = self.shared.state.lock();
            if st.result.is_some() {
                return; // first completion wins
            }
            let callbacks = std::mem::take(&mut st.callbacks);
            let snapshot = (!callbacks.is_empty()).then(|| result.clone());
            st.result = Some(result);
            (callbacks, snapshot)
        };
        self.shared.cond.notify_all();
        if let Some(snapshot) = snapshot {
            for cb in callbacks {
                cb(&snapshot);
            }
        }
    }
}

impl AppFuture {
    /// The task this future tracks.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Block until the result is available and return it.
    pub fn result(&self) -> TaskResult {
        let mut st = self.shared.state.lock();
        while st.result.is_none() {
            self.shared.cond.wait(&mut st);
        }
        st.result.clone().expect("checked above")
    }

    /// Block up to `timeout`; `None` when the deadline passes first.
    pub fn result_timeout(&self, timeout: Duration) -> Option<TaskResult> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        while st.result.is_none() {
            if self.shared.cond.wait_until(&mut st, deadline).timed_out() {
                return st.result.clone();
            }
        }
        st.result.clone()
    }

    /// Peek without blocking.
    pub(crate) fn peek(&self) -> Option<TaskResult> {
        self.shared.state.lock().result.clone()
    }

    /// Register a completion callback. If the future is already complete the
    /// callback runs immediately on the calling thread.
    pub(crate) fn on_complete(&self, cb: impl FnOnce(&TaskResult) + Send + 'static) {
        let mut st = self.shared.state.lock();
        if let Some(r) = st.result.clone() {
            drop(st);
            cb(&r);
        } else {
            st.callbacks.push(Box::new(cb));
        }
    }
}

/// A future for a file an app will produce — Parsl's `DataFuture`. It
/// resolves to the [`File`] once the producing task completes.
#[derive(Clone, Debug)]
pub struct DataFuture {
    /// The file that will exist on success.
    file: File,
    /// The producing task's future.
    parent: AppFuture,
}

impl DataFuture {
    /// Track `file` as an output of the task behind `parent`.
    pub fn new(file: File, parent: AppFuture) -> Self {
        Self { file, parent }
    }

    /// The file path this future will materialize (available immediately —
    /// paths are known before execution, like Parsl's `DataFuture.filepath`).
    pub(crate) fn filepath(&self) -> &std::path::Path {
        self.file.path()
    }

    /// The producing task's future.
    pub(crate) fn parent(&self) -> &AppFuture {
        &self.parent
    }

    /// Block until the producing task completes; returns the file on
    /// success.
    pub fn result(&self) -> Result<File, TaskError> {
        self.parent.result()?;
        Ok(self.file.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A future that is already complete.
    fn ready(id: TaskId, result: TaskResult) -> AppFuture {
        let (fut, promise) = promise_pair(id);
        promise.complete(result);
        fut
    }

    #[test]
    fn complete_then_result() {
        let (fut, promise) = promise_pair(TaskId(1));
        assert!(fut.peek().is_none());
        promise.complete(Ok(Value::Int(42)));
        assert!(fut.peek().is_some());
        assert_eq!(fut.result().unwrap(), Value::Int(42));
        assert_eq!(fut.peek().unwrap().unwrap(), Value::Int(42));
    }

    #[test]
    fn result_blocks_until_complete() {
        let (fut, promise) = promise_pair(TaskId(1));
        let f2 = fut.clone();
        let t = std::thread::spawn(move || f2.result());
        std::thread::sleep(Duration::from_millis(20));
        promise.complete(Ok(Value::str("late")));
        assert_eq!(t.join().unwrap().unwrap(), Value::str("late"));
    }

    #[test]
    fn result_timeout_expires() {
        let (fut, _promise) = promise_pair(TaskId(1));
        let t = Instant::now();
        assert!(fut.result_timeout(Duration::from_millis(30)).is_none());
        assert!(t.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn callbacks_fire_on_completion() {
        let (fut, promise) = promise_pair(TaskId(1));
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let hits = hits.clone();
            fut.on_complete(move |r| {
                assert!(r.is_ok());
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        promise.complete(Ok(Value::Null));
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn callbacks_before_and_after_completion_see_the_value() {
        let (fut, promise) = promise_pair(TaskId(1));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let early = seen.clone();
        fut.on_complete(move |r| early.lock().push(r.clone().unwrap()));
        promise.complete(Ok(Value::str("v")));
        let late = seen.clone();
        fut.on_complete(move |r| late.lock().push(r.clone().unwrap()));
        assert_eq!(*seen.lock(), vec![Value::str("v"), Value::str("v")]);
    }

    #[test]
    fn callback_after_completion_runs_inline() {
        let fut = ready(TaskId(9), Err(TaskError::failed("x")));
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        fut.on_complete(move |r| {
            assert!(r.is_err());
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn double_complete_first_wins() {
        let (fut, p1) = promise_pair(TaskId(1));
        let p2 = Promise {
            shared: p1.shared.clone(),
        };
        p1.complete(Ok(Value::Int(1)));
        p2.complete(Ok(Value::Int(2)));
        assert_eq!(fut.result().unwrap(), Value::Int(1));
    }

    #[test]
    fn many_waiters_all_wake() {
        let (fut, promise) = promise_pair(TaskId(1));
        let mut threads = Vec::new();
        for _ in 0..8 {
            let f = fut.clone();
            threads.push(std::thread::spawn(move || f.result()));
        }
        std::thread::sleep(Duration::from_millis(10));
        promise.complete(Ok(Value::Int(5)));
        for t in threads {
            assert_eq!(t.join().unwrap().unwrap(), Value::Int(5));
        }
    }

    #[test]
    fn data_future_resolves_with_parent() {
        let (fut, promise) = promise_pair(TaskId(1));
        let df = DataFuture::new(File::new("/tmp/out.rimg"), fut);
        assert_eq!(df.filepath(), std::path::Path::new("/tmp/out.rimg"));
        assert!(df.parent().peek().is_none());
        promise.complete(Ok(Value::Null));
        assert_eq!(
            df.result().unwrap().path(),
            std::path::Path::new("/tmp/out.rimg")
        );
    }

    #[test]
    fn data_future_propagates_failure() {
        let fut = ready(TaskId(2), Err(TaskError::failed("producer died")));
        let df = DataFuture::new(File::new("/tmp/x"), fut);
        assert!(df.result().is_err());
    }
}
