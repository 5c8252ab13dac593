//! Heap allocations per task on the kernel's submit → complete path.
//!
//! A counting global allocator sees every allocation in this binary, so the
//! file holds a single test: nothing else runs while a window is counted.
//! Run with `--nocapture` to see the measured figures, including the live
//! heap bytes each task holds while it waits in the executor's queue.

use parsl::{AppBody, Config, DataFlowKernel, FnApp, HtexConfig, LocalProvider};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use yamlite::Value;

/// Tasks per counted window.
const TASKS: usize = 2_000;
/// The bound: an attempt is one object, so a no-op task costs its future,
/// its task record, its label, its resolved inputs and its attempt, plus
/// what the executor's queues amortize.
const MAX_ALLOCS_PER_TASK: f64 = 6.0;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn noop() -> AppBody {
    FnApp::new(|_: &[Value]| Ok(Value::Null))
}

/// Allocations per task across `TASKS` no-op submits and the `wait_all`
/// that drains them, after one uncounted round has grown the queues.
fn allocs_per_task(dfk: &Arc<DataFlowKernel>) -> f64 {
    let body = noop();
    let round = || {
        for _ in 0..TASKS {
            dfk.submit("noop", vec![], body.clone());
        }
        dfk.wait_all();
    };
    round();
    let before = ALLOCS.load(Ordering::SeqCst);
    round();
    (ALLOCS.load(Ordering::SeqCst) - before) as f64 / TASKS as f64
}

/// Live heap bytes per task while `TASKS` no-ops wait behind the kernel's
/// two workers, each held inside a blocking task.
fn live_bytes_per_queued_task(dfk: &Arc<DataFlowKernel>) -> f64 {
    let gate = Arc::new(Mutex::new(()));
    let held = gate.lock().expect("the gate is never poisoned");
    let (started_tx, started) = mpsc::channel();
    let blocker = {
        let gate = gate.clone();
        FnApp::new(move |_: &[Value]| {
            started_tx
                .send(())
                .expect("the test waits for both blockers");
            drop(gate.lock().expect("the gate is never poisoned"));
            Ok(Value::Null)
        })
    };
    for _ in 0..2 {
        dfk.submit("blocker", vec![], blocker.clone());
    }
    for _ in 0..2 {
        started
            .recv_timeout(Duration::from_secs(60))
            .expect("both workers pick up a blocking task");
    }
    let body = noop();
    let before = LIVE.load(Ordering::SeqCst);
    for _ in 0..TASKS {
        dfk.submit("noop", vec![], body.clone());
    }
    let queued = LIVE.load(Ordering::SeqCst) - before;
    drop(held);
    dfk.wait_all();
    queued as f64 / TASKS as f64
}

#[test]
fn a_task_costs_at_most_six_allocations() {
    let htex = Config::htex(
        HtexConfig {
            label: "allocs".to_string(),
            nodes: 2,
            workers_per_node: 1,
            ..HtexConfig::default()
        },
        Arc::new(LocalProvider::new(1)),
    );
    let kernels = [
        ("thread pool (2 workers)", Config::local_threads(2)),
        ("htex (2 nodes x 1 worker)", htex),
    ];
    for (name, config) in kernels {
        let dfk = DataFlowKernel::new(config);
        let allocs = allocs_per_task(&dfk);
        let live = live_bytes_per_queued_task(&dfk);
        dfk.shutdown();
        println!("{name}: {allocs:.2} allocations per task, {live:.0} live bytes per queued task");
        assert!(
            allocs <= MAX_ALLOCS_PER_TASK,
            "{name}: {allocs:.2} allocations per task (bound {MAX_ALLOCS_PER_TASK})"
        );
    }
}
