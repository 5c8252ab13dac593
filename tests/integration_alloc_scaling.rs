//! The cost of one scatter instance must not depend on the size of the
//! inputs it merely carries. Both Fig. 2 fixtures hand every task the whole
//! word list (`all_words`) next to the one word it capitalizes; a deep copy
//! of that list anywhere between the compiler and the tool body costs one
//! allocation per carried word per task, so allocations per task would grow
//! with the scatter width. Counted with a counting global allocator:
//! deterministic and timing-free.
//!
//! Copies made once per *run* (the workflow-level input, the gathered
//! output) are one allocation per word per run, i.e. a constant per task,
//! and do not trip this.

use cwl_parsl::{CwlAppOptions, ParslWorkflowRunner};
use cwlexec::BuiltinDispatch;
use parsl::{Config, DataFlowKernel};
use runners::{ExecProfile, RefRunner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use yamlite::{Map, Value};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide, so the two tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const NARROW: usize = 64;
const WIDE: usize = 512;
/// Per-task slack for what legitimately grows with the width: the
/// logarithmically many regrowths of per-run vectors, amortized.
const SLACK: f64 = 8.0;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("alloc-scaling-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn word_inputs(n: usize) -> Map {
    let words: Vec<Value> = (0..n).map(|i| Value::str(format!("item{i:04}"))).collect();
    let mut m = Map::new();
    m.insert("words", Value::Seq(words));
    m
}

/// A run of one of the word-scatter fixtures: inputs and a fresh working
/// directory in, the workflow's output object out.
type Run<'a> = &'a dyn Fn(&Map, &Path) -> Map;

/// Allocations per task of a `width`-word run; checks the run produced one
/// capitalized file per word.
fn allocations_per_task(width: usize, base: &Path, run: Run) -> f64 {
    let inputs = word_inputs(width);
    let workdir = base.join(format!("w{width}"));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outputs = run(&inputs, &workdir);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let files = outputs.get("capitalized").unwrap().as_seq().unwrap();
    assert_eq!(files.len(), width);
    let last = std::fs::read_to_string(files[width - 1]["path"].as_str().unwrap()).unwrap();
    assert_eq!(last, format!("Item{:04}\n", width - 1));
    spent as f64 / width as f64
}

fn assert_width_independent(runner: &str, run: Run) {
    let base = scratch(runner);
    // Warm the process-wide caches (compiled expressions, digest index).
    allocations_per_task(8, &base, run);
    let narrow = allocations_per_task(NARROW, &base, run);
    let wide = allocations_per_task(WIDE, &base, run);
    let _ = std::fs::remove_dir_all(&base);
    eprintln!("{runner}: {narrow:.1} allocations per task at {NARROW} words, {wide:.1} at {WIDE}");
    assert!(
        wide <= narrow + SLACK,
        "{runner}: {wide:.1} allocations per task at {WIDE} words against {narrow:.1} at \
         {NARROW}: some layer copies the carried word list once per task"
    );
}

#[test]
fn parsl_thread_pool_task_cost_is_independent_of_carried_input_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_width_independent("parsl-thread-pool", &|inputs, workdir| {
        let dfk = DataFlowKernel::new(Config::local_threads(2));
        let outputs =
            ParslWorkflowRunner::new(&dfk, CwlAppOptions::in_dir(workdir).with_builtin_tools())
                .run(fixtures().join("scatter_words_py.cwl"), inputs)
                .unwrap();
        dfk.shutdown();
        outputs
    });
}

/// The reference runner with its modelled costs off: the cwltool-like
/// profile *models* marshalling the whole input object to a `node` process
/// per expression by serializing it, which is meant to grow with the
/// object; what must not grow is the runner's own handling of the values.
#[test]
fn ref_runner_task_cost_is_independent_of_carried_input_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_width_independent("ref-runner", &|inputs, workdir| {
        RefRunner::with_profile(ExecProfile::bare(2), Arc::new(BuiltinDispatch))
            .run(fixtures().join("scatter_words_js.cwl"), inputs, workdir)
            .unwrap()
            .outputs
    });
}
