//! Lock-cheap sharded metrics: counters, gauges, and HDR-style log-linear
//! latency histograms, looked up by name in a registry.
//!
//! Handles are `Arc`s — instrumented code fetches a handle once and then
//! updates it with plain atomics. Counters and histogram totals stripe
//! their cells by thread so concurrent writers don't share a cache line's
//! worth of contention; reads merge the stripes, which keeps totals exact
//! (each increment lands in exactly one stripe).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

const STRIPES: usize = 8;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_STRIPE: usize =
        NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as usize;
}

/// A small per-thread index used to stripe atomic cells.
pub(crate) fn thread_stripe() -> usize {
    THREAD_STRIPE.with(|s| *s)
}

/// Monotone counter, striped across threads. `value()` is exact.
#[derive(Debug)]
pub struct Counter {
    cells: [AtomicU64; STRIPES],
}

impl Counter {
    fn new() -> Self {
        Self {
            cells: [(); STRIPES].map(|_| AtomicU64::new(0)),
        }
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[thread_stripe() % STRIPES].fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Exact total across stripes.
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// A signed instantaneous value (e.g. outstanding tasks).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Add `delta` with the given ordering and return the previous value,
    /// for a gauge that is also a count its owner synchronises on (the
    /// kernel's outstanding tasks: the finisher that sees 1 wakes waiters).
    #[inline]
    pub fn fetch_add(&self, delta: i64, order: Ordering) -> i64 {
        self.value.fetch_add(delta, order)
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value. Acquire, so a reader that sees a count written by
    /// [`Gauge::fetch_add`] also sees what the writer did before it.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }
}

// HDR-style log-linear bucketing: exact buckets below `LINEAR`, then 32
// sub-buckets per power of two — ~3% relative error, fixed memory, and a
// single atomic increment per record.
const LINEAR: u64 = 64;
const GROUPS: usize = 26; // covers values up to 2^32 µs (~71 minutes)
const BUCKETS: usize = LINEAR as usize + GROUPS * 32;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        let bits = 64 - v.leading_zeros() as u64; // >= 7
        let group = ((bits - 7) as usize).min(GROUPS - 1);
        let sub = ((v >> (group as u64 + 1)) & 31) as usize;
        LINEAR as usize + group * 32 + sub
    }
}

/// Representative (lower-bound) value for a bucket.
fn bucket_floor(idx: usize) -> u64 {
    if idx < LINEAR as usize {
        idx as u64
    } else {
        let group = (idx - LINEAR as usize) / 32;
        let sub = ((idx - LINEAR as usize) % 32) as u64;
        (32 + sub) << (group as u64 + 1)
    }
}

/// Log-linear latency histogram. Counts and sums are exact; quantiles are
/// bucket-resolution (~3% relative error above 64).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: [AtomicU64; STRIPES],
    sum: [AtomicU64; STRIPES],
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: [(); STRIPES].map(|_| AtomicU64::new(0)),
            sum: [(); STRIPES].map(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        let stripe = thread_stripe() % STRIPES;
        self.count[stripe].fetch_add(1, Ordering::Relaxed);
        self.sum[stripe].fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Exact number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Value at quantile `q` in [0, 1], at bucket resolution.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let total = self.bucket_total();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_floor(idx);
            }
        }
        self.max()
    }

    /// Cumulative rank at each bucket boundary — non-decreasing, ending at
    /// the total count.
    pub fn cumulative_ranks(&self) -> Vec<u64> {
        let mut acc = 0;
        self.buckets
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }

    fn bucket_total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// Well-known metric names. Everything the workspace records is listed
/// here so dashboards, tests, and the `parsl-trace` CLI agree on spelling.
pub mod names {
    /// Gauge: tasks submitted to the DFK and not yet finished.
    pub const DFK_OUTSTANDING: &str = "parsl.dfk.tasks_outstanding";
    /// Counter: tasks submitted to the DFK.
    pub const DFK_SUBMITTED: &str = "parsl.dfk.tasks_submitted";
    /// Counter: tasks that ended in success (memo hits included).
    pub const DFK_COMPLETED: &str = "parsl.dfk.tasks_completed";
    /// Counter: tasks that ended in failure, retries exhausted.
    pub const DFK_FAILED: &str = "parsl.dfk.tasks_failed";
    /// Counter: attempts stopped by their walltime.
    pub const DFK_TIMED_OUT: &str = "parsl.dfk.tasks_timed_out";
    /// Counter: retry attempts scheduled.
    pub const DFK_RETRIES: &str = "parsl.dfk.retries";
    /// Counter: memoization table hits.
    pub const MEMO_HITS: &str = "parsl.dfk.memo_hits";
    /// Counter: memoization table misses.
    pub const MEMO_MISSES: &str = "parsl.dfk.memo_misses";
    /// Counter: compiled-expression cache hits.
    pub const EXPR_CACHE_HITS: &str = "expr.cache.hits";
    /// Counter: compiled-expression cache misses (compilations).
    pub const EXPR_CACHE_MISSES: &str = "expr.cache.misses";
    /// Histogram: tasks per interchange message (batch occupancy).
    pub const HTEX_BATCH_OCCUPANCY: &str = "parsl.htex.batch_occupancy";
    /// Counter: managers declared dead by the heartbeat monitor.
    pub const HTEX_HEARTBEAT_MISSES: &str = "parsl.htex.heartbeat_misses";
    /// Counter: nodes whose loss the executor has handled.
    pub const HTEX_NODES_LOST: &str = "parsl.htex.nodes_lost";
    /// Counter: tasks re-queued after their node died.
    pub const HTEX_REDISPATCHES: &str = "parsl.htex.tasks_redispatched";
    /// Counter: replacement nodes provisioned after a node loss.
    pub const HTEX_BLOCKS_REPLACED: &str = "parsl.htex.blocks_replaced";
    /// Counter: provider blocks added after start (scaling + replacement).
    pub const HTEX_BLOCKS_ADDED: &str = "parsl.htex.blocks_added";
    /// Counter: provider provision calls.
    pub const PROVIDER_PROVISIONS: &str = "parsl.provider.provisions";
    /// Histogram: provider provision latency, µs.
    pub const PROVIDER_PROVISION_US: &str = "parsl.provider.provision_us";
    /// Counter: tool executions through `cwlexec` dispatch.
    pub const DISPATCH_EXECS: &str = "cwlexec.dispatch.execs";
    /// Histogram: tool execution latency through `cwlexec` dispatch, µs.
    pub const DISPATCH_EXEC_US: &str = "cwlexec.dispatch.exec_us";
    /// Histogram: task body execution latency on workers, µs.
    pub const TASK_EXEC_US: &str = "parsl.task.exec_us";
    /// Counter: task completions appended to the checkpoint journal.
    pub const CKPT_APPEND: &str = "ckpt.append";
    /// Counter: tasks satisfied from a resumed journal (not re-executed).
    pub const CKPT_REPLAYED: &str = "ckpt.replayed";
    /// Counter: journal records rejected on resume (stale workflow hash,
    /// deleted output files, unparseable results).
    pub const CKPT_INVALIDATED: &str = "ckpt.invalidated";
    /// Counter: staging requests served from the digest index (no bytes
    /// read or written — the content was already hashed or in place).
    pub const STAGE_HITS: &str = "stage.hits";
    /// Counter: files materialized by hardlink or reflink (zero-copy).
    pub const STAGE_LINKS: &str = "stage.links";
    /// Counter: files materialized by byte copy (ladder fallback, or
    /// `staging.mode: copy`).
    pub const STAGE_COPIES: &str = "stage.copies";
    /// Counter: bytes a copying stager would have written that the link
    /// ladder avoided.
    pub const STAGE_BYTES_SAVED: &str = "stage.bytes_saved";
    /// Counter: submissions accepted into the service queue.
    pub const SERVE_QUEUED: &str = "serve.queued";
    /// Counter: queued runs promoted to active execution.
    pub const SERVE_ADMITTED: &str = "serve.admitted";
    /// Counter: submissions rejected at the door (infeasible or over
    /// the backpressure limit).
    pub const SERVE_REJECTED: &str = "serve.rejected";
    /// Gauge: runs currently executing in the daemon.
    pub const SERVE_ACTIVE: &str = "serve.active";
    /// Histogram: time a ready task waited in the fair-share queue, µs.
    pub const SERVE_QUEUE_WAIT_US: &str = "serve.queue_wait_us";
}

/// A point-in-time reading of one metric, for export and reporting.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram summary.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Median (bucket resolution).
        p50: u64,
        /// 99th percentile (bucket resolution).
        p99: u64,
        /// Exact maximum.
        max: u64,
    },
}

/// `(name, value)` snapshot entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registry name (see [`names`]).
    pub(crate) name: String,
    /// Reading.
    pub(crate) value: MetricValue,
}

/// Name → metric registry. Lookup takes a short-held mutex; instrumented
/// code should hold on to the returned handles.
pub struct Registry {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            counters: Mutex::new(HashMap::new()),
            gauges: Mutex::new(HashMap::new()),
            histograms: Mutex::new(HashMap::new()),
        }
    }

    /// Get or create the counter `name`.
    pub(crate) fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.counters.lock();
        match m.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Counter::new());
                m.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// Get or create the gauge `name`.
    pub(crate) fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.gauges.lock();
        match m.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Arc::new(Gauge::new());
                m.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// Get or create the histogram `name`.
    pub(crate) fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.histograms.lock();
        match m.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::new());
                m.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Snapshot every metric, sorted by name.
    pub(crate) fn snapshot(&self) -> Vec<MetricSnapshot> {
        let mut out = Vec::new();
        for (name, c) in self.counters.lock().iter() {
            out.push(MetricSnapshot {
                name: name.clone(),
                value: MetricValue::Counter(c.value()),
            });
        }
        for (name, g) in self.gauges.lock().iter() {
            out.push(MetricSnapshot {
                name: name.clone(),
                value: MetricValue::Gauge(g.value()),
            });
        }
        for (name, h) in self.histograms.lock().iter() {
            out.push(MetricSnapshot {
                name: name.clone(),
                value: MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    p50: h.value_at_quantile(0.5),
                    p99: h.value_at_quantile(0.99),
                    max: h.max(),
                },
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Gauge {
        /// Add `delta` (may be negative).
        fn add(&self, delta: i64) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    #[test]
    fn counter_totals_are_exact() {
        let c = Counter::new();
        c.add(3);
        c.incr();
        assert_eq!(c.value(), 4);
    }

    #[test]
    fn gauge_tracks_deltas_and_sets() {
        let g = Gauge::new();
        g.add(5);
        g.add(-2);
        assert_eq!(g.value(), 3);
        g.set(-7);
        assert_eq!(g.value(), -7);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0;
        for v in (0..1 << 20).step_by(97) {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS);
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
        }
        // Saturates instead of overflowing for huge values.
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_floor_is_consistent_with_index() {
        for v in [0, 1, 63, 64, 65, 1000, 123_456, 9_999_999] {
            let idx = bucket_index(v);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            // The floor maps back to the same bucket.
            assert_eq!(bucket_index(floor), idx, "value {v}");
        }
    }

    #[test]
    fn histogram_quantiles_have_bucket_resolution() {
        let h = Histogram::new();
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        let p50 = h.value_at_quantile(0.5);
        assert!((450..=550).contains(&p50), "p50 {p50}");
        let p99 = h.value_at_quantile(0.99);
        assert!((930..=1000).contains(&p99), "p99 {p99}");
        assert!(h.value_at_quantile(0.0) >= 1);
        assert_eq!(h.value_at_quantile(1.0), bucket_floor(bucket_index(1000)));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.value_at_quantile(0.5), 0);
    }

    #[test]
    fn registry_returns_same_handle_for_same_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.incr();
        assert_eq!(b.value(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        r.gauge("g").set(4);
        r.histogram("h").record(10);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["g", "h", "x"]);
    }
}
