//! `obs` — workspace-wide observability.
//!
//! One [`Observability`] instance owns everything a run records:
//!
//! * **spans** ([`span`]) — typed intervals with parent/child links and
//!   monotonic timestamps covering submit → memo lookup → dispatch →
//!   batch enqueue → manager recv → worker exec → result return;
//! * **metrics** ([`metrics`]) — a sharded registry of counters, gauges,
//!   and HDR-style latency histograms under well-known names
//!   ([`metrics::names`]). Task and node events (submitted, completed,
//!   retried, node lost, …) are counters too, counted with
//!   [`Observability::count`] whether or not recording is on, and
//!   [`Observability::wait_for`] blocks until a condition over them holds;
//! * **lineage** ([`lineage`]) — one record per Parsl task joining the
//!   task id to the CWL step id it implements, with
//!   submit ≤ dispatch ≤ complete timestamps and attempt counts.
//!
//! Spans and lineage are **zero-cost when disabled**: each record path
//! starts with one test of a flag fixed at construction and bails before
//! allocating or locking. Counters always count: an increment through a
//! held handle allocates and locks nothing. Every run has exactly one
//! instance — the `DataFlowKernel`'s, or a baseline runner's — and every
//! layer records into the handle of its own run: tool dispatch through its
//! staging context, HTEX around its provider calls, and the end-of-run
//! publish of the data plane's and the expression cache's counters. There
//! is no process-wide instance, so one run's trace carries no other run's
//! numbers, except `expr.cache.hits`/`misses`: the expression cache is
//! process-wide, so those two are the process's totals at publish time.
//!
//! Traces export as JSONL (read back by the `parsl-trace` CLI) and Chrome
//! `trace_event` JSON ([`export`]).

#![warn(unreachable_pub)]

pub(crate) mod clock;
pub(crate) mod config;
pub(crate) mod export;
pub mod json;
pub(crate) mod lineage;
pub(crate) mod metrics;
pub mod report;
pub(crate) mod span;

pub(crate) use clock::RunClock;
pub use config::ObsConfig;
pub(crate) use lineage::LineageRecord;
pub use metrics::{names, Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry};
pub use span::{ActiveSpan, SpanCtx, SpanKind, SpanRecord};

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One run's worth of telemetry: clock, tracer, metrics, and lineage.
pub struct Observability {
    enabled: bool,
    sample_per_mille: u32,
    config: ObsConfig,
    clock: RunClock,
    tracer: span::Tracer,
    registry: Registry,
    lineage: lineage::LineageTable,
    next_span: AtomicU64,
    /// Notified by [`Observability::count`] while a thread waits in
    /// [`Observability::wait_for`]; the mutex only orders that handshake.
    counted: Condvar,
    wake: Mutex<()>,
    /// Threads currently blocked in [`Observability::wait_for`]. `count`
    /// skips the lock and the notify when this is zero — with the
    /// std-backed condvar a notify is a syscall even with no waiters,
    /// which would be most of an event's cost on the dispatch hot path.
    waiters: AtomicUsize,
}

impl Observability {
    /// Build from a config (the clock anchors at this call).
    pub fn new(config: ObsConfig) -> Self {
        Self {
            enabled: config.enabled,
            sample_per_mille: config.sample_per_mille(),
            config,
            clock: RunClock::new(),
            tracer: span::Tracer::new(),
            registry: Registry::new(),
            lineage: lineage::LineageTable::new(),
            next_span: AtomicU64::new(1),
            counted: Condvar::new(),
            wake: Mutex::new(()),
            waiters: AtomicUsize::new(0),
        }
    }

    /// A disabled instance (every record path is a cheap no-op).
    pub fn off() -> Self {
        Self::new(ObsConfig::default())
    }

    /// An enabled instance with full sampling and no export.
    pub fn on() -> Self {
        Self::new(ObsConfig::on())
    }

    /// Whether recording is on. This is the single branch every record
    /// path takes first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current run offset in µs.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Whether spans for `lineage` are sampled this run.
    #[inline]
    pub(crate) fn sampled(&self, lineage: u64) -> bool {
        if !self.is_enabled() {
            return false;
        }
        if self.sample_per_mille >= 1000 {
            return true;
        }
        // splitmix64 finalizer: decorrelates sequential task ids.
        let mut h = lineage.wrapping_add(0x9e3779b97f4a7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
        h ^= h >> 31;
        (h % 1000) < self.sample_per_mille as u64
    }

    // ---- spans ---------------------------------------------------------

    /// Open a span. Returns an inert handle when the lineage isn't
    /// sampled; the handle's `id()` is valid as a parent immediately.
    pub fn start_span(&self, kind: SpanKind, lineage: u64, parent: u64, name: &str) -> ActiveSpan {
        if !self.sampled(lineage) {
            return ActiveSpan::none();
        }
        ActiveSpan {
            id: self.next_span.fetch_add(1, Ordering::Relaxed),
            parent,
            lineage,
            kind,
            name: Some(name.to_string()),
            start_us: self.now_us(),
        }
    }

    /// Close a span and record it.
    pub fn finish_span(&self, span: ActiveSpan) {
        if span.id == 0 {
            return;
        }
        let end_us = self.now_us();
        self.tracer.push(SpanRecord {
            id: span.id,
            parent: span.parent,
            lineage: span.lineage,
            kind: span.kind,
            name: span.name.unwrap_or_default(),
            start_us: span.start_us,
            end_us,
        });
    }

    /// Record a zero-duration marker span; returns its id (0 if not
    /// sampled).
    pub fn instant_span(&self, kind: SpanKind, lineage: u64, parent: u64, name: &str) -> u64 {
        if !self.sampled(lineage) {
            return 0;
        }
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let at = self.now_us();
        self.tracer.push(SpanRecord {
            id,
            parent,
            lineage,
            kind,
            name: name.to_string(),
            start_us: at,
            end_us: at,
        });
        id
    }

    /// All recorded spans, in allocation order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.tracer.snapshot()
    }

    // ---- metrics -------------------------------------------------------

    /// Shorthand: get-or-create a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// Shorthand: get-or-create a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// Shorthand: get-or-create a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    /// Snapshot all metrics, sorted by name.
    pub(crate) fn metrics(&self) -> Vec<MetricSnapshot> {
        self.registry.snapshot()
    }

    // ---- events --------------------------------------------------------

    /// Count one event on `counter` (a handle from this registry) and wake
    /// every [`Observability::wait_for`] caller. Counts whether or not
    /// recording is on: one striped add, one fence and one load when
    /// nobody waits.
    #[inline]
    pub fn count(&self, counter: &Counter) {
        counter.incr();
        // Pairs with the fence in `wait_for`: either that waiter's
        // predicate sees this increment, or this load sees the waiter.
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            // Taking the lock waits out a waiter between its predicate and
            // its sleep, so the notify cannot fall in that gap.
            let _wake = self.wake.lock();
            self.counted.notify_all();
        }
    }

    /// Block until `pred` holds, re-checking it after every counted event,
    /// and give up after `timeout` (real time). Returns the last value of
    /// `pred`. This is what tests and shutdown paths use instead of
    /// sleep-polling: no fixed sleeps, no lost wake-ups, and a hard bound
    /// on how long a failing run can hang.
    pub fn wait_for(&self, timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut wake = self.wake.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let result = loop {
            if pred() {
                break true;
            }
            if self.counted.wait_until(&mut wake, deadline).timed_out() {
                break pred();
            }
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        result
    }

    // ---- lineage -------------------------------------------------------

    /// Record a task submission (first call per task wins).
    pub fn lineage_submit(&self, task: u64, label: &str) {
        if !self.is_enabled() {
            return;
        }
        let at = self.now_us();
        self.lineage.submit(task, label, at);
    }

    /// Record a dispatch attempt: bumps the attempt count and stamps the
    /// first dispatch time.
    pub fn lineage_dispatch(&self, task: u64) {
        if !self.is_enabled() {
            return;
        }
        let at = self.now_us();
        self.lineage.with(task, |r| {
            r.attempts += 1;
            if r.dispatch_us == 0 {
                r.dispatch_us = at;
            }
        });
    }

    /// Bind the CWL step id a task implements (the `core`/`runners`
    /// bridge join point).
    pub fn lineage_bind_step(&self, task: u64, step: &str) {
        if !self.is_enabled() {
            return;
        }
        self.lineage
            .with(task, |r| r.cwl_step = Some(step.to_string()));
    }

    /// Bind the service run a task belongs to (`tenant/run-id`), so a
    /// multi-run daemon's trace joins every task to the right submission.
    pub fn lineage_bind_run(&self, task: u64, run: &str) {
        if !self.is_enabled() {
            return;
        }
        self.lineage.with(task, |r| r.run = Some(run.to_string()));
    }

    /// Record a task reaching a terminal state.
    pub fn lineage_complete(&self, task: u64, outcome: &str) {
        if !self.is_enabled() {
            return;
        }
        let at = self.now_us();
        self.lineage.with(task, |r| {
            if r.complete_us == 0 {
                r.complete_us = at;
                r.outcome = Some(outcome.to_string());
            }
        });
    }

    /// All lineage records, in task order.
    pub fn lineage_records(&self) -> Vec<LineageRecord> {
        self.lineage.snapshot()
    }

    // ---- export --------------------------------------------------------

    /// Export per the configured sinks. No-op when disabled or when no
    /// export path is configured. Returns the JSONL path written, if any.
    pub fn export(&self) -> std::io::Result<Option<std::path::PathBuf>> {
        if !self.is_enabled() {
            return Ok(None);
        }
        let Some(path) = self.config.export_path.clone() else {
            return Ok(None);
        };
        let spans = self.spans();
        if self.config.sink_jsonl {
            export::write_jsonl(&path, &spans, &self.lineage_records(), &self.metrics())?;
        }
        if self.config.sink_chrome {
            let mut chrome = path.clone().into_os_string();
            chrome.push(".chrome.json");
            export::write_chrome(std::path::Path::new(&chrome), &spans)?;
        }
        Ok(self.config.sink_jsonl.then_some(path))
    }
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("enabled", &self.is_enabled())
            .field("sample_per_mille", &self.sample_per_mille)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let obs = Observability::off();
        let s = obs.start_span(SpanKind::Submit, 1, 0, "x");
        assert_eq!(s.id(), 0);
        obs.finish_span(s);
        assert_eq!(obs.instant_span(SpanKind::Retry, 1, 0, "x"), 0);
        obs.lineage_submit(1, "x");
        obs.lineage_complete(1, "completed");
        assert!(obs.spans().is_empty());
        assert!(obs.lineage_records().is_empty());
        // Metrics registry still works (handles are cheap either way).
        obs.counter("c").incr();
        assert_eq!(obs.counter("c").value(), 1);
    }

    #[test]
    fn spans_link_parent_and_lineage() {
        let obs = Observability::on();
        let root = obs.start_span(SpanKind::Submit, 7, 0, "task");
        let child = obs.start_span(SpanKind::Dispatch, 7, root.id(), "task");
        obs.finish_span(child);
        obs.finish_span(root);
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Submit);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.lineage == 7));
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
    }

    #[test]
    fn lineage_orders_submit_dispatch_complete() {
        let obs = Observability::on();
        obs.lineage_submit(3, "t");
        obs.lineage_dispatch(3);
        obs.lineage_dispatch(3); // retry: attempts bump, first stamp kept
        obs.lineage_bind_step(3, "resize");
        obs.lineage_complete(3, "completed");
        obs.lineage_complete(3, "failed"); // terminal state is sticky
        let recs = obs.lineage_records();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.attempts, 2);
        assert_eq!(r.cwl_step.as_deref(), Some("resize"));
        assert_eq!(r.outcome.as_deref(), Some("completed"));
        assert!(r.submit_us <= r.dispatch_us && r.dispatch_us <= r.complete_us);
    }

    #[test]
    fn sampling_is_deterministic_per_lineage() {
        let mut cfg = ObsConfig::on();
        cfg.sample_rate = 0.5;
        let obs = Observability::new(cfg);
        let picked: Vec<bool> = (0..100).map(|i| obs.sampled(i)).collect();
        let picked2: Vec<bool> = (0..100).map(|i| obs.sampled(i)).collect();
        assert_eq!(picked, picked2);
        let n = picked.iter().filter(|&&b| b).count();
        assert!((20..=80).contains(&n), "wildly off 50%: {n}");
    }

    #[test]
    fn export_round_trips_through_report() {
        let dir = std::env::temp_dir().join(format!("obs-export-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let mut cfg = ObsConfig::exporting(&path);
        cfg.sink_chrome = true;
        let obs = Observability::new(cfg);
        obs.lineage_submit(1, "a");
        let root = obs.start_span(SpanKind::Submit, 1, 0, "a");
        obs.finish_span(root);
        obs.lineage_dispatch(1);
        obs.lineage_complete(1, "completed");
        obs.counter(names::DFK_SUBMITTED).incr();
        obs.histogram(names::TASK_EXEC_US).record(42);
        let written = obs.export().unwrap();
        assert_eq!(written.as_deref(), Some(path.as_path()));

        let trace = report::load_trace(&path).unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.lineage.len(), 1);
        assert!(trace
            .metrics
            .iter()
            .any(|m| m.name == names::DFK_SUBMITTED && m.value == 1));
        assert!(std::fs::metadata(dir.join("trace.jsonl.chrome.json")).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
