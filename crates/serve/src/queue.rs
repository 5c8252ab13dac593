//! Weighted fair-share dispatch across concurrent runs.
//!
//! The daemon's kernel is one shared pool of executor slots; without a
//! scheduler in front, whichever run submits first floods the pool and
//! every later run head-of-line blocks behind it. [`FairShare`] implements
//! [`parsl::DispatchGate`] with *deficit round-robin* over tenants: each
//! tenant accumulates credit proportional to its configured weight every
//! scheduling round and spends one credit per dispatched task, so over any
//! window the slot share converges to the weight ratio — a tenant with
//! weight 3 gets three tasks dispatched for every one of a weight-1
//! tenant, regardless of submission order or run size.
//!
//! The gate only *orders* ready tasks; dependency resolution, memoization,
//! and retries stay in the kernel. Aborted (cancelled-run) tasks never
//! occupy a slot.

use parking_lot::Mutex;
use parsl::{DispatchGate, GatedLaunch, RunTag};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Deficit round-robin over per-tenant FIFO queues. Generic over the
/// queued item so the arithmetic is unit-testable without a live kernel.
struct Drr<T> {
    queues: HashMap<Arc<str>, VecDeque<T>>,
    /// Round-robin ring of tenants with queued work, in arrival order.
    ring: Vec<Arc<str>>,
    deficits: HashMap<Arc<str>, f64>,
    weights: HashMap<String, f64>,
    default_weight: f64,
    cursor: usize,
    /// Whether the tenant at `cursor` already received this visit's
    /// quantum. Credit arrives once per visit; without the flag a
    /// weight-1 tenant would re-credit after every dispatch and
    /// monopolize the cursor.
    credited: bool,
}

impl<T> Drr<T> {
    fn new(weights: Vec<(String, f64)>, default_weight: f64) -> Self {
        Self {
            queues: HashMap::new(),
            ring: Vec::new(),
            deficits: HashMap::new(),
            weights: weights.into_iter().collect(),
            default_weight,
            cursor: 0,
            credited: false,
        }
    }

    fn weight(&self, tenant: &str) -> f64 {
        let w = self
            .weights
            .get(tenant)
            .copied()
            .unwrap_or(self.default_weight);
        if w.is_finite() && w > 0.0 {
            w
        } else {
            1.0
        }
    }

    fn push(&mut self, tenant: Arc<str>, item: T) {
        if (!self.queues.contains_key(&tenant) || self.queues[&tenant].is_empty())
            && !self.ring.contains(&tenant)
        {
            self.ring.push(tenant.clone());
        }
        self.queues.entry(tenant).or_default().push_back(item);
    }

    /// Pop the next item under DRR. A visit credits the tenant its weight
    /// exactly once; a dispatch costs 1, and the cursor stays on a tenant
    /// only while paid-for credit remains — so a weight-2 tenant sends
    /// two tasks per round to a weight-1 tenant's one, and a weight-¼
    /// tenant sends one every fourth round (never starved, never more).
    fn next(&mut self) -> Option<T> {
        loop {
            if self.ring.is_empty() {
                return None;
            }
            if self.cursor >= self.ring.len() {
                self.cursor = 0;
            }
            let tenant = self.ring[self.cursor].clone();
            let queue_empty = self.queues.get(&tenant).is_none_or(VecDeque::is_empty);
            if queue_empty {
                // Tenant drained: leave the ring and forfeit banked
                // credit (an idle tenant must not burst later).
                self.ring.remove(self.cursor);
                self.deficits.remove(&tenant);
                self.credited = false;
                continue;
            }
            let weight = self.weight(&tenant);
            let deficit = self.deficits.entry(tenant.clone()).or_insert(0.0);
            if !self.credited {
                *deficit += weight;
                self.credited = true;
            }
            if *deficit >= 1.0 {
                *deficit -= 1.0;
                if *deficit < 1.0 {
                    // Credit spent: the next call moves on.
                    self.cursor += 1;
                    self.credited = false;
                }
                let item = self
                    .queues
                    .get_mut(&tenant)
                    .and_then(VecDeque::pop_front)
                    .expect("non-empty checked above");
                return Some(item);
            }
            self.cursor += 1;
            self.credited = false;
        }
    }
}

struct Waiting {
    launch: GatedLaunch,
    since: Instant,
}

struct Inner {
    drr: Drr<Waiting>,
    in_flight: usize,
    cancelled: HashSet<u64>,
}

/// The daemon's [`DispatchGate`]: admission-passed tasks wait here until a
/// slot frees and DRR picks their tenant.
pub(crate) struct FairShare {
    inner: Mutex<Inner>,
    max_parallel: usize,
    /// Queue-wait histogram (µs), bound after the kernel exists.
    queue_wait: Mutex<Option<Arc<obs::Histogram>>>,
}

impl FairShare {
    /// `max_parallel` should match the executor's slot count: lower wastes
    /// capacity, higher just moves queueing into the executor.
    pub(crate) fn new(
        max_parallel: usize,
        weights: Vec<(String, f64)>,
        default_weight: f64,
    ) -> Self {
        Self {
            inner: Mutex::new(Inner {
                drr: Drr::new(weights, default_weight),
                in_flight: 0,
                cancelled: HashSet::new(),
            }),
            max_parallel: max_parallel.max(1),
            queue_wait: Mutex::new(None),
        }
    }

    /// Record queue-wait latencies to `h` (the daemon binds
    /// `serve.queue_wait_us` from the kernel's observability).
    pub(crate) fn bind_queue_wait(&self, h: Arc<obs::Histogram>) {
        *self.queue_wait.lock() = Some(h);
    }

    /// Cancel `run`: queued tasks abort now, later-arriving ones abort at
    /// the gate. In-flight tasks run to completion (the kernel has no
    /// preemption); their dependents then abort here. Returns how many
    /// queued tasks were aborted.
    pub(crate) fn cancel_run(&self, run: u64) -> usize {
        let mut doomed = Vec::new();
        {
            let mut g = self.inner.lock();
            g.cancelled.insert(run);
            for q in g.drr.queues.values_mut() {
                let mut keep = VecDeque::with_capacity(q.len());
                while let Some(w) = q.pop_front() {
                    if w.launch.tag().run == run {
                        doomed.push(w);
                    } else {
                        keep.push_back(w);
                    }
                }
                *q = keep;
            }
        }
        let n = doomed.len();
        for w in doomed {
            w.launch.abort("run cancelled");
        }
        self.pump();
        n
    }

    /// Drop a finished run from the cancelled set (ids are never reused,
    /// but the set should not grow for the daemon's lifetime).
    pub(crate) fn forget_run(&self, run: u64) {
        self.inner.lock().cancelled.remove(&run);
    }

    /// Dispatch while slots are free. Launches happen outside the lock:
    /// `launch()` can synchronously reach `finished()` (memo-fast tasks),
    /// which takes the lock again.
    fn pump(&self) {
        loop {
            let mut batch = Vec::new();
            {
                let mut g = self.inner.lock();
                while g.in_flight < self.max_parallel {
                    match g.drr.next() {
                        Some(w) => {
                            g.in_flight += 1;
                            batch.push(w);
                        }
                        None => break,
                    }
                }
            }
            if batch.is_empty() {
                return;
            }
            let hist = self.queue_wait.lock().clone();
            for w in batch {
                if let Some(h) = &hist {
                    h.record(w.since.elapsed().as_micros() as u64);
                }
                w.launch.launch();
            }
        }
    }
}

impl DispatchGate for FairShare {
    fn ready(&self, launch: GatedLaunch) {
        let doomed = {
            let mut g = self.inner.lock();
            if g.cancelled.contains(&launch.tag().run) {
                Some(launch)
            } else {
                let tenant = launch.tag().tenant.clone();
                g.drr.push(
                    tenant,
                    Waiting {
                        launch,
                        since: Instant::now(),
                    },
                );
                None
            }
        };
        match doomed {
            Some(l) => l.abort("run cancelled"),
            None => self.pump(),
        }
    }

    fn finished(&self, _tag: &RunTag) {
        self.inner.lock().in_flight -= 1;
        self.pump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drr(weights: &[(&str, f64)]) -> Drr<&'static str> {
        Drr::new(
            weights.iter().map(|(n, w)| (n.to_string(), *w)).collect(),
            1.0,
        )
    }

    #[test]
    fn drr_respects_weight_ratios() {
        let mut q = drr(&[("a", 2.0), ("b", 1.0)]);
        let a: Arc<str> = Arc::from("a");
        let b: Arc<str> = Arc::from("b");
        for _ in 0..30 {
            q.push(a.clone(), "a");
            q.push(b.clone(), "b");
        }
        let first: Vec<_> = (0..30).map(|_| q.next().unwrap()).collect();
        let a_count = first.iter().filter(|s| **s == "a").count();
        // Weight 2:1 → two thirds of any window goes to `a`, ±1 for
        // round boundaries.
        assert!((19..=21).contains(&a_count), "a got {a_count}/30");
        // Everything still drains.
        let mut rest = 0;
        while q.next().is_some() {
            rest += 1;
        }
        assert_eq!(rest, 30);
        assert!(q.next().is_none());
    }

    #[test]
    fn drr_fractional_weights_starve_nobody() {
        let mut q = drr(&[("slow", 0.25), ("fast", 1.0)]);
        let slow: Arc<str> = Arc::from("slow");
        let fast: Arc<str> = Arc::from("fast");
        for _ in 0..20 {
            q.push(slow.clone(), "slow");
            q.push(fast.clone(), "fast");
        }
        let window: Vec<_> = (0..10).map(|_| q.next().unwrap()).collect();
        assert!(
            window.contains(&"slow"),
            "fractional weight starved: {window:?}"
        );
        let slow_count = window.iter().filter(|s| **s == "slow").count();
        assert!(slow_count <= 3, "slow overserved: {window:?}");
    }

    #[test]
    fn drr_sole_tenant_gets_everything() {
        let mut q = drr(&[]);
        let t: Arc<str> = Arc::from("only");
        for i in 0..5 {
            q.push(t.clone(), ["v0", "v1", "v2", "v3", "v4"][i]);
        }
        let order: Vec<_> = (0..5).map(|_| q.next().unwrap()).collect();
        assert_eq!(order, ["v0", "v1", "v2", "v3", "v4"], "FIFO within tenant");
    }

    #[test]
    fn drr_idle_tenant_banks_no_credit() {
        let mut q = drr(&[("a", 5.0), ("b", 1.0)]);
        let a: Arc<str> = Arc::from("a");
        let b: Arc<str> = Arc::from("b");
        q.push(a.clone(), "a");
        assert_eq!(q.next(), Some("a"));
        assert!(q.next().is_none());
        // `a` was idle while `b` worked; when it returns it competes with
        // fresh credit, not five rounds of banked credit beyond a burst.
        for _ in 0..8 {
            q.push(b.clone(), "b");
        }
        for _ in 0..4 {
            assert_eq!(q.next(), Some("b"));
        }
        q.push(a.clone(), "a");
        let next_two = [q.next().unwrap(), q.next().unwrap()];
        assert!(
            next_two.contains(&"a"),
            "returning tenant served promptly, got {next_two:?}"
        );
    }
}
