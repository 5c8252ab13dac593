//! DataFlowKernel configuration.

use crate::htex::HtexConfig;
use crate::provider::Provider;
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;

/// Which executor the kernel runs tasks on.
pub enum ExecutorChoice {
    /// In-process thread pool (the paper's single-node configuration).
    ThreadPool {
        /// Worker thread count.
        workers: usize,
    },
    /// The pilot-job HighThroughputExecutor over a provider.
    Htex {
        /// Executor settings.
        config: HtexConfig,
        /// Source of compute nodes.
        provider: Arc<dyn Provider>,
    },
}

/// How failed attempts are retried — Parsl's `retries=` plus an
/// exponential-backoff schedule and an optional per-attempt walltime.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Re-run a failed task up to this many times before giving up.
    pub max_retries: usize,
    /// Delay before the first retry (0 = retry immediately).
    pub initial_backoff: Duration,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Randomize each delay by ±this fraction, de-synchronizing retry
    /// storms after a node loss.
    pub jitter_frac: f64,
    /// Kill an attempt that runs longer than this with
    /// [`crate::error::TaskError::Timeout`] (None = unlimited).
    pub walltime: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 0,
            initial_backoff: Duration::ZERO,
            multiplier: 2.0,
            max_backoff: Duration::from_secs(30),
            jitter_frac: 0.1,
            walltime: None,
        }
    }
}

impl RetryPolicy {
    /// `n` retries, no backoff — Parsl's plain `retries=n`.
    pub fn retries(n: usize) -> Self {
        Self {
            max_retries: n,
            ..Self::default()
        }
    }

    /// Reject policies that would misbehave at retry time: `jitter_frac`
    /// outside `[0, 1]` (a negative value would make the jitter range
    /// empty, and > 1 could scale a delay negative), non-finite floats,
    /// and a growth factor below zero. Config loaders call this so bad
    /// user YAML fails at load with a clear message instead of panicking
    /// mid-retry-storm.
    pub fn validate(&self) -> Result<(), String> {
        if !self.jitter_frac.is_finite() || !(0.0..=1.0).contains(&self.jitter_frac) {
            return Err(format!(
                "retry.jitter must be a finite fraction in [0, 1], got {}",
                self.jitter_frac
            ));
        }
        if !self.multiplier.is_finite() || self.multiplier < 0.0 {
            return Err(format!(
                "retry.multiplier must be a finite non-negative number, got {}",
                self.multiplier
            ));
        }
        Ok(())
    }

    /// The jittered delay before retry number `retry_index` (1-based):
    /// `initial_backoff * multiplier^(retry_index-1)`, capped at
    /// `max_backoff`, then scaled by a random factor in
    /// `[1-jitter_frac, 1+jitter_frac]` drawn from the thread-local RNG.
    ///
    /// Nondeterministic by design (retry storms across a fleet must
    /// de-synchronize); the kernel itself always goes through
    /// [`Self::backoff_for_seeded`] so a seeded run replays the exact same
    /// backoff schedule.
    pub fn backoff_for(&self, retry_index: usize) -> Duration {
        self.backoff_with(retry_index, |frac| {
            rand::thread_rng().gen_range(-frac..frac)
        })
    }

    /// [`Self::backoff_for`] with the jitter drawn from a seeded RNG:
    /// identical `(policy, seed, call sequence)` ⇒ identical delays, the
    /// property the deterministic simulation harness asserts on.
    pub fn backoff_for_seeded(&self, retry_index: usize, rng: &mut simtest::SimRng) -> Duration {
        self.backoff_with(retry_index, |frac| rng.gen_range_f64(-frac, frac))
    }

    /// Defensive against policies built without [`Self::validate`]: a
    /// non-finite or out-of-range `jitter_frac` is clamped into `[0, 1]`
    /// here rather than handed to the jitter draw (where a negative
    /// fraction makes the range empty — a panic for `thread_rng`).
    fn backoff_with(&self, retry_index: usize, draw: impl FnOnce(f64) -> f64) -> Duration {
        if self.initial_backoff.is_zero() || retry_index == 0 {
            return Duration::ZERO;
        }
        let growth = self
            .multiplier
            .max(1.0)
            .powi(retry_index.saturating_sub(1) as i32);
        let base =
            (self.initial_backoff.as_secs_f64() * growth).min(self.max_backoff.as_secs_f64());
        let frac = if self.jitter_frac.is_finite() {
            self.jitter_frac.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let jitter = if frac > 0.0 { 1.0 + draw(frac) } else { 1.0 };
        let secs = (base * jitter).max(0.0);
        Duration::from_secs_f64(if secs.is_finite() { secs } else { 0.0 })
    }
}

/// Static capacity of a configured executor, introspected *before* any
/// node is provisioned — input to the pre-run feasibility analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capacity {
    /// Nodes the executor will hold (1 for the thread pool).
    pub nodes: usize,
    /// Worker slots per node.
    pub workers_per_node: usize,
    /// Cores a single node offers, when the provider can say statically.
    pub cores_per_node: Option<usize>,
    /// RAM (GiB) a single node offers, when known.
    pub mem_gib_per_node: Option<usize>,
}

impl Capacity {
    /// Total concurrent task slots.
    pub fn total_slots(&self) -> usize {
        self.nodes.max(1) * self.workers_per_node.max(1)
    }
}

/// Kernel configuration (a small subset of Parsl's `Config`).
pub struct Config {
    /// Executor choice.
    pub executor: ExecutorChoice,
    /// Retry, backoff, and walltime behaviour.
    pub retry: RetryPolicy,
    /// App memoization (Parsl's `memoize=True`): a task whose label and
    /// resolved input values match a previously *successful* task returns
    /// the cached result without re-executing.
    pub memoize: bool,
    /// Label for logs.
    pub label: String,
    /// Observability: span/metric/lineage recording and trace export
    /// (disabled by default — every record path stays a single branch).
    pub monitoring: obs::ObsConfig,
    /// The kernel's checkpoint journal: when set, every successful
    /// non-memoized completion of an untagged task is appended to it, and
    /// the kernel forces memoization on (checkpointing *is* durable
    /// memoization — Parsl's model). A tagged task journals to its service
    /// run's journal instead ([`crate::DataFlowKernel::attach_run_journal`]),
    /// through the same binding. Seed the memo table from a loaded journal
    /// with [`crate::DataFlowKernel::seed_checkpoint`].
    pub checkpoint: Option<Arc<ckpt::Journal>>,
    /// Time source for every kernel-side sleep and timestamp (retry
    /// backoff, heartbeats, monitoring). The process-wide real clock by
    /// default; a [`simtest::VirtualClock`] under the deterministic
    /// simulation harness. Propagated into the HTEX executor when the
    /// kernel starts it.
    pub clock: simtest::ClockRef,
    /// Seed for the kernel's RNG (retry jitter). `None` (the default)
    /// seeds from entropy; `Some(s)` makes the backoff schedule a pure
    /// function of the seed, for replayable simulation runs.
    pub seed: Option<u64>,
    /// Dispatch gate for multi-run service scheduling: when set, every
    /// *tagged* task whose dependencies are met is offered to the gate
    /// instead of dispatching straight to the executor, so a fair-share
    /// scheduler can decide which run's tasks go next. Untagged tasks
    /// bypass the gate.
    pub gate: Option<Arc<dyn crate::dfk::DispatchGate>>,
}

impl Config {
    /// Local thread pool with `workers` threads, no retries.
    pub fn local_threads(workers: usize) -> Self {
        Self {
            executor: ExecutorChoice::ThreadPool { workers },
            retry: RetryPolicy::default(),
            memoize: false,
            label: "local".to_string(),
            monitoring: obs::ObsConfig::default(),
            checkpoint: None,
            clock: simtest::real_clock(),
            seed: None,
            gate: None,
        }
    }

    /// HTEX over a provider, labelled with the executor's own label.
    pub fn htex(config: HtexConfig, provider: Arc<dyn Provider>) -> Self {
        Self {
            label: config.label.clone(),
            executor: ExecutorChoice::Htex { config, provider },
            retry: RetryPolicy::default(),
            memoize: false,
            monitoring: obs::ObsConfig::default(),
            checkpoint: None,
            clock: simtest::real_clock(),
            seed: None,
            gate: None,
        }
    }

    /// Set the retry count (keeping the rest of the policy).
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retry.max_retries = retries;
        self
    }

    /// Replace the whole retry policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Set a per-attempt walltime limit.
    pub fn with_walltime(mut self, walltime: Duration) -> Self {
        self.retry.walltime = Some(walltime);
        self
    }

    /// Enable app memoization.
    pub fn with_memoization(mut self) -> Self {
        self.memoize = true;
        self
    }

    /// Configure observability (spans, metrics, lineage, trace export).
    pub fn with_monitoring(mut self, monitoring: obs::ObsConfig) -> Self {
        self.monitoring = monitoring;
        self
    }

    /// Attach a checkpoint journal (implies memoization).
    pub fn with_checkpoint(mut self, journal: Arc<ckpt::Journal>) -> Self {
        self.checkpoint = Some(journal);
        self
    }

    /// Route tagged-task dispatch through a [`crate::dfk::DispatchGate`]
    /// (the multi-run service's fair-share scheduler).
    pub fn with_gate(mut self, gate: Arc<dyn crate::dfk::DispatchGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Run the kernel (and any HTEX it starts) on an explicit clock.
    pub fn with_clock(mut self, clock: simtest::ClockRef) -> Self {
        self.clock = clock;
        self
    }

    /// Seed the kernel's RNG so retry jitter is reproducible.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Static capacity of the configured executor, for pre-run feasibility
    /// checks. Provisions nothing; provider knowledge comes from
    /// [`Provider::node_capacity_hint`].
    pub fn capacity(&self) -> Capacity {
        match &self.executor {
            ExecutorChoice::ThreadPool { workers } => {
                let host = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4);
                Capacity {
                    nodes: 1,
                    workers_per_node: (*workers).max(1),
                    cores_per_node: Some(host),
                    mem_gib_per_node: None,
                }
            }
            ExecutorChoice::Htex { config, provider } => {
                let hint = provider.node_capacity_hint();
                let cores = hint.map(|(c, _)| c);
                let mem = hint.and_then(|(_, m)| if m > 0 { Some(m) } else { None });
                let wpn = if config.workers_per_node > 0 {
                    config.workers_per_node
                } else {
                    cores.unwrap_or(1)
                };
                Capacity {
                    nodes: config.nodes.max(1),
                    workers_per_node: wpn.max(1),
                    cores_per_node: cores,
                    mem_gib_per_node: mem,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = Config::local_threads(8).with_retries(2);
        assert_eq!(c.retry.max_retries, 2);
        assert!(matches!(
            c.executor,
            ExecutorChoice::ThreadPool { workers: 8 }
        ));
        let c = Config::local_threads(1).with_walltime(Duration::from_secs(5));
        assert_eq!(c.retry.walltime, Some(Duration::from_secs(5)));
        let c = Config::local_threads(1).with_monitoring(obs::ObsConfig::on());
        assert!(c.monitoring.enabled);
        assert!(!Config::local_threads(1).monitoring.enabled);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            max_retries: 5,
            initial_backoff: Duration::from_millis(100),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(350),
            jitter_frac: 0.0,
            walltime: None,
        };
        assert_eq!(policy.backoff_for(1), Duration::from_millis(100));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(200));
        // 400ms caps to 350ms.
        assert_eq!(policy.backoff_for(3), Duration::from_millis(350));
        assert_eq!(policy.backoff_for(10), Duration::from_millis(350));
    }

    #[test]
    fn backoff_jitter_stays_in_band() {
        let policy = RetryPolicy {
            max_retries: 1,
            initial_backoff: Duration::from_millis(100),
            multiplier: 1.0,
            max_backoff: Duration::from_secs(1),
            jitter_frac: 0.25,
            walltime: None,
        };
        for _ in 0..100 {
            let d = policy.backoff_for(1);
            assert!(d >= Duration::from_millis(75), "{d:?}");
            assert!(d <= Duration::from_millis(125), "{d:?}");
        }
    }

    #[test]
    fn negative_jitter_does_not_panic() {
        // Regression: a negative jitter_frac made `gen_range(-j..j)` an
        // empty range. backoff_for must clamp, not panic.
        let policy = RetryPolicy {
            max_retries: 1,
            initial_backoff: Duration::from_millis(50),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            jitter_frac: -0.5,
            walltime: None,
        };
        assert_eq!(policy.backoff_for(1), Duration::from_millis(50));
        let nan = RetryPolicy {
            jitter_frac: f64::NAN,
            initial_backoff: Duration::from_millis(50),
            ..policy.clone()
        };
        assert_eq!(nan.backoff_for(1), Duration::from_millis(50));
    }

    #[test]
    fn validate_rejects_bad_policies() {
        let ok = RetryPolicy::default();
        assert!(ok.validate().is_ok());
        for bad_jitter in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let p = RetryPolicy {
                jitter_frac: bad_jitter,
                ..RetryPolicy::default()
            };
            let err = p.validate().unwrap_err();
            assert!(err.contains("retry.jitter"), "{err}");
        }
        let p = RetryPolicy {
            multiplier: -2.0,
            ..RetryPolicy::default()
        };
        assert!(p.validate().unwrap_err().contains("retry.multiplier"));
    }

    #[test]
    fn thread_pool_capacity() {
        let cap = Config::local_threads(6).capacity();
        assert_eq!(cap.nodes, 1);
        assert_eq!(cap.workers_per_node, 6);
        assert_eq!(cap.total_slots(), 6);
        assert!(cap.cores_per_node.is_some());
        assert!(cap.mem_gib_per_node.is_none());
    }

    #[test]
    fn htex_capacity_uses_provider_hint() {
        use crate::htex::HtexConfig;
        use crate::provider::LocalProvider;
        let htex = HtexConfig {
            nodes: 3,
            workers_per_node: 0, // one per core
            ..HtexConfig::default()
        };
        let cap = Config::htex(htex, Arc::new(LocalProvider::new(4))).capacity();
        assert_eq!(cap.nodes, 3);
        assert_eq!(cap.workers_per_node, 4);
        assert_eq!(cap.total_slots(), 12);
        assert_eq!(cap.cores_per_node, Some(4));
        assert_eq!(cap.mem_gib_per_node, None); // local provider: mem unknown
    }

    #[test]
    fn zero_backoff_is_immediate() {
        let policy = RetryPolicy::retries(3);
        assert_eq!(policy.backoff_for(1), Duration::ZERO);
        assert_eq!(policy.backoff_for(3), Duration::ZERO);
    }

    /// The seeded path must be a pure function of (policy, seed, call
    /// sequence) — two RNGs with the same seed replay byte-identical
    /// backoff schedules, across the full boundary grid of jitter and
    /// multiplier values.
    #[test]
    fn seeded_backoff_identical_for_identical_seeds() {
        for jitter in [0.0, 0.001, 0.5, 1.0] {
            for multiplier in [0.0, 1.0, 2.0, 1e6] {
                let policy = RetryPolicy {
                    max_retries: 8,
                    initial_backoff: Duration::from_millis(10),
                    multiplier,
                    max_backoff: Duration::from_secs(5),
                    jitter_frac: jitter,
                    walltime: None,
                };
                for seed in [0u64, 1, 42, u64::MAX] {
                    let mut a = simtest::SimRng::seeded(seed);
                    let mut b = simtest::SimRng::seeded(seed);
                    let seq_a: Vec<Duration> = (0..8)
                        .map(|i| policy.backoff_for_seeded(i, &mut a))
                        .collect();
                    let seq_b: Vec<Duration> = (0..8)
                        .map(|i| policy.backoff_for_seeded(i, &mut b))
                        .collect();
                    assert_eq!(
                        seq_a, seq_b,
                        "jitter={jitter} multiplier={multiplier} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_backoff_differs_across_seeds() {
        let policy = RetryPolicy {
            max_retries: 4,
            initial_backoff: Duration::from_millis(100),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(30),
            jitter_frac: 0.5,
            walltime: None,
        };
        let mut a = simtest::SimRng::seeded(1);
        let mut b = simtest::SimRng::seeded(2);
        let seq_a: Vec<Duration> = (1..8)
            .map(|i| policy.backoff_for_seeded(i, &mut a))
            .collect();
        let seq_b: Vec<Duration> = (1..8)
            .map(|i| policy.backoff_for_seeded(i, &mut b))
            .collect();
        assert_ne!(seq_a, seq_b);
    }

    /// Boundary values through the seeded path: jitter 0 and 1, multiplier
    /// 0 (clamped to 1) and exactly 1 — delays stay in band and never
    /// panic, matching the thread-rng path's clamping semantics.
    #[test]
    fn seeded_backoff_boundary_values_stay_in_band() {
        let mut rng = simtest::SimRng::seeded(7);
        // jitter_frac == 1.0: band is [0, 2*base].
        let full = RetryPolicy {
            max_retries: 1,
            initial_backoff: Duration::from_millis(100),
            multiplier: 1.0,
            max_backoff: Duration::from_secs(1),
            jitter_frac: 1.0,
            walltime: None,
        };
        for _ in 0..200 {
            let d = full.backoff_for_seeded(1, &mut rng);
            assert!(d <= Duration::from_millis(200), "{d:?}");
        }
        // jitter_frac == 0.0: exact, regardless of the RNG state.
        let exact = RetryPolicy {
            jitter_frac: 0.0,
            ..full.clone()
        };
        assert_eq!(
            exact.backoff_for_seeded(1, &mut rng),
            Duration::from_millis(100)
        );
        // multiplier 0 clamps to 1 (no shrink), multiplier 1 is flat.
        for m in [0.0, 1.0] {
            let flat = RetryPolicy {
                multiplier: m,
                jitter_frac: 0.0,
                ..full.clone()
            };
            assert_eq!(
                flat.backoff_for_seeded(5, &mut rng),
                Duration::from_millis(100)
            );
        }
        // Out-of-range jitter is clamped, not panicked on, exactly like the
        // thread-rng path.
        let bad = RetryPolicy {
            jitter_frac: -0.5,
            ..full.clone()
        };
        assert_eq!(
            bad.backoff_for_seeded(1, &mut rng),
            Duration::from_millis(100)
        );
        let nan = RetryPolicy {
            jitter_frac: f64::NAN,
            ..full
        };
        assert_eq!(
            nan.backoff_for_seeded(1, &mut rng),
            Duration::from_millis(100)
        );
    }
}
