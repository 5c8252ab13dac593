//! Elastic scaling strategy — the piece of Parsl that watches the task
//! backlog and grows the executor's allocation (paper §II-B: providers
//! "enable automatic scaling to match the needs of the workflow at
//! runtime").
//!
//! This implements scale-*out*: a monitor thread samples the HTEX backlog
//! and requests an additional pilot-job block whenever outstanding tasks
//! exceed `tasks_per_worker` × current workers, up to `max_nodes`. Nodes
//! are released together at shutdown (Parsl's default idle-timeout
//! scale-in is out of scope and documented as such).

use crate::htex::HighThroughputExecutor;
use simtest::{StopSignal, Waited};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Strategy tunables.
#[derive(Debug, Clone)]
pub struct ScalingPolicy {
    /// Never grow beyond this many nodes in total.
    pub max_nodes: usize,
    /// Scale out when backlog exceeds this many tasks per worker.
    pub tasks_per_worker: usize,
    /// Nodes requested per scale-out event.
    pub nodes_per_block: usize,
    /// Sampling interval.
    pub interval: Duration,
}

impl Default for ScalingPolicy {
    fn default() -> Self {
        Self {
            max_nodes: 4,
            tasks_per_worker: 4,
            nodes_per_block: 1,
            interval: Duration::from_millis(20),
        }
    }
}

/// Handle to a running strategy thread. Stop it with [`Strategy::stop`]
/// (also stopped on drop).
pub struct Strategy {
    stop: Arc<StopSignal>,
    scale_outs: Arc<AtomicUsize>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Strategy {
    /// Start monitoring `htex` under `policy`.
    pub fn start(htex: Arc<HighThroughputExecutor>, policy: ScalingPolicy) -> Self {
        let stop = Arc::new(StopSignal::new());
        let scale_outs = Arc::new(AtomicUsize::new(0));
        let thread = {
            let stop = stop.clone();
            let scale_outs = scale_outs.clone();
            std::thread::Builder::new()
                .name("parsl-strategy".to_string())
                .spawn(move || {
                    use crate::executor::Executor as _;
                    // Sample on the executor's clock so the strategy runs in
                    // virtual time under the simulation harness: one wait
                    // per interval, ended early only by `stop`.
                    let clock = htex.clock();
                    while clock.wait(policy.interval, &stop) == Waited::Elapsed {
                        let workers = htex.worker_count().max(1);
                        let backlog = htex.outstanding_tasks();
                        if backlog > workers * policy.tasks_per_worker
                            && htex.manager_count() < policy.max_nodes
                        {
                            let want = policy
                                .nodes_per_block
                                .min(policy.max_nodes - htex.manager_count());
                            if want > 0 && htex.add_block(want).is_ok() {
                                scale_outs.fetch_add(1, Ordering::SeqCst);
                                let obs = htex.observability();
                                if obs.is_enabled() {
                                    obs.counter(obs::names::STRATEGY_SCALE_OUTS).incr();
                                }
                            }
                        }
                    }
                })
                .expect("spawn strategy thread")
        };
        Self {
            stop,
            scale_outs,
            thread: Some(thread),
        }
    }

    /// How many scale-out events have fired.
    pub fn scale_out_events(&self) -> usize {
        self.scale_outs.load(Ordering::SeqCst)
    }

    /// Stop the monitor thread (idempotent).
    pub fn stop(&mut self) {
        self.stop.raise();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Strategy {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::tests::payload;
    use crate::executor::Executor;
    use crate::htex::HtexConfig;
    use crate::provider::SlurmProvider;
    use gridsim::{BatchScheduler, ClusterSpec, LatencyModel, SchedulerConfig};
    use simtest::Clock as _;
    use yamlite::Value;

    #[test]
    fn scales_out_under_backlog() {
        let sched = BatchScheduler::new(ClusterSpec::small(4, 1), SchedulerConfig::immediate());
        let htex = HighThroughputExecutor::start(
            HtexConfig {
                label: "elastic".into(),
                nodes: 1,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                ..HtexConfig::default()
            },
            Arc::new(SlurmProvider::new(sched.clone())),
            Arc::new(obs::Observability::off()),
        )
        .unwrap();
        assert_eq!(htex.manager_count(), 1);

        let mut strategy = Strategy::start(
            htex.clone(),
            ScalingPolicy {
                max_nodes: 3,
                tasks_per_worker: 2,
                nodes_per_block: 1,
                interval: Duration::from_millis(10),
            },
        );

        // Flood with slow tasks: backlog >> workers.
        let mut futs = Vec::new();
        for i in 0..24 {
            let (fut, task) = payload(i, || {
                std::thread::sleep(Duration::from_millis(15));
                Ok(Value::Null)
            });
            htex.submit(task);
            futs.push(fut);
        }
        for f in &futs {
            f.result().unwrap();
        }
        strategy.stop();
        assert!(
            htex.manager_count() > 1,
            "strategy never scaled out (managers={})",
            htex.manager_count()
        );
        assert!(htex.manager_count() <= 3, "exceeded max_nodes");
        assert!(strategy.scale_out_events() >= 1);
        htex.shutdown();
        assert_eq!(sched.free_node_count(), 4);
    }

    #[test]
    fn does_not_scale_when_idle() {
        // Virtual clock: fifty strategy ticks of idleness elapse in logical
        // time instead of a wall-clock sleep.
        let vc = simtest::VirtualClock::new();
        let sched = BatchScheduler::new(ClusterSpec::small(3, 1), SchedulerConfig::immediate());
        let htex = HighThroughputExecutor::start(
            HtexConfig {
                label: "idle".into(),
                nodes: 1,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                clock: vc.clone(),
                ..HtexConfig::default()
            },
            Arc::new(SlurmProvider::new(sched)),
            Arc::new(obs::Observability::off()),
        )
        .unwrap();
        let mut strategy = Strategy::start(
            htex.clone(),
            ScalingPolicy {
                interval: Duration::from_millis(5),
                ..Default::default()
            },
        );
        assert!(simtest::wait_until(Duration::from_secs(10), || vc.now()
            >= Duration::from_millis(250)));
        strategy.stop();
        assert_eq!(htex.manager_count(), 1);
        assert_eq!(strategy.scale_out_events(), 0);
        htex.shutdown();
    }

    #[test]
    fn stop_wakes_a_strategy_parked_for_an_hour() {
        // Manual virtual clock, never advanced: only the stop can end the
        // sampling wait. With a sleep-then-check loop `stop` never returns.
        let vc = simtest::VirtualClock::new();
        vc.set_auto(false);
        let sched = BatchScheduler::new(ClusterSpec::small(2, 1), SchedulerConfig::immediate());
        let htex = HighThroughputExecutor::start(
            HtexConfig {
                label: "parked".into(),
                nodes: 1,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                clock: vc.clone(),
                ..HtexConfig::default()
            },
            Arc::new(SlurmProvider::new(sched)),
            Arc::new(obs::Observability::off()),
        )
        .unwrap();
        // Heartbeat + monitor park too (25 ms periods nobody advances).
        let mut strategy = Strategy::start(
            htex.clone(),
            ScalingPolicy {
                interval: Duration::from_secs(3600),
                ..Default::default()
            },
        );
        assert!(
            simtest::wait_until(Duration::from_secs(20), || vc.sleeper_count() == 3),
            "strategy never parked on the executor's clock"
        );
        let stopped = simtest::returns_within(Duration::from_secs(20), move || {
            strategy.stop();
            strategy.scale_out_events()
        });
        assert_eq!(stopped, Some(0), "Strategy::stop waited out its interval");
        assert_eq!(vc.sleeper_count(), 2, "the strategy left its deadline");
        htex.shutdown();
        assert_eq!(vc.sleeper_count(), 0);
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let sched = BatchScheduler::new(ClusterSpec::small(2, 1), SchedulerConfig::immediate());
        let htex = HighThroughputExecutor::start(
            HtexConfig {
                label: "drop".into(),
                nodes: 1,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                ..HtexConfig::default()
            },
            Arc::new(SlurmProvider::new(sched)),
            Arc::new(obs::Observability::off()),
        )
        .unwrap();
        let mut s = Strategy::start(htex.clone(), ScalingPolicy::default());
        s.stop();
        s.stop();
        drop(s);
        htex.shutdown();
    }
}
