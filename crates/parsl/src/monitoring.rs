//! Task-lifecycle monitoring — a lightweight stand-in for Parsl's
//! monitoring database. Every task and node event is one counter in the
//! kernel's obs [`Registry`](obs::Registry); [`Monitoring`] reads them
//! back as summaries and waits on them. Per-event detail (spans, lineage)
//! is the trace's, recorded only when monitoring is on.

use crate::executor::Executor;
use obs::{names, Observability};
use std::time::Duration;

/// Aggregated counts per event kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskSummary {
    pub(crate) submitted: usize,
    pub completed: usize,
    pub failed: usize,
    pub retried: usize,
    pub memoized: usize,
    pub node_lost: usize,
    pub(crate) redispatched: usize,
    pub(crate) timed_out: usize,
    pub blocks_replaced: usize,
}

/// Aggregated fault-handling view of a run — the numbers the paper's
/// fault-injection experiment reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Nodes declared dead by the heartbeat monitor.
    pub nodes_lost: Vec<String>,
    /// Tasks re-queued off dead nodes.
    pub tasks_redispatched: usize,
    /// Attempts stopped by their walltime.
    pub(crate) tasks_timed_out: usize,
    /// Replacement blocks provisioned to restore capacity.
    pub blocks_replaced: usize,
    /// Attempts retried by the dataflow kernel.
    pub(crate) retries: usize,
}

/// A kernel's monitoring view: its obs counters and its executor's node
/// table. Returned by [`crate::DataFlowKernel::monitoring`].
pub struct Monitoring<'a> {
    pub(crate) obs: &'a Observability,
    pub(crate) executor: &'a dyn Executor,
}

impl Monitoring<'_> {
    /// Event counts so far.
    pub fn summary(&self) -> TaskSummary {
        let n = |name| self.obs.counter(name).value() as usize;
        TaskSummary {
            submitted: n(names::DFK_SUBMITTED),
            completed: n(names::DFK_COMPLETED),
            failed: n(names::DFK_FAILED),
            retried: n(names::DFK_RETRIES),
            memoized: n(names::MEMO_HITS),
            node_lost: n(names::HTEX_NODES_LOST),
            redispatched: n(names::HTEX_REDISPATCHES),
            timed_out: n(names::DFK_TIMED_OUT),
            blocks_replaced: n(names::HTEX_BLOCKS_REPLACED),
        }
    }

    /// The fault-handling story of the run, for experiment reports. Lost
    /// node names come from the executor's own node table.
    pub fn fault_summary(&self) -> FaultSummary {
        let s = self.summary();
        FaultSummary {
            nodes_lost: self.executor.lost_nodes(),
            tasks_redispatched: s.redispatched,
            tasks_timed_out: s.timed_out,
            blocks_replaced: s.blocks_replaced,
            retries: s.retried,
        }
    }

    /// Block until `pred` holds for the summary, re-checking after every
    /// counted event; give up after `timeout` (real time). Returns the
    /// last value of `pred` (see [`Observability::wait_for`]).
    pub fn wait_for_events(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&TaskSummary) -> bool,
    ) -> bool {
        self.obs.wait_for(timeout, || pred(&self.summary()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::TaskPayload;
    use crate::{AppArg, Config, DataFlowKernel, FnApp, TaskError};
    use std::sync::Arc;
    use yamlite::Value;

    /// An executor that runs nothing and reports a fixed node table.
    struct NodeTable(Vec<String>);

    impl Executor for NodeTable {
        fn submit(&self, _task: TaskPayload) {}
        fn label(&self) -> &str {
            "node-table"
        }
        fn worker_count(&self) -> usize {
            0
        }
        fn shutdown(&self) {}
        fn lost_nodes(&self) -> Vec<String> {
            self.0.clone()
        }
    }

    fn count(obs: &Observability, name: &str, times: usize) {
        let counter = obs.counter(name);
        for _ in 0..times {
            obs.count(&counter);
        }
    }

    #[test]
    fn records_and_summarizes() {
        let obs = Observability::off();
        count(&obs, names::DFK_SUBMITTED, 2);
        count(&obs, names::DFK_COMPLETED, 1);
        count(&obs, names::DFK_FAILED, 1);
        let executor = NodeTable(Vec::new());
        let m = Monitoring {
            obs: &obs,
            executor: &executor,
        };
        assert_eq!(
            m.summary(),
            TaskSummary {
                submitted: 2,
                completed: 1,
                failed: 1,
                ..TaskSummary::default()
            }
        );
    }

    #[test]
    fn fault_events_summarized() {
        let obs = Observability::off();
        count(&obs, names::HTEX_NODES_LOST, 1);
        count(&obs, names::HTEX_REDISPATCHES, 2);
        count(&obs, names::DFK_TIMED_OUT, 1);
        count(&obs, names::HTEX_BLOCKS_REPLACED, 1);
        count(&obs, names::DFK_RETRIES, 1);
        let executor = NodeTable(vec!["node01".to_string()]);
        let m = Monitoring {
            obs: &obs,
            executor: &executor,
        };
        let s = m.summary();
        assert_eq!(s.node_lost, 1);
        assert_eq!(s.redispatched, 2);
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.blocks_replaced, 1);
        assert_eq!(
            m.fault_summary(),
            FaultSummary {
                nodes_lost: vec!["node01".to_string()],
                tasks_redispatched: 2,
                tasks_timed_out: 1,
                blocks_replaced: 1,
                retries: 1,
            }
        );
    }

    /// Node-level events are counted apart from task outcomes: a lost node
    /// and a re-dispatch finish no task and fail none.
    #[test]
    fn node_events_do_not_set_task_state() {
        let obs = Observability::off();
        count(&obs, names::HTEX_NODES_LOST, 1);
        count(&obs, names::DFK_SUBMITTED, 1);
        count(&obs, names::HTEX_REDISPATCHES, 1);
        let executor = NodeTable(Vec::new());
        let s = Monitoring {
            obs: &obs,
            executor: &executor,
        }
        .summary();
        assert_eq!((s.submitted, s.completed, s.failed), (1, 0, 0));
        assert_eq!((s.node_lost, s.redispatched), (1, 1));
    }

    /// Counts stay exact however many events arrive and from however many
    /// threads: nothing is retained per event, so nothing is evicted.
    #[test]
    fn counters_stay_exact_across_threads() {
        let obs = Arc::new(Observability::off());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let obs = obs.clone();
                std::thread::spawn(move || {
                    count(&obs, names::DFK_SUBMITTED, 250);
                    count(&obs, names::DFK_COMPLETED, 250);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let executor = NodeTable(Vec::new());
        let s = Monitoring {
            obs: &obs,
            executor: &executor,
        }
        .summary();
        assert_eq!((s.submitted, s.completed), (8 * 250, 8 * 250));
    }

    #[test]
    fn wait_for_events_wakes_on_record() {
        let obs = Arc::new(Observability::off());
        let writer = obs.clone();
        let t = std::thread::spawn(move || count(&writer, names::DFK_COMPLETED, 3));
        let executor = NodeTable(Vec::new());
        let m = Monitoring {
            obs: &obs,
            executor: &executor,
        };
        assert!(m.wait_for_events(Duration::from_secs(5), |s| s.completed == 3));
        t.join().unwrap();
        // A predicate that can never hold returns false at the deadline.
        assert!(!m.wait_for_events(Duration::from_millis(20), |s| s.completed > 100));
    }

    /// One retry, one memo hit and one failure on a kernel: `summary()`
    /// equals the counters in the exported trace, field by field, and the
    /// same run with monitoring off gives the same `summary()`.
    #[test]
    fn summary_matches_the_exported_trace() {
        fn run(monitoring: obs::ObsConfig) -> TaskSummary {
            let dfk = DataFlowKernel::new(
                Config::local_threads(2)
                    .with_retries(1)
                    .with_memoization()
                    .with_monitoring(monitoring),
            );
            let double = FnApp::new(|v: &[Value]| Ok(Value::Int(v[0].as_int().unwrap() * 2)));
            let fail = FnApp::new(|_: &[Value]| Err(TaskError::failed("always")));
            let first = dfk.submit("double", vec![AppArg::value(21i64)], double.clone());
            assert_eq!(first.result().unwrap(), Value::Int(42));
            let memo = dfk.submit("double", vec![AppArg::value(21i64)], double);
            assert_eq!(memo.result().unwrap(), Value::Int(42));
            assert!(dfk.submit("fail", vec![], fail).result().is_err());
            dfk.shutdown();
            dfk.monitoring().summary()
        }

        let dir = std::env::temp_dir().join(format!("monitoring-drift-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let summary = run(obs::ObsConfig::exporting(&path));
        assert_eq!(
            summary,
            TaskSummary {
                submitted: 3,
                completed: 2,
                failed: 1,
                retried: 1,
                memoized: 1,
                ..TaskSummary::default()
            }
        );
        let trace = obs::report::load_trace(&path).unwrap();
        let metric = |name: &str| {
            let m = trace.metrics.iter().find(|m| m.name == name);
            m.unwrap_or_else(|| panic!("{name} missing from the trace"))
                .value as usize
        };
        let from_trace = TaskSummary {
            submitted: metric(names::DFK_SUBMITTED),
            completed: metric(names::DFK_COMPLETED),
            failed: metric(names::DFK_FAILED),
            retried: metric(names::DFK_RETRIES),
            memoized: metric(names::MEMO_HITS),
            node_lost: metric(names::HTEX_NODES_LOST),
            redispatched: metric(names::HTEX_REDISPATCHES),
            timed_out: metric(names::DFK_TIMED_OUT),
            blocks_replaced: metric(names::HTEX_BLOCKS_REPLACED),
        };
        assert_eq!(summary, from_trace);
        assert_eq!(run(obs::ObsConfig::default()), summary);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
