//! Run reports: what a runner returns besides the output object.

use std::time::Duration;
use yamlite::Map;

/// The result of executing a tool or workflow.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Runner name.
    pub(crate) runner: String,
    /// The top-level output object.
    pub outputs: Map,
    /// Number of leaf tool tasks executed (scatter instances count
    /// individually).
    pub tasks: usize,
    /// Wall-clock makespan.
    pub elapsed: Duration,
}

impl RunReport {
    /// Tasks per second over the whole run.
    pub(crate) fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return f64::INFINITY;
        }
        self.tasks as f64 / self.elapsed.as_secs_f64()
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} tasks in {:.3}s ({:.1} tasks/s)",
            self.runner,
            self.tasks,
            self.elapsed.as_secs_f64(),
            self.throughput()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_display() {
        let r = RunReport {
            runner: "x".into(),
            outputs: Map::new(),
            tasks: 10,
            elapsed: Duration::from_secs(2),
        };
        assert_eq!(r.throughput(), 5.0);
        assert!(r.to_string().contains("10 tasks in 2.000s"));
        let inst = RunReport {
            elapsed: Duration::ZERO,
            ..r
        };
        assert!(inst.throughput().is_infinite());
    }
}
