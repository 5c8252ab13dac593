//! Resource providers — Parsl's abstraction over batch systems and clouds.
//!
//! A provider negotiates *blocks* of compute (pilot jobs) from a resource
//! manager. [`LocalProvider`] hands out the local machine immediately;
//! [`SlurmProvider`] submits pilot jobs to the simulated
//! [`gridsim::BatchScheduler`], paying queue time like real Slurm jobs.

use gridsim::{BatchScheduler, JobHandle, JobRequest, NodeSpec};
use std::time::Duration;

/// A granted compute node, with a release hook back to its provider.
pub struct NodeHandle {
    /// The node's spec (name, cores).
    pub(crate) spec: NodeSpec,
    /// The pilot job this node belongs to (None for local provisioning).
    job: Option<JobHandle>,
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHandle")
            .field("spec", &self.spec)
            .finish()
    }
}

impl NodeHandle {
    /// Logical cores on this node.
    pub(crate) fn cores(&self) -> usize {
        self.spec.cores
    }
}

/// A provider of compute blocks.
pub trait Provider: Send + Sync {
    /// Provision `nodes` nodes, blocking until they are granted (this models
    /// pilot-job queue wait). Returns one handle per node.
    fn provision(&self, nodes: usize) -> Result<Vec<NodeHandle>, String>;

    /// Release previously provisioned nodes.
    fn release(&self, nodes: Vec<NodeHandle>);

    /// Provider label for logs.
    fn label(&self) -> &str;

    /// Static per-node capacity as `(cores, mem_gib)`, *without*
    /// provisioning anything — used by the pre-run feasibility analysis.
    /// `None` means the provider cannot say until nodes are granted.
    fn node_capacity_hint(&self) -> Option<(usize, usize)> {
        None
    }
}

/// Runs on the submitting machine: grants immediately, no queue.
pub struct LocalProvider {
    cores_per_node: usize,
}

impl LocalProvider {
    /// A local provider exposing `cores_per_node` cores.
    pub fn new(cores_per_node: usize) -> Self {
        Self {
            cores_per_node: cores_per_node.max(1),
        }
    }
}

impl Provider for LocalProvider {
    fn provision(&self, nodes: usize) -> Result<Vec<NodeHandle>, String> {
        // The local machine is one node; requesting more replicates it,
        // which mirrors Parsl's LocalProvider ignoring node counts.
        Ok((0..nodes.max(1))
            .map(|i| NodeHandle {
                spec: NodeSpec::new(format!("localhost/{i}"), self.cores_per_node, 0),
                job: None,
            })
            .collect())
    }

    fn release(&self, _nodes: Vec<NodeHandle>) {}

    fn label(&self) -> &str {
        "local"
    }

    fn node_capacity_hint(&self) -> Option<(usize, usize)> {
        // mem 0 = unknown: the local machine does not enforce a budget.
        Some((self.cores_per_node, 0))
    }
}

/// Provisions whole nodes through the simulated Slurm batch scheduler.
pub struct SlurmProvider {
    scheduler: BatchScheduler,
    /// How long to wait for the pilot job to leave the queue.
    pub(crate) queue_timeout: Duration,
    label: String,
}

impl SlurmProvider {
    /// Provider over a shared scheduler handle.
    pub fn new(scheduler: BatchScheduler) -> Self {
        Self {
            scheduler,
            queue_timeout: Duration::from_secs(300),
            label: "slurm".to_string(),
        }
    }
}

impl Provider for SlurmProvider {
    fn provision(&self, nodes: usize) -> Result<Vec<NodeHandle>, String> {
        // Providers have no handle to a run, so they record against the
        // process-global instance (disabled unless a run enables it).
        let obs = obs::global();
        let t0 = obs.now_us();
        let job = self
            .scheduler
            .submit(JobRequest::nodes(nodes, format!("parsl-pilot-{nodes}n")))?;
        let granted = job.wait_running(self.queue_timeout)?;
        if obs.is_enabled() {
            obs.counter(obs::names::PROVIDER_PROVISIONS).incr();
            obs.histogram(obs::names::PROVIDER_PROVISION_US)
                .record(obs.now_us().saturating_sub(t0));
        }
        let cluster = self.scheduler.cluster();
        Ok(granted
            .into_iter()
            .map(|idx| NodeHandle {
                spec: cluster.nodes[idx].clone(),
                job: Some(job.clone()),
            })
            .collect())
    }

    fn release(&self, nodes: Vec<NodeHandle>) {
        // Handles may span several pilot jobs (elastic scale-out adds
        // blocks); release each distinct job exactly once.
        let mut released = std::collections::HashSet::new();
        for node in nodes {
            if let Some(job) = node.job {
                if released.insert(job.id) {
                    let _ = job.release();
                }
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn node_capacity_hint(&self) -> Option<(usize, usize)> {
        let cluster = self.scheduler.cluster();
        let node = cluster.nodes.first()?;
        Some((node.cores, node.mem_gib))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::{ClusterSpec, SchedulerConfig};

    #[test]
    fn local_provider_grants_immediately() {
        let p = LocalProvider::new(8);
        let nodes = p.provision(3).unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].cores(), 8);
        p.release(nodes);
    }

    #[test]
    fn slurm_provider_roundtrip() {
        let sched = BatchScheduler::new(ClusterSpec::small(3, 4), SchedulerConfig::immediate());
        let p = SlurmProvider::new(sched.clone());
        let nodes = p.provision(2).unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(sched.free_node_count(), 1);
        p.release(nodes);
        assert_eq!(sched.free_node_count(), 3);
    }

    #[test]
    fn slurm_provider_queues_when_busy() {
        let sched = BatchScheduler::new(ClusterSpec::small(2, 4), SchedulerConfig::immediate());
        let p = SlurmProvider::new(sched.clone());
        let first = p.provision(2).unwrap();
        // Second provision must wait until the first block is released.
        let p2 = SlurmProvider::new(sched.clone());
        let handle = std::thread::spawn(move || p2.provision(1));
        assert!(
            simtest::wait_until(Duration::from_secs(5), || sched.queue_depth() == 1),
            "second provision should be queued"
        );
        p.release(first);
        let second = handle.join().unwrap().unwrap();
        assert_eq!(second.len(), 1);
    }

    #[test]
    fn slurm_provider_rejects_oversized() {
        let sched = BatchScheduler::new(ClusterSpec::small(2, 4), SchedulerConfig::immediate());
        let p = SlurmProvider::new(sched);
        assert!(p.provision(5).is_err());
    }
}
