//! A first-come-first-served batch scheduler over a [`ClusterSpec`].
//!
//! Pilot jobs (Parsl blocks) and Toil batch jobs are submitted here, wait in
//! an FCFS queue until enough whole nodes are free, and then run until
//! released. A modelled submit latency stands in for the `sbatch` round trip.
//!
//! Grants happen synchronously on submit and on release (no background
//! thread), which keeps the scheduler deterministic; waiters block on a
//! condition variable rather than polling.

use crate::cluster::ClusterSpec;
use crate::latency::pay;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Opaque job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Lifecycle of a batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// In the queue, waiting for nodes.
    Pending,
    /// Granted nodes; running.
    Running,
    /// Released by its owner.
    Completed,
    /// Cancelled while pending.
    Cancelled,
}

/// What a job asks for.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Number of whole nodes requested.
    pub(crate) nodes: usize,
    /// Human-readable label for logs.
    pub(crate) label: String,
}

impl JobRequest {
    /// Request `nodes` whole nodes.
    pub fn nodes(nodes: usize, label: impl Into<String>) -> Self {
        Self {
            nodes,
            label: label.into(),
        }
    }
}

/// Scheduler tunables.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Modelled `sbatch` round-trip paid synchronously on submit.
    pub(crate) submit_latency: Duration,
    /// Modelled extra delay between resources becoming free and the grant
    /// landing (the scheduling cycle of real batch systems).
    pub(crate) grant_latency: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            // Real Slurm submit round-trips are O(100 ms); scheduling cycles
            // run every O(seconds). Scaled globally by gridsim::TimeScale.
            submit_latency: Duration::from_millis(20),
            grant_latency: Duration::from_millis(10),
        }
    }
}

impl SchedulerConfig {
    /// No modelled latencies at all (unit tests).
    pub fn immediate() -> Self {
        Self {
            submit_latency: Duration::ZERO,
            grant_latency: Duration::ZERO,
        }
    }
}

#[derive(Debug)]
struct JobRecord {
    state: JobState,
    request: JobRequest,
    granted: Vec<usize>,
}

#[derive(Debug)]
struct SchedState {
    free_nodes: Vec<usize>,
    queue: VecDeque<JobId>,
    jobs: HashMap<JobId, JobRecord>,
    next_id: u64,
}

struct Inner {
    cluster: ClusterSpec,
    config: SchedulerConfig,
    state: Mutex<SchedState>,
    cond: Condvar,
}

/// The batch scheduler. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct BatchScheduler {
    inner: Arc<Inner>,
}

impl BatchScheduler {
    /// Create a scheduler over `cluster` with `config` latencies.
    pub fn new(cluster: ClusterSpec, config: SchedulerConfig) -> Self {
        assert!(cluster.validate().is_ok(), "invalid cluster spec");
        let free_nodes = (0..cluster.node_count()).collect();
        Self {
            inner: Arc::new(Inner {
                cluster,
                config,
                state: Mutex::new(SchedState {
                    free_nodes,
                    queue: VecDeque::new(),
                    jobs: HashMap::new(),
                    next_id: 1,
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// The cluster this scheduler manages.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.inner.cluster
    }

    /// Submit a job request; pays the modelled submit latency, enqueues the
    /// job, and runs a grant pass. Fails fast when the request can never be
    /// satisfied.
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, String> {
        if request.nodes == 0 {
            return Err("job requests zero nodes".to_string());
        }
        if request.nodes > self.inner.cluster.node_count() {
            return Err(format!(
                "job {:?} requests {} nodes but cluster {:?} has only {}",
                request.label,
                request.nodes,
                self.inner.cluster.name,
                self.inner.cluster.node_count()
            ));
        }
        pay(self.inner.config.submit_latency);
        let id = {
            let mut st = self.inner.state.lock();
            let id = JobId(st.next_id);
            st.next_id += 1;
            st.jobs.insert(
                id,
                JobRecord {
                    state: JobState::Pending,
                    request,
                    granted: Vec::new(),
                },
            );
            st.queue.push_back(id);
            self.grant_locked(&mut st);
            id
        };
        self.inner.cond.notify_all();
        Ok(JobHandle {
            id,
            scheduler: self.clone(),
        })
    }

    /// FCFS grant pass; caller holds the lock.
    fn grant_locked(&self, st: &mut SchedState) {
        while let Some(&head) = st.queue.front() {
            let need = st.jobs.get(&head).map(|j| j.request.nodes).unwrap_or(0);
            if need > st.free_nodes.len() {
                // Strict FCFS: the head blocks everything behind it
                // (mirrors a conservative Slurm configuration).
                break;
            }
            st.queue.pop_front();
            let granted: Vec<usize> = st.free_nodes.drain(..need).collect();
            if let Some(job) = st.jobs.get_mut(&head) {
                job.state = JobState::Running;
                job.granted = granted;
            }
        }
    }

    /// Current state of `id` (None for unknown ids).
    pub(crate) fn state(&self, id: JobId) -> Option<JobState> {
        self.inner.state.lock().jobs.get(&id).map(|j| j.state)
    }

    /// Number of jobs waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// Number of currently free nodes.
    pub fn free_node_count(&self) -> usize {
        self.inner.state.lock().free_nodes.len()
    }

    /// Block until `id` is running (or cancelled), up to `timeout`.
    /// Returns the granted node indices on success.
    pub(crate) fn wait_running(&self, id: JobId, timeout: Duration) -> Result<Vec<usize>, String> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            match st.jobs.get(&id) {
                None => return Err(format!("{id} is unknown")),
                Some(j) => match j.state {
                    JobState::Running => {
                        let granted = j.granted.clone();
                        drop(st);
                        pay(self.inner.config.grant_latency);
                        return Ok(granted);
                    }
                    JobState::Cancelled => return Err(format!("{id} was cancelled")),
                    JobState::Completed => return Err(format!("{id} already completed")),
                    JobState::Pending => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(format!("{id} still pending after {timeout:?}"));
                        }
                        self.inner.cond.wait_until(&mut st, deadline);
                    }
                },
            }
        }
    }

    /// Release a running job's nodes (idempotent for completed jobs).
    pub(crate) fn release(&self, id: JobId) -> Result<(), String> {
        {
            let mut st = self.inner.state.lock();
            let job = st
                .jobs
                .get_mut(&id)
                .ok_or_else(|| format!("{id} is unknown"))?;
            match job.state {
                JobState::Running => {
                    job.state = JobState::Completed;
                    let granted = std::mem::take(&mut job.granted);
                    st.free_nodes.extend(granted);
                    self.grant_locked(&mut st);
                }
                // Completed is idempotent.
                JobState::Completed => {}
                other => return Err(format!("{id} cannot be released from state {other:?}")),
            }
        }
        self.inner.cond.notify_all();
        Ok(())
    }

    /// Cancel a pending job. Running jobs must be released instead.
    pub(crate) fn cancel(&self, id: JobId) -> Result<(), String> {
        {
            let mut st = self.inner.state.lock();
            let job = st
                .jobs
                .get_mut(&id)
                .ok_or_else(|| format!("{id} is unknown"))?;
            match job.state {
                JobState::Pending => {
                    job.state = JobState::Cancelled;
                    st.queue.retain(|q| *q != id);
                    self.grant_locked(&mut st);
                }
                other => return Err(format!("{id} cannot be cancelled from state {other:?}")),
            }
        }
        self.inner.cond.notify_all();
        Ok(())
    }
}

/// RAII-ish handle to a submitted job.
#[derive(Clone)]
pub struct JobHandle {
    /// The job's id.
    pub id: JobId,
    scheduler: BatchScheduler,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

impl JobHandle {
    /// Current state.
    pub fn state(&self) -> JobState {
        self.scheduler
            .state(self.id)
            .expect("job belongs to this scheduler")
    }

    /// Wait until running; returns granted node indices.
    pub fn wait_running(&self, timeout: Duration) -> Result<Vec<usize>, String> {
        self.scheduler.wait_running(self.id, timeout)
    }

    /// Release the job's nodes.
    pub fn release(&self) -> Result<(), String> {
        self.scheduler.release(self.id)
    }

    /// Cancel while pending.
    pub fn cancel(&self) -> Result<(), String> {
        self.scheduler.cancel(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(nodes: usize) -> BatchScheduler {
        BatchScheduler::new(ClusterSpec::small(nodes, 4), SchedulerConfig::immediate())
    }

    #[test]
    fn grant_immediately_when_free() {
        let s = sched(3);
        let j = s.submit(JobRequest::nodes(2, "pilot")).unwrap();
        assert_eq!(j.state(), JobState::Running);
        let nodes = j.wait_running(Duration::from_secs(1)).unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(s.free_node_count(), 1);
        j.release().unwrap();
        assert_eq!(s.free_node_count(), 3);
    }

    #[test]
    fn fcfs_queueing() {
        let s = sched(2);
        let a = s.submit(JobRequest::nodes(2, "a")).unwrap();
        let b = s.submit(JobRequest::nodes(1, "b")).unwrap();
        let c = s.submit(JobRequest::nodes(1, "c")).unwrap();
        assert_eq!(a.state(), JobState::Running);
        assert_eq!(b.state(), JobState::Pending);
        assert_eq!(c.state(), JobState::Pending);
        assert_eq!(s.queue_depth(), 2);
        a.release().unwrap();
        // Release grants b and c in order.
        assert_eq!(b.state(), JobState::Running);
        assert_eq!(c.state(), JobState::Running);
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn strict_fcfs_head_blocks() {
        let s = sched(2);
        let a = s.submit(JobRequest::nodes(1, "a")).unwrap();
        let big = s.submit(JobRequest::nodes(2, "big")).unwrap();
        let small = s.submit(JobRequest::nodes(1, "small")).unwrap();
        assert_eq!(a.state(), JobState::Running);
        // One node is free, but the 2-node head job blocks the 1-node job.
        assert_eq!(big.state(), JobState::Pending);
        assert_eq!(small.state(), JobState::Pending);
        a.release().unwrap();
        assert_eq!(big.state(), JobState::Running);
        assert_eq!(small.state(), JobState::Pending);
    }

    #[test]
    fn oversized_request_rejected() {
        let s = sched(2);
        let err = s.submit(JobRequest::nodes(3, "huge")).unwrap_err();
        assert!(err.contains("has only 2"));
        assert!(s.submit(JobRequest::nodes(0, "none")).is_err());
    }

    #[test]
    fn cancel_pending() {
        let s = sched(1);
        let a = s.submit(JobRequest::nodes(1, "a")).unwrap();
        let b = s.submit(JobRequest::nodes(1, "b")).unwrap();
        b.cancel().unwrap();
        assert_eq!(b.state(), JobState::Cancelled);
        assert!(b.wait_running(Duration::from_millis(10)).is_err());
        // Cancelling a running job is an error; releasing works.
        assert!(a.cancel().is_err());
        a.release().unwrap();
    }

    #[test]
    fn wait_running_times_out() {
        let s = sched(1);
        let _a = s.submit(JobRequest::nodes(1, "a")).unwrap();
        let b = s.submit(JobRequest::nodes(1, "b")).unwrap();
        let err = b.wait_running(Duration::from_millis(30)).unwrap_err();
        assert!(err.contains("pending"), "{err}");
    }

    #[test]
    fn wait_running_wakes_on_release() {
        let s = sched(1);
        let a = s.submit(JobRequest::nodes(1, "a")).unwrap();
        let b = s.submit(JobRequest::nodes(1, "b")).unwrap();
        let s2 = b.clone();
        let waiter = std::thread::spawn(move || s2.wait_running(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        a.release().unwrap();
        let nodes = waiter.join().unwrap().unwrap();
        assert_eq!(nodes.len(), 1);
    }

    #[test]
    fn release_is_idempotent_for_completed() {
        let s = sched(1);
        let a = s.submit(JobRequest::nodes(1, "a")).unwrap();
        a.release().unwrap();
        a.release().unwrap();
        assert_eq!(a.state(), JobState::Completed);
    }

    #[test]
    fn concurrent_submit_release_stress() {
        let s = BatchScheduler::new(ClusterSpec::small(4, 2), SchedulerConfig::immediate());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let j = s
                        .submit(JobRequest::nodes(1 + (t + i) % 2, format!("t{t}-{i}")))
                        .unwrap();
                    let nodes = j.wait_running(Duration::from_secs(10)).unwrap();
                    assert!(!nodes.is_empty());
                    j.release().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.free_node_count(), 4);
        assert_eq!(s.queue_depth(), 0);
    }
}
