//! The HighThroughputExecutor (HTEX) — Parsl's pilot-job executor and the
//! configuration the paper uses for its three-node runs (Fig. 1a).
//!
//! Architecture, as in the Python original:
//!
//! ```text
//! submit side          ┊ network ┊           allocated nodes
//! DataFlowKernel ──► interchange queue ──► manager (node01: N workers)
//!                                     ╰──► manager (node02: N workers)
//!                                     ╰──► manager (node03: N workers)
//! ```
//!
//! Nodes come from a [`Provider`] as pilot jobs (paying batch-queue wait);
//! each granted node gets a *manager* with `workers_per_node` worker threads.
//! Every protocol decision — how the queue is cut into messages and where
//! each goes, when a heartbeat is stale, which result counts, what a loss
//! re-dispatches and what it leaves to do — is [`gridsim::interchange`]'s,
//! the code the deterministic simulator drives; this module supplies the
//! threads, channels and clock and calls it inline.
//!
//! A dispatcher thread sends live managers **batches** of up to
//! [`HtexConfig::batch_size`] tasks, round-robin, with no worker slot
//! reserved. Each batch crosses the submit-side ↔ manager network boundary
//! as one message, so its modelled dispatch latency is paid once (by the
//! first worker to pick any of its tasks), off the submit thread, and
//! transfers to different managers pipeline. Each manager's reply
//! aggregator flushes completed tasks in batches, paying the result-path
//! latency once per reply. `batch_size: 1` recovers one message per task.
//!
//! Every task a manager was sent sits in that manager's [`Ledger`] until
//! its result is accepted. Each manager heartbeats; a monitor on the submit
//! side declares it dead when the heartbeat goes stale (or a [`FaultPlan`]
//! kills its node). The loss drains exactly the unfinished tasks back to
//! the dispatcher (an attempt's `run` can be called again), a
//! result the lost node still sends is dropped, and below
//! [`HtexConfig::min_nodes`] a replacement block is provisioned. If every
//! node is lost and none can replace them, pending tasks fail with
//! [`TaskError::ExecutorLost`].
//!
//! Blocks: [`HighThroughputExecutor::add_block`] provisions nodes at start
//! and, when one is lost, its replacement. Nothing scales out on load.

use crate::error::TaskError;
use crate::executor::{Executor, TaskPayload};
use crate::future::TaskResult;
use crate::provider::{NodeHandle, Provider};
use crossbeam::channel::{unbounded, Receiver, Sender};
use gridsim::interchange::{after_loss, AfterLoss, Attempt, Dispatch, Heartbeat, Ledger};
use gridsim::{FaultPlan, LatencyModel};
use obs::{names, Observability, SpanKind};
use parking_lot::Mutex;
use simtest::{StopSignal, Waited};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// HTEX configuration.
#[derive(Clone)]
pub struct HtexConfig {
    /// Executor label.
    pub label: String,
    /// How many nodes to request from the provider at start.
    pub nodes: usize,
    /// Worker threads per node (0 = one per core).
    pub workers_per_node: usize,
    /// Network model between submit side and managers.
    pub latency: LatencyModel,
    /// How often managers heartbeat to the submit side.
    pub heartbeat_period: Duration,
    /// Heartbeat staleness after which a manager is declared dead.
    pub heartbeat_threshold: Duration,
    /// Re-provision replacement blocks to keep at least this many live
    /// nodes (0 = never replace lost nodes).
    pub min_nodes: usize,
    /// Scripted node deaths, for fault-injection experiments.
    pub fault_plan: Option<FaultPlan>,
    /// Maximum tasks per interchange↔manager message. Each message pays
    /// the modelled network latency once, so a batch of `k` tasks costs
    /// one dispatch transfer instead of `k`; result replies are batched
    /// symmetrically. `1` = the unbatched one-message-per-task protocol.
    pub batch_size: usize,
    /// Time source for heartbeats, staleness detection, and modelled
    /// latency sleeps. Defaults to the real clock; the simulation harness
    /// swaps in a [`simtest::VirtualClock`] so heartbeat-loss schedules run
    /// in logical time instead of wall time.
    pub clock: simtest::ClockRef,
}

impl Default for HtexConfig {
    fn default() -> Self {
        Self {
            label: "htex".to_string(),
            nodes: 1,
            workers_per_node: 0,
            latency: LatencyModel::in_process(),
            heartbeat_period: Duration::from_millis(25),
            heartbeat_threshold: Duration::from_millis(250),
            min_nodes: 0,
            fault_plan: None,
            batch_size: 8,
            clock: simtest::real_clock(),
        }
    }
}

enum WorkerMsg {
    Task {
        attempt: Attempt,
        payload: TaskPayload,
        /// Shared by every task of one interchange→manager message; the
        /// first worker to claim it pays the message's dispatch latency.
        ticket: Arc<AtomicBool>,
    },
    Stop,
}

enum DispatchMsg {
    Task(TaskPayload),
    /// A node registered, or the executor failed: look at the held queue.
    Wake,
    Stop,
}

/// Worker → reply-aggregator traffic on one manager.
enum ResultMsg {
    Done {
        attempt: Attempt,
        result: TaskResult,
    },
    Stop,
}

/// Submit-side state for one connected manager (≙ one granted node).
struct ManagerState {
    node_name: String,
    tx: Sender<WorkerMsg>,
    /// Last heartbeat, in µs of the executor's clock.
    last_beat: AtomicU64,
    /// Set when the node is known dead (fault plan or stale heartbeat).
    dead: AtomicBool,
    /// Tasks sent to this manager and not yet answered, under attempt
    /// numbers. The dispatcher inserts a chunk, this manager's aggregator
    /// accepts results, the monitor drains it on a loss.
    ledger: Mutex<Ledger<TaskPayload>>,
    /// Workers hand finished tasks to this manager's reply aggregator,
    /// which completes them in batches (one result-latency per batch).
    result_tx: Sender<ResultMsg>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    heartbeat: Mutex<Option<std::thread::JoinHandle<()>>>,
    aggregator: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Held until shutdown so the pilot job is released exactly once,
    /// whether or not the node died.
    node: Mutex<Option<NodeHandle>>,
    worker_count: usize,
}

/// The pilot-job executor.
pub struct HighThroughputExecutor {
    label: String,
    dispatch_tx: Sender<DispatchMsg>,
    managers: Mutex<Vec<Arc<ManagerState>>>,
    provider: Arc<dyn Provider>,
    worker_total: AtomicUsize,
    workers_per_node: usize,
    latency: LatencyModel,
    fault_plan: Option<FaultPlan>,
    heartbeat: Heartbeat,
    min_nodes: usize,
    /// Maximum tasks per interchange↔manager message (≥ 1).
    batch_size: usize,
    /// Tasks submitted minus tasks finished.
    outstanding: AtomicUsize,
    /// Raised once by [`Executor::shutdown`]: the "closed" flag every path
    /// reads, and the signal that wakes the heartbeat and monitor threads
    /// out of their per-period waits so the joins below never wait one out.
    stop: Arc<StopSignal>,
    /// Set when every node is lost and no replacement could be provisioned;
    /// pending tasks then fail with [`TaskError::ExecutorLost`].
    failed: AtomicBool,
    /// Time source for heartbeats and staleness detection — real in
    /// production, virtual under the simulation harness.
    clock: simtest::ClockRef,
    /// The run's observability instance, given at construction: the first
    /// block's provisioning is recorded too. Node events (lost,
    /// re-dispatched, replaced) are counted here.
    obs: Arc<Observability>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl HighThroughputExecutor {
    /// Provision nodes through `provider` and start managers, recording
    /// into `obs` (the kernel's observability handle). Blocks until the
    /// pilot job(s) are granted — like Parsl blocking on first tasks until
    /// workers connect.
    pub fn start(
        config: HtexConfig,
        provider: Arc<dyn Provider>,
        obs: Arc<Observability>,
    ) -> Result<Arc<Self>, String> {
        let (dispatch_tx, dispatch_rx) = unbounded::<DispatchMsg>();
        let htex = Arc::new(Self {
            label: config.label,
            dispatch_tx,
            managers: Mutex::new(Vec::new()),
            provider,
            worker_total: AtomicUsize::new(0),
            workers_per_node: config.workers_per_node,
            latency: config.latency,
            fault_plan: config.fault_plan,
            heartbeat: Heartbeat {
                period: config.heartbeat_period,
                threshold: config.heartbeat_threshold,
            },
            min_nodes: config.min_nodes,
            batch_size: config.batch_size.max(1),
            outstanding: AtomicUsize::new(0),
            stop: Arc::new(StopSignal::new()),
            failed: AtomicBool::new(false),
            clock: config.clock,
            obs,
            dispatcher: Mutex::new(None),
            monitor: Mutex::new(None),
        });
        htex.add_block(config.nodes)?;
        let me = Arc::downgrade(&htex);
        let batch_size = htex.batch_size;
        *htex.dispatcher.lock() = Some(
            std::thread::Builder::new()
                .name(format!("{}-dispatch", htex.label))
                .spawn(move || dispatcher_loop(dispatch_rx, me, Dispatch::new(batch_size)))
                .map_err(|e| format!("failed to spawn HTEX dispatcher: {e}"))?,
        );
        let me = Arc::downgrade(&htex);
        *htex.monitor.lock() = Some(
            std::thread::Builder::new()
                .name(format!("{}-monitor", htex.label))
                .spawn(move || monitor_loop(me))
                .map_err(|e| format!("failed to spawn HTEX monitor: {e}"))?,
        );
        Ok(htex)
    }

    /// Provision `nodes` additional nodes and connect their managers.
    /// Returns the number of workers added.
    pub(crate) fn add_block(self: &Arc<Self>, nodes: usize) -> Result<usize, String> {
        let obs = &self.obs;
        // Covers the provider round-trip (batch-queue wait included). An
        // unfinished span from an Err return is simply dropped.
        let provision_span = obs.start_span(SpanKind::BlockProvision, 0, 0, &self.label);
        let granted = self.provider.provision(nodes)?;
        obs.finish_span(provision_span);
        obs.counter(names::HTEX_BLOCKS_ADDED).incr();
        let mut added = 0usize;
        let mut new_mgrs = Vec::with_capacity(granted.len());
        for node in granted {
            let per_node = if self.workers_per_node == 0 {
                node.cores()
            } else {
                self.workers_per_node
            };
            let node_name = node.spec.name.clone();
            let (tx, rx) = unbounded::<WorkerMsg>();
            let (result_tx, result_rx) = unbounded::<ResultMsg>();
            let mgr = Arc::new(ManagerState {
                node_name: node_name.clone(),
                tx,
                last_beat: AtomicU64::new(self.clock.now().as_micros() as u64),
                dead: AtomicBool::new(false),
                ledger: Mutex::new(Ledger::new()),
                result_tx,
                workers: Mutex::new(Vec::new()),
                heartbeat: Mutex::new(None),
                aggregator: Mutex::new(None),
                node: Mutex::new(Some(node)),
                worker_count: per_node,
            });
            {
                let mut workers = mgr.workers.lock();
                for w in 0..per_node {
                    let rx = rx.clone();
                    let mgr = mgr.clone();
                    let latency = self.latency.clone();
                    let plan = self.fault_plan.clone();
                    let obs = self.obs.clone();
                    let clock = self.clock.clone();
                    workers.push(
                        std::thread::Builder::new()
                            .name(format!("{}-{node_name}-w{w}", self.label))
                            .spawn(move || worker_loop(mgr, rx, latency, plan, obs, clock))
                            .map_err(|e| format!("failed to spawn HTEX worker: {e}"))?,
                    );
                }
            }
            {
                let aggregator = Aggregator {
                    mgr: mgr.clone(),
                    latency: self.latency.clone(),
                    plan: self.fault_plan.clone(),
                    htex: Arc::downgrade(self),
                    obs: self.obs.clone(),
                    clock: self.clock.clone(),
                };
                let cap = self.batch_size;
                *mgr.aggregator.lock() = Some(
                    std::thread::Builder::new()
                        .name(format!("{}-{node_name}-agg", self.label))
                        .spawn(move || aggregator.run(result_rx, cap))
                        .map_err(|e| format!("failed to spawn HTEX aggregator: {e}"))?,
                );
            }
            {
                let mgr_for_beat = mgr.clone();
                let plan = self.fault_plan.clone();
                let period = self.heartbeat.period;
                let stop = self.stop.clone();
                let me = Arc::downgrade(self);
                let clock = self.clock.clone();
                *mgr.heartbeat.lock() = Some(
                    std::thread::Builder::new()
                        .name(format!("{}-{node_name}-hb", self.label))
                        .spawn(move || heartbeat_loop(mgr_for_beat, period, plan, stop, me, clock))
                        .map_err(|e| format!("failed to spawn HTEX heartbeat: {e}"))?,
                );
            }
            added += per_node;
            new_mgrs.push(mgr);
        }
        // Register under one lock so a block granted while shutdown was
        // draining the registry is caught here (the provision can sit in the
        // batch queue for a long time; shutdown may well finish first).
        {
            let mut registry = self.managers.lock();
            if !self.stop.is_raised() {
                registry.extend(new_mgrs.iter().cloned());
                self.worker_total.fetch_add(added, Ordering::SeqCst);
                drop(registry);
                // A queue held for want of a live node can go out now.
                let _ = self.dispatch_tx.send(DispatchMsg::Wake);
                return Ok(added);
            }
        }
        // Shutdown raced this provisioning: tear the block back down.
        for mgr in &new_mgrs {
            for _ in 0..mgr.worker_count {
                let _ = mgr.tx.send(WorkerMsg::Stop);
            }
        }
        let mut nodes = Vec::with_capacity(new_mgrs.len());
        for mgr in new_mgrs {
            for w in mgr.workers.lock().drain(..) {
                let _ = w.join();
            }
            if let Some(hb) = mgr.heartbeat.lock().take() {
                let _ = hb.join();
            }
            let _ = mgr.result_tx.send(ResultMsg::Stop);
            if let Some(agg) = mgr.aggregator.lock().take() {
                let _ = agg.join();
            }
            if let Some(node) = mgr.node.lock().take() {
                nodes.push(node);
            }
        }
        self.provider.release(nodes);
        Err("executor shut down during provisioning".to_string())
    }

    /// Number of live managers (nodes) currently connected.
    pub(crate) fn manager_count(&self) -> usize {
        self.managers
            .lock()
            .iter()
            .filter(|m| !m.dead.load(Ordering::SeqCst))
            .count()
    }

    /// Refill `into` with the managers not known dead.
    fn live_managers(&self, into: &mut Vec<Arc<ManagerState>>) {
        into.clear();
        into.extend(
            self.managers
                .lock()
                .iter()
                .filter(|m| !m.dead.load(Ordering::SeqCst))
                .cloned(),
        );
    }

    /// Names of connected nodes the monitor has not declared dead.
    pub fn live_nodes(&self) -> Vec<String> {
        self.node_names(false)
    }

    /// The node table: names of registered nodes that are (or are not)
    /// dead.
    fn node_names(&self, dead: bool) -> Vec<String> {
        self.managers
            .lock()
            .iter()
            .filter(|m| m.dead.load(Ordering::SeqCst) == dead)
            .map(|m| m.node_name.clone())
            .collect()
    }

    /// A manager stopped heartbeating (or its node was killed): drain its
    /// ledger back to the dispatcher, wake its idle workers so they exit,
    /// and act on what the loss leaves to do. A loss already processed
    /// drains nothing.
    fn handle_node_loss(self: &Arc<Self>, mgr: &ManagerState) {
        let Some(orphans) = mgr.ledger.lock().mark_lost() else {
            return;
        };
        for _ in 0..mgr.worker_count {
            let _ = mgr.tx.send(WorkerMsg::Stop);
        }
        let obs = &self.obs;
        obs.count(&obs.counter(names::HTEX_NODES_LOST));
        // The loss event is node-level (lineage 0); each orphan's
        // Redispatched span parents onto it, linking the task's lineage to
        // the loss that forced the re-queue.
        let loss_span = obs.instant_span(SpanKind::NodeLost, 0, 0, &mgr.node_name);
        self.worker_total
            .fetch_sub(mgr.worker_count, Ordering::SeqCst);
        let redispatches = obs.counter(names::HTEX_REDISPATCHES);
        for (_, payload) in orphans {
            obs.count(&redispatches);
            obs.instant_span(
                SpanKind::Redispatched,
                payload.ctx.lineage,
                loss_span,
                &mgr.node_name,
            );
            if let Err(err) = self.dispatch_tx.send(DispatchMsg::Task(payload)) {
                if let DispatchMsg::Task(payload) = err.0 {
                    self.fail_task(payload, TaskError::Shutdown);
                }
            }
        }
        match after_loss(self.manager_count(), self.min_nodes) {
            AfterLoss::Replace => {
                // Provision the replacement off-thread: the request can wait
                // in the batch queue indefinitely (e.g. no spare node until
                // our own dead allocation is returned), and the monitor must
                // keep scanning — and shutdown must not hang joining it.
                let h = self.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("{}-replace", self.label))
                    .spawn(move || match h.add_block(1) {
                        Ok(_) => h.obs.count(&h.obs.counter(names::HTEX_BLOCKS_REPLACED)),
                        Err(_) => {
                            if after_loss(h.manager_count(), 0) == AfterLoss::FailAll {
                                h.fail_all();
                            }
                        }
                    });
                if spawned.is_err() && after_loss(self.manager_count(), 0) == AfterLoss::FailAll {
                    self.fail_all();
                }
            }
            AfterLoss::FailAll => self.fail_all(),
            AfterLoss::Nothing => {}
        }
    }

    /// Every node is lost and none will replace them: the dispatcher fails
    /// what it holds, and everything submitted after.
    fn fail_all(&self) {
        self.failed.store(true, Ordering::SeqCst);
        let _ = self.dispatch_tx.send(DispatchMsg::Wake);
    }

    /// Complete a task the executor gives up on.
    fn fail_task(&self, payload: TaskPayload, err: TaskError) {
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
        payload.complete(Err(err));
    }
}

/// The interchange: places the queue on live managers in chunks planned by
/// [`Dispatch`], recording each chunk in its manager's ledger before
/// sending it. Blocks only when there is nothing to place — the queue is
/// empty, or no manager is live, in which case the queue is held until a
/// node registers or the executor fails.
fn dispatcher_loop(
    rx: Receiver<DispatchMsg>,
    htex: Weak<HighThroughputExecutor>,
    mut dispatch: Dispatch,
) {
    let mut queue: VecDeque<TaskPayload> = VecDeque::new();
    let mut live: Vec<Arc<ManagerState>> = Vec::new();
    let mut held = false;
    let mut stopping = false;
    while !stopping {
        if queue.is_empty() || held {
            match rx.recv() {
                Ok(DispatchMsg::Task(payload)) => queue.push_back(payload),
                Ok(DispatchMsg::Wake) => {}
                Ok(DispatchMsg::Stop) | Err(_) => stopping = true,
            }
        }
        let Some(h) = htex.upgrade() else { break };
        h.live_managers(&mut live);
        // Greedily take whatever has already accumulated, up to one full
        // message per live manager.
        while !stopping && queue.len() < dispatch.round_cap(live.len()) {
            match rx.try_recv() {
                Ok(DispatchMsg::Task(payload)) => queue.push_back(payload),
                Ok(DispatchMsg::Wake) => {}
                Ok(DispatchMsg::Stop) => stopping = true,
                Err(_) => break,
            }
        }
        held = live.is_empty();
        if held {
            let err = if stopping || h.stop.is_raised() {
                Some(TaskError::Shutdown)
            } else if h.failed.load(Ordering::SeqCst) {
                Some(TaskError::ExecutorLost(
                    "all nodes lost and no replacement could be provisioned".to_string(),
                ))
            } else {
                None
            };
            if let Some(err) = err {
                for payload in queue.drain(..) {
                    h.fail_task(payload, err.clone());
                }
            }
            continue;
        }
        let obs = &h.obs;
        for chunk in dispatch.plan(queue.len(), live.len()) {
            let mgr = &live[chunk.slot];
            // A manager lost since `live` was read refuses the chunk; its
            // tasks stay at the front of the queue for the next chunk or
            // round.
            if !mgr
                .ledger
                .lock()
                .insert(chunk.first, queue.iter().take(chunk.len).cloned())
            {
                continue;
            }
            if obs.is_enabled() {
                // Batch occupancy: how full each interchange→manager
                // message actually was.
                obs.histogram(names::HTEX_BATCH_OCCUPANCY)
                    .record(chunk.len as u64);
                for payload in queue.iter().take(chunk.len) {
                    obs.instant_span(
                        SpanKind::BatchEnqueue,
                        payload.ctx.lineage,
                        payload.ctx.parent,
                        &mgr.node_name,
                    );
                }
            }
            // One shared ticket per message: the first worker to pick any
            // task of this chunk pays the dispatch latency, once. A failed
            // send needs nothing: the task is in the ledger, and whatever
            // stopped the workers (a loss, shutdown) drains it.
            let ticket = Arc::new(AtomicBool::new(false));
            for (attempt, payload) in (chunk.first..).zip(queue.drain(..chunk.len)) {
                let _ = mgr.tx.send(WorkerMsg::Task {
                    attempt,
                    payload,
                    ticket: ticket.clone(),
                });
            }
        }
    }
    // Stopped (or the executor is gone): whatever was never placed fails.
    let h = htex.upgrade();
    let unread = std::iter::from_fn(|| rx.try_recv().ok());
    for msg in queue.into_iter().map(DispatchMsg::Task).chain(unread) {
        match (msg, &h) {
            (DispatchMsg::Task(payload), Some(h)) => h.fail_task(payload, TaskError::Shutdown),
            (DispatchMsg::Task(payload), None) => payload.complete(Err(TaskError::Shutdown)),
            _ => {}
        }
    }
}

/// One worker slot on a node: pull, (maybe) die per the fault plan, run,
/// hand the result to the manager's reply aggregator.
fn worker_loop(
    mgr: Arc<ManagerState>,
    rx: Receiver<WorkerMsg>,
    latency: LatencyModel,
    plan: Option<FaultPlan>,
    obs: Arc<Observability>,
    clock: simtest::ClockRef,
) {
    while let Ok(WorkerMsg::Task {
        attempt,
        payload,
        ticket,
    }) = rx.recv()
    {
        if mgr.dead.load(Ordering::SeqCst) {
            // The node died with this task queued; it stays in the ledger
            // for the loss to re-dispatch.
            return;
        }
        if let Some(p) = &plan {
            if p.note_task(&mgr.node_name) {
                // The node just died; the task never ran and stays in
                // the ledger for re-dispatch.
                mgr.dead.store(true, Ordering::SeqCst);
                return;
            }
        }
        // The whole batch crossed the network as one message: the first
        // worker to pick any of its tasks pays the transfer cost (on the
        // worker, so transfers to different managers overlap); the rest of
        // the batch rides along free.
        if !ticket.swap(true, Ordering::SeqCst) {
            latency.pay_dispatch_on(&*clock);
        }
        let result = if obs.is_enabled() {
            let ctx = payload.ctx;
            obs.instant_span(
                SpanKind::ManagerRecv,
                ctx.lineage,
                ctx.parent,
                &mgr.node_name,
            );
            let span = obs.start_span(
                SpanKind::WorkerExec,
                ctx.lineage,
                ctx.parent,
                &mgr.node_name,
            );
            let t0 = obs.now_us();
            let result = payload.run();
            obs.histogram(names::TASK_EXEC_US)
                .record(obs.now_us().saturating_sub(t0));
            obs.finish_span(span);
            result
        } else {
            payload.run()
        };
        if plan.as_ref().is_some_and(|p| p.is_dead(&mgr.node_name)) {
            // The node died while the task ran: the result dies with it and
            // the task stays in the ledger for re-dispatch.
            mgr.dead.store(true, Ordering::SeqCst);
            return;
        }
        // Acceptance, backlog accounting, and the (batched) result-path
        // latency all happen on the aggregator.
        let _ = mgr.result_tx.send(ResultMsg::Done { attempt, result });
    }
}

/// One manager's reply aggregator: collects finished tasks from the node's
/// workers and flushes them to the submit side in batches, paying the
/// modelled result-path latency once per reply message instead of once per
/// task. The ledger decides which results count.
struct Aggregator {
    mgr: Arc<ManagerState>,
    latency: LatencyModel,
    plan: Option<FaultPlan>,
    htex: Weak<HighThroughputExecutor>,
    obs: Arc<Observability>,
    clock: simtest::ClockRef,
}

impl Aggregator {
    fn run(self, rx: Receiver<ResultMsg>, batch_size: usize) {
        let mut batch: Vec<(Attempt, TaskResult)> = Vec::with_capacity(batch_size);
        let mut accepted: Vec<(TaskPayload, TaskResult)> = Vec::with_capacity(batch_size);
        let mut stop = false;
        while !stop {
            match rx.recv() {
                Ok(ResultMsg::Done { attempt, result }) => batch.push((attempt, result)),
                Ok(ResultMsg::Stop) | Err(_) => stop = true,
            }
            loop {
                while batch.len() < batch_size {
                    match rx.try_recv() {
                        Ok(ResultMsg::Done { attempt, result }) => batch.push((attempt, result)),
                        Ok(ResultMsg::Stop) => {
                            stop = true;
                            break;
                        }
                        Err(_) => break,
                    }
                }
                if batch.is_empty() {
                    break;
                }
                self.flush(&mut batch, &mut accepted);
                if !stop {
                    break;
                }
                // Stopping: keep flushing in message-sized batches until
                // the queue is dry.
            }
        }
    }

    /// Deliver one reply message's worth of results: the ledger hands back
    /// the payload of each attempt still in flight, and only those complete.
    fn flush(
        &self,
        batch: &mut Vec<(Attempt, TaskResult)>,
        accepted: &mut Vec<(TaskPayload, TaskResult)>,
    ) {
        let mgr = &self.mgr;
        if self
            .plan
            .as_ref()
            .is_some_and(|p| p.is_dead(&mgr.node_name))
        {
            // The node died before this reply left it: the results die with
            // it and the tasks stay in the ledger for the loss to drain.
            mgr.dead.store(true, Ordering::SeqCst);
            batch.clear();
            return;
        }
        {
            let mut ledger = mgr.ledger.lock();
            for (attempt, result) in batch.drain(..) {
                if let Some(payload) = ledger.accept(attempt) {
                    accepted.push((payload, result));
                }
            }
        }
        if accepted.is_empty() {
            return;
        }
        // Settle the backlog BEFORE completing the tasks: a test that sees
        // a completion reads the backlog next.
        if let Some(h) = self.htex.upgrade() {
            h.outstanding.fetch_sub(accepted.len(), Ordering::SeqCst);
        }
        // One reply message for the whole batch.
        self.latency.pay_result_on(&*self.clock);
        if self.obs.is_enabled() {
            for (payload, _) in accepted.iter() {
                self.obs.instant_span(
                    SpanKind::ResultReturn,
                    payload.ctx.lineage,
                    payload.ctx.parent,
                    &mgr.node_name,
                );
            }
        }
        for (payload, result) in accepted.drain(..) {
            // A panicking completion callback must not take the aggregator
            // down (the counter is already settled above).
            let _ =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| payload.complete(result)));
        }
    }
}

/// Periodically refresh this manager's heartbeat: one wait per period,
/// ended early only by executor shutdown. A dead node stops beating —
/// detection is the monitor's job, as with real HTEX managers.
fn heartbeat_loop(
    mgr: Arc<ManagerState>,
    period: Duration,
    plan: Option<FaultPlan>,
    stop: Arc<StopSignal>,
    htex: Weak<HighThroughputExecutor>,
    clock: simtest::ClockRef,
) {
    while clock.wait(period, &stop) == Waited::Elapsed {
        // An executor dropped without `shutdown` raises nothing.
        if htex.strong_count() == 0 || mgr.dead.load(Ordering::SeqCst) {
            return;
        }
        if plan.as_ref().is_some_and(|p| p.is_dead(&mgr.node_name)) {
            return;
        }
        mgr.last_beat
            .store(clock.now().as_micros() as u64, Ordering::SeqCst);
    }
}

/// Submit-side failure detector: declare managers with stale heartbeats
/// dead and process each loss once. Scans at the instants the heartbeat
/// rule names; shutdown wakes it out of the wait in between.
fn monitor_loop(htex: Weak<HighThroughputExecutor>) {
    loop {
        let Some(h) = htex.upgrade() else { return };
        if h.stop.is_raised() {
            return;
        }
        let clock = h.clock.clone();
        let now = clock.now();
        let managers: Vec<Arc<ManagerState>> = h.managers.lock().clone();
        for mgr in &managers {
            let last_beat = Duration::from_micros(mgr.last_beat.load(Ordering::SeqCst));
            if !mgr.dead.load(Ordering::SeqCst) && h.heartbeat.is_stale(now, last_beat) {
                mgr.dead.store(true, Ordering::SeqCst);
                h.obs.counter(names::HTEX_HEARTBEAT_MISSES).incr();
            }
            if mgr.dead.load(Ordering::SeqCst) {
                h.handle_node_loss(mgr);
            }
        }
        let next = h.heartbeat.next_scan(now);
        let stop = h.stop.clone();
        drop(h);
        if clock.wait(next.saturating_sub(clock.now()), &stop) == Waited::Stopped {
            return;
        }
    }
}

impl Executor for HighThroughputExecutor {
    fn submit(&self, task: TaskPayload) {
        if self.stop.is_raised() {
            // Fail fast instead of enqueueing onto a stopped dispatcher —
            // the task must never be left unresolved.
            task.complete(Err(TaskError::Shutdown));
            return;
        }
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        if let Err(err) = self.dispatch_tx.send(DispatchMsg::Task(task)) {
            if let DispatchMsg::Task(payload) = err.0 {
                self.fail_task(payload, TaskError::Shutdown);
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn worker_count(&self) -> usize {
        self.worker_total.load(Ordering::SeqCst)
    }

    fn shutdown(&self) {
        if self.stop.raise() {
            return;
        }
        // The monitor first: once it is joined nothing re-dispatches, so
        // the dispatcher's last drain sees every task still to place.
        if let Some(m) = self.monitor.lock().take() {
            let _ = m.join();
        }
        let _ = self.dispatch_tx.send(DispatchMsg::Stop);
        if let Some(d) = self.dispatcher.lock().take() {
            let _ = d.join();
        }
        // Dead managers stay registered: the node table is what
        // `lost_nodes` reads, and the fault story outlives the executor.
        let managers: Vec<Arc<ManagerState>> = {
            let mut lock = self.managers.lock();
            let all = lock.clone();
            lock.retain(|m| m.dead.load(Ordering::SeqCst));
            all
        };
        for mgr in &managers {
            for _ in 0..mgr.worker_count {
                let _ = mgr.tx.send(WorkerMsg::Stop);
            }
        }
        let mut nodes = Vec::with_capacity(managers.len());
        for mgr in &managers {
            for w in mgr.workers.lock().drain(..) {
                let _ = w.join();
            }
            if let Some(hb) = mgr.heartbeat.lock().take() {
                let _ = hb.join();
            }
            // Workers are joined, so no more results are coming: stop the
            // aggregator after it drains and delivers what they produced.
            let _ = mgr.result_tx.send(ResultMsg::Stop);
            if let Some(agg) = mgr.aggregator.lock().take() {
                let _ = agg.join();
            }
            // Whatever never ran (queued on a dead or stopping manager)
            // must still resolve.
            if let Some(left) = mgr.ledger.lock().mark_lost() {
                for (_, payload) in left {
                    self.fail_task(payload, TaskError::Shutdown);
                }
            }
            // Dead managers' pilot jobs are released too — the provider
            // dedups by job, so sharing a job with live nodes is fine.
            if let Some(node) = mgr.node.lock().take() {
                nodes.push(node);
            }
        }
        self.provider.release(nodes);
    }

    fn lost_nodes(&self) -> Vec<String> {
        self.node_names(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::tests::payload;
    use crate::provider::{LocalProvider, SlurmProvider};
    use gridsim::{BatchScheduler, ClusterSpec, SchedulerConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use yamlite::Value;

    impl HighThroughputExecutor {
        /// Tasks submitted but not yet finished.
        fn outstanding_tasks(&self) -> usize {
            self.outstanding.load(Ordering::SeqCst)
        }
    }

    fn no_latency(label: &str, nodes: usize, wpn: usize) -> HtexConfig {
        HtexConfig {
            label: label.to_string(),
            nodes,
            workers_per_node: wpn,
            latency: LatencyModel::in_process(),
            ..HtexConfig::default()
        }
    }

    fn submit_value(htex: &HighThroughputExecutor, i: u64) -> crate::future::AppFuture {
        let (fut, task) = payload(i, move || Ok(Value::Int(i as i64)));
        htex.submit(task);
        fut
    }

    #[test]
    fn runs_tasks_across_nodes() {
        let htex = HighThroughputExecutor::start(
            no_latency("htex", 3, 2),
            Arc::new(LocalProvider::new(2)),
            Arc::new(Observability::off()),
        )
        .unwrap();
        assert_eq!(htex.manager_count(), 3);
        assert_eq!(htex.worker_count(), 6);
        let futs: Vec<_> = (0..12).map(|i| submit_value(&htex, i)).collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(f.result().unwrap(), Value::Int(i as i64));
        }
        assert_eq!(htex.outstanding_tasks(), 0);
        htex.shutdown();
    }

    #[test]
    fn shutdown_wakes_heartbeat_and_monitor_parked_for_an_hour() {
        // Manual virtual clock, never advanced: the two heartbeat threads
        // and the monitor can only leave their hour-long waits by being
        // woken. With sleep-then-check loops this shutdown never returns.
        let vc = simtest::VirtualClock::new();
        vc.set_auto(false);
        let htex = HighThroughputExecutor::start(
            HtexConfig {
                heartbeat_period: Duration::from_secs(3600),
                heartbeat_threshold: Duration::from_secs(36_000),
                clock: vc.clone(),
                ..no_latency("htex", 2, 1)
            },
            Arc::new(LocalProvider::new(1)),
            Arc::new(Observability::off()),
        )
        .unwrap();
        // The executor works while they are parked.
        assert_eq!(submit_value(&htex, 1).result().unwrap(), Value::Int(1));
        assert!(
            simtest::wait_until(Duration::from_secs(20), || vc.sleeper_count() == 3),
            "heartbeats and monitor never parked on the executor's clock"
        );
        let h = htex.clone();
        assert!(
            simtest::returns_within(Duration::from_secs(20), move || h.shutdown()).is_some(),
            "shutdown waited out a heartbeat period"
        );
        assert_eq!(vc.sleeper_count(), 0, "a stopped wait left its deadline");
        assert_eq!(htex.outstanding_tasks(), 0);
    }

    #[test]
    fn workers_per_node_zero_uses_cores() {
        let htex = HighThroughputExecutor::start(
            no_latency("htex", 2, 0),
            Arc::new(LocalProvider::new(3)),
            Arc::new(Observability::off()),
        )
        .unwrap();
        assert_eq!(htex.worker_count(), 6);
        htex.shutdown();
    }

    #[test]
    fn add_block_scales_out() {
        let sched = BatchScheduler::new(ClusterSpec::small(4, 2), SchedulerConfig::immediate());
        let provider = Arc::new(SlurmProvider::new(sched.clone()));
        let htex = HighThroughputExecutor::start(
            no_latency("htex", 1, 2),
            provider,
            Arc::new(Observability::off()),
        )
        .unwrap();
        assert_eq!(htex.worker_count(), 2);
        assert_eq!(sched.free_node_count(), 3);
        let added = htex.add_block(2).unwrap();
        assert_eq!(added, 4);
        assert_eq!(htex.worker_count(), 6);
        assert_eq!(htex.manager_count(), 3);
        assert_eq!(sched.free_node_count(), 1);
        // New workers actually execute tasks.
        let fut = submit_value(&htex, 1);
        fut.result().unwrap();
        htex.shutdown();
        assert_eq!(sched.free_node_count(), 4);
    }

    #[test]
    fn slurm_nodes_released_on_shutdown() {
        let sched = BatchScheduler::new(ClusterSpec::small(3, 2), SchedulerConfig::immediate());
        let provider = Arc::new(SlurmProvider::new(sched.clone()));
        let htex = HighThroughputExecutor::start(
            no_latency("htex", 2, 1),
            provider,
            Arc::new(Observability::off()),
        )
        .unwrap();
        assert_eq!(sched.free_node_count(), 1);
        let fut = submit_value(&htex, 1);
        fut.result().unwrap();
        htex.shutdown();
        assert_eq!(sched.free_node_count(), 3);
    }

    #[test]
    fn parallelism_spans_managers() {
        let htex = HighThroughputExecutor::start(
            no_latency("htex", 2, 2),
            Arc::new(LocalProvider::new(2)),
            Arc::new(Observability::off()),
        )
        .unwrap();
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut futs = Vec::new();
        for i in 0..8 {
            let running = running.clone();
            let peak = peak.clone();
            let (fut, task) = payload(i, move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(25));
                running.fetch_sub(1, Ordering::SeqCst);
                Ok(Value::Null)
            });
            htex.submit(task);
            futs.push(fut);
        }
        for f in &futs {
            f.result().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) >= 3, "peak {peak:?}");
        htex.shutdown();
    }

    #[test]
    fn oversubscribed_provider_fails_start() {
        let sched = BatchScheduler::new(ClusterSpec::small(2, 2), SchedulerConfig::immediate());
        let provider = Arc::new(SlurmProvider::new(sched));
        assert!(HighThroughputExecutor::start(
            no_latency("htex", 5, 1),
            provider,
            Arc::new(Observability::off())
        )
        .is_err());
    }

    #[test]
    fn outstanding_counts_backlog() {
        let htex = HighThroughputExecutor::start(
            no_latency("htex", 1, 1),
            Arc::new(LocalProvider::new(1)),
            Arc::new(Observability::off()),
        )
        .unwrap();
        let gate = Arc::new(parking_lot::Mutex::new(()));
        let held = gate.lock();
        let mut futs = Vec::new();
        for i in 0..4 {
            let gate = gate.clone();
            let (fut, task) = payload(i, move || {
                let _g = gate.lock();
                Ok(Value::Null)
            });
            htex.submit(task);
            futs.push(fut);
        }
        assert!(
            simtest::wait_until(Duration::from_secs(5), || htex.outstanding_tasks() >= 3),
            "{}",
            htex.outstanding_tasks()
        );
        drop(held);
        for f in &futs {
            f.result().unwrap();
        }
        assert_eq!(htex.outstanding_tasks(), 0);
        htex.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails_fast() {
        let htex = HighThroughputExecutor::start(
            no_latency("htex", 1, 1),
            Arc::new(LocalProvider::new(1)),
            Arc::new(Observability::off()),
        )
        .unwrap();
        htex.shutdown();
        let (fut, task) = payload(1, || Ok(Value::Int(1)));
        htex.submit(task);
        match fut.result_timeout(Duration::from_secs(2)) {
            Some(Err(TaskError::Shutdown)) => {}
            other => panic!("expected fast Shutdown error, got {other:?}"),
        }
    }

    #[test]
    fn node_kill_redispatches_in_flight_tasks() {
        // Two single-worker nodes; localhost/0 dies after executing one
        // task, stranding whatever was queued or running on it.
        let plan = FaultPlan::new().kill_after_tasks("localhost/0", 1);
        let obs = Arc::new(Observability::off());
        let htex = HighThroughputExecutor::start(
            HtexConfig {
                label: "htex".to_string(),
                nodes: 2,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                fault_plan: Some(plan.clone()),
                ..HtexConfig::default()
            },
            Arc::new(LocalProvider::new(1)),
            obs.clone(),
        )
        .unwrap();
        let futs: Vec<_> = (1..=10).map(|i| submit_value(&htex, i)).collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(
                f.result_timeout(Duration::from_secs(10))
                    .expect("task hung after node kill")
                    .unwrap(),
                Value::Int(i as i64 + 1)
            );
        }
        assert!(plan.is_dead("localhost/0"));
        // The monitor notices the death within a heartbeat or two.
        let lost = obs.counter(names::HTEX_NODES_LOST);
        assert!(obs.wait_for(Duration::from_secs(5), || lost.value() == 1));
        assert_eq!(htex.manager_count(), 1);
        assert_eq!(htex.lost_nodes(), vec!["localhost/0".to_string()]);
        assert_eq!(htex.outstanding_tasks(), 0);
        htex.shutdown();
    }

    #[test]
    fn silent_node_detected_by_stale_heartbeat() {
        // kill_now stops the heartbeat without any task arriving: only the
        // staleness threshold can detect this death.
        let plan = FaultPlan::new().kill_now("localhost/1");
        let obs = Arc::new(Observability::off());
        let htex = HighThroughputExecutor::start(
            HtexConfig {
                label: "htex".to_string(),
                nodes: 2,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                fault_plan: Some(plan),
                heartbeat_period: Duration::from_millis(10),
                heartbeat_threshold: Duration::from_millis(100),
                ..HtexConfig::default()
            },
            Arc::new(LocalProvider::new(1)),
            obs.clone(),
        )
        .unwrap();
        let lost = obs.counter(names::HTEX_NODES_LOST);
        assert!(obs.wait_for(Duration::from_secs(5), || lost.value() == 1));
        assert_eq!(htex.manager_count(), 1);
        // The surviving node still executes work.
        let fut = submit_value(&htex, 1);
        assert_eq!(
            fut.result_timeout(Duration::from_secs(5)).unwrap().unwrap(),
            Value::Int(1)
        );
        htex.shutdown();
    }

    #[test]
    fn min_nodes_floor_replaces_lost_block() {
        // 3-node cluster, HTEX holds 2 with a floor of 2; when node01 dies
        // a replacement block must be provisioned from the spare node.
        let sched = BatchScheduler::new(ClusterSpec::small(3, 1), SchedulerConfig::immediate());
        let provider = Arc::new(SlurmProvider::new(sched.clone()));
        let plan = FaultPlan::new().kill_after_tasks("node01", 1);
        let obs = Arc::new(Observability::off());
        let htex = HighThroughputExecutor::start(
            HtexConfig {
                label: "htex".to_string(),
                nodes: 2,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                fault_plan: Some(plan),
                min_nodes: 2,
                ..HtexConfig::default()
            },
            provider,
            obs.clone(),
        )
        .unwrap();
        let futs: Vec<_> = (1..=8).map(|i| submit_value(&htex, i)).collect();
        for f in &futs {
            f.result_timeout(Duration::from_secs(10))
                .expect("task hung")
                .unwrap();
        }
        let replaced = obs.counter(names::HTEX_BLOCKS_REPLACED);
        obs.wait_for(Duration::from_secs(5), || replaced.value() > 0);
        assert_eq!(obs.counter(names::HTEX_NODES_LOST).value(), 1);
        assert_eq!(replaced.value(), 1);
        assert_eq!(htex.manager_count(), 2);
        htex.shutdown();
        // Both the dead node's pilot job and the live ones are released.
        assert_eq!(sched.free_node_count(), 3);
    }

    #[test]
    fn replacement_starved_of_nodes_does_not_hang_shutdown() {
        // 2-node cluster fully held by the executor with a floor of 2: when
        // node01 dies there is no spare node, so the replacement request
        // waits in the batch queue indefinitely. Tasks must still finish on
        // the survivor and shutdown must return promptly — the monitor must
        // never be the thread blocked on provisioning.
        let sched = BatchScheduler::new(ClusterSpec::small(2, 1), SchedulerConfig::immediate());
        let provider = Arc::new(SlurmProvider::new(sched.clone()));
        let plan = FaultPlan::new().kill_after_tasks("node01", 1);
        let htex = HighThroughputExecutor::start(
            HtexConfig {
                label: "htex".to_string(),
                nodes: 2,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                fault_plan: Some(plan),
                min_nodes: 2,
                ..HtexConfig::default()
            },
            provider,
            Arc::new(Observability::off()),
        )
        .unwrap();
        let futs: Vec<_> = (1..=8).map(|i| submit_value(&htex, i)).collect();
        for f in &futs {
            f.result_timeout(Duration::from_secs(10))
                .expect("task hung")
                .unwrap();
        }
        let started = std::time::Instant::now();
        htex.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown stalled behind the starved replacement request"
        );
        // Both allocations come back; if the queued replacement was granted
        // after shutdown, the closed executor tears it down again.
        assert!(simtest::wait_until(Duration::from_secs(5), || sched
            .free_node_count()
            == 2));
        assert_eq!(sched.free_node_count(), 2);
    }

    #[test]
    fn all_nodes_lost_fails_pending_tasks() {
        // One node, no replacement floor: losing it must fail pending
        // tasks with ExecutorLost rather than hanging them.
        let plan = FaultPlan::new().kill_after_tasks("localhost/0", 0);
        let htex = HighThroughputExecutor::start(
            HtexConfig {
                label: "htex".to_string(),
                nodes: 1,
                workers_per_node: 1,
                latency: LatencyModel::in_process(),
                fault_plan: Some(plan),
                ..HtexConfig::default()
            },
            Arc::new(LocalProvider::new(1)),
            Arc::new(Observability::off()),
        )
        .unwrap();
        let fut = submit_value(&htex, 1);
        match fut.result_timeout(Duration::from_secs(10)) {
            Some(Err(TaskError::ExecutorLost(_))) => {}
            other => panic!("expected ExecutorLost, got {other:?}"),
        }
        assert_eq!(htex.outstanding_tasks(), 0);
        htex.shutdown();
    }
}
