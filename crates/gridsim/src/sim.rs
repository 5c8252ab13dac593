//! Deterministic discrete-event simulation of the executor stack.
//!
//! This is the virtual-time event loop the simtest harness drives: simulated
//! nodes with a fixed worker count, one message delay per dispatched chunk
//! and per result, heartbeats with a staleness monitor, and fault injection
//! at chosen logical instants. Every protocol decision is made by
//! [`crate::interchange`], the code `parsl::htex` ships: the chunk plan and
//! round-robin node choice, the per-node ledger (a result counts only while
//! its attempt is in flight; a loss drains exactly the unfinished set and a
//! lost node's late results are dropped), heartbeat staleness and the scan
//! instant, and the after-loss decision. The engine adds what HTEX gets from
//! threads and the network — an event heap in logical time, seeded draws, a
//! worker FIFO per node and fault delivery — and runs single-threaded, so
//! the *entire* schedule is a pure function of the seed: the same seed
//! produces a byte-identical event log, and a failing seed replays the exact
//! interleaving in a debugger.
//!
//! Invariants are checked inside the engine as events are applied (not
//! re-derived afterwards from the log):
//!
//! * **no lost tasks** — every task completes unless every node that could
//!   run it has been killed (reported as `stranded`, distinct from a bug);
//! * **no double completion** — a task result is accepted at most once;
//! * **lost-node exclusion** — a task attempt that was re-dispatched after
//!   its node was declared lost is never *also* accepted from that node.

use crate::interchange::{after_loss, AfterLoss, Attempt, Dispatch, Heartbeat, Ledger};
use simtest::SimRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::time::Duration;

/// One task in a simulated workflow DAG. `deps` are indices of tasks that
/// must complete first (always smaller than the task's own index).
#[derive(Clone, Debug)]
pub struct SimTask {
    pub(crate) label: String,
    pub(crate) deps: Vec<usize>,
}

/// A workflow DAG for the simulator.
#[derive(Clone, Debug)]
pub struct SimDag {
    pub tasks: Vec<SimTask>,
}

impl SimDag {
    fn task(label: impl Into<String>, deps: Vec<usize>) -> SimTask {
        SimTask {
            label: label.into(),
            deps,
        }
    }

    /// The paper's 4-step diamond: seed → (left, right) → join.
    pub(crate) fn diamond() -> Self {
        SimDag {
            tasks: vec![
                Self::task("seed", vec![]),
                Self::task("left", vec![0]),
                Self::task("right", vec![0]),
                Self::task("join", vec![1, 2]),
            ],
        }
    }

    /// Fan-out/fan-in: seed → `width` shards → join.
    pub(crate) fn scatter(width: usize) -> Self {
        let mut tasks = vec![Self::task("seed", vec![])];
        for i in 0..width {
            tasks.push(Self::task(format!("shard{i}"), vec![0]));
        }
        tasks.push(Self::task("join", (1..=width).collect()));
        SimDag { tasks }
    }

    /// A strict chain of `n` tasks.
    pub(crate) fn chain(n: usize) -> Self {
        let tasks = (0..n)
            .map(|i| Self::task(format!("c{i}"), if i == 0 { vec![] } else { vec![i - 1] }))
            .collect();
        SimDag { tasks }
    }

    /// A random DAG over `n` tasks; edges only point forward, so it is
    /// acyclic by construction.
    pub(crate) fn random(rng: &mut SimRng, n: usize) -> Self {
        let tasks = (0..n)
            .map(|i| {
                let mut deps = Vec::new();
                for j in 0..i {
                    if rng.gen_bool(2.0 / (i as f64 + 1.0)) {
                        deps.push(j);
                    }
                }
                Self::task(format!("t{i}"), deps)
            })
            .collect();
        SimDag { tasks }
    }
}

/// Kill `node` at logical instant `at_us`.
#[derive(Clone, Copy, Debug)]
pub struct SimFault {
    pub(crate) node: usize,
    pub(crate) at_us: u64,
}

/// Simulation parameters. All times are logical microseconds; `(lo, hi)`
/// pairs are half-open uniform draw ranges.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub(crate) seed: u64,
    pub nodes: usize,
    pub(crate) workers_per_node: usize,
    pub(crate) heartbeat_period_us: u64,
    pub(crate) heartbeat_threshold_us: u64,
    /// Maximum tasks per dispatched message, as HTEX's `batch_size`.
    pub(crate) batch_size: usize,
    pub(crate) exec_us: (u64, u64),
    pub(crate) dispatch_delay_us: (u64, u64),
    pub(crate) result_delay_us: (u64, u64),
    pub(crate) faults: Vec<SimFault>,
}

impl SimConfig {
    /// Small healthy cluster, no faults.
    pub(crate) fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            nodes: 3,
            workers_per_node: 2,
            heartbeat_period_us: 1_000,
            heartbeat_threshold_us: 4_000,
            batch_size: 8,
            exec_us: (200, 2_000),
            dispatch_delay_us: (10, 200),
            result_delay_us: (10, 200),
            faults: Vec::new(),
        }
    }
}

/// What happened, when. `seq` is the tie-breaker within one logical instant;
/// together `(at_us, seq)` totally order the schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimEvent {
    pub(crate) at_us: u64,
    pub(crate) seq: u64,
    pub kind: SimEventKind,
}

/// `attempt` is the dispatch attempt number: unique across the run and
/// increasing in dispatch order (a re-dispatch takes a new one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimEventKind {
    Dispatch {
        task: usize,
        node: usize,
        attempt: u32,
    },
    Complete {
        task: usize,
        node: usize,
        attempt: u32,
    },
    Kill {
        node: usize,
    },
    NodeLost {
        node: usize,
    },
    Redispatched {
        task: usize,
        node: usize,
        attempt: u32,
    },
    ResultDropped {
        task: usize,
        node: usize,
        attempt: u32,
    },
    Stranded {
        task: usize,
    },
}

impl SimEvent {
    fn render(&self, labels: &[String]) -> String {
        let name = |t: &usize| labels[*t].as_str();
        match &self.kind {
            SimEventKind::Dispatch {
                task,
                node,
                attempt,
            } => format!("dispatch {} -> node{node} attempt {attempt}", name(task)),
            SimEventKind::Complete {
                task,
                node,
                attempt,
            } => format!("complete {} on node{node} attempt {attempt}", name(task)),
            SimEventKind::Kill { node } => format!("kill node{node}"),
            SimEventKind::NodeLost { node } => format!("node-lost node{node}"),
            SimEventKind::Redispatched {
                task,
                node,
                attempt,
            } => format!(
                "redispatch {} (was node{node} attempt {attempt})",
                name(task)
            ),
            SimEventKind::ResultDropped {
                task,
                node,
                attempt,
            } => format!(
                "result-dropped {} from node{node} attempt {attempt}",
                name(task)
            ),
            SimEventKind::Stranded { task } => format!("stranded {}", name(task)),
        }
    }
}

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    pub events: Vec<SimEvent>,
    pub labels: Vec<String>,
    pub completed: usize,
    pub redispatches: usize,
    pub nodes_lost: Vec<usize>,
    pub stranded: Vec<usize>,
    pub violations: Vec<String>,
    pub makespan_us: u64,
}

impl SimReport {
    /// All tasks ran to completion (nothing lost, nothing stranded).
    pub fn all_completed(&self) -> bool {
        self.stranded.is_empty() && self.completed == self.labels.len()
    }

    /// Byte-stable rendering of the schedule: one line per event, ordered by
    /// `(at_us, seq)`. Two runs of the same seed must produce identical
    /// bytes here — CI diffs this output directly.
    pub fn event_log(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            let _ = writeln!(
                out,
                "{:>10}us #{:04} {}",
                ev.at_us,
                ev.seq,
                ev.render(&self.labels)
            );
        }
        out
    }
}

struct TaskInfo {
    deps_left: usize,
    children: Vec<usize>,
    done: bool,
}

struct NodeState {
    /// False once a fault has killed the node: it runs and sends nothing.
    alive: bool,
    last_beat_us: u64,
    /// What the submit side sent this node and has not accepted back.
    ledger: Ledger<usize>,
    /// Delivered tasks waiting for a worker, in arrival order.
    fifo: VecDeque<Run>,
    /// Workers not running a task.
    idle: usize,
}

impl NodeState {
    /// Alive and not declared lost: a node whose workers take tasks.
    fn usable(&self) -> bool {
        self.alive && !self.ledger.is_lost()
    }
}

/// One task attempt on one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    task: usize,
    node: usize,
    attempt: Attempt,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    Kill(usize),
    Heartbeat(usize),
    MonitorScan,
    /// A dispatched task reaches its node (a message's tasks all arrive at
    /// one instant, in order).
    TaskArrive(Run),
    ExecDone(Run),
    ResultArrive(Run),
}

struct Engine {
    cfg: SimConfig,
    rng: SimRng,
    now_us: u64,
    /// Scheduled events, indexed by their (unique) sequence number; the heap
    /// orders `(at_us, seq)` pairs, so ties at one instant resolve in
    /// scheduling order.
    pending: Vec<Ev>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    tasks: Vec<TaskInfo>,
    nodes: Vec<NodeState>,
    ready: VecDeque<usize>,
    dispatch: Dispatch,
    heartbeat: Heartbeat,
    /// The after-loss decision failed everything: the run is over.
    failed: bool,
    // Report accumulation.
    labels: Vec<String>,
    events: Vec<SimEvent>,
    log_seq: u64,
    completed: usize,
    redispatches: usize,
    nodes_lost: Vec<usize>,
    violations: Vec<String>,
    /// (task, node, attempt) triples that were re-dispatched away from a
    /// lost node; accepting a result for one of these is the invariant
    /// violation the proptest hunts for.
    redispatched_attempts: HashSet<(usize, usize, Attempt)>,
}

/// Run `dag` under `cfg` and return the full schedule and its invariants.
pub(crate) fn run(cfg: &SimConfig, dag: &SimDag) -> SimReport {
    let mut tasks: Vec<TaskInfo> = dag
        .tasks
        .iter()
        .map(|t| TaskInfo {
            deps_left: t.deps.len(),
            children: Vec::new(),
            done: false,
        })
        .collect();
    for (i, t) in dag.tasks.iter().enumerate() {
        for &d in &t.deps {
            tasks[d].children.push(i);
        }
    }
    let ready: VecDeque<usize> = (0..tasks.len())
        .filter(|&i| tasks[i].deps_left == 0)
        .collect();
    let nodes = (0..cfg.nodes.max(1))
        .map(|_| NodeState {
            alive: true,
            last_beat_us: 0,
            ledger: Ledger::new(),
            fifo: VecDeque::new(),
            idle: cfg.workers_per_node.max(1),
        })
        .collect();

    let mut eng = Engine {
        rng: SimRng::seeded(cfg.seed),
        cfg: cfg.clone(),
        now_us: 0,
        pending: Vec::new(),
        queue: BinaryHeap::new(),
        tasks,
        nodes,
        ready,
        dispatch: Dispatch::new(cfg.batch_size),
        heartbeat: Heartbeat {
            period: Duration::from_micros(cfg.heartbeat_period_us),
            threshold: Duration::from_micros(cfg.heartbeat_threshold_us),
        },
        failed: false,
        labels: dag.tasks.iter().map(|t| t.label.clone()).collect(),
        events: Vec::new(),
        log_seq: 0,
        completed: 0,
        redispatches: 0,
        nodes_lost: Vec::new(),
        violations: Vec::new(),
        redispatched_attempts: HashSet::new(),
    };
    eng.run();

    let stranded: Vec<usize> = (0..eng.tasks.len())
        .filter(|&i| !eng.tasks[i].done)
        .collect();
    for &t in &stranded {
        eng.log(SimEventKind::Stranded { task: t });
        // A task left behind while a live node could still run it is a lost
        // task — the core invariant. Stranding is only legitimate when the
        // whole cluster is gone.
        if eng.nodes.iter().any(NodeState::usable) {
            eng.violations.push(format!(
                "lost task: {} never completed although node(s) survive",
                eng.labels[t]
            ));
        }
    }
    SimReport {
        makespan_us: eng.now_us,
        labels: eng.labels,
        events: eng.events,
        completed: eng.completed,
        redispatches: eng.redispatches,
        nodes_lost: eng.nodes_lost,
        stranded,
        violations: eng.violations,
    }
}

impl Engine {
    fn schedule(&mut self, delay_us: u64, ev: Ev) {
        let at = self.now_us + delay_us;
        let seq = self.pending.len() as u64;
        self.pending.push(ev);
        self.queue.push(Reverse((at, seq)));
    }

    fn log(&mut self, kind: SimEventKind) {
        let seq = self.log_seq;
        self.log_seq += 1;
        self.events.push(SimEvent {
            at_us: self.now_us,
            seq,
            kind,
        });
    }

    fn draw(&mut self, range: (u64, u64)) -> u64 {
        self.rng.gen_range_u64(range.0, range.1)
    }

    fn now(&self) -> Duration {
        Duration::from_micros(self.now_us)
    }

    fn all_done(&self) -> bool {
        self.tasks.iter().all(|t| t.done)
    }

    /// Is there any point keeping periodic machinery armed? Yes while work
    /// remains and the after-loss decision has not failed everything.
    fn keep_periodic(&self) -> bool {
        !self.all_done() && !self.failed
    }

    /// Schedule the monitor's next scan at the instant the heartbeat rule
    /// names.
    fn schedule_scan(&mut self) {
        let now = self.now();
        let at = self.heartbeat.next_scan(now);
        self.schedule((at - now).as_micros() as u64, Ev::MonitorScan);
    }

    fn run(&mut self) {
        for f in self.cfg.faults.clone() {
            if f.node < self.nodes.len() {
                self.schedule(f.at_us, Ev::Kill(f.node));
            }
        }
        for node in 0..self.nodes.len() {
            let period = self.cfg.heartbeat_period_us;
            self.schedule(period, Ev::Heartbeat(node));
        }
        self.schedule_scan();
        self.try_dispatch();

        while let Some(Reverse((at, seq))) = self.queue.pop() {
            self.now_us = at;
            let ev = self.pending[seq as usize];
            self.apply(ev);
            if self.all_done() || self.failed {
                break;
            }
        }
    }

    fn apply(&mut self, ev: Ev) {
        match ev {
            Ev::Kill(node) => {
                if self.nodes[node].alive {
                    self.nodes[node].alive = false;
                    // What was queued on the node dies with it; the ledger
                    // still holds it for the loss to drain.
                    self.nodes[node].fifo.clear();
                    self.log(SimEventKind::Kill { node });
                }
            }
            Ev::Heartbeat(node) => {
                // A dead node's heartbeat thread is gone: no beat, no re-arm.
                if self.nodes[node].alive {
                    self.nodes[node].last_beat_us = self.now_us;
                    if self.keep_periodic() {
                        let period = self.cfg.heartbeat_period_us;
                        self.schedule(period, Ev::Heartbeat(node));
                    }
                }
            }
            Ev::MonitorScan => {
                let now = self.now();
                for node in 0..self.nodes.len() {
                    let last_beat = Duration::from_micros(self.nodes[node].last_beat_us);
                    if !self.nodes[node].ledger.is_lost() && self.heartbeat.is_stale(now, last_beat)
                    {
                        self.lose(node);
                    }
                }
                if self.keep_periodic() {
                    self.schedule_scan();
                }
                self.try_dispatch();
            }
            Ev::TaskArrive(run) => {
                // A message to a dead node is lost with it; its tasks stay
                // in the ledger until the loss drains them.
                if self.nodes[run.node].usable() {
                    self.nodes[run.node].fifo.push_back(run);
                    self.start_workers(run.node);
                }
            }
            Ev::ExecDone(run) => {
                if self.nodes[run.node].alive {
                    self.nodes[run.node].idle += 1;
                    let delay = self.draw(self.cfg.result_delay_us);
                    self.schedule(delay, Ev::ResultArrive(run));
                    self.start_workers(run.node);
                }
            }
            Ev::ResultArrive(Run {
                task,
                node,
                attempt,
            }) => {
                // A reply from a node that has died since is lost with it
                // (HTEX's aggregator drops a reply once its node is dead);
                // otherwise the ledger decides whether the attempt counts.
                let accepted = if self.nodes[node].alive {
                    self.nodes[node].ledger.accept(attempt)
                } else {
                    None
                };
                if accepted.is_none() {
                    self.log(SimEventKind::ResultDropped {
                        task,
                        node,
                        attempt: attempt as u32,
                    });
                    return;
                }
                if self.redispatched_attempts.contains(&(task, node, attempt)) {
                    self.violations.push(format!(
                        "task {} attempt {} completed on node{} after being re-dispatched away",
                        self.labels[task], attempt, node
                    ));
                }
                if self.tasks[task].done {
                    self.violations.push(format!(
                        "task {} completed twice (second result from node{} attempt {})",
                        self.labels[task], node, attempt
                    ));
                    return;
                }
                self.tasks[task].done = true;
                self.completed += 1;
                self.log(SimEventKind::Complete {
                    task,
                    node,
                    attempt: attempt as u32,
                });
                let children = self.tasks[task].children.clone();
                for c in children {
                    self.tasks[c].deps_left -= 1;
                    if self.tasks[c].deps_left == 0 {
                        self.ready.push_back(c);
                    }
                }
                self.try_dispatch();
            }
        }
    }

    /// The monitor found `node` stale: its ledger drains the unfinished set
    /// back to the ready queue, and the after-loss decision runs with no
    /// floor (the simulator provisions no replacement blocks).
    fn lose(&mut self, node: usize) {
        let Some(drained) = self.nodes[node].ledger.mark_lost() else {
            return;
        };
        self.nodes_lost.push(node);
        self.log(SimEventKind::NodeLost { node });
        self.nodes[node].fifo.clear();
        for (attempt, task) in drained {
            self.redispatched_attempts.insert((task, node, attempt));
            self.redispatches += 1;
            self.log(SimEventKind::Redispatched {
                task,
                node,
                attempt: attempt as u32,
            });
            self.ready.push_back(task);
        }
        let live = self.nodes.iter().filter(|n| !n.ledger.is_lost()).count();
        if after_loss(live, 0) == AfterLoss::FailAll {
            self.failed = true;
        }
    }

    /// Idle workers on `node` take delivered tasks in arrival order.
    fn start_workers(&mut self, node: usize) {
        while self.nodes[node].usable() && self.nodes[node].idle > 0 {
            let Some(run) = self.nodes[node].fifo.pop_front() else {
                break;
            };
            self.nodes[node].idle -= 1;
            let exec = self.draw(self.cfg.exec_us);
            self.schedule(exec, Ev::ExecDone(run));
        }
    }

    /// Send the ready queue out as the dispatch rule plans it, over the
    /// nodes the submit side has not declared lost (a killed node looks
    /// live until its heartbeat goes stale). One dispatch delay per message.
    fn try_dispatch(&mut self) {
        if self.failed {
            return;
        }
        let live: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| !self.nodes[n].ledger.is_lost())
            .collect();
        let plan: Vec<_> = self.dispatch.plan(self.ready.len(), live.len()).collect();
        for chunk in plan {
            let node = live[chunk.slot];
            let tasks: Vec<usize> = self.ready.drain(..chunk.len).collect();
            let inserted = self.nodes[node]
                .ledger
                .insert(chunk.first, tasks.iter().copied());
            debug_assert!(inserted, "a live node's ledger refused a chunk");
            let delay = self.draw(self.cfg.dispatch_delay_us);
            for (attempt, task) in (chunk.first..).zip(tasks) {
                let kind = SimEventKind::Dispatch {
                    task,
                    node,
                    attempt: attempt as u32,
                };
                self.log(kind);
                let run = Run {
                    task,
                    node,
                    attempt,
                };
                self.schedule(delay, Ev::TaskArrive(run));
            }
        }
    }
}

/// A fully seeded scenario: workflow shape, cluster size, message size and
/// fault plan all derived from one `u64`. This is the unit of the
/// schedule-exploration suite — `simrun --log <seed>` replays exactly this.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub shape: &'static str,
    pub cfg: SimConfig,
    pub dag: SimDag,
}

impl Scenario {
    pub fn from_seed(seed: u64) -> Self {
        // Salted so scenario-shape draws never collide with the engine's own
        // stream (which is seeded with the raw seed).
        let mut rng = SimRng::seeded(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5CE9_A210);
        let nodes = 2 + rng.gen_index(3); // 2..=4
        let workers = 1 + rng.gen_index(3); // 1..=3
        let (shape, dag) = match rng.gen_index(4) {
            0 => ("diamond", SimDag::diamond()),
            1 => ("scatter", SimDag::scatter(4 + rng.gen_index(9))),
            2 => ("chain", SimDag::chain(4 + rng.gen_index(5))),
            _ => {
                let n = 6 + rng.gen_index(11);
                ("random", SimDag::random(&mut rng, n))
            }
        };
        let mut cfg = SimConfig::new(seed);
        cfg.nodes = nodes;
        cfg.workers_per_node = workers;
        // Kill up to nodes-1 distinct nodes (always leave node0 as a
        // survivor). Most seeds inject at least one fault, and kill instants
        // are biased into the first half of a typical makespan so the node
        // usually still holds in-flight work when it dies.
        let mut faults = Vec::new();
        let kills = if rng.gen_bool(0.7) {
            1 + rng.gen_index(nodes - 1)
        } else {
            0
        };
        let mut victims: Vec<usize> = (1..nodes).collect();
        for _ in 0..kills {
            let pick = rng.gen_index(victims.len());
            let node = victims.swap_remove(pick);
            let at_us = rng.gen_range_u64(500, 8_000);
            faults.push(SimFault { node, at_us });
        }
        faults.sort_by_key(|f| (f.at_us, f.node));
        cfg.faults = faults;
        cfg.batch_size = 1 + rng.gen_index(8); // 1..=8
        Scenario { shape, cfg, dag }
    }

    pub fn run(&self) -> SimReport {
        run(&self.cfg, &self.dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_diamond_completes() {
        let cfg = SimConfig::new(1);
        let report = run(&cfg, &SimDag::diamond());
        assert!(report.all_completed(), "{:?}", report.violations);
        assert!(report.violations.is_empty());
        assert_eq!(report.completed, 4);
        assert!(report.redispatches == 0 && report.nodes_lost.is_empty());
    }

    #[test]
    fn kill_triggers_node_lost_then_redispatch_then_completion() {
        let mut cfg = SimConfig::new(7);
        cfg.nodes = 2;
        cfg.workers_per_node = 2;
        // Kill node1 early enough that it still holds in-flight shards.
        cfg.faults = vec![SimFault {
            node: 1,
            at_us: 600,
        }];
        let report = run(&cfg, &SimDag::scatter(8));
        assert!(report.all_completed(), "{:?}", report.violations);
        assert!(report.violations.is_empty());
        assert_eq!(report.nodes_lost, vec![1]);
        // The kill must precede the loss declaration, which must precede
        // every redispatch of that node's tasks.
        let pos =
            |pred: &dyn Fn(&SimEventKind) -> bool| report.events.iter().position(|e| pred(&e.kind));
        let kill = pos(&|k| matches!(k, SimEventKind::Kill { node: 1 })).unwrap();
        let lost = pos(&|k| matches!(k, SimEventKind::NodeLost { node: 1 })).unwrap();
        assert!(kill < lost);
        for (i, e) in report.events.iter().enumerate() {
            if matches!(e.kind, SimEventKind::Redispatched { node: 1, .. }) {
                assert!(i > lost);
            }
        }
    }

    #[test]
    fn same_seed_byte_identical_logs() {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let sc = Scenario::from_seed(seed);
            let first = sc.run().event_log();
            for _ in 0..9 {
                assert_eq!(first, Scenario::from_seed(seed).run().event_log());
            }
        }
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let a = Scenario::from_seed(100).run().event_log();
        let b = Scenario::from_seed(101).run().event_log();
        assert_ne!(a, b);
    }

    #[test]
    fn all_nodes_killed_strands_rather_than_violates() {
        let mut cfg = SimConfig::new(3);
        cfg.nodes = 2;
        cfg.faults = vec![
            SimFault {
                node: 0,
                at_us: 300,
            },
            SimFault {
                node: 1,
                at_us: 300,
            },
        ];
        let report = run(&cfg, &SimDag::chain(6));
        assert!(!report.all_completed());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(!report.stranded.is_empty());
    }
}
