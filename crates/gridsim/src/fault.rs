//! Node fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] scripts node deaths so fault-tolerance machinery can be
//! exercised deterministically: kill a named node after it has fully
//! executed N tasks, after a delay on the plan's clock (wall-clock by
//! default, a virtual clock under simulation), or immediately. Executors
//! consult the plan from their workers ([`FaultPlan::note_task`]) and
//! heartbeat threads ([`FaultPlan::is_dead`]); a dead node stops executing
//! and stops heartbeating, exactly as if its manager process were gone.
//!
//! Task-count triggers use *arrival* semantics: `kill_after_tasks(node, n)`
//! lets `n` task arrivals execute to completion, and the `(n+1)`-th arrival
//! finds the node dead before the task runs. This guarantees that at least
//! one task is lost in flight (and must be re-dispatched) the moment the
//! trigger fires, which is what fault-tolerance tests need to observe.

use parking_lot::Mutex;
use simtest::ClockRef;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
enum Trigger {
    /// Let `remaining` more arrivals run; the next one after that dies.
    AfterTasks { remaining: usize },
    /// Dead once the plan's clock passes this offset.
    AfterElapsed { at: Duration },
}

struct FaultState {
    /// Time source for elapsed-time triggers: the process-wide real clock by
    /// default, a virtual clock under simulation (so deaths land at chosen
    /// *logical* instants).
    clock: ClockRef,
    triggers: HashMap<String, Trigger>,
    dead: HashMap<String, Duration>,
}

impl Default for FaultState {
    fn default() -> Self {
        Self {
            clock: simtest::real_clock(),
            triggers: HashMap::new(),
            dead: HashMap::new(),
        }
    }
}

impl FaultState {
    /// Promote elapsed-time triggers whose deadline has passed.
    fn apply_elapsed(&mut self) {
        let now = self.clock.now();
        let expired: Vec<String> = self
            .triggers
            .iter()
            .filter(|(_, t)| matches!(t, Trigger::AfterElapsed { at } if *at <= now))
            .map(|(n, _)| n.clone())
            .collect();
        for node in expired {
            self.triggers.remove(&node);
            self.dead.insert(node, now);
        }
    }
}

/// A scripted set of node deaths. Cheap to clone; all clones share state, so
/// the same plan can be handed to an executor, a scheduler, and a test.
#[derive(Clone, Default)]
pub struct FaultPlan {
    state: Arc<Mutex<FaultState>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("FaultPlan")
            .field("pending", &st.triggers.len())
            .field("dead", &st.dead.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl FaultPlan {
    /// A plan with no scripted faults, timed against the real clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan timed against an explicit clock — under a virtual clock,
    /// `kill_after` fires at a logical instant rather than a wall-clock one.
    pub fn with_clock(clock: ClockRef) -> Self {
        let plan = Self::default();
        plan.state.lock().clock = clock;
        plan
    }

    /// Kill `node` after it has fully executed `tasks` task arrivals; the
    /// next arrival finds it dead.
    pub fn kill_after_tasks(self, node: impl Into<String>, tasks: usize) -> Self {
        self.state
            .lock()
            .triggers
            .insert(node.into(), Trigger::AfterTasks { remaining: tasks });
        self
    }

    /// Kill `node` once `delay` has elapsed on the plan's clock.
    pub fn kill_after(self, node: impl Into<String>, delay: Duration) -> Self {
        {
            let mut st = self.state.lock();
            let at = st.clock.now() + delay;
            st.triggers
                .insert(node.into(), Trigger::AfterElapsed { at });
        }
        self
    }

    /// Kill `node` immediately.
    pub fn kill_now(self, node: impl Into<String>) -> Self {
        let node = node.into();
        let mut st = self.state.lock();
        st.triggers.remove(&node);
        let now = st.clock.now();
        st.dead.insert(node, now);
        drop(st);
        self
    }

    /// A worker on `node` is about to execute a task. Returns `true` when
    /// the node is (now) dead and the task must NOT run — the caller should
    /// leave it for re-dispatch and stop the worker.
    pub fn note_task(&self, node: &str) -> bool {
        let mut st = self.state.lock();
        st.apply_elapsed();
        if st.dead.contains_key(node) {
            return true;
        }
        match st.triggers.get_mut(node) {
            Some(Trigger::AfterTasks { remaining }) => {
                if *remaining == 0 {
                    st.triggers.remove(node);
                    let now = st.clock.now();
                    st.dead.insert(node.to_string(), now);
                    true
                } else {
                    *remaining -= 1;
                    false
                }
            }
            _ => false,
        }
    }

    /// Whether `node` is dead (elapsed-time triggers are applied lazily).
    pub fn is_dead(&self, node: &str) -> bool {
        let mut st = self.state.lock();
        st.apply_elapsed();
        st.dead.contains_key(node)
    }

    /// Whether the plan scripts any faults at all (pending or fired).
    pub fn is_empty(&self) -> bool {
        let st = self.state.lock();
        st.triggers.is_empty() && st.dead.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// Names of all nodes that have died so far.
        fn dead_nodes(&self) -> Vec<String> {
            let mut st = self.state.lock();
            st.apply_elapsed();
            let mut nodes: Vec<String> = st.dead.keys().cloned().collect();
            nodes.sort();
            nodes
        }
    }

    #[test]
    fn empty_plan_kills_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(!plan.note_task("node01"));
        assert!(!plan.is_dead("node01"));
        assert!(plan.dead_nodes().is_empty());
    }

    #[test]
    fn task_count_trigger_uses_arrival_semantics() {
        let plan = FaultPlan::new().kill_after_tasks("node02", 2);
        // Two arrivals execute...
        assert!(!plan.note_task("node02"));
        assert!(!plan.note_task("node02"));
        assert!(!plan.is_dead("node02"));
        // ...the third finds the node dead and must not run.
        assert!(plan.note_task("node02"));
        assert!(plan.is_dead("node02"));
        assert!(plan.note_task("node02"));
        assert_eq!(plan.dead_nodes(), vec!["node02".to_string()]);
        // Other nodes are unaffected.
        assert!(!plan.note_task("node01"));
    }

    #[test]
    fn elapsed_trigger_fires_lazily() {
        let plan = FaultPlan::new().kill_after("node01", Duration::from_millis(20));
        assert!(!plan.is_dead("node01"));
        std::thread::sleep(Duration::from_millis(30));
        assert!(plan.is_dead("node01"));
        assert!(plan.note_task("node01"));
    }

    #[test]
    fn kill_now_is_immediate() {
        let plan = FaultPlan::new().kill_now("node03");
        assert!(plan.is_dead("node03"));
        assert!(plan.note_task("node03"));
    }

    #[test]
    fn elapsed_trigger_follows_virtual_clock() {
        let vc = simtest::VirtualClock::new();
        vc.set_auto(false);
        let plan = FaultPlan::with_clock(vc.clone()).kill_after("node01", Duration::from_secs(60));
        // A full real-time pause changes nothing: only logical time counts.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!plan.is_dead("node01"));
        vc.advance(Duration::from_secs(59));
        assert!(!plan.is_dead("node01"));
        vc.advance(Duration::from_secs(1));
        assert!(plan.is_dead("node01"));
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::new().kill_after_tasks("n", 0);
        let observer = plan.clone();
        assert!(plan.note_task("n"));
        assert!(observer.is_dead("n"));
    }
}
