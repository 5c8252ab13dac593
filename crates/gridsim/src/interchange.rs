//! The interchange protocol's decisions, with no I/O inside them.
//!
//! `parsl::htex` (threads, channels, a real or virtual clock) and
//! [`crate::sim`] (one thread, an event heap, logical time) both drive these
//! types, so the rules the simulator's seed sweep checks are the rules HTEX
//! ships. Nothing here holds a thread, a clock, a channel or a lock: callers
//! pass the instant in and keep each [`Ledger`] under whatever exclusion
//! their own concurrency needs.

use std::collections::BTreeMap;
use std::time::Duration;

/// A dispatch attempt's number: unique within one executor and increasing
/// in dispatch order. A re-dispatched task gets a new one.
pub type Attempt = u64;

/// One node's in-flight tasks, keyed by attempt. `T` is what the caller
/// carries per task: a task index in the simulator, the payload in HTEX.
/// A result counts only while its attempt is still here, so a task
/// completes once; a loss drains exactly the unfinished set and refuses
/// every later insert, so a lost node's late results are dropped.
#[derive(Debug)]
pub struct Ledger<T> {
    in_flight: BTreeMap<Attempt, T>,
    lost: bool,
}

impl<T> Default for Ledger<T> {
    fn default() -> Self {
        Self {
            in_flight: BTreeMap::new(),
            lost: false,
        }
    }
}

impl<T> Ledger<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a chunk sent to this node as one message, its tasks under the
    /// attempts `first, first + 1, …`. Once the node is lost this records
    /// nothing and returns `false`: the caller keeps the chunk.
    pub fn insert(&mut self, first: Attempt, chunk: impl IntoIterator<Item = T>) -> bool {
        if !self.lost {
            self.in_flight.extend((first..).zip(chunk));
        }
        !self.lost
    }

    /// A result for `attempt` came back from this node: what was carried
    /// for it while that attempt is in flight here, else `None` (the node
    /// was lost, or the attempt was answered already). Complete the task
    /// only on `Some`.
    pub fn accept(&mut self, attempt: Attempt) -> Option<T> {
        self.in_flight.remove(&attempt)
    }

    /// Mark the node lost and drain its unfinished set, in attempt order,
    /// for re-dispatch. `None` when it was lost already: a loss is
    /// processed once.
    pub fn mark_lost(&mut self) -> Option<Vec<(Attempt, T)>> {
        if self.lost {
            return None;
        }
        self.lost = true;
        Some(std::mem::take(&mut self.in_flight).into_iter().collect())
    }

    pub(crate) fn is_lost(&self) -> bool {
        self.lost
    }
}

/// One planned message: `len` tasks from the front of the queue, numbered
/// from attempt `first`, for the live node at index `slot` of the caller's
/// live list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    pub slot: usize,
    pub len: usize,
    pub first: Attempt,
}

/// The submit side's dispatch rule. No worker slot is reserved: a node
/// queues what it is sent.
#[derive(Debug)]
pub struct Dispatch {
    batch_size: usize,
    rr: usize,
    next_attempt: Attempt,
}

impl Dispatch {
    /// At most `batch_size` (at least 1) tasks per message.
    pub fn new(batch_size: usize) -> Self {
        Self {
            batch_size: batch_size.max(1),
            rr: 0,
            next_attempt: 1,
        }
    }

    /// How many queued tasks one round places: a full message per live
    /// node (one message's worth while none is live).
    pub fn round_cap(&self, live: usize) -> usize {
        self.batch_size * live.max(1)
    }

    /// Cut `queued` tasks into messages for `live` nodes: an even split
    /// (sizes differ by at most one, larger first, so the first takes
    /// `ceil(queued / live)`) over one message per live node, or over more
    /// when one would exceed `batch_size`; round-robin from where the
    /// previous round stopped. Plans nothing while no node is live: the
    /// queue is held.
    pub fn plan(&mut self, queued: usize, live: usize) -> impl Iterator<Item = Chunk> + '_ {
        let chunks = if live == 0 {
            0
        } else {
            queued.min(live).max(queued.div_ceil(self.batch_size))
        };
        let mut planned = 0;
        std::iter::from_fn(move || {
            if planned == chunks {
                return None;
            }
            let len = queued / chunks + usize::from(planned < queued % chunks);
            planned += 1;
            self.rr = self.rr.wrapping_add(1);
            let first = self.next_attempt;
            self.next_attempt += len as Attempt;
            Some(Chunk {
                slot: self.rr % live,
                len,
                first,
            })
        })
    }
}

/// A node whose last beat is more than `threshold` old is dead; the submit
/// side scans once per `period`.
#[derive(Clone, Copy, Debug)]
pub struct Heartbeat {
    pub period: Duration,
    pub threshold: Duration,
}

impl Heartbeat {
    pub fn is_stale(&self, now: Duration, last_beat: Duration) -> bool {
        now.saturating_sub(last_beat) > self.threshold
    }

    /// The instant of the scan after one made at `now`.
    pub fn next_scan(&self, now: Duration) -> Duration {
        now + self.period
    }
}

/// What a node loss leaves to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AfterLoss {
    /// Fewer than `min_nodes` are live: provision a replacement block.
    Replace,
    /// Nothing is live and nothing will be replaced: fail every queued task.
    FailAll,
    Nothing,
}

/// Decide after a loss with `live` nodes left, against the `min_nodes`
/// floor. A replacement that cannot be provisioned is decided again with a
/// floor of 0.
pub fn after_loss(live: usize, min_nodes: usize) -> AfterLoss {
    if live < min_nodes {
        AfterLoss::Replace
    } else if live == 0 {
        AfterLoss::FailAll
    } else {
        AfterLoss::Nothing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(d: &mut Dispatch, queued: usize, live: usize) -> Vec<(usize, usize)> {
        d.plan(queued, live).map(|c| (c.slot, c.len)).collect()
    }

    #[test]
    fn chunk_takes_ceil_queue_over_live_capped_at_batch_size() {
        // (queued, live, batch_size) → chunk lengths, in order.
        let rows: &[(usize, usize, usize, &[usize])] = &[
            (1, 2, 8, &[1]),
            (2, 3, 8, &[1, 1]),
            (4, 2, 8, &[2, 2]),
            (5, 2, 8, &[3, 2]),
            (4, 3, 8, &[2, 1, 1]),
            (10, 3, 8, &[4, 3, 3]),
            (16, 2, 8, &[8, 8]),
            (40, 2, 8, &[8, 8, 8, 8, 8]),
            (7, 1, 3, &[3, 2, 2]),
            (6, 4, 1, &[1, 1, 1, 1, 1, 1]),
        ];
        for &(queued, live, batch, want) in rows {
            let mut d = Dispatch::new(batch);
            let got: Vec<usize> = chunks(&mut d, queued, live)
                .into_iter()
                .map(|c| c.1)
                .collect();
            assert_eq!(got, want, "queued {queued}, live {live}, batch {batch}");
            assert_eq!(got[0], queued.div_ceil(live).min(batch));
            assert_eq!(got.iter().sum::<usize>(), queued);
        }
    }

    #[test]
    fn chunks_go_round_robin_and_number_attempts_in_order() {
        let mut d = Dispatch::new(2);
        let plan: Vec<Chunk> = d.plan(5, 3).collect();
        let slots: Vec<usize> = plan.iter().map(|c| c.slot).collect();
        assert_eq!(slots, [1, 2, 0]);
        let firsts: Vec<Attempt> = plan.iter().map(|c| c.first).collect();
        assert_eq!(firsts, [1, 3, 5]);
        // The next round carries on from where this one stopped.
        assert_eq!(chunks(&mut d, 1, 3), [(1, 1)]);
        assert_eq!(d.plan(1, 3).next().unwrap().first, 7);
    }

    #[test]
    fn no_live_node_holds_the_queue() {
        let mut d = Dispatch::new(8);
        assert!(chunks(&mut d, 12, 0).is_empty());
        assert_eq!(d.round_cap(0), 8);
        assert_eq!(d.round_cap(3), 24);
        // Nothing was numbered while the queue was held.
        assert_eq!(d.plan(1, 1).next().unwrap().first, 1);
    }

    #[test]
    fn kill_mid_batch_drains_exactly_the_unfinished() {
        let mut l = Ledger::new();
        assert!(l.insert(10, ["a", "b", "c", "d", "e", "f"]));
        // Two of the six finished before the node died.
        assert_eq!(l.accept(10), Some("a"));
        assert_eq!(l.accept(12), Some("c"));
        assert_eq!(
            l.mark_lost(),
            Some(vec![(11, "b"), (13, "d"), (14, "e"), (15, "f")])
        );
        assert!(l.is_lost());
        assert_eq!(l.accept(11), None);
        // A loss is processed once.
        assert_eq!(l.mark_lost(), None);
    }

    #[test]
    fn late_result_from_a_lost_node_is_dropped() {
        let mut l = Ledger::new();
        assert!(l.insert(1, [7usize]));
        assert_eq!(l.mark_lost(), Some(vec![(1, 7)]));
        // The drained attempt's result arrives after the loss.
        assert_eq!(l.accept(1), None);
    }

    #[test]
    fn an_attempt_is_accepted_once() {
        let mut l = Ledger::new();
        assert!(l.insert(4, [0usize, 1]));
        assert_eq!(l.accept(5), Some(1));
        assert_eq!(l.accept(5), None);
        assert_eq!(l.accept(99), None);
        assert_eq!(l.mark_lost(), Some(vec![(4, 0)]));
    }

    #[test]
    fn lost_ledger_refuses_an_insert() {
        let mut l: Ledger<usize> = Ledger::new();
        assert_eq!(l.mark_lost(), Some(vec![]));
        assert!(!l.insert(1, [3, 4]));
        assert_eq!(l.accept(1), None);
    }

    #[test]
    fn after_loss_decides_against_min_nodes() {
        // (live, min_nodes) → decision.
        let rows = [
            (0, 0, AfterLoss::FailAll),
            (0, 1, AfterLoss::Replace),
            (1, 2, AfterLoss::Replace),
            (2, 2, AfterLoss::Nothing),
            (1, 0, AfterLoss::Nothing),
        ];
        for (live, min, want) in rows {
            assert_eq!(after_loss(live, min), want, "live {live}, min {min}");
        }
    }

    #[test]
    fn every_node_lost_without_replacement_fails_everything() {
        // Both nodes of a min_nodes = 0 executor are lost in turn.
        let mut nodes: Vec<Ledger<usize>> = vec![Ledger::new(), Ledger::new()];
        assert!(nodes[0].insert(1, [0]));
        assert!(nodes[1].insert(2, [1]));
        let live = |n: &[Ledger<usize>]| n.iter().filter(|l| !l.is_lost()).count();
        nodes[0].mark_lost();
        assert_eq!(after_loss(live(&nodes), 0), AfterLoss::Nothing);
        nodes[1].mark_lost();
        assert_eq!(after_loss(live(&nodes), 0), AfterLoss::FailAll);
        // A replacement that cannot be provisioned is decided with floor 0.
        assert_eq!(after_loss(live(&nodes), 2), AfterLoss::Replace);
    }

    #[test]
    fn scan_instant_follows_heartbeat_period() {
        let hb = Heartbeat {
            period: Duration::from_millis(25),
            threshold: Duration::from_millis(250),
        };
        assert_eq!(hb.next_scan(Duration::ZERO), Duration::from_millis(25));
        assert_eq!(
            hb.next_scan(Duration::from_millis(100)),
            Duration::from_millis(125)
        );
        let beat = Duration::from_millis(1000);
        assert!(!hb.is_stale(Duration::from_millis(1250), beat));
        assert!(hb.is_stale(Duration::from_micros(1_250_001), beat));
        // A beat "after" now (clock reads raced) is never stale.
        assert!(!hb.is_stale(Duration::from_millis(10), beat));
    }
}
