//! The kernel timer: one deadline heap per [`crate::DataFlowKernel`],
//! served by one thread on the kernel's clock. Every timed thing the kernel
//! does — an attempt's walltime, a retry's backoff — is an entry here, so a
//! run with ten thousand timed tasks still has one timer thread, and a
//! [`simtest::VirtualClock`] reaches every deadline.
//!
//! The thread starts with the first entry and waits like the other
//! long-lived threads (DESIGN.md §4m): `Clock::wait(next − now, &signal)`
//! while an entry is pending, a plain condvar while none is, so an idle
//! timer holds no deadline on the clock. An entry inserted ahead of the
//! current wait raises that wait's signal and the thread re-arms; a stopped
//! virtual wait withdraws its deadline, so re-arming moves no virtual time.

use parking_lot::{Condvar, Mutex};
use simtest::{ClockRef, StopSignal};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the timer holds until its deadline.
pub(crate) trait Due: Send + 'static {
    /// The deadline passed. Runs on the timer thread, outside the heap
    /// lock, so it may schedule further entries.
    fn fire(self);
    /// The timer cannot take the entry: its thread would not start, or the
    /// kernel has shut down. Runs on the scheduling thread; fails whatever
    /// the entry was timing, so no task waits on a deadline nobody serves.
    fn refuse(self, reason: String);
}

/// One deadline heap and the thread that serves it. Dropping it stops
/// the thread, as [`Timer::stop`] does.
pub(crate) struct Timer<E: Due> {
    shared: Arc<Shared<E>>,
}

struct Shared<E> {
    clock: ClockRef,
    state: Mutex<State<E>>,
    /// Where the thread parks while the heap is empty.
    idle: Condvar,
}

struct State<E> {
    /// Pending entries keyed by (deadline on the clock, arrival), so equal
    /// deadlines fire in the order they were scheduled.
    heap: BTreeMap<(Duration, u64), E>,
    arrivals: u64,
    /// The deadline the thread is waiting for and the signal that ends the
    /// wait early; `None` while it is idle or firing.
    armed: Option<(Duration, Arc<StopSignal>)>,
    thread: Option<JoinHandle<()>>,
    stopped: bool,
}

impl<E: Due> Timer<E> {
    /// A timer on `clock`. No thread starts until the first entry.
    pub(crate) fn new(clock: ClockRef) -> Self {
        Self {
            shared: Arc::new(Shared {
                clock,
                state: Mutex::new(State {
                    heap: BTreeMap::new(),
                    arrivals: 0,
                    armed: None,
                    thread: None,
                    stopped: false,
                }),
                idle: Condvar::new(),
            }),
        }
    }

    /// Fire `entry` once `delay` of the clock's time has passed, or refuse
    /// it at once if the timer cannot serve it.
    pub(crate) fn after(&self, delay: Duration, entry: E) {
        let at = self.shared.clock.now().saturating_add(delay);
        let mut st = self.shared.state.lock();
        if st.stopped {
            drop(st);
            return entry.refuse("the kernel has shut down".to_string());
        }
        if st.thread.is_none() {
            let shared = self.shared.clone();
            let started = std::thread::Builder::new()
                .name("parsl-timer".into())
                .spawn(move || shared.serve());
            match started {
                Ok(thread) => st.thread = Some(thread),
                Err(e) => {
                    drop(st);
                    return entry.refuse(format!("cannot start the kernel timer: {e}"));
                }
            }
        }
        let arrival = st.arrivals;
        st.arrivals += 1;
        st.heap.insert((at, arrival), entry);
        match &st.armed {
            Some((armed_at, signal)) if at < *armed_at => {
                signal.raise();
            }
            Some(_) => {}
            None => {
                self.shared.idle.notify_one();
            }
        }
    }

    /// Stop the thread and join it. Entries still pending are dropped
    /// unfired: the kernel stops its timer after `wait_all`, when the only
    /// ones left are walltimes of attempts that have completed.
    pub(crate) fn stop(&self) {
        let (thread, pending) = {
            let mut st = self.shared.state.lock();
            st.stopped = true;
            if let Some((_, signal)) = &st.armed {
                signal.raise();
            }
            self.shared.idle.notify_one();
            (st.thread.take(), std::mem::take(&mut st.heap))
        };
        drop(pending);
        if let Some(thread) = thread {
            // A kernel dropped on its own timer thread cannot join it; the
            // thread leaves by itself once it sees `stopped`.
            if thread.thread().id() != std::thread::current().id() && thread.join().is_err() {
                eprintln!("warning: the kernel timer panicked; entries it held did not fire");
            }
        }
    }
}

impl<E: Due> Drop for Timer<E> {
    fn drop(&mut self) {
        self.stop();
    }
}

impl<E: Due> Shared<E> {
    /// The timer thread: wait for the earliest deadline, fire what is due,
    /// repeat until stopped.
    fn serve(&self) {
        let mut st = self.state.lock();
        while !st.stopped {
            let Some(&(next, _)) = st.heap.keys().next() else {
                self.idle.wait(&mut st);
                continue;
            };
            let now = self.clock.now();
            if next > now {
                let signal = Arc::new(StopSignal::new());
                st.armed = Some((next, signal.clone()));
                drop(st);
                self.clock.wait(next - now, &signal);
                st = self.state.lock();
                st.armed = None;
                continue;
            }
            let mut due = Vec::new();
            while let Some(entry) = st.heap.first_entry().filter(|e| e.key().0 <= now) {
                due.push(entry.remove());
            }
            // Outside the lock: a fired walltime can retry, and the retry
            // can schedule a backoff.
            drop(st);
            due.into_iter().for_each(E::fire);
            st = self.state.lock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtest::{Clock as _, VirtualClock};
    use std::sync::mpsc::{channel, Sender};

    const HOUR: Duration = Duration::from_secs(3600);

    /// No wait under test may outlive this much real time.
    const BOUND: Duration = Duration::from_secs(20);

    /// An entry that reports its name when it fires or is refused.
    struct Probe(&'static str, Sender<String>);

    impl Due for Probe {
        fn fire(self) {
            let _ = self.1.send(self.0.to_string());
        }
        fn refuse(self, reason: String) {
            let _ = self.1.send(format!("{} refused: {reason}", self.0));
        }
    }

    /// An entry scheduled ahead of the current wait re-arms it: it fires
    /// first, the later one keeps its deadline, and virtual time moves only
    /// as far as the test advances it. An idle or stopped timer holds no
    /// deadline on the clock, and a stopped one refuses new entries.
    #[test]
    fn an_earlier_entry_rearms_the_wait() {
        let vc = VirtualClock::new();
        vc.set_auto(false);
        let timer = Timer::new(vc.clone());
        let (tx, fired) = channel();
        timer.after(2 * HOUR, Probe("late", tx.clone()));
        assert!(simtest::wait_until(BOUND, || vc.sleeper_count() == 1));
        timer.after(HOUR, Probe("early", tx.clone()));
        vc.advance(HOUR);
        assert_eq!(fired.recv_timeout(BOUND).as_deref(), Ok("early"));
        assert!(simtest::wait_until(BOUND, || vc.sleeper_count() == 1));
        assert!(
            fired.try_recv().is_err(),
            "the later deadline has not passed"
        );
        vc.advance(HOUR);
        assert_eq!(fired.recv_timeout(BOUND).as_deref(), Ok("late"));
        assert_eq!(vc.now(), 2 * HOUR);
        assert!(
            simtest::wait_until(BOUND, || vc.sleeper_count() == 0),
            "an idle timer parks off the clock"
        );
        timer.stop();
        timer.after(HOUR, Probe("after stop", tx));
        assert_eq!(
            fired.recv_timeout(BOUND).as_deref(),
            Ok("after stop refused: the kernel has shut down")
        );
        assert_eq!(vc.sleeper_count(), 0);
    }
}
