//! Real and virtual time sources behind one trait.

use parking_lot::{Condvar, Mutex};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A monotone time source the executor stack reads and sleeps through.
///
/// `now()` is the time since the clock's epoch (process start for the shared
/// real clock, construction for a virtual one). All durations measured
/// through one clock are mutually consistent; mixing clocks is a bug.
pub trait Clock: Send + Sync {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// Block the calling thread for `d` of this clock's time. For latency
    /// that is part of the model (a modelled link, a retry backoff); a
    /// periodic thread that something joins uses [`Clock::wait`].
    fn sleep(&self, d: Duration);

    /// Block for `d` of this clock's time or until `stop` is raised,
    /// whichever comes first — the one wait a periodic background thread
    /// makes per period, so whoever joins the thread wakes it instead of
    /// waiting out its period.
    fn wait(&self, d: Duration, stop: &StopSignal) -> Waited;

    /// True for virtual clocks; lets callers skip real-time pacing.
    fn is_virtual(&self) -> bool {
        false
    }
}

/// Shared handle to a clock implementation.
pub type ClockRef = Arc<dyn Clock>;

/// How a [`Clock::wait`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Waited {
    /// The full duration passed on the clock.
    Elapsed,
    /// The stop signal was raised first (or was already up).
    Stopped,
}

/// A one-way stop flag that wakes whoever is waiting on it. Raised once, at
/// shutdown, by the owner of a background thread; the thread parks in
/// [`Clock::wait`] between periods and leaves as soon as it is raised.
#[derive(Default)]
pub struct StopSignal {
    raised: AtomicBool,
    /// Guards the raise → notify hand-off: a waiter checks `raised` under
    /// this lock before parking, and `raise` notifies under it, so a raise
    /// can never slip between a waiter's check and its park.
    lock: Mutex<()>,
    cond: Condvar,
}

impl StopSignal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the signal and wake every waiter. Returns whether it was
    /// already raised (so "first caller shuts down" needs no second flag).
    pub fn raise(&self) -> bool {
        let was = self.raised.swap(true, Ordering::SeqCst);
        let _guard = self.lock.lock();
        self.cond.notify_all();
        was
    }

    /// Whether the signal has been raised (one atomic load).
    pub fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Park until the signal is raised or `d` of real time passes. A `d`
    /// too long to name an `Instant` (a period of `Duration::MAX`) waits
    /// for the raise alone.
    fn wait_for(&self, d: Duration) -> Waited {
        let deadline = Instant::now().checked_add(d);
        let mut guard = self.lock.lock();
        while !self.is_raised() {
            match deadline {
                Some(deadline) => {
                    if self.cond.wait_until(&mut guard, deadline).timed_out() && !self.is_raised() {
                        return Waited::Elapsed;
                    }
                }
                None => self.cond.wait(&mut guard),
            }
        }
        Waited::Stopped
    }
}

/// Wall-clock time, anchored at the first call to [`real_clock`].
pub struct RealClock {
    start: Instant,
}

impl RealClock {
    pub(crate) fn new() -> Self {
        RealClock {
            start: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn wait(&self, d: Duration, stop: &StopSignal) -> Waited {
        stop.wait_for(d)
    }
}

/// The process-wide real clock. Every component that is not explicitly
/// configured with a virtual clock shares this one, so timestamps taken in
/// different crates are comparable.
pub fn real_clock() -> ClockRef {
    static GLOBAL: OnceLock<Arc<RealClock>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(RealClock::new())).clone()
}

struct VcState {
    now: Duration,
    next_ticket: u64,
    /// Pending sleeper deadlines, ordered by (deadline, arrival ticket).
    /// The head of this queue is the next logical instant anything can
    /// happen at; auto-advance jumps straight to it.
    sleepers: BTreeSet<(Duration, u64)>,
}

/// Virtual time advanced by an event queue of sleeper deadlines.
///
/// Every `sleep(d)` or `wait(d, stop)` registers a deadline and blocks.
/// When auto-advance is on (the default) and the system has been idle for a
/// short real-time grace window, the clock jumps to the earliest registered
/// deadline and wakes its sleeper — so a 250ms heartbeat timeout "elapses"
/// in about a millisecond of real time, and sleepers always fire in
/// logical-deadline order (ties broken by registration order).
///
/// The grace window exists because the clock cannot see threads that are
/// *about* to sleep: it only advances once every running thread has either
/// blocked on the clock or stayed silent for `grace` of real time. Tests
/// that want full manual control call `set_auto(false)` and drive time with
/// [`VirtualClock::advance`].
pub struct VirtualClock {
    state: Mutex<VcState>,
    cond: Condvar,
    auto: AtomicBool,
    grace: Duration,
}

impl VirtualClock {
    /// Auto-advancing virtual clock with a 1ms idle grace window.
    pub fn new() -> Arc<Self> {
        Self::with_grace(Duration::from_millis(1))
    }

    /// Auto-advancing virtual clock with an explicit idle grace window.
    pub(crate) fn with_grace(grace: Duration) -> Arc<Self> {
        Arc::new(VirtualClock {
            state: Mutex::new(VcState {
                now: Duration::ZERO,
                next_ticket: 0,
                sleepers: BTreeSet::new(),
            }),
            cond: Condvar::new(),
            auto: AtomicBool::new(true),
            grace,
        })
    }

    /// Enable or disable idle auto-advance.
    pub fn set_auto(&self, on: bool) {
        self.auto.store(on, Ordering::SeqCst);
        self.cond.notify_all();
    }

    /// Advance virtual time by `d`, waking every sleeper whose deadline has
    /// now passed.
    pub fn advance(&self, d: Duration) {
        let mut st = self.state.lock();
        st.now += d;
        self.cond.notify_all();
    }

    /// Number of threads currently blocked in `sleep` or `wait`.
    pub fn sleeper_count(&self) -> usize {
        self.state.lock().sleepers.len()
    }

    /// Register a deadline `d` ahead and block until virtual time reaches it
    /// or `stop` is raised. A stopped sleeper withdraws its deadline, so a
    /// cancelled wait never advances virtual time; an un-stopped one takes
    /// exactly the steps `sleep` always took.
    fn park(&self, d: Duration, stop: Option<&StopSignal>) -> Waited {
        let stopped = || stop.is_some_and(StopSignal::is_raised);
        if d.is_zero() {
            return if stopped() {
                Waited::Stopped
            } else {
                Waited::Elapsed
            };
        }
        let mut st = self.state.lock();
        let deadline = st.now + d;
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.sleepers.insert((deadline, ticket));
        loop {
            let done = if stopped() {
                Some(Waited::Stopped)
            } else if st.now >= deadline {
                Some(Waited::Elapsed)
            } else {
                None
            };
            if let Some(how) = done {
                st.sleepers.remove(&(deadline, ticket));
                // A new sleeper now holds the queue head; make sure it
                // re-evaluates instead of waiting out another grace window.
                self.cond.notify_all();
                return how;
            }
            // The grace window doubles as the stop check: a raise is seen
            // within one window of real time, whatever virtual time does.
            let timed_out = self.cond.wait_for(&mut st, self.grace).timed_out();
            // Only the sleeper holding the earliest deadline advances the
            // clock, and only after a full grace window of real idleness —
            // that is what serialises wakeups into logical order.
            if timed_out
                && !stopped()
                && self.auto.load(Ordering::SeqCst)
                && st.sleepers.iter().next().copied() == Some((deadline, ticket))
            {
                st.now = deadline;
                self.cond.notify_all();
            }
        }
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        self.state.lock().now
    }

    fn sleep(&self, d: Duration) {
        self.park(d, None);
    }

    fn wait(&self, d: Duration, stop: &StopSignal) -> Waited {
        self.park(d, Some(stop))
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;

    impl VirtualClock {
        /// Advance virtual time to `t` (no-op if time is already past it).
        fn advance_to(&self, t: Duration) {
            let mut st = self.state.lock();
            if t > st.now {
                st.now = t;
                self.cond.notify_all();
            }
        }
    }

    #[test]
    fn real_clock_is_monotone_and_shared() {
        let c1 = real_clock();
        let c2 = real_clock();
        let a = c1.now();
        let b = c2.now();
        assert!(b >= a);
        assert!(!c1.is_virtual());
    }

    #[test]
    fn virtual_sleep_fires_without_wall_time() {
        let vc = VirtualClock::new();
        let start = Instant::now();
        // An hour of virtual time must elapse in well under a second.
        vc.sleep(Duration::from_secs(3600));
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(vc.now(), Duration::from_secs(3600));
    }

    #[test]
    fn sleepers_wake_in_deadline_order() {
        let vc = VirtualClock::new();
        // Held still until all three sleepers have registered: a sleeper
        // that registered alone could otherwise be advanced to and woken
        // before a shorter one arrived.
        vc.set_auto(false);
        let order: Arc<PMutex<Vec<u32>>> = Arc::new(PMutex::new(Vec::new()));
        let mut handles = Vec::new();
        // Spawn in reverse-deadline order to prove the queue, not spawn
        // order, decides who wakes first.
        for (label, ms) in [(3u32, 30u64), (2, 20), (1, 10)] {
            let vc = vc.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                vc.sleep(Duration::from_millis(ms));
                order.lock().push(label);
            }));
        }
        assert!(crate::wait_until(BOUND, || vc.sleeper_count() == 3));
        vc.set_auto(true);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn manual_advance_wakes_sleeper() {
        let vc = VirtualClock::new();
        vc.set_auto(false);
        let vc2 = vc.clone();
        let h = std::thread::spawn(move || {
            vc2.sleep(Duration::from_millis(500));
            vc2.now()
        });
        // Wait until the sleeper has registered, then drive time by hand.
        while vc.sleeper_count() == 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
        vc.advance(Duration::from_millis(499));
        assert_eq!(vc.sleeper_count(), 1);
        vc.advance(Duration::from_millis(1));
        assert!(h.join().unwrap() >= Duration::from_millis(500));
    }

    /// No wait under test may outlive this much real time once stopped.
    const BOUND: Duration = Duration::from_secs(20);

    #[test]
    fn real_wait_is_woken_by_stop() {
        let clock = real_clock();
        let stop = Arc::new(StopSignal::new());
        let s = stop.clone();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            started_tx.send(()).unwrap();
            let _ = tx.send(clock.wait(Duration::from_secs(3600), &s));
        });
        // The raise may land before or after the waiter parks; neither
        // order may lose it.
        started_rx.recv().unwrap();
        assert!(!stop.raise(), "first raise reports the signal was down");
        assert!(stop.raise(), "second raise reports it was already up");
        assert_eq!(
            rx.recv_timeout(BOUND)
                .expect("an hour-long wait must end when stop is raised"),
            Waited::Stopped
        );
        // A wait that starts after the raise never parks.
        assert_eq!(
            real_clock().wait(Duration::from_secs(3600), &stop),
            Waited::Stopped
        );
    }

    #[test]
    fn real_wait_accepts_a_period_too_long_for_an_instant() {
        let stop = Arc::new(StopSignal::new());
        let s = stop.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(real_clock().wait(Duration::MAX, &s));
        });
        stop.raise();
        assert_eq!(rx.recv_timeout(BOUND), Ok(Waited::Stopped));
    }

    #[test]
    fn real_wait_elapses_no_earlier_than_asked() {
        let clock = real_clock();
        let stop = StopSignal::new();
        let d = Duration::from_millis(20);
        let before = clock.now();
        assert_eq!(clock.wait(d, &stop), Waited::Elapsed);
        assert!(clock.now() - before >= d);
    }

    #[test]
    fn virtual_wait_is_woken_by_stop_and_withdraws_its_deadline() {
        let vc = VirtualClock::new();
        vc.set_auto(false);
        let stop = Arc::new(StopSignal::new());
        let (vc2, s) = (vc.clone(), stop.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(vc2.wait(Duration::from_secs(3600), &s));
        });
        while vc.sleeper_count() == 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
        stop.raise();
        assert_eq!(
            rx.recv_timeout(BOUND)
                .expect("nobody advances this clock: only the stop can end the wait"),
            Waited::Stopped
        );
        assert_eq!(vc.sleeper_count(), 0, "a stopped waiter leaves the queue");
        assert_eq!(
            vc.now(),
            Duration::ZERO,
            "a cancelled deadline moves no time"
        );
    }

    #[test]
    fn stopped_head_waiter_does_not_advance_auto_clock() {
        // Auto-advance on: the hour-long waiter is the queue head, and a
        // raise must beat the jump to its deadline.
        let vc = VirtualClock::new();
        let stop = StopSignal::new();
        stop.raise();
        assert_eq!(vc.wait(Duration::from_secs(3600), &stop), Waited::Stopped);
        assert_eq!(vc.now(), Duration::ZERO);
        assert_eq!(vc.sleeper_count(), 0);
    }

    #[test]
    fn virtual_wait_elapses_at_its_deadline() {
        let vc = VirtualClock::new();
        let stop = StopSignal::new();
        let d = Duration::from_secs(3600);
        let vc2 = vc.clone();
        let how = crate::returns_within(BOUND, move || vc2.wait(d, &stop));
        assert_eq!(how, Some(Waited::Elapsed));
        assert_eq!(vc.now(), d);
    }

    #[test]
    fn unstopped_waits_fire_in_deadline_order() {
        // Time is driven by hand, so the order is forced, not raced: each
        // advance reaches exactly one deadline and exactly that waiter
        // must return while the later ones stay parked.
        let vc = VirtualClock::new();
        vc.set_auto(false);
        let stop = Arc::new(StopSignal::new());
        let (tx, rx) = std::sync::mpsc::channel();
        // Waits and sleeps share one queue: mix them, registered in
        // reverse-deadline order.
        for (i, (label, ms)) in [(4u32, 40u64), (3, 30), (2, 20), (1, 10)]
            .into_iter()
            .enumerate()
        {
            let (vc2, stop, tx) = (vc.clone(), stop.clone(), tx.clone());
            std::thread::spawn(move || {
                if label % 2 == 0 {
                    assert_eq!(vc2.wait(Duration::from_millis(ms), &stop), Waited::Elapsed);
                } else {
                    vc2.sleep(Duration::from_millis(ms));
                }
                let _ = tx.send((label, vc2.now()));
            });
            while vc.sleeper_count() != i + 1 {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        for (label, ms) in [(1u32, 10u64), (2, 20), (3, 30), (4, 40)] {
            vc.advance_to(Duration::from_millis(ms));
            let woken = rx
                .recv_timeout(BOUND)
                .expect("deadline reached, nobody woke");
            assert_eq!(woken, (label, Duration::from_millis(ms)));
            assert_eq!(vc.sleeper_count(), 4 - label as usize);
        }
    }

    #[test]
    fn simultaneous_deadlines_all_wake() {
        let vc = VirtualClock::new();
        vc.set_auto(false);
        let order: Arc<PMutex<Vec<u32>>> = Arc::new(PMutex::new(Vec::new()));
        let mut handles = Vec::new();
        for label in 0u32..4 {
            let vc = vc.clone();
            let order = order.clone();
            while vc.sleeper_count() != label as usize {
                std::thread::sleep(Duration::from_micros(100));
            }
            handles.push(std::thread::spawn(move || {
                vc.sleep(Duration::from_millis(10));
                order.lock().push(label);
            }));
        }
        while vc.sleeper_count() != 4 {
            std::thread::sleep(Duration::from_micros(100));
        }
        vc.advance(Duration::from_millis(10));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(order.lock().len(), 4);
    }
}
