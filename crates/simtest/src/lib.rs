//! Deterministic simulation harness.
//!
//! Three pieces, each usable on its own:
//!
//! * [`Clock`] — the one interface through which the executor stack reads
//!   time and sleeps. [`RealClock`] is wall-clock; [`VirtualClock`] advances
//!   via an event queue of sleeper deadlines, so a test run that "waits"
//!   hundreds of milliseconds of heartbeat/backoff time completes in
//!   microseconds, and always in the same logical order. Periodic threads
//!   park in [`Clock::wait`], which a [`StopSignal`] ends early, so joining
//!   one never waits out its period.
//! * [`SimRng`] — a seeded, splittable PRNG (xoshiro256** seeded through
//!   splitmix64). Identical seeds produce identical draw sequences, which is
//!   what makes a failing schedule replayable from its seed alone.
//! * [`wait_until`] — a deadline-bounded condition wait for tests that must
//!   observe a concurrent real-time system (no fixed sleeps, no unbounded
//!   spins) — and [`returns_within`], which turns "this call must not hang"
//!   into a test failure instead of a hung suite.

#![warn(unreachable_pub)]

mod clock;
mod rng;

pub use clock::{real_clock, Clock, ClockRef, RealClock, StopSignal, VirtualClock, Waited};
pub use rng::SimRng;

use std::time::{Duration, Instant};

/// Deadline-bounded condition wait against real time.
///
/// Polls `pred` with exponential backoff (50µs → 5ms) until it returns true
/// or `timeout` elapses; returns the final value of `pred`. This is the
/// replacement for the `loop { sleep(5ms); if cond { break } }` pattern:
/// bounded above by the deadline, and never *asserting* on elapsed time —
/// only on the condition itself.
pub fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    let mut backoff = Duration::from_micros(50);
    loop {
        if pred() {
            return true;
        }
        if Instant::now() >= deadline {
            // One last look: the condition may have become true while we
            // were sleeping out the final interval.
            return pred();
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_millis(5));
    }
}

/// Run `f` on a helper thread and give it `timeout` of real time to return:
/// `Some(result)` if it did, `None` if it is still running (the helper is
/// then left detached). For tests of "this shutdown/drop/stop returns":
/// pick a generous bound and assert on `is_some()`, never on elapsed time.
pub fn returns_within<T: Send + 'static>(
    timeout: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(timeout).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn wait_until_sees_late_condition() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            h.store(1, Ordering::SeqCst);
        });
        assert!(wait_until(Duration::from_secs(5), || {
            hits.load(Ordering::SeqCst) == 1
        }));
        t.join().unwrap();
    }

    #[test]
    fn returns_within_tells_a_return_from_a_hang() {
        assert_eq!(returns_within(Duration::from_secs(20), || 7), Some(7));
        let (_keep, never) = std::sync::mpsc::channel::<()>();
        assert_eq!(
            returns_within(Duration::from_millis(30), move || never.recv().ok()),
            None
        );
    }

    #[test]
    fn wait_until_gives_up_at_deadline() {
        let start = Instant::now();
        assert!(!wait_until(Duration::from_millis(30), || false));
        assert!(start.elapsed() >= Duration::from_millis(30));
    }
}
