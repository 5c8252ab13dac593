//! Monotonic run-anchored clock.
//!
//! Every timestamp in a trace is "microseconds since the run started", read
//! from a [`simtest::Clock`] anchor — the shared process-wide real clock by
//! default, or a virtual clock under the deterministic simulation harness.
//! On top of the underlying time source, [`RunClock::now_us`] enforces a
//! *global* non-decreasing sequence across threads: a reading can never be
//! smaller than any reading whose call already completed, which makes
//! timestamps taken under a shared lock sorted in lock order by
//! construction.

use simtest::ClockRef;
use std::sync::atomic::{AtomicU64, Ordering};

/// A clock anchored at its creation instant, returning monotonically
/// non-decreasing microsecond offsets.
pub(crate) struct RunClock {
    source: ClockRef,
    epoch_us: u64,
    last_us: AtomicU64,
}

impl std::fmt::Debug for RunClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunClock")
            .field("epoch_us", &self.epoch_us)
            .field("last_us", &self.last_us)
            .field("virtual", &self.source.is_virtual())
            .finish()
    }
}

impl RunClock {
    /// Anchor a new clock at "now" on the process-wide real clock.
    pub(crate) fn new() -> Self {
        Self::with_clock(simtest::real_clock())
    }

    /// Anchor a new clock at "now" on an explicit time source (a
    /// `VirtualClock` under simulation).
    pub(crate) fn with_clock(source: ClockRef) -> Self {
        let epoch_us = source.now().as_micros() as u64;
        Self {
            source,
            epoch_us,
            last_us: AtomicU64::new(0),
        }
    }

    /// Microseconds since the run started. Never decreases, even when the
    /// calls race across threads: each completed call establishes a floor
    /// for every later call.
    pub(crate) fn now_us(&self) -> u64 {
        let raw = (self.source.now().as_micros() as u64).saturating_sub(self.epoch_us);
        let prev = self.last_us.fetch_max(raw, Ordering::AcqRel);
        raw.max(prev)
    }
}

impl Default for RunClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtest::VirtualClock;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn never_decreases_single_thread() {
        let clock = RunClock::new();
        let mut last = 0;
        for _ in 0..10_000 {
            let t = clock.now_us();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn serialized_readings_are_sorted_across_threads() {
        // Readings taken under a shared mutex must come out sorted in lock
        // order — the property the monitoring log depends on.
        let clock = Arc::new(RunClock::new());
        let seq = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let clock = clock.clone();
                let seq = seq.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let mut s = seq.lock();
                        s.push(clock.now_us());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = seq.lock();
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "clock went backwards");
    }

    #[test]
    fn virtual_source_drives_run_time() {
        let vc = VirtualClock::new();
        vc.set_auto(false);
        vc.advance(Duration::from_micros(100));
        // The run clock anchors at its own creation, not the source epoch.
        let clock = RunClock::with_clock(vc.clone());
        assert_eq!(clock.now_us(), 0);
        vc.advance(Duration::from_micros(250));
        assert_eq!(clock.now_us(), 250);
        // And it stays monotone across further advances.
        vc.advance(Duration::from_micros(1));
        assert_eq!(clock.now_us(), 251);
    }
}
