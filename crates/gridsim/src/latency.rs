//! Latency and overhead models.
//!
//! Distributed-systems costs (network dispatch, interpreter start-up, batch
//! submit latency) are *paid* by sleeping a scaled duration. A global
//! [`TimeScale`] compresses every modelled latency by the same factor, so the
//! relative standings between systems — the property the paper's figures
//! report — are preserved while the absolute run time shrinks to CI scale.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Global multiplicative compression applied to all modelled latencies.
///
/// Stored as micro-units (1_000_000 == 1.0) in an atomic so tests and bench
/// harnesses can adjust it without threading a handle everywhere. Real
/// computation is never scaled — only modelled overheads go through here.
pub struct TimeScale;

static SCALE_MICRO: AtomicU64 = AtomicU64::new(1_000_000);

impl TimeScale {
    /// Set the global scale factor (e.g. `0.1` to run 10× compressed).
    pub fn set(factor: f64) {
        let clamped = factor.clamp(0.0, 1000.0);
        SCALE_MICRO.store((clamped * 1e6) as u64, Ordering::Relaxed);
    }

    /// Current scale factor.
    pub fn get() -> f64 {
        SCALE_MICRO.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// Scale a modelled duration by the global [`TimeScale`].
pub fn scaled(d: Duration) -> Duration {
    d.mul_f64(TimeScale::get())
}

/// Pay (sleep) a modelled overhead, after global scaling.
///
/// Sleeping — rather than spinning — is the right model: a Python or Node
/// process starting up, or a packet crossing the interconnect, does not
/// consume the local worker's CPU.
pub fn pay(d: Duration) {
    let d = scaled(d);
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

/// [`pay`], but sleeping on an explicit clock — under a virtual clock the
/// modelled overhead elapses logically instead of burning wall time.
pub(crate) fn pay_on(clock: &dyn simtest::Clock, d: Duration) {
    let d = scaled(d);
    if !d.is_zero() {
        clock.sleep(d);
    }
}

/// Per-boundary latency model used by executors and runners.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Cost of dispatching one task across this boundary (submit→worker).
    pub dispatch: Duration,
    /// Cost of returning one result across this boundary (worker→submit).
    pub result: Duration,
    /// Fractional uniform jitter applied to each payment (0.1 = ±10%).
    pub jitter_frac: f64,
}

impl LatencyModel {
    /// No modelled latency — same-process execution (ThreadPoolExecutor).
    pub fn in_process() -> Self {
        Self {
            dispatch: Duration::ZERO,
            result: Duration::ZERO,
            jitter_frac: 0.0,
        }
    }

    /// A LAN hop between the submit side and a pilot-job manager, as in
    /// Parsl's HighThroughputExecutor. Calibrated to O(1 ms) per task, which
    /// matches published HTEX per-task overheads at small scale.
    pub fn cluster_lan() -> Self {
        Self {
            dispatch: Duration::from_micros(500),
            result: Duration::from_micros(300),
            jitter_frac: 0.10,
        }
    }

    /// Pay the dispatch-direction cost on an explicit clock.
    pub fn pay_dispatch_on(&self, clock: &dyn simtest::Clock) {
        pay_on(clock, self.jittered(self.dispatch));
    }

    /// Pay the result-direction cost on an explicit clock.
    pub fn pay_result_on(&self, clock: &dyn simtest::Clock) {
        pay_on(clock, self.jittered(self.result));
    }

    fn jittered(&self, base: Duration) -> Duration {
        if self.jitter_frac <= 0.0 || base.is_zero() {
            return base;
        }
        // Cheap thread-local jitter; statistical quality is irrelevant here.
        use rand::Rng;
        let mut rng = rand::thread_rng();
        let f = 1.0 + rng.gen_range(-self.jitter_frac..self.jitter_frac);
        base.mul_f64(f.max(0.0))
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::in_process()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Serialize tests that mutate the global scale.
    static SCALE_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn scale_roundtrip() {
        let _g = SCALE_LOCK.lock();
        let old = TimeScale::get();
        TimeScale::set(0.25);
        assert!((TimeScale::get() - 0.25).abs() < 1e-9);
        assert_eq!(
            scaled(Duration::from_millis(100)),
            Duration::from_millis(25)
        );
        TimeScale::set(old);
    }

    #[test]
    fn zero_scale_eliminates_pay() {
        let _g = SCALE_LOCK.lock();
        let old = TimeScale::get();
        TimeScale::set(0.0);
        let t = Instant::now();
        pay(Duration::from_secs(10));
        assert!(t.elapsed() < Duration::from_millis(50));
        TimeScale::set(old);
    }

    #[test]
    fn pay_sleeps_roughly_scaled_amount() {
        let _g = SCALE_LOCK.lock();
        let old = TimeScale::get();
        TimeScale::set(1.0);
        let t = Instant::now();
        pay(Duration::from_millis(20));
        let e = t.elapsed();
        assert!(e >= Duration::from_millis(18), "slept only {e:?}");
        TimeScale::set(old);
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let m = LatencyModel {
            dispatch: Duration::from_millis(10),
            result: Duration::ZERO,
            jitter_frac: 0.5,
        };
        for _ in 0..200 {
            let j = m.jittered(m.dispatch);
            assert!(
                j >= Duration::from_millis(5) && j <= Duration::from_millis(15),
                "{j:?}"
            );
        }
    }

    #[test]
    fn in_process_pays_nothing() {
        let m = LatencyModel::in_process();
        let t = Instant::now();
        let clock = simtest::real_clock();
        m.pay_dispatch_on(&*clock);
        m.pay_result_on(&*clock);
        assert!(t.elapsed() < Duration::from_millis(10));
    }
}
