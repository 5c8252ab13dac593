//! Bounded parallel execution of a batch of jobs — the scheduling shape of
//! `cwltool --parallel` (a thread per ready job, capped at a slot count).

use crossbeam::channel::unbounded;

/// Run `jobs` with at most `slots` running concurrently. Results come back
/// in job order. Panics in jobs are isolated per job and reported as `Err`.
pub(crate) fn run_parallel<T, F>(jobs: Vec<F>, slots: usize) -> Vec<Result<T, String>>
where
    T: Send,
    F: FnOnce() -> Result<T, String> + Send,
{
    let slots = slots.max(1);
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let (tx, rx) = unbounded::<(usize, F)>();
    for (i, job) in jobs.into_iter().enumerate() {
        tx.send((i, job)).expect("queue open");
    }
    drop(tx);

    let mut results: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
    let (rtx, rrx) = unbounded::<(usize, Result<T, String>)>();
    crossbeam::thread::scope(|scope| {
        for _ in 0..slots.min(n) {
            let rx = rx.clone();
            let rtx = rtx.clone();
            scope.spawn(move |_| {
                while let Ok((i, job)) = rx.recv() {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
                        .unwrap_or_else(|p| {
                            let msg = p
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| p.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "job panicked".to_string());
                            Err(format!("job panicked: {msg}"))
                        });
                    let _ = rtx.send((i, result));
                }
            });
        }
        drop(rtx);
        while let Ok((i, r)) = rrx.recv() {
            results[i] = Some(r);
        }
    })
    .expect("scoped threads join");
    results
        .into_iter()
        .map(|r| r.expect("every job reported a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn results_in_order() {
        let jobs: Vec<_> = (0..20)
            .map(|i| move || -> Result<usize, String> { Ok(i * 2) })
            .collect();
        let results = run_parallel(jobs, 4);
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap(), i * 2);
        }
    }

    #[test]
    fn respects_slot_bound() {
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..12)
            .map(|_| {
                let running = running.clone();
                let peak = peak.clone();
                move || -> Result<(), String> {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(15));
                    running.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                }
            })
            .collect();
        run_parallel(jobs, 3);
        let p = peak.load(Ordering::SeqCst);
        assert!(p <= 3, "peak concurrency {p} exceeded 3 slots");
        assert!(p >= 2, "no parallelism observed");
    }

    #[test]
    fn failures_and_panics_isolated() {
        let jobs: Vec<Box<dyn FnOnce() -> Result<i32, String> + Send>> = vec![
            Box::new(|| Ok(1)),
            Box::new(|| Err("bad".to_string())),
            Box::new(|| panic!("kaboom")),
            Box::new(|| Ok(4)),
        ];
        let results = run_parallel(jobs, 2);
        assert_eq!(results[0].as_ref().unwrap(), &1);
        assert_eq!(results[1].as_ref().unwrap_err(), "bad");
        assert!(results[2].as_ref().unwrap_err().contains("kaboom"));
        assert_eq!(results[3].as_ref().unwrap(), &4);
    }

    #[test]
    fn empty_and_zero_slots() {
        let empty: Vec<fn() -> Result<(), String>> = vec![];
        assert!(run_parallel(empty, 4).is_empty());
        let one = vec![|| -> Result<i32, String> { Ok(9) }];
        assert_eq!(run_parallel(one, 0)[0].as_ref().unwrap(), &9);
    }
}
