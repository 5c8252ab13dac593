//! Seeded input generation. Everything a workload feeds the programs under
//! test comes from here, derived from `--seed`: image pixels, word lengths
//! and content, the Poisson arrival schedule, the document mix and the poll
//! jitter. The programs receive only the generated files and values.

use simtest::SimRng;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Write `n` seeded `size`×`size` noise images under `dir`; returns their
/// absolute paths in scatter order.
pub fn images(dir: &Path, n: usize, size: u32, seed: u64) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rng = SimRng::seeded(seed).fork("images");
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let path = dir.join(format!("img{i:05}.rimg"));
        let img = imaging::noise(size, size, rng.next_u64());
        imaging::write_rimg(&path, &img).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(path);
    }
    Ok(out)
}

/// `n` seeded lowercase ASCII words of 3 to 12 letters. Lowercase letters
/// only, so Python's `str.title()` and the JS fixture's
/// `charAt(0).toUpperCase() + slice(1)` agree on every word.
pub fn words(n: usize, seed: u64) -> Vec<String> {
    let mut rng = SimRng::seeded(seed).fork("words");
    (0..n)
        .map(|_| {
            let len = 3 + rng.gen_index(10);
            (0..len)
                .map(|_| (b'a' + rng.gen_index(26) as u8) as char)
                .collect()
        })
        .collect()
}

/// The title-casing both Fig. 2 fixtures implement, done by the driver.
pub fn title_case(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().chain(chars).collect(),
        None => String::new(),
    }
}

/// Which document an open-loop arrival submits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Doc {
    /// `diamond.cwl`: four dependent tasks, three hops deep.
    Diamond,
    /// `scatter_words_py.cwl` over 16 words: sixteen independent tasks.
    Words,
}

/// One open-loop arrival: when it is due (from the start of the measured
/// window), what it submits, and for which tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub doc: Doc,
    pub tenant: &'static str,
}

/// The two weighted tenants of the serve workload (weights 2:1 in the
/// daemon config; arrivals are split evenly so the heavier tenant has slack).
pub const TENANTS: [&str; 2] = ["alice", "bob"];

/// Seeded Poisson arrivals at `rate_per_s` over `window`, with a seeded
/// 50/50 document mix and tenant choice. Same seed ⇒ identical schedule.
pub fn poisson_schedule(rate_per_s: f64, window: Duration, seed: u64) -> Vec<Arrival> {
    let mut rng = SimRng::seeded(seed).fork("arrivals");
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival: -ln(1 - U) / rate, U in [0, 1).
        t += -(1.0 - rng.gen_f64()).ln() / rate_per_s;
        if t >= window.as_secs_f64() {
            return out;
        }
        let doc = if rng.gen_index(2) == 0 {
            Doc::Diamond
        } else {
            Doc::Words
        };
        let tenant = TENANTS[rng.gen_index(TENANTS.len())];
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            doc,
            tenant,
        });
    }
}

/// Seeded poll jitter: uniform in 0.5 to 1.5 ms.
pub struct PollJitter(SimRng);

impl PollJitter {
    pub fn new(seed: u64) -> Self {
        Self(SimRng::seeded(seed).fork("poll-jitter"))
    }

    pub fn next(&mut self) -> Duration {
        Duration::from_micros(self.0.gen_range_u64(500, 1500))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_seeded_lowercase_and_vary_in_length() {
        let a = words(200, 7);
        assert_eq!(a, words(200, 7));
        assert_ne!(a, words(200, 8));
        assert!(a
            .iter()
            .all(|w| (3..=12).contains(&w.len()) && w.bytes().all(|b| b.is_ascii_lowercase())));
        let lens: std::collections::BTreeSet<usize> = a.iter().map(String::len).collect();
        assert!(lens.len() > 3, "lengths must vary: {lens:?}");
    }

    #[test]
    fn title_case_matches_the_fixtures() {
        assert_eq!(title_case("word"), "Word");
        assert_eq!(title_case("a"), "A");
        assert_eq!(title_case(""), "");
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let window = Duration::from_secs(5);
        let a = poisson_schedule(20.0, window, 1);
        assert_eq!(
            a,
            poisson_schedule(20.0, window, 1),
            "same seed, same due times"
        );
        let b = poisson_schedule(20.0, window, 2);
        assert_ne!(
            a.iter().map(|x| x.due).collect::<Vec<_>>(),
            b.iter().map(|x| x.due).collect::<Vec<_>>(),
            "different seed, different due times"
        );
        // ~100 arrivals expected; due times ascend and stay in the window.
        assert!((60..=140).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.due < window));
        assert!(a.iter().any(|x| x.doc == Doc::Diamond) && a.iter().any(|x| x.doc == Doc::Words));
    }

    #[test]
    fn poll_jitter_stays_in_range() {
        let mut j = PollJitter::new(3);
        for _ in 0..1000 {
            let d = j.next();
            assert!(d >= Duration::from_micros(500) && d < Duration::from_micros(1500));
        }
    }

    #[test]
    fn images_are_seeded() {
        let scratch = crate::harness::Scratch::create("gen-images").unwrap();
        let dir = scratch.path();
        let a = images(&dir.join("a"), 2, 8, 5).unwrap();
        let b = images(&dir.join("b"), 2, 8, 5).unwrap();
        let c = images(&dir.join("c"), 2, 8, 6).unwrap();
        assert_eq!(std::fs::read(&a[0]).unwrap(), std::fs::read(&b[0]).unwrap());
        assert_ne!(std::fs::read(&a[0]).unwrap(), std::fs::read(&c[0]).unwrap());
        assert_ne!(std::fs::read(&a[0]).unwrap(), std::fs::read(&a[1]).unwrap());
    }
}
