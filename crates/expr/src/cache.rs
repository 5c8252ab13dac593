//! Compiled-expression cache: lex/parse each distinct expression source once.
//!
//! CWL workflows evaluate the *same* expression source over and over — every
//! scatter instance re-evaluates its step's `valueFrom`, every output binding
//! re-evaluates its `outputEval` — with only the context changing. The seed
//! implementation re-lexed and re-parsed the source on every evaluation, so
//! parse cost scaled with evaluation count rather than with the number of
//! distinct expressions in the document.
//!
//! This module holds one bounded, sharded LRU cache per program kind (JS
//! expression, JS statement body, Python expression), keyed by an FNV-1a
//! hash of the source with the source itself stored as a collision guard.
//! Hits return an [`Arc`]'d AST, so evaluation pays only tree-walking.
//!
//! The cache deliberately does **not** touch the modelled
//! [`crate::engine::JsCostModel`] spawn/marshal costs: those model the
//! per-evaluation `node` process boundary of the cwltool/Toil baselines,
//! which re-pay the boundary whether or not the text was seen before. Only
//! in-process interpretation — the parsl-cwl fast path — benefits.
//!
//! The cache is process-global (expressions are immutable text → immutable
//! ASTs, so sharing across engines is sound) and can be switched off with
//! [`set_enabled`], which the throughput benchmark uses to measure the
//! pre-cache baseline from the same binary.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shards per cache: spreads lock pressure when many workers evaluate
/// concurrently. Power of two so the shard index is a mask.
const SHARDS: usize = 8;

/// Entries per shard; total capacity per program kind is
/// `SHARDS * SHARD_CAPACITY`. Real workflow documents carry tens of
/// distinct expressions, so 1024 never evicts in practice — the bound
/// exists to keep adversarial inputs (generated expression text) from
/// growing memory without limit.
const SHARD_CAPACITY: usize = 128;

static ENABLED: AtomicBool = AtomicBool::new(true);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Enable or disable the cache process-wide, returning the previous state.
/// Disabling does not drop existing entries; lookups simply bypass them.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::SeqCst)
}

/// Whether the cache is currently consulted.
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Aggregate hit/miss counters across all program kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
}

/// Current counter values.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

/// Zero the hit/miss counters (benchmark harness bookkeeping).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Process-global observability counters for the cache, resolved once so
/// the hit path never pays the registry's name lookup.
fn obs_counters() -> &'static (Arc<obs::Counter>, Arc<obs::Counter>) {
    static C: std::sync::OnceLock<(Arc<obs::Counter>, Arc<obs::Counter>)> =
        std::sync::OnceLock::new();
    C.get_or_init(|| {
        let g = obs::global();
        (
            g.counter(obs::names::EXPR_CACHE_HITS),
            g.counter(obs::names::EXPR_CACHE_MISSES),
        )
    })
}

/// FNV-1a over the source text.
fn fnv1a(src: &str) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for b in src.bytes() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

struct Entry<T> {
    /// Collision guard: the hash keys the map, the text settles ties.
    src: Box<str>,
    prog: Arc<T>,
    last_used: u64,
}

struct Shard<T> {
    map: HashMap<u64, Entry<T>>,
    /// Monotonic use counter driving LRU eviction within the shard.
    tick: u64,
}

/// A bounded, sharded program cache for one compiled-AST type.
pub struct ProgramCache<T> {
    shards: [Mutex<Shard<T>>; SHARDS],
}

impl<T> Default for ProgramCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ProgramCache<T> {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    tick: 0,
                })
            }),
        }
    }

    /// Look up the compiled program for `src`, compiling (and caching) on a
    /// miss. Compilation runs outside the shard lock; compile errors are
    /// returned and never cached (the error path re-parses, which is fine —
    /// a failing expression fails the task that carries it).
    pub(crate) fn get_or_compile<E>(
        &self,
        src: &str,
        compile: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        if !enabled() {
            return compile(src).map(Arc::new);
        }
        let h = fnv1a(src);
        let shard = &self.shards[(h as usize) & (SHARDS - 1)];
        {
            let mut g = shard.lock();
            g.tick += 1;
            let tick = g.tick;
            if let Some(e) = g.map.get_mut(&h) {
                if &*e.src == src {
                    e.last_used = tick;
                    HITS.fetch_add(1, Ordering::Relaxed);
                    if obs::global().is_enabled() {
                        obs_counters().0.incr();
                    }
                    return Ok(e.prog.clone());
                }
            }
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        if obs::global().is_enabled() {
            obs_counters().1.incr();
        }
        let prog = Arc::new(compile(src)?);
        let mut g = shard.lock();
        g.tick += 1;
        let tick = g.tick;
        if g.map.len() >= SHARD_CAPACITY && !g.map.contains_key(&h) {
            // Evict the least-recently-used entry of this shard. A linear
            // scan over ≤128 entries only runs once the shard is full,
            // which a real workflow document never reaches.
            if let Some(&lru) = g
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                g.map.remove(&lru);
            }
        }
        g.map.insert(
            h,
            Entry {
                src: src.into(),
                prog: prog.clone(),
                last_used: tick,
            },
        );
        Ok(prog)
    }

    /// Drop every cached program.
    pub(crate) fn clear(&self) {
        for s in &self.shards {
            s.lock().map.clear();
        }
    }
}

/// The process-global caches, one per compiled-AST type.
pub(crate) mod global {
    use super::ProgramCache;
    use crate::js::ast::{Expr, Stmt};
    use crate::py::ast::PExpr;
    use std::sync::OnceLock;

    /// JS `$(...)` expression programs.
    pub(crate) fn js_expr() -> &'static ProgramCache<Expr> {
        static C: OnceLock<ProgramCache<Expr>> = OnceLock::new();
        C.get_or_init(ProgramCache::new)
    }

    /// JS `${...}` statement-body programs.
    pub(crate) fn js_body() -> &'static ProgramCache<Vec<Stmt>> {
        static C: OnceLock<ProgramCache<Vec<Stmt>>> = OnceLock::new();
        C.get_or_init(ProgramCache::new)
    }

    /// Python expression programs.
    pub(crate) fn py_expr() -> &'static ProgramCache<PExpr> {
        static C: OnceLock<ProgramCache<PExpr>> = OnceLock::new();
        C.get_or_init(ProgramCache::new)
    }
}

/// Drop every cached program in every global cache (benchmark harness: a
/// fresh baseline run must not inherit a warm cache).
pub fn clear_all() {
    global::js_expr().clear();
    global::js_body().clear();
    global::py_expr().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> ProgramCache<T> {
        /// Number of cached programs.
        fn len(&self) -> usize {
            self.shards.iter().map(|s| s.lock().map.len()).sum()
        }

        /// Whether the cache holds no programs.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// `ENABLED`, `HITS` and `MISSES` are process-wide, so the tests of this
    /// module take turns: one that flips the switch or compares counter
    /// deltas must not overlap one that looks programs up by the thousand.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        TURN.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_ast() {
        let _serial = serial();
        let cache: ProgramCache<String> = ProgramCache::new();
        let before = stats();
        let a = cache
            .get_or_compile::<()>("inputs.x + 1", |s| Ok(s.to_uppercase()))
            .unwrap();
        let b = cache
            .get_or_compile::<()>("inputs.x + 1", |_| panic!("must not recompile"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the compiled program");
        let after = stats();
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.misses - before.misses, 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let _serial = serial();
        let cache: ProgramCache<String> = ProgramCache::new();
        let e = cache.get_or_compile("boom", |_| Err::<String, _>("syntax"));
        assert_eq!(e.unwrap_err(), "syntax");
        assert_eq!(cache.len(), 0);
        // A later good compile of the same source still works.
        let ok = cache
            .get_or_compile::<()>("boom", |s| Ok(s.to_string()))
            .unwrap();
        assert_eq!(&*ok, "boom");
    }

    #[test]
    fn disabled_cache_always_compiles() {
        let _serial = serial();
        let cache: ProgramCache<u32> = ProgramCache::new();
        let was = set_enabled(false);
        let mut compiles = 0;
        for _ in 0..3 {
            cache
                .get_or_compile::<()>("x", |_| {
                    compiles += 1;
                    Ok(7)
                })
                .unwrap();
        }
        set_enabled(was);
        assert_eq!(compiles, 3);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_is_bounded_with_lru_eviction() {
        let _serial = serial();
        let cache: ProgramCache<usize> = ProgramCache::new();
        let total = SHARDS * SHARD_CAPACITY;
        for i in 0..total * 2 {
            cache
                .get_or_compile::<()>(&format!("expr-{i}"), |_| Ok(i))
                .unwrap();
        }
        assert!(
            cache.len() <= total,
            "cache grew past its bound: {}",
            cache.len()
        );
        assert!(!cache.is_empty());
    }

    #[test]
    fn distinct_sources_do_not_collide_in_use() {
        let _serial = serial();
        let cache: ProgramCache<String> = ProgramCache::new();
        for i in 0..64 {
            let src = format!("inputs.field{i}");
            let got = cache
                .get_or_compile::<()>(&src, |s| Ok(s.to_string()))
                .unwrap();
            assert_eq!(&*got, &src);
        }
        for i in 0..64 {
            let src = format!("inputs.field{i}");
            let got = cache
                .get_or_compile::<()>(&src, |_| panic!("recompiled"))
                .unwrap();
            assert_eq!(&*got, &src);
        }
    }

    #[test]
    fn concurrent_lookups_agree() {
        let _serial = serial();
        let cache: Arc<ProgramCache<String>> = Arc::new(ProgramCache::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let src = format!("shared-{}", i % 10);
                    let got = cache
                        .get_or_compile::<()>(&src, |s| Ok(s.to_string()))
                        .unwrap();
                    assert_eq!(&*got, &src, "thread {t}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() >= 10);
    }
}
