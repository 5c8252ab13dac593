//! The execution engine's view of the data plane: configuration, the
//! per-task staging context, and the end-of-run publication of stage and
//! expression-cache counters into the run's observability handle.

use datastore::{ContentStore, StageMode, StageStats, Stager};
use obs::Observability;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The `staging:` config block, resolved. Shared by every runner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagingSettings {
    /// How files materialize in task workdirs.
    pub mode: StageMode,
    /// Content-store directory. `None` = per-run (`<run dir>/cas`); a
    /// path points several runs at one shared store.
    pub dir: Option<PathBuf>,
    /// Parallel stage-in pool width (prestage hashing).
    pub pool: usize,
}

impl Default for StagingSettings {
    fn default() -> Self {
        StagingSettings {
            mode: StageMode::Auto,
            dir: None,
            pool: 4,
        }
    }
}

impl StagingSettings {
    /// Open the store (under `run_dir` unless pinned by config) and build
    /// a stager in the configured mode.
    pub fn build(&self, run_dir: &std::path::Path) -> Result<Arc<Stager>, String> {
        let root = self.dir.clone().unwrap_or_else(|| run_dir.join("cas"));
        let store = ContentStore::open(&root)
            .map_err(|e| format!("cannot open content store {}: {e}", root.display()))?;
        Ok(Stager::new(store, self.mode))
    }

    /// Reject settings that would fail mid-run: a pinned `staging.dir`
    /// whose deepest existing ancestor is not a writable directory (the
    /// store `open` would error only after tasks started), and a
    /// nonsensical pool width. Config loaders call this so bad user YAML
    /// fails at load with a clear message.
    pub fn validate(&self) -> Result<(), String> {
        if self.pool == 0 {
            return Err("staging.pool must be at least 1".to_string());
        }
        let Some(dir) = &self.dir else { return Ok(()) };
        // The store will mkdir -p below the deepest existing ancestor.
        probe_creatable(dir, &format!("staging.dir {}", dir.display()), "writable")
    }
}

/// Whether `path` (and any missing parents) could be created: walk up to
/// the deepest existing ancestor, which must be a directory this process
/// can create a file in. A relative path with no existing prefix passes.
/// A pinned staging store and a serve socket's directory are both checked
/// with it; `subject` opens the error message and `creatable` names what
/// the path is not.
pub fn probe_creatable(path: &Path, subject: &str, creatable: &str) -> Result<(), String> {
    let mut probe = path;
    while !probe.exists() {
        match probe.parent() {
            Some(p) if p != probe => probe = p,
            _ => return Ok(()),
        }
    }
    if !probe.is_dir() {
        let at = probe.display();
        return Err(format!(
            "{subject}: ancestor {at} exists but is not a directory"
        ));
    }
    let marker = probe.join(format!(".parsl-cwl-probe-{}", std::process::id()));
    match std::fs::File::create(&marker) {
        Ok(_) => {
            let _ = std::fs::remove_file(&marker);
            Ok(())
        }
        Err(e) => Err(format!(
            "{subject} is not {creatable} ({e} at {})",
            probe.display()
        )),
    }
}

/// Per-task staging context threaded into [`crate::execute_tool_staged`]:
/// the stager plus where its spans and dispatch metrics should land.
pub struct StageCtx<'a> {
    pub stager: &'a Stager,
    /// The run's observability handle: stage spans and the
    /// `cwlexec.dispatch.*` metrics land next to the task's other records.
    pub obs: &'a Observability,
    /// Lineage (task) id the spans belong to; 0 = untracked.
    pub lineage: u64,
    /// Parent span id (usually the task's exec span).
    pub parent: u64,
}

/// Fold a stager's cumulative counters, and the expression cache's, into
/// a run's observability handle. Called once per run, after execution and
/// before export — stagers are shared across concurrent tasks, so per-task
/// deltas would race. The expression cache is process-wide (it caches
/// facts about text, not a run's numbers), so its counts are the
/// process's lookups up to this call.
pub fn publish_stage_stats(obs: &Observability, stats: StageStats) {
    obs.counter(obs::names::STAGE_HITS).add(stats.hits);
    obs.counter(obs::names::STAGE_LINKS).add(stats.links);
    obs.counter(obs::names::STAGE_COPIES).add(stats.copies);
    obs.counter(obs::names::STAGE_BYTES_SAVED)
        .add(stats.bytes_saved);
    let cache = expr::cache::stats();
    obs.counter(obs::names::EXPR_CACHE_HITS).add(cache.hits);
    obs.counter(obs::names::EXPR_CACHE_MISSES).add(cache.misses);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_defaults_and_existing_dirs() {
        assert!(StagingSettings::default().validate().is_ok());
        let s = StagingSettings {
            dir: Some(std::env::temp_dir().join("staging-validate-test/cas")),
            ..Default::default()
        };
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_pool() {
        let s = StagingSettings {
            pool: 0,
            ..Default::default()
        };
        assert!(s.validate().unwrap_err().contains("staging.pool"));
    }

    #[test]
    fn validate_rejects_file_ancestor() {
        // /etc/passwd exists and is not a directory, so no path below it
        // can ever be created (this also holds when running as root,
        // unlike permission-based probes).
        let s = StagingSettings {
            dir: Some(PathBuf::from("/etc/passwd/cas")),
            ..Default::default()
        };
        let err = s.validate().unwrap_err();
        assert!(err.contains("not a directory"), "{err}");
    }
}
