//! Run records and their on-disk manifests.
//!
//! Every admitted submission becomes a [`RunRecord`] with a private run
//! directory under `<workdir>/runs/run-<id>`. The record's durable half is
//! `manifest.yml` in that directory, rewritten (tmp + rename, so a crash
//! never leaves a torn manifest) on every state transition. After a daemon
//! crash or SIGTERM, `--resume` re-admits every run whose manifest is not
//! terminal; the run's own checkpoint journal then replays the completed
//! tasks.
//!
//! Run ids come from a persisted monotonic counter (`.run-seq` in the runs
//! dir), never from the pid — a restarted daemon must not mint an id an
//! older incarnation already used, or the new run would collide with the
//! old run's directory and journal.

use cwl_parsl::RunSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use yamlite::{Map, Value};

/// Lifecycle of one admitted submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// Admitted, waiting for an in-flight slot.
    Queued,
    /// Executing on the shared kernel.
    Running,
    /// All outputs materialized.
    Completed,
    /// Execution failed (admission failures are rejected, not recorded).
    Failed,
    /// Cancelled by the client; queued tasks were aborted.
    Cancelled,
}

impl RunState {
    /// Terminal states survive restarts untouched; the rest resume.
    pub(crate) fn is_terminal(self) -> bool {
        matches!(self, Self::Completed | Self::Failed | Self::Cancelled)
    }

    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Completed => "completed",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => Self::Queued,
            "running" => Self::Running,
            "completed" => Self::Completed,
            "failed" => Self::Failed,
            "cancelled" => Self::Cancelled,
            _ => return None,
        })
    }
}

/// One submission's full state, as the daemon tracks it in memory.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub(crate) id: u64,
    pub(crate) tenant: String,
    /// Absolute path of the submitted CWL document.
    pub(crate) cwl: PathBuf,
    pub(crate) inputs: Map,
    pub state: RunState,
    pub(crate) run_dir: PathBuf,
    pub(crate) error: Option<String>,
    pub(crate) outputs: Option<Map>,
    /// Checkpoint activity, filled in at run end.
    pub(crate) replayed: usize,
    pub(crate) appended: usize,
    /// The documents and inputs the run was admitted with, held from
    /// admission until the run starts. `None` for a run recovered from its
    /// manifest, which reloads them from `cwl`.
    pub(crate) spec: Option<Arc<RunSpec>>,
}

impl RunRecord {
    pub(crate) fn manifest_path(&self) -> PathBuf {
        self.run_dir.join("manifest.yml")
    }

    /// Persist the record. Atomic: a reader (or the resuming daemon)
    /// sees the old manifest or the new one, never a prefix.
    pub fn save(&self) -> Result<(), String> {
        let mut m = Map::new();
        m.insert("id", Value::Int(self.id as i64));
        m.insert("tenant", Value::Str(self.tenant.clone()));
        m.insert("cwl", Value::Str(self.cwl.display().to_string()));
        m.insert("state", Value::Str(self.state.as_str().to_string()));
        if let Some(e) = &self.error {
            m.insert("error", Value::Str(e.clone()));
        }
        m.insert("inputs", Value::Map(self.inputs.clone()));
        if let Some(out) = &self.outputs {
            m.insert("outputs", Value::Map(out.clone()));
        }
        m.insert("replayed", Value::Int(self.replayed as i64));
        m.insert("appended", Value::Int(self.appended as i64));
        let text = yamlite::to_string(&Value::Map(m));
        let path = self.manifest_path();
        let tmp = path.with_extension("yml.tmp");
        std::fs::write(&tmp, text).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("renaming {}: {e}", path.display()))
    }

    /// Load a record back from a run directory's manifest.
    pub fn load(run_dir: &Path) -> Result<Self, String> {
        let path = run_dir.join("manifest.yml");
        let v = yamlite::parse_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let id = v
            .get("id")
            .and_then(Value::as_int)
            .ok_or_else(|| format!("{}: missing id", path.display()))? as u64;
        let state = v
            .get("state")
            .and_then(Value::as_str)
            .and_then(RunState::parse)
            .ok_or_else(|| format!("{}: bad state", path.display()))?;
        Ok(Self {
            id,
            tenant: v
                .get("tenant")
                .and_then(Value::as_str)
                .unwrap_or("default")
                .to_string(),
            cwl: PathBuf::from(v.get("cwl").and_then(Value::as_str).unwrap_or_default()),
            inputs: v
                .get("inputs")
                .and_then(Value::as_map)
                .cloned()
                .unwrap_or_default(),
            state,
            run_dir: run_dir.to_path_buf(),
            error: v.get("error").and_then(Value::as_str).map(str::to_string),
            outputs: v.get("outputs").and_then(Value::as_map).cloned(),
            replayed: v.get("replayed").and_then(Value::as_int).unwrap_or(0) as usize,
            appended: v.get("appended").and_then(Value::as_int).unwrap_or(0) as usize,
            spec: None,
        })
    }
}

/// Allocate the next run id from the persisted counter, surviving daemon
/// restarts. The counter is advanced *before* the id is used, so a crash
/// between allocation and run-dir creation burns an id instead of
/// reusing one.
pub(crate) fn next_run_id(runs_dir: &Path) -> Result<u64, String> {
    std::fs::create_dir_all(runs_dir).map_err(|e| format!("{}: {e}", runs_dir.display()))?;
    let seq = runs_dir.join(".run-seq");
    let next = std::fs::read_to_string(&seq)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let tmp = runs_dir.join(format!(".run-seq.tmp-{}", std::process::id()));
    std::fs::write(&tmp, format!("{}\n", next + 1))
        .map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &seq).map_err(|e| format!("{}: {e}", seq.display()))?;
    Ok(next)
}

/// Scan the runs dir for persisted manifests, in id order.
pub(crate) fn scan_runs(runs_dir: &Path) -> Vec<RunRecord> {
    let Ok(entries) = std::fs::read_dir(runs_dir) else {
        return Vec::new();
    };
    let mut runs: Vec<RunRecord> = entries
        .flatten()
        .filter(|e| e.path().join("manifest.yml").exists())
        .filter_map(|e| RunRecord::load(&e.path()).ok())
        .collect();
    runs.sort_by_key(|r| r.id);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifests_round_trip_and_ids_never_repeat() {
        let dir = std::env::temp_dir().join(format!("serve-run-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = next_run_id(&dir).unwrap();
        let b = next_run_id(&dir).unwrap();
        assert_eq!((a, b), (0, 1), "persisted counter is monotonic");

        let run_dir = dir.join("run-1");
        std::fs::create_dir_all(&run_dir).unwrap();
        let mut inputs = Map::new();
        inputs.insert("message", Value::Str("hi".into()));
        let rec = RunRecord {
            id: 1,
            tenant: "alice".into(),
            cwl: PathBuf::from("/tmp/wf.cwl"),
            inputs,
            state: RunState::Running,
            run_dir: run_dir.clone(),
            error: None,
            outputs: None,
            replayed: 0,
            appended: 3,
            spec: None,
        };
        rec.save().unwrap();
        let back = RunRecord::load(&run_dir).unwrap();
        assert_eq!(back.id, 1);
        assert_eq!(back.tenant, "alice");
        assert_eq!(back.state, RunState::Running);
        assert!(!back.state.is_terminal());
        assert_eq!(back.appended, 3);
        assert_eq!(
            back.inputs.get("message").and_then(Value::as_str),
            Some("hi")
        );

        // A crashed daemon restarting resumes exactly the non-terminal runs.
        let found = scan_runs(&dir);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id, 1);
        let c = next_run_id(&dir).unwrap();
        assert_eq!(c, 2, "restart never re-mints a used id");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
