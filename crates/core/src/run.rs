//! One run: the document set it was admitted with plus its inputs, and the
//! lifecycle steps `parsl-cwl` and `parsl-serve` share.
//!
//! A [`RunSpec`] is loaded once — every CWL file the run consists of read,
//! parsed and loaded by [`DocSet`] — and everything after works from that
//! one value: the pre-run gate analyzes it, the journal's run hash covers
//! its bytes, and [`RunSpec::execute`] runs it. A run that waits (queued
//! behind `max_in_flight`) executes the documents it was admitted with, not
//! whatever is on disk when it starts.

use crate::cwlapp::{CwlApp, CwlAppOptions};
use crate::wfrunner::ParslWorkflowRunner;
use cwl::analyze::{AnalyzeOptions, ExecutorCapacity, Report};
use cwl::docs::{DocSet, Loaded};
use cwl::loader::CwlDocument;
use datastore::Stager;
use parsl::DataFlowKernel;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use yamlite::{Map, Value};

/// The documents and inputs of one run.
#[derive(Debug)]
pub struct RunSpec {
    /// Every file the run consists of, read once.
    pub(crate) docs: DocSet,
    /// The root input object.
    pub(crate) inputs: Map,
}

impl RunSpec {
    /// Read the document at `path` and every file its `run:` references
    /// reach. A file that cannot be read, parsed or loaded keeps its error:
    /// [`RunSpec::gate`] reports it, [`RunSpec::document`] refuses with it.
    pub fn load(path: &Path, inputs: Map) -> Self {
        Self {
            docs: DocSet::load(path),
            inputs,
        }
    }

    /// The root document, or why there is none (`load_file`'s refusal).
    pub fn document(&self) -> Result<&CwlDocument, String> {
        self.docs.root().document()
    }

    /// The root document's file name: the journal label.
    pub fn label(&self) -> String {
        let root = &self.docs.root().path;
        root.file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    }

    /// The run identity: every file of the set, in load order, chained with
    /// the root input object. Two runs share a hash exactly when replaying
    /// one's results in the other is sound.
    pub fn hash(&self) -> Result<u64, String> {
        let mut h = ckpt::FNV_OFFSET;
        for entry in self.docs.entries() {
            let text = match &entry.loaded {
                Loaded::Unread(e) => {
                    return Err(format!("cannot hash {}: {e}", entry.path.display()))
                }
                Loaded::Unparsed { text, .. } | Loaded::Parsed { text, .. } => text,
            };
            h = ckpt::fnv1a(h, text.as_bytes());
        }
        let inputs = yamlite::to_string_flow(&Value::Map(self.inputs.clone()));
        Ok(ckpt::fnv1a(h, inputs.as_bytes()))
    }

    /// The pre-run gate: refuse a run the static analyzer can already prove
    /// broken, checking resource requirements against `capacity`. `Err`
    /// carries the analyzer's report.
    pub fn gate(&self, capacity: ExecutorCapacity, strict: bool) -> Result<(), Report> {
        let opts = AnalyzeOptions {
            capacity: Some(capacity),
        };
        cwl::analyze::gate(&self.docs, &opts, strict)
    }

    /// Hash the run's root `class: File` inputs into the content store up
    /// front, in parallel — tasks consuming them then stage by index hit.
    /// Best-effort: unreadable paths surface later as per-task errors.
    pub fn prestage(&self, stager: &Stager, pool: usize) {
        let mut paths = Vec::new();
        for (_, v) in self.inputs.iter() {
            collect_file_paths(v, &mut paths);
        }
        paths.sort();
        paths.dedup();
        if paths.is_empty() {
            return;
        }
        let _ = stager.store().ingest_parallel(&paths, pool.max(1));
    }

    /// Run the documents on `dfk` and wait for the output object: a
    /// CommandLineTool as one [`CwlApp`] task, a Workflow through
    /// [`ParslWorkflowRunner`].
    pub fn execute(
        &self,
        dfk: &Arc<DataFlowKernel>,
        options: CwlAppOptions,
    ) -> Result<Map, String> {
        let tool = match self.document()? {
            CwlDocument::Workflow(_) => {
                return ParslWorkflowRunner::new(dfk, options).run_docs(&self.docs, &self.inputs)
            }
            CwlDocument::Tool(tool) => tool.clone(),
        };
        let label = self.docs.root().path.file_stem();
        let label = label.map(|s| s.to_string_lossy().into_owned());
        let app = CwlApp::from_tool(dfk, tool, label, options)?;
        let mut invocation = app.call();
        for (k, v) in self.inputs.iter() {
            invocation = invocation.arg(k.to_string(), v.clone());
        }
        match invocation.submit()?.future.result() {
            Ok(Value::Map(m)) => Ok(m),
            Ok(other) => Err(format!("unexpected tool result {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Collect `class: File` paths from an input value, recursively.
fn collect_file_paths(value: &Value, out: &mut Vec<PathBuf>) {
    match value {
        Value::Map(m) => {
            if m.get("class").and_then(|c| c.as_str()) == Some("File") {
                if let Some(p) = m.get("path").or_else(|| m.get("location")) {
                    if let Some(p) = p.as_str() {
                        out.push(PathBuf::from(p));
                    }
                }
            }
            for (_, v) in m.iter() {
                collect_file_paths(v, out);
            }
        }
        Value::Seq(s) => {
            for v in s {
                collect_file_paths(v, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixtures() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
    }

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("core-run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn run_diamond(spec: &RunSpec, workdir: &Path) -> String {
        let dfk = DataFlowKernel::try_new(parsl::Config::local_threads(2)).unwrap();
        let options = CwlAppOptions::in_dir(workdir).with_builtin_tools();
        let outputs = spec.execute(&dfk, options).unwrap();
        dfk.shutdown();
        let joined = outputs.get("joined").unwrap();
        std::fs::read_to_string(joined["path"].as_str().unwrap()).unwrap()
    }

    /// `load` is the only read: with every document file deleted after it,
    /// the gate and the run see the set it loaded, and the run's outputs are
    /// those of a run whose files are still there.
    #[test]
    fn a_loaded_spec_gates_and_runs_without_its_files() {
        let dir = scratch("no-files");
        let docs = dir.join("docs");
        std::fs::create_dir_all(&docs).unwrap();
        for file in ["diamond.cwl", "echo.cwl", "copy_text.cwl", "join_text.cwl"] {
            std::fs::copy(fixtures().join(file), docs.join(file)).unwrap();
        }
        let mut inputs = Map::new();
        inputs.insert("message", Value::str("read once"));
        let spec = RunSpec::load(&docs.join("diamond.cwl"), inputs.clone());
        let hash = spec.hash().unwrap();
        std::fs::remove_dir_all(&docs).unwrap();

        let capacity = crate::lint::executor_capacity(&parsl::Config::local_threads(2));
        spec.gate(capacity, true).unwrap();
        assert_eq!(spec.hash().unwrap(), hash);
        let detached = run_diamond(&spec, &dir.join("detached"));

        let normal = RunSpec::load(&fixtures().join("diamond.cwl"), inputs);
        assert_eq!(normal.hash().unwrap(), hash, "same bytes, same run");
        assert_eq!(detached, run_diamond(&normal, &dir.join("normal")));
        assert_eq!(detached, "read once\nread once\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
