//! Whole-document static analysis: typed dataflow checking and expression
//! linting, producing span-carrying diagnostics with stable codes.
//!
//! This pass sits between loading and execution — the role `cwltool
//! --validate` and Toil's pre-flight check play in the CWL ecosystem, plus
//! an expression linter those runners cannot offer because they shell out to
//! `node`: we own the `expr::js`/`expr::py` parsers, so every `$(...)` and
//! `${...}` body is parsed (never evaluated) at analysis time.
//!
//! * [`diag`] — diagnostic model: stable `E0xx`/`W1xx` codes, severity,
//!   source positions from [`yamlite::SpanIndex`], text + JSON rendering;
//! * [`dataflow`] — the typed dataflow checker over the workflow graph:
//!   link resolution, type assignability (with scatter array wrapping and
//!   `when` optional wrapping), `linkMerge` shapes, scatter dimensionality,
//!   cycles, dead steps, and unused outputs;
//! * [`exprlint`] — parse-only expression linting: syntax errors and free
//!   variables outside the CWL binding set (`inputs`, `self`, `runtime`),
//!   plus requirement gating for `${...}` bodies.
//!
//! Entry points: [`analyze_file`] / [`analyze_str`] for source text (spans
//! included), [`analyze_docs`] for an already-loaded
//! [`DocSet`](crate::docs::DocSet) — the passes look every `run:` target up
//! in the set and read no file themselves — and [`analyze_value`] for one
//! parsed document on its own. This is the only code that decides whether
//! a CWL document is valid: `cwl-check`, `parsl-cwl --validate`, the
//! pre-run gate and serve's admission all apply it.

pub(crate) mod dataflow;
pub mod diag;
pub(crate) mod effects;
pub(crate) mod exprlint;
pub mod plan;

pub use diag::{codes, Diag, Report, Severity, Sink};
pub use plan::ExecutorCapacity;

use crate::docs::{DocEntry, DocSet, Loaded};
use crate::loader::{load_document, CwlDocument};
use crate::workflow::{RunRef, Workflow};
use std::collections::BTreeMap;
use std::path::Path;
use yamlite::{SpanIndex, Value};

/// Options for the cwl-check v2 passes. The default runs every pass that
/// needs no external context; adding an [`ExecutorCapacity`] additionally
/// checks `ResourceRequirement`s against the configured executor.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Executor capacity for the feasibility pass (from a run config).
    pub capacity: Option<ExecutorCapacity>,
}

/// Analyze a document from source text. `file`, when given, names the
/// report and provides the base directory for resolving step `run` paths.
pub fn analyze_str(text: &str, file: Option<&Path>) -> Report {
    analyze_str_opts(text, file, &AnalyzeOptions::default())
}

/// [`analyze_str`] with explicit [`AnalyzeOptions`].
pub(crate) fn analyze_str_opts(text: &str, file: Option<&Path>, opts: &AnalyzeOptions) -> Report {
    analyze_docs(&DocSet::from_text(text, file), opts)
}

/// Analyze a CWL file on disk.
pub fn analyze_file(path: impl AsRef<Path>) -> Report {
    analyze_file_opts(path, &AnalyzeOptions::default())
}

/// [`analyze_file`] with explicit [`AnalyzeOptions`].
pub fn analyze_file_opts(path: impl AsRef<Path>, opts: &AnalyzeOptions) -> Report {
    analyze_docs(&DocSet::load(path), opts)
}

/// Analyze a loaded document set: every pass over the root document, plus
/// the file-local errors of the tool files its steps reference. Referenced
/// files are looked up in the set, never read here.
pub fn analyze_docs(docs: &DocSet, opts: &AnalyzeOptions) -> Report {
    let root = docs.root();
    let mut report = Report::new();
    report.file = docs.root_dir().map(|_| root.path.display().to_string());
    match &root.loaded {
        Loaded::Unread(e) => report.diags.push(Diag::yaml_parse(
            format!("cannot read {}: {e}", root.path.display()),
            None,
        )),
        Loaded::Unparsed { error, .. } => report.diags.push(Diag::yaml_parse(
            error.message.clone(),
            Some(error.position),
        )),
        Loaded::Parsed {
            value, spans, doc, ..
        } => {
            let dir = docs.root_dir();
            check_document(docs, value, spans, doc, dir, opts, &mut report);
            if let (Ok(CwlDocument::Workflow(wf)), Some(dir)) = (doc, dir) {
                check_referenced_tools(docs, wf, dir, &mut report);
            }
        }
    }
    report.sort();
    report
}

/// Analyze one already-parsed document on its own: every pass, without
/// spans, its `run:` paths unresolved — the findings [`analyze_str`] gives
/// the same text with no file.
pub fn analyze_value(value: &Value) -> Report {
    let mut report = Report::new();
    let (docs, spans, loaded) = (DocSet::unresolved(), SpanIndex::new(), load_document(value));
    let opts = AnalyzeOptions::default();
    check_document(&docs, value, &spans, &loaded, None, &opts, &mut report);
    report.sort();
    report
}

/// The pre-run gate every runner applies: `Err` carries the report of a
/// document set that is not clean (warnings count under `strict`).
pub fn gate(docs: &DocSet, opts: &AnalyzeOptions, strict: bool) -> Result<(), Report> {
    let report = analyze_docs(docs, opts);
    if report.is_clean(strict) {
        Ok(())
    } else {
        Err(report)
    }
}

/// Every pass over one parsed document, appending to `report`. `dir`
/// anchors its `run:` paths (`None`: no file, so they stay unresolved).
fn check_document(
    docs: &DocSet,
    value: &Value,
    spans: &SpanIndex,
    loaded: &Result<CwlDocument, String>,
    dir: Option<&Path>,
    opts: &AnalyzeOptions,
    report: &mut Report,
) {
    let mut sink = Sink::new(spans, report);
    match value.get("cwlVersion").and_then(Value::as_str) {
        None => sink.error(codes::CWL_MODEL, "cwlVersion", "missing cwlVersion"),
        Some(v) if !matches!(v, "v1.0" | "v1.1" | "v1.2") => sink.warning(
            codes::ODD_VERSION,
            "cwlVersion",
            format!("unrecognized cwlVersion {v:?} (treating as v1.2)"),
        ),
        _ => {}
    }
    match loaded {
        Err(e) => sink.error(codes::CWL_MODEL, "", e.clone()),
        Ok(CwlDocument::Tool(tool)) => {
            dataflow::check_tool(tool, value, &mut sink);
            exprlint::lint_tool(tool, value, &mut sink);
            effects::check_tool(tool, &mut sink);
            plan::check_tool(tool, opts.capacity.as_ref(), &mut sink);
        }
        Ok(CwlDocument::Workflow(wf)) => {
            dataflow::check_workflow(wf, value, docs, dir, &mut sink);
            exprlint::lint_workflow(wf, value, &mut sink);
            effects::check_workflow(wf, value, docs, dir, &mut sink);
            plan::check_workflow(wf, value, docs, dir, opts.capacity.as_ref(), &mut sink);
        }
    }
}

/// File-local error codes a referenced tool file surfaces into the
/// referencing workflow's report (once per file, not once per step).
const REFERENCED_FILE_CODES: &[&str] = &[
    codes::NO_COMMAND,
    codes::DUPLICATE_ID,
    codes::VALIDATE_NEEDS_PY,
    codes::JS_SYNTAX,
    codes::PY_SYNTAX,
    codes::UNBOUND_VAR,
    codes::BODY_NEEDS_REQ,
];

/// Analyze each tool file referenced by `run:` paths exactly once, no
/// matter how many steps reference it, and surface its file-local errors
/// annotated with the referencing steps. Referenced *workflows* are not
/// descended into (they get their own report when checked themselves, and
/// skipping them keeps reference cycles harmless).
fn check_referenced_tools(docs: &DocSet, wf: &Workflow, base_dir: &Path, report: &mut Report) {
    // Group referencing steps per file; BTreeMap keeps the output order
    // stable across runs.
    let mut refs: BTreeMap<&Path, (&DocEntry, Vec<&str>)> = BTreeMap::new();
    for step in &wf.steps {
        if let RunRef::Path(p) = &step.run {
            if let Some(entry) = docs.get(&base_dir.join(p)) {
                refs.entry(&entry.key)
                    .or_insert((entry, Vec::new()))
                    .1
                    .push(&step.id);
            }
        }
    }
    for (key, (entry, steps)) in refs {
        // Unloadable targets are already E003.
        let Loaded::Parsed {
            value, spans, doc, ..
        } = &entry.loaded
        else {
            continue;
        };
        if value.get("class").and_then(Value::as_str) != Some("CommandLineTool") {
            continue;
        }
        let mut sub = Report::new();
        check_document(
            docs,
            value,
            spans,
            doc,
            None,
            &AnalyzeOptions::default(),
            &mut sub,
        );
        sub.sort();
        let note = format!(
            " (referenced from {} step{}: {})",
            steps.len(),
            if steps.len() == 1 { "" } else { "s" },
            steps.join(", ")
        );
        for d in sub.diags {
            if REFERENCED_FILE_CODES.contains(&d.code) {
                report.diags.push(Diag {
                    message: format!("{}{note}", d.message),
                    file: Some(key.display().to_string()),
                    ..d
                });
            }
        }
    }
}

/// Join a path segment onto a dotted base path.
pub(crate) fn join(base: &str, seg: &str) -> String {
    yamlite::span::child_path(base, seg)
}

/// Path of an id-addressed entry inside `container[section]`, matching the
/// document's actual layout: `section.id` when the section is a map,
/// `section[i]` when it is a list of `id:`-carrying entries.
pub(crate) fn entry_path(container: &Value, base: &str, section: &str, id: &str) -> String {
    let section_path = join(base, section);
    match container.get(section) {
        Some(Value::Seq(items)) => {
            for (i, item) in items.iter().enumerate() {
                if item.get("id").and_then(Value::as_str) == Some(id) {
                    return yamlite::span::item_path(&section_path, i);
                }
            }
            section_path
        }
        _ => join(&section_path, id),
    }
}

/// The raw YAML node of a step body, honouring both `steps:` layouts.
pub(crate) fn step_value<'a>(doc: &'a Value, id: &str) -> Option<&'a Value> {
    match doc.get("steps") {
        Some(Value::Map(m)) => m.get(id),
        Some(Value::Seq(items)) => items
            .iter()
            .find(|it| it.get("id").and_then(Value::as_str) == Some(id)),
        _ => None,
    }
}
