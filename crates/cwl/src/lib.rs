//! `cwl` — a from-scratch implementation of the Common Workflow Language
//! v1.2 subset the Parsl+CWL paper exercises.
//!
//! CWL has two main abstractions (paper §II-A), both modeled here:
//!
//! * [`CommandLineTool`] — the YAML description of a command-line program:
//!   `baseCommand`, typed `inputs` with `inputBinding`s, typed `outputs`
//!   (including `stdout`/`stderr` capture and `glob` collection),
//!   `arguments`, and `requirements`;
//! * [`Workflow`] — steps linked by `source` references, with
//!   `StepInputExpressionRequirement` (`valueFrom`),
//!   `ScatterFeatureRequirement` (`scatter`), and
//!   `SubworkflowFeatureRequirement` (nested workflows) — everything the
//!   paper's image-processing evaluation workflow (Listing 3 plus the §VI
//!   scatter wrapper) requires.
//!
//! Supporting machinery:
//!
//! * [`loader`] — YAML document → model;
//! * [`docs`] — the set of files a run consists of: `run:` references
//!   resolved relative to the referencing file, each file read once;
//! * [`analyze`] — whole-document static analysis, the one rulebook for a
//!   valid document (`cwl-check`, `parsl-cwl --validate`, the pre-run gate
//!   and serve's admission — cwltool's `--validate` role): structural
//!   rules, typed dataflow checking, parse-only expression linting,
//!   span-carrying diagnostics with stable codes;
//! * [`binding`] — the command-line binding algorithm (position/prefix
//!   sorting, array `itemSeparator`, boolean flags, `valueFrom`);
//! * [`outputs`] — post-execution output collection (stdout capture, glob);
//! * [`input`] — input-object normalization, defaults, type checking, and
//!   the paper's `validate:` field (§V, Listing 6).
//!
//! Expressions inside documents are delegated to an
//! [`expr::ExpressionEngine`] — JavaScript per the CWL spec, or the paper's
//! inline Python.

pub mod analyze;
pub mod binding;
pub mod docs;
pub mod input;
pub mod loader;
pub mod outputs;
pub mod requirements;
pub mod tool;
pub mod types;
pub mod workflow;

pub use analyze::{analyze_file, analyze_str, analyze_value, Diag, Report, Severity};
pub use binding::{build_command, BuiltCommand};
pub use docs::DocSet;
pub use loader::{load_document, load_file, CwlDocument};
pub use requirements::Requirements;
pub use tool::{Argument, CommandLineTool, InputBinding, InputParam, OutputParam};
pub use types::CwlType;
pub use workflow::{Step, StepInput, Workflow, WorkflowOutput};

/// The analyzer's findings for one parsed document
/// ([`analyze::analyze_value`]). Kept only because the benchmark under
/// `ledger/` names it and [`validate::is_valid`], and may not change outside
/// the benchmark's own revision, which deletes both. Nothing in the
/// workspace calls them.
pub fn validate_document(doc: &yamlite::Value) -> Vec<Diag> {
    analyze_value(doc).diags
}

/// See [`validate_document`].
pub mod validate {
    /// Whether none of `diags` is an error.
    pub fn is_valid(diags: &[crate::Diag]) -> bool {
        diags.iter().all(|d| d.severity != crate::Severity::Error)
    }

    /// The structural rules of a valid document, one row each: a document
    /// and the exact `(code, path)` of every error and warning
    /// [`crate::analyze_value`] gives it. Its `run:` targets stay
    /// unresolved, so each row shows only its own rule. The rows keep the
    /// test names of the deleted structural validator; the benchmark's
    /// revision that deletes this module moves them into the analyzer's
    /// tests.
    #[cfg(test)]
    mod tests {
        use crate::analyze::codes::*;
        use crate::Severity;

        type Found<'a> = &'a [(&'a str, &'a str)];

        fn row(text: &str, errors: Found, warnings: Found) {
            let report = crate::analyze_value(&yamlite::parse_str(text).unwrap());
            let found = |severity| {
                let mut found: Vec<(&str, &str)> = report
                    .diags
                    .iter()
                    .filter(|d| d.severity == severity)
                    .map(|d| (d.code, d.path.as_str()))
                    .collect();
                found.sort();
                found
            };
            fn sorted<'a>(expected: Found<'a>) -> Vec<(&'a str, &'a str)> {
                let mut expected = expected.to_vec();
                expected.sort();
                expected
            }
            assert_eq!(
                (found(Severity::Error), found(Severity::Warning)),
                (sorted(errors), sorted(warnings)),
                "{}",
                report.render_text()
            );
            // The one-document entry finds what `analyze_str` finds in the
            // same text with no file, spans aside.
            let unspanned = |diags: &[crate::Diag]| {
                let mut found: Vec<_> = diags.iter().map(|d| (d.code, d.path.clone())).collect();
                found.sort();
                found
            };
            let spanned = crate::analyze_str(text, None);
            assert_eq!(unspanned(&report.diags), unspanned(&spanned.diags));
        }

        #[test]
        fn valid_tool_passes() {
            row(
                "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: echo\ninputs:\n  m:\n    type: string\noutputs: {}\n",
                &[],
                &[],
            );
        }

        #[test]
        fn missing_version_flagged() {
            row(
                "class: CommandLineTool\nbaseCommand: echo\ninputs: {}\noutputs: {}\n",
                &[(CWL_MODEL, "cwlVersion")],
                &[],
            );
        }

        #[test]
        fn odd_version_warns_but_valid() {
            row(
                "cwlVersion: v9.9\nclass: CommandLineTool\nbaseCommand: x\ninputs: {}\noutputs: {}\n",
                &[],
                &[(ODD_VERSION, "cwlVersion")],
            );
        }

        #[test]
        fn no_command_flagged() {
            row(
                "cwlVersion: v1.2\nclass: CommandLineTool\ninputs: {}\noutputs: {}\n",
                &[(NO_COMMAND, "baseCommand")],
                &[],
            );
        }

        #[test]
        fn validate_field_requires_python_requirement() {
            row(
                "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: cat\ninputs:\n  f:\n    type: File\n    validate: f\"{check($(inputs.f))}\"\noutputs: {}\n",
                &[(VALIDATE_NEEDS_PY, "inputs.f.validate")],
                &[],
            );
        }

        #[test]
        fn docker_requirement_warns() {
            row(
                "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: x\nrequirements:\n  - class: DockerRequirement\ninputs: {}\noutputs: {}\n",
                &[],
                &[(IGNORED_REQ, "requirements")],
            );
        }

        #[test]
        fn workflow_bad_source_flagged() {
            row(
                r#"
cwlVersion: v1.2
class: Workflow
inputs:
  img: File
outputs:
  out:
    type: File
    outputSource: stepA/missing_out
steps:
  stepA:
    run: a.cwl
    in:
      x: img
      y: ghost_input
    out: [real_out]
"#,
                &[
                    (UNKNOWN_SOURCE, "steps.stepA.in.y"),
                    (UNKNOWN_SOURCE, "outputs.out.outputSource"),
                ],
                &[(UNUSED_OUTPUT, "steps.stepA.out")],
            );
        }

        #[test]
        fn scatter_without_requirement_flagged() {
            row(
                r#"
cwlVersion: v1.2
class: Workflow
inputs:
  xs: File[]
outputs: {}
steps:
  s:
    run: t.cwl
    scatter: missing_target
    in:
      item: xs
    out: []
"#,
                &[
                    (SCATTER_NOT_INPUT, "steps.s.scatter"),
                    (SCATTER_NEEDS_REQ, "steps.s.scatter"),
                ],
                &[],
            );
        }

        #[test]
        fn scatter_over_non_array_input_flagged() {
            row(
                r#"
cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
inputs:
  word: string
outputs: {}
steps:
  s:
    run: t.cwl
    scatter: item
    in:
      item: word
    out: []
"#,
                &[(SCATTER_NOT_ARRAY, "steps.s.scatter")],
                &[],
            );
        }

        #[test]
        fn scatter_over_array_input_accepted() {
            row(
                r#"
cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
inputs:
  words: string[]
outputs: {}
steps:
  s:
    run: t.cwl
    scatter: item
    in:
      item: words
    out: []
"#,
                &[],
                &[],
            );
        }

        #[test]
        fn value_from_without_requirement_flagged() {
            row(
                r#"
cwlVersion: v1.2
class: Workflow
inputs: {}
outputs: {}
steps:
  s:
    run: t.cwl
    in:
      name:
        valueFrom: "fixed.rimg"
    out: []
"#,
                &[(VALUE_FROM_NEEDS_REQ, "steps.s.in.name.valueFrom")],
                &[],
            );
        }

        #[test]
        fn valid_image_workflow_passes() {
            row(crate::workflow::IMAGE_WORKFLOW_CWL, &[], &[]);
        }

        #[test]
        fn when_requires_v12() {
            row(
                "cwlVersion: v1.0\nclass: Workflow\ninputs:\n  r: int\noutputs: {}\nsteps:\n  s:\n    run: t.cwl\n    when: $(inputs.r > 0)\n    in:\n      r: r\n    out: []\n",
                &[(WHEN_NEEDS_V12, "steps.s.when")],
                &[],
            );
            row(
                "cwlVersion: v1.2\nclass: Workflow\ninputs:\n  r: int\noutputs: {}\nsteps:\n  s:\n    run: t.cwl\n    when: $(inputs.r > 0)\n    in:\n      r: r\n    out: []\n",
                &[],
                &[],
            );
        }

        #[test]
        fn dangling_step_input_flagged() {
            row(
                "cwlVersion: v1.2\nclass: Workflow\ninputs: {}\noutputs: {}\nsteps:\n  s:\n    run: t.cwl\n    in:\n      x:\n        source: null\n    out: []\n",
                &[(DANGLING_STEP_INPUT, "steps.s.in.x")],
                &[],
            );
        }
    }
}
