//! The diagnostic framework: stable codes, severity, source spans, and the
//! [`Report`] container with text and JSON rendering.
//!
//! Codes are stable across releases so tooling can match on them:
//!
//! | code | meaning |
//! |------|---------|
//! | E001 | YAML parse error |
//! | E002 | document does not fit the CWL model |
//! | E003 | step `run` target cannot be loaded |
//! | E004 | tool has neither `baseCommand` nor `arguments` |
//! | E005 | duplicate parameter id |
//! | E006 | `validate:` requires `InlinePythonRequirement` |
//! | E010 | link source names no workflow input or step output |
//! | E011 | step link type mismatch |
//! | E012 | scatter target is not a step input |
//! | E013 | scatter source is not an array |
//! | E014 | scatter requires `ScatterFeatureRequirement` |
//! | E015 | invalid `linkMerge` |
//! | E016 | workflow output type mismatch |
//! | E017 | workflow step graph contains a cycle |
//! | E018 | step `out` entry not declared by the run target |
//! | E019 | subworkflow step requires `SubworkflowFeatureRequirement` |
//! | E020 | JavaScript expression syntax error |
//! | E021 | Python expression syntax error |
//! | E022 | unbound variable in expression |
//! | E023 | `${...}` body without an expression requirement |
//! | E024 | `valueFrom` requires `StepInputExpressionRequirement` |
//! | E025 | step input has no source, default, or valueFrom |
//! | E026 | required run-target input is not wired |
//! | E027 | `when` requires cwlVersion v1.2 |
//! | E028 | step input does not match any run-target input |
//! | W101 | step contributes to no workflow output |
//! | W102 | step output is never consumed |
//! | W103 | optional source feeds a required sink |
//! | W104 | unrecognized cwlVersion |
//! | W105 | requirement recognized but ignored by this runner |
//! | W106 | unknown requirement |
//!
//! cwl-check v2 adds the runtime-plane codes. `E03x`/`W11x` come from the
//! effect and feasibility passes over CWL documents; `E04x`/`W12x` come
//! from the `parsl-lint` run-config analyzer (which reuses this framework):
//!
//! | code | meaning |
//! |------|---------|
//! | E030 | write-write collision between steps with no ordering edge |
//! | E031 | scatter shards write a shared path that does not vary per shard |
//! | E032 | ResourceRequirement statically unschedulable |
//! | W110 | writable InitialWorkDirRequirement entry may mutate a staged input |
//! | W111 | ResourceRequirement near executor capacity |
//! | E041 | unknown config key |
//! | E042 | invalid config value |
//! | E043 | invalid config combination |
//! | E044 | staging dir not writable |
//! | E045 | serve socket dir not writable |
//! | W120 | config setting has no effect |
//! | W121 | two configs share one checkpoint dir |

use yamlite::{Position, SpanIndex};

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

/// Stable diagnostic code constants (see the module table).
pub mod codes {
    pub const YAML_PARSE: &str = "E001";
    pub const CWL_MODEL: &str = "E002";
    pub(crate) const RUN_UNLOADABLE: &str = "E003";
    pub(crate) const NO_COMMAND: &str = "E004";
    pub(crate) const DUPLICATE_ID: &str = "E005";
    pub(crate) const VALIDATE_NEEDS_PY: &str = "E006";
    pub const UNKNOWN_SOURCE: &str = "E010";
    pub const LINK_TYPE: &str = "E011";
    pub const SCATTER_NOT_INPUT: &str = "E012";
    pub const SCATTER_NOT_ARRAY: &str = "E013";
    pub const SCATTER_NEEDS_REQ: &str = "E014";
    pub const LINK_MERGE: &str = "E015";
    pub const OUTPUT_TYPE: &str = "E016";
    pub const CYCLE: &str = "E017";
    pub const BAD_STEP_OUT: &str = "E018";
    pub(crate) const SUBWORKFLOW_NEEDS_REQ: &str = "E019";
    pub const JS_SYNTAX: &str = "E020";
    pub const PY_SYNTAX: &str = "E021";
    pub const UNBOUND_VAR: &str = "E022";
    pub const BODY_NEEDS_REQ: &str = "E023";
    pub const VALUE_FROM_NEEDS_REQ: &str = "E024";
    pub(crate) const DANGLING_STEP_INPUT: &str = "E025";
    pub const UNWIRED_INPUT: &str = "E026";
    pub(crate) const WHEN_NEEDS_V12: &str = "E027";
    pub(crate) const UNKNOWN_STEP_INPUT: &str = "E028";
    pub const EFFECT_COLLISION: &str = "E030";
    pub const SCATTER_EFFECT: &str = "E031";
    pub const UNSCHEDULABLE: &str = "E032";
    pub const CFG_UNKNOWN_KEY: &str = "E041";
    pub const CFG_VALUE: &str = "E042";
    pub const CFG_COMBO: &str = "E043";
    pub const CFG_STAGING_DIR: &str = "E044";
    pub const CFG_SERVE_SOCKET: &str = "E045";
    pub const DEAD_STEP: &str = "W101";
    pub(crate) const UNUSED_OUTPUT: &str = "W102";
    pub const OPTIONAL_COERCION: &str = "W103";
    pub(crate) const ODD_VERSION: &str = "W104";
    pub(crate) const IGNORED_REQ: &str = "W105";
    pub(crate) const UNKNOWN_REQ: &str = "W106";
    pub const WRITABLE_INPUT: &str = "W110";
    pub const NEAR_CAPACITY: &str = "W111";
    pub const CFG_NO_EFFECT: &str = "W120";
    pub const CFG_SHARED_CKPT: &str = "W121";
}

/// One analysis finding with a stable code and a best-effort source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Diag {
    /// Stable code (`E0xx` error / `W1xx` warning).
    pub code: &'static str,
    pub severity: Severity,
    /// Dotted path into the document (`steps.per_image.scatter`).
    pub path: String,
    /// 1-based line/column in the source file, when span data is available.
    pub position: Option<Position>,
    pub message: String,
    /// File the finding is in, when it differs from the report's file —
    /// set for findings surfaced from a *referenced* tool file, so the
    /// rendering points at the tool source, not the referencing workflow.
    pub(crate) file: Option<String>,
}

impl Diag {
    /// The E001 finding for text that could not be read or parsed as YAML:
    /// it has no document path.
    pub fn yaml_parse(message: String, position: Option<Position>) -> Self {
        Self {
            code: codes::YAML_PARSE,
            severity: Severity::Error,
            path: String::new(),
            position,
            message,
            file: None,
        }
    }
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        match self.position {
            Some(p) => write!(
                f,
                "{}:{}: {sev}[{}]: {}",
                p.line, p.col, self.code, self.message
            )?,
            None => write!(f, "{sev}[{}]: {}", self.code, self.message)?,
        }
        if !self.path.is_empty() {
            write!(f, " (at {})", self.path)?;
        }
        Ok(())
    }
}

/// Where a checker writes its findings: each dotted path is resolved to a
/// source position through the document's span index. The CWL passes and
/// `parsl-lint`'s config checks share it.
pub struct Sink<'a> {
    spans: &'a SpanIndex,
    report: &'a mut Report,
}

impl<'a> Sink<'a> {
    /// A sink appending to `report`, positioned by `spans`.
    pub fn new(spans: &'a SpanIndex, report: &'a mut Report) -> Self {
        Self { spans, report }
    }

    fn push(&mut self, code: &'static str, severity: Severity, path: String, message: String) {
        let position = self.spans.resolve(&path);
        self.report.diags.push(Diag {
            code,
            severity,
            path,
            position,
            message,
            file: None,
        });
    }

    pub fn error(
        &mut self,
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.push(code, Severity::Error, path.into(), message.into());
    }

    pub fn warning(
        &mut self,
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.push(code, Severity::Warning, path.into(), message.into());
    }
}

/// All findings for one document.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Display name of the analyzed file, when known.
    pub file: Option<String>,
    pub diags: Vec<Diag>,
}

impl Report {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warning_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Clean means no errors; under `strict`, warnings also fail.
    pub fn is_clean(&self, strict: bool) -> bool {
        self.error_count() == 0 && (!strict || self.warning_count() == 0)
    }

    /// Whether any finding carries `code`.
    pub fn has_code(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Sort findings by source position, then code (stable output order).
    pub fn sort(&mut self) {
        self.diags.sort_by_key(|d| {
            let (l, c) = d
                .position
                .map(|p| (p.line, p.col))
                .unwrap_or((usize::MAX, 0));
            (l, c, d.code)
        });
    }

    /// Why a runner refuses to start a run over this report.
    pub fn refusal(&self) -> String {
        format!(
            "static analysis found {} error(s), {} warning(s):\n{}",
            self.error_count(),
            self.warning_count(),
            self.render_text().trim_end()
        )
    }

    /// Compiler-style text rendering, one line per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let file = self.file.as_deref().unwrap_or("<input>");
        for d in &self.diags {
            out.push_str(d.file.as_deref().unwrap_or(file));
            out.push(':');
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// JSON rendering: an object with the file name and a findings array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"file\":");
        json_string(self.file.as_deref().unwrap_or("<input>"), &mut out);
        out.push_str(&format!(
            ",\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.warning_count()
        ));
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":");
            json_string(d.code, &mut out);
            out.push_str(",\"severity\":");
            json_string(
                match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                },
                &mut out,
            );
            match d.position {
                Some(p) => out.push_str(&format!(",\"line\":{},\"column\":{}", p.line, p.col)),
                None => out.push_str(",\"line\":null,\"column\":null"),
            }
            if let Some(f) = &d.file {
                out.push_str(",\"file\":");
                json_string(f, &mut out);
            }
            out.push_str(",\"path\":");
            json_string(&d.path, &mut out);
            out.push_str(",\"message\":");
            json_string(&d.message, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping.
fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            file: Some("wf.cwl".into()),
            diags: vec![
                Diag {
                    code: codes::LINK_TYPE,
                    severity: Severity::Error,
                    path: "steps.s.in.x".into(),
                    position: Some(Position::new(7, 5)),
                    message: "source type string does not match sink type File".into(),
                    file: None,
                },
                Diag {
                    code: codes::UNUSED_OUTPUT,
                    severity: Severity::Warning,
                    path: "steps.s".into(),
                    position: None,
                    message: "output \"o\" is never consumed".into(),
                    file: None,
                },
            ],
        }
    }

    #[test]
    fn counts_and_strictness() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean(false));
        let warn_only = Report {
            diags: vec![r.diags[1].clone()],
            file: None,
        };
        assert!(warn_only.is_clean(false));
        assert!(!warn_only.is_clean(true));
    }

    #[test]
    fn text_rendering_has_span_and_code() {
        let text = sample().render_text();
        assert!(text.contains("wf.cwl:7:5: error[E011]:"), "{text}");
        assert!(text.contains("(at steps.s.in.x)"), "{text}");
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let json = sample().to_json();
        assert!(json.contains("\"code\":\"E011\""), "{json}");
        assert!(json.contains("\"line\":7,\"column\":5"), "{json}");
        assert!(json.contains("\"line\":null"), "{json}");
        // The escaped quotes in the warning message must survive.
        assert!(json.contains("output \\\"o\\\""), "{json}");
    }

    #[test]
    fn sort_orders_by_position() {
        let mut r = sample();
        r.diags.reverse();
        r.sort();
        assert_eq!(r.diags[0].code, codes::LINK_TYPE);
    }
}
