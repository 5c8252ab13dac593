//! Loading CWL documents from values and files. Resolving a step's `run:`
//! reference is [`crate::docs::DocSet`]'s.

use crate::tool::CommandLineTool;
use crate::workflow::Workflow;
use std::path::Path;
use yamlite::Value;

/// A parsed top-level CWL document.
#[derive(Debug, Clone, PartialEq)]
pub enum CwlDocument {
    Tool(CommandLineTool),
    Workflow(Workflow),
}

impl CwlDocument {
    /// The document's class name.
    pub fn class(&self) -> &'static str {
        match self {
            CwlDocument::Tool(_) => "CommandLineTool",
            CwlDocument::Workflow(_) => "Workflow",
        }
    }
}

/// Parse a document value by its `class`.
pub fn load_document(v: &Value) -> Result<CwlDocument, String> {
    match v.get("class").and_then(Value::as_str) {
        Some("CommandLineTool") => Ok(CwlDocument::Tool(CommandLineTool::parse(v)?)),
        Some("Workflow") => Ok(CwlDocument::Workflow(Workflow::parse(v)?)),
        Some("ExpressionTool") => Err(
            "ExpressionTool is outside the supported subset (wrap the expression in a step valueFrom instead)"
                .to_string(),
        ),
        Some(other) => Err(format!("unknown CWL class {other:?}")),
        None => Err("document has no 'class' field".to_string()),
    }
}

/// Load and parse a CWL file.
pub fn load_file(path: impl AsRef<Path>) -> Result<CwlDocument, String> {
    let path = path.as_ref();
    let doc = yamlite::parse_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    load_document(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::parse_str;

    #[test]
    fn dispatch_on_class() {
        let tool = parse_str("class: CommandLineTool\ncwlVersion: v1.2\nbaseCommand: echo\ninputs: {}\noutputs: {}\n").unwrap();
        assert_eq!(load_document(&tool).unwrap().class(), "CommandLineTool");
        let wf =
            parse_str("class: Workflow\ncwlVersion: v1.2\ninputs: {}\noutputs: {}\nsteps: {}\n")
                .unwrap();
        let doc = load_document(&wf).unwrap();
        assert_eq!(doc.class(), "Workflow");
        assert!(matches!(doc, CwlDocument::Workflow(_)));
    }

    #[test]
    fn unknown_class_errors() {
        assert!(load_document(&parse_str("class: ExpressionTool\n").unwrap()).is_err());
        assert!(load_document(&parse_str("class: Nonsense\n").unwrap()).is_err());
        assert!(load_document(&parse_str("cwlVersion: v1.2\n").unwrap()).is_err());
    }

    #[test]
    fn load_file_reports_path_in_errors() {
        let err = load_file("/definitely/missing.cwl").unwrap_err();
        assert!(err.contains("missing.cwl"));
    }
}
