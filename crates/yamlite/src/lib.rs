//! `yamlite` — a from-scratch YAML-subset parser and emitter, plus the shared
//! dynamic [`Value`] model used across the whole workspace.
//!
//! CWL documents (CommandLineTools, Workflows, input objects, TaPS-style Parsl
//! configurations) are YAML. Rather than depending on an external YAML crate,
//! this crate implements the subset of YAML 1.2 that CWL documents actually
//! use:
//!
//! * block mappings and block sequences with indentation-based structure,
//! * flow mappings/sequences (`{a: 1, b: [2, 3]}`), which also makes the
//!   parser a strict superset of JSON for the values CWL needs,
//! * plain, single-quoted, and double-quoted scalars with YAML 1.2 core-schema
//!   scalar resolution (`null`, booleans, integers, floats, strings),
//! * literal (`|`, `|-`, `|+`) and folded (`>`, `>-`) block scalars — CWL uses
//!   these extensively to embed expression code,
//! * comments and document-start markers (`---`).
//!
//! Deliberately *not* supported (CWL documents do not need them): anchors and
//! aliases, complex (non-string) mapping keys, tags, and multi-document
//! streams beyond a single leading `---`.
//!
//! # Quick example
//!
//! ```
//! let doc = yamlite::parse_str("
//! cwlVersion: v1.2
//! class: CommandLineTool
//! inputs:
//!   message:
//!     type: string
//!     default: Hello
//! ").unwrap();
//! assert_eq!(doc["class"].as_str(), Some("CommandLineTool"));
//! assert_eq!(doc["inputs"]["message"]["default"].as_str(), Some("Hello"));
//! ```

#![warn(unreachable_pub)]

pub(crate) mod emit;
pub(crate) mod error;
pub(crate) mod parse;
pub mod span;
pub(crate) mod value;

pub use emit::{to_string, to_string_flow};
pub use error::{ParseError, Position};
pub use parse::{parse_str, parse_str_spanned};
pub use span::SpanIndex;
pub use value::{rewrite_seq, Map, Value};

use std::path::Path;

/// The largest file [`read_regular`] reads: the size of the largest
/// request frame `parsl-serve` accepts (16 MiB).
pub const MAX_FILE_BYTES: u64 = 16 << 20;

/// The text of `path` if it is a regular file of at most
/// [`MAX_FILE_BYTES`]; the error says why not (`not a regular file`, the
/// size, or the I/O error). It is stat'ed first: the metadata of a FIFO
/// answers at once, where opening it waits for a writer. Every YAML and
/// CWL file the workspace reads comes through here.
pub fn read_regular(path: &Path) -> Result<String, String> {
    let meta = std::fs::metadata(path).map_err(|e| e.to_string())?;
    if !meta.is_file() {
        return Err("not a regular file".to_string());
    }
    if meta.len() > MAX_FILE_BYTES {
        return Err(format!(
            "{} bytes, over the {MAX_FILE_BYTES}-byte limit",
            meta.len()
        ));
    }
    std::fs::read_to_string(path).map_err(|e| e.to_string())
}

fn read_file(path: &Path) -> Result<String, ParseError> {
    read_regular(path).map_err(|e| {
        ParseError::at(
            format!("cannot read {}: {e}", path.display()),
            Position::default(),
        )
    })
}

/// Parse a YAML document from a file path (read by [`read_regular`]).
pub fn parse_file(path: impl AsRef<Path>) -> Result<Value, ParseError> {
    parse_str(&read_file(path.as_ref())?)
}

/// Parse a YAML document from a file path, keeping the span side-table so
/// diagnostics can point back into the source (the `parse_file` analogue
/// of [`parse_str_spanned`]).
pub fn parse_file_spanned(path: impl AsRef<Path>) -> Result<(Value, SpanIndex), ParseError> {
    parse_str_spanned(&read_file(path.as_ref())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_file_missing() {
        let err = parse_file("/definitely/not/here.yml").unwrap_err();
        assert!(err.message.contains("cannot read"));
    }

    #[test]
    fn roundtrip_simple_doc() {
        let doc = parse_str("a: 1\nb: [x, y]\n").unwrap();
        let emitted = to_string(&doc);
        let again = parse_str(&emitted).unwrap();
        assert_eq!(doc, again);
    }
}
