//! CWL parameter references: `$(inputs.message)`, `$(inputs.files[0].path)`.
//!
//! A parameter reference is a restricted navigation path over the evaluation
//! context (`inputs`, `self`, `runtime`). When a reference does not fit the
//! restricted grammar, CWL semantics say it is a full expression — callers
//! fall back to the JavaScript engine in that case (see [`crate::interp`]).

use crate::error::EvalError;
use yamlite::{Map, Value};

/// The standard CWL evaluation context.
#[derive(Debug, Clone, Default)]
pub struct EvalContext {
    /// The tool/step input object.
    pub(crate) inputs: Value,
    /// `self` — context-dependent (e.g. the file a binding applies to).
    pub self_: Value,
    /// Runtime facts: `cores`, `ram`, `outdir`, `tmpdir`.
    pub(crate) runtime: Value,
}

impl EvalContext {
    /// Build a context from an inputs map with default runtime values.
    pub fn from_inputs(inputs: Value) -> Self {
        Self {
            inputs,
            self_: Value::Null,
            runtime: default_runtime(),
        }
    }

    /// Flatten into the globals map the engines expect.
    pub(crate) fn to_globals(&self) -> Map {
        let mut m = Map::with_capacity(3);
        m.insert("inputs", self.inputs.clone());
        m.insert("self", self.self_.clone());
        m.insert("runtime", self.runtime.clone());
        m
    }
}

/// The default `runtime` object CWL runners expose.
pub(crate) fn default_runtime() -> Value {
    let mut m = Map::new();
    m.insert("cores", Value::Int(1));
    m.insert("ram", Value::Int(1024));
    m.insert("outdir", Value::str("."));
    m.insert("tmpdir", Value::str("/tmp"));
    Value::Map(m)
}

/// Whether `path` fits the restricted parameter-reference grammar:
/// `ident(.ident | [int] | ["key"] | ['key'])*`.
pub(crate) fn is_simple_reference(path: &str) -> bool {
    parse_segments(path).is_some()
}

/// One parsed segment of a reference path.
#[derive(Debug, Clone, PartialEq)]
enum Seg {
    Field(String),
    Index(i64),
}

fn parse_segments(path: &str) -> Option<Vec<Seg>> {
    let bytes = path.as_bytes();
    let mut segs = Vec::new();
    let mut i = 0;

    let read_ident = |i: &mut usize| -> Option<String> {
        let start = *i;
        while *i < bytes.len() && (bytes[*i].is_ascii_alphanumeric() || bytes[*i] == b'_') {
            *i += 1;
        }
        if *i == start || bytes[start].is_ascii_digit() {
            return None;
        }
        Some(path[start..*i].to_string())
    };

    segs.push(Seg::Field(read_ident(&mut i)?));
    while i < bytes.len() {
        match bytes[i] {
            b'.' => {
                i += 1;
                segs.push(Seg::Field(read_ident(&mut i)?));
            }
            b'[' => {
                i += 1;
                if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                    let quote = bytes[i];
                    i += 1;
                    let start = i;
                    while i < bytes.len() && bytes[i] != quote {
                        i += 1;
                    }
                    if i >= bytes.len() {
                        return None;
                    }
                    segs.push(Seg::Field(path[start..i].to_string()));
                    i += 1; // closing quote
                } else {
                    let start = i;
                    if i < bytes.len() && bytes[i] == b'-' {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let idx: i64 = path[start..i].parse().ok()?;
                    segs.push(Seg::Index(idx));
                }
                if i >= bytes.len() || bytes[i] != b']' {
                    return None;
                }
                i += 1;
            }
            _ => return None,
        }
    }
    Some(segs)
}

/// Resolve a parameter-reference path against a globals map
/// (`inputs`/`self`/`runtime` at the top level).
pub(crate) fn resolve(globals: &Map, path: &str) -> Result<Value, EvalError> {
    let segs = parse_segments(path).ok_or_else(|| {
        EvalError::new(
            crate::error::EvalErrorKind::Syntax,
            format!("{path:?} is not a simple parameter reference"),
        )
    })?;
    let mut cur: Value = match &segs[0] {
        Seg::Field(root) => globals
            .get(root)
            .cloned()
            .ok_or_else(|| EvalError::name(format!("unknown reference root {root:?}")))?,
        Seg::Index(_) => return Err(EvalError::name("reference cannot start with an index")),
    };
    for seg in &segs[1..] {
        cur = match (seg, &cur) {
            (Seg::Field(f), Value::Map(m)) => m
                .get(f)
                .cloned()
                .ok_or_else(|| EvalError::name(format!("reference {path:?}: no field {f:?}")))?,
            (Seg::Index(i), Value::Seq(items)) => {
                let len = items.len() as i64;
                let j = if *i < 0 { len + i } else { *i };
                items
                    .get(j.max(0) as usize)
                    .filter(|_| j >= 0)
                    .cloned()
                    .ok_or_else(|| {
                        EvalError::name(format!("reference {path:?}: index {i} out of range"))
                    })?
            }
            (seg, other) => {
                return Err(EvalError::name(format!(
                    "reference {path:?}: cannot apply {seg:?} to {}",
                    other.kind()
                )))
            }
        };
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::vmap;

    fn globals() -> Map {
        match vmap! {
            "inputs" => vmap!{
                "message" => "hi",
                "files" => Value::Seq(vec![
                    vmap!{"path" => "/a.png", "basename" => "a.png"},
                    vmap!{"path" => "/b.png", "basename" => "b.png"},
                ]),
                "weird key" => 1i64,
            },
            "runtime" => vmap!{"cores" => 4i64},
        } {
            Value::Map(m) => m,
            _ => unreachable!(),
        }
    }

    #[test]
    fn simple_field() {
        assert_eq!(
            resolve(&globals(), "inputs.message").unwrap(),
            Value::str("hi")
        );
        assert_eq!(resolve(&globals(), "runtime.cores").unwrap(), Value::Int(4));
    }

    #[test]
    fn indexing() {
        assert_eq!(
            resolve(&globals(), "inputs.files[1].basename").unwrap(),
            Value::str("b.png")
        );
        assert_eq!(
            resolve(&globals(), "inputs.files[-1].path").unwrap(),
            Value::str("/b.png")
        );
    }

    #[test]
    fn quoted_field() {
        assert_eq!(
            resolve(&globals(), "inputs[\"weird key\"]").unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            resolve(&globals(), "inputs['weird key']").unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn grammar_classification() {
        assert!(is_simple_reference("inputs.message"));
        assert!(is_simple_reference("inputs.files[0].path"));
        assert!(is_simple_reference("self"));
        assert!(!is_simple_reference("inputs.message.split(' ')"));
        assert!(!is_simple_reference("1 + 1"));
        assert!(!is_simple_reference("inputs.files[0"));
        assert!(!is_simple_reference(""));
        assert!(!is_simple_reference("inputs..x"));
    }

    #[test]
    fn errors() {
        assert!(resolve(&globals(), "nope.x").is_err());
        assert!(resolve(&globals(), "inputs.missing").is_err());
        assert!(resolve(&globals(), "inputs.files[9]").is_err());
        assert!(resolve(&globals(), "inputs.message.x").is_err());
        assert!(resolve(&globals(), "inputs.message[0]").is_err());
    }

    #[test]
    fn context_to_globals() {
        let ctx = EvalContext::from_inputs(vmap! {"a" => 1i64});
        let g = ctx.to_globals();
        assert_eq!(g.get("inputs").unwrap()["a"].as_int(), Some(1));
        assert_eq!(g.get("runtime").unwrap()["cores"].as_int(), Some(1));
        assert!(g.get("self").unwrap().is_null());
    }
}
