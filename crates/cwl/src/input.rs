//! Input-object processing: File normalization, defaults, type checking,
//! and the paper's `validate:` pre-execution hooks (§V, Listing 6).

use crate::tool::{CommandLineTool, InputParam};
use crate::types::CwlType;
use expr::{EvalContext, ExpressionEngine};
use std::sync::Arc;
use yamlite::{Map, Value};

/// Normalize a File-typed value: a bare path string or a partial
/// `{class: File}` object becomes a full File object with `path`,
/// `basename`, `nameroot`, `nameext` (and `size` when the file exists).
pub(crate) fn normalize_file(v: &Value, class: &str) -> Result<Value, String> {
    let path = match v {
        Value::Str(s) => s.clone(),
        Value::Map(m) => {
            if let Some(c) = m.get("class").and_then(Value::as_str) {
                if c != class {
                    return Err(format!("expected class {class:?}, got {c:?}"));
                }
            }
            m.get("path")
                .or_else(|| m.get("location"))
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{class} object missing path: {v:?}"))?
                .to_string()
        }
        other => return Err(format!("cannot treat {other:?} as a {class}")),
    };
    let p = std::path::Path::new(&path);
    let mut m = Map::new();
    m.insert("class", class);
    m.insert("path", path.clone());
    m.insert(
        "basename",
        p.file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default(),
    );
    m.insert(
        "nameroot",
        p.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default(),
    );
    m.insert(
        "nameext",
        p.extension()
            .map(|s| format!(".{}", s.to_string_lossy()))
            .unwrap_or_default(),
    );
    if let Ok(meta) = std::fs::metadata(p) {
        m.insert("size", meta.len() as i64);
    }
    // A content digest attached upstream (data plane, output collection)
    // survives normalization; it is how staged files are revalidated
    // without re-reading bytes.
    if let Value::Map(src) = v {
        if let Some(checksum) = src.get("checksum") {
            m.insert("checksum", checksum.clone());
        }
    }
    Ok(Value::Map(m))
}

/// Normalize a value against its declared type (recursing into arrays and
/// optionals), then verify conformance.
pub fn normalize_value(v: &Value, typ: &CwlType) -> Result<Value, String> {
    Ok(normalize(v, typ)?.unwrap_or_else(|| v.clone()))
}

/// The normalization walk behind [`normalize_value`]. `None` reports that
/// `v` is already in normal form (and conforms to `typ`), so a caller
/// holding it in a shared cell can pass the cell on instead of a copy.
fn normalize(v: &Value, typ: &CwlType) -> Result<Option<Value>, String> {
    let normalized = match (typ, v) {
        (CwlType::File, _) if !v.is_null() => Some(normalize_file(v, "File")?),
        (CwlType::Directory, _) if !v.is_null() => Some(normalize_file(v, "Directory")?),
        (CwlType::Array(item), Value::Seq(items)) => {
            yamlite::rewrite_seq(items, |it| normalize(it, item))?.map(Value::Seq)
        }
        (CwlType::Optional(inner), _) if !v.is_null() => normalize(v, inner)?,
        // Widen ints to declared float/double types.
        (CwlType::Float | CwlType::Double, Value::Int(i)) => Some(Value::Float(*i as f64)),
        _ => None,
    };
    let result = normalized.as_ref().unwrap_or(v);
    let null_ok = result.is_null() && typ.allows_null();
    if !(typ.accepts(result) || null_ok) {
        return Err(format!("value {result:?} does not conform to type {typ}"));
    }
    Ok(normalized)
}

/// Resolve a provided input object against a tool's declared inputs:
/// apply defaults, normalize Files, check types, and reject unknown keys.
/// Returns the complete job-order map used for binding and expressions.
/// A provided value that normalization leaves unchanged is shared with
/// `provided`, not copied.
pub fn resolve_inputs(params: &[InputParam], provided: &Map) -> Result<Map, String> {
    for key in provided.keys() {
        if !params.iter().any(|p| p.id == key) {
            return Err(format!("unknown input {key:?}"));
        }
    }
    let mut resolved = Map::with_capacity(params.len());
    for param in params {
        let given = provided.get_shared(&param.id);
        let raw = match given {
            Some(cell) => &**cell,
            None => param.default.as_ref().unwrap_or(&Value::Null),
        };
        if raw.is_null() && !param.typ.allows_null() {
            return Err(format!(
                "missing required input {:?} of type {}",
                param.id, param.typ
            ));
        }
        let cell =
            match normalize(raw, &param.typ).map_err(|e| format!("input {:?}: {e}", param.id))? {
                Some(changed) => Arc::new(changed),
                None => given.cloned().unwrap_or_else(|| Arc::new(raw.clone())),
            };
        resolved.insert_shared(param.id.clone(), cell);
    }
    Ok(resolved)
}

/// Run the paper's `validate:` hooks: each expression evaluates with the
/// resolved inputs in scope; a raised exception fails the tool before
/// execution (Listing 6's CSV check).
pub fn run_validate_hooks(
    tool: &CommandLineTool,
    inputs: &Map,
    engine: &dyn ExpressionEngine,
) -> Result<(), String> {
    let ctx = EvalContext::from_inputs(Value::Map(inputs.clone()));
    for param in &tool.inputs {
        if let Some(expr_src) = &param.validate {
            expr::interpolate(expr_src.trim(), engine, &ctx)
                .map_err(|e| format!("validation of input {:?} failed: {e}", param.id))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::CommandLineTool;
    use expr::PyEngine;
    use yamlite::{parse_str, vmap};

    fn params(src: &str) -> Vec<InputParam> {
        let doc = parse_str(&format!(
            "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: x\ninputs:\n{src}outputs: {{}}\n"
        ))
        .unwrap();
        CommandLineTool::parse(&doc).unwrap().inputs
    }

    #[test]
    fn normalize_file_from_string() {
        let v = normalize_file(&Value::str("/data/img.rimg"), "File").unwrap();
        assert_eq!(v["class"].as_str(), Some("File"));
        assert_eq!(v["basename"].as_str(), Some("img.rimg"));
        assert_eq!(v["nameroot"].as_str(), Some("img"));
        assert_eq!(v["nameext"].as_str(), Some(".rimg"));
    }

    #[test]
    fn normalize_file_from_object() {
        let v = normalize_file(&vmap! {"class" => "File", "path" => "/a/b.csv"}, "File").unwrap();
        assert_eq!(v["basename"].as_str(), Some("b.csv"));
        let v = normalize_file(
            &vmap! {"class" => "File", "path" => "/a/b.csv", "checksum" => "xxh64:00000000000000ab"},
            "File",
        )
        .unwrap();
        assert_eq!(v["checksum"].as_str(), Some("xxh64:00000000000000ab"));
        assert!(normalize_file(&vmap! {"class" => "Directory", "path" => "/d"}, "File").is_err());
        assert!(normalize_file(&vmap! {"class" => "File"}, "File").is_err());
        assert!(normalize_file(&Value::Int(3), "File").is_err());
    }

    #[test]
    fn resolve_applies_defaults_and_types() {
        let ps = params("  message:\n    type: string\n    default: hi\n  count:\n    type: int\n");
        let provided = match vmap! {"count" => 3i64} {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        let resolved = resolve_inputs(&ps, &provided).unwrap();
        assert_eq!(resolved.get("message").unwrap().as_str(), Some("hi"));
        assert_eq!(resolved.get("count").unwrap().as_int(), Some(3));
    }

    #[test]
    fn resolve_rejects_missing_and_unknown() {
        let ps = params("  n:\n    type: int\n");
        let empty = Map::new();
        assert!(resolve_inputs(&ps, &empty)
            .unwrap_err()
            .contains("missing required"));
        let bad = match vmap! {"nope" => 1i64, "n" => 1i64} {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        assert!(resolve_inputs(&ps, &bad)
            .unwrap_err()
            .contains("unknown input"));
    }

    #[test]
    fn resolve_type_errors() {
        let ps = params("  n:\n    type: int\n");
        let bad = match vmap! {"n" => "three"} {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        assert!(resolve_inputs(&ps, &bad).is_err());
    }

    #[test]
    fn optional_inputs_may_be_absent() {
        let ps = params("  tag:\n    type: string?\n");
        let resolved = resolve_inputs(&ps, &Map::new()).unwrap();
        assert!(resolved.get("tag").unwrap().is_null());
    }

    #[test]
    fn file_arrays_normalize_each_element() {
        let ps = params("  images:\n    type: File[]\n");
        let provided = match vmap! {"images" => yamlite::vseq!["/a.rimg", "/b.rimg"]} {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        let resolved = resolve_inputs(&ps, &provided).unwrap();
        let imgs = resolved.get("images").unwrap().as_seq().unwrap();
        assert_eq!(imgs[1]["basename"].as_str(), Some("b.rimg"));
    }

    #[test]
    fn int_widens_to_double() {
        let ps = params("  x:\n    type: double\n");
        let provided = match vmap! {"x" => 3i64} {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        let resolved = resolve_inputs(&ps, &provided).unwrap();
        assert_eq!(resolved.get("x").unwrap(), &Value::Float(3.0));
    }

    /// Listing 6 end-to-end: the CSV validation hook.
    #[test]
    fn validate_hooks_listing6() {
        let doc = parse_str(
            r#"
cwlVersion: v1.2
class: CommandLineTool
requirements:
  - class: InlinePythonRequirement
    expressionLib: |
      def valid_file(file, ext):
          if not file.lower().endswith(ext):
              raise Exception(f"Invalid file. Expected '{ext}'")
          return True
baseCommand: cat
inputs:
  data_file:
    type: File
    validate: |
      f"{valid_file($(inputs.data_file.basename), '.csv')}"
    inputBinding:
      position: 1
outputs:
  validated_output:
    type: stdout
"#,
        )
        .unwrap();
        let tool = CommandLineTool::parse(&doc).unwrap();
        let engine = PyEngine::compile(&tool.requirements.py_expression_lib[0]).unwrap();

        let good = resolve_inputs(
            &tool.inputs,
            match &vmap! {"data_file" => "/data/measurements.csv"} {
                Value::Map(m) => m,
                _ => unreachable!(),
            },
        )
        .unwrap();
        run_validate_hooks(&tool, &good, &engine).unwrap();

        let bad = resolve_inputs(
            &tool.inputs,
            match &vmap! {"data_file" => "/data/notes.txt"} {
                Value::Map(m) => m,
                _ => unreachable!(),
            },
        )
        .unwrap();
        let err = run_validate_hooks(&tool, &bad, &engine).unwrap_err();
        assert!(err.contains("Expected '.csv'"), "{err}");
    }
}
