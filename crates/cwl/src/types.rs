//! The CWL type system subset: primitive types, `File`/`Directory`,
//! `stdout`/`stderr` shorthands, arrays, and optionals.

use std::fmt;
use yamlite::Value;

/// A CWL parameter type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CwlType {
    Null,
    Boolean,
    Int,
    Long,
    Float,
    Double,
    Str,
    File,
    Directory,
    /// Output shorthand: capture the tool's stdout into a file.
    Stdout,
    /// Output shorthand: capture the tool's stderr into a file.
    Stderr,
    /// `items[]`
    Array(Box<CwlType>),
    /// `type?` — null is allowed.
    Optional(Box<CwlType>),
    /// `Any`.
    Any,
}

impl CwlType {
    /// Parse a type from its document representation: a plain string
    /// (`"string"`, `"File[]"`, `"int?"`), a `{type: array, items: ...}`
    /// map, or a `[null, X]` union (optional).
    pub(crate) fn parse(v: &Value) -> Result<Self, String> {
        match v {
            Value::Str(s) => Self::parse_str(s),
            Value::Map(m) => {
                let t = m
                    .get("type")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("type map missing 'type': {v:?}"))?;
                match t {
                    "array" => {
                        let items = m
                            .get("items")
                            .ok_or_else(|| "array type missing 'items'".to_string())?;
                        Ok(CwlType::Array(Box::new(Self::parse(items)?)))
                    }
                    "enum" | "record" => {
                        Err(format!("CWL {t} types are outside the supported subset"))
                    }
                    other => Self::parse_str(other),
                }
            }
            Value::Seq(items) => {
                // Union: only `[null, X]` (optional) is in the subset.
                let non_null: Vec<&Value> = items
                    .iter()
                    .filter(|i| i.as_str() != Some("null"))
                    .collect();
                if non_null.len() == 1 && non_null.len() < items.len() {
                    Ok(CwlType::Optional(Box::new(Self::parse(non_null[0])?)))
                } else {
                    Err(format!("unsupported type union {v:?} (only [null, X])"))
                }
            }
            other => Err(format!("cannot parse type from {other:?}")),
        }
    }

    fn parse_str(s: &str) -> Result<Self, String> {
        if let Some(base) = s.strip_suffix("[]") {
            return Ok(CwlType::Array(Box::new(Self::parse_str(base)?)));
        }
        if let Some(base) = s.strip_suffix('?') {
            return Ok(CwlType::Optional(Box::new(Self::parse_str(base)?)));
        }
        Ok(match s {
            "null" => CwlType::Null,
            "boolean" => CwlType::Boolean,
            "int" => CwlType::Int,
            "long" => CwlType::Long,
            "float" => CwlType::Float,
            "double" => CwlType::Double,
            "string" => CwlType::Str,
            "File" => CwlType::File,
            "Directory" => CwlType::Directory,
            "stdout" => CwlType::Stdout,
            "stderr" => CwlType::Stderr,
            "Any" => CwlType::Any,
            other => return Err(format!("unknown CWL type {other:?}")),
        })
    }

    /// Whether `value` conforms to this type. File values are accepted as
    /// path strings or `{class: File}` objects (normalization happens in
    /// [`crate::input`]).
    pub(crate) fn accepts(&self, value: &Value) -> bool {
        match self {
            CwlType::Null => value.is_null(),
            CwlType::Boolean => matches!(value, Value::Bool(_)),
            CwlType::Int | CwlType::Long => matches!(value, Value::Int(_)),
            CwlType::Float | CwlType::Double => {
                matches!(value, Value::Float(_) | Value::Int(_))
            }
            CwlType::Str => matches!(value, Value::Str(_)),
            CwlType::File | CwlType::Directory => match value {
                Value::Str(_) => true,
                Value::Map(m) => {
                    m.get("class").and_then(Value::as_str)
                        == Some(if *self == CwlType::File {
                            "File"
                        } else {
                            "Directory"
                        })
                }
                _ => false,
            },
            CwlType::Stdout | CwlType::Stderr => false, // output-only shorthands
            CwlType::Array(item) => match value {
                Value::Seq(items) => items.iter().all(|v| item.accepts(v)),
                _ => false,
            },
            CwlType::Optional(inner) => value.is_null() || inner.accepts(value),
            CwlType::Any => !value.is_null(),
        }
    }

    /// Whether null is acceptable (optional or null type).
    pub fn allows_null(&self) -> bool {
        matches!(self, CwlType::Null | CwlType::Optional(_))
    }
}

impl fmt::Display for CwlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CwlType::Null => f.write_str("null"),
            CwlType::Boolean => f.write_str("boolean"),
            CwlType::Int => f.write_str("int"),
            CwlType::Long => f.write_str("long"),
            CwlType::Float => f.write_str("float"),
            CwlType::Double => f.write_str("double"),
            CwlType::Str => f.write_str("string"),
            CwlType::File => f.write_str("File"),
            CwlType::Directory => f.write_str("Directory"),
            CwlType::Stdout => f.write_str("stdout"),
            CwlType::Stderr => f.write_str("stderr"),
            CwlType::Array(item) => write!(f, "{item}[]"),
            CwlType::Optional(inner) => write!(f, "{inner}?"),
            CwlType::Any => f.write_str("Any"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::vmap;

    #[test]
    fn parse_plain_strings() {
        assert_eq!(CwlType::parse(&Value::str("string")).unwrap(), CwlType::Str);
        assert_eq!(CwlType::parse(&Value::str("int")).unwrap(), CwlType::Int);
        assert_eq!(CwlType::parse(&Value::str("File")).unwrap(), CwlType::File);
        assert_eq!(
            CwlType::parse(&Value::str("stdout")).unwrap(),
            CwlType::Stdout
        );
    }

    #[test]
    fn parse_suffixes() {
        assert_eq!(
            CwlType::parse(&Value::str("File[]")).unwrap(),
            CwlType::Array(Box::new(CwlType::File))
        );
        assert_eq!(
            CwlType::parse(&Value::str("int?")).unwrap(),
            CwlType::Optional(Box::new(CwlType::Int))
        );
        assert_eq!(
            CwlType::parse(&Value::str("string[]?")).unwrap(),
            CwlType::Optional(Box::new(CwlType::Array(Box::new(CwlType::Str))))
        );
    }

    #[test]
    fn parse_map_and_union() {
        let m = vmap! {"type" => "array", "items" => "File"};
        assert_eq!(
            CwlType::parse(&m).unwrap(),
            CwlType::Array(Box::new(CwlType::File))
        );
        let u = yamlite::vseq!["null", "int"];
        assert_eq!(
            CwlType::parse(&u).unwrap(),
            CwlType::Optional(Box::new(CwlType::Int))
        );
    }

    #[test]
    fn parse_errors() {
        assert!(CwlType::parse(&Value::str("frobnicator")).is_err());
        assert!(CwlType::parse(&Value::Int(3)).is_err());
        assert!(CwlType::parse(&yamlite::vseq!["int", "string"]).is_err());
        assert!(CwlType::parse(&vmap! {"type" => "enum"}).is_err());
        assert!(CwlType::parse(&vmap! {"type" => "array"}).is_err());
    }

    #[test]
    fn accepts_primitives() {
        assert!(CwlType::Int.accepts(&Value::Int(5)));
        assert!(!CwlType::Int.accepts(&Value::str("5")));
        assert!(CwlType::Double.accepts(&Value::Int(5)));
        assert!(CwlType::Boolean.accepts(&Value::Bool(true)));
        assert!(CwlType::Str.accepts(&Value::str("x")));
        assert!(!CwlType::Str.accepts(&Value::Null));
    }

    #[test]
    fn accepts_files() {
        assert!(CwlType::File.accepts(&Value::str("/a/b.png")));
        assert!(CwlType::File.accepts(&vmap! {"class" => "File", "path" => "/x"}));
        assert!(!CwlType::File.accepts(&vmap! {"class" => "Directory"}));
        assert!(CwlType::Directory.accepts(&vmap! {"class" => "Directory", "path" => "/d"}));
    }

    #[test]
    fn accepts_arrays_and_optionals() {
        let files = CwlType::Array(Box::new(CwlType::File));
        assert!(files.accepts(&yamlite::vseq!["/a", "/b"]));
        assert!(!files.accepts(&yamlite::vseq!["/a", 3i64]));
        let opt = CwlType::Optional(Box::new(CwlType::Int));
        assert!(opt.accepts(&Value::Null));
        assert!(opt.accepts(&Value::Int(1)));
        assert!(opt.allows_null());
        assert!(!CwlType::Int.allows_null());
    }

    #[test]
    fn display_roundtrip() {
        for t in ["string", "int?", "File[]", "double"] {
            let parsed = CwlType::parse(&Value::str(t)).unwrap();
            assert_eq!(parsed.to_string(), t);
        }
    }
}
