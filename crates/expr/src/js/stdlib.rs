//! Built-in properties, methods, and namespace functions for the JS subset —
//! the pieces CWL expressions rely on (string/array manipulation, `Math`,
//! `JSON`, `parseInt`, …).

use super::eval::{js_to_number, js_to_string, num};
use crate::error::EvalError;
use yamlite::{Map, Value};

/// Whether `name` is a built-in namespace object (`Math.floor(...)` style).
pub fn is_namespace(name: &str) -> bool {
    matches!(
        name,
        "Math" | "JSON" | "Object" | "Array" | "Number" | "String"
    )
}

/// JS `typeof`.
pub(crate) fn type_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "object", // typeof null === "object"
        Value::Bool(_) => "boolean",
        Value::Int(_) | Value::Float(_) => "number",
        Value::Str(_) => "string",
        Value::Seq(_) | Value::Map(_) => "object",
    }
}

/// Property access `obj.name` (no call).
pub(crate) fn get_property(v: &Value, name: &str) -> Result<Value, EvalError> {
    match (v, name) {
        (Value::Str(s), "length") => Ok(Value::Int(s.chars().count() as i64)),
        (Value::Seq(s), "length") => Ok(Value::Int(s.len() as i64)),
        (Value::Map(m), _) => Ok(m.get(name).cloned().unwrap_or(Value::Null)),
        (Value::Null, _) => Err(EvalError::type_err(format!(
            "cannot read property {name:?} of null"
        ))),
        // Property reads on primitives yield undefined, like JS.
        _ => Ok(Value::Null),
    }
}

/// Index access `obj[i]`.
pub(crate) fn get_index(obj: &Value, idx: &Value) -> Result<Value, EvalError> {
    match obj {
        Value::Seq(s) => {
            let i = js_to_number(idx);
            if i.is_nan() || i < 0.0 {
                return Ok(Value::Null);
            }
            Ok(s.get(i as usize).cloned().unwrap_or(Value::Null))
        }
        Value::Str(s) => {
            let i = js_to_number(idx);
            if i.is_nan() || i < 0.0 {
                return Ok(Value::Null);
            }
            Ok(s.chars()
                .nth(i as usize)
                .map(|c| Value::Str(c.to_string()))
                .unwrap_or(Value::Null))
        }
        Value::Map(m) => Ok(m.get(&js_to_string(idx)).cloned().unwrap_or(Value::Null)),
        Value::Null => Err(EvalError::type_err("cannot index null")),
        other => Err(EvalError::type_err(format!(
            "cannot index {}",
            other.kind()
        ))),
    }
}

/// Call a method on a receiver. Returns `(result, mutated_receiver)` — the
/// second slot is `Some(new_value)` for mutating methods (`push`, `pop`,
/// `sort`, …) so the evaluator can write the receiver back.
pub(crate) fn call_method(
    recv: Value,
    method: &str,
    args: &[Value],
) -> Result<(Value, Option<Value>), EvalError> {
    match recv {
        Value::Str(s) => string_method(&s, method, args).map(|v| (v, None)),
        Value::Seq(items) => array_method(items, method, args),
        Value::Map(m) => map_method(&m, method, args).map(|v| (v, None)),
        Value::Int(_) | Value::Float(_) => {
            number_method(js_to_number(&recv), method, args).map(|v| (v, None))
        }
        other => Err(EvalError::type_err(format!(
            "no method {method:?} on {}",
            other.kind()
        ))),
    }
}

fn arg(args: &[Value], i: usize) -> Value {
    args.get(i).cloned().unwrap_or(Value::Null)
}

fn string_method(s: &str, method: &str, args: &[Value]) -> Result<Value, EvalError> {
    let chars: Vec<char> = s.chars().collect();
    let norm_range = |start: f64, end: f64| -> (usize, usize) {
        let len = chars.len() as f64;
        let fix = |x: f64| -> usize {
            let x = if x < 0.0 {
                (len + x).max(0.0)
            } else {
                x.min(len)
            };
            x as usize
        };
        let (a, b) = (fix(start), fix(end));
        (a, b.max(a))
    };
    match method {
        "split" => {
            let sep = arg(args, 0);
            let parts: Vec<Value> = match sep {
                Value::Null => vec![Value::Str(s.to_string())],
                Value::Str(sep) if sep.is_empty() => {
                    chars.iter().map(|c| Value::Str(c.to_string())).collect()
                }
                Value::Str(sep) => s.split(sep.as_str()).map(Value::str).collect(),
                other => {
                    return Err(EvalError::type_err(format!(
                        "split separator must be a string, got {}",
                        other.kind()
                    )))
                }
            };
            Ok(Value::Seq(parts))
        }
        "toUpperCase" => Ok(Value::Str(s.to_uppercase())),
        "toLowerCase" => Ok(Value::Str(s.to_lowercase())),
        "trim" => Ok(Value::str(s.trim())),
        "charAt" => {
            let i = js_to_number(&arg(args, 0)).max(0.0) as usize;
            Ok(Value::Str(
                chars.get(i).map(|c| c.to_string()).unwrap_or_default(),
            ))
        }
        "indexOf" => {
            let needle = js_to_string(&arg(args, 0));
            Ok(Value::Int(match s.find(&needle) {
                Some(byte_pos) => s[..byte_pos].chars().count() as i64,
                None => -1,
            }))
        }
        "lastIndexOf" => {
            let needle = js_to_string(&arg(args, 0));
            Ok(Value::Int(match s.rfind(&needle) {
                Some(byte_pos) => s[..byte_pos].chars().count() as i64,
                None => -1,
            }))
        }
        "slice" | "substring" => {
            let start = js_to_number(&arg(args, 0));
            let end = if args.len() > 1 {
                js_to_number(&arg(args, 1))
            } else {
                chars.len() as f64
            };
            let (a, b) = if method == "substring" {
                let (x, y) = (start.max(0.0), end.max(0.0));
                ((x.min(y)) as usize, (x.max(y)) as usize)
            } else {
                norm_range(start, end)
            };
            let b = b.min(chars.len());
            let a = a.min(b);
            Ok(Value::Str(chars[a..b].iter().collect()))
        }
        "replace" => {
            let from = js_to_string(&arg(args, 0));
            let to = js_to_string(&arg(args, 1));
            // JS replace() replaces only the first occurrence.
            Ok(Value::Str(s.replacen(&from, &to, 1)))
        }
        "replaceAll" => {
            let from = js_to_string(&arg(args, 0));
            let to = js_to_string(&arg(args, 1));
            Ok(Value::Str(s.replace(&from, &to)))
        }
        "concat" => {
            let mut out = s.to_string();
            for a in args {
                out.push_str(&js_to_string(a));
            }
            Ok(Value::Str(out))
        }
        "startsWith" => Ok(Value::Bool(s.starts_with(&js_to_string(&arg(args, 0))))),
        "endsWith" => Ok(Value::Bool(s.ends_with(&js_to_string(&arg(args, 0))))),
        "includes" => Ok(Value::Bool(s.contains(&js_to_string(&arg(args, 0))))),
        "repeat" => {
            let n = js_to_number(&arg(args, 0));
            if n < 0.0 || n.is_nan() {
                return Err(EvalError::type_err("repeat count must be non-negative"));
            }
            Ok(Value::Str(s.repeat(n as usize)))
        }
        "padStart" | "padEnd" => {
            let target = js_to_number(&arg(args, 0)).max(0.0) as usize;
            let pad = if args.len() > 1 {
                js_to_string(&arg(args, 1))
            } else {
                " ".to_string()
            };
            let cur = chars.len();
            if cur >= target || pad.is_empty() {
                return Ok(Value::str(s));
            }
            let mut fill = String::new();
            while fill.chars().count() < target - cur {
                fill.push_str(&pad);
            }
            let fill: String = fill.chars().take(target - cur).collect();
            Ok(Value::Str(if method == "padStart" {
                format!("{fill}{s}")
            } else {
                format!("{s}{fill}")
            }))
        }
        "toString" => Ok(Value::str(s)),
        other => Err(EvalError::type_err(format!(
            "unknown string method {other:?}"
        ))),
    }
}

fn array_method(
    mut items: Vec<Value>,
    method: &str,
    args: &[Value],
) -> Result<(Value, Option<Value>), EvalError> {
    match method {
        "join" => {
            let sep = match arg(args, 0) {
                Value::Null => ",".to_string(),
                other => js_to_string(&other),
            };
            let joined = items
                .iter()
                .map(js_to_string)
                .collect::<Vec<_>>()
                .join(&sep);
            Ok((Value::Str(joined), None))
        }
        "indexOf" => {
            let needle = arg(args, 0);
            let idx = items
                .iter()
                .position(|v| v == &needle)
                .map(|i| i as i64)
                .unwrap_or(-1);
            Ok((Value::Int(idx), None))
        }
        "includes" => {
            let needle = arg(args, 0);
            Ok((Value::Bool(items.contains(&needle)), None))
        }
        "slice" => {
            let len = items.len() as f64;
            let fix = |x: f64| -> usize {
                let x = if x < 0.0 {
                    (len + x).max(0.0)
                } else {
                    x.min(len)
                };
                x as usize
            };
            let start = fix(js_to_number(&arg(args, 0)));
            let end = if args.len() > 1 {
                fix(js_to_number(&arg(args, 1)))
            } else {
                items.len()
            };
            let end = end.max(start);
            Ok((
                Value::Seq(items[start..end.min(items.len())].to_vec()),
                None,
            ))
        }
        "concat" => {
            let mut out = items.clone();
            for a in args {
                match a {
                    Value::Seq(more) => out.extend(more.iter().cloned()),
                    other => out.push(other.clone()),
                }
            }
            Ok((Value::Seq(out), None))
        }
        "flat" => {
            let mut out = Vec::new();
            for v in &items {
                match v {
                    Value::Seq(inner) => out.extend(inner.iter().cloned()),
                    other => out.push(other.clone()),
                }
            }
            Ok((Value::Seq(out), None))
        }
        "reverse" => {
            items.reverse();
            Ok((Value::Seq(items.clone()), Some(Value::Seq(items))))
        }
        "sort" => {
            // Default JS sort: lexicographic by string representation.
            items.sort_by_key(js_to_string);
            Ok((Value::Seq(items.clone()), Some(Value::Seq(items))))
        }
        "push" => {
            for a in args {
                items.push(a.clone());
            }
            let len = items.len() as i64;
            Ok((Value::Int(len), Some(Value::Seq(items))))
        }
        "pop" => {
            let v = items.pop().unwrap_or(Value::Null);
            Ok((v, Some(Value::Seq(items))))
        }
        "shift" => {
            let v = if items.is_empty() {
                Value::Null
            } else {
                items.remove(0)
            };
            Ok((v, Some(Value::Seq(items))))
        }
        "unshift" => {
            for (i, a) in args.iter().enumerate() {
                items.insert(i, a.clone());
            }
            let len = items.len() as i64;
            Ok((Value::Int(len), Some(Value::Seq(items))))
        }
        "toString" => {
            let joined = items.iter().map(js_to_string).collect::<Vec<_>>().join(",");
            Ok((Value::Str(joined), None))
        }
        other => Err(EvalError::type_err(format!(
            "unknown array method {other:?}"
        ))),
    }
}

fn map_method(m: &Map, method: &str, _args: &[Value]) -> Result<Value, EvalError> {
    match method {
        "hasOwnProperty" => Err(EvalError::type_err(
            "use the 'in' operator instead of hasOwnProperty",
        )),
        "toString" => Ok(Value::str("[object Object]")),
        other => {
            // A map member that is not a method: JS would look it up and
            // fail to call it; report a clearer error.
            let _ = m;
            Err(EvalError::type_err(format!(
                "unknown object method {other:?}"
            )))
        }
    }
}

fn number_method(n: f64, method: &str, args: &[Value]) -> Result<Value, EvalError> {
    match method {
        "toFixed" => {
            let digits = js_to_number(&arg(args, 0)).max(0.0) as usize;
            Ok(Value::Str(format!("{n:.digits$}")))
        }
        "toString" => Ok(Value::Str(super::eval::js_number_to_string(n))),
        other => Err(EvalError::type_err(format!(
            "unknown number method {other:?}"
        ))),
    }
}

/// Call a namespace function: `Math.*`, `JSON.*`, `Object.*`, `Array.*`…
pub(crate) fn call_namespace(ns: &str, method: &str, args: &[Value]) -> Result<Value, EvalError> {
    match ns {
        "Math" => math(method, args),
        "JSON" => json(method, args),
        "Object" => match method {
            "keys" => match arg(args, 0) {
                Value::Map(m) => Ok(Value::Seq(m.keys().map(Value::str).collect())),
                other => Err(EvalError::type_err(format!(
                    "Object.keys requires an object, got {}",
                    other.kind()
                ))),
            },
            "values" => match arg(args, 0) {
                Value::Map(m) => Ok(Value::Seq(m.values().cloned().collect())),
                other => Err(EvalError::type_err(format!(
                    "Object.values requires an object, got {}",
                    other.kind()
                ))),
            },
            other => Err(EvalError::name(format!("Object.{other} is not defined"))),
        },
        "Array" => match method {
            "isArray" => Ok(Value::Bool(matches!(arg(args, 0), Value::Seq(_)))),
            other => Err(EvalError::name(format!("Array.{other} is not defined"))),
        },
        "Number" => match method {
            "isInteger" => Ok(Value::Bool(matches!(arg(args, 0), Value::Int(_)))),
            other => Err(EvalError::name(format!("Number.{other} is not defined"))),
        },
        "String" => Err(EvalError::name(format!("String.{method} is not defined"))),
        other => Err(EvalError::name(format!("namespace {other} is not defined"))),
    }
}

fn math(method: &str, args: &[Value]) -> Result<Value, EvalError> {
    let a = js_to_number(&arg(args, 0));
    match method {
        "floor" => Ok(num(a.floor())),
        "ceil" => Ok(num(a.ceil())),
        "round" => Ok(num(a.round())),
        "trunc" => Ok(num(a.trunc())),
        "abs" => Ok(num(a.abs())),
        "sqrt" => Ok(num(a.sqrt())),
        "pow" => Ok(num(a.powf(js_to_number(&arg(args, 1))))),
        "min" => {
            let m = args.iter().map(js_to_number).fold(f64::INFINITY, f64::min);
            Ok(num(m))
        }
        "max" => {
            let m = args
                .iter()
                .map(js_to_number)
                .fold(f64::NEG_INFINITY, f64::max);
            Ok(num(m))
        }
        "log" => Ok(num(a.ln())),
        "log2" => Ok(num(a.log2())),
        "random" => Err(EvalError::new(
            crate::error::EvalErrorKind::Unsupported,
            "Math.random is disabled for deterministic workflows",
        )),
        other => Err(EvalError::name(format!("Math.{other} is not defined"))),
    }
}

fn json(method: &str, args: &[Value]) -> Result<Value, EvalError> {
    match method {
        "stringify" => Ok(Value::Str(yamlite::to_string_flow(&arg(args, 0)))),
        "parse" => {
            let text = js_to_string(&arg(args, 0));
            yamlite::parse_str(&text).map_err(|e| EvalError::type_err(format!("JSON.parse: {e}")))
        }
        other => Err(EvalError::name(format!("JSON.{other} is not defined"))),
    }
}

/// Whether `name` is a bare global function [`call_global`] can dispatch.
pub fn is_global_function(name: &str) -> bool {
    matches!(
        name,
        "parseInt" | "parseFloat" | "String" | "Number" | "Boolean" | "isNaN"
    )
}

/// Call a bare global function (`parseInt(x)` style).
pub(crate) fn call_global(name: &str, args: &[Value]) -> Result<Value, EvalError> {
    match name {
        "parseInt" => {
            let s = js_to_string(&arg(args, 0));
            let t = s.trim();
            // parseInt consumes a leading integer prefix.
            let mut end = 0;
            let bytes = t.as_bytes();
            if end < bytes.len() && (bytes[end] == b'-' || bytes[end] == b'+') {
                end += 1;
            }
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            match t[..end].parse::<i64>() {
                Ok(v) => Ok(Value::Int(v)),
                Err(_) => Ok(Value::Float(f64::NAN)),
            }
        }
        "parseFloat" => {
            let s = js_to_string(&arg(args, 0));
            Ok(match s.trim().parse::<f64>() {
                Ok(f) => num(f),
                Err(_) => Value::Float(f64::NAN),
            })
        }
        "String" => Ok(Value::Str(js_to_string(&arg(args, 0)))),
        "Number" => Ok(num(js_to_number(&arg(args, 0)))),
        "Boolean" => Ok(Value::Bool(arg(args, 0).truthy())),
        "isNaN" => Ok(Value::Bool(js_to_number(&arg(args, 0)).is_nan())),
        other => Err(EvalError::name(format!("{other} is not a function"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::js::eval::eval_expression;
    use yamlite::vmap;

    fn g() -> Map {
        match vmap! {"xs" => yamlite::vseq![3i64, 1i64, 2i64], "name" => "photo.tar.gz"} {
            Value::Map(m) => m,
            _ => unreachable!(),
        }
    }

    fn ev(src: &str) -> Value {
        eval_expression(src, &g()).unwrap()
    }

    #[test]
    fn string_methods() {
        assert_eq!(ev("name.split('.')[0]"), Value::str("photo"));
        assert_eq!(ev("name.indexOf('.tar')"), Value::Int(5));
        assert_eq!(ev("name.slice(0, 5)"), Value::str("photo"));
        assert_eq!(ev("name.slice(-2)"), Value::str("gz"));
        assert_eq!(ev("name.substring(6, 0)"), Value::str("photo."));
        assert_eq!(ev("name.replace('.gz', '')"), Value::str("photo.tar"));
        assert_eq!(ev("'a'.repeat(3)"), Value::str("aaa"));
        assert_eq!(ev("'5'.padStart(3, '0')"), Value::str("005"));
        assert_eq!(ev("name.endsWith('.gz')"), Value::Bool(true));
        assert_eq!(ev("'  x '.trim()"), Value::str("x"));
        assert_eq!(ev("''.split('').length"), Value::Int(0));
        assert_eq!(ev("'abc'.split('')"), yamlite::vseq!["a", "b", "c"]);
    }

    #[test]
    fn array_methods() {
        assert_eq!(ev("xs.join('-')"), Value::str("3-1-2"));
        assert_eq!(ev("xs.indexOf(1)"), Value::Int(1));
        assert_eq!(ev("xs.includes(2)"), Value::Bool(true));
        assert_eq!(ev("xs.slice(1)"), yamlite::vseq![1i64, 2i64]);
        assert_eq!(ev("xs.concat([4])"), yamlite::vseq![3i64, 1i64, 2i64, 4i64]);
        assert_eq!(ev("[[1], [2, 3]].flat()"), yamlite::vseq![1i64, 2i64, 3i64]);
    }

    #[test]
    fn math_namespace() {
        assert_eq!(ev("Math.floor(2.7)"), Value::Int(2));
        assert_eq!(ev("Math.max(1, 5, 3)"), Value::Int(5));
        assert_eq!(ev("Math.pow(2, 10)"), Value::Int(1024));
        assert_eq!(ev("Math.sqrt(9)"), Value::Int(3));
        assert!(eval_expression("Math.random()", &g()).is_err());
    }

    #[test]
    fn json_namespace() {
        assert_eq!(ev("JSON.stringify({a: 1})"), Value::str("{a: 1}"));
        assert_eq!(ev("JSON.parse('[1, 2]')"), yamlite::vseq![1i64, 2i64]);
    }

    #[test]
    fn object_namespace() {
        assert_eq!(ev("Object.keys({a: 1, b: 2})"), yamlite::vseq!["a", "b"]);
        assert_eq!(ev("Object.values({a: 1})"), yamlite::vseq![1i64]);
        assert_eq!(ev("Array.isArray(xs)"), Value::Bool(true));
        assert_eq!(ev("Array.isArray('s')"), Value::Bool(false));
    }

    #[test]
    fn globals() {
        assert_eq!(ev("parseInt('42px')"), Value::Int(42));
        // Strict parse: trailing units make parseFloat yield NaN here.
        assert!(ev("parseFloat('2.5rem')").as_float().unwrap().is_nan());
        assert_eq!(ev("parseFloat('2.5')"), Value::Float(2.5));
        assert_eq!(ev("String(12)"), Value::str("12"));
        assert_eq!(ev("Number('3')"), Value::Int(3));
        assert_eq!(ev("Boolean('')"), Value::Bool(false));
        assert_eq!(ev("isNaN('abc')"), Value::Bool(true));
    }

    #[test]
    fn number_methods() {
        assert_eq!(ev("(2.456).toFixed(2)"), Value::str("2.46"));
        assert_eq!(ev("(7).toString()"), Value::str("7"));
    }

    #[test]
    fn unknown_method_errors() {
        assert!(eval_expression("name.frobnicate()", &g()).is_err());
        assert!(eval_expression("xs.frobnicate()", &g()).is_err());
        assert!(eval_expression("Math.frobnicate(1)", &g()).is_err());
    }
}
