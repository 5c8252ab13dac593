//! Operators, builtin functions, and methods for the Python subset.

use super::ast::{CmpOp, PBinOp};
use crate::error::EvalError;
use yamlite::{Map, Value};

/// Python type name for error messages.
pub(crate) fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "NoneType",
        Value::Bool(_) => "bool",
        Value::Int(_) => "int",
        Value::Float(_) => "float",
        Value::Str(_) => "str",
        Value::Seq(_) => "list",
        Value::Map(_) => "dict",
    }
}

/// Names treated as exception constructors in `raise` statements.
pub fn is_exception_name(name: &str) -> bool {
    matches!(
        name,
        "Exception"
            | "ValueError"
            | "TypeError"
            | "RuntimeError"
            | "KeyError"
            | "IndexError"
            | "FileNotFoundError"
            | "AssertionError"
            | "NotImplementedError"
    )
}

/// Python `str()` conversion.
pub(crate) fn py_str(v: &Value) -> String {
    match v {
        Value::Null => "None".to_string(),
        Value::Bool(b) => if *b { "True" } else { "False" }.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => py_float_str(*f),
        Value::Str(s) => s.clone(),
        Value::Seq(_) | Value::Map(_) => py_repr(v),
    }
}

/// Python `repr()` conversion.
pub(crate) fn py_repr(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\\', "\\\\").replace('\'', "\\'")),
        Value::Seq(items) => {
            let inner: Vec<String> = items.iter().map(py_repr).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Map(m) => {
            let inner: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("'{k}': {}", py_repr(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        other => py_str(other),
    }
}

fn py_float_str(f: f64) -> String {
    if f.is_nan() {
        "nan".into()
    } else if f.is_infinite() {
        if f > 0.0 {
            "inf".into()
        } else {
            "-inf".into()
        }
    } else if f == f.trunc() && f.abs() < 1e16 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

fn both_ints(l: &Value, r: &Value) -> Option<(i64, i64)> {
    let a = match l {
        Value::Int(i) => *i,
        Value::Bool(b) => *b as i64,
        _ => return None,
    };
    let b = match r {
        Value::Int(i) => *i,
        Value::Bool(b) => *b as i64,
        _ => return None,
    };
    Some((a, b))
}

fn type_err_bin(op: &str, l: &Value, r: &Value) -> EvalError {
    EvalError::type_err(format!(
        "unsupported operand type(s) for {op}: '{}' and '{}'",
        type_name(l),
        type_name(r)
    ))
}

/// Apply a binary arithmetic operator with Python semantics.
pub(crate) fn binary(op: PBinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    match op {
        PBinOp::Add => match (l, r) {
            (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
            (Value::Seq(a), Value::Seq(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                Ok(Value::Seq(out))
            }
            _ => {
                if let Some((a, b)) = both_ints(l, r) {
                    Ok(Value::Int(a.wrapping_add(b)))
                } else if let (Some(a), Some(b)) = (as_number(l), as_number(r)) {
                    Ok(Value::Float(a + b))
                } else {
                    Err(type_err_bin("+", l, r))
                }
            }
        },
        PBinOp::Sub => {
            if let Some((a, b)) = both_ints(l, r) {
                Ok(Value::Int(a.wrapping_sub(b)))
            } else if let (Some(a), Some(b)) = (as_number(l), as_number(r)) {
                Ok(Value::Float(a - b))
            } else {
                Err(type_err_bin("-", l, r))
            }
        }
        PBinOp::Mul => match (l, r) {
            (Value::Str(s), Value::Int(n)) | (Value::Int(n), Value::Str(s)) => {
                Ok(Value::Str(s.repeat((*n).max(0) as usize)))
            }
            (Value::Seq(s), Value::Int(n)) | (Value::Int(n), Value::Seq(s)) => {
                let n = (*n).max(0) as usize;
                let mut out = Vec::with_capacity(s.len() * n);
                for _ in 0..n {
                    out.extend(s.iter().cloned());
                }
                Ok(Value::Seq(out))
            }
            _ => {
                if let Some((a, b)) = both_ints(l, r) {
                    Ok(Value::Int(a.wrapping_mul(b)))
                } else if let (Some(a), Some(b)) = (as_number(l), as_number(r)) {
                    Ok(Value::Float(a * b))
                } else {
                    Err(type_err_bin("*", l, r))
                }
            }
        },
        PBinOp::Div => {
            let (a, b) = (
                as_number(l).ok_or_else(|| type_err_bin("/", l, r))?,
                as_number(r).ok_or_else(|| type_err_bin("/", l, r))?,
            );
            if b == 0.0 {
                return Err(EvalError::raised("ZeroDivisionError: division by zero"));
            }
            Ok(Value::Float(a / b))
        }
        PBinOp::FloorDiv => {
            if let Some((a, b)) = both_ints(l, r) {
                if b == 0 {
                    return Err(EvalError::raised(
                        "ZeroDivisionError: integer division by zero",
                    ));
                }
                Ok(Value::Int(py_floor_div(a, b)))
            } else if let (Some(a), Some(b)) = (as_number(l), as_number(r)) {
                if b == 0.0 {
                    return Err(EvalError::raised(
                        "ZeroDivisionError: float floor division by zero",
                    ));
                }
                Ok(Value::Float((a / b).floor()))
            } else {
                Err(type_err_bin("//", l, r))
            }
        }
        PBinOp::Mod => {
            if let Some((a, b)) = both_ints(l, r) {
                if b == 0 {
                    return Err(EvalError::raised(
                        "ZeroDivisionError: integer modulo by zero",
                    ));
                }
                Ok(Value::Int(a - py_floor_div(a, b) * b))
            } else if let (Some(a), Some(b)) = (as_number(l), as_number(r)) {
                if b == 0.0 {
                    return Err(EvalError::raised("ZeroDivisionError: float modulo"));
                }
                Ok(Value::Float(a - (a / b).floor() * b))
            } else {
                Err(type_err_bin("%", l, r))
            }
        }
        PBinOp::Pow => {
            if let Some((a, b)) = both_ints(l, r) {
                if (0..63).contains(&b) {
                    if let Some(p) = a.checked_pow(b as u32) {
                        return Ok(Value::Int(p));
                    }
                }
                Ok(Value::Float((a as f64).powf(b as f64)))
            } else if let (Some(a), Some(b)) = (as_number(l), as_number(r)) {
                Ok(Value::Float(a.powf(b)))
            } else {
                Err(type_err_bin("**", l, r))
            }
        }
    }
}

/// Python floor division for i64.
fn py_floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Unary negation.
pub(crate) fn negate(v: &Value) -> Result<Value, EvalError> {
    match v {
        Value::Int(i) => Ok(Value::Int(-i)),
        Value::Float(f) => Ok(Value::Float(-f)),
        Value::Bool(b) => Ok(Value::Int(-(*b as i64))),
        other => Err(EvalError::type_err(format!(
            "bad operand type for unary -: '{}'",
            type_name(other)
        ))),
    }
}

/// Python comparison (supports ordering, equality, and membership).
pub(crate) fn compare(op: CmpOp, l: &Value, r: &Value) -> Result<bool, EvalError> {
    match op {
        CmpOp::Eq => Ok(py_eq(l, r)),
        CmpOp::Ne => Ok(!py_eq(l, r)),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let ord = py_cmp(l, r).ok_or_else(|| {
                EvalError::type_err(format!(
                    "'<' not supported between instances of '{}' and '{}'",
                    type_name(l),
                    type_name(r)
                ))
            })?;
            Ok(match op {
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            })
        }
        CmpOp::In => membership(l, r),
        CmpOp::NotIn => membership(l, r).map(|b| !b),
    }
}

fn membership(needle: &Value, haystack: &Value) -> Result<bool, EvalError> {
    match haystack {
        Value::Str(s) => match needle {
            Value::Str(sub) => Ok(s.contains(sub.as_str())),
            other => Err(EvalError::type_err(format!(
                "'in <string>' requires string as left operand, not {}",
                type_name(other)
            ))),
        },
        Value::Seq(items) => Ok(items.iter().any(|v| py_eq(v, needle))),
        Value::Map(m) => Ok(m.contains_key(&py_str(needle))),
        other => Err(EvalError::type_err(format!(
            "argument of type '{}' is not iterable",
            type_name(other)
        ))),
    }
}

/// Python equality: numeric cross-type equality, deep for containers.
pub(crate) fn py_eq(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
        (Value::Bool(a), Value::Int(b)) | (Value::Int(b), Value::Bool(a)) => (*a as i64) == *b,
        (Value::Bool(a), Value::Float(b)) | (Value::Float(b), Value::Bool(a)) => {
            (*a as i64 as f64) == *b
        }
        (a, b) => a == b,
    }
}

fn py_cmp(l: &Value, r: &Value) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    match (l, r) {
        (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
        (Value::Seq(a), Value::Seq(b)) => {
            for (x, y) in a.iter().zip(b.iter()) {
                match py_cmp(x, y)? {
                    Ordering::Equal => continue,
                    other => return Some(other),
                }
            }
            Some(a.len().cmp(&b.len()))
        }
        _ => {
            let (a, b) = (as_number(l)?, as_number(r)?);
            a.partial_cmp(&b)
        }
    }
}

/// Items yielded by `for ... in <v>`.
pub(crate) fn iterate(v: &Value) -> Result<Vec<Value>, EvalError> {
    match v {
        Value::Seq(items) => Ok(items.clone()),
        Value::Str(s) => Ok(s.chars().map(|c| Value::Str(c.to_string())).collect()),
        Value::Map(m) => Ok(m.keys().map(Value::str).collect()),
        other => Err(EvalError::type_err(format!(
            "'{}' object is not iterable",
            type_name(other)
        ))),
    }
}

/// Index with Python semantics (negative indices, IndexError/KeyError).
pub(crate) fn get_index(obj: &Value, idx: &Value) -> Result<Value, EvalError> {
    match obj {
        Value::Seq(items) => {
            let i = match idx {
                Value::Int(i) => *i,
                other => {
                    return Err(EvalError::type_err(format!(
                        "list indices must be integers, not {}",
                        type_name(other)
                    )))
                }
            };
            let len = items.len() as i64;
            let j = if i < 0 { len + i } else { i };
            if j < 0 || j >= len {
                return Err(EvalError::raised(format!(
                    "IndexError: list index {i} out of range"
                )));
            }
            Ok(items[j as usize].clone())
        }
        Value::Str(s) => {
            let i = match idx {
                Value::Int(i) => *i,
                other => {
                    return Err(EvalError::type_err(format!(
                        "string indices must be integers, not {}",
                        type_name(other)
                    )))
                }
            };
            let chars: Vec<char> = s.chars().collect();
            let len = chars.len() as i64;
            let j = if i < 0 { len + i } else { i };
            if j < 0 || j >= len {
                return Err(EvalError::raised(format!(
                    "IndexError: string index {i} out of range"
                )));
            }
            Ok(Value::Str(chars[j as usize].to_string()))
        }
        Value::Map(m) => {
            let key = py_str(idx);
            m.get(&key)
                .cloned()
                .ok_or_else(|| EvalError::raised(format!("KeyError: '{key}'")))
        }
        other => Err(EvalError::type_err(format!(
            "'{}' object is not subscriptable",
            type_name(other)
        ))),
    }
}

/// Slice `obj[start:end]` for strings and lists.
pub(crate) fn get_slice(
    obj: &Value,
    start: Option<&Value>,
    end: Option<&Value>,
) -> Result<Value, EvalError> {
    let bound = |v: Option<&Value>, default: i64| -> Result<i64, EvalError> {
        match v {
            None => Ok(default),
            Some(Value::Int(i)) => Ok(*i),
            Some(other) => Err(EvalError::type_err(format!(
                "slice indices must be integers, not {}",
                type_name(other)
            ))),
        }
    };
    let clamp = |i: i64, len: i64| -> usize {
        let j = if i < 0 { len + i } else { i };
        j.clamp(0, len) as usize
    };
    match obj {
        Value::Seq(items) => {
            let len = items.len() as i64;
            let a = clamp(bound(start, 0)?, len);
            let b = clamp(bound(end, len)?, len);
            Ok(Value::Seq(if a < b {
                items[a..b].to_vec()
            } else {
                Vec::new()
            }))
        }
        Value::Str(s) => {
            let chars: Vec<char> = s.chars().collect();
            let len = chars.len() as i64;
            let a = clamp(bound(start, 0)?, len);
            let b = clamp(bound(end, len)?, len);
            Ok(Value::Str(if a < b {
                chars[a..b].iter().collect()
            } else {
                String::new()
            }))
        }
        other => Err(EvalError::type_err(format!(
            "'{}' object is not sliceable",
            type_name(other)
        ))),
    }
}

fn arg(args: &[Value], i: usize) -> Value {
    args.get(i).cloned().unwrap_or(Value::Null)
}

fn require_args(name: &str, args: &[Value], min: usize, max: usize) -> Result<(), EvalError> {
    if args.len() < min || args.len() > max {
        return Err(EvalError::type_err(format!(
            "{name}() takes {min}..{max} arguments but {} were given",
            args.len()
        )));
    }
    Ok(())
}

const MAX_RANGE: i64 = 10_000_000;

/// Call a builtin function by name.
/// Whether `name` is a builtin function [`call_builtin`] can dispatch.
pub fn is_builtin_name(name: &str) -> bool {
    matches!(
        name,
        "len"
            | "str"
            | "repr"
            | "int"
            | "float"
            | "bool"
            | "abs"
            | "round"
            | "min"
            | "max"
            | "sum"
            | "sorted"
            | "reversed"
            | "range"
            | "enumerate"
            | "list"
            | "type"
            | "print"
    )
}

pub(crate) fn call_builtin(
    name: &str,
    args: &[Value],
    printed: &mut Vec<String>,
) -> Result<Value, EvalError> {
    match name {
        "len" => {
            require_args("len", args, 1, 1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                Value::Seq(s) => Ok(Value::Int(s.len() as i64)),
                Value::Map(m) => Ok(Value::Int(m.len() as i64)),
                other => Err(EvalError::type_err(format!(
                    "object of type '{}' has no len()",
                    type_name(other)
                ))),
            }
        }
        "str" => Ok(Value::Str(py_str(&arg(args, 0)))),
        "repr" => Ok(Value::Str(py_repr(&arg(args, 0)))),
        "int" => match &arg(args, 0) {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Int(f.trunc() as i64)),
            Value::Bool(b) => Ok(Value::Int(*b as i64)),
            Value::Str(s) => s.trim().parse::<i64>().map(Value::Int).map_err(|_| {
                EvalError::raised(format!(
                    "ValueError: invalid literal for int() with base 10: '{s}'"
                ))
            }),
            other => Err(EvalError::type_err(format!(
                "int() argument must be a string or a number, not '{}'",
                type_name(other)
            ))),
        },
        "float" => match &arg(args, 0) {
            Value::Int(i) => Ok(Value::Float(*i as f64)),
            Value::Float(f) => Ok(Value::Float(*f)),
            Value::Bool(b) => Ok(Value::Float(*b as i64 as f64)),
            Value::Str(s) => s.trim().parse::<f64>().map(Value::Float).map_err(|_| {
                EvalError::raised(format!(
                    "ValueError: could not convert string to float: '{s}'"
                ))
            }),
            other => Err(EvalError::type_err(format!(
                "float() argument must be a string or a number, not '{}'",
                type_name(other)
            ))),
        },
        "bool" => Ok(Value::Bool(arg(args, 0).truthy())),
        "abs" => match &arg(args, 0) {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(EvalError::type_err(format!(
                "bad operand type for abs(): '{}'",
                type_name(other)
            ))),
        },
        "round" => {
            require_args("round", args, 1, 2)?;
            let n = as_number(&args[0]).ok_or_else(|| {
                EvalError::type_err(format!(
                    "round() argument must be a number, not '{}'",
                    type_name(&args[0])
                ))
            })?;
            if args.len() == 2 {
                let digits = match &args[1] {
                    Value::Int(d) => *d,
                    other => {
                        return Err(EvalError::type_err(format!(
                            "round() second argument must be int, not '{}'",
                            type_name(other)
                        )))
                    }
                };
                let scale = 10f64.powi(digits as i32);
                Ok(Value::Float((n * scale).round() / scale))
            } else {
                Ok(Value::Int(n.round() as i64))
            }
        }
        "min" | "max" => {
            let items: Vec<Value> = if args.len() == 1 {
                iterate(&args[0])?
            } else {
                args.to_vec()
            };
            if items.is_empty() {
                return Err(EvalError::raised(format!(
                    "ValueError: {name}() arg is an empty sequence"
                )));
            }
            let mut best = items[0].clone();
            for item in &items[1..] {
                let ord = py_cmp(item, &best)
                    .ok_or_else(|| EvalError::type_err("values are not comparable".to_string()))?;
                let take = if name == "min" {
                    ord.is_lt()
                } else {
                    ord.is_gt()
                };
                if take {
                    best = item.clone();
                }
            }
            Ok(best)
        }
        "sum" => {
            require_args("sum", args, 1, 2)?;
            let items = iterate(&args[0])?;
            let mut acc = if args.len() == 2 {
                args[1].clone()
            } else {
                Value::Int(0)
            };
            for item in &items {
                acc = binary(PBinOp::Add, &acc, item)?;
            }
            Ok(acc)
        }
        "sorted" => {
            require_args("sorted", args, 1, 1)?;
            let mut items = iterate(&args[0])?;
            let mut err = None;
            items.sort_by(|a, b| {
                py_cmp(a, b).unwrap_or_else(|| {
                    err = Some(EvalError::type_err("values are not comparable"));
                    std::cmp::Ordering::Equal
                })
            });
            if let Some(e) = err {
                return Err(e);
            }
            Ok(Value::Seq(items))
        }
        "reversed" => {
            require_args("reversed", args, 1, 1)?;
            let mut items = iterate(&args[0])?;
            items.reverse();
            Ok(Value::Seq(items))
        }
        "range" => {
            require_args("range", args, 1, 3)?;
            let geti = |v: &Value| -> Result<i64, EvalError> {
                match v {
                    Value::Int(i) => Ok(*i),
                    other => Err(EvalError::type_err(format!(
                        "range() argument must be int, not '{}'",
                        type_name(other)
                    ))),
                }
            };
            let (start, stop, step) = match args.len() {
                1 => (0, geti(&args[0])?, 1),
                2 => (geti(&args[0])?, geti(&args[1])?, 1),
                _ => (geti(&args[0])?, geti(&args[1])?, geti(&args[2])?),
            };
            if step == 0 {
                return Err(EvalError::raised(
                    "ValueError: range() arg 3 must not be zero",
                ));
            }
            // i128 arithmetic avoids overflow on pathological bounds.
            let (start_w, stop_w, step_w) = (start as i128, stop as i128, step as i128);
            let count = if step > 0 {
                ((stop_w - start_w).max(0) + step_w - 1) / step_w
            } else {
                ((start_w - stop_w).max(0) + (-step_w) - 1) / (-step_w)
            };
            if count > MAX_RANGE as i128 {
                return Err(EvalError::type_err(format!(
                    "range of {count} elements exceeds limit"
                )));
            }
            let mut out = Vec::with_capacity(count as usize);
            let mut x = start;
            while (step > 0 && x < stop) || (step < 0 && x > stop) {
                out.push(Value::Int(x));
                x += step;
            }
            Ok(Value::Seq(out))
        }
        "enumerate" => {
            require_args("enumerate", args, 1, 1)?;
            let items = iterate(&args[0])?;
            Ok(Value::Seq(
                items
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| Value::Seq(vec![Value::Int(i as i64), v]))
                    .collect(),
            ))
        }
        "list" => {
            if args.is_empty() {
                return Ok(Value::Seq(Vec::new()));
            }
            Ok(Value::Seq(iterate(&args[0])?))
        }
        "type" => Ok(Value::str(type_name(&arg(args, 0)))),
        "print" => {
            let line = args.iter().map(py_str).collect::<Vec<_>>().join(" ");
            printed.push(line);
            Ok(Value::Null)
        }
        other if is_exception_name(other) => Err(EvalError::type_err(format!(
            "{other}(...) may only be used in a raise statement"
        ))),
        other => Err(EvalError::name(format!("name '{other}' is not defined"))),
    }
}

/// Call a method on a receiver. Returns `(result, Some(new_receiver))` for
/// mutating methods so the evaluator can write the receiver back.
pub(crate) fn call_method(
    recv: Value,
    method: &str,
    args: &[Value],
) -> Result<(Value, Option<Value>), EvalError> {
    match recv {
        Value::Str(s) => str_method(&s, method, args).map(|v| (v, None)),
        Value::Seq(items) => list_method(items, method, args),
        Value::Map(m) => dict_method(&m, method, args).map(|v| (v, None)),
        other => Err(EvalError::type_err(format!(
            "'{}' object has no method {method:?}",
            type_name(&other)
        ))),
    }
}

/// Python's str.title(): first alphabetic char of each run capitalized.
fn py_title(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut prev_alpha = false;
    for c in s.chars() {
        if c.is_alphabetic() {
            if prev_alpha {
                out.extend(c.to_lowercase());
            } else {
                out.extend(c.to_uppercase());
            }
            prev_alpha = true;
        } else {
            out.push(c);
            prev_alpha = false;
        }
    }
    out
}

fn str_method(s: &str, method: &str, args: &[Value]) -> Result<Value, EvalError> {
    let str_arg = |i: usize| -> Result<String, EvalError> {
        match arg(args, i) {
            Value::Str(t) => Ok(t),
            other => Err(EvalError::type_err(format!(
                "{method}() argument must be str, not {}",
                type_name(&other)
            ))),
        }
    };
    match method {
        "title" => Ok(Value::Str(py_title(s))),
        "upper" => Ok(Value::Str(s.to_uppercase())),
        "lower" => Ok(Value::Str(s.to_lowercase())),
        "capitalize" => {
            let mut chars = s.chars();
            Ok(Value::Str(match chars.next() {
                Some(first) => {
                    first.to_uppercase().collect::<String>() + &chars.as_str().to_lowercase()
                }
                None => String::new(),
            }))
        }
        "strip" => Ok(Value::str(s.trim())),
        "lstrip" => Ok(Value::str(s.trim_start())),
        "rstrip" => Ok(Value::str(s.trim_end())),
        "split" => {
            if args.is_empty() || args[0].is_null() {
                Ok(Value::Seq(s.split_whitespace().map(Value::str).collect()))
            } else {
                let sep = str_arg(0)?;
                if sep.is_empty() {
                    return Err(EvalError::raised("ValueError: empty separator"));
                }
                Ok(Value::Seq(s.split(sep.as_str()).map(Value::str).collect()))
            }
        }
        "splitlines" => Ok(Value::Seq(s.lines().map(Value::str).collect())),
        "join" => {
            let items = iterate(&arg(args, 0))?;
            let mut parts = Vec::with_capacity(items.len());
            for item in &items {
                match item {
                    Value::Str(t) => parts.push(t.clone()),
                    other => {
                        return Err(EvalError::type_err(format!(
                            "sequence item: expected str instance, {} found",
                            type_name(other)
                        )))
                    }
                }
            }
            Ok(Value::Str(parts.join(s)))
        }
        "startswith" => Ok(Value::Bool(s.starts_with(&str_arg(0)?))),
        "endswith" => Ok(Value::Bool(s.ends_with(&str_arg(0)?))),
        "replace" => Ok(Value::Str(s.replace(&str_arg(0)?, &str_arg(1)?))),
        "find" => {
            let needle = str_arg(0)?;
            Ok(Value::Int(match s.find(&needle) {
                Some(byte_pos) => s[..byte_pos].chars().count() as i64,
                None => -1,
            }))
        }
        "count" => {
            let needle = str_arg(0)?;
            if needle.is_empty() {
                return Ok(Value::Int(s.chars().count() as i64 + 1));
            }
            Ok(Value::Int(s.matches(&needle).count() as i64))
        }
        "zfill" => {
            let width = match arg(args, 0) {
                Value::Int(w) => w.max(0) as usize,
                other => {
                    return Err(EvalError::type_err(format!(
                        "zfill() argument must be int, not {}",
                        type_name(&other)
                    )))
                }
            };
            let len = s.chars().count();
            if len >= width {
                Ok(Value::str(s))
            } else if let Some(rest) = s.strip_prefix('-') {
                Ok(Value::Str(format!("-{}{}", "0".repeat(width - len), rest)))
            } else {
                Ok(Value::Str(format!("{}{}", "0".repeat(width - len), s)))
            }
        }
        "isdigit" => Ok(Value::Bool(
            !s.is_empty() && s.chars().all(|c| c.is_ascii_digit()),
        )),
        "isalpha" => Ok(Value::Bool(
            !s.is_empty() && s.chars().all(|c| c.is_alphabetic()),
        )),
        "format" => Err(EvalError::new(
            crate::error::EvalErrorKind::Unsupported,
            "str.format() is not supported; use f-strings",
        )),
        other => Err(EvalError::type_err(format!(
            "'str' object has no method {other:?}"
        ))),
    }
}

fn list_method(
    mut items: Vec<Value>,
    method: &str,
    args: &[Value],
) -> Result<(Value, Option<Value>), EvalError> {
    match method {
        "append" => {
            require_args("append", args, 1, 1)?;
            items.push(args[0].clone());
            Ok((Value::Null, Some(Value::Seq(items))))
        }
        "extend" => {
            require_args("extend", args, 1, 1)?;
            items.extend(iterate(&args[0])?);
            Ok((Value::Null, Some(Value::Seq(items))))
        }
        "insert" => {
            require_args("insert", args, 2, 2)?;
            let i = match &args[0] {
                Value::Int(i) => (*i).clamp(0, items.len() as i64) as usize,
                other => {
                    return Err(EvalError::type_err(format!(
                        "insert() first argument must be int, not {}",
                        type_name(other)
                    )))
                }
            };
            items.insert(i, args[1].clone());
            Ok((Value::Null, Some(Value::Seq(items))))
        }
        "pop" => {
            let v = if args.is_empty() {
                items
                    .pop()
                    .ok_or_else(|| EvalError::raised("IndexError: pop from empty list"))?
            } else {
                let i = match &args[0] {
                    Value::Int(i) => *i,
                    other => {
                        return Err(EvalError::type_err(format!(
                            "pop() argument must be int, not {}",
                            type_name(other)
                        )))
                    }
                };
                let len = items.len() as i64;
                let j = if i < 0 { len + i } else { i };
                if j < 0 || j >= len {
                    return Err(EvalError::raised("IndexError: pop index out of range"));
                }
                items.remove(j as usize)
            };
            Ok((v, Some(Value::Seq(items))))
        }
        "remove" => {
            require_args("remove", args, 1, 1)?;
            let pos = items
                .iter()
                .position(|v| py_eq(v, &args[0]))
                .ok_or_else(|| EvalError::raised("ValueError: list.remove(x): x not in list"))?;
            items.remove(pos);
            Ok((Value::Null, Some(Value::Seq(items))))
        }
        "index" => {
            require_args("index", args, 1, 1)?;
            let pos = items
                .iter()
                .position(|v| py_eq(v, &args[0]))
                .ok_or_else(|| EvalError::raised("ValueError: x not in list"))?;
            Ok((Value::Int(pos as i64), None))
        }
        "count" => {
            require_args("count", args, 1, 1)?;
            let n = items.iter().filter(|v| py_eq(v, &args[0])).count();
            Ok((Value::Int(n as i64), None))
        }
        "sort" => {
            let mut err = None;
            items.sort_by(|a, b| {
                py_cmp(a, b).unwrap_or_else(|| {
                    err = Some(EvalError::type_err("values are not comparable"));
                    std::cmp::Ordering::Equal
                })
            });
            if let Some(e) = err {
                return Err(e);
            }
            Ok((Value::Null, Some(Value::Seq(items))))
        }
        "reverse" => {
            items.reverse();
            Ok((Value::Null, Some(Value::Seq(items))))
        }
        "copy" => Ok((Value::Seq(items.clone()), None)),
        other => Err(EvalError::type_err(format!(
            "'list' object has no method {other:?}"
        ))),
    }
}

fn dict_method(m: &Map, method: &str, args: &[Value]) -> Result<Value, EvalError> {
    match method {
        "get" => {
            let key = py_str(&arg(args, 0));
            Ok(m.get(&key).cloned().unwrap_or_else(|| arg(args, 1)))
        }
        "keys" => Ok(Value::Seq(m.keys().map(Value::str).collect())),
        "values" => Ok(Value::Seq(m.values().cloned().collect())),
        "items" => Ok(Value::Seq(
            m.iter()
                .map(|(k, v)| Value::Seq(vec![Value::str(k), v.clone()]))
                .collect(),
        )),
        other => Err(EvalError::type_err(format!(
            "'dict' object has no method {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn title_matches_python() {
        assert_eq!(py_title("hello world"), "Hello World");
        assert_eq!(py_title("they're bill's"), "They'Re Bill'S"); // CPython quirk
        assert_eq!(py_title("x2y abc"), "X2Y Abc");
        assert_eq!(py_title(""), "");
    }

    #[test]
    fn floor_div_and_mod() {
        let b = |op, l: i64, r: i64| binary(op, &Value::Int(l), &Value::Int(r)).unwrap();
        assert_eq!(b(PBinOp::FloorDiv, 7, 2), Value::Int(3));
        assert_eq!(b(PBinOp::FloorDiv, -7, 2), Value::Int(-4));
        assert_eq!(b(PBinOp::FloorDiv, 7, -2), Value::Int(-4));
        assert_eq!(b(PBinOp::Mod, 7, 3), Value::Int(1));
        assert_eq!(b(PBinOp::Mod, -7, 3), Value::Int(2));
        assert_eq!(b(PBinOp::Mod, 7, -3), Value::Int(-2));
    }

    #[test]
    fn division_by_zero_raises() {
        assert!(binary(PBinOp::Div, &Value::Int(1), &Value::Int(0)).is_err());
        assert!(binary(PBinOp::Mod, &Value::Int(1), &Value::Int(0)).is_err());
        assert!(binary(PBinOp::FloorDiv, &Value::Int(1), &Value::Int(0)).is_err());
    }

    #[test]
    fn py_str_formatting() {
        assert_eq!(py_str(&Value::Null), "None");
        assert_eq!(py_str(&Value::Bool(true)), "True");
        assert_eq!(py_str(&Value::Float(2.0)), "2.0");
        assert_eq!(py_str(&yamlite::vseq!["a", 1i64]), "['a', 1]");
    }

    #[test]
    fn builtin_len_and_range() {
        let mut p = Vec::new();
        assert_eq!(
            call_builtin("len", &[Value::str("héllo")], &mut p).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            call_builtin("range", &[Value::Int(3)], &mut p).unwrap(),
            yamlite::vseq![0i64, 1i64, 2i64]
        );
        assert_eq!(
            call_builtin(
                "range",
                &[Value::Int(5), Value::Int(1), Value::Int(-2)],
                &mut p
            )
            .unwrap(),
            yamlite::vseq![5i64, 3i64]
        );
        assert!(call_builtin("range", &[Value::Int(i64::MAX)], &mut p).is_err());
    }

    #[test]
    fn builtin_aggregates() {
        let mut p = Vec::new();
        let xs = yamlite::vseq![3i64, 1i64, 2i64];
        assert_eq!(
            call_builtin("min", std::slice::from_ref(&xs), &mut p).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call_builtin("max", std::slice::from_ref(&xs), &mut p).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            call_builtin("sum", std::slice::from_ref(&xs), &mut p).unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            call_builtin("sorted", &[xs], &mut p).unwrap(),
            yamlite::vseq![1i64, 2i64, 3i64]
        );
        assert!(call_builtin("min", &[Value::Seq(vec![])], &mut p).is_err());
    }

    #[test]
    fn str_methods() {
        let m = |s: &str, name: &str, args: &[Value]| str_method(s, name, args).unwrap();
        assert_eq!(
            m("a-b-c", "split", &[Value::str("-")]),
            yamlite::vseq!["a", "b", "c"]
        );
        assert_eq!(m(" a  b ", "split", &[]), yamlite::vseq!["a", "b"]);
        assert_eq!(
            m("-", "join", &[yamlite::vseq!["a", "b"]]),
            Value::str("a-b")
        );
        assert_eq!(m("abcabc", "count", &[Value::str("bc")]), Value::Int(2));
        assert_eq!(m("7", "zfill", &[Value::Int(3)]), Value::str("007"));
        assert_eq!(m("-7", "zfill", &[Value::Int(4)]), Value::str("-007"));
        assert_eq!(m("abc", "isalpha", &[]), Value::Bool(true));
        assert_eq!(m("ab1", "isalpha", &[]), Value::Bool(false));
        assert_eq!(m("123", "isdigit", &[]), Value::Bool(true));
        assert!(str_method("x", "split", &[Value::str("")]).is_err());
    }

    #[test]
    fn dict_methods() {
        let m = match yamlite::vmap! {"a" => 1i64, "b" => 2i64} {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        assert_eq!(
            dict_method(&m, "get", &[Value::str("a")]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            dict_method(&m, "get", &[Value::str("z"), Value::Int(9)]).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            dict_method(&m, "keys", &[]).unwrap(),
            yamlite::vseq!["a", "b"]
        );
    }

    #[test]
    fn comparisons() {
        assert!(compare(CmpOp::Lt, &Value::str("a"), &Value::str("b")).unwrap());
        assert!(compare(CmpOp::Eq, &Value::Int(2), &Value::Float(2.0)).unwrap());
        assert!(compare(CmpOp::In, &Value::str("el"), &Value::str("hello")).unwrap());
        assert!(compare(
            CmpOp::Lt,
            &yamlite::vseq![1i64],
            &yamlite::vseq![1i64, 2i64]
        )
        .unwrap());
        assert!(compare(CmpOp::Lt, &Value::str("a"), &Value::Int(1)).is_err());
    }
}
