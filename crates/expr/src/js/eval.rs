//! Tree-walking evaluator for the JavaScript subset.

use super::ast::{BinOp, Expr, LogOp, Stmt, UnOp};
use super::stdlib;
use crate::error::{EvalError, EvalErrorKind};
use std::collections::HashMap;
use yamlite::{Map, Value};

/// Evaluate a single expression with the given global variables in scope
/// (CWL provides `inputs`, `self`, and `runtime`). The parsed AST comes
/// from the process-wide [`crate::cache`] — repeated evaluations of the
/// same source (every scatter instance) pay only tree-walking.
pub fn eval_expression(src: &str, globals: &Map) -> Result<Value, EvalError> {
    let expr =
        crate::cache::global::js_expr().get_or_compile(src, super::parser::parse_expression)?;
    let mut interp = Interp::new(globals);
    interp.eval(&expr)
}

/// Run a `${...}` statement body; the value of the first executed `return`
/// is the result (reaching the end without `return` yields `null`). The
/// parsed body is cached like [`eval_expression`]'s AST.
pub fn run_body(src: &str, globals: &Map) -> Result<Value, EvalError> {
    let body = crate::cache::global::js_body().get_or_compile(src, super::parser::parse_body)?;
    let mut interp = Interp::new(globals);
    match interp.exec_block(&body)? {
        Flow::Return(v) => Ok(v),
        _ => Ok(Value::Null),
    }
}

/// JS number-to-string: integral values print without a decimal point.
pub(crate) fn js_number_to_string(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".into()
        } else {
            "-Infinity".into()
        }
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Convert an f64 into a Value, collapsing integral doubles to `Int`
/// (matching how JS displays numbers).
pub(crate) fn num(n: f64) -> Value {
    if n == n.trunc() && n.abs() < 9.0e15 && !n.is_nan() {
        Value::Int(n as i64)
    } else {
        Value::Float(n)
    }
}

/// JS `String(x)` semantics over our value model.
pub fn js_to_string(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => js_number_to_string(*f),
        Value::Str(s) => s.clone(),
        Value::Seq(items) => items.iter().map(js_to_string).collect::<Vec<_>>().join(","),
        Value::Map(_) => "[object Object]".to_string(),
    }
}

/// JS `Number(x)` semantics (NaN on failure).
pub fn js_to_number(v: &Value) -> f64 {
    match v {
        Value::Null => 0.0,
        Value::Bool(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Str(s) => {
            let t = s.trim();
            if t.is_empty() {
                0.0
            } else {
                t.parse::<f64>().unwrap_or(f64::NAN)
            }
        }
        Value::Seq(items) if items.len() == 1 => js_to_number(&items[0]),
        Value::Seq(items) if items.is_empty() => 0.0,
        _ => f64::NAN,
    }
}

/// Control flow signal from statement execution.
pub(crate) enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// One resolved segment of an assignment path.
enum Seg {
    Key(String),
    Idx(usize),
}

const DEFAULT_BUDGET: u64 = 5_000_000;

pub(crate) struct Interp {
    scopes: Vec<HashMap<String, Value>>,
    budget: u64,
}

impl Interp {
    fn new(globals: &Map) -> Self {
        let mut top = HashMap::new();
        for (k, v) in globals.iter() {
            top.insert(k.to_string(), v.clone());
        }
        Self {
            scopes: vec![top],
            budget: DEFAULT_BUDGET,
        }
    }

    fn spend(&mut self) -> Result<(), EvalError> {
        if self.budget == 0 {
            return Err(EvalError::new(
                EvalErrorKind::Budget,
                "expression exceeded its evaluation budget (infinite loop?)",
            ));
        }
        self.budget -= 1;
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn define(&mut self, name: &str, value: Value) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), value);
    }

    fn set_var(&mut self, name: &str, value: Value) {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return;
            }
        }
        // Implicit global creation, like non-strict JS.
        self.scopes
            .first_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), value);
    }

    // ---- statements ----

    pub(crate) fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, EvalError> {
        for stmt in stmts {
            match self.exec(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, stmt: &Stmt) -> Result<Flow, EvalError> {
        self.spend()?;
        match stmt {
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::VarDecl(decls) => {
                for (name, init) in decls {
                    let v = match init {
                        Some(e) => self.eval(e)?,
                        None => Value::Null,
                    };
                    self.define(name, v);
                }
                Ok(Flow::Normal)
            }
            Stmt::If(cond, then, els) => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then)
                } else {
                    self.exec_block(els)
                }
            }
            Stmt::While(cond, body) => {
                while self.eval(cond)?.truthy() {
                    self.spend()?;
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(init) = init {
                    self.exec(init)?;
                }
                loop {
                    if let Some(cond) = cond {
                        if !self.eval(cond)?.truthy() {
                            break;
                        }
                    }
                    self.spend()?;
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(update) = update {
                        self.eval(update)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::ForOf { var, iter, body } => {
                let seq = self.eval(iter)?;
                let items: Vec<Value> = match seq {
                    Value::Seq(items) => items,
                    Value::Str(s) => s.chars().map(|c| Value::Str(c.to_string())).collect(),
                    other => {
                        return Err(EvalError::type_err(format!(
                            "cannot iterate over {}",
                            other.kind()
                        )))
                    }
                };
                for item in items {
                    self.spend()?;
                    self.define(var, item);
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    // ---- expressions ----

    pub(crate) fn eval(&mut self, e: &Expr) -> Result<Value, EvalError> {
        self.spend()?;
        match e {
            Expr::Null | Expr::Undefined => Ok(Value::Null),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Num(n) => Ok(num(*n)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item)?);
                }
                Ok(Value::Seq(out))
            }
            Expr::Object(props) => {
                let mut m = Map::with_capacity(props.len());
                for (k, v) in props {
                    let v = self.eval(v)?;
                    m.insert(k.clone(), v);
                }
                Ok(Value::Map(m))
            }
            Expr::Ident(name) => self
                .lookup(name)
                .cloned()
                .ok_or_else(|| EvalError::name(format!("{name} is not defined"))),
            Expr::Member(obj, name) => {
                // Namespace objects (Math, JSON, Object) only make sense as
                // call targets; bare property reads on them are errors.
                if let Expr::Ident(ns) = obj.as_ref() {
                    if stdlib::is_namespace(ns) && self.lookup(ns).is_none() {
                        return Err(EvalError::type_err(format!(
                            "{ns}.{name} is not a value; call it as a function"
                        )));
                    }
                }
                let v = self.eval(obj)?;
                stdlib::get_property(&v, name)
            }
            Expr::Index(obj, idx) => {
                let o = self.eval(obj)?;
                let i = self.eval(idx)?;
                stdlib::get_index(&o, &i)
            }
            Expr::Call(callee, args) => self.eval_call(callee, args),
            Expr::Unary(op, e) => {
                let v = self.eval(e)?;
                match op {
                    UnOp::Neg => Ok(num(-js_to_number(&v))),
                    UnOp::Plus => Ok(num(js_to_number(&v))),
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                    UnOp::Typeof => Ok(Value::Str(stdlib::type_of(&v).to_string())),
                }
            }
            Expr::Binary(op, l, r) => {
                let lv = self.eval(l)?;
                let rv = self.eval(r)?;
                binary(*op, &lv, &rv)
            }
            Expr::Logical(op, l, r) => {
                let lv = self.eval(l)?;
                match op {
                    LogOp::And => {
                        if lv.truthy() {
                            self.eval(r)
                        } else {
                            Ok(lv)
                        }
                    }
                    LogOp::Or => {
                        if lv.truthy() {
                            Ok(lv)
                        } else {
                            self.eval(r)
                        }
                    }
                }
            }
            Expr::Ternary(c, a, b) => {
                if self.eval(c)?.truthy() {
                    self.eval(a)
                } else {
                    self.eval(b)
                }
            }
            Expr::Assign(target, value) => {
                let v = self.eval(value)?;
                self.assign(target, v.clone())?;
                Ok(v)
            }
        }
    }

    fn eval_call(&mut self, callee: &Expr, args: &[Expr]) -> Result<Value, EvalError> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a)?);
        }
        match callee {
            // Namespace calls: Math.floor(x), JSON.stringify(v), Object.keys(m)
            Expr::Member(obj, method) => {
                if let Expr::Ident(ns) = obj.as_ref() {
                    if stdlib::is_namespace(ns) && self.lookup(ns).is_none() {
                        return stdlib::call_namespace(ns, method, &argv);
                    }
                }
                let recv = self.eval(obj)?;
                let (result, mutated) = stdlib::call_method(recv, method, &argv)?;
                if let Some(new_recv) = mutated {
                    // Write the mutated receiver back when it names a slot
                    // (value semantics make `arr.push(x)` otherwise silent).
                    if obj.is_lvalue() {
                        self.assign(obj, new_recv)?;
                    }
                }
                Ok(result)
            }
            Expr::Ident(name) => stdlib::call_global(name, &argv),
            other => Err(EvalError::type_err(format!("{other:?} is not callable"))),
        }
    }

    /// Assign to an lvalue expression (Ident / Member / Index chains).
    fn assign(&mut self, target: &Expr, value: Value) -> Result<(), EvalError> {
        // Flatten the target into a root variable plus a path of segments,
        // evaluating index expressions eagerly (they may reference self).
        let mut segs: Vec<Seg> = Vec::new();
        let mut cur = target;
        let root = loop {
            match cur {
                Expr::Ident(name) => break name.clone(),
                Expr::Member(obj, name) => {
                    segs.push(Seg::Key(name.clone()));
                    cur = obj;
                }
                Expr::Index(obj, idx) => {
                    let iv = self.eval(idx)?;
                    match iv {
                        Value::Int(i) if i >= 0 => segs.push(Seg::Idx(i as usize)),
                        Value::Str(s) => segs.push(Seg::Key(s)),
                        other => {
                            return Err(EvalError::type_err(format!(
                                "invalid index {other:?} in assignment"
                            )))
                        }
                    }
                    cur = obj;
                }
                other => {
                    return Err(EvalError::type_err(format!(
                        "invalid assignment target {other:?}"
                    )))
                }
            }
        };
        segs.reverse();
        if segs.is_empty() {
            self.set_var(&root, value);
            return Ok(());
        }
        // Navigate to the slot, creating intermediate maps for fresh keys.
        let mut slot: &mut Value = {
            let scope = self
                .scopes
                .iter_mut()
                .rev()
                .find(|s| s.contains_key(&root))
                .ok_or_else(|| EvalError::name(format!("{root} is not defined")))?;
            scope.get_mut(&root).expect("checked contains_key")
        };
        for seg in &segs {
            match seg {
                Seg::Key(k) => {
                    if slot.is_null() {
                        *slot = Value::Map(Map::new());
                    }
                    let map = slot.as_map_mut().ok_or_else(|| {
                        EvalError::type_err(format!("cannot set property {k:?} on non-object"))
                    })?;
                    if !map.contains_key(k) {
                        map.insert(k.clone(), Value::Null);
                    }
                    slot = map.get_mut(k).expect("just inserted");
                }
                Seg::Idx(i) => {
                    let seq = slot.as_seq_mut().ok_or_else(|| {
                        EvalError::type_err("cannot index non-array in assignment")
                    })?;
                    if *i == seq.len() {
                        seq.push(Value::Null);
                    }
                    slot = seq.get_mut(*i).ok_or_else(|| {
                        EvalError::type_err(format!("index {i} out of bounds in assignment"))
                    })?;
                }
            }
        }
        *slot = value;
        Ok(())
    }
}

/// Apply a binary operator.
fn binary(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    match op {
        BinOp::Add => {
            if matches!(l, Value::Str(_)) || matches!(r, Value::Str(_)) {
                Ok(Value::Str(format!(
                    "{}{}",
                    js_to_string(l),
                    js_to_string(r)
                )))
            } else if matches!(l, Value::Seq(_)) || matches!(r, Value::Seq(_)) {
                // JS array + anything stringifies; keep that behaviour.
                Ok(Value::Str(format!(
                    "{}{}",
                    js_to_string(l),
                    js_to_string(r)
                )))
            } else {
                Ok(num(js_to_number(l) + js_to_number(r)))
            }
        }
        BinOp::Sub => Ok(num(js_to_number(l) - js_to_number(r))),
        BinOp::Mul => Ok(num(js_to_number(l) * js_to_number(r))),
        BinOp::Div => Ok(num(js_to_number(l) / js_to_number(r))),
        BinOp::Mod => {
            let (a, b) = (js_to_number(l), js_to_number(r));
            Ok(num(a % b))
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = if let (Value::Str(a), Value::Str(b)) = (l, r) {
                a.partial_cmp(b)
            } else {
                js_to_number(l).partial_cmp(&js_to_number(r))
            };
            let res = match (ord, op) {
                (Some(o), BinOp::Lt) => o.is_lt(),
                (Some(o), BinOp::Le) => o.is_le(),
                (Some(o), BinOp::Gt) => o.is_gt(),
                (Some(o), BinOp::Ge) => o.is_ge(),
                (None, _) => false, // NaN comparisons
                _ => unreachable!(),
            };
            Ok(Value::Bool(res))
        }
        BinOp::EqStrict => Ok(Value::Bool(strict_eq(l, r))),
        BinOp::NeStrict => Ok(Value::Bool(!strict_eq(l, r))),
        BinOp::EqLoose => Ok(Value::Bool(loose_eq(l, r))),
        BinOp::NeLoose => Ok(Value::Bool(!loose_eq(l, r))),
        BinOp::In => match r {
            Value::Map(m) => Ok(Value::Bool(m.contains_key(&js_to_string(l)))),
            Value::Seq(s) => {
                let idx = js_to_number(l);
                Ok(Value::Bool(idx >= 0.0 && (idx as usize) < s.len()))
            }
            other => Err(EvalError::type_err(format!(
                "'in' requires an object or array, got {}",
                other.kind()
            ))),
        },
    }
}

fn strict_eq(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
        (a, b) => a == b,
    }
}

fn loose_eq(l: &Value, r: &Value) -> bool {
    if strict_eq(l, r) {
        return true;
    }
    match (l, r) {
        // Number-ish cross-type comparisons.
        (Value::Str(_), Value::Int(_) | Value::Float(_) | Value::Bool(_))
        | (Value::Int(_) | Value::Float(_) | Value::Bool(_), Value::Str(_))
        | (Value::Bool(_), Value::Int(_) | Value::Float(_))
        | (Value::Int(_) | Value::Float(_), Value::Bool(_)) => {
            let (a, b) = (js_to_number(l), js_to_number(r));
            !a.is_nan() && !b.is_nan() && a == b
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::vmap;

    fn g() -> Map {
        let v = vmap! {
            "inputs" => vmap!{
                "message" => "hello world",
                "size" => 1024i64,
                "sepia" => true,
                "file" => vmap!{"basename" => "data.csv", "size" => 2048i64},
            },
            "self" => yamlite::vseq![vmap!{"basename" => "out.png"}],
            "runtime" => vmap!{"cores" => 8i64},
        };
        match v {
            Value::Map(m) => m,
            _ => unreachable!(),
        }
    }

    fn ev(src: &str) -> Value {
        eval_expression(src, &g()).unwrap()
    }

    #[test]
    fn basic_arithmetic() {
        assert_eq!(ev("1 + 2 * 3"), Value::Int(7));
        assert_eq!(ev("(1 + 2) * 3"), Value::Int(9));
        assert_eq!(ev("7 / 2"), Value::Float(3.5));
        assert_eq!(ev("4 / 2"), Value::Int(2));
        assert_eq!(ev("7 % 3"), Value::Int(1));
        assert_eq!(ev("-3 + +\"4\""), Value::Int(1));
    }

    #[test]
    fn string_concat() {
        assert_eq!(ev("'a' + 'b'"), Value::str("ab"));
        assert_eq!(ev("'n=' + 3"), Value::str("n=3"));
        assert_eq!(ev("1 + '2'"), Value::str("12"));
    }

    #[test]
    fn member_and_index() {
        assert_eq!(ev("inputs.message"), Value::str("hello world"));
        assert_eq!(ev("inputs.size"), Value::Int(1024));
        assert_eq!(ev("inputs['message']"), Value::str("hello world"));
        assert_eq!(ev("self[0].basename"), Value::str("out.png"));
        assert_eq!(ev("runtime.cores"), Value::Int(8));
        assert_eq!(ev("inputs.missing"), Value::Null);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(ev("1 < 2 && 2 <= 2"), Value::Bool(true));
        assert_eq!(ev("'a' < 'b'"), Value::Bool(true));
        assert_eq!(ev("1 == '1'"), Value::Bool(true));
        assert_eq!(ev("1 === '1'"), Value::Bool(false));
        assert_eq!(ev("null == undefined"), Value::Bool(true));
        assert_eq!(ev("inputs.sepia ? 'yes' : 'no'"), Value::str("yes"));
        assert_eq!(ev("false || 'fallback'"), Value::str("fallback"));
        assert_eq!(ev("null && 1"), Value::Null);
    }

    #[test]
    fn typeof_and_in() {
        assert_eq!(ev("typeof 1"), Value::str("number"));
        assert_eq!(ev("typeof 'x'"), Value::str("string"));
        assert_eq!(ev("typeof inputs"), Value::str("object"));
        assert_eq!(ev("'message' in inputs"), Value::Bool(true));
        assert_eq!(ev("'nope' in inputs"), Value::Bool(false));
    }

    #[test]
    fn array_object_literals() {
        assert_eq!(ev("[1, 2, 3].length"), Value::Int(3));
        assert_eq!(ev("{a: 1}.a"), Value::Int(1));
    }

    #[test]
    fn body_with_loop() {
        let v = run_body(
            "var total = 0; for (var i = 1; i <= 10; i++) { total += i; } return total;",
            &g(),
        )
        .unwrap();
        assert_eq!(v, Value::Int(55));
    }

    #[test]
    fn body_for_of_and_push() {
        let v = run_body(
            "var out = []; for (var w of inputs.message.split(' ')) { out.push(w.toUpperCase()); } return out.join('-');",
            &g(),
        )
        .unwrap();
        assert_eq!(v, Value::str("HELLO-WORLD"));
    }

    #[test]
    fn body_while_break_continue() {
        let v = run_body(
            "var i = 0; var n = 0;\n\
             while (true) { i++; if (i > 10) { break; } if (i % 2 == 0) { continue; } n += i; }\n\
             return n;",
            &g(),
        )
        .unwrap();
        assert_eq!(v, Value::Int(25)); // 1+3+5+7+9
    }

    #[test]
    fn body_without_return_yields_null() {
        assert_eq!(run_body("var x = 1;", &g()).unwrap(), Value::Null);
    }

    #[test]
    fn nested_assignment() {
        let v = run_body(
            "var o = {a: {b: 1}}; o.a.c = 2; o['d'] = [0]; o.d[1] = 9; return o;",
            &g(),
        )
        .unwrap();
        assert_eq!(v["a"]["c"], Value::Int(2));
        assert_eq!(v["d"][1], Value::Int(9));
    }

    #[test]
    fn undefined_variable_errors() {
        let err = eval_expression("nope + 1", &g()).unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Name);
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let err = run_body("while (true) { }", &g()).unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Budget);
    }

    #[test]
    fn loose_vs_strict_numeric() {
        assert_eq!(ev("2 == 2.0"), Value::Bool(true));
        assert_eq!(ev("2 === 2.0"), Value::Bool(true)); // both are JS numbers
        assert_eq!(ev("true == 1"), Value::Bool(true));
        assert_eq!(ev("true === 1"), Value::Bool(false));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(js_number_to_string(2.0), "2");
        assert_eq!(js_number_to_string(2.5), "2.5");
        assert_eq!(js_number_to_string(f64::NAN), "NaN");
        assert_eq!(js_number_to_string(f64::INFINITY), "Infinity");
    }

    #[test]
    fn string_comparison_nan() {
        assert_eq!(ev("'abc' < 5"), Value::Bool(false)); // NaN comparison
    }
}
