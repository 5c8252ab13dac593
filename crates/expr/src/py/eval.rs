//! Tree-walking evaluator for the Python subset.

use super::ast::*;
use super::builtins;
use crate::error::{EvalError, EvalErrorKind};
use crate::paramref;
use std::collections::HashMap;
use yamlite::{Map, Value};

const DEFAULT_BUDGET: u64 = 5_000_000;
// Kept modest: each Python-level frame costs several Rust frames in the
// tree-walking evaluator, and expression-library code is shallow by nature.
const MAX_CALL_DEPTH: usize = 48;

/// A compiled `InlinePythonRequirement` expression library: the functions it
/// defines plus any module-level globals its top-level statements computed.
#[derive(Debug, Clone, Default)]
pub struct PyLib {
    pub(crate) funcs: HashMap<String, PyFunction>,
    pub(crate) globals: HashMap<String, Value>,
}

impl PyLib {
    /// Compile an `expressionLib` source block: `def`s register functions,
    /// other top-level statements execute once with module scope.
    pub fn compile(src: &str) -> Result<Self, EvalError> {
        let stmts = super::parser::parse_module(src)?;
        let mut lib = PyLib::default();
        // Register functions first so top-level code can call them.
        for stmt in &stmts {
            if let PStmt::Def(f) = stmt {
                lib.funcs.insert(f.name.clone(), f.clone());
            }
        }
        let mut interp = PyInterp::new(&lib.funcs, Map::new());
        interp.globals = lib.globals.clone();
        for stmt in &stmts {
            if matches!(stmt, PStmt::Def(_)) {
                continue;
            }
            match interp.exec(stmt)? {
                Flow::Normal => {}
                Flow::Return(_) => {
                    return Err(EvalError::new(
                        EvalErrorKind::Syntax,
                        "'return' outside function at module level",
                    ))
                }
                Flow::Break | Flow::Continue => {
                    return Err(EvalError::new(
                        EvalErrorKind::Syntax,
                        "'break'/'continue' outside loop at module level",
                    ))
                }
            }
        }
        lib.globals = interp.globals;
        Ok(lib)
    }

    /// Merge another library into this one (CWL allows several
    /// `expressionLib` entries; later entries may reference earlier ones).
    pub fn extend(&mut self, other: &PyLib) {
        for (k, v) in &other.funcs {
            self.funcs.insert(k.clone(), v.clone());
        }
        for (k, v) in &other.globals {
            self.globals.insert(k.clone(), v.clone());
        }
    }

    /// Evaluate a single Python expression (possibly containing `$(...)`
    /// parameter references) against the CWL context `ctx` (a map providing
    /// `inputs`, `self`, `runtime`).
    pub fn eval_expression(&self, src: &str, ctx: &Map) -> Result<Value, EvalError> {
        // The parsed AST is shared through the process-wide expression
        // cache: scatter workloads evaluate the same source once per
        // instance, and only the context differs between instances.
        let expr =
            crate::cache::global::py_expr().get_or_compile(src, super::parser::parse_expression)?;
        let mut interp = PyInterp::new(&self.funcs, ctx.clone());
        interp.globals = self.globals.clone();
        interp.eval(&expr)
    }
}

/// Control flow from statement execution.
pub(crate) enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

pub(crate) struct PyInterp<'l> {
    funcs: &'l HashMap<String, PyFunction>,
    pub(crate) globals: HashMap<String, Value>,
    /// Function-call frames; empty at module level.
    frames: Vec<HashMap<String, Value>>,
    /// CWL context for `$(...)` references.
    ctx: Map,
    budget: u64,
    depth: usize,
    /// Captured `print` output (useful for tests and debugging).
    pub(crate) printed: Vec<String>,
}

impl<'l> PyInterp<'l> {
    pub(crate) fn new(funcs: &'l HashMap<String, PyFunction>, ctx: Map) -> Self {
        Self {
            funcs,
            globals: HashMap::new(),
            frames: Vec::new(),
            ctx,
            budget: DEFAULT_BUDGET,
            depth: 0,
            printed: Vec::new(),
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
        if let Some(frame) = self.frames.last() {
            if let Some(v) = frame.get(name) {
                return Some(v);
            }
        }
        self.globals.get(name)
    }

    fn scope_mut(&mut self) -> &mut HashMap<String, Value> {
        self.frames.last_mut().unwrap_or(&mut self.globals)
    }

    // ---- statements ----

    pub(crate) fn exec_block(&mut self, stmts: &[PStmt]) -> Result<Flow, EvalError> {
        for stmt in stmts {
            match self.exec(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    pub(crate) fn exec(&mut self, stmt: &PStmt) -> Result<Flow, EvalError> {
        self.spend()?;
        match stmt {
            PStmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            PStmt::Assign(target, value) => {
                let v = self.eval(value)?;
                self.assign(target, v)?;
                Ok(Flow::Normal)
            }
            PStmt::AugAssign(op, target, value) => {
                let cur = self.eval(target)?;
                let rhs = self.eval(value)?;
                let v = builtins::binary(*op, &cur, &rhs)?;
                self.assign(target, v)?;
                Ok(Flow::Normal)
            }
            PStmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            PStmt::Raise(e) => Err(self.build_exception(e.as_ref())?),
            PStmt::Pass => Ok(Flow::Normal),
            PStmt::Break => Ok(Flow::Break),
            PStmt::Continue => Ok(Flow::Continue),
            PStmt::If(branches, orelse) => {
                for (cond, body) in branches {
                    if self.eval(cond)?.truthy() {
                        return self.exec_block(body);
                    }
                }
                self.exec_block(orelse)
            }
            PStmt::While(cond, body) => {
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
            PStmt::For(var, iter, body) => {
                let seq = self.eval(iter)?;
                let items = builtins::iterate(&seq)?;
                for item in items {
                    self.spend()?;
                    self.scope_mut().insert(var.clone(), item);
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            PStmt::Def(f) => {
                // Nested defs shadow nothing useful without closures;
                // reject them clearly rather than miscompiling.
                Err(EvalError::at(
                    EvalErrorKind::Unsupported,
                    format!("nested function {:?} is not supported", f.name),
                    f.line,
                ))
            }
        }
    }

    /// Evaluate `raise <expr>` into an exception error. Recognizes the
    /// `ExceptionName("message")` shape and extracts the message.
    fn build_exception(&mut self, e: Option<&PExpr>) -> Result<EvalError, EvalError> {
        let Some(e) = e else {
            return Ok(EvalError::raised("exception re-raised"));
        };
        if let PExpr::Call(callee, args) = e {
            if let PExpr::Ident(name) = callee.as_ref() {
                if builtins::is_exception_name(name) {
                    let msg = match args.first() {
                        Some(a) => builtins::py_str(&self.eval(a)?),
                        None => String::new(),
                    };
                    return Ok(EvalError::raised(format!("{name}: {msg}")));
                }
            }
        }
        let v = self.eval(e)?;
        Ok(EvalError::raised(builtins::py_str(&v)))
    }

    // ---- expressions ----

    pub(crate) fn eval(&mut self, e: &PExpr) -> Result<Value, EvalError> {
        self.spend()?;
        match e {
            PExpr::None_ => Ok(Value::Null),
            PExpr::Bool(b) => Ok(Value::Bool(*b)),
            PExpr::Int(i) => Ok(Value::Int(*i)),
            PExpr::Float(f) => Ok(Value::Float(*f)),
            PExpr::Str(s) => Ok(Value::Str(s.clone())),
            PExpr::FString(segs) => {
                let mut out = String::new();
                for seg in segs {
                    match seg {
                        FSeg::Lit(s) => out.push_str(s),
                        FSeg::Expr(e) => {
                            let v = self.eval(e)?;
                            out.push_str(&builtins::py_str(&v));
                        }
                    }
                }
                Ok(Value::Str(out))
            }
            PExpr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item)?);
                }
                Ok(Value::Seq(out))
            }
            PExpr::Dict(pairs) => {
                let mut m = Map::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let key = builtins::py_str(&self.eval(k)?);
                    let value = self.eval(v)?;
                    m.insert(key, value);
                }
                Ok(Value::Map(m))
            }
            PExpr::Ident(name) => self
                .lookup(name)
                .cloned()
                .ok_or_else(|| EvalError::name(format!("name '{name}' is not defined"))),
            PExpr::ParamRef(path) => paramref::resolve(&self.ctx, path),
            PExpr::Attr(obj, name) => {
                let v = self.eval(obj)?;
                match &v {
                    Value::Map(m) => Ok(m.get(name).cloned().unwrap_or(Value::Null)),
                    other => Err(EvalError::type_err(format!(
                        "'{}' object has no attribute {name:?}",
                        builtins::type_name(other)
                    ))),
                }
            }
            PExpr::Index(obj, idx) => {
                let o = self.eval(obj)?;
                let i = self.eval(idx)?;
                builtins::get_index(&o, &i)
            }
            PExpr::Slice(obj, start, end) => {
                let o = self.eval(obj)?;
                let s = match start {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                let t = match end {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                builtins::get_slice(&o, s.as_ref(), t.as_ref())
            }
            PExpr::Call(callee, args) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                match callee.as_ref() {
                    PExpr::Ident(name) => {
                        if self.funcs.contains_key(name.as_str()) {
                            self.call_user(name, argv)
                        } else {
                            let printed = &mut self.printed;
                            builtins::call_builtin(name, &argv, printed)
                        }
                    }
                    PExpr::Attr(obj, method) => {
                        let recv = self.eval(obj)?;
                        let (result, mutated) = builtins::call_method(recv, method, &argv)?;
                        if let Some(new_recv) = mutated {
                            if obj.is_lvalue() {
                                self.assign(obj, new_recv)?;
                            }
                        }
                        Ok(result)
                    }
                    other => Err(EvalError::type_err(format!("{other:?} is not callable"))),
                }
            }
            PExpr::Unary(op, e) => {
                let v = self.eval(e)?;
                match op {
                    PUnOp::Not => Ok(Value::Bool(!v.truthy())),
                    PUnOp::Neg => builtins::negate(&v),
                    PUnOp::Pos => match v {
                        Value::Int(_) | Value::Float(_) => Ok(v),
                        other => Err(EvalError::type_err(format!(
                            "bad operand type for unary +: '{}'",
                            builtins::type_name(&other)
                        ))),
                    },
                }
            }
            PExpr::Binary(op, l, r) => {
                let lv = self.eval(l)?;
                let rv = self.eval(r)?;
                builtins::binary(*op, &lv, &rv)
            }
            PExpr::BoolOp(op, l, r) => {
                let lv = self.eval(l)?;
                match op {
                    PBoolOp::And => {
                        if lv.truthy() {
                            self.eval(r)
                        } else {
                            Ok(lv)
                        }
                    }
                    PBoolOp::Or => {
                        if lv.truthy() {
                            Ok(lv)
                        } else {
                            self.eval(r)
                        }
                    }
                }
            }
            PExpr::Compare(first, chain) => {
                let mut left = self.eval(first)?;
                for (op, rhs) in chain {
                    let right = self.eval(rhs)?;
                    if !builtins::compare(*op, &left, &right)? {
                        return Ok(Value::Bool(false));
                    }
                    left = right;
                }
                Ok(Value::Bool(true))
            }
            PExpr::Ternary { body, cond, orelse } => {
                if self.eval(cond)?.truthy() {
                    self.eval(body)
                } else {
                    self.eval(orelse)
                }
            }
        }
    }

    /// Call a user-defined library function.
    pub(crate) fn call_user(&mut self, name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let f = self
            .funcs
            .get(name)
            .ok_or_else(|| EvalError::name(format!("name '{name}' is not defined")))?
            .clone();
        if self.depth >= MAX_CALL_DEPTH {
            return Err(EvalError::new(
                EvalErrorKind::Budget,
                format!("maximum recursion depth exceeded calling {name:?}"),
            ));
        }
        if args.len() > f.params.len() {
            return Err(EvalError::type_err(format!(
                "{name}() takes {} arguments but {} were given",
                f.params.len(),
                args.len()
            )));
        }
        let mut frame = HashMap::with_capacity(f.params.len());
        for (i, (pname, default)) in f.params.iter().enumerate() {
            let v = if i < args.len() {
                args[i].clone()
            } else if let Some(default) = default {
                self.eval(default)?
            } else {
                return Err(EvalError::type_err(format!(
                    "{name}() missing required argument: '{pname}'"
                )));
            };
            frame.insert(pname.clone(), v);
        }
        self.frames.push(frame);
        self.depth += 1;
        let result = self.exec_block(&f.body);
        self.depth -= 1;
        self.frames.pop();
        match result? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Null),
        }
    }

    /// Assign to an lvalue: identifier, attribute, or index chains.
    fn assign(&mut self, target: &PExpr, value: Value) -> Result<(), EvalError> {
        enum Seg {
            Key(String),
            Idx(i64),
        }
        let mut segs: Vec<Seg> = Vec::new();
        let mut cur = target;
        let root = loop {
            match cur {
                PExpr::Ident(name) => break name.clone(),
                PExpr::Attr(obj, name) => {
                    segs.push(Seg::Key(name.clone()));
                    cur = obj;
                }
                PExpr::Index(obj, idx) => {
                    let iv = self.eval(idx)?;
                    match iv {
                        Value::Int(i) => segs.push(Seg::Idx(i)),
                        Value::Str(s) => segs.push(Seg::Key(s)),
                        other => {
                            return Err(EvalError::type_err(format!(
                                "invalid index {other:?} in assignment"
                            )))
                        }
                    }
                    cur = obj;
                }
                other => return Err(EvalError::type_err(format!("cannot assign to {other:?}"))),
            }
        };
        segs.reverse();
        if segs.is_empty() {
            self.scope_mut().insert(root, value);
            return Ok(());
        }
        // Navigate from the root variable through the path.
        let slot_root = if let Some(frame) = self.frames.last_mut() {
            if frame.contains_key(&root) {
                frame.get_mut(&root)
            } else {
                self.globals.get_mut(&root)
            }
        } else {
            self.globals.get_mut(&root)
        };
        let mut slot =
            slot_root.ok_or_else(|| EvalError::name(format!("name '{root}' is not defined")))?;
        for seg in &segs {
            match seg {
                Seg::Key(k) => {
                    let map = slot.as_map_mut().ok_or_else(|| {
                        EvalError::type_err(format!("cannot set key {k:?} on non-dict"))
                    })?;
                    if !map.contains_key(k) {
                        map.insert(k.clone(), Value::Null);
                    }
                    slot = map.get_mut(k).expect("just inserted");
                }
                Seg::Idx(i) => {
                    let seq = slot.as_seq_mut().ok_or_else(|| {
                        EvalError::type_err("cannot index non-list in assignment")
                    })?;
                    let len = seq.len() as i64;
                    let idx = if *i < 0 { len + i } else { *i };
                    if idx < 0 || idx >= len {
                        return Err(EvalError::type_err(format!(
                            "list assignment index {i} out of range"
                        )));
                    }
                    slot = &mut seq[idx as usize];
                }
            }
        }
        *slot = value;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::vmap;

    fn ctx() -> Map {
        match vmap! {
            "inputs" => vmap!{
                "message" => "hello brave new world",
                "data_file" => vmap!{"path" => "/data/x.csv", "basename" => "x.csv"},
                "count" => 5i64,
            },
        } {
            Value::Map(m) => m,
            _ => unreachable!(),
        }
    }

    /// The paper's Listing 5: capitalize each word of a message.
    #[test]
    fn listing5_capitalize_words() {
        let lib = PyLib::compile(
            "def capitalize_words(message):\n    \"\"\"Capitalize each word.\"\"\"\n    return message.title()\n",
        )
        .unwrap();
        let v = lib
            .eval_expression("capitalize_words($(inputs.message))", &ctx())
            .unwrap();
        assert_eq!(v, Value::str("Hello Brave New World"));
    }

    /// The paper's Listing 6: validate a file extension, raising on failure.
    #[test]
    fn listing6_valid_file() {
        let src = "
def valid_file(file, ext):
    if not file.lower().endswith(ext):
        raise Exception(f\"Invalid file. Expected '{ext}'\")
    return True
";
        let lib = PyLib::compile(src).unwrap();
        let ok = lib
            .eval_expression("valid_file($(inputs.data_file.basename), '.csv')", &ctx())
            .unwrap();
        assert_eq!(ok, Value::Bool(true));
        let err = lib
            .eval_expression("valid_file($(inputs.data_file.basename), '.tsv')", &ctx())
            .unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Raised);
        assert!(err.message.contains("Expected '.tsv'"), "{}", err.message);
    }

    #[test]
    fn arithmetic_semantics() {
        let lib = PyLib::default();
        let c = ctx();
        assert_eq!(lib.eval_expression("7 / 2", &c).unwrap(), Value::Float(3.5));
        assert_eq!(lib.eval_expression("7 // 2", &c).unwrap(), Value::Int(3));
        assert_eq!(lib.eval_expression("-7 // 2", &c).unwrap(), Value::Int(-4));
        assert_eq!(lib.eval_expression("7 % -3", &c).unwrap(), Value::Int(-2));
        assert_eq!(
            lib.eval_expression("2 ** 10", &c).unwrap(),
            Value::Int(1024)
        );
        assert_eq!(lib.eval_expression("-2 ** 2", &c).unwrap(), Value::Int(-4));
        assert_eq!(
            lib.eval_expression("'ab' * 3", &c).unwrap(),
            Value::str("ababab")
        );
        assert_eq!(
            lib.eval_expression("[1] + [2, 3]", &c).unwrap(),
            yamlite::vseq![1i64, 2i64, 3i64]
        );
    }

    #[test]
    fn str_plus_int_type_error() {
        let lib = PyLib::default();
        let err = lib.eval_expression("'a' + 1", &ctx()).unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Type);
    }

    #[test]
    fn chained_comparison_semantics() {
        let lib = PyLib::default();
        let c = ctx();
        assert_eq!(
            lib.eval_expression("1 < 2 < 3", &c).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            lib.eval_expression("1 < 2 > 3", &c).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            lib.eval_expression("0 <= $(inputs.count) < 10", &c)
                .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn fstrings() {
        let lib = PyLib::default();
        let c = ctx();
        assert_eq!(
            lib.eval_expression("f\"n={1 + 1} s={'x'.upper()}\"", &c)
                .unwrap(),
            Value::str("n=2 s=X")
        );
        assert_eq!(
            lib.eval_expression("f\"{None} {True} {2.5}\"", &c).unwrap(),
            Value::str("None True 2.5")
        );
    }

    #[test]
    fn function_defaults_and_errors() {
        let lib = PyLib::compile("def f(a, b=10):\n    return a + b\n").unwrap();
        let c = ctx();
        assert_eq!(lib.eval_expression("f(1)", &c).unwrap(), Value::Int(11));
        assert_eq!(lib.eval_expression("f(1, 2)", &c).unwrap(), Value::Int(3));
        assert!(lib.eval_expression("f()", &c).is_err());
        assert!(lib.eval_expression("f(1, 2, 3)", &c).is_err());
    }

    #[test]
    fn loops_and_mutation() {
        let src = "
def squares(n):
    out = []
    for i in range(n):
        out.append(i * i)
    return out
";
        let lib = PyLib::compile(src).unwrap();
        assert_eq!(
            lib.eval_expression("squares(4)", &ctx()).unwrap(),
            yamlite::vseq![0i64, 1i64, 4i64, 9i64]
        );
    }

    #[test]
    fn while_break_continue() {
        let src = "
def odd_sum(limit):
    total = 0
    i = 0
    while True:
        i += 1
        if i > limit:
            break
        if i % 2 == 0:
            continue
        total += i
    return total
";
        let lib = PyLib::compile(src).unwrap();
        assert_eq!(
            lib.eval_expression("odd_sum(10)", &ctx()).unwrap(),
            Value::Int(25)
        );
    }

    #[test]
    fn module_globals() {
        let lib = PyLib::compile("LIMIT = 4\ndef f(x):\n    return x * LIMIT\n").unwrap();
        assert_eq!(lib.eval_expression("f(3)", &ctx()).unwrap(), Value::Int(12));
        assert_eq!(lib.eval_expression("LIMIT", &ctx()).unwrap(), Value::Int(4));
    }

    #[test]
    fn recursion_works_but_is_bounded() {
        let lib = PyLib::compile(
            "def fact(n):\n    return 1 if n <= 1 else n * fact(n - 1)\n\ndef inf(n):\n    return inf(n + 1)\n",
        )
        .unwrap();
        assert_eq!(
            lib.eval_expression("fact(10)", &ctx()).unwrap(),
            Value::Int(3628800)
        );
        let err = lib.eval_expression("inf(0)", &ctx()).unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Budget);
    }

    #[test]
    fn infinite_loop_budget() {
        let lib = PyLib::compile("def spin():\n    while True:\n        pass\n").unwrap();
        let err = lib.eval_expression("spin()", &ctx()).unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Budget);
    }

    #[test]
    fn ternary_and_boolops() {
        let lib = PyLib::default();
        let c = ctx();
        assert_eq!(
            lib.eval_expression("'big' if $(inputs.count) > 3 else 'small'", &c)
                .unwrap(),
            Value::str("big")
        );
        assert_eq!(
            lib.eval_expression("None or 'dflt'", &c).unwrap(),
            Value::str("dflt")
        );
        assert_eq!(lib.eval_expression("0 and 1", &c).unwrap(), Value::Int(0));
        assert_eq!(
            lib.eval_expression("not []", &c).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn dict_and_membership() {
        let lib = PyLib::default();
        let c = ctx();
        assert_eq!(
            lib.eval_expression("{'a': 1}['a']", &c).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            lib.eval_expression("'a' in {'a': 1}", &c).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            lib.eval_expression("'ell' in 'hello'", &c).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            lib.eval_expression("3 not in [1, 2]", &c).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn slices_and_negative_indexing() {
        let lib = PyLib::default();
        let c = ctx();
        assert_eq!(
            lib.eval_expression("'hello'[1:3]", &c).unwrap(),
            Value::str("el")
        );
        assert_eq!(
            lib.eval_expression("'hello'[-1]", &c).unwrap(),
            Value::str("o")
        );
        assert_eq!(
            lib.eval_expression("[1, 2, 3][:2]", &c).unwrap(),
            yamlite::vseq![1i64, 2i64]
        );
        assert_eq!(
            lib.eval_expression("[1, 2, 3][-2:]", &c).unwrap(),
            yamlite::vseq![2i64, 3i64]
        );
    }

    #[test]
    fn nested_assignment_and_list_mutation() {
        let src = "
def build():
    d = {'xs': [1, 2, 3]}
    d['xs'][1] = 20
    d['label'] = 'done'
    return d
";
        let lib = PyLib::compile(src).unwrap();
        let v = lib.eval_expression("build()", &ctx()).unwrap();
        assert_eq!(v["xs"][1], Value::Int(20));
        assert_eq!(v["label"], Value::str("done"));
    }

    #[test]
    fn raise_bare_and_custom() {
        let lib = PyLib::compile(
            "def boom(kind):\n    if kind == 1:\n        raise ValueError('bad value')\n    raise 'custom'\n",
        )
        .unwrap();
        let e1 = lib.eval_expression("boom(1)", &ctx()).unwrap_err();
        assert!(e1.message.starts_with("ValueError: bad value"));
        let e2 = lib.eval_expression("boom(2)", &ctx()).unwrap_err();
        assert_eq!(e2.message, "custom");
    }

    #[test]
    fn attr_on_non_dict_errors() {
        let lib = PyLib::default();
        let err = lib.eval_expression("(1).foo", &ctx()).unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Type);
    }

    #[test]
    fn paramref_missing_errors() {
        let lib = PyLib::default();
        let err = lib
            .eval_expression("$(inputs.nope.deeper)", &ctx())
            .unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Name);
    }
}
