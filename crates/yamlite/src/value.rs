//! The dynamic [`Value`] model shared by YAML documents, CWL inputs/outputs,
//! expression engines, and Parsl task payloads.

use std::fmt;
use std::sync::Arc;

/// An insertion-ordered string-keyed map.
///
/// CWL semantics care about document order (e.g. the order of `inputs`
/// determines tie-breaking for command-line bindings), so we preserve it.
/// Backed by a `Vec<(String, Arc<Value>)>`: CWL maps are small (tens of
/// entries), where linear scans beat hashing and keep ordering for free.
///
/// Values are reference-counted, so cloning a map costs one refcount bump
/// per key however large the values are, and the clones stay independent:
/// every mutable access ([`Map::get_mut`], [`Map::iter_mut`]) copies a
/// value first if another map still shares it. The `*_shared` methods hand
/// a value from one map to another without copying it.
#[derive(Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Arc<Value>)>,
}

impl Map {
    /// Create an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty map with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            entries: Vec::with_capacity(n),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.get_shared(key).map(|v| &**v)
    }

    /// Look up the shared cell holding `key`'s value; cloning the `Arc`
    /// and passing it to [`Map::insert_shared`] carries the value into
    /// another map without copying it.
    pub fn get_shared(&self, key: &str) -> Option<&Arc<Value>> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable lookup by key. Copies the value first when it is shared.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Arc::make_mut(v))
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Insert or replace `key`, returning the previous value if any.
    /// New keys are appended, preserving insertion order. A replaced value
    /// that another map still shares is copied to be returned; use
    /// [`Map::insert_shared`] where that value may be large.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        self.insert_shared(key, Arc::new(value.into()))
            .map(Arc::unwrap_or_clone)
    }

    /// [`Map::insert`] for a value that already lives in a shared cell;
    /// neither the new nor the previous value is copied.
    pub fn insert_shared(
        &mut self,
        key: impl Into<String>,
        value: Arc<Value>,
    ) -> Option<Arc<Value>> {
        let key = key.into();
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Remove `key`, returning its value if present. Preserves the order of
    /// the remaining entries.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(Arc::unwrap_or_clone(self.entries.remove(idx).1))
    }

    /// Iterate over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), &**v))
    }

    /// Iterate mutably over `(key, value)` pairs in insertion order. Each
    /// value visited is copied first when it is shared.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut Value)> {
        self.entries
            .iter_mut()
            .map(|(k, v)| (k.as_str(), Arc::make_mut(v)))
    }

    /// Iterate over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Iterate over values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| &**v)
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a str, &'a Value);
    type IntoIter = Box<dyn Iterator<Item = (&'a str, &'a Value)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// A dynamically typed YAML/CWL value.
#[derive(Clone, Default, PartialEq)]
pub enum Value {
    /// YAML `null` / `~` / empty node.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Insertion-ordered mapping.
    Map(Map),
}

impl Value {
    /// Shorthand for building a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// One-word name of this value's kind (for error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "mapping",
        }
    }

    /// True when this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// View as `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// View as `i64`, if it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// View as `f64`, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// View as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// View as a sequence slice, if it is one.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// View as a mapping, if it is one.
    pub fn as_map(&self) -> Option<&Map> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable view as a mapping, if it is one.
    pub fn as_map_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable view as a sequence, if it is one.
    pub fn as_seq_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Map lookup that tolerates non-map values (returns `None`).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Sequence index that tolerates non-seq values (returns `None`).
    pub(crate) fn get_index(&self, idx: usize) -> Option<&Value> {
        self.as_seq().and_then(|s| s.get(idx))
    }

    /// Coerce to a display string following CWL/JS stringification rules:
    /// `null` → empty, booleans lowercase, floats without trailing `.0` when
    /// integral, sequences space-joined (useful for command lines).
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Str(s) => s.clone(),
            Value::Seq(items) => items
                .iter()
                .map(Value::to_display_string)
                .collect::<Vec<_>>()
                .join(" "),
            Value::Map(_) => crate::emit::to_string_flow(self),
        }
    }

    /// Truthiness following JavaScript/Python shared conventions: `null`,
    /// `false`, `0`, `0.0`, `""`, empty seq/map are falsy.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Seq(s) => !s.is_empty(),
            Value::Map(m) => !m.is_empty(),
        }
    }

    /// Deep-merge `other` into `self`: maps merge recursively, everything else
    /// is replaced. Used for layering configuration defaults.
    pub fn merge_from(&mut self, other: &Value) {
        match (self, other) {
            (Value::Map(dst), Value::Map(src)) => {
                for (k, v) in &src.entries {
                    match dst.get_mut(k) {
                        Some(existing) => existing.merge_from(v),
                        None => {
                            dst.insert_shared(k, Arc::clone(v));
                        }
                    }
                }
            }
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// Rewrite a sequence copy-on-first-change: `f` returns `None` for an item
/// it leaves as it is. The result is `None` when no item changed, so walks
/// that usually change nothing (normalization, staging) allocate nothing.
pub fn rewrite_seq<E>(
    items: &[Value],
    mut f: impl FnMut(&Value) -> Result<Option<Value>, E>,
) -> Result<Option<Vec<Value>>, E> {
    let mut out: Option<Vec<Value>> = None;
    for (i, item) in items.iter().enumerate() {
        let changed = f(item)?;
        if out.is_none() && changed.is_some() {
            let mut head = Vec::with_capacity(items.len());
            head.extend_from_slice(&items[..i]);
            out = Some(head);
        }
        if let Some(out) = &mut out {
            out.push(changed.unwrap_or_else(|| item.clone()));
        }
    }
    Ok(out)
}

/// Format a float the way YAML/JSON emitters conventionally do: integral
/// values keep a trailing `.0` marker so they re-parse as floats.
pub(crate) fn format_float(f: f64) -> String {
    if f.is_nan() {
        ".nan".to_string()
    } else if f.is_infinite() {
        if f > 0.0 {
            ".inf".to_string()
        } else {
            "-.inf".to_string()
        }
    } else if f == f.trunc() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "Null"),
            Value::Bool(b) => write!(f, "Bool({b})"),
            Value::Int(i) => write!(f, "Int({i})"),
            Value::Float(x) => write!(f, "Float({x})"),
            Value::Str(s) => write!(f, "Str({s:?})"),
            Value::Seq(s) => f.debug_list().entries(s).finish(),
            Value::Map(m) => m.fmt(f),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

/// Indexing by map key. Panics are avoided: missing keys yield `Value::Null`
/// via a static sentinel, mirroring the ergonomics of dynamic languages.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// Indexing by sequence position; out-of-range yields `Value::Null`.
impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.get_index(idx).unwrap_or(&NULL)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Seq(v)
    }
}
impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Map(m)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        match o {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

/// Convenience macro for building [`Value`] maps inline in tests and examples.
#[macro_export]
macro_rules! vmap {
    ($($key:expr => $val:expr),* $(,)?) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $( m.insert($key, $val); )*
        $crate::Value::Map(m)
    }};
}

/// Convenience macro for building [`Value`] sequences.
#[macro_export]
macro_rules! vseq {
    ($($val:expr),* $(,)?) => {
        $crate::Value::Seq(vec![ $( $crate::Value::from($val) ),* ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order() {
        let mut m = Map::new();
        m.insert("z", 1i64);
        m.insert("a", 2i64);
        m.insert("m", 3i64);
        let keys: Vec<_> = m.keys().collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn map_insert_replaces_in_place() {
        let mut m = Map::new();
        m.insert("a", 1i64);
        m.insert("b", 2i64);
        let old = m.insert("a", 10i64);
        assert_eq!(old, Some(Value::Int(1)));
        assert_eq!(m.keys().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(m.get("a"), Some(&Value::Int(10)));
    }

    #[test]
    fn map_remove_preserves_order() {
        let mut m = Map::new();
        m.insert("a", 1i64);
        m.insert("b", 2i64);
        m.insert("c", 3i64);
        assert_eq!(m.remove("b"), Some(Value::Int(2)));
        assert_eq!(m.keys().collect::<Vec<_>>(), vec!["a", "c"]);
        assert_eq!(m.remove("nope"), None);
    }

    fn big() -> Value {
        Value::Seq((0..64i64).map(Value::Int).collect())
    }

    fn sample() -> Map {
        let mut m = Map::new();
        m.insert("carried", big());
        m.insert("nested", vmap! {"x" => 1i64, "carried" => big()});
        m.insert("n", 7i64);
        m
    }

    #[test]
    fn clone_shares_values_and_get_mut_copies_on_write() {
        let original = sample();
        let mut copy = original.clone();
        for k in ["carried", "nested", "n"] {
            assert!(Arc::ptr_eq(
                original.get_shared(k).unwrap(),
                copy.get_shared(k).unwrap()
            ));
        }
        copy.get_mut("carried")
            .unwrap()
            .as_seq_mut()
            .unwrap()
            .push(Value::Null);
        copy.get_mut("nested")
            .unwrap()
            .as_map_mut()
            .unwrap()
            .get_mut("carried")
            .unwrap()
            .as_seq_mut()
            .unwrap()
            .clear();
        assert_eq!(original, sample());
        assert_eq!(copy.get("carried").unwrap().as_seq().unwrap().len(), 65);
        assert!(copy.get("nested").unwrap()["carried"]
            .as_seq()
            .unwrap()
            .is_empty());
        // What was not written to is still shared.
        assert!(Arc::ptr_eq(
            original.get_shared("n").unwrap(),
            copy.get_shared("n").unwrap()
        ));
        // An unshared value is mutated in place, not copied again.
        let cell = Arc::as_ptr(copy.get_shared("carried").unwrap());
        copy.get_mut("carried").unwrap();
        assert_eq!(cell, Arc::as_ptr(copy.get_shared("carried").unwrap()));
    }

    #[test]
    fn iter_mut_copies_on_write() {
        let original = sample();
        let mut copy = original.clone();
        for (_, v) in copy.iter_mut() {
            *v = Value::Null;
        }
        assert_eq!(original, sample());
        assert!(copy.values().all(Value::is_null));
    }

    #[test]
    fn insert_and_remove_return_the_previous_value_while_shared() {
        let original = sample();
        let mut copy = original.clone();
        assert_eq!(copy.insert("carried", 1i64), Some(big()));
        assert_eq!(copy.remove("nested"), original.get("nested").cloned());
        assert_eq!(copy.keys().collect::<Vec<_>>(), vec!["carried", "n"]);
        assert_eq!(original, sample());
    }

    #[test]
    fn insert_shared_moves_a_value_between_maps_without_copying() {
        let original = sample();
        let mut other = Map::new();
        let cell = original.get_shared("carried").unwrap();
        assert!(other.insert_shared("moved", Arc::clone(cell)).is_none());
        assert!(Arc::ptr_eq(cell, other.get_shared("moved").unwrap()));
        // Replacing hands back the previous cell itself.
        let previous = other.insert_shared("moved", Arc::new(Value::Null)).unwrap();
        assert!(Arc::ptr_eq(cell, &previous));
        assert_eq!(original, sample());
    }

    #[test]
    fn merge_from_shares_new_keys_and_leaves_both_sides_alone() {
        let base = sample();
        let overlay = match vmap! {
            "nested" => vmap!{"x" => 2i64},
            "extra" => big(),
        } {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        let mut merged = Value::Map(base.clone());
        merged.merge_from(&Value::Map(overlay.clone()));
        assert_eq!(merged["nested"]["x"].as_int(), Some(2));
        assert_eq!(merged["nested"]["carried"], big());
        assert!(Arc::ptr_eq(
            overlay.get_shared("extra").unwrap(),
            merged.as_map().unwrap().get_shared("extra").unwrap()
        ));
        assert_eq!(base, sample());
        assert_eq!(overlay.get("nested").unwrap()["x"].as_int(), Some(2));
        assert_eq!(overlay.len(), 2);
    }

    #[test]
    fn equality_is_by_value_not_by_cell() {
        let a = sample();
        let b = sample();
        assert!(!Arc::ptr_eq(
            a.get_shared("carried").unwrap(),
            b.get_shared("carried").unwrap()
        ));
        assert_eq!(a, b);
        let mut c = a.clone();
        c.insert("n", 8i64);
        assert_ne!(a, c);
    }

    #[test]
    fn rewrite_seq_allocates_only_from_the_first_change() {
        let items = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        let unchanged = rewrite_seq(&items, |_| Ok::<_, ()>(None)).unwrap();
        assert_eq!(unchanged, None);
        let doubled_twos = rewrite_seq(&items, |v| {
            Ok::<_, ()>((v.as_int() == Some(2)).then_some(Value::Int(4)))
        })
        .unwrap();
        assert_eq!(
            doubled_twos,
            Some(vec![Value::Int(1), Value::Int(4), Value::Int(3)])
        );
        let failed = rewrite_seq(&items, |v| match v.as_int() {
            Some(3) => Err("three"),
            _ => Ok(None),
        });
        assert_eq!(failed, Err("three"));
    }

    #[test]
    fn index_missing_yields_null() {
        let v = vmap! {"a" => 1i64};
        assert!(v["missing"].is_null());
        assert!(v["a"]["deeper"].is_null());
        assert!(v[42].is_null());
    }

    #[test]
    fn display_string_rules() {
        assert_eq!(Value::Null.to_display_string(), "");
        assert_eq!(Value::Bool(true).to_display_string(), "true");
        assert_eq!(Value::Int(-3).to_display_string(), "-3");
        assert_eq!(Value::Float(2.0).to_display_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_display_string(), "2.5");
        assert_eq!(vseq![1i64, "x"].to_display_string(), "1 x");
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(!Value::Seq(vec![]).truthy());
        assert!(Value::Int(1).truthy());
        assert!(Value::str("x").truthy());
        assert!(vmap! {"k" => 1i64}.truthy());
        assert!(!vmap! {}.truthy());
    }

    #[test]
    fn merge_recursive() {
        let mut base = vmap! {
            "executor" => vmap!{"kind" => "htex", "workers" => 4i64},
            "retries" => 0i64,
        };
        let overlay = vmap! {
            "executor" => vmap!{"workers" => 8i64},
            "label" => "prod",
        };
        base.merge_from(&overlay);
        assert_eq!(base["executor"]["kind"].as_str(), Some("htex"));
        assert_eq!(base["executor"]["workers"].as_int(), Some(8));
        assert_eq!(base["label"].as_str(), Some("prod"));
        assert_eq!(base["retries"].as_int(), Some(0));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(format_float(f64::NAN), ".nan");
        assert_eq!(format_float(f64::INFINITY), ".inf");
        assert_eq!(format_float(f64::NEG_INFINITY), "-.inf");
        assert_eq!(format_float(1.0), "1.0");
        assert_eq!(format_float(0.25), "0.25");
    }

    #[test]
    fn as_float_widens_int() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::str("3").as_float(), None);
    }
}
