//! Source spans for parsed YAML nodes.
//!
//! [`crate::parse_str_spanned`] records, for every block mapping key and
//! block sequence item, the 1-based line/column where it appears in the
//! source text. Spans are kept in a side table keyed by the same dotted-path
//! syntax [`crate::path`] uses (`steps[0].run`, `inputs.message.type`), so a
//! consumer that walks the [`crate::Value`] tree can look up positions
//! without the tree itself carrying location data.
//!
//! Nodes nested inside flow collections (`[...]`/`{...}`) share the position
//! of the line they appear on; [`SpanIndex::resolve`] falls back to the
//! nearest recorded ancestor so every path yields *some* position.

use crate::error::Position;
use std::collections::HashMap;

/// Side table mapping dotted value paths to source positions.
#[derive(Debug, Clone, Default)]
pub struct SpanIndex {
    map: HashMap<String, Position>,
}

impl SpanIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the position of the node at `path`.
    pub(crate) fn insert(&mut self, path: String, pos: Position) {
        self.map.insert(path, pos);
    }

    /// Exact-match lookup.
    pub fn get(&self, path: &str) -> Option<Position> {
        self.map.get(path).copied()
    }

    /// Lookup with nearest-ancestor fallback: if `path` itself was not
    /// recorded (e.g. it lives inside a flow collection or a scalar), walk up
    /// through its ancestors (`a.b[2].c` → `a.b[2]` → `a.b` → `a`) and return
    /// the first recorded position.
    pub fn resolve(&self, path: &str) -> Option<Position> {
        let mut cur = path;
        loop {
            if let Some(pos) = self.map.get(cur) {
                return Some(*pos);
            }
            cur = parent_path(cur)?;
        }
    }
}

/// Strip the last path segment: `a.b[2].c` → `a.b[2]` → `a.b` → `a` → None.
fn parent_path(path: &str) -> Option<&str> {
    if path.is_empty() {
        return None;
    }
    let last_dot = path.rfind('.');
    let last_bracket = path.rfind('[');
    match (last_dot, last_bracket) {
        (None, None) => None,
        (Some(d), None) => Some(&path[..d]),
        (None, Some(b)) => Some(&path[..b]),
        (Some(d), Some(b)) => Some(&path[..d.max(b)]),
    }
}

/// Join a mapping key onto a base path.
pub fn child_path(base: &str, key: &str) -> String {
    if base.is_empty() {
        key.to_string()
    } else {
        format!("{base}.{key}")
    }
}

/// Join a sequence index onto a base path.
pub fn item_path(base: &str, index: usize) -> String {
    format!("{base}[{index}]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_walks_up() {
        assert_eq!(parent_path("a.b[2].c"), Some("a.b[2]"));
        assert_eq!(parent_path("a.b[2]"), Some("a.b"));
        assert_eq!(parent_path("a.b"), Some("a"));
        assert_eq!(parent_path("a"), None);
        assert_eq!(parent_path(""), None);
    }

    #[test]
    fn resolve_falls_back_to_ancestor() {
        let mut idx = SpanIndex::new();
        idx.insert("steps".to_string(), Position::new(10, 1));
        idx.insert("steps[0]".to_string(), Position::new(11, 3));
        assert_eq!(idx.get("steps[0].run"), None);
        assert_eq!(idx.resolve("steps[0].run"), Some(Position::new(11, 3)));
        assert_eq!(idx.resolve("steps[1].run"), Some(Position::new(10, 1)));
        assert_eq!(idx.resolve("nowhere"), None);
    }

    #[test]
    fn path_joins() {
        assert_eq!(child_path("", "a"), "a");
        assert_eq!(child_path("a", "b"), "a.b");
        assert_eq!(item_path("a.b", 3), "a.b[3]");
    }
}
