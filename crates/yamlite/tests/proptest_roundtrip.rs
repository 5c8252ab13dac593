//! Property-based tests: any `Value` we can construct must survive an
//! emit → parse roundtrip, and the parser must never panic on arbitrary input.

use proptest::prelude::*;
use yamlite::{Map, Value};

/// Strategy for scalar values. Floats are restricted to finite values that
/// roundtrip exactly through decimal text (NaN breaks equality; subnormal
/// printing is out of scope).
fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1.0e9..1.0e9f64).prop_map(|f| Value::Float((f * 1e3).round() / 1e3)),
        // Printable strings, including YAML-hostile ones.
        proptest::string::string_regex("[ -~]{0,24}")
            .unwrap()
            .prop_map(Value::Str),
        prop_oneof![
            Just("true".to_string()),
            Just("null".to_string()),
            Just("- item".to_string()),
            Just("a: b".to_string()),
            Just("#comment".to_string()),
            Just("line1\nline2\n".to_string()),
            Just("  padded  ".to_string()),
        ]
        .prop_map(Value::Str),
    ]
}

/// Strategy for keys: non-empty printable strings without newline.
fn key() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z_$][a-zA-Z0-9_.$-]{0,12}").unwrap()
}

fn value() -> impl Strategy<Value = Value> {
    scalar().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            proptest::collection::vec((key(), inner), 0..4)
                .prop_map(|pairs| { Value::Map(pairs.into_iter().collect::<Map>()) }),
        ]
    })
}

/// Overwrite `v` wherever a mutable borrow reaches: containers grow and
/// their children are overwritten too, scalars are replaced.
fn scribble(v: &mut Value) {
    match v {
        Value::Map(m) => {
            for (_, child) in m.iter_mut() {
                scribble(child);
            }
            m.insert("scribbled", true);
        }
        Value::Seq(items) => {
            items.iter_mut().for_each(scribble);
            items.push(Value::str("scribbled"));
        }
        other => *other = Value::str("scribbled"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn emit_parse_roundtrip(v in value()) {
        let text = yamlite::to_string(&v);
        let parsed = yamlite::parse_str(&text)
            .unwrap_or_else(|e| panic!("failed to reparse {text:?}: {e}"));
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn flow_emit_parse_roundtrip(v in value()) {
        let text = yamlite::to_string_flow(&v);
        let parsed = yamlite::parse_str(&text)
            .unwrap_or_else(|e| panic!("failed to reparse flow {text:?}: {e}"));
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn parser_never_panics(s in proptest::string::string_regex("[ -~\\n]{0,200}").unwrap()) {
        let _ = yamlite::parse_str(&s);
    }

    #[test]
    fn parser_never_panics_structured(
        keys in proptest::collection::vec("[a-z]{1,6}", 1..6),
        indents in proptest::collection::vec(0usize..8, 1..6),
    ) {
        // Random indentation ladders exercise the block-structure edge cases.
        let mut doc = String::new();
        for (k, i) in keys.iter().zip(indents.iter()) {
            doc.push_str(&" ".repeat(*i));
            doc.push_str(k);
            doc.push_str(":\n");
        }
        let _ = yamlite::parse_str(&doc);
    }

    /// The copy-on-write contract of `Map`: whatever is done to a clone —
    /// through `get_mut`, `iter_mut`, `insert`, `remove` or `merge_from` —
    /// the original still equals an independently built copy of itself, and
    /// `insert`/`remove` hand back the previous value although the original
    /// shares it.
    #[test]
    fn mutating_a_clone_never_changes_the_original(
        pairs in proptest::collection::vec((key(), value()), 1..5),
        overlay in proptest::collection::vec((key(), value()), 0..3),
        ops in proptest::collection::vec((0usize..5, any::<usize>()), 1..8),
    ) {
        let original: Map = pairs.into_iter().collect();
        // Rebuilt from text, so it shares no cell with `original`.
        let reference = yamlite::parse_str(&yamlite::to_string(&Value::Map(original.clone())))
            .unwrap();
        let mut copy = original.clone();
        for (op, pick) in ops {
            let keys: Vec<String> = copy.keys().map(str::to_string).collect();
            let Some(k) = keys.get(pick % keys.len().max(1)) else { break };
            let before = copy.get(k).cloned();
            match op {
                0 => scribble(copy.get_mut(k).unwrap()),
                1 => copy.iter_mut().for_each(|(_, v)| scribble(v)),
                2 => prop_assert_eq!(copy.insert(k.clone(), "replaced"), before),
                3 => prop_assert_eq!(copy.remove(k), before),
                _ => {
                    // Merge into the picked key as well as the generated ones.
                    let mut over: Map = overlay.iter().cloned().collect();
                    let mut inner = Map::new();
                    inner.insert("merged", true);
                    over.insert(k.clone(), Value::Map(inner));
                    let mut merged = Value::Map(copy);
                    merged.merge_from(&Value::Map(over));
                    copy = match merged {
                        Value::Map(m) => m,
                        _ => unreachable!("merging maps yields a map"),
                    };
                }
            }
        }
        prop_assert_eq!(Value::Map(original), reference);
    }
}
