//! Trust rules for loaded journal records.
//!
//! A journal record is a *claim* that a task completed with a given result.
//! Before seeding the memo table from it, the resume path must check the
//! claim still holds:
//!
//! - the journal's `run_hash` matches the workflow + inputs being resumed
//!   (checked by the caller against [`crate::Header::run_hash`]);
//! - every `class: File` object in the result still exists on disk — a
//!   deleted or moved output means the task must re-run, not replay.

use crate::Record;
use std::fs::Metadata;
use std::path::{Path, PathBuf};
use yamlite::Value;

/// Parse a record's serialized result back into a value. Fails only on a
/// journal written by a buggy or incompatible serializer; callers treat a
/// failure as "invalidate this record".
pub fn parse_result(serialized: &str) -> Result<Value, String> {
    yamlite::parse_str(serialized).map_err(|e| format!("ckpt: unparseable journaled result: {e}"))
}

/// A journal record whose result has been parsed — the form a record takes
/// once the resume path has looked inside it, so the value it checked is
/// the value the memo table is seeded with and nothing parses it twice.
#[derive(Clone, Debug, PartialEq)]
pub struct Seed {
    /// Task label — the memo key's first half.
    pub label: String,
    /// Input fingerprint — the memo key's second half.
    pub fingerprint: u64,
    /// The task's result, parsed from [`Record::result`].
    pub value: Value,
}

impl Seed {
    /// Parse `record`'s result; `Err` when it does not parse.
    pub fn parse(record: &Record) -> Result<Seed, String> {
        Ok(Seed {
            label: record.label.clone(),
            fingerprint: record.fingerprint,
            value: parse_result(&record.result)?,
        })
    }
}

/// What a memo table needs from a journal record to be seeded from it.
/// Implemented by the raw [`Record`] (parses on demand) and by [`Seed`]
/// (already parsed), so a kernel seeds from either.
pub trait SeedSource {
    /// The memo key: task label and input fingerprint.
    fn memo_key(&self) -> (&str, u64);
    /// The recorded result; `Err` when it does not parse.
    fn value(&self) -> Result<Value, String>;
}

impl SeedSource for Record {
    fn memo_key(&self) -> (&str, u64) {
        (&self.label, self.fingerprint)
    }

    fn value(&self) -> Result<Value, String> {
        parse_result(&self.result)
    }
}

impl SeedSource for Seed {
    fn memo_key(&self) -> (&str, u64) {
        (&self.label, self.fingerprint)
    }

    fn value(&self) -> Result<Value, String> {
        Ok(self.value.clone())
    }
}

/// Walk a result value and collect the `path` of every `class: File`
/// object that no longer exists on disk (an empty return means the record
/// is replayable as far as file outputs are concerned). A `class: File`
/// that *does* exist is additionally checked against `verify(path, metadata,
/// expected_checksum)` when the record carries a `checksum` — so an output
/// truncated or modified in place invalidates the record instead of
/// replaying as a stale memo hit. `verify` returns whether the on-disk
/// content still matches; it is handed the one `metadata()` this walk
/// took of the file (which already answered "exists" and "size"), so it
/// need not stat again.
pub fn stale_file_outputs(
    value: &Value,
    verify: &mut dyn FnMut(&Path, &Metadata, &str) -> bool,
) -> Vec<PathBuf> {
    let mut stale = Vec::new();
    walk(value, verify, &mut stale);
    stale
}

fn walk(
    value: &Value,
    verify: &mut dyn FnMut(&Path, &Metadata, &str) -> bool,
    stale: &mut Vec<PathBuf>,
) {
    match value {
        Value::Map(map) => {
            let is_file = map.get("class").and_then(Value::as_str) == Some("File");
            if is_file {
                if let Some(path) = map.get("path").and_then(Value::as_str) {
                    let p = Path::new(path);
                    // One stat answers existence, size and (for `verify`)
                    // mtime.
                    let fresh = match std::fs::metadata(p) {
                        Err(_) => false,
                        Ok(meta) => match map.get("checksum").and_then(Value::as_str) {
                            None => true,
                            Some(sum) => {
                                // Cheap pre-check: a recorded size mismatch
                                // is already disqualifying without hashing.
                                let size_ok = map
                                    .get("size")
                                    .and_then(Value::as_int)
                                    .is_none_or(|len| meta.len() == len as u64);
                                size_ok && verify(p, &meta, sum)
                            }
                        },
                    };
                    if !fresh {
                        stale.push(PathBuf::from(path));
                    }
                }
            }
            for (_, v) in map.iter() {
                walk(v, verify, stale);
            }
        }
        Value::Seq(items) => {
            for v in items {
                walk(v, verify, stale);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The existence half of [`stale_file_outputs`]: no checksum to verify.
    fn missing_file_outputs(value: &Value) -> Vec<PathBuf> {
        stale_file_outputs(value, &mut |_, _, _| true)
    }

    #[test]
    fn detects_missing_file_paths() {
        let dir = std::env::temp_dir().join(format!("ckpt-inv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let present = dir.join("present.txt");
        std::fs::write(&present, "x").unwrap();
        let gone = dir.join("gone.txt");
        let _ = std::fs::remove_file(&gone);

        let yaml = format!(
            "{{out: {{class: File, path: {}, basename: present.txt}}, extra: [{{class: File, path: {}}}]}}",
            present.display(),
            gone.display()
        );
        let value = parse_result(&yaml).unwrap();
        let missing = missing_file_outputs(&value);
        assert_eq!(missing, vec![gone]);
    }

    #[test]
    fn non_file_values_are_replayable() {
        let value = parse_result("{count: 3, name: hello, nested: {class: Directory}}").unwrap();
        assert!(missing_file_outputs(&value).is_empty());
    }

    #[test]
    fn garbage_results_fail_parse() {
        assert!(parse_result("{unclosed: [").is_err());
    }

    #[test]
    fn checksum_mismatch_marks_record_stale() {
        let dir = std::env::temp_dir().join(format!("ckpt-sum-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("out.txt");
        std::fs::write(&out, b"payload").unwrap();
        let yaml = format!(
            "{{out: {{class: File, path: {}, size: 7, checksum: 'xxh64:0000000000000001'}}}}",
            out.display()
        );
        let value = parse_result(&yaml).unwrap();

        // Digest verifier agrees: replayable.
        assert!(stale_file_outputs(&value, &mut |_, _, _| true).is_empty());
        // Digest verifier disagrees: the existing file is stale.
        assert_eq!(
            stale_file_outputs(&value, &mut |_, _, _| false),
            vec![out.clone()]
        );

        // A truncated output fails the recorded-size pre-check before any
        // verifier runs.
        std::fs::write(&out, b"pay").unwrap();
        let mut called = false;
        let stale = stale_file_outputs(&value, &mut |_, _, _| {
            called = true;
            true
        });
        assert_eq!(stale, vec![out.clone()]);
        assert!(!called);
        std::fs::remove_dir_all(&dir).ok();
    }
}
