//! Crash-resume orchestration for `parsl-cwl` runs: binding a checkpoint
//! journal to a run, and deciding which journal records a resumed run may
//! trust.
//!
//! A journal is only as good as its validation. Three rules, applied in
//! order on resume:
//!
//! 1. **Stale workflow or inputs.** The journal header's `run_hash` covers
//!    every CWL file of the run's document set — the files that run — plus
//!    the root input object.
//!    On mismatch, the whole journal is set aside (renamed to
//!    `journal.ckpt.stale`) and the run starts a fresh one — replaying
//!    results computed by a *different* workflow would be silent
//!    corruption.
//! 2. **Torn tail.** Handled by `ckpt` itself: the damaged suffix is
//!    truncated before any append.
//! 3. **Deleted outputs.** A record whose result names a `class: File`
//!    path that no longer exists is dropped (the task re-runs); records are
//!    also deduplicated last-wins so a re-run's fresh record supersedes the
//!    invalidated one on the next resume.
//!
//! The pass is single: the file is read and checksummed once, each
//! surviving record's result is parsed once (the parsed value is what the
//! kernel is seeded with), and each `class: File` costs one `metadata()`.

use crate::config::CheckpointSettings;
use crate::run::RunSpec;
use ckpt::{Header, Journal, Record, Seed};
use parsl::DataFlowKernel;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::Metadata;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use yamlite::Map;

/// Journal file name inside the checkpoint directory.
pub const JOURNAL_FILE: &str = "journal.ckpt";

/// Hash the run identity: every CWL file the workflow references
/// (recursively through `run:`), chained with the root input object — see
/// [`RunSpec::hash`].
pub fn run_hash(cwl_path: &Path, inputs: &Map) -> Result<u64, String> {
    RunSpec::load(cwl_path, inputs.clone()).hash()
}

/// A journal bound to the current run, plus what a resume recovered.
pub struct PreparedCkpt {
    /// The open journal the kernel will append to.
    pub journal: Arc<Journal>,
    /// Validated records, results already parsed, to seed the memo table
    /// with.
    pub seed: Vec<Seed>,
    /// Records rejected during validation (stale hash, superseded
    /// duplicates, unparseable results, missing or changed output files).
    pub invalidated: usize,
    /// Whether a torn tail was truncated on load.
    pub torn: bool,
    /// Whether the whole journal was set aside as stale.
    pub stale: bool,
}

impl PreparedCkpt {
    /// Seed the kernel's memo table with the replayable records — into the
    /// journal of service run `run`, or the kernel's own when `None` — and
    /// count every record rejected on the way (here or by the kernel) into
    /// `ckpt.invalidated`. Returns that count.
    pub fn seed_into(&self, dfk: &DataFlowKernel, run: Option<u64>) -> usize {
        let (_seeded, unparseable) = dfk.seed_journal(run, &self.seed);
        let invalidated = self.invalidated + unparseable;
        if invalidated > 0 {
            dfk.observability()
                .counter(obs::names::CKPT_INVALIDATED)
                .add(invalidated as u64);
        }
        invalidated
    }
}

/// Resolve where the journal lives for this run.
pub(crate) fn journal_path(settings: &CheckpointSettings, workdir: &Path) -> PathBuf {
    settings
        .dir
        .clone()
        .unwrap_or_else(|| workdir.join("ckpt"))
        .join(JOURNAL_FILE)
}

/// Locate the journal under a `--resume` argument: the run directory
/// itself, its `ckpt/` subdirectory, or a direct path to the journal file.
fn resolve_resume_journal(resume: &Path) -> Result<PathBuf, String> {
    if resume.is_file() {
        return Ok(resume.to_path_buf());
    }
    for candidate in [
        resume.join(JOURNAL_FILE),
        resume.join("ckpt").join(JOURNAL_FILE),
    ] {
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(format!(
        "--resume: no {JOURNAL_FILE} found under {}",
        resume.display()
    ))
}

/// Bind a journal to this run. `None` when checkpointing is off (an
/// explicit `--resume` with checkpointing off is an error, not a silent
/// full re-run). A fresh run refuses to clobber an existing journal; a
/// resume validates and truncates per the module rules.
pub fn prepare(
    settings: &CheckpointSettings,
    workdir: &Path,
    resume: Option<&Path>,
    hash: u64,
    label: &str,
) -> Result<Option<PreparedCkpt>, String> {
    prepare_with_pool(settings, workdir, resume, hash, label, 1)
}

/// [`prepare`], validating a resumed journal's records on `pool` threads.
/// In a fresh process the digest index is cold, so every replayed output is
/// re-read and re-hashed before the kernel may start; the CLI hands that to
/// the pool it already has configured for parallel file work
/// (`staging.pool`). The outcome is the same for every `pool`.
pub fn prepare_with_pool(
    settings: &CheckpointSettings,
    workdir: &Path,
    resume: Option<&Path>,
    hash: u64,
    label: &str,
    pool: usize,
) -> Result<Option<PreparedCkpt>, String> {
    let Some(sync) = settings.sync_mode() else {
        if resume.is_some() {
            return Err(
                "--resume requires checkpointing: add a `checkpoint:` block to the config"
                    .to_string(),
            );
        }
        return Ok(None);
    };
    let header = Header {
        version: 1,
        run_hash: hash,
        label: label.to_string(),
    };

    let Some(resume) = resume else {
        let path = journal_path(settings, workdir);
        if path.exists() {
            return Err(format!(
                "a checkpoint journal already exists at {}; resume it with --resume {} or remove it",
                path.display(),
                path.parent().unwrap_or(Path::new(".")).display()
            ));
        }
        let journal = Journal::create(&path, &header, sync)?;
        return Ok(Some(PreparedCkpt {
            journal: Arc::new(journal),
            seed: Vec::new(),
            invalidated: 0,
            torn: false,
            stale: false,
        }));
    };

    let path = resolve_resume_journal(resume)?;
    let loaded = ckpt::load(&path)?;
    if loaded.header.run_hash != hash {
        // Different workflow or inputs: nothing in this journal can be
        // trusted. Set it aside (kept for post-mortems) and start fresh.
        let stale_path = path.with_extension("ckpt.stale");
        std::fs::rename(&path, &stale_path)
            .map_err(|e| format!("cannot set aside stale journal: {e}"))?;
        let journal = Journal::create(&path, &header, sync)?;
        return Ok(Some(PreparedCkpt {
            journal: Arc::new(journal),
            seed: Vec::new(),
            invalidated: loaded.records.len(),
            torn: loaded.torn,
            stale: true,
        }));
    }

    let journal = Journal::reopen(&path, &loaded, sync)?;
    let (seed, invalidated) = validate_records(&loaded.records, pool);
    Ok(Some(PreparedCkpt {
        journal: Arc::new(journal),
        seed,
        invalidated,
        torn: loaded.torn,
        stale: false,
    }))
}

/// Apply the record-level trust rules: deduplicate by memo key (last
/// record wins — a re-run after invalidation supersedes the stale entry)
/// and drop records whose result does not parse, whose `class: File`
/// outputs no longer exist, or whose on-disk content no longer matches the
/// recorded digest (a truncated or modified-in-place output re-runs instead
/// of replaying). Survivors keep the order their keys first appeared in.
///
/// Two phases. The first, on this thread, parses each record and checks its
/// Files against the digest index — a stat and a hash-map probe per File,
/// which is all a warm index (same process as the data plane) ever costs.
/// Files the index does not know (every File, in a fresh process) are only
/// collected; the second phase reads and hashes them on `pool` threads, and
/// spawns nothing when there are none.
fn validate_records(records: &[Record], pool: usize) -> (Vec<Seed>, usize) {
    let mut slot_of: HashMap<(&str, u64), usize> = HashMap::with_capacity(records.len());
    let mut latest: Vec<&Record> = Vec::with_capacity(records.len());
    for rec in records {
        match slot_of.entry((rec.label.as_str(), rec.fingerprint)) {
            Entry::Occupied(slot) => latest[*slot.get()] = rec,
            Entry::Vacant(slot) => {
                slot.insert(latest.len());
                latest.push(rec);
            }
        }
    }

    let mut unhashed: Vec<Unhashed> = Vec::new();
    let mut seeds: Vec<Option<Seed>> = latest
        .iter()
        .enumerate()
        .map(|(record, rec)| {
            let seed = Seed::parse(rec).ok()?;
            let mut verify = |path: &Path, meta: &Metadata, expected: &str| {
                match indexed_verdict(meta, expected) {
                    Indexed::Verdict(matches) => matches,
                    Indexed::Unknown { want_hash } => {
                        // Provisionally fresh; phase two has the last word.
                        unhashed.push(Unhashed {
                            record,
                            path: path.to_path_buf(),
                            meta: meta.clone(),
                            want_hash,
                        });
                        true
                    }
                }
            };
            ckpt::invalidate::stale_file_outputs(&seed.value, &mut verify)
                .is_empty()
                .then_some(seed)
        })
        .collect();

    let matches = datastore::par_map(&unhashed, pool, Unhashed::hash_matches);
    for (file, matches) in unhashed.iter().zip(matches) {
        if !matches {
            seeds[file.record] = None;
        }
    }
    let seed: Vec<Seed> = seeds.into_iter().flatten().collect();
    let invalidated = records.len() - seed.len();
    (seed, invalidated)
}

/// A journaled File the digest index could not vouch for: it has to be
/// read and hashed before its record may replay.
struct Unhashed {
    /// Position of the owning record among the deduplicated records.
    record: usize,
    path: PathBuf,
    meta: Metadata,
    want_hash: u64,
}

/// What the process-global digest index can say, for the caller's one stat
/// and no read, about whether a file still matches its recorded checksum.
enum Indexed {
    /// It matches or it does not: a file the data plane already ingested —
    /// or a checksum format this build does not know, which replays (fail
    /// open: the format predates or postdates this build; existence was
    /// already checked).
    Verdict(bool),
    /// The index does not know the file.
    Unknown { want_hash: u64 },
}

fn indexed_verdict(meta: &Metadata, expected: &str) -> Indexed {
    let Some(want_hash) = expected
        .strip_prefix("xxh64:")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
    else {
        return Indexed::Verdict(true);
    };
    // The index is keyed by file identity, so the stat of the path as
    // recorded — through whatever symlinks it runs — finds the entry.
    match datastore::index::global().lookup(meta) {
        Some(d) => Indexed::Verdict(d.hash == want_hash),
        None => Indexed::Unknown { want_hash },
    }
}

impl Unhashed {
    /// Read and hash the file (unless another record's copy of the same
    /// File got there first) and remember the digest for the data plane.
    fn hash_matches(&self) -> bool {
        let index = datastore::index::global();
        let digest = match index.lookup(&self.meta) {
            Some(d) => d,
            None => match datastore::Digest::of_file(&self.path) {
                Ok(d) => {
                    index.record(&self.meta, d);
                    d
                }
                Err(_) => return false,
            },
        };
        digest.hash == self.want_hash
    }
}
