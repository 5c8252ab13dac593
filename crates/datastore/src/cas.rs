//! The content-addressed object store.
//!
//! Layout on disk (`root` is per-run by default, shareable via config):
//!
//! ```text
//! <root>/objects/<2-hex shard>/<16-hex xxh64>-<len>
//! ```
//!
//! Objects are immutable once present. Ingestion prefers a **hardlink**
//! from the source (zero bytes moved); when the source sits on another
//! filesystem the bytes are copied to a unique temp name and atomically
//! renamed in. Copy-created objects are **sealed** read-only (0444) —
//! they are store-private inodes, so sealing cannot affect anything else.
//! A hardlink-ingested object shares the source's inode, whose
//! permissions belong to the caller; sealing it would chmod user inputs
//! and freshly collected outputs in place, so those keep their mode (the
//! store never opens an object for writing either way).
//!
//! Two runs may share one store directory: `hard_link` returning
//! `AlreadyExists` is dedupe, not an error, and the copy path goes
//! through a per-process temp name plus `rename`, which on POSIX
//! atomically replaces an identical object if both writers race.

use crate::digest::Digest;
use crate::index::{self, PathIndex};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How an object landed in the store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ingest {
    /// Digest was served from the path index; no bytes were even read.
    Cached,
    /// Object already present under this digest (another path, or another
    /// run sharing the store).
    Deduped,
    /// Hardlinked from the source: zero bytes moved.
    Linked,
    /// Byte copy (cross-device source, or hardlinks unsupported).
    Copied,
}

/// What one ingest produced: digest, object path, and how it got there.
pub type IngestResult = std::io::Result<(Digest, PathBuf, Ingest)>;

/// Map `f` over `items` on a bounded pool of scoped threads, each claiming
/// the next unclaimed item, so uneven per-item cost (one file to hash, the
/// next an index hit) balances itself. Result order matches input order.
/// With one worker (or one item) it runs on the calling thread.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicU64::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= items.len() {
                    break;
                }
                *results[i].lock() = Some(f(&items[i]));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

/// A content-addressed store rooted at one directory.
pub struct ContentStore {
    root: PathBuf,
    /// digest -> materialized object path, sharded to keep scatter-wide
    /// ingest contention off a single lock.
    objects: [Mutex<HashMap<Digest, PathBuf>>; index::STRIPES],
    ingested_bytes: AtomicU64,
}

impl ContentStore {
    /// Open (creating if needed) a store at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Arc<ContentStore>> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        Ok(Arc::new(ContentStore {
            root,
            objects: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            ingested_bytes: AtomicU64::new(0),
        }))
    }

    /// Store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Total bytes hashed into the store by this process (cache misses
    /// only — a scatter of 1000 identical inputs counts its bytes once).
    pub fn ingested_bytes(&self) -> u64 {
        self.ingested_bytes.load(Ordering::Relaxed)
    }

    /// Where an object with this digest lives (whether or not present).
    pub fn object_path(&self, d: &Digest) -> PathBuf {
        let shard = (d.hash >> 56) as u8;
        self.root
            .join("objects")
            .join(format!("{shard:02x}"))
            .join(format!("{:016x}-{}", d.hash, d.len))
    }

    /// The materialized object for a digest, if this process ingested it.
    pub fn lookup(&self, d: &Digest) -> Option<PathBuf> {
        let stripe = &self.objects[(d.hash as usize) & (index::STRIPES - 1)];
        stripe.lock().get(d).cloned()
    }

    /// Ingest a file: digest it (once per (path, len, mtime) — repeat
    /// ingests are index hits) and materialize it in the store. Returns
    /// the digest, the object path, and how the work was (not) done.
    pub fn ingest(&self, src: &Path) -> std::io::Result<(Digest, PathBuf, Ingest)> {
        let canonical = src.canonicalize()?;
        let meta = std::fs::metadata(&canonical)?;
        if let Some(d) = index::global().lookup(&canonical, &meta) {
            if let Some(obj) = self.lookup(&d) {
                return Ok((d, obj, Ingest::Cached));
            }
            // Known digest, but the object is not in *this* store yet
            // (e.g. a fresh per-run store): fall through to materialize.
            let (obj, how) = self.materialize(&canonical, &d)?;
            return Ok((d, obj, how));
        }
        let d = Digest::of_file(&canonical)?;
        self.ingested_bytes.fetch_add(d.len, Ordering::Relaxed);
        index::global().record(&canonical, &meta, d);
        let (obj, how) = self.materialize(&canonical, &d)?;
        Ok((d, obj, how))
    }

    /// Digest many files on a bounded worker pool (root-input prestage).
    /// Result order matches input order; per-file errors are per-slot.
    pub fn ingest_parallel(
        self: &Arc<Self>,
        paths: &[PathBuf],
        workers: usize,
    ) -> Vec<IngestResult> {
        par_map(paths, workers, |p| self.ingest(p))
    }

    fn materialize(&self, src: &Path, d: &Digest) -> std::io::Result<(PathBuf, Ingest)> {
        let obj = self.object_path(d);
        {
            let stripe = &self.objects[(d.hash as usize) & (index::STRIPES - 1)];
            let mut map = stripe.lock();
            if map.contains_key(d) {
                return Ok((obj, Ingest::Deduped));
            }
            if obj.exists() {
                map.insert(*d, obj.clone());
                return Ok((obj, Ingest::Deduped));
            }
        }
        if let Some(parent) = obj.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let how = match std::fs::hard_link(src, &obj) {
            Ok(()) => Ingest::Linked,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ingest::Deduped,
            Err(_) => {
                // Cross-device (or a filesystem without hardlinks): copy
                // through a unique temp name, seal, and rename into place.
                let tmp = obj.with_extension(format!("tmp.{}", std::process::id()));
                std::fs::copy(src, &tmp)?;
                seal(&tmp)?;
                std::fs::rename(&tmp, &obj)?;
                Ingest::Copied
            }
        };
        let stripe = &self.objects[(d.hash as usize) & (index::STRIPES - 1)];
        stripe.lock().insert(*d, obj.clone());
        Ok((obj, how))
    }
}

/// Seal a store-private file read-only. No-op off Unix.
pub fn seal(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        let mut perms = std::fs::metadata(path)?.permissions();
        perms.set_mode(0o444);
        std::fs::set_permissions(path, perms)?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Convenience: the process-global path index (digests by canonical path).
pub fn path_index() -> &'static PathIndex {
    index::global()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ds-cas-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ingest_links_then_caches() {
        let dir = scratch("basic");
        let src = dir.join("input.txt");
        std::fs::write(&src, b"forty-two").unwrap();
        let store = ContentStore::open(dir.join("cas")).unwrap();

        let (d1, obj, how) = store.ingest(&src).unwrap();
        assert_eq!(how, Ingest::Linked);
        assert!(obj.exists());
        assert_eq!(d1, Digest::of_bytes(b"forty-two"));

        let (d2, _, how2) = store.ingest(&src).unwrap();
        assert_eq!(d2, d1);
        assert_eq!(how2, Ingest::Cached);
        // Bytes were hashed exactly once.
        assert_eq!(store.ingested_bytes(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_content_dedupes_across_paths() {
        let dir = scratch("dedupe");
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");
        std::fs::write(&a, b"same bytes").unwrap();
        std::fs::write(&b, b"same bytes").unwrap();
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let (da, obj_a, _) = store.ingest(&a).unwrap();
        let (db, obj_b, how_b) = store.ingest(&b).unwrap();
        assert_eq!(da, db);
        assert_eq!(obj_a, obj_b);
        assert_eq!(how_b, Ingest::Deduped);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn modified_file_gets_new_digest() {
        let dir = scratch("modify");
        let src = dir.join("mut.txt");
        std::fs::write(&src, b"v1").unwrap();
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let (d1, _, _) = store.ingest(&src).unwrap();
        // Force a different mtime second (coarse-timestamp filesystems).
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&src, b"v2 longer").unwrap();
        let (d2, _, _) = store.ingest(&src).unwrap();
        assert_ne!(d1, d2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_ingest_hashes_each_file_once() {
        let dir = scratch("par");
        let paths: Vec<PathBuf> = (0..32)
            .map(|i| {
                let p = dir.join(format!("f{i}.bin"));
                std::fs::write(&p, vec![(i % 7) as u8; 100]).unwrap();
                p
            })
            .collect();
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let results = store.ingest_parallel(&paths, 8);
        assert_eq!(results.len(), 32);
        for r in &results {
            assert!(r.is_ok());
        }
        // 7 distinct contents -> 7 objects on disk.
        let mut objects = 0;
        for shard in std::fs::read_dir(store.root().join("objects")).unwrap() {
            objects += std::fs::read_dir(shard.unwrap().path()).unwrap().count();
        }
        assert_eq!(objects, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_stores_share_one_directory() {
        let dir = scratch("shared");
        let src = dir.join("shared.txt");
        std::fs::write(&src, b"cohabitation").unwrap();
        let a = ContentStore::open(dir.join("cas")).unwrap();
        let b = ContentStore::open(dir.join("cas")).unwrap();
        let (da, obj_a, _) = a.ingest(&src).unwrap();
        let (db, obj_b, how_b) = b.ingest(&src).unwrap();
        assert_eq!(da, db);
        assert_eq!(obj_a, obj_b);
        // Store b sees the object a materialized (index hit gives Cached
        // or Deduped depending on interleaving; never a second Linked).
        assert_ne!(how_b, Ingest::Linked);
        std::fs::remove_dir_all(&dir).ok();
    }
}
