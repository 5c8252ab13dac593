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
//! through a temp name unique to the attempt (pid plus a process-wide
//! counter, so neither another process nor another thread of this one
//! writes it) plus `rename`, which on POSIX atomically replaces an
//! identical object if both writers race.

use crate::digest::Digest;
use crate::index::{self, PathIndex};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How an object landed in the store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ingest {
    /// Digest was served from the digest index; no bytes were even read.
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
pub(crate) type IngestResult = std::io::Result<(Digest, PathBuf, Ingest)>;

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
    /// The digest index this store consults and feeds: the process-global
    /// one, except in tests that count entries.
    index: &'static PathIndex,
}

impl ContentStore {
    /// Open (creating if needed) a store at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Arc<ContentStore>> {
        Self::open_with_index(root, index::global())
    }

    pub(crate) fn open_with_index(
        root: impl Into<PathBuf>,
        index: &'static PathIndex,
    ) -> std::io::Result<Arc<ContentStore>> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        Ok(Arc::new(ContentStore {
            root,
            objects: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            ingested_bytes: AtomicU64::new(0),
            index,
        }))
    }

    /// The digest index behind this store.
    pub(crate) fn index(&self) -> &'static PathIndex {
        self.index
    }

    /// Where an object with this digest lives (whether or not present).
    pub(crate) fn object_path(&self, d: &Digest) -> PathBuf {
        let shard = (d.hash >> 56) as u8;
        self.root
            .join("objects")
            .join(format!("{shard:02x}"))
            .join(format!("{:016x}-{}", d.hash, d.len))
    }

    /// The materialized object for a digest, if this process ingested it.
    pub(crate) fn lookup(&self, d: &Digest) -> Option<PathBuf> {
        let stripe = &self.objects[(d.hash as usize) & (index::STRIPES - 1)];
        stripe.lock().get(d).cloned()
    }

    /// Ingest a file: digest it (once per file identity and `(len, mtime)`
    /// — repeat ingests, and ingests of another name for the same file, are
    /// index hits) and materialize it in the store. Returns the digest, the
    /// object path, and how the work was (not) done. The source costs one
    /// `lstat`; only a symlink is resolved further.
    pub fn ingest(&self, src: &Path) -> IngestResult {
        let meta = std::fs::symlink_metadata(src)?;
        // `hard_link` would link the symlink itself, so the store gets what
        // it names.
        let (src, meta) = if meta.file_type().is_symlink() {
            let target = src.canonicalize()?; // realpath-ok: a symlinked source is linked by its target
            let meta = std::fs::metadata(&target)?;
            (Cow::Owned(target), meta)
        } else {
            (Cow::Borrowed(src), meta)
        };
        if let Some(d) = self.index.lookup(&meta) {
            if let Some(obj) = self.lookup(&d) {
                return Ok((d, obj, Ingest::Cached));
            }
            // Known digest, but the object is not in *this* store yet
            // (e.g. a fresh per-run store): fall through to materialize.
            let (obj, how) = self.materialize(&src, &d)?;
            return Ok((d, obj, how));
        }
        let d = Digest::of_file(&src)?;
        self.ingested_bytes.fetch_add(d.len, Ordering::Relaxed);
        self.index.record(&meta, d);
        let (obj, how) = self.materialize(&src, &d)?;
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

    /// Put the object for `d` in the store, linking `src` first: an object
    /// already on disk (another name for the same content, another run
    /// sharing the store) answers `AlreadyExists`, so nothing is checked
    /// before the attempt.
    fn materialize(&self, src: &Path, d: &Digest) -> std::io::Result<(PathBuf, Ingest)> {
        let stripe = &self.objects[(d.hash as usize) & (index::STRIPES - 1)];
        if let Some(obj) = stripe.lock().get(d) {
            return Ok((obj.clone(), Ingest::Deduped));
        }
        let obj = self.object_path(d);
        let how = match in_shard(&obj, || std::fs::hard_link(src, &obj)) {
            Ok(()) => Ingest::Linked,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ingest::Deduped,
            Err(_) => {
                // Cross-device (or a filesystem without hardlinks): copy
                // through a temp name no other attempt uses, seal, and
                // rename into place. The copy is a new inode, so it gets
                // its own index entry for what is later linked from it.
                static ATTEMPT: AtomicU64 = AtomicU64::new(0);
                let n = ATTEMPT.fetch_add(1, Ordering::Relaxed);
                let tmp = obj.with_extension(format!("tmp.{}.{n}", std::process::id()));
                let copied = in_shard(&obj, || std::fs::copy(src, &tmp))
                    .and_then(|_| seal(&tmp))
                    .and_then(|()| std::fs::rename(&tmp, &obj));
                if let Err(e) = copied {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(e);
                }
                if let Ok(meta) = std::fs::metadata(&obj) {
                    self.index.record(&meta, *d);
                }
                Ingest::Copied
            }
        };
        stripe.lock().insert(*d, obj.clone());
        Ok((obj, how))
    }
}

/// Run `op` on a path inside `obj`'s shard, creating the shard directory
/// and trying once more only when the first attempt finds it missing.
fn in_shard<T>(obj: &Path, op: impl Fn() -> std::io::Result<T>) -> std::io::Result<T> {
    match op() {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::create_dir_all(obj.parent().expect("an object path has a shard"))?;
            op()
        }
        done => done,
    }
}

/// Seal a store-private file read-only. No-op off Unix.
pub(crate) fn seal(path: &Path) -> std::io::Result<()> {
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

#[cfg(test)]
mod tests {
    use super::*;

    impl ContentStore {
        /// Store root directory.
        fn root(&self) -> &Path {
            &self.root
        }

        /// Total bytes hashed into the store by this process (cache misses
        /// only — a scatter of 1000 identical inputs counts its bytes once).
        pub(crate) fn ingested_bytes(&self) -> u64 {
            self.ingested_bytes.load(Ordering::Relaxed)
        }
    }

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
        assert_eq!(object_files(&store).len(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every object file under the store, temp files included.
    fn object_files(store: &ContentStore) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for shard in std::fs::read_dir(store.root().join("objects")).unwrap() {
            for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                files.push(f.unwrap().path());
            }
        }
        files
    }

    #[cfg(unix)]
    #[test]
    fn a_symlinked_source_is_stored_as_its_target() {
        let dir = scratch("symlink");
        let target = dir.join("target.txt");
        let link = dir.join("link.txt");
        std::fs::write(&target, b"behind a link").unwrap();
        std::os::unix::fs::symlink(&target, &link).unwrap();
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let (d, obj, how) = store.ingest(&link).unwrap();
        assert_eq!(how, Ingest::Linked);
        assert!(std::fs::symlink_metadata(&obj).unwrap().is_file());
        assert_eq!(std::fs::read(&obj).unwrap(), b"behind a link");
        assert_eq!(d, Digest::of_bytes(b"behind a link"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Threads ingesting one file from another device each copy it through
    /// a temp name of their own, so none truncates or renames away the
    /// copy of another. Skipped where `/dev/shm` and the temp dir share a
    /// device (nothing would be copied).
    #[cfg(unix)]
    #[test]
    fn concurrent_cross_device_ingests_all_succeed() {
        use std::os::unix::fs::MetadataExt;
        const THREADS: usize = 4;
        let shm = Path::new("/dev/shm");
        let dir = scratch("xdev");
        let device = |p: &Path| std::fs::metadata(p).map(|m| m.dev()).ok();
        if device(shm).is_none() || device(shm) == device(&dir) {
            eprintln!("skipped: /dev/shm is missing or on the temp dir's device");
            std::fs::remove_dir_all(&dir).ok();
            return;
        }
        let src = shm.join(format!("ds-cas-xdev-{}", std::process::id()));
        let bytes: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
        std::fs::write(&src, &bytes).unwrap();
        for trial in 0..20 {
            let store = ContentStore::open(dir.join(format!("cas{trial}"))).unwrap();
            let start = std::sync::Barrier::new(THREADS);
            let results: Vec<IngestResult> = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            store.ingest(&src)
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });
            for r in &results {
                let (d, _, how) = r.as_ref().expect("every concurrent ingest succeeds");
                assert_eq!(d.len, bytes.len() as u64);
                assert_ne!(*how, Ingest::Linked, "{how:?}");
            }
            let objects = object_files(&store);
            assert_eq!(objects.len(), 1, "{objects:?}");
            assert_eq!(std::fs::read(&objects[0]).unwrap(), bytes);
        }
        std::fs::remove_file(&src).ok();
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
