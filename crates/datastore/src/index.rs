//! A small sharded in-memory index from file identity to content digest.
//!
//! An entry is keyed by the file's `(st_dev, st_ino)` and validated by its
//! `(len, mtime)`, so an edited file never serves a stale digest and every
//! name a file is reached by — its path, a hardlink, a symlink, a path
//! through a symlinked directory — shares one entry, found by the one
//! `stat` the caller already made. One process-global instance backs every
//! store: the same input scattered to 1000 tasks is hashed once, and
//! `parsl::File` can answer `checksum()`/`size()` without touching the data
//! plane crates.
//!
//! Inode numbers are reused once a file is freed, but every file the data
//! plane digests and links into a store keeps its inode alive through that
//! link; only a file whose object was *copied* in (another device) can lose
//! its inode to a newcomer, and that newcomer still has to match the
//! entry's length and nanosecond mtime to be believed — the same trust the
//! index extends to a file rewritten in place.

use crate::digest::Digest;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::Metadata;
use std::sync::OnceLock;

/// Stripe count; a power of two so stripe selection is a mask.
pub(crate) const STRIPES: usize = 16;

/// `(st_dev, st_ino)`: which file, whatever it is called.
type Identity = (u64, u64);

#[derive(Clone, Copy)]
struct Entry {
    len: u64,
    mtime_ns: i128,
    digest: Digest,
}

/// Sharded `(dev, ino) -> (len, mtime, digest)` cache.
pub struct PathIndex {
    stripes: [Mutex<HashMap<Identity, Entry>>; STRIPES],
}

impl Default for PathIndex {
    fn default() -> Self {
        Self::new()
    }
}

fn mtime_ns(meta: &Metadata) -> i128 {
    meta.modified()
        .ok()
        .and_then(|t| {
            t.duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as i128)
                .ok()
        })
        .unwrap_or(-1)
}

/// The identity of the file `meta` describes.
#[cfg(unix)]
pub(crate) fn identity(meta: &Metadata) -> Option<Identity> {
    use std::os::unix::fs::MetadataExt;
    Some((meta.dev(), meta.ino()))
}

/// Without a stable file identity nothing is cached (every lookup misses).
#[cfg(not(unix))]
pub(crate) fn identity(_meta: &Metadata) -> Option<Identity> {
    None
}

fn stripe_of((dev, ino): Identity) -> usize {
    (dev ^ ino) as usize & (STRIPES - 1)
}

impl PathIndex {
    pub(crate) fn new() -> Self {
        PathIndex {
            stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    /// Digest of the file `meta` describes, if cached and still valid
    /// against `meta`.
    pub fn lookup(&self, meta: &Metadata) -> Option<Digest> {
        let id = identity(meta)?;
        let stripe = self.stripes[stripe_of(id)].lock();
        let e = stripe.get(&id)?;
        (e.len == meta.len() && e.mtime_ns == mtime_ns(meta)).then_some(e.digest)
    }

    /// Record a freshly computed digest for the file `meta` describes.
    pub fn record(&self, meta: &Metadata, digest: Digest) {
        let Some(id) = identity(meta) else { return };
        let entry = Entry {
            len: meta.len(),
            mtime_ns: mtime_ns(meta),
            digest,
        };
        self.stripes[stripe_of(id)].lock().insert(id, entry);
    }

    /// Number of files with an entry.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }
}

/// The process-global index.
pub fn global() -> &'static PathIndex {
    static GLOBAL: OnceLock<PathIndex> = OnceLock::new();
    GLOBAL.get_or_init(PathIndex::new)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ds-index-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_file_its_hardlink_and_its_symlink_share_one_entry() {
        let dir = scratch("names");
        let file = dir.join("f.txt");
        let hard = dir.join("hard.txt");
        let soft = dir.join("soft.txt");
        std::fs::write(&file, b"one").unwrap();
        std::fs::hard_link(&file, &hard).unwrap();
        std::os::unix::fs::symlink(&file, &soft).unwrap();

        let idx = PathIndex::new();
        let d = Digest::of_bytes(b"one");
        idx.record(&std::fs::metadata(&file).unwrap(), d);
        for name in [&file, &hard, &soft] {
            let meta = std::fs::metadata(name).unwrap();
            assert_eq!(idx.lookup(&meta), Some(d), "{}", name.display());
            idx.record(&meta, d);
        }
        assert_eq!(idx.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An edit in place that changes the length misses.
    #[test]
    fn stale_metadata_misses() {
        let dir = scratch("edit");
        let p = dir.join("f.txt");
        std::fs::write(&p, b"one").unwrap();
        let idx = PathIndex::new();
        let d = Digest::of_bytes(b"one");
        idx.record(&std::fs::metadata(&p).unwrap(), d);
        assert_eq!(idx.lookup(&std::fs::metadata(&p).unwrap()), Some(d));

        std::fs::write(&p, b"grew bigger").unwrap();
        assert_eq!(idx.lookup(&std::fs::metadata(&p).unwrap()), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A new file renamed over the old name is another file, even with the
    /// same length and mtime (a path-keyed index could not tell them apart).
    #[test]
    fn a_rename_replace_misses() {
        let dir = scratch("rename");
        let p = dir.join("f.txt");
        let next = dir.join("f.txt.new");
        std::fs::write(&p, b"one").unwrap();
        std::fs::write(&next, b"two").unwrap();
        let old_meta = std::fs::metadata(&p).unwrap();
        std::fs::File::options()
            .write(true)
            .open(&next)
            .unwrap()
            .set_modified(old_meta.modified().unwrap())
            .unwrap();
        let idx = PathIndex::new();
        idx.record(&old_meta, Digest::of_bytes(b"one"));

        std::fs::rename(&next, &p).unwrap();
        let meta = std::fs::metadata(&p).unwrap();
        assert_eq!((meta.len(), mtime_ns(&meta)), (3, mtime_ns(&old_meta)));
        assert_eq!(idx.lookup(&meta), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
