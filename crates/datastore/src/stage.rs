//! Zero-copy staging: materialize CAS objects into task workdirs.
//!
//! The materialization ladder, per file:
//!
//! 1. **hardlink** — same filesystem, zero bytes, one dirent;
//! 2. **reflink** — `FICLONE` clone for CoW filesystems (btrfs, XFS)
//!    when hardlinks are refused (e.g. sealing policy, quota);
//! 3. **copy** — the portable fallback, and the forced behavior of
//!    `StageMode::Copy` (the measured baseline).
//!
//! `StageMode::Auto` remembers which rung worked per destination device
//! (every link is made from this stager's store), so a 1000-way scatter
//! probes the filesystem once and links 999 more times without retrying
//! failed rungs.

use crate::cas::{ContentStore, Ingest};
use crate::digest::Digest;
use crate::index;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use yamlite::Value;

/// How staging materializes files in workdirs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StageMode {
    /// Always byte-copy (baseline; what cwltool-style staging does).
    Copy,
    /// Always attempt the hardlink -> reflink -> copy ladder.
    Link,
    /// The ladder, with the winning rung cached per filesystem pair.
    #[default]
    Auto,
}

impl StageMode {
    pub fn parse(s: &str) -> Option<StageMode> {
        match s {
            "copy" => Some(StageMode::Copy),
            "link" => Some(StageMode::Link),
            "auto" => Some(StageMode::Auto),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            StageMode::Copy => "copy",
            StageMode::Link => "link",
            StageMode::Auto => "auto",
        }
    }
}

/// Which rung of the ladder materialized a file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// Nothing to do: destination already held the right content (or the
    /// "destination" was the source itself).
    Hit,
    Hardlink,
    Reflink,
    Copy,
}

/// Counters for the observability layer. Snapshot via [`Stager::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Digest or destination served from the index — no bytes read.
    pub hits: u64,
    /// Files materialized by hardlink or reflink.
    pub links: u64,
    /// Files materialized by byte copy.
    pub copies: u64,
    /// Bytes a copying stager would have written that links avoided.
    pub bytes_saved: u64,
    /// Bytes actually copied.
    pub bytes_copied: u64,
}

/// A staging session bound to one store and one mode.
pub struct Stager {
    store: Arc<ContentStore>,
    mode: StageMode,
    /// Destination device -> first ladder rung worth attempting. The
    /// source side is always this stager's store.
    probed: Mutex<HashMap<u64, Method>>,
    hits: AtomicU64,
    links: AtomicU64,
    copies: AtomicU64,
    bytes_saved: AtomicU64,
    bytes_copied: AtomicU64,
}

impl Stager {
    pub fn new(store: Arc<ContentStore>, mode: StageMode) -> Arc<Stager> {
        Arc::new(Stager {
            store,
            mode,
            probed: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            links: AtomicU64::new(0),
            copies: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
            bytes_copied: AtomicU64::new(0),
        })
    }

    pub fn store(&self) -> &Arc<ContentStore> {
        &self.store
    }

    pub fn stats(&self) -> StageStats {
        StageStats {
            hits: self.hits.load(Ordering::Relaxed),
            links: self.links.load(Ordering::Relaxed),
            copies: self.copies.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
        }
    }

    /// Register a run-produced output with the store (output collection
    /// binds a CAS handle instead of copying). Returns its digest.
    pub fn register_output(&self, path: &Path) -> std::io::Result<Digest> {
        let (digest, _, how) = self.store.ingest(path)?;
        if how == Ingest::Cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(digest)
    }

    /// Stage `src` into `dest`. The source is ingested (index-cached), and
    /// the destination materialized per the mode; the rung that did it is
    /// returned.
    pub fn stage_file(&self, src: &Path, dest: &Path) -> std::io::Result<Method> {
        let (digest, obj, how) = self.store.ingest(src)?;
        if how == Ingest::Cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        self.stage_prepared(src, dest, digest, &obj)
    }

    /// Materialize `dest` from an already-ingested source whose store
    /// object is `obj`. A fresh destination costs a failed `stat`, one of
    /// its directory (made only if missing, and the device the `auto` rung
    /// is cached under) and the link; nothing resolves a path.
    fn stage_prepared(
        &self,
        src: &Path,
        dest: &Path,
        digest: Digest,
        obj: &Path,
    ) -> std::io::Result<Method> {
        if let Ok(existing) = std::fs::metadata(dest) {
            // Staging a file onto itself (input already lives in the
            // workdir), or onto a file that already holds the content, is
            // a no-op, not a copy.
            let id = index::identity(&existing);
            let onto_itself =
                id.is_some() && std::fs::metadata(src).is_ok_and(|s| index::identity(&s) == id);
            if onto_itself || self.store.index().lookup(&existing) == Some(digest) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Method::Hit);
            }
            std::fs::remove_file(dest)?;
        }
        let dir = match dest.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let dir_meta = match std::fs::metadata(dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::create_dir_all(dir)?;
                std::fs::metadata(dir)?
            }
            found => found?,
        };
        let dest_dev = index::identity(&dir_meta).map_or(0, |(dev, _)| dev);
        // Link from the store object, not the source: it survives even if
        // the original source is later edited in place.
        let method = self.materialize(obj, dest, digest.len, dest_dev)?;
        if method != Method::Hardlink {
            // A reflink or copy is a new file. A hardlink shares the
            // object's inode, and with it the object's index entry.
            if let Ok(meta) = std::fs::metadata(dest) {
                self.store.index().record(&meta, digest);
            }
        }
        Ok(method)
    }

    fn materialize(
        &self,
        obj: &Path,
        dest: &Path,
        len: u64,
        dest_dev: u64,
    ) -> std::io::Result<Method> {
        if self.mode == StageMode::Copy {
            std::fs::copy(obj, dest)?;
            self.copies.fetch_add(1, Ordering::Relaxed);
            self.bytes_copied.fetch_add(len, Ordering::Relaxed);
            return Ok(Method::Copy);
        }
        let start = if self.mode == StageMode::Auto {
            self.probed
                .lock()
                .get(&dest_dev)
                .copied()
                .unwrap_or(Method::Hardlink)
        } else {
            Method::Hardlink
        };
        let method = self.climb(start, obj, dest)?;
        if self.mode == StageMode::Auto && method != start {
            self.probed.lock().insert(dest_dev, method);
        }
        match method {
            Method::Copy => {
                self.copies.fetch_add(1, Ordering::Relaxed);
                self.bytes_copied.fetch_add(len, Ordering::Relaxed);
            }
            _ => {
                self.links.fetch_add(1, Ordering::Relaxed);
                self.bytes_saved.fetch_add(len, Ordering::Relaxed);
            }
        }
        Ok(method)
    }

    fn climb(&self, start: Method, src: &Path, dest: &Path) -> std::io::Result<Method> {
        if start == Method::Hardlink {
            match std::fs::hard_link(src, dest) {
                Ok(()) => return Ok(Method::Hardlink),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    return Err(e);
                }
                Err(_) => {}
            }
        }
        if matches!(start, Method::Hardlink | Method::Reflink) && reflink(src, dest).is_ok() {
            return Ok(Method::Reflink);
        }
        std::fs::copy(src, dest)?;
        Ok(Method::Copy)
    }

    /// Stage every `class: File` in a CWL value into `dir`, returning the
    /// value rewritten to the staged paths with `checksum` and `size`
    /// attached. Basename collisions with differing content get a
    /// disambiguating `_<n>` suffix on the name root.
    pub fn stage_value(&self, value: &Value, dir: &Path) -> std::io::Result<Value> {
        let mut claimed: HashMap<String, Digest> = HashMap::new();
        Ok(self
            .stage_walk(value, dir, &mut claimed)?
            .unwrap_or_else(|| value.clone()))
    }

    /// Stage every `class: File` under `value`. `None` reports a subtree
    /// with no File in it, which the caller keeps (and, inside a map,
    /// shares) as it is instead of rebuilding it.
    fn stage_walk(
        &self,
        value: &Value,
        dir: &Path,
        claimed: &mut HashMap<String, Digest>,
    ) -> std::io::Result<Option<Value>> {
        match value {
            Value::Map(map) => {
                if map.get("class").and_then(Value::as_str) == Some("File") {
                    if let Some(src) = map.get("path").and_then(Value::as_str) {
                        return self
                            .stage_file_value(map, Path::new(src), dir, claimed)
                            .map(Some);
                    }
                }
                let mut out: Option<yamlite::Map> = None;
                for (k, v) in map.iter() {
                    if let Some(staged) = self.stage_walk(v, dir, claimed)? {
                        // `_shared`: the entry replaced is still shared
                        // with `map`, and `insert` would copy it to return it.
                        out.get_or_insert_with(|| map.clone())
                            .insert_shared(k, Arc::new(staged));
                    }
                }
                Ok(out.map(Value::Map))
            }
            Value::Seq(items) => {
                Ok(
                    yamlite::rewrite_seq(items, |v| self.stage_walk(v, dir, claimed))?
                        .map(Value::Seq),
                )
            }
            _ => Ok(None),
        }
    }

    fn stage_file_value(
        &self,
        map: &yamlite::Map,
        src: &Path,
        dir: &Path,
        claimed: &mut HashMap<String, Digest>,
    ) -> std::io::Result<Value> {
        let basename = src
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "input".to_string());
        // Ingest up front so collision handling can compare digests.
        let (digest, obj, how) = self.store.ingest(src)?;
        if how == Ingest::Cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        let name = match claimed.get(&basename) {
            Some(prior) if *prior != digest => {
                let mut n = 1;
                loop {
                    let candidate = disambiguate(&basename, n);
                    match claimed.get(&candidate) {
                        Some(p) if *p != digest => n += 1,
                        _ => break candidate,
                    }
                }
            }
            _ => basename,
        };
        claimed.insert(name.clone(), digest);
        let dest = dir.join(&name);
        self.stage_prepared(src, &dest, digest, &obj)?;
        let mut out = map.clone();
        out.insert("path", dest.to_string_lossy().into_owned());
        out.insert("basename", name.clone());
        let p = Path::new(&name);
        out.insert(
            "nameroot",
            p.file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default(),
        );
        out.insert(
            "nameext",
            p.extension()
                .map(|e| format!(".{}", e.to_string_lossy()))
                .unwrap_or_default(),
        );
        out.insert("size", digest.len as i64);
        out.insert("checksum", digest.checksum());
        Ok(Value::Map(out))
    }
}

fn disambiguate(basename: &str, n: usize) -> String {
    match basename.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}_{n}.{ext}"),
        _ => format!("{basename}_{n}"),
    }
}

/// Clone `src` into a fresh `dest` via the Linux `FICLONE` ioctl (reflink
/// on btrfs/XFS/bcachefs). Fails cleanly (`Unsupported`/`EOPNOTSUPP`) on
/// filesystems without CoW cloning and on non-Linux targets.
#[cfg(target_os = "linux")]
pub(crate) fn reflink(src: &Path, dest: &Path) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    // From linux/fs.h: #define FICLONE _IOW(0x94, 9, int)
    const FICLONE: u64 = 0x4004_9409;
    extern "C" {
        fn ioctl(fd: i32, request: u64, ...) -> i32;
    }
    let s = std::fs::File::open(src)?;
    let d = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(dest)?;
    let rc = unsafe { ioctl(d.as_raw_fd(), FICLONE, s.as_raw_fd()) };
    if rc != 0 {
        let err = std::io::Error::last_os_error();
        drop(d);
        let _ = std::fs::remove_file(dest);
        return Err(err);
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn reflink(_src: &Path, _dest: &Path) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "reflink is Linux-only",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ds-stage-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[cfg(unix)]
    fn inode(p: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(p).unwrap().ino()
    }

    #[test]
    fn link_mode_shares_inode_copy_mode_does_not() {
        let dir = scratch("modes");
        let src = dir.join("input.dat");
        std::fs::write(&src, vec![7u8; 4096]).unwrap();
        let store = ContentStore::open(dir.join("cas")).unwrap();

        let linker = Stager::new(store.clone(), StageMode::Link);
        let staged = linker
            .stage_file(&src, &dir.join("job1/input.dat"))
            .unwrap();
        assert!(matches!(staged, Method::Hardlink | Method::Reflink));
        #[cfg(unix)]
        if staged == Method::Hardlink {
            assert_eq!(inode(&src), inode(&dir.join("job1/input.dat")));
        }
        assert_eq!(linker.stats().links, 1);
        assert_eq!(linker.stats().bytes_saved, 4096);

        let copier = Stager::new(store, StageMode::Copy);
        let staged = copier
            .stage_file(&src, &dir.join("job2/input.dat"))
            .unwrap();
        assert_eq!(staged, Method::Copy);
        #[cfg(unix)]
        assert_ne!(inode(&src), inode(&dir.join("job2/input.dat")));
        assert_eq!(copier.stats().copies, 1);
        assert_eq!(copier.stats().bytes_copied, 4096);
        assert_eq!(
            std::fs::read(dir.join("job1/input.dat")).unwrap(),
            std::fs::read(dir.join("job2/input.dat")).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scatter_hashes_once_links_many() {
        let dir = scratch("scatter");
        let src = dir.join("image.img");
        std::fs::write(&src, vec![42u8; 10_000]).unwrap();
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let stager = Stager::new(store.clone(), StageMode::Auto);
        for k in 0..50 {
            stager
                .stage_file(&src, &dir.join(format!("job{k}/image.img")))
                .unwrap();
        }
        let stats = stager.stats();
        assert_eq!(stats.links + stats.copies, 50);
        // Hashed once: 49 of the 50 ingests were index hits, and the one
        // miss hashed all 10,000 bytes into the store's one object.
        assert_eq!(stats.hits, 49);
        let (digest, _, how) = store.ingest(&src).unwrap();
        assert_eq!(how, Ingest::Cached);
        assert_eq!(digest.len, 10_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restaging_same_content_is_a_hit() {
        let dir = scratch("rehit");
        let src = dir.join("a.txt");
        std::fs::write(&src, b"idempotent").unwrap();
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let stager = Stager::new(store, StageMode::Link);
        let dest = dir.join("job/a.txt");
        stager.stage_file(&src, &dest).unwrap();
        let again = stager.stage_file(&src, &dest).unwrap();
        assert_eq!(again, Method::Hit);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A hardlinked destination is the object's inode, so it shares the
    /// object's index entry; a copy is a new file with an entry of its own.
    #[cfg(unix)]
    #[test]
    fn staging_by_hardlink_adds_no_index_entry() {
        let dir = scratch("entries");
        let src = dir.join("input.dat");
        std::fs::write(&src, vec![3u8; 512]).unwrap();
        let index: &'static index::PathIndex = Box::leak(Box::default());
        let store = ContentStore::open_with_index(dir.join("cas"), index).unwrap();

        let linker = Stager::new(store.clone(), StageMode::Link);
        let staged = linker
            .stage_file(&src, &dir.join("job1/input.dat"))
            .unwrap();
        assert_eq!(staged, Method::Hardlink);
        assert_eq!(index.len(), 1);

        let copier = Stager::new(store, StageMode::Copy);
        copier
            .stage_file(&src, &dir.join("job2/input.dat"))
            .unwrap();
        assert_eq!(index.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_onto_self_is_noop() {
        let dir = scratch("self");
        let src = dir.join("in_workdir.txt");
        std::fs::write(&src, b"already here").unwrap();
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let stager = Stager::new(store, StageMode::Copy);
        let staged = stager.stage_file(&src, &src).unwrap();
        assert_eq!(staged, Method::Hit);
        assert_eq!(std::fs::read(&src).unwrap(), b"already here");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_value_rewrites_files_and_attaches_checksums() {
        let dir = scratch("value");
        let f1 = dir.join("one.txt");
        let f2 = dir.join("two.txt");
        std::fs::write(&f1, b"first").unwrap();
        std::fs::write(&f2, b"second").unwrap();
        let yaml = format!(
            "{{img: {{class: File, path: {}}}, batch: [{{class: File, path: {}}}], n: 3}}",
            f1.display(),
            f2.display()
        );
        let value = yamlite::parse_str(&yaml).unwrap();
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let stager = Stager::new(store, StageMode::Link);
        let jobdir = dir.join("job");
        std::fs::create_dir_all(&jobdir).unwrap();
        let staged = stager.stage_value(&value, &jobdir).unwrap();

        let img = &staged["img"];
        assert_eq!(
            img["path"].as_str(),
            Some(jobdir.join("one.txt").to_string_lossy().as_ref())
        );
        assert_eq!(img["size"].as_int(), Some(5));
        assert_eq!(
            img["checksum"].as_str(),
            Some(Digest::of_bytes(b"first").checksum().as_str())
        );
        assert_eq!(staged["batch"][0]["basename"].as_str(), Some("two.txt"));
        assert_eq!(staged["n"].as_int(), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn basename_collisions_disambiguate() {
        let dir = scratch("collide");
        std::fs::create_dir_all(dir.join("a")).unwrap();
        std::fs::create_dir_all(dir.join("b")).unwrap();
        let f1 = dir.join("a/data.txt");
        let f2 = dir.join("b/data.txt");
        std::fs::write(&f1, b"alpha").unwrap();
        std::fs::write(&f2, b"beta").unwrap();
        let yaml = format!(
            "[{{class: File, path: {}}}, {{class: File, path: {}}}]",
            f1.display(),
            f2.display()
        );
        let value = yamlite::parse_str(&yaml).unwrap();
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let stager = Stager::new(store, StageMode::Link);
        let jobdir = dir.join("job");
        std::fs::create_dir_all(&jobdir).unwrap();
        let staged = stager.stage_value(&value, &jobdir).unwrap();
        assert_eq!(staged[0]["basename"].as_str(), Some("data.txt"));
        assert_eq!(staged[1]["basename"].as_str(), Some("data_1.txt"));
        assert_eq!(std::fs::read(jobdir.join("data_1.txt")).unwrap(), b"beta");
        std::fs::remove_dir_all(&dir).ok();
    }
}
