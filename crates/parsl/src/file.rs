//! Parsl's `File` abstraction: a location-transparent handle to a file that
//! apps exchange. In the Python original, `File` hides protocol/staging
//! differences (local, FTP, Globus); here all execution is node-local, so
//! the type carries path metadata and existence checks, keeping the same
//! API shape the CWL bridge expects.
//!
//! When the data plane has seen the file, a `File` also carries its
//! content digest: `size()` and `checksum()` answer from the digest index
//! without touching the filesystem. Identity (`Eq`/`Hash`) stays
//! path-based — the digest is metadata about the path's content, not part
//! of which file the handle names.

use datastore::Digest;
use std::path::{Path, PathBuf};

/// A file handle exchanged between apps.
#[derive(Debug, Clone)]
pub struct File {
    path: PathBuf,
    digest: Option<Digest>,
}

impl PartialEq for File {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path
    }
}

impl Eq for File {}

impl std::hash::Hash for File {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.path.hash(state);
    }
}

impl File {
    /// Wrap a path.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            digest: None,
        }
    }

    /// Wrap a path with a known content digest.
    pub fn with_digest(path: impl Into<PathBuf>, digest: Digest) -> Self {
        Self {
            path: path.into(),
            digest: Some(digest),
        }
    }

    /// The underlying path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The content digest: the one the handle carries, else whatever the
    /// process-global digest index knows about the file the path names
    /// right now (one `stat`).
    pub fn digest(&self) -> Option<Digest> {
        self.digest.or_else(|| {
            let meta = std::fs::metadata(&self.path).ok()?;
            datastore::index::global().lookup(&meta)
        })
    }

    /// The CWL-style checksum string (`xxh64:<hex>`), if the content has
    /// been digested by the data plane.
    pub fn checksum(&self) -> Option<String> {
        self.digest().map(|d| d.checksum())
    }

    /// The file name portion (CWL's `basename`).
    pub fn basename(&self) -> String {
        self.path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    }

    /// Basename without the final extension (CWL's `nameroot`).
    pub fn nameroot(&self) -> String {
        self.path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    }

    /// The final extension including the dot (CWL's `nameext`).
    pub fn nameext(&self) -> String {
        self.path
            .extension()
            .map(|s| format!(".{}", s.to_string_lossy()))
            .unwrap_or_default()
    }

    /// Whether the file currently exists on disk.
    pub fn exists(&self) -> bool {
        self.path.exists()
    }

    /// Size in bytes, served from the digest when known (None when the
    /// file is missing and undigested).
    pub fn size(&self) -> Option<u64> {
        if let Some(d) = self.digest {
            return Some(d.len);
        }
        std::fs::metadata(&self.path).ok().map(|m| m.len())
    }

    /// Render as a CWL File object value (`class: File`, path, basename…).
    pub fn to_cwl_value(&self) -> yamlite::Value {
        let mut m = yamlite::Map::new();
        m.insert("class", "File");
        m.insert("path", self.path.to_string_lossy().into_owned());
        m.insert("basename", self.basename());
        m.insert("nameroot", self.nameroot());
        m.insert("nameext", self.nameext());
        if let Some(size) = self.size() {
            m.insert("size", size as i64);
        }
        if let Some(checksum) = self.checksum() {
            m.insert("checksum", checksum);
        }
        yamlite::Value::Map(m)
    }
}

impl std::fmt::Display for File {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.path.display())
    }
}

impl From<&str> for File {
    fn from(s: &str) -> Self {
        File::new(s)
    }
}

impl From<PathBuf> for File {
    fn from(p: PathBuf) -> Self {
        File::new(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_parts() {
        let f = File::new("/data/images/photo.tar.gz");
        assert_eq!(f.basename(), "photo.tar.gz");
        assert_eq!(f.nameroot(), "photo.tar");
        assert_eq!(f.nameext(), ".gz");
    }

    #[test]
    fn no_extension() {
        let f = File::new("/data/README");
        assert_eq!(f.basename(), "README");
        assert_eq!(f.nameroot(), "README");
        assert_eq!(f.nameext(), "");
    }

    #[test]
    fn existence_and_size() {
        let dir = std::env::temp_dir().join(format!("parsl-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.txt");
        let f = File::new(&p);
        assert!(!f.exists());
        std::fs::write(&p, b"hello").unwrap();
        assert!(f.exists());
        assert_eq!(f.size(), Some(5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_serves_size_and_checksum() {
        let d = Digest::of_bytes(b"pixels");
        let f = File::with_digest("/data/never-read.rimg", d);
        // Size and checksum come from the digest, no filesystem access.
        assert_eq!(f.size(), Some(6));
        assert_eq!(f.checksum(), Some(d.checksum()));
        // Identity stays path-based.
        assert_eq!(f, File::new("/data/never-read.rimg"));

        // An index-recorded file serves its checksum through plain handles.
        let dir = std::env::temp_dir().join(format!("parsl-file-d-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("indexed.bin");
        std::fs::write(&p, b"indexed contents").unwrap();
        let meta = std::fs::metadata(&p).unwrap();
        let d2 = Digest::of_bytes(b"indexed contents");
        datastore::index::global().record(&meta, d2);
        assert_eq!(File::new(&p).checksum(), Some(d2.checksum()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cwl_value_shape() {
        let f = File::new("/a/b.png");
        let v = f.to_cwl_value();
        assert_eq!(v["class"].as_str(), Some("File"));
        assert_eq!(v["path"].as_str(), Some("/a/b.png"));
        assert_eq!(v["basename"].as_str(), Some("b.png"));
        assert_eq!(v["nameext"].as_str(), Some(".png"));
    }
}
