//! Parsl's `File` abstraction: a location-transparent handle to a file that
//! apps exchange. In the Python original, `File` hides protocol/staging
//! differences (local, FTP, Globus); here all execution is node-local, so
//! the type carries the path, keeping the same API shape the CWL bridge
//! expects.

use std::path::{Path, PathBuf};

/// A file handle exchanged between apps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct File {
    path: PathBuf,
}

impl File {
    /// Wrap a path.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The underlying path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file name portion (CWL's `basename`).
    pub fn basename(&self) -> String {
        self.path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
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
    }

    #[test]
    fn no_extension() {
        let f = File::new("/data/README");
        assert_eq!(f.basename(), "README");
    }
}
