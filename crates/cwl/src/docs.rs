//! The set of files one run consists of: a root document and every file its
//! `run:` references reach, each read, parsed and loaded once.
//!
//! This is the only code that turns a `run:` reference into a file. A path
//! resolves against the directory of the file holding the reference, using
//! that file's path as given: a workflow reached through a symlink runs the
//! tools next to the link, and the analyzer, the executors and the run hash
//! all see those same files. Each file is keyed by its canonical path, so
//! two spellings of one file share an entry and a reference cycle ends where
//! it closes. A file that cannot be read, parsed or loaded keeps its error:
//! the analyzer reports it with its code, execution refuses with it. Only
//! regular files of at most [`MAX_DOC_BYTES`] are read: a FIFO or a device
//! could block `open(2)` forever, and the daemon reads documents on its one
//! loop thread.

use crate::loader::{load_document, CwlDocument};
use crate::workflow::{RunRef, Workflow};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use yamlite::{ParseError, Position, SpanIndex, Value};

/// The largest document file a run reads: the size of the largest request
/// frame `parsl-serve` accepts (16 MiB).
const MAX_DOC_BYTES: u64 = 16 << 20;

/// How far one file of a [`DocSet`] got. (One per file of a run: the size
/// of the parsed variant costs nothing worth a box.)
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Loaded {
    /// It could not be read (the I/O error).
    Unread(String),
    /// It was read but is not YAML.
    Unparsed { text: String, error: ParseError },
    /// It parsed; `doc` is its CWL model, or why it has none.
    Parsed {
        text: String,
        value: Value,
        spans: SpanIndex,
        doc: Result<CwlDocument, String>,
    },
}

impl Loaded {
    fn parse(text: String) -> Self {
        match yamlite::parse_str_spanned(&text) {
            Err(error) => Loaded::Unparsed { text, error },
            Ok((value, spans)) => Loaded::Parsed {
                doc: load_document(&value),
                text,
                value,
                spans,
            },
        }
    }
}

/// One file of a [`DocSet`].
#[derive(Debug)]
pub struct DocEntry {
    /// The path the file was first reached by.
    pub path: PathBuf,
    /// Its canonical path (`path` itself when that does not resolve).
    pub(crate) key: PathBuf,
    pub loaded: Loaded,
}

impl DocEntry {
    fn read(path: PathBuf, key: PathBuf) -> Self {
        let loaded = match read_regular(&path) {
            Err(e) => Loaded::Unread(e),
            Ok(text) => Loaded::parse(text),
        };
        Self { path, key, loaded }
    }

    /// The directory its relative `run:` paths resolve against.
    pub(crate) fn dir(&self) -> &Path {
        self.path.parent().unwrap_or(Path::new("."))
    }

    /// The file's text, when it could be read.
    pub fn text(&self) -> Option<&str> {
        match &self.loaded {
            Loaded::Unread(_) => None,
            Loaded::Unparsed { text, .. } | Loaded::Parsed { text, .. } => Some(text),
        }
    }

    /// The loaded document, or [`crate::load_file`]'s refusal for it.
    pub fn document(&self) -> Result<&CwlDocument, String> {
        self.document_at(&self.path)
    }

    /// [`DocEntry::document`], the refusal naming `path`: the spelling the
    /// reference used.
    fn document_at(&self, path: &Path) -> Result<&CwlDocument, String> {
        let (_, doc) = self.parsed(path)?;
        doc.as_ref().map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parsed(&self, path: &Path) -> Result<(&Value, &Result<CwlDocument, String>), String> {
        let p = path.display();
        match &self.loaded {
            Loaded::Unread(e) => {
                let error = ParseError::at(format!("cannot read {p}: {e}"), Position::default());
                Err(format!("{p}: {error}"))
            }
            Loaded::Unparsed { error, .. } => Err(format!("{p}: {error}")),
            Loaded::Parsed { value, doc, .. } => Ok((value, doc)),
        }
    }
}

/// The text of `path` if it is a regular file of at most
/// [`MAX_DOC_BYTES`]. It is stat'ed first: the metadata of a FIFO answers
/// at once, where opening it waits for a writer.
fn read_regular(path: &Path) -> Result<String, String> {
    let meta = std::fs::metadata(path).map_err(|e| e.to_string())?;
    if !meta.is_file() {
        return Err("not a regular file".to_string());
    }
    if meta.len() > MAX_DOC_BYTES {
        return Err(format!(
            "{} bytes, over the {MAX_DOC_BYTES}-byte limit",
            meta.len()
        ));
    }
    std::fs::read_to_string(path).map_err(|e| e.to_string())
}

/// What a step's `run:` names.
pub struct RunTarget<'a> {
    pub doc: Cow<'a, CwlDocument>,
    /// Where the target's own `run:` paths resolve: its file's directory,
    /// or for an inline block the referencing file's.
    pub dir: Option<&'a Path>,
    /// The target's file (`None` for an inline block).
    pub file: Option<&'a DocEntry>,
}

/// A root document and every file its `run:` references reach (see the
/// module docs).
#[derive(Debug)]
pub struct DocSet {
    /// Depth-first from the root, each file where it was first reached.
    entries: Vec<DocEntry>,
    /// Every path a reference reached, and every canonical key, to its entry.
    index: HashMap<PathBuf, usize>,
    /// Whether the root has a file: without one, `run:` paths stay unresolved.
    rooted: bool,
}

impl DocSet {
    /// Read the document at `path` and every file it reaches.
    pub fn load(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref().to_path_buf();
        let key = key_of(&path);
        Self::with_root(DocEntry::read(path, key), true)
    }

    /// A set whose root document is `text`. `file` names it and anchors its
    /// `run:` paths; without one, path references stay unresolved.
    pub(crate) fn from_text(text: &str, file: Option<&Path>) -> Self {
        let path = file.map(Path::to_path_buf).unwrap_or_default();
        let root = DocEntry {
            key: key_of(&path),
            path,
            loaded: Loaded::parse(text.to_string()),
        };
        Self::with_root(root, file.is_some())
    }

    /// A set of no files, for the passes over one lone document
    /// ([`crate::analyze::analyze_value`]): with no directory, its path
    /// `run:`s stay unresolved and the set is never looked in. It has no
    /// root.
    pub(crate) fn unresolved() -> Self {
        Self {
            entries: Vec::new(),
            index: HashMap::new(),
            rooted: false,
        }
    }

    fn with_root(root: DocEntry, rooted: bool) -> Self {
        let mut set = Self {
            entries: Vec::new(),
            index: HashMap::new(),
            rooted,
        };
        set.add(root);
        set
    }

    fn add(&mut self, entry: DocEntry) {
        let i = self.entries.len();
        self.index.insert(entry.key.clone(), i);
        self.index.insert(entry.path.clone(), i);
        let mut refs = Vec::new();
        if let (true, Ok(CwlDocument::Workflow(wf))) = (self.rooted, entry.document()) {
            run_paths(wf, entry.dir(), &mut refs);
        }
        self.entries.push(entry);
        for path in refs {
            if self.index.contains_key(&path) {
                continue;
            }
            let key = key_of(&path);
            match self.index.get(&key) {
                // Another spelling of a file already in the set.
                Some(&i) => {
                    self.index.insert(path, i);
                }
                None => self.add(DocEntry::read(path, key)),
            }
        }
    }

    /// The root document's entry.
    pub fn root(&self) -> &DocEntry {
        &self.entries[0]
    }

    /// The directory the root's `run:` paths resolve against (`None` for a
    /// root without a file).
    pub fn root_dir(&self) -> Option<&Path> {
        self.rooted.then(|| self.root().dir())
    }

    /// Every file, root first, depth-first in step order: the order the run
    /// hash reads them in.
    pub fn entries(&self) -> &[DocEntry] {
        &self.entries
    }

    /// The entry for a file the set reached, by any path it was reached by.
    pub(crate) fn get(&self, path: &Path) -> Option<&DocEntry> {
        self.index.get(path).map(|&i| &self.entries[i])
    }

    /// Resolve a step's `run:`. `dir` is the directory of the file holding
    /// the step; without one a path reference stays unresolved (`None`).
    /// `Err` carries [`crate::load_file`]'s refusal for a path, or the
    /// model error of an inline block.
    pub fn resolve<'a>(
        &'a self,
        run: &'a RunRef,
        dir: Option<&'a Path>,
    ) -> Option<Result<RunTarget<'a>, String>> {
        Some(match run {
            RunRef::Inline(v) => load_document(v).map(|doc| RunTarget {
                doc: Cow::Owned(doc),
                dir,
                file: None,
            }),
            RunRef::Path(p) => {
                // `join` keeps an absolute `p` as it is.
                let path = dir?.join(p);
                match self.get(&path) {
                    None => Err(format!("{}: not part of this document set", path.display())),
                    Some(entry) => entry.document_at(&path).map(|doc| RunTarget {
                        doc: Cow::Borrowed(doc),
                        dir: Some(entry.dir()),
                        file: Some(entry),
                    }),
                }
            }
        })
    }
}

/// A file's identity: its canonical path, or the path itself when that does
/// not resolve (a missing file).
fn key_of(path: &Path) -> PathBuf {
    path.canonicalize().unwrap_or_else(|_| path.to_path_buf())
}

/// The files a workflow's steps name, inline subworkflows included, in step
/// order.
fn run_paths(wf: &Workflow, dir: &Path, out: &mut Vec<PathBuf>) {
    for step in &wf.steps {
        match &step.run {
            RunRef::Path(p) => out.push(dir.join(p)),
            RunRef::Inline(v) => {
                if let Ok(CwlDocument::Workflow(sub)) = load_document(v) {
                    run_paths(&sub, dir, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixtures() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cwl-docs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const ECHO: &str =
        "class: CommandLineTool\ncwlVersion: v1.2\nbaseCommand: echo\ninputs: {}\noutputs: {}\n";

    #[test]
    fn each_file_is_read_once() {
        let docs = DocSet::load(fixtures().join("diamond.cwl"));
        // diamond, echo, copy_text (run by two steps), join_text.
        assert_eq!(docs.entries().len(), 4);
        let names: Vec<_> = docs
            .entries()
            .iter()
            .map(|e| e.path.file_name().unwrap().to_str().unwrap())
            .collect();
        assert_eq!(
            names,
            ["diamond.cwl", "echo.cwl", "copy_text.cwl", "join_text.cwl"]
        );
        let dir = docs.root_dir().unwrap();
        let copy = RunRef::Path("copy_text.cwl".to_string());
        let a = docs.resolve(&copy, Some(dir)).unwrap().unwrap();
        let b = docs.resolve(&copy, Some(dir)).unwrap().unwrap();
        assert!(std::ptr::eq(a.file.unwrap(), b.file.unwrap()));
        assert_eq!(a.doc.class(), "CommandLineTool");
    }

    #[test]
    fn file_loading_and_run_resolution() {
        let dir = scratch("resolve");
        std::fs::write(dir.join("echo.cwl"), ECHO).unwrap();
        let wf = "class: Workflow\ncwlVersion: v1.2\ninputs: {}\noutputs: {}\nsteps:\n  a:\n    run: echo.cwl\n    in: {}\n    out: []\n  b:\n    run: ghost.cwl\n    in: {}\n    out: []\n";
        std::fs::write(dir.join("wf.cwl"), wf).unwrap();
        let docs = DocSet::load(dir.join("wf.cwl"));
        assert_eq!(docs.root().document().unwrap().class(), "Workflow");

        let run = RunRef::Path("echo.cwl".to_string());
        let resolved = docs.resolve(&run, Some(&dir)).unwrap().unwrap();
        assert_eq!(resolved.doc.class(), "CommandLineTool");
        assert_eq!(resolved.file.unwrap().text(), Some(ECHO));

        // The missing file keeps its error, worded as `load_file` words it.
        let missing = RunRef::Path("ghost.cwl".to_string());
        let err = docs.resolve(&missing, Some(&dir)).unwrap().err().unwrap();
        assert_eq!(err, crate::load_file(dir.join("ghost.cwl")).unwrap_err());
        // Without a file to anchor it, a path reference stays unresolved.
        assert!(docs.resolve(&run, None).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inline_run_resolution() {
        let inline = yamlite::parse_str(
            "class: CommandLineTool\ncwlVersion: v1.2\nbaseCommand: ls\ninputs: {}\noutputs: {}\n",
        )
        .unwrap();
        let run = RunRef::Inline(Box::new(inline));
        let docs = DocSet::from_text(ECHO, None);
        let target = docs.resolve(&run, Some(Path::new("/nowhere"))).unwrap();
        assert_eq!(target.unwrap().doc.class(), "CommandLineTool");
        let target = docs.resolve(&run, None).unwrap();
        assert!(target.unwrap().file.is_none());
    }

    #[test]
    fn nested_files_resolve_against_their_own_directory_and_cycles_end() {
        let dir = scratch("nested");
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("sub/tool.cwl"), ECHO).unwrap();
        // A decoy next to the outer file must not be what the inner runs.
        std::fs::write(dir.join("tool.cwl"), "class: Nonsense\n").unwrap();
        let steps = |runs: &[&str]| {
            let mut wf =
                "class: Workflow\ncwlVersion: v1.2\ninputs: {}\noutputs: {}\nsteps:\n".to_string();
            for (i, run) in runs.iter().enumerate() {
                wf.push_str(&format!(
                    "  s{i}:\n    run: {run}\n    in: {{}}\n    out: []\n"
                ));
            }
            wf
        };
        std::fs::write(
            dir.join("sub/inner.cwl"),
            steps(&["tool.cwl", "../outer.cwl"]),
        )
        .unwrap();
        std::fs::write(dir.join("outer.cwl"), steps(&["sub/inner.cwl"])).unwrap();
        let docs = DocSet::load(dir.join("outer.cwl"));
        // outer, sub/inner, sub/tool: `sub/../outer.cwl` is the outer file
        // again, which closes the cycle.
        assert_eq!(docs.entries().len(), 3, "{:?}", docs.entries());
        let inner = docs.get(&dir.join("sub/inner.cwl")).unwrap();
        let tool = RunRef::Path("tool.cwl".to_string());
        let target = docs.resolve(&tool, Some(inner.dir())).unwrap().unwrap();
        assert_eq!(target.doc.class(), "CommandLineTool");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A FIFO blocks `open(2)` until a writer comes: as a root document
    /// and as a step's `run:` target it is refused from its metadata, and
    /// so is a file over the size cap (sparse, so it takes no disk).
    #[test]
    fn special_and_oversized_files_are_refused_unopened() {
        let dir = scratch("special");
        let fifo = dir.join("pipe.cwl");
        let made = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .unwrap();
        assert!(made.success());
        let big = dir.join("big.cwl");
        std::fs::File::create(&big)
            .unwrap()
            .set_len(MAX_DOC_BYTES + 1)
            .unwrap();
        let wf = "class: Workflow\ncwlVersion: v1.2\ninputs: {}\noutputs: {}\nsteps:\n  a:\n    run: pipe.cwl\n    in: {}\n    out: []\n  b:\n    run: big.cwl\n    in: {}\n    out: []\n";
        std::fs::write(dir.join("wf.cwl"), wf).unwrap();

        for root in [fifo.clone(), dir.join("wf.cwl")] {
            let docs = simtest::returns_within(std::time::Duration::from_secs(20), move || {
                DocSet::load(root)
            })
            .expect("reading the document set blocked");
            let err = docs.get(&fifo).unwrap().document().unwrap_err();
            assert!(err.contains("cannot read"), "{err}");
            assert!(err.contains("not a regular file"), "{err}");
        }
        let docs = DocSet::load(dir.join("wf.cwl"));
        let err = docs.get(&big).unwrap().document().unwrap_err();
        assert!(err.contains("over the 16777216-byte limit"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
