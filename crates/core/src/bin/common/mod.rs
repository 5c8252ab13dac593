//! What `cwl-check` and `parsl-lint` share: the files a list of targets
//! names, and how one file's report is printed.

use cwl::analyze::Report;
use std::path::{Path, PathBuf};

/// Each file target as given, plus the files of each directory target
/// (non-recursive) whose extension is one of `exts`, sorted.
pub fn expand(targets: &[PathBuf], exts: &[&str]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for target in targets {
        if !target.is_dir() {
            files.push(target.clone());
            continue;
        }
        let unreadable =
            |e: std::io::Error| format!("cannot read directory {}: {e}", target.display());
        for entry in std::fs::read_dir(target).map_err(unreadable)? {
            let path = entry.map_err(unreadable)?.path();
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            if path.is_file() && exts.contains(&ext) {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Print `file`'s report: one JSON object, or its text lines and, unless
/// `quiet`, an OK line when there are none.
pub fn print(report: &Report, file: &Path, json: bool, quiet: bool) {
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
        if report.diags.is_empty() && !quiet {
            println!("{}: OK", file.display());
        }
    }
}
