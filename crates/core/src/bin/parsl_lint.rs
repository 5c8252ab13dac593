//! `parsl-lint` — static type-checker for parsl-cwl run configs.
//!
//! ```text
//! parsl-lint [--json] [--strict] [-q] <file-or-dir>...
//! ```
//!
//! Reads every config through the run's own config reader (unknown keys
//! with did-you-mean, invalid values, invalid combinations, unreachable
//! staging or socket dirs, no-effect settings) and runs cross-file checks
//! over the whole set (two configs sharing one checkpoint dir).
//! Directories are scanned non-recursively for `*.yml` / `*.yaml`; files
//! carrying a CWL `class:` key are skipped (those belong to `cwl-check`).
//! Exit status: 0 clean, 1 findings, 2 usage error.

use cwl_parsl::lint::{cross_file_checks, lint_file};
use std::path::PathBuf;
use std::process::ExitCode;

mod common;

const USAGE: &str = "usage: parsl-lint [--json] [--strict] [-q] <file-or-dir>...

  --json    emit one JSON report object per file
  --strict  treat warnings as failures
  -q        suppress per-file OK lines";

fn main() -> ExitCode {
    let mut json = false;
    let mut strict = false;
    let mut quiet = false;
    let mut targets: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--strict" => strict = true,
            "-q" | "--quiet" => quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("parsl-lint: unknown flag {flag:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            path => targets.push(PathBuf::from(path)),
        }
    }
    if targets.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let files = match common::expand(&targets, &["yml", "yaml"]) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("parsl-lint: {e}");
            return ExitCode::from(2);
        }
    };

    // Per-file lint (CWL documents skipped), then the cross-file pass.
    let mut checked: Vec<_> = files.iter().filter_map(|f| lint_file(f)).collect();
    cross_file_checks(&mut checked);

    let mut failed = false;
    for linted in checked {
        let mut report = linted.report;
        report.sort();
        failed |= !report.is_clean(strict);
        let file = PathBuf::from(report.file.clone().unwrap_or_default());
        common::print(&report, &file, json, quiet);
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
