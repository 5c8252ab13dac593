//! `parsl-lint` — static type-checker for parsl-cwl run configs.
//!
//! ```text
//! parsl-lint [--json] [--strict] [-q] <file-or-dir>...
//! ```
//!
//! Checks every config against the loader's schema (unknown keys with
//! did-you-mean, invalid values, invalid combinations, unreachable staging
//! dirs, no-effect settings) and runs cross-file checks over the whole set
//! (two configs sharing one checkpoint dir). Directories are scanned
//! non-recursively for `*.yml` / `*.yaml`; files carrying a CWL `class:`
//! key are skipped (those belong to `cwl-check`). Exit status: 0 clean,
//! 1 findings, 2 usage error.

use cwl::analyze::diag::{Diag, Report};
use cwl_parsl::lint::{cross_file_checks, lint_value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use yamlite::{SpanIndex, Value};

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

    let mut files: Vec<PathBuf> = Vec::new();
    for target in &targets {
        if target.is_dir() {
            match collect_dir(target) {
                Ok(mut found) => files.append(&mut found),
                Err(e) => {
                    eprintln!(
                        "parsl-lint: cannot read directory {}: {e}",
                        target.display()
                    );
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(target.clone());
        }
    }
    files.sort();

    // Per-file lint, keeping parsed docs around for the cross-file pass.
    let mut checked: Vec<(PathBuf, Value, SpanIndex, Report)> = Vec::new();
    for file in files {
        let mut report = Report::new();
        report.file = Some(file.display().to_string());
        match std::fs::read_to_string(&file) {
            Err(e) => {
                let message = format!("cannot read {}: {e}", file.display());
                report.diags.push(Diag::yaml_parse(message, None));
                checked.push((file, Value::Null, SpanIndex::default(), report));
            }
            Ok(text) => match yamlite::parse_str_spanned(&text) {
                Err(e) => {
                    report
                        .diags
                        .push(Diag::yaml_parse(e.message, Some(e.position)));
                    checked.push((file, Value::Null, SpanIndex::default(), report));
                }
                Ok((doc, spans)) => {
                    if doc.get("class").is_some() {
                        continue; // a CWL document: cwl-check's jurisdiction
                    }
                    lint_value(&doc, &spans, &mut report);
                    checked.push((file, doc, spans, report));
                }
            },
        }
    }
    cross_file_checks(&mut checked);

    let mut failed = false;
    for (file, _, _, mut report) in checked {
        report.sort();
        failed |= !report.is_clean(strict);
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.render_text());
            if report.diags.is_empty() && !quiet {
                println!("{}: OK", file.display());
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn collect_dir(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        if path.is_file() && matches!(ext, "yml" | "yaml") {
            out.push(path);
        }
    }
    Ok(out)
}
