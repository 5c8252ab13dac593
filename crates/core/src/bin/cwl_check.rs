//! `cwl-check` — whole-workflow static analyzer.
//!
//! Runs the [`cwl::analyze`] passes (typed dataflow checking, expression
//! linting, effect analysis, and — given a run config — feasibility
//! analysis) over CWL files and prints span-carrying diagnostics with
//! stable codes, as compiler-style text or JSON. `--config` loads the run
//! config as a run does (a config the run would refuse is refused here,
//! exit 2) and sizes the executor's capacity the way the pre-run gate does.
//!
//! ```text
//! cwl-check [--json] [--strict] [-q] [--plan] [--config <yml>] <file-or-dir>...
//! ```
//!
//! Directories are scanned (non-recursively) for `*.cwl` / `*.yml` /
//! `*.yaml`. Files without a `class:` key (e.g. runner configs) get YAML
//! well-formedness checking only. Exit status: 0 clean, 1 findings,
//! 2 usage error.

use cwl::analyze::{analyze_docs, plan, AnalyzeOptions, Report};
use cwl::docs::{DocSet, Loaded};
use std::path::PathBuf;
use std::process::ExitCode;

mod common;

const USAGE: &str =
    "usage: cwl-check [--json] [--strict] [-q] [--plan] [--config <yml>] <file-or-dir>...

  --json          emit one JSON report object per file
  --strict        treat warnings as failures
  -q              suppress per-file OK lines
  --plan          print a makespan lower bound per CWL file
  --config <yml>  run config providing executor capacity for the
                  feasibility pass (E032/W111) and --plan slot counts";

fn main() -> ExitCode {
    let mut json = false;
    let mut strict = false;
    let mut quiet = false;
    let mut plan_mode = false;
    let mut config: Option<PathBuf> = None;
    let mut targets: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--strict" => strict = true,
            "-q" | "--quiet" => quiet = true,
            "--plan" => plan_mode = true,
            "--config" => match args.next() {
                Some(p) => config = Some(PathBuf::from(p)),
                None => {
                    eprintln!("cwl-check: --config requires a file argument\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("cwl-check: unknown flag {flag:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            path => targets.push(PathBuf::from(path)),
        }
    }
    if targets.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let capacity = match &config {
        None => None,
        Some(path) => match cwl_parsl::load_config_file(path) {
            Ok(config) => Some(cwl_parsl::lint::executor_capacity(&config.parsl)),
            Err(e) => {
                eprintln!("cwl-check: config {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
    };
    let opts = AnalyzeOptions {
        capacity: capacity.clone(),
    };

    let files = match common::expand(&targets, &["cwl", "yml", "yaml"]) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("cwl-check: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for file in &files {
        let docs = DocSet::load(file);
        let (report, is_cwl) = check_file(&docs, &opts);
        failed |= !report.is_clean(strict);
        common::print(&report, file, json, quiet);
        if plan_mode && is_cwl && !json {
            match plan::plan_docs(&docs, capacity.as_ref()) {
                Ok(summary) => println!("{}: {}", file.display(), summary.render()),
                Err(e) => eprintln!("{}: plan unavailable: {e}", file.display()),
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Analyze one file. Documents without a `class:` key are not CWL — runner
/// configs ride along in the same directories — so they only get YAML
/// well-formedness checking. The second return says whether the file was
/// treated as CWL (and so participates in `--plan`).
fn check_file(docs: &DocSet, opts: &AnalyzeOptions) -> (Report, bool) {
    let root = docs.root();
    match &root.loaded {
        Loaded::Unread(_) => (analyze_docs(docs, opts), false), // cannot-read E001
        Loaded::Parsed { value, .. } if value.get("class").is_none() => {
            let mut report = Report::new();
            report.file = Some(root.path.display().to_string());
            (report, false)
        }
        // Parse errors must be reported either way.
        _ => (analyze_docs(docs, opts), true),
    }
}
