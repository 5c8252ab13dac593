//! `parsl-serve` — the multi-run workflow service daemon.
//!
//! ```text
//! parsl-serve <config.yml> [--resume]
//! ```
//!
//! Serves workflow submissions over the Unix socket configured in the
//! `serve:` block (default `<run.workdir>/serve.sock`). Submit and manage
//! runs with `parsl-cwl submit|status|wait|logs|cancel|drain <config.yml> …`.

use std::process::ExitCode;

const USAGE: &str = "usage: parsl-serve <config.yml> [--resume]

options:
  --resume    re-queue every non-terminal run found under <workdir>/runs,
              replaying completed tasks from their checkpoint journals
  --help      print this message

The daemon exits after a completed `parsl-cwl drain`, or immediately on
SIGTERM (journals flushed; interrupted runs resume with --resume).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("parsl-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut config_path = None;
    let mut resume = false;
    for arg in args {
        match arg.as_str() {
            "--help" => {
                println!("{USAGE}");
                return Ok(());
            }
            "--resume" => resume = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}\n{USAGE}"));
            }
            path if config_path.is_none() => config_path = Some(path.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}\n{USAGE}")),
        }
    }
    let config_path = config_path.ok_or(USAGE)?;
    let config = cwl_parsl::load_config_file(&config_path)?;
    serve::serve_daemon(config, resume)
}
