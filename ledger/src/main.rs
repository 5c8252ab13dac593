//! `ledger` — the performance ledger: one driver, every layer, honest units.
//!
//! ```text
//! ledger --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! ledger [--seed S] [--seconds T] [--smoke] [--repeat K --check]
//! ```
//!
//! With `--workload`, runs that one workload in this process and prints, as
//! the last line of standard output, the JSON object `BENCHMARK.json`'s
//! contract asks for. Without it, runs every workload (each in its own child
//! process, untraced and then traced), prints every metric by name with its
//! unit, and ends with a JSON summary. See `README.md` next to this crate.

mod all;
mod cli;
mod fig1;
mod fig2;
mod gen;
mod harness;
mod probes;
mod serve_mix;
mod spec;
mod stats;
mod storm;
mod trace;

use harness::{Ctx, Report, Scratch};
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
    pub check: bool,
}

const USAGE: &str = "usage: ledger [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] [--smoke] [--repeat K --check]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 1,
        check: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds must be a positive number")?
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or("--repeat must be at least 1")?
            }
            // `--trace` alone turns tracing on; the benchmark driver passes
            // an explicit 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Run one workload in this process.
fn run_workload(name: &str, args: &Args) -> Result<Report, String> {
    let workload = spec::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            format!(
                "unknown workload {name:?} (expected one of: {})",
                spec::WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        scratch: Scratch::create(name)?,
        fixtures: harness::fixtures_dir()?,
    };
    // Real cost only: every modelled latency is scaled to zero. Modelled
    // cost appears only as the `gridsim.*` layer metrics.
    gridsim::TimeScale::set(spec::TIME_SCALE);
    (workload.run)(&ctx)
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Hidden mode: this executable as the `parsl-serve` daemon (see
    // `serve_mix`), so the served code is the code this build compiled.
    if argv.first().map(String::as_str) == Some(serve_mix::DAEMON_FLAG) {
        return serve_mix::daemon_main(&argv[1..]).map(|()| ExitCode::SUCCESS);
    }
    // Hidden mode: one storm in a process of its own (see `storm`).
    if argv.first().map(String::as_str) == Some(storm::ITERATION_FLAG) {
        return storm::iteration_main(&argv[1..]).map(|()| ExitCode::SUCCESS);
    }
    let args = parse_args(&argv)?;
    if cfg!(debug_assertions) && !args.smoke {
        return Err(
            "refusing to measure a debug build: run with `cargo run --release` (only --smoke runs unoptimised)"
                .to_string(),
        );
    }
    match &args.workload {
        Some(name) => {
            let report = run_workload(name, &args)?;
            for line in &report.notes {
                println!("{line}");
            }
            let ok = report.failed == 0 && report.attempted > 0;
            println!("{}", spec::result_json(&report, args.trace));
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        None => all::run(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ledger: {msg}");
            ExitCode::from(2)
        }
    }
}
