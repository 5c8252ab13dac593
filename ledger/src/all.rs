//! Every workload in one command: each in its own sequential child
//! process (so `peak_rss_mb` is per workload), untraced and then traced;
//! prints every metric by name with its unit and ends with a JSON summary.
//! `--repeat K --check` runs the whole set K times and fails if any
//! end-to-end metric's runs disagree by more than its bound.

use crate::harness;
use crate::spec::{self, Metric};
use crate::stats;
use crate::Args;
use cwl_parsl::proto::{self, obj, s};
use obs::json::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// `--seconds` under `--smoke` when none is given: short enough that all
/// workloads, traced runs included, finish in a few seconds.
const SMOKE_SECONDS: f64 = 0.3;

/// One child run's result line, decoded.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process; echo its notes; decode its result.
fn child(
    args: &Args,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("  {line}");
    }
    let doc = obs::json::parse(last).map_err(|_| {
        // A run the watchdog gave up on, or one that died, prints no result.
        format!(
            "{workload} ({}) exited with {} and no result",
            if trace { "traced" } else { "untraced" },
            out.status
        )
    })?;
    let count = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(m)) = doc.get("metrics") {
        for (name, v) in m {
            if let Some(value) = v.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), value);
            }
        }
    }
    Ok(RunResult {
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

/// Everything measured for one workload across the repeated sets.
#[derive(Default)]
struct Collected {
    attempted: u64,
    failed: u64,
    /// End-to-end metric → one value per set.
    end_to_end: BTreeMap<String, Vec<f64>>,
    per_layer: BTreeMap<String, f64>,
}

/// How much runs of the same code disagree, as a share: with four or more
/// runs the distance between their quartiles over their median (what the
/// benchmark driver computes from ten); with fewer, (max − min) / min.
fn disagreement(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return stats::spread(values);
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.len() < 2 || min <= 0.0 {
        0.0
    } else {
        (max - min) / min
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(harness::repo_root())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    // `--seconds` keeps its default unless given; smoke shortens it.
    let seconds = if args.smoke && args.seconds == spec::RUN_SECONDS as f64 {
        SMOKE_SECONDS
    } else {
        args.seconds
    };
    let mut collected: BTreeMap<&'static str, Collected> = BTreeMap::new();
    let mut broken = Vec::new();
    for set in 0..args.repeat {
        for w in spec::WORKLOADS {
            println!(
                "== {} (set {} of {}): {}",
                w.name,
                set + 1,
                args.repeat,
                w.why
            );
            let entry = collected.entry(w.name).or_default();
            // Each set has a seed of its own, as the benchmark driver's runs do.
            let seed = args.seed.wrapping_add(set as u64);
            match child(args, w.name, seed, seconds, false) {
                Ok(r) => {
                    entry.attempted += r.attempted;
                    entry.failed += r.failed;
                    for (name, value) in r.metrics {
                        entry.end_to_end.entry(name).or_default().push(value);
                    }
                }
                Err(e) => {
                    // Every operation of the workload counts as failed.
                    entry.attempted += 1;
                    entry.failed += 1;
                    broken.push(e);
                }
            }
            // One traced run per workload, in the first set only.
            if set == 0 {
                match child(args, w.name, seed, seconds, true) {
                    Ok(r) => {
                        entry.attempted += r.attempted;
                        entry.failed += r.failed;
                        entry.per_layer = r.metrics;
                    }
                    Err(e) => {
                        entry.attempted += 1;
                        entry.failed += 1;
                        broken.push(e);
                    }
                }
            }
        }
    }

    // Every metric by name, with its unit.
    println!(
        "\n{:<14} {:<34} {:>8}  values",
        "workload", "metric", "unit"
    );
    let unit_of =
        |table: &[Metric], name: &str| table.iter().find(|m| m.name == name).map_or("", |m| m.unit);
    let mut check_failures = Vec::new();
    for w in spec::WORKLOADS {
        let c = &collected[w.name];
        for m in spec::END_TO_END {
            let values = c.end_to_end.get(m.name).cloned().unwrap_or_default();
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            let gap = disagreement(&values);
            println!(
                "{:<14} {:<34} {:>8}  {}{}",
                w.name,
                m.name,
                m.unit,
                shown.join("  "),
                if values.len() > 1 {
                    format!(
                        "  (runs differ by {:.1}%, bound {:.0}%)",
                        gap * 100.0,
                        m.bound * 100.0
                    )
                } else {
                    String::new()
                }
            );
            if args.check && gap > m.bound {
                check_failures.push(format!(
                    "{} {}: runs of the same code differ by {:.1}%, more than the {:.0}% bound",
                    w.name,
                    m.name,
                    gap * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        println!(
            "{:<14} {:<34} {:>8}  {} of {} operations",
            w.name, "failed", "count", c.failed, c.attempted
        );
        for (name, value) in &c.per_layer {
            // Layers a workload does not exercise read 0; leave them out.
            if *value != 0.0 {
                println!(
                    "{:<14} {:<34} {:>8}  {value:.4}",
                    w.name,
                    name,
                    unit_of(spec::PER_LAYER, name)
                );
            }
        }
    }
    for e in &broken {
        println!("FAILED: {e}");
    }
    for e in &check_failures {
        println!("CHECK FAILED: {e}");
    }

    // The summary: what ran, on what, and what it measured. It claims nothing.
    let num = |v: f64| Json::Num(v);
    let workloads = spec::WORKLOADS
        .iter()
        .map(|w| {
            let c = &collected[w.name];
            let e2e = spec::END_TO_END
                .iter()
                .map(|m| {
                    let values = c.end_to_end.get(m.name).cloned().unwrap_or_default();
                    let fields = vec![
                        ("unit", s(m.unit)),
                        ("better", s(m.better)),
                        ("bound", num(m.bound)),
                        ("runs_differ_by", num(disagreement(&values))),
                        ("values", Json::Arr(values.into_iter().map(num).collect())),
                    ];
                    (m.name, obj(fields))
                })
                .collect();
            let layers = c
                .per_layer
                .iter()
                .map(|(name, v)| {
                    let unit = unit_of(spec::PER_LAYER, name);
                    (
                        name.as_str(),
                        obj(vec![("unit", s(unit)), ("value", num(*v))]),
                    )
                })
                .collect();
            let fields = vec![
                ("attempted", num(c.attempted as f64)),
                ("failed", num(c.failed as f64)),
                (
                    "failed_frac",
                    num(c.failed as f64 / c.attempted.max(1) as f64),
                ),
                ("end_to_end", obj(e2e)),
                ("per_layer", obj(layers)),
            ];
            (w.name, obj(fields))
        })
        .collect();
    let run = obj(vec![
        ("seed", num(args.seed as f64)),
        ("seconds", num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("repeat", num(args.repeat as f64)),
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("slots", num(harness::SLOTS as f64)),
        ("time_scale", num(spec::TIME_SCALE)),
        ("git_commit", s(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", s(command_line("rustc", &["--version"]))),
        (
            "sizes",
            obj(vec![
                ("fig1_images", num(crate::fig1::IMAGES as f64)),
                ("fig1_image_px", num(crate::fig1::IMAGE_PX as f64)),
                ("fig2_words", num(crate::fig2::WORDS as f64)),
                ("storm_wide_tasks", num(crate::storm::WIDE_TASKS as f64)),
                ("storm_chains", num(crate::storm::CHAINS as f64)),
                ("storm_chain_len", num(crate::storm::CHAIN_LEN as f64)),
                ("serve_rate_per_s", num(crate::serve_mix::RATE_PER_S)),
                (
                    "serve_words_per_run",
                    num(crate::serve_mix::WORDS_PER_RUN as f64),
                ),
            ]),
        ),
    ]);
    let failed = !broken.is_empty()
        || !check_failures.is_empty()
        || collected.values().any(|c| c.failed > 0);
    let check = match (args.check, check_failures.is_empty()) {
        (false, _) => "null",
        (true, true) => "\"passed\"",
        (true, false) => "\"failed\"",
    };
    // Written by hand at the top level only, so that it ends with the claim.
    let summary = format!(
        "{{\"run\": {}, \"workloads\": {}, \"check\": {check}, \"ok\": {}, \"claim\": null}}",
        proto::render(&run),
        proto::render(&obj(workloads)),
        !failed,
    );
    let path = harness::output_dir()?.join("summary.json");
    harness::write_file(&path, &summary)?;
    println!("\nsummary written to {}", path.display());
    println!("{summary}");
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_relative_to_the_smaller_run() {
        assert_eq!(disagreement(&[100.0, 110.0]), 0.1);
        assert_eq!(disagreement(&[110.0, 100.0, 105.0]), 0.1);
        assert_eq!(disagreement(&[5.0]), 0.0);
        assert_eq!(disagreement(&[]), 0.0);
        // Four or more runs: quartile spread, which one outlier cannot move.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(disagreement(&ten), stats::spread(&ten));
        let mut outlier: Vec<f64> = (100..109).map(f64::from).collect();
        outlier.push(500.0);
        assert!(disagreement(&outlier) < 0.1);
    }
}
