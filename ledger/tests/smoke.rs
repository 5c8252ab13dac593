//! Drives the built `ledger` binary the way a user would: every workload
//! at smoke size, untraced and traced, outputs verified, summary JSON at the
//! end. Keeps `cargo test` covering the driver end to end.

use std::process::Command;

fn ledger() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
}

#[test]
fn smoke_runs_every_workload_and_claims_nothing() {
    let out = ledger().arg("--smoke").output().expect("ledger runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "ledger --smoke failed\n--- stdout\n{stdout}\n--- stderr\n{stderr}"
    );
    let summary = stdout.lines().last().unwrap_or_default();
    assert!(summary.ends_with("\"claim\": null}"), "{summary}");
    assert!(summary.contains("\"ok\": true"), "{summary}");
    for workload in [
        "fig1_images",
        "fig1_resume",
        "fig2_words",
        "fig2_baseline",
        "task_storm",
        "storm_chain",
        "serve_mix",
    ] {
        assert!(
            summary.contains(&format!("\"{workload}\":{{\"attempted\"")),
            "summary has no {workload}: {summary}"
        );
        // The traced run printed the per-layer table for this workload.
        assert!(
            stdout.contains(&format!("per-layer table, {workload}")),
            "no per-layer table for {workload}"
        );
    }
    assert!(stdout.contains("gridsim.modelled_s_per_task"));
    assert!(stdout.contains("ledger.trace_overhead_frac"));
}

#[test]
fn one_workload_prints_the_contract_result_line() {
    let out = ledger()
        .args(["--smoke", "--workload", "storm_chain", "--seed", "3"])
        .args(["--seconds", "0.2", "--trace", "0"])
        .output()
        .expect("ledger runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.contains("\"correct\":true"), "{last}");
    for metric in ["run_p50_ms", "run_tail_ms", "peak_rss_mb", "setup_s"] {
        assert!(last.contains(&format!("\"{metric}\":{{")), "{last}");
    }
}

#[test]
fn bad_arguments_and_debug_builds_are_refused() {
    let out = ledger()
        .args(["--smoke", "--workload", "no_such_workload"])
        .output()
        .expect("ledger runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));

    let out = ledger().arg("--bogus").output().expect("ledger runs");
    assert!(!out.status.success());

    // Tests build unoptimised: without --smoke the ledger refuses to measure.
    if cfg!(debug_assertions) {
        let out = ledger()
            .args(["--workload", "task_storm"])
            .output()
            .expect("ledger runs");
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
    }
}
