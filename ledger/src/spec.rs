//! The ledger's fixed vocabulary: workloads, metric names with their units,
//! directions and regression bounds, and the result line the benchmark
//! contract asks for. `BENCHMARK.json` at the repository root repeats these
//! names; a unit test keeps the two in step.

use crate::harness::{Ctx, Report};
use crate::stats;
use cwl_parsl::proto;
use obs::json::Json;

/// Default `--seed`, recorded in the summary JSON.
pub const DEFAULT_SEED: u64 = 20240917;

/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// `gridsim::TimeScale` for every end-to-end leg: modelled latencies are
/// scaled to nothing, so only real cost is measured.
pub const TIME_SCALE: f64 = 0.0;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&Ctx) -> Result<Report, String>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig1_images",
        why: "paper Fig. 1 through the CLI path on HTEX with staging and a journal: imaging, datastore, cwlexec and ckpt writes do the work; expr and serve do none",
        run: crate::fig1::run_images,
    },
    Workload {
        name: "fig1_resume",
        why: "resumes the journal a finished Fig. 1 run left: replays every task, runs none, so a ckpt or datastore write-path gain that costs the read path shows",
        run: crate::fig1::run_resume,
    },
    Workload {
        name: "fig2_words",
        why: "paper Fig. 2, InlinePython scatter on the Parsl thread pool: yamlite, cwl, expr and per-task Value handling dominate; scatter-width (O(n^2)) costs show",
        run: crate::fig2::run_words,
    },
    Workload {
        name: "fig2_baseline",
        why: "the same scatter with InlineJavascript on RefRunner: shares expr and workflow semantics with fig2_words through the other implementation",
        run: crate::fig2::run_baseline,
    },
    Workload {
        name: "task_storm",
        why: "independent no-op tasks straight into DataFlowKernel::submit on HTEX: queue- and lock-throughput-bound; every CWL and data layer is bypassed",
        run: crate::storm::run_wide,
    },
    Workload {
        name: "storm_chain",
        why: "four dependency chains of no-op tasks on HTEX: per-hop-latency-bound (futures, wake-ups), so batching that helps task_storm and hurts hops shows",
        run: crate::storm::run_chain,
    },
    Workload {
        name: "serve_mix",
        why: "open-loop Poisson arrivals at a warm parsl-serve daemon, diamond and 16-word scatter mixed: serve, proto, admission analysis and per-run journals dominate",
        run: crate::serve_mix::run,
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound,
    }
}

/// What a user of the system sees, on every workload. Every bound is the
/// contract's maximum: on the two-core VM this was written on, the quartile
/// spread of ten runs' medians is 3–10 % for the timings (host scheduling
/// moves a whole run by that much) and up to 15 % for the storm's peak RSS,
/// and a bound has to clear the spread with room to spare.
///
/// * `run_p50_ms` — median wall of one workflow run: on the batch workloads
///   one timed iteration (config load to outputs returned, or first submit
///   to `wait_all` return); on `serve_mix` a run's due time to its first
///   `completed` status.
/// * `run_tail_ms` — the highest percentile, up to the one the workload
///   states (p90 on `serve_mix`, p75 on the batch workloads), with at least
///   ten samples beyond it (`stats::tail`); the median when there are too
///   few samples for any. The percentile and sample count are printed.
/// * `peak_rss_mb` — `VmHWM` of the process hosting the system under test.
/// * `setup_s` — median of the set-up repetitions: input generation, config
///   writing, daemon start to first `ping`, warm-up.
pub const END_TO_END: &[Metric] = &[
    e2e("run_p50_ms", "ms", 0.25),
    e2e("run_tail_ms", "ms", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
    e2e("setup_s", "s", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Per-layer metrics (layer = crate name), measured from outside in the
/// traced run. A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[Metric] = &[
    layer("yamlite.parse_us", "us", "lower"),
    layer("yamlite.parse_mb_per_s", "MB/s", "higher"),
    layer("yamlite.emit_us", "us", "lower"),
    layer("cwl.load_us", "us", "lower"),
    layer("cwl.validate_us", "us", "lower"),
    layer("cwl.analyze_us", "us", "lower"),
    layer("cwl.build_command_us", "us", "lower"),
    layer("expr.py_eval_us_n16", "us", "lower"),
    layer("expr.py_eval_us_n2048", "us", "lower"),
    layer("expr.js_eval_us_n16", "us", "lower"),
    layer("expr.js_eval_us_n2048", "us", "lower"),
    layer("expr.cache_hit_ratio", "ratio", "higher"),
    layer("core.config_load_us", "us", "lower"),
    layer("core.run_self_s", "s", "lower"),
    layer("core.overhead_us_per_task", "us", "lower"),
    layer("core.proto_frame_us", "us", "lower"),
    layer("core.proto_bridge_us", "us", "lower"),
    layer("cwlexec.tool_count", "count", "lower"),
    layer("cwlexec.tool_busy_s", "s", "lower"),
    layer("cwlexec.tool_p50_us", "us", "lower"),
    layer("cwlexec.execute_tool_us", "us", "lower"),
    layer("imaging.resize_us", "us", "lower"),
    layer("imaging.sepia_us", "us", "lower"),
    layer("imaging.blur_us", "us", "lower"),
    layer("imaging.codec_mb_per_s", "MB/s", "higher"),
    layer("datastore.ingest_files_per_s", "1/s", "higher"),
    layer("datastore.hash_mb_per_s", "MB/s", "higher"),
    layer("datastore.link_ratio", "ratio", "higher"),
    layer("datastore.hit_ratio", "ratio", "higher"),
    layer("datastore.bytes_copied", "bytes", "lower"),
    layer("ckpt.appended", "count", "lower"),
    layer("ckpt.replayed", "count", "higher"),
    layer("ckpt.invalidated", "count", "lower"),
    layer("ckpt.journal_bytes", "bytes", "lower"),
    layer("ckpt.prepare_resume_ms", "ms", "lower"),
    layer("parsl.dfk_start_ms", "ms", "lower"),
    layer("parsl.dfk_shutdown_ms", "ms", "lower"),
    layer("parsl.submit_us", "us", "lower"),
    layer("parsl.drain_s", "s", "lower"),
    layer("parsl.task_rtt_us", "us", "lower"),
    layer("parsl.tasks_per_s", "1/s", "higher"),
    layer("parsl.threadpool_tasks_per_s", "1/s", "higher"),
    layer("parsl.htex_vs_threadpool", "ratio", "lower"),
    layer("gridsim.lan_tasks_per_s", "1/s", "higher"),
    layer("gridsim.modelled_s_per_task", "s", "lower"),
    layer("runners.ref_overhead_us_per_task", "us", "lower"),
    layer("runners.toil_makespan_s", "s", "lower"),
    layer("serve.start_ms", "ms", "lower"),
    layer("serve.ping_rtt_p50_ms", "ms", "lower"),
    layer("serve.submit_ack_p50_ms", "ms", "lower"),
    layer("serve.submit_ack_p95_ms", "ms", "lower"),
    layer("serve.status_rtt_p50_ms", "ms", "lower"),
    layer("serve.polls_per_run", "count", "lower"),
    layer("serve.generator_late_p95_ms", "ms", "lower"),
    layer("serve.diamond_p50_ms", "ms", "lower"),
    layer("serve.words_p50_ms", "ms", "lower"),
    layer("serve.drain_ms", "ms", "lower"),
    layer("serve.daemon_cpu_s", "s", "lower"),
    layer("obs.monitoring_overhead_frac", "ratio", "lower"),
    layer("obs.export_ms", "ms", "lower"),
    layer("ledger.trace_overhead_frac", "ratio", "lower"),
];

/// The end-to-end values of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end_values(report: &Report) -> [f64; 4] {
    [
        stats::median(&report.run_ms),
        stats::tail(&report.run_ms, report.tail_percentile).value,
        report.peak_rss_mb,
        stats::median(&report.setup_s),
    ]
}

fn metric_json(value: f64, unit: &str) -> Json {
    // Rendered with `{}`: the shortest text that reads back as the same
    // f64, i.e. the value as measured, with all its digits.
    let value = if value.is_finite() { value } else { 0.0 };
    proto::obj(vec![("value", Json::Num(value)), ("unit", proto::s(unit))])
}

/// The one-line result: `correct`, `attempted`, `failed`, `metrics` —
/// every end-to-end metric for an untraced run, every per-layer metric for
/// a traced one.
pub fn result_json(report: &Report, traced: bool) -> String {
    let metrics: Vec<(&str, Json)> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = report.layers.get(m.name).copied().unwrap_or(0.0);
                (m.name, metric_json(v, m.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end_values(report))
            .map(|(m, v)| (m.name, metric_json(v, m.unit)))
            .collect()
    };
    proto::render(&proto::obj(vec![
        (
            "correct",
            Json::Bool(report.failed == 0 && report.attempted > 0),
        ),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", proto::obj(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names<'a>(doc: &'a Json, key: &str) -> Vec<&'a str> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// `BENCHMARK.json` and this file name the same workloads and metrics,
    /// with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = crate::harness::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = obs::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            names(&doc, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            assert_eq!(
                names(&doc, key),
                table.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{key}"
            );
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            for (item, m) in items.iter().zip(table) {
                assert_eq!(
                    item.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    item.get("better").and_then(Json::as_str),
                    Some(m.better),
                    "{}",
                    m.name
                );
                if key == "end_to_end" {
                    let bound = match item.get("bound") {
                        Some(Json::Num(b)) => *b,
                        _ => panic!("{} has no bound", m.name),
                    };
                    assert_eq!(bound, m.bound, "{}", m.name);
                }
            }
        }
        let Some(Json::Arr(items)) = doc.get("workloads") else {
            panic!("workloads missing");
        };
        for (item, w) in items.iter().zip(WORKLOADS) {
            assert_eq!(
                item.get("why").and_then(Json::as_str),
                Some(w.why),
                "{}",
                w.name
            );
            assert!(
                w.why.len() <= 200,
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.count(10, 0);
        r.run_ms = vec![1.5, 2.5, 3.5];
        r.setup_s = vec![0.25];
        r.peak_rss_mb = 12.0;
        let doc = obs::json::parse(&result_json(&r, false)).unwrap();
        let Json::Obj(top) = &doc else { panic!() };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["run_p50_ms"].get("value"), Some(&Json::Num(2.5)));

        r.layer("yamlite.parse_us", 3.25);
        r.count(1, 1);
        let doc = obs::json::parse(&result_json(&r, true)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics["yamlite.parse_us"].get("value"),
            Some(&Json::Num(3.25))
        );
        assert_eq!(
            metrics["serve.drain_ms"].get("value"),
            Some(&Json::Num(0.0))
        );
    }
}
