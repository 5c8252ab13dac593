//! Layer probes of the serve workload: direct calls into `core::proto` and
//! the admission path (`yamlite` → `cwl` load/validate/analyze), timed from
//! outside with the daemon's own executor capacity.

use crate::harness::{self, Ctx, Report, SLOTS};
use cwl_parsl::proto;
use obs::json::Json;

const REPS: usize = 200;

/// `core.proto_frame_us`: `write_frame` + `read_frame` of a typical submit
/// over an in-memory buffer. `core.proto_bridge_us`: `json_to_yaml` +
/// `yaml_to_json` of its inputs object.
pub fn proto(report: &mut Report, submit: &Json) -> Result<(), String> {
    let mut buf = Vec::with_capacity(4096);
    let mut failed = None;
    let frame_s = harness::per_call_s(REPS, || {
        buf.clear();
        let round_trip = proto::write_frame(&mut buf, std::hint::black_box(submit))
            .and_then(|()| proto::read_frame(&mut &buf[..]));
        match round_trip {
            Ok(Some(back)) if back == *submit => {}
            other => failed = Some(format!("frame did not round-trip: {other:?}")),
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    report.layer("core.proto_frame_us", frame_s * 1e6);

    let inputs = submit.get("inputs").cloned().unwrap_or(Json::Null);
    let bridge_s = harness::per_call_s(REPS, || {
        let yaml = proto::json_to_yaml(std::hint::black_box(&inputs));
        std::hint::black_box(proto::yaml_to_json(&yaml));
    });
    report.layer("core.proto_bridge_us", bridge_s * 1e6);
    Ok(())
}

/// What admitting one submission costs the daemon before it acks: parse,
/// load, validate and analyze each of the two submitted documents, with
/// the capacity of the daemon's thread pool.
pub fn admission(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let docs = [
        ctx.fixtures.join("diamond.cwl"),
        ctx.fixtures.join("scatter_words_py.cwl"),
    ];
    let capacity = cwl_parsl::lint::executor_capacity(&parsl::Config::local_threads(SLOTS));
    let opts = cwl::analyze::AnalyzeOptions {
        capacity: Some(capacity),
    };
    let (mut parse_s, mut load_s, mut validate_s, mut analyze_s) = (0.0, 0.0, 0.0, 0.0);
    let mut bytes = 0u64;
    for path in &docs {
        bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let doc = yamlite::parse_file(path).map_err(|e| e.to_string())?;
        cwl::load_file(path)?;
        if !cwl::analyze::analyze_file_opts(path, &opts).is_clean(false) {
            return Err(format!("{} does not pass admission", path.display()));
        }
        parse_s += harness::per_call_s(REPS, || {
            std::hint::black_box(yamlite::parse_file(path).expect("parsed above"));
        });
        load_s += harness::per_call_s(REPS, || {
            std::hint::black_box(cwl::load_file(path).expect("loaded above"));
        });
        validate_s += harness::per_call_s(REPS, || {
            std::hint::black_box(cwl::validate_document(std::hint::black_box(&doc)));
        });
        analyze_s += harness::per_call_s(REPS, || {
            std::hint::black_box(cwl::analyze::analyze_file_opts(path, &opts));
        });
    }
    let per_doc_us = |total_s: f64| total_s * 1e6 / docs.len() as f64;
    report.layer("yamlite.parse_us", per_doc_us(parse_s));
    report.layer(
        "yamlite.parse_mb_per_s",
        bytes as f64 / 1e6 / parse_s.max(1e-9),
    );
    report.layer("cwl.load_us", per_doc_us(load_s));
    report.layer("cwl.validate_us", per_doc_us(validate_s));
    report.layer("cwl.analyze_us", per_doc_us(analyze_s));
    Ok(())
}
