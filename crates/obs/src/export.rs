//! Trace exporters.
//!
//! * **JSONL** — one self-describing JSON object per line (`type` is
//!   `meta`, `span`, `lineage`, or `metric`). This is the format the
//!   `parsl-trace` CLI reads back.
//! * **Chrome `trace_event`** — a JSON array of complete (`"ph": "X"`)
//!   events loadable in `chrome://tracing` or Perfetto; one timeline row
//!   per task lineage.

use crate::json::escape;
use crate::lineage::LineageRecord;
use crate::metrics::{MetricSnapshot, MetricValue};
use crate::span::SpanRecord;
use std::io::Write;
use std::path::Path;

/// Trace format version written in the `meta` line.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Render one span as a JSONL line (no trailing newline).
pub(crate) fn span_line(s: &SpanRecord) -> String {
    format!(
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"lineage\":{},\
         \"kind\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
        s.id,
        s.parent,
        s.lineage,
        s.kind.as_str(),
        escape(&s.name),
        s.start_us,
        s.end_us
    )
}

/// Render one lineage record as a JSONL line.
pub(crate) fn lineage_line(r: &LineageRecord) -> String {
    let step = match &r.cwl_step {
        Some(s) => format!("\"{}\"", escape(s)),
        None => "null".to_string(),
    };
    let outcome = match &r.outcome {
        Some(o) => format!("\"{}\"", escape(o)),
        None => "null".to_string(),
    };
    let run = match &r.run {
        Some(n) => format!("\"{}\"", escape(n)),
        None => "null".to_string(),
    };
    format!(
        "{{\"type\":\"lineage\",\"task\":{},\"label\":\"{}\",\"cwl_step\":{step},\
         \"run\":{run},\"submit_us\":{},\"dispatch_us\":{},\"complete_us\":{},\
         \"attempts\":{},\"outcome\":{outcome}}}",
        r.task,
        escape(&r.label),
        r.submit_us,
        r.dispatch_us,
        r.complete_us,
        r.attempts
    )
}

/// Render one metric snapshot as a JSONL line.
pub(crate) fn metric_line(m: &MetricSnapshot) -> String {
    match &m.value {
        MetricValue::Counter(v) => format!(
            "{{\"type\":\"metric\",\"kind\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
            escape(&m.name)
        ),
        MetricValue::Gauge(v) => format!(
            "{{\"type\":\"metric\",\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{v}}}",
            escape(&m.name)
        ),
        MetricValue::Histogram {
            count,
            sum,
            p50,
            p99,
            max,
        } => format!(
            "{{\"type\":\"metric\",\"kind\":\"histogram\",\"name\":\"{}\",\
             \"count\":{count},\"sum\":{sum},\"p50\":{p50},\"p99\":{p99},\"max\":{max}}}",
            escape(&m.name)
        ),
    }
}

/// Write the complete JSONL trace to `path`.
pub(crate) fn write_jsonl(
    path: &Path,
    spans: &[SpanRecord],
    lineage: &[LineageRecord],
    metrics: &[MetricSnapshot],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"type\":\"meta\",\"format\":\"parsl-trace\",\"version\":{FORMAT_VERSION}}}"
    )?;
    for s in spans {
        writeln!(out, "{}", span_line(s))?;
    }
    for r in lineage {
        writeln!(out, "{}", lineage_line(r))?;
    }
    for m in metrics {
        writeln!(out, "{}", metric_line(m))?;
    }
    out.flush()
}

/// Write the spans in Chrome `trace_event` format.
pub(crate) fn write_chrome(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        // Complete event; duration at least 1µs so instant markers render.
        writeln!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
             \"name\":\"{}\",\"cat\":\"{}\",\
             \"args\":{{\"span\":{},\"parent\":{}}}}}{comma}",
            s.lineage,
            s.start_us,
            s.duration_us().max(1),
            escape(&format!("{}:{}", s.kind.as_str(), s.name)),
            s.kind.as_str(),
            s.id,
            s.parent
        )?;
    }
    writeln!(out, "],\"displayTimeUnit\":\"ms\"}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    fn span(id: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: 0,
            lineage: 1,
            kind: SpanKind::WorkerExec,
            name: "task \"one\"".to_string(),
            start_us: 10,
            end_us: 25,
        }
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let line = span_line(&span(3));
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(v.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("worker_exec"));
        assert_eq!(v.get("name").unwrap().as_str(), Some("task \"one\""));

        let rec = LineageRecord {
            task: 4,
            label: "l".into(),
            cwl_step: Some("resize".into()),
            run: Some("alice/run-3".into()),
            submit_us: 1,
            dispatch_us: 2,
            complete_us: 3,
            attempts: 1,
            outcome: Some("completed".into()),
        };
        let v = crate::json::parse(&lineage_line(&rec)).unwrap();
        assert_eq!(v.get("cwl_step").unwrap().as_str(), Some("resize"));
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("completed"));

        let m = MetricSnapshot {
            name: "n".into(),
            value: MetricValue::Histogram {
                count: 2,
                sum: 30,
                p50: 10,
                p99: 20,
                max: 20,
            },
        };
        let v = crate::json::parse(&metric_line(&m)).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("histogram"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let dir = std::env::temp_dir().join(format!("obs-chrome-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.chrome.json");
        write_chrome(&path, &[span(1), span(2)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v = crate::json::parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
