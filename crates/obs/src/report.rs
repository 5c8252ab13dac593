//! Reading exported traces back and rendering reports — the library
//! behind the `parsl-trace` CLI (also used directly by tests).

use crate::json::{self, Json};
use crate::lineage::LineageRecord;
use crate::span::{SpanKind, SpanRecord};
use std::collections::BTreeMap;
use std::path::Path;

/// A metric read back from a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMetric {
    /// Metric name.
    pub name: String,
    /// `counter`, `gauge`, or `histogram`.
    pub(crate) kind: String,
    /// Counter/gauge value (0 for histograms).
    pub value: i64,
    /// Histogram fields (zero for counters/gauges).
    pub(crate) count: u64,
    /// Sum of histogram samples.
    pub(crate) sum: u64,
    /// Median.
    pub(crate) p50: u64,
    /// 99th percentile.
    pub(crate) p99: u64,
    /// Maximum.
    pub(crate) max: u64,
}

/// A parsed trace file.
#[derive(Debug, Default)]
pub struct Trace {
    /// All spans, in id order.
    pub spans: Vec<SpanRecord>,
    /// All lineage records, in task order.
    pub lineage: Vec<LineageRecord>,
    /// All metrics, in name order.
    pub metrics: Vec<TraceMetric>,
}

/// Parse a JSONL trace file written by the exporter.
pub fn load_trace(path: &Path) -> Result<Trace, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse_trace(&text)
}

/// Parse JSONL trace text.
pub(crate) fn parse_trace(text: &str) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing type", lineno + 1))?;
        match kind {
            "meta" => {}
            "span" => trace.spans.push(parse_span(&v, lineno + 1)?),
            "lineage" => trace.lineage.push(parse_lineage(&v, lineno + 1)?),
            "metric" => trace.metrics.push(parse_metric(&v, lineno + 1)?),
            other => return Err(format!("line {}: unknown type {other:?}", lineno + 1)),
        }
    }
    trace.spans.sort_by_key(|s| s.id);
    trace.lineage.sort_by_key(|r| r.task);
    trace.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(trace)
}

fn field_u64(v: &Json, key: &str, lineno: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {lineno}: missing {key}"))
}

fn field_str(v: &Json, key: &str, lineno: usize) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line {lineno}: missing {key}"))
}

fn parse_span(v: &Json, lineno: usize) -> Result<SpanRecord, String> {
    let kind_name = field_str(v, "kind", lineno)?;
    Ok(SpanRecord {
        id: field_u64(v, "id", lineno)?,
        parent: field_u64(v, "parent", lineno)?,
        lineage: field_u64(v, "lineage", lineno)?,
        kind: SpanKind::parse(&kind_name)
            .ok_or_else(|| format!("line {lineno}: unknown span kind {kind_name:?}"))?,
        name: field_str(v, "name", lineno)?,
        start_us: field_u64(v, "start_us", lineno)?,
        end_us: field_u64(v, "end_us", lineno)?,
    })
}

fn parse_lineage(v: &Json, lineno: usize) -> Result<LineageRecord, String> {
    Ok(LineageRecord {
        task: field_u64(v, "task", lineno)?,
        label: field_str(v, "label", lineno)?,
        cwl_step: v.get("cwl_step").and_then(Json::as_str).map(str::to_string),
        run: v.get("run").and_then(Json::as_str).map(str::to_string),
        submit_us: field_u64(v, "submit_us", lineno)?,
        dispatch_us: field_u64(v, "dispatch_us", lineno)?,
        complete_us: field_u64(v, "complete_us", lineno)?,
        attempts: field_u64(v, "attempts", lineno)? as u32,
        outcome: v.get("outcome").and_then(Json::as_str).map(str::to_string),
    })
}

fn parse_metric(v: &Json, lineno: usize) -> Result<TraceMetric, String> {
    let kind = field_str(v, "kind", lineno)?;
    let num = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(TraceMetric {
        name: field_str(v, "name", lineno)?,
        value: v.get("value").and_then(Json::as_f64).unwrap_or(0.0) as i64,
        count: num("count"),
        sum: num("sum"),
        p50: num("p50"),
        p99: num("p99"),
        max: num("max"),
        kind,
    })
}

/// Per-stage latency breakdown for one task, derived from its spans and
/// lineage record (all µs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TaskPath {
    /// Parsl task id.
    pub(crate) task: u64,
    /// Label (and CWL step id, when bound).
    pub(crate) name: String,
    /// submit → first dispatch.
    pub(crate) prep_us: u64,
    /// dispatch → worker execution start (queue + transit).
    pub(crate) queue_us: u64,
    /// Worker execution time.
    pub(crate) exec_us: u64,
    /// Execution end → completion (result return).
    pub(crate) result_us: u64,
    /// submit → completion.
    pub(crate) total_us: u64,
    /// Which stage dominates.
    pub(crate) dominant: &'static str,
}

/// Compute the per-task critical-path breakdown, slowest total first.
pub(crate) fn task_paths(trace: &Trace) -> Vec<TaskPath> {
    let mut exec_by_lineage: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in &trace.spans {
        if matches!(s.kind, SpanKind::WorkerExec | SpanKind::ToolExec) {
            // First execution attempt wins.
            exec_by_lineage
                .entry(s.lineage)
                .or_insert((s.start_us, s.end_us));
        }
    }
    let mut out = Vec::new();
    for r in &trace.lineage {
        if r.complete_us == 0 {
            continue;
        }
        let name = match &r.cwl_step {
            Some(step) if step != &r.label => format!("{} [{}]", r.label, step),
            _ => r.label.clone(),
        };
        let total_us = r.complete_us.saturating_sub(r.submit_us);
        let (prep_us, queue_us, exec_us, result_us) = match exec_by_lineage.get(&r.task) {
            Some(&(exec_start, exec_end)) if r.dispatch_us != 0 => (
                r.dispatch_us.saturating_sub(r.submit_us),
                exec_start.saturating_sub(r.dispatch_us),
                exec_end.saturating_sub(exec_start),
                r.complete_us.saturating_sub(exec_end),
            ),
            _ => (total_us, 0, 0, 0), // memoized or untraced
        };
        let stages = [
            ("prep", prep_us),
            ("queue", queue_us),
            ("exec", exec_us),
            ("result", result_us),
        ];
        let dominant = stages.iter().max_by_key(|(_, v)| *v).unwrap().0;
        out.push(TaskPath {
            task: r.task,
            name,
            prep_us,
            queue_us,
            exec_us,
            result_us,
            total_us,
            dominant,
        });
    }
    out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.task.cmp(&b.task)));
    out
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Human-readable summary: span-kind table, task outcomes, and metrics.
pub fn summary_text(trace: &Trace) -> String {
    let mut out = String::new();
    let done = trace.lineage.iter().filter(|r| r.complete_us != 0).count();
    out.push_str(&format!(
        "tasks: {} ({} finished)   spans: {}   metrics: {}\n",
        trace.lineage.len(),
        done,
        trace.spans.len(),
        trace.metrics.len()
    ));

    let mut by_kind: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in &trace.spans {
        let e = by_kind.entry(s.kind.as_str()).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.duration_us();
        e.2 = e.2.max(s.duration_us());
    }
    if !by_kind.is_empty() {
        out.push_str(&format!(
            "\n{:<16} {:>8} {:>12} {:>12} {:>12}\n",
            "span kind", "count", "total", "mean", "max"
        ));
        for kind in SpanKind::ALL {
            if let Some((count, total, max)) = by_kind.get(kind.as_str()) {
                out.push_str(&format!(
                    "{:<16} {:>8} {:>12} {:>12} {:>12}\n",
                    kind.as_str(),
                    count,
                    fmt_us(*total),
                    fmt_us(total / count.max(&1)),
                    fmt_us(*max)
                ));
            }
        }
    }

    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &trace.lineage {
        *outcomes
            .entry(r.outcome.as_deref().unwrap_or("running"))
            .or_default() += 1;
    }
    if !outcomes.is_empty() {
        out.push_str("\noutcomes:");
        for (outcome, n) in &outcomes {
            out.push_str(&format!(" {outcome}={n}"));
        }
        out.push('\n');
    }

    if !trace.metrics.is_empty() {
        out.push_str("\nmetrics:\n");
        for m in &trace.metrics {
            match m.kind.as_str() {
                "histogram" => out.push_str(&format!(
                    "  {:<34} count={} mean={} p50={} p99={} max={}\n",
                    m.name,
                    m.count,
                    fmt_us(m.sum.checked_div(m.count).unwrap_or(0)),
                    fmt_us(m.p50),
                    fmt_us(m.p99),
                    fmt_us(m.max)
                )),
                _ => out.push_str(&format!("  {:<34} {}\n", m.name, m.value)),
            }
        }
    }
    out
}

/// Per-task critical-path report (slowest `top` tasks).
pub fn critical_path_text(trace: &Trace, top: usize) -> String {
    let paths = task_paths(trace);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:<28} {:>10} {:>10} {:>10} {:>10} {:>10}  dominant\n",
        "task", "name", "total", "prep", "queue", "exec", "result"
    ));
    for p in paths.iter().take(top) {
        out.push_str(&format!(
            "{:<6} {:<28} {:>10} {:>10} {:>10} {:>10} {:>10}  {}\n",
            p.task,
            truncate(&p.name, 28),
            fmt_us(p.total_us),
            fmt_us(p.prep_us),
            fmt_us(p.queue_us),
            fmt_us(p.exec_us),
            fmt_us(p.result_us),
            p.dominant
        ));
    }
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

/// Machine-readable summary (a single JSON object).
pub fn summary_json(trace: &Trace) -> String {
    let mut by_kind: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in &trace.spans {
        let e = by_kind.entry(s.kind.as_str()).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.duration_us();
        e.2 = e.2.max(s.duration_us());
    }
    let kinds: Vec<String> = by_kind
        .iter()
        .map(|(kind, (count, total, max))| {
            format!(
                "{{\"kind\":\"{kind}\",\"count\":{count},\"total_us\":{total},\"max_us\":{max}}}"
            )
        })
        .collect();

    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    for r in &trace.lineage {
        *outcomes
            .entry(r.outcome.clone().unwrap_or_else(|| "running".into()))
            .or_default() += 1;
    }
    let outcome_fields: Vec<String> = outcomes
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json::escape(k)))
        .collect();

    let metric_fields: Vec<String> = trace
        .metrics
        .iter()
        .map(|m| match m.kind.as_str() {
            "histogram" => format!(
                "{{\"name\":\"{}\",\"kind\":\"histogram\",\"count\":{},\"sum\":{},\
                 \"p50\":{},\"p99\":{},\"max\":{}}}",
                json::escape(&m.name),
                m.count,
                m.sum,
                m.p50,
                m.p99,
                m.max
            ),
            kind => format!(
                "{{\"name\":\"{}\",\"kind\":\"{kind}\",\"value\":{}}}",
                json::escape(&m.name),
                m.value
            ),
        })
        .collect();

    let paths: Vec<String> = task_paths(trace)
        .iter()
        .map(|p| {
            format!(
                "{{\"task\":{},\"name\":\"{}\",\"total_us\":{},\"prep_us\":{},\
                 \"queue_us\":{},\"exec_us\":{},\"result_us\":{},\"dominant\":\"{}\"}}",
                p.task,
                json::escape(&p.name),
                p.total_us,
                p.prep_us,
                p.queue_us,
                p.exec_us,
                p.result_us,
                p.dominant
            )
        })
        .collect();

    format!(
        "{{\"tasks\":{},\"spans\":{},\"span_kinds\":[{}],\"outcomes\":{{{}}},\
         \"metrics\":[{}],\"critical_path\":[{}]}}",
        trace.lineage.len(),
        trace.spans.len(),
        kinds.join(","),
        outcome_fields.join(","),
        metric_fields.join(","),
        paths.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        parse_trace(concat!(
            "{\"type\":\"meta\",\"format\":\"parsl-trace\",\"version\":1}\n",
            "{\"type\":\"span\",\"id\":1,\"parent\":0,\"lineage\":1,\"kind\":\"submit\",\"name\":\"a\",\"start_us\":0,\"end_us\":5}\n",
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"lineage\":1,\"kind\":\"worker_exec\",\"name\":\"a\",\"start_us\":20,\"end_us\":80}\n",
            "{\"type\":\"lineage\",\"task\":1,\"label\":\"a\",\"cwl_step\":\"resize\",\"submit_us\":0,\"dispatch_us\":10,\"complete_us\":100,\"attempts\":1,\"outcome\":\"completed\"}\n",
            "{\"type\":\"metric\",\"kind\":\"counter\",\"name\":\"parsl.dfk.tasks_submitted\",\"value\":1}\n",
            "{\"type\":\"metric\",\"kind\":\"histogram\",\"name\":\"parsl.task.exec_us\",\"count\":1,\"sum\":60,\"p50\":60,\"p99\":60,\"max\":60}\n",
        ))
        .unwrap()
    }

    #[test]
    fn parses_all_record_types() {
        let t = sample_trace();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.lineage.len(), 1);
        assert_eq!(t.metrics.len(), 2);
        assert_eq!(t.spans[1].kind, SpanKind::WorkerExec);
        assert_eq!(t.lineage[0].cwl_step.as_deref(), Some("resize"));
    }

    #[test]
    fn critical_path_breaks_down_stages() {
        let t = sample_trace();
        let paths = task_paths(&t);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.prep_us, 10); // 0 → 10
        assert_eq!(p.queue_us, 10); // 10 → 20
        assert_eq!(p.exec_us, 60); // 20 → 80
        assert_eq!(p.result_us, 20); // 80 → 100
        assert_eq!(p.total_us, 100);
        assert_eq!(p.dominant, "exec");
        assert_eq!(p.name, "a [resize]");
    }

    #[test]
    fn summary_text_mentions_kinds_and_outcomes() {
        let text = summary_text(&sample_trace());
        assert!(text.contains("worker_exec"), "{text}");
        assert!(text.contains("completed=1"), "{text}");
        assert!(text.contains("parsl.task.exec_us"), "{text}");
    }

    #[test]
    fn summary_json_is_valid_json() {
        let s = summary_json(&sample_trace());
        let v = json::parse(&s).unwrap();
        assert_eq!(v.get("tasks").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("outcomes")
                .unwrap()
                .get("completed")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(v.get("critical_path").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn bad_lines_are_reported_with_line_numbers() {
        let err = parse_trace("{\"type\":\"span\"}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_trace("{\"type\":\"wat\"}\n").unwrap_err();
        assert!(err.contains("unknown type"), "{err}");
    }
}
