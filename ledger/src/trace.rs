//! The ledger's own span recorder. Spans are recorded from the benchmark's
//! files, around the calls into each layer; nothing inside the program is
//! instrumented. Spans stay in memory and are written out at exit.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover. Children that run in parallel (tool
//! executions on two workers) overlap each other, so the per-layer table
//! attributes every instant of the traced wall to the deepest spans active
//! at that instant, split equally among them: a parent keeps exactly
//! `duration − union(children)`, overlapping siblings share their overlap,
//! and the self times of all layers sum to the traced wall.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root; `trace` groups the spans
/// of one request (one iteration, one served run).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder, shared by reference across the driver's
/// threads and the traced tool dispatch.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserve an id, so children can name their parent before it ends.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a reserved id.
    pub fn record(&self, id: u64, parent: u64, trace: u64, name: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span recorder lock poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                trace,
                name,
                start_ns,
                end_ns,
            });
    }

    /// Time `f` as a span named `name` under `parent`; returns `f`'s value
    /// and the span's duration in seconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        trace: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = self.next_id();
        let start = self.now_ns();
        let out = f(id);
        let secs = (self.now_ns() - start) as f64 / 1e9;
        self.record(id, parent, trace, name, start);
        (out, secs)
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder lock poisoned by a panicking thread")
            .clone()
    }
}

/// One row of the per-layer table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerRow {
    pub count: u64,
    /// Sum of span durations (lane time; exceeds wall for parallel spans).
    pub busy_ns: u64,
    /// Wall time attributed to this layer (see the module comment).
    pub self_ns: f64,
}

/// Attribute the traced wall to layers: at every instant the deepest active
/// spans (active spans with no active child) share the instant equally.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    for s in spans {
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.busy_ns += s.duration_ns();
    }
    // Sweep: ends before starts at equal times, so back-to-back spans never
    // count as concurrent.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns > s.start_ns {
            events.push((s.start_ns, true, i));
            events.push((s.end_ns, false, i));
        }
    }
    events.sort_unstable_by_key(|&(t, is_start, _)| (t, is_start));
    let mut active: Vec<usize> = Vec::new();
    let mut active_children = vec![0u32; spans.len()];
    let mut last = 0u64;
    for (t, is_start, i) in events {
        if t > last && !active.is_empty() {
            let leaves: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&a| active_children[a] == 0)
                .collect();
            let share = (t - last) as f64 / leaves.len().max(1) as f64;
            for leaf in leaves {
                rows.get_mut(spans[leaf].name)
                    .expect("row created in first pass")
                    .self_ns += share;
            }
        }
        last = t;
        let parent = index.get(&spans[i].parent).copied();
        if is_start {
            active.push(i);
            if let Some(p) = parent {
                active_children[p] += 1;
            }
        } else {
            active.retain(|&a| a != i);
            if let Some(p) = parent {
                active_children[p] = active_children[p].saturating_sub(1);
            }
        }
    }
    rows
}

/// Render the per-layer table: count, busy, self, share of the traced wall.
/// Returns the text and the share of `wall_ns` the self times account for.
pub fn render_table(rows: &BTreeMap<&'static str, LayerRow>, wall_ns: u64) -> (String, f64) {
    let mut out = format!(
        "{:<24} {:>8} {:>12} {:>12} {:>8}\n",
        "layer", "count", "busy_s", "self_s", "share"
    );
    let mut total_self = 0.0;
    for (name, row) in rows {
        total_self += row.self_ns;
        out.push_str(&format!(
            "{:<24} {:>8} {:>12.6} {:>12.6} {:>7.1}%\n",
            name,
            row.count,
            row.busy_ns as f64 / 1e9,
            row.self_ns / 1e9,
            100.0 * row.self_ns / wall_ns.max(1) as f64
        ));
    }
    let coverage = total_self / wall_ns.max(1) as f64;
    out.push_str(&format!(
        "{:<24} {:>8} {:>12} {:>12.6} {:>7.1}%  (traced wall {:.6} s)\n",
        "total",
        "",
        "",
        total_self / 1e9,
        100.0 * coverage,
        wall_ns as f64 / 1e9
    ));
    (out, coverage)
}

/// Write spans as JSON lines: `name, start_ns, end_ns, parent, trace`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trace\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.trace
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    /// A parent keeps its duration minus the union of its (overlapping)
    /// children; the overlapping children share their overlap.
    #[test]
    fn self_time_with_overlapping_children() {
        let spans = vec![
            span(1, 0, "iteration", 0, 100),
            span(2, 1, "core.run", 10, 90),
            // Two parallel lanes under core.run, overlapping on [30, 50).
            span(3, 2, "cwlexec.tool", 20, 50),
            span(4, 2, "cwlexec.tool", 30, 70),
        ];
        let rows = layer_table(&spans);
        // iteration keeps [0,10) + [90,100); core.run keeps [10,20) + [70,90).
        assert_eq!(rows["iteration"].self_ns, 20.0);
        assert_eq!(rows["core.run"].self_ns, 30.0);
        // The tools cover [20,70) of wall between them (busy is lane time).
        assert_eq!(rows["cwlexec.tool"].self_ns, 50.0);
        assert_eq!(rows["cwlexec.tool"].busy_ns, 70);
        assert_eq!(rows["cwlexec.tool"].count, 2);
        let total: f64 = rows.values().map(|r| r.self_ns).sum();
        assert_eq!(total, 100.0);
        let (text, coverage) = render_table(&rows, 100);
        assert!((coverage - 1.0).abs() < 1e-9);
        assert!(text.contains("cwlexec.tool"));
    }

    #[test]
    fn recorder_links_parent_and_trace() {
        let rec = Recorder::new();
        let ((), _) = rec.span("outer", 0, 7, |outer| {
            let (v, secs) = rec.span("inner", outer, 7, |_| 5);
            assert_eq!(v, 5);
            assert!(secs >= 0.0);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(spans.iter().all(|s| s.trace == 7 && s.end_ns >= s.start_ns));
    }
}
