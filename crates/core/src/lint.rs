//! `parsl-lint` — static type-checking of parsl-cwl run configs.
//!
//! Reuses the `cwl::analyze::diag` framework (stable codes, spans, text +
//! JSON rendering) over the TaPS-style YAML config schema that
//! [`crate::config`] loads. The loader is permissive — unknown keys are
//! silently ignored, so a typo'd `worker:` runs on default parallelism
//! without a word. This pass is the strict mirror of the loader:
//!
//! * **E041** — unknown key, with a did-you-mean suggestion;
//! * **E042** — value of the wrong type or out of range (bad enum, a
//!   `jitter` outside `[0, 1]`, a zero `pool`);
//! * **E043** — keys that are individually fine but invalid together
//!   (heartbeat timeout not exceeding the period, more executor nodes
//!   than the cluster has, a fault kill with two trigger conditions);
//! * **E044** — a pinned `staging.dir` that can never be created
//!   (delegates to [`StagingSettings::validate`]);
//! * **E045** — a `serve.socket` path the daemon can never bind (the
//!   deepest existing ancestor is not a writable directory);
//! * **W120** — a setting the chosen executor/mode never reads;
//! * **W121** — cross-file: two configs sharing one checkpoint journal
//!   directory (resumes would mix runs).
//!
//! The same pass gates [`crate::config::load_config_file`] (honouring the
//! config's own `check: {strict}`), so a typo fails the run before the
//! kernel starts.

use cwl::analyze::diag::{codes, Diag, Report, Sink};
use cwlexec::StagingSettings;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use yamlite::{SpanIndex, Value};

/// Known keys per block, as data. A `*` key means "any key allowed".
const TOP_KEYS: &[&str] = &[
    "executor",
    "provider",
    "retry",
    "retries",
    "fault",
    "run",
    "check",
    "checkpoint",
    "staging",
    "monitoring",
    "serve",
];
const EXECUTOR_KEYS: &[&str] = &[
    "kind",
    "workers",
    "nodes",
    "workers_per_node",
    "min_nodes",
    "heartbeat_ms",
    "heartbeat_timeout_ms",
    "label",
    "batch_size",
];
const PROVIDER_KEYS: &[&str] = &["kind", "cores_per_node", "cluster"];
const CLUSTER_KEYS: &[&str] = &["nodes", "cores_per_node"];
const RETRY_KEYS: &[&str] = &[
    "max_retries",
    "initial_backoff_ms",
    "multiplier",
    "max_backoff_ms",
    "jitter",
    "walltime_ms",
];
const FAULT_KEYS: &[&str] = &["kill"];
const KILL_KEYS: &[&str] = &["node", "after_tasks", "after_ms"];
const RUN_KEYS: &[&str] = &["workdir", "builtin_tools"];
const CHECK_KEYS: &[&str] = &["strict"];
const CHECKPOINT_KEYS: &[&str] = &["mode", "dir", "period_ms"];
const STAGING_KEYS: &[&str] = &["mode", "dir", "pool"];
const MONITORING_KEYS: &[&str] = &["enabled", "sample_rate", "export", "sinks", "events_cap"];
const SERVE_KEYS: &[&str] = &[
    "socket",
    "max_in_flight",
    "queue_cap",
    "tenants",
    "default_weight",
];

const EXECUTOR_KINDS: &[&str] = &[
    "thread-pool",
    "threads",
    "local-threads",
    "htex",
    "high-throughput",
];
const PROVIDER_KINDS: &[&str] = &["local", "slurm"];
const CHECKPOINT_MODES: &[&str] = &["off", "task-exit", "periodic"];
const STAGING_MODES: &[&str] = &["copy", "link", "auto"];
const MONITORING_SINKS: &[&str] = &["jsonl", "chrome"];

/// Executor keys only the HTEX path reads.
const HTEX_ONLY_KEYS: &[&str] = &[
    "nodes",
    "workers_per_node",
    "min_nodes",
    "heartbeat_ms",
    "heartbeat_timeout_ms",
    "label",
    "batch_size",
];

fn child(base: &str, seg: &str) -> String {
    yamlite::span::child_path(base, seg)
}

/// Levenshtein edit distance, for did-you-mean suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Closest known key, when close enough to be a plausible typo.
fn did_you_mean<'a>(key: &str, known: &[&'a str]) -> Option<&'a str> {
    known
        .iter()
        .map(|k| (edit_distance(key, k), *k))
        .min()
        .filter(|(d, k)| *d <= 2.max(k.len() / 3))
        .map(|(_, k)| k)
}

/// E041 for every key of `block` not in `known`.
fn check_keys(block: &Value, base: &str, known: &[&str], sink: &mut Sink) {
    let Value::Map(m) = block else { return };
    for (key, _) in m.iter() {
        if known.contains(&key) {
            continue;
        }
        let suggestion = match did_you_mean(key, known) {
            Some(s) => format!(" (did you mean {s:?}?)"),
            None => String::new(),
        };
        let where_ = if base.is_empty() {
            "the top level".to_string()
        } else {
            format!("`{base}:`")
        };
        sink.error(
            codes::CFG_UNKNOWN_KEY,
            child(base, key),
            format!("unknown key {key:?} in {where_}{suggestion}"),
        );
    }
}

/// E042 unless `block[key]`, when present, is an integer `>= min`.
fn check_int(block: &Value, base: &str, key: &str, min: i64, sink: &mut Sink) {
    let Some(v) = block.get(key) else { return };
    let label = child(base, key);
    match v.as_int() {
        Some(n) if n >= min => {}
        Some(n) => sink.error(
            codes::CFG_VALUE,
            label.clone(),
            format!("{label} must be >= {min}, got {n}"),
        ),
        None => sink.error(
            codes::CFG_VALUE,
            label.clone(),
            format!("{label} must be an integer, got {}", v.to_display_string()),
        ),
    }
}

/// E042 unless `block[key]`, when present, is a boolean.
fn check_bool(block: &Value, base: &str, key: &str, sink: &mut Sink) {
    let Some(v) = block.get(key) else { return };
    if v.as_bool().is_none() {
        sink.error(
            codes::CFG_VALUE,
            child(base, key),
            format!(
                "{base}.{key} must be a boolean, got {}",
                v.to_display_string()
            ),
        );
    }
}

/// E042 unless `block[key]`, when present, is a number in `[lo, hi]`.
fn check_fraction(block: &Value, base: &str, key: &str, sink: &mut Sink) {
    let Some(v) = block.get(key) else { return };
    match v.as_float().or_else(|| v.as_int().map(|n| n as f64)) {
        Some(f) if f.is_finite() && (0.0..=1.0).contains(&f) => {}
        _ => sink.error(
            codes::CFG_VALUE,
            child(base, key),
            format!(
                "{base}.{key} must be a fraction in [0, 1], got {}",
                v.to_display_string()
            ),
        ),
    }
}

/// E042 unless `block[key]`, when present, is a finite number `> 0`
/// (fair-share weights: a zero or negative weight starves the tenant).
fn check_weight(block: &Value, base: &str, key: &str, sink: &mut Sink) {
    let Some(v) = block.get(key) else { return };
    match v.as_float() {
        Some(f) if f.is_finite() && f > 0.0 => {}
        _ => sink.error(
            codes::CFG_VALUE,
            child(base, key),
            format!(
                "{base}.{key} must be a number > 0, got {}",
                v.to_display_string()
            ),
        ),
    }
}

/// E045 probe: the deepest existing ancestor of `sock`'s parent must be a
/// writable directory, or `bind()` can never create the socket there.
fn probe_socket_dir(sock: &Path) -> Result<(), String> {
    let parent = match sock.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => return Ok(()), // bare filename: binds in the cwd
    };
    let mut probe = parent;
    loop {
        if probe.exists() {
            if !probe.is_dir() {
                return Err(format!(
                    "serve.socket {}: ancestor {} exists but is not a directory",
                    sock.display(),
                    probe.display()
                ));
            }
            let marker = probe.join(format!(".serve-probe-{}", std::process::id()));
            return match std::fs::File::create(&marker) {
                Ok(_) => {
                    let _ = std::fs::remove_file(&marker);
                    Ok(())
                }
                Err(e) => Err(format!(
                    "serve.socket {} is not creatable ({} at {})",
                    sock.display(),
                    e,
                    probe.display()
                )),
            };
        }
        match probe.parent() {
            Some(p) if p != probe => probe = p,
            _ => return Ok(()), // relative path with no existing prefix
        }
    }
}

/// E042 unless `block[key]`, when present, is one of `allowed`.
fn check_enum(block: &Value, base: &str, key: &str, allowed: &[&str], sink: &mut Sink) {
    let Some(v) = block.get(key) else { return };
    let ok = v.as_str().map(|s| allowed.contains(&s)).unwrap_or(false);
    if !ok {
        let suggestion = v
            .as_str()
            .and_then(|s| did_you_mean(s, allowed))
            .map(|s| format!(" (did you mean {s:?}?)"))
            .unwrap_or_default();
        sink.error(
            codes::CFG_VALUE,
            child(base, key),
            format!(
                "{base}.{key} must be one of {allowed:?}, got {}{suggestion}",
                v.to_display_string()
            ),
        );
    }
}

/// Lint a parsed run config, appending findings to `report`.
pub fn lint_value(doc: &Value, spans: &SpanIndex, report: &mut Report) {
    let mut sink = Sink::new(spans, report);
    let sink = &mut sink;
    match doc {
        Value::Null => return, // empty config = all defaults, fine
        Value::Map(_) => {}
        other => {
            sink.error(
                codes::CFG_VALUE,
                "",
                format!(
                    "config must be a YAML map, got {}",
                    other.to_display_string()
                ),
            );
            return;
        }
    }
    check_keys(doc, "", TOP_KEYS, sink);

    let executor = doc.get("executor").cloned().unwrap_or(Value::Null);
    let kind = executor
        .get("kind")
        .and_then(Value::as_str)
        .unwrap_or("thread-pool");
    let is_htex = matches!(kind, "htex" | "high-throughput");
    check_keys(&executor, "executor", EXECUTOR_KEYS, sink);
    check_enum(&executor, "executor", "kind", EXECUTOR_KINDS, sink);
    check_int(&executor, "executor", "workers", 1, sink);
    check_int(&executor, "executor", "nodes", 1, sink);
    check_int(&executor, "executor", "workers_per_node", 0, sink);
    check_int(&executor, "executor", "min_nodes", 0, sink);
    check_int(&executor, "executor", "heartbeat_ms", 1, sink);
    check_int(&executor, "executor", "heartbeat_timeout_ms", 1, sink);
    check_int(&executor, "executor", "batch_size", 1, sink);

    let provider = doc.get("provider").cloned().unwrap_or(Value::Null);
    let provider_kind = provider
        .get("kind")
        .and_then(Value::as_str)
        .unwrap_or("local");
    check_keys(&provider, "provider", PROVIDER_KEYS, sink);
    check_enum(&provider, "provider", "kind", PROVIDER_KINDS, sink);
    check_int(&provider, "provider", "cores_per_node", 1, sink);
    let cluster = provider.get("cluster").cloned().unwrap_or(Value::Null);
    check_keys(&cluster, "provider.cluster", CLUSTER_KEYS, sink);
    check_int(&cluster, "provider.cluster", "nodes", 1, sink);
    check_int(&cluster, "provider.cluster", "cores_per_node", 1, sink);

    if let Some(retry) = doc.get("retry") {
        check_keys(retry, "retry", RETRY_KEYS, sink);
        check_int(retry, "retry", "max_retries", 0, sink);
        check_int(retry, "retry", "initial_backoff_ms", 0, sink);
        check_int(retry, "retry", "max_backoff_ms", 0, sink);
        check_int(retry, "retry", "walltime_ms", 1, sink);
        check_fraction(retry, "retry", "jitter", sink);
        if let Some(m) = retry.get("multiplier") {
            match m.as_float().or_else(|| m.as_int().map(|n| n as f64)) {
                Some(f) if f.is_finite() && f >= 0.0 => {}
                _ => sink.error(
                    codes::CFG_VALUE,
                    "retry.multiplier",
                    format!(
                        "retry.multiplier must be a finite non-negative number, got {}",
                        m.to_display_string()
                    ),
                ),
            }
        }
    }
    check_int(doc, "", "retries", 0, sink);

    let fault = doc.get("fault").cloned().unwrap_or(Value::Null);
    check_keys(&fault, "fault", FAULT_KEYS, sink);
    if let Some(kills) = fault.get("kill").and_then(Value::as_seq) {
        for (i, kill) in kills.iter().enumerate() {
            let kpath = yamlite::span::item_path("fault.kill", i);
            check_keys(kill, &kpath, KILL_KEYS, sink);
            if kill.get("node").and_then(Value::as_str).is_none() {
                sink.error(
                    codes::CFG_VALUE,
                    kpath.clone(),
                    format!("fault.kill[{i}] needs a `node:` name"),
                );
            }
            if kill.get("after_tasks").is_some() && kill.get("after_ms").is_some() {
                sink.error(
                    codes::CFG_COMBO,
                    kpath.clone(),
                    format!(
                        "fault.kill[{i}] sets both after_tasks and after_ms; \
                         a kill has one trigger (after_tasks wins here, which \
                         is probably not what you meant)"
                    ),
                );
            }
        }
    }

    let run = doc.get("run").cloned().unwrap_or(Value::Null);
    check_keys(&run, "run", RUN_KEYS, sink);
    check_bool(&run, "run", "builtin_tools", sink);

    let check = doc.get("check").cloned().unwrap_or(Value::Null);
    check_keys(&check, "check", CHECK_KEYS, sink);
    check_bool(&check, "check", "strict", sink);

    let checkpoint = doc.get("checkpoint").cloned().unwrap_or(Value::Null);
    check_keys(&checkpoint, "checkpoint", CHECKPOINT_KEYS, sink);
    check_enum(&checkpoint, "checkpoint", "mode", CHECKPOINT_MODES, sink);
    check_int(&checkpoint, "checkpoint", "period_ms", 1, sink);

    let staging = doc.get("staging").cloned().unwrap_or(Value::Null);
    check_keys(&staging, "staging", STAGING_KEYS, sink);
    check_enum(&staging, "staging", "mode", STAGING_MODES, sink);
    check_int(&staging, "staging", "pool", 1, sink);
    if let Some(dir) = staging.get("dir").and_then(Value::as_str) {
        let probe = StagingSettings {
            dir: Some(PathBuf::from(dir)),
            ..Default::default()
        };
        if let Err(e) = probe.validate() {
            sink.error(codes::CFG_STAGING_DIR, "staging.dir", e);
        }
    }

    let monitoring = doc.get("monitoring").cloned().unwrap_or(Value::Null);
    check_keys(&monitoring, "monitoring", MONITORING_KEYS, sink);
    check_bool(&monitoring, "monitoring", "enabled", sink);
    check_fraction(&monitoring, "monitoring", "sample_rate", sink);
    check_int(&monitoring, "monitoring", "events_cap", 1, sink);
    if let Some(sinks) = monitoring.get("sinks").and_then(Value::as_seq) {
        for (i, s) in sinks.iter().enumerate() {
            let ok = s
                .as_str()
                .map(|s| MONITORING_SINKS.contains(&s))
                .unwrap_or(false);
            if !ok {
                sink.error(
                    codes::CFG_VALUE,
                    yamlite::span::item_path("monitoring.sinks", i),
                    format!(
                        "monitoring.sinks entries must be one of {MONITORING_SINKS:?}, got {}",
                        s.to_display_string()
                    ),
                );
            }
        }
    }

    let serve = doc.get("serve").cloned().unwrap_or(Value::Null);
    check_keys(&serve, "serve", SERVE_KEYS, sink);
    check_int(&serve, "serve", "max_in_flight", 1, sink);
    check_int(&serve, "serve", "queue_cap", 1, sink);
    check_weight(&serve, "serve", "default_weight", sink);
    if let Some(tenants) = serve.get("tenants").cloned() {
        match &tenants {
            Value::Map(m) => {
                for (name, _) in m.iter() {
                    check_weight(&tenants, "serve.tenants", name, sink);
                }
            }
            other => sink.error(
                codes::CFG_VALUE,
                "serve.tenants",
                format!(
                    "serve.tenants must be a map of tenant -> weight, got {}",
                    other.to_display_string()
                ),
            ),
        }
    }
    // E045: a socket path the daemon can never bind — same probe idiom as
    // the staging-dir check (walk up to the deepest existing ancestor,
    // which is what `bind()` needs to be a writable directory).
    if let Some(sock) = serve.get("socket").and_then(Value::as_str) {
        if let Err(e) = probe_socket_dir(Path::new(sock)) {
            sink.error(codes::CFG_SERVE_SOCKET, "serve.socket", e);
        }
    }

    // E043: heartbeat timeout must exceed the heartbeat period, or every
    // manager is declared lost between two beats.
    if let (Some(period), Some(timeout)) = (
        executor.get("heartbeat_ms").and_then(Value::as_int),
        executor.get("heartbeat_timeout_ms").and_then(Value::as_int),
    ) {
        if timeout <= period {
            sink.error(
                codes::CFG_COMBO,
                "executor.heartbeat_timeout_ms",
                format!(
                    "heartbeat_timeout_ms ({timeout}) must exceed heartbeat_ms \
                     ({period}); as configured every manager misses its deadline"
                ),
            );
        }
    }

    // E043: asking the provider for more nodes than the cluster has.
    if provider_kind == "slurm" {
        if let Some(cluster_nodes) = cluster.get("nodes").and_then(Value::as_int) {
            for key in ["nodes", "min_nodes"] {
                if let Some(n) = executor.get(key).and_then(Value::as_int) {
                    if n > cluster_nodes {
                        sink.error(
                            codes::CFG_COMBO,
                            child("executor", key),
                            format!(
                                "executor.{key} ({n}) exceeds the cluster's \
                                 {cluster_nodes} node(s); the pilot job can never start"
                            ),
                        );
                    }
                }
            }
        }
    }

    // W120: settings the chosen executor/mode never reads.
    if !is_htex {
        if doc.get("provider").is_some() {
            sink.warning(
                codes::CFG_NO_EFFECT,
                "provider",
                format!("`provider:` has no effect with the {kind} executor"),
            );
        }
        if doc.get("fault").is_some() {
            sink.warning(
                codes::CFG_NO_EFFECT,
                "fault",
                format!("`fault:` has no effect with the {kind} executor"),
            );
        }
        for key in HTEX_ONLY_KEYS {
            if executor.get(key).is_some() {
                sink.warning(
                    codes::CFG_NO_EFFECT,
                    child("executor", key),
                    format!("executor.{key} has no effect with the {kind} executor"),
                );
            }
        }
    } else {
        if executor.get("workers").is_some() {
            sink.warning(
                codes::CFG_NO_EFFECT,
                "executor.workers",
                "executor.workers has no effect with htex (use workers_per_node)",
            );
        }
        match provider_kind {
            "slurm" if provider.get("cores_per_node").is_some() => sink.warning(
                codes::CFG_NO_EFFECT,
                "provider.cores_per_node",
                "provider.cores_per_node has no effect with slurm \
                 (set provider.cluster.cores_per_node)",
            ),
            "local" if provider.get("cluster").is_some() => sink.warning(
                codes::CFG_NO_EFFECT,
                "provider.cluster",
                "provider.cluster has no effect with the local provider",
            ),
            _ => {}
        }
    }
    let ckpt_mode = checkpoint.get("mode").and_then(Value::as_str);
    if checkpoint.get("period_ms").is_some() && ckpt_mode != Some("periodic") {
        sink.warning(
            codes::CFG_NO_EFFECT,
            "checkpoint.period_ms",
            format!(
                "checkpoint.period_ms only applies to mode: periodic (mode here is {})",
                ckpt_mode.unwrap_or("task-exit")
            ),
        );
    }
}

/// Lint config source text. `file` names the report.
pub fn lint_str(text: &str, file: Option<&Path>) -> Report {
    let mut report = Report::new();
    report.file = file.map(|p| p.display().to_string());
    match yamlite::parse_str_spanned(text) {
        Err(e) => report
            .diags
            .push(Diag::yaml_parse(e.message, Some(e.position))),
        Ok((doc, spans)) => lint_value(&doc, &spans, &mut report),
    }
    report.sort();
    report
}

/// Lint a config file on disk.
pub fn lint_file(path: impl AsRef<Path>) -> Report {
    let path = path.as_ref();
    match yamlite::parse_file_spanned(path) {
        Ok((doc, spans)) => {
            let mut report = Report::new();
            report.file = Some(path.display().to_string());
            lint_value(&doc, &spans, &mut report);
            report.sort();
            report
        }
        Err(e) => {
            let mut report = Report::new();
            report.file = Some(path.display().to_string());
            report
                .diags
                .push(Diag::yaml_parse(e.message, Some(e.position)));
            report
        }
    }
}

/// The checkpoint journal directory a config would write, when
/// checkpointing is on: the explicit `checkpoint.dir`, else
/// `<run.workdir>/ckpt` when a workdir is pinned. `None` when
/// checkpointing is off or the journal lands in a per-process temp dir
/// (unique by construction).
pub fn effective_checkpoint_dir(doc: &Value) -> Option<PathBuf> {
    let block = doc.get("checkpoint")?;
    if block.get("mode").and_then(Value::as_str) == Some("off") {
        return None;
    }
    if let Some(dir) = block.get("dir").and_then(Value::as_str) {
        return Some(PathBuf::from(dir));
    }
    doc.get("run")
        .and_then(|r| r.get("workdir"))
        .and_then(Value::as_str)
        .map(|w| Path::new(w).join("ckpt"))
}

/// Cross-file pass: W121 when two configs would write the same checkpoint
/// journal directory (a resume would load another run's results).
/// Appends one diagnostic per involved file to its report.
pub fn cross_file_checks(files: &mut [(PathBuf, Value, SpanIndex, Report)]) {
    let mut by_dir: BTreeMap<PathBuf, Vec<usize>> = BTreeMap::new();
    for (i, (_, doc, _, _)) in files.iter().enumerate() {
        if let Some(dir) = effective_checkpoint_dir(doc) {
            by_dir.entry(dir).or_default().push(i);
        }
    }
    for (dir, idxs) in by_dir {
        if idxs.len() < 2 {
            continue;
        }
        for &i in &idxs {
            let others: Vec<String> = idxs
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| files[j].0.display().to_string())
                .collect();
            let (_, doc, spans, report) = &mut files[i];
            let path = if doc.get("checkpoint").and_then(|c| c.get("dir")).is_some() {
                "checkpoint.dir"
            } else {
                "checkpoint"
            };
            Sink::new(spans, report).warning(
                codes::CFG_SHARED_CKPT,
                path,
                format!(
                    "checkpoint dir {} is shared with {} (a resume would mix runs)",
                    dir.display(),
                    others.join(", ")
                ),
            );
        }
    }
}

/// The configured executor's capacity, in the shape the cwl feasibility
/// pass consumes (GiB → MiB; a zero/unknown memory hint becomes `None`).
pub fn executor_capacity(parsl: &parsl::Config) -> cwl::analyze::ExecutorCapacity {
    let cap = parsl.capacity();
    cwl::analyze::ExecutorCapacity {
        label: format!(
            "{} ({} node(s) x {} worker(s))",
            parsl.label, cap.nodes, cap.workers_per_node
        ),
        slots: cap.total_slots(),
        cores_per_node: cap.cores_per_node.map(|c| c as i64),
        ram_per_node_mb: cap.mem_gib_per_node.map(|g| (g as i64) * 1024),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(text: &str) -> Report {
        lint_str(text, None)
    }

    #[test]
    fn clean_config_is_clean() {
        let r = lint(
            "executor:\n  kind: htex\n  nodes: 3\n  workers_per_node: 4\nprovider:\n  kind: slurm\n  cluster:\n    nodes: 4\n    cores_per_node: 8\nretry:\n  max_retries: 1\n  jitter: 0.1\nrun:\n  workdir: /tmp/x\n",
        );
        assert!(r.is_clean(true), "{}", r.render_text());
    }

    #[test]
    fn unknown_key_has_did_you_mean() {
        let r = lint("executor:\n  kind: thread-pool\n  workres: 4\n");
        assert!(r.has_code(codes::CFG_UNKNOWN_KEY), "{}", r.render_text());
        let d = r
            .diags
            .iter()
            .find(|d| d.code == codes::CFG_UNKNOWN_KEY)
            .unwrap();
        assert!(
            d.message.contains("did you mean \"workers\""),
            "{}",
            d.message
        );
        assert!(d.position.is_some(), "unknown key must carry a span");
        // The pre-run gate has no off switch.
        let r = lint("check:\n  pre_run: false\n");
        assert!(r.has_code(codes::CFG_UNKNOWN_KEY), "{}", r.render_text());
    }

    #[test]
    fn bad_values_are_e042() {
        let r = lint("executor:\n  kind: quantum\n");
        assert!(r.has_code(codes::CFG_VALUE), "{}", r.render_text());
        let r = lint("retry:\n  jitter: 1.5\n");
        assert!(r.has_code(codes::CFG_VALUE));
        let r = lint("staging:\n  pool: 0\n");
        assert!(r.has_code(codes::CFG_VALUE));
        let r = lint("run:\n  builtin_tools: probably\n");
        assert!(r.has_code(codes::CFG_VALUE));
        let r = lint("monitoring:\n  sinks: [jsonl, bogus]\n");
        assert!(r.has_code(codes::CFG_VALUE));
    }

    #[test]
    fn bad_combos_are_e043() {
        let r = lint("executor:\n  kind: htex\n  heartbeat_ms: 100\n  heartbeat_timeout_ms: 50\n");
        assert!(r.has_code(codes::CFG_COMBO), "{}", r.render_text());
        let r = lint(
            "executor:\n  kind: htex\n  nodes: 5\nprovider:\n  kind: slurm\n  cluster:\n    nodes: 3\n",
        );
        assert!(r.has_code(codes::CFG_COMBO), "{}", r.render_text());
        let r = lint(
            "executor:\n  kind: htex\nfault:\n  kill:\n    - node: node01\n      after_tasks: 2\n      after_ms: 100\n",
        );
        assert!(r.has_code(codes::CFG_COMBO), "{}", r.render_text());
    }

    #[test]
    fn unreachable_staging_dir_is_e044() {
        let r = lint("staging:\n  dir: /etc/passwd/cas\n");
        assert!(r.has_code(codes::CFG_STAGING_DIR), "{}", r.render_text());
    }

    #[test]
    fn serve_block_is_linted() {
        let r = lint(
            "serve:\n  socket: /tmp/s.sock\n  max_in_flight: 2\n  queue_cap: 8\n  default_weight: 1.5\n  tenants:\n    alice: 3\n    bob: 1\n",
        );
        assert!(r.is_clean(true), "{}", r.render_text());

        let r = lint("serve:\n  max_in_flight: 0\n");
        assert!(r.has_code(codes::CFG_VALUE), "{}", r.render_text());
        let r = lint("serve:\n  queue_cap: 0\n");
        assert!(r.has_code(codes::CFG_VALUE));
        let r = lint("serve:\n  default_weight: 0\n");
        assert!(r.has_code(codes::CFG_VALUE));
        let r = lint("serve:\n  tenants:\n    alice: -1\n");
        assert!(r.has_code(codes::CFG_VALUE));
        let r = lint("serve:\n  tenants: [alice, bob]\n");
        assert!(r.has_code(codes::CFG_VALUE));
        let r = lint("serve:\n  max_inflight: 2\n");
        assert!(r.has_code(codes::CFG_UNKNOWN_KEY));
    }

    #[test]
    fn unbindable_serve_socket_is_e045() {
        let r = lint("serve:\n  socket: /etc/passwd/serve.sock\n");
        assert!(r.has_code(codes::CFG_SERVE_SOCKET), "{}", r.render_text());
    }

    #[test]
    fn monitoring_events_cap_is_linted() {
        let r = lint("monitoring:\n  events_cap: 4096\n");
        assert!(r.is_clean(true), "{}", r.render_text());
        let r = lint("monitoring:\n  events_cap: 0\n");
        assert!(r.has_code(codes::CFG_VALUE), "{}", r.render_text());
    }

    #[test]
    fn no_effect_settings_are_w120() {
        let r = lint("executor:\n  kind: thread-pool\n  nodes: 3\nprovider:\n  kind: local\n");
        assert!(r.has_code(codes::CFG_NO_EFFECT), "{}", r.render_text());
        assert!(r.is_clean(false), "W120 is a warning, not an error");
        let r = lint("executor:\n  kind: htex\n  workers: 4\n");
        assert!(r.has_code(codes::CFG_NO_EFFECT));
        let r = lint("checkpoint:\n  mode: task-exit\n  period_ms: 100\n");
        assert!(r.has_code(codes::CFG_NO_EFFECT));
    }

    #[test]
    fn shared_checkpoint_dir_is_w121() {
        let a = yamlite::parse_str_spanned("checkpoint:\n  dir: /tmp/shared-j\n").unwrap();
        let b = yamlite::parse_str_spanned(
            "checkpoint:\n  mode: periodic\n  period_ms: 100\n  dir: /tmp/shared-j\n",
        )
        .unwrap();
        let c = yamlite::parse_str_spanned("checkpoint:\n  dir: /tmp/other-j\n").unwrap();
        let mut files = vec![
            (PathBuf::from("a.yml"), a.0, a.1, Report::new()),
            (PathBuf::from("b.yml"), b.0, b.1, Report::new()),
            (PathBuf::from("c.yml"), c.0, c.1, Report::new()),
        ];
        cross_file_checks(&mut files);
        assert!(files[0].3.has_code(codes::CFG_SHARED_CKPT));
        assert!(files[1].3.has_code(codes::CFG_SHARED_CKPT));
        assert!(!files[2].3.has_code(codes::CFG_SHARED_CKPT));
        assert!(files[0].3.diags[0].message.contains("b.yml"));
    }

    #[test]
    fn workdir_implies_checkpoint_dir() {
        let doc = yamlite::parse_str("checkpoint: {}\nrun:\n  workdir: /tmp/w\n").unwrap();
        assert_eq!(
            effective_checkpoint_dir(&doc),
            Some(PathBuf::from("/tmp/w/ckpt"))
        );
        let doc = yamlite::parse_str("checkpoint:\n  mode: off\n  dir: /tmp/j\n").unwrap();
        assert_eq!(effective_checkpoint_dir(&doc), None);
        let doc = yamlite::parse_str("run:\n  workdir: /tmp/w\n").unwrap();
        assert_eq!(effective_checkpoint_dir(&doc), None);
    }

    #[test]
    fn capacity_conversion() {
        let cap = executor_capacity(&parsl::Config::local_threads(6));
        assert_eq!(cap.slots, 6);
        assert!(cap.ram_per_node_mb.is_none());
    }
}
