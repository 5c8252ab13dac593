//! `parsl-lint`: run configs checked before anything runs.
//!
//! Every per-file finding (E041–E045, W120) comes from the one config
//! reader, [`crate::config::read_config`], which also gates
//! [`crate::config::load_config_file`]: what lint refuses, the run
//! refuses. This module adds what needs more than one file — **W121**,
//! two configs sharing one checkpoint journal directory (a resume would
//! mix runs) — and the capacity conversion the pre-run gate and
//! `cwl-check --config` share.

use crate::config::read_config;
use cwl::analyze::diag::{codes, Diag, Report, Sink};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use yamlite::{Position, SpanIndex};

/// One linted config file, kept for the cross-file pass.
pub struct Linted {
    pub report: Report,
    spans: SpanIndex,
    journal: Option<(PathBuf, &'static str)>,
}

impl Linted {
    /// A file the reader never saw: one E001 finding.
    fn unparsed(file: Option<&Path>, message: String, position: Option<Position>) -> Self {
        let mut report = Report::new();
        report.file = file.map(|p| p.display().to_string());
        report.diags.push(Diag::yaml_parse(message, position));
        Linted {
            report,
            spans: SpanIndex::default(),
            journal: None,
        }
    }
}

/// Lint config source text; `file` names the report. `None` for a CWL
/// document (it has a `class:` key), which is `cwl-check`'s to check.
pub(crate) fn lint_text(text: &str, file: Option<&Path>) -> Option<Linted> {
    let (doc, spans) = match yamlite::parse_str_spanned(text) {
        Ok(parsed) => parsed,
        Err(e) => return Some(Linted::unparsed(file, e.message, Some(e.position))),
    };
    if doc.get("class").is_some() {
        return None;
    }
    let mut report = Report::new();
    report.file = file.map(|p| p.display().to_string());
    let journal = read_config(&doc, &mut Sink::new(&spans, &mut report)).journal;
    Some(Linted {
        report,
        spans,
        journal,
    })
}

/// Lint a config file on disk (see [`lint_text`]), read by
/// [`yamlite::read_regular`].
pub fn lint_file(path: &Path) -> Option<Linted> {
    match yamlite::read_regular(path) {
        Ok(text) => lint_text(&text, Some(path)),
        Err(e) => {
            let message = format!("cannot read {}: {e}", path.display());
            Some(Linted::unparsed(Some(path), message, None))
        }
    }
}

/// Cross-file pass: W121 when two configs would write the same checkpoint
/// journal directory (a resume would load another run's results).
/// Appends one diagnostic per involved file to its report.
pub fn cross_file_checks(files: &mut [Linted]) {
    let mut by_dir: BTreeMap<PathBuf, Vec<usize>> = BTreeMap::new();
    for (i, file) in files.iter().enumerate() {
        if let Some((dir, _)) = &file.journal {
            by_dir.entry(dir.clone()).or_default().push(i);
        }
    }
    for (dir, idxs) in by_dir {
        if idxs.len() < 2 {
            continue;
        }
        for &i in &idxs {
            let others: Vec<&str> = idxs
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| files[j].report.file.as_deref().unwrap_or("<input>"))
                .collect();
            let message = format!(
                "checkpoint dir {} is shared with {} (a resume would mix runs)",
                dir.display(),
                others.join(", ")
            );
            let file = &mut files[i];
            let anchor = file.journal.as_ref().map_or("checkpoint", |(_, key)| *key);
            Sink::new(&file.spans, &mut file.report).warning(
                codes::CFG_SHARED_CKPT,
                anchor,
                message,
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
        let mut report = lint_text(text, None).unwrap().report;
        report.sort();
        report
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

    /// `monitoring.events_cap` bounded an event ring that no longer
    /// exists: the key is unknown, whatever its value.
    #[test]
    fn monitoring_events_cap_is_linted() {
        let r = lint("monitoring:\n  events_cap: 4096\n");
        assert!(r.has_code(codes::CFG_UNKNOWN_KEY), "{}", r.render_text());
        let r = lint("monitoring:\n  events_cap: 0\n");
        assert!(r.has_code(codes::CFG_UNKNOWN_KEY), "{}", r.render_text());
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
        let lint_as = |text: &str, name: &str| lint_text(text, Some(Path::new(name))).unwrap();
        let mut files = vec![
            lint_as("checkpoint:\n  dir: /tmp/shared-j\n", "a.yml"),
            lint_as(
                "checkpoint:\n  mode: periodic\n  period_ms: 100\n  dir: /tmp/shared-j\n",
                "b.yml",
            ),
            lint_as("checkpoint:\n  dir: /tmp/other-j\n", "c.yml"),
        ];
        cross_file_checks(&mut files);
        assert!(files[0].report.has_code(codes::CFG_SHARED_CKPT));
        assert!(files[1].report.has_code(codes::CFG_SHARED_CKPT));
        assert!(!files[2].report.has_code(codes::CFG_SHARED_CKPT));
        assert!(files[0].report.diags[0].message.contains("b.yml"));
    }

    #[test]
    fn workdir_implies_checkpoint_dir() {
        let journal = |text: &str| lint_text(text, None).unwrap().journal.map(|(dir, _)| dir);
        assert_eq!(
            journal("checkpoint: {}\nrun:\n  workdir: /tmp/w\n"),
            Some(PathBuf::from("/tmp/w/ckpt"))
        );
        assert_eq!(journal("checkpoint:\n  mode: off\n  dir: /tmp/j\n"), None);
        assert_eq!(journal("run:\n  workdir: /tmp/w\n"), None);
    }

    #[test]
    fn capacity_conversion() {
        let cap = executor_capacity(&parsl::Config::local_threads(6));
        assert_eq!(cap.slots, 6);
        assert!(cap.ram_per_node_mb.is_none());
    }
}
