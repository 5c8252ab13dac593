//! Observability configuration — the `monitoring:` block of a runner
//! config.

use std::path::PathBuf;

/// How (and whether) a run records and exports telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Master switch. Off means every record path is a single relaxed
    /// atomic load and nothing is allocated.
    pub enabled: bool,
    /// Span sampling rate in [0, 1]: the fraction of task lineages whose
    /// spans are recorded. Metrics and lineage records are not sampled.
    pub sample_rate: f64,
    /// Where to write the trace on shutdown (no export when `None`).
    pub export_path: Option<PathBuf>,
    /// Write the JSONL trace (the format `parsl-trace` reads).
    pub sink_jsonl: bool,
    /// Additionally write `<export_path>.chrome.json` in Chrome
    /// `trace_event` format (load in `chrome://tracing` / Perfetto).
    pub sink_chrome: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            sample_rate: 1.0,
            export_path: None,
            sink_jsonl: true,
            sink_chrome: false,
        }
    }
}

impl ObsConfig {
    /// Enabled, full sampling, no export (tests read snapshots directly).
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Enabled with a JSONL export path.
    pub fn exporting(path: impl Into<PathBuf>) -> Self {
        Self {
            enabled: true,
            export_path: Some(path.into()),
            ..Self::default()
        }
    }

    /// Sampling rate as a per-mille integer, clamped to [0, 1000].
    pub(crate) fn sample_per_mille(&self) -> u32 {
        (self.sample_rate.clamp(0.0, 1.0) * 1000.0).round() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_disabled_full_sampling() {
        let c = ObsConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.sample_per_mille(), 1000);
        assert!(c.sink_jsonl);
        assert!(!c.sink_chrome);
        assert!(c.export_path.is_none());
    }

    #[test]
    fn sample_rate_clamps() {
        let mut c = ObsConfig::on();
        c.sample_rate = 2.5;
        assert_eq!(c.sample_per_mille(), 1000);
        c.sample_rate = -1.0;
        assert_eq!(c.sample_per_mille(), 0);
        c.sample_rate = 0.25;
        assert_eq!(c.sample_per_mille(), 250);
    }
}
