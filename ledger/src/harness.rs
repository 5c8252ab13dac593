//! What every workload shares: the run context, scratch hygiene, the timed
//! measurement loop with its per-run timeout, process accounting from
//! `/proc`, and the report a workload hands back.

use crate::trace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Executor slots every workload gives the system under test (this box has
/// two cores; the driver itself uses at most two threads).
pub const SLOTS: usize = 2;

/// A run that has not finished after this long is recorded as failed
/// instead of hanging the ledger.
pub const RUN_TIMEOUT: Duration = Duration::from_secs(60);

/// How many times a workload sets up in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The repository root (the ledger package sits one level below it).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The repository's fixtures directory, canonical so CWL paths handed to
/// the daemon and the run-hash agree.
pub fn fixtures_dir() -> Result<PathBuf, String> {
    let dir = repo_root().join("fixtures");
    dir.canonicalize()
        .map_err(|e| format!("fixtures directory {}: {e}", dir.display()))
}

/// `<cargo target dir>/ledger`: where scratch directories and trace files
/// go. Derived from the running executable (`<target>/<profile>/ledger`),
/// so it follows `CARGO_TARGET_DIR` and stays inside the checkout.
pub fn output_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .ancestors()
        .find(|p| p.join("CACHEDIR.TAG").is_file())
        .ok_or_else(|| format!("{} is not under a cargo target directory", exe.display()))?;
    Ok(target.join("ledger"))
}

/// A scratch directory removed on drop: on success, on failure and on panic.
pub struct Scratch {
    dir: PathBuf,
    next: AtomicU32,
}

/// Mark `dir` as the top of a directory hierarchy (`chattr +T`), best
/// effort. ext4 then places each directory created directly inside it in a
/// block group of its own choosing instead of next to its siblings.
///
/// Why a benchmark cares: ext4 will not reuse an inode deleted in the last
/// ~35 s, and finds a free one by scanning the group's bitmap from the start
/// past every such inode. A driver that runs a workflow, deletes its
/// thousands of small files and runs it again therefore pays for each file
/// it creates in proportion to the files it recently deleted — on this
/// class of machine 500–1000 µs per file instead of 40 µs, growing over a
/// run and depending on what ran in the minute before. With the flag, every
/// iteration's workdir starts in a group without that history.
pub fn spread_children(dir: &Path) {
    let _ = std::process::Command::new("chattr")
        .arg("+T")
        .arg(dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

impl Scratch {
    pub fn create(tag: &str) -> Result<Self, String> {
        let dir = output_dir()?.join(format!("scratch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        spread_children(&dir);
        Ok(Self {
            dir,
            next: AtomicU32::new(0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A path for a new directory directly inside the scratch directory,
    /// with a name no earlier run used (ext4 picks the block group of such
    /// a directory from its name; see [`spread_children`]).
    pub fn unique(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{tag}-{}-{n}", std::process::id()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything a workload needs to know about this run.
pub struct Ctx {
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Traced run: one decomposed iteration plus the layer probes.
    pub trace: bool,
    /// ~1/50 sizes, same code paths, verification on.
    pub smoke: bool,
    pub scratch: Scratch,
    pub fixtures: PathBuf,
}

impl Ctx {
    /// A full size, or about a fiftieth of it under `--smoke`.
    pub fn size(&self, full: usize) -> usize {
        if self.smoke {
            (full / 50).max(2)
        } else {
            full
        }
    }
}

/// Set up [`SETUP_REPS`] times (once for smoke and traced runs), recording
/// how long each took — `setup_s` is their median — and keep the last. The
/// previous set-up is dropped before the next is built.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    report: &mut Report,
    mut setup: impl FnMut(&mut Report) -> Result<T, String>,
) -> Result<T, String> {
    let reps = if ctx.smoke || ctx.trace {
        1
    } else {
        SETUP_REPS
    };
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (made, secs) = timed(|| setup(report));
        report.setup_s.push(secs);
        last = Some(made?);
    }
    last.ok_or_else(|| "no set-up repetition ran".to_string())
}

/// What a workload hands back. Untraced runs fill `run_ms`; traced runs
/// fill `layers`.
pub struct Report {
    /// Operations attempted (outputs checked, tasks, served runs).
    pub attempted: u64,
    /// Operations that failed, were refused, gave a wrong output or timed out.
    pub failed: u64,
    /// Wall time of each timed run, in ms.
    pub run_ms: Vec<f64>,
    /// The tail percentile this workload states (`run_tail_ms` reports it
    /// when enough samples lie beyond it; see `stats::tail`).
    pub tail_percentile: usize,
    /// Wall time of each set-up repetition, in s.
    pub setup_s: Vec<f64>,
    /// Peak resident set of the process hosting the system under test.
    pub peak_rss_mb: f64,
    /// Per-layer metrics by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines (tables, sample counts) printed before the JSON.
    pub notes: Vec<String>,
}

/// Tail percentile of the batch workloads: the upper quartile of their
/// timed iterations.
pub const BATCH_TAIL_PERCENTILE: usize = 75;

impl Default for Report {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            run_ms: Vec::new(),
            tail_percentile: BATCH_TAIL_PERCENTILE,
            setup_s: Vec::new(),
            peak_rss_mb: 0.0,
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }
}

impl Report {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Count `n` attempted operations of which `bad` failed.
    pub fn count(&mut self, n: usize, bad: usize) {
        self.attempted += n as u64;
        self.failed += bad.min(n) as u64;
    }
}

/// Arms a deadline for one run. If the guard is not dropped within `limit`,
/// the run is recorded as failed instead of hanging the ledger: the scratch
/// directory is removed, a registered child process is killed, and the
/// process exits with [`EXIT_TIMED_OUT`], which the all-workloads mode
/// counts as every operation of the workload failing.
pub struct Watchdog {
    disarm: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Exit code of a run the watchdog gave up on.
pub const EXIT_TIMED_OUT: i32 = 3;

/// Pid of the child process (the serve daemon, a storm iteration) to kill
/// if the watchdog fires (0 = none).
pub static CHILD_PID: AtomicU32 = AtomicU32::new(0);

impl Watchdog {
    pub fn arm(what: &str, scratch: &Path, limit: Duration) -> Self {
        let (tx, rx) = mpsc::channel::<()>();
        let what = what.to_string();
        let scratch = scratch.to_path_buf();
        let thread = std::thread::spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(limit) {
                eprintln!(
                    "ledger: {what} did not finish within {} s; recorded as failed",
                    limit.as_secs()
                );
                let pid = CHILD_PID.load(Ordering::SeqCst);
                if pid != 0 {
                    let _ = std::process::Command::new("kill")
                        .args(["-KILL", &pid.to_string()])
                        .status();
                }
                let _ = std::fs::remove_dir_all(&scratch);
                std::process::exit(EXIT_TIMED_OUT);
            }
        });
        Self {
            disarm: Some(tx),
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Dropping the sender wakes the thread with `Disconnected`.
        drop(self.disarm.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The timed loop of a batch workload: call `iteration` (which returns the
/// timed wall in ms, or an error) until `ctx.seconds` have passed, at least
/// `min_iters` times, each under a [`Watchdog`]. Verification and clean-up
/// inside `iteration` count toward the budget but not toward the returned
/// wall.
pub fn measure_loop(
    ctx: &Ctx,
    what: &str,
    min_iters: usize,
    report: &mut Report,
    ops_per_iter: usize,
    mut iteration: impl FnMut(usize, &mut Report) -> Result<f64, String>,
) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_iters || start.elapsed().as_secs_f64() < ctx.seconds {
        let outcome = {
            let _deadline = Watchdog::arm(what, ctx.scratch.path(), RUN_TIMEOUT);
            iteration(i, report)
        };
        match outcome {
            Ok(ms) => report.run_ms.push(ms),
            Err(e) => {
                report.count(ops_per_iter, ops_per_iter);
                report.note(format!("iteration {i} failed: {e}"));
                // A failed or hung iteration may have left the system in
                // an unknown state; do not time further ones on top of it.
                return;
            }
        }
        i += 1;
    }
}

/// Print the per-layer table for the spans under `root` and write them to
/// `<target>/ledger/<workload>.trace.jsonl`.
pub fn finish_trace(
    workload: &str,
    rec: &trace::Recorder,
    root: u64,
    report: &mut Report,
) -> Result<(), String> {
    let spans = rec.spans();
    let wall_ns = spans
        .iter()
        .find(|s| s.id == root)
        .map_or(0, trace::Span::duration_ns);
    let (table, coverage) = trace::render_table(&trace::layer_table(&spans), wall_ns);
    report.note(format!(
        "per-layer table, {workload} (one traced iteration):\n{table}"
    ));
    report.note(format!(
        "self times account for {:.1}% of the traced wall",
        coverage * 100.0
    ));
    let path = output_dir()?.join(format!("{workload}.trace.jsonl"));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    report.note(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}

/// Time one closure in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Mean seconds per call of `f` over `reps` calls.
pub fn per_call_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps.max(1) as f64
}

fn proc_status_kb(pid: Option<u32>, key: &str) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    proc_status_kb(pid, "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds `pid` has used (`/proc/<pid>/stat` fields 14
/// and 15, in clock ticks of 1/100 s on Linux).
pub fn cpu_s(pid: u32) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are well-formed.
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// A YAML list of `class: File` entries for an inputs file.
pub fn yaml_file_list(key: &str, paths: &[PathBuf]) -> String {
    let mut out = format!("{key}:\n");
    for p in paths {
        out.push_str(&format!("  - class: File\n    path: {}\n", p.display()));
    }
    out
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(tag: &str) -> Ctx {
        Ctx {
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: true,
            scratch: Scratch::create(tag).unwrap(),
            fixtures: fixtures_dir().unwrap(),
        }
    }

    #[test]
    fn measure_loop_runs_min_iters_and_stops_on_error() {
        let ctx = ctx("harness-loop");
        let mut r = Report::default();
        measure_loop(&ctx, "test", 3, &mut r, 5, |i, _| Ok(i as f64));
        assert_eq!(r.run_ms, vec![0.0, 1.0, 2.0]);
        assert_eq!((r.attempted, r.failed), (0, 0));

        let mut r = Report::default();
        measure_loop(&ctx, "test", 3, &mut r, 5, |i, _| {
            if i == 1 {
                Err("boom".into())
            } else {
                Ok(1.0)
            }
        });
        assert_eq!(r.run_ms.len(), 1);
        assert_eq!((r.attempted, r.failed), (5, 5));
        assert!(r.notes[0].contains("boom"));
    }

    #[test]
    fn scratch_is_removed_on_drop_and_names_are_unique() {
        let ctx = ctx("harness-scratch");
        let dir = ctx.scratch.path().to_path_buf();
        assert!(dir.is_dir());
        assert_ne!(ctx.scratch.unique("run"), ctx.scratch.unique("run"));
        assert_eq!(ctx.size(5000), 100);
        drop(ctx);
        assert!(!dir.exists());
    }

    #[test]
    fn proc_accounting_reads_this_process() {
        assert!(peak_rss_mb(None) > 0.0);
        assert!(cpu_s(std::process::id()) >= 0.0);
        assert_eq!(peak_rss_mb(Some(u32::MAX)), 0.0);
    }

    #[test]
    fn watchdog_disarms_when_the_run_finishes() {
        let dog = Watchdog::arm(
            "test run",
            Path::new("/nonexistent/ledger-test"),
            RUN_TIMEOUT,
        );
        drop(dog); // joins the thread; reaching the next line is the test
    }
}
