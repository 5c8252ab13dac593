//! The multi-run service core: one warm kernel, many workflow runs.
//!
//! [`Service`] owns the daemon's long-lived machinery — one
//! `DataFlowKernel`/executor pool, one content-addressed [`Stager`], one
//! observability registry — and multiplexes admitted submissions over it.
//! Each submission becomes a [`RunRecord`] with its own run directory,
//! lineage namespace (`<tenant>/run-<id>`), and checkpoint journal; tasks
//! carry a [`parsl::RunTag`] so the shared memo table namespaces
//! fingerprints per workflow while still deduplicating identical work
//! across runs.
//!
//! The socket protocol layer ([`crate::daemon`]) is a thin front end over
//! this type; integration tests drive `Service` directly.

use crate::queue::FairShare;
use crate::run::{next_run_id, scan_runs, RunRecord, RunState};
use cwl_parsl::config::{CheckpointSettings, RunnerConfig, ServeSettings};
use cwl_parsl::{checkpoint, CwlAppOptions, RunSpec};
use cwlexec::StagingSettings;
use datastore::Stager;
use parking_lot::{Condvar, Mutex};
use parsl::{DataFlowKernel, RunTag};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use yamlite::Map;

/// Why a submission was turned away at the door.
#[derive(Debug)]
pub enum SubmitError {
    /// The daemon is draining: no new work.
    Draining,
    /// The run queue is at `serve.queue_cap`.
    QueueFull(usize),
    /// Static admission control rejected the document (E032
    /// unschedulable, broken wiring, …). `diagnostics` is the full
    /// rendered report, same text a standalone `parsl-cwl` run prints.
    Rejected {
        summary: String,
        diagnostics: String,
    },
    /// Everything else (I/O, bad paths).
    Internal(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Draining => write!(f, "daemon is draining; not accepting submissions"),
            Self::QueueFull(cap) => write!(f, "run queue is full ({cap} queued)"),
            Self::Rejected { summary, .. } => write!(f, "{summary}"),
            Self::Internal(e) => write!(f, "{e}"),
        }
    }
}

/// A point-in-time view of one run, safe to serialize.
#[derive(Clone, Debug)]
pub struct RunSnapshot {
    pub id: u64,
    pub tenant: String,
    pub state: RunState,
    pub cwl: PathBuf,
    pub run_dir: PathBuf,
    pub error: Option<String>,
    pub outputs: Option<Map>,
    pub replayed: usize,
    pub appended: usize,
}

/// The long-running workflow service (see module docs).
pub struct Service {
    dfk: Arc<DataFlowKernel>,
    gate: Arc<FairShare>,
    stager: Arc<Stager>,
    staging: StagingSettings,
    runs_dir: PathBuf,
    serve: ServeSettings,
    builtin_tools: bool,
    strict_check: bool,
    capacity: cwl::analyze::ExecutorCapacity,
    runs: Mutex<BTreeMap<u64, RunRecord>>,
    /// What `wait`, `idle`, `drained` and `shutdown` read — run states,
    /// `active`, `draining` — changes only through code that then calls
    /// [`Service::notify`] once, after the change is visible. Run states
    /// and `active` change under the `runs` lock, so a condvar waiter that
    /// checks them under that lock cannot miss the notification.
    changed: Condvar,
    /// The daemon's wake-up, called after `changed` on every notification.
    on_change: OnceLock<Box<dyn Fn() + Send + Sync>>,
    /// Runs claimed by a run thread. Written only under the `runs` lock.
    active: AtomicUsize,
    draining: AtomicBool,
    /// Set by `fast_stop`, under the `runs` lock: no run starts and no
    /// manifest is rewritten afterwards.
    stopped: AtomicBool,
    queued_metric: Arc<obs::Counter>,
    admitted_metric: Arc<obs::Counter>,
    rejected_metric: Arc<obs::Counter>,
    active_gauge: Arc<obs::Gauge>,
}

impl Service {
    /// Boot the service from a loaded config. With `resume`, every
    /// non-terminal run found under `<workdir>/runs` is re-queued; its
    /// checkpoint journal replays completed tasks when it restarts.
    pub fn start(config: RunnerConfig, resume: bool) -> Result<Arc<Self>, String> {
        let capacity = cwl_parsl::lint::executor_capacity(&config.parsl);
        let gate = Arc::new(FairShare::new(
            capacity.slots,
            config.serve.tenants.clone(),
            config.serve.default_weight,
        ));
        let parsl = config.parsl.with_gate(gate.clone());
        let dfk = DataFlowKernel::try_new(parsl)?;
        gate.bind_queue_wait(
            dfk.observability()
                .histogram(obs::names::SERVE_QUEUE_WAIT_US),
        );
        std::fs::create_dir_all(&config.workdir)
            .map_err(|e| format!("workdir {}: {e}", config.workdir.display()))?;
        let stager = config.staging.build(&config.workdir)?;
        let runs_dir = config.workdir.join("runs");
        std::fs::create_dir_all(&runs_dir)
            .map_err(|e| format!("runs dir {}: {e}", runs_dir.display()))?;

        let obs = dfk.observability();
        let svc = Arc::new(Self {
            queued_metric: obs.counter(obs::names::SERVE_QUEUED),
            admitted_metric: obs.counter(obs::names::SERVE_ADMITTED),
            rejected_metric: obs.counter(obs::names::SERVE_REJECTED),
            active_gauge: obs.gauge(obs::names::SERVE_ACTIVE),
            dfk,
            gate,
            stager,
            staging: config.staging,
            runs_dir,
            serve: config.serve,
            builtin_tools: config.builtin_tools,
            strict_check: config.strict_check,
            capacity,
            runs: Mutex::new(BTreeMap::new()),
            changed: Condvar::new(),
            on_change: OnceLock::new(),
            active: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
        });

        if resume {
            let mut requeued = 0usize;
            {
                let mut runs = svc.runs.lock();
                for mut rec in scan_runs(&svc.runs_dir) {
                    if rec.state.is_terminal() {
                        runs.insert(rec.id, rec);
                        continue;
                    }
                    rec.state = RunState::Queued;
                    let _ = rec.save();
                    requeued += 1;
                    runs.insert(rec.id, rec);
                }
            }
            if requeued > 0 {
                svc.queued_metric.add(requeued as u64);
                svc.pump();
            }
        }
        Ok(svc)
    }

    /// The kernel, for metrics/trace inspection.
    pub fn kernel(&self) -> &Arc<DataFlowKernel> {
        &self.dfk
    }

    /// The shared data plane.
    pub fn stager(&self) -> &Arc<Stager> {
        &self.stager
    }

    /// Register the one callback run after every change a waiter can be
    /// waiting for — a run ending or being cancelled, a drain beginning —
    /// once the change is visible to [`Service::status`], [`Service::idle`]
    /// and [`Service::drained`] (the daemon's loop wake-up). It runs on
    /// whichever thread made the change, so it must not block. A second
    /// registration is ignored.
    pub fn on_change(&self, wake: impl Fn() + Send + Sync + 'static) {
        let _ = self.on_change.set(Box::new(wake));
    }

    /// Tell every waiter — condvar and daemon loop — to look again.
    fn notify(&self) {
        self.changed.notify_all();
        if let Some(wake) = self.on_change.get() {
            wake();
        }
    }

    /// Admit a workflow submission. The document and every file it runs
    /// are read once, here; the run executes that set even if the files
    /// change before it starts. Admission control mirrors the standalone
    /// runner's pre-run gate: the static analyzer runs with this daemon's
    /// executor capacity, so an E032-unschedulable document is rejected
    /// here, at submit time, with the same diagnostics a standalone run
    /// would print. A document that does not load is refused too.
    pub fn submit(
        self: &Arc<Self>,
        cwl: &Path,
        inputs: &Map,
        tenant: &str,
    ) -> Result<u64, SubmitError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(SubmitError::Draining);
        }
        {
            let runs = self.runs.lock();
            let queued = runs
                .values()
                .filter(|r| r.state == RunState::Queued)
                .count();
            if queued >= self.serve.queue_cap {
                return Err(SubmitError::QueueFull(queued));
            }
        }
        let cwl = cwl
            .canonicalize()
            .map_err(|e| SubmitError::Internal(format!("{}: {e}", cwl.display())))?;
        let spec = RunSpec::load(&cwl, inputs.clone());
        if let Err(report) = spec.gate(self.capacity.clone(), self.strict_check) {
            self.rejected_metric.add(1);
            return Err(SubmitError::Rejected {
                summary: format!(
                    "admission rejected: {} error(s), {} warning(s)",
                    report.error_count(),
                    report.warning_count()
                ),
                diagnostics: report.render_text().trim_end().to_string(),
            });
        }
        spec.document().map_err(SubmitError::Internal)?;
        let id = next_run_id(&self.runs_dir).map_err(SubmitError::Internal)?;
        let run_dir = self.runs_dir.join(format!("run-{id}"));
        std::fs::create_dir_all(&run_dir)
            .map_err(|e| SubmitError::Internal(format!("{}: {e}", run_dir.display())))?;
        let mut rec = RunRecord {
            id,
            tenant: tenant.to_string(),
            cwl,
            inputs: inputs.clone(),
            state: RunState::Queued,
            run_dir,
            error: None,
            outputs: None,
            replayed: 0,
            appended: 0,
            spec: Some(Arc::new(spec)),
        };
        // Start at once when a slot is free and nobody queued earlier: the
        // record is claimed under the lock and its manifest written once,
        // already `running`. No ack without a manifest.
        let started = {
            let mut runs = self.runs.lock();
            let start = self.has_slot() && !runs.values().any(|r| r.state == RunState::Queued);
            if start {
                rec.state = RunState::Running;
            }
            rec.save().map_err(SubmitError::Internal)?;
            let spec = if start {
                self.claim_slot();
                rec.spec.take()
            } else {
                None
            };
            runs.insert(id, rec);
            start.then_some(spec)
        };
        self.queued_metric.add(1);
        self.admitted_metric.add(1);
        match started {
            Some(spec) => self.spawn_run(id, spec),
            None => self.pump(),
        }
        Ok(id)
    }

    /// Whether another run may start now. Read under the `runs` lock.
    fn has_slot(&self) -> bool {
        !self.stopped.load(Ordering::Acquire)
            && self.active.load(Ordering::Acquire) < self.serve.max_in_flight
    }

    /// Take an in-flight slot for a run just marked `running`. Called under
    /// the `runs` lock, so two starts never oversubscribe.
    fn claim_slot(&self) {
        let active = self.active.fetch_add(1, Ordering::AcqRel) + 1;
        self.active_gauge.set(active as i64);
    }

    /// Start queued runs while in-flight slots remain, lowest id first.
    fn pump(self: &Arc<Self>) {
        loop {
            let next = {
                let mut runs = self.runs.lock();
                if !self.has_slot() {
                    None
                } else {
                    runs.values_mut()
                        .find(|r| r.state == RunState::Queued)
                        .map(|rec| {
                            rec.state = RunState::Running;
                            let _ = rec.save();
                            self.claim_slot();
                            (rec.id, rec.spec.take())
                        })
                }
            };
            let Some((id, spec)) = next else { return };
            self.spawn_run(id, spec);
        }
    }

    /// Run `id` on its own thread, then hand its slot to the queue.
    fn spawn_run(self: &Arc<Self>, id: u64, spec: Option<Arc<RunSpec>>) {
        let svc = self.clone();
        std::thread::spawn(move || {
            let result = svc.execute(id, spec);
            svc.finish(id, result);
            svc.pump();
        });
    }

    /// Run one admitted workflow on the shared kernel. Blocks (on its
    /// worker thread) until every task finishes. `spec` is what admission
    /// loaded; a run recovered from its manifest reloads it.
    fn execute(self: &Arc<Self>, id: u64, spec: Option<Arc<RunSpec>>) -> Result<Map, String> {
        let (tenant, run_dir, cwl, inputs) = {
            let runs = self.runs.lock();
            let rec = runs.get(&id).ok_or("run vanished")?;
            (
                rec.tenant.clone(),
                rec.run_dir.clone(),
                rec.cwl.clone(),
                rec.inputs.clone(),
            )
        };
        let spec = spec.unwrap_or_else(|| Arc::new(RunSpec::load(&cwl, inputs)));
        // Per-run durable journal, bound to the workflow's run hash so a
        // resume replays only journals that match document + inputs.
        let hash = spec.hash()?;
        let ckpt_dir = run_dir.join("ckpt");
        let resume_from = ckpt_dir
            .join(checkpoint::JOURNAL_FILE)
            .exists()
            .then_some(ckpt_dir.as_path());
        let settings = CheckpointSettings::per_run(ckpt_dir.clone());
        let prepared = checkpoint::prepare(&settings, &run_dir, resume_from, hash, &spec.label())?
            .ok_or("internal: per-run checkpointing must be on")?;
        self.dfk.attach_run_journal(id, prepared.journal.clone());
        prepared.seed_into(&self.dfk, Some(id));

        let tag = RunTag {
            run: id,
            tenant: Arc::from(tenant.as_str()),
            memo_ns: hash,
        };
        let mut options = CwlAppOptions::in_dir(&run_dir)
            .with_staging(self.staging.clone())
            .with_stager(self.stager.clone())
            .with_run_tag(tag);
        if self.builtin_tools {
            options = options.with_builtin_tools();
        }
        spec.prestage(&self.stager, self.staging.pool);
        spec.execute(&self.dfk, options)
    }

    /// Record a run's terminal state, flush + detach its journal, and
    /// give its in-flight slot back — one change, one notification.
    fn finish(&self, id: u64, result: Result<Map, String>) {
        let stats = self.dfk.detach_run_journal(id).unwrap_or_default();
        self.gate.forget_run(id);
        {
            let mut runs = self.runs.lock();
            // After a fast stop the manifest must keep saying `running`:
            // that is what makes `--resume` pick the run up again.
            let rec = runs
                .get_mut(&id)
                .filter(|_| !self.stopped.load(Ordering::Acquire));
            if let Some(rec) = rec {
                rec.replayed = stats.replayed;
                rec.appended = stats.appended;
                match result {
                    // A terminal record is final: a cancelled run keeps the
                    // client's verdict and its error, whatever the abort
                    // then reports.
                    _ if rec.state == RunState::Cancelled => {}
                    Ok(outputs) => {
                        rec.state = RunState::Completed;
                        rec.outputs = Some(outputs);
                    }
                    Err(e) => {
                        rec.state = RunState::Failed;
                        rec.error = Some(e);
                    }
                }
                let _ = rec.save();
            }
            let active = self.active.fetch_sub(1, Ordering::AcqRel) - 1;
            self.active_gauge.set(active as i64);
        }
        self.notify();
    }

    /// Snapshot one run.
    pub fn status(&self, id: u64) -> Option<RunSnapshot> {
        let runs = self.runs.lock();
        runs.get(&id).map(|r| self.snapshot(r))
    }

    /// Snapshot all runs, id order.
    pub fn list(&self) -> Vec<RunSnapshot> {
        let runs = self.runs.lock();
        runs.values().map(|r| self.snapshot(r)).collect()
    }

    fn snapshot(&self, rec: &RunRecord) -> RunSnapshot {
        // A running run's checkpoint stats live on the kernel until
        // `finish` folds them into the record.
        let (replayed, appended) = match self.dfk.journal_stats(Some(rec.id)) {
            Some(s) if !rec.state.is_terminal() => (s.replayed, s.appended),
            _ => (rec.replayed, rec.appended),
        };
        RunSnapshot {
            id: rec.id,
            tenant: rec.tenant.clone(),
            state: rec.state,
            cwl: rec.cwl.clone(),
            run_dir: rec.run_dir.clone(),
            error: rec.error.clone(),
            outputs: rec.outputs.clone(),
            replayed,
            appended,
        }
    }

    /// Runs waiting for an in-flight slot.
    pub fn queued_runs(&self) -> usize {
        self.runs
            .lock()
            .values()
            .filter(|r| r.state == RunState::Queued)
            .count()
    }

    /// Runs currently executing.
    pub fn active_runs(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Block until `id` reaches a terminal state.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<RunSnapshot, String> {
        let deadline = Instant::now() + timeout;
        let mut runs = self.runs.lock();
        loop {
            match runs.get(&id) {
                None => return Err(format!("unknown run {id}")),
                Some(rec) if rec.state.is_terminal() => {
                    let snap = self.snapshot(rec);
                    return Ok(snap);
                }
                Some(_) => {}
            }
            if self.changed.wait_until(&mut runs, deadline).timed_out() {
                return Err(format!("run {id} still not terminal after {timeout:?}"));
            }
        }
    }

    /// Cancel a run. Queued runs never start; running runs abort their
    /// gated tasks (in-flight tasks finish — there is no preemption).
    pub fn cancel(&self, id: u64) -> bool {
        let found = {
            let mut runs = self.runs.lock();
            match runs.get_mut(&id) {
                None => return false,
                Some(rec) if rec.state.is_terminal() => return true,
                Some(rec) => {
                    rec.state = RunState::Cancelled;
                    // A queued run never starts: its documents can go.
                    rec.spec = None;
                    rec.error
                        .get_or_insert_with(|| "cancelled by client".to_string());
                    let _ = rec.save();
                    true
                }
            }
        };
        self.gate.cancel_run(id);
        self.notify();
        found
    }

    /// Stop admitting; in-flight and queued runs still finish.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.notify();
    }

    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// True when nothing is queued or running. Read under the `runs` lock
    /// so a run moving from queued to running is never seen as neither.
    pub fn idle(&self) -> bool {
        self.idle_in(&self.runs.lock())
    }

    fn idle_in(&self, runs: &BTreeMap<u64, RunRecord>) -> bool {
        self.active.load(Ordering::Acquire) == 0
            && !runs.values().any(|r| r.state == RunState::Queued)
    }

    /// True once a drain has nothing left to finish.
    pub fn drained(&self) -> bool {
        self.draining() && self.idle()
    }

    /// Fast stop (SIGTERM path): flush every active run's journal and
    /// return without waiting. Manifests keep their `running` state, so a
    /// restart with `--resume` re-queues them; the synced journals replay
    /// everything that completed. Tasks already on a worker cannot be
    /// preempted (they die with the process); everything still behind the
    /// gate is aborted, so a process that lingers starts nothing new.
    pub fn fast_stop(&self) {
        let ids: Vec<u64> = {
            let runs = self.runs.lock();
            self.stopped.store(true, Ordering::Release);
            runs.keys().copied().collect()
        };
        for id in ids {
            let _ = self.dfk.detach_run_journal(id);
            self.gate.cancel_run(id);
        }
    }

    /// Graceful shutdown: drain, wait for every run to finish, fold the
    /// data-plane stats into the trace, and shut the kernel down (which
    /// exports the trace for `parsl-trace`).
    pub fn shutdown(&self) {
        self.drain();
        {
            let mut runs = self.runs.lock();
            while !self.idle_in(&runs) {
                self.changed.wait(&mut runs);
            }
        }
        cwlexec::publish_stage_stats(self.dfk.observability(), self.stager.stats());
        self.dfk.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cancel` then the run thread's `finish` with the abort's error: the
    /// record keeps the state and the error `cancel` gave it, so every
    /// `status` of the terminal run agrees.
    #[test]
    fn finish_keeps_a_cancelled_runs_error() {
        let workdir = std::env::temp_dir().join(format!("serve-finish-{}", std::process::id()));
        let yaml = format!(
            "executor:\n  kind: thread-pool\n  workers: 1\nrun:\n  workdir: {}\n",
            workdir.display()
        );
        let config =
            cwl_parsl::config::load_config_value(&yamlite::parse_str(&yaml).unwrap()).unwrap();
        let svc = Service::start(config, false).unwrap();
        let id = 7;
        {
            let mut runs = svc.runs.lock();
            let rec = RunRecord {
                id,
                tenant: "t".to_string(),
                cwl: workdir.join("none.cwl"),
                inputs: Map::new(),
                state: RunState::Running,
                run_dir: svc.runs_dir.join(format!("run-{id}")),
                error: None,
                outputs: None,
                replayed: 0,
                appended: 0,
                spec: None,
            };
            std::fs::create_dir_all(&rec.run_dir).unwrap();
            runs.insert(id, rec);
            svc.claim_slot();
        }
        assert!(svc.cancel(id));
        svc.finish(id, Err("task failed: run cancelled".to_string()));
        let snap = svc.status(id).unwrap();
        assert_eq!(snap.state, RunState::Cancelled);
        assert_eq!(snap.error.as_deref(), Some("cancelled by client"));
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&workdir);
    }
}
