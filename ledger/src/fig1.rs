//! Paper Fig. 1: `fixtures/scatter_images.cwl` (resize → sepia → blur per
//! image) through the full CLI path on HTEX with `staging: auto` and a
//! periodic checkpoint journal.
//!
//! Two workloads share this set-up. `fig1_images` runs the workflow into a
//! fresh workdir every time: `imaging`, `datastore`, `cwlexec` and the
//! `ckpt` write path do most of the work; `expr` and `serve` do none.
//! `fig1_resume` re-opens the journal a finished run left behind: it reads
//! what the first leg wrote, so a journal or content-store write-path gain
//! that costs the read path shows here.

use crate::cli::{self, Executor, Job};
use crate::harness::{self, Ctx, Report};
use crate::trace::Recorder;
use datastore::Digest;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Images scattered over (three tasks each) and their edge length. Fewer,
/// larger images than a pure overhead storm would use: on this class of
/// machine creating a file costs several hundred µs of kernel time, so a
/// run of thousands of tiny tasks measures the filesystem, not the stack.
pub const IMAGES: usize = 400;
pub const IMAGE_PX: u32 = 256;
const RESIZE_TO: u32 = IMAGE_PX / 2;
const BLUR_RADIUS: u32 = 1;
const TASKS_PER_IMAGE: usize = 3;

struct Setup {
    cwl: PathBuf,
    inputs_yml: PathBuf,
    config_yml: PathBuf,
    images: Vec<PathBuf>,
    /// xxh64 of each image's expected final output: the same resize →
    /// sepia → blur applied directly through `imaging`.
    expected: Vec<Digest>,
}

fn expected_digest(path: &Path) -> Result<Digest, String> {
    let img = imaging::read_rimg(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let out = imaging::box_blur(
        &imaging::sepia(&imaging::resize_bilinear(&img, RESIZE_TO, RESIZE_TO)),
        BLUR_RADIUS,
    );
    Ok(Digest::of_bytes(&imaging::codec::encode(&out)))
}

fn expected_digests(images: &[PathBuf]) -> Result<Vec<Digest>, String> {
    // The driver's two threads, half the images each.
    let (a, b) = images.split_at(images.len() / 2);
    let half = |part: &[PathBuf]| part.iter().map(|p| expected_digest(p)).collect();
    let (ra, rb): (Result<Vec<_>, String>, Result<Vec<_>, String>) = std::thread::scope(|s| {
        let hb = s.spawn(|| half(b));
        let ra = half(a);
        (ra, hb.join().expect("digest thread panicked"))
    });
    let mut out = ra?;
    out.extend(rb?);
    Ok(out)
}

fn setup(ctx: &Ctx, dir: &Path) -> Result<Setup, String> {
    harness::fresh_dir(dir)?;
    let n = ctx.size(IMAGES);
    let images = crate::gen::images(&dir.join("inputs"), n, IMAGE_PX, ctx.seed)?;
    let expected = expected_digests(&images)?;
    let inputs_yml = dir.join("inputs.yml");
    harness::write_file(
        &inputs_yml,
        &format!(
            "{}size: {RESIZE_TO}\nsepia: true\nradius: {BLUR_RADIUS}\n",
            harness::yaml_file_list("input_images", &images)
        ),
    )?;
    Ok(Setup {
        cwl: ctx.fixtures.join("scatter_images.cwl"),
        inputs_yml,
        config_yml: dir.join("config.yml"),
        images,
        expected,
    })
}

impl Setup {
    fn tasks(&self) -> usize {
        self.images.len() * TASKS_PER_IMAGE
    }

    fn write_config(&self, workdir: &Path) -> Result<(), String> {
        harness::write_file(
            &self.config_yml,
            &cli::config_yaml(Executor::Htex, workdir, true, None),
        )
    }

    fn job<'a>(&'a self, resume: Option<&'a Path>) -> Job<'a> {
        Job {
            config: &self.config_yml,
            cwl: &self.cwl,
            inputs: &self.inputs_yml,
            resume,
        }
    }

    /// Compare every output with its expected digest; returns how many
    /// are missing or wrong.
    fn wrong_outputs(&self, outcome: &cli::Outcome) -> usize {
        let Ok(paths) = cli::output_paths(&outcome.outputs, "final_outputs") else {
            return self.images.len();
        };
        let matching = paths
            .iter()
            .zip(&self.expected)
            .filter(|(p, want)| Digest::of_file(p).is_ok_and(|got| got == **want))
            .count();
        self.images.len() - matching.min(self.images.len())
    }

    /// Verify a fresh run: every output right, every task executed and
    /// journaled.
    fn check_fresh(&self, outcome: &cli::Outcome, report: &mut Report) {
        let mut bad = self.wrong_outputs(outcome);
        let journaled = outcome.ckpt.as_ref().map_or(0, |c| c.appended);
        if outcome.tasks != self.tasks() || journaled != self.tasks() {
            report.note(format!(
                "expected {} tasks executed and journaled, got {} and {journaled}",
                self.tasks(),
                outcome.tasks
            ));
            bad = self.images.len();
        }
        report.count(self.images.len(), bad);
    }

    /// Verify a resume: every output right, everything replayed, nothing
    /// re-executed or invalidated.
    fn check_resumed(&self, outcome: &cli::Outcome, report: &mut Report) {
        let mut bad = self.wrong_outputs(outcome);
        let (replayed, appended, invalidated) =
            outcome.ckpt.as_ref().map_or((0, usize::MAX, 0), |c| {
                (c.replayed, c.appended, c.invalidated)
            });
        if replayed != self.tasks() || appended != 0 || invalidated != 0 {
            report.note(format!(
                "resume must replay {} and re-execute 0: replayed {replayed}, re-executed {appended}, invalidated {invalidated}",
                self.tasks()
            ));
            bad = self.images.len();
        }
        report.count(self.images.len(), bad);
    }
}

/// Set up several times (see [`harness::repeat_setup`]); `warm` is the
/// warm-up that ends each set-up. Each set-up gets a directory of its own
/// and removes its predecessor's.
fn setup_reps(
    ctx: &Ctx,
    report: &mut Report,
    mut warm: impl FnMut(&Setup, &mut Report) -> Result<(), String>,
) -> Result<Setup, String> {
    let mut previous: Option<PathBuf> = None;
    harness::repeat_setup(ctx, report, |report| {
        if let Some(old) = previous.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        let dir = ctx.scratch.unique("setup");
        let s = setup(ctx, &dir)?;
        previous = Some(dir);
        warm(&s, report)?;
        Ok(s)
    })
}

/// One fresh run into `workdir`, verified, workdir removed afterwards.
fn fresh_run(s: &Setup, workdir: &Path, report: &mut Report) -> Result<f64, String> {
    harness::fresh_dir(workdir)?;
    s.write_config(workdir)?;
    let outcome = cli::run(&s.job(None))?;
    s.check_fresh(&outcome, report);
    let _ = std::fs::remove_dir_all(workdir);
    Ok(outcome.wall_s * 1e3)
}

pub fn run_images(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let s = setup_reps(ctx, &mut report, |s, r| {
        fresh_run(s, &ctx.scratch.unique("warm"), r).map(|_| ())
    })?;
    if ctx.trace {
        return trace_images(ctx, &s, report);
    }
    let n = s.images.len();
    harness::measure_loop(ctx, "fig1_images iteration", 3, &mut report, n, |_, r| {
        fresh_run(&s, &ctx.scratch.unique("run"), r)
    });
    report.peak_rss_mb = harness::peak_rss_mb(None);
    Ok(report)
}

pub fn run_resume(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // Set-up includes the run whose journal the timed leg resumes.
    let mut finished = PathBuf::new();
    let s = setup_reps(ctx, &mut report, |s, r| {
        finished = ctx.scratch.unique("finished");
        harness::fresh_dir(&finished)?;
        s.write_config(&finished)?;
        let first = cli::run(&s.job(None))?;
        s.check_fresh(&first, r);
        let warm = cli::run(&s.job(Some(&finished)))?;
        s.check_resumed(&warm, r);
        Ok(())
    })?;
    if ctx.trace {
        return trace_resume(&s, &finished, report);
    }
    let n = s.images.len();
    harness::measure_loop(ctx, "fig1_resume iteration", 3, &mut report, n, |_, r| {
        let outcome = cli::run(&s.job(Some(&finished)))?;
        s.check_resumed(&outcome, r);
        Ok(outcome.wall_s * 1e3)
    });
    report.peak_rss_mb = harness::peak_rss_mb(None);
    Ok(report)
}

fn trace_images(ctx: &Ctx, s: &Setup, mut report: Report) -> Result<Report, String> {
    let n = s.images.len();
    // Untraced reference for the tracing overhead.
    let untraced_ms = fresh_run(s, &ctx.scratch.unique("untraced"), &mut report)?;

    let rec = Arc::new(Recorder::new());
    let workdir = ctx.scratch.unique("traced");
    harness::fresh_dir(&workdir)?;
    s.write_config(&workdir)?;
    let root = rec.next_id();
    let start = rec.now_ns();
    let traced = cli::run_traced(&s.job(None), &rec, root, 1)?;
    let ((), _) = rec.span("verify", root, 1, |_| {
        s.check_fresh(&traced.outcome, &mut report)
    });
    rec.record(root, 0, 1, "ledger.iteration", start);
    cli::layers(&mut report, &traced, untraced_ms / 1e3);
    probes(ctx, s, &mut report)?;
    harness::finish_trace("fig1_images", &rec, root, &mut report)?;
    report.note(format!("{n} images, {} tasks", s.tasks()));
    Ok(report)
}

fn trace_resume(s: &Setup, finished: &Path, mut report: Report) -> Result<Report, String> {
    let untraced = cli::run(&s.job(Some(finished)))?;
    s.check_resumed(&untraced, &mut report);

    let rec = Arc::new(Recorder::new());
    let root = rec.next_id();
    let start = rec.now_ns();
    let traced = cli::run_traced(&s.job(Some(finished)), &rec, root, 1)?;
    let ((), _) = rec.span("verify", root, 1, |_| {
        s.check_resumed(&traced.outcome, &mut report)
    });
    rec.record(root, 0, 1, "ledger.iteration", start);
    cli::layers(&mut report, &traced, untraced.wall_s);
    report.layer("ckpt.prepare_resume_ms", traced.stages.ckpt_prepare_s * 1e3);
    harness::finish_trace("fig1_resume", &rec, root, &mut report)?;
    Ok(report)
}

/// Direct calls into `imaging`, `datastore`, `cwl` and `cwlexec` on one of
/// the generated images: what one task's layers cost without an executor.
fn probes(ctx: &Ctx, s: &Setup, report: &mut Report) -> Result<(), String> {
    const REPS: usize = 50;
    let path = &s.images[0];
    let img = imaging::read_rimg(path).map_err(|e| e.to_string())?;
    let resized = imaging::resize_bilinear(&img, RESIZE_TO, RESIZE_TO);
    let us = |secs: f64| secs * 1e6;
    report.layer(
        "imaging.resize_us",
        us(harness::per_call_s(REPS, || {
            std::hint::black_box(imaging::resize_bilinear(
                std::hint::black_box(&img),
                RESIZE_TO,
                RESIZE_TO,
            ));
        })),
    );
    report.layer(
        "imaging.sepia_us",
        us(harness::per_call_s(REPS, || {
            std::hint::black_box(imaging::sepia(std::hint::black_box(&resized)));
        })),
    );
    report.layer(
        "imaging.blur_us",
        us(harness::per_call_s(REPS, || {
            std::hint::black_box(imaging::box_blur(
                std::hint::black_box(&resized),
                BLUR_RADIUS,
            ));
        })),
    );
    let probe_dir = ctx.scratch.unique("probe");
    harness::fresh_dir(&probe_dir)?;
    let codec_file = probe_dir.join("codec.rimg");
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) as f64;
    let codec_s = harness::per_call_s(REPS, || {
        let img = imaging::read_rimg(path).expect("generated image reads back");
        imaging::write_rimg(&codec_file, &img).expect("scratch is writable");
    });
    // One read and one write of the file per call.
    report.layer(
        "imaging.codec_mb_per_s",
        2.0 * bytes / 1e6 / codec_s.max(1e-9),
    );

    let raw = std::fs::read(path).map_err(|e| e.to_string())?;
    let hash_s = harness::per_call_s(REPS, || {
        let mut x = datastore::Xxh64::new();
        x.update(std::hint::black_box(&raw));
        std::hint::black_box(x.digest());
    });
    report.layer(
        "datastore.hash_mb_per_s",
        raw.len() as f64 / 1e6 / hash_s.max(1e-9),
    );

    // cwl + cwlexec: the resize tool, built and executed directly.
    let tool_path = ctx.fixtures.join("resize_image.cwl");
    let cwl::CwlDocument::Tool(tool) = cwl::load_file(&tool_path)? else {
        return Err(format!("{} is not a CommandLineTool", tool_path.display()));
    };
    let engine = cwlexec::engine_for(&tool.requirements, expr::JsCostModel::free())?;
    let provided = match yamlite::parse_str(&format!(
        "input_image:\n  class: File\n  path: {}\noutput_image: resized.rimg\nsize: {RESIZE_TO}\n",
        path.display()
    )) {
        Ok(yamlite::Value::Map(m)) => m,
        _ => return Err("probe inputs did not parse".to_string()),
    };
    let resolved = cwl::input::resolve_inputs(&tool.inputs, &provided)?;
    report.layer(
        "cwl.build_command_us",
        us(harness::per_call_s(REPS * 4, || {
            std::hint::black_box(
                cwl::build_command(&tool, std::hint::black_box(&resolved), engine.as_ref())
                    .expect("resize command builds"),
            );
        })),
    );
    let mut i = 0;
    report.layer(
        "cwlexec.execute_tool_us",
        us(harness::per_call_s(REPS, || {
            i += 1;
            cwlexec::execute_tool(
                &tool,
                &provided,
                &probe_dir.join(format!("exec{i}")),
                engine.as_ref(),
                &cwlexec::BuiltinDispatch,
            )
            .expect("resize tool executes");
        })),
    );
    let _ = std::fs::remove_dir_all(&probe_dir);
    Ok(())
}
