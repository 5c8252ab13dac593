//! How a built command actually executes.
//!
//! [`SubprocessDispatch`] spawns the real program. [`BuiltinDispatch`]
//! recognizes this workspace's workload tools and runs them in-process —
//! the same pixels get crunched and the same files get written, but
//! thousand-task sweeps stay hermetic (no PATH dependence) and avoid
//! fork/exec noise that would drown the scheduling effects the paper's
//! figures measure. All runners share whichever dispatch the experiment
//! selects, so comparisons stay apples-to-apples.

use cwl::BuiltCommand;
use std::io::Write;
use std::path::Path;

/// Executes a built command in a working directory.
pub trait ToolDispatch: Send + Sync {
    /// Run the command; `Ok(())` on success, `Err` with a message otherwise
    /// (non-zero exit counts as failure, mirroring CWL semantics).
    fn run(&self, cmd: &BuiltCommand, workdir: &Path) -> Result<(), String>;

    /// Label for logs.
    fn label(&self) -> &'static str;
}

/// Spawn the real subprocess.
pub struct SubprocessDispatch;

impl ToolDispatch for SubprocessDispatch {
    fn run(&self, cmd: &BuiltCommand, workdir: &Path) -> Result<(), String> {
        let Some(program) = cmd.argv.first() else {
            return Err("empty argv".to_string());
        };
        let mut command = std::process::Command::new(program);
        command.args(&cmd.argv[1..]).current_dir(workdir);
        for (k, v) in &cmd.env {
            command.env(k, v);
        }
        let stdout_file = cmd
            .stdout
            .as_ref()
            .map(|name| std::fs::File::create(workdir.join(name)))
            .transpose()
            .map_err(|e| format!("cannot create stdout capture: {e}"))?;
        if let Some(f) = stdout_file {
            command.stdout(f);
        }
        let stderr_file = cmd
            .stderr
            .as_ref()
            .map(|name| std::fs::File::create(workdir.join(name)))
            .transpose()
            .map_err(|e| format!("cannot create stderr capture: {e}"))?;
        if let Some(f) = stderr_file {
            command.stderr(f);
        }
        let status = command
            .status()
            .map_err(|e| format!("cannot spawn {program:?}: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("{program:?} exited with status {status}"))
        }
    }

    fn label(&self) -> &'static str {
        "subprocess"
    }
}

/// Run the workspace's workload tools in-process.
///
/// Recognized commands:
/// * `imgtool gen|resize|sepia|blur|info …` — the imaging kernels, through
///   the same front end as the `imgtool` binary ([`imaging::imgtool::run`]);
///   what `info` prints goes to the stdout capture;
/// * `echo args…` — writes args to the stdout capture;
/// * `cat file…` — concatenates files to the stdout capture;
/// * `wc-words file` — writes the file's word count to the stdout capture;
/// * `sleepms N` — sleeps N ms (synthetic workload knob).
///
/// Unrecognized commands return an error (use [`SubprocessDispatch`] for
/// arbitrary programs).
pub struct BuiltinDispatch;

impl BuiltinDispatch {
    fn write_stdout(cmd: &BuiltCommand, workdir: &Path, content: &str) -> Result<(), String> {
        if let Some(name) = &cmd.stdout {
            let mut f = std::fs::File::create(workdir.join(name))
                .map_err(|e| format!("cannot create stdout capture: {e}"))?;
            f.write_all(content.as_bytes())
                .map_err(|e| format!("cannot write stdout capture: {e}"))?;
        }
        Ok(())
    }
}

impl ToolDispatch for BuiltinDispatch {
    fn run(&self, cmd: &BuiltCommand, workdir: &Path) -> Result<(), String> {
        let argv = &cmd.argv;
        let Some(program) = argv.first().map(String::as_str) else {
            return Err("empty argv".to_string());
        };
        match program {
            "echo" => {
                let line = argv[1..].join(" ") + "\n";
                Self::write_stdout(cmd, workdir, &line)
            }
            "cat" => {
                let mut out = String::new();
                for name in &argv[1..] {
                    let p = workdir.join(name);
                    let p = if p.exists() { p } else { name.into() };
                    out.push_str(
                        &std::fs::read_to_string(&p)
                            .map_err(|e| format!("cat: {}: {e}", p.display()))?,
                    );
                }
                Self::write_stdout(cmd, workdir, &out)
            }
            "wc-words" => {
                let name = argv.get(1).ok_or("wc-words: missing file")?;
                let p = workdir.join(name);
                let p = if p.exists() { p } else { name.into() };
                let text = std::fs::read_to_string(&p)
                    .map_err(|e| format!("wc-words: {}: {e}", p.display()))?;
                Self::write_stdout(
                    cmd,
                    workdir,
                    &format!("{}\n", text.split_whitespace().count()),
                )
            }
            "sleepms" => {
                let ms: u64 = argv
                    .get(1)
                    .ok_or("sleepms: missing duration")?
                    .parse()
                    .map_err(|_| "sleepms: bad duration".to_string())?;
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Self::write_stdout(cmd, workdir, "slept\n")
            }
            "imgtool" => {
                let out = imaging::imgtool::run(&argv[1..], workdir)
                    .map_err(|e| format!("imgtool: {e}"))?;
                Self::write_stdout(cmd, workdir, &out)
            }
            other => Err(format!(
                "builtin dispatch does not recognize {other:?} (use SubprocessDispatch)"
            )),
        }
    }

    fn label(&self) -> &'static str {
        "builtin"
    }
}

/// Failure-injection wrapper: fails the first `fail_first` invocations
/// (across all commands) before delegating to the inner dispatch. Used to
/// test retry and failure-propagation paths end to end.
pub struct FlakyDispatch<D: ToolDispatch> {
    inner: D,
    remaining_failures: std::sync::atomic::AtomicUsize,
    /// Total invocations observed (including failed ones).
    invocations: std::sync::atomic::AtomicUsize,
}

impl<D: ToolDispatch> FlakyDispatch<D> {
    /// Fail the first `fail_first` calls, then behave like `inner`.
    pub fn new(inner: D, fail_first: usize) -> Self {
        Self {
            inner,
            remaining_failures: std::sync::atomic::AtomicUsize::new(fail_first),
            invocations: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Number of dispatch invocations seen so far.
    pub fn invocations(&self) -> usize {
        self.invocations.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl<D: ToolDispatch> ToolDispatch for FlakyDispatch<D> {
    fn run(&self, cmd: &BuiltCommand, workdir: &Path) -> Result<(), String> {
        use std::sync::atomic::Ordering;
        self.invocations.fetch_add(1, Ordering::SeqCst);
        if self
            .remaining_failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(format!(
                "injected failure for {:?} (FlakyDispatch)",
                cmd.argv.first().map(String::as_str).unwrap_or("")
            ));
        }
        self.inner.run(cmd, workdir)
    }

    fn label(&self) -> &'static str {
        "flaky"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dispatch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn cmd(argv: &[&str], stdout: Option<&str>) -> BuiltCommand {
        BuiltCommand {
            argv: argv.iter().map(|s| s.to_string()).collect(),
            stdout: stdout.map(str::to_string),
            stderr: None,
            env: vec![],
        }
    }

    #[test]
    fn builtin_echo_and_cat() {
        let dir = workdir("echo");
        BuiltinDispatch
            .run(&cmd(&["echo", "hello", "world"], Some("o.txt")), &dir)
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("o.txt")).unwrap(),
            "hello world\n"
        );
        BuiltinDispatch
            .run(&cmd(&["cat", "o.txt", "o.txt"], Some("2x.txt")), &dir)
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("2x.txt")).unwrap(),
            "hello world\nhello world\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn builtin_wc_words() {
        let dir = workdir("wc");
        std::fs::write(dir.join("in.txt"), "one two  three\nfour").unwrap();
        BuiltinDispatch
            .run(&cmd(&["wc-words", "in.txt"], Some("n.txt")), &dir)
            .unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("n.txt")).unwrap(), "4\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn builtin_imgtool_pipeline() {
        let dir = workdir("img");
        BuiltinDispatch
            .run(
                &cmd(
                    &[
                        "imgtool", "gen", "src.rimg", "--width", "32", "--height", "32", "--seed",
                        "7",
                    ],
                    None,
                ),
                &dir,
            )
            .unwrap();
        BuiltinDispatch
            .run(
                &cmd(
                    &["imgtool", "resize", "src.rimg", "r.rimg", "--size", "16"],
                    None,
                ),
                &dir,
            )
            .unwrap();
        BuiltinDispatch
            .run(
                &cmd(
                    &["imgtool", "sepia", "r.rimg", "s.rimg", "--sepia", "true"],
                    None,
                ),
                &dir,
            )
            .unwrap();
        BuiltinDispatch
            .run(
                &cmd(
                    &["imgtool", "blur", "s.rimg", "b.rimg", "--radius", "1"],
                    None,
                ),
                &dir,
            )
            .unwrap();
        let img = imaging::read_rimg(dir.join("b.rimg")).unwrap();
        assert_eq!((img.width(), img.height()), (16, 16));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn builtin_error_paths() {
        let dir = workdir("err");
        assert!(BuiltinDispatch
            .run(&cmd(&["nonsense"], None), &dir)
            .is_err());
        assert!(BuiltinDispatch
            .run(&cmd(&["imgtool", "resize", "a", "b"], None), &dir)
            .is_err());
        assert!(BuiltinDispatch
            .run(
                &cmd(
                    &["imgtool", "resize", "ghost.rimg", "o.rimg", "--size", "4"],
                    None
                ),
                &dir
            )
            .is_err());
        assert!(BuiltinDispatch
            .run(&cmd(&["cat", "ghost.txt"], Some("o")), &dir)
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn subprocess_dispatch_runs_real_programs() {
        let dir = workdir("sub");
        SubprocessDispatch
            .run(&cmd(&["echo", "via", "subprocess"], Some("out.txt")), &dir)
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("out.txt")).unwrap(),
            "via subprocess\n"
        );
        assert!(SubprocessDispatch
            .run(&cmd(&["false"], None), &dir)
            .is_err());
        assert!(SubprocessDispatch
            .run(&cmd(&["no-such-program-zzz"], None), &dir)
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flaky_dispatch_fails_then_recovers() {
        let dir = workdir("flaky");
        let d = FlakyDispatch::new(BuiltinDispatch, 2);
        let c = cmd(&["echo", "x"], Some("o.txt"));
        assert!(d.run(&c, &dir).unwrap_err().contains("injected"));
        assert!(d.run(&c, &dir).is_err());
        assert!(d.run(&c, &dir).is_ok());
        assert!(d.run(&c, &dir).is_ok());
        assert_eq!(d.invocations(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn builtin_and_subprocess_agree_on_echo() {
        let dir = workdir("agree");
        BuiltinDispatch
            .run(&cmd(&["echo", "same"], Some("a.txt")), &dir)
            .unwrap();
        SubprocessDispatch
            .run(&cmd(&["echo", "same"], Some("b.txt")), &dir)
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("a.txt")).unwrap(),
            std::fs::read_to_string(dir.join("b.txt")).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
