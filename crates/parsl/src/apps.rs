//! App bodies: `FnApp` (Parsl's `python_app` analogue — any Rust closure).
//! A CWL CommandLineTool is an `FnApp` too, whose body runs the tool
//! through `cwlexec`'s dispatch; `cwlexec::SubprocessDispatch` is the one
//! subprocess spawner.

use crate::error::TaskError;
use std::sync::Arc;
use yamlite::Value;

/// The executable body of an app: resolved input values in, value out.
pub type AppBody = Arc<dyn Fn(&[Value]) -> Result<Value, TaskError> + Send + Sync>;

/// Wrap a closure as an app body (`python_app` analogue).
pub struct FnApp;

impl FnApp {
    /// Build an [`AppBody`] from a plain closure.
    #[allow(clippy::new_ret_no_self)] // deliberately returns the shared body type
    pub fn new<F>(f: F) -> AppBody
    where
        F: Fn(&[Value]) -> Result<Value, TaskError> + Send + Sync + 'static,
    {
        Arc::new(f)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cwl::BuiltCommand;
    use cwlexec::{SubprocessDispatch, ToolDispatch};
    use std::path::{Path, PathBuf};

    /// A CommandLineTool's app as `core::task` builds it: an `FnApp` whose
    /// body runs the command `build` makes from the resolved inputs through
    /// `SubprocessDispatch` in `workdir`; a failed run is `TaskError::Failed`.
    pub(crate) fn tool_app<F>(workdir: PathBuf, build: F) -> AppBody
    where
        F: Fn(&[Value]) -> BuiltCommand + Send + Sync + 'static,
    {
        FnApp::new(move |vals| {
            SubprocessDispatch
                .run(&build(vals), &workdir)
                .map_err(TaskError::failed)?;
            Ok(Value::Null)
        })
    }

    /// `argv` with its stdout redirected to `out.txt` in the workdir.
    pub(crate) fn command(argv: &[&str]) -> BuiltCommand {
        BuiltCommand {
            argv: argv.iter().map(|a| a.to_string()).collect(),
            stdout: Some("out.txt".into()),
            ..Default::default()
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("parsl-apps-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn captured(dir: &Path) -> String {
        std::fs::read_to_string(dir.join("out.txt")).unwrap()
    }

    #[test]
    fn run_echo_redirects_stdout() {
        let dir = tmpdir("redir");
        let body = tool_app(dir.clone(), |vals| {
            command(&["echo", &vals[0].to_display_string()])
        });
        assert_eq!(body(&[Value::str("redirected")]).unwrap(), Value::Null);
        assert_eq!(captured(&dir), "redirected\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nonzero_exit_fails() {
        let dir = tmpdir("false");
        let err = tool_app(dir.clone(), |_| command(&["false"]))(&[]).unwrap_err();
        assert!(matches!(err, TaskError::Failed(_)), "{err:?}");
        assert!(err.to_string().contains("exited with status"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_program_fails() {
        let dir = tmpdir("missing");
        let missing = tool_app(dir.clone(), |_| command(&["definitely-not-a-program-xyz"]));
        let err = missing(&[]).unwrap_err();
        assert!(matches!(err, TaskError::Failed(_)), "{err:?}");
        assert!(err.to_string().contains("cannot spawn"), "{err}");
        let empty = tool_app(dir.clone(), |_| command(&[]))(&[]).unwrap_err();
        assert!(empty.to_string().contains("empty argv"), "{empty}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn env_and_cwd_apply() {
        let dir = tmpdir("env");
        let body = tool_app(dir.clone(), |_| BuiltCommand {
            env: vec![("PARSL_TEST_VAR".into(), "marker42".into())],
            ..command(&["sh", "-c", "echo $PARSL_TEST_VAR; pwd"])
        });
        body(&[]).unwrap();
        let out = captured(&dir);
        assert!(out.contains("marker42"), "{out}");
        assert!(
            out.contains(dir.file_name().unwrap().to_str().unwrap()),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fn_app_body() {
        let body = FnApp::new(|vals| Ok(Value::Int(vals.iter().filter_map(|v| v.as_int()).sum())));
        assert_eq!(
            body(&[Value::Int(2), Value::Int(3)]).unwrap(),
            Value::Int(5)
        );
    }
}
