//! `CwlApp` — a CWL `CommandLineTool` imported as a Parsl app (§III-A).

use crate::task::ToolTask;
use cwl::loader::{load_file, CwlDocument};
use cwl::types::CwlType;
use cwl::CommandLineTool;
use cwlexec::{BuiltinDispatch, StagingSettings, SubprocessDispatch, ToolDispatch};
use datastore::Stager;
use expr::{interpolate, EvalContext, ExpressionEngine, JsCostModel};
use parsl::{AppArg, AppFuture, DataFlowKernel, DataFuture, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use yamlite::{Map, Value};

/// Options controlling how a [`CwlApp`] executes its tool.
pub struct CwlAppOptions {
    /// Base directory for per-invocation working directories.
    pub(crate) workdir_base: PathBuf,
    /// Run recognized workload tools in-process instead of spawning
    /// subprocesses (hermetic benchmarking; see [`BuiltinDispatch`]).
    pub(crate) builtin_tools: bool,
    /// Explicit dispatch override (failure injection, custom sandboxes);
    /// takes precedence over `builtin_tools`.
    pub(crate) dispatch: Option<Arc<dyn ToolDispatch>>,
    /// Data-plane configuration (`staging:` block); used to open a
    /// per-run content store under `workdir_base` unless `stager` is set.
    pub(crate) staging: StagingSettings,
    /// Pre-built stager shared across apps in one run (the CLI builds one
    /// so every task and the prestage pool hit the same store and the
    /// run can publish one set of stage counters).
    pub(crate) stager: Option<Arc<Stager>>,
    /// Service run tag: when set, every task submitted through this app
    /// (or a workflow runner built from these options) carries the run's
    /// identity — fair-share scheduling, per-run journaling, and lineage
    /// namespacing all key off it.
    pub(crate) run_tag: Option<parsl::RunTag>,
}

impl Default for CwlAppOptions {
    fn default() -> Self {
        Self {
            workdir_base: std::env::temp_dir().join(format!("cwl-parsl-{}", std::process::id())),
            builtin_tools: false,
            dispatch: None,
            staging: StagingSettings::default(),
            stager: None,
            run_tag: None,
        }
    }
}

impl CwlAppOptions {
    /// Options rooted at a specific working directory.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        Self {
            workdir_base: dir.into(),
            ..Default::default()
        }
    }

    /// Use the in-process builtin tool dispatch.
    pub fn with_builtin_tools(mut self) -> Self {
        self.builtin_tools = true;
        self
    }

    /// Use a specific dispatch implementation.
    pub fn with_dispatch(mut self, dispatch: Arc<dyn ToolDispatch>) -> Self {
        self.dispatch = Some(dispatch);
        self
    }

    /// Use specific data-plane settings.
    pub fn with_staging(mut self, staging: StagingSettings) -> Self {
        self.staging = staging;
        self
    }

    /// Share an already-open stager instead of building one.
    pub fn with_stager(mut self, stager: Arc<Stager>) -> Self {
        self.stager = Some(stager);
        self
    }

    /// Tag every submission with a service run identity.
    pub fn with_run_tag(mut self, tag: parsl::RunTag) -> Self {
        self.run_tag = Some(tag);
        self
    }

    /// Resolve the dispatch implied by these options.
    pub(crate) fn resolve_dispatch(&self) -> Arc<dyn ToolDispatch> {
        match &self.dispatch {
            Some(d) => d.clone(),
            None if self.builtin_tools => Arc::new(BuiltinDispatch),
            None => Arc::new(SubprocessDispatch),
        }
    }

    /// Resolve the stager implied by these options (shared one, else a
    /// store rooted under the workdir base).
    pub(crate) fn resolve_stager(&self) -> Result<Arc<Stager>, String> {
        match &self.stager {
            Some(s) => Ok(s.clone()),
            None => self.staging.build(&self.workdir_base),
        }
    }
}

/// A CWL `CommandLineTool` imported as a Parsl app. Create once with
/// [`CwlApp::load`], then invoke any number of times — each invocation is a
/// Parsl task with its own working directory (Listing 2's `CWLApp`).
pub struct CwlApp {
    tool: Arc<CommandLineTool>,
    dfk: Arc<DataFlowKernel>,
    engine: Arc<dyn ExpressionEngine>,
    dispatch: Arc<dyn ToolDispatch>,
    stager: Arc<Stager>,
    workdir_base: PathBuf,
    label: String,
    run_tag: Option<parsl::RunTag>,
    seq: AtomicU64,
}

/// The result of invoking a [`CwlApp`]: the app future (resolving to the
/// output object) plus one [`DataFuture`] per predictable file output —
/// Parsl's `future.outputs` list.
pub struct CwlRun {
    /// Resolves to the collected CWL output object.
    pub future: AppFuture,
    /// File outputs, in the tool's output declaration order.
    pub(crate) outputs: Vec<DataFuture>,
    /// This invocation's working directory.
    pub(crate) workdir: PathBuf,
}

impl CwlRun {
    /// Convenience: the first file output (`future.outputs[0]` in the
    /// paper's listings).
    pub fn output(&self) -> &DataFuture {
        &self.outputs[0]
    }
}

impl std::fmt::Debug for CwlRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CwlRun")
            .field("future", &self.future)
            .field("outputs", &self.outputs.len())
            .field("workdir", &self.workdir)
            .finish()
    }
}

impl std::fmt::Debug for CwlApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CwlApp")
            .field("label", &self.label)
            .field("inputs", &self.tool.inputs.len())
            .field("outputs", &self.tool.outputs.len())
            .finish()
    }
}

impl CwlApp {
    /// Load a CommandLineTool definition and bind it to a kernel.
    pub fn load(
        dfk: &Arc<DataFlowKernel>,
        path: impl AsRef<Path>,
        options: CwlAppOptions,
    ) -> Result<Self, String> {
        let path = path.as_ref();
        let doc = load_file(path)?;
        let CwlDocument::Tool(tool) = doc else {
            return Err(format!(
                "{} is a {}, not a CommandLineTool (use ParslWorkflowRunner for workflows)",
                path.display(),
                doc.class()
            ));
        };
        Self::from_tool(
            dfk,
            tool,
            path.file_stem().map(|s| s.to_string_lossy().into_owned()),
            options,
        )
    }

    /// Wrap an already-parsed tool.
    pub(crate) fn from_tool(
        dfk: &Arc<DataFlowKernel>,
        tool: CommandLineTool,
        label: Option<String>,
        options: CwlAppOptions,
    ) -> Result<Self, String> {
        // parsl-cwl evaluates expressions in-process (the §V fast path), so
        // the JS engine carries no modelled process-boundary cost here.
        let engine: Arc<dyn ExpressionEngine> = Arc::from(cwlexec::engine_for(
            &tool.requirements,
            JsCostModel::free(),
        )?);
        let dispatch = options.resolve_dispatch();
        let stager = options.resolve_stager()?;
        let label = label
            .or_else(|| tool.id.clone())
            .unwrap_or_else(|| "cwl-tool".to_string());
        Ok(Self {
            tool: Arc::new(tool),
            dfk: dfk.clone(),
            engine,
            dispatch,
            stager,
            workdir_base: options.workdir_base,
            label,
            run_tag: options.run_tag,
            seq: AtomicU64::new(0),
        })
    }

    /// Start building an invocation (keyword arguments style).
    pub fn call(&self) -> CwlInvocation<'_> {
        CwlInvocation {
            app: self,
            args: Vec::new(),
            stdout_override: None,
        }
    }
}

/// How one tool input gets its value inside the task body. A literal is
/// shared into each attempt's input object, never copied.
enum Slot {
    Lit(Arc<Value>),
    Arg(usize),
}

/// Argument kinds accepted by an invocation.
enum Kwarg {
    Literal(Value),
    Data(DataFuture),
}

/// Builder for one [`CwlApp`] invocation.
pub struct CwlInvocation<'a> {
    app: &'a CwlApp,
    args: Vec<(String, Kwarg)>,
    stdout_override: Option<String>,
}

impl<'a> CwlInvocation<'a> {
    /// Bind a literal value to an input.
    pub fn arg(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.args.push((name.into(), Kwarg::Literal(value.into())));
        self
    }

    /// Bind an upstream file future to a File input — the Listing 4
    /// pattern (`input_image=resized_img_future.outputs[0]`).
    pub fn arg_data(mut self, name: impl Into<String>, data: &DataFuture) -> Self {
        self.args.push((name.into(), Kwarg::Data(data.clone())));
        self
    }

    /// Override the tool's stdout capture file (Listing 2 passes
    /// `stdout="hello.txt"`).
    pub fn stdout(mut self, name: impl Into<String>) -> Self {
        self.stdout_override = Some(name.into());
        self
    }

    /// Submit the invocation to the kernel. Returns immediately with a
    /// [`CwlRun`]; execution starts once all future-valued inputs resolve.
    pub fn submit(self) -> Result<CwlRun, String> {
        let app = self.app;
        let tool = app.tool.clone();

        // Validate argument names early (the Python bridge raises on
        // unexpected kwargs at call time too).
        for (name, _) in &self.args {
            if tool.input(name).is_none() {
                return Err(format!(
                    "tool {:?} has no input {name:?} (declared inputs: {})",
                    app.label,
                    tool.inputs
                        .iter()
                        .map(|i| i.id.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }

        // Per-invocation working directory.
        let seq = app.seq.fetch_add(1, Ordering::Relaxed);
        let workdir = app.workdir_base.join(format!("{}_{seq}", app.label));

        // Apply the stdout override by rewriting the tool copy.
        let tool = if let Some(name) = &self.stdout_override {
            let mut t = (*tool).clone();
            t.stdout = Some(name.clone());
            Arc::new(t)
        } else {
            tool
        };

        // Split literal vs future-valued arguments; futures become Parsl
        // dataflow dependencies.
        let mut parsl_args: Vec<AppArg> = Vec::new();
        let mut slots: Vec<(String, Slot)> = Vec::new();
        for (name, kwarg) in self.args {
            let slot = match kwarg {
                Kwarg::Literal(v) => Slot::Lit(Arc::new(v)),
                Kwarg::Data(d) => {
                    parsl_args.push(AppArg::data(&d));
                    Slot::Arg(parsl_args.len() - 1)
                }
            };
            slots.push((name, slot));
        }

        // Predict output file names from the literal arguments so
        // DataFutures exist before execution. Names that depend on
        // future-valued inputs cannot be predicted — reject loudly.
        let predicted = predict_output_files(&tool, &slots, &workdir, app.engine.as_ref())?;

        // The task body: reconstruct the full input object and run the tool.
        let task = ToolTask {
            tool,
            engine: app.engine.clone(),
            dispatch: app.dispatch.clone(),
            stager: app.stager.clone(),
            workdir: workdir.clone(),
        };
        let tag = app.run_tag.as_ref();
        let future = task.submit(
            &app.dfk,
            tag,
            &app.label,
            None,
            parsl_args,
            move |run, vals| {
                let mut provided = Map::with_capacity(slots.len());
                for (name, slot) in &slots {
                    let v = match slot {
                        Slot::Lit(v) => Arc::clone(v),
                        Slot::Arg(i) => Arc::new(vals[*i].clone()),
                    };
                    provided.insert_shared(name.clone(), v);
                }
                run(&provided)
            },
        );
        let outputs = predicted
            .into_iter()
            .map(|path| DataFuture::new(File::new(path), future.clone()))
            .collect();
        Ok(CwlRun {
            future,
            outputs,
            workdir,
        })
    }
}

/// Predict output file paths from literal inputs (plus defaults).
fn predict_output_files(
    tool: &CommandLineTool,
    slots: &[(String, Slot)],
    workdir: &Path,
    engine: &dyn ExpressionEngine,
) -> Result<Vec<PathBuf>, String> {
    // Literal inputs and defaults are known now.
    let mut known = Map::new();
    for param in &tool.inputs {
        if let Some(default) = &param.default {
            known.insert(param.id.clone(), default.clone());
        }
    }
    for (name, slot) in slots {
        match slot {
            Slot::Lit(v) => {
                // Normalize literal Files so expressions can use .basename.
                let v = match tool.input(name).map(|p| &p.typ) {
                    Some(t @ (CwlType::File | CwlType::Directory)) => {
                        cwl::input::normalize_value(v, t).unwrap_or_else(|_| Value::clone(v))
                    }
                    _ => Value::clone(v),
                };
                known.insert(name.clone(), v);
            }
            Slot::Arg(_) => {
                known.insert(name.clone(), Value::Null);
            }
        }
    }
    let ctx = EvalContext::from_inputs(Value::Map(known));

    let mut files = Vec::new();
    for out in &tool.outputs {
        let name = match &out.typ {
            CwlType::Stdout => tool.stdout.clone(),
            CwlType::Stderr => tool.stderr.clone(),
            _ => out.glob.clone(),
        };
        let Some(name) = name else { continue };
        let resolved = if expr::interp::has_expression(&name) {
            match interpolate(&name, engine, &ctx) {
                Ok(v) if !v.to_display_string().is_empty() && !v.is_null() => v.to_display_string(),
                _ => {
                    return Err(format!(
                        "output {:?} file name {name:?} depends on a future-valued input; \
                         pass that input as a literal so the DataFuture path is known up front",
                        out.id
                    ))
                }
            }
        } else {
            name
        };
        if resolved.contains('*') {
            // Glob patterns cannot be predicted; skip (the value is still
            // available from the app future's output object).
            continue;
        }
        files.push(workdir.join(resolved));
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsl::Config;

    fn fixtures() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
    }

    fn workdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cwlapp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Listing 2: load echo.cwl, execute with Parsl, read the output file.
    #[test]
    fn listing2_echo() {
        let dir = workdir("echo");
        let dfk = DataFlowKernel::new(Config::local_threads(2));
        let echo = CwlApp::load(
            &dfk,
            fixtures().join("echo.cwl"),
            CwlAppOptions::in_dir(&dir).with_builtin_tools(),
        )
        .unwrap();
        let run = echo
            .call()
            .arg("message", "Hello, World!")
            .stdout("hello.txt")
            .submit()
            .unwrap();
        let file = run.output().result().unwrap();
        assert_eq!(
            std::fs::read_to_string(file.path()).unwrap(),
            "Hello, World!\n"
        );
        let outputs = run.future.result().unwrap();
        assert_eq!(outputs["output"]["basename"].as_str(), Some("hello.txt"));
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_input_applies() {
        let dir = workdir("default");
        let dfk = DataFlowKernel::new(Config::local_threads(2));
        let echo = CwlApp::load(
            &dfk,
            fixtures().join("echo.cwl"),
            CwlAppOptions::in_dir(&dir).with_builtin_tools(),
        )
        .unwrap();
        let run = echo.call().submit().unwrap();
        let file = run.output().result().unwrap();
        assert_eq!(
            std::fs::read_to_string(file.path()).unwrap(),
            "Hello World\n"
        );
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Listing 4: the three-stage image pipeline chained through
    /// DataFutures, all three tasks in flight under one kernel.
    #[test]
    fn listing4_image_pipeline_chained() {
        let dir = workdir("pipeline");
        imaging::write_rimg(dir.join("input.rimg"), &imaging::gradient(32, 32, 9)).unwrap();
        let dfk = DataFlowKernel::new(Config::local_threads(4));
        let opts = || CwlAppOptions::in_dir(&dir).with_builtin_tools();
        let resize = CwlApp::load(&dfk, fixtures().join("resize_image.cwl"), opts()).unwrap();
        let filter = CwlApp::load(&dfk, fixtures().join("filter_image.cwl"), opts()).unwrap();
        let blur = CwlApp::load(&dfk, fixtures().join("blur_image.cwl"), opts()).unwrap();

        let resized = resize
            .call()
            .arg(
                "input_image",
                dir.join("input.rimg").to_string_lossy().into_owned(),
            )
            .arg("size", 16i64)
            .arg("output_image", "resized.rimg")
            .submit()
            .unwrap();
        let filtered = filter
            .call()
            .arg_data("input_image", resized.output())
            .arg("sepia", true)
            .arg("output_image", "filtered.rimg")
            .submit()
            .unwrap();
        let blurred = blur
            .call()
            .arg_data("input_image", filtered.output())
            .arg("radius", 1i64)
            .arg("output_image", "blurred.rimg")
            .submit()
            .unwrap();

        let final_file = blurred.output().result().unwrap();
        let img = imaging::read_rimg(final_file.path()).unwrap();
        assert_eq!((img.width(), img.height()), (16, 16));
        // Dataflow ran three tasks.
        assert_eq!(dfk.monitoring().summary().completed, 3);
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_kwarg_rejected_at_call_time() {
        let dir = workdir("badkw");
        let dfk = DataFlowKernel::new(Config::local_threads(1));
        let echo = CwlApp::load(
            &dfk,
            fixtures().join("echo.cwl"),
            CwlAppOptions::in_dir(&dir).with_builtin_tools(),
        )
        .unwrap();
        let err = echo.call().arg("mesage", "typo").submit().unwrap_err();
        assert!(err.contains("no input \"mesage\""), "{err}");
        assert!(err.contains("message"), "should list valid inputs: {err}");
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loading_workflow_as_app_fails_clearly() {
        let dir = workdir("wfload");
        let dfk = DataFlowKernel::new(Config::local_threads(1));
        let err = CwlApp::load(
            &dfk,
            fixtures().join("image_pipeline.cwl"),
            CwlAppOptions::in_dir(&dir),
        )
        .unwrap_err();
        assert!(err.contains("not a CommandLineTool"), "{err}");
        dfk.shutdown();
    }

    #[test]
    fn failure_propagates_through_chain() {
        let dir = workdir("failchain");
        let dfk = DataFlowKernel::new(Config::local_threads(2));
        let opts = || CwlAppOptions::in_dir(&dir).with_builtin_tools();
        let resize = CwlApp::load(&dfk, fixtures().join("resize_image.cwl"), opts()).unwrap();
        let blur = CwlApp::load(&dfk, fixtures().join("blur_image.cwl"), opts()).unwrap();
        let r = resize
            .call()
            .arg("input_image", "/ghost.rimg")
            .arg("size", 8i64)
            .arg("output_image", "r.rimg")
            .submit()
            .unwrap();
        let b = blur
            .call()
            .arg_data("input_image", r.output())
            .arg("radius", 1i64)
            .arg("output_image", "b.rimg")
            .submit()
            .unwrap();
        match b.future.result() {
            Err(parsl::TaskError::DependencyFailed { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Listing 5 through the app path: inline-Python expression in
    /// `arguments` capitalizes the message.
    #[test]
    fn inline_python_expression_tool() {
        let dir = workdir("inlinepy");
        let dfk = DataFlowKernel::new(Config::local_threads(1));
        let cap = CwlApp::load(
            &dfk,
            fixtures().join("capitalize_message_py.cwl"),
            CwlAppOptions::in_dir(&dir).with_builtin_tools(),
        )
        .unwrap();
        let run = cap
            .call()
            .arg("message", "hello brave new world")
            .submit()
            .unwrap();
        let file = run.output().result().unwrap();
        assert_eq!(
            std::fs::read_to_string(file.path()).unwrap(),
            "Hello Brave New World\n"
        );
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn output_prediction_requires_literal_name() {
        let dir = workdir("pred");
        let dfk = DataFlowKernel::new(Config::local_threads(2));
        let opts = || CwlAppOptions::in_dir(&dir).with_builtin_tools();
        let resize = CwlApp::load(&dfk, fixtures().join("resize_image.cwl"), opts()).unwrap();
        // output_image passed as a future → glob cannot be predicted.
        let name_task = dfk.submit(
            "name",
            vec![],
            parsl::apps::FnApp::new(|_| Ok(Value::str("dynamic.rimg"))),
        );
        let name = parsl::DataFuture::new(parsl::File::new("dynamic.rimg"), name_task);
        let err = resize
            .call()
            .arg("input_image", "/x.rimg")
            .arg("size", 8i64)
            .arg_data("output_image", &name)
            .submit()
            .unwrap_err();
        assert!(err.contains("depends on a future-valued input"), "{err}");
        dfk.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
