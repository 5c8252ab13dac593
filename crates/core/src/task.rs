//! The one place a tool-running Parsl task body is built and submitted.

use cwl::CommandLineTool;
use cwlexec::{execute_tool_staged, StageCtx, ToolDispatch};
use datastore::Stager;
use expr::ExpressionEngine;
use parsl::{AppArg, AppFuture, DataFlowKernel, TaskError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use yamlite::{Map, Value};

/// One tool execution as a Parsl task: what the task body needs besides
/// its inputs. `CwlApp` invocations and the workflow compiler's step
/// instances both build and submit their bodies through
/// [`ToolTask::submit`].
pub(crate) struct ToolTask {
    pub(crate) tool: Arc<CommandLineTool>,
    pub(crate) engine: Arc<dyn ExpressionEngine>,
    pub(crate) dispatch: Arc<dyn ToolDispatch>,
    pub(crate) stager: Arc<Stager>,
    pub(crate) workdir: PathBuf,
}

/// Runs a [`ToolTask`]'s tool on an input object, staged through the data
/// plane in the task's working directory; returns the output object.
pub(crate) type RunTool<'a> = &'a dyn Fn(&Map) -> Result<Map, String>;

impl ToolTask {
    /// Submit the task. `body` turns the dependencies' values into the
    /// task's output object, calling the [`RunTool`] it is handed unless it
    /// decides the tool is not to run; it is `Fn` because a retried or
    /// re-dispatched task runs it again. `step` joins the Parsl task id to
    /// a CWL step id in the lineage table and the checkpoint journal
    /// before the task can launch — binding after submit races a fast
    /// worker journaling a step-less record.
    pub(crate) fn submit(
        self,
        dfk: &Arc<DataFlowKernel>,
        run_tag: Option<&parsl::RunTag>,
        name: &str,
        step: Option<&str>,
        args: Vec<AppArg>,
        body: impl Fn(RunTool, &[Value]) -> Result<Map, String> + Send + Sync + 'static,
    ) -> AppFuture {
        let obs = dfk.observability().clone();
        // Task id for the staging spans' lineage: assigned by the submit
        // below, so the body reads it through a cell. A no-dependency task
        // can race the store and see 0 — spans then record untracked,
        // which is harmless.
        let lineage = Arc::new(AtomicU64::new(0));
        let body_lineage = lineage.clone();
        let app = parsl::apps::FnApp::new(move |vals: &[Value]| {
            let run = |inputs: &Map| {
                let ctx = StageCtx {
                    stager: &self.stager,
                    obs: &obs,
                    lineage: body_lineage.load(Ordering::Acquire),
                    parent: 0,
                };
                execute_tool_staged(
                    &self.tool,
                    inputs,
                    &self.workdir,
                    self.engine.as_ref(),
                    self.dispatch.as_ref(),
                    Some(&ctx),
                )
                .map(|run| run.outputs)
            };
            body(&run, vals).map(Value::Map).map_err(TaskError::failed)
        });
        let future = match run_tag {
            Some(tag) => dfk.submit_tagged(name, step, args, app, tag.clone()),
            None => dfk.submit_bound(name, step, args, app),
        };
        lineage.store(future.id().0, Ordering::Release);
        future
    }
}
