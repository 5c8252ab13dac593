//! The per-tool execution pipeline shared by every runner.

use crate::dispatch::ToolDispatch;
use crate::staging::StageCtx;
use cwl::{build_command, CommandLineTool, CwlType, InputParam};
use expr::ExpressionEngine;
use obs::SpanKind;
use std::path::Path;
use yamlite::{Map, Value};

/// The result of one tool execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolRun {
    /// The collected output object (output id → value).
    pub outputs: Map,
    /// The command line that ran (for logs and reports).
    pub(crate) command: Vec<String>,
}

/// Execute one `CommandLineTool` in `workdir`:
/// resolve inputs → `validate:` hooks → build argv → dispatch → collect
/// outputs.
pub fn execute_tool(
    tool: &CommandLineTool,
    provided: &Map,
    workdir: &Path,
    engine: &dyn ExpressionEngine,
    dispatch: &dyn ToolDispatch,
) -> Result<ToolRun, String> {
    execute_tool_staged(tool, provided, workdir, engine, dispatch, None)
}

/// [`execute_tool`] with the data plane attached: inputs are staged into
/// `workdir` through the content store (zero-copy where the filesystem
/// allows), and collected outputs are registered back as CAS handles with
/// their content digest attached — the next step links instead of copying.
pub fn execute_tool_staged(
    tool: &CommandLineTool,
    provided: &Map,
    workdir: &Path,
    engine: &dyn ExpressionEngine,
    dispatch: &dyn ToolDispatch,
    staging: Option<&StageCtx<'_>>,
) -> Result<ToolRun, String> {
    std::fs::create_dir_all(workdir)
        .map_err(|e| format!("cannot create workdir {}: {e}", workdir.display()))?;
    let mut inputs = cwl::input::resolve_inputs(&tool.inputs, provided)?;
    if let Some(ctx) = staging {
        let span = ctx
            .obs
            .start_span(SpanKind::StageIn, ctx.lineage, ctx.parent, "stage_in");
        stage_inputs(ctx, &tool.inputs, &mut inputs, workdir)?;
        ctx.obs.finish_span(span);
    }
    cwl::input::run_validate_hooks(tool, &inputs, engine)?;
    let cmd = build_command(tool, &inputs, engine)?;
    // Dispatch is timed into the run's own handle, the one the staging
    // context carries; without a context nothing is recorded.
    match staging.map(|ctx| ctx.obs).filter(|obs| obs.is_enabled()) {
        Some(obs) => {
            let t0 = obs.now_us();
            let run = dispatch.run(&cmd, workdir);
            obs.counter(obs::names::DISPATCH_EXECS).incr();
            obs.histogram(obs::names::DISPATCH_EXEC_US)
                .record(obs.now_us().saturating_sub(t0));
            run?;
        }
        None => dispatch.run(&cmd, workdir)?,
    }
    let mut outputs = cwl::outputs::collect_outputs(
        tool,
        &inputs,
        engine,
        workdir,
        cmd.stdout.as_deref(),
        cmd.stderr.as_deref(),
    )?;
    if let Some(ctx) = staging {
        let span = ctx
            .obs
            .start_span(SpanKind::StageOut, ctx.lineage, ctx.parent, "stage_out");
        for (_, v) in outputs.iter_mut() {
            register_output_files(ctx, v);
        }
        ctx.obs.finish_span(span);
    }
    Ok(ToolRun {
        outputs,
        command: cmd.argv,
    })
}

/// Stage the resolved inputs that can hold a File: those declared `File`,
/// `Directory` or `Any`, or an array or optional of one. Conformance has
/// been checked, so no File hides in any other input (a scatter's carried
/// `string[]` is not walked). They go through one `stage_value` call, so
/// basename disambiguation spans every File of the task; each staged value
/// replaces its input's cell, and every other cell is left as it was.
fn stage_inputs(
    ctx: &StageCtx<'_>,
    params: &[InputParam],
    inputs: &mut Map,
    workdir: &Path,
) -> Result<(), String> {
    let mut holders = Map::new();
    for param in params.iter().filter(|p| can_hold_file(&p.typ)) {
        if let Some(cell) = inputs.get_shared(&param.id) {
            holders.insert_shared(param.id.clone(), cell.clone());
        }
    }
    if holders.is_empty() {
        return Ok(());
    }
    let staged = match ctx.stager.stage_value(&Value::Map(holders), workdir) {
        Ok(Value::Map(staged)) => staged,
        Ok(_) => unreachable!("stage_value preserves value shape"),
        Err(e) => return Err(format!("stage-in into {}: {e}", workdir.display())),
    };
    for id in staged.keys() {
        let cell = staged.get_shared(id).expect("iterated key").clone();
        inputs.insert_shared(id, cell);
    }
    Ok(())
}

fn can_hold_file(typ: &CwlType) -> bool {
    match typ {
        CwlType::File | CwlType::Directory | CwlType::Any => true,
        CwlType::Array(inner) | CwlType::Optional(inner) => can_hold_file(inner),
        _ => false,
    }
}

/// Bind every collected `class: File` into the content store and attach
/// its digest. Registration failures are not fatal — the output is still
/// valid, it just won't be linkable downstream.
fn register_output_files(ctx: &StageCtx<'_>, value: &mut Value) {
    match value {
        Value::Map(map) => {
            if map.get("class").and_then(Value::as_str) == Some("File") {
                if let Some(path) = map.get("path").and_then(Value::as_str) {
                    if let Ok(digest) = ctx.stager.register_output(Path::new(path)) {
                        map.insert("checksum", digest.checksum());
                        map.insert("size", digest.len as i64);
                    }
                    return;
                }
            }
            for (_, v) in map.iter_mut() {
                register_output_files(ctx, v);
            }
        }
        Value::Seq(items) => {
            for v in items {
                register_output_files(ctx, v);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::BuiltinDispatch;
    use crate::engine::engine_for;
    use expr::JsCostModel;
    use yamlite::{parse_str, vmap, Value};

    fn workdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cwlexec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn tool(src: &str) -> CommandLineTool {
        CommandLineTool::parse(&parse_str(src).unwrap()).unwrap()
    }

    fn as_map(v: Value) -> Map {
        match v {
            Value::Map(m) => m,
            _ => unreachable!(),
        }
    }

    /// Listing 1+2 end-to-end: echo through the whole pipeline.
    #[test]
    fn echo_end_to_end() {
        let dir = workdir("echo");
        let t = tool(
            r#"
cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message:
    type: string
    default: "Hello World"
    inputBinding:
      position: 1
outputs:
  output:
    type: stdout
stdout: hello.txt
"#,
        );
        let engine = engine_for(&t.requirements, JsCostModel::free()).unwrap();
        let run = execute_tool(
            &t,
            &as_map(vmap! {"message" => "Hello, World!"}),
            &dir,
            engine.as_ref(),
            &BuiltinDispatch,
        )
        .unwrap();
        assert_eq!(run.command, vec!["echo", "Hello, World!"]);
        let out = run.outputs.get("output").unwrap();
        assert_eq!(out["basename"].as_str(), Some("hello.txt"));
        assert_eq!(
            std::fs::read_to_string(dir.join("hello.txt")).unwrap(),
            "Hello, World!\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The paper's resize tool: File in, File out via glob expression.
    #[test]
    fn resize_tool_end_to_end() {
        let dir = workdir("resize");
        imaging::write_rimg(dir.join("input.rimg"), &imaging::gradient(32, 32, 1)).unwrap();
        let t = tool(
            r#"
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [imgtool, resize]
inputs:
  input_image:
    type: File
    inputBinding: {position: 1}
  output_image:
    type: string
    inputBinding: {position: 2}
  size:
    type: int
    inputBinding: {position: 3, prefix: --size}
outputs:
  resized:
    type: File
    outputBinding:
      glob: $(inputs.output_image)
"#,
        );
        let engine = engine_for(&t.requirements, JsCostModel::free()).unwrap();
        let provided = as_map(vmap! {
            "input_image" => dir.join("input.rimg").to_string_lossy().into_owned(),
            "output_image" => "resized.rimg",
            "size" => 16i64,
        });
        let run = execute_tool(&t, &provided, &dir, engine.as_ref(), &BuiltinDispatch).unwrap();
        let out_path = run.outputs.get("resized").unwrap()["path"]
            .as_str()
            .unwrap()
            .to_string();
        let img = imaging::read_rimg(&out_path).unwrap();
        assert_eq!((img.width(), img.height()), (16, 16));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Listing 6: the validate hook rejects a bad extension before running.
    #[test]
    fn validate_hook_blocks_execution() {
        let dir = workdir("validate");
        std::fs::write(dir.join("data.txt"), "not,a,csv").unwrap();
        let t = tool(
            r#"
cwlVersion: v1.2
class: CommandLineTool
requirements:
  - class: InlinePythonRequirement
    expressionLib: |
      def valid_file(file, ext):
          if not file.lower().endswith(ext):
              raise Exception(f"Invalid file. Expected '{ext}'")
          return True
baseCommand: cat
inputs:
  data_file:
    type: File
    validate: |
      f"{valid_file($(inputs.data_file.basename), '.csv')}"
    inputBinding:
      position: 1
outputs:
  validated_output:
    type: stdout
stdout: out.txt
"#,
        );
        let engine = engine_for(&t.requirements, JsCostModel::free()).unwrap();
        let provided = as_map(vmap! {
            "data_file" => dir.join("data.txt").to_string_lossy().into_owned(),
        });
        let err = execute_tool(&t, &provided, &dir, engine.as_ref(), &BuiltinDispatch).unwrap_err();
        assert!(err.contains("Expected '.csv'"), "{err}");
        assert!(!dir.join("out.txt").exists(), "tool must not have run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The staged pipeline: a File input outside the workdir is
    /// materialized through the content store, the run produces the same
    /// result as the unstaged path, and collected File outputs come back
    /// with their digest attached and bracketed by stage spans.
    #[test]
    fn staged_execution_stages_inputs_and_attaches_digests() {
        use crate::staging::StageCtx;
        use datastore::{ContentStore, StageMode, Stager};

        let dir = workdir("staged");
        let src_dir = workdir("staged-src");
        imaging::write_rimg(src_dir.join("input.rimg"), &imaging::gradient(32, 32, 1)).unwrap();
        let t = tool(
            r#"
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [imgtool, resize]
inputs:
  input_image:
    type: File
    inputBinding: {position: 1}
  output_image:
    type: string
    inputBinding: {position: 2}
  size:
    type: int
    inputBinding: {position: 3, prefix: --size}
outputs:
  resized:
    type: File
    outputBinding:
      glob: $(inputs.output_image)
"#,
        );
        let engine = engine_for(&t.requirements, JsCostModel::free()).unwrap();
        let provided = as_map(vmap! {
            "input_image" => src_dir.join("input.rimg").to_string_lossy().into_owned(),
            "output_image" => "resized.rimg",
            "size" => 16i64,
        });
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let stager = Stager::new(store, StageMode::Link);
        let obs = obs::Observability::on();
        let ctx = StageCtx {
            stager: &stager,
            obs: &obs,
            lineage: 7,
            parent: 0,
        };
        let run = execute_tool_staged(
            &t,
            &provided,
            &dir,
            engine.as_ref(),
            &BuiltinDispatch,
            Some(&ctx),
        )
        .unwrap();

        // The tool ran against the staged copy inside its workdir.
        let staged_input = dir.join("input.rimg");
        assert!(staged_input.exists(), "input was not staged into workdir");
        assert_eq!(run.command[2], staged_input.to_string_lossy());

        // The output File carries its content digest.
        let out = run.outputs.get("resized").unwrap();
        let checksum = out["checksum"].as_str().unwrap();
        assert!(checksum.starts_with("xxh64:"), "{checksum}");
        let out_path = out["path"].as_str().unwrap();
        let size = out["size"].as_int().unwrap() as u64;
        assert_eq!(size, std::fs::metadata(out_path).unwrap().len());

        // The input went through the zero-copy ladder, and both phases of
        // the data plane left spans on the task's lineage.
        assert_eq!(stager.stats().links, 1);
        let kinds: Vec<SpanKind> = obs.spans().iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SpanKind::StageIn), "{kinds:?}");
        assert!(kinds.contains(&SpanKind::StageOut), "{kinds:?}");

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&src_dir).unwrap();
    }

    /// Stage-in walks only the inputs that can hold a File: the `File` and
    /// the File under `Any` are both staged, and the `string[]` comes back
    /// as the very cell that was passed in.
    #[test]
    fn stage_in_walks_only_inputs_that_can_hold_a_file() {
        use crate::staging::StageCtx;
        use datastore::{ContentStore, StageMode, Stager};
        use std::sync::Arc;

        let dir = workdir("holders");
        let src_dir = workdir("holders-src");
        std::fs::write(src_dir.join("a.txt"), b"alpha").unwrap();
        std::fs::write(src_dir.join("b.txt"), b"beta").unwrap();
        let t = tool(
            r#"
cwlVersion: v1.2
class: CommandLineTool
baseCommand: cat
inputs:
  image:
    type: File
  words:
    type: string[]
  extra:
    type: Any
outputs: {}
"#,
        );
        let mut extra = Map::new();
        extra.insert("class", "File");
        extra.insert("path", src_dir.join("b.txt").to_string_lossy().into_owned());
        let provided = as_map(vmap! {
            "image" => src_dir.join("a.txt").to_string_lossy().into_owned(),
            "words" => Value::Seq(vec![Value::str("one"), Value::str("two")]),
            "extra" => Value::Map(extra),
        });
        let store = ContentStore::open(dir.join("cas")).unwrap();
        let stager = Stager::new(store, StageMode::Link);
        let obs = obs::Observability::off();
        let ctx = StageCtx {
            stager: &stager,
            obs: &obs,
            lineage: 0,
            parent: 0,
        };
        let mut inputs = cwl::input::resolve_inputs(&t.inputs, &provided).unwrap();
        stage_inputs(&ctx, &t.inputs, &mut inputs, &dir).unwrap();

        for (id, name) in [("image", "a.txt"), ("extra", "b.txt")] {
            assert_eq!(
                inputs.get(id).unwrap()["path"].as_str(),
                Some(dir.join(name).to_string_lossy().as_ref()),
                "{id}"
            );
        }
        assert_eq!(stager.stats().links + stager.stats().copies, 2);
        assert!(Arc::ptr_eq(
            inputs.get_shared("words").unwrap(),
            provided.get_shared("words").unwrap()
        ));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&src_dir).unwrap();
    }

    #[test]
    fn failed_command_reports_error() {
        let dir = workdir("fail");
        let t = tool(
            "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: [imgtool, resize]\ninputs:\n  f:\n    type: string\n    inputBinding: {position: 1}\noutputs: {}\n",
        );
        let engine = engine_for(&t.requirements, JsCostModel::free()).unwrap();
        let err = execute_tool(
            &t,
            &as_map(vmap! {"f" => "ghost.rimg"}),
            &dir,
            engine.as_ref(),
            &BuiltinDispatch,
        )
        .unwrap_err();
        assert!(err.contains("imgtool resize"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
