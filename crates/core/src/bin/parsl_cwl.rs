//! `parsl-cwl` — the Parsl CWL runner command (paper §III-B).
//!
//! ```text
//! parsl-cwl <config.yml> <doc.cwl> [inputs.yml] [--key=value ...]
//! parsl-cwl <config.yml> <doc.cwl> --resume <run-dir> [inputs...]
//! parsl-cwl --validate <doc.cwl>
//! parsl-cwl submit|status|wait|logs|cancel|drain <config.yml> ...   (service client)
//! ```

use cwl_parsl::proto::{self, obj, s};
use cwl_parsl::{load_config_file, run_tool_cli_resumable};
use obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: parsl-cwl <config.yml> <doc.cwl> [inputs.yml] [--key=value ...]
       parsl-cwl <config.yml> <doc.cwl> --resume <run-dir> [inputs.yml] [--key=value ...]
       parsl-cwl --validate <doc.cwl>
       parsl-cwl submit <config.yml> <doc.cwl> [inputs.yml] [--key=value ...] [--tenant=NAME]
       parsl-cwl status <config.yml> [run-id]
       parsl-cwl wait   <config.yml> [run-id]
       parsl-cwl logs   <config.yml> <run-id>
       parsl-cwl cancel <config.yml> <run-id>
       parsl-cwl drain  <config.yml> [--wait]

options:
  --resume <run-dir>   resume a crashed run from its checkpoint journal
                       (<run-dir> is the journal directory, the workdir
                       containing ckpt/, or the journal file itself);
                       requires a `checkpoint:` block in the config
  --validate <doc>     statically analyze a CWL document (and the files its
                       steps run) and exit non-zero on an error, as cwl-check
                       does: the pre-run gate without executor capacity or
                       `check: {strict}`
  --help               print this message

The submit/status/wait/logs/cancel/drain subcommands talk to a running
`parsl-serve` daemon over the Unix socket the config's `serve:` block
names (default <run.workdir>/serve.sock). `wait` returns when the run has
ended (without a run id: when nothing is queued or running) and exits
non-zero unless the run completed; `drain --wait` returns when the daemon
has finished every run.

Input overrides are written --key=value (values parse as YAML scalars).
Flags not listed above and not of --key=value form are rejected.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("parsl-cwl: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err(USAGE.to_string());
    }
    if args.first().map(String::as_str) == Some("--help") {
        println!("{USAGE}");
        return Ok(());
    }
    match args.first().map(String::as_str) {
        Some("submit") => return client_submit(&args[1..]),
        Some("status") => return client_status(&args[1..]),
        Some("wait") => return client_wait(&args[1..]),
        Some("logs") => return client_logs(&args[1..]),
        Some("cancel") => return client_cancel(&args[1..]),
        Some("drain") => return client_drain(&args[1..]),
        _ => {}
    }
    if args.first().map(String::as_str) == Some("--validate") {
        // The analyzer over the document set, as the pre-run gate applies
        // it with no executor capacity and warnings allowed: a run with a
        // config can still refuse it (E032, or a warning under `strict`).
        let path = args.get(1).ok_or("usage: parsl-cwl --validate <doc.cwl>")?;
        let report = cwl::analyze_file(path);
        print!("{}", report.render_text());
        return if report.is_clean(false) {
            println!("{path}: valid");
            Ok(())
        } else {
            Err(format!("{path} failed validation"))
        };
    }

    let config_path = args.first().ok_or(USAGE)?;
    let cwl_path = args.get(1).ok_or(USAGE)?;
    let mut inputs_file: Option<PathBuf> = None;
    let mut overrides = Vec::new();
    let mut resume: Option<PathBuf> = None;
    let mut rest = args[2..].iter();
    while let Some(arg) = rest.next() {
        if let Some(value) = arg.strip_prefix("--resume=") {
            resume = Some(PathBuf::from(value));
        } else if arg == "--resume" {
            let value = rest
                .next()
                .ok_or(format!("--resume needs a run directory\n{USAGE}"))?;
            resume = Some(PathBuf::from(value));
        } else if arg == "--help" {
            println!("{USAGE}");
            return Ok(());
        } else if let Some(flag) = arg.strip_prefix("--") {
            // Only --key=value input overrides remain legal; a bare flag
            // here is a typo'd option, not an input, and silently treating
            // it as one hid mistakes like `--resume` without a checkpoint.
            if !flag.contains('=') {
                return Err(format!("unknown flag {arg:?}\n{USAGE}"));
            }
            overrides.push(arg.clone());
        } else if inputs_file.is_none() {
            inputs_file = Some(PathBuf::from(arg));
        } else {
            return Err(format!("unexpected argument {arg:?}\n{USAGE}"));
        }
    }

    let config = load_config_file(config_path)?;
    let override_map = cwl_parsl::runner::parse_overrides(&overrides)?;
    let inputs = cwl_parsl::runner::load_inputs(inputs_file.as_deref(), &override_map)?;
    let outcome = run_tool_cli_resumable(
        config,
        std::path::Path::new(cwl_path),
        &inputs,
        resume.as_deref(),
    )?;

    println!(
        "{}",
        yamlite::to_string(&yamlite::Value::Map(outcome.outputs)).trim_end()
    );
    eprintln!(
        "parsl-cwl: {} task(s) completed; workdir {}",
        outcome.tasks,
        outcome.workdir.display()
    );
    if let Some(ckpt) = &outcome.ckpt {
        eprintln!(
            "parsl-cwl: checkpoint journal {} ({} replayed, {} appended, {} invalidated{}{})",
            ckpt.journal.display(),
            ckpt.replayed,
            ckpt.appended,
            ckpt.invalidated,
            if ckpt.torn {
                ", torn tail truncated"
            } else {
                ""
            },
            if ckpt.stale {
                ", stale journal set aside"
            } else {
                ""
            },
        );
    }
    if let Some(trace) = &outcome.trace {
        eprintln!(
            "parsl-cwl: trace written to {} (inspect with parsl-trace)",
            trace.display()
        );
    }
    Ok(())
}

/// The daemon socket a config implies (client side of the service).
fn socket_from_config(config_path: &str) -> Result<PathBuf, String> {
    let config = load_config_file(config_path)?;
    Ok(config.serve.socket_path(&config.workdir))
}

/// `parsl-cwl submit <config.yml> <doc.cwl> [inputs.yml] [--key=value ...]
/// [--tenant=NAME]` — submit a workflow to a running daemon.
fn client_submit(args: &[String]) -> Result<(), String> {
    let config_path = args.first().ok_or(USAGE)?;
    let cwl_path = args.get(1).ok_or(USAGE)?;
    let mut inputs_file: Option<PathBuf> = None;
    let mut overrides = Vec::new();
    let mut tenant = "default".to_string();
    for arg in &args[2..] {
        if let Some(name) = arg.strip_prefix("--tenant=") {
            tenant = name.to_string();
        } else if let Some(flag) = arg.strip_prefix("--") {
            if !flag.contains('=') {
                return Err(format!("unknown flag {arg:?}\n{USAGE}"));
            }
            overrides.push(arg.clone());
        } else if inputs_file.is_none() {
            inputs_file = Some(PathBuf::from(arg));
        } else {
            return Err(format!("unexpected argument {arg:?}\n{USAGE}"));
        }
    }
    let socket = socket_from_config(config_path)?;
    let override_map = cwl_parsl::runner::parse_overrides(&overrides)?;
    let inputs = cwl_parsl::runner::load_inputs(inputs_file.as_deref(), &override_map)?;
    // Absolute path: the daemon resolves paths in its own cwd.
    let cwl_abs = Path::new(cwl_path)
        .canonicalize()
        .map_err(|e| format!("{cwl_path}: {e}"))?;
    let req = obj(vec![
        ("cmd", s("submit")),
        ("cwl", s(cwl_abs.display().to_string())),
        ("inputs", proto::yaml_to_json(&yamlite::Value::Map(inputs))),
        ("tenant", s(tenant)),
    ]);
    let resp = proto::request(&socket, &req)?;
    let run = resp.get("run").and_then(Json::as_u64).unwrap_or(0);
    let dir = resp.get("run_dir").and_then(Json::as_str).unwrap_or("");
    println!("run {run} submitted ({dir})");
    Ok(())
}

/// Render one status entry as a stable, grep-friendly line.
/// Print a line, tolerating a closed stdout (`status | head` must not
/// panic the client on EPIPE).
fn out_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let _ = writeln!(std::io::stdout(), "{line}");
}

fn print_run_line(run: &Json) {
    let id = run.get("run").and_then(Json::as_u64).unwrap_or(0);
    let tenant = run.get("tenant").and_then(Json::as_str).unwrap_or("?");
    let state = run.get("state").and_then(Json::as_str).unwrap_or("?");
    let replayed = run.get("replayed").and_then(Json::as_u64).unwrap_or(0);
    let appended = run.get("appended").and_then(Json::as_u64).unwrap_or(0);
    let error = run
        .get("error")
        .and_then(Json::as_str)
        .map(|e| format!(" error={e:?}"))
        .unwrap_or_default();
    out_line(format_args!(
        "run {id} tenant={tenant} state={state} replayed={replayed} appended={appended}{error}"
    ));
}

/// The request `{cmd, run?}` that `status` and `wait` share.
fn run_request(cmd: &str, run_id: Option<&String>) -> Result<Json, String> {
    let mut fields = vec![("cmd", s(cmd))];
    if let Some(id) = run_id {
        let id: u64 = id.parse().map_err(|_| format!("bad run id {id:?}"))?;
        fields.push(("run", Json::Num(id as f64)));
    }
    Ok(obj(fields))
}

fn print_load_line(resp: &Json) {
    let active = resp.get("active").and_then(Json::as_u64).unwrap_or(0);
    let queued = resp.get("queued").and_then(Json::as_u64).unwrap_or(0);
    out_line(format_args!("active {active} queued {queued}"));
}

/// `parsl-cwl status <config.yml> [run-id]`
fn client_status(args: &[String]) -> Result<(), String> {
    let config_path = args.first().ok_or(USAGE)?;
    let socket = socket_from_config(config_path)?;
    let resp = proto::request(&socket, &run_request("status", args.get(1))?)?;
    if let Some(runs) = resp.get("runs").and_then(Json::as_arr) {
        for run in runs {
            print_run_line(run);
        }
    }
    print_load_line(&resp);
    Ok(())
}

/// `parsl-cwl wait <config.yml> [run-id]` — block until the run has ended
/// and print its `status` line; without a run id, until nothing is queued
/// or running. The daemon answers when that happens: nothing is polled.
fn client_wait(args: &[String]) -> Result<(), String> {
    let config_path = args.first().ok_or(USAGE)?;
    let socket = socket_from_config(config_path)?;
    let resp = proto::request_unbounded(&socket, &run_request("wait", args.get(1))?)?;
    if args.get(1).is_none() {
        print_load_line(&resp);
        return Ok(());
    }
    print_run_line(&resp);
    match resp.get("state").and_then(Json::as_str) {
        Some("completed") => Ok(()),
        state => Err(format!(
            "run ended {}",
            state.unwrap_or("in an unknown state")
        )),
    }
}

/// `parsl-cwl logs <config.yml> <run-id>`
fn client_logs(args: &[String]) -> Result<(), String> {
    let config_path = args.first().ok_or(USAGE)?;
    let id: u64 = args
        .get(1)
        .ok_or(USAGE)?
        .parse()
        .map_err(|_| "bad run id".to_string())?;
    let socket = socket_from_config(config_path)?;
    let req = obj(vec![("cmd", s("logs")), ("run", Json::Num(id as f64))]);
    let resp = proto::request(&socket, &req)?;
    print_run_line(&resp);
    if let Some(dir) = resp.get("run_dir").and_then(Json::as_str) {
        out_line(format_args!("run_dir {dir}"));
    }
    if let Some(outputs) = resp.get("outputs") {
        out_line(format_args!(
            "outputs:\n{}",
            yamlite::to_string(&proto::json_to_yaml(outputs)).trim_end()
        ));
    }
    if let Some(files) = resp.get("files").and_then(Json::as_arr) {
        for f in files {
            if let Some(name) = f.as_str() {
                out_line(format_args!("file {name}"));
            }
        }
    }
    Ok(())
}

/// `parsl-cwl cancel <config.yml> <run-id>`
fn client_cancel(args: &[String]) -> Result<(), String> {
    let config_path = args.first().ok_or(USAGE)?;
    let id: u64 = args
        .get(1)
        .ok_or(USAGE)?
        .parse()
        .map_err(|_| "bad run id".to_string())?;
    let socket = socket_from_config(config_path)?;
    let req = obj(vec![("cmd", s("cancel")), ("run", Json::Num(id as f64))]);
    let resp = proto::request(&socket, &req)?;
    match resp.get("cancelled") {
        Some(Json::Bool(true)) => {
            println!("run {id} cancelled");
            Ok(())
        }
        _ => Err(format!("unknown run {id}")),
    }
}

/// `parsl-cwl drain <config.yml> [--wait]` — stop admissions; with
/// `--wait`, return once the daemon has finished every run.
fn client_drain(args: &[String]) -> Result<(), String> {
    let config_path = args.first().ok_or(USAGE)?;
    let wait = match args.get(1).map(String::as_str) {
        None => false,
        Some("--wait") => true,
        Some(other) => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
    };
    let socket = socket_from_config(config_path)?;
    let resp = proto::request(&socket, &obj(vec![("cmd", s("drain"))]))?;
    let active = resp.get("active").and_then(Json::as_u64).unwrap_or(0);
    let queued = resp.get("queued").and_then(Json::as_u64).unwrap_or(0);
    println!("draining ({active} active, {queued} queued)");
    if wait {
        // A drained daemon answers its waiters, removes its socket and
        // exits: a refused connect, or EOF in place of the answer, means it
        // got there first.
        let _ = proto::request_unbounded(&socket, &obj(vec![("cmd", s("wait"))]));
        println!("drained");
    }
    Ok(())
}
