//! End-to-end tests of the `parsl-cwl` binary (§III-B): the runner command
//! with a YAML config, inputs file, and `--key=value` overrides.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn parsl_cwl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parsl-cwl"))
}

#[test]
fn runs_echo_with_flag_inputs() {
    let dir = scratch("echo");
    let config = dir.join("config.yml");
    std::fs::write(
        &config,
        format!(
            "executor:\n  kind: thread-pool\n  workers: 2\nrun:\n  workdir: {}\n  builtin_tools: true\n",
            dir.join("work").display()
        ),
    )
    .unwrap();
    let output = parsl_cwl()
        .arg(&config)
        .arg(fixtures().join("echo.cwl"))
        .arg("--message=Hello from the CLI")
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("hello.txt"), "stdout: {stdout}");
    let produced = std::fs::read_to_string(dir.join("work").join("echo_0").join("hello.txt"))
        .expect("output file exists");
    assert_eq!(produced, "Hello from the CLI\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runs_tool_with_inputs_file() {
    let dir = scratch("inputsfile");
    let config = dir.join("config.yml");
    std::fs::write(
        &config,
        format!(
            "executor:\n  kind: thread-pool\n  workers: 1\nrun:\n  workdir: {}\n  builtin_tools: true\n",
            dir.join("work").display()
        ),
    )
    .unwrap();
    let inputs = dir.join("inputs.yml");
    std::fs::write(&inputs, "message: from inputs.yml\n").unwrap();
    let output = parsl_cwl()
        .arg(&config)
        .arg(fixtures().join("echo.cwl"))
        .arg(&inputs)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let produced = std::fs::read_to_string(dir.join("work").join("echo_0").join("hello.txt"))
        .expect("output file exists");
    assert_eq!(produced, "from inputs.yml\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_mode_reports_diagnostics() {
    let ok = parsl_cwl()
        .arg("--validate")
        .arg(fixtures().join("image_pipeline.cwl"))
        .output()
        .expect("binary runs");
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("valid"));

    let dir = scratch("badval");
    let bad = dir.join("bad.cwl");
    std::fs::write(&bad, "class: CommandLineTool\ninputs: {}\noutputs: {}\n").unwrap();
    let res = parsl_cwl()
        .arg("--validate")
        .arg(&bad)
        .output()
        .expect("binary runs");
    assert!(!res.status.success());
    let text = String::from_utf8_lossy(&res.stdout);
    assert!(text.contains("cwlVersion"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--validate` refuses exactly what a run refuses: the analyzer over the
/// document set, the files its steps run included.
#[test]
fn validate_mode_agrees_with_the_run() {
    let dir = scratch("validate-agrees");
    let config = dir.join("config.yml");
    std::fs::write(
        &config,
        format!(
            "executor:\n  kind: thread-pool\n  workers: 1\nrun:\n  workdir: {}\n  builtin_tools: true\n",
            dir.join("work").display()
        ),
    )
    .unwrap();
    // A workflow whose step runs a tool with no command line.
    std::fs::write(
        dir.join("no_command.cwl"),
        "cwlVersion: v1.2\nclass: CommandLineTool\ninputs:\n  message: string\noutputs: {}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("wf.cwl"),
        "cwlVersion: v1.2\nclass: Workflow\ninputs:\n  message: string\noutputs: {}\n\
         steps:\n  say:\n    run: no_command.cwl\n    in:\n      message: message\n    out: []\n",
    )
    .unwrap();
    // A tool whose argument is an unterminated expression.
    std::fs::write(
        dir.join("bad_expr.cwl"),
        "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: echo\n\
         arguments: [\"$(inputs.message.\"]\ninputs:\n  message: string\noutputs: {}\n",
    )
    .unwrap();
    for (doc, code) in [("wf.cwl", "E004"), ("bad_expr.cwl", "E020")] {
        let doc = dir.join(doc);
        let checked = parsl_cwl()
            .arg("--validate")
            .arg(&doc)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&checked.stdout);
        assert!(!checked.status.success(), "{}: {stdout}", doc.display());
        assert!(stdout.contains(&format!("error[{code}]")), "{stdout}");
        assert!(!stdout.ends_with(": valid\n"), "{stdout}");
        let run = parsl_cwl()
            .arg(&config)
            .arg(&doc)
            .arg("--message=hi")
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{}: {stderr}", doc.display());
        assert!(stderr.contains(&format!("error[{code}]")), "{stderr}");
    }
    let ok = parsl_cwl()
        .arg("--validate")
        .arg(fixtures().join("diamond.cwl"))
        .output()
        .expect("binary runs");
    assert!(ok.status.success());
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(stdout.ends_with("diamond.cwl: valid\n"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_arguments_produce_usage() {
    let res = parsl_cwl().output().expect("binary runs");
    assert!(!res.status.success());
    assert!(String::from_utf8_lossy(&res.stderr).contains("usage"));
}

#[test]
fn workflow_execution_through_cli() {
    let dir = scratch("wf");
    let input_img = dir.join("in.rimg");
    imaging::write_rimg(&input_img, &imaging::gradient(20, 20, 3)).unwrap();
    let config = dir.join("config.yml");
    std::fs::write(
        &config,
        format!(
            "executor:\n  kind: thread-pool\n  workers: 4\nrun:\n  workdir: {}\n  builtin_tools: true\n",
            dir.join("work").display()
        ),
    )
    .unwrap();
    let output = parsl_cwl()
        .arg(&config)
        .arg(fixtures().join("image_pipeline.cwl"))
        .arg(format!("--input_image={}", input_img.display()))
        .arg("--size=10")
        .arg("--sepia=false")
        .arg("--radius=1")
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("final_output"), "stdout: {stdout}");
    assert!(stdout.contains("blurred.rimg"), "stdout: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
