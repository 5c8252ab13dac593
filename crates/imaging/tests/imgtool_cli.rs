//! End-to-end tests of the real `imgtool` binary (the executable the CWL
//! fixtures name in `baseCommand` when running with subprocess dispatch),
//! and of its agreement with the in-process builtin dispatch.

use std::path::PathBuf;
use std::process::Command;

fn imgtool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_imgtool"))
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("imgtool-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn gen_resize_sepia_blur_info_pipeline() {
    let dir = scratch("pipeline");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    let run = |args: &[&str]| {
        let out = imgtool().args(args).output().expect("imgtool runs");
        assert!(
            out.status.success(),
            "imgtool {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };

    run(&[
        "gen",
        &p("src.rimg"),
        "--width",
        "64",
        "--height",
        "48",
        "--seed",
        "5",
    ]);
    run(&["resize", &p("src.rimg"), &p("r.rimg"), "--size", "32"]);
    run(&["sepia", &p("r.rimg"), &p("s.rimg"), "--sepia", "true"]);
    run(&["blur", &p("s.rimg"), &p("b.rimg"), "--radius", "2"]);
    let info = run(&["info", &p("b.rimg")]);
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.starts_with("32x32 "), "info: {text}");
    assert!(text.contains("fingerprint=0x"), "info: {text}");

    // The binary's output must equal the library's computation.
    let src = imaging::read_rimg(dir.join("src.rimg")).unwrap();
    let expect = imaging::box_blur(&imaging::sepia(&imaging::resize_bilinear(&src, 32, 32)), 2);
    let got = imaging::read_rimg(dir.join("b.rimg")).unwrap();
    assert_eq!(got.fingerprint(), expect.fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_error_paths() {
    let dir = scratch("errors");
    let fail = |args: &[&str]| {
        let out = imgtool().args(args).output().expect("imgtool runs");
        assert!(
            !out.status.success(),
            "imgtool {args:?} unexpectedly succeeded"
        );
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    assert!(fail(&[]).contains("usage"));
    assert!(fail(&["frobnicate"]).contains("unknown subcommand"));
    assert!(fail(&["gen", dir.join("x.rimg").to_str().unwrap()]).contains("--width"));
    assert!(fail(&["resize", "ghost.rimg", "out.rimg", "--size", "4"]).contains("imgtool:"));
    assert!(fail(&["resize", "a", "b", "--size", "0"]).contains("positive"));
    assert!(fail(&["blur", "a", "b"]).contains("--radius"));
    let out = dir.join("x.rimg");
    let out = out.to_str().unwrap();
    for width in ["0", "65537"] {
        let err = fail(&["gen", out, "--width", width, "--height", "4"]);
        assert!(err.contains("--width must be positive"), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generated_kinds_differ() {
    let dir = scratch("kinds");
    for kind in ["gradient", "noise", "checker"] {
        let out = imgtool()
            .args([
                "gen",
                dir.join(format!("{kind}.rimg")).to_str().unwrap(),
                "--width",
                "16",
                "--height",
                "16",
                "--seed",
                "3",
                "--kind",
                kind,
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let g = imaging::read_rimg(dir.join("gradient.rimg")).unwrap();
    let n = imaging::read_rimg(dir.join("noise.rimg")).unwrap();
    let c = imaging::read_rimg(dir.join("checker.rimg")).unwrap();
    assert_ne!(g.fingerprint(), n.fingerprint());
    assert_ne!(n.fingerprint(), c.fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_and_builtin_dispatch_agree() {
    use cwlexec::{BuiltinDispatch, SubprocessDispatch, ToolDispatch};

    let (via_bin, via_builtin) = (scratch("parity-bin"), scratch("parity-builtin"));
    let cases: &[&[&str]] = &[
        &[
            "gen", "src.rimg", "--width", "19", "--height", "11", "--kind", "noise", "--seed", "5",
        ],
        &["gen", "grad.rimg", "--width", "8", "--height", "8"],
        &[
            "gen",
            "white.rimg",
            "--width",
            "8",
            "--height",
            "8",
            "--kind",
            "checker",
            "--seed",
            "100",
        ],
        &[
            "gen", "bad.rimg", "--width", "4", "--height", "4", "--seed", "x",
        ],
        &[
            "gen", "bad.rimg", "--width", "4", "--height", "4", "--kind", "plaid",
        ],
        &["gen", "bad.rimg", "--height", "4"],
        &["resize", "src.rimg", "small.rimg", "--size", "7"],
        &["resize", "src.rimg", "big.rimg", "--size", "40"],
        &["resize", "src.rimg", "bad.rimg", "--size", "0"],
        &["resize", "ghost.rimg", "bad.rimg", "--size", "3"],
        &["sepia", "small.rimg", "sepia.rimg"],
        &["sepia", "small.rimg", "plain.rimg", "--sepia", "false"],
        &["sepia", "small.rimg", "bad.rimg", "--sepia", "maybe"],
        &["blur", "sepia.rimg", "blur.rimg", "--radius", "2"],
        &["blur", "white.rimg", "wide.rimg", "--radius", "4294967295"],
        &["blur", "sepia.rimg", "bad.rimg"],
        &["blur", "sepia.rimg", "bad.rimg", "--radius"],
        &["info", "blur.rimg"],
        &["info", "wide.rimg"],
        &["info", "ghost.rimg"],
        &["frobnicate"],
        &[],
        // Dimensions outside 1..=MAX_DIM are usage errors, refused before
        // anything is allocated or written; MAX_DIM itself is accepted.
        &["gen", "bad.rimg", "--width", "0", "--height", "4"],
        &["gen", "bad.rimg", "--width", "4", "--height", "0"],
        &["gen", "bad.rimg", "--width", "70000", "--height", "1"],
        &["gen", "bad.rimg", "--width", "1", "--height", "65537"],
        &["resize", "src.rimg", "bad.rimg", "--size", "70000"],
        &["gen", "edge.rimg", "--width", "65536", "--height", "1"],
        &["info", "edge.rimg"],
    ];
    for (i, args) in cases.iter().enumerate() {
        let command = |program: &str| cwl::BuiltCommand {
            argv: std::iter::once(program)
                .chain(args.iter().copied())
                .map(str::to_string)
                .collect(),
            stdout: Some(format!("{i}.out")),
            stderr: Some(format!("{i}.err")),
            env: vec![],
        };
        let bin = SubprocessDispatch.run(&command(env!("CARGO_BIN_EXE_imgtool")), &via_bin);
        let builtin = BuiltinDispatch.run(&command("imgtool"), &via_builtin);
        assert_eq!(
            bin.is_ok(),
            builtin.is_ok(),
            "imgtool {args:?}: {bin:?} vs {builtin:?}"
        );
        // Only the subprocess captures stderr, and it creates its stdout
        // capture even when the command fails.
        std::fs::remove_file(via_bin.join(format!("{i}.err"))).unwrap();
        if bin.is_err() {
            std::fs::remove_file(via_bin.join(format!("{i}.out"))).unwrap();
        }
    }

    let files = |dir: &std::path::Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
            .into_iter()
            .map(|n| (n.clone(), std::fs::read(dir.join(&n)).unwrap()))
            .collect::<Vec<_>>()
    };
    let (bin_files, builtin_files) = (files(&via_bin), files(&via_builtin));
    assert!(bin_files.iter().any(|(n, _)| n == "wide.rimg"));
    assert!(bin_files.iter().any(|(n, _)| n == "edge.rimg"));
    assert!(!bin_files.iter().any(|(n, _)| n == "bad.rimg"));
    assert_eq!(bin_files, builtin_files);
    let info = std::fs::read_to_string(via_bin.join("18.out")).unwrap();
    assert!(
        info.starts_with("8x8 mean_rgb=(255.0, 255.0, 255.0) "),
        "{info}"
    );
    let _ = std::fs::remove_dir_all(&via_bin);
    let _ = std::fs::remove_dir_all(&via_builtin);
}
