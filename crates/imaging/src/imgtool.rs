//! The `imgtool` command line: one parser and one set of subcommands,
//! shared by the `imgtool` binary (the program the CWL image tools name in
//! `baseCommand`) and the in-process builtin dispatch in `cwlexec`, so the
//! two agree on every argument, default and error.
//!
//! Subcommands:
//! ```text
//! imgtool gen    <out.rimg> --width W --height H [--seed S] [--kind gradient|noise|checker]
//! imgtool resize <in.rimg> <out.rimg> --size N
//! imgtool sepia  <in.rimg> <out.rimg> [--sepia true|false]
//! imgtool blur   <in.rimg> <out.rimg> --radius R
//! imgtool info   <in.rimg>
//! ```

use crate::codec::MAX_DIM;
use crate::{
    box_blur, checkerboard, gradient, noise, read_rimg, resize_bilinear, sepia, write_rimg,
};
use std::path::Path;

/// Positional arguments plus `--flag value` option pairs.
type ParsedArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Split positional arguments from `--flag value` options.
fn split_args(args: &[String]) -> Result<ParsedArgs<'_>, String> {
    let mut pos = Vec::new();
    let mut opts = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("option --{name} requires a value"))?;
            opts.push((name, value.as_str()));
            i += 2;
        } else {
            pos.push(args[i].as_str());
            i += 1;
        }
    }
    Ok((pos, opts))
}

fn opt<'a>(opts: &[(&'a str, &'a str)], name: &str) -> Option<&'a str> {
    opts.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

fn parse_u32(opts: &[(&str, &str)], name: &str) -> Result<Option<u32>, String> {
    match opt(opts, name) {
        None => Ok(None),
        Some(v) => v
            .parse::<u32>()
            .map(Some)
            .map_err(|_| format!("--{name} must be a non-negative integer, got {v:?}")),
    }
}

/// A required dimension option, checked against what the codec can store
/// before anything is allocated for it.
fn parse_dim(opts: &[(&str, &str)], name: &str) -> Result<u32, String> {
    let v = parse_u32(opts, name)?.ok_or_else(|| format!("--{name} is required"))?;
    if !(1..=MAX_DIM).contains(&v) {
        return Err(format!(
            "--{name} must be positive and at most {MAX_DIM}, got {v}"
        ));
    }
    Ok(v)
}

/// Run one `imgtool` command line (`args` without the program name), with
/// file arguments taken relative to `dir`. `Ok` holds what the command
/// prints on stdout (only `info` prints anything).
pub fn run(args: &[String], dir: &Path) -> Result<String, String> {
    let Some(cmd) = args.first() else {
        return Err("usage: imgtool <gen|resize|sepia|blur|info> ...".to_string());
    };
    let (pos, opts) = split_args(&args[1..])?;
    match cmd.as_str() {
        "gen" => {
            let [out] = pos[..] else {
                return Err("usage: imgtool gen <out.rimg> --width W --height H".to_string());
            };
            let width = parse_dim(&opts, "width")?;
            let height = parse_dim(&opts, "height")?;
            let seed = opt(&opts, "seed")
                .map(|s| s.parse::<u64>().map_err(|_| format!("bad --seed {s:?}")))
                .transpose()?
                .unwrap_or(0);
            let img = match opt(&opts, "kind").unwrap_or("gradient") {
                "gradient" => gradient(width, height, seed),
                "noise" => noise(width, height, seed),
                "checker" => checkerboard(width, height, (seed.max(1)) as u32),
                other => return Err(format!("unknown --kind {other:?}")),
            };
            write_rimg(dir.join(out), &img).map_err(|e| e.to_string())?;
            Ok(String::new())
        }
        "resize" => {
            let [input, output] = pos[..] else {
                return Err("usage: imgtool resize <in> <out> --size N".to_string());
            };
            let size = parse_dim(&opts, "size")?;
            let img = read_rimg(dir.join(input)).map_err(|e| e.to_string())?;
            let out = resize_bilinear(&img, size, size);
            write_rimg(dir.join(output), &out).map_err(|e| e.to_string())?;
            Ok(String::new())
        }
        "sepia" => {
            let [input, output] = pos[..] else {
                return Err("usage: imgtool sepia <in> <out> [--sepia true|false]".to_string());
            };
            let apply = match opt(&opts, "sepia").unwrap_or("true") {
                "true" => true,
                "false" => false,
                other => return Err(format!("--sepia must be true or false, got {other:?}")),
            };
            let img = read_rimg(dir.join(input)).map_err(|e| e.to_string())?;
            let out = if apply { sepia(&img) } else { img };
            write_rimg(dir.join(output), &out).map_err(|e| e.to_string())?;
            Ok(String::new())
        }
        "blur" => {
            let [input, output] = pos[..] else {
                return Err("usage: imgtool blur <in> <out> --radius R".to_string());
            };
            let radius = parse_u32(&opts, "radius")?.ok_or("--radius is required")?;
            let img = read_rimg(dir.join(input)).map_err(|e| e.to_string())?;
            let out = box_blur(&img, radius);
            write_rimg(dir.join(output), &out).map_err(|e| e.to_string())?;
            Ok(String::new())
        }
        "info" => {
            let [input] = pos[..] else {
                return Err("usage: imgtool info <in>".to_string());
            };
            let img = read_rimg(dir.join(input)).map_err(|e| e.to_string())?;
            let (r, g, b) = img.mean_rgb();
            Ok(format!(
                "{}x{} mean_rgb=({r:.1}, {g:.1}, {b:.1}) fingerprint={:#018x}\n",
                img.width(),
                img.height(),
                img.fingerprint()
            ))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}
