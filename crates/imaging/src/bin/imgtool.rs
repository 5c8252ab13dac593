//! `imgtool` — the command-line image processor invoked by the CWL
//! `CommandLineTool` definitions in this repository (resize_image.cwl,
//! filter_image.cwl, blur_image.cwl). The subcommands live in
//! [`imaging::imgtool`]; file arguments are relative to the current
//! directory.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match imaging::imgtool::run(&args, Path::new(".")) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("imgtool: {msg}");
            ExitCode::FAILURE
        }
    }
}
