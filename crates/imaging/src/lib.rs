//! `imaging` — the raster-image substrate behind the paper's evaluation
//! workload.
//!
//! The paper's §IV/§VI workflow resizes, sepia-filters, and blurs PNG images.
//! PNG codecs are out of scope for a from-scratch reproduction, so this crate
//! provides the closest synthetic equivalent that exercises the same code
//! path: a real in-memory RGB image type, real pixel kernels (bilinear
//! resize, sepia matrix, separable box blur), a simple uncompressed on-disk
//! format (`.rimg`) with integrity checking, deterministic synthetic image
//! generators, and the `imgtool` command line ([`imgtool::run`]) — built as a
//! binary so CWL `CommandLineTool`s can invoke the operations as genuine
//! subprocesses, and called in-process by the builtin tool dispatch.
//!
//! The per-image compute is real work — the scaling curves in the Fig. 1
//! reproduction come from actually crunching pixels, not from sleeps.

#![warn(unreachable_pub)]

pub mod codec;
pub(crate) mod gen;
pub(crate) mod image;
pub mod imgtool;
pub(crate) mod ops;
#[cfg(test)]
mod reference;

pub use codec::{read_rimg, write_rimg, CodecError};
pub use gen::{checkerboard, gradient, noise};
pub use image::{Image, Rgb};
pub use ops::{box_blur, gaussian_blur_approx, resize_bilinear, sepia};
