//! Content-addressed data plane for `parsl-cwl`.
//!
//! The paper's Fig. 1 workload scatters one input over up to 1000 tool
//! invocations. A copying stager moves the same bytes a thousand times;
//! this crate replaces that with a content-addressed store ([`cas`]), a
//! sharded index from file identity (`dev`, `ino`) to digest ([`index`])
//! so bytes are hashed exactly once, and a zero-copy stager ([`stage`]) whose materialization ladder
//! — hardlink, then reflink (`FICLONE`), then copy — is chosen at
//! runtime per filesystem pair.
//!
//! Execution layers consume this through three calls:
//!
//! - [`Stager::stage_value`] — rewrite a CWL input object so every
//!   `class: File` points at a workdir materialization, with `checksum`
//!   and `size` attached from the index;
//! - [`Stager::register_output`] — bind a collected output into the
//!   store (a CAS handle) instead of copying it, so the next step's
//!   stage-in links from the object;
//! - [`index::global`] — the process-wide digest index that also serves
//!   `parsl::File::checksum()` without re-reading data.

#![warn(unreachable_pub)]

pub(crate) mod cas;
pub(crate) mod digest;
pub mod index;
pub(crate) mod stage;

pub use cas::{par_map, ContentStore, Ingest};
pub use digest::{Digest, Xxh64};
pub use stage::{Method, StageMode, StageStats, Stager};
