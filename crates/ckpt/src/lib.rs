//! Durable checkpoint journal for workflow runs.
//!
//! Parsl's fault-tolerance story (Babuji et al. '19) checkpoints completed
//! app results to disk so a re-run skips finished tasks. This crate is the
//! storage half of that story for parsl-cwl: an append-only, CRC-checksummed,
//! fsync'd log of task completions. Each record carries the task label, the
//! input fingerprint the memo table keys on, the serialized result value,
//! and (for workflow runs) the originating CWL step id.
//!
//! Design points:
//!
//! - **Append-only framing.** Every record is `[len][crc32][payload]`; a
//!   crash can only damage the final record, never an earlier one.
//! - **Torn-tail recovery.** [`load`] walks the frames and stops at the
//!   first short, oversized, or checksum-failing frame, reporting the valid
//!   prefix; [`Journal::resume`] (or [`Journal::reopen`], for a caller that
//!   already holds the load) truncates the file there so the damaged tail
//!   cannot poison later appends.
//! - **Run binding.** The header frame stores a caller-supplied `run_hash`
//!   (workflow content + root inputs). A resume against a different hash
//!   must invalidate the journal instead of trusting it.
//! - **Sync modes.** [`SyncMode::TaskExit`] fsyncs on every append (maximum
//!   durability); [`SyncMode::Periodic`] batches appends and a background
//!   flusher syncs on an interval (cheaper, bounded loss window). Either
//!   way an fsync is skipped when no append has happened since the last one.
//!
//! Trust rules for loaded records live in [`invalidate`]: results that name
//! `class: File` outputs are only replayable while those paths still exist.

#![warn(unreachable_pub)]

mod crc32;
pub mod invalidate;
mod journal;

pub(crate) use crc32::crc32;
pub use invalidate::{Seed, SeedSource};
pub use journal::{load, Header, Journal, LoadedJournal, Record, SyncMode, MAGIC};

/// FNV-1a over a byte slice, chained from `seed` (use [`FNV_OFFSET`] to
/// start a fresh hash). The same primitive the DFK uses for input
/// fingerprints, exported here so run hashes stay consistent across crates.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis — the seed for a fresh [`fnv1a`] chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_chain_differs_by_order() {
        let a = fnv1a(fnv1a(FNV_OFFSET, b"one"), b"two");
        let b = fnv1a(fnv1a(FNV_OFFSET, b"two"), b"one");
        assert_ne!(a, b);
        assert_eq!(a, fnv1a(fnv1a(FNV_OFFSET, b"one"), b"two"));
    }
}
