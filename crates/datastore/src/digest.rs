//! Content digests for the data plane.
//!
//! The store keys objects by **XXH64** of their bytes. The ckpt crate's
//! FNV-1a is fine for short identity strings (run hashes over YAML), but
//! an object store hashes whole files on the hot staging path, and XXH64
//! consumes input 8 bytes per round with far better dispersion — the
//! standard choice for content addressing when cryptographic strength is
//! not required (the CAS is a private cache, not a trust boundary).
//!
//! Digests render as `xxh64:<16 lowercase hex digits>`, the same
//! `algo:value` shape CWL uses for `checksum` fields (`sha1$...` in the
//! spec; we keep our own prefix so nothing mistakes it for SHA-1).

use std::fmt;
use std::io::Read;
use std::path::Path;

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Streaming XXH64 (seed 0). Feed bytes with [`Xxh64::update`], finish
/// with [`Xxh64::digest`].
pub struct Xxh64 {
    total: u64,
    acc: [u64; 4],
    buf: [u8; 32],
    buf_len: usize,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Xxh64 {
    pub fn new() -> Self {
        Xxh64 {
            total: 0,
            acc: [
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0,
                0u64.wrapping_sub(PRIME_1),
            ],
            buf: [0u8; 32],
            buf_len: 0,
        }
    }

    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let want = 32 - self.buf_len;
            let take = want.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 32 {
                return;
            }
            let buf = self.buf;
            self.consume_stripe(&buf);
            self.buf_len = 0;
        }
        let mut chunks = data.chunks_exact(32);
        for stripe in &mut chunks {
            self.consume_stripe(stripe);
        }
        let rest = chunks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    fn consume_stripe(&mut self, stripe: &[u8]) {
        for (i, lane) in stripe.chunks_exact(8).enumerate() {
            let v = u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
            self.acc[i] = round(self.acc[i], v);
        }
    }

    pub fn digest(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let [a, b, c, d] = self.acc;
            let mut h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for acc in [a, b, c, d] {
                h = (h ^ round(0, acc))
                    .wrapping_mul(PRIME_1)
                    .wrapping_add(PRIME_4);
            }
            h
        } else {
            PRIME_5
        };
        h = h.wrapping_add(self.total);

        let mut rem = &self.buf[..self.buf_len];
        while rem.len() >= 8 {
            let v = u64::from_le_bytes(rem[..8].try_into().expect("8 bytes"));
            h = (h ^ round(0, v))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            rem = &rem[8..];
        }
        if rem.len() >= 4 {
            let v = u32::from_le_bytes(rem[..4].try_into().expect("4 bytes")) as u64;
            h = (h ^ v.wrapping_mul(PRIME_1))
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            rem = &rem[4..];
        }
        for &b in rem {
            h = (h ^ (b as u64).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_1);
        }

        h ^= h >> 33;
        h = h.wrapping_mul(PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME_3);
        h ^= h >> 32;
        h
    }
}

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// A content digest: XXH64 plus the byte length, which disambiguates the
/// (astronomically unlikely) 64-bit collision within a run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Digest {
    pub hash: u64,
    pub len: u64,
}

impl Digest {
    pub fn of_bytes(bytes: &[u8]) -> Digest {
        let mut x = Xxh64::new();
        x.update(bytes);
        Digest {
            hash: x.digest(),
            len: bytes.len() as u64,
        }
    }

    /// Hash a file by streaming it in 64 KiB chunks.
    pub fn of_file(path: &Path) -> std::io::Result<Digest> {
        let mut f = std::fs::File::open(path)?;
        let mut x = Xxh64::new();
        let mut buf = [0u8; 64 * 1024];
        let mut len = 0u64;
        loop {
            let n = f.read(&mut buf)?;
            if n == 0 {
                break;
            }
            len += n as u64;
            x.update(&buf[..n]);
        }
        Ok(Digest {
            hash: x.digest(),
            len,
        })
    }

    /// The CWL-style `checksum` string: `xxh64:<16 hex>`.
    pub fn checksum(&self) -> String {
        format!("xxh64:{:016x}", self.hash)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xxh64:{:016x}-{}", self.hash, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Digest {
        /// Parse a `checksum()` string back. `None` on any other shape.
        fn parse_checksum(s: &str, len: u64) -> Option<Digest> {
            let hex = s.strip_prefix("xxh64:")?;
            if hex.len() != 16 {
                return None;
            }
            let hash = u64::from_str_radix(hex, 16).ok()?;
            Some(Digest { hash, len })
        }
    }

    // Reference vectors from the canonical xxHash implementation
    // (XXH64 with seed 0).
    #[test]
    fn known_vectors() {
        assert_eq!(Digest::of_bytes(b"").hash, 0xEF46_DB37_51D8_E999);
        assert_eq!(Digest::of_bytes(b"a").hash, 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(Digest::of_bytes(b"abc").hash, 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            Digest::of_bytes(b"Nobody inspects the spammish repetition").hash,
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        let oneshot = Digest::of_bytes(&data);
        for split in 0..data.len() {
            let mut x = Xxh64::new();
            x.update(&data[..split]);
            x.update(&data[split..]);
            assert_eq!(x.digest(), oneshot.hash, "split at {split}");
        }
    }

    #[test]
    fn file_digest_matches_bytes() {
        let dir = std::env::temp_dir().join(format!("ds-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("payload.bin");
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&p, &data).unwrap();
        assert_eq!(Digest::of_file(&p).unwrap(), Digest::of_bytes(&data));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_round_trip() {
        let d = Digest::of_bytes(b"hello");
        let s = d.checksum();
        assert!(s.starts_with("xxh64:"));
        assert_eq!(Digest::parse_checksum(&s, d.len), Some(d));
        assert_eq!(Digest::parse_checksum("sha1$abc", 3), None);
        assert_eq!(Digest::parse_checksum("xxh64:zz", 3), None);
    }
}
