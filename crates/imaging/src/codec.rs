//! The `.rimg` on-disk format: a tiny uncompressed raster container with an
//! integrity checksum. Stands in for PNG in the reproduced workflow — same
//! role (image file exchanged between workflow steps), none of the
//! compression complexity.
//!
//! Layout (little-endian):
//! ```text
//! magic   [u8; 4]  = b"RIMG"
//! version u8       = 2
//! width   u32
//! height  u32
//! pixels  [u8]     width * height * 3 RGB bytes
//! check   u64      XXH64 (seed 0) over header + pixels
//! ```
//!
//! Every step of the image workflow reads and writes one of these, and
//! [`decode`] verifies every byte of every file it reads, so the checksum
//! has to run at memory speed: XXH64 takes 8 bytes per round over four
//! independent lanes. Version 1 used byte-serial FNV-1a and is refused.
//!
//! `xxh64` is a one-shot port of `datastore::Xxh64`'s algorithm, kept
//! here so that `imaging` gains no dependency edge while the benchmark's
//! lock file (`ledger/Cargo.lock`) is frozen; a test pins the two equal.

use crate::image::Image;
use std::fmt;
use std::io::Read;
use std::path::Path;

const MAGIC: &[u8; 4] = b"RIMG";
const VERSION: u8 = 2;
/// The largest width or height a `.rimg` may declare; [`decode`] refuses
/// anything else before allocating, and `imgtool` refuses to write it.
pub const MAX_DIM: u32 = 1 << 16;

/// Errors reading or writing `.rimg` files.
#[derive(Debug)]
pub enum CodecError {
    Io(std::io::Error),
    /// The file is not an RIMG container or is structurally invalid.
    Format(String),
    /// The checksum did not match (corrupt or truncated file).
    Corrupt(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "I/O error: {e}"),
            CodecError::Format(m) => write!(f, "format error: {m}"),
            CodecError::Corrupt(m) => write!(f, "corrupt file: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// XXH64 (seed 0) of `bytes` in one shot: 32-byte stripes over four
/// independent lanes, then the tail 8, 4 and 1 bytes at a time.
pub(crate) fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut acc = [
            PRIME_1.wrapping_add(PRIME_2),
            PRIME_2,
            0,
            0u64.wrapping_sub(PRIME_1),
        ];
        for stripe in &mut stripes {
            for (lane, word) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, le_u64(word));
            }
        }
        let [a, b, c, d] = acc;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in acc {
            h = (h ^ round(0, lane))
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
        }
        h
    } else {
        PRIME_5
    };
    h = h.wrapping_add(bytes.len() as u64);

    let mut rem = stripes.remainder();
    while rem.len() >= 8 {
        h = (h ^ round(0, le_u64(rem)))
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
    h ^ (h >> 32)
}

/// Serialize an image into `.rimg` bytes.
pub fn encode(img: &Image) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 1 + 8 + img.raw().len() + 8);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&img.width().to_le_bytes());
    out.extend_from_slice(&img.height().to_le_bytes());
    out.extend_from_slice(img.raw());
    let check = xxh64(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Deserialize `.rimg` bytes into an image.
pub fn decode(bytes: &[u8]) -> Result<Image, CodecError> {
    if bytes.len() < 4 + 1 + 8 + 8 {
        return Err(CodecError::Format(format!(
            "file too short ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[..4] != MAGIC {
        return Err(CodecError::Format(
            "bad magic (not an .rimg file)".to_string(),
        ));
    }
    if bytes[4] != VERSION {
        return Err(CodecError::Format(format!(
            "unsupported version {} (this build reads version {VERSION})",
            bytes[4]
        )));
    }
    let width = u32::from_le_bytes(bytes[5..9].try_into().expect("fixed slice"));
    let height = u32::from_le_bytes(bytes[9..13].try_into().expect("fixed slice"));
    if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
        return Err(CodecError::Format(format!(
            "invalid dimensions {width}x{height}"
        )));
    }
    let pixel_len = (width as usize) * (height as usize) * 3;
    let expect = 13 + pixel_len + 8;
    if bytes.len() != expect {
        return Err(CodecError::Format(format!(
            "file is {} bytes, expected {expect} for {width}x{height}",
            bytes.len()
        )));
    }
    let body = &bytes[..13 + pixel_len];
    let stored = u64::from_le_bytes(bytes[13 + pixel_len..].try_into().expect("fixed slice"));
    let computed = xxh64(body);
    if stored != computed {
        return Err(CodecError::Corrupt(format!(
            "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
        )));
    }
    Image::from_raw(width, height, bytes[13..13 + pixel_len].to_vec()).map_err(CodecError::Format)
}

/// Write an image to a `.rimg` file. The bytes are encoded before the file
/// is created, so a failure or kill while encoding leaves no file behind.
pub fn write_rimg(path: impl AsRef<Path>, img: &Image) -> Result<(), CodecError> {
    std::fs::write(path, encode(img))?;
    Ok(())
}

/// Read an image from a `.rimg` file.
pub fn read_rimg(path: impl AsRef<Path>) -> Result<Image, CodecError> {
    let mut f = std::fs::File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gradient, noise};

    #[test]
    fn encode_decode_roundtrip() {
        let img = noise(13, 7, 99);
        let bytes = encode(&img);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rimg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img.rimg");
        let img = noise(8, 8, 1);
        write_rimg(&path, &img).unwrap();
        assert_eq!(read_rimg(&path).unwrap(), img);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&noise(4, 4, 0));
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(CodecError::Format(_))));
    }

    #[test]
    fn rejects_bad_version() {
        // Version 1 (an FNV-1a trailer) is refused like any other.
        for version in [1, 9] {
            let mut bytes = encode(&noise(4, 4, 0));
            bytes[4] = version;
            match decode(&bytes) {
                Err(CodecError::Format(m)) => {
                    assert!(m.contains(&format!("version {version}")), "{m}")
                }
                other => panic!("version {version} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_refused() {
        let bytes = encode(&noise(5, 3, 7));
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(decode(&flipped).is_err(), "byte {i} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn same_bit_in_two_words_of_one_lane_is_refused() {
        // Offsets 32 and 64 are both lane 0 of the stripe loop, and both in
        // the pixels of an 8x8 image (13-byte header, 192 pixel bytes).
        let bytes = encode(&noise(8, 8, 3));
        for bit in 0..64 {
            let mut flipped = bytes.clone();
            for word in [32, 64] {
                flipped[word + bit / 8] ^= 1 << (bit % 8);
            }
            assert!(
                matches!(decode(&flipped), Err(CodecError::Corrupt(_))),
                "bit {bit} flipped twice went unnoticed"
            );
        }
    }

    #[test]
    fn trailer_known_vector() {
        let bytes = encode(&gradient(4, 4, 0));
        let trailer = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(trailer, 0x37ee_919b_376c_9402);
    }

    #[test]
    fn xxh64_matches_datastore() {
        let data: Vec<u8> = (0..257u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..=data.len() {
            let b = &data[..len];
            assert_eq!(
                xxh64(b),
                datastore::Digest::of_bytes(b).hash,
                "length {len}"
            );
        }
        let image = encode(&noise(128, 128, 1));
        assert_eq!(xxh64(&image), datastore::Digest::of_bytes(&image).hash);
    }

    #[test]
    fn rejects_truncation() {
        let bytes = encode(&noise(4, 4, 0));
        assert!(matches!(
            decode(&bytes[..bytes.len() - 3]),
            Err(CodecError::Format(_))
        ));
        assert!(matches!(decode(&bytes[..10]), Err(CodecError::Format(_))));
        assert!(matches!(decode(b""), Err(CodecError::Format(_))));
    }

    #[test]
    fn detects_corruption() {
        let mut bytes = encode(&noise(4, 4, 0));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn rejects_absurd_dimensions() {
        let mut bytes = encode(&noise(4, 4, 0));
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CodecError::Format(_))));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_rimg("/no/such/file.rimg"),
            Err(CodecError::Io(_))
        ));
    }
}
