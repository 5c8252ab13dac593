//! The in-memory RGB image type.

/// An 8-bit RGB pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rgb {
    pub r: u8,
    pub(crate) g: u8,
    pub(crate) b: u8,
}

impl Rgb {
    /// Build a pixel.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Self { r, g, b }
    }
}

/// A row-major 8-bit RGB raster image.
#[derive(Clone, PartialEq, Eq)]
pub struct Image {
    width: u32,
    height: u32,
    /// `width * height * 3` bytes, row-major, RGB interleaved.
    data: Vec<u8>,
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Image({}x{})", self.width, self.height)
    }
}

impl Image {
    /// A black image of the given dimensions.
    ///
    /// # Panics
    /// Panics when either dimension is zero or the pixel count would
    /// overflow addressable memory.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        let len = (width as usize)
            .checked_mul(height as usize)
            .and_then(|n| n.checked_mul(3))
            .expect("image too large");
        Self {
            width,
            height,
            data: vec![0; len],
        }
    }

    /// Wrap raw RGB bytes (must be exactly `width * height * 3` long).
    pub(crate) fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Result<Self, String> {
        if width == 0 || height == 0 {
            return Err("image dimensions must be non-zero".to_string());
        }
        let expect = (width as usize) * (height as usize) * 3;
        if data.len() != expect {
            return Err(format!(
                "raw buffer is {} bytes, expected {expect} for {width}x{height}",
                data.len()
            ));
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw RGB bytes.
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// Raw RGB bytes, writable (the kernels fill their output row by row).
    pub(crate) fn raw_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    #[inline]
    fn offset(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        ((y as usize) * (self.width as usize) + (x as usize)) * 3
    }

    /// Read the pixel at `(x, y)`.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgb {
        let o = self.offset(x, y);
        Rgb::new(self.data[o], self.data[o + 1], self.data[o + 2])
    }

    /// Write the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, p: Rgb) {
        let o = self.offset(x, y);
        self.data[o] = p.r;
        self.data[o + 1] = p.g;
        self.data[o + 2] = p.b;
    }

    /// Mean channel values (used by `imgtool info` and tests).
    pub fn mean_rgb(&self) -> (f64, f64, f64) {
        let mut sums = [0u64; 3];
        for chunk in self.data.chunks_exact(3) {
            sums[0] += chunk[0] as u64;
            sums[1] += chunk[1] as u64;
            sums[2] += chunk[2] as u64;
        }
        let n = (self.width as f64) * (self.height as f64);
        (sums[0] as f64 / n, sums[1] as f64 / n, sums[2] as f64 / n)
    }

    /// XXH64 of width, height (little-endian) and pixel data — a cheap
    /// content fingerprint for integrity checks and output comparison.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(8 + self.data.len());
        bytes.extend_from_slice(&self.width.to_le_bytes());
        bytes.extend_from_slice(&self.height.to_le_bytes());
        bytes.extend_from_slice(&self.data);
        crate::codec::xxh64(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let img = Image::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.get(3, 2), Rgb::new(0, 0, 0));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut img = Image::new(5, 5);
        img.set(2, 3, Rgb::new(10, 20, 30));
        assert_eq!(img.get(2, 3), Rgb::new(10, 20, 30));
        assert_eq!(img.get(3, 2), Rgb::new(0, 0, 0));
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(Image::from_raw(2, 2, vec![0; 12]).is_ok());
        assert!(Image::from_raw(2, 2, vec![0; 11]).is_err());
        assert!(Image::from_raw(0, 2, vec![]).is_err());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimensions_panic() {
        let _ = Image::new(0, 5);
    }

    #[test]
    fn clamped_reads() {
        let mut img = Image::new(2, 2);
        img.set(0, 0, Rgb::new(255, 0, 0));
        assert_eq!(img.get_clamped(-5, -5), Rgb::new(255, 0, 0));
        assert_eq!(img.get_clamped(0, 0), Rgb::new(255, 0, 0));
        assert_eq!(img.get_clamped(10, 0), img.get(1, 0));
    }

    #[test]
    fn mean_rgb() {
        let mut img = Image::new(2, 1);
        img.set(0, 0, Rgb::new(0, 0, 0));
        img.set(1, 0, Rgb::new(255, 100, 50));
        let (r, g, b) = img.mean_rgb();
        assert_eq!(r, 127.5);
        assert_eq!(g, 50.0);
        assert_eq!(b, 25.0);
    }

    #[test]
    fn fingerprint_sensitivity() {
        let a = Image::new(4, 4);
        let mut b = Image::new(4, 4);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.set(1, 1, Rgb::new(1, 0, 0));
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same bytes, different shape → different fingerprint.
        let c = Image::new(2, 8);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
