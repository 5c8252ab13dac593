//! The per-pixel formulation of the three workflow kernels: every pixel read
//! through [`Image::get`]/[`Image::get_clamped`] and written through
//! [`Image::set`]. Test-only: it is the oracle the row-slice kernels in
//! `ops` must match byte for byte (`ops::tests`). Kept as it was written —
//! including the `u32` window sums, so radii past ~8.4 million are outside
//! what it can answer.

use crate::image::{Image, Rgb};

impl Image {
    /// Clamped pixel read: coordinates outside the image snap to the edge
    /// (the boundary convention the blur kernel uses).
    pub(crate) fn get_clamped(&self, x: i64, y: i64) -> Rgb {
        let cx = x.clamp(0, self.width() as i64 - 1) as u32;
        let cy = y.clamp(0, self.height() as i64 - 1) as u32;
        self.get(cx, cy)
    }
}

/// Resize with bilinear interpolation to `new_w` × `new_h`.
pub(crate) fn resize_bilinear(src: &Image, new_w: u32, new_h: u32) -> Image {
    assert!(new_w > 0 && new_h > 0, "target dimensions must be non-zero");
    let mut dst = Image::new(new_w, new_h);
    let sx = src.width() as f32 / new_w as f32;
    let sy = src.height() as f32 / new_h as f32;
    for y in 0..new_h {
        // Sample at pixel centers to keep edges stable.
        let fy = ((y as f32 + 0.5) * sy - 0.5).max(0.0);
        let y0 = fy.floor() as u32;
        let y1 = (y0 + 1).min(src.height() - 1);
        let wy = fy - y0 as f32;
        for x in 0..new_w {
            let fx = ((x as f32 + 0.5) * sx - 0.5).max(0.0);
            let x0 = fx.floor() as u32;
            let x1 = (x0 + 1).min(src.width() - 1);
            let wx = fx - x0 as f32;

            let p00 = src.get(x0, y0);
            let p10 = src.get(x1, y0);
            let p01 = src.get(x0, y1);
            let p11 = src.get(x1, y1);
            let lerp = |a: u8, b: u8, t: f32| a as f32 + (b as f32 - a as f32) * t;
            let ch = |c: fn(Rgb) -> u8| {
                let top = lerp(c(p00), c(p10), wx);
                let bot = lerp(c(p01), c(p11), wx);
                (top + (bot - top) * wy).round().clamp(0.0, 255.0) as u8
            };
            dst.set(x, y, Rgb::new(ch(|p| p.r), ch(|p| p.g), ch(|p| p.b)));
        }
    }
    dst
}

/// Apply the classic sepia tone matrix.
pub(crate) fn sepia(src: &Image) -> Image {
    let mut dst = Image::new(src.width(), src.height());
    for y in 0..src.height() {
        for x in 0..src.width() {
            let p = src.get(x, y);
            let (r, g, b) = (p.r as f32, p.g as f32, p.b as f32);
            let nr = (0.393 * r + 0.769 * g + 0.189 * b).min(255.0) as u8;
            let ng = (0.349 * r + 0.686 * g + 0.168 * b).min(255.0) as u8;
            let nb = (0.272 * r + 0.534 * g + 0.131 * b).min(255.0) as u8;
            dst.set(x, y, Rgb::new(nr, ng, nb));
        }
    }
    dst
}

/// Separable box blur with clamp-to-edge boundary handling.
/// `radius == 0` returns a copy.
pub(crate) fn box_blur(src: &Image, radius: u32) -> Image {
    if radius == 0 {
        return src.clone();
    }
    let r = radius as i64;
    let norm = (2 * r + 1) as u32;
    let (w, h) = (src.width(), src.height());

    // Horizontal pass with a sliding window per row: O(w) per row.
    let mut mid = Image::new(w, h);
    for y in 0..h {
        let mut sums = [0u32; 3];
        for dx in -r..=r {
            let p = src.get_clamped(dx, y as i64);
            sums[0] += p.r as u32;
            sums[1] += p.g as u32;
            sums[2] += p.b as u32;
        }
        for x in 0..w {
            mid.set(
                x,
                y,
                Rgb::new(
                    (sums[0] / norm) as u8,
                    (sums[1] / norm) as u8,
                    (sums[2] / norm) as u8,
                ),
            );
            let out = src.get_clamped(x as i64 - r, y as i64);
            let inn = src.get_clamped(x as i64 + r + 1, y as i64);
            sums[0] = sums[0] + inn.r as u32 - out.r as u32;
            sums[1] = sums[1] + inn.g as u32 - out.g as u32;
            sums[2] = sums[2] + inn.b as u32 - out.b as u32;
        }
    }

    // Vertical pass.
    let mut dst = Image::new(w, h);
    for x in 0..w {
        let mut sums = [0u32; 3];
        for dy in -r..=r {
            let p = mid.get_clamped(x as i64, dy);
            sums[0] += p.r as u32;
            sums[1] += p.g as u32;
            sums[2] += p.b as u32;
        }
        for y in 0..h {
            dst.set(
                x,
                y,
                Rgb::new(
                    (sums[0] / norm) as u8,
                    (sums[1] / norm) as u8,
                    (sums[2] / norm) as u8,
                ),
            );
            let out = mid.get_clamped(x as i64, y as i64 - r);
            let inn = mid.get_clamped(x as i64, y as i64 + r + 1);
            sums[0] = sums[0] + inn.r as u32 - out.r as u32;
            sums[1] = sums[1] + inn.g as u32 - out.g as u32;
            sums[2] = sums[2] + inn.b as u32 - out.b as u32;
        }
    }
    dst
}
