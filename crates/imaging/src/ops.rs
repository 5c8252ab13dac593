//! Pixel kernels: bilinear resize, sepia tone, separable box blur, and a
//! 3-pass box approximation of Gaussian blur. These are the three stages of
//! the paper's image-processing workflow (Listing 3).
//!
//! Every kernel walks row slices of [`Image::raw`] and keeps the arithmetic
//! of the plain per-pixel formulation, so its output is byte-identical to
//! it; that formulation is the test oracle (`crate::reference`).

use crate::image::Image;

/// Resize with bilinear interpolation to `new_w` × `new_h`.
pub fn resize_bilinear(src: &Image, new_w: u32, new_h: u32) -> Image {
    assert!(new_w > 0 && new_h > 0, "target dimensions must be non-zero");
    let (w, h) = (src.width(), src.height());
    let sx = w as f32 / new_w as f32;
    let sy = h as f32 / new_h as f32;
    // Output index `i` samples the source at `(i + 0.5)·s − 0.5` (pixel
    // centers keep edges stable): the two neighbours it falls between and
    // the weight of the second.
    let taps = |i: u32, s: f32, n: u32| {
        let f = ((i as f32 + 0.5) * s - 0.5).max(0.0);
        let i0 = f.floor() as u32;
        (i0 as usize, (i0 + 1).min(n - 1) as usize, f - i0 as f32)
    };
    let cols: Vec<(usize, usize, f32)> = (0..new_w)
        .map(|x| {
            let (x0, x1, wx) = taps(x, sx, w);
            (x0 * 3, x1 * 3, wx)
        })
        .collect();
    let stride = w as usize * 3;
    let mut dst = Image::new(new_w, new_h);
    for (y, out) in dst
        .raw_mut()
        .chunks_exact_mut(new_w as usize * 3)
        .enumerate()
    {
        let (y0, y1, wy) = taps(y as u32, sy, h);
        let top = &src.raw()[y0 * stride..][..stride];
        let bot = &src.raw()[y1 * stride..][..stride];
        let px = |row: &[u8], at: usize| -> [u8; 3] {
            row[at..at + 3].try_into().expect("a pixel is three bytes")
        };
        for (out, &(x0, x1, wx)) in out.chunks_exact_mut(3).zip(&cols) {
            let (p00, p10, p01, p11) = (px(top, x0), px(top, x1), px(bot, x0), px(bot, x1));
            for c in 0..3 {
                let t = lerp(p00[c], p10[c], wx);
                let b = lerp(p01[c], p11[c], wx);
                out[c] = round_u8(t + (b - t) * wy);
            }
        }
    }
    dst
}

#[inline]
fn lerp(a: u8, b: u8, t: f32) -> f32 {
    a as f32 + (b as f32 - a as f32) * t
}

/// `v.round().clamp(0.0, 255.0) as u8` without the libm `roundf` call:
/// truncate, then round up when the dropped fraction is at least one half.
/// The subtraction is exact (Sterbenz) wherever the answer depends on it,
/// so this is round-half-away-from-zero for every f32, NaN included (→ 0).
#[inline]
fn round_u8(v: f32) -> u8 {
    let t = v as u8;
    t.saturating_add(u8::from(v - f32::from(t) >= 0.5))
}

/// Apply the classic sepia tone matrix.
pub fn sepia(src: &Image) -> Image {
    let mut dst = Image::new(src.width(), src.height());
    for (out, p) in dst
        .raw_mut()
        .chunks_exact_mut(3)
        .zip(src.raw().chunks_exact(3))
    {
        let (r, g, b) = (p[0] as f32, p[1] as f32, p[2] as f32);
        out[0] = (0.393 * r + 0.769 * g + 0.189 * b).min(255.0) as u8;
        out[1] = (0.349 * r + 0.686 * g + 0.168 * b).min(255.0) as u8;
        out[2] = (0.272 * r + 0.534 * g + 0.131 * b).min(255.0) as u8;
    }
    dst
}

/// Separable box blur with clamp-to-edge boundary handling.
/// `radius == 0` returns a copy. Costs O(w·h) for every radius: each window
/// is seeded in O(min(radius, side)) and then slides.
pub fn box_blur(src: &Image, radius: u32) -> Image {
    if radius == 0 {
        return src.clone();
    }
    let norm = 2 * u64::from(radius) + 1;
    let r = radius as usize;
    match Reciprocal::new(norm) {
        Some(recip) => blur_with(src, r, move |s| recip.div(s)),
        None => blur_with(src, r, move |s| (s / norm) as u8),
    }
}

/// Both passes of [`box_blur`], with `div` turning a window sum into the
/// window mean (floor).
fn blur_with(src: &Image, r: usize, div: impl Fn(u64) -> u8 + Copy) -> Image {
    let (w, h) = (src.width() as usize, src.height() as usize);
    let stride = w * 3;

    // Horizontal pass: one window per row slides right; which pixel enters
    // and which leaves at each step is the same on every row.
    let slide: Vec<(usize, usize)> = (0..w)
        .map(|x| (enters(x, r, w) * 3, x.saturating_sub(r) * 3))
        .collect();
    let mut mid = Image::new(src.width(), src.height());
    for (out, row) in mid
        .raw_mut()
        .chunks_exact_mut(stride)
        .zip(src.raw().chunks_exact(stride))
    {
        let mut sums = [0u64; 3];
        seed_window(r, w, |x, n| {
            for (s, &v) in sums.iter_mut().zip(&row[x * 3..x * 3 + 3]) {
                *s += n * u64::from(v);
            }
        });
        for (px, &(inn, out_at)) in out.chunks_exact_mut(3).zip(&slide) {
            for (c, v) in px.iter_mut().enumerate() {
                *v = div(sums[c]);
                sums[c] = sums[c] + u64::from(row[inn + c]) - u64::from(row[out_at + c]);
            }
        }
    }

    // Vertical pass, row by row: `sums` holds every column's window.
    let mid = mid.raw();
    let line = |y: usize| &mid[y * stride..][..stride];
    let mut sums = vec![0u64; stride];
    seed_window(r, h, |y, n| {
        for (s, &v) in sums.iter_mut().zip(line(y)) {
            *s += n * u64::from(v);
        }
    });
    let mut dst = Image::new(src.width(), src.height());
    for (y, out) in dst.raw_mut().chunks_exact_mut(stride).enumerate() {
        let (inn, leaves) = (line(enters(y, r, h)), line(y.saturating_sub(r)));
        for (((v, s), &i), &o) in out.iter_mut().zip(&mut sums).zip(inn).zip(leaves) {
            *v = div(*s);
            *s = *s + u64::from(i) - u64::from(o);
        }
    }
    dst
}

/// The index that enters a radius-`r` window over `n` elements as it slides
/// from `i` to `i + 1` (clamped to the last element).
#[inline]
fn enters(i: usize, r: usize, n: usize) -> usize {
    r.saturating_add(i + 1).min(n - 1)
}

/// Feed `add(i, count)` the clamp-to-edge window of radius `r` centred on
/// element 0 of `n`: element 0 counts r+1 times, elements 1..=k once each
/// and element n−1 a further r−k times, where k = min(r, n−1). O(min(r, n))
/// for any radius.
fn seed_window(r: usize, n: usize, mut add: impl FnMut(usize, u64)) {
    let k = r.min(n - 1);
    add(0, r as u64 + 1);
    for i in 1..=k {
        add(i, 1);
    }
    if r > k {
        add(n - 1, (r - k) as u64);
    }
}

/// Exact `floor(s / d)` for window sums `s ≤ 255·d` as one multiply and
/// shift. With m = ⌈2⁴⁰/d⌉, `s·m/2⁴⁰` exceeds `s/d` by less than 255·d/2⁴⁰,
/// which stays under the 1/d gap to the next integer while 255·d² < 2⁴⁰:
/// every d ≤ 65,535, i.e. every radius ≤ 32,767.
#[derive(Clone, Copy)]
struct Reciprocal(u64);

impl Reciprocal {
    const SHIFT: u32 = 40;
    const MAX_DIVISOR: u64 = 65_535;

    fn new(d: u64) -> Option<Self> {
        (d <= Self::MAX_DIVISOR).then(|| Self((1u64 << Self::SHIFT).div_ceil(d)))
    }

    #[inline]
    fn div(self, s: u64) -> u8 {
        ((s * self.0) >> Self::SHIFT) as u8
    }
}

/// Gaussian blur approximated by three successive box blurs — the standard
/// fast approximation; visually indistinguishable for workflow purposes.
pub fn gaussian_blur_approx(src: &Image, radius: u32) -> Image {
    if radius == 0 {
        return src.clone();
    }
    let pass = (radius / 2).max(1);
    let a = box_blur(src, pass);
    let b = box_blur(&a, pass);
    box_blur(&b, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{checkerboard, gradient, noise};
    use crate::image::Rgb;
    use crate::reference;
    use proptest::prelude::*;

    #[test]
    fn resize_identity_dimensions() {
        let img = gradient(16, 12, 7);
        let out = resize_bilinear(&img, 16, 12);
        assert_eq!(out.width(), 16);
        assert_eq!(out.height(), 12);
        // Identity resize at pixel centers reproduces the image.
        assert_eq!(out, img);
    }

    #[test]
    fn resize_changes_dimensions() {
        let img = gradient(32, 32, 1);
        let out = resize_bilinear(&img, 8, 16);
        assert_eq!((out.width(), out.height()), (8, 16));
    }

    #[test]
    fn resize_uniform_image_stays_uniform() {
        let mut img = Image::new(10, 10);
        for y in 0..10 {
            for x in 0..10 {
                img.set(x, y, Rgb::new(90, 120, 200));
            }
        }
        let out = resize_bilinear(&img, 23, 7);
        for y in 0..7 {
            for x in 0..23 {
                assert_eq!(out.get(x, y), Rgb::new(90, 120, 200));
            }
        }
    }

    #[test]
    fn sepia_known_values() {
        let mut img = Image::new(1, 1);
        img.set(0, 0, Rgb::new(100, 100, 100));
        let out = sepia(&img);
        // 100 * (0.393+0.769+0.189) = 135.1 etc.
        assert_eq!(out.get(0, 0), Rgb::new(135, 120, 93));
    }

    #[test]
    fn sepia_saturates() {
        let mut img = Image::new(1, 1);
        img.set(0, 0, Rgb::new(255, 255, 255));
        let out = sepia(&img);
        assert_eq!(out.get(0, 0).r, 255);
    }

    #[test]
    fn blur_zero_radius_is_identity() {
        let img = checkerboard(8, 8, 2);
        assert_eq!(box_blur(&img, 0), img);
        assert_eq!(gaussian_blur_approx(&img, 0), img);
    }

    #[test]
    fn blur_preserves_uniform_regions() {
        let mut img = Image::new(9, 9);
        for y in 0..9 {
            for x in 0..9 {
                img.set(x, y, Rgb::new(40, 50, 60));
            }
        }
        let out = box_blur(&img, 3);
        assert_eq!(out.get(4, 4), Rgb::new(40, 50, 60));
        assert_eq!(out.get(0, 0), Rgb::new(40, 50, 60)); // edge clamping
    }

    #[test]
    fn blur_reduces_contrast() {
        let img = checkerboard(16, 16, 1);
        let out = box_blur(&img, 2);
        // A blurred checkerboard has interior pixels pulled toward the mean.
        let p = out.get(8, 8);
        assert!(p.r > 30 && p.r < 225, "blur did not mix: {p:?}");
        // Mean brightness is approximately preserved.
        let (m_in, _, _) = img.mean_rgb();
        let (m_out, _, _) = out.mean_rgb();
        assert!((m_in - m_out).abs() < 8.0, "in={m_in} out={m_out}");
    }

    #[test]
    fn blur_matches_naive_reference() {
        // Sliding-window blur must equal the O(r) naive convolution.
        let img = gradient(7, 5, 3);
        let r = 2u32;
        let fast = box_blur(&img, r);
        for y in 0..5i64 {
            for x in 0..7i64 {
                let mut sums = [0u32; 3];
                for dy in -(r as i64)..=r as i64 {
                    for dx in -(r as i64)..=r as i64 {
                        // Reference: horizontal clamp then vertical clamp,
                        // matching the separable implementation.
                        let p = {
                            let px = img.get_clamped(x + dx, y);
                            let _ = px;
                            img.get_clamped((x + dx).clamp(0, 6), (y + dy).clamp(0, 4))
                        };
                        sums[0] += p.r as u32;
                        sums[1] += p.g as u32;
                        sums[2] += p.b as u32;
                    }
                }
                let n = (2 * r + 1) * (2 * r + 1);
                let got = fast.get(x as u32, y as u32);
                // Integer division in two passes loses at most 1 per pass.
                assert!(
                    (got.r as i32 - (sums[0] / n) as i32).abs() <= 2,
                    "at ({x},{y})"
                );
                assert!((got.g as i32 - (sums[1] / n) as i32).abs() <= 2);
                assert!((got.b as i32 - (sums[2] / n) as i32).abs() <= 2);
            }
        }
    }

    #[test]
    fn pipeline_resize_sepia_blur() {
        // The full paper workflow over one synthetic image.
        let img = gradient(64, 64, 42);
        let resized = resize_bilinear(&img, 32, 32);
        let filtered = sepia(&resized);
        let blurred = gaussian_blur_approx(&filtered, 1);
        assert_eq!((blurred.width(), blurred.height()), (32, 32));
        // Sepia pushes red above blue on average; blur preserves that.
        let (r, _, b) = blurred.mean_rgb();
        assert!(r > b, "sepia ordering lost: r={r} b={b}");
    }

    /// One of the three generators, `kind` 0–2, at `w`×`h`.
    fn generated(kind: u8, w: u32, h: u32, seed: u64) -> Image {
        match kind {
            0 => gradient(w, h, seed),
            1 => noise(w, h, seed),
            _ => checkerboard(w, h, 1 + (seed % 8) as u32),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn kernels_are_byte_identical_to_the_per_pixel_reference(
            w in 1u32..=64,
            h in 1u32..=64,
            kind in 0u8..3,
            seed in any::<u64>(),
            picks in (any::<u32>(), any::<u32>(), any::<u32>()),
        ) {
            let (tw, th, rsel) = picks;
            let img = generated(kind, w, h, seed);
            // Targets from 1 up to about twice the source: down- and upscales.
            let (tw, th) = (1 + tw % (2 * w + 1), 1 + th % (2 * h + 1));
            prop_assert_eq!(
                resize_bilinear(&img, tw, th),
                reference::resize_bilinear(&img, tw, th)
            );
            prop_assert_eq!(sepia(&img), reference::sepia(&img));
            let r = rsel % (2 * w.max(h) + 3);
            prop_assert_eq!(box_blur(&img, r), reference::box_blur(&img, r));
        }
    }

    #[test]
    fn round_u8_matches_round_then_clamp_at_every_boundary() {
        let expect = |v: f32| v.round().clamp(0.0, 255.0) as u8;
        let mut probes = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            -0.0,
            -0.5,
            -0.49999997,
            -1.0,
            -255.5,
            255.49998,
            255.5,
            256.0,
            510.5,
            1e30,
        ];
        for k in 0..=255u16 {
            for base in [f32::from(k), f32::from(k) + 0.5] {
                // Every f32 within 4 ulps either side (subnormals and
                // their negatives around zero).
                let bits = base.to_bits();
                for d in 0..=4u32 {
                    probes.push(f32::from_bits(bits + d));
                    match bits.checked_sub(d) {
                        Some(b) => probes.push(f32::from_bits(b)),
                        None => probes.push(-f32::from_bits(d)),
                    }
                }
            }
        }
        for v in probes {
            assert_eq!(round_u8(v), expect(v), "at {v:e} ({:#x})", v.to_bits());
        }
    }

    #[test]
    fn reciprocal_divides_exactly() {
        let check = |d: u64| {
            let recip = Reciprocal::new(d).expect("within the reciprocal's range");
            for s in 0..=255 * d {
                assert_eq!(u64::from(recip.div(s)), s / d, "{s} / {d}");
            }
        };
        (1..=511).for_each(check);
        check(Reciprocal::MAX_DIVISOR);
        assert!(Reciprocal::new(Reciprocal::MAX_DIVISOR + 1).is_none());
    }

    #[test]
    fn blur_keeps_uniform_images_uniform_at_any_radius() {
        let mut img = Image::new(8, 8);
        for px in img.raw_mut().chunks_exact_mut(3) {
            px.copy_from_slice(&[200, 17, 255]);
        }
        for r in [20_000_000, u32::MAX] {
            assert_eq!(box_blur(&img, r), img, "radius {r}");
        }
    }

    #[test]
    fn blur_at_the_largest_radius_matches_the_closed_form() {
        let (a, b) = ([0u8, 100, 255], [255u8, 7, 0]);
        let r = u128::from(u32::MAX);
        // Centred on `near`, the window holds it R+1 times and `far` R times.
        let mean =
            |near: u8, far: u8| ((r + 1) * u128::from(near) + r * u128::from(far)) / (2 * r + 1);
        let expect: Vec<u8> = (0..3)
            .map(|c| mean(a[c], b[c]))
            .chain((0..3).map(|c| mean(b[c], a[c])))
            .map(|v| v as u8)
            .collect();
        let pixels = [a, b].concat();
        for (w, h) in [(2, 1), (1, 2)] {
            let img = Image::from_raw(w, h, pixels.clone()).unwrap();
            assert_eq!(box_blur(&img, u32::MAX).raw(), &expect[..], "{w}x{h}");
        }
    }
}
