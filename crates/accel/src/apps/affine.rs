//! Affine: affine transformation of an image
//! (Xilinx SDAccel example; Table 4 row 2).
//!
//! Fixed-point (16.16) inverse-mapped affine warp with bilinear
//! interpolation over a grayscale image. Both the input and the output
//! image are encrypted in TEE modes (Table 4).

use std::ops::Range;

use salus_bitstream::netlist::Module;

use crate::data::{fit, DataGen};
use crate::profile::AppProfile;
use crate::workload::Workload;

/// 16.16 fixed-point affine coefficients (inverse map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineMatrix {
    /// Row 0: `src_x = (a*x + b*y + c) >> 16`.
    pub a: i64,
    /// See [`AffineMatrix::a`].
    pub b: i64,
    /// See [`AffineMatrix::a`].
    pub c: i64,
    /// Row 1: `src_y = (d*x + e*y + f) >> 16`.
    pub d: i64,
    /// See [`AffineMatrix::a`].
    pub e: i64,
    /// See [`AffineMatrix::a`].
    pub f: i64,
}

impl AffineMatrix {
    /// ~15° rotation + slight scale, the demo transform.
    pub fn demo() -> AffineMatrix {
        // cos(15°)≈0.966, sin(15°)≈0.259 in 16.16.
        AffineMatrix {
            a: 63_303,
            b: -16_962,
            c: 8 << 16,
            d: 16_962,
            e: 63_303,
            f: -(4 << 16),
        }
    }
}

/// The Affine workload.
#[derive(Debug, Clone)]
pub struct Affine {
    size: usize,
    matrix: AffineMatrix,
    input: Vec<u8>,
}

impl Affine {
    /// Builds an instance over a `size`×`size` image.
    pub fn new(size: usize, matrix: AffineMatrix) -> Affine {
        let mut gen = DataGen::new("affine");
        Affine {
            size,
            matrix,
            input: gen.pixels(size * size),
        }
    }

    /// The simulation-scale instance (paper: 512×512).
    pub fn paper_scale() -> Affine {
        Affine::new(64, AffineMatrix::demo())
    }

    fn sample(&self, image: &[u8], x: i64, y: i64) -> i64 {
        if x < 0 || y < 0 || x >= self.size as i64 || y >= self.size as i64 {
            0
        } else {
            image[y as usize * self.size + x as usize] as i64
        }
    }

    /// Bilinear interpolation in fixed point at source position
    /// `(sx, sy)` (16.16), each tap bounds-checked by [`Affine::sample`].
    fn pixel_checked(&self, image: &[u8], sx: i64, sy: i64) -> u8 {
        let (x0, y0) = (sx >> 16, sy >> 16);
        let (fx, fy) = (sx & 0xFFFF, sy & 0xFFFF);
        let p00 = self.sample(image, x0, y0);
        let p10 = self.sample(image, x0 + 1, y0);
        let p01 = self.sample(image, x0, y0 + 1);
        let p11 = self.sample(image, x0 + 1, y0 + 1);
        let top = p00 * (0x10000 - fx) + p10 * fx;
        let bottom = p01 * (0x10000 - fx) + p11 * fx;
        let value = (top * (0x10000 - fy) + bottom * fy) >> 32;
        value.clamp(0, 255) as u8
    }
}

/// The `x` in `0..n` for which `lo <= s0 + step·x < hi`: a range,
/// because the left side is monotonic in `x`.
fn span(s0: i64, step: i64, (lo, hi): (i64, i64), n: i64) -> Range<i64> {
    // s ∈ [lo, hi) ⇔ −s ∈ [1 − hi, 1 − lo): make the step non-negative.
    let (s0, step, lo, hi) = if step < 0 {
        (-s0, -step, 1 - hi, 1 - lo)
    } else {
        (s0, step, lo, hi)
    };
    let (start, end) = match step {
        0 if (lo..hi).contains(&s0) => (0, n),
        0 => (0, 0),
        _ => (ceil_div(lo - s0, step), ceil_div(hi - s0, step)),
    };
    start.clamp(0, n)..end.clamp(0, n)
}

/// `⌈p / q⌉` for `q > 0`.
fn ceil_div(p: i64, q: i64) -> i64 {
    -(-p).div_euclid(q)
}

impl Workload for Affine {
    fn name(&self) -> &'static str {
        "Affine"
    }

    fn input(&self) -> &[u8] {
        &self.input
    }

    fn compute(&self, input: &[u8]) -> Vec<u8> {
        let input = &*fit(input, self.input.len());
        let m = self.matrix;
        let size = self.size;
        let n = size as i64;
        // Source positions whose four taps are all in bounds
        // (`0 <= s >> 16 <= size - 2`), and those with any tap in
        // bounds (`-1 <= s >> 16 <= size - 1`): beyond the latter every
        // tap samples 0, and so does the pixel.
        let (all_in, any_in) = ((0, (n - 1) << 16), (-1 << 16, n << 16));
        let mut out = vec![0u8; size * size];
        // (`max(1)`: an empty image has no rows, and no zero-size chunks.)
        for (y, row) in (0..n).zip(out.chunks_exact_mut(size.max(1))) {
            // Row start; each step right adds `(a, d)`.
            let (sx0, sy0) = (m.b * y + m.c, m.e * y + m.f);
            let row_span = |bounds| {
                let (xs, ys) = (span(sx0, m.a, bounds, n), span(sy0, m.d, bounds, n));
                let start = xs.start.max(ys.start);
                start..xs.end.min(ys.end).max(start)
            };
            let (all, any) = (row_span(all_in), row_span(any_in));
            let lo = all.start.clamp(any.start, any.end);
            let hi = all.end.clamp(lo, any.end);
            for x in (any.start..lo).chain(hi..any.end) {
                row[x as usize] = self.pixel_checked(input, m.a * x + sx0, m.d * x + sy0);
            }
            let (mut sx, mut sy) = (m.a * lo + sx0, m.d * lo + sy0);
            for px in &mut row[lo as usize..hi as usize] {
                let at = (sy >> 16) as usize * size + (sx >> 16) as usize;
                let (fx, fy) = ((sx & 0xFFFF) as u32, (sy & 0xFFFF) as u32);
                // The four taps: `quad[0..2]` and `quad[size..size + 2]`.
                let quad = &input[at..at + size + 2];
                // Each tap is at most 255·2¹⁶, so a row blend fits u32.
                let top = quad[0] as u32 * (0x10000 - fx) + quad[1] as u32 * fx;
                let bottom = quad[size] as u32 * (0x10000 - fx) + quad[size + 1] as u32 * fx;
                let value = (top as u64 * (0x10000 - fy) as u64 + bottom as u64 * fy as u64) >> 32;
                *px = value as u8;
                sx += m.a;
                sy += m.d;
            }
        }
        out
    }

    fn accelerator_module(&self) -> Module {
        // Table 5: Affine = 32 014 LUT, 36 382 Register, 543 BRAM.
        Module::new("cl/accel", "accel:affine").with_resources(32_014, 36_382, 543)
    }

    fn profile(&self) -> AppProfile {
        crate::profile::affine()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn encrypt_output(&self) -> bool {
        true // input & output images (Table 4)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The straightforward loop the kernel replaced: source position
    /// recomputed per pixel, every tap bounds-checked. The differential
    /// oracle.
    fn reference(affine: &Affine, input: &[u8]) -> Vec<u8> {
        let m = affine.matrix;
        let n = affine.size as i64;
        let mut out = Vec::with_capacity(affine.size * affine.size);
        for y in 0..n {
            for x in 0..n {
                let (sx, sy) = (m.a * x + m.b * y + m.c, m.d * x + m.e * y + m.f);
                out.push(affine.pixel_checked(input, sx, sy));
            }
        }
        out
    }

    const ONE: i64 = 1 << 16;

    /// A `size` and a matrix of one of six shapes: identity, pure
    /// translation, reflection, axis scaling, a general map, or one
    /// whose offset pushes whole rows (or the whole image) out of
    /// bounds. Offsets reach ±100 pixels, past every edge of an image
    /// of at most 80².
    fn sized_matrix() -> impl Strategy<Value = (usize, AffineMatrix)> {
        let linear = -4 * ONE..=4 * ONE;
        let offset = -100 * ONE..=100 * ONE;
        (
            (1usize..=80, 0u8..6),
            linear.clone(),
            linear.clone(),
            linear.clone(),
            linear,
            offset.clone(),
            offset,
        )
            .prop_map(|((size, shape), a, b, d, e, c, f)| {
                let n = size as i64;
                let m = match shape {
                    0 => (ONE, 0, 0, 0, ONE, 0),
                    1 => (ONE, 0, c, 0, ONE, f),
                    // Reflect (and scale) both axes, then shift by a few pixels.
                    2 => (
                        -a.abs().max(1),
                        0,
                        n * ONE + c % (4 * ONE),
                        0,
                        -e.abs().max(1),
                        n * ONE + f % (4 * ONE),
                    ),
                    // 1/64x (upscale) to 4x (downscale) per axis.
                    3 => (
                        a.abs().max(ONE / 64),
                        0,
                        c % (4 * ONE),
                        0,
                        e.abs().max(ONE / 64),
                        f % (4 * ONE),
                    ),
                    4 => (a, b, c, d, e, f),
                    // Rows above `f` (and, for |c| > n, every column) fall outside.
                    _ => (a, 0, c, 0, ONE, f % (n * ONE)),
                };
                let (a, b, c, d, e, f) = m;
                (size, AffineMatrix { a, b, c, d, e, f })
            })
    }

    #[test]
    fn default_instances_match_the_reference_loop() {
        for affine in [
            Affine::paper_scale(),
            Affine::new(512, AffineMatrix::demo()),
        ] {
            assert_eq!(
                affine.compute(affine.input()),
                reference(&affine, affine.input())
            );
        }
    }

    #[test]
    fn span_is_exactly_the_in_bounds_positions() {
        for (s0, step) in [
            (0, 0),
            (5, 0),
            (-7, 3),
            (7, -3),
            (100, -1),
            (-100, 1),
            (3, 7),
        ] {
            let got = span(s0, step, (0, 10), 40);
            let want: Vec<i64> = (0..40)
                .filter(|x| (0..10).contains(&(s0 + step * x)))
                .collect();
            assert_eq!(got.collect::<Vec<_>>(), want, "s0 {s0} step {step}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernel_matches_the_reference_loop((size, matrix) in sized_matrix(), seed in any::<u64>()) {
            let affine = Affine::new(size, matrix);
            let input = DataGen::new(&seed.to_string()).pixels(size * size);
            prop_assert_eq!(affine.compute(&input), reference(&affine, &input), "{:?}", matrix);
            prop_assert_eq!(affine.compute(affine.input()), reference(&affine, affine.input()));
        }
    }

    #[test]
    fn identity_matrix_is_identity() {
        let identity = AffineMatrix {
            a: 1 << 16,
            b: 0,
            c: 0,
            d: 0,
            e: 1 << 16,
            f: 0,
        };
        let affine = Affine::new(16, identity);
        assert_eq!(affine.compute(affine.input()), affine.input());
    }

    #[test]
    fn translation_shifts_pixels() {
        let shift_one = AffineMatrix {
            a: 1 << 16,
            b: 0,
            c: 1 << 16, // src_x = x + 1
            d: 0,
            e: 1 << 16,
            f: 0,
        };
        let affine = Affine::new(8, shift_one);
        let out = affine.compute(affine.input());
        // out[y][x] = in[y][x+1]
        assert_eq!(out[0], affine.input()[1]);
        // Rightmost column samples out of bounds → 0.
        assert_eq!(out[7], 0);
    }

    #[test]
    fn demo_transform_changes_image_but_stays_in_range() {
        let affine = Affine::paper_scale();
        let out = affine.compute(affine.input());
        assert_eq!(out.len(), affine.input().len());
        assert_ne!(out, affine.input());
    }
}
