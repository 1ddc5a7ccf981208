//! Conv: a single convolution layer over 3×3 kernels
//! (Xilinx SDAccel example; Table 4 row 1).
//!
//! Integer (i32 accumulate over i16 data) direct convolution with ReLU,
//! `channels_in` input feature maps → `channels_out` output maps. The
//! simulation scale is smaller than the paper's 3×3×256 layer, but the
//! kernel structure (and thus the data/compute paths being encrypted
//! and verified) is the same.

use salus_bitstream::netlist::Module;

use crate::data::{bytes_to_i16s, fit, i16s_to_bytes, DataGen};
use crate::profile::AppProfile;
use crate::workload::Workload;

/// The Conv workload.
#[derive(Debug, Clone)]
pub struct Conv {
    height: usize,
    width: usize,
    channels_in: usize,
    channels_out: usize,
    /// Weights stay on the accelerator ("training weights ... in
    /// plaintext", §6.4) — they are not part of the encrypted input.
    /// Regrouped at construction into one 3×3×`channels_in` kernel per
    /// output channel, laid out `[co][ky][kx][ci]`, so each kernel row
    /// lines up with three adjacent input pixels' channels.
    kernels: Vec<i16>,
    input: Vec<u8>,
}

impl Conv {
    /// Builds a Conv instance with the given dimensions.
    pub fn new(height: usize, width: usize, channels_in: usize, channels_out: usize) -> Conv {
        let mut gen = DataGen::new("conv");
        let weights = gen.i16s(3 * 3 * channels_in * channels_out, 64);
        let feature_maps = gen.i16s(height * width * channels_in, 256);
        let dims = (height, width, channels_in, channels_out);
        Conv::from_parts(dims, &weights, i16s_to_bytes(&feature_maps))
    }

    /// A Conv of `(height, width, channels_in, channels_out)` over
    /// `weights` laid out `[ky][kx][ci][co]`.
    fn from_parts(dims: (usize, usize, usize, usize), weights: &[i16], input: Vec<u8>) -> Conv {
        let (height, width, channels_in, channels_out) = dims;
        let kernels = (0..channels_out)
            .flat_map(|co| (0..9 * channels_in).map(move |k| weights[k * channels_out + co]))
            .collect();
        Conv {
            height,
            width,
            channels_in,
            channels_out,
            kernels,
            input,
        }
    }

    /// The simulation-scale instance used by tests and benches.
    pub fn paper_scale() -> Conv {
        Conv::new(16, 16, 8, 8)
    }
}

/// `Σ a[i]·b[i]` in i32, wrapping like the hardware accumulator.
fn dot(a: &[i16], b: &[i16]) -> i32 {
    a.iter()
        .zip(b)
        .fold(0i32, |acc, (&x, &y)| acc.wrapping_add(x as i32 * y as i32))
}

impl Workload for Conv {
    fn name(&self) -> &'static str {
        "Conv"
    }

    fn input(&self) -> &[u8] {
        &self.input
    }

    fn compute(&self, input: &[u8]) -> Vec<u8> {
        let maps = bytes_to_i16s(&fit(input, self.input.len()));
        let (out_h, out_w) = (self.height - 2, self.width - 2);
        // Each row of a 3×3 window is three adjacent pixels' channels,
        // one contiguous run of the input. The three runs are gathered
        // once per output pixel into `window`, laid out `[ky][kx][ci]`
        // like every kernel, so each output channel is one dot product.
        let run = 3 * self.channels_in;
        let stride = self.width * self.channels_in;
        let mut out = Vec::with_capacity(out_h * out_w * self.channels_out * 4);
        let mut window = vec![0i16; 3 * run];
        for y in 0..out_h {
            for x in 0..out_w {
                let base = y * stride + x * self.channels_in;
                for (ky, row) in window.chunks_exact_mut(run).enumerate() {
                    let at = base + ky * stride;
                    row.copy_from_slice(&maps[at..at + run]);
                }
                for kernel in self.kernels.chunks_exact(window.len()) {
                    let acc = dot(&window, kernel);
                    // ReLU
                    out.extend_from_slice(&acc.max(0).to_le_bytes());
                }
            }
        }
        out
    }

    fn accelerator_module(&self) -> Module {
        // Table 5: Conv = 19 735 LUT, 20 169 Register, 329 BRAM.
        Module::new("cl/accel", "accel:conv").with_resources(19_735, 20_169, 329)
    }

    fn profile(&self) -> AppProfile {
        crate::profile::conv()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn encrypt_output(&self) -> bool {
        false // only incoming traffic is encrypted (§6.4)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The straightforward loop the kernel replaced, over `weights` in
    /// their generated `[ky][kx][ci][co]` layout: the differential
    /// oracle.
    fn reference(conv: &Conv, weights: &[i16], input: &[u8]) -> Vec<u8> {
        let (width, cin, cout) = (conv.width, conv.channels_in, conv.channels_out);
        let maps = bytes_to_i16s(input);
        let in_at = |y: usize, x: usize, c: usize| maps[(y * width + x) * cin + c] as i32;
        let weight = |ky: usize, kx: usize, ci: usize, co: usize| {
            weights[((ky * 3 + kx) * cin + ci) * cout + co] as i32
        };
        let out_h = conv.height - 2;
        let out_w = width - 2;
        let mut out = vec![0i32; out_h * out_w * cout];
        for y in 0..out_h {
            for x in 0..out_w {
                for co in 0..cout {
                    let mut acc = 0i32;
                    for ky in 0..3 {
                        for kx in 0..3 {
                            for ci in 0..cin {
                                acc += in_at(y + ky, x + kx, ci) * weight(ky, kx, ci, co);
                            }
                        }
                    }
                    // ReLU
                    out[(y * out_w + x) * cout + co] = acc.max(0);
                }
            }
        }
        out.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// The weights [`Conv::new`] draws for these channel counts.
    fn generated_weights(channels_in: usize, channels_out: usize) -> Vec<i16> {
        DataGen::new("conv").i16s(3 * 3 * channels_in * channels_out, 64)
    }

    #[test]
    fn default_instances_match_the_reference_loop() {
        for (h, w, cin, cout) in [(16, 16, 8, 8), (8, 8, 2, 3), (3, 3, 1, 1), (5, 9, 3, 16)] {
            let conv = Conv::new(h, w, cin, cout);
            let weights = generated_weights(cin, cout);
            assert_eq!(
                conv.compute(conv.input()),
                reference(&conv, &weights, conv.input()),
                "{h}x{w}x{cin}->{cout}"
            );
        }
    }

    /// An i16 biased towards the extremes `v` and `-v`.
    fn extreme_biased(v: i16) -> impl Strategy<Value = i16> {
        (0u8..4, -v..=v).prop_map(move |(pick, x)| match pick {
            0 => v,
            1 => -v,
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn kernel_matches_the_reference_loop(
            (conv, weights, input) in (3usize..=12, 3usize..=12, 1usize..=16, 1usize..=16)
                .prop_flat_map(|(h, w, cin, cout)| (
                    Just((h, w, cin, cout)),
                    prop::collection::vec(extreme_biased(64), 9 * cin * cout),
                    prop::collection::vec(extreme_biased(i16::MAX), h * w * cin),
                ))
                .prop_map(|(dims, weights, maps)| {
                    let input = i16s_to_bytes(&maps);
                    (Conv::from_parts(dims, &weights, input.clone()), weights, input)
                })
        ) {
            prop_assert_eq!(conv.compute(&input), reference(&conv, &weights, &input));
        }
    }

    #[test]
    fn output_dimensions() {
        let conv = Conv::new(8, 8, 2, 3);
        let out = conv.compute(conv.input());
        assert_eq!(out.len(), 6 * 6 * 3 * 4);
    }

    #[test]
    fn relu_clamps_negatives() {
        let conv = Conv::paper_scale();
        let out = crate::data::bytes_to_i32s(&conv.compute(conv.input()));
        assert!(out.iter().all(|&v| v >= 0));
        // And at least one nonzero activation.
        assert!(out.iter().any(|&v| v > 0));
    }

    #[test]
    fn different_inputs_different_outputs() {
        let conv = Conv::paper_scale();
        let mut other = conv.input().to_vec();
        other[0] ^= 0x7F;
        assert_ne!(conv.compute(conv.input()), conv.compute(&other));
    }
}
