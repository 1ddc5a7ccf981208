//! FaceDetect: Viola-Jones face detection (Rosetta; Table 4 row 4).
//!
//! A faithful miniature of the Viola-Jones pipeline: integral image,
//! sliding 16×16 windows, and a cascade of Haar-like rectangle features
//! with trained-style thresholds. Only the input image is encrypted in
//! TEE modes (Table 4).

use salus_bitstream::netlist::Module;

use crate::data::{fit, DataGen};
use crate::profile::AppProfile;
use crate::workload::Workload;

/// Image side length (paper: 320×240; sim scale 64×64).
const SIZE: usize = 64;

/// Detection window side.
const WINDOW: usize = 16;

/// One Haar-like feature: bright region minus dark region, compared
/// against a threshold (coordinates relative to the window).
#[derive(Debug, Clone, Copy)]
struct HaarFeature {
    bright: (usize, usize, usize, usize), // x, y, w, h
    dark: (usize, usize, usize, usize),
    threshold: i64,
}

/// A fixed two-stage cascade (eyes-darker-than-cheeks style features).
const CASCADE: [HaarFeature; 3] = [
    HaarFeature {
        bright: (2, 8, 12, 4),
        dark: (2, 2, 12, 4),
        threshold: 200,
    },
    HaarFeature {
        bright: (2, 10, 5, 4),
        dark: (9, 10, 5, 4),
        threshold: -6000,
    },
    HaarFeature {
        bright: (6, 4, 4, 8),
        dark: (1, 4, 4, 8),
        threshold: -5000,
    },
];

/// The FaceDetect workload.
#[derive(Debug, Clone)]
pub struct FaceDetect {
    input: Vec<u8>,
}

impl FaceDetect {
    /// Builds an instance over a noisy image with `faces` bright/dark
    /// patterns planted at deterministic positions.
    pub fn new(faces: usize) -> FaceDetect {
        let mut gen = DataGen::new("facedetect");
        let mut image = gen.pixels(SIZE * SIZE);
        // Plant face-like patterns: dark band (eyes) above bright band.
        for i in 0..faces {
            let x0 = (i * 23) % (SIZE - WINDOW);
            let y0 = (i * 17) % (SIZE - WINDOW);
            for dy in 0..WINDOW {
                for dx in 0..WINDOW {
                    let value = if (2..6).contains(&dy) { 20 } else { 220 };
                    image[(y0 + dy) * SIZE + (x0 + dx)] = value;
                }
            }
        }
        FaceDetect { input: image }
    }

    /// The simulation-scale instance with 3 planted faces.
    pub fn paper_scale() -> FaceDetect {
        FaceDetect::new(3)
    }

    fn integral(image: &[u8]) -> Vec<i64> {
        let mut ii = vec![0i64; (SIZE + 1) * (SIZE + 1)];
        for y in 0..SIZE {
            let mut row = 0i64;
            for x in 0..SIZE {
                row += image[y * SIZE + x] as i64;
                ii[(y + 1) * (SIZE + 1) + (x + 1)] = ii[y * (SIZE + 1) + (x + 1)] + row;
            }
        }
        ii
    }

    fn rect_sum(ii: &[i64], x: usize, y: usize, w: usize, h: usize) -> i64 {
        let s = SIZE + 1;
        ii[(y + h) * s + (x + w)] + ii[y * s + x] - ii[y * s + (x + w)] - ii[(y + h) * s + x]
    }
}

impl Workload for FaceDetect {
    fn name(&self) -> &'static str {
        "FaceDetect"
    }

    fn input(&self) -> &[u8] {
        &self.input
    }

    /// Output: one byte per window position (row-major over valid
    /// positions), 1 = face detected.
    fn compute(&self, input: &[u8]) -> Vec<u8> {
        let ii = Self::integral(&fit(input, SIZE * SIZE));
        let positions = SIZE - WINDOW + 1;
        let mut out = vec![0u8; positions * positions];
        for y in 0..positions {
            for x in 0..positions {
                let mut pass = true;
                for f in &CASCADE {
                    let (bx, by, bw, bh) = f.bright;
                    let (dx, dy, dw, dh) = f.dark;
                    let bright = Self::rect_sum(&ii, x + bx, y + by, bw, bh);
                    let dark = Self::rect_sum(&ii, x + dx, y + dy, dw, dh);
                    if bright - dark <= f.threshold {
                        pass = false;
                        break;
                    }
                }
                if pass {
                    out[y * positions + x] = 1;
                }
            }
        }
        out
    }

    fn accelerator_module(&self) -> Module {
        // Table 5: FaceDetect = 31 956 LUT, 36 201 Register, 62 BRAM.
        Module::new("cl/accel", "accel:facedetect").with_resources(31_956, 36_201, 62)
    }

    fn profile(&self) -> AppProfile {
        crate::profile::facedetect()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn encrypt_output(&self) -> bool {
        false // only the input image (Table 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_faces_are_detected() {
        let fd = FaceDetect::paper_scale();
        let out = fd.compute(fd.input());
        let detections = out.iter().filter(|&&d| d == 1).count();
        assert!(detections >= 3, "only {detections} detections");
    }

    #[test]
    fn uniform_image_has_no_detections() {
        let fd = FaceDetect::paper_scale();
        let flat = vec![128u8; SIZE * SIZE];
        let out = fd.compute(&flat);
        assert!(out.iter().all(|&d| d == 0));
    }

    #[test]
    fn integral_image_rect_sums_are_exact() {
        let image: Vec<u8> = (0..SIZE * SIZE).map(|i| (i % 251) as u8).collect();
        let ii = FaceDetect::integral(&image);
        // Brute-force check a few rectangles.
        for &(x, y, w, h) in &[(0, 0, 5, 5), (10, 20, 16, 8), (40, 40, 24, 24)] {
            let mut expected = 0i64;
            for yy in y..y + h {
                for xx in x..x + w {
                    expected += image[yy * SIZE + xx] as i64;
                }
            }
            assert_eq!(FaceDetect::rect_sum(&ii, x, y, w, h), expected);
        }
    }
}
