//! Deterministic dataset generation.
//!
//! Every workload's inputs derive from an HMAC-DRBG seeded by the
//! workload name, so runs are reproducible across machines — a
//! prerequisite for asserting output equality across the four execution
//! modes.

use std::borrow::Cow;

use salus_crypto::drbg::HmacDrbg;

/// A deterministic generator for one workload's datasets.
#[derive(Debug, Clone)]
pub struct DataGen {
    drbg: HmacDrbg,
}

impl DataGen {
    /// Creates a generator personalised by `name`.
    pub fn new(name: &str) -> DataGen {
        DataGen {
            drbg: HmacDrbg::new(b"salus-accel-datagen-v1", name.as_bytes()),
        }
    }

    /// `n` pseudorandom bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        self.drbg.generate(n)
    }

    /// `n` pseudorandom `i16` values in `[-range, range]`.
    pub fn i16s(&mut self, n: usize, range: i16) -> Vec<i16> {
        let raw = self.drbg.generate(n * 2);
        raw.chunks_exact(2)
            .map(|c| {
                let v = i16::from_le_bytes([c[0], c[1]]);
                (v % (range + 1)).clamp(-range, range)
            })
            .collect()
    }

    /// `n` pseudorandom `u8` pixels.
    pub fn pixels(&mut self, n: usize) -> Vec<u8> {
        self.bytes(n)
    }

    /// A pseudorandom `u32` below `bound`.
    pub fn u32_below(&mut self, bound: u32) -> u32 {
        let raw = self.drbg.generate(4);
        u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]) % bound
    }
}

/// `input` fitted to exactly `len` bytes: a short input is zero-extended
/// and a long one truncated, so a kernel reading a fixed-size buffer is
/// total over whatever payload a client sends.
pub(crate) fn fit(input: &[u8], len: usize) -> Cow<'_, [u8]> {
    match input.get(..len) {
        Some(exact) => Cow::Borrowed(exact),
        None => {
            let mut padded = input.to_vec();
            padded.resize(len, 0);
            Cow::Owned(padded)
        }
    }
}

/// Little-endian i16 slice → bytes.
pub fn i16s_to_bytes(values: &[i16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Bytes → little-endian i16 slice (truncates a trailing odd byte).
pub fn bytes_to_i16s(bytes: &[u8]) -> Vec<i16> {
    bytes
        .chunks_exact(2)
        .map(|c| i16::from_le_bytes([c[0], c[1]]))
        .collect()
}

/// Bytes → little-endian i32 slice.
pub fn bytes_to_i32s(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mut a = DataGen::new("conv");
        let mut b = DataGen::new("conv");
        assert_eq!(a.bytes(100), b.bytes(100));
        assert_eq!(a.i16s(10, 100), b.i16s(10, 100));
    }

    #[test]
    fn different_names_diverge() {
        let mut a = DataGen::new("conv");
        let mut b = DataGen::new("affine");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn i16_range_respected() {
        let mut g = DataGen::new("t");
        for v in g.i16s(1000, 50) {
            assert!((-50..=50).contains(&v));
        }
    }

    #[test]
    fn fit_zero_extends_and_truncates() {
        assert_eq!(&*fit(&[1, 2, 3], 3), &[1, 2, 3]);
        assert_eq!(&*fit(&[1, 2, 3], 5), &[1, 2, 3, 0, 0]);
        assert_eq!(&*fit(&[1, 2, 3], 2), &[1, 2]);
        assert!(matches!(fit(&[1, 2, 3], 2), Cow::Borrowed(_)));
    }

    #[test]
    fn i16_i32_roundtrips() {
        let v = vec![-5i16, 0, 7, i16::MAX, i16::MIN];
        assert_eq!(bytes_to_i16s(&i16s_to_bytes(&v)), v);
        let v = [-5i32, 0, 7, i32::MAX];
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(bytes_to_i32s(&bytes), v);
    }
}
