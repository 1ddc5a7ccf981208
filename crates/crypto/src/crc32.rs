//! CRC-32 (IEEE 802.3, reflected): the integrity word of FPGA
//! configuration streams.
//!
//! The configuration engine folds every frame of a partition through
//! this CRC, so the whole 3.39 MB CL crosses it on every load, and the
//! compiler once more when it builds the stream. On x86-64 hosts with
//! PCLMULQDQ the bulk of a message folds 64 bytes per step in the
//! hardware kernel; the slicing-by-8 tables here take the rest, and all
//! of it on other hosts. Both give the same word.
//!
//! CRC-32 is linear over GF(2), which [`crc32_patch`] uses: changing a
//! few bytes of a long message changes its CRC by the CRC of the change
//! alone, moved past the bytes that follow it — so a manipulated stream
//! gets its new CRC without reading it again.

/// The reflected generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables: `CRC_TABLES[0]` is the byte-at-a-time table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups advance the register by eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// A running CRC-32 (IEEE 802.3, reflected), for streams that arrive
/// in pieces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// An empty CRC.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Absorbs `data`: whole 16-byte blocks on the PCLMULQDQ kernel when
    /// the host has it, everything else eight bytes per step.
    pub fn update(&mut self, data: &[u8]) {
        let rest = self.fold_blocks(data);
        self.0 = update_slicing(self.0, rest);
    }

    /// Folds the whole 16-byte blocks of `data` on the hardware kernel,
    /// if the host has it and `data` is long enough to be worth the
    /// kernel's final reduction, and returns what is left.
    fn fold_blocks<'d>(&mut self, data: &'d [u8]) -> &'d [u8] {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= 64 {
            let (blocks, tail) = data.split_at(data.len() - data.len() % 16);
            if crate::hw::crc32(&mut self.0, blocks) {
                return tail;
            }
        }
        data
    }

    /// The CRC of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE 802.3, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// The CRC of a message whose CRC was `crc` after `delta` is XORed
/// into it at a position followed by `trailing` more bytes. Equal-length
/// messages differ in CRC by the raw CRC (zero start, no final XOR) of
/// their difference; leading zeros leave a raw CRC at zero, and each
/// trailing zero byte multiplies it by `x⁸` modulo the polynomial. So
/// the patch costs the length of `delta` plus `log₂(trailing)`
/// multiplications, however long the message is.
pub fn crc32_patch(crc: u32, delta: &[u8], trailing: u64) -> u32 {
    let raw = update_slicing(0, delta);
    crc ^ mul_mod_p(raw, x_pow_8n(trailing))
}

/// Advances the CRC register over `data`, eight bytes per step.
pub(crate) fn update_slicing(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (chunks, tail) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in chunks {
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// `a·b mod P` on reflected polynomials: the top bit holds `x⁰`.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
        bit >>= 1;
    }
    product
}

/// `X_POW_2K[k]` is `x^(2^k) mod P`, by repeated squaring from `x¹`:
/// enough powers for every bit of a `u64` byte count times eight.
const X_POW_2K: [u32; 67] = {
    let mut table = [0u32; 67];
    table[0] = 1 << 30;
    let mut k = 1;
    while k < table.len() {
        table[k] = mul_mod_p(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// `x^(8n) mod P`: one multiplication per set bit of `8n`.
fn x_pow_8n(n: u64) -> u32 {
    let mut power = 1 << 31;
    for (k, x_pow) in X_POW_2K.iter().enumerate().skip(3) {
        if n >> (k - 3) & 1 != 0 {
            power = mul_mod_p(power, *x_pow);
        }
    }
    power
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    /// The bit-at-a-time CRC-32: the oracle for both kernels.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// The slicing-by-8 kernel alone.
    fn crc32_slicing(data: &[u8]) -> u32 {
        !update_slicing(!0, data)
    }

    #[test]
    fn crc_known_values() {
        crate::on_every_backend(|| {
            assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc32(b""), 0);
            assert_eq!(crc32(&[0u8; 4096]), crc32_bitwise(&[0u8; 4096]));
        });
    }

    #[test]
    fn crc_fold_matches_slicing_on_every_length_to_1024() {
        let data = HmacDrbg::new(b"crc fold vs slicing", b"lengths").generate(1024);
        for len in 0..=data.len() {
            let expected = crc32_slicing(&data[..len]);
            assert_eq!(
                crate::on_every_backend(|| crc32(&data[..len])),
                expected,
                "len {len}"
            );
        }
        assert_eq!(crc32_slicing(&data), crc32_bitwise(&data));
    }

    #[test]
    fn crc_fold_matches_slicing_at_every_split() {
        let data = HmacDrbg::new(b"crc fold vs slicing", b"splits").generate(700);
        for len in [63, 64, 65, 128, 200, 333, 700] {
            let expected = crc32_slicing(&data[..len]);
            for split in 0..=len {
                let split_crc = || {
                    let mut crc = Crc32::new();
                    crc.update(&data[..split]);
                    crc.update(&data[split..len]);
                    crc.finish()
                };
                assert_eq!(
                    crate::on_every_backend(split_crc),
                    expected,
                    "len {len} split at {split}"
                );
            }
        }
    }

    #[test]
    fn crc_fold_matches_slicing_on_a_paper_sized_stream() {
        // The size of a U200 partition's wire stream.
        let data = HmacDrbg::new(b"crc fold vs slicing", b"3.39 MB").generate(3_389_756);
        let expected = crc32_slicing(&data);
        assert_eq!(crate::on_every_backend(|| crc32(&data)), expected);
        assert_eq!(
            crate::on_every_backend(|| {
                let mut crc = Crc32::new();
                crc.update(&data[..4]);
                crc.update(&data[4..]);
                crc.finish()
            }),
            expected
        );
    }

    #[test]
    fn crc_hw_kernel_folds_whole_blocks_only() {
        #[cfg(target_arch = "x86_64")]
        {
            let data = HmacDrbg::new(b"crc fold", b"blocks").generate(16 * 40);
            for blocks in 0..=40 {
                let whole = &data[..16 * blocks];
                let mut reg = 0x1234_5678;
                if !crate::hw::crc32(&mut reg, whole) {
                    return; // no PCLMULQDQ on this host
                }
                assert_eq!(reg, update_slicing(0x1234_5678, whole), "{blocks} blocks");
            }
        }
    }

    #[test]
    fn crc_patch_equals_a_full_recompute() {
        let mut drbg = HmacDrbg::new(b"crc patch", b"spans");
        for round in 0..200 {
            let len = 1 + usize::from(u16::from_le_bytes(drbg.generate_array())) % 5000;
            let message = drbg.generate(len);
            let at = usize::from(u16::from_le_bytes(drbg.generate_array())) % len;
            let span = 1 + usize::from(drbg.generate_array::<1>()[0]) % (len - at);
            let replacement = drbg.generate(span);
            let mut patched = message.clone();
            let mut delta = replacement.clone();
            for (d, old) in delta.iter_mut().zip(&message[at..at + span]) {
                *d ^= old;
            }
            patched[at..at + span].copy_from_slice(&replacement);
            let trailing = (len - at - span) as u64;
            assert_eq!(
                crc32_patch(crc32(&message), &delta, trailing),
                crc32(&patched),
                "round {round}: len {len}, span {at}..{}",
                at + span
            );
        }
    }

    #[test]
    fn crc_shift_powers_are_consistent() {
        // x^(8·(a+b)) = x^(8a)·x^(8b), and x^0 is the unit.
        assert_eq!(x_pow_8n(0), 1 << 31);
        for (a, b) in [(1u64, 1u64), (3, 5), (1000, 24), (3_389_756, 17)] {
            assert_eq!(x_pow_8n(a + b), mul_mod_p(x_pow_8n(a), x_pow_8n(b)));
        }
    }
}
