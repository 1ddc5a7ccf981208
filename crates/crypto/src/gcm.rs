//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! The SM enclave encrypts the manipulated CL bitstream with
//! AES-GCM-256 under `Key_device` — the paper states its enclave-side
//! routine "aligns with the one used in Vivado" (XAPP1267). The FPGA's
//! internal configuration decryptor in `salus-fpga` opens the same
//! format.
//!
//! Ciphertext layout produced by [`seal`](AesGcm256::seal):
//! `ciphertext || 16-byte tag`.

use crate::aes::{Aes128, Aes256, Block, CounterKind, BLOCK_SIZE};
use crate::CryptoError;

/// Length of the GCM authentication tag in bytes.
pub const TAG_SIZE: usize = 16;

/// Length of the standard GCM nonce in bytes.
pub const NONCE_SIZE: usize = 12;

/// Reduction constants for shifting a nibble out the bottom:
/// `R4[i] = mulx⁴(i)` — the fold contribution of low bits `i` after
/// four single-bit shifts, so `z·x⁴ = (z >> 4) ^ R4[z & 0xF]`.
const R4: [u128; 16] = {
    const R: u128 = 0xe1000000_00000000_00000000_00000000;
    let mut table = [0u128; 16];
    let mut i = 0usize;
    while i < 16 {
        let mut v = i as u128;
        let mut step = 0;
        while step < 4 {
            let lsb = v & 1;
            v >>= 1;
            if lsb != 0 {
                v ^= R;
            }
            step += 1;
        }
        table[i] = v;
        i += 1;
    }
    table
};

/// Byte-granularity reduction constants: `R8[i] = mulx⁸(i)`, so
/// `z·x⁸ = (z >> 8) ^ R8[z & 0xFF]`.
const R8: [u128; 256] = {
    const R: u128 = 0xe1000000_00000000_00000000_00000000;
    let mut table = [0u128; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut v = i as u128;
        let mut step = 0;
        while step < 8 {
            let lsb = v & 1;
            v >>= 1;
            if lsb != 0 {
                v ^= R;
            }
            step += 1;
        }
        table[i] = v;
        i += 1;
    }
    table
};

/// Per-key GHASH state, built once per GCM key and reused across
/// seal/open calls, so its set-up is off the per-message path.
///
/// On x86-64 with PCLMULQDQ, GHASH runs in `crate::hw` on `clmul_keys`.
/// Everywhere else (and as the tests' oracle) it runs Shoup's 8-bit
/// table method (`m8`, 4 KiB): 256 precomputed multiples of `h`, one
/// table lookup per message *byte*. The tests cross-check the table
/// against the original 4-bit method and a bit-by-bit multiply.
/// Data-independent lookups by secret bytes are out of scope for the
/// simulation's threat model, which excludes side channels per §3.1.
#[derive(Debug, Clone)]
struct GhashKey {
    /// m8[b] = (b as 8-bit poly) * h in the bit-reflected field (index
    /// bit 7 ↔ coefficient x^0).
    m8: [u128; 256],
    /// `h, h², …, h¹⁶`, each times `x⁻¹`, for the carry-less kernels:
    /// the 4-block kernel uses the first four, the 16-block one all.
    #[cfg(target_arch = "x86_64")]
    clmul_keys: [u128; 16],
}

impl GhashKey {
    fn new(h: &Block) -> GhashKey {
        let h = u128::from_be_bytes(*h);
        let m4 = nibble_table(h);
        // One byte is two nibble steps: absorb the low nibble, shift it
        // up four coefficient positions, absorb the high nibble.
        let mut m8 = [0u128; 256];
        for (b, entry) in m8.iter_mut().enumerate() {
            let lo = m4[b & 0xF];
            *entry = (lo >> 4) ^ R4[(lo & 0xF) as usize] ^ m4[b >> 4];
        }
        GhashKey {
            #[cfg(target_arch = "x86_64")]
            clmul_keys: clmul_keys(h, &m8),
            m8,
        }
    }

    /// Multiplies `x` by `h` using the 8-bit tables (the portable path).
    fn mul_h(&self, x: u128) -> u128 {
        mul_by_table(&self.m8, x)
    }
}

/// Multiplies `x` by the `h` whose byte table is `m8`.
fn mul_by_table(m8: &[u128; 256], x: u128) -> u128 {
    let mut z = 0u128;
    // Process bytes from least significant to most significant.
    for i in 0..16 {
        let byte = ((x >> (8 * i)) & 0xFF) as usize;
        if i > 0 {
            // Shift the accumulator right by 8 with reduction.
            z = (z >> 8) ^ R8[(z & 0xFF) as usize];
        }
        z ^= m8[byte];
    }
    z
}

/// Shoup's 4-bit table: `m4[i] = (i as 4-bit poly) * h` in the
/// bit-reflected field (index bit 3 ↔ coefficient x^0).
fn nibble_table(h: u128) -> [u128; 16] {
    let mut m4 = [0u128; 16];
    // In the reflected field, multiplying by x is a right shift, so the
    // single-bit entries are built by halving down from m4[8] = h.
    m4[8] = h;
    let mut i = 4;
    while i >= 1 {
        m4[i] = mulx(m4[i * 2]);
        i /= 2;
    }
    // Fill remaining entries by XOR of components.
    for i in [3usize, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15] {
        let high_bit = 1 << (usize::BITS - 1 - i.leading_zeros());
        m4[i] = m4[high_bit] ^ m4[i ^ high_bit];
    }
    m4
}

/// Multiply by x in the bit-reflected field (right shift + fold).
fn mulx(v: u128) -> u128 {
    const R: u128 = 0xe1000000_00000000_00000000_00000000;
    let lsb = v & 1;
    (v >> 1) ^ if lsb != 0 { R } else { 0 }
}

/// `h, h², …, h¹⁶` (powers by the byte table `m8`), each multiplied
/// by `x⁻¹` — in the bit-reflected field a left shift, folding in
/// `x⁻¹ = x¹²⁷ + x⁶ + x + 1` when the `x⁰` coefficient shifts out.
#[cfg(target_arch = "x86_64")]
fn clmul_keys(h: u128, m8: &[u128; 256]) -> [u128; 16] {
    const X_INV: u128 = 0xc2000000_00000000_00000000_00000001;
    let mut power = h;
    core::array::from_fn(|_| {
        let key = (power << 1) ^ if power >> 127 != 0 { X_INV } else { 0 };
        power = mul_by_table(m8, power);
        key
    })
}

/// Generic GF(2¹²⁸) multiply in the bit-reflected GCM field, one bit
/// at a time: the tests' bit-by-bit reference.
#[cfg(test)]
fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1000000_00000000_00000000_00000000;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 != 0 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb != 0 {
            v ^= R;
        }
    }
    z
}

/// A GHASH accumulation in progress, borrowing the per-key tables.
#[derive(Debug, Clone)]
struct Ghash<'k> {
    key: &'k GhashKey,
    acc: u128,
}

impl<'k> Ghash<'k> {
    fn new(key: &'k GhashKey) -> Ghash<'k> {
        Ghash { key, acc: 0 }
    }

    /// Absorbs `data` zero-padded to a block multiple. Aligned blocks
    /// feed the accumulator in place; only a ragged tail is copied.
    fn update_padded(&mut self, data: &[u8]) {
        let (blocks, rem) = data.split_at(data.len() - data.len() % BLOCK_SIZE);
        self.update_blocks(blocks);
        if !rem.is_empty() {
            let mut b = [0u8; BLOCK_SIZE];
            b[..rem.len()].copy_from_slice(rem);
            self.update_blocks(&b);
        }
    }

    /// Folds whole 16-byte blocks: with the carry-less kernel when the
    /// CPU has one, else one byte-table multiply per block.
    fn update_blocks(&mut self, blocks: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if crate::hw::ghash(&self.key.clmul_keys, &mut self.acc, blocks) {
            return;
        }
        for block in blocks.chunks_exact(BLOCK_SIZE) {
            let block: &Block = block.try_into().expect("exact chunk");
            self.acc = self.key.mul_h(self.acc ^ u128::from_be_bytes(*block));
        }
    }

    fn finalize(mut self, aad_len: usize, ct_len: usize) -> Block {
        let mut lengths = [0u8; BLOCK_SIZE];
        lengths[..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
        lengths[8..].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
        self.update_padded(&lengths);
        self.acc.to_be_bytes()
    }
}

/// GHASH of `aad` then `ciphertext` (with the lengths block) under hash
/// key `h`, with the key's tables built once.
#[cfg(test)]
pub(crate) fn ghasher(h: &Block) -> impl Fn(&[u8], &[u8]) -> Block {
    let key = GhashKey::new(h);
    move |aad, ciphertext| {
        let mut g = Ghash::new(&key);
        g.update_padded(aad);
        g.update_padded(ciphertext);
        g.finalize(aad.len(), ciphertext.len())
    }
}

macro_rules! gcm_variant {
    ($name:ident, $aes:ident, $key_len:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone)]
        pub struct $name {
            cipher: $aes,
            ghash_key: GhashKey,
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name)).finish_non_exhaustive()
            }
        }

        impl $name {
            /// Creates a GCM context from `key`. The GHASH multiple
            /// tables are precomputed here, once per key.
            pub fn new(key: &[u8; $key_len]) -> $name {
                let cipher = $aes::new(key);
                let mut h = [0u8; BLOCK_SIZE];
                cipher.encrypt_block(&mut h);
                $name {
                    cipher,
                    ghash_key: GhashKey::new(&h),
                }
            }

            fn j0(&self, nonce: &[u8]) -> Block {
                if nonce.len() == NONCE_SIZE {
                    let mut j0 = [0u8; BLOCK_SIZE];
                    j0[..NONCE_SIZE].copy_from_slice(nonce);
                    j0[15] = 1;
                    j0
                } else {
                    let mut g = Ghash::new(&self.ghash_key);
                    g.update_padded(nonce);
                    g.finalize(0, nonce.len())
                }
            }

            /// GCTR over `data`: keystream blocks are `E(j0 + i)` with
            /// the 32-bit big-endian increment on the last word (inc32),
            /// starting at `i = 1`. It runs on the calling thread: on the
            /// wide kernel, two scoped workers lost to one at the paper
            /// CL's 3.39 MB in each of three `bench_crypto` crossover runs.
            fn ctr_apply(&self, j0: &Block, data: &mut [u8]) {
                let kind = CounterKind::Inc32;
                let first = kind.advance(u128::from_be_bytes(*j0), 1);
                let (blocks, tail) = data.split_at_mut(data.len() - data.len() % BLOCK_SIZE);
                self.cipher.xor_keystream(blocks, first.to_be_bytes(), kind);
                if !tail.is_empty() {
                    let whole = (blocks.len() / BLOCK_SIZE) as u128;
                    let mut ks = kind.advance(first, whole).to_be_bytes();
                    self.cipher.encrypt_block(&mut ks);
                    for (b, k) in tail.iter_mut().zip(ks.iter()) {
                        *b ^= k;
                    }
                }
            }

            fn tag(&self, j0: &Block, aad: &[u8], ciphertext: &[u8]) -> Block {
                let mut g = Ghash::new(&self.ghash_key);
                g.update_padded(aad);
                g.update_padded(ciphertext);
                let mut tag = g.finalize(aad.len(), ciphertext.len());
                let mut e_j0 = *j0;
                self.cipher.encrypt_block(&mut e_j0);
                for (t, e) in tag.iter_mut().zip(e_j0.iter()) {
                    *t ^= e;
                }
                tag
            }

            /// Encrypts `plaintext` with associated data `aad`, returning
            /// `ciphertext || tag`.
            pub fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
                let mut out = Vec::with_capacity(plaintext.len() + TAG_SIZE);
                out.extend_from_slice(plaintext);
                let tag = self.seal_in_place_detached(nonce, aad, &mut out);
                out.extend_from_slice(&tag);
                out
            }

            /// Encrypts `buffer` in place with associated data `aad` and
            /// returns the tag: [`seal`](Self::seal) without the copy.
            pub fn seal_in_place_detached(
                &self,
                nonce: &[u8],
                aad: &[u8],
                buffer: &mut [u8],
            ) -> [u8; TAG_SIZE] {
                let j0 = self.j0(nonce);
                self.ctr_apply(&j0, buffer);
                self.tag(&j0, aad, buffer)
            }

            /// Decrypts and verifies `sealed` (`ciphertext || tag`).
            ///
            /// # Errors
            ///
            /// Returns [`CryptoError::AuthenticationFailed`] if the tag does
            /// not verify, and [`CryptoError::InvalidInput`] if `sealed` is
            /// shorter than a tag.
            pub fn open(
                &self,
                nonce: &[u8],
                aad: &[u8],
                sealed: &[u8],
            ) -> Result<Vec<u8>, CryptoError> {
                if sealed.len() < TAG_SIZE {
                    return Err(CryptoError::InvalidInput("sealed text shorter than tag"));
                }
                let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_SIZE);
                let mut out = ciphertext.to_vec();
                self.open_in_place_detached(nonce, aad, &mut out, tag)?;
                Ok(out)
            }

            /// Verifies `tag` over `aad` and the ciphertext in `buffer`,
            /// then decrypts `buffer` in place: [`open`](Self::open)
            /// without the copy. The tag is checked first; on failure
            /// `buffer` is left as it was.
            ///
            /// # Errors
            ///
            /// Returns [`CryptoError::AuthenticationFailed`] if the tag does
            /// not verify.
            pub fn open_in_place_detached(
                &self,
                nonce: &[u8],
                aad: &[u8],
                buffer: &mut [u8],
                tag: &[u8],
            ) -> Result<(), CryptoError> {
                let j0 = self.j0(nonce);
                let expected = self.tag(&j0, aad, buffer);
                if !crate::ct::eq(&expected, tag) {
                    return Err(CryptoError::AuthenticationFailed);
                }
                self.ctr_apply(&j0, buffer);
                Ok(())
            }
        }
    };
}

gcm_variant!(AesGcm128, Aes128, 16, "AES-128-GCM.");
gcm_variant!(
    AesGcm256,
    Aes256,
    32,
    "AES-256-GCM, the bitstream-encryption cipher (`Key_device`)."
);

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // NIST GCM spec test case 1: empty everything, AES-128.
    #[test]
    fn nist_case1_empty() {
        let key = [0u8; 16];
        let nonce = [0u8; 12];
        let g = AesGcm128::new(&key);
        let sealed = crate::on_every_backend(|| g.seal(&nonce, b"", b""));
        assert_eq!(sealed, unhex("58e2fccefa7e3061367f1d57a4e7455a"));
        let opened = crate::on_every_backend(|| g.open(&nonce, b"", &sealed));
        assert_eq!(opened.unwrap(), b"");
    }

    // NIST GCM spec test case 2: one zero block, AES-128.
    #[test]
    fn nist_case2_one_block() {
        let key = [0u8; 16];
        let nonce = [0u8; 12];
        let g = AesGcm128::new(&key);
        let sealed = crate::on_every_backend(|| g.seal(&nonce, b"", &[0u8; 16]));
        assert_eq!(
            sealed,
            unhex("0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf")
        );
    }

    // NIST GCM spec test case 4: AAD + partial final block, AES-128.
    #[test]
    fn nist_case4_aad() {
        let key = unhex("feffe9928665731c6d6a8f9467308308");
        let nonce = unhex("cafebabefacedbaddecaf888");
        let plaintext = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let g = AesGcm128::new(key[..16].try_into().unwrap());
        let sealed = crate::on_every_backend(|| g.seal(&nonce, &aad, &plaintext));
        let expected_ct = unhex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        );
        let expected_tag = unhex("5bc94fbc3221a5db94fae95ae7121a47");
        assert_eq!(&sealed[..expected_ct.len()], &expected_ct[..]);
        assert_eq!(&sealed[expected_ct.len()..], &expected_tag[..]);
        let opened = crate::on_every_backend(|| g.open(&nonce, &aad, &sealed));
        assert_eq!(opened.unwrap(), plaintext);
    }

    // NIST test case 16 (AES-256 with AAD).
    #[test]
    fn nist_case16_aes256() {
        let key = unhex("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
        let nonce = unhex("cafebabefacedbaddecaf888");
        let plaintext = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let g = AesGcm256::new(key[..32].try_into().unwrap());
        let sealed = crate::on_every_backend(|| g.seal(&nonce, &aad, &plaintext));
        let expected_ct = unhex(
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        );
        let expected_tag = unhex("76fc6ece0f4e1768cddf8853bb2d551b");
        assert_eq!(&sealed[..expected_ct.len()], &expected_ct[..]);
        assert_eq!(&sealed[expected_ct.len()..], &expected_tag[..]);
    }

    /// McGrew–Viega test cases (also in the NIST CAVP set): `(case,
    /// key, IV, AAD, plaintext, ciphertext, tag)`. They add full
    /// four-block ciphertexts, a short IV and a 60-byte IV (GHASH-derived
    /// J0) to the NIST cases above.
    const MCGREW_VIEGA: [(u8, &str, &str, &str, &str, &str, &str); 5] = {
        const K128: &str = "feffe9928665731c6d6a8f9467308308";
        const K256: &str = "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
        const IV60: &str = "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728\
                            c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b";
        const P64: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                           1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
        const P60: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                           1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39";
        const AAD: &str = "feedfacedeadbeeffeedfacedeadbeefabaddad2";
        [
            (
                3,
                K128,
                "cafebabefacedbaddecaf888",
                "",
                P64,
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
                "4d5c2af327cd64a62cf35abd2ba6fab4",
            ),
            (
                5,
                K128,
                "cafebabefacedbad",
                AAD,
                P60,
                "61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f83766e5f97b6c7423\
                 73806900e49f24b22b097544d4896b424989b5e1ebac0f07c23f4598",
                "3612d2e79e3b0785561be14aaca2fccb",
            ),
            (
                6,
                K128,
                IV60,
                AAD,
                P60,
                "8ce24998625615b603a033aca13fb894be9112a5c3a211a8ba262a3cca7e2ca7\
                 01e4a9a4fba43c90ccdcb281d48c7c6fd62875d2aca417034c34aee5",
                "619cc5aefffe0bfa462af43c1699d050",
            ),
            (
                15,
                K256,
                "cafebabefacedbaddecaf888",
                "",
                P64,
                "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                 8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
                "b094dac5d93471bdec1a502270e3cc6c",
            ),
            (
                18,
                K256,
                IV60,
                AAD,
                P60,
                "5a8def2f0c9e53f1f75d7853659e2a20eeb2b22aafde6419a058ab4f6f746bf4\
                 0fc0c3b780f244452da3ebf1c5d82cdea2418997200ef82e44ae7e3f",
                "a44a8266ee1c8eb0c8b5d4cf5ae9f19a",
            ),
        ]
    };

    #[test]
    fn mcgrew_viega_vectors_on_every_backend() {
        println!("backends: {:?}", crate::backends_run());
        for (case, key, iv, aad, plain, ct, tag) in MCGREW_VIEGA {
            let (key, iv, aad, plain) = (unhex(key), unhex(iv), unhex(aad), unhex(plain));
            let expected = [unhex(ct), unhex(tag)].concat();
            let (sealed, opened) = crate::on_every_backend(|| match key.len() {
                16 => {
                    let g = AesGcm128::new(key[..].try_into().unwrap());
                    let sealed = g.seal(&iv, &aad, &plain);
                    let opened = g.open(&iv, &aad, &sealed);
                    (sealed, opened)
                }
                _ => {
                    let g = AesGcm256::new(key[..].try_into().unwrap());
                    let sealed = g.seal(&iv, &aad, &plain);
                    let opened = g.open(&iv, &aad, &sealed);
                    (sealed, opened)
                }
            });
            assert_eq!(sealed, expected, "case {case}");
            assert_eq!(opened.unwrap(), plain, "case {case}");
        }
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let g = AesGcm256::new(&[1u8; 32]);
        let nonce = [2u8; 12];
        let mut sealed = g.seal(&nonce, b"aad", b"secret bitstream");
        sealed[3] ^= 0x01;
        assert_eq!(
            g.open(&nonce, b"aad", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampered_aad_rejected() {
        let g = AesGcm256::new(&[1u8; 32]);
        let nonce = [2u8; 12];
        let sealed = g.seal(&nonce, b"dna-A", b"payload");
        assert_eq!(
            g.open(&nonce, b"dna-B", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn short_input_rejected() {
        let g = AesGcm128::new(&[0u8; 16]);
        assert!(matches!(
            g.open(&[0u8; 12], b"", &[0u8; 8]),
            Err(CryptoError::InvalidInput(_))
        ));
    }

    /// The original Shoup 4-bit multiply, one nibble per step: the
    /// auditable reference the byte table is checked against.
    fn mul_h_reference(h: u128, x: u128) -> u128 {
        let m4 = nibble_table(h);
        let mut z = 0u128;
        // Process nibbles from least significant to most significant.
        for i in 0..32 {
            let nibble = ((x >> (4 * i)) & 0xF) as usize;
            if i > 0 {
                // Shift the accumulator right by 4 with reduction.
                z = (z >> 4) ^ R4[(z & 0xF) as usize];
            }
            z ^= m4[nibble];
        }
        z
    }

    #[test]
    fn table_ghash_matches_bitwise_reference() {
        // The bit-by-bit GF(2^128) multiply cross-checks both Shoup-table
        // implementations across many keys and inputs.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state as u128) << 64) | state.rotate_left(17) as u128
        };
        for _ in 0..200 {
            let h = next();
            let x = next();
            let key = GhashKey::new(&h.to_be_bytes());
            let expected = gf_mul(x, h);
            assert_eq!(key.mul_h(x), expected, "8-bit table path diverged");
            assert_eq!(
                mul_h_reference(h, x),
                expected,
                "4-bit reference path diverged"
            );
        }
    }

    #[test]
    fn byte_table_matches_nibble_reference_exhaustive_bytes() {
        // Every single-byte input, a few keys: the 8-bit table must agree
        // with the 4-bit reference entry-by-entry.
        for h in [
            1u128,
            0xfe,
            u128::MAX,
            0x0123_4567_89ab_cdef_0011_2233_4455_6677,
        ] {
            let key = GhashKey::new(&h.to_be_bytes());
            for b in 0u128..256 {
                for shift in [0u32, 56, 120] {
                    let x = b << shift;
                    assert_eq!(key.mul_h(x), mul_h_reference(h, x), "x={x:032x}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_keys_are_powers_of_h_over_x() {
        let h = 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2eu128;
        let key = GhashKey::new(&h.to_be_bytes());
        let mut power = h;
        for k in key.clmul_keys {
            assert_eq!(mulx(k), power, "x · (hᵏ · x⁻¹) = hᵏ");
            power = gf_mul(power, h);
        }
    }

    #[test]
    fn large_seal_open_roundtrip() {
        let g = AesGcm256::new(&[0x21u8; 32]);
        let nonce = [3u8; 12];
        // Long and ragged: many wide GCTR and GHASH iterations, then the
        // narrow kernels' tails, all held to the portable code.
        let plain: Vec<u8> = (0..786_437).map(|i| (i * 7 % 256) as u8).collect();
        let sealed = crate::on_every_backend(|| g.seal(&nonce, b"dna", &plain));
        assert_eq!(g.open(&nonce, b"dna", &sealed).unwrap(), plain);
    }

    #[test]
    fn non_96bit_nonce_supported() {
        let g = AesGcm128::new(&[5u8; 16]);
        let nonce = [9u8; 20];
        let sealed = g.seal(&nonce, b"", b"hello");
        assert_eq!(g.open(&nonce, b"", &sealed).unwrap(), b"hello");
        assert!(g.open(&[9u8; 19], b"", &sealed).is_err());
    }
}
