//! AES block cipher (FIPS 197), supporting 128- and 256-bit keys.
//!
//! Two encrypt paths share one key schedule:
//!
//! * **Hardware path**: on x86-64 CPUs with AES-NI, `encrypt_block` and
//!   the CTR/GCTR keystream loop run `aesenc`, detected per call; with
//!   VAES and AVX-512 the keystream loop runs four blocks per
//!   instruction.
//! * **Portable path** (`encrypt_block` everywhere else): a 32-bit
//!   T-table round function. A single 1 KiB table `TE0` holds
//!   `MixColumn(SubByte(x))` for the first row; the other three row
//!   tables are byte rotations of it and are derived with
//!   `rotate_right`, keeping the cache footprint small.
//!
//! Only the forward cipher exists: CTR, GCM and CMAC never run the
//! inverse. The tests keep the original byte-oriented
//! SubBytes/ShiftRows/MixColumns code as an oracle for both paths.
//!
//! ```
//! use salus_crypto::aes::Aes128;
//!
//! // FIPS 197 Appendix B example.
//! let key = [0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
//!            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c];
//! let cipher = Aes128::new(&key);
//! let mut block = [0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
//!                  0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34];
//! cipher.encrypt_block(&mut block);
//! assert_eq!(block[0], 0x39);
//! ```

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// A 16-byte AES block.
pub type Block = [u8; BLOCK_SIZE];

/// How a keystream steps from one counter block to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CounterKind {
    /// The whole block is one big-endian 128-bit integer, plus one per
    /// block, wrapping (CTR mode).
    Be128,
    /// Only the last four bytes count, as a big-endian 32-bit integer
    /// wrapping within them (GCM's `inc32`).
    Inc32,
}

impl CounterKind {
    /// The counter block `n` steps after `counter`, both as big-endian
    /// integers.
    pub(crate) fn advance(self, counter: u128, n: u128) -> u128 {
        match self {
            CounterKind::Be128 => counter.wrapping_add(n),
            CounterKind::Inc32 => {
                let low = (counter as u32).wrapping_add(n as u32);
                counter & !u128::from(u32::MAX) | u128::from(low)
            }
        }
    }
}

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 15] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
];

#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Combined SubBytes+MixColumns table for state row 0:
/// `TE0[x] = [2·S(x), S(x), S(x), 3·S(x)]` packed big-endian. The row
/// 1..3 tables are `TE0[x].rotate_right(8·r)`, computed inline — one
/// 1 KiB table total instead of four.
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
};

/// Loads a block into column words and applies the first round key.
#[inline(always)]
fn load_state(block: &Block, rk0: &[u32; 4]) -> [u32; 4] {
    core::array::from_fn(|c| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ]) ^ rk0[c]
    })
}

/// One full T-table round (SubBytes + ShiftRows + MixColumns + key).
#[inline(always)]
fn tt_round(s: [u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    core::array::from_fn(|c| {
        TE0[(s[c] >> 24) as usize]
            ^ TE0[((s[(c + 1) & 3] >> 16) & 0xff) as usize].rotate_right(8)
            ^ TE0[((s[(c + 2) & 3] >> 8) & 0xff) as usize].rotate_right(16)
            ^ TE0[(s[(c + 3) & 3] & 0xff) as usize].rotate_right(24)
            ^ rk[c]
    })
}

/// Final round: SubBytes + ShiftRows only (no MixColumns).
#[inline(always)]
fn final_round(s: [u32; 4], rk: &[u32; 4], block: &mut Block) {
    for c in 0..4 {
        let w = (u32::from(SBOX[(s[c] >> 24) as usize]) << 24)
            | (u32::from(SBOX[((s[(c + 1) & 3] >> 16) & 0xff) as usize]) << 16)
            | (u32::from(SBOX[((s[(c + 2) & 3] >> 8) & 0xff) as usize]) << 8)
            | u32::from(SBOX[(s[(c + 3) & 3] & 0xff) as usize]);
        block[4 * c..4 * c + 4].copy_from_slice(&(w ^ rk[c]).to_be_bytes());
    }
}

/// AES-256 has the longest schedule: 14 rounds, 15 round keys.
pub(crate) const MAX_ROUND_KEYS: usize = 15;

/// Expanded AES key schedule for an arbitrary supported key size, held
/// inline so a cipher clones without touching the heap.
#[derive(Clone)]
struct KeySchedule {
    /// Round keys `0..len`; the rest stay zero.
    round_keys: [Block; MAX_ROUND_KEYS],
    /// The same round keys as big-endian column words, for the T-table
    /// path (word `c` covers state bytes `4c..4c+4`).
    round_keys_w: [[u32; 4]; MAX_ROUND_KEYS],
    /// Round keys in use: 11, 13 or 15.
    len: usize,
}

impl KeySchedule {
    fn new(key: &[u8]) -> KeySchedule {
        let nk = key.len() / 4; // words in key: 4 (AES-128) or 8 (AES-256)
        debug_assert!(nk == 4 || nk == 6 || nk == 8);
        let nr = nk + 6; // rounds: 10 / 12 / 14
        let total_words = 4 * (nr + 1);

        let mut w = [[0u8; 4]; 4 * MAX_ROUND_KEYS];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            word.copy_from_slice(bytes);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
            }
            let prev = w[i - nk];
            w[i] = core::array::from_fn(|b| prev[b] ^ temp[b]);
        }

        let round_keys: [Block; MAX_ROUND_KEYS] =
            core::array::from_fn(|r| core::array::from_fn(|i| w[4 * r + i / 4][i % 4]));
        let round_keys_w = round_keys.map(|rk| {
            core::array::from_fn(|c| {
                u32::from_be_bytes([rk[4 * c], rk[4 * c + 1], rk[4 * c + 2], rk[4 * c + 3]])
            })
        });
        KeySchedule {
            round_keys,
            round_keys_w,
            len: nr + 1,
        }
    }

    /// The round keys in use.
    fn round_keys(&self) -> &[Block] {
        &self.round_keys[..self.len]
    }

    fn encrypt_block(&self, block: &mut Block) {
        #[cfg(target_arch = "x86_64")]
        if crate::hw::encrypt_block(self.round_keys(), block) {
            return;
        }
        self.encrypt_block_portable(block);
    }

    /// XORs the keystream `E(c₀), E(c₁), …` into each whole block of
    /// `data`, where `c₀ = first` and each next counter block is `kind`'s
    /// increment of the one before; a trailing partial block is left
    /// untouched.
    fn xor_keystream(&self, data: &mut [u8], first: Block, kind: CounterKind) {
        #[cfg(target_arch = "x86_64")]
        if crate::hw::xor_keystream(self.round_keys(), data, first, kind) {
            return;
        }
        let mut counter = u128::from_be_bytes(first);
        for chunk in data.chunks_exact_mut(BLOCK_SIZE) {
            let mut ks = counter.to_be_bytes();
            self.encrypt_block_portable(&mut ks);
            let block: &mut Block = chunk.try_into().expect("exact chunk");
            *block = (u128::from_ne_bytes(*block) ^ u128::from_ne_bytes(ks)).to_ne_bytes();
            counter = kind.advance(counter, 1);
        }
    }

    /// T-table encrypt. State column `c` lives in word `s[c]` with row 0
    /// in the most significant byte; ShiftRows means output column `c`
    /// row `r` reads input column `c + r` (mod 4).
    fn encrypt_block_portable(&self, block: &mut Block) {
        let rks = &self.round_keys_w[..self.len];
        let nr = rks.len() - 1;
        let mut s = load_state(block, &rks[0]);
        for rk in &rks[1..nr] {
            s = tt_round(s, rk);
        }
        final_round(s, &rks[nr], block);
    }
}

macro_rules! aes_variant {
    ($name:ident, $key_len:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone)]
        pub struct $name {
            schedule: KeySchedule,
        }

        impl $name {
            /// Expands `key` into a round-key schedule.
            pub fn new(key: &[u8; $key_len]) -> $name {
                $name {
                    schedule: KeySchedule::new(key),
                }
            }

            /// Encrypts one 16-byte block in place (AES-NI when the CPU
            /// has it, otherwise the T-table path).
            pub fn encrypt_block(&self, block: &mut Block) {
                self.schedule.encrypt_block(block);
            }

            /// Encrypts one block on the portable T-table path, whatever
            /// the CPU offers.
            #[cfg(test)]
            pub(crate) fn encrypt_block_portable(&self, block: &mut Block) {
                self.schedule.encrypt_block_portable(block);
            }

            /// Encrypts one block with the byte-oriented FIPS 197 code,
            /// the oracle the tests hold both paths to.
            #[cfg(test)]
            pub(crate) fn encrypt_block_reference(&self, block: &mut Block) {
                reference::encrypt_block(self.schedule.round_keys(), block);
            }

            /// XORs the keystream `E(first), E(first + 1), …` (counter
            /// blocks stepped by `kind`) into each whole 16-byte block of
            /// `data`; a trailing partial block is left untouched. The
            /// CTR and GCTR bulk loop.
            pub(crate) fn xor_keystream(&self, data: &mut [u8], first: Block, kind: CounterKind) {
                self.schedule.xor_keystream(data, first, kind);
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // Never print key material.
                f.debug_struct(stringify!($name)).finish_non_exhaustive()
            }
        }
    };
}

aes_variant!(
    Aes128,
    16,
    "AES with a 128-bit key (10 rounds). See the [module docs](self) for an example."
);
aes_variant!(
    Aes256,
    32,
    "AES with a 256-bit key (14 rounds), as used for `Key_device` bitstream encryption."
);

/// The original byte-oriented SubBytes/ShiftRows/MixColumns cipher,
/// kept as the tests' oracle for the T-table and hardware paths.
#[cfg(test)]
mod reference {
    use super::{xtime, Block, SBOX};

    /// Encrypts `block` under `round_keys` (the FIPS 197 schedule).
    pub(super) fn encrypt_block(round_keys: &[Block], block: &mut Block) {
        let nr = round_keys.len() - 1;
        add_round_key(block, &round_keys[0]);
        for round_key in &round_keys[1..nr] {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, round_key);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &round_keys[nr]);
    }

    fn sub_bytes(state: &mut Block) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    // State is column-major: state[4*c + r] is row r, column c.
    fn shift_rows(s: &mut Block) {
        let t = *s;
        for c in 0..4 {
            for r in 1..4 {
                s[4 * c + r] = t[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn mix_columns(s: &mut Block) {
        for c in 0..4 {
            let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
            s[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            s[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            s[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            s[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    fn add_round_key(s: &mut Block, rk: &Block) {
        for (b, k) in s.iter_mut().zip(rk.iter()) {
            *b ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `encrypt` applied to `block` on the dispatched and the portable
    /// kernels, which must agree.
    fn encrypt_on_every_backend(block: &mut Block, encrypt: impl Fn(&mut Block)) {
        *block = crate::on_every_backend(|| {
            let mut b = *block;
            encrypt(&mut b);
            b
        });
    }

    #[test]
    fn fips197_appendix_b_aes128() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let cipher = Aes128::new(&key);
        let mut block: Block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        encrypt_on_every_backend(&mut block, |b| cipher.encrypt_block(b));
        assert_eq!(
            block,
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32
            ]
        );
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let cipher = Aes128::new(&key);
        let mut block: Block = core::array::from_fn(|i| (i as u8) * 0x11);
        encrypt_on_every_backend(&mut block, |b| cipher.encrypt_block(b));
        assert_eq!(
            block,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let cipher = Aes256::new(&key);
        let mut block: Block = core::array::from_fn(|i| (i as u8) * 0x11);
        encrypt_on_every_backend(&mut block, |b| cipher.encrypt_block(b));
        assert_eq!(
            block,
            [
                0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
                0x60, 0x89
            ]
        );
    }

    #[test]
    fn reference_path_matches_fips197_vectors() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let cipher = Aes128::new(&key);
        let mut block: Block = core::array::from_fn(|i| (i as u8) * 0x11);
        cipher.encrypt_block_reference(&mut block);
        assert_eq!(
            block,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
    }

    #[test]
    fn fast_path_differential_vs_reference() {
        let mut drbg = crate::drbg::HmacDrbg::new(b"aes fast-vs-reference", b"differential");
        for _ in 0..256 {
            let key128: [u8; 16] = drbg.generate_array();
            let key256: [u8; 32] = drbg.generate_array();
            let block: Block = drbg.generate_array();

            let c128 = Aes128::new(&key128);
            let (mut fast, mut reference) = (block, block);
            encrypt_on_every_backend(&mut fast, |b| c128.encrypt_block(b));
            c128.encrypt_block_reference(&mut reference);
            assert_eq!(fast, reference, "AES-128 fast path diverged");

            let c256 = Aes256::new(&key256);
            let (mut fast, mut reference) = (block, block);
            encrypt_on_every_backend(&mut fast, |b| c256.encrypt_block(b));
            c256.encrypt_block_reference(&mut reference);
            assert_eq!(fast, reference, "AES-256 fast path diverged");
        }
    }

    #[test]
    fn te0_table_matches_sbox_and_mixcolumn() {
        for x in 0..=255u8 {
            let s = SBOX[x as usize];
            let [b0, b1, b2, b3] = TE0[x as usize].to_be_bytes();
            assert_eq!(b0, xtime(s));
            assert_eq!(b1, s);
            assert_eq!(b2, s);
            assert_eq!(b3, xtime(s) ^ s);
        }
    }
}
