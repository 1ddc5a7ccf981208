//! AES-CTR streaming encryption.
//!
//! The paper's accelerators add "an AES-CTR streaming encryption/
//! decryption logic at the memory interface" (§6.4); the FPGA TEE's
//! near-zero overhead comes from this mode being pipelineable. This
//! module is used by both the simulated SM logic AES engine and the
//! enclave-side data path.
//!
//! The counter is the whole 16-byte block interpreted as a big-endian
//! 128-bit integer, which the implementation keeps as `iv + block_index`
//! (plain `u128` arithmetic), wrapping. Bulk data moves through the block
//! cipher's whole-block keystream loop — sixteen counter blocks in
//! flight on VAES, eight on AES-NI — not byte-at-a-time, on the calling
//! thread.
//!
//! ```
//! use salus_crypto::ctr::AesCtr128;
//!
//! let key = [7u8; 16];
//! let iv = [1u8; 16];
//! let mut data = b"stream me".to_vec();
//! AesCtr128::new(&key, &iv).apply_keystream(&mut data);
//! AesCtr128::new(&key, &iv).apply_keystream(&mut data);
//! assert_eq!(data, b"stream me");
//! ```

use crate::aes::{Aes128, Aes256, Block, CounterKind, BLOCK_SIZE};

macro_rules! ctr_variant {
    ($name:ident, $aes:ident, $key_len:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Clone)]
        pub struct $name {
            cipher: $aes,
            /// Initial counter block as a big-endian integer.
            iv: u128,
            /// Block number the *next* keystream block will use
            /// (counter block = `iv + block_index`, wrapping).
            block_index: u128,
            keystream: Block,
            used: usize,
        }

        impl $name {
            /// Creates a CTR stream from `key` and a 16-byte initial
            /// counter block `iv`.
            pub fn new(key: &[u8; $key_len], iv: &Block) -> $name {
                $name::from_cipher($aes::new(key), iv)
            }

            /// Creates a CTR stream reusing an already-expanded cipher.
            /// Key expansion dominates short transactions, so callers
            /// that encrypt many messages under one key (the accelerator
            /// memory shim, the register channel) should expand once and
            /// clone/reset per message via this constructor.
            pub fn from_cipher(cipher: $aes, iv: &Block) -> $name {
                $name {
                    cipher,
                    iv: u128::from_be_bytes(*iv),
                    block_index: 0,
                    keystream: [0; BLOCK_SIZE],
                    used: BLOCK_SIZE,
                }
            }

            /// XORs the keystream into `data` in place. Calling twice with
            /// fresh streams and identical parameters decrypts.
            pub fn apply_keystream(&mut self, data: &mut [u8]) {
                let pos = self.drain_partial(data);
                let body = &mut data[pos..];
                let (blocks, tail) = body.split_at_mut(body.len() - body.len() % BLOCK_SIZE);
                let first = self.iv.wrapping_add(self.block_index).to_be_bytes();
                self.cipher.xor_keystream(blocks, first, CounterKind::Be128);
                self.block_index = self
                    .block_index
                    .wrapping_add((blocks.len() / BLOCK_SIZE) as u128);
                if !tail.is_empty() {
                    self.refill();
                    for (b, k) in tail.iter_mut().zip(self.keystream.iter()) {
                        *b ^= *k;
                    }
                    self.used = tail.len();
                }
            }

            /// XORs leftover bytes of the current keystream block into
            /// the head of `data`; returns how many bytes were covered.
            fn drain_partial(&mut self, data: &mut [u8]) -> usize {
                if self.used >= BLOCK_SIZE {
                    return 0;
                }
                let take = (BLOCK_SIZE - self.used).min(data.len());
                for (b, k) in data[..take]
                    .iter_mut()
                    .zip(self.keystream[self.used..].iter())
                {
                    *b ^= *k;
                }
                self.used += take;
                take
            }

            /// Returns the current counter block and advances the index.
            fn next_counter_block(&mut self) -> Block {
                let ctr = self.iv.wrapping_add(self.block_index);
                self.block_index = self.block_index.wrapping_add(1);
                ctr.to_be_bytes()
            }

            fn refill(&mut self) {
                self.keystream = self.next_counter_block();
                self.cipher.encrypt_block(&mut self.keystream);
                self.used = 0;
            }
        }
    };
}

ctr_variant!(
    AesCtr128,
    Aes128,
    16,
    "AES-128 in CTR mode (the accelerator memory shim)."
);
ctr_variant!(
    AesCtr256,
    Aes256,
    32,
    "AES-256 in CTR mode (session-key protected register payloads)."
);

impl AesCtr256 {
    /// [`apply_keystream`](Self::apply_keystream) under the name the
    /// end-to-end benchmark calls. It forks no thread: a serving drain
    /// already runs each board on its own core, and no buffer the
    /// platform encrypts repays the ~34 µs a scoped spawn and join
    /// costs.
    pub fn apply_keystream_parallel(&mut self, data: &mut [u8]) {
        self.apply_keystream(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt
    #[test]
    fn nist_sp800_38a_ctr_aes128() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let iv: Block = [
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd,
            0xfe, 0xff,
        ];
        let data: Vec<u8> = vec![
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let data = crate::on_every_backend(|| {
            let mut out = data.clone();
            AesCtr128::new(&key, &iv).apply_keystream(&mut out);
            out
        });
        assert_eq!(
            data,
            vec![
                0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68, 0x64, 0x99, 0x0d,
                0xb6, 0xce
            ]
        );
    }

    #[test]
    fn split_application_matches_oneshot() {
        let key = [3u8; 16];
        let iv = [9u8; 16];
        let plain: Vec<u8> = (0..100).collect();

        let mut oneshot = plain.clone();
        AesCtr128::new(&key, &iv).apply_keystream(&mut oneshot);

        for split in [0usize, 1, 15, 16, 17, 50, 99, 100] {
            let mut chunked = plain.clone();
            let mut ctr = AesCtr128::new(&key, &iv);
            let (a, b) = chunked.split_at_mut(split);
            ctr.apply_keystream(a);
            ctr.apply_keystream(b);
            assert_eq!(chunked, oneshot, "split at {split}");
        }
    }

    #[test]
    fn every_offset_and_length_matches_the_reference_keystream() {
        // Every (offset, length) in 0..=300 × 0..=300, on every backend:
        // stream `offset` bytes, then `len`, then 17 more, against
        // keystream from the byte-oriented reference cipher — with an IV
        // that wraps the 128-bit counter after one block — so each call
        // starts mid-block or on a boundary and the stream must continue
        // correctly after it.
        let iv = [0xffu8; 16];
        let cipher = Aes256::new(&[0x5a; 32]);
        let reference: Vec<u8> = (0..40u128)
            .flat_map(|i| {
                let mut block = u128::from_be_bytes(iv).wrapping_add(i).to_be_bytes();
                cipher.encrypt_block_reference(&mut block);
                block
            })
            .collect();
        crate::on_every_backend(|| {
            for offset in 0..=300usize {
                for len in 0..=300usize {
                    let mut out = vec![0u8; offset + len + 17];
                    let (skipped, rest) = out.split_at_mut(offset);
                    let (head, tail) = rest.split_at_mut(len);
                    let mut ctr = AesCtr256::from_cipher(cipher.clone(), &iv);
                    ctr.apply_keystream(skipped);
                    ctr.apply_keystream(head);
                    ctr.apply_keystream(tail);
                    assert_eq!(
                        out,
                        &reference[..offset + len + 17],
                        "offset {offset} len {len}"
                    );
                }
            }
        });
    }

    #[test]
    fn counter_wraps_across_block_boundary() {
        let key = [0u8; 16];
        let iv = [0xffu8; 16]; // next counter wraps to all-zero
        let mut data = vec![0u8; 48];
        AesCtr128::new(&key, &iv).apply_keystream(&mut data);
        // Must equal E(0xff..ff) || E(0x00..00) || E(0x00..01)
        let cipher = Aes128::new(&key);
        let mut b0 = [0xffu8; 16];
        cipher.encrypt_block(&mut b0);
        let mut b1 = [0u8; 16];
        cipher.encrypt_block(&mut b1);
        let mut b2 = [0u8; 16];
        b2[15] = 1;
        cipher.encrypt_block(&mut b2);
        assert_eq!(&data[..16], &b0);
        assert_eq!(&data[16..32], &b1);
        assert_eq!(&data[32..48], &b2);
    }

    #[test]
    fn ctr256_roundtrip() {
        let key = [0xabu8; 32];
        let iv = [0x11u8; 16];
        let mut data = b"register transaction payload".to_vec();
        AesCtr256::new(&key, &iv).apply_keystream(&mut data);
        assert_ne!(&data, b"register transaction payload");
        AesCtr256::new(&key, &iv).apply_keystream(&mut data);
        assert_eq!(&data, b"register transaction payload");
    }

    #[test]
    fn parallel_apply_matches_serial_and_preserves_state() {
        let key = [0x13u8; 32];
        let iv = [0x31u8; 16];
        // Larger than any buffer the platform serves, not block-aligned.
        let len = 3 * 256 * 1024 + 7;
        let plain: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();

        let mut serial = plain.clone();
        let mut serial_ctr = AesCtr256::new(&key, &iv);
        crate::on_every_backend(|| {
            let mut out = plain.clone();
            serial_ctr.clone().apply_keystream(&mut out);
            out
        });
        serial_ctr.apply_keystream(&mut serial);

        let mut par = plain.clone();
        let mut par_ctr = AesCtr256::new(&key, &iv);
        par_ctr.apply_keystream_parallel(&mut par);
        assert_eq!(par, serial);

        // Both streams must now be positioned identically (mid-block).
        let mut a = vec![0u8; 100];
        let mut b = vec![0u8; 100];
        serial_ctr.apply_keystream(&mut a);
        par_ctr.apply_keystream(&mut b);
        assert_eq!(a, b, "stream state diverged after parallel apply");
    }

    #[test]
    fn from_cipher_matches_new() {
        let key = [0x61u8; 32];
        let iv = [0x62u8; 16];
        let cipher = Aes256::new(&key);
        let mut a = vec![0u8; 100];
        let mut b = vec![0u8; 100];
        AesCtr256::new(&key, &iv).apply_keystream(&mut a);
        AesCtr256::from_cipher(cipher, &iv).apply_keystream(&mut b);
        assert_eq!(a, b);
    }
}
