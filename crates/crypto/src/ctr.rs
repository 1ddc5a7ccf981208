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
//! (plain `u128` arithmetic). That makes the keystream *seekable*:
//! [`seek_to_block`](AesCtr128::seek_to_block) and
//! [`apply_keystream_at`](AesCtr128::apply_keystream_at) give random
//! access, and [`apply_keystream_parallel`](AesCtr128::apply_keystream_parallel)
//! exploits it to process disjoint ranges of one message on scoped
//! threads. Bulk data moves through the block cipher's whole-block
//! keystream loop — sixteen counter blocks in flight on VAES, eight on
//! AES-NI — not byte-at-a-time.
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
use crate::parallel;

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

            /// Repositions the stream at the start of keystream block
            /// `block` (0-based: block 0 is the one derived from the IV
            /// itself). Any partially-consumed keystream is discarded.
            pub fn seek_to_block(&mut self, block: u128) {
                self.block_index = block;
                self.used = BLOCK_SIZE;
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

            /// XORs keystream into `data` as if the stream were
            /// positioned at absolute `byte_offset` from the start of
            /// the message (random access). The stream is left
            /// positioned just past the written range.
            pub fn apply_keystream_at(&mut self, data: &mut [u8], byte_offset: u128) {
                self.seek_to_block(byte_offset / BLOCK_SIZE as u128);
                let skip = (byte_offset % BLOCK_SIZE as u128) as usize;
                if skip != 0 {
                    self.refill();
                    self.used = skip;
                }
                self.apply_keystream(data);
            }

            /// Like [`apply_keystream`](Self::apply_keystream) but
            /// splits large inputs across scoped worker threads, each
            /// seeking its own disjoint counter range. Falls back to the
            /// serial path when the input is too small to amortise
            /// thread spawns. Output is byte-identical to the serial
            /// path, and the stream state afterwards is too.
            pub fn apply_keystream_parallel(&mut self, data: &mut [u8]) {
                let pos = self.drain_partial(data);
                let body = &mut data[pos..];
                let workers = parallel::worker_count(body.len());
                if workers <= 1 {
                    self.apply_keystream(body);
                    return;
                }
                let start_block = self.block_index;
                let chunk_bytes = parallel::chunk_size(body.len(), workers, BLOCK_SIZE);
                let blocks_per_chunk = (chunk_bytes / BLOCK_SIZE) as u128;
                let total_blocks = body.len().div_ceil(BLOCK_SIZE) as u128;
                let tail = body.len() % BLOCK_SIZE;
                std::thread::scope(|scope| {
                    for (i, chunk) in body.chunks_mut(chunk_bytes).enumerate() {
                        let mut worker = self.clone();
                        worker.seek_to_block(
                            start_block.wrapping_add((i as u128) * blocks_per_chunk),
                        );
                        scope.spawn(move || worker.apply_keystream(chunk));
                    }
                });
                if tail != 0 {
                    // Re-derive the final (partial) keystream block so a
                    // subsequent call continues mid-block, exactly as
                    // the serial path would.
                    self.block_index = start_block.wrapping_add(total_blocks - 1);
                    self.refill();
                    self.used = tail;
                } else {
                    self.seek_to_block(start_block.wrapping_add(total_blocks));
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
        // Every (offset, length) in 0..=300 × 0..=300, on every backend,
        // against keystream from the byte-oriented reference cipher —
        // with an IV that wraps the 128-bit counter after one block —
        // and the stream must continue correctly after the call.
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
                    let mut out = vec![0u8; len + 17];
                    let (head, rest) = out.split_at_mut(len);
                    let mut ctr = AesCtr256::from_cipher(cipher.clone(), &iv);
                    ctr.apply_keystream_at(head, offset as u128);
                    ctr.apply_keystream(rest);
                    assert_eq!(
                        out,
                        &reference[offset..offset + len + 17],
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
    fn seek_to_block_matches_streaming_past_it() {
        let key = [0x42u8; 16];
        let iv = [0x07u8; 16];
        let mut streamed = vec![0u8; 160];
        AesCtr128::new(&key, &iv).apply_keystream(&mut streamed);

        for block in 0..10u128 {
            let mut seeked = vec![0u8; 16];
            let mut ctr = AesCtr128::new(&key, &iv);
            ctr.seek_to_block(block);
            ctr.apply_keystream(&mut seeked);
            let at = block as usize * 16;
            assert_eq!(&seeked, &streamed[at..at + 16], "block {block}");
        }
    }

    #[test]
    fn apply_keystream_at_matches_any_offset_and_length() {
        let key = [0x55u8; 32];
        let iv = [0xa0u8; 16];
        let mut streamed = vec![0u8; 300];
        AesCtr256::new(&key, &iv).apply_keystream(&mut streamed);

        for (offset, len) in [
            (0usize, 300usize),
            (1, 31),
            (15, 17),
            (16, 16),
            (17, 100),
            (255, 45),
        ] {
            let mut out = vec![0u8; len];
            let mut ctr = AesCtr256::new(&key, &iv);
            ctr.apply_keystream_at(&mut out, offset as u128);
            assert_eq!(
                &out,
                &streamed[offset..offset + len],
                "offset {offset} len {len}"
            );
            // The stream must continue correctly after random access.
            let rest = 300 - (offset + len);
            if rest > 0 {
                let mut cont = vec![0u8; rest];
                ctr.apply_keystream(&mut cont);
                assert_eq!(
                    &cont,
                    &streamed[offset + len..],
                    "continuation at {offset}+{len}"
                );
            }
        }
    }

    #[test]
    fn seek_past_counter_wrap_matches_streaming() {
        let key = [9u8; 16];
        let iv = [0xffu8; 16]; // block 1 wraps the whole counter to zero
        let mut streamed = vec![0u8; 64];
        AesCtr128::new(&key, &iv).apply_keystream(&mut streamed);
        let mut seeked = vec![0u8; 32];
        let mut ctr = AesCtr128::new(&key, &iv);
        ctr.seek_to_block(2);
        ctr.apply_keystream(&mut seeked);
        assert_eq!(&seeked, &streamed[32..]);
    }

    #[test]
    fn parallel_apply_matches_serial_and_preserves_state() {
        let key = [0x13u8; 32];
        let iv = [0x31u8; 16];
        // Larger than the parallel threshold, not block-aligned.
        let len = 3 * crate::parallel::MIN_BYTES_PER_THREAD + 7;
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
    fn parallel_apply_small_input_falls_back() {
        let key = [0x77u8; 16];
        let iv = [0x88u8; 16];
        let mut serial = b"tiny payload".to_vec();
        let mut par = serial.clone();
        AesCtr128::new(&key, &iv).apply_keystream(&mut serial);
        AesCtr128::new(&key, &iv).apply_keystream_parallel(&mut par);
        assert_eq!(par, serial);
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
