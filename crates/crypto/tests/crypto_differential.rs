//! Differential tests for the fast crypto data plane.
//!
//! Two layers of evidence that the optimised paths (T-table AES,
//! block-oriented seekable CTR, parallel bulk application) compute
//! exactly what the auditable reference paths do:
//!
//! 1. **Seek equivalence** — positioning a CTR stream by block index or
//!    byte offset matches streaming from the start.
//! 2. **DRBG-seeded differential fuzz** — fast vs reference block
//!    cipher, chunked vs one-shot vs parallel CTR, and GCM
//!    seal/open/tamper over randomised lengths, offsets and splits.
//!
//! The GCM known-answer vectors (NIST and McGrew–Viega) are unit tests
//! in `gcm.rs`, where they run on both the hardware and the portable
//! kernels.

use salus_crypto::aes::{Aes128, Aes256};
use salus_crypto::ctr::{AesCtr128, AesCtr256};
use salus_crypto::drbg::HmacDrbg;
use salus_crypto::gcm::{AesGcm128, AesGcm256};

#[test]
fn gcm_long_ciphertext_multiblock_aad_roundtrip() {
    // Long enough (384 KiB) that seal/open take the parallel GCTR
    // path; the AAD spans many blocks with a ragged tail.
    let mut drbg = HmacDrbg::new(b"gcm-long-msg", b"crypto-differential");
    let key: [u8; 32] = drbg.generate_array();
    let cipher = AesGcm256::new(&key);
    let nonce: [u8; 12] = drbg.generate_array();
    let aad = drbg.generate(1000 + 7);
    let plain = drbg.generate(384 * 1024 + 13);

    let sealed = cipher.seal(&nonce, &aad, &plain);
    assert_eq!(cipher.open(&nonce, &aad, &sealed).unwrap(), plain);

    // Tag is bound to the AAD and to every ciphertext byte.
    let mut bad_aad = aad.clone();
    bad_aad[500] ^= 1;
    assert!(cipher.open(&nonce, &bad_aad, &sealed).is_err());
    let mut bad_ct = sealed.clone();
    bad_ct[300_000] ^= 1;
    assert!(cipher.open(&nonce, &aad, &bad_ct).is_err());
}

#[test]
fn ctr_seek_to_block_matches_streaming() {
    // Seeking to block N must equal streaming N blocks then continuing.
    let mut drbg = HmacDrbg::new(b"ctr-seek", b"crypto-differential");
    let key: [u8; 32] = drbg.generate_array();
    let iv: [u8; 16] = drbg.generate_array();
    let data = drbg.generate(4096);

    for &skip_blocks in &[0u128, 1, 7, 64, 255] {
        let mut streamed = data.clone();
        let mut ctr = AesCtr256::new(&key, &iv);
        let mut prefix = vec![0u8; (skip_blocks as usize) * 16];
        ctr.apply_keystream(&mut prefix);
        ctr.apply_keystream(&mut streamed);

        let mut sought = data.clone();
        let mut ctr2 = AesCtr256::new(&key, &iv);
        ctr2.seek_to_block(skip_blocks);
        ctr2.apply_keystream(&mut sought);

        assert_eq!(streamed, sought, "skip_blocks = {skip_blocks}");
    }
}

#[test]
fn ctr_apply_at_offset_matches_full_stream_slice() {
    // apply_keystream_at(data, off) must match the keystream a single
    // pass would have applied at byte offset `off`, for offsets that
    // land mid-block and mid-byte-boundary alike.
    let mut drbg = HmacDrbg::new(b"ctr-offset", b"crypto-differential");
    let key: [u8; 16] = drbg.generate_array();
    let iv: [u8; 16] = drbg.generate_array();
    let total = 8192usize;

    let mut full = vec![0u8; total];
    AesCtr128::new(&key, &iv).apply_keystream(&mut full); // raw keystream

    for &(off, len) in &[
        (0usize, 31usize),
        (1, 16),
        (15, 17),
        (16, 160),
        (4097, 1000),
    ] {
        let mut slice = vec![0u8; len];
        let mut ctr = AesCtr128::new(&key, &iv);
        ctr.apply_keystream_at(&mut slice, off as u128);
        assert_eq!(slice, &full[off..off + len], "offset {off} len {len}");
    }
}

#[test]
fn fast_aes_matches_reference_under_fuzz() {
    // The T-table path and the byte-oriented reference path must agree
    // on every block, and decryption must invert both.
    let mut drbg = HmacDrbg::new(b"aes-differential", b"crypto-differential");
    for _ in 0..200 {
        let key128: [u8; 16] = drbg.generate_array();
        let key256: [u8; 32] = drbg.generate_array();
        let block: [u8; 16] = drbg.generate_array();

        let a = Aes128::new(&key128);
        let mut fast = block;
        a.encrypt_block(&mut fast);
        let mut reference = block;
        a.encrypt_block_reference(&mut reference);
        assert_eq!(fast, reference);
        a.decrypt_block(&mut fast);
        assert_eq!(fast, block);

        let b = Aes256::new(&key256);
        let mut fast = block;
        b.encrypt_block(&mut fast);
        let mut reference = block;
        b.encrypt_block_reference(&mut reference);
        assert_eq!(fast, reference);
        b.decrypt_block(&mut fast);
        assert_eq!(fast, block);
    }
}

#[test]
fn ctr_chunked_parallel_and_oneshot_agree_under_fuzz() {
    // One-shot, randomly-chunked and parallel application of the same
    // stream must produce identical bytes for arbitrary lengths.
    let mut drbg = HmacDrbg::new(b"ctr-differential", b"crypto-differential");
    for round in 0..24 {
        let key: [u8; 32] = drbg.generate_array();
        let iv: [u8; 16] = drbg.generate_array();
        // Mix small, unaligned and parallel-threshold-crossing lengths.
        let len = match round % 4 {
            0 => (drbg.generate_u64() % 64) as usize,
            1 => (drbg.generate_u64() % 4096) as usize + 1,
            2 => 128 * 1024 + (drbg.generate_u64() % 33) as usize,
            _ => 300 * 1024 + (drbg.generate_u64() % 4096) as usize,
        };
        let data = drbg.generate(len);

        let mut oneshot = data.clone();
        AesCtr256::new(&key, &iv).apply_keystream(&mut oneshot);

        let mut chunked = data.clone();
        let mut ctr = AesCtr256::new(&key, &iv);
        let mut rest: &mut [u8] = &mut chunked;
        while !rest.is_empty() {
            let take = ((drbg.generate_u64() % 97) as usize + 1).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            ctr.apply_keystream(head);
            rest = tail;
        }
        assert_eq!(oneshot, chunked, "len = {len}");

        let mut parallel = data.clone();
        AesCtr256::new(&key, &iv).apply_keystream_parallel(&mut parallel);
        assert_eq!(oneshot, parallel, "len = {len}");
    }
}

#[test]
fn gcm_differential_roundtrip_under_fuzz() {
    // Randomised seal/open with random AAD shapes; every roundtrip must
    // succeed and every single-bit tamper must fail.
    let mut drbg = HmacDrbg::new(b"gcm-differential", b"crypto-differential");
    for _ in 0..16 {
        let key: [u8; 16] = drbg.generate_array();
        let cipher = AesGcm128::new(&key);
        let nonce: [u8; 12] = drbg.generate_array();
        let aad_len = (drbg.generate_u64() % 80) as usize;
        let aad = drbg.generate(aad_len);
        let plain_len = (drbg.generate_u64() % 5000) as usize;
        let plain = drbg.generate(plain_len);

        let sealed = cipher.seal(&nonce, &aad, &plain);
        assert_eq!(cipher.open(&nonce, &aad, &sealed).unwrap(), plain);

        let mut tampered = sealed.clone();
        let bit = drbg.generate_u64() as usize % (tampered.len() * 8);
        tampered[bit / 8] ^= 1 << (bit % 8);
        assert!(cipher.open(&nonce, &aad, &tampered).is_err());
    }
}
