//! Differential tests for the fast crypto data plane.
//!
//! DRBG-seeded differential fuzz: chunked vs one-shot CTR (and the
//! `apply_keystream_parallel` name the end-to-end benchmark calls), and
//! GCM seal/open/tamper over randomised lengths, AAD shapes and splits.
//!
//! The fast AES paths are held to the byte-oriented reference cipher by
//! `aes::tests::fast_path_differential_vs_reference`, and the GCM
//! known-answer vectors (NIST and McGrew–Viega) are unit tests in
//! `gcm.rs`; both run on every kernel backend the host has.

use salus_crypto::ctr::AesCtr256;
use salus_crypto::drbg::HmacDrbg;
use salus_crypto::gcm::{AesGcm128, AesGcm256};

#[test]
fn gcm_long_ciphertext_multiblock_aad_roundtrip() {
    // Long enough (384 KiB) that seal/open run many wide GCTR and
    // GHASH iterations; the AAD spans many blocks with a ragged tail.
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
fn ctr_chunked_parallel_and_oneshot_agree_under_fuzz() {
    // One-shot, randomly-chunked and `apply_keystream_parallel`
    // application of the same stream must produce identical bytes for
    // arbitrary lengths.
    let mut drbg = HmacDrbg::new(b"ctr-differential", b"crypto-differential");
    for round in 0..24 {
        let key: [u8; 32] = drbg.generate_array();
        let iv: [u8; 16] = drbg.generate_array();
        // Mix small, unaligned and bulk (served-buffer-sized) lengths.
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
