//! Property-based tests (proptest) of the crypto substrate's core
//! invariants.

use proptest::prelude::*;

use salus::crypto::cmac::aes128_cmac;
use salus::crypto::ctr::{AesCtr128, AesCtr256};
use salus::crypto::gcm::AesGcm256;
use salus::crypto::hmac::hmac_sha256;
use salus::crypto::merkle;
use salus::crypto::sha256::Sha256;
use salus::crypto::siphash::SipHash24;
use salus::crypto::x25519::{PublicKey, StaticSecret};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gcm_seal_open_roundtrip(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        aad in prop::collection::vec(any::<u8>(), 0..64),
        plaintext in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let gcm = AesGcm256::new(&key);
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        prop_assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn gcm_rejects_any_single_byte_corruption(
        key in prop::array::uniform32(any::<u8>()),
        plaintext in prop::collection::vec(any::<u8>(), 1..128),
        flip_pos_seed in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let gcm = AesGcm256::new(&key);
        let nonce = [3u8; 12];
        let mut sealed = gcm.seal(&nonce, b"", &plaintext);
        let pos = flip_pos_seed % sealed.len();
        sealed[pos] ^= 1 << flip_bit;
        prop_assert!(gcm.open(&nonce, b"", &sealed).is_err());
    }

    #[test]
    fn ctr_is_an_involution_and_length_preserving(
        key in prop::array::uniform32(any::<u8>()),
        iv in prop::array::uniform16(any::<u8>()),
        data in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut buf = data.clone();
        AesCtr256::new(&key, &iv).apply_keystream(&mut buf);
        prop_assert_eq!(buf.len(), data.len());
        AesCtr256::new(&key, &iv).apply_keystream(&mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn ctr_streaming_is_split_invariant(
        key in prop::array::uniform16(any::<u8>()),
        iv in prop::array::uniform16(any::<u8>()),
        data in prop::collection::vec(any::<u8>(), 1..256),
        split_seed in any::<usize>(),
    ) {
        let mut whole = data.clone();
        AesCtr128::new(&key, &iv).apply_keystream(&mut whole);

        let split = split_seed % (data.len() + 1);
        let mut parts = data.clone();
        let mut ctr = AesCtr128::new(&key, &iv);
        let (a, b) = parts.split_at_mut(split);
        ctr.apply_keystream(a);
        ctr.apply_keystream(b);
        prop_assert_eq!(parts, whole);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..1024),
        chunk_size in 1usize..128,
    ) {
        let mut hasher = Sha256::new();
        for chunk in data.chunks(chunk_size) {
            hasher.update(chunk);
        }
        prop_assert_eq!(hasher.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn macs_are_key_and_message_sensitive(
        key_a in prop::array::uniform16(any::<u8>()),
        key_b in prop::array::uniform16(any::<u8>()),
        msg in prop::collection::vec(any::<u8>(), 1..128),
        flip_seed in any::<usize>(),
    ) {
        prop_assume!(key_a != key_b);
        // SipHash
        prop_assert_ne!(SipHash24::mac(&key_a, &msg), SipHash24::mac(&key_b, &msg));
        // CMAC
        prop_assert_ne!(aes128_cmac(&key_a, &msg), aes128_cmac(&key_b, &msg));
        // HMAC with flipped message bit
        let mut msg2 = msg.clone();
        let pos = flip_seed % msg2.len();
        msg2[pos] ^= 1;
        prop_assert_ne!(hmac_sha256(&key_a, &msg), hmac_sha256(&key_a, &msg2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rewriting a random dirty set of chunks (duplicates allowed —
    /// later writes win, exactly like repeated DMA fills) leaves the
    /// root where it was if and only if the final bytes are the
    /// original bytes: a refreshed root is a fresh root. Chunk size,
    /// buffer length, and the dirty set are all drawn dependently via
    /// `prop_flat_map`.
    #[test]
    fn merkle_incremental_refresh_equals_fresh_build(
        key in prop::array::uniform32(any::<u8>()),
        (chunk_size, len, dirty) in (1usize..64, 0usize..2048).prop_flat_map(
            |(chunk_size, len)| (
                Just(chunk_size),
                Just(len),
                prop::collection::vec(
                    0..len.div_ceil(chunk_size).max(1),
                    0..12,
                ),
            )
        ),
        fill in any::<u8>(),
        patch in any::<u8>(),
    ) {
        let original = vec![fill; len];
        let before = merkle::root(&key, &original, chunk_size);

        let mut data = original.clone();
        for (i, &chunk) in dirty.iter().enumerate() {
            let start = chunk * chunk_size;
            let end = data.len().min(start + chunk_size);
            data[start..end].fill(patch.wrapping_add(i as u8));
        }
        let after = merkle::root(&key, &data, chunk_size);
        prop_assert_eq!(after == before, data == original);
    }

    /// Any single-bit flip changes the root, so a stale root can never
    /// authenticate tampered contents.
    #[test]
    fn merkle_stale_root_rejected_after_bit_flip(
        key in prop::array::uniform32(any::<u8>()),
        (chunk_size, len, flip_pos) in (1usize..64, 1usize..2048).prop_flat_map(
            |(chunk_size, len)| (Just(chunk_size), Just(len), 0..len)
        ),
        flip_bit in 0u8..8,
        fill in any::<u8>(),
    ) {
        let mut data = vec![fill; len];
        let stale_root = merkle::root(&key, &data, chunk_size);
        data[flip_pos] ^= 1 << flip_bit;
        prop_assert_ne!(merkle::root(&key, &data, chunk_size), stale_root);
    }
}

proptest! {
    // X25519 is comparatively slow; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn x25519_dh_commutes(
        a in prop::array::uniform32(any::<u8>()),
        b in prop::array::uniform32(any::<u8>()),
    ) {
        let sa = StaticSecret::from_bytes(a);
        let sb = StaticSecret::from_bytes(b);
        let pa = PublicKey::from(&sa);
        let pb = PublicKey::from(&sb);
        prop_assert_eq!(sa.diffie_hellman(&pb), sb.diffie_hellman(&pa));
    }
}
