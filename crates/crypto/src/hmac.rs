//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//!
//! HMAC backs the SM logic's "HMAC engine" (Figure 5) protecting the
//! secure register channel, and HKDF is the key-derivation function used
//! by the TEE model for `EGETKEY`-style report-key derivation.
//!
//! A key is expanded once into the two SHA-256 midstates every tag
//! under it starts from ([`HmacKey`]). From there a message of at most
//! [`SHORT_MAX`] bytes, such as a register transaction's MAC input, is
//! one padded inner block, so its tag costs two compressions: that
//! block and the one-block outer hash.
//!
//! ```
//! use salus_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//! ```

use crate::sha256::{self, Digest, Sha256, DIGEST_SIZE};

/// Computes HMAC-SHA256 of `message` under `key` (any key length).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).tag(message)
}

/// Longest message [`HmacKey::tag`] hashes in one inner block: the
/// block also holds the `0x80` pad byte and the 8-byte bit length.
pub const SHORT_MAX: usize = 64 - 9;

/// The outer message after the `opad` block: the 32-byte inner digest
/// (left blank) with its padding, one block.
const OUTER_TEMPLATE: [u8; 64] = sha256::padded(b"", DIGEST_SIZE, 64);

/// HMAC-SHA256 under one key, held as the SHA-256 states after the
/// inner (`key ⊕ ipad`) and outer (`key ⊕ opad`) key blocks. It is
/// 64 bytes and `Copy`, and tags a message of at most [`SHORT_MAX`]
/// bytes in two compressions.
#[derive(Clone, Copy)]
pub struct HmacKey {
    pub(crate) inner: [u32; 8],
    outer: [u32; 8],
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

impl HmacKey {
    /// Expands `key` (any length) into its two midstates: a key longer
    /// than a block is hashed first, and the padded key block is
    /// compressed once under each pad, as two lanes.
    pub fn new(key: &[u8]) -> HmacKey {
        let mut block_key = [0u8; 64];
        if key.len() > 64 {
            block_key[..DIGEST_SIZE].copy_from_slice(&Sha256::digest(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| block_key.map(|k| k ^ byte);
        let mut states = [sha256::H0; 2];
        sha256::compress_lanes(&mut states, [&pad(0x36), &pad(0x5c)]);
        let [inner, outer] = states;
        HmacKey { inner, outer }
    }

    /// HMAC-SHA256 of `message`. Up to [`SHORT_MAX`] bytes the message
    /// is assembled into its one padded inner block on the stack; a
    /// longer one goes through [`HmacSha256`].
    pub fn tag(&self, message: &[u8]) -> Digest {
        if message.len() > SHORT_MAX {
            let mut mac = HmacSha256::keyed(self);
            mac.update(message);
            return mac.finalize();
        }
        let mut block = [0u8; 64];
        block[..message.len()].copy_from_slice(message);
        block[message.len()] = 0x80;
        block[64 - 8..].copy_from_slice(&((64 + message.len()) as u64 * 8).to_be_bytes());
        #[cfg(target_arch = "x86_64")]
        if let Some(tag) = crate::hw::hmac_one_block(&self.inner, &self.outer, &block) {
            return tag;
        }
        let mut inner = [self.inner];
        sha256::compress_lanes(&mut inner, [&block]);
        let [tag] = self.finish(&inner);
        tag
    }

    /// The tags of `N` messages whose inner hashes ended in `inner`: the
    /// one-block outer hashes of their digests, as `N` SHA-256 lanes
    /// from the `opad` midstate.
    pub(crate) fn finish<const N: usize>(&self, inner: &[[u32; 8]; N]) -> [Digest; N] {
        let mut blocks = [OUTER_TEMPLATE; N];
        for (block, inner) in blocks.iter_mut().zip(inner) {
            block[..DIGEST_SIZE].copy_from_slice(&sha256::state_digest(inner));
        }
        let mut outer = [self.outer; N];
        sha256::compress_lanes(&mut outer, blocks.each_ref().map(|b| &b[..]));
        outer.map(|state| sha256::state_digest(&state))
    }
}

/// Incremental HMAC-SHA256.
///
/// Both padded key blocks are absorbed at construction, so a keyed
/// context can be cloned per message to skip those two compressions.
/// Short messages under a long-lived key take [`HmacKey::tag`] instead.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key`.
    pub fn new(key: &[u8]) -> HmacSha256 {
        HmacSha256::keyed(&HmacKey::new(key))
    }

    /// An empty context under an expanded key.
    fn keyed(key: &HmacKey) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::resume(key.inner, 64),
            outer: Sha256::resume(key.outer, 64),
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(self) -> Digest {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// Finishes and verifies the tag against `expected` in constant time.
    pub fn verify(self, expected: &[u8]) -> bool {
        crate::ct::eq(&self.finalize(), expected)
    }
}

/// HKDF-Extract (RFC 5869 §2.2).
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> Digest {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand (RFC 5869 §2.3).
///
/// # Panics
///
/// Panics if `len > 255 * 32`, the RFC limit.
pub fn hkdf_expand(prk: &Digest, info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_SIZE, "hkdf output too long");
    let mut output = Vec::with_capacity(len);
    let mut previous: Option<Digest> = None;
    let mut counter = 1u8;
    let keyed = HmacSha256::new(prk);
    while output.len() < len {
        let mut mac = keyed.clone();
        if let Some(prev) = &previous {
            mac.update(prev);
        }
        mac.update(info);
        mac.update(&[counter]);
        let block = mac.finalize();
        let take = (len - output.len()).min(DIGEST_SIZE);
        output.extend_from_slice(&block[..take]);
        previous = Some(block);
        counter += 1;
    }
    output
}

/// One-shot HKDF (extract-then-expand).
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    // RFC 4231 test case 1. `hmac_sha256` runs `HmacKey::tag`, so this
    // and case 2 go through the one-block path.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = crate::on_every_backend(|| hmac_sha256(&key, b"Hi There"));
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = crate::on_every_backend(|| hmac_sha256(b"Jefe", b"what do ya want for nothing?"));
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 6: key longer than block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag = crate::on_every_backend(|| {
            hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
            )
        });
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let okm = crate::on_every_backend(|| hkdf(&salt, &ikm, &info, 42));
        assert_eq!(
            to_hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn verify_rejects_wrong_tag() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"m");
        assert!(!mac.clone().verify(&[0u8; 32]));
        let good = mac.clone().finalize();
        assert!(mac.verify(&good));
    }

    /// Every message length the one-block path takes, and the first
    /// lengths past it, under an empty, a 32-byte and a hashed
    /// (over-64-byte) key: the tag equals the incremental context's.
    #[test]
    fn short_tag_matches_incremental() {
        let message: Vec<u8> = (0..=SHORT_MAX as u8 + 9).collect();
        for key in [&[][..], &[0x33; 32], &[0xaa; 131]] {
            let (short, incremental) = crate::on_every_backend(|| {
                let hmac_key = HmacKey::new(key);
                (0..message.len())
                    .map(|len| {
                        let mut mac = HmacSha256::new(key);
                        mac.update(&message[..len]);
                        (hmac_key.tag(&message[..len]), mac.finalize())
                    })
                    .unzip::<_, _, Vec<_>, Vec<_>>()
            });
            assert_eq!(short, incremental, "key of {} bytes", key.len());
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"key", b"hello world"));
    }
}
