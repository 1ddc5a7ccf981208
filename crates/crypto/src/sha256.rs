//! SHA-256 (FIPS 180-4).
//!
//! Used throughout Salus: the CL bitstream digest `H` computed by the
//! developer and re-verified inside the SM enclave, enclave measurements
//! (`MRENCLAVE`), and as the compression function of [`crate::hmac`].
//!
//! ```
//! use salus_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest[0], 0xba);
//! assert_eq!(digest[31], 0xad);
//! ```

/// Length of a SHA-256 digest in bytes.
pub const DIGEST_SIZE: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_SIZE];

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Feed data with [`update`](Sha256::update) and finish with
/// [`finalize`](Sha256::finalize); or use the one-shot
/// [`digest`](Sha256::digest).
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// A hasher that has absorbed `absorbed` bytes (a whole number of
    /// blocks) and reached `state` — a midstate, such as HMAC's after its
    /// padded key block.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Sha256 {
        debug_assert!(
            absorbed.is_multiple_of(64),
            "a midstate follows whole blocks"
        );
        Sha256 {
            state,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: absorbed,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot digest of the concatenation of `parts` — equivalent to
    /// [`digest`](Sha256::digest) over the joined bytes without the
    /// intermediate allocation. The Merkle inner-node hash and the
    /// stream-IV derivation are domain-separated concatenations, so
    /// they sit on this path.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        compress_blocks(&mut self.state, &data[..whole]);
        let rem = &data[whole..];
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffer_len = rem.len();
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Buffered bytes, 0x80, zeros, then the 64-bit bit length: one
        // block, or two when fewer than 9 bytes are left in this one.
        let n = self.buffer_len;
        let len = if n < 56 { 64 } else { 128 };
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &tail[..len]);
        state_digest(&self.state)
    }
}

/// The digest a finished hash state stands for: its words, big-endian.
pub(crate) fn state_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_SIZE];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// `LEN` bytes holding `tag`, then blanks up to byte `end`, then the
/// SHA-256 padding of a message that ends there after `hashed` bytes
/// already absorbed.
pub(crate) const fn padded<const LEN: usize>(tag: &[u8], end: usize, hashed: usize) -> [u8; LEN] {
    let mut block = [0u8; LEN];
    let mut i = 0;
    while i < tag.len() {
        block[i] = tag[i];
        i += 1;
    }
    block[end] = 0x80;
    let bits = ((hashed + end) as u64 * 8).to_be_bytes();
    let mut i = 0;
    while i < 8 {
        block[LEN - 8 + i] = bits[i];
        i += 1;
    }
    block
}

/// Compresses each whole 64-byte block of `blocks` into `state`.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    compress_lanes(core::array::from_mut(state), [blocks]);
}

/// Compresses `N` independent messages at once: each whole 64-byte
/// block of `blocks[l]` goes into `states[l]`, on SHA-NI when the CPU
/// has it (one round loop for all lanes), otherwise
/// [`compress_portable`] lane by lane.
///
/// # Panics
///
/// Panics if the lanes differ in length.
#[inline]
pub(crate) fn compress_lanes<const N: usize>(states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
    assert!(
        blocks.iter().all(|lane| lane.len() == blocks[0].len()),
        "SHA-256 lanes differ in length"
    );
    #[cfg(target_arch = "x86_64")]
    if crate::hw::sha256_compress(states, blocks) {
        return;
    }
    for (state, lane) in states.iter_mut().zip(blocks) {
        for block in lane.chunks_exact(64) {
            compress_portable(state, block);
        }
    }
}

/// The FIPS 180-4 compression function on one 64-byte block, in plain
/// scalar code.
pub(crate) fn compress_portable(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block[..64].chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// Formats a digest as lowercase hex, for logs and reports.
pub fn to_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        to_hex(d)
    }

    #[test]
    fn nist_vectors() {
        crate::on_every_backend(nist_vectors_hold);
    }

    fn nist_vectors_hold() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let digest = crate::on_every_backend(|| {
            let mut h = Sha256::new();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            h.finalize()
        });
        assert_eq!(
            hex(&digest),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn digest_parts_matches_concatenation() {
        let parts: [&[u8]; 4] = [b"merkle-node-v1", &[7u8; 32], &[9u8; 32], b""];
        let joined: Vec<u8> = parts.concat();
        assert_eq!(Sha256::digest_parts(&parts), Sha256::digest(&joined));
        assert_eq!(Sha256::digest_parts(&[]), Sha256::digest(b""));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        crate::on_every_backend(|| {
            for split in [0, 1, 17, 55, 56, 63, 64, 65, 119, 120, 500, 999, 1000] {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
            }
        });
    }

    #[test]
    fn every_length_agrees_across_backends() {
        // Lengths 0..=1000 cross every padding case: one final block,
        // two (55 < n mod 64), and whole-block messages.
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 256) as u8).collect();
        crate::on_every_backend(|| {
            (0..=data.len())
                .map(|len| Sha256::digest(&data[..len]))
                .collect::<Vec<_>>()
        });
    }
}
