//! Keyed binary Merkle root over fixed-size chunks (SHA-256).
//!
//! The paper's threat model delegates device-memory confidentiality *and
//! integrity* to the developer ("there are many research efforts
//! targeting to provide efficient and flexible memory integrity and
//! confidentiality protection", §3.1 — citing Bonsai-Merkle-tree
//! designs). This module provides the integrity half for the
//! reproduction's DRAM shim: [`root`], a keyed Merkle root that
//! authenticates the contents of an untrusted memory region. The shim
//! hashes each buffer whole when it is written and again when it is
//! checked, so the root is all it keeps.
//!
//! A leaf is `HMAC-SHA256(key, "merkle-leaf-v1" || index (u64 LE) ||
//! chunk)` and an inner node `SHA-256("merkle-node-v1" || left ||
//! right)`. Every leaf starts from the two SHA-256 midstates the key
//! gives (after its `ipad` and `opad` blocks), taken once per root, and
//! reads the whole blocks inside its chunk in place. Neighbouring leaves,
//! and neighbouring nodes of one level, are compressed two at a time, as
//! two lanes of one SHA-NI kernel call. A 256-byte leaf costs six
//! compressions and an inner node two.

use crate::hmac::HmacKey;
use crate::sha256::{self, Digest};

/// Domain tag that opens every leaf's HMAC message.
const LEAF_TAG: &[u8; 14] = b"merkle-leaf-v1";

/// Bytes of a leaf message ahead of its chunk: the tag and the index.
const LEAF_PREFIX: usize = LEAF_TAG.len() + 8;

/// An inner node's SHA-256 input, `"merkle-node-v1" || left || right`
/// with its padding (two blocks), the children left blank at
/// [`NODE_LEFT`].
const NODE_TEMPLATE: [u8; 128] = sha256::padded(b"merkle-node-v1", NODE_LEFT + 64, 0);

/// Offset of the left child in [`NODE_TEMPLATE`]; the right follows it.
const NODE_LEFT: usize = 14;

/// The root of the keyed Merkle tree over `data`, split into
/// `chunk_size`-byte chunks (the last may be short) and padded with
/// empty leaves to a power of two.
///
/// The leaf row is hashed two leaves at a time, then each level is
/// folded in place into the front of the row, two parents per
/// `node_hash` call, until one node is left.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn root(key: &[u8; 32], data: &[u8], chunk_size: usize) -> Digest {
    assert!(chunk_size > 0, "chunk size must be positive");
    let padded = data.len().div_ceil(chunk_size).max(1).next_power_of_two();
    let leaves = data
        .chunks(chunk_size)
        .chain(std::iter::repeat(&[][..]))
        .take(padded)
        .enumerate();
    let mut nodes = vec![[0u8; 32]; padded];
    LeafMac::new(key).hash_leaves(leaves, &mut nodes);
    // Parent `k` overwrites node `k`: every write lands below the
    // children still to be read (`2k` onward), and a call reads its
    // children before it writes.
    let mut width = padded / 2;
    while width > 0 {
        for k in (0..width).step_by(2) {
            let children = |k: usize| (&nodes[2 * k], &nodes[2 * k + 1]);
            if k + 1 < width {
                [nodes[k], nodes[k + 1]] = node_hash([children(k), children(k + 1)]);
            } else {
                [nodes[k]] = node_hash([children(k)]);
            }
        }
        width /= 2;
    }
    nodes[0]
}

/// The tree's leaf hash, HMAC-SHA256 over `"merkle-leaf-v1" || index
/// (u64 LE) || chunk`, held as the two SHA-256 midstates every leaf
/// under the key starts from (after the `ipad` and `opad` key blocks),
/// taken once per root.
struct LeafMac(HmacKey);

impl LeafMac {
    fn new(key: &[u8; 32]) -> LeafMac {
        LeafMac(HmacKey::new(key))
    }

    /// Hashes each `(index, chunk)` of `leaves` into the next slot of
    /// `out`, two leaves at a time wherever neighbouring chunks have the
    /// same length.
    fn hash_leaves<'a>(
        &self,
        leaves: impl IntoIterator<Item = (usize, &'a [u8])>,
        out: &mut [Digest],
    ) {
        let mut leaves = leaves.into_iter().peekable();
        let mut out = out.iter_mut();
        while let (Some(a), Some(slot)) = (leaves.next(), out.next()) {
            match leaves.next_if(|b| b.1.len() == a.1.len()) {
                Some(b) => {
                    let [da, db] = self.hash([a, b]);
                    *slot = da;
                    *out.next().expect("a slot per leaf") = db;
                }
                None => [*slot] = self.hash([a]),
            }
        }
    }

    /// The leaf hashes of `N` leaves whose chunks have one length: the
    /// inner hashes run as `N` SHA-256 lanes from the `ipad` midstate,
    /// then the one-block outer hashes as `N` lanes from the `opad`
    /// midstate ([`HmacKey::finish`]).
    ///
    /// Each inner message is `"merkle-leaf-v1" || index || chunk` and its
    /// padding. The whole blocks that lie inside the chunk are hashed
    /// where they are; the first block and the ragged end are assembled
    /// on the stack.
    fn hash<const N: usize>(&self, leaves: [(usize, &[u8]); N]) -> [Digest; N] {
        let message_len = LEAF_PREFIX + leaves[0].1.len();
        let padded_len = (message_len + 9).next_multiple_of(64);
        let bits = ((64 + message_len) as u64 * 8).to_be_bytes();
        let prefix = |message: &mut [u8], index: usize| {
            message[..LEAF_TAG.len()].copy_from_slice(LEAF_TAG);
            message[LEAF_TAG.len()..LEAF_PREFIX].copy_from_slice(&(index as u64).to_le_bytes());
        };
        let mut inner = [self.0.inner; N];
        if message_len < 2 * 64 {
            // No whole block inside the chunk: assemble all of it.
            let mut messages = [[0u8; 3 * 64]; N];
            for (message, (index, chunk)) in messages.iter_mut().zip(leaves) {
                prefix(message, index);
                message[LEAF_PREFIX..message_len].copy_from_slice(chunk);
                message[message_len] = 0x80;
                message[padded_len - 8..padded_len].copy_from_slice(&bits);
            }
            sha256::compress_lanes(&mut inner, messages.each_ref().map(|m| &m[..padded_len]));
        } else {
            // Block 0 is the prefix and the chunk's first `HEAD` bytes;
            // `body` bytes of whole blocks follow inside the chunk.
            const HEAD: usize = 64 - LEAF_PREFIX;
            let body = (message_len / 64 - 1) * 64;
            let tail_len = padded_len - 64 - body;
            let mut heads = [[0u8; 64]; N];
            let mut tails = [[0u8; 2 * 64]; N];
            for ((head, tail), (index, chunk)) in heads.iter_mut().zip(&mut tails).zip(leaves) {
                prefix(head, index);
                head[LEAF_PREFIX..].copy_from_slice(&chunk[..HEAD]);
                let rest = &chunk[HEAD + body..];
                tail[..rest.len()].copy_from_slice(rest);
                tail[rest.len()] = 0x80;
                tail[tail_len - 8..tail_len].copy_from_slice(&bits);
            }
            sha256::compress_lanes(&mut inner, heads.each_ref().map(|h| &h[..]));
            sha256::compress_lanes(
                &mut inner,
                leaves.map(|(_, chunk)| &chunk[HEAD..HEAD + body]),
            );
            sha256::compress_lanes(&mut inner, tails.each_ref().map(|t| &t[..tail_len]));
        }

        self.0.finish(&inner)
    }
}

/// The inner-node hashes `SHA-256("merkle-node-v1" || left || right)`
/// of `N` child pairs, as `N` SHA-256 lanes.
fn node_hash<const N: usize>(children: [(&Digest, &Digest); N]) -> [Digest; N] {
    let mut blocks = [NODE_TEMPLATE; N];
    for (block, (left, right)) in blocks.iter_mut().zip(children) {
        block[NODE_LEFT..NODE_LEFT + 32].copy_from_slice(left);
        block[NODE_LEFT + 32..NODE_LEFT + 64].copy_from_slice(right);
    }
    let mut states = [sha256::H0; N];
    sha256::compress_lanes(&mut states, blocks.each_ref().map(|b| &b[..]));
    states.map(|state| sha256::state_digest(&state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::HmacSha256;
    use crate::sha256::Sha256;
    use proptest::prelude::*;

    /// The root over `leaves` (a power-of-two row, padding leaves
    /// included) computed the way the tree was first written: a clone
    /// of one keyed `HmacSha256` per leaf fed the tag, index and chunk,
    /// and `Sha256::digest_parts` per inner node. Every root the
    /// platform computes goes through the paired leaf and node code, so
    /// this oracle is the only independent check of the leaf and node
    /// format.
    fn oracle_root(key: &[u8; 32], leaves: &[Vec<u8>]) -> Digest {
        let mac = HmacSha256::new(key);
        let mut level: Vec<Digest> = leaves
            .iter()
            .enumerate()
            .map(|(index, chunk)| {
                let mut leaf = mac.clone();
                leaf.update(b"merkle-leaf-v1");
                leaf.update(&(index as u64).to_le_bytes());
                leaf.update(chunk);
                leaf.finalize()
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks_exact(2)
                .map(|pair| Sha256::digest_parts(&[b"merkle-node-v1", &pair[0], &pair[1]]))
                .collect();
        }
        level[0]
    }

    /// `data`'s chunks as the padded leaf row: short tail, then empty
    /// padding leaves up to a power of two.
    fn leaf_row(data: &[u8], chunk_size: usize) -> Vec<Vec<u8>> {
        let padded = data.len().div_ceil(chunk_size).max(1).next_power_of_two();
        (0..padded)
            .map(|i| {
                let start = (i * chunk_size).min(data.len());
                data[start..data.len().min(start + chunk_size)].to_vec()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The root agrees with the oracle over ragged, empty and
        /// padding leaves, at lengths around the 256 KiB a served buffer
        /// holds, on every backend.
        #[test]
        fn tree_matches_the_per_leaf_hmac_oracle(
            key in prop::array::uniform32(any::<u8>()),
            len in (0usize..4).prop_flat_map(|pick| match pick {
                0 => 262_143usize..262_146,
                _ => 0usize..4097,
            }),
            chunk_size in (0usize..5).prop_map(|i| [1usize, 41, 64, 256, 1000][i]),
            fill in any::<u8>(),
        ) {
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ fill).collect();
            let fast = crate::on_every_backend(|| root(&key, &data, chunk_size));
            prop_assert_eq!(fast, oracle_root(&key, &leaf_row(&data, chunk_size)));
        }
    }

    fn tree_root(data: &[u8]) -> Digest {
        root(&[7; 32], data, 16)
    }

    #[test]
    fn root_changes_with_any_chunk() {
        let data = vec![1u8; 100];
        for i in 0..data.len().div_ceil(16) {
            let mut modified = data.clone();
            modified[i * 16] ^= 1;
            assert_ne!(tree_root(&data), tree_root(&modified), "chunk {i}");
        }
    }

    #[test]
    fn different_keys_different_roots() {
        let data = vec![4u8; 64];
        assert_ne!(root(&[1; 32], &data, 16), root(&[2; 32], &data, 16));
    }

    #[test]
    fn non_power_of_two_and_ragged_tail() {
        // 5 chunks, last one short, padded with three empty leaves.
        let data = vec![5u8; 16 * 4 + 7];
        let row = leaf_row(&data, 16);
        assert_eq!(row.len(), 8);
        assert_eq!(row[4].len(), 7);
        assert_eq!(tree_root(&data), oracle_root(&[7; 32], &row));
    }

    #[test]
    fn empty_data_builds() {
        assert_eq!(tree_root(&[]), oracle_root(&[7; 32], &[Vec::new()]));
    }

    #[test]
    fn swapped_chunks_detected() {
        // Chunk-index binding: swapping the contents of two chunks
        // changes the root.
        let mut data = vec![0u8; 64];
        data[0..16].fill(0xAA);
        data[16..32].fill(0xBB);
        let mut swapped = data.clone();
        swapped[0..16].fill(0xBB);
        swapped[16..32].fill(0xAA);
        assert_ne!(tree_root(&data), tree_root(&swapped));
    }
}
