//! Binary Merkle tree over fixed-size chunks (SHA-256).
//!
//! The paper's threat model delegates device-memory confidentiality *and
//! integrity* to the developer ("there are many research efforts
//! targeting to provide efficient and flexible memory integrity and
//! confidentiality protection", §3.1 — citing Bonsai-Merkle-tree
//! designs). This module provides the integrity half for the
//! reproduction's DRAM shim: a keyed Merkle tree whose root functions as
//! the authenticated state of an untrusted memory region, with
//! incremental single-chunk updates.
//!
//! A leaf is `HMAC-SHA256(key, "merkle-leaf-v1" || index (u64 LE) ||
//! chunk)` and an inner node `SHA-256("merkle-node-v1" || left ||
//! right)`. Every leaf starts from the two SHA-256 midstates the key
//! gives (after its `ipad` and `opad` blocks), taken once per tree, and
//! reads the whole blocks inside its chunk in place. Neighbouring leaves,
//! and neighbouring nodes of one level, are compressed two at a time, as
//! two lanes of one SHA-NI kernel call. A 256-byte leaf costs six
//! compressions and an inner node two.

use crate::parallel;
use crate::sha256::{self, Digest};

/// Domain tag that opens every leaf's HMAC message.
const LEAF_TAG: &[u8; 14] = b"merkle-leaf-v1";

/// Bytes of a leaf message ahead of its chunk: the tag and the index.
const LEAF_PREFIX: usize = LEAF_TAG.len() + 8;

/// An inner node's SHA-256 input, `"merkle-node-v1" || left || right`
/// with its padding (two blocks), the children left blank at
/// [`NODE_LEFT`].
const NODE_TEMPLATE: [u8; 128] = padded(b"merkle-node-v1", NODE_LEFT + 64, 0);

/// Offset of the left child in [`NODE_TEMPLATE`]; the right follows it.
const NODE_LEFT: usize = 14;

/// A leaf's outer message after the `opad` block, the 32-byte inner
/// digest (left blank) with its padding: one block.
const OUTER_TEMPLATE: [u8; 64] = padded(b"", 32, 64);

/// `LEN` bytes holding `tag`, then blanks up to byte `end`, then the
/// SHA-256 padding of a message that ends there after `hashed` bytes
/// already absorbed.
const fn padded<const LEN: usize>(tag: &[u8], end: usize, hashed: usize) -> [u8; LEN] {
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

/// A Merkle tree over `chunk_count` fixed-size chunks.
///
/// Leaves are keyed hashes (preventing cross-tree confusion), inner
/// nodes are SHA-256 over child pairs with domain separation. The tree
/// is stored as a flat array of `2 * padded_leaves` digests.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    leaf_mac: LeafMac,
    chunk_size: usize,
    leaves: usize,
    /// nodes[1] is the root; nodes[i] has children nodes[2i], nodes[2i+1].
    nodes: Vec<Digest>,
}

/// The tree's leaf hash, HMAC-SHA256 over `"merkle-leaf-v1" || index
/// (u64 LE) || chunk`, held as the two SHA-256 midstates every leaf
/// under the key starts from (after the `ipad` and `opad` key blocks),
/// taken once per tree.
#[derive(Debug, Clone)]
struct LeafMac {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl LeafMac {
    fn new(key: &[u8; 32]) -> LeafMac {
        let [inner, outer] = crate::hmac::pad_midstates(key);
        LeafMac { inner, outer }
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
    /// midstate.
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
        let mut inner = [self.inner; N];
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

        // The outer message after `opad` is the 32-byte inner digest.
        let mut blocks = [OUTER_TEMPLATE; N];
        for (block, inner) in blocks.iter_mut().zip(&inner) {
            block[..32].copy_from_slice(&sha256::state_digest(inner));
        }
        let mut outer = [self.outer; N];
        sha256::compress_lanes(&mut outer, blocks.each_ref().map(|b| &b[..]));
        outer.map(|state| sha256::state_digest(&state))
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

/// Recomputes each of `parents` from its two children, two nodes at a
/// time: every node must come after its children, and two consecutive
/// nodes, hashed together, must not lie on one path.
fn rehash(nodes: &mut [Digest], parents: impl IntoIterator<Item = usize>) {
    let mut parents = parents.into_iter();
    while let Some(a) = parents.next() {
        let children = |i: usize| (&nodes[2 * i], &nodes[2 * i + 1]);
        match parents.next() {
            Some(b) => [nodes[a], nodes[b]] = node_hash([children(a), children(b)]),
            None => [nodes[a]] = node_hash([children(a)]),
        }
    }
}

impl MerkleTree {
    /// Builds a tree over `data`, split into `chunk_size`-byte chunks
    /// (the last chunk may be short), keyed by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn build(key: &[u8; 32], data: &[u8], chunk_size: usize) -> MerkleTree {
        Self::build_with_workers(key, data, chunk_size, 1)
    }

    /// Builds the same tree as [`build`](MerkleTree::build), striping
    /// leaf hashing and the inner rebuild across scoped worker threads.
    ///
    /// Workers each build one aligned subtree (a power-of-two leaf
    /// range) bottom-up in private storage; the main thread stitches
    /// the subtrees into the flat node array and finishes the top
    /// `log2(workers)` levels. Output is bit-identical to the serial
    /// build — the tests pin that differentially.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn build_parallel(key: &[u8; 32], data: &[u8], chunk_size: usize) -> MerkleTree {
        Self::build_with_workers(key, data, chunk_size, parallel::worker_count(data.len()))
    }

    /// [`build_parallel`](MerkleTree::build_parallel) with an explicit
    /// worker budget (rounded down to a power of two and capped at the
    /// leaf row, since workers own aligned subtrees).
    fn build_with_workers(
        key: &[u8; 32],
        data: &[u8],
        chunk_size: usize,
        workers: usize,
    ) -> MerkleTree {
        assert!(chunk_size > 0, "chunk size must be positive");
        let leaves = data.len().div_ceil(chunk_size).max(1);
        let padded = leaves.next_power_of_two();
        let workers = if workers.is_power_of_two() {
            workers
        } else {
            workers.next_power_of_two() / 2
        }
        .min(padded);
        let leaf_mac = LeafMac::new(key);
        let subtree = |first: usize, count: usize| -> Vec<Digest> {
            let chunks = (first..first + count).map(|i| {
                let start = i * chunk_size;
                let chunk = data
                    .get(start..data.len().min(start + chunk_size))
                    .unwrap_or(&[]);
                (i, chunk)
            });
            let mut nodes = vec![[0u8; 32]; 2 * count];
            leaf_mac.hash_leaves(chunks, &mut nodes[count..]);
            rehash(&mut nodes, (1..count).rev());
            nodes
        };

        let nodes = if workers <= 1 {
            subtree(0, padded)
        } else {
            let sub = padded / workers;
            let locals: Vec<Vec<Digest>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || subtree(w * sub, sub)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panics"))
                    .collect()
            });
            // Stitch: local node `2^d + k` of worker `w`'s subtree is
            // main node `(workers + w) · 2^d + k`.
            let mut nodes = vec![[0u8; 32]; 2 * padded];
            for (w, local) in locals.into_iter().enumerate() {
                let root = workers + w;
                for (j, digest) in local.into_iter().enumerate().skip(1) {
                    let d = j.ilog2();
                    let k = j - (1 << d);
                    nodes[(root << d) + k] = digest;
                }
            }
            rehash(&mut nodes, (1..workers).rev());
            nodes
        };
        MerkleTree {
            leaf_mac,
            chunk_size,
            leaves,
            nodes,
        }
    }

    fn padded(&self) -> usize {
        self.nodes.len() / 2
    }

    /// The chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of (real) leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The authenticated root.
    pub fn root(&self) -> Digest {
        self.nodes[1]
    }

    /// Recomputes the path after chunk `index` changed to `chunk`,
    /// returning the new root.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn update_chunk(&mut self, index: usize, chunk: &[u8]) -> Digest {
        self.update_chunks(&[(index, chunk)])
    }

    /// Batched [`update_chunk`](MerkleTree::update_chunk): re-hashes
    /// every listed leaf, then refreshes each dirty interior node
    /// exactly once per level (two dirty siblings share one parent
    /// recomputation), returning the new root. Cost is O(k·log n) for
    /// `k` dirty chunks instead of k separate O(log n) walks re-hashing
    /// shared ancestors repeatedly — and far below the O(n) full
    /// rebuild the integrity hot path used to pay.
    ///
    /// Duplicate indices are permitted; the later entry wins, matching
    /// a sequence of single updates. Leaf hashing runs on scoped
    /// worker threads when the batch is large enough to pay for them.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn update_chunks(&mut self, updates: &[(usize, &[u8])]) -> Digest {
        let padded = self.padded();
        for &(index, _) in updates {
            assert!(index < padded, "chunk index out of range");
        }
        if updates.is_empty() {
            return self.root();
        }

        let total_bytes: usize = updates.iter().map(|(_, c)| c.len()).sum();
        let workers = parallel::worker_count(total_bytes).min(updates.len());
        let mut digests = vec![[0u8; 32]; updates.len()];
        let mac = &self.leaf_mac;
        if workers <= 1 {
            mac.hash_leaves(updates.iter().copied(), &mut digests);
        } else {
            let per_worker = updates.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (updates, digests) in updates
                    .chunks(per_worker)
                    .zip(digests.chunks_mut(per_worker))
                {
                    scope.spawn(move || mac.hash_leaves(updates.iter().copied(), digests));
                }
            });
        }

        let mut dirty: Vec<usize> = Vec::with_capacity(updates.len());
        for (&(index, _), digest) in updates.iter().zip(&digests) {
            self.nodes[padded + index] = *digest;
            dirty.push(padded + index);
        }
        dirty.sort_unstable();
        dirty.dedup();
        while dirty[0] > 1 {
            for node in dirty.iter_mut() {
                *node /= 2;
            }
            dirty.dedup();
            rehash(&mut self.nodes, dirty.iter().copied());
        }
        self.root()
    }

    /// Verifies that `chunk` is the current contents of `index` under
    /// `root` — the check a verifier with only the root performs, using
    /// the authentication path.
    pub fn verify_chunk(&self, root: &Digest, index: usize, chunk: &[u8]) -> bool {
        if index >= self.padded() {
            return false;
        }
        let [mut acc] = self.leaf_mac.hash([(index, chunk)]);
        let mut node = self.padded() + index;
        while node > 1 {
            let sibling = self.nodes[node ^ 1];
            [acc] = if node.is_multiple_of(2) {
                node_hash([(&acc, &sibling)])
            } else {
                node_hash([(&sibling, &acc)])
            };
            node /= 2;
        }
        crate::ct::eq(&acc, root)
    }
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
    /// and `Sha256::digest_parts` per inner node. The fast path and
    /// `build_parallel` share the paired leaf and node code (so does
    /// the integrity engine's full-rebuild mode), so this oracle is the
    /// only independent check of the leaf and node format.
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

        /// Build, single and batched updates (duplicates, ragged and
        /// empty contents, padding leaves) and path verification all
        /// agree with the oracle, on every backend.
        #[test]
        fn tree_matches_the_per_leaf_hmac_oracle(
            key in prop::array::uniform32(any::<u8>()),
            len in (0usize..4).prop_flat_map(|pick| match pick {
                0 => 262_143usize..262_146,
                _ => 0usize..4097,
            }),
            chunk_size in (0usize..5).prop_map(|i| [1usize, 41, 64, 256, 1000][i]),
            fill in any::<u8>(),
            edits in prop::collection::vec((any::<u32>(), 0u8..3, any::<u8>()), 1..10),
        ) {
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ fill).collect();
            let row = leaf_row(&data, chunk_size);
            let padded = row.len();
            // Full, ragged and empty contents at any leaf, padding leaves
            // included; the first edit repeats last, so a later duplicate
            // must win.
            let mut updates: Vec<(usize, Vec<u8>)> = edits
                .iter()
                .map(|&(at, kind, byte)| {
                    let len = match kind {
                        0 => chunk_size,
                        1 => at as usize % chunk_size,
                        _ => 0,
                    };
                    (at as usize % padded, vec![byte; len])
                })
                .collect();
            let first = updates[0].0;
            updates.push((first, vec![fill; chunk_size / 2]));

            let (fast, oracle, verdicts) = crate::on_every_backend(|| {
                let mut tree = MerkleTree::build(&key, &data, chunk_size);
                let mut fast = vec![tree.root()];
                let mut oracle = vec![oracle_root(&key, &row)];
                let mut edited = row.clone();

                let (index, chunk) = &updates[0];
                fast.push(tree.update_chunk(*index, chunk));
                edited[*index] = chunk.clone();
                oracle.push(oracle_root(&key, &edited));

                let batch: Vec<(usize, &[u8])> =
                    updates.iter().map(|(i, c)| (*i, c.as_slice())).collect();
                fast.push(tree.update_chunks(&batch));
                for (index, chunk) in &updates {
                    edited[*index] = chunk.clone();
                }
                let root = oracle_root(&key, &edited);
                oracle.push(root);

                // Every edited leaf verifies under the oracle's root with
                // its contents, and not with a byte changed.
                let verdicts: Vec<(bool, bool)> = updates
                    .iter()
                    .map(|(index, _)| {
                        let mut wrong = edited[*index].clone();
                        match wrong.first_mut() {
                            Some(byte) => *byte ^= 1,
                            None => wrong.push(0),
                        }
                        (
                            tree.verify_chunk(&root, *index, &edited[*index]),
                            tree.verify_chunk(&root, *index, &wrong),
                        )
                    })
                    .collect();
                (fast, oracle, verdicts)
            });
            prop_assert_eq!(fast, oracle);
            prop_assert!(verdicts.iter().all(|&verdict| verdict == (true, false)));
        }
    }

    fn tree(data: &[u8]) -> MerkleTree {
        MerkleTree::build(&[7; 32], data, 16)
    }

    #[test]
    fn root_changes_with_any_chunk() {
        let data = vec![1u8; 100];
        let t = tree(&data);
        for i in 0..t.leaf_count() {
            let mut modified = data.clone();
            modified[i * 16] ^= 1;
            let m = tree(&modified);
            assert_ne!(t.root(), m.root(), "chunk {i}");
        }
    }

    #[test]
    fn incremental_update_matches_rebuild() {
        let mut data = vec![2u8; 200];
        let mut t = tree(&data);
        data[37] = 99;
        let chunk_index = 37 / 16;
        let chunk = &data[chunk_index * 16..(chunk_index + 1) * 16];
        let updated_root = t.update_chunk(chunk_index, chunk);
        assert_eq!(updated_root, tree(&data).root());
    }

    #[test]
    fn verify_chunk_accepts_current_and_rejects_stale() {
        let data = vec![3u8; 64];
        let mut t = tree(&data);
        let root = t.root();
        assert!(t.verify_chunk(&root, 1, &data[16..32]));
        assert!(!t.verify_chunk(&root, 1, &[0u8; 16]));
        // Stale root after an update.
        let new_root = t.update_chunk(1, &[9u8; 16]);
        assert!(!t.verify_chunk(&root, 1, &[9u8; 16]));
        assert!(t.verify_chunk(&new_root, 1, &[9u8; 16]));
    }

    #[test]
    fn different_keys_different_roots() {
        let data = vec![4u8; 64];
        let a = MerkleTree::build(&[1; 32], &data, 16);
        let b = MerkleTree::build(&[2; 32], &data, 16);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn non_power_of_two_and_ragged_tail() {
        // 5 chunks, last one short.
        let data = vec![5u8; 16 * 4 + 7];
        let t = tree(&data);
        assert_eq!(t.leaf_count(), 5);
        assert!(t.verify_chunk(&t.root(), 4, &data[64..]));
    }

    #[test]
    fn empty_data_builds() {
        let t = tree(&[]);
        assert_eq!(t.leaf_count(), 1);
        assert!(t.verify_chunk(&t.root(), 0, &[]));
    }

    #[test]
    fn batched_update_matches_sequential_updates_and_rebuild() {
        let mut data = vec![6u8; 16 * 11 + 3]; // 12 leaves, padded to 16
        let mut batched = tree(&data);
        let mut sequential = batched.clone();

        // Touch chunks 0, 3, 7, 11 (the ragged tail) plus a duplicate
        // of 3 — later entry must win.
        for (i, v) in [
            (0usize, 0x11u8),
            (3, 0x22),
            (7, 0x33),
            (11, 0x44),
            (3, 0x55),
        ] {
            let start = i * 16;
            let end = data.len().min(start + 16);
            data[start..end].fill(v);
        }
        let chunks: Vec<(usize, Vec<u8>)> = [0usize, 3, 7, 11, 3]
            .iter()
            .map(|&i| {
                let start = i * 16;
                (i, data[start..data.len().min(start + 16)].to_vec())
            })
            .collect();
        let mut updates: Vec<(usize, &[u8])> = Vec::new();
        // Replay duplicates in order, with the final contents last.
        for (i, (index, chunk)) in chunks.iter().enumerate() {
            let payload: &[u8] = if i == 1 { &[0x22; 16] } else { chunk };
            updates.push((*index, payload));
        }
        let batched_root = batched.update_chunks(&updates);
        for (index, chunk) in &updates {
            sequential.update_chunk(*index, chunk);
        }
        assert_eq!(batched_root, sequential.root());
        assert_eq!(batched_root, tree(&data).root());
    }

    #[test]
    fn empty_update_batch_is_a_no_op() {
        let mut t = tree(&[1u8; 100]);
        let before = t.root();
        assert_eq!(t.update_chunks(&[]), before);
    }

    #[test]
    #[should_panic(expected = "chunk index out of range")]
    fn update_chunks_rejects_out_of_range_index() {
        let mut t = tree(&[1u8; 64]); // 4 leaves
        t.update_chunks(&[(99, &[0u8; 16])]);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // Sizes straddling the worker threshold, ragged tails, and a
        // single-leaf tree; several chunk sizes.
        for len in [
            0usize,
            5,
            256,
            4096,
            2 * crate::parallel::MIN_BYTES_PER_THREAD + 13,
            4 * crate::parallel::MIN_BYTES_PER_THREAD,
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            for chunk_size in [16usize, 256, 1000] {
                let serial = MerkleTree::build(&[7; 32], &data, chunk_size);
                // An explicit worker budget exercises the subtree
                // stitching even on a single-core host; build_parallel
                // itself covers the hardware-derived budget.
                for workers in [1usize, 2, 4, 8, 13] {
                    let par = MerkleTree::build_with_workers(&[7; 32], &data, chunk_size, workers);
                    assert_eq!(
                        serial.nodes, par.nodes,
                        "len={len} chunk={chunk_size} workers={workers}"
                    );
                    assert_eq!(serial.leaf_count(), par.leaf_count());
                }
                let par = MerkleTree::build_parallel(&[7; 32], &data, chunk_size);
                assert_eq!(serial.nodes, par.nodes, "len={len} chunk={chunk_size}");
            }
        }
    }

    #[test]
    fn parallel_build_supports_incremental_updates() {
        let len = 2 * crate::parallel::MIN_BYTES_PER_THREAD;
        let mut data: Vec<u8> = (0..len).map(|i| (i % 127) as u8).collect();
        let mut t = MerkleTree::build_parallel(&[9; 32], &data, 256);
        data[777] ^= 0xFF;
        let chunk = 777 / 256;
        t.update_chunks(&[(chunk, &data[chunk * 256..(chunk + 1) * 256])]);
        assert_eq!(t.root(), MerkleTree::build(&[9; 32], &data, 256).root());
    }

    #[test]
    fn builds_and_updates_agree_across_backends() {
        let data: Vec<u8> = (0..5000).map(|i| (i * 7 % 256) as u8).collect();
        crate::on_every_backend(|| {
            let mut roots = Vec::new();
            for chunk_size in [16usize, 100, 256] {
                let mut t = MerkleTree::build(&[3; 32], &data, chunk_size);
                roots.push(t.root());
                roots.push(t.update_chunk(1, &[0xab; 16]));
                roots.push(t.update_chunks(&[(0, &[1u8; 5][..]), (2, &[2u8; 9][..])]));
                roots.push(MerkleTree::build_with_workers(&[3; 32], &data, chunk_size, 4).root());
            }
            roots
        });
    }

    #[test]
    fn swapped_chunks_detected() {
        // Chunk-index binding: swapping two equal-looking positions of
        // different content fails verification.
        let mut data = vec![0u8; 64];
        data[0..16].fill(0xAA);
        data[16..32].fill(0xBB);
        let t = tree(&data);
        let root = t.root();
        assert!(!t.verify_chunk(&root, 0, &data[16..32]));
        assert!(!t.verify_chunk(&root, 1, &data[0..16]));
    }
}
