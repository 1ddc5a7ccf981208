//! x86-64 hardware kernels for AES, SHA-256, GHASH and CRC-32, chosen
//! per call by runtime CPU-feature detection.
//!
//! Everything else in the crate — CTR, GCM's GCTR and hash key, CMAC,
//! HMAC, HKDF, the DRBG and the Merkle root — sits on the AES block
//! cipher, its keystream loop and the SHA-256 compression function, and
//! GCM's tag on the GHASH fold, so these kernels speed up every layer
//! without an API change. Output is byte-identical to the portable T-table AES,
//! scalar SHA-256 and 8-bit-table GHASH, which run whenever a kernel's
//! features are missing and which the tests compare the kernels
//! against on every host.
//!
//! * **AES-NI** (`aes`): one block per call for keys, tags and single
//!   blocks; [`LANES`] counter blocks in flight per iteration for CTR and
//!   GCTR keystreams — enough independent `aesenc` chains to hide the
//!   instruction's latency.
//! * **SHA-NI** (`sha` with `ssse3` and `sse4.1`): `sha256rnds2` over a
//!   whole run of 64-byte blocks per call, for a const number `N` of
//!   independent messages at once. One round loop serves every `N`: each
//!   step runs for all lanes, whose `sha256rnds2` chains are independent,
//!   so the out-of-order core overlaps them. `Sha256::update` runs one
//!   lane; the Merkle root runs two, pairing sibling leaves and nodes. On
//!   the 2-vCPU Xeon the benchmarks ran on, two lanes compress ~10–15%
//!   more blocks per second than one, and four no more than two. A
//!   one-block HMAC (`hmac_one_block`) runs its inner and outer
//!   compressions in one call, handing the inner state to the outer
//!   message in registers.
//! * **PCLMULQDQ** (`pclmulqdq`): carry-less 64×64-bit multiplies for
//!   GHASH, four blocks folded per reduction against precomputed
//!   `H⁴, H³, H², H` (Gueron and Kounavis, "Intel Carry-Less
//!   Multiplication Instruction and its Usage for Computing the GCM
//!   Mode"). Blocks stay in GCM's bit-reflected order; the keys come in
//!   pre-multiplied by `x⁻¹`, which absorbs the one-bit shift a
//!   reflected carry-less product needs, and each 256-bit sum is reduced
//!   modulo `x¹²⁸ + x⁷ + x² + x + 1` with shifts alone. Like the others,
//!   its one `unsafe` call follows the check for its one feature
//!   (`pclmulqdq`); everything else it runs is SSE2, which x86-64
//!   guarantees.
//! * **VAES and VPCLMULQDQ** on 512-bit registers (with `avx512f` and
//!   `avx512bw`; all four features gate both kernels). The keystream
//!   kernel runs four blocks per `vaesenc` and four registers in
//!   flight, 16 blocks per iteration. Its counters never leave the
//!   registers: a [`CounterKind`] says how they step, and each is held
//!   with its counting word byte-swapped so one lane add steps all four
//!   blocks — in the last dword for GCM's `inc32`, in the last qword for
//!   CTR's 128-bit counter, whose call goes to AES-NI instead when its
//!   low 64 bits would carry. The GHASH kernel multiplies 16 blocks by
//!   `H¹⁶ … H` per iteration, XOR-folds the four lanes and reduces once
//!   (Drucker and Gueron, ARITH 2018). Both hand ragged ends to the
//!   AES-NI and PCLMULQDQ kernels above, which remain the only path on
//!   CPUs without AVX-512.
//! * **PCLMULQDQ** again for CRC-32, after Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction"
//!   (Intel, 2009): four 128-bit accumulators fold 64 bytes per step
//!   against `x^(4·128±32) mod P`, then fold into one, then 128 → 64 →
//!   32 bits, and a Barrett reduction leaves the CRC register. The
//!   message stays in memory order, which for the reflected CRC is
//!   already the order the carry-less products want.
//!
//! This is the only module of the crate allowed `unsafe`, and it needs
//! it for one operation: calling a `#[target_feature]` function, which is
//! undefined behaviour on a CPU without those features. Each such call is
//! the sole content of its `unsafe` block and sits right after the
//! `is_x86_feature_detected!` check for exactly the features the callee
//! enables. The kernels themselves are safe code: they use no
//! pointer-taking intrinsics — blocks move in and out of registers by
//! value (`_mm_set_epi64x`, `_mm512_set_epi64`, `_mm_cvtsi128_si64`) —
//! so every slice access is bounds-checked as anywhere else.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_add_epi64, _mm512_aesenc_epi128,
    _mm512_aesenclast_epi128, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128,
    _mm512_extracti32x4_epi32, _mm512_set_epi32, _mm512_set_epi64, _mm512_setzero_si512,
    _mm512_shuffle_epi8, _mm512_xor_si512, _mm512_zextsi128_si512, _mm_add_epi32, _mm_aesenc_si128,
    _mm_aesenclast_si128, _mm_alignr_epi8, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64,
    _mm_cvtsi32_si128, _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32,
    _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
    _mm_slli_epi64, _mm_slli_si128, _mm_srli_epi64, _mm_srli_si128, _mm_unpackhi_epi64,
    _mm_unpacklo_epi64, _mm_xor_si128,
};

use crate::aes::{Block, CounterKind, BLOCK_SIZE, MAX_ROUND_KEYS};
use crate::sha256::{Digest, DIGEST_SIZE, K};

/// Counter blocks in flight per keystream iteration of the AES-NI
/// kernel.
const LANES: usize = 8;

/// Blocks per 512-bit register, and registers in flight per iteration
/// of the wide keystream and GHASH kernels.
const WIDE_LANES: usize = 4;
const WIDE_REGS: usize = 4;
/// Bytes one wide iteration covers: 16 blocks.
const WIDE_BYTES: usize = WIDE_REGS * WIDE_LANES * BLOCK_SIZE;

/// Whether the CPU has AES-NI (SSE2 is part of the x86-64 baseline).
fn has_aes() -> bool {
    #[cfg(test)]
    if portable_forced() {
        return false;
    }
    is_x86_feature_detected!("aes")
}

/// Whether the CPU has the 512-bit AES and carry-less multiply (VAES,
/// VPCLMULQDQ) plus the AVX-512 foundation and byte/word instructions
/// the wide kernels use.
fn has_wide() -> bool {
    #[cfg(test)]
    if narrow_forced() {
        return false;
    }
    is_x86_feature_detected!("vaes")
        && is_x86_feature_detected!("vpclmulqdq")
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
}

/// Whether the CPU has the SHA extensions plus the SSSE3 byte shuffle
/// and SSE4.1 instructions the SHA kernel uses.
fn has_sha() -> bool {
    #[cfg(test)]
    if portable_forced() {
        return false;
    }
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Whether the CPU has the carry-less multiply.
fn has_clmul() -> bool {
    #[cfg(test)]
    if portable_forced() {
        return false;
    }
    is_x86_feature_detected!("pclmulqdq")
}

/// The kernels this host dispatches to, `+`-joined, or `portable`.
pub(crate) fn backend() -> &'static str {
    const NAMES: [&str; 16] = [
        "portable",
        "aesni",
        "shani",
        "aesni+shani",
        "pclmul",
        "aesni+pclmul",
        "shani+pclmul",
        "aesni+shani+pclmul",
        "vaes+vpclmul",
        "aesni+vaes+vpclmul",
        "shani+vaes+vpclmul",
        "aesni+shani+vaes+vpclmul",
        "pclmul+vaes+vpclmul",
        "aesni+pclmul+vaes+vpclmul",
        "shani+pclmul+vaes+vpclmul",
        "aesni+shani+pclmul+vaes+vpclmul",
    ];
    NAMES[usize::from(has_aes())
        | usize::from(has_sha()) << 1
        | usize::from(has_clmul()) << 2
        | usize::from(has_wide()) << 3]
}

/// Encrypts `block` under `round_keys` (the FIPS 197 schedule) with
/// AES-NI, if the CPU has it. Returns whether it did.
pub(crate) fn encrypt_block(round_keys: &[Block], block: &mut Block) -> bool {
    if !has_aes() {
        return false;
    }
    // SAFETY: `has_aes` just confirmed AES-NI, the one feature
    // `aes_block` enables beyond the x86-64 baseline.
    *block = unsafe { aes_block(round_keys, block) };
    true
}

/// XORs the keystream `E(c₀), E(c₁), …` into each whole 16-byte block
/// of `data`, where `c₀ = first` and `kind` steps each counter block to
/// the next; a trailing partial block is left untouched. Runs the wide
/// kernel if the CPU has it, else AES-NI if it has that. Returns
/// whether it ran.
pub(crate) fn xor_keystream(
    round_keys: &[Block],
    data: &mut [u8],
    first: Block,
    kind: CounterKind,
) -> bool {
    let first = u128::from_be_bytes(first);
    let blocks = (data.len() / BLOCK_SIZE) as u128;
    if has_wide() && !carries_out_of_a_lane(first, blocks, kind) {
        // SAFETY: `has_wide` just confirmed VAES, VPCLMULQDQ, AVX512F
        // and AVX512BW — exactly the features `vaes_xor_keystream`
        // enables.
        unsafe { vaes_xor_keystream(round_keys, data, first, kind) };
        return true;
    }
    if !has_aes() {
        return false;
    }
    // SAFETY: `has_aes` just confirmed AES-NI, the one feature
    // `aes_xor_keystream` enables beyond the x86-64 baseline.
    unsafe { aes_xor_keystream(round_keys, data, first, kind) };
    true
}

/// Whether stepping a `Be128` counter `blocks` times from `first`
/// carries out of its low 64 bits, which the wide kernel's 64-bit lane
/// adds cannot follow. An `inc32` counter wraps within its 32-bit lane
/// by definition, so it never carries.
fn carries_out_of_a_lane(first: u128, blocks: u128, kind: CounterKind) -> bool {
    kind == CounterKind::Be128 && u128::from(first as u64) + blocks > u128::from(u64::MAX)
}

/// Runs the SHA-256 compression function over `N` independent
/// messages with SHA-NI, if the CPU has it: each whole 64-byte block of
/// `blocks[l]` goes into `states[l]`, and a trailing partial block is
/// ignored. Every lane runs as many blocks as lane 0 has (a shorter
/// lane panics). Returns whether it ran.
pub(crate) fn sha256_compress<const N: usize>(
    states: &mut [[u32; 8]; N],
    blocks: [&[u8]; N],
) -> bool {
    if !has_sha() {
        return false;
    }
    // SAFETY: `has_sha` just confirmed SHA, SSSE3 and SSE4.1 — exactly
    // the features `sha256_blocks` enables.
    unsafe { sha256_blocks(states, blocks) };
    true
}

/// Folds each whole 16-byte block of `blocks` into the GHASH
/// accumulator `acc` with VPCLMULQDQ (16 blocks per reduction) or
/// PCLMULQDQ (4), whichever the CPU has; a trailing partial block is
/// ignored. `keys` are `H, H², …, H¹⁶`, each multiplied by `x⁻¹` (see
/// [`ghash_blocks`]). Returns whether it ran.
pub(crate) fn ghash(keys: &[u128; 16], acc: &mut u128, blocks: &[u8]) -> bool {
    if has_wide() && blocks.len() >= WIDE_BYTES {
        // SAFETY: `has_wide` just confirmed VAES, VPCLMULQDQ, AVX512F
        // and AVX512BW — exactly the features `ghash_wide` enables.
        *acc = unsafe { ghash_wide(keys, *acc, blocks) };
        return true;
    }
    if !has_clmul() {
        return false;
    }
    let narrow = keys[..4].try_into().expect("four keys");
    // SAFETY: `has_clmul` just confirmed PCLMULQDQ, the one feature
    // `ghash_blocks` enables beyond the x86-64 baseline.
    *acc = unsafe { ghash_blocks(narrow, *acc, blocks) };
    true
}

/// Advances the reflected CRC-32 register `reg` over every whole
/// 16-byte block of `blocks` with PCLMULQDQ, if the CPU has it; a
/// trailing partial block is ignored. Returns whether it ran.
pub(crate) fn crc32(reg: &mut u32, blocks: &[u8]) -> bool {
    if !has_clmul() {
        return false;
    }
    // SAFETY: `has_clmul` just confirmed PCLMULQDQ, the one feature
    // `crc32_blocks` enables beyond the x86-64 baseline.
    *reg = unsafe { crc32_blocks(*reg, blocks) };
    true
}

#[target_feature(enable = "aes")]
fn aes_block(round_keys: &[Block], block: &Block) -> Block {
    let (first, middle, last) = split_schedule(round_keys);
    let mut s = _mm_xor_si128(load(block), load(first));
    for rk in middle {
        s = _mm_aesenc_si128(s, load(rk));
    }
    store(_mm_aesenclast_si128(s, load(last)))
}

#[target_feature(enable = "aes")]
fn aes_xor_keystream(round_keys: &[Block], data: &mut [u8], first: u128, kind: CounterKind) {
    let (first_key, middle, last) = split_schedule(round_keys);
    let (first_key, last) = (load(first_key), load(last));
    let mut keys = [_mm_setzero_si128(); MAX_ROUND_KEYS];
    for (k, rk) in keys.iter_mut().zip(middle) {
        *k = load(rk);
    }
    let middle = &keys[..middle.len()];

    let mut counter = first;
    let mut next_counter = || {
        let block = load(&counter.to_be_bytes());
        counter = kind.advance(counter, 1);
        _mm_xor_si128(block, first_key)
    };
    let mut batches = data.chunks_exact_mut(LANES * BLOCK_SIZE);
    for batch in &mut batches {
        let mut s = [first_key; LANES];
        for lane in &mut s {
            *lane = next_counter();
        }
        for &rk in middle {
            for lane in &mut s {
                *lane = _mm_aesenc_si128(*lane, rk);
            }
        }
        for (lane, out) in s.into_iter().zip(batch.chunks_exact_mut(BLOCK_SIZE)) {
            xor_into(out, _mm_aesenclast_si128(lane, last));
        }
    }
    for out in batches.into_remainder().chunks_exact_mut(BLOCK_SIZE) {
        let mut s = next_counter();
        for &rk in middle {
            s = _mm_aesenc_si128(s, rk);
        }
        xor_into(out, _mm_aesenclast_si128(s, last));
    }
}

/// The keystream over whole 16-block runs with VAES: each register holds
/// four counter blocks, and four registers are in flight, so every round
/// key is one `vaesenc` per four blocks over sixteen. The counters stay
/// in registers between iterations in a byte order in which a lane add
/// steps them: `Inc32` keeps its last dword byte-swapped and adds 16 per
/// iteration in that dword, `Be128` its last qword, adding in that
/// qword (the caller has ruled out a carry into the upper half). A byte
/// shuffle turns them back into counter blocks before the first round.
/// Blocks past the last whole run go through [`aes_xor_keystream`].
#[target_feature(enable = "vaes,vpclmulqdq,avx512f,avx512bw")]
fn vaes_xor_keystream(round_keys: &[Block], data: &mut [u8], first: u128, kind: CounterKind) {
    let (first_key, middle, last) = split_schedule(round_keys);
    let (first_key, last) = (broadcast(first_key), broadcast(last));
    let mut keys = [_mm512_setzero_si512(); MAX_ROUND_KEYS];
    for (k, rk) in keys.iter_mut().zip(middle) {
        *k = broadcast(rk);
    }
    let middle = &keys[..middle.len()];

    // Memory order is little-endian per lane; `swap` reverses the
    // bytes of the counting word, and is its own inverse.
    let (swap, step) = match kind {
        CounterKind::Inc32 => (
            per_lane(0x0c0d_0e0f_0b0a_0908, 0x0706_0504_0302_0100),
            _mm512_set_epi32(16, 0, 0, 0, 16, 0, 0, 0, 16, 0, 0, 0, 16, 0, 0, 0),
        ),
        CounterKind::Be128 => (
            per_lane(0x0809_0a0b_0c0d_0e0f, 0x0706_0504_0302_0100),
            _mm512_set_epi64(16, 0, 16, 0, 16, 0, 16, 0),
        ),
    };
    let mut counters: [__m512i; WIDE_REGS] = core::array::from_fn(|r| {
        let mut blocks = [0u8; WIDE_LANES * BLOCK_SIZE];
        for (k, block) in blocks.chunks_exact_mut(BLOCK_SIZE).enumerate() {
            let n = (WIDE_LANES * r + k) as u128;
            block.copy_from_slice(&kind.advance(first, n).to_be_bytes());
        }
        _mm512_shuffle_epi8(load_wide(&blocks), swap)
    });

    let (runs, rest) = data.as_chunks_mut::<WIDE_BYTES>();
    let done = (runs.len() * WIDE_BYTES / BLOCK_SIZE) as u128;
    for run in runs {
        let mut s = counters.map(|c| _mm512_xor_si512(_mm512_shuffle_epi8(c, swap), first_key));
        for &rk in middle {
            for reg in &mut s {
                *reg = _mm512_aesenc_epi128(*reg, rk);
            }
        }
        let (quads, _) = run.as_chunks_mut::<{ WIDE_LANES * BLOCK_SIZE }>();
        for (reg, out) in s.into_iter().zip(quads) {
            let keystream = _mm512_aesenclast_epi128(reg, last);
            *out = store_wide(_mm512_xor_si512(load_wide(out), keystream));
        }
        for c in &mut counters {
            *c = match kind {
                CounterKind::Inc32 => _mm512_add_epi32(*c, step),
                CounterKind::Be128 => _mm512_add_epi64(*c, step),
            };
        }
    }
    aes_xor_keystream(round_keys, rest, kind.advance(first, done), kind);
}

/// SHA-256 over whole 64-byte blocks of `N` messages at once, holding
/// each lane's state as the `(A, B, E, F)` / `(C, D, G, H)` register pair
/// `sha256rnds2` works on. Every step runs for all lanes; their
/// dependency chains are independent, so they overlap in the pipeline.
/// `N = 1` is plain serial SHA-256.
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_blocks<const N: usize>(states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
    let mut abef = [_mm_setzero_si128(); N];
    let mut cdgh = [_mm_setzero_si128(); N];
    let count = blocks.first().map_or(0, |lane| lane.len() / 64);
    let mut lanes_blocks: [&[[u8; 64]]; N] = [&[]; N];
    for l in 0..N {
        (abef[l], cdgh[l]) = state_regs(&states[l]);
        lanes_blocks[l] = &blocks[l].as_chunks().0[..count];
    }

    for i in 0..count {
        let mut w = [[_mm_setzero_si128(); N]; 4];
        for (l, block) in lanes_blocks.map(|lane| &lane[i]).into_iter().enumerate() {
            for (g, group) in w.iter_mut().enumerate() {
                group[l] = message_group(&block[16 * g..16 * g + 16]);
            }
        }
        compress_block(&mut abef, &mut cdgh, w);
    }

    for l in 0..N {
        states[l] = state_words(abef[l], cdgh[l]);
    }
}

/// HMAC-SHA256's two hashes after the key blocks, on SHA-NI if the CPU
/// has it: `block` (the whole padded inner message) from the `inner`
/// midstate, then the one-block outer message — the inner digest and
/// its padding — from `outer`. The inner digest passes to the outer
/// hash in registers. Returns the tag, or `None` without SHA-NI.
pub(crate) fn hmac_one_block(
    inner: &[u32; 8],
    outer: &[u32; 8],
    block: &[u8; 64],
) -> Option<Digest> {
    if !has_sha() {
        return None;
    }
    // SAFETY: `has_sha` just confirmed SHA, SSSE3 and SSE4.1 — exactly
    // the features `hmac_blocks` enables.
    Some(unsafe { hmac_blocks(inner, outer, block) })
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn hmac_blocks(inner: &[u32; 8], outer: &[u32; 8], block: &[u8; 64]) -> Digest {
    let (abef, cdgh) = state_regs(inner);
    let (mut abef, mut cdgh) = ([abef], [cdgh]);
    compress_block(
        &mut abef,
        &mut cdgh,
        core::array::from_fn(|g| [message_group(&block[16 * g..16 * g + 16])]),
    );
    // The outer message words are the inner state words A..H, then
    // 0x80000000, six zeros and the bit length of the `opad` block and
    // digest, 768. Lane `i` of a group holds word `4g + i`.
    let (dcba, hgfe) = digest_halves(abef[0], cdgh[0]);
    let reverse = |x| _mm_shuffle_epi32(x, 0x1b);
    let (abef, cdgh) = state_regs(outer);
    let (mut abef, mut cdgh) = ([abef], [cdgh]);
    compress_block(
        &mut abef,
        &mut cdgh,
        [
            [reverse(dcba)],
            [reverse(hgfe)],
            [_mm_set_epi32(0, 0, 0, i32::MIN)],
            [_mm_set_epi32(768, 0, 0, 0)],
        ],
    );
    // Each half's words, last first, byte-reversed whole: the digest's
    // big-endian words in order.
    let (dcba, hgfe) = digest_halves(abef[0], cdgh[0]);
    let bytes_reversed = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut digest = [0; DIGEST_SIZE];
    digest[..16].copy_from_slice(&store(_mm_shuffle_epi8(dcba, bytes_reversed)));
    digest[16..].copy_from_slice(&store(_mm_shuffle_epi8(hgfe, bytes_reversed)));
    digest
}

/// The state a register pair holds as the words `(D, C, B, A)` and
/// `(H, G, F, E)`, lane 0 first.
#[inline]
#[target_feature(enable = "sse2")]
fn digest_halves(abef: __m128i, cdgh: __m128i) -> (__m128i, __m128i) {
    (
        _mm_unpackhi_epi64(cdgh, abef),
        _mm_unpacklo_epi64(cdgh, abef),
    )
}

/// A state `[A..H]` as the `(A, B, E, F)` / `(C, D, G, H)` register pair.
#[inline]
#[target_feature(enable = "sse2")]
fn state_regs(state: &[u32; 8]) -> (__m128i, __m128i) {
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    (_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h))
}

/// The state `[A..H]` a register pair holds.
#[inline]
#[target_feature(enable = "sse2")]
fn state_words(abef: __m128i, cdgh: __m128i) -> [u32; 8] {
    let [f, e, b, a] = lanes(abef);
    let [h, g, d, c] = lanes(cdgh);
    [a, b, c, d, e, f, g, h]
}

/// Four big-endian message words as a register, word 0 in lane 0.
#[inline]
#[target_feature(enable = "ssse3")]
fn message_group(bytes: &[u8]) -> __m128i {
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    _mm_shuffle_epi8(load(bytes), bswap)
}

/// One 64-byte block, given as its four message groups, compressed
/// into every lane's state.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress_block<const N: usize>(
    abef: &mut [__m128i; N],
    cdgh: &mut [__m128i; N],
    w: [[__m128i; N]; 4],
) {
    let (abef_in, cdgh_in) = (*abef, *cdgh);
    // Group `r` is message words 4r..4r+4. Groups 0–3 come from the
    // block; each later one is scheduled from the four before it,
    // overwriting the oldest, so `w0..w3` act as a ring.
    let [mut w0, mut w1, mut w2, mut w3] = w;
    rounds4(abef, cdgh, w0, 0);
    rounds4(abef, cdgh, w1, 1);
    rounds4(abef, cdgh, w2, 2);
    rounds4(abef, cdgh, w3, 3);
    for r in (4..16).step_by(4) {
        w0 = schedule(w0, w1, w2, w3);
        rounds4(abef, cdgh, w0, r);
        w1 = schedule(w1, w2, w3, w0);
        rounds4(abef, cdgh, w1, r + 1);
        w2 = schedule(w2, w3, w0, w1);
        rounds4(abef, cdgh, w2, r + 2);
        w3 = schedule(w3, w0, w1, w2);
        rounds4(abef, cdgh, w3, r + 3);
    }
    for l in 0..N {
        abef[l] = _mm_add_epi32(abef[l], abef_in[l]);
        cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_in[l]);
    }
}

/// Four SHA-256 rounds on message group `r` (words `w`) in every lane,
/// two per `sha256rnds2`.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn rounds4<const N: usize>(
    abef: &mut [__m128i; N],
    cdgh: &mut [__m128i; N],
    w: [__m128i; N],
    r: usize,
) {
    let k = &K[4 * r..4 * r + 4];
    let lo = u64::from(k[0]) | u64::from(k[1]) << 32;
    let hi = u64::from(k[2]) | u64::from(k[3]) << 32;
    let k = _mm_set_epi64x(hi as i64, lo as i64);
    let mut wk = w;
    for l in 0..N {
        wk[l] = _mm_add_epi32(w[l], k);
        cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk[l]);
    }
    for l in 0..N {
        abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], _mm_shuffle_epi32(wk[l], 0x0e));
    }
}

/// The next message group from the four before it (oldest first), in
/// every lane.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn schedule<const N: usize>(
    w0: [__m128i; N],
    w1: [__m128i; N],
    w2: [__m128i; N],
    w3: [__m128i; N],
) -> [__m128i; N] {
    let mut next = w0;
    for l in 0..N {
        let sigma0 = _mm_sha256msg1_epu32(w0[l], w1[l]);
        next[l] = _mm_sha256msg2_epu32(
            _mm_add_epi32(sigma0, _mm_alignr_epi8(w3[l], w2[l], 4)),
            w3[l],
        );
    }
    next
}

/// GHASH over whole blocks, every value held as GCM's big-endian
/// `u128` (coefficient of `x⁰` in the top bit). For such reflected
/// operands a carry-less product is the field product times `x`, so
/// multiplying by a key pre-multiplied by `x⁻¹` gives the field product
/// itself, as 256 unreduced bits. Four blocks share one reduction:
/// `acc' = (acc ⊕ c₀)·H⁴ ⊕ c₁·H³ ⊕ c₂·H² ⊕ c₃·H`.
#[target_feature(enable = "pclmulqdq")]
fn ghash_blocks(keys: &[u128; 4], acc: u128, blocks: &[u8]) -> u128 {
    let [h1, h2, h3, h4] = keys.map(|k| from_u128(k));
    let mut acc = from_u128(acc);
    let mut quads = blocks.chunks_exact(4 * BLOCK_SIZE);
    for quad in &mut quads {
        let (c0, rest) = quad.split_at(BLOCK_SIZE);
        let (c1, rest) = rest.split_at(BLOCK_SIZE);
        let (c2, c3) = rest.split_at(BLOCK_SIZE);
        let (lo0, hi0) = clmul(_mm_xor_si128(acc, load_be(c0)), h4);
        let (lo1, hi1) = clmul(load_be(c1), h3);
        let (lo2, hi2) = clmul(load_be(c2), h2);
        let (lo3, hi3) = clmul(load_be(c3), h1);
        let lo = _mm_xor_si128(_mm_xor_si128(lo0, lo1), _mm_xor_si128(lo2, lo3));
        let hi = _mm_xor_si128(_mm_xor_si128(hi0, hi1), _mm_xor_si128(hi2, hi3));
        acc = reduce(lo, hi);
    }
    for block in quads.remainder().chunks_exact(BLOCK_SIZE) {
        let (lo, hi) = clmul(_mm_xor_si128(acc, load_be(block)), h1);
        acc = reduce(lo, hi);
    }
    to_u128(acc)
}

/// GHASH over whole 16-block runs with VPCLMULQDQ, after Drucker and
/// Gueron, "Fast multiplication of binary polynomials with the
/// forthcoming vectorized VPCLMULQDQ instruction" (ARITH 2018). Each
/// register multiplies four blocks by four key powers at once; the
/// products of one run are XORed lane-wise, the four lanes folded into
/// one, and reduced once:
/// `acc' = (acc ⊕ c₀)·H¹⁶ ⊕ c₁·H¹⁵ ⊕ … ⊕ c₁₅·H`. Blocks past the last
/// whole run go through [`ghash_blocks`].
#[target_feature(enable = "vaes,vpclmulqdq,avx512f,avx512bw")]
fn ghash_wide(keys: &[u128; 16], acc: u128, blocks: &[u8]) -> u128 {
    // Register `r` lane `k` carries block `4r + k` of a run, which
    // pairs with `H^(16 - 4r - k)` = `keys[15 - 4r - k]`.
    let powers: [__m512i; WIDE_REGS] = core::array::from_fn(|r| {
        let mut lanes = [0u8; WIDE_LANES * BLOCK_SIZE];
        for (k, lane) in lanes.chunks_exact_mut(BLOCK_SIZE).enumerate() {
            lane.copy_from_slice(&keys[15 - WIDE_LANES * r - k].to_le_bytes());
        }
        load_wide(&lanes)
    });
    // Reverses each block's bytes: a lane then holds
    // `u128::from_be_bytes(block)`, as in [`load_be`].
    let reverse = per_lane(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);

    let mut acc = from_u128(acc);
    let (runs, rest) = blocks.as_chunks::<WIDE_BYTES>();
    for run in runs {
        let (quads, _) = run.as_chunks::<{ WIDE_LANES * BLOCK_SIZE }>();
        let (mut lo, mut hi, mut mid) = (
            _mm512_setzero_si512(),
            _mm512_setzero_si512(),
            _mm512_setzero_si512(),
        );
        for (r, (quad, &h)) in quads.iter().zip(&powers).enumerate() {
            let mut x = _mm512_shuffle_epi8(load_wide(quad), reverse);
            if r == 0 {
                x = _mm512_xor_si512(x, _mm512_zextsi128_si512(acc));
            }
            lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128(x, h, 0x00));
            hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128(x, h, 0x11));
            mid = _mm512_xor_si512(
                mid,
                _mm512_xor_si512(
                    _mm512_clmulepi64_epi128(x, h, 0x01),
                    _mm512_clmulepi64_epi128(x, h, 0x10),
                ),
            );
        }
        let (lo, hi, mid) = (fold_lanes(lo), fold_lanes(hi), fold_lanes(mid));
        acc = reduce(
            _mm_xor_si128(lo, _mm_slli_si128(mid, 8)),
            _mm_xor_si128(hi, _mm_srli_si128(mid, 8)),
        );
    }
    let narrow = keys[..4].try_into().expect("four keys");
    ghash_blocks(narrow, to_u128(acc), rest)
}

/// The XOR of a register's four 128-bit lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn fold_lanes(x: __m512i) -> __m128i {
    let [l0, l1, l2, l3] = split_lanes(x);
    _mm_xor_si128(_mm_xor_si128(l0, l1), _mm_xor_si128(l2, l3))
}

/// The 256-bit carry-less product of `a` and `b` as `(low, high)`
/// halves, schoolbook: four 64×64-bit multiplies.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn clmul(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
    let lo = _mm_clmulepi64_si128(a, b, 0x00);
    let hi = _mm_clmulepi64_si128(a, b, 0x11);
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128(a, b, 0x01),
        _mm_clmulepi64_si128(a, b, 0x10),
    );
    (
        _mm_xor_si128(lo, _mm_slli_si128(mid, 8)),
        _mm_xor_si128(hi, _mm_srli_si128(mid, 8)),
    )
}

/// Reduces a reflected 256-bit product modulo `x¹²⁸ + x⁷ + x² + x + 1`.
/// In reflected order `high` holds the coefficients of `x⁰..x¹²⁷` and
/// `low` those of `x¹²⁸..x²⁵⁵`, and a right shift multiplies by `x`, so
/// `x¹²⁸ ≡ 1 + x + x² + x⁷` folds `low` in as `low ⊕ low≫1 ⊕ low≫2 ⊕
/// low≫7`. SSE2 shifts only within 64-bit lanes, so the first phase
/// collects the bits those shifts drop (`spill`): the ones leaving
/// `low`'s upper lane belong in the result's lower lane, and the ones
/// leaving its bottom are `x¹²⁸` and above again, so they fold back into
/// `low`'s top bits before the shifts.
#[inline]
#[target_feature(enable = "sse2")]
fn reduce(low: __m128i, high: __m128i) -> __m128i {
    let spill = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi64(low, 63), _mm_slli_epi64(low, 62)),
        _mm_slli_epi64(low, 57),
    );
    let low = _mm_xor_si128(low, _mm_slli_si128(spill, 8));
    let high = _mm_xor_si128(high, _mm_srli_si128(spill, 8));
    let folded = _mm_xor_si128(
        _mm_xor_si128(low, _mm_srli_epi64(low, 1)),
        _mm_xor_si128(_mm_srli_epi64(low, 2), _mm_srli_epi64(low, 7)),
    );
    _mm_xor_si128(high, folded)
}

/// Folding constants for the reflected CRC-32 polynomial `P`
/// (`0x1DB710641` with its `x³²` term), each `x^k mod P` bit-reflected
/// and shifted one place as the reflected carry-less product needs:
/// `x^(4·128+32)`, `x^(4·128-32)` fold four accumulators 512 bits on;
/// `x^(128+32)`, `x^(128-32)` fold one accumulator into the next; `x⁶⁴`
/// folds 64 bits into 32.
const CRC_K1: i64 = 0x1_5444_2bd4;
const CRC_K2: i64 = 0x1_c6e4_1596;
const CRC_K3: i64 = 0x1_7519_97d0;
const CRC_K4: i64 = 0x0_ccaa_009e;
const CRC_K5: i64 = 0x1_63cd_6124;
/// Barrett reduction: `P` itself and `μ = ⌊x⁶⁴ / P⌋`, both reflected.
const CRC_P: i64 = 0x1_DB71_0641;
const CRC_MU: i64 = 0x1_F701_1641;

/// CRC-32 over whole 16-byte blocks from register `reg`, returning the
/// register after them. Accumulators absorb blocks by XOR; folding one
/// 128 bits (or 512, four at once) further along the message multiplies
/// its halves by `x^(d±32)` and XORs the next block in.
#[target_feature(enable = "pclmulqdq")]
fn crc32_blocks(reg: u32, blocks: &[u8]) -> u32 {
    let (blocks, _) = blocks.as_chunks::<16>();
    let Some((first, mut rest)) = blocks.split_first() else {
        return reg;
    };
    let seed = _mm_cvtsi32_si128(reg as i32);
    let k3k4 = _mm_set_epi64x(CRC_K4, CRC_K3);
    let mut x = _mm_xor_si128(load(first), seed);
    if rest.len() >= 3 {
        let k1k2 = _mm_set_epi64x(CRC_K2, CRC_K1);
        let mut acc = [x, load(&rest[0]), load(&rest[1]), load(&rest[2])];
        rest = &rest[3..];
        let (quads, tail) = rest.as_chunks::<4>();
        for quad in quads {
            for (a, block) in acc.iter_mut().zip(quad) {
                *a = crc_fold(*a, load(block), k1k2);
            }
        }
        rest = tail;
        let [a0, a1, a2, a3] = acc;
        x = crc_fold(crc_fold(crc_fold(a0, a1, k3k4), a2, k3k4), a3, k3k4);
    }
    for block in rest {
        x = crc_fold(x, load(block), k3k4);
    }

    // 128 → 64 bits: the low half times x^(128-32), onto the high half.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    // 64 → 32 bits.
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, CRC_K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett: quotient estimate `t1 = (x mod x³²)·μ`, then `x ⊕ t1·P`.
    let pu = _mm_set_epi64x(CRC_MU, CRC_P);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    (_mm_cvtsi128_si64(_mm_xor_si128(x, t2)) >> 32) as u32
}

/// Folds accumulator `a` one step on and XORs in `next`: its low half
/// times the low key, its high half times the high key.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn crc_fold(a: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128(a, keys, 0x00);
    let hi = _mm_clmulepi64_si128(a, keys, 0x11);
    _mm_xor_si128(_mm_xor_si128(next, lo), hi)
}

/// Splits a schedule into the whitening key, the full-round keys and
/// the final-round key.
fn split_schedule(round_keys: &[Block]) -> (&Block, &[Block], &Block) {
    assert!(
        (3..=MAX_ROUND_KEYS).contains(&round_keys.len()),
        "an AES schedule has 11, 13 or 15 round keys"
    );
    let (first, rest) = round_keys.split_first().expect("length checked");
    let (last, middle) = rest.split_last().expect("length checked");
    (first, middle, last)
}

/// A 16-byte block as a register, in memory byte order.
#[inline]
#[target_feature(enable = "sse2")]
fn load(bytes: &[u8]) -> __m128i {
    let (lo, hi) = bytes.split_at(8);
    let lo = u64::from_le_bytes(lo.try_into().expect("16-byte block"));
    let hi = u64::from_le_bytes(hi.try_into().expect("16-byte block"));
    _mm_set_epi64x(hi as i64, lo as i64)
}

/// A 16-byte block as a register holding `u128::from_be_bytes(bytes)`.
#[inline]
#[target_feature(enable = "sse2")]
fn load_be(bytes: &[u8]) -> __m128i {
    let (hi, lo) = bytes.split_at(8);
    let hi = u64::from_be_bytes(hi.try_into().expect("16-byte block"));
    let lo = u64::from_be_bytes(lo.try_into().expect("16-byte block"));
    _mm_set_epi64x(hi as i64, lo as i64)
}

#[inline]
#[target_feature(enable = "sse2")]
fn from_u128(x: u128) -> __m128i {
    _mm_set_epi64x((x >> 64) as i64, x as i64)
}

#[inline]
#[target_feature(enable = "sse2")]
fn to_u128(x: __m128i) -> u128 {
    let lo = _mm_cvtsi128_si64(x) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)) as u64;
    u128::from(hi) << 64 | u128::from(lo)
}

/// The inverse of [`load`].
#[inline]
#[target_feature(enable = "sse2")]
fn store(x: __m128i) -> Block {
    let mut out = [0u8; BLOCK_SIZE];
    out[..8].copy_from_slice(&_mm_cvtsi128_si64(x).to_le_bytes());
    out[8..].copy_from_slice(&_mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)).to_le_bytes());
    out
}

/// Four 16-byte blocks as one register, in memory byte order.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_wide(bytes: &[u8; WIDE_LANES * BLOCK_SIZE]) -> __m512i {
    let (words, _) = bytes.as_chunks::<8>();
    let w = |i: usize| u64::from_le_bytes(words[i]) as i64;
    _mm512_set_epi64(w(7), w(6), w(5), w(4), w(3), w(2), w(1), w(0))
}

/// The inverse of [`load_wide`].
#[inline]
#[target_feature(enable = "avx512f")]
fn store_wide(x: __m512i) -> [u8; WIDE_LANES * BLOCK_SIZE] {
    let mut out = [0u8; WIDE_LANES * BLOCK_SIZE];
    for (lane, bytes) in split_lanes(x)
        .into_iter()
        .zip(out.chunks_exact_mut(BLOCK_SIZE))
    {
        bytes.copy_from_slice(&store(lane));
    }
    out
}

/// A register's four 128-bit lanes, lowest first.
#[inline]
#[target_feature(enable = "avx512f")]
fn split_lanes(x: __m512i) -> [__m128i; WIDE_LANES] {
    [
        _mm512_extracti32x4_epi32::<0>(x),
        _mm512_extracti32x4_epi32::<1>(x),
        _mm512_extracti32x4_epi32::<2>(x),
        _mm512_extracti32x4_epi32::<3>(x),
    ]
}

/// One 16-byte block in all four lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn broadcast(block: &Block) -> __m512i {
    _mm512_broadcast_i32x4(load(block))
}

/// The 128-bit value `hi:lo` in all four lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn per_lane(hi: i64, lo: i64) -> __m512i {
    _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo)
}

/// `out ^= keystream` for one 16-byte block.
#[inline]
#[target_feature(enable = "sse2")]
fn xor_into(out: &mut [u8], keystream: __m128i) {
    out.copy_from_slice(&store(_mm_xor_si128(load(out), keystream)));
}

/// The four 32-bit lanes of `x`, lowest first.
#[inline]
#[target_feature(enable = "sse2")]
fn lanes(x: __m128i) -> [u32; 4] {
    let lo = _mm_cvtsi128_si64(x) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)) as u64;
    [lo as u32, (lo >> 32) as u32, hi as u32, (hi >> 32) as u32]
}

/// Which kernels a test thread lets the dispatch pick.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernels {
    /// Whatever the CPU has.
    Dispatched,
    /// Everything but the wide (VAES/VPCLMULQDQ) kernels.
    Narrow,
    /// None: the portable code.
    Portable,
}

#[cfg(test)]
thread_local! {
    static FORCED: std::cell::Cell<Kernels> = const { std::cell::Cell::new(Kernels::Dispatched) };
}

#[cfg(test)]
fn portable_forced() -> bool {
    FORCED.with(std::cell::Cell::get) == Kernels::Portable
}

#[cfg(test)]
fn narrow_forced() -> bool {
    FORCED.with(std::cell::Cell::get) != Kernels::Dispatched
}

/// Runs `f` with the dispatch limited to `kernels` on this thread
/// (the crate spawns no threads, so that is all of `f`).
#[cfg(test)]
pub(crate) fn forcing<T>(kernels: Kernels, f: impl FnOnce() -> T) -> T {
    struct Restore(Kernels);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|k| k.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|k| k.replace(kernels)));
    f()
}

/// Runs `f` with the kernels switched off on this thread.
#[cfg(test)]
pub(crate) fn portable<T>(f: impl FnOnce() -> T) -> T {
    forcing(Kernels::Portable, f)
}

/// Runs `f` with the wide kernels switched off on this thread.
#[cfg(test)]
pub(crate) fn narrow<T>(f: impl FnOnce() -> T) -> T {
    forcing(Kernels::Narrow, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{Aes128, Aes256};
    use crate::drbg::HmacDrbg;

    #[test]
    fn cpuid_features_select_the_hw_kernels() {
        let aes = is_x86_feature_detected!("aes");
        let sha = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        let clmul = is_x86_feature_detected!("pclmulqdq");
        let wide = is_x86_feature_detected!("vaes")
            && is_x86_feature_detected!("vpclmulqdq")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw");
        let schedule = [[0u8; BLOCK_SIZE]; 11];
        let keystream = || xor_keystream(&schedule, &mut [0; 64], [0; 16], CounterKind::Inc32);
        assert_eq!(encrypt_block(&schedule, &mut [0; BLOCK_SIZE]), aes);
        assert_eq!(keystream(), aes || wide);
        assert_eq!(sha256_compress(&mut [[0; 8]], [&[0; 64]]), sha);
        assert_eq!(sha256_compress(&mut [[0; 8]; 2], [&[0; 64]; 2]), sha);
        assert_eq!(ghash(&[0; 16], &mut 0, &[0; 64]), clmul);
        assert_eq!(ghash(&[0; 16], &mut 0, &[0; WIDE_BYTES]), clmul || wide);
        assert_eq!(crc32(&mut 0, &[0; 64]), clmul);
        let names: Vec<&str> = [
            (aes, "aesni"),
            (sha, "shani"),
            (clmul, "pclmul"),
            (wide, "vaes+vpclmul"),
        ]
        .into_iter()
        .filter_map(|(has, name)| has.then_some(name))
        .collect();
        let expected = if names.is_empty() {
            "portable".to_owned()
        } else {
            names.join("+")
        };
        assert_eq!(crate::backend(), expected);

        narrow(|| {
            assert!(!has_wide());
            assert_eq!(keystream(), aes);
            assert_eq!(ghash(&[0; 16], &mut 0, &[0; WIDE_BYTES]), clmul);
            assert_eq!(backend(), expected.replace("+vaes+vpclmul", ""));
        });
        portable(|| {
            assert!(!encrypt_block(&schedule, &mut [0; BLOCK_SIZE]));
            assert!(!keystream());
            assert!(!sha256_compress(&mut [[0; 8]], [&[0; 64]]));
            assert!(!sha256_compress(&mut [[0; 8]; 2], [&[0; 64]; 2]));
            assert!(!ghash(&[0; 16], &mut 0, &[0; WIDE_BYTES]));
            assert!(!crc32(&mut 0, &[0; 64]));
            assert_eq!(backend(), "portable");
        });
        assert_eq!(backend(), expected, "the switch is restored");
    }

    #[test]
    fn aes_kernel_matches_portable_blocks() {
        let mut drbg = HmacDrbg::new(b"aes-ni vs t-table", b"hw");
        for _ in 0..200 {
            let block: Block = drbg.generate_array();
            let a128 = Aes128::new(&drbg.generate_array());
            let (mut fast, mut reference) = (block, block);
            a128.encrypt_block(&mut fast);
            a128.encrypt_block_portable(&mut reference);
            assert_eq!(fast, reference, "AES-128");

            let a256 = Aes256::new(&drbg.generate_array());
            let (mut fast, mut reference) = (block, block);
            a256.encrypt_block(&mut fast);
            a256.encrypt_block_portable(&mut reference);
            assert_eq!(fast, reference, "AES-256");
        }
    }

    /// `len` bytes of a fixed pattern with the keystream from counter
    /// block `first` XORed in.
    fn keystream(cipher: &Aes256, kind: CounterKind, first: u128, len: usize) -> Vec<u8> {
        let mut data: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
        cipher.xor_keystream(&mut data, first.to_be_bytes(), kind);
        data
    }

    #[test]
    fn keystream_kernels_agree_for_both_counter_kinds_and_every_block_count() {
        // Every block count 0..=64 (around the 16-block wide run and the
        // 8-block AES-NI batch) plus a ragged tail the kernels leave
        // alone, against the byte-oriented reference cipher. The starts
        // include a `Be128` counter whose low 64 bits carry at every
        // point of the call (the wide kernel hands those to AES-NI), one
        // that reaches `u64::MAX` exactly at 64 blocks without carrying,
        // the 128-bit wrap, and `inc32` counters wrapping at 2³² inside a
        // wide run.
        println!("backends: {:?}", crate::backends_run());
        let cipher = Aes256::new(&[0x3c; 32]);
        let high = 0x0123_4567_89ab_cdef_u128 << 64;
        let starts = [
            (CounterKind::Be128, 0x00ff_00ff_u128),
            (CounterKind::Be128, high | u128::from(u64::MAX - 63)),
            (CounterKind::Be128, high | u128::from(u64::MAX - 20)),
            (CounterKind::Be128, u128::MAX - 2),
            (CounterKind::Inc32, high | 0x0000_0001),
            (CounterKind::Inc32, high | u128::from(u32::MAX - 5)),
            (CounterKind::Inc32, high | u128::from(u32::MAX)),
        ];
        for (kind, first) in starts {
            for blocks in 0..=64usize {
                let len = blocks * BLOCK_SIZE + 7;
                let out = crate::on_every_backend(|| keystream(&cipher, kind, first, len));
                let mut expected: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
                for (n, block) in expected.chunks_exact_mut(BLOCK_SIZE).enumerate() {
                    let mut ks = kind.advance(first, n as u128).to_be_bytes();
                    cipher.encrypt_block_reference(&mut ks);
                    for (b, k) in block.iter_mut().zip(ks) {
                        *b ^= k;
                    }
                }
                assert_eq!(out, expected, "{kind:?} from {first:#x}, {blocks} blocks");
            }
        }
    }

    #[test]
    fn keystream_kernels_agree_on_a_paper_sized_stream() {
        // The compiled paper CL's size, from counters that cross a
        // 32-bit wrap (`inc32`) and a 64-bit carry (`Be128`) midway.
        println!("backends: {:?}", crate::backends_run());
        let cipher = Aes256::new(&[0x5d; 32]);
        let len = 3_389_756;
        let middle = (len / BLOCK_SIZE / 2) as u128;
        for (kind, first) in [
            (CounterKind::Inc32, u128::from(u32::MAX) - middle),
            (CounterKind::Be128, u128::from(u64::MAX) - middle),
            (CounterKind::Be128, 7 << 64),
        ] {
            crate::on_every_backend(|| keystream(&cipher, kind, first, len));
        }
    }

    #[test]
    fn ghash_kernels_agree_for_every_length_and_split() {
        // Every length 0..=1024 bytes (0..=64 blocks, around the
        // 16-block wide run and the 4-block batch, with ragged tails),
        // split between AAD and ciphertext at every byte: the wide,
        // 4-block and byte-table GHASH must agree.
        println!("backends: {:?}", crate::backends_run());
        let mut drbg = HmacDrbg::new(b"vpclmul vs pclmul vs byte table", b"hw");
        for len in 0..=1024 {
            let ghash = crate::gcm::ghasher(&drbg.generate_array());
            let data = drbg.generate(len);
            for split in 0..=len {
                let (aad, ciphertext) = data.split_at(split);
                crate::on_every_backend(|| ghash(aad, ciphertext));
            }
        }
    }

    #[test]
    fn sha_kernel_matches_portable_compression() {
        // One and two lanes, 0..=6 blocks plus a ragged tail the kernel
        // ignores, each lane from its own initial state and message.
        fn check<const N: usize>(drbg: &mut HmacDrbg) {
            for blocks in 0..=6 {
                let data: [Vec<u8>; N] = core::array::from_fn(|_| drbg.generate(64 * blocks + 13));
                let initial: [[u32; 8]; N] = core::array::from_fn(|_| {
                    core::array::from_fn(|_| u32::from_le_bytes(drbg.generate_array()))
                });
                let mut hw = initial;
                if !sha256_compress(&mut hw, data.each_ref().map(Vec::as_slice)) {
                    return; // no SHA-NI on this host
                }
                for l in 0..N {
                    let mut reference = initial[l];
                    for block in data[l].chunks_exact(64) {
                        crate::sha256::compress_portable(&mut reference, block);
                    }
                    assert_eq!(hw[l], reference, "{N} lanes, {blocks} blocks, lane {l}");
                }
            }
        }
        let mut drbg = HmacDrbg::new(b"sha-ni vs scalar", b"hw");
        check::<1>(&mut drbg);
        check::<2>(&mut drbg);
    }
}
