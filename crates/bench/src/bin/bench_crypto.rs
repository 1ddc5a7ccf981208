//! Records the crypto data-plane throughput trajectory.
//!
//! Measures MB/s for bulk AES-CTR (serial and parallel), AES-GCM
//! seal/open and the end-to-end `encrypt_for_device` path at 1 MiB and
//! 16 MiB, GHASH and CRC-32 (which every deploy runs over the whole
//! bitstream) at 1 MiB and at the compiled paper CL's size, alongside
//! *seed baselines* replicating the pre-optimisation
//! data path exactly: the retained byte-oriented reference block
//! cipher, the byte-at-a-time CTR keystream loop, and 4-bit-table
//! GHASH (copied verbatim from the seed `gcm.rs`). The baselines'
//! output is validated against the current implementation before
//! anything is timed, so the speedups compare equal work.
//!
//! Results go to stdout and `BENCH_crypto.json` so future PRs can
//! compare against this PR's numbers on the same machine.

use std::time::Instant;

use salus_crypto::aes::Aes256;
use salus_crypto::ctr::AesCtr256;
use salus_crypto::gcm::AesGcm256;
use salus_crypto::merkle::MerkleTree;
use salus_crypto::sha256::{to_hex, Sha256};
use salus_crypto::siphash::SipHash24;

const MIB: usize = 1 << 20;
const BLOCK: usize = 16;

/// Bytes of the paper CL's compiled wire stream (`bench_e2e`'s
/// `bitstream.wire_bytes`): what every deploy encrypts, decrypts and
/// CRC-checks.
const BITSTREAM_BYTES: usize = 3_389_756;

/// Merkle chunk size used by the DRAM integrity path.
const MERKLE_CHUNK: usize = 256;

/// The seed CTR data path: one reference block encryption per counter
/// block, then a per-byte keystream loop with a refill branch —
/// exactly the seed `apply_keystream`. Lives here (not in
/// `salus-crypto`) so the library carries only the block-level
/// reference.
struct SeedCtr {
    cipher: Aes256,
    counter: [u8; BLOCK],
    keystream: [u8; BLOCK],
    used: usize,
}

impl SeedCtr {
    fn new(cipher: Aes256, iv: &[u8; BLOCK]) -> SeedCtr {
        SeedCtr {
            cipher,
            counter: *iv,
            keystream: [0; BLOCK],
            used: BLOCK,
        }
    }

    fn apply_keystream(&mut self, data: &mut [u8]) {
        for byte in data.iter_mut() {
            if self.used == BLOCK {
                self.refill();
            }
            *byte ^= self.keystream[self.used];
            self.used += 1;
        }
    }

    fn refill(&mut self) {
        self.keystream = self.counter;
        self.cipher.encrypt_block_reference(&mut self.keystream);
        for i in (0..BLOCK).rev() {
            self.counter[i] = self.counter[i].wrapping_add(1);
            if self.counter[i] != 0 {
                break;
            }
        }
        self.used = 0;
    }
}

/// The seed GHASH (Shoup 4-bit tables, one nibble per step), copied
/// verbatim from the seed `gcm.rs` so the GCM baseline is faithful.
struct SeedGhash {
    m: [u128; 16],
    acc: u128,
}

const R4: [u128; 16] = {
    const R: u128 = 0xe1000000_00000000_00000000_00000000;
    let mut table = [0u128; 16];
    let mut i = 0usize;
    while i < 16 {
        let mut v = i as u128;
        let mut step = 0;
        while step < 4 {
            let lsb = v & 1;
            v >>= 1;
            if lsb != 0 {
                v ^= R;
            }
            step += 1;
        }
        table[i] = v;
        i += 1;
    }
    table
};

impl SeedGhash {
    fn new(h: u128) -> SeedGhash {
        let mut m = [0u128; 16];
        m[8] = h;
        let mut i = 4;
        while i >= 1 {
            m[i] = Self::mulx(m[i * 2]);
            i /= 2;
        }
        for i in [3usize, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15] {
            let high_bit = 1 << (usize::BITS - 1 - i.leading_zeros());
            m[i] = m[high_bit] ^ m[i ^ high_bit];
        }
        SeedGhash { m, acc: 0 }
    }

    fn mulx(v: u128) -> u128 {
        const R: u128 = 0xe1000000_00000000_00000000_00000000;
        let lsb = v & 1;
        (v >> 1) ^ if lsb != 0 { R } else { 0 }
    }

    fn mul_h(&self, x: u128) -> u128 {
        let mut z = 0u128;
        for i in 0..32 {
            let nibble = ((x >> (4 * i)) & 0xF) as usize;
            if i > 0 {
                let low = (z & 0xF) as usize;
                z = (z >> 4) ^ R4[low];
            }
            z ^= self.m[nibble];
        }
        z
    }

    fn update_block(&mut self, block: &[u8; BLOCK]) {
        self.acc = self.mul_h(self.acc ^ u128::from_be_bytes(*block));
    }

    fn update_padded(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(BLOCK);
        for chunk in &mut chunks {
            let mut b = [0u8; BLOCK];
            b.copy_from_slice(chunk);
            self.update_block(&b);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut b = [0u8; BLOCK];
            b[..rem.len()].copy_from_slice(rem);
            self.update_block(&b);
        }
    }

    fn finalize(mut self, aad_len: usize, ct_len: usize) -> [u8; BLOCK] {
        let mut lengths = [0u8; BLOCK];
        lengths[..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
        lengths[8..].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
        self.update_block(&lengths);
        self.acc.to_be_bytes()
    }
}

/// The seed GCM seal: per-block reference AES with byte-wise keystream
/// XOR for GCTR, 4-bit GHASH for the tag, tables rebuilt per call —
/// exactly what the seed `seal` did for a 96-bit nonce.
fn seed_gcm_seal(cipher: &Aes256, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut h_block = [0u8; BLOCK];
    cipher.encrypt_block_reference(&mut h_block);
    let h = u128::from_be_bytes(h_block);

    let mut j0 = [0u8; BLOCK];
    j0[..12].copy_from_slice(nonce);
    j0[15] = 1;

    let mut out = plaintext.to_vec();
    let mut counter = j0;
    for chunk in out.chunks_mut(BLOCK) {
        let c = u32::from_be_bytes([counter[12], counter[13], counter[14], counter[15]])
            .wrapping_add(1);
        counter[12..].copy_from_slice(&c.to_be_bytes());
        let mut ks = counter;
        cipher.encrypt_block_reference(&mut ks);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }

    let mut g = SeedGhash::new(h);
    g.update_padded(aad);
    g.update_padded(&out);
    let mut tag = g.finalize(aad.len(), out.len());
    let mut e_j0 = j0;
    cipher.encrypt_block_reference(&mut e_j0);
    for (t, e) in tag.iter_mut().zip(e_j0.iter()) {
        *t ^= e;
    }
    out.extend_from_slice(&tag);
    out
}

/// Times `f` over `iters` runs and returns MB/s for `bytes` per run.
fn throughput_mbps(bytes: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed().as_secs_f64() / f64::from(iters);
    bytes as f64 / per_iter / (1024.0 * 1024.0)
}

/// Times `f` over `iters` runs and returns seconds per run.
fn secs_per_op(iters: u32, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

fn main() {
    let key = [7u8; 32];
    let iv = [1u8; 16];
    let cipher = Aes256::new(&key);
    let gcm = AesGcm256::new(&key);

    // The baselines must compute the same function before their time
    // is worth comparing.
    {
        let mut sample = (0..8192u32).map(|i| i as u8).collect::<Vec<u8>>();
        let mut expect = sample.clone();
        AesCtr256::from_cipher(cipher.clone(), &iv).apply_keystream(&mut expect);
        SeedCtr::new(cipher.clone(), &iv).apply_keystream(&mut sample);
        assert_eq!(sample, expect, "seed CTR baseline diverged");

        let plain = (0..8192u32).map(|i| (i * 7) as u8).collect::<Vec<u8>>();
        assert_eq!(
            seed_gcm_seal(&cipher, &[9; 12], b"aad", &plain),
            gcm.seal(&[9; 12], b"aad", &plain),
            "seed GCM baseline diverged"
        );

        // And once past the parallel threshold, so the parallel GCTR
        // path is cross-checked against the seed implementation, not
        // just against itself.
        let big = (0..3 * salus_crypto::parallel::MIN_BYTES_PER_THREAD + 13)
            .map(|i| (i * 11 % 256) as u8)
            .collect::<Vec<u8>>();
        assert_eq!(
            seed_gcm_seal(&cipher, &[9; 12], b"aad", &big),
            gcm.seal(&[9; 12], b"aad", &big),
            "parallel GCM diverged from the seed baseline"
        );
    }

    let mut rows = Vec::new();
    let backend = salus_crypto::backend();
    println!("Crypto data-plane throughput (MiB/s), backend = {backend}\n");

    for &size in &[MIB, 16 * MIB] {
        let label = if size == MIB { "1MiB" } else { "16MiB" };
        let iters = if size == MIB { 8 } else { 3 };
        let data = vec![0xA5u8; size];

        let seed_ctr = throughput_mbps(size, iters, || {
            let mut buf = data.clone();
            SeedCtr::new(cipher.clone(), &iv).apply_keystream(&mut buf);
            std::hint::black_box(&buf);
        });
        let seed_gcm = throughput_mbps(size, iters.min(4), || {
            std::hint::black_box(seed_gcm_seal(&cipher, &[1; 12], b"aad", &data));
        });
        let ctr_serial = throughput_mbps(size, iters, || {
            let mut buf = data.clone();
            AesCtr256::from_cipher(cipher.clone(), &iv).apply_keystream(&mut buf);
            std::hint::black_box(&buf);
        });
        let ctr_parallel = throughput_mbps(size, iters, || {
            let mut buf = data.clone();
            AesCtr256::from_cipher(cipher.clone(), &iv).apply_keystream_parallel(&mut buf);
            std::hint::black_box(&buf);
        });
        let gcm_seal = throughput_mbps(size, iters, || {
            std::hint::black_box(gcm.seal(&[1; 12], b"aad", &data));
        });
        let sealed = gcm.seal(&[1; 12], b"aad", &data);
        let gcm_open = throughput_mbps(size, iters, || {
            std::hint::black_box(gcm.open(&[1; 12], b"aad", &sealed).unwrap());
        });
        let for_device = throughput_mbps(size, iters, || {
            std::hint::black_box(salus_bitstream::encrypt::encrypt_for_device(
                &data, &key, &[9; 12], 77,
            ));
        });

        for (name, mbps, baseline) in [
            ("seed_ctr_reference", seed_ctr, seed_ctr),
            ("seed_gcm_seal_reference", seed_gcm, seed_gcm),
            ("aes256_ctr_serial", ctr_serial, seed_ctr),
            ("aes256_ctr_parallel", ctr_parallel, seed_ctr),
            ("aes256_gcm_seal", gcm_seal, seed_gcm),
            ("aes256_gcm_open", gcm_open, seed_gcm),
            ("encrypt_for_device", for_device, seed_gcm),
        ] {
            let speedup = mbps / baseline;
            println!("{label:>6}  {name:<26} {mbps:>9.1} MiB/s  ({speedup:.1}x vs seed)");
            rows.push(serde_json::json!({
                "size": label.to_owned(),
                "bench": name.to_owned(),
                "mbps": mbps,
                "speedup_vs_seed": speedup,
            }));
        }
        println!();
    }

    // --- Bitstream-path kernels (GHASH / CRC-32) ---
    //
    // GHASH is timed through an AAD-only seal: with no plaintext, a
    // seal is one serial GHASH pass plus constant work.
    println!("Bitstream-path kernels (MiB/s)\n");
    for (label, size) in [("1MiB", MIB), ("bitstream", BITSTREAM_BYTES)] {
        let data = vec![0xA5u8; size];
        let ghash = throughput_mbps(size, 16, || {
            std::hint::black_box(gcm.seal(&[1; 12], &data, b""));
        });
        let crc = throughput_mbps(size, 16, || {
            std::hint::black_box(salus_fpga::wire::crc32(&data));
        });
        for (name, mbps) in [("ghash", ghash), ("crc32", crc)] {
            println!("{label:>9}  {name:<23} {mbps:>9.1} MiB/s");
            rows.push(serde_json::json!({
                "size": label.to_owned(),
                "bytes": size as u64,
                "bench": name.to_owned(),
                "mbps": mbps,
                "unit": "MiB/s",
            }));
        }
    }
    println!();

    // --- Integrity hash path (SHA-256 / SipHash / Merkle) ---
    //
    // The serving plane's per-request integrity cost is dominated by
    // Merkle hashing over the DRAM window; these sections record the
    // primitives and the full-rebuild vs incremental-refresh gap of
    // the `MerkleTree::update_chunks` library primitive.
    println!("Integrity hash path (1 MiB window, {MERKLE_CHUNK}-byte chunks)\n");
    let window: Vec<u8> = (0..MIB).map(|i| (i % 251) as u8).collect();
    let merkle_key = [0x42u8; 32];
    let sip_key = [0x17u8; 16];

    let sha_mbps = throughput_mbps(MIB, 16, || {
        std::hint::black_box(Sha256::digest(&window));
    });
    let sip_mbps = throughput_mbps(MIB, 32, || {
        std::hint::black_box(SipHash24::mac(&sip_key, &window));
    });
    let build_serial = secs_per_op(8, || {
        std::hint::black_box(MerkleTree::build(&merkle_key, &window, MERKLE_CHUNK).root());
    });
    let build_parallel = secs_per_op(8, || {
        std::hint::black_box(MerkleTree::build_parallel(&merkle_key, &window, MERKLE_CHUNK).root());
    });
    let mut tree = MerkleTree::build(&merkle_key, &window, MERKLE_CHUNK);
    let chunk = &window[512 * MERKLE_CHUNK..513 * MERKLE_CHUNK];
    let update_1chunk = secs_per_op(64, || {
        std::hint::black_box(tree.update_chunks(&[(512, chunk)]));
    });
    let incremental_speedup = build_serial / update_1chunk;

    for (name, mbps) in [
        ("sha256_digest", sha_mbps),
        ("siphash24_mac", sip_mbps),
        (
            "merkle_build_serial",
            MIB as f64 / build_serial / (1024.0 * 1024.0),
        ),
        (
            "merkle_build_parallel",
            MIB as f64 / build_parallel / (1024.0 * 1024.0),
        ),
    ] {
        println!("  1MiB  {name:<26} {mbps:>9.1} MiB/s");
        rows.push(serde_json::json!({
            "size": "1MiB",
            "bench": name.to_owned(),
            "mbps": mbps,
            "unit": "MiB/s",
        }));
    }
    println!(
        "  1MiB  merkle_update_1chunk       {:>9.1} µs/op  ({incremental_speedup:.0}x vs full rebuild)",
        update_1chunk * 1e6
    );
    rows.push(serde_json::json!({
        "size": "1MiB",
        "bench": "merkle_update_1chunk",
        "micros_per_op": update_1chunk * 1e6,
        "speedup_vs_full_rebuild": incremental_speedup,
        "unit": "µs",
    }));
    // The acceptance bar for `update_chunks`: a 1-chunk refresh
    // must beat a full rebuild by an order of magnitude at 1 MiB.
    assert!(
        incremental_speedup >= 10.0,
        "incremental refresh only {incremental_speedup:.1}x faster than full rebuild"
    );

    // Deterministic cross-process pins for CI: same key + data must
    // yield the same roots in every process, and the three build paths
    // must agree. (No timing on these lines — CI diffs them verbatim.)
    let serial_root = MerkleTree::build(&merkle_key, &window, MERKLE_CHUNK).root();
    let parallel_root = MerkleTree::build_parallel(&merkle_key, &window, MERKLE_CHUNK).root();
    let refreshed_root = tree.update_chunks(&[(512, chunk)]);
    println!("\nmerkle_root_1mib = {}", to_hex(&serial_root));
    println!(
        "merkle_parallel_matches_serial = {}",
        parallel_root == serial_root
    );
    println!(
        "merkle_incremental_matches_rebuild = {}",
        refreshed_root == serial_root
    );
    println!();

    let crossover = parallel_crossover(&cipher, &gcm, &iv, &merkle_key);

    // Hardware context: the parallel-path numbers scale with core
    // count, so a 1-core container records serial-only speedups.
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    salus_bench::write_bench_json(
        "crypto",
        serde_json::json!({
            "experiment": "bench_crypto",
            "backend": backend,
            "available_parallelism": threads as u64,
            "merkle_root_1mib": to_hex(&serial_root),
            "data": rows,
            "parallel_crossover": crossover,
        }),
    );
}

/// Measures where splitting bulk work across two scoped workers starts
/// to beat running it inline, for CTR, GHASH and a Merkle build — the
/// evidence behind `parallel::MIN_BYTES_PER_THREAD` and behind GCM
/// running GHASH serially. Each two-worker run makes the split the
/// library makes: one scoped thread per half, joined before returning.
/// For GHASH that is an AAD-only seal per half, without the multiply
/// that would combine the halves, so its two-worker time is a lower
/// bound on what a striped GHASH would cost.
fn parallel_crossover(
    cipher: &Aes256,
    gcm: &AesGcm256,
    iv: &[u8; BLOCK],
    merkle_key: &[u8; 32],
) -> serde_json::Value {
    let spawn_join = secs_per_op(2000, || {
        std::thread::scope(|scope| {
            scope.spawn(|| std::hint::black_box(0u8));
        });
    });
    println!(
        "Parallel crossover (inline vs two scoped workers), spawn+join = {:.1} µs\n",
        spawn_join * 1e6
    );
    println!(
        "  {:>8}  {:>10} {:>10}  {:>10} {:>10}  {:>10} {:>10}",
        "size", "ctr 1w", "ctr 2w", "ghash 1w", "ghash 2w", "merkle 1w", "merkle 2w"
    );
    let mut sizes = Vec::new();
    let (mut ctr_wins_from, mut ghash_wins_from, mut merkle_wins_from) = (None, None, None);
    let sweep = [16usize, 32, 64, 128, 256, 512, 1024].map(|kib| kib << 10);
    for len in sweep.into_iter().chain([BITSTREAM_BYTES]) {
        let data = vec![0xA5u8; len];
        let iters = (64 * 1024 * 1024 / len).clamp(8, 512) as u32;
        let ctr = |buf: &mut [u8], offset: usize| {
            AesCtr256::from_cipher(cipher.clone(), iv).apply_keystream_at(buf, offset as u128);
        };
        let ctr_1 = secs_per_op(iters, || {
            let mut buf = data.clone();
            ctr(&mut buf, 0);
            std::hint::black_box(&buf);
        });
        let ctr_2 = secs_per_op(iters, || {
            let mut buf = data.clone();
            let (a, b) = buf.split_at_mut(len / 2);
            std::thread::scope(|scope| {
                scope.spawn(|| ctr(a, 0));
                scope.spawn(|| ctr(b, len / 2));
            });
            std::hint::black_box(&buf);
        });
        let ghash = |aad: &[u8]| std::hint::black_box(gcm.seal(&[1; 12], aad, b""));
        let ghash_1 = secs_per_op(iters, || {
            ghash(&data);
        });
        let ghash_2 = secs_per_op(iters, || {
            let (a, b) = data.split_at(len / 2);
            std::thread::scope(|scope| {
                scope.spawn(|| ghash(a));
                scope.spawn(|| ghash(b));
            });
        });
        let merkle_1 = secs_per_op(iters, || {
            std::hint::black_box(MerkleTree::build(merkle_key, &data, MERKLE_CHUNK).root());
        });
        let merkle_2 = secs_per_op(iters, || {
            let (a, b) = data.split_at(len / 2);
            std::thread::scope(|scope| {
                let left = scope.spawn(|| MerkleTree::build(merkle_key, a, MERKLE_CHUNK).root());
                let right = scope.spawn(|| MerkleTree::build(merkle_key, b, MERKLE_CHUNK).root());
                std::hint::black_box((
                    left.join().expect("no panics"),
                    right.join().expect("no panics"),
                ));
            });
        });
        println!(
            "  {:>7}B  {:>8.1}µs {:>8.1}µs  {:>8.1}µs {:>8.1}µs  {:>8.1}µs {:>8.1}µs",
            len,
            ctr_1 * 1e6,
            ctr_2 * 1e6,
            ghash_1 * 1e6,
            ghash_2 * 1e6,
            merkle_1 * 1e6,
            merkle_2 * 1e6
        );
        for (wins_from, one, two) in [
            (&mut ctr_wins_from, ctr_1, ctr_2),
            (&mut ghash_wins_from, ghash_1, ghash_2),
            (&mut merkle_wins_from, merkle_1, merkle_2),
        ] {
            if two < one {
                wins_from.get_or_insert(len);
            } else {
                *wins_from = None;
            }
        }
        sizes.push(serde_json::json!({
            "bytes": len as u64,
            "ctr_1_worker_us": ctr_1 * 1e6,
            "ctr_2_workers_us": ctr_2 * 1e6,
            "ghash_1_worker_us": ghash_1 * 1e6,
            "ghash_2_workers_us": ghash_2 * 1e6,
            "merkle_1_worker_us": merkle_1 * 1e6,
            "merkle_2_workers_us": merkle_2 * 1e6,
        }));
    }
    // The smallest size from which two workers win at every larger
    // measured size (null: never within the sweep).
    let bytes = |wins: Option<usize>| wins.map(|b| b as u64);
    println!(
        "\n  two workers win from: ctr {:?} B, ghash {:?} B, merkle {:?} B; \
         MIN_BYTES_PER_THREAD = {} B\n",
        ctr_wins_from,
        ghash_wins_from,
        merkle_wins_from,
        salus_crypto::parallel::MIN_BYTES_PER_THREAD
    );
    serde_json::json!({
        "spawn_join_us": spawn_join * 1e6,
        "ctr_two_workers_win_from_bytes": bytes(ctr_wins_from),
        "ghash_two_workers_win_from_bytes": bytes(ghash_wins_from),
        "merkle_two_workers_win_from_bytes": bytes(merkle_wins_from),
        "min_bytes_per_thread": salus_crypto::parallel::MIN_BYTES_PER_THREAD as u64,
        "sizes": sizes,
    })
}
