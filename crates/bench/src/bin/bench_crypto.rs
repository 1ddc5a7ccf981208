//! Records the crypto data-plane throughput trajectory.
//!
//! Measures MiB/s for bulk AES-CTR, AES-GCM seal/open and the end-to-end
//! `encrypt_for_device` path at 1 MiB and 16 MiB, GHASH and CRC-32
//! (which every deploy runs over the whole bitstream) at 1 MiB and at
//! the compiled paper CL's size, the integrity hash path (SHA-256,
//! SipHash-2-4 and a Merkle root) over a 1 MiB window, and the secure
//! register channel's per-call costs in nanoseconds: a short HMAC tag,
//! a write round trip and the SipHash-against-HMAC MAC ablation. The
//! crate's own tests hold every kernel to the portable code and to
//! reference oracles on each backend the host has, so this binary only
//! times.
//!
//! Every row is the median of five timed runs, with the quartiles
//! beside it (`mbps_q1`/`mbps_q3`, or `ns_q1`/`ns_q3`), so a change can
//! be told from run-to-run noise. Results go to stdout and `BENCH_crypto.json`
//! for comparison on the same machine; the run ends with the
//! deterministic `merkle_root_1mib` pin line.

use std::time::Instant;

use salus_bench::Spread;
use salus_core::keys::KeySession;
use salus_core::reg_channel::{HostRegChannel, LogicRegChannel, RegisterOp};
use salus_crypto::ctr::AesCtr256;
use salus_crypto::gcm::AesGcm256;
use salus_crypto::hmac::HmacKey;
use salus_crypto::merkle;
use salus_crypto::sha256::{to_hex, Sha256};
use salus_crypto::siphash::SipHash24;

const MIB: usize = 1 << 20;

/// Bytes of the paper CL's compiled wire stream (`bench_e2e`'s
/// `bitstream.wire_bytes`): what every deploy encrypts, decrypts and
/// CRC-checks.
const BITSTREAM_BYTES: usize = 3_389_756;

/// Merkle chunk size used by the DRAM integrity path.
const MERKLE_CHUNK: usize = 256;

/// Times five runs of `iters` calls of `f` each, after one warm-up
/// call, and returns the spread of MiB/s for `bytes` per call.
fn throughput_mbps(bytes: usize, iters: u32, mut f: impl FnMut()) -> Spread {
    f(); // warm-up
    Spread::of_runs(|| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per_iter = start.elapsed().as_secs_f64() / f64::from(iters);
        bytes as f64 / per_iter / (1024.0 * 1024.0)
    })
}

/// Calls per timed run of a register-channel row.
const REG_ITERS: u32 = 200_000;

/// Times five runs of `iters` calls of `f` each, after a warm-up run,
/// and returns the spread of nanoseconds per call.
fn nanos_per_call(iters: u32, mut f: impl FnMut()) -> Spread {
    let mut run = || {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
    };
    run(); // warm-up
    Spread::of_runs(run)
}

/// A JSON object of `fixed` fields followed by the `name` spread.
fn row_of(
    fixed: impl IntoIterator<Item = (&'static str, serde_json::Value)>,
    name: &str,
    spread: Spread,
) -> serde_json::Value {
    serde_json::Value::Object(
        fixed
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .chain(spread.fields(name))
            .collect(),
    )
}

/// A JSON object of `fixed` fields followed by the `mbps` spread.
fn row(
    fixed: impl IntoIterator<Item = (&'static str, serde_json::Value)>,
    mbps: Spread,
) -> serde_json::Value {
    row_of(fixed, "mbps", mbps)
}

fn main() {
    let key = [7u8; 32];
    let iv = [1u8; 16];
    let cipher = salus_crypto::aes::Aes256::new(&key);
    let gcm = AesGcm256::new(&key);

    let mut rows = Vec::new();
    let backend = salus_crypto::backend();
    println!("Crypto data-plane throughput (MiB/s), backend = {backend}\n");

    for &size in &[MIB, 16 * MIB] {
        let label = if size == MIB { "1MiB" } else { "16MiB" };
        let iters = if size == MIB { 8 } else { 3 };
        let data = vec![0xA5u8; size];

        let ctr = throughput_mbps(size, iters, || {
            let mut buf = data.clone();
            AesCtr256::from_cipher(cipher.clone(), &iv).apply_keystream(&mut buf);
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

        for (name, mbps) in [
            ("aes256_ctr_serial", ctr),
            ("aes256_gcm_seal", gcm_seal),
            ("aes256_gcm_open", gcm_open),
            ("encrypt_for_device", for_device),
        ] {
            println!(
                "{label:>6}  {name:<26} {:>9.1} MiB/s  (IQR {:.1}–{:.1})",
                mbps.median, mbps.q1, mbps.q3
            );
            rows.push(row([("size", label.into()), ("bench", name.into())], mbps));
        }
        println!();
    }

    // --- Bitstream-path kernels (GHASH / CRC-32) ---
    //
    // GHASH is timed through an AAD-only seal: with no plaintext, a
    // seal is one serial GHASH pass plus constant work. `crc32` runs the
    // dispatched kernel (the PCLMULQDQ fold where the CPU has it);
    // `crc32_portable` times the slicing-by-8 fallback through a CRC
    // patch with no trailing bytes, which is one slicing pass over the
    // whole delta plus one multiplication by x⁰.
    println!("Bitstream-path kernels (MiB/s)\n");
    for (label, size) in [("1MiB", MIB), ("bitstream", BITSTREAM_BYTES)] {
        let data = vec![0xA5u8; size];
        let ghash = throughput_mbps(size, 16, || {
            std::hint::black_box(gcm.seal(&[1; 12], &data, b""));
        });
        let crc = throughput_mbps(size, 16, || {
            std::hint::black_box(salus_fpga::wire::crc32(&data));
        });
        let crc_portable = throughput_mbps(size, 16, || {
            std::hint::black_box(salus_crypto::crc32::crc32_patch(0, &data, 0));
        });
        for (name, mbps) in [
            ("ghash", ghash),
            ("crc32", crc),
            ("crc32_portable", crc_portable),
        ] {
            println!(
                "{label:>9}  {name:<23} {:>9.1} MiB/s  (IQR {:.1}–{:.1})",
                mbps.median, mbps.q1, mbps.q3
            );
            rows.push(row(
                [
                    ("size", label.into()),
                    ("bytes", (size as u64).into()),
                    ("bench", name.into()),
                    ("unit", "MiB/s".into()),
                ],
                mbps,
            ));
        }
    }
    println!();

    // --- Integrity hash path (SHA-256 / SipHash / Merkle) ---
    //
    // The serving plane's per-request integrity cost is dominated by
    // Merkle roots over the DRAM window; these rows record the
    // primitives and the root itself.
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
    let merkle_mbps = throughput_mbps(MIB, 8, || {
        std::hint::black_box(merkle::root(&merkle_key, &window, MERKLE_CHUNK));
    });

    for (name, mbps) in [
        ("sha256_digest", sha_mbps),
        ("siphash24_mac", sip_mbps),
        ("merkle_build_serial", merkle_mbps),
    ] {
        println!(
            "  1MiB  {name:<26} {:>9.1} MiB/s  (IQR {:.1}–{:.1})",
            mbps.median, mbps.q1, mbps.q3
        );
        rows.push(row(
            [
                ("size", "1MiB".into()),
                ("bench", name.into()),
                ("unit", "MiB/s".into()),
            ],
            mbps,
        ));
    }

    // --- Register-channel costs ---
    //
    // Per-call nanoseconds: the truncated HMAC tag over a register
    // write's 22-byte MAC input (direction, counter, 13-byte
    // ciphertext), one whole write round trip between the two channel
    // endpoints, and the MAC ablation on a 21-byte message — SipHash-2-4
    // against the HMAC-SHA256 the channel uses, each keyed once.
    println!("\nRegister channel (ns per call)\n");
    let session = KeySession::from_bytes([0x33; 32]);
    let hmac_key = HmacKey::new(session.as_bytes());
    let mac_input = [0xABu8; 22];
    let mut host = HostRegChannel::new(session, 0);
    let mut logic = LogicRegChannel::new(session, 0);
    let sip = SipHash24::new(&[7; 16]);
    let ablation_key = HmacKey::new(&[7; 32]);
    let ablation_msg = [0xABu8; 21];
    for (name, bytes, nanos) in [
        (
            "hmac_tag_short",
            mac_input.len(),
            nanos_per_call(REG_ITERS, || {
                std::hint::black_box(hmac_key.tag(std::hint::black_box(&mac_input)));
            }),
        ),
        (
            "reg_round_trip",
            13,
            nanos_per_call(REG_ITERS, || {
                let sealed = host.seal_op(RegisterOp::Write { addr: 4, value: 99 });
                let op = logic.open_op(std::hint::black_box(&sealed));
                assert!(matches!(op, Ok(RegisterOp::Write { .. })));
                let response = logic.seal_response(0);
                std::hint::black_box(host.open_response(&response).ok());
            }),
        ),
        (
            "mac_ablation_siphash24",
            ablation_msg.len(),
            nanos_per_call(REG_ITERS, || {
                std::hint::black_box(sip.hash(std::hint::black_box(&ablation_msg)));
            }),
        ),
        (
            "mac_ablation_hmac_sha256",
            ablation_msg.len(),
            nanos_per_call(REG_ITERS, || {
                std::hint::black_box(ablation_key.tag(std::hint::black_box(&ablation_msg)));
            }),
        ),
    ] {
        println!(
            "  {bytes:>3} B  {name:<26} {:>9.1} ns  (IQR {:.1}–{:.1})",
            nanos.median, nanos.q1, nanos.q3
        );
        rows.push(row_of(
            [
                ("bench", name.into()),
                ("bytes", (bytes as u64).into()),
                ("unit", "ns".into()),
            ],
            "ns",
            nanos,
        ));
    }

    // The deterministic cross-process pin for CI: the same key and data
    // must give the same root in every process. (No timing on this
    // line — CI diffs it verbatim.)
    let root = merkle::root(&merkle_key, &window, MERKLE_CHUNK);
    println!("\nmerkle_root_1mib = {}\n", to_hex(&root));

    salus_bench::write_bench_json(
        "crypto",
        serde_json::json!({
            "experiment": "bench_crypto",
            "backend": backend,
            "merkle_root_1mib": to_hex(&root),
            "data": rows,
        }),
    );
}
