//! Criterion micro-benchmarks of the from-scratch crypto substrate.
//!
//! These measure the *real* throughput of the reproduction's own
//! primitives (not virtual time) — the numbers backing the DESIGN.md
//! statement that the simulated SM stack is fast enough to run all
//! experiments at full scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use salus_crypto::aes::{Aes128, Aes256};
use salus_crypto::cmac::aes128_cmac;
use salus_crypto::ctr::AesCtr256;
use salus_crypto::gcm::AesGcm256;
use salus_crypto::hmac::hmac_sha256;
use salus_crypto::sha256::Sha256;
use salus_crypto::siphash::SipHash24;
use salus_crypto::x25519::{PublicKey, StaticSecret};

fn bench_block_ciphers(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes_block");
    let aes128 = Aes128::new(&[7; 16]);
    let aes256 = Aes256::new(&[7; 32]);
    group.bench_function("aes128_encrypt_block", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            aes128.encrypt_block(black_box(&mut block));
        });
    });
    group.bench_function("aes256_encrypt_block", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            aes256.encrypt_block(black_box(&mut block));
        });
    });
    group.finish();
}

fn bench_bulk(c: &mut Criterion) {
    const SIZE: usize = 64 * 1024;
    let data = vec![0xA5u8; SIZE];
    let mut group = c.benchmark_group("bulk_64KiB");
    group.throughput(Throughput::Bytes(SIZE as u64));

    group.bench_function("sha256", |b| {
        b.iter(|| Sha256::digest(black_box(&data)));
    });
    group.bench_function("hmac_sha256", |b| {
        b.iter(|| hmac_sha256(b"key", black_box(&data)));
    });
    group.bench_function("aes256_ctr", |b| {
        b.iter(|| {
            let mut buf = data.clone();
            AesCtr256::new(&[7; 32], &[1; 16]).apply_keystream(&mut buf);
            buf
        });
    });
    group.bench_function("aes256_gcm_seal", |b| {
        let gcm = AesGcm256::new(&[7; 32]);
        b.iter(|| gcm.seal(&[1; 12], b"", black_box(&data)));
    });
    group.bench_function("siphash24", |b| {
        let sip = SipHash24::new(&[7; 16]);
        b.iter(|| sip.hash(black_box(&data)));
    });
    group.bench_function("aes128_cmac", |b| {
        b.iter(|| aes128_cmac(&[7; 16], black_box(&data)));
    });
    group.finish();
}

/// Bulk data-plane throughput at the sizes the paper's workflows move:
/// ~1 MiB register/DRAM buffers and ~16 MiB (bitstream-scale) streams.
/// CTR, GCM seal/open, and the end-to-end `encrypt_for_device` path the
/// SM enclave runs per deployment.
fn bench_bulk_throughput(c: &mut Criterion) {
    const MIB: usize = 1 << 20;
    for &size in &[MIB, 16 * MIB] {
        let label = if size == MIB { "1MiB" } else { "16MiB" };
        let data = vec![0xA5u8; size];
        let mut group = c.benchmark_group(format!("bulk_{label}"));
        group.throughput(Throughput::Bytes(size as u64));
        group.sample_size(if size == MIB { 10 } else { 5 });

        let key = [7u8; 32];
        let iv = [1u8; 16];
        let cipher = salus_crypto::aes::Aes256::new(&key);
        group.bench_function(BenchmarkId::new("aes256_ctr_serial", label), |b| {
            b.iter(|| {
                let mut buf = data.clone();
                AesCtr256::from_cipher(cipher.clone(), &iv).apply_keystream(&mut buf);
                buf
            });
        });

        let gcm = AesGcm256::new(&key);
        group.bench_function(BenchmarkId::new("aes256_gcm_seal", label), |b| {
            b.iter(|| gcm.seal(&[1; 12], b"aad", black_box(&data)));
        });
        let sealed = gcm.seal(&[1; 12], b"aad", &data);
        group.bench_function(BenchmarkId::new("aes256_gcm_open", label), |b| {
            b.iter(|| gcm.open(&[1; 12], b"aad", black_box(&sealed)).unwrap());
        });

        group.bench_function(BenchmarkId::new("encrypt_for_device", label), |b| {
            b.iter(|| {
                salus_bitstream::encrypt::encrypt_for_device(black_box(&data), &key, &[9; 12], 77)
            });
        });
        group.finish();
    }
}

fn bench_merkle(c: &mut Criterion) {
    const SIZE: usize = 64 * 1024;
    let data = vec![0xA5u8; SIZE];
    let mut group = c.benchmark_group("merkle_64KiB_256B_chunks");
    group.throughput(Throughput::Bytes(SIZE as u64));
    group.bench_function("root", |b| {
        b.iter(|| salus_crypto::merkle::root(&[7; 32], black_box(&data), 256));
    });
    group.finish();
}

fn bench_x25519(c: &mut Criterion) {
    let secret = StaticSecret::from_bytes([9; 32]);
    let peer = PublicKey::from(&StaticSecret::from_bytes([5; 32]));
    c.bench_function("x25519_diffie_hellman", |b| {
        b.iter(|| secret.diffie_hellman(black_box(&peer)));
    });
}

criterion_group!(
    benches,
    bench_block_ciphers,
    bench_bulk,
    bench_bulk_throughput,
    bench_merkle,
    bench_x25519
);
criterion_main!(benches);
