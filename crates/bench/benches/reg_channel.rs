//! Criterion benchmarks of the secure register channel (§4.5): per-
//! transaction cost of seal/verify/decrypt/forward, and an ablation of
//! the MAC choice (SipHash vs the HMAC-SHA256 the channel uses).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use salus_core::keys::KeySession;
use salus_core::reg_channel::{HostRegChannel, LogicRegChannel, RegisterOp};
use salus_crypto::hmac::HmacKey;
use salus_crypto::siphash::SipHash24;

fn bench_transactions(c: &mut Criterion) {
    let key = KeySession::from_bytes([0x33; 32]);

    c.bench_function("secure_reg_write_roundtrip", |b| {
        let mut host = HostRegChannel::new(key, 0);
        let mut logic = LogicRegChannel::new(key, 0);
        b.iter(|| {
            let sealed = host.seal_op(RegisterOp::Write { addr: 4, value: 99 });
            let op = logic.open_op(black_box(&sealed)).unwrap();
            assert!(matches!(op, RegisterOp::Write { .. }));
            let rsp = logic.seal_response(0);
            host.open_response(&rsp).unwrap()
        });
    });

    c.bench_function("secure_reg_seal_only", |b| {
        let mut host = HostRegChannel::new(key, 0);
        b.iter(|| host.seal_op(black_box(RegisterOp::Read { addr: 1 })));
    });
}

fn bench_mac_ablation(c: &mut Criterion) {
    // The SM logic uses SipHash for attestation MACs; the register
    // channel uses truncated HMAC-SHA256. This ablation quantifies the
    // gap on a register-transaction-sized message, each MAC keyed once
    // as the channel keys it (`bench_crypto` records the same rows).
    let msg = [0xAB; 21];
    c.bench_function("mac_ablation/siphash24", |b| {
        let sip = SipHash24::new(&[7; 16]);
        b.iter(|| sip.hash(black_box(&msg)));
    });
    c.bench_function("mac_ablation/hmac_sha256", |b| {
        let key = HmacKey::new(&[7; 32]);
        b.iter(|| key.tag(black_box(&msg)));
    });
}

criterion_group!(benches, bench_transactions, bench_mac_ablation);
criterion_main!(benches);
