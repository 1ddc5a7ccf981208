//! Property-based tests of the Salus protocol layers: CL attestation,
//! the secure register channel, and the TEE report machinery.

use proptest::prelude::*;

use salus::core::cl_attest;
use salus::core::keys::{KeyAttest, KeySession};
use salus::core::reg_channel::{HostRegChannel, LogicRegChannel, RegisterOp, SealedRegMsg};
use salus::tee::measurement::EnclaveImage;
use salus::tee::platform::SgxPlatform;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CL attestation succeeds iff key and DNA match on both sides.
    #[test]
    fn cl_attestation_completeness_and_soundness(
        key_a in prop::array::uniform16(any::<u8>()),
        key_b in prop::array::uniform16(any::<u8>()),
        nonce in any::<u64>(),
        dna_a in any::<u64>(),
        dna_b in any::<u64>(),
    ) {
        let ka = KeyAttest::from_bytes(key_a);
        let kb = KeyAttest::from_bytes(key_b);

        // Completeness: same key, same DNA.
        let req = cl_attest::build_request(&ka, nonce, dna_a);
        prop_assert!(cl_attest::verify_request(&ka, &req, dna_a));
        let rsp = cl_attest::build_response(&ka, &req, dna_a);
        prop_assert!(cl_attest::verify_response(&ka, nonce, &rsp, dna_a).is_ok());

        // Soundness: key mismatch.
        if key_a != key_b {
            prop_assert!(!cl_attest::verify_request(&kb, &req, dna_a));
        }
        // Soundness: DNA mismatch.
        if dna_a != dna_b {
            prop_assert!(!cl_attest::verify_request(&ka, &req, dna_b));
        }
    }

    /// Any in-flight modification of a sealed register message is
    /// rejected by the SM logic.
    #[test]
    fn register_channel_rejects_all_tampering(
        key in prop::array::uniform32(any::<u8>()),
        seed in any::<u64>(),
        addr in any::<u32>(),
        value in any::<u64>(),
        flip_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let k = KeySession::from_bytes(key);
        let mut host = HostRegChannel::new(k, seed);
        let mut logic = LogicRegChannel::new(k, seed);

        let sealed = host.seal_op(RegisterOp::Write { addr, value });
        let mut wire = sealed.to_bytes();
        let pos = flip_seed % wire.len();
        wire[pos] ^= 1 << bit;

        // If framing itself rejects the bytes that is also a detection.
        if let Ok(tampered) = SealedRegMsg::from_bytes(&wire) {
            prop_assert!(logic.open_op(&tampered).is_err());
        }
        // The honest message still goes through afterwards.
        prop_assert!(logic.open_op(&sealed).is_ok());
    }

    /// Register transactions roundtrip for any op sequence.
    #[test]
    fn register_channel_sequences_roundtrip(
        key in prop::array::uniform32(any::<u8>()),
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<bool>(), any::<u32>(), any::<u64>()), 1..16),
    ) {
        let k = KeySession::from_bytes(key);
        let mut host = HostRegChannel::new(k, seed);
        let mut logic = LogicRegChannel::new(k, seed);
        for (is_write, addr, value) in ops {
            let op = if is_write {
                RegisterOp::Write { addr, value }
            } else {
                RegisterOp::Read { addr }
            };
            let sealed = host.seal_op(op);
            let received = logic.open_op(&sealed).unwrap();
            prop_assert_eq!(received, op);
            let rsp = logic.seal_response(value);
            prop_assert_eq!(host.open_response(&rsp).unwrap(), value);
        }
    }

    /// Any single bit flip in a serialized write-ahead journal is
    /// detected: either framing rejects the bytes outright, or chain
    /// verification pinpoints a bad record.
    #[test]
    fn journal_rejects_any_bit_flip(
        seed in any::<u64>(),
        ops in 1usize..10,
        flip_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        use std::time::Duration;
        use salus::core::platform::{
            AbortKind, DeployPath, HashChain, IntentOp, Journal, SlotId, TenantId,
        };

        let mut journal = Journal::new();
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        for i in 0..ops {
            let at = Duration::from_nanos(i as u64);
            let slot = SlotId {
                device: (next() % 4) as usize,
                partition: (next() % 2) as usize,
            };
            let tenant = TenantId(next() % 8);
            let op = journal.begin(at, IntentOp::Deploy { tenant, slot });
            match next() % 3 {
                0 => journal.commit(at, op, Some(DeployPath::Cold), Duration::from_micros(i as u64)),
                1 => journal.abort(at, op, "chaos", AbortKind::Failed),
                _ => journal.suspend(at, op, "DeviceKeyTransfer"),
            }
        }

        // The honest bytes roundtrip and verify.
        let wire = journal.to_bytes();
        let decoded = Journal::from(HashChain::from_bytes(&wire).unwrap());
        prop_assert!(decoded.verify().is_ok());
        prop_assert_eq!(decoded.head(), journal.head());

        // One flipped bit anywhere must be detected.
        let mut tampered = wire.clone();
        let pos = flip_seed % tampered.len();
        tampered[pos] ^= 1 << bit;
        if let Ok(forged) = HashChain::from_bytes(&tampered).map(Journal::from) {
            prop_assert!(
                forged.verify().is_err(),
                "flip at byte {} bit {} went undetected",
                pos,
                bit
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Reports only verify for the exact (platform, target, content)
    /// they were issued for.
    #[test]
    fn report_binding_is_exact(
        code_a in prop::collection::vec(any::<u8>(), 1..32),
        code_b in prop::collection::vec(any::<u8>(), 1..32),
        data in prop::array::uniform32(any::<u8>()),
    ) {
        prop_assume!(code_a != code_b);
        let platform = SgxPlatform::new(b"prop", 1);
        let a = platform.load_enclave(&EnclaveImage::from_code("a", &code_a)).unwrap();
        let b = platform.load_enclave(&EnclaveImage::from_code("b", &code_b)).unwrap();

        let mut report_data = [0u8; 64];
        report_data[..32].copy_from_slice(&data);
        let report = a.ereport(b.measurement(), report_data);
        prop_assert!(b.verify_report(&report));
        prop_assert!(!a.verify_report(&report), "wrong target");

        let mut tampered = report.clone();
        tampered.report_data[0] ^= 1;
        prop_assert!(!b.verify_report(&tampered));
    }
}
