//! Integration: the whole simulation is deterministic — a requirement
//! for the reproducibility claims in EXPERIMENTS.md.

use salus::core::boot::{secure_boot, BootOutcome, BootPhase, BootPlan};
use salus::core::instance::{endpoints, TestBed, TestBedConfig};
use salus::net::adversary::Snooper;

/// Boots a quick bed under `seed` with a snooper on the host→FPGA link
/// and returns the outcome, the bed and the two payloads the shell
/// received: the sealed bitstream, then the attestation request.
fn boot_observed(seed: u64) -> (BootOutcome, TestBed, Vec<Vec<u8>>) {
    let mut bed = TestBed::provision(TestBedConfig::quick().with_seed(seed));
    let tap = bed
        .fabric
        .channel(endpoints::HOST, endpoints::FPGA)
        .interpose(Snooper::new());
    let outcome = secure_boot(&mut bed, BootPlan::single()).unwrap();
    let payloads: Vec<Vec<u8>> =
        tap.with(|s| s.observed.iter().map(|(_, _, p)| p.clone()).collect());
    assert_eq!(payloads.len(), 2, "one sealed stream, one attest request");
    assert_eq!(
        payloads[0].as_slice(),
        bed.sm_app.prepared_bitstream().unwrap().as_slice(),
        "message 0 is the sealed stream the board loaded"
    );
    (outcome, bed, payloads)
}

#[test]
fn identical_seeds_produce_identical_boots() {
    let run = || {
        let (outcome, bed, streams) = boot_observed(7);
        (
            streams,
            outcome.breakdown.total(),
            *bed.user_app.data_key().unwrap().as_bytes(),
        )
    };
    let (streams_a, total_a, key_a) = run();
    let (streams_b, total_b, key_b) = run();
    assert_eq!(streams_a, streams_b, "encrypted bitstreams identical");
    assert_eq!(total_a, total_b, "virtual time identical");
    assert_eq!(key_a, key_b, "released data key identical");
}

#[test]
fn paper_breakdown_is_bitwise_reproducible() {
    let run = || {
        let mut bed = TestBed::paper_scale();
        let outcome = secure_boot(&mut bed, BootPlan::single()).unwrap();
        outcome
            .breakdown
            .phases()
            .iter()
            .map(|(p, d)| (format!("{p:?}"), d.as_nanos()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_change_secrets_not_structure() {
    let phases = |seed: u64| {
        let (outcome, _, streams) = boot_observed(seed);
        (
            outcome
                .breakdown
                .phases()
                .iter()
                .map(|(p, _)| *p)
                .collect::<Vec<BootPhase>>(),
            streams,
        )
    };
    let (order_a, streams_a) = phases(1);
    let (order_b, streams_b) = phases(2);
    assert_eq!(order_a, order_b, "phase order is structural");
    // Compare the sealed streams alone: the attestation request carries
    // a fresh nonce and MAC, so it differs across seeds regardless.
    assert_ne!(
        streams_a[0], streams_b[0],
        "ciphertexts differ across seeds"
    );
}

#[test]
fn workload_results_are_machine_independent_constants() {
    // Golden digests (first 8 SHA-256 bytes) of each kernel's output,
    // recorded before the fast Conv/Affine kernels replaced the
    // straightforward loops. Any change to a kernel's bytes or to the
    // data generator breaks this test; a kernel rewrite must not.
    use salus::accel::apps::affine::{Affine, AffineMatrix};
    use salus::accel::apps::conv::Conv;
    use salus::accel::data::DataGen;
    use salus::accel::workload::{all_workloads, Workload};
    use salus::crypto::sha256::{to_hex, Sha256};

    fn digest(w: &dyn Workload, input: &[u8]) -> String {
        to_hex(&Sha256::digest(&w.compute(input))[..8])
    }
    // A non-default input of the workload's own length.
    fn seeded(w: &dyn Workload) -> Vec<u8> {
        DataGen::new("determinism-pin").bytes(w.input().len())
    }

    // The five paper-scale workloads, then the 512² Affine that
    // `serve-bulk` serves and a small Conv with 2→3 channels.
    let mut workloads = all_workloads();
    workloads.push(Box::new(Affine::new(512, AffineMatrix::demo())));
    workloads.push(Box::new(Conv::new(8, 8, 2, 3)));
    // (name, default-input digest, seeded-input digest)
    let expected = [
        ("Conv", "f5ad8719afa128c6", "1cce4b8b6a2438d8"),
        ("Affine", "229b20ac88f8f75c", "a8340367a77b39e7"),
        ("Rendering", "b3dfcb47e7426b02", "54370880277750f0"),
        ("FaceDetect", "2b9832f0ddbd9c37", "057365b1838674f1"),
        ("NNSearch", "2d96fc9a405f5a66", "ad9415ebbce6663e"),
        ("Affine", "d8abc7291650bf8c", "7286404c1358439f"),
        ("Conv", "0d046e818d65c935", "7ddc7601b4c7bef6"),
    ];
    assert_eq!(workloads.len(), expected.len());
    for (i, (w, (name, default, seeded_pin))) in workloads.iter().zip(expected).enumerate() {
        let w = w.as_ref();
        assert_eq!(w.name(), name, "row {i}");
        assert_eq!(
            digest(w, w.input()),
            default,
            "row {i} ({name}) default input"
        );
        assert_eq!(
            digest(w, &seeded(w)),
            seeded_pin,
            "row {i} ({name}) seeded input"
        );
    }
}
