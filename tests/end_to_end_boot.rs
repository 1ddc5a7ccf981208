//! Integration: the full secure CL boot flow across every crate.

use std::time::Duration;

use salus::core::boot::{secure_boot, BootPhase, BootPlan};
use salus::core::instance::{TestBed, TestBedConfig};

#[test]
fn quick_boot_attests_all_components() {
    let mut bed = TestBed::quick_demo();
    let outcome = secure_boot(&mut bed, BootPlan::single()).unwrap();
    assert!(outcome.report.user_attested);
    assert!(outcome.report.sm_attested);
    assert!(outcome.report.cl_attested);
    assert!(bed.client.platform_attested());
    assert!(bed.user_app.data_key().is_some());
}

#[test]
fn paper_scale_boot_reproduces_fig9_shape() {
    let mut bed = TestBed::paper_scale();
    let outcome = secure_boot(&mut bed, BootPlan::single()).unwrap();
    let b = &outcome.breakdown;
    let total = b.total();

    // Total ≈ 18.8 s (paper).
    assert!(total > Duration::from_millis(17_500), "total {total:?}");
    assert!(total < Duration::from_millis(20_500), "total {total:?}");

    // Manipulation dominates at ≈ 73%.
    let manip = b.phase(BootPhase::BitstreamManipulation);
    let share = manip.as_secs_f64() / total.as_secs_f64();
    assert!((0.68..=0.78).contains(&share), "manipulation share {share}");

    // Verify + encrypt ≈ 725 ms.
    let ve = b.phase(BootPhase::BitstreamVerify) + b.phase(BootPhase::BitstreamEncrypt);
    assert!(
        ve > Duration::from_millis(650) && ve < Duration::from_millis(800),
        "{ve:?}"
    );

    // Device key distribution ≈ 1709 ms.
    let dkd = b.phase(BootPhase::SmQuoteGen)
        + b.phase(BootPhase::SmQuoteVerify)
        + b.phase(BootPhase::DeviceKeyTransfer);
    assert!(
        dkd > Duration::from_millis(1_500) && dkd < Duration::from_millis(1_900),
        "{dkd:?}"
    );

    // Local attestation ≈ 836 µs; CL attestation ≈ 1.3 ms — both tiny.
    assert!(b.phase(BootPhase::LocalAttestation) < Duration::from_millis(2));
    assert!(b.phase(BootPhase::ClAuthentication) < Duration::from_millis(3));
}

#[test]
fn distinct_seeds_produce_distinct_secrets_but_same_digest() {
    let bed_a = TestBed::provision(TestBedConfig::quick().with_seed(1));
    let bed_b = TestBed::provision(TestBedConfig::quick().with_seed(2));
    // Same developer package (digest is seed-independent)…
    assert_eq!(bed_a.package.digest, bed_b.package.digest);
    // …different devices.
    assert_ne!(bed_a.shell.advertised_dna(), bed_b.shell.advertised_dna());
}

#[test]
fn sequential_reboots_work_and_refresh_keys() {
    let mut bed = TestBed::quick_demo();
    let mut streams = Vec::new();
    for round in 0..3 {
        let outcome = secure_boot(&mut bed, BootPlan::single()).unwrap();
        assert!(outcome.report.all_attested(), "round {round}");
        streams.push(bed.sm_app.prepared_bitstream().unwrap().clone());
    }
    // Three deployments → three distinct encrypted streams.
    assert_ne!(streams[0], streams[1]);
    assert_ne!(streams[1], streams[2]);
}

#[test]
fn register_channel_survives_many_transactions() {
    let mut bed = TestBed::quick_demo();
    secure_boot(&mut bed, BootPlan::single()).unwrap();
    for i in 0..200u64 {
        bed.secure_reg_write(1, i).unwrap();
        assert_eq!(bed.secure_reg_read(1).unwrap(), i);
    }
}

#[test]
fn boot_time_scales_with_partition_size() {
    // §6.3: bitstream operation time depends only on the reserved area.
    let mut small = TestBed::provision(TestBedConfig {
        cost: salus::core::timing::CostModel::paper_calibrated(),
        ..TestBedConfig::quick()
    });
    let small_outcome = secure_boot(&mut small, BootPlan::single()).unwrap();

    let mut large = TestBed::paper_scale();
    let large_outcome = secure_boot(&mut large, BootPlan::single()).unwrap();

    let small_manip = small_outcome
        .breakdown
        .phase(BootPhase::BitstreamManipulation);
    let large_manip = large_outcome
        .breakdown
        .phase(BootPhase::BitstreamManipulation);
    assert!(
        large_manip > small_manip * 5,
        "large RP must cost proportionally more ({large_manip:?} vs {small_manip:?})"
    );
}
