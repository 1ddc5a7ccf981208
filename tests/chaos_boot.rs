//! Chaos integration suite: secure boots under deterministic fault
//! schedules.
//!
//! Asserts the two robustness invariants from DESIGN.md's fault model:
//!
//! 1. Under any schedule, a boot either completes with the same
//!    attestation outcome as a fault-free boot, or fails closed with a
//!    classified error (never an unclassified panic or a half-attested
//!    platform).
//! 2. Virtual boot time degrades predictably with fault pressure, and
//!    the whole sweep is bit-for-bit reproducible per seed.

use std::time::Duration;

use salus::core::boot::{
    secure_boot, BootFailure, BootPhase, BootPlan, BootStep, CascadeReport, RetryPolicy,
};
use salus::core::instance::{endpoints, TestBed, TestBedConfig};
use salus::core::SalusError;
use salus::net::adversary::BitFlipper;
use salus::net::fault::{FaultPlane, FaultSpec};

/// A policy tuned for the quick bed: short deadlines so lost messages
/// cost little virtual time, zero jitter where tests need tight bounds.
fn sweep_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(20),
        backoff_factor: 2,
        max_backoff: Duration::from_millis(200),
        jitter_per_mille: 250,
        deadline: Some(Duration::from_millis(500)),
    }
}

fn fault_free_report() -> CascadeReport {
    let mut bed = TestBed::provision(TestBedConfig::quick());
    secure_boot(&mut bed, BootPlan::single()).unwrap().report
}

/// One boot under a fault schedule, reduced to a comparable fingerprint.
fn run_schedule(fault_seed: u64, spec: FaultSpec, plan: BootPlan) -> String {
    let mut bed = TestBed::provision(TestBedConfig::quick());
    bed.fabric
        .install_fault_plane(FaultPlane::new(fault_seed, spec));
    match secure_boot(&mut bed, plan) {
        Ok(boot) => format!(
            "ok report={:?} phases={:?} trace={:?}",
            boot.report,
            boot.breakdown
                .phases()
                .iter()
                .map(|(p, d)| (*p, d.as_nanos()))
                .collect::<Vec<_>>(),
            boot.trace
                .steps()
                .iter()
                .map(|s| (
                    s.step,
                    s.attempts,
                    s.transient_failures,
                    s.backoff.as_nanos()
                ))
                .collect::<Vec<_>>(),
        ),
        Err(failure) => match &failure {
            BootFailure::Fatal(f) => format!(
                "{} step={:?} err={:?} attempts={}",
                failure.classification(),
                f.step,
                f.error,
                f.trace.total_attempts(),
            ),
            BootFailure::Suspended(s) => format!(
                "{} step={:?} err={:?} attempts={}",
                failure.classification(),
                s.step(),
                s.last_error(),
                s.trace().total_attempts(),
            ),
        },
    }
}

#[test]
fn inert_fault_plane_reproduces_fault_free_figure9_exactly() {
    let mut plain = TestBed::provision(TestBedConfig::quick());
    let reference = secure_boot(&mut plain, BootPlan::single()).unwrap();

    let mut bed = TestBed::provision(TestBedConfig::quick());
    bed.fabric.install_fault_plane(FaultPlane::inert());
    let boot = secure_boot(&mut bed, BootPlan::resilient()).unwrap();

    assert_eq!(boot.breakdown, reference.breakdown);
    assert_eq!(boot.report, reference.report);
    assert_eq!(boot.trace.total_transient_failures(), 0);
}

#[test]
fn fault_sweep_is_deterministic_and_every_outcome_is_classified() {
    let reference = fault_free_report();
    let plan = BootPlan::resilient().with_retry(sweep_policy());

    for fault_seed in [11u64, 23, 47] {
        for drop_per_mille in [0u32, 20, 60, 150] {
            let spec = || {
                FaultSpec::default()
                    .with_drop_per_mille(drop_per_mille)
                    .with_duplicate_per_mille(30)
            };
            let first = run_schedule(fault_seed, spec(), plan);
            let second = run_schedule(fault_seed, spec(), plan);
            assert_eq!(
                first, second,
                "seed {fault_seed} drop {drop_per_mille}‰ not reproducible"
            );
            // Every outcome is either the fault-free attestation result
            // or a classified failure — nothing in between.
            let ok = first.starts_with(&format!("ok report={reference:?}"));
            let classified = ["transient-exhausted", "fail-closed", "suspended"]
                .iter()
                .any(|c| first.starts_with(c));
            assert!(
                ok || classified,
                "seed {fault_seed} drop {drop_per_mille}‰: unclassified outcome {first}"
            );
        }
    }
}

#[test]
fn moderate_drop_rate_still_boots_with_retries() {
    let reference = fault_free_report();
    let plan = BootPlan::resilient().with_retry(sweep_policy());
    let mut booted = 0u32;
    let mut retried = 0u32;
    for fault_seed in [1u64, 2, 3, 4, 5] {
        let mut bed = TestBed::provision(TestBedConfig::quick());
        bed.fabric.install_fault_plane(FaultPlane::new(
            fault_seed,
            FaultSpec::default().with_drop_per_mille(80),
        ));
        if let Ok(boot) = secure_boot(&mut bed, plan) {
            booted += 1;
            assert_eq!(boot.report, reference);
            assert!(boot.report.all_attested());
            retried += boot.trace.total_transient_failures();
        }
    }
    assert!(booted >= 3, "only {booted}/5 seeds booted at 80‰ drop");
    assert!(retried > 0, "no seed exercised the retry path");
}

#[test]
fn virtual_boot_time_degrades_predictably_with_outage_length() {
    // Zero jitter keeps the bound tight.
    let policy = RetryPolicy {
        max_attempts: 12,
        base_backoff: Duration::from_millis(50),
        backoff_factor: 2,
        max_backoff: Duration::from_millis(500),
        jitter_per_mille: 0,
        deadline: Some(Duration::from_secs(1)),
    };
    let plan = BootPlan::resilient().with_retry(policy);
    let cycle = Duration::from_millis(1500); // deadline + backoff cap

    // Baseline: fault-free total virtual boot time on the quick bed.
    let mut plain = TestBed::provision(TestBedConfig::quick());
    let base_total = secure_boot(&mut plain, plan).unwrap().trace.total_elapsed();

    // Manufacturer outages strictly longer than the whole fault-free
    // boot, so the key-distribution round always has to wait them out.
    let mut totals = vec![base_total];
    let mut failures = vec![0u32];
    for extra in [Duration::from_secs(2), Duration::from_secs(6)] {
        let outage = base_total + extra;
        let mut bed = TestBed::provision(TestBedConfig::quick());
        bed.fabric.install_fault_plane(FaultPlane::new(
            9,
            FaultSpec::default().with_outage(endpoints::MANUFACTURER, Duration::ZERO, outage),
        ));
        let boot = secure_boot(&mut bed, plan)
            .unwrap_or_else(|f| panic!("outage {outage:?}: {}", f.classification()));
        assert!(boot.report.all_attested());
        totals.push(boot.trace.total_elapsed());
        failures.push(boot.trace.total_transient_failures());
    }

    assert!(
        totals[0] < totals[1] && totals[1] < totals[2],
        "virtual time not monotone in outage length: {totals:?}"
    );
    assert!(
        failures[0] < failures[1] && failures[1] <= failures[2],
        "retry count not monotone in outage length: {failures:?}"
    );
    // The 4 s of extra outage shows up as ≈4 s of extra virtual time,
    // quantized by at most one retry cycle on each side.
    let diff = totals[2].saturating_sub(totals[1]);
    assert!(
        diff > Duration::from_secs(4).saturating_sub(cycle)
            && diff < Duration::from_secs(4) + cycle,
        "degradation not predictable: {diff:?}"
    );
}

#[test]
fn mac_tamper_mid_retry_loop_is_immediately_fatal() {
    // A client-side outage forces real retries early in the boot; the
    // bit-flipper then corrupts the CL-attestation response. The boot
    // must fail closed at that step with zero further attempts, even
    // though the retry machinery is demonstrably active.
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(10),
        backoff_factor: 2,
        max_backoff: Duration::from_millis(100),
        jitter_per_mille: 0,
        deadline: Some(Duration::from_millis(50)),
    };
    let plan = BootPlan::resilient().with_retry(policy);

    let mut bed = TestBed::provision(TestBedConfig::quick());
    bed.fabric.install_fault_plane(FaultPlane::new(
        3,
        FaultSpec::default().with_outage(
            endpoints::CLIENT,
            Duration::ZERO,
            Duration::from_millis(100),
        ),
    ));
    bed.fabric
        .channel(endpoints::FPGA, endpoints::HOST)
        .interpose(BitFlipper::new(0, 20));

    let failure = secure_boot(&mut bed, plan).unwrap_err();
    let BootFailure::Fatal(fatal) = failure else {
        panic!("expected fatal failure, got suspension");
    };
    assert_eq!(fatal.step, BootStep::ClAuthentication);
    assert!(
        !fatal.retries_exhausted,
        "integrity failure must not be charged to the retry budget"
    );
    assert!(
        matches!(fatal.error, SalusError::ClAttestationFailed(_)),
        "unexpected error {:?}",
        fatal.error
    );

    // The retry loop really ran (the outage forced transient failures)…
    assert!(
        fatal.trace.total_transient_failures() > 0,
        "schedule produced no retries; tamper was not mid-loop"
    );
    // …but the tampered step got exactly one attempt and zero retries.
    let auth = fatal.trace.step(BootStep::ClAuthentication).unwrap();
    assert_eq!(auth.attempts, 1, "no further attempts after tampering");
    assert_eq!(auth.transient_failures, 0);
    // Partial breakdown still accounts the phases that did run.
    assert!(fatal
        .breakdown
        .phases()
        .iter()
        .any(|(p, _)| *p == BootPhase::UserQuoteGen));
}

#[test]
fn manufacturer_outage_suspends_then_resumes_to_full_attestation() {
    let reference = fault_free_report();
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(10),
        backoff_factor: 2,
        max_backoff: Duration::from_millis(50),
        jitter_per_mille: 0,
        deadline: Some(Duration::from_millis(200)),
    };
    let plan = BootPlan::resilient().with_retry(policy);

    let mut bed = TestBed::provision(TestBedConfig::quick());
    bed.fabric.install_fault_plane(FaultPlane::new(
        5,
        FaultSpec::default().with_outage(
            endpoints::MANUFACTURER,
            Duration::ZERO,
            Duration::from_secs(3600),
        ),
    ));

    let failure = secure_boot(&mut bed, plan).unwrap_err();
    assert_eq!(failure.classification(), "suspended");
    let BootFailure::Suspended(suspension) = failure else {
        panic!("expected suspension");
    };
    assert!(suspension.step().manufacturer_facing());
    assert!(suspension.last_error().is_transient());
    // The work done before the outage is preserved and accounted, and
    // the phases past the outage never ran.
    assert!(suspension
        .breakdown()
        .phases()
        .iter()
        .any(|(p, _)| *p == BootPhase::LocalAttestation));
    assert!(!suspension
        .breakdown()
        .phases()
        .iter()
        .any(|(p, _)| *p == BootPhase::DeviceKeyTransfer));
    let parked = suspension.step();
    let prior = suspension.trace().step(parked).unwrap();
    assert_eq!(prior.transient_failures, policy.max_attempts);

    // The manufacturer comes back: resume from the parked step.
    bed.fabric.clear_fault_plane();
    let boot = suspension.resume(&mut bed).unwrap();
    assert_eq!(boot.report, reference);
    assert!(boot.report.all_attested());
    // The parked step's accounting carried over and gained the success.
    let after = boot.trace.step(parked).unwrap();
    assert_eq!(after.transient_failures, policy.max_attempts);
    assert_eq!(after.attempts, policy.max_attempts + 1);
    // The resumed instance is fully operational.
    bed.secure_reg_write(0x2, 42).unwrap();
    assert_eq!(bed.secure_reg_read(0x2).unwrap(), 42);
}
