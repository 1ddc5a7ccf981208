//! Fleet-level chaos suite: multi-tenant deployments under
//! deterministic fault schedules.
//!
//! Where `tests/chaos_boot.rs` hammers one boot on one bed, this suite
//! drives the whole control plane — scheduler, device health,
//! cross-board retry, outage suspension, parked redeploys — under
//! seeded [`FaultPlan`]s and asserts the fleet invariants from
//! DESIGN.md §12:
//!
//! 1. Identical seeds reproduce identical placement/health/outcome
//!    traces, bit for bit.
//! 2. Transient mid-boot failures fail over to a *different* board;
//!    boards that keep failing are quarantined, skipped, and later
//!    probationally re-admitted.
//! 3. No schedule leaks a lease or a parked ciphertext: once live
//!    deployments are drained the fleet is exactly as free as it
//!    started.

use std::time::Duration;

use salus::core::boot::{BootPlan, RetryPolicy};
use salus::core::dev::loopback_accelerator;
use salus::core::platform::{
    ControlPlane, DeployFailure, DeployPath, DeployPolicy, HealthPolicy, HealthState,
    PlatformConfig, TenantDeployment,
};
use salus::core::{PlaceError, SalusError};
use salus::net::fault::{FaultPlan, FaultSpec};

/// Short deadlines so lost messages cost little virtual time; zero
/// jitter where tests need tight reasoning about the timeline.
fn sweep_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(20),
        backoff_factor: 2,
        max_backoff: Duration::from_millis(200),
        jitter_per_mille: 0,
        deadline: Some(Duration::from_millis(500)),
    }
}

/// The boot plan every fleet chaos deploy runs: resilient retries,
/// warm-key reuse, no suspension (cross-board failover instead).
fn sweep_plan() -> BootPlan {
    BootPlan::resilient()
        .with_retry(sweep_policy())
        .with_reuse_cached_device_key(true)
        .with_suspend_on_outage(false)
}

/// A quick fleet with a fast quarantine trigger so small sweeps reach
/// the health machinery.
fn chaos_plane(devices: usize, partitions: usize) -> ControlPlane {
    ControlPlane::provision(
        PlatformConfig::quick(devices, partitions).with_health(
            HealthPolicy::default()
                .with_quarantine_after(2)
                .with_readmit_window(Duration::from_secs(60), Duration::from_secs(120)),
        ),
    )
    .expect("plane provisions")
}

/// One whole fleet scenario — N tenants deployed sequentially under a
/// seeded fault plan, then drained — reduced to a comparable
/// fingerprint string.
fn run_fleet_schedule(fault_seed: u64, drop_per_mille: u32, tenants: usize) -> String {
    let plane = chaos_plane(2, 2);
    let policy = DeployPolicy::resilient()
        .with_plan(sweep_plan())
        .with_placements(2)
        .with_fault_plan(FaultPlan::new(
            fault_seed,
            FaultSpec::default()
                .with_drop_per_mille(drop_per_mille)
                .with_duplicate_per_mille(30),
        ));

    let mut out = String::new();
    let mut live = Vec::new();
    for i in 0..tenants {
        let tenant = plane.register_tenant(&format!("t{i}"));
        match plane.deploy(tenant, loopback_accelerator(), policy.clone()) {
            Ok(d) => {
                out.push_str(&format!(
                    "t{i} ok slot={:?} path={:?} attempts={} total={:?}\n",
                    d.slot,
                    d.path,
                    d.attempts,
                    d.outcome.breakdown.total()
                ));
                live.push(d);
            }
            Err(DeployFailure::Suspended(s)) => {
                out.push_str(&format!(
                    "t{i} suspended slot={:?} step={:?}\n",
                    s.slot(),
                    s.step()
                ));
                let err = plane.abandon_deploy(*s);
                out.push_str(&format!("t{i} abandoned err={err:?}\n"));
            }
            Err(f) => {
                out.push_str(&format!(
                    "t{i} {} tried={:?} err={:?}\n",
                    f.classification(),
                    f.attempts()
                        .iter()
                        .map(|a| (a.slot.device, a.step, a.retries_exhausted))
                        .collect::<Vec<_>>(),
                    match &f {
                        DeployFailure::Rejected(e) => e.clone(),
                        DeployFailure::Failed { error, .. } => error.clone(),
                        DeployFailure::Suspended(_) => unreachable!(),
                    },
                ));
            }
        }
    }

    let snap = plane.snapshot();
    out.push_str(&format!(
        "now={:?} free={}/{} health={:?} tenants={:?}\n",
        snap.now,
        snap.free_slots,
        snap.total_slots,
        snap.health
            .iter()
            .map(|h| (h.device, h.state, h.total_failures, h.quarantines))
            .collect::<Vec<_>>(),
        snap.tenants
            .iter()
            .map(|t| (t.id, t.total_deploys(), t.failed_deploys))
            .collect::<Vec<_>>(),
    ));

    // Drain: every live deployment must release cleanly even after a
    // chaotic run.
    plane.clear_fault_plan();
    let live_count = live.len();
    for d in live {
        plane.evict(d).expect("live deployment evicts");
    }
    let snap = plane.snapshot();
    out.push_str(&format!(
        "drained free={}/{} parked={}\n",
        snap.free_slots,
        snap.total_slots,
        snap.parked.len()
    ));
    assert_eq!(
        snap.free_slots, snap.total_slots,
        "leaked lease after drain (seed {fault_seed}, drop {drop_per_mille}‰)"
    );
    assert_eq!(
        snap.parked.len(),
        live_count,
        "parked set out of step with evictions"
    );
    out
}

#[test]
fn fleet_chaos_sweep_is_deterministic_and_leak_free() {
    for fault_seed in [5u64, 17, 71] {
        for drop_per_mille in [0u32, 40, 120, 1000] {
            let first = run_fleet_schedule(fault_seed, drop_per_mille, 4);
            let second = run_fleet_schedule(fault_seed, drop_per_mille, 4);
            assert_eq!(
                first, second,
                "seed {fault_seed} drop {drop_per_mille}‰ not reproducible"
            );
            // Every per-tenant outcome is classified.
            for (i, line) in first.lines().take(4).enumerate() {
                assert!(
                    ["ok", "failed", "rejected", "suspended", "abandoned"]
                        .iter()
                        .any(|c| line.starts_with(&format!("t{i} {c}"))
                            || line.contains(&format!("t{i} {c}"))),
                    "unclassified outcome: {line}"
                );
            }
        }
    }
}

#[test]
fn fleet_degrades_monotonically_with_drop_rate() {
    // Aggregate successes over seeds at increasing fault intensity. The
    // endpoints are exact: a fault-free fleet deploys everyone, a fully
    // lossy fabric deploys no-one; the middle sits in between.
    let mut successes = Vec::new();
    for drop_per_mille in [0u32, 120, 1000] {
        let mut ok = 0usize;
        for fault_seed in [5u64, 17, 71] {
            let trace = run_fleet_schedule(fault_seed, drop_per_mille, 4);
            ok += trace.lines().filter(|l| l.contains(" ok slot=")).count();
        }
        successes.push(ok);
    }
    assert_eq!(successes[0], 12, "fault-free fleet must deploy everyone");
    assert_eq!(successes[2], 0, "fully lossy fabric must deploy no-one");
    assert!(
        successes[0] >= successes[1] && successes[1] >= successes[2],
        "success count not monotone in drop rate: {successes:?}"
    );
}

/// No two live leases may ever overlap in DRAM: on a shared board each
/// must hold a disjoint window, and every window must be the one its
/// slot's geometry derives.
fn assert_windows_disjoint(live: &[TenantDeployment], context: &str) {
    for (i, a) in live.iter().enumerate() {
        for b in &live[i + 1..] {
            assert_ne!(a.slot, b.slot, "two live leases on one slot ({context})");
            if a.slot.device == b.slot.device {
                assert!(
                    !a.window.overlaps(&b.window),
                    "live leases {:?} and {:?} share DRAM: {} vs {} ({context})",
                    a.slot,
                    b.slot,
                    a.window,
                    b.window
                );
            }
        }
    }
}

#[test]
fn chaos_sweep_never_shares_a_window_between_live_leases() {
    // A seeded churn schedule — deploys, redeploys and evictions under
    // lossy fabric — with the window-disjointness invariant checked
    // after every event.
    for fault_seed in [5u64, 17, 71] {
        for drop_per_mille in [0u32, 40, 120] {
            let plane = chaos_plane(2, 2);
            let policy = DeployPolicy::resilient()
                .with_plan(sweep_plan())
                .with_placements(2)
                .with_fault_plan(FaultPlan::new(
                    fault_seed,
                    FaultSpec::default().with_drop_per_mille(drop_per_mille),
                ));
            let context = format!("seed {fault_seed}, drop {drop_per_mille}‰");

            let tenants: Vec<_> = (0..6)
                .map(|i| plane.register_tenant(&format!("w{i}")))
                .collect();
            let mut live: Vec<TenantDeployment> = Vec::new();
            let mut rng = fault_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(drop_per_mille));

            for step in 0..24 {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if step % 3 < 2 {
                    // Bring a tenant up: warm redeploy when parked, a
                    // fresh scheduled deploy otherwise. Failures under
                    // chaos are fine — leaks and overlaps are not.
                    let tenant = tenants[(rng >> 33) as usize % tenants.len()];
                    if live.iter().any(|d| d.tenant == tenant) {
                        continue;
                    }
                    let deployed = if plane.has_parked(tenant) {
                        plane.redeploy(tenant).ok()
                    } else {
                        plane
                            .deploy(tenant, loopback_accelerator(), policy.clone())
                            .ok()
                    };
                    if let Some(d) = deployed {
                        assert_eq!(
                            plane.dram_window(d.slot),
                            Some(d.window),
                            "lease window must derive from its slot ({context})"
                        );
                        live.push(d);
                    }
                } else if !live.is_empty() {
                    let idx = (rng >> 17) as usize % live.len();
                    let d = live.swap_remove(idx);
                    plane.evict(d).expect("live deployment evicts");
                }
                assert_windows_disjoint(&live, &context);
            }

            // Drain and verify nothing leaked.
            plane.clear_fault_plan();
            for d in live.drain(..) {
                plane.evict(d).expect("drain evicts");
            }
            let snap = plane.snapshot();
            assert_eq!(
                snap.free_slots, snap.total_slots,
                "leaked lease after drain ({context})"
            );
        }
    }
}

#[test]
fn transient_boot_failure_fails_over_to_a_different_board() {
    let plane = chaos_plane(2, 1);
    let tenant = plane.register_tenant("alice");
    // Board 0's PCIe endpoint is dark for a long time: every boot on it
    // exhausts its transient retry budget.
    plane.install_fault_plan(&FaultPlan::new(
        3,
        FaultSpec::default().with_outage(
            "fleet.dev0.fpga",
            Duration::ZERO,
            Duration::from_secs(3_600),
        ),
    ));

    let d = plane
        .deploy(
            tenant,
            loopback_accelerator(),
            DeployPolicy::resilient().with_plan(sweep_plan()),
        )
        .expect("failover deploy succeeds");
    assert_eq!(d.slot.device, 1, "retry must land on the other board");
    assert_eq!(d.attempts, 2);
    assert!(d.outcome.report.all_attested());

    // The failed board took the health hit; the tenant record shows the
    // failed placement alongside the successful one.
    let snap = plane.snapshot();
    assert_eq!(snap.health[0].total_failures, 1);
    assert_eq!(snap.health[0].state, HealthState::Healthy);
    assert_eq!(snap.health[1].total_successes, 1);
    let rec = &snap.tenants[0];
    assert_eq!(rec.failed_deploys, 1);
    assert_eq!(rec.cold_deploys, 1);
    plane.clear_fault_plan();
}

#[test]
fn persistent_failures_quarantine_a_board_until_probation_readmits_it() {
    let plane = chaos_plane(2, 1);
    let alice = plane.register_tenant("alice");
    let bob = plane.register_tenant("bob");
    let carol = plane.register_tenant("carol");
    plane.install_fault_plan(&FaultPlan::new(
        3,
        FaultSpec::default().with_outage(
            "fleet.dev0.fpga",
            Duration::ZERO,
            Duration::from_secs(3_600),
        ),
    ));
    let policy = || DeployPolicy::resilient().with_plan(sweep_plan());

    // Alice fails on board 0 (first health strike) and fails over to
    // board 1, filling it.
    let a = plane
        .deploy(alice, loopback_accelerator(), policy())
        .expect("alice fails over");
    assert_eq!(a.slot.device, 1);

    // Bob only has board 0 left; with the fleet full elsewhere his
    // deploy fails — second strike, board 0 is quarantined.
    let failure = plane
        .deploy(bob, loopback_accelerator(), policy())
        .expect_err("bob cannot boot on the dark board");
    assert!(matches!(failure, DeployFailure::Failed { .. }));
    let snap = plane.snapshot();
    assert_eq!(snap.health[0].state, HealthState::Quarantined);
    assert_eq!(snap.health[0].quarantines, 1);
    let readmit = snap.health[0].readmit_at.expect("cool-down scheduled");

    // While quarantined the board is invisible to the scheduler: carol
    // is rejected outright, with no boot attempt charged anywhere.
    let failure = plane
        .deploy(carol, loopback_accelerator(), policy())
        .expect_err("no admissible board for carol");
    match failure {
        DeployFailure::Rejected(e) => {
            assert_eq!(e, SalusError::Place(PlaceError::NoAdmissibleBoard))
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(plane.snapshot().health[0].total_failures, 2);

    // Past the cool-down the board is on probation; with the outage
    // cleared one success restores it to full health.
    let now = plane.shared().clock.now();
    plane.shared().clock.advance(readmit.saturating_sub(now));
    assert_eq!(plane.snapshot().health[0].state, HealthState::Probation);
    plane.clear_fault_plan();
    let c = plane
        .deploy(carol, loopback_accelerator(), policy())
        .expect("probational board serves carol");
    assert_eq!(c.slot.device, 0);
    assert_eq!(plane.snapshot().health[0].state, HealthState::Healthy);
}

#[test]
fn manufacturer_outage_suspends_the_deploy_and_resume_keeps_the_slot() {
    let plane = chaos_plane(1, 1);
    let tenant = plane.register_tenant("alice");
    plane.install_fault_plan(&FaultPlan::new(
        7,
        FaultSpec::default().with_outage("manufacturer", Duration::ZERO, Duration::from_secs(600)),
    ));

    // Suspension enabled: the manufacturer-facing step parks instead of
    // failing over (there is nowhere else to go anyway).
    let policy = DeployPolicy::resilient()
        .with_plan(sweep_plan().with_suspend_on_outage(true))
        .with_placements(1);
    let failure = plane
        .deploy(tenant, loopback_accelerator(), policy)
        .expect_err("outage must suspend the deploy");
    let suspension = match failure {
        DeployFailure::Suspended(s) => *s,
        other => panic!("expected suspension, got {other:?}"),
    };

    // The slot stays leased to the suspended tenant — nobody can steal
    // the placement while the outage lasts.
    let snap = plane.snapshot();
    assert_eq!(snap.free_slots, 0);
    assert_eq!(snap.occupancy, vec![(suspension.slot(), tenant)]);
    assert_eq!(
        snap.health[0].total_failures, 0,
        "an outage is not the board's fault"
    );

    // Outage over: the resumed boot completes cold on the same slot,
    // with no failed-deploy charged to the tenant.
    plane.clear_fault_plan();
    let d = plane.resume_deploy(suspension).expect("resume completes");
    assert_eq!(d.path, DeployPath::Cold);
    assert!(d.outcome.report.all_attested());
    let rec = plane.tenant_record(tenant).unwrap();
    assert_eq!((rec.cold_deploys, rec.failed_deploys), (1, 0));
}

#[test]
fn abandoning_a_suspended_deploy_frees_the_slot() {
    let plane = chaos_plane(1, 1);
    let tenant = plane.register_tenant("alice");
    plane.install_fault_plan(&FaultPlan::new(
        7,
        FaultSpec::default().with_outage("manufacturer", Duration::ZERO, Duration::from_secs(600)),
    ));
    let policy = DeployPolicy::resilient().with_plan(sweep_plan().with_suspend_on_outage(true));
    let failure = plane
        .deploy(tenant, loopback_accelerator(), policy)
        .expect_err("outage must suspend");
    let DeployFailure::Suspended(suspension) = failure else {
        panic!("expected suspension");
    };
    assert_eq!(plane.free_slots(), 0);

    let err = plane.abandon_deploy(*suspension);
    assert!(err.is_transient(), "outage error classifies transient");
    assert_eq!(plane.free_slots(), 1, "abandon must release the lease");
    assert_eq!(plane.tenant_record(tenant).unwrap().failed_deploys, 1);

    // The slot is immediately reusable.
    plane.clear_fault_plan();
    let d = plane
        .deploy(tenant, loopback_accelerator(), DeployPolicy::single())
        .unwrap();
    assert!(d.outcome.report.all_attested());
}

#[test]
fn transient_warm_image_failure_reparks_the_ciphertext() {
    let plane = chaos_plane(1, 1);
    let tenant = plane.register_tenant("alice");
    let d = plane
        .deploy(tenant, loopback_accelerator(), DeployPolicy::single())
        .unwrap();
    let slot = d.slot;
    plane.evict(d).unwrap();
    assert!(plane.has_parked(tenant));

    // The board's PCIe path is dark: the warm-image reload fails in
    // transit, before the ciphertext ever reaches the shell.
    plane.install_fault_plan(&FaultPlan::new(
        11,
        FaultSpec::default().with_outage(
            "fleet.dev0.fpga",
            Duration::ZERO,
            Duration::from_secs(3_600),
        ),
    ));
    let err = plane.redeploy(tenant).expect_err("reload must fail");
    assert!(
        err.is_transient(),
        "outage loss classifies transient: {err:?}"
    );
    assert!(
        plane.has_parked(tenant),
        "transient reload failure must re-park the ciphertext"
    );
    assert_eq!(
        plane.free_slots(),
        1,
        "failed redeploy must release the lease"
    );
    assert_eq!(plane.tenant_record(tenant).unwrap().failed_deploys, 1);

    // Outage over: the retained ciphertext still serves the warm-image
    // fast path on its bound slot.
    plane.clear_fault_plan();
    let d = plane.redeploy(tenant).expect("re-parked redeploy succeeds");
    assert_eq!(d.path, DeployPath::WarmImage);
    assert_eq!(d.slot, slot);
    assert!(d.outcome.report.all_attested());
}

#[test]
fn quarantined_affinity_board_keeps_the_deployment_parked() {
    let plane = chaos_plane(2, 1);
    let alice = plane.register_tenant("alice");

    let a = plane
        .deploy(alice, loopback_accelerator(), DeployPolicy::single())
        .unwrap();
    let device = a.slot.device;
    plane.evict(a).unwrap();

    // Quarantine alice's bound board by failing two single-placement
    // deploys on it (the least-loaded tie-break picks it every time
    // while both boards are free).
    plane.install_fault_plan(&FaultPlan::new(
        5,
        FaultSpec::default().with_outage(
            format!("fleet.dev{device}.fpga"),
            Duration::ZERO,
            Duration::from_secs(3_600),
        ),
    ));
    let policy = || {
        DeployPolicy::resilient()
            .with_plan(sweep_plan())
            .with_placements(1)
    };
    for name in ["carol", "dave"] {
        let t = plane.register_tenant(name);
        let f = plane
            .deploy(t, loopback_accelerator(), policy())
            .expect_err("dark board fails the deploy");
        assert_eq!(f.classification(), "failed");
    }
    assert_eq!(
        plane.snapshot().health[device].state,
        HealthState::Quarantined
    );

    // Redeploy refuses to touch the quarantined board but keeps the
    // parked ciphertext for later.
    let err = plane.redeploy(alice).expect_err("quarantined affinity");
    assert_eq!(err, SalusError::Place(PlaceError::AffinityAvoided));
    assert!(plane.has_parked(alice), "deployment must stay parked");
    plane.clear_fault_plan();
}
