//! Records the fleet deploy-rate trajectory: cold vs warm tenant
//! deploys on one control plane.
//!
//! Uses the paper-calibrated virtual-time cost model, so the numbers
//! are model time (what Fig. 9 reports), not host wall time. Three
//! paths are measured on one board:
//!
//! * **cold** — first tenant on the board: full Fig. 3 boot including
//!   the manufacturer round trip.
//! * **warm-key** — later tenants on a keyed board: the cached
//!   `Key_device` skips the manufacturer and SM-quote phases.
//! * **warm-image** — an evicted tenant returning to its slot: reload
//!   the parked ciphertext + CL re-attestation only.
//!
//! A second section exercises a heterogeneous fleet (series7 +
//! UltraScale + Versal boards side by side): per-family occupancy
//! after a capability-aware placement run, and the host-side latency
//! of the placement decision itself over a half-loaded mixed fleet.
//!
//! Results go to stdout and `BENCH_fleet.json` so future PRs can
//! compare against this PR's numbers.

use std::time::Instant;

use salus_core::boot::BootOutcome;
use salus_core::dev::{loopback_accelerator, sm_enclave_image};
use salus_core::manufacturer::Manufacturer;
use salus_core::platform::{
    ControlPlane, DeployPath, DeployPolicy, DeviceFleet, PlacePolicy, PlaceRequest, PlatformConfig,
    Scheduler, SharedManufacturer, TenantId,
};
use salus_fpga::family::{DeviceFamily, FamilyId};
use salus_tee::quote::AttestationService;

fn model_seconds(outcome: &BootOutcome) -> f64 {
    outcome.breakdown.total().as_secs_f64()
}

fn main() {
    let plane = ControlPlane::provision(PlatformConfig::paper(1, 2)).expect("provision");
    let mut rows = Vec::new();
    println!("Fleet deploy paths (virtual time, paper-calibrated model)\n");

    // Cold: Alice takes the board's first boot, manufacturer included.
    let alice = plane.register_tenant("alice");
    let a = plane
        .deploy(alice, loopback_accelerator(), DeployPolicy::single())
        .expect("cold");
    assert_eq!(a.path, DeployPath::Cold);
    let cold_s = model_seconds(&a.outcome);

    // Warm-key: Bob reuses the fleet-cached device key.
    let bob = plane.register_tenant("bob");
    let b = plane
        .deploy(bob, loopback_accelerator(), DeployPolicy::single())
        .expect("warm");
    assert_eq!(b.path, DeployPath::WarmKey);
    let warm_key_s = model_seconds(&b.outcome);

    // Warm-image: Alice is evicted and comes back to her slot.
    plane.evict(a).expect("evict");
    let a2 = plane.redeploy(alice).expect("redeploy");
    assert_eq!(a2.path, DeployPath::WarmImage);
    let warm_image_s = model_seconds(&a2.outcome);

    for (path, secs) in [
        ("cold", cold_s),
        ("warm_key", warm_key_s),
        ("warm_image", warm_image_s),
    ] {
        let rate = 1.0 / secs;
        let speedup = cold_s / secs;
        println!("{path:<12} {secs:>8.3} s/deploy  {rate:>8.2} deploys/s  ({speedup:.2}x vs cold)");
        rows.push(serde_json::json!({
            "path": path.to_owned(),
            "model_seconds_per_deploy": secs,
            "deploys_per_second": rate,
            "speedup_vs_cold": speedup,
        }));
    }

    // The warm paths must actually be faster, or the cache is broken.
    assert!(warm_key_s < cold_s, "warm-key deploy not faster than cold");
    assert!(
        warm_image_s < warm_key_s,
        "warm-image deploy not faster than warm-key"
    );

    // ── Heterogeneous fleet: occupancy + placement latency ─────────────
    println!("\nMixed-family fleet (series7 + ultrascale + versal)\n");
    let (families, decisions) = hetero_section();
    let hetero = serde_json::json!({
        "families": families,
        "placement_decisions": decisions,
    });

    salus_bench::write_bench_json(
        "fleet",
        serde_json::json!({
            "experiment": "bench_fleet",
            "devices": 1_u64,
            "partitions": 2_u64,
            "data": rows,
            "hetero": hetero,
        }),
    );
}

/// Deploys a capability-aware mix of tenants onto a three-family
/// fleet and reports per-family occupancy, then times the bare
/// placement decision on a half-loaded standalone fleet.
fn hetero_section() -> (Vec<serde_json::Value>, Vec<serde_json::Value>) {
    let config = PlatformConfig::quick(1, 2)
        .with_geometry(DeviceFamily::series7().tiny_board(2))
        .with_extra_boards(DeviceFamily::ultrascale().tiny_board(3), 1)
        .with_extra_boards(DeviceFamily::versal().tiny_board(4), 1);
    let plane = ControlPlane::provision(config).expect("mixed provision");

    // Two tenants pinned per family, the rest free: every family ends
    // up carrying load, and the free tenants land least-loaded.
    let pins = [
        Some(FamilyId::Series7),
        Some(FamilyId::UltraScale),
        Some(FamilyId::UltraScale),
        Some(FamilyId::Versal),
        Some(FamilyId::Versal),
        None,
        None,
    ];
    for (i, pin) in pins.iter().enumerate() {
        let tenant = plane.register_tenant(&format!("hetero{i}"));
        let policy = match pin {
            Some(family) => DeployPolicy::single().with_request(PlaceRequest::for_family(*family)),
            None => DeployPolicy::single(),
        };
        plane
            .deploy(tenant, loopback_accelerator(), policy)
            .expect("mixed deploy");
    }

    let mut families = Vec::new();
    for family in FamilyId::ALL {
        let boards: Vec<usize> = (0..plane.device_count())
            .filter(|&d| plane.device_family(d) == Some(family))
            .collect();
        let slots: usize = boards.iter().map(|&d| plane.partitions_on(d)).sum();
        let held = plane
            .occupancy()
            .iter()
            .filter(|(slot, _)| boards.contains(&slot.device))
            .count();
        println!(
            "{:<12} {} board(s)  {held}/{slots} slots held",
            family.name(),
            boards.len()
        );
        families.push(serde_json::json!({
            "family": family.name(),
            "boards": boards.len(),
            "slots": slots,
            "held_slots": held,
        }));
    }

    // Placement-decision latency: a standalone half-loaded fleet, no
    // boots — just the scheduler walking the mixed device list.
    let service = AttestationService::new(b"bench-hetero");
    let manufacturer = SharedManufacturer::new(Manufacturer::new(
        b"bench-hetero",
        service,
        sm_enclave_image().measure(),
    ));
    let spec = [
        (DeviceFamily::series7().tiny_board(2), 1),
        (DeviceFamily::ultrascale().tiny_board(3), 1),
        (DeviceFamily::versal().tiny_board(4), 1),
    ];
    let mut fleet =
        DeviceFleet::provision_mixed(&manufacturer, &spec, 10_000).expect("bench fleet");
    // Load every even-numbered partition so the scheduler has to skip
    // held slots on every board.
    for device in 0..fleet.device_count() {
        for partition in (0..fleet.partitions_on(device)).step_by(2) {
            use salus_core::platform::SlotId;
            fleet
                .lease_at(SlotId { device, partition }, TenantId(1))
                .expect("bench lease");
        }
    }

    let scheduler = Scheduler::new(PlacePolicy::LeastLoaded);
    let mut decisions = Vec::new();
    let requests = [
        ("any", PlaceRequest::any()),
        ("series7", PlaceRequest::for_family(FamilyId::Series7)),
        ("ultrascale", PlaceRequest::for_family(FamilyId::UltraScale)),
        ("versal", PlaceRequest::for_family(FamilyId::Versal)),
    ];
    const ITERS: u32 = 10_000;
    for (label, request) in &requests {
        let start = Instant::now();
        for _ in 0..ITERS {
            let slot = scheduler
                .place_constrained(&fleet, request, None, &[])
                .expect("bench placement");
            std::hint::black_box(slot);
        }
        let nanos = start.elapsed().as_nanos() as f64 / f64::from(ITERS);
        println!("place({label:<10}) {nanos:>8.0} ns/decision");
        decisions.push(serde_json::json!({
            "request": label.to_owned(),
            "nanos_per_decision": nanos,
        }));
    }
    (families, decisions)
}
