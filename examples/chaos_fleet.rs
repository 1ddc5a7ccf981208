//! A fleet riding out chaos: four tenants, two boards, a lossy fabric.
//!
//! Installs a seeded fault plan over the whole control plane and
//! deploys four tenants under the fault-tolerant policy: per-step
//! retries with backoff inside each boot, cross-board failover when a
//! board's path stays dark, device-health quarantine for repeat
//! offenders, and a fleet snapshot showing where everyone landed.
//! Everything runs in deterministic virtual time — re-running prints
//! the exact same trace.
//!
//! ```sh
//! cargo run --example chaos_fleet
//! ```

use std::time::Duration;

use salus::core::boot::{BootPlan, RetryPolicy};
use salus::core::dev::loopback_accelerator;
use salus::core::platform::{
    ControlPlane, DeployFailure, DeployPolicy, HealthPolicy, PlatformConfig,
};
use salus::net::fault::{FaultPlan, FaultSpec};

fn main() {
    println!("=== Fleet chaos: 4 tenants, 2 boards, lossy fabric ===\n");

    let plane = ControlPlane::provision(
        PlatformConfig::quick(2, 2).with_health(
            HealthPolicy::default()
                .with_quarantine_after(2)
                .with_readmit_window(Duration::from_secs(60), Duration::from_secs(120)),
        ),
    )
    .expect("plane provisions");

    // 18% packet loss everywhere, plus board 0's PCIe endpoint dark for
    // the first eight (virtual) seconds — enough to force real failovers.
    let plan = FaultPlan::new(
        42,
        FaultSpec::default().with_drop_per_mille(180).with_outage(
            "fleet.dev0.fpga",
            Duration::ZERO,
            Duration::from_secs(8),
        ),
    );
    plane.install_fault_plan(&plan);
    println!(
        "fault plan: seed={} drop={}‰ outage=fleet.dev0.fpga for 8s\n",
        plan.seed, plan.spec.drop_per_mille
    );

    let policy = DeployPolicy::resilient()
        .with_plan(
            BootPlan::resilient()
                .with_retry(RetryPolicy {
                    max_attempts: 4,
                    base_backoff: Duration::from_millis(20),
                    backoff_factor: 2,
                    max_backoff: Duration::from_millis(200),
                    jitter_per_mille: 250,
                    deadline: Some(Duration::from_millis(500)),
                })
                .with_reuse_cached_device_key(true)
                .with_suspend_on_outage(false),
        )
        .with_placements(2);

    let mut live = Vec::new();
    for name in ["alice", "bob", "carol", "dave"] {
        let tenant = plane.register_tenant(name);
        match plane.deploy(tenant, loopback_accelerator(), policy.clone()) {
            Ok(d) => {
                println!(
                    "{name:<6} -> dev{}.rp{} ({:?}, {} placement{}, {} step retries, attested: {})",
                    d.slot.device,
                    d.slot.partition,
                    d.path,
                    d.attempts,
                    if d.attempts == 1 { "" } else { "s" },
                    d.outcome.trace.total_transient_failures(),
                    d.outcome.report.all_attested(),
                );
                live.push(d);
            }
            Err(DeployFailure::Suspended(s)) => {
                println!("{name:<6} -> suspended at {:?} (slot held)", s.step());
                let _ = plane.abandon_deploy(*s);
            }
            Err(f) => {
                println!(
                    "{name:<6} -> {} after {} placement(s)",
                    f.classification(),
                    f.attempts().len(),
                );
            }
        }
    }

    // The fleet's own view of the aftermath.
    let snap = plane.snapshot();
    println!(
        "\nfleet @ {:?}: {}/{} slots free",
        snap.now, snap.free_slots, snap.total_slots
    );
    for h in &snap.health {
        println!(
            "  dev{}: {} ({} ok / {} failed boots, {} quarantine{})",
            h.device,
            h.state,
            h.total_successes,
            h.total_failures,
            h.quarantines,
            if h.quarantines == 1 { "" } else { "s" },
        );
    }
    for t in &snap.tenants {
        println!(
            "  {:<6} deploys={} failed={} model-time={:?}",
            t.name,
            t.total_deploys(),
            t.failed_deploys,
            t.total_deploy_time(),
        );
    }

    // Recovery: virtual time is free, so wait out the quarantine
    // cool-down, lift the faults, and retry the tenants that were
    // turned away — the probational board serves them.
    if let Some(readmit) = snap.health.iter().find_map(|h| h.readmit_at) {
        let now = plane.shared().clock.now();
        plane.shared().clock.advance(readmit.saturating_sub(now));
    }
    plane.clear_fault_plan();
    println!("\nfaults cleared, cool-down elapsed — retrying the rejected tenants:");
    for t in snap.tenants.iter().filter(|t| t.total_deploys() == 0) {
        let d = plane
            .deploy(t.id, loopback_accelerator(), policy.clone())
            .expect("recovered fleet deploys");
        println!(
            "{:<6} -> dev{}.rp{} ({:?}, attested: {})",
            t.name,
            d.slot.device,
            d.slot.partition,
            d.path,
            d.outcome.report.all_attested(),
        );
        live.push(d);
    }
    for h in plane.snapshot().health {
        println!("  dev{}: {}", h.device, h.state);
    }

    for d in live {
        plane.evict(d).expect("evict");
    }
    assert_eq!(plane.free_slots(), 4, "drained fleet must be fully free");
    println!("\nDrained cleanly: no leaked leases, parked ciphertexts ready for warm redeploys.");
}
