//! Fleet chaos sweep: deploy success rate and placement attempts vs
//! fault intensity.
//!
//! Drives the multi-tenant control plane (2 boards × 2 partitions,
//! 4 tenants) through a grid of packet-loss rates, three fixed fault
//! seeds each, under the fault-tolerant [`DeployPolicy`]: resilient
//! per-step retries plus cross-board failover. Reports, per drop rate,
//! the deploy success rate, the mean number of board placements a
//! successful deploy consumed, the retry pressure, and the fleet's
//! quarantine count. Everything runs in virtual time and is
//! deterministic: re-running this binary reproduces the table and
//! `BENCH_chaos_fleet.json` exactly.

use std::time::Duration;

use salus_core::boot::{BootPlan, RetryPolicy};
use salus_core::dev::loopback_accelerator;
use salus_core::platform::{
    ControlPlane, DeployFailure, DeployPolicy, HealthPolicy, HealthState, PlatformConfig,
};
use salus_net::fault::{FaultPlan, FaultSpec};

const SEEDS: [u64; 3] = [5, 17, 71];
const DROP_RATES_PER_MILLE: [u32; 6] = [0, 25, 60, 120, 250, 500];
const DEVICES: usize = 2;
const PARTITIONS: usize = 2;
const TENANTS: usize = 4;

fn sweep_policy() -> DeployPolicy {
    let retry = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(20),
        backoff_factor: 2,
        max_backoff: Duration::from_millis(200),
        jitter_per_mille: 250,
        deadline: Some(Duration::from_millis(500)),
    };
    DeployPolicy::resilient()
        .with_plan(
            BootPlan::resilient()
                .with_retry(retry)
                .with_reuse_cached_device_key(true)
                .with_suspend_on_outage(false),
        )
        .with_placements(DEVICES as u32)
}

fn main() {
    println!("Fleet chaos sweep: multi-tenant deploys under increasing packet loss\n");

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for rate in DROP_RATES_PER_MILLE {
        let mut deploys = 0u32;
        let mut successes = 0u32;
        let mut failed = 0u32;
        let mut placements = 0u32;
        let mut transient_retries = 0u64;
        let mut quarantines = 0u64;
        for seed in SEEDS {
            let plane = ControlPlane::provision(
                PlatformConfig::quick(DEVICES, PARTITIONS).with_health(
                    HealthPolicy::default()
                        .with_quarantine_after(2)
                        .with_readmit_window(Duration::from_secs(60), Duration::from_secs(120)),
                ),
            )
            .expect("plane provisions");
            let policy = sweep_policy().with_fault_plan(FaultPlan::new(
                seed,
                FaultSpec::default()
                    .with_drop_per_mille(rate)
                    .with_duplicate_per_mille(30),
            ));
            for i in 0..TENANTS {
                let tenant = plane.register_tenant(&format!("t{i}"));
                deploys += 1;
                match plane.deploy(tenant, loopback_accelerator(), policy.clone()) {
                    Ok(d) => {
                        assert!(d.outcome.report.all_attested());
                        successes += 1;
                        placements += d.attempts;
                        transient_retries += u64::from(d.outcome.trace.total_transient_failures());
                    }
                    Err(DeployFailure::Suspended(s)) => {
                        failed += 1;
                        let _ = plane.abandon_deploy(*s);
                    }
                    Err(_) => failed += 1,
                }
            }
            quarantines += plane
                .snapshot()
                .health
                .iter()
                .filter(|h| h.state == HealthState::Quarantined)
                .count() as u64;
        }
        let success_rate = f64::from(successes) / f64::from(deploys);
        let mean_attempts = if successes > 0 {
            f64::from(placements) / f64::from(successes)
        } else {
            0.0
        };
        rows.push(vec![
            format!("{:.1}%", f64::from(rate) / 10.0),
            format!("{successes}/{deploys}"),
            format!("{:.2}", mean_attempts),
            format!("{transient_retries}"),
            format!("{quarantines}"),
        ]);
        json_rows.push(serde_json::json!({
            "drop_per_mille": u64::from(rate),
            "deploys": u64::from(deploys),
            "successes": u64::from(successes),
            "failures": u64::from(failed),
            "success_rate": success_rate,
            "mean_placements_per_success": mean_attempts,
            "transient_retries": transient_retries,
            "quarantined_boards": quarantines,
        }));
    }

    salus_bench::print_table(
        &[
            "Drop rate",
            "Deployed",
            "Mean placements",
            "Step retries",
            "Quarantined",
        ],
        &rows,
    );

    println!(
        "\nTransient boot failures fail over to another board (placements > 1); \
         boards that keep failing are quarantined and skipped."
    );

    salus_bench::write_bench_json(
        "chaos_fleet",
        serde_json::json!({
            "experiment": "chaos_fleet_sweep",
            "devices": DEVICES as u64,
            "partitions": PARTITIONS as u64,
            "tenants": TENANTS as u64,
            "seeds": SEEDS.len() as u64,
            "data": json_rows,
        }),
    );
}
