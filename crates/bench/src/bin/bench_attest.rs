//! Measures runtime re-attestation detection latency on a
//! paper-calibrated fleet.
//!
//! A seeded tamper schedule replaces one live lane's CL per epoch with
//! a stale (pre-key-rotation) bitstream, then lets the epoch sweep
//! find it. Detection latency is virtual time from the tamper to the
//! sweep's verdict; the policy bounds it by `cadence +
//! challenge_deadline`, and this bench asserts the bound on every
//! sample before reporting the p50/p99. The fenced tenant is
//! redeployed (warm-key) and re-armed, so the fleet stays full for the
//! next epoch.
//!
//! Everything runs on the virtual clock with seeded randomness, so
//! `BENCH_attest.json` is byte-stable across runs — CI diffs two
//! back-to-back executions to pin that.

use std::time::Duration;

use salus::accel::apps::affine::Affine;
use salus::accel::apps::conv::Conv;
use salus::accel::workload::Workload;
use salus::attest::ReattestMonitor;
use salus::node::{node_geometry, SalusNode};
use salus::serving::{LaneId, ServingConfig, ServingPlane};
use salus_core::platform::{HealthPolicy, PlatformConfig, TenantId};
use salus_core::runtime_attest::{AttestPolicy, ChallengeVerdict};
use salus_core::SalusError;
use salus_fpga::shell::Shell;
use salus_net::fault::SplitMix64;

const SEED: u64 = 0xA77E57;
const EPOCHS: u64 = 16;

/// One live lane plus its armed runtime-replacement tamper.
struct ArmedLane {
    lane: LaneId,
    tenant: TenantId,
    workload: Box<dyn Workload>,
    shell: Shell,
    stale: std::sync::Arc<Vec<u8>>,
}

/// Deploys `tenant`, captures a stale encrypted stream, rotates the
/// session keys so the capture really is stale, and attaches the lane.
fn arm(
    node: &SalusNode,
    plane: &mut ServingPlane,
    tenant: TenantId,
    workload: Box<dyn Workload>,
) -> Result<ArmedLane, SalusError> {
    let mut session = node.deploy(tenant, workload.as_ref())?;
    let stale = session
        .bed_mut()
        .sm_app
        .prepared_bitstream()
        .expect("boot prepared a stream")
        .clone();
    let shell = session.bed_mut().shell.clone();
    session.redeploy(workload.as_ref())?;
    let lane = plane.attach(session, workload.as_ref());
    Ok(ArmedLane {
        lane,
        tenant,
        workload,
        shell,
        stale,
    })
}

fn percentile(sorted: &[Duration], p: usize) -> Duration {
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    run().expect("bench scenario");
}

fn run() -> Result<(), SalusError> {
    // Quarantine effectively off: the bench recycles the same boards
    // every epoch, and detection latency is what's under measurement.
    let config = PlatformConfig::paper(2, 2)
        .with_geometry(node_geometry(2))
        .with_seed(SEED)
        .with_health(HealthPolicy::default().with_quarantine_after(u32::MAX));
    let node = SalusNode::provision(config)?;
    let mut plane = ServingPlane::new(ServingConfig::pipelined(3));
    plane.audit_to(&node);
    let clock = node.plane().shared().clock.clone();

    let mut lanes = Vec::new();
    for slot in 0..4usize {
        let workload: Box<dyn Workload> = if slot.is_multiple_of(2) {
            Box::new(Conv::paper_scale())
        } else {
            Box::new(Affine::paper_scale())
        };
        let tenant = node.register_tenant(&format!("tenant{slot}"));
        lanes.push(arm(&node, &mut plane, tenant, workload)?);
    }

    let policy = AttestPolicy::default();
    let bound = policy.detection_bound();
    let mut monitor = ReattestMonitor::new(node.clone(), policy);
    let mut rng = SplitMix64::new(SEED);

    println!("Runtime re-attestation sweep (virtual time, paper-calibrated model)");
    println!(
        "policy: cadence {:?}, challenge deadline {:?} -> detection bound {bound:?}\n",
        policy.cadence, policy.challenge_deadline
    );

    let mut latencies = Vec::new();
    let mut rows = Vec::new();
    let mut alive_elapsed = Duration::ZERO;
    let mut alive_challenges = 0u64;
    for epoch in 1..=EPOCHS {
        // Tamper one seeded victim, then let the sweep find it.
        let victim = rng.below(lanes.len() as u64) as usize;
        {
            let armed = &lanes[victim];
            armed
                .shell
                .deploy_bitstream(&armed.stale)
                .expect("replay loads");
        }
        let tampered_at = clock.now();
        let report = monitor.sweep(&mut plane)?;
        assert_eq!(report.epoch, epoch);

        for outcome in &report.outcomes {
            if outcome.lane == lanes[victim].lane {
                assert_eq!(outcome.verdict, ChallengeVerdict::Compromised);
                assert!(outcome.fenced);
                let latency = outcome.detected_at - tampered_at;
                assert!(
                    latency <= bound,
                    "epoch {epoch}: detection took {latency:?}, bound is {bound:?}"
                );
                println!(
                    "epoch {epoch:>2}  victim lane {victim}  detected in {}",
                    salus_bench::fmt_ms(latency)
                );
                rows.push(serde_json::json!({
                    "epoch": epoch,
                    "victim_lane": victim as u64,
                    "detection_latency_ms": ms(latency),
                }));
                latencies.push(latency);
            } else {
                assert_eq!(outcome.verdict, ChallengeVerdict::Alive);
                alive_elapsed += outcome.elapsed;
                alive_challenges += 1;
            }
        }
        assert_eq!(report.fenced(), 1);

        // Refill the fenced slot for the next epoch.
        let tenant = lanes[victim].tenant;
        let workload =
            std::mem::replace(&mut lanes[victim].workload, Box::new(Conv::paper_scale()));
        lanes[victim] = arm(&node, &mut plane, tenant, workload)?;
    }

    let log = node.plane().audit_log();
    log.verify().map_err(SalusError::from)?;

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 50);
    let p99 = percentile(&latencies, 99);
    let max = *latencies.last().expect("one sample per epoch");
    let alive_mean = alive_elapsed / alive_challenges.max(1) as u32;
    println!(
        "\ndetection latency over {EPOCHS} epochs: p50 {}  p99 {}  max {}  (bound {})",
        salus_bench::fmt_ms(p50),
        salus_bench::fmt_ms(p99),
        salus_bench::fmt_ms(max),
        salus_bench::fmt_ms(bound)
    );
    println!(
        "healthy challenges: {alive_challenges}, mean cost {}",
        salus_bench::fmt_ms(alive_mean)
    );
    println!("audit chain: {} records, verified", log.len());

    let policy_json = serde_json::json!({
        "cadence_ms": ms(policy.cadence),
        "challenge_deadline_ms": ms(policy.challenge_deadline),
        "max_transient_retries": policy.max_transient_retries as u64,
    });
    salus_bench::write_bench_json(
        "attest",
        serde_json::json!({
            "experiment": "bench_attest",
            "devices": 2_u64,
            "partitions": 2_u64,
            "epochs": EPOCHS,
            "policy": policy_json,
            "detection_bound_ms": ms(bound),
            "detection_latency_p50_ms": ms(p50),
            "detection_latency_p99_ms": ms(p99),
            "detection_latency_max_ms": ms(max),
            "alive_challenges": alive_challenges,
            "alive_challenge_mean_ms": ms(alive_mean),
            "audit_records": log.len() as u64,
            "data": rows,
        }),
    );
    Ok(())
}
