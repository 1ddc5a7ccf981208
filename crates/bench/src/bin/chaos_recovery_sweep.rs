//! Crash-recovery sweep: recovery latency and replay counts at every
//! crash point of a fixed control-plane schedule.
//!
//! Drives the same multi-tenant schedule as `tests/chaos_recovery.rs`
//! (2 boards × 2 partitions; three tenants through deploy, evict,
//! warm-image redeploy, fence, and re-deploy), arming a seeded
//! [`CrashPlane`] at each successive journal step. At every crash
//! point the plane is killed mid-mutation, recovered via
//! [`ControlPlane::recover`], and the interrupted step re-driven; the
//! sweep records what recovery replayed, rolled back, rolled forward,
//! and fenced, plus the host-time cost of the recovery itself.
//!
//! Everything except `recovery_ns` is virtual-time deterministic:
//! re-running this binary reproduces `BENCH_recovery.json` exactly
//! modulo that one wall-clock field (CI strips it before diffing).

use std::time::Instant;

use salus_core::dev::loopback_accelerator;
use salus_core::platform::{
    ControlPlane, DeployPolicy, PlatformConfig, RecoveryReport, TenantDeployment, TenantId,
};
use salus_core::SalusError;
use salus_net::fault::CrashPlane;

const SEEDS: [u64; 3] = [1, 7, 42];
const DEVICES: usize = 2;
const PARTITIONS: usize = 2;

struct Driver {
    plane: Option<ControlPlane>,
    crash: Option<CrashOutcome>,
}

struct CrashOutcome {
    point: u64,
    label: String,
    report: RecoveryReport,
    recovery_ns: u128,
    journal_records: usize,
}

impl Driver {
    fn new(seed: u64, crash_point: u64) -> Driver {
        let plane =
            ControlPlane::provision(PlatformConfig::quick(DEVICES, PARTITIONS).with_seed(seed))
                .expect("plane provisions");
        plane.install_crash_plane(CrashPlane::at_point(crash_point));
        Driver {
            plane: Some(plane),
            crash: None,
        }
    }

    fn plane(&self) -> &ControlPlane {
        self.plane.as_ref().unwrap()
    }

    fn recover(&mut self) -> &RecoveryReport {
        let plane = self.plane.take().unwrap();
        let (point, label) = plane.crash_plane().fired().expect("crash fired");
        let remains = plane.crash();
        let journal_records = remains.journal().len();
        let start = Instant::now();
        let (recovered, report) = ControlPlane::recover(remains).expect("recovery succeeds");
        let recovery_ns = start.elapsed().as_nanos();
        self.plane = Some(recovered);
        self.crash = Some(CrashOutcome {
            point,
            label,
            report,
            recovery_ns,
            journal_records,
        });
        &self.crash.as_ref().unwrap().report
    }

    fn deploy(&mut self, tenant: TenantId) -> TenantDeployment {
        let deployed = self
            .plane()
            .deploy(tenant, loopback_accelerator(), DeployPolicy::single())
            .map_err(SalusError::from);
        match deployed {
            Ok(d) => d,
            Err(SalusError::CrashInjected(_)) => {
                self.recover();
                self.plane()
                    .deploy(tenant, loopback_accelerator(), DeployPolicy::single())
                    .expect("re-driven deploy")
            }
            Err(e) => panic!("unexpected deploy failure: {e:?}"),
        }
    }

    fn evict(&mut self, deployment: TenantDeployment) {
        let tenant = deployment.tenant;
        match self.plane().evict(deployment) {
            Ok(_) => {}
            Err(SalusError::CrashInjected(_)) => {
                self.recover();
                let survivor = self.crash.as_mut().unwrap().report.survivors.pop();
                match survivor {
                    Some(d) => {
                        self.plane().evict(d).expect("re-driven evict");
                    }
                    None => assert!(self.plane().has_parked(tenant), "evict rolled forward"),
                }
            }
            Err(e) => panic!("unexpected evict failure: {e:?}"),
        }
    }

    fn redeploy(&mut self, tenant: TenantId) -> TenantDeployment {
        match self.plane().redeploy(tenant) {
            Ok(d) => d,
            Err(SalusError::CrashInjected(_)) => {
                self.recover();
                self.plane().redeploy(tenant).expect("re-driven redeploy")
            }
            Err(e) => panic!("unexpected redeploy failure: {e:?}"),
        }
    }

    fn fence(&mut self, tenant: TenantId, slot: salus_core::platform::SlotId) {
        match self.plane().fence_deployment(tenant, slot) {
            Ok(_) => {}
            Err(SalusError::CrashInjected(_)) => {
                self.recover();
                self.plane()
                    .fence_deployment(tenant, slot)
                    .expect("re-driven fence");
            }
            Err(e) => panic!("unexpected fence failure: {e:?}"),
        }
    }
}

fn run_schedule(seed: u64, crash_point: u64) -> Driver {
    let mut driver = Driver::new(seed, crash_point);
    let alice = driver.plane().register_tenant("alice");
    let bob = driver.plane().register_tenant("bob");
    let carol = driver.plane().register_tenant("carol");

    let da = driver.deploy(alice);
    let db = driver.deploy(bob);
    let _dc = driver.deploy(carol);

    driver.evict(da);
    let _da2 = driver.redeploy(alice);

    let (bob_tenant, bob_slot) = (db.tenant, db.slot);
    drop(db);
    driver.fence(bob_tenant, bob_slot);
    let _db2 = driver.deploy(bob);

    driver
}

fn main() {
    println!("Crash-recovery sweep: recovery cost at every journal crash point\n");

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for seed in SEEDS {
        let baseline = run_schedule(seed, 0);
        let points = baseline.plane().crash_plane().ticks();
        let baseline_journal = baseline.plane().journal_log().len();

        let mut recovery_ns_total: u128 = 0;
        let mut replayed_total = 0u64;
        let mut rolled_back_total = 0u64;
        let mut rolled_forward_total = 0u64;
        let mut fenced_total = 0usize;
        for point in 1..=points {
            let driver = run_schedule(seed, point);
            let crash = driver.crash.as_ref().expect("armed crash fired");
            assert_eq!(crash.point, point);
            recovery_ns_total += crash.recovery_ns;
            replayed_total += crash.report.replayed_commits;
            rolled_back_total += crash.report.rolled_back;
            rolled_forward_total += crash.report.rolled_forward;
            fenced_total += crash.report.fenced_orphans.len();
            json_rows.push(serde_json::json!({
                "seed": seed,
                "crash_point": point,
                "label": crash.label.clone(),
                "journal_records_at_crash": crash.journal_records as u64,
                "replayed_commits": crash.report.replayed_commits,
                "rolled_back": crash.report.rolled_back,
                "rolled_forward": crash.report.rolled_forward,
                "fenced_orphans": crash.report.fenced_orphans.len() as u64,
                "contradictions": crash.report.contradictions.len() as u64,
                "free_slots_after": driver.plane().free_slots() as u64,
                "recovery_ns": crash.recovery_ns as u64,
            }));
        }
        #[allow(clippy::cast_precision_loss)]
        let mean_us = recovery_ns_total as f64 / f64::from(u32::try_from(points).unwrap()) / 1e3;
        rows.push(vec![
            format!("{seed}"),
            format!("{points}"),
            format!("{baseline_journal}"),
            format!("{replayed_total}"),
            format!("{rolled_back_total}"),
            format!("{rolled_forward_total}"),
            format!("{fenced_total}"),
            format!("{mean_us:.1}"),
        ]);
    }

    salus_bench::print_table(
        &[
            "Seed",
            "Crash points",
            "Journal records",
            "Replayed",
            "Rolled back",
            "Rolled fwd",
            "Orphans fenced",
            "Mean recovery (us)",
        ],
        &rows,
    );

    println!(
        "\nEvery crash point is killed, recovered, and re-driven; the recovered \
         fleet is asserted equivalent to the never-crashed baseline by \
         tests/chaos_recovery.rs."
    );

    salus_bench::write_bench_json(
        "recovery",
        serde_json::json!({
            "experiment": "chaos_recovery_sweep",
            "devices": DEVICES as u64,
            "partitions": PARTITIONS as u64,
            "seeds": SEEDS.len() as u64,
            "data": json_rows,
        }),
    );
}
