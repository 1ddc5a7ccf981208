//! Crash-recovery chaos suite: kill the control plane at *every*
//! journal step of a fixed multi-tenant schedule and prove the
//! recovered fleet is equivalent to one that never crashed.
//!
//! The schedule exercises every journaled mutation — registration,
//! cold/warm deploys, eviction, warm-image redeploy, fencing — and the
//! sweep arms a [`CrashPlane`] at each successive crash point, drives
//! until the injected death, recovers via [`ControlPlane::recover`],
//! re-drives the interrupted step per its fired label, and finishes
//! the schedule. Invariants, per crash point × seed:
//!
//! 1. The final fleet fingerprint (occupancy, free slots, key cache,
//!    parked set, health records, tenant records) is byte-identical to
//!    the never-crashed baseline.
//! 2. No lease leaks: free + occupied always equals total, and the
//!    DRAM windows of co-resident tenants never overlap.
//! 3. The audit chain stays continuous through the crash: the
//!    pre-crash head is an interior digest of the recovered chain.
//! 4. Recovery is deterministic: the same seed and crash point yields
//!    a byte-identical journal and audit log on a second run.

use std::time::Duration;

use salus::core::boot::{BootPlan, RetryPolicy};
use salus::core::dev::loopback_accelerator;
use salus::core::platform::{
    AuditEvent, ControlPlane, DeployFailure, DeployPolicy, IntentOp, Journal, PlatformConfig,
    RecoveryReport, SlotId, TenantDeployment,
};
use salus::core::SalusError;
use salus::net::fault::{CrashPlane, FaultPlan, FaultSpec};

const SEEDS: [u64; 3] = [1, 7, 42];

/// Everything the equivalence check compares, rendered from a
/// snapshot. Virtual time and the chain heads are deliberately
/// excluded: a crashed-and-recovered run legitimately has extra audit
/// and journal records.
fn fingerprint(plane: &ControlPlane) -> String {
    let snap = plane.snapshot();
    format!(
        "free={} total={} occ={:?} keyed={:?} parked={:?} health={:?} tenants={:?}",
        snap.free_slots,
        snap.total_slots,
        snap.occupancy,
        snap.keyed_devices,
        snap.parked,
        snap.health,
        snap.tenants
    )
}

/// Asserts the no-leak invariants on a live plane: conserved slots and
/// pairwise-disjoint DRAM windows.
fn assert_no_leaks(plane: &ControlPlane) {
    let snap = plane.snapshot();
    assert_eq!(
        snap.free_slots + snap.occupancy.len(),
        snap.total_slots,
        "a lease leaked"
    );
    let windows: Vec<_> = snap
        .occupancy
        .iter()
        .map(|(slot, _)| (*slot, plane.dram_window(*slot).expect("window exists")))
        .collect();
    for (i, (sa, wa)) in windows.iter().enumerate() {
        for (sb, wb) in windows.iter().skip(i + 1) {
            if sa.device == sb.device {
                let disjoint = wa.base + wa.len <= wb.base || wb.base + wb.len <= wa.base;
                assert!(disjoint, "windows of {sa} and {sb} overlap");
            }
        }
    }
}

/// Crashes `plane`, recovers, and asserts the audit chain stayed
/// continuous through the handover. Returns the recovered plane and
/// the recovery report.
fn crash_and_recover(plane: ControlPlane) -> (ControlPlane, RecoveryReport) {
    let remains = plane.crash();
    let pre_head = remains.audit().head();
    let pre_len = remains.audit().len();
    let (recovered, report) = ControlPlane::recover(remains).expect("recovery succeeds");
    let audit = recovered.audit_log();
    audit.verify().expect("recovered audit chain verifies");
    if pre_len > 0 {
        assert_eq!(
            audit.records()[pre_len - 1].digest,
            pre_head,
            "pre-crash audit head must be an interior digest of the recovered chain"
        );
    }
    recovered.journal_log().verify().expect("journal verifies");
    (recovered, report)
}

/// The crash-sweep driver state: the plane (replaced wholesale on
/// recovery) plus whether a crash has fired yet.
struct Driver {
    plane: Option<ControlPlane>,
    crashed: bool,
    reports: Vec<RecoveryReport>,
}

impl Driver {
    fn new(seed: u64, crash_point: u64) -> Driver {
        let plane = ControlPlane::provision(PlatformConfig::quick(2, 2).with_seed(seed)).unwrap();
        plane.install_crash_plane(CrashPlane::at_point(crash_point));
        Driver {
            plane: Some(plane),
            crashed: false,
            reports: Vec::new(),
        }
    }

    fn plane(&self) -> &ControlPlane {
        self.plane.as_ref().unwrap()
    }

    fn recover(&mut self) {
        assert!(
            !self.crashed,
            "the inert recovered plane cannot crash again"
        );
        self.crashed = true;
        let (plane, report) = crash_and_recover(self.plane.take().unwrap());
        self.plane = Some(plane);
        self.reports.push(report);
    }

    /// Deploys `tenant`; on an injected crash, recovers and re-drives
    /// the deploy (both intent and pre-commit deaths roll back).
    fn deploy(&mut self, tenant: salus::core::platform::TenantId) -> TenantDeployment {
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
                    .expect("re-driven deploy succeeds")
            }
            Err(e) => panic!("unexpected deploy failure: {e:?}"),
        }
    }

    /// Evicts `deployment`; an intent-point death hands the deployment
    /// back through the recovery report for a second try, a pre-commit
    /// death already rolled the eviction forward.
    fn evict(&mut self, deployment: TenantDeployment) {
        let tenant = deployment.tenant;
        match self.plane().evict(deployment) {
            Ok(_) => {}
            Err(SalusError::CrashInjected(_)) => {
                self.recover();
                let survivor = self.reports.last_mut().unwrap().survivors.pop();
                match survivor {
                    Some(d) => {
                        // Died at evict.intent: nothing happened, re-evict.
                        assert_eq!(d.tenant, tenant);
                        self.plane().evict(d).expect("re-driven evict");
                    }
                    None => {
                        // Died at evict.pre-commit: rolled forward.
                        assert!(
                            self.plane().has_parked(tenant),
                            "rolled-forward evict must leave the ciphertext parked"
                        );
                    }
                }
            }
            Err(e) => panic!("unexpected evict failure: {e:?}"),
        }
    }

    /// Redeploys `tenant`; any injected death rolls back and leaves the
    /// ciphertext parked, so the re-drive is a plain redeploy.
    fn redeploy(&mut self, tenant: salus::core::platform::TenantId) -> TenantDeployment {
        match self.plane().redeploy(tenant) {
            Ok(d) => d,
            Err(SalusError::CrashInjected(_)) => {
                self.recover();
                assert!(
                    self.plane().has_parked(tenant),
                    "rolled-back redeploy must keep the ciphertext parked"
                );
                self.plane().redeploy(tenant).expect("re-driven redeploy")
            }
            Err(e) => panic!("unexpected redeploy failure: {e:?}"),
        }
    }

    /// Fences `(tenant, slot)`; both injected deaths roll back (the
    /// slot stays journal-held), so the re-drive is a plain fence.
    fn fence(&mut self, tenant: salus::core::platform::TenantId, slot: SlotId) {
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

/// Runs the fixed schedule under one seed with a crash armed at
/// `crash_point` (0 = never). Returns the driver for inspection.
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

#[test]
fn recovery_is_equivalent_to_never_crashing_at_every_crash_point() {
    for seed in SEEDS {
        let baseline = run_schedule(seed, 0);
        assert!(!baseline.crashed);
        let points = baseline.plane().crash_plane().ticks();
        assert!(
            points >= 14,
            "the schedule must expose the full crash-point catalog, got {points}"
        );
        let want = fingerprint(baseline.plane());
        assert_no_leaks(baseline.plane());

        for point in 1..=points {
            let driver = run_schedule(seed, point);
            assert!(
                driver.crashed,
                "seed {seed} point {point}: the armed crash never fired"
            );
            let got = fingerprint(driver.plane());
            assert_eq!(
                got, want,
                "seed {seed} point {point}: recovered fleet diverged from baseline"
            );
            assert_no_leaks(driver.plane());
        }
    }
}

/// Ordered crash-point labels the never-crashed schedule ticks, the same
/// for every seed. Moving, adding or dropping a journal step of any
/// mutation changes this list (and the sweep domain with it).
const SCHEDULE_CRASH_TRACE: [&str; 14] = [
    "deploy.intent",
    "deploy.pre-commit",
    "deploy.intent",
    "deploy.pre-commit",
    "deploy.intent",
    "deploy.pre-commit",
    "evict.intent",
    "evict.pre-commit",
    "redeploy.intent",
    "redeploy.pre-commit",
    "fence.intent",
    "fence.pre-commit",
    "deploy.intent",
    "deploy.pre-commit",
];

#[test]
fn never_crashed_schedule_ticks_the_pinned_crash_points() {
    for seed in SEEDS {
        let baseline = run_schedule(seed, 0);
        assert_eq!(
            baseline.plane().crash_plane().trace(),
            SCHEDULE_CRASH_TRACE,
            "seed {seed}: crash-point trace moved"
        );
    }
}

/// Committed chain pins per (seed, crash point): SHA-256 of the
/// serialized journal, SHA-256 of the serialized audit log, the journal
/// head and the audit head. Crash point 0 is the never-crashed run, the
/// other point is `points / 2` of the schedule. Any change to the chain
/// encoding, the digest domains or the journaled schedule moves them.
const CHAIN_PINS: [(u64, u64, [&str; 4]); 6] = [
    (
        1,
        0,
        [
            "b1d9ac8b336ad8bfba64462ffacd063d063a05a34030cbe875e22db5b4a49d05",
            "db4b5507dc394973f021d739cd25379c51cdd5caa9b1ce37f0ded46772d438b6",
            "def3a10fd550231a8f52bbe75316b4cf465ebcd9fac81628c6a0a2d76ef7fb17",
            "c6d4181ecfebadc6e1b22cfca10c4ecd225c8f8a9f1dcfdfb6e6a005e096f153",
        ],
    ),
    (
        1,
        7,
        [
            "fdda8249a73eb5e7b6ea7278ce32906cc327b44aee9242448283081e8b65d543",
            "f0ad5f6804d5806b20956d2643bcf2530905ad0d3628a5b86e599c2725d6a744",
            "16d81f696e5154e88eaee380224353b14d763e04b0af2e3675e0a441ae5d0799",
            "71a6896204584a5c464c4abce806cdacdcd2cf19c0e0b5604aff7562d4e841bb",
        ],
    ),
    (
        7,
        0,
        [
            "218635269d491662e003247f1f591c6d4d128705e922d75d1c1e0df7854ce5c6",
            "db4b5507dc394973f021d739cd25379c51cdd5caa9b1ce37f0ded46772d438b6",
            "2270ca6bf2f196f9c7039139d22bb57cf907a163ad18895c84287f893172fb84",
            "c6d4181ecfebadc6e1b22cfca10c4ecd225c8f8a9f1dcfdfb6e6a005e096f153",
        ],
    ),
    (
        7,
        7,
        [
            "0bfc15ba87b67b3fa86dc8b828c260fc8746d2fc01d2118d9be13600044f0b7d",
            "f0ad5f6804d5806b20956d2643bcf2530905ad0d3628a5b86e599c2725d6a744",
            "32f260c3293d3093edd6ec8a7009a03df22acbee35df529cf207bcd371a31a07",
            "71a6896204584a5c464c4abce806cdacdcd2cf19c0e0b5604aff7562d4e841bb",
        ],
    ),
    (
        42,
        0,
        [
            "35ff8197e10ebabec8508aabbe8f418fdd32336c6026db921d52119b4a18e5a8",
            "db4b5507dc394973f021d739cd25379c51cdd5caa9b1ce37f0ded46772d438b6",
            "9dc32d26bbb0724ccb1ecfa13b64e8c40d95e497ebf4724ec009983efb84b95b",
            "c6d4181ecfebadc6e1b22cfca10c4ecd225c8f8a9f1dcfdfb6e6a005e096f153",
        ],
    ),
    (
        42,
        7,
        [
            "5e52370ea758900daafd1390137a7bb35609806a392ee48489f02899b93dfdfb",
            "f0ad5f6804d5806b20956d2643bcf2530905ad0d3628a5b86e599c2725d6a744",
            "ee7820437dd067ea5824894938c4d0c969e27d3371fa9961763c64a9b85a5080",
            "71a6896204584a5c464c4abce806cdacdcd2cf19c0e0b5604aff7562d4e841bb",
        ],
    ),
];

fn assert_chain_pins(seed: u64, point: u64, plane: &ControlPlane) {
    use salus::crypto::sha256::{to_hex, Sha256};
    let (journal, audit) = (plane.journal_log(), plane.audit_log());
    let got = [
        to_hex(&Sha256::digest(&journal.to_bytes())),
        to_hex(&Sha256::digest(&audit.to_bytes())),
        to_hex(&journal.head()),
        to_hex(&audit.head()),
    ];
    let want = CHAIN_PINS
        .iter()
        .find(|(s, p, _)| (*s, *p) == (seed, point))
        .map(|(_, _, want)| want)
        .unwrap_or_else(|| panic!("no chain pin for seed {seed} point {point}"));
    assert_eq!(got, *want, "seed {seed} point {point}: chain bytes moved");
}

#[test]
fn recovery_is_byte_deterministic_per_seed_and_crash_point() {
    for seed in SEEDS {
        let baseline = run_schedule(seed, 0);
        assert_chain_pins(seed, 0, baseline.plane());
        let points = baseline.plane().crash_plane().ticks();
        for point in [1, points / 2, points] {
            let a = run_schedule(seed, point);
            let b = run_schedule(seed, point);
            assert_eq!(
                a.plane().journal_log().to_bytes(),
                b.plane().journal_log().to_bytes(),
                "seed {seed} point {point}: journals diverged across identical runs"
            );
            assert_eq!(
                a.plane().audit_log().to_bytes(),
                b.plane().audit_log().to_bytes(),
                "seed {seed} point {point}: audit chains diverged across identical runs"
            );
            if point == points / 2 {
                assert_chain_pins(seed, point, a.plane());
            }
        }
    }
}

/// Short deadlines so lost messages cost little virtual time.
fn outage_policy() -> DeployPolicy {
    let retry = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(20),
        backoff_factor: 2,
        max_backoff: Duration::from_millis(200),
        jitter_per_mille: 0,
        deadline: Some(Duration::from_millis(500)),
    };
    DeployPolicy::resilient().with_plan(
        BootPlan::resilient()
            .with_retry(retry)
            .with_reuse_cached_device_key(true)
            .with_suspend_on_outage(true),
    )
}

/// Parks one deploy on a manufacturer outage and returns the plane and
/// the suspension.
fn suspended_plane() -> (
    ControlPlane,
    salus::core::platform::DeploySuspension,
    salus::core::platform::TenantId,
) {
    let plane = ControlPlane::provision(PlatformConfig::quick(1, 1)).unwrap();
    let tenant = plane.register_tenant("alice");
    plane.install_fault_plan(&FaultPlan::new(
        7,
        FaultSpec::default().with_outage("manufacturer", Duration::ZERO, Duration::from_secs(600)),
    ));
    let failure = plane
        .deploy(tenant, loopback_accelerator(), outage_policy())
        .expect_err("outage must suspend");
    let DeployFailure::Suspended(suspension) = failure else {
        panic!("expected suspension, got {failure:?}");
    };
    (plane, *suspension, tenant)
}

#[test]
fn crash_at_abandon_intent_preserves_the_suspension() {
    let (plane, suspension, tenant) = suspended_plane();
    // The suspended deploy consumed its own ticks; arm the next one.
    plane.install_crash_plane(CrashPlane::at_point(1));
    let err = plane.abandon_deploy(suspension);
    assert_eq!(
        err,
        SalusError::CrashInjected("process crash at abandon.intent")
    );

    let (recovered, mut report) = crash_and_recover(plane);
    let survivor = report
        .survivor_suspensions
        .pop()
        .expect("the suspension survives in the tenant process");
    assert_eq!(survivor.tenant(), tenant);
    assert_eq!(recovered.free_slots(), 0, "the slot stays reserved");

    let err = recovered.abandon_deploy(survivor);
    assert!(err.is_transient(), "outage error classifies transient");
    assert_eq!(recovered.free_slots(), 1);
    assert_eq!(recovered.tenant_record(tenant).unwrap().failed_deploys, 1);
    let abandons = recovered
        .audit_log()
        .records()
        .iter()
        .filter(|r| matches!(r.entry, AuditEvent::DeployAbandoned { .. }))
        .count();
    assert_eq!(abandons, 1, "exactly one abandon reaches the audit chain");
}

#[test]
fn crash_at_abandon_pre_commit_rolls_forward() {
    let (plane, suspension, tenant) = suspended_plane();
    plane.install_crash_plane(CrashPlane::at_point(2));
    let err = plane.abandon_deploy(suspension);
    assert_eq!(
        err,
        SalusError::CrashInjected("process crash at abandon.pre-commit")
    );

    let (recovered, report) = crash_and_recover(plane);
    assert_eq!(
        report.rolled_forward, 1,
        "the consumed abandon rolls forward"
    );
    assert!(report.survivor_suspensions.is_empty());
    assert_eq!(
        recovered.free_slots(),
        1,
        "the slot is free after roll-forward"
    );
    assert_eq!(recovered.tenant_record(tenant).unwrap().failed_deploys, 1);
    let abandons = recovered
        .audit_log()
        .records()
        .iter()
        .filter(|r| matches!(r.entry, AuditEvent::DeployAbandoned { .. }))
        .count();
    assert_eq!(
        abandons, 1,
        "the pre-crash abandon audit is preserved, once"
    );
}

#[test]
fn crash_at_resume_intent_preserves_the_suspension() {
    let (plane, suspension, tenant) = suspended_plane();
    plane.install_crash_plane(CrashPlane::at_point(1));
    let failure = plane.resume_deploy(suspension).expect_err("crash injected");
    let DeployFailure::Rejected(SalusError::CrashInjected(point)) = failure else {
        panic!("expected injected crash, got {failure:?}");
    };
    assert_eq!(point, "process crash at resume.intent");

    let (recovered, mut report) = crash_and_recover(plane);
    let survivor = report
        .survivor_suspensions
        .pop()
        .expect("the suspension survives in the tenant process");
    assert_eq!(recovered.free_slots(), 0, "the slot stays reserved");

    // Outage over: the re-driven resume completes the cold boot on the
    // same slot.
    recovered.clear_fault_plan();
    let d = recovered
        .resume_deploy(survivor)
        .expect("re-driven resume succeeds");
    assert_eq!(d.tenant, tenant);
    assert!(d.outcome.report.all_attested());
    assert_eq!(recovered.tenant_record(tenant).unwrap().cold_deploys, 1);
}

#[test]
fn crash_after_a_failed_boot_abort_replays_the_charges() {
    let run = |crash_point: u64| {
        let plane = ControlPlane::provision(PlatformConfig::quick(1, 1)).unwrap();
        let tenant = plane.register_tenant("alice");
        plane.install_crash_plane(CrashPlane::at_point(crash_point));
        // Everything drops: the boot fails transient, the deploy's
        // single placement aborts.
        let policy = outage_policy()
            .with_plan(
                BootPlan::resilient()
                    .with_retry(RetryPolicy {
                        max_attempts: 2,
                        base_backoff: Duration::from_millis(20),
                        backoff_factor: 2,
                        max_backoff: Duration::from_millis(200),
                        jitter_per_mille: 0,
                        deadline: Some(Duration::from_millis(500)),
                    })
                    .with_suspend_on_outage(false),
            )
            .with_placements(1)
            .with_fault_plan(FaultPlan::new(
                3,
                FaultSpec::default().with_drop_per_mille(1000),
            ));
        let failure = plane
            .deploy(tenant, loopback_accelerator(), policy)
            .expect_err("the dark fabric must fail the boot");
        (plane, tenant, failure)
    };

    // Baseline: no crash — the abort path charges board and tenant.
    let (baseline, tenant, failure) = run(0);
    assert!(matches!(failure, DeployFailure::Failed { .. }));
    let want = fingerprint(&baseline);
    assert_eq!(baseline.tenant_record(tenant).unwrap().failed_deploys, 1);
    assert_eq!(
        baseline.crash_plane().trace(),
        ["deploy.intent", "deploy.abort"],
        "the failed boot's crash-point trace moved"
    );

    // Crash immediately after the abort record (tick 2 = deploy.abort):
    // the live charges never happened; replay must reproduce them.
    let (plane, tenant, failure) = run(2);
    assert!(matches!(
        failure,
        DeployFailure::Rejected(SalusError::CrashInjected(_))
    ));
    let (recovered, _) = crash_and_recover(plane);
    assert_eq!(
        fingerprint(&recovered),
        want,
        "replayed failure charges diverged from the live ones"
    );
    assert_eq!(recovered.tenant_record(tenant).unwrap().failed_deploys, 1);
}

#[test]
fn crash_after_a_failed_redeploy_abort_keeps_the_image_parked() {
    // A parked tenant whose board's PCIe endpoint then goes dark: the
    // warm-image reload fails transient and the redeploy aborts.
    let run = |crash_point: u64| {
        let plane = ControlPlane::provision(PlatformConfig::quick(1, 1)).unwrap();
        let tenant = plane.register_tenant("alice");
        let d = plane
            .deploy(tenant, loopback_accelerator(), DeployPolicy::single())
            .unwrap();
        plane.evict(d).unwrap();
        plane.install_fault_plan(&FaultPlan::new(
            11,
            FaultSpec::default().with_outage(
                "fleet.dev0.fpga",
                Duration::ZERO,
                Duration::from_secs(3_600),
            ),
        ));
        plane.install_crash_plane(CrashPlane::at_point(crash_point));
        let err = plane
            .redeploy(tenant)
            .expect_err("the dark board fails the reload");
        (plane, tenant, err)
    };

    let (baseline, tenant, err) = run(0);
    assert!(
        err.is_transient(),
        "outage loss classifies transient: {err:?}"
    );
    assert_eq!(
        baseline.crash_plane().trace(),
        ["redeploy.intent", "redeploy.abort"]
    );
    let want = fingerprint(&baseline);

    // Crash right after the abort (tick 2 = redeploy.abort): replay must
    // reproduce the live charges, and the ciphertext stays parked.
    let (plane, tenant_b, err) = run(2);
    assert_eq!(tenant_b, tenant);
    assert_eq!(
        err,
        SalusError::CrashInjected("process crash at redeploy.abort")
    );
    let (recovered, _) = crash_and_recover(plane);
    assert_eq!(
        fingerprint(&recovered),
        want,
        "replayed redeploy-abort charges diverged from the live ones"
    );
    assert!(
        recovered.has_parked(tenant),
        "the transient abort must leave the ciphertext parked"
    );
    assert_eq!(recovered.tenant_record(tenant).unwrap().failed_deploys, 1);
}

#[test]
fn journal_contradicted_by_the_board_fences_and_charges() {
    let plane = ControlPlane::provision(PlatformConfig::quick(1, 2)).unwrap();
    let alice = plane.register_tenant("alice");
    let seed = plane.tenant_record(alice).unwrap().seed;
    let real_journal = plane.journal_log();

    // Forge a journal claiming alice runs on partition 1 — a slot no
    // boot ever configured. The chain itself is valid; only the board
    // contradicts it.
    let mut forged = Journal::new();
    let at = Duration::ZERO;
    let op = forged.begin(
        at,
        IntentOp::Register {
            tenant: alice,
            name: "alice".to_owned(),
            seed,
        },
    );
    forged.commit(at, op, None, Duration::ZERO);
    let slot = SlotId {
        device: 0,
        partition: 1,
    };
    let op = forged.begin(
        at,
        IntentOp::Deploy {
            tenant: alice,
            slot,
        },
    );
    forged.commit(
        at,
        op,
        Some(salus::core::platform::DeployPath::Cold),
        Duration::ZERO,
    );
    assert_ne!(forged.head(), real_journal.head());

    let remains = plane.crash().with_journal(forged);
    let (recovered, report) = ControlPlane::recover(remains).expect("recovery succeeds");
    assert_eq!(report.contradictions, vec![slot]);
    assert_eq!(
        recovered.free_slots(),
        2,
        "the contradicted slot is fenced, not leased"
    );
    let health = recovered.device_health();
    assert_eq!(health[0].total_failures, 1, "the lying board is charged");
    assert_eq!(recovered.tenant_record(alice).unwrap().failed_deploys, 1);
    let fences = recovered
        .audit_log()
        .records()
        .iter()
        .filter(|r| matches!(r.entry, AuditEvent::SessionFenced { .. }))
        .count();
    assert_eq!(fences, 1, "the contradiction lands in the audit chain");

    // The fence was committed to the journal, so a second recovery
    // replays its charge instead of finding the contradiction again.
    let want = fingerprint(&recovered);
    let (again, report) = crash_and_recover(recovered);
    assert!(report.contradictions.is_empty());
    assert_eq!(fingerprint(&again), want);
}

#[test]
fn a_refused_deploy_survives_recovery() {
    use salus::core::platform::PlaceRequest;
    use salus::fpga::family::FamilyId;

    let plane = ControlPlane::provision(PlatformConfig::quick(1, 2)).unwrap();
    let alice = plane.register_tenant("alice");
    let versal = DeployPolicy::single().with_request(PlaceRequest::for_family(FamilyId::Versal));
    let failure = plane
        .deploy(alice, loopback_accelerator(), versal)
        .expect_err("no versal board exists");
    assert!(matches!(failure, DeployFailure::Rejected(_)));
    assert_eq!(plane.tenant_record(alice).unwrap().failed_deploys, 1);
    let want = fingerprint(&plane);

    let (recovered, _) = crash_and_recover(plane);
    assert_eq!(
        recovered.tenant_record(alice).unwrap().failed_deploys,
        1,
        "the refusal's charge must be journaled"
    );
    assert_eq!(fingerprint(&recovered), want);

    // A second recovery replays the same journal to the same ledger.
    let (again, _) = crash_and_recover(recovered);
    assert_eq!(fingerprint(&again), want);
}

#[test]
fn abandon_audits_a_deploy_abandoned_event() {
    let (plane, suspension, tenant) = suspended_plane();
    let slot = suspension.slot();
    let err = plane.abandon_deploy(suspension);
    assert!(err.is_transient());
    let audit = plane.audit_log();
    let last = audit.records().last().expect("audit is non-empty");
    assert_eq!(
        last.entry,
        AuditEvent::DeployAbandoned { tenant, slot },
        "abandoning must audit its own event, not a generic failure"
    );
    assert!(
        !audit
            .records()
            .iter()
            .any(|r| matches!(r.entry, AuditEvent::DeployFailed { .. })),
        "no failure event is forged for an abandon"
    );
}

#[test]
fn snapshot_pins_the_journal_head() {
    let plane = ControlPlane::provision(PlatformConfig::quick(1, 1)).unwrap();
    let before = plane.snapshot().journal_head;
    assert_eq!(
        before,
        Journal::new().head(),
        "empty journal = genesis head"
    );
    let tenant = plane.register_tenant("alice");
    let _ = plane
        .deploy(tenant, loopback_accelerator(), DeployPolicy::single())
        .unwrap();
    let snap = plane.snapshot();
    assert_ne!(snap.journal_head, before, "mutations move the journal head");
    assert_eq!(snap.journal_head, plane.journal_log().head());
}
