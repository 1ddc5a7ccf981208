//! The control plane: tenant registration, scheduled deployments,
//! eviction, warm redeploys, and fleet-level fault tolerance.
//!
//! One [`ControlPlane`] owns a [`SharedPlatform`] plus a
//! [`DeviceFleet`] and serves any number of tenants. A *cold* deploy
//! runs the full Fig. 3 boot (manufacturer round trip included); once
//! any tenant has redeemed a board's `Key_device`, later deploys on
//! that board go *warm-key* (the boot machine's warm path skips the
//! manufacturer and quote phases); an evicted tenant's deployment is
//! parked with its pre-encrypted bitstream and comes back *warm-image*
//! — reload and CL-attest only, no manufacturer, no manipulation, no
//! re-encryption.
//!
//! ## Fault tolerance
//!
//! [`deploy`](ControlPlane::deploy) drives the boot through
//! [`secure_boot`] under a [`DeployPolicy`]: per-step retries
//! with backoff inside one boot, and — when a boot still fails on a
//! [`FaultClass::Transient`] error — cross-board failover: the lease is
//! released, the board is charged a health failure in the [`Ledger`],
//! and the scheduler re-places on a *different* board (the failed ones
//! join the `avoid` set). Boards that keep failing are quarantined and
//! skipped fleet-wide until a seeded cool-down probationally re-admits
//! them.
//! A manufacturer outage degrades to a [`DeploySuspension`]: the slot
//! stays leased and [`resume_deploy`](ControlPlane::resume_deploy)
//! finishes the boot without losing any completed work. Deploy, resume
//! and warm-image redeploy all settle through the same commit, suspend
//! and abort-then-charge steps.
//!
//! ## Crash consistency
//!
//! Every multi-step mutation writes an intent into the write-ahead
//! [`Journal`] before acting and commits it only when every effect is
//! in place; the commit append is the linearization point. A seeded
//! [`CrashPlane`] can kill the control plane at any journal step
//! ([`crash_tick`](ControlPlane::install_crash_plane) points), after
//! which [`ControlPlane::crash`] hands over what durably survives —
//! journal, audit log, parked ciphertexts, the boards themselves — and
//! [`ControlPlane::recover`] rebuilds a fresh plane: open intents are
//! rolled back (or forward when their effects are durably present),
//! the settled journal is folded through the [`Ledger`] rule the live
//! plane charges by, occupancy is re-leased and reconciled against
//! actual board configuration state, orphaned lanes are fenced through
//! the `SessionFenced` audit path, and boards contradicting the
//! journal are fenced through a committed `Fence` op.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use parking_lot::Mutex;
use salus_bitstream::netlist::Module;
use salus_crypto::sha256::Digest;
use salus_fpga::family::FamilyId;
use salus_fpga::geometry::DeviceGeometry;
use salus_net::fault::{CrashPlane, FaultPlan};
use salus_net::latency::LatencyModel;

use crate::boot::{
    reload_image, secure_boot, BootFailure, BootOutcome, BootPlan, BootStep, BootSuspension,
};
use crate::instance::{EndpointNames, TestBed, TestBedBuilder, TestBedConfig};
use crate::timing::CostModel;
use crate::{FaultClass, PlaceError, SalusError};

use super::audit::{AuditEvent, AuditLog};
use super::fleet::{
    DeployPath, DeviceFleet, DeviceId, DeviceLease, DramWindow, SlotId, TenantId, TenantRecord,
};
use super::health::{DeviceHealthRecord, HealthPolicy, HealthState};
use super::journal::{AbortKind, IntentOp, Journal, JournalEntry, OpId};
use super::ledger::{Ledger, Settlement};
use super::scheduler::{PlacePolicy, PlaceRequest, Scheduler};
use super::SharedPlatform;

/// Configuration of one platform node.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of fleet boards of the base `geometry`.
    pub devices: usize,
    /// Base board geometry (its partition list is the slot grid).
    pub geometry: DeviceGeometry,
    /// Additional board batches for a heterogeneous fleet, appended
    /// after the `devices` base boards in device-index order. Empty for
    /// the homogeneous fleets `quick`/`paper` build.
    pub extra_boards: Vec<(DeviceGeometry, usize)>,
    /// Operation cost model charged by every tenant boot.
    pub cost: CostModel,
    /// Link latency model of the shared fabric.
    pub latency: LatencyModel,
    /// Deterministic seed for the platform's randomness.
    pub seed: u64,
    /// Placement policy.
    pub policy: PlacePolicy,
    /// Device health thresholds (quarantine / probation).
    pub health: HealthPolicy,
    /// When true, tenant boots drive the manufacturer over the shared
    /// RPC fabric (per-tenant host endpoints) instead of in-process, so
    /// the key-distribution round trip crosses the fault plane in the
    /// multi-tenant path too.
    pub rpc_boot: bool,
}

impl PlatformConfig {
    /// Tiny zero-cost fleet for fast functional tests: `devices` boards
    /// with `partitions` full-size tiny RPs each.
    pub fn quick(devices: usize, partitions: usize) -> PlatformConfig {
        PlatformConfig {
            devices,
            geometry: DeviceGeometry::tiny_multi_rp(partitions),
            extra_boards: Vec::new(),
            cost: CostModel::zero(),
            latency: LatencyModel::zero(),
            seed: 42,
            policy: PlacePolicy::default(),
            health: HealthPolicy::default(),
            rpc_boot: false,
        }
    }

    /// Paper-scale fleet: U200 boards split into `partitions` RPs,
    /// calibrated costs and latencies.
    pub fn paper(devices: usize, partitions: usize) -> PlatformConfig {
        PlatformConfig {
            devices,
            geometry: DeviceGeometry::u200_multi_rp(partitions),
            extra_boards: Vec::new(),
            cost: CostModel::paper_calibrated(),
            latency: LatencyModel::paper_calibrated(),
            seed: 42,
            policy: PlacePolicy::default(),
            health: HealthPolicy::default(),
            rpc_boot: false,
        }
    }

    /// Replaces the seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> PlatformConfig {
        self.seed = seed;
        self
    }

    /// Replaces the placement policy (builder-style).
    pub fn with_policy(mut self, policy: PlacePolicy) -> PlatformConfig {
        self.policy = policy;
        self
    }

    /// Replaces the base board geometry (builder-style).
    pub fn with_geometry(mut self, geometry: DeviceGeometry) -> PlatformConfig {
        self.geometry = geometry;
        self
    }

    /// Appends `count` extra boards of `geometry` to the fleet
    /// (builder-style) — the heterogeneous-fleet entry point.
    pub fn with_extra_boards(mut self, geometry: DeviceGeometry, count: usize) -> PlatformConfig {
        self.extra_boards.push((geometry, count));
        self
    }

    /// The full provisioning spec: base boards first, extras after.
    pub fn board_spec(&self) -> Vec<(DeviceGeometry, usize)> {
        let mut spec = vec![(self.geometry.clone(), self.devices)];
        spec.extend(self.extra_boards.iter().cloned());
        spec
    }

    /// Total boards the spec provisions.
    pub fn board_count(&self) -> usize {
        self.devices + self.extra_boards.iter().map(|(_, n)| n).sum::<usize>()
    }

    /// The empty ledger a fresh or recovering plane starts from.
    fn fresh_ledger(&self) -> Ledger {
        Ledger::new(
            self.board_count(),
            self.seed.wrapping_mul(0x9E37_79B9),
            self.health,
        )
    }

    /// Replaces the device-health policy (builder-style).
    pub fn with_health(mut self, health: HealthPolicy) -> PlatformConfig {
        self.health = health;
        self
    }

    /// Routes tenant boots' key distribution over the RPC fabric
    /// (builder-style).
    pub fn with_rpc_boot(mut self, rpc_boot: bool) -> PlatformConfig {
        self.rpc_boot = rpc_boot;
        self
    }
}

/// How a fleet deployment is orchestrated: the boot plan each placement
/// runs, how many distinct boards may be tried, and an optional
/// fleet-level fault plan installed on the shared fabric.
#[derive(Debug, Clone)]
pub struct DeployPolicy {
    /// The plan (retry policy, deadlines, suspension) every boot
    /// attempt runs under.
    pub plan: BootPlan,
    /// Maximum distinct boards tried per deploy (≥ 1, first placement
    /// included). Only [`FaultClass::Transient`] boot failures trigger a
    /// re-placement; integrity violations fail the deploy immediately.
    pub placements: u32,
    /// A fault plan to (re)install fabric-wide at deploy entry. `None`
    /// leaves whatever plane is currently installed untouched.
    pub fault: Option<FaultPlan>,
    /// Capability constraint the placement must satisfy (family the
    /// tenant's bitstream targets, resources its netlist needs).
    /// [`PlaceRequest::any`] for deploys that compile per-lease.
    pub request: PlaceRequest,
}

impl DeployPolicy {
    /// The single-shot policy: one placement, a single-attempt boot
    /// reusing the fleet-cached device key, no deadlines, no suspension.
    pub fn single() -> DeployPolicy {
        DeployPolicy {
            plan: BootPlan::single().with_reuse_cached_device_key(true),
            placements: 1,
            fault: None,
            request: PlaceRequest::any(),
        }
    }

    /// The default fault-tolerant policy: resilient per-step retries,
    /// manufacturer-outage suspension, and up to three boards tried.
    pub fn resilient() -> DeployPolicy {
        DeployPolicy {
            plan: BootPlan::resilient().with_reuse_cached_device_key(true),
            placements: 3,
            fault: None,
            request: PlaceRequest::any(),
        }
    }

    /// Replaces the boot plan (builder-style).
    pub fn with_plan(mut self, plan: BootPlan) -> DeployPolicy {
        self.plan = plan;
        self
    }

    /// Replaces the placement budget (builder-style).
    pub fn with_placements(mut self, placements: u32) -> DeployPolicy {
        self.placements = placements.max(1);
        self
    }

    /// Installs `plan` on the shared fabric at deploy entry
    /// (builder-style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> DeployPolicy {
        self.fault = Some(plan);
        self
    }

    /// Constrains placement to slots satisfying `request`
    /// (builder-style).
    pub fn with_request(mut self, request: PlaceRequest) -> DeployPolicy {
        self.request = request;
        self
    }
}

/// One placement of a deploy that ended in a boot failure.
#[derive(Debug, Clone)]
pub struct DeployAttempt {
    /// The slot the boot ran on.
    pub slot: SlotId,
    /// The boot step that failed.
    pub step: BootStep,
    /// The terminal error of this placement.
    pub error: SalusError,
    /// True when a transient fault exhausted the per-step retry budget
    /// (the cross-board-retry trigger); false for fail-closed errors.
    pub retries_exhausted: bool,
}

/// Terminal outcome of [`ControlPlane::deploy`] when no placement
/// produced a running deployment.
#[derive(Debug)]
pub enum DeployFailure {
    /// The scheduler refused before any boot ran (unknown tenant,
    /// saturated fleet, every admissible board quarantined).
    Rejected(SalusError),
    /// Every tried placement failed; `error` is the last boot's
    /// terminal error and `attempts` the full cross-board trail.
    Failed {
        /// The last placement's terminal error.
        error: SalusError,
        /// Every placement tried, in order.
        attempts: Vec<DeployAttempt>,
    },
    /// The manufacturer stayed unreachable past the retry budget: the
    /// boot is parked resumable and **the slot stays leased**. Hand the
    /// suspension back to [`ControlPlane::resume_deploy`] once the
    /// outage ends, or [`ControlPlane::abandon_deploy`] to free the
    /// slot. Dropping it instead leaks the lease until an explicit
    /// release.
    Suspended(Box<DeploySuspension>),
}

impl DeployFailure {
    /// Coarse outcome label for sweeps and logs.
    pub fn classification(&self) -> &'static str {
        match self {
            DeployFailure::Rejected(_) => "rejected",
            DeployFailure::Failed { .. } => "failed",
            DeployFailure::Suspended(_) => "suspended",
        }
    }

    /// The cross-board attempt trail, when placements ran.
    pub fn attempts(&self) -> &[DeployAttempt] {
        match self {
            DeployFailure::Failed { attempts, .. } => attempts,
            DeployFailure::Suspended(s) => &s.placement.attempts,
            DeployFailure::Rejected(_) => &[],
        }
    }
}

impl From<DeployFailure> for SalusError {
    /// Collapses to the underlying error. Only safe for policies that
    /// cannot suspend (a suspension collapsed this way has already had
    /// its lease released by the caller, or leaks it knowingly).
    fn from(failure: DeployFailure) -> SalusError {
        match failure {
            DeployFailure::Rejected(e) => e,
            DeployFailure::Failed { error, .. } => error,
            DeployFailure::Suspended(s) => s.suspension.into_last_error(),
        }
    }
}

/// A leased slot and the tenant bed booting on it, carried through a
/// boot's settlement (and held by a [`DeploySuspension`]).
struct Placement {
    tenant: TenantId,
    lease: DeviceLease,
    bed: Box<TestBed>,
    /// Whether the boot started from the fleet-cached `Key_device`.
    warm: bool,
    /// Cross-board attempts that preceded this placement.
    attempts: Vec<DeployAttempt>,
}

/// A fleet deploy parked on a manufacturer outage: the per-boot
/// [`BootSuspension`] plus the held lease and bed. The slot stays
/// occupied (visible in [`ControlPlane::occupancy`]) so the tenant
/// cannot lose its placement while waiting out the outage.
pub struct DeploySuspension {
    placement: Placement,
    suspension: BootSuspension,
}

impl std::fmt::Debug for DeploySuspension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeploySuspension")
            .field("tenant", &self.placement.tenant)
            .field("slot", &self.placement.lease.slot)
            .field("step", &self.suspension.step())
            .finish_non_exhaustive()
    }
}

impl DeploySuspension {
    /// The suspended tenant.
    pub fn tenant(&self) -> TenantId {
        self.placement.tenant
    }

    /// The slot the suspension keeps leased.
    pub fn slot(&self) -> SlotId {
        self.placement.lease.slot
    }

    /// The boot step the machine is parked on.
    pub fn step(&self) -> BootStep {
        self.suspension.step()
    }

    /// The transient error that exhausted the budget.
    pub fn last_error(&self) -> &SalusError {
        self.suspension.last_error()
    }

    /// Cross-board attempts that preceded the suspended placement.
    pub fn attempts(&self) -> &[DeployAttempt] {
        &self.placement.attempts
    }
}

/// A parked (evicted) deployment, ready for warm redeploy: its SM
/// enclave still holds the encrypted CL it last loaded.
struct ParkedDeployment {
    bed: Box<TestBed>,
    slot: SlotId,
    /// Family the parked ciphertext was framed for; redeploy affinity
    /// is only honoured on a family-compatible board.
    family: FamilyId,
}

/// One tenant's running deployment, as handed out by the control
/// plane. Owns the per-tenant bed; the slot stays leased until the
/// deployment is evicted.
pub struct TenantDeployment {
    /// The owning tenant.
    pub tenant: TenantId,
    /// The leased (device, partition) slot.
    pub slot: SlotId,
    /// The slot's private DRAM window; every DMA the deployment issues
    /// is confined to it.
    pub window: DramWindow,
    /// The tenant's wired deployment (booted).
    pub bed: TestBed,
    /// Boot outcome (breakdown, cascade report, per-step trace).
    pub outcome: BootOutcome,
    /// Which path the deployment took.
    pub path: DeployPath,
    /// Distinct placements this deploy consumed (1 = first board).
    pub attempts: u32,
}

impl std::fmt::Debug for TenantDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantDeployment")
            .field("tenant", &self.tenant)
            .field("slot", &self.slot)
            .field("path", &self.path)
            .field("attempts", &self.attempts)
            .finish_non_exhaustive()
    }
}

/// Fleet-wide monitoring snapshot: occupancy, key-cache state, parked
/// set, device health, and per-tenant records, all at one instant of
/// virtual time.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Virtual time of the snapshot.
    pub now: Duration,
    /// Free slots across the fleet.
    pub free_slots: usize,
    /// Total slots across the fleet.
    pub total_slots: usize,
    /// `(slot, tenant)` for every held slot, in slot order.
    pub occupancy: Vec<(SlotId, TenantId)>,
    /// Boards whose `Key_device` is in the fleet cache (warm-key ready).
    pub keyed_devices: Vec<DeviceId>,
    /// `(tenant, bound slot)` of every parked deployment, by tenant id.
    pub parked: Vec<(TenantId, SlotId)>,
    /// Per-board health entries, in device order.
    pub health: Vec<DeviceHealthRecord>,
    /// Per-tenant records, by tenant id.
    pub tenants: Vec<TenantRecord>,
    /// Head digest of the control plane's audit chain at snapshot
    /// time: anchoring it commits to the entire event history.
    pub audit_head: Digest,
    /// Head digest of the write-ahead intent journal at snapshot time:
    /// anchoring it pins the mutation history a recovery would replay
    /// (and makes journal truncation detectable, like `audit_head`).
    pub journal_head: Digest,
}

/// What durably survives a control-plane process crash, as handed over
/// by [`ControlPlane::crash`]: the write-ahead journal and audit chain
/// (persistent logs), the parked-ciphertext store, the boards
/// themselves (their configuration state is ground truth), the shared
/// platform (clock, fabric, manufacturer), and any tenant-held objects
/// the crash caught before consuming them. Everything else — in-memory
/// occupancy, ledger, scheduler — dies with the process and is rebuilt
/// by [`ControlPlane::recover`].
pub struct CrashRemains {
    config: PlatformConfig,
    shared: SharedPlatform,
    fleet: DeviceFleet,
    parked: HashMap<TenantId, ParkedDeployment>,
    journal: Journal,
    audit: AuditLog,
    survivors: Vec<TenantDeployment>,
    survivor_suspensions: Vec<DeploySuspension>,
}

impl std::fmt::Debug for CrashRemains {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashRemains")
            .field("journal_records", &self.journal.len())
            .field("audit_records", &self.audit.len())
            .field("parked", &self.parked.len())
            .field("survivors", &self.survivors.len())
            .finish_non_exhaustive()
    }
}

impl CrashRemains {
    /// The surviving write-ahead journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The surviving audit chain.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Replaces the surviving journal (builder-style) — the recovery
    /// drill hook: forging or truncating the journal here exercises
    /// [`ControlPlane::recover`]'s verification and contradiction
    /// paths against real surviving boards.
    pub fn with_journal(mut self, journal: Journal) -> CrashRemains {
        self.journal = journal;
        self
    }
}

/// What [`ControlPlane::recover`] did to rebuild the plane from a
/// [`CrashRemains`], plus the tenant-held objects that survived the
/// crash and should be re-driven by their owners.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Committed intents whose effects were replayed.
    pub replayed_commits: u64,
    /// Open intents settled by rollback.
    pub rolled_back: u64,
    /// Open intents settled by roll-forward (their effects were
    /// durably present: a parked ciphertext, a consumed suspension).
    pub rolled_forward: u64,
    /// Slots whose boot completed on the board but whose deploy intent
    /// was rolled back: the lane is orphaned (nobody holds its bed) and
    /// was fenced via `SessionFenced`. No health charge — a controller
    /// death is not the board's fault.
    pub fenced_orphans: Vec<SlotId>,
    /// Slots the journal claims are running but whose partition the
    /// board reports unconfigured: fenced through a committed `Fence`
    /// op, which charges the board a health failure (its state
    /// contradicts the durable record).
    pub contradictions: Vec<SlotId>,
    /// Deployments the crash caught in the tenant process before the
    /// control plane consumed them (e.g. an evict that died at its
    /// intent point). Re-drive them against the recovered plane.
    pub survivors: Vec<TenantDeployment>,
    /// Suspensions that survived the same way (a resume or abandon
    /// that died at its intent point).
    pub survivor_suspensions: Vec<DeploySuspension>,
}

/// The platform control plane.
pub struct ControlPlane {
    shared: SharedPlatform,
    fleet: Mutex<DeviceFleet>,
    scheduler: Scheduler,
    ledger: Mutex<Ledger>,
    parked: Mutex<HashMap<TenantId, ParkedDeployment>>,
    audit: Mutex<AuditLog>,
    journal: Mutex<Journal>,
    crash: Mutex<CrashPlane>,
    /// Deployments a crash caught before they were consumed (e.g. an
    /// evict that died at its intent point): they live in the *tenant*
    /// process, so they survive the control plane and come back through
    /// [`RecoveryReport::survivors`] for re-driving.
    survivors: Mutex<Vec<TenantDeployment>>,
    /// Suspensions a crash caught the same way.
    survivor_suspensions: Mutex<Vec<DeploySuspension>>,
    config: PlatformConfig,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("devices", &self.config.board_count())
            .field("tenants", &self.ledger.lock().tenants().len())
            .finish_non_exhaustive()
    }
}

impl ControlPlane {
    /// Provisions the shared platform, the device fleet, and the
    /// manufacturer's RPC face on the shared fabric.
    ///
    /// # Errors
    ///
    /// Shell compilation or provisioning failures.
    pub fn provision(config: PlatformConfig) -> Result<ControlPlane, SalusError> {
        let shared = SharedPlatform::provision(
            config.seed,
            salus_tee::quote::CURRENT_SVN,
            config.latency.clone(),
        );
        let fleet =
            DeviceFleet::provision_mixed(&shared.manufacturer, &config.board_spec(), 1_000)?;
        // The key service answers RPC on the shared fabric too, for
        // parties that reach it over the wire rather than in-process.
        crate::services::serve_manufacturer(&shared.fabric, shared.manufacturer.clone());
        Ok(ControlPlane {
            shared,
            fleet: Mutex::new(fleet),
            scheduler: Scheduler::new(config.policy),
            ledger: Mutex::new(config.fresh_ledger()),
            parked: Mutex::new(HashMap::new()),
            audit: Mutex::new(AuditLog::new()),
            journal: Mutex::new(Journal::new()),
            crash: Mutex::new(CrashPlane::inert()),
            survivors: Mutex::new(Vec::new()),
            survivor_suspensions: Mutex::new(Vec::new()),
            config,
        })
    }

    /// The shared platform resources (cloneable handles).
    pub fn shared(&self) -> &SharedPlatform {
        &self.shared
    }

    /// The node configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Number of fleet boards.
    pub fn device_count(&self) -> usize {
        self.fleet.lock().device_count()
    }

    /// Partitions on board `device` (0 for unknown boards).
    pub fn partitions_on(&self, device: DeviceId) -> usize {
        self.fleet.lock().partitions_on(device)
    }

    /// Total schedulable slots across the fleet.
    pub fn total_slots(&self) -> usize {
        self.fleet.lock().total_slots()
    }

    /// The device family of board `device`, if it exists.
    pub fn device_family(&self, device: DeviceId) -> Option<FamilyId> {
        self.fleet.lock().family_of(device)
    }

    /// The geometry of board `device`, if it exists.
    pub fn device_geometry(&self, device: DeviceId) -> Option<DeviceGeometry> {
        self.fleet.lock().geometry_of(device).cloned()
    }

    /// Currently free slots.
    pub fn free_slots(&self) -> usize {
        self.fleet.lock().free_slots()
    }

    /// True DNAs of the fleet boards, in device order.
    pub fn fleet_dnas(&self) -> Vec<u64> {
        self.fleet.lock().dnas()
    }

    /// Occupancy snapshot: `(slot, tenant)` for every held slot.
    pub fn occupancy(&self) -> Vec<(SlotId, TenantId)> {
        self.fleet.lock().occupancy()
    }

    /// The DRAM window `slot`'s partition owns on its board, if the
    /// slot exists in the fleet geometry.
    pub fn dram_window(&self, slot: SlotId) -> Option<DramWindow> {
        self.fleet.lock().window_of(slot)
    }

    /// Installs `plan`'s fault plane on the shared fabric, covering
    /// every channel of every tenant deployment.
    pub fn install_fault_plan(&self, plan: &FaultPlan) {
        self.shared.fabric.install_fault_plane(plan.build());
    }

    /// Removes any installed fault plane from the shared fabric.
    pub fn clear_fault_plan(&self) {
        self.shared.fabric.clear_fault_plane();
    }

    /// Per-board health entries at the current virtual time.
    pub fn device_health(&self) -> Vec<DeviceHealthRecord> {
        self.ledger
            .lock()
            .health()
            .snapshot(self.shared.clock.now())
    }

    /// Appends `event` to the audit chain at the current virtual time
    /// and returns the new chain head. Every control-plane mutation
    /// already audits itself; this is the entry point for events the
    /// control plane cannot see (serving-plane window faults,
    /// re-attestation challenges driven by a monitor).
    pub fn audit_append(&self, event: AuditEvent) -> Digest {
        self.audit.lock().append(self.shared.clock.now(), event)
    }

    /// The audit chain's current head digest.
    pub fn audit_head(&self) -> Digest {
        self.audit.lock().head()
    }

    /// A clone of the full audit chain, for verification and export.
    pub fn audit_log(&self) -> AuditLog {
        self.audit.lock().clone()
    }

    /// The write-ahead journal's current head digest.
    pub fn journal_head(&self) -> Digest {
        self.journal.lock().head()
    }

    /// A clone of the full write-ahead journal, for verification and
    /// export.
    pub fn journal_log(&self) -> Journal {
        self.journal.lock().clone()
    }

    /// Installs `plane` as this control plane's crash injector. Every
    /// journal step of every mutation ticks it; at the armed tick the
    /// mutation dies mid-flight with [`SalusError::CrashInjected`] and
    /// no cleanup — exactly the state [`ControlPlane::crash`] /
    /// [`ControlPlane::recover`] must cope with.
    pub fn install_crash_plane(&self, plane: CrashPlane) {
        *self.crash.lock() = plane;
    }

    /// A handle to the installed crash plane (shared state: its trace
    /// and fired point reflect every tick the control plane made).
    pub fn crash_plane(&self) -> CrashPlane {
        self.crash.lock().clone()
    }

    fn crash_tick(&self, label: &str) -> bool {
        self.crash.lock().tick(label)
    }

    fn journal_begin(&self, action: IntentOp) -> OpId {
        self.journal.lock().begin(self.shared.clock.now(), action)
    }

    fn journal_commit(&self, op: OpId, path: Option<DeployPath>, elapsed: Duration) {
        self.journal
            .lock()
            .commit(self.shared.clock.now(), op, path, elapsed);
    }

    fn journal_abort(&self, op: OpId, reason: &str, kind: AbortKind) {
        self.journal
            .lock()
            .abort(self.shared.clock.now(), op, reason, kind);
    }

    fn journal_suspend(&self, op: OpId, step: &str) {
        self.journal
            .lock()
            .suspend(self.shared.clock.now(), op, step);
    }

    /// Charges `action`'s settlement to the ledger at the current
    /// virtual time and audits the board transition it caused, if any.
    fn charge(&self, action: &IntentOp, settlement: Settlement) {
        let now = self.shared.clock.now();
        // `apply` refuses only a registration under a foreign id, and
        // `register_tenant` applies its own.
        let transition = self.ledger.lock().apply(action, settlement, now);
        if let Ok(Some((device, state))) = transition {
            self.audit_append(AuditEvent::HealthTransition { device, state });
        }
    }

    /// Fences `tenant`'s running deployment on `slot` after a failed
    /// runtime re-attestation: the lease is released (the caller holds
    /// the now-untrusted bed) and the board is charged a health failure
    /// exactly like a failed boot, so repeated fences walk it through
    /// quarantine → cool-down → probation. Returns the board's
    /// resulting admission state.
    ///
    /// # Errors
    ///
    /// [`SalusError::Scheduler`] when `slot` is not leased.
    pub fn fence_deployment(
        &self,
        tenant: TenantId,
        slot: SlotId,
    ) -> Result<HealthState, SalusError> {
        let action = IntentOp::Fence { tenant, slot };
        let op = self.journal_begin(action.clone());
        if self.crash_tick("fence.intent") {
            return Err(SalusError::CrashInjected("process crash at fence.intent"));
        }
        if let Err(e) = self.release(slot) {
            self.journal_abort(op, &e.to_string(), AbortKind::RolledBack);
            return Err(e);
        }
        self.audit_append(AuditEvent::SessionFenced { tenant, slot });
        if self.crash_tick("fence.pre-commit") {
            return Err(SalusError::CrashInjected(
                "process crash at fence.pre-commit",
            ));
        }
        self.journal_commit(op, None, Duration::ZERO);
        self.charge(&action, Settlement::DONE);
        let now = self.shared.clock.now();
        Ok(self.ledger.lock().health().state(slot.device, now))
    }

    /// Fleet-wide monitoring snapshot (occupancy, key cache, parked
    /// set, device health, tenant records) at one instant.
    pub fn snapshot(&self) -> FleetSnapshot {
        let now = self.shared.clock.now();
        let (free_slots, total_slots, occupancy, keyed_devices) = {
            let fleet = self.fleet.lock();
            (
                fleet.free_slots(),
                fleet.total_slots(),
                fleet.occupancy(),
                (0..fleet.device_count())
                    .filter(|&d| fleet.cached_key(d).is_some())
                    .collect(),
            )
        };
        let mut parked: Vec<(TenantId, SlotId)> = self
            .parked
            .lock()
            .iter()
            .map(|(t, p)| (*t, p.slot))
            .collect();
        parked.sort_by_key(|(t, _)| *t);
        let (health, tenants) = {
            let ledger = self.ledger.lock();
            (ledger.health().snapshot(now), ledger.tenants().to_vec())
        };
        FleetSnapshot {
            now,
            free_slots,
            total_slots,
            occupancy,
            keyed_devices,
            parked,
            health,
            tenants,
            audit_head: self.audit.lock().head(),
            journal_head: self.journal.lock().head(),
        }
    }

    /// Registers a tenant under `name` with a deterministic per-tenant
    /// seed derived from the platform seed.
    ///
    /// The registration is journaled (intent and commit written
    /// adjacently — it is not a multi-step mutation, so it exposes no
    /// crash point) so recovery can rebuild the tenant records with the
    /// exact same ids and seeds.
    pub fn register_tenant(&self, name: &str) -> TenantId {
        let mut ledger = self.ledger.lock();
        let tenant = ledger.next_tenant();
        let seed = self.config.seed.wrapping_add(7_919 * (tenant.0 + 1));
        let action = IntentOp::Register {
            tenant,
            name: name.to_owned(),
            seed,
        };
        let now = self.shared.clock.now();
        self.journal.lock().commit_adjacent(now, action.clone());
        let registered = ledger.apply(&action, Settlement::DONE, now);
        debug_assert!(registered.is_ok(), "the id came from this ledger");
        tenant
    }

    /// The bookkeeping record for `tenant`.
    pub fn tenant_record(&self, tenant: TenantId) -> Option<TenantRecord> {
        self.ledger.lock().tenant(tenant).cloned()
    }

    /// Whether `tenant` has a parked (evicted) deployment.
    pub fn has_parked(&self, tenant: TenantId) -> bool {
        self.parked.lock().contains_key(&tenant)
    }

    /// Deploys `accelerator` for `tenant` under `policy`: resilient
    /// boots, cross-board failover on transient failures, quarantine
    /// avoidance, and manufacturer-outage suspension. Cold on a board
    /// nobody has booted yet; warm-key once the board's `Key_device` is
    /// in the fleet cache. The boot itself runs outside the fleet lock,
    /// so deployments of different tenants proceed concurrently.
    ///
    /// # Errors
    ///
    /// [`DeployFailure::Rejected`] when nothing could be placed (unknown
    /// tenant, saturated fleet), [`DeployFailure::Failed`] when every
    /// tried board's boot failed, [`DeployFailure::Suspended`] on a
    /// manufacturer outage (slot retained; resume or abandon
    /// explicitly).
    pub fn deploy(
        &self,
        tenant: TenantId,
        accelerator: Module,
        policy: DeployPolicy,
    ) -> Result<TenantDeployment, DeployFailure> {
        let seed = match self.ledger.lock().tenant(tenant) {
            Some(record) => record.seed,
            None => {
                return Err(DeployFailure::Rejected(SalusError::Scheduler(
                    "unknown tenant",
                )))
            }
        };
        if let Some(plan) = &policy.fault {
            self.shared.fabric.install_fault_plane(plan.build());
        }
        let placements = policy.placements.max(1);
        let mut tried: Vec<DeviceId> = Vec::new();
        let mut attempts: Vec<DeployAttempt> = Vec::new();
        loop {
            let now = self.shared.clock.now();
            let mut avoid = self.ledger.lock().health().quarantined(now);
            avoid.extend(tried.iter().copied());
            let (lease, cached) = match self.place_and_lease(tenant, &policy.request, None, &avoid)
            {
                Ok(v) => v,
                Err(e) => {
                    if e == SalusError::Place(PlaceError::IncompatibleFamily) {
                        let action = IntentOp::Refuse { tenant };
                        let now = self.shared.clock.now();
                        self.journal.lock().commit_adjacent(now, action.clone());
                        self.charge(&action, Settlement::DONE);
                    }
                    // No admissible board left: surface the last boot
                    // error when boots ran, the scheduler error when
                    // nothing ever placed.
                    return Err(match attempts.last() {
                        Some(last) => DeployFailure::Failed {
                            error: last.error.clone(),
                            attempts,
                        },
                        None => DeployFailure::Rejected(e),
                    });
                }
            };
            let action = IntentOp::Deploy {
                tenant,
                slot: lease.slot,
            };
            let op = self.journal_begin(action.clone());
            if self.crash_tick("deploy.intent") {
                return Err(DeployFailure::Rejected(SalusError::CrashInjected(
                    "process crash at deploy.intent",
                )));
            }
            let device = lease.slot.device;
            let mut bed = match self.tenant_bed(tenant, seed, accelerator.clone(), &lease) {
                Ok(bed) => bed,
                Err(e) => {
                    // The host could not stand the bed up (no EPC room,
                    // or a CL that does not fit): nothing reached the
                    // board, so the intent rolls back uncharged and the
                    // slot is freed.
                    self.journal_abort(op, &e.to_string(), AbortKind::RolledBack);
                    let _ = self.release(lease.slot);
                    return Err(DeployFailure::Rejected(e));
                }
            };
            let warm = cached.is_some();
            if let Some(key) = cached {
                bed.sm_app.install_device_key(key);
            }
            let result = secure_boot(&mut bed, policy.plan);
            let placement = Placement {
                tenant,
                lease,
                bed: Box::new(bed),
                warm,
                attempts,
            };
            match self.settle_boot(op, &action, placement, result) {
                Err(DeployFailure::Failed {
                    error,
                    attempts: trail,
                }) if error.fault_class() == FaultClass::Transient
                    && (trail.len() as u32) < placements =>
                {
                    tried.push(device);
                    attempts = trail;
                }
                settled => return settled,
            }
        }
    }

    /// Continues a suspended deploy from its parked boot step, on the
    /// same still-leased slot, with a fresh retry budget. All completed
    /// phases and their virtual time carry over.
    ///
    /// # Errors
    ///
    /// [`DeployFailure::Suspended`] again if the manufacturer is still
    /// unreachable; [`DeployFailure::Failed`] (lease released) on a
    /// terminal boot error.
    pub fn resume_deploy(
        &self,
        suspended: DeploySuspension,
    ) -> Result<TenantDeployment, DeployFailure> {
        let action = IntentOp::Resume {
            tenant: suspended.placement.tenant,
            slot: suspended.placement.lease.slot,
        };
        let op = self.journal_begin(action.clone());
        if self.crash_tick("resume.intent") {
            // The suspension lives in the tenant process: park it for
            // the recovery report so the tenant can resume again on the
            // recovered plane.
            self.survivor_suspensions.lock().push(suspended);
            return Err(DeployFailure::Rejected(SalusError::CrashInjected(
                "process crash at resume.intent",
            )));
        }
        let DeploySuspension {
            mut placement,
            suspension,
        } = suspended;
        let result = suspension.resume(&mut placement.bed);
        self.settle_boot(op, &action, placement, result)
    }

    /// Gives up on a suspended deploy: releases the held lease, audits
    /// [`AuditEvent::DeployAbandoned`], records the failed attempt, and
    /// returns the suspension's last error (or
    /// [`SalusError::CrashInjected`] if the crash plane fires at one of
    /// the abandon's journal steps).
    pub fn abandon_deploy(&self, suspended: DeploySuspension) -> SalusError {
        let tenant = suspended.placement.tenant;
        let slot = suspended.placement.lease.slot;
        let action = IntentOp::Abandon { tenant, slot };
        let op = self.journal_begin(action.clone());
        if self.crash_tick("abandon.intent") {
            self.survivor_suspensions.lock().push(suspended);
            return SalusError::CrashInjected("process crash at abandon.intent");
        }
        let _ = self.release(slot);
        let error = suspended.suspension.into_last_error();
        self.audit_append(AuditEvent::DeployAbandoned { tenant, slot });
        if self.crash_tick("abandon.pre-commit") {
            // The suspension is consumed and the abandon audited:
            // recovery rolls this op *forward* (commit + charge).
            return SalusError::CrashInjected("process crash at abandon.pre-commit");
        }
        self.journal_commit(op, None, Duration::ZERO);
        self.charge(&action, Settlement::DONE);
        error
    }

    /// Places `tenant` on a slot satisfying `request` (the `affinity`
    /// slot when given), skipping the `avoid` boards, and leases it.
    /// Returns the lease and the board's cached `Key_device`. A
    /// family-incompatible refusal is a security boundary (the shell
    /// would fail the load closed), so it leaves an audit record.
    fn place_and_lease(
        &self,
        tenant: TenantId,
        request: &PlaceRequest,
        affinity: Option<SlotId>,
        avoid: &[DeviceId],
    ) -> Result<(DeviceLease, Option<crate::keys::KeyDevice>), SalusError> {
        let placed = {
            let mut fleet = self.fleet.lock();
            self.scheduler
                .place_constrained(&fleet, request, affinity, avoid)
                .and_then(|slot| {
                    let cached = fleet.cached_key(slot.device);
                    fleet.lease_at(slot, tenant).map(|lease| (lease, cached))
                })
        };
        if let Err(e) = &placed {
            if *e == SalusError::Place(PlaceError::IncompatibleFamily) {
                self.audit_append(AuditEvent::PlacementRefused {
                    tenant,
                    reason: e.to_string(),
                });
            }
        }
        placed
    }

    /// Wires `tenant`'s bed onto `lease`'s board and partition.
    ///
    /// # Errors
    ///
    /// [`TestBedBuilder::build`]'s: no EPC room, or a CL that does not
    /// fit the lease's partition.
    fn tenant_bed(
        &self,
        tenant: TenantId,
        seed: u64,
        accelerator: Module,
        lease: &DeviceLease,
    ) -> Result<TestBed, SalusError> {
        let config = TestBedConfig {
            // The lease's own geometry, not a fleet-wide one: in a
            // mixed fleet the bitstream must be compiled for the
            // family of the board it actually landed on.
            geometry: lease.geometry.clone(),
            cost: self.config.cost.clone(),
            latency: self.config.latency.clone(),
            seed: self.config.seed,
            accelerator,
            platform_svn: salus_tee::quote::CURRENT_SVN,
        };
        TestBedBuilder::new(config)
            .names(EndpointNames::tenant(tenant.0, &lease.endpoint))
            .on_platform(self.shared.clone())
            .with_device(lease.shell.clone(), lease.slot.partition)
            .tenant_seed(seed)
            .rpc_key_service(self.config.rpc_boot)
            .build()
    }

    /// Settles one placement's boot: a finished boot is committed, a
    /// suspended one parked with its lease held, a failed one aborted
    /// and charged (lease released, the attempt appended to the trail).
    /// A fresh deploy ticks its `deploy.pre-commit` and `deploy.abort`
    /// crash points here; a resume has none.
    fn settle_boot(
        &self,
        op: OpId,
        action: &IntentOp,
        placement: Placement,
        result: Result<BootOutcome, BootFailure>,
    ) -> Result<TenantDeployment, DeployFailure> {
        let fresh = matches!(action, IntentOp::Deploy { .. });
        match result {
            Ok(outcome) => {
                let Placement {
                    tenant,
                    lease,
                    bed,
                    warm,
                    attempts,
                } = placement;
                if !warm {
                    // First successful boot on this board: harvest the
                    // redeemed key so every later deployment here goes
                    // warm.
                    if let Some(key) = bed.sm_app.device_key() {
                        self.fleet.lock().cache_key(lease.slot.device, key);
                    }
                }
                if fresh && self.crash_tick("deploy.pre-commit") {
                    // The boot finished on the board (the partition is
                    // configured) but the result never reached the
                    // tenant: recovery rolls the intent back and fences
                    // the orphaned lane.
                    return Err(DeployFailure::Rejected(SalusError::CrashInjected(
                        "process crash at deploy.pre-commit",
                    )));
                }
                let deployment = TenantDeployment {
                    tenant,
                    slot: lease.slot,
                    window: lease.window,
                    bed: *bed,
                    outcome,
                    path: if warm {
                        DeployPath::WarmKey
                    } else {
                        DeployPath::Cold
                    },
                    attempts: attempts.len() as u32 + 1,
                };
                self.commit_deployment(op, action, &deployment);
                Ok(deployment)
            }
            Err(BootFailure::Suspended(suspension)) => {
                // The outage is the manufacturer's, not the board's: no
                // health penalty, and the lease stays held so resuming
                // keeps the placement. The op stays open in the journal
                // (suspended), so a recovery keeps the slot reserved too.
                let step = format!("{:?}", suspension.step());
                self.audit_append(AuditEvent::DeploySuspended {
                    tenant: placement.tenant,
                    slot: placement.lease.slot,
                    step: step.clone(),
                });
                self.journal_suspend(op, &step);
                Err(DeployFailure::Suspended(Box::new(DeploySuspension {
                    placement,
                    suspension,
                })))
            }
            Err(BootFailure::Fatal(fatal)) => {
                let Placement {
                    tenant,
                    lease,
                    mut attempts,
                    ..
                } = placement;
                self.abort_placement(op, tenant, lease.slot, &fatal.error);
                if fresh && self.crash_tick("deploy.abort") {
                    return Err(DeployFailure::Rejected(SalusError::CrashInjected(
                        "process crash at deploy.abort",
                    )));
                }
                self.charge(action, Settlement::Aborted(AbortKind::Failed));
                attempts.push(DeployAttempt {
                    slot: lease.slot,
                    step: fatal.step,
                    error: fatal.error.clone(),
                    retries_exhausted: fatal.retries_exhausted,
                });
                Err(DeployFailure::Failed {
                    error: fatal.error,
                    attempts,
                })
            }
        }
    }

    /// Commits a booted placement: charges the settlement, audits the
    /// deploy and commits `op` (the linearization point).
    fn commit_deployment(&self, op: OpId, action: &IntentOp, deployment: &TenantDeployment) {
        let (tenant, slot, path) = (deployment.tenant, deployment.slot, deployment.path);
        let elapsed = deployment.outcome.breakdown.total();
        let settlement = Settlement::Committed {
            path: Some(path),
            elapsed,
        };
        self.charge(action, settlement);
        self.audit_append(AuditEvent::Deploy { tenant, slot, path });
        self.journal_commit(op, Some(path), elapsed);
    }

    /// Aborts placement `op` after a failed boot: releases the lease,
    /// audits the failure and records the abort.
    fn abort_placement(&self, op: OpId, tenant: TenantId, slot: SlotId, error: &SalusError) {
        let _ = self.release(slot);
        self.audit_append(AuditEvent::DeployFailed {
            tenant,
            slot,
            error: error.to_string(),
        });
        self.journal_abort(op, &error.to_string(), AbortKind::Failed);
    }

    /// Releases the lease on `slot`.
    fn release(&self, slot: SlotId) -> Result<TenantId, SalusError> {
        self.fleet.lock().release(slot)
    }

    /// Evicts a deployment: parks the bed together with its
    /// pre-encrypted bitstream and frees the slot for other tenants.
    ///
    /// # Errors
    ///
    /// [`SalusError::Scheduler`] when the deployment never prepared a
    /// bitstream (nothing to park) or its slot is not leased.
    pub fn evict(&self, deployment: TenantDeployment) -> Result<TenantId, SalusError> {
        // Fail early, before anything is journaled: an unparkable
        // deployment never opens an intent.
        if deployment.bed.sm_app.prepared_bitstream().is_none() {
            return Err(SalusError::Scheduler("nothing to park"));
        }
        let tenant = deployment.tenant;
        let slot = deployment.slot;
        let action = IntentOp::Evict { tenant, slot };
        let op = self.journal_begin(action.clone());
        if self.crash_tick("evict.intent") {
            // Nothing happened yet; the deployment survives in the
            // tenant process and comes back through the recovery
            // report for re-eviction.
            self.survivors.lock().push(deployment);
            return Err(SalusError::CrashInjected("process crash at evict.intent"));
        }
        let TenantDeployment { bed, .. } = deployment;
        let family = self
            .fleet
            .lock()
            .family_of(slot.device)
            .ok_or(SalusError::Scheduler("unknown device"));
        let family = match family.and_then(|f| self.release(slot).map(|_| f)) {
            Ok(f) => f,
            Err(e) => {
                self.journal_abort(op, &e.to_string(), AbortKind::RolledBack);
                return Err(e);
            }
        };
        self.parked.lock().insert(
            tenant,
            ParkedDeployment {
                bed: Box::new(bed),
                slot,
                family,
            },
        );
        self.audit_append(AuditEvent::Evicted { tenant, slot });
        if self.crash_tick("evict.pre-commit") {
            // The parked ciphertext is durably in the store: recovery
            // rolls this op *forward* (commit + eviction charge).
            return Err(SalusError::CrashInjected(
                "process crash at evict.pre-commit",
            ));
        }
        self.journal_commit(op, None, Duration::ZERO);
        self.charge(&action, Settlement::DONE);
        Ok(tenant)
    }

    /// Warm-image redeploy of `tenant`'s parked deployment: reload the
    /// parked ciphertext on the same slot and re-run CL attestation —
    /// no manufacturer round trip, no manipulation, no re-encryption.
    /// The ciphertext is bound to that exact slot (device DNA in the
    /// GCM AAD, partition index in the digest), so the scheduler places
    /// with affinity; if the slot was taken meanwhile — or its board is
    /// quarantined — the deployment stays parked and the caller can
    /// fall back to a cold deploy. A *transient* reload failure (lossy
    /// PCIe path) also re-parks the ciphertext, so a later redeploy can
    /// still go warm-image; only fail-closed errors consume it.
    ///
    /// # Errors
    ///
    /// [`SalusError::Scheduler`] when nothing is parked or the affine
    /// slot is occupied/avoided (deployment re-parked); protocol errors
    /// if the reloaded CL fails attestation.
    pub fn redeploy(&self, tenant: TenantId) -> Result<TenantDeployment, SalusError> {
        // Peek, don't remove: the ciphertext stays in the durable
        // parked store until the boot is actually underway, so a crash
        // anywhere before then leaves the warm-image path intact.
        let (parked_slot, family) = {
            let parked = self.parked.lock();
            let p = parked
                .get(&tenant)
                .ok_or(SalusError::Scheduler("no parked deployment"))?;
            (p.slot, p.family)
        };
        let quarantined = self
            .ledger
            .lock()
            .health()
            .quarantined(self.shared.clock.now());
        // Affinity is family-checked: the parked ciphertext only ever
        // reloads onto the framing it was compiled for.
        let (lease, _) = self.place_and_lease(
            tenant,
            &PlaceRequest::for_family(family),
            Some(parked_slot),
            &quarantined,
        )?;
        let action = IntentOp::Redeploy {
            tenant,
            slot: lease.slot,
        };
        let op = self.journal_begin(action.clone());
        if self.crash_tick("redeploy.intent") {
            // The lease dies with the process; the ciphertext is still
            // parked, so recovery rolls the intent back and the driver
            // simply redeploys again.
            return Err(SalusError::CrashInjected(
                "process crash at redeploy.intent",
            ));
        }
        let Some(mut parked) = self.parked.lock().remove(&tenant) else {
            self.journal_abort(op, "parked deployment vanished", AbortKind::RolledBack);
            let _ = self.release(lease.slot);
            return Err(SalusError::Scheduler("no parked deployment"));
        };
        match reload_image(&mut parked.bed) {
            Ok(outcome) => {
                if self.crash_tick("redeploy.pre-commit") {
                    // The board is programmed but the commit never
                    // lands: re-park the ciphertext so the open intent
                    // rolls back cleanly and the warm path survives.
                    self.parked.lock().insert(tenant, parked);
                    return Err(SalusError::CrashInjected(
                        "process crash at redeploy.pre-commit",
                    ));
                }
                let deployment = TenantDeployment {
                    tenant,
                    slot: lease.slot,
                    window: lease.window,
                    bed: *parked.bed,
                    outcome,
                    path: DeployPath::WarmImage,
                    attempts: 1,
                };
                self.commit_deployment(op, &action, &deployment);
                Ok(deployment)
            }
            Err(failure) => {
                let error = SalusError::from(failure);
                self.abort_placement(op, tenant, lease.slot, &error);
                self.charge(&action, Settlement::Aborted(AbortKind::Failed));
                if error.is_transient() {
                    // The ciphertext never reached the board; keep it
                    // parked so the tenant retains the warm-image path.
                    self.parked.lock().insert(tenant, parked);
                }
                if self.crash_tick("redeploy.abort") {
                    return Err(SalusError::CrashInjected("process crash at redeploy.abort"));
                }
                Err(error)
            }
        }
    }

    /// Simulates a control-plane process death: consumes the plane and
    /// hands back only what durably survives one. The journal, audit
    /// chain, and parked-ciphertext store are persistent; the boards
    /// (and their loaded bitstreams) are physical; the shared platform
    /// outlives any one controller. The ledger, scheduler, in-memory
    /// occupancy, and crash plane die here — [`ControlPlane::recover`]
    /// must rebuild them from the remains.
    ///
    /// Tenant-held objects stashed by a crash tick (an evict's
    /// deployment, a resume's suspension) ride along so the recovery
    /// report can hand them back to their owners.
    pub fn crash(self) -> CrashRemains {
        CrashRemains {
            config: self.config,
            shared: self.shared,
            fleet: self.fleet.into_inner(),
            parked: self.parked.into_inner(),
            journal: self.journal.into_inner(),
            audit: self.audit.into_inner(),
            survivors: self.survivors.into_inner(),
            survivor_suspensions: self.survivor_suspensions.into_inner(),
        }
    }

    /// Rebuilds a control plane from what a crash left behind: verify
    /// both logs (a forged, reordered or truncated record fails recovery
    /// closed), settle the open intents, fold the settled journal through
    /// [`Ledger::apply`] — the rule the live plane charges by — and
    /// reconcile the occupancy derived beside it against the boards.
    ///
    /// # Errors
    ///
    /// [`SalusError::JournalCorrupt`] / [`SalusError::AuditChainBroken`]
    /// when a surviving log fails verification;
    /// [`SalusError::RecoveryFailed`] when replay contradicts itself or
    /// a board denies a slot the journal claims.
    #[allow(clippy::too_many_lines)]
    pub fn recover(remains: CrashRemains) -> Result<(ControlPlane, RecoveryReport), SalusError> {
        let CrashRemains {
            config,
            shared,
            mut fleet,
            parked,
            mut journal,
            mut audit,
            survivors,
            survivor_suspensions,
        } = remains;
        journal.verify()?;
        audit.verify()?;

        let now = shared.clock.now();
        let replayed = journal
            .records()
            .iter()
            .filter(|r| matches!(r.entry, JournalEntry::Commit { .. }))
            .count() as u64;

        // Pass 1: settle open, non-suspended intents. Rollback is the
        // default; roll forward only on durable evidence the effects
        // happened.
        let mut rolled_back: u64 = 0;
        let mut rolled_forward: u64 = 0;
        let mut rolled_back_deploys: Vec<(TenantId, SlotId)> = Vec::new();
        for open in journal.open_ops() {
            if open.suspended {
                continue;
            }
            let (forward, reason) = match open.action {
                // Single-step ops commit adjacently; an open one can
                // only mean a forged journal.
                IntentOp::Register { .. } | IntentOp::Refuse { .. } => {
                    (false, "crash before commit")
                }
                IntentOp::Deploy { tenant, slot } => {
                    rolled_back_deploys.push((tenant, slot));
                    (false, "crash during deploy")
                }
                // The ciphertext is either still parked (pre-boot crash)
                // or re-parked by the pre-commit tick: the warm-image
                // path survives, so plain rollback.
                IntentOp::Redeploy { .. } => (false, "crash during redeploy"),
                // The suspension survives in the tenant process and the
                // original deploy op still reserves the slot.
                IntentOp::Resume { .. } => (false, "crash during resume"),
                // Forward when the ciphertext reached the durable parked
                // store; otherwise the deployment survives in the tenant
                // process and the slot stays held for it.
                IntentOp::Evict { tenant, slot } => (
                    parked.get(&tenant).map(|p| p.slot) == Some(slot),
                    "crash during evict",
                ),
                // The driver that wanted the fence re-issues it against
                // the recovered plane.
                IntentOp::Fence { .. } => (false, "crash during fence"),
                // Back when the suspension is intact in the tenant
                // process (a crash at the intent point); forward when it
                // was consumed and the abandon audited.
                IntentOp::Abandon { tenant, slot } => (
                    !survivor_suspensions
                        .iter()
                        .any(|s| s.tenant() == tenant && s.slot() == slot),
                    "crash during abandon",
                ),
            };
            if forward {
                journal.commit(now, open.op, None, Duration::ZERO);
                rolled_forward += 1;
            } else {
                journal.abort(now, open.op, reason, AbortKind::RolledBack);
                rolled_back += 1;
            }
        }

        // Pass 2: fold the settled journal. Charges go through the
        // ledger; occupancy is last-writer-wins per slot.
        #[derive(Clone, Copy, PartialEq)]
        enum Held {
            Running,
            Suspended,
        }
        let mut ledger = config.fresh_ledger();
        let mut actions: HashMap<OpId, IntentOp> = HashMap::new();
        let mut occupancy: HashMap<SlotId, (TenantId, Held)> = HashMap::new();
        let mut cold_committed: HashSet<DeviceId> = HashSet::new();
        let mut committed_on_slot: HashSet<SlotId> = HashSet::new();
        for record in journal.records() {
            let op = record.entry.op();
            if let JournalEntry::Intent { action, .. } = &record.entry {
                if let IntentOp::Deploy { tenant, slot } | IntentOp::Redeploy { tenant, slot } =
                    action
                {
                    occupancy.insert(*slot, (*tenant, Held::Running));
                }
                actions.insert(op, action.clone());
                continue;
            }
            let action = actions
                .get(&op)
                .ok_or(SalusError::RecoveryFailed("record references unknown op"))?;
            let settlement = match &record.entry {
                JournalEntry::Commit { path, elapsed, .. } => Settlement::Committed {
                    path: *path,
                    elapsed: *elapsed,
                },
                JournalEntry::Abort { kind, .. } => Settlement::Aborted(*kind),
                _ => {
                    if let Some(slot) = action.slot() {
                        occupancy.insert(slot, (action.tenant(), Held::Suspended));
                    }
                    continue;
                }
            };
            match (action, settlement) {
                (
                    IntentOp::Deploy { tenant, slot }
                    | IntentOp::Resume { tenant, slot }
                    | IntentOp::Redeploy { tenant, slot },
                    Settlement::Committed { path, .. },
                ) => {
                    occupancy.insert(*slot, (*tenant, Held::Running));
                    committed_on_slot.insert(*slot);
                    if path == Some(DeployPath::Cold) {
                        cold_committed.insert(slot.device);
                    }
                }
                (
                    IntentOp::Evict { slot, .. }
                    | IntentOp::Fence { slot, .. }
                    | IntentOp::Abandon { slot, .. },
                    Settlement::Committed { .. },
                )
                | (
                    IntentOp::Deploy { slot, .. } | IntentOp::Redeploy { slot, .. },
                    Settlement::Aborted(_),
                )
                // A failed resume released the lease; a rolled-back one
                // left the suspension (and its slot reservation) in
                // place.
                | (IntentOp::Resume { slot, .. }, Settlement::Aborted(AbortKind::Failed)) => {
                    occupancy.remove(slot);
                }
                _ => {}
            }
            ledger.apply(action, settlement, record.at)?;
        }

        // Cached device keys are only trustworthy when a committed
        // cold-path deploy vouches for them; drop the rest so a
        // re-driven boot cannot silently diverge onto the warm path.
        for device in 0..fleet.device_count() {
            if !cold_committed.contains(&device) {
                fleet.drop_cached_key(device);
            }
        }

        // Pass 3: reconcile against the boards. Re-lease every slot the
        // settled journal holds; a running slot the board reports
        // unconfigured contradicts the durable record.
        fleet.reset_occupancy();
        let configured = |fleet: &DeviceFleet, slot: SlotId| {
            fleet
                .shell(slot.device)
                .is_some_and(|sh| sh.partition_configured(slot.partition))
        };
        let mut contradictions: Vec<SlotId> = Vec::new();
        let mut entries: Vec<(SlotId, TenantId, Held)> =
            occupancy.iter().map(|(s, (t, h))| (*s, *t, *h)).collect();
        entries.sort_by_key(|(s, _, _)| (s.device, s.partition));
        for (slot, tenant, held) in entries {
            if held == Held::Running && !configured(&fleet, slot) {
                contradictions.push(slot);
                audit.append(now, AuditEvent::SessionFenced { tenant, slot });
                let fence = IntentOp::Fence { tenant, slot };
                journal.commit_adjacent(now, fence.clone());
                ledger.apply(&fence, Settlement::DONE, now)?;
                occupancy.remove(&slot);
                continue;
            }
            fleet.lease_at(slot, tenant).map_err(|_| {
                SalusError::RecoveryFailed("journal claims a slot the board denies")
            })?;
        }

        // Orphaned lanes: a rolled-back deploy whose boot *did*
        // configure the partition, on a slot no commit ever held and
        // nothing else ended up holding. Fence the lane; no health
        // charge — a controller death is not the board's fault.
        let mut fenced_orphans: Vec<SlotId> = Vec::new();
        for (tenant, slot) in rolled_back_deploys {
            if configured(&fleet, slot)
                && !committed_on_slot.contains(&slot)
                && !occupancy.contains_key(&slot)
            {
                audit.append(now, AuditEvent::SessionFenced { tenant, slot });
                fenced_orphans.push(slot);
            }
        }

        audit.append(
            now,
            AuditEvent::RecoveryCompleted {
                replayed,
                rolled_back,
            },
        );

        let scheduler = Scheduler::new(config.policy);
        let plane = ControlPlane {
            shared,
            fleet: Mutex::new(fleet),
            scheduler,
            ledger: Mutex::new(ledger),
            parked: Mutex::new(parked),
            audit: Mutex::new(audit),
            journal: Mutex::new(journal),
            crash: Mutex::new(CrashPlane::inert()),
            survivors: Mutex::new(Vec::new()),
            survivor_suspensions: Mutex::new(Vec::new()),
            config,
        };
        let report = RecoveryReport {
            replayed_commits: replayed,
            rolled_back,
            rolled_forward,
            fenced_orphans,
            contradictions,
            survivors,
            survivor_suspensions,
        };
        Ok((plane, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::BootPhase;
    use crate::dev::loopback_accelerator;

    #[test]
    fn cold_then_warm_key_then_warm_image() {
        let plane = ControlPlane::provision(PlatformConfig::quick(1, 2)).unwrap();
        let alice = plane.register_tenant("alice");
        let bob = plane.register_tenant("bob");

        let a = plane
            .deploy(alice, loopback_accelerator(), DeployPolicy::single())
            .unwrap();
        assert_eq!(a.path, DeployPath::Cold);
        assert_eq!(a.attempts, 1);
        assert!(a.outcome.report.all_attested());

        // Bob lands on the same board: the fleet-cached key makes his
        // boot warm — zero time in any manufacturer-facing phase.
        let b = plane
            .deploy(bob, loopback_accelerator(), DeployPolicy::single())
            .unwrap();
        assert_eq!(b.path, DeployPath::WarmKey);
        assert!(b.outcome.report.all_attested());
        for phase in [
            BootPhase::SmQuoteGen,
            BootPhase::SmQuoteVerify,
            BootPhase::DeviceKeyTransfer,
        ] {
            assert!(
                !b.outcome
                    .breakdown
                    .phases()
                    .iter()
                    .any(|(p, _)| *p == phase),
                "warm-key boot ran manufacturer phase {phase:?}"
            );
        }

        // Evict Alice and bring her back warm-image: only ClLoad and
        // ClAuthentication run.
        let slot = a.slot;
        plane.evict(a).unwrap();
        assert!(plane.has_parked(alice));
        let a2 = plane.redeploy(alice).unwrap();
        assert_eq!(a2.path, DeployPath::WarmImage);
        assert_eq!(a2.slot, slot);
        assert!(a2.outcome.report.all_attested());
        let phases: Vec<BootPhase> = a2
            .outcome
            .breakdown
            .phases()
            .iter()
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(phases, vec![BootPhase::ClLoad, BootPhase::ClAuthentication]);

        let rec = plane.tenant_record(alice).unwrap();
        assert_eq!((rec.cold_deploys, rec.warm_image_deploys), (1, 1));
        assert_eq!(rec.evictions, 1);
        assert_eq!(rec.failed_deploys, 0);
    }

    #[test]
    fn redeploy_onto_a_stolen_slot_stays_parked() {
        let plane = ControlPlane::provision(PlatformConfig::quick(1, 1)).unwrap();
        let alice = plane.register_tenant("alice");
        let bob = plane.register_tenant("bob");

        let a = plane
            .deploy(alice, loopback_accelerator(), DeployPolicy::single())
            .unwrap();
        plane.evict(a).unwrap();
        let b = plane
            .deploy(bob, loopback_accelerator(), DeployPolicy::single())
            .unwrap();

        let err = plane.redeploy(alice).unwrap_err();
        assert_eq!(err, SalusError::Place(PlaceError::AffinityOccupied));
        assert!(plane.has_parked(alice), "deployment must stay parked");

        plane.evict(b).unwrap();
        let a2 = plane.redeploy(alice).unwrap();
        assert_eq!(a2.path, DeployPath::WarmImage);
    }

    #[test]
    fn mixed_fleet_places_by_family_and_audits_cross_family_refusals() {
        use salus_fpga::family::DeviceFamily;

        let config = PlatformConfig::quick(1, 1)
            .with_geometry(DeviceFamily::series7().tiny_board(1))
            .with_extra_boards(DeviceFamily::ultrascale().tiny_board(2), 1);
        let plane = ControlPlane::provision(config).unwrap();
        assert_eq!(plane.device_count(), 2);
        assert_eq!(plane.total_slots(), 3);
        assert_eq!(plane.device_family(0), Some(FamilyId::Series7));
        assert_eq!(plane.device_family(1), Some(FamilyId::UltraScale));

        let alice = plane.register_tenant("alice");
        // Pin alice to the ultrascale board; the boot compiles against
        // the lease's own geometry, so the deployment attests cleanly.
        let policy =
            DeployPolicy::single().with_request(PlaceRequest::for_family(FamilyId::UltraScale));
        let a = plane.deploy(alice, loopback_accelerator(), policy).unwrap();
        assert_eq!(a.slot.device, 1);
        assert!(a.outcome.report.all_attested());

        // A versal-framed request has nowhere to go: typed fail-closed
        // refusal plus an audit record, before any boot runs.
        let bob = plane.register_tenant("bob");
        let policy =
            DeployPolicy::single().with_request(PlaceRequest::for_family(FamilyId::Versal));
        let err = plane
            .deploy(bob, loopback_accelerator(), policy)
            .unwrap_err();
        match err {
            DeployFailure::Rejected(e) => {
                assert_eq!(e, SalusError::Place(PlaceError::IncompatibleFamily));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let log = plane.audit_log();
        log.verify().unwrap();
        assert!(
            log.records().iter().any(|r| matches!(
                &r.entry,
                AuditEvent::PlacementRefused { tenant, .. } if *tenant == bob
            )),
            "cross-family refusal must be audited"
        );
        assert_eq!(plane.tenant_record(bob).unwrap().failed_deploys, 1);
    }

    #[test]
    fn unknown_tenants_are_refused() {
        let plane = ControlPlane::provision(PlatformConfig::quick(1, 1)).unwrap();
        let err = plane
            .deploy(TenantId(99), loopback_accelerator(), DeployPolicy::single())
            .unwrap_err();
        assert_eq!(
            SalusError::from(err),
            SalusError::Scheduler("unknown tenant")
        );
    }

    #[test]
    fn control_plane_events_form_a_verifiable_audit_chain() {
        let plane = ControlPlane::provision(PlatformConfig::quick(1, 2)).unwrap();
        let alice = plane.register_tenant("alice");
        let a = plane
            .deploy(alice, loopback_accelerator(), DeployPolicy::single())
            .unwrap();
        let slot = a.slot;
        plane.evict(a).unwrap();
        plane.redeploy(alice).unwrap();

        let log = plane.audit_log();
        log.verify().unwrap();
        let events: Vec<AuditEvent> = log.records().iter().map(|r| r.entry.clone()).collect();
        assert_eq!(
            events,
            vec![
                AuditEvent::Deploy {
                    tenant: alice,
                    slot,
                    path: DeployPath::Cold
                },
                AuditEvent::Evicted {
                    tenant: alice,
                    slot
                },
                AuditEvent::Deploy {
                    tenant: alice,
                    slot,
                    path: DeployPath::WarmImage
                },
            ]
        );
        assert_eq!(plane.snapshot().audit_head, log.head());
        assert_eq!(plane.audit_head(), log.head());
    }

    #[test]
    fn fencing_releases_the_slot_audits_and_charges_health() {
        let plane = ControlPlane::provision(
            PlatformConfig::quick(2, 1)
                .with_health(HealthPolicy::default().with_quarantine_after(1)),
        )
        .unwrap();
        let alice = plane.register_tenant("alice");
        let a = plane
            .deploy(alice, loopback_accelerator(), DeployPolicy::single())
            .unwrap();
        let slot = a.slot;

        let state = plane.fence_deployment(alice, slot).unwrap();
        assert_eq!(state, HealthState::Quarantined);
        assert_eq!(plane.free_slots(), 2, "fenced lease must be released");

        let log = plane.audit_log();
        log.verify().unwrap();
        assert!(log.records().iter().any(|r| r.entry
            == AuditEvent::SessionFenced {
                tenant: alice,
                slot
            }));
        assert!(log.records().iter().any(|r| matches!(
            r.entry,
            AuditEvent::HealthTransition {
                state: HealthState::Quarantined,
                ..
            }
        )));

        // Fencing an already-released slot is an error, not a repeat.
        assert!(plane.fence_deployment(alice, slot).is_err());
    }

    #[test]
    fn rpc_boot_runs_key_distribution_over_the_fabric() {
        let plane =
            ControlPlane::provision(PlatformConfig::quick(1, 1).with_rpc_boot(true)).unwrap();
        let alice = plane.register_tenant("alice");
        let a = plane
            .deploy(alice, loopback_accelerator(), DeployPolicy::single())
            .unwrap();
        assert_eq!(a.path, DeployPath::Cold);
        assert!(a.outcome.report.all_attested());
        assert!(
            a.bed.rpc_key_client.is_some(),
            "fleet bed must carry the RPC key stub"
        );
    }

    #[test]
    fn snapshot_reflects_occupancy_keys_parked_and_tenants() {
        let plane = ControlPlane::provision(PlatformConfig::quick(2, 1)).unwrap();
        let alice = plane.register_tenant("alice");
        let bob = plane.register_tenant("bob");

        let a = plane
            .deploy(alice, loopback_accelerator(), DeployPolicy::single())
            .unwrap();
        let _b = plane
            .deploy(bob, loopback_accelerator(), DeployPolicy::single())
            .unwrap();
        let snap = plane.snapshot();
        assert_eq!(snap.total_slots, 2);
        assert_eq!(snap.free_slots, 0);
        assert_eq!(snap.occupancy.len(), 2);
        assert_eq!(snap.keyed_devices.len(), 2, "both boards keyed");
        assert!(snap.parked.is_empty());
        assert_eq!(snap.tenants.len(), 2);
        assert!(snap
            .health
            .iter()
            .all(|h| h.state == super::super::health::HealthState::Healthy));

        let slot = a.slot;
        plane.evict(a).unwrap();
        let snap = plane.snapshot();
        assert_eq!(snap.parked, vec![(alice, slot)]);
        assert_eq!(snap.free_slots, 1);
        let alice_rec = snap.tenants.iter().find(|t| t.id == alice).unwrap();
        assert_eq!(alice_rec.evictions, 1);
        assert!(alice_rec.cold_time >= Duration::ZERO);
    }
}
