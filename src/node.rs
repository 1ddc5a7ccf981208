//! A shared multi-tenant Salus node.
//!
//! A [`SalusNode`] wraps the core's platform control plane
//! ([`ControlPlane`]) with the workload layer: tenants register once,
//! then deploy accelerator [`Workload`]s and get back ordinary
//! [`SecureSession`]s, scheduled onto the node's device fleet. The
//! handle is cheaply cloneable and `Send + Sync`, so many tenants can
//! deploy concurrently from their own threads.
//!
//! ```
//! use salus::accel::apps::conv::Conv;
//! use salus::accel::workload::Workload;
//! use salus::node::SalusNode;
//!
//! let node = SalusNode::quick(2, 2).expect("node provisions");
//! let tenant = node.register_tenant("alice");
//! let workload = Conv::paper_scale();
//! let mut session = node.deploy(tenant, &workload).expect("deploy");
//! let output = session.run(&workload).expect("attested run");
//! assert_eq!(output, workload.compute(workload.input()));
//! ```

use std::sync::Arc;

use salus_accel::harness;
use salus_accel::integrity;
use salus_accel::workload::Workload;
use salus_core::boot::{BootBreakdown, BootOutcome, BootTrace, CascadeReport};
use salus_core::platform::{
    ControlPlane, DeployPolicy, FleetSnapshot, PlatformConfig, SlotId, TenantDeployment, TenantId,
    TenantRecord,
};
use salus_core::{PlaceError, SalusError};
use salus_fpga::family::FamilyId;
use salus_fpga::geometry::{DeviceGeometry, PartitionGeometry, Resources};

use crate::session::{MemoryProtection, SecureSession, Tenancy};

/// A board geometry whose every partition is large enough for any of
/// the paper's accelerator workloads, with few logic frames to keep
/// per-tenant boots fast (the fleet analogue of the single-instance
/// harness geometry). DRAM scales with the partition count so every
/// co-resident tenant's private window stays at the full 8 MiB the
/// single-instance harness provides.
pub fn node_geometry(partitions: usize) -> DeviceGeometry {
    let rp = PartitionGeometry {
        family: FamilyId::UltraScale,
        logic_frames: 64,
        capacity: Resources {
            lut: 355_040,
            register: 710_080,
            bram: 696,
        },
    };
    DeviceGeometry {
        static_region: rp,
        partitions: vec![rp; partitions],
        clock_hz: 250_000_000,
        dram_bytes: (8 << 20) * partitions.max(1),
    }
}

/// A shared, thread-safe handle onto one multi-tenant Salus node.
#[derive(Clone)]
pub struct SalusNode {
    plane: Arc<ControlPlane>,
}

impl std::fmt::Debug for SalusNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SalusNode")
            .field("devices", &self.plane.device_count())
            .field("total_slots", &self.plane.total_slots())
            .finish_non_exhaustive()
    }
}

impl SalusNode {
    /// Provisions a node from an explicit platform configuration. The
    /// configured geometry must leave each partition big enough for the
    /// workloads you intend to deploy — [`node_geometry`] always is.
    ///
    /// # Errors
    ///
    /// Shell compilation or provisioning failures.
    pub fn provision(config: PlatformConfig) -> Result<SalusNode, SalusError> {
        Ok(SalusNode {
            plane: Arc::new(ControlPlane::provision(config)?),
        })
    }

    /// A zero-cost node for fast functional tests: `devices` boards
    /// with `partitions` workload-capable slots each.
    ///
    /// # Errors
    ///
    /// Shell compilation or provisioning failures.
    pub fn quick(devices: usize, partitions: usize) -> Result<SalusNode, SalusError> {
        Self::provision(
            PlatformConfig::quick(devices, partitions).with_geometry(node_geometry(partitions)),
        )
    }

    /// A paper-calibrated node (virtual-time costs and latencies) with
    /// workload-capable slots.
    ///
    /// # Errors
    ///
    /// Shell compilation or provisioning failures.
    pub fn paper(devices: usize, partitions: usize) -> Result<SalusNode, SalusError> {
        Self::provision(
            PlatformConfig::paper(devices, partitions).with_geometry(node_geometry(partitions)),
        )
    }

    /// The underlying control plane, for occupancy inspection and
    /// protocol-level scenarios.
    pub fn plane(&self) -> &ControlPlane {
        &self.plane
    }

    /// A shared handle onto the control plane, for planes that outlive
    /// this node handle (the serving plane's audit sink).
    pub(crate) fn plane_handle(&self) -> Arc<ControlPlane> {
        Arc::clone(&self.plane)
    }

    /// Registers a tenant under `name`.
    pub fn register_tenant(&self, name: &str) -> TenantId {
        self.plane.register_tenant(name)
    }

    /// The bookkeeping record for `tenant`.
    pub fn tenant_record(&self, tenant: TenantId) -> Option<TenantRecord> {
        self.plane.tenant_record(tenant)
    }

    /// Currently free slots across the fleet.
    pub fn free_slots(&self) -> usize {
        self.plane.free_slots()
    }

    /// Occupancy snapshot: `(slot, tenant)` for every held slot.
    pub fn occupancy(&self) -> Vec<(SlotId, TenantId)> {
        self.plane.occupancy()
    }

    /// Fleet-wide monitoring snapshot: occupancy, key-cache state,
    /// parked deployments, per-board health, and tenant records.
    pub fn fleet_snapshot(&self) -> FleetSnapshot {
        self.plane.snapshot()
    }

    /// The head digest of the node's write-ahead intent journal.
    /// Anchoring it alongside the audit head pins the mutation history
    /// a recovery would replay.
    pub fn journal_head(&self) -> salus_crypto::sha256::Digest {
        self.plane.journal_head()
    }

    /// A clone of the node's full write-ahead journal, for verification
    /// and export.
    pub fn journal_log(&self) -> salus_core::platform::Journal {
        self.plane.journal_log()
    }

    /// Deploys `workload` for `tenant` onto a scheduler-chosen slot,
    /// runs the secure boot (cold or warm-key depending on the board's
    /// key-cache state), and returns a ready [`SecureSession`]. Check
    /// [`SecureSession::tenancy`] for the placement and boot path.
    ///
    /// # Errors
    ///
    /// [`SalusError::Scheduler`] for unknown tenants and saturated
    /// fleets; any detected attack or protocol failure during boot.
    pub fn deploy(
        &self,
        tenant: TenantId,
        workload: &dyn Workload,
    ) -> Result<SecureSession, SalusError> {
        self.deploy_protected(tenant, workload, MemoryProtection::Confidentiality)
    }

    /// [`deploy`](SalusNode::deploy) with an explicit memory-protection
    /// mode for the direct DMA channel.
    ///
    /// # Errors
    ///
    /// Same as [`deploy`](SalusNode::deploy).
    pub fn deploy_protected(
        &self,
        tenant: TenantId,
        workload: &dyn Workload,
        protection: MemoryProtection,
    ) -> Result<SecureSession, SalusError> {
        let deployment = self.plane.deploy(
            tenant,
            workload.accelerator_module(),
            DeployPolicy::single(),
        )?;
        Self::attach(deployment, workload, protection)
    }

    /// Evicts a fleet session: its slot frees up for other tenants and
    /// the pre-encrypted bitstream is parked for a warm-image
    /// [`redeploy`](SalusNode::redeploy).
    ///
    /// # Errors
    ///
    /// [`SalusError::Scheduler`] when the session was not deployed
    /// through this fleet API or has nothing to park.
    pub fn evict(&self, session: SecureSession) -> Result<TenantId, SalusError> {
        let (bed, tenancy) = session.into_fleet_parts();
        let tenancy = tenancy.ok_or(SalusError::Scheduler("session is not fleet-managed"))?;
        let report = CascadeReport {
            user_attested: bed.client.platform_attested(),
            sm_attested: bed.user_app.platform_attested(),
            cl_attested: bed.sm_app.cl_attested(),
        };
        self.plane.evict(TenantDeployment {
            tenant: tenancy.tenant,
            slot: tenancy.slot,
            window: tenancy.window,
            bed,
            outcome: BootOutcome {
                breakdown: BootBreakdown::default(),
                report,
                trace: BootTrace::default(),
            },
            path: tenancy.path,
            attempts: 1,
        })
    }

    /// Fences a fleet session that failed (or timed out) runtime
    /// re-attestation: the slot is released, the event lands in the
    /// audit chain, and the board is charged a health failure — walking
    /// it through the quarantine → cool-down → probation cycle exactly
    /// like a failed boot. Nothing is parked: a fenced CL's state is
    /// untrusted, so the tenant re-enters through a full deploy.
    ///
    /// # Errors
    ///
    /// [`SalusError::Scheduler`] when the session was not deployed
    /// through this fleet API or its slot is no longer leased.
    pub fn fence(&self, session: SecureSession) -> Result<TenantId, SalusError> {
        let (_bed, tenancy) = session.into_fleet_parts();
        let tenancy = tenancy.ok_or(SalusError::Scheduler("session is not fleet-managed"))?;
        self.plane.fence_deployment(tenancy.tenant, tenancy.slot)?;
        Ok(tenancy.tenant)
    }

    /// Brings an evicted tenant back. Prefers the warm-image fast path
    /// (reload the parked ciphertext on its bound slot, re-attest the
    /// CL — no manufacturer round trip); if that slot was taken
    /// meanwhile or its board is quarantined, falls back to a full
    /// scheduled deploy elsewhere (the ciphertext stays parked).
    ///
    /// # Errors
    ///
    /// [`SalusError::Scheduler`] when nothing is parked and no capacity
    /// remains; protocol failures during the re-boot.
    pub fn redeploy(
        &self,
        tenant: TenantId,
        workload: &dyn Workload,
    ) -> Result<SecureSession, SalusError> {
        self.redeploy_protected(tenant, workload, MemoryProtection::Confidentiality)
    }

    /// [`redeploy`](SalusNode::redeploy) with an explicit memory-
    /// protection mode for the direct DMA channel.
    ///
    /// # Errors
    ///
    /// Same as [`redeploy`](SalusNode::redeploy).
    pub fn redeploy_protected(
        &self,
        tenant: TenantId,
        workload: &dyn Workload,
        protection: MemoryProtection,
    ) -> Result<SecureSession, SalusError> {
        match self.plane.redeploy(tenant) {
            Ok(deployment) => Self::attach(deployment, workload, protection),
            Err(
                SalusError::Place(PlaceError::AffinityOccupied | PlaceError::AffinityAvoided)
                | SalusError::Scheduler("no parked deployment"),
            ) => self.deploy_protected(tenant, workload, protection),
            Err(e) => Err(e),
        }
    }

    /// Installs the workload's datapath behind the freshly attested SM
    /// logic — confined to the lease's DRAM window — and wraps the
    /// deployment as a session.
    fn attach(
        mut deployment: TenantDeployment,
        workload: &dyn Workload,
        protection: MemoryProtection,
    ) -> Result<SecureSession, SalusError> {
        let compute = harness::workload_compute_fn(workload);
        let device = deployment.bed.shell.device();
        let window = deployment.window;
        let ctl: Box<dyn salus_core::sm_logic::RegisterDevice> = match protection {
            MemoryProtection::Confidentiality => {
                Box::new(harness::AcceleratorCtl::windowed(device, window, compute))
            }
            MemoryProtection::ConfidentialityAndIntegrity => {
                Box::new(integrity::IntegrityCtl::windowed(device, window, compute))
            }
        };
        deployment
            .bed
            .sm_logic
            .as_mut()
            .ok_or(SalusError::SmLogicUnavailable("fleet boot did not bind"))?
            .set_accelerator(ctl);
        let tenancy = Tenancy {
            tenant: deployment.tenant,
            slot: deployment.slot,
            path: deployment.path,
            window: deployment.window,
        };
        Ok(SecureSession::from_fleet(
            deployment.bed,
            protection,
            deployment.outcome,
            tenancy,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salus_accel::apps::affine::Affine;
    use salus_accel::apps::conv::Conv;
    use salus_core::platform::DeployPath;

    #[test]
    fn node_deploys_and_runs_a_workload() {
        let node = SalusNode::quick(1, 1).unwrap();
        let tenant = node.register_tenant("alice");
        let workload = Conv::paper_scale();
        let mut session = node.deploy(tenant, &workload).unwrap();
        assert!(session.report().all_attested());
        assert_eq!(session.tenancy().unwrap().path, DeployPath::Cold);
        let output = session.run(&workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
        assert!(session.is_alive().unwrap());
    }

    #[test]
    fn evict_and_warm_redeploy_through_the_node() {
        let node = SalusNode::quick(1, 2).unwrap();
        let alice = node.register_tenant("alice");
        let workload = Affine::paper_scale();
        let session = node.deploy(alice, &workload).unwrap();
        let slot = session.tenancy().unwrap().slot;

        node.evict(session).unwrap();
        assert_eq!(node.free_slots(), 2);

        let mut session = node.redeploy(alice, &workload).unwrap();
        let tenancy = session.tenancy().unwrap();
        assert_eq!(tenancy.path, DeployPath::WarmImage);
        assert_eq!(tenancy.slot, slot);
        let output = session.run(&workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
    }

    #[test]
    fn quarantined_affinity_board_falls_back_to_a_fresh_deploy() {
        use salus_core::dev::loopback_accelerator;
        use salus_core::platform::{HealthPolicy, HealthState};
        use salus_net::fault::{FaultPlan, FaultSpec};
        use std::time::Duration;

        let node = SalusNode::provision(
            PlatformConfig::quick(2, 1)
                .with_geometry(node_geometry(1))
                .with_health(HealthPolicy::default().with_quarantine_after(2)),
        )
        .unwrap();
        let alice = node.register_tenant("alice");
        let workload = Affine::paper_scale();
        let session = node.deploy(alice, &workload).unwrap();
        let device = session.tenancy().unwrap().slot.device;
        node.evict(session).unwrap();

        // Quarantine alice's bound board: two single-placement deploys
        // fail on it (the least-loaded tie-break picks it while both
        // boards are free).
        node.plane().install_fault_plan(&FaultPlan::new(
            5,
            FaultSpec::default().with_outage(
                format!("fleet.dev{device}.fpga"),
                Duration::ZERO,
                Duration::from_secs(3_600),
            ),
        ));
        for name in ["carol", "dave"] {
            let t = node.register_tenant(name);
            node.plane()
                .deploy(t, loopback_accelerator(), DeployPolicy::single())
                .expect_err("dark board fails the deploy");
        }
        assert_eq!(
            node.fleet_snapshot().health[device].state,
            HealthState::Quarantined
        );

        // The warm-image path is refused on the quarantined board; the
        // node falls back to a fresh deploy elsewhere and the parked
        // ciphertext stays parked.
        let mut session = node.redeploy(alice, &workload).unwrap();
        let tenancy = session.tenancy().unwrap();
        assert_ne!(tenancy.slot.device, device);
        assert_eq!(tenancy.path, DeployPath::Cold);
        assert!(node.plane().has_parked(alice));
        let output = session.run(&workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
        node.plane().clear_fault_plan();
    }

    #[test]
    fn standalone_sessions_cannot_be_evicted() {
        let node = SalusNode::quick(1, 1).unwrap();
        let workload = Conv::paper_scale();
        let session = SecureSession::deploy(&workload).unwrap();
        assert!(session.tenancy().is_none());
        assert_eq!(
            node.evict(session).unwrap_err(),
            SalusError::Scheduler("session is not fleet-managed")
        );
    }
}
