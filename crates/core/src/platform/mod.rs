//! The multi-tenant platform control plane (§5.2 deployment model).
//!
//! The per-tenant protocol stack (boot machine, sessions, attestation
//! cascade) is unchanged from the single-tenant repo; this module adds
//! the long-lived substrate underneath it:
//!
//! * [`SharedPlatform`] — the resources one cloud node keeps alive
//!   across tenants: virtual clock, RPC fabric, attestation service,
//!   host TEE platform, the (shared) manufacturer key service, and the
//!   [`ClStore`] of compiled CL packages.
//! * [`traits`] — [`KeyService`], the key-distribution seam the boot
//!   machine talks through, served in-process, by a shared
//!   manufacturer, or over RPC.
//! * [`fleet`] — [`DeviceFleet`] (M boards, per-board fused keys, one
//!   shell image) and the tenant identity types.
//! * [`scheduler`] — deterministic placement of deployments onto free
//!   (device, partition) slots, with board-exclusion (`avoid`) support
//!   for quarantined and already-failed boards.
//! * [`health`] — [`DeviceHealth`]: consecutive-failure tracking in
//!   virtual time with seeded quarantine/probation cool-downs.
//! * [`chain`] — [`HashChain`]: the append-only SHA-256 hash chain
//!   under both control-plane logs, generic over the [`ChainEntry`] a
//!   log records.
//! * [`audit`] — [`AuditLog`]: the append-only hash chain every
//!   control-plane event lands in, anchored by the chain head exported
//!   in [`FleetSnapshot`].
//! * [`journal`] — [`Journal`]: the write-ahead intent log every
//!   multi-step mutation writes before acting, the durable truth
//!   [`ControlPlane::recover`] replays after a control-plane crash.
//! * [`ledger`] — [`Ledger`]: tenant records plus board health, and
//!   [`Ledger::apply`], the one rule for what a settled journal record
//!   charges. The live plane and recovery both charge through it.
//! * [`control`] — [`ControlPlane`]: registration, scheduled deploys,
//!   eviction, warm redeploys that skip the manufacturer round trip by
//!   reusing cached device keys and parked pre-encrypted bitstreams,
//!   and fault-tolerant [`deploy`](ControlPlane::deploy)
//!   (cross-board retry, outage suspension, fleet snapshots).

pub mod audit;
pub mod chain;
pub mod control;
pub mod fleet;
pub mod health;
pub mod journal;
pub mod ledger;
pub mod scheduler;
pub mod traits;

pub use audit::{AuditEvent, AuditLog, AuditRecord};
pub use chain::{ChainEntry, ChainFault, ChainRecord, HashChain};
pub use control::{
    ControlPlane, CrashRemains, DeployAttempt, DeployFailure, DeployPolicy, DeploySuspension,
    FleetSnapshot, PlatformConfig, RecoveryReport, TenantDeployment,
};
pub use fleet::{
    DeployPath, DeviceFleet, DeviceId, DeviceLease, DramWindow, SlotId, TenantId, TenantRecord,
};
pub use health::{DeviceHealth, DeviceHealthRecord, HealthPolicy, HealthState};
pub use journal::{AbortKind, IntentOp, Journal, JournalEntry, JournalRecord, OpId, OpenOp};
pub use ledger::{Ledger, Settlement};
pub use scheduler::{PlacePolicy, PlaceRequest, Scheduler};
pub use traits::{distribute_device_key, KeyService, SharedManufacturer};

use std::sync::Arc;

use parking_lot::Mutex;
use salus_bitstream::netlist::Module;
use salus_fpga::geometry::PartitionGeometry;
use salus_net::clock::SimClock;
use salus_net::latency::LatencyModel;
use salus_net::rpc::RpcFabric;
use salus_tee::platform::SgxPlatform;
use salus_tee::quote::{AttestationService, QuotingEnclave};

use crate::dev::{develop_cl, sm_enclave_image, ClPackage};
use crate::manufacturer::Manufacturer;
use crate::SalusError;

/// The long-lived resources one cloud node shares across every tenant
/// deployment: cheap to clone (all handles), provisioned once.
#[derive(Clone)]
pub struct SharedPlatform {
    /// Shared virtual clock.
    pub clock: SimClock,
    /// Message fabric all parties answer on.
    pub fabric: RpcFabric,
    /// The (trusted) attestation service.
    pub attestation: AttestationService,
    /// The host's TEE platform, hosting every tenant's enclaves.
    pub sgx: SgxPlatform,
    /// The provisioned quoting enclave.
    pub qe: QuotingEnclave,
    /// The manufacturer (factory + key server).
    pub manufacturer: SharedManufacturer,
    /// The node's CL store: every CL developed once, served to every
    /// deploy of it.
    pub cl_store: ClStore,
}

impl std::fmt::Debug for SharedPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPlatform")
            .field("devices", &self.manufacturer.device_count())
            .finish_non_exhaustive()
    }
}

impl SharedPlatform {
    /// Provisions the shared substrate: attestation service, host TEE
    /// platform at `platform_svn`, provisioned QE, and the manufacturer
    /// trusting the released SM enclave binary. This is the single
    /// provisioning path — the legacy standalone `TestBed` runs it too,
    /// just privately.
    pub fn provision(seed: u64, platform_svn: u16, latency: LatencyModel) -> SharedPlatform {
        let clock = SimClock::new();
        let fabric = RpcFabric::new(clock.clone(), latency);
        let mut attestation = AttestationService::new(b"salus-provisioning-secret");
        let sgx = SgxPlatform::with_svn(&seed.to_le_bytes(), seed, platform_svn);
        attestation.register_platform(seed);
        let mut qe = QuotingEnclave::load(&sgx).expect("QE loads");
        qe.provision(attestation.provisioning_secret());
        let manufacturer = SharedManufacturer::new(Manufacturer::new(
            &seed.to_le_bytes(),
            attestation.clone(),
            sm_enclave_image().measure(),
        ));
        SharedPlatform {
            clock,
            fabric,
            attestation,
            sgx,
            qe,
            manufacturer,
            cl_store: ClStore::default(),
        }
    }
}

/// One stored package and what it was developed for: the accelerator
/// it integrates, the partition geometry it is compiled for, and the
/// partition index its frame address and digest name.
struct StoredCl {
    accelerator: Module,
    geometry: PartitionGeometry,
    partition: usize,
    package: Arc<ClPackage>,
}

/// The untrusted host storage a node serves compiled CLs from (paper
/// Table 1: development and deployment are independent). Each distinct
/// (accelerator, geometry, partition) is developed once and shared by
/// `Arc` with every bed deploying it; the SM enclave still hashes what
/// it fetches on every deploy, so sharing never stands in for the
/// digest check. A node sees a handful of keys, and [`Module`] is not
/// `Hash`, so the store is a short list scanned by equality.
#[derive(Clone, Default)]
pub struct ClStore {
    packages: Arc<Mutex<Vec<StoredCl>>>,
}

impl std::fmt::Debug for ClStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClStore")
            .field("packages", &self.len())
            .finish()
    }
}

impl ClStore {
    /// The package of `accelerator` for `geometry` at `partition`,
    /// developed on first request and shared after that.
    ///
    /// # Errors
    ///
    /// Propagates [`develop_cl`] failures (the accelerator does not fit
    /// the partition); nothing is stored for them.
    pub fn package(
        &self,
        accelerator: &Module,
        geometry: PartitionGeometry,
        partition: usize,
    ) -> Result<Arc<ClPackage>, SalusError> {
        let mut packages = self.packages.lock();
        let stored = packages.iter().find(|s| {
            s.partition == partition && s.geometry == geometry && &s.accelerator == accelerator
        });
        if let Some(stored) = stored {
            return Ok(Arc::clone(&stored.package));
        }
        let package = Arc::new(develop_cl(accelerator.clone(), geometry, partition)?);
        packages.push(StoredCl {
            accelerator: accelerator.clone(),
            geometry,
            partition,
            package: Arc::clone(&package),
        });
        Ok(package)
    }

    /// Distinct packages stored.
    pub fn len(&self) -> usize {
        self.packages.lock().len()
    }

    /// Whether nothing has been developed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
