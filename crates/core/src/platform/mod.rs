//! The multi-tenant platform control plane (§5.2 deployment model).
//!
//! The per-tenant protocol stack (boot machine, sessions, attestation
//! cascade) is unchanged from the single-tenant repo; this module adds
//! the long-lived substrate underneath it:
//!
//! * [`SharedPlatform`] — the resources one cloud node keeps alive
//!   across tenants: virtual clock, RPC fabric, attestation service,
//!   host TEE platform, and the (shared) manufacturer key service.
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

use salus_net::clock::SimClock;
use salus_net::latency::LatencyModel;
use salus_net::rpc::RpcFabric;
use salus_tee::platform::SgxPlatform;
use salus_tee::quote::{AttestationService, QuotingEnclave};

use crate::dev::sm_enclave_image;
use crate::manufacturer::Manufacturer;

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
        }
    }
}
