//! High-level deployment sessions: the library's front door.
//!
//! A [`SecureSession`] bundles what a downstream user actually does with
//! Salus — securely deploy an accelerator workload, run encrypted jobs
//! on it, monitor it with runtime heartbeats, and redeploy — without
//! touching the protocol layers directly.
//!
//! ```
//! use salus::accel::apps::conv::Conv;
//! use salus::accel::workload::Workload;
//! use salus::session::SecureSession;
//!
//! let workload = Conv::paper_scale();
//! let mut session = SecureSession::deploy(&workload).expect("secure boot");
//! let output = session.run(&workload).expect("attested run");
//! assert_eq!(output, workload.compute(workload.input()));
//! assert!(session.is_alive().unwrap());
//! ```

use salus_accel::harness;
use salus_accel::workload::Workload;
use salus_core::boot::{secure_boot, BootBreakdown, BootOutcome, BootPlan, CascadeReport};
use salus_core::instance::TestBed;
use salus_core::platform::{DeployPath, DramWindow, SlotId, TenantId};
use salus_core::runtime_attest::{heartbeat, Heartbeat};
use salus_core::SalusError;

pub use salus_accel::harness::MemoryProtection;

/// Fleet placement of a session deployed through a
/// [`SalusNode`](crate::node::SalusNode): which tenant owns it, which
/// (device, partition) slot it holds, and which boot path it took.
/// Standalone sessions ([`SecureSession::deploy`]) have no tenancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tenancy {
    /// The owning tenant.
    pub tenant: TenantId,
    /// The leased (device, partition) slot.
    pub slot: SlotId,
    /// Cold, warm-key, or warm-image.
    pub path: DeployPath,
    /// The slot's private DRAM window; every DMA offset this session
    /// programs is relative to it.
    pub window: DramWindow,
}

/// A securely booted deployment ready to run jobs.
pub struct SecureSession {
    bed: TestBed,
    protection: MemoryProtection,
    last_breakdown: BootBreakdown,
    report: CascadeReport,
    tenancy: Option<Tenancy>,
}

impl std::fmt::Debug for SecureSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureSession")
            .field("attested", &self.report.all_attested())
            .field("protection", &self.protection)
            .finish_non_exhaustive()
    }
}

impl SecureSession {
    /// Provisions a deployment carrying `workload`'s accelerator and
    /// runs the full secure boot (confidentiality-only memory channel).
    ///
    /// # Errors
    ///
    /// Any detected attack or protocol failure during boot.
    pub fn deploy(workload: &dyn Workload) -> Result<SecureSession, SalusError> {
        Self::deploy_protected(workload, MemoryProtection::Confidentiality)
    }

    /// [`deploy`](SecureSession::deploy) with an explicit memory-
    /// protection mode.
    ///
    /// # Errors
    ///
    /// Any detected attack or protocol failure during boot.
    pub fn deploy_protected(
        workload: &dyn Workload,
        protection: MemoryProtection,
    ) -> Result<SecureSession, SalusError> {
        let bed = harness::boot_with_workload(workload, protection)?;
        let report = CascadeReport {
            user_attested: bed.client.platform_attested(),
            sm_attested: bed.user_app.platform_attested(),
            cl_attested: bed.sm_app.cl_attested(),
        };
        Ok(SecureSession {
            bed,
            protection,
            last_breakdown: BootBreakdown::default(),
            report,
            tenancy: None,
        })
    }

    /// Wraps a fleet deployment handed out by the control plane.
    pub(crate) fn from_fleet(
        bed: TestBed,
        protection: MemoryProtection,
        outcome: BootOutcome,
        tenancy: Tenancy,
    ) -> SecureSession {
        SecureSession {
            bed,
            protection,
            last_breakdown: outcome.breakdown,
            report: outcome.report,
            tenancy: Some(tenancy),
        }
    }

    /// Tears the session back down to its fleet parts (for eviction).
    pub(crate) fn into_fleet_parts(self) -> (TestBed, Option<Tenancy>) {
        (self.bed, self.tenancy)
    }

    /// The cascaded attestation result of the last boot.
    pub fn report(&self) -> CascadeReport {
        self.report
    }

    /// The session's fleet placement, if it was deployed through a
    /// [`SalusNode`](crate::node::SalusNode).
    pub fn tenancy(&self) -> Option<Tenancy> {
        self.tenancy
    }

    /// The DRAM window this session's DMA traffic is confined to
    /// (standalone sessions own the whole device DRAM).
    pub fn dram_window(&self) -> DramWindow {
        self.bed.dram_window
    }

    /// The per-phase timing of the last boot this session observed: the
    /// node deploy for fleet sessions, the last
    /// [`redeploy`](SecureSession::redeploy) otherwise (empty for a
    /// standalone initial deploy, whose harness uses a zero-cost model).
    pub fn last_breakdown(&self) -> &BootBreakdown {
        &self.last_breakdown
    }

    /// Access to the underlying test bed for advanced scenarios
    /// (attack injection, channel taps).
    pub fn bed_mut(&mut self) -> &mut TestBed {
        &mut self.bed
    }

    /// The memory-protection mode of this session's direct DMA channel.
    pub fn protection(&self) -> MemoryProtection {
        self.protection
    }

    /// The virtual clock this session's deployment runs on (shared
    /// fleet-wide for node sessions).
    pub(crate) fn clock(&self) -> salus_net::clock::SimClock {
        self.bed.clock.clone()
    }

    /// Runs `workload` end-to-end: encrypted DMA in, compute behind the
    /// SM logic, (verified) results back.
    ///
    /// # Blocking vs. queued execution
    ///
    /// This is the **blocking** serial path: the call owns the session
    /// exclusively and pushes exactly one transaction through
    /// DMA-in → compute → DMA-out, returning only once the output has
    /// been read back and (in integrity mode) verified. The shell sits
    /// idle between phases and concurrent callers serialise on
    /// `&mut self` — appropriate for tests and low-rate control work.
    ///
    /// High-rate serving should instead attach the session to a
    /// [`ServingPlane`](crate::serving::ServingPlane) and
    /// [`submit`](crate::serving::ServingPlane::submit) requests: the
    /// queued path multiplexes many logical clients onto this one
    /// attested session, coalesces compatible requests into batched
    /// DMA fills, and pipelines the three phases across queued
    /// requests and co-resident partitions. Both paths drive the same
    /// resumable stage functions, so a queued request's bytes are
    /// identical to what this method returns for the same payload.
    ///
    /// # Errors
    ///
    /// Channel violations, integrity failures, or state errors.
    pub fn run(&mut self, workload: &dyn Workload) -> Result<Vec<u8>, SalusError> {
        harness::run_on_salus(&mut self.bed, workload, self.protection)
    }

    /// Runs one runtime re-attestation heartbeat.
    ///
    /// # Errors
    ///
    /// State errors only; a failed attestation returns
    /// `Ok(Heartbeat::Compromised)`.
    pub fn heartbeat(&mut self) -> Result<Heartbeat, SalusError> {
        heartbeat(&mut self.bed)
    }

    /// Convenience: true when the last heartbeat proves the CL is still
    /// this session's.
    ///
    /// # Errors
    ///
    /// Same as [`heartbeat`](SecureSession::heartbeat).
    pub fn is_alive(&mut self) -> Result<bool, SalusError> {
        Ok(self.heartbeat()? == Heartbeat::Alive)
    }

    /// Re-runs the secure boot on the same instance (fresh secrets), by
    /// default reusing the cached device key (warm boot).
    ///
    /// # Errors
    ///
    /// Any detected attack or protocol failure during the re-boot.
    pub fn redeploy(&mut self, workload: &dyn Workload) -> Result<(), SalusError> {
        let outcome = secure_boot(
            &mut self.bed,
            BootPlan::single().with_reuse_cached_device_key(true),
        )?;
        self.report = outcome.report;
        self.last_breakdown = outcome.breakdown;
        // Re-attach the accelerator behind the freshly loaded SM logic.
        harness::install_accelerator(&mut self.bed, workload, self.protection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salus_accel::apps::affine::Affine;
    use salus_accel::apps::conv::Conv;
    use salus_fpga::shell::LoadAttack;

    #[test]
    fn deploy_run_heartbeat_cycle() {
        let workload = Conv::paper_scale();
        let mut session = SecureSession::deploy(&workload).unwrap();
        assert!(session.report().all_attested());
        let output = session.run(&workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
        assert!(session.is_alive().unwrap());
    }

    #[test]
    fn integrity_mode_detects_dram_tampering() {
        let workload = Affine::paper_scale();
        let mut session = SecureSession::deploy_protected(
            &workload,
            MemoryProtection::ConfidentialityAndIntegrity,
        )
        .unwrap();
        // Honest run works.
        let output = session.run(&workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
    }

    #[test]
    fn redeploy_refreshes_and_still_runs() {
        let workload = Conv::paper_scale();
        let mut session = SecureSession::deploy(&workload).unwrap();
        session.run(&workload).unwrap();
        session.redeploy(&workload).unwrap();
        assert!(session.report().all_attested());
        let output = session.run(&workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
        assert!(session.is_alive().unwrap());
    }

    #[test]
    fn heartbeat_catches_replacement_through_the_session_api() {
        let workload = Conv::paper_scale();
        let mut session = SecureSession::deploy(&workload).unwrap();
        let stale = session.bed_mut().shell.observed_bitstreams()[0].clone();
        session.redeploy(&workload).unwrap();
        assert!(session.is_alive().unwrap());

        let shell = session.bed_mut().shell.clone();
        shell.set_load_attack(LoadAttack::Replace(stale.clone()));
        shell.deploy_bitstream(&stale).unwrap();
        assert!(!session.is_alive().unwrap());
    }
}
