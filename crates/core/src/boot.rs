//! The secure CL booting flow (Figure 3) and its timing breakdown
//! (Figure 9).
//!
//! The flow is implemented as a phase-granular state machine
//! (`BootMachine`, driven through [`secure_boot`]): client
//! RA request → user enclave quote → metadata transfer → local
//! attestation → device-key distribution (with SM-enclave RA) →
//! bitstream verify / manipulate / encrypt → shell deployment → CL
//! attestation → deferred cascaded RA report → data-key release. Every
//! message crosses the fabric's adversary-interposable (and
//! fault-injectable) channels, and every modelled operation charges the
//! shared virtual clock, so the returned [`BootBreakdown`] is the exact
//! data behind the paper's Figure 9.
//!
//! ## Fault handling
//!
//! Each step of the machine is idempotent-by-construction (retries
//! re-derive fresh nonces and re-seal fresh ciphertexts; the
//! manufacturer round carries an idempotency token) and runs under a
//! [`RetryPolicy`]: transient transport faults
//! ([`FaultClass::Transient`](crate::FaultClass)) are retried with
//! exponential backoff and deterministic jitter, all charged to virtual
//! time. Integrity and attestation failures are **never** retried — the
//! boot fails closed on the first one. When the manufacturer key
//! service stays unreachable past the retry budget, the boot parks in a
//! resumable [`BootSuspension`] instead of failing.
//!
//! [`BootPlan::single`] runs every step once with no deadline; a
//! fault-free run under it and under [`BootPlan::resilient`] charges the
//! same virtual time. A warm-image reload (the control plane's parked
//! redeploy) runs only the machine's `ClLoad → ClAuthentication`
//! suffix, starting from the parked ciphertext.

use std::sync::Arc;
use std::time::Duration;

use salus_crypto::drbg::HmacDrbg;

use crate::cl_attest::{AttestRequest, AttestResponse};
use crate::instance::TestBed;
use crate::ra::RaEnvelope;
use crate::sm_logic::SmLogic;
use crate::timing::Op;
use crate::SalusError;

/// The phases of the boot flow, at the granularity of Figure 9's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootPhase {
    /// Initial user-enclave quote generation.
    UserQuoteGen,
    /// Initial user-enclave quote verification at the client (WAN DCAP).
    UserQuoteVerify,
    /// Encrypted metadata transfer (client → user enclave).
    MetadataTransfer,
    /// Local attestation between user and SM enclaves.
    LocalAttestation,
    /// SM-enclave quote generation for the key request.
    SmQuoteGen,
    /// SM-enclave quote verification at the manufacturer (intra-cloud).
    SmQuoteVerify,
    /// Encrypted device-key transfer.
    DeviceKeyTransfer,
    /// Bitstream digest verification inside the SM enclave.
    BitstreamVerify,
    /// Bitstream manipulation (RoT injection) inside the SM enclave.
    BitstreamManipulation,
    /// Bitstream encryption inside the SM enclave.
    BitstreamEncrypt,
    /// PCIe transfer + ICAP programming of the encrypted CL.
    ClLoad,
    /// The CL attestation round trip.
    ClAuthentication,
    /// Deferred final quote generation.
    FinalQuoteGen,
    /// Final quote verification at the client (WAN DCAP).
    FinalQuoteVerify,
    /// Encrypted data-key transfer.
    DataKeyTransfer,
}

/// Per-phase virtual-time breakdown of one boot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BootBreakdown {
    phases: Vec<(BootPhase, Duration)>,
}

impl BootBreakdown {
    /// All phases in execution order.
    pub fn phases(&self) -> &[(BootPhase, Duration)] {
        &self.phases
    }

    /// Total duration of one phase (summed if it appears twice).
    pub fn phase(&self, phase: BootPhase) -> Duration {
        self.phases
            .iter()
            .filter(|(p, _)| *p == phase)
            .map(|(_, d)| *d)
            .sum()
    }

    /// Total boot time.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }

    pub(crate) fn push(&mut self, phase: BootPhase, d: Duration) {
        self.phases.push((phase, d));
    }
}

/// The cascaded attestation result as visible to the data owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeReport {
    /// User enclave remotely attested by the client.
    pub user_attested: bool,
    /// SM enclave locally attested by the user enclave.
    pub sm_attested: bool,
    /// CL attested by the SM enclave.
    pub cl_attested: bool,
}

impl CascadeReport {
    /// True when every heterogeneous component is attested — the
    /// condition for uploading sensitive data.
    pub fn all_attested(&self) -> bool {
        self.user_attested && self.sm_attested && self.cl_attested
    }
}

/// Outcome of a successful secure boot.
#[derive(Debug)]
pub struct BootOutcome {
    /// Per-phase timing (Figure 9's data).
    pub breakdown: BootBreakdown,
    /// The cascaded attestation result.
    pub report: CascadeReport,
    /// Per-step retry/backoff accounting.
    pub trace: BootTrace,
}

// ───────────────────────── retry orchestration ─────────────────────────

/// One step of the boot state machine — finer-grained than
/// [`BootPhase`] because retry decisions need the untimed glue steps
/// (challenge exchanges, result relays) as restart points too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootStep {
    /// Client issues the initial RA challenge (untimed in Figure 9).
    InitialRa,
    /// User-enclave quote generation.
    UserQuoteGen,
    /// Client-side verification of the initial quote.
    UserQuoteVerify,
    /// Encrypted metadata transfer to the user enclave.
    MetadataTransfer,
    /// Local attestation handshake + metadata forward to the SM enclave.
    LocalAttestation,
    /// CSP advertises the rented board's DNA (untimed).
    TargetDevice,
    /// Manufacturer key-request challenge exchange (untimed).
    MfrChallenge,
    /// SM-enclave quote generation for the key request.
    SmQuoteGen,
    /// Manufacturer-side quote verification and key redemption.
    SmQuoteVerify,
    /// Encrypted device-key transfer to the SM enclave.
    DeviceKeyTransfer,
    /// Bitstream digest verification.
    BitstreamVerify,
    /// Bitstream manipulation (RoT injection).
    BitstreamManipulation,
    /// Bitstream encryption for the target device.
    BitstreamEncrypt,
    /// PCIe transfer + ICAP programming.
    ClLoad,
    /// The CL attestation round trip.
    ClAuthentication,
    /// SM enclave relays the CL result to the user enclave (untimed).
    ClResultRelay,
    /// Deferred final quote generation.
    FinalQuoteGen,
    /// Client-side verification of the cascaded final quote.
    FinalQuoteVerify,
    /// Encrypted data-key transfer.
    DataKeyTransfer,
}

/// Execution order of the machine.
const STEP_SEQUENCE: [BootStep; 19] = [
    BootStep::InitialRa,
    BootStep::UserQuoteGen,
    BootStep::UserQuoteVerify,
    BootStep::MetadataTransfer,
    BootStep::LocalAttestation,
    BootStep::TargetDevice,
    BootStep::MfrChallenge,
    BootStep::SmQuoteGen,
    BootStep::SmQuoteVerify,
    BootStep::DeviceKeyTransfer,
    BootStep::BitstreamVerify,
    BootStep::BitstreamManipulation,
    BootStep::BitstreamEncrypt,
    BootStep::ClLoad,
    BootStep::ClAuthentication,
    BootStep::ClResultRelay,
    BootStep::FinalQuoteGen,
    BootStep::FinalQuoteVerify,
    BootStep::DataKeyTransfer,
];

impl BootStep {
    /// The Figure 9 phase this step's time is accounted under, if any.
    pub fn phase(self) -> Option<BootPhase> {
        match self {
            BootStep::UserQuoteGen => Some(BootPhase::UserQuoteGen),
            BootStep::UserQuoteVerify => Some(BootPhase::UserQuoteVerify),
            BootStep::MetadataTransfer => Some(BootPhase::MetadataTransfer),
            BootStep::LocalAttestation => Some(BootPhase::LocalAttestation),
            BootStep::SmQuoteGen => Some(BootPhase::SmQuoteGen),
            BootStep::SmQuoteVerify => Some(BootPhase::SmQuoteVerify),
            BootStep::DeviceKeyTransfer => Some(BootPhase::DeviceKeyTransfer),
            BootStep::BitstreamVerify => Some(BootPhase::BitstreamVerify),
            BootStep::BitstreamManipulation => Some(BootPhase::BitstreamManipulation),
            BootStep::BitstreamEncrypt => Some(BootPhase::BitstreamEncrypt),
            BootStep::ClLoad => Some(BootPhase::ClLoad),
            BootStep::ClAuthentication => Some(BootPhase::ClAuthentication),
            BootStep::FinalQuoteGen => Some(BootPhase::FinalQuoteGen),
            BootStep::FinalQuoteVerify => Some(BootPhase::FinalQuoteVerify),
            BootStep::DataKeyTransfer => Some(BootPhase::DataKeyTransfer),
            BootStep::InitialRa
            | BootStep::TargetDevice
            | BootStep::MfrChallenge
            | BootStep::ClResultRelay => None,
        }
    }

    /// Steps that talk to the manufacturer key service: retry
    /// exhaustion here degrades to [`BootSuspension`] instead of
    /// failing, because the outage is external to the deployment.
    pub fn manufacturer_facing(self) -> bool {
        matches!(
            self,
            BootStep::MfrChallenge | BootStep::SmQuoteVerify | BootStep::DeviceKeyTransfer
        )
    }

    /// Steps skipped entirely on a warm boot with a cached device key.
    fn skipped_when_warm(self) -> bool {
        matches!(
            self,
            BootStep::MfrChallenge
                | BootStep::SmQuoteGen
                | BootStep::SmQuoteVerify
                | BootStep::DeviceKeyTransfer
        )
    }
}

fn step_index(step: BootStep) -> usize {
    STEP_SEQUENCE
        .iter()
        .position(|s| *s == step)
        .expect("step is in the sequence")
}

/// Bounded-retry policy for transient faults, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts a step may consume without completing (≥ 1). The count
    /// resets whenever the machine makes forward progress, so a flaky
    /// link is budgeted per step, not per boot.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Multiplier applied per further retry (exponential backoff).
    pub backoff_factor: u32,
    /// Upper bound on a single backoff (before jitter).
    pub max_backoff: Duration,
    /// Jitter window as a per-mille fraction of the backoff; the actual
    /// jitter is drawn deterministically from the plan's DRBG.
    pub jitter_per_mille: u32,
    /// Per-transmit deadline. Losses then cost the full deadline in
    /// virtual time and surface as
    /// [`NetError::TimedOut`](salus_net::NetError::TimedOut); without
    /// one they surface immediately as
    /// [`NetError::Dropped`](salus_net::NetError::Dropped). A met
    /// deadline charges nothing extra, keeping fault-free timings
    /// identical.
    pub deadline: Option<Duration>,
}

impl RetryPolicy {
    /// No retries, no deadlines: every step runs exactly once.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            backoff_factor: 1,
            max_backoff: Duration::ZERO,
            jitter_per_mille: 0,
            deadline: None,
        }
    }

    /// The default production-shaped policy: five attempts per step,
    /// 50 ms → 2 s exponential backoff with 50 % jitter, 5 s transmit
    /// deadlines.
    pub fn resilient() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(50),
            backoff_factor: 2,
            max_backoff: Duration::from_secs(2),
            jitter_per_mille: 500,
            deadline: Some(Duration::from_secs(5)),
        }
    }
}

/// Everything controlling one orchestrated boot.
#[derive(Debug, Clone, Copy)]
pub struct BootPlan {
    /// Reuse a device key the SM enclave already holds (e.g. sealed
    /// from a previous deployment on the same board), skipping the
    /// manufacturer round trip — the warm-boot ablation.
    pub reuse_cached_device_key: bool,
    /// The per-step retry policy.
    pub retry: RetryPolicy,
    /// Whether manufacturer-facing retry exhaustion suspends the boot
    /// (graceful degradation) instead of failing it.
    pub suspend_on_outage: bool,
    /// Seed of the DRBG behind backoff jitter and the manufacturer
    /// idempotency token. Same plan + same seed ⇒ identical retry
    /// timeline.
    pub jitter_seed: u64,
}

impl BootPlan {
    /// Single attempt per step, no deadline, no suspension: the first
    /// error ends the boot.
    pub fn single() -> BootPlan {
        BootPlan {
            reuse_cached_device_key: false,
            retry: RetryPolicy::none(),
            suspend_on_outage: false,
            jitter_seed: 0,
        }
    }

    /// The default fault-tolerant plan.
    pub fn resilient() -> BootPlan {
        BootPlan {
            reuse_cached_device_key: false,
            retry: RetryPolicy::resilient(),
            suspend_on_outage: true,
            jitter_seed: 0xB007_5EED,
        }
    }

    /// Replaces the retry policy (builder-style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> BootPlan {
        self.retry = retry;
        self
    }

    /// Sets whether a device key the SM enclave already holds is reused
    /// (builder-style).
    pub fn with_reuse_cached_device_key(mut self, reuse: bool) -> BootPlan {
        self.reuse_cached_device_key = reuse;
        self
    }

    /// Replaces the jitter seed (builder-style).
    pub fn with_jitter_seed(mut self, seed: u64) -> BootPlan {
        self.jitter_seed = seed;
        self
    }

    /// Sets whether manufacturer-facing retry exhaustion suspends the
    /// boot instead of failing it (builder-style). The fleet control
    /// plane turns this off when a caller prefers cross-board failover
    /// over holding a suspended lease.
    pub fn with_suspend_on_outage(mut self, suspend: bool) -> BootPlan {
        self.suspend_on_outage = suspend;
        self
    }
}

/// Accumulated per-step accounting of one orchestrated boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepTrace {
    /// Which step.
    pub step: BootStep,
    /// Attempts executed (≥ 1 once the step ran).
    pub attempts: u32,
    /// Attempts that failed transiently and were retried or gave up.
    pub transient_failures: u32,
    /// Total backoff wait charged to virtual time.
    pub backoff: Duration,
    /// Total virtual time spent in the step across attempts, including
    /// backoff.
    pub elapsed: Duration,
}

impl StepTrace {
    fn new(step: BootStep) -> StepTrace {
        StepTrace {
            step,
            attempts: 0,
            transient_failures: 0,
            backoff: Duration::ZERO,
            elapsed: Duration::ZERO,
        }
    }
}

/// The retry/backoff trace of one orchestrated boot, in step order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BootTrace {
    steps: Vec<StepTrace>,
}

impl BootTrace {
    /// Per-step entries in first-execution order.
    pub fn steps(&self) -> &[StepTrace] {
        &self.steps
    }

    /// The entry for `step`, if it ran.
    pub fn step(&self, step: BootStep) -> Option<&StepTrace> {
        self.steps.iter().find(|s| s.step == step)
    }

    /// Total attempts across all steps.
    pub fn total_attempts(&self) -> u32 {
        self.steps.iter().map(|s| s.attempts).sum()
    }

    /// Total transient failures (= retries + any final give-up).
    pub fn total_transient_failures(&self) -> u32 {
        self.steps.iter().map(|s| s.transient_failures).sum()
    }

    /// Total backoff wait charged to virtual time.
    pub fn total_backoff(&self) -> Duration {
        self.steps.iter().map(|s| s.backoff).sum()
    }

    /// Total virtual time across all steps, including untimed glue
    /// steps, failed attempts, deadline waits, and backoff — the true
    /// wall-clock (virtual) cost of the boot, unlike
    /// [`BootBreakdown::total`] which only accounts Figure 9's phases.
    pub fn total_elapsed(&self) -> Duration {
        self.steps.iter().map(|s| s.elapsed).sum()
    }

    fn entry_mut(&mut self, step: BootStep) -> &mut StepTrace {
        if let Some(i) = self.steps.iter().position(|s| s.step == step) {
            &mut self.steps[i]
        } else {
            self.steps.push(StepTrace::new(step));
            self.steps.last_mut().expect("just pushed")
        }
    }
}

/// Terminal failure of an orchestrated boot.
#[derive(Debug)]
pub struct BootFatal {
    /// The step that failed.
    pub step: BootStep,
    /// The first non-retried (or budget-exhausting) error.
    pub error: SalusError,
    /// True when a *transient* fault ran out of retry budget; false for
    /// integrity/attestation failures, which are never retried.
    pub retries_exhausted: bool,
    /// Partial breakdown up to and including the failing attempt.
    pub breakdown: BootBreakdown,
    /// Per-step accounting up to the failure.
    pub trace: BootTrace,
}

/// How an orchestrated boot ended when it did not complete.
#[derive(Debug)]
pub enum BootFailure {
    /// Failed closed; never resumable.
    Fatal(BootFatal),
    /// Parked because the manufacturer key service stayed unreachable
    /// past the retry budget; resumable.
    Suspended(BootSuspension),
}

impl From<BootFailure> for SalusError {
    /// The error that ended the boot: a fatal step's error, or the
    /// transient error a suspension parked on.
    fn from(failure: BootFailure) -> SalusError {
        match failure {
            BootFailure::Fatal(f) => f.error,
            BootFailure::Suspended(s) => s.into_last_error(),
        }
    }
}

impl BootFailure {
    /// Coarse outcome label for sweeps and logs.
    pub fn classification(&self) -> &'static str {
        match self {
            BootFailure::Fatal(f) if f.retries_exhausted => "transient-exhausted",
            BootFailure::Fatal(_) => "fail-closed",
            BootFailure::Suspended(_) => "suspended",
        }
    }
}

/// A parked, resumable boot. All completed steps (and their virtual
/// time) are preserved; [`resume`](BootSuspension::resume) continues
/// from the suspended step with a fresh retry budget.
pub struct BootSuspension {
    machine: Box<BootMachine>,
    last_error: SalusError,
}

impl std::fmt::Debug for BootSuspension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BootSuspension")
            .field("step", &self.step())
            .field("last_error", &self.last_error)
            .finish_non_exhaustive()
    }
}

impl BootSuspension {
    /// The step the boot is parked on.
    pub fn step(&self) -> BootStep {
        STEP_SEQUENCE[self.machine.cursor]
    }

    /// The transient error that exhausted the budget.
    pub fn last_error(&self) -> &SalusError {
        &self.last_error
    }

    /// Partial per-phase breakdown of the work completed so far.
    pub fn breakdown(&self) -> &BootBreakdown {
        &self.machine.breakdown
    }

    /// Per-step accounting so far.
    pub fn trace(&self) -> &BootTrace {
        &self.machine.trace
    }

    /// Consumes the suspension, surfacing the underlying error (for
    /// callers that treat suspension as failure).
    pub fn into_last_error(self) -> SalusError {
        self.last_error
    }

    /// Continues the boot on `bed` from the suspended step with a fresh
    /// retry budget. All prior progress and accounting carry over.
    ///
    /// # Errors
    ///
    /// Same conditions as [`secure_boot`].
    pub fn resume(self, bed: &mut TestBed) -> Result<BootOutcome, BootFailure> {
        self.machine.run(bed)
    }
}

/// Intermediates stashed between steps so any step can be re-entered.
#[derive(Default)]
struct BootState {
    challenge: Option<[u8; 32]>,
    quote1: Option<salus_tee::quote::Quote>,
    pubkey1: Option<[u8; 32]>,
    metadata_envelope: Option<RaEnvelope>,
    dna: Option<u64>,
    warm: bool,
    mfr_challenge: Option<[u8; 32]>,
    sm_quote: Option<(salus_tee::quote::Quote, [u8; 32])>,
    key_envelope: Option<RaEnvelope>,
    final_quote: Option<salus_tee::quote::Quote>,
    data_key_envelope: Option<RaEnvelope>,
}

fn need<'a, T>(value: &'a Option<T>, what: &'static str) -> Result<&'a T, SalusError> {
    value.as_ref().ok_or(SalusError::Malformed(what))
}

/// The boot state machine: a cursor over `STEP_SEQUENCE[..end]` plus
/// the stashed intermediates, accounting, and the retry DRBG.
struct BootMachine {
    plan: BootPlan,
    cursor: usize,
    /// One past the last step this machine runs.
    end: usize,
    /// Furthest step ever completed; retries only reset when the
    /// machine moves past this, so a regressing step (ClLoad) cannot
    /// launder its budget through its regression target's success.
    high_water: usize,
    failures_since_progress: u32,
    state: BootState,
    breakdown: BootBreakdown,
    trace: BootTrace,
    jitter: HmacDrbg,
    /// Idempotency token for the manufacturer round. Stable across
    /// retries and resume (so a re-sent request replays the cached
    /// answer) but unique per boot (so a later boot on the same bed
    /// never hits a stale cache entry). The per-process salt never
    /// shows up in timings, outcomes, or traces, so determinism of
    /// everything observable is unaffected.
    mfr_token: u64,
}

/// Per-process salt making manufacturer idempotency tokens unique
/// across machine instances.
static MFR_TOKEN_SALT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl BootMachine {
    fn new(plan: BootPlan) -> BootMachine {
        let mut jitter = HmacDrbg::new(&plan.jitter_seed.to_le_bytes(), b"salus-boot-retry");
        let salt = MFR_TOKEN_SALT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mfr_token = jitter
            .generate_u64()
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        BootMachine {
            plan,
            cursor: 0,
            end: STEP_SEQUENCE.len(),
            high_water: 0,
            failures_since_progress: 0,
            state: BootState::default(),
            breakdown: BootBreakdown::default(),
            trace: BootTrace::default(),
            jitter,
            mfr_token,
        }
    }

    /// Exponential backoff for the `n`-th consecutive failure (1-based),
    /// with DRBG-drawn jitter, in virtual time.
    fn backoff_for(&mut self, n: u32) -> Duration {
        let p = &self.plan.retry;
        if p.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exponent = n.saturating_sub(1).min(20);
        let scaled = p
            .base_backoff
            .as_nanos()
            .saturating_mul((u128::from(p.backoff_factor.max(1))).pow(exponent));
        let capped = scaled.min(p.max_backoff.as_nanos().max(p.base_backoff.as_nanos()));
        let jitter_window = capped * u128::from(p.jitter_per_mille) / 1000;
        let extra = if jitter_window == 0 {
            0
        } else {
            u128::from(self.jitter.generate_u64() % 1024) * jitter_window / 1024
        };
        Duration::from_nanos(u64::try_from(capped + extra).unwrap_or(u64::MAX))
    }

    fn run(mut self, bed: &mut TestBed) -> Result<BootOutcome, BootFailure> {
        let clock = bed.clock.clone();
        while self.cursor < self.end {
            let step = STEP_SEQUENCE[self.cursor];
            if self.state.warm && step.skipped_when_warm() {
                self.cursor += 1;
                continue;
            }
            let sw = clock.stopwatch();
            match exec_step(step, bed, &self.plan, &mut self.state, self.mfr_token) {
                Ok(()) => {
                    self.account(step, sw.elapsed(), None);
                    self.cursor += 1;
                    if self.cursor > self.high_water {
                        self.high_water = self.cursor;
                        self.failures_since_progress = 0;
                    }
                }
                Err(error) if error.is_transient() => {
                    self.failures_since_progress += 1;
                    let exhausted = self.failures_since_progress >= self.plan.retry.max_attempts;
                    let backoff = if exhausted {
                        Duration::ZERO
                    } else {
                        let b = self.backoff_for(self.failures_since_progress);
                        clock.advance(b);
                        b
                    };
                    self.account(step, sw.elapsed(), Some(backoff));
                    if exhausted {
                        if step.manufacturer_facing() && self.plan.suspend_on_outage {
                            self.failures_since_progress = 0;
                            return Err(BootFailure::Suspended(BootSuspension {
                                machine: Box::new(self),
                                last_error: error,
                            }));
                        }
                        return Err(self.fatal(step, error, true));
                    }
                    if step == BootStep::ClLoad {
                        // Never re-send a ciphertext whose delivery state
                        // is unknown: regress and re-derive fresh secrets
                        // and a fresh GCM nonce before the next attempt.
                        self.cursor = step_index(BootStep::BitstreamEncrypt);
                    }
                }
                Err(error) => {
                    // Integrity/attestation/state failure: fail closed
                    // immediately, zero further attempts.
                    self.account(step, sw.elapsed(), None);
                    return Err(self.fatal(step, error, false));
                }
            }
        }

        bed.host_reg = match bed.sm_app.host_reg_channel() {
            Ok(ch) => Some(ch),
            Err(error) => {
                let last = STEP_SEQUENCE[self.end - 1];
                return Err(self.fatal(last, error, false));
            }
        };
        Ok(BootOutcome {
            breakdown: self.breakdown,
            report: CascadeReport {
                user_attested: bed.client.platform_attested(),
                sm_attested: bed.user_app.platform_attested(),
                cl_attested: bed.sm_app.cl_attested(),
            },
            trace: self.trace,
        })
    }

    /// Accounts one attempt of `step` that took `elapsed` virtual time;
    /// `backoff` is `Some` (the wait charged after it) when the attempt
    /// failed transiently.
    fn account(&mut self, step: BootStep, elapsed: Duration, backoff: Option<Duration>) {
        let entry = self.trace.entry_mut(step);
        entry.attempts += 1;
        entry.elapsed += elapsed;
        if let Some(backoff) = backoff {
            entry.transient_failures += 1;
            entry.backoff += backoff;
        }
        if let Some(phase) = step.phase() {
            self.breakdown.push(phase, elapsed);
        }
    }

    /// Ends the boot on `step` with `error`, keeping the accounting.
    fn fatal(self, step: BootStep, error: SalusError, retries_exhausted: bool) -> BootFailure {
        BootFailure::Fatal(BootFatal {
            step,
            error,
            retries_exhausted,
            breakdown: self.breakdown,
            trace: self.trace,
        })
    }
}

/// Transmits under the plan's deadline policy.
fn send(
    channel: &salus_net::channel::Channel,
    payload: &[u8],
    plan: &BootPlan,
) -> Result<Vec<u8>, SalusError> {
    match plan.retry.deadline {
        Some(d) => Ok(channel.transmit_deadline(payload, d)?),
        None => Ok(channel.transmit(payload)?),
    }
}

/// Executes one step body: every clock charge, transmit and DRBG draw
/// in Figure 3's order.
fn exec_step(
    step: BootStep,
    bed: &mut TestBed,
    plan: &BootPlan,
    state: &mut BootState,
    mfr_token: u64,
) -> Result<(), SalusError> {
    let clock = bed.clock.clone();
    match step {
        // ── ② Client initiates RA of the user enclave ─────────────────
        BootStep::InitialRa => {
            let challenge = bed.client.begin_ra();
            let c2h = bed.fabric.channel(&bed.names.client, &bed.names.host);
            let challenge_bytes = send(&c2h, &challenge, plan)?;
            let challenge: [u8; 32] = challenge_bytes
                .try_into()
                .map_err(|_| SalusError::Malformed("ra challenge"))?;
            state.challenge = Some(challenge);
        }
        BootStep::UserQuoteGen => {
            let challenge = *need(&state.challenge, "machine: no ra challenge")?;
            bed.cost.charge(&clock, Op::EnclaveTransition);
            bed.cost.charge(&clock, Op::QuoteGeneration);
            state.quote1 = Some(bed.user_app.handle_ra_request(challenge)?);
            state.pubkey1 = Some(bed.user_app.ra_pubkey()?);
        }
        BootStep::UserQuoteVerify => {
            let quote1 = need(&state.quote1, "machine: no initial quote")?;
            let pubkey1 = need(&state.pubkey1, "machine: no ra pubkey")?;
            let h2c = bed.fabric.channel(&bed.names.host, &bed.names.client);
            let mut wire = quote1.to_bytes();
            wire.extend_from_slice(pubkey1);
            let observed = send(&h2c, &wire, plan)?;
            if observed.len() < 32 {
                return Err(SalusError::Malformed("ra response"));
            }
            let (quote_bytes, pk) = observed.split_at(observed.len() - 32);
            let quote = salus_tee::quote::Quote::from_bytes(quote_bytes)?;
            let pk: [u8; 32] = pk.try_into().expect("32");
            bed.cost.charge(&clock, Op::QuoteVerification { wan: true });
            state.metadata_envelope = Some(bed.client.process_initial_quote(&quote, &pk)?);
        }
        BootStep::MetadataTransfer => {
            let envelope = need(&state.metadata_envelope, "machine: no metadata envelope")?;
            let c2h = bed.fabric.channel(&bed.names.client, &bed.names.host);
            let observed = send(&c2h, &envelope.to_bytes(), plan)?;
            let envelope = RaEnvelope::from_bytes(&observed)?;
            bed.cost.charge(&clock, Op::EnclaveTransition);
            bed.user_app.receive_metadata(&envelope)?;
        }
        // ── ③ Local attestation user → SM enclave ─────────────────────
        BootStep::LocalAttestation => {
            let u2s = bed
                .fabric
                .channel(&bed.names.user_enclave, &bed.names.sm_enclave);
            let s2u = bed
                .fabric
                .channel(&bed.names.sm_enclave, &bed.names.user_enclave);

            bed.cost.charge(&clock, Op::LocalAttestSide);
            let msg = bed.user_app.la_initiate();
            let observed = send(&u2s, &msg.to_bytes(), plan)?;
            let observed = salus_tee::local::HandshakeMsg::from_bytes(&observed)?;

            bed.cost.charge(&clock, Op::LocalAttestSide);
            let reply = bed.sm_app.la_respond(&observed)?;
            let observed = send(&s2u, &reply.to_bytes(), plan)?;
            let observed = salus_tee::local::HandshakeMsg::from_bytes(&observed)?;
            bed.user_app.la_finish(&observed)?;

            // Forward H and Loc to the SM enclave over the secured channel.
            let sealed = bed.user_app.metadata_for_sm()?;
            let observed = send(&u2s, &sealed, plan)?;
            bed.sm_app.receive_metadata(&observed)?;
        }
        // ── ④ Device-key distribution with SM-enclave RA ──────────────
        BootStep::TargetDevice => {
            let dna = bed
                .advertised_dna_override
                .unwrap_or_else(|| bed.shell.advertised_dna());
            bed.sm_app.set_target_device(dna);
            state.dna = Some(dna);
            state.warm = plan.reuse_cached_device_key && bed.sm_app.device_key().is_some();
        }
        BootStep::MfrChallenge => {
            let dna = *need(&state.dna, "machine: no target dna")?;
            let h2m = bed.fabric.channel(&bed.names.host, &bed.names.manufacturer);
            let m2h = bed.fabric.channel(&bed.names.manufacturer, &bed.names.host);
            let observed = send(&h2m, &dna.to_le_bytes(), plan)?;
            let dna_req = u64::from_le_bytes(
                observed
                    .try_into()
                    .map_err(|_| SalusError::Malformed("dna request"))?,
            );
            let challenge = bed
                .key_service()
                .begin_key_request_idem(dna_req, mfr_token)?;
            let observed = send(&m2h, &challenge, plan)?;
            let challenge: [u8; 32] = observed
                .try_into()
                .map_err(|_| SalusError::Malformed("mfr challenge"))?;
            state.mfr_challenge = Some(challenge);
        }
        BootStep::SmQuoteGen => {
            let mfr_challenge = *need(&state.mfr_challenge, "machine: no mfr challenge")?;
            bed.cost.charge(&clock, Op::EnclaveTransition);
            bed.cost.charge(&clock, Op::QuoteGeneration);
            state.sm_quote = Some(bed.sm_app.key_request_quote(mfr_challenge)?);
        }
        BootStep::SmQuoteVerify => {
            let dna = *need(&state.dna, "machine: no target dna")?;
            let mfr_challenge = *need(&state.mfr_challenge, "machine: no mfr challenge")?;
            let (sm_quote, sm_pub) = need(&state.sm_quote, "machine: no sm quote")?;
            let h2m = bed.fabric.channel(&bed.names.host, &bed.names.manufacturer);
            let mut wire = dna.to_le_bytes().to_vec();
            wire.extend_from_slice(&mfr_challenge);
            wire.extend_from_slice(&sm_quote.to_bytes());
            wire.extend_from_slice(sm_pub);
            let observed = send(&h2m, &wire, plan)?;
            if observed.len() < 8 + 32 + 32 {
                return Err(SalusError::Malformed("key redeem request"));
            }
            let dna_req = u64::from_le_bytes(observed[..8].try_into().expect("8"));
            let challenge: [u8; 32] = observed[8..40].try_into().expect("32");
            let pk: [u8; 32] = observed[observed.len() - 32..].try_into().expect("32");
            let quote = salus_tee::quote::Quote::from_bytes(&observed[40..observed.len() - 32])?;
            bed.cost
                .charge(&clock, Op::QuoteVerification { wan: false });
            state.key_envelope = Some(
                bed.key_service()
                    .redeem_key_request_idem(mfr_token, dna_req, challenge, &quote, &pk)?,
            );
        }
        BootStep::DeviceKeyTransfer => {
            let key_envelope = need(&state.key_envelope, "machine: no key envelope")?;
            let m2h = bed.fabric.channel(&bed.names.manufacturer, &bed.names.host);
            let observed = send(&m2h, &key_envelope.to_bytes(), plan)?;
            let envelope = RaEnvelope::from_bytes(&observed)?;
            bed.cost.charge(&clock, Op::EnclaveTransition);
            bed.sm_app.receive_device_key(&envelope)?;
        }
        // ── ⑤ Verify, manipulate, encrypt inside the SM enclave ───────
        BootStep::BitstreamVerify => {
            bed.cost.charge(
                &clock,
                Op::BitstreamVerify(bed.cl_store.compiled.wire.len()),
            );
        }
        BootStep::BitstreamManipulation => {
            bed.cost.charge(
                &clock,
                Op::BitstreamManipulate(bed.cl_store.compiled.wire.len()),
            );
        }
        BootStep::BitstreamEncrypt => {
            bed.cost.charge(
                &clock,
                Op::BitstreamEncrypt(bed.cl_store.compiled.wire.len()),
            );
            bed.sm_app.prepare_bitstream(&bed.cl_store.compiled.wire)?;
        }
        // ── ⑤→⑥ Shell deployment and internal decryption ─────────────
        BootStep::ClLoad => {
            let encrypted = bed
                .sm_app
                .prepared_bitstream()
                .ok_or(SalusError::Malformed("machine: no encrypted bitstream"))?;
            // The sealed stream crosses to the shell by reference: on an
            // honest link the shell loads the enclave's own buffer. The
            // `Arc` annotation keeps a copying `transmit` from creeping
            // back in here; that the honest link hands over the sender's
            // buffer itself is checked only by `salus_net`'s channel test
            // `shared_transmit_delivers_the_senders_buffer_unless_altered`.
            let h2f = bed.fabric.channel(&bed.names.host, &bed.names.fpga);
            let observed: Arc<Vec<u8>> = h2f.transmit_shared(encrypted, plan.retry.deadline)?;
            bed.cost.charge(&clock, Op::IcapProgram(observed.len()));
            bed.shell.deploy_bitstream(&observed)?;
        }
        // ── ⑦ CL attestation ───────────────────────────────────────────
        BootStep::ClAuthentication => {
            let sm_logic = SmLogic::bind(bed.shell.device(), bed.partition)?;

            let request = bed.sm_app.attest_request()?;
            bed.cost.charge(&clock, Op::SmLogicMac);
            let h2f = bed.fabric.channel(&bed.names.host, &bed.names.fpga);
            let observed = send(&h2f, &request.to_bytes(), plan)?;
            let observed = AttestRequest::from_bytes(&observed)?;

            bed.cost.charge(&clock, Op::SmLogicMac);
            let response = sm_logic.handle_attestation(&observed)?;
            let f2h = bed.fabric.channel(&bed.names.fpga, &bed.names.host);
            let observed = send(&f2h, &response.to_bytes(), plan)?;
            let observed = AttestResponse::from_bytes(&observed)?;

            bed.cost.charge(&clock, Op::SmLogicMac);
            bed.sm_app.process_attest_response(&observed)?;
            bed.sm_logic = Some(sm_logic);
        }
        // SM enclave conveys the CL result to the user enclave (LA channel).
        BootStep::ClResultRelay => {
            let s2u = bed
                .fabric
                .channel(&bed.names.sm_enclave, &bed.names.user_enclave);
            let sealed = bed.sm_app.cl_result_message()?;
            let observed = send(&s2u, &sealed, plan)?;
            bed.user_app.receive_cl_result(&observed)?;
        }
        // ── ⑧ Deferred cascaded RA report ──────────────────────────────
        BootStep::FinalQuoteGen => {
            bed.cost.charge(&clock, Op::EnclaveTransition);
            bed.cost.charge(&clock, Op::QuoteGeneration);
            state.final_quote = Some(bed.user_app.final_quote()?);
        }
        BootStep::FinalQuoteVerify => {
            let final_quote = need(&state.final_quote, "machine: no final quote")?;
            let h2c = bed.fabric.channel(&bed.names.host, &bed.names.client);
            let observed = send(&h2c, &final_quote.to_bytes(), plan)?;
            let quote = salus_tee::quote::Quote::from_bytes(&observed)?;
            bed.cost.charge(&clock, Op::QuoteVerification { wan: true });
            state.data_key_envelope = Some(bed.client.process_final_quote(&quote)?);
        }
        // ── ⑨ Data-key release ─────────────────────────────────────────
        BootStep::DataKeyTransfer => {
            let envelope = need(&state.data_key_envelope, "machine: no data key envelope")?;
            let c2h = bed.fabric.channel(&bed.names.client, &bed.names.host);
            let observed = send(&c2h, &envelope.to_bytes(), plan)?;
            let envelope = RaEnvelope::from_bytes(&observed)?;
            bed.user_app.receive_data_key(&envelope)?;
        }
    }
    Ok(())
}

/// Drives the complete secure CL booting flow on `bed` under `plan`,
/// with bounded retries, backoff, deadlines, and graceful degradation.
///
/// # Errors
///
/// [`BootFailure::Fatal`] on the first integrity/attestation violation
/// (never retried; see [`crate::attacks`] for the attack → detection
/// matrix) or when a transient fault exhausts its retry budget off the
/// manufacturer path; [`BootFailure::Suspended`] when the manufacturer
/// key service stays unreachable past the budget.
pub fn secure_boot(bed: &mut TestBed, plan: BootPlan) -> Result<BootOutcome, BootFailure> {
    BootMachine::new(plan).run(bed)
}

/// Reloads the CL `bed`'s SM enclave last encrypted onto `bed`'s
/// partition and re-attests it: the machine's `ClLoad →
/// ClAuthentication` suffix, single attempt, no manufacturer round
/// trip, no manipulation, no re-encryption. The loaded CL still holds
/// the injected `Key_attest`, so the standard attestation round trip
/// re-attests it.
pub(crate) fn reload_image(bed: &mut TestBed) -> Result<BootOutcome, BootFailure> {
    let mut machine = BootMachine::new(BootPlan::single());
    machine.cursor = step_index(BootStep::ClLoad);
    machine.high_water = machine.cursor;
    machine.end = step_index(BootStep::ClAuthentication) + 1;
    machine.run(bed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TestBedConfig;
    use std::sync::Arc;

    #[test]
    fn honest_boot_attests_everything() {
        let mut bed = TestBed::provision(TestBedConfig::quick());
        let outcome = secure_boot(&mut bed, BootPlan::single()).unwrap();
        assert!(outcome.report.all_attested());
        assert!(bed.user_app.data_key().is_some());
        assert!(bed.sm_logic.is_some());
    }

    #[test]
    fn register_channel_works_after_boot() {
        let mut bed = TestBed::provision(TestBedConfig::quick());
        secure_boot(&mut bed, BootPlan::single()).unwrap();
        bed.secure_reg_write(0x10, 777).unwrap();
        assert_eq!(bed.secure_reg_read(0x10).unwrap(), 777);
    }

    #[test]
    fn shell_never_sees_plaintext_secrets() {
        use salus_net::adversary::Snooper;

        let mut bed = TestBed::provision(TestBedConfig::quick());
        let tap = bed
            .fabric
            .channel(&bed.names.host, &bed.names.fpga)
            .interpose(Snooper::new());
        secure_boot(&mut bed, BootPlan::single()).unwrap();
        // Everything the shell received from the host: the sealed
        // bitstream, then the attestation request. We can't know the
        // injected key bytes here (they're enclave-private), but we
        // *can* check the shell never saw the plaintext module table
        // marker that every plaintext CL stream contains.
        let sealed = bed.sm_app.prepared_bitstream().expect("prepared");
        tap.with(|s| {
            assert_eq!(s.observed.len(), 2);
            assert_eq!(s.observed[0].2, **sealed);
            assert!(!s.saw_bytes(b"SLCL"));
        });
    }

    #[test]
    fn breakdown_covers_all_major_phases() {
        let mut bed = TestBed::provision(TestBedConfig::quick());
        let outcome = secure_boot(&mut bed, BootPlan::single()).unwrap();
        for phase in [
            BootPhase::UserQuoteGen,
            BootPhase::LocalAttestation,
            BootPhase::SmQuoteGen,
            BootPhase::BitstreamManipulation,
            BootPhase::ClLoad,
            BootPhase::ClAuthentication,
            BootPhase::FinalQuoteGen,
        ] {
            assert!(
                outcome.breakdown.phases().iter().any(|(p, _)| *p == phase),
                "missing phase {phase:?}"
            );
        }
    }

    #[test]
    fn paper_scale_boot_lands_in_the_paper_envelope() {
        let mut bed = TestBed::paper_scale();
        let outcome = secure_boot(&mut bed, BootPlan::single()).unwrap();
        let total = outcome.breakdown.total();
        // Paper: 18.8 s total, manipulation ≈ 73%.
        assert!(
            total > Duration::from_secs(15) && total < Duration::from_secs(23),
            "total {total:?}"
        );
        let manip = outcome.breakdown.phase(BootPhase::BitstreamManipulation);
        let frac = manip.as_secs_f64() / total.as_secs_f64();
        assert!(frac > 0.6 && frac < 0.85, "manipulation fraction {frac}");
    }

    #[test]
    fn warm_boot_skips_key_distribution() {
        let mut bed = TestBed::provision(TestBedConfig::quick());
        secure_boot(&mut bed, BootPlan::single()).unwrap();
        let warm = BootPlan::single().with_reuse_cached_device_key(true);
        let outcome = secure_boot(&mut bed, warm).unwrap();
        assert!(outcome.report.all_attested());
        assert_eq!(
            outcome.breakdown.phase(BootPhase::SmQuoteGen),
            Duration::ZERO
        );
        assert_eq!(
            outcome.breakdown.phase(BootPhase::DeviceKeyTransfer),
            Duration::ZERO
        );
        // The channel still works after a warm re-deployment.
        bed.secure_reg_write(9, 1).unwrap();
        assert_eq!(bed.secure_reg_read(9).unwrap(), 1);
    }

    #[test]
    fn warm_boot_without_cached_key_falls_back_to_cold() {
        let mut bed = TestBed::provision(TestBedConfig::quick());
        let warm = BootPlan::single().with_reuse_cached_device_key(true);
        let outcome = secure_boot(&mut bed, warm).unwrap();
        assert!(outcome.report.all_attested());
        // No cached key yet → the distribution ran.
        assert!(outcome
            .breakdown
            .phases()
            .iter()
            .any(|(p, _)| *p == BootPhase::SmQuoteVerify));
    }

    #[test]
    fn second_boot_reinjects_fresh_secrets() {
        let mut bed = TestBed::provision(TestBedConfig::quick());
        secure_boot(&mut bed, BootPlan::single()).unwrap();
        let first = Arc::clone(bed.sm_app.prepared_bitstream().unwrap());
        secure_boot(&mut bed, BootPlan::single()).unwrap();
        let second = bed.sm_app.prepared_bitstream().unwrap();
        assert_ne!(first, *second, "fresh keys and nonce per deployment");
        // Channel still works after the re-boot.
        bed.secure_reg_write(1, 2).unwrap();
        assert_eq!(bed.secure_reg_read(1).unwrap(), 2);
    }

    #[test]
    fn a_tampered_load_fails_only_that_boot_and_the_parked_stream_survives() {
        use salus_net::adversary::BitFlipper;

        let mut bed = TestBed::provision(TestBedConfig::quick());
        secure_boot(&mut bed, BootPlan::single()).unwrap();
        let parked = Arc::clone(bed.sm_app.prepared_bitstream().expect("prepared"));
        let sealed = parked.to_vec();

        // The host→FPGA link flips a ciphertext bit of a warm-image
        // reload: the ICAP refuses the envelope and that boot fails.
        let h2f = bed.fabric.channel(&bed.names.host, &bed.names.fpga);
        h2f.interpose(BitFlipper::new(0, parked.len() / 2));
        assert!(matches!(reload_image(&mut bed), Err(BootFailure::Fatal(_))));
        h2f.clear_adversary();

        // The flip landed in a copy: the parked stream is the same
        // buffer with the same bytes, and reloads warm.
        assert!(Arc::ptr_eq(
            bed.sm_app.prepared_bitstream().expect("still parked"),
            &parked
        ));
        assert_eq!(*parked, sealed);
        let outcome = reload_image(&mut bed).unwrap();
        assert!(outcome.report.cl_attested);
        bed.secure_reg_write(3, 4).unwrap();
        assert_eq!(bed.secure_reg_read(3).unwrap(), 4);
    }

    #[test]
    fn resilient_fault_free_boot_matches_single_attempt_breakdown_exactly() {
        let mut single_bed = TestBed::provision(TestBedConfig::quick());
        let single = secure_boot(&mut single_bed, BootPlan::single()).unwrap();

        let mut bed = TestBed::provision(TestBedConfig::quick());
        let resilient = secure_boot(&mut bed, BootPlan::resilient()).unwrap();

        assert_eq!(resilient.breakdown, single.breakdown);
        assert_eq!(resilient.report, single.report);
        // Fault-free: every executed step took exactly one attempt.
        assert_eq!(resilient.trace.total_transient_failures(), 0);
        assert_eq!(resilient.trace.total_backoff(), Duration::ZERO);
        assert!(
            resilient.trace.steps().iter().all(|s| s.attempts == 1),
            "unexpected retries: {:?}",
            resilient.trace
        );
    }

    #[test]
    fn resilient_paper_scale_matches_single_attempt_total() {
        let mut single_bed = TestBed::paper_scale();
        let single = secure_boot(&mut single_bed, BootPlan::single()).unwrap();
        let mut bed = TestBed::paper_scale();
        let resilient = secure_boot(&mut bed, BootPlan::resilient()).unwrap();
        assert_eq!(resilient.breakdown, single.breakdown);
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_per_seed() {
        let mut a = BootMachine::new(BootPlan::resilient().with_jitter_seed(1));
        let mut b = BootMachine::new(BootPlan::resilient().with_jitter_seed(1));
        let mut c = BootMachine::new(BootPlan::resilient().with_jitter_seed(2));
        let sa: Vec<Duration> = (1..=4).map(|n| a.backoff_for(n)).collect();
        let sb: Vec<Duration> = (1..=4).map(|n| b.backoff_for(n)).collect();
        let sc: Vec<Duration> = (1..=4).map(|n| c.backoff_for(n)).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        // Exponential shape: each pre-cap backoff at least doubles the base.
        assert!(sa[0] >= Duration::from_millis(50));
        assert!(sa[1] >= Duration::from_millis(100));
        assert!(sa[3] <= Duration::from_secs(3), "cap + jitter bound");
    }
}
