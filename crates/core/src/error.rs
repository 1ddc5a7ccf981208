use std::error::Error;
use std::fmt;

use salus_bitstream::BitstreamError;
use salus_fpga::FpgaError;
use salus_net::NetError;
use salus_tee::TeeError;

/// Errors surfaced by the Salus protocols.
///
/// Security-relevant detections get their own variants so experiments
/// can assert *which* defence fired.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SalusError {
    /// The fetched CL bitstream did not match the expected digest `H`.
    DigestMismatch,
    /// CL attestation failed: the loaded CL does not hold `Key_attest`.
    ClAttestationFailed(&'static str),
    /// The secure register channel rejected a transaction.
    RegisterChannelViolation(&'static str),
    /// Remote attestation of an enclave failed.
    RemoteAttestationFailed(&'static str),
    /// Local attestation between the user and SM enclaves failed.
    LocalAttestationFailed(&'static str),
    /// The manufacturer refused to issue a device key.
    KeyDistributionRefused(&'static str),
    /// The cascaded attestation report did not verify at the client.
    CascadeReportInvalid(&'static str),
    /// A message failed to decode.
    Malformed(&'static str),
    /// The SM logic is absent or undecodable on the loaded CL.
    SmLogicUnavailable(&'static str),
    /// The fleet scheduler could not place or restore a deployment
    /// (bookkeeping errors: unknown tenants, broker misuse, ...).
    Scheduler(&'static str),
    /// Capability-aware placement refused a deployment for a typed,
    /// assertable reason.
    Place(PlaceError),
    /// A runtime re-attestation challenge exhausted its deadline or
    /// retry budget without an answer (transport-level, not a verdict).
    ReattestTimedOut(&'static str),
    /// The session was fenced by the re-attestation plane: queued work
    /// drains with this error instead of returning unverified output.
    SessionFenced(&'static str),
    /// The audit log's hash chain failed verification.
    AuditChainBroken(&'static str),
    /// The write-ahead intent journal failed verification or decoding.
    JournalCorrupt(&'static str),
    /// Control-plane recovery could not reconcile the journal against
    /// the live board state.
    RecoveryFailed(&'static str),
    /// A seeded crash plane killed the control plane mid-operation:
    /// whatever the operation had not journal-committed is gone with
    /// the process, and only recovery can answer for it.
    CrashInjected(&'static str),
    /// Underlying TEE failure.
    Tee(TeeError),
    /// Underlying FPGA failure.
    Fpga(FpgaError),
    /// Underlying bitstream tooling failure.
    Bitstream(BitstreamError),
    /// Underlying network failure.
    Net(NetError),
}

/// Why capability-aware placement refused a deployment.
///
/// Typed so chaos suites and callers assert on variants, not string
/// contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PlaceError {
    /// Every slot in the fleet is leased.
    Saturated,
    /// Free slots exist, but none on an admissible board (capacity
    /// shortfalls and avoid/quarantine exclusions included).
    NoAdmissibleBoard,
    /// Free admissible slots exist, but only on devices of a family
    /// incompatible with the tenant's compiled bitstream.
    IncompatibleFamily,
    /// The requested warm-image affinity slot is leased by someone else.
    AffinityOccupied,
    /// The requested affinity slot sits on an avoided (e.g. quarantined)
    /// board.
    AffinityAvoided,
    /// The requested affinity slot does not exist in this fleet.
    UnknownAffinitySlot,
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::Saturated => write!(f, "fleet saturated"),
            PlaceError::NoAdmissibleBoard => write!(f, "no admissible board"),
            PlaceError::IncompatibleFamily => {
                write!(f, "no free slot on a family-compatible board")
            }
            PlaceError::AffinityOccupied => write!(f, "affinity slot occupied"),
            PlaceError::AffinityAvoided => write!(f, "affinity device avoided"),
            PlaceError::UnknownAffinitySlot => write!(f, "unknown affinity slot"),
        }
    }
}

/// Coarse recovery classification of a [`SalusError`].
///
/// The boot orchestrator retries [`FaultClass::Transient`] failures
/// (bounded, with backoff) and fails closed immediately on
/// [`FaultClass::Fatal`] ones — an integrity or attestation violation
/// never improves by resending, and retrying it would hand an active
/// adversary free oracle queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Transport loss or timeout: resending the same logical request is
    /// safe and may succeed.
    Transient,
    /// Everything else: security detections, malformed messages, state
    /// and routing errors. Never retried.
    Fatal,
}

impl SalusError {
    /// Classifies this error for the retry policy.
    ///
    /// A [`ReattestTimedOut`](SalusError::ReattestTimedOut) is
    /// transient: the challenge never produced a verdict, so a later
    /// epoch (or a redeploy elsewhere) may still succeed. A
    /// [`SessionFenced`](SalusError::SessionFenced) or
    /// [`AuditChainBroken`](SalusError::AuditChainBroken) is fatal:
    /// fencing is a security decision and a broken chain is evidence of
    /// tampering — neither improves by resending. The crash-recovery
    /// trio is fatal too: a [`CrashInjected`](SalusError::CrashInjected)
    /// process death cannot be retried against the dead process (the
    /// operation is re-driven on the *recovered* plane instead), and a
    /// corrupt journal or failed reconciliation is tamper evidence,
    /// not weather.
    pub fn fault_class(&self) -> FaultClass {
        match self {
            SalusError::Net(e) if e.is_transient() => FaultClass::Transient,
            SalusError::ReattestTimedOut(_) => FaultClass::Transient,
            _ => FaultClass::Fatal,
        }
    }

    /// True when [`fault_class`](SalusError::fault_class) is
    /// [`FaultClass::Transient`].
    pub fn is_transient(&self) -> bool {
        self.fault_class() == FaultClass::Transient
    }
}

impl fmt::Display for SalusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SalusError::DigestMismatch => write!(f, "bitstream digest mismatch"),
            SalusError::ClAttestationFailed(what) => write!(f, "cl attestation failed: {what}"),
            SalusError::RegisterChannelViolation(what) => {
                write!(f, "register channel violation: {what}")
            }
            SalusError::RemoteAttestationFailed(what) => {
                write!(f, "remote attestation failed: {what}")
            }
            SalusError::LocalAttestationFailed(what) => {
                write!(f, "local attestation failed: {what}")
            }
            SalusError::KeyDistributionRefused(what) => {
                write!(f, "key distribution refused: {what}")
            }
            SalusError::CascadeReportInvalid(what) => {
                write!(f, "cascade report invalid: {what}")
            }
            SalusError::Malformed(what) => write!(f, "malformed message: {what}"),
            SalusError::SmLogicUnavailable(what) => write!(f, "sm logic unavailable: {what}"),
            SalusError::Scheduler(what) => write!(f, "scheduler: {what}"),
            SalusError::Place(why) => write!(f, "placement refused: {why}"),
            SalusError::ReattestTimedOut(what) => {
                write!(f, "re-attestation challenge timed out: {what}")
            }
            SalusError::SessionFenced(what) => write!(f, "session fenced: {what}"),
            SalusError::AuditChainBroken(what) => write!(f, "audit chain broken: {what}"),
            SalusError::JournalCorrupt(what) => write!(f, "journal corrupt: {what}"),
            SalusError::RecoveryFailed(what) => write!(f, "recovery failed: {what}"),
            SalusError::CrashInjected(what) => write!(f, "crash injected: {what}"),
            SalusError::Tee(e) => write!(f, "tee: {e}"),
            SalusError::Fpga(e) => write!(f, "fpga: {e}"),
            SalusError::Bitstream(e) => write!(f, "bitstream: {e}"),
            SalusError::Net(e) => write!(f, "net: {e}"),
        }
    }
}

impl Error for SalusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SalusError::Tee(e) => Some(e),
            SalusError::Fpga(e) => Some(e),
            SalusError::Bitstream(e) => Some(e),
            SalusError::Net(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<TeeError> for SalusError {
    fn from(e: TeeError) -> Self {
        SalusError::Tee(e)
    }
}

#[doc(hidden)]
impl From<FpgaError> for SalusError {
    fn from(e: FpgaError) -> Self {
        SalusError::Fpga(e)
    }
}

#[doc(hidden)]
impl From<BitstreamError> for SalusError {
    fn from(e: BitstreamError) -> Self {
        SalusError::Bitstream(e)
    }
}

#[doc(hidden)]
impl From<NetError> for SalusError {
    fn from(e: NetError) -> Self {
        SalusError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative of every variant.
    fn all_variants() -> Vec<SalusError> {
        vec![
            SalusError::DigestMismatch,
            SalusError::ClAttestationFailed("mac"),
            SalusError::RegisterChannelViolation("ctr"),
            SalusError::RemoteAttestationFailed("quote"),
            SalusError::LocalAttestationFailed("report"),
            SalusError::KeyDistributionRefused("unknown device"),
            SalusError::CascadeReportInvalid("hash"),
            SalusError::Malformed("frame"),
            SalusError::SmLogicUnavailable("not booted"),
            SalusError::Scheduler("unknown tenant"),
            SalusError::Place(PlaceError::Saturated),
            SalusError::Place(PlaceError::IncompatibleFamily),
            SalusError::ReattestTimedOut("challenge deadline"),
            SalusError::SessionFenced("lane fenced"),
            SalusError::AuditChainBroken("digest mismatch at record 3"),
            SalusError::JournalCorrupt("bad record framing"),
            SalusError::RecoveryFailed("journal claims a slot the board denies"),
            SalusError::CrashInjected("process crash at journal step"),
            SalusError::Tee(TeeError::VerificationFailed("report")),
            SalusError::Fpga(FpgaError::DecryptionFailed),
            SalusError::Bitstream(BitstreamError::ResourceOverflow { class: "LUT" }),
            SalusError::Net(NetError::Dropped),
            SalusError::Net(NetError::TimedOut),
            SalusError::Net(NetError::UnknownEndpoint("x".into())),
            SalusError::Net(NetError::Remote("boom".into())),
        ]
    }

    #[test]
    fn display_covers_every_variant_without_debug_dumps() {
        for e in all_variants() {
            let shown = e.to_string();
            assert!(!shown.is_empty(), "empty display for {e:?}");
            // Display must be prose, not a debug dump of the enum.
            assert_ne!(shown, format!("{e:?}"), "debug-looking display: {shown}");
            assert!(
                !shown.contains("SalusError") && !shown.contains("::"),
                "display leaks type structure: {shown}"
            );
        }
    }

    #[test]
    fn transient_set_is_transport_losses_and_reattest_timeouts() {
        for e in all_variants() {
            let expect = matches!(
                e,
                SalusError::Net(NetError::Dropped)
                    | SalusError::Net(NetError::TimedOut)
                    | SalusError::ReattestTimedOut(_)
            );
            assert_eq!(e.is_transient(), expect, "misclassified: {e:?}");
            assert_eq!(
                e.fault_class(),
                if expect {
                    FaultClass::Transient
                } else {
                    FaultClass::Fatal
                }
            );
        }
    }
}
