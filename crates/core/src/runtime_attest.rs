//! Runtime re-attestation — the paper's §2.1 future work.
//!
//! "Salus only focuses on protecting integrity of the CL during
//! bitstream loading, ignoring runtime attacks, e.g., runtime bitstream
//! replacement. Runtime attestation ... will be studied later."
//!
//! This extension studies it: because the injected `Key_attest` lives in
//! the loaded configuration frames, the boot-time CL attestation
//! protocol re-runs at *any* time with a fresh nonce. A periodic
//! heartbeat therefore detects runtime bitstream replacement: any reload
//! — even of a previously valid encrypted bitstream — destroys the
//! current session's `Key_attest` and the next heartbeat fails.

use std::time::Duration;

use crate::cl_attest::{AttestRequest, AttestResponse};
use crate::instance::TestBed;
use crate::SalusError;

/// Outcome of one heartbeat round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heartbeat {
    /// The CL still holds this session's `Key_attest`.
    Alive,
    /// Attestation failed — the CL changed since boot (or the channel
    /// was attacked). The platform must be considered compromised and
    /// re-booted.
    Compromised,
}

/// What one classified attestation round observed. Where [`Heartbeat`]
/// folds every failure into `Compromised`, this keeps transport loss
/// apart so a sweeping monitor can retry (with a fresh nonce) instead
/// of fencing a healthy CL over a dropped packet.
#[derive(Debug, Clone)]
pub enum Observation {
    /// The CL answered with a valid MAC over this round's nonce.
    Alive,
    /// The CL answered wrongly (stale keys, tampered frames, forged or
    /// corrupted response) — a security verdict, never retried.
    Compromised,
    /// The challenge or its response was lost in transit before any
    /// verdict formed; retrying with a fresh nonce is safe.
    Lost(SalusError),
}

/// Policy of one runtime re-attestation sweep: how often epochs fire,
/// how long one (device, partition) challenge may take end to end, and
/// how many transport losses it may absorb inside that budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestPolicy {
    /// Virtual time between epoch sweeps.
    pub cadence: Duration,
    /// Total virtual-time budget of one challenge, retries included. A
    /// CL that produces no verdict inside it times out and fail-closes,
    /// so detection latency is bounded by `cadence + challenge_deadline`.
    pub challenge_deadline: Duration,
    /// Transport losses one challenge may retry through (each retry
    /// re-issues with a fresh nonce under the same epoch token).
    pub max_transient_retries: u32,
}

impl Default for AttestPolicy {
    fn default() -> AttestPolicy {
        AttestPolicy {
            cadence: Duration::from_secs(1),
            challenge_deadline: Duration::from_millis(50),
            max_transient_retries: 3,
        }
    }
}

impl AttestPolicy {
    /// Replaces the epoch cadence (builder-style).
    pub fn with_cadence(mut self, cadence: Duration) -> AttestPolicy {
        self.cadence = cadence;
        self
    }

    /// Replaces the per-challenge deadline (builder-style).
    pub fn with_challenge_deadline(mut self, deadline: Duration) -> AttestPolicy {
        self.challenge_deadline = deadline;
        self
    }

    /// Replaces the transient retry budget (builder-style).
    pub fn with_max_transient_retries(mut self, retries: u32) -> AttestPolicy {
        self.max_transient_retries = retries;
        self
    }

    /// The virtual-time backoff between retries, sized so the full
    /// retry budget always terminates inside the challenge deadline
    /// even on a zero-latency fabric.
    pub fn retry_backoff(&self) -> Duration {
        self.challenge_deadline / (self.max_transient_retries + 1)
    }

    /// Worst-case detection latency of a tampered CL under this
    /// policy: one full epoch (the tamper landed just after a sweep)
    /// plus one challenge deadline.
    pub fn detection_bound(&self) -> Duration {
        self.cadence + self.challenge_deadline
    }
}

/// Terminal verdict of one deadline-bounded [`challenge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChallengeVerdict {
    /// The CL proved it still holds this session's `Key_attest`.
    Alive,
    /// The CL failed attestation — fail-close.
    Compromised,
    /// No verdict inside the deadline/retry budget — fail-close (a CL
    /// that cannot prove itself is treated as compromised).
    TimedOut,
}

impl std::fmt::Display for ChallengeVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChallengeVerdict::Alive => write!(f, "alive"),
            ChallengeVerdict::Compromised => write!(f, "compromised"),
            ChallengeVerdict::TimedOut => write!(f, "timed-out"),
        }
    }
}

/// What one [`challenge`] did: the verdict, how many rounds it took,
/// and the virtual time it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChallengeOutcome {
    /// The terminal verdict.
    pub verdict: ChallengeVerdict,
    /// Attestation rounds issued (1 = no retries).
    pub attempts: u32,
    /// Virtual time from challenge start to the verdict.
    pub elapsed: Duration,
}

impl ChallengeOutcome {
    /// True when the CL must be fenced (anything but `Alive`).
    pub fn fail_closed(&self) -> bool {
        self.verdict != ChallengeVerdict::Alive
    }
}

/// Runs one classified runtime re-attestation round over the
/// shell-controlled PCIe channel. Requires a booted bed.
///
/// # Errors
///
/// Returns state errors if the bed was never booted; everything else is
/// an [`Observation`] — verdicts and transport losses are data here.
pub fn observe(bed: &mut TestBed) -> Result<Observation, SalusError> {
    if bed.sm_logic.is_none() {
        return Err(SalusError::SmLogicUnavailable("not booted"));
    }

    let request = bed.sm_app.attest_request()?;
    let h2f = bed.fabric.channel(&bed.names.host, &bed.names.fpga);
    let observed = match h2f.transmit(&request.to_bytes()) {
        Ok(bytes) => bytes,
        Err(e) if e.is_transient() => return Ok(Observation::Lost(e.into())),
        Err(_) => return Ok(Observation::Compromised),
    };
    let observed = match AttestRequest::from_bytes(&observed) {
        Ok(r) => r,
        Err(_) => return Ok(Observation::Compromised),
    };

    // Re-bind on every round: the SM logic must be decodable from the
    // *current* frames.
    let logic = match crate::sm_logic::SmLogic::bind(bed.shell.device(), bed.partition) {
        Ok(l) => l,
        Err(_) => return Ok(Observation::Compromised),
    };
    let response = match logic.handle_attestation(&observed) {
        Ok(r) => r,
        Err(_) => return Ok(Observation::Compromised),
    };

    let f2h = bed.fabric.channel(&bed.names.fpga, &bed.names.host);
    let observed = match f2h.transmit(&response.to_bytes()) {
        Ok(bytes) => bytes,
        Err(e) if e.is_transient() => return Ok(Observation::Lost(e.into())),
        Err(_) => return Ok(Observation::Compromised),
    };
    let observed = match AttestResponse::from_bytes(&observed) {
        Ok(r) => r,
        Err(_) => return Ok(Observation::Compromised),
    };

    match bed.sm_app.process_attest_response(&observed) {
        Ok(()) => Ok(Observation::Alive),
        Err(_) => Ok(Observation::Compromised),
    }
}

/// Runs one runtime re-attestation round over the shell-controlled PCIe
/// channel. Requires a booted bed.
///
/// # Errors
///
/// Returns state errors if the bed was never booted; attestation
/// *failures* are reported as [`Heartbeat::Compromised`], not errors —
/// a monitor wants to observe them, not abort. Transport losses also
/// read as `Compromised` here; use [`challenge`] to retry through them.
pub fn heartbeat(bed: &mut TestBed) -> Result<Heartbeat, SalusError> {
    Ok(match observe(bed)? {
        Observation::Alive => Heartbeat::Alive,
        Observation::Compromised | Observation::Lost(_) => Heartbeat::Compromised,
    })
}

/// Runs one deadline-bounded challenge against a booted bed: attestation
/// rounds with fresh nonces, retrying transport losses (with a
/// virtual-time backoff) until a verdict lands or the policy's budget —
/// deadline or retry count — runs out.
///
/// # Errors
///
/// State errors only (never booted); verdicts, including
/// [`ChallengeVerdict::TimedOut`], are outcomes.
pub fn challenge(bed: &mut TestBed, policy: &AttestPolicy) -> Result<ChallengeOutcome, SalusError> {
    let clock = bed.clock.clone();
    let sw = clock.stopwatch();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let verdict = match observe(bed)? {
            Observation::Alive => ChallengeVerdict::Alive,
            Observation::Compromised => ChallengeVerdict::Compromised,
            Observation::Lost(_) => {
                if attempts > policy.max_transient_retries
                    || sw.elapsed() >= policy.challenge_deadline
                {
                    ChallengeVerdict::TimedOut
                } else {
                    // Backoff in virtual time so the retry stream
                    // terminates inside the deadline even on a
                    // zero-latency fabric.
                    clock.advance(policy.retry_backoff());
                    continue;
                }
            }
        };
        return Ok(ChallengeOutcome {
            verdict,
            attempts,
            elapsed: sw.elapsed(),
        });
    }
}

/// Runs `rounds` heartbeats and returns how many reported
/// [`Heartbeat::Alive`].
///
/// # Errors
///
/// Propagates state errors from [`heartbeat`].
pub fn monitor(bed: &mut TestBed, rounds: usize) -> Result<usize, SalusError> {
    let mut alive = 0;
    for _ in 0..rounds {
        if heartbeat(bed)? == Heartbeat::Alive {
            alive += 1;
        }
    }
    Ok(alive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::{secure_boot, BootPlan};
    use crate::instance::TestBedConfig;

    fn booted_bed() -> TestBed {
        let mut bed = TestBed::provision(TestBedConfig::quick());
        secure_boot(&mut bed, BootPlan::single()).unwrap();
        bed
    }

    #[test]
    fn heartbeats_stay_alive_on_an_untouched_cl() {
        let mut bed = booted_bed();
        assert_eq!(monitor(&mut bed, 10).unwrap(), 10);
    }

    #[test]
    fn heartbeat_requires_boot() {
        let mut bed = TestBed::provision(TestBedConfig::quick());
        assert!(heartbeat(&mut bed).is_err());
    }

    #[test]
    fn runtime_bitstream_replacement_is_detected() {
        let mut bed = booted_bed();
        assert_eq!(heartbeat(&mut bed).unwrap(), Heartbeat::Alive);

        // The shell replays the *same* encrypted bitstream it observed
        // at boot — a perfectly valid stream for this device. But the
        // replay carries the boot-time injection, while the SM enclave
        // has advanced: re-run the deployment path to inject fresh keys
        // first, making the replay stale.
        let old = std::sync::Arc::clone(bed.sm_app.prepared_bitstream().unwrap());
        secure_boot(&mut bed, BootPlan::single()).unwrap(); // fresh session, fresh keys
        assert_eq!(heartbeat(&mut bed).unwrap(), Heartbeat::Alive);

        // Runtime replacement: shell silently reloads the old stream.
        bed.shell.deploy_bitstream(&old).unwrap();

        assert_eq!(heartbeat(&mut bed).unwrap(), Heartbeat::Compromised);
    }

    #[test]
    fn heartbeat_detects_and_recovers_from_channel_attacks() {
        let mut bed = booted_bed();
        // A bus attack on the heartbeat itself is observed…
        bed.fabric
            .channel(
                crate::instance::endpoints::HOST,
                crate::instance::endpoints::FPGA,
            )
            .interpose(salus_net::adversary::BitFlipper::new(0, 2));
        assert_eq!(heartbeat(&mut bed).unwrap(), Heartbeat::Compromised);
        // Channel restored → alive again.
        bed.fabric
            .channel(
                crate::instance::endpoints::HOST,
                crate::instance::endpoints::FPGA,
            )
            .clear_adversary();
        assert_eq!(heartbeat(&mut bed).unwrap(), Heartbeat::Alive);
    }
}
