//! Append-only, hash-chained audit log of control-plane events.
//!
//! Every consequential control-plane action — deploys (cold, warm, and
//! failed), evictions, health transitions, window faults, runtime
//! re-attestation challenges and their verdicts, session and lane
//! fences — is appended to the [`AuditLog`] as one [`AuditEvent`]. The
//! log is a [`HashChain`] (`platform::chain`) under the `salus-audit`
//! digest domain: mutating, reordering, or truncating any prefix of the
//! log is detectable from the chain head alone, [`HashChain::verify`]
//! pinpoints the first broken record, and the canonical serialization
//! lets two control planes driven by the same seed be compared
//! byte-for-byte.

use super::chain::{
    deploy_path, path_tag, push_slot, push_str, push_u64, ChainEntry, ChainRecord, Cursor,
    HashChain,
};
use super::fleet::{DeployPath, DeviceId, SlotId, TenantId};
use super::health::HealthState;
use crate::runtime_attest::ChallengeVerdict;
use crate::SalusError;

/// One control-plane event worth showing an auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// A tenant deployment reached a running session on `slot` via
    /// `path` (cold boot, warm-key redeploy, or warm-image redeploy).
    Deploy {
        /// The deployed tenant.
        tenant: TenantId,
        /// The (device, partition) slot it landed on.
        slot: SlotId,
        /// How much of the boot pipeline was re-run.
        path: DeployPath,
    },
    /// A boot attempt on `slot` failed terminally (for that slot).
    DeployFailed {
        /// The tenant whose boot failed.
        tenant: TenantId,
        /// The slot the boot ran on.
        slot: SlotId,
        /// The rendered error.
        error: String,
    },
    /// A boot suspended mid-machine (outage) and was parked resumable.
    DeploySuspended {
        /// The suspended tenant.
        tenant: TenantId,
        /// The slot holding the suspended boot.
        slot: SlotId,
        /// The boot step the machine stopped at.
        step: String,
    },
    /// A tenant was evicted and its slot released.
    Evicted {
        /// The evicted tenant.
        tenant: TenantId,
        /// The freed slot.
        slot: SlotId,
    },
    /// A board changed admission state in the health tracker.
    HealthTransition {
        /// The board.
        device: DeviceId,
        /// Its new state.
        state: HealthState,
    },
    /// A DRAM window protection fault fired during serving.
    WindowFault {
        /// The tenant whose lane faulted.
        tenant: TenantId,
        /// The slot it runs on.
        slot: SlotId,
    },
    /// A re-attestation challenge was issued to a live CL.
    AttestChallenge {
        /// The sweep epoch.
        epoch: u64,
        /// The challenged tenant.
        tenant: TenantId,
        /// The challenged slot.
        slot: SlotId,
        /// Per-epoch idempotency token: retries inside one challenge
        /// share it, so replays under the fault plane are attributable.
        token: u64,
    },
    /// A re-attestation challenge reached a verdict.
    AttestOutcome {
        /// The sweep epoch.
        epoch: u64,
        /// The challenged tenant.
        tenant: TenantId,
        /// The challenged slot.
        slot: SlotId,
        /// The terminal verdict.
        verdict: ChallengeVerdict,
    },
    /// A session was fenced by the re-attestation plane.
    SessionFenced {
        /// The fenced tenant.
        tenant: TenantId,
        /// The slot its session held.
        slot: SlotId,
    },
    /// A serving lane was fenced and its queue drained with errors.
    LaneFenced {
        /// The fenced tenant.
        tenant: TenantId,
        /// The slot its lane served.
        slot: SlotId,
        /// Queued requests drained with a `SessionFenced` error.
        drained: u64,
    },
    /// Capability-aware placement refused a deployment before any boot
    /// ran — e.g. a bitstream compiled for one device family asked to
    /// land on a fleet with no compatible free board (fail closed).
    PlacementRefused {
        /// The refused tenant.
        tenant: TenantId,
        /// The rendered refusal.
        reason: String,
    },
    /// A tenant gave up a suspended deploy: the lease was released
    /// without a boot ever completing (distinct from `DeployFailed` —
    /// the tenant chose to stop, no board misbehaved).
    DeployAbandoned {
        /// The abandoning tenant.
        tenant: TenantId,
        /// The slot it released.
        slot: SlotId,
    },
    /// Control-plane recovery finished rebuilding this plane from its
    /// write-ahead journal after a crash.
    RecoveryCompleted {
        /// Committed operations replayed into the fresh plane.
        replayed: u64,
        /// Open intents rolled back (the crash ate their effects).
        rolled_back: u64,
    },
}

const TAG_DEPLOY: u8 = 1;
const TAG_DEPLOY_FAILED: u8 = 2;
const TAG_DEPLOY_SUSPENDED: u8 = 3;
const TAG_EVICTED: u8 = 4;
const TAG_HEALTH: u8 = 5;
const TAG_WINDOW_FAULT: u8 = 6;
const TAG_ATTEST_CHALLENGE: u8 = 7;
const TAG_ATTEST_OUTCOME: u8 = 8;
const TAG_SESSION_FENCED: u8 = 9;
const TAG_LANE_FENCED: u8 = 10;
const TAG_PLACEMENT_REFUSED: u8 = 11;
const TAG_DEPLOY_ABANDONED: u8 = 12;
const TAG_RECOVERY_COMPLETED: u8 = 13;

fn health_tag(state: HealthState) -> u8 {
    match state {
        HealthState::Healthy => 0,
        HealthState::Probation => 1,
        HealthState::Quarantined => 2,
    }
}

fn verdict_tag(verdict: ChallengeVerdict) -> u8 {
    match verdict {
        ChallengeVerdict::Alive => 0,
        ChallengeVerdict::Compromised => 1,
        ChallengeVerdict::TimedOut => 2,
    }
}

impl ChainEntry for AuditEvent {
    const DOMAIN: &'static str = "salus-audit";
    const MAGIC: [u8; 16] = *b"salus-audit-log\0";

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AuditEvent::Deploy { tenant, slot, path } => {
                out.push(TAG_DEPLOY);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
                out.push(path_tag(*path));
            }
            AuditEvent::DeployFailed {
                tenant,
                slot,
                error,
            } => {
                out.push(TAG_DEPLOY_FAILED);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
                push_str(out, error);
            }
            AuditEvent::DeploySuspended { tenant, slot, step } => {
                out.push(TAG_DEPLOY_SUSPENDED);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
                push_str(out, step);
            }
            AuditEvent::Evicted { tenant, slot } => {
                out.push(TAG_EVICTED);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
            }
            AuditEvent::HealthTransition { device, state } => {
                out.push(TAG_HEALTH);
                push_u64(out, *device as u64);
                out.push(health_tag(*state));
            }
            AuditEvent::WindowFault { tenant, slot } => {
                out.push(TAG_WINDOW_FAULT);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
            }
            AuditEvent::AttestChallenge {
                epoch,
                tenant,
                slot,
                token,
            } => {
                out.push(TAG_ATTEST_CHALLENGE);
                push_u64(out, *epoch);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
                push_u64(out, *token);
            }
            AuditEvent::AttestOutcome {
                epoch,
                tenant,
                slot,
                verdict,
            } => {
                out.push(TAG_ATTEST_OUTCOME);
                push_u64(out, *epoch);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
                out.push(verdict_tag(*verdict));
            }
            AuditEvent::SessionFenced { tenant, slot } => {
                out.push(TAG_SESSION_FENCED);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
            }
            AuditEvent::LaneFenced {
                tenant,
                slot,
                drained,
            } => {
                out.push(TAG_LANE_FENCED);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
                push_u64(out, *drained);
            }
            AuditEvent::PlacementRefused { tenant, reason } => {
                out.push(TAG_PLACEMENT_REFUSED);
                push_u64(out, tenant.0);
                push_str(out, reason);
            }
            AuditEvent::DeployAbandoned { tenant, slot } => {
                out.push(TAG_DEPLOY_ABANDONED);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
            }
            AuditEvent::RecoveryCompleted {
                replayed,
                rolled_back,
            } => {
                out.push(TAG_RECOVERY_COMPLETED);
                push_u64(out, *replayed);
                push_u64(out, *rolled_back);
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<AuditEvent, &'static str> {
        let tag = cur.u8()?;
        Ok(match tag {
            TAG_HEALTH => AuditEvent::HealthTransition {
                device: cur.u64()? as usize,
                state: match cur.u8()? {
                    0 => HealthState::Healthy,
                    1 => HealthState::Probation,
                    2 => HealthState::Quarantined,
                    _ => return Err("unknown health state"),
                },
            },
            TAG_ATTEST_CHALLENGE => AuditEvent::AttestChallenge {
                epoch: cur.u64()?,
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
                token: cur.u64()?,
            },
            TAG_ATTEST_OUTCOME => AuditEvent::AttestOutcome {
                epoch: cur.u64()?,
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
                verdict: match cur.u8()? {
                    0 => ChallengeVerdict::Alive,
                    1 => ChallengeVerdict::Compromised,
                    2 => ChallengeVerdict::TimedOut,
                    _ => return Err("unknown verdict"),
                },
            },
            TAG_PLACEMENT_REFUSED => AuditEvent::PlacementRefused {
                tenant: TenantId(cur.u64()?),
                reason: cur.string()?,
            },
            TAG_RECOVERY_COMPLETED => AuditEvent::RecoveryCompleted {
                replayed: cur.u64()?,
                rolled_back: cur.u64()?,
            },
            // Every other event starts with its tenant and slot.
            _ => {
                let (tenant, slot) = (TenantId(cur.u64()?), cur.slot()?);
                match tag {
                    TAG_DEPLOY => AuditEvent::Deploy {
                        tenant,
                        slot,
                        path: deploy_path(cur.u8()?)?,
                    },
                    TAG_DEPLOY_FAILED => AuditEvent::DeployFailed {
                        tenant,
                        slot,
                        error: cur.string()?,
                    },
                    TAG_DEPLOY_SUSPENDED => AuditEvent::DeploySuspended {
                        tenant,
                        slot,
                        step: cur.string()?,
                    },
                    TAG_EVICTED => AuditEvent::Evicted { tenant, slot },
                    TAG_WINDOW_FAULT => AuditEvent::WindowFault { tenant, slot },
                    TAG_SESSION_FENCED => AuditEvent::SessionFenced { tenant, slot },
                    TAG_LANE_FENCED => AuditEvent::LaneFenced {
                        tenant,
                        slot,
                        drained: cur.u64()?,
                    },
                    TAG_DEPLOY_ABANDONED => AuditEvent::DeployAbandoned { tenant, slot },
                    _ => return Err("unknown event tag"),
                }
            }
        })
    }

    fn error(reason: &'static str) -> SalusError {
        SalusError::AuditChainBroken(reason)
    }
}

/// One hash-chained record of the audit log.
pub type AuditRecord = ChainRecord<AuditEvent>;

/// The append-only audit hash chain.
pub type AuditLog = HashChain<AuditEvent>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::chain::tests::{seeded_chain, Sample};
    use salus_net::fault::SplitMix64;
    use std::collections::HashSet;

    impl Sample for AuditEvent {
        fn sample(rng: &mut SplitMix64, i: usize) -> AuditEvent {
            let tenant = TenantId(rng.below(4));
            let s = SlotId {
                device: rng.below(3) as usize,
                partition: rng.below(2) as usize,
            };
            match rng.below(13) {
                0 => AuditEvent::Deploy {
                    tenant,
                    slot: s,
                    path: deploy_path(rng.below(3) as u8).unwrap(),
                },
                1 => AuditEvent::DeployFailed {
                    tenant,
                    slot: s,
                    error: format!("boot error {i}"),
                },
                2 => AuditEvent::DeploySuspended {
                    tenant,
                    slot: s,
                    step: format!("step-{}", rng.below(19)),
                },
                3 => AuditEvent::Evicted { tenant, slot: s },
                4 => AuditEvent::HealthTransition {
                    device: s.device,
                    state: match rng.below(3) {
                        0 => HealthState::Healthy,
                        1 => HealthState::Probation,
                        _ => HealthState::Quarantined,
                    },
                },
                5 => AuditEvent::WindowFault { tenant, slot: s },
                6 => AuditEvent::AttestChallenge {
                    epoch: rng.below(9),
                    tenant,
                    slot: s,
                    token: rng.next_u64(),
                },
                7 => AuditEvent::AttestOutcome {
                    epoch: rng.below(9),
                    tenant,
                    slot: s,
                    verdict: match rng.below(3) {
                        0 => ChallengeVerdict::Alive,
                        1 => ChallengeVerdict::Compromised,
                        _ => ChallengeVerdict::TimedOut,
                    },
                },
                8 => AuditEvent::SessionFenced { tenant, slot: s },
                9 => AuditEvent::LaneFenced {
                    tenant,
                    slot: s,
                    drained: rng.below(5),
                },
                10 => AuditEvent::PlacementRefused {
                    tenant,
                    reason: format!("refusal {i}"),
                },
                11 => AuditEvent::DeployAbandoned { tenant, slot: s },
                _ => AuditEvent::RecoveryCompleted {
                    replayed: rng.below(20),
                    rolled_back: rng.below(3),
                },
            }
        }
    }

    #[test]
    fn every_event_tag_roundtrips() {
        let log = seeded_chain::<AuditEvent>(5, 200);
        let variants: HashSet<_> = log
            .records()
            .iter()
            .map(|r| std::mem::discriminant(&r.entry))
            .collect();
        assert_eq!(variants.len(), usize::from(TAG_RECOVERY_COMPLETED));
        assert_eq!(AuditLog::from_bytes(&log.to_bytes()).unwrap(), log);
    }
}
