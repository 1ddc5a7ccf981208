//! Write-ahead intent journal of the control plane.
//!
//! Every multi-step control-plane mutation — deploys, evictions, warm
//! redeploys, fences, suspension resumes and abandons — writes an
//! *intent* record here before touching any fleet state, and a *commit*
//! record only after every effect of the operation is in place
//! (an [`abort`](Journal::abort) or [`suspend`](Journal::suspend)
//! record closes the other outcomes). The journal is therefore the one
//! durable truth about what the control plane was doing when it died:
//! recovery replays committed intents to rebuild occupancy, health,
//! and tenant records, and rolls back — or rolls forward, when the
//! effects are durably present — whatever was still open.
//!
//! Records live in a [`HashChain`] (`platform::chain`), the same
//! primitive as the audit log, under the `salus-journal` digest domain.
//! [`Journal::verify`] pinpoints the first forged, reordered, or
//! truncated record — including a commit or abort that references an
//! intent the journal never opened — and [`HashChain::to_bytes`] /
//! [`HashChain::from_bytes`] give a canonical serialization that
//! rejects any bit flip.

use std::collections::HashMap;
use std::ops::Deref;
use std::time::Duration;

use super::chain::{
    deploy_path, path_tag, push_duration, push_slot, push_str, push_u64, ChainEntry, ChainFault,
    ChainRecord, Cursor, HashChain,
};
use super::fleet::{DeployPath, SlotId, TenantId};
use crate::SalusError;

/// Identity of one journaled operation: the index of its intent record
/// among all intents, assigned by [`Journal::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// What a journaled operation set out to do, written *before* acting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntentOp {
    /// Register a tenant under `name` with its derived seed. The two
    /// writes (intent, commit) bracket nothing fallible, but the record
    /// is what lets recovery rebuild the registry with identical ids
    /// and seeds.
    Register {
        /// The id the registry will assign.
        tenant: TenantId,
        /// The tenant's name.
        name: String,
        /// The deterministic per-tenant seed.
        seed: u64,
    },
    /// Boot `tenant` onto the freshly leased `slot` (one placement of a
    /// deploy; each cross-board retry opens its own intent).
    Deploy {
        /// The deploying tenant.
        tenant: TenantId,
        /// The leased slot the boot runs on.
        slot: SlotId,
    },
    /// Resume `tenant`'s suspended boot on its still-leased `slot`.
    Resume {
        /// The suspended tenant.
        tenant: TenantId,
        /// The slot the suspension kept leased.
        slot: SlotId,
    },
    /// Park `tenant`'s deployment and free `slot`.
    Evict {
        /// The evicted tenant.
        tenant: TenantId,
        /// The slot being freed.
        slot: SlotId,
    },
    /// Warm-image reload of `tenant`'s parked ciphertext onto `slot`.
    Redeploy {
        /// The returning tenant.
        tenant: TenantId,
        /// The re-leased affinity slot.
        slot: SlotId,
    },
    /// Fence `tenant`'s running deployment and free `slot`.
    Fence {
        /// The fenced tenant.
        tenant: TenantId,
        /// The slot being released.
        slot: SlotId,
    },
    /// Give up `tenant`'s suspended boot and free `slot`.
    Abandon {
        /// The abandoning tenant.
        tenant: TenantId,
        /// The slot being released.
        slot: SlotId,
    },
}

impl IntentOp {
    /// The tenant the operation acts for.
    pub fn tenant(&self) -> TenantId {
        match self {
            IntentOp::Register { tenant, .. }
            | IntentOp::Deploy { tenant, .. }
            | IntentOp::Resume { tenant, .. }
            | IntentOp::Evict { tenant, .. }
            | IntentOp::Redeploy { tenant, .. }
            | IntentOp::Fence { tenant, .. }
            | IntentOp::Abandon { tenant, .. } => *tenant,
        }
    }

    /// The slot the operation acts on (`None` for registration).
    pub fn slot(&self) -> Option<SlotId> {
        match self {
            IntentOp::Register { .. } => None,
            IntentOp::Deploy { slot, .. }
            | IntentOp::Resume { slot, .. }
            | IntentOp::Evict { slot, .. }
            | IntentOp::Redeploy { slot, .. }
            | IntentOp::Fence { slot, .. }
            | IntentOp::Abandon { slot, .. } => Some(*slot),
        }
    }
}

/// Why an open intent was closed without committing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortKind {
    /// The operation itself failed (boot error, release refusal): the
    /// board and tenant are charged exactly as the live path charged
    /// them, so replay reproduces health and registry state.
    Failed,
    /// Recovery rolled the intent back after a crash: the controller
    /// died, the operation never happened, and neither the board nor
    /// the tenant is charged for it.
    RolledBack,
}

/// One journal entry. An operation's life is `Intent` → effects →
/// exactly one of `Commit` / `Abort`, possibly pausing at `Suspend`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// An operation is about to run.
    Intent {
        /// The id [`Journal::begin`] assigned.
        op: OpId,
        /// What it set out to do.
        action: IntentOp,
    },
    /// Every effect of `op` is in place; replay must apply them.
    Commit {
        /// The committed operation.
        op: OpId,
        /// The deploy path taken, for deploy-like ops.
        path: Option<DeployPath>,
        /// Model time the operation consumed (deploy-like ops charge it
        /// to the tenant record on replay).
        elapsed: Duration,
    },
    /// `op` ended without its effects; see [`AbortKind`] for charging.
    Abort {
        /// The aborted operation.
        op: OpId,
        /// The rendered error.
        reason: String,
        /// Whether replay charges the board and tenant.
        kind: AbortKind,
    },
    /// `op` parked resumable (manufacturer outage); its slot stays
    /// leased until a later resume or abandon op settles it.
    Suspend {
        /// The suspended operation.
        op: OpId,
        /// The boot step it parked on.
        step: String,
    },
}

impl JournalEntry {
    /// The operation this entry belongs to.
    pub fn op(&self) -> OpId {
        match self {
            JournalEntry::Intent { op, .. }
            | JournalEntry::Commit { op, .. }
            | JournalEntry::Abort { op, .. }
            | JournalEntry::Suspend { op, .. } => *op,
        }
    }
}

const TAG_INTENT: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_SUSPEND: u8 = 4;

const OP_REGISTER: u8 = 1;
const OP_DEPLOY: u8 = 2;
const OP_RESUME: u8 = 3;
const OP_EVICT: u8 = 4;
const OP_REDEPLOY: u8 = 5;
const OP_FENCE: u8 = 6;
const OP_ABANDON: u8 = 7;

const PATH_NONE: u8 = 255;

impl IntentOp {
    fn tag(&self) -> u8 {
        match self {
            IntentOp::Register { .. } => OP_REGISTER,
            IntentOp::Deploy { .. } => OP_DEPLOY,
            IntentOp::Resume { .. } => OP_RESUME,
            IntentOp::Evict { .. } => OP_EVICT,
            IntentOp::Redeploy { .. } => OP_REDEPLOY,
            IntentOp::Fence { .. } => OP_FENCE,
            IntentOp::Abandon { .. } => OP_ABANDON,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        push_u64(out, self.tenant().0);
        if let IntentOp::Register { name, seed, .. } = self {
            push_str(out, name);
            push_u64(out, *seed);
        }
        if let Some(slot) = self.slot() {
            push_slot(out, slot);
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<IntentOp, &'static str> {
        let tag = cur.u8()?;
        let tenant = TenantId(cur.u64()?);
        if tag == OP_REGISTER {
            let name = cur.string()?;
            let seed = cur.u64()?;
            return Ok(IntentOp::Register { tenant, name, seed });
        }
        let slot = cur.slot()?;
        Ok(match tag {
            OP_DEPLOY => IntentOp::Deploy { tenant, slot },
            OP_RESUME => IntentOp::Resume { tenant, slot },
            OP_EVICT => IntentOp::Evict { tenant, slot },
            OP_REDEPLOY => IntentOp::Redeploy { tenant, slot },
            OP_FENCE => IntentOp::Fence { tenant, slot },
            OP_ABANDON => IntentOp::Abandon { tenant, slot },
            _ => return Err("unknown intent op"),
        })
    }
}

impl ChainEntry for JournalEntry {
    const DOMAIN: &'static str = "salus-journal";
    const MAGIC: [u8; 16] = *b"salus-journal\0\0\0";

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JournalEntry::Intent { op, action } => {
                out.push(TAG_INTENT);
                push_u64(out, op.0);
                action.encode(out);
            }
            JournalEntry::Commit { op, path, elapsed } => {
                out.push(TAG_COMMIT);
                push_u64(out, op.0);
                out.push(path.map_or(PATH_NONE, path_tag));
                push_duration(out, *elapsed);
            }
            JournalEntry::Abort { op, reason, kind } => {
                out.push(TAG_ABORT);
                push_u64(out, op.0);
                push_str(out, reason);
                out.push(match kind {
                    AbortKind::Failed => 0,
                    AbortKind::RolledBack => 1,
                });
            }
            JournalEntry::Suspend { op, step } => {
                out.push(TAG_SUSPEND);
                push_u64(out, op.0);
                push_str(out, step);
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<JournalEntry, &'static str> {
        Ok(match cur.u8()? {
            TAG_INTENT => JournalEntry::Intent {
                op: OpId(cur.u64()?),
                action: IntentOp::decode(cur)?,
            },
            TAG_COMMIT => JournalEntry::Commit {
                op: OpId(cur.u64()?),
                path: match cur.u8()? {
                    PATH_NONE => None,
                    tag => Some(deploy_path(tag)?),
                },
                elapsed: cur.duration()?,
            },
            TAG_ABORT => JournalEntry::Abort {
                op: OpId(cur.u64()?),
                reason: cur.string()?,
                kind: match cur.u8()? {
                    0 => AbortKind::Failed,
                    1 => AbortKind::RolledBack,
                    _ => return Err("unknown abort kind"),
                },
            },
            TAG_SUSPEND => JournalEntry::Suspend {
                op: OpId(cur.u64()?),
                step: cur.string()?,
            },
            _ => return Err("unknown entry tag"),
        })
    }

    fn error(reason: &'static str) -> SalusError {
        SalusError::JournalCorrupt(reason)
    }
}

/// One hash-chained journal record.
pub type JournalRecord = ChainRecord<JournalEntry>;

/// One still-unsettled operation, as reported by [`Journal::open_ops`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenOp {
    /// The operation.
    pub op: OpId,
    /// Its journaled intent.
    pub action: IntentOp,
    /// True when the last word on the op is a `Suspend` record (the
    /// tenant may still resume it); false for an op the crash caught
    /// mid-flight.
    pub suspended: bool,
}

/// The write-ahead journal itself: an append-only hash chain plus the
/// op-id counter. Derefs to the chain for read access (head, records,
/// serialization); appends go only through the op lifecycle below.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    chain: HashChain<JournalEntry>,
    next_op: u64,
}

impl Deref for Journal {
    type Target = HashChain<JournalEntry>;

    fn deref(&self) -> &HashChain<JournalEntry> {
        &self.chain
    }
}

/// Adopts a decoded or hand-built chain *without* verifying it; run
/// [`Journal::verify`] afterwards. The op counter resumes after the
/// highest intent id present.
impl From<HashChain<JournalEntry>> for Journal {
    fn from(chain: HashChain<JournalEntry>) -> Journal {
        let next_op = chain
            .records()
            .iter()
            .filter_map(|r| match &r.entry {
                JournalEntry::Intent { op, .. } => Some(op.0 + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Journal { chain, next_op }
    }
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Opens a new operation: appends its intent record at virtual time
    /// `at` and returns the assigned id.
    pub fn begin(&mut self, at: Duration, action: IntentOp) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        self.chain.append(at, JournalEntry::Intent { op, action });
        op
    }

    /// Commits `op`: every effect of the operation is in place.
    pub fn commit(&mut self, at: Duration, op: OpId, path: Option<DeployPath>, elapsed: Duration) {
        self.chain
            .append(at, JournalEntry::Commit { op, path, elapsed });
    }

    /// Closes `op` without its effects.
    pub fn abort(&mut self, at: Duration, op: OpId, reason: &str, kind: AbortKind) {
        self.chain.append(
            at,
            JournalEntry::Abort {
                op,
                reason: reason.to_owned(),
                kind,
            },
        );
    }

    /// Parks `op` resumable at boot step `step`.
    pub fn suspend(&mut self, at: Duration, op: OpId, step: &str) {
        self.chain.append(
            at,
            JournalEntry::Suspend {
                op,
                step: step.to_owned(),
            },
        );
    }

    /// Every operation with an intent but no commit or abort, in op
    /// order — the set recovery must settle.
    pub fn open_ops(&self) -> Vec<OpenOp> {
        let mut open: Vec<OpenOp> = Vec::new();
        for record in self.chain.records() {
            let op = record.entry.op();
            match &record.entry {
                JournalEntry::Intent { action, .. } => open.push(OpenOp {
                    op,
                    action: action.clone(),
                    suspended: false,
                }),
                JournalEntry::Suspend { .. } => {
                    if let Some(o) = open.iter_mut().find(|o| o.op == op) {
                        o.suspended = true;
                    }
                }
                JournalEntry::Commit { .. } | JournalEntry::Abort { .. } => {
                    open.retain(|o| o.op != op);
                }
            }
        }
        open.sort_by_key(|o| o.op);
        open
    }

    /// [`HashChain::verify`] plus the op lifecycle: a commit, abort, or
    /// suspend referencing an operation the journal never opened (or
    /// already settled), or an intent reusing an op id, is a record a
    /// replayer must never trust.
    ///
    /// # Errors
    ///
    /// [`ChainFault`] naming the first bad record.
    pub fn verify(&self) -> Result<(), ChainFault> {
        // OpId → settled? (false = open, true = committed/aborted)
        let mut ops: HashMap<OpId, bool> = HashMap::new();
        self.chain.verify_with(|entry| {
            let op = entry.op();
            match (entry, ops.get(&op).copied()) {
                (JournalEntry::Intent { .. }, None) => {
                    ops.insert(op, false);
                    Ok(())
                }
                (JournalEntry::Intent { .. }, Some(_)) => Err("intent reuses an op id"),
                (_, None) => Err("references an op with no intent"),
                (JournalEntry::Suspend { .. }, Some(false)) => Ok(()),
                (JournalEntry::Suspend { .. }, Some(true)) => Err("suspend on a settled op"),
                (_, Some(true)) => Err("op settled twice"),
                (_, Some(false)) => {
                    ops.insert(op, true);
                    Ok(())
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::chain::tests::Sample;
    use salus_net::fault::SplitMix64;

    impl Sample for JournalEntry {
        fn sample(rng: &mut SplitMix64, i: usize) -> JournalEntry {
            let op = OpId(rng.below(8));
            let tenant = TenantId(rng.below(4));
            let s = SlotId {
                device: rng.below(3) as usize,
                partition: rng.below(2) as usize,
            };
            match rng.below(4) {
                0 => JournalEntry::Intent {
                    op,
                    action: match rng.below(7) {
                        0 => IntentOp::Register {
                            tenant,
                            name: format!("tenant-{i}"),
                            seed: rng.next_u64(),
                        },
                        1 => IntentOp::Deploy { tenant, slot: s },
                        2 => IntentOp::Resume { tenant, slot: s },
                        3 => IntentOp::Evict { tenant, slot: s },
                        4 => IntentOp::Redeploy { tenant, slot: s },
                        5 => IntentOp::Fence { tenant, slot: s },
                        _ => IntentOp::Abandon { tenant, slot: s },
                    },
                },
                1 => JournalEntry::Commit {
                    op,
                    // Tag 3 is no path: a commit of a non-deploy op.
                    path: deploy_path(rng.below(4) as u8).ok(),
                    elapsed: Duration::from_millis(rng.below(9)),
                },
                2 => JournalEntry::Abort {
                    op,
                    reason: format!("boot error {i}"),
                    kind: [AbortKind::Failed, AbortKind::RolledBack][rng.below(2) as usize],
                },
                _ => JournalEntry::Suspend {
                    op,
                    step: format!("step-{}", rng.below(19)),
                },
            }
        }
    }

    fn deploy(tenant: u64) -> IntentOp {
        IntentOp::Deploy {
            tenant: TenantId(tenant),
            slot: SlotId {
                device: 0,
                partition: 0,
            },
        }
    }

    #[test]
    fn open_ops_tracks_intents_until_settled() {
        let mut journal = Journal::new();
        let t = Duration::ZERO;
        let a = journal.begin(t, deploy(1));
        let b = journal.begin(t, deploy(2));
        assert_eq!(journal.open_ops().len(), 2);

        journal.suspend(t, a, "DeviceKeyTransfer");
        let open = journal.open_ops();
        assert!(open.iter().any(|o| o.op == a && o.suspended));
        assert!(open.iter().any(|o| o.op == b && !o.suspended));

        journal.commit(t, a, Some(DeployPath::Cold), Duration::ZERO);
        journal.abort(t, b, "release refused", AbortKind::RolledBack);
        assert!(journal.open_ops().is_empty());
        journal.verify().unwrap();
    }

    #[test]
    fn dangling_and_double_settlements_are_rejected() {
        let t = Duration::ZERO;

        // A commit with no intent: a replayer must never apply it.
        let mut journal = Journal::new();
        journal.commit(t, OpId(9), None, Duration::ZERO);
        let fault = journal.verify().unwrap_err();
        assert_eq!(fault.reason, "references an op with no intent");

        // Settling one op twice.
        let mut journal = Journal::new();
        let op = journal.begin(t, deploy(1));
        journal.commit(t, op, None, Duration::ZERO);
        journal.abort(t, op, "again", AbortKind::Failed);
        let fault = journal.verify().unwrap_err();
        assert_eq!(fault.index, 2);
        assert_eq!(fault.reason, "op settled twice");
        assert_eq!(
            SalusError::from(fault),
            SalusError::JournalCorrupt("op settled twice")
        );

        // Reused intent id.
        let mut journal = Journal::new();
        journal.begin(t, deploy(0));
        let mut records = journal.records().to_vec();
        let mut dup = records[0].clone();
        dup.seq = 1;
        dup.prev_digest = records[0].digest;
        dup.digest = dup.expected_digest();
        records.push(dup);
        let fault = Journal::from(HashChain::from_records(records))
            .verify()
            .unwrap_err();
        assert_eq!(fault.index, 1);
        assert_eq!(fault.reason, "intent reuses an op id");
    }

    #[test]
    fn decoded_journal_resumes_the_op_counter() {
        let mut journal = Journal::new();
        let t = Duration::ZERO;
        for tenant in 0..3 {
            let op = journal.begin(t, deploy(tenant));
            journal.commit(t, op, Some(DeployPath::Cold), Duration::from_millis(3));
        }
        let mut decoded = Journal::from(HashChain::from_bytes(&journal.to_bytes()).unwrap());
        assert_eq!(decoded, journal);
        decoded.verify().unwrap();

        // The restored op counter continues, never reuses.
        assert_eq!(decoded.begin(Duration::from_secs(3600), deploy(0)), OpId(3));
    }
}
