//! The control plane's ledger: tenant records and board health, plus
//! the one rule for what a settled journal record charges them.
//!
//! [`Ledger::apply`] is that rule. The live
//! [`ControlPlane`](super::ControlPlane) calls it at the moment each
//! mutation settles, and [`ControlPlane::recover`](super::ControlPlane::recover)
//! folds the surviving journal through it record by record, so a
//! recovered ledger equals the never-crashed one by construction. The
//! ledger a journal prefix folds to is therefore the state a checkpoint
//! snapshots.
//!
//! Health replay is exact because the tracker draws a quarantine
//! cool-down only when a board *enters* quarantine: the same charges in
//! the same order at the same virtual times reproduce every
//! `readmit_at` and leave the seeded stream at the same position.

use std::time::Duration;

use crate::SalusError;

use super::fleet::{DeployPath, DeviceId, TenantId, TenantRecord};
use super::health::{DeviceHealth, HealthPolicy, HealthState};
use super::journal::{AbortKind, IntentOp};

/// How a journaled operation settled: the content of its commit or
/// abort record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settlement {
    /// Every effect is in place.
    Committed {
        /// The deploy path taken, for deploy-like ops.
        path: Option<DeployPath>,
        /// Model time a deploy-like op consumed.
        elapsed: Duration,
    },
    /// Closed without its effects.
    Aborted(AbortKind),
}

impl Settlement {
    /// The commit of an op that is not deploy-like.
    pub const DONE: Settlement = Settlement::Committed {
        path: None,
        elapsed: Duration::ZERO,
    };
}

/// Everything the journal's settled records charge: the tenant
/// records and the per-board health tracker.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Indexed by tenant id: ids are assigned in registration order and
    /// never reused.
    tenants: Vec<TenantRecord>,
    health: DeviceHealth,
}

impl Ledger {
    /// No tenants, and a fresh tracker for `devices` boards whose
    /// cool-downs draw from a stream seeded with `seed`.
    pub fn new(devices: usize, seed: u64, policy: HealthPolicy) -> Ledger {
        Ledger {
            tenants: Vec::new(),
            health: DeviceHealth::new(devices, seed, policy),
        }
    }

    /// The record for `id`, if registered.
    pub fn tenant(&self, id: TenantId) -> Option<&TenantRecord> {
        self.tenants.get(id.0 as usize)
    }

    /// Every tenant record, in id order.
    pub fn tenants(&self) -> &[TenantRecord] {
        &self.tenants
    }

    /// The id the next registration is assigned.
    pub fn next_tenant(&self) -> TenantId {
        TenantId(self.tenants.len() as u64)
    }

    /// The board health tracker.
    pub fn health(&self) -> &DeviceHealth {
        &self.health
    }

    /// Charges `action`, settled as `settlement` at virtual time `at`,
    /// to the tenant's record and the board's health; a rolled-back op
    /// charges nothing. Returns the board's new admission state when
    /// the charge moved it.
    ///
    /// # Errors
    ///
    /// [`SalusError::RecoveryFailed`] when a registration names an id
    /// other than the next one in registration order.
    pub fn apply(
        &mut self,
        action: &IntentOp,
        settlement: Settlement,
        at: Duration,
    ) -> Result<Option<(DeviceId, HealthState)>, SalusError> {
        use IntentOp::{Abandon, Deploy, Evict, Fence, Redeploy, Refuse, Register, Resume};
        use Settlement::{Aborted, Committed};
        let board = match (action, settlement) {
            (Register { tenant, name, seed }, Committed { .. }) => {
                if *tenant != self.next_tenant() {
                    return Err(SalusError::RecoveryFailed(
                        "tenant id diverged during registry replay",
                    ));
                }
                self.tenants.push(TenantRecord {
                    id: *tenant,
                    name: name.clone(),
                    seed: *seed,
                    cold_deploys: 0,
                    warm_key_deploys: 0,
                    warm_image_deploys: 0,
                    evictions: 0,
                    failed_deploys: 0,
                    cold_time: Duration::ZERO,
                    warm_key_time: Duration::ZERO,
                    warm_image_time: Duration::ZERO,
                });
                None
            }
            (
                Deploy { tenant, slot } | Resume { tenant, slot } | Redeploy { tenant, slot },
                Committed { path, elapsed },
            ) => {
                if let (Some(path), Some(t)) = (path, self.tenant_mut(*tenant)) {
                    let (count, time) = match path {
                        DeployPath::Cold => (&mut t.cold_deploys, &mut t.cold_time),
                        DeployPath::WarmKey => (&mut t.warm_key_deploys, &mut t.warm_key_time),
                        DeployPath::WarmImage => {
                            (&mut t.warm_image_deploys, &mut t.warm_image_time)
                        }
                    };
                    *count += 1;
                    *time += elapsed;
                }
                Some((slot.device, true))
            }
            (Evict { tenant, .. }, Committed { .. }) => {
                if let Some(t) = self.tenant_mut(*tenant) {
                    t.evictions += 1;
                }
                None
            }
            (Refuse { tenant } | Abandon { tenant, .. }, Committed { .. }) => {
                self.count_failed_deploy(*tenant);
                None
            }
            (Fence { tenant, slot }, Committed { .. })
            | (
                Deploy { tenant, slot } | Resume { tenant, slot } | Redeploy { tenant, slot },
                Aborted(AbortKind::Failed),
            ) => {
                self.count_failed_deploy(*tenant);
                Some((slot.device, false))
            }
            _ => None,
        };
        let Some((board, ok)) = board else {
            return Ok(None);
        };
        let before = self.health.state(board, at);
        if ok {
            self.health.record_success(board, at);
        } else {
            self.health.record_failure(board, at);
        }
        let after = self.health.state(board, at);
        Ok((after != before).then_some((board, after)))
    }

    fn tenant_mut(&mut self, id: TenantId) -> Option<&mut TenantRecord> {
        self.tenants.get_mut(id.0 as usize)
    }

    fn count_failed_deploy(&mut self, tenant: TenantId) {
        if let Some(t) = self.tenant_mut(tenant) {
            t.failed_deploys += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::fleet::SlotId;

    fn policy() -> HealthPolicy {
        HealthPolicy::default()
            .with_quarantine_after(2)
            .with_readmit_window(Duration::from_secs(10), Duration::from_secs(20))
    }

    fn on(device: DeviceId) -> SlotId {
        SlotId {
            device,
            partition: 0,
        }
    }

    fn register(ledger: &mut Ledger, name: &str) -> TenantId {
        let tenant = ledger.next_tenant();
        let action = IntentOp::Register {
            tenant,
            name: name.to_owned(),
            seed: 7,
        };
        ledger
            .apply(&action, Settlement::DONE, Duration::ZERO)
            .unwrap();
        tenant
    }

    #[test]
    fn settlements_charge_paths_evictions_and_failures() {
        let mut ledger = Ledger::new(1, 1, policy());
        let a = register(&mut ledger, "alice");
        let b = register(&mut ledger, "bob");
        assert_ne!(a, b);
        let t = Duration::ZERO;
        let committed = |path, secs| Settlement::Committed {
            path: Some(path),
            elapsed: Duration::from_secs(secs),
        };
        let deploy = IntentOp::Deploy {
            tenant: a,
            slot: on(0),
        };
        let redeploy = IntentOp::Redeploy {
            tenant: a,
            slot: on(0),
        };
        ledger
            .apply(&deploy, committed(DeployPath::Cold, 10), t)
            .unwrap();
        ledger
            .apply(&redeploy, committed(DeployPath::WarmImage, 2), t)
            .unwrap();
        ledger
            .apply(&deploy, Settlement::Aborted(AbortKind::Failed), t)
            .unwrap();
        ledger
            .apply(&deploy, Settlement::Aborted(AbortKind::RolledBack), t)
            .unwrap();
        let evict = IntentOp::Evict {
            tenant: a,
            slot: on(0),
        };
        ledger.apply(&evict, Settlement::DONE, t).unwrap();
        ledger
            .apply(&IntentOp::Refuse { tenant: b }, Settlement::DONE, t)
            .unwrap();

        let rec = ledger.tenant(a).unwrap();
        assert_eq!(
            (
                rec.cold_deploys,
                rec.warm_image_deploys,
                rec.warm_key_deploys,
                rec.evictions,
                rec.failed_deploys
            ),
            (1, 1, 0, 1, 1)
        );
        assert_eq!(rec.total_deploys(), 2);
        assert_eq!(rec.total_deploy_time(), Duration::from_secs(12));
        assert_eq!(rec.cold_time, Duration::from_secs(10));
        assert_eq!(ledger.tenant(b).unwrap().failed_deploys, 1);
        let ids: Vec<TenantId> = ledger.tenants().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![a, b]);
        let board = ledger.health().snapshot(t)[0];
        assert_eq!((board.total_successes, board.total_failures), (2, 1));
    }

    #[test]
    fn a_registration_under_a_foreign_id_is_refused() {
        let mut ledger = Ledger::new(1, 1, policy());
        let forged = IntentOp::Register {
            tenant: TenantId(5),
            name: "mallory".to_owned(),
            seed: 1,
        };
        assert_eq!(
            ledger.apply(&forged, Settlement::DONE, Duration::ZERO),
            Err(SalusError::RecoveryFailed(
                "tenant id diverged during registry replay"
            ))
        );
    }

    #[test]
    fn folding_settlements_reproduces_the_health_tracker_exactly() {
        // The board outcomes a live plane records, and the settlements
        // its journal holds for them: a committed deploy credits the
        // board, a committed fence charges it.
        let script = [
            (0, false),
            (0, false),
            (1, true),
            (2, false),
            (1, false),
            (2, false),
            (2, false),
        ];
        let mut live = DeviceHealth::new(3, 42, policy());
        let mut folded = Ledger::new(3, 42, policy());
        let tenant = register(&mut folded, "alice");
        let mut transitions = Vec::new();
        for (i, &(device, ok)) in script.iter().enumerate() {
            let at = Duration::from_secs(i as u64);
            let before = live.state(device, at);
            if ok {
                live.record_success(device, at);
            } else {
                live.record_failure(device, at);
            }
            let after = live.state(device, at);
            let (action, settlement) = if ok {
                (
                    IntentOp::Deploy {
                        tenant,
                        slot: on(device),
                    },
                    Settlement::Committed {
                        path: Some(DeployPath::Cold),
                        elapsed: Duration::ZERO,
                    },
                )
            } else {
                (
                    IntentOp::Fence {
                        tenant,
                        slot: on(device),
                    },
                    Settlement::DONE,
                )
            };
            let transition = folded.apply(&action, settlement, at).unwrap();
            assert_eq!(transition, (after != before).then_some((device, after)));
            transitions.extend(transition);
        }
        assert!(!transitions.is_empty(), "the script quarantines boards");
        let now = Duration::from_secs(script.len() as u64);
        assert_eq!(folded.health().snapshot(now), live.snapshot(now));

        // The rng streams are in the same position too: the next
        // quarantine draws the same cool-down on both trackers.
        let mut folded = folded.health().clone();
        for health in [&mut live, &mut folded] {
            health.record_failure(1, now);
            health.record_failure(1, now);
        }
        assert_eq!(
            live.snapshot(now)[1].readmit_at,
            folded.snapshot(now)[1].readmit_at
        );
    }
}
