//! Placement of tenant deployments onto fleet slots.
//!
//! Deliberately simple and fully deterministic: given the same fleet
//! occupancy the scheduler always picks the same slot, so fleet tests
//! reproduce bit-for-bit under a fixed seed.
//!
//! Placement is capability-aware: a deployment carries a
//! [`PlaceRequest`] naming the device family its bitstream was compiled
//! for and the resources its netlist needs, and only slots on
//! family-compatible boards with sufficient partition capacity are
//! eligible. Among equally-loaded candidates the scheduler prefers the
//! cheapest (smallest-capacity) board that fits, so small tenants never
//! squat on the big versal-class boards a large tenant will need.

use salus_fpga::family::FamilyId;
use salus_fpga::geometry::Resources;

use crate::{PlaceError, SalusError};

use super::fleet::{DeviceFleet, DeviceId, SlotId};

/// What a deployment needs from a slot: the family its bitstream is
/// framed for, and the fabric resources its netlist consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaceRequest {
    /// Required device family (`None`: any family is acceptable —
    /// used before compilation, when no framing has been chosen yet).
    pub family: Option<FamilyId>,
    /// Resources the netlist needs; admission requires
    /// `needs.fits_in(partition capacity)`.
    pub needs: Resources,
}

impl PlaceRequest {
    /// An unconstrained request: any family, no resource floor.
    pub fn any() -> PlaceRequest {
        PlaceRequest {
            family: None,
            needs: Resources {
                lut: 0,
                register: 0,
                bram: 0,
            },
        }
    }

    /// A request pinned to `family` with no resource floor.
    pub fn for_family(family: FamilyId) -> PlaceRequest {
        PlaceRequest {
            family: Some(family),
            needs: Resources {
                lut: 0,
                register: 0,
                bram: 0,
            },
        }
    }

    /// A fully-specified request.
    pub fn new(family: FamilyId, needs: Resources) -> PlaceRequest {
        PlaceRequest {
            family: Some(family),
            needs,
        }
    }
}

/// Placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacePolicy {
    /// First free partition in (device, partition) order. Packs boards
    /// densely — maximises §4.7 co-residency and warm-key reuse.
    FirstFit,
    /// Board with the most free partitions first (ties broken by the
    /// cheaper board, then the lower device index). Spreads tenants
    /// across boards — maximises isolation and per-board DRAM headroom.
    #[default]
    LeastLoaded,
}

/// The fleet scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scheduler {
    policy: PlacePolicy,
}

/// Price tag used for tie-breaking: the total fabric capacity of one
/// partition slot on the board. Smaller is cheaper.
fn slot_cost(fleet: &DeviceFleet, device: DeviceId) -> u64 {
    fleet
        .geometry_of(device)
        .and_then(|g| g.partitions.first())
        .map(|p| p.capacity.lut as u64 + p.capacity.register as u64 + p.capacity.bram as u64)
        .unwrap_or(u64::MAX)
}

impl Scheduler {
    /// A scheduler with the given policy.
    pub fn new(policy: PlacePolicy) -> Scheduler {
        Scheduler { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> PlacePolicy {
        self.policy
    }

    /// Chooses a free slot for an unconstrained deployment. With
    /// `affinity = Some(slot)` the deployment must land exactly there
    /// (warm-image redeploys: the parked ciphertext is bound to the
    /// device DNA and the partition index baked into its digest).
    ///
    /// # Errors
    ///
    /// [`SalusError::Place`] when the fleet is saturated or the
    /// affinity slot is unusable.
    pub fn place(
        &self,
        fleet: &DeviceFleet,
        affinity: Option<SlotId>,
    ) -> Result<SlotId, SalusError> {
        self.place_constrained(fleet, &PlaceRequest::any(), affinity, &[])
    }

    /// [`place`](Scheduler::place) with a board-exclusion constraint:
    /// no slot on a device listed in `avoid` is eligible. The control
    /// plane passes quarantined boards plus the boards a deployment
    /// already failed on, so a cross-board retry always lands somewhere
    /// new.
    ///
    /// # Errors
    ///
    /// See [`place_constrained`](Scheduler::place_constrained).
    pub fn place_avoiding(
        &self,
        fleet: &DeviceFleet,
        affinity: Option<SlotId>,
        avoid: &[DeviceId],
    ) -> Result<SlotId, SalusError> {
        self.place_constrained(fleet, &PlaceRequest::any(), affinity, avoid)
    }

    /// The full placement decision: find a free slot satisfying
    /// `request` (family compatibility and resource admission), outside
    /// `avoid`, honouring `affinity` exactly when given.
    ///
    /// # Errors
    ///
    /// [`SalusError::Place`] with a typed [`PlaceError`]:
    ///
    /// * [`Saturated`](PlaceError::Saturated) — no slot is free
    ///   anywhere.
    /// * [`IncompatibleFamily`](PlaceError::IncompatibleFamily) — free
    ///   admissible slots exist, but only on boards of the wrong
    ///   family for this bitstream (fail closed: the shell would
    ///   refuse the load anyway).
    /// * [`NoAdmissibleBoard`](PlaceError::NoAdmissibleBoard) — free
    ///   slots exist, but all are on avoided boards or short of the
    ///   requested capacity.
    /// * [`AffinityAvoided`](PlaceError::AffinityAvoided) /
    ///   [`AffinityOccupied`](PlaceError::AffinityOccupied) /
    ///   [`UnknownAffinitySlot`](PlaceError::UnknownAffinitySlot) —
    ///   the pinned slot is excluded, taken, or does not exist.
    pub fn place_constrained(
        &self,
        fleet: &DeviceFleet,
        request: &PlaceRequest,
        affinity: Option<SlotId>,
        avoid: &[DeviceId],
    ) -> Result<SlotId, SalusError> {
        if let Some(slot) = affinity {
            if slot.device >= fleet.device_count()
                || slot.partition >= fleet.partitions_on(slot.device)
            {
                return Err(SalusError::Place(PlaceError::UnknownAffinitySlot));
            }
            if avoid.contains(&slot.device) {
                return Err(SalusError::Place(PlaceError::AffinityAvoided));
            }
            if let Some(wanted) = request.family {
                // A parked image can only ever reload onto the family
                // it was framed for — reject before touching occupancy
                // so the caller can fall back to a fresh compile.
                if fleet.family_of(slot.device) != Some(wanted) {
                    return Err(SalusError::Place(PlaceError::IncompatibleFamily));
                }
            }
            return if fleet.holder(slot).is_none() {
                Ok(slot)
            } else {
                Err(SalusError::Place(PlaceError::AffinityOccupied))
            };
        }

        let order: Vec<usize> = match self.policy {
            PlacePolicy::FirstFit => (0..fleet.device_count()).collect(),
            PlacePolicy::LeastLoaded => {
                let mut devs: Vec<usize> = (0..fleet.device_count()).collect();
                // Most free slots first; among ties the cheaper board,
                // then the lower device index (sort is stable).
                devs.sort_by_key(|&d| {
                    (
                        std::cmp::Reverse(fleet.free_slots_on(d)),
                        slot_cost(fleet, d),
                    )
                });
                devs
            }
        };

        let mut any_free = false;
        let mut capacity_short = false;
        let mut wrong_family = false;
        for device in order {
            let admissible = !avoid.contains(&device);
            let geometry = fleet.geometry_of(device).expect("device index in range");
            let family_ok = request
                .family
                .map(|wanted| geometry.family() == wanted)
                .unwrap_or(true);
            for partition in 0..geometry.partitions.len() {
                let slot = SlotId { device, partition };
                if fleet.holder(slot).is_some() {
                    continue;
                }
                any_free = true;
                if !admissible {
                    continue;
                }
                let fits = request
                    .needs
                    .fits_in(geometry.partitions[partition].capacity);
                if family_ok && fits {
                    return Ok(slot);
                }
                if family_ok {
                    capacity_short = true;
                } else {
                    wrong_family = true;
                }
            }
        }
        // Precedence: saturation beats everything; a capacity shortfall
        // on a *compatible* board is the actionable signal when both
        // blockers occur (the family constraint is the tenant's own).
        Err(SalusError::Place(if !any_free {
            PlaceError::Saturated
        } else if capacity_short {
            PlaceError::NoAdmissibleBoard
        } else if wrong_family {
            PlaceError::IncompatibleFamily
        } else {
            PlaceError::NoAdmissibleBoard
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TestBed;
    use crate::platform::fleet::TenantId;
    use salus_fpga::family::DeviceFamily;
    use salus_fpga::geometry::DeviceGeometry;

    fn fleet(devices: usize, partitions: usize) -> DeviceFleet {
        let bed = TestBed::quick_demo();
        DeviceFleet::provision(
            &bed.manufacturer,
            DeviceGeometry::tiny_multi_rp(partitions),
            devices,
            500,
        )
        .expect("fleet provisions")
    }

    fn mixed_fleet() -> DeviceFleet {
        let bed = TestBed::quick_demo();
        DeviceFleet::provision_mixed(
            &bed.manufacturer,
            &[
                (DeviceFamily::series7().board(), 1),
                (DeviceFamily::ultrascale().board(), 1),
                (DeviceFamily::versal().board(), 1),
            ],
            700,
        )
        .expect("mixed fleet provisions")
    }

    #[test]
    fn least_loaded_spreads_across_devices() {
        let mut fleet = fleet(3, 2);
        let s = Scheduler::new(PlacePolicy::LeastLoaded);
        let mut devices_used = Vec::new();
        for t in 0..3 {
            let slot = s.place(&fleet, None).unwrap();
            fleet.lease_at(slot, TenantId(t)).unwrap();
            devices_used.push(slot.device);
        }
        devices_used.sort_unstable();
        assert_eq!(devices_used, vec![0, 1, 2]);
    }

    #[test]
    fn first_fit_packs_one_device_before_the_next() {
        let mut fleet = fleet(2, 2);
        let s = Scheduler::new(PlacePolicy::FirstFit);
        let mut slots = Vec::new();
        for t in 0..3 {
            let slot = s.place(&fleet, None).unwrap();
            fleet.lease_at(slot, TenantId(t)).unwrap();
            slots.push((slot.device, slot.partition));
        }
        assert_eq!(slots, vec![(0, 0), (0, 1), (1, 0)]);
    }

    #[test]
    fn avoided_boards_are_skipped_even_when_least_loaded() {
        let mut fleet = fleet(2, 2);
        let s = Scheduler::new(PlacePolicy::LeastLoaded);
        // Occupy one slot of device 1 so device 0 is the least-loaded
        // pick — then exclude it.
        fleet
            .lease_at(
                SlotId {
                    device: 1,
                    partition: 0,
                },
                TenantId(9),
            )
            .unwrap();
        let slot = s.place_avoiding(&fleet, None, &[0]).unwrap();
        assert_eq!(slot.device, 1);

        // Affinity onto an avoided board is refused.
        let affine = SlotId {
            device: 0,
            partition: 0,
        };
        assert_eq!(
            s.place_avoiding(&fleet, Some(affine), &[0]).unwrap_err(),
            SalusError::Place(PlaceError::AffinityAvoided)
        );

        // Free slots exist, but only on avoided boards.
        assert_eq!(
            s.place_avoiding(&fleet, None, &[0, 1]).unwrap_err(),
            SalusError::Place(PlaceError::NoAdmissibleBoard)
        );
    }

    #[test]
    fn saturation_and_affinity_conflicts_are_reported() {
        let mut fleet = fleet(1, 1);
        let s = Scheduler::default();
        let slot = s.place(&fleet, None).unwrap();
        fleet.lease_at(slot, TenantId(0)).unwrap();
        assert_eq!(
            s.place(&fleet, None).unwrap_err(),
            SalusError::Place(PlaceError::Saturated)
        );
        assert_eq!(
            s.place(&fleet, Some(slot)).unwrap_err(),
            SalusError::Place(PlaceError::AffinityOccupied)
        );
        let bogus = SlotId {
            device: 9,
            partition: 0,
        };
        assert_eq!(
            s.place(&fleet, Some(bogus)).unwrap_err(),
            SalusError::Place(PlaceError::UnknownAffinitySlot)
        );
    }

    #[test]
    fn family_request_only_lands_on_compatible_boards() {
        let fleet = mixed_fleet();
        let s = Scheduler::default();
        for (family, expect_device) in [
            (FamilyId::Series7, 0),
            (FamilyId::UltraScale, 1),
            (FamilyId::Versal, 2),
        ] {
            let slot = s
                .place_constrained(&fleet, &PlaceRequest::for_family(family), None, &[])
                .unwrap();
            assert_eq!(slot.device, expect_device, "{family}");
            assert_eq!(fleet.family_of(slot.device), Some(family));
        }
    }

    #[test]
    fn incompatible_family_is_a_typed_refusal() {
        let bed = TestBed::quick_demo();
        let mut fleet = DeviceFleet::provision_mixed(
            &bed.manufacturer,
            &[
                (DeviceFamily::series7().board(), 1),
                (DeviceFamily::ultrascale().board(), 1),
            ],
            800,
        )
        .unwrap();
        let s = Scheduler::default();
        // No versal board anywhere: fail closed before the shell sees
        // a mis-framed bitstream.
        assert_eq!(
            s.place_constrained(
                &fleet,
                &PlaceRequest::for_family(FamilyId::Versal),
                None,
                &[]
            )
            .unwrap_err(),
            SalusError::Place(PlaceError::IncompatibleFamily)
        );
        // Saturate everything: saturation wins over family mismatch.
        let mut t = 0;
        for d in 0..fleet.device_count() {
            for p in 0..fleet.partitions_on(d) {
                fleet
                    .lease_at(
                        SlotId {
                            device: d,
                            partition: p,
                        },
                        TenantId(t),
                    )
                    .unwrap();
                t += 1;
            }
        }
        assert_eq!(
            s.place_constrained(
                &fleet,
                &PlaceRequest::for_family(FamilyId::Versal),
                None,
                &[]
            )
            .unwrap_err(),
            SalusError::Place(PlaceError::Saturated)
        );
    }

    #[test]
    fn affinity_onto_foreign_family_is_refused() {
        let fleet = mixed_fleet();
        let s = Scheduler::default();
        let versal_slot = SlotId {
            device: 2,
            partition: 0,
        };
        // A series7-framed parked image cannot reload onto a versal RP,
        // even though the slot itself is free.
        assert_eq!(
            s.place_constrained(
                &fleet,
                &PlaceRequest::for_family(FamilyId::Series7),
                Some(versal_slot),
                &[],
            )
            .unwrap_err(),
            SalusError::Place(PlaceError::IncompatibleFamily)
        );
        // Partition 3 exists on the versal board but on no other.
        let deep = SlotId {
            device: 2,
            partition: 3,
        };
        assert_eq!(
            s.place_constrained(
                &fleet,
                &PlaceRequest::for_family(FamilyId::Versal),
                Some(deep),
                &[],
            )
            .unwrap(),
            deep
        );
        assert_eq!(
            s.place(
                &fleet,
                Some(SlotId {
                    device: 0,
                    partition: 3,
                }),
            )
            .unwrap_err(),
            SalusError::Place(PlaceError::UnknownAffinitySlot)
        );
    }

    #[test]
    fn oversized_request_is_not_admitted() {
        let fleet = mixed_fleet();
        let s = Scheduler::default();
        let series7_cap = DeviceFamily::series7().partition_capacity;
        // Needs more LUTs than a series7 RP offers: lands on a bigger
        // family-free request, but a series7-pinned one is refused.
        let too_big = Resources {
            lut: series7_cap.lut + 1,
            register: 0,
            bram: 0,
        };
        assert_eq!(
            s.place_constrained(
                &fleet,
                &PlaceRequest::new(FamilyId::Series7, too_big),
                None,
                &[],
            )
            .unwrap_err(),
            SalusError::Place(PlaceError::NoAdmissibleBoard)
        );
        let slot = s
            .place_constrained(
                &fleet,
                &PlaceRequest::new(FamilyId::Versal, too_big),
                None,
                &[],
            )
            .unwrap();
        assert_eq!(fleet.family_of(slot.device), Some(FamilyId::Versal));
    }

    #[test]
    fn ties_prefer_the_cheapest_board_that_fits() {
        let bed = TestBed::quick_demo();
        // One free slot each on a versal board and a series7 board:
        // equally loaded, so the cheap series7 slot must win for an
        // unconstrained single-RP tenant.
        let fleet = DeviceFleet::provision_mixed(
            &bed.manufacturer,
            &[
                (DeviceFamily::versal().tiny_board(1), 1),
                (DeviceFamily::series7().tiny_board(1), 1),
            ],
            900,
        )
        .unwrap();
        let s = Scheduler::new(PlacePolicy::LeastLoaded);
        let slot = s.place(&fleet, None).unwrap();
        // tiny boards share one capacity, so cost ties too — the lower
        // device index wins. Use full-scale boards for a real spread.
        assert_eq!(slot.device, 0);

        let fleet = DeviceFleet::provision_mixed(
            &bed.manufacturer,
            &[
                (DeviceFamily::versal().board(), 1),
                (DeviceFamily::series7().board(), 1),
            ],
            950,
        )
        .unwrap();
        // Drain versal down to one free slot so the boards tie at one
        // free slot each.
        let mut fleet = fleet;
        for p in 0..3 {
            fleet
                .lease_at(
                    SlotId {
                        device: 0,
                        partition: p,
                    },
                    TenantId(p as u64),
                )
                .unwrap();
        }
        assert_eq!(fleet.free_slots_on(0), 1);
        assert_eq!(fleet.free_slots_on(1), 2);
        // Series7 still has MORE free slots, so it wins on load. Take
        // one series7 slot to force the tie.
        fleet
            .lease_at(
                SlotId {
                    device: 1,
                    partition: 0,
                },
                TenantId(9),
            )
            .unwrap();
        assert_eq!(fleet.free_slots_on(0), fleet.free_slots_on(1));
        let slot = s.place(&fleet, None).unwrap();
        assert_eq!(
            slot.device, 1,
            "cheaper series7 board wins the tie over versal"
        );
    }
}
