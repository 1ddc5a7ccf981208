//! The shared device fleet and the tenant identity types.
//!
//! A fleet is M manufactured boards — possibly of several device
//! families and geometries — provisioned with per-geometry CSP shell
//! images and reachable on one RPC fabric under `fleet.dev{i}.fpga`
//! endpoints. Each board fuses its own `Key_device`; the fleet
//! additionally caches the key once a tenant's SM enclave has redeemed
//! it, so later deployments on the same board skip the manufacturer
//! round trip (warm boot, Fig. 3 fast path).
//!
//! Geometry is a per-device property: a heterogeneous fleet mixes
//! series7-, ultrascale- and versal-class boards, and every lease
//! carries the geometry of the board it landed on so downstream layers
//! never assume fleet-wide framing.

use salus_fpga::family::FamilyId;
use salus_fpga::geometry::DeviceGeometry;
use salus_fpga::shell::Shell;

pub use salus_fpga::geometry::DramWindow;

use crate::keys::KeyDevice;
use crate::SalusError;

use super::traits::SharedManufacturer;

/// A platform tenant's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Index of one board in a fleet, in provisioning order.
pub type DeviceId = usize;

/// One schedulable unit: a reconfigurable partition on a fleet device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId {
    /// Fleet device index.
    pub device: usize,
    /// Partition index on that device.
    pub partition: usize,
}

impl std::fmt::Display for SlotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}.rp{}", self.device, self.partition)
    }
}

/// A granted lease: everything a deployment needs to reach its board.
#[derive(Debug, Clone)]
pub struct DeviceLease {
    /// The leased slot.
    pub slot: SlotId,
    /// Handle to the board's CSP shell (cloneable; `Arc` inside).
    pub shell: Shell,
    /// The board's true DNA.
    pub dna: u64,
    /// The board's fabric endpoint (`fleet.dev{i}.fpga`).
    pub endpoint: String,
    /// The leased partition's private DRAM window. Derived from the
    /// board's own geometry (`base = partition × window_len`), so two
    /// live leases on one board can never share a byte of DRAM.
    pub window: DramWindow,
    /// The leased board's geometry. Compilation, shell framing and the
    /// virtual-time cost model all read this — never a fleet-wide
    /// constant, which does not exist in a heterogeneous fleet.
    pub geometry: DeviceGeometry,
}

/// One board of the fleet.
struct FleetDevice {
    shell: Shell,
    dna: u64,
    endpoint: String,
    /// This board's geometry (family-scoped framing included).
    geometry: DeviceGeometry,
    /// Per-partition occupancy.
    slots: Vec<Option<TenantId>>,
    /// `Key_device` as redeemed by the first SM enclave to boot here.
    cached_key: Option<KeyDevice>,
}

/// M provisioned boards — homogeneous or mixed-family — on one fabric.
pub struct DeviceFleet {
    devices: Vec<FleetDevice>,
}

impl std::fmt::Debug for DeviceFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceFleet")
            .field("devices", &self.devices.len())
            .field("free_slots", &self.free_slots())
            .finish_non_exhaustive()
    }
}

impl DeviceFleet {
    /// Manufactures `count` boards of one `geometry` (serials
    /// `base_serial..base_serial+count`) — the homogeneous wrapper
    /// around [`provision_mixed`](DeviceFleet::provision_mixed).
    ///
    /// # Errors
    ///
    /// Shell compilation or provisioning failures.
    pub fn provision(
        manufacturer: &SharedManufacturer,
        geometry: DeviceGeometry,
        count: usize,
        base_serial: u64,
    ) -> Result<DeviceFleet, SalusError> {
        DeviceFleet::provision_mixed(manufacturer, &[(geometry, count)], base_serial)
    }

    /// Manufactures a mixed fleet from `spec` — `count` boards per
    /// `(geometry, count)` entry, in spec order, with serials assigned
    /// sequentially from `base_serial`. The CSP builds one shell image
    /// per spec entry (not per board): boards sharing a geometry share
    /// a shell build, boards of different families never do.
    ///
    /// # Errors
    ///
    /// Shell compilation or provisioning failures.
    pub fn provision_mixed(
        manufacturer: &SharedManufacturer,
        spec: &[(DeviceGeometry, usize)],
        base_serial: u64,
    ) -> Result<DeviceFleet, SalusError> {
        let mut devices = Vec::new();
        let mut serial = base_serial;
        for (geometry, count) in spec {
            let shell_image = crate::dev::build_shell_image(geometry)?;
            for _ in 0..*count {
                let i = devices.len();
                let device = manufacturer.manufacture_device(geometry.clone(), serial);
                serial += 1;
                let dna = device.dna().read();
                let shell = Shell::provision(device, &shell_image)?;
                devices.push(FleetDevice {
                    shell,
                    dna,
                    endpoint: format!("fleet.dev{i}.fpga"),
                    geometry: geometry.clone(),
                    slots: vec![None; geometry.partitions.len()],
                    cached_key: None,
                });
            }
        }
        Ok(DeviceFleet { devices })
    }

    /// Number of boards in the fleet.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Partitions on board `device` (0 for unknown boards).
    pub fn partitions_on(&self, device: usize) -> usize {
        self.devices
            .get(device)
            .map(|d| d.geometry.partitions.len())
            .unwrap_or(0)
    }

    /// Total schedulable slots across every board.
    pub fn total_slots(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.geometry.partitions.len())
            .sum()
    }

    /// The geometry of board `device`, if it exists. There is no
    /// fleet-wide geometry: a heterogeneous fleet has one per board.
    pub fn geometry_of(&self, device: usize) -> Option<&DeviceGeometry> {
        self.devices.get(device).map(|d| &d.geometry)
    }

    /// The device family of board `device`, if it exists.
    pub fn family_of(&self, device: usize) -> Option<FamilyId> {
        self.devices.get(device).map(|d| d.geometry.family())
    }

    /// The shell of board `device`, if it exists.
    pub fn shell(&self, device: usize) -> Option<Shell> {
        self.devices.get(device).map(|d| d.shell.clone())
    }

    /// The true DNA of board `device`, if it exists.
    pub fn dna(&self, device: usize) -> Option<u64> {
        self.devices.get(device).map(|d| d.dna)
    }

    /// The fabric endpoint of board `device`, if it exists.
    pub fn endpoint(&self, device: usize) -> Option<String> {
        self.devices.get(device).map(|d| d.endpoint.clone())
    }

    /// True DNAs of every board, in device order.
    pub fn dnas(&self) -> Vec<u64> {
        self.devices.iter().map(|d| d.dna).collect()
    }

    /// The DRAM window `slot`'s partition owns on its board, if the
    /// slot exists on that board's geometry.
    pub fn window_of(&self, slot: SlotId) -> Option<DramWindow> {
        self.devices
            .get(slot.device)
            .and_then(|d| d.geometry.dram_window(slot.partition))
    }

    /// The cached `Key_device` for board `device`, if any tenant has
    /// redeemed it.
    pub fn cached_key(&self, device: usize) -> Option<KeyDevice> {
        self.devices.get(device).and_then(|d| d.cached_key)
    }

    /// Caches the redeemed `Key_device` for board `device`. Idempotent:
    /// every honest redemption of one board yields the same fused key.
    pub fn cache_key(&mut self, device: usize, key: KeyDevice) {
        if let Some(d) = self.devices.get_mut(device) {
            d.cached_key = Some(key);
        }
    }

    /// Drops the cached `Key_device` for board `device`. Recovery uses
    /// this to forget keys harvested by boots the journal never
    /// committed, so a re-driven deploy takes the same (cold) path a
    /// never-crashed plane would.
    pub(crate) fn drop_cached_key(&mut self, device: usize) {
        if let Some(d) = self.devices.get_mut(device) {
            d.cached_key = None;
        }
    }

    /// Forgets every lease. Recovery starts from an empty occupancy map
    /// and re-leases exactly what journal replay proves was held — the
    /// in-memory bookkeeping died with the old control plane, the
    /// boards did not.
    pub(crate) fn reset_occupancy(&mut self) {
        for d in &mut self.devices {
            for s in &mut d.slots {
                *s = None;
            }
        }
    }

    /// Free partitions on board `device` (0 for unknown boards).
    pub fn free_slots_on(&self, device: usize) -> usize {
        self.devices
            .get(device)
            .map(|d| d.slots.iter().filter(|s| s.is_none()).count())
            .unwrap_or(0)
    }

    /// The tenant currently holding `slot`, if any.
    pub fn holder(&self, slot: SlotId) -> Option<TenantId> {
        self.devices
            .get(slot.device)
            .and_then(|d| d.slots.get(slot.partition))
            .copied()
            .flatten()
    }

    /// Occupancy snapshot: `(slot, tenant)` for every held slot.
    pub fn occupancy(&self) -> Vec<(SlotId, TenantId)> {
        let mut out = Vec::new();
        for (di, d) in self.devices.iter().enumerate() {
            for (pi, s) in d.slots.iter().enumerate() {
                if let Some(t) = s {
                    out.push((
                        SlotId {
                            device: di,
                            partition: pi,
                        },
                        *t,
                    ));
                }
            }
        }
        out
    }

    /// Leases `slot` to `tenant`.
    ///
    /// # Errors
    ///
    /// [`SalusError::Scheduler`] when the slot is unknown or occupied.
    pub fn lease_at(&mut self, slot: SlotId, tenant: TenantId) -> Result<DeviceLease, SalusError> {
        let device = self
            .devices
            .get_mut(slot.device)
            .ok_or(SalusError::Scheduler("unknown device"))?;
        let entry = device
            .slots
            .get_mut(slot.partition)
            .ok_or(SalusError::Scheduler("unknown partition"))?;
        if entry.is_some() {
            return Err(SalusError::Scheduler("slot occupied"));
        }
        *entry = Some(tenant);
        let window = device
            .geometry
            .dram_window(slot.partition)
            .expect("partition index validated above");
        Ok(DeviceLease {
            slot,
            shell: device.shell.clone(),
            dna: device.dna,
            endpoint: device.endpoint.clone(),
            window,
            geometry: device.geometry.clone(),
        })
    }

    /// Releases `slot`, returning the tenant that held it.
    ///
    /// # Errors
    ///
    /// [`SalusError::Scheduler`] when the slot is unknown or free.
    pub fn release(&mut self, slot: SlotId) -> Result<TenantId, SalusError> {
        let device = self
            .devices
            .get_mut(slot.device)
            .ok_or(SalusError::Scheduler("unknown device"))?;
        let entry = device
            .slots
            .get_mut(slot.partition)
            .ok_or(SalusError::Scheduler("unknown partition"))?;
        entry
            .take()
            .ok_or(SalusError::Scheduler("slot already free"))
    }

    /// Number of currently free partition slots across the fleet.
    pub fn free_slots(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.slots.iter().filter(|s| s.is_none()).count())
            .sum()
    }
}

/// How a tenant deployment reached its running state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployPath {
    /// Full boot including the manufacturer key round trip.
    Cold,
    /// Boot reusing the fleet-cached `Key_device` (manufacturer phases
    /// skipped), but re-running manipulation and encryption.
    WarmKey,
    /// Redeploy of the parked pre-encrypted bitstream: load and
    /// CL-attest only.
    WarmImage,
}

/// Per-tenant bookkeeping.
#[derive(Debug, Clone)]
pub struct TenantRecord {
    /// The tenant's identity.
    pub id: TenantId,
    /// Human-readable name.
    pub name: String,
    /// Seed for the tenant's client-side randomness and data key.
    pub seed: u64,
    /// Completed cold deployments.
    pub cold_deploys: usize,
    /// Completed warm-key deployments.
    pub warm_key_deploys: usize,
    /// Completed warm-image redeployments.
    pub warm_image_deploys: usize,
    /// Evictions suffered.
    pub evictions: usize,
    /// Deploy and redeploy attempts that ended in failure (boot fatals
    /// across every placement, failed warm-image reloads).
    pub failed_deploys: usize,
    /// Total virtual boot time across completed cold deploys.
    pub cold_time: std::time::Duration,
    /// Total virtual boot time across completed warm-key deploys.
    pub warm_key_time: std::time::Duration,
    /// Total virtual boot time across completed warm-image redeploys.
    pub warm_image_time: std::time::Duration,
}

impl TenantRecord {
    /// Completed deployments over any path.
    pub fn total_deploys(&self) -> usize {
        self.cold_deploys + self.warm_key_deploys + self.warm_image_deploys
    }

    /// Total virtual boot time across every completed deployment.
    pub fn total_deploy_time(&self) -> std::time::Duration {
        self.cold_time + self.warm_key_time + self.warm_image_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TestBed;
    use salus_fpga::family::DeviceFamily;

    fn fleet(n: usize) -> (SharedManufacturer, DeviceFleet) {
        let bed = TestBed::quick_demo();
        let manufacturer = bed.manufacturer.clone();
        let fleet = DeviceFleet::provision(&manufacturer, DeviceGeometry::tiny(), n, 100)
            .expect("fleet provisions");
        (manufacturer, fleet)
    }

    #[test]
    fn fleet_boards_have_unique_dna_and_fused_keys() {
        let (_m, fleet) = fleet(4);
        let dnas = fleet.dnas();
        let unique: std::collections::HashSet<_> = dnas.iter().collect();
        assert_eq!(unique.len(), 4);
        for i in 0..4 {
            let shell = fleet.shell(i).unwrap();
            assert!(shell.is_loaded());
            assert!(shell.device().lock().has_device_key());
        }
    }

    #[test]
    fn lease_and_release_round_trip() {
        let (_m, mut fleet) = fleet(2);
        let slot = SlotId {
            device: 1,
            partition: 0,
        };
        let lease = fleet.lease_at(slot, TenantId(7)).unwrap();
        assert_eq!(lease.dna, fleet.dna(1).unwrap());
        assert_eq!(lease.endpoint, "fleet.dev1.fpga");
        assert_eq!(Some(lease.window), fleet.window_of(slot));
        assert_eq!(
            lease.window,
            fleet.geometry_of(1).unwrap().dram_window(0).unwrap()
        );
        assert_eq!(lease.geometry.family(), FamilyId::UltraScale);
        assert_eq!(fleet.holder(slot), Some(TenantId(7)));
        assert_eq!(
            fleet.lease_at(slot, TenantId(8)).unwrap_err(),
            SalusError::Scheduler("slot occupied")
        );
        assert_eq!(fleet.release(slot), Ok(TenantId(7)));
        assert_eq!(
            fleet.release(slot),
            Err(SalusError::Scheduler("slot already free"))
        );
    }

    #[test]
    fn co_resident_leases_get_disjoint_windows() {
        let bed = TestBed::quick_demo();
        let mut fleet = DeviceFleet::provision(
            &bed.manufacturer.clone(),
            DeviceGeometry::tiny_multi_rp(3),
            1,
            200,
        )
        .expect("fleet provisions");
        let leases: Vec<DeviceLease> = (0..3)
            .map(|partition| {
                fleet
                    .lease_at(
                        SlotId {
                            device: 0,
                            partition,
                        },
                        TenantId(partition as u64),
                    )
                    .unwrap()
            })
            .collect();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    leases[i].window.overlaps(&leases[j].window),
                    i == j,
                    "windows {i} and {j}"
                );
            }
        }
        assert_eq!(
            fleet.window_of(SlotId {
                device: 0,
                partition: 9
            }),
            None
        );
        assert_eq!(
            fleet.window_of(SlotId {
                device: 5,
                partition: 0
            }),
            None
        );
    }

    #[test]
    fn mixed_fleet_carries_per_board_geometry() {
        let bed = TestBed::quick_demo();
        let spec = [
            (DeviceFamily::series7().tiny_board(2), 1),
            (DeviceFamily::ultrascale().tiny_board(1), 2),
            (DeviceFamily::versal().tiny_board(4), 1),
        ];
        let mut fleet = DeviceFleet::provision_mixed(&bed.manufacturer.clone(), &spec, 300)
            .expect("mixed fleet provisions");
        assert_eq!(fleet.device_count(), 4);
        assert_eq!(fleet.total_slots(), 2 + 1 + 1 + 4);
        assert_eq!(fleet.family_of(0), Some(FamilyId::Series7));
        assert_eq!(fleet.family_of(1), Some(FamilyId::UltraScale));
        assert_eq!(fleet.family_of(2), Some(FamilyId::UltraScale));
        assert_eq!(fleet.family_of(3), Some(FamilyId::Versal));
        assert_eq!(fleet.family_of(4), None);
        assert_eq!(fleet.partitions_on(0), 2);
        assert_eq!(fleet.partitions_on(3), 4);
        let dnas = fleet.dnas();
        let unique: std::collections::HashSet<_> = dnas.iter().collect();
        assert_eq!(unique.len(), 4, "mixed boards get distinct serials");
        let lease = fleet
            .lease_at(
                SlotId {
                    device: 3,
                    partition: 2,
                },
                TenantId(1),
            )
            .unwrap();
        assert_eq!(lease.geometry.family(), FamilyId::Versal);
        // A partition index valid on the versal board is out of range
        // on the series7 board.
        assert!(fleet
            .lease_at(
                SlotId {
                    device: 0,
                    partition: 3,
                },
                TenantId(2),
            )
            .is_err());
    }
}
