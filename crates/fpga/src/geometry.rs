//! Device and partition geometry, and the resource model behind Table 5.
//!
//! The paper reserves "one super logic region as the RP, occupying
//! approximately one-third of the FPGA resources"; the resulting CL
//! budget is 355 040 LUTs, 710 080 registers and 696 BRAMs (Table 5).
//! A partial bitstream's size "is only determined by the area reserved
//! for the CL during floor planning" (§6.3), which this module encodes
//! as a fixed frame count per partition.

use std::time::Duration;

/// Resource capacity or utilisation in the three classes Table 5 reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Resources {
    /// Look-up tables.
    pub lut: u32,
    /// Flip-flop registers.
    pub register: u32,
    /// 36 Kb block RAMs.
    pub bram: u32,
}

impl Resources {
    /// Component-wise sum, saturating at `u32::MAX` per class.
    ///
    /// Saturating (not wrapping) matters because sums of adversarial
    /// capacities feed [`fits_in`](Resources::fits_in) admission
    /// checks: a wrapped sum could appear *smaller* than either
    /// addend and slip an oversized design past placement.
    pub fn plus(self, other: Resources) -> Resources {
        Resources {
            lut: self.lut.saturating_add(other.lut),
            register: self.register.saturating_add(other.register),
            bram: self.bram.saturating_add(other.bram),
        }
    }

    /// True if `self` fits within `capacity` in every class.
    pub fn fits_in(self, capacity: Resources) -> bool {
        self.lut <= capacity.lut && self.register <= capacity.register && self.bram <= capacity.bram
    }

    /// Percentage utilisation of each class against `capacity`,
    /// rounded to the nearest integer (the format Table 5 uses).
    pub fn percent_of(self, capacity: Resources) -> (u32, u32, u32) {
        let pct = |used: u32, cap: u32| {
            if cap == 0 {
                0
            } else {
                ((used as u64 * 100 + cap as u64 / 2) / cap as u64) as u32
            }
        };
        (
            pct(self.lut, capacity.lut),
            pct(self.register, capacity.register),
            pct(self.bram, capacity.bram),
        )
    }
}

/// Usable initialisation bytes per BRAM (36 Kb). Family-invariant:
/// every family's 36 Kb BRAM holds the same payload; only the number
/// of frames it spans ([`FamilyId::frames_per_bram`]) differs.
pub const BRAM_INIT_BYTES: usize = 4608;

use crate::family::FamilyId;

/// Geometry of one reconfigurable (or static) partition.
///
/// Frame length and BRAM framing are properties of the partition's
/// device [`family`](FamilyId), not global constants: a series7-like
/// partition packs 101 words per frame where an UltraScale-like one
/// packs 93, so the same logical design compiles to different byte
/// layouts — and bitstream sizes — per family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionGeometry {
    /// Device family whose framing this partition uses.
    pub family: FamilyId,
    /// Frames of CLB/interconnect configuration.
    pub logic_frames: u32,
    /// Resource capacity of the partition.
    pub capacity: Resources,
}

impl PartitionGeometry {
    /// Bytes per configuration frame (family framing).
    pub fn frame_bytes(&self) -> usize {
        self.family.frame_bytes()
    }

    /// Frames dedicated to BRAM contents.
    pub fn bram_frames(&self) -> u32 {
        self.capacity.bram * self.family.frames_per_bram()
    }

    /// Total frames: every one of these is rewritten on partial
    /// reconfiguration (Observation 2).
    pub fn total_frames(&self) -> u32 {
        self.logic_frames + self.bram_frames()
    }

    /// Size of a full partial bitstream body for this partition.
    pub fn config_bytes(&self) -> usize {
        self.total_frames() as usize * self.frame_bytes()
    }
}

/// One reconfigurable partition's private slice of on-board DRAM.
///
/// Device DRAM is outside the TEE boundary and shared by every CL on
/// the board; co-resident tenants therefore each get a disjoint
/// *window* of it, derived purely from geometry: the usable range is
/// split into `partitions.len()` equal windows and partition `i` owns
/// `[i * len, (i + 1) * len)`. Sessions address DRAM window-relative
/// and the shell's windowed DMA entry points refuse any access that
/// crosses a window edge, so a mis-programmed (or malicious) session
/// fails closed instead of corrupting a neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DramWindow {
    /// Absolute DRAM offset of the window's first byte.
    pub base: usize,
    /// Window length in bytes.
    pub len: usize,
}

impl DramWindow {
    /// A window spanning an entire DRAM of `len` bytes (the standalone
    /// single-tenant layout).
    pub fn whole_device(len: usize) -> DramWindow {
        DramWindow { base: 0, len }
    }

    /// One-past-the-end absolute offset.
    pub fn end(&self) -> usize {
        self.base + self.len
    }

    /// Whether the absolute offset `abs` falls inside this window.
    pub fn contains(&self, abs: usize) -> bool {
        abs >= self.base && abs < self.end()
    }

    /// Translates a window-relative access of `len` bytes at `rel` into
    /// an absolute DRAM offset, refusing anything that does not fit
    /// entirely inside the window.
    ///
    /// # Errors
    ///
    /// [`FpgaError::DmaOutOfWindow`](crate::FpgaError::DmaOutOfWindow) when `rel + len` exceeds the
    /// window (overflow included).
    pub fn to_absolute(&self, rel: usize, len: usize) -> Result<usize, crate::FpgaError> {
        match rel.checked_add(len) {
            Some(end) if end <= self.len => Ok(self.base + rel),
            _ => Err(crate::FpgaError::DmaOutOfWindow {
                offset: rel as u64,
                len: len as u64,
                window: self.len as u64,
            }),
        }
    }

    /// Translates an absolute DRAM offset back into a window-relative
    /// one, when it falls inside this window.
    pub fn relative_of(&self, abs: usize) -> Option<usize> {
        self.contains(abs).then(|| abs - self.base)
    }

    /// Whether two windows share any byte.
    pub fn overlaps(&self, other: &DramWindow) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

impl std::fmt::Display for DramWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.base, self.end())
    }
}

/// Whole-device geometry: a static region (shell) and reconfigurable
/// partitions (CLs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceGeometry {
    /// Geometry of the CSP shell's static region.
    pub static_region: PartitionGeometry,
    /// Geometry of each reconfigurable partition, in index order.
    pub partitions: Vec<PartitionGeometry>,
    /// Fabric clock frequency the loaded logic runs at.
    pub clock_hz: u64,
    /// On-board DRAM size (the unsecure, shell-visible memory the
    /// accelerators DMA through). Scaled down from the physical 64 GiB
    /// for simulation.
    pub dram_bytes: usize,
}

impl DeviceGeometry {
    /// The device family every partition (and the static region) of
    /// this geometry belongs to. A single physical device is always
    /// one generation; mixed fleets mix *devices*, not partitions.
    pub fn family(&self) -> FamilyId {
        debug_assert!(
            self.partitions
                .iter()
                .all(|p| p.family == self.static_region.family),
            "partitions must share the device's family"
        );
        self.static_region.family
    }

    /// An Alveo U200-like device with a single RP of one super logic
    /// region, matching Table 5's CL budget. UltraScale family.
    pub fn u200() -> DeviceGeometry {
        let rp = PartitionGeometry {
            family: FamilyId::UltraScale,
            logic_frames: 4096,
            capacity: Resources {
                lut: 355_040,
                register: 710_080,
                bram: 696,
            },
        };
        let shell = PartitionGeometry {
            family: FamilyId::UltraScale,
            logic_frames: 8192,
            capacity: Resources {
                lut: 710_080,
                register: 1_420_160,
                bram: 1_464,
            },
        };
        DeviceGeometry {
            static_region: shell,
            partitions: vec![rp],
            clock_hz: 250_000_000,
            dram_bytes: 64 << 20,
        }
    }

    /// A small geometry for fast unit tests. Large enough to hold the
    /// full-size SM logic plus a modest accelerator, but with only a few
    /// hundred frames so compile/load loops stay cheap. UltraScale
    /// family (the legacy fixed framing); see
    /// [`DeviceFamily::tiny_board`](crate::family::DeviceFamily::tiny_board)
    /// for other families.
    pub fn tiny() -> DeviceGeometry {
        let rp = PartitionGeometry {
            family: FamilyId::UltraScale,
            logic_frames: 64,
            capacity: Resources {
                lut: 40_960,
                register: 81_920,
                bram: 96,
            },
        };
        DeviceGeometry {
            static_region: rp,
            partitions: vec![rp],
            clock_hz: 100_000_000,
            dram_bytes: 4 << 20,
        }
    }

    /// A multi-RP variant of [`u200`](DeviceGeometry::u200) used by the
    /// §4.7 extension experiments: the SLR is split into `n` equal RPs.
    ///
    /// Division is integer division: when the SLR's frames or resource
    /// classes do not divide evenly by `n`, the remainder (up to
    /// `n - 1` frames / LUTs / registers / BRAMs) is *dropped* — it
    /// becomes unusable slack rather than being attached to the last
    /// partition, so every RP stays identical and a compiled bitstream
    /// fits any of them interchangeably.
    pub fn u200_multi_rp(n: usize) -> DeviceGeometry {
        assert!(n >= 1, "need at least one partition");
        let base = DeviceGeometry::u200();
        let full = base.partitions[0];
        let part = PartitionGeometry {
            family: full.family,
            logic_frames: full.logic_frames / n as u32,
            capacity: Resources {
                lut: full.capacity.lut / n as u32,
                register: full.capacity.register / n as u32,
                bram: full.capacity.bram / n as u32,
            },
        };
        DeviceGeometry {
            static_region: base.static_region,
            partitions: vec![part; n],
            clock_hz: base.clock_hz,
            dram_bytes: base.dram_bytes,
        }
    }

    /// A multi-RP variant of [`tiny`](DeviceGeometry::tiny) for fleet and
    /// co-residency tests: `n` full-size tiny partitions on one device, so
    /// each RP still fits the SM logic alongside a small accelerator.
    pub fn tiny_multi_rp(n: usize) -> DeviceGeometry {
        assert!(n >= 1, "need at least one partition");
        let base = DeviceGeometry::tiny();
        let rp = base.partitions[0];
        DeviceGeometry {
            static_region: base.static_region,
            partitions: vec![rp; n],
            clock_hz: base.clock_hz,
            dram_bytes: base.dram_bytes * n,
        }
    }

    /// Bytes of DRAM each partition's window spans: the device DRAM
    /// split evenly over the partitions. Zero for a partition-less
    /// geometry.
    ///
    /// Integer division drops the remainder: when `dram_bytes` is not
    /// a multiple of the partition count, the top
    /// [`dram_slack_bytes`](DeviceGeometry::dram_slack_bytes) bytes of
    /// DRAM (strictly less than one window's worth, at most `n - 1`
    /// bytes) belong to *no* window. Windowed DMA fails closed on
    /// them, so the slack is unreachable rather than shared.
    pub fn dram_window_len(&self) -> usize {
        match self.partitions.len() {
            0 => 0,
            n => self.dram_bytes / n,
        }
    }

    /// Bytes of DRAM at the top of the device covered by no partition
    /// window (see [`dram_window_len`](DeviceGeometry::dram_window_len)).
    pub fn dram_slack_bytes(&self) -> usize {
        self.dram_bytes - self.dram_window_len() * self.partitions.len()
    }

    /// The DRAM window owned by `partition`, or `None` for an unknown
    /// partition index.
    pub fn dram_window(&self, partition: usize) -> Option<DramWindow> {
        (partition < self.partitions.len()).then(|| {
            let len = self.dram_window_len();
            DramWindow {
                base: partition * len,
                len,
            }
        })
    }

    /// Every partition's DRAM window, in partition order.
    pub fn dram_windows(&self) -> Vec<DramWindow> {
        (0..self.partitions.len())
            .map(|p| self.dram_window(p).expect("index in range"))
            .collect()
    }

    /// Converts a cycle count at the fabric clock into wall time.
    pub fn cycles_to_duration(&self, cycles: u64) -> Duration {
        Duration::from_nanos((cycles as u128 * 1_000_000_000 / self.clock_hz as u128) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FpgaError;

    #[test]
    fn u200_matches_table5_budget() {
        let g = DeviceGeometry::u200();
        let cap = g.partitions[0].capacity;
        assert_eq!(cap.lut, 355_040);
        assert_eq!(cap.register, 710_080);
        assert_eq!(cap.bram, 696);
    }

    #[test]
    fn partial_bitstream_size_independent_of_logic() {
        // Observation 2 corollary: size depends only on geometry.
        let g = DeviceGeometry::u200();
        let rp = g.partitions[0];
        assert_eq!(rp.config_bytes(), rp.config_bytes());
        assert_eq!(
            rp.total_frames(),
            rp.logic_frames + rp.capacity.bram * rp.family.frames_per_bram()
        );
        // ~4.9 MB — same order as a single-SLR partial bitstream.
        assert!(rp.config_bytes() > 4_000_000 && rp.config_bytes() < 6_000_000);
    }

    #[test]
    fn percent_rounding_matches_table5_style() {
        let cap = DeviceGeometry::u200().partitions[0].capacity;
        let sm = Resources {
            lut: 27_667,
            register: 29_631,
            bram: 88,
        };
        // Table 5: SM Logic = 8% LUT, 4% Register, 13% BRAM.
        assert_eq!(sm.percent_of(cap), (8, 4, 13));
    }

    #[test]
    fn fits_in_checks_every_class() {
        let cap = Resources {
            lut: 10,
            register: 10,
            bram: 1,
        };
        assert!(Resources {
            lut: 10,
            register: 10,
            bram: 1
        }
        .fits_in(cap));
        assert!(!Resources {
            lut: 11,
            register: 0,
            bram: 0
        }
        .fits_in(cap));
        assert!(!Resources {
            lut: 0,
            register: 0,
            bram: 2
        }
        .fits_in(cap));
    }

    #[test]
    fn plus_saturates_instead_of_wrapping() {
        // Regression: a wrapping sum of adversarial capacities could
        // look smaller than either addend and pass fits_in admission.
        let huge = Resources {
            lut: u32::MAX - 1,
            register: u32::MAX,
            bram: 3_000_000_000,
        };
        let more = Resources {
            lut: 100,
            register: 1,
            bram: 2_000_000_000,
        };
        let sum = huge.plus(more);
        assert_eq!(sum.lut, u32::MAX);
        assert_eq!(sum.register, u32::MAX);
        assert_eq!(sum.bram, u32::MAX);
        // The saturated sum must never fit in a capacity the addends
        // would not have fit in.
        let cap = Resources {
            lut: 1_000,
            register: 1_000,
            bram: 1_000,
        };
        assert!(!sum.fits_in(cap));
    }

    #[test]
    fn dram_slack_is_bounded_and_unwindowed() {
        // 4 MiB over 3 partitions does not divide evenly.
        let mut g = DeviceGeometry::tiny_multi_rp(3);
        g.dram_bytes = (4 << 20) + 1; // 4 MiB + 1 over 3 ⇒ remainder 2
        let n = g.partitions.len();
        assert_eq!(g.dram_slack_bytes(), g.dram_bytes - g.dram_window_len() * n);
        assert!(g.dram_slack_bytes() < n.max(1));
        // Slack bytes at the top belong to no window.
        let top = g.dram_bytes - 1;
        assert!(g.dram_windows().iter().all(|w| !w.contains(top)));
    }

    #[test]
    fn multi_rp_divides_resources() {
        let g = DeviceGeometry::u200_multi_rp(2);
        assert_eq!(g.partitions.len(), 2);
        assert_eq!(g.partitions[0].capacity.bram, 348);
    }

    #[test]
    fn tiny_multi_rp_replicates_full_partitions() {
        let g = DeviceGeometry::tiny_multi_rp(3);
        let base = DeviceGeometry::tiny();
        assert_eq!(g.partitions.len(), 3);
        for rp in &g.partitions {
            assert_eq!(rp.capacity, base.partitions[0].capacity);
            assert_eq!(rp.logic_frames, base.partitions[0].logic_frames);
        }
        assert_eq!(g.dram_bytes, base.dram_bytes * 3);
    }

    #[test]
    fn dram_windows_tile_the_device() {
        let g = DeviceGeometry::tiny_multi_rp(3);
        let windows = g.dram_windows();
        assert_eq!(windows.len(), 3);
        let len = g.dram_bytes / 3;
        for (i, w) in windows.iter().enumerate() {
            assert_eq!((w.base, w.len), (i * len, len));
            assert!(w.end() <= g.dram_bytes);
        }
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(windows[i].overlaps(&windows[j]), i == j);
            }
        }
        assert_eq!(g.dram_window(3), None);
    }

    #[test]
    fn window_translation_round_trips_and_fails_closed() {
        let w = DramWindow {
            base: 4096,
            len: 1024,
        };
        assert_eq!(w.to_absolute(0, 16).unwrap(), 4096);
        assert_eq!(w.to_absolute(1008, 16).unwrap(), 4096 + 1008);
        assert_eq!(w.relative_of(4096 + 1008), Some(1008));
        assert_eq!(w.relative_of(4095), None);
        assert_eq!(w.relative_of(w.end()), None);
        assert_eq!(
            w.to_absolute(1009, 16).unwrap_err(),
            FpgaError::DmaOutOfWindow {
                offset: 1009,
                len: 16,
                window: 1024,
            }
        );
        // Offset + length overflow must not wrap around into range.
        assert!(w.to_absolute(usize::MAX, 2).is_err());
    }

    #[test]
    fn cycles_to_duration_at_250mhz() {
        let g = DeviceGeometry::u200();
        assert_eq!(g.cycles_to_duration(250_000_000), Duration::from_secs(1));
        assert_eq!(g.cycles_to_duration(250), Duration::from_micros(1));
    }
}
