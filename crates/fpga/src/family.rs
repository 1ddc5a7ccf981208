//! Device families: per-generation configuration framing.
//!
//! Real CPU-FPGA clouds mix FPGA generations, and each generation
//! frames configuration memory differently — a series7-style part
//! packs 101 32-bit words per frame, an UltraScale-style part 93, a
//! Versal-style part 128. A partial bitstream is a flat run of frames
//! (§6.3: its size "is only determined by the area reserved for the
//! CL"), so the frame length and the number of frames a 36 Kb BRAM
//! spans are *family* properties, not universal constants. Everything
//! that used to read the old global `FRAME_WORDS`/`FRAMES_PER_BRAM`
//! constants now goes through a [`FamilyId`] carried by
//! [`PartitionGeometry`].
//!
//! A bitstream compiled against one family's framing is meaningless —
//! and dangerous — on another: frame boundaries land mid-word and BRAM
//! initialisation bytes scatter across the wrong cells. The compiler
//! therefore stamps the family's [`code`](FamilyId::code) into the
//! canonical stream (an IDCODE write) and the ICAP refuses to
//! configure when the stamp does not match the device.

use crate::geometry::{DeviceGeometry, PartitionGeometry, Resources, BRAM_INIT_BYTES};

/// An FPGA device generation with its own configuration framing.
///
/// The catalog is deliberately small and stylised — three families
/// spanning the framing-parameter space — but nothing downstream
/// assumes the set is closed; every consumer goes through the
/// per-family accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FamilyId {
    /// Series7-like: 101-word frames.
    Series7,
    /// UltraScale-like: 93-word frames (the original fixed geometry of
    /// this codebase; `u200`/`tiny` boards are this family).
    UltraScale,
    /// Versal-like: 128-word frames.
    Versal,
}

impl FamilyId {
    /// Every family in the catalog, in `code()` order.
    pub const ALL: [FamilyId; 3] = [FamilyId::Series7, FamilyId::UltraScale, FamilyId::Versal];

    /// 32-bit words per configuration frame.
    pub const fn frame_words(self) -> usize {
        match self {
            FamilyId::Series7 => 101,
            FamilyId::UltraScale => 93,
            FamilyId::Versal => 128,
        }
    }

    /// Bytes per configuration frame.
    pub const fn frame_bytes(self) -> usize {
        self.frame_words() * 4
    }

    /// Frames of BRAM-content configuration per 36 Kb BRAM:
    /// `⌈BRAM_INIT_BYTES / frame_bytes⌉` (the last frame is padding).
    pub const fn frames_per_bram(self) -> u32 {
        BRAM_INIT_BYTES.div_ceil(self.frame_bytes()) as u32
    }

    /// The family identification code a compiled bitstream carries in
    /// its IDCODE packet and that the ICAP checks against the device.
    /// Stylised after Xilinx IDCODEs; only equality matters.
    pub const fn code(self) -> u32 {
        match self {
            FamilyId::Series7 => 0x0365_3093,
            FamilyId::UltraScale => 0x0484_A093,
            FamilyId::Versal => 0x1450_8093,
        }
    }

    /// Looks a family up by its [`code`](FamilyId::code).
    pub fn from_code(code: u32) -> Option<FamilyId> {
        FamilyId::ALL.into_iter().find(|f| f.code() == code)
    }

    /// Short lower-case family name (stable; used in benches and logs).
    pub const fn name(self) -> &'static str {
        match self {
            FamilyId::Series7 => "series7",
            FamilyId::UltraScale => "ultrascale",
            FamilyId::Versal => "versal",
        }
    }
}

impl std::fmt::Display for FamilyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Catalog entry: a family's framing plus the board-level defaults a
/// stock device of that generation ships with (partition count, DRAM,
/// clock). Board constructors ([`DeviceFamily::board`]) derive a
/// [`DeviceGeometry`] from these; tests and fleets can still build
/// arbitrary geometries by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFamily {
    /// Which generation this is.
    pub id: FamilyId,
    /// Reconfigurable partitions a stock board of this family exposes.
    pub partitions: usize,
    /// On-board DRAM (simulation-scaled, as for `u200`).
    pub dram_bytes: usize,
    /// Fabric clock of the stock board.
    pub clock_hz: u64,
    /// Per-partition resource capacity of the stock board.
    pub partition_capacity: Resources,
    /// Logic frames per partition on the stock board.
    pub logic_frames: u32,
}

impl DeviceFamily {
    /// Catalog defaults for `id`.
    ///
    /// The three boards are deliberately *ordered* in capacity —
    /// series7 smallest/cheapest, Versal largest — so capability-aware
    /// placement's prefer-the-cheapest-fit tie-break is observable.
    pub fn of(id: FamilyId) -> DeviceFamily {
        match id {
            FamilyId::Series7 => DeviceFamily {
                id,
                partitions: 2,
                dram_bytes: 16 << 20,
                clock_hz: 200_000_000,
                partition_capacity: Resources {
                    lut: 120_000,
                    register: 240_000,
                    bram: 256,
                },
                logic_frames: 1536,
            },
            FamilyId::UltraScale => DeviceFamily {
                id,
                partitions: 1,
                dram_bytes: 64 << 20,
                clock_hz: 250_000_000,
                partition_capacity: Resources {
                    lut: 355_040,
                    register: 710_080,
                    bram: 696,
                },
                logic_frames: 4096,
            },
            FamilyId::Versal => DeviceFamily {
                id,
                partitions: 4,
                dram_bytes: 128 << 20,
                clock_hz: 400_000_000,
                partition_capacity: Resources {
                    lut: 450_000,
                    register: 900_000,
                    bram: 960,
                },
                logic_frames: 6144,
            },
        }
    }

    /// Series7-like catalog entry.
    pub fn series7() -> DeviceFamily {
        DeviceFamily::of(FamilyId::Series7)
    }

    /// UltraScale-like catalog entry.
    pub fn ultrascale() -> DeviceFamily {
        DeviceFamily::of(FamilyId::UltraScale)
    }

    /// Versal-like catalog entry.
    pub fn versal() -> DeviceFamily {
        DeviceFamily::of(FamilyId::Versal)
    }

    /// A stock full-scale board of this family.
    pub fn board(&self) -> DeviceGeometry {
        let rp = PartitionGeometry {
            family: self.id,
            logic_frames: self.logic_frames,
            capacity: self.partition_capacity,
        };
        let shell = PartitionGeometry {
            family: self.id,
            logic_frames: self.logic_frames * 2,
            capacity: Resources {
                lut: self.partition_capacity.lut * 2,
                register: self.partition_capacity.register * 2,
                bram: self.partition_capacity.bram * 2,
            },
        };
        DeviceGeometry {
            static_region: shell,
            partitions: vec![rp; self.partitions],
            clock_hz: self.clock_hz,
            dram_bytes: self.dram_bytes,
        }
    }

    /// A small test board of this family: `n` tiny partitions each
    /// large enough for the SM logic plus a modest accelerator, sized
    /// like [`DeviceGeometry::tiny`] but with this family's framing.
    pub fn tiny_board(&self, n: usize) -> DeviceGeometry {
        assert!(n >= 1, "need at least one partition");
        let rp = PartitionGeometry {
            family: self.id,
            logic_frames: 64,
            capacity: Resources {
                lut: 40_960,
                register: 81_920,
                bram: 96,
            },
        };
        DeviceGeometry {
            static_region: rp,
            partitions: vec![rp; n],
            clock_hz: self.clock_hz,
            dram_bytes: (4 << 20) * n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_covers_every_bram_byte() {
        // Invariant behind BRAM packing: a BRAM's init bytes must fit
        // in its frames, whatever the family's frame length.
        for f in FamilyId::ALL {
            assert!(
                f.frames_per_bram() as usize * f.frame_bytes() >= BRAM_INIT_BYTES,
                "{f}: {} frames x {} B < {} B",
                f.frames_per_bram(),
                f.frame_bytes(),
                BRAM_INIT_BYTES
            );
            // ...and the count is minimal (ceil, not slack).
            assert!(
                (f.frames_per_bram() as usize - 1) * f.frame_bytes() < BRAM_INIT_BYTES,
                "{f}: frames_per_bram over-counts"
            );
        }
    }

    #[test]
    fn families_are_distinct_in_framing_and_code() {
        let words: Vec<_> = FamilyId::ALL.iter().map(|f| f.frame_words()).collect();
        let codes: Vec<_> = FamilyId::ALL.iter().map(|f| f.code()).collect();
        for i in 0..FamilyId::ALL.len() {
            for j in 0..i {
                assert_ne!(words[i], words[j]);
                assert_ne!(codes[i], codes[j]);
            }
        }
    }

    #[test]
    fn ultrascale_framing_matches_legacy_constants() {
        // The original codebase hard-coded UltraScale-style framing;
        // keeping these exact values keeps every homogeneous path
        // byte-identical.
        assert_eq!(FamilyId::UltraScale.frame_words(), 93);
        assert_eq!(FamilyId::UltraScale.frame_bytes(), 372);
        assert_eq!(FamilyId::UltraScale.frames_per_bram(), 13);
    }

    #[test]
    fn code_round_trips() {
        for f in FamilyId::ALL {
            assert_eq!(FamilyId::from_code(f.code()), Some(f));
        }
        assert_eq!(FamilyId::from_code(0xDEAD_BEEF), None);
    }

    #[test]
    fn boards_carry_their_family() {
        for f in FamilyId::ALL {
            let board = DeviceFamily::of(f).board();
            assert_eq!(board.family(), f);
            for p in &board.partitions {
                assert_eq!(p.family, f);
            }
            assert_eq!(board.partitions.len(), DeviceFamily::of(f).partitions);
        }
    }
}
