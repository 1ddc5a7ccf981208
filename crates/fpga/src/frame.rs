//! Configuration memory: fixed-size frames per partition.
//!
//! The key structural invariant (the paper's Observation 2) lives here:
//! a partial reconfiguration must supply **every** frame of the target
//! partition, and [`ConfigMemory::reconfigure`] rejects anything less.
//! There is no way to update a strict subset of a partition's frames —
//! exactly why a preserved RoT implies a preserved CL.
//!
//! Frame *length* is a property of the partition's device family
//! ([`PartitionGeometry::frame_bytes`]), not a global constant; every
//! frame of one memory has that family's length, and
//! [`ConfigMemory::reconfigure`] rejects data that is not a whole
//! number of them.

use crate::geometry::PartitionGeometry;
use crate::FpgaError;

/// The configuration memory of one partition: its frames, back to back.
#[derive(Debug, Clone)]
pub struct ConfigMemory {
    geometry: PartitionGeometry,
    bytes: Vec<u8>,
    configured: bool,
}

impl ConfigMemory {
    /// Blank (erased) configuration memory for `geometry`.
    pub fn blank(geometry: PartitionGeometry) -> ConfigMemory {
        ConfigMemory {
            geometry,
            bytes: vec![0; geometry.config_bytes()],
            configured: false,
        }
    }

    /// The partition geometry.
    pub fn geometry(&self) -> PartitionGeometry {
        self.geometry
    }

    /// Bytes per frame of this memory (family framing).
    pub fn frame_bytes(&self) -> usize {
        self.geometry.frame_bytes()
    }

    /// Whether a full configuration has been loaded.
    pub fn is_configured(&self) -> bool {
        self.configured
    }

    /// Total frame count.
    pub fn frame_count(&self) -> u32 {
        self.geometry.total_frames()
    }

    /// Reads one frame (internal fabric access — *not* shell readback;
    /// the ICAP gate for readback is in [`crate::icap`]).
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] past the last frame.
    pub fn frame(&self, index: u32) -> Result<&[u8], FpgaError> {
        let frame_bytes = self.frame_bytes();
        let start = index as usize * frame_bytes;
        self.bytes
            .get(start..start + frame_bytes)
            .ok_or(FpgaError::FrameOutOfRange {
                index,
                limit: self.frame_count(),
            })
    }

    /// Replaces the **entire** partition contents with `frames`: the
    /// partition's frames back to back, as the runs of bytes the stream
    /// carried them in, copied into this memory in order. They must
    /// cover every frame — partial writes are structurally impossible,
    /// which is Observation 2 — in this family's frame length. A refused
    /// write changes nothing.
    ///
    /// # Errors
    ///
    /// [`FpgaError::MalformedBitstream`] when `frames` is not a whole
    /// number of this family's frames; [`FpgaError::IncompleteReconfiguration`]
    /// when it holds another number of frames than the partition.
    pub fn reconfigure(&mut self, frames: &[&[u8]]) -> Result<(), FpgaError> {
        let frame_bytes = self.frame_bytes();
        let len: usize = frames.iter().map(|run| run.len()).sum();
        if !len.is_multiple_of(frame_bytes) {
            return Err(FpgaError::MalformedBitstream("frame payload length"));
        }
        if len != self.bytes.len() {
            return Err(FpgaError::IncompleteReconfiguration {
                written: (len / frame_bytes) as u32,
                expected: self.frame_count(),
            });
        }
        let mut at = 0;
        for run in frames {
            self.bytes[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        }
        self.configured = true;
        Ok(())
    }

    /// Clears the partition back to the erased state.
    pub fn erase(&mut self) {
        self.bytes.fill(0);
        self.configured = false;
    }

    /// Reads `len` bytes starting at byte offset `offset` within frame
    /// `frame_index`, crossing frame boundaries as needed. Used by loaded
    /// logic (e.g. the SM logic reading its key BRAM).
    ///
    /// # Errors
    ///
    /// Out-of-range reads return [`FpgaError::FrameOutOfRange`].
    pub fn read_bytes(
        &self,
        frame_index: u32,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, FpgaError> {
        let frame_bytes = self.frame_bytes();
        let start = (frame_index as usize * frame_bytes).saturating_add(offset);
        let end = start.saturating_add(len);
        self.bytes
            .get(start..end)
            .map(<[u8]>::to_vec)
            .ok_or(FpgaError::FrameOutOfRange {
                index: u32::try_from(end / frame_bytes).unwrap_or(u32::MAX),
                limit: self.frame_count(),
            })
    }

    /// All frames back to back (used for digesting the loaded image in
    /// tests).
    pub fn flatten(&self) -> Vec<u8> {
        self.bytes.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyId;
    use crate::geometry::DeviceGeometry;

    const FB: usize = FamilyId::UltraScale.frame_bytes();

    fn tiny_mem() -> ConfigMemory {
        ConfigMemory::blank(DeviceGeometry::tiny().partitions[0])
    }

    fn full_frames(mem: &ConfigMemory, fill: u8) -> Vec<u8> {
        vec![fill; mem.frame_count() as usize * mem.frame_bytes()]
    }

    #[test]
    fn blank_memory_is_unconfigured_zeroes() {
        let mem = tiny_mem();
        assert!(!mem.is_configured());
        assert_eq!(mem.frame(0).unwrap()[0], 0);
        assert_eq!(mem.frame(0).unwrap().len(), FB);
        assert_eq!(mem.frame_bytes(), FB);
        assert!(mem.frame(mem.frame_count()).is_err());
    }

    #[test]
    fn reconfigure_requires_every_frame() {
        let mut mem = tiny_mem();
        let mut frames = full_frames(&mem, 0xAB);
        frames.truncate(frames.len() - FB);
        assert!(matches!(
            mem.reconfigure(&[&frames]),
            Err(FpgaError::IncompleteReconfiguration { .. })
        ));
        assert!(!mem.is_configured());

        let frames = full_frames(&mem, 0xAB);
        mem.reconfigure(&[&frames]).unwrap();
        assert!(mem.is_configured());
        assert_eq!(mem.frame(0).unwrap()[5], 0xAB);
    }

    #[test]
    fn reconfigure_rejects_foreign_family_frame_length() {
        let mut mem = tiny_mem();
        let frames = vec![0; mem.frame_count() as usize * FamilyId::Versal.frame_bytes()];
        assert!(!frames.len().is_multiple_of(FB));
        assert!(matches!(
            mem.reconfigure(&[&frames]),
            Err(FpgaError::MalformedBitstream(_))
        ));
        assert!(!mem.is_configured());
    }

    #[test]
    fn reconfigure_overwrites_all_previous_state() {
        let mut mem = tiny_mem();
        mem.reconfigure(&[&full_frames(&mem, 0x11)]).unwrap();
        mem.reconfigure(&[&full_frames(&mem, 0x22)]).unwrap();
        for i in 0..mem.frame_count() {
            assert!(mem.frame(i).unwrap().iter().all(|&b| b == 0x22));
        }
    }

    #[test]
    fn read_bytes_crosses_frame_boundaries() {
        let mut mem = tiny_mem();
        let mut frames = full_frames(&mem, 0);
        frames[FB - 1] = 0xAA;
        frames[FB] = 0xBB;
        mem.reconfigure(&[&frames]).unwrap();
        let got = mem.read_bytes(0, FB - 1, 2).unwrap();
        assert_eq!(got, vec![0xAA, 0xBB]);
    }

    #[test]
    fn read_bytes_rejects_overflow() {
        let mem = tiny_mem();
        let last = mem.frame_count() - 1;
        assert!(mem.read_bytes(last, FB - 1, 2).is_err());
        assert!(mem.read_bytes(mem.frame_count(), 0, 1).is_err());
        assert!(mem.read_bytes(0, usize::MAX, 1).is_err());
    }

    #[test]
    fn erase_resets() {
        let mut mem = tiny_mem();
        mem.reconfigure(&[&full_frames(&mem, 0xFF)]).unwrap();
        mem.erase();
        assert!(!mem.is_configured());
        assert!(mem.flatten().iter().all(|&b| b == 0));
    }
}
