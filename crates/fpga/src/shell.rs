//! The CSP-maintained shell: privileged and potentially malicious.
//!
//! The shell "functions as a privileged OS, responsible for CL
//! deployment, I/O monitoring, and resource management" (§1). It is the
//! adversary of the Salus threat model: everything the host sends to the
//! CL passes through it, and it alone drives the ICAP. Its power over
//! those bytes is the adversary on the HOST→FPGA link
//! (`salus_net::adversary`): whatever snooping, tampering or replay the
//! experiments install there is what the shell does to a CL stream
//! before it reaches [`Shell::deploy_bitstream`]. The one exception is
//! the §4.7 multi-partition demo (`salus_core::multi_rp`), which owns
//! its shell and deploys each partition's stream to it directly, with
//! no link and so no adversary surface.
//!
//! DRAM is outside the TEE boundary, so the shell reads and writes it
//! with the same [`Shell::dma_read`] / [`Shell::dma_write`] the host
//! uses. The device's internal decryption and readback gating bound
//! what any of this achieves.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::Device;
use crate::geometry::DramWindow;
use crate::icap::LoadOutcome;
use crate::FpgaError;

/// The shell instance managing one device.
#[derive(Clone)]
pub struct Shell {
    device: Arc<Mutex<Device>>,
}

impl std::fmt::Debug for Shell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shell").finish_non_exhaustive()
    }
}

impl Shell {
    /// Boots a shell onto `device` (the CSP's instance-creation step).
    pub fn new(device: Device) -> Shell {
        Shell {
            device: Arc::new(Mutex::new(device)),
        }
    }

    /// Instance creation with an explicit shell image: the CSP loads its
    /// shell bitstream into the static region (a privileged plaintext
    /// load — the CSP owns the board at this point), then hands the
    /// managed device to the instance.
    ///
    /// # Errors
    ///
    /// Propagates ICAP failures loading the shell image.
    pub fn provision(mut device: Device, shell_image: &[u8]) -> Result<Shell, FpgaError> {
        device.icap_load(shell_image)?;
        if !device.shell_loaded() {
            return Err(FpgaError::MalformedBitstream(
                "shell image did not configure",
            ));
        }
        Ok(Shell::new(device))
    }

    /// Whether the static region holds a configured shell.
    pub fn is_loaded(&self) -> bool {
        self.device.lock().shell_loaded()
    }

    /// Shared handle to the managed device. The *simulation* uses this
    /// for fabric-internal accesses (loaded-logic behaviour); shell-level
    /// code paths in the experiments only ever use the `Shell` API.
    pub fn device(&self) -> Arc<Mutex<Device>> {
        Arc::clone(&self.device)
    }

    /// Reads the DNA the CSP advertises for this board.
    pub fn advertised_dna(&self) -> u64 {
        self.device.lock().dna().read()
    }

    /// True when reconfigurable `partition` holds a completely
    /// configured CL. This is ground truth from the board itself —
    /// crash recovery checks it against what the journal claims, and
    /// charges the board when the two disagree. Unknown partitions read
    /// as unconfigured.
    pub fn partition_configured(&self, partition: usize) -> bool {
        self.device
            .lock()
            .partition(partition)
            .map(|m| m.is_configured())
            .unwrap_or(false)
    }

    /// Deploys a CL bitstream received from the host by pushing it
    /// through the ICAP. The shell keeps nothing: what it saw on the way
    /// is the HOST→FPGA link adversary's to record.
    ///
    /// # Errors
    ///
    /// Propagates every ICAP failure (CRC, decryption, incomplete
    /// reconfiguration, ...).
    pub fn deploy_bitstream(&self, bitstream: &[u8]) -> Result<LoadOutcome, FpgaError> {
        self.device.lock().icap_load(bitstream)
    }

    /// The shell tries to scan the loaded CL via configuration readback
    /// (§5.1.2's attack). Succeeds only on a COTS (readback-enabled)
    /// ICAP.
    ///
    /// # Errors
    ///
    /// [`FpgaError::ReadbackDisabled`] on a Salus ICAP.
    pub fn snoop_configuration(&self, partition: usize) -> Result<Vec<u8>, FpgaError> {
        self.device.lock().attempt_readback(partition)
    }

    /// Host-initiated DMA write into device DRAM (the direct unsecure
    /// memory channel). The shell sees — and could tamper with — every
    /// byte; Salus expects the CL and host to encrypt sensitive data.
    ///
    /// # Errors
    ///
    /// Out-of-range accesses.
    pub fn dma_write(&self, offset: usize, data: &[u8]) -> Result<(), FpgaError> {
        self.device.lock().dram_write(offset, data)
    }

    /// Host-initiated DMA read from device DRAM.
    ///
    /// # Errors
    ///
    /// Out-of-range accesses.
    pub fn dma_read(&self, offset: usize, len: usize) -> Result<Vec<u8>, FpgaError> {
        self.device.lock().dram_read(offset, len)
    }

    /// Window-confined DMA write: `rel` is relative to `window`, and
    /// any access not fitting entirely inside the window is refused
    /// before a single byte moves. This is the entry point sessions on
    /// a multi-tenant board use, so a mis-programmed transfer fails
    /// closed instead of corrupting a co-resident tenant's window.
    ///
    /// # Errors
    ///
    /// [`FpgaError::DmaOutOfWindow`] when the access crosses the window
    /// edge; out-of-range DRAM errors if the window itself is bogus.
    pub fn dma_write_in(
        &self,
        window: DramWindow,
        rel: usize,
        data: &[u8],
    ) -> Result<(), FpgaError> {
        let abs = window.to_absolute(rel, data.len())?;
        self.device.lock().dram_write(abs, data)
    }

    /// Window-confined DMA read (see
    /// [`dma_write_in`](Shell::dma_write_in)).
    ///
    /// # Errors
    ///
    /// [`FpgaError::DmaOutOfWindow`] when the access crosses the window
    /// edge; out-of-range DRAM errors if the window itself is bogus.
    pub fn dma_read_in(
        &self,
        window: DramWindow,
        rel: usize,
        len: usize,
    ) -> Result<Vec<u8>, FpgaError> {
        let abs = window.to_absolute(rel, len)?;
        self.device.lock().dram_read(abs, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyId;
    use crate::geometry::DeviceGeometry;
    use crate::wire::{self, Cmd, Reg, WireWriter};

    const FRAME_BYTES: usize = FamilyId::UltraScale.frame_bytes();

    fn shell_with_tiny_device() -> Shell {
        Shell::new(Device::manufacture(DeviceGeometry::tiny(), 3))
    }

    fn plain_stream(shell: &Shell, fill: u8) -> Vec<u8> {
        let frames = shell.device().lock().partition(0).unwrap().frame_count() as usize;
        let data = vec![fill; frames * FRAME_BYTES];
        let mut w = WireWriter::new();
        w.write_cmd(Cmd::Rcrc)
            .write_reg(Reg::Far, &[0])
            .write_cmd(Cmd::Wcfg)
            .write_long_bytes(Reg::Fdri, &data);
        let mut crc_input = 0u32.to_be_bytes().to_vec();
        crc_input.extend_from_slice(&data);
        w.write_reg(Reg::Crc, &[wire::crc32(&crc_input)]);
        w.finish()
    }

    #[test]
    fn honest_shell_deploys() {
        let shell = shell_with_tiny_device();
        let stream = plain_stream(&shell, 0x31);
        shell.deploy_bitstream(&stream).unwrap();
        assert!(shell.device().lock().partition(0).unwrap().is_configured());
    }

    #[test]
    fn corrupted_load_is_detected_by_crc_and_the_next_load_succeeds() {
        let shell = shell_with_tiny_device();
        let stream = plain_stream(&shell, 0x31);
        // A flip well into the FDRI payload, as a tampering link makes.
        let mut corrupt = stream.clone();
        corrupt[stream.len() / 2] ^= 0x01;
        assert_eq!(
            shell.deploy_bitstream(&corrupt).unwrap_err(),
            FpgaError::CrcMismatch
        );
        shell.deploy_bitstream(&stream).unwrap();
    }

    #[test]
    fn replacement_on_a_plaintext_flow_loads_attacker_bits() {
        // On a *plaintext* flow whoever controls the link can replace
        // the CL wholesale — the vulnerability Salus's encrypted flow
        // removes.
        let shell = shell_with_tiny_device();
        let evil = plain_stream(&shell, 0x66);
        shell.deploy_bitstream(&evil).unwrap();
        let device = shell.device();
        let guard = device.lock();
        assert_eq!(guard.partition(0).unwrap().frame(0).unwrap()[0], 0x66);
    }

    #[test]
    fn windowed_dma_is_confined_but_shell_snooping_is_not() {
        let shell = shell_with_tiny_device();
        let dram = shell.device().lock().dram_len();
        let lo = DramWindow {
            base: 0,
            len: dram / 2,
        };
        let hi = DramWindow {
            base: dram / 2,
            len: dram / 2,
        };
        shell.dma_write_in(lo, 8, &[0xAA; 4]).unwrap();
        shell.dma_write_in(hi, 8, &[0xBB; 4]).unwrap();
        assert_eq!(shell.dma_read_in(lo, 8, 4).unwrap(), vec![0xAA; 4]);
        assert_eq!(shell.dma_read_in(hi, 8, 4).unwrap(), vec![0xBB; 4]);
        // A session cannot reach past its window edge...
        assert_eq!(
            shell.dma_write_in(lo, lo.len - 2, &[0; 4]).unwrap_err(),
            FpgaError::DmaOutOfWindow {
                offset: lo.len as u64 - 2,
                len: 4,
                window: lo.len as u64,
            }
        );
        assert!(shell.dma_read_in(hi, hi.len, 1).is_err());
        // ...but the shell itself still snoops all of DRAM (it is the
        // adversary; windows bound sessions, not the threat model).
        assert_eq!(shell.dma_read(dram / 2 + 8, 4).unwrap(), vec![0xBB; 4]);
    }

    #[test]
    fn snoop_fails_on_salus_icap() {
        let shell = shell_with_tiny_device();
        let stream = plain_stream(&shell, 0x31);
        shell.deploy_bitstream(&stream).unwrap();
        assert_eq!(
            shell.snoop_configuration(0).unwrap_err(),
            FpgaError::ReadbackDisabled
        );
    }
}
