//! The CSP-maintained shell: privileged and potentially malicious.
//!
//! The shell "functions as a privileged OS, responsible for CL
//! deployment, I/O monitoring, and resource management" (§1). It is the
//! adversary of the Salus threat model: everything the host sends to the
//! CL passes through it, and it alone drives the ICAP. This model
//! faithfully gives the shell that power — plus explicit attack switches
//! that the security experiments flip — while the device's internal
//! decryption and readback gating bound what the attacks can achieve.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::Device;
use crate::geometry::DramWindow;
use crate::icap::LoadOutcome;
use crate::FpgaError;

/// Attack posture for the next CL deployment through the shell.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum LoadAttack {
    /// Forward the bitstream unchanged.
    #[default]
    Honest,
    /// Flip one byte at `offset` before loading (integrity attack).
    CorruptByte(usize),
    /// Load attacker-supplied bytes instead (CL replacement attack).
    Replace(Arc<Vec<u8>>),
}

/// Bitstreams the shell's observation log keeps, most recent last: the
/// shell can always see what crosses it, but a board that serves
/// tenants for ever must not hold every CL it ever loaded. Every
/// experiment reads at most the last few loads of a board.
pub const OBSERVED_BITSTREAMS_KEPT: usize = 8;

/// The shell instance managing one device.
#[derive(Clone)]
pub struct Shell {
    device: Arc<Mutex<Device>>,
    state: Arc<Mutex<ShellState>>,
}

#[derive(Debug, Default)]
struct ShellState {
    next_load_attack: LoadAttack,
    observed_bitstreams: VecDeque<Arc<Vec<u8>>>,
}

impl std::fmt::Debug for Shell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shell")
            .field(
                "observed_bitstreams",
                &self.state.lock().observed_bitstreams.len(),
            )
            .finish_non_exhaustive()
    }
}

impl Shell {
    /// Boots a shell onto `device` (the CSP's instance-creation step).
    pub fn new(device: Device) -> Shell {
        Shell {
            device: Arc::new(Mutex::new(device)),
            state: Arc::new(Mutex::new(ShellState::default())),
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

    /// Arms an attack on the next deployment.
    pub fn set_load_attack(&self, attack: LoadAttack) {
        self.state.lock().next_load_attack = attack;
    }

    /// Deploys a CL bitstream received from the host: the shell observes
    /// the bytes (it always can), applies any armed attack, and pushes
    /// the result through the ICAP. The stream is shared, never copied:
    /// the observation log keeps a reference to the very buffer the host
    /// sent, and an attack that alters bytes alters a copy of its own.
    /// The log holds the last [`OBSERVED_BITSTREAMS_KEPT`] streams; older
    /// ones drop out.
    ///
    /// # Errors
    ///
    /// Propagates every ICAP failure (CRC, decryption, incomplete
    /// reconfiguration, ...).
    pub fn deploy_bitstream(
        &self,
        bitstream: impl Into<Arc<Vec<u8>>>,
    ) -> Result<LoadOutcome, FpgaError> {
        let observed = bitstream.into();
        let attack = std::mem::take(&mut self.state.lock().next_load_attack);
        let outcome = match attack {
            LoadAttack::Honest => self.device.lock().icap_load(&observed),
            LoadAttack::CorruptByte(offset) => {
                let mut corrupt = observed.to_vec();
                if let Some(last) = corrupt.len().checked_sub(1) {
                    corrupt[offset.min(last)] ^= 0x01;
                }
                self.device.lock().icap_load(&corrupt)
            }
            LoadAttack::Replace(other) => self.device.lock().icap_load(&other),
        };
        let log = &mut self.state.lock().observed_bitstreams;
        if log.len() == OBSERVED_BITSTREAMS_KEPT {
            log.pop_front();
        }
        log.push_back(observed);
        outcome
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

    /// The shell snoops device DRAM directly (always possible — DRAM is
    /// outside the TEE boundary).
    ///
    /// # Errors
    ///
    /// Out-of-range accesses.
    pub fn snoop_dram(&self, offset: usize, len: usize) -> Result<Vec<u8>, FpgaError> {
        self.device.lock().dram_read(offset, len)
    }

    /// The shell tampers with device DRAM directly.
    ///
    /// # Errors
    ///
    /// Out-of-range accesses.
    pub fn tamper_dram(&self, offset: usize, data: &[u8]) -> Result<(), FpgaError> {
        self.device.lock().dram_write(offset, data)
    }

    /// The bitstreams the shell has seen cross it, verbatim, oldest
    /// first: the last [`OBSERVED_BITSTREAMS_KEPT`] loads, each the
    /// buffer the host sent.
    pub fn observed_bitstreams(&self) -> Vec<Arc<Vec<u8>>> {
        self.state
            .lock()
            .observed_bitstreams
            .iter()
            .cloned()
            .collect()
    }

    /// Whether any observed bitstream (of the last
    /// [`OBSERVED_BITSTREAMS_KEPT`]) contains `needle` in plaintext —
    /// the leakage check used by confidentiality experiments.
    pub fn observed_bytes_contain(&self, needle: &[u8]) -> bool {
        if needle.is_empty() {
            return true;
        }
        self.state
            .lock()
            .observed_bitstreams
            .iter()
            .any(|b| b.windows(needle.len()).any(|w| w == needle))
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
        shell.deploy_bitstream(stream.clone()).unwrap();
        assert!(shell.device().lock().partition(0).unwrap().is_configured());
    }

    #[test]
    fn shell_observes_everything() {
        let shell = shell_with_tiny_device();
        let stream = plain_stream(&shell, 0x31);
        shell.deploy_bitstream(stream.clone()).unwrap();
        assert_eq!(shell.observed_bitstreams().len(), 1);
        assert!(shell.observed_bytes_contain(&[0x31, 0x31, 0x31, 0x31]));
    }

    #[test]
    fn observation_log_keeps_the_most_recent_loads() {
        let shell = shell_with_tiny_device();
        let streams: Vec<Vec<u8>> = (0..OBSERVED_BITSTREAMS_KEPT as u8 + 3)
            .map(|fill| plain_stream(&shell, fill))
            .collect();
        for stream in &streams {
            shell.deploy_bitstream(stream.clone()).unwrap();
        }
        let observed: Vec<Vec<u8>> = shell
            .observed_bitstreams()
            .iter()
            .map(|stream| stream.to_vec())
            .collect();
        assert_eq!(
            observed,
            streams[3..],
            "the oldest three dropped out, the rest in load order"
        );
    }

    #[test]
    fn corruption_attack_detected_by_crc() {
        let shell = shell_with_tiny_device();
        let stream = plain_stream(&shell, 0x31);
        // Offset well into the FDRI payload.
        shell.set_load_attack(LoadAttack::CorruptByte(stream.len() / 2));
        assert_eq!(
            shell.deploy_bitstream(stream.clone()).unwrap_err(),
            FpgaError::CrcMismatch
        );
    }

    #[test]
    fn corruption_attack_alters_a_copy_not_the_shared_stream() {
        // The host's buffer is shared with the shell's log; the attack
        // flips a byte of its own copy, so the sender still holds (and
        // the log still shows) the honest stream.
        let shell = shell_with_tiny_device();
        let stream = Arc::new(plain_stream(&shell, 0x31));
        let honest = stream.to_vec();
        shell.set_load_attack(LoadAttack::CorruptByte(stream.len() / 2));
        assert!(shell.deploy_bitstream(Arc::clone(&stream)).is_err());
        assert_eq!(*stream, honest);
        let logged = shell.observed_bitstreams().pop().expect("logged");
        assert!(Arc::ptr_eq(&logged, &stream));
        shell.deploy_bitstream(stream).unwrap();
    }

    #[test]
    fn attack_is_one_shot() {
        let shell = shell_with_tiny_device();
        let stream = plain_stream(&shell, 0x31);
        shell.set_load_attack(LoadAttack::CorruptByte(stream.len() / 2));
        let _ = shell.deploy_bitstream(stream.clone());
        // Next deployment goes through honestly.
        shell.deploy_bitstream(stream.clone()).unwrap();
    }

    #[test]
    fn replacement_attack_loads_attacker_bits() {
        // On a *plaintext* flow the shell can replace the CL wholesale —
        // the vulnerability Salus's encrypted flow removes.
        let shell = shell_with_tiny_device();
        let honest = plain_stream(&shell, 0x31);
        let evil = plain_stream(&shell, 0x66);
        shell.set_load_attack(LoadAttack::Replace(evil.into()));
        shell.deploy_bitstream(honest).unwrap();
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
        assert_eq!(shell.snoop_dram(dram / 2 + 8, 4).unwrap(), vec![0xBB; 4]);
    }

    #[test]
    fn snoop_fails_on_salus_icap() {
        let shell = shell_with_tiny_device();
        let stream = plain_stream(&shell, 0x31);
        shell.deploy_bitstream(stream.clone()).unwrap();
        assert_eq!(
            shell.snoop_configuration(0).unwrap_err(),
            FpgaError::ReadbackDisabled
        );
    }
}
