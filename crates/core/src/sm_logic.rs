//! The SM logic at runtime (Figure 5).
//!
//! Once a CL is loaded, the SM logic is the hardware module fronting it:
//! an authentication unit (SipHash engine + `DNA_PORTE2`), a transparent
//! register-protection unit (AES + HMAC engines), and an isolated
//! on-chip BRAM holding `Key_attest`, `Key_session` and `Ctr_session`.
//!
//! Fidelity note: every secret is read from the **loaded configuration
//! frames** of the device, through the decoded [`LogicImage`] — never
//! from a Rust-side copy. If manipulation was skipped, the wrong
//! bitstream was loaded, or the shell replaced the CL, the secrets the
//! SM logic computes with genuinely differ, and attestation genuinely
//! fails.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use salus_bitstream::image::LogicImage;
use salus_fpga::device::Device;

use crate::cl_attest::{build_response, verify_request, AttestRequest, AttestResponse};
use crate::dev::{
    CELL_CTR_SESSION, CELL_KEY_ATTEST, CELL_KEY_SESSION, SM_LOGIC_PATH, SM_LOGIC_ROLE,
};
use crate::keys::{CtrSession, KeyAttest, KeySession};
use crate::reg_channel::{LogicRegChannel, RegisterOp, SealedRegMsg};
use crate::SalusError;

/// The accelerator's register-file behaviour, as seen by the SM logic's
/// AXI4-Lite port.
pub trait RegisterDevice: Send {
    /// Handles a register write.
    fn write_reg(&mut self, addr: u32, value: u64);
    /// Handles a register read.
    fn read_reg(&mut self, addr: u32) -> u64;
}

/// A simple register file used by tests and the quickstart example.
#[derive(Debug, Default)]
pub struct LoopbackRegisters {
    regs: HashMap<u32, u64>,
}

impl LoopbackRegisters {
    /// Creates an empty register file.
    pub fn new() -> LoopbackRegisters {
        LoopbackRegisters::default()
    }
}

impl RegisterDevice for LoopbackRegisters {
    fn write_reg(&mut self, addr: u32, value: u64) {
        self.regs.insert(addr, value);
    }

    fn read_reg(&mut self, addr: u32) -> u64 {
        self.regs.get(&addr).copied().unwrap_or(0)
    }
}

/// The SM logic bound to a loaded partition.
pub struct SmLogic {
    device: Arc<Mutex<Device>>,
    partition: usize,
    /// Register-channel state (initialised lazily from the BRAM seed,
    /// like a hardware counter register loading its reset value).
    reg_state: Option<LogicRegChannel>,
    accelerator: Box<dyn RegisterDevice>,
}

impl std::fmt::Debug for SmLogic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmLogic")
            .field("partition", &self.partition)
            .finish_non_exhaustive()
    }
}

impl SmLogic {
    /// Binds to the SM logic instance inside partition `partition` of
    /// `device`.
    ///
    /// # Errors
    ///
    /// [`SalusError::SmLogicUnavailable`] if the partition is not
    /// configured with a CL containing an SM logic.
    pub fn bind(device: Arc<Mutex<Device>>, partition: usize) -> Result<SmLogic, SalusError> {
        {
            let guard = device.lock();
            let config = guard.partition(partition)?;
            let image = LogicImage::decode(config)
                .map_err(|_| SalusError::SmLogicUnavailable("undecodable image"))?;
            image
                .find_role(SM_LOGIC_ROLE)
                .ok_or(SalusError::SmLogicUnavailable("no sm_logic module"))?;
        }
        Ok(SmLogic {
            device,
            partition,
            reg_state: None,
            accelerator: Box::new(LoopbackRegisters::new()),
        })
    }

    /// Connects the accelerator behind the secure register port.
    pub fn set_accelerator(&mut self, accelerator: Box<dyn RegisterDevice>) {
        self.accelerator = accelerator;
    }

    fn read_cell(&self, cell: &str) -> Result<Vec<u8>, SalusError> {
        let guard = self.device.lock();
        let config = guard.partition(self.partition)?;
        let image = LogicImage::decode(config)
            .map_err(|_| SalusError::SmLogicUnavailable("undecodable image"))?;
        image
            .read_bram(config, &format!("{SM_LOGIC_PATH}/{cell}"))
            .map_err(|_| SalusError::SmLogicUnavailable("missing secret cell"))
    }

    fn key_attest(&self) -> Result<KeyAttest, SalusError> {
        let bytes = self.read_cell(CELL_KEY_ATTEST)?;
        Ok(KeyAttest::from_bytes(bytes.try_into().map_err(|_| {
            SalusError::SmLogicUnavailable("key_attest size")
        })?))
    }

    fn key_session(&self) -> Result<KeySession, SalusError> {
        let bytes = self.read_cell(CELL_KEY_SESSION)?;
        Ok(KeySession::from_bytes(bytes.try_into().map_err(|_| {
            SalusError::SmLogicUnavailable("key_session size")
        })?))
    }

    fn ctr_session(&self) -> Result<CtrSession, SalusError> {
        let bytes = self.read_cell(CELL_CTR_SESSION)?;
        let arr: [u8; 16] = bytes
            .try_into()
            .map_err(|_| SalusError::SmLogicUnavailable("ctr_session size"))?;
        Ok(CtrSession::from_bram_bytes(&arr))
    }

    /// The authentication unit: handles one CL-attestation challenge.
    ///
    /// # Errors
    ///
    /// [`SalusError::ClAttestationFailed`] if the request MAC or DNA
    /// check fails — the hardware stays silent toward invalid
    /// challengers.
    pub fn handle_attestation(
        &self,
        request: &AttestRequest,
    ) -> Result<AttestResponse, SalusError> {
        let key = self.key_attest()?;
        let local_dna = self.device.lock().dna().read();
        if !verify_request(&key, request, local_dna) {
            return Err(SalusError::ClAttestationFailed("request MAC/DNA"));
        }
        Ok(build_response(&key, request, local_dna))
    }

    /// The transparent register-protection unit: decrypts, verifies and
    /// forwards one register transaction, returning the sealed response.
    ///
    /// # Errors
    ///
    /// [`SalusError::RegisterChannelViolation`] on tampering or replay.
    pub fn handle_register(&mut self, msg: &SealedRegMsg) -> Result<SealedRegMsg, SalusError> {
        let channel = match self.reg_state {
            Some(ref mut channel) => channel,
            None => self.reg_state.insert(LogicRegChannel::new(
                self.key_session()?,
                self.ctr_session()?.value(),
            )),
        };
        let op = channel.open_op(msg)?;
        let value = match op {
            RegisterOp::Write { addr, value } => {
                self.accelerator.write_reg(addr, value);
                0
            }
            RegisterOp::Read { addr } => self.accelerator.read_reg(addr),
        };
        Ok(channel.seal_response(value))
    }

    /// Resets the register-channel state (e.g. after a reload).
    pub fn reset_channel(&mut self) {
        self.reg_state = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cl_attest::{build_request, verify_response};
    use crate::dev::{develop_cl, loopback_accelerator, SmCellLocations};
    use crate::reg_channel::HostRegChannel;
    use salus_bitstream::manipulate::rewrite_cells;
    use salus_fpga::geometry::DeviceGeometry;

    struct Bench {
        device: Arc<Mutex<Device>>,
        locations: SmCellLocations,
        key_attest: KeyAttest,
        key_session: KeySession,
        ctr_seed: u64,
        dna: u64,
    }

    /// Compiles a CL, injects secrets, loads it, and returns the bench.
    fn loaded_bench() -> Bench {
        let geometry = DeviceGeometry::tiny();
        let pkg = develop_cl(loopback_accelerator(), geometry.partitions[0], 0).unwrap();
        let key_attest = KeyAttest::from_bytes([0xA1; 16]);
        let key_session = KeySession::from_bytes([0xB2; 32]);
        let ctr_seed = 777u64;
        let ctr = CtrSession::from_seed(ctr_seed);
        let manipulated = rewrite_cells(
            &pkg.compiled.wire,
            &[
                (&pkg.locations.key_attest, key_attest.as_bytes().as_slice()),
                (
                    &pkg.locations.key_session,
                    key_session.as_bytes().as_slice(),
                ),
                (&pkg.locations.ctr_session, ctr.to_bram_bytes().as_slice()),
            ],
        )
        .unwrap();
        let mut device = Device::manufacture(geometry, 9);
        device.icap_load(&manipulated).unwrap();
        let dna = device.dna().read();
        Bench {
            device: Arc::new(Mutex::new(device)),
            locations: pkg.locations,
            key_attest,
            key_session,
            ctr_seed,
            dna,
        }
    }

    #[test]
    fn bind_requires_sm_logic() {
        let bench = loaded_bench();
        SmLogic::bind(Arc::clone(&bench.device), 0).unwrap();

        let empty = Device::manufacture(DeviceGeometry::tiny(), 1);
        assert!(matches!(
            SmLogic::bind(Arc::new(Mutex::new(empty)), 0),
            Err(SalusError::SmLogicUnavailable(_))
        ));
    }

    #[test]
    fn attestation_with_injected_key_succeeds() {
        let bench = loaded_bench();
        let logic = SmLogic::bind(Arc::clone(&bench.device), 0).unwrap();
        let req = build_request(&bench.key_attest, 42, bench.dna);
        let rsp = logic.handle_attestation(&req).unwrap();
        verify_response(&bench.key_attest, 42, &rsp, bench.dna).unwrap();
    }

    #[test]
    fn attestation_with_wrong_key_fails() {
        let bench = loaded_bench();
        let logic = SmLogic::bind(Arc::clone(&bench.device), 0).unwrap();
        let wrong = KeyAttest::from_bytes([0xFF; 16]);
        let req = build_request(&wrong, 42, bench.dna);
        assert!(matches!(
            logic.handle_attestation(&req),
            Err(SalusError::ClAttestationFailed(_))
        ));
    }

    #[test]
    fn attestation_without_injection_fails() {
        // Load the *pristine* (zero-key) bitstream: a verifier holding a
        // fresh key must be rejected.
        let geometry = DeviceGeometry::tiny();
        let pkg = develop_cl(loopback_accelerator(), geometry.partitions[0], 0).unwrap();
        let mut device = Device::manufacture(geometry, 9);
        device.icap_load(&pkg.compiled.wire).unwrap();
        let dna = device.dna().read();
        let logic = SmLogic::bind(Arc::new(Mutex::new(device)), 0).unwrap();
        let key = KeyAttest::from_bytes([0xA1; 16]);
        let req = build_request(&key, 1, dna);
        assert!(logic.handle_attestation(&req).is_err());
    }

    #[test]
    fn register_channel_end_to_end() {
        let bench = loaded_bench();
        let mut logic = SmLogic::bind(Arc::clone(&bench.device), 0).unwrap();
        let mut host = HostRegChannel::new(bench.key_session, bench.ctr_seed);

        let sealed = host.seal_op(RegisterOp::Write {
            addr: 8,
            value: 1234,
        });
        let rsp = logic.handle_register(&sealed).unwrap();
        host.open_response(&rsp).unwrap();

        let sealed = host.seal_op(RegisterOp::Read { addr: 8 });
        let rsp = logic.handle_register(&sealed).unwrap();
        assert_eq!(host.open_response(&rsp).unwrap(), 1234);
    }

    #[test]
    fn register_channel_replay_detected() {
        let bench = loaded_bench();
        let mut logic = SmLogic::bind(Arc::clone(&bench.device), 0).unwrap();
        let mut host = HostRegChannel::new(bench.key_session, bench.ctr_seed);
        let sealed = host.seal_op(RegisterOp::Write { addr: 1, value: 1 });
        logic.handle_register(&sealed).unwrap();
        assert!(logic.handle_register(&sealed).is_err());
    }

    #[test]
    fn secrets_never_leave_via_the_register_port() {
        // Read every plausible register address; none return key bytes.
        let bench = loaded_bench();
        let mut logic = SmLogic::bind(Arc::clone(&bench.device), 0).unwrap();
        let mut host = HostRegChannel::new(bench.key_session, bench.ctr_seed);
        for addr in 0..64u32 {
            let sealed = host.seal_op(RegisterOp::Read { addr });
            let rsp = logic.handle_register(&sealed).unwrap();
            let value = host.open_response(&rsp).unwrap();
            let key_head = u64::from_le_bytes(bench.key_attest.as_bytes()[..8].try_into().unwrap());
            assert_ne!(value, key_head);
        }
        let _ = bench.locations;
    }

    #[test]
    fn reload_resets_secrets() {
        // After reloading with different secrets, the old host channel
        // stops working and a new one takes over.
        let bench = loaded_bench();
        let geometry = DeviceGeometry::tiny();
        let pkg = develop_cl(loopback_accelerator(), geometry.partitions[0], 0).unwrap();
        let new_ka = KeyAttest::from_bytes([0x77; 16]);
        let manipulated = rewrite_cells(
            &pkg.compiled.wire,
            &[
                (&pkg.locations.key_attest, new_ka.as_bytes().as_slice()),
                (&pkg.locations.key_session, &[0x88; 32]),
                (
                    &pkg.locations.ctr_session,
                    CtrSession::from_seed(1).to_bram_bytes().as_slice(),
                ),
            ],
        )
        .unwrap();
        bench.device.lock().icap_load(&manipulated).unwrap();

        let logic = SmLogic::bind(Arc::clone(&bench.device), 0).unwrap();
        // Old key no longer attests; new one does.
        let req = build_request(&bench.key_attest, 5, bench.dna);
        assert!(logic.handle_attestation(&req).is_err());
        let req = build_request(&new_ka, 5, bench.dna);
        assert!(logic.handle_attestation(&req).is_ok());
    }
}
