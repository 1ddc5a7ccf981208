//! Full-stack execution on a booted Salus instance.
//!
//! This is the paper's runtime picture end-to-end: after [`secure
//! boot`](salus_core::boot::secure_boot), the data owner's key
//! (`Key_data`, released only after the cascaded attestation) becomes
//! the AES-CTR streaming key. The host configures the accelerator over
//! the **secure register channel** (key exchange + control), DMAs
//! ciphertext through the **malicious shell** into device DRAM, and the
//! accelerator behind the SM logic decrypts, computes and writes back.
//! The shell sees ciphertext only — which the tests check directly by
//! snooping DRAM from the shell's position.

use std::sync::Arc;

use parking_lot::Mutex;

use salus_core::boot::{secure_boot, BootPlan};
use salus_core::instance::{TestBed, TestBedConfig};
use salus_core::sm_logic::RegisterDevice;
use salus_core::SalusError;
use salus_crypto::ctr::AesCtr256;
use salus_fpga::device::Device;
use salus_fpga::geometry::{DeviceGeometry, PartitionGeometry, Resources};
use salus_net::latency::LatencyModel;

use salus_fpga::geometry::DramWindow;

use crate::runner::stream_ivs;
use crate::workload::Workload;

/// Register map of the accelerator control interface.
pub mod regs {
    /// Data-key words 0–3 (write).
    pub const KEY0: u32 = 0;
    /// See [`KEY0`].
    pub const KEY1: u32 = 1;
    /// See [`KEY0`].
    pub const KEY2: u32 = 2;
    /// See [`KEY0`].
    pub const KEY3: u32 = 3;
    /// DRAM offset of the (encrypted) input buffer.
    pub const INPUT_OFFSET: u32 = 4;
    /// Input length in bytes.
    pub const INPUT_LEN: u32 = 5;
    /// DRAM offset for the output buffer.
    pub const OUTPUT_OFFSET: u32 = 6;
    /// Write 1 to start; the accelerator runs to completion.
    pub const START: u32 = 7;
    /// Reads 1 once the run finished.
    pub const STATUS: u32 = 8;
    /// Output length in bytes.
    pub const OUTPUT_LEN: u32 = 9;
    /// Whether the accelerator encrypts its output (Table 4 column).
    pub const ENCRYPT_OUTPUT: u32 = 10;
}

/// Status value reported when a programmed buffer does not fit the
/// session's DRAM window: the transaction fails closed without touching
/// a single byte outside the window.
pub const STATUS_WINDOW_FAULT: u64 = 3;

/// The window-relative DMA layout every harness transaction uses:
/// the (encrypted) input buffer sits in the lower half of the session's
/// window and the output buffer at its midpoint. On a standalone
/// single-partition bed (8 MiB window) this reproduces the historical
/// absolute layout — input at 0, output at 4 MiB.
pub fn window_io_offsets(window: DramWindow) -> (usize, usize) {
    (0, window.len / 2)
}

/// A shared, thread-safe compute function (the accelerator's datapath).
pub type ComputeFn = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// The accelerator controller sitting behind the SM logic's secure
/// register port. Computation runs against the device's DRAM.
pub struct AcceleratorCtl {
    device: Arc<Mutex<Device>>,
    /// The session's DRAM window: every offset register is interpreted
    /// relative to it and accesses outside it fail closed.
    window: DramWindow,
    compute: ComputeFn,
    key: [u8; 32],
    /// AES schedule expanded from `key`, reused across transactions and
    /// invalidated when the key registers are rewritten.
    cipher: Option<salus_crypto::aes::Aes256>,
    input_offset: u64,
    input_len: u64,
    output_offset: u64,
    output_len: u64,
    encrypt_output: bool,
    status: u64,
}

impl std::fmt::Debug for AcceleratorCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcceleratorCtl")
            .field("status", &self.status)
            .finish_non_exhaustive()
    }
}

impl AcceleratorCtl {
    /// Creates a controller for `device` running `compute` on start,
    /// with a window spanning the whole DRAM (the standalone
    /// single-tenant layout).
    pub fn new(device: Arc<Mutex<Device>>, compute: ComputeFn) -> AcceleratorCtl {
        let window = DramWindow::whole_device(device.lock().dram_len());
        Self::windowed(device, window, compute)
    }

    /// Creates a controller whose DMA engine is confined to `window`
    /// (the multi-tenant layout: one window per co-resident partition).
    pub fn windowed(
        device: Arc<Mutex<Device>>,
        window: DramWindow,
        compute: ComputeFn,
    ) -> AcceleratorCtl {
        AcceleratorCtl {
            device,
            window,
            compute,
            key: [0; 32],
            cipher: None,
            input_offset: 0,
            input_len: 0,
            output_offset: 0,
            output_len: 0,
            encrypt_output: false,
            status: 0,
        }
    }

    /// The DRAM window this controller is confined to.
    pub fn window(&self) -> DramWindow {
        self.window
    }

    fn run(&mut self) {
        // Translate the programmed window-relative offsets before
        // touching DRAM; a buffer that does not fit the window fails
        // closed with a status code instead of reaching a neighbour.
        let abs_input = match self
            .window
            .to_absolute(self.input_offset as usize, self.input_len as usize)
        {
            Ok(abs) => abs,
            Err(_) => {
                self.status = STATUS_WINDOW_FAULT;
                self.output_len = 0;
                return;
            }
        };
        let (iv_in, iv_out) = stream_ivs(&self.key);
        let cipher = self
            .cipher
            .get_or_insert_with(|| salus_crypto::aes::Aes256::new(&self.key))
            .clone();
        let mut input = {
            let device = self.device.lock();
            device
                .dram_read(abs_input, self.input_len as usize)
                .expect("window-validated range")
        };
        // The AES engine at the memory interface decrypts inbound data.
        AesCtr256::from_cipher(cipher.clone(), &iv_in).apply_keystream_parallel(&mut input);
        let mut output = (self.compute)(&input);
        if self.encrypt_output {
            AesCtr256::from_cipher(cipher, &iv_out).apply_keystream_parallel(&mut output);
        }
        let abs_output = match self
            .window
            .to_absolute(self.output_offset as usize, output.len())
        {
            Ok(abs) => abs,
            Err(_) => {
                self.status = STATUS_WINDOW_FAULT;
                self.output_len = 0;
                return;
            }
        };
        self.output_len = output.len() as u64;
        self.device
            .lock()
            .dram_write(abs_output, &output)
            .expect("window-validated range");
        self.status = 1;
    }
}

impl RegisterDevice for AcceleratorCtl {
    fn write_reg(&mut self, addr: u32, value: u64) {
        match addr {
            regs::KEY0..=regs::KEY3 => {
                let i = addr as usize * 8;
                self.key[i..i + 8].copy_from_slice(&value.to_le_bytes());
                self.cipher = None; // schedule must be re-expanded
            }
            regs::INPUT_OFFSET => self.input_offset = value,
            regs::INPUT_LEN => self.input_len = value,
            regs::OUTPUT_OFFSET => self.output_offset = value,
            regs::ENCRYPT_OUTPUT => self.encrypt_output = value != 0,
            regs::START if value == 1 => {
                self.status = 0;
                self.run();
            }
            _ => {}
        }
    }

    fn read_reg(&mut self, addr: u32) -> u64 {
        match addr {
            regs::STATUS => self.status,
            regs::OUTPUT_LEN => self.output_len,
            // Key registers are write-only: reads return zero.
            _ => 0,
        }
    }
}

/// A geometry big enough for every paper accelerator but with few logic
/// frames, keeping harness boots fast.
pub fn harness_geometry() -> DeviceGeometry {
    let rp = PartitionGeometry {
        family: salus_fpga::family::FamilyId::UltraScale,
        logic_frames: 64,
        capacity: Resources {
            lut: 355_040,
            register: 710_080,
            bram: 696,
        },
    };
    DeviceGeometry {
        static_region: rp,
        partitions: vec![rp],
        clock_hz: 250_000_000,
        dram_bytes: 8 << 20,
    }
}

/// Provisions and securely boots a bed carrying `workload`'s
/// accelerator, then installs the accelerator behaviour behind the SM
/// logic.
///
/// # Errors
///
/// Propagates boot failures.
pub fn boot_with_workload(workload: &dyn Workload) -> Result<TestBed, SalusError> {
    let compute = workload_compute_fn(workload);
    boot_with_ctl(workload, move |bed| {
        Box::new(AcceleratorCtl::windowed(
            bed.shell.device(),
            bed.dram_window,
            compute,
        ))
    })
}

/// Boots a bed for `workload` and installs the accelerator controller
/// `ctl` builds from the booted bed. Shared by the plain and the
/// integrity boot helpers so both channels provision identically; the
/// closure receives the bed because controllers need its device handle
/// and DRAM window.
///
/// # Errors
///
/// Propagates boot failures.
pub fn boot_with_ctl(
    workload: &dyn Workload,
    ctl: impl FnOnce(&TestBed) -> Box<dyn RegisterDevice>,
) -> Result<TestBed, SalusError> {
    let config = TestBedConfig {
        geometry: harness_geometry(),
        cost: salus_core::timing::CostModel::zero(),
        latency: LatencyModel::zero(),
        accelerator: workload.accelerator_module(),
        ..TestBedConfig::quick()
    };
    let mut bed = TestBed::provision(config);
    secure_boot(&mut bed, BootPlan::single())?;

    let accelerator = ctl(&bed);
    bed.sm_logic
        .as_mut()
        .expect("booted")
        .set_accelerator(accelerator);
    Ok(bed)
}

/// Wraps a workload's pure compute function as a [`ComputeFn`] for an
/// accelerator controller.
pub fn workload_compute_fn(workload: &dyn Workload) -> ComputeFn {
    let boxed = workload.clone_box();
    Arc::new(move |input| boxed.compute(input))
}

/// Per-session state shared by every staged transaction on the plain
/// (confidentiality-only) channel: the attested data key, the derived
/// stream IVs, and the expanded AES schedule.
///
/// The blocking [`run_on_salus`] loop and the serving-plane executor
/// both drive the same four resumable stages —
/// [`stage_dma_in`] → [`stage_program_key`] → [`stage_execute`] →
/// [`stage_dma_out`] — so a queued, pipelined execution is byte-
/// identical to a serial one by construction.
pub struct RunPlan {
    key: [u8; 32],
    iv_in: [u8; 16],
    iv_out: [u8; 16],
    cipher: salus_crypto::aes::Aes256,
    window: DramWindow,
}

impl std::fmt::Debug for RunPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunPlan")
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

impl RunPlan {
    /// Captures the attested data key and session window from a booted
    /// bed.
    ///
    /// # Errors
    ///
    /// [`SalusError::Malformed`] before boot (no data key yet).
    pub fn prepare(bed: &TestBed) -> Result<RunPlan, SalusError> {
        let key = *bed
            .user_app
            .data_key()
            .ok_or(SalusError::Malformed("no data key — boot first"))?
            .as_bytes();
        let (iv_in, iv_out) = stream_ivs(&key);
        Ok(RunPlan {
            key,
            iv_in,
            iv_out,
            cipher: salus_crypto::aes::Aes256::new(&key),
            window: bed.dram_window,
        })
    }

    /// The session window every stage offset is relative to.
    pub fn window(&self) -> DramWindow {
        self.window
    }

    /// Owner-side encryption of one request payload. The keystream
    /// restarts at the stream IV for every request — exactly what the
    /// serial loop does per [`run_on_salus`] call — so a request
    /// encrypts to the same bytes whether it travels alone or inside a
    /// coalesced batch fill.
    pub fn encrypt_input(&self, payload: &[u8]) -> Vec<u8> {
        let mut ciphertext = payload.to_vec();
        self.encrypt_input_in_place(&mut ciphertext);
        ciphertext
    }

    /// [`encrypt_input`](RunPlan::encrypt_input) over a payload already
    /// copied into its staging buffer.
    pub fn encrypt_input_in_place(&self, payload: &mut [u8]) {
        AesCtr256::from_cipher(self.cipher.clone(), &self.iv_in).apply_keystream_parallel(payload);
    }

    /// Owner-side decryption of one request's output buffer (only
    /// meaningful when the workload encrypts its output).
    pub fn decrypt_output(&self, output: &mut [u8]) {
        AesCtr256::from_cipher(self.cipher.clone(), &self.iv_out).apply_keystream_parallel(output);
    }
}

/// One request's register programming for [`stage_execute`]: every
/// offset is window-relative, exactly as the registers interpret them.
#[derive(Debug, Clone, Copy)]
pub struct ExecRequest {
    /// Window-relative offset of the (encrypted) input buffer.
    pub input_offset: usize,
    /// Input length in bytes.
    pub input_len: usize,
    /// Window-relative offset the output buffer is written to.
    pub output_offset: usize,
    /// Whether the accelerator encrypts its output stream.
    pub encrypt_output: bool,
}

/// What one [`stage_execute`] call observed from the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// The run completed; `output_len` bytes sit at the programmed
    /// output offset.
    Done {
        /// Output length in bytes.
        output_len: usize,
    },
    /// A programmed buffer did not fit the session window; the
    /// transaction failed closed without touching DRAM. The serving
    /// executor uses this to split a batch whose packed outputs
    /// overflowed the staging buffer and retry.
    WindowFault {
        /// The `OUTPUT_LEN` register at fault time (what the legacy
        /// error path reports).
        reported_len: u64,
    },
}

/// Stage 1 — DMA-in: one window-confined fill of the direct memory
/// channel. `ciphertext` may cover a whole coalesced batch; the shell
/// sees one transaction either way.
///
/// # Errors
///
/// Window-edge violations and DMA failures.
pub fn stage_dma_in(bed: &mut TestBed, rel: usize, ciphertext: &[u8]) -> Result<(), SalusError> {
    let window = bed.dram_window;
    bed.shell.dma_write_in(window, rel, ciphertext)?;
    Ok(())
}

/// Stage 2a — key exchange over the secure register channel. Once per
/// batch: adjacent requests multiplexed onto one attested session share
/// the data key, so the serving plane amortises these four writes.
///
/// # Errors
///
/// Register-channel violations.
pub fn stage_program_key(bed: &mut TestBed, plan: &RunPlan) -> Result<(), SalusError> {
    for (i, chunk) in plan.key.chunks_exact(8).enumerate() {
        bed.secure_reg_write(
            regs::KEY0 + i as u32,
            u64::from_le_bytes(chunk.try_into().expect("8")),
        )?;
    }
    Ok(())
}

/// Stage 2b — compute: programs one request's buffers, starts the
/// accelerator, and reads back completion.
///
/// # Errors
///
/// Register-channel violations; [`SalusError::Malformed`] on an
/// unrecognised status. Window faults are *returned*, not raised, so a
/// batching executor can repack and retry.
pub fn stage_execute(bed: &mut TestBed, req: &ExecRequest) -> Result<ExecOutcome, SalusError> {
    bed.secure_reg_write(regs::INPUT_OFFSET, req.input_offset as u64)?;
    bed.secure_reg_write(regs::INPUT_LEN, req.input_len as u64)?;
    bed.secure_reg_write(regs::OUTPUT_OFFSET, req.output_offset as u64)?;
    bed.secure_reg_write(regs::ENCRYPT_OUTPUT, u64::from(req.encrypt_output))?;
    bed.secure_reg_write(regs::START, 1)?;

    match bed.secure_reg_read(regs::STATUS)? {
        1 => {
            let output_len = bed.secure_reg_read(regs::OUTPUT_LEN)? as usize;
            Ok(ExecOutcome::Done { output_len })
        }
        STATUS_WINDOW_FAULT => Ok(ExecOutcome::WindowFault {
            reported_len: bed.secure_reg_read(regs::OUTPUT_LEN)?,
        }),
        _ => Err(SalusError::Malformed("accelerator did not complete")),
    }
}

/// Stage 3 — DMA-out: one window-confined read covering `len` bytes at
/// `rel` (a single request's output, or a whole batch's packed output
/// region). Decryption is per-request via [`RunPlan::decrypt_output`].
///
/// # Errors
///
/// Window-edge violations and DMA failures.
pub fn stage_dma_out(bed: &mut TestBed, rel: usize, len: usize) -> Result<Vec<u8>, SalusError> {
    let window = bed.dram_window;
    Ok(bed.shell.dma_read_in(window, rel, len)?)
}

/// Runs `workload` end-to-end on a booted bed and returns the output.
///
/// This is the *blocking* serial loop: it pushes one transaction
/// through DMA-in → compute → DMA-out and does not return until the
/// output is read back, leaving the shell idle between phases. It is
/// expressed entirely in terms of the resumable stage functions above;
/// the pipelined serving plane (`salus::serving`) interleaves the same
/// stages across queued requests and co-resident sessions.
///
/// # Errors
///
/// Propagates register-channel and DMA failures.
pub fn run_on_salus(bed: &mut TestBed, workload: &dyn Workload) -> Result<Vec<u8>, SalusError> {
    let plan = RunPlan::prepare(bed)?;

    // Owner side: encrypt the input with the attested data key.
    let ciphertext = plan.encrypt_input(workload.input());

    // Direct (unsecure) memory channel: window-confined DMA through the
    // shell. Offsets — here and in the registers below — are relative
    // to the session's window, so co-resident tenants on one board
    // never address each other's bytes.
    let window = plan.window();
    let (input_offset, output_offset) = window_io_offsets(window);
    stage_dma_in(bed, input_offset, &ciphertext)?;

    // Secure register channel: key exchange + control.
    stage_program_key(bed, &plan)?;
    let output_len = match stage_execute(
        bed,
        &ExecRequest {
            input_offset,
            input_len: workload.input().len(),
            output_offset,
            encrypt_output: workload.encrypt_output(),
        },
    )? {
        ExecOutcome::Done { output_len } => output_len,
        ExecOutcome::WindowFault { reported_len } => {
            return Err(SalusError::Fpga(salus_fpga::FpgaError::DmaOutOfWindow {
                offset: output_offset as u64,
                len: reported_len,
                window: window.len as u64,
            }))
        }
    };

    let mut output = stage_dma_out(bed, output_offset, output_len)?;
    if workload.encrypt_output() {
        plan.decrypt_output(&mut output);
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::affine::Affine;
    use crate::apps::conv::Conv;

    #[test]
    fn conv_end_to_end_on_salus_matches_reference() {
        let workload = Conv::paper_scale();
        let mut bed = boot_with_workload(&workload).unwrap();
        let output = run_on_salus(&mut bed, &workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
    }

    #[test]
    fn shell_sees_only_ciphertext_in_dram() {
        let workload = Affine::paper_scale();
        let mut bed = boot_with_workload(&workload).unwrap();
        let output = run_on_salus(&mut bed, &workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));

        // The shell snoops both buffers: neither contains plaintext.
        let snooped_in = bed.shell.snoop_dram(0, workload.input().len()).unwrap();
        assert_ne!(snooped_in, workload.input());
        let snooped_out = bed.shell.snoop_dram(4 << 20, output.len()).unwrap();
        assert_ne!(snooped_out, output);
    }

    #[test]
    fn shell_dram_tampering_corrupts_but_is_visible() {
        // DRAM integrity is the developer's responsibility per §3.1;
        // with CTR-only protection tampering flips plaintext bits. The
        // harness demonstrates the attack surface exists (motivation for
        // the `integrity` module's Merkle-protected channel).
        let workload = Conv::paper_scale();
        let bed = boot_with_workload(&workload).unwrap();
        let key = *bed.user_app.data_key().unwrap().as_bytes();
        let (iv_in, _) = stream_ivs(&key);
        let mut ciphertext = workload.input().to_vec();
        AesCtr256::new(&key, &iv_in).apply_keystream(&mut ciphertext);
        bed.shell.dma_write(0, &ciphertext).unwrap();
        bed.shell.tamper_dram(0, &[0xFF]).unwrap();
        let tampered = bed.shell.dma_read(0, ciphertext.len()).unwrap();
        assert_ne!(tampered, ciphertext);
    }

    #[test]
    fn key_registers_are_write_only() {
        let workload = Conv::paper_scale();
        let mut bed = boot_with_workload(&workload).unwrap();
        bed.secure_reg_write(regs::KEY0, 0xDEAD_BEEF).unwrap();
        assert_eq!(bed.secure_reg_read(regs::KEY0).unwrap(), 0);
    }
}
