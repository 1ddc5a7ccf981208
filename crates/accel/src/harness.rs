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
//!
//! Device-memory protection is the developer's choice (§3.1), so one
//! controller serves both [`MemoryProtection`]s: confidentiality only,
//! or confidentiality plus the keyed Merkle roots of
//! [`crate::integrity`]. [`Plan`] is the host side of the same choice.

use std::sync::Arc;

use parking_lot::Mutex;

use salus_core::boot::{secure_boot, BootPlan};
use salus_core::instance::{TestBed, TestBedConfig};
use salus_core::sm_logic::RegisterDevice;
use salus_core::SalusError;
use salus_crypto::ctr::AesCtr256;
use salus_fpga::device::Device;
use salus_fpga::geometry::{DeviceGeometry, DramWindow, PartitionGeometry, Resources};
use salus_net::latency::LatencyModel;

use crate::integrity::{
    stage_execute_verified, IntegrityPlan, VerifiedOutcome, STATUS_INTEGRITY_FAILURE,
};
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
    /// 0 = idle, 1 = done, 2 = input integrity failure, 3 = window
    /// fault.
    pub const STATUS: u32 = 8;
    /// Output length in bytes.
    pub const OUTPUT_LEN: u32 = 9;
    /// Whether the accelerator encrypts its output (Table 4 column).
    pub const ENCRYPT_OUTPUT: u32 = 10;
    /// Input Merkle root words 0–3 (write; checked only under
    /// integrity protection).
    pub const IN_ROOT0: u32 = 16;
    /// Output Merkle root words 0–3 (read; zero unless the protection
    /// includes integrity).
    pub const OUT_ROOT0: u32 = 20;
    /// Merkle trees the controller has built over an input buffer
    /// (read): one per START that passes the window check under
    /// integrity protection, zero without it.
    pub const STAT_FULL_BUILDS: u32 = 24;
}

/// Status value reported when a programmed buffer does not fit the
/// session's DRAM window: the transaction fails closed without touching
/// a single byte outside the window.
pub const STATUS_WINDOW_FAULT: u64 = 3;

/// How DMA buffers are protected on the direct memory channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryProtection {
    /// AES-CTR confidentiality only (the paper's baseline; shell
    /// tampering corrupts silently).
    #[default]
    Confidentiality,
    /// AES-CTR plus Merkle-root integrity over both buffers (the §3.1
    /// extension; shell tampering is detected).
    ConfidentialityAndIntegrity,
}

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
    protection: MemoryProtection,
    key: [u8; 32],
    /// Schedules and keys expanded from `key`, reused across
    /// transactions and dropped when the key registers change.
    plan: Option<Plan>,
    in_root: [u8; 32],
    out_root: [u8; 32],
    input_offset: u64,
    input_len: u64,
    output_offset: u64,
    output_len: u64,
    encrypt_output: bool,
    status: u64,
    full_builds: u64,
}

impl std::fmt::Debug for AcceleratorCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcceleratorCtl")
            .field("protection", &self.protection)
            .field("status", &self.status)
            .finish_non_exhaustive()
    }
}

impl AcceleratorCtl {
    /// Creates a controller whose DMA engine is confined to `window`
    /// (one window per co-resident partition) and that protects its
    /// buffers with `protection`.
    pub fn windowed(
        device: Arc<Mutex<Device>>,
        window: DramWindow,
        compute: ComputeFn,
        protection: MemoryProtection,
    ) -> AcceleratorCtl {
        AcceleratorCtl {
            device,
            window,
            compute,
            protection,
            key: [0; 32],
            plan: None,
            in_root: [0; 32],
            out_root: [0; 32],
            input_offset: 0,
            input_len: 0,
            output_offset: 0,
            output_len: 0,
            encrypt_output: false,
            status: 0,
            full_builds: 0,
        }
    }

    /// One START: window-checked read → (verify) → decrypt → compute →
    /// encrypt → window-checked write. Returns the STATUS value.
    fn run(&mut self) -> u64 {
        self.output_len = 0;
        // Translate the programmed window-relative offsets before
        // touching DRAM; a buffer that does not fit the window fails
        // closed with a status code instead of reaching a neighbour.
        let Ok(abs_input) = self
            .window
            .to_absolute(self.input_offset as usize, self.input_len as usize)
        else {
            return STATUS_WINDOW_FAULT;
        };
        let plan = self.plan.get_or_insert_with(|| {
            Plan::with(RunPlan::from_key(self.key, self.window), self.protection)
        });
        // One snapshot: the root is checked over exactly the bytes that
        // are then decrypted and computed on.
        let mut data = self
            .device
            .lock()
            .dram_read(abs_input, self.input_len as usize)
            .expect("window-validated range");
        if let Plan::Verified(p) = plan {
            // Verify DRAM contents against the root received over the
            // secure register channel before trusting a single byte.
            self.full_builds += 1;
            if p.root(&data) != self.in_root {
                return STATUS_INTEGRITY_FAILURE;
            }
        }
        // The AES engine at the memory interface decrypts inbound data.
        let run = plan.run_plan();
        run.ctr(&run.iv_in).apply_keystream_parallel(&mut data);
        let mut output = (self.compute)(&data);
        if self.encrypt_output {
            run.ctr(&run.iv_out).apply_keystream_parallel(&mut output);
        }
        let Ok(abs_output) = self
            .window
            .to_absolute(self.output_offset as usize, output.len())
        else {
            return STATUS_WINDOW_FAULT;
        };
        if let Plan::Verified(p) = plan {
            self.out_root = p.root(&output);
        }
        self.device
            .lock()
            .dram_write(abs_output, &output)
            .expect("window-validated range");
        self.output_len = output.len() as u64;
        1
    }
}

impl RegisterDevice for AcceleratorCtl {
    fn write_reg(&mut self, addr: u32, value: u64) {
        let word = value.to_le_bytes();
        match addr {
            regs::KEY0..=regs::KEY3 => {
                let i = addr as usize * 8;
                // Rewriting the same key (every batch re-programs it)
                // keeps the expanded schedules.
                if self.key[i..i + 8] != word {
                    self.key[i..i + 8].copy_from_slice(&word);
                    self.plan = None;
                }
            }
            regs::IN_ROOT0..=19 => {
                let i = (addr - regs::IN_ROOT0) as usize * 8;
                self.in_root[i..i + 8].copy_from_slice(&word);
            }
            regs::INPUT_OFFSET => self.input_offset = value,
            regs::INPUT_LEN => self.input_len = value,
            regs::OUTPUT_OFFSET => self.output_offset = value,
            regs::ENCRYPT_OUTPUT => self.encrypt_output = value != 0,
            regs::START if value == 1 => self.status = self.run(),
            _ => {}
        }
    }

    fn read_reg(&mut self, addr: u32) -> u64 {
        match addr {
            regs::STATUS => self.status,
            regs::OUTPUT_LEN => self.output_len,
            regs::OUT_ROOT0..=23 => {
                let i = (addr - regs::OUT_ROOT0) as usize * 8;
                u64::from_le_bytes(self.out_root[i..i + 8].try_into().expect("8"))
            }
            regs::STAT_FULL_BUILDS => self.full_builds,
            // Key and input-root registers are write-only: reads
            // return zero.
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
/// accelerator, then installs the accelerator behind the SM logic under
/// `protection`.
///
/// # Errors
///
/// Propagates boot failures.
pub fn boot_with_workload(
    workload: &dyn Workload,
    protection: MemoryProtection,
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
    install_accelerator(&mut bed, workload, protection)?;
    Ok(bed)
}

/// Installs `workload`'s datapath behind a booted bed's SM logic,
/// confined to the bed's DRAM window and protecting its buffers with
/// `protection`.
///
/// # Errors
///
/// [`SalusError::SmLogicUnavailable`] before boot.
pub fn install_accelerator(
    bed: &mut TestBed,
    workload: &dyn Workload,
    protection: MemoryProtection,
) -> Result<(), SalusError> {
    let boxed = workload.clone_box();
    let ctl = AcceleratorCtl::windowed(
        bed.shell.device(),
        bed.dram_window,
        Arc::new(move |input| boxed.compute(input)),
        protection,
    );
    bed.sm_logic
        .as_mut()
        .ok_or(SalusError::SmLogicUnavailable("not booted"))?
        .set_accelerator(Box::new(ctl));
    Ok(())
}

/// Per-session state shared by every staged transaction on the
/// confidentiality-only channel: the attested data key, the derived
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
        Ok(RunPlan::from_key(key, bed.dram_window))
    }

    fn from_key(key: [u8; 32], window: DramWindow) -> RunPlan {
        let (iv_in, iv_out) = stream_ivs(&key);
        RunPlan {
            key,
            iv_in,
            iv_out,
            cipher: salus_crypto::aes::Aes256::new(&key),
            window,
        }
    }

    /// The data key both protections derive their keys from.
    pub(crate) fn key(&self) -> &[u8; 32] {
        &self.key
    }

    /// A CTR stream at `iv` reusing the expanded schedule.
    fn ctr(&self, iv: &[u8; 16]) -> AesCtr256 {
        AesCtr256::from_cipher(self.cipher.clone(), iv)
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
        self.ctr(&self.iv_in).apply_keystream_parallel(payload);
    }

    /// Owner-side decryption of one request's output buffer (only
    /// meaningful when the workload encrypts its output).
    pub fn decrypt_output(&self, output: &mut [u8]) {
        self.ctr(&self.iv_out).apply_keystream_parallel(output);
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

/// Writes a 32-byte value into the four registers from `base`.
fn write_words(bed: &mut TestBed, base: u32, bytes: &[u8; 32]) -> Result<(), SalusError> {
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        bed.secure_reg_write(
            base + i as u32,
            u64::from_le_bytes(chunk.try_into().expect("8")),
        )?;
    }
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
    write_words(bed, regs::KEY0, &plan.key)
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
    Ok(match execute(bed, req, None)? {
        VerifiedOutcome::Done { output_len, .. } => ExecOutcome::Done { output_len },
        VerifiedOutcome::WindowFault { reported_len } => ExecOutcome::WindowFault { reported_len },
        VerifiedOutcome::InputTampered => unreachable!("no input root was programmed"),
    })
}

/// The compute stage of both protections. With an input root, the
/// root goes first and the output root is read back on success; the
/// register sequence is otherwise the same.
pub(crate) fn execute(
    bed: &mut TestBed,
    req: &ExecRequest,
    in_root: Option<&[u8; 32]>,
) -> Result<VerifiedOutcome, SalusError> {
    if let Some(in_root) = in_root {
        write_words(bed, regs::IN_ROOT0, in_root)?;
    }
    bed.secure_reg_write(regs::INPUT_OFFSET, req.input_offset as u64)?;
    bed.secure_reg_write(regs::INPUT_LEN, req.input_len as u64)?;
    bed.secure_reg_write(regs::OUTPUT_OFFSET, req.output_offset as u64)?;
    bed.secure_reg_write(regs::ENCRYPT_OUTPUT, u64::from(req.encrypt_output))?;
    bed.secure_reg_write(regs::START, 1)?;

    match bed.secure_reg_read(regs::STATUS)? {
        1 => {
            let output_len = bed.secure_reg_read(regs::OUTPUT_LEN)? as usize;
            let mut out_root = [0u8; 32];
            if in_root.is_some() {
                for (i, word) in out_root.chunks_exact_mut(8).enumerate() {
                    let value = bed.secure_reg_read(regs::OUT_ROOT0 + i as u32)?;
                    word.copy_from_slice(&value.to_le_bytes());
                }
            }
            Ok(VerifiedOutcome::Done {
                output_len,
                out_root,
            })
        }
        STATUS_INTEGRITY_FAILURE if in_root.is_some() => Ok(VerifiedOutcome::InputTampered),
        STATUS_WINDOW_FAULT => Ok(VerifiedOutcome::WindowFault {
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

/// A session's memory protection with the keys its stages use — the
/// one place the host side branches on [`MemoryProtection`]. The
/// blocking [`run_on_salus`] and the serving plane both drive requests
/// through it.
#[derive(Debug)]
pub enum Plan {
    /// Confidentiality only.
    Plain(RunPlan),
    /// Confidentiality plus Merkle roots over both buffers.
    Verified(IntegrityPlan),
}

impl Plan {
    /// Captures a booted bed's session keys for `protection`.
    ///
    /// # Errors
    ///
    /// [`SalusError::Malformed`] before boot (no data key yet).
    pub fn prepare(bed: &TestBed, protection: MemoryProtection) -> Result<Plan, SalusError> {
        Ok(Plan::with(RunPlan::prepare(bed)?, protection))
    }

    fn with(run: RunPlan, protection: MemoryProtection) -> Plan {
        match protection {
            MemoryProtection::Confidentiality => Plan::Plain(run),
            MemoryProtection::ConfidentialityAndIntegrity => {
                Plan::Verified(IntegrityPlan::from_run(run))
            }
        }
    }

    fn run_plan(&self) -> &RunPlan {
        match self {
            Plan::Plain(p) => p,
            Plan::Verified(p) => p.run_plan(),
        }
    }

    /// Encrypts one staged payload in place; returns its input root
    /// (zeros without integrity).
    pub fn encrypt_input(&self, staged: &mut [u8]) -> [u8; 32] {
        match self {
            Plan::Plain(p) => {
                p.encrypt_input_in_place(staged);
                [0; 32]
            }
            Plan::Verified(p) => p.encrypt_input_in_place(staged),
        }
    }

    /// The key exchange: the same four writes under both protections.
    ///
    /// # Errors
    ///
    /// Register-channel violations.
    pub fn program_key(&self, bed: &mut TestBed) -> Result<(), SalusError> {
        stage_program_key(bed, self.run_plan())
    }

    /// Programs and runs one request. `in_root` is sent only under
    /// integrity protection, and [`VerifiedOutcome::InputTampered`] can
    /// only come from there.
    ///
    /// # Errors
    ///
    /// Register-channel violations; [`SalusError::Malformed`] on an
    /// unrecognised status.
    pub fn execute(
        &self,
        bed: &mut TestBed,
        req: &ExecRequest,
        in_root: &[u8; 32],
    ) -> Result<VerifiedOutcome, SalusError> {
        match self {
            Plan::Plain(_) => execute(bed, req, None),
            Plan::Verified(_) => stage_execute_verified(bed, req, in_root),
        }
    }

    /// Secure register transactions one [`execute`](Plan::execute) call
    /// spent to reach `outcome`: the input root (integrity only), four
    /// programming writes, START and STATUS; then OUTPUT_LEN unless the
    /// input was refused, and the output root after a verified run.
    pub fn exec_reg_ops(&self, outcome: &VerifiedOutcome) -> u32 {
        let roots = match self {
            Plan::Plain(_) => 0,
            Plan::Verified(_) => 4,
        };
        roots
            + 6
            + match outcome {
                VerifiedOutcome::Done { .. } => 1 + roots,
                VerifiedOutcome::WindowFault { .. } => 1,
                VerifiedOutcome::InputTampered => 0,
            }
    }

    /// Turns one read-back output into plaintext: verified against its
    /// root under integrity protection, decrypted if the workload
    /// encrypts output.
    ///
    /// # Errors
    ///
    /// [`SalusError::RegisterChannelViolation`] ("output integrity")
    /// when the output does not match its root.
    pub fn open_output(
        &self,
        output: &mut [u8],
        out_root: &[u8; 32],
        encrypt_output: bool,
    ) -> Result<(), SalusError> {
        match self {
            Plan::Plain(p) => {
                if encrypt_output {
                    p.decrypt_output(output);
                }
                Ok(())
            }
            Plan::Verified(p) => p.verify_output(output, out_root, encrypt_output),
        }
    }
}

/// Runs `workload` end-to-end on a booted bed under `protection` — the
/// one the bed's controller was installed with — and returns the
/// output.
///
/// This is the *blocking* serial loop: it pushes one transaction
/// through DMA-in → compute → DMA-out and does not return until the
/// output is read back (and verified), leaving the shell idle between
/// phases. It is expressed entirely in terms of [`Plan`] and the stage
/// functions; the pipelined serving plane (`salus::serving`)
/// interleaves the same stages across queued requests and co-resident
/// sessions.
///
/// # Errors
///
/// Register-channel and DMA failures;
/// [`SalusError::RegisterChannelViolation`] with "input integrity" or
/// "output integrity" when integrity protection caught the shell
/// tampering with a buffer.
pub fn run_on_salus(
    bed: &mut TestBed,
    workload: &dyn Workload,
    protection: MemoryProtection,
) -> Result<Vec<u8>, SalusError> {
    let plan = Plan::prepare(bed, protection)?;

    // Owner side: encrypt the input with the attested data key.
    let mut ciphertext = workload.input().to_vec();
    let in_root = plan.encrypt_input(&mut ciphertext);

    // Direct (unsecure) memory channel: window-confined DMA through the
    // shell. Offsets — here and in the registers below — are relative
    // to the session's window, so co-resident tenants on one board
    // never address each other's bytes.
    let window = bed.dram_window;
    let (input_offset, output_offset) = window_io_offsets(window);
    stage_dma_in(bed, input_offset, &ciphertext)?;

    // Secure register channel: key exchange + control.
    plan.program_key(bed)?;
    let req = ExecRequest {
        input_offset,
        input_len: workload.input().len(),
        output_offset,
        encrypt_output: workload.encrypt_output(),
    };
    let (output_len, out_root) = match plan.execute(bed, &req, &in_root)? {
        VerifiedOutcome::Done {
            output_len,
            out_root,
        } => (output_len, out_root),
        VerifiedOutcome::InputTampered => {
            return Err(SalusError::RegisterChannelViolation("input integrity"));
        }
        VerifiedOutcome::WindowFault { reported_len } => {
            return Err(SalusError::Fpga(salus_fpga::FpgaError::DmaOutOfWindow {
                offset: output_offset as u64,
                len: reported_len,
                window: window.len as u64,
            }))
        }
    };

    let mut output = stage_dma_out(bed, output_offset, output_len)?;
    plan.open_output(&mut output, &out_root, workload.encrypt_output())?;
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::affine::Affine;
    use crate::apps::conv::Conv;
    use salus_net::adversary::Snooper;

    const PLAIN: MemoryProtection = MemoryProtection::Confidentiality;
    const VERIFIED: MemoryProtection = MemoryProtection::ConfidentialityAndIntegrity;

    #[test]
    fn conv_end_to_end_on_salus_matches_reference() {
        let workload = Conv::paper_scale();
        let mut bed = boot_with_workload(&workload, PLAIN).unwrap();
        let output = run_on_salus(&mut bed, &workload, PLAIN).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
    }

    #[test]
    fn shell_sees_only_ciphertext_in_dram() {
        let workload = Affine::paper_scale();
        let mut bed = boot_with_workload(&workload, PLAIN).unwrap();
        let output = run_on_salus(&mut bed, &workload, PLAIN).unwrap();
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
        // the `integrity` module's Merkle roots).
        let workload = Conv::paper_scale();
        let bed = boot_with_workload(&workload, PLAIN).unwrap();
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
        let mut bed = boot_with_workload(&workload, PLAIN).unwrap();
        bed.secure_reg_write(regs::KEY0, 0xDEAD_BEEF).unwrap();
        assert_eq!(bed.secure_reg_read(regs::KEY0).unwrap(), 0);
    }

    #[test]
    fn charged_register_ops_match_the_sealed_messages_sent() {
        // The serving plane prices a request's compute stage at
        // `exec_reg_ops` secure register transactions. Count the sealed
        // messages the host actually puts on its register link for
        // every outcome under both protections.
        let workload = Conv::paper_scale();
        for protection in [PLAIN, VERIFIED] {
            let mut bed = boot_with_workload(&workload, protection).unwrap();
            let plan = Plan::prepare(&bed, protection).unwrap();
            let mut ciphertext = workload.input().to_vec();
            let in_root = plan.encrypt_input(&mut ciphertext);
            let (input_offset, output_offset) = window_io_offsets(bed.dram_window);
            let request = ExecRequest {
                input_offset,
                input_len: ciphertext.len(),
                output_offset,
                encrypt_output: workload.encrypt_output(),
            };
            let out_of_window = ExecRequest {
                output_offset: bed.dram_window.len - 1,
                ..request
            };
            stage_dma_in(&mut bed, input_offset, &ciphertext).unwrap();
            plan.program_key(&mut bed).unwrap();

            let link = bed
                .fabric
                .channel(&bed.names.host, &bed.names.fpga)
                .interpose(Snooper::new());
            let mut seen = Vec::new();
            let mut step = |bed: &mut TestBed, req: &ExecRequest, tamper: bool| {
                if tamper {
                    let abs = bed.dram_window.base + input_offset;
                    bed.shell.tamper_dram(abs + 5, &[0xFF]).unwrap();
                }
                let sent = link.with(|s| s.observed.len());
                let outcome = plan.execute(bed, req, &in_root).unwrap();
                let sent = link.with(|s| s.observed.len()) - sent;
                assert_eq!(
                    sent,
                    plan.exec_reg_ops(&outcome) as usize,
                    "{protection:?}: {outcome:?}"
                );
                seen.push(std::mem::discriminant(&outcome));
            };
            step(&mut bed, &request, false);
            step(&mut bed, &out_of_window, false);
            // The tampered input is refused under integrity and run on
            // garbage without it.
            step(&mut bed, &request, true);

            let done = VerifiedOutcome::Done {
                output_len: 0,
                out_root: [0; 32],
            };
            let fault = VerifiedOutcome::WindowFault { reported_len: 0 };
            let tampered = if protection == PLAIN {
                done
            } else {
                VerifiedOutcome::InputTampered
            };
            assert_eq!(
                seen,
                [done, fault, tampered].map(|o| std::mem::discriminant(&o)),
                "{protection:?}"
            );
        }
    }
}
