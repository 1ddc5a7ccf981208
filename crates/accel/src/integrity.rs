//! Integrity-protected DRAM channel — the §3.1 extension.
//!
//! The paper delegates device-memory protection to the developer and
//! points at Bonsai-Merkle-tree designs for the integrity half. This
//! module implements that developer-side protection for the
//! reproduction: the host authenticates the ciphertext it DMAs into
//! untrusted DRAM with a keyed Merkle root, passes the root over the
//! **secure register channel** (so the shell cannot substitute it), and
//! the accelerator refuses to run on tampered input. The output path is
//! protected symmetrically.
//!
//! Unlike the plain [`crate::harness`] channel — where shell tampering
//! silently corrupts data — every DRAM modification is *detected*.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use salus_core::instance::TestBed;
use salus_core::sm_logic::RegisterDevice;
use salus_core::SalusError;
use salus_crypto::aes::Aes256;
use salus_crypto::ctr::AesCtr256;
use salus_crypto::hmac::hkdf;
use salus_crypto::merkle::MerkleTree;
use salus_fpga::device::Device;
use salus_fpga::geometry::DramWindow;

use crate::harness::{window_io_offsets, ComputeFn, STATUS_WINDOW_FAULT};
use crate::runner::stream_ivs;
use crate::workload::Workload;

/// Merkle chunk size for DRAM authentication.
pub const CHUNK_SIZE: usize = 256;

/// Register map (disjoint from [`crate::harness::regs`] numerically, but
/// this controller replaces the plain one entirely).
pub mod regs {
    /// Data-key words 0–3 (write).
    pub const KEY0: u32 = 0;
    /// Input DRAM offset.
    pub const INPUT_OFFSET: u32 = 4;
    /// Input length in bytes.
    pub const INPUT_LEN: u32 = 5;
    /// Output DRAM offset.
    pub const OUTPUT_OFFSET: u32 = 6;
    /// Start command.
    pub const START: u32 = 7;
    /// Status: 0 = idle, 1 = done, 2 = INPUT INTEGRITY FAILURE.
    pub const STATUS: u32 = 8;
    /// Output length.
    pub const OUTPUT_LEN: u32 = 9;
    /// Whether the output stream is encrypted.
    pub const ENCRYPT_OUTPUT: u32 = 10;
    /// Input Merkle root words 0–3 (write).
    pub const IN_ROOT0: u32 = 16;
    /// Output Merkle root words 0–3 (read).
    pub const OUT_ROOT0: u32 = 20;
    /// Count of full Merkle rebuilds the controller has performed
    /// (read). Observability for the integrity session: a steady state
    /// of partial-touch requests should drive
    /// [`STAT_INCR_REFRESHES`] up while this stays flat.
    pub const STAT_FULL_BUILDS: u32 = 24;
    /// Count of incremental dirty-chunk root refreshes (read).
    pub const STAT_INCR_REFRESHES: u32 = 25;
    /// Total chunks re-hashed by incremental refreshes (read).
    pub const STAT_CHUNKS_REHASHED: u32 = 26;
}

/// Status value reported on input-integrity failure.
pub const STATUS_INTEGRITY_FAILURE: u64 = 2;

/// Derives the DRAM-authentication key from the data key.
pub fn integrity_key(data_key: &[u8; 32]) -> [u8; 32] {
    hkdf(b"salus-dram-integrity-v1", data_key, b"", 32)
        .try_into()
        .expect("32")
}

/// Computes the Merkle root authenticating `buffer`.
///
/// One-shot convenience over the same `SessionKeys` derivation the
/// controller and [`IntegrityPlan`] use — there is exactly one
/// data-key → Merkle-key path, so a root computed here always matches
/// a root computed by a session holding the same data key.
pub fn buffer_root(data_key: &[u8; 32], buffer: &[u8]) -> [u8; 32] {
    SessionKeys::derive(data_key).root(buffer)
}

/// How a controller derives the Merkle root over a DRAM buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RootMode {
    /// Long-lived per-buffer Merkle trees, refreshed incrementally from
    /// the device write log: O(k·log n) for k dirty chunks. The default
    /// hot path.
    #[default]
    Incremental,
    /// Rebuild every tree from scratch, serially, on every request —
    /// the reference behaviour the fast path is differentially pinned
    /// against (see `tests/integrity_path.rs`).
    FullRebuild,
}

/// Expanded per-data-key material: the AES-CTR key schedule and the
/// derived Merkle key. Both are expensive to derive relative to a short
/// transaction, so the controller (and the host helper) derive them
/// once per key and reuse them across every buffer they touch.
#[derive(Clone)]
struct SessionKeys {
    cipher: Aes256,
    merkle_key: [u8; 32],
}

impl SessionKeys {
    fn derive(data_key: &[u8; 32]) -> SessionKeys {
        SessionKeys {
            cipher: Aes256::new(data_key),
            merkle_key: integrity_key(data_key),
        }
    }

    fn root(&self, buffer: &[u8]) -> [u8; 32] {
        MerkleTree::build(&self.merkle_key, buffer, CHUNK_SIZE).root()
    }

    /// [`root`](SessionKeys::root) via the subtree-parallel build —
    /// bit-identical by construction (pinned in `salus-crypto`'s merkle
    /// tests), used on hot paths where the buffer is large.
    fn root_parallel(&self, buffer: &[u8]) -> [u8; 32] {
        MerkleTree::build_parallel(&self.merkle_key, buffer, CHUNK_SIZE).root()
    }

    /// A CTR stream at `iv` reusing the cached key schedule.
    fn ctr(&self, iv: &[u8; 16]) -> AesCtr256 {
        AesCtr256::from_cipher(self.cipher.clone(), iv)
    }
}

/// A Merkle tree retained across requests, tagged with the device
/// write-log cursor at which it last matched DRAM.
struct CachedTree {
    tree: MerkleTree,
    synced: u64,
}

/// Long-lived Merkle state the controller retains across requests: one
/// tree per `(absolute offset, length)` buffer shape, plus counters the
/// [`regs::STAT_FULL_BUILDS`]-family registers expose.
///
/// The dirty-tracking invariant (DESIGN.md §18): every DRAM write —
/// host DMA, the accelerator's own output, shell tampering — passes
/// through `Device::dram_write` and lands in the bounded device write
/// log *before* the next root read, because both the write and the
/// controller's `(contents, cursor)` snapshot happen under the one
/// device lock. Re-hashing exactly the logged ranges since a tree's
/// `synced` cursor therefore misses nothing; if the log has pruned past
/// that cursor, the session falls back to a full rebuild.
#[derive(Default)]
struct IntegritySession {
    trees: HashMap<(usize, usize), CachedTree>,
    full_builds: u64,
    incr_refreshes: u64,
    chunks_rehashed: u64,
}

impl IntegritySession {
    /// Root of `buffer` (a snapshot of DRAM at absolute offset `abs`,
    /// taken at write-log cursor `seq`). `writes` is the log suffix
    /// since the cached tree's sync point, or `None` when there is no
    /// usable cache (no tree yet, log pruned, foreign cursor).
    fn root_for(
        &mut self,
        keys: &SessionKeys,
        abs: usize,
        buffer: &[u8],
        seq: u64,
        writes: Option<Vec<(usize, usize)>>,
    ) -> [u8; 32] {
        let shape = (abs, buffer.len());
        if let Some(cached) = self.trees.get_mut(&shape) {
            if let Some(writes) = writes {
                let end = abs + buffer.len();
                let mut dirty: Vec<usize> = Vec::new();
                for (off, len) in writes {
                    let lo = off.max(abs);
                    let hi = (off + len).min(end);
                    if lo < hi {
                        dirty.extend((lo - abs) / CHUNK_SIZE..=(hi - 1 - abs) / CHUNK_SIZE);
                    }
                }
                dirty.sort_unstable();
                dirty.dedup();
                // A mostly-dirty buffer (e.g. a full DMA rewrite) is
                // cheaper to rebuild than to patch leaf-by-leaf.
                if dirty.len() < cached.tree.leaf_count() {
                    let updates: Vec<(usize, &[u8])> = dirty
                        .iter()
                        .map(|&i| {
                            let start = i * CHUNK_SIZE;
                            (i, &buffer[start..buffer.len().min(start + CHUNK_SIZE)])
                        })
                        .collect();
                    let root = cached.tree.update_chunks(&updates);
                    cached.synced = seq;
                    self.incr_refreshes += 1;
                    self.chunks_rehashed += dirty.len() as u64;
                    return root;
                }
            }
        }
        let tree = MerkleTree::build_parallel(&keys.merkle_key, buffer, CHUNK_SIZE);
        let root = tree.root();
        self.full_builds += 1;
        self.trees.insert(shape, CachedTree { tree, synced: seq });
        root
    }
}

/// The integrity-enforcing accelerator controller.
pub struct IntegrityCtl {
    device: Arc<Mutex<Device>>,
    /// The DRAM window this controller is confined to; every
    /// register-programmed offset is relative to it.
    window: DramWindow,
    compute: ComputeFn,
    key: [u8; 32],
    /// Schedules expanded from `key`, invalidated on key-register writes.
    session: Option<SessionKeys>,
    /// How roots are derived; [`RootMode::Incremental`] by default.
    root_mode: RootMode,
    /// Retained Merkle trees + counters (key-write invalidates, since
    /// the Merkle key changes with the data key).
    merkle: IntegritySession,
    in_root: [u8; 32],
    out_root: [u8; 32],
    input_offset: u64,
    input_len: u64,
    output_offset: u64,
    output_len: u64,
    encrypt_output: bool,
    status: u64,
}

impl std::fmt::Debug for IntegrityCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntegrityCtl")
            .field("status", &self.status)
            .finish_non_exhaustive()
    }
}

impl IntegrityCtl {
    /// Creates the controller for `device` running `compute`, confined
    /// to the whole device DRAM (single-tenant layout).
    pub fn new(device: Arc<Mutex<Device>>, compute: ComputeFn) -> IntegrityCtl {
        let window = DramWindow::whole_device(device.lock().dram_len());
        IntegrityCtl::windowed(device, window, compute)
    }

    /// Creates the controller confined to `window`; offsets programmed
    /// over the register channel are interpreted relative to it.
    pub fn windowed(
        device: Arc<Mutex<Device>>,
        window: DramWindow,
        compute: ComputeFn,
    ) -> IntegrityCtl {
        IntegrityCtl {
            device,
            window,
            compute,
            key: [0; 32],
            session: None,
            root_mode: RootMode::default(),
            merkle: IntegritySession::default(),
            in_root: [0; 32],
            out_root: [0; 32],
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

    /// Selects the root-derivation mode (builder style, for boot
    /// helpers).
    #[must_use]
    pub fn with_root_mode(mut self, mode: RootMode) -> IntegrityCtl {
        self.root_mode = mode;
        self
    }

    fn run(&mut self) {
        let session = self
            .session
            .get_or_insert_with(|| SessionKeys::derive(&self.key))
            .clone();
        let input_abs = match self
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
        // Snapshot the buffer contents *and* the write-log cursor under
        // one lock acquisition: every write sequenced before the cursor
        // is reflected in the snapshot, every later write will show up
        // in the next request's log suffix. This is what makes the
        // incremental dirty set exact (DESIGN.md §18).
        let (ciphertext, seq, writes) = {
            let device = self.device.lock();
            let ciphertext = device
                .dram_read(input_abs, self.input_len as usize)
                .expect("input range valid");
            let seq = device.dram_write_seq();
            let writes = self
                .merkle
                .trees
                .get(&(input_abs, ciphertext.len()))
                .and_then(|cached| device.dram_writes_since(cached.synced));
            (ciphertext, seq, writes)
        };

        // Verify DRAM contents against the root received over the
        // secure register channel *before* trusting a single byte.
        let computed_root = match self.root_mode {
            RootMode::Incremental => {
                self.merkle
                    .root_for(&session, input_abs, &ciphertext, seq, writes)
            }
            RootMode::FullRebuild => session.root(&ciphertext),
        };
        if computed_root != self.in_root {
            self.status = STATUS_INTEGRITY_FAILURE;
            self.output_len = 0;
            return;
        }

        let (iv_in, iv_out) = stream_ivs(&self.key);
        let mut input = ciphertext;
        session.ctr(&iv_in).apply_keystream_parallel(&mut input);
        let mut output = (self.compute)(&input);
        if self.encrypt_output {
            session.ctr(&iv_out).apply_keystream_parallel(&mut output);
        }
        self.out_root = match self.root_mode {
            RootMode::Incremental => session.root_parallel(&output),
            RootMode::FullRebuild => session.root(&output),
        };
        let output_abs = match self
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
            .dram_write(output_abs, &output)
            .expect("output range valid");
        self.status = 1;
    }
}

impl RegisterDevice for IntegrityCtl {
    fn write_reg(&mut self, addr: u32, value: u64) {
        match addr {
            regs::KEY0..=3 => {
                let i = addr as usize * 8;
                if self.key[i..i + 8] != value.to_le_bytes() {
                    self.key[i..i + 8].copy_from_slice(&value.to_le_bytes());
                    // Schedules must be re-expanded, and the Merkle key
                    // follows the data key — cached trees hash under the
                    // old key and cannot survive it. (Rewriting the *same*
                    // key — every blocking run re-programs it — keeps the
                    // session warm.)
                    self.session = None;
                    self.merkle.trees.clear();
                }
            }
            regs::IN_ROOT0..=19 => {
                let i = (addr - regs::IN_ROOT0) as usize * 8;
                self.in_root[i..i + 8].copy_from_slice(&value.to_le_bytes());
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
            regs::OUT_ROOT0..=23 => {
                let i = (addr - regs::OUT_ROOT0) as usize * 8;
                u64::from_le_bytes(self.out_root[i..i + 8].try_into().expect("8"))
            }
            regs::STAT_FULL_BUILDS => self.merkle.full_builds,
            regs::STAT_INCR_REFRESHES => self.merkle.incr_refreshes,
            regs::STAT_CHUNKS_REHASHED => self.merkle.chunks_rehashed,
            _ => 0,
        }
    }
}

/// Boots a bed with `workload` behind the integrity controller on the
/// default [`RootMode::Incremental`] fast path.
///
/// # Errors
///
/// Propagates boot failures.
pub fn boot_with_integrity(workload: &dyn Workload) -> Result<TestBed, SalusError> {
    boot_with_root_mode(workload, RootMode::Incremental)
}

/// Boots a bed with `workload` behind the integrity controller in
/// [`RootMode::FullRebuild`] — the serial reference the differential
/// suite pins the fast path against.
///
/// # Errors
///
/// Propagates boot failures.
pub fn boot_with_integrity_reference(workload: &dyn Workload) -> Result<TestBed, SalusError> {
    boot_with_root_mode(workload, RootMode::FullRebuild)
}

fn boot_with_root_mode(workload: &dyn Workload, mode: RootMode) -> Result<TestBed, SalusError> {
    let compute = crate::harness::workload_compute_fn(workload);
    crate::harness::boot_with_ctl(workload, move |bed| {
        Box::new(
            IntegrityCtl::windowed(bed.shell.device(), bed.dram_window, compute)
                .with_root_mode(mode),
        )
    })
}

/// Per-session state for staged transactions on the integrity-
/// protected channel: the cached key schedules plus the stream IVs.
///
/// The blocking [`run_with_integrity`] loop and the serving-plane
/// executor drive the same resumable stages —
/// [`stage_dma_in`](crate::harness::stage_dma_in) →
/// [`stage_program_key_verified`] → [`stage_execute_verified`] →
/// [`stage_dma_out`](crate::harness::stage_dma_out) →
/// [`IntegrityPlan::verify_output`] — so queued execution is byte-
/// identical to serial execution by construction.
pub struct IntegrityPlan {
    key: [u8; 32],
    iv_in: [u8; 16],
    iv_out: [u8; 16],
    session: SessionKeys,
    window: DramWindow,
}

impl std::fmt::Debug for IntegrityPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntegrityPlan")
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

impl IntegrityPlan {
    /// Captures the attested data key, derived schedules, and session
    /// window from a booted bed.
    ///
    /// # Errors
    ///
    /// [`SalusError::Malformed`] before boot (no data key yet).
    pub fn prepare(bed: &TestBed) -> Result<IntegrityPlan, SalusError> {
        let key = *bed
            .user_app
            .data_key()
            .ok_or(SalusError::Malformed("no data key — boot first"))?
            .as_bytes();
        let (iv_in, iv_out) = stream_ivs(&key);
        Ok(IntegrityPlan {
            key,
            iv_in,
            iv_out,
            session: SessionKeys::derive(&key),
            window: bed.dram_window,
        })
    }

    /// The session window every stage offset is relative to.
    pub fn window(&self) -> DramWindow {
        self.window
    }

    /// Owner-side encryption of one request payload plus its Merkle
    /// root. Keystream and root computation both restart per request
    /// (the serial contract), so batching does not change a single
    /// byte or root.
    pub fn encrypt_input(&self, payload: &[u8]) -> (Vec<u8>, [u8; 32]) {
        let mut ciphertext = payload.to_vec();
        let root = self.encrypt_input_in_place(&mut ciphertext);
        (ciphertext, root)
    }

    /// [`encrypt_input`](IntegrityPlan::encrypt_input) over a payload
    /// already copied into its staging buffer; returns the ciphertext's
    /// Merkle root.
    pub fn encrypt_input_in_place(&self, payload: &mut [u8]) -> [u8; 32] {
        self.session
            .ctr(&self.iv_in)
            .apply_keystream_parallel(payload);
        self.session.root_parallel(payload)
    }

    /// Verifies one request's output buffer against the root read back
    /// over the secure register channel, then decrypts it in place if
    /// the workload encrypts output.
    ///
    /// # Errors
    ///
    /// [`SalusError::RegisterChannelViolation`] ("output integrity")
    /// when the shell tampered with the result between the accelerator
    /// write and the host read.
    pub fn verify_output(
        &self,
        output: &mut [u8],
        expected_root: &[u8; 32],
        encrypt_output: bool,
    ) -> Result<(), SalusError> {
        if self.session.root_parallel(output) != *expected_root {
            return Err(SalusError::RegisterChannelViolation("output integrity"));
        }
        if encrypt_output {
            self.session
                .ctr(&self.iv_out)
                .apply_keystream_parallel(output);
        }
        Ok(())
    }
}

/// What one [`stage_execute_verified`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifiedOutcome {
    /// The run completed and `out_root` authenticates the output
    /// buffer at the programmed offset.
    Done {
        /// Output length in bytes.
        output_len: usize,
        /// Merkle root over the output buffer, read over the secure
        /// register channel.
        out_root: [u8; 32],
    },
    /// The accelerator refused to run: the input buffer in DRAM did
    /// not match the root passed over the secure channel.
    InputTampered,
    /// A programmed buffer did not fit the window (see
    /// [`ExecOutcome::WindowFault`](crate::harness::ExecOutcome)).
    WindowFault {
        /// The `OUTPUT_LEN` register at fault time.
        reported_len: u64,
    },
}

/// Key-exchange stage for the integrity channel (the data key only;
/// per-request roots travel with [`stage_execute_verified`]).
///
/// # Errors
///
/// Register-channel violations.
pub fn stage_program_key_verified(
    bed: &mut TestBed,
    plan: &IntegrityPlan,
) -> Result<(), SalusError> {
    for (i, chunk) in plan.key.chunks_exact(8).enumerate() {
        bed.secure_reg_write(
            regs::KEY0 + i as u32,
            u64::from_le_bytes(chunk.try_into().expect("8")),
        )?;
    }
    Ok(())
}

/// Compute stage on the integrity channel: passes the request's input
/// root over the secure register channel, programs the buffers, starts
/// the run, and reads back the status plus the output root.
///
/// # Errors
///
/// Register-channel violations; [`SalusError::Malformed`] on an
/// unrecognised status. Integrity failures and window faults are
/// *returned* so a batching executor can handle them per request.
pub fn stage_execute_verified(
    bed: &mut TestBed,
    req: &crate::harness::ExecRequest,
    in_root: &[u8; 32],
) -> Result<VerifiedOutcome, SalusError> {
    for (i, chunk) in in_root.chunks_exact(8).enumerate() {
        bed.secure_reg_write(
            regs::IN_ROOT0 + i as u32,
            u64::from_le_bytes(chunk.try_into().expect("8")),
        )?;
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
            for i in 0..4u32 {
                let word = bed.secure_reg_read(regs::OUT_ROOT0 + i)?;
                out_root[i as usize * 8..i as usize * 8 + 8].copy_from_slice(&word.to_le_bytes());
            }
            Ok(VerifiedOutcome::Done {
                output_len,
                out_root,
            })
        }
        STATUS_INTEGRITY_FAILURE => Ok(VerifiedOutcome::InputTampered),
        STATUS_WINDOW_FAULT => Ok(VerifiedOutcome::WindowFault {
            reported_len: bed.secure_reg_read(regs::OUTPUT_LEN)?,
        }),
        _ => Err(SalusError::Malformed("accelerator did not complete")),
    }
}

/// Runs `workload` through the integrity-protected channel.
///
/// Like [`run_on_salus`](crate::harness::run_on_salus) this is the
/// *blocking* serial loop, composed from the resumable stage functions
/// the serving plane interleaves.
///
/// # Errors
///
/// * [`SalusError::RegisterChannelViolation`] with "input integrity"
///   when the shell tampered with the input buffer,
/// * ditto "output integrity" for tampered results.
pub fn run_with_integrity(
    bed: &mut TestBed,
    workload: &dyn Workload,
) -> Result<Vec<u8>, SalusError> {
    let plan = IntegrityPlan::prepare(bed)?;
    let (ciphertext, in_root) = plan.encrypt_input(workload.input());

    // Window-relative I/O: the same layout co-resident tenants use, so
    // the integrity protocol never addresses DRAM outside the lease.
    let window = plan.window();
    let (input_offset, output_offset) = window_io_offsets(window);
    crate::harness::stage_dma_in(bed, input_offset, &ciphertext)?;

    stage_program_key_verified(bed, &plan)?;
    let req = crate::harness::ExecRequest {
        input_offset,
        input_len: workload.input().len(),
        output_offset,
        encrypt_output: workload.encrypt_output(),
    };
    let (output_len, expected_root) = match stage_execute_verified(bed, &req, &in_root)? {
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

    let mut output = crate::harness::stage_dma_out(bed, output_offset, output_len)?;
    plan.verify_output(&mut output, &expected_root, workload.encrypt_output())?;
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::affine::Affine;
    use crate::apps::conv::Conv;

    #[test]
    fn honest_run_matches_reference() {
        let workload = Conv::paper_scale();
        let mut bed = boot_with_integrity(&workload).unwrap();
        let output = run_with_integrity(&mut bed, &workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
    }

    #[test]
    fn honest_run_matches_reference_in_full_rebuild_mode() {
        let workload = Conv::paper_scale();
        let mut bed = boot_with_integrity_reference(&workload).unwrap();
        let output = run_with_integrity(&mut bed, &workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
    }

    #[test]
    fn integrity_key_derivation_is_pinned() {
        // The root-derivation unification (buffer_root → SessionKeys)
        // must not move the key-derivation output: any change here
        // breaks every stored root in the field.
        let data_key: [u8; 32] = core::array::from_fn(|i| i as u8);
        assert_eq!(
            salus_crypto::sha256::to_hex(&integrity_key(&data_key)),
            "33a1825f50485b3d485618d746047fe519e60e1509c9d9a249919f7a1ad77e98"
        );
        // And buffer_root still equals a direct build under that key.
        let buffer = vec![7u8; 1000];
        assert_eq!(
            buffer_root(&data_key, &buffer),
            MerkleTree::build(&integrity_key(&data_key), &buffer, CHUNK_SIZE).root()
        );
    }

    #[test]
    fn repeat_requests_take_the_incremental_path() {
        // Drive the same request twice: the first pays a full build for
        // the input tree, the second refreshes incrementally (the host
        // rewrites every input chunk, but the write pattern is the
        // *same bytes*, so the dirty set is what the DMA touched and the
        // refresh must still produce the correct — matching — root).
        let workload = Conv::paper_scale();
        let mut bed = boot_with_integrity(&workload).unwrap();
        let first = run_with_integrity(&mut bed, &workload).unwrap();
        let second = run_with_integrity(&mut bed, &workload).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, workload.compute(workload.input()));

        let full = bed.secure_reg_read(regs::STAT_FULL_BUILDS).unwrap();
        let incr = bed.secure_reg_read(regs::STAT_INCR_REFRESHES).unwrap();
        assert!(full >= 1, "first request pays a full build");
        // A full DMA rewrite marks every chunk dirty, which the session
        // deliberately converts back into a rebuild — so there is no
        // incremental refresh here, only correctness. Partial-touch
        // refresh is exercised below and in tests/integrity_path.rs.
        assert_eq!(incr + full, full, "stats registers are consistent");
    }

    #[test]
    fn partial_touch_refreshes_incrementally_and_detects_tampering() {
        // Program a request once, then flip one chunk of the input via
        // shell tampering and re-start *without* re-sending the root:
        // the incremental session must re-hash the tampered chunk and
        // refuse to run. Then overwrite the chunk with the original
        // bytes and re-start: the refresh must accept again (no
        // false positive from a stale tree).
        let workload = Conv::paper_scale();
        let mut bed = boot_with_integrity(&workload).unwrap();
        let key = *bed.user_app.data_key().unwrap().as_bytes();
        let (iv_in, _) = stream_ivs(&key);
        let mut ciphertext = workload.input().to_vec();
        AesCtr256::new(&key, &iv_in).apply_keystream(&mut ciphertext);
        let in_root = buffer_root(&key, &ciphertext);
        bed.shell.dma_write(0, &ciphertext).unwrap();
        for (i, chunk) in key.chunks_exact(8).enumerate() {
            bed.secure_reg_write(
                regs::KEY0 + i as u32,
                u64::from_le_bytes(chunk.try_into().unwrap()),
            )
            .unwrap();
        }
        for (i, chunk) in in_root.chunks_exact(8).enumerate() {
            bed.secure_reg_write(
                regs::IN_ROOT0 + i as u32,
                u64::from_le_bytes(chunk.try_into().unwrap()),
            )
            .unwrap();
        }
        bed.secure_reg_write(regs::INPUT_OFFSET, 0).unwrap();
        bed.secure_reg_write(regs::INPUT_LEN, ciphertext.len() as u64)
            .unwrap();
        bed.secure_reg_write(regs::OUTPUT_OFFSET, 4 << 20).unwrap();
        bed.secure_reg_write(regs::START, 1).unwrap();
        assert_eq!(bed.secure_reg_read(regs::STATUS).unwrap(), 1);
        let builds_after_first = bed.secure_reg_read(regs::STAT_FULL_BUILDS).unwrap();

        // Tamper one byte mid-buffer; the tamper write is in the device
        // log, so the incremental refresh re-hashes exactly that chunk.
        bed.shell.tamper_dram(512, &[0xEE]).unwrap();
        bed.secure_reg_write(regs::START, 1).unwrap();
        assert_eq!(
            bed.secure_reg_read(regs::STATUS).unwrap(),
            STATUS_INTEGRITY_FAILURE
        );
        assert!(
            bed.secure_reg_read(regs::STAT_INCR_REFRESHES).unwrap() >= 1,
            "single-chunk tamper must take the incremental path"
        );
        assert_eq!(
            bed.secure_reg_read(regs::STAT_FULL_BUILDS).unwrap(),
            builds_after_first,
            "no extra full rebuild for a one-chunk touch"
        );
        let rehashed = bed.secure_reg_read(regs::STAT_CHUNKS_REHASHED).unwrap();
        assert!(
            rehashed >= 1 && rehashed < (ciphertext.len() / CHUNK_SIZE) as u64,
            "refresh touched the dirty chunk(s) only, not the window"
        );

        // Restore the original bytes: same chunk dirty again, and the
        // session must accept — the stale-tree state self-heals.
        bed.shell.dma_write(512, &ciphertext[512..513]).unwrap();
        bed.secure_reg_write(regs::START, 1).unwrap();
        assert_eq!(bed.secure_reg_read(regs::STATUS).unwrap(), 1);
    }

    #[test]
    fn input_tampering_is_detected_not_absorbed() {
        let workload = Conv::paper_scale();
        let mut bed = boot_with_integrity(&workload).unwrap();

        // Interleave: host DMAs, shell tampers, host starts.
        let key = *bed.user_app.data_key().unwrap().as_bytes();
        let (iv_in, _) = stream_ivs(&key);
        let mut ciphertext = workload.input().to_vec();
        AesCtr256::new(&key, &iv_in).apply_keystream(&mut ciphertext);
        let in_root = buffer_root(&key, &ciphertext);
        bed.shell.dma_write(0, &ciphertext).unwrap();
        bed.shell.tamper_dram(5, &[0xFF]).unwrap();

        for (i, chunk) in key.chunks_exact(8).enumerate() {
            bed.secure_reg_write(
                regs::KEY0 + i as u32,
                u64::from_le_bytes(chunk.try_into().unwrap()),
            )
            .unwrap();
        }
        for (i, chunk) in in_root.chunks_exact(8).enumerate() {
            bed.secure_reg_write(
                regs::IN_ROOT0 + i as u32,
                u64::from_le_bytes(chunk.try_into().unwrap()),
            )
            .unwrap();
        }
        bed.secure_reg_write(regs::INPUT_OFFSET, 0).unwrap();
        bed.secure_reg_write(regs::INPUT_LEN, workload.input().len() as u64)
            .unwrap();
        bed.secure_reg_write(regs::OUTPUT_OFFSET, 4 << 20).unwrap();
        bed.secure_reg_write(regs::START, 1).unwrap();
        assert_eq!(
            bed.secure_reg_read(regs::STATUS).unwrap(),
            STATUS_INTEGRITY_FAILURE
        );
    }

    #[test]
    fn output_tampering_is_detected_by_the_host() {
        let workload = Affine::paper_scale();
        let mut bed = boot_with_integrity(&workload).unwrap();

        // Run honestly first so the output lands in DRAM, then have a
        // second read path hit tampered bytes: easiest is to rerun with
        // a tamper between START and the host's DMA read. We emulate by
        // performing the full protocol manually up to the read.
        let key = *bed.user_app.data_key().unwrap().as_bytes();
        let (iv_in, _) = stream_ivs(&key);
        let mut ciphertext = workload.input().to_vec();
        AesCtr256::new(&key, &iv_in).apply_keystream(&mut ciphertext);
        let in_root = buffer_root(&key, &ciphertext);
        bed.shell.dma_write(0, &ciphertext).unwrap();
        for (i, chunk) in key.chunks_exact(8).enumerate() {
            bed.secure_reg_write(
                regs::KEY0 + i as u32,
                u64::from_le_bytes(chunk.try_into().unwrap()),
            )
            .unwrap();
        }
        for (i, chunk) in in_root.chunks_exact(8).enumerate() {
            bed.secure_reg_write(
                regs::IN_ROOT0 + i as u32,
                u64::from_le_bytes(chunk.try_into().unwrap()),
            )
            .unwrap();
        }
        bed.secure_reg_write(regs::INPUT_OFFSET, 0).unwrap();
        bed.secure_reg_write(regs::INPUT_LEN, workload.input().len() as u64)
            .unwrap();
        bed.secure_reg_write(regs::OUTPUT_OFFSET, 4 << 20).unwrap();
        bed.secure_reg_write(regs::ENCRYPT_OUTPUT, 1).unwrap();
        bed.secure_reg_write(regs::START, 1).unwrap();
        assert_eq!(bed.secure_reg_read(regs::STATUS).unwrap(), 1);

        // Shell tampers with the result buffer before the host reads it.
        bed.shell.tamper_dram((4 << 20) + 3, &[0x5A]).unwrap();

        let output_len = bed.secure_reg_read(regs::OUTPUT_LEN).unwrap() as usize;
        let mut expected_root = [0u8; 32];
        for i in 0..4u32 {
            let word = bed.secure_reg_read(regs::OUT_ROOT0 + i).unwrap();
            expected_root[i as usize * 8..i as usize * 8 + 8].copy_from_slice(&word.to_le_bytes());
        }
        let output = bed.shell.dma_read(4 << 20, output_len).unwrap();
        assert_ne!(
            buffer_root(&key, &output),
            expected_root,
            "tampered output must fail root verification"
        );
    }

    #[test]
    fn plain_channel_absorbs_what_integrity_channel_detects() {
        // The contrast motivating the extension: same attack, plain
        // harness silently computes on garbage.
        use crate::harness::{boot_with_workload, regs as plain_regs};
        let workload = Conv::paper_scale();
        let mut bed = boot_with_workload(&workload).unwrap();
        let key = *bed.user_app.data_key().unwrap().as_bytes();
        let (iv_in, _) = stream_ivs(&key);
        let mut ciphertext = workload.input().to_vec();
        AesCtr256::new(&key, &iv_in).apply_keystream(&mut ciphertext);
        bed.shell.dma_write(0, &ciphertext).unwrap();
        bed.shell.tamper_dram(5, &[0xFF]).unwrap();
        for (i, chunk) in key.chunks_exact(8).enumerate() {
            bed.secure_reg_write(
                plain_regs::KEY0 + i as u32,
                u64::from_le_bytes(chunk.try_into().unwrap()),
            )
            .unwrap();
        }
        bed.secure_reg_write(plain_regs::INPUT_OFFSET, 0).unwrap();
        bed.secure_reg_write(plain_regs::INPUT_LEN, workload.input().len() as u64)
            .unwrap();
        bed.secure_reg_write(plain_regs::OUTPUT_OFFSET, 4 << 20)
            .unwrap();
        bed.secure_reg_write(plain_regs::START, 1).unwrap();
        // Completes "successfully" — on corrupted data.
        assert_eq!(bed.secure_reg_read(plain_regs::STATUS).unwrap(), 1);
        let len = bed.secure_reg_read(plain_regs::OUTPUT_LEN).unwrap() as usize;
        let garbage = bed.shell.dma_read(4 << 20, len).unwrap();
        assert_ne!(garbage, workload.compute(workload.input()));
    }
}
