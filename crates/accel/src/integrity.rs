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
//! The accelerator side is [`crate::harness::AcceleratorCtl`] built
//! with [`MemoryProtection::ConfidentialityAndIntegrity`]: on every
//! START it rebuilds the input root from the DRAM snapshot it is about
//! to decrypt. Unlike confidentiality alone — where shell tampering
//! silently corrupts data — every DRAM modification is *detected*.
//!
//! [`MemoryProtection::ConfidentialityAndIntegrity`]: crate::harness::MemoryProtection

use salus_core::instance::TestBed;
use salus_core::SalusError;
use salus_crypto::hmac::hkdf;
use salus_crypto::merkle::MerkleTree;
use salus_fpga::geometry::DramWindow;

use crate::harness::{execute, stage_program_key, ExecRequest, RunPlan};

/// Merkle chunk size for DRAM authentication.
pub const CHUNK_SIZE: usize = 256;

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
/// One-shot convenience over the same data-key → Merkle-key derivation
/// the controller and [`IntegrityPlan`] use, so a root computed here
/// always matches a root computed by a session holding the same data
/// key.
pub fn buffer_root(data_key: &[u8; 32], buffer: &[u8]) -> [u8; 32] {
    MerkleTree::build(&integrity_key(data_key), buffer, CHUNK_SIZE).root()
}

/// Per-session state for staged transactions on the integrity-
/// protected channel: the confidentiality plan plus the derived Merkle
/// key.
///
/// The blocking [`run_on_salus`](crate::harness::run_on_salus) loop and
/// the serving-plane executor drive the same resumable stages —
/// [`stage_dma_in`](crate::harness::stage_dma_in) →
/// [`stage_program_key_verified`] → [`stage_execute_verified`] →
/// [`stage_dma_out`](crate::harness::stage_dma_out) →
/// [`IntegrityPlan::verify_output`] — so queued execution is byte-
/// identical to serial execution by construction.
pub struct IntegrityPlan {
    run: RunPlan,
    merkle_key: [u8; 32],
}

impl std::fmt::Debug for IntegrityPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntegrityPlan")
            .field("run", &self.run)
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
        RunPlan::prepare(bed).map(IntegrityPlan::from_run)
    }

    pub(crate) fn from_run(run: RunPlan) -> IntegrityPlan {
        IntegrityPlan {
            merkle_key: integrity_key(run.key()),
            run,
        }
    }

    pub(crate) fn run_plan(&self) -> &RunPlan {
        &self.run
    }

    /// The Merkle root of `buffer` under the session's key, built on
    /// parallel subtrees (bit-identical to [`buffer_root`]).
    pub(crate) fn root(&self, buffer: &[u8]) -> [u8; 32] {
        MerkleTree::build_parallel(&self.merkle_key, buffer, CHUNK_SIZE).root()
    }

    /// The session window every stage offset is relative to.
    pub fn window(&self) -> DramWindow {
        self.run.window()
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
        self.run.encrypt_input_in_place(payload);
        self.root(payload)
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
        if self.root(output) != *expected_root {
            return Err(SalusError::RegisterChannelViolation("output integrity"));
        }
        if encrypt_output {
            self.run.decrypt_output(output);
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
    stage_program_key(bed, &plan.run)
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
    req: &ExecRequest,
    in_root: &[u8; 32],
) -> Result<VerifiedOutcome, SalusError> {
    execute(bed, req, Some(in_root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::affine::Affine;
    use crate::apps::conv::Conv;
    use crate::harness::{boot_with_workload, regs, run_on_salus, MemoryProtection};
    use crate::runner::stream_ivs;
    use crate::workload::Workload;
    use salus_crypto::ctr::AesCtr256;

    const VERIFIED: MemoryProtection = MemoryProtection::ConfidentialityAndIntegrity;

    /// Encrypts `workload`'s input under the bed's data key, DMAs it to
    /// offset 0, lets `tamper` strike, then programs key, input root and
    /// buffers over the secure register channel up to (not including)
    /// START. Returns the data key.
    fn stage_by_hand(
        bed: &mut TestBed,
        workload: &dyn Workload,
        tamper: impl FnOnce(&TestBed),
    ) -> [u8; 32] {
        let key = *bed.user_app.data_key().unwrap().as_bytes();
        let (iv_in, _) = stream_ivs(&key);
        let mut ciphertext = workload.input().to_vec();
        AesCtr256::new(&key, &iv_in).apply_keystream(&mut ciphertext);
        let in_root = buffer_root(&key, &ciphertext);
        bed.shell.dma_write(0, &ciphertext).unwrap();
        tamper(bed);
        for (base, words) in [(regs::KEY0, &key), (regs::IN_ROOT0, &in_root)] {
            for (i, chunk) in words.chunks_exact(8).enumerate() {
                bed.secure_reg_write(
                    base + i as u32,
                    u64::from_le_bytes(chunk.try_into().unwrap()),
                )
                .unwrap();
            }
        }
        bed.secure_reg_write(regs::INPUT_OFFSET, 0).unwrap();
        bed.secure_reg_write(regs::INPUT_LEN, workload.input().len() as u64)
            .unwrap();
        bed.secure_reg_write(regs::OUTPUT_OFFSET, 4 << 20).unwrap();
        key
    }

    #[test]
    fn honest_run_matches_reference() {
        let workload = Conv::paper_scale();
        let mut bed = boot_with_workload(&workload, VERIFIED).unwrap();
        let output = run_on_salus(&mut bed, &workload, VERIFIED).unwrap();
        assert_eq!(output, workload.compute(workload.input()));
    }

    #[test]
    fn integrity_key_derivation_is_pinned() {
        // Any change to the key derivation breaks every stored root in
        // the field.
        let data_key: [u8; 32] = core::array::from_fn(|i| i as u8);
        assert_eq!(
            salus_crypto::sha256::to_hex(&integrity_key(&data_key)),
            "33a1825f50485b3d485618d746047fe519e60e1509c9d9a249919f7a1ad77e98"
        );
        // And buffer_root equals the parallel build sessions use.
        let buffer = vec![7u8; 1000];
        assert_eq!(
            buffer_root(&data_key, &buffer),
            MerkleTree::build_parallel(&integrity_key(&data_key), &buffer, CHUNK_SIZE).root()
        );
    }

    #[test]
    fn input_tampering_is_detected_not_absorbed() {
        let workload = Conv::paper_scale();
        let mut bed = boot_with_workload(&workload, VERIFIED).unwrap();
        // Interleave: host DMAs, shell tampers, host starts.
        stage_by_hand(&mut bed, &workload, |bed| {
            bed.shell.tamper_dram(5, &[0xFF]).unwrap();
        });
        bed.secure_reg_write(regs::START, 1).unwrap();
        assert_eq!(
            bed.secure_reg_read(regs::STATUS).unwrap(),
            STATUS_INTEGRITY_FAILURE
        );
    }

    #[test]
    fn output_tampering_is_detected_by_the_host() {
        let workload = Affine::paper_scale();
        let mut bed = boot_with_workload(&workload, VERIFIED).unwrap();

        // Run honestly so the output lands in DRAM, then have the shell
        // tamper with it between START and the host's DMA read.
        let key = stage_by_hand(&mut bed, &workload, |_| {});
        bed.secure_reg_write(regs::ENCRYPT_OUTPUT, 1).unwrap();
        bed.secure_reg_write(regs::START, 1).unwrap();
        assert_eq!(bed.secure_reg_read(regs::STATUS).unwrap(), 1);
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
        // The contrast motivating the extension: same attack, the
        // confidentiality-only controller silently computes on garbage.
        let workload = Conv::paper_scale();
        let mut bed = boot_with_workload(&workload, MemoryProtection::Confidentiality).unwrap();
        stage_by_hand(&mut bed, &workload, |bed| {
            bed.shell.tamper_dram(5, &[0xFF]).unwrap();
        });
        bed.secure_reg_write(regs::START, 1).unwrap();
        // Completes "successfully" — on corrupted data.
        assert_eq!(bed.secure_reg_read(regs::STATUS).unwrap(), 1);
        let len = bed.secure_reg_read(regs::OUTPUT_LEN).unwrap() as usize;
        let garbage = bed.shell.dma_read(4 << 20, len).unwrap();
        assert_ne!(garbage, workload.compute(workload.input()));

        // And it did no Merkle work: no tree built, no output root
        // published — the input root it was sent is ignored.
        assert_eq!(bed.secure_reg_read(regs::STAT_FULL_BUILDS).unwrap(), 0);
        for i in 0..4 {
            assert_eq!(bed.secure_reg_read(regs::OUT_ROOT0 + i).unwrap(), 0);
        }
    }
}
