//! Execution modes and the model-timed runner behind Table 6 / Fig. 10.
//!
//! Four modes per workload. The *data transformations* are always
//! executed for real — TEE modes genuinely AES-CTR-encrypt the traffic
//! that the paper says is encrypted — while *time* comes from the
//! calibrated [`crate::profile`] model, keeping results deterministic.

use std::time::Duration;

use salus_crypto::ctr::AesCtr256;
use salus_crypto::sha256::Sha256;

use crate::workload::Workload;

/// Where and how a workload executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Plaintext on the CPU (no TEE).
    CpuPlain,
    /// Inside a CPU enclave: boundary crypto + EPC overhead.
    CpuTee,
    /// Plaintext on the FPGA (no TEE).
    FpgaPlain,
    /// On the FPGA TEE: AES-CTR streaming at the memory interface.
    FpgaTee,
}

impl ExecMode {
    /// All four modes, in Table 6 order.
    pub fn all() -> [ExecMode; 4] {
        [
            ExecMode::CpuPlain,
            ExecMode::CpuTee,
            ExecMode::FpgaPlain,
            ExecMode::FpgaTee,
        ]
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The mode that produced it.
    pub mode: ExecMode,
    /// Modelled execution time.
    pub virtual_time: Duration,
    /// The computed output (identical across modes).
    pub output: Vec<u8>,
}

/// Derives the two stream IVs from a data key.
pub fn stream_ivs(key: &[u8; 32]) -> ([u8; 16], [u8; 16]) {
    let d_in = Sha256::digest_parts(&[key, b"salus-stream-in"]);
    let d_out = Sha256::digest_parts(&[key, b"salus-stream-out"]);
    (
        d_in[..16].try_into().expect("16"),
        d_out[..16].try_into().expect("16"),
    )
}

/// The demo data key used by the standalone runner (the full-stack
/// harness uses the attested `Key_data` instead).
pub const DEMO_DATA_KEY: [u8; 32] = [0x5D; 32];

/// Runs `workload` in `mode`, returning output + modelled time.
pub fn run(workload: &dyn Workload, mode: ExecMode) -> RunResult {
    let profile = workload.profile();
    let (iv_in, iv_out) = stream_ivs(&DEMO_DATA_KEY);

    let output = match mode {
        ExecMode::CpuPlain | ExecMode::FpgaPlain => workload.compute(workload.input()),
        ExecMode::CpuTee | ExecMode::FpgaTee => {
            // One schedule expansion serves all four stream passes.
            let cipher = salus_crypto::aes::Aes256::new(&DEMO_DATA_KEY);

            // Owner side: encrypt the input traffic.
            let mut wire_in = workload.input().to_vec();
            AesCtr256::from_cipher(cipher.clone(), &iv_in).apply_keystream(&mut wire_in);
            debug_assert_ne!(wire_in, workload.input(), "ciphertext differs");

            // Trusted side (enclave / CL): decrypt, compute.
            AesCtr256::from_cipher(cipher.clone(), &iv_in).apply_keystream(&mut wire_in);
            let mut output = workload.compute(&wire_in);

            if workload.encrypt_output() {
                // Trusted side encrypts the outbound traffic…
                AesCtr256::from_cipher(cipher.clone(), &iv_out).apply_keystream(&mut output);
                // …and the owner decrypts it.
                AesCtr256::from_cipher(cipher, &iv_out).apply_keystream(&mut output);
            }
            output
        }
    };

    let virtual_time = match mode {
        ExecMode::CpuPlain => profile.cpu_plain,
        ExecMode::CpuTee => profile.cpu_tee(),
        ExecMode::FpgaPlain => profile.fpga_plain,
        ExecMode::FpgaTee => profile.fpga_tee(),
    };

    RunResult {
        mode,
        virtual_time,
        output,
    }
}

/// Runs all four modes and asserts output equality (the correctness
/// cross-check every experiment relies on).
pub fn run_all_modes(workload: &dyn Workload) -> Vec<RunResult> {
    let results: Vec<RunResult> = ExecMode::all()
        .into_iter()
        .map(|mode| run(workload, mode))
        .collect();
    let reference = &results[0].output;
    for r in &results[1..] {
        assert_eq!(
            &r.output,
            reference,
            "{:?} output diverged for {}",
            r.mode,
            workload.name()
        );
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::all_workloads;

    #[test]
    fn all_modes_agree_for_every_workload() {
        for w in all_workloads() {
            run_all_modes(w.as_ref());
        }
    }

    #[test]
    fn tee_modes_cost_more_than_plain() {
        for w in all_workloads() {
            let cpu = run(w.as_ref(), ExecMode::CpuPlain).virtual_time;
            let cpu_tee = run(w.as_ref(), ExecMode::CpuTee).virtual_time;
            let fpga = run(w.as_ref(), ExecMode::FpgaPlain).virtual_time;
            let fpga_tee = run(w.as_ref(), ExecMode::FpgaTee).virtual_time;
            assert!(cpu_tee > cpu, "{}", w.name());
            assert!(fpga_tee > fpga, "{}", w.name());
        }
    }

    #[test]
    fn salus_beats_sgx_for_every_workload() {
        for w in all_workloads() {
            let cpu_tee = run(w.as_ref(), ExecMode::CpuTee).virtual_time;
            let fpga_tee = run(w.as_ref(), ExecMode::FpgaTee).virtual_time;
            assert!(fpga_tee < cpu_tee, "{}", w.name());
        }
    }

    #[test]
    fn stream_ivs_are_distinct_and_key_bound() {
        let (a_in, a_out) = stream_ivs(&[1; 32]);
        let (b_in, _) = stream_ivs(&[2; 32]);
        assert_ne!(a_in, a_out);
        assert_ne!(a_in, b_in);
    }
}
