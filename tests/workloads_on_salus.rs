//! Integration: every paper workload end-to-end on a securely booted
//! Salus instance, with shell-side confidentiality checks.

use salus::accel::harness::{boot_with_workload, run_on_salus, MemoryProtection};
use salus::accel::runner::{run_all_modes, ExecMode};
use salus::accel::workload::all_workloads;

#[test]
fn all_five_workloads_run_on_a_booted_instance() {
    for workload in all_workloads() {
        let mut bed = boot_with_workload(workload.as_ref(), MemoryProtection::Confidentiality)
            .unwrap_or_else(|e| panic!("{} boot failed: {e}", workload.name()));
        let output = run_on_salus(
            &mut bed,
            workload.as_ref(),
            MemoryProtection::Confidentiality,
        )
        .unwrap_or_else(|e| panic!("{} run failed: {e}", workload.name()));
        let reference = workload.compute(workload.input());
        assert_eq!(output, reference, "{} output mismatch", workload.name());

        // The shell never saw the plaintext input in DRAM.
        let snooped = bed.shell.dma_read(0, workload.input().len()).unwrap();
        assert_ne!(
            snooped,
            workload.input(),
            "{} leaked input",
            workload.name()
        );
    }
}

#[test]
fn encrypted_output_workloads_hide_results_from_the_shell() {
    for workload in all_workloads() {
        if !workload.encrypt_output() {
            continue;
        }
        let mut bed =
            boot_with_workload(workload.as_ref(), MemoryProtection::Confidentiality).unwrap();
        let output = run_on_salus(
            &mut bed,
            workload.as_ref(),
            MemoryProtection::Confidentiality,
        )
        .unwrap();
        let snooped = bed.shell.dma_read(4 << 20, output.len()).unwrap();
        assert_ne!(snooped, output, "{} leaked output", workload.name());
    }
}

#[test]
fn all_five_workloads_serve_through_the_request_queue() {
    // The queued counterpart of `all_five_workloads_run_on_a_booted_instance`:
    // each workload is deployed once and its requests go through the
    // serving plane's batched, pipelined executor instead of the
    // blocking `run_on_salus` loop.
    use salus::serving::{ClientId, ServingConfig, ServingPlane};
    use salus::session::SecureSession;

    let mut plane = ServingPlane::new(ServingConfig::pipelined(4));
    let mut lanes = Vec::new();
    for workload in all_workloads() {
        let session = SecureSession::deploy(workload.as_ref())
            .unwrap_or_else(|e| panic!("{} boot failed: {e}", workload.name()));
        let lane = plane.attach(session, workload.as_ref());
        lanes.push((lane, workload));
    }

    // Two requests per workload: the paper input and a perturbed copy,
    // so the batch path exercises distinct outputs per request.
    let mut handles = Vec::new();
    for (lane, workload) in &lanes {
        let original = workload.input().to_vec();
        let mut perturbed = original.clone();
        perturbed[0] ^= 0x5a;
        for (client, payload) in [(0u64, original), (1, perturbed)] {
            let handle = plane
                .submit(*lane, ClientId(client), payload.clone())
                .unwrap_or_else(|e| panic!("{} submit failed: {e}", workload.name()));
            handles.push((handle, payload));
        }
    }

    let report = plane.drain().expect("drain");
    assert_eq!(report.requests, 2 * lanes.len());
    for (i, (handle, payload)) in handles.into_iter().enumerate() {
        let workload = &lanes[i / 2].1;
        let output = plane.take(handle).expect("response");
        assert_eq!(
            output,
            workload.compute(&payload),
            "{} queued output mismatch",
            workload.name()
        );
    }
}

#[test]
fn four_mode_outputs_agree_for_all_workloads() {
    for workload in all_workloads() {
        let results = run_all_modes(workload.as_ref());
        assert_eq!(results.len(), 4);
    }
}

#[test]
fn table6_and_fig10_shapes_hold() {
    let mut speedups = Vec::new();
    for workload in all_workloads() {
        let results = run_all_modes(workload.as_ref());
        let time = |mode: ExecMode| {
            results
                .iter()
                .find(|r| r.mode == mode)
                .unwrap()
                .virtual_time
                .as_secs_f64()
        };
        let cpu_slowdown = time(ExecMode::CpuTee) / time(ExecMode::CpuPlain);
        let fpga_slowdown = time(ExecMode::FpgaTee) / time(ExecMode::FpgaPlain);
        // Paper: CPU TEE slowdown up to 4.38×; FPGA TEE ≤ 1.05×.
        assert!(
            (1.0..=4.6).contains(&cpu_slowdown),
            "{} cpu slowdown {cpu_slowdown}",
            workload.name()
        );
        assert!(
            (1.0..=1.06).contains(&fpga_slowdown),
            "{} fpga slowdown {fpga_slowdown}",
            workload.name()
        );
        speedups.push(time(ExecMode::CpuTee) / time(ExecMode::FpgaTee));
    }
    let min = speedups.iter().cloned().fold(f64::MAX, f64::min);
    let max = speedups.iter().cloned().fold(0.0f64, f64::max);
    assert!((1.1..=1.3).contains(&min), "min speedup {min}");
    assert!((14.0..=17.0).contains(&max), "max speedup {max}");
}

#[test]
fn data_key_mismatch_yields_garbage_not_panic() {
    use salus::accel::apps::conv::Conv;
    use salus::accel::harness::regs;
    use salus::accel::runner::stream_ivs;
    use salus::crypto::ctr::AesCtr256;

    // Host encrypts with the attested Key_data, but a confused client
    // configures the accelerator with the wrong key: the run completes
    // (no oracle) and produces garbage.
    let workload = Conv::paper_scale();
    let mut bed = boot_with_workload(&workload, MemoryProtection::Confidentiality).unwrap();
    let good_key = *bed.user_app.data_key().unwrap().as_bytes();
    let (iv_in, _) = stream_ivs(&good_key);
    let mut ciphertext = workload.input().to_vec();
    AesCtr256::new(&good_key, &iv_in).apply_keystream(&mut ciphertext);
    bed.shell.dma_write(0, &ciphertext).unwrap();

    let wrong_key = [0u8; 32];
    for (i, chunk) in wrong_key.chunks_exact(8).enumerate() {
        bed.secure_reg_write(
            regs::KEY0 + i as u32,
            u64::from_le_bytes(chunk.try_into().unwrap()),
        )
        .unwrap();
    }
    bed.secure_reg_write(regs::INPUT_OFFSET, 0).unwrap();
    bed.secure_reg_write(regs::INPUT_LEN, workload.input().len() as u64)
        .unwrap();
    bed.secure_reg_write(regs::OUTPUT_OFFSET, 4 << 20).unwrap();
    bed.secure_reg_write(regs::START, 1).unwrap();
    let len = bed.secure_reg_read(regs::OUTPUT_LEN).unwrap() as usize;
    let garbage = bed.shell.dma_read(4 << 20, len).unwrap();
    use salus::accel::workload::Workload;
    assert_ne!(garbage, workload.compute(workload.input()));
}
