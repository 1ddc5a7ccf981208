//! Secure ML inference: the paper's motivating scenario end-to-end.
//!
//! A data owner rents a CPU-FPGA instance, attests the whole platform
//! with one cascaded remote attestation, and then streams *encrypted*
//! feature maps through the malicious shell to a convolution
//! accelerator running inside the FPGA TEE. The example also runs the
//! same inference inside the CPU TEE and prints the modelled speedup
//! (the Figure 10 story for Conv).
//!
//! ```sh
//! cargo run --example secure_ml_inference
//! ```

use salus::accel::apps::conv::Conv;
use salus::accel::harness::{boot_with_workload, run_on_salus, MemoryProtection};
use salus::accel::runner::{run, ExecMode};
use salus::accel::workload::Workload;

fn main() {
    println!("=== Secure ML inference (Conv) on Salus ===\n");

    let workload = Conv::paper_scale();

    // 1. Boot a deployment whose CL carries the Conv accelerator + SM
    //    logic, via the full secure flow.
    let mut bed =
        boot_with_workload(&workload, MemoryProtection::Confidentiality).expect("secure boot");
    println!("platform attested; Key_data released to the user enclave");

    // 2. Run the inference: ciphertext DMA in, compute behind the SM
    //    logic, results back.
    let output = run_on_salus(&mut bed, &workload, MemoryProtection::Confidentiality)
        .expect("accelerated run");
    let reference = workload.compute(workload.input());
    assert_eq!(output, reference, "FPGA TEE result matches reference");
    println!(
        "inference result: {} output bytes, matches CPU reference: true",
        output.len()
    );

    // 3. The shell snooped the DMA buffers the whole time — verify it
    //    saw no plaintext.
    let snooped = bed
        .shell
        .snoop_dram(0, workload.input().len())
        .expect("shell can always read DRAM");
    println!(
        "shell snooped input buffer; equals plaintext: {}",
        snooped == workload.input()
    );
    assert_ne!(snooped, workload.input());

    // 4. Compare against running the same job inside the CPU enclave.
    let sgx = run(&workload, ExecMode::CpuTee);
    let salus = run(&workload, ExecMode::FpgaTee);
    println!(
        "\nmodelled time  SGX: {:.2} ms   Salus: {:.2} ms   speedup: {:.2}x",
        sgx.virtual_time.as_secs_f64() * 1e3,
        salus.virtual_time.as_secs_f64() * 1e3,
        sgx.virtual_time.as_secs_f64() / salus.virtual_time.as_secs_f64()
    );
}
