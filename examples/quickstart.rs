//! Quickstart: provision a heterogeneous cloud instance, run the full
//! Salus secure boot, and use the attested secure register channel.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use salus::core::boot::{secure_boot, BootPlan};
use salus::core::instance::{endpoints, TestBed};
use salus::net::adversary::Snooper;

fn main() {
    println!("=== Salus quickstart ===\n");

    // One call wires the whole deployment: data-owner client (WAN),
    // TEE-enabled cloud host with user + SM enclaves, manufacturer key
    // server (intra-cloud), attestation service, and a shell-managed
    // FPGA whose CL package was developed offline.
    let mut bed = TestBed::quick_demo();
    println!(
        "provisioned: device DNA = {:#x}",
        bed.shell.advertised_dna()
    );
    println!("CL digest H = {}", hex(&bed.package.digest));

    // Everything the host sends the FPGA crosses the shell; record it.
    let shell_view = bed
        .fabric
        .channel(endpoints::HOST, endpoints::FPGA)
        .interpose(Snooper::new());

    // The full Figure-3 flow: remote attestation, local attestation,
    // device-key distribution, RoT injection by bitstream manipulation,
    // encrypted deployment, CL attestation, cascaded report, data-key
    // release.
    let outcome = secure_boot(&mut bed, BootPlan::single()).expect("honest boot succeeds");
    println!("\nsecure boot completed:");
    println!("  user enclave attested: {}", outcome.report.user_attested);
    println!("  SM enclave attested:   {}", outcome.report.sm_attested);
    println!("  CL attested:           {}", outcome.report.cl_attested);
    assert!(outcome.report.all_attested());

    // The shell saw the bitstream and the attestation request — and
    // the bitstream was ciphertext.
    shell_view.with(|s| {
        println!(
            "\nshell observed {} host message(s); plaintext module table visible: {}",
            s.observed.len(),
            s.saw_bytes(b"SLCL")
        )
    });

    // Use the secure register channel established by the boot.
    bed.secure_reg_write(0x20, 0xFEED).expect("write");
    let value = bed.secure_reg_read(0x20).expect("read");
    println!("secure register roundtrip: wrote 0xFEED, read {value:#X}");
    assert_eq!(value, 0xFEED);

    println!("\nOK: the data owner may now upload sensitive data.");
}

fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .take(8)
        .map(|b| format!("{b:02x}"))
        .collect::<String>()
        + "…"
}
