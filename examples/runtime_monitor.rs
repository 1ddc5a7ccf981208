//! Runtime attestation monitor: the §2.1 future-work extension live.
//!
//! After a secure boot, a heartbeat re-runs the CL attestation with
//! fresh nonces. The demo shows healthy heartbeats, then a shell-side
//! runtime bitstream replacement — a *valid, previously deployed*
//! encrypted stream — being detected on the next beat.
//!
//! ```sh
//! cargo run --example runtime_monitor
//! ```

use salus::core::boot::{secure_boot, BootPlan};
use salus::core::instance::TestBed;
use salus::core::runtime_attest::{heartbeat, Heartbeat};

fn main() {
    println!("=== Runtime attestation monitor ===\n");

    let mut bed = TestBed::quick_demo();
    secure_boot(&mut bed, BootPlan::single()).expect("first boot");
    let stale_stream = bed.sm_app.prepared_bitstream().unwrap().clone();

    // Re-deploy with fresh keys so the captured stream becomes stale.
    secure_boot(&mut bed, BootPlan::single()).expect("second boot");

    for round in 1..=5 {
        let beat = heartbeat(&mut bed).expect("booted");
        println!("heartbeat {round}: {beat:?}");
        assert_eq!(beat, Heartbeat::Alive);
    }

    println!("\nshell silently reloads a stale (but valid) encrypted CL…");
    bed.shell
        .deploy_bitstream(&stale_stream)
        .expect("the stale stream itself decrypts fine");

    let beat = heartbeat(&mut bed).expect("booted");
    println!("next heartbeat: {beat:?}");
    assert_eq!(beat, Heartbeat::Compromised);
    println!("\nruntime bitstream replacement detected — platform must re-boot.");
}
