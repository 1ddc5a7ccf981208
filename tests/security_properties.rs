//! Integration: cross-crate security invariants of the whole system.

use salus::core::attacks::{run_attack, BootAttack};
use salus::core::boot::{secure_boot, BootPlan};
use salus::core::instance::{endpoints, TestBed};
use salus::net::adversary::Snooper;

#[test]
fn full_attack_matrix_is_detected() {
    for attack in BootAttack::all() {
        let outcome = run_attack(attack);
        assert!(
            outcome.detected,
            "attack {attack:?} not detected: {:?}",
            outcome.error
        );
    }
}

#[test]
fn no_secret_material_crosses_any_untrusted_channel_in_plaintext() {
    // Interpose snoopers on the six untrusted channels of a deployment
    // (client, manufacturer and FPGA links, both ways), boot, then check
    // that no recorded message contains the plaintext module-table
    // marker or the data key the boot released.
    let mut bed = TestBed::quick_demo();
    let taps = [
        (endpoints::CLIENT, endpoints::HOST),
        (endpoints::HOST, endpoints::CLIENT),
        (endpoints::HOST, endpoints::MANUFACTURER),
        (endpoints::MANUFACTURER, endpoints::HOST),
        (endpoints::HOST, endpoints::FPGA),
        (endpoints::FPGA, endpoints::HOST),
    ];
    let handles: Vec<_> = taps
        .iter()
        .map(|(src, dst)| bed.fabric.channel(src, dst).interpose(Snooper::new()))
        .collect();

    secure_boot(&mut bed, BootPlan::single()).unwrap();
    let data_key = *bed.user_app.data_key().expect("released").as_bytes();

    for (handle, (src, dst)) in handles.iter().zip(taps.iter()) {
        // The plaintext CL always contains the "SLCL" module-table magic;
        // the manipulated+encrypted stream must never show it.
        assert!(
            !handle.with(|s| s.saw_bytes(b"SLCL")),
            "plaintext CL bytes observed on {src}→{dst}"
        );
        assert!(
            !handle.with(|s| s.saw_bytes(&data_key)),
            "data key observed on {src}→{dst}"
        );
    }
}

#[test]
fn local_attestation_channel_hides_metadata() {
    // The user→SM metadata (H, Loc) is confidential per Table 3 step ③.
    let mut bed = TestBed::quick_demo();
    let digest = bed.package.digest;
    let handle = bed
        .fabric
        .channel(endpoints::USER_ENCLAVE, endpoints::SM_ENCLAVE)
        .interpose(Snooper::new());
    secure_boot(&mut bed, BootPlan::single()).unwrap();
    assert!(
        !handle.with(|s| s.saw_bytes(&digest)),
        "bitstream digest crossed the LA channel unencrypted"
    );
}

#[test]
fn shell_cannot_recover_injected_secrets() {
    let mut bed = TestBed::quick_demo();
    let tap = bed
        .fabric
        .channel(endpoints::HOST, endpoints::FPGA)
        .interpose(Snooper::new());
    secure_boot(&mut bed, BootPlan::single()).unwrap();

    // 1. Readback is disabled.
    assert!(bed.shell.snoop_configuration(0).is_err());

    // 2. The bitstream the shell received (host→FPGA message 0) is
    //    ciphertext: it shares no 16-byte window with the actually
    //    loaded configuration.
    let observed = tap.with(|s| s.observed[0].2.clone());
    let loaded = {
        let device = bed.shell.device();
        let guard = device.lock();
        guard.partition(0).unwrap().flatten()
    };
    let mut shared_window = false;
    for window in loaded.windows(16).step_by(1024) {
        if window.iter().any(|&b| b != 0) && observed.windows(16).any(|w| w == window) {
            shared_window = true;
            break;
        }
    }
    assert!(
        !shared_window,
        "ciphertext leaks loaded configuration bytes"
    );
}

#[test]
fn register_transactions_are_opaque_and_tamper_evident() {
    let mut bed = TestBed::quick_demo();
    secure_boot(&mut bed, BootPlan::single()).unwrap();

    // Snoop PCIe both ways during a register write of a known value.
    let h2f = bed
        .fabric
        .channel(endpoints::HOST, endpoints::FPGA)
        .interpose(Snooper::new());
    let secret_value: u64 = 0xFEED_FACE_DEAD_BEEF;
    bed.secure_reg_write(2, secret_value).unwrap();
    assert!(
        !h2f.with(|s| s.saw_bytes(&secret_value.to_le_bytes())),
        "register payload crossed PCIe in plaintext"
    );

    // Now tamper with the next transaction and expect detection.
    bed.fabric
        .channel(endpoints::HOST, endpoints::FPGA)
        .interpose(salus::net::adversary::BitFlipper::new(0, 14));
    assert!(
        bed.secure_reg_read(2).is_err(),
        "tampering must be detected"
    );
}

#[test]
fn cascaded_report_cannot_be_minted_before_cl_attestation() {
    use salus::core::dev::{sm_enclave_image, user_enclave_image};
    use salus::tee::platform::SgxPlatform;
    use salus::tee::quote::{AttestationService, QuotingEnclave};

    // A user app that skipped every stage cannot produce a final quote.
    let mut service = AttestationService::new(b"p");
    let platform = SgxPlatform::new(b"m", 5);
    service.register_platform(5);
    let mut qe = QuotingEnclave::load(&platform).unwrap();
    qe.provision(service.provisioning_secret());
    let enclave = platform.load_enclave(&user_enclave_image()).unwrap();
    let mut app = salus::core::user_app::UserApp::new(enclave, qe, sm_enclave_image().measure());
    assert!(app.final_quote().is_err());
}

#[test]
fn standard_icap_would_leak_the_rot_to_the_shell() {
    // The ablation motivating §5.1.2: on a COTS (readback-enabled) ICAP,
    // the shell can scan the loaded CL and extract the injected RoT.
    use salus::bitstream::manipulate::rewrite_cell;
    use salus::core::dev::{develop_cl, loopback_accelerator};
    use salus::fpga::device::Device;
    use salus::fpga::geometry::DeviceGeometry;
    use salus::fpga::shell::Shell;

    let geometry = DeviceGeometry::tiny();
    let pkg = develop_cl(loopback_accelerator(), geometry.partitions[0], 0).unwrap();
    let secret = [0xA7u8; 16];
    let manipulated = rewrite_cell(&pkg.compiled.wire, &pkg.locations.key_attest, &secret).unwrap();

    let device = Device::manufacture(geometry, 1).with_standard_icap();
    let shell = Shell::new(device);
    shell.deploy_bitstream(&manipulated).unwrap();

    // The shell scans configuration memory and finds the key.
    let scanned = shell.snoop_configuration(0).unwrap();
    assert!(
        scanned.windows(16).any(|w| w == secret),
        "COTS readback must expose the RoT (this is the attack Salus closes)"
    );
}
