//! Integration: the platform device fleet — per-device key isolation,
//! shell provisioning across boards, and device binding of encrypted
//! bitstreams between co-scheduled tenants.

use salus::core::boot::BootPhase;
use salus::core::dev::{develop_cl, loopback_accelerator, sm_enclave_image};
use salus::core::manufacturer::Manufacturer;
use salus::core::platform::{
    ControlPlane, DeployPolicy, DeviceFleet, PlatformConfig, SharedManufacturer,
};
use salus::fpga::geometry::DeviceGeometry;
use salus::tee::quote::AttestationService;

fn fleet_manufacturer(secret: &[u8]) -> SharedManufacturer {
    let service = AttestationService::new(secret);
    SharedManufacturer::new(Manufacturer::new(
        secret,
        service,
        sm_enclave_image().measure(),
    ))
}

#[test]
fn encrypted_bitstreams_are_device_bound_across_a_fleet() {
    // Two tenants scheduled onto a two-board fleet: the least-loaded
    // policy spreads them, so each board carries one tenant's encrypted
    // CL stream (fused key + DNA bound).
    let plane = ControlPlane::provision(PlatformConfig::quick(2, 1)).unwrap();
    let alice = plane.register_tenant("alice");
    let bob = plane.register_tenant("bob");
    let a = plane
        .deploy(alice, loopback_accelerator(), DeployPolicy::single())
        .unwrap();
    let b = plane
        .deploy(bob, loopback_accelerator(), DeployPolicy::single())
        .unwrap();
    assert_ne!(a.slot.device, b.slot.device, "tenants must spread");

    let stream_a = a.bed.sm_app.prepared_bitstream().unwrap();
    let stream_b = b.bed.sm_app.prepared_bitstream().unwrap();

    // Cross-loading fails on both boards: streams are bound to the
    // fused key *and* the DNA of the device they were prepared for.
    assert!(b.bed.shell.deploy_bitstream(stream_a).is_err());
    assert!(a.bed.shell.deploy_bitstream(stream_b).is_err());

    // A stream encrypted under a guessed key fails on its own target
    // board too.
    let pkg = develop_cl(
        loopback_accelerator(),
        DeviceGeometry::tiny().partitions[0],
        0,
    )
    .unwrap();
    let guessed = salus::bitstream::encrypt::encrypt_for_device(
        &pkg.compiled.wire,
        &[0u8; 32],
        &[1; 12],
        a.bed.shell.advertised_dna(),
    );
    assert!(a.bed.shell.deploy_bitstream(&guessed).is_err());
}

#[test]
fn one_shell_image_provisions_every_board_of_the_same_geometry() {
    // DeviceFleet::provision compiles the shell once per geometry and
    // stamps it onto every board.
    let manufacturer = fleet_manufacturer(b"fleet2");
    let fleet = DeviceFleet::provision(&manufacturer, DeviceGeometry::tiny(), 3, 0).unwrap();
    assert_eq!(fleet.device_count(), 3);
    for board in 0..fleet.device_count() {
        assert!(fleet.shell(board).unwrap().is_loaded(), "board {board}");
    }
}

#[test]
fn devices_have_unique_dna_and_keys_across_a_large_fleet() {
    let manufacturer = fleet_manufacturer(b"fleet3");
    let fleet = DeviceFleet::provision(&manufacturer, DeviceGeometry::tiny(), 64, 0).unwrap();
    let mut dnas = std::collections::HashSet::new();
    for board in 0..fleet.device_count() {
        let device = fleet.shell(board).unwrap().device();
        assert!(device.lock().has_device_key());
        assert!(dnas.insert(fleet.dna(board).unwrap()), "duplicate DNA");
    }
    assert_eq!(manufacturer.device_count(), 64);
}

/// A warm-image redeploy's per-phase virtual time, in nanoseconds, on
/// the zero-cost and the paper-calibrated platform: only `ClLoad` and
/// `ClAuthentication` run, and their model cost is pinned.
#[test]
fn warm_image_redeploy_breakdown_is_pinned() {
    for (config, want) in [
        (PlatformConfig::quick(1, 1), [0, 0]),
        (PlatformConfig::paper(1, 1), [12_632_849, 1_202_002]),
    ] {
        let plane = ControlPlane::provision(config).unwrap();
        let tenant = plane.register_tenant("alice");
        let d = plane
            .deploy(tenant, loopback_accelerator(), DeployPolicy::single())
            .unwrap();
        plane.evict(d).unwrap();
        let d = plane.redeploy(tenant).unwrap();
        let got: Vec<(BootPhase, u128)> = d
            .outcome
            .breakdown
            .phases()
            .iter()
            .map(|(phase, took)| (*phase, took.as_nanos()))
            .collect();
        assert_eq!(
            got,
            [
                (BootPhase::ClLoad, want[0]),
                (BootPhase::ClAuthentication, want[1]),
            ]
        );
    }
}
