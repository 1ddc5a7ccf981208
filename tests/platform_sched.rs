//! Integration: tenant scheduling on a shared node — concurrent
//! multi-tenant deploys, key isolation between tenants, eviction with
//! warm-image redeploy, and saturation reporting.

use std::collections::HashSet;
use std::sync::Arc;

use salus::accel::apps::affine::Affine;
use salus::accel::apps::conv::Conv;
use salus::accel::workload::Workload;
use salus::core::attacks::{run_attack, substitute_stored_bitstream, BootAttack};
use salus::core::boot::{secure_boot, BootPhase, BootPlan};
use salus::core::dev::package_digest;
use salus::core::instance::{TestBedBuilder, TestBedConfig};
use salus::core::platform::DeployPath;
use salus::core::{PlaceError, SalusError};
use salus::node::{node_geometry, SalusNode};

#[test]
fn eight_tenants_deploy_concurrently_across_three_devices() {
    let node = SalusNode::quick(3, 3).unwrap();
    let tenants: Vec<_> = (0..8)
        .map(|i| node.register_tenant(&format!("tenant{i}")))
        .collect();

    // All eight deploy from their own threads against one shared node
    // handle; the scheduler hands each a distinct slot.
    let sessions = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|&tenant| {
                let node = node.clone();
                scope.spawn(move || {
                    let workload = Conv::paper_scale();
                    node.deploy(tenant, &workload)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("deploy thread panicked").unwrap())
            .collect::<Vec<_>>()
    });

    let slots: HashSet<_> = sessions.iter().map(|s| s.tenancy().unwrap().slot).collect();
    assert_eq!(slots.len(), 8, "every tenant holds a distinct slot");
    let devices: HashSet<_> = slots.iter().map(|s| s.device).collect();
    assert_eq!(devices.len(), 3, "least-loaded placement uses all boards");
    assert_eq!(node.free_slots(), 1);

    // Every session is fully attested and runs its workload with all
    // eight overlapping in time: each co-resident slot owns a private
    // DRAM window, so tenants sharing a board no longer clobber each
    // other's buffers. The barrier forces every thread to be mid-flight
    // together before any of them starts DMA.
    let barrier = std::sync::Barrier::new(sessions.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .map(|mut session| {
                let barrier = &barrier;
                scope.spawn(move || {
                    assert!(session.report().all_attested());
                    let workload = Conv::paper_scale();
                    barrier.wait();
                    let output = session.run(&workload).unwrap();
                    assert_eq!(output, workload.compute(workload.input()));
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("concurrent run panicked");
        }
    });
}

#[test]
fn per_device_keys_stay_isolated_and_cross_tenant_loads_are_rejected() {
    let node = SalusNode::quick(2, 1).unwrap();
    let alice = node.register_tenant("alice");
    let bob = node.register_tenant("bob");
    let workload = Affine::paper_scale();

    let mut a = node.deploy(alice, &workload).unwrap();
    let mut b = node.deploy(bob, &workload).unwrap();
    let (slot_a, slot_b) = (a.tenancy().unwrap().slot, b.tenancy().unwrap().slot);
    assert_ne!(slot_a.device, slot_b.device);

    // Each board redeemed its own fused key, so the fleet's device DNAs
    // differ and each tenant's encrypted stream is rejected by the
    // other's board.
    let dnas = node.plane().fleet_dnas();
    assert_eq!(dnas.len(), 2);
    assert_ne!(dnas[0], dnas[1]);
    let stream_a = Arc::clone(a.bed_mut().sm_app.prepared_bitstream().unwrap());
    let stream_b = Arc::clone(b.bed_mut().sm_app.prepared_bitstream().unwrap());
    assert!(b.bed_mut().shell.deploy_bitstream(&stream_a).is_err());
    assert!(a.bed_mut().shell.deploy_bitstream(&stream_b).is_err());
}

#[test]
fn second_tenant_on_a_keyed_board_boots_warm() {
    let node = SalusNode::quick(1, 2).unwrap();
    let alice = node.register_tenant("alice");
    let bob = node.register_tenant("bob");
    let workload = Conv::paper_scale();

    let a = node.deploy(alice, &workload).unwrap();
    assert_eq!(a.tenancy().unwrap().path, DeployPath::Cold);

    // Alice's cold boot redeemed the board's Key_device into the fleet
    // cache; Bob's boot reuses it and never talks to the manufacturer.
    let b = node.deploy(bob, &workload).unwrap();
    assert_eq!(b.tenancy().unwrap().path, DeployPath::WarmKey);
    for phase in [
        BootPhase::SmQuoteGen,
        BootPhase::SmQuoteVerify,
        BootPhase::DeviceKeyTransfer,
    ] {
        assert!(
            !b.last_breakdown().phases().iter().any(|(p, _)| *p == phase),
            "warm-key boot ran manufacturer phase {phase:?}"
        );
    }
}

#[test]
fn evict_then_warm_redeploy_round_trips() {
    let run_once = |seed_marker: &str| {
        let node = SalusNode::quick(1, 2).unwrap();
        let alice = node.register_tenant(&format!("alice-{seed_marker}"));
        let workload = Affine::paper_scale();

        let session = node.deploy(alice, &workload).unwrap();
        let slot = session.tenancy().unwrap().slot;
        node.evict(session).unwrap();
        assert!(node.plane().has_parked(alice));

        let mut session = node.redeploy(alice, &workload).unwrap();
        let tenancy = session.tenancy().unwrap();
        assert_eq!(tenancy.path, DeployPath::WarmImage);
        assert_eq!(tenancy.slot, slot, "warm image is slot-affine");

        // The warm-image path runs exactly reload + CL re-attestation:
        // no manufacturer round trip, no manipulation, no re-encryption.
        let phases: Vec<BootPhase> = session
            .last_breakdown()
            .phases()
            .iter()
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(phases, vec![BootPhase::ClLoad, BootPhase::ClAuthentication]);
        assert!(session.report().all_attested());

        let output = session.run(&workload).unwrap();
        assert_eq!(output, workload.compute(workload.input()));

        let record = node.tenant_record(alice).unwrap();
        (
            node.plane().fleet_dnas(),
            phases,
            record.cold_deploys,
            record.warm_image_deploys,
            record.evictions,
        )
    };

    // The whole round trip is deterministic under the fixed platform
    // seed: two fresh nodes replay it identically.
    let first = run_once("a");
    let second = run_once("a");
    assert_eq!(first, second);
    assert_eq!((first.2, first.3, first.4), (1, 1, 1));
}

#[test]
fn fleet_saturation_is_reported() {
    let node = SalusNode::quick(1, 2).unwrap();
    let workload = Conv::paper_scale();
    let mut sessions = Vec::new();
    for i in 0..2 {
        let tenant = node.register_tenant(&format!("t{i}"));
        sessions.push(node.deploy(tenant, &workload).unwrap());
    }
    let late = node.register_tenant("late");
    assert_eq!(
        node.deploy(late, &workload).unwrap_err(),
        SalusError::Place(PlaceError::Saturated)
    );

    // Capacity returns as soon as any tenant is evicted.
    node.evict(sessions.pop().unwrap()).unwrap();
    let session = node.deploy(late, &workload).unwrap();
    assert!(session.report().all_attested());
}

#[test]
fn a_node_outlives_its_epc_through_forty_full_deploys() {
    // Two tenants take turns: full deploy, then evict, which parks the
    // bed and drops the one it replaces. Every dropped bed hands its two
    // EPC slots back, so far more deploys than the EPC holds enclaves
    // run on one node, each served from the one stored CL package per
    // partition.
    let node = SalusNode::quick(1, 2).unwrap();
    let tenants = [node.register_tenant("a"), node.register_tenant("b")];
    let workload = Affine::paper_scale();
    let sgx = node.plane().shared().sgx.clone();
    for round in 0..40 {
        let tenant = tenants[round % 2];
        let session = node
            .deploy(tenant, &workload)
            .unwrap_or_else(|e| panic!("full deploy {round}: {e}"));
        let parked = tenants
            .iter()
            .filter(|&&t| node.plane().has_parked(t))
            .count();
        let live_beds = parked + 1;
        assert!(
            sgx.loaded_enclaves() <= 1 + 2 * live_beds,
            "round {round}: {} enclaves for {live_beds} beds",
            sgx.loaded_enclaves()
        );
        node.evict(session).unwrap();
    }
    assert!(node.plane().shared().cl_store.len() <= 2);
}

#[test]
fn a_substituted_stored_cl_fails_only_its_own_boot() {
    assert!(matches!(
        run_attack(BootAttack::SubstituteStoredBitstream).error,
        Some(SalusError::DigestMismatch)
    ));

    let node = SalusNode::quick(1, 1).unwrap();
    let workload = Affine::paper_scale();
    let alice = node.register_tenant("alice");
    let mut session = node.deploy(alice, &workload).unwrap();
    let stored = Arc::clone(&session.bed_mut().package);
    node.evict(session).unwrap();

    // A bed on the same node fetching the same CL, whose host serves it
    // a rewritten copy: its SM enclave refuses the copy, and the
    // node's stored package is untouched.
    let shared = node.plane().shared().clone();
    let config = TestBedConfig {
        geometry: node_geometry(1),
        accelerator: workload.accelerator_module(),
        ..TestBedConfig::quick()
    };
    let mut bed = TestBedBuilder::new(config)
        .on_platform(shared.clone())
        .build()
        .unwrap();
    assert!(Arc::ptr_eq(&bed.package, &stored), "served from the store");
    substitute_stored_bitstream(&mut bed);
    let error = secure_boot(&mut bed, BootPlan::single())
        .map_err(SalusError::from)
        .unwrap_err();
    assert_eq!(error, SalusError::DigestMismatch);
    assert!(!Arc::ptr_eq(&bed.cl_store, &stored), "the copy was private");
    let metadata = stored.metadata();
    assert_eq!(
        package_digest(
            &stored.compiled.wire,
            &metadata.locations,
            metadata.partition,
            metadata.family
        ),
        stored.digest
    );

    // A later honest deploy of the same CL on the node still boots.
    let bob = node.register_tenant("bob");
    let mut session = node.deploy(bob, &workload).unwrap();
    assert!(session.report().all_attested());
    assert!(Arc::ptr_eq(&session.bed_mut().package, &stored));
    assert_eq!(shared.cl_store.len(), 1);
}
