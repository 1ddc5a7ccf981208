//! Integration: per-partition DRAM windows isolate co-resident tenants.
//!
//! Co-resident partitions on one board used to share the device's whole
//! DRAM, forcing serialised runs. Each slot now owns a private window:
//! these tests pin down the four isolation claims — concurrent runs
//! match serial outputs, out-of-window DMA fails closed with a typed
//! error, the §3.1 Merkle channel keeps its detection scope exactly at
//! the window edge, and warm-image redeploys land back in the pinned
//! window.

use std::sync::Barrier;

use salus::accel::apps::affine::Affine;
use salus::accel::apps::conv::Conv;
use salus::accel::harness::{regs, window_io_offsets, STATUS_WINDOW_FAULT};
use salus::accel::integrity::{buffer_root, STATUS_INTEGRITY_FAILURE};
use salus::accel::runner::stream_ivs;
use salus::accel::workload::Workload;
use salus::core::platform::DeployPath;
use salus::crypto::ctr::AesCtr256;
use salus::fpga::FpgaError;
use salus::node::{node_geometry, SalusNode};
use salus::session::{MemoryProtection, SecureSession};

#[test]
fn co_resident_concurrent_runs_match_serial_outputs() {
    let node = SalusNode::quick(1, 3).unwrap();
    let mut sessions: Vec<(SecureSession, bool)> = (0..3)
        .map(|i| {
            let tenant = node.register_tenant(&format!("tenant{i}"));
            let use_conv = i % 2 == 0;
            let session = if use_conv {
                node.deploy(tenant, &Conv::paper_scale()).unwrap()
            } else {
                node.deploy(tenant, &Affine::paper_scale()).unwrap()
            };
            (session, use_conv)
        })
        .collect();

    // All three share the one board, each with a private window.
    let windows: Vec<_> = sessions.iter().map(|(s, _)| s.dram_window()).collect();
    for (i, a) in windows.iter().enumerate() {
        assert_eq!(
            sessions[i].0.tenancy().unwrap().window,
            *a,
            "tenancy and bed agree on the window"
        );
        for b in &windows[i + 1..] {
            assert!(!a.overlaps(b), "co-resident windows overlap: {a} vs {b}");
        }
    }

    // Run every tenant's job with all three overlapping in time, twice
    // each, and compare against the serial reference computation.
    let barrier = Barrier::new(sessions.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .map(|(session, use_conv)| {
                let barrier = &barrier;
                let use_conv = *use_conv;
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..2 {
                        if use_conv {
                            let workload = Conv::paper_scale();
                            let output = session.run(&workload).unwrap();
                            assert_eq!(output, workload.compute(workload.input()));
                        } else {
                            let workload = Affine::paper_scale();
                            let output = session.run(&workload).unwrap();
                            assert_eq!(output, workload.compute(workload.input()));
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("concurrent run panicked");
        }
    });
}

#[test]
fn out_of_window_dma_fails_closed_with_a_typed_error() {
    let node = SalusNode::quick(1, 2).unwrap();
    let tenant = node.register_tenant("alice");
    let workload = Conv::paper_scale();
    let mut session = node.deploy(tenant, &workload).unwrap();
    let window = session.dram_window();

    // Snapshot the neighbour partition's window so we can prove not a
    // single byte of it moves.
    let geometry = node_geometry(2);
    let other = geometry
        .dram_windows()
        .into_iter()
        .find(|w| *w != window)
        .expect("two windows on a two-partition board");
    let before = session
        .bed_mut()
        .shell
        .snoop_dram(other.base, other.len)
        .unwrap();

    // Host side: a transfer starting past the window edge is refused...
    let err = session
        .bed_mut()
        .shell
        .dma_write_in(window, window.len, &[0xAA; 16])
        .unwrap_err();
    assert!(matches!(err, FpgaError::DmaOutOfWindow { .. }), "{err:?}");

    // ...and so is one that starts inside but spills across it.
    let err = session
        .bed_mut()
        .shell
        .dma_read_in(window, window.len - 8, 16)
        .unwrap_err();
    assert!(matches!(err, FpgaError::DmaOutOfWindow { .. }), "{err:?}");

    // Device side: a session programming its controller past its window
    // is stopped at START with a deterministic fault status.
    let bed = session.bed_mut();
    bed.secure_reg_write(regs::INPUT_OFFSET, window.len as u64)
        .unwrap();
    bed.secure_reg_write(regs::INPUT_LEN, 64).unwrap();
    bed.secure_reg_write(regs::OUTPUT_OFFSET, 0).unwrap();
    bed.secure_reg_write(regs::START, 1).unwrap();
    assert_eq!(
        bed.secure_reg_read(regs::STATUS).unwrap(),
        STATUS_WINDOW_FAULT
    );
    assert_eq!(bed.secure_reg_read(regs::OUTPUT_LEN).unwrap(), 0);

    // The neighbour's window is bit-identical throughout.
    let after = bed.shell.snoop_dram(other.base, other.len).unwrap();
    assert_eq!(before, after, "refused accesses must not leak next door");

    // And the session itself is still healthy: an honest run completes.
    let output = session.run(&workload).unwrap();
    assert_eq!(output, workload.compute(workload.input()));
}

/// Drives the integrity protocol by hand so the shell can tamper with
/// DRAM between the host's DMA write and START, returning the status
/// the accelerator reports.
fn integrity_run_with_tamper(
    session: &mut SecureSession,
    workload: &dyn Workload,
    tamper_abs: usize,
) -> u64 {
    let bed = session.bed_mut();
    let key = *bed.user_app.data_key().unwrap().as_bytes();
    let (iv_in, _) = stream_ivs(&key);
    let mut ciphertext = workload.input().to_vec();
    AesCtr256::new(&key, &iv_in).apply_keystream(&mut ciphertext);
    let in_root = buffer_root(&key, &ciphertext);

    let window = bed.dram_window;
    let (input_offset, output_offset) = window_io_offsets(window);
    bed.shell
        .dma_write_in(window, input_offset, &ciphertext)
        .unwrap();
    // The shell strikes at an *absolute* address: it is not bound by
    // any window.
    bed.shell.tamper_dram(tamper_abs, &[0xFF]).unwrap();

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
    bed.secure_reg_write(regs::INPUT_OFFSET, input_offset as u64)
        .unwrap();
    bed.secure_reg_write(regs::INPUT_LEN, workload.input().len() as u64)
        .unwrap();
    bed.secure_reg_write(regs::OUTPUT_OFFSET, output_offset as u64)
        .unwrap();
    bed.secure_reg_write(regs::START, 1).unwrap();
    bed.secure_reg_read(regs::STATUS).unwrap()
}

#[test]
fn merkle_check_scopes_to_the_own_window() {
    let node = SalusNode::quick(1, 2).unwrap();
    let alice = node.register_tenant("alice");
    let bob = node.register_tenant("bob");
    let workload = Conv::paper_scale();
    let mut a = node
        .deploy_protected(
            alice,
            &workload,
            MemoryProtection::ConfidentialityAndIntegrity,
        )
        .unwrap();
    let mut b = node
        .deploy_protected(
            bob,
            &workload,
            MemoryProtection::ConfidentialityAndIntegrity,
        )
        .unwrap();
    let wa = a.dram_window();
    let wb = b.dram_window();
    assert!(!wa.overlaps(&wb));

    // Shell tampering inside bob's (foreign) window is invisible to
    // alice's Merkle check: her window — the only DRAM her protocol
    // authenticates — is untouched, so her run completes.
    let status = integrity_run_with_tamper(&mut a, &workload, wb.base + 5);
    assert_eq!(status, 1, "foreign-window tampering must not trip alice");

    // The same strike inside alice's own input buffer is detected
    // before the accelerator trusts a byte.
    let (input_offset, _) = window_io_offsets(wa);
    let status = integrity_run_with_tamper(&mut a, &workload, wa.base + input_offset + 5);
    assert_eq!(
        status, STATUS_INTEGRITY_FAILURE,
        "own-window tampering must be detected"
    );

    // Bob — whose window the shell corrupted above — still runs
    // cleanly: his next transaction rewrites his input buffer.
    let output = b.run(&workload).unwrap();
    assert_eq!(output, workload.compute(workload.input()));
}

#[test]
fn warm_redeploy_lands_back_in_the_pinned_window() {
    let node = SalusNode::quick(1, 3).unwrap();
    let alice = node.register_tenant("alice");
    let bob = node.register_tenant("bob");
    let workload = Affine::paper_scale();

    let a = node.deploy(alice, &workload).unwrap();
    let mut b = node.deploy(bob, &workload).unwrap();
    let tenancy = a.tenancy().unwrap();

    node.evict(a).unwrap();
    let mut a = node.redeploy(alice, &workload).unwrap();
    let revived = a.tenancy().unwrap();
    assert_eq!(revived.path, DeployPath::WarmImage);
    assert_eq!(revived.slot, tenancy.slot, "warm image is slot-affine");
    assert_eq!(revived.window, tenancy.window, "warm image pins the window");
    assert_eq!(a.dram_window(), tenancy.window);

    // Both the revived session and the co-resident bystander still run.
    let output = a.run(&workload).unwrap();
    assert_eq!(output, workload.compute(workload.input()));
    let output = b.run(&workload).unwrap();
    assert_eq!(output, workload.compute(workload.input()));
}

#[test]
fn stolen_slot_fallback_rebinds_to_the_new_slots_window() {
    let node = SalusNode::quick(1, 3).unwrap();
    let alice = node.register_tenant("alice");
    let workload = Affine::paper_scale();
    let a = node.deploy(alice, &workload).unwrap();
    let original = a.tenancy().unwrap();
    node.evict(a).unwrap();

    // Mallory takes alice's freed slot before she returns.
    let mallory = node.register_tenant("mallory");
    let mut m = node.deploy(mallory, &workload).unwrap();
    assert_eq!(
        m.tenancy().unwrap().slot,
        original.slot,
        "the freed slot is handed out again"
    );

    // Alice's warm-image path is gone; the fallback deploy rebinds her
    // to the new slot's window, not the stale one.
    let mut a = node.redeploy(alice, &workload).unwrap();
    let fallback = a.tenancy().unwrap();
    assert_ne!(fallback.slot, original.slot);
    assert_ne!(fallback.path, DeployPath::WarmImage);
    assert_ne!(fallback.window, original.window);
    let expected = node_geometry(3)
        .dram_window(fallback.slot.partition)
        .unwrap();
    assert_eq!(
        fallback.window, expected,
        "window derives from the new slot"
    );
    assert_eq!(a.dram_window(), expected);

    let output = a.run(&workload).unwrap();
    assert_eq!(output, workload.compute(workload.input()));
    let output = m.run(&workload).unwrap();
    assert_eq!(output, workload.compute(workload.input()));
}
