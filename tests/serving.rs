//! Integration: the serving plane's batched, pipelined executor against
//! the blocking serial contract.
//!
//! The load-bearing property is *byte identity*: coalescing requests
//! into shared DMA fills and overlapping DMA-in / compute / DMA-out
//! across batches and co-resident partitions must never change a single
//! response byte relative to running each request alone. The
//! differential tests pin that across seeds and fleet layouts; the
//! backpressure tests pin the bounded-queue contract (typed
//! `Overloaded` rejection, no drops, no reordering of accepted
//! requests). The two-board tests queue enough bytes that each board's
//! lanes drain on their own thread, and pin what that must not change:
//! responses, the drain's error contract, the order of window-fault
//! audit records, and reproducibility under a fabric fault plane.

use std::time::Duration;

use salus::accel::apps::affine::{Affine, AffineMatrix};
use salus::accel::apps::conv::Conv;
use salus::accel::profile::AppProfile;
use salus::accel::workload::{WithInput, Workload};
use salus::bitstream::netlist::Module;
use salus::core::platform::AuditEvent;
use salus::core::SalusError;
use salus::net::adversary::BitFlipper;
use salus::net::fault::{FaultPlane, FaultSpec};
use salus::node::{node_geometry, SalusNode};
use salus::serving::{
    ClientId, ExecutionMode, LaneId, ResponseHandle, ServeCostModel, ServeError, ServingConfig,
    ServingPlane,
};
use salus::session::MemoryProtection;

/// Deterministic payload stream: xorshift64-perturbed copies of the
/// workload's paper input, so every request is distinct but valid.
struct PayloadGen(u64);

impl PayloadGen {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn payload(&mut self, workload: &dyn Workload) -> Vec<u8> {
        let mut payload = workload.input().to_vec();
        for _ in 0..4 {
            let at = self.next_u64() as usize % payload.len();
            payload[at] ^= (self.next_u64() % 255) as u8 + 1;
        }
        payload
    }
}

/// The per-slot workload mix: alternate plaintext-output (Conv) and
/// encrypted-output (Affine) apps, and put the last slot on the
/// integrity-protected channel so the batched path covers Merkle-root
/// verification too.
fn slot_config(slot: usize, slots: usize) -> (Box<dyn Workload>, MemoryProtection) {
    let workload: Box<dyn Workload> = if slot.is_multiple_of(2) {
        Box::new(Conv::paper_scale())
    } else {
        Box::new(Affine::paper_scale())
    };
    let protection = if slot == slots - 1 {
        MemoryProtection::ConfidentialityAndIntegrity
    } else {
        MemoryProtection::Confidentiality
    };
    (workload, protection)
}

/// Builds a fresh fleet for `layout`, replays the seed-derived request
/// stream through a plane in `mode`, and returns every response in
/// submission order (after checking each against the CPU reference).
fn run_stream(
    layout: (usize, usize),
    seed: u64,
    requests_per_lane: usize,
    mode: ExecutionMode,
) -> Vec<Vec<u8>> {
    let (devices, partitions) = layout;
    let node = SalusNode::quick(devices, partitions).expect("provision");
    let mut plane = ServingPlane::new(ServingConfig {
        queue_capacity: requests_per_lane,
        mode,
        cost: ServeCostModel::paper(),
    });

    let slots = devices * partitions;
    let mut lanes = Vec::new();
    for slot in 0..slots {
        let (workload, protection) = slot_config(slot, slots);
        let tenant = node.register_tenant(&format!("tenant{slot}"));
        let session = node
            .deploy_protected(tenant, workload.as_ref(), protection)
            .expect("deploy");
        let lane = plane.attach(session, workload.as_ref());
        lanes.push((lane, workload));
    }

    let mut gen = PayloadGen(seed);
    let mut submitted: Vec<(ResponseHandle, Vec<u8>)> = Vec::new();
    for r in 0..requests_per_lane {
        for (lane, workload) in &lanes {
            let payload = gen.payload(workload.as_ref());
            let handle = plane
                .submit(*lane, ClientId(r as u64), payload.clone())
                .expect("queue sized to the stream");
            submitted.push((handle, payload));
        }
    }

    plane.drain().expect("drain");

    let mut outputs = Vec::new();
    for (i, (handle, payload)) in submitted.iter().enumerate() {
        let workload = &lanes[i % lanes.len()].1;
        let output = plane.take(*handle).expect("response");
        assert_eq!(
            output,
            workload.compute(payload),
            "request {i} diverged from the CPU reference (seed {seed}, layout {layout:?})"
        );
        outputs.push(output);
    }
    outputs
}

#[test]
fn pipelined_execution_is_byte_identical_to_serial_across_seeds_and_layouts() {
    for seed in [1u64, 7, 42] {
        for layout in [(1, 1), (1, 2), (2, 2)] {
            let serial = run_stream(layout, seed, 4, ExecutionMode::Serial);
            let pipelined = run_stream(layout, seed, 4, ExecutionMode::Pipelined { max_batch: 3 });
            assert_eq!(
                serial, pipelined,
                "batched/pipelined responses diverged from serial \
                 (seed {seed}, layout {layout:?})"
            );
        }
    }
}

#[test]
fn queued_responses_match_the_blocking_run_path() {
    // The same payloads through the batched plane and through
    // `SecureSession::run` (the blocking serial contract) — the two
    // public execution paths must agree byte-for-byte.
    let layout = (1, 2);
    let seed = 42;
    let queued = run_stream(layout, seed, 3, ExecutionMode::Pipelined { max_batch: 4 });

    let node = SalusNode::quick(layout.0, layout.1).expect("provision");
    let slots = layout.0 * layout.1;
    let mut sessions = Vec::new();
    for slot in 0..slots {
        let (workload, protection) = slot_config(slot, slots);
        let tenant = node.register_tenant(&format!("tenant{slot}"));
        let session = node
            .deploy_protected(tenant, workload.as_ref(), protection)
            .expect("deploy");
        sessions.push((session, workload));
    }
    let mut gen = PayloadGen(seed);
    let mut blocking = Vec::new();
    for _ in 0..3 {
        for (session, workload) in &mut sessions {
            let payload = gen.payload(workload.as_ref());
            let request = WithInput::new(workload.as_ref(), payload);
            blocking.push(session.run(&request).expect("blocking run"));
        }
    }
    assert_eq!(queued, blocking);
}

#[test]
fn saturated_queue_rejects_with_overloaded_and_keeps_accepted_requests() {
    let node = SalusNode::quick(1, 1).expect("provision");
    let tenant = node.register_tenant("alice");
    let workload = Conv::paper_scale();
    let session = node.deploy(tenant, &workload).expect("deploy");

    let capacity = 4;
    let mut plane = ServingPlane::new(ServingConfig::pipelined(8).with_capacity(capacity));
    let lane = plane.attach(session, &workload);

    let mut gen = PayloadGen(9);
    let mut accepted = Vec::new();
    for i in 0..capacity {
        let payload = gen.payload(&workload);
        let handle = plane
            .submit(lane, ClientId(i as u64), payload.clone())
            .expect("under capacity");
        accepted.push((handle, payload));
    }

    // The capacity+1'th submit fails closed with the typed signal...
    let overflow = plane.submit(lane, ClientId(99), workload.input().to_vec());
    assert_eq!(
        overflow.unwrap_err(),
        ServeError::Overloaded { lane, capacity }
    );
    // ...and everything already accepted is still queued.
    assert_eq!(plane.in_flight(), capacity);

    // The rejection dropped nothing and reordered nothing: every
    // accepted request completes, correlated to its own payload, and
    // correlation ids are in submission order.
    let report = plane.drain().expect("drain");
    assert_eq!(report.requests, capacity);
    for window in accepted.windows(2) {
        assert!(window[0].0.id < window[1].0.id, "handles out of order");
    }
    for (handle, payload) in accepted {
        assert_eq!(
            plane.take(handle).expect("response"),
            workload.compute(&payload)
        );
    }

    // Backpressure clears once the queue drains.
    let handle = plane
        .submit(lane, ClientId(99), workload.input().to_vec())
        .expect("queue drained");
    plane.drain().expect("drain");
    assert_eq!(
        plane.take(handle).expect("response"),
        workload.compute(workload.input())
    );
}

#[test]
fn oversized_payloads_are_rejected_up_front() {
    let node = SalusNode::quick(1, 1).expect("provision");
    let tenant = node.register_tenant("alice");
    let workload = Conv::paper_scale();
    let session = node.deploy(tenant, &workload).expect("deploy");
    let window_len = session.dram_window().len;

    let mut plane = ServingPlane::new(ServingConfig::default());
    let lane = plane.attach(session, &workload);
    let max = window_len / 4;
    let err = plane
        .submit(lane, ClientId(0), vec![0u8; max + 1])
        .unwrap_err();
    assert_eq!(err, ServeError::RequestTooLarge { len: max + 1, max });
    assert_eq!(plane.in_flight(), 0);
}

#[test]
fn a_short_payload_on_one_lane_does_not_disturb_the_drain() {
    // A payload shorter than the accelerator's buffer is a client
    // error, not a node crash: the kernel reads it zero-extended, and
    // the co-resident lane's responses are untouched.
    let node = SalusNode::quick(1, 2).expect("provision");
    let conv = Conv::paper_scale();
    let affine = Affine::paper_scale();
    let mut plane = ServingPlane::new(ServingConfig::pipelined(4));
    let mut lanes = Vec::new();
    for (i, workload) in [&conv as &dyn Workload, &affine].into_iter().enumerate() {
        let tenant = node.register_tenant(&format!("tenant{i}"));
        let session = node.deploy(tenant, workload).expect("deploy");
        lanes.push(plane.attach(session, workload));
    }

    let mut gen = PayloadGen(5);
    let short = conv.input()[..10].to_vec();
    let short_handle = plane
        .submit(lanes[0], ClientId(0), short.clone())
        .expect("short payloads fit");
    let mut affine_requests = Vec::new();
    for i in 0..3 {
        let payload = gen.payload(&affine);
        let handle = plane
            .submit(lanes[1], ClientId(i), payload.clone())
            .expect("queue has room");
        affine_requests.push((handle, payload));
    }

    plane.drain().expect("drain");
    let mut zero_extended = short;
    zero_extended.resize(conv.input().len(), 0);
    assert_eq!(
        plane.take(short_handle).expect("response"),
        conv.compute(&zero_extended)
    );
    for (handle, payload) in affine_requests {
        assert_eq!(
            plane.take(handle).expect("response"),
            affine.compute(&payload)
        );
    }
}

/// A 64 KiB Affine request: four lanes of a few of these queue more
/// than the serving drain's 256 KiB split threshold, so a drain splits
/// by board.
fn bulk_affine() -> Affine {
    Affine::new(256, AffineMatrix::demo())
}

/// Deploys `workload` on every slot of a 2×2 node, one lane each.
fn two_board_lanes(
    node: &SalusNode,
    plane: &mut ServingPlane,
    workload: &dyn Workload,
    protection: impl Fn(usize) -> MemoryProtection,
) -> Vec<LaneId> {
    (0..4)
        .map(|slot| {
            let tenant = node.register_tenant(&format!("tenant{slot}"));
            let session = node
                .deploy_protected(tenant, workload, protection(slot))
                .expect("deploy");
            plane.attach(session, workload)
        })
        .collect()
}

#[test]
fn bulk_requests_on_two_boards_match_the_cpu_reference() {
    // Enough bytes that each board's lanes run on their own thread;
    // one lane verifies Merkle roots on both buffers.
    let workload = bulk_affine();
    for seed in [1u64, 7] {
        let node = SalusNode::quick(2, 2).expect("provision");
        let mut plane = ServingPlane::new(ServingConfig::pipelined(3));
        let lanes = two_board_lanes(&node, &mut plane, &workload, |slot| {
            if slot == 3 {
                MemoryProtection::ConfidentialityAndIntegrity
            } else {
                MemoryProtection::Confidentiality
            }
        });
        let mut gen = PayloadGen(seed);
        let mut submitted = Vec::new();
        for r in 0..4 {
            for &lane in &lanes {
                let payload = gen.payload(&workload);
                let handle = plane
                    .submit(lane, ClientId(r), payload.clone())
                    .expect("queue has room");
                submitted.push((handle, payload));
            }
        }
        let report = plane.drain().expect("drain");
        assert_eq!(report.requests, submitted.len());
        for (handle, payload) in submitted {
            assert_eq!(
                plane.take(handle).expect("response"),
                workload.compute(&payload),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn a_broken_register_link_fails_its_batch_and_drops_no_request() {
    // Small requests take the single-threaded pass, bulk ones the
    // per-board threads; the error contract is the same on both.
    let small = Conv::paper_scale();
    let bulk = bulk_affine();
    for workload in [&small as &dyn Workload, &bulk] {
        let node = SalusNode::quick(2, 2).expect("provision");
        let mut plane = ServingPlane::new(ServingConfig::pipelined(2));
        let mut lanes = Vec::new();
        let mut reg_links = Vec::new();
        for slot in 0..4 {
            let tenant = node.register_tenant(&format!("tenant{slot}"));
            let mut session = node.deploy(tenant, workload).expect("deploy");
            let bed = session.bed_mut();
            reg_links.push(bed.fabric.channel(&bed.names.host, &bed.names.fpga));
            lanes.push(plane.attach(session, workload));
        }
        let board: Vec<usize> = lanes
            .iter()
            .map(|&lane| plane.lane_tenancy(lane).expect("fleet lane").slot.device)
            .collect();
        // The victim is the first lane on the board lane 0 is not on;
        // its first register write after this crosses a flipped bit.
        let victim = *lanes
            .iter()
            .find(|lane| board[lane.0] != board[0])
            .expect("two boards");
        let victim_board = board[victim.0];
        reg_links[victim.0].interpose(BitFlipper::new(0, 0));

        let mut gen = PayloadGen(3);
        let mut submitted = Vec::new();
        for &lane in &lanes {
            for r in 0..3 {
                let payload = gen.payload(workload);
                let handle = plane
                    .submit(lane, ClientId(r), payload.clone())
                    .expect("queue has room");
                submitted.push((handle, payload, r));
            }
        }

        let err = plane
            .drain()
            .expect_err("the victim's key exchange is tampered");
        assert!(matches!(err, ServeError::Rejected(_)), "{err:?}");
        // Still queued: the victim's request after its broken batch of
        // two, and the later lane on the victim's board.
        assert_eq!(plane.in_flight(), 1 + 3, "{}", workload.name());
        for (handle, payload, r) in &submitted {
            let got = plane.take(*handle);
            if board[handle.lane.0] != victim_board {
                assert_eq!(got.expect("other boards ran"), workload.compute(payload));
            } else if handle.lane == victim && *r < 2 {
                assert!(
                    matches!(got, Err(ServeError::Rejected(_))),
                    "a popped request must be answered, got {got:?}"
                );
            } else {
                assert_eq!(got, Err(ServeError::NotReady(handle.id)), "still queued");
            }
        }

        // Fencing answers the victim's queued request; the next drain
        // serves the rest of its board.
        let (_, drained) = plane.fence(victim).expect("fence");
        assert_eq!(drained, 1);
        plane.drain().expect("the victim's board serves without it");
        assert_eq!(plane.in_flight(), 0);
        for (handle, payload, r) in &submitted {
            if board[handle.lane.0] == victim_board && handle.lane != victim {
                assert_eq!(
                    plane.take(*handle).expect("served"),
                    workload.compute(payload)
                );
            } else if handle.lane == victim && *r == 2 {
                assert_eq!(
                    plane.take(*handle),
                    Err(ServeError::SessionFenced { lane: victim })
                );
            }
        }
    }
}

/// Echoes its payload, except that a payload starting with `0xFF`
/// computes an output larger than the board's whole DRAM, which
/// overflows even an empty staging buffer: the request window-faults.
/// (Test-only: real workloads keep one output length for any input.)
#[derive(Clone)]
struct Overflowing(Conv);

impl Workload for Overflowing {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn input(&self) -> &[u8] {
        self.0.input()
    }

    fn compute(&self, input: &[u8]) -> Vec<u8> {
        if input.first() == Some(&0xFF) {
            vec![0; node_geometry(2).dram_bytes + 1]
        } else {
            input.to_vec()
        }
    }

    fn accelerator_module(&self) -> Module {
        self.0.accelerator_module()
    }

    fn profile(&self) -> AppProfile {
        self.0.profile()
    }

    fn encrypt_output(&self) -> bool {
        false
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }
}

#[test]
fn window_faults_on_two_boards_reach_the_audit_chain_in_lane_order() {
    let node = SalusNode::quick(2, 2).expect("provision");
    let workload = Overflowing(Conv::paper_scale());
    let mut plane = ServingPlane::new(ServingConfig::pipelined(4));
    plane.audit_to(&node);
    let lanes = two_board_lanes(&node, &mut plane, &workload, |_| {
        MemoryProtection::Confidentiality
    });
    let tenancy: Vec<_> = lanes
        .iter()
        .map(|&lane| plane.lane_tenancy(lane).expect("fleet lane"))
        .collect();
    // The first lane on each board faults on its first request of
    // every drain, so both boards raise a fault each time.
    let first_on_board: Vec<bool> = (0..lanes.len())
        .map(|i| {
            tenancy[..i]
                .iter()
                .all(|t| t.slot.device != tenancy[i].slot.device)
        })
        .collect();
    assert_eq!(first_on_board.iter().filter(|&&first| first).count(), 2);

    let mut gen = PayloadGen(11);
    for drain in 0..24u8 {
        let mut expected = Vec::new();
        let mut submitted = Vec::new();
        for (i, &lane) in lanes.iter().enumerate() {
            for r in 0..1 + gen.next_u64() % 3 {
                let faults = (r == 0 && first_on_board[i]) || gen.next_u64().is_multiple_of(3);
                // 96 KiB each: every drain queues enough to split by board.
                let mut payload = vec![drain.wrapping_add(i as u8); 96 << 10];
                payload[0] = if faults { 0xFF } else { 0 };
                if faults {
                    expected.push(AuditEvent::WindowFault {
                        tenant: tenancy[i].tenant,
                        slot: tenancy[i].slot,
                    });
                }
                let handle = plane
                    .submit(lane, ClientId(r), payload.clone())
                    .expect("queue has room");
                submitted.push((handle, payload, faults));
            }
        }

        let before = node.plane().audit_log().len();
        plane
            .drain()
            .expect("window faults are per-request outcomes");
        let log = node.plane().audit_log();
        log.verify().expect("chain verifies");
        let appended: Vec<AuditEvent> = log.records()[before..]
            .iter()
            .map(|record| record.entry.clone())
            .collect();
        assert_eq!(appended, expected, "drain {drain}");
        for (handle, payload, faults) in submitted {
            let got = plane.take(handle);
            if faults {
                assert!(
                    matches!(got, Err(ServeError::Rejected(SalusError::Fpga(_)))),
                    "drain {drain}: {got:?}"
                );
            } else {
                assert_eq!(got.expect("echo"), payload, "drain {drain}");
            }
        }
    }
}

#[test]
fn a_fault_plane_keeps_bulk_drains_reproducible() {
    // The plane draws every decision from one RNG against the shared
    // clock, and a drop breaks the lane whose register message draws
    // it. Were the drain to race lanes across threads, which lane
    // breaks, how many messages follow and how far the clock moves
    // would change from run to run.
    let run = |seed: u64| {
        let node = SalusNode::quick(2, 2).expect("provision");
        let workload = bulk_affine();
        let mut plane = ServingPlane::new(ServingConfig::pipelined(2));
        let lanes = two_board_lanes(&node, &mut plane, &workload, |_| {
            MemoryProtection::Confidentiality
        });
        let faults = FaultPlane::new(
            seed,
            FaultSpec::default()
                .with_drop_per_mille(10)
                .with_delay(150, Duration::from_micros(10), Duration::from_millis(2))
                .with_duplicate_per_mille(150),
        );
        let shared = node.plane().shared();
        shared.fabric.install_fault_plane(faults.clone());

        let mut gen = PayloadGen(9);
        let mut handles = Vec::new();
        for r in 0..2 {
            for &lane in &lanes {
                let payload = gen.payload(&workload);
                handles.push(plane.submit(lane, ClientId(r), payload).expect("room"));
            }
        }
        let failed = plane.drain().err();
        let responses: Vec<Result<Vec<u8>, ServeError>> = handles
            .into_iter()
            .map(|handle| plane.take(handle))
            .collect();
        (faults.stats(), shared.clock.now(), failed, responses)
    };
    let mut drops = 0;
    for seed in [5, 6, 7] {
        let first = run(seed);
        assert!(
            first.0.delays > 0 && first.0.duplicates > 0,
            "seed {seed}: the plane must fire: {:?}",
            first.0
        );
        drops += first.0.drops;
        assert_eq!(first, run(seed), "seed {seed}");
    }
    assert!(drops > 0, "some seed must break a lane");
}
