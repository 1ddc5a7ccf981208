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
//! requests).

use salus::accel::apps::affine::Affine;
use salus::accel::apps::conv::Conv;
use salus::accel::workload::{WithInput, Workload};
use salus::node::SalusNode;
use salus::serving::{
    ClientId, ExecutionMode, ResponseHandle, ServeCostModel, ServeError, ServingConfig,
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
