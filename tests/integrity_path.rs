//! Pins of the integrity-protected path.
//!
//! One controller serves both memory protections; under
//! [`MemoryProtection::ConfidentialityAndIntegrity`] it rebuilds the
//! input's Merkle root from the DRAM snapshot it is about to decrypt on
//! every START. These tests pin that the serving plane's integrity lanes
//! return byte-identical outputs to the blocking run across seeds and
//! fleet layouts, that tampering injected mid-pipeline yields a pinned
//! verdict sequence (including acceptance once the bytes are restored),
//! and that every START re-derives the root from what DRAM holds then.

use salus::accel::apps::affine::Affine;
use salus::accel::apps::conv::Conv;
use salus::accel::harness::{
    boot_with_workload, regs, run_on_salus, stage_dma_in, stage_dma_out, window_io_offsets,
    ExecRequest, MemoryProtection,
};
use salus::accel::integrity::{
    stage_execute_verified, stage_program_key_verified, IntegrityPlan, VerifiedOutcome,
};
use salus::accel::workload::{WithInput, Workload};
use salus::core::instance::TestBed;
use salus::node::SalusNode;
use salus::serving::{
    ClientId, ExecutionMode, IntegrityStats, ResponseHandle, ServeCostModel, ServingConfig,
    ServingPlane,
};

const VERIFIED: MemoryProtection = MemoryProtection::ConfidentialityAndIntegrity;

/// Deterministic payload stream (xorshift64), mirroring
/// `tests/serving.rs` so the two suites cover the same input space.
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

/// Every slot on the integrity-protected channel — this suite is about
/// the integrity lane, so unlike `tests/serving.rs` no slot is
/// confidentiality-only.
fn slot_workload(slot: usize) -> Box<dyn Workload> {
    if slot.is_multiple_of(2) {
        Box::new(Conv::paper_scale())
    } else {
        Box::new(Affine::paper_scale())
    }
}

/// Replays the seed-derived request stream through serving-plane
/// integrity lanes and returns the responses in submission order.
fn run_serving_integrity(
    layout: (usize, usize),
    seed: u64,
    requests_per_lane: usize,
) -> Vec<Vec<u8>> {
    let (devices, partitions) = layout;
    let node = SalusNode::quick(devices, partitions).expect("provision");
    let mut plane = ServingPlane::new(ServingConfig {
        queue_capacity: requests_per_lane,
        mode: ExecutionMode::Pipelined { max_batch: 3 },
        cost: ServeCostModel::paper(),
    });

    let slots = devices * partitions;
    let mut lanes = Vec::new();
    for slot in 0..slots {
        let workload = slot_workload(slot);
        let tenant = node.register_tenant(&format!("tenant{slot}"));
        let session = node
            .deploy_protected(tenant, workload.as_ref(), VERIFIED)
            .expect("deploy");
        let lane = plane.attach(session, workload.as_ref());
        lanes.push((lane, workload));
    }

    let mut gen = PayloadGen(seed);
    let mut submitted: Vec<ResponseHandle> = Vec::new();
    for r in 0..requests_per_lane {
        for (lane, workload) in &lanes {
            let payload = gen.payload(workload.as_ref());
            let handle = plane
                .submit(*lane, ClientId(r as u64), payload)
                .expect("queue sized to the stream");
            submitted.push(handle);
        }
    }
    plane.drain().expect("drain");

    // Every request's START built its input tree once, from DRAM.
    for (lane, _) in &lanes {
        let stats = plane.lane_integrity_stats(*lane).expect("stats");
        assert_eq!(
            stats,
            IntegrityStats {
                full_builds: requests_per_lane as u64,
                ..IntegrityStats::default()
            },
            "lane {lane:?}"
        );
    }

    submitted
        .into_iter()
        .map(|handle| plane.take(handle).expect("response"))
        .collect()
}

/// The same request stream through the blocking run on standalone
/// integrity-protected beds.
fn run_blocking(layout: (usize, usize), seed: u64, requests_per_lane: usize) -> Vec<Vec<u8>> {
    let slots = layout.0 * layout.1;
    let mut beds: Vec<(TestBed, Box<dyn Workload>)> = (0..slots)
        .map(|slot| {
            let workload = slot_workload(slot);
            let bed = boot_with_workload(workload.as_ref(), VERIFIED).expect("boot");
            (bed, workload)
        })
        .collect();

    let mut gen = PayloadGen(seed);
    let mut outputs = Vec::new();
    for _ in 0..requests_per_lane {
        for (bed, workload) in &mut beds {
            let payload = gen.payload(workload.as_ref());
            let request = WithInput::new(workload.as_ref(), payload.clone());
            let output = run_on_salus(bed, &request, VERIFIED).expect("blocking run");
            assert_eq!(output, workload.compute(&payload), "blocking run vs CPU");
            outputs.push(output);
        }
    }
    outputs
}

#[test]
fn serving_integrity_lanes_match_the_blocking_run() {
    for seed in [1u64, 7, 42] {
        for layout in [(1usize, 1usize), (1, 2), (2, 2)] {
            let served = run_serving_integrity(layout, seed, 3);
            let blocking = run_blocking(layout, seed, 3);
            assert_eq!(
                served, blocking,
                "serving integrity lanes diverged from the blocking run \
                 (seed {seed}, layout {layout:?})"
            );
        }
    }
}

/// Drives one bed through the staged protocol: honest request →
/// mid-pipeline tamper → restored bytes → honest request, checking every
/// accepted output against the CPU and returning the verdicts.
fn staged_verdicts(mut bed: TestBed, workload: &dyn Workload, seed: u64) -> Vec<&'static str> {
    let plan = IntegrityPlan::prepare(&bed).expect("plan");
    let window = plan.window();
    let (input_offset, output_offset) = window_io_offsets(window);
    let mut gen = PayloadGen(seed);
    let mut verdicts = Vec::new();

    stage_program_key_verified(&mut bed, &plan).expect("key exchange");

    let run = |bed: &mut TestBed,
               ciphertext: &[u8],
               in_root: &[u8; 32],
               payload_len: usize|
     -> VerifiedOutcome {
        stage_dma_in(bed, input_offset, ciphertext).expect("dma in");
        let req = ExecRequest {
            input_offset,
            input_len: payload_len,
            output_offset,
            encrypt_output: workload.encrypt_output(),
        };
        stage_execute_verified(bed, &req, in_root).expect("register channel")
    };

    // 1. Honest request.
    let payload = gen.payload(workload);
    let (ciphertext, in_root) = plan.encrypt_input(&payload);
    match run(&mut bed, &ciphertext, &in_root, payload.len()) {
        VerifiedOutcome::Done {
            output_len,
            out_root,
        } => {
            let mut output = stage_dma_out(&mut bed, output_offset, output_len).expect("dma out");
            plan.verify_output(&mut output, &out_root, workload.encrypt_output())
                .expect("honest output verifies");
            assert_eq!(output, workload.compute(&payload));
            verdicts.push("done");
        }
        other => panic!("honest request rejected: {other:?}"),
    }

    // 2. Tamper mid-pipeline: the host already DMA'd and sent the root;
    //    the shell flips a byte before START.
    let payload = gen.payload(workload);
    let (ciphertext, in_root) = plan.encrypt_input(&payload);
    stage_dma_in(&mut bed, input_offset, &ciphertext).expect("dma in");
    let abs = window
        .to_absolute(input_offset, ciphertext.len())
        .expect("in window");
    let original = bed.shell.dma_read(abs + 777, 1).expect("snoop")[0];
    bed.shell
        .dma_write(abs + 777, &[original ^ 0x40])
        .expect("tamper");
    let req = ExecRequest {
        input_offset,
        input_len: payload.len(),
        output_offset,
        encrypt_output: workload.encrypt_output(),
    };
    if stage_execute_verified(&mut bed, &req, &in_root).expect("register channel")
        == VerifiedOutcome::InputTampered
    {
        verdicts.push("tampered");
    }

    // 3. Shell restores the original byte: the retry must succeed with
    //    a correct output — no false positive from the refused START.
    bed.shell
        .dma_write(abs + 777, &[original])
        .expect("restore");
    match stage_execute_verified(&mut bed, &req, &in_root).expect("register channel") {
        VerifiedOutcome::Done {
            output_len,
            out_root,
        } => {
            let mut output = stage_dma_out(&mut bed, output_offset, output_len).expect("dma out");
            plan.verify_output(&mut output, &out_root, workload.encrypt_output())
                .expect("restored output verifies");
            assert_eq!(output, workload.compute(&payload));
            verdicts.push("recovered");
        }
        other => panic!("restored request rejected: {other:?}"),
    }

    // 4. One more honest request on the same bed: the tamper episode
    //    leaves no residue.
    let payload = gen.payload(workload);
    let (ciphertext, in_root) = plan.encrypt_input(&payload);
    match run(&mut bed, &ciphertext, &in_root, payload.len()) {
        VerifiedOutcome::Done {
            output_len,
            out_root,
        } => {
            let mut output = stage_dma_out(&mut bed, output_offset, output_len).expect("dma out");
            plan.verify_output(&mut output, &out_root, workload.encrypt_output())
                .expect("output verifies");
            assert_eq!(output, workload.compute(&payload));
            verdicts.push("done");
        }
        other => panic!("follow-up request rejected: {other:?}"),
    }

    verdicts
}

#[test]
fn tamper_mid_pipeline_verdict_sequence_is_pinned() {
    for seed in [1u64, 7, 42] {
        for workload in [
            Box::new(Conv::paper_scale()) as Box<dyn Workload>,
            Box::new(Affine::paper_scale()),
        ] {
            let bed = boot_with_workload(workload.as_ref(), VERIFIED).expect("boot");
            assert_eq!(
                staged_verdicts(bed, workload.as_ref(), seed),
                ["done", "tampered", "recovered", "done"],
                "seed {seed}, {}",
                workload.name()
            );
        }
    }
}

#[test]
fn every_start_rebuilds_the_input_root_from_dram() {
    // Re-START the same request after the shell rewrites one chunk of
    // the input: identical bytes are accepted, different bytes refused,
    // and each START builds the input tree exactly once.
    let workload = Conv::paper_scale();
    let mut bed = boot_with_workload(&workload, VERIFIED).expect("boot");
    let plan = IntegrityPlan::prepare(&bed).expect("plan");
    let window = plan.window();
    let (input_offset, output_offset) = window_io_offsets(window);
    let payload = workload.input().to_vec();
    let (ciphertext, in_root) = plan.encrypt_input(&payload);

    stage_program_key_verified(&mut bed, &plan).expect("key");
    stage_dma_in(&mut bed, input_offset, &ciphertext).expect("dma in");
    let req = ExecRequest {
        input_offset,
        input_len: payload.len(),
        output_offset,
        encrypt_output: workload.encrypt_output(),
    };
    let abs = window
        .to_absolute(input_offset, ciphertext.len())
        .expect("abs");
    let builds = |bed: &mut TestBed| bed.secure_reg_read(regs::STAT_FULL_BUILDS).expect("reg");
    let start = |bed: &mut TestBed| {
        let outcome = stage_execute_verified(bed, &req, &in_root).expect("exec");
        if let VerifiedOutcome::Done {
            output_len,
            out_root,
        } = outcome
        {
            let mut output = stage_dma_out(bed, output_offset, output_len).expect("dma out");
            plan.verify_output(&mut output, &out_root, workload.encrypt_output())
                .expect("output verifies");
            assert_eq!(output, workload.compute(&payload));
        }
        outcome
    };

    assert!(matches!(start(&mut bed), VerifiedOutcome::Done { .. }));
    assert_eq!(builds(&mut bed), 1);

    bed.shell
        .dma_write(abs + 256, &ciphertext[256..512])
        .expect("rewrite one chunk with the same bytes");
    assert!(matches!(start(&mut bed), VerifiedOutcome::Done { .. }));
    assert_eq!(builds(&mut bed), 2);

    let mut changed = ciphertext[256..512].to_vec();
    changed[17] ^= 0x01;
    bed.shell
        .dma_write(abs + 256, &changed)
        .expect("rewrite one chunk with other bytes");
    assert_eq!(start(&mut bed), VerifiedOutcome::InputTampered);
    assert_eq!(builds(&mut bed), 3);
}
