//! The async serving plane: batched, pipelined request execution over
//! co-resident sessions.
//!
//! [`SecureSession::run`] is the *blocking* data path: one workload at
//! a time through DMA-in → compute → DMA-out, the shell idle between
//! phases, and every logical client serialised behind one attested
//! session. This module is the *request plane* layered on top of it
//! (the ShEF-style shell/enclave split taken to its conclusion: the
//! control plane attests once, the data plane streams):
//!
//! * **Run queues + backpressure** — every attached session becomes a
//!   *lane* with a bounded FIFO. [`ServingPlane::submit`] enqueues a
//!   request or fails closed with a typed
//!   [`ServeError::Overloaded`]; accepted requests are never dropped
//!   and never reordered within their lane.
//! * **Session multiplexing** — thousands of logical clients
//!   ([`ClientId`]) share one attested session; each request carries a
//!   correlation id ([`RequestId`]) and collects its response through
//!   a [`ResponseHandle`].
//! * **Batching** — adjacent compatible requests (same lane, hence
//!   same data key and accelerator) coalesce into **one DMA window
//!   fill**: their ciphertexts pack back-to-back into the lane's
//!   staging buffer, the key registers are programmed once per batch,
//!   and the packed outputs return in one DMA-out transaction.
//! * **Pipelining** — the executor schedules the three phases as
//!   distinct stages on the shared virtual clock: while batch *k*
//!   computes, batch *k+1* DMAs in and batch *k−1* DMAs out
//!   (double-buffered halves of the session's private
//!   [`DramWindow`](salus_fpga::geometry::DramWindow) make this safe),
//!   and co-resident partitions overlap fully except on the board's
//!   shared DMA bus — which is exactly the isolation the per-partition
//!   windows bought.
//! * **Board-parallel execution** — the functional pass (the host
//!   really moving each request's bytes) runs each board on its own
//!   core: a board's lanes run in lane order on one scoped thread, the
//!   caller's thread taking the first board, with no more threads than
//!   boards or cores. Small drains (under [`MIN_BYTES_PER_THREAD`] of
//!   queued payload) stay on the caller's thread.
//!
//! Board-parallel execution is deterministic. A lane's bytes depend
//! only on its own board: the board's device, whose one mutex every
//! DMA and accelerator run on the board takes (so lanes sharing a
//! board stay serial), and the lane's own register links. The one
//! shared mutable thing a lane touches is the [`SimClock`], which
//! register transfers only ever *advance* by atomic additions — its
//! value after the pass is the same on any interleaving, and nothing in
//! the pass reads it. Workers hand back their batches,
//! responses and window faults; the caller merges them in lane order, so
//! the schedule, the report and the audit chain (faults are appended
//! after the join, stamped at the post-pass clock) are built exactly as
//! on one thread. The exception is a fabric fault plane: its decisions
//! draw from one shared RNG and read the clock, so with one installed
//! the drain runs every lane on the caller's thread, in lane order.
//! Responses are written into each request's own payload buffer, so
//! drain threads leave no long-lived allocation in their own heap.
//!
//! Both the blocking loop and this executor drive the *same* resumable
//! stages through [`salus_accel::harness::Plan`], and every request's
//! keystream and Merkle roots restart per request, so a batched,
//! pipelined execution is **byte-identical** to running each request
//! alone — the differential tests in `tests/serving.rs` pin this across
//! seeds and co-resident layouts.
//!
//! ```
//! use salus::accel::apps::conv::Conv;
//! use salus::accel::workload::Workload;
//! use salus::node::SalusNode;
//! use salus::serving::{ClientId, ServingConfig, ServingPlane};
//!
//! let node = SalusNode::quick(1, 1).expect("node");
//! let tenant = node.register_tenant("alice");
//! let workload = Conv::paper_scale();
//! let session = node.deploy(tenant, &workload).expect("deploy");
//!
//! let mut plane = ServingPlane::new(ServingConfig::default());
//! let lane = plane.attach(session, &workload);
//! let handle = plane
//!     .submit(lane, ClientId(7), workload.input().to_vec())
//!     .expect("queued");
//! let report = plane.drain().expect("drain");
//! assert_eq!(report.requests, 1);
//! let output = plane.take(handle).expect("response");
//! assert_eq!(output, workload.compute(workload.input()));
//! ```

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use salus_accel::harness::{regs, stage_dma_in, stage_dma_out, ExecRequest, Plan};
use salus_accel::integrity::VerifiedOutcome;
use salus_accel::workload::Workload;
use salus_core::instance::TestBed;
use salus_core::platform::{AuditEvent, ControlPlane};
use salus_core::runtime_attest::{challenge, AttestPolicy, ChallengeOutcome};
use salus_core::SalusError;
use salus_crypto::parallel::MIN_BYTES_PER_THREAD;
use salus_net::clock::SimClock;

use crate::node::SalusNode;
use crate::session::{SecureSession, Tenancy};

/// A logical client multiplexed onto an attested session. The serving
/// plane does not authenticate clients — they all ride the session's
/// tenant attestation — but every response is correlated back to the
/// submitting client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

/// Correlation id of one submitted request, unique per plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// One attached session's lane on the serving plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LaneId(pub usize);

/// The claim ticket for one queued request's response.
///
/// Dropping a handle silently abandons the response; the lint makes a
/// forgotten response a compile-time warning at every submit site.
#[must_use = "a dropped ResponseHandle abandons the response — collect it with ServingPlane::take"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHandle {
    /// The request's correlation id.
    pub id: RequestId,
    /// The lane the request was queued on.
    pub lane: LaneId,
    /// The submitting logical client.
    pub client: ClientId,
}

/// Typed serving-plane failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The lane's bounded queue is full. The request was **not**
    /// enqueued; nothing already accepted was dropped or reordered.
    /// Resubmit after a [`ServingPlane::drain`].
    Overloaded {
        /// The saturated lane.
        lane: LaneId,
        /// Its configured capacity.
        capacity: usize,
    },
    /// The payload exceeds the lane's per-batch staging buffer (a
    /// quarter of the session's DRAM window).
    RequestTooLarge {
        /// Submitted payload length.
        len: usize,
        /// Largest admissible payload for the lane.
        max: usize,
    },
    /// No such lane is attached.
    UnknownLane(LaneId),
    /// The response is not available: the request is still queued
    /// (drain first) or the handle was already redeemed.
    NotReady(RequestId),
    /// The lane still holds queued requests and cannot be detached.
    LaneBusy(LaneId),
    /// The lane's session was fenced by the re-attestation plane: the
    /// request was drained unexecuted instead of returning unverified
    /// output.
    SessionFenced {
        /// The fenced lane.
        lane: LaneId,
    },
    /// The request was executed and rejected by the protocol layers
    /// (integrity failure, window fault, channel violation).
    Rejected(SalusError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { lane, capacity } => {
                write!(f, "lane {} overloaded (capacity {capacity})", lane.0)
            }
            ServeError::RequestTooLarge { len, max } => {
                write!(f, "request of {len} bytes exceeds lane buffer of {max}")
            }
            ServeError::UnknownLane(lane) => write!(f, "unknown lane {}", lane.0),
            ServeError::NotReady(id) => write!(f, "response {} not ready", id.0),
            ServeError::LaneBusy(lane) => {
                write!(f, "lane {} still has queued requests", lane.0)
            }
            ServeError::SessionFenced { lane } => {
                write!(f, "lane {} fenced: session failed re-attestation", lane.0)
            }
            ServeError::Rejected(e) => write!(f, "request rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SalusError> for ServeError {
    fn from(e: SalusError) -> ServeError {
        ServeError::Rejected(e)
    }
}

/// Virtual-time costs of the three serving stages, attributable per
/// phase (what makes model-time latency decomposable in
/// `BENCH_serving.json`).
///
/// The boot-time [`CostModel`](salus_core::timing::CostModel) covers
/// control-plane operations; this model covers the steady-state data
/// plane the boot amortises into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeCostModel {
    /// Per-DMA-transaction setup (descriptor build + doorbell). This
    /// is what batching amortises: a coalesced fill pays it once.
    pub dma_setup: Duration,
    /// DMA streaming throughput over the board's PCIe bus.
    pub dma_bytes_per_sec: u64,
    /// One secure register transaction (two SM-logic MACs plus the bus
    /// round trip). Key exchange costs four of these per batch instead
    /// of four per request.
    pub reg_op: Duration,
    /// Per-request accelerator pipeline fill.
    pub compute_fill: Duration,
    /// Accelerator streaming throughput over the request payload.
    pub compute_bytes_per_sec: u64,
}

impl ServeCostModel {
    /// Paper-plausible constants: PCIe gen3 ×16 DMA (~12.8 GB/s,
    /// ~5 µs setup), the §6 secure-register-channel MAC pair
    /// (~0.8 ms), and a streaming accelerator in the tens of MB/s.
    pub fn paper() -> ServeCostModel {
        ServeCostModel {
            dma_setup: Duration::from_micros(5),
            dma_bytes_per_sec: 12_800_000_000,
            reg_op: Duration::from_micros(800),
            compute_fill: Duration::from_micros(50),
            compute_bytes_per_sec: 50_000_000,
        }
    }

    /// A zero-cost model for purely functional tests.
    pub fn zero() -> ServeCostModel {
        ServeCostModel {
            dma_setup: Duration::ZERO,
            dma_bytes_per_sec: u64::MAX,
            reg_op: Duration::ZERO,
            compute_fill: Duration::ZERO,
            compute_bytes_per_sec: u64::MAX,
        }
    }

    fn by_rate(bytes: usize, rate: u64) -> Duration {
        if rate == u64::MAX {
            Duration::ZERO
        } else {
            Duration::from_nanos((bytes as u128 * 1_000_000_000 / rate as u128) as u64)
        }
    }

    /// Cost of one DMA transaction moving `bytes`.
    pub fn dma(&self, bytes: usize) -> Duration {
        self.dma_setup + Self::by_rate(bytes, self.dma_bytes_per_sec)
    }

    /// Cost of `n` secure register transactions.
    pub fn regs(&self, n: u32) -> Duration {
        self.reg_op * n
    }

    /// Cost of one accelerator run over `bytes` of input.
    pub fn compute(&self, bytes: usize) -> Duration {
        self.compute_fill + Self::by_rate(bytes, self.compute_bytes_per_sec)
    }
}

impl Default for ServeCostModel {
    fn default() -> ServeCostModel {
        ServeCostModel::paper()
    }
}

/// How the executor lays requests onto the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// The serial contract: one request at a time, globally — each
    /// pays its own DMA setups and key exchange, and no two phases
    /// ever overlap. This is the measured baseline, not a fast path.
    Serial,
    /// Coalesce up to `max_batch` adjacent requests per DMA fill and
    /// pipeline DMA-in / compute / DMA-out across batches and
    /// co-resident lanes.
    Pipelined {
        /// Largest number of requests one batch may coalesce.
        max_batch: usize,
    },
}

/// Serving-plane configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingConfig {
    /// Bounded per-lane queue depth; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Batching/pipelining mode.
    pub mode: ExecutionMode,
    /// Stage cost model on the virtual clock.
    pub cost: ServeCostModel,
}

impl ServingConfig {
    /// The serial baseline (batch size 1, no overlap) under the paper
    /// cost model.
    pub fn serial() -> ServingConfig {
        ServingConfig {
            queue_capacity: 1024,
            mode: ExecutionMode::Serial,
            cost: ServeCostModel::paper(),
        }
    }

    /// Pipelined execution with batches of up to `max_batch`.
    pub fn pipelined(max_batch: usize) -> ServingConfig {
        ServingConfig {
            queue_capacity: 1024,
            mode: ExecutionMode::Pipelined {
                max_batch: max_batch.max(1),
            },
            cost: ServeCostModel::paper(),
        }
    }

    /// Replaces the stage cost model.
    pub fn with_cost(mut self, cost: ServeCostModel) -> ServingConfig {
        self.cost = cost;
        self
    }

    /// Replaces the per-lane queue capacity.
    pub fn with_capacity(mut self, capacity: usize) -> ServingConfig {
        self.queue_capacity = capacity.max(1);
        self
    }
}

impl Default for ServingConfig {
    fn default() -> ServingConfig {
        ServingConfig::pipelined(8)
    }
}

/// One queued request.
struct Pending {
    id: u64,
    payload: Vec<u8>,
    arrival: Duration,
}

/// The double-buffered staging layout carved out of a lane's DRAM
/// window: two input buffers in the lower half, two output buffers in
/// the upper half, so DMA-in of batch *k+1* never lands on bytes
/// compute of batch *k* still reads (and symmetrically for outputs).
#[derive(Debug, Clone, Copy)]
struct LaneBuffers {
    quarter: usize,
}

impl LaneBuffers {
    fn of(window_len: usize) -> LaneBuffers {
        LaneBuffers {
            quarter: window_len / 4,
        }
    }

    fn input_base(&self, parity: usize) -> usize {
        parity * self.quarter
    }

    fn output_base(&self, parity: usize) -> usize {
        2 * self.quarter + parity * self.quarter
    }

    fn capacity(&self) -> usize {
        self.quarter
    }
}

/// One attached session and its run queue.
struct Lane {
    session: SecureSession,
    workload: Box<dyn Workload>,
    /// The DMA bus this lane contends on: its board for fleet
    /// sessions, a private bus for standalone sessions. A drain runs
    /// the lanes of one bus on one thread.
    bus: usize,
    buffers: LaneBuffers,
    queue: VecDeque<Pending>,
}

/// One executed batch, as the functional pass recorded it: the model
/// pass turns these byte/op counts into stage durations.
struct ExecutedBatch {
    lane: usize,
    bus: usize,
    /// Ciphertext bytes of the coalesced DMA-in fill.
    cipher_bytes: usize,
    /// Secure register transactions spent on this batch (key exchange
    /// once, then per-request programming + readback).
    reg_ops: u32,
    /// Payload bytes per request (the compute stage streams these).
    compute_bytes: Vec<usize>,
    /// DMA-out transactions (bytes each); normally one packed read,
    /// more if an output overflow forced an early flush.
    dout_bytes: Vec<usize>,
    /// (request id, arrival) of every coalesced request, FIFO order.
    requests: Vec<(u64, Duration)>,
}

/// Merkle counters of a lane's controller (see
/// [`ServingPlane::lane_integrity_stats`]), without any key material.
///
/// The controller rebuilds the input root from DRAM on every START, so
/// only `full_builds` moves. `incr_refreshes` and `chunks_rehashed`
/// always read 0; they stay because the end-to-end benchmark reports
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegrityStats {
    /// Full Merkle tree builds over an input buffer.
    pub full_builds: u64,
    /// Incremental root refreshes: always 0.
    pub incr_refreshes: u64,
    /// Chunks re-hashed by incremental refreshes: always 0.
    pub chunks_rehashed: u64,
}

/// What one drain did, in virtual time.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Requests executed by this drain.
    pub requests: usize,
    /// Batches the executor coalesced them into.
    pub batches: usize,
    /// Per-batch request counts, execution order.
    pub batch_sizes: Vec<usize>,
    /// Virtual time from drain start to the last DMA-out completing.
    pub makespan: Duration,
    /// Per-request latency (completion − submission), submission
    /// order.
    pub latencies: Vec<Duration>,
}

impl ServingReport {
    /// Sustained throughput of the drain in requests per virtual
    /// second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.makespan.is_zero() {
            return f64::INFINITY;
        }
        self.requests as f64 / self.makespan.as_secs_f64()
    }

    /// The `p`-th latency percentile (`p` in `[0, 100]`, nearest-rank).
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Mean coalesced batch size.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batch_sizes.is_empty() {
            return 0.0;
        }
        self.batch_sizes.iter().sum::<usize>() as f64 / self.batch_sizes.len() as f64
    }

    /// Histogram of batch sizes as `(size, count)`, ascending.
    pub fn batch_histogram(&self) -> Vec<(usize, usize)> {
        let mut histogram: HashMap<usize, usize> = HashMap::new();
        for &s in &self.batch_sizes {
            *histogram.entry(s).or_default() += 1;
        }
        let mut out: Vec<_> = histogram.into_iter().collect();
        out.sort_unstable();
        out
    }
}

/// The request plane: run queues, the batching coalescer, and the
/// pipelined virtual-time executor over attached [`SecureSession`]s.
///
/// See the [module docs](self) for the execution model. Determinism:
/// given the same attach/submit sequence, every drain executes the
/// same batches in the same order and reports identical virtual-time
/// numbers, however many threads its boards' lanes ran on.
pub struct ServingPlane {
    config: ServingConfig,
    lanes: Vec<Option<Lane>>,
    clock: Option<SimClock>,
    next_request: u64,
    standalone_buses: usize,
    responses: HashMap<u64, Result<Vec<u8>, SalusError>>,
    /// When set, fleet lanes report window faults into the control
    /// plane's audit chain.
    audit: Option<Arc<ControlPlane>>,
}

impl std::fmt::Debug for ServingPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingPlane")
            .field("lanes", &self.lanes.iter().filter(|l| l.is_some()).count())
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

/// Bus namespace for standalone (non-fleet) sessions, far above any
/// realistic fleet device index.
const STANDALONE_BUS_BASE: usize = usize::MAX / 2;

impl ServingPlane {
    /// An empty plane with `config`.
    pub fn new(config: ServingConfig) -> ServingPlane {
        ServingPlane {
            config,
            lanes: Vec::new(),
            clock: None,
            next_request: 0,
            standalone_buses: 0,
            responses: HashMap::new(),
            audit: None,
        }
    }

    /// Routes this plane's auditable events (window faults on fleet
    /// lanes) into `node`'s control-plane audit chain.
    pub fn audit_to(&mut self, node: &SalusNode) {
        self.audit = Some(node.plane_handle());
    }

    /// Attaches a deployed session as a serving lane. Fleet sessions
    /// contend for their board's DMA bus with co-resident lanes;
    /// standalone sessions get a private bus. The plane's virtual
    /// clock is taken from the first attached session, so attach
    /// sessions from one node (they share the fleet clock).
    pub fn attach(&mut self, session: SecureSession, workload: &dyn Workload) -> LaneId {
        if self.clock.is_none() {
            self.clock = Some(session.clock());
        }
        let bus = match session.tenancy() {
            Some(t) => t.slot.device,
            None => {
                self.standalone_buses += 1;
                STANDALONE_BUS_BASE + self.standalone_buses
            }
        };
        let buffers = LaneBuffers::of(session.dram_window().len);
        self.lanes.push(Some(Lane {
            session,
            workload: workload.clone_box(),
            bus,
            buffers,
            queue: VecDeque::new(),
        }));
        LaneId(self.lanes.len() - 1)
    }

    /// Detaches an idle lane, handing its session back (e.g. for
    /// eviction through [`SalusNode::evict`](crate::node::SalusNode)).
    ///
    /// # Errors
    ///
    /// [`ServeError::LaneBusy`] while requests are queued;
    /// [`ServeError::UnknownLane`] otherwise.
    pub fn detach(&mut self, lane: LaneId) -> Result<SecureSession, ServeError> {
        let slot = self
            .lanes
            .get_mut(lane.0)
            .ok_or(ServeError::UnknownLane(lane))?;
        match slot {
            Some(l) if !l.queue.is_empty() => Err(ServeError::LaneBusy(lane)),
            Some(_) => Ok(slot.take().expect("checked above").session),
            None => Err(ServeError::UnknownLane(lane)),
        }
    }

    /// Requests currently queued across all lanes.
    pub fn in_flight(&self) -> usize {
        self.lanes.iter().flatten().map(|l| l.queue.len()).sum()
    }

    /// Every attached lane, in attach order.
    pub fn lanes(&self) -> Vec<LaneId> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|_| LaneId(i)))
            .collect()
    }

    /// The fleet tenancy of `lane`'s session (`None` for detached
    /// lanes and standalone sessions).
    pub fn lane_tenancy(&self, lane: LaneId) -> Option<Tenancy> {
        self.lanes.get(lane.0)?.as_ref()?.session.tenancy()
    }

    /// Reads `lane`'s Merkle build counter over the secure register
    /// channel: one full input-tree build per verified START, zero on a
    /// confidentiality-only lane. The other two [`IntegrityStats`]
    /// fields are zero without a register read.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownLane`] for detached lanes;
    /// [`ServeError::Rejected`] on register-channel violations.
    pub fn lane_integrity_stats(&mut self, lane: LaneId) -> Result<IntegrityStats, ServeError> {
        let l = self
            .lanes
            .get_mut(lane.0)
            .and_then(|l| l.as_mut())
            .ok_or(ServeError::UnknownLane(lane))?;
        let full_builds = l
            .session
            .bed_mut()
            .secure_reg_read(regs::STAT_FULL_BUILDS)
            .map_err(ServeError::Rejected)?;
        Ok(IntegrityStats {
            full_builds,
            ..IntegrityStats::default()
        })
    }

    /// Runs one deadline-bounded runtime re-attestation challenge
    /// against `lane`'s live CL, in place — the lane stays attached
    /// and its queue untouched. The sweep monitor calls this every
    /// epoch and [`fence`](ServingPlane::fence)s on any verdict but
    /// `Alive`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownLane`] for detached lanes;
    /// [`ServeError::Rejected`] on session-state errors. Verdicts
    /// (including timeouts) are outcomes, not errors.
    pub fn challenge_lane(
        &mut self,
        lane: LaneId,
        policy: &AttestPolicy,
    ) -> Result<ChallengeOutcome, ServeError> {
        let l = self
            .lanes
            .get_mut(lane.0)
            .and_then(|l| l.as_mut())
            .ok_or(ServeError::UnknownLane(lane))?;
        challenge(l.session.bed_mut(), policy).map_err(ServeError::Rejected)
    }

    /// Fences `lane`: detaches it *immediately* — queued or not — and
    /// drains every queued request with a typed
    /// [`SessionFenced`](ServeError::SessionFenced) response instead
    /// of executing it on a CL that failed re-attestation. Returns the
    /// (no longer trusted) session and how many requests were drained;
    /// hand the session to [`SalusNode::fence`](crate::node::SalusNode)
    /// to release the slot and quarantine the board.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownLane`] for never-attached or already
    /// detached/fenced lanes.
    pub fn fence(&mut self, lane: LaneId) -> Result<(SecureSession, usize), ServeError> {
        let slot = self
            .lanes
            .get_mut(lane.0)
            .ok_or(ServeError::UnknownLane(lane))?;
        let mut fenced = slot.take().ok_or(ServeError::UnknownLane(lane))?;
        let drained = fenced.queue.len();
        for pending in fenced.queue.drain(..) {
            self.responses
                .insert(pending.id, Err(SalusError::SessionFenced("lane fenced")));
        }
        Ok((fenced.session, drained))
    }

    /// Queues `payload` on `lane` for `client`. The request is
    /// admitted FIFO — accepted requests are never dropped and never
    /// reordered within their lane — and executes at the next
    /// [`drain`](ServingPlane::drain).
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] on a full queue (the typed
    /// backpressure signal), [`ServeError::RequestTooLarge`] when the
    /// payload cannot fit the lane's staging buffer,
    /// [`ServeError::UnknownLane`] for detached lanes.
    pub fn submit(
        &mut self,
        lane: LaneId,
        client: ClientId,
        payload: Vec<u8>,
    ) -> Result<ResponseHandle, ServeError> {
        let capacity = self.config.queue_capacity;
        let arrival = self
            .clock
            .as_ref()
            .map(|c| c.now())
            .unwrap_or(Duration::ZERO);
        let l = self
            .lanes
            .get_mut(lane.0)
            .and_then(|l| l.as_mut())
            .ok_or(ServeError::UnknownLane(lane))?;
        if payload.len() > l.buffers.capacity() {
            return Err(ServeError::RequestTooLarge {
                len: payload.len(),
                max: l.buffers.capacity(),
            });
        }
        if l.queue.len() >= capacity {
            return Err(ServeError::Overloaded { lane, capacity });
        }
        let id = self.next_request;
        self.next_request += 1;
        l.queue.push_back(Pending {
            id,
            payload,
            arrival,
        });
        Ok(ResponseHandle {
            id: RequestId(id),
            lane,
            client,
        })
    }

    /// Executes every queued request and advances the virtual clock by
    /// the schedule's makespan. Responses become collectable through
    /// [`take`](ServingPlane::take).
    ///
    /// The executor runs two passes: a *functional* pass that really
    /// moves the bytes (coalesced DMA fills, per-request register
    /// programming, packed DMA-out reads — splitting a batch when its
    /// outputs overflow the staging buffer), then a *model* pass that
    /// lays the recorded stages onto the virtual clock with the
    /// configured overlap. Request outcomes are byte-independent of
    /// the schedule, which is what makes the pipelined plane safe to
    /// reason about.
    ///
    /// The functional pass runs each board's lanes in lane order on
    /// one thread, and different boards on different threads (the
    /// caller's among them) once at least
    /// [`MIN_BYTES_PER_THREAD`] payload bytes are queued and the
    /// fabric carries no fault plane; the [module docs](self) explain
    /// why the outcome does not depend on the split.
    ///
    /// # Errors
    ///
    /// Unrecoverable protocol failures (a broken register channel):
    /// the lowest-index failing lane's error. The requests of the
    /// batch it broke are answered with [`ServeError::Rejected`]; its
    /// later requests, and every later lane on the same board, stay
    /// queued. Lanes on other boards still run and their responses are
    /// collectable, but the clock does not advance. Per-request
    /// rejections (integrity faults, oversized outputs) are *not* drain
    /// errors; they surface through [`take`](ServingPlane::take) as
    /// [`ServeError::Rejected`].
    pub fn drain(&mut self) -> Result<ServingReport, ServeError> {
        let max_batch = match self.config.mode {
            ExecutionMode::Serial => 1,
            ExecutionMode::Pipelined { max_batch } => max_batch,
        };
        let mut runs = self.execute_lanes(max_batch);
        runs.sort_unstable_by_key(|run| run.index);

        let mut executed: Vec<ExecutedBatch> = Vec::new();
        let mut failure = None;
        for run in runs {
            executed.extend(run.batches);
            self.responses.extend(run.responses);
            if let Some(plane) = &self.audit {
                for event in run.faults {
                    plane.audit_append(event);
                }
            }
            failure = failure.or(run.failed);
        }
        if let Some(e) = failure {
            return Err(ServeError::Rejected(e));
        }

        let report = match self.config.mode {
            ExecutionMode::Serial => schedule_serial(&executed, &self.config.cost),
            ExecutionMode::Pipelined { .. } => schedule_pipelined(&executed, &self.config.cost),
        };
        if let Some(clock) = &self.clock {
            clock.advance(report.makespan);
        }
        Ok(report)
    }

    /// The functional pass over every lane with queued work: one
    /// [`LaneRun`] per lane that ran, in no particular order.
    fn execute_lanes(&mut self, max_batch: usize) -> Vec<LaneRun> {
        let mut queued: Vec<(usize, &mut Lane)> = self
            .lanes
            .iter_mut()
            .enumerate()
            .filter_map(|(index, lane)| Some((index, lane.as_mut()?)))
            .filter(|(_, lane)| !lane.queue.is_empty())
            .collect();
        let bytes: usize = queued
            .iter()
            .flat_map(|(_, lane)| &lane.queue)
            .map(|pending| pending.payload.len())
            .sum();
        let faulty = queued
            .iter_mut()
            .any(|(_, lane)| lane.session.bed_mut().fabric.has_fault_plane());
        if bytes < MIN_BYTES_PER_THREAD || faulty {
            return execute_in_order(queued, max_batch);
        }

        // Each board's lanes in lane order; boards in order of their
        // first lane, dealt round-robin onto at most one worker a core.
        let mut boards: Vec<Vec<(usize, &mut Lane)>> = Vec::new();
        for (index, lane) in queued {
            match boards.iter_mut().find(|board| board[0].1.bus == lane.bus) {
                Some(board) => board.push((index, lane)),
                None => boards.push(vec![(index, lane)]),
            }
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = boards.len().min(cores);
        let mut shares: Vec<Vec<(usize, &mut Lane)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, board) in boards.into_iter().enumerate() {
            shares[i % workers].extend(board);
        }
        let mut shares = shares.into_iter();
        let own = shares.next().unwrap_or_default();
        std::thread::scope(|scope| {
            let spawned: Vec<_> = shares
                .map(|share| scope.spawn(move || execute_in_order(share, max_batch)))
                .collect();
            let mut runs = execute_in_order(own, max_batch);
            for worker in spawned {
                runs.extend(
                    worker
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            runs
        })
    }

    /// Redeems a response handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotReady`] before the request's drain (or after
    /// the handle was already redeemed); [`ServeError::Rejected`] when
    /// the request executed but failed (integrity violation, window
    /// fault); [`ServeError::SessionFenced`] when the lane was fenced
    /// before the request could execute.
    pub fn take(&mut self, handle: ResponseHandle) -> Result<Vec<u8>, ServeError> {
        match self.responses.remove(&handle.id.0) {
            Some(Ok(bytes)) => Ok(bytes),
            Some(Err(SalusError::SessionFenced(_))) => {
                Err(ServeError::SessionFenced { lane: handle.lane })
            }
            Some(Err(e)) => Err(ServeError::Rejected(e)),
            None => Err(ServeError::NotReady(handle.id)),
        }
    }
}

/// What the functional pass did on one lane.
struct LaneRun {
    index: usize,
    batches: Vec<ExecutedBatch>,
    /// Every request popped from the queue, answered.
    responses: Vec<(u64, Result<Vec<u8>, SalusError>)>,
    /// Window faults to audit (fleet lanes only), execution order.
    faults: Vec<AuditEvent>,
    /// The protocol failure that stopped the lane, if any.
    failed: Option<SalusError>,
}

/// Runs `lanes` one after another, in the order given. Once a lane
/// fails, later lanes on its board stay queued.
fn execute_in_order(lanes: Vec<(usize, &mut Lane)>, max_batch: usize) -> Vec<LaneRun> {
    let mut failed_buses: Vec<usize> = Vec::new();
    let mut runs = Vec::with_capacity(lanes.len());
    for (index, lane) in lanes {
        if failed_buses.contains(&lane.bus) {
            continue;
        }
        let run = execute_lane(lane, index, max_batch);
        if run.failed.is_some() {
            failed_buses.push(lane.bus);
        }
        runs.push(run);
    }
    runs
}

/// One coalesced batch on its way through the stages.
struct Batch {
    members: Vec<Pending>,
    /// Payload bytes per member (what compute streams), taken before
    /// the responses reuse the payload buffers.
    compute_bytes: Vec<usize>,
    /// Each member's offset in `packed`, and its input root.
    inputs: Vec<(usize, [u8; 32])>,
    /// The members' ciphertexts, back to back: one DMA fill.
    packed: Vec<u8>,
    /// Each member's response, once known.
    outputs: Vec<Option<Result<Vec<u8>, SalusError>>>,
    reg_ops: u32,
    /// DMA-out transactions (bytes each); normally one packed read,
    /// more if an output overflow forced an early flush.
    dout_bytes: Vec<usize>,
    /// Requests whose output overflowed even an empty staging buffer.
    window_faults: usize,
}

impl Batch {
    /// Coalesces up to `max_batch` FIFO requests whose ciphertexts fit
    /// one staging buffer, encrypting each in place. Same lane ⇒ same
    /// session, key, and accelerator ⇒ compatible by construction.
    fn coalesce(
        queue: &mut VecDeque<Pending>,
        plan: &Plan,
        capacity: usize,
        max_batch: usize,
    ) -> Batch {
        let mut batch = Batch {
            members: Vec::new(),
            compute_bytes: Vec::new(),
            inputs: Vec::new(),
            packed: Vec::with_capacity(capacity),
            outputs: Vec::new(),
            reg_ops: 0,
            dout_bytes: Vec::new(),
            window_faults: 0,
        };
        while batch.members.len() < max_batch {
            let Some(next) = queue.front() else {
                break;
            };
            let offset = batch.packed.len();
            if !batch.members.is_empty() && offset + next.payload.len() > capacity {
                break;
            }
            let next = queue.pop_front().expect("front checked");
            batch.packed.extend_from_slice(&next.payload);
            let root = plan.encrypt_input(&mut batch.packed[offset..]);
            batch.inputs.push((offset, root));
            batch.compute_bytes.push(next.payload.len());
            batch.outputs.push(None);
            batch.members.push(next);
        }
        batch
    }

    /// Stages the batch through the device: one coalesced DMA fill,
    /// one key exchange, per-request compute, and packed DMA-outs.
    /// Answers every member it finishes; on a protocol failure the
    /// rest stay unanswered.
    fn execute(
        &mut self,
        bed: &mut TestBed,
        plan: &Plan,
        buffers: LaneBuffers,
        parity: usize,
        encrypt_output: bool,
    ) -> Result<(), SalusError> {
        let in_base = buffers.input_base(parity);
        let out_base = buffers.output_base(parity);

        // Stage 1: one coalesced DMA fill for the whole batch.
        stage_dma_in(bed, in_base, &self.packed)?;

        // Stage 2: key exchange once per batch, then per-request
        // programming + compute.
        plan.program_key(bed)?;
        self.reg_ops = 4;

        // (member, output offset in the staging buffer, length, root)
        let mut spans: Vec<(usize, usize, usize, [u8; 32])> = Vec::new();
        let mut out_cursor = 0usize;
        for i in 0..self.members.len() {
            let (input_offset, in_root) = self.inputs[i];
            let mut retried = false;
            loop {
                let req = ExecRequest {
                    input_offset: in_base + input_offset,
                    input_len: self.compute_bytes[i],
                    output_offset: out_base + out_cursor,
                    encrypt_output,
                };
                let outcome = plan.execute(bed, &req, &in_root)?;
                self.reg_ops += plan.exec_reg_ops(&outcome);
                match outcome {
                    VerifiedOutcome::Done {
                        output_len,
                        out_root,
                    } => {
                        spans.push((i, out_cursor, output_len, out_root));
                        out_cursor += output_len;
                        break;
                    }
                    VerifiedOutcome::InputTampered => {
                        self.outputs[i] =
                            Some(Err(SalusError::RegisterChannelViolation("input integrity")));
                        break;
                    }
                    VerifiedOutcome::WindowFault { reported_len } => {
                        if out_cursor > 0 && !retried {
                            // The packed outputs filled the staging
                            // buffer: flush what is there in one early
                            // DMA-out, then retry this request against
                            // an empty buffer.
                            self.flush(bed, plan, out_base, out_cursor, &spans, encrypt_output)?;
                            spans.clear();
                            out_cursor = 0;
                            retried = true;
                            continue;
                        }
                        // Even an empty buffer cannot hold this output.
                        self.window_faults += 1;
                        self.outputs[i] = Some(Err(SalusError::Fpga(
                            salus_fpga::FpgaError::DmaOutOfWindow {
                                offset: (out_base + out_cursor) as u64,
                                len: reported_len,
                                window: bed.dram_window.len as u64,
                            },
                        )));
                        break;
                    }
                }
            }
        }

        // Stage 3: one packed DMA-out for everything still in DRAM.
        if out_cursor > 0 {
            self.flush(bed, plan, out_base, out_cursor, &spans, encrypt_output)?;
        }
        Ok(())
    }

    /// Reads the packed output region back in one DMA transaction and
    /// answers each request it holds. A response is written into its
    /// request's own payload buffer, which the submitting thread
    /// allocated, so drain threads leave no long-lived allocation
    /// behind; an output under half that buffer's capacity gets a fresh
    /// one instead, so a small response never pins a large buffer.
    fn flush(
        &mut self,
        bed: &mut TestBed,
        plan: &Plan,
        out_base: usize,
        out_len: usize,
        spans: &[(usize, usize, usize, [u8; 32])],
        encrypt_output: bool,
    ) -> Result<(), SalusError> {
        let packed_out = stage_dma_out(bed, out_base, out_len)?;
        self.dout_bytes.push(out_len);
        for &(i, offset, len, ref out_root) in spans {
            let mut output = std::mem::take(&mut self.members[i].payload);
            if 2 * len < output.capacity() {
                output = Vec::with_capacity(len);
            }
            output.clear();
            output.extend_from_slice(&packed_out[offset..offset + len]);
            let outcome = plan
                .open_output(&mut output, out_root, encrypt_output)
                .map(|()| output);
            self.outputs[i] = Some(outcome);
        }
        Ok(())
    }
}

/// Functionally executes one lane's queue: coalesces batches, moves
/// the bytes through the resumable stages, and records the byte/op
/// counts the model pass prices. Stops at the first protocol failure,
/// answering the requests of the batch it broke with that error.
fn execute_lane(lane: &mut Lane, index: usize, max_batch: usize) -> LaneRun {
    let mut run = LaneRun {
        index,
        batches: Vec::new(),
        responses: Vec::new(),
        faults: Vec::new(),
        failed: None,
    };
    let protection = lane.session.protection();
    let plan = match Plan::prepare(lane.session.bed_mut(), protection) {
        Ok(plan) => plan,
        Err(e) => {
            run.failed = Some(e);
            return run;
        }
    };
    let fault = lane.session.tenancy().map(|t| AuditEvent::WindowFault {
        tenant: t.tenant,
        slot: t.slot,
    });
    let encrypt_output = lane.workload.encrypt_output();
    let mut parity = 0usize;

    while !lane.queue.is_empty() {
        let mut batch = Batch::coalesce(&mut lane.queue, &plan, lane.buffers.capacity(), max_batch);
        let outcome = batch.execute(
            lane.session.bed_mut(),
            &plan,
            lane.buffers,
            parity,
            encrypt_output,
        );
        if let Some(event) = &fault {
            run.faults
                .extend(std::iter::repeat_n(event.clone(), batch.window_faults));
        }
        for (member, output) in batch.members.iter().zip(batch.outputs) {
            let response = match (output, &outcome) {
                (Some(response), _) => response,
                (None, Err(e)) => Err(e.clone()),
                (None, Ok(())) => Err(SalusError::Malformed("request produced no output")),
            };
            run.responses.push((member.id, response));
        }
        if let Err(e) = outcome {
            run.failed = Some(e);
            break;
        }
        run.batches.push(ExecutedBatch {
            lane: index,
            bus: lane.bus,
            cipher_bytes: batch.packed.len(),
            reg_ops: batch.reg_ops,
            compute_bytes: batch.compute_bytes,
            dout_bytes: batch.dout_bytes,
            requests: batch.members.iter().map(|m| (m.id, m.arrival)).collect(),
        });
        parity ^= 1;
    }
    run
}

/// The serial baseline schedule: every request pays its own key
/// exchange and DMA setups, and the whole plane processes one request
/// at a time in global submission order.
fn schedule_serial(executed: &[ExecutedBatch], cost: &ServeCostModel) -> ServingReport {
    // Serial mode coalesces nothing, so each batch is one request.
    let mut rows: Vec<(&ExecutedBatch, Duration)> = executed
        .iter()
        .map(|b| (b, b.requests.first().map(|r| r.1).unwrap_or_default()))
        .collect();
    rows.sort_by_key(|(b, arrival)| (*arrival, b.requests.first().map(|r| r.0).unwrap_or(0)));

    let mut report = ServingReport {
        requests: 0,
        batches: 0,
        batch_sizes: Vec::new(),
        makespan: Duration::ZERO,
        latencies: Vec::new(),
    };
    let mut cursor = Duration::ZERO;
    let mut latencies: Vec<(u64, Duration)> = Vec::new();
    for (batch, arrival) in rows {
        let start = cursor.max(arrival);
        let duration = cost.dma(batch.cipher_bytes)
            + cost.regs(batch.reg_ops)
            + batch
                .compute_bytes
                .iter()
                .map(|&b| cost.compute(b))
                .sum::<Duration>()
            + batch
                .dout_bytes
                .iter()
                .map(|&b| cost.dma(b))
                .sum::<Duration>();
        let end = start + duration;
        cursor = end;
        report.requests += batch.requests.len();
        report.batches += 1;
        report.batch_sizes.push(batch.requests.len());
        report.makespan = report.makespan.max(end);
        for &(id, arrival) in &batch.requests {
            latencies.push((id, end.saturating_sub(arrival)));
        }
    }
    latencies.sort_by_key(|&(id, _)| id);
    report.latencies = latencies.into_iter().map(|(_, l)| l).collect();
    report
}

/// The pipelined schedule: per-lane three-stage pipelines (DMA-in,
/// compute, DMA-out) with double-buffered staging, arbitrating DMA
/// stages on each board's shared bus while co-resident computes
/// overlap freely.
fn schedule_pipelined(executed: &[ExecutedBatch], cost: &ServeCostModel) -> ServingReport {
    // Group batches by lane, preserving execution order.
    let mut lane_ids: Vec<usize> = Vec::new();
    let mut by_lane: HashMap<usize, Vec<&ExecutedBatch>> = HashMap::new();
    for b in executed {
        if !by_lane.contains_key(&b.lane) {
            lane_ids.push(b.lane);
        }
        by_lane.entry(b.lane).or_default().push(b);
    }
    lane_ids.sort_unstable();

    #[derive(Clone, Copy, Default)]
    struct StageTimes {
        din_end: Option<Duration>,
        comp_end: Option<Duration>,
        dout_end: Option<Duration>,
    }
    let mut times: HashMap<usize, Vec<StageTimes>> = lane_ids
        .iter()
        .map(|&l| (l, vec![StageTimes::default(); by_lane[&l].len()]))
        .collect();
    // Per-lane cursors over the next unscheduled stage of each kind.
    let mut next_din: HashMap<usize, usize> = lane_ids.iter().map(|&l| (l, 0)).collect();
    let mut next_comp = next_din.clone();
    let mut next_dout = next_din.clone();
    let mut bus_free: HashMap<usize, Duration> = HashMap::new();

    let din_dur = |b: &ExecutedBatch| cost.dma(b.cipher_bytes);
    let comp_dur = |b: &ExecutedBatch| {
        cost.regs(b.reg_ops)
            + b.compute_bytes
                .iter()
                .map(|&bytes| cost.compute(bytes))
                .sum::<Duration>()
    };
    let dout_dur = |b: &ExecutedBatch| {
        b.dout_bytes
            .iter()
            .map(|&bytes| cost.dma(bytes))
            .sum::<Duration>()
    };
    let arrival_max = |b: &ExecutedBatch| b.requests.iter().map(|r| r.1).max().unwrap_or_default();

    loop {
        // Schedule every ready compute stage (per-lane resource — no
        // arbitration needed).
        let mut progressed = false;
        for &l in &lane_ids {
            loop {
                let k = next_comp[&l];
                if k >= by_lane[&l].len() {
                    break;
                }
                let t = &times[&l];
                let Some(din_end) = t[k].din_end else { break };
                let prev_comp = if k > 0 {
                    t[k - 1].comp_end
                } else {
                    Some(Duration::ZERO)
                };
                let Some(prev_comp) = prev_comp else { break };
                // Output staging buffer k%2 must be drained (batch
                // k−2 used it) before this compute writes into it.
                let buffer_free = if k >= 2 {
                    t[k - 2].dout_end
                } else {
                    Some(Duration::ZERO)
                };
                let Some(buffer_free) = buffer_free else {
                    break;
                };
                let start = din_end.max(prev_comp).max(buffer_free);
                times.get_mut(&l).expect("lane")[k].comp_end =
                    Some(start + comp_dur(by_lane[&l][k]));
                *next_comp.get_mut(&l).expect("lane") += 1;
                progressed = true;
            }
        }

        // Collect ready bus ops (DMA-in / DMA-out) and their earliest
        // feasible starts.
        // (lane, is_dout, feasible start, duration)
        let mut candidates: Vec<(usize, bool, Duration, Duration)> = Vec::new();
        for &l in &lane_ids {
            let t = &times[&l];
            let k = next_din[&l];
            if k < by_lane[&l].len() {
                let prev_din = if k > 0 {
                    t[k - 1].din_end
                } else {
                    Some(Duration::ZERO)
                };
                // Input staging buffer k%2 is free once batch k−2's
                // compute consumed it.
                let buffer_free = if k >= 2 {
                    t[k - 2].comp_end
                } else {
                    Some(Duration::ZERO)
                };
                if let (Some(prev_din), Some(buffer_free)) = (prev_din, buffer_free) {
                    let batch = by_lane[&l][k];
                    let feasible = prev_din.max(buffer_free).max(arrival_max(batch));
                    candidates.push((l, false, feasible, din_dur(batch)));
                }
            }
            let k = next_dout[&l];
            if k < by_lane[&l].len() {
                let prev_dout = if k > 0 {
                    t[k - 1].dout_end
                } else {
                    Some(Duration::ZERO)
                };
                if let (Some(comp_end), Some(prev_dout)) = (t[k].comp_end, prev_dout) {
                    let feasible = comp_end.max(prev_dout);
                    candidates.push((l, true, feasible, dout_dur(by_lane[&l][k])));
                }
            }
        }
        if candidates.is_empty() {
            if progressed {
                continue;
            }
            break;
        }
        // Earliest feasible start wins the bus; deterministic
        // tie-break on (start, lane, kind).
        candidates.sort_by_key(|&(l, is_dout, feasible, _)| (feasible, l, is_dout));
        let (l, is_dout, feasible, duration) = candidates[0];
        let bus = by_lane[&l][0].bus;
        let free = bus_free.get(&bus).copied().unwrap_or_default();
        let start = feasible.max(free);
        let end = start + duration;
        bus_free.insert(bus, end);
        if is_dout {
            let k = next_dout[&l];
            times.get_mut(&l).expect("lane")[k].dout_end = Some(end);
            *next_dout.get_mut(&l).expect("lane") += 1;
        } else {
            let k = next_din[&l];
            times.get_mut(&l).expect("lane")[k].din_end = Some(end);
            *next_din.get_mut(&l).expect("lane") += 1;
        }
    }

    let mut report = ServingReport {
        requests: 0,
        batches: 0,
        batch_sizes: Vec::new(),
        makespan: Duration::ZERO,
        latencies: Vec::new(),
    };
    let mut latencies: Vec<(u64, Duration)> = Vec::new();
    for &l in &lane_ids {
        for (k, batch) in by_lane[&l].iter().enumerate() {
            let end = times[&l][k].dout_end.expect("all stages scheduled");
            report.requests += batch.requests.len();
            report.batches += 1;
            report.batch_sizes.push(batch.requests.len());
            report.makespan = report.makespan.max(end);
            for &(id, arrival) in &batch.requests {
                latencies.push((id, end.saturating_sub(arrival)));
            }
        }
    }
    latencies.sort_by_key(|&(id, _)| id);
    report.latencies = latencies.into_iter().map(|(_, l)| l).collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SalusNode;
    use salus_accel::apps::affine::Affine;
    use salus_accel::apps::conv::Conv;

    fn quick_plane(mode: ExecutionMode) -> ServingConfig {
        ServingConfig {
            queue_capacity: 64,
            mode,
            cost: ServeCostModel::paper(),
        }
    }

    #[test]
    fn single_request_round_trips() {
        let node = SalusNode::quick(1, 1).unwrap();
        let tenant = node.register_tenant("alice");
        let workload = Conv::paper_scale();
        let session = node.deploy(tenant, &workload).unwrap();
        let mut plane = ServingPlane::new(quick_plane(ExecutionMode::Pipelined { max_batch: 4 }));
        let lane = plane.attach(session, &workload);
        let handle = plane
            .submit(lane, ClientId(1), workload.input().to_vec())
            .unwrap();
        let report = plane.drain().unwrap();
        assert_eq!(report.requests, 1);
        assert!(report.makespan > Duration::ZERO);
        let out = plane.take(handle).unwrap();
        assert_eq!(out, workload.compute(workload.input()));
        // A second take is NotReady.
        assert_eq!(
            plane.take(handle).unwrap_err(),
            ServeError::NotReady(handle.id)
        );
    }

    #[test]
    fn batches_coalesce_and_preserve_per_request_outputs() {
        let node = SalusNode::quick(1, 1).unwrap();
        let tenant = node.register_tenant("alice");
        let workload = Affine::paper_scale();
        let session = node.deploy(tenant, &workload).unwrap();
        let mut plane = ServingPlane::new(quick_plane(ExecutionMode::Pipelined { max_batch: 8 }));
        let lane = plane.attach(session, &workload);

        let mut handles = Vec::new();
        let mut payloads = Vec::new();
        for i in 0..6u8 {
            let mut payload = workload.input().to_vec();
            payload[0] ^= i; // distinct inputs, distinct outputs
            handles.push(
                plane
                    .submit(lane, ClientId(u64::from(i)), payload.clone())
                    .unwrap(),
            );
            payloads.push(payload);
        }
        let report = plane.drain().unwrap();
        assert_eq!(report.requests, 6);
        assert_eq!(report.batches, 1, "six small requests coalesce into one");
        assert_eq!(report.batch_sizes, vec![6]);
        for (handle, payload) in handles.into_iter().zip(&payloads) {
            assert_eq!(plane.take(handle).unwrap(), workload.compute(payload));
        }
    }

    #[test]
    fn serial_mode_never_batches() {
        let node = SalusNode::quick(1, 1).unwrap();
        let tenant = node.register_tenant("alice");
        let workload = Conv::paper_scale();
        let session = node.deploy(tenant, &workload).unwrap();
        let mut plane = ServingPlane::new(quick_plane(ExecutionMode::Serial));
        let lane = plane.attach(session, &workload);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                plane
                    .submit(lane, ClientId(i), workload.input().to_vec())
                    .unwrap()
            })
            .collect();
        let report = plane.drain().unwrap();
        assert_eq!(report.batches, 4);
        assert!(report.batch_sizes.iter().all(|&s| s == 1));
        for h in handles {
            assert_eq!(plane.take(h).unwrap(), workload.compute(workload.input()));
        }
    }

    #[test]
    fn detach_returns_the_session_only_when_idle() {
        let node = SalusNode::quick(1, 1).unwrap();
        let tenant = node.register_tenant("alice");
        let workload = Conv::paper_scale();
        let session = node.deploy(tenant, &workload).unwrap();
        let mut plane = ServingPlane::new(ServingConfig::default());
        let lane = plane.attach(session, &workload);
        let h = plane
            .submit(lane, ClientId(0), workload.input().to_vec())
            .unwrap();
        assert_eq!(plane.detach(lane).unwrap_err(), ServeError::LaneBusy(lane));
        let report = plane.drain().unwrap();
        assert_eq!(report.requests, 1);
        plane.take(h).unwrap();
        let mut session = plane.detach(lane).unwrap();
        assert!(session.is_alive().unwrap());
        assert_eq!(
            plane.detach(lane).unwrap_err(),
            ServeError::UnknownLane(lane)
        );
    }

    #[test]
    fn fencing_drains_queued_requests_with_a_typed_error() {
        let node = SalusNode::quick(1, 1).unwrap();
        let tenant = node.register_tenant("alice");
        let workload = Conv::paper_scale();
        let session = node.deploy(tenant, &workload).unwrap();
        let mut plane = ServingPlane::new(ServingConfig::default());
        let lane = plane.attach(session, &workload);
        let h1 = plane
            .submit(lane, ClientId(0), workload.input().to_vec())
            .unwrap();
        let h2 = plane
            .submit(lane, ClientId(1), workload.input().to_vec())
            .unwrap();

        // A busy lane cannot detach — but it CAN fence: fencing is the
        // fail-closed path and must never be blocked by queued work.
        assert_eq!(plane.detach(lane).unwrap_err(), ServeError::LaneBusy(lane));
        let (_session, drained) = plane.fence(lane).unwrap();
        assert_eq!(drained, 2);
        assert_eq!(plane.in_flight(), 0);
        assert!(plane.lanes().is_empty());

        // Both handles resolve to the typed drain error, not output.
        assert_eq!(
            plane.take(h1).unwrap_err(),
            ServeError::SessionFenced { lane }
        );
        assert_eq!(
            plane.take(h2).unwrap_err(),
            ServeError::SessionFenced { lane }
        );
        // Redeemed handles are gone; the lane is gone too.
        assert_eq!(plane.take(h1).unwrap_err(), ServeError::NotReady(h1.id));
        assert_eq!(
            plane.fence(lane).unwrap_err(),
            ServeError::UnknownLane(lane)
        );
    }

    #[test]
    fn challenge_on_a_healthy_lane_reads_alive() {
        use salus_core::runtime_attest::ChallengeVerdict;

        let node = SalusNode::quick(1, 1).unwrap();
        let tenant = node.register_tenant("alice");
        let workload = Conv::paper_scale();
        let session = node.deploy(tenant, &workload).unwrap();
        let mut plane = ServingPlane::new(ServingConfig::default());
        let lane = plane.attach(session, &workload);
        let outcome = plane
            .challenge_lane(lane, &AttestPolicy::default())
            .unwrap();
        assert_eq!(outcome.verdict, ChallengeVerdict::Alive);
        assert_eq!(outcome.attempts, 1);
        assert!(!outcome.fail_closed());
        assert!(plane.lane_tenancy(lane).is_some());
    }

    #[test]
    fn pipelined_makespan_beats_serial_on_coresident_lanes() {
        let run = |mode: ExecutionMode| {
            let node = SalusNode::quick(1, 2).unwrap();
            let workload = Conv::paper_scale();
            let mut plane = ServingPlane::new(quick_plane(mode));
            let mut handles = Vec::new();
            for t in 0..2 {
                let tenant = node.register_tenant(&format!("t{t}"));
                let session = node.deploy(tenant, &workload).unwrap();
                let lane = plane.attach(session, &workload);
                for i in 0..8u64 {
                    handles.push(
                        plane
                            .submit(lane, ClientId(i), workload.input().to_vec())
                            .unwrap(),
                    );
                }
            }
            let report = plane.drain().unwrap();
            for h in handles {
                plane.take(h).unwrap();
            }
            report
        };
        let serial = run(ExecutionMode::Serial);
        let pipelined = run(ExecutionMode::Pipelined { max_batch: 4 });
        assert_eq!(serial.requests, pipelined.requests);
        assert!(
            pipelined.makespan < serial.makespan,
            "pipelined {:?} not faster than serial {:?}",
            pipelined.makespan,
            serial.makespan
        );
    }
}
