//! The four workloads and the runner that measures them.
//!
//! Every workload is a closed loop driven by one client thread. A run is
//! a sequence of *units* — a churn epoch or a serving node — each with
//! its own set-up; units start until the measured time reaches the
//! run's budget. Correctness checks run outside every timed region.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use salus::accel::apps::affine::{Affine, AffineMatrix};
use salus::accel::apps::conv::Conv;
use salus::accel::harness::{self, ExecOutcome, ExecRequest, RunPlan};
use salus::accel::integrity::{self, IntegrityPlan, VerifiedOutcome};
use salus::accel::workload::{WithInput, Workload};
use salus::bitstream::encrypt::{compiled_digest, encrypt_for_device};
use salus::core::boot::BootBreakdown;
use salus::core::dev::develop_cl;
use salus::core::platform::{DeployPath, TenantId};
use salus::crypto::ctr::AesCtr256;
use salus::crypto::gcm::AesGcm256;
use salus::crypto::sha256::Sha256;
use salus::net::clock::SimClock;
use salus::node::{node_geometry, SalusNode};
use salus::serving::{ClientId, LaneId, ServingConfig, ServingPlane};
use salus::session::{MemoryProtection, SecureSession};

use crate::inputs::{payload, Rng};
use crate::metrics::{self, BOOT_PHASES};
use crate::stats::{median, peak_rss_mib, percentile, Summary};
use crate::trace::{self, Span, Traced, Tracer};

/// Drains one serving node may run. `ServingPlane::drain`
/// (`src/serving.rs`) advances the shared `SimClock` by the drain's
/// makespan, which is measured from t=0 rather than from the drain's
/// start, so the clock roughly doubles per drain and its u64 nanosecond
/// counter wraps after about 34 drains.
pub const MAX_DRAINS_PER_NODE: usize = 24;

/// Full (cold or warm-key) deploys one node may run. Each loads two
/// enclaves into the node's `SgxPlatform` that are never released, and
/// `MAX_ENCLAVES` in `crates/tee/src/platform.rs` is 64, so the 32nd
/// full deploy would panic for want of EPC space.
pub const MAX_FULL_DEPLOYS_PER_NODE: usize = 28;

/// Tenants registered per churn epoch (8 slots, so some always wait).
const CHURN_TENANTS: usize = 12;
/// Lanes per serving node: `SalusNode::quick(2, 2)` has four slots.
const LANES: usize = 4;
/// The serving plane's batch size, which the replay copies.
const BATCH: usize = 8;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Control plane: deploy, evict and redeploy tenants at random.
    DeployChurn,
    /// Data plane, 4 KiB requests: fixed per-request costs dominate.
    ServeSmall,
    /// Data plane, 256 KiB requests: bulk CTR, DMA and compute dominate.
    ServeBulk,
    /// `ServeBulk` with Merkle integrity on both buffers.
    ServeBulkVerified,
}

impl Kind {
    /// Every workload, in run order.
    pub const ALL: [Kind; 4] = [
        Kind::DeployChurn,
        Kind::ServeSmall,
        Kind::ServeBulk,
        Kind::ServeBulkVerified,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DeployChurn => "deploy-churn",
            Kind::ServeSmall => "serve-small",
            Kind::ServeBulk => "serve-bulk",
            Kind::ServeBulkVerified => "serve-bulk-verified",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn protection(self) -> MemoryProtection {
        match self {
            Kind::ServeBulkVerified => MemoryProtection::ConfidentialityAndIntegrity,
            _ => MemoryProtection::Confidentiality,
        }
    }

    /// The accelerator of tenant or lane `index`.
    fn workload(self, index: usize) -> Box<dyn Workload> {
        match self {
            Kind::DeployChurn | Kind::ServeSmall if index.is_multiple_of(2) => {
                Box::new(Conv::paper_scale())
            }
            Kind::DeployChurn | Kind::ServeSmall => Box::new(Affine::paper_scale()),
            Kind::ServeBulk | Kind::ServeBulkVerified => {
                Box::new(Affine::new(512, AffineMatrix::demo()))
            }
        }
    }
}

/// How much work each unit of a workload does.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub kind: Kind,
    /// Churn: operations per epoch at most; at full size the
    /// full-deploy cap ends an epoch first.
    pub ops_per_epoch: usize,
    /// Serving: clients per lane, each sending one request per round.
    pub clients_per_lane: usize,
    /// Serving: measured rounds per node, after one warm-up round.
    pub rounds_per_node: usize,
    /// Serving, traced: requests per lane replayed through the public
    /// stages after the measured rounds.
    pub replay_requests: usize,
    /// Units (epochs or nodes) at most; the time budget usually ends a
    /// run first.
    pub max_units: usize,
}

impl Spec {
    /// The benchmark's workload sizes.
    pub fn full(kind: Kind) -> Spec {
        let clients_per_lane = match kind {
            Kind::DeployChurn => 0,
            Kind::ServeSmall => 1024,
            Kind::ServeBulk => 32,
            Kind::ServeBulkVerified => 16,
        };
        Spec {
            kind,
            ops_per_epoch: usize::MAX,
            clients_per_lane,
            rounds_per_node: 7,
            replay_requests: 64,
            max_units: usize::MAX,
        }
    }

    /// The same code path at test size: one epoch of six operations, or
    /// one node with a warm-up and one measured round of a few clients.
    pub fn shrunk(kind: Kind) -> Spec {
        Spec {
            kind,
            ops_per_epoch: 6,
            clients_per_lane: if kind == Kind::ServeSmall { 8 } else { 2 },
            rounds_per_node: 1,
            replay_requests: BATCH,
            max_units: 1,
        }
    }
}

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (churn operations or served requests, plus
    /// the deploys of serving set-up).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The first failure, for the error message.
    pub first_failure: Option<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<Span>,
}

/// Runs `spec` for about `seconds` of measured time. Untraced, it
/// reports the end-to-end metrics. Traced, it records every other
/// serving round or churn operation and reports the per-layer metrics;
/// the recorded and unrecorded halves, interleaved under the same host
/// conditions, give the tracing overhead.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let tracer = if trace {
        Tracer::on()
    } else {
        Tracer::default()
    };
    let run = Run::execute(spec, seed, seconds, tracer);
    let metrics = if trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        first_failure: run.first_failure,
        metrics,
        spans: run.tracer.spans(),
    }
}

/// A churn tenant's lifecycle state.
enum TenantState {
    Idle,
    Running(Box<SecureSession>),
    Parked,
}

/// One churn tenant: what it deploys and where it stands.
struct ChurnTenant {
    id: TenantId,
    plain: Box<dyn Workload>,
    deployed: Box<dyn Workload>,
    state: TenantState,
}

/// One measured interval: a churn epoch or a serving round.
struct Interval {
    /// Host time of its measured operations.
    took: Duration,
    ops: u64,
    /// Whether the interval was recorded (a traced serving round).
    recorded: bool,
}

/// One serving lane: what was deployed on it and how many requests it
/// has executed.
struct ServeLane {
    id: LaneId,
    plain: Box<dyn Workload>,
    requests: u64,
}

/// The accumulating state of one run.
struct Run<'a> {
    spec: &'a Spec,
    seed: u64,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// Host time spent in correctness checks, subtracted from set-up.
    check_time: Duration,
    /// Host set-up time of each unit, seconds.
    setups: Vec<f64>,
    units: usize,
    /// Host time of the measured operations.
    measured: Duration,
    /// Every churn epoch or measured serving round.
    intervals: Vec<Interval>,
    /// End-to-end latency samples — a full deploy on `deploy-churn`, a
    /// request on `serve-*` — unrecorded and recorded, ms.
    latency_ms: Vec<f64>,
    recorded_latency_ms: Vec<f64>,
    /// Host time of the measured operations that were recorded.
    recorded_time: Duration,
    /// Per-layer samples by metric-name stem (host ms, model ms, ...).
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    cold_boots: Vec<BootBreakdown>,
    warm_image_boots: Vec<BootBreakdown>,
    measured_spans: Vec<Range<usize>>,
    replay_spans: Vec<Range<usize>>,
}

impl<'a> Run<'a> {
    fn execute(spec: &'a Spec, seed: u64, seconds: f64, tracer: Tracer) -> Run<'a> {
        let budget = Duration::from_secs_f64(seconds.max(0.0));
        let mut run = Run {
            spec,
            seed,
            tracer,
            attempted: 0,
            failed: 0,
            first_failure: None,
            check_time: Duration::ZERO,
            setups: Vec::new(),
            units: 0,
            measured: Duration::ZERO,
            intervals: Vec::new(),
            latency_ms: Vec::new(),
            recorded_latency_ms: Vec::new(),
            recorded_time: Duration::ZERO,
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
            cold_boots: Vec::new(),
            warm_image_boots: Vec::new(),
            measured_spans: Vec::new(),
            replay_spans: Vec::new(),
        };
        for unit in 0..spec.max_units {
            if unit > 0 && run.measured >= budget {
                break;
            }
            match spec.kind {
                Kind::DeployChurn => run.churn_epoch(unit),
                _ => run.serve_node(unit, budget),
            }
            run.units += 1;
        }
        run
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    fn sample(&mut self, stem: &'static str, value: f64) {
        self.samples.entry(stem).or_default().push(value);
    }

    fn count(&mut self, stem: &'static str, by: f64) {
        *self.counts.entry(stem).or_default() += by;
    }

    /// Counts during the first unit only: every run at a seed repeats
    /// that unit exactly, however many units its budget fits.
    fn count_first_unit(&mut self, stem: &'static str, by: f64) {
        if self.units == 0 {
            self.count(stem, by);
        }
    }

    /// What gets deployed: the plain workload, or the same workload with
    /// its compute inside a span when tracing.
    fn deployed(&self, plain: &dyn Workload) -> Box<dyn Workload> {
        if self.tracer.enabled() {
            Box::new(Traced::new(plain, &self.tracer))
        } else {
            plain.clone_box()
        }
    }

    /// Records a finished deploy or redeploy: its path and model-time
    /// breakdown.
    fn record_boot(&mut self, session: &SecureSession) -> DeployPath {
        let path = session.tenancy().map_or(DeployPath::Cold, |t| t.path);
        match path {
            DeployPath::Cold => {
                self.count_first_unit("node.path.cold", 1.0);
                self.cold_boots.push(session.last_breakdown().clone());
            }
            DeployPath::WarmKey => self.count_first_unit("node.path.warm_key", 1.0),
            DeployPath::WarmImage => {
                self.count_first_unit("node.path.warm_image", 1.0);
                self.warm_image_boots.push(session.last_breakdown().clone());
            }
        }
        path
    }

    /// Records the host time of a cold or warm-key deploy; on
    /// `deploy-churn` it is also the end-to-end latency sample.
    fn record_full_deploy(&mut self, path: DeployPath, took: Duration) {
        let stem = match path {
            DeployPath::Cold => "node.deploy.cold.host_ms_p50",
            _ => "node.deploy.warm_key.host_ms_p50",
        };
        self.sample(stem, ms(took));
        if self.spec.kind == Kind::DeployChurn {
            self.latency(ms(took));
        }
    }

    /// Files an end-to-end latency sample by whether it was recorded.
    fn latency(&mut self, sample_ms: f64) {
        if self.tracer.recording() {
            self.recorded_latency_ms.push(sample_ms);
        } else {
            self.latency_ms.push(sample_ms);
        }
    }

    /// The correctness check after every deploy or redeploy: one attested
    /// `SecureSession::run` on a seeded payload, compared with
    /// `Workload::compute`.
    fn check_session(&mut self, session: &mut SecureSession, plain: &dyn Workload, at: &[u64]) {
        let started = Instant::now();
        let input = payload(self.seed, at, plain.input().len());
        let expected = plain.compute(&input);
        match session.run(&WithInput::new(plain, input)) {
            Ok(output) if output == expected => {}
            Ok(_) => self.fail(format!("attested run at {at:?} returned a wrong result")),
            Err(e) => self.fail(format!("attested run at {at:?} failed: {e}")),
        }
        self.check_time += started.elapsed();
    }

    /// Control-plane journal and audit lengths.
    fn log_lengths(node: &SalusNode) -> (usize, usize) {
        (node.journal_log().len(), node.plane().audit_log().len())
    }

    fn record_logs(&mut self, node: &SalusNode, before: (usize, usize), plane_ops: usize) {
        let (journal, audit) = Self::log_lengths(node);
        self.count_first_unit("platform.journal.records", (journal - before.0) as f64);
        self.count_first_unit("platform.audit.records", (audit - before.1) as f64);
        self.count_first_unit("platform.ops", plane_ops as f64);
    }

    // ───────────────────────────── deploy-churn ─────────────────────────────

    /// One epoch: a fresh paper node with twelve tenants. Set-up fills
    /// every slot; the measured churn then runs to the full-deploy cap.
    /// Each epoch draws its own seeded choices, so a run averages over
    /// several sequences.
    fn churn_epoch(&mut self, epoch: usize) {
        let started = Instant::now();
        let checks_before = self.check_time;
        let node = SalusNode::paper(4, 2).expect("paper node provisions");
        self.tracer.set_clock(&node.plane().shared().clock);
        let mut tenants: Vec<ChurnTenant> = (0..CHURN_TENANTS)
            .map(|i| {
                let plain = self.spec.kind.workload(i);
                ChurnTenant {
                    id: node.register_tenant(&format!("tenant{i}")),
                    deployed: self.deployed(&*plain),
                    plain,
                    state: TenantState::Idle,
                }
            })
            .collect();
        let logs = Self::log_lengths(&node);
        let mut rng = Rng::stream(self.seed, &[epoch as u64]);
        let (mut full, mut ops) = (0, 0);
        for _ in 0..node.free_slots() {
            let idle: Vec<usize> = (0..CHURN_TENANTS)
                .filter(|&i| matches!(tenants[i].state, TenantState::Idle))
                .collect();
            let tenant = &mut tenants[idle[rng.below(idle.len())]];
            if let Some((_, full_deploy)) = self.churn_op(&node, tenant, [epoch, ops]) {
                full += usize::from(full_deploy);
                ops += 1;
            }
        }
        let setup = started
            .elapsed()
            .saturating_sub(self.check_time - checks_before);
        self.setups.push(setup.as_secs_f64());
        if self.tracer.enabled() {
            self.probe(&*tenants[0].plain);
        }

        let spans_from = self.tracer.recorded();
        let (mut churned, mut took) = (0, Duration::ZERO);
        while full < MAX_FULL_DEPLOYS_PER_NODE && churned < self.spec.ops_per_epoch {
            let tenant = &mut tenants[rng.below(CHURN_TENANTS)];
            self.tracer.set_recording(churned % 2 == 0);
            // A waiting tenant with no free slot is not an operation.
            if let Some((op_took, full_deploy)) = self.churn_op(&node, tenant, [epoch, ops]) {
                if self.tracer.recording() {
                    self.recorded_time += op_took;
                }
                full += usize::from(full_deploy);
                took += op_took;
                churned += 1;
                ops += 1;
            }
        }
        self.tracer.set_recording(true);
        self.measured += took;
        self.intervals.push(Interval {
            took,
            ops: churned as u64,
            recorded: false,
        });
        self.measured_spans.push(spans_from..self.tracer.recorded());
        self.record_logs(&node, logs, ops);
    }

    /// Performs the operation `tenant`'s state calls for — evict a
    /// running tenant, redeploy a parked one, deploy an idle one — and
    /// checks every resulting session. Returns the operation's host time
    /// and whether it was a full deploy, or `None` when the tenant must
    /// wait for a free slot.
    fn churn_op(
        &mut self,
        node: &SalusNode,
        tenant: &mut ChurnTenant,
        [epoch, op]: [usize; 2],
    ) -> Option<(Duration, bool)> {
        let free = node.free_slots() > 0;
        self.tracer.set_op(((epoch as u64) << 32) | op as u64);
        let (session, took, full_deploy) =
            match std::mem::replace(&mut tenant.state, TenantState::Idle) {
                TenantState::Running(session) => {
                    let (evicted, took) =
                        self.tracer.timed("node", "evict", || node.evict(*session));
                    self.sample("node.evict.host_ms_p50", ms(took));
                    match evicted {
                        Ok(_) => tenant.state = TenantState::Parked,
                        Err(e) => self.fail(format!("evict failed: {e}")),
                    }
                    (None, took, false)
                }
                TenantState::Parked if free => {
                    let (redeployed, took) = self.tracer.timed("node", "redeploy", || {
                        node.redeploy(tenant.id, &*tenant.deployed)
                    });
                    self.count_first_unit("node.redeploy.attempts", 1.0);
                    match redeployed {
                        Ok(session) => {
                            let path = self.record_boot(&session);
                            if path == DeployPath::WarmImage {
                                self.sample("node.redeploy.warm_image.host_ms_p50", ms(took));
                            } else {
                                // The parked slot was taken: the node fell back
                                // to a full deploy, which is what the tenant
                                // waited for.
                                self.count_first_unit("node.redeploy.fallbacks", 1.0);
                                self.record_full_deploy(path, took);
                            }
                            (Some(session), took, path != DeployPath::WarmImage)
                        }
                        Err(e) => {
                            tenant.state = TenantState::Parked;
                            self.fail(format!("redeploy failed: {e}"));
                            (None, took, false)
                        }
                    }
                }
                TenantState::Idle if free => {
                    let (deployed, took) = self.tracer.timed("node", "deploy", || {
                        node.deploy(tenant.id, &*tenant.deployed)
                    });
                    match deployed {
                        Ok(session) => {
                            let path = self.record_boot(&session);
                            self.record_full_deploy(path, took);
                            (Some(session), took, true)
                        }
                        Err(e) => {
                            self.fail(format!("deploy failed: {e}"));
                            (None, took, true)
                        }
                    }
                }
                waiting => {
                    tenant.state = waiting;
                    return None;
                }
            };
        self.attempted += 1;
        if let Some(mut session) = session {
            self.check_session(&mut session, &*tenant.plain, &[epoch as u64, op as u64]);
            tenant.state = TenantState::Running(Box::new(session));
        }
        Some((took, full_deploy))
    }

    // ─────────────────────────────── serve-* ────────────────────────────────

    /// One serving node: four lanes deployed and warmed up (set-up),
    /// then measured rounds until the node's round count or the budget
    /// runs out, then — traced — a replay of each lane through the
    /// public stages.
    fn serve_node(&mut self, node_index: usize, budget: Duration) {
        let started = Instant::now();
        let checks_before = self.check_time;
        let node = SalusNode::quick(2, 2).expect("quick node provisions");
        let clock = node.plane().shared().clock.clone();
        self.tracer.set_clock(&clock);
        let logs = Self::log_lengths(&node);
        let mut plane = ServingPlane::new(ServingConfig::pipelined(BATCH).with_capacity(1024));
        let mut lanes = Vec::with_capacity(LANES);
        for index in 0..LANES {
            let tenant = node.register_tenant(&format!("lane{index}"));
            let plain = self.spec.kind.workload(index);
            let deployed = self.deployed(&*plain);
            let protection = self.spec.kind.protection();
            self.attempted += 1;
            let (session, took) = self.tracer.timed("node", "deploy", || {
                node.deploy_protected(tenant, &*deployed, protection)
            });
            let mut session = match session {
                Ok(session) => session,
                Err(e) => return self.fail(format!("lane deploy failed: {e}")),
            };
            let path = self.record_boot(&session);
            self.record_full_deploy(path, took);
            self.check_session(&mut session, &*plain, &[node_index as u64, index as u64]);
            lanes.push(ServeLane {
                id: plane.attach(session, &*deployed),
                plain,
                requests: 1,
            });
        }
        self.record_logs(&node, logs, LANES);
        self.serve_round(&mut plane, &clock, &mut lanes, node_index, 0);
        let setup = started
            .elapsed()
            .saturating_sub(self.check_time - checks_before);
        self.setups.push(setup.as_secs_f64());
        if self.tracer.enabled() {
            self.probe(&*lanes[0].plain);
        }

        for round in 1..=self.spec.rounds_per_node {
            assert!(
                round < MAX_DRAINS_PER_NODE,
                "round {round} would overrun the drain cap"
            );
            if self.measured >= budget {
                break;
            }
            self.tracer.set_recording(round % 2 == 1);
            let spans_from = self.tracer.recorded();
            let took = self.serve_round(&mut plane, &clock, &mut lanes, node_index, round);
            self.measured += took;
            self.measured_spans.push(spans_from..self.tracer.recorded());
        }
        self.tracer.set_recording(true);
        if self.tracer.enabled() {
            self.replay(&mut plane, &lanes, node_index);
        }
    }

    /// One closed-loop round: every client submits one request, the
    /// plane drains, every client takes its response. Round 0 is the
    /// unmeasured warm-up. Returns the host time of the round.
    fn serve_round(
        &mut self,
        plane: &mut ServingPlane,
        clock: &SimClock,
        lanes: &mut [ServeLane],
        node: usize,
        round: usize,
    ) -> Duration {
        let mut requests = Vec::with_capacity(self.spec.clients_per_lane * lanes.len());
        for client in 0..self.spec.clients_per_lane {
            for (index, lane) in lanes.iter().enumerate() {
                let coordinates = [node as u64, round as u64, index as u64, client as u64];
                let bytes = payload(self.seed, &coordinates, lane.plain.input().len());
                requests.push((index, client as u64, bytes));
            }
        }
        let to_send: Vec<Vec<u8>> = requests.iter().map(|r| r.2.clone()).collect();
        self.tracer.set_op(((node as u64) << 32) | round as u64);
        self.attempted += requests.len() as u64;

        let arrival = clock.now();
        let started = Instant::now();
        let mut handles = Vec::with_capacity(requests.len());
        for (&(index, client, _), bytes) in requests.iter().zip(to_send) {
            let at = Instant::now();
            let submitted = self.tracer.span("serving", "submit", || {
                plane.submit(lanes[index].id, ClientId(client), bytes)
            });
            handles.push((submitted, at));
        }
        let (report, drain_took) = self.tracer.timed("serving", "drain", || plane.drain());
        let mut outputs = Vec::with_capacity(handles.len());
        let mut waits = Vec::with_capacity(handles.len());
        for (submitted, at) in handles {
            outputs.push(submitted.map(|h| self.tracer.span("serving", "take", || plane.take(h))));
            waits.push(at.elapsed());
        }
        let took = started.elapsed();

        // Outside the timed region: the clock, the responses, the model.
        let advanced = clock.now();
        if advanced < arrival {
            self.fail(format!(
                "SimClock went backwards over drain {round}: {advanced:?} < {arrival:?}"
            ));
        }
        for ((index, client, bytes), output) in requests.iter().zip(outputs) {
            lanes[*index].requests += 1;
            match output {
                Ok(Ok(out)) if out == lanes[*index].plain.compute(bytes) => {}
                Ok(Ok(_)) => self.fail(format!("round {round} client {client} got a wrong result")),
                Ok(Err(e)) | Err(e) => self.fail(format!("round {round} client {client}: {e}")),
            }
        }
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                self.fail(format!("drain {round} failed: {e}"));
                return took;
            }
        };
        if round == 0 {
            return took;
        }
        // Requests of a round all arrive at `arrival`, so the round's
        // model span is its longest latency; throughput comes from that,
        // never from `makespan`, which counts from t=0.
        let span = report.latencies.iter().max().copied().unwrap_or_default();
        self.count("serving.requests", report.requests as f64);
        self.count("serving.model_span_s", span.as_secs_f64());
        self.count("serving.batches", report.batches as f64);
        self.count("serving.rounds", 1.0);
        if round == 1 {
            // Later drains overshoot more (the clock compounds), so only a
            // node's first measured drain gives a value every run repeats.
            let overshoot = advanced.saturating_sub(arrival).saturating_sub(span);
            self.sample("serving.clock_overshoot_ms", ms(overshoot));
        }
        self.sample("serving.drain.host_ms_p50", ms(drain_took));
        for latency in &report.latencies {
            self.sample("serve_model_latency_ms", ms(*latency));
        }
        let recorded = self.tracer.recording();
        if recorded {
            self.recorded_time += took;
            self.count("serving.recorded_requests", report.requests as f64);
        }
        for wait in waits {
            self.latency(ms(wait));
        }
        self.intervals.push(Interval {
            took,
            ops: report.requests as u64,
            recorded,
        });
        took
    }

    /// Detaches each lane and pushes `replay_requests` of its requests
    /// through the public stages in batches of the plane's size, the key
    /// programmed once per batch, each stage in its own span.
    fn replay(&mut self, plane: &mut ServingPlane, lanes: &[ServeLane], node: usize) {
        for (index, lane) in lanes.iter().enumerate() {
            let stats = self.tracer.span("serving", "lane_integrity_stats", || {
                plane.lane_integrity_stats(lane.id)
            });
            match stats {
                Ok(stats) => {
                    self.count("integrity.full_builds", stats.full_builds as f64);
                    self.count("integrity.incr_refreshes", stats.incr_refreshes as f64);
                    self.count("integrity.chunks_rehashed", stats.chunks_rehashed as f64);
                    self.count("integrity.requests", lane.requests as f64);
                }
                Err(e) => self.fail(format!("lane_integrity_stats failed: {e}")),
            }
            let mut session = match plane.detach(lane.id) {
                Ok(session) => session,
                Err(e) => return self.fail(format!("detach failed: {e}")),
            };
            let spans_from = self.tracer.recorded();
            if let Err(e) = self.replay_lane(&mut session, &*lane.plain, [node, index]) {
                self.fail(format!("replay failed: {e}"));
            }
            self.replay_spans.push(spans_from..self.tracer.recorded());
        }
    }

    fn replay_lane(
        &mut self,
        session: &mut SecureSession,
        plain: &dyn Workload,
        [node, lane]: [usize; 2],
    ) -> Result<(), salus::core::SalusError> {
        enum Plan {
            Plain(RunPlan),
            Verified(IntegrityPlan),
        }
        let verified = session.protection() == MemoryProtection::ConfidentialityAndIntegrity;
        let bed = session.bed_mut();
        let plan = if verified {
            Plan::Verified(IntegrityPlan::prepare(bed)?)
        } else {
            Plan::Plain(RunPlan::prepare(bed)?)
        };
        // The plane's staging layout: inputs in the first quarter of the
        // window, outputs from its midpoint.
        let (in_base, out_base) = (0, bed.dram_window.len / 2);
        let encrypt_output = plain.encrypt_output();
        let tracer = self.tracer.clone();
        for batch in 0..self.spec.replay_requests / BATCH {
            // Bit 31 sets replayed batches apart from served rounds.
            tracer.set_op(((node as u64) << 32) | 1 << 31 | (lane << 16 | batch) as u64);
            let payloads: Vec<Vec<u8>> = (0..BATCH)
                .map(|i| {
                    let at = [
                        node as u64,
                        u64::MAX,
                        lane as u64,
                        (batch * BATCH + i) as u64,
                    ];
                    payload(self.seed, &at, plain.input().len())
                })
                .collect();
            let mut packed = Vec::new();
            let mut requests = Vec::with_capacity(BATCH);
            for bytes in &payloads {
                let offset = packed.len();
                let root = tracer.span("stage", "encrypt_input", || match &plan {
                    Plan::Plain(p) => {
                        packed.extend_from_slice(&p.encrypt_input(bytes));
                        [0; 32]
                    }
                    Plan::Verified(p) => {
                        let (ciphertext, root) = p.encrypt_input(bytes);
                        packed.extend_from_slice(&ciphertext);
                        root
                    }
                });
                requests.push((offset, root));
            }
            tracer.span("stage", "dma_in", || {
                harness::stage_dma_in(bed, in_base, &packed)
            })?;
            tracer.span("stage", "program_key", || match &plan {
                Plan::Plain(p) => harness::stage_program_key(bed, p),
                Plan::Verified(p) => integrity::stage_program_key_verified(bed, p),
            })?;
            let mut placed = Vec::with_capacity(BATCH);
            let mut cursor = 0;
            for (bytes, (offset, in_root)) in payloads.iter().zip(&requests) {
                let req = ExecRequest {
                    input_offset: in_base + offset,
                    input_len: bytes.len(),
                    output_offset: out_base + cursor,
                    encrypt_output,
                };
                let done = tracer.span("stage", "execute", || match &plan {
                    Plan::Plain(_) => harness::stage_execute(bed, &req).map(|o| match o {
                        ExecOutcome::Done { output_len } => Some((output_len, [0; 32])),
                        ExecOutcome::WindowFault { .. } => None,
                    }),
                    Plan::Verified(_) => {
                        integrity::stage_execute_verified(bed, &req, in_root).map(|o| match o {
                            VerifiedOutcome::Done {
                                output_len,
                                out_root,
                            } => Some((output_len, out_root)),
                            _ => None,
                        })
                    }
                })?;
                let Some((len, out_root)) = done else {
                    return Err(salus::core::SalusError::Malformed(
                        "replayed request refused",
                    ));
                };
                placed.push((cursor, len, out_root));
                cursor += len;
            }
            let packed_out = tracer.span("stage", "dma_out", || {
                harness::stage_dma_out(bed, out_base, cursor)
            })?;
            for (bytes, &(offset, len, out_root)) in payloads.iter().zip(&placed) {
                let mut output = packed_out[offset..offset + len].to_vec();
                match &plan {
                    Plan::Plain(p) if encrypt_output => {
                        tracer.span("stage", "decrypt_output", || p.decrypt_output(&mut output));
                    }
                    Plan::Plain(_) => {}
                    Plan::Verified(p) => tracer.span("stage", "verify_output", || {
                        p.verify_output(&mut output, &out_root, encrypt_output)
                    })?,
                }
                if output != plain.compute(bytes) {
                    self.fail(format!(
                        "replayed request on lane {lane} got a wrong result"
                    ));
                }
            }
            self.count("stage.replayed_requests", BATCH as f64);
            let len = plain.input().len() as u64;
            tracer.span("regchan", "write", || {
                bed.secure_reg_write(harness::regs::INPUT_LEN, len)
            })?;
            tracer.span("regchan", "read", || {
                bed.secure_reg_read(harness::regs::STATUS)
            })?;
        }
        Ok(())
    }

    // ──────────────────────────────── probes ────────────────────────────────

    /// One pass, per unit, of the bitstream tool chain on the workload's
    /// CL package and of the crypto kernels at the workload's sizes.
    fn probe(&mut self, workload: &dyn Workload) {
        let tracer = self.tracer.clone();
        let geometry = node_geometry(2).partitions[0];
        let (package, took) = tracer.timed("bitstream", "develop_cl", || {
            develop_cl(workload.accelerator_module(), geometry, 0)
        });
        let Ok(package) = package else {
            return self.fail("develop_cl failed".to_owned());
        };
        self.sample("bitstream.develop_cl.host_ms", ms(took));
        let (_, took) = tracer.timed("bitstream", "compiled_digest", || {
            compiled_digest(&package.compiled)
        });
        let wire = package.compiled.wire;
        self.sample("bitstream.compiled_digest.host_ms", ms(took));
        let (_, took) = tracer.timed("bitstream", "encrypt_for_device", || {
            encrypt_for_device(&wire, &[7; 32], &[1; 12], 42)
        });
        self.sample("bitstream.encrypt_for_device.host_ms", ms(took));
        self.sample("bitstream.wire_bytes", wire.len() as f64);

        let key = [0x5a; 32];
        let mut small = payload(self.seed, &[u64::MAX], 4 << 10);
        let mut bulk = payload(self.seed, &[u64::MAX - 1], 256 << 10);
        let rate = |name, bytes: usize, f: &mut dyn FnMut()| {
            let (per_call, _) = tracer.timed("crypto", name, || per_call_seconds(f));
            bytes as f64 / per_call / (1 << 20) as f64
        };
        let ctr_small = rate("ctr", small.len(), &mut || {
            AesCtr256::new(&key, &[1; 16]).apply_keystream_parallel(&mut small)
        });
        let bulk_len = bulk.len();
        let ctr_bulk = rate("ctr", bulk_len, &mut || {
            AesCtr256::new(&key, &[1; 16]).apply_keystream_parallel(&mut bulk)
        });
        let root = rate("buffer_root", bulk_len, &mut || {
            std::hint::black_box(integrity::buffer_root(&key, &bulk));
        });
        let gcm = AesGcm256::new(&key);
        let seal = rate("gcm_seal", wire.len(), &mut || {
            std::hint::black_box(gcm.seal(&[1; 12], b"", &wire));
        });
        let sha = rate("sha256", wire.len(), &mut || {
            std::hint::black_box(Sha256::digest(&wire));
        });
        self.sample("crypto.ctr_4k.mib_s", ctr_small);
        self.sample("crypto.ctr_256k.mib_s", ctr_bulk);
        self.sample("crypto.buffer_root.mib_s", root);
        self.sample("crypto.gcm_seal.mib_s", seal);
        self.sample("crypto.sha256.mib_s", sha);
    }

    // ─────────────────────────────── reports ────────────────────────────────

    /// Measured operations per host second, over unrecorded intervals.
    fn throughput(&self) -> f64 {
        let plain = self.intervals.iter().filter(|i| !i.recorded);
        let (ops, took) = plain.fold((0, Duration::ZERO), |(ops, took), i| {
            (ops + i.ops, took + i.took)
        });
        if took.is_zero() {
            0.0
        } else {
            ops as f64 / took.as_secs_f64()
        }
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let latencies = &self.latency_ms;
        let values = [
            ("setup_s", median(&self.setups), self.setups.len()),
            ("throughput_per_s", self.throughput(), self.intervals.len()),
            ("latency_host_ms_p50", median(latencies), latencies.len()),
            ("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), 1),
        ];
        catalogue(
            metrics::end_to_end(),
            values.map(|(k, v, n)| (k.to_owned(), (v, n))).into(),
        )
    }

    /// Per-layer metrics of a traced run.
    fn per_layer(&self) -> Vec<Metric> {
        let spans = self.tracer.spans();
        let own = trace::self_times(&spans);
        let recorded_ns = self.recorded_time.as_nanos() as f64;
        let requests = self.counts.get("serving.requests").copied().unwrap_or(0.0);
        let recorded_requests = self
            .counts
            .get("serving.recorded_requests")
            .copied()
            .unwrap_or(0.0);

        // Host times per call, from the spans of the measured region or
        // the replay.
        let calls = |ranges: &[Range<usize>], layer: &str, name: &str, self_time: bool| {
            ranges
                .iter()
                .flat_map(|r| r.clone())
                .filter(|&i| spans[i].layer == layer && spans[i].name == name)
                .map(|i| (if self_time { own[i] } else { spans[i].host_ns }) as f64)
                .collect::<Vec<f64>>()
        };
        let self_total = |ranges: &[Range<usize>], layer: &str| -> f64 {
            ranges
                .iter()
                .flat_map(|r| r.clone())
                .filter(|&i| spans[i].layer == layer)
                .map(|i| own[i] as f64)
                .fold(0.0, |total, ns| total + ns)
        };
        let measured = &self.measured_spans;
        let replay = &self.replay_spans;

        let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        let mut put = |name: &str, value: f64, n: usize| {
            out.insert(name.to_owned(), (value, n));
        };
        // Medians of the samples filed under each metric's name.
        for name in [
            "node.deploy.cold.host_ms_p50",
            "node.deploy.warm_key.host_ms_p50",
            "node.redeploy.warm_image.host_ms_p50",
            "node.evict.host_ms_p50",
            "serving.drain.host_ms_p50",
            "serving.clock_overshoot_ms",
            "bitstream.develop_cl.host_ms",
            "bitstream.compiled_digest.host_ms",
            "bitstream.encrypt_for_device.host_ms",
            "bitstream.wire_bytes",
            "crypto.ctr_4k.mib_s",
            "crypto.ctr_256k.mib_s",
            "crypto.buffer_root.mib_s",
            "crypto.gcm_seal.mib_s",
            "crypto.sha256.mib_s",
        ] {
            let values = self.samples.get(name).map_or(&[][..], Vec::as_slice);
            put(name, median(values), values.len());
        }
        let model_latencies = self
            .samples
            .get("serve_model_latency_ms")
            .map_or(&[][..], Vec::as_slice);
        for (name, p) in [
            ("serve_model_latency_ms_p50", 50.0),
            ("serve_model_latency_ms_p99", 99.0),
        ] {
            put(name, percentile(model_latencies, p), model_latencies.len());
        }

        let count = |stem: &str| self.counts.get(stem).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        for stem in [
            "node.path.cold",
            "node.path.warm_key",
            "node.path.warm_image",
            "node.redeploy.fallbacks",
        ] {
            put(stem, count(stem), 1);
        }
        let attempts = count("node.redeploy.attempts");
        put(
            "node.warm_image.hit_ratio",
            ratio(attempts - count("node.redeploy.fallbacks"), attempts),
            attempts as usize,
        );
        let cold: Vec<f64> = self
            .cold_boots
            .iter()
            .map(|b| b.total().as_secs_f64())
            .collect();
        put("deploy_cold_model_s", median(&cold), cold.len());
        let warm: Vec<f64> = self
            .warm_image_boots
            .iter()
            .map(|b| ms(b.total()))
            .collect();
        put("redeploy_warm_image_model_ms", median(&warm), warm.len());
        for (path, boots) in [
            ("cold", &self.cold_boots),
            ("warm_image", &self.warm_image_boots),
        ] {
            for (phase, label) in BOOT_PHASES {
                let values: Vec<f64> = boots.iter().map(|b| ms(b.phase(phase))).collect();
                put(
                    &format!("boot.{path}.{label}.model_ms"),
                    median(&values),
                    values.len(),
                );
            }
        }
        let plane_ops = count("platform.ops");
        put(
            "platform.journal.records_per_op",
            ratio(count("platform.journal.records"), plane_ops),
            plane_ops as usize,
        );
        put(
            "platform.audit.records_per_op",
            ratio(count("platform.audit.records"), plane_ops),
            plane_ops as usize,
        );

        for (name, layer, call, unit_ns, self_time) in [
            (
                "serving.submit.host_us_p50",
                "serving",
                "submit",
                1e3,
                false,
            ),
            ("serving.take.host_us_p50", "serving", "take", 1e3, false),
            ("accel.compute.host_us_p50", "accel", "compute", 1e3, false),
        ] {
            let values = calls(measured, layer, call, self_time);
            put(name, median(&values) / unit_ns, values.len());
        }
        put(
            "serving.self.host_share",
            ratio(self_total(measured, "serving"), recorded_ns),
            recorded_requests as usize,
        );
        put(
            "serving.batch_size.mean",
            ratio(requests, count("serving.batches")),
            count("serving.batches") as usize,
        );
        put(
            "serving.batches_per_round",
            ratio(count("serving.batches"), count("serving.rounds")),
            count("serving.rounds") as usize,
        );
        put(
            "serve_model_rps",
            ratio(requests, count("serving.model_span_s")),
            requests as usize,
        );
        let computes = calls(measured, "accel", "compute", false);
        put(
            "accel.compute.calls_per_request",
            ratio(computes.len() as f64, recorded_requests),
            recorded_requests as usize,
        );
        put(
            "accel.compute.host_share",
            ratio(
                computes.iter().fold(0.0, |total, ns| total + ns),
                recorded_ns,
            ),
            computes.len(),
        );

        let replayed = count("stage.replayed_requests");
        for stage in [
            "encrypt_input",
            "dma_in",
            "program_key",
            "execute",
            "dma_out",
            "decrypt_output",
            "verify_output",
        ] {
            let values = calls(replay, "stage", stage, true);
            put(
                &format!("stage.{stage}.host_us_p50"),
                median(&values) / 1e3,
                values.len(),
            );
        }
        // Replayed host time per request (stage self times plus the
        // accelerator work inside `execute`) against the host time per
        // request of the unrecorded rounds.
        let replay_ns = self_total(replay, "stage") + self_total(replay, "accel");
        put(
            "stage.replay_coverage",
            ratio(replay_ns / 1e9, replayed) * self.throughput(),
            replayed as usize,
        );
        for (name, call) in [
            ("regchan.write.host_us_p50", "write"),
            ("regchan.read.host_us_p50", "read"),
        ] {
            let values = calls(replay, "regchan", call, true);
            put(name, median(&values) / 1e3, values.len());
        }

        let integrity_requests = count("integrity.requests");
        let full = count("integrity.full_builds");
        let incr = count("integrity.incr_refreshes");
        for (name, value) in [
            ("integrity.full_builds_per_request", full),
            ("integrity.incr_refreshes_per_request", incr),
            (
                "integrity.chunks_rehashed_per_request",
                count("integrity.chunks_rehashed"),
            ),
        ] {
            put(
                name,
                ratio(value, integrity_requests),
                integrity_requests as usize,
            );
        }
        put(
            "integrity.incremental_ratio",
            ratio(incr, full + incr),
            (full + incr) as usize,
        );
        // The unrecorded tail: the tail rule's percentile, or the maximum
        // when fewer than 100 samples leave no percentile ten beyond.
        let latencies = &self.latency_ms;
        let tail = Summary::of(latencies).map_or(0.0, |s| {
            s.tail
                .map_or_else(|| percentile(latencies, 100.0), |(_, v)| v)
        });
        put("latency_host_ms_tail", tail, latencies.len());
        let (plain, recorded) = (median(latencies), median(&self.recorded_latency_ms));
        put(
            "trace.overhead_pct",
            if plain > 0.0 && recorded > 0.0 {
                (recorded / plain - 1.0) * 100.0
            } else {
                0.0
            },
            self.recorded_latency_ms.len(),
        );
        catalogue(metrics::per_layer(), out)
    }
}

/// Orders measured values by the catalogue, which fixes each unit; a
/// catalogue entry without a value is a bug in this file.
fn catalogue(
    defs: Vec<metrics::MetricDef>,
    mut values: BTreeMap<String, (f64, usize)>,
) -> Vec<Metric> {
    let metrics = defs
        .into_iter()
        .map(|def| {
            let (value, n) = values
                .remove(&def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            Metric {
                name: def.name,
                value,
                unit: def.unit,
                n,
            }
        })
        .collect();
    assert!(
        values.is_empty(),
        "uncatalogued metrics: {:?}",
        values.keys()
    );
    metrics
}

/// Median seconds per call of `f`, over at least 5 calls and 20 ms.
fn per_call_seconds(f: &mut dyn FnMut()) -> f64 {
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < 5 || started.elapsed() < Duration::from_millis(20) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
