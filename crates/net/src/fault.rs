//! Deterministic fault-injection plane for the simulated fabric.
//!
//! Where [`crate::adversary`] models an *attacker* (snoop, tamper,
//! replay), this module models the *fabric misbehaving on its own*:
//! drops, duplicates, reorders, latency spikes, and per-endpoint
//! outages. The distinction matters for the recovery story — transport
//! faults are retried, integrity violations fail closed — and the two
//! planes compose: a channel may carry both an adversary and fault
//! injection at once.
//!
//! Every decision is drawn from a seeded [`SplitMix64`] stream in
//! message order, and outages are windows in *virtual* time on the
//! shared [`crate::clock::SimClock`], so a given `(seed, schedule)`
//! pair reproduces the exact same fault sequence on every run.
//!
//! ```
//! use salus_net::fault::{FaultPlane, FaultSpec};
//!
//! let plane = FaultPlane::new(7, FaultSpec::default().with_drop_per_mille(500));
//! let again = FaultPlane::new(7, FaultSpec::default().with_drop_per_mille(500));
//! for _ in 0..32 {
//!     assert_eq!(plane.decide("a", "b", 0), again.decide("a", "b", 0));
//! }
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// A tiny deterministic PRNG (SplitMix64). `salus-net` deliberately does
/// not depend on `salus-crypto`; fault scheduling needs reproducibility,
/// not cryptographic strength.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudorandom bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Derives an independent deterministic sub-stream from `(seed,
    /// salt)`: the salt is folded in and scrambled through one output
    /// round, so streams for adjacent salts share no draw prefix.
    /// Components that need their own reproducible randomness (health
    /// cool-downs, per-epoch re-attestation tokens) derive here instead
    /// of sharing one stream's draw order.
    pub fn derive(seed: u64, salt: u64) -> SplitMix64 {
        let mut base = SplitMix64::new(seed ^ salt.rotate_left(32));
        let mixed = base.next_u64();
        SplitMix64::new(mixed)
    }
}

/// A scheduled outage of one endpoint: every message to or from
/// `endpoint` whose send time falls inside `[start, start + duration)`
/// (virtual time) is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outage {
    /// The affected endpoint name.
    pub endpoint: String,
    /// Virtual start time of the outage.
    pub start: Duration,
    /// How long the outage lasts.
    pub duration: Duration,
}

impl Outage {
    /// True when `now` falls inside the outage window.
    pub fn covers(&self, now: Duration) -> bool {
        now >= self.start && now < self.start.saturating_add(self.duration)
    }
}

/// The stochastic part of a fault schedule. Rates are per-mille
/// (0..=1000) per message; they are evaluated in order drop → duplicate
/// → reorder → delay, at most one firing per message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Probability (‰) that a message is silently lost.
    pub drop_per_mille: u32,
    /// Probability (‰) that a message is delivered twice.
    pub duplicate_per_mille: u32,
    /// Probability (‰) that a message is held back and delivered stale
    /// in place of the channel's next message.
    pub reorder_per_mille: u32,
    /// Probability (‰) of a latency spike.
    pub delay_per_mille: u32,
    /// Minimum extra latency of a spike.
    pub delay_min: Duration,
    /// Maximum extra latency of a spike.
    pub delay_max: Duration,
    /// Scheduled per-endpoint outages.
    pub outages: Vec<Outage>,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec {
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            reorder_per_mille: 0,
            delay_per_mille: 0,
            delay_min: Duration::from_millis(1),
            delay_max: Duration::from_millis(50),
            outages: Vec::new(),
        }
    }
}

impl FaultSpec {
    /// Sets the drop rate (builder-style).
    pub fn with_drop_per_mille(mut self, rate: u32) -> FaultSpec {
        self.drop_per_mille = rate;
        self
    }

    /// Sets the duplicate rate (builder-style).
    pub fn with_duplicate_per_mille(mut self, rate: u32) -> FaultSpec {
        self.duplicate_per_mille = rate;
        self
    }

    /// Sets the reorder rate (builder-style).
    pub fn with_reorder_per_mille(mut self, rate: u32) -> FaultSpec {
        self.reorder_per_mille = rate;
        self
    }

    /// Sets the latency-spike rate and range (builder-style).
    pub fn with_delay(mut self, rate: u32, min: Duration, max: Duration) -> FaultSpec {
        self.delay_per_mille = rate;
        self.delay_min = min;
        self.delay_max = max;
        self
    }

    /// Adds a scheduled outage (builder-style).
    pub fn with_outage(
        mut self,
        endpoint: impl Into<String>,
        start: Duration,
        duration: Duration,
    ) -> FaultSpec {
        self.outages.push(Outage {
            endpoint: endpoint.into(),
            start,
            duration,
        });
        self
    }
}

/// A reproducible recipe for a [`FaultPlane`]: a seed plus a
/// [`FaultSpec`]. Where a `FaultPlane` is a live, stateful decision
/// stream, a `FaultPlan` is the pure value that builds one — cloneable,
/// comparable, and safe to embed in a policy struct. Two planes built
/// from the same plan make identical decisions for identical message
/// sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the plane's decision stream.
    pub seed: u64,
    /// The stochastic schedule and outage windows.
    pub spec: FaultSpec,
}

impl FaultPlan {
    /// A plan building planes seeded with `seed` under `spec`.
    pub fn new(seed: u64, spec: FaultSpec) -> FaultPlan {
        FaultPlan { seed, spec }
    }

    /// A plan whose planes never inject anything.
    pub fn inert() -> FaultPlan {
        FaultPlan {
            seed: 0,
            spec: FaultSpec::default(),
        }
    }

    /// Instantiates a fresh plane at the start of its decision stream.
    pub fn build(&self) -> FaultPlane {
        FaultPlane::new(self.seed, self.spec.clone())
    }
}

/// What the plane decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// The message is lost (random drop or endpoint outage).
    Drop,
    /// The message is delivered twice.
    Duplicate,
    /// The message is held back; the channel's next message delivers it
    /// stale instead.
    HoldForReorder,
    /// The message arrives after an extra latency spike.
    Delay(Duration),
}

/// Counters of injected faults, for determinism assertions and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages inspected.
    pub messages: u64,
    /// Random drops injected.
    pub drops: u64,
    /// Duplicates injected.
    pub duplicates: u64,
    /// Reorders injected.
    pub reorders: u64,
    /// Latency spikes injected.
    pub delays: u64,
    /// Messages lost to scheduled outages.
    pub outage_drops: u64,
}

impl FaultStats {
    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.drops + self.duplicates + self.reorders + self.delays + self.outage_drops
    }
}

struct PlaneInner {
    spec: FaultSpec,
    rng: Mutex<SplitMix64>,
    /// Per-channel held-back payload for reorder emulation.
    held: Mutex<HashMap<(String, String), Vec<u8>>>,
    stats: Mutex<FaultStats>,
}

/// A cloneable, shareable fault-injection plane. Install it on an
/// [`crate::rpc::RpcFabric`] (covers every channel) or a single
/// [`crate::channel::Channel`].
#[derive(Clone)]
pub struct FaultPlane {
    inner: Arc<PlaneInner>,
}

impl std::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlane")
            .field("spec", &self.inner.spec)
            .field("stats", &self.stats())
            .finish()
    }
}

impl FaultPlane {
    /// Creates a plane drawing decisions from `seed` under `spec`.
    pub fn new(seed: u64, spec: FaultSpec) -> FaultPlane {
        FaultPlane {
            inner: Arc::new(PlaneInner {
                spec,
                rng: Mutex::new(SplitMix64::new(seed)),
                held: Mutex::new(HashMap::new()),
                stats: Mutex::new(FaultStats::default()),
            }),
        }
    }

    /// A plane that never injects anything (useful as a default).
    pub fn inert() -> FaultPlane {
        FaultPlane::new(0, FaultSpec::default())
    }

    /// The schedule this plane runs.
    pub fn spec(&self) -> &FaultSpec {
        &self.inner.spec
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        *self.inner.stats.lock()
    }

    /// Decides the fate of one message from `src` to `dst` sent at
    /// virtual time `now_ns`. Advances the decision stream — one draw
    /// per message outside an outage, two when a delay fires — so
    /// callers must invoke this exactly once per message, in message
    /// order.
    pub fn decide(&self, src: &str, dst: &str, now_ns: u64) -> FaultAction {
        let mut stats = self.inner.stats.lock();
        stats.messages += 1;

        let now = Duration::from_nanos(now_ns);
        let spec = &self.inner.spec;
        if spec
            .outages
            .iter()
            .any(|o| (o.endpoint == src || o.endpoint == dst) && o.covers(now))
        {
            stats.outage_drops += 1;
            return FaultAction::Drop;
        }

        // Every message outside an outage draws one roll, whichever
        // branch it picks; a fired delay draws a second value for its
        // length. The stream therefore depends on which branches fired:
        // two specs that differ only in, say, drop rate see the same
        // rolls only until the first delay fires. Reproducibility holds
        // per (seed, spec, message order).
        let roll = self.inner.rng.lock().below(1000) as u32;
        let mut threshold = spec.drop_per_mille;
        if roll < threshold {
            stats.drops += 1;
            return FaultAction::Drop;
        }
        threshold += spec.duplicate_per_mille;
        if roll < threshold {
            stats.duplicates += 1;
            return FaultAction::Duplicate;
        }
        threshold += spec.reorder_per_mille;
        if roll < threshold {
            stats.reorders += 1;
            return FaultAction::HoldForReorder;
        }
        threshold += spec.delay_per_mille;
        if roll < threshold {
            stats.delays += 1;
            let span = spec
                .delay_max
                .saturating_sub(spec.delay_min)
                .as_nanos()
                .max(1) as u64;
            let extra = self.inner.rng.lock().below(span);
            return FaultAction::Delay(spec.delay_min + Duration::from_nanos(extra));
        }
        FaultAction::Deliver
    }

    /// Stashes `payload` as the held-back message of channel
    /// `src → dst` (reorder emulation), returning any previously held
    /// payload that is now permanently lost.
    pub fn hold(&self, src: &str, dst: &str, payload: Vec<u8>) -> Option<Vec<u8>> {
        self.inner
            .held
            .lock()
            .insert((src.to_owned(), dst.to_owned()), payload)
    }

    /// Takes the held-back payload of channel `src → dst`, if any: the
    /// stale message a reorder delivers in place of the current one.
    pub fn take_held(&self, src: &str, dst: &str) -> Option<Vec<u8>> {
        self.inner
            .held
            .lock()
            .remove(&(src.to_owned(), dst.to_owned()))
    }
}

#[derive(Debug)]
struct CrashInner {
    /// The 1-based tick index the plane fires at, `None` for inert.
    armed: Option<u64>,
    ticks: Mutex<u64>,
    /// `(tick index, label)` of the crash once it fired.
    fired: Mutex<Option<(u64, String)>>,
    /// Label of every tick observed, in order.
    trace: Mutex<Vec<String>>,
}

/// Sibling of [`FaultPlane`] for *process* faults: where the fault
/// plane loses messages on the fabric, the crash plane kills the
/// control plane itself at a chosen step of its write-ahead journal.
///
/// The consumer calls [`tick`](CrashPlane::tick) at every crash point
/// (one per journal write, plus explicit pre-commit points) with a
/// stable label; the plane counts ticks and answers `true` exactly once
/// — at the armed index — which the caller turns into a simulated
/// process death: return without any cleanup, exactly as if the process
/// had been SIGKILLed between two instructions.
///
/// Like everything else in this module the plane is deterministic: an
/// armed index is either fixed ([`at_point`](CrashPlane::at_point)) or
/// drawn once from a seeded [`SplitMix64`] sub-stream
/// ([`seeded`](CrashPlane::seeded)), so a `(seed, schedule)` pair
/// reproduces the same crash on every run. The recorded
/// [`trace`](CrashPlane::trace) of an inert run enumerates every crash
/// point a schedule exposes — the sweep domain for kill-at-every-point
/// tests.
#[derive(Debug, Clone)]
pub struct CrashPlane {
    inner: Arc<CrashInner>,
}

impl CrashPlane {
    fn with_armed(armed: Option<u64>) -> CrashPlane {
        CrashPlane {
            inner: Arc::new(CrashInner {
                armed,
                ticks: Mutex::new(0),
                fired: Mutex::new(None),
                trace: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A plane that never fires (but still records the tick trace).
    pub fn inert() -> CrashPlane {
        CrashPlane::with_armed(None)
    }

    /// A plane that fires at the `point`-th tick (1-based). A `point`
    /// of 0 is inert.
    pub fn at_point(point: u64) -> CrashPlane {
        CrashPlane::with_armed((point > 0).then_some(point))
    }

    /// A plane whose crash point is drawn uniformly from `1..=within`
    /// on a sub-stream derived from `seed`. `within` of 0 is inert.
    pub fn seeded(seed: u64, within: u64) -> CrashPlane {
        if within == 0 {
            return CrashPlane::inert();
        }
        let mut rng = SplitMix64::derive(seed, 0xC4A5_4DEA_D000_0000);
        CrashPlane::with_armed(Some(1 + rng.below(within)))
    }

    /// The armed tick index, if any.
    pub fn armed(&self) -> Option<u64> {
        self.inner.armed
    }

    /// Counts one crash point named `label`; `true` means the process
    /// dies here (exactly once per plane).
    pub fn tick(&self, label: &str) -> bool {
        let mut ticks = self.inner.ticks.lock();
        *ticks += 1;
        let at = *ticks;
        self.inner.trace.lock().push(label.to_owned());
        if self.inner.armed == Some(at) {
            let mut fired = self.inner.fired.lock();
            if fired.is_none() {
                *fired = Some((at, label.to_owned()));
                return true;
            }
        }
        false
    }

    /// Total crash points observed so far.
    pub fn ticks(&self) -> u64 {
        *self.inner.ticks.lock()
    }

    /// `(tick index, label)` of the injected crash, once it fired.
    pub fn fired(&self) -> Option<(u64, String)> {
        self.inner.fired.lock().clone()
    }

    /// Labels of every crash point observed, in order.
    pub fn trace(&self) -> Vec<String> {
        self.inner.trace.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(100);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn derived_streams_are_deterministic_and_salt_disjoint() {
        let mut a = SplitMix64::derive(42, 7);
        let mut b = SplitMix64::derive(42, 7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::derive(42, 8);
        let mut d = SplitMix64::derive(43, 7);
        let first = SplitMix64::derive(42, 7).next_u64();
        assert_ne!(first, c.next_u64(), "salt must change the stream");
        assert_ne!(first, d.next_u64(), "seed must change the stream");
    }

    #[test]
    fn inert_plane_always_delivers() {
        let plane = FaultPlane::inert();
        for _ in 0..100 {
            assert_eq!(plane.decide("a", "b", 0), FaultAction::Deliver);
        }
        assert_eq!(plane.stats().total(), 0);
        assert_eq!(plane.stats().messages, 100);
    }

    #[test]
    fn same_seed_same_decisions() {
        let spec = FaultSpec::default()
            .with_drop_per_mille(200)
            .with_duplicate_per_mille(200)
            .with_reorder_per_mille(100)
            .with_delay(200, Duration::from_millis(1), Duration::from_millis(9));
        let a = FaultPlane::new(5, spec.clone());
        let b = FaultPlane::new(5, spec);
        let da: Vec<_> = (0..200).map(|_| a.decide("x", "y", 0)).collect();
        let db: Vec<_> = (0..200).map(|_| b.decide("x", "y", 0)).collect();
        assert_eq!(da, db);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "schedule injects something");
    }

    #[test]
    fn a_fired_delay_draws_once_more_for_its_length() {
        // Drops draw only the roll; a delay draws its length next, so it
        // shifts every later roll by one. Moving either draw moves every
        // seeded chaos pin.
        let (min, max) = (Duration::from_millis(1), Duration::from_millis(9));
        let span = (max - min).as_nanos() as u64;
        let spec = FaultSpec::default()
            .with_drop_per_mille(500)
            .with_delay(500, min, max);
        let plane = FaultPlane::new(11, spec);
        let mut stream = SplitMix64::new(11);
        for _ in 0..64 {
            let expected = if stream.below(1000) < 500 {
                FaultAction::Drop
            } else {
                FaultAction::Delay(min + Duration::from_nanos(stream.below(span)))
            };
            assert_eq!(plane.decide("a", "b", 0), expected);
        }
        let stats = plane.stats();
        assert!(stats.drops > 0 && stats.delays > 0, "{stats:?}");
    }

    #[test]
    fn full_drop_rate_drops_everything() {
        let plane = FaultPlane::new(1, FaultSpec::default().with_drop_per_mille(1000));
        for _ in 0..50 {
            assert_eq!(plane.decide("a", "b", 0), FaultAction::Drop);
        }
        assert_eq!(plane.stats().drops, 50);
    }

    #[test]
    fn outage_window_is_virtual_time_scoped() {
        let spec =
            FaultSpec::default().with_outage("mfr", Duration::from_secs(1), Duration::from_secs(2));
        let plane = FaultPlane::new(1, spec);
        // Before the window.
        assert_eq!(plane.decide("host", "mfr", 0), FaultAction::Deliver);
        // Inside the window, both directions are dead.
        let t = Duration::from_secs(2).as_nanos() as u64;
        assert_eq!(plane.decide("host", "mfr", t), FaultAction::Drop);
        assert_eq!(plane.decide("mfr", "host", t), FaultAction::Drop);
        // Uninvolved endpoints are unaffected.
        assert_eq!(plane.decide("host", "fpga", t), FaultAction::Deliver);
        // After the window.
        let t = Duration::from_secs(4).as_nanos() as u64;
        assert_eq!(plane.decide("host", "mfr", t), FaultAction::Deliver);
        assert_eq!(plane.stats().outage_drops, 2);
    }

    #[test]
    fn plan_rebuilds_identical_planes() {
        let plan = FaultPlan::new(
            9,
            FaultSpec::default()
                .with_drop_per_mille(150)
                .with_duplicate_per_mille(100),
        );
        let a = plan.build();
        let b = plan.build();
        let da: Vec<_> = (0..128).map(|_| a.decide("x", "y", 0)).collect();
        let db: Vec<_> = (0..128).map(|_| b.decide("x", "y", 0)).collect();
        assert_eq!(da, db);
        assert_eq!(plan, plan.clone());
        assert_eq!(FaultPlan::inert().build().stats().total(), 0);
    }

    #[test]
    fn hold_and_take_roundtrip() {
        let plane = FaultPlane::inert();
        assert!(plane.take_held("a", "b").is_none());
        assert!(plane.hold("a", "b", b"one".to_vec()).is_none());
        // A second hold evicts (loses) the first.
        assert_eq!(plane.hold("a", "b", b"two".to_vec()).unwrap(), b"one");
        assert_eq!(plane.take_held("a", "b").unwrap(), b"two");
        assert!(plane.take_held("a", "b").is_none());
    }

    #[test]
    fn delay_stays_in_configured_range() {
        let spec = FaultSpec::default().with_delay(
            1000,
            Duration::from_millis(3),
            Duration::from_millis(7),
        );
        let plane = FaultPlane::new(11, spec);
        for _ in 0..50 {
            match plane.decide("a", "b", 0) {
                FaultAction::Delay(d) => {
                    assert!(d >= Duration::from_millis(3) && d <= Duration::from_millis(7))
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn inert_crash_plane_never_fires_but_traces_every_point() {
        let plane = CrashPlane::inert();
        assert!(!plane.tick("deploy.intent"));
        assert!(!plane.tick("deploy.pre-commit"));
        assert_eq!(plane.ticks(), 2);
        assert!(plane.fired().is_none());
        assert_eq!(plane.trace(), vec!["deploy.intent", "deploy.pre-commit"]);
    }

    #[test]
    fn armed_crash_plane_fires_exactly_once_at_its_point() {
        let plane = CrashPlane::at_point(2);
        assert!(!plane.tick("a"));
        assert!(plane.tick("b"), "second tick is the armed point");
        assert!(!plane.tick("c"), "a plane fires at most once");
        assert_eq!(plane.fired(), Some((2, "b".to_owned())));
        assert!(CrashPlane::at_point(0).armed().is_none());
    }

    #[test]
    fn seeded_crash_points_are_deterministic_and_in_range() {
        for seed in 0..32u64 {
            let a = CrashPlane::seeded(seed, 10);
            let b = CrashPlane::seeded(seed, 10);
            assert_eq!(a.armed(), b.armed());
            let point = a.armed().unwrap();
            assert!((1..=10).contains(&point), "seed {seed}: point {point}");
        }
        assert!(CrashPlane::seeded(7, 0).armed().is_none());
    }
}
