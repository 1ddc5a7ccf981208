//! Per-device health tracking for the fleet scheduler.
//!
//! The control plane feeds every deploy outcome into a [`DeviceHealth`]
//! tracker. Consecutive boot failures on one board push it from
//! [`Healthy`](HealthState::Healthy) into
//! [`Quarantined`](HealthState::Quarantined) — the scheduler then skips
//! it entirely — and after a deterministically drawn cool-down in
//! *virtual* time the board is probationally re-admitted: one success
//! restores it to `Healthy`, one more failure re-quarantines it with a
//! fresh cool-down. All state transitions are driven by the shared
//! [`SimClock`](salus_net::clock::SimClock)'s virtual now and a seeded
//! [`SplitMix64`] stream, so a chaos sweep reproduces the exact same
//! quarantine/recovery timeline on every run.

use std::time::Duration;

use salus_net::fault::SplitMix64;

use super::fleet::DeviceId;

/// Admission state of one fleet board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Normal operation; the scheduler places freely.
    Healthy,
    /// Re-admitted after quarantine: schedulable, but the next failure
    /// re-quarantines immediately (no threshold grace).
    Probation,
    /// Skipped by the scheduler until the cool-down expires.
    Quarantined,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Probation => write!(f, "probation"),
            HealthState::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// Thresholds and cool-down window of the health tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failures on a `Healthy` board before it is
    /// quarantined (≥ 1).
    pub quarantine_after: u32,
    /// Minimum quarantine cool-down before probational re-admission.
    pub readmit_min: Duration,
    /// Maximum quarantine cool-down; the actual draw is uniform in
    /// `[readmit_min, readmit_max]` from the tracker's seeded stream.
    pub readmit_max: Duration,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            quarantine_after: 3,
            readmit_min: Duration::from_secs(30),
            readmit_max: Duration::from_secs(120),
        }
    }
}

impl HealthPolicy {
    /// Replaces the quarantine threshold (builder-style).
    pub fn with_quarantine_after(mut self, failures: u32) -> HealthPolicy {
        self.quarantine_after = failures.max(1);
        self
    }

    /// Replaces the re-admission window (builder-style).
    pub fn with_readmit_window(mut self, min: Duration, max: Duration) -> HealthPolicy {
        self.readmit_min = min;
        self.readmit_max = max.max(min);
        self
    }
}

/// Public snapshot of one board's health entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceHealthRecord {
    /// The board.
    pub device: DeviceId,
    /// Admission state at snapshot time.
    pub state: HealthState,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Lifetime failed boots on this board.
    pub total_failures: u64,
    /// Lifetime successful boots on this board.
    pub total_successes: u64,
    /// Times the board entered quarantine.
    pub quarantines: u64,
    /// When the current quarantine lifts into probation, if quarantined
    /// or still on probation from one.
    pub readmit_at: Option<Duration>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    consecutive_failures: u32,
    total_failures: u64,
    total_successes: u64,
    quarantines: u64,
    /// `Some` from the moment the board is quarantined until its next
    /// success: before this instant the board is `Quarantined`, after it
    /// the board is on `Probation`.
    readmit_at: Option<Duration>,
}

/// Consecutive-failure health tracking for every board of one fleet.
#[derive(Debug, Clone)]
pub struct DeviceHealth {
    policy: HealthPolicy,
    rng: SplitMix64,
    entries: Vec<Entry>,
}

impl DeviceHealth {
    /// A tracker for `devices` boards, drawing re-admission cool-downs
    /// from a stream seeded with `seed`.
    pub fn new(devices: usize, seed: u64, policy: HealthPolicy) -> DeviceHealth {
        DeviceHealth {
            policy,
            rng: SplitMix64::new(seed ^ 0x4EA1_7B0A_5EED_C0DE),
            entries: vec![Entry::default(); devices],
        }
    }

    /// The active policy.
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// The admission state of `device` at virtual time `now`. Unknown
    /// devices read as `Healthy` (they can never be placed anyway).
    pub fn state(&self, device: DeviceId, now: Duration) -> HealthState {
        match self.entries.get(device) {
            Some(Entry {
                readmit_at: Some(t),
                ..
            }) if now < *t => HealthState::Quarantined,
            Some(Entry {
                readmit_at: Some(_),
                ..
            }) => HealthState::Probation,
            _ => HealthState::Healthy,
        }
    }

    /// Every board the scheduler must skip at virtual time `now`.
    pub fn quarantined(&self, now: Duration) -> Vec<DeviceId> {
        (0..self.entries.len())
            .filter(|&d| self.state(d, now) == HealthState::Quarantined)
            .collect()
    }

    /// Records a successful boot on `device`: clears the consecutive
    /// count and promotes a probational board back to `Healthy`.
    pub fn record_success(&mut self, device: DeviceId, _now: Duration) {
        if let Some(e) = self.entries.get_mut(device) {
            e.consecutive_failures = 0;
            e.total_successes += 1;
            e.readmit_at = None;
        }
    }

    /// Records a failed boot on `device` at virtual time `now` and
    /// returns the board's resulting state. A `Healthy` board
    /// quarantines after [`HealthPolicy::quarantine_after`] consecutive
    /// failures; a `Probation` board re-quarantines immediately.
    pub fn record_failure(&mut self, device: DeviceId, now: Duration) -> HealthState {
        let span = self
            .policy
            .readmit_max
            .saturating_sub(self.policy.readmit_min)
            .as_nanos()
            .max(1) as u64;
        let Some(e) = self.entries.get_mut(device) else {
            return HealthState::Healthy;
        };
        e.consecutive_failures += 1;
        e.total_failures += 1;
        let was = match e.readmit_at {
            Some(t) if now < t => HealthState::Quarantined,
            Some(_) => HealthState::Probation,
            None => HealthState::Healthy,
        };
        let quarantine = match was {
            // A failure while already quarantined (racing boot finishing
            // late) extends nothing; the cool-down stands.
            HealthState::Quarantined => false,
            HealthState::Probation => true,
            HealthState::Healthy => e.consecutive_failures >= self.policy.quarantine_after,
        };
        if quarantine {
            let cooldown = self.policy.readmit_min + Duration::from_nanos(self.rng.below(span));
            e.quarantines += 1;
            e.readmit_at = Some(now + cooldown);
        }
        match e.readmit_at {
            Some(t) if now < t => HealthState::Quarantined,
            Some(_) => HealthState::Probation,
            None => HealthState::Healthy,
        }
    }

    /// Snapshot of every board's entry, in device order.
    pub fn snapshot(&self, now: Duration) -> Vec<DeviceHealthRecord> {
        self.entries
            .iter()
            .enumerate()
            .map(|(device, e)| DeviceHealthRecord {
                device,
                state: self.state(device, now),
                consecutive_failures: e.consecutive_failures,
                total_failures: e.total_failures,
                total_successes: e.total_successes,
                quarantines: e.quarantines,
                readmit_at: e.readmit_at,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HealthPolicy {
        HealthPolicy::default()
            .with_quarantine_after(2)
            .with_readmit_window(Duration::from_secs(10), Duration::from_secs(20))
    }

    #[test]
    fn consecutive_failures_quarantine_then_readmit_probationally() {
        let mut h = DeviceHealth::new(2, 7, policy());
        let t0 = Duration::ZERO;
        assert_eq!(h.record_failure(0, t0), HealthState::Healthy);
        assert_eq!(h.record_failure(0, t0), HealthState::Quarantined);
        assert_eq!(h.state(0, t0), HealthState::Quarantined);
        assert_eq!(h.state(1, t0), HealthState::Healthy);
        assert_eq!(h.quarantined(t0), vec![0]);

        let readmit = h.snapshot(t0)[0].readmit_at.unwrap();
        assert!(readmit >= Duration::from_secs(10) && readmit <= Duration::from_secs(20));
        assert_eq!(h.state(0, readmit), HealthState::Probation);
        assert!(h.quarantined(readmit).is_empty());

        // Success on probation restores full health.
        h.record_success(0, readmit);
        assert_eq!(h.state(0, readmit), HealthState::Healthy);
        assert_eq!(h.snapshot(readmit)[0].consecutive_failures, 0);
        assert_eq!(h.snapshot(readmit)[0].quarantines, 1);
    }

    #[test]
    fn probation_failure_requarantines_immediately() {
        let mut h = DeviceHealth::new(1, 7, policy());
        h.record_failure(0, Duration::ZERO);
        h.record_failure(0, Duration::ZERO);
        let readmit = h.snapshot(Duration::ZERO)[0].readmit_at.unwrap();
        assert_eq!(h.record_failure(0, readmit), HealthState::Quarantined);
        assert_eq!(h.snapshot(readmit)[0].quarantines, 2);
        let second = h.snapshot(readmit)[0].readmit_at.unwrap();
        assert!(second > readmit);
    }

    #[test]
    fn cooldown_draws_are_seed_deterministic() {
        let runs: Vec<Vec<Option<Duration>>> = (0..2)
            .map(|_| {
                let mut h = DeviceHealth::new(3, 99, policy());
                (0..3)
                    .map(|d| {
                        h.record_failure(d, Duration::ZERO);
                        h.record_failure(d, Duration::ZERO);
                        h.snapshot(Duration::ZERO)[d].readmit_at
                    })
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        let mut other = DeviceHealth::new(3, 100, policy());
        other.record_failure(0, Duration::ZERO);
        other.record_failure(0, Duration::ZERO);
        assert_ne!(
            runs[0][0],
            other.snapshot(Duration::ZERO)[0].readmit_at,
            "different seed should draw a different cool-down"
        );
    }
}
