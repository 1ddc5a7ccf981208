//! Reusable adversary behaviours for channels.
//!
//! The threat model (§3.1) gives the CSP-controlled shell and network
//! full control over PCIe and network transactions: it can snoop,
//! tamper, replay, and drop. Security experiments interpose these
//! behaviours on the relevant channel and assert that the protocols
//! *detect* (fail closed) rather than silently accept.
//!
//! The shell's power over PCIe is the adversary on the host→FPGA link:
//! every CL bitstream, attestation request and register transaction the
//! host sends crosses it before the shell hands it to the device. A
//! [`Snooper`] there records everything the shell sees, a
//! [`BitFlipper`] corrupts a load, and a [`CrossReplayer`] makes the
//! shell replay an earlier, stale bitstream. The §4.7 multi-partition
//! demo (`salus_core::multi_rp`) is outside this: it loads its streams
//! straight into a shell of its own, over no channel.

use std::collections::VecDeque;
use std::fmt;

/// What an adversary decides to do with one in-flight message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver the message unchanged.
    Pass,
    /// Deliver replacement bytes instead.
    Tamper(Vec<u8>),
    /// Silently drop the message.
    Drop,
}

/// An interposition point on a channel. Implementations may keep state
/// (e.g. recorded messages for later replay).
pub trait Adversary: Send {
    /// Inspects (and possibly replaces) a message moving from `src` to
    /// `dst` on the tapped channel.
    fn on_message(&mut self, src: &str, dst: &str, payload: &[u8]) -> Verdict;

    /// Human-readable description, used in experiment logs.
    fn describe(&self) -> String {
        "adversary".to_owned()
    }
}

impl fmt::Debug for dyn Adversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Adversary({})", self.describe())
    }
}

/// Forwards everything unchanged (the honest-but-curious baseline).
#[derive(Debug, Default, Clone)]
pub struct Honest;

impl Adversary for Honest {
    fn on_message(&mut self, _src: &str, _dst: &str, _payload: &[u8]) -> Verdict {
        Verdict::Pass
    }

    fn describe(&self) -> String {
        "honest".to_owned()
    }
}

/// Passively records every message (a confidentiality attack: the shell
/// snooping PCIe/attestation traffic). Delivery is unaffected.
#[derive(Debug, Default)]
pub struct Snooper {
    /// Every observed `(src, dst, payload)` triple, in order.
    pub observed: Vec<(String, String, Vec<u8>)>,
}

impl Snooper {
    /// Creates an empty snooper.
    pub fn new() -> Snooper {
        Snooper::default()
    }

    /// Returns true if any recorded payload contains `needle` as a
    /// contiguous subsequence — the test for secret leakage.
    pub fn saw_bytes(&self, needle: &[u8]) -> bool {
        if needle.is_empty() {
            return true;
        }
        self.observed
            .iter()
            .any(|(_, _, payload)| payload.windows(needle.len()).any(|w| w == needle))
    }
}

impl Adversary for Snooper {
    fn on_message(&mut self, src: &str, dst: &str, payload: &[u8]) -> Verdict {
        self.observed
            .push((src.to_owned(), dst.to_owned(), payload.to_vec()));
        Verdict::Pass
    }

    fn describe(&self) -> String {
        format!("snooper({} messages)", self.observed.len())
    }
}

/// Flips a bit in the n-th message (an integrity attack).
#[derive(Debug)]
pub struct BitFlipper {
    target_index: usize,
    byte_offset: usize,
    seen: usize,
}

impl BitFlipper {
    /// Flips bit 0 of `byte_offset` in the `target_index`-th message
    /// (0-based) crossing the channel.
    pub fn new(target_index: usize, byte_offset: usize) -> BitFlipper {
        BitFlipper {
            target_index,
            byte_offset,
            seen: 0,
        }
    }
}

impl Adversary for BitFlipper {
    fn on_message(&mut self, _src: &str, _dst: &str, payload: &[u8]) -> Verdict {
        let index = self.seen;
        self.seen += 1;
        if index == self.target_index && !payload.is_empty() {
            let mut tampered = payload.to_vec();
            let off = self.byte_offset.min(tampered.len() - 1);
            tampered[off] ^= 0x01;
            Verdict::Tamper(tampered)
        } else {
            Verdict::Pass
        }
    }

    fn describe(&self) -> String {
        format!(
            "bit-flipper(msg {}, byte {})",
            self.target_index, self.byte_offset
        )
    }
}

/// Records messages and, once armed, substitutes the next message with a
/// previously recorded one (a freshness/replay attack).
#[derive(Debug, Default)]
pub struct Replayer {
    recorded: VecDeque<Vec<u8>>,
    armed: bool,
}

impl Replayer {
    /// Creates a replayer in recording mode.
    pub fn new() -> Replayer {
        Replayer::default()
    }

    /// From the next message on, substitute the oldest recorded message.
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Number of messages recorded so far.
    pub fn recorded_len(&self) -> usize {
        self.recorded.len()
    }
}

impl Adversary for Replayer {
    fn on_message(&mut self, _src: &str, _dst: &str, payload: &[u8]) -> Verdict {
        if self.armed {
            if let Some(old) = self.recorded.pop_front() {
                return Verdict::Tamper(old);
            }
        }
        self.recorded.push_back(payload.to_vec());
        Verdict::Pass
    }

    fn describe(&self) -> String {
        format!(
            "replayer(armed={}, recorded={})",
            self.armed,
            self.recorded.len()
        )
    }
}

/// Records every message and substitutes message `target` (0-based)
/// with previously recorded message `source` — a cross-message replay
/// (e.g. replaying an initial quote in place of a final one).
#[derive(Debug)]
pub struct CrossReplayer {
    source: usize,
    target: usize,
    recorded: Vec<Vec<u8>>,
}

impl CrossReplayer {
    /// Replaces the `target`-th message with the `source`-th.
    ///
    /// # Panics
    ///
    /// Panics if `source >= target` — the source must be observed first.
    pub fn new(source: usize, target: usize) -> CrossReplayer {
        assert!(source < target, "source must precede target");
        CrossReplayer {
            source,
            target,
            recorded: Vec::new(),
        }
    }
}

impl Adversary for CrossReplayer {
    fn on_message(&mut self, _src: &str, _dst: &str, payload: &[u8]) -> Verdict {
        let index = self.recorded.len();
        self.recorded.push(payload.to_vec());
        if index == self.target {
            Verdict::Tamper(self.recorded[self.source].clone())
        } else {
            Verdict::Pass
        }
    }

    fn describe(&self) -> String {
        format!("cross-replayer({} -> {})", self.source, self.target)
    }
}

/// Drops every message after the first `allow` messages (a DoS-flavoured
/// attack; the paper excludes DoS, so tests only use this to check error
/// propagation, not security claims).
///
/// The countdown uses a single atomic read-modify-write, so concurrent
/// observers (e.g. a test polling [`remaining`](Dropper::remaining)
/// through an [`crate::channel::AdversaryHandle`] while another thread
/// drives the channel) always see a consistent allowance — the counter
/// can never be decremented past zero or lose an update.
#[derive(Debug)]
pub struct Dropper {
    allow: std::sync::atomic::AtomicUsize,
}

impl Dropper {
    /// Allows `allow` messages through, then drops the rest.
    pub fn after(allow: usize) -> Dropper {
        Dropper {
            allow: std::sync::atomic::AtomicUsize::new(allow),
        }
    }

    /// Messages still allowed through before the drop regime starts.
    pub fn remaining(&self) -> usize {
        self.allow.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl Adversary for Dropper {
    fn on_message(&mut self, _src: &str, _dst: &str, _payload: &[u8]) -> Verdict {
        use std::sync::atomic::Ordering;
        let passed = self
            .allow
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if passed {
            Verdict::Pass
        } else {
            Verdict::Drop
        }
    }

    fn describe(&self) -> String {
        format!("dropper(allow {})", self.remaining())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_passes() {
        assert_eq!(Honest.on_message("a", "b", b"x"), Verdict::Pass);
    }

    #[test]
    fn snooper_records_and_finds_needles() {
        let mut s = Snooper::new();
        s.on_message("host", "fpga", b"hello secret world");
        assert!(s.saw_bytes(b"secret"));
        assert!(!s.saw_bytes(b"missing"));
        assert_eq!(s.observed.len(), 1);
    }

    #[test]
    fn bitflipper_hits_only_target() {
        let mut f = BitFlipper::new(1, 0);
        assert_eq!(f.on_message("a", "b", b"one"), Verdict::Pass);
        match f.on_message("a", "b", b"two") {
            Verdict::Tamper(t) => assert_eq!(t[0], b't' ^ 1),
            other => panic!("expected tamper, got {other:?}"),
        }
        assert_eq!(f.on_message("a", "b", b"three"), Verdict::Pass);
    }

    #[test]
    fn replayer_replays_oldest() {
        let mut r = Replayer::new();
        r.on_message("a", "b", b"first");
        r.on_message("a", "b", b"second");
        r.arm();
        match r.on_message("a", "b", b"third") {
            Verdict::Tamper(t) => assert_eq!(t, b"first"),
            other => panic!("expected replay, got {other:?}"),
        }
    }

    #[test]
    fn cross_replayer_substitutes_target() {
        let mut r = CrossReplayer::new(0, 2);
        assert_eq!(r.on_message("a", "b", b"first"), Verdict::Pass);
        assert_eq!(r.on_message("a", "b", b"second"), Verdict::Pass);
        match r.on_message("a", "b", b"third") {
            Verdict::Tamper(t) => assert_eq!(t, b"first"),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(r.on_message("a", "b", b"fourth"), Verdict::Pass);
    }

    #[test]
    fn dropper_counts_down() {
        let mut d = Dropper::after(1);
        assert_eq!(d.on_message("a", "b", b"x"), Verdict::Pass);
        assert_eq!(d.on_message("a", "b", b"y"), Verdict::Drop);
    }

    #[test]
    fn dropper_exposes_remaining_allowance() {
        let mut d = Dropper::after(2);
        assert_eq!(d.remaining(), 2);
        d.on_message("a", "b", b"x");
        assert_eq!(d.remaining(), 1);
        d.on_message("a", "b", b"y");
        assert_eq!(d.remaining(), 0);
        // Exhausted: drops do not underflow the allowance.
        assert_eq!(d.on_message("a", "b", b"z"), Verdict::Drop);
        assert_eq!(d.remaining(), 0);
    }
}
