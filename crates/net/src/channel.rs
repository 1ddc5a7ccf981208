//! Adversary-interposable byte channels between named endpoints.
//!
//! A [`Channel`] is the unit the security experiments manipulate: every
//! byte moving between two parties crosses exactly one channel, where an
//! [`Adversary`] may observe or rewrite it and the shared [`SimClock`] is
//! charged the link cost.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::adversary::{Adversary, Honest, Verdict};
use crate::clock::SimClock;
use crate::fault::{FaultAction, FaultPlane};
use crate::latency::{LatencyModel, LinkClass};
use crate::NetError;

/// A directed logical link between two named endpoints.
///
/// ```
/// use salus_net::channel::Channel;
/// use salus_net::clock::SimClock;
/// use salus_net::latency::{LatencyModel, LinkClass};
///
/// let clock = SimClock::new();
/// let chan = Channel::new("host", "fpga", LinkClass::Pcie, LatencyModel::zero(), clock);
/// let delivered = chan.transmit(b"payload").unwrap();
/// assert_eq!(delivered, b"payload");
/// ```
#[derive(Clone)]
pub struct Channel {
    src: String,
    dst: String,
    class: LinkClass,
    model: LatencyModel,
    clock: SimClock,
    taps: Arc<Mutex<Taps>>,
}

/// What acts on a channel's messages, shared across its clones: the
/// adversary on the sender's side of the wire and the fault plane
/// beyond it. One lock guards both, so a message takes one lock.
struct Taps {
    adversary: Box<dyn Adversary>,
    fault_plane: Option<FaultPlane>,
}

/// What one [`Channel::transmit_ext`] actually delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The bytes the receiver observes (possibly tampered or stale).
    pub bytes: Vec<u8>,
    /// True when the fault plane delivered the message twice; the RPC
    /// layer uses this to invoke the handler a second time.
    pub duplicated: bool,
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

impl Channel {
    /// Creates a channel with an honest (pass-through) interposer.
    pub fn new(
        src: impl Into<String>,
        dst: impl Into<String>,
        class: LinkClass,
        model: LatencyModel,
        clock: SimClock,
    ) -> Channel {
        Channel {
            src: src.into(),
            dst: dst.into(),
            class,
            model,
            clock,
            taps: Arc::new(Mutex::new(Taps {
                adversary: Box::new(Honest),
                fault_plane: None,
            })),
        }
    }

    /// Installs a fault plane on this channel (shared across clones).
    pub fn set_fault_plane(&self, plane: FaultPlane) {
        self.taps.lock().fault_plane = Some(plane);
    }

    /// Removes the fault plane, restoring a fault-free link.
    pub fn clear_fault_plane(&self) {
        self.taps.lock().fault_plane = None;
    }

    /// Source endpoint name.
    pub fn src(&self) -> &str {
        &self.src
    }

    /// Destination endpoint name.
    pub fn dst(&self) -> &str {
        &self.dst
    }

    /// Link class of this channel.
    pub fn class(&self) -> LinkClass {
        self.class
    }

    /// Installs `adversary` on this channel, returning a handle that tests
    /// can use to inspect adversary state afterwards.
    pub fn interpose<A: Adversary + 'static>(&self, adversary: A) -> AdversaryHandle<A> {
        let shared = Arc::new(Mutex::new(adversary));
        let for_channel = Arc::clone(&shared);
        self.taps.lock().adversary = Box::new(SharedAdversary(for_channel));
        AdversaryHandle(shared)
    }

    /// Restores the honest pass-through interposer.
    pub fn clear_adversary(&self) {
        self.taps.lock().adversary = Box::new(Honest);
    }

    /// Moves `payload` across the link: charges the clock, lets the
    /// adversary act, and returns what the receiver actually observes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Dropped`] if the adversary or fault plane
    /// drops the message.
    pub fn transmit(&self, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self.transmit_ext(payload, None).map(|d| d.bytes)
    }

    /// [`transmit`](Channel::transmit) with a per-call deadline: when
    /// the message is lost or arrives late, the sender waits out the
    /// full `deadline` in virtual time and gets [`NetError::TimedOut`].
    ///
    /// # Errors
    ///
    /// [`NetError::TimedOut`] on any loss or late delivery.
    pub fn transmit_deadline(
        &self,
        payload: &[u8],
        deadline: Duration,
    ) -> Result<Vec<u8>, NetError> {
        self.transmit_ext(payload, Some(deadline)).map(|d| d.bytes)
    }

    /// The full-fidelity transmit: adversary interposition, fault
    /// injection, optional deadline, duplicate signalling.
    ///
    /// With a deadline, losses charge the remaining wait (the sender
    /// blocks until the deadline) and surface as [`NetError::TimedOut`];
    /// without one, they surface immediately as [`NetError::Dropped`].
    ///
    /// # Errors
    ///
    /// [`NetError::Dropped`] / [`NetError::TimedOut`] as above.
    pub fn transmit_ext(
        &self,
        payload: &[u8],
        deadline: Option<Duration>,
    ) -> Result<Delivery, NetError> {
        let (bytes, duplicated) = self.carry(payload, deadline)?;
        Ok(Delivery {
            bytes: bytes.into_owned(),
            duplicated,
        })
    }

    /// [`transmit_ext`](Channel::transmit_ext) for a shared, immutable
    /// buffer: when the receiver observes exactly the sender's bytes, it
    /// gets the sender's buffer itself, not a copy. Tampered, held-back
    /// and duplicated messages arrive as buffers of their own.
    ///
    /// # Errors
    ///
    /// As [`transmit_ext`](Channel::transmit_ext).
    pub fn transmit_shared(
        &self,
        payload: &Arc<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Result<Arc<Vec<u8>>, NetError> {
        Ok(match self.carry(payload, deadline)?.0 {
            Cow::Borrowed(_) => Arc::clone(payload),
            Cow::Owned(bytes) => Arc::new(bytes),
        })
    }

    /// [`transmit_ext`](Channel::transmit_ext) without a copy on an
    /// honest link: the receiver observes `payload` itself, borrowed,
    /// when the sender's bytes arrive unaltered. Tampered, held-back and
    /// duplicated messages arrive owned.
    ///
    /// # Errors
    ///
    /// As [`transmit_ext`](Channel::transmit_ext).
    pub fn transmit_borrowed<'p>(
        &self,
        payload: &'p [u8],
        deadline: Option<Duration>,
    ) -> Result<Cow<'p, [u8]>, NetError> {
        self.carry(payload, deadline).map(|(bytes, _)| bytes)
    }

    /// The one transmit path behind every entry point: charges the link,
    /// lets the adversary and the fault plane act, and returns what the
    /// receiver observes — `payload` itself, borrowed, unless the message
    /// was replaced or duplicated — and whether it arrived twice.
    fn carry<'p>(
        &self,
        payload: &'p [u8],
        deadline: Option<Duration>,
    ) -> Result<(Cow<'p, [u8]>, bool), NetError> {
        let cost = self.model.transfer_cost(self.class, payload.len());
        self.clock.advance(cost);

        // The sender gives up at `deadline`: on a loss, the remaining
        // wait is still charged to virtual time.
        let lost = |spent: Duration| match deadline {
            Some(d) => {
                self.clock.advance(d.saturating_sub(spent));
                NetError::TimedOut
            }
            None => NetError::Dropped,
        };

        // The adversary taps the sender's side of the wire first; the
        // fault plane models the fabric beyond it.
        let (verdict, plane) = {
            let mut taps = self.taps.lock();
            let verdict = taps.adversary.on_message(&self.src, &self.dst, payload);
            (verdict, taps.fault_plane.clone())
        };
        let bytes = match verdict {
            Verdict::Pass => Cow::Borrowed(payload),
            Verdict::Tamper(replacement) => Cow::Owned(replacement),
            Verdict::Drop => return Err(lost(cost)),
        };

        // The link itself is too slow for the caller's budget: the
        // message arrives, but after the sender stopped waiting.
        if deadline.is_some_and(|d| cost > d) {
            return Err(NetError::TimedOut);
        }

        let Some(plane) = plane else {
            return Ok((bytes, false));
        };

        match plane.decide(&self.src, &self.dst, self.clock.now_ns()) {
            FaultAction::HoldForReorder => {
                // Held back: lost for now, delivered stale in place of
                // the channel's next message.
                plane.hold(&self.src, &self.dst, bytes.into_owned());
                Err(lost(cost))
            }
            decision => {
                // A previously held message arrives *instead* of this
                // one; the current payload is permanently lost.
                let bytes = match plane.take_held(&self.src, &self.dst) {
                    Some(held) => Cow::Owned(held),
                    None => bytes,
                };
                match decision {
                    FaultAction::Deliver => Ok((bytes, false)),
                    FaultAction::Drop => Err(lost(cost)),
                    FaultAction::Duplicate => {
                        // The wire carries the message twice.
                        self.clock.advance(cost);
                        Ok((Cow::Owned(bytes.into_owned()), true))
                    }
                    FaultAction::Delay(extra) => {
                        if let Some(d) = deadline {
                            if cost + extra > d {
                                return Err(lost(cost));
                            }
                        }
                        self.clock.advance(extra);
                        Ok((bytes, false))
                    }
                    FaultAction::HoldForReorder => unreachable!("matched above"),
                }
            }
        }
    }
}

/// Wraps a shared adversary so both the channel and the test own it.
struct SharedAdversary<A: Adversary>(Arc<Mutex<A>>);

impl<A: Adversary> Adversary for SharedAdversary<A> {
    fn on_message(&mut self, src: &str, dst: &str, payload: &[u8]) -> Verdict {
        self.0.lock().on_message(src, dst, payload)
    }

    fn describe(&self) -> String {
        self.0.lock().describe()
    }
}

/// Test-side handle to an installed adversary.
#[derive(Debug)]
pub struct AdversaryHandle<A>(Arc<Mutex<A>>);

impl<A> AdversaryHandle<A> {
    /// Runs `f` with exclusive access to the adversary's state.
    pub fn with<R>(&self, f: impl FnOnce(&mut A) -> R) -> R {
        f(&mut self.0.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BitFlipper, Dropper, Snooper};
    use std::time::Duration;

    fn test_channel() -> Channel {
        Channel::new(
            "a",
            "b",
            LinkClass::Loopback,
            LatencyModel::zero(),
            SimClock::new(),
        )
    }

    #[test]
    fn honest_channel_delivers_verbatim() {
        let chan = test_channel();
        assert_eq!(chan.transmit(b"hello").unwrap(), b"hello");
    }

    #[test]
    fn transmit_charges_clock() {
        let clock = SimClock::new();
        let chan = Channel::new(
            "a",
            "b",
            LinkClass::Wan,
            LatencyModel::paper_calibrated(),
            clock.clone(),
        );
        chan.transmit(b"x").unwrap();
        assert!(clock.now() >= Duration::from_millis(40));
    }

    #[test]
    fn snooper_observes_without_modifying() {
        let chan = test_channel();
        let handle = chan.interpose(Snooper::new());
        assert_eq!(chan.transmit(b"secret key").unwrap(), b"secret key");
        assert!(handle.with(|s| s.saw_bytes(b"secret")));
    }

    #[test]
    fn bitflipper_modifies_in_flight() {
        let chan = test_channel();
        chan.interpose(BitFlipper::new(0, 0));
        let got = chan.transmit(b"abc").unwrap();
        assert_eq!(got[0], b'a' ^ 1);
    }

    #[test]
    fn shared_transmit_delivers_the_senders_buffer_unless_altered() {
        use crate::fault::{FaultPlane, FaultSpec};
        let chan = test_channel();
        let sent = Arc::new(b"sealed stream".to_vec());
        let got = chan.transmit_shared(&sent, None).unwrap();
        assert!(Arc::ptr_eq(&got, &sent), "honest link: the same buffer");

        // A tamper verdict rewrites a copy; the sender's bytes stand.
        chan.interpose(BitFlipper::new(0, 0));
        let got = chan.transmit_shared(&sent, None).unwrap();
        assert!(!Arc::ptr_eq(&got, &sent));
        assert_eq!(got[0], b's' ^ 1);
        assert_eq!(*sent, b"sealed stream");
        chan.clear_adversary();

        // A duplicate arrives as a buffer of its own.
        chan.set_fault_plane(FaultPlane::new(
            1,
            FaultSpec::default().with_duplicate_per_mille(1000),
        ));
        let got = chan.transmit_shared(&sent, None).unwrap();
        assert!(!Arc::ptr_eq(&got, &sent));
        assert_eq!(got, sent);
    }

    #[test]
    fn borrowed_transmit_delivers_the_senders_bytes_unless_altered() {
        use crate::adversary::CrossReplayer;
        let chan = test_channel();
        let sent = b"sealed register op".to_vec();
        let got = chan.transmit_borrowed(&sent, None).unwrap();
        assert!(
            matches!(got, Cow::Borrowed(bytes) if std::ptr::eq(bytes, &sent[..])),
            "honest link: the sender's bytes, at the same address"
        );

        chan.interpose(BitFlipper::new(0, 0));
        let got = chan.transmit_borrowed(&sent, None).unwrap();
        assert!(matches!(got, Cow::Owned(_)));
        assert_eq!(got[0], b's' ^ 1);
        assert_eq!(sent, b"sealed register op");

        // The second message is replaced by the first: owned.
        chan.interpose(CrossReplayer::new(0, 1));
        chan.transmit_borrowed(b"first", None).unwrap();
        let got = chan.transmit_borrowed(&sent, None).unwrap();
        assert!(matches!(got, Cow::Owned(ref bytes) if bytes == b"first"));
    }

    #[test]
    fn dropper_yields_error() {
        let chan = test_channel();
        chan.interpose(Dropper::after(0));
        assert_eq!(chan.transmit(b"x"), Err(NetError::Dropped));
    }

    #[test]
    fn clear_adversary_restores_honesty() {
        let chan = test_channel();
        chan.interpose(Dropper::after(0));
        chan.clear_adversary();
        assert!(chan.transmit(b"x").is_ok());
    }

    #[test]
    fn fault_drop_without_deadline_is_dropped() {
        use crate::fault::{FaultPlane, FaultSpec};
        let chan = test_channel();
        chan.set_fault_plane(FaultPlane::new(
            1,
            FaultSpec::default().with_drop_per_mille(1000),
        ));
        assert_eq!(chan.transmit(b"x"), Err(NetError::Dropped));
        chan.clear_fault_plane();
        assert!(chan.transmit(b"x").is_ok());
    }

    #[test]
    fn fault_drop_with_deadline_times_out_and_charges_the_wait() {
        use crate::fault::{FaultPlane, FaultSpec};
        let clock = SimClock::new();
        let chan = Channel::new(
            "a",
            "b",
            LinkClass::Loopback,
            LatencyModel::zero(),
            clock.clone(),
        );
        chan.set_fault_plane(FaultPlane::new(
            1,
            FaultSpec::default().with_drop_per_mille(1000),
        ));
        let deadline = Duration::from_millis(250);
        assert_eq!(
            chan.transmit_deadline(b"x", deadline),
            Err(NetError::TimedOut)
        );
        assert_eq!(clock.now(), deadline, "the full wait is charged");
    }

    #[test]
    fn duplicate_charges_twice_and_flags_delivery() {
        use crate::fault::{FaultPlane, FaultSpec};
        let clock = SimClock::new();
        let chan = Channel::new(
            "a",
            "b",
            LinkClass::Wan,
            LatencyModel::paper_calibrated(),
            clock.clone(),
        );
        chan.set_fault_plane(FaultPlane::new(
            1,
            FaultSpec::default().with_duplicate_per_mille(1000),
        ));
        let delivery = chan.transmit_ext(b"x", None).unwrap();
        assert!(delivery.duplicated);
        assert_eq!(delivery.bytes, b"x");
        assert!(clock.now() >= Duration::from_millis(80), "two crossings");
    }

    #[test]
    fn reorder_delivers_stale_payload_next() {
        use crate::fault::{FaultPlane, FaultSpec};
        let chan = test_channel();
        let plane = FaultPlane::new(42, FaultSpec::default().with_reorder_per_mille(500));
        chan.set_fault_plane(plane);
        let mut saw_stale = false;
        let mut last_held: Option<Vec<u8>> = None;
        for i in 0..64u32 {
            let msg = i.to_le_bytes();
            match chan.transmit(&msg) {
                Ok(bytes) => {
                    if bytes != msg {
                        assert_eq!(Some(bytes), last_held, "stale = previously held");
                        saw_stale = true;
                    }
                    last_held = None;
                }
                Err(NetError::Dropped) => {
                    // Held back (or evicted a previous hold — still held).
                    last_held = Some(msg.to_vec());
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_stale, "seed 42 at 50% produces at least one reorder");
    }

    #[test]
    fn adversary_and_fault_plane_compose() {
        use crate::fault::{FaultPlane, FaultSpec};
        let chan = test_channel();
        let handle = chan.interpose(Snooper::new());
        chan.set_fault_plane(FaultPlane::new(
            3,
            FaultSpec::default().with_drop_per_mille(1000),
        ));
        // The snooper still observes the message even though the fabric
        // then loses it.
        assert_eq!(chan.transmit(b"secret"), Err(NetError::Dropped));
        assert!(handle.with(|s| s.saw_bytes(b"secret")));
    }

    #[test]
    fn deadline_met_charges_only_link_cost() {
        let clock = SimClock::new();
        let chan = Channel::new(
            "a",
            "b",
            LinkClass::Wan,
            LatencyModel::paper_calibrated(),
            clock.clone(),
        );
        let before = clock.now();
        chan.transmit_deadline(b"x", Duration::from_secs(10))
            .unwrap();
        let spent = clock.now() - before;
        assert!(
            spent < Duration::from_millis(41),
            "no deadline charge: {spent:?}"
        );
    }
}
