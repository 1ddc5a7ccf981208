//! Minimal synchronous request/response fabric (the gRPC stand-in).
//!
//! The paper "leverages gRPC ... for easy development and extension"
//! (§5.2). Here, endpoints register named method handlers on a shared
//! [`RpcFabric`]; calls cross [`Channel`]s, so latency is charged and
//! adversaries can interpose on the wire format. Handlers may issue
//! nested calls to *other* endpoints (the cascaded attestation does
//! exactly this), but must not recursively invoke themselves.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::channel::Channel;
use crate::clock::SimClock;
use crate::fault::FaultPlane;
use crate::latency::{LatencyModel, LinkClass};
use crate::NetError;

/// A method handler: raw request bytes in, raw response bytes out.
pub type Handler = Box<dyn FnMut(&[u8]) -> Result<Vec<u8>, String> + Send>;

type MethodMap = HashMap<String, Arc<Mutex<Handler>>>;

/// Shared fabric connecting all endpoints of one simulated deployment.
///
/// ```
/// use salus_net::rpc::RpcFabric;
/// use salus_net::latency::{LatencyModel, LinkClass};
/// use salus_net::clock::SimClock;
///
/// let fabric = RpcFabric::new(SimClock::new(), LatencyModel::zero());
/// fabric.register_handler("server", "echo", Box::new(|req| Ok(req.to_vec())));
/// fabric.set_route("client", "server", LinkClass::IntraCloud);
/// let rsp = fabric.call("client", "server", "echo", b"ping").unwrap();
/// assert_eq!(rsp, b"ping");
/// ```
#[derive(Clone)]
pub struct RpcFabric {
    inner: Arc<FabricInner>,
}

struct FabricInner {
    clock: SimClock,
    model: LatencyModel,
    endpoints: Mutex<HashMap<String, MethodMap>>,
    channels: Mutex<HashMap<(String, String), Channel>>,
    routes: Mutex<HashMap<(String, String), LinkClass>>,
    fault_plane: Mutex<Option<FaultPlane>>,
}

impl std::fmt::Debug for RpcFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcFabric")
            .field("endpoints", &self.inner.endpoints.lock().len())
            .finish_non_exhaustive()
    }
}

impl RpcFabric {
    /// Creates an empty fabric over the given clock and latency model.
    pub fn new(clock: SimClock, model: LatencyModel) -> RpcFabric {
        RpcFabric {
            inner: Arc::new(FabricInner {
                clock,
                model,
                endpoints: Mutex::new(HashMap::new()),
                channels: Mutex::new(HashMap::new()),
                routes: Mutex::new(HashMap::new()),
                fault_plane: Mutex::new(None),
            }),
        }
    }

    /// Installs `plane` on every channel of the fabric — existing and
    /// future. Fault decisions and held-back messages live on the plane,
    /// so one plane shared across channels forms one coherent schedule.
    pub fn install_fault_plane(&self, plane: FaultPlane) {
        for channel in self.inner.channels.lock().values() {
            channel.set_fault_plane(plane.clone());
        }
        *self.inner.fault_plane.lock() = Some(plane);
    }

    /// Removes the fault plane from the fabric and all its channels.
    pub fn clear_fault_plane(&self) {
        for channel in self.inner.channels.lock().values() {
            channel.clear_fault_plane();
        }
        *self.inner.fault_plane.lock() = None;
    }

    /// Whether a fault plane is installed on the fabric. Its fault
    /// decisions draw from one shared RNG and read the shared clock, so
    /// callers that would transmit from several threads at once check
    /// this and stay on one thread instead.
    pub fn has_fault_plane(&self) -> bool {
        self.inner.fault_plane.lock().is_some()
    }

    /// The fabric's shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Registers (or replaces) a handler for `method` at `endpoint`.
    pub fn register_handler(&self, endpoint: &str, method: &str, handler: Handler) {
        self.inner
            .endpoints
            .lock()
            .entry(endpoint.to_owned())
            .or_default()
            .insert(method.to_owned(), Arc::new(Mutex::new(handler)));
    }

    /// Declares the link class for the `src → dst` direction (and its
    /// reverse). Defaults to [`LinkClass::Loopback`] when unset.
    pub fn set_route(&self, src: &str, dst: &str, class: LinkClass) {
        let mut routes = self.inner.routes.lock();
        routes.insert((src.to_owned(), dst.to_owned()), class);
        routes.insert((dst.to_owned(), src.to_owned()), class);
    }

    /// Returns the (lazily created) channel for `src → dst`, e.g. to
    /// interpose an adversary on it.
    pub fn channel(&self, src: &str, dst: &str) -> Channel {
        let class = self
            .inner
            .routes
            .lock()
            .get(&(src.to_owned(), dst.to_owned()))
            .copied()
            .unwrap_or(LinkClass::Loopback);
        self.inner
            .channels
            .lock()
            .entry((src.to_owned(), dst.to_owned()))
            .or_insert_with(|| {
                let channel = Channel::new(
                    src,
                    dst,
                    class,
                    self.inner.model.clone(),
                    self.inner.clock.clone(),
                );
                if let Some(plane) = self.inner.fault_plane.lock().as_ref() {
                    channel.set_fault_plane(plane.clone());
                }
                channel
            })
            .clone()
    }

    /// Performs a synchronous call of `method` at `dst`, originating from
    /// `src`. The request and response both cross adversary-interposable
    /// channels.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownEndpoint`] / [`NetError::UnknownMethod`] for
    ///   routing failures,
    /// * [`NetError::Dropped`] if an adversary drops either direction,
    /// * [`NetError::Remote`] if the handler fails or the (possibly
    ///   tampered) request frame cannot be parsed.
    pub fn call(
        &self,
        src: &str,
        dst: &str,
        method: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        self.call_with_deadline(src, dst, method, payload, None)
    }

    /// [`call`](RpcFabric::call) with an optional per-call deadline.
    ///
    /// The deadline covers the whole round trip in *virtual* time: if
    /// either direction is lost or the handler's virtual cost pushes the
    /// call past the budget, the caller is charged the remaining wait
    /// and gets [`NetError::TimedOut`]. When the fault plane duplicates
    /// the request, the handler runs twice (the duplicate's response is
    /// discarded) — services must be idempotent to tolerate this.
    ///
    /// # Errors
    ///
    /// As [`call`](RpcFabric::call), plus [`NetError::TimedOut`].
    pub fn call_with_deadline(
        &self,
        src: &str,
        dst: &str,
        method: &str,
        payload: &[u8],
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, NetError> {
        let handler = {
            let endpoints = self.inner.endpoints.lock();
            let methods = endpoints
                .get(dst)
                .ok_or_else(|| NetError::UnknownEndpoint(dst.to_owned()))?;
            methods
                .get(method)
                .ok_or_else(|| NetError::UnknownMethod(format!("{dst}/{method}")))?
                .clone()
        };

        let sw = self.inner.clock.stopwatch();
        let remaining =
            |sw: &crate::clock::Stopwatch| deadline.map(|d| d.saturating_sub(sw.elapsed()));

        let forward = self.channel(src, dst);
        let framed = frame(method, payload);
        let delivery = forward.transmit_ext(&framed, remaining(&sw))?;
        let (_, observed_payload) = unframe(&delivery.bytes)
            .ok_or_else(|| NetError::Remote("malformed request frame".to_owned()))?;

        let response = handler.lock()(observed_payload).map_err(NetError::Remote)?;
        if delivery.duplicated {
            // The fabric delivered the request twice: the handler runs
            // again and its second response is discarded on the floor.
            let _ = handler.lock()(observed_payload);
        }

        if let Some(d) = deadline {
            if sw.elapsed() >= d {
                return Err(NetError::TimedOut);
            }
        }

        let backward = self.channel(dst, src);
        backward
            .transmit_ext(&response, remaining(&sw))
            .map(|d| d.bytes)
    }
}

/// Frames `method` + `payload` into one wire message.
fn frame(method: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + method.len() + payload.len());
    out.extend_from_slice(&(method.len() as u32).to_le_bytes());
    out.extend_from_slice(method.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses a wire message back into `(method, payload)`.
fn unframe(bytes: &[u8]) -> Option<(&str, &[u8])> {
    if bytes.len() < 4 {
        return None;
    }
    let method_len = u32::from_le_bytes(bytes[..4].try_into().ok()?) as usize;
    if bytes.len() < 4 + method_len {
        return None;
    }
    let method = std::str::from_utf8(&bytes[4..4 + method_len]).ok()?;
    Some((method, &bytes[4 + method_len..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Dropper, Snooper};
    use std::time::Duration;

    fn fabric() -> RpcFabric {
        RpcFabric::new(SimClock::new(), LatencyModel::zero())
    }

    #[test]
    fn echo_roundtrip() {
        let f = fabric();
        f.register_handler("srv", "echo", Box::new(|req| Ok(req.to_vec())));
        assert_eq!(f.call("cli", "srv", "echo", b"hi").unwrap(), b"hi");
    }

    #[test]
    fn has_fault_plane_follows_install_and_clear() {
        let f = fabric();
        assert!(!f.has_fault_plane());
        f.install_fault_plane(FaultPlane::inert());
        assert!(f.has_fault_plane(), "an inert plane still counts");
        f.clear_fault_plane();
        assert!(!f.has_fault_plane());
    }

    #[test]
    fn unknown_endpoint_and_method() {
        let f = fabric();
        f.register_handler("srv", "echo", Box::new(|req| Ok(req.to_vec())));
        assert!(matches!(
            f.call("cli", "nobody", "echo", b""),
            Err(NetError::UnknownEndpoint(_))
        ));
        assert!(matches!(
            f.call("cli", "srv", "nope", b""),
            Err(NetError::UnknownMethod(_))
        ));
    }

    #[test]
    fn remote_error_propagates() {
        let f = fabric();
        f.register_handler("srv", "fail", Box::new(|_| Err("boom".to_owned())));
        assert_eq!(
            f.call("cli", "srv", "fail", b""),
            Err(NetError::Remote("boom".to_owned()))
        );
    }

    #[test]
    fn routed_call_charges_latency() {
        let f = RpcFabric::new(SimClock::new(), LatencyModel::paper_calibrated());
        f.register_handler("srv", "echo", Box::new(|req| Ok(req.to_vec())));
        f.set_route("cli", "srv", LinkClass::Wan);
        f.call("cli", "srv", "echo", b"x").unwrap();
        // one-way 40 ms each direction
        assert!(f.clock().now() >= Duration::from_millis(80));
    }

    #[test]
    fn adversary_on_request_channel_sees_frames() {
        let f = fabric();
        f.register_handler("srv", "echo", Box::new(|req| Ok(req.to_vec())));
        let handle = f.channel("cli", "srv").interpose(Snooper::new());
        f.call("cli", "srv", "echo", b"topsecret").unwrap();
        assert!(handle.with(|s| s.saw_bytes(b"topsecret")));
    }

    #[test]
    fn dropped_request_is_an_error() {
        let f = fabric();
        f.register_handler("srv", "echo", Box::new(|req| Ok(req.to_vec())));
        f.channel("cli", "srv").interpose(Dropper::after(0));
        assert_eq!(f.call("cli", "srv", "echo", b"x"), Err(NetError::Dropped));
    }

    #[test]
    fn dropped_response_is_an_error_and_handler_side_effects_stick() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let f = fabric();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        f.register_handler(
            "srv",
            "echo",
            Box::new(move |req| {
                h.fetch_add(1, Ordering::SeqCst);
                Ok(req.to_vec())
            }),
        );
        // Only the response direction is lossy.
        f.channel("srv", "cli").interpose(Dropper::after(0));
        assert_eq!(f.call("cli", "srv", "echo", b"x"), Err(NetError::Dropped));
        // The server *did* process the request — exactly the asymmetry
        // idempotent retry has to survive.
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // The request direction keeps working.
        f.channel("cli", "srv")
            .interpose(crate::adversary::Snooper::new());
        assert_eq!(f.call("cli", "srv", "echo", b"y"), Err(NetError::Dropped));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn duplicate_delivery_invokes_handler_twice_returns_first_response() {
        use crate::fault::{FaultPlane, FaultSpec};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let f = fabric();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        // A counter service: each invocation observably mutates state.
        f.register_handler(
            "srv",
            "count",
            Box::new(move |_| {
                let n = h.fetch_add(1, Ordering::SeqCst) + 1;
                Ok(vec![n as u8])
            }),
        );
        // Duplicate only the request direction: decisions alternate per
        // message, so pick a spec that duplicates everything and clear
        // the plane from the response channel.
        f.install_fault_plane(FaultPlane::new(
            1,
            FaultSpec::default().with_duplicate_per_mille(1000),
        ));
        f.channel("srv", "cli").clear_fault_plane();
        let rsp = f.call("cli", "srv", "count", b"").unwrap();
        // Handler ran twice; the duplicate's response was discarded.
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(rsp, vec![1]);
    }

    #[test]
    fn call_deadline_times_out_on_drop_and_charges_virtual_time() {
        use crate::fault::{FaultPlane, FaultSpec};
        let f = fabric();
        f.register_handler("srv", "echo", Box::new(|req| Ok(req.to_vec())));
        f.install_fault_plane(FaultPlane::new(
            2,
            FaultSpec::default().with_drop_per_mille(1000),
        ));
        let deadline = Duration::from_millis(100);
        let before = f.clock().now();
        assert_eq!(
            f.call_with_deadline("cli", "srv", "echo", b"x", Some(deadline)),
            Err(NetError::TimedOut)
        );
        assert_eq!(f.clock().now() - before, deadline);
    }

    #[test]
    fn call_deadline_met_is_transparent() {
        let f = RpcFabric::new(SimClock::new(), LatencyModel::paper_calibrated());
        f.register_handler("srv", "echo", Box::new(|req| Ok(req.to_vec())));
        f.set_route("cli", "srv", LinkClass::Wan);
        let rsp = f
            .call_with_deadline("cli", "srv", "echo", b"x", Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(rsp, b"x");
        // Only the two crossings are charged, not the deadline.
        assert!(f.clock().now() < Duration::from_millis(100));
    }

    #[test]
    fn nested_calls_between_endpoints_work() {
        let f = fabric();
        let f2 = f.clone();
        f.register_handler("inner", "double", Box::new(|req| Ok([req, req].concat())));
        f.register_handler(
            "outer",
            "relay",
            Box::new(move |req| {
                f2.call("outer", "inner", "double", req)
                    .map_err(|e| e.to_string())
            }),
        );
        assert_eq!(f.call("cli", "outer", "relay", b"ab").unwrap(), b"abab");
    }

    #[test]
    fn frame_unframe_roundtrip() {
        let framed = frame("method.name", b"payload");
        let (m, p) = unframe(&framed).unwrap();
        assert_eq!(m, "method.name");
        assert_eq!(p, b"payload");
        assert!(unframe(&framed[..2]).is_none());
    }
}
