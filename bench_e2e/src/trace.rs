//! In-memory spans recorded from the benchmark's own calls into each
//! layer, on both clocks.
//!
//! A span is `{id, parent, op_id, layer, name, host_ns, model_ns}`:
//! `host_ns` is `Instant` time, `model_ns` the node's `SimClock` advance
//! over the same call, `parent` the span open around it, and `op_id` the
//! benchmark operation (churn op or served round) it belongs to. A
//! layer's self time is its span minus its children.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use salus::accel::profile::AppProfile;
use salus::accel::workload::Workload;
use salus::bitstream::netlist::Module;
use salus::net::clock::SimClock;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in recording order.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The benchmark operation this span belongs to.
    pub op_id: u64,
    /// Layer label (`node`, `serving`, `accel`, `stage`, ...).
    pub layer: &'static str,
    /// Call name within the layer.
    pub name: &'static str,
    /// Host (`Instant`) duration.
    pub host_ns: u64,
    /// Model (`SimClock`) advance.
    pub model_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
    clock: Option<SimClock>,
}

struct Shared {
    /// Whether calls are recorded right now: a traced run pauses
    /// recording for every other round or operation, so the two can be
    /// compared under the same host conditions. Only the benchmark's one
    /// client thread reads or flips it.
    recording: AtomicBool,
    state: Mutex<State>,
}

/// A span recorder; `Tracer::default()` records nothing, so untraced runs
/// pay one branch per call site.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Shared>>);

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Shared {
            recording: AtomicBool::new(true),
            state: Mutex::default(),
        })))
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether calls are being recorded right now.
    pub fn recording(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|s| s.recording.load(Ordering::Relaxed))
    }

    /// Pauses (`false`) or resumes (`true`) recording; no effect on an
    /// untraced run.
    pub fn set_recording(&self, on: bool) {
        if let Some(shared) = &self.0 {
            shared.recording.store(on, Ordering::Relaxed);
        }
    }

    fn state(&self) -> Option<std::sync::MutexGuard<'_, State>> {
        self.0
            .as_ref()
            .map(|s| s.state.lock().expect("tracer poisoned by a panicking span"))
    }

    /// Sets the model clock spans read from (one per node).
    pub fn set_clock(&self, clock: &SimClock) {
        if let Some(mut state) = self.state() {
            state.clock = Some(clock.clone());
        }
    }

    /// Tags subsequent spans with `op_id`.
    pub fn set_op(&self, op_id: u64) {
        if let Some(mut state) = self.state() {
            state.op_id = op_id;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(layer, name, f).0
    }

    /// Runs `f` inside a span and returns its host duration, which is
    /// measured whether or not spans are recorded.
    pub fn timed<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        if !self.recording() {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        }
        let shared = self.0.as_ref().expect("recording implies a tracer");
        let (id, model_start) = {
            let mut state = shared.state.lock().expect("tracer poisoned");
            let id = state.spans.len();
            let span = Span {
                id,
                parent: state.open.last().copied(),
                op_id: state.op_id,
                layer,
                name,
                host_ns: 0,
                model_ns: 0,
            };
            state.spans.push(span);
            state.open.push(id);
            (id, state.clock.as_ref().map_or(0, SimClock::now_ns))
        };
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        let mut state = shared.state.lock().expect("tracer poisoned");
        let model_end = state.clock.as_ref().map_or(0, SimClock::now_ns);
        let span = &mut state.spans[id];
        span.host_ns = took.as_nanos() as u64;
        span.model_ns = model_end.saturating_sub(model_start);
        state.open.pop();
        (out, took)
    }

    /// Spans recorded so far (0 when off): a mark for slicing
    /// [`spans`](Tracer::spans) by benchmark phase.
    pub fn recorded(&self) -> usize {
        self.state().map_or(0, |s| s.spans.len())
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state().map(|s| s.spans.clone()).unwrap_or_default()
    }
}

/// Host self time (span minus direct children) of every span, by id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.host_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.host_ns);
        }
    }
    own
}

/// Writes spans as the trace file's JSON array, one span per line
/// (streamed: a serving trace holds hundreds of thousands of spans).
///
/// # Errors
///
/// Write failures.
pub fn write_json(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            r#"{{"id":{},"parent":{parent},"op_id":{},"layer":"{}","name":"{}","host_ns":{},"model_ns":{}}}{sep}"#,
            s.id, s.op_id, s.layer, s.name, s.host_ns, s.model_ns
        )?;
    }
    writeln!(out, "]")
}

/// A workload whose compute runs inside an `accel`/`compute` span, in
/// the style of `WithInput`: deployed in its place, it puts accelerator
/// time in child spans of whatever benchmark call drove the request.
pub struct Traced {
    inner: Box<dyn Workload>,
    tracer: Tracer,
}

impl Traced {
    /// Wraps `inner` so its compute records into `tracer`.
    pub fn new(inner: &dyn Workload, tracer: &Tracer) -> Traced {
        Traced {
            inner: inner.clone_box(),
            tracer: tracer.clone(),
        }
    }
}

impl Workload for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn input(&self) -> &[u8] {
        self.inner.input()
    }

    fn compute(&self, input: &[u8]) -> Vec<u8> {
        self.tracer
            .span("accel", "compute", || self.inner.compute(input))
    }

    fn accelerator_module(&self) -> Module {
        self.inner.accelerator_module()
    }

    fn profile(&self) -> AppProfile {
        self.inner.profile()
    }

    fn encrypt_output(&self) -> bool {
        self.inner.encrypt_output()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(Traced {
            inner: self.inner.clone_box(),
            tracer: self.tracer.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::on();
        tracer.span("outer", "a", || {
            tracer.span("inner", "b", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = self_times(&spans);
        assert_eq!(own[0] + own[1], spans[0].host_ns);
        assert!(own[1] >= 2_000_000);
        tracer.set_recording(false);
        tracer.span("paused", "c", || ());
        assert_eq!(tracer.spans().len(), 2);
        assert!(Tracer::default().spans().is_empty());
    }
}
