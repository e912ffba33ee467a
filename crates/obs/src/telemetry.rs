//! The [`Telemetry`] handle: one cheap-to-clone object bundling a span/
//! event [`Sink`] with a [`MetricsRegistry`], plus the RAII [`Span`]
//! timer the pipeline instruments itself with.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::MetricsRegistry;
use crate::sink::{EventRecord, Field, NoopSink, Sink, SpanRecord};

thread_local! {
    /// Worker id stamped onto spans closed on this thread. `0` means
    /// "main thread" and is the default everywhere.
    static WORKER_ID: Cell<u32> = const { Cell::new(0) };
    /// Robot id stamped onto spans closed on this thread. `0` means
    /// "no robot context" and is the default everywhere.
    static ROBOT_ID: Cell<u32> = const { Cell::new(0) };
}

/// Registers the calling thread as telemetry worker `id`.
///
/// The fleet engine's thread pool calls this once per worker (with ids
/// `1..`) so that spans closed off the main thread — e.g. a fleet
/// robot's `engine.step` — carry the worker that actually ran them.
pub fn set_worker(id: u32) {
    WORKER_ID.with(|w| w.set(id));
}

/// The telemetry worker id of the calling thread (`0` on the main
/// thread and any thread that never called [`set_worker`]).
pub fn current_worker() -> u32 {
    WORKER_ID.with(Cell::get)
}

/// Sets the robot context of the calling thread: spans closed until the
/// next call carry robot id `id`.
///
/// The fleet engine brackets each robot's detector step with
/// `set_robot(robot_index + 1)` / `set_robot(0)` so one shared sink can
/// attribute every span to the robot it served. `0` clears the context
/// (the default on every thread).
pub fn set_robot(id: u32) {
    ROBOT_ID.with(|r| r.set(id));
}

/// The robot id of the calling thread (`0` when no robot context is
/// set; fleet robots are `1..`).
pub fn current_robot() -> u32 {
    ROBOT_ID.with(Cell::get)
}

/// Sets the robot context of the calling thread for the lifetime of the
/// returned guard, restoring the previous id when the guard drops —
/// **including during unwinding**.
///
/// Prefer this over a manual [`set_robot`]`(id)` / `set_robot(0)` pair
/// anywhere the bracketed work can panic: a pool worker catches job
/// panics and lives on, so a skipped manual reset would leak the robot
/// id into the worker's thread-local and mislabel every span that
/// worker closes afterwards.
#[must_use = "the robot context resets when this guard drops"]
pub fn robot_scope(id: u32) -> RobotScope {
    let prev = current_robot();
    set_robot(id);
    RobotScope { prev }
}

/// RAII guard returned by [`robot_scope`]: restores the previous robot
/// context on drop (normal exit and unwinding alike).
#[derive(Debug)]
pub struct RobotScope {
    prev: u32,
}

impl Drop for RobotScope {
    fn drop(&mut self) {
        set_robot(self.prev);
    }
}

/// Shared telemetry context threaded through the detection pipeline.
///
/// Cloning shares the sink, the registry and the epoch, so a simulation
/// run can hand the same context to the engine, the decision maker and
/// the runner and read one coherent snapshot afterwards.
///
/// The default is [`Telemetry::disabled`]: spans and events vanish into
/// a [`NoopSink`] without even reading the clock, while metrics are
/// still collected (atomics are cheap enough to always stay on, and the
/// post-run health summary depends on them).
#[derive(Clone)]
pub struct Telemetry {
    sink: Arc<dyn Sink>,
    metrics: Arc<MetricsRegistry>,
    epoch: Instant,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("sink", &self.sink)
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A context whose sink drops everything (metrics still collect).
    pub fn disabled() -> Self {
        Telemetry::new(Arc::new(NoopSink))
    }

    /// A context with the given sink and a fresh registry.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Telemetry::with_registry(sink, Arc::new(MetricsRegistry::new()))
    }

    /// A context with the given sink and an existing registry. The sink
    /// is handed the registry ([`Sink::bind_metrics`]) so loss-tracking
    /// sinks can register their counters alongside the pipeline's.
    pub fn with_registry(sink: Arc<dyn Sink>, metrics: Arc<MetricsRegistry>) -> Self {
        sink.bind_metrics(&metrics);
        Telemetry {
            sink,
            metrics,
            epoch: Instant::now(),
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The sink.
    pub fn sink(&self) -> &Arc<dyn Sink> {
        &self.sink
    }

    /// Whether the sink is listening (spans/events are worth timing).
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Nanoseconds since this context's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a timed span; the span is recorded when the guard drops.
    /// With a disabled sink this never reads the clock.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            telemetry: self,
            name,
            start: if self.enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Opens a timed span that owns its sink handle instead of
    /// borrowing the `Telemetry`, so the caller can keep mutating the
    /// object that holds the telemetry while the span is live.
    ///
    /// With a disabled sink this performs no clock read and no
    /// allocation (not even an `Arc` clone); when enabled it costs one
    /// `Arc` clone — still allocation-free.
    pub fn owned_span(&self, name: &'static str) -> OwnedSpan {
        OwnedSpan {
            name,
            inner: if self.enabled() {
                Some(OwnedSpanInner {
                    sink: Arc::clone(&self.sink),
                    epoch: self.epoch,
                    start: Instant::now(),
                })
            } else {
                None
            },
        }
    }

    /// Emits an event. `fields` is a closure so that argument assembly
    /// (including any string formatting) is skipped entirely when the
    /// sink is disabled.
    pub fn event(&self, name: &'static str, fields: impl FnOnce() -> Vec<Field>) {
        if !self.enabled() {
            return;
        }
        self.sink.record_event(&EventRecord {
            name,
            time_ns: self.now_ns(),
            fields: fields(),
        });
    }
}

/// RAII span timer returned by [`Telemetry::span`].
///
/// ```
/// use roboads_obs::{RingBufferSink, Telemetry};
/// use std::sync::Arc;
///
/// let ring = Arc::new(RingBufferSink::new(16));
/// let telemetry = Telemetry::new(ring.clone());
/// {
///     let _span = telemetry.span("engine.step");
///     // ... timed work ...
/// }
/// assert_eq!(ring.spans()[0].name, "engine.step");
/// ```
#[derive(Debug)]
pub struct Span<'a> {
    telemetry: &'a Telemetry,
    name: &'static str,
    start: Option<Instant>,
}

impl Span<'_> {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_closed_span(
                &*self.telemetry.sink,
                self.telemetry.epoch,
                start,
                self.name,
            );
        }
    }
}

fn record_closed_span(sink: &dyn Sink, epoch: Instant, start: Instant, name: &'static str) {
    // One clock read serves both the duration and the epoch offset —
    // this runs once per pipeline stage per step.
    let now = Instant::now();
    let duration_ns = now.duration_since(start).as_nanos() as u64;
    let end_ns = now.duration_since(epoch).as_nanos() as u64;
    sink.record_span(&SpanRecord {
        name,
        start_ns: end_ns.saturating_sub(duration_ns),
        duration_ns,
        worker: current_worker(),
        robot: current_robot(),
    });
}

#[derive(Debug)]
struct OwnedSpanInner {
    sink: Arc<dyn Sink>,
    epoch: Instant,
    start: Instant,
}

/// RAII span timer returned by [`Telemetry::owned_span`]: identical to
/// [`Span`] but holds its own sink handle instead of borrowing the
/// `Telemetry`, freeing the caller to mutate whatever owns the
/// telemetry while the span is live.
#[derive(Debug)]
pub struct OwnedSpan {
    name: &'static str,
    inner: Option<OwnedSpanInner>,
}

impl OwnedSpan {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for OwnedSpan {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            record_closed_span(&*inner.sink, inner.epoch, inner.start, self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{RingBufferSink, Value};

    #[test]
    fn disabled_telemetry_skips_spans_and_events_but_keeps_metrics() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        {
            let _s = t.span("x");
        }
        let mut built = false;
        t.event("e", || {
            built = true;
            vec![]
        });
        assert!(!built, "field closure must not run when disabled");
        t.metrics().counter("c").incr();
        assert_eq!(t.metrics().counter_value("c"), Some(1));
    }

    #[test]
    fn spans_and_events_reach_the_sink_in_order() {
        let ring = Arc::new(RingBufferSink::new(16));
        let t = Telemetry::new(ring.clone());
        {
            let _outer = t.span("outer");
            let inner = t.span("inner");
            inner.finish();
            t.event("marker", || vec![("k", Value::U64(1))]);
        }
        let records = ring.records();
        // inner finishes first, then the event, then outer on drop.
        assert_eq!(records.len(), 3);
        assert!(matches!(&records[0], crate::sink::TelemetryRecord::Span(s) if s.name == "inner"));
        assert!(
            matches!(&records[1], crate::sink::TelemetryRecord::Event(e) if e.name == "marker")
        );
        assert!(matches!(&records[2], crate::sink::TelemetryRecord::Span(s) if s.name == "outer"));
    }

    #[test]
    fn owned_span_records_like_a_borrowed_span() {
        let ring = Arc::new(RingBufferSink::new(4));
        let t = Telemetry::new(ring.clone());
        {
            let _s = t.owned_span("owned");
        }
        let spans = ring.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "owned");
        assert_eq!(spans[0].worker, 0);

        // Disabled telemetry never reads the clock or clones the sink.
        let off = Telemetry::disabled();
        let _s = off.owned_span("skipped");
    }

    #[test]
    fn worker_id_is_thread_local_and_stamped_on_spans() {
        let ring = Arc::new(RingBufferSink::new(4));
        let t = Telemetry::new(ring.clone());
        assert_eq!(current_worker(), 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                set_worker(3);
                assert_eq!(current_worker(), 3);
                let _span = t.span("off-main");
            });
        });
        // The spawned thread's id never leaks back to this thread.
        assert_eq!(current_worker(), 0);
        assert_eq!(ring.spans()[0].worker, 3);
    }

    #[test]
    fn robot_id_brackets_spans_and_resets() {
        let ring = Arc::new(RingBufferSink::new(4));
        let t = Telemetry::new(ring.clone());
        assert_eq!(current_robot(), 0);
        set_robot(7);
        {
            let _span = t.span("fleet.robot_step");
        }
        set_robot(0);
        {
            let _span = t.span("after");
        }
        let spans = ring.spans();
        assert_eq!(spans[0].robot, 7);
        assert_eq!(spans[1].robot, 0);
        // Robot context is thread-local, like the worker id.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(current_robot(), 0));
        });
    }

    #[test]
    fn robot_scope_restores_previous_id_on_drop_and_panic() {
        assert_eq!(current_robot(), 0);
        set_robot(2);
        {
            let _guard = robot_scope(9);
            assert_eq!(current_robot(), 9);
        }
        assert_eq!(current_robot(), 2, "guard restores the previous id");
        // The reset must also run while unwinding: a panic inside the
        // scope may be caught (pool workers catch job panics), and a
        // leaked id would mislabel every later span on the thread.
        let result = std::panic::catch_unwind(|| {
            let _guard = robot_scope(5);
            panic!("job exploded");
        });
        assert!(result.is_err());
        assert_eq!(current_robot(), 2, "guard resets during unwinding");
        set_robot(0);
    }

    #[test]
    fn clones_share_sink_and_registry() {
        let ring = Arc::new(RingBufferSink::new(4));
        let t = Telemetry::new(ring.clone());
        let t2 = t.clone();
        t2.metrics().counter("shared").incr();
        assert_eq!(t.metrics().counter_value("shared"), Some(1));
        {
            let _s = t2.span("s");
        }
        assert_eq!(ring.len(), 1);
    }
}
