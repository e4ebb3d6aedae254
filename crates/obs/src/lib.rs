//! Structured tracing and metrics for the RTLCheck Figure-7 pipeline.
//!
//! The verification flow (design build → assumption generation → assertion
//! generation → covering-trace search → per-property engine runs) reports
//! its progress through the [`Collector`] trait: *spans* bracket timed
//! phases, *counters* accumulate exploration statistics, and *events* mark
//! discrete outcomes (verdicts, vacuous proofs, budget exhaustion). The
//! crate is dependency-free by design — the build environment is offline —
//! including its own [`json`] module.
//!
//! Three collectors are provided:
//!
//! * [`NullCollector`] — the default; every hook is a no-op, so the
//!   instrumented code paths cost one virtual call when observability is
//!   off.
//! * [`JsonlCollector`] — streams every span/counter/event as one JSON
//!   object per line (the `--events out.jsonl` format).
//! * [`MetricsCollector`] — aggregates in memory: per-span-name duration
//!   histograms, counter totals, event counts, and the slowest spans per
//!   name. Its [`MetricsSummary`] snapshot serializes to the
//!   `--metrics out.json` format and renders the `rtlcheck profile` view.
//!
//! [`MultiCollector`] fans one stream out to several collectors so a run
//! can produce raw events and aggregated metrics simultaneously.
//!
//! Timing discipline: a [`SpanGuard`] measures its duration exactly once,
//! at [`SpanGuard::finish`], and that single measurement both reaches the
//! collector's [`Collector::span_exit`] hook and is returned to the caller.
//! CLI-reported times and metrics-reported times therefore cannot disagree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub mod json;
mod jsonl;
mod metrics;
pub mod progress;
pub mod trace;

pub use jsonl::JsonlCollector;
pub use metrics::{
    CounterSummary, Histogram, MetricsCollector, MetricsSummary, SlowSpan, SpanSummary,
    SummaryError,
};
pub use progress::ProgressSink;
pub use trace::TraceCollector;

/// A single attribute value attached to a span, counter, or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string attribute.
    Str(String),
    /// An unsigned integer attribute.
    Uint(u64),
    /// A signed integer attribute.
    Int(i64),
    /// A floating-point attribute.
    Float(f64),
    /// A boolean attribute.
    Bool(bool),
}

impl AttrValue {
    /// Renders the value for human-readable labels.
    pub fn display(&self) -> String {
        match self {
            AttrValue::Str(s) => s.clone(),
            AttrValue::Uint(n) => n.to_string(),
            AttrValue::Int(n) => n.to_string(),
            AttrValue::Float(x) => x.to_string(),
            AttrValue::Bool(b) => b.to_string(),
        }
    }

    /// Converts to a [`json::Json`] value. Unsigned integers take the
    /// exact [`json::Json::Uint`] path (no rounding above 2⁵³).
    pub fn to_json(&self) -> json::Json {
        match self {
            AttrValue::Str(s) => json::Json::Str(s.clone()),
            AttrValue::Uint(n) => json::Json::Uint(*n),
            AttrValue::Int(n) => json::Json::Num(*n as f64),
            AttrValue::Float(x) => json::Json::Num(*x),
            AttrValue::Bool(b) => json::Json::Bool(*b),
        }
    }
}

macro_rules! attr_from {
    ($($t:ty => $variant:ident as $conv:ty),+ $(,)?) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> AttrValue {
                AttrValue::$variant(v as $conv)
            }
        }
    )+};
}

attr_from! {
    u64 => Uint as u64,
    u32 => Uint as u64,
    usize => Uint as u64,
    i64 => Int as i64,
    i32 => Int as i64,
    f64 => Float as f64,
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<&String> for AttrValue {
    fn from(v: &String) -> AttrValue {
        AttrValue::Str(v.clone())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// A borrowed attribute list, as passed to every [`Collector`] hook.
///
/// Keys are `&'static str` (attribute names are code, not data), which lets
/// [`SpanGuard`] retain a copy without tying its lifetime to the caller's
/// temporary slice.
pub type Attrs<'a> = &'a [(&'static str, AttrValue)];

/// Builds an attribute list in place: `attrs!["test" => name, "n" => 3u64]`.
///
/// The expansion is a borrowed slice, so it can be passed directly to the
/// [`Collector`] hooks and to [`span`].
#[macro_export]
macro_rules! attrs {
    ($($k:literal => $v:expr),* $(,)?) => {
        &[$(($k, $crate::AttrValue::from($v))),*][..]
    };
}

/// Identifier of one span instance; unique within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

impl SpanId {
    fn next() -> SpanId {
        SpanId(NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// Receiver of the instrumentation stream.
///
/// All hooks take `&self`; implementations use interior mutability. The
/// default implementations are no-ops so collectors only override what they
/// consume.
pub trait Collector {
    /// A timed phase has started.
    fn span_enter(&self, id: SpanId, name: &str, attrs: Attrs) {
        let _ = (id, name, attrs);
    }

    /// A timed phase has ended; `elapsed` is its single authoritative
    /// duration measurement.
    fn span_exit(&self, id: SpanId, name: &str, elapsed: Duration, attrs: Attrs) {
        let _ = (id, name, elapsed, attrs);
    }

    /// A named quantity observed once (totals are the consumer's job).
    fn counter(&self, name: &str, value: u64, attrs: Attrs) {
        let _ = (name, value, attrs);
    }

    /// A discrete occurrence.
    fn event(&self, name: &str, attrs: Attrs) {
        let _ = (name, attrs);
    }
}

/// References forward to the underlying collector, so `&TraceCollector`
/// (or any other shared sink) can be used wherever a collector is needed.
impl<T: Collector + ?Sized> Collector for &T {
    fn span_enter(&self, id: SpanId, name: &str, attrs: Attrs) {
        (**self).span_enter(id, name, attrs);
    }

    fn span_exit(&self, id: SpanId, name: &str, elapsed: Duration, attrs: Attrs) {
        (**self).span_exit(id, name, elapsed, attrs);
    }

    fn counter(&self, name: &str, value: u64, attrs: Attrs) {
        (**self).counter(name, value, attrs);
    }

    fn event(&self, name: &str, attrs: Attrs) {
        (**self).event(name, attrs);
    }
}

/// A live side-channel sink that hands out per-worker collector views.
///
/// The deterministic path (metrics, JSONL, reports) goes through
/// [`BufferCollector`] replay in suite order; live sinks — the Chrome
/// trace ([`trace::TraceCollector`]) and the progress ticker
/// ([`progress::ProgressSink`]) — need the *real* parallel schedule
/// instead, so each worker thread asks every live sink for a track bound
/// to its worker index and reports through it as work happens.
pub trait TrackSink: Sync {
    /// A collector view for worker `tid` (0 is the main/driver track).
    fn track(&self, tid: u64) -> Box<dyn Collector + '_>;
}

impl TrackSink for trace::TraceCollector {
    fn track(&self, tid: u64) -> Box<dyn Collector + '_> {
        Box::new(trace::TraceCollector::track(self, tid))
    }
}

impl TrackSink for progress::ProgressSink {
    /// The ticker aggregates globally, so every track is the sink itself.
    fn track(&self, _tid: u64) -> Box<dyn Collector + '_> {
        Box::new(self)
    }
}

/// The no-op collector: observability off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCollector;

impl Collector for NullCollector {}

/// Fans the stream out to several collectors (e.g. JSONL + metrics).
pub struct MultiCollector<'a> {
    sinks: Vec<&'a dyn Collector>,
}

impl<'a> MultiCollector<'a> {
    /// Builds a fan-out over the given collectors.
    pub fn new(sinks: Vec<&'a dyn Collector>) -> Self {
        MultiCollector { sinks }
    }
}

impl Collector for MultiCollector<'_> {
    fn span_enter(&self, id: SpanId, name: &str, attrs: Attrs) {
        for s in &self.sinks {
            s.span_enter(id, name, attrs);
        }
    }

    fn span_exit(&self, id: SpanId, name: &str, elapsed: Duration, attrs: Attrs) {
        for s in &self.sinks {
            s.span_exit(id, name, elapsed, attrs);
        }
    }

    fn counter(&self, name: &str, value: u64, attrs: Attrs) {
        for s in &self.sinks {
            s.counter(name, value, attrs);
        }
    }

    fn event(&self, name: &str, attrs: Attrs) {
        for s in &self.sinks {
            s.event(name, attrs);
        }
    }
}

/// One recorded instrumentation operation; see [`BufferCollector`].
enum BufferedOp {
    SpanEnter(SpanId, String, Vec<(&'static str, AttrValue)>),
    SpanExit(SpanId, String, Duration, Vec<(&'static str, AttrValue)>),
    Counter(String, u64, Vec<(&'static str, AttrValue)>),
    Event(String, Vec<(&'static str, AttrValue)>),
}

/// A collector that records the stream verbatim for later replay.
///
/// This is the merge layer for the parallel suite engine: each worker
/// thread records its test's instrumentation into a private
/// `BufferCollector`, and the driver replays the buffers into the real
/// collector **in suite order** once the workers finish. Consumers
/// therefore see exactly the stream a sequential run would have produced —
/// same operations, same order, same span durations (measured on the
/// worker, not at replay time) — which is what keeps the metrics/trace
/// invariants deterministic under `--jobs N`.
///
/// The buffer is `Send + Sync` (a mutexed vector), so it can also serve as
/// a thread-safe recording collector in tests.
#[derive(Default)]
pub struct BufferCollector {
    ops: Mutex<Vec<BufferedOp>>,
}

impl BufferCollector {
    /// An empty buffer.
    pub fn new() -> Self {
        BufferCollector::default()
    }

    /// Number of operations buffered so far.
    pub fn len(&self) -> usize {
        self.ops.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays every recorded operation, in recording order, into `target`.
    /// Consumes the buffer; span durations are the original measurements.
    pub fn replay_into(self, target: &dyn Collector) {
        let ops = self.ops.into_inner().unwrap_or_else(|e| e.into_inner());
        for op in ops {
            match op {
                BufferedOp::SpanEnter(id, name, attrs) => target.span_enter(id, &name, &attrs),
                BufferedOp::SpanExit(id, name, elapsed, attrs) => {
                    target.span_exit(id, &name, elapsed, &attrs)
                }
                BufferedOp::Counter(name, value, attrs) => target.counter(&name, value, &attrs),
                BufferedOp::Event(name, attrs) => target.event(&name, &attrs),
            }
        }
    }

    fn push(&self, op: BufferedOp) {
        self.ops.lock().unwrap_or_else(|e| e.into_inner()).push(op);
    }
}

impl std::fmt::Debug for BufferCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferCollector")
            .field("ops", &self.len())
            .finish()
    }
}

impl Collector for BufferCollector {
    fn span_enter(&self, id: SpanId, name: &str, attrs: Attrs) {
        self.push(BufferedOp::SpanEnter(id, name.to_string(), attrs.to_vec()));
    }

    fn span_exit(&self, id: SpanId, name: &str, elapsed: Duration, attrs: Attrs) {
        self.push(BufferedOp::SpanExit(
            id,
            name.to_string(),
            elapsed,
            attrs.to_vec(),
        ));
    }

    fn counter(&self, name: &str, value: u64, attrs: Attrs) {
        self.push(BufferedOp::Counter(name.to_string(), value, attrs.to_vec()));
    }

    fn event(&self, name: &str, attrs: Attrs) {
        self.push(BufferedOp::Event(name.to_string(), attrs.to_vec()));
    }
}

/// Opens a span: emits `span_enter` now, `span_exit` when the guard is
/// finished (or dropped).
pub fn span<'a>(collector: &'a dyn Collector, name: &'a str, attrs: Attrs<'_>) -> SpanGuard<'a> {
    let id = SpanId::next();
    collector.span_enter(id, name, attrs);
    SpanGuard {
        collector,
        id,
        name,
        attrs: attrs.to_vec(),
        start: Instant::now(),
        done: false,
    }
}

/// RAII guard for one span; see [`span`].
pub struct SpanGuard<'a> {
    collector: &'a dyn Collector,
    id: SpanId,
    name: &'a str,
    attrs: Vec<(&'static str, AttrValue)>,
    start: Instant,
    done: bool,
}

impl SpanGuard<'_> {
    /// Appends an attribute that becomes known only during the span (it is
    /// reported on `span_exit`).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        self.attrs.push((key, value.into()));
    }

    /// Closes the span, returning its duration — the same value handed to
    /// [`Collector::span_exit`], measured exactly once.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let elapsed = self.start.elapsed();
        if !self.done {
            self.done = true;
            self.collector
                .span_exit(self.id, self.name, elapsed, &self.attrs);
        }
        elapsed
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A recording collector for the unit tests.
    #[derive(Default)]
    struct Recorder {
        lines: RefCell<Vec<String>>,
    }

    impl Collector for Recorder {
        fn span_enter(&self, _id: SpanId, name: &str, _attrs: Attrs) {
            self.lines.borrow_mut().push(format!("enter {name}"));
        }
        fn span_exit(&self, _id: SpanId, name: &str, _elapsed: Duration, attrs: Attrs) {
            let extra: Vec<String> = attrs
                .iter()
                .map(|(k, v)| format!("{k}={}", v.display()))
                .collect();
            self.lines
                .borrow_mut()
                .push(format!("exit {name} [{}]", extra.join(",")));
        }
        fn counter(&self, name: &str, value: u64, _attrs: Attrs) {
            self.lines
                .borrow_mut()
                .push(format!("counter {name}={value}"));
        }
        fn event(&self, name: &str, _attrs: Attrs) {
            self.lines.borrow_mut().push(format!("event {name}"));
        }
    }

    #[test]
    fn span_guard_emits_enter_and_exit_once() {
        let rec = Recorder::default();
        {
            let mut g = span(&rec, "phase", attrs!["test" => "mp"]);
            g.attr("states", 7u64);
            let d = g.finish();
            assert!(d <= Duration::from_secs(1));
        }
        let lines = rec.lines.borrow();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[0], "enter phase");
        assert_eq!(lines[1], "exit phase [test=mp,states=7]");
    }

    #[test]
    fn dropped_guard_still_exits() {
        let rec = Recorder::default();
        {
            let _g = span(&rec, "p", attrs![]);
        }
        assert_eq!(rec.lines.borrow().len(), 2);
    }

    #[test]
    fn multi_collector_fans_out() {
        let a = Recorder::default();
        let b = Recorder::default();
        let multi = MultiCollector::new(vec![&a, &b]);
        multi.counter("x", 3, attrs![]);
        multi.event("e", attrs![]);
        assert_eq!(*a.lines.borrow(), vec!["counter x=3", "event e"]);
        assert_eq!(*a.lines.borrow(), *b.lines.borrow());
    }

    #[test]
    fn span_ids_are_unique() {
        let a = SpanId::next();
        let b = SpanId::next();
        assert_ne!(a, b);
    }

    #[test]
    fn null_collector_is_silent_and_spans_still_time() {
        let d = span(&NullCollector, "p", attrs!["k" => 1u64]).finish();
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn buffer_collector_replays_verbatim_in_order() {
        let buf = BufferCollector::new();
        {
            let mut g = span(&buf, "phase", attrs!["test" => "mp"]);
            g.attr("states", 7u64);
        }
        buf.counter("c", 3, attrs![]);
        buf.event("e", attrs![]);
        assert_eq!(buf.len(), 4);
        let rec = Recorder::default();
        buf.replay_into(&rec);
        assert_eq!(
            *rec.lines.borrow(),
            vec![
                "enter phase",
                "exit phase [test=mp,states=7]",
                "counter c=3",
                "event e",
            ]
        );
    }

    #[test]
    fn buffer_collector_is_send_and_sync() {
        fn takes<T: Send + Sync>(_: &T) {}
        takes(&BufferCollector::new());
    }

    #[test]
    fn attr_conversions() {
        assert_eq!(AttrValue::from(3u32), AttrValue::Uint(3));
        assert_eq!(AttrValue::from(-2i64), AttrValue::Int(-2));
        assert_eq!(AttrValue::from("s"), AttrValue::Str("s".into()));
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
        assert_eq!(AttrValue::from(0.5).display(), "0.5");
        assert_eq!(AttrValue::from(7usize).to_json().as_u64(), Some(7));
    }
}
