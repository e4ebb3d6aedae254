//! Chrome trace-event export: the `--trace-out trace.json` sink.
//!
//! [`TraceCollector`] converts the live span stream into the Chrome
//! trace-event JSON format (the `chrome://tracing` / Perfetto "JSON array"
//! flavour). Unlike the aggregating collectors, a trace is only meaningful
//! with *real* wall-clock timestamps and the *real* parallel schedule, so
//! the trace sink must be attached to worker threads directly (a live
//! side-channel) rather than fed through the [`crate::BufferCollector`]
//! replay path — replay happens after the fact, in suite order, and would
//! collapse every worker onto one timeline.
//!
//! Each worker calls [`TraceCollector::track`] to obtain a [`TraceTrack`]
//! bound to its own `tid`, so the flame chart shows one lane per worker.
//! Span enter/exit pairs become complete (`"X"`) duration events, discrete
//! events become instants (`"i"`), and at every span boundary the derived
//! counter tracks are sampled: cumulative states/sec, graph-cache hit rate,
//! and the cone-reuse rate (share of row segments copied rather than
//! re-simulated by incremental splicing).

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::{Attrs, Collector, SpanId};

/// The track id used for instrumentation that is not bound to a worker
/// (single-threaded `check`, driver-side phases).
pub const MAIN_TID: u64 = 0;

#[derive(Debug)]
struct TraceEvent {
    ph: char,
    name: String,
    ts_us: u64,
    dur_us: Option<u64>,
    tid: u64,
    args: Vec<(String, Json)>,
}

#[derive(Default)]
struct TraceInner {
    events: Vec<TraceEvent>,
    /// Start timestamps of spans whose `span_enter` we saw.
    open: HashMap<SpanId, u64>,
    /// Running totals per counter name, for the derived counter tracks.
    totals: BTreeMap<String, u64>,
}

/// Collects the instrumentation stream as Chrome trace events.
///
/// The collector itself is a [`Collector`] recording onto the main track
/// ([`MAIN_TID`]); [`TraceCollector::track`] hands out per-worker views.
/// Thread-safe: one instance is shared by every worker of a parallel run.
pub struct TraceCollector {
    epoch: Instant,
    inner: Mutex<TraceInner>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// An empty trace whose time origin is "now".
    pub fn new() -> Self {
        TraceCollector {
            epoch: Instant::now(),
            inner: Mutex::new(TraceInner::default()),
        }
    }

    /// A per-worker recording view. Registers a `thread_name` metadata
    /// record so the Perfetto lane is labelled (`worker 3`); `tid` 0 is
    /// labelled `main`.
    pub fn track(&self, tid: u64) -> TraceTrack<'_> {
        let label = if tid == MAIN_TID {
            "main".to_string()
        } else {
            format!("worker {tid}")
        };
        self.lock().events.push(TraceEvent {
            ph: 'M',
            name: "thread_name".into(),
            ts_us: 0,
            dur_us: None,
            tid,
            args: vec![("name".into(), Json::Str(label))],
        });
        TraceTrack { trace: self, tid }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn args_of(attrs: Attrs) -> Vec<(String, Json)> {
        attrs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.to_json()))
            .collect()
    }

    fn enter(&self, id: SpanId, ts_us: u64) {
        self.lock().open.insert(id, ts_us);
    }

    fn exit(&self, id: SpanId, name: &str, elapsed: Duration, attrs: Attrs, tid: u64) {
        let now = self.now_us();
        let dur_us = elapsed.as_micros() as u64;
        let mut inner = self.lock();
        // Prefer the timestamp captured at span_enter; fall back to
        // end-minus-duration for spans whose enter this sink never saw.
        let ts_us = inner
            .open
            .remove(&id)
            .unwrap_or_else(|| now.saturating_sub(dur_us));
        inner.events.push(TraceEvent {
            ph: 'X',
            name: name.to_string(),
            ts_us,
            dur_us: Some(dur_us.max(1)),
            tid,
            args: Self::args_of(attrs),
        });
        Self::sample_counters(&mut inner, now);
    }

    fn count(&self, name: &str, value: u64, tid: u64) {
        let _ = tid;
        let mut inner = self.lock();
        let t = inner.totals.entry(name.to_string()).or_default();
        *t = t.saturating_add(value);
    }

    fn instant(&self, name: &str, attrs: Attrs, tid: u64) {
        let now = self.now_us();
        self.lock().events.push(TraceEvent {
            ph: 'i',
            name: name.to_string(),
            ts_us: now,
            dur_us: None,
            tid,
            args: Self::args_of(attrs),
        });
    }

    /// Emits the derived counter tracks ("C" events on the process track),
    /// sampled at span boundaries: cumulative states/sec, graph-cache hit
    /// rate, and cone-reuse rate.
    fn sample_counters(inner: &mut TraceInner, now_us: u64) {
        let get = |name: &str| inner.totals.get(name).copied().unwrap_or(0);
        let states: u64 = inner
            .totals
            .iter()
            .filter(|(k, _)| k.starts_with("engine.") && k.ends_with(".states"))
            .filter(|(k, _)| !k.ends_with(".budget_states"))
            .map(|(_, v)| *v)
            .sum();
        let requests = get("graph_cache.requests");
        let hits = get("graph_cache.hits") + get("graph_cache.disk_hits");
        let rows_copied = get("cone.rows_copied");
        let rows_recomputed = get("cone.rows_recomputed");

        let mut samples: Vec<(&str, Json)> = Vec::new();
        if now_us > 0 && states > 0 {
            let per_sec = (states as f64 / (now_us as f64 / 1e6)).round();
            samples.push(("states/sec", Json::Num(per_sec)));
        }
        if requests > 0 {
            let rate = (100.0 * hits as f64 / requests as f64).round();
            samples.push(("cache hit-rate %", Json::Num(rate)));
        }
        if rows_copied + rows_recomputed > 0 {
            let rate =
                (100.0 * rows_copied as f64 / (rows_copied + rows_recomputed) as f64).round();
            samples.push(("cone reuse %", Json::Num(rate)));
        }
        for (name, value) in samples {
            inner.events.push(TraceEvent {
                ph: 'C',
                name: name.to_string(),
                ts_us: now_us,
                dur_us: None,
                tid: MAIN_TID,
                args: vec![("value".to_string(), value)],
            });
        }
    }

    /// Serializes the trace as a Chrome trace-event JSON document
    /// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`). Events are
    /// sorted by timestamp (stable, metadata first) so viewers need no
    /// preprocessing.
    pub fn to_json(&self) -> Json {
        let inner = self.lock();
        let mut order: Vec<usize> = (0..inner.events.len()).collect();
        order.sort_by_key(|&i| {
            let e = &inner.events[i];
            (if e.ph == 'M' { 0u8 } else { 1 }, e.ts_us, i)
        });
        let events: Vec<Json> = order
            .into_iter()
            .map(|i| {
                let e = &inner.events[i];
                let mut fields = vec![
                    ("name".to_string(), Json::Str(e.name.clone())),
                    ("ph".to_string(), Json::Str(e.ph.to_string())),
                    ("pid".to_string(), Json::Uint(1)),
                    ("tid".to_string(), Json::Uint(e.tid)),
                ];
                if e.ph != 'M' {
                    fields.push(("ts".to_string(), Json::Uint(e.ts_us)));
                }
                if let Some(dur) = e.dur_us {
                    fields.push(("dur".to_string(), Json::Uint(dur)));
                }
                if e.ph == 'i' {
                    // Instant scope: thread.
                    fields.push(("s".to_string(), Json::Str("t".into())));
                }
                if !e.args.is_empty() {
                    fields.push((
                        "args".to_string(),
                        Json::Obj(e.args.iter().map(|(k, v)| (k.clone(), v.clone())).collect()),
                    ));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }

    /// Renders the trace document as a compact JSON string.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Number of recorded events (metadata included).
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Collector for TraceCollector {
    fn span_enter(&self, id: SpanId, _name: &str, _attrs: Attrs) {
        let ts = self.now_us();
        self.enter(id, ts);
    }

    fn span_exit(&self, id: SpanId, name: &str, elapsed: Duration, attrs: Attrs) {
        self.exit(id, name, elapsed, attrs, MAIN_TID);
    }

    fn counter(&self, name: &str, value: u64, _attrs: Attrs) {
        self.count(name, value, MAIN_TID);
    }

    fn event(&self, name: &str, attrs: Attrs) {
        self.instant(name, attrs, MAIN_TID);
    }
}

/// A per-worker view of a [`TraceCollector`]; see
/// [`TraceCollector::track`]. Everything recorded through the track lands
/// on its `tid` lane.
pub struct TraceTrack<'a> {
    trace: &'a TraceCollector,
    tid: u64,
}

impl Collector for TraceTrack<'_> {
    fn span_enter(&self, id: SpanId, _name: &str, _attrs: Attrs) {
        let ts = self.trace.now_us();
        self.trace.enter(id, ts);
    }

    fn span_exit(&self, id: SpanId, name: &str, elapsed: Duration, attrs: Attrs) {
        self.trace.exit(id, name, elapsed, attrs, self.tid);
    }

    fn counter(&self, name: &str, value: u64, _attrs: Attrs) {
        self.trace.count(name, value, self.tid);
    }

    fn event(&self, name: &str, attrs: Attrs) {
        self.trace.instant(name, attrs, self.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attrs, span};

    #[test]
    fn spans_become_complete_events_on_their_track() {
        let trace = TraceCollector::new();
        let t1 = trace.track(1);
        {
            let _g = span(&t1, "check_test", attrs!["test" => "mp"]);
        }
        let doc = trace.to_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // thread_name metadata + the X event.
        assert_eq!(events.len(), 2);
        let meta = &events[0];
        assert_eq!(meta.get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(
            meta.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("worker 1")
        );
        let x = &events[1];
        assert_eq!(x.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(x.get("name").and_then(Json::as_str), Some("check_test"));
        assert_eq!(x.get("tid").and_then(Json::as_u64), Some(1));
        assert!(x.get("dur").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(
            x.get("args")
                .and_then(|a| a.get("test"))
                .and_then(Json::as_str),
            Some("mp")
        );
    }

    #[test]
    fn derived_counter_tracks_sample_at_span_boundaries() {
        let trace = TraceCollector::new();
        trace.counter("engine.full.states", 500, attrs![]);
        trace.counter("graph_cache.requests", 4, attrs![]);
        trace.counter("graph_cache.hits", 3, attrs![]);
        trace.counter("cone.rows_copied", 90, attrs![]);
        trace.counter("cone.rows_recomputed", 10, attrs![]);
        {
            let _g = span(&trace, "property", attrs![]);
        }
        let text = trace.render();
        assert!(text.contains("states/sec"), "{text}");
        assert!(text.contains("cache hit-rate %"), "{text}");
        assert!(text.contains("cone reuse %"), "{text}");
        // Counter events carry a numeric args value.
        assert!(text.contains("\"ph\":\"C\""), "{text}");
    }

    #[test]
    fn events_become_instants_and_document_parses() {
        let trace = TraceCollector::new();
        let t2 = trace.track(2);
        t2.event("verdict.proven", attrs!["property" => "A[0]"]);
        let text = trace.render();
        let doc = Json::parse(&text).expect("trace JSON parses");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let instant = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .expect("instant event present");
        assert_eq!(instant.get("tid").and_then(Json::as_u64), Some(2));
        assert_eq!(instant.get("s").and_then(Json::as_str), Some("t"));
    }

    #[test]
    fn events_are_sorted_by_timestamp_with_metadata_first() {
        let trace = TraceCollector::new();
        let late = trace.track(5);
        {
            let _g = span(&late, "a", attrs![]);
        }
        // Track registered after events were recorded: metadata must still
        // sort first.
        let _early = trace.track(6);
        let doc = trace.to_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        let first_non_meta = phases.iter().position(|p| *p != "M").unwrap();
        assert!(
            phases[..first_non_meta].iter().all(|p| *p == "M"),
            "{phases:?}"
        );
        let ts: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .map(|e| e.get("ts").and_then(Json::as_u64).unwrap())
            .collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }
}
