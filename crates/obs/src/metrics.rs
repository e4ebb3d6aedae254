//! In-memory aggregation: per-phase histograms, counter totals, event
//! counts, and the slowest spans — the data behind `--metrics out.json` and
//! `rtlcheck profile`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Duration;

use crate::json::Json;
use crate::{Attrs, Collector, SpanId};

/// Number of log₂ microsecond buckets (covers up to ~2¹⁹ seconds).
const BUCKETS: usize = 40;

/// A log₂-bucketed duration histogram (microsecond resolution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
            buckets: [0; BUCKETS],
        }
    }
}

fn bucket_of(us: u64) -> usize {
    ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// Records one duration (in microseconds). Sums saturate rather than
    /// wrap, so pathological inputs (`u64::MAX`) stay well-defined.
    pub fn record(&mut self, us: u64) {
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        self.buckets[bucket_of(us)] += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Smallest recorded duration (0 when empty).
    pub fn min_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_us
        }
    }

    /// Largest recorded duration.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean duration in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile from the log₂ buckets: the upper edge of the
    /// bucket containing the `q`-th sample. Exact to within a factor of 2.
    pub fn approx_quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds durations in [2^(i-1), 2^i) — except the
                // last, which is open-ended (bucket_of clamps), so its
                // nominal edge would under-report a saturating sample.
                if i == BUCKETS - 1 {
                    return self.max_us;
                }
                return (1u64 << i).min(self.max_us).max(self.min_us());
            }
        }
        self.max_us
    }

    fn to_json(&self) -> Json {
        // Buckets serialize sparsely as [index, count] pairs.
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![Json::Uint(i as u64), Json::Uint(n)]))
            .collect();
        Json::obj(vec![
            ("count", Json::Uint(self.count)),
            ("sum_us", Json::Uint(self.sum_us)),
            ("min_us", Json::Uint(self.min_us())),
            ("max_us", Json::Uint(self.max_us)),
            ("buckets", Json::Arr(buckets)),
        ])
    }

    fn from_json(v: &Json) -> Result<Histogram, SummaryError> {
        let mut h = Histogram {
            count: field_u64(v, "count")?,
            sum_us: field_u64(v, "sum_us")?,
            min_us: field_u64(v, "min_us")?,
            max_us: field_u64(v, "max_us")?,
            buckets: [0; BUCKETS],
        };
        if h.count == 0 {
            h.min_us = u64::MAX;
        }
        for pair in v
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("buckets"))?
        {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad("bucket pair"))?;
            let idx = pair[0].as_u64().ok_or_else(|| bad("bucket index"))? as usize;
            if idx >= BUCKETS {
                return Err(bad("bucket index out of range"));
            }
            h.buckets[idx] = pair[1].as_u64().ok_or_else(|| bad("bucket count"))?;
        }
        Ok(h)
    }
}

/// Aggregate of one counter name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSummary {
    /// Number of observations.
    pub samples: u64,
    /// Sum of all observed values.
    pub total: u64,
    /// Largest single observation.
    pub max: u64,
}

/// One entry of the slowest-span table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowSpan {
    /// Span name (e.g. `property`).
    pub span: String,
    /// Human label built from the span's attributes (`k=v` pairs).
    pub label: String,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Per-span-name duration summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Duration histogram over all instances of the span.
    pub hist: Histogram,
}

#[derive(Debug, Default)]
struct MetricsInner {
    spans: BTreeMap<String, Histogram>,
    counters: BTreeMap<String, CounterSummary>,
    events: BTreeMap<String, u64>,
    /// Per span name, sorted by descending duration, truncated to `top_k`.
    slowest: BTreeMap<String, Vec<SlowSpan>>,
}

/// Aggregating collector; snapshot with [`MetricsCollector::summary`].
pub struct MetricsCollector {
    inner: Mutex<MetricsInner>,
    top_k: usize,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        MetricsCollector::new()
    }
}

impl MetricsCollector {
    /// An empty collector keeping the 10 slowest instances per span name.
    pub fn new() -> Self {
        MetricsCollector {
            inner: Mutex::new(MetricsInner::default()),
            top_k: 10,
        }
    }

    /// Overrides how many slowest instances are kept per span name.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Snapshots the aggregates.
    pub fn summary(&self) -> MetricsSummary {
        let inner = self.lock();
        let mut slowest: Vec<SlowSpan> = inner.slowest.values().flatten().cloned().collect();
        slowest.sort_by(|a, b| b.dur_us.cmp(&a.dur_us).then_with(|| a.label.cmp(&b.label)));
        MetricsSummary {
            spans: inner
                .spans
                .iter()
                .map(|(name, hist)| SpanSummary {
                    name: name.clone(),
                    hist: hist.clone(),
                })
                .collect(),
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), *c))
                .collect(),
            events: inner.events.iter().map(|(n, c)| (n.clone(), *c)).collect(),
            slowest,
        }
    }
}

impl Collector for MetricsCollector {
    fn span_exit(&self, _id: SpanId, name: &str, elapsed: Duration, attrs: Attrs) {
        let us = elapsed.as_micros() as u64;
        let label: String = attrs
            .iter()
            .map(|(k, v)| format!("{k}={}", v.display()))
            .collect::<Vec<_>>()
            .join(" ");
        let top_k = self.top_k;
        let mut inner = self.lock();
        inner.spans.entry(name.to_string()).or_default().record(us);
        let slow = inner.slowest.entry(name.to_string()).or_default();
        slow.push(SlowSpan {
            span: name.to_string(),
            label,
            dur_us: us,
        });
        slow.sort_by_key(|s| std::cmp::Reverse(s.dur_us));
        slow.truncate(top_k);
    }

    fn counter(&self, name: &str, value: u64, _attrs: Attrs) {
        let mut inner = self.lock();
        let c = inner.counters.entry(name.to_string()).or_default();
        c.samples += 1;
        c.total = c.total.saturating_add(value);
        c.max = c.max.max(value);
    }

    fn event(&self, name: &str, _attrs: Attrs) {
        *self.lock().events.entry(name.to_string()).or_default() += 1;
    }
}

/// A self-contained snapshot of a run's aggregated metrics.
///
/// Serializes to the `--metrics out.json` document and renders the
/// human-readable `rtlcheck profile` view.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSummary {
    /// Per-span-name duration histograms, sorted by name.
    pub spans: Vec<SpanSummary>,
    /// Counter aggregates, sorted by name.
    pub counters: Vec<(String, CounterSummary)>,
    /// Event counts, sorted by name.
    pub events: Vec<(String, u64)>,
    /// Slowest span instances across all names, sorted by descending
    /// duration.
    pub slowest: Vec<SlowSpan>,
}

/// Failure to interpret a metrics JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryError {
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for SummaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid metrics document: {}", self.message)
    }
}

impl std::error::Error for SummaryError {}

fn bad(what: &str) -> SummaryError {
    SummaryError {
        message: format!("missing or malformed `{what}`"),
    }
}

fn field_u64(v: &Json, key: &str) -> Result<u64, SummaryError> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| bad(key))
}

fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, SummaryError> {
    v.get(key).and_then(Json::as_str).ok_or_else(|| bad(key))
}

impl MetricsSummary {
    /// Serializes to the `--metrics` JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str("rtlcheck-metrics/1".into())),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::Str(s.name.clone())),
                                ("hist", s.hist.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|(name, c)| {
                            Json::obj(vec![
                                ("name", Json::Str(name.clone())),
                                ("samples", Json::Uint(c.samples)),
                                ("total", Json::Uint(c.total)),
                                ("max", Json::Uint(c.max)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "events",
                Json::Arr(
                    self.events
                        .iter()
                        .map(|(name, count)| {
                            Json::obj(vec![
                                ("name", Json::Str(name.clone())),
                                ("count", Json::Uint(*count)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "slowest",
                Json::Arr(
                    self.slowest
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("span", Json::Str(s.span.clone())),
                                ("label", Json::Str(s.label.clone())),
                                ("dur_us", Json::Uint(s.dur_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a `--metrics` document.
    pub fn from_json(v: &Json) -> Result<MetricsSummary, SummaryError> {
        match v.get("schema").and_then(Json::as_str) {
            Some("rtlcheck-metrics/1") => {}
            Some(other) => {
                return Err(SummaryError {
                    message: format!("unknown schema `{other}`"),
                })
            }
            None => return Err(bad("schema")),
        }
        let arr = |key: &str| v.get(key).and_then(Json::as_arr).ok_or_else(|| bad(key));
        let mut summary = MetricsSummary {
            spans: Vec::new(),
            counters: Vec::new(),
            events: Vec::new(),
            slowest: Vec::new(),
        };
        for s in arr("spans")? {
            summary.spans.push(SpanSummary {
                name: field_str(s, "name")?.to_string(),
                hist: Histogram::from_json(s.get("hist").ok_or_else(|| bad("hist"))?)?,
            });
        }
        for c in arr("counters")? {
            summary.counters.push((
                field_str(c, "name")?.to_string(),
                CounterSummary {
                    samples: field_u64(c, "samples")?,
                    total: field_u64(c, "total")?,
                    max: field_u64(c, "max")?,
                },
            ));
        }
        for e in arr("events")? {
            summary
                .events
                .push((field_str(e, "name")?.to_string(), field_u64(e, "count")?));
        }
        for s in arr("slowest")? {
            summary.slowest.push(SlowSpan {
                span: field_str(s, "span")?.to_string(),
                label: field_str(s, "label")?.to_string(),
                dur_us: field_u64(s, "dur_us")?,
            });
        }
        Ok(summary)
    }

    /// Parses a serialized `--metrics` document.
    pub fn parse(src: &str) -> Result<MetricsSummary, SummaryError> {
        let v = Json::parse(src).map_err(|e| SummaryError {
            message: e.to_string(),
        })?;
        MetricsSummary::from_json(&v)
    }

    /// Count of one event name (0 when absent).
    pub fn event_count(&self, name: &str) -> u64 {
        self.events
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, c)| *c)
    }

    /// Aggregate of one counter name, if present.
    pub fn counter(&self, name: &str) -> Option<CounterSummary> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
    }

    /// The human-readable profile view (`rtlcheck profile`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "RTLCheck verification profile");
        let _ = writeln!(out, "=============================");

        if !self.spans.is_empty() {
            let _ = writeln!(out, "\nPhases (wall-clock):");
            let width = self
                .spans
                .iter()
                .map(|s| s.name.len())
                .max()
                .unwrap_or(0)
                .max(5);
            let _ = writeln!(
                out,
                "  {:width$}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                "phase", "count", "total", "mean", "p50", "p99", "max"
            );
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:width$}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                    s.name,
                    s.hist.count(),
                    fmt_us(s.hist.sum_us()),
                    fmt_us(s.hist.mean_us()),
                    fmt_us(s.hist.approx_quantile_us(0.5)),
                    fmt_us(s.hist.approx_quantile_us(0.99)),
                    fmt_us(s.hist.max_us()),
                );
            }
        }

        let proven = self.event_count("verdict.proven");
        let bounded = self.event_count("verdict.bounded");
        let falsified = self.event_count("verdict.falsified");
        if proven + bounded + falsified > 0 {
            let _ = writeln!(
                out,
                "\nProperty verdicts: {proven} proven, {bounded} bounded, {falsified} falsified"
            );
        }
        let unreachable = self.event_count("cover.unreachable");
        let covered = self.event_count("cover.covered");
        let unknown = self.event_count("cover.unknown");
        if unreachable + covered + unknown > 0 {
            let _ = writeln!(
                out,
                "Cover phase: {unreachable} unreachable (verified by assumptions), \
                 {covered} covered, {unknown} inconclusive"
            );
        }

        let graph_build: Option<&SpanSummary> = self.spans.iter().find(|s| s.name == "graph_build");
        if graph_build.is_some() || self.counter("graph.nodes").is_some() {
            let _ = writeln!(out, "\nEngine split (shared graphs vs property walks):");
            if let Some(g) = graph_build {
                let walk_us: u64 = self
                    .spans
                    .iter()
                    .filter(|s| s.name == "property" || s.name == "cover_search")
                    .map(|s| s.hist.sum_us())
                    .sum();
                let _ = writeln!(
                    out,
                    "  graph build: {} across {} graph(s); property/cover walks: {}",
                    fmt_us(g.hist.sum_us()),
                    g.hist.count(),
                    fmt_us(walk_us),
                );
            }
            if let (Some(nodes), Some(edges)) =
                (self.counter("graph.nodes"), self.counter("graph.edges"))
            {
                let _ = writeln!(
                    out,
                    "  graph size: {} node(s), {} edge(s), {} pruned by assumptions",
                    nodes.total,
                    edges.total,
                    self.counter("graph.pruned_edges").map_or(0, |c| c.total),
                );
            }
            if let (Some(lookups), Some(hits)) = (
                self.counter("graph.lookups"),
                self.counter("graph.reuse_hits"),
            ) {
                if lookups.total > 0 {
                    let _ = writeln!(
                        out,
                        "  graph reuse: {:.0}% of {} edge lookups served from cache",
                        100.0 * hits.total as f64 / lookups.total as f64,
                        lookups.total,
                    );
                }
            }
            if let (Some(_), Some(full)) = (
                self.counter("engine.bounded.states"),
                self.counter("engine.full.states"),
            ) {
                let _ = writeln!(
                    out,
                    "  full-engine runs: {} of {} answered from the bounded walk",
                    self.counter("walk.derived_full_runs")
                        .map_or(0, |c| c.total),
                    full.samples,
                );
            }
        }

        if let Some(requests) = self.counter("graph_cache.requests") {
            let count = |name: &str| self.counter(name).map_or(0, |c| c.total);
            let _ = writeln!(out, "\nGraph cache:");
            let _ = writeln!(
                out,
                "  {} graph request(s): {} hit(s), {} cold build(s), {} evicted",
                requests.total,
                count("graph_cache.hits"),
                count("graph_cache.misses"),
                count("graph_cache.evictions"),
            );
        }

        if let Some(mutants) = self.counter("mutation.mutants") {
            let count = |name: &str| self.counter(name).map_or(0, |c| c.total);
            let _ = writeln!(out, "\nMutation campaign:");
            let _ = writeln!(
                out,
                "  {} mutant(s): {} killed, {} survived, {} budget-limited",
                mutants.total,
                count("mutation.killed"),
                count("mutation.survived"),
                count("mutation.budget_limited"),
            );
            let _ = writeln!(
                out,
                "  {} flow check(s) including baselines",
                count("mutation.checks"),
            );
        }

        if let Some(requested) = self.counter("fuzz.requested") {
            let count = |name: &str| self.counter(name).map_or(0, |c| c.total);
            let generated = count("fuzz.generated");
            let shapes = count("fuzz.shapes");
            let _ = writeln!(out, "\nFuzz campaign:");
            let _ = writeln!(
                out,
                "  {} cycle(s) requested: {} generated, {} sampling failure(s)",
                requested.total,
                generated,
                count("fuzz.sample_failures"),
            );
            let _ = writeln!(
                out,
                "  {} unique shape(s) ({} duplicate(s), {:.0}% dedup); oracle resolved {}",
                shapes,
                count("fuzz.duplicates"),
                if generated > 0 {
                    100.0 * count("fuzz.duplicates") as f64 / generated as f64
                } else {
                    0.0
                },
                count("fuzz.oracle_resolved"),
            );
            let _ = writeln!(
                out,
                "  {} escalated to {} engine bucket(s): {} agree, {} disagree, {} violation(s)",
                count("fuzz.escalated"),
                count("fuzz.buckets"),
                count("fuzz.agreements"),
                count("fuzz.disagreements"),
                count("fuzz.violations"),
            );
        }

        if let Some(jobs) = self.counter("serve.jobs") {
            let count = |name: &str| self.counter(name).map_or(0, |c| c.total);
            let _ = writeln!(out, "\nServer:");
            let _ = writeln!(
                out,
                "  {} job(s) over {} connection(s): {} completed, {} coalesced",
                jobs.total,
                count("serve.connections"),
                count("serve.completed"),
                count("serve.coalesced"),
            );
            let _ = writeln!(
                out,
                "  {} frame(s); {} overloaded rejection(s), {} protocol error(s), \
                 {} disconnect(s); queue peak {}",
                count("serve.frames"),
                count("serve.rejected_overload"),
                count("serve.protocol_errors"),
                count("serve.disconnects"),
                count("serve.queue_peak"),
            );
        }

        let slow_props: Vec<&SlowSpan> = self
            .slowest
            .iter()
            .filter(|s| s.span == "property")
            .collect();
        if !slow_props.is_empty() {
            let _ = writeln!(out, "\nSlowest properties:");
            for s in &slow_props {
                let _ = writeln!(out, "  {:>10}  {}", fmt_us(s.dur_us), s.label);
            }
        }

        if !self.counters.is_empty() {
            let _ = writeln!(out, "\nCounters:");
            let width = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0)
                .max(4);
            let _ = writeln!(
                out,
                "  {:width$}  {:>12}  {:>12}  {:>8}",
                "name", "total", "max", "samples"
            );
            for (name, c) in &self.counters {
                let _ = writeln!(
                    out,
                    "  {:width$}  {:>12}  {:>12}  {:>8}",
                    name, c.total, c.max, c.samples
                );
            }
        }

        let mut diagnostics = Vec::new();
        for kind in ["bounded", "full", "cover"] {
            let (states, budget) = (
                self.counter(&format!("engine.{kind}.states")),
                self.counter(&format!("engine.{kind}.budget_states")),
            );
            if let (Some(states), Some(budget)) = (states, budget) {
                if budget.total > 0 {
                    diagnostics.push(format!(
                        "engine `{kind}` state-budget utilization: {:.0}% ({} of {} states over {} runs)",
                        100.0 * states.total as f64 / budget.total as f64,
                        states.total,
                        budget.total,
                        states.samples,
                    ));
                }
            }
            diagnostics.extend(self.memo_hit_rate(
                &format!("engine `{kind}` monitor"),
                &format!("engine.{kind}.monitor_steps"),
                &format!("engine.{kind}.monitor_memo_hits"),
                "assertion",
            ));
        }
        diagnostics.extend(self.memo_hit_rate(
            "assumption",
            "graph.assume_steps",
            "graph.assume_memo_hits",
            "assumption",
        ));
        let vacuous = self.event_count("vacuous_proof");
        if vacuous > 0 {
            diagnostics.push(format!(
                "WARNING: {vacuous} vacuous proof(s) — conflicting assumptions admit no execution"
            ));
        }
        let exhausted = self.event_count("budget_exhausted");
        if exhausted > 0 {
            diagnostics.push(format!(
                "{exhausted} engine run(s) exhausted their budget before a full proof"
            ));
        }
        if !diagnostics.is_empty() {
            let _ = writeln!(out, "\nDiagnostics:");
            for d in &diagnostics {
                let _ = writeln!(out, "  {d}");
            }
        }
        out
    }

    /// The diagnostic line of one monitor transition memo: the share of
    /// transitions served by the memo rather than a real monitor step.
    fn memo_hit_rate(
        &self,
        label: &str,
        steps: &str,
        hits: &str,
        monitors: &str,
    ) -> Option<String> {
        let (steps, hits) = (self.counter(steps)?.total, self.counter(hits)?.total);
        let transitions = steps.saturating_add(hits);
        (transitions > 0).then(|| {
            format!(
                "{label} memo hit rate: {:.1}% ({hits} of {transitions} {monitors}-monitor transitions; {steps} real steps)",
                100.0 * hits as f64 / transitions as f64,
            )
        })
    }

    fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Renders a side-by-side comparison of two runs — the
    /// `rtlcheck profile --diff A B` view. `self` is the A (baseline) side.
    ///
    /// Three sections: per-phase wall-clock deltas, histogram shifts
    /// (p50/p99 movement per phase), and per-counter total deltas. Names
    /// present in only one run render with a `-` on the missing side, so
    /// two different configurations or two different subcommands can still
    /// be compared directly.
    pub fn render_diff(&self, other: &MetricsSummary, label_a: &str, label_b: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "RTLCheck profile diff");
        let _ = writeln!(out, "=====================");
        let _ = writeln!(out, "A: {label_a}");
        let _ = writeln!(out, "B: {label_b}");

        let union = |a: Vec<&str>, b: Vec<&str>| -> Vec<String> {
            let mut names: Vec<String> = a.into_iter().map(String::from).collect();
            for n in b {
                if !names.iter().any(|x| x == n) {
                    names.push(n.to_string());
                }
            }
            names.sort();
            names
        };

        let span_names = union(
            self.spans.iter().map(|s| s.name.as_str()).collect(),
            other.spans.iter().map(|s| s.name.as_str()).collect(),
        );
        if !span_names.is_empty() {
            let width = span_names.iter().map(String::len).max().unwrap_or(5).max(5);
            let _ = writeln!(out, "\nPhases (total wall-clock, A -> B):");
            let _ = writeln!(
                out,
                "  {:width$}  {:>7}  {:>10}  {:>10}  {:>9}",
                "phase", "count", "A total", "B total", "delta"
            );
            for name in &span_names {
                let (a, b) = (self.span(name), other.span(name));
                let _ = writeln!(
                    out,
                    "  {:width$}  {:>7}  {:>10}  {:>10}  {:>9}",
                    name,
                    fmt_pair(a.map(|s| s.hist.count()), b.map(|s| s.hist.count()), |n| n
                        .to_string()),
                    opt_us(a.map(|s| s.hist.sum_us())),
                    opt_us(b.map(|s| s.hist.sum_us())),
                    fmt_pct_delta(a.map(|s| s.hist.sum_us()), b.map(|s| s.hist.sum_us())),
                );
            }

            let _ = writeln!(out, "\nHistogram shifts (approx quantiles, A -> B):");
            let _ = writeln!(out, "  {:width$}  {:>23}  {:>23}", "phase", "p50", "p99");
            for name in &span_names {
                let (a, b) = (self.span(name), other.span(name));
                let q = |s: Option<&SpanSummary>, q: f64| s.map(|s| s.hist.approx_quantile_us(q));
                let shift =
                    |qa: Option<u64>, qb: Option<u64>| format!("{} -> {}", opt_us(qa), opt_us(qb));
                let _ = writeln!(
                    out,
                    "  {:width$}  {:>23}  {:>23}",
                    name,
                    shift(q(a, 0.5), q(b, 0.5)),
                    shift(q(a, 0.99), q(b, 0.99)),
                );
            }
        }

        let counter_names = union(
            self.counters.iter().map(|(n, _)| n.as_str()).collect(),
            other.counters.iter().map(|(n, _)| n.as_str()).collect(),
        );
        if !counter_names.is_empty() {
            let width = counter_names
                .iter()
                .map(String::len)
                .max()
                .unwrap_or(4)
                .max(4);
            let _ = writeln!(out, "\nCounters (totals, A -> B):");
            let _ = writeln!(
                out,
                "  {:width$}  {:>14}  {:>14}  {:>9}",
                "name", "A", "B", "delta"
            );
            for name in &counter_names {
                let a = self.counter(name).map(|c| c.total);
                let b = other.counter(name).map(|c| c.total);
                let _ = writeln!(
                    out,
                    "  {:width$}  {:>14}  {:>14}  {:>9}",
                    name,
                    a.map_or("-".to_string(), |n| n.to_string()),
                    b.map_or("-".to_string(), |n| n.to_string()),
                    fmt_pct_delta(a, b),
                );
            }
        }

        let event_names = union(
            self.events.iter().map(|(n, _)| n.as_str()).collect(),
            other.events.iter().map(|(n, _)| n.as_str()).collect(),
        );
        if !event_names.is_empty() {
            let width = event_names
                .iter()
                .map(String::len)
                .max()
                .unwrap_or(4)
                .max(4);
            let _ = writeln!(out, "\nEvents (counts, A -> B):");
            for name in &event_names {
                let a = self.event_count(name);
                let b = other.event_count(name);
                let mark = if a == b { "" } else { "  *" };
                let _ = writeln!(out, "  {name:width$}  {a:>10}  {b:>10}{mark}");
            }
        }
        out
    }
}

/// `A/B` pair cell: `7` when both sides agree, `7 -> 9` when they differ,
/// `-` for a missing side.
fn fmt_pair(a: Option<u64>, b: Option<u64>, f: impl Fn(u64) -> String) -> String {
    match (a, b) {
        (Some(a), Some(b)) if a == b => f(a),
        (a, b) => format!(
            "{} -> {}",
            a.map_or("-".into(), &f),
            b.map_or("-".into(), &f)
        ),
    }
}

fn opt_us(v: Option<u64>) -> String {
    v.map_or("-".to_string(), fmt_us)
}

/// Signed percentage change from `a` to `b`. One-sided names — a counter
/// family one run has and the other lacks, e.g. `fuzz.*` diffed against a
/// suite run — render `+new` (only in B) or `-gone` (only in A) so the
/// asymmetry is explicit rather than a bare `-`.
fn fmt_pct_delta(a: Option<u64>, b: Option<u64>) -> String {
    match (a, b) {
        (Some(a), Some(b)) if a > 0 => {
            let pct = 100.0 * (b as f64 - a as f64) / a as f64;
            format!("{pct:+.1}%")
        }
        (None, Some(_)) => "+new".to_string(),
        (Some(_), None) => "-gone".to_string(),
        _ => "-".to_string(),
    }
}

/// Formats a microsecond duration with an adaptive unit.
pub(crate) fn fmt_us(us: u64) -> String {
    match us {
        0..=999 => format!("{us} µs"),
        1_000..=999_999 => format!("{:.1} ms", us as f64 / 1e3),
        _ => format!("{:.2} s", us as f64 / 1e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::default();
        a.record(10);
        a.record(100);
        let mut b = Histogram::default();
        b.record(1);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum_us(), 1_000_111);
        assert_eq!(a.min_us(), 1);
        assert_eq!(a.max_us(), 1_000_000);
        assert_eq!(a.mean_us(), 250_027);
        assert_eq!(a.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_us(), 0);
        assert_eq!(h.mean_us(), 0);
        assert_eq!(h.approx_quantile_us(0.5), 0);
    }

    #[test]
    fn quantiles_are_within_a_factor_of_two() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let p50 = h.approx_quantile_us(0.5);
        assert!((64..=256).contains(&p50), "{p50}");
        let p99 = h.approx_quantile_us(0.99);
        assert!((8_192..=16_384).contains(&p99), "{p99}");
    }

    #[test]
    fn collector_aggregates_spans_counters_events() {
        let m = MetricsCollector::new().with_top_k(2);
        for (i, us) in [300u64, 100, 200, 400].iter().enumerate() {
            m.span_exit(
                SpanId(i as u64),
                "property",
                Duration::from_micros(*us),
                attrs!["property" => format!("P[{i}]")],
            );
        }
        m.counter("property.states", 5, attrs![]);
        m.counter("property.states", 7, attrs![]);
        m.event("verdict.proven", attrs![]);
        m.event("verdict.proven", attrs![]);
        m.event("verdict.bounded", attrs![]);

        let s = m.summary();
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].hist.count(), 4);
        // Top-K ordering: only the 2 slowest survive, in descending order.
        assert_eq!(s.slowest.len(), 2);
        assert_eq!(s.slowest[0].dur_us, 400);
        assert_eq!(s.slowest[1].dur_us, 300);
        assert_eq!(s.slowest[0].label, "property=P[3]");
        let c = s.counter("property.states").unwrap();
        assert_eq!((c.samples, c.total, c.max), (2, 12, 7));
        assert_eq!(s.event_count("verdict.proven"), 2);
        assert_eq!(s.event_count("missing"), 0);
    }

    #[test]
    fn summary_json_roundtrip() {
        let m = MetricsCollector::new();
        m.span_exit(
            SpanId(1),
            "cover_search",
            Duration::from_micros(42),
            attrs!["test" => "mp"],
        );
        m.counter("cover.states", 9, attrs![]);
        m.event("cover.unreachable", attrs![]);
        let summary = m.summary();
        let text = summary.to_json().pretty();
        let back = MetricsSummary::parse(&text).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        assert!(MetricsSummary::parse(r#"{"schema":"other/9"}"#).is_err());
        assert!(MetricsSummary::parse(r#"{}"#).is_err());
        assert!(MetricsSummary::parse("not json").is_err());
    }

    #[test]
    fn render_mentions_verdicts_and_diagnostics() {
        let m = MetricsCollector::new();
        m.span_exit(
            SpanId(1),
            "property",
            Duration::from_millis(2),
            attrs!["property" => "A[1]"],
        );
        m.event("verdict.proven", attrs![]);
        m.event("vacuous_proof", attrs![]);
        m.event("budget_exhausted", attrs![]);
        m.counter("engine.full.states", 90, attrs![]);
        m.counter("engine.full.budget_states", 100, attrs![]);
        m.counter("engine.full.monitor_steps", 3, attrs![]);
        m.counter("engine.full.monitor_memo_hits", 97, attrs![]);
        m.counter("graph.assume_steps", 1, attrs![]);
        m.counter("graph.assume_memo_hits", 3, attrs![]);
        let text = m.summary().render();
        assert!(text.contains("1 proven"), "{text}");
        assert!(text.contains("vacuous proof"), "{text}");
        assert!(text.contains("exhausted"), "{text}");
        assert!(text.contains("90%"), "{text}");
        assert!(
            text.contains("monitor memo hit rate: 97.0% (97 of 100"),
            "{text}"
        );
        assert!(
            text.contains("assumption memo hit rate: 75.0% (3 of 4 assumption-monitor"),
            "{text}"
        );
        assert!(text.contains("A[1]"), "{text}");
    }

    #[test]
    fn render_shows_the_engine_split_and_graph_reuse() {
        let m = MetricsCollector::new();
        m.span_exit(
            SpanId(1),
            "graph_build",
            Duration::from_millis(3),
            attrs!["test" => "mp"],
        );
        m.span_exit(
            SpanId(2),
            "property",
            Duration::from_millis(1),
            attrs!["property" => "A[0]"],
        );
        m.counter("graph.nodes", 120, attrs![]);
        m.counter("graph.edges", 400, attrs![]);
        m.counter("graph.pruned_edges", 30, attrs![]);
        m.counter("graph.lookups", 200, attrs![]);
        m.counter("graph.reuse_hits", 150, attrs![]);
        let text = m.summary().render();
        assert!(text.contains("Engine split"), "{text}");
        assert!(text.contains("graph build: 3.0 ms"), "{text}");
        assert!(text.contains("120 node(s), 400 edge(s)"), "{text}");
        assert!(
            text.contains("graph reuse: 75% of 200 edge lookups"),
            "{text}"
        );
        assert!(!text.contains("full-engine runs"), "{text}");
    }

    #[test]
    fn render_counts_full_runs_answered_from_the_bounded_walk() {
        let m = MetricsCollector::new();
        m.counter("graph.nodes", 120, attrs![]);
        for states in [40, 211, 7] {
            m.counter("engine.bounded.states", states, attrs![]);
            m.counter("engine.full.states", states.min(211), attrs![]);
        }
        m.counter("walk.derived_full_runs", 1, attrs![]);
        m.counter("walk.derived_full_runs", 1, attrs![]);
        let text = m.summary().render();
        assert!(
            text.contains("full-engine runs: 2 of 3 answered from the bounded walk"),
            "{text}"
        );
    }

    #[test]
    fn render_shows_the_graph_cache_section() {
        let m = MetricsCollector::new();
        m.counter("graph_cache.requests", 8, attrs![]);
        m.counter("graph_cache.hits", 3, attrs![]);
        m.counter("graph_cache.misses", 5, attrs![]);
        let text = m.summary().render();
        assert!(text.contains("Graph cache:"), "{text}");
        assert!(
            text.contains("8 graph request(s): 3 hit(s), 5 cold build(s), 0 evicted"),
            "{text}"
        );
        // No cache counters → no section.
        let empty = MetricsCollector::new().summary().render();
        assert!(!empty.contains("Graph cache"), "{empty}");
    }

    #[test]
    fn render_shows_the_mutation_section() {
        let m = MetricsCollector::new();
        m.counter("mutation.mutants", 7, attrs![]);
        m.counter("mutation.killed", 6, attrs![]);
        m.counter("mutation.survived", 1, attrs![]);
        m.counter("mutation.checks", 448, attrs![]);
        let text = m.summary().render();
        assert!(text.contains("Mutation campaign:"), "{text}");
        assert!(
            text.contains("7 mutant(s): 6 killed, 1 survived, 0 budget-limited"),
            "{text}"
        );
        assert!(
            text.contains("448 flow check(s) including baselines"),
            "{text}"
        );
        // No mutation counters → no section.
        let empty = MetricsCollector::new().summary().render();
        assert!(!empty.contains("Mutation campaign"), "{empty}");
    }

    #[test]
    fn render_shows_the_fuzz_section() {
        let m = MetricsCollector::new();
        m.counter("fuzz.requested", 1000, attrs![]);
        m.counter("fuzz.generated", 1000, attrs![]);
        m.counter("fuzz.sample_failures", 0, attrs![]);
        m.counter("fuzz.shapes", 250, attrs![]);
        m.counter("fuzz.duplicates", 750, attrs![]);
        m.counter("fuzz.oracle_resolved", 250, attrs![]);
        m.counter("fuzz.escalated", 25, attrs![]);
        m.counter("fuzz.buckets", 25, attrs![]);
        m.counter("fuzz.agreements", 25, attrs![]);
        m.counter("fuzz.disagreements", 0, attrs![]);
        m.counter("fuzz.violations", 0, attrs![]);
        let text = m.summary().render();
        assert!(text.contains("Fuzz campaign:"), "{text}");
        assert!(
            text.contains("1000 cycle(s) requested: 1000 generated, 0 sampling failure(s)"),
            "{text}"
        );
        assert!(
            text.contains("250 unique shape(s) (750 duplicate(s), 75% dedup); oracle resolved 250"),
            "{text}"
        );
        assert!(
            text.contains(
                "25 escalated to 25 engine bucket(s): 25 agree, 0 disagree, 0 violation(s)"
            ),
            "{text}"
        );
        // No fuzz counters → no section.
        let empty = MetricsCollector::new().summary().render();
        assert!(!empty.contains("Fuzz campaign"), "{empty}");
    }

    #[test]
    fn render_shows_the_server_section() {
        let m = MetricsCollector::new();
        m.counter("serve.connections", 3, attrs![]);
        m.counter("serve.frames", 12, attrs![]);
        m.counter("serve.jobs", 8, attrs![]);
        m.counter("serve.completed", 8, attrs![]);
        m.counter("serve.coalesced", 2, attrs![]);
        m.counter("serve.rejected_overload", 1, attrs![]);
        m.counter("serve.protocol_errors", 1, attrs![]);
        m.counter("serve.disconnects", 0, attrs![]);
        m.counter("serve.queue_peak", 4, attrs![]);
        let text = m.summary().render();
        assert!(text.contains("Server:"), "{text}");
        assert!(
            text.contains("8 job(s) over 3 connection(s): 8 completed, 2 coalesced"),
            "{text}"
        );
        assert!(
            text.contains(
                "12 frame(s); 1 overloaded rejection(s), 1 protocol error(s), \
                 0 disconnect(s); queue peak 4"
            ),
            "{text}"
        );
        // No serve counters → no section.
        let empty = MetricsCollector::new().summary().render();
        assert!(!empty.contains("Server:"), "{empty}");
    }

    #[test]
    fn counters_above_the_f64_boundary_round_trip_exactly() {
        let m = MetricsCollector::new();
        let boundary = (1u64 << 53) + 1; // not representable as f64
        m.counter("engine.full.states", boundary, attrs![]);
        m.counter("engine.full.states", u64::MAX - boundary, attrs![]);
        let summary = m.summary();
        let c = summary.counter("engine.full.states").unwrap();
        assert_eq!(c.total, u64::MAX);
        assert_eq!(c.max, u64::MAX - boundary);
        let back = MetricsSummary::parse(&summary.to_json().render()).unwrap();
        let c = back.counter("engine.full.states").unwrap();
        assert_eq!(c.total, u64::MAX, "total must survive JSON exactly");
        assert_eq!(c.max, u64::MAX - boundary, "max must survive JSON exactly");
        // One more observation must saturate, not wrap.
        m.counter("engine.full.states", 10, attrs![]);
        assert_eq!(
            m.summary().counter("engine.full.states").unwrap().total,
            u64::MAX
        );
    }

    #[test]
    fn render_diff_shows_deltas_and_missing_sides() {
        let a = MetricsCollector::new();
        a.span_exit(SpanId(1), "property", Duration::from_micros(1000), attrs![]);
        a.counter("graph.nodes", 100, attrs![]);
        a.counter("only_in_a", 5, attrs![]);
        a.event("verdict.proven", attrs![]);
        let b = MetricsCollector::new();
        b.span_exit(SpanId(1), "property", Duration::from_micros(1500), attrs![]);
        b.counter("graph.nodes", 150, attrs![]);
        b.event("verdict.proven", attrs![]);
        b.event("verdict.proven", attrs![]);
        b.counter("only_in_b", 7, attrs![]);
        let text = a.summary().render_diff(&b.summary(), "a.json", "b.json");
        assert!(text.contains("A: a.json"), "{text}");
        assert!(text.contains("B: b.json"), "{text}");
        assert!(text.contains("+50.0%"), "{text}");
        assert!(text.contains("only_in_a"), "{text}");
        assert!(text.contains('-'), "{text}");
        assert!(text.contains("Histogram shifts"), "{text}");
        // Differing event counts are starred.
        assert!(text.contains('*'), "{text}");
        // One-sided counter families are labelled, not silently dashed:
        // `only_in_a` exists only in the baseline, `only_in_b` only in B.
        assert!(text.contains("-gone"), "{text}");
        assert!(text.contains("+new"), "{text}");
    }

    #[test]
    fn fmt_us_units() {
        assert_eq!(fmt_us(7), "7 µs");
        assert_eq!(fmt_us(1_500), "1.5 ms");
        assert_eq!(fmt_us(2_500_000), "2.50 s");
    }
}
