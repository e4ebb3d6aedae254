//! The `rtlcheck bench` harness: warmup + timed iterations over named
//! workload cases, per-phase breakdowns from the `obs` metrics, and the
//! versioned `rtlcheck-bench/1` JSON document with baseline regression
//! gating (`--baseline FILE --tolerance PCT`).
//!
//! The harness is workload-agnostic: the CLI hands [`run_case`] a closure
//! that executes one iteration of suite/mutate/check against a fresh
//! [`MetricsCollector`], and the harness owns the timing discipline —
//! `warmup` untimed iterations, then `iterations` timed ones. Reported
//! statistics are min/median/max of the timed wall-clocks; the per-phase
//! table comes from the *last* timed iteration's metrics summary, so
//! phases always sum to roughly the reported wall-clock of a real run.
//!
//! Regression gating compares the **median** (robust to one noisy
//! iteration) of each case present in both documents: a case regresses
//! when `current > baseline * (1 + tolerance/100)`. Each case also records
//! the last timed iteration's deterministic work counters
//! ([`WORK_COUNTERS`]), gated at 0%: any rise over the baseline fails,
//! whatever the tolerance, so a lost optimisation cannot hide in a noisy
//! wall clock. Cases present in only one document are ignored, and so are
//! counters missing from either, so baselines survive workload and counter
//! additions.

use std::time::Instant;

use rtlcheck_obs::json::Json;
use rtlcheck_obs::{fmt_us, MetricsCollector, MetricsSummary};

/// Schema tag of the bench JSON document.
pub const SCHEMA: &str = "rtlcheck-bench/1";

/// The deterministic work counters each case records and gates on: rows
/// the state graphs built and edges the walks fetched.
pub const WORK_COUNTERS: [&str; 2] = ["graph.rows_built", "graph.lookups"];

/// Identity of one benchmark case — the key regression gating matches on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseKey {
    /// Workload kind: `suite`, `mutate`, or `check`.
    pub workload: String,
    /// Verification configuration name (e.g. `hybrid`).
    pub config: String,
    /// Worker threads.
    pub jobs: usize,
}

impl CaseKey {
    /// Stable display form, e.g. `suite/hybrid/explicit/jobs=8`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/explicit/jobs={}",
            self.workload, self.config, self.jobs
        )
    }
}

/// One phase row of a case's breakdown (from the metrics summary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Span name (e.g. `graph_build`).
    pub name: String,
    /// Instances in the last timed iteration.
    pub count: u64,
    /// Total wall-clock in the last timed iteration, µs.
    pub total_us: u64,
}

/// A measured benchmark case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchCase {
    /// What was measured.
    pub key: CaseKey,
    /// Untimed warmup iterations that preceded the timed ones.
    pub warmup: usize,
    /// Timed iteration wall-clocks, in run order, µs.
    pub times_us: Vec<u64>,
    /// Per-phase breakdown of the last timed iteration.
    pub phases: Vec<PhaseRow>,
    /// The last timed iteration's totals of the [`WORK_COUNTERS`] it
    /// emitted, as `(name, total)`.
    pub work: Vec<(String, u64)>,
}

impl BenchCase {
    /// Fastest timed iteration, µs.
    pub fn min_us(&self) -> u64 {
        self.times_us.iter().copied().min().unwrap_or(0)
    }

    /// Median timed iteration, µs (upper median for even counts).
    pub fn median_us(&self) -> u64 {
        if self.times_us.is_empty() {
            return 0;
        }
        let mut sorted = self.times_us.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    /// Slowest timed iteration, µs.
    pub fn max_us(&self) -> u64 {
        self.times_us.iter().copied().max().unwrap_or(0)
    }

    /// The recorded total of work counter `name`.
    pub fn work(&self, name: &str) -> Option<u64> {
        self.work.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Runs one benchmark case: `warmup` untimed then `iterations` timed runs
/// of `run`, each against a fresh [`MetricsCollector`]. The phase table
/// and the work counters come from the last timed iteration.
pub fn run_case(
    key: CaseKey,
    warmup: usize,
    iterations: usize,
    mut run: impl FnMut(&MetricsCollector),
) -> BenchCase {
    for _ in 0..warmup {
        run(&MetricsCollector::new());
    }
    let mut times_us = Vec::with_capacity(iterations);
    let mut last: Option<MetricsSummary> = None;
    for _ in 0..iterations.max(1) {
        let metrics = MetricsCollector::new();
        let start = Instant::now();
        run(&metrics);
        times_us.push(start.elapsed().as_micros() as u64);
        last = Some(metrics.summary());
    }
    let spans = last.as_ref().map_or(&[][..], |s| &s.spans[..]);
    let phases = spans
        .iter()
        .map(|sp| PhaseRow {
            name: sp.name.clone(),
            count: sp.hist.count(),
            total_us: sp.hist.sum_us(),
        })
        .collect();
    let work = WORK_COUNTERS
        .iter()
        .filter_map(|&name| Some((name.to_string(), last.as_ref()?.counter(name)?.total)))
        .collect();
    BenchCase {
        key,
        warmup,
        times_us,
        phases,
        work,
    }
}

/// A complete bench document (`rtlcheck-bench/1`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchReport {
    /// Logical CPUs of the machine that measured it (absent in documents
    /// written before it was recorded).
    pub nproc: Option<u64>,
    /// Measured cases, in run order.
    pub cases: Vec<BenchCase>,
}

/// Failure to interpret a bench JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError {
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid bench document: {}", self.message)
    }
}

impl std::error::Error for BenchError {}

fn bad(what: &str) -> BenchError {
    BenchError {
        message: format!("missing or malformed `{what}`"),
    }
}

impl BenchReport {
    /// Serializes to the `rtlcheck-bench/1` document. Derived statistics
    /// (`min_us`/`median_us`/`max_us`) are included for readability but
    /// recomputed from `times_us` on load.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.into())),
            ("nproc", self.nproc.map_or(Json::Null, Json::Uint)),
            (
                "cases",
                Json::Arr(
                    self.cases
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("workload", Json::Str(c.key.workload.clone())),
                                ("config", Json::Str(c.key.config.clone())),
                                // Constant since `--backend` was retired; the
                                // reader ignores it.
                                ("backend", Json::Str("explicit".into())),
                                ("jobs", Json::Uint(c.key.jobs as u64)),
                                ("warmup", Json::Uint(c.warmup as u64)),
                                (
                                    "times_us",
                                    Json::Arr(c.times_us.iter().map(|&t| Json::Uint(t)).collect()),
                                ),
                                ("min_us", Json::Uint(c.min_us())),
                                ("median_us", Json::Uint(c.median_us())),
                                ("max_us", Json::Uint(c.max_us())),
                                (
                                    "phases",
                                    Json::Arr(
                                        c.phases
                                            .iter()
                                            .map(|p| {
                                                Json::obj(vec![
                                                    ("name", Json::Str(p.name.clone())),
                                                    ("count", Json::Uint(p.count)),
                                                    ("total_us", Json::Uint(p.total_us)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "work",
                                    Json::obj(
                                        c.work
                                            .iter()
                                            .map(|(n, v)| (n.as_str(), Json::Uint(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes an `rtlcheck-bench/1` document.
    pub fn from_json(v: &Json) -> Result<BenchReport, BenchError> {
        match v.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => {
                return Err(BenchError {
                    message: format!("unknown schema `{other}` (expected `{SCHEMA}`)"),
                })
            }
            None => return Err(bad("schema")),
        }
        let str_field = |c: &Json, k: &str| {
            c.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| bad(k))
        };
        let u64_field = |c: &Json, k: &str| c.get(k).and_then(Json::as_u64).ok_or_else(|| bad(k));
        let mut cases = Vec::new();
        for c in v
            .get("cases")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("cases"))?
        {
            let times_us = c
                .get("times_us")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("times_us"))?
                .iter()
                .map(|t| t.as_u64().ok_or_else(|| bad("times_us entry")))
                .collect::<Result<Vec<u64>, _>>()?;
            let mut phases = Vec::new();
            for p in c
                .get("phases")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("phases"))?
            {
                phases.push(PhaseRow {
                    name: str_field(p, "name")?,
                    count: u64_field(p, "count")?,
                    total_us: u64_field(p, "total_us")?,
                });
            }
            // Absent from documents written before work was recorded.
            let mut work = Vec::new();
            for (name, v) in c.get("work").and_then(Json::as_obj).unwrap_or_default() {
                work.push((name.clone(), v.as_u64().ok_or_else(|| bad("work entry"))?));
            }
            cases.push(BenchCase {
                key: CaseKey {
                    workload: str_field(c, "workload")?,
                    config: str_field(c, "config")?,
                    // Documents written while `--graph-cache` existed also
                    // carry a `graph_cache` flag; it is ignored.
                    jobs: u64_field(c, "jobs")? as usize,
                },
                warmup: u64_field(c, "warmup")? as usize,
                times_us,
                phases,
                work,
            });
        }
        let nproc = match v.get("nproc") {
            None | Some(Json::Null) => None,
            Some(n) => Some(n.as_u64().ok_or_else(|| bad("nproc"))?),
        };
        Ok(BenchReport { nproc, cases })
    }

    /// Parses a serialized bench document.
    pub fn parse(src: &str) -> Result<BenchReport, BenchError> {
        let v = Json::parse(src).map_err(|e| BenchError {
            message: e.to_string(),
        })?;
        BenchReport::from_json(&v)
    }

    /// Human-readable bench table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let nproc = self
            .nproc
            .map(|n| format!(", nproc {n}"))
            .unwrap_or_default();
        let _ = writeln!(out, "RTLCheck benchmark ({SCHEMA}{nproc})");
        let width = self
            .cases
            .iter()
            .map(|c| c.key.label().len())
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(
            out,
            "  {:width$}  {:>5}  {:>10}  {:>10}  {:>10}",
            "case", "iters", "min", "median", "max"
        );
        for c in &self.cases {
            let _ = writeln!(
                out,
                "  {:width$}  {:>5}  {:>10}  {:>10}  {:>10}",
                c.key.label(),
                c.times_us.len(),
                fmt_us(c.min_us()),
                fmt_us(c.median_us()),
                fmt_us(c.max_us()),
            );
        }
        for c in &self.cases {
            if c.phases.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "\n  {} (last iteration phases and work):",
                c.key.label()
            );
            let pw = c
                .phases
                .iter()
                .map(|p| p.name.len())
                .chain(c.work.iter().map(|(n, _)| n.len()))
                .max()
                .unwrap_or(5)
                .max(5);
            for p in &c.phases {
                let _ = writeln!(
                    out,
                    "    {:pw$}  {:>7}  {:>10}",
                    p.name,
                    p.count,
                    fmt_us(p.total_us)
                );
            }
            for (name, v) in &c.work {
                let _ = writeln!(out, "    {name:pw$}  {v:>7}");
            }
        }
        out
    }

    fn case(&self, key: &CaseKey) -> Option<&BenchCase> {
        self.cases.iter().find(|c| &c.key == key)
    }
}

/// One case measurement that exceeded its gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Case identity label.
    pub case: String,
    /// What regressed: `median_us`, or a work counter's name.
    pub metric: String,
    /// Baseline value.
    pub baseline: u64,
    /// Current value.
    pub current: u64,
    /// Percent change from baseline.
    pub pct: f64,
}

fn pct_change(base: u64, cur: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (cur as f64 - base as f64) / base as f64
    }
}

/// Every gated comparison of `c` against its baseline case `b`: the
/// median against `tolerance_pct`, then each work counter present in both
/// at 0%. Yields `(metric, baseline, current, regressed)`.
fn comparisons<'a>(
    c: &'a BenchCase,
    b: &'a BenchCase,
    tolerance_pct: f64,
) -> impl Iterator<Item = (&'a str, u64, u64, bool)> + 'a {
    let (cur, base) = (c.median_us(), b.median_us());
    let median = (
        "median_us",
        base,
        cur,
        base > 0 && pct_change(base, cur) > tolerance_pct,
    );
    let work = c.work.iter().filter_map(move |(name, cur)| {
        let base = b.work(name)?;
        Some((name.as_str(), base, *cur, *cur > base))
    });
    std::iter::once(median).chain(work)
}

/// Compares `current` against `baseline`: a case regresses when its median
/// exceeds the baseline median by more than `tolerance_pct` percent, or
/// when any work counter recorded in both exceeds the baseline's value.
/// Only cases present in both documents are compared.
pub fn regressions(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance_pct: f64,
) -> Vec<Regression> {
    let mut found = Vec::new();
    for c in &current.cases {
        let Some(b) = baseline.case(&c.key) else {
            continue;
        };
        for (metric, base, cur, regressed) in comparisons(c, b, tolerance_pct) {
            if regressed {
                found.push(Regression {
                    case: c.key.label(),
                    metric: metric.to_string(),
                    baseline: base,
                    current: cur,
                    pct: pct_change(base, cur),
                });
            }
        }
    }
    found
}

/// Renders the regression comparison (both the clean and the failing
/// outcomes name every compared case).
pub fn render_comparison(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance_pct: f64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let regs = regressions(current, baseline, tolerance_pct);
    let _ = writeln!(
        out,
        "Baseline comparison (tolerance {tolerance_pct:.0}%; work counters 0%):"
    );
    let mut compared = 0usize;
    for c in &current.cases {
        let Some(b) = baseline.case(&c.key) else {
            let _ = writeln!(out, "  {:<40}  (no baseline case)", c.key.label());
            continue;
        };
        compared += 1;
        for (metric, base, cur, regressed) in comparisons(c, b, tolerance_pct) {
            let verdict = if regressed { "REGRESSED" } else { "ok" };
            let pct = pct_change(base, cur);
            let (label, base, cur) = if metric == "median_us" {
                (c.key.label(), fmt_us(base), fmt_us(cur))
            } else {
                (format!("  {metric}"), base.to_string(), cur.to_string())
            };
            let _ = writeln!(
                out,
                "  {label:<40}  {base:>10} -> {cur:>10}  {pct:>+7.1}%  {verdict}"
            );
        }
    }
    let _ = writeln!(
        out,
        "{} case(s) compared, {} regression(s)",
        compared,
        regs.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcheck_obs::{attrs, Collector, SpanId};
    use std::time::Duration;

    fn key(workload: &str, jobs: usize) -> CaseKey {
        CaseKey {
            workload: workload.into(),
            config: "hybrid".into(),
            jobs,
        }
    }

    fn case(workload: &str, jobs: usize, times: &[u64]) -> BenchCase {
        BenchCase {
            key: key(workload, jobs),
            warmup: 1,
            times_us: times.to_vec(),
            phases: vec![PhaseRow {
                name: "graph_build".into(),
                count: 2,
                total_us: 500,
            }],
            work: vec![("graph.lookups".into(), 1_000)],
        }
    }

    #[test]
    fn run_case_times_iterations_and_collects_phases() {
        let mut calls = 0;
        let c = run_case(key("suite", 1), 1, 3, |metrics| {
            calls += 1;
            metrics.span_exit(
                SpanId(0),
                "graph_build",
                Duration::from_micros(40),
                attrs![],
            );
            metrics.counter("graph.lookups", calls, attrs![]);
        });
        assert_eq!(calls, 4, "1 warmup + 3 timed");
        assert_eq!(c.times_us.len(), 3);
        assert_eq!(c.phases.len(), 1);
        assert_eq!(c.phases[0].name, "graph_build");
        assert_eq!(c.phases[0].total_us, 40);
        assert_eq!(c.work, [("graph.lookups".to_string(), 4)], "last iteration");
        assert_eq!(c.work("graph.rows_built"), None, "not emitted");
        assert!(c.min_us() <= c.median_us() && c.median_us() <= c.max_us());
    }

    #[test]
    fn stats_and_json_round_trip() {
        let report = BenchReport {
            nproc: Some(2),
            cases: vec![case("suite", 8, &[300, 100, 200])],
        };
        assert_eq!(report.cases[0].min_us(), 100);
        assert_eq!(report.cases[0].median_us(), 200);
        assert_eq!(report.cases[0].max_us(), 300);
        let text = report.to_json().pretty();
        assert!(text.contains("rtlcheck-bench/1"), "{text}");
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, report);
        // Documents written before `nproc` and `work` still load.
        let old = text
            .replace("\"nproc\": 2,", "")
            .replace("\"graph.lookups\": 1000", "");
        let back = BenchReport::parse(&old).unwrap();
        assert_eq!(back.nproc, None);
        assert!(back.cases[0].work.is_empty(), "{old}");
        // So do documents whose cases carry the retired `graph_cache` flag.
        let flagged = text.replace("\"jobs\": 8,", "\"jobs\": 8, \"graph_cache\": false,");
        assert_ne!(flagged, text);
        assert_eq!(BenchReport::parse(&flagged).unwrap(), report);
    }

    #[test]
    fn parse_rejects_wrong_and_missing_schema() {
        let err = BenchReport::parse(r#"{"schema":"rtlcheck-metrics/1"}"#).unwrap_err();
        assert!(err.message.contains("rtlcheck-bench/1"), "{err}");
        assert!(BenchReport::parse("{}").is_err());
        assert!(BenchReport::parse("not json").is_err());
    }

    #[test]
    fn regression_gate_fires_only_beyond_tolerance() {
        let baseline = BenchReport {
            nproc: None,
            cases: vec![case("suite", 1, &[100, 100, 100]), case("mutate", 1, &[50])],
        };
        let current = BenchReport {
            nproc: None,
            cases: vec![
                case("suite", 1, &[140, 140, 140]), // +40%
                case("mutate", 1, &[50]),           // flat
                case("check", 1, &[999]),           // no baseline: ignored
            ],
        };
        assert!(regressions(&current, &baseline, 50.0).is_empty());
        let regs = regressions(&current, &baseline, 25.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].case, "suite/hybrid/explicit/jobs=1");
        assert_eq!(regs[0].metric, "median_us");
        assert!((regs[0].pct - 40.0).abs() < 1e-9);
        let text = render_comparison(&current, &baseline, 25.0);
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("no baseline case"), "{text}");
    }

    #[test]
    fn work_counters_gate_at_zero_tolerance() {
        let baseline = BenchReport {
            nproc: None,
            cases: vec![case("suite", 1, &[100]), case("mutate", 1, &[100])],
        };
        let mut current = baseline.clone();
        current.cases[0].work[0].1 = 1_001; // one more lookup
        current.cases[1].work[0].1 = 900; // less work passes
        let regs = regressions(&current, &baseline, 400.0);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "graph.lookups");
        assert_eq!((regs[0].baseline, regs[0].current), (1_000, 1_001));
        let text = render_comparison(&current, &baseline, 400.0);
        assert!(text.contains("1000 ->       1001"), "{text}");
        assert!(text.contains("1000 ->        900"), "{text}");
        assert!(text.contains("1 regression(s)"), "{text}");
        // A counter missing from either document is skipped.
        current.cases[0].work.clear();
        assert!(regressions(&current, &baseline, 400.0).is_empty());
    }

    #[test]
    fn render_lists_cases_and_phases() {
        let report = BenchReport {
            nproc: Some(2),
            cases: vec![case("suite", 8, &[300, 100, 200])],
        };
        let text = report.render();
        assert!(text.contains("suite/hybrid/explicit/jobs=8"), "{text}");
        assert!(text.contains("graph_build"), "{text}");
        assert!(text.contains("graph.lookups"), "{text}");
        assert!(text.contains("median"), "{text}");
        assert!(text.contains("nproc 2"), "{text}");
    }
}
