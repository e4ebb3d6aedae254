//! The `rtlcheck bench` harness: warmup + timed iterations over named
//! workload cases, per-phase breakdowns from the `obs` metrics, and the
//! versioned `rtlcheck-bench/1` JSON document with baseline regression
//! gating (`--baseline FILE --tolerance PCT`).
//!
//! The harness is workload-agnostic: the CLI hands [`run_case`] a closure
//! that executes one iteration of suite/mutate/check against a fresh
//! [`MetricsCollector`], and the harness owns the timing discipline —
//! `warmup` untimed iterations (which also warm any `--graph-cache`
//! directory), then `iterations` timed ones. Reported statistics are
//! min/median/max of the timed wall-clocks; the per-phase table comes from
//! the *last* timed iteration's metrics summary, so phases always sum to
//! roughly the reported wall-clock of a real run.
//!
//! Regression gating compares the **median** (robust to one noisy
//! iteration) of each case present in both documents: a case regresses
//! when `current > baseline * (1 + tolerance/100)`. Cases present in only
//! one document are ignored, so baselines survive workload additions.

use std::time::Instant;

use rtlcheck_obs::json::Json;
use rtlcheck_obs::{fmt_us, MetricsCollector, MetricsSummary};

/// Schema tag of the bench JSON document.
pub const SCHEMA: &str = "rtlcheck-bench/1";

/// Identity of one benchmark case — the key regression gating matches on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseKey {
    /// Workload kind: `suite`, `mutate`, or `check`.
    pub workload: String,
    /// Verification configuration name (e.g. `hybrid`).
    pub config: String,
    /// Worker threads.
    pub jobs: usize,
    /// Whether a graph cache was in play.
    pub graph_cache: bool,
}

impl CaseKey {
    /// Stable display form, e.g. `suite/hybrid/explicit/jobs=8/cache=off`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/explicit/jobs={}/cache={}",
            self.workload,
            self.config,
            self.jobs,
            if self.graph_cache { "on" } else { "off" }
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
}

/// Runs one benchmark case: `warmup` untimed then `iterations` timed runs
/// of `run`, each against a fresh [`MetricsCollector`]. The phase table
/// comes from the last timed iteration.
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
    let phases = last
        .map(|s| {
            s.spans
                .iter()
                .map(|sp| PhaseRow {
                    name: sp.name.clone(),
                    count: sp.hist.count(),
                    total_us: sp.hist.sum_us(),
                })
                .collect()
        })
        .unwrap_or_default();
    BenchCase {
        key,
        warmup,
        times_us,
        phases,
    }
}

/// A complete bench document (`rtlcheck-bench/1`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchReport {
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
                                ("graph_cache", Json::Bool(c.key.graph_cache)),
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
            cases.push(BenchCase {
                key: CaseKey {
                    workload: str_field(c, "workload")?,
                    config: str_field(c, "config")?,
                    jobs: u64_field(c, "jobs")? as usize,
                    graph_cache: c
                        .get("graph_cache")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| bad("graph_cache"))?,
                },
                warmup: u64_field(c, "warmup")? as usize,
                times_us,
                phases,
            });
        }
        Ok(BenchReport { cases })
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
        let _ = writeln!(out, "RTLCheck benchmark ({SCHEMA})");
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
            let _ = writeln!(out, "\n  {} (last iteration phases):", c.key.label());
            let pw = c
                .phases
                .iter()
                .map(|p| p.name.len())
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
        }
        out
    }

    fn case(&self, key: &CaseKey) -> Option<&BenchCase> {
        self.cases.iter().find(|c| &c.key == key)
    }
}

/// One case that exceeded the regression tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Case identity label.
    pub case: String,
    /// Baseline median, µs.
    pub baseline_us: u64,
    /// Current median, µs.
    pub current_us: u64,
    /// Percent change from baseline.
    pub pct: f64,
}

/// Compares `current` against `baseline`: a case regresses when its median
/// exceeds the baseline median by more than `tolerance_pct` percent. Only
/// cases present in both documents are compared.
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
        let (cur, base) = (c.median_us(), b.median_us());
        if base == 0 {
            continue;
        }
        let pct = 100.0 * (cur as f64 - base as f64) / base as f64;
        if pct > tolerance_pct {
            found.push(Regression {
                case: c.key.label(),
                baseline_us: base,
                current_us: cur,
                pct,
            });
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
    let _ = writeln!(out, "Baseline comparison (tolerance {tolerance_pct:.0}%):");
    let mut compared = 0usize;
    for c in &current.cases {
        let Some(b) = baseline.case(&c.key) else {
            let _ = writeln!(out, "  {:<40}  (no baseline case)", c.key.label());
            continue;
        };
        compared += 1;
        let (cur, base) = (c.median_us(), b.median_us());
        let pct = if base > 0 {
            100.0 * (cur as f64 - base as f64) / base as f64
        } else {
            0.0
        };
        let verdict = if pct > tolerance_pct {
            "REGRESSED"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "  {:<40}  {:>10} -> {:>10}  {:>+7.1}%  {verdict}",
            c.key.label(),
            fmt_us(base),
            fmt_us(cur),
            pct,
        );
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
            graph_cache: false,
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
        });
        assert_eq!(calls, 4, "1 warmup + 3 timed");
        assert_eq!(c.times_us.len(), 3);
        assert_eq!(c.phases.len(), 1);
        assert_eq!(c.phases[0].name, "graph_build");
        assert_eq!(c.phases[0].total_us, 40);
        assert!(c.min_us() <= c.median_us() && c.median_us() <= c.max_us());
    }

    #[test]
    fn stats_and_json_round_trip() {
        let report = BenchReport {
            cases: vec![case("suite", 8, &[300, 100, 200])],
        };
        assert_eq!(report.cases[0].min_us(), 100);
        assert_eq!(report.cases[0].median_us(), 200);
        assert_eq!(report.cases[0].max_us(), 300);
        let text = report.to_json().pretty();
        assert!(text.contains("rtlcheck-bench/1"), "{text}");
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, report);
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
            cases: vec![case("suite", 1, &[100, 100, 100]), case("mutate", 1, &[50])],
        };
        let current = BenchReport {
            cases: vec![
                case("suite", 1, &[140, 140, 140]), // +40%
                case("mutate", 1, &[50]),           // flat
                case("check", 1, &[999]),           // no baseline: ignored
            ],
        };
        assert!(regressions(&current, &baseline, 50.0).is_empty());
        let regs = regressions(&current, &baseline, 25.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].case, "suite/hybrid/explicit/jobs=1/cache=off");
        assert!((regs[0].pct - 40.0).abs() < 1e-9);
        let text = render_comparison(&current, &baseline, 25.0);
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("no baseline case"), "{text}");
    }

    #[test]
    fn render_lists_cases_and_phases() {
        let report = BenchReport {
            cases: vec![case("suite", 8, &[300, 100, 200])],
        };
        let text = report.render();
        assert!(
            text.contains("suite/hybrid/explicit/jobs=8/cache=off"),
            "{text}"
        );
        assert!(text.contains("graph_build"), "{text}");
        assert!(text.contains("median"), "{text}");
    }
}
