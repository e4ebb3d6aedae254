//! Shared harness for regenerating the RTLCheck paper's tables and figures.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (§7):
//!
//! | Binary          | Paper artifact                                          |
//! |-----------------|---------------------------------------------------------|
//! | `table1`        | Table 1 — engine configurations                         |
//! | `figure12`      | §7.1/Fig. 12 — the V-scale store-drop bug               |
//! | `figure13`      | Fig. 13 — runtime to verification, 56 tests × 2 configs |
//! | `figure14`      | Fig. 14 — % fully-proven properties per test            |
//! | `summary_stats` | §7.2 — aggregate statistics                             |
//! | `ablations`     | §3.2–3.4 — naive-translation failure demonstrations     |
//!
//! The shared [`run_suite`] entry point runs the full flow for every litmus
//! test in the suite under one configuration and collects the per-test
//! numbers the figures plot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rtlcheck_core::{Rtlcheck, TestReport};
use rtlcheck_litmus::{suite, LitmusTest};
pub use rtlcheck_obs::json::Json;
use rtlcheck_obs::{
    progress::UNIT_DONE, AttrValue, BufferCollector, Collector, MultiCollector, TrackSink,
};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_verif::VerifyConfig;

pub mod bench;
pub mod fuzz;
pub mod mutation;
pub mod serve;

/// One row of the per-test results (one bar of Figures 13/14).
#[derive(Debug, Clone)]
pub struct TestRow {
    /// Litmus test name.
    pub test: String,
    /// Configuration name.
    pub config: String,
    /// Runtime to verification (Figure 13's y-axis).
    pub runtime: Duration,
    /// Properties completely proven.
    pub proven: usize,
    /// Total properties generated.
    pub total: usize,
    /// Whether the test verified through the unreachable-assumption fast
    /// path.
    pub by_assumptions: bool,
    /// Bounds of the bounded-only proofs.
    pub bounded_depths: Vec<u32>,
    /// Whether any violation was found (must be false on the fixed design).
    pub violated: bool,
}

impl TestRow {
    /// Percentage of fully proven properties (Figure 14's y-axis).
    pub fn proven_pct(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.proven as f64 / self.total as f64
        }
    }

    /// Builds a row from a driver report.
    pub fn from_report(report: &TestReport) -> TestRow {
        TestRow {
            test: report.test.clone(),
            config: report.config.clone(),
            runtime: report.runtime_to_verification(),
            proven: report.num_proven(),
            total: report.properties.len(),
            by_assumptions: report.verified_by_assumptions(),
            bounded_depths: report.bounded_depths(),
            violated: report.bug_found(),
        }
    }

    /// Serializes the row as JSON (`runtime_us` carries the duration).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("test", Json::Str(self.test.clone())),
            ("config", Json::Str(self.config.clone())),
            ("runtime_us", Json::Num(self.runtime.as_micros() as f64)),
            ("proven", Json::Num(self.proven as f64)),
            ("total", Json::Num(self.total as f64)),
            ("by_assumptions", Json::Bool(self.by_assumptions)),
            (
                "bounded_depths",
                Json::Arr(
                    self.bounded_depths
                        .iter()
                        .map(|&d| Json::Num(f64::from(d)))
                        .collect(),
                ),
            ),
            ("violated", Json::Bool(self.violated)),
        ])
    }

    /// Deserializes a row written by [`TestRow::to_json`].
    pub fn from_json(v: &Json) -> Result<TestRow, String> {
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or(format!("missing `{k}`"))
        };
        let num_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("missing `{k}`"))
        };
        let bool_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_bool)
                .ok_or(format!("missing `{k}`"))
        };
        Ok(TestRow {
            test: str_field("test")?,
            config: str_field("config")?,
            runtime: Duration::from_micros(num_field("runtime_us")?),
            proven: num_field("proven")? as usize,
            total: num_field("total")? as usize,
            by_assumptions: bool_field("by_assumptions")?,
            bounded_depths: v
                .get("bounded_depths")
                .and_then(Json::as_arr)
                .ok_or("missing `bounded_depths`")?
                .iter()
                .map(|d| d.as_u64().map(|d| d as u32).ok_or("bad depth".to_string()))
                .collect::<Result<_, _>>()?,
            violated: bool_field("violated")?,
        })
    }
}

/// Results of one configuration over the whole suite.
#[derive(Debug, Clone)]
pub struct SuiteResults {
    /// Configuration name.
    pub config: String,
    /// Per-test rows, in Figure 13 order.
    pub rows: Vec<TestRow>,
}

impl SuiteResults {
    /// Overall fraction of properties completely proven.
    pub fn overall_proven_pct(&self) -> f64 {
        let proven: usize = self.rows.iter().map(|r| r.proven).sum();
        let total: usize = self.rows.iter().map(|r| r.total).sum();
        100.0 * proven as f64 / total.max(1) as f64
    }

    /// Mean of the per-test proven percentages (the paper reports both).
    pub fn mean_per_test_proven_pct(&self) -> f64 {
        self.rows.iter().map(TestRow::proven_pct).sum::<f64>() / self.rows.len().max(1) as f64
    }

    /// Mean bound of bounded-only proofs, across the suite.
    pub fn mean_bound(&self) -> Option<f64> {
        let all: Vec<u32> = self
            .rows
            .iter()
            .flat_map(|r| r.bounded_depths.iter().copied())
            .collect();
        if all.is_empty() {
            None
        } else {
            Some(all.iter().map(|&d| f64::from(d)).sum::<f64>() / all.len() as f64)
        }
    }

    /// Number of tests verified by the unreachable-assumption fast path.
    pub fn num_by_assumptions(&self) -> usize {
        self.rows.iter().filter(|r| r.by_assumptions).count()
    }

    /// Mean runtime-to-verification across the suite.
    pub fn mean_runtime(&self) -> Duration {
        let total: Duration = self.rows.iter().map(|r| r.runtime).sum();
        total / self.rows.len().max(1) as u32
    }

    /// Total runtime across the suite (the paper's "total CPU time").
    pub fn total_runtime(&self) -> Duration {
        self.rows.iter().map(|r| r.runtime).sum()
    }

    /// Serializes the results as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("config", Json::Str(self.config.clone())),
            (
                "rows",
                Json::Arr(self.rows.iter().map(TestRow::to_json).collect()),
            ),
        ])
    }
}

/// Runs every suite test under `config` on the given memory implementation;
/// see [`run_pool`] for `jobs` and `collector`.
pub fn run_suite(
    memory: MemoryImpl,
    config: &VerifyConfig,
    jobs: usize,
    collector: &dyn Collector,
) -> SuiteResults {
    let tool = Rtlcheck::new(memory);
    let reports = check_tests(&tool, &suite::all(), config, jobs, collector, &[]);
    SuiteResults {
        config: config.name.clone(),
        rows: reports.iter().map(TestRow::from_report).collect(),
    }
}

/// Runs the full flow on each test on [`run_pool`], returning the reports
/// in input order.
pub fn check_tests(
    tool: &Rtlcheck,
    tests: &[LitmusTest],
    config: &VerifyConfig,
    jobs: usize,
    collector: &dyn Collector,
    live: &[&dyn TrackSink],
) -> Vec<TestReport> {
    run_pool(
        tests.len(),
        jobs,
        collector,
        live,
        |i| ("test", tests[i].name().into()),
        |i, sink| tool.check_test_observed(&tests[i], config, sink),
    )
}

/// Runs `units` independent work units on a pool of `jobs` worker threads
/// (self-scheduling over the unit indices), returning `run`'s results **in
/// index order**. The suite runner, the mutation campaign and the fuzz
/// escalations all schedule through it.
///
/// Determinism contract: the returned results and everything `collector`
/// observes are independent of `jobs`. Each worker records its unit's
/// instrumentation into a private [`BufferCollector`]; once all workers
/// finish, the buffers are replayed into `collector` in index order, so the
/// collector sees exactly the stream a sequential run would have produced
/// (span durations are the workers' original measurements). The
/// observability invariants — counters summing to report totals, balanced
/// spans — therefore hold under any job count. `jobs` ≤ 1 runs inline on
/// the calling thread, reporting straight to `collector` with no buffering.
///
/// Each worker additionally reports, as work happens and on its own track,
/// to every live sink ([`TrackSink`]) — this is how `--trace-out` sees the
/// real parallel schedule and `--progress` ticks in real time. Live sinks
/// are *extra* receivers: the per-unit [`UNIT_DONE`] completion event,
/// carrying the attribute `unit_attr` names the unit by, goes **only** to
/// them (its arrival order depends on scheduling, so it must never enter
/// the deterministic stream into `collector`).
pub fn run_pool<R: Send>(
    units: usize,
    jobs: usize,
    collector: &dyn Collector,
    live: &[&dyn TrackSink],
    unit_attr: impl Fn(usize) -> (&'static str, AttrValue) + Sync,
    run: impl Fn(usize, &dyn Collector) -> R + Sync,
) -> Vec<R> {
    // One unit, reporting to `sink` and to a worker's live tracks.
    let unit = |i: usize, sink: &dyn Collector, tracks: &[Box<dyn Collector + '_>]| {
        let result = {
            let mut sinks: Vec<&dyn Collector> = vec![sink];
            sinks.extend(tracks.iter().map(|b| &**b));
            run(i, &MultiCollector::new(sinks))
        };
        let done = [unit_attr(i)];
        for track in tracks {
            track.event(UNIT_DONE, &done);
        }
        result
    };
    let workers = jobs.max(1).min(units.max(1));
    if workers <= 1 {
        let tracks: Vec<Box<dyn Collector + '_>> = live.iter().map(|s| s.track(1)).collect();
        return (0..units).map(|i| unit(i, collector, &tracks)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(R, BufferCollector)>>> =
        (0..units).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let (next, slots, unit) = (&next, &slots, &unit);
        for w in 0..workers {
            scope.spawn(move || {
                let tracks: Vec<Box<dyn Collector + '_>> =
                    live.iter().map(|s| s.track(w as u64 + 1)).collect();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else { break };
                    let buf = BufferCollector::new();
                    let result = unit(i, &buf, &tracks);
                    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some((result, buf));
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            let (result, buf) = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every unit slot is filled once its worker finishes");
            buf.replay_into(collector);
            result
        })
        .collect()
}

/// Resolves user-supplied names in order with `find`. A name listed twice
/// is an error (`duplicate {what} `name``): the run would otherwise check
/// and count it twice.
pub fn resolve_names<S: AsRef<str>, T>(
    names: &[S],
    what: &str,
    find: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut seen = std::collections::HashSet::new();
    names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            if !seen.insert(name) {
                return Err(format!("duplicate {what} `{name}`"));
            }
            find(name)
        })
        .collect()
}

/// Resolves a list of suite test names (`--only`, serve `suite`); unknown
/// and repeated names are errors.
pub fn suite_tests<S: AsRef<str>>(names: &[S]) -> Result<Vec<LitmusTest>, String> {
    resolve_names(names, "suite test", |name| {
        suite::get(name).ok_or(format!("unknown suite test `{name}`"))
    })
}

/// Renders an ASCII bar chart: one row per `(label, value)`, scaled to
/// `width` columns, annotated with the formatted value.
pub fn bar_chart(items: &[(String, f64)], width: usize, unit: &str) -> String {
    let max = items.iter().map(|(_, v)| *v).fold(f64::EPSILON, f64::max);
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(4);
    let mut out = String::new();
    for (label, value) in items {
        let bar = "#".repeat(((value / max) * width as f64).round() as usize);
        out.push_str(&format!(
            "{label:label_w$} | {bar:width$} {value:.3}{unit}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcheck_obs::{attrs, Attrs};
    use std::sync::Condvar;

    fn row(test: &str, proven: usize, total: usize, runtime_ms: u64) -> TestRow {
        TestRow {
            test: test.into(),
            config: "T".into(),
            runtime: Duration::from_millis(runtime_ms),
            proven,
            total,
            by_assumptions: false,
            bounded_depths: vec![],
            violated: false,
        }
    }

    #[test]
    fn aggregates() {
        let results = SuiteResults {
            config: "T".into(),
            rows: vec![row("a", 9, 10, 10), row("b", 5, 10, 30)],
        };
        assert!((results.overall_proven_pct() - 70.0).abs() < 1e-9);
        assert!((results.mean_per_test_proven_pct() - 70.0).abs() < 1e-9);
        assert_eq!(results.mean_runtime(), Duration::from_millis(20));
        assert_eq!(results.total_runtime(), Duration::from_millis(40));
        assert_eq!(results.mean_bound(), None);
    }

    #[test]
    fn bar_chart_scales() {
        let chart = bar_chart(&[("aa".into(), 1.0), ("b".into(), 2.0)], 10, "s");
        assert!(chart.contains("aa | #####"), "{chart}");
        assert!(chart.contains("b  | ##########"), "{chart}");
    }

    /// Records counters and events as text lines, in arrival order.
    #[derive(Default)]
    struct Log(Mutex<Vec<String>>);

    impl Log {
        fn lines(&self) -> Vec<String> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Collector for Log {
        fn counter(&self, name: &str, value: u64, _attrs: Attrs) {
            self.0.lock().unwrap().push(format!("{name} {value}"));
        }

        fn event(&self, name: &str, attrs: Attrs) {
            self.0.lock().unwrap().push(format!("{name} {attrs:?}"));
        }
    }

    impl TrackSink for Log {
        fn track(&self, _tid: u64) -> Box<dyn Collector + '_> {
            Box::new(self)
        }
    }

    #[test]
    fn pool_returns_and_replays_units_in_index_order() {
        let units = 8;
        let run = |jobs: usize| {
            let (stream, live) = (Log::default(), Log::default());
            let finished = Mutex::new(Vec::new());
            // On several workers, unit 0 finishes only after unit 1 has.
            let unit_1_done = (Mutex::new(false), Condvar::new());
            let results = run_pool(
                units,
                jobs,
                &stream,
                &[&live],
                |i| ("unit", i.into()),
                |i, sink| {
                    let (done, signal) = &unit_1_done;
                    if jobs > 1 && i == 0 {
                        drop(signal.wait_while(done.lock().unwrap(), |d| !*d).unwrap());
                    }
                    sink.counter("unit.index", i as u64, attrs![]);
                    sink.event("unit.ran", attrs!["unit" => i]);
                    finished.lock().unwrap().push(i);
                    if i == 1 {
                        *done.lock().unwrap() = true;
                        signal.notify_all();
                    }
                    i * 10
                },
            );
            let mut live = live.lines();
            live.sort();
            (
                results,
                stream.lines(),
                live,
                finished.into_inner().unwrap(),
            )
        };
        let (seq, seq_stream, seq_live, _) = run(1);
        let (par, par_stream, par_live, par_finished) = run(4);
        let finished_at = |unit| par_finished.iter().position(|&u| u == unit);
        assert!(
            finished_at(1) < finished_at(0),
            "unit 0 finished before unit 1: {par_finished:?}"
        );
        assert_eq!(seq, (0..units).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(par, seq);
        assert_eq!(par_stream, seq_stream, "replayed stream differs");
        assert_eq!(seq_stream.len(), 2 * units);
        // Completion events reach the live tracks only, once per unit.
        assert!(!seq_stream.iter().any(|l| l.starts_with(UNIT_DONE)));
        assert_eq!(par_live, seq_live);
        let done = seq_live.iter().filter(|l| l.starts_with(UNIT_DONE));
        assert_eq!(done.count(), units);
    }

    #[test]
    fn rows_round_trip_through_json() {
        let mut r = row("mp", 24, 24, 5);
        r.bounded_depths = vec![40, 210];
        let text = r.to_json().render();
        assert!(text.contains("\"test\":\"mp\""), "{text}");
        let back = TestRow::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.test, "mp");
        assert_eq!(back.runtime, Duration::from_millis(5));
        assert_eq!(back.bounded_depths, vec![40, 210]);
        assert!(TestRow::from_json(&Json::parse("{}").unwrap()).is_err());
    }
}
