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
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use rtlcheck_core::{Rtlcheck, TestReport};
use rtlcheck_litmus::{suite, LitmusTest};
pub use rtlcheck_obs::json::Json;
use rtlcheck_obs::{
    progress::UNIT_DONE, AttrValue, BufferCollector, Collector, MultiCollector, TrackSink,
};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_verif::VerifyConfig;

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
/// instrumentation into a private [`BufferCollector`]. The calling thread
/// is the sequencer: as soon as unit `i` and every unit before it have
/// finished, it replays unit `i`'s buffer into `collector` and drops it, so
/// the collector sees exactly the stream a sequential run would have
/// produced (span durations are the workers' original measurements), and
/// only the units finished ahead of the oldest running one stay buffered.
/// The observability invariants — counters summing to report totals,
/// balanced spans — therefore hold under any job count. A panicking unit
/// makes `run_pool` panic once the other workers stop. `jobs` ≤ 1 runs
/// inline on the calling thread, reporting straight to `collector` with no
/// buffering.
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
    let slots = Slots {
        state: Mutex::new(SlotState {
            done: (0..units).map(|_| None).collect(),
            panicked: false,
        }),
        filled: Condvar::new(),
    };
    std::thread::scope(|scope| {
        let (next, slots, unit) = (&next, &slots, &unit);
        for w in 0..workers {
            scope.spawn(move || {
                let _alarm = PanicAlarm(slots);
                let tracks: Vec<Box<dyn Collector + '_>> =
                    live.iter().map(|s| s.track(w as u64 + 1)).collect();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= units {
                        break;
                    }
                    let buf = BufferCollector::new();
                    let result = unit(i, &buf, &tracks);
                    slots.lock().done[i] = Some((result, buf));
                    slots.filled.notify_all();
                }
            });
        }

        let mut results = Vec::with_capacity(units);
        for i in 0..units {
            let mut state = slots.lock();
            while state.done[i].is_none() && !state.panicked {
                state = slots.filled.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            // A worker panicked: stop here, and the scope re-raises it.
            let Some((result, buf)) = state.done[i].take() else {
                break;
            };
            drop(state);
            buf.replay_into(collector);
            results.push(result);
        }
        results
    })
}

/// The finished units [`run_pool`]'s workers hand to its calling thread.
struct Slots<R> {
    state: Mutex<SlotState<R>>,
    /// Notified whenever a unit finishes or a worker panics.
    filled: Condvar,
}

struct SlotState<R> {
    /// Finished units not yet replayed, by index.
    done: Vec<Option<(R, BufferCollector)>>,
    /// Set when a worker panics, so its unit's slot will never fill.
    panicked: bool,
}

impl<R> Slots<R> {
    fn lock(&self) -> MutexGuard<'_, SlotState<R>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Held by each pool worker: if the worker unwinds, it wakes the calling
/// thread, which would otherwise wait for the lost unit forever.
struct PanicAlarm<'a, R>(&'a Slots<R>);

impl<R> Drop for PanicAlarm<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().panicked = true;
            self.0.filled.notify_all();
        }
    }
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

/// Parses a memory implementation name (`--memory`, serve `memory`).
pub fn parse_memory(v: &str) -> Result<MemoryImpl, String> {
    match v {
        "fixed" => Ok(MemoryImpl::Fixed),
        "buggy" => Ok(MemoryImpl::Buggy),
        "tso" => Ok(MemoryImpl::Tso),
        other => Err(format!("unknown memory implementation `{other}`")),
    }
}

/// Parses a verification configuration name (`--config`, serve `config`).
pub fn parse_config(v: &str) -> Result<VerifyConfig, String> {
    match v {
        "quick" => Ok(VerifyConfig::quick()),
        "hybrid" => Ok(VerifyConfig::hybrid()),
        "full-proof" | "full_proof" => Ok(VerifyConfig::full_proof()),
        other => Err(format!("unknown config `{other}`")),
    }
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
    use rtlcheck_obs::{attrs, Attrs, NullCollector};

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
    struct Log(Mutex<Vec<String>>, Condvar);

    impl Log {
        fn lines(&self) -> Vec<String> {
            self.0.lock().unwrap().clone()
        }

        fn push(&self, line: String) {
            self.0.lock().unwrap().push(line);
            self.1.notify_all();
        }

        /// Waits up to `timeout` for `line` to arrive; returns whether it
        /// did.
        fn wait_for(&self, line: &str, timeout: Duration) -> bool {
            let missing = |lines: &mut Vec<String>| !lines.iter().any(|l| l == line);
            let waited = self
                .1
                .wait_timeout_while(self.0.lock().unwrap(), timeout, missing);
            !waited.unwrap().1.timed_out()
        }
    }

    impl Collector for Log {
        fn counter(&self, name: &str, value: u64, _attrs: Attrs) {
            self.push(format!("{name} {value}"));
        }

        fn event(&self, name: &str, attrs: Attrs) {
            self.push(format!("{name} {attrs:?}"));
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
    fn pool_replays_each_unit_once_every_earlier_unit_is_done() {
        let units = 6;
        let stream = Log::default();
        let seen_before_start = run_pool(
            units,
            2,
            &stream,
            &[],
            |i| ("unit", i.into()),
            |i, sink| {
                // Unit `i` starts only once the collector has seen unit
                // `i - 1`, which the calling thread must replay while the
                // workers still run.
                let seen = i == 0
                    || stream.wait_for(&format!("unit.index {}", i - 1), Duration::from_secs(10));
                sink.counter("unit.index", i as u64, attrs![]);
                seen
            },
        );
        assert_eq!(seen_before_start, vec![true; units]);
        let expected: Vec<String> = (0..units).map(|i| format!("unit.index {i}")).collect();
        assert_eq!(stream.lines(), expected);
    }

    #[test]
    fn a_panicking_unit_makes_the_pool_panic_instead_of_hang() {
        let (tx, rx) = std::sync::mpsc::channel();
        // On its own thread, so that a hang fails the test instead of
        // stalling it.
        let pool = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                run_pool(
                    4,
                    2,
                    &NullCollector,
                    &[],
                    |i| ("unit", i.into()),
                    |i, _| {
                        assert_ne!(i, 0, "unit 0 fails");
                        i
                    },
                )
            });
            tx.send(outcome.is_err()).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(60)), Ok(true));
        pool.join().unwrap();
    }

    #[test]
    fn rows_serialise_every_field() {
        let mut r = row("mp", 23, 24, 5);
        r.bounded_depths = vec![40, 210];
        r.violated = true;
        let v = Json::parse(&r.to_json().render()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "test",
                "config",
                "runtime_us",
                "proven",
                "total",
                "by_assumptions",
                "bounded_depths",
                "violated"
            ]
        );
        let num = |k: &str| v.get(k).and_then(Json::as_u64);
        assert_eq!(v.get("test").and_then(Json::as_str), Some("mp"));
        assert_eq!(v.get("config").and_then(Json::as_str), Some("T"));
        assert_eq!(num("runtime_us"), Some(5_000));
        assert_eq!((num("proven"), num("total")), (Some(23), Some(24)));
        assert_eq!(v.get("by_assumptions").and_then(Json::as_bool), Some(false));
        let depths: Vec<u64> = v
            .get("bounded_depths")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(depths, [40, 210]);
        assert_eq!(v.get("violated").and_then(Json::as_bool), Some(true));
    }
}
