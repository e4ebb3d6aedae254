//! Determinism of the parallel suite engine.
//!
//! `rtlcheck suite --jobs N` must produce byte-identical results and
//! byte-identical metrics regardless of `N`: the worker threads self-schedule
//! over the test list, but reports are slotted by suite index and each
//! worker's instrumentation is buffered and replayed in suite order. Only
//! wall-clock durations may differ between runs, so the comparison
//! normalizes `runtime_us` and compares metric counters/events rather than
//! span timings.

use std::time::Duration;

use rtlcheck::bench::{run_suite, SuiteResults};
use rtlcheck::obs::{MetricsCollector, NullCollector};
use rtlcheck::prelude::{MemoryImpl, VerifyConfig};

/// Renders the suite results as JSON with timings zeroed out.
fn normalized_json(mut results: SuiteResults) -> String {
    for row in &mut results.rows {
        row.runtime = Duration::ZERO;
    }
    results.to_json().pretty()
}

#[test]
fn suite_results_are_identical_across_job_counts() {
    let config = VerifyConfig::quick();
    let sequential = run_suite(MemoryImpl::Fixed, &config, 1, &NullCollector);
    let parallel = run_suite(MemoryImpl::Fixed, &config, 4, &NullCollector);
    assert_eq!(
        normalized_json(sequential),
        normalized_json(parallel),
        "suite rows must not depend on the worker count"
    );
}

#[test]
fn suite_metrics_are_identical_across_job_counts() {
    let config = VerifyConfig::quick();

    let seq_metrics = MetricsCollector::new();
    run_suite(MemoryImpl::Fixed, &config, 1, &seq_metrics);
    let seq = seq_metrics.summary();

    let par_metrics = MetricsCollector::new();
    run_suite(MemoryImpl::Fixed, &config, 4, &par_metrics);
    let par = par_metrics.summary();

    // Counters (states, transitions, graph.* reuse, …) are exact sums and
    // must match to the unit; events must arrive in the same order with the
    // same payloads. Span *durations* are wall-clock and may differ, but the
    // set and order of spans must not: buffered per-worker instrumentation
    // is replayed in suite order.
    assert_eq!(seq.counters, par.counters, "metric counters diverged");
    assert_eq!(seq.events, par.events, "metric events diverged");
    let seq_spans: Vec<_> = seq
        .spans
        .iter()
        .map(|s| (&s.name, s.hist.count()))
        .collect();
    let par_spans: Vec<_> = par
        .spans
        .iter()
        .map(|s| (&s.name, s.hist.count()))
        .collect();
    assert_eq!(seq_spans, par_spans, "span sequence diverged");
}
