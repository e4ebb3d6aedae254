//! End-to-end tests of the observability layer: the `--events` JSONL
//! stream, the `--metrics` summary, and their consistency with the report
//! the flow returns.

use std::collections::HashMap;
use std::process::Command;

use rtlcheck::bench::run_suite;
use rtlcheck::core::Rtlcheck;
use rtlcheck::obs::json::Json;
use rtlcheck::obs::{attrs, Collector, JsonlCollector, MetricsCollector, MultiCollector, SpanId};
use rtlcheck::prelude::*;

fn rtlcheck(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtlcheck"))
        .args(args)
        .output()
        .expect("the rtlcheck binary runs")
}

/// Golden check of the JSONL schema: every line parses, carries the
/// mandatory fields of its type, and span enters/exits balance exactly.
#[test]
fn check_events_produces_schema_valid_jsonl() {
    let dir = std::env::temp_dir().join(format!("rtlcheck-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("events.jsonl");
    let metrics = dir.join("metrics.json");

    let out = rtlcheck(&[
        "check",
        "mp",
        "--events",
        events.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let text = std::fs::read_to_string(&events).unwrap();
    let mut open: HashMap<u64, String> = HashMap::new();
    let mut seen_names = Vec::new();
    let mut counters = 0u64;
    for line in text.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(v.get("t_us").and_then(Json::as_u64).is_some(), "{line}");
        match v.get("type").and_then(Json::as_str).unwrap() {
            "span_enter" => {
                let id = v.get("id").and_then(Json::as_u64).unwrap();
                let name = v.get("name").and_then(Json::as_str).unwrap();
                seen_names.push(name.to_string());
                open.insert(id, name.to_string());
            }
            "span_exit" => {
                let id = v.get("id").and_then(Json::as_u64).unwrap();
                let name = v.get("name").and_then(Json::as_str).unwrap();
                assert_eq!(open.remove(&id).as_deref(), Some(name), "{line}");
                assert!(v.get("dur_us").and_then(Json::as_u64).is_some(), "{line}");
            }
            "counter" => {
                counters += 1;
                assert!(v.get("name").and_then(Json::as_str).is_some(), "{line}");
                assert!(v.get("value").and_then(Json::as_u64).is_some(), "{line}");
            }
            "event" => {
                assert!(v.get("name").and_then(Json::as_str).is_some(), "{line}");
            }
            other => panic!("unknown line type `{other}`: {line}"),
        }
    }
    assert!(open.is_empty(), "unbalanced spans: {open:?}");
    assert!(counters > 0, "the flow reports counters");
    for phase in [
        "check_test",
        "design_build",
        "assumption_gen",
        "assertion_gen",
        "cover_search",
    ] {
        assert!(
            seen_names.iter().any(|n| n == phase),
            "missing span `{phase}`"
        );
    }

    // The metrics file parses back and `rtlcheck profile` renders it.
    let summary_text = std::fs::read_to_string(&metrics).unwrap();
    let summary = rtlcheck::obs::MetricsSummary::parse(&summary_text).expect("metrics file parses");
    assert_eq!(
        summary.event_count("verdict.proven"),
        24,
        "mp proves all 24 properties"
    );
    let out = rtlcheck(&["profile", metrics.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let rendered = String::from_utf8(out.stdout).unwrap();
    assert!(
        rendered.contains("RTLCheck verification profile"),
        "{rendered}"
    );
    assert!(rendered.contains("check_test"), "{rendered}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The metrics counters must sum to the totals the report carries — the
/// acceptance invariant tying `--metrics` to `--trace`.
#[test]
fn metrics_counters_match_report_totals() {
    let test = rtlcheck::litmus::suite::get("mp").unwrap();
    let config = VerifyConfig::quick();
    let jsonl = JsonlCollector::new(Vec::new());
    let metrics = MetricsCollector::new();
    let report = {
        let multi = MultiCollector::new(vec![&jsonl, &metrics]);
        Rtlcheck::new(MemoryImpl::Fixed).check_test_observed(&test, &config, &multi)
    };
    assert!(report.verified(), "{report}");

    let summary = metrics.summary();
    let totals = report.total_stats();
    let counter = |name: &str| summary.counter(name).map_or(0, |c| c.total);
    assert_eq!(
        counter("cover.states") + counter("property.states"),
        totals.states as u64,
        "metrics states == --trace total states"
    );
    assert_eq!(
        counter("cover.transitions") + counter("property.transitions"),
        totals.transitions,
        "metrics transitions == --trace total transitions"
    );
    assert_eq!(
        counter("cover.pruned") + counter("property.pruned"),
        totals.pruned_by_assumptions,
        "metrics pruning == --trace total pruning"
    );
    assert_eq!(
        summary.event_count("verdict.proven") as usize,
        report.num_proven(),
        "one verdict event per proven property"
    );

    // The span layer is the single timing source: the per-span histogram
    // totals bound the report's wall-clock figures.
    let spans = summary
        .spans
        .iter()
        .map(|s| (s.name.as_str(), s.hist.count()))
        .collect::<HashMap<_, _>>();
    assert_eq!(
        spans.get("property").copied(),
        Some(report.properties.len() as u64)
    );
    assert_eq!(spans.get("cover_search").copied(), Some(1));

    // And the raw stream stays balanced under the same run.
    let bytes = jsonl.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let mut depth = 0i64;
    for line in text.lines() {
        match Json::parse(line)
            .unwrap()
            .get("type")
            .and_then(Json::as_str)
        {
            Some("span_enter") => depth += 1,
            Some("span_exit") => depth -= 1,
            _ => {}
        }
    }
    assert_eq!(depth, 0, "span enters/exits balance");
}

/// Suite-wide assertion- and assumption-monitor metrics, pinned to the
/// totals of the unmemoised walk and row build: a memoised monitor
/// transition replays its step's `attempts` and `first_filter_hits`, so
/// the totals cannot drift. Also checks the walk's memo counters: every
/// property-walk transition is either a real monitor step or a memo hit,
/// the fixed suite hits the memo at least 90% of the time, and the
/// counters do not depend on the worker count. The
/// row build's work counters (`graph.rows_built`, `graph.sim_settles`,
/// `graph.assume_steps`, `graph.assume_memo_hits`) are pinned exactly and
/// are byte-identical across `--jobs 1` and `--jobs 8`.
#[test]
fn suite_monitor_metrics_and_memo_counters_are_pinned() {
    let config = VerifyConfig::quick();
    let run = |memory: MemoryImpl, jobs: usize| {
        let metrics = MetricsCollector::new();
        run_suite(memory, &config, jobs, &metrics, None);
        metrics.summary()
    };
    const GRAPH_WORK: [&str; 4] = [
        "graph.rows_built",
        "graph.sim_settles",
        "graph.assume_steps",
        "graph.assume_memo_hits",
    ];
    for (memory, attempts, filter_hits, graph_work) in [
        (
            MemoryImpl::Fixed,
            1_841_160,
            1_823_052,
            [4_880, 19_520, 2_379, 370_981],
        ),
        (
            MemoryImpl::Buggy,
            7_535_216,
            7_501_124,
            [19_929, 79_716, 2_566, 1_524_622],
        ),
    ] {
        let summary = run(memory, 1);
        let total = |name: &str| summary.counter(name).map_or(0, |c| c.total);
        assert_eq!(total("monitor.attempts"), attempts, "{memory:?}");
        assert_eq!(
            total("monitor.first_filter_hits"),
            filter_hits,
            "{memory:?}"
        );
        assert_eq!(
            GRAPH_WORK.map(total),
            graph_work,
            "{memory:?}: {GRAPH_WORK:?}"
        );
        assert_eq!(
            total("graph.sim_settles"),
            total("graph.edges") + total("graph.pruned_edges"),
            "{memory:?}: a cold row settles the design once per input"
        );
        let parallel = run(memory, 8);
        for name in GRAPH_WORK {
            assert_eq!(
                summary.counter(name),
                parallel.counter(name),
                "{name} depends on --jobs"
            );
        }

        let (steps, hits) = (
            total("engine.full.monitor_steps"),
            total("engine.full.monitor_memo_hits"),
        );
        assert_eq!(
            steps + hits,
            total("engine.full.transitions"),
            "{memory:?}: every walk transition steps the monitor or hits the memo"
        );
        if memory == MemoryImpl::Fixed {
            assert!(
                hits * 10 >= (steps + hits) * 9,
                "memo hit rate below 90%: {hits} hits, {steps} steps"
            );
            for name in ["engine.full.monitor_steps", "engine.full.monitor_memo_hits"] {
                assert_eq!(
                    summary.counter(name),
                    parallel.counter(name),
                    "{name} depends on --jobs"
                );
            }
        }
    }
}

/// Histogram edges — empty, single-sample, and top-bucket-saturating
/// summaries must render sane percentiles through `rtlcheck profile`, not
/// zeros, garbage, or a panic.
#[test]
fn profile_renders_sane_percentiles_at_histogram_edges() {
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("rtlcheck-hist-edges-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let render_via_cli = |name: &str, m: &MetricsCollector| -> String {
        let path = dir.join(name);
        std::fs::write(&path, m.summary().to_json().pretty() + "\n").unwrap();
        let out = rtlcheck(&["profile", path.to_str().unwrap()]);
        assert!(out.status.success(), "{name}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };

    // Empty: no spans at all. The profile renders (counters only), with no
    // phase table to show percentiles in.
    let empty = MetricsCollector::new();
    empty.counter("engine.full.states", 7, attrs![]);
    let text = render_via_cli("empty.json", &empty);
    assert!(text.contains("RTLCheck verification profile"), "{text}");
    assert!(
        !text.contains("p50"),
        "no phase table when no spans: {text}"
    );
    let s = empty.summary();
    assert!(s.spans.is_empty());

    // Single sample: every percentile is that sample, exactly — the
    // quantile clamps its bucket edge to the observed [min, max].
    let single = MetricsCollector::new();
    single.span_exit(
        SpanId(1),
        "graph_build",
        Duration::from_micros(100),
        attrs![],
    );
    let s = single.summary();
    let h = &s.spans[0].hist;
    assert_eq!(h.approx_quantile_us(0.5), 100);
    assert_eq!(h.approx_quantile_us(0.99), 100);
    let text = render_via_cli("single.json", &single);
    assert!(text.contains("graph_build"), "{text}");
    assert!(text.contains("100 µs"), "p50/p99 show the sample: {text}");

    // Top-bucket saturation: a duration beyond the last log₂ bucket must
    // clamp to the observed max, keeping p50 <= p99 <= max finite and
    // ordered rather than overflowing the bucket edge shift.
    let saturated = MetricsCollector::new();
    let huge = Duration::from_secs(3_000_000); // 3e12 µs > 2^39 µs top bucket
    saturated.span_exit(SpanId(1), "property", Duration::from_micros(50), attrs![]);
    saturated.span_exit(SpanId(2), "property", huge, attrs![]);
    let s = saturated.summary();
    let h = &s.spans[0].hist;
    let (p50, p99) = (h.approx_quantile_us(0.5), h.approx_quantile_us(0.99));
    assert!(p50 <= p99, "{p50} <= {p99}");
    assert_eq!(
        p99,
        huge.as_micros() as u64,
        "saturated sample clamps to max"
    );
    assert_eq!(h.max_us(), huge.as_micros() as u64);
    let text = render_via_cli("saturated.json", &saturated);
    assert!(text.contains("property"), "{text}");
    assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}
