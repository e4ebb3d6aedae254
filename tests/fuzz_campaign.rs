//! End-to-end determinism and triage-quality tests for the `fuzz`
//! campaign: the same seed must produce byte-identical reports across
//! worker counts, with and without a graph cache, and on a correct memory
//! the polynomial oracle must settle the overwhelming majority of unique
//! shapes with zero oracle/engine disagreements.

use rtlcheck_bench::fuzz::{run_fuzz, FuzzOptions, FuzzReport};
use rtlcheck_obs::{MetricsCollector, NullCollector};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_verif::{GraphCache, VerifyConfig};

const SEED: u64 = 0xD15EA5E;
const COUNT: usize = 600;

fn campaign(jobs: usize, cache: Option<&GraphCache>) -> FuzzReport {
    let mut options = FuzzOptions::new(MemoryImpl::Fixed);
    options.count = COUNT;
    options.seed = SEED;
    options.jobs = jobs;
    run_fuzz(&options, &VerifyConfig::quick(), &NullCollector, cache).unwrap()
}

/// The tentpole determinism contract: one seed, one report — regardless of
/// worker count and regardless of whether a graph cache serves the engine
/// escalations.
#[test]
fn same_seed_is_byte_identical_across_jobs_and_cache() {
    let baseline = campaign(1, None);
    let cache = GraphCache::in_memory();
    let warm = GraphCache::in_memory();
    campaign(1, Some(&warm)); // prime, then replay from warm entries
    let runs = [
        ("jobs=8", campaign(8, None)),
        ("jobs=1 cached", campaign(1, Some(&cache))),
        ("jobs=8 cached", campaign(8, Some(&cache))),
        ("jobs=8 warm cache", campaign(8, Some(&warm))),
    ];
    for (label, run) in &runs {
        assert_eq!(
            baseline.render(),
            run.render(),
            "{label}: text report diverges from jobs=1 cold"
        );
        assert_eq!(
            baseline.to_json().render(),
            run.to_json().render(),
            "{label}: JSON report diverges from jobs=1 cold"
        );
    }
}

/// On the correct SC memory the campaign must be quiet: no model-level
/// violations, no oracle/engine disagreements, and the oracle alone must
/// resolve at least 90% of unique shapes (the acceptance floor).
#[test]
fn fixed_memory_campaign_is_quiet_and_oracle_dominated() {
    let report = campaign(4, None);
    assert_eq!(report.violations(), 0, "SC memory must forbid every cycle");
    assert_eq!(
        report.disagreements(),
        0,
        "oracle and engine must agree on every escalated shape"
    );
    assert!(
        report.oracle_resolved_pct() >= 90.0,
        "oracle must settle >=90% of shapes, got {:.1}%",
        report.oracle_resolved_pct()
    );
    assert!(
        report.duplicates > 0,
        "600 random cycles over lengths 3..6 must collide in signature space"
    );
    assert!(report.shapes.len() > 50, "expected shape diversity");
}

/// The campaign's observability stream carries the full funnel as
/// `fuzz.*` counters, and their totals are consistent with the report.
#[test]
fn campaign_emits_consistent_funnel_counters() {
    let metrics = MetricsCollector::new();
    let mut options = FuzzOptions::new(MemoryImpl::Fixed);
    options.count = 150;
    options.seed = 11;
    run_fuzz(&options, &VerifyConfig::quick(), &metrics, None).unwrap();
    let summary = metrics.summary();
    let count = |name: &str| summary.counter(name).map_or(0, |c| c.total);
    assert_eq!(count("fuzz.requested"), 150);
    assert_eq!(
        count("fuzz.generated"),
        count("fuzz.shapes") + count("fuzz.duplicates")
    );
    assert!(count("fuzz.shapes") > 0);
    assert!(count("fuzz.escalated") > 0, "mandatory escalations exist");
    assert_eq!(count("fuzz.agreements"), count("fuzz.escalated"));
    assert_eq!(count("fuzz.disagreements"), 0);
    assert_eq!(count("fuzz.violations"), 0);
}

/// On the buggy memory the engine sees the injected reordering bug on
/// shapes the ideal SC model forbids — disagreements are the campaign
/// catching a real RTL bug, and must be nonzero.
#[test]
fn buggy_memory_campaign_finds_the_injected_bug() {
    let mut options = FuzzOptions::new(MemoryImpl::Buggy);
    options.count = 200;
    options.seed = 3;
    options.jobs = 4;
    let report = run_fuzz(&options, &VerifyConfig::quick(), &NullCollector, None).unwrap();
    assert!(
        report.disagreements() > 0,
        "buggy memory must produce oracle/engine disagreements"
    );
}
