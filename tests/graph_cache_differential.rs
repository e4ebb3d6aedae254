//! Suite-level differential test for the graph cache.
//!
//! Every litmus test in the paper's suite is checked three ways — cold
//! build (no cache), cache miss, and cache hit — and the resulting
//! reports must be bit-identical: same verdicts, same
//! exploration statistics, same counterexample traces, same rendered
//! output. Only wall-clock timings may differ. This is the same discipline
//! as `tests/differential.rs`, pointed at the cache instead of the
//! reference engine: a cache that changed *any* observable result would be
//! a verifier silently proving the wrong thing.
//!
//! The random-design counterpart (proptest over snapshot round-trips)
//! lives in `crates/verif/tests/graph_cache_roundtrip.rs`.

use std::collections::HashSet;

use rtlcheck::core::{CoverOutcome, Rtlcheck, TestReport};
use rtlcheck::litmus::suite;
use rtlcheck::obs::NullCollector;
use rtlcheck::prelude::{MemoryImpl, VerifyConfig};
use rtlcheck::verif::GraphCache;

fn cover_label(report: &TestReport) -> String {
    match &report.cover {
        CoverOutcome::VerifiedUnreachable => "unreachable".to_string(),
        CoverOutcome::BugWitness(trace) => format!("bug-witness {trace:?}"),
        CoverOutcome::Inconclusive => "inconclusive".to_string(),
    }
}

fn assert_reports_match(cold: &TestReport, cached: &TestReport, how: &str) {
    let test = &cold.test;
    assert_eq!(cold.test, cached.test);
    assert_eq!(cold.config, cached.config);
    assert_eq!(
        cover_label(cold),
        cover_label(cached),
        "{test}/{how}: cover outcome diverged"
    );
    assert_eq!(
        cold.cover_stats, cached.cover_stats,
        "{test}/{how}: cover ExploreStats diverged"
    );
    assert_eq!(
        cold.vacuous, cached.vacuous,
        "{test}/{how}: vacuity diverged"
    );
    assert_eq!(
        cold.properties.len(),
        cached.properties.len(),
        "{test}/{how}: property count diverged"
    );
    for (c, h) in cold.properties.iter().zip(&cached.properties) {
        assert_eq!(c.name, h.name, "{test}/{how}: property order diverged");
        assert_eq!(c.axiom, h.axiom, "{test}/{how}: axiom attribution diverged");
        // PropertyVerdict carries stats, bounded depth, and the full
        // counterexample trace; Debug formatting compares all of them.
        assert_eq!(
            format!("{:?}", c.verdict),
            format!("{:?}", h.verdict),
            "{test}/{how}: verdict for `{}` diverged",
            c.name
        );
    }
    // The user-facing rendering must also be byte-identical (it contains
    // no wall-clock numbers by design).
    assert_eq!(
        format!("{cold}"),
        format!("{cached}"),
        "{test}/{how}: rendered report diverged"
    );
}

/// Checks one test cold, via a cache miss, and via a cache hit, and
/// asserts all three reports match: a cold build *through* the cache must
/// also be unchanged.
fn check_all_paths(checker: &Rtlcheck, test: &rtlcheck::litmus::LitmusTest) {
    let config = VerifyConfig::hybrid();
    let cold = checker.check_test(test, &config);

    // The first request publishes the warm core, the second resumes it.
    let cache = GraphCache::in_memory();
    let miss = checker.check_test_cached(test, &config, &cache, &NullCollector);
    let hit = checker.check_test_cached(test, &config, &cache, &NullCollector);
    let s = cache.stats();
    assert_eq!(
        (s.requests, s.hits, s.misses),
        (2, 1, 1),
        "{}: unexpected cache activity {s:?}",
        test.name()
    );
    assert_reports_match(&cold, &miss, "memory-miss");
    assert_reports_match(&cold, &hit, "memory-hit");
}

/// Every suite test on the fixed design under the paper's Hybrid
/// configuration (bounded engine first — exercises budget parity, bounded
/// verdicts, and engine escalation, not just the full-proof fast path).
#[test]
fn cache_paths_match_cold_builds_on_the_whole_suite() {
    let checker = Rtlcheck::new(MemoryImpl::Fixed);
    for test in suite::all() {
        check_all_paths(&checker, &test);
    }
}

/// A handful of tests against the *buggy* memory, where counterexample
/// traces and bug witnesses must also survive the cache byte-for-byte.
#[test]
fn cache_paths_match_cold_builds_on_buggy_memory() {
    let checker = Rtlcheck::new(MemoryImpl::Buggy);
    for name in ["mp", "sb", "co-mp"] {
        let test = suite::get(name).expect("suite test exists");
        check_all_paths(&checker, &test);
    }
}

/// Several threads check the same tests through one shared cache, each in
/// a different order, so same-key requests race: the first builds while
/// the others wait on it. `sb`, `podwr000` and `iwp23b` share one
/// fingerprint, as do `n6` and `safe021`, so different tests race for one
/// key too. Every report still equals the cold one, and build-once keeps
/// the misses at one per distinct fingerprint.
#[test]
fn concurrent_requests_through_one_cache_build_each_key_once() {
    const THREADS: usize = 4;
    let checker = Rtlcheck::new(MemoryImpl::Fixed);
    let config = VerifyConfig::hybrid();
    let tests: Vec<_> = ["mp", "sb", "podwr000", "iwp23b", "n6", "safe021"]
        .iter()
        .map(|name| suite::get(name).expect("suite test exists"))
        .collect();
    let cold: Vec<TestReport> = tests
        .iter()
        .map(|t| checker.check_test(t, &config))
        .collect();
    let keys: HashSet<_> = tests
        .iter()
        .map(|t| checker.problem_fingerprint(t))
        .collect();
    assert_eq!(keys.len(), 3, "the shared fingerprints this test relies on");

    let cache = GraphCache::in_memory();
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (checker, config, tests, cold, cache) = (&checker, &config, &tests, &cold, &cache);
            scope.spawn(move || {
                // Rotate the order, and reverse it on odd threads.
                let mut order: Vec<usize> = (0..tests.len())
                    .map(|i| (i + thread) % tests.len())
                    .collect();
                if thread % 2 == 1 {
                    order.reverse();
                }
                for i in order {
                    let report =
                        checker.check_test_cached(&tests[i], config, cache, &NullCollector);
                    assert_reports_match(&cold[i], &report, "concurrent");
                }
            });
        }
    });
    let s = cache.stats();
    assert_eq!(s.requests, (THREADS * tests.len()) as u64, "{s:?}");
    assert_eq!(
        s.misses,
        keys.len() as u64,
        "one build per fingerprint: {s:?}"
    );
    assert_eq!(s.hits + s.misses, s.requests, "{s:?}");
    assert_eq!(s.collisions, 0, "{s:?}");
}
