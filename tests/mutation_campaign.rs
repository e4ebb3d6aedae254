//! End-to-end mutation campaign: the generated properties must kill the
//! injected consistency bugs.
//!
//! The acceptance bar mirrors the §7.1 result: the store-drop mutant (the
//! seeded analog of the V-scale `wdata` bug) must be killed — on `mp`, as
//! in the paper — and the campaign as a whole must kill at least 80% of
//! the Multi-V-scale catalog, with survivors listed by name.

use rtlcheck_bench::mutation::{run_campaign, CampaignOptions, MutantVerdict};
use rtlcheck_obs::json::Json;
use rtlcheck_obs::MetricsCollector;
use rtlcheck_obs::NullCollector;
use rtlcheck_rtl::mutate::CatalogTarget;
use rtlcheck_verif::VerifyConfig;

fn quick() -> VerifyConfig {
    VerifyConfig::quick()
}

#[test]
fn multi_vscale_campaign_kills_the_seeded_mutants() {
    let mut options = CampaignOptions::new(CatalogTarget::MultiVscale);
    options.jobs = 8;
    let metrics = MetricsCollector::new();
    let report = run_campaign(&options, &quick(), &metrics, None).unwrap();

    // The campaign's row-build and walk work, pinned: a change that builds
    // more rows or fetches more edges shows here, whatever the wall clock.
    let summary = metrics.summary();
    let total = |name: &str| summary.counter(name).map(|c| c.total);
    assert_eq!(total("graph.rows_built"), Some(46_841));
    assert_eq!(total("graph.lookups"), Some(16_184_871));

    // The §7.1 analog: dropping the first of two back-to-back stores is
    // caught, and `mp` is among the killing tests.
    let store_drop = report
        .mutants
        .iter()
        .find(|m| m.name == "store_drop_when_busy")
        .expect("the catalog seeds the store-drop mutant");
    assert_eq!(
        store_drop.verdict,
        MutantVerdict::Killed,
        "{}",
        report.render()
    );
    assert!(
        store_drop.killed_by.iter().any(|k| k.test == "mp"),
        "store_drop_when_busy must be killed on mp:\n{}",
        report.render()
    );

    // ≥ 80% of the mutant set dies; the deliberate equivalent mutant is
    // the only survivor and is named in the JSON artifact.
    assert!(
        report.score_pct() >= 80.0,
        "mutation score {:.1}% below the 80% bar:\n{}",
        report.score_pct(),
        report.render()
    );
    assert_eq!(report.survivors(), vec!["halt_ignores_stall"]);
    let json = report.to_json().render();
    assert!(
        json.contains("\"survivors\":[\"halt_ignores_stall\"]"),
        "{json}"
    );
    let parsed = Json::parse(&json).unwrap();
    assert_eq!(
        parsed.get("killed").and_then(Json::as_u64),
        Some(report.killed() as u64)
    );
    // Survivors force the weakest-axiom listing to be meaningful: at least
    // one axiom killed nothing.
    assert!(!report.weakest_axioms().is_empty(), "{}", report.render());
}

#[test]
fn report_is_byte_identical_across_job_counts() {
    for target in [
        CatalogTarget::MultiVscale,
        CatalogTarget::Tso,
        CatalogTarget::FiveStage,
    ] {
        let run = |jobs: usize| {
            let mut options = CampaignOptions::new(target);
            options.jobs = jobs;
            options.tests = Some(vec!["mp".into(), "sb".into()]);
            run_campaign(&options, &quick(), &NullCollector, None).unwrap()
        };
        let seq = run(1);
        let par = run(8);
        assert_eq!(seq.render(), par.render(), "{target}: text");
        assert_eq!(
            seq.to_json().render(),
            par.to_json().render(),
            "{target}: JSON"
        );
    }
}

#[test]
fn tso_campaign_kills_through_the_tso_axioms() {
    let mut options = CampaignOptions::new(CatalogTarget::Tso);
    options.jobs = 8;
    options.tests = Some(vec!["mp".into(), "sb".into()]);
    let report = run_campaign(&options, &quick(), &NullCollector, None).unwrap();
    assert!(report.killed() >= 5, "{}", report.render());
    // The store-buffer catalog is killed through TSO-specific axioms, not
    // just the covering trace.
    assert!(
        report
            .axiom_kill_counts()
            .iter()
            .any(|&(a, kills)| a == "Mem_FIFO" && kills > 0),
        "{}",
        report.render()
    );
}

#[test]
fn five_stage_campaign_smoke() {
    let mut options = CampaignOptions::new(CatalogTarget::FiveStage);
    options.jobs = 8;
    options.tests = Some(vec!["mp".into(), "sb".into()]);
    let report = run_campaign(&options, &quick(), &NullCollector, None).unwrap();
    assert!(report.killed() >= 4, "{}", report.render());
}

#[test]
fn campaign_emits_mutation_metrics() {
    let metrics = MetricsCollector::new();
    let mut options = CampaignOptions::new(CatalogTarget::MultiVscale);
    options.jobs = 2;
    options.tests = Some(vec!["mp".into()]);
    options.mutants = Some(vec![
        "store_drop_when_busy".into(),
        "drop_stall_core0".into(),
    ]);
    let report = run_campaign(&options, &quick(), &metrics, None).unwrap();
    assert_eq!(report.killed(), 2);
    let summary = metrics.summary();
    assert_eq!(
        summary.counter("mutation.mutants").map(|c| c.total),
        Some(2)
    );
    assert_eq!(summary.counter("mutation.killed").map(|c| c.total), Some(2));
    // 3 designs (baseline + 2 mutants) × 1 test.
    assert_eq!(summary.counter("mutation.checks").map(|c| c.total), Some(3));
    let text = summary.render();
    assert!(text.contains("Mutation campaign:"), "{text}");
    assert!(text.contains("2 mutant(s): 2 killed"), "{text}");
}

#[test]
fn unknown_filters_are_clean_errors() {
    let mut options = CampaignOptions::new(CatalogTarget::MultiVscale);
    options.mutants = Some(vec!["no_such_mutant".into()]);
    let err = run_campaign(&options, &quick(), &NullCollector, None).unwrap_err();
    assert!(err.contains("unknown mutant `no_such_mutant`"), "{err}");

    let mut options = CampaignOptions::new(CatalogTarget::MultiVscale);
    options.tests = Some(vec!["no_such_test".into()]);
    let err = run_campaign(&options, &quick(), &NullCollector, None).unwrap_err();
    assert!(err.contains("unknown litmus test `no_such_test`"), "{err}");
}
