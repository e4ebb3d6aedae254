//! The mutation campaign: run the litmus suite against every catalogued
//! mutant of a design and measure whether the generated properties kill it.
//!
//! RealityCheck and TriCheck argue that a verification flow must be
//! validated against seeded bug *families*, not a single known defect. This
//! module is that validation for the RTLCheck reproduction: the
//! [`rtlcheck_rtl::mutate`] catalogs inject stall-drops, forwarding
//! removals, priority flips, buffer overwrites, reset skips, and commit
//! reorderings into the Multi-V-scale / five-stage / TSO designs, and the
//! campaign classifies each mutant as **killed**, **survived**, or
//! **budget-limited**.
//!
//! ## Kill classification
//!
//! Every litmus test is first checked on the *unmutated* design — the
//! baseline verdict matters because a bug signal is only meaningful
//! relative to it (on the TSO design, `sb`'s SC-forbidden outcome is
//! legitimately reachable, so a covering trace there is not a kill). A
//! mutant is **killed by test t** when its bug verdict on `t` *differs*
//! from the baseline's:
//!
//! * baseline clean, mutant finds a bug (cover witness or falsified
//!   assertion) — the classic kill; the killing axioms are the falsified
//!   properties' axioms plus the `cover` pseudo-axiom for a witness;
//! * baseline finds a bug, mutant does not — the mutation removed an
//!   execution the real design exhibits; attributed to `cover`.
//!
//! A mutant killed by no test is **budget-limited** if any of its runs was
//! inconclusive (the cover budget ran out, so reachability was never
//! decided), otherwise **survived**. Survivors name the weakest axioms —
//! the axioms that killed nothing across the whole campaign.
//!
//! ## Determinism
//!
//! The campaign reuses the suite runner's scheduling pattern: a
//! self-scheduling worker pool over the flat (design × test) work list,
//! per-item [`BufferCollector`]s replayed in input order. The report
//! contains no timing data, so its text and JSON renderings are
//! byte-identical across `--jobs` values.
//!
//! ## Incremental recomputation
//!
//! With [`CampaignOptions::incremental`] enabled (the default), mutant
//! checks splice their state graphs from the baseline design's published
//! core instead of rebuilding cold — only the mutation's dirty cones are
//! re-simulated (see [`rtlcheck_verif::GraphCache::build_graph_incremental`]).
//! The spliced graph is bit-identical to a cold build, so the kill matrix
//! and JSON report are byte-identical across incremental-vs-cold too. To
//! guarantee the baseline cores exist before any mutant asks for them, a
//! parallel campaign runs in two phases — all baseline items first, then
//! all mutant items — over the same fixed result slots, which leaves the
//! deterministic collector stream unchanged. When the caller passes no
//! cache, an internal in-memory cache carries the baseline cores; its
//! counters are not reported.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rtlcheck_core::{five_stage, CoverOutcome, Rtlcheck, TestReport};
use rtlcheck_litmus::{suite, LitmusTest};
use rtlcheck_obs::json::Json;
use rtlcheck_obs::{
    attrs, progress::UNIT_DONE, BufferCollector, Collector, MultiCollector, TrackSink,
};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_rtl::mutate::{catalog, CatalogTarget, Mutation};
use rtlcheck_verif::{GraphCache, Incremental, VerifyConfig};

/// The pseudo-axiom credited when the kill signal is the covering trace
/// (a forbidden outcome becoming reachable, or a witnessed outcome
/// disappearing) rather than a falsified assertion.
pub const COVER_AXIOM: &str = "cover";

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Which design's mutant catalog to run.
    pub target: CatalogTarget,
    /// Worker threads (≤ 1 runs inline).
    pub jobs: usize,
    /// If set, only mutants with these names run.
    pub mutants: Option<Vec<String>>,
    /// If set, only suite tests with these names run.
    pub tests: Option<Vec<String>>,
    /// Whether mutant graphs splice from the baseline cores
    /// (`--incremental`; [`Incremental::Off`] preserves the cold path for
    /// differential CI).
    pub incremental: Incremental,
}

impl CampaignOptions {
    /// Options for a full single-threaded campaign on `target`.
    pub fn new(target: CatalogTarget) -> Self {
        CampaignOptions {
            target,
            jobs: 1,
            mutants: None,
            tests: None,
            incremental: Incremental::default(),
        }
    }
}

/// A mutant's campaign classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantVerdict {
    /// At least one test's bug verdict differs from the baseline's.
    Killed,
    /// No test distinguishes the mutant and every run was conclusive.
    Survived,
    /// No kill, but at least one run exhausted its cover budget.
    BudgetLimited,
}

impl MutantVerdict {
    /// Stable lower-snake label (reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            MutantVerdict::Killed => "killed",
            MutantVerdict::Survived => "survived",
            MutantVerdict::BudgetLimited => "budget_limited",
        }
    }
}

/// One test's contribution to a mutant's kill.
#[derive(Debug, Clone)]
pub struct KillRecord {
    /// The litmus test that distinguished the mutant.
    pub test: String,
    /// Axioms whose properties were falsified on the mutant (plus
    /// [`COVER_AXIOM`] when the covering trace flipped), deduplicated, in
    /// property order.
    pub axioms: Vec<String>,
}

/// A mutant's full campaign result.
#[derive(Debug, Clone)]
pub struct MutantResult {
    /// Mutation name (see [`rtlcheck_rtl::mutate::catalog`]).
    pub name: String,
    /// Taxonomy family label.
    pub family: String,
    /// Human description of the injected bug.
    pub description: String,
    /// Classification.
    pub verdict: MutantVerdict,
    /// The tests that killed it (empty for survivors).
    pub killed_by: Vec<KillRecord>,
}

impl MutantResult {
    /// Every axiom that contributed to killing this mutant, deduplicated,
    /// in first-seen order.
    pub fn killing_axioms(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for k in &self.killed_by {
            for a in &k.axioms {
                if !seen.contains(&a.as_str()) {
                    seen.push(a.as_str());
                }
            }
        }
        seen
    }
}

/// The campaign's aggregate result: the mutation-score report.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Design label ([`CatalogTarget::label`]).
    pub design: String,
    /// Verification configuration name.
    pub config: String,
    /// The litmus tests that ran, in suite order.
    pub tests: Vec<String>,
    /// Per-mutant results, in catalog order.
    pub mutants: Vec<MutantResult>,
    /// Every axiom the baseline generated across the tests (plus
    /// [`COVER_AXIOM`]), in first-seen order — the kill-matrix columns.
    pub axioms: Vec<String>,
}

impl CampaignReport {
    /// Number of killed mutants.
    pub fn killed(&self) -> usize {
        self.count(MutantVerdict::Killed)
    }

    /// Number of surviving mutants.
    pub fn survived(&self) -> usize {
        self.count(MutantVerdict::Survived)
    }

    /// Number of budget-limited mutants.
    pub fn budget_limited(&self) -> usize {
        self.count(MutantVerdict::BudgetLimited)
    }

    fn count(&self, v: MutantVerdict) -> usize {
        self.mutants.iter().filter(|m| m.verdict == v).count()
    }

    /// Mutation score: killed / total mutants, as a percentage.
    pub fn score_pct(&self) -> f64 {
        100.0 * self.killed() as f64 / self.mutants.len().max(1) as f64
    }

    /// Survivor names (the mutants the suite cannot distinguish).
    pub fn survivors(&self) -> Vec<&str> {
        self.mutants
            .iter()
            .filter(|m| m.verdict != MutantVerdict::Killed)
            .map(|m| m.name.as_str())
            .collect()
    }

    /// How many mutants each axiom killed — the kill matrix marginals, in
    /// [`CampaignReport::axioms`] order.
    pub fn axiom_kill_counts(&self) -> Vec<(&str, usize)> {
        self.axioms
            .iter()
            .map(|a| {
                let kills = self
                    .mutants
                    .iter()
                    .filter(|m| m.killing_axioms().contains(&a.as_str()))
                    .count();
                (a.as_str(), kills)
            })
            .collect()
    }

    /// The weakest axioms: those that killed no mutant at all. When
    /// mutants survive, these name where the generated property set is
    /// blind.
    pub fn weakest_axioms(&self) -> Vec<&str> {
        self.axiom_kill_counts()
            .into_iter()
            .filter(|&(_, kills)| kills == 0)
            .map(|(a, _)| a)
            .collect()
    }

    /// Renders the text report. Contains no timing data, so the output is
    /// byte-identical across job counts.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Mutation campaign: {} ({} mutants x {} tests, config {})",
            self.design,
            self.mutants.len(),
            self.tests.len(),
            self.config
        );
        let _ = writeln!(out);
        for m in &self.mutants {
            let _ = writeln!(
                out,
                "  {:<28} {:<14} [{}]",
                m.name,
                m.verdict.label(),
                m.family
            );
            for k in &m.killed_by {
                let _ = writeln!(
                    out,
                    "    killed by {:<12} via {}",
                    k.test,
                    k.axioms.join(", ")
                );
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Score: {}/{} killed ({:.1}%), {} survived, {} budget-limited",
            self.killed(),
            self.mutants.len(),
            self.score_pct(),
            self.survived(),
            self.budget_limited()
        );
        let survivors = self.survivors();
        if !survivors.is_empty() {
            let _ = writeln!(out, "Survivors: {}", survivors.join(", "));
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "Axiom kill matrix (mutants killed per axiom):");
        let width = self
            .axioms
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(5)
            .max(5);
        for (axiom, kills) in self.axiom_kill_counts() {
            let mark = if kills == 0 { "  <- weakest" } else { "" };
            let _ = writeln!(out, "  {axiom:<width$} {kills}{mark}");
        }
        out
    }

    /// Serializes the report as JSON (same content as [`render`], same
    /// determinism guarantee).
    ///
    /// [`render`]: CampaignReport::render
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("design", Json::Str(self.design.clone())),
            ("config", Json::Str(self.config.clone())),
            (
                "tests",
                Json::Arr(self.tests.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "mutants",
                Json::Arr(
                    self.mutants
                        .iter()
                        .map(|m| {
                            Json::obj(vec![
                                ("name", Json::Str(m.name.clone())),
                                ("family", Json::Str(m.family.clone())),
                                ("description", Json::Str(m.description.clone())),
                                ("verdict", Json::Str(m.verdict.label().to_string())),
                                // Constant since `--backend` was retired.
                                ("backend", Json::Str("explicit".to_string())),
                                (
                                    "killed_by",
                                    Json::Arr(
                                        m.killed_by
                                            .iter()
                                            .map(|k| {
                                                Json::obj(vec![
                                                    ("test", Json::Str(k.test.clone())),
                                                    (
                                                        "axioms",
                                                        Json::Arr(
                                                            k.axioms
                                                                .iter()
                                                                .cloned()
                                                                .map(Json::Str)
                                                                .collect(),
                                                        ),
                                                    ),
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
            ("killed", Json::Num(self.killed() as f64)),
            ("survived", Json::Num(self.survived() as f64)),
            ("budget_limited", Json::Num(self.budget_limited() as f64)),
            ("score_pct", Json::Num(self.score_pct())),
            (
                "survivors",
                Json::Arr(
                    self.survivors()
                        .into_iter()
                        .map(|s| Json::Str(s.to_string()))
                        .collect(),
                ),
            ),
            (
                "weakest_axioms",
                Json::Arr(
                    self.weakest_axioms()
                        .into_iter()
                        .map(|s| Json::Str(s.to_string()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One (design variant, test) check in the flat work list. `mutant` is
/// `None` for the baseline run of the unmutated design.
fn check_one(
    target: CatalogTarget,
    mutant: Option<&Mutation>,
    test: &LitmusTest,
    config: &VerifyConfig,
    cache: Option<&GraphCache>,
    incremental: Incremental,
    collector: &dyn Collector,
) -> TestReport {
    let tool = match target {
        CatalogTarget::MultiVscale => Some(Rtlcheck::new(MemoryImpl::Fixed)),
        CatalogTarget::Tso => Some(Rtlcheck::tso()),
        CatalogTarget::FiveStage => None,
    };
    let run = match (tool, mutant) {
        (Some(tool), Some(m)) => {
            tool.check_test_mutated(test, m, config, cache, incremental, collector)
        }
        (Some(tool), None) => Ok(match cache {
            Some(c) => tool.check_test_cached(test, config, c, collector),
            None => tool.check_test_observed(test, config, collector),
        }),
        (None, _) => {
            five_stage::check_test_mutated(test, mutant, config, cache, incremental, collector)
        }
    };
    run.unwrap_or_else(|e| {
        panic!(
            "catalog mutation `{}` must apply to every {} build: {e}",
            mutant.map_or("<baseline>", |m| m.name.as_str()),
            target
        )
    })
}

/// Runs the mutation campaign.
///
/// All (1 + mutants) × tests checks — the baseline suite pass plus every
/// mutant's pass — run on a self-scheduling pool of `jobs` workers with
/// the suite runner's determinism contract: per-item instrumentation is
/// buffered and replayed to `collector` in input order, and the campaign's
/// own `mutation.*` counters and per-mutant verdict events are emitted
/// after all replays, so the observability stream is independent of the
/// job count.
///
/// # Errors
///
/// Returns an error if a `mutants`/`tests` filter names an unknown mutant
/// or test.
///
/// # Panics
///
/// Panics if a catalog mutation fails to apply to its design — a catalog
/// invariant, tested in `rtlcheck_rtl::mutate`.
pub fn run_campaign(
    options: &CampaignOptions,
    config: &VerifyConfig,
    collector: &dyn Collector,
    cache: Option<&GraphCache>,
) -> Result<CampaignReport, String> {
    run_campaign_live(options, config, collector, cache, &[])
}

/// [`run_campaign`] plus live side-channel sinks ([`TrackSink`]): each
/// worker additionally reports through its own live track as checks happen
/// (real timestamps, real schedule — what `--trace-out` and `--progress`
/// consume), and marks every completed (design, test) item with a
/// [`UNIT_DONE`] event on the live tracks **only**. The deterministic
/// stream into `collector` is byte-identical with or without live sinks.
pub fn run_campaign_live(
    options: &CampaignOptions,
    config: &VerifyConfig,
    collector: &dyn Collector,
    cache: Option<&GraphCache>,
    live: &[&dyn TrackSink],
) -> Result<CampaignReport, String> {
    let all_tests = suite::all();
    let tests: Vec<LitmusTest> = match &options.tests {
        None => all_tests,
        Some(names) => {
            let mut picked = Vec::new();
            for n in names {
                let t = all_tests
                    .iter()
                    .find(|t| t.name() == n)
                    .ok_or_else(|| format!("unknown litmus test `{n}`"))?;
                picked.push(t.clone());
            }
            picked
        }
    };
    let full_catalog = catalog(options.target);
    let mutants: Vec<Mutation> = match &options.mutants {
        None => full_catalog,
        Some(names) => {
            let mut picked = Vec::new();
            for n in names {
                let m = full_catalog
                    .iter()
                    .find(|m| &m.name == n)
                    .ok_or_else(|| format!("unknown mutant `{n}` for {}", options.target))?;
                picked.push(m.clone());
            }
            picked
        }
    };
    if tests.is_empty() {
        return Err("no litmus tests selected".into());
    }

    // Splicing needs somewhere to publish the baseline cores: use the
    // caller's cache when there is one, otherwise an internal in-memory
    // cache whose counters are never reported (so the deterministic
    // stream matches the cache-less cold campaign).
    let own_cache = (cache.is_none() && options.incremental.enabled()).then(GraphCache::in_memory);
    let unit_cache: Option<&GraphCache> = cache.or(own_cache.as_ref());

    // Flat work list: item 0..T is the baseline, then each mutant's T
    // checks. Workers self-schedule over it; results land in fixed slots.
    let designs: Vec<Option<&Mutation>> = std::iter::once(None)
        .chain(mutants.iter().map(Some))
        .collect();
    let items: Vec<(usize, usize)> = (0..designs.len())
        .flat_map(|d| (0..tests.len()).map(move |t| (d, t)))
        .collect();

    let workers = options.jobs.max(1).min(items.len());
    let reports: Vec<TestReport> = if workers <= 1 {
        let tracks: Vec<Box<dyn Collector + '_>> = live.iter().map(|s| s.track(1)).collect();
        items
            .iter()
            .map(|&(d, t)| {
                let report = {
                    let mut sinks: Vec<&dyn Collector> = vec![collector];
                    sinks.extend(tracks.iter().map(|b| &**b));
                    check_one(
                        options.target,
                        designs[d],
                        &tests[t],
                        config,
                        unit_cache,
                        options.incremental,
                        &MultiCollector::new(sinks),
                    )
                };
                for track in &tracks {
                    track.event(UNIT_DONE, attrs!["test" => tests[t].name()]);
                }
                report
            })
            .collect()
    } else {
        let slots: Vec<Mutex<Option<(TestReport, BufferCollector)>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        // With splicing on, every baseline core must be published before
        // any mutant item asks for it: the baseline items run as their own
        // phase, then the mutant items. Both phases self-schedule over
        // their range of the same fixed slots, so the replayed stream is
        // identical to the single-phase schedule's.
        let barrier = if options.incremental.enabled() {
            tests.len()
        } else {
            0
        };
        for range in [0..barrier, barrier..items.len()] {
            if range.is_empty() {
                continue;
            }
            let next = AtomicUsize::new(range.start);
            let end = range.end;
            let phase_workers = workers.min(end - range.start);
            std::thread::scope(|scope| {
                let (next, slots, items, designs, tests) =
                    (&next, &slots, &items, &designs, &tests);
                for w in 0..phase_workers {
                    scope.spawn(move || {
                        let tracks: Vec<Box<dyn Collector + '_>> =
                            live.iter().map(|s| s.track(w as u64 + 1)).collect();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= end {
                                break;
                            }
                            let (d, t) = items[i];
                            let buf = BufferCollector::new();
                            let report = {
                                let mut sinks: Vec<&dyn Collector> = vec![&buf];
                                sinks.extend(tracks.iter().map(|b| &**b));
                                check_one(
                                    options.target,
                                    designs[d],
                                    &tests[t],
                                    config,
                                    unit_cache,
                                    options.incremental,
                                    &MultiCollector::new(sinks),
                                )
                            };
                            for track in &tracks {
                                track.event(UNIT_DONE, attrs!["test" => tests[t].name()]);
                            }
                            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) =
                                Some((report, buf));
                        }
                    });
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| {
                let (report, buf) = slot
                    .into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every work slot is filled once its worker finishes");
                buf.replay_into(collector);
                report
            })
            .collect()
    };
    if let Some(cache) = cache {
        cache.report_to(collector);
    }

    let (baseline, mutant_reports) = reports.split_at(tests.len());
    let report = classify(options, config, &tests, &mutants, baseline, mutant_reports);

    // Campaign counters and per-mutant events, in fixed (catalog) order —
    // after all replays, so the stream is scheduling-independent.
    let design = options.target.label();
    collector.counter(
        "mutation.mutants",
        report.mutants.len() as u64,
        attrs!["design" => design],
    );
    collector.counter(
        "mutation.killed",
        report.killed() as u64,
        attrs!["design" => design],
    );
    collector.counter(
        "mutation.survived",
        report.survived() as u64,
        attrs!["design" => design],
    );
    collector.counter(
        "mutation.budget_limited",
        report.budget_limited() as u64,
        attrs!["design" => design],
    );
    collector.counter(
        "mutation.checks",
        reports.len() as u64,
        attrs!["design" => design],
    );
    for m in &report.mutants {
        collector.event(
            "mutant_verdict",
            attrs!["mutant" => &m.name, "verdict" => m.verdict.label()],
        );
    }
    Ok(report)
}

/// Folds the raw reports into the campaign classification.
fn classify(
    options: &CampaignOptions,
    config: &VerifyConfig,
    tests: &[LitmusTest],
    mutants: &[Mutation],
    baseline: &[TestReport],
    mutant_reports: &[TestReport],
) -> CampaignReport {
    // Kill-matrix columns: cover first, then every axiom the baseline's
    // properties mention, in first-seen order.
    let mut axioms: Vec<String> = vec![COVER_AXIOM.to_string()];
    for r in baseline {
        for p in &r.properties {
            if !axioms.contains(&p.axiom) {
                axioms.push(p.axiom.clone());
            }
        }
    }

    let results = mutants
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let runs = &mutant_reports[mi * tests.len()..(mi + 1) * tests.len()];
            let mut killed_by = Vec::new();
            let mut inconclusive = false;
            for (ti, run) in runs.iter().enumerate() {
                let base = &baseline[ti];
                if matches!(run.cover, CoverOutcome::Inconclusive) {
                    inconclusive = true;
                }
                if run.bug_found() == base.bug_found() {
                    continue;
                }
                let mut kill_axioms = Vec::new();
                if matches!(run.cover, CoverOutcome::BugWitness(_))
                    != matches!(base.cover, CoverOutcome::BugWitness(_))
                {
                    kill_axioms.push(COVER_AXIOM.to_string());
                }
                for p in &run.properties {
                    if p.verdict.is_falsified() && !kill_axioms.contains(&p.axiom) {
                        kill_axioms.push(p.axiom.clone());
                    }
                }
                killed_by.push(KillRecord {
                    test: tests[ti].name().to_string(),
                    axioms: kill_axioms,
                });
            }
            let verdict = if !killed_by.is_empty() {
                MutantVerdict::Killed
            } else if inconclusive {
                MutantVerdict::BudgetLimited
            } else {
                MutantVerdict::Survived
            };
            MutantResult {
                name: m.name.clone(),
                family: m.family.label().to_string(),
                description: m.description.clone(),
                verdict,
                killed_by,
            }
        })
        .collect();

    CampaignReport {
        design: options.target.label().to_string(),
        config: config.name.clone(),
        tests: tests.iter().map(|t| t.name().to_string()).collect(),
        mutants: results,
        axioms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, verdict: MutantVerdict, killed_by: Vec<KillRecord>) -> MutantResult {
        MutantResult {
            name: name.into(),
            family: "drop_stall".into(),
            description: String::new(),
            verdict,
            killed_by,
        }
    }

    fn sample() -> CampaignReport {
        CampaignReport {
            design: "multi_vscale".into(),
            config: "T".into(),
            tests: vec!["mp".into(), "sb".into()],
            mutants: vec![
                result(
                    "a",
                    MutantVerdict::Killed,
                    vec![KillRecord {
                        test: "mp".into(),
                        axioms: vec![COVER_AXIOM.into(), "Read_Values".into()],
                    }],
                ),
                result("b", MutantVerdict::Survived, vec![]),
            ],
            axioms: vec![COVER_AXIOM.into(), "Read_Values".into(), "PO_Fetch".into()],
        }
    }

    #[test]
    fn score_and_survivors() {
        let r = sample();
        assert_eq!(r.killed(), 1);
        assert_eq!(r.survived(), 1);
        assert!((r.score_pct() - 50.0).abs() < 1e-9);
        assert_eq!(r.survivors(), vec!["b"]);
        assert_eq!(r.weakest_axioms(), vec!["PO_Fetch"]);
    }

    #[test]
    fn render_names_survivors_and_weakest_axioms() {
        let text = sample().render();
        assert!(text.contains("1/2 killed (50.0%)"), "{text}");
        assert!(text.contains("Survivors: b"), "{text}");
        assert!(text.contains("PO_Fetch"), "{text}");
        assert!(text.contains("<- weakest"), "{text}");
    }

    #[test]
    fn json_lists_survivors_by_name() {
        let v = sample().to_json();
        let text = v.render();
        assert!(text.contains("\"survivors\":[\"b\"]"), "{text}");
        assert!(text.contains("\"verdict\":\"killed\""), "{text}");
        assert!(text.contains("\"backend\":\"explicit\""), "{text}");
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("score_pct").and_then(Json::as_u64),
            Some(50),
            "{text}"
        );
    }
}
