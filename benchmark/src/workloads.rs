//! The workloads: seeded inputs, one measured pass, and the known-answer
//! check of every operation a pass performs.
//!
//! The seed only orders and samples inputs; the program under test sees the
//! generated inputs and nothing else. Known answers never come from the
//! engine under test: the SC oracle, the checked-in `expected/` files and
//! the nightly kill list. The server's warm replies are also compared with
//! its own cold-cache replies.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use rtlcheck_bench::fuzz::{run_fuzz, FuzzOptions};
use rtlcheck_bench::mutation::{run_campaign, CampaignOptions, MutantVerdict};
use rtlcheck_core::{assert_gen, assume, AssertionOptions, Rtlcheck, TestReport};
use rtlcheck_litmus::oracle::{self, Model, Verdict};
use rtlcheck_litmus::{suite, LitmusTest};
use rtlcheck_obs::json::Json;
use rtlcheck_obs::MetricsSummary;
use rtlcheck_obs::{Attrs, Collector, MultiCollector, NullCollector, SpanId};
use rtlcheck_rtl::multi_vscale::MemoryImpl;
use rtlcheck_rtl::mutate::{catalog, CatalogTarget, Mutation};
use rtlcheck_verif::{
    check_transitions, replay, GraphCache, PropertyVerdict, ReplayVerdict, VerifyConfig,
};

use crate::serve::ServeLoad;

const FIXED_EXPECTED: &str = include_str!("../expected/suite-fixed.txt");
const BUGGY_EXPECTED: &str = include_str!("../expected/suite-buggy.txt");
const NIGHTLY_KILLS: &str = include_str!("../../.github/nightly/expected_kills.json");

/// Diy cycles sampled per fuzz-sc pass, and by its set-up's warm-up.
const FUZZ_CYCLES: usize = 200_000;
const FUZZ_WARM_UP_CYCLES: usize = 1_000;

/// What one pass measured and how its operations fared.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the measured operations (checks excluded).
    pub wall: Duration,
    /// Time to a verdict of each operation: a test check, a mutant flow,
    /// an escalated fuzz shape, or a server request.
    pub latencies: Vec<Duration>,
    pub attempted: u64,
    pub failed: u64,
    /// What the program reported per verification flow, in flow order.
    pub flows: Vec<FlowTap>,
    /// One line per failed operation.
    pub problems: Vec<String>,
}

impl Pass {
    /// A pass over the tapped `flows`, each a timed operation.
    fn of_flows(wall: Duration, flows: Vec<FlowTap>, attempted: usize) -> Pass {
        Pass {
            wall,
            latencies: flows.iter().map(|f| f.latency).collect(),
            attempted: attempted as u64,
            flows,
            ..Pass::default()
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }
}

/// Runs `f` with the program's instrumentation going to a [`Tap`] and to
/// `collector`; returns its result, its wall time and the tapped flows.
pub fn tapped<T>(
    collector: &dyn Collector,
    f: impl FnOnce(&dyn Collector) -> T,
) -> (T, Duration, Vec<FlowTap>) {
    let tap = Tap::default();
    let sinks = MultiCollector::new(vec![&tap, collector]);
    let start = Instant::now();
    let out = f(&sinks);
    let wall = start.elapsed();
    drop(sinks);
    (out, wall, tap.into_flows())
}

/// One `check_test` flow as the program's own instrumentation reports it.
#[derive(Debug, Default)]
pub struct FlowTap {
    pub latency: Duration,
    /// Product nodes the lazy flow materialised (`graph.nodes`).
    pub rows: u64,
    /// Cover outcome and property verdicts, e.g. `unreachable:proven,bounded,`.
    pub signature: String,
}

/// A collector that keeps only what the benchmark reads: each
/// `check_test` span's duration, its `graph.nodes` counter, and its
/// verdict events. It does no work on the program's other instrumentation,
/// so a pass observed through it costs what an unobserved pass costs.
#[derive(Default)]
pub struct Tap {
    flows: RefCell<Vec<FlowTap>>,
}

impl Tap {
    pub fn into_flows(self) -> Vec<FlowTap> {
        self.flows.into_inner()
    }

    fn last(&self, f: impl FnOnce(&mut FlowTap)) {
        if let Some(flow) = self.flows.borrow_mut().last_mut() {
            f(flow);
        }
    }
}

impl Collector for Tap {
    fn span_enter(&self, _id: SpanId, name: &str, _attrs: Attrs) {
        if name == "check_test" {
            self.flows.borrow_mut().push(FlowTap::default());
        }
    }

    fn span_exit(&self, _id: SpanId, name: &str, elapsed: Duration, _attrs: Attrs) {
        if name == "check_test" {
            self.last(|f| f.latency = elapsed);
        }
    }

    fn counter(&self, name: &str, value: u64, _attrs: Attrs) {
        if name == "graph.nodes" {
            self.last(|f| f.rows = value);
        }
    }

    fn event(&self, name: &str, _attrs: Attrs) {
        if let Some(cover) = name.strip_prefix("cover.") {
            self.last(|f| {
                f.signature.push_str(cover);
                f.signature.push(':');
            });
        } else if let Some(verdict) = name.strip_prefix("verdict.") {
            self.last(|f| {
                f.signature.push_str(verdict);
                f.signature.push(',');
            });
        }
    }
}

/// The verification flows one pass runs, for the layer decomposition.
pub enum Flows {
    /// One `check_test` per test.
    Tests {
        memory: MemoryImpl,
        tests: Vec<LitmusTest>,
    },
    /// The baseline pass over `tests`, then every mutant over `tests`.
    Campaign {
        tests: Vec<LitmusTest>,
        mutants: Vec<Mutation>,
    },
    /// One fuzzing campaign.
    Fuzz(FuzzOptions),
    /// One server connection's requests, each served warm: `cache`
    /// already holds every test's graph, as the server's cache does after
    /// its cold round.
    Warm {
        memory: MemoryImpl,
        tests: Vec<LitmusTest>,
        cache: Box<GraphCache>,
        /// The flows that filled `cache`, as the program reported them.
        cold: Vec<FlowTap>,
    },
}

/// A prepared workload. Every pass repeats the same operations in the
/// same order.
pub trait Load {
    /// One measured pass; the program's instrumentation also goes to
    /// `collector` (the server's own instrumentation is fixed when it
    /// binds, so it ignores `collector`).
    fn pass(&mut self, collector: &dyn Collector) -> Pass;

    /// The verification flows of a pass, for the layer decomposition.
    fn flows(&self) -> Flows;

    /// Layer numbers only this workload has, read after the traced run
    /// from the program's metrics of its last observed pass.
    fn extras(&mut self, _metrics: &MetricsSummary) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// Builds the inputs of `workload` from `seed`.
pub fn prepare(workload: &str, seed: u64) -> Result<Box<dyn Load>, String> {
    Ok(match workload {
        "suite-fixed" => Box::new(SuiteLoad::new(MemoryImpl::Fixed, seed)),
        "suite-buggy" => Box::new(SuiteLoad::new(MemoryImpl::Buggy, seed)),
        "mutate-mvs" => Box::new(MutateLoad::new()),
        "fuzz-sc" => Box::new(FuzzLoad::new(seed)),
        "serve-warm" => Box::new(ServeLoad::start(seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// An independent random stream per purpose, all derived from one seed.
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The 56 suite tests in the seed's order.
pub fn shuffled_suite(seed: u64) -> Vec<LitmusTest> {
    let mut tests = suite::all();
    tests.shuffle(&mut stream(seed, 1));
    tests
}

/// The input of every set-up's warm-up operation. Set-up ends with one
/// untimed operation on a fixed input, so that `setup_s` is the time to a
/// first answer and shows work moved out of the measured passes.
fn warm_up_test() -> LitmusTest {
    suite::get("mp").expect("mp is a suite test")
}

// ---------------------------------------------------------------------------
// Known answers
// ---------------------------------------------------------------------------

/// One line of an `expected/suite-*.txt` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub violation: bool,
    pub proven: usize,
    pub total: usize,
}

pub fn parse_expected(text: &str) -> Result<BTreeMap<String, Expected>, String> {
    let mut rows = BTreeMap::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("malformed expected line `{line}`");
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, status, share] = fields[..] else {
            return Err(bad());
        };
        let violation = match status {
            "violation" => true,
            "verified" => false,
            _ => return Err(bad()),
        };
        let (proven, total) = share.split_once('/').ok_or_else(bad)?;
        let row = Expected {
            violation,
            proven: proven.parse().map_err(|_| bad())?,
            total: total.parse().map_err(|_| bad())?,
        };
        rows.insert(name.to_string(), row);
    }
    Ok(rows)
}

/// Judges one test's outcome against its known answer: the status must
/// match and the proven share may not drop.
pub fn judge_row(
    violation: bool,
    proven: usize,
    total: usize,
    want: &Expected,
) -> Result<(), String> {
    let label = |v: bool| if v { "violation" } else { "verified" };
    if violation != want.violation {
        return Err(format!(
            "{} where {} is expected",
            label(violation),
            label(want.violation)
        ));
    }
    if proven * want.total < want.proven * total {
        return Err(format!(
            "proven share dropped to {proven}/{total} from {}/{}",
            want.proven, want.total
        ));
    }
    Ok(())
}

pub fn expected_rows(memory: MemoryImpl) -> BTreeMap<String, Expected> {
    let text = match memory {
        MemoryImpl::Buggy => BUGGY_EXPECTED,
        MemoryImpl::Fixed | MemoryImpl::Tso => FIXED_EXPECTED,
    };
    parse_expected(text).expect("the checked-in expected files parse (pinned by the self-tests)")
}

/// The `multi_vscale` kill list of the nightly mutation campaign.
pub fn nightly_kills() -> BTreeSet<String> {
    let doc = Json::parse(NIGHTLY_KILLS).expect("expected_kills.json parses");
    doc.get("multi_vscale")
        .and_then(Json::as_arr)
        .expect("expected_kills.json lists multi_vscale")
        .iter()
        .filter_map(|n| n.as_str().map(str::to_string))
        .collect()
}

/// The mutants whose killed status differs from `expected`.
pub fn kill_mismatches(killed: &BTreeSet<String>, expected: &BTreeSet<String>) -> Vec<String> {
    killed.symmetric_difference(expected).cloned().collect()
}

// ---------------------------------------------------------------------------
// suite-fixed / suite-buggy
// ---------------------------------------------------------------------------

pub struct SuiteLoad {
    memory: MemoryImpl,
    tests: Vec<LitmusTest>,
    tool: Rtlcheck,
    config: VerifyConfig,
    expected: BTreeMap<String, Expected>,
    /// The SC oracle's verdict per test (fixed memory only).
    oracle: BTreeMap<String, Verdict>,
}

impl SuiteLoad {
    pub fn new(memory: MemoryImpl, seed: u64) -> SuiteLoad {
        let tests = shuffled_suite(seed);
        let oracle = match memory {
            MemoryImpl::Fixed => tests
                .iter()
                .map(|t| (t.name().to_string(), oracle::check(t, Model::Sc)))
                .collect(),
            _ => BTreeMap::new(),
        };
        let load = SuiteLoad {
            memory,
            tool: Rtlcheck::new(memory),
            config: VerifyConfig::hybrid(),
            expected: expected_rows(memory),
            oracle,
            tests,
        };
        black_box(load.tool.check_test(&warm_up_test(), &load.config));
        load
    }

    fn judge(&self, test: &LitmusTest, report: &TestReport) -> Result<(), String> {
        let bug = report.bug_found();
        let want = self
            .expected
            .get(test.name())
            .ok_or("no expected answer for this test")?;
        judge_row(bug, report.num_proven(), report.properties.len(), want)?;
        match self.oracle.get(test.name()) {
            Some(Verdict::Forbidden) if bug => Err("violation the SC oracle forbids".into()),
            Some(Verdict::Observable) if !bug => Err("missed an SC-observable outcome".into()),
            Some(Verdict::Unknown) => Err("the SC oracle could not decide".into()),
            _ => self.confirm_counterexamples(test, report),
        }
    }

    /// Every falsified property's counterexample must be [`confirmed`].
    fn confirm_counterexamples(
        &self,
        test: &LitmusTest,
        report: &TestReport,
    ) -> Result<(), String> {
        let falsified: Vec<_> = report
            .properties
            .iter()
            .filter_map(|p| match &p.verdict {
                PropertyVerdict::Falsified { trace, .. } => Some((p.name.as_str(), trace)),
                _ => None,
            })
            .collect();
        if falsified.is_empty() {
            return Ok(());
        }
        let mv = self.tool.build_design(test);
        let assumptions = assume::generate(&mv, test);
        let assertions = assert_gen::generate(
            &uspec_for(self.memory),
            &mv,
            test,
            AssertionOptions::paper(),
        )
        .expect("the Multi-V-scale µspec is synthesizable");
        let problem = problem_of(&mv.design, &assumptions);
        for (name, trace) in falsified {
            let assertion = assertions
                .iter()
                .find(|a| a.directive.name == name)
                .ok_or_else(|| format!("falsified property {name} is not generated"))?;
            if !confirmed(&problem, assertion, trace) {
                return Err(format!("counterexample of {name} does not replay"));
            }
        }
        Ok(())
    }
}

impl Load for SuiteLoad {
    fn pass(&mut self, collector: &dyn Collector) -> Pass {
        let (reports, wall, flows) = tapped(collector, |sinks| {
            self.tests
                .iter()
                .map(|t| self.tool.check_test_observed(t, &self.config, sinks))
                .collect::<Vec<TestReport>>()
        });
        let mut pass = Pass::of_flows(wall, flows, reports.len());
        for (test, report) in self.tests.iter().zip(&reports) {
            if let Err(e) = self.judge(test, report) {
                pass.fail(format!("{}: {e}", test.name()));
            }
        }
        pass
    }

    fn flows(&self) -> Flows {
        Flows::Tests {
            memory: self.memory,
            tests: self.tests.clone(),
        }
    }
}

/// Whether a counterexample is genuine: an admissible execution of the
/// design on which the assertion fails at the last cycle, replayed through
/// fresh monitors and the simulator.
pub fn confirmed(
    problem: &rtlcheck_verif::Problem<'_>,
    assertion: &assert_gen::GeneratedAssertion,
    trace: &rtlcheck_rtl::waveform::Trace,
) -> bool {
    replay(problem, &assertion.directive.prop, trace) == ReplayVerdict::Confirmed
        && check_transitions(problem, trace).is_none()
}

/// The verification problem `check_test` poses for a design.
pub fn problem_of<'d>(
    design: &'d rtlcheck_rtl::Design,
    assumptions: &assume::GeneratedAssumptions,
) -> rtlcheck_verif::Problem<'d> {
    let mut problem = rtlcheck_verif::Problem::new(design);
    problem.init_pins = assumptions.init_pins.clone();
    problem.assumptions = assumptions.directives.clone();
    problem.cover = Some(assumptions.cover.clone());
    problem
}

/// The µspec model `Rtlcheck::new(memory)` checks against.
pub fn uspec_for(memory: MemoryImpl) -> rtlcheck_uspec::Spec {
    match memory {
        MemoryImpl::Tso => rtlcheck_uspec::multi_vscale_tso::spec(),
        MemoryImpl::Fixed | MemoryImpl::Buggy => rtlcheck_uspec::multi_vscale::spec(),
    }
}

// ---------------------------------------------------------------------------
// mutate-mvs
// ---------------------------------------------------------------------------

pub struct MutateLoad {
    options: CampaignOptions,
    config: VerifyConfig,
    tests: Vec<LitmusTest>,
    mutants: Vec<Mutation>,
    expected: BTreeSet<String>,
}

impl MutateLoad {
    /// The campaign `rtlcheck mutate` runs: every catalog mutant over every
    /// suite test, in catalog and suite order. It has no other input, so it
    /// takes no seed. Its peak memory depends on the order in which the
    /// campaign's cache fills, so the order stays fixed.
    pub fn new() -> MutateLoad {
        let tests = suite::all();
        let mutants = catalog(CatalogTarget::MultiVscale);
        let config = VerifyConfig::hybrid();
        let options = CampaignOptions::new(CatalogTarget::MultiVscale);
        let warm_up = CampaignOptions {
            tests: Some(vec![warm_up_test().name().to_string()]),
            mutants: Some(vec![mutants[0].name.clone()]),
            ..options.clone()
        };
        black_box(run_campaign(&warm_up, &config, &NullCollector, None).expect("catalog names"));
        MutateLoad {
            options,
            config,
            tests,
            mutants,
            expected: nightly_kills(),
        }
    }
}

impl Load for MutateLoad {
    fn pass(&mut self, collector: &dyn Collector) -> Pass {
        let (report, wall, flows) = tapped(collector, |sinks| {
            run_campaign(&self.options, &self.config, sinks, None).expect("a full catalog campaign")
        });
        let mut pass = Pass::of_flows(wall, flows, report.mutants.len());
        let killed: BTreeSet<String> = report
            .mutants
            .iter()
            .filter(|m| m.verdict == MutantVerdict::Killed)
            .map(|m| m.name.clone())
            .collect();
        for name in kill_mismatches(&killed, &self.expected) {
            let got = if killed.contains(&name) {
                "killed"
            } else {
                "not killed"
            };
            pass.fail(format!("mutant {name} {got}, unlike the nightly kill list"));
        }
        pass
    }

    fn flows(&self) -> Flows {
        Flows::Campaign {
            tests: self.tests.clone(),
            mutants: self.mutants.clone(),
        }
    }

    fn extras(&mut self, metrics: &MetricsSummary) -> Vec<(String, f64)> {
        let total = |name: &str| metrics.counter(name).map_or(0, |c| c.total) as f64;
        let copied = total("cone.rows_copied");
        let recomputed = total("cone.rows_recomputed");
        let mut out = vec![
            ("cone.rows_copied".to_string(), copied),
            ("cone.rows_recomputed".to_string(), recomputed),
        ];
        if copied + recomputed > 0.0 {
            out.push(("cone.reuse_ratio".into(), copied / (copied + recomputed)));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// fuzz-sc
// ---------------------------------------------------------------------------

pub struct FuzzLoad {
    /// The campaign, seeded from the workload seed; every pass repeats it.
    options: FuzzOptions,
    config: VerifyConfig,
}

impl FuzzLoad {
    pub fn new(seed: u64) -> FuzzLoad {
        let config = VerifyConfig::hybrid();
        let warm_up = FuzzOptions {
            count: FUZZ_WARM_UP_CYCLES,
            ..FuzzOptions::new(MemoryImpl::Fixed)
        };
        black_box(run_fuzz(&warm_up, &config, &NullCollector, None).expect("valid fuzz options"));
        FuzzLoad {
            options: FuzzOptions {
                count: FUZZ_CYCLES,
                seed: stream(seed, 3).next_u64(),
                ..warm_up
            },
            config,
        }
    }
}

impl Load for FuzzLoad {
    fn pass(&mut self, collector: &dyn Collector) -> Pass {
        let (report, wall, flows) = tapped(collector, |sinks| {
            run_fuzz(&self.options, &self.config, sinks, None).expect("valid fuzz options")
        });
        // A cycle whose sampling exhausts its attempts is skipped by the
        // campaign; it happens about once in 600,000 cycles, so it is not
        // counted as an attempted operation.
        let mut pass = Pass::of_flows(wall, flows, report.generated());
        for shape in &report.shapes {
            let unresolved = shape.design_verdict == Verdict::Unknown && shape.engine.is_none();
            if unresolved || matches!(shape.agreement, Some("disagree" | "inconclusive")) {
                pass.failed += shape.count as u64;
                pass.problems.push(format!(
                    "shape {}: oracle {}, engine {}",
                    shape.signature,
                    shape.design_verdict.label(),
                    shape.engine.unwrap_or("-")
                ));
            }
        }
        pass
    }

    fn flows(&self) -> Flows {
        Flows::Fuzz(self.options.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_files_cover_the_suite() {
        let names: BTreeSet<String> = suite::names().iter().map(|n| n.to_string()).collect();
        for memory in [MemoryImpl::Fixed, MemoryImpl::Buggy] {
            let rows = expected_rows(memory);
            assert_eq!(rows.keys().cloned().collect::<BTreeSet<_>>(), names);
        }
        assert!(expected_rows(MemoryImpl::Fixed)
            .values()
            .all(|r| !r.violation));
        let violated = expected_rows(MemoryImpl::Buggy)
            .values()
            .filter(|r| r.violation)
            .count();
        assert_eq!(violated, 30);
    }

    #[test]
    fn flipping_one_expected_entry_fails_the_check() {
        let mut rows = expected_rows(MemoryImpl::Buggy);
        let mp = rows["mp"];
        assert!(judge_row(true, mp.proven, mp.total, &mp).is_ok());
        rows.get_mut("mp").unwrap().violation = false;
        assert!(judge_row(true, mp.proven, mp.total, &rows["mp"]).is_err());
    }

    #[test]
    fn a_lower_proven_share_fails_and_a_higher_one_passes() {
        let want = Expected {
            violation: false,
            proven: 20,
            total: 24,
        };
        assert!(judge_row(false, 19, 24, &want).is_err());
        assert!(judge_row(false, 21, 24, &want).is_ok());
        // Shares, not counts: a test that gains properties keeps its floor.
        assert!(judge_row(false, 40, 48, &want).is_ok());
        assert!(judge_row(false, 39, 48, &want).is_err());
    }

    #[test]
    fn the_kill_list_is_checked_in_both_directions() {
        let expected = nightly_kills();
        assert_eq!(expected.len(), 6);
        assert!(kill_mismatches(&expected, &expected).is_empty());
        let mut flipped = expected.clone();
        flipped.insert("halt_ignores_stall".into());
        assert_eq!(kill_mismatches(&flipped, &expected), ["halt_ignores_stall"]);
        flipped.remove("drop_stall_core0");
        assert_eq!(kill_mismatches(&flipped, &expected).len(), 2);
    }

    #[test]
    fn malformed_expected_lines_are_rejected() {
        assert!(parse_expected("mp verified 3/4\n# comment\n").is_ok());
        assert!(parse_expected("mp maybe 3/4").is_err());
        assert!(parse_expected("mp verified 3").is_err());
        assert!(parse_expected("mp verified").is_err());
    }

    #[test]
    fn the_tap_splits_the_stream_by_flow() {
        use rtlcheck_obs::{attrs, span};
        let tap = Tap::default();
        for verdict in ["verdict.proven", "verdict.falsified"] {
            let g = span(&tap, "check_test", attrs![]);
            tap.event("cover.unreachable", attrs![]);
            tap.event(verdict, attrs![]);
            tap.counter("graph.nodes", 7, attrs![]);
            tap.counter("cover.states", 3, attrs![]);
            g.finish();
        }
        let flows = tap.into_flows();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].signature, "unreachable:proven,");
        assert_eq!(flows[1].signature, "unreachable:falsified,");
        assert_eq!(flows[1].rows, 7);
    }

    #[test]
    fn seeds_order_inputs_reproducibly() {
        let names = |s| {
            shuffled_suite(s)
                .iter()
                .map(|t| t.name().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(7), names(7));
        assert_ne!(names(7), names(8));
    }
}
