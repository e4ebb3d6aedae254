//! The end-to-end RTLCheck driver (paper Figure 7).

use std::error::Error;
use std::fmt::{self, Write as _};

use rtlcheck_litmus::{CondKind, LitmusTest};
use rtlcheck_obs::{attrs, span, Collector, NullCollector};
use rtlcheck_rtl::isa::{self, FitError};
use rtlcheck_rtl::multi_vscale::{MemoryImpl, MultiVscale, NUM_CORES};
use rtlcheck_rtl::mutate::{MutateError, Mutation};
use rtlcheck_rtl::Design;
use rtlcheck_sva::emit;
use rtlcheck_uspec::Spec;
use rtlcheck_verif::{
    check_cover_on_graph_observed, explore, verify_property_on_graph_observed, CoverVerdict,
    GraphCache, Problem, PropertyVerdict, StateGraph, VerifyConfig,
};

use crate::assert_gen::{self, AssertionOptions, GeneratedAssertion};
use crate::assume::{self, GeneratedAssumptions};
use crate::report::{CoverOutcome, PropertyReport, TestReport};

/// Why the RTL flow refuses a litmus test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The test does not fit the Multi-V-scale design.
    Fit(FitError),
    /// The test's condition is `permit`. The flow checks forbidden outcomes
    /// only: a covering trace of the condition is its violation witness.
    Permitted {
        /// The test's name.
        test: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Fit(e) => e.fmt(f),
            CheckError::Permitted { test } => write!(
                f,
                "test `{test}` has a `permit` condition, but the RTL flow checks \
                 `forbid` outcomes only (use `axiomatic` for permitted outcomes)"
            ),
        }
    }
}

impl Error for CheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckError::Fit(e) => Some(e),
            CheckError::Permitted { .. } => None,
        }
    }
}

/// The RTLCheck tool: µspec model + RTL design variant + translation
/// options.
///
/// Checking a litmus test (Figure 7's flow):
///
/// 1. build the Multi-V-scale design loaded with the test's programs;
/// 2. run the Assumption Generator (§4.1) and the Assertion Generator
///    (§4.2–4.4);
/// 3. search for a covering trace of the final-value assumption — an
///    unreachable cover verifies the test outright, a covered one is a
///    violation witness;
/// 4. run the configuration's proof engines on every generated assertion.
#[derive(Debug, Clone)]
pub struct Rtlcheck {
    memory: MemoryImpl,
    spec: Spec,
    options: AssertionOptions,
}

impl Rtlcheck {
    /// RTLCheck for Multi-V-scale with the given memory implementation and
    /// the matching µspec model (the SC model for [`MemoryImpl::Buggy`] /
    /// [`MemoryImpl::Fixed`], the TSO model for [`MemoryImpl::Tso`]) and the
    /// paper's translation options.
    pub fn new(memory: MemoryImpl) -> Self {
        let spec = match memory {
            MemoryImpl::Buggy | MemoryImpl::Fixed => rtlcheck_uspec::multi_vscale::spec(),
            MemoryImpl::Tso => rtlcheck_uspec::multi_vscale_tso::spec(),
        };
        Rtlcheck {
            memory,
            spec,
            options: AssertionOptions::paper(),
        }
    }

    /// RTLCheck for the Total Store Order variant of Multi-V-scale with the
    /// TSO µspec model — the repository's demonstration that the flow
    /// "supports arbitrary ISA-level MCMs, including x86-TSO" (paper §1).
    ///
    /// Note the verdict reinterpretation: on a TSO design, a covering trace
    /// for an SC-`forbid` outcome (e.g. `sb`) is a legitimate TSO
    /// reordering, not a bug; genuine TSO violations show up as assertion
    /// counterexamples against the TSO axioms.
    pub fn tso() -> Self {
        Rtlcheck::new(MemoryImpl::Tso)
    }

    /// Overrides the µspec specification.
    pub fn with_spec(mut self, spec: Spec) -> Self {
        self.spec = spec;
        self
    }

    /// Overrides the translation options (for the §3 ablations).
    pub fn with_options(mut self, options: AssertionOptions) -> Self {
        self.options = options;
        self
    }

    /// The active translation options.
    pub fn options(&self) -> AssertionOptions {
        self.options
    }

    /// Checks that `test` fits the Multi-V-scale design: at most
    /// [`NUM_CORES`] threads, none longer than the per-core PC window, and
    /// at most [`isa::MAX_LOCATIONS`] memory locations.
    /// Every method that builds the design panics on a test that does not
    /// fit.
    ///
    /// # Errors
    ///
    /// Returns the [`FitError`] naming the test and the limit it exceeds.
    pub fn fit(test: &LitmusTest) -> Result<(), FitError> {
        isa::check_fit(test, NUM_CORES)
    }

    /// Checks that the flow can give `test` a verdict: it fits the design
    /// (see [`Rtlcheck::fit`]) and its condition is `forbid`. A `permit`
    /// test would be checked as if forbidden, so an observable outcome
    /// would read as a violation.
    ///
    /// # Errors
    ///
    /// Returns the [`CheckError`] for the first check that fails.
    pub fn admit(test: &LitmusTest) -> Result<(), CheckError> {
        Self::fit(test).map_err(CheckError::Fit)?;
        match test.condition().kind() {
            CondKind::Forbidden => Ok(()),
            CondKind::Permitted => Err(CheckError::Permitted {
                test: test.name().to_string(),
            }),
        }
    }

    /// Builds the design for a test (exposed for inspection/emission).
    ///
    /// # Panics
    ///
    /// Panics if the test does not fit the design (see [`Rtlcheck::fit`]).
    pub fn build_design(&self, test: &LitmusTest) -> MultiVscale {
        MultiVscale::build(test, self.memory)
    }

    /// Runs the full flow on one litmus test.
    ///
    /// # Panics
    ///
    /// Panics if the test does not fit the design (see [`Rtlcheck::fit`])
    /// or the µspec model falls outside the synthesizable subset.
    pub fn check_test(&self, test: &LitmusTest, config: &VerifyConfig) -> TestReport {
        self.check_test_observed(test, config, &NullCollector)
    }

    /// [`Rtlcheck::check_test`] with instrumentation: every Figure-7 phase
    /// (design build, assumption generation, assertion generation, cover
    /// search, per-property engine runs) reports to `collector` as a timed
    /// span, and all report durations are sourced from those spans — the
    /// CLI's times and the metrics' times are the same measurements.
    ///
    /// # Panics
    ///
    /// As [`Rtlcheck::check_test`].
    pub fn check_test_observed(
        &self,
        test: &LitmusTest,
        config: &VerifyConfig,
        collector: &dyn Collector,
    ) -> TestReport {
        self.check_test_mutated(test, None, config, None, collector)
            .expect("no mutation to fail")
    }

    /// [`Rtlcheck::check_test_observed`] through a [`GraphCache`]: the
    /// state graph is requested from the cache instead of always being
    /// built cold.
    ///
    /// The cache's own `graph_cache.*` counters are **not** reported here:
    /// call [`GraphCache::report_to`] once per run after all tests, so the
    /// metrics stream stays independent of scheduling.
    ///
    /// # Panics
    ///
    /// As [`Rtlcheck::check_test`].
    pub fn check_test_cached(
        &self,
        test: &LitmusTest,
        config: &VerifyConfig,
        cache: &GraphCache,
        collector: &dyn Collector,
    ) -> TestReport {
        self.check_test_mutated(test, None, config, Some(cache), collector)
            .expect("no mutation to fail")
    }

    /// [`Rtlcheck::check_test_observed`] on an optional **mutant** of the
    /// per-test design, through an optional graph cache: the design is
    /// built, `mutation` (if any) is applied to its IR, and the unchanged
    /// Figure-7 flow (assumption gen, assertion gen, cover search, property
    /// proofs) runs against the mutated design. The mutation campaign uses
    /// this to measure whether the generated properties kill injected bugs.
    ///
    /// Cache safety: the mutant's module name differs from the original's
    /// and from every other mutant's, so the graph-cache fingerprint never
    /// collides across mutants.
    ///
    /// # Errors
    ///
    /// Returns the [`MutateError`] if the mutation does not apply to this
    /// design.
    ///
    /// # Panics
    ///
    /// As [`Rtlcheck::check_test`].
    pub fn check_test_mutated(
        &self,
        test: &LitmusTest,
        mutation: Option<&Mutation>,
        config: &VerifyConfig,
        cache: Option<&GraphCache>,
        collector: &dyn Collector,
    ) -> Result<TestReport, MutateError> {
        let mut flow = span(
            collector,
            "check_test",
            attrs!["test" => test.name(), "config" => &config.name],
        );
        if let Some(m) = mutation {
            flow.attr("mutant", m.name.as_str());
        }

        let mut g = span(collector, "design_build", attrs!["test" => test.name()]);
        let mut mv = self.build_design(test);
        if let Some(m) = mutation {
            // The mutant keeps every signal id, so the assumption and
            // assertion generators' handles stay valid.
            mv.design = m.apply(&mv.design)?;
            g.attr("mutant", m.name.as_str());
        }
        let mv = mv;
        g.finish();

        let mut g = span(collector, "assumption_gen", attrs!["test" => test.name()]);
        let assumptions = assume::generate(&mv, test);
        g.attr("assumptions", assumptions.directives.len());
        g.finish();

        let mut g = span(collector, "assertion_gen", attrs!["test" => test.name()]);
        let assertions = assert_gen::generate(&self.spec, &mv, test, self.options)
            .expect("Multi-V-scale µspec is synthesizable");
        g.attr("assertions", assertions.len());
        g.finish();

        let report = run_flow_cached(
            test.name(),
            &problem_of(&mv.design, assumptions),
            &assertions,
            config,
            cache,
            collector,
        );
        flow.attr(
            "verdict",
            if report.bug_found() {
                "violation"
            } else if report.verified() {
                "verified"
            } else {
                "inconclusive"
            },
        );
        flow.finish();
        Ok(report)
    }

    /// The graph-cache fingerprint this test's verification problem would
    /// be keyed under, without building the graph: the design is built and
    /// the assumption/assertion generators run (cheap), but no state is
    /// explored. Two tests with equal fingerprints are served by one
    /// cached graph. No batch driver uses it; the benchmark's traced
    /// passes do.
    pub fn problem_fingerprint(&self, test: &LitmusTest) -> rtlcheck_verif::GraphKey {
        let (mv, assumptions, assertions) = self.generate(test);
        let props: Vec<_> = assertions.iter().map(|a| &a.directive.prop).collect();
        rtlcheck_verif::fingerprint_problem(&problem_of(&mv.design, assumptions), &props)
    }

    /// The same key as [`Rtlcheck::problem_fingerprint`], under the name
    /// the benchmark's traced serve pass times.
    pub fn coalescing_fingerprint(&self, test: &LitmusTest) -> rtlcheck_verif::GraphKey {
        self.problem_fingerprint(test)
    }

    /// Builds the test's design and runs both generators on it: the front
    /// half of the Figure-7 flow, without the per-phase spans
    /// [`Rtlcheck::check_test_observed`] reports.
    fn generate(
        &self,
        test: &LitmusTest,
    ) -> (MultiVscale, GeneratedAssumptions, Vec<GeneratedAssertion>) {
        let mv = self.build_design(test);
        let assumptions = assume::generate(&mv, test);
        let assertions = assert_gen::generate(&self.spec, &mv, test, self.options)
            .expect("Multi-V-scale µspec is synthesizable");
        (mv, assumptions, assertions)
    }

    /// Emits the complete per-test SystemVerilog property file — the
    /// artifact RTLCheck hands to the RTL verifier (one file per litmus
    /// test, §6): all generated assumptions followed by all assertions.
    pub fn emit_sva(&self, test: &LitmusTest) -> String {
        let (mv, assumptions, assertions) = self.generate(test);
        let render = |a: &rtlcheck_verif::RtlAtom| a.render(&mv.design);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "// RTLCheck-generated properties for litmus test `{}`",
            test.name()
        );
        let _ = writeln!(out, "// Design: {}\n", mv.design.name());
        let _ = writeln!(out, "// ---- assumptions (§4.1) ----");
        for d in &assumptions.directives {
            let _ = writeln!(out, "// {}", d.name);
            let _ = writeln!(out, "{}", emit::assume_directive(&d.prop, &render));
        }
        let _ = writeln!(out, "\n// ---- assertions (§4.2-4.4) ----");
        for a in &assertions {
            let _ = writeln!(out, "// {}", a.directive.name);
            let _ = writeln!(
                out,
                "{}",
                emit::assert_directive(&a.directive.prop, &render)
            );
        }
        out
    }
}

/// The verification problem of a design under its generated assumptions:
/// the assumption directives, the initial-value pins, and the final-value
/// cover condition.
pub(crate) fn problem_of(design: &Design, assumptions: GeneratedAssumptions) -> Problem<'_> {
    let mut problem = Problem::new(design);
    problem.init_pins = assumptions.init_pins;
    problem.assumptions = assumptions.directives;
    problem.cover = Some(assumptions.cover);
    problem
}

/// Runs the verification phases (cover search + per-property proofs) of the
/// Figure-7 flow on a prepared [`Problem`], reporting to `collector`.
///
/// Shared by the Multi-V-scale driver and the five-stage flow. The stats
/// written into the report are the same values emitted as `cover.*` /
/// `property.*` counters, and both `cover_elapsed` and every property's
/// `elapsed` are the span measurements — a single source of truth for the
/// CLI and the metrics view.
///
/// With a [`GraphCache`], the graph comes from the cache (a hit, or a cold
/// build that the cache publishes). The `graph_build` span gains a `cache`
/// attribute saying where the graph came from.
pub(crate) fn run_flow_cached(
    test_name: &str,
    problem: &Problem<'_>,
    assertions: &[GeneratedAssertion],
    config: &VerifyConfig,
    cache: Option<&GraphCache>,
    collector: &dyn Collector,
) -> TestReport {
    // Phase 0: build the shared state graph — the design × assumption
    // product that the cover search and every property walk reuse. Warmed
    // under the cover engine's budget; walks extend it lazily if their own
    // budget reaches further.
    let mut g = span(collector, "graph_build", attrs!["test" => test_name]);
    let props = || assertions.iter().map(|a| &a.directive.prop);
    let (graph, source) = match cache {
        Some(cache) => {
            let props: Vec<_> = props().collect();
            let (graph, source) = cache.build_graph(problem, &props, config.cover_engine());
            (graph, Some(source))
        }
        None => (
            StateGraph::build(problem, props(), config.cover_engine()),
            None,
        ),
    };
    let gs = graph.stats();
    g.attr("nodes", gs.nodes);
    g.attr("edges", gs.edges);
    g.attr("complete", gs.complete);
    if let Some(source) = source {
        g.attr("cache", source.label());
    }
    g.finish();

    // Phase 1: covering-trace search (§4.1).
    let mut g = span(collector, "cover_search", attrs!["test" => test_name]);
    let cover_verdict = check_cover_on_graph_observed(&graph, config.cover_engine(), collector);
    let cover_stats = cover_verdict.stats();
    g.attr("states", cover_stats.states);
    let cover_elapsed = g.finish();
    collector.counter(
        "cover.states",
        cover_stats.states as u64,
        attrs!["test" => test_name],
    );
    collector.counter(
        "cover.transitions",
        cover_stats.transitions,
        attrs!["test" => test_name],
    );
    collector.counter(
        "cover.pruned",
        cover_stats.pruned_by_assumptions,
        attrs!["test" => test_name],
    );
    let vacuous = cover_stats.vacuous();
    if vacuous {
        collector.event(
            "vacuous_proof",
            attrs!["test" => test_name, "scope" => "cover"],
        );
    }
    let cover = match cover_verdict {
        CoverVerdict::Unreachable(_) => CoverOutcome::VerifiedUnreachable,
        CoverVerdict::Covered(trace, _) => CoverOutcome::BugWitness(Box::new(trace)),
        CoverVerdict::Unknown(_) => CoverOutcome::Inconclusive,
    };

    // Phase 2: per-property proofs.
    let mut properties = Vec::with_capacity(assertions.len());
    for a in assertions {
        let name = &a.directive.name;
        let mut g = span(
            collector,
            "property",
            attrs!["test" => test_name, "property" => name, "axiom" => &a.axiom],
        );
        let verdict =
            verify_property_on_graph_observed(&graph, &a.directive.prop, config, name, collector);
        let stats = verdict.stats();
        collector.counter(
            "property.states",
            stats.states as u64,
            attrs!["property" => name],
        );
        collector.counter(
            "property.transitions",
            stats.transitions,
            attrs!["property" => name],
        );
        collector.counter(
            "property.pruned",
            stats.pruned_by_assumptions,
            attrs!["property" => name],
        );
        let label = match &verdict {
            PropertyVerdict::Proven { .. } => "proven",
            PropertyVerdict::Bounded { .. } => "bounded",
            PropertyVerdict::Falsified { .. } => "falsified",
        };
        collector.event(&format!("verdict.{label}"), attrs!["property" => name]);
        if verdict.is_proven() && stats.vacuous() {
            collector.event(
                "vacuous_proof",
                attrs!["property" => name, "scope" => "property"],
            );
        }
        g.attr("verdict", label);
        let elapsed = g.finish();
        properties.push(PropertyReport {
            name: name.clone(),
            axiom: a.axiom.clone(),
            verdict,
            elapsed,
        });
    }

    // The graph's construction/reuse counters and the shared assumption
    // monitors' metrics, once per test.
    graph.report_to(collector);

    TestReport {
        test: test_name.to_string(),
        config: config.name.clone(),
        cover,
        cover_elapsed,
        cover_stats,
        properties,
        vacuous,
    }
}

/// Reference (pre-split) flow: re-explores the product per property via the
/// monolithic reference engine. Exists only as the oracle for the
/// differential tests — not part of the supported API.
#[doc(hidden)]
pub fn run_flow_reference(
    test_name: &str,
    problem: &Problem<'_>,
    assertions: &[GeneratedAssertion],
    config: &VerifyConfig,
) -> TestReport {
    let cover_start = std::time::Instant::now();
    let cover_verdict = explore::check_cover_reference(problem, config.cover_engine());
    let cover_elapsed = cover_start.elapsed();
    let cover_stats = cover_verdict.stats();
    let vacuous = cover_stats.vacuous();
    let cover = match cover_verdict {
        CoverVerdict::Unreachable(_) => CoverOutcome::VerifiedUnreachable,
        CoverVerdict::Covered(trace, _) => CoverOutcome::BugWitness(Box::new(trace)),
        CoverVerdict::Unknown(_) => CoverOutcome::Inconclusive,
    };
    let properties = assertions
        .iter()
        .map(|a| {
            let start = std::time::Instant::now();
            let verdict = explore::verify_property_reference(problem, &a.directive.prop, config);
            PropertyReport {
                name: a.directive.name.clone(),
                axiom: a.axiom.clone(),
                verdict,
                elapsed: start.elapsed(),
            }
        })
        .collect();
    TestReport {
        test: test_name.to_string(),
        config: config.name.clone(),
        cover,
        cover_elapsed,
        cover_stats,
        properties,
        vacuous,
    }
}

impl Rtlcheck {
    /// [`Rtlcheck::check_test`] through the reference (pre-split) engine;
    /// see [`run_flow_reference`].
    #[doc(hidden)]
    pub fn check_test_reference(&self, test: &LitmusTest, config: &VerifyConfig) -> TestReport {
        let (mv, assumptions, assertions) = self.generate(test);
        let problem = problem_of(&mv.design, assumptions);
        run_flow_reference(test.name(), &problem, &assertions, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcheck_litmus::suite;

    #[test]
    fn mp_verifies_on_the_fixed_design() {
        let mp = suite::get("mp").unwrap();
        let report = Rtlcheck::new(MemoryImpl::Fixed).check_test(&mp, &VerifyConfig::quick());
        assert!(report.verified(), "{report}");
        assert!(
            report.verified_by_assumptions(),
            "mp's outcome should be unreachable"
        );
        assert!(!report.vacuous);
        assert!(
            report.properties.iter().all(|p| !p.verdict.is_falsified()),
            "{report}"
        );
    }

    /// §7.1: RTLCheck discovers the V-scale store-drop bug on mp.
    #[test]
    fn mp_finds_the_bug_on_the_buggy_design() {
        let mp = suite::get("mp").unwrap();
        let report = Rtlcheck::new(MemoryImpl::Buggy).check_test(&mp, &VerifyConfig::quick());
        assert!(report.bug_found(), "{report}");
        // The covering trace is an execution of the forbidden outcome…
        assert!(matches!(
            report.cover,
            crate::report::CoverOutcome::BugWitness(_)
        ));
        // …and, as in the paper, a Read_Values property has a
        // counterexample.
        let (name, trace) = report.first_counterexample().expect("a falsified property");
        assert!(name.starts_with("Read_Values"), "{name}");
        assert!(
            trace.len() >= 4,
            "the violation needs the pipelined schedule"
        );
    }

    #[test]
    fn emit_sva_contains_assumptions_and_assertions() {
        let mp = suite::get("mp").unwrap();
        let text = Rtlcheck::new(MemoryImpl::Fixed).emit_sva(&mp);
        assert!(text.contains("assume property"), "{text}");
        assert!(text.contains("assert property"), "{text}");
        assert!(text.contains("Read_Values"), "{text}");
        assert!(text.contains("first == 1'd1 |->"), "{text}");
    }
}
