//! RTLCheck instantiated for the Multi-Five-Stage processor.
//!
//! This module is the second user of the microarchitecture-agnostic
//! generators (the paper's "arbitrary Verilog design" claim): its own node
//! mapping function (Figure 9's role, for a five-stage pipeline whose
//! memory access and load data live in the **Memory** stage), its own
//! program mapping / assumption generation, and a small driver mirroring
//! [`crate::Rtlcheck::check_test`].

use rtlcheck_litmus::{CondClause, LitmusTest, Val};
use rtlcheck_rtl::five_stage::FiveStage;
use rtlcheck_rtl::isa;
use rtlcheck_sva::{Prop, Seq, SvaBool};
use rtlcheck_uspec::five_stage as fs_spec;
use rtlcheck_uspec::ground::GNode;
use rtlcheck_verif::{Directive, RtlAtom, VerifyConfig};

use crate::assert_gen::{self, AssertionOptions};
use crate::assume::GeneratedAssumptions;
use crate::mapping::{NodeMapping, RtlBool};
use crate::report::TestReport;

/// The node mapping for Multi-Five-Stage.
///
/// Fetch through Execute are PC-equality events qualified by the
/// whole-pipeline stall; the Memory stage additionally requires the grant
/// (via `~stall`) and carries load-value constraints on `load_data_MEM`;
/// Writeback is the retire cycle.
#[derive(Debug, Clone, Copy)]
pub struct FiveStageMapping<'a> {
    /// Design handles.
    pub fs: &'a FiveStage,
    /// The litmus test providing placement context.
    pub test: &'a LitmusTest,
}

impl NodeMapping for FiveStageMapping<'_> {
    fn map_node(&self, node: GNode, constraint: Option<Val>) -> RtlBool {
        let instr = self.test.instr(node.instr);
        let pc = isa::pc_of(instr.core.0, instr.index);
        let core = &self.fs.cores[instr.core.0];
        let not_stalled = SvaBool::atom(RtlAtom::eq(core.stall, 0));
        let at = |sig| SvaBool::and(SvaBool::atom(RtlAtom::eq(sig, pc)), not_stalled.clone());
        match node.stage.0 {
            fs_spec::FETCH => at(core.pc_if),
            fs_spec::DECODE => at(core.pc_id),
            fs_spec::EXECUTE => at(core.pc_ex),
            fs_spec::MEMORY => {
                let mut expr = at(core.pc_mem);
                if let Some(v) = constraint {
                    debug_assert!(instr.is_load(), "value constraints only apply to loads");
                    expr = SvaBool::and(
                        expr,
                        SvaBool::atom(RtlAtom::eq(core.load_data_mem, u64::from(v.0))),
                    );
                }
                expr
            }
            fs_spec::WRITEBACK => SvaBool::atom(RtlAtom::eq(core.pc_wb, pc)),
            other => panic!("Multi-Five-Stage has no stage {other}"),
        }
    }
}

/// The Assumption Generator for Multi-Five-Stage (§4.1, retargeted):
/// memory/instruction initialisation, load values at the Memory stage, and
/// the final-value assumption over the halt flags.
pub fn generate_assumptions(fs: &FiveStage, test: &LitmusTest) -> GeneratedAssumptions {
    let mapping = FiveStageMapping { fs, test };
    let mut directives = Vec::new();
    let mut init_pins = Vec::new();
    let first = SvaBool::atom(RtlAtom::is_true(fs.first));

    for (loc_idx, &mem_sig) in fs.mem.iter().enumerate() {
        let value = if loc_idx < test.num_locations() {
            u64::from(test.initial_value(rtlcheck_litmus::Loc(loc_idx)).0)
        } else {
            0
        };
        directives.push(Directive::assume(
            format!("init_mem_{loc_idx}"),
            Prop::implies(
                first.clone(),
                Prop::seq(Seq::boolean(SvaBool::atom(RtlAtom::eq(mem_sig, value)))),
            ),
        ));
        init_pins.push((mem_sig, value));
    }
    for (c, slots) in fs.imem.iter().enumerate() {
        for (s, &imem_sig) in slots.iter().enumerate() {
            let packed = fs.programs[c][s].packed();
            directives.push(Directive::assume(
                format!("init_imem_c{c}_s{s}"),
                Prop::implies(
                    first.clone(),
                    Prop::seq(Seq::boolean(SvaBool::atom(RtlAtom::eq(imem_sig, packed)))),
                ),
            ));
        }
    }
    for instr in test.instructions().filter(|i| i.is_load()) {
        if let Some(v) = test.expected_load_value(&instr) {
            let mem_node = GNode {
                instr: instr.uid,
                stage: rtlcheck_uspec::StageId(fs_spec::MEMORY),
            };
            let antecedent = mapping.map_node(mem_node, None);
            let consequent = mapping.map_node(mem_node, Some(v));
            directives.push(Directive::assume(
                format!("value_{}", instr.uid),
                Prop::implies(antecedent, Prop::seq(Seq::boolean(consequent))),
            ));
        }
    }
    let all_halted = SvaBool::all(
        fs.cores
            .iter()
            .map(|c| SvaBool::atom(RtlAtom::is_true(c.halted)))
            .collect(),
    );
    let final_values = SvaBool::all(
        test.condition()
            .clauses()
            .iter()
            .filter_map(|clause| match *clause {
                CondClause::MemEq { loc, val } => {
                    Some(SvaBool::atom(RtlAtom::eq(fs.mem[loc.0], u64::from(val.0))))
                }
                CondClause::RegEq { .. } => None,
            })
            .collect(),
    );
    directives.push(Directive::assume(
        "final_values",
        Prop::implies(
            all_halted.clone(),
            Prop::seq(Seq::boolean(final_values.clone())),
        ),
    ));
    let cover = SvaBool::and(all_halted, final_values);

    GeneratedAssumptions {
        directives,
        init_pins,
        cover,
    }
}

/// Runs the full RTLCheck flow on one litmus test against Multi-Five-Stage.
///
/// # Panics
///
/// Panics if the test does not fit the design.
pub fn check_test(test: &LitmusTest, config: &VerifyConfig) -> TestReport {
    check_test_observed(test, config, &rtlcheck_obs::NullCollector)
}

/// [`check_test`] with instrumentation, mirroring
/// [`crate::Rtlcheck::check_test_observed`].
///
/// # Panics
///
/// As [`check_test`].
pub fn check_test_observed(
    test: &LitmusTest,
    config: &VerifyConfig,
    collector: &dyn rtlcheck_obs::Collector,
) -> TestReport {
    check_test_mutated(
        test,
        None,
        config,
        None,
        rtlcheck_verif::Incremental::Off,
        collector,
    )
    .expect("no mutation to fail")
}

/// [`check_test_observed`] on an optional **mutant** of the five-stage
/// design, through an optional graph cache — the five-stage leg of the
/// mutation campaign, mirroring [`crate::Rtlcheck::check_test_mutated`].
/// With `incremental` enabled and a cache present, the mutant's graph is
/// spliced from the baseline design's published core when possible.
///
/// # Errors
///
/// Returns the [`rtlcheck_rtl::mutate::MutateError`] if the mutation does
/// not apply.
///
/// # Panics
///
/// As [`check_test`].
pub fn check_test_mutated(
    test: &LitmusTest,
    mutation: Option<&rtlcheck_rtl::mutate::Mutation>,
    config: &VerifyConfig,
    cache: Option<&rtlcheck_verif::GraphCache>,
    incremental: rtlcheck_verif::Incremental,
    collector: &dyn rtlcheck_obs::Collector,
) -> Result<TestReport, rtlcheck_rtl::mutate::MutateError> {
    use rtlcheck_obs::{attrs, span};

    let mut flow = span(
        collector,
        "check_test",
        attrs!["test" => test.name(), "config" => &config.name],
    );
    if let Some(m) = mutation {
        flow.attr("mutant", m.name.as_str());
    }

    let mut g = span(collector, "design_build", attrs!["test" => test.name()]);
    let mut fs = FiveStage::build(test);
    let mut baseline: Option<rtlcheck_rtl::Design> = None;
    if let Some(m) = mutation {
        if incremental.enabled() && cache.is_some() {
            baseline = Some(fs.design.clone());
        }
        fs.design = m.apply(&fs.design)?;
        g.attr("mutant", m.name.as_str());
    }
    let fs = fs;
    let spec = fs_spec::spec();
    let mapping = FiveStageMapping { fs: &fs, test };
    g.finish();

    let mut g = span(collector, "assumption_gen", attrs!["test" => test.name()]);
    let assumptions = generate_assumptions(&fs, test);
    g.attr("assumptions", assumptions.directives.len());
    g.finish();

    let mut g = span(collector, "assertion_gen", attrs!["test" => test.name()]);
    let assertions =
        assert_gen::generate_with(&spec, &mapping, fs.first, test, AssertionOptions::paper())
            .expect("Multi-Five-Stage µspec is synthesizable");
    g.attr("assertions", assertions.len());
    g.finish();

    let report = crate::check::run_flow_cached(
        test.name(),
        &crate::check::problem_of(&fs.design, assumptions),
        &assertions,
        config,
        cache,
        baseline.as_ref().map(|b| (b, incremental.validate())),
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

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcheck_litmus::suite;
    use rtlcheck_sva::emit::bool_to_sva;
    use rtlcheck_uspec::StageId;

    #[test]
    fn memory_node_maps_with_load_constraint() {
        let mp = suite::get("mp").unwrap();
        let fs = FiveStage::build(&mp);
        let m = FiveStageMapping { fs: &fs, test: &mp };
        let node = GNode {
            instr: rtlcheck_litmus::InstrUid(3),
            stage: StageId(fs_spec::MEMORY),
        };
        let text = bool_to_sva(&m.map_node(node, Some(Val(0))), &|a| a.render(&fs.design));
        assert!(text.contains("core1_PC_MEM == 32'd68"), "{text}");
        assert!(text.contains("core1_stall_MEM == 1'd0"), "{text}");
        assert!(text.contains("core1_load_data_MEM == 32'd0"), "{text}");
    }

    #[test]
    fn mp_verifies_end_to_end() {
        let mp = suite::get("mp").unwrap();
        let report = check_test(&mp, &VerifyConfig::quick());
        assert!(report.verified(), "{report}");
        assert!(report.verified_by_assumptions());
        assert!(!report.vacuous);
    }

    #[test]
    fn sb_verifies_end_to_end() {
        let sb = suite::get("sb").unwrap();
        let report = check_test(&sb, &VerifyConfig::quick());
        assert!(report.verified(), "{report}");
        assert_eq!(
            report
                .properties
                .iter()
                .filter(|p| p.verdict.is_falsified())
                .count(),
            0,
            "{report}"
        );
    }
}
