//! The Assumption Generator (paper §4.1).
//!
//! Per litmus test, the generated assumptions:
//!
//! 1. **initialise data memory** to the test's initial values (these are
//!    also recognised as initial-state pins for the design's free-init
//!    memory registers, the way an RTL verifier solves first-cycle equality
//!    constraints);
//! 2. **initialise instruction memory** with the test's (encoded)
//!    instructions — in this design's ISA the address and data fields live
//!    inside the instruction word, so the paper's separate
//!    register-initialisation assumptions are subsumed here;
//! 3. **guide load values**: whenever a load performs the stage at which
//!    it returns its value (Writeback on Multi-V-scale), it returns the
//!    value from the outcome under test. These cannot *enforce* the outcome
//!    (SVA verifiers do not check assumptions against the future, §3.1) but
//!    they prune the verifier's search;
//! 4. **the final-value assumption**: once every core has finished, the
//!    final memory values required by the test hold. Its covering
//!    condition — all cores finished with the value assumptions still
//!    satisfied — is an execution of the complete litmus outcome, so
//!    proving it unreachable verifies the test without touching any
//!    assertion.
//!
//! The generator itself is design-agnostic ([`generate_with`]): a design
//! supplies its [`ProgramMapping`] and [`NodeMapping`].

use rtlcheck_litmus::{CondClause, LitmusTest};
use rtlcheck_rtl::multi_vscale::MultiVscale;
use rtlcheck_rtl::SignalId;
use rtlcheck_sva::{Prop, Seq, SvaBool};
use rtlcheck_uspec::ground::GNode;
use rtlcheck_uspec::multi_vscale::WRITEBACK;
use rtlcheck_uspec::StageId;
use rtlcheck_verif::{Directive, RtlAtom};

use crate::mapping::{MultiVscaleMapping, NodeMapping, ProgramMapping, RtlBool};

/// Everything the Assumption Generator produces for one litmus test.
#[derive(Debug, Clone)]
pub struct GeneratedAssumptions {
    /// The `assume property` directives, in generation order.
    pub directives: Vec<Directive>,
    /// Initial-value pins for free-init registers, extracted from the
    /// first-cycle memory-initialisation assumptions.
    pub init_pins: Vec<(SignalId, u64)>,
    /// The final-value assumption's covering condition: all cores finished
    /// and the outcome's final memory values in place.
    pub cover: RtlBool,
}

/// Runs the Assumption Generator for `test` on the Multi-V-scale design.
pub fn generate(mv: &MultiVscale, test: &LitmusTest) -> GeneratedAssumptions {
    let program = ProgramMapping {
        first: mv.first,
        mem: &mv.mem,
        imem: &mv.imem,
        programs: &mv.programs,
        load_stage: StageId(WRITEBACK),
        // Every core halted and not stalled in WB.
        finished: SvaBool::all(
            mv.cores
                .iter()
                .flat_map(|core| {
                    [
                        SvaBool::atom(RtlAtom::is_true(core.halted)),
                        SvaBool::atom(RtlAtom::eq(core.stall_wb, 0)),
                    ]
                })
                .collect(),
        ),
    };
    generate_with(&program, &MultiVscaleMapping::new(mv, test), test)
}

/// Runs the Assumption Generator for `test` on an arbitrary design through
/// its program mapping and node mapping: the generator itself is
/// microarchitecture-agnostic, like [`crate::assert_gen::generate_with`].
pub fn generate_with(
    program: &ProgramMapping<'_>,
    nodes: &dyn NodeMapping,
    test: &LitmusTest,
) -> GeneratedAssumptions {
    let mut directives = Vec::new();
    let mut init_pins = Vec::new();
    let first = SvaBool::atom(RtlAtom::is_true(program.first));

    // (1) Data memory initialisation:  first |-> mem[i] == init.
    for (loc_idx, &mem_sig) in program.mem.iter().enumerate() {
        // The design has one word per litmus location (plus one scratch
        // word for location-free tests, initialised to zero).
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

    // (2) Instruction memory initialisation:
    //     first |-> core{c}_imem_{s} == <encoded instruction>.
    for (c, slots) in program.imem.iter().enumerate() {
        for (s, &imem_sig) in slots.iter().enumerate() {
            let packed = program.programs[c][s].packed();
            directives.push(Directive::assume(
                format!("init_imem_c{c}_s{s}"),
                Prop::implies(
                    first.clone(),
                    Prop::seq(Seq::boolean(SvaBool::atom(RtlAtom::eq(imem_sig, packed)))),
                ),
            ));
        }
    }

    // (3) Load value assumptions: (load @stage) |-> (load @stage with its
    //     outcome value). Unguarded: enforced at every cycle, from the
    //     cycle the load actually performs (no future-violation checking).
    for instr in test.instructions().filter(|i| i.is_load()) {
        if let Some(v) = test.expected_load_value(&instr) {
            let node = GNode {
                instr: instr.uid,
                stage: program.load_stage,
            };
            let antecedent = nodes.map_node(node, None);
            let consequent = nodes.map_node(node, Some(v));
            directives.push(Directive::assume(
                format!("value_{}", instr.uid),
                Prop::implies(antecedent, Prop::seq(Seq::boolean(consequent))),
            ));
        }
    }

    // (4) Final value assumption: every core finished implies the required
    //     final memory values (or `1` if the test has none — still
    //     valuable, §4.1: its covering trace is a complete execution of the
    //     test outcome).
    let final_values = SvaBool::all(
        test.condition()
            .clauses()
            .iter()
            .filter_map(|clause| match *clause {
                CondClause::MemEq { loc, val } => Some(SvaBool::atom(RtlAtom::eq(
                    program.mem[loc.0],
                    u64::from(val.0),
                ))),
                CondClause::RegEq { .. } => None,
            })
            .collect(),
    );
    directives.push(Directive::assume(
        "final_values",
        Prop::implies(
            program.finished.clone(),
            Prop::seq(Seq::boolean(final_values.clone())),
        ),
    ));
    let cover = SvaBool::and(program.finished.clone(), final_values);

    GeneratedAssumptions {
        directives,
        init_pins,
        cover,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcheck_litmus::suite;
    use rtlcheck_rtl::multi_vscale::MemoryImpl;
    use rtlcheck_sva::emit::{assume_directive, bool_to_sva};

    fn generate_for(name: &str) -> (MultiVscale, LitmusTest, GeneratedAssumptions) {
        let test = suite::get(name).unwrap();
        let mv = MultiVscale::build(&test, MemoryImpl::Fixed);
        let gen = generate(&mv, &test);
        (mv, test, gen)
    }

    #[test]
    fn mp_generates_all_assumption_families() {
        let (mv, _, gen) = generate_for("mp");
        let names: Vec<&str> = gen.directives.iter().map(|d| d.name.as_str()).collect();
        // 2 memory words, 4 cores × (program slots), 2 loads, 1 final.
        assert!(names.contains(&"init_mem_0"));
        assert!(names.contains(&"init_mem_1"));
        assert!(names.contains(&"init_imem_c0_s0"));
        assert!(names.contains(&"init_imem_c3_s0"));
        assert!(names.contains(&"value_i3"));
        assert!(names.contains(&"value_i4"));
        assert!(names.contains(&"final_values"));
        assert_eq!(gen.init_pins.len(), mv.mem.len());
    }

    #[test]
    fn memory_init_renders_like_figure_8() {
        let (mv, _, gen) = generate_for("mp");
        let d = gen
            .directives
            .iter()
            .find(|d| d.name == "init_mem_0")
            .unwrap();
        let text = assume_directive(&d.prop, &|a| a.render(&mv.design));
        assert!(
            text.starts_with("assume property (@(posedge clk) first == 1'd1 |-> "),
            "{text}"
        );
        assert!(text.contains("mem_0 == 32'd0"), "{text}");
    }

    #[test]
    fn value_assumption_checks_load_data_at_wb() {
        let (mv, _, gen) = generate_for("mp");
        // i3 = load of y on core 1, expected value 1.
        let d = gen
            .directives
            .iter()
            .find(|d| d.name == "value_i3")
            .unwrap();
        let text = assume_directive(&d.prop, &|a| a.render(&mv.design));
        assert!(text.contains("core1_PC_WB == 32'd64"), "{text}");
        assert!(text.contains("core1_load_data_WB == 32'd1"), "{text}");
    }

    #[test]
    fn final_value_assumption_covers_all_cores() {
        let (mv, _, gen) = generate_for("mp");
        let d = gen
            .directives
            .iter()
            .find(|d| d.name == "final_values")
            .unwrap();
        let text = assume_directive(&d.prop, &|a| a.render(&mv.design));
        for c in 0..4 {
            assert!(text.contains(&format!("core{c}_halted == 1'd1")), "{text}");
        }
        // mp has no final memory requirements: the consequent is `1`.
        assert!(text.contains("|-> (1)"), "{text}");
    }

    #[test]
    fn mem_clauses_appear_in_cover_and_final_assumption() {
        // ssl's condition requires x = 1 in final memory.
        let (mv, test, gen) = generate_for("ssl");
        let x = test.loc_by_name("x").unwrap();
        let cover_text = bool_to_sva(&gen.cover, &|a| a.render(&mv.design));
        assert!(
            cover_text.contains(&format!("mem_{} == 32'd1", x.0)),
            "{cover_text}"
        );
    }

    #[test]
    fn init_pins_match_test_initial_values() {
        let (_, test, gen) = generate_for("safe003");
        for (loc_idx, (_, v)) in gen.init_pins.iter().enumerate() {
            assert_eq!(
                *v,
                u64::from(test.initial_value(rtlcheck_litmus::Loc(loc_idx)).0)
            );
        }
    }
}
