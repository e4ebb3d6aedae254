//! Golden tests pinning the shape of the generated SVA artifacts against
//! the paper's Figures 8 and 10.

use rtlcheck::litmus::suite;
use rtlcheck::prelude::*;

#[test]
fn mp_sva_file_matches_figure_8_and_10_shapes() {
    let mp = suite::get("mp").unwrap();
    let text = Rtlcheck::new(MemoryImpl::Fixed).emit_sva(&mp);

    // Figure 8: memory initialisation assumption.
    assert!(
        text.contains("assume property (@(posedge clk) first == 1'd1 |-> (mem_0 == 32'd0));"),
        "{text}"
    );
    // Figure 8: instruction initialisation assumption.
    assert!(text.contains("core0_imem_0 =="), "{text}");
    // Figure 8: load value assumption for the load of y (core 1, PC 64).
    assert!(
        text.contains("core1_PC_WB == 32'd64") && text.contains("core1_load_data_WB == 32'd1"),
        "{text}"
    );
    // Figure 8: final value assumption over all four cores' halted flags.
    for c in 0..4 {
        assert!(text.contains(&format!("core{c}_halted == 1'd1")), "{text}");
    }
    // Figure 10: a strict-delay assertion for the load of x (PC 68) with a
    // value constraint, `first`-guarded.
    assert!(
        text.contains("assert property (@(posedge clk) first == 1'd1 |->"),
        "{text}"
    );
    assert!(text.contains("[*0:$]"), "{text}");
    assert!(text.contains("core1_PC_WB == 32'd68"), "{text}");
    assert!(text.contains("core1_load_data_WB == 32'd0"), "{text}");
}

#[test]
fn sva_file_has_one_directive_per_line_and_parses_visually() {
    let mp = suite::get("mp").unwrap();
    let text = Rtlcheck::new(MemoryImpl::Fixed).emit_sva(&mp);
    let assumes = text
        .lines()
        .filter(|l| l.starts_with("assume property"))
        .count();
    let asserts = text
        .lines()
        .filter(|l| l.starts_with("assert property"))
        .count();
    // 2 mem words + 4 cores' imem slots + 2 loads + final = assumptions;
    // one assertion per grounded axiom instance.
    assert!(assumes >= 10, "{assumes} assumptions");
    assert!(asserts >= 20, "{asserts} assertions");
    // Every directive is a single line ending in `;`.
    for l in text.lines().filter(|l| l.starts_with("ass")) {
        assert!(l.ends_with(';'), "unterminated directive: {l}");
    }
}

/// The emitted Verilog of every suite test on all four designs (buggy,
/// fixed and TSO Multi-V-scale, and Multi-Five-Stage) hashes to one pinned
/// FNV-1a digest, so a builder change that moves any signal, driver or
/// reset value fails here.
#[test]
fn verilog_emission_is_stable_for_both_memories() {
    let mp = suite::get("mp").unwrap();
    for memory in [MemoryImpl::Buggy, MemoryImpl::Fixed] {
        let mv = Rtlcheck::new(memory).build_design(&mp);
        let v = rtlcheck::rtl::verilog::emit(&mv.design);
        assert!(v.contains("module multi_vscale"), "{memory:?}");
        assert!(v.contains("endmodule"), "{memory:?}");
        assert!(v.contains("core1_load_data_WB"), "{memory:?}");
        // The buggy store buffer only exists in the buggy variant.
        assert_eq!(
            v.contains("mem_wpending"),
            memory == MemoryImpl::Buggy,
            "{memory:?}"
        );
    }

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for test in suite::all() {
        let designs = [MemoryImpl::Buggy, MemoryImpl::Fixed, MemoryImpl::Tso]
            .map(|memory| Rtlcheck::new(memory).build_design(&test).design);
        let five_stage = rtlcheck::rtl::five_stage::FiveStage::build(&test).design;
        for design in designs.iter().chain([&five_stage]) {
            for byte in rtlcheck::rtl::verilog::emit(design).bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(
        digest, 0xa9da_cd00_ee1e_689f,
        "FNV-1a digest of the emitted Verilog"
    );
}

/// The emitted per-test SVA file parses back, and the re-parsed assertions
/// verify to the same verdicts as the originals — the emitter/parser pair
/// is semantically lossless.
#[test]
fn emitted_sva_file_reparses_and_reverifies() {
    use rtlcheck::core::{assert_gen, assume, AssertionOptions};
    use rtlcheck::sva::parse::{parse_directive, DirectiveKeyword};
    use rtlcheck::verif::{verify_property, Problem, RtlAtom};

    let mp = suite::get("mp").unwrap();
    let tool = Rtlcheck::new(MemoryImpl::Fixed);
    let mv = tool.build_design(&mp);
    let text = tool.emit_sva(&mp);
    let atom = |s: &str| RtlAtom::parse(&mv.design, s);

    let mut asserts = Vec::new();
    let mut assumes = 0;
    for line in text.lines().filter(|l| l.starts_with("ass")) {
        let (kw, prop) = parse_directive(line, &atom)
            .unwrap_or_else(|e| panic!("emitted line failed to parse: {e}\n{line}"));
        match kw {
            DirectiveKeyword::Assert => asserts.push(prop),
            DirectiveKeyword::Assume => assumes += 1,
        }
    }
    assert!(assumes >= 10, "{assumes}");
    assert!(!asserts.is_empty());

    // Re-verify the re-parsed assertions: all must prove, like the
    // originals.
    let spec = rtlcheck::uspec::multi_vscale::spec();
    let originals = assert_gen::generate(&spec, &mv, &mp, AssertionOptions::paper()).unwrap();
    assert_eq!(asserts.len(), originals.len());
    let generated = assume::generate(&mv, &mp);
    let mut problem = Problem::new(&mv.design);
    problem.init_pins = generated.init_pins.clone();
    problem.assumptions = generated.directives.clone();
    for prop in &asserts {
        let verdict = verify_property(&problem, prop, &VerifyConfig::quick());
        assert!(verdict.is_proven(), "re-parsed assertion failed to prove");
    }
}
