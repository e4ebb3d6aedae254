//! Property test for the graph cache's snapshot path.
//!
//! Over random small designs, assumption sets, and warm-up budgets, a warm
//! [`StateGraph`]'s core survives `snapshot → from_snapshot` — the path
//! every in-memory cache hit takes — exactly: every property walk and the
//! cover search on the resumed graph produce results identical to the
//! original graph.
//!
//! The suite-level counterpart (cold vs memory-miss vs memory-hit on real
//! litmus tests) lives in `tests/graph_cache_differential.rs` at the
//! workspace root.

use proptest::prelude::*;
use rtlcheck_rtl::{Design, DesignBuilder, SignalId};
use rtlcheck_sva::{Prop, Seq, SvaBool};
use rtlcheck_verif::{
    check_cover_on_graph, verify_property_on_graph, Directive, Engine, Problem, RtlAtom,
    StateGraph, VerifyConfig,
};

/// Recipe for one random design (same shape as
/// `graph_differential.rs`): register widths/inits and per-register update
/// behaviour, all driven by proptest-chosen small integers.
#[derive(Debug, Clone)]
struct DesignRecipe {
    input_width: u8,
    regs: Vec<RegRecipe>,
}

#[derive(Debug, Clone)]
struct RegRecipe {
    width: u8,
    init: u64,
    enable_on: u64,
    /// 0 = increment, 1 = xor with literal, 2 = decrement when another
    /// register holds a chosen value.
    op: u8,
    operand: u64,
}

fn arb_recipe() -> impl Strategy<Value = DesignRecipe> {
    let reg = (1u8..=3, 0u64..8, 0u64..4, 0u8..3, 0u64..8).prop_map(
        |(width, init, enable_on, op, operand)| RegRecipe {
            width,
            init: init & ((1 << width) - 1),
            enable_on,
            op,
            operand: operand & ((1 << width) - 1),
        },
    );
    (1u8..=2, proptest::collection::vec(reg, 1..=3))
        .prop_map(|(input_width, regs)| DesignRecipe { input_width, regs })
}

fn build(recipe: &DesignRecipe) -> (Design, Vec<SignalId>, SignalId) {
    let mut b = DesignBuilder::new("rand");
    let en = b.input("en", recipe.input_width);
    let reg_ids: Vec<SignalId> = recipe
        .regs
        .iter()
        .enumerate()
        .map(|(i, r)| b.reg(format!("r{i}"), r.width, Some(r.init)))
        .collect();
    for (i, r) in recipe.regs.iter().enumerate() {
        let id = reg_ids[i];
        let cur = b.sig(id);
        let max_in = (1u64 << recipe.input_width) - 1;
        let cond = b.eq_lit(en, r.enable_on & max_in);
        let updated = match r.op {
            0 => {
                let one = b.lit(1, r.width);
                b.add(cur, one)
            }
            1 => {
                let k = b.lit(r.operand, r.width);
                b.xor(cur, k)
            }
            _ => {
                let other = reg_ids[(i + 1) % reg_ids.len()];
                let trigger = b.eq_lit(
                    other,
                    r.operand & ((1 << recipe.regs[(i + 1) % recipe.regs.len()].width) - 1),
                );
                let one = b.lit(1, r.width);
                let dec = b.sub(cur, one);
                b.mux(trigger, dec, cur)
            }
        };
        let next = b.mux(cond, updated, cur);
        b.set_next(id, next);
    }
    let d = b.build().expect("recipe designs are well-formed");
    (d, reg_ids, en)
}

/// The property shapes the generators emit (§4.2–4.4 reduce to these).
fn props_for(regs: &[SignalId], recipe: &DesignRecipe) -> Vec<Prop<RtlAtom>> {
    let r0 = regs[0];
    let v0 = recipe.regs[0].operand;
    let rl = *regs.last().unwrap();
    let vl = recipe.regs.last().unwrap().init;
    vec![
        Prop::Never(SvaBool::atom(RtlAtom::eq(r0, v0))),
        Prop::implies(
            SvaBool::atom(RtlAtom::eq(rl, vl)),
            Prop::Never(SvaBool::atom(RtlAtom::eq(r0, v0))),
        ),
        Prop::seq(Seq::then(
            Seq::boolean(SvaBool::atom(RtlAtom::eq(rl, vl))),
            Seq::delay(
                1,
                Some(3),
                Seq::boolean(SvaBool::not(SvaBool::atom(RtlAtom::eq(r0, v0)))),
            ),
        )),
    ]
}

/// Runs every property and the cover search on a graph, returning the
/// verdicts' Debug rendering (which includes stats, bounds, and full
/// counterexample traces).
fn walk_all(
    graph: &StateGraph<'_, '_>,
    props: &[Prop<RtlAtom>],
    config: &VerifyConfig,
    has_cover: bool,
) -> Vec<String> {
    let mut out: Vec<String> = props
        .iter()
        .map(|p| format!("{:?}", verify_property_on_graph(graph, p, config)))
        .collect();
    if has_cover {
        out.push(format!(
            "{:?}",
            check_cover_on_graph(graph, config.cover_engine())
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Snapshot → resume → walk equals walking the original graph, for
    /// every property shape, with and without assumptions and cover, under
    /// both a generous and a starved warm-up budget.
    #[test]
    fn serialized_graphs_walk_identically(
        recipe in arb_recipe(),
        assume_en in prop_oneof![Just(None), (0u64..4).prop_map(Some)],
        cover_value in prop_oneof![Just(None), (0u64..8).prop_map(Some)],
        warm_budget in prop_oneof![Just(3usize), Just(100_000usize)],
    ) {
        let (design, regs, en) = build(&recipe);
        let mut problem = Problem::new(&design);
        if let Some(v) = assume_en {
            let max_in = (1u64 << recipe.input_width) - 1;
            problem.assumptions.push(Directive::assume(
                "en_pin",
                Prop::Never(SvaBool::atom(RtlAtom::eq(en, v & max_in))),
            ));
        }
        if let Some(v) = cover_value {
            let w = recipe.regs[0].width;
            problem.cover = Some(SvaBool::atom(RtlAtom::eq(regs[0], v & ((1 << w) - 1))));
        }
        let props = props_for(&regs, &recipe);
        let prop_refs: Vec<&Prop<RtlAtom>> = props.iter().collect();
        let config = VerifyConfig::hybrid();

        let cold = StateGraph::build(&problem, prop_refs.iter().copied(), Engine::full(warm_budget));
        let snap = cold.snapshot();
        let resumed = StateGraph::from_snapshot(&problem, prop_refs.iter().copied(), &snap)
            .expect("a snapshot must validate against its own problem");
        prop_assert_eq!(resumed.stats(), cold.stats(), "resumed core differs structurally");

        let cold_results = walk_all(&cold, &props, &config, cover_value.is_some());
        let resumed_results = walk_all(&resumed, &props, &config, cover_value.is_some());
        prop_assert_eq!(cold_results, resumed_results);
    }

}
