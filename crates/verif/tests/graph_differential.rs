//! Differential testing of the graph-walk engine against the monolithic
//! reference exploration, over random small designs, assumptions, and
//! properties.
//!
//! The refactor's contract is that [`rtlcheck_verif::verify_property`] and
//! [`rtlcheck_verif::check_cover`] — now NFA walks over a shared
//! [`rtlcheck_verif::StateGraph`] — are observationally identical to the
//! pre-split engine: same verdicts, same [`rtlcheck_verif::ExploreStats`]
//! (states, transitions, assumption pruning, completed depth), same
//! counterexample traces, under every budget. The suite-level differential
//! lives in `tests/differential.rs` at the workspace root; this file covers
//! the space the suite does not: random designs and budgets chosen to land
//! on every verdict variant.

use std::cell::RefCell;
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::run_proptest;
use rtlcheck_obs::{Attrs, Collector, MetricsCollector, SpanId};
use rtlcheck_rtl::{Design, DesignBuilder, SignalId};
use rtlcheck_sva::{Prop, Seq, SvaBool};
use rtlcheck_verif::explore::{check_cover_reference, verify_property_reference};
use rtlcheck_verif::{
    check_cover, verify_property, verify_property_observed, Directive, Engine, EngineKind, Problem,
    PropertyVerdict, RtlAtom, VerifyConfig,
};

/// Recipe for one random design: register widths/inits and per-register
/// update behaviour, all driven by proptest-chosen small integers.
#[derive(Debug, Clone)]
struct DesignRecipe {
    input_width: u8,
    regs: Vec<RegRecipe>,
}

#[derive(Debug, Clone)]
struct RegRecipe {
    width: u8,
    init: u64,
    /// Input value that enables this register's update.
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
                // Decrement gated on a sibling register's value: couples the
                // registers so the product space is not a plain cross
                // product.
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

fn configs() -> Vec<VerifyConfig> {
    vec![
        VerifyConfig::quick(),
        VerifyConfig::hybrid(),
        // A starved configuration that forces BudgetHit on both the state
        // and the depth axis.
        VerifyConfig {
            name: "tiny".into(),
            engines: vec![
                Engine {
                    kind: EngineKind::Bounded,
                    max_states: 100_000,
                    max_depth: Some(2),
                },
                Engine {
                    kind: EngineKind::Full,
                    max_states: 5,
                    max_depth: None,
                },
            ],
            cover_max_states: 5,
        },
    ]
}

/// A property over more than 64 distinct atoms cannot pack its atom
/// valuation into the walk's `u64` memo key, so every walk transition
/// steps the monitor for real. That path must agree with the reference
/// exactly, like the memoised one. No suite property has more than 16
/// atoms, so only this test reaches it.
#[test]
fn properties_over_64_atoms_match_the_reference_unmemoised() {
    let mut b = DesignBuilder::new("wide");
    let en = b.input("en", 1);
    let first = b.reg("first", 1, Some(1));
    let zero = b.lit(0, 1);
    b.set_next(first, zero);
    let count = b.reg("count", 7, Some(0));
    let cur = b.sig(count);
    let one = b.lit(1, 7);
    let inc = b.add(cur, one);
    let enable = b.sig(en);
    let next = b.mux(enable, inc, cur);
    b.set_next(count, next);
    let design = b.build().expect("well-formed");
    let problem = Problem::new(&design);

    let count_in = |values: std::ops::Range<u64>| {
        SvaBool::any(
            values
                .map(|v| SvaBool::atom(RtlAtom::eq(count, v)))
                .collect(),
        )
    };
    let guard = |p| Prop::implies(SvaBool::atom(RtlAtom::is_true(first)), p);
    let props = [
        // Falsified once the counter reaches 5.
        (guard(Prop::Never(count_in(5..72))), false),
        // Weakly pending until the counter reaches 60: proven.
        (
            guard(Prop::seq(Seq::delay(
                0,
                None,
                Seq::boolean(count_in(60..127)),
            ))),
            true,
        ),
    ];
    for (prop, holds) in &props {
        let quick = verify_property(&problem, prop, &VerifyConfig::quick());
        assert_eq!(
            matches!(quick, PropertyVerdict::Proven { .. }),
            *holds,
            "{quick:?}"
        );
        let mut atoms = Vec::new();
        prop.for_each_atom(&mut |a| atoms.push(*a));
        atoms.sort();
        atoms.dedup();
        assert!(atoms.len() > 64, "{} atoms", atoms.len());

        for config in configs() {
            let walk = verify_property(&problem, prop, &config);
            let reference = verify_property_reference(&problem, prop, &config);
            assert_eq!(
                format!("{walk:?}"),
                format!("{reference:?}"),
                "config {}",
                config.name
            );
        }

        let metrics = MetricsCollector::new();
        verify_property_observed(&problem, prop, &VerifyConfig::quick(), "wide", &metrics);
        let summary = metrics.summary();
        let total = |name: &str| summary.counter(name).map_or(0, |c| c.total);
        assert_eq!(total("engine.full.monitor_memo_hits"), 0);
        assert_eq!(
            total("engine.full.monitor_steps"),
            total("engine.full.transitions")
        );
    }
}

/// The whole collector stream of one run, minus span ids and durations.
#[derive(Default)]
struct Stream(RefCell<Vec<String>>);

impl Collector for Stream {
    fn span_enter(&self, _id: SpanId, name: &str, attrs: Attrs) {
        self.0.borrow_mut().push(format!("enter {name} {attrs:?}"));
    }
    fn span_exit(&self, _id: SpanId, name: &str, _elapsed: Duration, attrs: Attrs) {
        self.0.borrow_mut().push(format!("exit {name} {attrs:?}"));
    }
    fn counter(&self, name: &str, value: u64, attrs: Attrs) {
        self.0
            .borrow_mut()
            .push(format!("counter {name}={value} {attrs:?}"));
    }
    fn event(&self, name: &str, attrs: Attrs) {
        self.0.borrow_mut().push(format!("event {name} {attrs:?}"));
    }
}

/// Runs `config` on one property, returning the verdict and the stream.
fn observe(
    problem: &Problem<'_>,
    prop: &Prop<RtlAtom>,
    engines: &[Engine],
) -> (PropertyVerdict, Vec<String>) {
    let config = VerifyConfig {
        name: "derived".into(),
        engines: engines.to_vec(),
        cover_max_states: 5,
    };
    let stream = Stream::default();
    let verdict = verify_property_observed(problem, prop, &config, "A[0]", &stream);
    (verdict, stream.0.into_inner())
}

/// A full engine after a bounded one with a larger state budget is
/// answered from the bounded walk. Its stream must be the one a fresh
/// full run emits: the `[bounded, full]` stream, without its
/// `walk.derived_full_runs` sample, equals the `[bounded]` stream
/// followed by a fresh `[full]` stream (or the `[bounded]` stream alone
/// when the bounded walk falsifies). Each way the bounded walk can end
/// is asserted to occur.
#[test]
fn derived_full_runs_emit_the_stream_of_a_fresh_run() {
    let pairs = [
        // Hybrid: full(210) after bounded(40, 100_000).
        (Engine::bounded(40, 100_000), Engine::full(210)),
        // A depth bound of 2 often stops before 5 states.
        (Engine::bounded(2, 100_000), Engine::full(5)),
        // A full budget at least the bounded one: nothing is derived.
        (Engine::bounded(4, 6), Engine::full(6)),
    ];
    // Passed mid-walk, exhausted under budget, depth bound first, not
    // derivable.
    let mut seen = [0usize; 4];
    run_proptest(
        ProptestConfig::with_cases(48),
        "derived_full_runs_emit_the_stream_of_a_fresh_run",
        |rng| {
            let recipe = arb_recipe().gen(rng);
            let (design, regs, _) = build(&recipe);
            let problem = Problem::new(&design);
            for prop in props_for(&regs, &recipe) {
                for (bounded, full) in pairs {
                    let (_, mut both) = observe(&problem, &prop, &[bounded, full]);
                    let derived_sample = "counter walk.derived_full_runs=1 []";
                    let derived = both.iter().filter(|l| *l == derived_sample).count();
                    both.retain(|l| l != derived_sample);
                    let (first_verdict, mut expected) = observe(&problem, &prop, &[bounded]);
                    if first_verdict.is_falsified() {
                        prop_assert_eq!(derived, 0);
                        prop_assert_eq!(&both, &expected);
                        continue;
                    }
                    let (fresh_verdict, fresh) = observe(&problem, &prop, &[full]);
                    expected.extend(fresh);
                    prop_assert_eq!(&both, &expected, "{:?} then {:?}", bounded, full);
                    let case = match (full.max_states < bounded.max_states, derived) {
                        (false, _) => 3,
                        (true, 0) => 2,
                        (true, _) if fresh_verdict.is_proven() => 1,
                        (true, _) => 0,
                    };
                    prop_assert!(derived <= 1 && (derived == 1) == (case < 2));
                    seen[case] += 1;
                }
            }
            Ok(())
        },
    );
    assert!(seen.iter().all(|&n| n > 0), "cases seen: {seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property verdicts, statistics, and counterexample traces are
    /// identical between the graph walk and the reference exploration, for
    /// every property shape, configuration, and assumption set.
    #[test]
    fn property_verdicts_match_the_reference(
        recipe in arb_recipe(),
        assume_en in prop_oneof![Just(None), (0u64..4).prop_map(Some)],
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
        for prop in props_for(&regs, &recipe) {
            for config in configs() {
                let walk = verify_property(&problem, &prop, &config);
                let reference = verify_property_reference(&problem, &prop, &config);
                prop_assert_eq!(
                    format!("{walk:?}"),
                    format!("{reference:?}"),
                    "config {} prop {:?}",
                    config.name,
                    prop
                );
            }
        }
    }

    /// Cover-search verdicts (trace, unreachable, unknown) and statistics
    /// are identical between the two engines.
    #[test]
    fn cover_verdicts_match_the_reference(
        recipe in arb_recipe(),
        cover_value in 0u64..8,
        budget in prop_oneof![Just(5usize), Just(100_000usize)],
    ) {
        let (design, regs, _) = build(&recipe);
        let mut problem = Problem::new(&design);
        let r0 = regs[0];
        let w = recipe.regs[0].width;
        problem.cover = Some(SvaBool::atom(RtlAtom::eq(r0, cover_value & ((1 << w) - 1))));
        let engine = Engine::full(budget);
        let walk = check_cover(&problem, engine);
        let reference = check_cover_reference(&problem, engine);
        prop_assert_eq!(format!("{walk:?}"), format!("{reference:?}"));
    }
}
