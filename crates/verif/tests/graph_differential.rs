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
    check_cover, verify_property, verify_property_on_graph_observed, Directive, Engine, EngineKind,
    Problem, PropertyVerdict, RtlAtom, StateGraph, VerifyConfig,
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
        let graph = StateGraph::new(&problem, [prop]);
        verify_property_on_graph_observed(&graph, prop, &VerifyConfig::quick(), "wide", &metrics);
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
    let graph = StateGraph::new(problem, [prop]);
    let verdict = verify_property_on_graph_observed(&graph, prop, &config, "A[0]", &stream);
    (verdict, stream.0.into_inner())
}

/// The values of a stream's `engine.<scope>.<name>` counters, in order.
fn engine_counter(lines: &[String], name: &str) -> Vec<u64> {
    let key = format!(".{name}=");
    lines
        .iter()
        .filter(|l| l.starts_with("counter engine."))
        .filter_map(|l| l.split_once(&key)?.1.split(' ').next()?.parse().ok())
        .collect()
}

/// Each property run's real monitor steps plus memo hits, in order.
fn memo_sums(lines: &[String]) -> Vec<u64> {
    let hits = engine_counter(lines, "monitor_memo_hits");
    let steps = engine_counter(lines, "monitor_steps");
    steps.iter().zip(&hits).map(|(s, h)| s + h).collect()
}

/// A stream with the values of its `engine.*.monitor_steps` and
/// `engine.*.monitor_memo_hits` counters masked. Walks on one graph share
/// their shape's monitor, so how a run's transitions split between real
/// steps and memo hits depends on the walks before it; the sum
/// ([`memo_sums`]) does not.
fn mask_memo_split(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|line| {
            for counter in [".monitor_steps=", ".monitor_memo_hits="] {
                if let Some((head, rest)) = line.split_once(counter) {
                    let tail = rest.split_once(' ').map_or("", |(_, t)| t);
                    return format!("{head}{counter}_ {tail}");
                }
            }
            line.clone()
        })
        .collect()
}

/// A full engine after a bounded one with a larger state budget is
/// answered from the bounded walk. Its stream must be the one a fresh
/// full run emits: the `[bounded, full]` stream, without its
/// `walk.derived_full_runs` sample, equals the `[bounded]` stream
/// followed by a fresh `[full]` stream (or the `[bounded]` stream alone
/// when the bounded walk falsifies). Each way the bounded walk can end
/// is asserted to occur.
///
/// When the depth bound stops the bounded walk first, the full engine
/// walks afresh on the graph the bounded walk used. Walks on one graph
/// may share their shape's monitor, and a shared monitor makes fewer
/// real steps than a fresh one, so every line is compared byte for byte
/// except the values of the two memo counters, whose sum is compared per
/// run.
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
                    prop_assert_eq!(
                        mask_memo_split(&both),
                        mask_memo_split(&expected),
                        "{:?} then {:?}",
                        bounded,
                        full
                    );
                    prop_assert_eq!(memo_sums(&both), memo_sums(&expected));
                    prop_assert_eq!(memo_sums(&both), engine_counter(&both, "transitions"));
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

/// `prop` with every atom's signal moved one register on (cyclically, over
/// `regs`) and its value's low bit flipped: an injective renaming, so the
/// copy has `prop`'s shape but samples other signals.
fn renamed(prop: &Prop<RtlAtom>, regs: &[SignalId]) -> Prop<RtlAtom> {
    prop.map_atoms(&mut |a| {
        let i = regs
            .iter()
            .position(|&r| r == a.sig)
            .expect("atoms read registers");
        RtlAtom::eq(regs[(i + 1) % regs.len()], a.value ^ 1)
    })
}

/// `prop` with the operands of every property `and` / `or` reversed: the
/// same property written the other way round, as the two instances of a
/// symmetric axiom are.
fn swapped(prop: &Prop<RtlAtom>) -> Prop<RtlAtom> {
    match prop {
        Prop::And(ps) => Prop::And(ps.iter().rev().map(swapped).collect()),
        Prop::Or(ps) => Prop::Or(ps.iter().rev().map(swapped).collect()),
        Prop::Implies { antecedent, body } => Prop::implies(antecedent.clone(), swapped(body)),
        other => other.clone(),
    }
}

/// Walks of properties that share a graph share each property shape's
/// determinised monitor. A family of properties is walked on one graph, in
/// an order the case picks: each base property, copies of it renamed onto
/// other signals (the same shape), and copies with their `and` / `or`
/// operands swapped. Every walk must still give the verdict, statistics
/// and trace of a walk on a fresh one-property graph and of the reference
/// exploration, report the fresh run's `monitor.*` counters, and split
/// its transitions exactly into real steps and memo hits. The shared
/// walks must make fewer real steps than the fresh ones in some case.
#[test]
fn walks_sharing_a_graph_match_fresh_runs() {
    let mut steps = (0u64, 0u64);
    run_proptest(
        ProptestConfig::with_cases(32),
        "walks_sharing_a_graph_match_fresh_runs",
        |rng| {
            let recipe = arb_recipe().gen(rng);
            let (design, regs, _) = build(&recipe);
            let problem = Problem::new(&design);
            let mut base = props_for(&regs, &recipe);
            // A symmetric axiom's instance `A or B`, and a conjunction.
            base.push(Prop::Or(vec![base[2].clone(), renamed(&base[2], &regs)]));
            base.push(Prop::And(vec![base[1].clone(), base[0].clone()]));
            let mut props = Vec::new();
            for p in &base {
                let copy = renamed(p, &regs);
                props.extend([renamed(&copy, &regs), swapped(p), p.clone(), copy]);
            }
            let shift = rng.below(props.len() as u64) as usize;
            props.rotate_left(shift);
            if rng.below(2) == 1 {
                props.reverse();
            }
            for config in configs() {
                let graph = StateGraph::build(&problem, &props, config.cover_engine());
                for prop in &props {
                    let stream = Stream::default();
                    let shared =
                        verify_property_on_graph_observed(&graph, prop, &config, "A[0]", &stream);
                    let shared_lines = stream.0.into_inner();
                    let (fresh, fresh_lines) = observe(&problem, prop, &config.engines);
                    let reference = verify_property_reference(&problem, prop, &config);
                    prop_assert_eq!(format!("{shared:?}"), format!("{fresh:?}"));
                    prop_assert_eq!(format!("{shared:?}"), format!("{reference:?}"));
                    let monitor_lines = |lines: &[String]| -> Vec<String> {
                        lines
                            .iter()
                            .filter(|l| l.starts_with("counter monitor."))
                            .cloned()
                            .collect()
                    };
                    prop_assert_eq!(monitor_lines(&shared_lines), monitor_lines(&fresh_lines));
                    prop_assert_eq!(
                        mask_memo_split(&shared_lines),
                        mask_memo_split(&fresh_lines),
                        "config {}",
                        config.name
                    );
                    prop_assert_eq!(
                        memo_sums(&shared_lines),
                        engine_counter(&shared_lines, "transitions")
                    );
                    let real_steps = |lines: &[String]| {
                        engine_counter(lines, "monitor_steps").iter().sum::<u64>()
                    };
                    steps.0 += real_steps(&shared_lines);
                    steps.1 += real_steps(&fresh_lines);
                }
            }
            Ok(())
        },
    );
    assert!(steps.0 < steps.1, "real steps shared / fresh: {steps:?}");
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
