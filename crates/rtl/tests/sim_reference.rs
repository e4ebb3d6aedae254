//! The levelised simulator against a reference interpreter.
//!
//! The reference is the straightforward recursive evaluator: it walks a
//! signal's expression tree on every read, with no sharing and no slot
//! program. [`Simulator::step`], [`Simulator::peek`] and a settled
//! [`rtlcheck_rtl::sim::Frame`] must agree with it bit for bit, on random
//! designs (64-bit `Add`/`Sub`/`Not` masking, nested muxes, wire chains)
//! and on every catalog mutant of the Multi-V-scale `mp` design, whose
//! arenas carry dead nodes and rewritten cones.

use proptest::prelude::*;
use rtlcheck_litmus::suite;
use rtlcheck_rtl::multi_vscale::{MemoryImpl, MultiVscale};
use rtlcheck_rtl::mutate::{catalog, CatalogTarget};
use rtlcheck_rtl::sim::{Simulator, State};
use rtlcheck_rtl::{BinOp, Design, DesignBuilder, Expr, ExprId, SignalId, SignalKind, UnOp};

fn mask(value: u64, width: u8) -> u64 {
    if width == 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// The reference evaluator: a recursive walk of `expr`'s tree.
fn reference_eval(d: &Design, state: &State, inputs: &[u64], expr: ExprId) -> u64 {
    let eval = |e| reference_eval(d, state, inputs, e);
    match d.expr(expr) {
        Expr::Const { value, .. } => value,
        Expr::Sig(s) => reference_peek(d, state, inputs, s),
        Expr::Unary { op, arg } => {
            let a = eval(arg);
            match op {
                UnOp::Not => mask(!a, d.expr_width(expr)),
                UnOp::OrReduce => u64::from(a != 0),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let (a, b) = (eval(lhs), eval(rhs));
            let w = d.expr_width(expr);
            match op {
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Add => mask(a.wrapping_add(b), w),
                BinOp::Sub => mask(a.wrapping_sub(b), w),
                BinOp::Eq => u64::from(a == b),
                BinOp::Ne => u64::from(a != b),
                BinOp::Lt => u64::from(a < b),
            }
        }
        Expr::Mux { cond, then_, else_ } => {
            if eval(cond) != 0 {
                eval(then_)
            } else {
                eval(else_)
            }
        }
    }
}

fn reference_peek(d: &Design, state: &State, inputs: &[u64], sig: SignalId) -> u64 {
    match d.signal(sig).kind {
        SignalKind::Input { index } => inputs[index],
        SignalKind::Reg { index, .. } => state.regs()[index],
        SignalKind::Wire { expr } => reference_eval(d, state, inputs, expr),
    }
}

fn reference_step(d: &Design, state: &State, inputs: &[u64]) -> State {
    let mut next = vec![0u64; d.num_regs()];
    for (_, s) in d.signals() {
        if let SignalKind::Reg { index, next: e, .. } = s.kind {
            next[index] = mask(reference_eval(d, state, inputs, e), s.width);
        }
    }
    State::from_regs(next)
}

/// Checks every read the simulator offers at one `(state, inputs)` point
/// against the reference, returning the reference successor.
fn agree_at(d: &Design, state: &State, inputs: &[u64]) -> Result<State, TestCaseError> {
    let sim = Simulator::new(d);
    let mut frame = sim.frame();
    frame.settle(state, inputs);
    let expected = reference_step(d, state, inputs);
    prop_assert_eq!(&sim.step(state, inputs), &expected, "step of {}", d.name());
    prop_assert_eq!(&frame.next_state(), &expected, "frame successor");
    for (id, s) in d.signals() {
        let want = reference_peek(d, state, inputs, id);
        prop_assert_eq!(sim.peek(state, inputs, id), want, "peek {}", s.name);
        prop_assert_eq!(frame.peek(id), want, "frame peek {}", s.name);
        if let SignalKind::Reg { index, next, .. } = s.kind {
            let raw = reference_eval(d, state, inputs, next);
            prop_assert_eq!(sim.eval(state, inputs, next), raw, "eval next {}", s.name);
            prop_assert_eq!(frame.eval(next), raw, "frame eval next {}", s.name);
            prop_assert_eq!(frame.next_reg(index), expected.regs()[index]);
        }
    }
    Ok(expected)
}

const WIDTHS: [u8; 3] = [1, 3, 64];

/// One construction step of a random design: an opcode and three operand
/// picks, resolved modulo the pools of expressions built so far.
type Recipe = (u8, usize, usize, usize);

/// Builds a random design from `recipes`: one input and one register per
/// width in [`WIDTHS`], the constants 0, 1 and all-ones per width, then one
/// node (or named wire) per recipe. Each register's next state is the last
/// expression of its width, so every node feeds something.
fn random_design(recipes: &[Recipe], inits: &[u64]) -> Design {
    let mut b = DesignBuilder::new("random");
    let mut pools: Vec<Vec<ExprId>> = vec![Vec::new(); WIDTHS.len()];
    let mut regs = Vec::new();
    for (k, &w) in WIDTHS.iter().enumerate() {
        let i = b.input(format!("in{w}"), w);
        let r = b.reg(format!("r{w}"), w, Some(mask(inits[k], w)));
        regs.push(r);
        for e in [
            b.sig(i),
            b.sig(r),
            b.lit(0, w),
            b.lit(1, w),
            b.lit(mask(u64::MAX, w), w),
        ] {
            pools[k].push(e);
        }
    }
    for (n, &(op, a, x, y)) in recipes.iter().enumerate() {
        let k = a % WIDTHS.len();
        let pick = |pool: &Vec<ExprId>, i: usize| pool[i % pool.len()];
        let (lhs, rhs) = (pick(&pools[k], x), pick(&pools[k], y));
        let (out, e) = match op % 13 {
            0 => (k, b.not_e(lhs)),
            1 => (0, b.or_reduce(lhs)),
            2 => (k, b.and(lhs, rhs)),
            3 => (k, b.or(lhs, rhs)),
            4 => (k, b.xor(lhs, rhs)),
            5 => (k, b.add(lhs, rhs)),
            6 => (k, b.sub(lhs, rhs)),
            7 => (0, b.eq(lhs, rhs)),
            8 => (0, b.ne(lhs, rhs)),
            9 => (0, b.lt(lhs, rhs)),
            10 | 11 => {
                let cond = pick(&pools[0], x ^ y);
                (k, b.mux(cond, lhs, rhs))
            }
            _ => {
                let w = b.wire(format!("w{n}"), lhs);
                (k, b.sig(w))
            }
        };
        pools[out].push(e);
    }
    for (k, r) in regs.into_iter().enumerate() {
        let last = *pools[k].last().expect("pools start non-empty");
        b.set_next(r, last);
    }
    b.build().expect("recipes respect operand widths")
}

fn arb_recipes() -> impl Strategy<Value = Vec<Recipe>> {
    proptest::collection::vec((0u8..13, 0usize..64, 0usize..64, 0usize..64), 1..40)
}

fn arb_words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 3..=3)
}

/// A value near the interesting edges of a 64-bit word half the time.
fn edgy(v: u64) -> u64 {
    match v % 8 {
        0 => u64::MAX,
        1 => 0,
        2 => 1,
        3 => u64::MAX - 1,
        _ => v,
    }
}

fn masked_to_widths(words: &[u64]) -> Vec<u64> {
    words
        .iter()
        .zip(WIDTHS)
        .map(|(&v, w)| mask(edgy(v), w))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random designs agree with the reference on every read, over a short
    /// run from a random state under random inputs.
    #[test]
    fn random_designs_match_the_reference(
        recipes in arb_recipes(),
        inits in arb_words(),
        start in arb_words(),
        inputs in proptest::collection::vec(arb_words(), 1..6),
    ) {
        let d = random_design(&recipes, &inits);
        let mut state = State::from_regs(masked_to_widths(&start));
        for words in &inputs {
            state = agree_at(&d, &state, &masked_to_widths(words))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every catalog mutant of Multi-V-scale `mp` agrees with the reference
    /// along a random arbiter schedule.
    #[test]
    fn mp_catalog_mutants_match_the_reference(
        schedule in proptest::collection::vec(0u64..4, 12..20),
    ) {
        let mp = suite::get("mp").unwrap();
        let base = MultiVscale::build(&mp, MemoryImpl::Fixed).design;
        let mut designs = vec![base.clone()];
        for m in catalog(CatalogTarget::MultiVscale) {
            designs.push(m.apply(&base).expect("catalog mutations apply to mp"));
        }
        for d in &designs {
            let pins: Vec<_> = d.free_init_regs().into_iter().map(|r| (r, 0)).collect();
            let mut state = Simulator::new(d).initial_state_with(&pins).unwrap();
            for &g in &schedule {
                state = agree_at(d, &state, &[g])?;
            }
        }
    }
}
