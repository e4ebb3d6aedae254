//! Cycle-accurate simulation of a [`Design`].

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::design::{Design, Signal, SignalId, SignalKind};
use crate::expr::{mask, width_mask, BinOp, Expr, ExprId, UnOp};

/// The register contents of a design at one clock cycle.
///
/// States are compact (`Arc<[u64]>`, one word per register), cheap to clone,
/// and hashable — the explicit-state property verifier uses them directly as
/// graph keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State(Arc<[u64]>);

impl State {
    /// Creates a state from raw register values (one per register, in
    /// declaration order).
    pub fn from_regs(regs: Vec<u64>) -> Self {
        State(regs.into())
    }

    /// Raw register values.
    pub fn regs(&self) -> &[u64] {
        &self.0
    }
}

/// An error raised when constructing an initial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeInitError {
    /// Names of registers with unconstrained initial values.
    pub unpinned: Vec<String>,
}

impl fmt::Display for FreeInitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "registers with free initial values must be pinned: {}",
            self.unpinned.join(", ")
        )
    }
}

impl Error for FreeInitError {}

/// Evaluates a design cycle-by-cycle.
///
/// The simulator is stateless: callers hold [`State`]s and thread them
/// through [`Simulator::step`], which makes it trivially shareable between
/// the interactive simulator and the model checker. Evaluation runs the
/// design's levelised slot program (compiled once, when the design is
/// finalized): [`Frame::settle`] computes every wire and every register's
/// next value for one `(state, inputs)` in a single linear pass, and
/// callers that read several signals of one cycle read them all from that
/// frame. [`Simulator::step`], [`Simulator::peek`] and [`Simulator::eval`]
/// are one-shot wrappers that settle a fresh frame per call.
#[derive(Debug, Clone)]
pub struct Simulator<'d> {
    design: &'d Design,
}

impl<'d> Simulator<'d> {
    /// Creates a simulator for `design`.
    pub fn new(design: &'d Design) -> Self {
        Simulator { design }
    }

    /// The design being simulated.
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// The reset state.
    ///
    /// # Errors
    ///
    /// Returns [`FreeInitError`] if any register has a free (unconstrained)
    /// initial value; use [`Simulator::initial_state_with`] to pin those.
    pub fn initial_state(&self) -> Result<State, FreeInitError> {
        self.initial_state_with(&[])
    }

    /// The reset state, with free-init registers pinned by `(signal, value)`
    /// pairs (typically derived from first-cycle verification assumptions).
    ///
    /// Pins for registers that also have a reset value override the reset
    /// value; this mirrors an RTL verifier letting initial-value assumptions
    /// constrain the reset state.
    ///
    /// # Errors
    ///
    /// Returns [`FreeInitError`] listing any free-init register that no pin
    /// covers.
    pub fn initial_state_with(&self, pins: &[(SignalId, u64)]) -> Result<State, FreeInitError> {
        let mut regs = vec![0u64; self.design.num_regs()];
        let mut unpinned = Vec::new();
        for (id, s) in self.design.signals() {
            if let SignalKind::Reg { index, init, .. } = s.kind {
                let pinned = pins.iter().find(|(p, _)| *p == id).map(|&(_, v)| v);
                match pinned.or(init) {
                    Some(v) => regs[index] = mask(v, s.width),
                    None => unpinned.push(s.name.clone()),
                }
            }
        }
        if unpinned.is_empty() {
            Ok(State::from_regs(regs))
        } else {
            Err(FreeInitError { unpinned })
        }
    }

    /// A fresh, unsettled evaluation frame for this design.
    pub fn frame(&self) -> Frame<'d> {
        Frame {
            program: &self.design.program,
            slots: self.design.program.template.to_vec(),
        }
    }

    /// A frame settled at `(state, inputs)`.
    fn settled(&self, state: &State, inputs: &[u64]) -> Frame<'d> {
        let mut frame = self.frame();
        frame.settle(state, inputs);
        frame
    }

    /// Evaluates an expression in the given state with the given inputs.
    ///
    /// # Panics
    ///
    /// Panics if `expr` feeds no wire and no register (a dead arena node,
    /// which the slot program does not compute).
    pub fn eval(&self, state: &State, inputs: &[u64], expr: ExprId) -> u64 {
        self.settled(state, inputs).eval(expr)
    }

    /// The current value of any signal (input, register, or wire).
    pub fn peek(&self, state: &State, inputs: &[u64], sig: SignalId) -> u64 {
        match self.design.signal(sig).kind {
            SignalKind::Input { index } => inputs[index],
            SignalKind::Reg { index, .. } => state.regs()[index],
            SignalKind::Wire { .. } => self.settled(state, inputs).peek(sig),
        }
    }

    /// Advances one clock cycle: computes every register's next value from
    /// the current state and inputs, then commits them simultaneously
    /// (non-blocking assignment semantics).
    pub fn step(&self, state: &State, inputs: &[u64]) -> State {
        self.settled(state, inputs).next_state()
    }
}

/// Slot index of an expression node the program does not compute.
const NO_SLOT: u32 = u32::MAX;

/// One operation of a [`Program`]: the value of one expression node,
/// computed from its operands' slots into the operation's own slot.
/// `mask` fields hold the node's width mask.
#[derive(Debug, Clone, Copy)]
enum Op {
    Not { arg: u32, mask: u64 },
    OrReduce { arg: u32 },
    And { lhs: u32, rhs: u32 },
    Or { lhs: u32, rhs: u32 },
    Xor { lhs: u32, rhs: u32 },
    Add { lhs: u32, rhs: u32, mask: u64 },
    Sub { lhs: u32, rhs: u32, mask: u64 },
    Eq { lhs: u32, rhs: u32 },
    Ne { lhs: u32, rhs: u32 },
    Lt { lhs: u32, rhs: u32 },
    Mux { cond: u32, then_: u32, else_: u32 },
}

/// A design's expressions compiled into a flat, topologically ordered slot
/// program.
///
/// A [`Frame`] holds one `u64` slot per value: the inputs, then the
/// registers, then the (deduplicated) constants, then one slot per
/// operation. Every `Unary`/`Binary`/`Mux` node that some wire or some
/// register's next-state expression reaches becomes one [`Op`], ordered
/// after its operands; a `Sig` node aliases the slot of its input, its
/// register, or its wire's driving expression; and constants are preset in
/// the frame template. Muxes evaluate strictly (both arms are computed),
/// which is sound because expressions are pure. Dead arena nodes (left by
/// mutation) get no slot.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    num_inputs: usize,
    /// An unsettled frame: constants preset, every other slot zero.
    template: Box<[u64]>,
    /// Slot of the first operation's result.
    ops_base: usize,
    ops: Box<[Op]>,
    /// Slot of each signal's value.
    signal_slots: Box<[u32]>,
    /// Slot of each expression node's value, or [`NO_SLOT`].
    expr_slots: Box<[u32]>,
    /// Per register (dense index): its next-state slot and width mask.
    next: Box<[(u32, u64)]>,
}

impl Program {
    /// Compiles validated, loop-free design tables (see
    /// `builder::finalize`).
    pub(crate) fn compile(
        signals: &[Signal],
        exprs: &[Expr],
        widths: &[u8],
        num_inputs: usize,
        num_regs: usize,
    ) -> Program {
        // Post-order over every node some wire or next-state expression
        // reaches; `Sig(wire)` has the wire's driving expression as child.
        fn visit(
            e: ExprId,
            signals: &[Signal],
            exprs: &[Expr],
            seen: &mut [bool],
            order: &mut Vec<ExprId>,
        ) {
            if seen[e.0] {
                return;
            }
            seen[e.0] = true;
            let mut child = |c: ExprId| visit(c, signals, exprs, seen, order);
            match exprs[e.0] {
                Expr::Const { .. } => {}
                Expr::Sig(s) => {
                    if let SignalKind::Wire { expr } = signals[s.0].kind {
                        child(expr);
                    }
                }
                Expr::Unary { arg, .. } => child(arg),
                Expr::Binary { lhs, rhs, .. } => {
                    child(lhs);
                    child(rhs);
                }
                Expr::Mux { cond, then_, else_ } => {
                    child(cond);
                    child(then_);
                    child(else_);
                }
            }
            order.push(e);
        }
        let mut seen = vec![false; exprs.len()];
        let mut order = Vec::new();
        for s in signals {
            match s.kind {
                SignalKind::Wire { expr } | SignalKind::Reg { next: expr, .. } => {
                    visit(expr, signals, exprs, &mut seen, &mut order);
                }
                SignalKind::Input { .. } => {}
            }
        }

        let slot = |n: usize| u32::try_from(n).expect("design fits in u32 slots");
        let mut template = vec![0u64; num_inputs + num_regs];
        let mut expr_slots = vec![NO_SLOT; exprs.len()];
        let mut consts = std::collections::HashMap::new();
        for &e in &order {
            if let Expr::Const { value, .. } = exprs[e.0] {
                expr_slots[e.0] = *consts.entry(value).or_insert_with(|| {
                    template.push(value);
                    slot(template.len() - 1)
                });
            }
        }
        let ops_base = template.len();
        let signal_slot = |s: SignalId, expr_slots: &[u32]| match signals[s.0].kind {
            SignalKind::Input { index } => slot(index),
            SignalKind::Reg { index, .. } => slot(num_inputs + index),
            SignalKind::Wire { expr } => expr_slots[expr.0],
        };
        let mut ops = Vec::new();
        for &e in &order {
            let at = |c: ExprId| expr_slots[c.0];
            let op = match exprs[e.0] {
                Expr::Const { .. } => continue,
                Expr::Sig(s) => {
                    expr_slots[e.0] = signal_slot(s, &expr_slots);
                    continue;
                }
                Expr::Unary { op, arg } => match op {
                    UnOp::Not => Op::Not {
                        arg: at(arg),
                        mask: width_mask(widths[e.0]),
                    },
                    UnOp::OrReduce => Op::OrReduce { arg: at(arg) },
                },
                Expr::Binary { op, lhs, rhs } => {
                    let (lhs, rhs) = (at(lhs), at(rhs));
                    let mask = width_mask(widths[e.0]);
                    match op {
                        BinOp::And => Op::And { lhs, rhs },
                        BinOp::Or => Op::Or { lhs, rhs },
                        BinOp::Xor => Op::Xor { lhs, rhs },
                        BinOp::Add => Op::Add { lhs, rhs, mask },
                        BinOp::Sub => Op::Sub { lhs, rhs, mask },
                        BinOp::Eq => Op::Eq { lhs, rhs },
                        BinOp::Ne => Op::Ne { lhs, rhs },
                        BinOp::Lt => Op::Lt { lhs, rhs },
                    }
                }
                Expr::Mux { cond, then_, else_ } => Op::Mux {
                    cond: at(cond),
                    then_: at(then_),
                    else_: at(else_),
                },
            };
            expr_slots[e.0] = slot(ops_base + ops.len());
            ops.push(op);
        }
        template.resize(ops_base + ops.len(), 0);

        let signal_slots = (0..signals.len())
            .map(|i| signal_slot(SignalId(i), &expr_slots))
            .collect();
        let mut next = vec![(NO_SLOT, 0); num_regs];
        for s in signals {
            if let SignalKind::Reg { index, next: e, .. } = s.kind {
                next[index] = (expr_slots[e.0], width_mask(s.width));
            }
        }
        Program {
            num_inputs,
            template: template.into(),
            ops_base,
            ops: ops.into(),
            signal_slots,
            expr_slots: expr_slots.into(),
            next: next.into(),
        }
    }
}

/// The values of every signal and live expression of a design at one
/// `(state, inputs)` point, computed by one [`Frame::settle`] pass of the
/// design's slot program. Reuse one frame across cycles to avoid
/// reallocating it.
#[derive(Debug, Clone)]
pub struct Frame<'d> {
    program: &'d Program,
    slots: Vec<u64>,
}

impl Frame<'_> {
    /// Evaluates the whole design at `(state, inputs)`: loads the inputs
    /// and registers, then runs every operation in topological order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `state` does not match the design's input or
    /// register count.
    pub fn settle(&mut self, state: &State, inputs: &[u64]) {
        let p = self.program;
        let regs = state.regs();
        let s = &mut self.slots[..];
        s[..p.num_inputs].copy_from_slice(inputs);
        s[p.num_inputs..p.num_inputs + p.next.len()].copy_from_slice(regs);
        let at = |s: &[u64], i: u32| s[i as usize];
        for (dst, op) in (p.ops_base..).zip(p.ops.iter()) {
            s[dst] = match *op {
                Op::Not { arg, mask } => !at(s, arg) & mask,
                Op::OrReduce { arg } => u64::from(at(s, arg) != 0),
                Op::And { lhs, rhs } => at(s, lhs) & at(s, rhs),
                Op::Or { lhs, rhs } => at(s, lhs) | at(s, rhs),
                Op::Xor { lhs, rhs } => at(s, lhs) ^ at(s, rhs),
                Op::Add { lhs, rhs, mask } => at(s, lhs).wrapping_add(at(s, rhs)) & mask,
                Op::Sub { lhs, rhs, mask } => at(s, lhs).wrapping_sub(at(s, rhs)) & mask,
                Op::Eq { lhs, rhs } => u64::from(at(s, lhs) == at(s, rhs)),
                Op::Ne { lhs, rhs } => u64::from(at(s, lhs) != at(s, rhs)),
                Op::Lt { lhs, rhs } => u64::from(at(s, lhs) < at(s, rhs)),
                Op::Mux { cond, then_, else_ } => {
                    if at(s, cond) != 0 {
                        at(s, then_)
                    } else {
                        at(s, else_)
                    }
                }
            };
        }
    }

    /// The settled value of a signal.
    pub fn peek(&self, sig: SignalId) -> u64 {
        self.slots[self.program.signal_slots[sig.0] as usize]
    }

    /// The settled value of an expression node.
    ///
    /// # Panics
    ///
    /// Panics if `expr` feeds no wire and no register.
    pub fn eval(&self, expr: ExprId) -> u64 {
        let slot = self.program.expr_slots[expr.0];
        assert_ne!(slot, NO_SLOT, "{expr} feeds no wire or register");
        self.slots[slot as usize]
    }

    /// The next value of the register with dense index `index`, masked to
    /// its width — what [`Simulator::step`] commits.
    pub fn next_reg(&self, index: usize) -> u64 {
        let (slot, mask) = self.program.next[index];
        self.slots[slot as usize] & mask
    }

    /// The successor state: every register's next value, committed
    /// simultaneously.
    pub fn next_state(&self) -> State {
        State::from_regs(
            self.program
                .next
                .iter()
                .map(|&(slot, mask)| self.slots[slot as usize] & mask)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DesignBuilder;

    /// A 2-bit counter with an enable input.
    fn counter() -> Design {
        let mut b = DesignBuilder::new("c");
        let en = b.input("en", 1);
        let count = b.reg("count", 2, Some(0));
        let one = b.lit(1, 2);
        let inc = b.sig(count);
        let sum = b.add(inc, one);
        let ene = b.sig(en);
        let cur = b.sig(count);
        let nxt = b.mux(ene, sum, cur);
        b.set_next(count, nxt);
        let c2 = b.sig(count);
        let two = b.lit(2, 2);
        let at2 = b.eq(c2, two);
        b.wire("at_two", at2);
        b.build().unwrap()
    }

    #[test]
    fn counter_counts_and_wraps() {
        let d = counter();
        let sim = Simulator::new(&d);
        let count = d.signal_by_name("count").unwrap();
        let at_two = d.signal_by_name("at_two").unwrap();
        let mut s = sim.initial_state().unwrap();
        let mut seen = Vec::new();
        for cycle in 0..6 {
            seen.push(sim.peek(&s, &[1], count));
            if cycle == 2 {
                assert_eq!(sim.peek(&s, &[1], at_two), 1);
            }
            s = sim.step(&s, &[1]);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 0, 1], "2-bit counter wraps");
    }

    #[test]
    fn enable_gates_the_counter() {
        let d = counter();
        let sim = Simulator::new(&d);
        let count = d.signal_by_name("count").unwrap();
        let mut s = sim.initial_state().unwrap();
        s = sim.step(&s, &[0]);
        assert_eq!(sim.peek(&s, &[0], count), 0);
        s = sim.step(&s, &[1]);
        assert_eq!(sim.peek(&s, &[1], count), 1);
    }

    #[test]
    fn nonblocking_commit_semantics() {
        // Two registers swapping values each cycle — the classic test that
        // next-state evaluation reads pre-edge values.
        let mut b = DesignBuilder::new("swap");
        let a = b.reg("a", 4, Some(3));
        let c = b.reg("c", 4, Some(9));
        let ae = b.sig(a);
        let ce = b.sig(c);
        b.set_next(a, ce);
        b.set_next(c, ae);
        let d = b.build().unwrap();
        let sim = Simulator::new(&d);
        let s0 = sim.initial_state().unwrap();
        let s1 = sim.step(&s0, &[]);
        assert_eq!(s1.regs(), &[9, 3]);
        let s2 = sim.step(&s1, &[]);
        assert_eq!(s2.regs(), &[3, 9]);
    }

    #[test]
    fn free_init_requires_pinning() {
        let mut b = DesignBuilder::new("m");
        let m = b.reg("mem0", 8, None);
        let me = b.sig(m);
        b.set_next(m, me);
        let d = b.build().unwrap();
        let sim = Simulator::new(&d);
        let err = sim.initial_state().unwrap_err();
        assert_eq!(err.unpinned, vec!["mem0".to_string()]);
        let s = sim.initial_state_with(&[(m, 42)]).unwrap();
        assert_eq!(s.regs(), &[42]);
    }

    #[test]
    fn pins_are_masked_to_width() {
        let mut b = DesignBuilder::new("m");
        let m = b.reg("r", 4, None);
        let me = b.sig(m);
        b.set_next(m, me);
        let d = b.build().unwrap();
        let sim = Simulator::new(&d);
        let s = sim.initial_state_with(&[(m, 0xFF)]).unwrap();
        assert_eq!(s.regs(), &[0xF]);
    }

    #[test]
    fn states_hash_and_compare() {
        let s1 = State::from_regs(vec![1, 2, 3]);
        let s2 = State::from_regs(vec![1, 2, 3]);
        let s3 = State::from_regs(vec![1, 2, 4]);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        let set: std::collections::HashSet<State> = [s1, s2, s3].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
