//! Online property monitors with faithful SVA attempt semantics.
//!
//! A [`Monitor`] tracks one `assert property` / `assume property`
//! directive over a trace, implementing the semantics that drive the
//! paper's translation design:
//!
//! * **An attempt starts at every clock cycle** (§3.4). Each cycle
//!   instantiates a fresh copy of the property beginning at that cycle; the
//!   directive fails if *any* attempt fails. RTLCheck's generated
//!   properties guard with `first |->` so that only the first attempt is
//!   ever non-vacuous — un-guarded properties really do check from every
//!   cycle, which this monitor reproduces.
//! * **Weak sequence evaluation** (§3.1). An attempt is `Pending` while its
//!   sequences could still match, `Holds` once satisfied, and `Fails` only
//!   when no extension of the trace can satisfy it. Partial executions
//!   never fail a property that could still match.
//! * **No future-violation lookahead.** A monitor only reports failure
//!   at/after the cycle where failure becomes unavoidable — exactly the
//!   assumption semantics (of JasperGold and other SVA verifiers) that
//!   force outcome-aware assertion generation (§3.2).
//!
//! Monitor state is canonically encoded ([`MonitorState`]) — deduplicated,
//! ordered, and hashable. The state graph keys its nodes on
//! `(design state, assumption-monitor states)` directly; property walks
//! intern each assertion-monitor state they reach to a dense id and memoise
//! transitions on `(id, valuation of the property's atoms)`, which is sound
//! because a monitor's successor depends only on its state and the values
//! of its own atoms.

use std::collections::BTreeSet;

use rtlcheck_obs::{attrs, Collector};

use crate::ast::{Prop, SvaBool};
use crate::nfa::{BitSet, Nfa};

/// The status/state of one attempt's property evaluation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum PropState {
    /// Resolved: holds (true) or fails (false), regardless of the future.
    Done(bool),
    /// A pending sequence: live NFA states, by index into the monitor's
    /// compiled sequence table.
    SeqPending {
        /// Which compiled NFA this refers to.
        nfa: usize,
        /// Live state set.
        live: BitSet,
    },
    /// Pending `Never`: fails if the boolean (by index) ever holds.
    NeverPending {
        /// Index into the monitor's boolean table.
        cond: usize,
    },
    /// All children must hold.
    And(Vec<PropState>),
    /// At least one child must hold.
    Or(Vec<PropState>),
}

impl PropState {
    fn resolved(&self) -> Option<bool> {
        match self {
            PropState::Done(b) => Some(*b),
            _ => None,
        }
    }

    /// Normalises And/Or nodes whose outcome is already determined.
    fn normalise(self) -> PropState {
        match self {
            PropState::And(children) => {
                let mut pending = Vec::new();
                for c in children {
                    match c.resolved() {
                        Some(false) => return PropState::Done(false),
                        Some(true) => {}
                        None => pending.push(c),
                    }
                }
                match pending.len() {
                    0 => PropState::Done(true),
                    1 => pending.pop().expect("len checked"),
                    _ => {
                        pending.sort();
                        PropState::And(pending)
                    }
                }
            }
            PropState::Or(children) => {
                let mut pending = Vec::new();
                for c in children {
                    match c.resolved() {
                        Some(true) => return PropState::Done(true),
                        Some(false) => {}
                        None => pending.push(c),
                    }
                }
                match pending.len() {
                    0 => PropState::Done(false),
                    1 => pending.pop().expect("len checked"),
                    _ => {
                        pending.sort();
                        PropState::Or(pending)
                    }
                }
            }
            other => other,
        }
    }
}

/// The externally visible, canonical state of a [`Monitor`]:
/// whether it has failed plus the set of distinct pending attempts.
///
/// Two monitors with equal `MonitorState`s behave identically on all future
/// inputs, which is what makes product-state deduplication in the verifier
/// sound.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MonitorState {
    failed: bool,
    pending: BTreeSet<PropState>,
}

impl MonitorState {
    /// Whether some attempt has failed.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Number of distinct pending attempts.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }
}

/// Compiled, immutable data shared by all attempts of one property.
#[derive(Debug, Clone)]
struct Compiled<A> {
    prop: Prop<A>,
    nfas: Vec<Nfa<A>>,
    bools: Vec<SvaBool<A>>,
}

/// Observation counters describing one monitor's structure and activity,
/// reported through the observability layer ([`MonitorMetrics::report_to`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorMetrics {
    /// Total states across the property's compiled sequence NFAs — the
    /// static size of the monitor's automaton product.
    pub nfa_states: usize,
    /// Number of compiled sequence NFAs.
    pub nfas: usize,
    /// Match attempts spawned (one per [`Monitor::step`] on a live
    /// monitor — SVA starts an attempt at every clock cycle, §3.4).
    pub attempts: u64,
    /// Attempts resolved vacuously at spawn because the property's
    /// top-level implication antecedent was false that cycle — the
    /// `first |->` guard (§4.4) doing its filtering work.
    pub first_filter_hits: u64,
}

impl MonitorMetrics {
    /// Reports the metrics as `monitor.*` observability counters,
    /// labelled with the directive name.
    pub fn report_to(&self, collector: &dyn Collector, directive: &str) {
        collector.counter(
            "monitor.product_nfa_states",
            self.nfa_states as u64,
            attrs!["directive" => directive, "nfas" => self.nfas],
        );
        collector.counter(
            "monitor.attempts",
            self.attempts,
            attrs!["directive" => directive],
        );
        collector.counter(
            "monitor.first_filter_hits",
            self.first_filter_hits,
            attrs!["directive" => directive],
        );
    }
}

/// An online monitor for one property directive.
#[derive(Debug, Clone)]
pub struct Monitor<A> {
    compiled: Compiled<A>,
    state: MonitorState,
    metrics: MonitorMetrics,
}

impl<A: Clone + Ord> Monitor<A> {
    /// Compiles a monitor for `prop`. No attempt is active until the first
    /// [`Monitor::step`].
    pub fn new(prop: &Prop<A>) -> Self {
        let mut compiled = Compiled {
            prop: prop.clone(),
            nfas: Vec::new(),
            bools: Vec::new(),
        };
        compile(prop, &mut compiled);
        let metrics = MonitorMetrics {
            nfa_states: compiled.nfas.iter().map(Nfa::num_states).sum(),
            nfas: compiled.nfas.len(),
            ..MonitorMetrics::default()
        };
        Monitor {
            compiled,
            state: MonitorState {
                failed: false,
                pending: BTreeSet::new(),
            },
            metrics,
        }
    }

    /// This monitor's structure and activity counters.
    pub fn metrics(&self) -> MonitorMetrics {
        self.metrics
    }

    /// Reports the monitor's metrics as observability counters, labelled
    /// with the directive name ([`MonitorMetrics::report_to`]).
    pub fn report_to(&self, collector: &dyn Collector, directive: &str) {
        self.metrics.report_to(collector, directive);
    }

    /// The canonical monitor state.
    pub fn state(&self) -> &MonitorState {
        &self.state
    }

    /// Replaces the monitor's state (used by the verifier when revisiting a
    /// product state).
    pub fn set_state(&mut self, state: MonitorState) {
        self.state = state;
    }

    /// Whether any attempt has failed so far.
    pub fn failed(&self) -> bool {
        self.state.failed
    }

    /// Counts one [`Monitor::step`] of a live monitor whose outcome the
    /// caller already knows (a memoised transition) without re-running it:
    /// adds the step's attempt, plus a first-filter hit when the top-level
    /// antecedent was false (`filtered`). Keeps [`MonitorMetrics`] equal to
    /// what stepping would have recorded.
    pub fn record_memoised_step(&mut self, filtered: bool) {
        self.metrics.attempts += 1;
        self.metrics.first_filter_hits += u64::from(filtered);
    }

    /// Processes one clock cycle: spawns this cycle's new attempt, advances
    /// every pending attempt, and records failures.
    pub fn step(&mut self, env: &dyn Fn(&A) -> bool) {
        if self.state.failed {
            return; // failure is absorbing
        }
        self.metrics.attempts += 1;
        if let Prop::Implies { antecedent, .. } = &self.compiled.prop {
            if !antecedent.eval(env) {
                self.metrics.first_filter_hits += 1;
            }
        }
        let mut next: BTreeSet<PropState> = BTreeSet::new();
        let mut failed = false;

        // New attempt starting this cycle. The antecedent of a top-level
        // implication (and the initial NFA closures) see this cycle's
        // values; `spawn` therefore also consumes this cycle.
        let fresh = spawn(&self.compiled, &self.compiled.prop, env);
        match fresh.resolved() {
            Some(false) => failed = true,
            Some(true) => {}
            None => {
                next.insert(fresh);
            }
        }

        // Advance previously pending attempts.
        for attempt in &self.state.pending {
            let advanced = advance(&self.compiled, attempt.clone(), env);
            match advanced.resolved() {
                Some(false) => failed = true,
                Some(true) => {}
                None => {
                    next.insert(advanced);
                }
            }
        }

        self.state = MonitorState {
            failed,
            pending: if failed { BTreeSet::new() } else { next },
        };
    }
}

/// Collects sequence NFAs and `Never` booleans into the compiled tables.
fn compile<A: Clone>(prop: &Prop<A>, out: &mut Compiled<A>) {
    match prop {
        Prop::Seq(s) => {
            out.nfas.push(Nfa::compile(s));
        }
        Prop::Implies { body, .. } => compile(body, out),
        Prop::And(children) | Prop::Or(children) => {
            for c in children {
                compile(c, out);
            }
        }
        Prop::Never(b) => {
            out.bools.push(b.clone());
        }
    }
}

/// Starts a new attempt of `prop` at the current cycle, consuming it.
///
/// Sequence/`Never` indices are assigned in the same traversal order as
/// [`compile`], tracked via counters threaded through the recursion.
fn spawn<A: Clone + Ord>(
    compiled: &Compiled<A>,
    prop: &Prop<A>,
    env: &dyn Fn(&A) -> bool,
) -> PropState {
    fn go<A: Clone + Ord>(
        compiled: &Compiled<A>,
        prop: &Prop<A>,
        env: &dyn Fn(&A) -> bool,
        next_nfa: &mut usize,
        next_bool: &mut usize,
    ) -> PropState {
        match prop {
            Prop::Seq(_) => {
                let idx = *next_nfa;
                *next_nfa += 1;
                let nfa = &compiled.nfas[idx];
                let live = nfa.step(&nfa.initial(), env);
                seq_status(nfa, idx, live)
            }
            Prop::Implies { antecedent, body } => {
                if antecedent.eval(env) {
                    go(compiled, body, env, next_nfa, next_bool)
                } else {
                    // Vacuously true — but the traversal must still account
                    // for the body's table indices.
                    skip(body, next_nfa, next_bool);
                    PropState::Done(true)
                }
            }
            Prop::And(children) => PropState::And(
                children
                    .iter()
                    .map(|c| go(compiled, c, env, next_nfa, next_bool))
                    .collect(),
            )
            .normalise(),
            Prop::Or(children) => PropState::Or(
                children
                    .iter()
                    .map(|c| go(compiled, c, env, next_nfa, next_bool))
                    .collect(),
            )
            .normalise(),
            Prop::Never(b) => {
                let idx = *next_bool;
                *next_bool += 1;
                if b.eval(env) {
                    PropState::Done(false)
                } else {
                    PropState::NeverPending { cond: idx }
                }
            }
        }
    }
    fn skip<A>(prop: &Prop<A>, next_nfa: &mut usize, next_bool: &mut usize) {
        match prop {
            Prop::Seq(_) => *next_nfa += 1,
            Prop::Implies { body, .. } => skip(body, next_nfa, next_bool),
            Prop::And(children) | Prop::Or(children) => {
                for c in children {
                    skip(c, next_nfa, next_bool);
                }
            }
            Prop::Never(_) => *next_bool += 1,
        }
    }
    let (mut n, mut b) = (0, 0);
    go(compiled, prop, env, &mut n, &mut b)
}

fn seq_status<A: Clone>(nfa: &Nfa<A>, idx: usize, live: BitSet) -> PropState {
    if nfa.accepts(&live) {
        PropState::Done(true)
    } else if live.is_empty() {
        PropState::Done(false)
    } else {
        PropState::SeqPending { nfa: idx, live }
    }
}

/// Advances a pending attempt by one cycle.
fn advance<A: Clone + Ord>(
    compiled: &Compiled<A>,
    state: PropState,
    env: &dyn Fn(&A) -> bool,
) -> PropState {
    match state {
        done @ PropState::Done(_) => done,
        PropState::SeqPending { nfa, live } => {
            let next = compiled.nfas[nfa].step(&live, env);
            seq_status(&compiled.nfas[nfa], nfa, next)
        }
        PropState::NeverPending { cond } => {
            if compiled.bools[cond].eval(env) {
                PropState::Done(false)
            } else {
                PropState::NeverPending { cond }
            }
        }
        PropState::And(children) => PropState::And(
            children
                .into_iter()
                .map(|c| advance(compiled, c, env))
                .collect(),
        )
        .normalise(),
        PropState::Or(children) => PropState::Or(
            children
                .into_iter()
                .map(|c| advance(compiled, c, env))
                .collect(),
        )
        .normalise(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Seq;

    type P = Prop<u32>;
    type S = Seq<u32>;

    fn atom(v: u32) -> SvaBool<u32> {
        SvaBool::atom(v)
    }

    /// Drives a monitor over a trace of true-atom sets; returns whether it
    /// failed by the end.
    fn fails(prop: &P, trace: &[&[u32]]) -> bool {
        let mut m = Monitor::new(prop);
        for t in trace {
            m.step(&|a| t.contains(a));
            if m.failed() {
                return true;
            }
        }
        m.failed()
    }

    /// §3.4's example: `assert property (##2 st_x_wb)` — WITHOUT a first
    /// guard — fails even on a trace where the store IS in WB two cycles
    /// after the start, because the attempt beginning at cycle 1 checks
    /// cycle 3.
    #[test]
    fn unguarded_assertion_fails_due_to_later_attempts() {
        let prop = P::seq(S::delay_exact(2, S::boolean(atom(1))));
        // st_x_wb at cycle 2 only.
        assert!(fails(&prop, &[&[], &[], &[1], &[], &[]]));
    }

    /// §4.4: guarding with `first |->` filters all attempts but the first.
    #[test]
    fn first_guard_filters_match_attempts() {
        let first = atom(0);
        let prop = P::implies(first, P::seq(S::delay_exact(2, S::boolean(atom(1)))));
        // first holds only at cycle 0; store in WB at cycle 2.
        assert!(!fails(&prop, &[&[0], &[], &[1], &[], &[]]));
        // Without the store at cycle 2 the first attempt fails.
        assert!(fails(&prop, &[&[0], &[], &[], &[1]]));
    }

    /// Weak semantics: a pending unbounded sequence never fails, no matter
    /// how long the quiet trace runs (§3.1: properties must match partial
    /// executions).
    #[test]
    fn pending_unbounded_sequence_never_fails() {
        let first = atom(0);
        let prop = P::implies(first, P::seq(S::delay(0, None, S::boolean(atom(1)))));
        let quiet: Vec<&[u32]> = std::iter::once(&[0u32][..])
            .chain(std::iter::repeat_n(&[][..], 50))
            .collect();
        assert!(!fails(&prop, &quiet));
    }

    #[test]
    fn and_fails_if_any_branch_fails() {
        let first = atom(0);
        let a = P::seq(S::boolean(atom(1)));
        let b = P::seq(S::boolean(atom(2)));
        let prop = P::implies(first, P::And(vec![a, b]));
        assert!(!fails(&prop, &[&[0, 1, 2]]));
        assert!(fails(&prop, &[&[0, 1]]), "branch b fails at cycle 0");
    }

    #[test]
    fn or_fails_only_when_all_branches_fail() {
        let first = atom(0);
        let a = P::seq(S::boolean(atom(1)));
        let b = P::seq(S::then(S::boolean(atom(2)), S::boolean(atom(3))));
        let prop = P::implies(first, P::Or(vec![a, b]));
        // Branch a fails at cycle 0, branch b still pending, then matches.
        assert!(!fails(&prop, &[&[0, 2], &[3]]));
        // Both fail.
        assert!(fails(&prop, &[&[0, 2], &[2]]));
    }

    #[test]
    fn or_branches_at_different_speeds() {
        let first = atom(0);
        let fast = P::seq(S::boolean(atom(1)));
        let slow = P::seq(S::delay(0, None, S::boolean(atom(2))));
        let prop = P::implies(first, P::Or(vec![fast, slow]));
        // Fast branch fails immediately; slow branch keeps the attempt
        // alive forever (weak semantics) — no failure.
        let quiet: Vec<&[u32]> = std::iter::once(&[0u32][..])
            .chain(std::iter::repeat_n(&[][..], 20))
            .collect();
        assert!(!fails(&prop, &quiet));
    }

    #[test]
    fn never_fails_exactly_when_condition_occurs() {
        let first = atom(0);
        let prop = P::implies(first, P::Never(atom(9)));
        assert!(!fails(&prop, &[&[0], &[], &[], &[]]));
        assert!(fails(&prop, &[&[0], &[], &[9]]));
        // The condition occurring when the antecedent never held is fine.
        assert!(!fails(&prop, &[&[], &[9]]));
    }

    #[test]
    fn attempts_deduplicate_for_bounded_state() {
        // An unguarded unbounded-delay property spawns an attempt per
        // cycle, but they all collapse to the same NFA live set.
        let prop = P::seq(S::delay(0, None, S::boolean(atom(1))));
        let mut m = Monitor::new(&prop);
        for _ in 0..100 {
            m.step(&|_| false);
        }
        assert!(!m.failed());
        assert_eq!(m.state().num_pending(), 1, "identical attempts deduplicate");
    }

    #[test]
    fn monitor_state_roundtrips() {
        let prop = P::seq(S::delay(0, None, S::boolean(atom(1))));
        let mut m = Monitor::new(&prop);
        m.step(&|_| false);
        let snapshot = m.state().clone();
        m.step(&|_| false);
        assert_eq!(m.state(), &snapshot, "quiet cycles reach a fixpoint");
        let mut m2 = Monitor::new(&prop);
        m2.set_state(snapshot.clone());
        assert_eq!(m2.state(), &snapshot);
    }

    #[test]
    fn metrics_count_attempts_and_first_filter_hits() {
        let first = atom(0);
        let prop = P::implies(first, P::seq(S::delay_exact(2, S::boolean(atom(1)))));
        let mut m = Monitor::new(&prop);
        assert!(m.metrics().nfa_states > 0);
        assert_eq!(m.metrics().nfas, 1);
        m.step(&|v| *v == 0); // antecedent holds: real attempt
        m.step(&|_| false); // antecedent false: filtered
        m.step(&|v| *v == 1); // antecedent false: filtered
        let metrics = m.metrics();
        assert_eq!(metrics.attempts, 3);
        assert_eq!(metrics.first_filter_hits, 2);

        // Recording the same steps as memoised reproduces the metrics.
        let mut replayed = Monitor::new(&prop);
        for filtered in [false, true, true] {
            replayed.record_memoised_step(filtered);
        }
        assert_eq!(replayed.metrics(), metrics);
    }

    #[test]
    fn failure_is_absorbing() {
        let prop = P::seq(S::boolean(atom(1)));
        let mut m = Monitor::new(&prop);
        m.step(&|_| false);
        assert!(m.failed());
        m.step(&|_| true);
        assert!(m.failed());
        assert_eq!(m.state().num_pending(), 0);
    }

    /// The full §4.3 edge-encoding property with a `first` guard and two
    /// outcome branches (the shape RTLCheck generates for Read_Values on
    /// mp): branch 1 = load-of-x-returns-0 before the store, branch 2 =
    /// store before load-of-x-returns-1.
    #[test]
    fn outcome_aware_edge_property_end_to_end() {
        // Atoms: 0 = first, 1 = Ld x @WB (any data), 2 = St x @WB,
        //        3 = Ld x @WB with data 0, 4 = Ld x @WB with data 1.
        let quiet = || SvaBool::not(SvaBool::or(atom(1), atom(2)));
        let edge = |src: SvaBool<u32>, dst: SvaBool<u32>| {
            P::seq(S::chain(vec![
                S::repeat(S::boolean(quiet()), 0, None),
                S::boolean(src),
                S::repeat(S::boolean(quiet()), 0, None),
                S::boolean(dst),
            ]))
        };
        let branch1 = edge(atom(3), atom(2)); // Ld=0 then St
        let branch2 = edge(atom(2), atom(4)); // St then Ld=1
        let prop = P::implies(atom(0), P::Or(vec![branch1, branch2]));

        // Correct trace: store at 2, load returns 1 at 4.
        assert!(!fails(&prop, &[&[0], &[], &[2], &[], &[1, 4]]));
        // Correct trace: load returns 0 at 1, store at 3.
        assert!(!fails(&prop, &[&[0], &[1, 3], &[], &[2]]));
        // Buggy trace (Figure 12): store at 2, load returns 0 at 4.
        assert!(fails(&prop, &[&[0], &[], &[2], &[], &[1, 3]]));
        // Partial trace: store happened, load still outstanding — pending,
        // not failed (§3.2's requirement).
        assert!(!fails(&prop, &[&[0], &[], &[2], &[], &[]]));
    }
}
