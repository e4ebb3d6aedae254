//! Counterexample replay validation.
//!
//! A counterexample from the explicit-state search can be independently
//! re-checked by replaying its trace through fresh SVA monitors — the same
//! confidence step an engineer performs by loading a JasperGold
//! counterexample into a simulator. This guards against verifier bugs: a
//! reported violation must be a real execution (admissible under every
//! assumption up to its final cycle) on which the assertion monitor fails
//! exactly at the end.

use rtlcheck_rtl::sim::Simulator;
use rtlcheck_rtl::waveform::Trace;
use rtlcheck_sva::{Monitor, Prop};

use crate::atom::RtlAtom;
use crate::problem::Problem;

/// The result of replaying a claimed counterexample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// The trace is admissible and violates the assertion at its final
    /// cycle: a genuine counterexample.
    Confirmed,
    /// An assumption failed at the given cycle: the trace is not an
    /// admissible execution.
    AssumptionFailed {
        /// Cycle at which the named assumption's monitor failed.
        cycle: usize,
        /// Index into `problem.assumptions`.
        assumption: usize,
    },
    /// The assertion monitor failed before the final cycle (the trace has
    /// a redundant suffix) — still a violation, but not minimal.
    EarlyViolation {
        /// Cycle of the first violation.
        cycle: usize,
    },
    /// The assertion never failed on this trace.
    NoViolation,
}

impl ReplayVerdict {
    /// Whether the trace violates the assertion at all (confirmed or
    /// early).
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            ReplayVerdict::Confirmed | ReplayVerdict::EarlyViolation { .. }
        )
    }
}

/// Replays `trace` against the problem's assumptions and one assertion.
///
/// The trace's first state must equal the problem's initial state (pins
/// applied); this is not checked — a mismatched trace simply replays as the
/// execution it describes.
pub fn replay(problem: &Problem<'_>, assertion: &Prop<RtlAtom>, trace: &Trace) -> ReplayVerdict {
    let sim = Simulator::new(problem.design);
    let mut assumption_monitors: Vec<Monitor<RtlAtom>> = problem
        .assumptions
        .iter()
        .map(|d| Monitor::new(&d.prop))
        .collect();
    let mut assertion_monitor = Monitor::new(assertion);
    let mut frame = sim.frame();
    for cycle in 0..trace.len() {
        frame.settle(&trace.states[cycle], &trace.inputs[cycle]);
        let env = |a: &RtlAtom| frame.peek(a.sig) == a.value;
        for (i, m) in assumption_monitors.iter_mut().enumerate() {
            m.step(&env);
            if m.failed() {
                return ReplayVerdict::AssumptionFailed {
                    cycle,
                    assumption: i,
                };
            }
        }
        assertion_monitor.step(&env);
        if assertion_monitor.failed() {
            return if cycle + 1 == trace.len() {
                ReplayVerdict::Confirmed
            } else {
                ReplayVerdict::EarlyViolation { cycle }
            };
        }
    }
    ReplayVerdict::NoViolation
}

/// Replays the trace while also checking that consecutive states are
/// related by the design's transition function under the recorded inputs —
/// i.e. the trace is a real execution, not just a state sequence.
///
/// Returns the first cycle whose successor state mismatches, if any.
pub fn check_transitions(problem: &Problem<'_>, trace: &Trace) -> Option<usize> {
    let sim = Simulator::new(problem.design);
    for cycle in 0..trace.len().saturating_sub(1) {
        let stepped = sim.step(&trace.states[cycle], &trace.inputs[cycle]);
        if stepped != trace.states[cycle + 1] {
            return Some(cycle);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PropertyVerdict;
    use crate::explore::verify_property;
    use crate::problem::Directive;
    use crate::VerifyConfig;
    use rtlcheck_rtl::DesignBuilder;
    use rtlcheck_sva::SvaBool;

    fn counter() -> rtlcheck_rtl::Design {
        let mut b = DesignBuilder::new("c");
        let en = b.input("en", 1);
        let first = b.reg("first", 1, Some(1));
        let z = b.lit(0, 1);
        b.set_next(first, z);
        let count = b.reg("count", 3, Some(0));
        let one = b.lit(1, 3);
        let ce = b.sig(count);
        let sum = b.add(ce, one);
        let ene = b.sig(en);
        let hold = b.sig(count);
        let nxt = b.mux(ene, sum, hold);
        b.set_next(count, nxt);
        b.build().unwrap()
    }

    #[test]
    fn counterexamples_replay_as_confirmed() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let first = d.signal_by_name("first").unwrap();
        let problem = Problem::new(&d);
        let prop = Prop::implies(
            SvaBool::atom(RtlAtom::is_true(first)),
            Prop::Never(SvaBool::atom(RtlAtom::eq(count, 3))),
        );
        let PropertyVerdict::Falsified { trace, .. } =
            verify_property(&problem, &prop, &VerifyConfig::quick())
        else {
            panic!("count reaches 3");
        };
        assert_eq!(replay(&problem, &prop, &trace), ReplayVerdict::Confirmed);
        assert_eq!(check_transitions(&problem, &trace), None);
    }

    #[test]
    fn assumption_breaking_traces_are_rejected() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let first = d.signal_by_name("first").unwrap();
        let en = d.signal_by_name("en").unwrap();
        // First get a genuine counterexample without assumptions…
        let problem = Problem::new(&d);
        let prop = Prop::implies(
            SvaBool::atom(RtlAtom::is_true(first)),
            Prop::Never(SvaBool::atom(RtlAtom::eq(count, 2))),
        );
        let PropertyVerdict::Falsified { trace, .. } =
            verify_property(&problem, &prop, &VerifyConfig::quick())
        else {
            panic!("count reaches 2");
        };
        // …then replay it under an assumption the trace violates (enable
        // always low): it is not an admissible execution of that problem.
        let mut constrained = Problem::new(&d);
        constrained.assumptions.push(Directive::assume(
            "en_low",
            Prop::Never(SvaBool::atom(RtlAtom::is_true(en))),
        ));
        assert!(matches!(
            replay(&constrained, &prop, &trace),
            ReplayVerdict::AssumptionFailed { assumption: 0, .. }
        ));
    }

    #[test]
    fn satisfied_traces_report_no_violation() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let first = d.signal_by_name("first").unwrap();
        let problem = Problem::new(&d);
        // A short quiet trace violates nothing.
        let sim = Simulator::new(&d);
        let mut trace = Trace::new();
        let mut s = sim.initial_state().unwrap();
        for _ in 0..4 {
            trace.push(s.clone(), vec![0]);
            s = sim.step(&s, &[0]);
        }
        let prop = Prop::implies(
            SvaBool::atom(RtlAtom::is_true(first)),
            Prop::Never(SvaBool::atom(RtlAtom::eq(count, 7))),
        );
        assert_eq!(replay(&problem, &prop, &trace), ReplayVerdict::NoViolation);
    }

    #[test]
    fn corrupted_traces_fail_transition_check() {
        let d = counter();
        let problem = Problem::new(&d);
        let sim = Simulator::new(&d);
        let mut trace = Trace::new();
        let s0 = sim.initial_state().unwrap();
        let s1 = sim.step(&s0, &[1]);
        trace.push(s0.clone(), vec![1]);
        trace.push(s1, vec![1]);
        trace.push(s0, vec![1]); // not a successor of s1 under en=1
        assert_eq!(check_transitions(&problem, &trace), Some(1));
    }

    #[test]
    fn early_violations_are_distinguished() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let first = d.signal_by_name("first").unwrap();
        let problem = Problem::new(&d);
        let prop = Prop::implies(
            SvaBool::atom(RtlAtom::is_true(first)),
            Prop::Never(SvaBool::atom(RtlAtom::eq(count, 1))),
        );
        // Build a trace that keeps running after the violation at count==1.
        let sim = Simulator::new(&d);
        let mut trace = Trace::new();
        let mut s = sim.initial_state().unwrap();
        for _ in 0..5 {
            trace.push(s.clone(), vec![1]);
            s = sim.step(&s, &[1]);
        }
        assert!(matches!(
            replay(&problem, &prop, &trace),
            ReplayVerdict::EarlyViolation { cycle: 1 }
        ));
    }
}
