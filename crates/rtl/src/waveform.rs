//! Text waveform rendering for execution traces.
//!
//! Counterexamples from the property verifier are sequences of design
//! states; this module renders selected signals over time as an ASCII
//! table, in the spirit of the paper's Figure 6 and Figure 12 timing
//! diagrams.

use std::fmt::Write as _;

use crate::design::{Design, SignalId};
use crate::sim::{Simulator, State};

/// A recorded execution: one state per cycle plus the inputs applied in
/// that cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Design states, one per cycle, starting at the initial state.
    pub states: Vec<State>,
    /// Primary-input vectors; `inputs[i]` was applied during cycle `i`.
    /// Must be the same length as `states`.
    pub inputs: Vec<Vec<u64>>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of cycles recorded.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Appends one cycle.
    pub fn push(&mut self, state: State, inputs: Vec<u64>) {
        self.states.push(state);
        self.inputs.push(inputs);
    }

    /// The value of `sig` at `cycle`.
    pub fn value_at(&self, design: &Design, sig: SignalId, cycle: usize) -> u64 {
        Simulator::new(design).peek(&self.states[cycle], &self.inputs[cycle], sig)
    }

    /// The values of `signals` at every cycle, `values[cycle][k]` for
    /// `signals[k]`, settling the design once per cycle.
    fn values(&self, design: &Design, signals: &[SignalId]) -> Vec<Vec<u64>> {
        let mut frame = Simulator::new(design).frame();
        self.states
            .iter()
            .zip(&self.inputs)
            .map(|(state, inputs)| {
                frame.settle(state, inputs);
                signals.iter().map(|&s| frame.peek(s)).collect()
            })
            .collect()
    }

    /// Renders the named signals as an ASCII waveform table, one row per
    /// signal and one column per cycle.
    ///
    /// Signals unknown to the design are skipped.
    pub fn render(&self, design: &Design, signals: &[&str]) -> String {
        let known: Vec<(&str, SignalId)> = signals
            .iter()
            .filter_map(|&name| Some((name, design.signal_by_name(name)?)))
            .collect();
        let ids: Vec<SignalId> = known.iter().map(|&(_, id)| id).collect();
        let values = self.values(design, &ids);
        let name_w = signals.iter().map(|s| s.len()).max().unwrap_or(0).max(5);
        let mut out = String::new();
        let _ = write!(out, "{:name_w$} |", "cycle");
        for c in 0..self.len() {
            let _ = write!(out, " {c:>4}");
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "{}-+{}",
            "-".repeat(name_w),
            "-".repeat(5 * self.len())
        );
        for (k, (name, _)) in known.iter().enumerate() {
            let _ = write!(out, "{name:name_w$} |");
            for cycle in &values {
                let _ = write!(out, " {:>4}", cycle[k]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DesignBuilder;

    fn record_counter(cycles: usize) -> (crate::Design, Trace) {
        let mut b = DesignBuilder::new("c");
        let r = b.reg("count", 8, Some(0));
        let one = b.lit(1, 8);
        let re = b.sig(r);
        let sum = b.add(re, one);
        b.set_next(r, sum);
        let d = b.build().unwrap();
        let sim = Simulator::new(&d);
        let mut t = Trace::new();
        let mut s = sim.initial_state().unwrap();
        for _ in 0..cycles {
            t.push(s.clone(), vec![]);
            s = sim.step(&s, &[]);
        }
        (d, t)
    }

    #[test]
    fn records_and_reads_values() {
        let (d, t) = record_counter(4);
        let count = d.signal_by_name("count").unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.value_at(&d, count, 0), 0);
        assert_eq!(t.value_at(&d, count, 3), 3);
    }

    #[test]
    fn renders_table_with_headers() {
        let (d, t) = record_counter(3);
        let table = t.render(&d, &["count", "missing_signal"]);
        assert!(table.contains("cycle"));
        assert!(table.contains("count"));
        assert!(
            !table.contains("missing_signal"),
            "unknown signals are skipped"
        );
        assert!(table.contains("   2"));
    }
}
