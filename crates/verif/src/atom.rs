//! The SVA atom type used over RTL designs.

use std::fmt;

use rtlcheck_rtl::sim::{Simulator, State};
use rtlcheck_rtl::{Design, SignalId};
use rtlcheck_sva::SvaBool;

/// An atomic boolean over a design: a signal compared for equality with a
/// constant. All of RTLCheck's generated conditions reduce to conjunctions
/// and disjunctions of these (e.g. `core1_PC_WB == 28`, `first == 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RtlAtom {
    /// Signal compared.
    pub sig: SignalId,
    /// Value it must equal.
    pub value: u64,
}

impl RtlAtom {
    /// `sig == value`.
    pub fn eq(sig: SignalId, value: u64) -> Self {
        RtlAtom { sig, value }
    }

    /// A 1-bit signal being true (`sig == 1`).
    pub fn is_true(sig: SignalId) -> Self {
        RtlAtom { sig, value: 1 }
    }

    /// Renders the atom as Verilog against a design's signal names.
    pub fn render(&self, design: &Design) -> String {
        let s = design.signal(self.sig);
        format!("{} == {}'d{}", s.name, s.width, self.value)
    }

    /// Parses the textual form produced by [`RtlAtom::render`]
    /// (`name == <width>'d<value>`), resolving the name against `design`.
    ///
    /// Returns `None` on any mismatch: unknown signal, malformed syntax, or
    /// a width disagreeing with the design.
    pub fn parse(design: &Design, text: &str) -> Option<RtlAtom> {
        let (name, rest) = text.split_once(" == ")?;
        let sig = design.signal_by_name(name.trim())?;
        let (width, value) = rest.trim().split_once("'d")?;
        let width: u8 = width.parse().ok()?;
        if width != design.signal(sig).width {
            return None;
        }
        let value: u64 = value.parse().ok()?;
        Some(RtlAtom { sig, value })
    }
}

impl fmt::Display for RtlAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} == {}", self.sig, self.value)
    }
}

/// Convenience: `SvaBool` over [`RtlAtom`]s.
pub type RtlBool = SvaBool<RtlAtom>;

/// Evaluates an [`RtlBool`] in a design state under the given inputs.
pub fn eval_bool(sim: &Simulator<'_>, state: &State, inputs: &[u64], b: &RtlBool) -> bool {
    let mut frame = sim.frame();
    frame.settle(state, inputs);
    b.eval(&|a: &RtlAtom| frame.peek(a.sig) == a.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcheck_rtl::DesignBuilder;

    #[test]
    fn atoms_evaluate_against_signals() {
        let mut b = DesignBuilder::new("d");
        let r = b.reg("r", 4, Some(7));
        let re = b.sig(r);
        b.set_next(r, re);
        let d = b.build().unwrap();
        let sim = Simulator::new(&d);
        let s = sim.initial_state().unwrap();
        let cond = SvaBool::and(
            SvaBool::atom(RtlAtom::eq(r, 7)),
            SvaBool::not(SvaBool::atom(RtlAtom::eq(r, 3))),
        );
        assert!(eval_bool(&sim, &s, &[], &cond));
    }

    #[test]
    fn atoms_render_with_names_and_widths() {
        let mut b = DesignBuilder::new("d");
        let r = b.reg("core1_PC_WB", 32, Some(0));
        let re = b.sig(r);
        b.set_next(r, re);
        let d = b.build().unwrap();
        assert_eq!(RtlAtom::eq(r, 28).render(&d), "core1_PC_WB == 32'd28");
    }

    #[test]
    fn atoms_parse_their_own_rendering() {
        let mut b = DesignBuilder::new("d");
        let r = b.reg("core1_PC_WB", 32, Some(0));
        let re = b.sig(r);
        b.set_next(r, re);
        let d = b.build().unwrap();
        let a = RtlAtom::eq(r, 28);
        assert_eq!(RtlAtom::parse(&d, &a.render(&d)), Some(a));
        assert_eq!(RtlAtom::parse(&d, "nope == 32'd28"), None);
        assert_eq!(
            RtlAtom::parse(&d, "core1_PC_WB == 8'd28"),
            None,
            "width mismatch"
        );
        assert_eq!(RtlAtom::parse(&d, "core1_PC_WB = 28"), None);
    }
}
