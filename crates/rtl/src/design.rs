//! The finalized synchronous design.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::expr::{Expr, ExprId};
use crate::sim::Program;

/// Index of a signal in a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) usize);

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// What drives a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
    /// A primary input, set by the environment each cycle.
    Input {
        /// Dense index among the design's inputs.
        index: usize,
    },
    /// A state register, updated at each rising clock edge.
    Reg {
        /// Dense index among the design's registers.
        index: usize,
        /// Reset value; `None` means the initial value is unconstrained
        /// (free), to be pinned by verification assumptions.
        init: Option<u64>,
        /// Next-state expression.
        next: ExprId,
    },
    /// A combinational wire.
    Wire {
        /// Driving expression.
        expr: ExprId,
    },
}

/// A named signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signal {
    /// Hierarchical name, e.g. `core0_PC_WB`.
    pub name: String,
    /// Width in bits (1..=64).
    pub width: u8,
    /// Driver.
    pub kind: SignalKind,
}

/// An error detected while finalizing a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// Two signals share a name.
    DuplicateName(String),
    /// A register was declared but never given a next-state expression.
    UnassignedReg(String),
    /// An expression's operand widths are inconsistent.
    WidthMismatch {
        /// Offending expression.
        expr: String,
        /// Explanation.
        detail: String,
    },
    /// A constant does not fit its declared width.
    ConstTooWide(u64, u8),
    /// Combinational wires form a cycle.
    CombinationalLoop(String),
    /// A width outside 1..=64 was requested.
    BadWidth(u8),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::DuplicateName(n) => write!(f, "duplicate signal name `{n}`"),
            DesignError::UnassignedReg(n) => {
                write!(f, "register `{n}` has no next-state expression")
            }
            DesignError::WidthMismatch { expr, detail } => {
                write!(f, "width mismatch in {expr}: {detail}")
            }
            DesignError::ConstTooWide(v, w) => {
                write!(f, "constant {v} does not fit in {w} bits")
            }
            DesignError::CombinationalLoop(n) => {
                write!(f, "combinational loop through wire `{n}`")
            }
            DesignError::BadWidth(w) => write!(f, "width {w} outside 1..=64"),
        }
    }
}

impl Error for DesignError {}

/// A finalized synchronous design: signals, an expression arena, a
/// topological evaluation order for the combinational wires, and the
/// levelised slot program the simulator runs.
///
/// Built via [`crate::DesignBuilder`]; immutable afterwards.
#[derive(Debug, Clone)]
pub struct Design {
    pub(crate) name: String,
    pub(crate) signals: Vec<Signal>,
    pub(crate) exprs: Vec<Expr>,
    pub(crate) expr_widths: Vec<u8>,
    /// Wire signals in dependency order (inputs of each wire precede it).
    pub(crate) wire_order: Vec<SignalId>,
    pub(crate) num_inputs: usize,
    pub(crate) num_regs: usize,
    pub(crate) by_name: HashMap<String, SignalId>,
    /// The levelised slot program [`crate::sim::Simulator`] runs.
    pub(crate) program: Program,
}

impl Design {
    /// The design's module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of registers (the length of a [`crate::sim::State`]).
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// All signals.
    pub fn signals(&self) -> impl Iterator<Item = (SignalId, &Signal)> {
        self.signals
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId(i), s))
    }

    /// Looks up a signal.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.0]
    }

    /// Looks up a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// Looks up an expression node.
    pub fn expr(&self, id: ExprId) -> Expr {
        self.exprs[id.0]
    }

    /// The width of an expression.
    pub fn expr_width(&self, id: ExprId) -> u8 {
        self.expr_widths[id.0]
    }

    /// The combinational wires in dependency order (each wire's inputs
    /// precede it).
    pub fn wire_order(&self) -> &[SignalId] {
        &self.wire_order
    }

    /// Registers with unconstrained (free) initial values — these must be
    /// pinned by first-cycle verification assumptions.
    pub fn free_init_regs(&self) -> Vec<SignalId> {
        self.signals()
            .filter_map(|(id, s)| match s.kind {
                SignalKind::Reg { init: None, .. } => Some(id),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::DesignBuilder;

    #[test]
    fn lookup_by_name_and_counts() {
        let mut b = DesignBuilder::new("d");
        let i = b.input("in", 4);
        let r = b.reg("r", 4, Some(3));
        let e = b.sig(i);
        b.set_next(r, e);
        let w = b.sig(r);
        b.wire("w", w);
        let d = b.build().unwrap();
        assert_eq!(d.name(), "d");
        assert_eq!(d.num_inputs(), 1);
        assert_eq!(d.num_regs(), 1);
        assert_eq!(d.signal_by_name("w").map(|s| d.signal(s).width), Some(4));
        assert!(d.signal_by_name("nope").is_none());
        assert!(d.free_init_regs().is_empty());
    }

    #[test]
    fn free_init_regs_reported() {
        let mut b = DesignBuilder::new("d");
        let r = b.reg("mem0", 8, None);
        let e = b.sig(r);
        b.set_next(r, e);
        let d = b.build().unwrap();
        assert_eq!(d.free_init_regs().len(), 1);
    }
}
