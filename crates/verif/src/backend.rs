//! The graph accessors exported as a trait.
//!
//! Walks, cover searches and the Figure-7 flow all run on the concrete
//! [`StateGraph`]. [`Backend`] keeps the two accessors external callers
//! reach through a trait — a node's design state and an edge's input
//! valuation — with [`StateGraph`] as its only implementor.

use rtlcheck_rtl::sim::State;

use crate::graph::StateGraph;

/// Read access to a built graph's nodes and edge labels.
pub trait Backend {
    /// The design state of a node (cheap: states are refcounted).
    fn node_state(&self, node: u32) -> State;

    /// The input valuation labelling edge `class` of `node`'s row.
    fn class_input(&self, node: u32, class: usize) -> Vec<u64>;
}

impl Backend for StateGraph<'_, '_> {
    fn node_state(&self, node: u32) -> State {
        StateGraph::node_state(self, node)
    }

    fn class_input(&self, _node: u32, class: usize) -> Vec<u64> {
        self.input(class).to_vec()
    }
}
