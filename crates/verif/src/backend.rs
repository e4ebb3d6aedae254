//! The verifier backend abstraction.
//!
//! PR 2 split exploration into a shared per-problem graph plus per-property
//! NFA walks; this module turns the graph side of that split into a trait
//! so the walk code is backend-agnostic. Two implementations exist:
//!
//! * [`StateGraph`] — the explicit-state reference: one edge per
//!   primary-input valuation, built by per-valuation simulation.
//! * [`crate::symbolic::SymbolicGraph`] — the BDD-backed reachable-set
//!   backend: edges are *classes* of input valuations with identical
//!   observable behaviour, built by image computation over characteristic
//!   functions of the design's input bits.
//!
//! The contract is expressed in terms of edge classes so both fit one
//! shape: an explicit edge is simply a class of multiplicity 1. A walk
//! iterates a node's classes in order of each class's *lowest-index*
//! member; because a new product state is always first discovered at the
//! lowest input index that reaches it, walks over either backend discover
//! states in the same order and produce identical verdicts, traces, and
//! [`crate::ExploreStats`] — the differential tests and the CI
//! `backend-differential` job hold them to byte equality.

use rtlcheck_obs::Collector;
use rtlcheck_rtl::sim::State;
use rtlcheck_rtl::{Design, SignalKind};
use rtlcheck_sva::{Prop, SvaBool};

use crate::atom::{RtlAtom, RtlBool};
use crate::graph::{input_space, GraphStats, StateGraph, MAX_INPUT_VALUATIONS};
use crate::problem::Problem;

/// One out-edge class of a backend node: a maximal set of same-cycle input
/// valuations with identical observable behaviour (admissibility, atom
/// valuations, destination).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeClass {
    /// Destination node, or [`crate::graph::PRUNED`] when the class is
    /// discarded by the assumptions.
    pub dest: u32,
    /// Number of input valuations in the class (always 1 for the explicit
    /// backend). Walks weight transition statistics by this.
    pub multiplicity: u128,
}

/// The graph contract property walks and cover searches run against; see
/// the module docs for the equivalence argument between implementations.
pub trait Backend {
    /// The problem the graph was built from.
    fn problem(&self) -> &Problem<'_>;

    /// The sorted atom table edge bitsets index into.
    fn atoms(&self) -> &[RtlAtom];

    /// Maps a property's atoms onto atom-table indices.
    ///
    /// # Panics
    ///
    /// Panics if the property mentions an atom absent from the table.
    fn map_prop(&self, prop: &Prop<RtlAtom>) -> Prop<usize>;

    /// Maps a boolean's atoms onto atom-table indices; same contract as
    /// [`Backend::map_prop`].
    fn map_bool(&self, b: &RtlBool) -> SvaBool<usize>;

    /// Number of edge classes leaving `node`, in lowest-member order.
    fn num_edge_classes(&self, node: u32) -> usize;

    /// Fetches edge class `class` of `node` and copies its atom-valuation
    /// bitset into `bits_out` (zeroed for pruned classes). Builds the
    /// node's row on first touch.
    fn edge_class(&self, node: u32, class: usize, bits_out: &mut Vec<u64>) -> EdgeClass;

    /// The lowest-index input valuation of edge class `class` — the edge
    /// label used when rebuilding counterexample/cover traces.
    fn class_input(&self, node: u32, class: usize) -> Vec<u64>;

    /// `(admissible, pruned)` input-valuation counts strictly before the
    /// lowest member of class `class` in `node`'s row. Walks that stop
    /// mid-row use this to report the exact per-valuation statistics the
    /// explicit engine would have counted.
    fn class_prefix(&self, node: u32, class: usize) -> (u128, u128);

    /// The design state of a node (cheap: states are refcounted).
    fn node_state(&self, node: u32) -> State;

    /// Current construction/reuse statistics.
    fn stats(&self) -> GraphStats;

    /// Reports the graph's construction counters and shared assumption
    /// monitors to a collector. Call once per graph, after its walks.
    fn report_to(&self, collector: &dyn Collector);
}

impl Backend for StateGraph<'_, '_> {
    fn problem(&self) -> &Problem<'_> {
        StateGraph::problem(self)
    }

    fn atoms(&self) -> &[RtlAtom] {
        StateGraph::atoms(self)
    }

    fn map_prop(&self, prop: &Prop<RtlAtom>) -> Prop<usize> {
        StateGraph::map_prop(self, prop)
    }

    fn map_bool(&self, b: &RtlBool) -> SvaBool<usize> {
        StateGraph::map_bool(self, b)
    }

    fn num_edge_classes(&self, _node: u32) -> usize {
        self.num_inputs()
    }

    fn edge_class(&self, node: u32, class: usize, bits_out: &mut Vec<u64>) -> EdgeClass {
        EdgeClass {
            dest: self.edge(node, class, bits_out),
            multiplicity: 1,
        }
    }

    fn class_input(&self, _node: u32, class: usize) -> Vec<u64> {
        self.input(class).to_vec()
    }

    fn class_prefix(&self, node: u32, class: usize) -> (u128, u128) {
        let (admissible, pruned) = self.row_prefix(node, class);
        (u128::from(admissible), u128::from(pruned))
    }

    fn node_state(&self, node: u32) -> State {
        StateGraph::node_state(self, node)
    }

    fn stats(&self) -> GraphStats {
        StateGraph::stats(self)
    }

    fn report_to(&self, collector: &dyn Collector) {
        StateGraph::report_to(self, collector)
    }
}

/// Input-space size (valuations per cycle) past which `auto` prefers the
/// symbolic backend when the state space is small enough: beyond this,
/// per-valuation simulation dominates row construction and class
/// compression pays for the BDD overhead.
const AUTO_INPUT_VALUATIONS: u128 = 64;

/// Total register bits past which `auto` stays explicit in the heuristic
/// band: the symbolic row compile walks every next-state expression per
/// node, which grows with state width while explicit simulation amortises
/// it over few valuations.
const AUTO_REG_BITS: u32 = 128;

/// The `--backend` selection: which graph implementation serves a test's
/// property walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Always the explicit [`StateGraph`] (panics on too-wide inputs).
    #[default]
    Explicit,
    /// Always the symbolic [`crate::symbolic::SymbolicGraph`].
    Symbolic,
    /// Per-design heuristic; see [`BackendChoice::resolve`].
    Auto,
}

/// The backend actually used for one design after resolving
/// [`BackendChoice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The explicit-state [`StateGraph`].
    Explicit,
    /// The BDD-backed [`crate::symbolic::SymbolicGraph`].
    Symbolic,
}

impl BackendKind {
    /// Stable lower-case label (CLI values, counters, span attributes).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Explicit => "explicit",
            BackendKind::Symbolic => "symbolic",
        }
    }
}

impl BackendChoice {
    /// Every choice, in the order [`BackendChoice::parse`]'s error lists them.
    pub const ALL: [BackendChoice; 3] = [
        BackendChoice::Explicit,
        BackendChoice::Symbolic,
        BackendChoice::Auto,
    ];

    /// Parses a `--backend` value. The error names the value and every
    /// accepted label, ready for the CLI's and the server's error output.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(&c) = Self::ALL.iter().find(|c| c.label() == s) {
            return Ok(c);
        }
        let labels: Vec<&str> = Self::ALL.iter().map(|c| c.label()).collect();
        let (last, rest) = labels.split_last().expect("ALL is not empty");
        Err(format!(
            "unknown backend `{s}` (expected {}, or {last})",
            rest.join(", ")
        ))
    }

    /// Stable lower-case label (the CLI value that selects this choice).
    pub fn label(self) -> &'static str {
        match self {
            BackendChoice::Explicit => "explicit",
            BackendChoice::Symbolic => "symbolic",
            BackendChoice::Auto => "auto",
        }
    }

    /// Resolves the choice for one design. `Auto` routes to the symbolic
    /// backend when the explicit backend *cannot* run (the input space
    /// exceeds its enumeration limit — or overflows `u128` entirely, where
    /// explicit enumeration would panic mid-run), and when the input-width
    /// / register-count heuristic says class compression will win: a wide
    /// input space (> `AUTO_INPUT_VALUATIONS` valuations per cycle) over
    /// a small state space (≤ `AUTO_REG_BITS` register bits).
    pub fn resolve(self, design: &Design) -> BackendKind {
        match self {
            BackendChoice::Explicit => BackendKind::Explicit,
            BackendChoice::Symbolic => BackendKind::Symbolic,
            BackendChoice::Auto => match input_space(design) {
                None => BackendKind::Symbolic,
                Some(space) if space > MAX_INPUT_VALUATIONS as u128 => BackendKind::Symbolic,
                Some(space)
                    if space > AUTO_INPUT_VALUATIONS && reg_bits(design) <= AUTO_REG_BITS =>
                {
                    BackendKind::Symbolic
                }
                Some(_) => BackendKind::Explicit,
            },
        }
    }
}

/// Total register bits of a design — the `auto` state-space measure.
fn reg_bits(design: &Design) -> u32 {
    design
        .signals()
        .filter(|(_, s)| matches!(s.kind, SignalKind::Reg { .. }))
        .map(|(_, s)| u32::from(s.width))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PRUNED;
    use crate::problem::Directive;
    use rtlcheck_rtl::DesignBuilder;

    fn design_with_input(width: u8) -> Design {
        let mut b = DesignBuilder::new("d");
        let i = b.input("in", width);
        let r = b.reg("r", width, Some(0));
        let ie = b.sig(i);
        b.set_next(r, ie);
        b.build().unwrap()
    }

    #[test]
    fn explicit_and_symbolic_choices_are_unconditional() {
        let narrow = design_with_input(2);
        let wide = design_with_input(20);
        for d in [&narrow, &wide] {
            assert_eq!(BackendChoice::Explicit.resolve(d), BackendKind::Explicit);
            assert_eq!(BackendChoice::Symbolic.resolve(d), BackendKind::Symbolic);
        }
    }

    #[test]
    fn auto_stays_explicit_on_narrow_inputs() {
        // The litmus designs have a 2-bit arbiter input (4 valuations):
        // auto must keep them on the explicit reference backend.
        let d = design_with_input(2);
        assert_eq!(BackendChoice::Auto.resolve(&d), BackendKind::Explicit);
    }

    #[test]
    fn auto_routes_wide_inputs_to_symbolic() {
        // 20 input bits overflow the explicit enumeration limit: explicit
        // would panic, auto must route to symbolic.
        let d = design_with_input(20);
        assert_eq!(BackendChoice::Auto.resolve(&d), BackendKind::Symbolic);
    }

    #[test]
    fn auto_heuristic_band_weighs_input_width_against_state_bits() {
        // 8 input bits = 256 valuations: within the explicit limit but past
        // the heuristic threshold — symbolic wins while state is small.
        let small_state = design_with_input(8);
        assert_eq!(
            BackendChoice::Auto.resolve(&small_state),
            BackendKind::Symbolic
        );
        // Same input width over a wide state space: stay explicit.
        let mut b = DesignBuilder::new("d");
        b.input("in", 8);
        for k in 0..3 {
            let r = b.reg(format!("r{k}"), 64, Some(0));
            let hold = b.sig(r);
            b.set_next(r, hold);
        }
        let wide_state = b.build().unwrap();
        assert_eq!(
            BackendChoice::Auto.resolve(&wide_state),
            BackendKind::Explicit
        );
    }

    #[test]
    fn parse_round_trips_labels() {
        for c in BackendChoice::ALL {
            assert_eq!(BackendChoice::parse(c.label()), Ok(c));
        }
        assert_eq!(
            BackendChoice::parse("bdd"),
            Err("unknown backend `bdd` (expected explicit, symbolic, or auto)".into())
        );
        assert_eq!(BackendChoice::default(), BackendChoice::Explicit);
    }

    /// The litmus platforms must stay pinned to the explicit reference
    /// under `auto`: the full-suite differential compares auto to explicit
    /// byte-for-byte.
    #[test]
    fn auto_stays_explicit_on_suite_designs() {
        use rtlcheck_rtl::multi_vscale::{MemoryImpl, MultiVscale};
        let mp = rtlcheck_litmus::suite::get("mp").unwrap();
        let mv = MultiVscale::build(&mp, MemoryImpl::Fixed);
        assert_eq!(
            BackendChoice::Auto.resolve(&mv.design),
            BackendKind::Explicit
        );
    }

    #[test]
    fn explicit_graph_implements_the_class_contract() {
        let d = design_with_input(2);
        let mut problem = Problem::new(&d);
        let input = d.signal_by_name("in").unwrap();
        // Prune the in == 3 valuation so the prefix counts are mixed.
        problem.assumptions.push(Directive::assume(
            "no_three",
            Prop::Never(SvaBool::atom(RtlAtom::eq(input, 3))),
        ));
        let graph = StateGraph::new(&problem, []);
        let backend: &dyn Backend = &graph;
        assert_eq!(backend.num_edge_classes(0), 4);
        let mut bits = Vec::new();
        for class in 0..4 {
            let e = backend.edge_class(0, class, &mut bits);
            assert_eq!(e.multiplicity, 1);
            assert_eq!(e.dest == PRUNED, class == 3, "only in==3 is pruned");
            assert_eq!(backend.class_input(0, class), vec![class as u64]);
        }
        assert_eq!(backend.class_prefix(0, 4), (3, 1));
        assert_eq!(backend.class_prefix(0, 1), (1, 0));
    }

    #[test]
    fn reg_bits_sums_register_widths() {
        let d = design_with_input(8);
        assert_eq!(reg_bits(&d), 8);
    }
}
