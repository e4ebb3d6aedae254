//! The shared per-problem state graph.
//!
//! Every assertion of a litmus test is checked against the *same* design ×
//! assumption-monitor product: the design's reachable states joined with
//! the deterministic states of the assumption monitors. Re-simulating that
//! product per property (as the pre-refactor verifier did) repeats the
//! expensive work — stepping the RTL simulator and every assumption
//! monitor — once per assertion.
//!
//! [`StateGraph`] materialises the shared product once per [`Problem`]:
//!
//! * **Nodes** are `(design state, assumption-monitor states)` pairs —
//!   exactly the product the legacy exploration deduplicated on, minus the
//!   assertion monitor.
//! * **Edges** are labelled by primary-input valuation. A pruned edge (an
//!   assumption monitor failed on that cycle) is recorded as such; an
//!   admissible edge carries its destination node and the valuation of
//!   every *atom* any property cares about, as a bitset.
//! * Property checking then reduces to an NFA walk: step the assertion
//!   monitor over the cached atom bitsets, never touching the simulator.
//!
//! Construction is *lazy with an eager warm-up*: [`StateGraph::build`]
//! pre-expands the graph breadth-first under an engine budget, and any walk
//! that needs an edge beyond the warmed frontier triggers on-demand row
//! construction. Laziness is what makes walk budgets exact — a walk with a
//! tiny state budget observes the same statistics it would have produced
//! driving the simulator directly, regardless of how much of the graph
//! already exists.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use rtlcheck_obs::{attrs, Collector};
use rtlcheck_rtl::sim::{Frame, Simulator, State};
use rtlcheck_rtl::{ConeSet, Design, SignalId, SignalKind};
use rtlcheck_sva::{MonitorState, Prop, Seq, SvaBool};

use crate::atom::{RtlAtom, RtlBool};
use crate::cache::{CoreSnapshot, NodeSnapshot};
use crate::det::{DetMonitor, IdMap, FAILED};
use crate::engine::Engine;
use crate::problem::Problem;

/// Maximum number of primary-input valuations enumerated per cycle.
const MAX_INPUT_VALUATIONS: usize = 256;

/// Edge destination marking a cycle discarded by the assumptions.
pub const PRUNED: u32 = u32::MAX;

/// Enumerates all primary-input valuations of a design: the cartesian
/// product of every input signal's value range, in signal declaration
/// order, counting each input from 0.
///
/// # Panics
///
/// Panics — naming the offending signal — as soon as an input pushes the
/// cumulative valuation count past [`MAX_INPUT_VALUATIONS`]. Explicit-state
/// search needs a small free-input space (Multi-V-scale has one 2-bit
/// arbiter input); a wide input is a usage error that must never silently
/// degrade into enumerating a subset of the space.
pub(crate) fn input_valuations(design: &Design) -> Vec<Vec<u64>> {
    let mut vals: Vec<Vec<u64>> = vec![Vec::new()];
    for (_, s) in design.signals() {
        let SignalKind::Input { .. } = s.kind else {
            continue;
        };
        let card = 1u128 << s.width;
        assert!(
            vals.len() as u128 * card <= MAX_INPUT_VALUATIONS as u128,
            "primary input `{}` ({} bits) pushes the input space past {} \
             valuations per cycle — too wide for explicit-state search",
            s.name,
            s.width,
            MAX_INPUT_VALUATIONS,
        );
        let mut next = Vec::with_capacity(vals.len() * card as usize);
        for v in &vals {
            for x in 0..card as u64 {
                let mut v2 = v.clone();
                v2.push(x);
                next.push(v2);
            }
        }
        vals = next;
    }
    vals
}

/// Construction and reuse statistics of a [`StateGraph`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Product nodes materialised (design state × assumption states).
    pub nodes: usize,
    /// Admissible edges materialised.
    pub edges: u64,
    /// Edges discarded because an assumption monitor failed.
    pub pruned_edges: u64,
    /// Edge fetches served to walks.
    pub lookups: u64,
    /// Edge fetches answered from an already-built row (no simulation).
    pub reuse_hits: u64,
    /// Whether the eager warm-up exhausted the reachable product space —
    /// every subsequent walk is pure cache reuse.
    pub complete: bool,
}

/// One materialised node: the product state plus its (lazily built) edges.
struct GraphNode {
    state: State,
    /// Id of the node's assumption-state tuple in [`GraphCore::tuples`].
    tuple: u32,
    row: Option<EdgeRow>,
}

/// The out-edges of one node, one entry per input valuation.
struct EdgeRow {
    /// Destination node per input ([`PRUNED`] for inadmissible cycles).
    dests: Box<[u32]>,
    /// Atom-valuation bitsets, `words` u64s per input: bit `i` is the truth
    /// of the graph's `i`-th atom at (this node's state, that input).
    bits: Box<[u64]>,
}

/// The interior-mutable part: nodes, the dedup index, the assumption
/// monitors (determinised lazily, see [`crate::det`]) that step edge rows,
/// and the evaluation frame rows settle the design into.
struct GraphCore<'d> {
    nodes: Vec<GraphNode>,
    /// `(design state, tuple id)` → node id. Keeps std's SipHash: design
    /// states come from simulating litmus tests that `serve` clients
    /// submit, so a weak hash would let a client flood this index.
    index: HashMap<(State, u32), u32>,
    /// Interned assumption-state tuples (one monitor state id per
    /// directive), so a node stores a `u32` and the index key clones no
    /// slice.
    tuples: Vec<Box<[u32]>>,
    tuple_ids: IdMap<Box<[u32]>, u32>,
    /// Scratch successor tuple of the edge being built.
    next_tuple: Vec<u32>,
    monitors: Vec<DetMonitor<RtlAtom>>,
    frame: Frame<'d>,
    stats: GraphStats,
    /// Edge rows built (cold or spliced). Like the two counters
    /// below, a work counter of this graph object, not part of
    /// [`GraphStats`] (which snapshots capture).
    rows_built: u64,
    /// [`Frame::settle`] passes over the design.
    sim_settles: u64,
}

impl GraphCore<'_> {
    /// Settles the frame at one `(state, input)` point.
    fn settle(&mut self, state: &State, input: &[u64]) {
        self.frame.settle(state, input);
        self.sim_settles += 1;
    }

    /// Steps every assumption monitor from tuple `tuple` over the settled
    /// frame. Returns the successor tuple's id, or `None` when some
    /// monitor fails (the cycle is pruned). Every monitor steps either
    /// way, so monitor metrics do not depend on directive order.
    fn step_monitors(&mut self, tuple: u32) -> Option<u32> {
        let frame = &self.frame;
        let ids = &self.tuples[tuple as usize];
        let mut next = std::mem::take(&mut self.next_tuple);
        next.clear();
        let mut admissible = true;
        for (m, &id) in self.monitors.iter_mut().zip(ids.iter()) {
            let n = m.step(id, |a| frame.peek(a.sig) == a.value);
            admissible &= n != FAILED;
            next.push(n);
        }
        let id = admissible.then(|| self.tuple_id(&next));
        self.next_tuple = next;
        id
    }

    /// The id of an assumption-state tuple, interning it on first sight.
    fn tuple_id(&mut self, ids: &[u32]) -> u32 {
        if let Some(&id) = self.tuple_ids.get(ids) {
            return id;
        }
        let id = u32::try_from(self.tuples.len()).expect("tuples fit in u32 ids");
        self.tuples.push(ids.into());
        self.tuple_ids.insert(ids.into(), id);
        id
    }

    /// Counts one admissible edge into the product node `(state, tuple)`
    /// and returns the node's id, materialising it on first sight.
    fn edge_to(&mut self, state: State, tuple: u32) -> u32 {
        self.stats.edges += 1;
        let next = self.nodes.len();
        match self.index.entry((state, tuple)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = u32::try_from(next).expect("graph fits in u32 node ids");
                self.nodes.push(GraphNode {
                    state: e.key().0.clone(),
                    tuple,
                    row: None,
                });
                e.insert(id);
                id
            }
        }
    }

    /// Installs a finished row.
    fn finish_row(&mut self, node: u32, dests: Vec<u32>, bits: Vec<u64>) {
        self.stats.nodes = self.nodes.len();
        self.rows_built += 1;
        self.nodes[node as usize].row = Some(EdgeRow {
            dests: dests.into_boxed_slice(),
            bits: bits.into_boxed_slice(),
        });
    }

    /// Interns a snapshot node's monitor states, returning their tuple id.
    fn intern(&mut self, states: &[MonitorState]) -> u32 {
        let ids: Vec<u32> = self
            .monitors
            .iter_mut()
            .zip(states)
            .map(|(m, s)| m.intern(s.clone()))
            .collect();
        self.tuple_id(&ids)
    }
}

/// Sets the bits of the atoms in `sig_atoms` that hold in a settled frame.
fn fill_bits(frame: &Frame<'_>, sig_atoms: &[(SignalId, Vec<(usize, u64)>)], words: &mut [u64]) {
    for (sig, atoms) in sig_atoms {
        let v = frame.peek(*sig);
        for &(ai, value) in atoms {
            if v == value {
                words[ai / 64] |= 1 << (ai % 64);
            }
        }
    }
}

/// Baseline-reuse context of an incrementally assembled graph
/// ([`StateGraph::splice`]). Row construction consults it first: rows of
/// product nodes present in the baseline are copied, with only the dirty
/// cones' contributions (dirty registers' next values, dirty wires' atom
/// bits) re-simulated; nodes the baseline never reached fall back to full
/// simulation. Counters live here — *not* in [`GraphStats`], which is
/// captured in snapshots and must stay identical to cold builds.
struct SpliceState {
    baseline: Arc<CoreSnapshot>,
    /// Product key (monitor states interned into this graph's tuple
    /// table) → baseline node id.
    index: HashMap<(State, u32), u32>,
    /// Tuple id of each baseline node.
    ids: Vec<u32>,
    /// Dense register index per dirty register.
    dirty_regs: Vec<usize>,
    /// The subset of `sig_atoms` whose signal is a dirty wire.
    dirty_sig_atoms: Vec<(SignalId, Vec<(usize, u64)>)>,
    /// Bitmask over atom words selecting the dirty atoms (cleared from
    /// copied rows before re-peeking).
    dirty_atom_mask: Vec<u64>,
    /// Re-simulate every spliced row and assert equality.
    validate: bool,
    /// Cones in the design (== registers).
    cones_total: u64,
    /// Cones the dirty set invalidates.
    cones_dirty: u64,
    /// Per-cone row segments copied verbatim from the baseline.
    rows_copied: Cell<u64>,
    /// Edge rows assembled by mixing copied and re-simulated cones.
    rows_spliced: Cell<u64>,
    /// Per-cone row segments re-simulated (dirty cones of spliced rows,
    /// every cone of rows rebuilt cold).
    rows_recomputed: Cell<u64>,
}

/// The reachable product of a design and its assumption monitors, with
/// per-edge atom valuations — built once per [`Problem`] and shared by
/// every property walk and the cover search. See the module docs.
pub struct StateGraph<'p, 'd> {
    problem: &'p Problem<'d>,
    /// All enumerated primary-input valuations (edge labels).
    inputs: Vec<Vec<u64>>,
    /// Sorted, deduplicated table of every atom any walk will evaluate.
    atoms: Vec<RtlAtom>,
    /// Atoms grouped by signal so each signal is peeked once per edge.
    sig_atoms: Vec<(SignalId, Vec<(usize, u64)>)>,
    /// u64 words per edge bitset.
    words: usize,
    core: RefCell<GraphCore<'d>>,
    /// The walks' assertion monitors, one per property shape. Walk state:
    /// no snapshot captures it.
    shapes: RefCell<ShapeTable>,
    /// Baseline-reuse context when this graph was assembled incrementally.
    splice: Option<SpliceState>,
}

/// Determinised assertion monitors by property *shape*: the property with
/// each atom renamed to the rank of its first occurrence. Properties that
/// differ only in the signals they sample share a shape, and so a monitor,
/// its interned states and its transition memo. This is sound because an
/// injective atom renaming preserves monitor behaviour exactly
/// ([`Prop::map_atoms`]): a walk steps its shape's monitor with rank `r`
/// valued as its own `r`-th atom.
#[derive(Default)]
struct ShapeTable {
    /// Shape ([`encode_prop`]) → index into `shapes`. Keyed by the whole
    /// encoding, so shapes are compared structurally, not by hash alone.
    slots: HashMap<Box<[u32]>, usize>,
    shapes: Vec<Shape>,
    /// Scratch encoding of the property being looked up.
    key: Vec<u32>,
}

/// One entry of a [`ShapeTable`].
#[derive(Default)]
struct Shape {
    /// The shape's monitor: `None` until a walk builds it, while a walk
    /// has it, and once no further walk of the shape is expected.
    monitor: Option<DetMonitor<usize>>,
    /// Walks of the shape still expected: one per property the graph was
    /// built with, less one per walk that has ended. Dropping the monitor
    /// when it runs out keeps a flow's peak memory to the automata its
    /// remaining walks need; a walk after that builds a fresh one.
    walks_left: usize,
}

impl ShapeTable {
    /// A table expecting one walk of each of `props`.
    fn expecting(props: &[&Prop<RtlAtom>]) -> Self {
        let mut table = ShapeTable::default();
        for p in props {
            let slot = table.slot(p, &mut Vec::new());
            table.shapes[slot].walks_left += 1;
        }
        table
    }

    /// The slot of `prop`'s shape, added on first sight. `ranked` receives
    /// the property's atoms in rank order.
    fn slot(&mut self, prop: &Prop<RtlAtom>, ranked: &mut Vec<RtlAtom>) -> usize {
        self.key.clear();
        encode_prop(prop, ranked, &mut self.key);
        if let Some(&slot) = self.slots.get(self.key.as_slice()) {
            return slot;
        }
        self.slots
            .insert(self.key.as_slice().into(), self.shapes.len());
        self.shapes.push(Shape::default());
        self.shapes.len() - 1
    }
}

/// Appends `prop`'s shape to `out` as a preorder token stream, with each
/// atom written as its rank in `atoms`, which collects the property's
/// distinct atoms in order of first occurrence. Every node writes a tag
/// unique among its type's variants, then its fixed fields (and a child
/// count for `and` / `or`), so the stream decodes uniquely: two properties
/// have equal streams exactly when one is the other with its atoms
/// renamed injectively.
fn encode_prop(prop: &Prop<RtlAtom>, atoms: &mut Vec<RtlAtom>, out: &mut Vec<u32>) {
    match prop {
        Prop::Seq(s) => {
            out.push(0);
            encode_seq(s, atoms, out);
        }
        Prop::Implies { antecedent, body } => {
            out.push(1);
            encode_bool(antecedent, atoms, out);
            encode_prop(body, atoms, out);
        }
        Prop::And(ps) | Prop::Or(ps) => {
            let tag = if matches!(prop, Prop::And(_)) { 2 } else { 3 };
            out.extend([tag, ps.len() as u32]);
            for p in ps {
                encode_prop(p, atoms, out);
            }
        }
        Prop::Never(b) => {
            out.push(4);
            encode_bool(b, atoms, out);
        }
    }
}

fn encode_seq(seq: &Seq<RtlAtom>, atoms: &mut Vec<RtlAtom>, out: &mut Vec<u32>) {
    match seq {
        Seq::Bool(b) => {
            out.push(0);
            encode_bool(b, atoms, out);
        }
        Seq::Then(a, b) | Seq::Or(a, b) => {
            out.push(if matches!(seq, Seq::Then(..)) { 1 } else { 2 });
            encode_seq(a, atoms, out);
            encode_seq(b, atoms, out);
        }
        Seq::Repeat { body, min, max } => {
            out.extend([3, *min, u32::from(max.is_some()), max.unwrap_or(0)]);
            encode_seq(body, atoms, out);
        }
    }
}

fn encode_bool(b: &RtlBool, atoms: &mut Vec<RtlAtom>, out: &mut Vec<u32>) {
    match b {
        SvaBool::Const(c) => out.extend([0, u32::from(*c)]),
        SvaBool::Atom(a) => {
            let rank = atoms.iter().position(|x| x == a).unwrap_or_else(|| {
                atoms.push(*a);
                atoms.len() - 1
            });
            out.extend([1, rank as u32]);
        }
        SvaBool::Not(x) => {
            out.push(2);
            encode_bool(x, atoms, out);
        }
        SvaBool::And(x, y) | SvaBool::Or(x, y) => {
            out.push(if matches!(b, SvaBool::And(..)) { 3 } else { 4 });
            encode_bool(x, atoms, out);
            encode_bool(y, atoms, out);
        }
    }
}

/// An assertion monitor a walk has taken from its graph's shape table
/// ([`StateGraph::take_monitor`]).
pub(crate) struct ShapeMonitor {
    slot: usize,
    /// The shape's monitor, over atom ranks.
    pub(crate) det: DetMonitor<usize>,
    /// Atom-table index of each rank, in this walk's property.
    pub(crate) atoms: Vec<usize>,
}

impl std::fmt::Debug for StateGraph<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("StateGraph")
            .field("design", &self.problem.design.name())
            .field("atoms", &self.atoms.len())
            .field("inputs", &self.inputs.len())
            .field("stats", &stats)
            .finish()
    }
}

impl<'p, 'd> StateGraph<'p, 'd> {
    /// Creates a lazy graph (root node only) whose atom table covers the
    /// problem's cover condition plus every property in `props`.
    ///
    /// # Panics
    ///
    /// Panics if a free-init register is not pinned by `problem.init_pins`
    /// or the design's primary-input space is too large to enumerate.
    pub fn new<'a, I>(problem: &'p Problem<'d>, props: I) -> Self
    where
        I: IntoIterator<Item = &'a Prop<RtlAtom>>,
    {
        let props: Vec<_> = props.into_iter().collect();
        let atoms = StateGraph::atom_table(problem, props.iter().copied());
        StateGraph::with_atoms(problem, atoms, &props)
    }

    /// The sorted, deduplicated atom table a graph for `problem`/`props`
    /// will index into: every atom of the cover condition plus every atom
    /// of every property. This (together with the design and assumptions)
    /// fully determines the graph's content, which is why the cache keys
    /// on it.
    pub(crate) fn atom_table<'a, I>(problem: &Problem<'_>, props: I) -> Vec<RtlAtom>
    where
        I: IntoIterator<Item = &'a Prop<RtlAtom>>,
    {
        let mut set: BTreeSet<RtlAtom> = BTreeSet::new();
        if let Some(cover) = &problem.cover {
            cover.for_each_atom(&mut |a| {
                set.insert(*a);
            });
        }
        for p in props {
            p.for_each_atom(&mut |a| {
                set.insert(*a);
            });
        }
        set.into_iter().collect()
    }

    /// [`StateGraph::new`] with a precomputed atom table.
    fn with_atoms(problem: &'p Problem<'d>, atoms: Vec<RtlAtom>, props: &[&Prop<RtlAtom>]) -> Self {
        let sim = Simulator::new(problem.design);
        let inputs = input_valuations(problem.design);

        let mut sig_atoms: Vec<(SignalId, Vec<(usize, u64)>)> = Vec::new();
        for (i, a) in atoms.iter().enumerate() {
            match sig_atoms.last_mut() {
                Some((sig, list)) if *sig == a.sig => list.push((i, a.value)),
                _ => sig_atoms.push((a.sig, vec![(i, a.value)])),
            }
        }
        let words = atoms.len().div_ceil(64);

        let initial = sim
            .initial_state_with(&problem.init_pins)
            .expect("all free-init registers must be pinned by init assumptions");
        let monitors: Vec<DetMonitor<RtlAtom>> = problem
            .assumptions
            .iter()
            .map(|d| DetMonitor::new(&d.prop))
            .collect();
        // The initial tuple (every monitor in its initial state) is tuple 0.
        let init_ids: Box<[u32]> = vec![DetMonitor::<RtlAtom>::INITIAL; monitors.len()].into();
        let mut core = GraphCore {
            nodes: vec![GraphNode {
                state: initial.clone(),
                tuple: 0,
                row: None,
            }],
            index: HashMap::new(),
            tuples: vec![init_ids.clone()],
            tuple_ids: IdMap::from_iter([(init_ids, 0)]),
            next_tuple: Vec::new(),
            monitors,
            frame: sim.frame(),
            stats: GraphStats {
                nodes: 1,
                ..GraphStats::default()
            },
            rows_built: 0,
            sim_settles: 0,
        };
        core.index.insert((initial, 0), 0);

        StateGraph {
            problem,
            inputs,
            atoms,
            sig_atoms,
            words,
            core: RefCell::new(core),
            shapes: RefCell::new(ShapeTable::expecting(props)),
            splice: None,
        }
    }

    /// [`StateGraph::new`] followed by an eager breadth-first warm-up: node
    /// rows are pre-built layer by layer until the reachable product space
    /// is exhausted or `engine`'s budget is hit. Walks extend the graph
    /// on demand past the warmed frontier, so the warm-up budget never
    /// changes a walk's verdict or statistics — only how much of the work
    /// is shared up front.
    pub fn build<'a, I>(problem: &'p Problem<'d>, props: I, engine: Engine) -> Self
    where
        I: IntoIterator<Item = &'a Prop<RtlAtom>>,
    {
        let graph = StateGraph::new(problem, props);
        graph.warm(engine);
        graph
    }

    /// [`StateGraph::build`], assembled incrementally from a *baseline*
    /// core: the same breadth-first warm-up runs from the problem's own
    /// initial node, but each row is copied from the baseline whenever its
    /// product node exists there, with only the dirty cones' contributions
    /// — dirty registers' next-state values and dirty wires' atom bits —
    /// re-simulated. Nodes the baseline never reached (or whose rows were
    /// never built) are simulated in full.
    ///
    /// The result is **bit-identical to a cold build** of the same
    /// problem: clean signals evaluate identically in both designs (equal
    /// per-cone fingerprints, see [`rtlcheck_rtl::cone`]), the assumption
    /// monitors see only clean atoms (enforced below), and discovery
    /// order is preserved because rows are emitted in input order either
    /// way. Node ids, statistics, snapshots, and every walk over the
    /// graph are therefore indistinguishable from the cold path.
    ///
    /// Returns `None` — caller falls back to a cold build — when reuse
    /// would be unsound or is impossible: the atom tables or dimensions
    /// differ, the baseline core is malformed (e.g. a fingerprint
    /// collision slipped through), a dirty signal is not actually a
    /// wire/register of this design, or an *assumption* directive reads a
    /// dirty wire (monitor stepping could then diverge, poisoning
    /// admissibility and pruning).
    ///
    /// With `validate` set, every copied or patched row is additionally
    /// re-derived by full simulation and asserted equal — the mode the
    /// `splice_*` tests run to police the splice soundness argument.
    ///
    /// # Panics
    ///
    /// Panics in `validate` mode if a spliced row diverges from its
    /// re-simulation (a soundness bug, never an input error).
    pub fn splice<'a, I>(
        problem: &'p Problem<'d>,
        props: I,
        baseline: Arc<CoreSnapshot>,
        dirty: &ConeSet,
        engine: Engine,
        validate: bool,
    ) -> Option<Self>
    where
        I: IntoIterator<Item = &'a Prop<RtlAtom>>,
    {
        let props: Vec<_> = props.into_iter().collect();
        let atoms = StateGraph::atom_table(problem, props.iter().copied());
        if atoms != baseline.atoms {
            return None;
        }
        let mut graph = StateGraph::with_atoms(problem, atoms, &props);
        if graph.inputs.len() != baseline.num_inputs
            || graph.words != baseline.words
            || problem.design.num_regs() != baseline.num_regs
            || baseline.nodes.is_empty()
            || graph.core.borrow().monitors.len() != baseline.num_monitors
        {
            return None;
        }
        // Monitors must be clean: if any assumption atom reads a dirty
        // wire, monitor stepping — and with it admissibility and pruning
        // — could diverge from the baseline, and no row is copyable.
        for d in &problem.assumptions {
            let mut dirty_atom = false;
            d.prop.for_each_atom(&mut |a| {
                if dirty.wire_dirty(a.sig) {
                    dirty_atom = true;
                }
            });
            if dirty_atom {
                return None;
            }
        }
        let mut dirty_regs = Vec::with_capacity(dirty.regs.len());
        for &r in &dirty.regs {
            let SignalKind::Reg { index, .. } = problem.design.signal(r).kind else {
                return None;
            };
            dirty_regs.push(index);
        }
        let mut dirty_sig_atoms = Vec::new();
        let mut dirty_atom_mask = vec![0u64; graph.words];
        for (sig, list) in &graph.sig_atoms {
            if dirty.wire_dirty(*sig) {
                for &(ai, _) in list {
                    dirty_atom_mask[ai / 64] |= 1 << (ai % 64);
                }
                dirty_sig_atoms.push((*sig, list.clone()));
            }
        }
        // Well-formedness scan of the baseline core (the checks
        // `from_snapshot` performs, minus initial-node equality — the
        // mutant's initial node may legitimately differ), building the
        // product-state index as it goes.
        let num_nodes = baseline.nodes.len();
        if u32::try_from(num_nodes).is_err() || baseline.stats.nodes != num_nodes {
            return None;
        }
        let row_words = baseline.num_inputs.checked_mul(baseline.words)?;
        let mut index = HashMap::with_capacity(num_nodes);
        let mut ids = Vec::with_capacity(num_nodes);
        let mut core = graph.core.borrow_mut();
        let mut edges = 0u64;
        let mut pruned = 0u64;
        for (i, n) in baseline.nodes.iter().enumerate() {
            if n.regs.len() != baseline.num_regs || n.assumptions.len() != baseline.num_monitors {
                return None;
            }
            if let Some((dests, bits)) = &n.row {
                if dests.len() != baseline.num_inputs || bits.len() != row_words {
                    return None;
                }
                for &d in dests {
                    if d == PRUNED {
                        pruned += 1;
                    } else if (d as usize) < num_nodes {
                        edges += 1;
                    } else {
                        return None;
                    }
                }
            }
            let tuple = core.intern(&n.assumptions);
            let key = (State::from_regs(n.regs.clone()), tuple);
            if index.insert(key, i as u32).is_some() {
                return None;
            }
            ids.push(tuple);
        }
        drop(core);
        if edges != baseline.stats.edges || pruned != baseline.stats.pruned_edges {
            return None;
        }
        let analysis = problem.design.cones();
        let cones_total = analysis.len() as u64;
        let cones_dirty = analysis.invalidated(dirty).len() as u64;
        graph.splice = Some(SpliceState {
            baseline,
            index,
            ids,
            dirty_regs,
            dirty_sig_atoms,
            dirty_atom_mask,
            validate,
            cones_total,
            cones_dirty,
            rows_copied: Cell::new(0),
            rows_spliced: Cell::new(0),
            rows_recomputed: Cell::new(0),
        });
        graph.warm(engine);
        Some(graph)
    }

    fn warm(&self, engine: Engine) {
        let mut core = self.core.borrow_mut();
        let mut frontier: Vec<u32> = vec![0];
        let mut depth: u32 = 0;
        loop {
            if frontier.is_empty() {
                core.stats.complete = true;
                return;
            }
            if engine.max_depth.is_some_and(|d| depth >= d) {
                return;
            }
            let mut next = Vec::new();
            for &n in &frontier {
                let known = core.nodes.len();
                if core.nodes[n as usize].row.is_none() {
                    self.build_row(&mut core, n);
                }
                next.extend((known..core.nodes.len()).map(|i| i as u32));
                if core.nodes.len() > engine.max_states {
                    return;
                }
            }
            depth += 1;
            frontier = next;
        }
    }

    /// Builds the edge row of one node: from the baseline when this graph
    /// is spliced and the node is copyable, by simulation otherwise.
    fn build_row(&self, core: &mut GraphCore<'d>, node: u32) {
        if let Some(sp) = &self.splice {
            if self.build_row_spliced(core, node, sp) {
                return;
            }
            // Node (or its row) absent from the baseline: every cone of
            // this row is re-simulated.
            sp.rows_recomputed
                .set(sp.rows_recomputed.get() + self.problem.design.num_regs() as u64);
        }
        self.build_row_cold(core, node);
    }

    /// Copies one node's row from the spliced baseline, re-simulating only
    /// the dirty cones' contributions. Returns `false` — caller re-builds
    /// cold — when the node's product state is not in the baseline or its
    /// row was never materialised there.
    fn build_row_spliced(&self, core: &mut GraphCore<'d>, node: u32, sp: &SpliceState) -> bool {
        let key = {
            let n = &core.nodes[node as usize];
            (n.state.clone(), n.tuple)
        };
        let Some(&b) = sp.index.get(&key) else {
            return false;
        };
        let Some((bdests, bbits)) = &sp.baseline.nodes[b as usize].row else {
            return false;
        };
        let (state, tuple) = key;
        let resimulate = sp.validate || !sp.dirty_regs.is_empty() || !sp.dirty_sig_atoms.is_empty();
        let num_inputs = self.inputs.len();
        let mut dests = Vec::with_capacity(num_inputs);
        let mut bits = vec![0u64; num_inputs * self.words];
        for (i, input) in self.inputs.iter().enumerate() {
            let bd = bdests[i];
            if bd == PRUNED {
                // Admissibility depends only on the monitors, whose atoms
                // are clean (checked at splice time): the baseline's
                // pruning verdict transfers.
                if sp.validate {
                    core.settle(&state, input);
                    self.validate_entry(core, tuple, None, &[]);
                }
                core.stats.pruned_edges += 1;
                dests.push(PRUNED);
                continue;
            }
            if resimulate {
                core.settle(&state, input);
            }
            // Atom bits: copy the row, clear the dirty atoms, re-read them.
            let words = &mut bits[i * self.words..(i + 1) * self.words];
            words.copy_from_slice(&bbits[i * self.words..(i + 1) * self.words]);
            for (w, m) in words.iter_mut().zip(&sp.dirty_atom_mask) {
                *w &= !m;
            }
            fill_bits(&core.frame, &sp.dirty_sig_atoms, words);
            // Destination state: clean registers' next values are equal in
            // both designs (equal value-function fingerprints), so copy
            // them; re-evaluate only the dirty registers.
            let mut regs = sp.baseline.nodes[bd as usize].regs.clone();
            for &ri in &sp.dirty_regs {
                regs[ri] = core.frame.next_reg(ri);
            }
            let dest_state = State::from_regs(regs);
            let next_tuple = sp.ids[bd as usize];
            if sp.validate {
                self.validate_entry(core, tuple, Some((&dest_state, next_tuple)), words);
            }
            dests.push(core.edge_to(dest_state, next_tuple));
        }
        core.finish_row(node, dests, bits);
        let total = self.problem.design.num_regs() as u64;
        let dirty = sp.dirty_regs.len() as u64;
        if dirty == 0 && sp.dirty_sig_atoms.is_empty() {
            sp.rows_copied.set(sp.rows_copied.get() + total);
        } else {
            sp.rows_copied.set(sp.rows_copied.get() + (total - dirty));
            sp.rows_recomputed.set(sp.rows_recomputed.get() + dirty);
            sp.rows_spliced.set(sp.rows_spliced.get() + 1);
        }
        true
    }

    /// Re-derives one spliced `(node, input)` entry from the settled frame
    /// and asserts it matches the copied/patched data: `tuple` is the
    /// node's assumption-state tuple, `expected` the entry's destination
    /// (`None` for a pruned entry).
    fn validate_entry(
        &self,
        core: &mut GraphCore<'d>,
        tuple: u32,
        expected: Option<(&State, u32)>,
        expected_bits: &[u64],
    ) {
        let next = core.step_monitors(tuple);
        match expected {
            None => assert!(
                next.is_none(),
                "splice validation: baseline prunes an edge the re-simulation admits"
            ),
            Some((dest, dest_tuple)) => {
                let next = next.unwrap_or_else(|| {
                    panic!("splice validation: baseline admits an edge the re-simulation prunes")
                });
                assert_eq!(
                    dest_tuple, next,
                    "splice validation: monitor states diverge"
                );
                let mut bits = vec![0u64; self.words];
                fill_bits(&core.frame, &self.sig_atoms, &mut bits);
                assert_eq!(
                    expected_bits,
                    &bits[..],
                    "splice validation: atom bits diverge"
                );
                assert_eq!(
                    dest,
                    &core.frame.next_state(),
                    "splice validation: destination state diverges"
                );
            }
        }
    }

    /// Builds the edge row of one node by simulation: settles the design
    /// once per input valuation, steps the assumption monitors and reads
    /// the atoms and the successor state from that frame, recording
    /// prunes, atom bitsets, and (deduplicated) destinations.
    fn build_row_cold(&self, core: &mut GraphCore<'d>, node: u32) {
        let (state, tuple) = {
            let n = &core.nodes[node as usize];
            (n.state.clone(), n.tuple)
        };
        let num_inputs = self.inputs.len();
        let mut dests = Vec::with_capacity(num_inputs);
        let mut bits = vec![0u64; num_inputs * self.words];
        for (i, input) in self.inputs.iter().enumerate() {
            core.settle(&state, input);
            let Some(next_tuple) = core.step_monitors(tuple) else {
                core.stats.pruned_edges += 1;
                dests.push(PRUNED);
                continue;
            };
            fill_bits(
                &core.frame,
                &self.sig_atoms,
                &mut bits[i * self.words..(i + 1) * self.words],
            );
            let dest_state = core.frame.next_state();
            dests.push(core.edge_to(dest_state, next_tuple));
        }
        core.finish_row(node, dests, bits);
    }

    /// Fetches the edge `(node, input)`: returns the destination node (or
    /// [`PRUNED`]) and copies the edge's atom bitset into `bits_out`. Builds
    /// the node's row on first touch.
    pub(crate) fn edge(&self, node: u32, input: usize, bits_out: &mut Vec<u64>) -> u32 {
        let mut core = self.core.borrow_mut();
        core.stats.lookups += 1;
        if core.nodes[node as usize].row.is_none() {
            self.build_row(&mut core, node);
        } else {
            core.stats.reuse_hits += 1;
        }
        let row = core.nodes[node as usize].row.as_ref().expect("row built");
        bits_out.clear();
        bits_out.extend_from_slice(&row.bits[input * self.words..(input + 1) * self.words]);
        row.dests[input]
    }

    /// The problem this graph was built from.
    pub fn problem(&self) -> &'p Problem<'d> {
        self.problem
    }

    /// Number of primary-input valuations (edge labels per node).
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// The `idx`-th input valuation.
    pub(crate) fn input(&self, idx: usize) -> &[u64] {
        &self.inputs[idx]
    }

    /// The design state of a node (cheap: states are refcounted).
    pub(crate) fn node_state(&self, node: u32) -> State {
        self.core.borrow().nodes[node as usize].state.clone()
    }

    /// The atom table walks index into.
    pub fn atoms(&self) -> &[RtlAtom] {
        &self.atoms
    }

    /// Current construction/reuse statistics.
    pub fn stats(&self) -> GraphStats {
        self.core.borrow().stats
    }

    /// Maps a boolean's atoms onto this graph's atom-table indices.
    ///
    /// # Panics
    ///
    /// Panics if the boolean mentions an atom absent from the table — the
    /// graph must be (re)built with every property it will serve.
    pub fn map_bool(&self, b: &RtlBool) -> SvaBool<usize> {
        b.map_atoms(&mut |a| self.atom_index(a))
    }

    /// Takes the monitor of `prop`'s shape from the shape table, building
    /// it when the table holds none (on the shape's first walk, after its
    /// last expected one, or while another walk has it). Hand it back with
    /// [`StateGraph::return_monitor`].
    ///
    /// # Panics
    ///
    /// Panics like [`StateGraph::map_bool`] on an atom outside the table.
    pub(crate) fn take_monitor(&self, prop: &Prop<RtlAtom>) -> ShapeMonitor {
        let mut ranked = Vec::new();
        let mut table = self.shapes.borrow_mut();
        let slot = table.slot(prop, &mut ranked);
        let atoms = ranked.iter().map(|a| self.atom_index(a)).collect();
        let det = table.shapes[slot].monitor.take().unwrap_or_else(|| {
            DetMonitor::new(&prop.map_atoms(&mut |a| {
                ranked
                    .iter()
                    .position(|x| x == a)
                    .expect("every atom is ranked")
            }))
        });
        ShapeMonitor { slot, det, atoms }
    }

    /// Gives back a monitor taken with [`StateGraph::take_monitor`] when
    /// its walk ends. The table keeps it while further walks of the shape
    /// are expected, and drops it after the last.
    pub(crate) fn return_monitor(&self, m: ShapeMonitor) {
        let shape = &mut self.shapes.borrow_mut().shapes[m.slot];
        shape.walks_left = shape.walks_left.saturating_sub(1);
        shape.monitor = (shape.walks_left > 0).then_some(m.det);
    }

    fn atom_index(&self, a: &RtlAtom) -> usize {
        match self.atoms.binary_search(a) {
            Ok(i) => i,
            Err(_) => panic!(
                "atom `{}` is not in the state graph's atom table — the graph \
                 must be built with every property it serves",
                a.render(self.problem.design),
            ),
        }
    }

    /// Captures the materialised core — nodes, monitor states, edge rows,
    /// structural statistics — as an immutable [`CoreSnapshot`]. Activity
    /// counters (`lookups`, `reuse_hits`) are zeroed: they describe walks,
    /// not the graph, and a graph resumed from the snapshot starts fresh.
    pub fn snapshot(&self) -> CoreSnapshot {
        let core = self.core.borrow();
        let nodes = core
            .nodes
            .iter()
            .map(|n| NodeSnapshot {
                regs: n.state.regs().to_vec(),
                assumptions: core.tuples[n.tuple as usize]
                    .iter()
                    .zip(&core.monitors)
                    .map(|(&id, m)| m.state(id).clone())
                    .collect(),
                row: n.row.as_ref().map(|r| (r.dests.to_vec(), r.bits.to_vec())),
            })
            .collect();
        let stats = GraphStats {
            lookups: 0,
            reuse_hits: 0,
            ..core.stats
        };
        CoreSnapshot {
            atoms: self.atoms.clone(),
            num_inputs: self.inputs.len(),
            words: self.words,
            num_regs: self.problem.design.num_regs(),
            num_monitors: core.monitors.len(),
            nodes,
            stats,
        }
    }

    /// Reconstructs a graph for `problem`/`props` from a snapshot, as if
    /// the original graph had been built in place — walks behave
    /// identically by the laziness invariant (see the module docs).
    ///
    /// Returns `None` unless the snapshot *provably* describes this exact
    /// problem: the atom table, dimensions, monitor arity, and initial
    /// product state must match, every edge row must be well-formed
    /// (destinations in range or [`PRUNED`]), the product states must be
    /// distinct, and the structural statistics must equal what the nodes
    /// actually contain. A snapshot from a different problem that slipped
    /// past the fingerprint (a hash collision) is therefore rejected here
    /// rather than producing a wrong verdict.
    pub fn from_snapshot<'a, I>(
        problem: &'p Problem<'d>,
        props: I,
        snap: &CoreSnapshot,
    ) -> Option<Self>
    where
        I: IntoIterator<Item = &'a Prop<RtlAtom>>,
    {
        let props: Vec<_> = props.into_iter().collect();
        let atoms = StateGraph::atom_table(problem, props.iter().copied());
        if atoms != snap.atoms {
            return None;
        }
        let graph = StateGraph::with_atoms(problem, atoms, &props);
        if graph.inputs.len() != snap.num_inputs
            || graph.words != snap.words
            || problem.design.num_regs() != snap.num_regs
        {
            return None;
        }
        {
            let mut core = graph.core.borrow_mut();
            if core.monitors.len() != snap.num_monitors || snap.nodes.is_empty() {
                return None;
            }
            let init_states = core
                .monitors
                .iter()
                .map(|m| m.state(DetMonitor::<RtlAtom>::INITIAL));
            if snap.nodes[0].regs != core.nodes[0].state.regs()
                || !snap.nodes[0].assumptions.iter().eq(init_states)
            {
                return None;
            }
            let num_nodes = snap.nodes.len();
            if u32::try_from(num_nodes).is_err() || snap.stats.nodes != num_nodes {
                return None;
            }
            let row_words = snap.num_inputs.checked_mul(snap.words)?;
            let mut nodes = Vec::with_capacity(num_nodes);
            let mut index = HashMap::with_capacity(num_nodes);
            let mut edges = 0u64;
            let mut pruned = 0u64;
            for (i, n) in snap.nodes.iter().enumerate() {
                if n.regs.len() != snap.num_regs || n.assumptions.len() != snap.num_monitors {
                    return None;
                }
                let state = State::from_regs(n.regs.clone());
                let row = match &n.row {
                    None => None,
                    Some((dests, bits)) => {
                        if dests.len() != snap.num_inputs || bits.len() != row_words {
                            return None;
                        }
                        for &d in dests {
                            if d == PRUNED {
                                pruned += 1;
                            } else if (d as usize) < num_nodes {
                                edges += 1;
                            } else {
                                return None;
                            }
                        }
                        Some(EdgeRow {
                            dests: dests.clone().into_boxed_slice(),
                            bits: bits.clone().into_boxed_slice(),
                        })
                    }
                };
                let tuple = core.intern(&n.assumptions);
                if index.insert((state.clone(), tuple), i as u32).is_some() {
                    return None;
                }
                nodes.push(GraphNode { state, tuple, row });
            }
            if edges != snap.stats.edges || pruned != snap.stats.pruned_edges {
                return None;
            }
            core.nodes = nodes;
            core.index = index;
            core.stats = GraphStats {
                lookups: 0,
                reuse_hits: 0,
                ..snap.stats
            };
        }
        Some(graph)
    }

    /// Reports the graph's construction/reuse counters (`graph.*`) and the
    /// shared assumption monitors' NFA metrics to a collector. Call once
    /// per graph, after the walks that use it.
    pub fn report_to(&self, collector: &dyn Collector) {
        let core = self.core.borrow();
        let s = core.stats;
        collector.counter("graph.nodes", s.nodes as u64, attrs![]);
        collector.counter("graph.edges", s.edges, attrs![]);
        collector.counter("graph.pruned_edges", s.pruned_edges, attrs![]);
        collector.counter("graph.lookups", s.lookups, attrs![]);
        collector.counter("graph.reuse_hits", s.reuse_hits, attrs![]);
        collector.counter("graph.atoms", self.atoms.len() as u64, attrs![]);
        collector.counter("graph.rows_built", core.rows_built, attrs![]);
        collector.counter("graph.sim_settles", core.sim_settles, attrs![]);
        let (steps, hits) = core
            .monitors
            .iter()
            .fold((0, 0), |(s, h), m| (s + m.steps, h + m.memo_hits));
        collector.counter("graph.assume_steps", steps, attrs![]);
        collector.counter("graph.assume_memo_hits", hits, attrs![]);
        if let Some(sp) = &self.splice {
            collector.counter("cone.graphs", 1, attrs![]);
            collector.counter("cone.total", sp.cones_total, attrs![]);
            collector.counter("cone.dirty", sp.cones_dirty, attrs![]);
            collector.counter("cone.spliced", sp.cones_total - sp.cones_dirty, attrs![]);
            collector.counter("cone.rows_copied", sp.rows_copied.get(), attrs![]);
            collector.counter("cone.rows_spliced", sp.rows_spliced.get(), attrs![]);
            collector.counter("cone.rows_recomputed", sp.rows_recomputed.get(), attrs![]);
        }
        for (m, d) in core.monitors.iter().zip(&self.problem.assumptions) {
            m.monitor.report_to(collector, &d.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Directive;
    use rtlcheck_rtl::DesignBuilder;
    use rtlcheck_sva::SvaBool;

    fn counter() -> rtlcheck_rtl::Design {
        let mut b = DesignBuilder::new("c");
        let en = b.input("en", 1);
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
    fn input_valuations_enumerate_the_product_in_order() {
        let mut b = DesignBuilder::new("d");
        let a = b.input("a", 2);
        let c = b.input("b", 1);
        let _ = a;
        let r = b.reg("r", 1, Some(0));
        let ce = b.sig(c);
        b.set_next(r, ce);
        let d = b.build().unwrap();
        let vals = input_valuations(&d);
        assert_eq!(vals.len(), 8);
        assert_eq!(vals[0], vec![0, 0]);
        assert_eq!(vals[1], vec![0, 1]);
        assert_eq!(vals[7], vec![3, 1]);
    }

    #[test]
    fn wide_inputs_panic_with_the_signal_name() {
        let mut b = DesignBuilder::new("d");
        let w = b.input("wide_bus", 20);
        let r = b.reg("r", 20, Some(0));
        let we = b.sig(w);
        b.set_next(r, we);
        let d = b.build().unwrap();
        let err = std::panic::catch_unwind(|| input_valuations(&d)).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message");
        assert!(msg.contains("wide_bus"), "{msg}");
        assert!(msg.contains("20 bits"), "{msg}");
    }

    /// A design whose inputs multiply out to exactly
    /// [`MAX_INPUT_VALUATIONS`] is accepted; one more bit anywhere is
    /// rejected. The boundary must not drift — the mutation campaign's
    /// designs sit near it.
    #[test]
    fn input_valuations_accept_exactly_the_limit() {
        let mut b = DesignBuilder::new("d");
        let a = b.input("a", 8); // 2^8 == MAX_INPUT_VALUATIONS
        let r = b.reg("r", 8, Some(0));
        let ae = b.sig(a);
        b.set_next(r, ae);
        let d = b.build().unwrap();
        assert_eq!(input_valuations(&d).len(), MAX_INPUT_VALUATIONS);
    }

    /// The panic names the input that crosses the limit *cumulatively* —
    /// a narrow input is still the offender when earlier inputs already
    /// used up the budget.
    #[test]
    fn cumulative_overflow_names_the_crossing_input() {
        let mut b = DesignBuilder::new("d");
        let a = b.input("grant_a", 8);
        let c = b.input("last_straw", 1); // 2^8 * 2 > MAX_INPUT_VALUATIONS
        let _ = a;
        let r = b.reg("r", 1, Some(0));
        let ce = b.sig(c);
        b.set_next(r, ce);
        let d = b.build().unwrap();
        let err = std::panic::catch_unwind(|| input_valuations(&d)).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message");
        assert!(msg.contains("last_straw"), "{msg}");
        assert!(msg.contains("1 bits"), "{msg}");
        assert!(!msg.contains("grant_a"), "{msg}");
    }

    #[test]
    fn warm_build_completes_small_designs_and_walks_reuse() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let problem = Problem::new(&d);
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 8)));
        let graph = StateGraph::build(&problem, [&prop], Engine::full(100_000));
        let s = graph.stats();
        assert!(s.complete, "{s:?}");
        assert_eq!(s.nodes, 8, "8 counter values");
        assert_eq!(s.reuse_hits, 0, "no walks yet");
        // An edge fetch after the warm-up is pure reuse.
        let mut bits = Vec::new();
        let dest = graph.edge(0, 1, &mut bits);
        assert_ne!(dest, PRUNED);
        assert_eq!(graph.stats().reuse_hits, 1);
    }

    #[test]
    fn pruned_edges_are_marked() {
        let d = counter();
        let en = d.signal_by_name("en").unwrap();
        let mut problem = Problem::new(&d);
        problem.assumptions.push(Directive::assume(
            "en_low",
            Prop::Never(SvaBool::atom(RtlAtom::is_true(en))),
        ));
        let graph = StateGraph::build(&problem, [], Engine::full(100_000));
        let s = graph.stats();
        assert!(s.complete);
        // Enable pinned low: the counter never leaves 0. Two product nodes
        // remain (the monitor's state changes once on its first step).
        assert_eq!(s.nodes, 2, "{s:?}");
        assert_eq!(s.pruned_edges, 2, "the en=1 edge is pruned at each node");
        assert_eq!(s.edges, 2, "only the en=0 edges remain");
    }

    #[test]
    fn edge_bits_carry_atom_valuations() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let en = d.signal_by_name("en").unwrap();
        let problem = Problem::new(&d);
        let p0 = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 0)));
        let p1 = Prop::Never(SvaBool::atom(RtlAtom::is_true(en)));
        let graph = StateGraph::new(&problem, [&p0, &p1]);
        assert_eq!(graph.atoms().len(), 2);
        let mut bits = Vec::new();
        // At the reset state (count == 0) with en = 1: both atoms true.
        graph.edge(0, 1, &mut bits);
        let idx_count = graph.map_bool(&SvaBool::atom(RtlAtom::eq(count, 0)));
        let idx_en = graph.map_bool(&SvaBool::atom(RtlAtom::is_true(en)));
        for b in [idx_count, idx_en] {
            assert!(b.eval(&|i: &usize| bits[i / 64] & (1 << (i % 64)) != 0));
        }
        // With en = 0 the en atom is false.
        graph.edge(0, 0, &mut bits);
        let b = graph.map_bool(&SvaBool::atom(RtlAtom::is_true(en)));
        assert!(!b.eval(&|i: &usize| bits[i / 64] & (1 << (i % 64)) != 0));
    }

    #[test]
    fn properties_of_one_shape_share_a_monitor() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let en = d.signal_by_name("en").unwrap();
        let problem = Problem::new(&d);
        let never = |a| Prop::Never(SvaBool::atom(a));
        let either = |a, b| Prop::Or(vec![never(a), never(b)]);
        let (c3, c5, on) = (
            RtlAtom::eq(count, 3),
            RtlAtom::eq(count, 5),
            RtlAtom::is_true(en),
        );
        let props = [either(c3, on), either(on, c3), either(c5, c5), never(c3)];
        let graph = StateGraph::new(&problem, &props);
        let index = |a| graph.atoms().binary_search(&a).unwrap();

        let mut a = graph.take_monitor(&props[0]);
        assert_eq!(a.atoms, [index(c3), index(on)]);
        a.det.step(DetMonitor::<usize>::INITIAL, |_| false);
        graph.return_monitor(a);
        // The operand-swapped copy has the same shape, so its walk gets
        // the monitor back, stepping it through its own atom order.
        let b = graph.take_monitor(&props[1]);
        assert_eq!((b.slot, &b.atoms), (0, &vec![index(on), index(c3)]));
        assert_eq!(b.det.steps, 1);
        // The graph was built for two walks of the shape: after the second
        // the monitor is dropped, and a further walk builds a fresh one.
        graph.return_monitor(b);
        assert_eq!(graph.take_monitor(&props[0]).det.steps, 0);
        // A repeated atom and a lone `never` are other shapes.
        let slots = [&props[2], &props[3]].map(|p| graph.take_monitor(p).slot);
        assert_eq!(slots, [1, 2]);
    }

    #[test]
    #[should_panic(expected = "not in the state graph's atom table")]
    fn mapping_a_foreign_atom_panics() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let problem = Problem::new(&d);
        let graph = StateGraph::new(&problem, []);
        let _ = graph.map_bool(&SvaBool::atom(RtlAtom::eq(count, 3)));
    }

    /// The counter with a mutated increment (`count + 2`): same signal
    /// table as [`counter`], one dirty register cone.
    fn counter_by_two() -> rtlcheck_rtl::Design {
        let mut b = DesignBuilder::new("c");
        let en = b.input("en", 1);
        let count = b.reg("count", 3, Some(0));
        let two = b.lit(2, 3);
        let ce = b.sig(count);
        let sum = b.add(ce, two);
        let ene = b.sig(en);
        let hold = b.sig(count);
        let nxt = b.mux(ene, sum, hold);
        b.set_next(count, nxt);
        b.build().unwrap()
    }

    #[test]
    fn splice_is_bit_identical_to_cold_and_validates() {
        let base = counter();
        let mutant = counter_by_two();
        let count = base.signal_by_name("count").unwrap();
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 7)));
        let bproblem = Problem::new(&base);
        let bgraph = StateGraph::build(&bproblem, [&prop], Engine::full(100_000));
        let bsnap = Arc::new(bgraph.snapshot());
        let dirty = ConeSet::diff(&base, &mutant).unwrap();
        assert!(!dirty.regs.is_empty());

        let mproblem = Problem::new(&mutant);
        let cold = StateGraph::build(&mproblem, [&prop], Engine::full(100_000));
        let spliced = StateGraph::splice(
            &mproblem,
            [&prop],
            bsnap.clone(),
            &dirty,
            Engine::full(100_000),
            true,
        )
        .expect("compatible tables and clean monitors must splice");
        assert_eq!(spliced.stats(), cold.stats());
        assert_eq!(spliced.snapshot(), cold.snapshot(), "bit-identical core");
        let sp = spliced.splice.as_ref().unwrap();
        assert_eq!(sp.cones_total, 1);
        assert_eq!(sp.cones_dirty, 1);
        assert!(
            sp.rows_spliced.get() > 0,
            "shared product states splice their rows"
        );
    }

    #[test]
    fn splice_with_nothing_dirty_is_pure_copy() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 7)));
        let problem = Problem::new(&d);
        let bgraph = StateGraph::build(&problem, [&prop], Engine::full(100_000));
        let bsnap = Arc::new(bgraph.snapshot());
        let spliced = StateGraph::splice(
            &problem,
            [&prop],
            bsnap,
            &ConeSet::empty(),
            Engine::full(100_000),
            true,
        )
        .unwrap();
        assert_eq!(spliced.snapshot(), bgraph.snapshot());
        let sp = spliced.splice.as_ref().unwrap();
        assert!(sp.rows_copied.get() > 0);
        assert_eq!(sp.rows_spliced.get(), 0);
        assert_eq!(sp.rows_recomputed.get(), 0);
    }

    /// Satellite edge case: every cone dirty — the splice degenerates to
    /// re-simulating every register of every row, identically to a cold
    /// build.
    #[test]
    fn splice_with_every_cone_dirty_degenerates_to_cold() {
        let base = counter();
        let mutant = counter_by_two();
        let count = base.signal_by_name("count").unwrap();
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 7)));
        let bproblem = Problem::new(&base);
        let bsnap =
            Arc::new(StateGraph::build(&bproblem, [&prop], Engine::full(100_000)).snapshot());

        let mproblem = Problem::new(&mutant);
        let cold = StateGraph::build(&mproblem, [&prop], Engine::full(100_000));
        let all = ConeSet::all(&mutant);
        let spliced =
            StateGraph::splice(&mproblem, [&prop], bsnap, &all, Engine::full(100_000), true)
                .unwrap();
        assert_eq!(cold.snapshot(), spliced.snapshot(), "identical core");
        let sp = spliced.splice.as_ref().unwrap();
        assert_eq!(sp.cones_dirty, sp.cones_total, "every cone invalidated");
        assert_eq!(sp.rows_copied.get(), 0, "nothing left to copy");
    }

    /// A mutation that dirties a wire an assumption directive reads must
    /// refuse to splice: monitor stepping could diverge.
    #[test]
    fn splice_refuses_dirty_assumption_atoms() {
        // Baseline: a wire `gate` over en; assumption `Never gate`.
        let build = |invert: bool| {
            let mut b = DesignBuilder::new("d");
            let en = b.input("en", 1);
            let count = b.reg("count", 3, Some(0));
            let one = b.lit(1, 3);
            let ce = b.sig(count);
            let sum = b.add(ce, one);
            let ene = b.sig(en);
            let hold = b.sig(count);
            let nxt = b.mux(ene, sum, hold);
            b.set_next(count, nxt);
            let g = if invert { b.not(en) } else { b.sig(en) };
            b.wire("gate", g);
            b.build().unwrap()
        };
        let base = build(false);
        let mutant = build(true);
        let gate = base.signal_by_name("gate").unwrap();
        let count = base.signal_by_name("count").unwrap();
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 7)));
        let mut bproblem = Problem::new(&base);
        bproblem.assumptions.push(Directive::assume(
            "gate_low",
            Prop::Never(SvaBool::atom(RtlAtom::is_true(gate))),
        ));
        let bsnap =
            Arc::new(StateGraph::build(&bproblem, [&prop], Engine::full(100_000)).snapshot());
        let dirty = ConeSet::diff(&base, &mutant).unwrap();
        assert!(dirty.wire_dirty(gate));
        let mut mproblem = Problem::new(&mutant);
        mproblem.assumptions.push(Directive::assume(
            "gate_low",
            Prop::Never(SvaBool::atom(RtlAtom::is_true(gate))),
        ));
        assert!(
            StateGraph::splice(
                &mproblem,
                [&prop],
                bsnap,
                &dirty,
                Engine::full(100_000),
                false
            )
            .is_none(),
            "an assumption over a dirty wire must force the cold path"
        );
    }

    /// An init-only mutation shifts the BFS root: the new initial node is
    /// absent from the baseline and re-simulates cold, but every state the
    /// baseline did reach still copies.
    #[test]
    fn splice_handles_a_shifted_initial_state() {
        let base = counter();
        let mut b = DesignBuilder::new("c");
        let en = b.input("en", 1);
        let count = b.reg("count", 3, Some(5));
        let one = b.lit(1, 3);
        let ce = b.sig(count);
        let sum = b.add(ce, one);
        let ene = b.sig(en);
        let hold = b.sig(count);
        let nxt = b.mux(ene, sum, hold);
        b.set_next(count, nxt);
        let mutant = b.build().unwrap();

        let count_id = base.signal_by_name("count").unwrap();
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count_id, 7)));
        let bproblem = Problem::new(&base);
        // A shallow baseline: only part of the space is materialised, so
        // the splice exercises both copy and cold-fallback rows.
        let bgraph = StateGraph::build(&bproblem, [&prop], Engine::bounded(2, 100_000));
        let bsnap = Arc::new(bgraph.snapshot());
        let dirty = ConeSet::diff(&base, &mutant).unwrap();
        assert!(dirty.regs.is_empty() && dirty.wires.is_empty());
        assert!(!dirty.init_regs.is_empty());

        let mproblem = Problem::new(&mutant);
        let cold = StateGraph::build(&mproblem, [&prop], Engine::full(100_000));
        let spliced = StateGraph::splice(
            &mproblem,
            [&prop],
            bsnap,
            &dirty,
            Engine::full(100_000),
            true,
        )
        .unwrap();
        assert_eq!(spliced.snapshot(), cold.snapshot());
        let sp = spliced.splice.as_ref().unwrap();
        assert!(sp.rows_copied.get() > 0, "baseline-reached states copy");
        assert!(sp.rows_recomputed.get() > 0, "unreached states rebuild");
    }
}
