//! The composed (modular) verification backend.
//!
//! RealityCheck (see PAPERS.md) verifies large designs by splitting them
//! into modules, verifying each module against an *interface
//! specification*, and composing the per-module results at the interfaces.
//! [`ComposedGraph`] is that architecture behind the existing
//! [`Backend`] trait:
//!
//! * The design is partitioned into **module regions** with
//!   [`rtlcheck_rtl::region::RegionPartition`]: maximal register groups
//!   closed under next-state reads, with the primary inputs as the *cut
//!   signals* at each region's interface.
//! * `Composition::analyze` assigns every property atom and every
//!   assumption monitor to the region its signals read, merging regions a
//!   monitor or atom spans — after which each region's behaviour (next
//!   register values, monitor verdicts, atom valuations) is a function of
//!   only its own registers, its monitors' states, and the cut-signal
//!   valuation. That function *is* the region's interface spec, and it is
//!   materialised as a memoised table of **region rows**: for each
//!   `(region registers, region monitor states)` point, the per-input
//!   verdict/next-state/atom-bits vector, bounded exactly like the flat
//!   graph by the assumption monitors (a failing monitor marks the entry
//!   inadmissible).
//! * The full product graph is then assembled by **product-walking only
//!   the interface-visible state**: each node's edge row is the join of
//!   its regions' rows — admissibility is the conjunction, destinations
//!   and atom bitsets the scatter/union — so a region row computed once
//!   serves every product node that projects onto it.
//!
//! The composition is **never wrong, only sometimes no faster**: when the
//! cut is non-conservative — the design has no registers, or everything
//! collapses into a single region (as Multi-V-scale's arbiter coupling
//! does) — [`ComposedGraph::build`] returns a structured
//! [`ComposedFallback`] and the caller runs the flat engine, emitting a
//! `composed.fallback` event. When it does compose, the resulting graph is
//! **byte-identical** to the flat explicit one: same nodes in the same
//! discovery order, same edges, prunes, atom bitsets, statistics, and
//! snapshots — only the construction cost differs. The full-suite
//! differential test and the cut-soundness proptest hold it to exactly
//! that.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use rtlcheck_obs::Collector;
use rtlcheck_rtl::region::{RegionPartition, SupportIndex};
use rtlcheck_rtl::sim::State;
use rtlcheck_rtl::{SignalId, SignalKind};
use rtlcheck_sva::{Prop, SvaBool};

use crate::atom::{RtlAtom, RtlBool};
use crate::backend::{Backend, EdgeClass};
use crate::cache::CoreSnapshot;
use crate::engine::Engine;
use crate::graph::{GraphStats, StateGraph};
use crate::problem::Problem;

/// Why a problem could not be decomposed — the structured reason carried
/// by the `composed.fallback` event when the caller reverts to the flat
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComposedFallback {
    /// Atom/monitor coupling (or the design's own register reads) merged
    /// everything into one region: composing would just be the flat build
    /// with extra bookkeeping.
    SingleRegion,
    /// The design has no registers — there is nothing to partition.
    NoRegisters,
}

impl ComposedFallback {
    /// Stable lower-snake-case label (event/counter attribute value).
    pub fn reason(self) -> &'static str {
        match self {
            ComposedFallback::SingleRegion => "single_region",
            ComposedFallback::NoRegisters => "no_registers",
        }
    }
}

impl fmt::Display for ComposedFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposedFallback::SingleRegion => {
                write!(f, "design collapses into a single module region")
            }
            ComposedFallback::NoRegisters => write!(f, "design has no registers"),
        }
    }
}

/// One region's verification context: the registers it owns, the
/// assumption monitors bounded to it, and the atoms it evaluates.
#[derive(Debug)]
pub(crate) struct RegionCtx {
    /// Dense register index per region register, in region order
    /// (sorted by signal id).
    pub(crate) regs: Vec<usize>,
    /// Indices into `problem.assumptions` of the monitors whose atoms this
    /// region owns, ascending.
    pub(crate) monitors: Vec<usize>,
    /// The region's atoms, grouped by signal exactly like the flat graph's
    /// `sig_atoms` (atom-table index, expected value).
    pub(crate) sig_atoms: Vec<(SignalId, Vec<(usize, u64)>)>,
    /// The region's interface cut signals (primary inputs it reads).
    pub(crate) cuts: Vec<SignalId>,
}

/// One `(region state, input valuation)` interface-spec entry.
#[derive(Debug)]
pub(crate) struct RegionEntry {
    /// Whether one of the region's assumption monitors failed.
    pub(crate) failed: bool,
    /// The region's monitors' next interned state ids (region-local
    /// order).
    pub(crate) next_states: Vec<u32>,
    /// The region's registers' next values (region-local order, masked).
    pub(crate) next_regs: Vec<u64>,
    /// The region's atom valuations, positioned in the *global* bitset
    /// layout (atom-table indices are global).
    pub(crate) bits: Vec<u64>,
}

/// One region row: the region's interface spec at one
/// `(region registers, region monitor states)` point — an entry per input
/// valuation.
#[derive(Debug)]
pub(crate) struct RegionRow {
    pub(crate) entries: Vec<RegionEntry>,
}

/// Memo key of a region row: the projection of a product node onto one
/// region's interface-visible state.
pub(crate) type RegionKey = (Vec<u64>, Vec<u32>);

/// The analyzed decomposition of a problem, installed into a
/// [`StateGraph`] to drive composed row construction.
#[derive(Debug)]
pub(crate) struct Composition {
    pub(crate) regions: Vec<RegionCtx>,
    /// Per assumption-directive index: `(region, position within that
    /// region's monitor list)` — used to reassemble monitor-state vectors
    /// in directive order.
    pub(crate) monitor_slot: Vec<(usize, usize)>,
    /// Atoms reading only inputs/constants: state-independent, evaluated
    /// once per input valuation at attach time.
    pub(crate) global_sig_atoms: Vec<(SignalId, Vec<(usize, u64)>)>,
    /// Precomputed global atom bits, one bitset per input valuation
    /// (filled by [`StateGraph::attach_composition`]).
    pub(crate) global_bits: Vec<Vec<u64>>,
    /// Per-region interface-spec tables.
    pub(crate) memo: RefCell<Vec<HashMap<RegionKey, Rc<RegionRow>>>>,
    /// Region rows served from the memo.
    pub(crate) memo_hits: Cell<u64>,
    /// Region rows computed (interface-spec entries materialised).
    pub(crate) memo_misses: Cell<u64>,
}

fn push_sig_atom(
    list: &mut Vec<(SignalId, Vec<(usize, u64)>)>,
    sig: SignalId,
    index: usize,
    value: u64,
) {
    match list.last_mut() {
        Some((s, l)) if *s == sig => l.push((index, value)),
        _ => list.push((sig, vec![(index, value)])),
    }
}

impl Composition {
    /// Analyzes a problem against its atom table: partitions the design
    /// into module regions, merges regions coupled by a spanning atom or
    /// assumption monitor, and assigns every atom and monitor to its
    /// region (or to the input-only global set).
    ///
    /// Returns a [`ComposedFallback`] when decomposition cannot help:
    /// no registers, or everything merged into one region.
    pub(crate) fn analyze(
        problem: &Problem<'_>,
        atoms: &[RtlAtom],
    ) -> Result<Composition, ComposedFallback> {
        let design = problem.design;
        if design.num_regs() == 0 {
            return Err(ComposedFallback::NoRegisters);
        }
        let base = RegionPartition::of(design);
        let support = SupportIndex::of(design);
        let regions_of = |sig: SignalId| -> Vec<usize> {
            let mut rs: Vec<usize> = support
                .leaves(sig)
                .iter()
                .filter_map(|&l| base.region_of(l))
                .collect();
            rs.sort_unstable();
            rs.dedup();
            rs
        };
        // An atom or monitor whose signals read several regions couples
        // them: the regions must be verified together for its valuation /
        // verdict to be a function of one region's interface state.
        let mut links: Vec<(usize, usize)> = Vec::new();
        for a in atoms {
            let rs = regions_of(a.sig);
            links.extend(rs.windows(2).map(|w| (w[0], w[1])));
        }
        for d in &problem.assumptions {
            let mut rs = Vec::new();
            d.prop.for_each_atom(&mut |a| rs.extend(regions_of(a.sig)));
            rs.sort_unstable();
            rs.dedup();
            links.extend(rs.windows(2).map(|w| (w[0], w[1])));
        }
        let part = base.merged(&links);
        if part.len() < 2 {
            return Err(ComposedFallback::SingleRegion);
        }
        let mut regions: Vec<RegionCtx> = part
            .regions()
            .iter()
            .map(|r| {
                let regs = r
                    .regs
                    .iter()
                    .map(|&id| {
                        let SignalKind::Reg { index, .. } = design.signal(id).kind else {
                            unreachable!("region members are registers");
                        };
                        index
                    })
                    .collect();
                RegionCtx {
                    regs,
                    monitors: Vec::new(),
                    sig_atoms: Vec::new(),
                    cuts: r.cuts.clone(),
                }
            })
            .collect();
        debug_assert_eq!(
            regions.iter().map(|r| r.regs.len()).sum::<usize>(),
            design.num_regs(),
            "regions partition the registers"
        );
        // After merging, every signal's register leaves sit in at most one
        // region; `None` means input/constant-only (state-independent).
        let region_for = |sig: SignalId| -> Option<usize> {
            let mut out = None;
            for &l in support.leaves(sig) {
                if let Some(r) = part.region_of(l) {
                    debug_assert!(
                        out.is_none() || out == Some(r),
                        "spanning signals were merged into one region"
                    );
                    out = Some(r);
                }
            }
            out
        };
        let mut global_sig_atoms = Vec::new();
        for (i, a) in atoms.iter().enumerate() {
            match region_for(a.sig) {
                Some(r) => push_sig_atom(&mut regions[r].sig_atoms, a.sig, i, a.value),
                None => push_sig_atom(&mut global_sig_atoms, a.sig, i, a.value),
            }
        }
        let mut monitor_slot = Vec::with_capacity(problem.assumptions.len());
        for (di, d) in problem.assumptions.iter().enumerate() {
            let mut target = None;
            d.prop.for_each_atom(&mut |a| {
                if let Some(r) = region_for(a.sig) {
                    target = Some(r);
                }
            });
            // Input-only monitors are state-independent; park them in
            // region 0 (any region steps them identically).
            let r = target.unwrap_or(0);
            monitor_slot.push((r, regions[r].monitors.len()));
            regions[r].monitors.push(di);
        }
        Ok(Composition {
            regions,
            monitor_slot,
            global_sig_atoms,
            global_bits: Vec::new(),
            memo: RefCell::new(Vec::new()),
            memo_hits: Cell::new(0),
            memo_misses: Cell::new(0),
        })
    }

    /// Number of module regions.
    pub(crate) fn num_regions(&self) -> usize {
        self.regions.len()
    }
}

/// The modular backend: a [`StateGraph`] whose rows are assembled from
/// per-region interface specs instead of whole-product simulation. See the
/// module docs for the construction and the byte-parity argument.
#[derive(Debug)]
pub struct ComposedGraph<'p, 'd> {
    inner: StateGraph<'p, 'd>,
    regions: usize,
}

impl<'p, 'd> ComposedGraph<'p, 'd> {
    /// Analyzes and builds the composed graph with the same eager
    /// breadth-first warm-up as [`StateGraph::build`].
    ///
    /// # Errors
    ///
    /// Returns a [`ComposedFallback`] when the problem does not decompose
    /// (run the flat engine instead — same verdicts, no speedup).
    ///
    /// # Panics
    ///
    /// Panics like [`StateGraph::new`] on unpinned free-init registers or
    /// a too-wide input space.
    pub fn build<'a, I>(
        problem: &'p Problem<'d>,
        props: I,
        engine: Engine,
    ) -> Result<Self, ComposedFallback>
    where
        I: IntoIterator<Item = &'a Prop<RtlAtom>>,
    {
        let atoms = StateGraph::atom_table(problem, props);
        let comp = Composition::analyze(problem, &atoms)?;
        let regions = comp.num_regions();
        Ok(ComposedGraph {
            inner: StateGraph::build_composed(problem, atoms, comp, engine),
            regions,
        })
    }

    /// Reconstructs a composed graph from a cached [`CoreSnapshot`]
    /// (composed and flat cores are byte-identical, so the snapshot format
    /// is shared). `Ok(None)` mirrors [`StateGraph::from_snapshot`]: the
    /// snapshot does not provably describe this problem.
    ///
    /// # Errors
    ///
    /// Returns a [`ComposedFallback`] when the problem does not decompose.
    pub fn from_snapshot<'a, I>(
        problem: &'p Problem<'d>,
        props: I,
        snap: &CoreSnapshot,
    ) -> Result<Option<Self>, ComposedFallback>
    where
        I: IntoIterator<Item = &'a Prop<RtlAtom>>,
    {
        let props: Vec<&'a Prop<RtlAtom>> = props.into_iter().collect();
        let atoms = StateGraph::atom_table(problem, props.iter().copied());
        let comp = Composition::analyze(problem, &atoms)?;
        let regions = comp.num_regions();
        match StateGraph::from_snapshot(problem, props, snap) {
            Some(mut inner) => {
                inner.attach_composition(comp);
                Ok(Some(ComposedGraph { inner, regions }))
            }
            None => Ok(None),
        }
    }

    /// The underlying flat-compatible graph (for snapshotting/caching —
    /// the core is byte-identical to a flat explicit build).
    pub fn as_flat(&self) -> &StateGraph<'p, 'd> {
        &self.inner
    }

    /// Number of module regions the problem decomposed into.
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Captures the materialised core; identical to the flat graph's
    /// snapshot of the same problem.
    pub fn snapshot(&self) -> CoreSnapshot {
        self.inner.snapshot()
    }

    /// Current construction/reuse statistics.
    pub fn stats(&self) -> GraphStats {
        self.inner.stats()
    }

    /// The problem this graph was built from.
    pub fn problem(&self) -> &'p Problem<'d> {
        self.inner.problem()
    }
}

impl Backend for ComposedGraph<'_, '_> {
    fn problem(&self) -> &Problem<'_> {
        self.inner.problem()
    }

    fn atoms(&self) -> &[RtlAtom] {
        self.inner.atoms()
    }

    fn map_prop(&self, prop: &Prop<RtlAtom>) -> Prop<usize> {
        self.inner.map_prop(prop)
    }

    fn map_bool(&self, b: &RtlBool) -> SvaBool<usize> {
        self.inner.map_bool(b)
    }

    fn num_edge_classes(&self, node: u32) -> usize {
        Backend::num_edge_classes(&self.inner, node)
    }

    fn edge_class(&self, node: u32, class: usize, bits_out: &mut Vec<u64>) -> EdgeClass {
        Backend::edge_class(&self.inner, node, class, bits_out)
    }

    fn class_input(&self, node: u32, class: usize) -> Vec<u64> {
        Backend::class_input(&self.inner, node, class)
    }

    fn class_prefix(&self, node: u32, class: usize) -> (u128, u128) {
        Backend::class_prefix(&self.inner, node, class)
    }

    fn node_state(&self, node: u32) -> State {
        Backend::node_state(&self.inner, node)
    }

    fn stats(&self) -> GraphStats {
        self.inner.stats()
    }

    fn report_to(&self, collector: &dyn Collector) {
        self.inner.report_to(collector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Directive;
    use rtlcheck_rtl::scaled;
    use rtlcheck_rtl::DesignBuilder;

    /// Two independent 2-bit counters over a shared 1-bit enable.
    fn two_counters() -> rtlcheck_rtl::Design {
        let mut b = DesignBuilder::new("d");
        let en = b.input("en", 1);
        let ene = b.sig(en);
        for name in ["a", "b"] {
            let r = b.reg(name, 2, Some(0));
            let one = b.lit(1, 2);
            let re = b.sig(r);
            let sum = b.add(re, one);
            let hold = b.sig(r);
            let nxt = b.mux(ene, sum, hold);
            b.set_next(r, nxt);
        }
        b.build().unwrap()
    }

    #[test]
    fn independent_counters_decompose_into_two_regions() {
        let d = two_counters();
        let a = d.signal_by_name("a").unwrap();
        let problem = Problem::new(&d);
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(a, 3)));
        let graph =
            ComposedGraph::build(&problem, [&prop], Engine::full(100_000)).expect("decomposes");
        assert_eq!(graph.regions(), 2);
        let flat = StateGraph::build(&problem, [&prop], Engine::full(100_000));
        assert_eq!(graph.stats(), flat.stats());
        assert_eq!(graph.snapshot(), flat.snapshot(), "byte-identical core");
    }

    #[test]
    fn composed_parity_holds_with_assumptions_and_pruning() {
        let d = two_counters();
        let a = d.signal_by_name("a").unwrap();
        let b_sig = d.signal_by_name("b").unwrap();
        let en = d.signal_by_name("en").unwrap();
        let mut problem = Problem::new(&d);
        // One monitor per region plus an input-only monitor that prunes.
        problem.assumptions.push(Directive::assume(
            "a_low",
            Prop::Never(SvaBool::atom(RtlAtom::eq(a, 3))),
        ));
        problem.assumptions.push(Directive::assume(
            "b_any",
            Prop::Never(SvaBool::atom(RtlAtom::eq(b_sig, 3))),
        ));
        problem.assumptions.push(Directive::assume(
            "en_high",
            Prop::Never(SvaBool::not(SvaBool::atom(RtlAtom::is_true(en)))),
        ));
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(a, 2)));
        let composed =
            ComposedGraph::build(&problem, [&prop], Engine::full(100_000)).expect("decomposes");
        let flat = StateGraph::build(&problem, [&prop], Engine::full(100_000));
        assert_eq!(composed.stats(), flat.stats());
        assert_eq!(composed.snapshot(), flat.snapshot());
        assert!(composed.stats().pruned_edges > 0, "en=0 edges prune");
    }

    #[test]
    fn spanning_assumption_merges_regions_into_fallback() {
        let d = two_counters();
        let a = d.signal_by_name("a").unwrap();
        let b_sig = d.signal_by_name("b").unwrap();
        let mut problem = Problem::new(&d);
        // A monitor reading both counters couples the two regions.
        problem.assumptions.push(Directive::assume(
            "coupled",
            Prop::Never(SvaBool::and(
                SvaBool::atom(RtlAtom::eq(a, 3)),
                SvaBool::atom(RtlAtom::eq(b_sig, 3)),
            )),
        ));
        let err = ComposedGraph::build(&problem, [], Engine::full(100_000)).unwrap_err();
        assert_eq!(err, ComposedFallback::SingleRegion);
        assert_eq!(err.reason(), "single_region");
    }

    #[test]
    fn registerless_design_falls_back() {
        let mut b = DesignBuilder::new("comb");
        let i = b.input("i", 1);
        let e = b.sig(i);
        b.wire("w", e);
        let d = b.build().unwrap();
        let problem = Problem::new(&d);
        let err = ComposedGraph::build(&problem, [], Engine::full(100_000)).unwrap_err();
        assert_eq!(err, ComposedFallback::NoRegisters);
        assert_eq!(err.reason(), "no_registers");
    }

    #[test]
    fn snapshot_round_trips_through_from_snapshot() {
        let d = two_counters();
        let a = d.signal_by_name("a").unwrap();
        let problem = Problem::new(&d);
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(a, 3)));
        let built =
            ComposedGraph::build(&problem, [&prop], Engine::full(100_000)).expect("decomposes");
        let snap = built.snapshot();
        let resumed = ComposedGraph::from_snapshot(&problem, [&prop], &snap)
            .expect("decomposes")
            .expect("snapshot describes the problem");
        assert_eq!(resumed.snapshot(), snap);
        assert_eq!(resumed.regions(), built.regions());
    }

    #[test]
    fn scaled_design_composes_and_matches_flat() {
        let d = scaled::build(8);
        let hub = d.signal_by_name("hub").unwrap();
        let lane = d.signal_by_name("lane003").unwrap();
        let problem = Problem::new(&d);
        let p0 = Prop::Never(SvaBool::atom(RtlAtom::eq(hub, 255)));
        let p1 = Prop::Never(SvaBool::atom(RtlAtom::eq(lane, 15)));
        let composed = ComposedGraph::build(&problem, [&p0, &p1], Engine::full(100_000))
            .expect("hub + lanes decomposes");
        assert_eq!(composed.regions(), 9);
        let flat = StateGraph::build(&problem, [&p0, &p1], Engine::full(100_000));
        assert_eq!(composed.stats(), flat.stats());
        assert_eq!(composed.snapshot(), flat.snapshot());
    }
}
