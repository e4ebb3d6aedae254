//! The product-state exploration core.
//!
//! Since the engine split, exploration is factored in two:
//!
//! * [`crate::graph::StateGraph`] materialises the shared part of a test's
//!   product space — design states × assumption-monitor states, with
//!   per-edge atom valuations — once per [`Problem`].
//! * `Walk` (internal) layers one assertion monitor's NFA over the cached
//!   graph, determinising it lazily: monitor states are interned to dense
//!   ids and transitions memoised (`DetMonitor`), once per property shape
//!   and graph, so walks of properties that differ only in their signals
//!   share the work.
//!   [`verify_property`] and [`check_cover`] are thin drivers around
//!   walks; their budget semantics ([`Engine`] limits, bounded-vs-complete
//!   verdicts, [`ExploreStats`]) are bit-for-bit those of the pre-split
//!   monolithic exploration.
//!
//! The monolithic exploration is retained at the bottom of this file as
//! [`verify_property_reference`]/[`check_cover_reference`] — a deliberately
//! independent implementation the differential tests compare against.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rtlcheck_obs::{attrs, span, Collector, NullCollector};
use rtlcheck_rtl::sim::{Simulator, State};
use rtlcheck_rtl::waveform::Trace;
use rtlcheck_sva::{Monitor, MonitorMetrics, MonitorState, Prop, SvaBool};

use crate::atom::RtlAtom;
use crate::det::{DetMonitor, IdMap, FAILED};
use crate::engine::{Engine, EngineKind, PropertyVerdict, VerifyConfig};
use crate::graph::{input_valuations, ShapeMonitor, StateGraph, PRUNED};
use crate::problem::Problem;

/// Statistics from one exploration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct product states discovered.
    pub states: usize,
    /// Transitions taken (admissible ones).
    pub transitions: u64,
    /// Transitions discarded because an assumption failed.
    pub pruned_by_assumptions: u64,
    /// BFS layers (clock cycles) fully expanded.
    pub depth_completed: u32,
}

impl ExploreStats {
    /// Whether the assumption set admitted no execution at all — every
    /// first-cycle transition was pruned. Such a run "proves" properties
    /// only vacuously (JasperGold reports conflicting assumptions).
    pub fn vacuous(&self) -> bool {
        self.transitions == 0
    }
}

/// Verdict of a covering-trace search (§4.1).
#[derive(Debug, Clone)]
pub enum CoverVerdict {
    /// An admissible trace reaching the cover condition. For a final-value
    /// assumption's antecedent this is an execution of the complete litmus
    /// outcome — on a forbidden outcome, a bug witness.
    Covered(Trace, ExploreStats),
    /// The cover condition is unreachable under the assumptions: the
    /// litmus test is verified without checking any assertion.
    Unreachable(ExploreStats),
    /// The exploration budget ran out first.
    Unknown(ExploreStats),
}

impl CoverVerdict {
    /// The run's statistics.
    pub fn stats(&self) -> ExploreStats {
        match self {
            CoverVerdict::Covered(_, s)
            | CoverVerdict::Unreachable(s)
            | CoverVerdict::Unknown(s) => *s,
        }
    }
}

/// Internal outcome of one engine run.
enum RunOutcome {
    Exhausted,
    BudgetHit,
    AssertFailed(Trace),
    Covered(Trace),
}

#[derive(Clone, Copy)]
enum Step {
    Pruned,
    Known,
    New(usize),
    AssertFailed,
    Covered,
}

// ---------------------------------------------------------------------------
// The graph walk: one assertion (or cover) NFA over the shared graph.
// ---------------------------------------------------------------------------

/// Walk-node monitor id of walks without an assertion (cover searches).
const NO_MONITOR: u32 = u32::MAX;

/// One node of a walk: a graph node paired with the interned id of the
/// assertion monitor's state at that node (or [`NO_MONITOR`]).
struct WalkNode {
    graph_node: u32,
    monitor: u32,
    /// `(parent walk-node index, input index of the edge into this node)`.
    parent: Option<(usize, usize)>,
}

/// What one engine run reports ([`RunRecord::report`]): its statistics
/// and, for property walks, the assertion monitor's work.
#[derive(Clone, Copy)]
struct RunRecord {
    stats: ExploreStats,
    monitor: Option<MonitorRecord>,
}

/// The assertion monitor's part of a [`RunRecord`].
#[derive(Clone, Copy)]
struct MonitorRecord {
    /// Real monitor steps and memo hits ([`DetMonitor`]).
    steps: u64,
    memo_hits: u64,
    metrics: MonitorMetrics,
}

impl MonitorRecord {
    /// Everything `det` has done so far.
    fn of(det: &DetMonitor<usize>) -> Self {
        MonitorRecord {
            steps: det.steps,
            memo_hits: det.memo_hits,
            metrics: det.monitor.metrics(),
        }
    }

    /// The work done since `base`, with the automaton's static size.
    fn since(self, base: MonitorRecord) -> Self {
        MonitorRecord {
            steps: self.steps - base.steps,
            memo_hits: self.memo_hits - base.memo_hits,
            metrics: MonitorMetrics {
                attempts: self.metrics.attempts - base.metrics.attempts,
                first_filter_hits: self.metrics.first_filter_hits - base.metrics.first_filter_hits,
                ..self.metrics
            },
        }
    }
}

impl RunRecord {
    /// Reports the run to a collector: the exploration counters under
    /// `engine.<scope>.*` (so the profile view can relate work done to the
    /// engine's budget) and the assertion monitor's NFA metrics.
    /// (Assumption-monitor metrics live on the shared graph; see
    /// [`StateGraph::report_to`].)
    fn report(&self, collector: &dyn Collector, scope: &str, engine: Engine) {
        let s = &self.stats;
        collector.counter(&format!("engine.{scope}.states"), s.states as u64, attrs![]);
        collector.counter(
            &format!("engine.{scope}.transitions"),
            s.transitions,
            attrs![],
        );
        collector.counter(
            &format!("engine.{scope}.pruned"),
            s.pruned_by_assumptions,
            attrs![],
        );
        collector.counter(
            &format!("engine.{scope}.budget_states"),
            engine.max_states as u64,
            attrs![],
        );
        if let Some(m) = &self.monitor {
            collector.counter(&format!("engine.{scope}.monitor_steps"), m.steps, attrs![]);
            collector.counter(
                &format!("engine.{scope}.monitor_memo_hits"),
                m.memo_hits,
                attrs![],
            );
            m.metrics.report_to(collector, "assertion");
        }
    }
}

/// Whether atom-table entry `i` holds in an edge's atom bitset.
fn atom_holds(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

/// A breadth-first walk of one monitor over a [`StateGraph`]. Mirrors the
/// reference exploration exactly: same frontier order, same per-input
/// budget checks, same statistics — the only difference is that design
/// stepping and assumption pruning are served by the graph.
struct Walk<'g, 'p, 'd> {
    graph: &'g StateGraph<'p, 'd>,
    /// The assertion's shape monitor, taken from the graph until the walk
    /// is dropped, and the monitor's work at that point, so that
    /// [`Walk::record`] reports the walk's own. `None` without an
    /// assertion.
    monitor: Option<(ShapeMonitor, MonitorRecord)>,
    /// The cover condition (over atom-table indices), if searched for.
    cover: Option<SvaBool<usize>>,
    nodes: Vec<WalkNode>,
    /// `(graph node, monitor id)` → walk-node index.
    index: IdMap<(u32, u32), usize>,
    /// Scratch bitset for the edge currently being examined.
    bits: Vec<u64>,
    stats: ExploreStats,
    /// State budget of a full engine whose run is a prefix of this walk
    /// (see [`verify_property_on_graph_observed`]).
    full_budget: Option<usize>,
    /// The record at the transition where `stats.states` first passed
    /// `full_budget`: that full run's answer.
    full_prefix: Option<RunRecord>,
}

impl<'g, 'p, 'd> Walk<'g, 'p, 'd> {
    fn new(
        graph: &'g StateGraph<'p, 'd>,
        assertion: Option<&Prop<RtlAtom>>,
        check_cover: bool,
    ) -> Self {
        let monitor = assertion.map(|p| {
            let m = graph.take_monitor(p);
            let base = MonitorRecord::of(&m.det);
            (m, base)
        });
        let cover = if check_cover {
            graph.problem().cover.as_ref().map(|c| graph.map_bool(c))
        } else {
            None
        };
        Walk {
            graph,
            monitor,
            cover,
            nodes: Vec::new(),
            index: IdMap::default(),
            bits: Vec::new(),
            stats: ExploreStats::default(),
            full_budget: None,
            full_prefix: None,
        }
    }

    /// Breadth-first walk until a verdict or the budget is hit.
    fn run(&mut self, engine: Engine) -> RunOutcome {
        let init_monitor = self
            .monitor
            .as_ref()
            .map_or(NO_MONITOR, |_| DetMonitor::<usize>::INITIAL);
        self.nodes.push(WalkNode {
            graph_node: 0,
            monitor: init_monitor,
            parent: None,
        });
        self.index.insert((0, init_monitor), 0);
        self.stats.states = 1;

        let mut frontier: Vec<usize> = vec![0];
        let mut depth: u32 = 0;
        loop {
            if frontier.is_empty() {
                self.stats.depth_completed = depth;
                return RunOutcome::Exhausted;
            }
            if let Some(max_depth) = engine.max_depth {
                if depth >= max_depth {
                    self.stats.depth_completed = depth;
                    return RunOutcome::BudgetHit;
                }
            }
            let mut next_frontier = Vec::new();
            for &node_idx in &frontier {
                for input in 0..self.graph.num_inputs() {
                    match self.transition(node_idx, input) {
                        Step::Pruned => {}
                        Step::Known => {}
                        Step::New(idx) => next_frontier.push(idx),
                        Step::AssertFailed => {
                            let trace = self.rebuild_trace(node_idx, input);
                            return RunOutcome::AssertFailed(trace);
                        }
                        Step::Covered => {
                            let trace = self.rebuild_trace(node_idx, input);
                            return RunOutcome::Covered(trace);
                        }
                    }
                    // Where a full walk would check its budget.
                    if self.full_prefix.is_none()
                        && self.full_budget.is_some_and(|b| self.stats.states > b)
                    {
                        self.full_prefix = Some(RunRecord {
                            stats: ExploreStats {
                                depth_completed: depth,
                                ..self.stats
                            },
                            ..self.record()
                        });
                    }
                    if self.stats.states > engine.max_states {
                        self.stats.depth_completed = depth;
                        return RunOutcome::BudgetHit;
                    }
                }
            }
            depth += 1;
            frontier = next_frontier;
        }
    }

    /// The answer of the full engine this walk was run for (`full_budget`),
    /// given how the walk ended: `BudgetHit` at the transition that passed
    /// the budget, or `Exhausted` with the walk's final record when it
    /// exhausted under the budget. `None` when there is no such engine or
    /// the walk stopped on its depth bound (or failed) first.
    fn full_answer(&self, outcome: &RunOutcome) -> Option<(RunOutcome, RunRecord)> {
        self.full_budget?;
        match (self.full_prefix, outcome) {
            (Some(prefix), _) => Some((RunOutcome::BudgetHit, prefix)),
            (None, RunOutcome::Exhausted) => Some((RunOutcome::Exhausted, self.record())),
            _ => None,
        }
    }

    fn transition(&mut self, node_idx: usize, input: usize) -> Step {
        let graph_node = self.nodes[node_idx].graph_node;
        let dest = self.graph.edge(graph_node, input, &mut self.bits);
        if dest == PRUNED {
            // The trace leaves the assumed envelope this cycle: discard it,
            // including any simultaneous assertion failure (there is no
            // admissible execution extending this prefix).
            self.stats.pruned_by_assumptions += 1;
            return Step::Pruned;
        }
        self.stats.transitions += 1;

        let next_monitor = match &mut self.monitor {
            Some((m, _)) => {
                let atoms = &m.atoms;
                match m.det.step(self.nodes[node_idx].monitor, |&r| {
                    atom_holds(&self.bits, atoms[r])
                }) {
                    FAILED => return Step::AssertFailed,
                    id => id,
                }
            }
            None => NO_MONITOR,
        };
        if let Some(cover) = &self.cover {
            if cover.eval(&|&i| atom_holds(&self.bits, i)) {
                return Step::Covered;
            }
        }
        let idx = self.nodes.len();
        match self.index.entry((dest, next_monitor)) {
            Entry::Occupied(_) => return Step::Known,
            Entry::Vacant(slot) => slot.insert(idx),
        };
        self.nodes.push(WalkNode {
            graph_node: dest,
            monitor: next_monitor,
            parent: Some((node_idx, input)),
        });
        self.stats.states += 1;
        Step::New(idx)
    }

    /// The walk's run record so far.
    fn record(&self) -> RunRecord {
        RunRecord {
            stats: self.stats,
            monitor: self
                .monitor
                .as_ref()
                .map(|(m, base)| MonitorRecord::of(&m.det).since(*base)),
        }
    }

    /// Rebuilds the trace ending with the cycle `(node, final_input)`.
    fn rebuild_trace(&self, node_idx: usize, final_input: usize) -> Trace {
        let mut rev: Vec<(State, &[u64])> = vec![(
            self.graph.node_state(self.nodes[node_idx].graph_node),
            self.graph.input(final_input),
        )];
        let mut cur = node_idx;
        while let Some((parent, input)) = self.nodes[cur].parent {
            rev.push((
                self.graph.node_state(self.nodes[parent].graph_node),
                self.graph.input(input),
            ));
            cur = parent;
        }
        let mut trace = Trace::new();
        for (state, input) in rev.into_iter().rev() {
            trace.push(state, input.to_vec());
        }
        trace
    }
}

impl Drop for Walk<'_, '_, '_> {
    fn drop(&mut self) {
        if let Some((m, _)) = self.monitor.take() {
            self.graph.return_monitor(m);
        }
    }
}

// ---------------------------------------------------------------------------
// Public verification API (graph-walk engine).
// ---------------------------------------------------------------------------

/// Verifies one assertion against the problem's design and assumptions,
/// running the configuration's engines in order (§6.1, Table 1).
///
/// Builds a throwaway lazy [`StateGraph`] internally; when checking several
/// properties of one problem, build the graph once with
/// [`StateGraph::build`] and use [`verify_property_on_graph`] instead.
///
/// # Panics
///
/// Panics if a free-init register is not pinned by `problem.init_pins`, or
/// the design's primary-input space is too large to enumerate.
pub fn verify_property(
    problem: &Problem<'_>,
    assertion: &Prop<RtlAtom>,
    config: &VerifyConfig,
) -> PropertyVerdict {
    let graph = StateGraph::new(problem, [assertion]);
    verify_property_on_graph(&graph, assertion, config)
}

/// Verifies one assertion as an NFA walk over a prebuilt [`StateGraph`].
///
/// # Panics
///
/// Panics if the assertion mentions an atom the graph was not built with.
pub fn verify_property_on_graph(
    graph: &StateGraph<'_, '_>,
    assertion: &Prop<RtlAtom>,
    config: &VerifyConfig,
) -> PropertyVerdict {
    verify_property_on_graph_observed(graph, assertion, config, "", &NullCollector)
}

/// [`verify_property_on_graph`] with instrumentation: each engine attempt is
/// wrapped in an `engine_run` span, its [`ExploreStats`] are reported as
/// `engine.<kind>.*` counters, and hitting a budget emits a
/// `budget_exhausted` event. `property` labels the stream (use the
/// assertion's directive name).
///
/// A full engine that follows a bounded one with a larger state budget (as
/// in Hybrid) runs the same breadth-first walk, so its run is a prefix of
/// the bounded walk. The bounded walk records that run's answer as it goes
/// and the full engine reports it without walking, with one
/// `walk.derived_full_runs` sample; its span, counters and events are
/// those of a fresh walk. Only when the bounded walk stopped on its depth
/// bound first does the full engine walk afresh.
pub fn verify_property_on_graph_observed(
    graph: &StateGraph<'_, '_>,
    assertion: &Prop<RtlAtom>,
    config: &VerifyConfig,
    property: &str,
    collector: &dyn Collector,
) -> PropertyVerdict {
    let mut best_bound: Option<(u32, ExploreStats)> = None;
    let mut record_bound = |depth: u32, stats: ExploreStats| {
        if best_bound.is_none_or(|(d, _)| depth > d) {
            best_bound = Some((depth, stats));
        }
    };
    let mut derived: Option<(RunOutcome, RunRecord)> = None;
    for (i, engine) in config.engines.iter().enumerate() {
        let scope = engine_scope(engine.kind);
        let mut g = span(
            collector,
            "engine_run",
            attrs![
                "property" => property,
                "engine" => scope,
                "max_states" => engine.max_states,
            ],
        );
        let (outcome, run) = match derived.take() {
            Some(answer) => {
                collector.counter("walk.derived_full_runs", 1, attrs![]);
                answer
            }
            None => {
                let mut walk = Walk::new(graph, Some(assertion), false);
                walk.full_budget = config
                    .engines
                    .get(i + 1)
                    .filter(|next| {
                        engine.kind == EngineKind::Bounded
                            && next.kind == EngineKind::Full
                            && next.max_states < engine.max_states
                    })
                    .map(|next| next.max_states);
                let outcome = walk.run(*engine);
                derived = walk.full_answer(&outcome);
                (outcome, walk.record())
            }
        };
        run.report(collector, scope, *engine);
        let stats = run.stats;
        g.attr("states", stats.states);
        g.attr("transitions", stats.transitions);
        g.attr("outcome", run_outcome_label(&outcome));
        match outcome {
            RunOutcome::Exhausted => match engine.kind {
                EngineKind::Full => return PropertyVerdict::Proven { stats },
                // A bounded (BMC-style) engine cannot detect exhaustion: it
                // only ever certifies its configured cycle bound (which the
                // exhausted exploration has in fact verified).
                EngineKind::Bounded => {
                    let depth = engine.max_depth.expect("bounded engines carry a depth");
                    record_bound(depth, stats);
                }
            },
            RunOutcome::BudgetHit => {
                collector.event(
                    "budget_exhausted",
                    attrs![
                        "property" => property,
                        "engine" => scope,
                        "states" => stats.states,
                        "depth_completed" => stats.depth_completed,
                        "max_states" => engine.max_states,
                    ],
                );
                record_bound(stats.depth_completed, stats);
            }
            RunOutcome::AssertFailed(trace) => {
                return PropertyVerdict::Falsified {
                    trace: Box::new(trace),
                    stats,
                };
            }
            RunOutcome::Covered(_) => unreachable!("cover is disabled in property runs"),
        }
    }
    let (depth, stats) = best_bound.expect("configurations have at least one engine");
    PropertyVerdict::Bounded { depth, stats }
}

fn engine_scope(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Bounded => "bounded",
        EngineKind::Full => "full",
    }
}

fn run_outcome_label(outcome: &RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Exhausted => "exhausted",
        RunOutcome::BudgetHit => "budget_hit",
        RunOutcome::AssertFailed(_) => "assert_failed",
        RunOutcome::Covered(_) => "covered",
    }
}

/// Searches for a covering trace of the problem's cover condition under its
/// assumptions (§4.1), using the given engine budget.
///
/// Builds a throwaway lazy [`StateGraph`] internally; prefer
/// [`check_cover_on_graph`] when a graph already exists for the problem.
///
/// # Panics
///
/// Panics if the problem has no cover condition, a free-init register is
/// unpinned, or the input space is too large.
pub fn check_cover(problem: &Problem<'_>, engine: Engine) -> CoverVerdict {
    let graph = StateGraph::new(problem, []);
    check_cover_on_graph(&graph, engine)
}

/// Searches for a covering trace as a walk over a prebuilt
/// [`StateGraph`].
///
/// # Panics
///
/// Panics if the graph's problem has no cover condition.
pub fn check_cover_on_graph(graph: &StateGraph<'_, '_>, engine: Engine) -> CoverVerdict {
    check_cover_on_graph_observed(graph, engine, &NullCollector)
}

/// [`check_cover_on_graph`] with instrumentation: the search runs inside an
/// `engine_run` span (engine kind `"cover"`), reports `engine.cover.*`
/// counters, and emits one of the `cover.covered` / `cover.unreachable` /
/// `cover.unknown` events — plus `budget_exhausted` when the budget ran out
/// and `conflicting_assumptions` when no execution was admissible at all.
pub fn check_cover_on_graph_observed(
    graph: &StateGraph<'_, '_>,
    engine: Engine,
    collector: &dyn Collector,
) -> CoverVerdict {
    assert!(
        graph.problem().cover.is_some(),
        "check_cover requires a cover condition"
    );
    let mut g = span(
        collector,
        "engine_run",
        attrs!["engine" => "cover", "max_states" => engine.max_states],
    );
    let mut walk = Walk::new(graph, None, true);
    let outcome = walk.run(engine);
    walk.record().report(collector, "cover", engine);
    g.attr("states", walk.stats.states);
    g.attr("transitions", walk.stats.transitions);
    g.attr("outcome", run_outcome_label(&outcome));
    if walk.stats.vacuous() {
        collector.event("conflicting_assumptions", attrs!["engine" => "cover"]);
    }
    let verdict = match outcome {
        RunOutcome::Exhausted => {
            collector.event("cover.unreachable", attrs!["states" => walk.stats.states]);
            CoverVerdict::Unreachable(walk.stats)
        }
        RunOutcome::BudgetHit => {
            collector.event(
                "budget_exhausted",
                attrs![
                    "engine" => "cover",
                    "states" => walk.stats.states,
                    "depth_completed" => walk.stats.depth_completed,
                    "max_states" => engine.max_states,
                ],
            );
            collector.event("cover.unknown", attrs!["states" => walk.stats.states]);
            CoverVerdict::Unknown(walk.stats)
        }
        RunOutcome::Covered(trace) => {
            collector.event("cover.covered", attrs!["trace_len" => trace.len()]);
            CoverVerdict::Covered(trace, walk.stats)
        }
        RunOutcome::AssertFailed(_) => unreachable!("no assertion in cover runs"),
    };
    g.finish();
    verdict
}

// ---------------------------------------------------------------------------
// Reference implementation (pre-split monolithic exploration).
//
// Kept verbatim as the oracle for the differential test suite: it shares no
// exploration machinery with the graph walk above (only the input-valuation
// enumeration, whose behaviour is locked down by its own unit tests).
// ---------------------------------------------------------------------------

/// One node of the reference product-state graph.
struct RefNode {
    state: State,
    monitors: Vec<MonitorState>,
    /// `(parent index, inputs used on the edge into this node)`.
    parent: Option<(usize, Vec<u64>)>,
}

struct Exploration<'p, 'd> {
    problem: &'p Problem<'d>,
    sim: Simulator<'d>,
    /// Assumption monitors first, then (optionally) the assertion monitor.
    monitors: Vec<Monitor<RtlAtom>>,
    /// Index of the assertion monitor in `monitors`, if present.
    assertion: Option<usize>,
    check_cover: bool,
    nodes: Vec<RefNode>,
    index: HashMap<(State, Vec<MonitorState>), usize>,
    stats: ExploreStats,
}

impl<'p, 'd> Exploration<'p, 'd> {
    fn new(problem: &'p Problem<'d>, assertion: Option<&Prop<RtlAtom>>, check_cover: bool) -> Self {
        let mut monitors: Vec<Monitor<RtlAtom>> = problem
            .assumptions
            .iter()
            .map(|d| Monitor::new(&d.prop))
            .collect();
        let assertion_idx = assertion.map(|prop| {
            monitors.push(Monitor::new(prop));
            monitors.len() - 1
        });
        Exploration {
            problem,
            sim: Simulator::new(problem.design),
            monitors,
            assertion: assertion_idx,
            check_cover,
            nodes: Vec::new(),
            index: HashMap::new(),
            stats: ExploreStats::default(),
        }
    }

    /// Breadth-first exploration until a verdict or the budget is hit.
    fn run(&mut self, engine: Engine) -> RunOutcome {
        let initial = self
            .sim
            .initial_state_with(&self.problem.init_pins)
            .expect("all free-init registers must be pinned by init assumptions");
        let init_monitors: Vec<MonitorState> =
            self.monitors.iter().map(|m| m.state().clone()).collect();
        self.nodes.push(RefNode {
            state: initial.clone(),
            monitors: init_monitors.clone(),
            parent: None,
        });
        self.index.insert((initial, init_monitors), 0);
        self.stats.states = 1;

        let inputs = input_valuations(self.problem.design);
        let mut frontier: Vec<usize> = vec![0];
        let mut depth: u32 = 0;
        loop {
            if frontier.is_empty() {
                self.stats.depth_completed = depth;
                return RunOutcome::Exhausted;
            }
            if let Some(max_depth) = engine.max_depth {
                if depth >= max_depth {
                    self.stats.depth_completed = depth;
                    return RunOutcome::BudgetHit;
                }
            }
            let mut next_frontier = Vec::new();
            for &node_idx in &frontier {
                for input in &inputs {
                    match self.transition(node_idx, input) {
                        Step::Pruned => {}
                        Step::Known => {}
                        Step::New(idx) => next_frontier.push(idx),
                        Step::AssertFailed => {
                            let trace = self.rebuild_trace(node_idx, input);
                            return RunOutcome::AssertFailed(trace);
                        }
                        Step::Covered => {
                            let trace = self.rebuild_trace(node_idx, input);
                            return RunOutcome::Covered(trace);
                        }
                    }
                    if self.stats.states > engine.max_states {
                        self.stats.depth_completed = depth;
                        return RunOutcome::BudgetHit;
                    }
                }
            }
            depth += 1;
            frontier = next_frontier;
        }
    }

    fn transition(&mut self, node_idx: usize, input: &[u64]) -> Step {
        let (state, monitor_states) = {
            let n = &self.nodes[node_idx];
            (n.state.clone(), n.monitors.clone())
        };
        // Advance every monitor through this cycle's valuation.
        let mut frame = self.sim.frame();
        frame.settle(&state, input);
        let env = |a: &RtlAtom| frame.peek(a.sig) == a.value;
        let mut next_monitors = Vec::with_capacity(self.monitors.len());
        let mut assumption_failed = false;
        let mut assertion_failed = false;
        for (i, m) in self.monitors.iter_mut().enumerate() {
            m.set_state(monitor_states[i].clone());
            m.step(&env);
            if m.failed() {
                if Some(i) == self.assertion {
                    assertion_failed = true;
                } else {
                    assumption_failed = true;
                }
            }
            next_monitors.push(m.state().clone());
        }
        if assumption_failed {
            // The trace leaves the assumed envelope this cycle: discard it,
            // including any simultaneous assertion failure (there is no
            // admissible execution extending this prefix).
            self.stats.pruned_by_assumptions += 1;
            return Step::Pruned;
        }
        self.stats.transitions += 1;
        if assertion_failed {
            return Step::AssertFailed;
        }
        if self.check_cover {
            if let Some(cover) = &self.problem.cover {
                if cover.eval(&env) {
                    return Step::Covered;
                }
            }
        }
        let next_state = frame.next_state();
        let key = (next_state.clone(), next_monitors.clone());
        if let Some(&_existing) = self.index.get(&key) {
            return Step::Known;
        }
        let idx = self.nodes.len();
        self.nodes.push(RefNode {
            state: next_state,
            monitors: next_monitors,
            parent: Some((node_idx, input.to_vec())),
        });
        self.index.insert(key, idx);
        self.stats.states += 1;
        Step::New(idx)
    }

    /// Rebuilds the trace ending with the cycle `(node, final_input)`.
    fn rebuild_trace(&self, node_idx: usize, final_input: &[u64]) -> Trace {
        let mut rev: Vec<(State, Vec<u64>)> =
            vec![(self.nodes[node_idx].state.clone(), final_input.to_vec())];
        let mut cur = node_idx;
        while let Some((parent, input)) = &self.nodes[cur].parent {
            rev.push((self.nodes[*parent].state.clone(), input.clone()));
            cur = *parent;
        }
        let mut trace = Trace::new();
        for (state, input) in rev.into_iter().rev() {
            trace.push(state, input);
        }
        trace
    }
}

/// Reference (pre-split) implementation of [`verify_property`]: re-simulates
/// the full product per engine run. Exists only as the oracle for the
/// differential tests — not part of the supported API.
#[doc(hidden)]
pub fn verify_property_reference(
    problem: &Problem<'_>,
    assertion: &Prop<RtlAtom>,
    config: &VerifyConfig,
) -> PropertyVerdict {
    let mut best_bound: Option<(u32, ExploreStats)> = None;
    let mut record_bound = |depth: u32, stats: ExploreStats| {
        if best_bound.is_none_or(|(d, _)| depth > d) {
            best_bound = Some((depth, stats));
        }
    };
    for engine in &config.engines {
        let mut exp = Exploration::new(problem, Some(assertion), false);
        match exp.run(*engine) {
            RunOutcome::Exhausted => match engine.kind {
                EngineKind::Full => return PropertyVerdict::Proven { stats: exp.stats },
                EngineKind::Bounded => {
                    let depth = engine.max_depth.expect("bounded engines carry a depth");
                    record_bound(depth, exp.stats);
                }
            },
            RunOutcome::BudgetHit => record_bound(exp.stats.depth_completed, exp.stats),
            RunOutcome::AssertFailed(trace) => {
                return PropertyVerdict::Falsified {
                    trace: Box::new(trace),
                    stats: exp.stats,
                };
            }
            RunOutcome::Covered(_) => unreachable!("cover is disabled in property runs"),
        }
    }
    let (depth, stats) = best_bound.expect("configurations have at least one engine");
    PropertyVerdict::Bounded { depth, stats }
}

/// Reference (pre-split) implementation of [`check_cover`]; see
/// [`verify_property_reference`].
#[doc(hidden)]
pub fn check_cover_reference(problem: &Problem<'_>, engine: Engine) -> CoverVerdict {
    assert!(
        problem.cover.is_some(),
        "check_cover requires a cover condition"
    );
    let mut exp = Exploration::new(problem, None, true);
    match exp.run(engine) {
        RunOutcome::Exhausted => CoverVerdict::Unreachable(exp.stats),
        RunOutcome::BudgetHit => CoverVerdict::Unknown(exp.stats),
        RunOutcome::Covered(trace) => CoverVerdict::Covered(trace, exp.stats),
        RunOutcome::AssertFailed(_) => unreachable!("no assertion in cover runs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::RtlAtom;
    use crate::problem::Directive;
    use rtlcheck_rtl::DesignBuilder;
    use rtlcheck_sva::{Prop, Seq, SvaBool};

    /// A 3-bit counter with a 1-bit "enable" free input; includes a `first`
    /// register like the RTLCheck harness.
    fn counter() -> (
        rtlcheck_rtl::Design,
        rtlcheck_rtl::SignalId,
        rtlcheck_rtl::SignalId,
    ) {
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
        let d = b.build().unwrap();
        let count = d.signal_by_name("count").unwrap();
        let first = d.signal_by_name("first").unwrap();
        (d, count, first)
    }

    fn guarded(first: rtlcheck_rtl::SignalId, p: Prop<RtlAtom>) -> Prop<RtlAtom> {
        Prop::implies(SvaBool::atom(RtlAtom::is_true(first)), p)
    }

    #[test]
    fn proves_reachable_invariant() {
        let (d, count, first) = counter();
        let problem = Problem::new(&d);
        // first |-> never (count == 7 is fine; counters do reach 7, so
        // instead prove count != 8 which is trivially true at 3 bits —
        // expressed as Never(count == 8) it can never fire).
        let prop = guarded(first, Prop::Never(SvaBool::atom(RtlAtom::eq(count, 8))));
        let verdict = verify_property(&problem, &prop, &VerifyConfig::quick());
        assert!(
            matches!(verdict, PropertyVerdict::Proven { .. }),
            "{verdict:?}"
        );
    }

    #[test]
    fn finds_counterexample_with_shortest_trace() {
        let (d, count, first) = counter();
        let problem = Problem::new(&d);
        // count never reaches 2 — false: reachable in 3 cycles (en=1 twice;
        // the monitor sees count==2 in cycle 2).
        let prop = guarded(first, Prop::Never(SvaBool::atom(RtlAtom::eq(count, 2))));
        let verdict = verify_property(&problem, &prop, &VerifyConfig::quick());
        match verdict {
            PropertyVerdict::Falsified { trace, .. } => {
                assert_eq!(trace.len(), 3, "BFS yields a shortest counterexample");
                // Replay: the final cycle has count == 2.
                assert_eq!(trace.value_at(&d, count, 2), 2);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn assumptions_prune_executions() {
        let (d, count, first) = counter();
        let mut problem = Problem::new(&d);
        let en = d.signal_by_name("en").unwrap();
        // Assume the enable is never raised: the counter stays at 0.
        problem.assumptions.push(Directive::assume(
            "en_low",
            Prop::Never(SvaBool::atom(RtlAtom::is_true(en))),
        ));
        let prop = guarded(first, Prop::Never(SvaBool::atom(RtlAtom::eq(count, 1))));
        let verdict = verify_property(&problem, &prop, &VerifyConfig::quick());
        match verdict {
            PropertyVerdict::Proven { stats } => {
                assert!(stats.pruned_by_assumptions > 0);
                assert!(!stats.vacuous());
            }
            other => panic!("expected proof under assumption, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_assumptions_are_flagged_vacuous() {
        let (d, count, first) = counter();
        let mut problem = Problem::new(&d);
        // Assume count == 5 at the first cycle — contradicts the reset
        // value 0, so no admissible execution exists.
        problem.assumptions.push(Directive::assume(
            "bogus_init",
            Prop::implies(
                SvaBool::atom(RtlAtom::is_true(first)),
                Prop::seq(Seq::boolean(SvaBool::atom(RtlAtom::eq(count, 5)))),
            ),
        ));
        let prop = guarded(first, Prop::Never(SvaBool::atom(RtlAtom::eq(count, 1))));
        let verdict = verify_property(&problem, &prop, &VerifyConfig::quick());
        match verdict {
            PropertyVerdict::Proven { stats } => assert!(stats.vacuous()),
            other => panic!("expected vacuous proof, got {other:?}"),
        }
    }

    #[test]
    fn bounded_engine_reports_depth() {
        let (d, count, first) = counter();
        let problem = Problem::new(&d);
        let prop = guarded(first, Prop::Never(SvaBool::atom(RtlAtom::eq(count, 8))));
        let config = VerifyConfig {
            name: "bounded-only".into(),
            engines: vec![Engine {
                kind: EngineKind::Bounded,
                max_states: 100_000,
                max_depth: Some(3),
            }],
            cover_max_states: 100_000,
        };
        let verdict = verify_property(&problem, &prop, &config);
        match verdict {
            PropertyVerdict::Bounded { depth, .. } => assert_eq!(depth, 3),
            other => panic!("expected bounded proof, got {other:?}"),
        }
    }

    #[test]
    fn cover_found_and_unreachable() {
        let (d, count, _) = counter();
        // Cover: count == 3 — reachable.
        let mut problem = Problem::new(&d);
        problem.cover = Some(SvaBool::atom(RtlAtom::eq(count, 3)));
        let verdict = check_cover(&problem, Engine::full(100_000));
        match verdict {
            CoverVerdict::Covered(trace, _) => {
                let last = trace.len() - 1;
                assert_eq!(trace.value_at(&d, count, last), 3);
            }
            other => panic!("expected covered, got {other:?}"),
        }
        // Under an assumption pinning enable low, count == 3 is
        // unreachable.
        let en = d.signal_by_name("en").unwrap();
        problem.assumptions.push(Directive::assume(
            "en_low",
            Prop::Never(SvaBool::atom(RtlAtom::is_true(en))),
        ));
        let verdict = check_cover(&problem, Engine::full(100_000));
        assert!(
            matches!(verdict, CoverVerdict::Unreachable(_)),
            "{verdict:?}"
        );
    }

    #[test]
    fn cover_with_tiny_budget_is_unknown() {
        let (d, count, _) = counter();
        let mut problem = Problem::new(&d);
        problem.cover = Some(SvaBool::atom(RtlAtom::eq(count, 7)));
        let verdict = check_cover(
            &problem,
            Engine {
                kind: EngineKind::Bounded,
                max_states: 100_000,
                max_depth: Some(2),
            },
        );
        assert!(matches!(verdict, CoverVerdict::Unknown(_)), "{verdict:?}");
    }

    #[test]
    fn shared_graph_serves_many_properties_with_reuse() {
        let (d, count, first) = counter();
        let problem = Problem::new(&d);
        let props: Vec<Prop<RtlAtom>> = (0..4)
            .map(|v| guarded(first, Prop::Never(SvaBool::atom(RtlAtom::eq(count, 8 + v)))))
            .collect();
        let graph = StateGraph::build(&problem, props.iter(), Engine::full(100_000));
        assert!(graph.stats().complete);
        let warm_nodes = graph.stats().nodes;
        for p in &props {
            let verdict = verify_property_on_graph(&graph, p, &VerifyConfig::quick());
            assert!(matches!(verdict, PropertyVerdict::Proven { .. }));
        }
        let s = graph.stats();
        assert_eq!(s.nodes, warm_nodes, "walks added no graph nodes");
        assert_eq!(s.lookups, s.reuse_hits, "every walk edge came from cache");
        assert!(s.reuse_hits > 0);
    }

    #[test]
    fn graph_walk_matches_reference_on_the_counter() {
        let (d, count, first) = counter();
        let mut problem = Problem::new(&d);
        let en = d.signal_by_name("en").unwrap();
        problem.assumptions.push(Directive::assume(
            "en_low",
            Prop::Never(SvaBool::atom(RtlAtom::is_true(en))),
        ));
        for target in [1u64, 8] {
            let prop = guarded(
                first,
                Prop::Never(SvaBool::atom(RtlAtom::eq(count, target))),
            );
            for config in [VerifyConfig::quick(), VerifyConfig::hybrid()] {
                let a = verify_property(&problem, &prop, &config);
                let b = verify_property_reference(&problem, &prop, &config);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "target {target}");
            }
        }
    }

    /// A minimal recording collector for the instrumentation tests.
    #[derive(Default)]
    struct Rec {
        counters: std::cell::RefCell<Vec<(String, u64)>>,
        events: std::cell::RefCell<Vec<String>>,
        open_spans: std::cell::RefCell<i64>,
    }

    impl rtlcheck_obs::Collector for Rec {
        fn span_enter(&self, _id: rtlcheck_obs::SpanId, _name: &str, _attrs: rtlcheck_obs::Attrs) {
            *self.open_spans.borrow_mut() += 1;
        }
        fn span_exit(
            &self,
            _id: rtlcheck_obs::SpanId,
            _name: &str,
            _elapsed: std::time::Duration,
            _attrs: rtlcheck_obs::Attrs,
        ) {
            *self.open_spans.borrow_mut() -= 1;
        }
        fn counter(&self, name: &str, value: u64, _attrs: rtlcheck_obs::Attrs) {
            self.counters.borrow_mut().push((name.to_string(), value));
        }
        fn event(&self, name: &str, _attrs: rtlcheck_obs::Attrs) {
            self.events.borrow_mut().push(name.to_string());
        }
    }

    impl Rec {
        fn counter(&self, name: &str) -> Option<u64> {
            self.counters
                .borrow()
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        }
    }

    #[test]
    fn observed_property_run_reports_counters_matching_verdict_stats() {
        let (d, count, first) = counter();
        let problem = Problem::new(&d);
        let prop = guarded(first, Prop::Never(SvaBool::atom(RtlAtom::eq(count, 8))));
        let rec = Rec::default();
        let graph = StateGraph::new(&problem, [&prop]);
        let verdict =
            verify_property_on_graph_observed(&graph, &prop, &VerifyConfig::quick(), "A[0]", &rec);
        let stats = match verdict {
            PropertyVerdict::Proven { stats } => stats,
            other => panic!("expected proof, got {other:?}"),
        };
        // The counters carry the same numbers the verdict reports, so the
        // metrics view and the CLI report can never disagree.
        assert_eq!(rec.counter("engine.full.states"), Some(stats.states as u64));
        assert_eq!(
            rec.counter("engine.full.transitions"),
            Some(stats.transitions)
        );
        assert_eq!(
            rec.counter("engine.full.pruned"),
            Some(stats.pruned_by_assumptions)
        );
        assert!(rec.counter("engine.full.budget_states").unwrap() >= stats.states as u64);
        // This property is boolean-only (no sequence NFAs), but the monitor
        // still reports its stepping activity.
        assert!(rec.counter("monitor.product_nfa_states").is_some());
        assert!(rec.counter("monitor.attempts").unwrap() > 0);
        assert_eq!(*rec.open_spans.borrow(), 0, "engine_run spans balance");
        assert!(
            rec.events.borrow().is_empty(),
            "no budget events on a full proof"
        );
    }

    #[test]
    fn observed_budget_hit_emits_budget_exhausted_event() {
        let (d, count, first) = counter();
        let problem = Problem::new(&d);
        let prop = guarded(first, Prop::Never(SvaBool::atom(RtlAtom::eq(count, 8))));
        let config = VerifyConfig {
            name: "bounded-only".into(),
            engines: vec![Engine {
                kind: EngineKind::Bounded,
                max_states: 2,
                max_depth: Some(100),
            }],
            cover_max_states: 100_000,
        };
        let rec = Rec::default();
        let graph = StateGraph::new(&problem, [&prop]);
        let verdict = verify_property_on_graph_observed(&graph, &prop, &config, "A[0]", &rec);
        assert!(
            matches!(verdict, PropertyVerdict::Bounded { .. }),
            "{verdict:?}"
        );
        assert_eq!(rec.events.borrow().as_slice(), ["budget_exhausted"]);
    }

    #[test]
    fn observed_cover_search_reports_outcome_events() {
        let (d, count, _) = counter();
        let mut problem = Problem::new(&d);
        problem.cover = Some(SvaBool::atom(RtlAtom::eq(count, 3)));
        let rec = Rec::default();
        let graph = StateGraph::new(&problem, []);
        let verdict = check_cover_on_graph_observed(&graph, Engine::full(100_000), &rec);
        assert!(matches!(verdict, CoverVerdict::Covered(..)), "{verdict:?}");
        assert_eq!(rec.events.borrow().as_slice(), ["cover.covered"]);
        assert_eq!(
            rec.counter("engine.cover.states"),
            Some(verdict.stats().states as u64)
        );
        assert_eq!(*rec.open_spans.borrow(), 0);
    }

    #[test]
    fn reachable_stats_counts_states() {
        let (d, _, _) = counter();
        let problem = Problem::new(&d);
        let graph = StateGraph::build(&problem, [], Engine::full(100_000));
        // 8 counter values × 2 first values, minus unreachable combos:
        // (first=1, count≠0) are unreachable → 8 + 1 = 9 states.
        assert_eq!(graph.stats().nodes, 9);
    }
}
