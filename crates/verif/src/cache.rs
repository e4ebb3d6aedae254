//! In-memory cache of warm [`StateGraph`] cores.
//!
//! The materialised part of a state graph — nodes, edge rows, atom
//! bitsets, [`PRUNED`](crate::graph) sentinels — is a pure function of
//! (design structure, assumption set, atom table): the warm-up budget and
//! the walks only decide *how much* of the reachable product is
//! materialised, never what any materialised row contains. That makes any
//! snapshot of a graph's core a sound starting point for any other graph
//! with the same fingerprint, because construction is lazy: a walk that
//! needs an edge beyond the snapshot simply builds it on demand, and the
//! lazy-build invariant (see `graph.rs`) guarantees identical verdicts,
//! statistics, and counterexample traces regardless of how much of the
//! graph pre-exists.
//!
//! [`GraphCache`] is a map from the 64-bit fingerprint to an
//! `Arc<OnceLock<Arc<CoreSnapshot>>>`, shared across the tests of one run
//! (and across the requests of one `serve` process). Lookups are
//! *build-once, read-many*: the first requester of a key builds the graph
//! (blocking concurrent requesters of the same key), publishes the warm
//! core, and every later requester reconstructs its own graph from the
//! shared snapshot. Build-once (rather than racing builders and discarding
//! losers) is what keeps the hit/miss counters — and therefore the whole
//! metrics stream — byte-identical across `--jobs N`: misses always equal
//! the number of distinct fingerprints.
//!
//! # Fingerprint
//!
//! The key is two-tier. Tier 1 is the design's per-cone FNV-1a
//! fingerprint vector ([`rtlcheck_rtl::cone::cone_fingerprints`]): one
//! word per signal digesting exactly that signal's value function, plus
//! the parts the vector deliberately excludes (module name, register
//! reset values — litmus programs are baked into register inits, so
//! different tests hash differently). Tier 2 derives the whole-design key
//! by folding the vector with the problem context: the init pins, every
//! assumption directive (kind, name, rendered property), the cover
//! condition, and the rendered atom table. The derived key is what the
//! map uses. A second, independently-seeded FNV-1a over
//! the same description rides along as [`GraphKey::check`]; the map does
//! not read it. A published
//! snapshot is used only if it passes semantic validation against the
//! requesting problem (atom table, monitor arity, register count, initial
//! product state), so a key collision degrades to a counted cold build,
//! not a wrong graph.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rtlcheck_obs::{attrs, Collector};
use rtlcheck_rtl::cone::cone_fingerprints;
use rtlcheck_rtl::SignalKind;
use rtlcheck_sva::{emit, MonitorState, Prop};

use crate::atom::RtlAtom;
use crate::engine::Engine;
use crate::graph::{GraphStats, StateGraph};
use crate::problem::Problem;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Seed of the independent check hash (offset basis xor a splitmix64
/// constant — any value distinct from the standard basis works).
const FNV_CHECK_OFFSET: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// Hand-rolled FNV-1a (no external hashing deps, stable across platforms
/// and releases — `DefaultHasher` guarantees neither).
#[derive(Debug, Clone, Copy)]
struct Fnv64(u64);

impl Fnv64 {
    fn new(basis: u64) -> Self {
        Fnv64(basis)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// The two-hash fingerprint of a (design, assumptions, atom table) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphKey {
    /// Primary cache key (the in-memory map key).
    pub key: u64,
    /// Independently-seeded hash of the same description. The map does
    /// not read it: a published core is validated against the requesting
    /// problem instead. The benchmark's traced passes still pair it with
    /// [`key`](Self::key) to group tests by problem.
    pub check: u64,
}

/// Computes the cache fingerprint of a problem and its atom table.
///
/// Two-tier: the design contributes its per-cone fingerprint vector
/// ([`cone_fingerprints`] — one word per signal, digesting exactly that
/// signal's value function) plus the register reset values and module
/// name the vector deliberately excludes; the derived whole-design key
/// then folds in the problem context (init pins, assumptions, cover,
/// atom table). The per-cone vector dates from mutant graphs spliced
/// from their baseline's core. Keys are only compared within one process
/// (by the cache map, and by the benchmark's traced passes), so their
/// values need not stay stable from one version to the next.
///
/// The atom table (not the property list) is hashed because the graph's
/// content depends on properties only through their atoms; two property
/// sets with equal atom tables are served by identical graphs. The engine
/// budget is deliberately *not* part of the key: it only bounds how much
/// of the graph is materialised, so snapshots are shareable across
/// configurations.
pub fn fingerprint(problem: &Problem<'_>, atoms: &[RtlAtom]) -> GraphKey {
    let design = problem.design;
    let render = |a: &RtlAtom| a.render(design);
    // Tier 1: per-cone value-function fingerprints, then what they omit —
    // reset values (classified separately by `ConeSet::diff`) and the
    // module name.
    let mut words = cone_fingerprints(design);
    for (_, s) in design.signals() {
        if let SignalKind::Reg { init, .. } = s.kind {
            match init {
                Some(v) => {
                    words.push(1);
                    words.push(v);
                }
                None => words.push(0),
            }
        }
    }
    // Tier 2: the problem context, folded as text after the design words.
    let mut text = format!("--design--\n{}\n", design.name());
    text.push_str("--init-pins--\n");
    for (sig, value) in &problem.init_pins {
        text.push_str(&format!("{} = {value}\n", design.signal(*sig).name));
    }
    text.push_str("--assumptions--\n");
    for d in &problem.assumptions {
        text.push_str(&format!(
            "{:?} {}: {}\n",
            d.kind,
            d.name,
            emit::prop_to_sva(&d.prop, &render)
        ));
    }
    text.push_str("--cover--\n");
    if let Some(cover) = &problem.cover {
        text.push_str(&emit::bool_to_sva(cover, &render));
    }
    text.push_str("\n--atoms--\n");
    for a in atoms {
        text.push_str(&render(a));
        text.push('\n');
    }
    let mut key = Fnv64::new(FNV_OFFSET);
    let mut check = Fnv64::new(FNV_CHECK_OFFSET);
    for w in &words {
        key.write(&w.to_le_bytes());
        check.write(&w.to_le_bytes());
    }
    key.write(text.as_bytes());
    check.write(text.as_bytes());
    GraphKey {
        key: key.finish(),
        check: check.finish(),
    }
}

/// Computes the fingerprint of a problem and the properties that would be
/// checked against it, deriving the atom table the same way
/// [`GraphCache::build_graph`] does. This is the key a cached run of the
/// same (problem, properties) pair would be stored under, so callers can
/// group work units that will share one graph without building anything.
pub fn fingerprint_problem(problem: &Problem<'_>, props: &[&Prop<RtlAtom>]) -> GraphKey {
    let atoms = StateGraph::atom_table(problem, props.iter().copied());
    fingerprint(problem, &atoms)
}

/// One node of a [`CoreSnapshot`]: the product state plus its (optional)
/// materialised edge row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NodeSnapshot {
    /// Register values of the design state.
    pub(crate) regs: Vec<u64>,
    /// Assumption-monitor states, in directive order.
    pub(crate) assumptions: Vec<MonitorState>,
    /// `(dests, atom bitsets)` if the row was built.
    pub(crate) row: Option<(Vec<u32>, Vec<u64>)>,
}

/// An immutable, thread-shareable snapshot of a graph's materialised core:
/// everything [`StateGraph::from_snapshot`] needs to resume as if the
/// original graph had been built in place. Activity counters (`lookups`,
/// `reuse_hits`) are zeroed; structural statistics describe exactly the
/// captured nodes and rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSnapshot {
    pub(crate) atoms: Vec<RtlAtom>,
    pub(crate) num_inputs: usize,
    pub(crate) words: usize,
    pub(crate) num_regs: usize,
    pub(crate) num_monitors: usize,
    pub(crate) nodes: Vec<NodeSnapshot>,
    pub(crate) stats: GraphStats,
}

impl CoreSnapshot {
    /// Number of captured product nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Structural statistics of the captured core.
    pub fn stats(&self) -> GraphStats {
        self.stats
    }
}

/// Where a cached graph came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Built from scratch (the first request of its fingerprint).
    Cold,
    /// Reconstructed from a snapshot another request published in memory.
    Memory,
}

impl CacheSource {
    /// Short label for span attributes and logs.
    pub fn label(self) -> &'static str {
        match self {
            CacheSource::Cold => "cold",
            CacheSource::Memory => "memory",
        }
    }
}

/// Monotonic counters of one cache's activity. `hits + misses ==
/// requests` always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Graph requests served.
    pub requests: u64,
    /// Served from a published snapshot (no simulation).
    pub hits: u64,
    /// First request of each distinct fingerprint.
    pub misses: u64,
    /// Published snapshots rejected by semantic validation against the
    /// requesting problem (a genuine fingerprint collision).
    pub collisions: u64,
    /// In-memory entries dropped to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Renders the snapshot as a JSON object, one field per counter —
    /// what the verification server's `stats` response embeds.
    pub fn to_json(&self) -> rtlcheck_obs::json::Json {
        use rtlcheck_obs::json::Json;
        Json::obj(vec![
            ("requests", Json::Uint(self.requests)),
            ("hits", Json::Uint(self.hits)),
            ("misses", Json::Uint(self.misses)),
            ("collisions", Json::Uint(self.collisions)),
            ("evictions", Json::Uint(self.evictions)),
        ])
    }
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
    evictions: AtomicU64,
}

type Cell = Arc<OnceLock<Arc<CoreSnapshot>>>;

#[derive(Debug, Default)]
struct CacheMap {
    entries: HashMap<u64, Cell>,
    /// Insertion order, for deterministic capacity eviction.
    order: Vec<u64>,
}

/// The in-memory graph cache. Cheap to share by reference across the
/// suite's worker threads (`Sync`); all observable counters are
/// schedule-invariant as long as the capacity bound is not hit (the
/// default is unbounded).
#[derive(Debug)]
pub struct GraphCache {
    capacity: Option<usize>,
    map: Mutex<CacheMap>,
    counters: Counters,
    /// Keys whose published snapshot failed validation, reported (sorted,
    /// so the stream is deterministic) by [`GraphCache::report_to`].
    collided: Mutex<Vec<u64>>,
}

impl GraphCache {
    /// An empty, unbounded cache.
    pub fn in_memory() -> Self {
        GraphCache {
            capacity: None,
            map: Mutex::new(CacheMap::default()),
            counters: Counters::default(),
            collided: Mutex::new(Vec::new()),
        }
    }

    /// Bounds the number of in-memory entries. Exceeding the bound evicts
    /// the oldest-inserted entry (deterministic only for sequential use;
    /// leave unbounded when metrics must be identical across `--jobs N`).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// A snapshot of the activity counters.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CacheStats {
            requests: get(&c.requests),
            hits: get(&c.hits),
            misses: get(&c.misses),
            collisions: get(&c.collisions),
            evictions: get(&c.evictions),
        }
    }

    fn cell_for(&self, key: u64) -> Cell {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cell) = map.entries.get(&key) {
            return cell.clone();
        }
        if let Some(cap) = self.capacity {
            while map.entries.len() >= cap && !map.order.is_empty() {
                let oldest = map.order.remove(0);
                if map.entries.remove(&oldest).is_some() {
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let cell: Cell = Arc::default();
        map.entries.insert(key, cell.clone());
        map.order.push(key);
        cell
    }

    /// The cached counterpart of [`StateGraph::build`]: returns a warm
    /// graph for `problem`/`props` plus where it came from.
    ///
    /// The first request of a fingerprint builds (a cold warm-up under
    /// `engine`'s budget) and publishes the core; concurrent requests of
    /// the same fingerprint block until it is published, then reconstruct
    /// from it. Every returned graph owns private interior state — sharing
    /// is of the immutable snapshot only — so walks behave exactly as on
    /// an uncached graph.
    pub fn build_graph<'p, 'd>(
        &self,
        problem: &'p Problem<'d>,
        props: &[&Prop<RtlAtom>],
        engine: Engine,
    ) -> (StateGraph<'p, 'd>, CacheSource) {
        let atoms = StateGraph::atom_table(problem, props.iter().copied());
        let key = fingerprint(problem, &atoms);
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let cell = self.cell_for(key.key);

        let mut local: Option<(StateGraph<'p, 'd>, CacheSource)> = None;
        let snap = cell
            .get_or_init(|| {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                let graph = StateGraph::build(problem, props.iter().copied(), engine);
                let snap = Arc::new(graph.snapshot());
                local = Some((graph, CacheSource::Cold));
                snap
            })
            .clone();

        match local {
            Some(built) => built,
            None => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                match StateGraph::from_snapshot(problem, props.iter().copied(), &snap) {
                    Some(graph) => (graph, CacheSource::Memory),
                    None => {
                        // In-memory fingerprint collision between two
                        // different problems: build privately, leave the
                        // published entry alone.
                        self.counters.collisions.fetch_add(1, Ordering::Relaxed);
                        self.collided
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(key.key);
                        (
                            StateGraph::build(problem, props.iter().copied(), engine),
                            CacheSource::Cold,
                        )
                    }
                }
            }
        }
    }

    /// Reports the cache's counters (`graph_cache.*`) and deferred
    /// warning events to a collector. Call exactly once per run, from the
    /// coordinating thread, *after* all per-test instrumentation has been
    /// delivered — that keeps the metrics stream independent of which
    /// worker happened to build each graph.
    pub fn report_to(&self, collector: &dyn Collector) {
        let s = self.stats();
        collector.counter("graph_cache.requests", s.requests, attrs![]);
        collector.counter("graph_cache.hits", s.hits, attrs![]);
        collector.counter("graph_cache.misses", s.misses, attrs![]);
        collector.counter("graph_cache.collisions", s.collisions, attrs![]);
        collector.counter("graph_cache.evictions", s.evictions, attrs![]);
        let mut collided =
            std::mem::take(&mut *self.collided.lock().unwrap_or_else(|e| e.into_inner()));
        collided.sort_unstable();
        for key in collided {
            collector.event(
                "graph_cache.key_collision",
                attrs!["key" => format!("{key:016x}")],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Directive;
    use rtlcheck_rtl::{Design, DesignBuilder};
    use rtlcheck_sva::SvaBool;

    fn counter() -> Design {
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
    fn fingerprints_separate_designs_and_assumptions() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let en = d.signal_by_name("en").unwrap();
        let problem = Problem::new(&d);
        let atoms = vec![RtlAtom::eq(count, 3)];
        let base = fingerprint(&problem, &atoms);
        assert_eq!(base, fingerprint(&problem, &atoms), "stable");
        let mut assumed = problem.clone();
        assumed.assumptions.push(Directive::assume(
            "en_low",
            Prop::Never(SvaBool::atom(RtlAtom::is_true(en))),
        ));
        assert_ne!(base, fingerprint(&assumed, &atoms));
        assert_ne!(base, fingerprint(&problem, &[RtlAtom::eq(count, 4)]));
        assert_ne!(base.key, base.check, "the two hashes are independent");
    }

    #[test]
    fn memory_level_shares_warm_cores() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let problem = Problem::new(&d);
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 8)));
        let cache = GraphCache::in_memory();
        let (g1, t1) = cache.build_graph(&problem, &[&prop], Engine::full(100_000));
        assert_eq!(t1, CacheSource::Cold);
        let warm_stats = g1.stats();
        assert!(warm_stats.complete);
        let (g2, t2) = cache.build_graph(&problem, &[&prop], Engine::full(100_000));
        assert_eq!(t2, CacheSource::Memory);
        assert_eq!(g2.stats(), warm_stats, "hit resumes the published core");
        let s = cache.stats();
        assert_eq!((s.requests, s.hits, s.misses), (2, 1, 1));
    }
}
