//! Two-level cache of warm [`StateGraph`] cores.
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
//! [`GraphCache`] exploits this at two levels:
//!
//! * **Level 1 (in-memory, cross-test).** A map from the 64-bit
//!   fingerprint to an `Arc<OnceLock<Arc<CoreSnapshot>>>`. Lookups are
//!   *build-once, read-many*: the first requester of a key builds the
//!   graph (blocking concurrent requesters of the same key), publishes the
//!   warm core, and every later requester reconstructs its own graph from
//!   the shared snapshot. Build-once (rather than racing builders and
//!   discarding losers) is what keeps the hit/miss counters — and
//!   therefore the whole metrics stream — byte-identical across
//!   `--jobs N`: misses always equal the number of distinct fingerprints.
//! * **Level 2 (on-disk, cross-run).** With a cache directory configured,
//!   a fingerprint's *final* core (post-walk, so a repeat run replays the
//!   previous run's entire exploration from disk) is serialized to
//!   `<dir>/<key>.rtlgc` in the versioned binary format below. A later run
//!   that misses in memory loads the file instead of cold-building —
//!   skipping the `graph_build` warm-up entirely and turning walks into
//!   pure cache reads. Corrupt, truncated, version-mismatched, or
//!   key-mismatched files are detected (magic + version + engine-revision
//!   tag + length/checksum trailer + semantic validation in
//!   [`StateGraph::from_snapshot`]) and fall back to a cold build with a
//!   warning event — never a wrong answer.
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
//! condition, and the rendered atom table. The per-cone tier is what the
//! incremental path diffs ([`rtlcheck_rtl::ConeSet::diff`]); the derived
//! key is what the map and the on-disk `.rtlgc` format continue to use.
//! A second, independently-seeded FNV-1a over the same description is
//! stored alongside the key; a stored artifact is used only if *both*
//! hashes match and the snapshot passes semantic validation against the
//! requesting problem (atom table, monitor arity, register count, initial
//! product state), so a key collision degrades to a counted cold build,
//! not a wrong graph.
//!
//! # File format (version 1)
//!
//! ```text
//! magic "RTLGRPH\0"                      8 bytes
//! format version                         u64 LE
//! engine revision tag                    u64 length + UTF-8 bytes
//! key, check                             2 × u64 LE
//! payload                                u64 LE stream:
//!   atom count; per atom: signal ordinal, value
//!   num_inputs, words, num_regs, num_monitors
//!   stats: nodes, edges, pruned_edges, complete
//!   node count; per node:
//!     register values                    num_regs × u64
//!     per monitor: MonitorState::encode  (self-delimiting)
//!     row flag; if 1: dests (num_inputs × u64, u32::MAX = pruned)
//!                    bits  (num_inputs × words × u64)
//! trailer: byte length of everything above, FNV-1a checksum of it
//! ```
//!
//! The trailer makes every single-byte corruption detectable: each FNV-1a
//! step `h' = (h ^ b) * prime` is a bijection in `h` for fixed `b` (the
//! prime is odd), so two streams differing in exactly one byte can never
//! share a checksum.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rtlcheck_obs::{attrs, Collector};
use rtlcheck_rtl::cone::cone_fingerprints;
use rtlcheck_rtl::sim::Simulator;
use rtlcheck_rtl::{ConeSet, Design, SignalKind};
use rtlcheck_sva::{emit, Monitor, MonitorState, Prop};

use crate::atom::RtlAtom;
use crate::engine::Engine;
use crate::graph::{GraphStats, StateGraph};
use crate::problem::Problem;

/// Bump when the serialized layout changes incompatibly.
pub const FORMAT_VERSION: u64 = 1;

/// Identifies the graph-construction semantics baked into this build; a
/// stored graph from a different engine revision is never reused.
/// `v2`: the fingerprint became the two-tier (per-cone vector + derived
/// key) scheme, so `v1` artifacts sit at stale paths.
pub const ENGINE_REVISION: &str = "explicit-product-v2";

const MAGIC: &[u8; 8] = b"RTLGRPH\0";

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
    /// Primary cache key (file name, in-memory map key).
    pub key: u64,
    /// Independently-seeded hash of the same description, stored in the
    /// artifact to demote key collisions to detectable mismatches.
    pub check: u64,
}

/// Computes the cache fingerprint of a problem and its atom table.
///
/// Two-tier: the design contributes its per-cone fingerprint vector
/// ([`cone_fingerprints`] — one word per signal, digesting exactly that
/// signal's value function) plus the register reset values and module
/// name the vector deliberately excludes; the derived whole-design key
/// then folds in the problem context (init pins, assumptions, cover,
/// atom table). Structuring the design tier as the per-cone vector is
/// what lets [`GraphCache::build_graph_incremental`] relate a mutant's
/// key to its baseline's via [`ConeSet::diff`] instead of treating every
/// design edit as a brand-new key.
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

/// Why a stored artifact was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// Bad magic, failed checksum, truncation, or malformed payload.
    Corrupt,
    /// Format version or engine-revision tag differs from this build.
    VersionMismatch,
    /// Well-formed artifact whose key/check pair is not the expected one
    /// (a hash collision or a misplaced file).
    KeyMismatch,
}

/// Serializes a snapshot to the versioned on-disk byte format.
pub fn snapshot_to_bytes(snap: &CoreSnapshot, design: &Design, key: GraphKey) -> Vec<u8> {
    let ordinal_of = |sig| {
        design
            .signals()
            .position(|(id, _)| id == sig)
            .expect("snapshot atoms refer to signals of the snapshot's design") as u64
    };
    let mut words: Vec<u64> = Vec::new();
    words.push(snap.atoms.len() as u64);
    for a in &snap.atoms {
        words.push(ordinal_of(a.sig));
        words.push(a.value);
    }
    words.push(snap.num_inputs as u64);
    words.push(snap.words as u64);
    words.push(snap.num_regs as u64);
    words.push(snap.num_monitors as u64);
    words.push(snap.stats.nodes as u64);
    words.push(snap.stats.edges);
    words.push(snap.stats.pruned_edges);
    words.push(u64::from(snap.stats.complete));
    words.push(snap.nodes.len() as u64);
    for node in &snap.nodes {
        words.extend_from_slice(&node.regs);
        for m in &node.assumptions {
            m.encode(&mut words);
        }
        match &node.row {
            None => words.push(0),
            Some((dests, bits)) => {
                words.push(1);
                words.extend(dests.iter().map(|&d| u64::from(d)));
                words.extend_from_slice(bits);
            }
        }
    }

    let mut out = Vec::with_capacity(64 + words.len() * 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(ENGINE_REVISION.len() as u64).to_le_bytes());
    out.extend_from_slice(ENGINE_REVISION.as_bytes());
    out.extend_from_slice(&key.key.to_le_bytes());
    out.extend_from_slice(&key.check.to_le_bytes());
    for w in &words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let mut sum = Fnv64::new(FNV_OFFSET);
    sum.write(&out);
    out.extend_from_slice(&(out.len() as u64).to_le_bytes());
    out.extend_from_slice(&sum.finish().to_le_bytes());
    out
}

/// Byte-stream reader for the on-disk format.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Corrupt)?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Corrupt)?;
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        // Any plausible count is bounded by the artifact size itself; this
        // keeps a corrupt length from driving a huge allocation.
        usize::try_from(v)
            .ok()
            .filter(|&n| n <= self.bytes.len())
            .ok_or(SnapshotError::Corrupt)
    }
}

/// Word-stream reader over the decoded payload. The payload past the key
/// pair is a pure `u64` stream, so it is converted to words exactly once
/// and consumed by index — [`MonitorState::decode`] reads straight from
/// the remaining slice with no per-node re-conversion.
struct WordReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl WordReader<'_> {
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let w = *self.words.get(self.pos).ok_or(SnapshotError::Corrupt)?;
        self.pos += 1;
        Ok(w)
    }

    fn len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        // Any plausible count is bounded by the payload size itself.
        usize::try_from(v)
            .ok()
            .filter(|&n| n <= self.words.len())
            .ok_or(SnapshotError::Corrupt)
    }

    fn monitor(&mut self) -> Result<MonitorState, SnapshotError> {
        let (state, used) =
            MonitorState::decode(&self.words[self.pos..]).ok_or(SnapshotError::Corrupt)?;
        self.pos += used;
        Ok(state)
    }
}

/// Deserializes and validates an artifact produced by
/// [`snapshot_to_bytes`]. `expected` is the fingerprint the *caller*
/// computed for its own problem; an artifact carrying any other pair is
/// rejected as [`SnapshotError::KeyMismatch`].
pub fn snapshot_from_bytes(
    bytes: &[u8],
    design: &Design,
    expected: GraphKey,
) -> Result<CoreSnapshot, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(SnapshotError::Corrupt);
    }
    if r.u64()? != FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch);
    }
    let tag_len = r.len()?;
    if r.take(tag_len)? != ENGINE_REVISION.as_bytes() {
        return Err(SnapshotError::VersionMismatch);
    }
    // Trailer first: everything after this point is checksum-protected.
    if bytes.len() < r.pos + 16 {
        return Err(SnapshotError::Corrupt);
    }
    let body_len = bytes.len() - 16;
    let stored_len = u64::from_le_bytes(bytes[body_len..body_len + 8].try_into().expect("8"));
    let stored_sum = u64::from_le_bytes(bytes[body_len + 8..].try_into().expect("8"));
    let mut sum = Fnv64::new(FNV_OFFSET);
    sum.write(&bytes[..body_len]);
    if stored_len != body_len as u64 || stored_sum != sum.finish() {
        return Err(SnapshotError::Corrupt);
    }
    let key = GraphKey {
        key: r.u64()?,
        check: r.u64()?,
    };
    if key != expected {
        return Err(SnapshotError::KeyMismatch);
    }

    // Payload (checksum-validated, so failures past here indicate a
    // writer bug rather than bit rot — still reported as Corrupt). From
    // here on the stream is whole little-endian u64s; decode them once.
    let tail = &bytes[r.pos..body_len];
    if !tail.len().is_multiple_of(8) {
        return Err(SnapshotError::Corrupt);
    }
    let word_buf: Vec<u64> = tail
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let mut r = WordReader {
        words: &word_buf,
        pos: 0,
    };
    let signals: Vec<_> = design.signals().map(|(id, _)| id).collect();
    let num_atoms = r.len()?;
    let mut atoms = Vec::with_capacity(num_atoms);
    for _ in 0..num_atoms {
        let ordinal = r.len()?;
        let value = r.u64()?;
        let sig = *signals.get(ordinal).ok_or(SnapshotError::Corrupt)?;
        atoms.push(RtlAtom::eq(sig, value));
    }
    let num_inputs = r.len()?;
    let words = r.len()?;
    let num_regs = r.len()?;
    let num_monitors = r.len()?;
    let stats = GraphStats {
        nodes: r.len()?,
        edges: r.u64()?,
        pruned_edges: r.u64()?,
        lookups: 0,
        reuse_hits: 0,
        complete: match r.u64()? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::Corrupt),
        },
    };
    let num_nodes = r.len()?;
    let row_words = num_inputs
        .checked_mul(words)
        .ok_or(SnapshotError::Corrupt)?;
    let mut nodes = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let mut regs = Vec::with_capacity(num_regs);
        for _ in 0..num_regs {
            regs.push(r.u64()?);
        }
        let mut assumptions = Vec::with_capacity(num_monitors);
        for _ in 0..num_monitors {
            assumptions.push(r.monitor()?);
        }
        let row = match r.u64()? {
            0 => None,
            1 => {
                let mut dests = Vec::with_capacity(num_inputs);
                for _ in 0..num_inputs {
                    let d = u32::try_from(r.u64()?).map_err(|_| SnapshotError::Corrupt)?;
                    dests.push(d);
                }
                let mut bits = Vec::with_capacity(row_words);
                for _ in 0..row_words {
                    bits.push(r.u64()?);
                }
                Some((dests, bits))
            }
            _ => return Err(SnapshotError::Corrupt),
        };
        nodes.push(NodeSnapshot {
            regs,
            assumptions,
            row,
        });
    }
    if r.pos != r.words.len() {
        return Err(SnapshotError::Corrupt); // trailing garbage
    }
    Ok(CoreSnapshot {
        atoms,
        num_inputs,
        words,
        num_regs,
        num_monitors,
        nodes,
        stats,
    })
}

/// Where a cached graph came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Built from scratch (in-memory miss, no usable disk artifact).
    Cold,
    /// Reconstructed from a snapshot another request published in memory.
    Memory,
    /// Loaded from a validated on-disk artifact.
    Disk,
    /// Spliced from a published baseline core: rows of unchanged cones
    /// copied, dirty cones re-simulated (bit-identical to a cold build).
    Spliced,
}

impl CacheSource {
    /// Short label for span attributes and logs.
    pub fn label(self) -> &'static str {
        match self {
            CacheSource::Cold => "cold",
            CacheSource::Memory => "memory",
            CacheSource::Disk => "disk",
            CacheSource::Spliced => "spliced",
        }
    }
}

/// Whether (and how) mutant checks reuse their baseline's state graph —
/// the switch behind `rtlcheck mutate --incremental`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Incremental {
    /// Every graph comes from the ordinary cache levels or a cold build;
    /// no splicing.
    Off,
    /// Mutant graphs splice from the published baseline core whenever the
    /// dirty-cone analysis allows it (the default).
    #[default]
    On,
    /// As [`Incremental::On`], but every spliced row is additionally
    /// re-simulated and asserted equal to the copied data — the
    /// belt-and-braces mode the differential CI exercises.
    Validate,
}

impl Incremental {
    /// True unless splicing is switched off.
    pub fn enabled(self) -> bool {
        !matches!(self, Incremental::Off)
    }

    /// True when spliced rows must be re-simulated and checked.
    pub fn validate(self) -> bool {
        matches!(self, Incremental::Validate)
    }

    /// Stable lower-snake label (CLI and logs).
    pub fn label(self) -> &'static str {
        match self {
            Incremental::Off => "off",
            Incremental::On => "on",
            Incremental::Validate => "validate",
        }
    }
}

/// Outcome of one [`GraphCache::build_graph`] request, returned alongside
/// the graph; hand it back to [`GraphCache::store_final`] after the walks
/// so the post-walk core can be persisted.
#[derive(Debug, Clone, Copy)]
pub struct CacheTicket {
    key: GraphKey,
    source: CacheSource,
    /// This request is the key's designated writer (it cold-built the
    /// graph and no valid disk artifact exists).
    store: bool,
}

impl CacheTicket {
    /// Where the returned graph came from.
    pub fn source(&self) -> CacheSource {
        self.source
    }

    /// The fingerprint of the request.
    pub fn key(&self) -> GraphKey {
        self.key
    }
}

/// Monotonic counters of one cache's activity. `hits + misses ==
/// requests` always; `disk_hits + disk_misses + corrupt +
/// version_mismatch + key_mismatches` accounts for every disk probe
/// (at most one per distinct fingerprint per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Graph requests served.
    pub requests: u64,
    /// Served from the in-memory level (no simulation, no disk).
    pub hits: u64,
    /// First request of each distinct fingerprint.
    pub misses: u64,
    /// Misses served by a validated on-disk artifact.
    pub disk_hits: u64,
    /// Misses that probed the directory and found no artifact.
    pub disk_misses: u64,
    /// Artifacts rejected by magic/checksum/payload validation.
    pub corrupt: u64,
    /// Artifacts from another format version or engine revision.
    pub version_mismatch: u64,
    /// Well-formed artifacts whose key/check pair did not match.
    pub key_mismatches: u64,
    /// Published snapshots rejected by semantic validation against the
    /// requesting problem (a genuine fingerprint collision).
    pub collisions: u64,
    /// Artifacts written to the cache directory.
    pub stores: u64,
    /// In-memory entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Incremental probes that found a published baseline core.
    pub incremental_hits: u64,
    /// Incremental probes that found no published baseline core.
    pub incremental_misses: u64,
    /// Graphs assembled by splicing a baseline core (a subset of
    /// `incremental_hits`: a found baseline can still be unspliceable,
    /// e.g. when the mutation dirties an assumption's atoms).
    pub spliced: u64,
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
            ("disk_hits", Json::Uint(self.disk_hits)),
            ("disk_misses", Json::Uint(self.disk_misses)),
            ("corrupt", Json::Uint(self.corrupt)),
            ("version_mismatch", Json::Uint(self.version_mismatch)),
            ("key_mismatches", Json::Uint(self.key_mismatches)),
            ("collisions", Json::Uint(self.collisions)),
            ("stores", Json::Uint(self.stores)),
            ("evictions", Json::Uint(self.evictions)),
            ("incremental_hits", Json::Uint(self.incremental_hits)),
            ("incremental_misses", Json::Uint(self.incremental_misses)),
            ("spliced", Json::Uint(self.spliced)),
        ])
    }
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    corrupt: AtomicU64,
    version_mismatch: AtomicU64,
    key_mismatches: AtomicU64,
    collisions: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    incremental_hits: AtomicU64,
    incremental_misses: AtomicU64,
    spliced: AtomicU64,
}

type Cell = Arc<OnceLock<Arc<CoreSnapshot>>>;

#[derive(Debug, Default)]
struct CacheMap {
    entries: HashMap<u64, Cell>,
    /// Insertion order, for deterministic capacity eviction.
    order: Vec<u64>,
}

/// The two-level graph cache. Cheap to share by reference across the
/// suite's worker threads (`Sync`); all observable counters are
/// schedule-invariant as long as the capacity bound is not hit (the
/// default is unbounded).
#[derive(Debug)]
pub struct GraphCache {
    dir: Option<PathBuf>,
    capacity: Option<usize>,
    map: Mutex<CacheMap>,
    counters: Counters,
    /// Deferred `(event name, file)` warnings, reported (sorted, so the
    /// stream is deterministic) by [`GraphCache::report_to`].
    warnings: Mutex<Vec<(&'static str, String)>>,
}

impl GraphCache {
    /// A purely in-memory cache (level 1 only).
    pub fn in_memory() -> Self {
        GraphCache {
            dir: None,
            capacity: None,
            map: Mutex::new(CacheMap::default()),
            counters: Counters::default(),
            warnings: Mutex::new(Vec::new()),
        }
    }

    /// A cache persisting to `dir` (created if absent).
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut cache = GraphCache::in_memory();
        cache.dir = Some(dir);
        Ok(cache)
    }

    /// Bounds the number of in-memory entries. Exceeding the bound evicts
    /// the oldest-inserted entry (deterministic only for sequential use;
    /// leave unbounded when metrics must be identical across `--jobs N`).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// The configured on-disk directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// A snapshot of the activity counters.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CacheStats {
            requests: get(&c.requests),
            hits: get(&c.hits),
            misses: get(&c.misses),
            disk_hits: get(&c.disk_hits),
            disk_misses: get(&c.disk_misses),
            corrupt: get(&c.corrupt),
            version_mismatch: get(&c.version_mismatch),
            key_mismatches: get(&c.key_mismatches),
            collisions: get(&c.collisions),
            stores: get(&c.stores),
            evictions: get(&c.evictions),
            incremental_hits: get(&c.incremental_hits),
            incremental_misses: get(&c.incremental_misses),
            spliced: get(&c.spliced),
        }
    }

    fn artifact_path(&self, key: GraphKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{:016x}.rtlgc", key.key)))
    }

    fn warn(&self, event: &'static str, file: String) {
        self.warnings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((event, file));
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

    /// Probes the disk level for `key`; counts and classifies failures.
    fn load_from_disk(&self, key: GraphKey, design: &Design) -> Option<CoreSnapshot> {
        let path = self.artifact_path(key)?;
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.counters.disk_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match snapshot_from_bytes(&bytes, design, key) {
            Ok(snap) => Some(snap),
            Err(SnapshotError::Corrupt) => {
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                self.warn("graph_cache.corrupt", path.display().to_string());
                None
            }
            Err(SnapshotError::VersionMismatch) => {
                self.counters
                    .version_mismatch
                    .fetch_add(1, Ordering::Relaxed);
                self.warn("graph_cache.version_mismatch", path.display().to_string());
                None
            }
            Err(SnapshotError::KeyMismatch) => {
                self.counters.key_mismatches.fetch_add(1, Ordering::Relaxed);
                self.warn("graph_cache.corrupt", path.display().to_string());
                None
            }
        }
    }

    /// The cached counterpart of [`crate::build_graph`]: returns a warm
    /// graph for `problem`/`props` plus the ticket describing where it
    /// came from.
    ///
    /// The first request of a fingerprint builds (from disk if a valid
    /// artifact exists, else a cold warm-up under `engine`'s budget) and
    /// publishes the core; concurrent requests of the same fingerprint
    /// block until it is published, then reconstruct from it. Every
    /// returned graph owns private interior state — sharing is of the
    /// immutable snapshot only — so walks behave exactly as on an
    /// uncached graph.
    pub fn build_graph<'p, 'd>(
        &self,
        problem: &'p Problem<'d>,
        props: &[&Prop<RtlAtom>],
        engine: Engine,
    ) -> (StateGraph<'p, 'd>, CacheTicket) {
        self.build_graph_inner(problem, props, engine, None)
    }

    /// [`GraphCache::build_graph`] with an incremental fast path: on an
    /// in-memory miss, first try to splice the requested graph from the
    /// published core of `baseline` (the un-mutated design this problem's
    /// design was derived from), re-simulating only the dirty cones'
    /// contributions; the disk level and the cold build remain as
    /// fallbacks. The spliced graph is bit-identical to what a cold build
    /// would have produced (see [`StateGraph::splice`]), so the published
    /// snapshot, the walks, and any stored artifact are indistinguishable
    /// from the non-incremental path — only the construction cost and the
    /// `cone.*` counters differ.
    ///
    /// `validate` additionally re-simulates every spliced row and asserts
    /// equality with the copied data (the belt-and-braces mode the
    /// differential CI exercises).
    pub fn build_graph_incremental<'p, 'd>(
        &self,
        problem: &'p Problem<'d>,
        props: &[&Prop<RtlAtom>],
        engine: Engine,
        baseline: &Design,
        validate: bool,
    ) -> (StateGraph<'p, 'd>, CacheTicket) {
        self.build_graph_inner(problem, props, engine, Some((baseline, validate)))
    }

    /// Probes the in-memory level for a *baseline* core to splice
    /// against. Never blocks on an in-flight build and never touches the
    /// disk level: incremental probes run inside the requesting key's own
    /// build slot, where waiting on another key's `OnceLock` could
    /// deadlock. `dirty` is the classified dirty set the caller intends
    /// to splice with (from [`ConeSet::diff`]; an empty set — pure reuse
    /// — is fine).
    pub fn lookup_incremental(
        &self,
        baseline: GraphKey,
        dirty: &ConeSet,
    ) -> Option<Arc<CoreSnapshot>> {
        debug_assert!(
            dirty.wires.windows(2).all(|w| w[0] < w[1])
                && dirty.regs.windows(2).all(|w| w[0] < w[1]),
            "dirty sets come from ConeSet::diff, sorted and deduplicated"
        );
        let cell = {
            let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
            map.entries.get(&baseline.key).cloned()
        };
        match cell.and_then(|c| c.get().cloned()) {
            Some(snap) => {
                self.counters
                    .incremental_hits
                    .fetch_add(1, Ordering::Relaxed);
                Some(snap)
            }
            None => {
                self.counters
                    .incremental_misses
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The incremental attempt: diff the designs, locate the baseline's
    /// published core, check it really describes the baseline problem
    /// (collision guard), and splice.
    fn try_splice<'p, 'd>(
        &self,
        problem: &'p Problem<'d>,
        props: &[&Prop<RtlAtom>],
        engine: Engine,
        baseline: &Design,
        validate: bool,
        atoms: &[RtlAtom],
    ) -> Option<StateGraph<'p, 'd>> {
        let dirty = ConeSet::diff(baseline, problem.design)?;
        // The baseline problem: same pins/assumptions/cover over the
        // un-mutated design. Signal ordinals are shared (diff proved the
        // tables compatible), so the handles transfer directly — this is
        // exactly the problem the baseline's own requests fingerprinted.
        let bproblem = Problem {
            design: baseline,
            init_pins: problem.init_pins.clone(),
            assumptions: problem.assumptions.clone(),
            cover: problem.cover.clone(),
        };
        let bkey = fingerprint(&bproblem, atoms);
        let bsnap = self.lookup_incremental(bkey, &dirty)?;
        if !snapshot_describes(&bsnap, &bproblem) {
            return None;
        }
        StateGraph::splice(
            problem,
            props.iter().copied(),
            bsnap,
            &dirty,
            engine,
            validate,
        )
    }

    fn build_graph_inner<'p, 'd>(
        &self,
        problem: &'p Problem<'d>,
        props: &[&Prop<RtlAtom>],
        engine: Engine,
        incremental: Option<(&Design, bool)>,
    ) -> (StateGraph<'p, 'd>, CacheTicket) {
        let atoms = StateGraph::atom_table(problem, props.iter().copied());
        let key = fingerprint(problem, &atoms);
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let cell = self.cell_for(key.key);

        let mut local: Option<(StateGraph<'p, 'd>, CacheSource)> = None;
        let snap = cell
            .get_or_init(|| {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                if let Some((baseline, validate)) = incremental {
                    if let Some(graph) =
                        self.try_splice(problem, props, engine, baseline, validate, &atoms)
                    {
                        self.counters.spliced.fetch_add(1, Ordering::Relaxed);
                        let snap = Arc::new(graph.snapshot());
                        local = Some((graph, CacheSource::Spliced));
                        return snap;
                    }
                }
                if self.dir.is_some() {
                    if let Some(snap) = self.load_from_disk(key, problem.design) {
                        match StateGraph::from_snapshot(problem, props.iter().copied(), &snap) {
                            Some(graph) => {
                                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                                local = Some((graph, CacheSource::Disk));
                                return Arc::new(snap);
                            }
                            None => {
                                // Checksum-valid artifact that does not
                                // describe this problem: a fingerprint
                                // collision. Fall back to a cold build.
                                self.counters.collisions.fetch_add(1, Ordering::Relaxed);
                                self.warn(
                                    "graph_cache.key_collision",
                                    self.artifact_path(key)
                                        .map(|p| p.display().to_string())
                                        .unwrap_or_default(),
                                );
                            }
                        }
                    }
                }
                let graph = StateGraph::build(problem, props.iter().copied(), engine);
                let snap = Arc::new(graph.snapshot());
                local = Some((graph, CacheSource::Cold));
                snap
            })
            .clone();

        let (graph, source) = match local {
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
                        self.warn("graph_cache.key_collision", format!("{:016x}", key.key));
                        (
                            StateGraph::build(problem, props.iter().copied(), engine),
                            CacheSource::Cold,
                        )
                    }
                }
            }
        };
        // Spliced builds are bit-identical to cold builds, so they are
        // equally valid designated writers for the on-disk level.
        let store = self.dir.is_some()
            && matches!(source, CacheSource::Cold | CacheSource::Spliced)
            && snap_is(&snap, &graph);
        (graph, CacheTicket { key, source, store })
    }

    /// Persists the *final* (post-walk) core of a graph returned by
    /// [`GraphCache::build_graph`], if this request is the key's
    /// designated writer. Call after the walks; a follow-up run then
    /// replays the whole exploration from disk. Write failures degrade to
    /// a warning event.
    pub fn store_final(&self, ticket: &CacheTicket, graph: &StateGraph<'_, '_>) {
        if !ticket.store {
            return;
        }
        let Some(path) = self.artifact_path(ticket.key) else {
            return;
        };
        let bytes = snapshot_to_bytes(&graph.snapshot(), graph.problem().design, ticket.key);
        // Atomic publish: never expose a half-written artifact.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let written = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
        match written {
            Ok(()) => {
                self.counters.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
                self.warn("graph_cache.store_failed", path.display().to_string());
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
        collector.counter("graph_cache.disk_hits", s.disk_hits, attrs![]);
        collector.counter("graph_cache.disk_misses", s.disk_misses, attrs![]);
        collector.counter("graph_cache.corrupt", s.corrupt, attrs![]);
        collector.counter("graph_cache.version_mismatch", s.version_mismatch, attrs![]);
        collector.counter("graph_cache.key_mismatches", s.key_mismatches, attrs![]);
        collector.counter("graph_cache.collisions", s.collisions, attrs![]);
        collector.counter("graph_cache.stores", s.stores, attrs![]);
        collector.counter("graph_cache.evictions", s.evictions, attrs![]);
        collector.counter("graph_cache.incremental_hits", s.incremental_hits, attrs![]);
        collector.counter(
            "graph_cache.incremental_misses",
            s.incremental_misses,
            attrs![],
        );
        collector.counter("graph_cache.spliced", s.spliced, attrs![]);
        let mut warnings =
            std::mem::take(&mut *self.warnings.lock().unwrap_or_else(|e| e.into_inner()));
        warnings.sort();
        for (event, file) in &warnings {
            collector.event(event, attrs!["file" => file.as_str()]);
        }
    }
}

/// Sanity link between a ticket's graph and the published snapshot: the
/// store path must only fire for the graph whose core seeded the entry.
fn snap_is(snap: &CoreSnapshot, graph: &StateGraph<'_, '_>) -> bool {
    snap.atoms == graph.atoms()
}

/// Collision guard for the incremental path: a published snapshot is only
/// spliced from if its initial product node is the baseline problem's —
/// the same check [`StateGraph::from_snapshot`] performs, minus the parts
/// [`StateGraph::splice`] re-validates itself (atom table, dimensions,
/// row well-formedness).
fn snapshot_describes(snap: &CoreSnapshot, problem: &Problem<'_>) -> bool {
    if snap.num_monitors != problem.assumptions.len()
        || snap.num_regs != problem.design.num_regs()
        || snap.nodes.is_empty()
    {
        return false;
    }
    let sim = Simulator::new(problem.design);
    let Ok(initial) = sim.initial_state_with(&problem.init_pins) else {
        return false;
    };
    let init_states: Vec<MonitorState> = problem
        .assumptions
        .iter()
        .map(|d| Monitor::new(&d.prop).state().clone())
        .collect();
    snap.nodes[0].regs == initial.regs() && snap.nodes[0].assumptions == init_states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Directive;
    use rtlcheck_rtl::DesignBuilder;
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

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtlgc-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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
        assert_eq!(t1.source(), CacheSource::Cold);
        let warm_stats = g1.stats();
        assert!(warm_stats.complete);
        let (g2, t2) = cache.build_graph(&problem, &[&prop], Engine::full(100_000));
        assert_eq!(t2.source(), CacheSource::Memory);
        assert_eq!(g2.stats(), warm_stats, "hit resumes the published core");
        let s = cache.stats();
        assert_eq!((s.requests, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn disk_level_round_trips_the_final_core() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let problem = Problem::new(&d);
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 8)));
        let dir = tmp_dir("roundtrip");

        let cache = GraphCache::with_dir(&dir).unwrap();
        let (g, ticket) = cache.build_graph(&problem, &[&prop], Engine::full(100_000));
        assert_eq!(ticket.source(), CacheSource::Cold);
        cache.store_final(&ticket, &g);
        assert_eq!(cache.stats().stores, 1);

        let warm = GraphCache::with_dir(&dir).unwrap();
        let (g2, t2) = warm.build_graph(&problem, &[&prop], Engine::full(100_000));
        assert_eq!(t2.source(), CacheSource::Disk);
        assert_eq!(g2.stats(), g.stats());
        let s = warm.stats();
        assert_eq!((s.disk_hits, s.corrupt), (1, 0));

        // Corrupt any one byte: detected, falls back to a cold build.
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let third = GraphCache::with_dir(&dir).unwrap();
        let (g3, t3) = third.build_graph(&problem, &[&prop], Engine::full(100_000));
        assert_eq!(t3.source(), CacheSource::Cold);
        assert_eq!(g3.stats(), g.stats(), "fallback rebuilds the same graph");
        let s = third.stats();
        assert!(s.corrupt == 1 || s.key_mismatches == 1, "{s:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The counter with a mutated increment: `count <= en ? count+2 : count`.
    /// Same signal table as [`counter`], so `ConeSet::diff` is exact.
    fn counter_by_two() -> Design {
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
    fn incremental_splices_from_a_published_baseline() {
        let base = counter();
        let mutant = counter_by_two();
        let count = base.signal_by_name("count").unwrap();
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 7)));
        let cache = GraphCache::in_memory();

        let bproblem = Problem::new(&base);
        let (_, bt) = cache.build_graph(&bproblem, &[&prop], Engine::full(100_000));
        assert_eq!(bt.source(), CacheSource::Cold);

        let mproblem = Problem::new(&mutant);
        let (mg, mt) =
            cache.build_graph_incremental(&mproblem, &[&prop], Engine::full(100_000), &base, true);
        assert_eq!(mt.source(), CacheSource::Spliced);
        let cold = StateGraph::build(&mproblem, [&prop], Engine::full(100_000));
        assert_eq!(mg.snapshot(), cold.snapshot(), "splice is bit-identical");
        let s = cache.stats();
        assert_eq!((s.incremental_hits, s.spliced), (1, 1));

        // A repeat of the same mutant request is a plain memory hit: the
        // spliced core was published like any other.
        let (_, t3) =
            cache.build_graph_incremental(&mproblem, &[&prop], Engine::full(100_000), &base, false);
        assert_eq!(t3.source(), CacheSource::Memory);
    }

    #[test]
    fn incremental_without_a_baseline_falls_back_cold() {
        let base = counter();
        let mutant = counter_by_two();
        let count = base.signal_by_name("count").unwrap();
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 7)));
        let cache = GraphCache::in_memory();
        let mproblem = Problem::new(&mutant);
        let (mg, mt) =
            cache.build_graph_incremental(&mproblem, &[&prop], Engine::full(100_000), &base, false);
        assert_eq!(mt.source(), CacheSource::Cold);
        let cold = StateGraph::build(&mproblem, [&prop], Engine::full(100_000));
        assert_eq!(mg.snapshot(), cold.snapshot());
        let s = cache.stats();
        assert_eq!((s.incremental_hits, s.incremental_misses), (0, 1));
        assert_eq!(s.spliced, 0);
    }

    #[test]
    fn version_mismatch_is_classified_before_checksum() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let problem = Problem::new(&d);
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 8)));
        let atoms = StateGraph::atom_table(&problem, [&prop]);
        let key = fingerprint(&problem, &atoms);
        let graph = StateGraph::build(&problem, [&prop], Engine::full(100_000));
        let mut bytes = snapshot_to_bytes(&graph.snapshot(), &d, key);
        // Bump the version field without fixing the trailer: a genuinely
        // old file would have a self-consistent trailer, but either way
        // the version must be inspected first.
        bytes[8] ^= 0xff;
        assert_eq!(
            snapshot_from_bytes(&bytes, &d, key),
            Err(SnapshotError::VersionMismatch)
        );
    }

    #[test]
    fn truncation_and_zero_length_are_corrupt() {
        let d = counter();
        let count = d.signal_by_name("count").unwrap();
        let problem = Problem::new(&d);
        let prop = Prop::Never(SvaBool::atom(RtlAtom::eq(count, 8)));
        let atoms = StateGraph::atom_table(&problem, [&prop]);
        let key = fingerprint(&problem, &atoms);
        let graph = StateGraph::build(&problem, [&prop], Engine::full(100_000));
        let bytes = snapshot_to_bytes(&graph.snapshot(), &d, key);
        assert!(snapshot_from_bytes(&bytes, &d, key).is_ok());
        assert_eq!(
            snapshot_from_bytes(&[], &d, key),
            Err(SnapshotError::Corrupt)
        );
        assert_eq!(
            snapshot_from_bytes(&bytes[..bytes.len() - 1], &d, key),
            Err(SnapshotError::Corrupt)
        );
        let wrong = GraphKey {
            key: key.key ^ 1,
            check: key.check,
        };
        assert_eq!(
            snapshot_from_bytes(&bytes, &d, wrong),
            Err(SnapshotError::KeyMismatch)
        );
    }
}
