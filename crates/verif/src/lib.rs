//! An explicit-state RTL property verifier — the open-source stand-in for
//! the commercial JasperGold verifier used in the RTLCheck paper.
//!
//! Given a design, a set of SVA assumptions, and an assertion, the verifier
//! explores the product of the design's reachable state graph (over all
//! primary-input valuations) with the assertion's monitor state:
//!
//! * a trace on which an **assumption** fails is discarded from that cycle
//!   on — assumptions are enforced only up to the present cycle, never
//!   against the future (the JasperGold behaviour that drives the paper's
//!   §3 translation challenges);
//! * an admissible trace on which the **assertion** monitor fails is a
//!   counterexample, returned as a replayable [`rtlcheck_rtl::waveform::Trace`];
//! * exhausting the reachable product space without failure is a **complete
//!   proof**; hitting an engine's state/depth budget first yields a
//!   **bounded proof** for the explored depth (§6.1's three outcomes).
//!
//! The verifier also implements JasperGold's **covering-trace** search used
//! by RTLCheck's assumption-only fast path (§4.1): find an admissible trace
//! reaching a cover condition (e.g. "all cores halted", the antecedent of
//! the final-value assumption), or prove it unreachable — which verifies the
//! litmus test without touching the assertions.
//!
//! Engine configurations ([`VerifyConfig`]) mirror the paper's Table 1:
//! `hybrid` runs a bounded engine before the full-proof engine; `full_proof`
//! runs only full-proof engines with a larger budget.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atom;
pub mod backend;
pub mod cache;
mod det;
pub mod engine;
pub mod explore;
pub mod graph;
pub mod problem;
pub mod replay;

pub use atom::RtlAtom;
pub use backend::Backend;
pub use cache::{
    fingerprint, fingerprint_problem, snapshot_from_bytes, snapshot_to_bytes, CacheSource,
    CacheStats, CacheTicket, CoreSnapshot, GraphCache, GraphKey, Incremental, SnapshotError,
};
pub use engine::{Engine, EngineKind, PropertyVerdict, VerifyConfig};
pub use explore::{
    build_graph, check_cover, check_cover_observed, check_cover_on_graph,
    check_cover_on_graph_observed, verify_property, verify_property_observed,
    verify_property_on_graph, verify_property_on_graph_observed, CoverVerdict, ExploreStats,
};
pub use graph::{GraphStats, StateGraph};
pub use problem::{Directive, DirectiveKind, Problem};
pub use replay::{check_transitions, replay, ReplayVerdict};
