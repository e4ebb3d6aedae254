//! RTLCheck: verifying the memory consistency of RTL designs.
//!
//! This crate is the paper's primary contribution — the automated flow from
//! axiomatic microarchitectural ordering specifications (µspec) to temporal
//! SystemVerilog Assertions over a concrete RTL design, per litmus test:
//!
//! 1. The **Assumption Generator** ([`assume`], §4.1) constrains the
//!    verifier's search to executions of the litmus test: data/instruction
//!    memory initialisation, load-value guidance, and the final-value
//!    assumption whose covering trace doubles as the assumption-only
//!    verification fast path.
//! 2. The **Assertion Generator** ([`assert_gen`], §4.2–4.4) translates
//!    each grounded µspec axiom into SVA, surmounting the three
//!    axiomatic/temporal semantic mismatches of §3:
//!    *outcome-aware* translation (assertions cover every outcome of the
//!    test, not just the one under test), *strict edge encodings* (delay
//!    cycles exclude value-agnostic occurrences of the edge's endpoints),
//!    and *match-attempt filtering* (a `first |->` guard keeps only the
//!    attempt aligned with the start of execution).
//! 3. The **driver** ([`Rtlcheck`]) runs the covering-trace phase and the
//!    per-property proof engines, producing a [`TestReport`] with complete
//!    proofs, bounded proofs, or counterexample traces.
//!
//! The user-supplied connection between the abstract µspec world and the
//! design is the pair of mapping functions in [`mapping`] — the
//! [`mapping::NodeMapping`] of the paper's Figure 9 and the
//! [`mapping::ProgramMapping`] driving assumption generation.
//!
//! # Example
//!
//! ```
//! use rtlcheck_core::Rtlcheck;
//! use rtlcheck_rtl::multi_vscale::MemoryImpl;
//! use rtlcheck_verif::VerifyConfig;
//!
//! let mp = rtlcheck_litmus::suite::get("mp").unwrap();
//! let report = Rtlcheck::new(MemoryImpl::Fixed).check_test(&mp, &VerifyConfig::quick());
//! assert!(report.verified());
//! assert!(!report.bug_found());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assert_gen;
pub mod assume;
pub mod check;
pub mod five_stage;
pub mod mapping;
pub mod report;

pub use assert_gen::{AssertionOptions, GeneratedAssertion};
pub use check::{CheckError, Rtlcheck};
pub use report::{CoverOutcome, PropertyReport, TestReport};
