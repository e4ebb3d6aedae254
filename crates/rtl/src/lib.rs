//! A word-level RTL intermediate representation with a cycle-accurate
//! simulator, a Verilog emitter, and the multicore designs RTLCheck
//! verifies.
//!
//! The RTLCheck paper verifies SystemVerilog designs with the commercial
//! JasperGold property verifier. This crate provides the open substrate
//! that replaces the Verilog front end: a small synchronous IR
//! ([`Design`]) of registers, primary inputs, and combinational wires over
//! fixed-width words, with
//!
//! * a deterministic simulator ([`sim::Simulator`]) whose [`sim::State`] is
//!   compact and hashable — exactly what the explicit-state property
//!   verifier needs,
//! * a structural Verilog emitter ([`verilog::emit`]) so the modelled
//!   design can be inspected as the HDL a real JasperGold run would
//!   consume,
//! * [`multi_vscale`] — the paper's evaluation platform: four three-stage
//!   in-order V-scale pipelines behind a single-ported memory arbiter, with
//!   both the **buggy** memory (the `wdata` single-entry store buffer that
//!   drops the first of two back-to-back stores, §7.1) and the **fixed**
//!   memory,
//! * [`tso`] — the same cores with per-core store buffers (x86-TSO), built
//!   by [`MultiVscale::build`](multi_vscale::MultiVscale::build) with
//!   [`MemoryImpl::Tso`](multi_vscale::MemoryImpl::Tso), and
//! * [`five_stage`] — four five-stage pipelines that access memory in
//!   their Memory stage.
//!
//! The three builders share their common parts (the grant, `first` and
//! memory words, the instruction ROMs, the Fetch stage, the halt latch and
//! the V-scale core) through one private module, so each design file holds
//! only its own memory system.
//!
//! # Example
//!
//! ```
//! use rtlcheck_rtl::{DesignBuilder, sim::Simulator};
//!
//! let mut b = DesignBuilder::new("counter");
//! let count = b.reg("count", 8, Some(0));
//! let one = b.lit(1, 8);
//! let count_e = b.sig(count);
//! let next = b.add(count_e, one);
//! b.set_next(count, next);
//! let design = b.build().unwrap();
//!
//! let sim = Simulator::new(&design);
//! let mut state = sim.initial_state().unwrap();
//! for _ in 0..5 {
//!     state = sim.step(&state, &[]);
//! }
//! assert_eq!(sim.peek(&state, &[], count), 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod design;
mod expr;
mod pipeline;

pub mod cone;
pub mod five_stage;
pub mod isa;
pub mod multi_vscale;
pub mod mutate;
pub mod sim;
pub mod tso;
pub mod vcd;
pub mod verilog;
pub mod waveform;

pub use builder::DesignBuilder;
pub use cone::{Cone, ConeAnalysis, ConeSet};
pub use design::{Design, DesignError, Signal, SignalId, SignalKind};
pub use expr::{BinOp, Expr, ExprId, UnOp};
