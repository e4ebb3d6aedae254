//! The Multi-V-scale processor design (paper §5).
//!
//! Four V-scale pipelines — three stages: Fetch (IF), Decode-Execute (DX),
//! Writeback (WB) — share a single-ported data memory through an arbiter
//! that grants at most one core per cycle. The grant is a top-level input,
//! so a property verifier explores *every* switching pattern (§5.2). The
//! memory is pipelined: the arbiter can accept a new DX request while the
//! previous instruction is in WB receiving or providing data (Figure 11).
//!
//! Two memory implementations are provided:
//!
//! * [`MemoryImpl::Buggy`] — faithful to the V-scale bug RTLCheck found
//!   (§7.1, Figure 12): stores clock their data into a single-entry
//!   `wdata` buffer one cycle after WB, and the buffer is pushed to the
//!   memory array only when *another* store initiates a transaction. If two
//!   stores arrive in successive cycles the push happens before `wdata` has
//!   captured the first store's data, so the first store is dropped
//!   (replaced by stale data). Loads whose address matches the pending
//!   buffer are bypassed from it.
//! * [`MemoryImpl::Fixed`] — the paper's fix: a store's data is clocked
//!   directly into the memory array one cycle after its WB stage, and loads
//!   combinationally read the array during WB.
//!
//! Data-memory words have *free* initial values, pinned by the generated
//! memory-initialisation assumptions exactly as in the paper (§4.1).

use rtlcheck_litmus::LitmusTest;

use crate::builder::DesignBuilder;
use crate::design::{Design, SignalId};
use crate::isa::{self, kind, EncInstr};
use crate::pipeline::{self, Frame, VscaleRegs, ADDR_WIDTH, DATA_WIDTH, GRANT_WIDTH, KIND_WIDTH};

/// Number of cores in the Multi-V-scale design.
pub const NUM_CORES: usize = 4;

/// Which data-memory implementation to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryImpl {
    /// The original V-scale memory with the store-dropping bug (§7.1).
    Buggy,
    /// The corrected memory (§7.1's fix).
    Fixed,
    /// The Total Store Order variant: per-core single-entry store buffers
    /// between Writeback and memory (see [`crate::tso`]).
    Tso,
}

/// Signal handles for one core's pipeline.
#[derive(Debug, Clone, Copy)]
pub struct CoreSignals {
    /// Fetch-stage PC register.
    pub pc_if: SignalId,
    /// Decode-Execute-stage PC register ([`BUBBLE_PC`](isa::BUBBLE_PC) for bubbles).
    pub pc_dx: SignalId,
    /// Writeback-stage PC register ([`BUBBLE_PC`](isa::BUBBLE_PC) for bubbles).
    pub pc_wb: SignalId,
    /// DX-stage instruction kind.
    pub kind_dx: SignalId,
    /// WB-stage instruction kind.
    pub kind_wb: SignalId,
    /// DX-stage memory word address.
    pub addr_dx: SignalId,
    /// WB-stage memory word address.
    pub addr_wb: SignalId,
    /// WB-stage store data (drives the memory write bus).
    pub store_data_wb: SignalId,
    /// WB-stage load result (combinational).
    pub load_data_wb: SignalId,
    /// Whether the Fetch stage is stalled (holds while DX is stalled, as in
    /// the V-scale pipeline).
    pub stall_if: SignalId,
    /// Whether the DX stage is stalled waiting for the arbiter.
    pub stall_dx: SignalId,
    /// Whether the WB stage is stalled (constant 0 in V-scale: the memory's
    /// ready signal is hard-coded high — part of the §7.1 bug story).
    pub stall_wb: SignalId,
    /// Set once the core's halt instruction reaches WB.
    pub halted: SignalId,
}

/// Per-core store-buffer signals of the TSO variant (see [`crate::tso`]).
#[derive(Debug, Clone, Copy)]
pub struct TsoCoreSignals {
    /// Whether the core's single-entry store buffer holds a store.
    pub sbuf_valid: SignalId,
    /// Buffered store's word address.
    pub sbuf_addr: SignalId,
    /// Buffered store's data.
    pub sbuf_data: SignalId,
    /// Buffered store's PC (identifies which instruction drains).
    pub sbuf_pc: SignalId,
    /// High exactly in the cycle the buffer drains to memory: the store's
    /// `Memory` stage event.
    pub drain: SignalId,
}

/// The built Multi-V-scale design plus handles to its architecturally
/// meaningful signals.
#[derive(Debug, Clone)]
pub struct MultiVscale {
    /// The finalized design.
    pub design: Design,
    /// Which memory implementation was instantiated.
    pub memory_impl: MemoryImpl,
    /// Arbiter grant input (2 bits: the core granted memory this cycle).
    pub grant: SignalId,
    /// The `first` register: 1 exactly in the first post-reset cycle
    /// (used by generated assumptions/assertions, §4.1/§4.4).
    pub first: SignalId,
    /// Data-memory word registers (free initial values), indexed by litmus
    /// location.
    pub mem: Vec<SignalId>,
    /// Constant wires carrying each core's packed program, indexed
    /// `[core][slot]` (referenced by instruction-initialisation
    /// assumptions).
    pub imem: Vec<Vec<SignalId>>,
    /// Per-core pipeline signals.
    pub cores: Vec<CoreSignals>,
    /// Per-core store-buffer signals (`Some` only for [`MemoryImpl::Tso`]).
    pub tso: Option<Vec<TsoCoreSignals>>,
    /// The encoded programs, indexed `[core][slot]`.
    pub programs: Vec<Vec<EncInstr>>,
}

impl MultiVscale {
    /// Builds the Multi-V-scale design loaded with `test`'s programs.
    ///
    /// The data memory has one word per litmus location. Cores beyond the
    /// test's threads run an immediate halt.
    ///
    /// # Panics
    ///
    /// Panics if the test needs more than [`NUM_CORES`] cores, a thread
    /// exceeds the per-core PC window, or the test has more than
    /// [`isa::MAX_LOCATIONS`] locations (see [`isa::check_fit`]).
    pub fn build(test: &LitmusTest, memory_impl: MemoryImpl) -> MultiVscale {
        let programs = isa::encode_programs(test, NUM_CORES);
        let num_words = test.num_locations().max(1);
        Self::build_raw(programs, num_words, memory_impl)
    }

    /// Builds the design from raw encoded programs and a word count.
    pub fn build_raw(
        programs: Vec<Vec<EncInstr>>,
        num_words: usize,
        memory_impl: MemoryImpl,
    ) -> MultiVscale {
        let mut b = DesignBuilder::new(match memory_impl {
            MemoryImpl::Buggy => "multi_vscale_buggy",
            MemoryImpl::Fixed => "multi_vscale_fixed",
            MemoryImpl::Tso => return crate::tso::build_raw(programs, num_words),
        });
        let Frame { grant, first, mem } = Frame::new(&mut b, num_words);
        let regs: Vec<VscaleRegs> = (0..NUM_CORES).map(|c| VscaleRegs::new(&mut b, c)).collect();

        // Memory/arbiter bookkeeping registers.
        let prev_core = b.reg("arbiter_prev_core", GRANT_WIDTH, Some(0));
        let prev_was_store = b.reg("mem_prev_was_store", 1, Some(0));
        let prev_addr = b.reg("mem_prev_addr", ADDR_WIDTH, Some(0));
        // Buggy-memory store buffer: (wdata, waddr, wpending).
        let buffer = (memory_impl == MemoryImpl::Buggy).then(|| {
            (
                b.reg("mem_wdata", DATA_WIDTH, Some(0)),
                b.reg("mem_waddr", ADDR_WIDTH, Some(0)),
                b.reg("mem_wpending", 1, Some(0)),
            )
        });

        let (imem, decodes) = pipeline::roms(&mut b, &programs, |c| regs[c].pc_if);

        // ---- Arbiter and memory request ----
        // The granted core's DX fields.
        let gkind = pipeline::select(&mut b, grant, regs.iter().map(|r| r.kind_dx));
        let gaddr = pipeline::select(&mut b, grant, regs.iter().map(|r| r.addr_dx));
        let is_store_k = {
            let k = b.lit(kind::STORE, KIND_WIDTH);
            b.eq(gkind, k)
        };
        let is_load_k = {
            let k = b.lit(kind::LOAD, KIND_WIDTH);
            b.eq(gkind, k)
        };
        let req_is_store = b.wire("mem_req_is_store", is_store_k);
        let _req_is_load = b.wire("mem_req_is_load", is_load_k);
        let req_addr = b.wire("mem_req_addr", gaddr);

        // The write-data bus: driven during WB by the core granted last
        // cycle (Figure 11's pipelining).
        let wdata_bus_e = pipeline::select(&mut b, prev_core, regs.iter().map(|r| r.store_data_wb));
        let wdata_bus = b.wire("mem_wdata_bus", wdata_bus_e);

        // Arbiter bookkeeping.
        for (reg, src) in [
            (prev_core, grant),
            (prev_was_store, req_is_store),
            (prev_addr, req_addr),
        ] {
            let src = b.sig(src);
            b.set_next(reg, src);
        }

        // ---- Memory array update ----
        if let Some((wdata, waddr, wpending)) = buffer {
            // wdata captures the store-data bus one cycle after the store's
            // WB request was accepted.
            let bus = b.sig(wdata_bus);
            let hold_wdata = b.sig(wdata);
            let pws = b.sig(prev_was_store);
            let wdata_next = b.mux(pws, bus, hold_wdata);
            b.set_next(wdata, wdata_next);
            // A new store transaction replaces the buffered address and
            // pushes the *current* wdata to memory — the push uses the
            // value of wdata from this cycle (non-blocking semantics),
            // which for back-to-back stores has not yet captured the first
            // store's data: the V-scale bug.
            let req_st = b.sig(req_is_store);
            let hold_waddr = b.sig(waddr);
            let new_addr = b.sig(req_addr);
            let waddr_next = b.mux(req_st, new_addr, hold_waddr);
            b.set_next(waddr, waddr_next);
            let one = b.lit(1, 1);
            pipeline::hold_or(&mut b, req_st, wpending, one);
            for (w, &mem_w) in mem.iter().enumerate() {
                let req_st = b.sig(req_is_store);
                let pend = b.sig(wpending);
                let both = b.and(req_st, pend);
                let here = b.eq_lit(waddr, w as u64);
                let push_here = b.and(both, here);
                let old_wdata = b.sig(wdata);
                pipeline::hold_or(&mut b, push_here, mem_w, old_wdata);
            }
        } else {
            // The fix: clock the store's data straight into the array one
            // cycle after its WB stage.
            for (w, &mem_w) in mem.iter().enumerate() {
                let pws = b.sig(prev_was_store);
                let here = b.eq_lit(prev_addr, w as u64);
                let write_here = b.and(pws, here);
                let bus = b.sig(wdata_bus);
                pipeline::hold_or(&mut b, write_here, mem_w, bus);
            }
        }

        // ---- Per-core pipeline behaviour ----
        let cores = regs
            .iter()
            .enumerate()
            .map(|(c, r)| {
                // stall_DX: a memory instruction in DX waits for its grant.
                let is_ld = b.eq_lit(r.kind_dx, kind::LOAD);
                let is_st = b.eq_lit(r.kind_dx, kind::STORE);
                let is_mem = b.or(is_ld, is_st);
                let granted = b.eq_lit(grant, c as u64);
                let not_granted = b.not_e(granted);
                let stall_dx = b.and(is_mem, not_granted);
                r.build(&mut b, c, &decodes[c], stall_dx, |b| {
                    // Load result: combinational read during WB, bypassed
                    // from the buggy memory's pending store buffer when
                    // the address matches.
                    let read = pipeline::read(b, &mem, r.addr_wb);
                    let Some((wdata, waddr, wpending)) = buffer else {
                        return read;
                    };
                    let pend = b.sig(wpending);
                    let wa = b.sig(waddr);
                    let la = b.sig(r.addr_wb);
                    let match_a = b.eq(la, wa);
                    let hit = b.and(pend, match_a);
                    let wd = b.sig(wdata);
                    b.mux(hit, wd, read)
                })
            })
            .collect();

        let design = b.build().expect("Multi-V-scale IR is well-formed");
        MultiVscale {
            design,
            memory_impl,
            grant,
            first,
            mem,
            imem,
            cores,
            tso: None,
            programs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Simulator, State};
    use rtlcheck_litmus::suite;

    /// Builds mp on the given memory and returns (design, sim helpers).
    fn build_mp(mem_impl: MemoryImpl) -> MultiVscale {
        let mp = suite::get("mp").unwrap();
        MultiVscale::build(&mp, mem_impl)
    }

    fn init_state(mv: &MultiVscale, sim: &Simulator<'_>, init: &[u64]) -> State {
        let pins: Vec<_> = mv.mem.iter().copied().zip(init.iter().copied()).collect();
        sim.initial_state_with(&pins).unwrap()
    }

    /// Runs the design with a fixed grant schedule and returns the final
    /// state after `cycles`.
    fn run(mv: &MultiVscale, sim: &Simulator<'_>, grants: &[u64], init: &[u64]) -> State {
        let mut s = init_state(mv, sim, init);
        for &g in grants {
            s = sim.step(&s, &[g]);
        }
        s
    }

    #[test]
    fn builds_for_every_suite_test() {
        for t in suite::all() {
            for m in [MemoryImpl::Buggy, MemoryImpl::Fixed] {
                let mv = MultiVscale::build(&t, m);
                assert_eq!(mv.cores.len(), NUM_CORES, "{}", t.name());
                assert!(mv.design.num_regs() > 20);
            }
        }
    }

    #[test]
    fn first_signal_is_one_then_zero() {
        let mv = build_mp(MemoryImpl::Fixed);
        let sim = Simulator::new(&mv.design);
        let mut s = init_state(&mv, &sim, &[0, 0]);
        assert_eq!(sim.peek(&s, &[0], mv.first), 1);
        s = sim.step(&s, &[0]);
        assert_eq!(sim.peek(&s, &[0], mv.first), 0);
        s = sim.step(&s, &[3]);
        assert_eq!(sim.peek(&s, &[0], mv.first), 0);
    }

    #[test]
    fn cores_halt_and_pcs_freeze() {
        let mv = build_mp(MemoryImpl::Fixed);
        let sim = Simulator::new(&mv.design);
        // Round-robin grants for plenty of cycles: everyone finishes.
        let grants: Vec<u64> = (0..40).map(|i| i % 4).collect();
        let s = run(&mv, &sim, &grants, &[0, 0]);
        for c in 0..NUM_CORES {
            assert_eq!(sim.peek(&s, &[0], mv.cores[c].halted), 1, "core {c} halted");
        }
        // The state is absorbing: stepping again with any grant changes
        // nothing.
        for g in 0..4u64 {
            let s2 = sim.step(&s, &[g]);
            assert_eq!(s2, sim.step(&s2, &[g]), "halted state is absorbing");
        }
    }

    /// Figure 11: a store on core 0 and a load on core 1 pipeline through
    /// the arbiter in back-to-back cycles.
    #[test]
    fn arbiter_pipelining_matches_figure_11() {
        let t = rtlcheck_litmus::parse(
            "test f11\n{ x = 0; }\ncore 0 { st x, 1; }\ncore 1 { r1 = ld x; }\npermit ( 1:r1 = 1 )",
        )
        .unwrap();
        let mv = MultiVscale::build(&t, MemoryImpl::Fixed);
        let sim = Simulator::new(&mv.design);
        // Cycle 0: both cores fetch. Cycle 1: both in DX; grant core 0
        // (store accesses memory). Cycle 2: store in WB providing data
        // while core 1's load is granted DX. Cycle 3: load in WB; memory
        // was updated at the start of cycle 3, so the load returns 1.
        let mut s = init_state(&mv, &sim, &[0]);
        s = sim.step(&s, &[0]); // cycle 1 begins
        assert_eq!(sim.peek(&s, &[0], mv.cores[0].kind_dx), kind::STORE);
        assert_eq!(sim.peek(&s, &[1], mv.cores[1].kind_dx), kind::LOAD);
        // Core 1 is stalled in DX while core 0 owns the memory.
        assert_eq!(sim.peek(&s, &[0], mv.cores[1].stall_dx), 1);
        assert_eq!(sim.peek(&s, &[0], mv.cores[0].stall_dx), 0);
        s = sim.step(&s, &[0]); // cycle 2: store to WB, load granted
        assert_eq!(sim.peek(&s, &[1], mv.cores[0].kind_wb), kind::STORE);
        assert_eq!(sim.peek(&s, &[1], mv.cores[0].store_data_wb), 1);
        assert_eq!(sim.peek(&s, &[1], mv.cores[1].stall_dx), 0);
        s = sim.step(&s, &[1]); // cycle 3: load in WB
        assert_eq!(sim.peek(&s, &[0], mv.cores[1].kind_wb), kind::LOAD);
        assert_eq!(
            sim.peek(&s, &[0], mv.cores[1].load_data_wb),
            1,
            "load one cycle after the store's WB sees its data"
        );
    }

    /// §7.1 / Figure 12: on the buggy memory, two back-to-back stores drop
    /// the first store's data; the fixed memory keeps it.
    #[test]
    fn back_to_back_stores_drop_on_buggy_memory_only() {
        for (mem_impl, expect_x) in [(MemoryImpl::Buggy, 0u64), (MemoryImpl::Fixed, 1u64)] {
            let mv = build_mp(mem_impl);
            let sim = Simulator::new(&mv.design);
            // Grant core 0 twice back-to-back (the two stores), then drain.
            let grants = [0, 0, 0, 2, 2, 2, 2, 2];
            let s = run(&mv, &sim, &grants, &[0, 0]);
            let x = sim.peek(&s, &[2], mv.mem[0]);
            assert_eq!(
                x, expect_x,
                "{mem_impl:?}: mem[x] after back-to-back stores"
            );
        }
    }

    /// The full Figure 12 counterexample: on the buggy memory the mp
    /// forbidden outcome (r1 = 1, r2 = 0) is architecturally visible.
    #[test]
    fn mp_forbidden_outcome_reproduces_on_buggy_memory() {
        let mv = build_mp(MemoryImpl::Buggy);
        let sim = Simulator::new(&mv.design);
        let mut s = init_state(&mv, &sim, &[0, 0]);
        // Schedule: St x @DX cycle 1, St y @DX cycle 2 (back-to-back), then
        // core 1's loads.
        let mut r1 = None;
        let mut r2 = None;
        for (cycle, g) in [0u64, 0, 0, 1, 1, 1, 1, 1, 1].iter().enumerate() {
            // Record load results as they reach WB.
            let pc_wb = sim.peek(&s, &[*g], mv.cores[1].pc_wb);
            if pc_wb == isa::pc_of(1, 0) {
                r1 = Some(sim.peek(&s, &[*g], mv.cores[1].load_data_wb));
            }
            if pc_wb == isa::pc_of(1, 1) {
                r2 = Some(sim.peek(&s, &[*g], mv.cores[1].load_data_wb));
            }
            s = sim.step(&s, &[*g]);
            let _ = cycle;
        }
        // Drain.
        for _ in 0..6 {
            let pc_wb = sim.peek(&s, &[1], mv.cores[1].pc_wb);
            if pc_wb == isa::pc_of(1, 0) {
                r1 = Some(sim.peek(&s, &[1], mv.cores[1].load_data_wb));
            }
            if pc_wb == isa::pc_of(1, 1) {
                r2 = Some(sim.peek(&s, &[1], mv.cores[1].load_data_wb));
            }
            s = sim.step(&s, &[1]);
        }
        assert_eq!(r1, Some(1), "load of y bypasses from the store buffer");
        assert_eq!(
            r2,
            Some(0),
            "load of x sees the dropped store: the V-scale bug"
        );
    }

    /// On the fixed memory, the same schedule produces an SC-consistent
    /// result.
    #[test]
    fn mp_same_schedule_is_correct_on_fixed_memory() {
        let mv = build_mp(MemoryImpl::Fixed);
        let sim = Simulator::new(&mv.design);
        let mut s = init_state(&mv, &sim, &[0, 0]);
        let mut r1 = None;
        let mut r2 = None;
        for g in [0u64, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] {
            let pc_wb = sim.peek(&s, &[g], mv.cores[1].pc_wb);
            if pc_wb == isa::pc_of(1, 0) {
                r1 = Some(sim.peek(&s, &[g], mv.cores[1].load_data_wb));
            }
            if pc_wb == isa::pc_of(1, 1) {
                r2 = Some(sim.peek(&s, &[g], mv.cores[1].load_data_wb));
            }
            s = sim.step(&s, &[g]);
        }
        assert_eq!(r1, Some(1));
        assert_eq!(r2, Some(1), "fixed memory: no store is dropped");
    }

    #[test]
    fn stall_wb_is_always_zero() {
        let mv = build_mp(MemoryImpl::Buggy);
        let sim = Simulator::new(&mv.design);
        let mut s = init_state(&mv, &sim, &[0, 0]);
        for g in [0u64, 1, 2, 3, 0, 1] {
            for c in 0..NUM_CORES {
                assert_eq!(sim.peek(&s, &[g], mv.cores[c].stall_wb), 0);
            }
            s = sim.step(&s, &[g]);
        }
    }

    #[test]
    fn emits_verilog_for_both_variants() {
        for m in [MemoryImpl::Buggy, MemoryImpl::Fixed] {
            let mv = build_mp(m);
            let v = crate::verilog::emit(&mv.design);
            assert!(v.contains("core0_PC_WB"));
            assert!(v.contains("arbiter_grant"));
            if m == MemoryImpl::Buggy {
                assert!(
                    v.contains("mem_wdata"),
                    "buggy memory exposes the store buffer"
                );
            }
        }
    }
}
