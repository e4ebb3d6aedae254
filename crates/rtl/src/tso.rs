//! Multi-V-scale-TSO: the Total Store Order variant of the Multi-V-scale
//! processor.
//!
//! The RTLCheck methodology is MCM-agnostic (paper §1: it "supports
//! arbitrary ISA-level MCMs, including ones as sophisticated as x86-TSO").
//! This design exercises that claim: each core gains a single-entry FIFO
//! store buffer between Writeback and the shared memory —
//!
//! * a store retires from WB into its core's **private buffer** without
//!   consulting the arbiter (stores never stall on grants);
//! * a buffered store **drains** to the memory array when its core holds
//!   the grant and no load is using the read port that cycle; the drain is
//!   a distinct microarchitectural event, modelled as the `Memory` stage of
//!   the TSO µspec model;
//! * loads read memory combinationally during WB, **forwarding** from their
//!   own core's buffered store on an address match;
//! * a store (or the halt) stalls in DX while the buffer is full, keeping
//!   the buffer FIFO and flushing it before the core halts.
//!
//! Store→load reordering (and hence the `sb` outcome) is observable;
//! coherence, store→store, and load→load order are preserved — exactly
//! x86-TSO's envelope for this instruction set.
//!
//! Build it with [`MultiVscale::build`] and [`MemoryImpl::Tso`].

use crate::builder::DesignBuilder;
use crate::design::SignalId;
use crate::isa::{kind, EncInstr, BUBBLE_PC};
use crate::multi_vscale::{MemoryImpl, MultiVscale, TsoCoreSignals, NUM_CORES};
use crate::pipeline::{self, Frame, VscaleRegs, ADDR_WIDTH, DATA_WIDTH, KIND_WIDTH, PC_WIDTH};

/// One core's single-entry store buffer.
struct StoreBuffer {
    valid: SignalId,
    addr: SignalId,
    data: SignalId,
    pc: SignalId,
}

/// Builds the TSO design from raw encoded programs and a word count (see
/// [`MultiVscale::build_raw`]).
pub(crate) fn build_raw(programs: Vec<Vec<EncInstr>>, num_words: usize) -> MultiVscale {
    let mut b = DesignBuilder::new("multi_vscale_tso");
    let Frame { grant, first, mem } = Frame::new(&mut b, num_words);
    let regs: Vec<(VscaleRegs, StoreBuffer)> = (0..NUM_CORES)
        .map(|c| {
            let core = VscaleRegs::new(&mut b, c);
            let sbuf = StoreBuffer {
                valid: b.reg(format!("core{c}_sbuf_valid"), 1, Some(0)),
                addr: b.reg(format!("core{c}_sbuf_addr"), ADDR_WIDTH, Some(0)),
                data: b.reg(format!("core{c}_sbuf_data"), DATA_WIDTH, Some(0)),
                pc: b.reg(format!("core{c}_sbuf_pc"), PC_WIDTH, Some(BUBBLE_PC)),
            };
            (core, sbuf)
        })
        .collect();

    // A load granted in DX at cycle t occupies the memory read port at
    // t + 1 (its WB); drains are blocked that cycle.
    let load_in_wb = b.reg("mem_load_in_wb", 1, Some(0));
    let gkind = pipeline::select(&mut b, grant, regs.iter().map(|(r, _)| r.kind_dx));
    let gkind_is_load = {
        let k = b.lit(kind::LOAD, KIND_WIDTH);
        b.eq(gkind, k)
    };
    b.set_next(load_in_wb, gkind_is_load);

    let (imem, decodes) = pipeline::roms(&mut b, &programs, |c| regs[c].0.pc_if);

    // Per-core drain wires (needed for the memory update mux below).
    let drains: Vec<SignalId> = regs
        .iter()
        .enumerate()
        .map(|(c, (_, sbuf))| {
            let granted = b.eq_lit(grant, c as u64);
            let pend = b.sig(sbuf.valid);
            let lw = b.sig(load_in_wb);
            let no_load = b.not_e(lw);
            let gp = b.and(granted, pend);
            let e = b.and(gp, no_load);
            b.wire(format!("core{c}_drain"), e)
        })
        .collect();

    // Memory array update: the granted (draining) core writes its buffered
    // word.
    for (w, &mem_w) in mem.iter().enumerate() {
        let mut write_here = b.lit(0, 1);
        let mut write_data = b.lit(0, DATA_WIDTH);
        for ((_, sbuf), &drain) in regs.iter().zip(&drains) {
            let d = b.sig(drain);
            let here = b.eq_lit(sbuf.addr, w as u64);
            let dh = b.and(d, here);
            write_here = b.or(write_here, dh);
            let data = b.sig(sbuf.data);
            write_data = b.mux(dh, data, write_data);
        }
        pipeline::hold_or(&mut b, write_here, mem_w, write_data);
    }

    let mut cores = Vec::with_capacity(NUM_CORES);
    for (c, ((r, sbuf), &drain)) in regs.iter().zip(&drains).enumerate() {
        // Stalls: loads wait for the grant; stores and the halt wait for
        // the store buffer to be free (and for a store in WB to clear,
        // which will occupy the buffer next cycle).
        let is_ld = b.eq_lit(r.kind_dx, kind::LOAD);
        let is_st = b.eq_lit(r.kind_dx, kind::STORE);
        let is_halt = b.eq_lit(r.kind_dx, kind::HALT);
        let is_fence = b.eq_lit(r.kind_dx, kind::FENCE);
        let granted = b.eq_lit(grant, c as u64);
        let not_granted = b.not_e(granted);
        let load_stall = b.and(is_ld, not_granted);
        let pend = b.sig(sbuf.valid);
        let wb_is_store = b.eq_lit(r.kind_wb, kind::STORE);
        let buffer_busy = b.or(pend, wb_is_store);
        // Stores wait for a free buffer slot; the halt AND the fence wait
        // for the buffer to flush entirely (the fence's whole purpose).
        // Because the halt waits, a halted core has flushed all of its
        // stores.
        let st_or_halt = b.or(is_st, is_halt);
        let flushers = b.or(st_or_halt, is_fence);
        let flush_stall = b.and(flushers, buffer_busy);
        let stall_dx = b.or(load_stall, flush_stall);
        cores.push(r.build(&mut b, c, &decodes[c], stall_dx, |b| {
            // Store buffer: a store in WB enters the buffer at the next
            // edge; a drain empties it. The stall logic makes enter and
            // drain mutually exclusive.
            let enter = b.eq_lit(r.kind_wb, kind::STORE);
            let d = b.sig(drain);
            let one = b.lit(1, 1);
            let hold_v = b.sig(sbuf.valid);
            let after_enter = b.mux(enter, one, hold_v);
            let zero_v = b.lit(0, 1);
            let v_next = b.mux(d, zero_v, after_enter);
            b.set_next(sbuf.valid, v_next);
            for (reg, val) in [
                (sbuf.addr, r.addr_wb),
                (sbuf.data, r.store_data_wb),
                (sbuf.pc, r.pc_wb),
            ] {
                let val = b.sig(val);
                pipeline::hold_or(b, enter, reg, val);
            }

            // Load result: forward from the own buffer on an address
            // match, else read the memory array.
            let read = pipeline::read(b, &mem, r.addr_wb);
            let pend = b.sig(sbuf.valid);
            let sa = b.sig(sbuf.addr);
            let la = b.sig(r.addr_wb);
            let addr_match = b.eq(la, sa);
            let fwd = b.and(pend, addr_match);
            let sd = b.sig(sbuf.data);
            b.mux(fwd, sd, read)
        }));
    }

    let design = b.build().expect("Multi-V-scale-TSO IR is well-formed");
    let tso = regs
        .iter()
        .zip(drains)
        .map(|((_, sbuf), drain)| TsoCoreSignals {
            sbuf_valid: sbuf.valid,
            sbuf_addr: sbuf.addr,
            sbuf_data: sbuf.data,
            sbuf_pc: sbuf.pc,
            drain,
        })
        .collect();
    MultiVscale {
        design,
        memory_impl: MemoryImpl::Tso,
        grant,
        first,
        mem,
        imem,
        cores,
        tso: Some(tso),
        programs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa;
    use crate::sim::{Simulator, State};
    use rtlcheck_litmus::suite;

    fn init_state(mv: &MultiVscale, sim: &Simulator<'_>) -> State {
        let pins: Vec<_> = mv.mem.iter().map(|&m| (m, 0)).collect();
        sim.initial_state_with(&pins).unwrap()
    }

    #[test]
    fn builds_for_every_suite_test() {
        for t in suite::all() {
            let mv = MultiVscale::build(&t, MemoryImpl::Tso);
            assert_eq!(mv.cores.len(), NUM_CORES, "{}", t.name());
            assert!(mv.tso.is_some());
        }
    }

    /// The sb outcome (r1 = r2 = 0) — SC-forbidden — is reachable on the
    /// TSO design: both stores sit in their buffers while both loads read
    /// memory.
    #[test]
    fn sb_forbidden_outcome_reachable_by_simulation() {
        let sb = suite::get("sb").unwrap();
        let mv = MultiVscale::build(&sb, MemoryImpl::Tso);
        let sim = Simulator::new(&mv.design);
        let mut s = init_state(&mv, &sim);
        // Stores never need the grant; alternate load grants so both loads
        // read memory before any drain (drains need grants too, but a
        // granted core with a load in DX and a pending store prefers... the
        // drain is blocked only by load_in_wb; so grant each core exactly
        // when its load is in DX and its own drain is blocked by the other
        // load's WB — simpler: drive grants to core 2 (idle) first so
        // nothing drains, wait for loads to stall, then grant each loader.
        let mut r = [None, None];
        for g in [2u64, 2, 0, 1, 2, 2, 2, 0, 1, 0, 1, 0, 1] {
            for c in [0usize, 1] {
                let pc_wb = sim.peek(&s, &[g], mv.cores[c].pc_wb);
                if pc_wb == isa::pc_of(c, 1) {
                    r[c] = Some(sim.peek(&s, &[g], mv.cores[c].load_data_wb));
                }
            }
            s = sim.step(&s, &[g]);
        }
        assert_eq!(
            r,
            [Some(0), Some(0)],
            "the TSO design exhibits store buffering"
        );
    }

    /// Same-core forwarding: a load after a buffered same-address store
    /// returns the buffered data.
    #[test]
    fn store_forwarding_from_the_buffer() {
        let t = rtlcheck_litmus::parse(
            "test f\n{ x = 0; }\ncore 0 { st x, 1; r1 = ld x; }\npermit ( 0:r1 = 1 )",
        )
        .unwrap();
        let mv = MultiVscale::build(&t, MemoryImpl::Tso);
        let sim = Simulator::new(&mv.design);
        let mut s = init_state(&mv, &sim);
        let mut r1 = None;
        // Never grant core 0 the drain slot before the load needs it; the
        // load still must be granted.
        for g in [2u64, 2, 0, 0, 0, 0, 0] {
            let pc_wb = sim.peek(&s, &[g], mv.cores[0].pc_wb);
            if pc_wb == isa::pc_of(0, 1) {
                r1 = Some(sim.peek(&s, &[g], mv.cores[0].load_data_wb));
            }
            s = sim.step(&s, &[g]);
        }
        assert_eq!(r1, Some(1), "load forwards from the store buffer");
    }

    /// Halt flushes the buffer: once all cores report halted, memory holds
    /// every store's value.
    #[test]
    fn halt_waits_for_the_buffer_to_drain() {
        let mp = suite::get("mp").unwrap();
        let mv = MultiVscale::build(&mp, MemoryImpl::Tso);
        let sim = Simulator::new(&mv.design);
        let mut s = init_state(&mv, &sim);
        for i in 0..60u64 {
            s = sim.step(&s, &[i % 4]);
        }
        for c in 0..NUM_CORES {
            assert_eq!(sim.peek(&s, &[0], mv.cores[c].halted), 1, "core {c} halted");
        }
        assert_eq!(sim.peek(&s, &[0], mv.mem[0]), 1, "x drained");
        assert_eq!(sim.peek(&s, &[0], mv.mem[1]), 1, "y drained");
        let tso = mv.tso.as_ref().unwrap();
        for (c, t) in tso.iter().enumerate() {
            assert_eq!(sim.peek(&s, &[0], t.sbuf_valid), 0, "buffer {c} empty");
        }
    }

    /// Drains never coincide with a load's WB (the read port is busy).
    #[test]
    fn drain_blocked_while_load_in_wb() {
        let t = rtlcheck_litmus::parse(
            "test b\n{ x = 0; y = 0; }\ncore 0 { st x, 1; }\ncore 1 { r1 = ld y; }\npermit ( 1:r1 = 0 )",
        )
        .unwrap();
        let mv = MultiVscale::build(&t, MemoryImpl::Tso);
        let sim = Simulator::new(&mv.design);
        let tso = mv.tso.as_ref().unwrap();
        let mut s = init_state(&mv, &sim);
        // Cycle 1: grant core 1 (load to WB at cycle 2). Cycle 2: grant
        // core 0, whose store is buffered by then — drain must be blocked.
        s = sim.step(&s, &[1]); // cycle 1: load granted in DX
        s = sim.step(&s, &[1]); // cycle 2 begins: load in WB
                                // The store needs a couple more cycles to reach the buffer; run a
                                // schedule where a load WB and a drain would collide and check the
                                // drain wire stays low in that cycle.
        let mut saw_block = false;
        for _ in 0..12 {
            let load_in_wb =
                (0..NUM_CORES).any(|c| sim.peek(&s, &[0], mv.cores[c].kind_wb) == kind::LOAD);
            if load_in_wb {
                for (c, t) in tso.iter().enumerate() {
                    assert_eq!(
                        sim.peek(&s, &[c as u64], t.drain),
                        0,
                        "drain while a load holds the read port"
                    );
                }
                saw_block = true;
            }
            s = sim.step(&s, &[0]);
        }
        assert!(saw_block, "the schedule should exercise the blocking case");
    }
}
