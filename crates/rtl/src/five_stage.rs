//! Multi-Five-Stage: a second, structurally different SC multicore.
//!
//! RTLCheck's method "applies generally to an arbitrary Verilog design"
//! (paper §1) — nothing in the generators is specific to the three-stage
//! V-scale pipeline. This design substantiates that claim: four classic
//! five-stage in-order pipelines (Fetch, Decode, Execute, Memory,
//! Writeback) share a single-ported memory through the same style of
//! arbiter, but
//!
//! * memory is accessed in the **Memory** stage (not Decode-Execute): both
//!   loads and stores wait there for their grant;
//! * a granted load reads the array combinationally during its Memory
//!   cycle (`load_data_MEM`) and latches the result into Writeback;
//! * a granted store's data is clocked into the array at the end of its
//!   Memory cycle (visible to the next cycle's loads);
//! * a stall in Memory holds the entire upstream pipeline and injects a
//!   bubble into Writeback.
//!
//! The memory order is the grant order of Memory-stage accesses, so the
//! machine is sequentially consistent — verified against the same SC
//! oracle and its own five-stage µspec model.

use rtlcheck_litmus::LitmusTest;

use crate::builder::DesignBuilder;
use crate::design::{Design, SignalId};
use crate::isa::{self, kind, EncInstr, BUBBLE_PC};
use crate::pipeline::{self, Frame, ADDR_WIDTH, DATA_WIDTH, KIND_WIDTH, PC_WIDTH};

/// Number of cores.
pub const NUM_CORES: usize = 4;

/// Signal handles for one five-stage core.
#[derive(Debug, Clone, Copy)]
pub struct FiveStageCore {
    /// Per-stage PCs ([`BUBBLE_PC`] marks bubbles downstream of Fetch).
    pub pc_if: SignalId,
    /// Decode-stage PC.
    pub pc_id: SignalId,
    /// Execute-stage PC.
    pub pc_ex: SignalId,
    /// Memory-stage PC.
    pub pc_mem: SignalId,
    /// Writeback-stage PC.
    pub pc_wb: SignalId,
    /// Memory-stage instruction kind.
    pub kind_mem: SignalId,
    /// Memory-stage word address.
    pub addr_mem: SignalId,
    /// Memory-stage store data.
    pub store_data_mem: SignalId,
    /// Memory-stage load result (combinational, valid in the granted
    /// cycle).
    pub load_data_mem: SignalId,
    /// Writeback-stage latched load result.
    pub load_data_wb: SignalId,
    /// Whole-pipeline stall (a memory op in MEM without the grant).
    pub stall: SignalId,
    /// Set once the halt reaches Writeback.
    pub halted: SignalId,
}

/// The built design plus its architecturally meaningful signals.
#[derive(Debug, Clone)]
pub struct FiveStage {
    /// The finalized design.
    pub design: Design,
    /// Arbiter grant input.
    pub grant: SignalId,
    /// First-post-reset-cycle marker.
    pub first: SignalId,
    /// Data-memory words (free initial values).
    pub mem: Vec<SignalId>,
    /// Packed-program constant wires, `[core][slot]`.
    pub imem: Vec<Vec<SignalId>>,
    /// Per-core signals.
    pub cores: Vec<FiveStageCore>,
    /// Encoded programs.
    pub programs: Vec<Vec<EncInstr>>,
}

impl FiveStage {
    /// Builds the design loaded with `test`'s programs.
    ///
    /// # Panics
    ///
    /// Panics if the test does not fit the design (see
    /// [`isa::check_fit`]).
    pub fn build(test: &LitmusTest) -> FiveStage {
        let programs = isa::encode_programs(test, NUM_CORES);
        let num_words = test.num_locations().max(1);
        Self::build_raw(programs, num_words)
    }

    /// Builds the design from raw encoded programs and a word count.
    pub fn build_raw(programs: Vec<Vec<EncInstr>>, num_words: usize) -> FiveStage {
        let mut b = DesignBuilder::new("multi_five_stage");
        let Frame { grant, first, mem } = Frame::new(&mut b, num_words);

        struct Regs {
            pc_if: SignalId,
            pc_id: SignalId,
            pc_ex: SignalId,
            pc_mem: SignalId,
            pc_wb: SignalId,
            kind_id: SignalId,
            kind_ex: SignalId,
            kind_mem: SignalId,
            kind_wb: SignalId,
            addr_id: SignalId,
            addr_ex: SignalId,
            addr_mem: SignalId,
            data_id: SignalId,
            data_ex: SignalId,
            data_mem: SignalId,
            load_data_wb: SignalId,
            halted: SignalId,
        }
        let regs: Vec<Regs> = (0..NUM_CORES)
            .map(|c| Regs {
                pc_if: b.reg(format!("core{c}_PC_IF"), PC_WIDTH, Some(isa::pc_base(c))),
                pc_id: b.reg(format!("core{c}_PC_ID"), PC_WIDTH, Some(BUBBLE_PC)),
                pc_ex: b.reg(format!("core{c}_PC_EX"), PC_WIDTH, Some(BUBBLE_PC)),
                pc_mem: b.reg(format!("core{c}_PC_MEM"), PC_WIDTH, Some(BUBBLE_PC)),
                pc_wb: b.reg(format!("core{c}_PC_WB"), PC_WIDTH, Some(BUBBLE_PC)),
                kind_id: b.reg(format!("core{c}_kind_ID"), KIND_WIDTH, Some(kind::BUBBLE)),
                kind_ex: b.reg(format!("core{c}_kind_EX"), KIND_WIDTH, Some(kind::BUBBLE)),
                kind_mem: b.reg(format!("core{c}_kind_MEM"), KIND_WIDTH, Some(kind::BUBBLE)),
                kind_wb: b.reg(format!("core{c}_kind_WB"), KIND_WIDTH, Some(kind::BUBBLE)),
                addr_id: b.reg(format!("core{c}_addr_ID"), ADDR_WIDTH, Some(0)),
                addr_ex: b.reg(format!("core{c}_addr_EX"), ADDR_WIDTH, Some(0)),
                addr_mem: b.reg(format!("core{c}_addr_MEM"), ADDR_WIDTH, Some(0)),
                data_id: b.reg(format!("core{c}_data_ID"), DATA_WIDTH, Some(0)),
                data_ex: b.reg(format!("core{c}_data_EX"), DATA_WIDTH, Some(0)),
                data_mem: b.reg(format!("core{c}_data_MEM"), DATA_WIDTH, Some(0)),
                load_data_wb: b.reg(format!("core{c}_load_data_WB"), DATA_WIDTH, Some(0)),
                halted: b.reg(format!("core{c}_halted"), 1, Some(0)),
            })
            .collect();

        let (imem, decodes) = pipeline::roms(&mut b, &programs, |c| regs[c].pc_if);

        // Per-core stall wires (needed before the memory update).
        let stalls: Vec<SignalId> = regs
            .iter()
            .enumerate()
            .map(|(c, r)| {
                let is_ld = b.eq_lit(r.kind_mem, kind::LOAD);
                let is_st = b.eq_lit(r.kind_mem, kind::STORE);
                let is_memop = b.or(is_ld, is_st);
                let granted = b.eq_lit(grant, c as u64);
                let ng = b.not_e(granted);
                let e = b.and(is_memop, ng);
                b.wire(format!("core{c}_stall_MEM"), e)
            })
            .collect();

        // Memory update: the granted core's store (unstalled, i.e. granted)
        // writes at the end of its Memory cycle.
        for (w, &mem_w) in mem.iter().enumerate() {
            let mut write_here = b.lit(0, 1);
            let mut write_data = b.lit(0, DATA_WIDTH);
            for (c, r) in regs.iter().enumerate() {
                let granted = b.eq_lit(grant, c as u64);
                let is_st = b.eq_lit(r.kind_mem, kind::STORE);
                let gs = b.and(granted, is_st);
                let here = b.eq_lit(r.addr_mem, w as u64);
                let wh = b.and(gs, here);
                write_here = b.or(write_here, wh);
                let d = b.sig(r.data_mem);
                write_data = b.mux(wh, d, write_data);
            }
            pipeline::hold_or(&mut b, write_here, mem_w, write_data);
        }

        let mut cores = Vec::with_capacity(NUM_CORES);
        for (c, r) in regs.iter().enumerate() {
            let stall = stalls[c];
            let not_stall = b.not(stall);
            let id = [r.pc_id, r.kind_id, r.addr_id, r.data_id];
            pipeline::fetch(&mut b, not_stall, r.pc_if, &decodes[c], id);
            // ID -> EX -> MEM: on a stall every upstream register holds.
            for (reg, from) in [
                (r.pc_ex, r.pc_id),
                (r.kind_ex, r.kind_id),
                (r.addr_ex, r.addr_id),
                (r.data_ex, r.data_id),
                (r.pc_mem, r.pc_ex),
                (r.kind_mem, r.kind_ex),
                (r.addr_mem, r.addr_ex),
                (r.data_mem, r.data_ex),
            ] {
                let from = b.sig(from);
                pipeline::hold_or(&mut b, not_stall, reg, from);
            }
            // MEM -> WB (bubble on stall).
            pipeline::bubble_or(&mut b, not_stall, r.pc_wb, r.pc_mem, BUBBLE_PC, PC_WIDTH);
            pipeline::bubble_or(
                &mut b,
                not_stall,
                r.kind_wb,
                r.kind_mem,
                kind::BUBBLE,
                KIND_WIDTH,
            );

            // Memory-stage load result (combinational; meaningful in the
            // granted cycle), latched into WB.
            let read = pipeline::read(&mut b, &mem, r.addr_mem);
            let load_data_mem = b.wire(format!("core{c}_load_data_MEM"), read);
            let is_ld = b.eq_lit(r.kind_mem, kind::LOAD);
            let take = b.and(not_stall, is_ld);
            let ldm = b.sig(load_data_mem);
            pipeline::hold_or(&mut b, take, r.load_data_wb, ldm);
            pipeline::halt_latch(&mut b, not_stall, r.kind_mem, r.halted);

            cores.push(FiveStageCore {
                pc_if: r.pc_if,
                pc_id: r.pc_id,
                pc_ex: r.pc_ex,
                pc_mem: r.pc_mem,
                pc_wb: r.pc_wb,
                kind_mem: r.kind_mem,
                addr_mem: r.addr_mem,
                store_data_mem: r.data_mem,
                load_data_mem,
                load_data_wb: r.load_data_wb,
                stall,
                halted: r.halted,
            });
        }

        let design = b.build().expect("Multi-Five-Stage IR is well-formed");
        FiveStage {
            design,
            grant,
            first,
            mem,
            imem,
            cores,
            programs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use rtlcheck_litmus::suite;

    #[test]
    fn builds_for_every_suite_test() {
        for t in suite::all() {
            let fs = FiveStage::build(&t);
            assert!(fs.design.num_regs() > 40, "{}", t.name());
        }
    }

    #[test]
    fn pipeline_takes_five_stages_and_memory_works() {
        let t = rtlcheck_litmus::parse(
            "test p\n{ x = 0; }\ncore 0 { st x, 1; r1 = ld x; }\npermit ( 0:r1 = 1 )",
        )
        .unwrap();
        let fs = FiveStage::build(&t);
        let sim = Simulator::new(&fs.design);
        let pins: Vec<_> = fs.mem.iter().map(|&m| (m, 0)).collect();
        let mut s = sim.initial_state_with(&pins).unwrap();
        let mut store_mem_cycle = None;
        let mut load_value = None;
        for cycle in 0..16u64 {
            let g = 0u64;
            if sim.peek(&s, &[g], fs.cores[0].pc_mem) == isa::pc_of(0, 0) {
                store_mem_cycle = Some(cycle);
            }
            if sim.peek(&s, &[g], fs.cores[0].pc_mem) == isa::pc_of(0, 1)
                && sim.peek(&s, &[g], fs.cores[0].stall) == 0
            {
                load_value = Some(sim.peek(&s, &[g], fs.cores[0].load_data_mem));
            }
            s = sim.step(&s, &[g]);
        }
        // The first instruction reaches MEM at cycle 3 (IF=0, ID=1, EX=2,
        // MEM=3).
        assert_eq!(store_mem_cycle, Some(3));
        assert_eq!(
            load_value,
            Some(1),
            "the load sees the just-committed store"
        );
        assert_eq!(sim.peek(&s, &[0], fs.cores[0].halted), 1);
        assert_eq!(sim.peek(&s, &[0], fs.mem[0]), 1);
    }

    #[test]
    fn ungrantecd_memory_ops_stall_the_whole_pipeline() {
        let mp = suite::get("mp").unwrap();
        let fs = FiveStage::build(&mp);
        let sim = Simulator::new(&fs.design);
        let pins: Vec<_> = fs.mem.iter().map(|&m| (m, 0)).collect();
        let mut s = sim.initial_state_with(&pins).unwrap();
        // Never grant core 0: its store reaches MEM at cycle 3 and the
        // whole pipeline freezes there.
        for _ in 0..8 {
            s = sim.step(&s, &[3]);
        }
        assert_eq!(
            sim.peek(&s, &[3], fs.cores[0].pc_mem),
            0,
            "store stuck in MEM"
        );
        assert_eq!(sim.peek(&s, &[3], fs.cores[0].stall), 1);
        let pc_if = sim.peek(&s, &[3], fs.cores[0].pc_if);
        s = sim.step(&s, &[3]);
        assert_eq!(
            sim.peek(&s, &[3], fs.cores[0].pc_if),
            pc_if,
            "fetch holds too"
        );
        // Granting releases it.
        s = sim.step(&s, &[0]);
        assert_ne!(sim.peek(&s, &[0], fs.cores[0].pc_mem), 0);
    }

    #[test]
    fn fair_schedule_completes_mp_correctly() {
        let mp = suite::get("mp").unwrap();
        let fs = FiveStage::build(&mp);
        let sim = Simulator::new(&fs.design);
        let pins: Vec<_> = fs.mem.iter().map(|&m| (m, 0)).collect();
        let mut s = sim.initial_state_with(&pins).unwrap();
        for i in 0..64u64 {
            s = sim.step(&s, &[i % 4]);
        }
        for c in 0..NUM_CORES {
            assert_eq!(sim.peek(&s, &[0], fs.cores[c].halted), 1, "core {c}");
        }
        assert_eq!(sim.peek(&s, &[0], fs.mem[0]), 1);
        assert_eq!(sim.peek(&s, &[0], fs.mem[1]), 1);
    }
}
