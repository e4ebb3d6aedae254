//! The parts the multicore designs share, written once.
//!
//! Every design ([`crate::multi_vscale`] with its buggy and fixed memories,
//! [`crate::tso`] and [`crate::five_stage`]) starts from the same
//! [`Frame`], loads its programs into the same instruction ROMs, fetches
//! through the same Fetch stage and latches the halt the same way. The
//! buggy/fixed and TSO designs also share the whole three-stage V-scale
//! core ([`VscaleRegs`]); each builder keeps only its memory system.
//!
//! Each helper creates its signals and expression nodes in a fixed order.
//! Keep it: the mutation catalogs pick their targets by position in a
//! signal's expression tree, and `tests/golden_sva.rs` pins every design's
//! Verilog.

use crate::builder::DesignBuilder;
use crate::design::SignalId;
use crate::expr::ExprId;
use crate::isa::{self, kind, EncInstr, BUBBLE_PC, PC_STEP};
use crate::multi_vscale::CoreSignals;

/// Width of the data-memory word-address fields.
pub(crate) const ADDR_WIDTH: u8 = 8;
/// Width of data values.
pub(crate) const DATA_WIDTH: u8 = 32;
/// Width of the PC.
pub(crate) const PC_WIDTH: u8 = 32;
/// Width of the pipeline kind fields.
pub(crate) const KIND_WIDTH: u8 = 3;
/// Width of the arbiter grant input / core indices.
pub(crate) const GRANT_WIDTH: u8 = 2;
/// Width of a packed instruction (see [`EncInstr::packed`]).
const INSTR_WIDTH: u8 = 43;

/// The signals every design declares first, in this order.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Arbiter grant input: the core granted memory this cycle.
    pub(crate) grant: SignalId,
    /// 1 exactly in the first post-reset cycle.
    pub(crate) first: SignalId,
    /// Data-memory words with free initial values (pinned by the generated
    /// assumptions), one per litmus location.
    pub(crate) mem: Vec<SignalId>,
}

impl Frame {
    /// Declares the grant input, `first` and `num_words` memory words.
    pub(crate) fn new(b: &mut DesignBuilder, num_words: usize) -> Frame {
        let grant = b.input("arbiter_grant", GRANT_WIDTH);
        let first = b.reg("first", 1, Some(1));
        let zero = b.lit(0, 1);
        b.set_next(first, zero);
        let mem = (0..num_words)
            .map(|w| b.reg(format!("mem_{w}"), DATA_WIDTH, None))
            .collect();
        Frame { grant, first, mem }
    }
}

/// The fields of the instruction at a core's Fetch PC.
#[derive(Debug)]
pub(crate) struct Decode {
    kind: ExprId,
    addr: ExprId,
    data: ExprId,
}

/// Declares each core's instruction ROM, one constant wire
/// `core{c}_imem_{s}` per slot carrying the packed instruction (pinned by
/// the instruction-initialisation assumptions), and decodes the
/// instruction at the core's Fetch PC `pc_if(c)`. A PC outside the program
/// decodes as halt, like the halt logic added to the paper's
/// Multi-V-scale.
pub(crate) fn roms(
    b: &mut DesignBuilder,
    programs: &[Vec<EncInstr>],
    pc_if: impl Fn(usize) -> SignalId,
) -> (Vec<Vec<SignalId>>, Vec<Decode>) {
    let mut imem = Vec::with_capacity(programs.len());
    let mut decodes = Vec::with_capacity(programs.len());
    for (c, prog) in programs.iter().enumerate() {
        let slots = prog
            .iter()
            .enumerate()
            .map(|(s, instr)| {
                let packed = b.lit(instr.packed(), INSTR_WIDTH);
                b.wire(format!("core{c}_imem_{s}"), packed)
            })
            .collect();
        imem.push(slots);
        let mut dec = Decode {
            kind: b.lit(kind::HALT, KIND_WIDTH),
            addr: b.lit(0, ADDR_WIDTH),
            data: b.lit(0, DATA_WIDTH),
        };
        for (s, instr) in prog.iter().enumerate() {
            let here = b.eq_lit(pc_if(c), isa::pc_of(c, s));
            let k = b.lit(instr.kind, KIND_WIDTH);
            let a = b.lit(instr.addr, ADDR_WIDTH);
            let d = b.lit(instr.data, DATA_WIDTH);
            dec.kind = b.mux(here, k, dec.kind);
            dec.addr = b.mux(here, a, dec.addr);
            dec.data = b.mux(here, d, dec.data);
        }
        decodes.push(dec);
    }
    (imem, decodes)
}

/// `reg <= take ? val : reg`.
pub(crate) fn hold_or(b: &mut DesignBuilder, take: ExprId, reg: SignalId, val: ExprId) {
    let hold = b.sig(reg);
    let next = b.mux(take, val, hold);
    b.set_next(reg, next);
}

/// `reg <= not_stall ? from : bubble`: the stage after a stalled one
/// receives a bubble.
pub(crate) fn bubble_or(
    b: &mut DesignBuilder,
    not_stall: ExprId,
    reg: SignalId,
    from: SignalId,
    bubble: u64,
    width: u8,
) {
    let bubble = b.lit(bubble, width);
    let from = b.sig(from);
    let next = b.mux(not_stall, from, bubble);
    b.set_next(reg, next);
}

/// The Fetch stage: the PC advances one instruction unless the pipeline
/// stalls or Fetch sits on the halt, and the decoded instruction moves
/// into the next stage's `[pc, kind, addr, data]` registers, which hold on
/// a stall.
pub(crate) fn fetch(
    b: &mut DesignBuilder,
    not_stall: ExprId,
    pc_if: SignalId,
    dec: &Decode,
    next: [SignalId; 4],
) {
    let halt = b.lit(kind::HALT, KIND_WIDTH);
    let at_halt = b.eq(dec.kind, halt);
    let pc = b.sig(pc_if);
    let step = b.lit(PC_STEP, PC_WIDTH);
    let pc_plus = b.add(pc, step);
    let pc_hold = b.sig(pc_if);
    let pc_adv = b.mux(at_halt, pc_hold, pc_plus);
    hold_or(b, not_stall, pc_if, pc_adv);

    let [pc, kind, addr, data] = next;
    let pc_if = b.sig(pc_if);
    for (reg, val) in [
        (pc, pc_if),
        (kind, dec.kind),
        (addr, dec.addr),
        (data, dec.data),
    ] {
        hold_or(b, not_stall, reg, val);
    }
}

/// `halted <= halted | (not_stall & stage_kind == HALT)`: latched when the
/// halt instruction leaves the stage whose kind register is `stage_kind`.
pub(crate) fn halt_latch(
    b: &mut DesignBuilder,
    not_stall: ExprId,
    stage_kind: SignalId,
    halted: SignalId,
) {
    let is_halt = b.eq_lit(stage_kind, kind::HALT);
    let leaving = b.and(not_stall, is_halt);
    let was = b.sig(halted);
    let next = b.or(was, leaving);
    b.set_next(halted, next);
}

/// The memory word at `addr`, read combinationally (0 out of range).
pub(crate) fn read(b: &mut DesignBuilder, mem: &[SignalId], addr: SignalId) -> ExprId {
    let mut read = b.lit(0, DATA_WIDTH);
    for (w, &mem_w) in mem.iter().enumerate() {
        let here = b.eq_lit(addr, w as u64);
        let v = b.sig(mem_w);
        read = b.mux(here, v, read);
    }
    read
}

/// The signal of the core that `sel` names, from one signal per core
/// (core 0's when `sel` names none of the others).
pub(crate) fn select(
    b: &mut DesignBuilder,
    sel: SignalId,
    per_core: impl IntoIterator<Item = SignalId>,
) -> ExprId {
    let mut per_core = per_core.into_iter();
    let core0 = per_core.next().expect("a design has at least one core");
    let mut acc = b.sig(core0);
    for (c, s) in (1u64..).zip(per_core) {
        let here = b.eq_lit(sel, c);
        let v = b.sig(s);
        acc = b.mux(here, v, acc);
    }
    acc
}

/// The registers of one three-stage V-scale core (Fetch, Decode-Execute,
/// Writeback), shared by the buggy/fixed and TSO designs.
#[derive(Debug)]
pub(crate) struct VscaleRegs {
    pub(crate) pc_if: SignalId,
    pub(crate) pc_dx: SignalId,
    pub(crate) pc_wb: SignalId,
    pub(crate) kind_dx: SignalId,
    pub(crate) kind_wb: SignalId,
    pub(crate) addr_dx: SignalId,
    pub(crate) addr_wb: SignalId,
    pub(crate) data_dx: SignalId,
    pub(crate) store_data_wb: SignalId,
    pub(crate) halted: SignalId,
}

impl VscaleRegs {
    /// Declares core `c`'s registers with their reset values.
    pub(crate) fn new(b: &mut DesignBuilder, c: usize) -> VscaleRegs {
        VscaleRegs {
            pc_if: b.reg(format!("core{c}_PC_IF"), PC_WIDTH, Some(isa::pc_base(c))),
            pc_dx: b.reg(format!("core{c}_PC_DX"), PC_WIDTH, Some(BUBBLE_PC)),
            pc_wb: b.reg(format!("core{c}_PC_WB"), PC_WIDTH, Some(BUBBLE_PC)),
            kind_dx: b.reg(format!("core{c}_kind_DX"), KIND_WIDTH, Some(kind::BUBBLE)),
            kind_wb: b.reg(format!("core{c}_kind_WB"), KIND_WIDTH, Some(kind::BUBBLE)),
            addr_dx: b.reg(format!("core{c}_addr_DX"), ADDR_WIDTH, Some(0)),
            addr_wb: b.reg(format!("core{c}_addr_WB"), ADDR_WIDTH, Some(0)),
            data_dx: b.reg(format!("core{c}_data_DX"), DATA_WIDTH, Some(0)),
            store_data_wb: b.reg(format!("core{c}_store_data_WB"), DATA_WIDTH, Some(0)),
            halted: b.reg(format!("core{c}_halted"), 1, Some(0)),
        }
    }

    /// Builds core `c`: the stall wires driven by `stall_dx` (when DX must
    /// hold), Fetch, IF→DX (hold on stall), DX→WB (bubble on stall) and the
    /// halt latch. `load_data` then builds the rest of the core's logic and
    /// returns the expression driving its WB load result,
    /// `core{c}_load_data_WB`.
    pub(crate) fn build(
        &self,
        b: &mut DesignBuilder,
        c: usize,
        dec: &Decode,
        stall_dx: ExprId,
        load_data: impl FnOnce(&mut DesignBuilder) -> ExprId,
    ) -> CoreSignals {
        let stall_dx = b.wire(format!("core{c}_stall_DX"), stall_dx);
        // Fetch holds exactly when DX holds in this three-stage pipeline,
        // so stall_IF mirrors stall_DX. The node mapping (paper Figure 9)
        // qualifies Fetch events with ~stall_IF so an instruction's Fetch
        // *event* is the single cycle in which it moves on to DX.
        let stall_if = b.sig(stall_dx);
        let stall_if = b.wire(format!("core{c}_stall_IF"), stall_if);
        // stall_WB: the V-scale memory's ready output is hard-coded high,
        // so WB never stalls (part of the bug's root cause, §7.1).
        let zero = b.lit(0, 1);
        let stall_wb = b.wire(format!("core{c}_stall_WB"), zero);
        let not_stall = b.not(stall_dx);

        let dx = [self.pc_dx, self.kind_dx, self.addr_dx, self.data_dx];
        fetch(b, not_stall, self.pc_if, dec, dx);
        bubble_or(b, not_stall, self.pc_wb, self.pc_dx, BUBBLE_PC, PC_WIDTH);
        bubble_or(
            b,
            not_stall,
            self.kind_wb,
            self.kind_dx,
            kind::BUBBLE,
            KIND_WIDTH,
        );
        bubble_or(b, not_stall, self.addr_wb, self.addr_dx, 0, ADDR_WIDTH);
        bubble_or(
            b,
            not_stall,
            self.store_data_wb,
            self.data_dx,
            0,
            DATA_WIDTH,
        );
        halt_latch(b, not_stall, self.kind_dx, self.halted);

        let load_data = load_data(b);
        let load_data_wb = b.wire(format!("core{c}_load_data_WB"), load_data);
        CoreSignals {
            pc_if: self.pc_if,
            pc_dx: self.pc_dx,
            pc_wb: self.pc_wb,
            kind_dx: self.kind_dx,
            kind_wb: self.kind_wb,
            addr_dx: self.addr_dx,
            addr_wb: self.addr_wb,
            store_data_wb: self.store_data_wb,
            load_data_wb,
            stall_if,
            stall_dx,
            stall_wb,
            halted: self.halted,
        }
    }
}
