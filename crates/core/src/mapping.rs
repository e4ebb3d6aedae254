//! Node and program mapping functions.
//!
//! RTLCheck is parameterised by two user-provided mappings (paper Figure 7):
//!
//! * the **node mapping function** translates a µhb node — a specific
//!   microarchitectural event of a specific instruction — into a Verilog
//!   expression that is true exactly while the event occurs (Figure 9);
//! * the **program mapping function** translates the litmus test's
//!   instructions, initial conditions, and outcome values into RTL
//!   constraints (driving the Assumption Generator, §4.1). Here it is a
//!   value, [`ProgramMapping`]: the design signals those constraints name.
//!
//! [`MultiVscaleMapping`] is the node mapping for the Multi-V-scale design,
//! mirroring Figure 9's pseudocode: `PC_<stage> == pc && ~stall_<stage>`,
//! with the load-value constraint applied in the Writeback arm.

use rtlcheck_litmus::{InstrRef, LitmusTest, Val};
use rtlcheck_rtl::isa::{self, EncInstr, BUBBLE_PC};
use rtlcheck_rtl::multi_vscale::MultiVscale;
use rtlcheck_rtl::SignalId;
use rtlcheck_sva::SvaBool;
use rtlcheck_uspec::ground::GNode;
use rtlcheck_uspec::multi_vscale::{DECODE_EXECUTE, FETCH, WRITEBACK};
use rtlcheck_uspec::multi_vscale_tso::MEMORY;
use rtlcheck_uspec::StageId;
use rtlcheck_verif::RtlAtom;

/// A boolean over the design's signals.
pub type RtlBool = SvaBool<RtlAtom>;

/// Maps µhb nodes onto RTL expressions.
///
/// `constraint` carries a load-value constraint (§4.2): when mapping the
/// node of a load instruction for a non-delay position of an edge encoding,
/// the returned expression must additionally require the load to return that
/// value. Delay-cycle occurrences are mapped with `constraint = None` so
/// that delays exclude events of interest *regardless of data values*
/// (§3.3/§4.3).
pub trait NodeMapping {
    /// The RTL expression for the occurrence of `node`.
    fn map_node(&self, node: GNode, constraint: Option<Val>) -> RtlBool;
}

/// The program mapping: the design signals the Assumption Generator
/// ([`crate::assume::generate_with`]) constrains for a litmus test. It
/// reads nothing else of the design.
#[derive(Debug, Clone)]
pub struct ProgramMapping<'a> {
    /// The `first` signal: 1 exactly in the first post-reset cycle.
    pub first: SignalId,
    /// Data-memory words with free initial values, indexed by litmus
    /// location (a location-free test gets one scratch word).
    pub mem: &'a [SignalId],
    /// Constant wires carrying each core's packed program, `[core][slot]`.
    pub imem: &'a [Vec<SignalId>],
    /// The encoded programs those wires carry, `[core][slot]`.
    pub programs: &'a [Vec<EncInstr>],
    /// The µspec stage at which a load returns its value; the load-value
    /// assumptions map the load's node at this stage.
    pub load_stage: StageId,
    /// Holds once every core has finished its program.
    pub finished: RtlBool,
}

/// The Figure 9 node mapping for Multi-V-scale.
#[derive(Debug, Clone, Copy)]
pub struct MultiVscaleMapping<'a> {
    /// The design handles.
    pub mv: &'a MultiVscale,
    /// The litmus test providing instruction placement context.
    pub test: &'a LitmusTest,
}

impl<'a> MultiVscaleMapping<'a> {
    /// Creates the mapping for a design built from the same test.
    pub fn new(mv: &'a MultiVscale, test: &'a LitmusTest) -> Self {
        MultiVscaleMapping { mv, test }
    }

    /// The program counter of an instruction (context information: per-core
    /// base PC plus program-order index).
    pub fn pc_of(&self, instr: &InstrRef) -> u64 {
        isa::pc_of(instr.core.0, instr.index)
    }
}

impl NodeMapping for MultiVscaleMapping<'_> {
    fn map_node(&self, node: GNode, constraint: Option<Val>) -> RtlBool {
        let instr = self.test.instr(node.instr);
        let pc = self.pc_of(&instr);
        let core = &self.mv.cores[instr.core.0];
        match node.stage.0 {
            FETCH => SvaBool::and(
                SvaBool::atom(RtlAtom::eq(core.pc_if, pc)),
                SvaBool::atom(RtlAtom::eq(core.stall_if, 0)),
            ),
            DECODE_EXECUTE => SvaBool::and(
                SvaBool::atom(RtlAtom::eq(core.pc_dx, pc)),
                SvaBool::atom(RtlAtom::eq(core.stall_dx, 0)),
            ),
            WRITEBACK => {
                let mut expr = SvaBool::and(
                    SvaBool::atom(RtlAtom::eq(core.pc_wb, pc)),
                    SvaBool::atom(RtlAtom::eq(core.stall_wb, 0)),
                );
                if let Some(v) = constraint {
                    debug_assert!(instr.is_load(), "value constraints only apply to loads");
                    expr = SvaBool::and(
                        expr,
                        SvaBool::atom(RtlAtom::eq(core.load_data_wb, u64::from(v.0))),
                    );
                }
                expr
            }
            // The TSO design's Memory stage: the cycle this store's
            // buffered entry drains to the array. The buffered instruction
            // is identified by the recorded `sbuf_pc`. Ignoring `BUBBLE_PC`
            // keeps the check specific to real stores.
            MEMORY => {
                let tso = self
                    .mv
                    .tso
                    .as_ref()
                    .expect("the Memory stage exists only in the TSO design");
                debug_assert!(instr.is_store(), "only stores have a Memory stage event");
                debug_assert_ne!(pc, BUBBLE_PC);
                let t = &tso[instr.core.0];
                SvaBool::and(
                    SvaBool::atom(RtlAtom::is_true(t.drain)),
                    SvaBool::atom(RtlAtom::eq(t.sbuf_pc, pc)),
                )
            }
            other => panic!("Multi-V-scale has no stage {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcheck_litmus::{suite, InstrUid};
    use rtlcheck_rtl::multi_vscale::MemoryImpl;
    use rtlcheck_sva::emit::bool_to_sva;
    use rtlcheck_uspec::StageId;

    fn setup() -> (MultiVscale, LitmusTest) {
        let mp = suite::get("mp").unwrap();
        let mv = MultiVscale::build(&mp, MemoryImpl::Fixed);
        (mv, mp)
    }

    #[test]
    fn wb_node_renders_like_figure_9() {
        let (mv, mp) = setup();
        let m = MultiVscaleMapping::new(&mv, &mp);
        // i4 = load of x on core 1, index 1 → PC = 64 + 4 = 68.
        let node = GNode {
            instr: InstrUid(3),
            stage: StageId(WRITEBACK),
        };
        let expr = m.map_node(node, Some(Val(0)));
        let text = bool_to_sva(&expr, &|a| a.render(&mv.design));
        assert!(text.contains("core1_PC_WB == 32'd68"), "{text}");
        assert!(text.contains("core1_stall_WB == 1'd0"), "{text}");
        assert!(text.contains("core1_load_data_WB == 32'd0"), "{text}");
    }

    #[test]
    fn delay_mapping_is_value_agnostic() {
        let (mv, mp) = setup();
        let m = MultiVscaleMapping::new(&mv, &mp);
        let node = GNode {
            instr: InstrUid(3),
            stage: StageId(WRITEBACK),
        };
        let text = bool_to_sva(&m.map_node(node, None), &|a| a.render(&mv.design));
        assert!(!text.contains("load_data"), "{text}");
    }

    #[test]
    fn dx_and_if_nodes_map_with_stalls() {
        let (mv, mp) = setup();
        let m = MultiVscaleMapping::new(&mv, &mp);
        let dx = GNode {
            instr: InstrUid(0),
            stage: StageId(DECODE_EXECUTE),
        };
        let text = bool_to_sva(&m.map_node(dx, None), &|a| a.render(&mv.design));
        assert!(text.contains("core0_PC_DX == 32'd0"), "{text}");
        assert!(text.contains("core0_stall_DX == 1'd0"), "{text}");
        let iff = GNode {
            instr: InstrUid(1),
            stage: StageId(FETCH),
        };
        let text = bool_to_sva(&m.map_node(iff, None), &|a| a.render(&mv.design));
        assert!(text.contains("core0_PC_IF == 32'd4"), "{text}");
        assert!(text.contains("core0_stall_IF == 1'd0"), "{text}");
    }

    #[test]
    fn memory_stage_maps_to_the_drain_event() {
        let sb = suite::get("sb").unwrap();
        let mv = MultiVscale::build(&sb, MemoryImpl::Tso);
        let m = MultiVscaleMapping::new(&mv, &sb);
        // i1 = store of x on core 0.
        let node = GNode {
            instr: InstrUid(0),
            stage: StageId(3),
        };
        let text = bool_to_sva(&m.map_node(node, None), &|a| a.render(&mv.design));
        assert!(text.contains("core0_drain == 1'd1"), "{text}");
        assert!(text.contains("core0_sbuf_pc == 32'd0"), "{text}");
    }

    #[test]
    #[should_panic(expected = "Memory stage exists only in the TSO design")]
    fn memory_stage_requires_the_tso_design() {
        let (mv, mp) = setup();
        let m = MultiVscaleMapping::new(&mv, &mp);
        let node = GNode {
            instr: InstrUid(0),
            stage: StageId(3),
        };
        let _ = m.map_node(node, None);
    }

    #[test]
    #[should_panic(expected = "no stage")]
    fn unknown_stage_panics() {
        let (mv, mp) = setup();
        let m = MultiVscaleMapping::new(&mv, &mp);
        let node = GNode {
            instr: InstrUid(0),
            stage: StageId(9),
        };
        let _ = m.map_node(node, None);
    }
}
