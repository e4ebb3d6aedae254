//! Semantics-perturbing mutations of [`Design`]s.
//!
//! RTLCheck's value claim is that it *detects* RTL consistency bugs, so the
//! verifier itself needs to be validated against more than the single §7.1
//! store-drop defect. This module is the fault-injection layer: a
//! [`Mutation`] is a named, deterministic edit of a built design's IR —
//! drop a stall, remove a forwarding path, flip an arbiter priority
//! comparison, overwrite a buffer without its pending check, skip a reset
//! value, commit at the wrong time/address — and the mutation campaign
//! (`rtlcheck mutate`, `bench::mutation`) proves the generated properties
//! kill the mutants.
//!
//! Mutations are **name-based**: the Multi-V-scale family bakes each litmus
//! test's programs into the design, so there is one design *per test*, but
//! signal names (`core0_stall_DX`, `mem_prev_addr`, …) are stable across
//! all of them. A single catalog entry therefore applies to every per-test
//! build of its target microarchitecture.
//!
//! Application is copy-on-write over the expression arena: edited cones get
//! fresh nodes, everything else is shared, and no signal is ever added or
//! removed — the `SignalId` handles held by [`crate::multi_vscale::MultiVscale`]
//! / [`crate::five_stage::FiveStage`] stay valid on the mutant. Every
//! mutant is re-finalized through exactly the same validation as a freshly
//! built design (widths, driver agreement, wire topological order), so an
//! ill-formed mutation is a clean [`MutateError`], never a corrupt design.

use std::collections::HashMap;
use std::fmt;

use crate::builder;
use crate::cone::ConeSet;
use crate::design::{Design, DesignError, Signal, SignalId, SignalKind};
use crate::expr::{mask, BinOp, Expr, ExprId};
use crate::isa::{self, PC_STEP};

/// The bug family a mutation belongs to (the campaign's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MutationFamily {
    /// A stall/backpressure condition is dropped.
    DropStall,
    /// A forwarding/bypass path is removed or mis-gated.
    RemoveForwarding,
    /// An arbiter/selection comparison is inverted (priority flip).
    PriorityFlip,
    /// A buffer or array is written without its pending/valid check.
    BufferOverwrite,
    /// A register's reset value is wrong or missing.
    SkipResetInit,
    /// A commit uses the wrong cycle's address/data (order swap).
    SwapCommitOrder,
}

impl MutationFamily {
    /// Stable lower-snake label (used in reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            MutationFamily::DropStall => "drop_stall",
            MutationFamily::RemoveForwarding => "remove_forwarding",
            MutationFamily::PriorityFlip => "priority_flip",
            MutationFamily::BufferOverwrite => "buffer_overwrite",
            MutationFamily::SkipResetInit => "skip_reset_init",
            MutationFamily::SwapCommitOrder => "swap_commit_order",
        }
    }
}

impl fmt::Display for MutationFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Selects the signal(s) an operation applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalSel {
    /// Exactly one signal, by full name.
    Named(String),
    /// Every signal named `<prefix><decimal index>` (e.g. `Indexed("mem_")`
    /// selects `mem_0`, `mem_1`, … but *not* `mem_prev_addr`), in
    /// [`SignalId`] order.
    Indexed(String),
}

impl SignalSel {
    fn resolve(&self, design: &Design) -> Result<Vec<SignalId>, MutateError> {
        let ids: Vec<SignalId> = match self {
            SignalSel::Named(name) => design
                .signal_by_name(name)
                .map(|id| vec![id])
                .ok_or_else(|| MutateError::UnknownSignal(name.clone()))?,
            SignalSel::Indexed(prefix) => design
                .signals()
                .filter(|(_, s)| {
                    s.name.strip_prefix(prefix.as_str()).is_some_and(|rest| {
                        !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit())
                    })
                })
                .map(|(id, _)| id)
                .collect(),
        };
        if ids.is_empty() {
            return Err(MutateError::UnknownSignal(self.to_string()));
        }
        Ok(ids)
    }
}

impl fmt::Display for SignalSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalSel::Named(n) => f.write_str(n),
            SignalSel::Indexed(p) => write!(f, "{p}<index>"),
        }
    }
}

/// One primitive IR edit. Cone-surgery operations locate their target node
/// by a deterministic pre-order walk (condition/left operand first, each
/// shared node counted once) of the selected signal's driving cone — the
/// wire's expression or the register's next-state expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationOp {
    /// Replace a wire's driver with a constant (e.g. tie a stall to 0).
    TieWire {
        /// Wire(s) to tie.
        target: SignalSel,
        /// Constant value (must fit the wire's width).
        value: u64,
    },
    /// Replace a register's reset value (`None` = leave it free).
    SetRegInit {
        /// Register(s) to edit.
        target: SignalSel,
        /// New reset value.
        init: Option<u64>,
    },
    /// AND the condition of the `occurrence`-th mux in the cone with
    /// `guard == guard_value` — the mux only selects its then-arm when the
    /// extra condition also holds.
    GateMuxCond {
        /// Signal whose cone is edited.
        target: SignalSel,
        /// Which mux (pre-order).
        occurrence: usize,
        /// Guard signal (compared at its own width).
        guard: String,
        /// Value the guard must equal for the mux to fire.
        guard_value: u64,
    },
    /// Swap the then/else arms of the `occurrence`-th mux in the cone.
    SwapMuxArms {
        /// Signal whose cone is edited.
        target: SignalSel,
        /// Which mux (pre-order).
        occurrence: usize,
    },
    /// Invert the `occurrence`-th equality (`==` ↔ `!=`) in the cone.
    FlipEq {
        /// Signal whose cone is edited.
        target: SignalSel,
        /// Which equality/inequality (pre-order).
        occurrence: usize,
    },
    /// Replace the `occurrence`-th AND in the cone by one of its operands,
    /// dropping the other condition entirely.
    DropAndOperand {
        /// Signal whose cone is edited.
        target: SignalSel,
        /// Which AND (pre-order).
        occurrence: usize,
        /// Keep the left operand (`true`) or the right (`false`).
        keep_lhs: bool,
    },
    /// Replace the `occurrence`-th OR in the cone by one of its operands,
    /// dropping the other term entirely.
    DropOrOperand {
        /// Signal whose cone is edited.
        target: SignalSel,
        /// Which OR (pre-order).
        occurrence: usize,
        /// Keep the left operand (`true`) or the right (`false`).
        keep_lhs: bool,
    },
    /// Substitute every read of signal `from` inside the cone with a read
    /// of signal `to` (widths must match).
    RedirectSig {
        /// Signal whose cone is edited.
        target: SignalSel,
        /// Signal reads to replace.
        from: String,
        /// Replacement signal.
        to: String,
    },
}

/// Why a mutation could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// The selector matched no signal in this design.
    UnknownSignal(String),
    /// The target exists but is not the required kind (wire/register).
    WrongKind {
        /// Signal name.
        signal: String,
        /// What the operation needed.
        expected: &'static str,
    },
    /// The cone has fewer matching nodes than `occurrence` requires.
    NoSuchNode {
        /// Signal whose cone was searched.
        signal: String,
        /// What was searched for (`mux`, `eq`, `and`, `sig read`).
        node: &'static str,
        /// Requested occurrence.
        occurrence: usize,
        /// How many the cone actually contains.
        found: usize,
    },
    /// A constant/init value does not fit the target's width.
    ValueTooWide {
        /// Signal name.
        signal: String,
        /// Offending value.
        value: u64,
        /// The signal's width.
        width: u8,
    },
    /// Two signals that must agree in width do not.
    WidthMismatch {
        /// Explanation.
        detail: String,
    },
    /// The edited design failed re-finalization.
    Invalid(DesignError),
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::UnknownSignal(s) => write!(f, "no signal matches `{s}`"),
            MutateError::WrongKind { signal, expected } => {
                write!(f, "signal `{signal}` is not a {expected}")
            }
            MutateError::NoSuchNode {
                signal,
                node,
                occurrence,
                found,
            } => write!(
                f,
                "cone of `{signal}` has {found} {node} node(s); occurrence {occurrence} requested"
            ),
            MutateError::ValueTooWide {
                signal,
                value,
                width,
            } => write!(f, "value {value} does not fit `{signal}` ({width} bits)"),
            MutateError::WidthMismatch { detail } => write!(f, "width mismatch: {detail}"),
            MutateError::Invalid(e) => write!(f, "mutated design is ill-formed: {e}"),
        }
    }
}

impl std::error::Error for MutateError {}

impl From<DesignError> for MutateError {
    fn from(e: DesignError) -> Self {
        MutateError::Invalid(e)
    }
}

/// A named, deterministic design mutation: a taxonomy family plus a list of
/// primitive IR edits applied in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutation {
    /// Stable identifier (used by `--mutants`, reports, and JSON).
    pub name: String,
    /// Taxonomy family.
    pub family: MutationFamily,
    /// One-line human description of the injected bug.
    pub description: String,
    /// The edits, applied in order.
    pub ops: Vec<MutationOp>,
}

impl Mutation {
    /// Applies the mutation to a design, producing the mutant.
    ///
    /// The mutant keeps every signal (ids, names, widths) of the original —
    /// only drivers, reset values, and the module name change. The module
    /// name gains a `__<mutation>` suffix so emitted Verilog (and hence the
    /// graph-cache fingerprint, which hashes it) differs even for
    /// init-only mutants.
    ///
    /// # Errors
    ///
    /// Returns a [`MutateError`] if any op's target is missing or of the
    /// wrong shape, or if the edited design fails re-finalization.
    pub fn apply(&self, design: &Design) -> Result<Design, MutateError> {
        let mut signals = design.signals.clone();
        let mut exprs = design.exprs.clone();

        for op in &self.ops {
            apply_op(op, design, &mut signals, &mut exprs)?;
        }

        builder::finalize(
            format!("{}__{}", design.name, self.name),
            signals,
            exprs,
            design.by_name.clone(),
            design.num_inputs,
            design.num_regs,
        )
        .map_err(MutateError::from)
    }

    /// The set of cones this mutation invalidates on `design`.
    ///
    /// Exact by construction: the mutation is applied and the mutant
    /// diffed against the baseline at the fingerprint level
    /// ([`ConeSet::diff`]), so the result is precisely the signals whose
    /// value functions (or reset values) change — already closed over
    /// transitive combinational readers. Falls back to the conservative
    /// all-dirty set if the mutant were ever structurally incompatible
    /// (catalog mutations never are: they rewrite drivers, not tables).
    ///
    /// # Errors
    ///
    /// Propagates any [`MutateError`] from applying the mutation.
    pub fn dirty_cones(&self, design: &Design) -> Result<ConeSet, MutateError> {
        let mutant = self.apply(design)?;
        Ok(ConeSet::diff(design, &mutant).unwrap_or_else(|| ConeSet::all(design)))
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.name, self.family, self.description)
    }
}

/// The driving cone root of a signal: a wire's expression or a register's
/// next-state expression.
fn cone_root(signals: &[Signal], id: SignalId) -> Result<ExprId, MutateError> {
    match signals[id.0].kind {
        SignalKind::Wire { expr } => Ok(expr),
        SignalKind::Reg { next, .. } => Ok(next),
        SignalKind::Input { .. } => Err(MutateError::WrongKind {
            signal: signals[id.0].name.clone(),
            expected: "wire or register",
        }),
    }
}

fn set_cone_root(signals: &mut [Signal], id: SignalId, root: ExprId) {
    match &mut signals[id.0].kind {
        SignalKind::Wire { expr } => *expr = root,
        SignalKind::Reg { next, .. } => *next = root,
        SignalKind::Input { .. } => unreachable!("cone_root rejected inputs"),
    }
}

/// Pre-order walk of a cone (cond/lhs first), each shared node visited
/// once, collecting nodes matching `pred` in visit order.
fn matching_nodes(exprs: &[Expr], root: ExprId, pred: impl Fn(&Expr) -> bool) -> Vec<ExprId> {
    let mut seen = vec![false; exprs.len()];
    let mut found = Vec::new();
    let mut stack = vec![root];
    // An explicit stack with children pushed in reverse keeps the walk
    // pre-order (parent, then cond/lhs before else/rhs).
    while let Some(e) = stack.pop() {
        if seen[e.0] {
            continue;
        }
        seen[e.0] = true;
        let node = &exprs[e.0];
        if pred(node) {
            found.push(e);
        }
        match *node {
            Expr::Const { .. } | Expr::Sig(_) => {}
            Expr::Unary { arg, .. } => stack.push(arg),
            Expr::Binary { lhs, rhs, .. } => {
                stack.push(rhs);
                stack.push(lhs);
            }
            Expr::Mux { cond, then_, else_ } => {
                stack.push(else_);
                stack.push(then_);
                stack.push(cond);
            }
        }
    }
    found
}

/// Copy-on-write rebuild of `root` with `subst` node replacements: any node
/// in `subst` maps to its replacement; ancestors of replaced nodes get
/// fresh arena entries, untouched subtrees keep their ids.
fn rebuild(
    exprs: &mut Vec<Expr>,
    root: ExprId,
    subst: &HashMap<ExprId, ExprId>,
    memo: &mut HashMap<ExprId, ExprId>,
) -> ExprId {
    if let Some(&r) = subst.get(&root) {
        return r;
    }
    if let Some(&m) = memo.get(&root) {
        return m;
    }
    let rebuilt = match exprs[root.0] {
        Expr::Const { .. } | Expr::Sig(_) => root,
        Expr::Unary { op, arg } => {
            let a = rebuild(exprs, arg, subst, memo);
            if a == arg {
                root
            } else {
                push(exprs, Expr::Unary { op, arg: a })
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = rebuild(exprs, lhs, subst, memo);
            let r = rebuild(exprs, rhs, subst, memo);
            if l == lhs && r == rhs {
                root
            } else {
                push(exprs, Expr::Binary { op, lhs: l, rhs: r })
            }
        }
        Expr::Mux { cond, then_, else_ } => {
            let c = rebuild(exprs, cond, subst, memo);
            let t = rebuild(exprs, then_, subst, memo);
            let e = rebuild(exprs, else_, subst, memo);
            if c == cond && t == then_ && e == else_ {
                root
            } else {
                push(
                    exprs,
                    Expr::Mux {
                        cond: c,
                        then_: t,
                        else_: e,
                    },
                )
            }
        }
    };
    memo.insert(root, rebuilt);
    rebuilt
}

fn push(exprs: &mut Vec<Expr>, e: Expr) -> ExprId {
    let id = ExprId(exprs.len());
    exprs.push(e);
    id
}

/// Finds the `occurrence`-th node matching `pred` in the cone, or errors
/// with an exact count.
fn nth_node(
    exprs: &[Expr],
    root: ExprId,
    signal: &str,
    node: &'static str,
    occurrence: usize,
    pred: impl Fn(&Expr) -> bool,
) -> Result<ExprId, MutateError> {
    let found = matching_nodes(exprs, root, pred);
    found
        .get(occurrence)
        .copied()
        .ok_or_else(|| MutateError::NoSuchNode {
            signal: signal.to_string(),
            node,
            occurrence,
            found: found.len(),
        })
}

fn apply_op(
    op: &MutationOp,
    design: &Design,
    signals: &mut Vec<Signal>,
    exprs: &mut Vec<Expr>,
) -> Result<(), MutateError> {
    // Cone surgery rewrites `target`'s root with `subst` applied.
    let surgery = |signals: &mut Vec<Signal>,
                   exprs: &mut Vec<Expr>,
                   id: SignalId,
                   subst: HashMap<ExprId, ExprId>|
     -> Result<(), MutateError> {
        let root = cone_root(signals, id)?;
        let mut memo = HashMap::new();
        let new_root = rebuild(exprs, root, &subst, &mut memo);
        set_cone_root(signals, id, new_root);
        Ok(())
    };

    match op {
        MutationOp::TieWire { target, value } => {
            for id in target.resolve(design)? {
                let (name, width) = (signals[id.0].name.clone(), signals[id.0].width);
                let SignalKind::Wire { expr } = &mut signals[id.0].kind else {
                    return Err(MutateError::WrongKind {
                        signal: name,
                        expected: "wire",
                    });
                };
                if mask(*value, width) != *value {
                    return Err(MutateError::ValueTooWide {
                        signal: name,
                        value: *value,
                        width,
                    });
                }
                *expr = push(
                    exprs,
                    Expr::Const {
                        value: *value,
                        width,
                    },
                );
            }
        }
        MutationOp::SetRegInit { target, init } => {
            for id in target.resolve(design)? {
                let (name, width) = (signals[id.0].name.clone(), signals[id.0].width);
                let SignalKind::Reg { init: slot, .. } = &mut signals[id.0].kind else {
                    return Err(MutateError::WrongKind {
                        signal: name,
                        expected: "register",
                    });
                };
                if let Some(v) = init {
                    if mask(*v, width) != *v {
                        return Err(MutateError::ValueTooWide {
                            signal: name,
                            value: *v,
                            width,
                        });
                    }
                }
                *slot = *init;
            }
        }
        MutationOp::GateMuxCond {
            target,
            occurrence,
            guard,
            guard_value,
        } => {
            let guard_id = design
                .signal_by_name(guard)
                .ok_or_else(|| MutateError::UnknownSignal(guard.clone()))?;
            let guard_width = design.signal(guard_id).width;
            if mask(*guard_value, guard_width) != *guard_value {
                return Err(MutateError::ValueTooWide {
                    signal: guard.clone(),
                    value: *guard_value,
                    width: guard_width,
                });
            }
            for id in target.resolve(design)? {
                let name = signals[id.0].name.clone();
                let root = cone_root(signals, id)?;
                let m = nth_node(exprs, root, &name, "mux", *occurrence, |e| {
                    matches!(e, Expr::Mux { .. })
                })?;
                let Expr::Mux { cond, then_, else_ } = exprs[m.0] else {
                    unreachable!("nth_node matched a mux")
                };
                let g = push(exprs, Expr::Sig(guard_id));
                let v = push(
                    exprs,
                    Expr::Const {
                        value: *guard_value,
                        width: guard_width,
                    },
                );
                let cmp = push(
                    exprs,
                    Expr::Binary {
                        op: BinOp::Eq,
                        lhs: g,
                        rhs: v,
                    },
                );
                let gated = push(
                    exprs,
                    Expr::Binary {
                        op: BinOp::And,
                        lhs: cond,
                        rhs: cmp,
                    },
                );
                let new_mux = push(
                    exprs,
                    Expr::Mux {
                        cond: gated,
                        then_,
                        else_,
                    },
                );
                surgery(signals, exprs, id, HashMap::from([(m, new_mux)]))?;
            }
        }
        MutationOp::SwapMuxArms { target, occurrence } => {
            for id in target.resolve(design)? {
                let name = signals[id.0].name.clone();
                let root = cone_root(signals, id)?;
                let m = nth_node(exprs, root, &name, "mux", *occurrence, |e| {
                    matches!(e, Expr::Mux { .. })
                })?;
                let Expr::Mux { cond, then_, else_ } = exprs[m.0] else {
                    unreachable!("nth_node matched a mux")
                };
                let swapped = push(
                    exprs,
                    Expr::Mux {
                        cond,
                        then_: else_,
                        else_: then_,
                    },
                );
                surgery(signals, exprs, id, HashMap::from([(m, swapped)]))?;
            }
        }
        MutationOp::FlipEq { target, occurrence } => {
            for id in target.resolve(design)? {
                let name = signals[id.0].name.clone();
                let root = cone_root(signals, id)?;
                let m = nth_node(exprs, root, &name, "eq", *occurrence, |e| {
                    matches!(
                        e,
                        Expr::Binary {
                            op: BinOp::Eq | BinOp::Ne,
                            ..
                        }
                    )
                })?;
                let Expr::Binary { op, lhs, rhs } = exprs[m.0] else {
                    unreachable!("nth_node matched a comparison")
                };
                let flipped = match op {
                    BinOp::Eq => BinOp::Ne,
                    BinOp::Ne => BinOp::Eq,
                    _ => unreachable!("nth_node matched eq/ne"),
                };
                let new = push(
                    exprs,
                    Expr::Binary {
                        op: flipped,
                        lhs,
                        rhs,
                    },
                );
                surgery(signals, exprs, id, HashMap::from([(m, new)]))?;
            }
        }
        MutationOp::DropAndOperand {
            target,
            occurrence,
            keep_lhs,
        }
        | MutationOp::DropOrOperand {
            target,
            occurrence,
            keep_lhs,
        } => {
            let (want, label): (BinOp, &'static str) =
                if matches!(op, MutationOp::DropAndOperand { .. }) {
                    (BinOp::And, "and")
                } else {
                    (BinOp::Or, "or")
                };
            for id in target.resolve(design)? {
                let name = signals[id.0].name.clone();
                let root = cone_root(signals, id)?;
                let m = nth_node(
                    exprs,
                    root,
                    &name,
                    label,
                    *occurrence,
                    |e| matches!(e, Expr::Binary { op, .. } if *op == want),
                )?;
                let Expr::Binary { lhs, rhs, .. } = exprs[m.0] else {
                    unreachable!("nth_node matched a binary op")
                };
                let kept = if *keep_lhs { lhs } else { rhs };
                surgery(signals, exprs, id, HashMap::from([(m, kept)]))?;
            }
        }
        MutationOp::RedirectSig { target, from, to } => {
            let from_id = design
                .signal_by_name(from)
                .ok_or_else(|| MutateError::UnknownSignal(from.clone()))?;
            let to_id = design
                .signal_by_name(to)
                .ok_or_else(|| MutateError::UnknownSignal(to.clone()))?;
            let (fw, tw) = (design.signal(from_id).width, design.signal(to_id).width);
            if fw != tw {
                return Err(MutateError::WidthMismatch {
                    detail: format!("`{from}` is {fw} bits but `{to}` is {tw} bits"),
                });
            }
            for id in target.resolve(design)? {
                let name = signals[id.0].name.clone();
                let root = cone_root(signals, id)?;
                let reads = matching_nodes(exprs, root, |e| *e == Expr::Sig(from_id));
                if reads.is_empty() {
                    return Err(MutateError::NoSuchNode {
                        signal: name,
                        node: "sig read",
                        occurrence: 0,
                        found: 0,
                    });
                }
                let replacement = push(exprs, Expr::Sig(to_id));
                let subst = reads.into_iter().map(|r| (r, replacement)).collect();
                surgery(signals, exprs, id, subst)?;
            }
        }
    }
    Ok(())
}

/// Which microarchitecture a catalog targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CatalogTarget {
    /// Multi-V-scale with the **fixed** memory (bugs are injected into the
    /// correct design; [`crate::multi_vscale::MemoryImpl::Buggy`] is the
    /// paper's own mutant).
    MultiVscale,
    /// The five-stage SC multicore ([`crate::five_stage`]).
    FiveStage,
    /// The TSO store-buffer variant ([`crate::tso`]).
    Tso,
}

impl CatalogTarget {
    /// Stable label (used by `--design` and reports).
    pub fn label(self) -> &'static str {
        match self {
            CatalogTarget::MultiVscale => "multi_vscale",
            CatalogTarget::FiveStage => "five_stage",
            CatalogTarget::Tso => "tso",
        }
    }

    /// Parses a `--design` value.
    pub fn parse(s: &str) -> Option<CatalogTarget> {
        match s {
            "multi_vscale" | "multi-vscale" | "vscale" => Some(CatalogTarget::MultiVscale),
            "five_stage" | "five-stage" => Some(CatalogTarget::FiveStage),
            "tso" => Some(CatalogTarget::Tso),
            _ => None,
        }
    }

    /// All campaign targets, in report order.
    pub fn all() -> [CatalogTarget; 3] {
        [
            CatalogTarget::MultiVscale,
            CatalogTarget::FiveStage,
            CatalogTarget::Tso,
        ]
    }
}

impl fmt::Display for CatalogTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

fn named(n: &str) -> SignalSel {
    SignalSel::Named(n.to_string())
}

fn mem_words() -> SignalSel {
    SignalSel::Indexed("mem_".to_string())
}

/// The fixed mutant catalog for a target design. Deterministic: same
/// target, same list, same order. Every entry applies to every per-test
/// build of the target (ops only reference signals that exist regardless
/// of the litmus test's shape).
pub fn catalog(target: CatalogTarget) -> Vec<Mutation> {
    match target {
        CatalogTarget::MultiVscale => multi_vscale_catalog(),
        CatalogTarget::FiveStage => five_stage_catalog(),
        CatalogTarget::Tso => tso_catalog(),
    }
}

fn multi_vscale_catalog() -> Vec<Mutation> {
    vec![
        Mutation {
            name: "store_drop_when_busy".into(),
            family: MutationFamily::BufferOverwrite,
            description: "memory write is suppressed while a new store issues: the first of two \
                          back-to-back stores is dropped (the §7.1 wdata bug, re-seeded into the \
                          fixed memory)"
                .into(),
            ops: vec![MutationOp::GateMuxCond {
                target: mem_words(),
                occurrence: 0,
                guard: "mem_req_is_store".into(),
                guard_value: 0,
            }],
        },
        Mutation {
            name: "drop_stall_core0".into(),
            family: MutationFamily::DropStall,
            description: "core 0's DX stall is tied low: ungranted memory ops advance and their \
                          accesses are silently dropped"
                .into(),
            ops: vec![MutationOp::TieWire {
                target: named("core0_stall_DX"),
                value: 0,
            }],
        },
        Mutation {
            name: "commit_wrong_core".into(),
            family: MutationFamily::PriorityFlip,
            description: "the write-data bus priority comparison is inverted: stores commit \
                          another core's WB data"
                .into(),
            ops: vec![MutationOp::FlipEq {
                target: named("mem_wdata_bus"),
                occurrence: 0,
            }],
        },
        Mutation {
            name: "commit_addr_early".into(),
            family: MutationFamily::SwapCommitOrder,
            description: "the memory write decodes this cycle's request address instead of the \
                          previous cycle's: data and address belong to different stores"
                .into(),
            ops: vec![MutationOp::RedirectSig {
                target: mem_words(),
                from: "mem_prev_addr".into(),
                to: "mem_req_addr".into(),
            }],
        },
        Mutation {
            name: "commit_data_dx".into(),
            family: MutationFamily::SwapCommitOrder,
            description: "core 0's slot on the write-data bus taps the DX-stage data register \
                          instead of the WB-stage one: the committed data belongs to the \
                          *following* instruction (loads carry 0, so a store followed by a load \
                          silently writes 0)"
                .into(),
            ops: vec![MutationOp::RedirectSig {
                target: named("mem_wdata_bus"),
                from: "core0_store_data_WB".into(),
                to: "core0_data_DX".into(),
            }],
        },
        Mutation {
            name: "skip_reset_pc0".into(),
            family: MutationFamily::SkipResetInit,
            description: "core 0's fetch PC resets one slot late: the core's first instruction \
                          never executes"
                .into(),
            ops: vec![MutationOp::SetRegInit {
                target: named("core0_PC_IF"),
                init: Some(isa::pc_base(0) + PC_STEP),
            }],
        },
        Mutation {
            name: "halt_ignores_stall".into(),
            family: MutationFamily::DropStall,
            description: "core 0 latches halted even while DX stalls — semantically equivalent \
                          on this pipeline (halt never stalls), so the verifier should NOT kill \
                          it: a deliberate equivalent mutant"
                .into(),
            ops: vec![MutationOp::DropAndOperand {
                target: named("core0_halted"),
                occurrence: 0,
                keep_lhs: false,
            }],
        },
    ]
}

fn tso_catalog() -> Vec<Mutation> {
    use crate::multi_vscale::NUM_CORES;
    vec![
        Mutation {
            name: "sbuf_overwrite".into(),
            family: MutationFamily::BufferOverwrite,
            description: "the flush stall is dropped entirely: stores, halts and fences retire \
                          without waiting for the store buffer, so a retiring store overwrites \
                          the buffered one"
                .into(),
            // stall_DX = or(load_stall, flush_stall): keep only load_stall.
            ops: (0..NUM_CORES)
                .map(|c| MutationOp::DropOrOperand {
                    target: named(&format!("core{c}_stall_DX")),
                    occurrence: 0,
                    keep_lhs: true,
                })
                .collect(),
        },
        Mutation {
            name: "drop_stall_core0".into(),
            family: MutationFamily::DropStall,
            description: "core 0's DX stall is tied low: stores overwrite the single-entry \
                          store buffer and the halt retires without flushing it"
                .into(),
            ops: vec![MutationOp::TieWire {
                target: named("core0_stall_DX"),
                value: 0,
            }],
        },
        Mutation {
            name: "forward_without_valid".into(),
            family: MutationFamily::RemoveForwarding,
            description: "loads forward from the store buffer on an address match even when the \
                          buffer is empty, returning stale buffered data"
                .into(),
            // fwd = and(sbuf_valid, addr_match): keep only addr_match.
            ops: (0..NUM_CORES)
                .map(|c| MutationOp::DropAndOperand {
                    target: named(&format!("core{c}_load_data_WB")),
                    occurrence: 0,
                    keep_lhs: false,
                })
                .collect(),
        },
        Mutation {
            name: "drain_wrong_addr".into(),
            family: MutationFamily::SwapCommitOrder,
            description: "core 0's drain writes to the address currently in its WB stage instead \
                          of the buffered store's address"
                .into(),
            ops: vec![MutationOp::RedirectSig {
                target: mem_words(),
                from: "core0_sbuf_addr".into(),
                to: "core0_addr_WB".into(),
            }],
        },
        Mutation {
            name: "skip_reset_pc0".into(),
            family: MutationFamily::SkipResetInit,
            description: "core 0's fetch PC resets one slot late: the core's first instruction \
                          never executes"
                .into(),
            ops: vec![MutationOp::SetRegInit {
                target: named("core0_PC_IF"),
                init: Some(isa::pc_base(0) + PC_STEP),
            }],
        },
        Mutation {
            name: "drain_addr_decode_flipped".into(),
            family: MutationFamily::PriorityFlip,
            description: "core 0's drain address decode is inverted: its buffered stores land \
                          in every word except the right one"
                .into(),
            // First eq in a mem word's cone is core 0's sbuf_addr match.
            ops: vec![MutationOp::FlipEq {
                target: mem_words(),
                occurrence: 0,
            }],
        },
    ]
}

fn five_stage_catalog() -> Vec<Mutation> {
    vec![
        Mutation {
            name: "drop_stall_core0".into(),
            family: MutationFamily::DropStall,
            description: "core 0's MEM stall is tied low: ungranted memory ops advance and \
                          their accesses are silently dropped"
                .into(),
            ops: vec![MutationOp::TieWire {
                target: named("core0_stall_MEM"),
                value: 0,
            }],
        },
        Mutation {
            name: "write_without_grant".into(),
            family: MutationFamily::BufferOverwrite,
            description: "a store in MEM writes the array regardless of the arbiter grant".into(),
            ops: vec![MutationOp::DropAndOperand {
                target: mem_words(),
                occurrence: 0,
                keep_lhs: false,
            }],
        },
        Mutation {
            name: "priority_flip_core0".into(),
            family: MutationFamily::PriorityFlip,
            description: "the write-enable grant comparison for core 0 is inverted: core 0's \
                          stores write exactly when NOT granted"
                .into(),
            ops: vec![MutationOp::FlipEq {
                target: mem_words(),
                occurrence: 0,
            }],
        },
        Mutation {
            name: "latch_stale_load".into(),
            family: MutationFamily::RemoveForwarding,
            description: "the WB load-data latch arms are swapped: a completing load holds the \
                          previous value and bubbles latch stray combinational reads"
                .into(),
            ops: (0..crate::five_stage::NUM_CORES)
                .map(|c| MutationOp::SwapMuxArms {
                    target: named(&format!("core{c}_load_data_WB")),
                    occurrence: 0,
                })
                .collect(),
        },
        Mutation {
            name: "skip_reset_pc0".into(),
            family: MutationFamily::SkipResetInit,
            description: "core 0's fetch PC resets one slot late: the core's first instruction \
                          never executes"
                .into(),
            ops: vec![MutationOp::SetRegInit {
                target: named("core0_PC_IF"),
                init: Some(isa::pc_base(0) + PC_STEP),
            }],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_vscale::{MemoryImpl, MultiVscale};
    use crate::sim::Simulator;
    use rtlcheck_litmus::suite;

    fn mp_design() -> Design {
        let mp = suite::get("mp").unwrap();
        MultiVscale::build(&mp, MemoryImpl::Fixed).design
    }

    #[test]
    fn catalogs_apply_to_every_suite_test() {
        for target in CatalogTarget::all() {
            for t in suite::all() {
                let design = match target {
                    CatalogTarget::MultiVscale => MultiVscale::build(&t, MemoryImpl::Fixed).design,
                    CatalogTarget::FiveStage => crate::five_stage::FiveStage::build(&t).design,
                    CatalogTarget::Tso => MultiVscale::build(&t, MemoryImpl::Tso).design,
                };
                for m in catalog(target) {
                    let mutant = m
                        .apply(&design)
                        .unwrap_or_else(|e| panic!("{target}/{}/{}: {e}", t.name(), m.name));
                    assert_eq!(mutant.num_regs(), design.num_regs());
                    assert_eq!(mutant.num_inputs(), design.num_inputs());
                    assert_eq!(
                        mutant.name(),
                        format!("{}__{}", design.name(), m.name),
                        "mutant is renamed"
                    );
                }
            }
        }
    }

    #[test]
    fn catalog_names_are_unique_per_target() {
        for target in CatalogTarget::all() {
            let names: Vec<String> = catalog(target).into_iter().map(|m| m.name).collect();
            let mut deduped = names.clone();
            deduped.sort();
            deduped.dedup();
            assert_eq!(deduped.len(), names.len(), "{target}: {names:?}");
        }
    }

    #[test]
    fn tie_wire_changes_simulation() {
        let d = mp_design();
        let m = &multi_vscale_catalog()[1]; // drop_stall_core0
        assert_eq!(m.name, "drop_stall_core0");
        let mutant = m.apply(&d).unwrap();
        let stall = mutant.signal_by_name("core0_stall_DX").unwrap();
        let sim = Simulator::new(&mutant);
        let pins: Vec<_> = mutant
            .free_init_regs()
            .into_iter()
            .map(|r| (r, 0))
            .collect();
        let mut s = sim.initial_state_with(&pins).unwrap();
        // Never grant core 0: the original design would stall; the mutant
        // never does.
        for _ in 0..8 {
            assert_eq!(sim.peek(&s, &[3], stall), 0);
            s = sim.step(&s, &[3]);
        }
    }

    #[test]
    fn store_drop_mutant_reproduces_the_7_1_drop() {
        // On the mutated fixed memory, two back-to-back stores drop the
        // first one — the same architectural effect as MemoryImpl::Buggy
        // (see multi_vscale::tests::back_to_back_stores_drop_on_buggy_memory_only).
        let d = mp_design();
        let m = &multi_vscale_catalog()[0];
        assert_eq!(m.name, "store_drop_when_busy");
        let mutant = m.apply(&d).unwrap();
        let sim = Simulator::new(&mutant);
        let mem0 = mutant.signal_by_name("mem_0").unwrap();
        let mem1 = mutant.signal_by_name("mem_1").unwrap();
        let pins = vec![(mem0, 0), (mem1, 0)];
        let mut s = sim.initial_state_with(&pins).unwrap();
        for g in [0u64, 0, 0, 2, 2, 2, 2, 2] {
            s = sim.step(&s, &[g]);
        }
        assert_eq!(sim.peek(&s, &[2], mem0), 0, "first store dropped");
        assert_eq!(sim.peek(&s, &[2], mem1), 1, "second store lands");
    }

    #[test]
    fn equivalent_mutant_simulates_identically() {
        let d = mp_design();
        let m = multi_vscale_catalog()
            .into_iter()
            .find(|m| m.name == "halt_ignores_stall")
            .unwrap();
        let mutant = m.apply(&d).unwrap();
        let sim_a = Simulator::new(&d);
        let sim_b = Simulator::new(&mutant);
        let pins: Vec<_> = d.free_init_regs().into_iter().map(|r| (r, 0)).collect();
        let mut a = sim_a.initial_state_with(&pins).unwrap();
        let mut b = sim_b.initial_state_with(&pins).unwrap();
        for i in 0..40u64 {
            let g = [i % 4];
            a = sim_a.step(&a, &g);
            b = sim_b.step(&b, &g);
            assert_eq!(a, b, "cycle {i}");
        }
    }

    #[test]
    fn unknown_signal_is_a_clean_error() {
        let d = mp_design();
        let m = Mutation {
            name: "bogus".into(),
            family: MutationFamily::DropStall,
            description: String::new(),
            ops: vec![MutationOp::TieWire {
                target: named("no_such_wire"),
                value: 0,
            }],
        };
        assert!(matches!(
            m.apply(&d),
            Err(MutateError::UnknownSignal(s)) if s == "no_such_wire"
        ));
    }

    #[test]
    fn occurrence_out_of_range_reports_the_count() {
        let d = mp_design();
        let m = Mutation {
            name: "deep".into(),
            family: MutationFamily::PriorityFlip,
            description: String::new(),
            ops: vec![MutationOp::SwapMuxArms {
                target: named("mem_req_is_store"),
                occurrence: 99,
            }],
        };
        match m.apply(&d) {
            Err(MutateError::NoSuchNode {
                occurrence: 99,
                found,
                ..
            }) => assert!(found < 99),
            other => panic!("expected NoSuchNode, got {other:?}"),
        }
    }

    #[test]
    fn occurrence_error_message_states_requested_and_total() {
        let d = mp_design();
        let probe = |occurrence: usize| -> Result<Design, MutateError> {
            Mutation {
                name: "deep".into(),
                family: MutationFamily::PriorityFlip,
                description: String::new(),
                ops: vec![MutationOp::SwapMuxArms {
                    target: named("mem_req_is_store"),
                    occurrence,
                }],
            }
            .apply(&d)
        };
        let err = probe(99).unwrap_err();
        let MutateError::NoSuchNode { found: total, .. } = err else {
            panic!("expected NoSuchNode, got {err:?}")
        };
        assert_eq!(
            err.to_string(),
            format!("cone of `mem_req_is_store` has {total} mux node(s); occurrence 99 requested"),
            "message must state both the total count and the requested occurrence"
        );
        // `found` really is the total occurrence count: one past the last
        // fails with the same count, the last one itself succeeds.
        assert!(matches!(
            probe(total),
            Err(MutateError::NoSuchNode { occurrence, found, .. })
                if occurrence == total && found == total
        ));
        assert!(total > 0, "the request-decode cone contains muxes");
        assert!(probe(total - 1).is_ok());
    }

    #[test]
    fn dirty_cones_tracks_value_changes() {
        let d = mp_design();
        let m = multi_vscale_catalog()
            .into_iter()
            .find(|m| m.name == "drop_stall_core0")
            .unwrap();
        let dirty = m.dirty_cones(&d).unwrap();
        let stall = d.signal_by_name("core0_stall_DX").unwrap();
        assert!(dirty.wire_dirty(stall), "the tied wire itself is dirty");
        assert!(
            !dirty.regs.is_empty(),
            "registers reading the stall inherit the dirt"
        );
        assert!(dirty.init_regs.is_empty());
        // The dirt agrees with the cone partition: every invalidated cone
        // either has a dirty root or reads a dirty wire, and at least one
        // cone survives untouched (the mutation is local).
        let cones = d.cones();
        let hit = cones.invalidated(&dirty);
        assert!(!hit.is_empty());
        assert!(hit.len() < cones.len(), "not every cone is invalidated");
        for (i, c) in cones.cones().iter().enumerate() {
            let dirty_root = dirty.reg_dirty(c.root);
            let reads_dirty = dirty.wires.iter().any(|&w| c.reads(w));
            assert_eq!(hit.contains(&i), dirty_root || reads_dirty);
        }
    }

    #[test]
    fn dirty_cones_init_only_mutant_is_init_only() {
        let d = mp_design();
        let m = multi_vscale_catalog()
            .into_iter()
            .find(|m| m.name == "skip_reset_pc0")
            .unwrap();
        let dirty = m.dirty_cones(&d).unwrap();
        assert!(dirty.wires.is_empty());
        assert!(dirty.regs.is_empty(), "next functions are untouched");
        assert_eq!(
            dirty.init_regs,
            vec![d.signal_by_name("core0_PC_IF").unwrap()]
        );
    }

    #[test]
    fn value_too_wide_is_rejected() {
        let d = mp_design();
        let m = Mutation {
            name: "wide".into(),
            family: MutationFamily::SkipResetInit,
            description: String::new(),
            ops: vec![MutationOp::SetRegInit {
                target: named("first"),
                init: Some(2),
            }],
        };
        assert!(matches!(m.apply(&d), Err(MutateError::ValueTooWide { .. })));
    }

    #[test]
    fn redirect_requires_matching_widths() {
        let d = mp_design();
        let m = Mutation {
            name: "mismatch".into(),
            family: MutationFamily::SwapCommitOrder,
            description: String::new(),
            ops: vec![MutationOp::RedirectSig {
                target: mem_words(),
                from: "mem_prev_addr".into(),
                to: "first".into(),
            }],
        };
        assert!(matches!(
            m.apply(&d),
            Err(MutateError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn mutants_share_untouched_cones() {
        // Copy-on-write: the mutant's arena extends the original's; the
        // original design is untouched.
        let d = mp_design();
        let before = d.exprs.len();
        let m = &multi_vscale_catalog()[0];
        let mutant = m.apply(&d).unwrap();
        assert_eq!(d.exprs.len(), before, "original untouched");
        assert!(mutant.exprs.len() > before, "mutant extends the arena");
        // Untouched signals keep their exact driver ids.
        let wdata_bus = d.signal_by_name("mem_wdata_bus").unwrap();
        assert_eq!(d.signal(wdata_bus).kind, mutant.signal(wdata_bus).kind);
    }
}
