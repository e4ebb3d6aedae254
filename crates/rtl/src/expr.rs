//! Combinational expression nodes.

use std::fmt;

use crate::design::SignalId;

/// Index of an expression node in a design's expression arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub(crate) usize);

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Unary combinational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement (masked to the operand width).
    Not,
    /// Reduction: 1 iff the operand is nonzero (yields a 1-bit value).
    OrReduce,
}

/// Binary combinational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Bitwise and. Operand widths must match.
    And,
    /// Bitwise or. Operand widths must match.
    Or,
    /// Bitwise xor. Operand widths must match.
    Xor,
    /// Wrapping addition (masked to the operand width).
    Add,
    /// Wrapping subtraction (masked to the operand width).
    Sub,
    /// Equality; yields a 1-bit value.
    Eq,
    /// Inequality; yields a 1-bit value.
    Ne,
    /// Unsigned less-than; yields a 1-bit value.
    Lt,
}

impl BinOp {
    /// Whether the operator yields a 1-bit (comparison) result.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt)
    }

    /// The Verilog operator token.
    pub fn verilog_token(self) -> &'static str {
        match self {
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
        }
    }
}

/// A combinational expression node.
///
/// Expressions form a DAG in the owning design's arena; widths are
/// validated at [`crate::DesignBuilder::build`] time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal constant of the given width.
    Const {
        /// The value (must fit in `width` bits).
        value: u64,
        /// Width in bits (1..=64).
        width: u8,
    },
    /// The current value of a signal (input, register, or wire).
    Sig(SignalId),
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        arg: ExprId,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// A 2:1 multiplexer: `cond ? then_ : else_`. `cond` must be 1 bit wide
    /// and the arms must have equal width.
    Mux {
        /// 1-bit select.
        cond: ExprId,
        /// Value when `cond` is 1.
        then_: ExprId,
        /// Value when `cond` is 0.
        else_: ExprId,
    },
}

/// Masks `value` to `width` bits.
pub(crate) fn mask(value: u64, width: u8) -> u64 {
    value & width_mask(width)
}

/// The mask selecting the low `width` bits.
pub(crate) fn width_mask(width: u8) -> u64 {
    debug_assert!((1..=64).contains(&width));
    u64::MAX >> (64 - u32::from(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_truncates() {
        assert_eq!(mask(0xFF, 4), 0xF);
        assert_eq!(mask(u64::MAX, 64), u64::MAX);
        assert_eq!(mask(2, 1), 0);
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn verilog_tokens() {
        assert_eq!(BinOp::Eq.verilog_token(), "==");
        assert_eq!(BinOp::Xor.verilog_token(), "^");
    }
}
