//! Error types for tensor operations.
//!
//! Most kernel-level entry points in this crate panic on shape mismatch (the
//! shapes of a neural network are static per configuration, so a mismatch is
//! a programming error, not a recoverable condition). The fallible
//! counterparts used at API boundaries return [`TensorError`].

use std::fmt;

/// Error raised by fallible tensor constructors and shape-checked entry
/// points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The element count implied by a shape does not match the data length.
    ShapeDataMismatch {
        /// Requested shape.
        shape: Vec<usize>,
        /// Number of elements actually provided.
        data_len: usize,
    },
    /// Two shapes cannot be broadcast together.
    BroadcastMismatch {
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// An axis index is out of range for the array's rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// The rank of the array.
        rank: usize,
    },
    /// Matrix-multiplication inner dimensions disagree.
    MatmulMismatch {
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// A reshape changes the total element count.
    ReshapeMismatch {
        /// Source shape.
        from: Vec<usize>,
        /// Target shape.
        to: Vec<usize>,
    },
    /// A slice range is out of bounds.
    SliceOutOfBounds {
        /// Axis being sliced.
        axis: usize,
        /// Start of the slice.
        start: usize,
        /// Length of the slice.
        len: usize,
        /// Size of the axis.
        dim: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { shape, data_len } => write!(
                f,
                "shape {shape:?} implies {} elements but {data_len} were provided",
                shape.iter().product::<usize>()
            ),
            TensorError::BroadcastMismatch { lhs, rhs } => {
                write!(f, "cannot broadcast shapes {lhs:?} and {rhs:?}")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::MatmulMismatch { lhs, rhs } => {
                write!(f, "matmul shape mismatch: {lhs:?} x {rhs:?}")?;
                // Name the offending dims when both operands are matrices
                // (possibly batched): `[.., m, k] x [.., k', n]`.
                if lhs.len() >= 2 && rhs.len() >= 2 {
                    let (m, k) = (lhs[lhs.len() - 2], lhs[lhs.len() - 1]);
                    let (k2, n) = (rhs[rhs.len() - 2], rhs[rhs.len() - 1]);
                    write!(f, ": ({m},{k}) x ({k2},{n})")?;
                    if k != k2 {
                        write!(f, " — inner dimensions {k} vs {k2} differ")?;
                    } else if lhs.len() == 3 && rhs.len() == 3 && lhs[0] != rhs[0] {
                        write!(f, " — batch dimensions {} vs {} differ", lhs[0], rhs[0])?;
                    }
                }
                Ok(())
            }
            TensorError::ReshapeMismatch { from, to } => {
                write!(f, "cannot reshape {from:?} into {to:?}: element counts differ")
            }
            TensorError::SliceOutOfBounds { axis, start, len, dim } => write!(
                f,
                "slice [{start}, {start}+{len}) out of bounds for axis {axis} of size {dim}"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
