use std::error::Error;
use std::fmt;

use primepar_partition::{Dim, PartitionSeq, Phase, Primitive, TensorKind};
use primepar_tensor::TensorError;

/// Error raised by the functional executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A dimension's extent is not divisible by its slice count; the
    /// functional executor requires exact blocking (the cost model handles
    /// fractional slices, but numerics need clean cuts).
    Indivisible {
        /// The offending dimension.
        dim: Dim,
        /// Its global extent.
        extent: usize,
        /// Number of slices requested by the partition sequence.
        slices: usize,
    },
    /// An executor was handed a partition primitive its operator cannot
    /// take: a temporal primitive on a batched matmul (it would slice the
    /// head-embed dimension), or a split of a dimension the operator never
    /// partitions (the softmax and normalized dimensions, paper §3.2).
    UnsupportedPrimitive {
        /// The operator whose executor rejected the sequence.
        operator: &'static str,
        /// The first primitive of the sequence it cannot take.
        primitive: Primitive,
    },
    /// A block arrived at a device with a different DSI tuple than the
    /// schedule requires — a routing fault (also raised by deliberate fault
    /// injection in tests) — or a phase found no block at all because the
    /// phase that supplies it was not run first.
    MisroutedBlock {
        /// The phase in which the fault was detected.
        phase: Phase,
        /// The temporal step.
        step: usize,
        /// The tensor whose block is wrong.
        tensor: TensorKind,
        /// Device index that detected the fault.
        device: usize,
        /// The DSI tuple the schedule expects.
        expected: Vec<usize>,
        /// The DSI tuple actually held; empty when the device holds no block
        /// of `tensor`.
        actual: Vec<usize>,
    },
    /// An underlying dense-tensor operation failed.
    Tensor(TensorError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Indivisible { dim, extent, slices } => {
                write!(f, "dimension {dim} of extent {extent} is not divisible into {slices} slices")
            }
            ExecError::UnsupportedPrimitive { operator, primitive: Primitive::Split(dim) } => {
                write!(f, "the {operator} executor cannot take a split of dimension {dim}")
            }
            ExecError::UnsupportedPrimitive { operator, primitive: temporal @ Primitive::Temporal { .. } } => {
                write!(f, "the {operator} executor cannot take the temporal primitive {temporal}")
            }
            ExecError::MisroutedBlock { phase, step, tensor, device, actual, .. } if actual.is_empty() => {
                write!(f, "{phase} step {step}: device {device} holds no {tensor} block")
            }
            ExecError::MisroutedBlock { phase, step, tensor, device, expected, actual } => write!(
                f,
                "{phase} step {step}: device {device} holds {tensor} block {actual:?}, schedule expects {expected:?}"
            ),
            ExecError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

/// Rejects `seq` with [`ExecError::UnsupportedPrimitive`] at its first
/// primitive that `supported` refuses.
pub(crate) fn check_primitives(
    operator: &'static str,
    seq: &PartitionSeq,
    supported: impl Fn(Primitive) -> bool,
) -> Result<(), ExecError> {
    match seq.primitives().iter().find(|&&p| !supported(p)) {
        Some(&primitive) => Err(ExecError::UnsupportedPrimitive {
            operator,
            primitive,
        }),
        None => Ok(()),
    }
}

#[doc(hidden)]
impl From<TensorError> for ExecError {
    fn from(e: TensorError) -> Self {
        ExecError::Tensor(e)
    }
}
