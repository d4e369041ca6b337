//! Functional execution of PrimePar partition plans on real tensors.
//!
//! The paper claims its parallelism "rigorously preserves the mathematical
//! semantics of original training" (§6). On real hardware that is enforced by
//! construction of the CUDA/MPI kernels; here we *prove it executable*: this
//! crate replays the exact per-device, per-temporal-step schedule — block
//! matmuls, double-buffered ring exchanges (Table 1), end-of-phase
//! all-reduces, the `dW` accumulator shift, and the local SGD update — on
//! dense `f32` tensors, one simulated device at a time, and compares every
//! output against serial execution.
//!
//! * [`reference`][mod@reference] — serial forward/backward/gradient for the linear operator;
//!   [`bmm_reference`] — the same for the batched matmul.
//! * [`DistLinear`] — the one distributed matmul executor, for an arbitrary
//!   [`PartitionSeq`](primepar_partition::PartitionSeq): a linear
//!   ([`DistLinear::new`]) or a batched matmul whose second operand carries
//!   the batch dimension ([`DistLinear::batched`], the attention matmuls).
//! * [`DistSoftmax`], [`DistNorm`], [`attention_distributed`] and
//!   [`block_distributed_step`] — the other operators of a transformer
//!   block, and the block itself.
//! * [`train_distributed`] / [`train_serial`] — multi-iteration SGD loops used
//!   to check end-to-end training equivalence.
//!
//! Every block carries its expected DSI tuple and the executor asserts the
//! routing invariant at each use, so a misrouted ring message is detected
//! immediately (see [`ExecError::MisroutedBlock`] and the fault-injection
//! tests); a phase run before the one that supplies its operands fails the
//! same check. A sequence an operator cannot take is refused at
//! construction with [`ExecError::UnsupportedPrimitive`].

// Loops indexed by device id / wide internal signatures are deliberate.
#![allow(clippy::needless_range_loop)]
pub mod attention;
mod block;
mod bmm;
mod dist;
mod error;
mod norm;
pub mod reference;
mod training;

pub use attention::{
    attention_distributed, attention_gqa_serial, attention_serial, AttentionGrads, DistSoftmax,
};
pub use block::{
    block_distributed_step, block_serial_step, BlockPlan, BlockShape, BlockStep, BlockWeights,
};
pub use bmm::reference as bmm_reference;
pub use dist::{DistLinear, FaultSpec, LinearShape};
pub use error::ExecError;
pub use norm::DistNorm;
pub use training::{train_distributed, train_serial, TrainRecord};

/// Convenient result alias for executor operations.
pub type Result<T> = std::result::Result<T, ExecError>;
