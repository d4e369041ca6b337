//! The PrimePar partition space: Dimension Slice Indices (DSIs), the
//! conventional partition-by-dimension primitives, and the paper's novel
//! spatial-temporal primitive `P_{2^k×2^k}`.
//!
//! This crate is a faithful implementation of §3 of *PrimePar: Efficient
//! Spatial-temporal Tensor Partitioning for Large Transformer Model Training*
//! (ASPLOS 2024):
//!
//! * [`PartitionSeq`] — a sequence of [`Primitive`]s over a
//!   [`DeviceSpace`](primepar_topology::DeviceSpace), Algorithm 1's input `𝒫`.
//! * [`PartitionSeq::dsi`] — Algorithm 1: the slice of dimension `X` held by
//!   sub-operator `(D, t)` in each training [`Phase`];
//!   [`PartitionSeq::dsi_indices`] is the same map over the whole device
//!   space, every device's DSI tuple as one mixed-radix index.
//! * [`ring_transfers`] — the ring point-to-point communication schedule of
//!   `P_{2^k×2^k}` derived from the DSIs and verified against the paper's
//!   Table 1. It depends on `k` alone, so each `k`'s schedule is derived
//!   once per process and handed out as `'static` slices.
//! * [`verify`] — machine-checkable statements of the paper's features 1–3
//!   (collective-communication freedom, no replication, phase alignment), the
//!   all-reduce *group indicator* of a sequence, and the local-reduction
//!   coverage invariant that guarantees mathematical equivalence with serial
//!   training.
//!
//! # Example: the paper's `P_{2×2}` on 4 devices
//!
//! ```
//! use primepar_partition::{Dim, PartitionSeq, Phase, Primitive};
//! use primepar_topology::DeviceSpace;
//!
//! let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }])?;
//! let space = DeviceSpace::new(2);
//! // Device (r=1, c=0) is index 0b10 = 2; at forward step t=1 it holds
//! // the N-slice (r + c + t) mod 2 = 0 (Eq. 4).
//! assert_eq!(seq.dsi(space, Phase::Forward, Dim::N, 2.into(), 1), 0);
//! # Ok::<(), primepar_partition::PartitionError>(())
//! ```

mod comm;
mod dim;
mod primitive;
mod seq;
pub mod verify;

pub use comm::{ring_transfers, RingTransfer, TransferReason};
pub use dim::{Dim, Phase, TensorKind};
pub use primitive::Primitive;
pub use seq::{PartitionError, PartitionSeq};
