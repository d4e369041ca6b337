//! Cluster and interconnect model for the PrimePar reproduction.
//!
//! PrimePar (ASPLOS 2024) addresses devices by *bit-vector device IDs*
//! `D = (d_1, …, d_n)` over `2^n` homogeneous devices and reasons about
//! communication in terms of *group indicators* — the subsequence of device-ID
//! bits along which a collective or ring communication varies (paper §4.1,
//! Fig. 5). This crate provides:
//!
//! * [`DeviceId`] / [`DeviceSpace`] — the bit-vector addressing scheme,
//! * [`GroupIndicator`] — bit subsets, held as a `Copy` bit mask, and the
//!   grouping patterns they induce ([`DeviceSpace::group_leaders`] and
//!   [`DeviceSpace::group_members`] walk the groups from the mask without
//!   building them),
//! * [`Cluster`] — a hierarchical (node/NVLink/InfiniBand) performance model
//!   with alpha–beta link costs, matching the paper's 8×4-V100 testbed, plus a
//!   torus variant for the §7 discussion,
//! * [`LinearModel`] and profiling helpers — the paper fits communication and
//!   compute latency as linear functions via profiling + regression (§4.1); we
//!   reproduce that methodology against the simulated substrate,
//! * [`PerturbationModel`] / [`Cluster::perturbed`] — seeded fault & variance
//!   scenarios (straggling devices, degraded links, dead-device failover) for
//!   robustness studies.
//!
//! # Example
//!
//! ```
//! use primepar_topology::{Cluster, DeviceSpace, GroupIndicator};
//!
//! let cluster = Cluster::v100_like(8);
//! let space = DeviceSpace::new(3);
//! // Group indicator (d_1): inter-node pairs (0,4), (1,5), (2,6), (3,7).
//! let groups = space.groups(GroupIndicator::new([1]));
//! assert_eq!(groups.len(), 4);
//! assert!(cluster.group_spans_nodes(&groups[0]));
//! ```

// Loops indexed by device id / wide internal signatures are deliberate.
#![allow(clippy::needless_range_loop)]
mod cluster;
mod device;
pub mod perturb;
mod profile;

pub use cluster::{Cluster, ClusterError, DeviceModel, LinkClass, LinkModel, Topology};
pub use device::{DeviceId, DeviceSpace, GroupIndicator};
pub use perturb::{AppliedPerturbation, PerturbationError, PerturbationModel};
pub use profile::{
    all_indicators, fit_linear, fit_linear2, CommProfile, ComputeProfile, LinearModel, LinearModel2,
};
