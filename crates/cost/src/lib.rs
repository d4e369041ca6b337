//! The PrimePar cost model (paper §4).
//!
//! * [`intra_cost`] — Eq. 7: per-operator training latency
//!   `Σ_t max(compute, ring) + allreduce + α·memory`, with communication
//!   latencies predicted by per-group-indicator linear models fitted by
//!   profiling ([`primepar_topology::CommProfile`]).
//! * [`inter_cost`] — Eqs. 8–9: redistribution traffic between consecutive
//!   operators from DSI slice-interval intersections, evaluated in the shared
//!   named-axis space so reshape boundaries (fused QKV, head folding) are
//!   priced correctly.
//! * [`OpGeometry`] / [`PlanGeometry`] — the cluster-free geometry of one
//!   operator (Eq. 7's FLOPs, bytes, groups and memory) or of a plan (plus
//!   each edge's Eqs. 8–9 volume). [`CostCtx::price_phase`] is the one step
//!   that turns it into seconds, for the planner, the simulator and the audit.
//!   Once the context has fitted its profiles (one per group-indicator
//!   mask), pricing allocates nothing: [`PhaseEvents`] borrows the geometry's
//!   ring bytes and prices each [`RingStep`] as it is read.
//! * [`EdgeCostCache`] / [`PreparedEdge`] — the optimizer's edge-cost
//!   planes (the `e(p_i, p_j)` inputs of Eqs. 11–14), swept from
//!   layout-interned side profiles.
//! * [`edge_cost_matrix`] — the cell-by-cell reference those planes are
//!   checked against, bit for bit.
//!
//! Every Eqs. 8–9 path — the planner's planes, the simulator's volumes, the
//! reference matrix and the migration prices — builds one holding type,
//! [`DenseIntervals`], by one builder from one description of an edge's
//! four sides; the planner's profiles keep each as per-axis interval ids.
//!
//! # Example
//!
//! ```
//! use primepar_cost::{CostCtx, intra_cost};
//! use primepar_graph::ModelConfig;
//! use primepar_partition::{Dim, PartitionSeq, Primitive};
//! use primepar_topology::Cluster;
//!
//! let cluster = Cluster::v100_like(4);
//! let ctx = CostCtx::new(&cluster, 0.0);
//! let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
//! let fc2 = &graph.ops[11];
//! // Row-split fc2 (all-reduce) vs the temporal primitive (ring only):
//! let row = PartitionSeq::new(vec![Primitive::Split(Dim::N), Primitive::Split(Dim::N)]).unwrap();
//! let temporal = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
//! let c_row = intra_cost(&ctx, fc2, &row);
//! let c_temporal = intra_cost(&ctx, fc2, &temporal);
//! assert!(c_temporal.allreduce == 0.0 && c_row.allreduce > 0.0);
//! ```

// Loops indexed by device id / wide internal signatures are deliberate.
#![allow(clippy::too_many_arguments)]
mod cache;
mod ctx;
mod hash;
mod inter;
mod intervals;
mod intra;
pub mod migration;

pub use cache::{
    matrix_job_ids, CacheStats, EdgeCostCache, ListedSpace, PreparedEdge, SideProfiles,
};
pub use ctx::CostCtx;
pub use inter::{edge_cost_matrix, inter_cost, inter_traffic_bytes};
pub use intervals::DenseIntervals;
pub use intra::{
    intra_cost, memory_bytes, tensor_block_elems, CollectiveEvent, IntraCost, MemoryBytes,
    OpGeometry, PhaseEvents, PhaseGeometry, PlanGeometry, RingStep,
};
pub use migration::{
    failover_traffic, migration_seconds, migration_traffic, MigrationVolume, OpMigration,
};
