//! Partition-strategy search for PrimePar (paper §5).
//!
//! * [`operator_space`] — enumerates an operator's partition space: all
//!   sequences of allowed primitives over the device bits, with at most one
//!   temporal primitive (the `P ≈ 1300` per-linear space of §5.3 at 32
//!   devices).
//! * [`Planner`] — *segmented dynamic programming*: Bellman iteration within
//!   the Fig. 6 segments (Eqs. 11–12), segment merging (Eq. 13), and
//!   `log(#layers)` min-plus doubling across stacked identical layers
//!   (Eq. 14), returning the optimal per-operator partition sequences.
//! * [`megatron_layer_plan`] / [`best_megatron`] — the Megatron-LM baseline:
//!   manual column/row/head partitions swept over all data-parallel degrees
//!   (§6.1's enumeration).
//! * [`alpa_plan`] — the Alpa stand-in: the same optimal search restricted to
//!   the conventional (spatial-only) partition space.
//! * [`replan()`] / [`run_elastic`] — online re-planning: the costed
//!   `Stay / Patch / FullReplan` migration decision for an observed
//!   fault/variance scenario, and the elastic timeline driver racing it
//!   against the never-replan and always-replan static extremes.
//!
//! # Example
//!
//! ```
//! use primepar_graph::ModelConfig;
//! use primepar_search::{Planner, PlannerOptions};
//! use primepar_topology::Cluster;
//!
//! let cluster = Cluster::v100_like(4);
//! let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
//! let plan = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(32);
//! assert_eq!(plan.seqs.len(), graph.ops.len());
//! assert!(plan.total_cost > 0.0);
//! ```

// Loops indexed by device id / wide internal signatures are deliberate.
#![allow(clippy::needless_range_loop)]
mod arena;
mod baselines;
mod dp;
mod minplus;
mod plan_io;
mod prune;
mod replan;
mod report;
mod space;
mod strategy;
mod telemetry;
mod warm;

pub use baselines::{alpa_plan, best_megatron, evaluate_layer_plan, megatron_layer_plan};
pub use dp::{ModelPlan, Planner, PlannerOptions};
pub use plan_io::{parse_plan, render_plan, PlanIoError};
pub use replan::{
    replan, run_elastic, CandidateCost, ElasticPolicy, ElasticRunReport, MigrationDecision,
    ReplanOptions, ReplanOutcome,
};
pub use report::explain_plan;
pub use space::{operator_space, SpaceCache, SpaceOptions};
pub use strategy::{SearchInterrupt, SearchStrategy};
pub use telemetry::{PlannerMetrics, SegmentMetrics};
pub use warm::{PlannerWarmCache, WarmStats};
