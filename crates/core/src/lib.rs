//! **PrimePar** — reproduction of *"PrimePar: Efficient Spatial-temporal
//! Tensor Partitioning for Large Transformer Model Training"* (ASPLOS 2024).
//!
//! PrimePar extends tensor partitioning for distributed transformer training
//! with a *temporal* dimension: the novel primitive `P_{2^k×2^k}` distributes
//! sub-operators across a logical device square **and** across temporal
//! steps, eliminating all-reduce (summing partial results locally over time),
//! removing tensor replication, and overlapping ring point-to-point
//! communication with compute.
//!
//! This crate is the facade over the workspace:
//!
//! | component | crate | contents |
//! |---|---|---|
//! | [`partition`] | `primepar-partition` | DSI formalism (Alg. 1), primitives, Table-1 ring schedules, feature verification |
//! | [`exec`] | `primepar-exec` | functional executor proving numerical equivalence with serial training |
//! | [`graph`] | `primepar-graph` | operator taxonomy, Fig. 6 transformer graphs, the six-model zoo |
//! | [`cost`] | `primepar-cost` | Eq. 7 intra-operator and Eqs. 8–9 inter-operator cost models |
//! | [`search`] | `primepar-search` | segmented DP optimizer (Eqs. 11–14), Megatron/Alpa baselines |
//! | [`sim`] | `primepar-sim` | discrete-event cluster simulator, 3D-parallelism composition |
//! | [`audit`] | `primepar-audit` | the plan explanation: each Eq. 7–9 term beside the simulator's figure (what `plan` and `audit` print) |
//! | [`api`] / [`service`] | `primepar-service` | typed plan/sim API, planner service (worker pool, warm cache, line protocol) |
//! | [`topology`] | `primepar-topology` | device spaces, group indicators, cluster models, profiling |
//! | [`tensor`] | `primepar-tensor` | dense f32 tensors backing the executor |
//!
//! # Quickstart
//!
//! ```
//! use primepar::compare_systems;
//! use primepar::graph::ModelConfig;
//!
//! let rows = compare_systems(&ModelConfig::opt_6_7b(), 4, 8, 512);
//! let prime = rows.iter().find(|r| r.system == "PrimePar").unwrap();
//! let mega = rows.iter().find(|r| r.system == "Megatron").unwrap();
//! assert!(prime.tokens_per_second >= mega.tokens_per_second * 0.99);
//! ```

pub use primepar_audit as audit;
pub use primepar_cost as cost;
pub use primepar_exec as exec;
pub use primepar_graph as graph;
pub use primepar_obs as obs;
pub use primepar_partition as partition;
pub use primepar_search as search;
pub use primepar_service as service;
pub use primepar_sim as sim;
pub use primepar_tensor as tensor;
pub use primepar_topology as topology;

pub mod api;
mod compare;
pub mod obsreport;
pub mod tutorial;

pub use compare::{compare_systems, plan_summary, system_report, SystemKind, SystemReport};
pub use obsreport::{
    compare_metrics, run_metrics, validate_artifacts, write_chrome_trace, write_metrics_json,
    ArtifactSummary, RunInfo, METRICS_SCHEMA,
};
pub use primepar_service::Error;
