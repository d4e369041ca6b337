//! Cluster simulator for PrimePar plans: one SPMD walk.
//!
//! This is the reproduction's stand-in for the paper's 32-V100 testbed: it
//! executes a partitioned training iteration as an explicit event timeline —
//! forward sweep, reverse backward+gradient sweep, per-step ring transfers
//! overlapped with compute, end-of-phase collectives, inter-operator
//! redistribution — and reports the quantities the paper's figures plot:
//!
//! * [`simulate_layer`] / [`simulate_model`] — iteration latency, latency
//!   breakdown (compute / collective / exposed ring / redistribution), a
//!   named kernel [`Timeline`] (Fig. 9), and per-device peak memory from a
//!   high-water-mark trace (Figs. 2b, 8),
//! * [`simulate_3d`] — 1F1B pipeline composition for the (p, d, m)
//!   3D-parallelism study (Fig. 10),
//! * [`ideal_memory_bytes`] — the replication-free lower bound of Fig. 2(b),
//! * [`robustness_sweep`] — seeded fault & variance scenarios
//!   ([`primepar_topology::perturb`]) folded into a [`RobustnessReport`]
//!   (min/median/p95 makespan, slowdown-vs-ideal, critical-device
//!   histogram), a report of its own beside the ideal [`LayerReport`].
//!
//! The walk is the simulator. Every device executes the same program (§4,
//! Eqs. 7–10), so one timeline stands for all of them. A scenario — a single
//! straggler included — is simulated by deriving the cluster
//! ([`Cluster::perturbed`](primepar_topology::Cluster::perturbed) or
//! [`Cluster::with_perturbation`](primepar_topology::Cluster::with_perturbation));
//! no simulator option perturbs one. A perturbed cluster runs at its slowest
//! device's pace, and every ring step, collective and redistribution
//! synchronizes the devices, so a per-device clock would end where the walk
//! ends, on the scenario's
//! [`slowest_device`](primepar_topology::AppliedPerturbation::slowest_device).
//!
//! The elastic replan timeline is not here: `primepar_search::run_elastic`
//! runs it beside the decision it charges and measures each segment with
//! [`simulate_layer`]. Each [`LayerReport`] records the walk's per-operator
//! ([`LayerReport::op_breakdown`]) and per-edge
//! ([`LayerReport::edge_seconds`]) seconds beside the layer breakdown, so
//! readers such as the drift audit take the figures from the walk instead
//! of re-parsing its [`Timeline`].
//!
//! # Example
//!
//! ```
//! use primepar_graph::ModelConfig;
//! use primepar_search::megatron_layer_plan;
//! use primepar_sim::simulate_layer;
//! use primepar_topology::Cluster;
//!
//! let cluster = Cluster::v100_like(4);
//! let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
//! let plan = megatron_layer_plan(&graph, 2, 2);
//! let report = simulate_layer(&cluster, &graph, &plan);
//! assert!(report.layer_time > 0.0);
//! assert!(report.breakdown.collective > 0.0);
//! ```

// Loops indexed by device id / wide internal signatures are deliberate.
#![allow(clippy::needless_range_loop)]
mod accounting;
mod engine;
mod gantt;
mod pipeline;
mod report;
mod robustness;
mod trace;

pub use accounting::{
    indicator_link_class, redistribution_link_class, ByteSample, ClusterAccounting,
    CollectiveAccount, LinkAccount,
};
pub use engine::{
    ideal_memory_bytes, simulate_layer, simulate_layer_with, simulate_model, simulate_model_with,
    ModelReport, SimOptions,
};
pub use gantt::render_gantt;
pub use pipeline::{simulate_3d, ThreeDConfig, ThreeDReport};
pub use report::{Breakdown, EventKind, LayerReport, Timeline, TimelineEvent};
pub use robustness::{
    parse_robustness, robustness_json, robustness_metrics, robustness_sweep, RobustnessOptions,
    RobustnessReport, ScenarioOutcome, ROBUSTNESS_SCHEMA,
};
pub use trace::{
    chrome_trace, chrome_trace_with_accounting, layer_report_metrics, parse_chrome_trace,
    render_chrome_trace, timeline_from_trace,
};
