//! The stable typed entry point of the workspace (v2, PR 10).
//!
//! Everything a consumer needs funnels through this module: build a
//! [`PlanRequest`], call [`PlanRequest::run`] (one-shot, process-wide warm
//! cache) or hand it to a [`PlannerService`] (bounded worker pool), and read
//! the [`PlanResponse`]. Simulation rides the same shapes via [`SimRequest`]
//! / [`SimResponse`], and the elastic re-planning loop via [`ReplanRequest`]
//! / [`ReplanResponse`] (a costed [`MigrationDecision`] over stay / patch /
//! full-replan candidates); [`Request`] / [`Response`] carry any of the
//! three through the worker pool and the wire protocol. Each request states
//! its workload once, as the [`PlanRequest`] a sim or replan request
//! embeds ([`Request::workload`]), and resolves it to a [`ResolvedPlan`],
//! the plan's identity and fingerprint. A [`Pending`] handle cancels
//! through the request's one stop flag, a [`SearchInterrupt`]. Every failure is
//! the one typed [`Error`] (enum {config, topology, protocol, cancelled,
//! internal}), which the CLI maps onto distinct exit codes. The service internals ride along for
//! hosts that need them: the sharded warm cache ([`WarmCache`] /
//! [`CacheConfig`] / [`ShardedMap`]) and `primepar.cache.v1` persistence
//! ([`CACHE_SCHEMA`], [`validate_cache_doc`]).
//!
//! ```
//! use primepar::api::PlanRequest;
//!
//! let resp = PlanRequest::builder("opt-6.7b")
//!     .devices(4)
//!     .seq(512)
//!     .layers(Some(2))
//!     .build()
//!     .run()
//!     .expect("valid request");
//! assert!(resp.plan.total_cost.is_finite());
//! ```
//!
//! v2 removed the deprecated pre-service free functions (`optimize`,
//! `optimize_instrumented`, `simulate_layer_with` and its robust model
//! variant); their engines are re-exported under [`crate::search`] and
//! [`crate::sim`] for borrowed-input callers (a robust run is
//! `sim::simulate_model_with` plus `sim::robustness_sweep`, whose report
//! [`SimResponse::robustness`] carries for a served request), and the
//! request types cover everything else.
//! See `CHANGELOG.md` for the migration table.

#[cfg(unix)]
pub use primepar_service::serve_unix_socket;
pub use primepar_service::{
    cache_to_json, cancel_json, error_json, parse_frame, perturbation_profile, plan_response_json,
    replan_request_json, replan_response_json, request_json, serve_lines, serve_lines_with_cache,
    sim_request_json, sim_response_json, validate_cache_doc, CacheConfig, CacheOutcome, CachedPlan,
    Error, Frame, Outcome, ParsedFrame, Pending, PlanRequest, PlanRequestBuilder, PlanResponse,
    PlannerService, ReplanRequest, ReplanResponse, Request, ResolvedPlan, Response, ServeEnd,
    ServeOptions, ServiceCacheStats, ServiceClient, ServiceOptions, ShardStats, ShardedMap,
    SimRequest, SimResponse, WarmCache, CACHE_SCHEMA, SERVICE_SCHEMA,
};

// Re-exported domain types, so facade users need no sub-crate imports.
pub use primepar_graph::ModelConfig;
pub use primepar_partition::PartitionSeq;
pub use primepar_search::{
    render_plan, run_elastic, ElasticEvent, ElasticPolicy, ElasticRunReport, MigrationDecision,
    ReplanOptions, ReplanOutcome, SearchInterrupt, SpaceOptions,
};
pub use primepar_sim::RobustnessReport;
pub use primepar_topology::{AppliedPerturbation, PerturbationModel};

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_search::{Planner, PlannerOptions};
    use primepar_topology::Cluster;

    /// The facade request path answers the same plan as the engines.
    #[test]
    fn facade_request_matches_direct_planner_call() {
        let req = PlanRequest::builder("opt-6.7b")
            .devices(4)
            .seq(512)
            .layers(Some(2))
            .build();
        let resp = req.run().expect("valid request");
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let direct = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(2);
        assert_eq!(resp.plan.seqs, direct.seqs);
        assert_eq!(resp.plan.total_cost.to_bits(), direct.total_cost.to_bits());
        assert_eq!(resp.plan_text, render_plan(&graph, &direct.seqs));
    }
}
