//! The v2 facade contract (ISSUE 10): everything `primepar::api` answers is
//! **bitwise-identical** to a direct engine call on the same inputs — plans
//! through the warm-cache request path, replan decisions through the costed
//! migration engine — and the elastic loop is reachable entirely through
//! facade re-exports.

use primepar::api::{
    run_elastic, AppliedPerturbation, ElasticEvent, ElasticPolicy, MigrationDecision, PlanRequest,
    ReplanRequest,
};
use primepar::search::{replan, Planner, ReplanOptions, SearchStrategy};
use primepar::topology::Cluster;

/// The facade's plan path (resolve → warm cache → response) answers the
/// exact plan a borrowed-input `Planner` call computes.
#[test]
fn facade_plan_matches_engine_bitwise() {
    let req = PlanRequest::builder("opt-6.7b")
        .devices(8)
        .batch(4)
        .seq(256)
        .layers(Some(2))
        .alpha(1e-6)
        .strategy(SearchStrategy::Beam { width: 8 })
        .build();
    let resolved = req.resolve().expect("valid request");
    let resp = req.run().expect("plans");

    let cluster = Cluster::v100_like(resolved.devices);
    let graph = resolved.model.layer_graph(resolved.batch, resolved.seq);
    let direct = Planner::new(&cluster, &graph, resolved.opts).optimize(resolved.layers);
    assert_eq!(resp.plan.seqs, direct.seqs);
    assert_eq!(resp.plan.total_cost.to_bits(), direct.total_cost.to_bits());
}

/// The facade's replan path prices the same candidates, bit-for-bit, as a
/// direct [`replan`] call on the resolved workload.
#[test]
fn facade_replan_matches_engine_bitwise() {
    let req = ReplanRequest::of(
        PlanRequest::builder("opt-6.7b")
            .id("api-v2")
            .devices(4)
            .batch(8)
            .seq(256)
            .layers(Some(2))
            .build(),
    )
    .with_scenario("harsh", 13)
    .with_horizon(390);
    let (resolved, applied, opts) = req.resolve().expect("valid request");
    let resp = req.run().expect("decides");

    let cluster = Cluster::v100_like(resolved.devices);
    let graph = resolved.model.layer_graph(resolved.batch, resolved.seq);
    let seqs = Planner::new(&cluster, &graph, resolved.opts)
        .optimize(resolved.layers)
        .seqs;
    let direct = replan(
        &cluster,
        &graph,
        &seqs,
        &applied,
        resolved.layers,
        &opts,
        None,
    );

    assert_eq!(resp.outcome.decision, direct.decision);
    assert_eq!(
        resp.outcome.migration_bytes.to_bits(),
        direct.migration_bytes.to_bits()
    );
    assert_eq!(
        resp.outcome.migration_seconds.to_bits(),
        direct.migration_seconds.to_bits()
    );
    assert_eq!(resp.outcome.candidates.len(), direct.candidates.len());
    for (a, b) in resp.outcome.candidates.iter().zip(&direct.candidates) {
        assert_eq!(a.decision, b.decision);
        assert_eq!(a.feasible, b.feasible);
        assert_eq!(a.migration_bytes.to_bits(), b.migration_bytes.to_bits());
        assert_eq!(a.migration_seconds.to_bits(), b.migration_seconds.to_bits());
        assert_eq!(a.iteration_seconds.to_bits(), b.iteration_seconds.to_bits());
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
    }
    // Harsh seed 13 kills a device at 4 devices: staying is never the answer.
    assert_ne!(resp.outcome.decision, MigrationDecision::Stay);
}

/// The elastic loop runs entirely through facade re-exports, and the same
/// scenario decides the same trace twice.
#[test]
fn elastic_loop_is_reachable_through_the_facade() {
    let cluster = Cluster::v100_like(4);
    let graph = primepar::api::ModelConfig::opt_6_7b().mlp_block_graph(4, 128);
    let seqs = Planner::new(&cluster, &graph, Default::default())
        .optimize(1)
        .seqs;
    let mut degraded = AppliedPerturbation::ideal(4);
    degraded.compute_factors[1] = 3.0;
    let events = vec![ElasticEvent {
        at_iteration: 5,
        perturbation: degraded,
    }];
    let run = |policy| {
        run_elastic(
            &cluster,
            &graph,
            &seqs,
            1,
            20,
            &events,
            policy,
            &ReplanOptions::default(),
            None,
        )
    };
    let a = run(ElasticPolicy::Elastic);
    let b = run(ElasticPolicy::Elastic);
    assert_eq!(a.decision_trace(), b.decision_trace());
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.outcomes.len(), 1);
}
