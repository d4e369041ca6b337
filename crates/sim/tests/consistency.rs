//! Cross-module consistency: the cost model's per-operator report and the
//! SPMD walk must tell the same story for the same plan — they share Eq. 7's
//! primitives but aggregate independently.

use primepar_cost::{inter_cost, intra_cost, CostCtx};
use primepar_graph::ModelConfig;
use primepar_search::{megatron_layer_plan, Planner, PlannerOptions};
use primepar_sim::simulate_layer;
use primepar_topology::Cluster;

#[test]
fn cost_model_totals_equal_simulated_layer_time() {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    for plan in [
        megatron_layer_plan(&graph, 2, 2),
        megatron_layer_plan(&graph, 1, 4),
        Planner::new(&cluster, &graph, PlannerOptions::default())
            .optimize(1)
            .seqs,
    ] {
        let ctx = CostCtx::new(&cluster, 0.0);
        let intra_total: f64 = graph
            .ops
            .iter()
            .zip(&plan)
            .map(|(op, seq)| intra_cost(&ctx, op, seq).latency)
            .sum();
        let inter_total: f64 = graph
            .edges
            .iter()
            .map(|e| {
                inter_cost(
                    &ctx,
                    e,
                    &graph.ops[e.src],
                    &graph.ops[e.dst],
                    &plan[e.src],
                    &plan[e.dst],
                )
            })
            .sum();
        let sim = simulate_layer(&cluster, &graph, &plan);
        let cost_total = intra_total + inter_total;
        // The simulator issues two redistribution events per edge (forward
        // and backward sweeps), so it pays the per-message latency alpha once
        // more per communicating edge than the combined Eq. 8-9 estimate.
        let alpha_slack = graph.edges.len() as f64 * 20e-6;
        assert!(
            sim.layer_time >= cost_total - 1e-12,
            "sim {} below cost {}",
            sim.layer_time,
            cost_total
        );
        assert!(
            sim.layer_time <= cost_total + alpha_slack,
            "sim {} exceeds cost {} by more than per-edge alpha",
            sim.layer_time,
            cost_total
        );
    }
}
