//! Property-based tests of the discrete-event simulator.

use proptest::prelude::*;

use primepar_graph::ModelConfig;
use primepar_search::megatron_layer_plan;
use primepar_sim::{
    ideal_memory_bytes, simulate_layer, simulate_layer_with, simulate_model, SimOptions,
};
use primepar_topology::Cluster;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any Megatron (d, m) configuration: the breakdown components sum to
    /// the layer's critical path, and the timeline's last event ends at it.
    #[test]
    fn breakdown_equals_critical_path(
        model_ix in 0usize..6, dp in 0u32..3, tp in 0u32..3,
    ) {
        let d = 1usize << dp;
        let m = 1usize << tp;
        let model = ModelConfig::all()[model_ix];
        prop_assume!(d <= 8 && m <= model.heads as usize);
        let cluster = Cluster::v100_like(d * m);
        let graph = model.layer_graph(8, 256);
        let plan = megatron_layer_plan(&graph, d, m);
        let r = simulate_layer(&cluster, &graph, &plan);
        let total = r.breakdown.total();
        prop_assert!((total - r.layer_time).abs() < 1e-9 * (1.0 + total));
        let end = r.timeline.iter().map(|e| e.start + e.duration).fold(0.0, f64::max);
        prop_assert!((end - r.layer_time).abs() < 1e-9 * (1.0 + end));
    }

    /// Model totals are consistent: iteration time and persistent memory
    /// scale linearly with layers; throughput is their reciprocal.
    #[test]
    fn model_scaling_consistency(model_ix in 0usize..6, layers in 1u64..12) {
        let model = ModelConfig::all()[model_ix];
        let cluster = Cluster::v100_like(4);
        let graph = model.layer_graph(4, 256);
        let plan = megatron_layer_plan(&graph, 2, 2);
        let tokens = 4.0 * 256.0;
        let one = simulate_model(&cluster, &graph, &plan, 1, tokens);
        let many = simulate_model(&cluster, &graph, &plan, layers, tokens);
        prop_assert!((many.iteration_time - layers as f64 * one.iteration_time).abs()
            < 1e-9 * many.iteration_time);
        prop_assert!((many.tokens_per_second - tokens / many.iteration_time).abs()
            < 1e-6 * many.tokens_per_second);
        prop_assert!(many.peak_memory_bytes >= one.peak_memory_bytes);
    }

    /// The replication-free ideal is a lower bound for every simulated plan.
    #[test]
    fn ideal_memory_lower_bounds_simulation(
        model_ix in 0usize..6, dp in 0u32..2, tp in 0u32..3,
    ) {
        let d = 1usize << dp;
        let m = 1usize << tp;
        let model = ModelConfig::all()[model_ix];
        prop_assume!(m <= model.heads as usize);
        let devices = d * m;
        let cluster = Cluster::v100_like(devices);
        let graph = model.layer_graph(8, 256);
        let plan = megatron_layer_plan(&graph, d, m);
        let report = simulate_model(&cluster, &graph, &plan, model.layers, 8.0 * 256.0);
        let ideal = ideal_memory_bytes(&graph, model.layers, devices);
        prop_assert!(report.peak_memory_bytes * 1.0001 >= ideal,
            "simulated {} below ideal {}", report.peak_memory_bytes, ideal);
    }

    /// Recomputation never increases memory and never decreases latency.
    #[test]
    fn recomputation_direction(model_ix in 0usize..6) {
        let model = ModelConfig::all()[model_ix];
        let cluster = Cluster::v100_like(4);
        let graph = model.layer_graph(8, 256);
        let plan = megatron_layer_plan(&graph, 2, 2);
        let base = simulate_layer(&cluster, &graph, &plan);
        let rc = simulate_layer_with(
            &cluster,
            &graph,
            &plan,
            &SimOptions {
                recompute_activations: true,
            },
        );
        prop_assert!(rc.peak_memory_bytes <= base.peak_memory_bytes * 1.0001);
        prop_assert!(rc.layer_time >= base.layer_time * 0.9999);
    }
}
