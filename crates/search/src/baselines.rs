//! Baseline planners (paper §6.1): Megatron-LM's manual tensor parallelism
//! swept over data-parallel degrees, and an Alpa stand-in — the same optimal
//! search restricted to the conventional (spatial-only) space.

use primepar_cost::{CostCtx, PlanGeometry};
use primepar_graph::{Graph, OpKind};
use primepar_partition::{Dim, PartitionSeq, Primitive};
use primepar_topology::Cluster;

use crate::{ModelPlan, Planner, PlannerOptions, SpaceOptions};

/// Megatron-LM's manual layer strategy for data-parallel degree `d` and
/// tensor(model)-parallel degree `m` (both powers of two):
///
/// * linears: batch split `d`×, then column split (`qkv`, `fc1`) or row split
///   (`proj`, `fc2`) `m`×,
/// * attention matmuls and softmax: batch (via `M`, which carries the sample
///   batch) split `d`×, head split `m`×,
/// * norms and element-wise ops: batch split `d`×, sequence split `m`×
///   (Megatron's sequence parallelism for the non-matmul operators).
///
/// # Example
///
/// ```
/// use primepar_graph::ModelConfig;
/// use primepar_partition::Dim;
/// use primepar_search::megatron_layer_plan;
///
/// let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
/// let plan = megatron_layer_plan(&graph, 2, 4);
/// // fc1 is column-split 4x under 2-way data parallelism.
/// assert_eq!(plan[9].num_slices(Dim::B), 2);
/// assert_eq!(plan[9].num_slices(Dim::K), 4);
/// ```
///
/// # Panics
///
/// Panics if `d` or `m` is not a power of two.
pub fn megatron_layer_plan(graph: &Graph, d: usize, m: usize) -> Vec<PartitionSeq> {
    assert!(
        d.is_power_of_two() && m.is_power_of_two(),
        "d, m must be powers of two"
    );
    let dp = d.trailing_zeros() as usize;
    let tp = m.trailing_zeros() as usize;
    graph
        .ops
        .iter()
        .map(|op| {
            let mut prims = Vec::with_capacity(dp + tp);
            let (dp_dim, tp_dim) = match op.kind {
                OpKind::Linear => {
                    let col = matches!(op.name.as_str(), "qkv" | "fc1");
                    (Dim::B, if col { Dim::K } else { Dim::N })
                }
                // Attention ops carry the sample batch in M and heads in B.
                OpKind::BatchedMatmul | OpKind::Softmax => (Dim::M, Dim::B),
                OpKind::Norm(_) | OpKind::Activation(_) | OpKind::Elementwise => {
                    // fc1's column split flows through the activation.
                    if op.name == "act" {
                        (Dim::B, Dim::K)
                    } else {
                        (Dim::B, Dim::M)
                    }
                }
                // Megatron's vocab-parallel embedding: vocab is N here.
                OpKind::Embedding => (Dim::B, Dim::N),
            };
            prims.extend(std::iter::repeat_n(Primitive::Split(dp_dim), dp));
            prims.extend(std::iter::repeat_n(Primitive::Split(tp_dim), tp));
            PartitionSeq::new(prims).expect("splits only")
        })
        .collect()
}

/// Evaluates a fixed per-operator plan with the cost model: the marginal cost
/// of one steady-state layer (boundary node counted once) — comparable with
/// [`ModelPlan::layer_cost`].
pub fn evaluate_layer_plan(
    cluster: &Cluster,
    graph: &Graph,
    seqs: &[PartitionSeq],
    alpha: f64,
) -> f64 {
    let ctx = CostCtx::new(cluster, alpha);
    let geometry = PlanGeometry::new(graph, seqs);
    let mut total = 0.0;
    for op in geometry.ops.iter().skip(1) {
        total += ctx.price_intra(op).cost;
    }
    for &bytes in &geometry.edge_bytes {
        total += ctx.redistribution_time(bytes);
    }
    total
}

/// The Megatron baseline of §6.1: enumerate every data-parallel degree `d`
/// dividing the device count, apply `m = n/d` tensor parallelism, and keep
/// the best-performing configuration. Returns the plan and its `(d, m)`.
pub fn best_megatron(
    cluster: &Cluster,
    graph: &Graph,
    alpha: f64,
) -> (Vec<PartitionSeq>, (usize, usize), f64) {
    let n = cluster.num_devices();
    let batch = graph.ops[0].extent(Dim::B) as usize;
    let heads = graph.ops[3].extent(Dim::B) as usize;
    let mut best: Option<(Vec<PartitionSeq>, (usize, usize), f64)> = None;
    let mut d = 1;
    while d <= n {
        let m = n / d;
        // Feasibility: batch must accommodate d, heads must accommodate m.
        if d <= batch && m <= heads {
            let plan = megatron_layer_plan(graph, d, m);
            let cost = evaluate_layer_plan(cluster, graph, &plan, alpha);
            if best.as_ref().is_none_or(|(_, _, c)| cost < *c) {
                best = Some((plan, (d, m), cost));
            }
        }
        d *= 2;
    }
    best.expect("at least one feasible (d, m) configuration")
}

/// The Alpa stand-in (§6.1): the optimal plan within the *conventional*
/// spatial-only partition space, found by the same segmented DP.
///
/// # Example
///
/// ```
/// use primepar_graph::ModelConfig;
/// use primepar_search::alpa_plan;
/// use primepar_topology::Cluster;
///
/// let cluster = Cluster::v100_like(4);
/// let graph = ModelConfig::llama2_7b().layer_graph(8, 512);
/// let plan = alpa_plan(&cluster, &graph, 2, 0.0);
/// assert!(plan.seqs.iter().all(|s| s.temporal_k().is_none()));
/// ```
pub fn alpa_plan(cluster: &Cluster, graph: &Graph, layers: u64, alpha: f64) -> ModelPlan {
    let opts = PlannerOptions {
        space: SpaceOptions {
            allow_temporal: false,
            ..SpaceOptions::default()
        },
        alpha,
        ..PlannerOptions::default()
    };
    Planner::new(cluster, graph, opts).optimize(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_cost::inter_cost;
    use primepar_graph::ModelConfig;

    #[test]
    fn megatron_plan_shapes() {
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
        let plan = megatron_layer_plan(&graph, 2, 4);
        assert_eq!(plan.len(), 13);
        for seq in &plan {
            assert_eq!(seq.bits(), 3);
            assert!(seq.temporal_k().is_none());
        }
        // qkv: B split once, K split twice.
        assert_eq!(plan[2].num_slices(Dim::B), 2);
        assert_eq!(plan[2].num_slices(Dim::K), 4);
        // fc2: row split.
        assert_eq!(plan[11].num_slices(Dim::N), 4);
        // attention: heads split via B, batch via M.
        assert_eq!(plan[3].num_slices(Dim::B), 4);
        assert_eq!(plan[3].num_slices(Dim::M), 2);
    }

    #[test]
    fn megatron_tensor_parallel_has_no_boundary_redistribution() {
        // The hallmark of the hand-designed strategy: with pure TP the only
        // communication is the per-block all-reduce; every edge is aligned.
        let cluster = Cluster::v100_like(8);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
        let plan = megatron_layer_plan(&graph, 1, 8);
        let ctx = CostCtx::new(&cluster, 0.0);
        for e in &graph.edges {
            // Norm/elementwise M-splits vs linear inputs do redistribute a
            // little (sequence parallelism's all-gather); skip those edges
            // and check the matmul-to-matmul path is free.
            let names = (
                graph.ops[e.src].name.as_str(),
                graph.ops[e.dst].name.as_str(),
            );
            let matmul_chain = matches!(
                names,
                ("qkv", _) | (_, "qk") | ("qk", "softmax") | ("softmax", "av") | ("av", "proj")
            );
            if matmul_chain {
                let c = inter_cost(
                    &ctx,
                    e,
                    &graph.ops[e.src],
                    &graph.ops[e.dst],
                    &plan[e.src],
                    &plan[e.dst],
                );
                assert_eq!(c, 0.0, "edge ({}, {}) not aligned", names.0, names.1);
            }
        }
    }

    #[test]
    fn best_megatron_picks_feasible_config() {
        let cluster = Cluster::v100_like(16);
        let graph = ModelConfig::llama2_70b().layer_graph(8, 2048);
        let (plan, (d, m), cost) = best_megatron(&cluster, &graph, 0.0);
        assert_eq!(d * m, 16);
        assert_eq!(plan.len(), 13);
        assert!(cost > 0.0);
    }

    #[test]
    fn alpa_never_beats_primepar_space() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::bloom_7b1().layer_graph(8, 512);
        let alpa = alpa_plan(&cluster, &graph, 2, 0.0);
        let prime = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(2);
        assert!(prime.total_cost <= alpa.total_cost * 1.0001);
        assert!(alpa.seqs.iter().all(|s| s.temporal_k().is_none()));
    }
}
