//! Plan goldens beyond the option grid: a second model, and an alternating
//! chain on which dominance pruning really drops states, each pinned to the
//! seed planner's goldens (`goldens/mod.rs`) for threads {1, 4}; plus the
//! telemetry pins for pruning and structural memoization. The option grid
//! and the eight-device points are checked by `memo_equivalence.rs` and
//! `prune_equivalence.rs`.

mod goldens;

use primepar_graph::{Axis, Edge, Graph, ModelConfig, OpKind, Operator};
use primepar_search::{Planner, PlannerOptions, SpaceOptions};
use primepar_topology::Cluster;

/// A small cousin of the scaling benchmark's alternating chain (see
/// `primepar_bench::planner_scale_graph`, which cannot be imported here
/// without a dependency cycle): capped-batch linears whose forced `M`/`N`/`K`
/// bits create a dominated position-swap family, glued by poor-space
/// pointwise operators.
fn alternating_chain(devices: u64, nodes: usize) -> Graph {
    let ops = (0..nodes)
        .map(|i| {
            if i % 2 == 1 {
                Operator {
                    name: format!("pw{i}"),
                    kind: OpKind::Elementwise,
                    extents: [devices, 2, 1, 2],
                    axes: [
                        vec![(Axis::Batch, devices)],
                        vec![(Axis::Seq, 2)],
                        vec![],
                        vec![(Axis::Hidden, 2)],
                    ],
                }
            } else {
                Operator {
                    name: format!("lin{i}"),
                    kind: OpKind::Linear,
                    extents: [devices / 8, 2, 2, 2],
                    axes: [
                        vec![(Axis::Batch, devices / 8)],
                        vec![(Axis::Seq, 2)],
                        vec![(Axis::Hidden, 2)],
                        vec![(Axis::Hidden, 2)],
                    ],
                }
            }
        })
        .collect();
    let edges = (1..nodes).map(|i| Edge::plain(i - 1, i)).collect();
    Graph { ops, edges }
}

#[test]
fn planner_matches_goldens_on_a_second_model() {
    // LLaMA's SwiGLU widths exercise other signature/extent combinations.
    let graph = ModelConfig::llama2_7b().layer_graph(8, 512);
    goldens::assert_golden(8, &graph, 2, SpaceOptions::default(), goldens::SECOND_MODEL);
}

#[test]
fn pruning_fires_on_the_alternating_chain() {
    let graph = alternating_chain(64, 9);
    goldens::assert_golden(
        64,
        &graph,
        2,
        SpaceOptions::default(),
        goldens::ALTERNATING_CHAIN,
    );
    // The point of the shape: the interior linears really do lose states,
    // and the per-segment counts add up to the run total.
    let cluster = Cluster::v100_like(64);
    let (_, tm) =
        Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(2);
    assert!(
        tm.states_pruned > 0,
        "expected dominated states in the chain"
    );
    assert_eq!(
        tm.states_pruned,
        tm.segments.iter().map(|s| s.states_pruned).sum::<u64>()
    );
}

#[test]
fn pruning_reports_zero_drops_on_rich_neighbourhoods() {
    // On the transformer layer every neighbour space is rich enough to
    // distinguish the candidate states, so the pass keeps everything — and
    // must say so in the telemetry.
    let cluster = Cluster::v100_like(4);
    let graph = goldens::opt_layer();
    let (_, tm) =
        Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(4);
    assert_eq!(tm.states_pruned, 0);
}

#[test]
fn memoization_reduces_cost_model_work() {
    // The counters behind structural memoization: one Eq. 7 vector per
    // unique signature and one Eq. 8-9 matrix per unique edge structure,
    // against the per-node / per-edge volume (one evaluation per state, one
    // per matrix cell) a non-memoizing planner would spend.
    let cluster = Cluster::v100_like(8);
    let graph = goldens::opt_layer();
    let (_, tm) =
        Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(4);

    // 13 ops share 10 signatures; 3 intra vectors come for free.
    assert_eq!(graph.ops.len(), 13);
    assert_eq!(tm.unique_signatures, 10);
    let per_node: u64 = tm.space_sizes.iter().map(|&n| n as u64).sum();
    let per_edge: u64 = graph
        .edges
        .iter()
        .map(|e| (tm.space_sizes[e.src] * tm.space_sizes[e.dst]) as u64)
        .sum();
    assert!(
        tm.intra_evaluations < per_node,
        "intra {} !< {per_node}",
        tm.intra_evaluations
    );
    assert!(
        tm.edge_evaluations < per_edge,
        "edge {} !< {per_edge}",
        tm.edge_evaluations
    );
    assert!(tm.profile_cache_hits > 0);
    assert!(tm.edge_matrix_cache_hits > 0);
}
