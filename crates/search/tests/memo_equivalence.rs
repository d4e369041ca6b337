//! The memoized planner is *bitwise-identical* to the seed path. Structural
//! memoization, profile interning, whole-matrix reuse and the blocked
//! min-plus kernels may only change *where* numbers come from, never the
//! numbers: plan, `layer_cost` and `total_cost` must match the seed
//! planner's goldens (`goldens/mod.rs`) to the last bit across the full
//! `SpaceOptions` grid, for the serial and the multi-threaded planner.

mod goldens;

use primepar_graph::Graph;
use primepar_search::PlannerMetrics;

/// Nodes of one signature shared one space, and the edge matrices went
/// through the cache.
fn assert_memoized(graph: &Graph, tm: &PlannerMetrics) {
    assert!(tm.unique_signatures < graph.ops.len());
    assert!(tm.edge_matrix_cache_hits + tm.edge_matrix_cache_misses > 0);
}

#[test]
fn memoized_planner_is_bitwise_identical_across_the_option_grid() {
    let graph = goldens::opt_layer();
    for (space, golden) in goldens::option_grid() {
        for tm in goldens::assert_golden(4, &graph, 4, space, golden) {
            assert_memoized(&graph, &tm);
        }
    }
}

#[test]
fn memoized_planner_is_bitwise_identical_with_threads() {
    let graph = goldens::opt_layer();
    for (space, golden) in goldens::eight_devices() {
        for tm in goldens::assert_golden(8, &graph, 4, space, golden) {
            assert_memoized(&graph, &tm);
        }
    }
}
