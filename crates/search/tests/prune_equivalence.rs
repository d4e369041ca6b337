//! The pruned planner is *bitwise-identical* to the unpruned planner.
//! Dominance pruning may only drop states the argmin can never select:
//! plan, `layer_cost` and `total_cost` must match the unpruned planner's
//! goldens (`goldens/mod.rs`) to the last bit across the full
//! `SpaceOptions` grid, for the serial and the multi-threaded planner.
//! `plan_goldens.rs` adds the chain on which pruning really drops states.

mod goldens;

use primepar_search::PlannerMetrics;

/// The prune stage ran and its per-segment counts add up to the run total.
fn assert_pruned(tm: &PlannerMetrics) {
    assert!(
        tm.stage_spans().iter().any(|&(name, _)| name == "prune"),
        "prune stage missing from {:?}",
        tm.stage_spans()
    );
    assert_eq!(
        tm.states_pruned,
        tm.segments.iter().map(|s| s.states_pruned).sum::<u64>()
    );
}

#[test]
fn pruned_planner_is_bitwise_identical_across_the_option_grid() {
    let graph = goldens::opt_layer();
    for (space, golden) in goldens::option_grid() {
        for tm in goldens::assert_golden(4, &graph, 4, space, golden) {
            assert_pruned(&tm);
        }
    }
}

#[test]
fn pruned_planner_is_bitwise_identical_with_threads() {
    let graph = goldens::opt_layer();
    for (space, golden) in goldens::eight_devices() {
        for tm in goldens::assert_golden(8, &graph, 4, space, golden) {
            assert_pruned(&tm);
        }
    }
}
