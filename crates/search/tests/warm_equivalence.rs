//! PR 5 tentpole pin: planning against a cross-run [`PlannerWarmCache`] is
//! bitwise-identical to the cold path, warm repeats actually hit, and the
//! cache never bleeds across scopes (different α, cluster, or space options).

use primepar_graph::ModelConfig;
use primepar_search::{Planner, PlannerOptions, PlannerWarmCache, SpaceOptions};
use primepar_topology::Cluster;

fn assert_bitwise_equal(
    a: &primepar_search::ModelPlan,
    b: &primepar_search::ModelPlan,
    label: &str,
) {
    assert_eq!(a.seqs, b.seqs, "{label}: seqs diverge");
    assert_eq!(
        a.layer_cost.to_bits(),
        b.layer_cost.to_bits(),
        "{label}: layer_cost diverges"
    );
    assert_eq!(
        a.total_cost.to_bits(),
        b.total_cost.to_bits(),
        "{label}: total_cost diverges"
    );
}

#[test]
fn warm_plans_are_bitwise_identical_to_cold() {
    let cluster = Cluster::v100_like(8);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let warm = PlannerWarmCache::new();
    for threads in [0usize, 4] {
        let opts = PlannerOptions::default().with_threads(threads);
        let planner = Planner::new(&cluster, &graph, opts);
        let cold = planner.optimize(4);
        // First warm run: nothing interned yet — every unique matrix misses.
        let (first, first_tm) = planner.optimize_warm_instrumented(4, &warm);
        // Second warm run: every unique matrix must now hit.
        let (second, second_tm) = planner.optimize_warm_instrumented(4, &warm);
        assert_bitwise_equal(&cold, &first, "cold vs first warm");
        assert_bitwise_equal(&cold, &second, "cold vs repeat warm");
        if threads == 0 {
            assert_eq!(first_tm.warm_matrix_hits, 0);
            assert!(first_tm.warm_matrix_misses > 0);
            assert_eq!(second_tm.warm_matrix_misses, 0);
            assert_eq!(second_tm.warm_matrix_hits, first_tm.warm_matrix_misses);
            // Warm hits skip PreparedEdge::matrix entirely, so the Eq. 8-9
            // evaluation counter collapses on the repeat run.
            assert_eq!(second_tm.edge_evaluations, 0);
        } else {
            // threads=4 re-enters an already-warmed scope: all hits again.
            assert_eq!(second_tm.warm_matrix_misses, 0);
        }
    }
    assert!(warm.stats().entries > 0);
    assert!(warm.stats().hits > 0);
}

#[test]
fn aliased_jobs_hit_on_the_second_warm_run() {
    // On the Table-2 layer several matrix jobs share one sweep (their edges
    // read the same profiles). The first warm run computes each sweep once
    // and interns the plane under every job's key; the second run hits on
    // every job, aliases included, and sweeps nothing.
    let cluster = Cluster::v100_like(16);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
    let planner = Planner::new(&cluster, &graph, PlannerOptions::default());
    let cold = planner.optimize(2);
    let warm = PlannerWarmCache::new();
    let (first, first_tm) = planner.optimize_warm_instrumented(2, &warm);
    let (second, second_tm) = planner.optimize_warm_instrumented(2, &warm);
    assert_bitwise_equal(&cold, &first, "cold vs first warm");
    assert_bitwise_equal(&cold, &second, "cold vs repeat warm");
    assert!(first_tm.edge_matrix_aliases > 0);
    assert_eq!(
        first_tm.warm_matrix_misses,
        first_tm.edge_matrix_cache_misses
    );
    assert_eq!(
        warm.stats().entries as u64,
        first_tm.edge_matrix_cache_misses
    );
    assert_eq!(second_tm.edge_matrix_aliases, first_tm.edge_matrix_aliases);
    assert_eq!(second_tm.warm_matrix_misses, 0);
    assert_eq!(
        second_tm.warm_matrix_hits,
        first_tm.edge_matrix_cache_misses
    );
    assert_eq!(second_tm.edge_evaluations, 0);
}

#[test]
fn cold_path_reports_no_warm_traffic() {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let (_, tm) =
        Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(1);
    assert_eq!(tm.warm_matrix_hits, 0);
    assert_eq!(tm.warm_matrix_misses, 0);
}

#[test]
fn scopes_partition_the_cache() {
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let warm = PlannerWarmCache::new();
    let c4 = Cluster::v100_like(4);
    Planner::new(&c4, &graph, PlannerOptions::default()).optimize_warm(1, &warm);
    let after_first = warm.stats().entries;
    assert!(after_first > 0);

    // A different α must not reuse the α=0 matrices (costs embed α).
    let alpha_opts = PlannerOptions::default().with_alpha(1e-12);
    let (_, tm) = Planner::new(&c4, &graph, alpha_opts).optimize_warm_instrumented(1, &warm);
    assert_eq!(tm.warm_matrix_hits, 0, "alpha change must change scope");
    assert!(warm.stats().entries > after_first);

    // A different cluster size likewise.
    let c8 = Cluster::v100_like(8);
    let (_, tm) =
        Planner::new(&c8, &graph, PlannerOptions::default()).optimize_warm_instrumented(1, &warm);
    assert_eq!(tm.warm_matrix_hits, 0, "cluster change must change scope");

    // A restricted space changes the enumeration, hence the scope.
    let conventional = PlannerOptions::default().with_space(SpaceOptions {
        allow_temporal: false,
        ..SpaceOptions::default()
    });
    let (_, tm) = Planner::new(&c4, &graph, conventional).optimize_warm_instrumented(1, &warm);
    assert_eq!(tm.warm_matrix_hits, 0, "space change must change scope");
}
