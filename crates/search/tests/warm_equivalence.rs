//! Planning against a cross-run [`PlannerWarmCache`] is bitwise-identical to
//! the cold path, warm repeats actually hit, and the cache is keyed by layout
//! alone: another `α` or a perturbed cluster of the same size reuses every
//! volume plane, while another device count or space misses.

use std::sync::Barrier;
use std::thread;

use primepar_graph::{Graph, ModelConfig};
use primepar_search::{
    ModelPlan, Planner, PlannerMetrics, PlannerOptions, PlannerWarmCache, SearchStrategy,
    SpaceOptions,
};
use primepar_topology::{AppliedPerturbation, Cluster, PerturbationModel};

fn assert_bitwise_equal(a: &ModelPlan, b: &ModelPlan, label: &str) {
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

/// `v100_like(devices)` under harsh scenario `seed`.
fn harsh(devices: usize, seed: u64) -> Cluster {
    let applied = AppliedPerturbation::draw(&PerturbationModel::harsh(), seed, devices);
    Cluster::v100_like(devices).with_perturbation(applied)
}

/// Plans cold and against `warm`, asserts the two plans bitwise equal and
/// returns the warm run's metrics.
fn warm_matches_cold(
    cluster: &Cluster,
    graph: &Graph,
    opts: PlannerOptions,
    warm: &PlannerWarmCache,
    label: &str,
) -> PlannerMetrics {
    let planner = Planner::new(cluster, graph, opts);
    let cold = planner.optimize(4);
    let (plan, tm) = planner.optimize_warm_instrumented(4, warm);
    assert_bitwise_equal(&cold, &plan, label);
    tm
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
        // First warm run: nothing interned yet — every plane misses.
        let (first, first_tm) = planner.optimize_warm_instrumented(4, &warm);
        // Second warm run: every plane must now hit.
        let (second, second_tm) = planner.optimize_warm_instrumented(4, &warm);
        assert_bitwise_equal(&cold, &first, "cold vs first warm");
        assert_bitwise_equal(&cold, &second, "cold vs repeat warm");
        if threads == 0 {
            assert_eq!(first_tm.warm_matrix_hits, 0);
            assert!(first_tm.warm_matrix_misses > 0);
            assert_eq!(second_tm.warm_matrix_misses, 0);
            assert_eq!(second_tm.warm_matrix_hits, first_tm.warm_matrix_misses);
            // Warm hits skip the sweep entirely, so the Eq. 8-9 evaluation
            // counter collapses on the repeat run.
            assert_eq!(second_tm.edge_evaluations, 0);
        } else {
            // threads=4 re-reads an already-warmed layout: all hits again.
            assert_eq!(second_tm.warm_matrix_misses, 0);
        }
    }
    assert!(warm.stats().entries > 0);
    assert!(warm.stats().hits > 0);
}

#[test]
fn aliased_jobs_hit_on_the_second_warm_run() {
    // On the Table-2 layer several matrix jobs share one volume plane
    // (their edges read the same profiles). The warm cache holds one entry
    // per distinct plane, not per job: the first warm run sweeps each plane
    // once, and the second hits every plane and sweeps nothing.
    let cluster = Cluster::v100_like(16);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
    let planner = Planner::new(&cluster, &graph, PlannerOptions::default());
    let cold = planner.optimize(2);
    let warm = PlannerWarmCache::new();
    let (first, first_tm) = planner.optimize_warm_instrumented(2, &warm);
    let (second, second_tm) = planner.optimize_warm_instrumented(2, &warm);
    assert_bitwise_equal(&cold, &first, "cold vs first warm");
    assert_bitwise_equal(&cold, &second, "cold vs repeat warm");
    // 14 matrix jobs, 4 of them aliases: 10 distinct planes.
    assert_eq!(first_tm.edge_matrix_cache_misses, 14);
    assert_eq!(first_tm.edge_matrix_aliases, 4);
    let planes = first_tm.edge_matrix_cache_misses - first_tm.edge_matrix_aliases;
    assert_eq!(
        (first_tm.warm_matrix_hits, first_tm.warm_matrix_misses),
        (0, planes)
    );
    assert_eq!(warm.stats().entries as u64, planes);
    assert_eq!(second_tm.edge_matrix_aliases, first_tm.edge_matrix_aliases);
    assert_eq!(
        (second_tm.warm_matrix_hits, second_tm.warm_matrix_misses),
        (planes, 0)
    );
    assert_eq!(second_tm.edge_evaluations, 0);
    assert_eq!(warm.stats().entries as u64, planes);
}

#[test]
fn beam_runs_count_each_plane_once() {
    // A beam pass reads some planes twice: a probe another probe of the
    // same pass already swept, or a stage-2 plane a probe swept. Each
    // distinct plane counts once per run, as a hit only when an earlier run
    // swept it, so a fresh cache's first run is all misses, one per entry.
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let opts = PlannerOptions::default().with_strategy(SearchStrategy::Beam { width: 8 });
    for devices in [4, 8] {
        let cluster = Cluster::v100_like(devices);
        let warm = PlannerWarmCache::new();
        let first = warm_matches_cold(&cluster, &graph, opts, &warm, "first beam run");
        assert_eq!(first.warm_matrix_hits, 0, "{devices} devices");
        assert_eq!(
            first.warm_matrix_misses,
            warm.stats().entries as u64,
            "{devices} devices"
        );
        let second = warm_matches_cold(&cluster, &graph, opts, &warm, "repeat beam run");
        assert_eq!(second.warm_matrix_misses, 0, "{devices} devices");
        assert_eq!(
            second.warm_matrix_hits, first.warm_matrix_misses,
            "{devices} devices"
        );
    }
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
fn layouts_partition_the_cache() {
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let warm = PlannerWarmCache::new();
    let c4 = Cluster::v100_like(4);
    let first = warm_matches_cold(&c4, &graph, PlannerOptions::default(), &warm, "first");
    let entries = warm.stats().entries;
    assert!(entries > 0);
    assert_eq!(first.warm_matrix_misses, entries as u64);

    // Neither α nor the cluster's links reach a volume: a different α and a
    // perturbed cluster of the same size both read every plane as it is.
    let alpha = PlannerOptions::default().with_alpha(1e-12);
    let perturbed = harsh(4, 3);
    for (cluster, opts, label) in [
        (&c4, alpha, "alpha change"),
        (&perturbed, PlannerOptions::default(), "perturbed cluster"),
    ] {
        let tm = warm_matches_cold(cluster, &graph, opts, &warm, label);
        assert_eq!(tm.warm_matrix_misses, 0, "{label}");
        assert_eq!(tm.warm_matrix_hits, first.warm_matrix_misses, "{label}");
        assert_eq!(warm.stats().entries, entries, "{label}");
    }

    // Another device count is another set of sequence lists: all misses.
    let c8 = Cluster::v100_like(8);
    let tm = warm_matches_cold(&c8, &graph, PlannerOptions::default(), &warm, "8 devices");
    assert_eq!(
        tm.warm_matrix_hits, 0,
        "device count must change the layouts"
    );
    assert!(warm.stats().entries > entries);

    // A restricted space is another enumeration: whatever it shares with
    // the full space, its plan stays the cold one.
    let conventional = PlannerOptions::default().with_space(SpaceOptions {
        allow_temporal: false,
        ..SpaceOptions::default()
    });
    let tm = warm_matches_cold(&c4, &graph, conventional, &warm, "conventional space");
    assert!(
        tm.warm_matrix_misses > 0,
        "space change must change the layouts"
    );
}

#[test]
fn perturbed_scenarios_share_one_warm_cache() {
    // Eight harsh scenarios on one 8-device shape, planned twice over
    // through one warm cache per strategy; every plan is the cold one bit
    // for bit. Volumes carry no cluster, so once a layout has been planned,
    // every plane, profile and direction of it comes from the cache. Under
    // the exact sweep every scenario plans the same full spaces, so that
    // holds from the second scenario on. A beam keeps each node's best
    // states by cluster-priced probes, so a scenario whose kept sets (or
    // anchors) no earlier scenario produced adds their layouts; from the
    // second round on, every beam scenario is warm too.
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    for strategy in [SearchStrategy::Exact, SearchStrategy::Beam { width: 8 }] {
        let opts = PlannerOptions::default().with_strategy(strategy);
        let warm = PlannerWarmCache::new();
        let mut entries = None;
        for (round, seed) in [1, 2]
            .into_iter()
            .flat_map(|r| (1..=8).map(move |s| (r, s)))
        {
            let cluster = harsh(8, seed);
            let label = format!("{strategy} round {round} seed {seed}");
            let tm = warm_matches_cold(&cluster, &graph, opts, &warm, &label);
            let now = warm.stats().entries;
            if round == 1 && seed == 1 {
                assert!(tm.warm_matrix_misses > 0, "{label}");
            }
            let warmed = strategy == SearchStrategy::Exact || round == 2;
            if seed == 1 && warmed {
                entries = Some(now);
            } else if let Some(first) = entries {
                assert_eq!(tm.warm_matrix_misses, 0, "{label}");
                assert!(tm.warm_matrix_hits > 0, "{label}");
                assert_eq!(tm.profile_cache_misses, 0, "{label}");
                assert_eq!(tm.edge_evaluations, 0, "{label}");
                assert_eq!(now, first, "{label}: entries must stay constant");
            }
        }
        assert!(entries.is_some(), "{strategy}");
    }
}

#[test]
fn concurrent_runs_on_different_clusters_share_one_warm_cache() {
    // Two threads plan two different perturbed clusters of one size against
    // one warm cache at once (a barrier starts them together): the lock is
    // never held across a sweep, a plane sweeps once whoever reads it first,
    // and each thread prices the shared volumes on its own cluster — both
    // get their cold bits, on the round that fills the cache and after.
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let clusters = [harsh(8, 11), harsh(8, 12)];
    let cold: Vec<ModelPlan> = clusters
        .iter()
        .map(|c| Planner::new(c, &graph, PlannerOptions::default()).optimize(4))
        .collect();
    let warm = PlannerWarmCache::new();
    let start = Barrier::new(clusters.len());
    for _ in 0..3 {
        let plans: Vec<ModelPlan> = thread::scope(|scope| {
            let handles: Vec<_> = clusters
                .iter()
                .map(|c| {
                    let (graph, warm, start) = (&graph, &warm, &start);
                    scope.spawn(move || {
                        let planner = Planner::new(c, graph, PlannerOptions::default());
                        start.wait();
                        planner.optimize_warm_instrumented(4, warm).0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (cold, warm)) in cold.iter().zip(&plans).enumerate() {
            assert_bitwise_equal(cold, warm, &format!("thread {i}"));
        }
    }
    assert!(warm.stats().hits > 0);
}
