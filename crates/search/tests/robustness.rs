//! Re-ranking finished plans under seeded fault & variance sweeps
//! ([`primepar_sim::robustness_sweep`]): the planner optimizes the
//! ideal-hardware cost (Eq. 7); these tests ask how its plans hold up when
//! the hardware misbehaves.

use primepar_graph::ModelConfig;
use primepar_search::{megatron_layer_plan, Planner, PlannerOptions};
use primepar_sim::{robustness_sweep, RobustnessOptions};
use primepar_topology::{Cluster, PerturbationModel};

#[test]
fn score_is_deterministic_and_bounded_below_by_ideal() {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let plan = megatron_layer_plan(&graph, 1, 4);
    let opts = RobustnessOptions {
        scenarios: 5,
        ..RobustnessOptions::default()
    };
    let a = robustness_sweep(&cluster, &graph, &plan, &opts);
    let b = robustness_sweep(&cluster, &graph, &plan, &opts);
    assert_eq!(a, b);
    assert!(a.p95_makespan >= a.ideal_makespan * (1.0 - 1e-9));
    assert!(a.mean_slowdown >= 1.0 - 1e-9);
}

/// The ranking check on the Fig. 9 workload (OPT-175B MLP block on 8 GPUs):
/// on ideal hardware the planner's `P_{2^k×2^k}`-bearing plan beats
/// Megatron, but under the mild and harsh variance models the p95 ranking
/// **flips** — a Cannon-style ring shifts the full shard over the group's
/// worst link on *every* temporal step, so a single severely degraded NIC
/// taxes the temporal plan repeatedly, while Megatron's all-reduces pay the
/// degraded member once per phase on `bytes/g`-sized chunks. The flip is
/// seed-independent (checked across three base seeds per model); see
/// DESIGN.md §9.
#[test]
fn perturbation_flips_the_fig9_ranking() {
    let cluster = Cluster::v100_like(8);
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    let mega = megatron_layer_plan(&graph, 1, 8);
    let prime = Planner::new(&cluster, &graph, PlannerOptions::default())
        .optimize(1)
        .seqs;
    assert!(
        prime.iter().any(|s| s.temporal_k().is_some()),
        "the PrimePar plan must carry a temporal primitive for this study"
    );
    for model in [PerturbationModel::mild(), PerturbationModel::harsh()] {
        for seed in [42u64, 7, 1234] {
            let opts = RobustnessOptions {
                model,
                scenarios: 8,
                base_seed: seed,
                ..RobustnessOptions::default()
            };
            let mega_sweep = robustness_sweep(&cluster, &graph, &mega, &opts);
            let prime_sweep = robustness_sweep(&cluster, &graph, &prime, &opts);
            assert!(
                prime_sweep.ideal_makespan < mega_sweep.ideal_makespan,
                "ideal ranking must favor the PrimePar plan"
            );
            assert!(
                prime_sweep.p95_makespan > mega_sweep.p95_makespan,
                "expected the perturbed ranking to flip: prime p95 {} vs mega p95 {} (seed {seed})",
                prime_sweep.p95_makespan,
                mega_sweep.p95_makespan
            );
        }
    }
}
