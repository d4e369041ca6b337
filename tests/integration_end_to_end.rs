//! Integration: the full pipeline — model zoo → graph → search → simulate →
//! functional execution — in one flow, plus the 3D-parallelism composition.

use primepar::exec::{train_distributed, train_serial};
use primepar::graph::ModelConfig;
use primepar::partition::{PartitionSeq, Primitive};
use primepar::search::{megatron_layer_plan, Planner, PlannerOptions, SpaceOptions};
use primepar::sim::{simulate_3d, simulate_model, ThreeDConfig};
use primepar::tensor::Tensor;
use primepar::topology::Cluster;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn plan_simulate_and_train_functionally() {
    let model = ModelConfig::opt_6_7b();
    let cluster = Cluster::v100_like(4);
    let graph = model.layer_graph(8, 512);
    let plan = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(2);
    let report = simulate_model(&cluster, &graph, &plan.seqs, 2, 8.0 * 512.0);
    assert!(report.tokens_per_second > 0.0);

    // Execute the planner's fc1/fc2 choices in a real (scaled-down) MLP
    // training loop and compare against serial SGD.
    let fc1_seq = plan.seqs[9].clone();
    let fc2_seq = plan.seqs[11].clone();
    let mut rng = StdRng::seed_from_u64(7);
    let input = Tensor::randn(vec![4, 8, 16], 1.0, &mut rng);
    let target = Tensor::randn(vec![4, 8, 16], 1.0, &mut rng);
    let w1 = Tensor::randn(vec![16, 16], 0.4, &mut rng);
    let w2 = Tensor::randn(vec![16, 16], 0.4, &mut rng);
    let serial = train_serial(&input, &target, &w1, &w2, 0.05, 6).unwrap();
    let dist = train_distributed(&input, &target, &w1, &w2, 0.05, 6, fc1_seq, fc2_seq).unwrap();
    for (a, b) in serial.losses.iter().zip(&dist.losses) {
        assert!(
            (a - b).abs() < 1e-3 * (1.0 + a.abs()),
            "loss diverged: {a} vs {b}"
        );
    }
}

#[test]
fn three_d_parallelism_composes_with_both_planners() {
    let model = ModelConfig {
        layers: 8,
        ..ModelConfig::opt_6_7b()
    };
    let graph = model.layer_graph(4, 512);
    let cfg = ThreeDConfig {
        p: 2,
        d: 1,
        m: 2,
        micro_batches: 4,
    };

    let mega_plan = megatron_layer_plan(&graph, 1, 2);
    let mega = simulate_3d(&model, &mega_plan, cfg, 8, 512);

    let cluster_m = Cluster::v100_like(2);
    let opts = PlannerOptions::default()
        .with_space(SpaceOptions {
            allow_batch_split: false,
            ..SpaceOptions::default()
        })
        .with_alpha(0.0);
    let prime_plan = Planner::new(&cluster_m, &graph, opts).optimize(model.layers);
    let prime = simulate_3d(&model, &prime_plan.seqs, cfg, 8, 512);

    assert!(mega.tokens_per_second > 0.0);
    assert!(
        prime.tokens_per_second >= mega.tokens_per_second * 0.999,
        "3D PrimePar {} vs Megatron {}",
        prime.tokens_per_second,
        mega.tokens_per_second
    );
}

#[test]
fn controlled_batch_mode_excludes_batch_splits() {
    let model = ModelConfig::llama2_7b();
    let cluster = Cluster::v100_like(4);
    let graph = model.layer_graph(8, 512);
    let opts = PlannerOptions::default()
        .with_space(SpaceOptions {
            allow_batch_split: false,
            ..SpaceOptions::default()
        })
        .with_alpha(0.0);
    let plan = Planner::new(&cluster, &graph, opts).optimize(1);
    for (op, seq) in graph.ops.iter().zip(&plan.seqs) {
        if op.sample_batch_dim() == primepar::partition::Dim::B {
            assert!(
                !seq.primitives()
                    .contains(&Primitive::Split(primepar::partition::Dim::B)),
                "{}: batch split leaked into controlled-d plan ({seq})",
                op.name
            );
        }
    }
}

#[test]
fn torus_cluster_supports_the_full_flow() {
    // §7's discussion: the torus favours ring communication; the flow must
    // run end to end there too.
    let model = ModelConfig::opt_6_7b();
    let cluster = Cluster::torus_like(4);
    let graph = model.layer_graph(8, 512);
    let plan = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(1);
    let report = simulate_model(&cluster, &graph, &plan.seqs, 1, 8.0 * 512.0);
    assert!(report.tokens_per_second > 0.0);
    let temporal_ops = plan
        .seqs
        .iter()
        .filter(|s| s.temporal_k().is_some())
        .count();
    // On a torus the collective-free strategies should be attractive.
    assert!(
        temporal_ops > 0,
        "expected temporal primitives on the torus: {:?}",
        plan.seqs
            .iter()
            .map(PartitionSeq::to_string)
            .collect::<Vec<_>>()
    );
}
