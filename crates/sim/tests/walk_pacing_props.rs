//! Bottleneck pacing on perturbed clusters, over random scenarios (drawn,
//! single-straggler, link-only and dead-device) and random plans:
//! `AppliedPerturbation::slowest_device` is the last device with the
//! scenario's largest compute factor, and the walk's layer time is unchanged,
//! bit for bit, when every device's compute factor is raised to that largest
//! one. The cluster runs at its slowest device's pace and every ring step,
//! collective and redistribution synchronizes the devices, so a clock per
//! device would end where the walk ends, on the slowest device.

use proptest::prelude::*;

use primepar_graph::ModelConfig;
use primepar_partition::PartitionSeq;
use primepar_search::{operator_space, SpaceOptions};
use primepar_sim::simulate_layer;
use primepar_topology::{AppliedPerturbation, Cluster, PerturbationModel};

/// One scenario over `n` devices of kind `kind`, from `seed`.
fn scenario(kind: usize, seed: u64, n: usize) -> AppliedPerturbation {
    match kind {
        0 => AppliedPerturbation::draw(&PerturbationModel::mild(), seed, n),
        1 => AppliedPerturbation::draw(&PerturbationModel::harsh(), seed, n),
        2 => {
            // One straggler, every other device ideal.
            let mut s = AppliedPerturbation::ideal(n);
            s.compute_factors[seed as usize % n] = 1.0 + (seed % 97) as f64 / 64.0;
            s
        }
        3 => {
            // Links degraded, compute untouched.
            let links = PerturbationModel {
                compute_jitter: 0.0,
                dead_device_prob: 0.0,
                ..PerturbationModel::harsh()
            };
            AppliedPerturbation::draw(&links, seed, n)
        }
        _ => {
            // Dead devices failing over to their buddies.
            let dying = PerturbationModel {
                dead_device_prob: 0.4,
                ..PerturbationModel::harsh()
            };
            AppliedPerturbation::draw(&dying, seed, n)
        }
    }
}

/// The last index of the largest compute factor.
fn last_argmax(factors: &[f64]) -> usize {
    let max = factors.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    factors
        .iter()
        .rposition(|&f| f == max)
        .expect("at least one device")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_walk_runs_at_the_slowest_devices_pace(
        model_ix in 0usize..6,
        bits in 2usize..5,
        kind in 0usize..5,
        seed in 0u64..1_000_000,
        picks in proptest::collection::vec(0u32..1_000_000, 16),
    ) {
        let n = 1usize << bits;
        let model = ModelConfig::all()[model_ix];
        let graph = model.layer_graph(8, 256);
        // A random state of every operator's space.
        let plan: Vec<PartitionSeq> = graph
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let space = operator_space(op, bits, &SpaceOptions::default());
                space[picks[i % picks.len()] as usize % space.len()].clone()
            })
            .collect();
        let applied = scenario(kind, seed, n);
        prop_assert_eq!(applied.slowest_device(), last_argmax(&applied.compute_factors));

        let mut paced = applied.clone();
        let max = paced.max_compute_factor();
        paced.compute_factors.iter_mut().for_each(|f| *f = max);
        let base = Cluster::v100_like(n);
        let walk = simulate_layer(&base.with_perturbation(applied), &graph, &plan);
        let uniform = simulate_layer(&base.with_perturbation(paced), &graph, &plan);
        prop_assert_eq!(
            walk.layer_time.to_bits(),
            uniform.layer_time.to_bits(),
            "walk {} vs every device at the slowest pace {}",
            walk.layer_time,
            uniform.layer_time
        );
    }
}
