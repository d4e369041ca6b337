//! Property-based tests of the device-space and cluster models.

use proptest::prelude::*;

use primepar_topology::{
    fit_linear, fit_linear2, Cluster, DeviceId, DeviceSpace, GroupIndicator, PerturbationModel,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any indicator partitions the device space into equal-sized disjoint
    /// groups covering every device.
    #[test]
    fn groups_partition_space(n_bits in 1usize..6, mask in 0usize..64) {
        let space = DeviceSpace::new(n_bits);
        let positions: Vec<usize> =
            (1..=n_bits).filter(|&p| mask & (1 << (p - 1)) != 0).collect();
        let ind = GroupIndicator::new(positions);
        let groups = space.groups(ind);
        let mut all: Vec<usize> = groups.iter().flatten().map(|d| d.index()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..space.num_devices()).collect::<Vec<_>>());
        for g in &groups {
            prop_assert_eq!(g.len(), ind.group_size());
        }
        prop_assert_eq!(groups.len() * ind.group_size(), space.num_devices());
    }

    /// `group_of` is consistent with `groups` for every device.
    #[test]
    fn group_of_matches_groups(n_bits in 1usize..5, mask in 0usize..32, dev in 0usize..32) {
        let space = DeviceSpace::new(n_bits);
        let dev = DeviceId(dev % space.num_devices());
        let positions: Vec<usize> =
            (1..=n_bits).filter(|&p| mask & (1 << (p - 1)) != 0).collect();
        let ind = GroupIndicator::new(positions);
        let own = space.group_of(ind, dev);
        prop_assert!(own.contains(&dev));
        let groups = space.groups(ind);
        let containing = groups.iter().find(|g| g.contains(&dev)).expect("covered");
        prop_assert_eq!(&own, containing);
    }

    /// Bits reconstruct the device index.
    #[test]
    fn bits_reconstruct_index(n_bits in 1usize..6, dev in 0usize..64) {
        let space = DeviceSpace::new(n_bits);
        let dev = dev % space.num_devices();
        let mut reconstructed = 0usize;
        for pos in 1..=n_bits {
            reconstructed = (reconstructed << 1) | space.bit(DeviceId(dev), pos);
        }
        prop_assert_eq!(reconstructed, dev);
    }

    /// All-reduce latency is monotone in bytes and group size.
    #[test]
    fn allreduce_monotonicity(bytes in 1.0e3f64..1.0e9) {
        let cluster = Cluster::v100_like(8);
        let small: Vec<DeviceId> = (0..2).map(DeviceId).collect();
        let large: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        prop_assert!(cluster.allreduce_time(bytes * 2.0, &small, 1)
            > cluster.allreduce_time(bytes, &small, 1));
        prop_assert!(cluster.allreduce_time(bytes, &large, 1)
            >= cluster.allreduce_time(bytes, &small, 1));
    }

    /// Linear regression recovers arbitrary lines exactly.
    #[test]
    fn fit_linear_recovers(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let xs: Vec<f64> = (0..8).map(|i| i as f64 * 3.0 + 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| a + b * x).collect();
        let m = fit_linear(&xs, &ys);
        prop_assert!((m.intercept - a).abs() < 1e-6 * (1.0 + a.abs()));
        prop_assert!((m.slope - b).abs() < 1e-6 * (1.0 + b.abs()));
    }

    /// Two-variable regression recovers arbitrary planes exactly.
    #[test]
    fn fit_linear2_recovers(c0 in -5.0f64..5.0, c1 in -5.0f64..5.0, c2 in -5.0f64..5.0) {
        let x1: Vec<f64> = (0..9).map(|i| (i % 3) as f64 + 0.5).collect();
        let x2: Vec<f64> = (0..9).map(|i| (i / 3) as f64 * 2.0).collect();
        let ys: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| c0 + c1 * a + c2 * b).collect();
        let m = fit_linear2(&x1, &x2, &ys);
        prop_assert!((m.c0 - c0).abs() < 1e-6 * (1.0 + c0.abs()));
        prop_assert!((m.c1 - c1).abs() < 1e-6 * (1.0 + c1.abs()));
        prop_assert!((m.c2 - c2).abs() < 1e-6 * (1.0 + c2.abs()));
    }

    /// For arbitrary models and seeds, `Cluster::perturbed` preserves the
    /// topology shape and never produces non-positive throughput.
    #[test]
    fn perturbed_preserves_shape_and_throughput(
        n_bits in 1usize..6,
        seed in 0u64..1_000_000,
        compute_jitter in 0.0f64..2.0,
        link_class_jitter in 0.0f64..2.0,
        device_link_jitter in 0.0f64..2.0,
        degraded_link_prob in 0.0f64..1.0,
        degraded_link_factor in 1.0f64..32.0,
        dead_device_prob in 0.0f64..1.0,
    ) {
        let model = PerturbationModel {
            compute_jitter,
            link_class_jitter,
            device_link_jitter,
            degraded_link_prob,
            degraded_link_factor,
            dead_device_prob,
        };
        prop_assert!(model.validate().is_ok());
        let n = 1usize << n_bits;
        let base = Cluster::v100_like(n);
        let p = base.perturbed(&model, seed);
        // Topology shape is untouched.
        prop_assert_eq!(p.num_devices(), base.num_devices());
        prop_assert_eq!(p.devices_per_node(), base.devices_per_node());
        prop_assert_eq!(p.topology(), base.topology());
        prop_assert_eq!(p.space().num_devices(), base.space().num_devices());
        for d in 0..n {
            for e in 0..n {
                prop_assert_eq!(
                    p.link_class(DeviceId(d), DeviceId(e)),
                    base.link_class(DeviceId(d), DeviceId(e))
                );
            }
        }
        // Throughput stays strictly positive and finite everywhere.
        let dm = p.device_model();
        prop_assert!(dm.flops > 0.0 && dm.flops.is_finite());
        prop_assert!(dm.mem_bandwidth > 0.0 && dm.mem_bandwidth.is_finite());
        prop_assert!(dm.kernel_overhead_s >= 0.0 && dm.kernel_overhead_s.is_finite());
        for class in [
            primepar_topology::LinkClass::IntraNode,
            primepar_topology::LinkClass::InterNode,
        ] {
            let link = p.link(class);
            prop_assert!(link.bandwidth > 0.0 && link.bandwidth.is_finite());
            prop_assert!(link.latency_s >= 0.0 && link.latency_s.is_finite());
        }
        let group: Vec<DeviceId> = (0..n).map(DeviceId).collect();
        let t = p.allreduce_time(1e7, &group, 1);
        if n > 1 {
            prop_assert!(t > 0.0 && t.is_finite());
            prop_assert!(t >= base.allreduce_time(1e7, &group, 1), "never faster than ideal");
        }
        // Per-device factors are slowdowns, never speedups.
        let scenario = p.perturbation().expect("perturbed");
        for d in 0..n {
            prop_assert!(scenario.compute_factors[d] >= 1.0);
            prop_assert!(p.link_factor_of(DeviceId(d)) >= 1.0);
        }
    }

    /// Identical (model, seed) pairs yield bitwise-identical scenarios;
    /// perturbation composes deterministically with all timing functions.
    #[test]
    fn perturbed_is_deterministic(seed in 0u64..1_000_000, bytes in 1.0e3f64..1.0e9) {
        let base = Cluster::v100_like(8);
        let model = PerturbationModel::harsh();
        let a = base.perturbed(&model, seed);
        let b = base.perturbed(&model, seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.perturbation(), b.perturbation());
        let group: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        // Bitwise-equal timing answers, not merely approximately equal.
        prop_assert_eq!(a.allreduce_time(bytes, &group, 2), b.allreduce_time(bytes, &group, 2));
        prop_assert_eq!(a.ring_shift_time(bytes, &group, 1), b.ring_shift_time(bytes, &group, 1));
        prop_assert_eq!(
            a.p2p_time(bytes, DeviceId(1), DeviceId(6)),
            b.p2p_time(bytes, DeviceId(1), DeviceId(6))
        );
    }

    /// Torus clusters never pay inter-node penalties; hierarchical clusters
    /// of more than one node always have some spanning pair.
    #[test]
    fn topology_link_classes(n_bits in 3usize..6) {
        let n = 1usize << n_bits;
        let torus = Cluster::torus_like(n);
        let hier = Cluster::v100_like(n);
        let spanning: Vec<DeviceId> = vec![DeviceId(0), DeviceId(n - 1)];
        prop_assert!(torus.allreduce_time(1e7, &spanning, 4)
            <= hier.allreduce_time(1e7, &spanning, 4));
        prop_assert!(hier.group_spans_nodes(&spanning));
    }
}
