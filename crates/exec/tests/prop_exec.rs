//! Property-based tests: *any* valid partition sequence executed by the
//! functional executor reproduces serial training exactly, for random
//! shapes and random data.

use proptest::prelude::*;

use primepar_exec::{bmm_reference, reference, DistLinear, LinearShape};
use primepar_partition::{Dim, PartitionSeq, Primitive};
use primepar_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random sequences of up to 3 bits (8 devices) with an optional `P_{2×2}`.
fn arb_seq() -> impl Strategy<Value = PartitionSeq> {
    let split = prop_oneof![
        Just(Primitive::Split(Dim::B)),
        Just(Primitive::Split(Dim::M)),
        Just(Primitive::Split(Dim::N)),
        Just(Primitive::Split(Dim::K)),
    ];
    (
        proptest::collection::vec(split, 0..3),
        proptest::option::of(0usize..3),
    )
        .prop_map(|(mut splits, temporal_pos)| {
            if let Some(pos) = temporal_pos {
                let pos = pos.min(splits.len());
                splits.insert(pos, Primitive::Temporal { k: 1 });
            }
            PartitionSeq::new(splits).expect("single temporal")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Distributed F/B/G + SGD equals serial for random sequences, shapes
    /// and data — for a linear (`W[N, K]`), and for a batched matmul
    /// (`W[B, N, K]`, split-only sequences) against the batched oracle.
    #[test]
    fn any_partition_trains_exactly(
        seq in arb_seq(),
        seed in 0u64..1000,
        mshift in 0usize..2,
        batched in prop_oneof![Just(false), Just(true)],
    ) {
        // Extents divisible by any slice count reachable at <=5 bits.
        let shape = LinearShape { b: 8, m: 8 << mshift, n: 32, k: 32 };
        let w_dims = if batched {
            vec![shape.b, shape.n, shape.k]
        } else {
            vec![shape.n, shape.k]
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let i = Tensor::randn(vec![shape.b, shape.m, shape.n], 1.0, &mut rng);
        let w = Tensor::randn(w_dims, 1.0, &mut rng);
        let d_o = Tensor::randn(vec![shape.b, shape.m, shape.k], 1.0, &mut rng);
        let (seq, mut dist, (o_r, d_i_r, d_w_r, w_r)) = if batched {
            let splits = seq.primitives().iter().copied();
            let seq = PartitionSeq::new(splits.filter(|p| matches!(p, Primitive::Split(_))).collect())
                .expect("split-only");
            let dist = DistLinear::batched(seq.clone(), shape).expect("divisible");
            let d_w = bmm_reference::gradient(&i, &d_o).expect("serial");
            let serial = (
                bmm_reference::forward(&i, &w).expect("serial"),
                bmm_reference::backward(&d_o, &w).expect("serial"),
                d_w.clone(),
                w.sub(&d_w.scale(0.01)).expect("serial"),
            );
            (seq, dist, serial)
        } else {
            let dist = DistLinear::new(seq.clone(), shape).expect("divisible");
            (seq, dist, reference::train_step(&i, &w, &d_o, 0.01).expect("serial"))
        };
        let (o, d_i, d_w, w_new) = dist.train_step(&i, &w, &d_o, 0.01).expect("dist step");
        prop_assert!(o.allclose(&o_r, 2e-3), "{}: O diff {}", seq, o.max_abs_diff(&o_r));
        prop_assert!(d_i.allclose(&d_i_r, 2e-3), "{}: dI diff {}", seq, d_i.max_abs_diff(&d_i_r));
        prop_assert!(d_w.allclose(&d_w_r, 2e-3), "{}: dW diff {}", seq, d_w.max_abs_diff(&d_w_r));
        prop_assert!(w_new.allclose(&w_r, 2e-3), "{}: W diff {}", seq, w_new.max_abs_diff(&w_r));
    }

    /// Two consecutive iterations stay aligned: feature 3's weight cycle
    /// means the executor can run back-to-back steps without redistribution.
    #[test]
    fn consecutive_iterations_stay_aligned(seed in 0u64..200) {
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).expect("valid");
        let shape = LinearShape { b: 4, m: 8, n: 16, k: 16 };
        let mut rng = StdRng::seed_from_u64(seed);
        let i1 = Tensor::randn(vec![4, 8, 16], 1.0, &mut rng);
        let i2 = Tensor::randn(vec![4, 8, 16], 1.0, &mut rng);
        let w0 = Tensor::randn(vec![16, 16], 1.0, &mut rng);
        let g1 = Tensor::randn(vec![4, 8, 16], 1.0, &mut rng);
        let g2 = Tensor::randn(vec![4, 8, 16], 1.0, &mut rng);

        let mut dist = DistLinear::new(seq, shape).expect("divisible");
        let (_, _, _, w1) = dist.train_step(&i1, &w0, &g1, 0.05).expect("step 1");
        let (_, _, _, w2) = dist.train_step(&i2, &w1, &g2, 0.05).expect("step 2");

        let (_, _, _, w1_ref) = reference::train_step(&i1, &w0, &g1, 0.05).expect("ref 1");
        let (_, _, _, w2_ref) = reference::train_step(&i2, &w1_ref, &g2, 0.05).expect("ref 2");
        prop_assert!(w2.allclose(&w2_ref, 2e-3), "diff {}", w2.max_abs_diff(&w2_ref));
    }

    /// lr = 0 leaves weights untouched under any partition (update locality).
    #[test]
    fn zero_learning_rate_is_identity(seq in arb_seq(), seed in 0u64..200) {
        let shape = LinearShape { b: 8, m: 8, n: 16, k: 16 };
        let mut rng = StdRng::seed_from_u64(seed);
        let i = Tensor::randn(vec![8, 8, 16], 1.0, &mut rng);
        let w = Tensor::randn(vec![16, 16], 1.0, &mut rng);
        let d_o = Tensor::randn(vec![8, 8, 16], 1.0, &mut rng);
        let mut dist = DistLinear::new(seq.clone(), shape).expect("divisible");
        let (_, _, _, w_new) = dist.train_step(&i, &w, &d_o, 0.0).expect("step");
        prop_assert!(w_new.allclose(&w, 0.0), "{}: weights drifted", seq);
    }
}
