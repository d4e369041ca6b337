//! Batched matmuls — the attention score and value multiplications, where
//! both operands are activations carrying the batch dimension. They run on
//! [`DistLinear::batched`](crate::DistLinear::batched), the `weight_has_batch`
//! variant of the DSI semantics: a batch split partitions (rather than
//! partial-sums) the second operand's gradient, so no gradient all-reduce
//! crosses batch splits (paper §3.2, attention matmuls; head-embed stays
//! unpartitioned, so the temporal primitive does not apply here). This
//! module holds their serial oracle.

/// Serial reference for the batched matmul's three phases.
pub mod reference {
    use crate::Result;
    use primepar_tensor::Tensor;

    /// Forward: `O[b] = I[b] · W[b]`.
    ///
    /// # Errors
    ///
    /// Returns an error on incompatible shapes.
    pub fn forward(i: &Tensor, w: &Tensor) -> Result<Tensor> {
        Ok(i.batched_matmul(w, false, false)?)
    }

    /// Backward: `dI[b] = dO[b] · W[b]ᵀ`.
    ///
    /// # Errors
    ///
    /// Returns an error on incompatible shapes.
    pub fn backward(d_o: &Tensor, w: &Tensor) -> Result<Tensor> {
        Ok(d_o.batched_matmul(w, false, true)?)
    }

    /// Gradient of the second operand: `dW[b] = I[b]ᵀ · dO[b]` (sums over M
    /// only — the batch dimension survives).
    ///
    /// # Errors
    ///
    /// Returns an error on incompatible shapes.
    pub fn gradient(i: &Tensor, d_o: &Tensor) -> Result<Tensor> {
        Ok(i.batched_matmul(d_o, true, false)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistLinear, ExecError, LinearShape};
    use primepar_partition::{Dim, PartitionSeq, Phase, Primitive};
    use primepar_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SHAPE: LinearShape = LinearShape {
        b: 4,
        m: 8,
        n: 8,
        k: 8,
    };

    fn fixtures(seed: u64) -> (Tensor, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let i = Tensor::randn(vec![SHAPE.b, SHAPE.m, SHAPE.n], 1.0, &mut rng);
        let w = Tensor::randn(vec![SHAPE.b, SHAPE.n, SHAPE.k], 1.0, &mut rng);
        let d_o = Tensor::randn(vec![SHAPE.b, SHAPE.m, SHAPE.k], 1.0, &mut rng);
        (i, w, d_o)
    }

    fn check(prims: Vec<Primitive>) {
        let seq = PartitionSeq::new(prims).unwrap();
        let label = seq.to_string();
        let (i, w, d_o) = fixtures(11);
        let mut dist = DistLinear::batched(seq, SHAPE).unwrap();
        dist.scatter(&i, &w).unwrap();
        let o = dist.forward().unwrap();
        let d_i = dist.backward(&d_o).unwrap();
        let d_w = dist.gradient().unwrap();
        assert!(
            o.allclose(&reference::forward(&i, &w).unwrap(), 1e-3),
            "{label}: O"
        );
        assert!(
            d_i.allclose(&reference::backward(&d_o, &w).unwrap(), 1e-3),
            "{label}: dI"
        );
        assert!(
            d_w.allclose(&reference::gradient(&i, &d_o).unwrap(), 1e-3),
            "{label}: dW"
        );
    }

    #[test]
    fn head_split_matches_reference() {
        check(vec![Primitive::Split(Dim::B)]);
        check(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::B)]);
    }

    #[test]
    fn row_and_contraction_splits_match_reference() {
        check(vec![Primitive::Split(Dim::M)]);
        check(vec![Primitive::Split(Dim::N)]);
        check(vec![Primitive::Split(Dim::K)]);
    }

    #[test]
    fn mixed_splits_match_reference() {
        check(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::M)]);
        check(vec![Primitive::Split(Dim::M), Primitive::Split(Dim::N)]);
        check(vec![
            Primitive::Split(Dim::B),
            Primitive::Split(Dim::K),
            Primitive::Split(Dim::M),
        ]);
    }

    #[test]
    fn batch_split_needs_no_gradient_allreduce() {
        // The point of weight_has_batch: dW keeps B, so B splits partition it.
        let seq = PartitionSeq::new(vec![Primitive::Split(Dim::B)]).unwrap();
        assert!(seq.allreduce_indicator(Phase::Gradient, true).is_empty());
        // M splits do need it (dW sums over M).
        let seq = PartitionSeq::new(vec![Primitive::Split(Dim::M)]).unwrap();
        assert!(!seq.allreduce_indicator(Phase::Gradient, true).is_empty());
    }

    #[test]
    fn temporal_is_rejected() {
        let temporal = Primitive::Temporal { k: 1 };
        let seq = PartitionSeq::new(vec![Primitive::Split(Dim::B), temporal]).unwrap();
        let err = DistLinear::batched(seq, SHAPE).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnsupportedPrimitive {
                operator: "batched matmul",
                primitive: temporal,
            }
        );
        assert_eq!(
            err.to_string(),
            "the batched matmul executor cannot take the temporal primitive P2x2"
        );
        // The same sequence is a valid linear partition.
        let seq = PartitionSeq::new(vec![Primitive::Split(Dim::B), temporal]).unwrap();
        assert!(DistLinear::new(seq, SHAPE).is_ok());
    }

    #[test]
    fn indivisible_shape_rejected() {
        let seq =
            PartitionSeq::new(vec![Primitive::Split(Dim::M), Primitive::Split(Dim::M)]).unwrap();
        let shape = LinearShape {
            b: 4,
            m: 6,
            n: 8,
            k: 8,
        };
        assert!(matches!(
            DistLinear::batched(seq, shape),
            Err(ExecError::Indivisible { dim: Dim::M, .. })
        ));
    }
}
