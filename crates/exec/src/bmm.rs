//! Functional executor for *batched* matmuls — the attention score and
//! value multiplications, where both operands are activations carrying the
//! batch dimension. Verifies the `weight_has_batch` variant of the DSI
//! semantics: a batch split partitions (rather than partial-sums) the second
//! operand's gradient, so no gradient all-reduce crosses batch splits
//! (paper §3.2, attention matmuls; head-embed stays unpartitioned, so the
//! temporal primitive does not apply here).

use std::collections::HashMap;
use std::ops::Range;

use primepar_partition::{Dim, PartitionSeq, Phase, TensorKind};
use primepar_tensor::Tensor;
use primepar_topology::{DeviceId, DeviceSpace};

use crate::{ExecError, Result};

/// Global extents of a batched matmul `O[B,M,K] = Σ_N I[B,M,N] · W[B,N,K]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BmmShape {
    /// Batch extent (e.g. heads, or batch × heads).
    pub b: usize,
    /// Row extent of the first operand.
    pub m: usize,
    /// Contraction extent.
    pub n: usize,
    /// Column extent of the second operand.
    pub k: usize,
}

impl BmmShape {
    /// The extent of a logical dimension.
    pub fn extent(&self, dim: Dim) -> usize {
        match dim {
            Dim::B => self.b,
            Dim::M => self.m,
            Dim::N => self.n,
            Dim::K => self.k,
        }
    }
}

/// Serial reference for the batched matmul's three phases.
pub mod reference {
    use super::Result;
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

#[derive(Debug, Clone)]
struct Block {
    dsi: Vec<usize>,
    data: Tensor,
}

/// Functional multi-device executor for one batched matmul under a
/// split-only partition sequence.
///
/// # Example
///
/// ```
/// use primepar_exec::{BmmShape, DistBmm};
/// use primepar_exec::bmm_reference as reference;
/// use primepar_partition::{Dim, PartitionSeq, Primitive};
/// use primepar_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let shape = BmmShape { b: 4, m: 4, n: 4, k: 4 };
/// let i = Tensor::randn(vec![4, 4, 4], 1.0, &mut rng);
/// let w = Tensor::randn(vec![4, 4, 4], 1.0, &mut rng);
/// let seq = PartitionSeq::new(vec![Primitive::Split(Dim::B)])?;
/// let mut dist = DistBmm::new(seq, shape)?;
/// let o = dist.forward(&i, &w)?;
/// assert!(o.allclose(&reference::forward(&i, &w)?, 1e-4));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DistBmm {
    seq: PartitionSeq,
    space: DeviceSpace,
    shape: BmmShape,
    devices: Vec<HashMap<TensorKind, Block>>,
}

impl DistBmm {
    /// Creates an executor.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Indivisible`] when a dimension cannot be blocked
    /// exactly. Temporal primitives are rejected the same way (they would
    /// slice the head-embed dimension, which the paper forbids for attention
    /// matmuls).
    pub fn new(seq: PartitionSeq, shape: BmmShape) -> Result<Self> {
        if seq.temporal_k().is_some() {
            // Modeled as an indivisibility of the embed dimension.
            return Err(ExecError::Indivisible {
                dim: Dim::N,
                extent: shape.n,
                slices: seq.num_slices(Dim::N),
            });
        }
        for dim in Dim::ALL {
            let slices = seq.num_slices(dim);
            if !shape.extent(dim).is_multiple_of(slices) {
                return Err(ExecError::Indivisible {
                    dim,
                    extent: shape.extent(dim),
                    slices,
                });
            }
        }
        let space = DeviceSpace::new(seq.bits());
        let devices = (0..space.num_devices()).map(|_| HashMap::new()).collect();
        Ok(DistBmm {
            seq,
            space,
            shape,
            devices,
        })
    }

    /// Scatters both operands, runs the forward phase, and gathers `O`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape or routing violations.
    pub fn forward(&mut self, i: &Tensor, w: &Tensor) -> Result<Tensor> {
        self.scatter(TensorKind::Input, i, Phase::Forward)?;
        self.scatter(TensorKind::Weight, w, Phase::Forward)?;
        self.run_phase(Phase::Forward)?;
        self.gather(TensorKind::Output)
    }

    /// Scatters `dO`, runs the backward phase, and gathers `dI`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape or routing violations.
    pub fn backward(&mut self, d_o: &Tensor) -> Result<Tensor> {
        self.scatter(TensorKind::GradOutput, d_o, Phase::Backward)?;
        self.run_phase(Phase::Backward)?;
        self.gather(TensorKind::GradInput)
    }

    /// Runs the gradient phase on the stashed operands and gathers `dW`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape or routing violations.
    pub fn gradient(&mut self) -> Result<Tensor> {
        self.run_phase(Phase::Gradient)?;
        self.gather(TensorKind::GradWeight)
    }

    fn dims(&self, kind: TensorKind) -> &'static [Dim] {
        kind.dims(true)
    }

    fn block_ranges(&self, kind: TensorKind, dsi: &[usize]) -> Vec<Range<usize>> {
        self.dims(kind)
            .iter()
            .zip(dsi)
            .map(|(&dim, &ix)| {
                let len = self.shape.extent(dim) / self.seq.num_slices(dim);
                ix * len..(ix + 1) * len
            })
            .collect()
    }

    fn scatter(&mut self, kind: TensorKind, global: &Tensor, phase: Phase) -> Result<()> {
        for d in 0..self.devices.len() {
            let dsi = self
                .seq
                .tensor_dsi(self.space, phase, kind, true, DeviceId(d), 0);
            let data = global.slice(&self.block_ranges(kind, &dsi))?;
            self.devices[d].insert(kind, Block { dsi, data });
        }
        Ok(())
    }

    fn gather(&self, kind: TensorKind) -> Result<Tensor> {
        let dims: Vec<usize> = self
            .dims(kind)
            .iter()
            .map(|&d| self.shape.extent(d))
            .collect();
        let mut out = Tensor::zeros(dims);
        for (d, dev) in self.devices.iter().enumerate() {
            let block = dev.get(&kind).ok_or(ExecError::MisroutedBlock {
                phase: Phase::Forward,
                step: 0,
                tensor: kind,
                device: d,
                expected: vec![],
                actual: vec![],
            })?;
            out.write_slice(&self.block_ranges(kind, &block.dsi), &block.data)?;
        }
        Ok(out)
    }

    fn run_phase(&mut self, phase: Phase) -> Result<()> {
        let out_kind = phase.output_tensor();
        for d in 0..self.devices.len() {
            let dev_id = DeviceId(d);
            for kind in phase.input_tensors() {
                let expected = self
                    .seq
                    .tensor_dsi(self.space, phase, kind, true, dev_id, 0);
                let block = &self.devices[d][&kind];
                if block.dsi != expected {
                    return Err(ExecError::MisroutedBlock {
                        phase,
                        step: 0,
                        tensor: kind,
                        device: d,
                        expected,
                        actual: block.dsi.clone(),
                    });
                }
            }
            let partial = self.partial_product(phase, d)?;
            let dsi = self
                .seq
                .tensor_dsi(self.space, phase, out_kind, true, dev_id, 0);
            self.devices[d].insert(out_kind, Block { dsi, data: partial });
        }
        // All-reduce partial sums (batch splits excluded via weight_has_batch).
        let indicator = self.seq.allreduce_indicator(phase, true);
        if !indicator.is_empty() {
            for group in self.space.groups(indicator) {
                let first = &self.devices[group[0].index()][&out_kind];
                let dsi = first.dsi.clone();
                let mut sum = first.data.clone();
                for member in &group[1..] {
                    let block = &self.devices[member.index()][&out_kind];
                    if block.dsi != dsi {
                        return Err(ExecError::MisroutedBlock {
                            phase,
                            step: 0,
                            tensor: out_kind,
                            device: member.index(),
                            expected: dsi,
                            actual: block.dsi.clone(),
                        });
                    }
                    sum.add_assign(&block.data)?;
                }
                for member in &group {
                    self.devices[member.index()].insert(
                        out_kind,
                        Block {
                            dsi: dsi.clone(),
                            data: sum.clone(),
                        },
                    );
                }
            }
        }
        Ok(())
    }

    fn partial_product(&self, phase: Phase, d: usize) -> Result<Tensor> {
        let blocks = &self.devices[d];
        let out = match phase {
            Phase::Forward => blocks[&TensorKind::Input].data.batched_matmul(
                &blocks[&TensorKind::Weight].data,
                false,
                false,
            )?,
            Phase::Backward => blocks[&TensorKind::GradOutput].data.batched_matmul(
                &blocks[&TensorKind::Weight].data,
                false,
                true,
            )?,
            Phase::Gradient => blocks[&TensorKind::Input].data.batched_matmul(
                &blocks[&TensorKind::GradOutput].data,
                true,
                false,
            )?,
        };
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_partition::Primitive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SHAPE: BmmShape = BmmShape {
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
        let mut dist = DistBmm::new(seq, SHAPE).unwrap();
        let o = dist.forward(&i, &w).unwrap();
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
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
        assert!(matches!(
            DistBmm::new(seq, SHAPE),
            Err(ExecError::Indivisible { dim: Dim::N, .. })
        ));
    }

    #[test]
    fn indivisible_shape_rejected() {
        let seq =
            PartitionSeq::new(vec![Primitive::Split(Dim::M), Primitive::Split(Dim::M)]).unwrap();
        let shape = BmmShape {
            b: 4,
            m: 6,
            n: 8,
            k: 8,
        };
        assert!(matches!(
            DistBmm::new(seq, shape),
            Err(ExecError::Indivisible { dim: Dim::M, .. })
        ));
    }
}
