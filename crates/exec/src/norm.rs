//! Distributed layer normalization. The paper (§3.2) supports partitioning
//! all dimensions of normalization operators, "with potential all-reduce of
//! expectations and gradient of parameters γ, β". This executor realizes
//! both: a hidden-dimension split computes partial first/second moments per
//! block and all-reduces them within the hidden-split groups, and row splits
//! all-reduce the parameter gradients.

use primepar_partition::{Dim, PartitionSeq, Phase, Primitive};
use primepar_tensor::Tensor;
use primepar_topology::{DeviceId, DeviceSpace};

use crate::error::check_primitives;
use crate::{ExecError, Result};

/// Distributed LayerNorm over `[rows, hidden]`-shaped activations (callers
/// flatten batch × sequence into rows). `Dim::M` splits rows, `Dim::K` splits
/// the hidden (normalized) dimension.
#[derive(Debug)]
pub struct DistNorm {
    seq: PartitionSeq,
    space: DeviceSpace,
    rows: usize,
    hidden: usize,
    eps: f32,
    /// Per-device forward stash: `(x block, mean, rstd)` for backward.
    stash: Vec<Option<(Tensor, Tensor, Tensor)>>,
}

impl DistNorm {
    /// Creates the executor.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnsupportedPrimitive`] for anything but `M`/`K`
    /// splits (`B`/`N` splits and temporal primitives do not apply to a
    /// flattened 2-D normalization) and [`ExecError::Indivisible`] on uneven
    /// blockings.
    pub fn new(seq: PartitionSeq, rows: usize, hidden: usize, eps: f32) -> Result<Self> {
        check_primitives("layer norm", &seq, |p| {
            matches!(p, Primitive::Split(Dim::M | Dim::K))
        })?;
        for (dim, extent) in [(Dim::M, rows), (Dim::K, hidden)] {
            if extent % seq.num_slices(dim) != 0 {
                return Err(ExecError::Indivisible {
                    dim,
                    extent,
                    slices: seq.num_slices(dim),
                });
            }
        }
        let space = DeviceSpace::new(seq.bits());
        let stash = vec![None; space.num_devices()];
        Ok(DistNorm {
            seq,
            space,
            rows,
            hidden,
            eps,
            stash,
        })
    }

    fn ranges(
        &self,
        device: DeviceId,
        phase: Phase,
    ) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let rs = self.rows / self.seq.num_slices(Dim::M);
        let ks = self.hidden / self.seq.num_slices(Dim::K);
        let ri = self.seq.dsi(self.space, phase, Dim::M, device, 0);
        let ki = self.seq.dsi(self.space, phase, Dim::K, device, 0);
        (ri * rs..(ri + 1) * rs, ki * ks..(ki + 1) * ks)
    }

    /// The hidden-split all-reduce groups (the paper's "all-reduce of
    /// expectations").
    fn stats_groups(&self) -> Vec<Vec<DeviceId>> {
        self.space.groups(self.seq.split_indicator(&[Dim::K]))
    }

    /// Forward: each device normalizes its block using group-reduced
    /// statistics; gathers the global output.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreement.
    pub fn forward(&mut self, x: &Tensor, gamma: &Tensor, beta: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::zeros(vec![self.rows, self.hidden]);
        // Phase 1: per-device partial moments over the local hidden block.
        let n = self.space.num_devices();
        let mut partial: Vec<(Tensor, Tensor, Tensor)> = Vec::with_capacity(n);
        for d in 0..n {
            let (rr, kr) = self.ranges(DeviceId(d), Phase::Forward);
            let block = x.slice(&[rr.clone(), kr.clone()])?;
            let rows = rr.len();
            let mut s1 = Tensor::zeros(vec![rows]);
            let mut s2 = Tensor::zeros(vec![rows]);
            for r in 0..rows {
                let row = &block.data()[r * kr.len()..(r + 1) * kr.len()];
                s1.data_mut()[r] = row.iter().sum();
                s2.data_mut()[r] = row.iter().map(|v| v * v).sum();
            }
            partial.push((block, s1, s2));
        }
        // Phase 2: all-reduce the moments within hidden-split groups.
        for group in self.stats_groups() {
            let mut sum1 = partial[group[0].index()].1.clone();
            let mut sum2 = partial[group[0].index()].2.clone();
            for member in &group[1..] {
                sum1.add_assign(&partial[member.index()].1)?;
                sum2.add_assign(&partial[member.index()].2)?;
            }
            for member in &group {
                partial[member.index()].1 = sum1.clone();
                partial[member.index()].2 = sum2.clone();
            }
        }
        // Phase 3: normalize locally with the group statistics.
        for d in 0..n {
            let (rr, kr) = self.ranges(DeviceId(d), Phase::Forward);
            let (block, s1, s2) = &partial[d];
            let rows = rr.len();
            let h = self.hidden as f32;
            let mut norm = Tensor::zeros(vec![rows, kr.len()]);
            let mut mean = Tensor::zeros(vec![rows]);
            let mut rstd = Tensor::zeros(vec![rows]);
            for r in 0..rows {
                let mu = s1.data()[r] / h;
                let var = s2.data()[r] / h - mu * mu;
                let rs = 1.0 / (var + self.eps).sqrt();
                mean.data_mut()[r] = mu;
                rstd.data_mut()[r] = rs;
                for (j, kcol) in kr.clone().enumerate() {
                    let xv = block.data()[r * kr.len() + j];
                    norm.data_mut()[r * kr.len() + j] =
                        (xv - mu) * rs * gamma.data()[kcol] + beta.data()[kcol];
                }
            }
            out.write_slice(&[rr, kr], &norm)?;
            self.stash[d] = Some((block.clone(), mean, rstd));
        }
        Ok(out)
    }

    /// Backward: per-device partial reductions, group all-reduces of the row
    /// statistics (hidden splits) and of the γ/β gradients (row splits).
    /// Returns `(dx, dgamma, dbeta)` gathered globally.
    ///
    /// # Errors
    ///
    /// Returns an error if forward was not run or shapes disagree.
    pub fn backward(
        &mut self,
        grad_out: &Tensor,
        gamma: &Tensor,
    ) -> Result<(Tensor, Tensor, Tensor)> {
        let n = self.space.num_devices();
        let h = self.hidden as f32;
        // Per-device: partial Σ dxhat and Σ dxhat·xhat over the hidden block,
        // plus local dgamma/dbeta blocks.
        struct Part {
            g: Tensor,
            xhat: Tensor,
            sum_dxhat: Tensor,
            sum_dxhat_xhat: Tensor,
            dgamma: Tensor,
            dbeta: Tensor,
            rstd: Tensor,
        }
        let mut parts: Vec<Part> = Vec::with_capacity(n);
        for d in 0..n {
            let (rr, kr) = self.ranges(DeviceId(d), Phase::Backward);
            let (x, mean, rstd) = self.stash[d].take().ok_or(ExecError::MisroutedBlock {
                phase: Phase::Backward,
                step: 0,
                tensor: primepar_partition::TensorKind::Input,
                device: d,
                expected: vec![],
                actual: vec![],
            })?;
            let g = grad_out.slice(&[rr.clone(), kr.clone()])?;
            let rows = rr.len();
            let cols = kr.len();
            let mut xhat = Tensor::zeros(vec![rows, cols]);
            let mut s_d = Tensor::zeros(vec![rows]);
            let mut s_dx = Tensor::zeros(vec![rows]);
            let mut dgamma = Tensor::zeros(vec![cols]);
            let mut dbeta = Tensor::zeros(vec![cols]);
            for r in 0..rows {
                for j in 0..cols {
                    let xh = (x.data()[r * cols + j] - mean.data()[r]) * rstd.data()[r];
                    let dxh = g.data()[r * cols + j] * gamma.data()[kr.start + j];
                    xhat.data_mut()[r * cols + j] = xh;
                    s_d.data_mut()[r] += dxh;
                    s_dx.data_mut()[r] += dxh * xh;
                    dgamma.data_mut()[j] += g.data()[r * cols + j] * xh;
                    dbeta.data_mut()[j] += g.data()[r * cols + j];
                }
            }
            parts.push(Part {
                g,
                xhat,
                sum_dxhat: s_d,
                sum_dxhat_xhat: s_dx,
                dgamma,
                dbeta,
                rstd,
            });
        }
        // All-reduce the row statistics within hidden-split groups.
        for group in self.stats_groups() {
            let mut s1 = parts[group[0].index()].sum_dxhat.clone();
            let mut s2 = parts[group[0].index()].sum_dxhat_xhat.clone();
            for member in &group[1..] {
                s1.add_assign(&parts[member.index()].sum_dxhat)?;
                s2.add_assign(&parts[member.index()].sum_dxhat_xhat)?;
            }
            for member in &group {
                parts[member.index()].sum_dxhat = s1.clone();
                parts[member.index()].sum_dxhat_xhat = s2.clone();
            }
        }
        // All-reduce γ/β gradients within row-split groups (paper: "gradient
        // of parameters γ, β").
        for group in self.space.groups(self.seq.split_indicator(&[Dim::M])) {
            let mut dg = parts[group[0].index()].dgamma.clone();
            let mut db = parts[group[0].index()].dbeta.clone();
            for member in &group[1..] {
                dg.add_assign(&parts[member.index()].dgamma)?;
                db.add_assign(&parts[member.index()].dbeta)?;
            }
            for member in &group {
                parts[member.index()].dgamma = dg.clone();
                parts[member.index()].dbeta = db.clone();
            }
        }
        // Local dx and gathers.
        let mut dx = Tensor::zeros(vec![self.rows, self.hidden]);
        let mut dgamma = Tensor::zeros(vec![self.hidden]);
        let mut dbeta = Tensor::zeros(vec![self.hidden]);
        for d in 0..n {
            let (rr, kr) = self.ranges(DeviceId(d), Phase::Backward);
            let part = &parts[d];
            let rows = rr.len();
            let cols = kr.len();
            let mut block = Tensor::zeros(vec![rows, cols]);
            for r in 0..rows {
                for j in 0..cols {
                    let dxh = part.g.data()[r * cols + j] * gamma.data()[kr.start + j];
                    let xh = part.xhat.data()[r * cols + j];
                    block.data_mut()[r * cols + j] = part.rstd.data()[r]
                        * (dxh
                            - part.sum_dxhat.data()[r] / h
                            - xh * part.sum_dxhat_xhat.data()[r] / h);
                }
            }
            dx.write_slice(&[rr, kr.clone()], &block)?;
            dgamma.write_slice(std::slice::from_ref(&kr), &part.dgamma.reshape(vec![cols])?)?;
            dbeta.write_slice(std::slice::from_ref(&kr), &part.dbeta.reshape(vec![cols])?)?;
        }
        Ok((dx, dgamma, dbeta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_partition::Primitive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixtures() -> (Tensor, Tensor, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(77);
        let x = Tensor::randn(vec![8, 16], 1.0, &mut rng);
        let gamma = Tensor::randn(vec![16], 1.0, &mut rng);
        let beta = Tensor::randn(vec![16], 1.0, &mut rng);
        let g = Tensor::randn(vec![8, 16], 1.0, &mut rng);
        (x, gamma, beta, g)
    }

    fn check(prims: Vec<Primitive>) {
        let (x, gamma, beta, g) = fixtures();
        let seq = PartitionSeq::new(prims).unwrap();
        let label = seq.to_string();
        let mut dist = DistNorm::new(seq, 8, 16, 1e-5).unwrap();
        let y = dist.forward(&x, &gamma, &beta).unwrap();
        let (dx, dgamma, dbeta) = dist.backward(&g, &gamma).unwrap();

        let (y_ref, mean, rstd) = x.layer_norm(&gamma, &beta, 1e-5).unwrap();
        let (dx_ref, dgamma_ref, dbeta_ref) =
            x.layer_norm_backward(&g, &gamma, &mean, &rstd).unwrap();
        assert!(
            y.allclose(&y_ref, 1e-3),
            "{label}: y diff {}",
            y.max_abs_diff(&y_ref)
        );
        assert!(
            dx.allclose(&dx_ref, 1e-3),
            "{label}: dx diff {}",
            dx.max_abs_diff(&dx_ref)
        );
        assert!(dgamma.allclose(&dgamma_ref, 1e-3), "{label}: dgamma");
        assert!(dbeta.allclose(&dbeta_ref, 1e-3), "{label}: dbeta");
    }

    #[test]
    fn row_split_matches_reference() {
        check(vec![Primitive::Split(Dim::M)]);
        check(vec![Primitive::Split(Dim::M), Primitive::Split(Dim::M)]);
    }

    #[test]
    fn hidden_split_matches_reference() {
        // The "all-reduce of expectations" path.
        check(vec![Primitive::Split(Dim::K)]);
        check(vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]);
    }

    #[test]
    fn mixed_split_matches_reference() {
        check(vec![Primitive::Split(Dim::M), Primitive::Split(Dim::K)]);
        check(vec![Primitive::Split(Dim::K), Primitive::Split(Dim::M)]);
    }

    #[test]
    fn unsupported_primitives_rejected() {
        for primitive in [
            Primitive::Temporal { k: 1 },
            Primitive::Split(Dim::B),
            Primitive::Split(Dim::N),
        ] {
            let seq = PartitionSeq::new(vec![Primitive::Split(Dim::M), primitive]).unwrap();
            assert_eq!(
                DistNorm::new(seq, 8, 8, 1e-5).unwrap_err(),
                ExecError::UnsupportedPrimitive {
                    operator: "layer norm",
                    primitive,
                }
            );
        }
        let b = PartitionSeq::new(vec![Primitive::Split(Dim::B)]).unwrap();
        assert_eq!(
            DistNorm::new(b, 8, 8, 1e-5).unwrap_err().to_string(),
            "the layer norm executor cannot take a split of dimension B"
        );
    }

    #[test]
    fn backward_requires_forward() {
        let seq = PartitionSeq::new(vec![Primitive::Split(Dim::M)]).unwrap();
        let mut dist = DistNorm::new(seq, 8, 16, 1e-5).unwrap();
        let (_, gamma, _, g) = fixtures();
        assert!(dist.backward(&g, &gamma).is_err());
    }
}
