//! Functional verification of a full attention block under partitioning:
//! `scores = α·Q·Kᵀ → probs = softmax(scores) → O = probs·V`, forward and
//! backward, with each operator under its own partition sequence (the
//! batched matmuls via [`DistLinear::batched`], the softmax via a
//! distributed row-block executor). Closes the numerical-equivalence loop
//! over the paper's attention operators (§3.2).

use primepar_partition::{Dim, PartitionSeq, Phase, Primitive, TensorKind};
use primepar_tensor::Tensor;
use primepar_topology::{DeviceId, DeviceSpace};

use crate::error::check_primitives;
use crate::{DistLinear, ExecError, LinearShape, Result};

/// Outputs of one attention forward+backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionGrads {
    /// Attention output `O[H, M, E]`.
    pub output: Tensor,
    /// Gradient w.r.t. queries.
    pub d_q: Tensor,
    /// Gradient w.r.t. keys.
    pub d_k: Tensor,
    /// Gradient w.r.t. values.
    pub d_v: Tensor,
}

/// Serial reference: scaled-dot-product attention over `[H, M, E]` operands.
///
/// # Errors
///
/// Returns an error on incompatible shapes.
pub fn attention_serial(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    d_o: &Tensor,
) -> Result<AttentionGrads> {
    let e = q.shape().dim(2) as f32;
    let alpha = 1.0 / e.sqrt();
    let scores = q.batched_matmul(k, false, true)?.scale(alpha);
    let probs = scores.softmax_last_dim()?;
    let output = probs.batched_matmul(v, false, false)?;

    let d_probs = d_o.batched_matmul(v, false, true)?;
    let d_scores = Tensor::softmax_backward(&probs, &d_probs)?.scale(alpha);
    let d_q = d_scores.batched_matmul(k, false, false)?;
    let d_k = d_scores.batched_matmul(q, true, false)?;
    let d_v = probs.batched_matmul(d_o, true, false)?;
    Ok(AttentionGrads {
        output,
        d_q,
        d_k,
        d_v,
    })
}

/// Distributed softmax over row blocks: the softmax (last) dimension is never
/// partitioned (paper §3.2), so every device softmaxes complete rows of its
/// block locally; forward stashes the block for the backward pass.
#[derive(Debug)]
pub struct DistSoftmax {
    seq: PartitionSeq,
    space: DeviceSpace,
    extents: [usize; 3],                      // B, M, K
    stash: Vec<Option<(Vec<usize>, Tensor)>>, // per-device (dsi, probs block)
}

impl DistSoftmax {
    /// Creates a distributed softmax over `[b, m, k]` with `k` the softmax
    /// dimension.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnsupportedPrimitive`] if the sequence splits
    /// anything but rows (`B`, `M`) — the softmax dimension is never
    /// partitioned — and [`ExecError::Indivisible`] if it splits a row
    /// extent unevenly.
    pub fn new(seq: PartitionSeq, b: usize, m: usize, k: usize) -> Result<Self> {
        check_primitives("softmax", &seq, |p| {
            matches!(p, Primitive::Split(Dim::B | Dim::M))
        })?;
        for (dim, extent) in [(Dim::B, b), (Dim::M, m)] {
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
        Ok(DistSoftmax {
            seq,
            space,
            extents: [b, m, k],
            stash,
        })
    }

    fn ranges(&self, dsi: &[usize]) -> Vec<std::ops::Range<usize>> {
        let dims = [Dim::B, Dim::M, Dim::K];
        dims.iter()
            .zip(self.extents)
            .zip(dsi)
            .map(|((&dim, extent), &ix)| {
                let len = extent / self.seq.num_slices(dim);
                ix * len..(ix + 1) * len
            })
            .collect()
    }

    fn dsi(&self, phase: Phase, device: DeviceId) -> Vec<usize> {
        // Point-wise operators expose (B, M, K) on edges.
        [Dim::B, Dim::M, Dim::K]
            .iter()
            .map(|&d| self.seq.dsi(self.space, phase, d, device, 0))
            .collect()
    }

    /// Scatters, softmaxes row blocks locally, stashes, gathers.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreement.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::zeros(self.extents.to_vec());
        for d in 0..self.space.num_devices() {
            let dsi = self.dsi(Phase::Forward, DeviceId(d));
            let ranges = self.ranges(&dsi);
            let block = x.slice(&ranges)?;
            let probs = block.softmax_last_dim()?;
            out.write_slice(&ranges, &probs)?;
            self.stash[d] = Some((dsi, probs));
        }
        Ok(out)
    }

    /// Backward from the stashed probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MisroutedBlock`] if forward was not run first.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::zeros(self.extents.to_vec());
        for d in 0..self.space.num_devices() {
            let (dsi, probs) = self.stash[d].take().ok_or(ExecError::MisroutedBlock {
                phase: Phase::Backward,
                step: 0,
                tensor: TensorKind::Output,
                device: d,
                expected: vec![],
                actual: vec![],
            })?;
            let ranges = self.ranges(&dsi);
            let g = grad_out.slice(&ranges)?;
            let dx = Tensor::softmax_backward(&probs, &g)?;
            out.write_slice(&ranges, &dx)?;
        }
        Ok(out)
    }
}

/// Distributed attention: each operator under its own partition sequence,
/// with exact gather/scatter redistribution at the boundaries (the cost of
/// which is what Eqs. 8–9 model). Returns results for comparison against
/// [`attention_serial`].
///
/// # Errors
///
/// Returns an error on indivisible blockings or any routing violation.
pub fn attention_distributed(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    d_o: &Tensor,
    seq_qk: PartitionSeq,
    seq_softmax: PartitionSeq,
    seq_av: PartitionSeq,
) -> Result<AttentionGrads> {
    let (h, m, e) = (q.shape().dim(0), q.shape().dim(1), q.shape().dim(2));
    let alpha = 1.0 / (e as f32).sqrt();

    // scores = (α·Q) · Kᵀ as a batched matmul with W = Kᵀ.
    let kt = transpose_batched(k)?;
    let mut qk = DistLinear::batched(
        seq_qk,
        LinearShape {
            b: h,
            m,
            n: e,
            k: m,
        },
    )?;
    qk.scatter(&q.scale(alpha), &kt)?;
    let scores = qk.forward()?;

    let mut softmax = DistSoftmax::new(seq_softmax, h, m, m)?;
    let probs = softmax.forward(&scores)?;

    let mut av = DistLinear::batched(
        seq_av,
        LinearShape {
            b: h,
            m,
            n: m,
            k: e,
        },
    )?;
    av.scatter(&probs, v)?;
    let output = av.forward()?;

    // Backward: av produces dProbs (its dI) and dV (its dW).
    let d_probs = av.backward(d_o)?;
    let d_v = av.gradient()?;
    let d_scores = softmax.backward(&d_probs)?;
    // qk's backward: dI = ∂L/∂(αQ) = dScores·K, so ∂L/∂Q needs one more α;
    // its gradient dW = ∂L/∂(Kᵀ) = (αQ)ᵀ·dScores already carries the α via
    // the stored scaled operand.
    let d_q_scaled = qk.backward(&d_scores)?;
    let d_kt = qk.gradient()?;
    let d_q = d_q_scaled.scale(alpha);
    let d_k = transpose_batched(&d_kt)?;
    Ok(AttentionGrads {
        output,
        d_q,
        d_k,
        d_v,
    })
}

/// Grouped-query attention (Llama2-70B style): broadcasts `kv_heads` K/V
/// heads across `q_heads` query heads, runs full attention, and folds the
/// K/V gradients back by summing over each group — exactly the autograd of
/// the broadcast.
///
/// Returns the same [`AttentionGrads`] shape as [`attention_serial`], with
/// `d_k`/`d_v` reduced to `kv_heads` batches.
///
/// # Errors
///
/// Returns an error if `q.shape()[0]` is not a multiple of `k.shape()[0]` or
/// on any downstream shape violation.
pub fn attention_gqa_serial(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    d_o: &Tensor,
) -> Result<AttentionGrads> {
    let q_heads = q.shape().dim(0);
    let kv_heads = k.shape().dim(0);
    if kv_heads == 0 || !q_heads.is_multiple_of(kv_heads) {
        return Err(ExecError::Indivisible {
            dim: Dim::B,
            extent: q_heads,
            slices: kv_heads.max(1),
        });
    }
    let group = q_heads / kv_heads;
    let k_full = broadcast_kv(k, group)?;
    let v_full = broadcast_kv(v, group)?;
    let full = attention_serial(q, &k_full, &v_full, d_o)?;
    Ok(AttentionGrads {
        output: full.output,
        d_q: full.d_q,
        d_k: reduce_kv(&full.d_k, group)?,
        d_v: reduce_kv(&full.d_v, group)?,
    })
}

/// Repeats each KV head `group` times along the batch dimension.
fn broadcast_kv(t: &Tensor, group: usize) -> Result<Tensor> {
    let (h, m, e) = (t.shape().dim(0), t.shape().dim(1), t.shape().dim(2));
    let mut out = Tensor::zeros(vec![h * group, m, e]);
    for hi in 0..h {
        let block = t.slice(&[hi..hi + 1, 0..m, 0..e])?;
        for g in 0..group {
            out.write_slice(
                &[(hi * group + g)..(hi * group + g + 1), 0..m, 0..e],
                &block,
            )?;
        }
    }
    Ok(out)
}

/// Sums gradients over each broadcast group (adjoint of [`broadcast_kv`]).
fn reduce_kv(t: &Tensor, group: usize) -> Result<Tensor> {
    let (hg, m, e) = (t.shape().dim(0), t.shape().dim(1), t.shape().dim(2));
    let h = hg / group;
    let mut out = Tensor::zeros(vec![h, m, e]);
    for hi in 0..h {
        let mut acc = Tensor::zeros(vec![1, m, e]);
        for g in 0..group {
            let block = t.slice(&[(hi * group + g)..(hi * group + g + 1), 0..m, 0..e])?;
            acc.add_assign(&block)?;
        }
        out.write_slice(&[hi..hi + 1, 0..m, 0..e], &acc)?;
    }
    Ok(out)
}

/// Transposes the trailing two dimensions of a rank-3 tensor.
fn transpose_batched(t: &Tensor) -> Result<Tensor> {
    let (b, m, n) = (t.shape().dim(0), t.shape().dim(1), t.shape().dim(2));
    let mut out = Tensor::zeros(vec![b, n, m]);
    for bi in 0..b {
        let slice = t.slice(&[bi..bi + 1, 0..m, 0..n])?.reshape(vec![m, n])?;
        let tr = slice.transpose()?.reshape(vec![1, n, m])?;
        out.write_slice(&[bi..bi + 1, 0..n, 0..m], &tr)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_partition::Primitive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixtures() -> (Tensor, Tensor, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(33);
        let q = Tensor::randn(vec![4, 8, 8], 0.5, &mut rng);
        let k = Tensor::randn(vec![4, 8, 8], 0.5, &mut rng);
        let v = Tensor::randn(vec![4, 8, 8], 0.5, &mut rng);
        let d_o = Tensor::randn(vec![4, 8, 8], 0.5, &mut rng);
        (q, k, v, d_o)
    }

    fn check(qk: Vec<Primitive>, sm: Vec<Primitive>, av: Vec<Primitive>) {
        let (q, k, v, d_o) = fixtures();
        let serial = attention_serial(&q, &k, &v, &d_o).unwrap();
        let dist = attention_distributed(
            &q,
            &k,
            &v,
            &d_o,
            PartitionSeq::new(qk).unwrap(),
            PartitionSeq::new(sm).unwrap(),
            PartitionSeq::new(av).unwrap(),
        )
        .unwrap();
        assert!(
            dist.output.allclose(&serial.output, 1e-3),
            "O diff {}",
            dist.output.max_abs_diff(&serial.output)
        );
        assert!(
            dist.d_q.allclose(&serial.d_q, 1e-3),
            "dQ diff {}",
            dist.d_q.max_abs_diff(&serial.d_q)
        );
        assert!(
            dist.d_k.allclose(&serial.d_k, 1e-3),
            "dK diff {}",
            dist.d_k.max_abs_diff(&serial.d_k)
        );
        assert!(
            dist.d_v.allclose(&serial.d_v, 1e-3),
            "dV diff {}",
            dist.d_v.max_abs_diff(&serial.d_v)
        );
    }

    #[test]
    fn serial_attention_gradients_match_finite_difference() {
        let (q, k, v, d_o) = fixtures();
        let grads = attention_serial(&q, &k, &v, &d_o).unwrap();
        let eps = 1e-2f32;
        // Spot-check a handful of dQ entries by central differences.
        for idx in [0usize, 17, 63, 200] {
            let mut qp = q.clone();
            qp.data_mut()[idx] += eps;
            let mut qm = q.clone();
            qm.data_mut()[idx] -= eps;
            let fp = attention_serial(&qp, &k, &v, &d_o).unwrap().output;
            let fm = attention_serial(&qm, &k, &v, &d_o).unwrap().output;
            let num: f32 = fp
                .data()
                .iter()
                .zip(fm.data())
                .zip(d_o.data())
                .map(|((p, m), g)| (p - m) / (2.0 * eps) * g)
                .sum();
            let ana = grads.d_q.data()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "idx {idx}: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn head_parallel_attention_matches_serial() {
        // Megatron's strategy: every op split by heads (B).
        check(
            vec![Primitive::Split(Dim::B)],
            vec![Primitive::Split(Dim::B)],
            vec![Primitive::Split(Dim::B)],
        );
    }

    #[test]
    fn heterogeneous_attention_partitions_match_serial() {
        check(
            vec![Primitive::Split(Dim::M)],
            vec![Primitive::Split(Dim::B)],
            vec![Primitive::Split(Dim::N)],
        );
        check(
            vec![Primitive::Split(Dim::B), Primitive::Split(Dim::K)],
            vec![Primitive::Split(Dim::M), Primitive::Split(Dim::B)],
            vec![Primitive::Split(Dim::N), Primitive::Split(Dim::M)],
        );
    }

    #[test]
    fn gqa_matches_explicit_broadcast_finite_difference() {
        // 8 query heads sharing 2 KV heads: dK through the broadcast adjoint
        // must match central differences.
        let mut rng = StdRng::seed_from_u64(41);
        let q = Tensor::randn(vec![8, 4, 4], 0.5, &mut rng);
        let k = Tensor::randn(vec![2, 4, 4], 0.5, &mut rng);
        let v = Tensor::randn(vec![2, 4, 4], 0.5, &mut rng);
        let d_o = Tensor::randn(vec![8, 4, 4], 0.5, &mut rng);
        let grads = attention_gqa_serial(&q, &k, &v, &d_o).unwrap();
        assert_eq!(grads.d_k.shape().dims(), &[2, 4, 4]);
        let eps = 1e-2f32;
        for idx in [0usize, 7, 19, 31] {
            let mut kp = k.clone();
            kp.data_mut()[idx] += eps;
            let mut km = k.clone();
            km.data_mut()[idx] -= eps;
            let fp = attention_gqa_serial(&q, &kp, &v, &d_o).unwrap().output;
            let fm = attention_gqa_serial(&q, &km, &v, &d_o).unwrap().output;
            let num: f32 = fp
                .data()
                .iter()
                .zip(fm.data())
                .zip(d_o.data())
                .map(|((p, m), g)| (p - m) / (2.0 * eps) * g)
                .sum();
            let ana = grads.d_k.data()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "idx {idx}: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn gqa_with_equal_heads_is_plain_attention() {
        let (q, k, v, d_o) = fixtures();
        let plain = attention_serial(&q, &k, &v, &d_o).unwrap();
        let gqa = attention_gqa_serial(&q, &k, &v, &d_o).unwrap();
        assert!(gqa.output.allclose(&plain.output, 0.0));
        assert!(gqa.d_k.allclose(&plain.d_k, 0.0));
    }

    #[test]
    fn gqa_rejects_indivisible_heads() {
        let q = Tensor::zeros(vec![6, 4, 4]);
        let k = Tensor::zeros(vec![4, 4, 4]);
        let d_o = Tensor::zeros(vec![6, 4, 4]);
        assert!(attention_gqa_serial(&q, &k, &k, &d_o).is_err());
    }

    #[test]
    fn gqa_distributed_via_broadcast_matches() {
        // Distribute GQA by broadcasting KV then running the partitioned
        // attention — the executor path a real GQA deployment takes.
        let mut rng = StdRng::seed_from_u64(43);
        let q = Tensor::randn(vec![8, 8, 8], 0.5, &mut rng);
        let k = Tensor::randn(vec![2, 8, 8], 0.5, &mut rng);
        let v = Tensor::randn(vec![2, 8, 8], 0.5, &mut rng);
        let d_o = Tensor::randn(vec![8, 8, 8], 0.5, &mut rng);
        let serial = attention_gqa_serial(&q, &k, &v, &d_o).unwrap();
        let k_full = broadcast_kv(&k, 4).unwrap();
        let v_full = broadcast_kv(&v, 4).unwrap();
        let dist = attention_distributed(
            &q,
            &k_full,
            &v_full,
            &d_o,
            PartitionSeq::new(vec![Primitive::Split(Dim::B)]).unwrap(),
            PartitionSeq::new(vec![Primitive::Split(Dim::B)]).unwrap(),
            PartitionSeq::new(vec![Primitive::Split(Dim::B)]).unwrap(),
        )
        .unwrap();
        assert!(dist.output.allclose(&serial.output, 1e-3));
        assert!(reduce_kv(&dist.d_k, 4).unwrap().allclose(&serial.d_k, 1e-3));
        assert!(reduce_kv(&dist.d_v, 4).unwrap().allclose(&serial.d_v, 1e-3));
    }

    #[test]
    fn softmax_dimension_split_is_rejected() {
        let seq =
            PartitionSeq::new(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::K)]).unwrap();
        let err = DistSoftmax::new(seq, 4, 8, 4).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnsupportedPrimitive {
                operator: "softmax",
                primitive: Primitive::Split(Dim::K),
            }
        );
        assert_eq!(
            err.to_string(),
            "the softmax executor cannot take a split of dimension K"
        );
    }

    #[test]
    fn softmax_backward_requires_forward() {
        let seq = PartitionSeq::new(vec![Primitive::Split(Dim::B)]).unwrap();
        let mut sm = DistSoftmax::new(seq, 4, 8, 8).unwrap();
        let g = Tensor::zeros(vec![4, 8, 8]);
        assert!(sm.backward(&g).is_err());
    }
}
