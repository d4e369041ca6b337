use std::collections::HashMap;
use std::ops::Range;

use primepar_partition::{
    ring_transfers, Dim, PartitionSeq, Phase, Primitive, TensorKind, TransferReason,
};
use primepar_tensor::Tensor;
use primepar_topology::{DeviceId, DeviceSpace};

use crate::error::check_primitives;
use crate::{ExecError, Result};

/// Global extents of a matmul's four dimensions (paper Eq. 1):
/// `O[B,M,K] = Σ_N I[B,M,N] · W[N,K]`, with `W[B,N,K]` for a batched matmul.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinearShape {
    /// Batch extent (for attention matmuls: heads, or batch × heads).
    pub b: usize,
    /// Sequence extent.
    pub m: usize,
    /// Input-hidden extent (forward contraction dimension).
    pub n: usize,
    /// Output-hidden extent.
    pub k: usize,
}

impl LinearShape {
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

/// A deliberate routing fault for failure-injection tests: during the given
/// phase and step, device 0's incoming ring transfer of `tensor` is replaced
/// by its own outgoing block (as if the ring were mis-wired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Phase in which to corrupt a transfer.
    pub phase: Phase,
    /// Temporal step of the corrupted transfer.
    pub step: usize,
    /// Tensor whose transfer is corrupted.
    pub tensor: TensorKind,
}

/// A tensor block together with its *intrinsic identity* — the DSI tuple of
/// the global slices it contains. Identity travels with the data; the
/// executor checks it against the schedule's expectation at every use.
#[derive(Debug, Clone)]
struct Block {
    dsi: Vec<usize>,
    data: Tensor,
}

#[derive(Debug, Default)]
struct DeviceState {
    blocks: HashMap<TensorKind, Block>,
    /// Adam first/second moment blocks, sharded exactly like the weight
    /// (feature 3's weight-cycle alignment keeps them local forever).
    adam: Option<(Block, Block)>,
}

/// Functional multi-device executor for one matmul-like operator under an
/// arbitrary partition sequence: a linear with `W[N, K]`
/// ([`DistLinear::new`]), or a batched matmul whose second operand carries
/// the batch dimension, `W[B, N, K]` ([`DistLinear::batched`]).
///
/// # Example
///
/// ```
/// use primepar_exec::{DistLinear, LinearShape, reference};
/// use primepar_partition::{PartitionSeq, Primitive};
/// use primepar_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let shape = LinearShape { b: 2, m: 4, n: 4, k: 4 };
/// let i = Tensor::randn(vec![2, 4, 4], 1.0, &mut rng);
/// let w = Tensor::randn(vec![4, 4], 1.0, &mut rng);
/// let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }])?;
/// let mut dist = DistLinear::new(seq, shape)?;
/// dist.scatter(&i, &w)?;
/// let o = dist.forward()?;
/// assert!(o.allclose(&reference::forward(&i, &w)?, 1e-4));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DistLinear {
    seq: PartitionSeq,
    space: DeviceSpace,
    shape: LinearShape,
    /// `W` (and `dW`) carry the batch dimension: the DSI formalism's
    /// `weight_has_batch`, passed straight to every partition-crate query.
    weight_has_batch: bool,
    devices: Vec<DeviceState>,
    fault: Option<FaultSpec>,
}

impl DistLinear {
    /// Creates an executor for a linear `O = I·W` with `W[N, K]`, validating
    /// that every dimension divides evenly into its slice count.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Indivisible`] when a dimension cannot be blocked
    /// exactly.
    pub fn new(seq: PartitionSeq, shape: LinearShape) -> Result<Self> {
        Self::build(seq, shape, false)
    }

    /// Creates an executor for a batched matmul `O[b] = I[b] · W[b]`, whose
    /// second operand is an activation carrying the batch dimension (the
    /// attention score and value matmuls, paper §3.2). A batch split then
    /// partitions `dW` rather than partial-summing it, so no gradient
    /// all-reduce crosses batch splits.
    ///
    /// # Example
    ///
    /// ```
    /// use primepar_exec::bmm_reference as reference;
    /// use primepar_exec::{DistLinear, LinearShape};
    /// use primepar_partition::{Dim, PartitionSeq, Primitive};
    /// use primepar_tensor::Tensor;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let shape = LinearShape { b: 4, m: 4, n: 4, k: 4 };
    /// let i = Tensor::randn(vec![4, 4, 4], 1.0, &mut rng);
    /// let w = Tensor::randn(vec![4, 4, 4], 1.0, &mut rng);
    /// let seq = PartitionSeq::new(vec![Primitive::Split(Dim::B)])?;
    /// let mut dist = DistLinear::batched(seq, shape)?;
    /// dist.scatter(&i, &w)?;
    /// let o = dist.forward()?;
    /// assert!(o.allclose(&reference::forward(&i, &w)?, 1e-4));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnsupportedPrimitive`] for a temporal primitive
    /// (it would slice the head-embed dimension, which the paper leaves
    /// whole for attention matmuls) and [`ExecError::Indivisible`] when a
    /// dimension cannot be blocked exactly.
    pub fn batched(seq: PartitionSeq, shape: LinearShape) -> Result<Self> {
        check_primitives("batched matmul", &seq, |p| matches!(p, Primitive::Split(_)))?;
        Self::build(seq, shape, true)
    }

    fn build(seq: PartitionSeq, shape: LinearShape, weight_has_batch: bool) -> Result<Self> {
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
        let devices = (0..space.num_devices())
            .map(|_| DeviceState::default())
            .collect();
        Ok(DistLinear {
            seq,
            space,
            shape,
            weight_has_batch,
            devices,
            fault: None,
        })
    }

    /// Arms a routing fault (see [`FaultSpec`]); the next execution of the
    /// matching transfer delivers a wrong block, which the DSI identity check
    /// must detect.
    pub fn inject_fault(&mut self, fault: FaultSpec) {
        self.fault = Some(fault);
    }

    /// Number of simulated devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Distributes the input and weight tensors according to the forward
    /// phase's step-0 DSIs.
    ///
    /// # Errors
    ///
    /// Returns an error if tensor shapes disagree with the operator shape.
    pub fn scatter(&mut self, i: &Tensor, w: &Tensor) -> Result<()> {
        self.scatter_tensor(TensorKind::Input, i, Phase::Forward)?;
        self.scatter_tensor(TensorKind::Weight, w, Phase::Forward)?;
        Ok(())
    }

    /// Runs the forward phase and gathers the global output `O`.
    ///
    /// # Errors
    ///
    /// Returns an error on any routing or shape violation, including
    /// [`ExecError::MisroutedBlock`] when [`DistLinear::scatter`] has not
    /// supplied `I` and `W`.
    pub fn forward(&mut self) -> Result<Tensor> {
        self.run_phase(Phase::Forward)?;
        self.gather(TensorKind::Output)
    }

    /// Scatters the output gradient, runs the backward phase, and gathers the
    /// global input gradient `dI`.
    ///
    /// # Errors
    ///
    /// Returns an error on any routing or shape violation.
    pub fn backward(&mut self, d_o: &Tensor) -> Result<Tensor> {
        self.scatter_tensor(TensorKind::GradOutput, d_o, Phase::Backward)?;
        self.run_phase(Phase::Backward)?;
        self.gather(TensorKind::GradInput)
    }

    /// Runs the gradient phase on the stashed `I` and `dO` and gathers the
    /// global weight gradient `dW`.
    ///
    /// # Errors
    ///
    /// Returns an error on any routing or shape violation, including
    /// [`ExecError::MisroutedBlock`] when [`DistLinear::backward`] has not
    /// supplied `dO`.
    pub fn gradient(&mut self) -> Result<Tensor> {
        self.run_phase(Phase::Gradient)?;
        self.gather(TensorKind::GradWeight)
    }

    /// Applies the local SGD update `W ← W − lr·dW` on every device and drops
    /// the iteration's stashes. Feature 3 guarantees `dW` is aligned with `W`,
    /// so no communication is needed — this method *asserts* that alignment.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MisroutedBlock`] if `dW` is absent or its blocks
    /// disagree with `W`'s.
    pub fn apply_update(&mut self, lr: f32) -> Result<()> {
        self.update_weights(|_, w, dw, _| {
            w.data = w.data.sub(&dw.scale(lr))?;
            Ok(())
        })
    }

    /// Applies one Adam step locally on every device: the first/second moment
    /// blocks live beside the weight block and — because `dW` always lands on
    /// the weight's distribution (feature 3) — are *never* communicated.
    /// `step` is the 1-based Adam timestep for bias correction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MisroutedBlock`] if `dW` is absent or misaligned
    /// with `W` (which would equally invalidate the moments).
    pub fn apply_adam(
        &mut self,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        step: u32,
    ) -> Result<()> {
        let bc1 = 1.0 - beta1.powi(step as i32);
        let bc2 = 1.0 - beta2.powi(step as i32);
        self.update_weights(|device, w, dw, moments| {
            let (m, v) = moments.get_or_insert_with(|| {
                let zero = Block {
                    dsi: w.dsi.clone(),
                    data: Tensor::zeros(w.data.shape().clone()),
                };
                (zero.clone(), zero)
            });
            if m.dsi != w.dsi || v.dsi != w.dsi {
                return Err(ExecError::MisroutedBlock {
                    phase: Phase::Gradient,
                    step: 0,
                    tensor: TensorKind::Weight,
                    device,
                    expected: w.dsi.clone(),
                    actual: m.dsi.clone(),
                });
            }
            for i in 0..w.data.data().len() {
                let g = dw.data()[i];
                let mi = beta1 * m.data.data()[i] + (1.0 - beta1) * g;
                let vi = beta2 * v.data.data()[i] + (1.0 - beta2) * g * g;
                m.data.data_mut()[i] = mi;
                v.data.data_mut()[i] = vi;
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                w.data.data_mut()[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
            Ok(())
        })
    }

    /// Gathers the current global weight (valid between iterations, when `W`
    /// sits at its forward-start distribution).
    ///
    /// # Errors
    ///
    /// Returns an error if a device lacks its weight block.
    pub fn weight(&self) -> Result<Tensor> {
        self.gather(TensorKind::Weight)
    }

    /// One full training iteration: scatter, forward, backward, gradient,
    /// update. Returns `(O, dI, dW, W_updated)` for comparison against
    /// [`crate::reference::train_step`].
    ///
    /// # Errors
    ///
    /// Returns an error on any routing or shape violation.
    pub fn train_step(
        &mut self,
        i: &Tensor,
        w: &Tensor,
        d_o: &Tensor,
        lr: f32,
    ) -> Result<(Tensor, Tensor, Tensor, Tensor)> {
        self.scatter(i, w)?;
        let o = self.forward()?;
        let d_i = self.backward(d_o)?;
        let d_w = self.gradient()?;
        self.apply_update(lr)?;
        let w_new = self.weight()?;
        Ok((o, d_i, d_w, w_new))
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// The update step shared by SGD and Adam: on every device, takes `dW`,
    /// checks it is aligned with `W`, runs `update(device, W, dW, moments)`,
    /// and drops the iteration's stashes (everything but `W`).
    fn update_weights(
        &mut self,
        mut update: impl FnMut(usize, &mut Block, &Tensor, &mut Option<(Block, Block)>) -> Result<()>,
    ) -> Result<()> {
        for (device, dev) in self.devices.iter_mut().enumerate() {
            let misrouted = |expected: Vec<usize>, actual: Vec<usize>| ExecError::MisroutedBlock {
                phase: Phase::Gradient,
                step: 0,
                tensor: TensorKind::GradWeight,
                device,
                expected,
                actual,
            };
            let dw = dev
                .blocks
                .remove(&TensorKind::GradWeight)
                .ok_or_else(|| misrouted(vec![], vec![]))?;
            let w = dev
                .blocks
                .get_mut(&TensorKind::Weight)
                .expect("a gradient phase implies a scattered weight");
            if w.dsi != dw.dsi {
                return Err(misrouted(w.dsi.clone(), dw.dsi));
            }
            update(device, w, &dw.data, &mut dev.adam)?;
            dev.blocks.retain(|&kind, _| kind == TensorKind::Weight);
        }
        Ok(())
    }

    /// Per-device block extents of `kind`, in its canonical dimension order.
    fn block_dims(&self, kind: TensorKind) -> Vec<usize> {
        kind.dims(self.weight_has_batch)
            .iter()
            .map(|&dim| self.shape.extent(dim) / self.seq.num_slices(dim))
            .collect()
    }

    fn block_ranges(&self, kind: TensorKind, dsi: &[usize]) -> Vec<Range<usize>> {
        self.block_dims(kind)
            .into_iter()
            .zip(dsi)
            .map(|(len, &ix)| ix * len..(ix + 1) * len)
            .collect()
    }

    fn scatter_tensor(&mut self, kind: TensorKind, global: &Tensor, phase: Phase) -> Result<()> {
        for d in 0..self.devices.len() {
            let dev_id = DeviceId(d);
            let dsi =
                self.seq
                    .tensor_dsi(self.space, phase, kind, self.weight_has_batch, dev_id, 0);
            let ranges = self.block_ranges(kind, &dsi);
            let data = global.slice(&ranges)?;
            self.devices[d].blocks.insert(kind, Block { dsi, data });
        }
        Ok(())
    }

    fn gather(&self, kind: TensorKind) -> Result<Tensor> {
        let dims: Vec<usize> = kind
            .dims(self.weight_has_batch)
            .iter()
            .map(|&d| self.shape.extent(d))
            .collect();
        let mut out = Tensor::zeros(dims);
        for (device, dev) in self.devices.iter().enumerate() {
            let block = dev.blocks.get(&kind).ok_or(ExecError::MisroutedBlock {
                phase: Phase::Forward,
                step: 0,
                tensor: kind,
                device,
                expected: vec![],
                actual: vec![],
            })?;
            let ranges = self.block_ranges(kind, &block.dsi);
            out.write_slice(&ranges, &block.data)?;
        }
        Ok(out)
    }

    fn run_phase(&mut self, phase: Phase) -> Result<()> {
        let out_kind = phase.output_tensor();
        for dev in &mut self.devices {
            dev.blocks.remove(&out_kind);
        }
        let steps = self.seq.temporal_steps();
        for t in 0..steps {
            let transfers = ring_transfers(&self.seq, phase, t);
            // Accumulator shifts act on the partial accumulated *before* this
            // step's contribution (paper §3.3: "dW accumulated in previous
            // steps should be redistributed during the last step").
            for tr in transfers
                .iter()
                .filter(|tr| tr.reason == TransferReason::AccumulatorShift)
            {
                self.apply_transfer(phase, t, tr.tensor, tr.delta)?;
            }
            self.compute_step(phase, t)?;
            for tr in transfers
                .iter()
                .filter(|tr| tr.reason != TransferReason::AccumulatorShift)
            {
                self.apply_transfer(phase, t, tr.tensor, tr.delta)?;
            }
        }
        self.allreduce_output(phase)?;
        Ok(())
    }

    fn compute_step(&mut self, phase: Phase, t: usize) -> Result<()> {
        for d in 0..self.devices.len() {
            let dev_id = DeviceId(d);
            // Check the routing invariant on both inputs; a block no earlier
            // phase supplied fails it with an empty `actual`.
            for kind in phase.input_tensors() {
                let expected =
                    self.seq
                        .tensor_dsi(self.space, phase, kind, self.weight_has_batch, dev_id, t);
                let held = self.devices[d].blocks.get(&kind).map(|b| b.dsi.as_slice());
                if held != Some(expected.as_slice()) {
                    return Err(ExecError::MisroutedBlock {
                        phase,
                        step: t,
                        tensor: kind,
                        device: d,
                        actual: held.unwrap_or_default().to_vec(),
                        expected,
                    });
                }
            }
            let partial = self.partial_product(phase, d)?;
            let out_kind = phase.output_tensor();
            let out_dsi = self.seq.tensor_dsi(
                self.space,
                phase,
                out_kind,
                self.weight_has_batch,
                dev_id,
                t,
            );
            let dev = &mut self.devices[d];
            match dev.blocks.get_mut(&out_kind) {
                None => {
                    dev.blocks.insert(
                        out_kind,
                        Block {
                            dsi: out_dsi,
                            data: partial,
                        },
                    );
                }
                Some(acc) => {
                    if acc.dsi != out_dsi {
                        return Err(ExecError::MisroutedBlock {
                            phase,
                            step: t,
                            tensor: out_kind,
                            device: d,
                            expected: out_dsi,
                            actual: acc.dsi.clone(),
                        });
                    }
                    acc.data.add_assign(&partial)?;
                }
            }
        }
        Ok(())
    }

    /// Device `d`'s local product for `phase`: `O = I·W`, `dI = dO·Wᵀ` or
    /// `dW = Iᵀ·dO` on its blocks. A batched matmul multiplies batch by
    /// batch; a linear's `W` has no batch, so every operand folds its
    /// leading dimensions into rows and the product unfolds into the output
    /// block.
    fn partial_product(&self, phase: Phase, d: usize) -> Result<Tensor> {
        let [a_kind, b_kind] = phase.input_tensors();
        let blocks = &self.devices[d].blocks;
        let (a, b) = (&blocks[&a_kind].data, &blocks[&b_kind].data);
        let (ta, tb) = match phase {
            Phase::Forward => (false, false),
            Phase::Backward => (false, true),
            Phase::Gradient => (true, false),
        };
        if self.weight_has_batch {
            return Ok(a.batched_matmul(b, ta, tb)?);
        }
        let matrix = |t: &Tensor| {
            let cols = t.shape().dim(t.rank() - 1);
            t.reshape(vec![t.shape().volume() / cols, cols])
        };
        let out = matrix(a)?.matmul_ex(&matrix(b)?, ta, tb)?;
        Ok(out.reshape(self.block_dims(phase.output_tensor()))?)
    }

    /// Applies one simultaneous ring rotation: every device's `kind` block is
    /// replaced by the block of its sender `(r + Δr, c + Δc)` within the same
    /// temporal square group.
    fn apply_transfer(
        &mut self,
        phase: Phase,
        t: usize,
        kind: TensorKind,
        delta: (i64, i64),
    ) -> Result<()> {
        let k = self
            .seq
            .temporal_k()
            .expect("ring transfers imply a temporal primitive");
        let side = 1i64 << k;
        let faulty = self.fault
            == Some(FaultSpec {
                phase,
                step: t,
                tensor: kind,
            });
        let mut incoming: Vec<Option<Block>> = vec![None; self.devices.len()];
        for d in 0..self.devices.len() {
            let dev_id = DeviceId(d);
            let (r, c) = self
                .seq
                .square_coords(self.space, dev_id)
                .expect("temporal primitive present");
            let sr = (r as i64 + delta.0).rem_euclid(side) as usize;
            let sc = (c as i64 + delta.1).rem_euclid(side) as usize;
            let sender = if faulty && d == 0 {
                dev_id // mis-wired ring: device 0 receives its own block
            } else {
                self.device_with_coords(dev_id, sr, sc)
            };
            incoming[d] = Some(self.devices[sender.index()].blocks[&kind].clone());
        }
        for (d, block) in incoming.into_iter().enumerate() {
            self.devices[d]
                .blocks
                .insert(kind, block.expect("filled above"));
        }
        Ok(())
    }

    /// The device in the same temporal square group as `base` at coordinates
    /// `(r, c)`.
    fn device_with_coords(&self, base: DeviceId, r: usize, c: usize) -> DeviceId {
        let positions: Vec<usize> = self.seq.ring_indicator().positions().collect();
        let k = positions.len() / 2;
        let nb = self.space.n_bits();
        let mut idx = base.index();
        for j in 0..k {
            let rp = positions[2 * j];
            let cp = positions[2 * j + 1];
            let rb = (r >> (k - 1 - j)) & 1;
            let cb = (c >> (k - 1 - j)) & 1;
            let rshift = nb - rp;
            let cshift = nb - cp;
            idx = (idx & !(1 << rshift)) | (rb << rshift);
            idx = (idx & !(1 << cshift)) | (cb << cshift);
        }
        DeviceId(idx)
    }

    /// End-of-phase all-reduce of the output accumulator within the phase's
    /// all-reduce groups (empty indicator ⇒ no-op, feature 1).
    fn allreduce_output(&mut self, phase: Phase) -> Result<()> {
        let indicator = self.seq.allreduce_indicator(phase, self.weight_has_batch);
        if indicator.is_empty() {
            return Ok(());
        }
        let out_kind = phase.output_tensor();
        for group in self.space.groups(indicator) {
            let first = &self.devices[group[0].index()].blocks[&out_kind];
            let dsi = first.dsi.clone();
            let mut sum = first.data.clone();
            for member in &group[1..] {
                let block = &self.devices[member.index()].blocks[&out_kind];
                if block.dsi != dsi {
                    return Err(ExecError::MisroutedBlock {
                        phase,
                        step: self.seq.temporal_steps() - 1,
                        tensor: out_kind,
                        device: member.index(),
                        expected: dsi,
                        actual: block.dsi.clone(),
                    });
                }
                sum.add_assign(&block.data)?;
            }
            for member in &group {
                self.devices[member.index()].blocks.insert(
                    out_kind,
                    Block {
                        dsi: dsi.clone(),
                        data: sum.clone(),
                    },
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use primepar_partition::Primitive;
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
        let w = Tensor::randn(vec![SHAPE.n, SHAPE.k], 1.0, &mut rng);
        let d_o = Tensor::randn(vec![SHAPE.b, SHAPE.m, SHAPE.k], 1.0, &mut rng);
        (i, w, d_o)
    }

    /// Runs one distributed training step under `prims` and checks all four
    /// results against the serial reference.
    fn check_equivalence(prims: Vec<Primitive>) {
        let seq = PartitionSeq::new(prims).unwrap();
        let label = seq.to_string();
        let (i, w, d_o) = fixtures(42);
        let mut dist = DistLinear::new(seq, SHAPE).unwrap();
        let (o, d_i, d_w, w_new) = dist.train_step(&i, &w, &d_o, 0.01).unwrap();
        let (o_ref, d_i_ref, d_w_ref, w_ref) = reference::train_step(&i, &w, &d_o, 0.01).unwrap();
        assert!(
            o.allclose(&o_ref, 1e-3),
            "{label}: O mismatch {}",
            o.max_abs_diff(&o_ref)
        );
        assert!(
            d_i.allclose(&d_i_ref, 1e-3),
            "{label}: dI mismatch {}",
            d_i.max_abs_diff(&d_i_ref)
        );
        assert!(
            d_w.allclose(&d_w_ref, 1e-3),
            "{label}: dW mismatch {}",
            d_w.max_abs_diff(&d_w_ref)
        );
        assert!(
            w_new.allclose(&w_ref, 1e-3),
            "{label}: W mismatch {}",
            w_new.max_abs_diff(&w_ref)
        );
    }

    #[test]
    fn serial_sequence_is_identity() {
        check_equivalence(vec![]);
    }

    #[test]
    fn single_splits_match_reference() {
        for dim in Dim::ALL {
            check_equivalence(vec![Primitive::Split(dim)]);
        }
    }

    #[test]
    fn megatron_style_column_row_matches_reference() {
        // Column (K) split and row (N) split — Megatron's two linear modes.
        check_equivalence(vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]);
        check_equivalence(vec![Primitive::Split(Dim::N), Primitive::Split(Dim::N)]);
    }

    #[test]
    fn data_model_mix_matches_reference() {
        check_equivalence(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::N)]);
        check_equivalence(vec![Primitive::Split(Dim::M), Primitive::Split(Dim::K)]);
        check_equivalence(vec![Primitive::Split(Dim::M), Primitive::Split(Dim::N)]);
    }

    #[test]
    fn temporal_p2x2_matches_reference() {
        check_equivalence(vec![Primitive::Temporal { k: 1 }]);
    }

    #[test]
    fn temporal_p4x4_matches_reference() {
        check_equivalence(vec![Primitive::Temporal { k: 2 }]);
    }

    #[test]
    fn temporal_p8x8_matches_reference() {
        // 64 devices, 8 temporal steps — exceeds the paper's largest square.
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 3 }]).unwrap();
        let shape = LinearShape {
            b: 2,
            m: 8,
            n: 8,
            k: 8,
        };
        let mut rng = StdRng::seed_from_u64(64);
        let i = Tensor::randn(vec![2, 8, 8], 1.0, &mut rng);
        let w = Tensor::randn(vec![8, 8], 1.0, &mut rng);
        let d_o = Tensor::randn(vec![2, 8, 8], 1.0, &mut rng);
        let mut dist = DistLinear::new(seq, shape).unwrap();
        let (o, d_i, d_w, w_new) = dist.train_step(&i, &w, &d_o, 0.01).unwrap();
        let (o_r, d_i_r, d_w_r, w_r) = reference::train_step(&i, &w, &d_o, 0.01).unwrap();
        assert!(o.allclose(&o_r, 1e-3));
        assert!(d_i.allclose(&d_i_r, 1e-3));
        assert!(d_w.allclose(&d_w_r, 1e-3));
        assert!(w_new.allclose(&w_r, 1e-3));
    }

    #[test]
    fn temporal_composed_with_splits_matches_reference() {
        check_equivalence(vec![Primitive::Split(Dim::B), Primitive::Temporal { k: 1 }]);
        check_equivalence(vec![Primitive::Temporal { k: 1 }, Primitive::Split(Dim::N)]);
        check_equivalence(vec![Primitive::Split(Dim::N), Primitive::Temporal { k: 1 }]);
        check_equivalence(vec![
            Primitive::Split(Dim::M),
            Primitive::Temporal { k: 1 },
            Primitive::Split(Dim::K),
        ]);
    }

    #[test]
    fn indivisible_shape_is_rejected() {
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 2 }]).unwrap();
        // n = 8 divides by 4, but m = 6 does not.
        let err = DistLinear::new(
            seq,
            LinearShape {
                b: 4,
                m: 6,
                n: 8,
                k: 8,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Indivisible { dim: Dim::M, .. }));
    }

    #[test]
    fn fault_injection_is_detected() {
        let (i, w, d_o) = fixtures(7);
        for fault in [
            FaultSpec {
                phase: Phase::Forward,
                step: 0,
                tensor: TensorKind::Input,
            },
            FaultSpec {
                phase: Phase::Backward,
                step: 0,
                tensor: TensorKind::Weight,
            },
            FaultSpec {
                phase: Phase::Gradient,
                step: 1,
                tensor: TensorKind::GradWeight,
            },
        ] {
            let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
            let mut dist = DistLinear::new(seq, SHAPE).unwrap();
            dist.inject_fault(fault);
            let err = dist.train_step(&i, &w, &d_o, 0.01).unwrap_err();
            assert!(
                matches!(err, ExecError::MisroutedBlock { .. }),
                "fault {fault:?} went undetected"
            );
        }
    }

    #[test]
    fn adam_updates_match_serial_adam_over_iterations() {
        // The moments shard with the weight and never move: three Adam steps
        // under P_{2x2} must equal serial Adam exactly.
        let (lr, b1, b2, eps) = (0.01, 0.9, 0.999, 1e-8);
        let mut rng = StdRng::seed_from_u64(21);
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
        let mut dist = DistLinear::new(seq, SHAPE).unwrap();
        let mut w = Tensor::randn(vec![SHAPE.n, SHAPE.k], 1.0, &mut rng);
        let mut state = crate::reference::AdamState::new(w.shape());
        for step in 1..=3u32 {
            let i = Tensor::randn(vec![SHAPE.b, SHAPE.m, SHAPE.n], 1.0, &mut rng);
            let d_o = Tensor::randn(vec![SHAPE.b, SHAPE.m, SHAPE.k], 1.0, &mut rng);
            dist.scatter(&i, &w).unwrap();
            dist.forward().unwrap();
            dist.backward(&d_o).unwrap();
            dist.gradient().unwrap();
            dist.apply_adam(lr, b1, b2, eps, step).unwrap();
            let w_dist = dist.weight().unwrap();

            let d_w = crate::reference::gradient(&i, &d_o).unwrap();
            w = state.step(&w, &d_w, lr, b1, b2, eps, step);
            assert!(
                w_dist.allclose(&w, 1e-3),
                "step {step}: diff {}",
                w_dist.max_abs_diff(&w)
            );
        }
    }

    #[test]
    fn adam_requires_gradient_phase() {
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
        let mut dist = DistLinear::new(seq, SHAPE).unwrap();
        let (i, w, _) = fixtures(3);
        dist.scatter(&i, &w).unwrap();
        dist.forward().unwrap();
        assert!(dist.apply_adam(0.01, 0.9, 0.999, 1e-8, 1).is_err());
    }

    /// A linear under `P_{2x2}` and a batched matmul under a batch split.
    fn executors() -> [DistLinear; 2] {
        let temporal = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
        let batch = PartitionSeq::new(vec![Primitive::Split(Dim::B)]).unwrap();
        [
            DistLinear::new(temporal, SHAPE).unwrap(),
            DistLinear::batched(batch, SHAPE).unwrap(),
        ]
    }

    #[test]
    fn forward_requires_scatter() {
        for mut dist in executors() {
            let err = dist.forward().unwrap_err();
            assert!(
                matches!(
                    &err,
                    ExecError::MisroutedBlock {
                        phase: Phase::Forward,
                        step: 0,
                        tensor: TensorKind::Input,
                        device: 0,
                        actual,
                        ..
                    } if actual.is_empty()
                ),
                "{err:?}"
            );
            assert_eq!(err.to_string(), "Forward step 0: device 0 holds no I block");
        }
    }

    #[test]
    fn gradient_requires_backward() {
        let (i, _, _) = fixtures(5);
        let mut rng = StdRng::seed_from_u64(5);
        let weights = [
            Tensor::randn(vec![SHAPE.n, SHAPE.k], 1.0, &mut rng),
            Tensor::randn(vec![SHAPE.b, SHAPE.n, SHAPE.k], 1.0, &mut rng),
        ];
        for (mut dist, w) in executors().into_iter().zip(&weights) {
            dist.scatter(&i, w).unwrap();
            dist.forward().unwrap();
            let err = dist.gradient().unwrap_err();
            assert!(
                matches!(
                    err,
                    ExecError::MisroutedBlock {
                        phase: Phase::Gradient,
                        tensor: TensorKind::GradOutput,
                        device: 0,
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn weight_distribution_returns_to_start_after_iteration() {
        // Feature 3's weight cycle, observed functionally: after a full
        // iteration with lr = 0 the gathered weight equals the original.
        let (i, w, d_o) = fixtures(9);
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
        let mut dist = DistLinear::new(seq, SHAPE).unwrap();
        let (_, _, _, w_new) = dist.train_step(&i, &w, &d_o, 0.0).unwrap();
        assert!(w_new.allclose(&w, 0.0));
    }
}
