use std::fmt;

use primepar_partition::{Dim, Phase};

use crate::Axis;

/// Normalization flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormKind {
    /// LayerNorm with affine `γ, β` (OPT, BLOOM).
    Layer,
    /// RMSNorm with scale `γ` only (Llama2).
    Rms,
}

/// Activation flavour (affects only the point-wise FLOP constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActKind {
    /// ReLU (OPT).
    Relu,
    /// GeLU (BLOOM).
    Gelu,
    /// SiLU / SwiGLU gate (Llama2).
    Silu,
}

/// The operator taxonomy of a transformer block (paper §3.2 "Other Operators
/// in Transformer").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Dense linear layer `O = I·W` with a trainable weight. Supports all
    /// four splits and the temporal primitive.
    Linear,
    /// Batched matrix multiplication inside attention (`QKᵀ` or `scores·V`).
    /// The "weight" operand is an activation carrying the batch dimension;
    /// the head-embed dimension is never partitioned (§3.2), which also rules
    /// out the temporal primitive here (it would split all of M, N, K).
    BatchedMatmul,
    /// Softmax over the last (`K`) dimension; that dimension cannot be
    /// partitioned (§3.2).
    Softmax,
    /// Layer/RMS normalization over the hidden (`K`) dimension; all
    /// dimensions partitionable, with small collective traffic for the
    /// statistics and `γ, β` gradients when split (§3.2).
    Norm(NormKind),
    /// Activation function.
    Activation(ActKind),
    /// Element-wise combination (residual add).
    Elementwise,
    /// Token-embedding lookup: mathematically `onehot(ids) · W[vocab, hidden]`
    /// — matmul-like with `N = vocab`, so a vocab split (`Split(N)`) is
    /// Megatron's vocab-parallel embedding (partial rows + all-reduce), but
    /// gather-bound in compute and with no activation stash.
    Embedding,
}

/// One node of the computation graph: an operator instance with concrete
/// dimension extents and axis decompositions.
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    /// Human-readable name (e.g. `"fc1"`).
    pub name: String,
    /// Operator class.
    pub kind: OpKind,
    /// Extents of `[B, M, N, K]`; unused dimensions are 1.
    pub extents: [u64; 4],
    /// Axis decomposition of each dimension, major axis first. The product of
    /// axis extents equals the dimension extent (axes with extent 1 elided).
    pub axes: [Vec<(Axis, u64)>; 4],
}

impl Operator {
    /// Extent of a logical dimension.
    pub fn extent(&self, dim: Dim) -> u64 {
        self.extents[dim.index()]
    }

    /// `true` for matmul-like operators (the ones with a real contraction).
    pub fn is_matmul_like(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Linear | OpKind::BatchedMatmul | OpKind::Embedding
        )
    }

    /// `true` when the operator owns a trainable weight tensor.
    pub fn has_weight(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Linear | OpKind::Norm(_) | OpKind::Embedding
        )
    }

    /// `true` when the "weight" operand carries the batch dimension (batched
    /// matmuls, where both operands are activations).
    pub fn weight_has_batch(&self) -> bool {
        matches!(self.kind, OpKind::BatchedMatmul)
    }

    /// The dimensions a `Split` primitive may partition.
    pub fn allowed_splits(&self) -> Vec<Dim> {
        match self.kind {
            OpKind::Linear => vec![Dim::B, Dim::M, Dim::N, Dim::K],
            // Head-embed is N for QKᵀ and K for scores·V; the caller encodes
            // this by leaving the embed dimension out of `partitionable` via
            // extents — we conservatively exclude any dimension whose axis
            // list contains Embed, plus respect softmax's last dim.
            OpKind::BatchedMatmul => Dim::ALL
                .into_iter()
                .filter(|&d| !self.axes[d.index()].iter().any(|&(a, _)| a == Axis::Embed))
                .filter(|&d| self.extent(d) > 1)
                .collect(),
            OpKind::Softmax => vec![Dim::B, Dim::M],
            OpKind::Norm(_) | OpKind::Activation(_) | OpKind::Elementwise => {
                vec![Dim::B, Dim::M, Dim::K]
            }
            OpKind::Embedding => vec![Dim::B, Dim::M, Dim::N, Dim::K],
        }
    }

    /// `true` when the temporal primitive `P_{2^k×2^k}` applies: it splits
    /// `M`, `N` and `K` simultaneously, so all three must be partitionable.
    pub fn allows_temporal(&self) -> bool {
        matches!(self.kind, OpKind::Linear)
    }

    /// The dimension that carries the *sample batch*: `B` for most operators,
    /// but attention operators fold the batch into `M` (their `B` is heads).
    /// The controlled-`d` 3D study (§6.4) disables splits of this dimension.
    pub fn sample_batch_dim(&self) -> Dim {
        match self.kind {
            OpKind::BatchedMatmul | OpKind::Softmax => Dim::M,
            _ => Dim::B,
        }
    }

    /// Floating-point operations of one execution of `phase` (whole operator,
    /// all devices, all steps).
    ///
    /// # Example
    ///
    /// ```
    /// use primepar_graph::ModelConfig;
    /// use primepar_partition::Phase;
    ///
    /// let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
    /// let fc1 = &graph.ops[9];
    /// // A matmul's three phases cost the same FLOPs.
    /// assert_eq!(fc1.flops(Phase::Forward), fc1.flops(Phase::Gradient));
    /// assert_eq!(fc1.flops(Phase::Forward), 2.0 * 8.0 * 2048.0 * 4096.0 * 16384.0);
    /// ```
    pub fn flops(&self, phase: Phase) -> f64 {
        let [b, m, n, k] = self.extents.map(|e| e as f64);
        match self.kind {
            OpKind::Linear | OpKind::BatchedMatmul => 2.0 * b * m * n * k,
            // A gather reads/writes B·M·K elements; backward scatters into dW.
            OpKind::Embedding => match phase {
                Phase::Forward | Phase::Gradient => b * m * k,
                Phase::Backward => 0.0,
            },
            OpKind::Softmax => match phase {
                Phase::Forward => 5.0 * b * m * k,
                Phase::Backward => 4.0 * b * m * k,
                Phase::Gradient => 0.0,
            },
            OpKind::Norm(_) => match phase {
                Phase::Forward => 7.0 * b * m * k,
                Phase::Backward => 9.0 * b * m * k,
                Phase::Gradient => 2.0 * b * m * k,
            },
            OpKind::Activation(act) => {
                let c = match act {
                    ActKind::Relu => 1.0,
                    ActKind::Gelu => 8.0,
                    ActKind::Silu => 5.0,
                };
                match phase {
                    Phase::Forward => c * b * m * k,
                    Phase::Backward => (c + 1.0) * b * m * k,
                    Phase::Gradient => 0.0,
                }
            }
            OpKind::Elementwise => match phase {
                Phase::Forward | Phase::Backward => b * m * k,
                Phase::Gradient => 0.0,
            },
        }
    }

    /// Elements of the trainable weight (0 for weight-less operators; batched
    /// matmuls' second operand is an activation, not a weight).
    pub fn weight_elems(&self) -> f64 {
        match self.kind {
            OpKind::Linear | OpKind::Embedding => (self.extents[2] * self.extents[3]) as f64,
            OpKind::Norm(NormKind::Layer) => 2.0 * self.extents[3] as f64,
            OpKind::Norm(NormKind::Rms) => self.extents[3] as f64,
            _ => 0.0,
        }
    }

    /// Volume of the second (weight-role) operand in elements — the trainable
    /// weight for linears, the activation operand for batched matmuls.
    pub fn weight_volume(&self) -> f64 {
        let [b, _, n, k] = self.extents.map(|e| e as f64);
        match self.kind {
            OpKind::Linear | OpKind::Embedding => n * k,
            OpKind::BatchedMatmul => b * n * k,
            OpKind::Norm(_) | OpKind::Softmax | OpKind::Activation(_) | OpKind::Elementwise => 0.0,
        }
    }

    /// Elements stashed at forward time for reuse in backward/gradient
    /// (paper §4.1's peak-memory model): the forward input for matmul-like
    /// and most point-wise operators, plus the softmax output (its backward
    /// needs `y`, not `x`).
    pub fn stash_elems(&self) -> f64 {
        let [b, m, n, k] = self.extents.map(|e| e as f64);
        match self.kind {
            OpKind::Linear => b * m * n,
            // Only the token ids (negligible) are needed for backward.
            OpKind::Embedding => 0.0,
            // Both operands of a batched matmul are activations and both are
            // needed by the two gradient computations.
            OpKind::BatchedMatmul => b * m * n + b * n * k,
            OpKind::Softmax => b * m * k,
            OpKind::Norm(_) => b * m * k + 2.0 * b * m,
            OpKind::Activation(_) => b * m * k,
            OpKind::Elementwise => 0.0,
        }
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{:?} B{} M{} N{} K{}]",
            self.name,
            self.kind,
            self.extents[0],
            self.extents[1],
            self.extents[2],
            self.extents[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(b: u64, m: u64, n: u64, k: u64) -> Operator {
        Operator {
            name: "lin".into(),
            kind: OpKind::Linear,
            extents: [b, m, n, k],
            axes: [
                vec![(Axis::Batch, b)],
                vec![(Axis::Seq, m)],
                vec![(Axis::Hidden, n)],
                vec![(Axis::Hidden, k)],
            ],
        }
    }

    #[test]
    fn linear_flops_symmetric_across_phases() {
        let op = linear(2, 4, 8, 16);
        let f = op.flops(Phase::Forward);
        assert_eq!(f, 2.0 * 2.0 * 4.0 * 8.0 * 16.0);
        assert_eq!(op.flops(Phase::Backward), f);
        assert_eq!(op.flops(Phase::Gradient), f);
    }

    #[test]
    fn linear_allows_everything() {
        let op = linear(2, 4, 8, 16);
        assert_eq!(op.allowed_splits(), vec![Dim::B, Dim::M, Dim::N, Dim::K]);
        assert!(op.allows_temporal());
        assert!(op.has_weight());
        assert!(!op.weight_has_batch());
    }

    #[test]
    fn batched_matmul_excludes_embed_dimension() {
        // QKᵀ: N is the head-embed.
        let op = Operator {
            name: "qk".into(),
            kind: OpKind::BatchedMatmul,
            extents: [64, 128, 64, 128],
            axes: [
                vec![(Axis::Batch, 2), (Axis::Head, 32)],
                vec![(Axis::Seq, 128)],
                vec![(Axis::Embed, 64)],
                vec![(Axis::SeqKv, 128)],
            ],
        };
        let splits = op.allowed_splits();
        assert!(splits.contains(&Dim::B));
        assert!(splits.contains(&Dim::M));
        assert!(splits.contains(&Dim::K));
        assert!(
            !splits.contains(&Dim::N),
            "head-embed must not be partitionable"
        );
        assert!(!op.allows_temporal());
        assert!(op.weight_has_batch());
        assert!(!op.has_weight());
    }

    #[test]
    fn softmax_protects_last_dimension() {
        let op = Operator {
            name: "softmax".into(),
            kind: OpKind::Softmax,
            extents: [64, 128, 1, 128],
            axes: [
                vec![(Axis::Batch, 2), (Axis::Head, 32)],
                vec![(Axis::Seq, 128)],
                vec![],
                vec![(Axis::SeqKv, 128)],
            ],
        };
        assert_eq!(op.allowed_splits(), vec![Dim::B, Dim::M]);
        assert_eq!(op.flops(Phase::Gradient), 0.0);
        assert!(op.stash_elems() > 0.0);
    }

    #[test]
    fn norm_weights_and_stash() {
        let mut op = Operator {
            name: "ln".into(),
            kind: OpKind::Norm(NormKind::Layer),
            extents: [2, 4, 1, 8],
            axes: [
                vec![(Axis::Batch, 2)],
                vec![(Axis::Seq, 4)],
                vec![],
                vec![(Axis::Hidden, 8)],
            ],
        };
        assert_eq!(op.weight_elems(), 16.0);
        op.kind = OpKind::Norm(NormKind::Rms);
        assert_eq!(op.weight_elems(), 8.0);
        assert_eq!(op.allowed_splits(), vec![Dim::B, Dim::M, Dim::K]);
    }
}
