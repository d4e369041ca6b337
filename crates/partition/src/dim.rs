use std::fmt;

/// The four logical dimensions of a matmul-like operator (paper Eq. 1):
/// `O[B, M, K] = Σ_N I[B, M, N] · W[N, K]`, i.e. `B` = batch, `M` = sequence,
/// `N` = input hidden (summed over in forward), `K` = output hidden.
///
/// Pointwise operators are embedded in the same template with the unused
/// dimensions given extent 1, so a single DSI machinery covers the whole
/// operator taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dim {
    /// Batch dimension.
    B,
    /// Sequence (row) dimension of the activation.
    M,
    /// Input-hidden dimension; the forward contraction dimension.
    N,
    /// Output-hidden dimension.
    K,
}

impl Dim {
    /// All four dimensions in canonical order.
    pub const ALL: [Dim; 4] = [Dim::B, Dim::M, Dim::N, Dim::K];

    /// Canonical index 0..4.
    pub fn index(self) -> usize {
        match self {
            Dim::B => 0,
            Dim::M => 1,
            Dim::N => 2,
            Dim::K => 3,
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dim::B => "B",
            Dim::M => "M",
            Dim::N => "N",
            Dim::K => "K",
        };
        write!(f, "{s}")
    }
}

/// The three phases of one training iteration of an operator (paper §3.1):
/// forward (`O = I·W`), backward (`dI = dO·Wᵀ`) and gradient (`dW = Iᵀ·dO`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Output computation `O = I·W`; contraction over [`Dim::N`].
    Forward,
    /// Input-gradient computation `dI = dO·Wᵀ`; contraction over [`Dim::K`].
    Backward,
    /// Weight-gradient computation `dW = Iᵀ·dO`; contraction over
    /// [`Dim::B`] and [`Dim::M`].
    Gradient,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 3] = [Phase::Forward, Phase::Backward, Phase::Gradient];

    /// The dimensions mathematically summed over in this phase. Distributing
    /// slices of these dimensions to *different devices* produces partial sums
    /// and hence all-reduce (paper §2.2); distributing them along the temporal
    /// dimension sums them locally (§3.3, feature 1).
    pub fn reduce_dims(self) -> &'static [Dim] {
        match self {
            Phase::Forward => &[Dim::N],
            Phase::Backward => &[Dim::K],
            Phase::Gradient => &[Dim::B, Dim::M],
        }
    }

    /// The two tensors read by this phase.
    pub fn input_tensors(self) -> [TensorKind; 2] {
        match self {
            Phase::Forward => [TensorKind::Input, TensorKind::Weight],
            Phase::Backward => [TensorKind::GradOutput, TensorKind::Weight],
            Phase::Gradient => [TensorKind::Input, TensorKind::GradOutput],
        }
    }

    /// The tensor produced (and locally accumulated across temporal steps) by
    /// this phase.
    pub fn output_tensor(self) -> TensorKind {
        match self {
            Phase::Forward => TensorKind::Output,
            Phase::Backward => TensorKind::GradInput,
            Phase::Gradient => TensorKind::GradWeight,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Forward => "Forward",
            Phase::Backward => "Backward",
            Phase::Gradient => "Gradient",
        };
        write!(f, "{s}")
    }
}

/// The six tensors that appear across the three phases of a matmul-like
/// operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Activation input `I[B, M, N]`.
    Input,
    /// Weight `W[N, K]` (or `W[B, N, K]` for batched matmuls).
    Weight,
    /// Activation output `O[B, M, K]`.
    Output,
    /// Input gradient `dI[B, M, N]`.
    GradInput,
    /// Output gradient `dO[B, M, K]`.
    GradOutput,
    /// Weight gradient `dW[N, K]` (or `dW[B, N, K]` for batched matmuls).
    GradWeight,
}

impl TensorKind {
    /// All tensor kinds.
    pub const ALL: [TensorKind; 6] = [
        TensorKind::Input,
        TensorKind::Weight,
        TensorKind::Output,
        TensorKind::GradInput,
        TensorKind::GradOutput,
        TensorKind::GradWeight,
    ];

    /// The dimensions this tensor contains. `weight_has_batch` selects the
    /// batched-matmul variant where the "weight" operand is itself an
    /// activation carrying the batch dimension (attention score/value
    /// matmuls).
    pub fn dims(self, weight_has_batch: bool) -> &'static [Dim] {
        match self {
            TensorKind::Input | TensorKind::GradInput => &[Dim::B, Dim::M, Dim::N],
            TensorKind::Output | TensorKind::GradOutput => &[Dim::B, Dim::M, Dim::K],
            TensorKind::Weight | TensorKind::GradWeight => {
                if weight_has_batch {
                    &[Dim::B, Dim::N, Dim::K]
                } else {
                    &[Dim::N, Dim::K]
                }
            }
        }
    }
}

impl fmt::Display for TensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TensorKind::Input => "I",
            TensorKind::Weight => "W",
            TensorKind::Output => "O",
            TensorKind::GradInput => "dI",
            TensorKind::GradOutput => "dO",
            TensorKind::GradWeight => "dW",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_dims_per_phase() {
        assert_eq!(Phase::Forward.reduce_dims(), &[Dim::N]);
        assert_eq!(Phase::Backward.reduce_dims(), &[Dim::K]);
        assert_eq!(Phase::Gradient.reduce_dims(), &[Dim::B, Dim::M]);
    }

    #[test]
    fn phase_tensor_roles() {
        assert_eq!(Phase::Forward.output_tensor(), TensorKind::Output);
        assert_eq!(
            Phase::Backward.input_tensors(),
            [TensorKind::GradOutput, TensorKind::Weight]
        );
        assert_eq!(Phase::Gradient.output_tensor(), TensorKind::GradWeight);
    }

    #[test]
    fn tensor_dims_cover_eq1() {
        assert_eq!(TensorKind::Input.dims(false), &[Dim::B, Dim::M, Dim::N]);
        assert_eq!(TensorKind::Weight.dims(false), &[Dim::N, Dim::K]);
        assert_eq!(TensorKind::Weight.dims(true), &[Dim::B, Dim::N, Dim::K]);
        assert_eq!(TensorKind::Output.dims(false), &[Dim::B, Dim::M, Dim::K]);
    }

    #[test]
    fn reduce_dim_is_absent_from_phase_output() {
        for phase in Phase::ALL {
            let out_dims = phase.output_tensor().dims(false);
            for rd in phase.reduce_dims() {
                assert!(
                    !out_dims.contains(rd),
                    "{phase}: output contains reduce dim {rd}"
                );
            }
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Dim::N.to_string(), "N");
        assert_eq!(Phase::Gradient.to_string(), "Gradient");
        assert_eq!(TensorKind::GradWeight.to_string(), "dW");
    }
}
