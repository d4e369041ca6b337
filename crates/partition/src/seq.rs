use std::error::Error;
use std::fmt;

use primepar_topology::{DeviceId, DeviceSpace, GroupIndicator};

use crate::{Dim, Phase, Primitive, TensorKind};

/// Error raised when constructing an invalid partition sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// More than one temporal primitive in a sequence. The paper specifies the
    /// communication schedule (Table 1) for a single `P_{2^k×2^k}` per
    /// operator; every strategy in the paper's evaluation uses at most one.
    MultipleTemporal,
    /// The sequence consumes a different number of device-ID bits than the
    /// device space provides.
    BitMismatch {
        /// Bits consumed by the sequence.
        seq_bits: usize,
        /// Bits available in the device space.
        space_bits: usize,
    },
    /// A token in a textual sequence was not recognized.
    ParseToken(String),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::MultipleTemporal => {
                write!(
                    f,
                    "a partition sequence may contain at most one temporal primitive"
                )
            }
            PartitionError::BitMismatch {
                seq_bits,
                space_bits,
            } => write!(
                f,
                "sequence consumes {seq_bits} device bits but the space has {space_bits}"
            ),
            PartitionError::ParseToken(tok) => {
                write!(
                    f,
                    "unrecognized partition token `{tok}` (expected B/M/N/K or P<s>x<s>)"
                )
            }
        }
    }
}

impl Error for PartitionError {}

/// A partition sequence `𝒫`: the ordered list of primitives that Algorithm 1
/// folds into DSIs. The first primitive is the outermost (coarsest) split.
///
/// # Example
///
/// ```
/// use primepar_partition::{Dim, PartitionSeq, Primitive};
///
/// // The paper's Fig. 3 example: partition M, then N, over 4 devices.
/// let seq = PartitionSeq::new(vec![
///     Primitive::Split(Dim::M),
///     Primitive::Split(Dim::N),
/// ])?;
/// assert_eq!(seq.bits(), 2);
/// assert_eq!(seq.num_slices(Dim::M), 2);
/// assert_eq!(seq.temporal_steps(), 1);
/// # Ok::<(), primepar_partition::PartitionError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PartitionSeq {
    prims: Vec<Primitive>,
    bits: usize,
    /// `(index into prims, k, 0-based bit offset of the primitive's first bit)`.
    temporal: Option<(usize, u32, usize)>,
}

impl PartitionSeq {
    /// Builds a sequence, validating the single-temporal restriction.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::MultipleTemporal`] if more than one
    /// [`Primitive::Temporal`] appears.
    pub fn new(prims: Vec<Primitive>) -> Result<Self, PartitionError> {
        let mut bits = 0;
        let mut temporal = None;
        for (i, p) in prims.iter().enumerate() {
            if let Primitive::Temporal { k } = *p {
                if temporal.is_some() {
                    return Err(PartitionError::MultipleTemporal);
                }
                temporal = Some((i, k, bits));
            }
            bits += p.bits();
        }
        Ok(PartitionSeq {
            prims,
            bits,
            temporal,
        })
    }

    /// The trivial sequence: no partitioning (single device).
    pub fn serial() -> Self {
        PartitionSeq {
            prims: Vec::new(),
            bits: 0,
            temporal: None,
        }
    }

    /// The primitives in order (outermost first).
    pub fn primitives(&self) -> &[Primitive] {
        &self.prims
    }

    /// Total device-ID bits consumed; the sequence parallelizes over
    /// `2^bits()` devices.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of devices the sequence parallelizes over.
    pub fn num_devices(&self) -> usize {
        1 << self.bits
    }

    /// `k` of the temporal primitive, if present.
    pub fn temporal_k(&self) -> Option<u32> {
        self.temporal.map(|(_, k, _)| k)
    }

    /// Number of temporal steps per phase: `2^k` with a temporal primitive,
    /// otherwise 1.
    pub fn temporal_steps(&self) -> usize {
        self.temporal.map_or(1, |(_, k, _)| 1usize << k)
    }

    /// Number of slices dimension `dim` is cut into.
    pub fn num_slices(&self, dim: Dim) -> usize {
        self.prims.iter().map(|p| p.slice_factor(dim)).product()
    }

    /// Number of distinct blocks a tensor of `kind` is cut into (the product
    /// of its dimensions' slice counts).
    pub fn tensor_blocks(&self, kind: TensorKind, weight_has_batch: bool) -> usize {
        kind.dims(weight_has_batch)
            .iter()
            .map(|&d| self.num_slices(d))
            .product()
    }

    /// The `(row, column)` of `device` within the temporal primitive's logical
    /// `2^k × 2^k` square (Algorithm 1 lines 9–10), or `None` if the sequence
    /// has no temporal primitive.
    ///
    /// # Panics
    ///
    /// Panics if the sequence's bit count does not match `space`.
    pub fn square_coords(&self, space: DeviceSpace, device: DeviceId) -> Option<(usize, usize)> {
        self.check_space(space);
        let (_, k, offset) = self.temporal?;
        let k = k as usize;
        let mut r = 0;
        let mut c = 0;
        for j in 0..k {
            // Row bits at even offsets d_i, d_{i+2}, ...; column bits at odd.
            r = (r << 1) | space.bit(device, offset + 2 * j + 1);
            c = (c << 1) | space.bit(device, offset + 2 * j + 2);
        }
        Some((r, c))
    }

    /// Algorithm 1: the DSI `I_dim^phase(device, t)` — which slice of `dim`
    /// the sub-operator executed by `device` at temporal step `t` holds.
    ///
    /// # Panics
    ///
    /// Panics if the sequence's bit count does not match `space`, or
    /// `t >= temporal_steps()`.
    pub fn dsi(
        &self,
        space: DeviceSpace,
        phase: Phase,
        dim: Dim,
        device: DeviceId,
        t: usize,
    ) -> usize {
        self.check_space(space);
        assert!(t < self.temporal_steps(), "step {t} out of range");
        let mut dsi = 0usize;
        let mut bit_pos = 1usize; // next unconsumed device bit (1-based)
        for prim in &self.prims {
            match *prim {
                Primitive::Split(d) => {
                    if d == dim {
                        dsi = 2 * dsi + space.bit(device, bit_pos);
                    }
                    bit_pos += 1;
                }
                Primitive::Temporal { k } => {
                    // A sequence has one square, so these are its coordinates.
                    let (r, c) = self.square_coords(space, device).expect("temporal");
                    if let Some(v) = square_slice(phase, dim, k, t, r, c) {
                        dsi = (dsi << k) + v;
                    }
                    bit_pos += 2 * k as usize;
                }
            }
        }
        dsi
    }

    /// The full DSI tuple of a tensor: one slice index per tensor dimension,
    /// in the tensor's canonical dimension order.
    pub fn tensor_dsi(
        &self,
        space: DeviceSpace,
        phase: Phase,
        kind: TensorKind,
        weight_has_batch: bool,
        device: DeviceId,
        t: usize,
    ) -> Vec<usize> {
        kind.dims(weight_has_batch)
            .iter()
            .map(|&d| self.dsi(space, phase, d, device, t))
            .collect()
    }

    /// The all-reduce *group indicator* of this sequence in `phase` (paper
    /// §4.1): the device-ID bit positions consumed by `Split` primitives of
    /// that phase's reduce dimensions. Devices within a group compute partial
    /// sums of the same output block and must all-reduce; an empty indicator
    /// means the phase needs no collective communication.
    ///
    /// `weight_has_batch` selects the batched-matmul variant: there the
    /// gradient of the second operand retains the batch dimension, so a batch
    /// split partitions (rather than partial-sums) the gradient and induces
    /// no all-reduce.
    pub fn allreduce_indicator(&self, phase: Phase, weight_has_batch: bool) -> GroupIndicator {
        let out_dims = phase.output_tensor().dims(weight_has_batch);
        let mut indicator = GroupIndicator::empty();
        let mut bit_pos = 1usize;
        for prim in &self.prims {
            if let Primitive::Split(d) = *prim {
                if phase.reduce_dims().contains(&d) && !out_dims.contains(&d) {
                    indicator.insert(bit_pos);
                }
            }
            bit_pos += prim.bits();
        }
        indicator
    }

    /// The ring-communication group indicator: the bit positions consumed by
    /// the temporal primitive. Ring point-to-point exchanges stay within these
    /// groups (§6.3's "ring communications happen in groups with group
    /// indicator (d₂, d₃)"). Empty if there is no temporal primitive.
    pub fn ring_indicator(&self) -> GroupIndicator {
        match self.temporal {
            None => GroupIndicator::empty(),
            Some((_, k, offset)) => GroupIndicator::new((1..=2 * k as usize).map(|j| offset + j)),
        }
    }

    /// The indicator of all bits consumed by `Split(d)` primitives for any
    /// `d` in `dims`.
    pub fn split_indicator(&self, dims: &[Dim]) -> GroupIndicator {
        let mut indicator = GroupIndicator::empty();
        let mut bit_pos = 1usize;
        for prim in &self.prims {
            if matches!(*prim, Primitive::Split(d) if dims.contains(&d)) {
                indicator.insert(bit_pos);
            }
            bit_pos += prim.bits();
        }
        indicator
    }

    fn check_space(&self, space: DeviceSpace) {
        assert_eq!(
            self.bits,
            space.n_bits(),
            "sequence consumes {} bits but space has {}",
            self.bits,
            space.n_bits()
        );
    }

    /// Algorithm 1 over the whole device space: for every device, in index
    /// order, the mixed-radix index of its DSI tuple over `dims` (radix
    /// `num_slices(dim)`, the first dimension most significant) at `phase`
    /// and step `t`, written into `out`. Each primitive reads only the
    /// device bits it consumes, and the first primitive's bits are the most
    /// significant, so the column is the outer sum, in primitive order, of
    /// one digit table per primitive: a split contributes `{0, w}`, a
    /// `P_{2^k×2^k}` one entry per square cell. Decoded, each index is
    /// [`dsi`](PartitionSeq::dsi) on every dimension.
    ///
    /// # Panics
    ///
    /// Panics like `dsi` on a space/bit mismatch or `t` out of range.
    pub fn dsi_indices(
        &self,
        space: DeviceSpace,
        phase: Phase,
        dims: &[Dim],
        t: usize,
        out: &mut Vec<usize>,
    ) {
        self.check_space(space);
        assert!(t < self.temporal_steps(), "step {t} out of range");
        // Per dimension, the index weight of one slice cut by the primitives
        // still to come: its tuple stride times the slices they cut it into.
        let mut weights: Vec<usize> = dims.iter().map(|&d| self.num_slices(d)).collect();
        for i in (1..weights.len()).rev() {
            weights[i - 1] *= weights[i];
        }
        out.clear();
        out.push(0);
        for &prim in &self.prims {
            for (w, &dim) in weights.iter_mut().zip(dims) {
                *w /= prim.slice_factor(dim);
            }
            let (split, square): ([usize; 2], Vec<usize>);
            let digits: &[usize] = match prim {
                Primitive::Split(d) => {
                    let w = dims.iter().zip(&weights).filter(|&(&x, _)| x == d);
                    split = [0, w.map(|(_, &w)| w).sum()];
                    &split
                }
                Primitive::Temporal { k } => {
                    square = (0..1usize << (2 * k))
                        .map(|cell| {
                            // Row bits at even offsets within the cell,
                            // columns at odd, most significant first.
                            let (mut r, mut c) = (0, 0);
                            for j in (0..k).rev() {
                                r = (r << 1) | ((cell >> (2 * j + 1)) & 1);
                                c = (c << 1) | ((cell >> (2 * j)) & 1);
                            }
                            let slice =
                                |(&dim, &w)| Some(square_slice(phase, dim, k, t, r, c)? * w);
                            dims.iter().zip(&weights).filter_map(slice).sum()
                        })
                        .collect();
                    &square
                }
            };
            // The primitive's bits are less significant than every earlier
            // one's: each entry fans out into one entry per digit, in place
            // from the back so no entry is overwritten before it is read.
            let len = out.len();
            out.resize(len * digits.len(), 0);
            for i in (0..len).rev() {
                let base = out[i];
                for (o, &digit) in out[i * digits.len()..][..digits.len()]
                    .iter_mut()
                    .zip(digits)
                {
                    *o = base + digit;
                }
            }
        }
    }
}

/// The slice of `dim` that square cell `(r, c)` of a `P_{2^k×2^k}` holds at
/// step `t` of `phase` (Eqs. 4–6), or `None` for the batch dimension, which
/// the square does not cut.
fn square_slice(phase: Phase, dim: Dim, k: u32, t: usize, r: usize, c: usize) -> Option<usize> {
    let side = 1i64 << k;
    let (r, c, t) = (r as i64, c as i64, t as i64);
    let delta = i64::from(t == side - 1);
    let v = match (phase, dim) {
        (_, Dim::B) => return None,
        (Phase::Forward, Dim::M) => r,
        (Phase::Forward, Dim::N) => r + c + t,
        (Phase::Forward, Dim::K) => c,
        (Phase::Backward, Dim::M) => r,
        (Phase::Backward, Dim::N) => r + c - 1,
        (Phase::Backward, Dim::K) => c + t,
        (Phase::Gradient, Dim::M) => r + t,
        (Phase::Gradient, Dim::N) => r + c - 1 + delta,
        (Phase::Gradient, Dim::K) => c - 1 + delta,
    };
    Some(v.rem_euclid(side) as usize)
}

impl std::str::FromStr for PartitionSeq {
    type Err = PartitionError;

    /// Parses the [`fmt::Display`] notation: whitespace-separated tokens
    /// `B`, `M`, `N`, `K` or `P<side>x<side>` (e.g. `"B P2x2 N"`); the
    /// string `"(serial)"` or an empty string yields the serial sequence.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "(serial)" {
            return Ok(PartitionSeq::serial());
        }
        let mut prims = Vec::new();
        for token in s.split_whitespace() {
            let prim = match token {
                "B" => Primitive::Split(Dim::B),
                "M" => Primitive::Split(Dim::M),
                "N" => Primitive::Split(Dim::N),
                "K" => Primitive::Split(Dim::K),
                other => {
                    let inner = other
                        .strip_prefix('P')
                        .and_then(|rest| {
                            let (a, b) = rest.split_once('x')?;
                            let a: usize = a.parse().ok()?;
                            let b: usize = b.parse().ok()?;
                            (a == b && a.is_power_of_two() && a >= 2).then_some(a)
                        })
                        .ok_or_else(|| PartitionError::ParseToken(other.to_string()))?;
                    Primitive::Temporal {
                        k: inner.trailing_zeros(),
                    }
                }
            };
            prims.push(prim);
        }
        PartitionSeq::new(prims)
    }
}

impl fmt::Display for PartitionSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.prims.is_empty() {
            return write!(f, "(serial)");
        }
        for (i, p) in self.prims.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(d: Dim) -> Primitive {
        Primitive::Split(d)
    }

    #[test]
    fn rejects_two_temporal_primitives() {
        let err = PartitionSeq::new(vec![
            Primitive::Temporal { k: 1 },
            Primitive::Temporal { k: 1 },
        ])
        .unwrap_err();
        assert_eq!(err, PartitionError::MultipleTemporal);
    }

    #[test]
    fn serial_sequence() {
        let s = PartitionSeq::serial();
        assert_eq!(s.bits(), 0);
        assert_eq!(s.num_devices(), 1);
        assert_eq!(s.temporal_steps(), 1);
        assert_eq!(s.to_string(), "(serial)");
        let space = DeviceSpace::new(0);
        assert_eq!(s.dsi(space, Phase::Forward, Dim::N, DeviceId(0), 0), 0);
    }

    #[test]
    fn paper_fig3_split_m_then_n() {
        // Eq. 2-3: partition M (bit d1) then N (bit d2) over 4 devices.
        let seq = PartitionSeq::new(vec![split(Dim::M), split(Dim::N)]).unwrap();
        let space = DeviceSpace::new(2);
        for d in 0..4 {
            let dev = DeviceId(d);
            let d1 = d >> 1;
            let d2 = d & 1;
            for phase in Phase::ALL {
                assert_eq!(seq.dsi(space, phase, Dim::M, dev, 0), d1);
                assert_eq!(seq.dsi(space, phase, Dim::N, dev, 0), d2);
                assert_eq!(seq.dsi(space, phase, Dim::K, dev, 0), 0);
                assert_eq!(seq.dsi(space, phase, Dim::B, dev, 0), 0);
            }
        }
        assert_eq!(seq.num_slices(Dim::M), 2);
        assert_eq!(seq.num_slices(Dim::N), 2);
        assert_eq!(seq.num_slices(Dim::K), 1);
    }

    #[test]
    fn nested_split_builds_multilevel_dsi() {
        // Split N twice: 4 slices, outer bit is high-order.
        let seq = PartitionSeq::new(vec![split(Dim::N), split(Dim::N)]).unwrap();
        let space = DeviceSpace::new(2);
        for d in 0..4 {
            assert_eq!(seq.dsi(space, Phase::Forward, Dim::N, DeviceId(d), 0), d);
        }
        assert_eq!(seq.num_slices(Dim::N), 4);
    }

    #[test]
    fn temporal_forward_dsis_match_eq4() {
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
        let space = DeviceSpace::new(2);
        for d in 0..4usize {
            let dev = DeviceId(d);
            let (r, c) = seq.square_coords(space, dev).unwrap();
            assert_eq!((r, c), (d >> 1, d & 1));
            for t in 0..2 {
                assert_eq!(seq.dsi(space, Phase::Forward, Dim::M, dev, t), r % 2);
                assert_eq!(
                    seq.dsi(space, Phase::Forward, Dim::N, dev, t),
                    (r + c + t) % 2
                );
                assert_eq!(seq.dsi(space, Phase::Forward, Dim::K, dev, t), c % 2);
            }
        }
    }

    #[test]
    fn temporal_backward_and_gradient_match_eq5_eq6() {
        let k = 2u32; // P_{4x4} over 16 devices
        let side = 1usize << k;
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k }]).unwrap();
        let space = DeviceSpace::new(4);
        for d in 0..16usize {
            let dev = DeviceId(d);
            let (r, c) = seq.square_coords(space, dev).unwrap();
            for t in 0..side {
                let delta = usize::from(t == side - 1);
                assert_eq!(seq.dsi(space, Phase::Backward, Dim::M, dev, t), r % side);
                assert_eq!(
                    seq.dsi(space, Phase::Backward, Dim::N, dev, t),
                    (r + c + side - 1) % side
                );
                assert_eq!(
                    seq.dsi(space, Phase::Backward, Dim::K, dev, t),
                    (c + t) % side
                );
                assert_eq!(
                    seq.dsi(space, Phase::Gradient, Dim::M, dev, t),
                    (r + t) % side
                );
                assert_eq!(
                    seq.dsi(space, Phase::Gradient, Dim::N, dev, t),
                    (r + c + side - 1 + delta) % side
                );
                assert_eq!(
                    seq.dsi(space, Phase::Gradient, Dim::K, dev, t),
                    (c + side - 1 + delta) % side
                );
            }
        }
    }

    #[test]
    fn square_coords_interleave_row_column_bits() {
        // Alg. 1 lines 9-10: rows from bits i, i+2, ...; columns i+1, i+3, ...
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 2 }]).unwrap();
        let space = DeviceSpace::new(4);
        // Device 0b1011: row bits (d1, d3) = (1, 1) -> r = 3; cols (d2, d4) = (0, 1) -> c = 1.
        assert_eq!(seq.square_coords(space, DeviceId(0b1011)).unwrap(), (3, 1));
    }

    #[test]
    fn mixed_split_and_temporal_compose() {
        // B-split outermost, then P_{2x2}: 8 devices.
        let seq = PartitionSeq::new(vec![split(Dim::B), Primitive::Temporal { k: 1 }]).unwrap();
        let space = DeviceSpace::new(3);
        assert_eq!(seq.num_slices(Dim::B), 2);
        assert_eq!(seq.num_slices(Dim::M), 2);
        assert_eq!(seq.temporal_steps(), 2);
        for d in 0..8usize {
            let dev = DeviceId(d);
            assert_eq!(seq.dsi(space, Phase::Forward, Dim::B, dev, 0), d >> 2);
            let (r, c) = seq.square_coords(space, dev).unwrap();
            assert_eq!((r, c), ((d >> 1) & 1, d & 1));
        }
    }

    #[test]
    fn allreduce_indicator_identifies_split_reduce_bits() {
        // Fig. 3 scenario: M then N split. Forward reduce dim is N -> bit 2.
        let seq = PartitionSeq::new(vec![split(Dim::M), split(Dim::N)]).unwrap();
        assert_eq!(
            seq.allreduce_indicator(Phase::Forward, false),
            GroupIndicator::new([2])
        );
        // Backward reduce dim is K: no K split -> empty.
        assert!(seq.allreduce_indicator(Phase::Backward, false).is_empty());
        // Gradient reduce dims are B, M -> bit 1 (the M split).
        assert_eq!(
            seq.allreduce_indicator(Phase::Gradient, false),
            GroupIndicator::new([1])
        );
    }

    #[test]
    fn temporal_needs_no_allreduce_in_any_phase() {
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
        for phase in Phase::ALL {
            assert!(
                seq.allreduce_indicator(phase, false).is_empty(),
                "feature 1 violated in {phase}"
            );
        }
    }

    #[test]
    fn batched_gradient_excludes_batch_split_from_allreduce() {
        // For a batched matmul the second operand's gradient keeps B, so a
        // batch split partitions it instead of producing partial sums.
        let seq = PartitionSeq::new(vec![split(Dim::B), split(Dim::M)]).unwrap();
        assert_eq!(
            seq.allreduce_indicator(Phase::Gradient, false),
            GroupIndicator::new([1, 2])
        );
        assert_eq!(
            seq.allreduce_indicator(Phase::Gradient, true),
            GroupIndicator::new([2])
        );
    }

    #[test]
    fn ring_indicator_covers_temporal_bits() {
        let seq = PartitionSeq::new(vec![split(Dim::N), Primitive::Temporal { k: 1 }]).unwrap();
        // N-split takes bit 1; temporal takes bits 2, 3.
        assert_eq!(seq.ring_indicator(), GroupIndicator::new([2, 3]));
        assert!(PartitionSeq::new(vec![split(Dim::B)])
            .unwrap()
            .ring_indicator()
            .is_empty());
    }

    #[test]
    fn tensor_blocks_and_fraction() {
        let seq = PartitionSeq::new(vec![split(Dim::B), Primitive::Temporal { k: 1 }]).unwrap();
        // I(B,M,N): 2 * 2 * 2 = 8 blocks.
        assert_eq!(seq.tensor_blocks(TensorKind::Input, false), 8);
        // W(N,K): 2 * 2 = 4 blocks.
        assert_eq!(seq.tensor_blocks(TensorKind::Weight, false), 4);
    }

    #[test]
    fn split_positions_reported_in_order() {
        let seq = PartitionSeq::new(vec![
            split(Dim::N),
            Primitive::Temporal { k: 1 },
            split(Dim::N),
            split(Dim::B),
        ])
        .unwrap();
        assert_eq!(seq.split_indicator(&[Dim::N]), GroupIndicator::new([1, 4]));
        assert_eq!(seq.split_indicator(&[Dim::B]), GroupIndicator::new([5]));
        assert_eq!(
            seq.split_indicator(&[Dim::B, Dim::N]),
            GroupIndicator::new([1, 4, 5])
        );
        assert_eq!(seq.bits(), 5);
    }

    #[test]
    fn display_roundtrip_notation() {
        let seq = PartitionSeq::new(vec![
            split(Dim::B),
            Primitive::Temporal { k: 1 },
            split(Dim::N),
        ])
        .unwrap();
        assert_eq!(seq.to_string(), "B P2x2 N");
    }

    #[test]
    fn parse_roundtrips_display() {
        for text in ["B P2x2 N", "M N K B", "P4x4 K", "(serial)"] {
            let seq: PartitionSeq = text.parse().unwrap();
            assert_eq!(
                seq.to_string(),
                if text == "(serial)" { "(serial)" } else { text }
            );
        }
        assert_eq!("".parse::<PartitionSeq>().unwrap(), PartitionSeq::serial());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            "Q".parse::<PartitionSeq>(),
            Err(PartitionError::ParseToken(_))
        ));
        assert!(matches!(
            "P3x3".parse::<PartitionSeq>(),
            Err(PartitionError::ParseToken(_))
        ));
        assert!(matches!(
            "P2x4".parse::<PartitionSeq>(),
            Err(PartitionError::ParseToken(_))
        ));
        assert!(matches!(
            "P2x2 P2x2".parse::<PartitionSeq>(),
            Err(PartitionError::MultipleTemporal)
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dsi_rejects_out_of_range_step() {
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
        let space = DeviceSpace::new(2);
        seq.dsi(space, Phase::Forward, Dim::N, DeviceId(0), 2);
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn dsi_rejects_space_mismatch() {
        let seq = PartitionSeq::new(vec![split(Dim::M)]).unwrap();
        let space = DeviceSpace::new(2);
        seq.dsi(space, Phase::Forward, Dim::M, DeviceId(0), 0);
    }
}
