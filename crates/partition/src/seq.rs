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
                    let side = 1i64 << k;
                    let ku = k as usize;
                    let mut r: i64 = 0;
                    let mut c: i64 = 0;
                    for j in 0..ku {
                        r = (r << 1) | space.bit(device, bit_pos + 2 * j) as i64;
                        c = (c << 1) | space.bit(device, bit_pos + 2 * j + 1) as i64;
                    }
                    let t = t as i64;
                    let delta = i64::from(t == side - 1);
                    let contribution: Option<i64> = match (phase, dim) {
                        (_, Dim::B) => None,
                        (Phase::Forward, Dim::M) => Some(r),
                        (Phase::Forward, Dim::N) => Some(r + c + t),
                        (Phase::Forward, Dim::K) => Some(c),
                        (Phase::Backward, Dim::M) => Some(r),
                        (Phase::Backward, Dim::N) => Some(r + c - 1),
                        (Phase::Backward, Dim::K) => Some(c + t),
                        (Phase::Gradient, Dim::M) => Some(r + t),
                        (Phase::Gradient, Dim::N) => Some(r + c - 1 + delta),
                        (Phase::Gradient, Dim::K) => Some(c - 1 + delta),
                    };
                    if let Some(v) = contribution {
                        dsi = (dsi << k) + v.rem_euclid(side) as usize;
                    }
                    bit_pos += 2 * ku;
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

    /// Precompiles [`dsi`](PartitionSeq::dsi) for a fixed `(phase, dims, t)`
    /// over the whole device space: one walk of the primitive list captures
    /// which device-index bits each queried dimension gathers and the
    /// temporal primitive's modular contribution, so evaluating a device is
    /// a handful of shifts instead of a primitive walk per `(dim, device)`.
    /// The program lives in fixed-capacity arrays and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics like `dsi` on a space/bit mismatch or `t` out of range, if
    /// `dims` holds more than [`DsiProgram::MAX_DIMS`] dimensions, and if
    /// the space has more than [`DsiProgram::MAX_BITS`] device bits.
    pub fn dsi_program(
        &self,
        space: DeviceSpace,
        phase: Phase,
        dims: &[Dim],
        t: usize,
    ) -> DsiProgram {
        self.check_space(space);
        assert!(t < self.temporal_steps(), "step {t} out of range");
        assert!(dims.len() <= DsiProgram::MAX_DIMS, "too many dims");
        let n_bits = space.n_bits();
        assert!(
            n_bits <= DsiProgram::MAX_BITS,
            "DsiProgram capacity exceeded: {n_bits} device bits, at most {}",
            DsiProgram::MAX_BITS
        );
        // Every step consumes at least one device bit, so no array below can
        // overflow once the bit count fits.
        let mut prog = DsiProgram {
            slots: [DsiSlot::EMPTY; DsiProgram::MAX_DIMS],
            r_shifts: [0; DsiProgram::MAX_BITS / 2],
            c_shifts: [0; DsiProgram::MAX_BITS / 2],
            k: 0,
            relevant_mask: 0,
        };
        let mut bit_pos = 1usize; // next unconsumed device bit (1-based)
        for prim in &self.prims {
            match *prim {
                Primitive::Split(d) => {
                    let shift = n_bits - bit_pos;
                    for (slot, &dim) in prog.slots.iter_mut().zip(dims) {
                        if d == dim {
                            slot.push(DsiStep::Bit { shift: shift as u8 });
                            prog.relevant_mask |= 1 << shift;
                        }
                    }
                    bit_pos += 1;
                }
                Primitive::Temporal { k } => {
                    let side = 1i64 << k;
                    let ku = k as usize;
                    let t = t as i64;
                    let delta = i64::from(t == side - 1);
                    let mut read = false;
                    for (slot, &dim) in prog.slots.iter_mut().zip(dims) {
                        // The same `(phase, dim) → a_r·r + a_c·c + add`
                        // table `dsi` evaluates, with the device-independent
                        // part folded into `add`.
                        let contribution: Option<(bool, bool, i64)> = match (phase, dim) {
                            (_, Dim::B) => None,
                            (Phase::Forward, Dim::M) => Some((true, false, 0)),
                            (Phase::Forward, Dim::N) => Some((true, true, t)),
                            (Phase::Forward, Dim::K) => Some((false, true, 0)),
                            (Phase::Backward, Dim::M) => Some((true, false, 0)),
                            (Phase::Backward, Dim::N) => Some((true, true, -1)),
                            (Phase::Backward, Dim::K) => Some((false, true, t)),
                            (Phase::Gradient, Dim::M) => Some((true, false, t)),
                            (Phase::Gradient, Dim::N) => Some((true, true, -1 + delta)),
                            (Phase::Gradient, Dim::K) => Some((false, true, -1 + delta)),
                        };
                        if let Some((use_r, use_c, add)) = contribution {
                            slot.push(DsiStep::Temporal {
                                k: k as u8,
                                use_r,
                                use_c,
                                add: add as i32,
                            });
                            read = true;
                        }
                    }
                    // The square's coordinates, only when some dimension
                    // reads them (a sequence has one temporal primitive).
                    if read {
                        prog.k = ku;
                        for j in 0..ku {
                            let r = n_bits - (bit_pos + 2 * j);
                            let c = r - 1;
                            prog.r_shifts[j] = r as u8;
                            prog.c_shifts[j] = c as u8;
                            prog.relevant_mask |= (1 << r) | (1 << c);
                        }
                    }
                    bit_pos += 2 * ku;
                }
            }
        }
        prog
    }
}

/// One composition step of a [`DsiProgram`] slot, in primitive order.
#[derive(Debug, Clone, Copy)]
enum DsiStep {
    /// `dsi = 2·dsi + bit(device, shift)`.
    Bit {
        /// Right-shift of the device index selecting the split's bit.
        shift: u8,
    },
    /// `dsi = (dsi << k) + (a_r·r + a_c·c + add) mod 2^k`.
    Temporal {
        k: u8,
        use_r: bool,
        use_c: bool,
        add: i32,
    },
}

/// One compiled dimension of a [`DsiProgram`]: its steps, in a fixed array.
#[derive(Debug, Clone, Copy)]
struct DsiSlot {
    steps: [DsiStep; DsiProgram::MAX_BITS],
    len: u8,
}

impl DsiSlot {
    const EMPTY: DsiSlot = DsiSlot {
        steps: [DsiStep::Bit { shift: 0 }; DsiProgram::MAX_BITS],
        len: 0,
    };

    fn push(&mut self, step: DsiStep) {
        self.steps[self.len as usize] = step;
        self.len += 1;
    }

    fn steps(&self) -> &[DsiStep] {
        &self.steps[..self.len as usize]
    }
}

/// A compiled DSI evaluator returned by [`PartitionSeq::dsi_program`]:
/// [`keys`](DsiProgram::keys) reproduces `dsi` for every queried dimension
/// at once, and [`relevant_mask`](DsiProgram::relevant_mask) names the
/// device-index bits the result can depend on — devices equal under the
/// mask share a DSI tuple, which callers exploit to deduplicate evaluation.
#[derive(Debug, Clone, Copy)]
pub struct DsiProgram {
    /// One slot per compiled dimension; the trailing slots stay empty.
    slots: [DsiSlot; DsiProgram::MAX_DIMS],
    /// The temporal primitive's row and column bit shifts, the first `k` of
    /// each (`k` is 0 when no compiled dimension reads the square).
    r_shifts: [u8; DsiProgram::MAX_BITS / 2],
    c_shifts: [u8; DsiProgram::MAX_BITS / 2],
    k: usize,
    relevant_mask: usize,
}

impl DsiProgram {
    /// Upper bound on the `dims` list length a program compiles.
    pub const MAX_DIMS: usize = 4;

    /// Upper bound on the device bits a program compiles (65,536 devices):
    /// the capacity of its step arrays.
    pub const MAX_BITS: usize = 16;

    /// Bit mask over the *device index* (not the 1-based `d_pos` numbering):
    /// two devices with equal masked indices produce identical
    /// [`keys`](DsiProgram::keys).
    pub fn relevant_mask(&self) -> usize {
        self.relevant_mask
    }

    /// The DSI of every compiled dimension for `device` (trailing slots of
    /// the fixed-size array are zero), bit-identical to calling
    /// [`PartitionSeq::dsi`] per dimension.
    pub fn keys(&self, device: usize) -> [usize; Self::MAX_DIMS] {
        let (mut r, mut c) = (0i64, 0i64);
        for (&rs, &cs) in self.r_shifts[..self.k].iter().zip(&self.c_shifts) {
            r = (r << 1) | ((device >> rs) & 1) as i64;
            c = (c << 1) | ((device >> cs) & 1) as i64;
        }
        let mut out = [0usize; Self::MAX_DIMS];
        for (slot, o) in self.slots.iter().zip(&mut out) {
            let mut dsi = 0usize;
            for step in slot.steps() {
                match *step {
                    DsiStep::Bit { shift } => dsi = 2 * dsi + ((device >> shift) & 1),
                    DsiStep::Temporal {
                        k,
                        use_r,
                        use_c,
                        add,
                    } => {
                        let side = 1i64 << k;
                        let v = i64::from(use_r) * r + i64::from(use_c) * c + i64::from(add);
                        dsi = (dsi << k) + v.rem_euclid(side) as usize;
                    }
                }
            }
            *o = dsi;
        }
        out
    }
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
    fn dsi_program_matches_scalar_dsi_everywhere() {
        // Every (phase, dim, step, device) of several representative
        // sequences — with and without a temporal primitive, splits before
        // and after it — must agree with Algorithm 1's scalar evaluator,
        // and devices equal under the relevant mask must share tuples.
        let seqs = [
            PartitionSeq::new(vec![split(Dim::M), split(Dim::N)]).unwrap(),
            PartitionSeq::new(vec![split(Dim::B), split(Dim::B), split(Dim::K)]).unwrap(),
            PartitionSeq::new(vec![split(Dim::M), Primitive::Temporal { k: 1 }]).unwrap(),
            PartitionSeq::new(vec![
                Primitive::Temporal { k: 2 },
                split(Dim::B),
                split(Dim::N),
            ])
            .unwrap(),
            // 9 bits (512 devices): splits on either side of a `P_{4×4}`,
            // and dimensions split several times.
            PartitionSeq::new(vec![
                split(Dim::M),
                split(Dim::N),
                Primitive::Temporal { k: 2 },
                split(Dim::K),
                split(Dim::M),
                split(Dim::B),
            ])
            .unwrap(),
            PartitionSeq::new(vec![
                split(Dim::K),
                split(Dim::K),
                split(Dim::B),
                split(Dim::N),
                split(Dim::N),
                Primitive::Temporal { k: 2 },
            ])
            .unwrap(),
            PartitionSeq::new(vec![
                Primitive::Temporal { k: 2 },
                split(Dim::N),
                split(Dim::N),
                split(Dim::M),
                split(Dim::K),
                split(Dim::N),
            ])
            .unwrap(),
        ];
        let dims = [Dim::B, Dim::M, Dim::N, Dim::K];
        for seq in &seqs {
            let space = DeviceSpace::new(seq.bits());
            for phase in [Phase::Forward, Phase::Backward, Phase::Gradient] {
                for t in 0..seq.temporal_steps() {
                    let prog = seq.dsi_program(space, phase, &dims, t);
                    let mask = prog.relevant_mask();
                    for device in space.devices() {
                        let keys = prog.keys(device.index());
                        for (slot, &dim) in dims.iter().enumerate() {
                            assert_eq!(
                                keys[slot],
                                seq.dsi(space, phase, dim, device, t),
                                "{seq} {phase:?} {dim:?} t={t} {device}"
                            );
                        }
                        assert_eq!(
                            keys,
                            prog.keys(device.index() & mask),
                            "masked twin must share the tuple"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "DsiProgram capacity exceeded: 17 device bits, at most 16")]
    fn dsi_program_rejects_a_space_over_its_capacity() {
        // 17 M splits would need 17 steps in one slot: the program refuses
        // to compile rather than drop a step.
        let seq = PartitionSeq::new(vec![split(Dim::M); 17]).unwrap();
        seq.dsi_program(DeviceSpace::new(17), Phase::Forward, &[Dim::M], 0);
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
