//! Ring communication schedule of the `P_{2^k×2^k}` primitive.
//!
//! The DSIs of Eqs. 4–6 vary with the temporal step `t`, so tensors must move
//! between steps. Unlike all-reduce, these transfers are not data-dependent on
//! the computation result and overlap with compute via double buffering
//! (paper §3.3, "Formulation of Communication"). This module *derives* the
//! communication pattern from the DSIs — solving "which device held the block
//! I need next" — rather than hard-coding the paper's Table 1; the unit tests
//! then assert the derivation reproduces Table 1 exactly. The schedule reads
//! nothing of a sequence but `k`, so it is derived once per `k` and process
//! and [`ring_transfers`] hands out `'static` slices of it.

use std::sync::OnceLock;

use primepar_topology::{DeviceId, DeviceSpace};

use crate::{Dim, PartitionSeq, Phase, Primitive, TensorKind};

/// Why a ring transfer happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferReason {
    /// Prefetch of an input block needed at the next temporal step (received
    /// into the double buffer while the current step computes).
    Prefetch,
    /// Realignment of a stashed tensor so the next phase (or the next
    /// iteration's forward) finds it where Eqs. 4–6 expect it.
    Realign,
    /// Redistribution of the locally accumulated output (`dW`) so the final
    /// accumulation aligns with the weight distribution at forward start.
    AccumulatorShift,
}

/// One ring point-to-point transfer performed *during* a temporal step: every
/// device `(r, c)` of the logical square receives the named tensor's block
/// from device `(r + delta.0, c + delta.1)` (coordinates mod `2^k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingTransfer {
    /// The tensor being shifted.
    pub tensor: TensorKind,
    /// Sender offset relative to the receiver, `(Δrow, Δcolumn)`.
    pub delta: (i64, i64),
    /// Why the transfer is needed.
    pub reason: TransferReason,
}

/// The phase in which a stashed input tensor is next used, for end-of-phase
/// realignment (feature 3). `None` means the tensor is dead after the phase.
fn next_use(phase: Phase, tensor: TensorKind) -> Option<Phase> {
    match (phase, tensor) {
        (Phase::Forward, TensorKind::Input) => Some(Phase::Gradient),
        (Phase::Forward, TensorKind::Weight) => Some(Phase::Backward),
        // The weight's next use after backward is the *next iteration's*
        // forward; dW is realigned the same way so the update stays local.
        (Phase::Backward, TensorKind::Weight) => Some(Phase::Forward),
        (Phase::Backward, TensorKind::GradOutput) => Some(Phase::Gradient),
        _ => None,
    }
}

/// The ring transfers performed during temporal step `t` of `phase`.
///
/// The schedule is a property of the temporal square alone: `Split`
/// primitives contribute device-constant DSI digits that never move between
/// steps, so every sequence holding `P_{2^k×2^k}` shares the bare square's
/// schedule. That schedule (3 phases × `2^k` steps) is derived once per `k`
/// and process, on first use, and this is a lookup into it. Returns an empty
/// schedule for sequences without a temporal primitive (all conventional
/// partitions communicate via all-reduce at phase end instead).
///
/// # Example
///
/// Table 1's forward row: before the last step, `I` arrives from the right
/// neighbor and `W` from below.
///
/// ```
/// use primepar_partition::{ring_transfers, PartitionSeq, Phase, Primitive, TensorKind};
///
/// let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 2 }])?;
/// let transfers = ring_transfers(&seq, Phase::Forward, 0);
/// assert_eq!(transfers.len(), 2);
/// assert_eq!((transfers[0].tensor, transfers[0].delta), (TensorKind::Input, (0, 1)));
/// assert_eq!((transfers[1].tensor, transfers[1].delta), (TensorKind::Weight, (1, 0)));
/// # Ok::<(), primepar_partition::PartitionError>(())
/// ```
///
/// # Panics
///
/// Panics if `t >= seq.temporal_steps()`, or — indicating an internal
/// inconsistency — if a needed block has no unique holder.
pub fn ring_transfers(seq: &PartitionSeq, phase: Phase, t: usize) -> &'static [RingTransfer] {
    let Some(k) = seq.temporal_k() else {
        assert!(t < 1, "step {t} out of range for non-temporal sequence");
        return &[];
    };
    let side = 1usize << k;
    assert!(t < side, "step {t} out of range for P_{side}x{side}");
    &schedule(k)[phase as usize * side + t]
}

/// One lazily derived schedule per `k` a device space can hold (`2k ≤ 30`
/// bits, see [`DeviceSpace::new`]).
static SCHEDULES: [OnceLock<Vec<Vec<RingTransfer>>>; 16] = [const { OnceLock::new() }; 16];

/// The ring schedule of `P_{2^k×2^k}`, indexed `[phase · 2^k + t]` with
/// phases in [`Phase::ALL`] order.
fn schedule(k: u32) -> &'static [Vec<RingTransfer>] {
    let cell = SCHEDULES
        .get(k as usize)
        .unwrap_or_else(|| panic!("P_2^{k} does not fit a device space"));
    cell.get_or_init(|| {
        let square = Square::new(k);
        Phase::ALL
            .iter()
            .flat_map(|&phase| (0..square.side).map(move |t| (phase, t)))
            .map(|(phase, t)| square.transfers(phase, t))
            .collect()
    })
}

/// The pure `2^k × 2^k` temporal square, independent of any surrounding
/// `Split` primitives (whose DSI contributions are device-constant and never
/// move between steps).
struct Square {
    k: u32,
    side: usize,
    seq: PartitionSeq,
    space: DeviceSpace,
}

impl Square {
    fn new(k: u32) -> Self {
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k }])
            .expect("single temporal primitive is always valid");
        let space = DeviceSpace::new(2 * k as usize);
        Square {
            k,
            side: 1 << k,
            seq,
            space,
        }
    }

    /// Derives the ring transfers of step `t` of `phase` by solving "which
    /// device held the block I need next" for every tensor that moves.
    fn transfers(&self, phase: Phase, t: usize) -> Vec<RingTransfer> {
        let side = self.side;
        let mut transfers = Vec::new();

        for tensor in phase.input_tensors() {
            if t + 1 < side {
                // Prefetch the block needed at t + 1.
                if let Some(delta) = self.holder_delta(
                    |r, c| self.dsi(phase, tensor, r, c, t),
                    |r, c| self.dsi(phase, tensor, r, c, t + 1),
                ) {
                    transfers.push(RingTransfer {
                        tensor,
                        delta,
                        reason: TransferReason::Prefetch,
                    });
                }
            } else if let Some(next_phase) = next_use(phase, tensor) {
                // Last step: realign for the tensor's next use at that phase's t=0.
                if let Some(delta) = self.holder_delta(
                    |r, c| self.dsi(phase, tensor, r, c, t),
                    |r, c| self.dsi(next_phase, tensor, r, c, 0),
                ) {
                    transfers.push(RingTransfer {
                        tensor,
                        delta,
                        reason: TransferReason::Realign,
                    });
                }
            }
        }

        // Output accumulator: when the output DSI moves between steps (dW at
        // the final gradient step, per the δ term of Eq. 6), the partial
        // accumulated so far must be shifted before the final local add.
        let out = phase.output_tensor();
        if t > 0 {
            if let Some(delta) = self.holder_delta(
                |r, c| self.dsi(phase, out, r, c, t - 1),
                |r, c| self.dsi(phase, out, r, c, t),
            ) {
                transfers.push(RingTransfer {
                    tensor: out,
                    delta,
                    reason: TransferReason::AccumulatorShift,
                });
            }
        }

        transfers
    }

    /// Device index of square coordinate `(r, c)`: row and column bits
    /// interleaved, rows first (Algorithm 1 lines 9–10).
    fn device(&self, r: usize, c: usize) -> DeviceId {
        let k = self.k as usize;
        let mut idx = 0usize;
        for j in 0..k {
            let rb = (r >> (k - 1 - j)) & 1;
            let cb = (c >> (k - 1 - j)) & 1;
            idx |= rb << (2 * k - 2 * j - 1);
            idx |= cb << (2 * k - 2 * j - 2);
        }
        DeviceId(idx)
    }

    /// The temporal-square DSI tuple of `tensor` (its M/N/K components only —
    /// B is untouched by the temporal primitive).
    fn dsi(&self, phase: Phase, tensor: TensorKind, r: usize, c: usize, t: usize) -> Vec<usize> {
        let dev = self.device(r, c);
        tensor
            .dims(false)
            .iter()
            .filter(|&&d| d != Dim::B)
            .map(|&d| self.seq.dsi(self.space, phase, d, dev, t))
            .collect()
    }

    /// Finds the uniform sender offset `(Δr, Δc)` such that for every receiver
    /// `(r, c)`, `have(r + Δr, c + Δc) == want(r, c)`. Returns `None` when the
    /// offset is `(0, 0)` (no transfer needed).
    ///
    /// # Panics
    ///
    /// Panics if any receiver's wanted block has no unique holder or the
    /// offset is not uniform across the square — either would indicate the
    /// DSI formulation is not a valid ring schedule.
    fn holder_delta(
        &self,
        have: impl Fn(usize, usize) -> Vec<usize>,
        want: impl Fn(usize, usize) -> Vec<usize>,
    ) -> Option<(i64, i64)> {
        let side = self.side;
        let held: Vec<Vec<usize>> = (0..side * side).map(|i| have(i / side, i % side)).collect();
        let mut delta: Option<(i64, i64)> = None;
        for r in 0..side {
            for c in 0..side {
                let target = want(r, c);
                let mut found = None;
                for dr in 0..side {
                    for dc in 0..side {
                        let sr = (r + dr) % side;
                        let sc = (c + dc) % side;
                        if held[sr * side + sc] == target {
                            assert!(
                                found.is_none(),
                                "block held by multiple devices: replication within square"
                            );
                            found = Some((dr as i64, dc as i64));
                        }
                    }
                }
                let found = found.expect("wanted block is held by no device");
                match delta {
                    None => delta = Some(found),
                    Some(d) => assert_eq!(d, found, "non-uniform ring offset"),
                }
            }
        }
        let d = delta.expect("square has at least one device");
        // Normalize offsets to the symmetric range for readability: 2^k-1 ≡ -1.
        let norm = |x: i64| {
            if x > (self.side as i64) / 2 {
                x - self.side as i64
            } else {
                x
            }
        };
        let d = (norm(d.0), norm(d.1));
        if d == (0, 0) {
            None
        } else {
            Some(d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transfers with deltas reduced mod the square side, so the paper's
    /// `(r-1, c+1)` and the derived `(r+2^k-1, c+1)` compare equal.
    fn transfers(k: u32, phase: Phase, t: usize) -> Vec<(TensorKind, (i64, i64))> {
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k }]).unwrap();
        let side = 1i64 << k;
        ring_transfers(&seq, phase, t)
            .iter()
            .map(|tr| {
                (
                    tr.tensor,
                    (tr.delta.0.rem_euclid(side), tr.delta.1.rem_euclid(side)),
                )
            })
            .collect()
    }

    /// Reduces an expected paper delta mod the square side.
    fn m(k: u32, delta: (i64, i64)) -> (i64, i64) {
        let side = 1i64 << k;
        (delta.0.rem_euclid(side), delta.1.rem_euclid(side))
    }

    /// Paper Table 1, Forward rows: `t < 2^k - 1`: I from (r, c+1), W from
    /// (r+1, c); nothing at the last step.
    #[test]
    fn table1_forward() {
        for k in [1u32, 2] {
            let side = 1usize << k;
            for t in 0..side - 1 {
                let tr = transfers(k, Phase::Forward, t);
                assert_eq!(
                    tr,
                    vec![
                        (TensorKind::Input, m(k, (0, 1))),
                        (TensorKind::Weight, m(k, (1, 0))),
                    ],
                    "k={k}, t={t}"
                );
            }
            assert!(
                transfers(k, Phase::Forward, side - 1).is_empty(),
                "k={k} last step"
            );
        }
    }

    /// Paper Table 1, Backward rows: `t < 2^k - 1`: dO from (r, c+1), W from
    /// (r-1, c+1); `t = 2^k - 1`: W from (r, c+1) (realignment to forward).
    #[test]
    fn table1_backward() {
        for k in [1u32, 2] {
            let side = 1usize << k;
            for t in 0..side - 1 {
                let tr = transfers(k, Phase::Backward, t);
                assert_eq!(
                    tr,
                    vec![
                        (TensorKind::GradOutput, m(k, (0, 1))),
                        (TensorKind::Weight, m(k, (-1, 1))),
                    ],
                    "k={k}, t={t}"
                );
            }
            let last = transfers(k, Phase::Backward, side - 1);
            assert_eq!(
                last,
                vec![(TensorKind::Weight, m(k, (0, 1)))],
                "k={k} last step"
            );
        }
    }

    /// Paper Table 1, Gradient rows: `t < 2^k - 2`: I from (r+1, c-1), dO from
    /// (r+1, c); `t = 2^k - 2`: I from (r+1, c), dO from (r+1, c+1);
    /// `t = 2^k - 1`: dW from (r, c+1).
    #[test]
    fn table1_gradient() {
        for k in [1u32, 2, 3] {
            let side = 1usize << k;
            for t in 0..side.saturating_sub(2) {
                let tr = transfers(k, Phase::Gradient, t);
                assert_eq!(
                    tr,
                    vec![
                        (TensorKind::Input, m(k, (1, -1))),
                        (TensorKind::GradOutput, m(k, (1, 0))),
                    ],
                    "k={k}, t={t}"
                );
            }
            let tr = transfers(k, Phase::Gradient, side - 2);
            assert_eq!(
                tr,
                vec![
                    (TensorKind::Input, m(k, (1, 0))),
                    (TensorKind::GradOutput, m(k, (1, 1))),
                ],
                "k={k} step 2^k-2"
            );
            let tr = transfers(k, Phase::Gradient, side - 1);
            assert_eq!(
                tr,
                vec![(TensorKind::GradWeight, m(k, (0, 1)))],
                "k={k} last step"
            );
        }
    }

    /// Phase-transition stashes that need *no* movement (feature 3): I from
    /// forward-end to gradient-start, W from forward-end to backward-start,
    /// dO from backward-end to gradient-start all align, so the forward last
    /// step carries no transfers and the backward last step only carries W.
    #[test]
    fn alignment_transitions_are_free() {
        for k in [1u32, 2] {
            let side = 1usize << k;
            assert!(transfers(k, Phase::Forward, side - 1).is_empty());
            let last_bwd = transfers(k, Phase::Backward, side - 1);
            assert_eq!(last_bwd.len(), 1);
            assert_eq!(last_bwd[0].0, TensorKind::Weight);
        }
    }

    /// Non-temporal sequences have no ring communication.
    #[test]
    fn split_only_sequences_have_no_ring_traffic() {
        let seq =
            PartitionSeq::new(vec![Primitive::Split(Dim::M), Primitive::Split(Dim::N)]).unwrap();
        for phase in Phase::ALL {
            assert!(ring_transfers(&seq, phase, 0).is_empty());
        }
    }

    /// Transfers are identical regardless of surrounding split primitives:
    /// the ring schedule is a property of the temporal square alone.
    #[test]
    fn ring_schedule_independent_of_splits() {
        let pure = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
        let mixed = PartitionSeq::new(vec![
            Primitive::Split(Dim::B),
            Primitive::Temporal { k: 1 },
            Primitive::Split(Dim::N),
        ])
        .unwrap();
        for phase in Phase::ALL {
            for t in 0..2 {
                assert_eq!(
                    ring_transfers(&pure, phase, t),
                    ring_transfers(&mixed, phase, t)
                );
            }
        }
    }

    /// The per-`k` table holds exactly what a fresh derivation on the bare
    /// square yields, and every lookup returns the one stored slice.
    #[test]
    fn table_equals_fresh_derivation() {
        for k in 1u32..=4 {
            let seq = PartitionSeq::new(vec![Primitive::Temporal { k }]).unwrap();
            let square = Square::new(k);
            for phase in Phase::ALL {
                for t in 0..1usize << k {
                    let table = ring_transfers(&seq, phase, t);
                    assert_eq!(table, square.transfers(phase, t), "k={k} {phase} t={t}");
                    assert!(std::ptr::eq(table, ring_transfers(&seq, phase, t)));
                }
            }
        }
    }

    /// All transfer reasons are classified.
    #[test]
    fn transfer_reasons() {
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap();
        let fwd = ring_transfers(&seq, Phase::Forward, 0);
        assert!(fwd.iter().all(|t| t.reason == TransferReason::Prefetch));
        let bwd_last = ring_transfers(&seq, Phase::Backward, 1);
        assert_eq!(bwd_last[0].reason, TransferReason::Realign);
        let grad_last = ring_transfers(&seq, Phase::Gradient, 1);
        assert_eq!(grad_last[0].reason, TransferReason::AccumulatorShift);
    }
}
