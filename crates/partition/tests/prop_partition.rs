//! Property-based tests of the DSI formalism: any syntactically valid
//! partition sequence must satisfy the correctness invariants that make the
//! parallel computation equal to the serial one.

use proptest::prelude::*;

use primepar_partition::verify::{
    check_phase_alignment, check_reduction_coverage, replication_factor,
};
use primepar_partition::{
    ring_transfers, Dim, PartitionSeq, Phase, Primitive, TensorKind, TransferReason,
};
use primepar_topology::{DeviceId, DeviceSpace};

/// Strategy: a random sequence of up to 4 split primitives and at most one
/// temporal primitive (k in 1..=2) inserted at a random position.
fn arb_seq() -> impl Strategy<Value = PartitionSeq> {
    let split = prop_oneof![
        Just(Primitive::Split(Dim::B)),
        Just(Primitive::Split(Dim::M)),
        Just(Primitive::Split(Dim::N)),
        Just(Primitive::Split(Dim::K)),
    ];
    (
        proptest::collection::vec(split, 0..4),
        proptest::option::of((1u32..=2, 0usize..4)),
    )
        .prop_map(|(mut splits, temporal)| {
            if let Some((k, pos)) = temporal {
                let pos = pos.min(splits.len());
                splits.insert(pos, Primitive::Temporal { k });
            }
            PartitionSeq::new(splits).expect("at most one temporal by construction")
        })
}

/// Strategy: up to 4 split primitives around exactly one `Temporal { k }`
/// (k in 1..=2) at a random position.
fn arb_temporal_seq() -> impl Strategy<Value = PartitionSeq> {
    let split = prop_oneof![
        Just(Primitive::Split(Dim::B)),
        Just(Primitive::Split(Dim::M)),
        Just(Primitive::Split(Dim::N)),
        Just(Primitive::Split(Dim::K)),
    ];
    (proptest::collection::vec(split, 0..4), 1u32..=2, 0usize..4).prop_map(|(mut prims, k, pos)| {
        let pos = pos.min(prims.len());
        prims.insert(pos, Primitive::Temporal { k });
        PartitionSeq::new(prims).expect("one temporal by construction")
    })
}

/// The device that sends to `device` under a ring offset `delta`: the same
/// split bits, square coordinates `(r + Δr, c + Δc)` mod `2^k`.
fn ring_sender(
    seq: &PartitionSeq,
    space: DeviceSpace,
    device: DeviceId,
    delta: (i64, i64),
) -> DeviceId {
    let k = seq.temporal_k().expect("temporal present") as usize;
    let side = 1i64 << k;
    let (r, c) = seq.square_coords(space, device).expect("temporal present");
    let sr = (r as i64 + delta.0).rem_euclid(side) as usize;
    let sc = (c as i64 + delta.1).rem_euclid(side) as usize;
    let n = space.n_bits();
    let mut idx = device.index();
    // Row and column bits interleave, most significant first.
    let positions: Vec<usize> = seq.ring_indicator().positions().collect();
    for (j, pair) in positions.chunks(2).enumerate() {
        for (&pos, coord) in pair.iter().zip([sr, sc]) {
            let bit = (coord >> (k - 1 - j)) & 1;
            idx = (idx & !(1 << (n - pos))) | (bit << (n - pos));
        }
    }
    DeviceId(idx)
}

/// The first place where [`PartitionSeq::dsi_indices`] disagrees with the
/// scalar `dsi`, over every phase, step and device of `seq`'s space and
/// several dimension lists: each index, decoded as a mixed-radix number over
/// the dims' slice counts (first dim most significant), must be the scalar
/// DSI on every dim.
fn dsi_indices_mismatch(seq: &PartitionSeq) -> Option<String> {
    let space = DeviceSpace::new(seq.bits());
    let dim_lists: [&[Dim]; 4] = [
        &[Dim::B, Dim::M, Dim::N, Dim::K],
        &[Dim::K, Dim::N, Dim::B],
        &[Dim::N, Dim::K],
        &[Dim::M],
    ];
    let mut column = Vec::new();
    for phase in Phase::ALL {
        for t in 0..seq.temporal_steps() {
            for dims in dim_lists {
                seq.dsi_indices(space, phase, dims, t, &mut column);
                if column.len() != space.num_devices() {
                    return Some(format!("{seq}: {} indices", column.len()));
                }
                for (device, &index) in space.devices().zip(&column) {
                    let mut rest = index;
                    for &dim in dims.iter().rev() {
                        let n = seq.num_slices(dim);
                        let want = seq.dsi(space, phase, dim, device, t);
                        if rest % n != want {
                            return Some(format!(
                                "{seq} {phase} t={t} {dims:?} {device}: {dim} decodes to {}, dsi {want}",
                                rest % n
                            ));
                        }
                        rest /= n;
                    }
                    if rest != 0 {
                        return Some(format!(
                            "{seq} {phase} t={t} {dims:?} {device}: index {index} out of range"
                        ));
                    }
                }
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ring schedule reads nothing of a sequence but `k`: with splits
    /// around `P_{2^k×2^k}` it is the bare square's, step for step, and on
    /// the sequence's own DSIs every transfer's sender holds exactly the
    /// block its receiver needs next.
    #[test]
    fn ring_schedule_is_the_bare_squares(seq in arb_temporal_seq()) {
        let k = seq.temporal_k().expect("temporal by construction");
        let bare = PartitionSeq::new(vec![Primitive::Temporal { k }]).expect("valid");
        let space = DeviceSpace::new(seq.bits());
        for phase in Phase::ALL {
            for t in 0..1usize << k {
                let transfers = ring_transfers(&seq, phase, t);
                prop_assert_eq!(transfers, ring_transfers(&bare, phase, t), "{} {} t={}", seq, phase, t);
                for tr in transfers {
                    // (phase, step) the sender holds the block at, and the
                    // (phase, step) the receiver needs it at.
                    let (have, want) = match tr.reason {
                        TransferReason::Prefetch => ((phase, t), (phase, t + 1)),
                        TransferReason::AccumulatorShift => ((phase, t - 1), (phase, t)),
                        TransferReason::Realign => {
                            let next = match (phase, tr.tensor) {
                                (Phase::Forward, TensorKind::Weight) => Phase::Backward,
                                (Phase::Backward, TensorKind::Weight) => Phase::Forward,
                                _ => Phase::Gradient,
                            };
                            ((phase, t), (next, 0))
                        }
                    };
                    for device in space.devices() {
                        let sender = ring_sender(&seq, space, device, tr.delta);
                        prop_assert_eq!(
                            seq.tensor_dsi(space, have.0, tr.tensor, false, sender, have.1),
                            seq.tensor_dsi(space, want.0, tr.tensor, false, device, want.1),
                            "{} {} t={} {:?} to {}", seq, phase, t, tr, device
                        );
                    }
                }
            }
        }
    }

    /// The reduction-coverage invariant holds for every sequence and phase:
    /// each output block receives every reduce slice exactly once.
    #[test]
    fn reduction_coverage_always_holds(seq in arb_seq()) {
        let space = DeviceSpace::new(seq.bits());
        for phase in Phase::ALL {
            prop_assert!(check_reduction_coverage(&seq, space, phase).is_ok(),
                "coverage violated for {seq} in {phase}");
        }
    }

    /// Feature 3 (phase alignment) holds for every sequence.
    #[test]
    fn phase_alignment_always_holds(seq in arb_seq()) {
        let space = DeviceSpace::new(seq.bits());
        prop_assert!(check_phase_alignment(&seq, space).is_ok(), "misalignment in {seq}");
    }

    /// DSIs stay in range: 0 <= I_X < num_slices(X).
    #[test]
    fn dsi_is_always_in_range(seq in arb_seq()) {
        let space = DeviceSpace::new(seq.bits());
        for device in space.devices() {
            for t in 0..seq.temporal_steps() {
                for phase in Phase::ALL {
                    for dim in Dim::ALL {
                        let dsi = seq.dsi(space, phase, dim, device, t);
                        prop_assert!(dsi < seq.num_slices(dim),
                            "{seq}: DSI {dsi} out of {} for {dim} in {phase}",
                            seq.num_slices(dim));
                    }
                }
            }
        }
    }

    /// The whole-space DSI column is Algorithm 1 on every device: with and
    /// without a temporal primitive, splits on either side of it.
    #[test]
    fn dsi_indices_decode_to_scalar_dsi(seq in arb_seq(), temporal in arb_temporal_seq()) {
        for s in [&seq, &temporal] {
            let mismatch = dsi_indices_mismatch(s);
            prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
        }
    }

    /// Slice counts multiply to the device count times the temporal steps for
    /// matmul dims under a temporal primitive, and ring groups match 2^{2k}.
    #[test]
    fn slice_accounting_is_consistent(seq in arb_seq()) {
        let total: usize = Dim::ALL.iter().map(|&d| seq.num_slices(d)).product();
        // Each split contributes one factor of 2; the temporal primitive
        // contributes 2^k to each of M, N, K = 2^{3k} while consuming 2k bits
        // and 2^k steps: total slices = 2^{bits + k}.
        let expected = seq.num_devices() * seq.temporal_steps();
        prop_assert_eq!(total, expected, "{}", seq);
    }

    /// Ring transfers only exist for temporal sequences, their deltas are
    /// never the identity, and the last forward step is always transfer-free.
    #[test]
    fn ring_schedule_sanity(seq in arb_seq()) {
        match seq.temporal_k() {
            None => {
                for phase in Phase::ALL {
                    prop_assert!(ring_transfers(&seq, phase, 0).is_empty());
                }
            }
            Some(k) => {
                let side = 1usize << k;
                for phase in Phase::ALL {
                    for t in 0..side {
                        for tr in ring_transfers(&seq, phase, t) {
                            let d = (tr.delta.0.rem_euclid(side as i64),
                                     tr.delta.1.rem_euclid(side as i64));
                            prop_assert_ne!(d, (0, 0), "identity transfer in {}", seq);
                        }
                    }
                }
                prop_assert!(ring_transfers(&seq, Phase::Forward, side - 1).is_empty());
            }
        }
    }

    /// A pure temporal sequence never replicates any tensor (feature 2).
    #[test]
    fn pure_temporal_never_replicates(k in 1u32..=2) {
        let seq = PartitionSeq::new(vec![Primitive::Temporal { k }]).expect("valid");
        let space = DeviceSpace::new(seq.bits());
        for phase in Phase::ALL {
            for tensor in TensorKind::ALL {
                for t in 0..seq.temporal_steps() {
                    prop_assert_eq!(replication_factor(&seq, space, phase, tensor, t), 1);
                }
            }
        }
    }

    /// Replication of a tensor equals 2^(number of split bits of dims absent
    /// from that tensor) at any step.
    #[test]
    fn replication_matches_absent_split_dims(seq in arb_seq()) {
        let space = DeviceSpace::new(seq.bits());
        for tensor in [TensorKind::Input, TensorKind::Weight, TensorKind::Output] {
            let dims = tensor.dims(false);
            let absent_splits: usize = Dim::ALL
                .iter()
                .filter(|d| !dims.contains(d))
                .map(|&d| seq.split_indicator(&[d]).len())
                .sum();
            let expected = 1usize << absent_splits;
            let got = replication_factor(&seq, space, Phase::Forward, tensor, 0);
            prop_assert_eq!(got, expected, "{} for {}", seq, tensor);
        }
    }

    /// The all-reduce indicator is empty exactly when no reduce dim of the
    /// phase is split.
    #[test]
    fn allreduce_indicator_matches_reduce_splits(seq in arb_seq()) {
        for phase in Phase::ALL {
            let expected: usize =
                phase.reduce_dims().iter().map(|&d| seq.split_indicator(&[d]).len()).sum();
            let ind = seq.allreduce_indicator(phase, false);
            prop_assert_eq!(ind.len(), expected, "{} in {}", seq, phase);
        }
    }

    /// Square coordinates are a bijection within each temporal group.
    #[test]
    fn square_coords_are_bijective(k in 1u32..=2, prefix in 0usize..2) {
        let mut prims = vec![];
        for _ in 0..prefix {
            prims.push(Primitive::Split(Dim::B));
        }
        prims.push(Primitive::Temporal { k });
        let seq = PartitionSeq::new(prims).expect("valid");
        let space = DeviceSpace::new(seq.bits());
        let side = 1usize << k;
        let mut seen = std::collections::HashSet::new();
        for device in space.devices() {
            let (r, c) = seq.square_coords(space, device).expect("temporal present");
            prop_assert!(r < side && c < side);
            // Within the same split-prefix group, coordinates are unique.
            let group = device.index() >> (2 * k as usize);
            prop_assert!(seen.insert((group, r, c)), "duplicate coords in {}", seq);
        }
    }
}

/// Fixed sequences, among them three 9-bit (512-device) ones past the
/// strategies' reach: splits on either side of a `P_{4×4}`, and dimensions
/// split several times.
#[test]
fn dsi_indices_decode_to_scalar_dsi_on_fixed_sequences() {
    let seqs = [
        "M N",
        "B B K",
        "M P2x2",
        "P4x4 B N",
        "M N P4x4 K M B",
        "K K B N N P4x4",
        "P4x4 N N M K N",
    ];
    for text in seqs {
        let seq: PartitionSeq = text.parse().expect("valid sequence");
        assert_eq!(dsi_indices_mismatch(&seq), None);
    }
}
