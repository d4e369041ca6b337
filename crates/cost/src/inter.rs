//! Inter-operator redistribution cost (paper §4.2, Eqs. 8–9).
//!
//! When operator `n₁`'s output feeds `n₂`, each device already holds the
//! intersection of "what it computed" and "what it needs"; the rest must be
//! redistributed. The intersection is evaluated per named axis: the slice
//! each device holds of every dimension (at the producer's last temporal step
//! and the consumer's first, per Eq. 8) projects onto axis intervals, and the
//! per-device overlap is the product of interval intersections (Eq. 9's
//! `∏_X |S¹_X ∩ S²_X|`).

use primepar_graph::{Axis, Edge, Graph, Operator};
use primepar_partition::{Dim, PartitionSeq, Phase, TensorKind};
use primepar_topology::DeviceSpace;

use crate::{AxisIntervals, CostCtx};

/// Which side of the edge a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Side {
    /// Producer of the tensor: holdings at the phase's last temporal step.
    Produce,
    /// Consumer of the tensor: needs at the phase's first temporal step.
    Consume,
}

/// Per-device axis holdings of one endpoint of an edge, precomputed so the
/// dynamic-programming optimizer can evaluate `e(p_i, p_j)` for all partition
/// pairs cheaply.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryProfile {
    holdings: Vec<AxisIntervals>,
    volume_fraction: f64,
}

impl BoundaryProfile {
    /// Fraction of the edge tensor one device's block covers.
    pub fn volume_fraction(&self) -> f64 {
        self.volume_fraction
    }

    /// Per-device holdings.
    pub fn holdings(&self) -> &[AxisIntervals] {
        &self.holdings
    }
}

/// The dimensions an operator exposes on an edge for the given operand role.
pub(crate) fn side_dims(op: &Operator, kind: TensorKind) -> Vec<Dim> {
    if op.is_matmul_like() {
        kind.dims(op.weight_has_batch()).to_vec()
    } else {
        // Point-wise operators pass activations through: input ≡ output dims.
        vec![Dim::B, Dim::M, Dim::K]
    }
}

/// `axis` after the edge's destination-side `renames`.
pub(crate) fn renamed(renames: &[(Axis, Axis)], axis: Axis) -> Axis {
    renames
        .iter()
        .find(|&&(from, _)| from == axis)
        .map_or(axis, |&(_, to)| to)
}

/// Builds the per-device holdings of one endpoint.
///
/// * `kind` — the tensor role on this operator (`Output`/`GradOutput` on the
///   producer side, the edge's `dst_kind` or its gradient on the consumer).
/// * `phase`/`side` — which DSIs apply (Eq. 8 uses the producer's last step
///   and the consumer's step 0).
/// * `renames` — destination-side axis renames from the edge.
/// * `selector` — source-side `Qkv` sub-range from the edge.
pub(crate) fn profile(
    op: &Operator,
    seq: &PartitionSeq,
    space: DeviceSpace,
    kind: TensorKind,
    phase: Phase,
    side: Side,
    renames: &[(Axis, Axis)],
    selector: Option<(f64, f64)>,
) -> BoundaryProfile {
    let t = match side {
        Side::Produce => seq.temporal_steps() - 1,
        Side::Consume => 0,
    };
    let dims = side_dims(op, kind);
    let rename = |a| renamed(renames, a);
    let mut volume_fraction = 1.0;
    for &dim in &dims {
        let extent = op.extent(dim).max(1) as f64;
        let slices = seq.num_slices(dim) as f64;
        volume_fraction /= slices.min(extent);
    }
    let holdings = space
        .devices()
        .map(|device| {
            let mut iv = AxisIntervals::full();
            let mut alive = true;
            for &dim in &dims {
                let slices = seq.num_slices(dim);
                let idx = seq.dsi(space, phase, dim, device, t);
                let lo = idx as f64 / slices as f64;
                let hi = (idx + 1) as f64 / slices as f64;
                iv.project(&op.axes[dim.index()], lo, hi, rename);
            }
            if let Some((s0, s1)) = selector {
                alive = iv.select(Axis::Qkv, s0, s1);
            }
            if alive {
                iv
            } else {
                // Holds nothing of the selected sub-tensor.
                let mut empty = AxisIntervals::full();
                empty.narrow(Axis::Qkv, 0.0, 0.0);
                empty
            }
        })
        .collect();
    BoundaryProfile {
        holdings,
        volume_fraction,
    }
}

/// Cross-sequence interning state for one side build. Within a side the
/// operator, tensor kind, renames and selector are fixed, so a holding is
/// fully determined by the per-dimension `(slice count, slice index)` pair —
/// sequences that cut a dimension into the same number of slices share every
/// holding, no matter how their primitives are ordered. The memo maps
/// `(slice-shape id, DSI tuple) → interned unique id`, so repeat tuples
/// across sequences skip interval construction and densification entirely.
#[derive(Debug, Default)]
pub(crate) struct ShapeMemo {
    /// Per-dimension slice counts → dense shape id.
    shapes: std::collections::HashMap<[usize; 4], u32>,
    /// `(shape id, DSI tuple)` → the caller's interned unique id.
    of_tuple: std::collections::HashMap<(u32, [usize; 4]), u32>,
}

impl ShapeMemo {
    pub(crate) fn new() -> Self {
        ShapeMemo::default()
    }
}

/// [`profile`] with deduplication, appending per-device interned ids to
/// `ids` (one per device, in device order) and returning the side's volume
/// fraction. Devices whose DSI index tuples coincide hold bitwise-identical
/// axis intervals (the projection depends on the sequence and the
/// per-dimension slice indices only), so each distinct tuple is computed
/// once: the compiled [`DsiProgram`](primepar_partition::DsiProgram) names
/// the device-index bits the tuple can depend on, tuples are evaluated once
/// per distinct *masked* index (every submask of the mask), resolved
/// through `memo`, and fanned out to the full device list by a
/// mask-and-lookup — the hot loop of whole-space profile builds. `intern`
/// maps a freshly built holding to the caller's unique id.
#[allow(clippy::too_many_arguments)]
pub(crate) fn profile_dedup_into(
    op: &Operator,
    seq: &PartitionSeq,
    space: DeviceSpace,
    kind: TensorKind,
    phase: Phase,
    side: Side,
    renames: &[(Axis, Axis)],
    selector: Option<(f64, f64)>,
    memo: &mut ShapeMemo,
    intern: &mut dyn FnMut(AxisIntervals) -> u32,
    ids: &mut Vec<u32>,
) -> f64 {
    let t = match side {
        Side::Produce => seq.temporal_steps() - 1,
        Side::Consume => 0,
    };
    let dims = side_dims(op, kind);
    let rename = |a| renamed(renames, a);
    let mut volume_fraction = 1.0;
    let mut slices4 = [0usize; 4];
    for (slot, &dim) in slices4.iter_mut().zip(&dims) {
        let extent = op.extent(dim).max(1) as f64;
        let slices = seq.num_slices(dim);
        *slot = slices;
        volume_fraction /= (slices as f64).min(extent);
    }
    assert!(dims.len() <= 4, "DSI tuple key holds at most four dims");
    let next_shape = memo.shapes.len() as u32;
    let shape = *memo.shapes.entry(slices4).or_insert(next_shape);
    let prog = seq.dsi_program(space, phase, &dims, t);
    let mask = prog.relevant_mask();
    let mut id_of_masked = vec![u32::MAX; space.num_devices()];
    let mut sub = mask;
    loop {
        let idxs = prog.keys(sub);
        id_of_masked[sub] = *memo.of_tuple.entry((shape, idxs)).or_insert_with(|| {
            let mut iv = AxisIntervals::full();
            let mut alive = true;
            for ((&idx, &slices), &dim) in idxs.iter().zip(&slices4).zip(&dims) {
                let lo = idx as f64 / slices as f64;
                let hi = (idx + 1) as f64 / slices as f64;
                iv.project(&op.axes[dim.index()], lo, hi, rename);
            }
            if let Some((s0, s1)) = selector {
                alive = iv.select(Axis::Qkv, s0, s1);
            }
            let holding = if alive {
                iv
            } else {
                // Holds nothing of the selected sub-tensor.
                let mut empty = AxisIntervals::full();
                empty.narrow(Axis::Qkv, 0.0, 0.0);
                empty
            };
            intern(holding)
        });
        if sub == 0 {
            break;
        }
        sub = (sub - 1) & mask;
    }
    ids.extend((0..space.num_devices()).map(|d| id_of_masked[d & mask]));
    volume_fraction
}

/// Total redistribution traffic (bytes, forward + backward) of `edge` when
/// the producer runs under `src_seq` and the consumer under `dst_seq`
/// (Eq. 9 summed over devices, for both the activation and its gradient).
pub fn inter_traffic_bytes(
    edge: &Edge,
    src_op: &Operator,
    dst_op: &Operator,
    src_seq: &PartitionSeq,
    dst_seq: &PartitionSeq,
) -> f64 {
    let space = DeviceSpace::new(src_seq.bits());
    assert_eq!(
        src_seq.bits(),
        dst_seq.bits(),
        "both operators span the same devices"
    );
    let total_elems: f64 = side_dims(dst_op, edge.dst_kind)
        .iter()
        .map(|&d| dst_op.extent(d).max(1) as f64)
        .product();

    // Forward: producer's output (last step) vs consumer's operand (step 0).
    let produce = profile(
        src_op,
        src_seq,
        space,
        TensorKind::Output,
        Phase::Forward,
        Side::Produce,
        &[],
        edge.selector,
    );
    let consume = profile(
        dst_op,
        dst_seq,
        space,
        edge.dst_kind,
        Phase::Forward,
        Side::Consume,
        &edge.renames,
        None,
    );
    let fwd = directional_traffic(total_elems, &consume, &produce);

    // Backward: consumer produces the operand's gradient (its backward or
    // gradient phase, last step); producer needs its dO (backward step 0).
    let grad_kind = match edge.dst_kind {
        TensorKind::Weight => TensorKind::GradWeight,
        _ => TensorKind::GradInput,
    };
    let grad_phase = match grad_kind {
        TensorKind::GradWeight => Phase::Gradient,
        _ => Phase::Backward,
    };
    let g_produce = profile(
        dst_op,
        dst_seq,
        space,
        grad_kind,
        grad_phase,
        Side::Produce,
        &edge.renames,
        None,
    );
    let g_consume = profile(
        src_op,
        src_seq,
        space,
        TensorKind::GradOutput,
        Phase::Backward,
        Side::Consume,
        &[],
        edge.selector,
    );
    let bwd = directional_traffic(total_elems, &g_consume, &g_produce);

    4.0 * (fwd + bwd)
}

/// [`inter_traffic_bytes`] of every edge of `graph` under the plan `seqs`, in
/// `graph.edges` order. The volumes depend only on the operators, the
/// sequences and the device bits, never on the cluster, so one vector serves
/// every simulation of the plan on any cluster of its size.
///
/// # Panics
///
/// Panics if `seqs.len() != graph.ops.len()`.
pub fn plan_traffic_bytes(graph: &Graph, seqs: &[PartitionSeq]) -> Vec<f64> {
    assert_eq!(seqs.len(), graph.ops.len(), "one sequence per operator");
    graph
        .edges
        .iter()
        .map(|edge| {
            inter_traffic_bytes(
                edge,
                &graph.ops[edge.src],
                &graph.ops[edge.dst],
                &seqs[edge.src],
                &seqs[edge.dst],
            )
        })
        .collect()
}

/// Eq. 9 for one direction: `Σ_D (V − |needed ∩ held|)` in elements.
pub(crate) fn directional_traffic(
    total_elems: f64,
    needs: &BoundaryProfile,
    holds: &BoundaryProfile,
) -> f64 {
    let mut traffic = 0.0;
    let v = total_elems * needs.volume_fraction;
    for (need, hold) in needs.holdings.iter().zip(&holds.holdings) {
        let overlap = total_elems * need.overlap_fraction(hold);
        traffic += (v - overlap).max(0.0);
    }
    traffic
}

/// Inter-operator cost: the latency of the redistribution traffic under the
/// context's fitted linear model (paper §4.2).
pub fn inter_cost(
    ctx: &CostCtx<'_>,
    edge: &Edge,
    src_op: &Operator,
    dst_op: &Operator,
    src_seq: &PartitionSeq,
    dst_seq: &PartitionSeq,
) -> f64 {
    ctx.note_inter_evals(1);
    ctx.redistribution_time(inter_traffic_bytes(edge, src_op, dst_op, src_seq, dst_seq))
}

/// Dense `|src_seqs| × |dst_seqs|` edge-cost matrix (row-major) for the
/// optimizer. Endpoint profiles are precomputed once per sequence, so each
/// pair costs only the per-device interval products.
pub fn edge_cost_matrix(
    ctx: &CostCtx<'_>,
    edge: &Edge,
    src_op: &Operator,
    dst_op: &Operator,
    src_seqs: &[PartitionSeq],
    dst_seqs: &[PartitionSeq],
) -> Vec<f64> {
    let space = DeviceSpace::new(src_seqs[0].bits());
    let total_elems: f64 = side_dims(dst_op, edge.dst_kind)
        .iter()
        .map(|&d| dst_op.extent(d).max(1) as f64)
        .product();
    let produce: Vec<BoundaryProfile> = src_seqs
        .iter()
        .map(|s| {
            profile(
                src_op,
                s,
                space,
                TensorKind::Output,
                Phase::Forward,
                Side::Produce,
                &[],
                edge.selector,
            )
        })
        .collect();
    let consume: Vec<BoundaryProfile> = dst_seqs
        .iter()
        .map(|s| {
            profile(
                dst_op,
                s,
                space,
                edge.dst_kind,
                Phase::Forward,
                Side::Consume,
                &edge.renames,
                None,
            )
        })
        .collect();
    let grad_kind = match edge.dst_kind {
        TensorKind::Weight => TensorKind::GradWeight,
        _ => TensorKind::GradInput,
    };
    let grad_phase = match grad_kind {
        TensorKind::GradWeight => Phase::Gradient,
        _ => Phase::Backward,
    };
    let g_produce: Vec<BoundaryProfile> = dst_seqs
        .iter()
        .map(|s| {
            profile(
                dst_op,
                s,
                space,
                grad_kind,
                grad_phase,
                Side::Produce,
                &edge.renames,
                None,
            )
        })
        .collect();
    let g_consume: Vec<BoundaryProfile> = src_seqs
        .iter()
        .map(|s| {
            profile(
                src_op,
                s,
                space,
                TensorKind::GradOutput,
                Phase::Backward,
                Side::Consume,
                &[],
                edge.selector,
            )
        })
        .collect();

    // Dense per-axis tables for the O(|src| x |dst| x devices) hot loop.
    let dense = |ps: &[BoundaryProfile]| -> Vec<(f64, Vec<crate::DenseIntervals>)> {
        ps.iter()
            .map(|p| {
                (
                    p.volume_fraction,
                    p.holdings.iter().map(|h| h.to_dense()).collect(),
                )
            })
            .collect()
    };
    let (produce_d, consume_d, g_produce_d, g_consume_d) = (
        dense(&produce),
        dense(&consume),
        dense(&g_produce),
        dense(&g_consume),
    );

    ctx.note_inter_evals((src_seqs.len() * dst_seqs.len()) as u64);
    let mut matrix = vec![0.0; src_seqs.len() * dst_seqs.len()];
    for i in 0..src_seqs.len() {
        for j in 0..dst_seqs.len() {
            let fwd = dense_traffic(total_elems, &consume_d[j], &produce_d[i]);
            let bwd = dense_traffic(total_elems, &g_consume_d[i], &g_produce_d[j]);
            matrix[i * dst_seqs.len() + j] = ctx.redistribution_time(4.0 * (fwd + bwd));
        }
    }
    matrix
}

/// Dense-path counterpart of [`directional_traffic`].
fn dense_traffic(
    total_elems: f64,
    needs: &(f64, Vec<crate::DenseIntervals>),
    holds: &(f64, Vec<crate::DenseIntervals>),
) -> f64 {
    let v = total_elems * needs.0;
    let mut traffic = 0.0;
    for (need, hold) in needs.1.iter().zip(&holds.1) {
        let overlap = total_elems * need.overlap_fraction(hold);
        traffic += (v - overlap).max(0.0);
    }
    traffic
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;
    use primepar_partition::Primitive;
    use primepar_topology::Cluster;

    fn seq(prims: Vec<Primitive>) -> PartitionSeq {
        PartitionSeq::new(prims).unwrap()
    }

    fn graph() -> primepar_graph::Graph {
        ModelConfig::opt_6_7b().layer_graph(8, 2048)
    }

    #[test]
    fn identical_aligned_partitions_need_no_redistribution() {
        // fc1 → act, both K-split: producer's output K slice is exactly the
        // consumer's input slice.
        let g = graph();
        let edge = g.edges.iter().find(|e| e.src == 9 && e.dst == 10).unwrap();
        let s = seq(vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]);
        let t = inter_traffic_bytes(edge, &g.ops[9], &g.ops[10], &s, &s);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn batch_splits_align_across_the_whole_chain() {
        let g = graph();
        let s = seq(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::B)]);
        for (src, dst) in [(0usize, 1usize), (7, 8), (8, 9), (10, 11), (11, 12)] {
            let edge = g
                .edges
                .iter()
                .find(|e| e.src == src && e.dst == dst)
                .unwrap();
            let t = inter_traffic_bytes(edge, &g.ops[src], &g.ops[dst], &s, &s);
            assert_eq!(t, 0.0, "edge ({src}, {dst})");
        }
    }

    #[test]
    fn megatron_attention_alignment_is_free() {
        // Column-split QKV (heads) feeding head-split attention: the defining
        // zero-communication property of Megatron's attention parallelism.
        let g = graph();
        let qkv_split = seq(vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]);
        let head_split = seq(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::B)]);
        for edge in g.edges.iter().filter(|e| e.src == 2) {
            let t = inter_traffic_bytes(edge, &g.ops[2], &g.ops[edge.dst], &qkv_split, &head_split);
            assert_eq!(t, 0.0, "edge (2, {}) kind {:?}", edge.dst, edge.dst_kind);
        }
        // And onward: attention internal edges under the same head split.
        for (src, dst) in [(3usize, 4usize), (4, 5)] {
            let edge = g
                .edges
                .iter()
                .find(|e| e.src == src && e.dst == dst)
                .unwrap();
            let t = inter_traffic_bytes(edge, &g.ops[src], &g.ops[dst], &head_split, &head_split);
            assert_eq!(t, 0.0, "edge ({src}, {dst})");
        }
        // av (head-split) → proj (row-split over head-major hidden): aligned.
        let edge = g.edges.iter().find(|e| e.src == 5 && e.dst == 6).unwrap();
        let proj_row = seq(vec![Primitive::Split(Dim::N), Primitive::Split(Dim::N)]);
        let t = inter_traffic_bytes(edge, &g.ops[5], &g.ops[6], &head_split, &proj_row);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn mismatched_partitions_pay_traffic() {
        // fc1 K-split feeding an M-split consumer: nothing aligns.
        let g = graph();
        let edge = g.edges.iter().find(|e| e.src == 9 && e.dst == 10).unwrap();
        let ksplit = seq(vec![Primitive::Split(Dim::K)]);
        let msplit = seq(vec![Primitive::Split(Dim::M)]);
        let t = inter_traffic_bytes(edge, &g.ops[9], &g.ops[10], &ksplit, &msplit);
        assert!(t > 0.0);
        // Traffic is bounded by the full tensor (both directions).
        let full = 2.0 * 4.0 * (8.0 * 2048.0 * 16384.0);
        assert!(t <= full * 1.001, "t = {t}, bound {full}");
    }

    #[test]
    fn temporal_boundary_alignment() {
        // fc1 and fc2 both under P_{2x2}: fc1's output distribution (M, K
        // slices (r, c)) vs fc2's input need (M=r, N=(r+c+0)) — partial
        // alignment, nonzero but less than full redistribution.
        let g = graph();
        let edge = g.edges.iter().find(|e| e.src == 10 && e.dst == 11).unwrap();
        let p = seq(vec![Primitive::Temporal { k: 1 }]);
        let t = inter_traffic_bytes(edge, &g.ops[10], &g.ops[11], &p, &p);
        let v_total = 4.0 * 2.0 * (8.0 * 2048.0 * 16384.0);
        assert!(t > 0.0 && t < v_total, "t = {t} vs {v_total}");
    }

    #[test]
    fn edge_cost_matrix_matches_pointwise_eval() {
        let cluster = Cluster::v100_like(4);
        let ctx = CostCtx::new(&cluster, 0.0);
        let g = graph();
        let edge = g.edges.iter().find(|e| e.src == 9 && e.dst == 10).unwrap();
        let src_seqs = vec![
            seq(vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]),
            seq(vec![Primitive::Temporal { k: 1 }]),
        ];
        let dst_seqs = vec![
            seq(vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]),
            seq(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::M)]),
        ];
        let matrix = edge_cost_matrix(&ctx, edge, &g.ops[9], &g.ops[10], &src_seqs, &dst_seqs);
        for (i, ss) in src_seqs.iter().enumerate() {
            for (j, ds) in dst_seqs.iter().enumerate() {
                let direct = inter_cost(&ctx, edge, &g.ops[9], &g.ops[10], ss, ds);
                let cached = matrix[i * dst_seqs.len() + j];
                assert!(
                    (direct - cached).abs() < 1e-12,
                    "({i},{j}): {direct} vs {cached}"
                );
            }
        }
    }

    #[test]
    fn selector_scopes_qkv_edges_to_their_slice() {
        // Each of the three QKV edges prices a destination-sized tensor (Q,
        // K or V), not the full fused projection: the three dst-side tensors
        // together match the fused output volume, and the selector leaves a
        // coarse source holding (which spans all of Q) untouched.
        let g = graph();
        let src = seq(vec![Primitive::Split(Dim::M), Primitive::Split(Dim::M)]);
        let dst = seq(vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]);
        let q_edge = g
            .edges
            .iter()
            .find(|e| e.src == 2 && e.dst == 3 && e.dst_kind == TensorKind::Input)
            .unwrap();
        let t = inter_traffic_bytes(q_edge, &g.ops[2], &g.ops[3], &src, &dst);
        // Bound: 2 directions x 4 replicating devices x the Q tensor.
        let q_total = 4.0 * (8.0 * 32.0) * 2048.0 * 128.0;
        assert!(
            t > 0.0 && t <= 2.0 * 4.0 * q_total * 1.001,
            "t = {t}, bound {q_total}"
        );
        // A device holding only the V portion of a finely-cut source would
        // contribute zero overlap to the Q edge — the interval-level
        // behaviour is covered by `intervals::tests::select_misses_disjoint_range`.
    }
}
