//! Inter-operator redistribution cost (paper §4.2, Eqs. 8–9).
//!
//! When operator `n₁`'s output feeds `n₂`, each device already holds the
//! intersection of "what it computed" and "what it needs"; the rest must be
//! redistributed. The intersection is evaluated per named axis: the slice
//! each device holds of every dimension (at the producer's last temporal step
//! and the consumer's first, per Eq. 8) projects onto axis intervals, and the
//! per-device overlap is the product of interval intersections (Eq. 9's
//! `∏_X |S¹_X ∩ S²_X|`).
//!
//! One model serves every caller: `EdgeSides` names an edge's four sides,
//! `EdgeSide::holding` builds every per-device holding, and `traffic` is the
//! direct reduction. The planner's cache, the simulator's plan volumes, the
//! reference [`edge_cost_matrix`] and the migration prices all read them.
//! The cache stores each holding that `profile_dedup_into` hands it as
//! per-axis interval ids, interned once; that builder reads every device's
//! DSI tuple from one [`PartitionSeq::dsi_indices`] column per sequence.

use primepar_graph::{Axis, Edge, Operator};
use primepar_partition::{Dim, PartitionSeq, Phase, TensorKind};
use primepar_topology::DeviceSpace;

use crate::{CostCtx, DenseIntervals};

/// Which side of the edge a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Side {
    /// Producer of the tensor: holdings at the phase's last temporal step.
    Produce,
    /// Consumer of the tensor: needs at the phase's first temporal step.
    Consume,
}

/// `axis` after the edge's destination-side `renames`.
pub(crate) fn renamed(renames: &[(Axis, Axis)], axis: Axis) -> Axis {
    renames
        .iter()
        .find(|&&(from, _)| from == axis)
        .map_or(axis, |&(_, to)| to)
}

/// One side of an edge: one operator's tensor in one role, read at one DSI
/// phase and temporal step, with the edge's renames and selector applied.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeSide<'a> {
    pub(crate) op: &'a Operator,
    /// The tensor's dimensions on `op`, in order.
    pub(crate) dims: &'static [Dim],
    pub(crate) phase: Phase,
    pub(crate) side: Side,
    /// Destination-side axis renames from the edge.
    pub(crate) renames: &'a [(Axis, Axis)],
    /// Source-side `Qkv` sub-range from the edge.
    pub(crate) selector: Option<(f64, f64)>,
}

impl<'a> EdgeSide<'a> {
    /// The side of `op`'s tensor `kind`. Point-wise operators pass
    /// activations through, so every role of theirs has the output's dims.
    pub(crate) fn new(
        op: &'a Operator,
        kind: TensorKind,
        phase: Phase,
        side: Side,
        renames: &'a [(Axis, Axis)],
        selector: Option<(f64, f64)>,
    ) -> Self {
        let dims: &'static [Dim] = if op.is_matmul_like() {
            kind.dims(op.weight_has_batch())
        } else {
            &[Dim::B, Dim::M, Dim::K]
        };
        assert!(dims.len() <= 4, "DSI tuple key holds at most four dims");
        EdgeSide {
            op,
            dims,
            phase,
            side,
            renames,
            selector,
        }
    }

    /// The DSI step Eq. 8 reads under `seq`: a producer's last temporal
    /// step, a consumer's step 0.
    fn step(&self, seq: &PartitionSeq) -> usize {
        match self.side {
            Side::Produce => seq.temporal_steps() - 1,
            Side::Consume => 0,
        }
    }

    /// Each dimension's slice count under `seq` (trailing slots 0), and the
    /// fraction of the tensor one block covers (Eq. 9's `V`, as a fraction).
    fn slicing(&self, seq: &PartitionSeq) -> ([usize; 4], f64) {
        let mut slices = [0usize; 4];
        let mut volume_fraction = 1.0;
        for (slot, &dim) in slices.iter_mut().zip(self.dims) {
            let extent = self.op.extent(dim).max(1) as f64;
            *slot = seq.num_slices(dim);
            volume_fraction /= (*slot as f64).min(extent);
        }
        (slices, volume_fraction)
    }

    /// The one holding builder: the per-dimension `(slice count, DSI index)`
    /// pairs projected onto the renamed axes, then scoped by the selector. A
    /// holding that misses the selected sub-tensor holds nothing: full on
    /// every axis but `Qkv`, which is `(0, 0)`.
    fn holding(&self, slices: &[usize; 4], idxs: &[usize; 4]) -> DenseIntervals {
        let mut iv = DenseIntervals::FULL;
        for ((&dim, &slices), &idx) in self.dims.iter().zip(slices).zip(idxs) {
            let lo = idx as f64 / slices as f64;
            let hi = (idx + 1) as f64 / slices as f64;
            iv.project(&self.op.axes[dim.index()], lo, hi, |a| {
                renamed(self.renames, a)
            });
        }
        if let Some((s0, s1)) = self.selector {
            if !iv.select(Axis::Qkv, s0, s1) {
                iv = DenseIntervals::FULL;
                iv.narrow(Axis::Qkv, 0.0, 0.0);
            }
        }
        iv
    }

    /// The direct builder: the block volume fraction and every device's
    /// holding under `seq`, one [`PartitionSeq::dsi`] per dimension and
    /// device.
    pub(crate) fn profile(
        &self,
        seq: &PartitionSeq,
        space: DeviceSpace,
    ) -> (f64, Vec<DenseIntervals>) {
        let (slices, volume_fraction) = self.slicing(seq);
        let t = self.step(seq);
        let holdings = space
            .devices()
            .map(|device| {
                let mut idxs = [0usize; 4];
                for (idx, &dim) in idxs.iter_mut().zip(self.dims) {
                    *idx = seq.dsi(space, self.phase, dim, device, t);
                }
                self.holding(&slices, &idxs)
            })
            .collect();
        (volume_fraction, holdings)
    }

    /// The deduplicating builder: [`profile`](Self::profile) as interned
    /// ids, one per device in device order, written through `slots`, and the
    /// block volume fraction. Devices whose DSI tuples coincide hold
    /// bitwise-identical intervals, so each distinct tuple is built once:
    /// [`PartitionSeq::dsi_indices`] gives every device's tuple as its index
    /// into `memo`'s table for the slice shape, and only a tuple the table
    /// has not met yet is built and handed to `intern`, which maps it to the
    /// caller's unique id.
    pub(crate) fn profile_dedup_into<'s>(
        &self,
        seq: &PartitionSeq,
        space: DeviceSpace,
        memo: &mut ShapeMemo,
        intern: &mut dyn FnMut(DenseIntervals) -> u32,
        slots: impl Iterator<Item = &'s mut u32>,
    ) -> f64 {
        let (slices, volume_fraction) = self.slicing(seq);
        let (table, column) = memo.table(slices);
        seq.dsi_indices(space, self.phase, self.dims, self.step(seq), column);
        for (slot, &index) in slots.zip(column.iter()) {
            let id = &mut table[index];
            if *id == u32::MAX {
                let mut rest = index;
                let mut idxs = [0usize; 4];
                for (idx, &n) in idxs.iter_mut().zip(&slices).take(self.dims.len()).rev() {
                    *idx = rest % n;
                    rest /= n;
                }
                *id = intern(self.holding(&slices, &idxs));
            }
            *slot = *id;
        }
        volume_fraction
    }
}

/// Cross-sequence interning state for one side build. Within a side the
/// operator, tensor kind, renames and selector are fixed, so a holding is
/// fully determined by the per-dimension `(slice count, slice index)` pair —
/// sequences that cut a dimension into the same number of slices share every
/// holding, no matter how their primitives are ordered. The memo keeps one
/// dense table per slice shape, indexed by the DSI tuple read as a
/// mixed-radix number over that shape's slice counts (the index
/// [`PartitionSeq::dsi_indices`] writes), so repeat tuples across sequences
/// skip interval construction entirely. One build meets a few dozen shapes
/// at most (34 on the Table-2 point), so the shapes are a short list scanned
/// in order.
#[derive(Debug, Default)]
pub(crate) struct ShapeMemo {
    /// Per-dimension slice counts and the caller's interned unique id of
    /// every DSI tuple of that shape (`u32::MAX` until first built).
    tables: Vec<([usize; 4], Vec<u32>)>,
    /// Every device's tuple index: one buffer every sequence of the build
    /// reuses.
    column: Vec<usize>,
}

impl ShapeMemo {
    pub(crate) fn new() -> Self {
        ShapeMemo::default()
    }

    /// The id table of slice shape `slices`, allocated on first use, and the
    /// tuple-index buffer.
    fn table(&mut self, slices: [usize; 4]) -> (&mut [u32], &mut Vec<usize>) {
        let at = match self.tables.iter().position(|(s, _)| *s == slices) {
            Some(at) => at,
            None => {
                let tuples = slices.iter().map(|&n| n.max(1)).product();
                self.tables.push((slices, vec![u32::MAX; tuples]));
                self.tables.len() - 1
            }
        };
        (&mut self.tables[at].1, &mut self.column)
    }
}

/// Eq. 8's four sides of one edge and its element count, for every caller
/// that prices the edge.
#[derive(Debug)]
pub(crate) struct EdgeSides<'a> {
    pub(crate) space: DeviceSpace,
    /// Forward holds (rows): the producer's output at its last forward step.
    pub(crate) produce: EdgeSide<'a>,
    /// Forward needs (columns): the consumer's operand at forward step 0.
    pub(crate) consume: EdgeSide<'a>,
    /// Backward holds (columns): the consumer's operand gradient at the last
    /// step of its backward phase (the gradient phase for a weight).
    pub(crate) g_produce: EdgeSide<'a>,
    /// Backward needs (rows): the producer's dO at backward step 0.
    pub(crate) g_consume: EdgeSide<'a>,
    /// Elements of the edge tensor (the consumer's operand).
    pub(crate) total_elems: f64,
}

impl<'a> EdgeSides<'a> {
    /// The sides of `edge` when the producer's sequences span `src_bits`
    /// device bits and the consumer's `dst_bits`.
    ///
    /// # Panics
    ///
    /// Panics if the two bit counts differ.
    pub(crate) fn new(
        edge: &'a Edge,
        src_op: &'a Operator,
        dst_op: &'a Operator,
        src_bits: usize,
        dst_bits: usize,
    ) -> Self {
        assert_eq!(src_bits, dst_bits, "both operators span the same devices");
        let (grad_kind, grad_phase) = match edge.dst_kind {
            TensorKind::Weight => (TensorKind::GradWeight, Phase::Gradient),
            _ => (TensorKind::GradInput, Phase::Backward),
        };
        let src = |kind, phase, side| EdgeSide::new(src_op, kind, phase, side, &[], edge.selector);
        let dst = |kind, phase, side| EdgeSide::new(dst_op, kind, phase, side, &edge.renames, None);
        let consume = dst(edge.dst_kind, Phase::Forward, Side::Consume);
        EdgeSides {
            space: DeviceSpace::new(src_bits),
            produce: src(TensorKind::Output, Phase::Forward, Side::Produce),
            consume,
            g_produce: dst(grad_kind, grad_phase, Side::Produce),
            g_consume: src(TensorKind::GradOutput, Phase::Backward, Side::Consume),
            total_elems: consume
                .dims
                .iter()
                .map(|&d| dst_op.extent(d).max(1) as f64)
                .product(),
        }
    }
}

/// Eq. 9 for one direction, in elements: `Σ_d (V − total·|need_d ∩
/// hold_d|)⁺` over the devices ascending from `0.0`, where `V = total ·
/// need_fraction` is one need block.
pub(crate) fn traffic(
    total_elems: f64,
    need_fraction: f64,
    needs: &[DenseIntervals],
    holds: &[DenseIntervals],
) -> f64 {
    let v = total_elems * need_fraction;
    let mut traffic = 0.0;
    for (need, hold) in needs.iter().zip(holds) {
        let overlap = total_elems * need.overlap_fraction(hold);
        traffic += (v - overlap).max(0.0);
    }
    traffic
}

/// The reference volume plane of `edge`: the redistribution bytes `4·(f +
/// b)` (Eqs. 8–9, forward plus backward) of every `(src, dst)` sequence
/// pair, row-major. Each side is built per sequence by the direct builder
/// and each cell is reduced on its own, independently of the planner's
/// cache and sweep.
fn volume_plane(
    edge: &Edge,
    src_op: &Operator,
    dst_op: &Operator,
    src_seqs: &[PartitionSeq],
    dst_seqs: &[PartitionSeq],
) -> Vec<f64> {
    let sides = EdgeSides::new(edge, src_op, dst_op, src_seqs[0].bits(), dst_seqs[0].bits());
    let profiles = |side: &EdgeSide, seqs: &[PartitionSeq]| -> Vec<(f64, Vec<DenseIntervals>)> {
        seqs.iter().map(|s| side.profile(s, sides.space)).collect()
    };
    let produce = profiles(&sides.produce, src_seqs);
    let consume = profiles(&sides.consume, dst_seqs);
    let g_produce = profiles(&sides.g_produce, dst_seqs);
    let g_consume = profiles(&sides.g_consume, src_seqs);
    let total = sides.total_elems;
    let mut plane = Vec::with_capacity(src_seqs.len() * dst_seqs.len());
    for (p, gc) in produce.iter().zip(&g_consume) {
        for (c, gp) in consume.iter().zip(&g_produce) {
            let fwd = traffic(total, c.0, &c.1, &p.1);
            let bwd = traffic(total, gc.0, &gc.1, &gp.1);
            plane.push(4.0 * (fwd + bwd));
        }
    }
    plane
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
    use std::slice::from_ref;
    volume_plane(edge, src_op, dst_op, from_ref(src_seq), from_ref(dst_seq))[0]
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

/// Dense `|src_seqs| × |dst_seqs|` edge-cost matrix (row-major): the
/// reference the planner's [`EdgeCostCache`](crate::EdgeCostCache) sweep is
/// checked against, bit for bit. Each cell is [`inter_cost`] of its pair.
pub fn edge_cost_matrix(
    ctx: &CostCtx<'_>,
    edge: &Edge,
    src_op: &Operator,
    dst_op: &Operator,
    src_seqs: &[PartitionSeq],
    dst_seqs: &[PartitionSeq],
) -> Vec<f64> {
    ctx.note_inter_evals((src_seqs.len() * dst_seqs.len()) as u64);
    let mut matrix = volume_plane(edge, src_op, dst_op, src_seqs, dst_seqs);
    ctx.price(&mut matrix);
    matrix
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
                assert_eq!(
                    direct.to_bits(),
                    cached.to_bits(),
                    "({i},{j}): {direct} vs {cached}"
                );
            }
        }
    }

    /// The dense per-shape tables resolve DSI tuples exactly as a
    /// `(slice shape, tuple)` hash map would: on one side whose slice shapes
    /// (2, 8) and (8, 2) have unequal radices, and whose `P_{4×4}` cuts both
    /// dimensions into four (alone, sharing the (4, 4) table with splits)
    /// or into eight between splits, every device of every sequence gets
    /// the id of its tuple, equal tuples share an id, distinct tuples never
    /// do, and each id's holding is the one its tuple's scalar DSIs build.
    #[test]
    fn dense_tables_match_a_hash_map_oracle() {
        use std::collections::HashMap;
        let g = graph();
        let op = &g.ops[9];
        let side = EdgeSide::new(
            op,
            TensorKind::Weight,
            Phase::Forward,
            Side::Consume,
            &[],
            None,
        );
        let parse = |text: &str| text.parse::<PartitionSeq>().unwrap();
        // Per space: its sequences and the distinct tuples they reach.
        let cases = [
            (
                4,
                vec!["N K K K", "N N N K", "K N K K", "P4x4", "N N K K"],
                48,
            ),
            (6, vec!["N P4x4 K", "K N N N K K", "B P4x4 B"], 80),
        ];
        for (bits, texts, tuples) in cases {
            let space = DeviceSpace::new(bits);
            let mut memo = ShapeMemo::new();
            let mut built = Vec::new();
            let mut oracle: HashMap<([usize; 4], [usize; 4]), u32> = HashMap::new();
            let mut tuple_of_id: HashMap<u32, ([usize; 4], [usize; 4])> = HashMap::new();
            for s in texts.into_iter().map(parse) {
                let mut ids = vec![u32::MAX; space.num_devices()];
                side.profile_dedup_into(
                    &s,
                    space,
                    &mut memo,
                    &mut |holding| {
                        built.push(holding);
                        built.len() as u32 - 1
                    },
                    ids.iter_mut(),
                );
                let slices = side.slicing(&s).0;
                for (device, &id) in space.devices().zip(&ids) {
                    let mut idxs = [0usize; 4];
                    for (idx, &dim) in idxs.iter_mut().zip(side.dims) {
                        *idx = s.dsi(space, side.phase, dim, device, 0);
                    }
                    let key = (slices, idxs);
                    assert_eq!(*oracle.entry(key).or_insert(id), id, "{s} on {device}");
                    assert_eq!(
                        *tuple_of_id.entry(id).or_insert(key),
                        key,
                        "{s} on {device}"
                    );
                    assert_eq!(built[id as usize], side.holding(&slices, &idxs));
                }
            }
            // Each distinct tuple built once.
            assert_eq!(oracle.len(), tuples, "{bits} bits");
            assert_eq!(built.len(), tuples, "{bits} bits");
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
