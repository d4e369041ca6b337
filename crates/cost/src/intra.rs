//! Intra-operator cost (paper Eq. 7):
//! `intraC(n, 𝒫) = Σ_t max(compute, ring) + allreduce + α·memory`, split
//! into a cluster-free geometry ([`OpGeometry`], [`PlanGeometry`]) and one
//! pricing step ([`CostCtx::price_phase`]).

use primepar_graph::{Graph, OpKind, Operator};
use primepar_partition::{ring_transfers, Dim, PartitionSeq, Phase, TensorKind};
use primepar_topology::{CommProfile, GroupIndicator};

use crate::{inter_traffic_bytes, CostCtx};

/// Decomposed intra-operator cost of one training iteration of one operator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntraCost {
    /// Total modeled latency in seconds (compute/ring overlapped per step,
    /// plus collective communication).
    pub latency: f64,
    /// Compute component across all phases and steps.
    pub compute: f64,
    /// Ring point-to-point time if it were serialized (for breakdowns).
    pub ring_total: f64,
    /// Ring time *not* hidden behind compute (`Σ_t max(0, ring − compute)`).
    pub ring_exposed: f64,
    /// Collective (all-reduce) communication time.
    pub allreduce: f64,
    /// Peak per-device memory in bytes (parameters + gradients + stash +
    /// double buffers).
    pub memory_bytes: f64,
    /// The Eq. 7 scalar: `latency + α · memory_bytes`.
    pub cost: f64,
}

/// Elements of one device's block of `kind` under `seq` (dimensions sliced by
/// the partition; a dimension sliced finer than its extent saturates at one
/// element, modeling replicated computation).
pub fn tensor_block_elems(op: &Operator, seq: &PartitionSeq, kind: TensorKind) -> f64 {
    kind.dims(op.weight_has_batch())
        .iter()
        .map(|&d| {
            let extent = op.extent(d).max(1) as f64;
            let slices = seq.num_slices(d) as f64;
            (extent / slices).max(1.0)
        })
        .product()
}

/// The fraction of the operator's work one `(device, step)` sub-operator
/// performs.
fn work_fraction(op: &Operator, seq: &PartitionSeq) -> f64 {
    Dim::ALL
        .iter()
        .map(|&d| {
            let slices = seq.num_slices(d) as f64;
            let extent = op.extent(d).max(1) as f64;
            1.0 / slices.min(extent)
        })
        .product()
}

/// One priced end-of-phase collective: which group pattern it runs over, how
/// many payload bytes each device contributes, and what it costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveEvent {
    /// Group pattern the all-reduce runs over.
    pub indicator: GroupIndicator,
    /// Per-device payload bytes entering the all-reduce.
    pub bytes: f64,
    /// Modeled latency of this collective (seconds).
    pub seconds: f64,
}

impl CollectiveEvent {
    /// Cluster-wide wire bytes of a ring all-reduce over groups of size `g`
    /// spanning `n` devices: every device sends `2(g−1)/g · bytes`.
    pub fn wire_bytes(&self, num_devices: usize) -> f64 {
        let g = self.indicator.group_size() as f64;
        num_devices as f64 * 2.0 * (g - 1.0) / g * self.bytes
    }
}

/// One temporal step's ring shift, priced: its latency, and the per-device
/// bytes it moves (0 when the shift costs nothing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingStep {
    /// Ring-shift latency overlapping the step's kernel.
    pub seconds: f64,
    /// Per-device bytes the shift moves.
    pub bytes: f64,
}

/// One phase of an [`OpGeometry`] priced on a cluster by
/// [`CostCtx::price_phase`]: the inputs of Eq. 7's `max(compute, ring)`
/// overlap and `allreduce` terms, which the walk executes. It borrows the
/// geometry's ring bytes and prices each step as
/// [`PhaseEvents::ring_steps`] yields it, so pricing allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseEvents<'g> {
    /// Kernel latency of one temporal step on one device.
    pub compute_step: f64,
    /// The end-of-phase collective, if the phase has one that costs
    /// anything.
    pub collective: Option<CollectiveEvent>,
    /// Per-device bytes of each step's ring shift, from the geometry.
    ring_bytes: &'g [f64],
    /// The ring's fitted profile; `None` when the ring is free (no
    /// indicator, or no step moves bytes).
    ring: Option<CommProfile>,
}

impl<'g> PhaseEvents<'g> {
    /// The phase's ring shifts, one per temporal step.
    pub fn ring_steps(&self) -> impl ExactSizeIterator<Item = RingStep> + 'g {
        let ring = self.ring;
        self.ring_bytes.iter().map(move |&bytes| {
            let seconds = ring.map_or(0.0, |p| p.ring_shift_time(bytes));
            RingStep {
                seconds,
                bytes: if seconds > 0.0 { bytes } else { 0.0 },
            }
        })
    }
}

/// Eq. 7's geometry of one phase of one operator: FLOPs and bytes, never
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseGeometry {
    /// FLOPs of one kernel step on one device (0 when the phase does no
    /// work).
    pub sub_flops: f64,
    /// Bytes one kernel step reads and writes on one device.
    pub sub_bytes: f64,
    /// The end-of-phase collective candidate, if any: group pattern and
    /// per-device payload bytes.
    pub collective: Option<(GroupIndicator, f64)>,
}

/// Eq. 7's geometry of one operator under one partition sequence: which
/// device groups communicate, how many bytes and how many FLOPs. It depends
/// on the operator and the sequence alone, never on the cluster;
/// [`CostCtx::price_phase`] turns it into seconds.
///
/// # Example
///
/// ```
/// use primepar_cost::{CostCtx, OpGeometry};
/// use primepar_graph::ModelConfig;
/// use primepar_partition::{PartitionSeq, Phase, Primitive};
/// use primepar_topology::Cluster;
///
/// let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
/// let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }])?;
/// let geometry = OpGeometry::new(&graph.ops[9], &seq);
/// let cluster = Cluster::v100_like(4);
/// let ev = CostCtx::new(&cluster, 0.0).price_phase(&geometry, Phase::Forward);
/// assert_eq!(ev.ring_steps().len(), 2); // 2^k temporal steps
/// assert!(ev.collective.is_none());     // feature 1
/// # Ok::<(), primepar_partition::PartitionError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OpGeometry {
    /// Group pattern of the per-step ring shifts (empty when no temporal
    /// primitive is present).
    pub ring_indicator: GroupIndicator,
    /// One entry per phase, in [`Phase::ALL`] order.
    pub phases: [PhaseGeometry; 3],
    /// Per-device bytes each ring shift moves: one entry per temporal step
    /// of each phase, phase-major in [`Phase::ALL`] order.
    ring_bytes: Vec<f64>,
    /// Per-device memory footprint.
    pub memory: MemoryBytes,
}

impl OpGeometry {
    /// Derives the geometry of `op` partitioned by `seq`. Its one heap
    /// allocation holds the ring bytes.
    pub fn new(op: &Operator, seq: &PartitionSeq) -> Self {
        let frac = work_fraction(op, seq);
        let (in_block, w_block, out_block) = blocks(op, seq);
        let sub_bytes = if op.is_matmul_like() {
            4.0 * (in_block + w_block + out_block)
        } else {
            4.0 * 2.0 * out_block
        };
        let steps = seq.temporal_steps();
        let mut ring_bytes = Vec::with_capacity(Phase::ALL.len() * steps);
        for phase in Phase::ALL {
            ring_bytes.extend((0..steps).map(|t| -> f64 {
                ring_transfers(seq, phase, t)
                    .iter()
                    .map(|tr| 4.0 * tensor_block_elems(op, seq, tr.tensor))
                    .sum()
            }));
        }
        OpGeometry {
            ring_indicator: seq.ring_indicator(),
            phases: Phase::ALL.map(|phase| PhaseGeometry {
                sub_flops: op.flops(phase) * frac,
                sub_bytes,
                collective: collective(op, seq, phase),
            }),
            ring_bytes,
            memory: memory_bytes(op, seq),
        }
    }

    /// Per-device bytes of each ring shift of `phase`, one entry per
    /// temporal step.
    pub fn ring_bytes(&self, phase: Phase) -> &[f64] {
        let steps = self.ring_bytes.len() / Phase::ALL.len();
        // `Phase::ALL` lists the variants in declaration order.
        &self.ring_bytes[phase as usize * steps..][..steps]
    }
}

/// Elements of one device's input, weight and output blocks; the weight
/// block is capped at the weight's volume, and 0 without a weight.
fn blocks(op: &Operator, seq: &PartitionSeq) -> (f64, f64, f64) {
    let block = |kind| tensor_block_elems(op, seq, kind);
    let w_block = if op.weight_volume() > 0.0 {
        block(TensorKind::Weight).min(op.weight_volume())
    } else {
        0.0
    };
    (block(TensorKind::Input), w_block, block(TensorKind::Output))
}

/// Rows (`B × M` elements) of one device's block: the length of a norm's
/// statistics.
fn block_rows(op: &Operator, seq: &PartitionSeq) -> f64 {
    [Dim::B, Dim::M]
        .iter()
        .map(|&d| (op.extent(d).max(1) as f64 / seq.num_slices(d) as f64).max(1.0))
        .product()
}

/// The end-of-phase collective candidate of `op` under `seq`: a matmul's
/// reduction over its split reduce dimensions, and a norm's small
/// collectives for statistics (hidden split, charged in forward) and for γ/β
/// gradients (batch/sequence splits, charged in gradient) — paper §3.2.
fn collective(op: &Operator, seq: &PartitionSeq, phase: Phase) -> Option<(GroupIndicator, f64)> {
    Some(match op.kind {
        _ if op.is_matmul_like() => (
            seq.allreduce_indicator(phase, op.weight_has_batch()),
            4.0 * tensor_block_elems(op, seq, phase.output_tensor()),
        ),
        OpKind::Norm(_) if phase == Phase::Forward => (
            seq.split_indicator(&[Dim::K]),
            4.0 * 2.0 * block_rows(op, seq),
        ),
        OpKind::Norm(_) if phase == Phase::Gradient => (
            seq.split_indicator(&[Dim::B, Dim::M]),
            4.0 * op.weight_elems() / seq.num_slices(Dim::K) as f64,
        ),
        _ => return None,
    })
}

/// The cluster-free geometry of one plan: every operator's Eq. 7 geometry
/// and every edge's Eqs. 8–9 volume. One value serves every pricing of the
/// plan on any cluster of its size — the simulators, the robustness sweep,
/// the drift audit and the fixed-plan evaluators.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanGeometry {
    /// [`OpGeometry`] of each operator, in `graph.ops` order.
    pub ops: Vec<OpGeometry>,
    /// [`inter_traffic_bytes`] (forward plus backward bytes) of each edge, in
    /// `graph.edges` order.
    pub edge_bytes: Vec<f64>,
}

impl PlanGeometry {
    /// Derives the geometry of the plan `seqs` over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `seqs.len() != graph.ops.len()`.
    pub fn new(graph: &Graph, seqs: &[PartitionSeq]) -> Self {
        assert_eq!(seqs.len(), graph.ops.len(), "one sequence per operator");
        PlanGeometry {
            ops: graph
                .ops
                .iter()
                .zip(seqs)
                .map(|(op, seq)| OpGeometry::new(op, seq))
                .collect(),
            edge_bytes: graph
                .edges
                .iter()
                .map(|e| {
                    let (src, dst) = (e.src, e.dst);
                    inter_traffic_bytes(e, &graph.ops[src], &graph.ops[dst], &seqs[src], &seqs[dst])
                })
                .collect(),
        }
    }
}

impl CostCtx<'_> {
    /// Eq. 7's pricing step: the seconds of `phase` of `op` on this
    /// context's cluster. A phase without FLOPs computes for 0 s, a ring
    /// shift that costs nothing moves no bytes, and a collective that costs
    /// nothing is dropped.
    pub fn price_phase<'g>(&self, op: &'g OpGeometry, phase: Phase) -> PhaseEvents<'g> {
        // `Phase::ALL` lists the variants in declaration order.
        let g = &op.phases[phase as usize];
        let compute_step = if g.sub_flops > 0.0 {
            self.kernel_time(g.sub_flops, g.sub_bytes)
        } else {
            0.0
        };
        let ring_bytes = op.ring_bytes(phase);
        // A free ring (no indicator, or no step moving bytes) fits nothing.
        let ring = (!op.ring_indicator.is_empty() && ring_bytes.iter().any(|&b| b > 0.0))
            .then(|| self.comm_profile(op.ring_indicator));
        let collective = g.collective.and_then(|(indicator, bytes)| {
            let seconds = self.allreduce_time(indicator, bytes);
            (seconds > 0.0).then_some(CollectiveEvent {
                indicator,
                bytes,
                seconds,
            })
        });
        PhaseEvents {
            compute_step,
            collective,
            ring_bytes,
            ring,
        }
    }

    /// Eq. 7 of one operator: every phase's [`CostCtx::price_phase`] folded
    /// into `Σ_t max(compute, ring) + allreduce + α·memory`.
    pub fn price_intra(&self, op: &OpGeometry) -> IntraCost {
        let mut cost = IntraCost::default();
        for phase in Phase::ALL {
            let ev = self.price_phase(op, phase);
            for ring in ev.ring_steps() {
                cost.compute += ev.compute_step;
                cost.ring_total += ring.seconds;
                cost.ring_exposed += (ring.seconds - ev.compute_step).max(0.0);
                cost.latency += ev.compute_step.max(ring.seconds);
            }
            if let Some(c) = ev.collective {
                cost.allreduce += c.seconds;
                cost.latency += c.seconds;
            }
        }
        cost.memory_bytes = op.memory.total();
        cost.cost = cost.latency + self.alpha() * cost.memory_bytes;
        cost
    }
}

/// Evaluates Eq. 7 for `op` partitioned by `seq` on the context's cluster.
pub fn intra_cost(ctx: &CostCtx<'_>, op: &Operator, seq: &PartitionSeq) -> IntraCost {
    ctx.note_intra_eval();
    ctx.price_intra(&OpGeometry::new(op, seq))
}

/// Per-device memory footprint components of one operator (paper §4.1's
/// model — parameters and forward stashes — extended with the gradient
/// buffer and the double buffers of ring-shifted tensors).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryBytes {
    /// Parameter bytes per device.
    pub params: f64,
    /// Parameter-gradient bytes per device (same sharding as the weights,
    /// guaranteed by feature 3's weight-cycle alignment).
    pub grads: f64,
    /// Forward-stash bytes per device (alive from forward until gradient).
    pub stash: f64,
    /// Double-buffer bytes while a temporal primitive executes.
    pub double_buffer: f64,
}

impl MemoryBytes {
    /// Total peak bytes.
    pub fn total(&self) -> f64 {
        self.params + self.grads + self.stash + self.double_buffer
    }
}

/// Computes the per-device memory components of `op` under `seq`.
///
/// # Example
///
/// ```
/// use primepar_cost::memory_bytes;
/// use primepar_graph::ModelConfig;
/// use primepar_partition::PartitionSeq;
///
/// let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
/// let m = memory_bytes(&graph.ops[11], &PartitionSeq::serial());
/// assert_eq!(m.params, m.grads);           // dW shards like W
/// assert!(m.total() > 0.0);
/// ```
pub fn memory_bytes(op: &Operator, seq: &PartitionSeq) -> MemoryBytes {
    let (in_block, w_block, out_block) = blocks(op, seq);
    let weight_frac = if op.has_weight() {
        1.0 / (seq.num_slices(Dim::N) as f64 * seq.num_slices(Dim::K) as f64)
    } else {
        0.0
    };
    let param_bytes = 4.0 * op.weight_elems() * weight_frac;
    let stash_elems = match op.kind {
        OpKind::Linear => in_block,
        OpKind::BatchedMatmul => in_block + w_block,
        OpKind::Softmax | OpKind::Activation(_) => out_block,
        OpKind::Norm(_) => out_block + 2.0 * block_rows(op, seq),
        // Embeddings stash only token ids (negligible).
        OpKind::Elementwise | OpKind::Embedding => 0.0,
    };
    let double_buffer = if seq.temporal_k().is_some() {
        4.0 * (in_block + w_block)
    } else {
        0.0
    };
    MemoryBytes {
        params: param_bytes,
        grads: param_bytes,
        stash: 4.0 * stash_elems,
        double_buffer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;
    use primepar_partition::Primitive;
    use primepar_topology::Cluster;

    fn fc2() -> Operator {
        ModelConfig::opt_6_7b().layer_graph(8, 2048).ops[11].clone()
    }

    fn seq(prims: Vec<Primitive>) -> PartitionSeq {
        PartitionSeq::new(prims).unwrap()
    }

    #[test]
    fn temporal_avoids_allreduce_row_split_pays_it() {
        let cluster = Cluster::v100_like(4);
        let ctx = CostCtx::new(&cluster, 0.0);
        let op = fc2();
        let row = intra_cost(
            &ctx,
            &op,
            &seq(vec![Primitive::Split(Dim::N), Primitive::Split(Dim::N)]),
        );
        let temporal = intra_cost(&ctx, &op, &seq(vec![Primitive::Temporal { k: 1 }]));
        assert!(row.allreduce > 0.0);
        assert_eq!(temporal.allreduce, 0.0);
        assert!(temporal.ring_total > 0.0);
    }

    #[test]
    fn compute_is_equal_across_strategies_of_same_size() {
        // §6.3: "Megatron-LM and PrimePar share roughly the same computation
        // latency" — partitioning rearranges work, it does not add FLOPs.
        let cluster = Cluster::v100_like(4);
        let ctx = CostCtx::new(&cluster, 0.0);
        let op = fc2();
        let a = intra_cost(
            &ctx,
            &op,
            &seq(vec![Primitive::Split(Dim::N), Primitive::Split(Dim::K)]),
        );
        let b = intra_cost(&ctx, &op, &seq(vec![Primitive::Temporal { k: 1 }]));
        let rel = (a.compute - b.compute).abs() / a.compute;
        assert!(rel < 0.05, "compute differs by {rel}");
    }

    #[test]
    fn column_split_allreduces_in_backward_only() {
        let cluster = Cluster::v100_like(2);
        let ctx = CostCtx::new(&cluster, 0.0);
        let op = fc2();
        let s = seq(vec![Primitive::Split(Dim::K)]);
        // K is the backward reduce dim; forward and gradient need none.
        assert!(s.allreduce_indicator(Phase::Forward, false).is_empty());
        assert!(!s.allreduce_indicator(Phase::Backward, false).is_empty());
        assert!(s.allreduce_indicator(Phase::Gradient, false).is_empty());
        let c = intra_cost(&ctx, &op, &s);
        assert!(c.allreduce > 0.0);
    }

    #[test]
    fn data_parallel_pays_gradient_allreduce_and_full_weights() {
        let cluster = Cluster::v100_like(4);
        let ctx = CostCtx::new(&cluster, 0.0);
        // Weight-dominated operator (OPT-175B fc2): the memory win of the
        // temporal primitive comes from sharding W and dW 4x while data
        // parallelism replicates both.
        let op = ModelConfig::opt_175b().layer_graph(8, 2048).ops[11].clone();
        let dp = intra_cost(
            &ctx,
            &op,
            &seq(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::B)]),
        );
        let temporal = intra_cost(&ctx, &op, &seq(vec![Primitive::Temporal { k: 1 }]));
        assert!(dp.allreduce > 0.0, "gradient all-reduce expected");
        assert!(
            dp.memory_bytes > 1.5 * temporal.memory_bytes,
            "dp {} vs temporal {}",
            dp.memory_bytes,
            temporal.memory_bytes
        );
    }

    #[test]
    fn ring_fully_overlaps_for_large_operators() {
        // fc2 of OPT-175B at batch 8: compute per step dwarfs a ring shift on
        // NVLink, so exposed ring time should vanish (paper Fig. 9).
        let cluster = Cluster::v100_like(4);
        let ctx = CostCtx::new(&cluster, 0.0);
        let op = ModelConfig::opt_175b().layer_graph(8, 2048).ops[11].clone();
        let c = intra_cost(&ctx, &op, &seq(vec![Primitive::Temporal { k: 1 }]));
        assert!(c.ring_total > 0.0);
        assert!(
            c.ring_exposed < 0.05 * c.ring_total,
            "exposed {} of {}",
            c.ring_exposed,
            c.ring_total
        );
    }

    #[test]
    fn memory_weighting_moves_cost() {
        let cluster = Cluster::v100_like(4);
        let op = fc2();
        let s = seq(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::B)]);
        let lat_only = intra_cost(&CostCtx::new(&cluster, 0.0), &op, &s);
        let weighted = intra_cost(&CostCtx::new(&cluster, 1e-9), &op, &s);
        assert_eq!(lat_only.latency, weighted.latency);
        assert!(weighted.cost > lat_only.cost);
    }

    #[test]
    fn pointwise_ops_have_no_collectives_or_weights() {
        let cluster = Cluster::v100_like(4);
        let ctx = CostCtx::new(&cluster, 0.0);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
        let act = graph.ops[10].clone();
        let c = intra_cost(
            &ctx,
            &act,
            &seq(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::M)]),
        );
        assert_eq!(c.allreduce, 0.0);
        assert!(c.latency > 0.0);
    }

    #[test]
    fn norm_splits_pay_small_collectives() {
        let cluster = Cluster::v100_like(4);
        let ctx = CostCtx::new(&cluster, 0.0);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
        let norm = graph.ops[1].clone();
        let hidden_split = intra_cost(
            &ctx,
            &norm,
            &seq(vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]),
        );
        let bm_split = intra_cost(
            &ctx,
            &norm,
            &seq(vec![Primitive::Split(Dim::B), Primitive::Split(Dim::M)]),
        );
        assert!(hidden_split.allreduce > 0.0, "statistics all-reduce");
        assert!(bm_split.allreduce > 0.0, "parameter-gradient all-reduce");
        // Both are small relative to a matmul's collective.
        let fc2_ar = intra_cost(
            &ctx,
            &fc2(),
            &seq(vec![Primitive::Split(Dim::N), Primitive::Split(Dim::N)]),
        )
        .allreduce;
        assert!(hidden_split.allreduce < fc2_ar / 10.0);
    }

    #[test]
    fn more_devices_reduce_per_device_latency() {
        let c4 = Cluster::v100_like(4);
        let c16 = Cluster::v100_like(16);
        let op = fc2();
        let small = intra_cost(
            &CostCtx::new(&c4, 0.0),
            &op,
            &seq(vec![Primitive::Temporal { k: 1 }]),
        );
        let large = intra_cost(
            &CostCtx::new(&c16, 0.0),
            &op,
            &seq(vec![Primitive::Temporal { k: 2 }]),
        );
        assert!(large.compute < small.compute);
    }
}
