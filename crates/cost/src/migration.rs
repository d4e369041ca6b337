//! Migration cost of switching a live training job between partition plans
//! (the replan loop's "time-to-recover" numerator).
//!
//! A partition plan pins where every operator's *persistent* training state —
//! the weight and its gradient accumulator — lives. Switching plans is a
//! one-shot redistribution of that state: each device must acquire the weight
//! slices its new DSI layout assigns it that it does not already hold. This
//! module prices that step with the same Eqs. 8–9 slice-interval machinery
//! used for activation redistribution: profile the weight
//! tensor under the old sequence (holdings at the producer's last temporal
//! step) and under the new sequence (needs at the consumer's step 0), then
//! charge the directional traffic — `Σ_D (V − |needed ∩ held|)`
//! — once (migration is a single exchange, so it pays the single-latency
//! model, not the simulator's two-term split that the audit flags as the
//! redistribution-latency double-charge).
//!
//! Scope: only operators with a matrix-shaped trainable weight (`Linear`,
//! `Embedding`) are priced; vector-weight operators (norm gains/biases, a few
//! `K` elements against `N × K` matrices) are negligible and skipped.
//! Optimizer moments are excluded — the byte constant below covers the f32
//! parameter plus its f32 gradient accumulator, which move together.

use primepar_graph::{Graph, Operator};
use primepar_partition::{PartitionSeq, Phase, TensorKind};
use primepar_topology::DeviceSpace;

use crate::inter::{traffic, EdgeSide, Side};
use crate::CostCtx;

/// Bytes of persistent state per weight element: the f32 parameter plus its
/// f32 gradient accumulator.
pub const STATE_BYTES_PER_ELEM: f64 = 8.0;

/// Per-operator migration traffic of one plan switch.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMigration {
    /// Operator name (e.g. `"fc1"`).
    pub op: String,
    /// Weight-state bytes that must move for this operator.
    pub bytes: f64,
}

/// The redistribution volume of switching one layer's plan, per operator and
/// in total. One instance describes one layer; multiply by the layer count
/// for a whole model (every layer migrates the same way).
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationVolume {
    /// Per-operator traffic, graph order, weightless operators elided.
    pub per_op: Vec<OpMigration>,
    /// Total bytes across all operators of the layer.
    pub total_bytes: f64,
}

impl MigrationVolume {
    /// An empty (free) migration.
    pub fn zero() -> Self {
        MigrationVolume {
            per_op: Vec::new(),
            total_bytes: 0.0,
        }
    }
}

/// The weight tensor of `op` as the `side` of a forward-phase exchange.
fn weight(op: &Operator, side: Side) -> EdgeSide<'_> {
    EdgeSide::new(op, TensorKind::Weight, Phase::Forward, side, &[], None)
}

/// Weight-state redistribution traffic (bytes) of switching one layer from
/// `old` to `new` partition sequences (Eq. 9 over the weight tensor's DSI
/// layouts). Sequences are per-operator, graph order; aligned layouts cost 0.
///
/// # Panics
///
/// Panics if either slice's length differs from the graph's operator count.
pub fn migration_traffic(
    graph: &Graph,
    old: &[PartitionSeq],
    new: &[PartitionSeq],
) -> MigrationVolume {
    assert_eq!(old.len(), graph.ops.len(), "one old sequence per operator");
    assert_eq!(new.len(), graph.ops.len(), "one new sequence per operator");
    let mut per_op = Vec::new();
    let mut total = 0.0;
    for (i, op) in graph.ops.iter().enumerate() {
        if !(op.has_weight() && op.is_matmul_like()) {
            continue;
        }
        assert_eq!(
            old[i].bits(),
            new[i].bits(),
            "old and new plans span the same devices"
        );
        let space = DeviceSpace::new(old[i].bits());
        let elems = op.weight_elems();
        // Where the weight sits at the end of an iteration under the old
        // plan, vs where the new plan's first step needs it (Eq. 8's
        // producer-last / consumer-first convention).
        let (_, holds) = weight(op, Side::Produce).profile(&old[i], space);
        let (need_fraction, needs) = weight(op, Side::Consume).profile(&new[i], space);
        let moved = traffic(elems, need_fraction, &needs, &holds);
        let bytes = STATE_BYTES_PER_ELEM * moved;
        if bytes > 0.0 {
            per_op.push(OpMigration {
                op: op.name.clone(),
                bytes,
            });
        }
        total += bytes;
    }
    MigrationVolume {
        per_op,
        total_bytes: total,
    }
}

/// Weight-state traffic (bytes) of the ring-buddy failover patch: each dead
/// device's buddy `d ^ 1` acquires the slices of the dead device's weight
/// layout it does not already hold (replicated slices are free). The plan
/// itself is unchanged — only residency moves.
///
/// # Panics
///
/// Panics if `seqs` length differs from the graph's operator count or `dead`
/// length differs from the device count.
pub fn failover_traffic(graph: &Graph, seqs: &[PartitionSeq], dead: &[bool]) -> MigrationVolume {
    assert_eq!(seqs.len(), graph.ops.len(), "one sequence per operator");
    let mut per_op = Vec::new();
    let mut total = 0.0;
    for (i, op) in graph.ops.iter().enumerate() {
        if !(op.has_weight() && op.is_matmul_like()) {
            continue;
        }
        let space = DeviceSpace::new(seqs[i].bits());
        assert_eq!(dead.len(), space.num_devices(), "one dead flag per device");
        let elems = op.weight_elems();
        let (volume_fraction, layout) = weight(op, Side::Produce).profile(&seqs[i], space);
        let v = elems * volume_fraction;
        let mut bytes = 0.0;
        for (d, &is_dead) in dead.iter().enumerate() {
            if !is_dead {
                continue;
            }
            let buddy = d ^ 1;
            if buddy >= dead.len() {
                continue;
            }
            let overlap = elems * layout[d].overlap_fraction(&layout[buddy]);
            bytes += STATE_BYTES_PER_ELEM * (v - overlap).max(0.0);
        }
        if bytes > 0.0 {
            per_op.push(OpMigration {
                op: op.name.clone(),
                bytes,
            });
        }
        total += bytes;
    }
    MigrationVolume {
        per_op,
        total_bytes: total,
    }
}

/// Latency of a migration of `total_bytes` (all layers) on `ctx`'s cluster:
/// one exchange under the single-latency redistribution model. Pass the
/// *perturbed* cluster's context — the migration runs on the degraded
/// hardware.
pub fn migration_seconds(ctx: &CostCtx<'_>, total_bytes: f64) -> f64 {
    ctx.redistribution_time(total_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;
    use primepar_partition::{Dim, Primitive};
    use primepar_topology::Cluster;

    fn seq(prims: Vec<Primitive>) -> PartitionSeq {
        PartitionSeq::new(prims).unwrap()
    }

    fn graph() -> Graph {
        ModelConfig::opt_6_7b().layer_graph(8, 2048)
    }

    fn uniform(g: &Graph, prims: Vec<Primitive>) -> Vec<PartitionSeq> {
        (0..g.ops.len()).map(|_| seq(prims.clone())).collect()
    }

    #[test]
    fn same_plan_migrates_nothing() {
        let g = graph();
        let plan = uniform(&g, vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]);
        let v = migration_traffic(&g, &plan, &plan);
        assert_eq!(v.total_bytes, 0.0);
        assert!(v.per_op.is_empty());
    }

    #[test]
    fn switching_weight_split_axis_moves_weight_state() {
        let g = graph();
        // K-split weights vs N-split weights: completely different slices.
        let old = uniform(&g, vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]);
        let new = uniform(&g, vec![Primitive::Split(Dim::N), Primitive::Split(Dim::N)]);
        let v = migration_traffic(&g, &old, &new);
        assert!(v.total_bytes > 0.0);
        // Bounded by the full per-device-needed state across all devices:
        // 4 devices × (param+grad) × Σ weight elems.
        let full: f64 = g
            .ops
            .iter()
            .filter(|o| o.has_weight() && o.is_matmul_like())
            .map(|o| o.weight_elems())
            .sum();
        assert!(v.total_bytes <= 4.0 * STATE_BYTES_PER_ELEM * full * 1.001);
        // Every priced operator appears in the breakdown and sums to total.
        let sum: f64 = v.per_op.iter().map(|o| o.bytes).sum();
        assert!((sum - v.total_bytes).abs() < 1e-6);
    }

    #[test]
    fn batch_split_weights_are_replicated_and_free_to_switch() {
        let g = graph();
        // B-splits replicate the weight on every device: any device already
        // holds the full weight, so re-slicing it costs nothing.
        let old = uniform(&g, vec![Primitive::Split(Dim::B), Primitive::Split(Dim::B)]);
        let new = uniform(&g, vec![Primitive::Split(Dim::B), Primitive::Split(Dim::M)]);
        let v = migration_traffic(&g, &old, &new);
        assert_eq!(v.total_bytes, 0.0);
    }

    #[test]
    fn failover_moves_only_dead_shards() {
        let g = graph();
        let plan = uniform(&g, vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]);
        let mut dead = vec![false; 4];
        let none = failover_traffic(&g, &plan, &dead);
        assert_eq!(none.total_bytes, 0.0);
        dead[2] = true;
        let one = failover_traffic(&g, &plan, &dead);
        assert!(one.total_bytes > 0.0);
        dead[0] = true;
        let two = failover_traffic(&g, &plan, &dead);
        assert!(two.total_bytes > one.total_bytes);
        // Replicated layouts make failover free: the buddy already holds it.
        let replicated = uniform(&g, vec![Primitive::Split(Dim::B), Primitive::Split(Dim::B)]);
        assert_eq!(failover_traffic(&g, &replicated, &dead).total_bytes, 0.0);
    }

    #[test]
    fn migration_seconds_uses_the_single_latency_model() {
        let cluster = Cluster::v100_like(8);
        let ctx = CostCtx::new(&cluster, 0.0);
        assert_eq!(migration_seconds(&ctx, 0.0), 0.0);
        assert_eq!(migration_seconds(&ctx, 1e8), ctx.redistribution_time(1e8));
        assert!(migration_seconds(&ctx, 1e8) < ctx.redistribution_time_split(1e8));
    }
}
