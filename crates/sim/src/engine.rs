//! The event-walking core: executes one training iteration of a layer plan.

use primepar_cost::{CostCtx, MemoryBytes, OpGeometry, PlanGeometry};
use primepar_graph::Graph;
use primepar_partition::{PartitionSeq, Phase};
use primepar_topology::Cluster;

use crate::accounting::{indicator_link_class, redistribution_link_class, AccountingBuilder};
use crate::{Breakdown, EventKind, LayerReport, Timeline, TimelineEvent};

/// Simulation knobs. A fault/variance scenario is not one of them: simulate
/// on [`Cluster::perturbed`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimOptions {
    /// Activation recomputation (gradient checkpointing, cf. Korthikanti et
    /// al., cited in the paper's related work): forward stashes are dropped
    /// after the forward pass — only the layer-boundary activation is kept —
    /// and the backward sweep re-runs each operator's forward first.
    pub recompute_activations: bool,
}

/// Simulates one training iteration of one transformer layer under the
/// per-operator plan `seqs`.
///
/// The forward pass walks operators in topological order (redistribution,
/// then per-step compute with overlapped ring transfers, then collectives);
/// the combined backward+gradient pass walks in reverse. Memory is sampled
/// into the accounting's live-memory timeline, whose maximum is the peak:
/// parameters and gradients are persistent, stashes are allocated at an
/// operator's forward and released after its gradient, double buffers live
/// only while their operator executes.
///
/// # Panics
///
/// Panics if `seqs.len() != graph.ops.len()`.
pub fn simulate_layer(cluster: &Cluster, graph: &Graph, seqs: &[PartitionSeq]) -> LayerReport {
    simulate_layer_with(cluster, graph, seqs, &SimOptions::default())
}

/// [`simulate_layer`] with explicit [`SimOptions`].
pub fn simulate_layer_with(
    cluster: &Cluster,
    graph: &Graph,
    seqs: &[PartitionSeq],
    options: &SimOptions,
) -> LayerReport {
    simulate_layer_geometry(cluster, graph, &PlanGeometry::new(graph, seqs), options)
}

/// The walk's clock and every record it appends to.
struct Walk {
    now: f64,
    breakdown: Breakdown,
    op_breakdown: Vec<Breakdown>,
    edge_seconds: Vec<f64>,
    timeline: Timeline,
    acct: AccountingBuilder,
}

/// [`simulate_layer_with`] over the plan's precomputed geometry
/// ([`PlanGeometry::new`]`(graph, seqs)`), which does not depend on the
/// cluster, so callers simulating one plan on many clusters derive it once.
pub(crate) fn simulate_layer_geometry(
    cluster: &Cluster,
    graph: &Graph,
    geometry: &PlanGeometry,
    options: &SimOptions,
) -> LayerReport {
    let ctx = CostCtx::new(cluster, 0.0);
    let n_devices = cluster.num_devices();
    let mut w = Walk {
        now: 0.0,
        breakdown: Breakdown::default(),
        op_breakdown: vec![Breakdown::default(); graph.ops.len()],
        edge_seconds: vec![0.0; graph.edges.len()],
        timeline: Vec::new(),
        acct: AccountingBuilder::new(cluster),
    };

    let mems: Vec<&MemoryBytes> = geometry.ops.iter().map(|g| &g.memory).collect();
    let persistent_bytes: f64 = mems.iter().map(|m| m.params + m.grads).sum();
    let mut live = persistent_bytes;
    w.acct.on_memory(0.0, live);

    let run_phase = |w: &mut Walk, op_index: usize, phase: Phase| {
        let op = &graph.ops[op_index];
        let ev = ctx.price_phase(&geometry.ops[op_index], phase);
        let ring_class = indicator_link_class(cluster, &geometry.ops[op_index].ring_indicator);
        for (t, &ring) in ev.ring_steps.iter().enumerate() {
            if ev.compute_step > 0.0 {
                w.timeline.push(TimelineEvent {
                    op: op.name.clone(),
                    phase,
                    kind: EventKind::Compute,
                    start: w.now,
                    duration: ev.compute_step,
                });
            }
            if ring > 0.0 {
                w.timeline.push(TimelineEvent {
                    op: op.name.clone(),
                    phase,
                    kind: EventKind::Ring,
                    start: w.now,
                    duration: ring,
                });
            }
            // The layer's sums and the operator's own, increment for increment.
            for b in [&mut w.breakdown, &mut w.op_breakdown[op_index]] {
                b.compute += ev.compute_step;
                b.ring_total += ring;
                b.ring_exposed += (ring - ev.compute_step).max(0.0);
            }
            let step = ev.compute_step.max(ring);
            w.acct.on_step(
                ev.compute_step,
                ring,
                ring_class,
                n_devices as f64 * ev.ring_bytes_steps[t],
                w.now + step,
            );
            w.now += step;
        }
        if ev.allreduce > 0.0 {
            w.timeline.push(TimelineEvent {
                op: op.name.clone(),
                phase,
                kind: EventKind::AllReduce,
                start: w.now,
                duration: ev.allreduce,
            });
            w.breakdown.collective += ev.allreduce;
            w.op_breakdown[op_index].collective += ev.allreduce;
            let mut end = w.now;
            for c in &ev.collectives {
                end += c.seconds;
                w.acct.on_collective(
                    c.seconds,
                    indicator_link_class(cluster, &c.indicator),
                    c.wire_bytes(n_devices),
                    end,
                );
            }
            w.now += ev.allreduce;
        }
    };

    let redistribute = |w: &mut Walk, e: usize, phase: Phase| {
        let edge = &graph.edges[e];
        let bytes = geometry.edge_bytes[e] / 2.0; // the volume is fwd+bwd; each direction pays half
        let t = ctx.redistribution_time(bytes);
        if t > 0.0 {
            let direction = if phase == Phase::Forward {
                "fwd"
            } else {
                "bwd"
            };
            w.timeline.push(TimelineEvent {
                op: format!(
                    "{}->{} {direction}",
                    graph.ops[edge.src].name, graph.ops[edge.dst].name
                ),
                phase,
                kind: EventKind::Redistribution,
                start: w.now,
                duration: t,
            });
            w.breakdown.redistribution += t;
            w.edge_seconds[e] += t;
            let link = redistribution_link_class(cluster);
            w.acct.on_redistribution(t, link, bytes, w.now + t);
            w.now += t;
        }
    };

    // With recomputation only the layer-boundary activation survives the
    // forward pass; everything else is rebuilt during backward.
    let boundary_stash = mems.first().map_or(0.0, |m| m.stash.max(4.0));

    // Forward sweep.
    for i in 0..graph.ops.len() {
        for e in graph.in_edge_ids(i) {
            redistribute(&mut w, e, Phase::Forward);
        }
        // Double buffers and stash become live while the operator runs.
        live += mems[i].double_buffer + mems[i].stash;
        w.acct.on_memory(w.now, live);
        run_phase(&mut w, i, Phase::Forward);
        live -= mems[i].double_buffer;
        if options.recompute_activations {
            live -= mems[i].stash; // dropped immediately; recomputed later
        }
        w.acct.on_memory(w.now, live);
    }
    if options.recompute_activations {
        live += boundary_stash;
        w.acct.on_memory(w.now, live);
    }

    // Backward + gradient sweep, reverse topological order.
    for i in (0..graph.ops.len()).rev() {
        for e in graph.out_edge_ids(i) {
            redistribute(&mut w, e, Phase::Backward);
        }
        live += mems[i].double_buffer;
        if options.recompute_activations {
            // Re-run this operator's forward to rebuild its stash.
            live += mems[i].stash;
            w.acct.on_memory(w.now, live);
            run_phase(&mut w, i, Phase::Forward);
        }
        w.acct.on_memory(w.now, live);
        run_phase(&mut w, i, Phase::Backward);
        run_phase(&mut w, i, Phase::Gradient);
        live -= mems[i].double_buffer + mems[i].stash;
        w.acct.on_memory(w.now, live);
    }
    if options.recompute_activations {
        live -= boundary_stash;
        w.acct.on_memory(w.now, live);
    }

    let stash_bytes: f64 = if options.recompute_activations {
        boundary_stash
    } else {
        mems.iter().map(|m| m.stash).sum()
    };
    // Memory only grows where a sample is taken, so the samples' maximum is
    // the high-water mark.
    let accounting = w.acct.finish(w.now);
    LayerReport {
        layer_time: w.now,
        breakdown: w.breakdown,
        op_breakdown: w.op_breakdown,
        edge_seconds: w.edge_seconds,
        peak_memory_bytes: accounting.peak_memory_bytes(),
        persistent_bytes,
        stash_bytes,
        timeline: w.timeline,
        accounting,
    }
}

/// A whole-model simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// Per-iteration latency of the full model (s).
    pub iteration_time: f64,
    /// Per-device peak memory across the iteration (bytes): all layers'
    /// parameters/gradients plus every layer's stash (all alive at the end of
    /// the forward pass).
    pub peak_memory_bytes: f64,
    /// Training throughput in tokens per second.
    pub tokens_per_second: f64,
    /// The single-layer report the model totals were derived from.
    pub layer: LayerReport,
}

/// Simulates `layers` stacked copies of the layer plan and scales to model
/// totals. `tokens_per_iteration` is `batch × seq` for throughput reporting.
pub fn simulate_model(
    cluster: &Cluster,
    graph: &Graph,
    seqs: &[PartitionSeq],
    layers: u64,
    tokens_per_iteration: f64,
) -> ModelReport {
    simulate_model_with(
        cluster,
        graph,
        seqs,
        layers,
        tokens_per_iteration,
        &SimOptions::default(),
    )
}

/// [`simulate_model`] with explicit [`SimOptions`].
pub fn simulate_model_with(
    cluster: &Cluster,
    graph: &Graph,
    seqs: &[PartitionSeq],
    layers: u64,
    tokens_per_iteration: f64,
    options: &SimOptions,
) -> ModelReport {
    let layer = simulate_layer_with(cluster, graph, seqs, options);
    let iteration_time = layer.layer_time * layers as f64;
    // Peak: persistent state of every layer, plus every layer's stash (the
    // memory high-water mark is at the end of the model-wide forward pass),
    // plus the transient peak of one layer beyond its own persistent+stash.
    let transient = (layer.peak_memory_bytes - layer.persistent_bytes - layer.stash_bytes).max(0.0);
    let peak_memory_bytes =
        layers as f64 * (layer.persistent_bytes + layer.stash_bytes) + transient;
    ModelReport {
        iteration_time,
        peak_memory_bytes,
        tokens_per_second: tokens_per_iteration / iteration_time,
        layer,
    }
}

/// The paper's Fig. 2(b) "ideal" bound: per-device memory with zero tensor
/// replication — every parameter, gradient and stash byte stored exactly once
/// across the cluster.
///
/// # Example
///
/// ```
/// use primepar_graph::ModelConfig;
/// use primepar_sim::ideal_memory_bytes;
///
/// let graph = ModelConfig::llama2_70b().layer_graph(8, 2048);
/// let at8 = ideal_memory_bytes(&graph, 80, 8);
/// let at16 = ideal_memory_bytes(&graph, 80, 16);
/// assert!((at8 / at16 - 2.0).abs() < 1e-9, "ideal memory halves as devices double");
/// ```
pub fn ideal_memory_bytes(graph: &Graph, layers: u64, num_devices: usize) -> f64 {
    let serial = PartitionSeq::serial();
    let per_layer: f64 = graph
        .ops
        .iter()
        .map(|op| {
            let m = OpGeometry::new(op, &serial).memory;
            m.params + m.grads + m.stash
        })
        .sum();
    layers as f64 * per_layer / num_devices as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;
    use primepar_search::{megatron_layer_plan, Planner, PlannerOptions};

    #[test]
    fn simulated_layer_has_consistent_breakdown() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 1, 4);
        let r = simulate_layer(&cluster, &graph, &plan);
        assert!(r.layer_time > 0.0);
        // The timeline's critical path equals the reported layer time.
        let end = r
            .timeline
            .iter()
            .map(|e| e.start + e.duration)
            .fold(0.0, f64::max);
        assert!((end - r.layer_time).abs() < 1e-9);
        // Breakdown components sum to the total (ring hidden behind compute).
        let total = r.breakdown.total();
        assert!(
            (total - r.layer_time).abs() < 1e-9 * (1.0 + total),
            "{total} vs {}",
            r.layer_time
        );
    }

    #[test]
    fn megatron_pays_collectives_primepar_plan_pays_fewer() {
        let cluster = Cluster::v100_like(8);
        let graph = ModelConfig::opt_175b().layer_graph(8, 2048);
        let mega = simulate_layer(&cluster, &graph, &megatron_layer_plan(&graph, 1, 8));
        let plan = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(1);
        let prime = simulate_layer(&cluster, &graph, &plan.seqs);
        assert!(mega.breakdown.collective > 0.0);
        assert!(
            prime.breakdown.collective < mega.breakdown.collective,
            "prime {} vs mega {}",
            prime.breakdown.collective,
            mega.breakdown.collective
        );
    }

    #[test]
    fn model_report_scales_with_layers() {
        let cluster = Cluster::v100_like(4);
        let cfg = ModelConfig::llama2_7b();
        let graph = cfg.layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 2, 2);
        let m1 = simulate_model(&cluster, &graph, &plan, 1, 8.0 * 512.0);
        let m4 = simulate_model(&cluster, &graph, &plan, 4, 8.0 * 512.0);
        assert!((m4.iteration_time - 4.0 * m1.iteration_time).abs() < 1e-9);
        assert!(m4.peak_memory_bytes > 3.0 * m1.peak_memory_bytes);
        assert!(m4.tokens_per_second < m1.tokens_per_second);
    }

    #[test]
    fn ideal_memory_is_a_lower_bound() {
        let cluster = Cluster::v100_like(8);
        let cfg = ModelConfig::llama2_70b();
        let graph = cfg.layer_graph(8, 2048);
        let plan = megatron_layer_plan(&graph, 2, 4);
        let report = simulate_model(&cluster, &graph, &plan, cfg.layers, 8.0 * 2048.0);
        let ideal = ideal_memory_bytes(&graph, cfg.layers, 8);
        assert!(
            report.peak_memory_bytes > ideal,
            "simulated {} must exceed ideal {}",
            report.peak_memory_bytes,
            ideal
        );
    }

    #[test]
    fn recomputation_trades_memory_for_compute() {
        let cluster = Cluster::v100_like(4);
        let cfg = ModelConfig::llama2_7b();
        let graph = cfg.layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 2, 2);
        let base = simulate_model(&cluster, &graph, &plan, cfg.layers, 8.0 * 512.0);
        let rc = super::simulate_model_with(
            &cluster,
            &graph,
            &plan,
            cfg.layers,
            8.0 * 512.0,
            &super::SimOptions {
                recompute_activations: true,
            },
        );
        assert!(
            rc.peak_memory_bytes < 0.8 * base.peak_memory_bytes,
            "recompute {} vs base {}",
            rc.peak_memory_bytes,
            base.peak_memory_bytes
        );
        assert!(
            rc.iteration_time > base.iteration_time,
            "recompute must cost extra forward time"
        );
        // The extra time is bounded by one extra forward (~1/3 of fwd+bwd+grad).
        assert!(rc.iteration_time < 1.6 * base.iteration_time);
    }

    #[test]
    fn timeline_is_chronological() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::bloom_7b1().layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 1, 4);
        let r = simulate_layer(&cluster, &graph, &plan);
        for w in r.timeline.windows(2) {
            assert!(w[1].start >= w[0].start - 1e-12);
        }
        assert!(r.timeline.iter().any(|e| e.kind == EventKind::AllReduce));
    }

    /// `cluster` with `device`'s kernels `factor ×` slower, nothing else
    /// perturbed.
    fn with_straggler(cluster: &Cluster, device: usize, factor: f64) -> Cluster {
        let mut scenario = primepar_topology::AppliedPerturbation::ideal(cluster.num_devices());
        scenario.compute_factors[device] = factor;
        cluster.with_perturbation(scenario)
    }

    #[test]
    fn straggler_slows_the_iteration() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 1, 4);
        let base = simulate_layer(&cluster, &graph, &plan).layer_time;
        let slow = simulate_layer(&with_straggler(&cluster, 2, 1.5), &graph, &plan).layer_time;
        // Every device runs at the straggler's pace.
        assert!(slow > 1.2 * base, "{slow} vs {base}");
    }

    #[test]
    fn straggler_sensitivity_is_bounded_by_slowdown() {
        // The whole iteration can never be slower than scaling every kernel.
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::llama2_7b().layer_graph(8, 512);
        let plan = Planner::new(&cluster, &graph, PlannerOptions::default())
            .optimize(1)
            .seqs;
        let base = simulate_layer(&cluster, &graph, &plan).layer_time;
        let slow = simulate_layer(&with_straggler(&cluster, 0, 2.0), &graph, &plan).layer_time;
        assert!(
            slow > base && slow <= 2.0 * base * 1.0001,
            "{slow} vs {base}"
        );
    }
}
