//! The plan explanation: each cost term beside the simulator's figure.
//!
//! The planner optimizes the paper's analytic cost model — Eq. 7 per-operator
//! intra costs and Eqs. 8–9 redistribution costs — while the simulator in
//! `primepar-sim` executes the plan as an explicit event timeline. The two
//! agree *by construction* on every intra term, but not on redistribution
//! (the simulator charges each direction its own latency term, the analytic
//! model charges one), and any future divergence between them is a silent
//! correctness hazard for every figure in the reproduction.
//!
//! [`audit_layer`] builds the one record that answers "why this plan?" from a
//! [`LayerReport`] the caller already has, so explaining a plan walks it
//! once: per operator, the chosen [`PartitionSeq`], its Eq. 7 [`IntraCost`]
//! and the walk's [`LayerReport::op_breakdown`]; per edge, the model's and
//! the walk's ([`LayerReport::edge_seconds`]) redistribution seconds; per
//! layer, time, peak memory and wire bytes. [`render_audit`] prints it — the
//! `plan` and `audit` CLI subcommands both print through it — and
//! [`audit_metrics`] folds its component comparisons ([`AuditReport::rows`])
//! into an [`primepar_obs::Metrics`] document. [`plan_comm_volume`] derives
//! the plan's analytic wire-byte volume, against which the simulator's
//! [`ClusterAccounting`](primepar_sim::ClusterAccounting) link totals are
//! conservation-checked.
//!
//! # Example
//!
//! ```
//! use primepar_audit::{audit_layer, render_audit};
//! use primepar_graph::ModelConfig;
//! use primepar_search::megatron_layer_plan;
//! use primepar_sim::simulate_layer;
//! use primepar_topology::Cluster;
//!
//! let cluster = Cluster::v100_like(4);
//! let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
//! let plan = megatron_layer_plan(&graph, 1, 4);
//! let report = simulate_layer(&cluster, &graph, &plan);
//! let audit = audit_layer(&cluster, &graph, &plan, &report);
//! assert!(audit.rows().iter().any(|r| r.component == "compute"));
//! println!("{}", render_audit(&audit));
//! ```

use primepar_cost::{CostCtx, IntraCost, PlanGeometry};
use primepar_graph::Graph;
use primepar_obs::Metrics;
use primepar_partition::{PartitionSeq, Phase};
use primepar_sim::{Breakdown, LayerReport};
use primepar_topology::Cluster;

/// Drift below this relative magnitude is considered agreement in
/// [`AuditReport::worst_row`] summaries (floating-point walk noise).
const DRIFT_EPS: f64 = 1e-9;

/// The plan's analytically derived cluster-wide communication volume,
/// component by component — the same formulas the simulator's accounting
/// charges, evaluated without running the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommVolume {
    /// Ring point-to-point wire bytes across all phases.
    pub ring_bytes: f64,
    /// Collective (all-reduce) wire bytes across all phases.
    pub collective_bytes: f64,
    /// Inter-operator redistribution wire bytes (both directions).
    pub redistribution_bytes: f64,
}

impl CommVolume {
    /// Total wire bytes of all components.
    pub fn total(&self) -> f64 {
        self.ring_bytes + self.collective_bytes + self.redistribution_bytes
    }
}

/// Derives the plan's communication volume from the cost model alone.
///
/// The simulator's per-link accounting must sum to exactly these numbers —
/// the conservation law pinned by `tests/conservation.rs`.
///
/// # Panics
///
/// Panics if `seqs.len() != graph.ops.len()`.
pub fn plan_comm_volume(cluster: &Cluster, graph: &Graph, seqs: &[PartitionSeq]) -> CommVolume {
    comm_volume(&CostCtx::new(cluster, 0.0), &PlanGeometry::new(graph, seqs))
}

/// [`plan_comm_volume`] of a plan's geometry, priced on `ctx`'s cluster.
fn comm_volume(ctx: &CostCtx<'_>, geometry: &PlanGeometry) -> CommVolume {
    let n = ctx.cluster().num_devices();
    let mut v = CommVolume::default();
    for op in &geometry.ops {
        for phase in Phase::ALL {
            // Every device sends its block each ring step and its share of
            // each collective.
            let ev = ctx.price_phase(op, phase);
            v.ring_bytes += n as f64 * ev.ring_steps().map(|r| r.bytes).sum::<f64>();
            v.collective_bytes += ev.collective.map_or(0.0, |c| c.wire_bytes(n));
        }
    }
    for &bytes in &geometry.edge_bytes {
        // The simulator charges each direction half the edge's traffic and
        // skips free (zero-latency) transfers; mirror both.
        let per_direction = bytes / 2.0;
        if ctx.redistribution_time(per_direction) > 0.0 {
            v.redistribution_bytes += 2.0 * per_direction;
        }
    }
    v
}

/// Signed relative drift `simulated − predicted`, normalized by the larger
/// magnitude so it stays in `[−1, 1]` even when one side is zero.
fn rel_drift(predicted: f64, simulated: f64) -> f64 {
    let scale = predicted.abs().max(simulated.abs());
    if scale <= DRIFT_EPS {
        0.0
    } else {
        (simulated - predicted) / scale
    }
}

/// One operator of the plan: the strategy the planner chose, what Eq. 7
/// charges for it, and what the walk spent on it.
#[derive(Debug, Clone, PartialEq)]
pub struct OpAudit {
    /// Operator name.
    pub name: String,
    /// Segment index of the operator.
    pub segment: usize,
    /// The chosen partition sequence.
    pub seq: PartitionSeq,
    /// Eq. 7's price of the operator under `seq`.
    pub predicted: IntraCost,
    /// The walk's compute, ring and collective seconds of the operator.
    pub simulated: Breakdown,
}

/// One redistribution row: Eqs. 8–9's seconds beside the walk's. Parallel
/// edges sharing a `(src, dst)` pair (e.g. qkv feeding qk twice, as Q and
/// as K) fold into one `"src->dst"` row, each side summed over the pair in
/// edge order.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeAudit {
    /// `"src->dst"`.
    pub label: String,
    /// Segment index of the source operator.
    pub segment: usize,
    /// The model's seconds ([`CostCtx::redistribution_time`]).
    pub predicted: f64,
    /// The walk's forward plus backward seconds.
    pub simulated: f64,
}

/// One predicted-vs-simulated component comparison of an [`AuditReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditRow<'a> {
    /// An operator name, an edge `"src->dst"`, or `"layer"`.
    pub label: &'a str,
    /// Cost-model component: `compute`, `ring_exposed`, `allreduce`,
    /// `redistribution` (seconds) or `peak_memory` (bytes).
    pub component: &'static str,
    /// The analytic cost model's value.
    pub predicted: f64,
    /// The simulator's value, as the walk recorded it.
    pub simulated: f64,
}

impl AuditRow<'_> {
    /// Signed relative drift of `simulated` against `predicted`, in `[−1, 1]`.
    pub fn rel_drift(&self) -> f64 {
        rel_drift(self.predicted, self.simulated)
    }
}

/// The explanation of one layer plan: the cost model's terms beside the
/// walk's record of them.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport<'a> {
    /// One entry per operator, in `graph.ops` order.
    pub ops: Vec<OpAudit>,
    /// One entry per distinct `(src, dst)` pair, in first-edge order.
    pub edges: Vec<EdgeAudit>,
    /// The cost model's end-to-end layer time: `Σ intra latency + Σ inter
    /// cost` (the planner's objective without the memory term).
    pub predicted_layer_time: f64,
    /// Eq. 7's layer peak: every operator's parameters, gradients and stash
    /// plus the widest double buffer (bytes per device).
    pub predicted_peak_memory: f64,
    /// Plan-derived communication volume.
    pub plan_comm: CommVolume,
    /// The walk of the plan, with its cluster accounting.
    pub sim: &'a LayerReport,
}

impl AuditReport<'_> {
    /// Every component comparison: compute, exposed ring and all-reduce per
    /// operator, redistribution per edge row, then the layer's peak memory.
    pub fn rows(&self) -> Vec<AuditRow<'_>> {
        let mut rows = Vec::with_capacity(3 * self.ops.len() + self.edges.len() + 1);
        for op in &self.ops {
            let (p, s) = (&op.predicted, &op.simulated);
            for (component, predicted, simulated) in [
                ("compute", p.compute, s.compute),
                ("ring_exposed", p.ring_exposed, s.ring_exposed),
                ("allreduce", p.allreduce, s.collective),
            ] {
                rows.push(AuditRow {
                    label: &op.name,
                    component,
                    predicted,
                    simulated,
                });
            }
        }
        rows.extend(self.edges.iter().map(|e| AuditRow {
            label: &e.label,
            component: "redistribution",
            predicted: e.predicted,
            simulated: e.simulated,
        }));
        rows.push(AuditRow {
            label: "layer",
            component: "peak_memory",
            predicted: self.predicted_peak_memory,
            simulated: self.sim.peak_memory_bytes,
        });
        rows
    }

    /// Relative drift of the end-to-end layer time.
    pub fn layer_rel_drift(&self) -> f64 {
        rel_drift(self.predicted_layer_time, self.sim.layer_time)
    }

    /// The row with the largest absolute relative drift, if any drifts.
    pub fn worst_row(&self) -> Option<AuditRow<'_>> {
        self.rows()
            .into_iter()
            .filter(|r| r.rel_drift().abs() > DRIFT_EPS)
            .max_by(|a, b| a.rel_drift().abs().total_cmp(&b.rel_drift().abs()))
    }

    /// Largest absolute relative drift across all rows (0 when none drift).
    pub fn max_rel_drift(&self) -> f64 {
        self.rows()
            .iter()
            .map(|r| r.rel_drift().abs())
            .fold(0.0, f64::max)
    }
}

fn segment_of(segments: &[(usize, usize)], op: usize) -> usize {
    segments
        .iter()
        .position(|&(lo, hi)| (lo..=hi).contains(&op))
        .unwrap_or(0)
}

/// Prices `seqs` with the cost model and sets each term beside `sim`, the
/// walk of the same plan on the same cluster.
///
/// # Panics
///
/// Panics if `seqs.len() != graph.ops.len()` or `sim` records fewer
/// operators or edges than `graph` has.
pub fn audit_layer<'a>(
    cluster: &Cluster,
    graph: &Graph,
    seqs: &[PartitionSeq],
    sim: &'a LayerReport,
) -> AuditReport<'a> {
    let geometry = PlanGeometry::new(graph, seqs);
    let ctx = CostCtx::new(cluster, 0.0);
    let segments = graph.segments();

    let mut predicted_layer_time = 0.0;
    let mut ops = Vec::with_capacity(graph.ops.len());
    for (i, ((op, seq), op_geometry)) in graph.ops.iter().zip(seqs).zip(&geometry.ops).enumerate() {
        let predicted = ctx.price_intra(op_geometry);
        predicted_layer_time += predicted.latency;
        ops.push(OpAudit {
            name: op.name.clone(),
            segment: segment_of(&segments, i),
            seq: seq.clone(),
            predicted,
            simulated: sim.op_breakdown[i],
        });
    }
    let mut edges: Vec<EdgeAudit> = Vec::new();
    for (e, (edge, &bytes)) in graph.edges.iter().zip(&geometry.edge_bytes).enumerate() {
        let predicted = ctx.redistribution_time(bytes);
        let simulated = sim.edge_seconds[e];
        predicted_layer_time += predicted;
        let label = format!("{}->{}", graph.ops[edge.src].name, graph.ops[edge.dst].name);
        if let Some(row) = edges.iter_mut().find(|r| r.label == label) {
            row.predicted += predicted;
            row.simulated += simulated;
        } else {
            edges.push(EdgeAudit {
                label,
                segment: segment_of(&segments, edge.src),
                predicted,
                simulated,
            });
        }
    }

    // Layer-level peak memory: every operator's persistent state plus all
    // stashes plus the widest double buffer — against the simulator's
    // traced high-water mark.
    let mems = || geometry.ops.iter().map(|g| &g.memory);
    let predicted_peak_memory = mems().map(|m| m.params + m.grads + m.stash).sum::<f64>()
        + mems().map(|m| m.double_buffer).fold(0.0, f64::max);

    AuditReport {
        ops,
        edges,
        predicted_layer_time,
        predicted_peak_memory,
        plan_comm: comm_volume(&ctx, &geometry),
        sim,
    }
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// A row's drift in percent, with summation-order noise (below
/// [`DRIFT_EPS`]) shown as agreement.
fn drift_pct(predicted: f64, simulated: f64) -> f64 {
    let drift = rel_drift(predicted, simulated);
    if drift.abs() <= DRIFT_EPS {
        0.0
    } else {
        100.0 * drift
    }
}

/// Renders the explanation as deterministic ASCII — same plan, same bytes:
/// one row per operator (strategy, Eq. 7 terms, the walk's latency and the
/// drift), one row per edge, then the layer summary.
pub fn render_audit(audit: &AuditReport<'_>) -> String {
    let mut out = String::new();
    let segments = audit.ops.iter().map(|o| o.segment + 1).max().unwrap_or(0);
    out.push_str(&format!(
        "cost-model drift audit: {} operators and {} edges over {segments} segments, times in ms\n\n",
        audit.ops.len(),
        audit.edges.len(),
    ));

    let strategies: Vec<String> = audit.ops.iter().map(|o| format!("[{}]", o.seq)).collect();
    let name_w = audit.ops.iter().map(|o| o.name.len()).fold(8, usize::max);
    let seq_w = strategies.iter().map(String::len).fold(8, usize::max);
    out.push_str(&format!(
        "seg  {:<name_w$}  {:<seq_w$}     compute  ring_exposed   allreduce     mem MB   predicted   simulated     drift\n",
        "operator", "strategy"
    ));
    for (op, strategy) in audit.ops.iter().zip(&strategies) {
        let (p, s) = (&op.predicted, &op.simulated);
        out.push_str(&format!(
            "{:>3}  {:<name_w$}  {strategy:<seq_w$}  {:>10.3}  {:>12.3}  {:>10.3}  {:>9.1}  {:>10.3}  {:>10.3}  {:>+7.2}%\n",
            op.segment,
            op.name,
            ms(p.compute),
            ms(p.ring_exposed),
            ms(p.allreduce),
            p.memory_bytes / 1e6,
            ms(p.latency),
            ms(s.total()),
            drift_pct(p.latency, s.total()),
        ));
    }

    let edge_w = audit
        .edges
        .iter()
        .map(|e| e.label.len())
        .fold(14, usize::max);
    out.push_str(&format!(
        "\nseg  {:<edge_w$}   predicted   simulated     drift\n",
        "redistribution"
    ));
    for e in &audit.edges {
        out.push_str(&format!(
            "{:>3}  {:<edge_w$}  {:>10.3}  {:>10.3}  {:>+7.2}%\n",
            e.segment,
            e.label,
            ms(e.predicted),
            ms(e.simulated),
            drift_pct(e.predicted, e.simulated),
        ));
    }

    let sim = audit.sim;
    out.push_str(&format!(
        "\nlayer time: predicted {:.6} ms, simulated {:.6} ms, drift {:+.3}%\n",
        ms(audit.predicted_layer_time),
        ms(sim.layer_time),
        100.0 * audit.layer_rel_drift()
    ));
    out.push_str(&format!(
        "peak memory: predicted {:.0} B, simulated {:.0} B, drift {:+.3}%\n",
        audit.predicted_peak_memory,
        sim.peak_memory_bytes,
        100.0 * rel_drift(audit.predicted_peak_memory, sim.peak_memory_bytes)
    ));
    out.push_str(&format!(
        "wire bytes: plan {:.0} (ring {:.0}, allreduce {:.0}, redistribution {:.0}), simulated {:.0}\n",
        audit.plan_comm.total(),
        audit.plan_comm.ring_bytes,
        audit.plan_comm.collective_bytes,
        audit.plan_comm.redistribution_bytes,
        sim.accounting.total_wire_bytes(),
    ));
    let conservation = match sim.check_time_conservation() {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("VIOLATED ({e})"),
    };
    out.push_str(&format!(
        "conservation: breakdown total = layer time: {conservation}\n"
    ));
    match audit.worst_row() {
        Some(worst) => out.push_str(&format!(
            "worst drift: {} {} at {:+.3}% (predicted {}, simulated {})\n",
            worst.label,
            worst.component,
            100.0 * worst.rel_drift(),
            fmt_value(worst.component, worst.predicted),
            fmt_value(worst.component, worst.simulated),
        )),
        None => out.push_str("worst drift: none (model and simulator agree)\n"),
    }
    out
}

fn fmt_value(component: &str, v: f64) -> String {
    if component == "peak_memory" {
        format!("{v:.0} B")
    } else {
        format!("{:.6} ms", ms(v))
    }
}

/// Folds the explanation into an observability registry under `audit.*`:
/// the layer summary, the plan's wire bytes and every component comparison
/// as `audit.row.<label>.<component>.{predicted,simulated,rel_drift}`.
pub fn audit_metrics(audit: &AuditReport<'_>) -> Metrics {
    let mut m = Metrics::new();
    let rows = audit.rows();
    m.gauge("audit.layer.predicted_seconds", audit.predicted_layer_time);
    m.gauge("audit.layer.simulated_seconds", audit.sim.layer_time);
    m.gauge("audit.layer.rel_drift", audit.layer_rel_drift());
    m.gauge("audit.max_rel_drift", audit.max_rel_drift());
    m.incr("audit.rows", rows.len() as u64);
    m.gauge("audit.plan.ring_wire_bytes", audit.plan_comm.ring_bytes);
    m.gauge(
        "audit.plan.collective_wire_bytes",
        audit.plan_comm.collective_bytes,
    );
    m.gauge(
        "audit.plan.redistribution_wire_bytes",
        audit.plan_comm.redistribution_bytes,
    );
    m.gauge(
        "audit.sim.total_wire_bytes",
        audit.sim.accounting.total_wire_bytes(),
    );
    for r in &rows {
        let p = format!("audit.row.{}.{}", r.label, r.component);
        m.gauge(&format!("{p}.predicted"), r.predicted);
        m.gauge(&format!("{p}.simulated"), r.simulated);
        m.gauge(&format!("{p}.rel_drift"), r.rel_drift());
        m.observe("audit.rel_drift", r.rel_drift());
    }
    m
}

/// The one-line drift summary the figure binaries merge into their metrics:
/// layer-time drift, worst component drift, and the conservation verdict.
pub fn summary_metrics(audit: &AuditReport<'_>) -> Metrics {
    let mut m = Metrics::new();
    m.gauge("audit.layer.rel_drift", audit.layer_rel_drift());
    m.gauge("audit.max_rel_drift", audit.max_rel_drift());
    m.text(
        "audit.worst_component",
        &audit.worst_row().map_or("none".to_string(), |r| {
            format!("{}.{}", r.label, r.component)
        }),
    );
    m.text(
        "audit.conservation",
        match audit.sim.check_time_conservation() {
            Ok(()) => "ok",
            Err(_) => "violated",
        },
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;
    use primepar_search::{best_megatron, megatron_layer_plan, Planner, PlannerOptions};
    use primepar_sim::simulate_layer;

    fn fixture() -> (Cluster, Graph, Vec<PartitionSeq>) {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
        let plan = megatron_layer_plan(&graph, 1, 4);
        (cluster, graph, plan)
    }

    #[test]
    fn audit_covers_every_op_and_edge() {
        let (cluster, graph, plan) = fixture();
        let sim = simulate_layer(&cluster, &graph, &plan);
        let audit = audit_layer(&cluster, &graph, &plan, &sim);
        let distinct_edges = graph
            .edges
            .iter()
            .map(|e| (e.src, e.dst))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(audit.ops.len(), graph.ops.len());
        assert_eq!(audit.edges.len(), distinct_edges);
        // 3 time components per op + 1 per edge + the layer memory row.
        assert_eq!(audit.rows().len(), 3 * graph.ops.len() + distinct_edges + 1);
        for op in &graph.ops {
            assert!(audit.rows().iter().any(|r| r.label == op.name));
        }
    }

    #[test]
    fn parallel_edges_fold_into_one_row() {
        // The full-layer graph feeds qkv into qk twice (Q and K inputs);
        // the audit folds both edges' predicted and simulated seconds into
        // the one `"qkv->qk"` row.
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
        let parallel = graph
            .edges
            .iter()
            .filter(|e| graph.ops[e.src].name == "qkv" && graph.ops[e.dst].name == "qk")
            .count();
        assert!(parallel > 1, "fixture needs a parallel edge pair");
        let plan = megatron_layer_plan(&graph, 1, 4);
        let sim = simulate_layer(&cluster, &graph, &plan);
        let audit = audit_layer(&cluster, &graph, &plan, &sim);
        let rows: Vec<_> = audit
            .edges
            .iter()
            .filter(|r| r.label == "qkv->qk")
            .collect();
        assert_eq!(rows.len(), 1, "duplicate-label edges must merge");
        // With the predicted side aggregated, the only remaining gap is the
        // per-direction latency term: simulated >= predicted, never a
        // many-fold mismatch.
        let r = rows[0];
        if r.simulated > 0.0 {
            assert!(r.simulated >= r.predicted - 1e-12);
            let drift = rel_drift(r.predicted, r.simulated);
            assert!(drift < 0.5, "drift {drift} too large");
        }
    }

    #[test]
    fn intra_components_agree_with_simulation() {
        // The walk prices the plan's geometry with the step Eq. 7 folds, so
        // compute, exposed ring and all-reduce agree bit for bit: on the
        // Fig. 9 MLP block and on the Table-2 layer, under Megatron and
        // under PrimePar. The rendered peak is the record's Eq. 7 layer
        // peak, not a sum of per-operator peaks.
        let points = [
            (
                Cluster::v100_like(8),
                ModelConfig::opt_175b().mlp_block_graph(8, 2048),
                96,
            ),
            (
                Cluster::v100_like(16),
                ModelConfig::opt_6_7b().layer_graph(8, 2048),
                32,
            ),
        ];
        for (cluster, graph, layers) in &points {
            let megatron = best_megatron(cluster, graph, 0.0).0;
            let primepar = Planner::new(cluster, graph, PlannerOptions::default())
                .optimize(*layers)
                .seqs;
            for plan in [megatron, primepar] {
                let sim = simulate_layer(cluster, graph, &plan);
                let audit = audit_layer(cluster, graph, &plan, &sim);
                for r in audit.rows() {
                    if r.component != "redistribution" && r.component != "peak_memory" {
                        assert_eq!(
                            r.predicted.to_bits(),
                            r.simulated.to_bits(),
                            "{}.{} drifted: {} vs {}",
                            r.label,
                            r.component,
                            r.predicted,
                            r.simulated
                        );
                    }
                }
                let rendered = render_audit(&audit);
                let peak = format!(
                    "peak memory: predicted {:.0} B, simulated {:.0} B,",
                    audit.predicted_peak_memory, sim.peak_memory_bytes
                );
                assert!(rendered.contains(&peak), "missing `{peak}` in:\n{rendered}");
            }
        }
    }

    #[test]
    fn redistribution_drift_is_the_known_latency_term() {
        // The simulator pays redistribution_time(bytes/2) per direction; the
        // model pays redistribution_time(bytes) once — one extra latency
        // term per travelled edge, so simulated >= predicted.
        let (cluster, graph, plan) = fixture();
        let sim = simulate_layer(&cluster, &graph, &plan);
        let audit = audit_layer(&cluster, &graph, &plan, &sim);
        let mut travelled = 0;
        for r in &audit.edges {
            if r.simulated > 0.0 {
                travelled += 1;
                assert!(
                    r.simulated >= r.predicted - 1e-12,
                    "{}: {} < {}",
                    r.label,
                    r.simulated,
                    r.predicted
                );
            }
        }
        // Megatron's row/column splits on the MLP block do redistribute.
        assert!(travelled > 0, "fixture should exercise redistribution");
    }

    #[test]
    fn rendered_audit_is_deterministic() {
        let (cluster, graph, plan) = fixture();
        let render = || {
            render_audit(&audit_layer(
                &cluster,
                &graph,
                &plan,
                &simulate_layer(&cluster, &graph, &plan),
            ))
        };
        let a = render();
        assert_eq!(a, render());
        assert!(a.contains("cost-model drift audit"));
        assert!(a.contains("conservation"));
    }

    #[test]
    fn metrics_carry_rows_and_summary() {
        let (cluster, graph, plan) = fixture();
        let sim = simulate_layer(&cluster, &graph, &plan);
        let audit = audit_layer(&cluster, &graph, &plan, &sim);
        let m = audit_metrics(&audit);
        assert_eq!(m.counter("audit.rows"), audit.rows().len() as u64);
        assert!(m.gauge_value("audit.layer.simulated_seconds").unwrap() > 0.0);
        assert!(m.gauge_value("audit.row.fc1.compute.predicted").is_some());
        assert!(m.histogram("audit.rel_drift").is_some());
        let s = summary_metrics(&audit);
        assert!(s.text_value("audit.conservation").is_some());
    }
}
