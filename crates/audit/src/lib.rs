//! Cost-model drift auditor (predicted vs simulated attribution).
//!
//! The planner optimizes the paper's analytic cost model — Eq. 7 per-operator
//! intra costs and Eqs. 8–9 redistribution costs — while the simulator in
//! `primepar-sim` executes the plan as an explicit event timeline. The two
//! agree *by construction* on most components, but not all of them (the
//! simulator charges each redistribution direction its own latency term, the
//! analytic model charges one), and any future divergence between them is a
//! silent correctness hazard for every figure in the reproduction.
//!
//! [`audit_layer`] makes the comparison explicit: it prices a plan with the
//! cost model, simulates it, and sets each of the model's components beside
//! the walk's own record of it — per-operator compute / exposed ring /
//! all-reduce from [`LayerReport::op_breakdown`], per-edge redistribution
//! from [`LayerReport::edge_seconds`], layer-level peak memory — reporting
//! the drift of every component as an [`AuditReport`]. [`render_audit`] prints the
//! ASCII drift table, [`audit_metrics`] folds it into an
//! [`primepar_obs::Metrics`] document, and [`plan_comm_volume`] derives the
//! plan's analytic wire-byte volume, against which the simulator's
//! [`ClusterAccounting`](primepar_sim::ClusterAccounting) link totals are
//! conservation-checked.
//!
//! # Example
//!
//! ```
//! use primepar_audit::{audit_layer, render_audit};
//! use primepar_graph::ModelConfig;
//! use primepar_search::megatron_layer_plan;
//! use primepar_topology::Cluster;
//!
//! let cluster = Cluster::v100_like(4);
//! let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
//! let plan = megatron_layer_plan(&graph, 1, 4);
//! let audit = audit_layer(&cluster, &graph, &plan, 0.0);
//! assert!(audit.rows.iter().any(|r| r.component == "compute"));
//! println!("{}", render_audit(&audit));
//! ```

use std::collections::BTreeMap;

use primepar_cost::{CostCtx, PlanGeometry};
use primepar_graph::Graph;
use primepar_obs::Metrics;
use primepar_partition::{PartitionSeq, Phase};
use primepar_sim::{simulate_layer, LayerReport};
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
            v.ring_bytes += n as f64 * ev.ring_bytes_steps.iter().sum::<f64>();
            v.collective_bytes += ev.collectives.iter().map(|c| c.wire_bytes(n)).sum::<f64>();
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

/// One predicted-vs-simulated component comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRow {
    /// What is being priced: an operator name, an edge `"src->dst"`, or a
    /// layer-level aggregate (`"layer"`).
    pub label: String,
    /// Segment index of the operator (edges belong to their source's
    /// segment; layer rows use segment 0).
    pub segment: usize,
    /// Cost-model component: `compute`, `ring_exposed`, `allreduce`,
    /// `redistribution` (seconds) or `peak_memory` (bytes).
    pub component: String,
    /// The analytic cost model's value.
    pub predicted: f64,
    /// The analytic prediction under the simulator-consistent charging
    /// model. Equal to `predicted` for every component except
    /// `redistribution`, where the planner's model charges one combined
    /// exchange (one latency term) while the simulator pays each direction
    /// its own — the known latency double-charge. This field re-prices the
    /// edge with [`CostCtx::redistribution_time_split`], so
    /// `simulated − corrected` is genuine drift, not the known charging gap.
    /// It feeds [`AuditRow::corrected_drift`],
    /// [`AuditReport::max_corrected_drift`] and the `audit.row.*.corrected`
    /// metrics; migration costing does not read it
    /// ([`primepar_cost::migration_seconds`] charges one exchange).
    pub corrected: f64,
    /// The simulator's value, as the walk recorded it.
    pub simulated: f64,
}

impl AuditRow {
    /// `simulated − predicted`.
    pub fn abs_drift(&self) -> f64 {
        self.simulated - self.predicted
    }

    /// Signed relative drift, normalized by the larger magnitude so it stays
    /// in `[−1, 1]` even when one side is zero.
    pub fn rel_drift(&self) -> f64 {
        let scale = self.predicted.abs().max(self.simulated.abs());
        if scale <= DRIFT_EPS {
            0.0
        } else {
            self.abs_drift() / scale
        }
    }

    /// Signed relative drift against the charge-corrected prediction — the
    /// residual that is *not* explained by the known redistribution
    /// latency-term gap.
    pub fn corrected_drift(&self) -> f64 {
        let scale = self.corrected.abs().max(self.simulated.abs());
        if scale <= DRIFT_EPS {
            0.0
        } else {
            (self.simulated - self.corrected) / scale
        }
    }
}

/// The full drift audit of one layer plan.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Per-component comparisons, in graph walk order.
    pub rows: Vec<AuditRow>,
    /// The cost model's end-to-end layer time: `Σ intra latency + Σ inter
    /// cost` (the planner's objective without the memory term).
    pub predicted_layer_time: f64,
    /// The simulated makespan.
    pub simulated_layer_time: f64,
    /// Plan-derived communication volume.
    pub plan_comm: CommVolume,
    /// The underlying simulation, with its cluster accounting.
    pub sim: LayerReport,
}

impl AuditReport {
    /// Relative drift of the end-to-end layer time.
    pub fn layer_rel_drift(&self) -> f64 {
        let scale = self
            .predicted_layer_time
            .abs()
            .max(self.simulated_layer_time.abs());
        if scale <= DRIFT_EPS {
            0.0
        } else {
            (self.simulated_layer_time - self.predicted_layer_time) / scale
        }
    }

    /// The row with the largest absolute relative drift, if any drifts.
    pub fn worst_row(&self) -> Option<&AuditRow> {
        self.rows
            .iter()
            .filter(|r| r.rel_drift().abs() > DRIFT_EPS)
            .max_by(|a, b| {
                a.rel_drift()
                    .abs()
                    .partial_cmp(&b.rel_drift().abs())
                    .expect("finite drift")
            })
    }

    /// Largest absolute relative drift across all rows (0 when none drift).
    pub fn max_rel_drift(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.rel_drift().abs())
            .fold(0.0, f64::max)
    }

    /// Largest absolute *corrected* relative drift across all rows — what
    /// remains once the known redistribution charging gap is priced out.
    pub fn max_corrected_drift(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.corrected_drift().abs())
            .fold(0.0, f64::max)
    }
}

fn segment_of(segments: &[(usize, usize)], op: usize) -> usize {
    segments
        .iter()
        .position(|&(lo, hi)| (lo..=hi).contains(&op))
        .unwrap_or(0)
}

/// Prices `seqs` with the cost model, simulates it, and pairs each
/// component with the walk's per-operator and per-edge record of it.
///
/// `alpha` is the Eq. 7 memory weight — it scales the model's *scalar*
/// objective but none of the time components, so it only affects the audit's
/// reported `cost` metric, not the drift rows.
///
/// # Panics
///
/// Panics if `seqs.len() != graph.ops.len()`.
pub fn audit_layer(
    cluster: &Cluster,
    graph: &Graph,
    seqs: &[PartitionSeq],
    alpha: f64,
) -> AuditReport {
    let geometry = PlanGeometry::new(graph, seqs);
    let ctx = CostCtx::new(cluster, alpha);
    let sim = simulate_layer(cluster, graph, seqs);
    let segments = graph.segments();

    let mut rows = Vec::new();
    let mut predicted_layer_time = 0.0;
    for (i, (op, op_geometry)) in graph.ops.iter().zip(&geometry.ops).enumerate() {
        let ic = ctx.price_intra(op_geometry);
        predicted_layer_time += ic.latency;
        let simulated = &sim.op_breakdown[i];
        let seg = segment_of(&segments, i);
        for (component, predicted, simulated) in [
            ("compute", ic.compute, simulated.compute),
            ("ring_exposed", ic.ring_exposed, simulated.ring_exposed),
            ("allreduce", ic.allreduce, simulated.collective),
        ] {
            rows.push(AuditRow {
                label: op.name.clone(),
                segment: seg,
                component: component.to_string(),
                predicted,
                corrected: predicted,
                simulated,
            });
        }
    }
    // Parallel edges sharing a (src, dst) pair (e.g. qkv feeding qk twice,
    // as Q and as K) fold into one `"src->dst"` row, each side summed over
    // the pair in edge order.
    let mut edge_rows: Vec<AuditRow> = Vec::new();
    let mut edge_index: BTreeMap<String, usize> = BTreeMap::new();
    for (e, (edge, &bytes)) in graph.edges.iter().zip(&geometry.edge_bytes).enumerate() {
        let predicted = ctx.redistribution_time(bytes);
        // The simulator-consistent charge: each direction pays its own
        // latency term (the known double-charge, priced explicitly).
        let corrected = ctx.redistribution_time_split(bytes);
        let simulated = sim.edge_seconds[e];
        predicted_layer_time += predicted;
        let label = format!("{}->{}", graph.ops[edge.src].name, graph.ops[edge.dst].name);
        if let Some(&i) = edge_index.get(&label) {
            edge_rows[i].predicted += predicted;
            edge_rows[i].corrected += corrected;
            edge_rows[i].simulated += simulated;
        } else {
            edge_index.insert(label.clone(), edge_rows.len());
            edge_rows.push(AuditRow {
                label,
                segment: segment_of(&segments, edge.src),
                component: "redistribution".to_string(),
                predicted,
                corrected,
                simulated,
            });
        }
    }
    rows.extend(edge_rows);

    // Layer-level peak memory: the analytic bound every operator's
    // persistent state plus all stashes plus the widest double buffer —
    // against the simulator's traced high-water mark.
    let mems = || geometry.ops.iter().map(|g| &g.memory);
    let predicted_peak = mems().map(|m| m.params + m.grads + m.stash).sum::<f64>()
        + mems().map(|m| m.double_buffer).fold(0.0, f64::max);
    rows.push(AuditRow {
        label: "layer".to_string(),
        segment: 0,
        component: "peak_memory".to_string(),
        predicted: predicted_peak,
        corrected: predicted_peak,
        simulated: sim.peak_memory_bytes,
    });

    AuditReport {
        rows,
        predicted_layer_time,
        simulated_layer_time: sim.layer_time,
        plan_comm: comm_volume(&ctx, &geometry),
        sim,
    }
}

fn fmt_value(component: &str, v: f64) -> String {
    if component == "peak_memory" {
        format!("{:.0} B", v)
    } else {
        format!("{:.6} ms", v * 1e3)
    }
}

/// Renders the drift table as deterministic ASCII — same plan, same bytes.
pub fn render_audit(audit: &AuditReport) -> String {
    let mut out = String::new();
    let acct = &audit.sim.accounting;
    out.push_str(&format!(
        "cost-model drift audit: {} rows over {} segments\n",
        audit.rows.len(),
        audit
            .rows
            .iter()
            .map(|r| r.segment)
            .max()
            .map_or(0, |s| s + 1)
    ));
    out.push_str(&format!(
        "layer time: predicted {:.6} ms, simulated {:.6} ms, drift {:+.3}%\n",
        audit.predicted_layer_time * 1e3,
        audit.simulated_layer_time * 1e3,
        100.0 * audit.layer_rel_drift()
    ));
    out.push_str(&format!(
        "wire bytes: plan {:.0} (ring {:.0}, allreduce {:.0}, redistribution {:.0}), simulated {:.0}\n",
        audit.plan_comm.total(),
        audit.plan_comm.ring_bytes,
        audit.plan_comm.collective_bytes,
        audit.plan_comm.redistribution_bytes,
        acct.total_wire_bytes(),
    ));
    let conservation = match acct.validate() {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("VIOLATED ({e})"),
    };
    out.push_str(&format!(
        "conservation: busy+idle = makespan on {} devices: {conservation}\n\n",
        acct.devices.len()
    ));

    let label_w = audit
        .rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(5)
        .max(5);
    out.push_str(&format!(
        "{:>3}  {:<label_w$}  {:<14}  {:>16}  {:>16}  {:>8}\n",
        "seg", "node", "component", "predicted", "simulated", "drift"
    ));
    for r in &audit.rows {
        out.push_str(&format!(
            "{:>3}  {:<label_w$}  {:<14}  {:>16}  {:>16}  {:>+7.2}%\n",
            r.segment,
            r.label,
            r.component,
            fmt_value(&r.component, r.predicted),
            fmt_value(&r.component, r.simulated),
            100.0 * r.rel_drift()
        ));
    }
    if let Some(worst) = audit.worst_row() {
        out.push_str(&format!(
            "\nworst drift: {} {} at {:+.3}% (predicted {}, simulated {})\n",
            worst.label,
            worst.component,
            100.0 * worst.rel_drift(),
            fmt_value(&worst.component, worst.predicted),
            fmt_value(&worst.component, worst.simulated),
        ));
    } else {
        out.push_str("\nworst drift: none (model and simulator agree)\n");
    }
    out
}

/// Folds a drift audit into an observability registry under `audit.*`.
pub fn audit_metrics(audit: &AuditReport) -> Metrics {
    let mut m = Metrics::new();
    m.gauge("audit.layer.predicted_seconds", audit.predicted_layer_time);
    m.gauge("audit.layer.simulated_seconds", audit.simulated_layer_time);
    m.gauge("audit.layer.rel_drift", audit.layer_rel_drift());
    m.gauge("audit.max_rel_drift", audit.max_rel_drift());
    m.gauge("audit.max_corrected_drift", audit.max_corrected_drift());
    m.incr("audit.rows", audit.rows.len() as u64);
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
    for r in &audit.rows {
        let p = format!("audit.row.{}.{}", r.label, r.component);
        m.gauge(&format!("{p}.predicted"), r.predicted);
        m.gauge(&format!("{p}.corrected"), r.corrected);
        m.gauge(&format!("{p}.simulated"), r.simulated);
        m.gauge(&format!("{p}.rel_drift"), r.rel_drift());
        m.observe("audit.rel_drift", r.rel_drift());
    }
    m
}

/// The one-line drift summary the figure binaries merge into their metrics:
/// layer-time drift, worst component drift, and the conservation verdict.
pub fn summary_metrics(audit: &AuditReport) -> Metrics {
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
        match audit.sim.accounting.validate() {
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

    fn fixture() -> (Cluster, Graph, Vec<PartitionSeq>) {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
        let plan = megatron_layer_plan(&graph, 1, 4);
        (cluster, graph, plan)
    }

    #[test]
    fn audit_covers_every_op_and_edge() {
        let (cluster, graph, plan) = fixture();
        let audit = audit_layer(&cluster, &graph, &plan, 0.0);
        // 3 time components per op + 1 per edge + the layer memory row.
        let distinct_edges = graph
            .edges
            .iter()
            .map(|e| (e.src, e.dst))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(audit.rows.len(), 3 * graph.ops.len() + distinct_edges + 1);
        for op in &graph.ops {
            assert!(audit.rows.iter().any(|r| r.label == op.name));
        }
    }

    #[test]
    fn parallel_edges_fold_into_one_row() {
        // The full-layer graph feeds qkv into qk twice (Q and K inputs);
        // the audit folds both edges' predicted, corrected and simulated
        // seconds into the one `"qkv->qk"` row.
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
        let parallel = graph
            .edges
            .iter()
            .filter(|e| graph.ops[e.src].name == "qkv" && graph.ops[e.dst].name == "qk")
            .count();
        assert!(parallel > 1, "fixture needs a parallel edge pair");
        let plan = megatron_layer_plan(&graph, 1, 4);
        let audit = audit_layer(&cluster, &graph, &plan, 0.0);
        let rows: Vec<_> = audit.rows.iter().filter(|r| r.label == "qkv->qk").collect();
        assert_eq!(rows.len(), 1, "duplicate-label edges must merge");
        // With the predicted side aggregated, the only remaining gap is the
        // per-direction latency term: simulated >= predicted, never a
        // many-fold mismatch.
        let r = rows[0];
        if r.simulated > 0.0 {
            assert!(r.simulated >= r.predicted - 1e-12);
            assert!(r.rel_drift() < 0.5, "drift {} too large", r.rel_drift());
        }
        // Both sides fold the pair in edge order: the simulated sum is the
        // corrected one, bit for bit.
        assert_eq!(r.simulated.to_bits(), r.corrected.to_bits());
    }

    #[test]
    fn intra_components_agree_with_simulation() {
        // The walk prices the plan's geometry with the step Eq. 7 folds, so
        // compute, exposed ring and all-reduce agree bit for bit: on the
        // Fig. 9 MLP block and on the Table-2 layer, under Megatron and
        // under PrimePar.
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
                let audit = audit_layer(cluster, graph, &plan, 0.0);
                for r in &audit.rows {
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
            }
        }
    }

    #[test]
    fn redistribution_drift_is_the_known_latency_term() {
        // The simulator pays redistribution_time(bytes/2) per direction; the
        // model pays redistribution_time(bytes) once — one extra latency
        // term per travelled edge, so simulated >= predicted.
        let (cluster, graph, plan) = fixture();
        let audit = audit_layer(&cluster, &graph, &plan, 0.0);
        let mut travelled = 0;
        for r in audit
            .rows
            .iter()
            .filter(|r| r.component == "redistribution")
        {
            if r.simulated > 0.0 {
                travelled += 1;
                assert!(
                    r.simulated >= r.predicted - 1e-12,
                    "{}: {} < {}",
                    r.label,
                    r.simulated,
                    r.predicted
                );
                assert!(
                    r.corrected >= r.predicted,
                    "{}: corrected below predicted",
                    r.label
                );
            }
            // The corrected column re-prices the gap exactly: it is the
            // simulated value, bit for bit.
            assert_eq!(
                r.simulated.to_bits(),
                r.corrected.to_bits(),
                "{}: corrected {} vs simulated {}",
                r.label,
                r.corrected,
                r.simulated
            );
        }
        // Megatron's row/column splits on the MLP block do redistribute.
        assert!(travelled > 0, "fixture should exercise redistribution");
    }

    #[test]
    fn rendered_audit_is_deterministic() {
        let (cluster, graph, plan) = fixture();
        let a = render_audit(&audit_layer(&cluster, &graph, &plan, 0.0));
        let b = render_audit(&audit_layer(&cluster, &graph, &plan, 0.0));
        assert_eq!(a, b);
        assert!(a.contains("cost-model drift audit"));
        assert!(a.contains("conservation"));
    }

    #[test]
    fn metrics_carry_rows_and_summary() {
        let (cluster, graph, plan) = fixture();
        let audit = audit_layer(&cluster, &graph, &plan, 0.0);
        let m = audit_metrics(&audit);
        assert_eq!(m.counter("audit.rows"), audit.rows.len() as u64);
        assert!(m.gauge_value("audit.layer.simulated_seconds").unwrap() > 0.0);
        assert!(m.histogram("audit.rel_drift").is_some());
        let s = summary_metrics(&audit);
        assert!(s.text_value("audit.conservation").is_some());
    }
}
