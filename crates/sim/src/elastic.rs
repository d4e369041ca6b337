//! Degradation-timeline driver for the elastic replan loop.
//!
//! [`simulate_elastic`] runs a training job of `total_iterations` iterations,
//! injecting observed fault/variance scenarios ([`AppliedPerturbation`]) at
//! given iteration indices. At each injection it consults a *policy* —
//! supplied by the caller, typically `primepar_search`'s costed replan — and
//! either keeps running, pays a one-shot failover patch, or adopts a new plan
//! after a costed weight-state migration. Migration traffic gets its own
//! accounting lane ([`ElasticSegment::migration_bytes`] /
//! [`ElasticSegment::migration_seconds`]), separate from the per-iteration
//! communication the plan itself pays, so the replan decision's
//! time-to-recover arithmetic is auditable from the report.
//!
//! The driver is deliberately mechanical: it charges whatever the policy
//! decides (migration seconds are priced on the *degraded* cluster with the
//! single-exchange redistribution model, `cost::migration`) and measures the
//! resulting makespan. Policy quality is the search crate's business; the
//! never-replan and always-replan static extremes are just two trivial
//! policies, which is what the pinned end-to-end comparison exploits.

use primepar_cost::{migration_seconds, CostCtx, PlanGeometry};
use primepar_graph::Graph;
use primepar_obs::Metrics;
use primepar_partition::PartitionSeq;
use primepar_topology::{AppliedPerturbation, Cluster};

use crate::engine::{simulate_layer_geometry, SimOptions};

/// One scheduled degradation: `perturbation` becomes the observed scenario
/// just before iteration `at_iteration` starts. Scenarios replace each other
/// (they do not compose) — each is drawn against the base hardware, exactly
/// like [`Cluster::with_perturbation`].
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticEvent {
    /// Iteration index (0-based) before which the scenario is observed.
    pub at_iteration: u64,
    /// The observed scenario.
    pub perturbation: AppliedPerturbation,
}

/// What the policy decided at one injection point.
#[derive(Debug, Clone, PartialEq)]
pub enum ElasticAction {
    /// Keep the current plan and residency; pay nothing now.
    Stay,
    /// Keep the plan, re-home dead devices' weight shards onto their ring
    /// buddies: pay a one-shot transfer of `migration_bytes` (whole model).
    Patch {
        /// Failover traffic in bytes, all layers.
        migration_bytes: f64,
    },
    /// Adopt `seqs` after redistributing `migration_bytes` of weight state
    /// (whole model) from the old plan's layout to the new one's.
    Adopt {
        /// The new per-operator partition sequences.
        seqs: Vec<PartitionSeq>,
        /// Plan-switch traffic in bytes, all layers.
        migration_bytes: f64,
    },
}

impl ElasticAction {
    /// Short lowercase tag used in reports and decision traces.
    pub fn tag(&self) -> &'static str {
        match self {
            ElasticAction::Stay => "stay",
            ElasticAction::Patch { .. } => "patch",
            ElasticAction::Adopt { .. } => "replan",
        }
    }
}

/// Everything a policy may inspect at an injection point.
#[derive(Debug)]
pub struct ElasticContext<'a> {
    /// The degraded cluster (scenario already applied).
    pub cluster: &'a Cluster,
    /// The observed scenario.
    pub applied: &'a AppliedPerturbation,
    /// The plan currently running.
    pub current_seqs: &'a [PartitionSeq],
    /// The layer graph.
    pub graph: &'a Graph,
    /// Stacked layer count.
    pub layers: u64,
    /// Iterations left until the end of the job (the recover horizon this
    /// decision is amortized over).
    pub remaining_iterations: u64,
}

/// One homogeneous stretch of the timeline: a plan running under one
/// scenario, plus the migration that opened the stretch.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSegment {
    /// First iteration of the segment (0-based).
    pub start_iteration: u64,
    /// Iterations executed in the segment.
    pub iterations: u64,
    /// The decision that opened the segment: `"initial"`, `"stay"`,
    /// `"patch"` or `"replan"`.
    pub decision: String,
    /// Migration lane: bytes moved to open the segment (0 for stay/initial).
    pub migration_bytes: f64,
    /// Migration lane: seconds charged for the move, priced on the degraded
    /// cluster.
    pub migration_seconds: f64,
    /// Per-iteration latency of the plan on this segment's cluster (whole
    /// model: layer time × layers).
    pub iteration_seconds: f64,
}

impl ElasticSegment {
    /// Wall-clock the segment contributes: migration + its iterations.
    pub fn elapsed_seconds(&self) -> f64 {
        self.migration_seconds + self.iterations as f64 * self.iteration_seconds
    }
}

/// The full elastic run: segments, decision trace, and the makespan the
/// policy is judged by.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticReport {
    /// Timeline segments in order.
    pub segments: Vec<ElasticSegment>,
    /// End-to-end wall-clock: every iteration plus every migration.
    pub makespan: f64,
    /// Total migration-lane bytes across the run.
    pub migration_bytes_total: f64,
    /// Total migration-lane seconds across the run.
    pub migration_seconds_total: f64,
}

impl ElasticReport {
    /// The decision tags in order (the `"initial"` segment excluded) — the
    /// bit-reproducible trace the service and CI compare.
    pub fn decision_trace(&self) -> Vec<&str> {
        self.segments
            .iter()
            .skip(1)
            .map(|s| s.decision.as_str())
            .collect()
    }
}

/// Runs the degradation timeline. Events must be sorted by `at_iteration`,
/// strictly increasing, and within `(0, total_iterations)`; the policy is
/// consulted once per event. Each iteration is the SPMD walk with
/// [`SimOptions::default`] on the cluster the latest event derived
/// ([`Cluster::with_perturbation`]).
///
/// # Panics
///
/// Panics on unsorted/out-of-range events, a plan/graph length mismatch, or
/// an adopted plan of the wrong length.
pub fn simulate_elastic<F>(
    cluster: &Cluster,
    graph: &Graph,
    initial_seqs: &[PartitionSeq],
    layers: u64,
    total_iterations: u64,
    events: &[ElasticEvent],
    mut policy: F,
) -> ElasticReport
where
    F: FnMut(&ElasticContext<'_>) -> ElasticAction,
{
    assert_eq!(
        initial_seqs.len(),
        graph.ops.len(),
        "one sequence per operator"
    );
    for w in events.windows(2) {
        assert!(
            w[0].at_iteration < w[1].at_iteration,
            "events must be strictly increasing by iteration"
        );
    }
    if let (Some(first), Some(last)) = (events.first(), events.last()) {
        assert!(
            first.at_iteration > 0,
            "first event must come after iteration 0"
        );
        assert!(
            last.at_iteration < total_iterations,
            "events past the end of the job are unreachable"
        );
    }

    let iter_time = |c: &Cluster, geometry: &PlanGeometry| -> f64 {
        simulate_layer_geometry(c, graph, geometry, &SimOptions::default()).layer_time
            * layers as f64
    };

    let mut segments = Vec::with_capacity(events.len() + 1);
    let mut current_cluster = cluster.clone();
    let mut current_seqs = initial_seqs.to_vec();
    // The plan's geometry holds across scenarios until the plan changes.
    let mut current_geometry = PlanGeometry::new(graph, &current_seqs);
    let mut cursor = 0u64;
    let mut decision = "initial".to_string();
    let mut pending_bytes = 0.0f64;
    let mut pending_seconds = 0.0f64;

    let mut boundaries: Vec<u64> = events.iter().map(|e| e.at_iteration).collect();
    boundaries.push(total_iterations);

    for (i, &boundary) in boundaries.iter().enumerate() {
        let iterations = boundary - cursor;
        segments.push(ElasticSegment {
            start_iteration: cursor,
            iterations,
            decision: std::mem::take(&mut decision),
            migration_bytes: pending_bytes,
            migration_seconds: pending_seconds,
            iteration_seconds: iter_time(&current_cluster, &current_geometry),
        });
        cursor = boundary;
        let Some(event) = events.get(i) else { break };

        // The scenario lands; the policy decides before the next iteration.
        current_cluster = cluster.with_perturbation(event.perturbation.clone());
        let action = policy(&ElasticContext {
            cluster: &current_cluster,
            applied: &event.perturbation,
            current_seqs: &current_seqs,
            graph,
            layers,
            remaining_iterations: total_iterations - cursor,
        });
        decision = action.tag().to_string();
        let bytes = match action {
            ElasticAction::Stay => 0.0,
            ElasticAction::Patch { migration_bytes } => migration_bytes,
            ElasticAction::Adopt {
                seqs,
                migration_bytes,
            } => {
                assert_eq!(
                    seqs.len(),
                    graph.ops.len(),
                    "adopted plan must cover every operator"
                );
                current_geometry = PlanGeometry::new(graph, &seqs);
                current_seqs = seqs;
                migration_bytes
            }
        };
        pending_bytes = bytes;
        // The move runs on the hardware as it now is.
        let ctx = CostCtx::new(&current_cluster, 0.0);
        pending_seconds = migration_seconds(&ctx, bytes);
    }

    let makespan = segments.iter().map(ElasticSegment::elapsed_seconds).sum();
    ElasticReport {
        migration_bytes_total: segments.iter().map(|s| s.migration_bytes).sum(),
        migration_seconds_total: segments.iter().map(|s| s.migration_seconds).sum(),
        segments,
        makespan,
    }
}

/// Renders the elastic run as deterministic ASCII — same inputs, same bytes.
pub fn render_elastic(report: &ElasticReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "elastic timeline: {} segments, makespan {:.6} s, migration {:.0} B / {:.6} s\n",
        report.segments.len(),
        report.makespan,
        report.migration_bytes_total,
        report.migration_seconds_total
    ));
    out.push_str(&format!(
        "{:>6}  {:>6}  {:<8}  {:>14}  {:>12}  {:>12}\n",
        "start", "iters", "decision", "migr bytes", "migr s", "iter s"
    ));
    for s in &report.segments {
        out.push_str(&format!(
            "{:>6}  {:>6}  {:<8}  {:>14.0}  {:>12.6}  {:>12.6}\n",
            s.start_iteration,
            s.iterations,
            s.decision,
            s.migration_bytes,
            s.migration_seconds,
            s.iteration_seconds
        ));
    }
    out
}

/// Folds an elastic run into an observability registry under `elastic.*`.
pub fn elastic_metrics(report: &ElasticReport) -> Metrics {
    let mut m = Metrics::new();
    m.gauge("elastic.makespan_seconds", report.makespan);
    m.gauge("elastic.migration_bytes", report.migration_bytes_total);
    m.gauge("elastic.migration_seconds", report.migration_seconds_total);
    m.incr("elastic.segments", report.segments.len() as u64);
    for tag in ["stay", "patch", "replan"] {
        let n = report.segments.iter().filter(|s| s.decision == tag).count();
        m.incr(&format!("elastic.decision.{tag}"), n as u64);
    }
    for (i, s) in report.segments.iter().enumerate() {
        let p = format!("elastic.segment.{i}");
        m.text(&format!("{p}.decision"), &s.decision);
        m.gauge(&format!("{p}.start_iteration"), s.start_iteration as f64);
        m.gauge(&format!("{p}.iterations"), s.iterations as f64);
        m.gauge(&format!("{p}.migration_bytes"), s.migration_bytes);
        m.gauge(&format!("{p}.migration_seconds"), s.migration_seconds);
        m.gauge(&format!("{p}.iteration_seconds"), s.iteration_seconds);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;
    use primepar_partition::{Dim, Primitive};
    use primepar_topology::PerturbationModel;

    fn fixture() -> (Cluster, Graph, Vec<PartitionSeq>) {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
        let seqs = (0..graph.ops.len())
            .map(|_| {
                PartitionSeq::new(vec![Primitive::Split(Dim::K), Primitive::Split(Dim::K)]).unwrap()
            })
            .collect();
        (cluster, graph, seqs)
    }

    #[test]
    fn no_events_is_one_segment_of_pure_iterations() {
        let (cluster, graph, seqs) = fixture();
        let r = simulate_elastic(&cluster, &graph, &seqs, 2, 10, &[], |_| {
            unreachable!("no events, no decisions")
        });
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.segments[0].decision, "initial");
        assert_eq!(r.segments[0].iterations, 10);
        assert_eq!(r.migration_bytes_total, 0.0);
        assert!((r.makespan - 10.0 * r.segments[0].iteration_seconds).abs() < 1e-12);
        assert!(r.decision_trace().is_empty());
    }

    #[test]
    fn stay_keeps_the_plan_but_pays_degraded_iterations() {
        let (cluster, graph, seqs) = fixture();
        let applied = AppliedPerturbation::draw(&PerturbationModel::harsh(), 3, 4);
        let events = vec![ElasticEvent {
            at_iteration: 4,
            perturbation: applied,
        }];
        let r = simulate_elastic(&cluster, &graph, &seqs, 2, 10, &events, |_| {
            ElasticAction::Stay
        });
        assert_eq!(r.segments.len(), 2);
        assert_eq!(r.decision_trace(), vec!["stay"]);
        assert_eq!(r.segments[1].start_iteration, 4);
        assert_eq!(r.segments[1].iterations, 6);
        assert!(r.segments[1].iteration_seconds > r.segments[0].iteration_seconds);
        assert_eq!(r.migration_seconds_total, 0.0);
    }

    #[test]
    fn adopt_switches_the_plan_and_charges_the_migration_lane() {
        let (cluster, graph, seqs) = fixture();
        let new_seqs: Vec<PartitionSeq> = (0..graph.ops.len())
            .map(|_| {
                PartitionSeq::new(vec![Primitive::Split(Dim::N), Primitive::Split(Dim::N)]).unwrap()
            })
            .collect();
        let applied = AppliedPerturbation::draw(&PerturbationModel::mild(), 1, 4);
        let events = vec![ElasticEvent {
            at_iteration: 2,
            perturbation: applied.clone(),
        }];
        let bytes = 1e9;
        let r = simulate_elastic(&cluster, &graph, &seqs, 2, 6, &events, |ctx| {
            assert_eq!(ctx.remaining_iterations, 4);
            assert_eq!(ctx.applied, &applied);
            ElasticAction::Adopt {
                seqs: new_seqs.clone(),
                migration_bytes: bytes,
            }
        });
        assert_eq!(r.decision_trace(), vec!["replan"]);
        assert_eq!(r.migration_bytes_total, bytes);
        assert!(r.migration_seconds_total > 0.0);
        // The charged lane is priced on the degraded cluster.
        let degraded = cluster.with_perturbation(applied);
        let ctx = CostCtx::new(&degraded, 0.0);
        assert_eq!(r.migration_seconds_total, migration_seconds(&ctx, bytes));
        // Makespan decomposes into the two segments plus the migration.
        let expect: f64 = r.segments.iter().map(|s| s.elapsed_seconds()).sum();
        assert!((r.makespan - expect).abs() < 1e-12);
    }

    #[test]
    fn render_and_metrics_are_deterministic() {
        let (cluster, graph, seqs) = fixture();
        let applied = AppliedPerturbation::draw(&PerturbationModel::mild(), 9, 4);
        let events = vec![ElasticEvent {
            at_iteration: 3,
            perturbation: applied,
        }];
        let run = |_: ()| {
            simulate_elastic(&cluster, &graph, &seqs, 1, 5, &events, |_| {
                ElasticAction::Patch {
                    migration_bytes: 5e8,
                }
            })
        };
        let a = run(());
        let b = run(());
        assert_eq!(render_elastic(&a), render_elastic(&b));
        let m = elastic_metrics(&a);
        assert_eq!(m.counter("elastic.decision.patch"), 1);
        assert_eq!(m.counter("elastic.segments"), 2);
        assert!(m.gauge_value("elastic.makespan_seconds").unwrap() > 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_events_are_rejected() {
        let (cluster, graph, seqs) = fixture();
        let p = AppliedPerturbation::ideal(4);
        let events = vec![
            ElasticEvent {
                at_iteration: 4,
                perturbation: p.clone(),
            },
            ElasticEvent {
                at_iteration: 2,
                perturbation: p,
            },
        ];
        simulate_elastic(&cluster, &graph, &seqs, 1, 10, &events, |_| {
            ElasticAction::Stay
        });
    }
}
