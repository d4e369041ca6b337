//! Online re-planning: the costed migration decision and the degradation
//! timeline it is charged on.
//!
//! When a running job observes a fault/variance scenario
//! ([`AppliedPerturbation`]), [`replan`] compares three recovery candidates
//! by *total time-to-recover* over the remaining horizon:
//!
//! * [`MigrationDecision::Stay`] — keep the plan and residency, pay nothing
//!   now, run every remaining iteration at the degraded pace. Infeasible
//!   when devices died: their weight shards are gone from where the plan
//!   expects them.
//! * [`MigrationDecision::Patch`] — keep the plan but re-home each dead
//!   device's shards onto its ring buddy `d ^ 1`
//!   ([`primepar_cost::failover_traffic`]); one small transfer, then the
//!   degraded pace.
//! * [`MigrationDecision::FullReplan`] — run the segmented-DP planner
//!   against the degraded cluster (reusing the warm cache and the configured
//!   [`SearchStrategy`](crate::SearchStrategy)) and migrate the weight state
//!   into the new layout, priced by the Eqs. 8–9 slice-interval machinery
//!   ([`primepar_cost::migration_traffic`]); pay up front, then iterate
//!   faster.
//!
//! The decision is `argmin(migration_seconds + horizon × iteration_cost)`
//! with ties broken toward the least disruptive action
//! (`Stay ≤ Patch ≤ FullReplan`), and a no-op scenario short-circuits to
//! `Stay` without running the planner.
//!
//! [`run_elastic`] plays the decision out over a degradation timeline: at
//! each [`ElasticEvent`] it asks an [`ElasticPolicy`] for a
//! [`ReplanOutcome`], charges the outcome's own migration price, and
//! measures every iteration with the SPMD walk on the degraded cluster. The
//! costed policy races the two static extremes ([`ElasticPolicy::Never`],
//! [`ElasticPolicy::Always`]) — whether re-choosing the tensor-parallel
//! layout pays once the interconnect degrades.

use std::time::{Duration, Instant};

use primepar_cost::{failover_traffic, migration_seconds, migration_traffic, CostCtx};
use primepar_graph::Graph;
use primepar_partition::PartitionSeq;
use primepar_sim::simulate_layer;
use primepar_topology::{AppliedPerturbation, Cluster};

use crate::{
    evaluate_layer_plan, ModelPlan, Planner, PlannerMetrics, PlannerOptions, PlannerWarmCache,
};

/// Which recovery action the replan loop decided on. The declaration order
/// is the tie-break order: under equal total time-to-recover the less
/// disruptive action wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MigrationDecision {
    /// Keep the current plan and residency.
    Stay,
    /// Keep the plan, fail dead devices' shards over to their ring buddies.
    Patch,
    /// Re-run the planner on the degraded cluster and migrate into its plan.
    FullReplan,
}

impl MigrationDecision {
    /// Short lowercase tag: the decision traces the service and CI compare.
    pub fn tag(&self) -> &'static str {
        match self {
            MigrationDecision::Stay => "stay",
            MigrationDecision::Patch => "patch",
            MigrationDecision::FullReplan => "replan",
        }
    }
}

/// Configuration of the replan decision.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ReplanOptions {
    /// Iterations the recovery is amortized over (the deadline `H` in
    /// `migration + H × iteration_cost`). Clamped up to 1.
    pub horizon_iterations: u64,
    /// Planner configuration for the [`MigrationDecision::FullReplan`]
    /// candidate; its `alpha` also prices the per-iteration cost of every
    /// candidate.
    pub planner: PlannerOptions,
}

impl Default for ReplanOptions {
    fn default() -> Self {
        ReplanOptions {
            horizon_iterations: 1000,
            planner: PlannerOptions::default(),
        }
    }
}

impl ReplanOptions {
    /// Default options: a 1000-iteration horizon and the default planner.
    pub fn new() -> Self {
        ReplanOptions::default()
    }

    /// Replaces the amortization horizon.
    #[must_use]
    pub fn with_horizon(mut self, iterations: u64) -> Self {
        self.horizon_iterations = iterations;
        self
    }

    /// Replaces the planner configuration.
    #[must_use]
    pub fn with_planner(mut self, planner: PlannerOptions) -> Self {
        self.planner = planner;
        self
    }
}

/// One candidate's costing, as entered into the argmin.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCost {
    /// Which action this candidate prices.
    pub decision: MigrationDecision,
    /// `false` when the action cannot be taken (staying with dead devices).
    pub feasible: bool,
    /// One-shot migration traffic, whole model (all layers), in bytes.
    pub migration_bytes: f64,
    /// The migration priced on the degraded cluster (single-exchange model).
    pub migration_seconds: f64,
    /// Per-iteration cost of the candidate's plan on the degraded cluster
    /// (Eq. 7 units — seconds at `alpha = 0`), whole model.
    pub iteration_seconds: f64,
    /// `migration_seconds + horizon × iteration_seconds`; infinite when
    /// infeasible.
    pub total_seconds: f64,
}

/// The replan decision with its full audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanOutcome {
    /// The argmin decision.
    pub decision: MigrationDecision,
    /// Every candidate priced, in tie-break order. A no-op scenario
    /// short-circuits to a single `Stay` entry.
    pub candidates: Vec<CandidateCost>,
    /// The adopted plan when the decision is
    /// [`MigrationDecision::FullReplan`], `None` otherwise.
    pub new_seqs: Option<Vec<PartitionSeq>>,
    /// Migration bytes of the chosen candidate.
    pub migration_bytes: f64,
    /// Migration seconds of the chosen candidate.
    pub migration_seconds: f64,
    /// Wall-clock spent deciding (dominated by the planner run).
    pub decision_time: Duration,
    /// Volume planes this decision's planner run found in the warm cache;
    /// 0 when it ran no planner or had no warm cache.
    pub warm_matrix_hits: u64,
    /// Volume planes that run had to sweep; 0 likewise.
    pub warm_matrix_misses: u64,
}

impl ReplanOutcome {
    /// A `Stay` decision over `candidates`: no migration, no planner run.
    fn stay(candidates: Vec<CandidateCost>, decision_time: Duration) -> ReplanOutcome {
        ReplanOutcome {
            decision: MigrationDecision::Stay,
            candidates,
            new_seqs: None,
            migration_bytes: 0.0,
            migration_seconds: 0.0,
            decision_time,
            warm_matrix_hits: 0,
            warm_matrix_misses: 0,
        }
    }

    /// The chosen candidate's costing row.
    pub fn chosen(&self) -> &CandidateCost {
        self.candidates
            .iter()
            .find(|c| c.decision == self.decision)
            .expect("the chosen decision is always a candidate")
    }
}

/// Prices the three recovery candidates for `applied` landing on a job that
/// runs `current_seqs` over `layers` stacked layers on `cluster`, and picks
/// the minimum total time-to-recover (ties toward the least disruptive
/// action). A no-op scenario returns `Stay` without consulting the planner.
///
/// The per-iteration term of every candidate is
/// [`evaluate_layer_plan`] `× layers` on the degraded cluster; migration is
/// priced by the single-exchange model
/// ([`primepar_cost::migration_seconds`]) on the degraded cluster at
/// `alpha = 0`; [`run_elastic`] charges the chosen candidate's price as is.
/// `FullReplan`'s migration includes the failover recovery of dead devices'
/// shards (they must be re-homed before they can be re-laid-out).
///
/// # Panics
///
/// Panics if the scenario's device count does not match the cluster, or the
/// plan does not cover the graph.
pub fn replan(
    cluster: &Cluster,
    graph: &Graph,
    current_seqs: &[PartitionSeq],
    applied: &AppliedPerturbation,
    layers: u64,
    opts: &ReplanOptions,
    warm: Option<&PlannerWarmCache>,
) -> ReplanOutcome {
    assert_eq!(
        applied.num_devices(),
        cluster.num_devices(),
        "scenario device count must match the cluster"
    );
    assert_eq!(
        current_seqs.len(),
        graph.ops.len(),
        "one sequence per operator"
    );
    let start = Instant::now();
    let horizon = opts.horizon_iterations.max(1) as f64;
    let layers_f = layers.max(1) as f64;

    if applied.is_noop() {
        // Nothing changed: staying is free and every alternative only adds
        // migration on top of the same (or worse) iteration cost.
        let iter = evaluate_layer_plan(cluster, graph, current_seqs, opts.planner.alpha) * layers_f;
        let stay = CandidateCost {
            decision: MigrationDecision::Stay,
            feasible: true,
            migration_bytes: 0.0,
            migration_seconds: 0.0,
            iteration_seconds: iter,
            total_seconds: horizon * iter,
        };
        return ReplanOutcome::stay(vec![stay], start.elapsed());
    }

    let degraded = cluster.with_perturbation(applied.clone());
    // Migration is a pure transfer: price it at alpha = 0 like the simulator.
    let migration_ctx = CostCtx::new(&degraded, 0.0);
    let current_iter =
        evaluate_layer_plan(&degraded, graph, current_seqs, opts.planner.alpha) * layers_f;
    let stay_feasible = applied.dead_devices() == 0;
    let stay = CandidateCost {
        decision: MigrationDecision::Stay,
        feasible: stay_feasible,
        migration_bytes: 0.0,
        migration_seconds: 0.0,
        iteration_seconds: current_iter,
        total_seconds: if stay_feasible {
            horizon * current_iter
        } else {
            f64::INFINITY
        },
    };

    let failover = failover_traffic(graph, current_seqs, &applied.dead);
    let patch_bytes = failover.total_bytes * layers_f;
    let patch_seconds = migration_seconds(&migration_ctx, patch_bytes);
    let patch = CandidateCost {
        decision: MigrationDecision::Patch,
        feasible: true,
        migration_bytes: patch_bytes,
        migration_seconds: patch_seconds,
        iteration_seconds: current_iter,
        total_seconds: patch_seconds + horizon * current_iter,
    };

    let (plan, tm) = plan_on(&degraded, graph, layers, opts, warm);
    let full = full_replan_cost(
        &migration_ctx,
        graph,
        current_seqs,
        &plan.seqs,
        failover.total_bytes,
        layers,
        opts,
    );

    let candidates = vec![stay, patch, full];
    // Strict improvement only: declaration order is the tie-break.
    let chosen = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.feasible)
        .min_by(|(ai, a), (bi, b)| {
            a.total_seconds
                .partial_cmp(&b.total_seconds)
                .expect("finite or infinite totals, never NaN")
                .then(ai.cmp(bi))
        })
        .map(|(_, c)| c.clone())
        .expect("patch and full-replan are always feasible");

    ReplanOutcome {
        new_seqs: (chosen.decision == MigrationDecision::FullReplan).then(|| plan.seqs.clone()),
        migration_bytes: chosen.migration_bytes,
        migration_seconds: chosen.migration_seconds,
        decision: chosen.decision,
        candidates,
        decision_time: start.elapsed(),
        warm_matrix_hits: tm.warm_matrix_hits,
        warm_matrix_misses: tm.warm_matrix_misses,
    }
}

/// The full-replan candidate: adopt `new_seqs` on the degraded cluster
/// `migration_ctx` prices on. Dead shards are re-homed first (the
/// `failover_bytes` of one layer), then the surviving layout redistributes
/// into the new plan's layout.
fn full_replan_cost(
    migration_ctx: &CostCtx<'_>,
    graph: &Graph,
    current_seqs: &[PartitionSeq],
    new_seqs: &[PartitionSeq],
    failover_bytes: f64,
    layers: u64,
    opts: &ReplanOptions,
) -> CandidateCost {
    let layers_f = layers.max(1) as f64;
    let switch = migration_traffic(graph, current_seqs, new_seqs);
    let bytes = (failover_bytes + switch.total_bytes) * layers_f;
    let seconds = migration_seconds(migration_ctx, bytes);
    let iter = evaluate_layer_plan(migration_ctx.cluster(), graph, new_seqs, opts.planner.alpha)
        * layers_f;
    let horizon = opts.horizon_iterations.max(1) as f64;
    CandidateCost {
        decision: MigrationDecision::FullReplan,
        feasible: true,
        migration_bytes: bytes,
        migration_seconds: seconds,
        iteration_seconds: iter,
        total_seconds: seconds + horizon * iter,
    }
}

/// Plans `graph` on the degraded cluster, against `warm` when given.
fn plan_on(
    degraded: &Cluster,
    graph: &Graph,
    layers: u64,
    opts: &ReplanOptions,
    warm: Option<&PlannerWarmCache>,
) -> (ModelPlan, PlannerMetrics) {
    let planner = Planner::new(degraded, graph, opts.planner);
    match warm {
        Some(w) => planner.optimize_warm_instrumented(layers.max(1), w),
        None => planner.optimize_instrumented(layers.max(1)),
    }
}

/// The three policies the end-to-end comparison races on one degradation
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticPolicy {
    /// Never react: ride every scenario out with the initial plan.
    Never,
    /// Re-plan from scratch at every event and always adopt the result,
    /// whatever the migration costs.
    Always,
    /// The costed [`replan`] decision, amortized over the iterations that
    /// actually remain.
    Elastic,
}

impl ElasticPolicy {
    /// Short lowercase tag used in reports and metrics.
    pub fn tag(&self) -> &'static str {
        match self {
            ElasticPolicy::Never => "never",
            ElasticPolicy::Always => "always",
            ElasticPolicy::Elastic => "elastic",
        }
    }
}

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

/// One homogeneous stretch of the timeline: a plan running under one
/// scenario, plus the migration that opened the stretch.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSegment {
    /// First iteration of the segment (0-based).
    pub start_iteration: u64,
    /// Iterations executed in the segment.
    pub iterations: u64,
    /// Migration lane: bytes moved to open the segment (0 for the initial
    /// segment and after a stay).
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

/// An elastic run: the timeline segments, the decision behind every event,
/// and the makespan the policy is judged by.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticRunReport {
    /// Timeline segments in order: the initial one, then one per event.
    pub segments: Vec<ElasticSegment>,
    /// One [`ReplanOutcome`] per event, in order; segment `i + 1` charges
    /// outcome `i`. [`ElasticPolicy::Never`] decides without costing, so its
    /// outcomes are synthesized `Stay` rows.
    pub outcomes: Vec<ReplanOutcome>,
    /// End-to-end wall-clock: every iteration plus every migration.
    pub makespan: f64,
    /// Total migration-lane bytes across the run.
    pub migration_bytes_total: f64,
    /// Total migration-lane seconds across the run.
    pub migration_seconds_total: f64,
}

impl ElasticRunReport {
    /// The decision tags in event order — the bit-reproducible trace the
    /// service and CI compare.
    pub fn decision_trace(&self) -> Vec<&'static str> {
        self.outcomes.iter().map(|o| o.decision.tag()).collect()
    }
}

/// Runs the degradation timeline under `policy`. Events must be sorted by
/// `at_iteration`, strictly increasing, and within `(0, total_iterations)`;
/// the policy decides once per event. Each segment charges the outcome's own
/// `migration_bytes` / `migration_seconds` and runs its iterations as the
/// SPMD walk ([`simulate_layer`]) of the resident plan on the cluster the
/// event derives ([`Cluster::with_perturbation`]). The elastic policy
/// amortizes each decision over the iterations actually remaining at the
/// event (not `opts.horizon_iterations`); the planner configuration and warm
/// cache are shared by every planner run the policy makes.
///
/// # Panics
///
/// Panics on unsorted/out-of-range events, a plan/graph length mismatch, or
/// an adopted plan of the wrong length.
#[allow(clippy::too_many_arguments)] // the full workload description, like the planner entry points
pub fn run_elastic(
    cluster: &Cluster,
    graph: &Graph,
    initial_seqs: &[PartitionSeq],
    layers: u64,
    total_iterations: u64,
    events: &[ElasticEvent],
    policy: ElasticPolicy,
    opts: &ReplanOptions,
    warm: Option<&PlannerWarmCache>,
) -> ElasticRunReport {
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
    let iteration_seconds = |c: &Cluster, seqs: &[PartitionSeq]| {
        simulate_layer(c, graph, seqs).layer_time * layers as f64
    };
    let segment_end = |i: usize| events.get(i).map_or(total_iterations, |e| e.at_iteration);

    let mut seqs = initial_seqs.to_vec();
    let mut segments = Vec::with_capacity(events.len() + 1);
    segments.push(ElasticSegment {
        start_iteration: 0,
        iterations: segment_end(0),
        migration_bytes: 0.0,
        migration_seconds: 0.0,
        iteration_seconds: iteration_seconds(cluster, &seqs),
    });
    let mut outcomes = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        let start = event.at_iteration;
        let applied = &event.perturbation;
        let outcome = match policy {
            ElasticPolicy::Never => ReplanOutcome::stay(Vec::new(), Duration::ZERO),
            ElasticPolicy::Always => {
                always_outcome(cluster, applied, graph, &seqs, layers, opts, warm)
            }
            ElasticPolicy::Elastic => replan(
                cluster,
                graph,
                &seqs,
                applied,
                layers,
                &opts.with_horizon(total_iterations - start),
                warm,
            ),
        };
        if let Some(adopted) = &outcome.new_seqs {
            assert_eq!(
                adopted.len(),
                graph.ops.len(),
                "adopted plan must cover every operator"
            );
            seqs.clone_from(adopted);
        }
        let degraded = cluster.with_perturbation(applied.clone());
        segments.push(ElasticSegment {
            start_iteration: start,
            iterations: segment_end(i + 1) - start,
            migration_bytes: outcome.migration_bytes,
            migration_seconds: outcome.migration_seconds,
            iteration_seconds: iteration_seconds(&degraded, &seqs),
        });
        outcomes.push(outcome);
    }

    ElasticRunReport {
        makespan: segments.iter().map(ElasticSegment::elapsed_seconds).sum(),
        migration_bytes_total: segments.iter().map(|s| s.migration_bytes).sum(),
        migration_seconds_total: segments.iter().map(|s| s.migration_seconds).sum(),
        segments,
        outcomes,
    }
}

/// The always-full-replan extreme: plan on the degraded cluster, adopt
/// unconditionally, and charge failover plus layout-switch migration.
fn always_outcome(
    cluster: &Cluster,
    applied: &AppliedPerturbation,
    graph: &Graph,
    current_seqs: &[PartitionSeq],
    layers: u64,
    opts: &ReplanOptions,
    warm: Option<&PlannerWarmCache>,
) -> ReplanOutcome {
    let start = Instant::now();
    let degraded = cluster.with_perturbation(applied.clone());
    let (plan, tm) = plan_on(&degraded, graph, layers, opts, warm);
    let failover = failover_traffic(graph, current_seqs, &applied.dead);
    let full = full_replan_cost(
        &CostCtx::new(&degraded, 0.0),
        graph,
        current_seqs,
        &plan.seqs,
        failover.total_bytes,
        layers,
        opts,
    );
    ReplanOutcome {
        decision: MigrationDecision::FullReplan,
        new_seqs: Some(plan.seqs),
        migration_bytes: full.migration_bytes,
        migration_seconds: full.migration_seconds,
        candidates: vec![full],
        decision_time: start.elapsed(),
        warm_matrix_hits: tm.warm_matrix_hits,
        warm_matrix_misses: tm.warm_matrix_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;
    use primepar_topology::PerturbationModel;

    fn fixture() -> (Cluster, Graph, Vec<PartitionSeq>) {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
        let seqs = Planner::new(&cluster, &graph, PlannerOptions::default())
            .optimize(2)
            .seqs;
        (cluster, graph, seqs)
    }

    #[test]
    fn noop_scenario_short_circuits_to_stay() {
        let (cluster, graph, seqs) = fixture();
        let out = replan(
            &cluster,
            &graph,
            &seqs,
            &AppliedPerturbation::ideal(4),
            2,
            &ReplanOptions::default(),
            None,
        );
        assert_eq!(out.decision, MigrationDecision::Stay);
        assert_eq!(out.candidates.len(), 1, "planner must not run");
        assert_eq!(out.migration_bytes, 0.0);
        assert!(out.new_seqs.is_none());
    }

    #[test]
    fn chosen_candidate_is_the_feasible_argmin() {
        let (cluster, graph, seqs) = fixture();
        let applied = AppliedPerturbation::draw(&PerturbationModel::harsh(), 5, 4);
        let out = replan(
            &cluster,
            &graph,
            &seqs,
            &applied,
            2,
            &ReplanOptions::default(),
            None,
        );
        assert_eq!(out.candidates.len(), 3);
        let chosen = out.chosen();
        for c in out.candidates.iter().filter(|c| c.feasible) {
            assert!(
                chosen.total_seconds <= c.total_seconds,
                "{:?} beat the chosen {:?}",
                c.decision,
                chosen.decision
            );
        }
        // The audit arithmetic holds row by row.
        let horizon = 1000.0;
        for c in &out.candidates {
            if c.feasible {
                let expect = c.migration_seconds + horizon * c.iteration_seconds;
                assert!((c.total_seconds - expect).abs() <= 1e-9 * expect);
            }
        }
    }

    #[test]
    fn dead_devices_make_stay_infeasible() {
        let (cluster, graph, seqs) = fixture();
        let model = PerturbationModel {
            dead_device_prob: 0.9,
            ..PerturbationModel::ideal()
        };
        let applied = (0..64)
            .map(|seed| AppliedPerturbation::draw(&model, seed, 4))
            .find(|a| a.dead_devices() > 0)
            .expect("p=0.9 must kill someone in 64 seeds");
        let out = replan(
            &cluster,
            &graph,
            &seqs,
            &applied,
            2,
            &ReplanOptions::default(),
            None,
        );
        let stay = &out.candidates[0];
        assert_eq!(stay.decision, MigrationDecision::Stay);
        assert!(!stay.feasible);
        assert!(stay.total_seconds.is_infinite());
        assert_ne!(out.decision, MigrationDecision::Stay);
        // Both remaining candidates move real bytes: the dead shard re-homes.
        assert!(out.candidates[1].migration_bytes > 0.0);
        assert!(out.candidates[2].migration_bytes > 0.0);
    }

    #[test]
    fn short_horizon_prefers_stay_long_horizon_can_justify_migration() {
        // The deadline is the lever: with one iteration left, any migration
        // with positive bytes cannot amortize unless the iteration gain is
        // enormous; totals must reflect the horizon linearly.
        let (cluster, graph, seqs) = fixture();
        let applied = AppliedPerturbation::draw(&PerturbationModel::harsh(), 5, 4);
        let short = replan(
            &cluster,
            &graph,
            &seqs,
            &applied,
            2,
            &ReplanOptions::default().with_horizon(1),
            None,
        );
        let long = replan(
            &cluster,
            &graph,
            &seqs,
            &applied,
            2,
            &ReplanOptions::default().with_horizon(1_000_000),
            None,
        );
        // Candidates agree on per-iteration and migration terms; only the
        // amortization differs.
        for (s, l) in short.candidates.iter().zip(&long.candidates) {
            assert_eq!(s.decision, l.decision);
            assert_eq!(s.migration_bytes, l.migration_bytes);
            assert_eq!(s.iteration_seconds, l.iteration_seconds);
        }
        // Decision rank can only move toward migration as the horizon grows.
        assert!(long.decision >= short.decision);
    }

    /// `n` devices with `device` dead: its ring buddy carries both shards at
    /// twice the compute and link time, and the dead slot mirrors the buddy
    /// (what `AppliedPerturbation::draw` derives for a dead draw).
    fn dead_device(n: usize, device: usize) -> AppliedPerturbation {
        let mut p = AppliedPerturbation::ideal(n);
        p.dead[device] = true;
        for d in [device, device ^ 1] {
            p.compute_factors[d] = 2.0;
            p.link_factors[d] = 2.0;
        }
        p
    }

    /// `n` devices whose inter-node fabric runs `factor ×` slower.
    fn brownout(n: usize, factor: f64) -> AppliedPerturbation {
        let mut p = AppliedPerturbation::ideal(n);
        p.inter_link_factor = factor;
        p
    }

    /// Runs `events` under every policy and checks, bit for bit, that each
    /// segment charges its outcome's migration and iterates the resident
    /// plan's SPMD walk on the event's degraded cluster. Returns the
    /// `[never, always, elastic]` runs.
    fn runs_charging_what_was_priced(
        cluster: &Cluster,
        graph: &Graph,
        seqs: &[PartitionSeq],
        layers: u64,
        total_iterations: u64,
        events: &[ElasticEvent],
    ) -> [ElasticRunReport; 3] {
        let walk = |c: &Cluster, plan: &[PartitionSeq]| {
            (simulate_layer(c, graph, plan).layer_time * layers as f64).to_bits()
        };
        [
            ElasticPolicy::Never,
            ElasticPolicy::Always,
            ElasticPolicy::Elastic,
        ]
        .map(|policy| {
            let run = run_elastic(
                cluster,
                graph,
                seqs,
                layers,
                total_iterations,
                events,
                policy,
                &ReplanOptions::default(),
                None,
            );
            assert_eq!(run.segments.len(), events.len() + 1);
            assert_eq!(run.outcomes.len(), events.len());
            let first = &run.segments[0];
            assert_eq!(first.migration_bytes.to_bits(), 0.0f64.to_bits());
            assert_eq!(first.migration_seconds.to_bits(), 0.0f64.to_bits());
            assert_eq!(first.iteration_seconds.to_bits(), walk(cluster, seqs));
            let mut resident = seqs.to_vec();
            for ((segment, outcome), event) in
                run.segments[1..].iter().zip(&run.outcomes).zip(events)
            {
                if policy != ElasticPolicy::Never {
                    let chosen = outcome.chosen();
                    assert_eq!(
                        chosen.migration_bytes.to_bits(),
                        outcome.migration_bytes.to_bits()
                    );
                    assert_eq!(
                        chosen.migration_seconds.to_bits(),
                        outcome.migration_seconds.to_bits()
                    );
                }
                assert_eq!(segment.start_iteration, event.at_iteration);
                assert_eq!(
                    segment.migration_bytes.to_bits(),
                    outcome.migration_bytes.to_bits()
                );
                assert_eq!(
                    segment.migration_seconds.to_bits(),
                    outcome.migration_seconds.to_bits()
                );
                if let Some(adopted) = &outcome.new_seqs {
                    resident.clone_from(adopted);
                }
                let degraded = cluster.with_perturbation(event.perturbation.clone());
                assert_eq!(
                    segment.iteration_seconds.to_bits(),
                    walk(&degraded, &resident)
                );
            }
            let makespan: f64 = run
                .segments
                .iter()
                .map(ElasticSegment::elapsed_seconds)
                .sum();
            assert_eq!(run.makespan.to_bits(), makespan.to_bits());
            run
        })
    }

    #[test]
    fn timeline_charges_what_the_decision_priced() {
        // The `figures replan` brownout: 8x at iteration 300, 32x at 350.
        let cluster = Cluster::v100_like(8);
        let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
        let seqs = Planner::new(&cluster, &graph, PlannerOptions::default())
            .optimize(2)
            .seqs;
        let events = [(300, 8.0), (350, 32.0)].map(|(at_iteration, factor)| ElasticEvent {
            at_iteration,
            perturbation: brownout(8, factor),
        });
        let [never, always, elastic] =
            runs_charging_what_was_priced(&cluster, &graph, &seqs, 2, 400, &events);
        assert_eq!(never.decision_trace(), vec!["stay", "stay"]);
        assert_eq!(always.decision_trace(), vec!["replan", "replan"]);
        assert_eq!(elastic.decision_trace(), vec!["stay", "replan"]);

        // A device dies two iterations before the end: re-homing its shards
        // beats re-planning over so short a horizon.
        let (cluster, graph, seqs) = fixture();
        let events = [ElasticEvent {
            at_iteration: 8,
            perturbation: dead_device(4, 1),
        }];
        let [never, _, elastic] =
            runs_charging_what_was_priced(&cluster, &graph, &seqs, 2, 10, &events);
        assert_eq!(never.decision_trace(), vec!["stay"]);
        assert_eq!(elastic.decision_trace(), vec!["patch"]);
        assert!(elastic.migration_bytes_total > 0.0);
    }

    #[test]
    fn no_events_is_one_segment_of_pure_iterations() {
        let (cluster, graph, seqs) = fixture();
        let r = run_elastic(
            &cluster,
            &graph,
            &seqs,
            2,
            10,
            &[],
            ElasticPolicy::Elastic,
            &ReplanOptions::default(),
            None,
        );
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.segments[0].iterations, 10);
        assert_eq!(r.migration_bytes_total, 0.0);
        assert!((r.makespan - 10.0 * r.segments[0].iteration_seconds).abs() < 1e-12);
        assert!(r.outcomes.is_empty());
        assert!(r.decision_trace().is_empty());
    }

    #[test]
    fn stay_keeps_the_plan_but_pays_degraded_iterations() {
        let (cluster, graph, seqs) = fixture();
        let events = vec![ElasticEvent {
            at_iteration: 4,
            perturbation: AppliedPerturbation::draw(&PerturbationModel::harsh(), 3, 4),
        }];
        let r = run_elastic(
            &cluster,
            &graph,
            &seqs,
            2,
            10,
            &events,
            ElasticPolicy::Never,
            &ReplanOptions::default(),
            None,
        );
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
        // A dead device: the adopted plan must at least re-home its shards.
        let applied = dead_device(4, 1);
        let events = vec![ElasticEvent {
            at_iteration: 2,
            perturbation: applied.clone(),
        }];
        let r = run_elastic(
            &cluster,
            &graph,
            &seqs,
            2,
            6,
            &events,
            ElasticPolicy::Always,
            &ReplanOptions::default(),
            None,
        );
        assert_eq!(r.decision_trace(), vec!["replan"]);
        assert!(r.outcomes[0].new_seqs.is_some());
        let bytes = r.outcomes[0].migration_bytes;
        assert!(bytes > 0.0);
        assert_eq!(r.migration_bytes_total, bytes);
        // The charged lane is priced on the degraded cluster.
        let degraded = cluster.with_perturbation(applied);
        let ctx = CostCtx::new(&degraded, 0.0);
        assert_eq!(r.migration_seconds_total, migration_seconds(&ctx, bytes));
        // Makespan decomposes into the two segments plus the migration.
        let expect: f64 = r.segments.iter().map(|s| s.elapsed_seconds()).sum();
        assert!((r.makespan - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_events_are_rejected() {
        let (cluster, graph, seqs) = fixture();
        let events = [4, 2].map(|at_iteration| ElasticEvent {
            at_iteration,
            perturbation: AppliedPerturbation::ideal(4),
        });
        run_elastic(
            &cluster,
            &graph,
            &seqs,
            1,
            10,
            &events,
            ElasticPolicy::Never,
            &ReplanOptions::default(),
            None,
        );
    }

    #[test]
    fn run_elastic_policies_produce_consistent_traces() {
        let (cluster, graph, seqs) = fixture();
        let applied = AppliedPerturbation::draw(&PerturbationModel::harsh(), 5, 4);
        let events = vec![ElasticEvent {
            at_iteration: 2,
            perturbation: applied,
        }];
        let opts = ReplanOptions::default();
        let never = run_elastic(
            &cluster,
            &graph,
            &seqs,
            2,
            40,
            &events,
            ElasticPolicy::Never,
            &opts,
            None,
        );
        assert_eq!(never.decision_trace(), vec!["stay"]);
        assert_eq!(never.migration_bytes_total, 0.0);

        let always = run_elastic(
            &cluster,
            &graph,
            &seqs,
            2,
            40,
            &events,
            ElasticPolicy::Always,
            &opts,
            None,
        );
        assert_eq!(always.decision_trace(), vec!["replan"]);
        assert_eq!(always.outcomes.len(), 1);
        assert_eq!(always.outcomes[0].decision, MigrationDecision::FullReplan);

        let elastic = run_elastic(
            &cluster,
            &graph,
            &seqs,
            2,
            40,
            &events,
            ElasticPolicy::Elastic,
            &opts,
            None,
        );
        assert_eq!(elastic.outcomes.len(), 1);
        // The timeline charged exactly what the decision said.
        assert_eq!(
            elastic.decision_trace(),
            vec![elastic.outcomes[0].decision.tag()]
        );
        assert_eq!(
            elastic.migration_bytes_total,
            elastic.outcomes[0].migration_bytes
        );
        // The elastic policy is never worse than blindly adopting: it
        // considered "always"'s candidate and chose the argmin.
        let chosen = elastic.outcomes[0].chosen().total_seconds;
        let adopt = always.outcomes[0].candidates[0].total_seconds;
        let elastic_horizon = elastic.outcomes[0]
            .candidates
            .iter()
            .find(|c| c.decision == MigrationDecision::FullReplan)
            .map(|c| c.total_seconds)
            .unwrap_or(f64::INFINITY);
        assert!(chosen <= elastic_horizon);
        assert!(adopt.is_finite());
    }

    #[test]
    fn warm_cache_does_not_change_the_decision() {
        let (cluster, graph, seqs) = fixture();
        let applied = AppliedPerturbation::draw(&PerturbationModel::harsh(), 9, 4);
        let cold = replan(
            &cluster,
            &graph,
            &seqs,
            &applied,
            2,
            &ReplanOptions::default(),
            None,
        );
        let warm = PlannerWarmCache::new();
        let first = replan(
            &cluster,
            &graph,
            &seqs,
            &applied,
            2,
            &ReplanOptions::default(),
            Some(&warm),
        );
        let second = replan(
            &cluster,
            &graph,
            &seqs,
            &applied,
            2,
            &ReplanOptions::default(),
            Some(&warm),
        );
        assert_eq!(cold.decision, first.decision);
        assert_eq!(first.decision, second.decision);
        assert_eq!(first.new_seqs, second.new_seqs);
        assert_eq!(first.migration_bytes, second.migration_bytes);
        assert!(warm.stats().hits > 0, "second run must hit the warm cache");
    }
}
