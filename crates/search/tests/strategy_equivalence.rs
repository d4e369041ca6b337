//! ISSUE 9 acceptance: the strategy layer is pinned against the exact DP.
//!
//! * `beam(∞)` is *bitwise-identical* to the exact planner — same `seqs`,
//!   same `layer_cost`/`total_cost` bits — across the full `SpaceOptions`
//!   grid × threads {1, 4}, because a wide-enough beam never touches a
//!   space (`strategy.rs`'s no-op-at-full-width argument).
//! * Property battery: beam cost is monotone non-increasing in width and
//!   never below the exact cost (nested kept sets ⇒ the DP optimum over a
//!   superset is never worse).
//! * The anytime driver always returns a valid plan — even with a 0 ms
//!   budget or a pre-fired interrupt — and converges to the exact plan,
//!   bitwise, when left alone.

use std::sync::OnceLock;

use proptest::prelude::*;

use primepar_graph::ModelConfig;
use primepar_search::{
    ModelPlan, Planner, PlannerOptions, SearchInterrupt, SearchStrategy, SpaceOptions,
};
use primepar_topology::Cluster;

/// The ISSUE's option grid: temporal on/off × batch splits on/off ×
/// temporal depth.
fn space_grid() -> Vec<SpaceOptions> {
    let mut grid = Vec::new();
    for allow_temporal in [true, false] {
        for allow_batch_split in [true, false] {
            for max_temporal_k in [1, 2] {
                grid.push(SpaceOptions {
                    allow_temporal,
                    allow_batch_split,
                    max_temporal_k,
                });
            }
        }
    }
    grid
}

fn plan_with(
    cluster: &Cluster,
    graph: &primepar_graph::Graph,
    layers: u64,
    opts: PlannerOptions,
) -> ModelPlan {
    Planner::new(cluster, graph, opts).optimize(layers)
}

fn assert_bitwise_equal(a: &ModelPlan, b: &ModelPlan, what: &str) {
    assert_eq!(a.seqs, b.seqs, "plan diverged ({what})");
    assert_eq!(
        a.layer_cost.to_bits(),
        b.layer_cost.to_bits(),
        "layer cost diverged ({what}): {} vs {}",
        a.layer_cost,
        b.layer_cost
    );
    assert_eq!(
        a.total_cost.to_bits(),
        b.total_cost.to_bits(),
        "total cost diverged ({what}): {} vs {}",
        a.total_cost,
        b.total_cost
    );
}

#[test]
fn beam_at_full_width_is_bitwise_exact_across_the_grid() {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    for space in space_grid() {
        for threads in [1usize, 4] {
            let base = PlannerOptions::default()
                .with_space(space)
                .with_threads(threads);
            let exact = plan_with(&cluster, &graph, 4, base);
            let beamed = plan_with(
                &cluster,
                &graph,
                4,
                base.with_strategy(SearchStrategy::Beam { width: usize::MAX }),
            );
            assert_bitwise_equal(&exact, &beamed, &format!("{space:?}, threads {threads}"));
        }
    }
}

#[test]
fn full_width_beam_reports_exactness_and_touches_nothing() {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let (_, tm) = Planner::new(
        &cluster,
        &graph,
        PlannerOptions::default().with_strategy(SearchStrategy::Beam { width: usize::MAX }),
    )
    .optimize_instrumented(2);
    assert_eq!(tm.optimality_gap, 0.0, "covering beam must report gap 0");
    assert_eq!(tm.states_beamed, 0, "covering beam must drop nothing");
    assert_eq!(tm.strategy, format!("beam:{}", usize::MAX));
    // A genuinely narrow beam drops states and admits a (bounded) gap.
    let (_, narrow) = Planner::new(
        &cluster,
        &graph,
        PlannerOptions::default().with_strategy(SearchStrategy::Beam { width: 2 }),
    )
    .optimize_instrumented(2);
    assert!(narrow.states_beamed > 0, "width 2 must restrict this graph");
    assert!((0.0..=1.0).contains(&narrow.optimality_gap));
    assert_eq!(narrow.beam_width, 2);
}

#[test]
fn beam_is_thread_count_invariant() {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let base = PlannerOptions::default().with_strategy(SearchStrategy::Beam { width: 3 });
    let serial = plan_with(&cluster, &graph, 4, base);
    let threaded = plan_with(&cluster, &graph, 4, base.with_threads(4));
    assert_bitwise_equal(&serial, &threaded, "beam:3, threads 1 vs 4");
}

/// The exact optimum of the shared proptest workload, computed once.
fn exact_cost() -> f64 {
    static EXACT: OnceLock<f64> = OnceLock::new();
    *EXACT.get_or_init(|| {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        plan_with(&cluster, &graph, 2, PlannerOptions::default()).total_cost
    })
}

fn beam_cost(width: usize) -> f64 {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    plan_with(
        &cluster,
        &graph,
        2,
        PlannerOptions::default().with_strategy(SearchStrategy::Beam { width }),
    )
    .total_cost
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Widening the beam never makes the plan worse, and no beam ever beats
    /// the exact DP (it searches a subset of the exact state space).
    #[test]
    fn beam_cost_is_monotone_in_width_and_never_below_exact(
        widths in proptest::collection::vec(1usize..32, 2..4),
    ) {
        let mut widths = widths;
        widths.sort_unstable();
        let exact = exact_cost();
        let mut prev = f64::INFINITY;
        for &w in &widths {
            let cost = beam_cost(w);
            prop_assert!(
                cost <= prev,
                "cost must not increase with width (w={w}, {cost} > {prev})"
            );
            prop_assert!(
                cost >= exact,
                "beam beat the exact optimum (w={w}, {cost} < {exact})"
            );
            prev = cost;
        }
    }

    /// An anytime run under any budget returns a structurally valid plan
    /// whose cost is sandwiched between the exact optimum and the width-1
    /// beam, with a sane reported gap.
    #[test]
    fn anytime_always_returns_a_valid_bounded_plan(budget_ms in 0u64..32) {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let (plan, tm) = Planner::new(
            &cluster,
            &graph,
            PlannerOptions::default().with_strategy(SearchStrategy::Anytime { budget_ms }),
        )
        .optimize_instrumented(2);
        prop_assert_eq!(plan.seqs.len(), graph.ops.len());
        prop_assert!(plan.total_cost.is_finite());
        prop_assert!(plan.total_cost >= exact_cost());
        prop_assert!(plan.total_cost <= beam_cost(1));
        prop_assert!(tm.anytime_rounds >= 1, "at least one round always runs");
        prop_assert!((0.0..=1.0).contains(&tm.optimality_gap));
        if tm.anytime_converged {
            prop_assert_eq!(tm.optimality_gap, 0.0);
        }
    }
}

#[test]
fn anytime_with_a_generous_budget_converges_to_the_exact_plan() {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let (exact, exact_tm) =
        Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(2);
    let (plan, tm) = Planner::new(
        &cluster,
        &graph,
        PlannerOptions::default().with_strategy(SearchStrategy::Anytime { budget_ms: 60_000 }),
    )
    .optimize_instrumented(2);
    assert!(tm.anytime_converged, "60 s covers this 4-device graph");
    assert_eq!(tm.optimality_gap, 0.0);
    assert_bitwise_equal(&exact, &plan, "converged anytime vs exact");
    // Stage 1 runs once per call, however many rounds the driver completes.
    assert!(tm.anytime_rounds > 1, "width 1 cannot cover this graph");
    assert_eq!(tm.intra_evaluations, exact_tm.intra_evaluations);
}

#[test]
fn a_fired_interrupt_stops_the_anytime_driver_after_one_round() {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
    let interrupt = SearchInterrupt::new();
    interrupt.interrupt();
    let (plan, tm) = Planner::new(
        &cluster,
        &graph,
        PlannerOptions::default().with_strategy(SearchStrategy::Anytime { budget_ms: 60_000 }),
    )
    .with_interrupt(interrupt)
    .optimize_instrumented(2);
    assert_eq!(tm.anytime_rounds, 1, "interrupt must preempt the budget");
    assert!(!tm.anytime_converged);
    assert_eq!(plan.seqs.len(), graph.ops.len());
    assert!(plan.total_cost.is_finite());
}
