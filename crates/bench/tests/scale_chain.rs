//! Planner contracts on the two benchmark planner inputs: the 512-device
//! scaling chain ([`primepar_bench::planner_scale_graph`]) and the Table-2
//! slab (OPT-6.7B on 16 devices).
//!
//! * The exact plan of the chain is pinned: FNV-1a (64-bit) over the
//!   rendered plan text, then the `total_cost` bits little-endian — the same
//!   construction as the benchmark's `PIN_CHAIN512`.
//! * The plan text round-trips through `parse_plan`.
//! * beam(8) never beats the exact optimum, is much faster than the exact
//!   sweep on the chain, and stays within 5% of it on the Table-2 slab.
//! * The exact sweep's early-exit min-plus kernel relaxes under 15% of the
//!   chain's nominal Bellman candidates.
//! * On both inputs the planner's closed-form `arena_bytes` prediction
//!   equals the bytes its edge arena holds, and the chain's 96 edges read
//!   at most 4 distinct compacted planes. The chain's arena stays under
//!   2 MiB: the DP stores no backtrack choices, and a stored per-step
//!   choice plane would add megabytes.
//!
//! `cargo test --release -p primepar-bench --test scale_chain`

use primepar::graph::{Graph, ModelConfig};
use primepar::search::{
    parse_plan, render_plan, ModelPlan, Planner, PlannerMetrics, PlannerOptions, SearchStrategy,
};
use primepar::topology::Cluster;
use primepar_bench::planner_scale_graph;

/// Digest of the exact plan of `planner_scale_graph(512, 97)`.
const PIN_CHAIN512: &str = "d666d0256cea7fcb";

/// Ceiling on the exact chain plan's `arena_bytes`: its 4 compacted edge
/// planes hold 1,137,136 bytes; stored per-step Bellman choice planes
/// would add 17,942,400 more.
const CHAIN_ARENA_CEILING: u64 = 2 << 20;

/// Minimum beam(8) speedup over the exact sweep on the scaling chain. The
/// exact sweep prunes dominated states (about 1.5x faster than an unpruned
/// sweep on this chain), so this is the former 10x-over-unpruned bound
/// restated against it.
const BEAM_SCALE_SPEEDUP: f64 = 6.0;

fn beam8() -> PlannerOptions {
    PlannerOptions::default().with_strategy(SearchStrategy::Beam { width: 8 })
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn plan_digest(graph: &Graph, plan: &ModelPlan) -> String {
    let h = fnv1a(
        0xcbf2_9ce4_8422_2325,
        render_plan(graph, &plan.seqs).as_bytes(),
    );
    let h = fnv1a(h, &plan.total_cost.to_bits().to_le_bytes());
    format!("{h:016x}")
}

/// The arena prediction is exact: what the planner sized from the post-prune
/// spaces is what its edge arena held.
fn assert_arena_is_sized_before_allocation(metrics: &PlannerMetrics) {
    assert!(metrics.arena_bytes > 0);
    assert_eq!(
        metrics.arena_bytes, metrics.arena_bytes_allocated,
        "predicted arena bytes differ from the allocated ones"
    );
}

#[test]
fn exact_chain_plan_is_pinned_and_beam_is_faster_and_never_better() {
    let cluster = Cluster::v100_like(512);
    let graph = planner_scale_graph(512, 97);
    let (exact, metrics) =
        Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(1);
    assert_eq!(plan_digest(&graph, &exact), PIN_CHAIN512);

    let nominal: u64 = metrics.segments.iter().map(|s| s.bellman_relaxations).sum();
    let visited: u64 = metrics.segments.iter().map(|s| s.bellman_visited).sum();
    assert!(visited <= nominal, "visited {visited} > nominal {nominal}");
    assert!(
        visited * 100 < nominal * 15,
        "the bounded kernel relaxed {visited} of {nominal} candidates (>= 15%)"
    );

    assert_arena_is_sized_before_allocation(&metrics);
    assert!(
        metrics.arena_bytes < CHAIN_ARENA_CEILING,
        "the chain's edge arena holds {} bytes (>= {CHAIN_ARENA_CEILING})",
        metrics.arena_bytes
    );
    assert!(
        metrics.edge_planes <= 4,
        "the chain's edges read {} distinct planes",
        metrics.edge_planes
    );

    let text = render_plan(&graph, &exact.seqs);
    let reparsed = parse_plan(&graph, &text).expect("plan text re-parses");
    assert_eq!(reparsed, exact.seqs, "plan text round-trip diverged");

    // Best of three damps scheduler noise on the short beam sweep.
    let beam = (0..3)
        .map(|_| Planner::new(&cluster, &graph, beam8()).optimize(1))
        .min_by_key(|plan| plan.search_time)
        .expect("three runs");
    assert!(
        beam.total_cost >= exact.total_cost,
        "beam beat the exact optimum"
    );
    let speedup = exact.search_time.as_secs_f64() / beam.search_time.as_secs_f64();
    eprintln!(
        "scale_chain: beam(8)/exact speedup {speedup:.2}x (exact {:?}, beam(8) {:?})",
        exact.search_time, beam.search_time
    );
    assert!(
        speedup >= BEAM_SCALE_SPEEDUP,
        "beam(8) must be >={BEAM_SCALE_SPEEDUP}x faster than exact on the scaling chain, \
         got {speedup:.2}x ({:?} vs {:?})",
        beam.search_time,
        exact.search_time
    );
}

#[test]
fn beam_stays_within_five_percent_on_the_table2_slab() {
    let model = ModelConfig::opt_6_7b();
    let cluster = Cluster::v100_like(16);
    let stack = 4;
    let graph = model.layer_graph(8, 2048).stack(stack);
    let layers = model.layers / stack as u64;
    let (exact, metrics) =
        Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(layers);
    assert_arena_is_sized_before_allocation(&metrics);
    let beam = Planner::new(&cluster, &graph, beam8()).optimize(layers);
    let ratio = beam.total_cost / exact.total_cost;
    assert!(
        (1.0..=1.05).contains(&ratio),
        "beam(8) cost ratio vs exact {ratio} is outside [1, 1.05]"
    );
}
