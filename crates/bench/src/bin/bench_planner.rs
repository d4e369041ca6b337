//! Planner wall-clock benchmarks, written to `results/bench_planner.json`.
//!
//! Two pinned points:
//!
//! * **Table 2** — planner wall-clock on the OPT-6.7B / 16-device point,
//!   single-threaded, with the cost-model evaluation and cache counters.
//! * **Scaling** — the ≥512-device synthetic chain
//!   ([`primepar_bench::planner_scale_graph`]): optimizer wall time, states
//!   dominance pruning removed, Bellman relaxations and peak RSS.
//!
//! Both sections also pin a **beam(8)** point: within 5% of the exact
//! optimum on the Table-2 grid, and faster than the exact sweep on the
//! scaling chain (`bench.beam.*` / `bench.scale.beam.*` gauges).
//!
//! `cargo run --release -p primepar-bench --bin bench_planner`
//!
//! Flags: `--table2-only` / `--scale-only` restrict the sections;
//! `--scale-smoke` runs a single exact scaling rep (no JSON snapshot);
//! `--plan-out PATH` writes the scaling plan for byte-identity checks.

use primepar::graph::ModelConfig;
use primepar::obs::Metrics;
use primepar::search::{
    parse_plan, render_plan, ModelPlan, Planner, PlannerMetrics, PlannerOptions, SearchStrategy,
};
use primepar::topology::Cluster;
use primepar_bench::{planner_scale_graph, results_dir};

/// Best-of-`reps` instrumented run (minimum search time damps scheduler
/// noise, matching how criterion treats its samples).
fn measure(
    cluster: &Cluster,
    graph: &primepar::graph::Graph,
    layers: u64,
    opts: PlannerOptions,
    reps: usize,
) -> (ModelPlan, PlannerMetrics) {
    let mut best: Option<(ModelPlan, PlannerMetrics)> = None;
    for _ in 0..reps {
        let run = Planner::new(cluster, graph, opts).optimize_instrumented(layers);
        if best
            .as_ref()
            .is_none_or(|(b, _)| run.0.search_time < b.search_time)
        {
            best = Some(run);
        }
    }
    best.expect("at least one rep")
}

/// Total Bellman relaxations of a run.
fn bellman_relaxations(tm: &PlannerMetrics) -> u64 {
    tm.segments.iter().map(|s| s.bellman_relaxations).sum()
}

/// Table-2 point: OPT-6.7B @ 16 devices.
fn bench_table2(m: &mut Metrics) {
    let model = ModelConfig::opt_6_7b();
    let devices = 16;
    let cluster = Cluster::v100_like(devices);
    // Table-2-scale unit of work: a 4-layer slab of the transformer stack
    // (the DP plans the slab, then layer doubling composes it to the full
    // depth). The slab is where structural memoization pays: every layer
    // repeats the same operator signatures and edge structures.
    let stack = 4usize;
    let graph = model.layer_graph(8, 2048).stack(stack);
    let layers = model.layers / stack as u64;
    let reps = 3;

    let (plan, tm) = measure(&cluster, &graph, layers, PlannerOptions::default(), reps);
    let exact_ms = plan.search_time.as_secs_f64() * 1e3;

    println!("planner — {} @ {devices} devices, 1 thread\n", model.name);
    println!("{:<26} {:>12.1}", "search time (ms)", exact_ms);
    println!("{:<26} {:>12}", "intra evaluations", tm.intra_evaluations);
    println!("{:<26} {:>12}", "edge evaluations", tm.edge_evaluations);
    println!(
        "\nunique signatures: {}   matrix cache: {} hits / {} misses   profile cache: {} hits / {} misses",
        tm.unique_signatures,
        tm.edge_matrix_cache_hits,
        tm.edge_matrix_cache_misses,
        tm.profile_cache_hits,
        tm.profile_cache_misses
    );

    m.text("bench.model", model.name);
    m.gauge("bench.devices", devices as f64);
    m.gauge("bench.reps", reps as f64);
    m.gauge("bench.exact_ms", exact_ms);
    for (key, value) in [
        ("intra_evaluations", tm.intra_evaluations),
        ("edge_evaluations", tm.edge_evaluations),
        ("unique_signatures", tm.unique_signatures as u64),
        ("space_cache_hits", tm.space_cache_hits),
        ("space_cache_misses", tm.space_cache_misses),
        ("profile_cache_hits", tm.profile_cache_hits),
        ("profile_cache_misses", tm.profile_cache_misses),
        ("edge_matrix_cache_hits", tm.edge_matrix_cache_hits),
        ("edge_matrix_cache_misses", tm.edge_matrix_cache_misses),
        ("states_pruned", tm.states_pruned),
    ] {
        m.gauge(&format!("bench.exact.{key}"), value as f64);
    }

    // Beam point: beam(8) must land within 5% of the exact optimum on this
    // grid — the heuristic keeps the DP's winners.
    let beam_opts = PlannerOptions::default().with_strategy(SearchStrategy::Beam { width: 8 });
    let (beam_plan, beam_tm) = measure(&cluster, &graph, layers, beam_opts, reps);
    let beam_ms = beam_plan.search_time.as_secs_f64() * 1e3;
    let cost_ratio = beam_plan.total_cost / plan.total_cost;
    assert!(
        cost_ratio >= 1.0,
        "beam beat the exact optimum: {cost_ratio}"
    );
    assert!(
        cost_ratio <= 1.05,
        "beam(8) drifted {:.2}% above the exact optimum (allowed 5%)",
        (cost_ratio - 1.0) * 100.0
    );
    println!(
        "beam(8):  {beam_ms:>10.1} ms   cost ratio vs exact: {cost_ratio:.4}   gap ≤ {:.2}%   states beamed: {}",
        beam_tm.optimality_gap * 100.0,
        beam_tm.states_beamed
    );
    m.gauge("bench.beam.width", 8.0);
    m.gauge("bench.beam.ms", beam_ms);
    m.gauge("bench.beam.cost_ratio", cost_ratio);
    m.gauge("bench.beam.optimality_gap", beam_tm.optimality_gap);
    m.gauge("bench.beam.states_beamed", beam_tm.states_beamed as f64);

    primepar_bench::merge_drift_summary(m, &cluster, &graph, &plan.seqs);
}

/// Minimum beam(8) speedup over the exact sweep on the scaling chain. The
/// exact sweep prunes dominated states (about 1.5x faster than an unpruned
/// sweep on this chain), so this is the former 10x-over-unpruned bound
/// restated against it.
const BEAM_SCALE_SPEEDUP: f64 = 6.0;

/// Scaling point: the synthetic ≥512-device chain.
fn bench_scale(m: &mut Metrics, smoke: bool, plan_out: Option<&str>) {
    let devices = 512;
    let nodes = 97;
    let cluster = Cluster::v100_like(devices);
    let graph = planner_scale_graph(devices, nodes);
    let reps = if smoke { 1 } else { 2 };

    let (plan, tm) = measure(&cluster, &graph, 1, PlannerOptions::default(), reps);
    let exact_ms = plan.search_time.as_secs_f64() * 1e3;
    let states = tm.space_sizes.iter().copied().max().unwrap_or(0);
    println!(
        "\nplanner scaling — {nodes}-op chain @ {devices} devices (largest space {states} states), 1 thread\n"
    );
    println!(
        "exact:    {exact_ms:>10.1} ms   states pruned: {}   relaxations: {}   peak rss: {:.1} MB",
        tm.states_pruned,
        bellman_relaxations(&tm),
        tm.peak_rss_bytes as f64 / 1e6
    );

    if let Some(path) = plan_out {
        let text = render_plan(&graph, &plan.seqs);
        match std::fs::write(path, &text) {
            Ok(()) => println!("plan written to {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
        // The plan artifact must round-trip: read the file back and
        // re-parse it into the exact sequences that were planned.
        let read_back = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read back {path}: {e}"));
        let reparsed = parse_plan(&graph, &read_back)
            .unwrap_or_else(|e| panic!("plan artifact does not re-parse: {e}"));
        assert_eq!(reparsed, plan.seqs, "plan artifact round-trip diverged");
        println!("plan round-trip validated ({path})");
    }
    if smoke {
        return;
    }

    // Beam point: beam(8) skips the full edge-matrix + Bellman work on the
    // big spaces while staying a valid (if bounded) plan.
    let beam_opts = PlannerOptions::default().with_strategy(SearchStrategy::Beam { width: 8 });
    let (beam_plan, beam_tm) = measure(&cluster, &graph, 1, beam_opts, reps);
    let beam_ms = beam_plan.search_time.as_secs_f64() * 1e3;
    let beam_speedup = exact_ms / beam_ms;
    assert!(
        beam_plan.total_cost >= plan.total_cost,
        "beam beat the exact optimum"
    );
    assert!(
        beam_speedup >= BEAM_SCALE_SPEEDUP,
        "beam(8) must be >={BEAM_SCALE_SPEEDUP}x faster than exact on the scaling chain, got {beam_speedup:.2}x ({beam_ms:.1} ms vs {exact_ms:.1} ms)"
    );
    println!(
        "beam(8):  {beam_ms:>10.1} ms   speedup vs exact: {beam_speedup:.2}x   gap ≤ {:.2}%   states beamed: {}",
        beam_tm.optimality_gap * 100.0,
        beam_tm.states_beamed
    );

    m.gauge("bench.scale.devices", devices as f64);
    m.gauge("bench.scale.nodes", nodes as f64);
    m.gauge("bench.scale.states_per_op", states as f64);
    m.gauge("bench.scale.reps", reps as f64);
    m.gauge("bench.scale.exact_ms", exact_ms);
    m.gauge("bench.scale.states_pruned", tm.states_pruned as f64);
    m.gauge(
        "bench.scale.bellman_relaxations",
        bellman_relaxations(&tm) as f64,
    );
    m.gauge("bench.scale.beam.width", 8.0);
    m.gauge("bench.scale.beam.ms", beam_ms);
    m.gauge("bench.scale.beam.speedup", beam_speedup);
    m.gauge("bench.scale.beam.optimality_gap", beam_tm.optimality_gap);
    m.gauge(
        "bench.scale.beam.states_beamed",
        beam_tm.states_beamed as f64,
    );
    m.gauge(
        "bench.scale.beam.cost_ratio",
        beam_plan.total_cost / plan.total_cost,
    );
    m.gauge(
        "bench.scale.peak_rss_bytes",
        primepar::obs::peak_rss_bytes() as f64,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let table2_only = args.iter().any(|a| a == "--table2-only");
    let scale_only = args.iter().any(|a| a == "--scale-only");
    let smoke = args.iter().any(|a| a == "--scale-smoke");
    let plan_out = args
        .iter()
        .position(|a| a == "--plan-out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut m = Metrics::new();
    if !scale_only && !smoke {
        bench_table2(&mut m);
    }
    if !table2_only {
        bench_scale(&mut m, smoke, plan_out.as_deref());
    }
    if smoke {
        return; // deterministic artifact only; no timing snapshot
    }
    m.gauge(
        "bench.peak_rss_bytes",
        primepar::obs::peak_rss_bytes() as f64,
    );
    let path = results_dir().join("bench_planner.json");
    match primepar::write_metrics_json(&path, &m) {
        Ok(()) => println!("\nsnapshot written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
