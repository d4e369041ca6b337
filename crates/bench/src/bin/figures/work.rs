//! The work ledger: the planner's counted work on four contract runs — the
//! Table-2 point exact, the 512-device chain exact and under `beam:8`, and
//! one harsh replan (OPT-6.7B on 8 devices, seq 1024, on the cluster the
//! seed-42 harsh draw degrades). Per run it records the cache hits and
//! misses, the intra, edge and term-row evaluations, the states beamed and
//! pruned, the Bellman and merge relaxations and visits, the arena bytes,
//! the edge planes and the segment shapes.
//!
//! Every counter is thread-count invariant, so each run plans twice, on 0
//! and on 4 threads, and the study exits 1 if any counter differs. The
//! counters are deterministic, so `results/work.metrics.json` pins them
//! byte for byte: a change that moves counted work re-blesses the file.
//!
//! `cargo run --release -p primepar-bench --bin figures -- work`

use crate::*;
use primepar::search::{PlannerMetrics, SearchStrategy};
use primepar::topology::{AppliedPerturbation, PerturbationModel};

/// The thread-invariant counters of one planner run, keyed under `run`.
fn counters(run: &str, tm: &PlannerMetrics) -> Metrics {
    let mut m = Metrics::new();
    let bellman: u64 = tm.segments.iter().map(|s| s.bellman_relaxations).sum();
    let visited: u64 = tm.segments.iter().map(|s| s.bellman_visited).sum();
    for (name, value) in [
        ("unique_signatures", tm.unique_signatures as u64),
        ("profile_cache_hits", tm.profile_cache_hits),
        ("profile_cache_misses", tm.profile_cache_misses),
        ("edge_matrix_cache_hits", tm.edge_matrix_cache_hits),
        ("edge_matrix_cache_misses", tm.edge_matrix_cache_misses),
        ("edge_matrix_aliases", tm.edge_matrix_aliases),
        ("intra_evaluations", tm.intra_evaluations),
        ("edge_evaluations", tm.edge_evaluations),
        ("edge_terms", tm.edge_terms),
        ("edge_term_rows", tm.edge_term_row_entries),
        ("states_beamed", tm.states_beamed),
        ("states_pruned", tm.states_pruned),
        ("bellman_relaxations", bellman),
        ("bellman_visited", visited),
        ("merge_relaxations", tm.merge_relaxations),
        ("merge_visited", tm.merge_visited),
        ("arena_bytes", tm.arena_bytes),
        ("edge_planes", tm.edge_planes as u64),
    ] {
        m.incr(&format!("{run}.{name}"), value);
    }
    for (i, s) in tm.segments.iter().enumerate() {
        let key = format!("{run}.segment.{i}");
        m.text(
            &format!("{key}.span"),
            &format!("{}..{}", s.span.0, s.span.1),
        );
        m.incr(&format!("{key}.rows"), s.rows as u64);
        m.incr(&format!("{key}.cols"), s.cols as u64);
    }
    m
}

pub fn run(opts: &Opts) {
    let t2 = (
        Cluster::v100_like(16),
        ModelConfig::opt_6_7b().layer_graph(8, 2048),
    );
    let chain = (
        Cluster::v100_like(512),
        primepar_bench::planner_scale_graph(512, 97),
    );
    let harsh = AppliedPerturbation::draw(&PerturbationModel::harsh(), 42, 8);
    let replan = (
        Cluster::v100_like(8).with_perturbation(harsh),
        ModelConfig::opt_6_7b().layer_graph(8, 1024),
    );
    let beam8 = SearchStrategy::Beam { width: 8 };
    let runs = [
        ("t2.exact", &t2, 32, SearchStrategy::Exact),
        ("chain512.exact", &chain, 1, SearchStrategy::Exact),
        ("chain512.beam8", &chain, 1, beam8),
        ("replan_harsh.exact", &replan, 32, SearchStrategy::Exact),
    ];

    println!("Work ledger — counted planner work per contract run (threads 0 and 4)\n");
    println!(
        "{:<20} {:>12} {:>12} {:>14} {:>14} {:>12}",
        "run", "intra evals", "edge evals", "term rows", "bellman", "arena bytes"
    );
    let mut metrics = Metrics::new();
    let mut diverged = Vec::new();
    for (name, (cluster, graph), layers, strategy) in runs {
        let plan = |threads| {
            let opts = PlannerOptions::default()
                .with_strategy(strategy)
                .with_threads(threads);
            Planner::new(cluster, graph, opts)
                .optimize_instrumented(layers)
                .1
        };
        let (serial, threaded) = (plan(0), plan(4));
        let ledger = counters(name, &serial);
        if ledger != counters(name, &threaded) {
            diverged.push(name);
        }
        let bellman: u64 = serial.segments.iter().map(|s| s.bellman_relaxations).sum();
        println!(
            "{name:<20} {:>12} {:>12} {:>14} {:>14} {:>12}",
            serial.intra_evaluations,
            serial.edge_evaluations,
            serial.edge_term_row_entries,
            bellman,
            serial.arena_bytes
        );
        metrics.merge(&ledger);
    }
    if !diverged.is_empty() {
        eprintln!(
            "error: counted work differs between 0 and 4 threads: {}",
            diverged.join(", ")
        );
        std::process::exit(1);
    }
    opts.write_metrics("work", &metrics);
}
