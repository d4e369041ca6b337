//! Elastic re-planning study: the costed replan loop against both static
//! extremes on a pinned degradation timeline — does re-choosing the layout
//! pay once the inter-node fabric degrades?
//!
//! A two-node OPT-6.7B MLP-block job rides out congestion building on the
//! inter-node fabric — 8× at iteration 300, collapsing to 32× at iteration
//! 350 of 400. `never` keeps the stale layout and pays the inflated
//! iterations; `always` chases the mild event's optimum (a migration whose
//! gain never amortizes) and then pays the full layout switch over the
//! congested fabric again; the costed `elastic` decision stays through the
//! mild phase and migrates exactly once, when it pays.
//!
//! Everything in the artifact is simulated time from seeded inputs — two
//! runs produce byte-identical `results/replan.metrics.json` (the CI
//! elastic-smoke gate compares them with `cmp`).
//!
//! `cargo run --release -p primepar-bench --bin figures -- replan`

use crate::*;
use primepar::search::{run_elastic, ElasticEvent, ElasticPolicy, ReplanOptions};
use primepar::topology::AppliedPerturbation;

const DEVICES: usize = 8;
const LAYERS: u64 = 2;
const TOTAL_ITERATIONS: u64 = 400;

fn brownout(factor: f64) -> AppliedPerturbation {
    let mut p = AppliedPerturbation::ideal(DEVICES);
    p.inter_link_factor = factor;
    p
}

pub fn run(opts: &Opts) {
    let model = ModelConfig::opt_6_7b();
    let cluster = Cluster::v100_like(DEVICES);
    let graph = model.mlp_block_graph(8, 256);
    let seqs = primepar_plan(&cluster, &graph, LAYERS);
    let events = vec![
        ElasticEvent {
            at_iteration: 300,
            perturbation: brownout(8.0),
        },
        ElasticEvent {
            at_iteration: 350,
            perturbation: brownout(32.0),
        },
    ];
    let replan_opts = ReplanOptions::default();

    let mut metrics = Metrics::new();
    metrics.text("run.model", model.name);
    metrics.text("run.system", "replan-elastic");
    metrics.gauge("run.devices", DEVICES as f64);
    metrics.gauge("run.batch", 8.0);
    metrics.gauge("run.seq", 256.0);
    metrics.gauge("replan.total_iterations", TOTAL_ITERATIONS as f64);
    for (i, e) in events.iter().enumerate() {
        metrics.gauge(
            &format!("replan.event.{i}.at_iteration"),
            e.at_iteration as f64,
        );
        metrics.gauge(
            &format!("replan.event.{i}.inter_link_factor"),
            e.perturbation.inter_link_factor,
        );
    }

    println!(
        "Elastic re-planning — {} MLP block on {DEVICES} GPUs, inter-node brownout \
         8x@300 -> 32x@350 of {TOTAL_ITERATIONS} iterations\n",
        model.name
    );
    println!(
        "{:<8} {:>12} {:>14} {:>13} {:<20}",
        "policy", "makespan s", "migrated GB", "migration s", "decisions"
    );
    let mut makespans = [0.0f64; 3];
    for (i, policy) in [
        ElasticPolicy::Never,
        ElasticPolicy::Always,
        ElasticPolicy::Elastic,
    ]
    .into_iter()
    .enumerate()
    {
        let run = run_elastic(
            &cluster,
            &graph,
            &seqs,
            LAYERS,
            TOTAL_ITERATIONS,
            &events,
            policy,
            &replan_opts,
            None,
        );
        let trace = run.decision_trace().join(",");
        println!(
            "{:<8} {:>12.6} {:>14.3} {:>13.6} {:<20}",
            policy.tag(),
            run.makespan,
            run.migration_bytes_total / 1e9,
            run.migration_seconds_total,
            trace
        );
        let key = format!("replan.{}", policy.tag());
        metrics.gauge(&format!("{key}.makespan_s"), run.makespan);
        metrics.gauge(
            &format!("{key}.migration_bytes_total"),
            run.migration_bytes_total,
        );
        metrics.gauge(
            &format!("{key}.migration_seconds_total"),
            run.migration_seconds_total,
        );
        metrics.text(&format!("{key}.decisions"), &trace);
        makespans[i] = run.makespan;
    }
    let [never, always, elastic] = makespans;
    metrics.gauge("replan.elastic_vs_never_speedup", never / elastic);
    metrics.gauge("replan.elastic_vs_always_speedup", always / elastic);
    println!(
        "\nelastic vs never: {:.4}x    elastic vs always: {:.4}x",
        never / elastic,
        always / elastic
    );
    assert!(
        elastic < never && elastic < always,
        "the costed loop must strictly beat both static extremes \
         (elastic {elastic}, never {never}, always {always})"
    );

    opts.write_metrics("replan", &metrics);
}
