//! Robustness study on the Fig. 9 workload: how the OPT-175B MLP-block plans
//! (Megatron vs PrimePar, 8 GPUs) hold up under the seeded mild and harsh
//! fault & variance models — and where the ideal-hardware ranking flips.
//!
//! `cargo run --release -p primepar-bench --bin figures -- robustness`

use crate::*;
use primepar::sim::{robustness_metrics, robustness_sweep, RobustnessOptions};
use primepar::topology::PerturbationModel;

pub fn run(opts: &Opts) {
    let model = ModelConfig::opt_175b();
    let cluster = Cluster::v100_like(8);
    let graph = model.mlp_block_graph(8, 2048);
    let mega = megatron_layer_plan(&graph, 1, 8);
    let prime = primepar_plan(&cluster, &graph, model.layers);
    let mut metrics = Metrics::new();

    println!("Robustness — OPT 175B MLP block on 8 GPUs, Megatron vs PrimePar\n");
    println!(
        "{:<8} {:<10} {:>10} {:>10} {:>10} {:>10} {:>14}",
        "profile", "system", "ideal ms", "median ms", "p95 ms", "max ms", "mean slowdown"
    );
    let mut harsh_prime_report = None;
    for (profile, perturb) in [
        ("mild", PerturbationModel::mild()),
        ("harsh", PerturbationModel::harsh()),
    ] {
        let sweep = RobustnessOptions {
            model: perturb,
            scenarios: 32,
            base_seed: 42,
            ..RobustnessOptions::default()
        };
        let mut p95 = [0.0f64; 2];
        for (i, (system, plan)) in [("Megatron", &mega), ("PrimePar", &prime)]
            .into_iter()
            .enumerate()
        {
            let r = robustness_sweep(&cluster, &graph, plan, &sweep);
            println!(
                "{profile:<8} {system:<10} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>13.2}x",
                r.ideal_makespan * 1e3,
                r.median_makespan * 1e3,
                r.p95_makespan * 1e3,
                r.max_makespan * 1e3,
                r.mean_slowdown
            );
            let key = format!("{profile}.{}", slug(system));
            metrics.gauge(&format!("{key}.ideal_makespan_s"), r.ideal_makespan);
            metrics.gauge(&format!("{key}.median_makespan_s"), r.median_makespan);
            metrics.gauge(&format!("{key}.p95_makespan_s"), r.p95_makespan);
            metrics.gauge(&format!("{key}.max_makespan_s"), r.max_makespan);
            metrics.gauge(&format!("{key}.mean_slowdown"), r.mean_slowdown);
            p95[i] = r.p95_makespan;
            if profile == "harsh" && system == "PrimePar" {
                harsh_prime_report = Some(r);
            }
        }
        let flipped = p95[1] > p95[0];
        metrics.text(
            &format!("{profile}.ranking_flipped"),
            if flipped { "yes" } else { "no" },
        );
        println!(
            "{profile:<8} p95 ranking: {}",
            if flipped {
                "Megatron < PrimePar (ideal ranking flipped)"
            } else {
                "PrimePar < Megatron (ideal ranking holds)"
            }
        );
    }
    println!(
        "\nthe temporal plan wins on ideal hardware but loses the p95 tail: a Cannon ring\n\
         re-pays the group's worst link on every temporal step, while an all-reduce pays\n\
         the degraded member once per phase on bytes/g chunks (DESIGN.md §9).\n"
    );

    // Full per-scenario detail (sim.robustness.*) for the harsh PrimePar sweep.
    metrics.merge(&robustness_metrics(
        &harsh_prime_report.expect("harsh PrimePar sweep ran"),
    ));
    opts.write_metrics("robustness", &metrics);
}
