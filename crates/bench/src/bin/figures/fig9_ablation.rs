//! Regenerates paper Fig. 9: latency breakdown of the OPT-175B MLP block for
//! batch sizes 8 and 16 scaling to 8 and 16 GPUs, Megatron-LM vs PrimePar,
//! plus the detailed partition strategies and kernel timeline of the 8-GPU
//! batch-8 configuration.
//!
//! `cargo run --release -p primepar-bench --bin figures -- fig9_ablation`

use crate::*;

/// Pretty-prints a plan as a one-line strategy string for an operator subset.
fn strategies(graph: &Graph, plan: &[PartitionSeq], names: &[&str]) -> String {
    graph
        .ops
        .iter()
        .zip(plan)
        .filter(|(op, _)| names.contains(&op.name.as_str()))
        .map(|(op, s)| format!("{}.P = [{s}]", op.name))
        .collect::<Vec<_>>()
        .join("  ")
}

pub fn run(opts: &Opts) {
    let model = ModelConfig::opt_175b();
    let seq = 2048u64;
    let mut metrics = Metrics::new();

    println!("Fig. 9 — OPT 175B MLP block latency breakdown, Megatron vs PrimePar\n");
    println!(
        "{:>6} {:>8} {:<10} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "batch",
        "devices",
        "system",
        "total ms",
        "compute ms",
        "collect. ms",
        "ring ms",
        "collective cut"
    );
    for batch in [8u64, 16] {
        for devices in [8usize, 16] {
            let cluster = Cluster::v100_like(devices);
            let graph = model.mlp_block_graph(batch, seq);
            let mega_plan = megatron_layer_plan(&graph, 1, devices);
            let mega = simulate_layer(&cluster, &graph, &mega_plan);
            let plan = primepar_plan(&cluster, &graph, model.layers);
            let prime = simulate_layer(&cluster, &graph, &plan);
            for (name, r) in [("Megatron", &mega), ("PrimePar", &prime)] {
                let key = format!("b{batch}.g{devices}.{}", slug(name));
                metrics.gauge(&format!("{key}.total_seconds"), r.breakdown.total());
                metrics.gauge(&format!("{key}.compute_seconds"), r.breakdown.compute);
                metrics.gauge(&format!("{key}.collective_seconds"), r.breakdown.collective);
                metrics.gauge(&format!("{key}.ring_total_seconds"), r.breakdown.ring_total);
                let cut = if name == "PrimePar" && mega.breakdown.collective > 0.0 {
                    format!(
                        "{:.1}%",
                        100.0 * r.breakdown.collective / mega.breakdown.collective
                    )
                } else {
                    "-".to_string()
                };
                println!(
                    "{batch:>6} {devices:>8} {name:<10} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>14}",
                    r.breakdown.total() * 1e3,
                    r.breakdown.compute * 1e3,
                    r.breakdown.collective * 1e3,
                    r.breakdown.ring_total * 1e3,
                    cut
                );
            }
        }
    }
    println!("\npaper reference: PrimePar consumes 19.9%-62.2% of Megatron's collective latency,");
    println!(
        "computation latency is roughly equal, and ring traffic fully overlaps with compute.\n"
    );

    // Detail panel: strategies and the kernel timeline at 8 GPUs, batch 8.
    let cluster = Cluster::v100_like(8);
    let graph = model.mlp_block_graph(8, seq);
    let mega_plan = megatron_layer_plan(&graph, 1, 8);
    let prime = primepar_plan(&cluster, &graph, model.layers);
    println!(
        "Megatron strategies: {}",
        strategies(&graph, &mega_plan, &["fc1", "act", "fc2"])
    );
    println!(
        "PrimePar strategies: {}",
        strategies(&graph, &prime, &["fc1", "act", "fc2"])
    );

    println!("\nPrimePar kernel timeline (one device, 8 GPUs, batch 8):");
    let report = simulate_layer(&cluster, &graph, &prime);
    println!("{}", primepar::sim::render_gantt(&report.timeline, 100));
    let trace_path = opts.out_dir.join("fig9_timeline.trace.json");
    match primepar::write_chrome_trace(&trace_path, &report) {
        Ok(()) => println!("chrome trace written to {}", trace_path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", trace_path.display()),
    }
    metrics.merge(&primepar::sim::layer_report_metrics(&report));
    merge_drift_summary(&mut metrics, &cluster, &graph, &prime, &report);
    opts.write_metrics("fig9_ablation", &metrics);
    for ev in report
        .timeline
        .iter()
        .filter(|e| e.duration > 1e-5 || e.kind != primepar::sim::EventKind::Ring)
    {
        println!(
            "  {:>9.3}ms +{:>8.3}ms  {:<14?} {:<9} {}",
            ev.start * 1e3,
            ev.duration * 1e3,
            ev.kind,
            ev.phase.to_string(),
            ev.op
        );
    }
}

#[cfg(test)]
mod tests {
    use primepar::graph::ModelConfig;

    #[test]
    fn strategies_filters_by_name() {
        let g = ModelConfig::opt_6_7b().layer_graph(8, 256);
        let plan = primepar::search::megatron_layer_plan(&g, 1, 2);
        let s = super::strategies(&g, &plan, &["fc1", "fc2"]);
        assert!(s.contains("fc1.P") && s.contains("fc2.P"));
        assert!(!s.contains("qkv"));
    }
}
