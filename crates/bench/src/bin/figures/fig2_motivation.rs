//! Regenerates paper Fig. 2 (motivation):
//! (a) the share of Megatron-LM training latency spent in all-reduce for
//!     OPT 6.7B, Llama2 70B and BLOOM 176B on 16 GPUs;
//! (b) the gap between Megatron-LM's per-GPU peak memory and the ideal
//!     replication-free occupancy for Llama2 70B on 4/8/16/32 GPUs.
//!
//! `cargo run --release -p primepar-bench --bin figures -- fig2_motivation`

use crate::*;
use primepar::sim::ideal_memory_bytes;

pub fn run(opts: &Opts) {
    let (batch, seq) = (8u64, 2048u64);
    let tokens = (batch * seq) as f64;
    let mut metrics = Metrics::new();
    metrics.gauge("run.batch", batch as f64);
    metrics.gauge("run.seq", seq as f64);

    println!("Fig. 2(a) — all-reduce share of Megatron-LM training latency on 16 GPUs\n");
    println!(
        "{:<12} {:>8} {:>16} {:>18}",
        "model", "(d,m)", "layer time (ms)", "all-reduce share"
    );
    for model in [
        ModelConfig::opt_6_7b(),
        ModelConfig::llama2_70b(),
        ModelConfig::bloom_176b(),
    ] {
        let cluster = Cluster::v100_like(16);
        let graph = model.layer_graph(batch, seq);
        let (plan, (d, m), _) = best_megatron(&cluster, &graph, 0.0);
        let report = simulate_model(&cluster, &graph, &plan, model.layers, tokens);
        metrics.gauge(
            &format!("fig2a.{}.layer_time_seconds", slug(model.name)),
            report.layer.layer_time,
        );
        metrics.gauge(
            &format!("fig2a.{}.collective_fraction", slug(model.name)),
            report.layer.breakdown.collective_fraction(),
        );
        println!(
            "{:<12} {:>8} {:>16.2} {:>17.1}%",
            model.name,
            format!("({d},{m})"),
            report.layer.layer_time * 1e3,
            100.0 * report.layer.breakdown.collective_fraction()
        );
    }
    println!("\npaper reference: a significant share of training latency is all-reduce\n");

    println!("Fig. 2(b) — Llama2 70B per-GPU peak memory: Megatron-LM vs ideal (no replication)\n");
    println!(
        "{:>8} {:>14} {:>12} {:>10}",
        "devices", "megatron GB", "ideal GB", "ratio"
    );
    let model = ModelConfig::llama2_70b();
    for devices in opts.scales(&[4, 8, 16, 32]) {
        let cluster = Cluster::v100_like(devices);
        let graph = model.layer_graph(batch, seq);
        let (plan, _, _) = best_megatron(&cluster, &graph, 0.0);
        let report = simulate_model(&cluster, &graph, &plan, model.layers, tokens);
        let ideal = ideal_memory_bytes(&graph, model.layers, devices);
        metrics.gauge(
            &format!("fig2b.{devices}.megatron_bytes"),
            report.peak_memory_bytes,
        );
        metrics.gauge(&format!("fig2b.{devices}.ideal_bytes"), ideal);
        println!(
            "{devices:>8} {:>14.1} {:>12.1} {:>9.2}x",
            report.peak_memory_bytes / 1e9,
            ideal / 1e9,
            report.peak_memory_bytes / ideal
        );
    }
    println!("\npaper reference: the replication-induced gap widens as parallelism grows");
    // Drift audit of the Fig. 2(a) OPT-6.7B Megatron point on 16 GPUs.
    let graph = ModelConfig::opt_6_7b().layer_graph(batch, seq);
    audit_point(&mut metrics, 16, &graph, |c, g| best_megatron(c, g, 0.0).0);
    opts.write_metrics("fig2_motivation", &metrics);
}
