//! Regenerates paper Fig. 10: 3D-parallelism throughput of Megatron-LM and
//! PrimePar for all (p, d, m) configurations (p > 1) on 32 GPUs.
//!
//! `cargo run --release -p primepar-bench --bin figures -- fig10_3d`
//! (`--quick` restricts to the two 7B models).

use crate::*;
use primepar::sim::{simulate_3d, ThreeDConfig};

pub fn run(opts: &Opts) {
    let total_devices = 32usize;
    let (batch, seq) = (8u64, 2048u64);
    let models: Vec<ModelConfig> = if opts.quick {
        vec![ModelConfig::opt_6_7b(), ModelConfig::llama2_7b()]
    } else {
        ModelConfig::all().to_vec()
    };

    println!("Fig. 10 — 3D parallelism on {total_devices} GPUs, all (p, d, m) with p > 1\n");
    let mut metrics = Metrics::new();
    metrics.gauge("run.devices", total_devices as f64);
    for model in models {
        println!("── {} ──", model.name);
        println!(
            "{:>12} {:>14} {:>14} {:>9}",
            "(p, d, m)", "megatron t/s", "primepar t/s", "ratio"
        );
        let mut best_mega: Option<(f64, (usize, usize, usize))> = None;
        let mut best_prime: Option<(f64, (usize, usize, usize))> = None;
        // Powers of two up to `max`: every (p, d, m) with p·d·m = 32.
        let powers = |max: usize| (0..).map(|k| 1usize << k).take_while(move |&x| x <= max);
        for p in powers(total_devices / 2).skip(1) {
            if model.layers % p as u64 != 0 {
                continue;
            }
            for d in powers(total_devices / p) {
                let m = total_devices / (p * d);
                if m > model.heads as usize || d > batch as usize {
                    continue;
                }
                let micro = (batch as usize / d).clamp(1, 8);
                let cfg = ThreeDConfig {
                    p,
                    d,
                    m,
                    micro_batches: micro,
                };
                // Plan the m-wide stage for the per-replica micro-batch shape
                // the pipeline actually executes.
                let replica_micro = (batch as usize / (d * micro)).max(1) as u64;
                let graph = model.layer_graph(replica_micro, seq);
                let mega_plan = megatron_layer_plan(&graph, 1, m);
                let mega = simulate_3d(&model, &mega_plan, cfg, batch, seq);
                let cluster_m = Cluster::v100_like(m);
                let opts = PlannerOptions::default()
                    .with_space(SpaceOptions {
                        allow_batch_split: false,
                        ..SpaceOptions::default()
                    })
                    .with_alpha(0.0);
                let prime_plan = Planner::new(&cluster_m, &graph, opts).optimize(model.layers);
                let prime = simulate_3d(&model, &prime_plan.seqs, cfg, batch, seq);
                let key = format!("{}.p{p}d{d}m{m}", slug(model.name));
                metrics.gauge(
                    &format!("{key}.megatron_tokens_per_second"),
                    mega.tokens_per_second,
                );
                metrics.gauge(
                    &format!("{key}.primepar_tokens_per_second"),
                    prime.tokens_per_second,
                );
                println!(
                    "{:>12} {:>14.0} {:>14.0} {:>8.2}x",
                    format!("({p},{d},{m})"),
                    mega.tokens_per_second,
                    prime.tokens_per_second,
                    prime.tokens_per_second / mega.tokens_per_second
                );
                if best_mega
                    .as_ref()
                    .is_none_or(|(t, _)| mega.tokens_per_second > *t)
                {
                    best_mega = Some((mega.tokens_per_second, (p, d, m)));
                }
                if best_prime
                    .as_ref()
                    .is_none_or(|(t, _)| prime.tokens_per_second > *t)
                {
                    best_prime = Some((prime.tokens_per_second, (p, d, m)));
                }
            }
        }
        let (mt, mc) = best_mega.expect("at least one config");
        let (pt, pc) = best_prime.expect("at least one config");
        metrics.gauge(
            &format!("{}.best_megatron_tokens_per_second", slug(model.name)),
            mt,
        );
        metrics.gauge(
            &format!("{}.best_primepar_tokens_per_second", slug(model.name)),
            pt,
        );
        println!(
            "best: megatron {mt:.0} t/s at {mc:?}, primepar {pt:.0} t/s at {pc:?} ({:.2}x)\n",
            pt / mt
        );
    }
    println!("paper reference: (p=2,d=4,m=4) best around 7B; (p=2,d=1,m=16) best for >100B;");
    println!("PrimePar's best beats Megatron's best by up to 1.46x (OPT 175B).");
    // Drift audit of one representative stage (the m = 8 OPT-6.7B stage a
    // (p, d, 8) configuration pipelines): does the per-stage simulation the
    // 3D composition builds on still match the cost model?
    let graph = ModelConfig::opt_6_7b().layer_graph(1, seq);
    audit_point(&mut metrics, 8, &graph, |_, g| megatron_layer_plan(g, 1, 8));
    opts.write_metrics("fig10_3d", &metrics);
}
