//! Regenerates paper Fig. 7: normalized training throughput of Megatron-LM,
//! Alpa and PrimePar for the six models at 4/8/16/32 GPUs (no pipeline).
//!
//! `cargo run --release -p primepar-bench --bin figures -- fig7_throughput`
//! (`--quick` for 4/8 GPUs only, `--devices 4,8` to customize).

use crate::*;
use primepar::{compare_systems, SystemReport};

/// Batch size and sequence length of Figs. 7 and 8.
const BATCH: u64 = 8;
const SEQ: u64 = 2048;

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice.
fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn run(opts: &Opts) {
    let scales = opts.scales(&[4, 8, 16, 32]);
    let (mut metrics, speedups_at_max) = normalized_sweep(
        "Fig. 7 — normalized training throughput (Megatron = 1.00)",
        ", no pipeline parallelism",
        &scales,
        ("tokens_per_second", |r| r.tokens_per_second),
        (format!("{:>12}", "megatron t/s"), |base| {
            format!("{base:>12.0}")
        }),
    );
    let max_scale = *scales.iter().max().expect("non-empty scales");
    let geo = geomean(&speedups_at_max);
    metrics.gauge(&format!("geomean_speedup_at_{max_scale}"), geo);
    println!("geo-mean PrimePar speedup over Megatron at {max_scale} GPUs: {geo:.2}x");
    println!("paper reference: 1.30x geo-mean at 32 GPUs; up to 1.68x on >100B models");
    // Drift audit of one representative point (OPT 6.7B at the smallest
    // scale): did the simulated timeline stay attributable to Eq. 7/8–9?
    audit_smallest(&mut metrics, &scales);
    opts.write_metrics("fig7_throughput", &metrics);
}

/// The sweep Figs. 7 and 8 share: one Megatron / Alpa / PrimePar comparison
/// per model and device scale, printed as one table per model with the
/// systems' `metric` normalized to Megatron's, after a Megatron column
/// `(header, cell)`. Records every system's `metric` as
/// `<model>.<devices>.<system>.<metric>` and returns the metrics and each
/// model's PrimePar ratio at the largest scale.
pub fn normalized_sweep(
    title: &str,
    subtitle: &str,
    scales: &[usize],
    (metric, value): (&str, fn(&SystemReport) -> f64),
    (base_header, base_cell): (String, fn(f64) -> String),
) -> (Metrics, Vec<f64>) {
    println!("{title}");
    println!("batch {BATCH}, sequence {SEQ}{subtitle}\n");
    let mut metrics = Metrics::new();
    metrics.gauge("run.batch", BATCH as f64);
    metrics.gauge("run.seq", SEQ as f64);
    let mut ratios_at_max: Vec<f64> = Vec::new();
    let max_scale = *scales.iter().max().expect("non-empty scales");
    for model in ModelConfig::all() {
        println!("── {} ──", model.name);
        println!(
            "{:>8} {base_header} {:>10} {:>10} {:>10}",
            "devices", "megatron", "alpa", "primepar"
        );
        for &devices in scales {
            let rows = compare_systems(&model, devices, BATCH, SEQ);
            let base = value(&rows[0]);
            for r in &rows {
                let key = format!("{}.{devices}.{}.{metric}", slug(model.name), slug(r.system));
                metrics.gauge(&key, value(r));
            }
            println!(
                "{devices:>8} {} {:>10.2} {:>10.2} {:>10.2}",
                base_cell(base),
                value(&rows[0]) / base,
                value(&rows[1]) / base,
                value(&rows[2]) / base,
            );
            if devices == max_scale {
                ratios_at_max.push(value(&rows[2]) / base);
            }
        }
        println!();
    }
    (metrics, ratios_at_max)
}

/// Folds the drift audit of OPT 6.7B's PrimePar plan at the smallest scale
/// into Fig. 7's or Fig. 8's metrics.
pub fn audit_smallest(metrics: &mut Metrics, scales: &[usize]) {
    let model = ModelConfig::opt_6_7b();
    let devices = *scales.iter().min().expect("non-empty scales");
    let graph = model.layer_graph(BATCH, SEQ);
    audit_point(metrics, devices, &graph, |c, g| {
        primepar_plan(c, g, model.layers)
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn geomean_of_constants() {
        assert!((super::geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((super::geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
