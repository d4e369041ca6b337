//! Regenerates paper Table 2: wall-clock optimization time of the segmented
//! dynamic-programming search for the OPT, Llama2 and BLOOM model structures
//! at parallelism sizes 4, 8, 16 and 32 (single-threaded).
//!
//! `cargo run --release -p primepar-bench --bin figures -- table2_opt_time`

use crate::*;

pub fn run(opts: &Opts) {
    let scales = opts.scales(&[4, 8, 16, 32]);
    let (batch, seq) = (8u64, 2048u64);
    println!("Table 2 — optimization time (ms) per model structure and parallelism size\n");
    print!("{:<10}", "model");
    for s in &scales {
        print!("{s:>12}");
    }
    println!();
    let mut metrics = Metrics::new();
    for model in [
        ModelConfig::opt_175b(),
        ModelConfig::llama2_70b(),
        ModelConfig::bloom_176b(),
    ] {
        print!("{:<10}", model.name.split(' ').next().expect("name"));
        for &devices in &scales {
            let cluster = Cluster::v100_like(devices);
            let graph = model.layer_graph(batch, seq);
            let (plan, tm) = Planner::new(&cluster, &graph, PlannerOptions::default())
                .optimize_instrumented(model.layers);
            let key = format!("{}.{devices}", slug(model.name));
            for (stat, value) in [
                ("search_seconds", plan.search_time.as_secs_f64()),
                ("intra_evaluations", tm.intra_evaluations as f64),
                ("edge_evaluations", tm.edge_evaluations as f64),
                (
                    "max_space_size",
                    tm.space_sizes.iter().copied().max().unwrap_or(0) as f64,
                ),
            ] {
                metrics.gauge(&format!("{key}.{stat}"), value);
            }
            print!("{:>12.1}", plan.search_time.as_secs_f64() * 1e3);
        }
        println!();
    }
    println!(
        "\npaper reference (ms): OPT 85/87/171/5357, Llama2 87/89/186/6070, Bloom 85/80/166/4153"
    );
    println!("(the shape to reproduce: flat up to 16 devices, a jump at 32 as P³ bites)");
    // Drift audit of the OPT-175B plan at the smallest scale: the timing
    // table is only meaningful if the plans it times still match the
    // simulated timeline.
    let model = ModelConfig::opt_175b();
    let devices = *scales.iter().min().expect("non-empty scales");
    let graph = model.layer_graph(batch, seq);
    audit_point(&mut metrics, devices, &graph, |c, g| {
        primepar_plan(c, g, model.layers)
    });
    opts.write_metrics("table2_opt_time", &metrics);
}
