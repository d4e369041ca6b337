//! `primepar` — command-line front end for the PrimePar reproduction.
//!
//! ```text
//! primepar models
//! primepar plan    --model opt-175b --devices 8 [--system primepar|alpa|megatron]
//!                  [--batch 8] [--seq 2048] [--alpha 0] [--no-batch-split] [--gantt]
//!                  [--strategy exact|beam:8|anytime:500ms]   # bounded-search modes

//!                  [--set op=SEQ]...   # override strategies, e.g. --set fc2=N.P2x2
//!                  [--save plan.txt] [--plan plan.txt]   # persist / reuse plans
//!                  [--metrics-json out.json]   # planner + sim telemetry as JSON
//!                  [--chrome-trace out.json]   # Fig. 9 timeline for chrome://tracing
//! primepar compare --model llama2-70b --devices 16 [--batch 8] [--seq 2048]
//!                  [--perturb-scenarios 8] [--perturb-seed 42] [--perturb-profile mild]
//!                  [--metrics-json out.json] [--chrome-trace out.json]
//! primepar verify  [--k 1] [--iters 8]
//! primepar sweep   --model bloom-176b [--devices 2,4,8,16]
//!                  [--perturb-scenarios 8] [--perturb-seed 42] [--perturb-profile mild]
//!                  [--metrics-json out.json] [--chrome-trace out.json]
//! primepar robustness --model opt-175b --devices 8 [--mlp-block] [--batch 8] [--seq 2048]
//!                  [--perturb-scenarios 16] [--perturb-seed 42] [--perturb-profile mild]
//!                  [--metrics-json out.json] [--report-json robustness.json]
//! primepar audit   --model opt-175b --devices 8 [--mlp-block] [--batch 8] [--seq 2048]
//!                  [--system primepar|alpa|megatron] [--alpha 0] [--metrics-json out.json]
//! primepar replan  --model opt-6.7b --devices 8 [--batch 8] [--seq 2048] [--layers L]
//!                  [--perturb-profile ideal|mild|harsh] [--perturb-seed 42]
//!                  [--lambda 1.0] [--horizon 1000] [--metrics-json out.json]
//! primepar serve   [--workers 2] [--plan-dir DIR] [--socket PATH] [--cache-file PATH]
//!                  [--event-log PATH] [--trace-out PATH] [--stats-out PATH]
//!                  [--slow-ms 250] [--logical-clock]
//! primepar validate [--dir results]...   # strict re-parse of emitted artifacts
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use primepar::api::{serve_lines, ServeOptions};
use primepar::audit::{audit_layer, audit_metrics, render_audit};
use primepar::exec::{train_distributed, train_serial};
use primepar::graph::ModelConfig;
use primepar::partition::{PartitionSeq, Primitive};
use primepar::search::PlannerMetrics;
use primepar::search::{
    best_megatron, explain_plan, parse_plan, render_plan, Planner, PlannerOptions, SearchStrategy,
    SpaceOptions,
};
use primepar::service::read_artifact;
use primepar::sim::ModelReport;
use primepar::sim::{
    render_gantt, robustness_json, robustness_metrics, robustness_sweep, simulate_layer,
    simulate_model, RobustnessOptions,
};
use primepar::tensor::Tensor;
use primepar::topology::{Cluster, PerturbationModel};
use primepar::Error;
use primepar::{
    compare_metrics, compare_systems, plan_summary, run_metrics, validate_artifacts, RunInfo,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The token after `name`, if the flag is present. A flag given as the
    /// last token has no value, which is a config error naming it.
    fn value(&self, name: &str) -> Result<Option<&str>, Error> {
        Ok(self.values(name)?.into_iter().next())
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, Error> {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Error::config(format!("invalid value for {name}: {v}"))),
        }
    }

    /// All values of a repeatable flag.
    fn values(&self, name: &str) -> Result<Vec<&str>, Error> {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, a)| *a == name)
            .map(|(i, _)| {
                self.0
                    .get(i + 1)
                    .map(String::as_str)
                    .ok_or_else(|| Error::config(format!("{name} needs a value")))
            })
            .collect()
    }
}

/// The CLI's cluster model, with the topology contract checked up front so
/// bad device counts answer [`Error::Topology`] instead of panicking.
fn cluster_for(devices: usize) -> Result<Cluster, Error> {
    if devices == 0 || !devices.is_power_of_two() {
        return Err(Error::topology(format!(
            "devices must be a power of two, got {devices}"
        )));
    }
    Ok(Cluster::v100_like(devices))
}

fn usage() -> &'static str {
    "usage: primepar <command> [options]\n\
     \n\
     commands:\n\
     \x20 models                       list the model zoo\n\
     \x20 plan    --model M --devices N   search and explain a partition plan\n\
     \x20         [--system primepar|alpa|megatron] [--batch B] [--seq S]\n\
     \x20         [--alpha A] [--no-batch-split] [--gantt]\n\
     \x20         [--strategy exact|beam:WIDTH|anytime:BUDGETms]\n\
     \x20         exact (default) runs the full segment DP; beam:8 keeps the 8\n\
     \x20         best-looking states per operator; anytime:500ms widens the\n\
     \x20         beam until the budget runs out, reporting optimality gap\n\
     \x20         [--metrics-json PATH] [--chrome-trace PATH]\n\
     \x20 compare --model M --devices N   Megatron vs Alpa vs PrimePar\n\
     \x20         [--perturb-scenarios N] [--perturb-seed S] [--perturb-profile ideal|mild|harsh]\n\
     \x20         [--metrics-json PATH] [--chrome-trace PATH]\n\
     \x20 verify  [--k 1|2] [--iters N]   functional equivalence check of P_{2^k x 2^k}\n\
     \x20 sweep   --model M [--devices 2,4,8,16]  scaling study\n\
     \x20         [--perturb-scenarios N] [--perturb-seed S] [--perturb-profile ideal|mild|harsh]\n\
     \x20         [--metrics-json PATH] [--chrome-trace PATH]\n\
     \x20 robustness --model M --devices N   plan ranking under seeded fault & variance sweeps\n\
     \x20         [--mlp-block] [--batch B] [--seq S] [--perturb-scenarios 16]\n\
     \x20         [--perturb-seed 42] [--perturb-profile ideal|mild|harsh]\n\
     \x20         [--metrics-json PATH] [--report-json PATH]\n\
     \x20 audit   --model M --devices N   cost-model drift report (predicted vs simulated)\n\
     \x20         [--mlp-block] [--system primepar|alpa|megatron] [--alpha A]\n\
     \x20         [--batch B] [--seq S] [--metrics-json PATH]\n\
     \x20 replan  --model M --devices N   costed migration decision for a running plan\n\
     \x20         under a seeded fault/variance scenario: stay, ring-buddy patch,\n\
     \x20         or full re-plan, argmin of migration + horizon x iteration time\n\
     \x20         [--batch B] [--seq S] [--layers L] [--perturb-profile ideal|mild|harsh]\n\
     \x20         [--perturb-seed S] [--lambda F] [--horizon N] [--metrics-json PATH]\n\
     \x20 serve   [--workers N] [--plan-dir DIR] [--socket PATH] [--cache-file PATH]\n\
     \x20         [--event-log PATH] [--trace-out PATH] [--stats-out PATH]\n\
     \x20         [--slow-ms N] [--logical-clock]\n\
     \x20         long-lived planner service: line-delimited JSON requests on\n\
     \x20         stdin (or a Unix socket), out-of-order responses tagged with\n\
     \x20         request_id on stdout; --cache-file persists the warm cache\n\
     \x20         across restarts as a primepar.cache.v1 artifact;\n\
     \x20         --event-log appends primepar.events.v1 JSONL, --trace-out\n\
     \x20         writes a per-session Chrome trace (one lane per worker),\n\
     \x20         --stats-out dumps a primepar.stats.v1 snapshot on shutdown,\n\
     \x20         --slow-ms logs a stage breakdown for slow requests, and\n\
     \x20         --logical-clock makes the event log deterministic\n\
     \x20 validate [--dir DIR]...         strict re-parse of *.metrics.json /\n\
     \x20         *.trace.json / *.report.json / *.cache.json /\n\
     \x20         *.events.jsonl / *.stats.json; every document must carry its\n\
     \x20         schema_version tag, and files over 16 MiB are rejected\n\
     \n\
     exit codes: 0 ok, 2 config, 3 topology, 4 protocol, 5 cancelled, 6 internal\n"
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}\n\n{}", usage());
            ExitCode::from(err.exit_code())
        }
    }
}

fn run() -> Result<(), Error> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        return Err(Error::config("missing command"));
    };
    let args = Args(argv);
    match command.as_str() {
        "models" => {
            println!(
                "{:<12} {:>7} {:>8} {:>7} {:>9} {:>10}",
                "model", "layers", "hidden", "heads", "ffn", "params"
            );
            for m in ModelConfig::all() {
                println!(
                    "{:<12} {:>7} {:>8} {:>7} {:>9} {:>9.1}B",
                    m.name,
                    m.layers,
                    m.hidden,
                    m.heads,
                    m.ffn,
                    m.param_count() / 1e9
                );
            }
            Ok(())
        }
        "plan" => {
            let model = required_model(&args)?;
            let devices: usize = args.parse("--devices", 4)?;
            let batch: u64 = args.parse("--batch", 8)?;
            let seq: u64 = args.parse("--seq", 2048)?;
            let alpha: f64 = args.parse("--alpha", 0.0)?;
            let system = args.value("--system")?.unwrap_or("primepar").to_lowercase();
            let strategy = match args.value("--strategy")? {
                None => SearchStrategy::default(),
                Some(text) => text
                    .parse::<SearchStrategy>()
                    .map_err(|e| Error::config(format!("--strategy: {e}")))?,
            };
            let cluster = cluster_for(devices)?;
            let graph = model.layer_graph(batch, seq);
            if let Some(path) = args.value("--plan")? {
                // Load a saved plan instead of searching.
                let text = read_artifact(Path::new(path))?;
                let seqs = parse_plan(&graph, &text).map_err(|e| Error::protocol(e.to_string()))?;
                println!("{} on {devices} GPUs — plan from {path}\n", model.name);
                println!("{}", explain_plan(&cluster, &graph, &seqs));
                let report =
                    simulate_model(&cluster, &graph, &seqs, model.layers, (batch * seq) as f64);
                println!(
                    "simulated: {:.0} tokens/s, {:.1} GB peak per device",
                    report.tokens_per_second,
                    report.peak_memory_bytes / 1e9
                );
                let run = RunInfo {
                    model: model.name,
                    system: "saved-plan",
                    devices,
                    batch,
                    seq,
                };
                write_observability(&args, &run, None, &report)?;
                return Ok(());
            }
            let mut planner_tm = None;
            let (seqs, label) = match system.as_str() {
                "megatron" => {
                    let (plan, (d, m), _) = best_megatron(&cluster, &graph, alpha);
                    (plan, format!("Megatron (d={d}, m={m})"))
                }
                "alpa" => {
                    let p = primepar::search::alpa_plan(&cluster, &graph, model.layers, alpha);
                    (p.seqs, format!("Alpa ({:?} search)", p.search_time))
                }
                "primepar" => {
                    let opts = PlannerOptions::default()
                        .with_space(SpaceOptions {
                            allow_batch_split: !args.flag("--no-batch-split"),
                            ..SpaceOptions::default()
                        })
                        .with_alpha(alpha)
                        .with_threads(args.parse("--threads", 0)?)
                        .with_strategy(strategy);
                    let (p, tm) =
                        Planner::new(&cluster, &graph, opts).optimize_instrumented(model.layers);
                    let label = if strategy == SearchStrategy::Exact {
                        format!("PrimePar ({:?} search)", p.search_time)
                    } else {
                        format!(
                            "PrimePar ({strategy}, {:?} search, optimality gap ≤ {:.1}%)",
                            p.search_time,
                            tm.optimality_gap * 100.0
                        )
                    };
                    planner_tm = Some(tm);
                    (p.seqs, label)
                }
                other => return Err(Error::config(format!("unknown system: {other}"))),
            };
            let mut seqs = seqs;
            // Manual strategy overrides: --set fc2=N.P2x2 ('.' separates tokens).
            for spec in args.values("--set")? {
                let (op_name, text) = spec
                    .split_once('=')
                    .ok_or_else(|| Error::config(format!("--set expects op=SEQ, got {spec}")))?;
                let idx = graph
                    .ops
                    .iter()
                    .position(|op| op.name == op_name)
                    .ok_or_else(|| {
                        Error::config(format!("unknown operator in --set: {op_name}"))
                    })?;
                let parsed: PartitionSeq = text
                    .replace('.', " ")
                    .parse()
                    .map_err(|e| Error::config(format!("--set {op_name}: {e}")))?;
                if parsed.num_devices() != devices {
                    return Err(Error::config(format!(
                        "--set {op_name}: sequence spans {} devices, cluster has {devices}",
                        parsed.num_devices()
                    )));
                }
                seqs[idx] = parsed;
            }
            println!("{} on {devices} GPUs — {label}\n", model.name);
            println!("{}", explain_plan(&cluster, &graph, &seqs));
            let report =
                simulate_model(&cluster, &graph, &seqs, model.layers, (batch * seq) as f64);
            println!(
                "simulated: {:.0} tokens/s, {:.1} GB peak per device",
                report.tokens_per_second,
                report.peak_memory_bytes / 1e9
            );
            if let Some(path) = args.value("--save")? {
                std::fs::write(path, render_plan(&graph, &seqs))
                    .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
                println!("plan saved to {path}");
            }
            if args.flag("--gantt") {
                let layer = simulate_layer(&cluster, &graph, &seqs);
                println!("\n{}", render_gantt(&layer.timeline, 100));
            }
            let run = RunInfo {
                model: model.name,
                system: &system,
                devices,
                batch,
                seq,
            };
            write_observability(&args, &run, planner_tm.as_ref(), &report)?;
            Ok(())
        }
        "compare" => {
            let model = required_model(&args)?;
            let devices: usize = args.parse("--devices", 4)?;
            let batch: u64 = args.parse("--batch", 8)?;
            let seq: u64 = args.parse("--seq", 2048)?;
            println!(
                "{} on {devices} GPUs (batch {batch}, seq {seq})\n",
                model.name
            );
            let rows = compare_systems(&model, devices, batch, seq);
            let base = rows[0].tokens_per_second;
            println!(
                "{:<10} {:>14} {:>9} {:>11} {:>12}",
                "system", "tokens/s", "speedup", "peak mem", "search"
            );
            for r in &rows {
                println!(
                    "{:<10} {:>14.0} {:>8.2}x {:>9.1}GB {:>12.1?}",
                    r.system,
                    r.tokens_per_second,
                    r.tokens_per_second / base,
                    r.peak_memory_bytes / 1e9,
                    r.search_time
                );
            }
            let prime = rows.last().expect("three rows");
            println!(
                "\nPrimePar strategy:\n{}",
                plan_summary(&model, batch, seq, &prime.plan)
            );
            // Optional robustness re-ranking under seeded fault & variance
            // scenarios (--perturb-scenarios enables it).
            let (profile, opts) = robustness_options(&args, 0)?;
            let mut robust = primepar::obs::Metrics::new();
            if opts.scenarios > 0 {
                let cluster = cluster_for(devices)?;
                let graph = model.layer_graph(batch, seq);
                println!(
                    "\nrobustness under the {profile} variance model \
                     ({} scenarios, seed {}):",
                    opts.scenarios, opts.base_seed
                );
                println!(
                    "{:<10} {:>11} {:>11} {:>14}",
                    "system", "ideal ms", "p95 ms", "mean slowdown"
                );
                robust.text("sim.robustness.profile", profile);
                for r in &rows {
                    let s = robustness_sweep(&cluster, &graph, &r.plan, &opts);
                    println!(
                        "{:<10} {:>11.2} {:>11.2} {:>13.2}x",
                        r.system,
                        s.ideal_makespan * 1e3,
                        s.p95_makespan * 1e3,
                        s.mean_slowdown
                    );
                    let key = r.system.to_lowercase();
                    robust.gauge(
                        &format!("sim.robustness.compare.{key}.ideal_makespan_s"),
                        s.ideal_makespan,
                    );
                    robust.gauge(
                        &format!("sim.robustness.compare.{key}.p95_makespan_s"),
                        s.p95_makespan,
                    );
                    robust.gauge(
                        &format!("sim.robustness.compare.{key}.mean_slowdown"),
                        s.mean_slowdown,
                    );
                }
            }
            let run = RunInfo {
                model: model.name,
                system: "compare",
                devices,
                batch,
                seq,
            };
            if let Some(path) = args.value("--metrics-json")? {
                let mut metrics = compare_metrics(&run, &rows);
                metrics.merge(&robust);
                primepar::write_metrics_json(path, &metrics)
                    .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
                println!("metrics written to {path}");
            }
            if let Some(path) = args.value("--chrome-trace")? {
                let cluster = cluster_for(devices)?;
                let graph = model.layer_graph(batch, seq);
                let layer = simulate_layer(&cluster, &graph, &prime.plan);
                primepar::write_layer_chrome_trace(path, &layer)
                    .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
                println!("chrome trace written to {path}");
            }
            Ok(())
        }
        "verify" => {
            let k: u32 = args.parse("--k", 1)?;
            let iters: usize = args.parse("--iters", 8)?;
            if !(1..=2).contains(&k) {
                return Err(Error::config("--k must be 1 or 2"));
            }
            let devices = 1usize << (2 * k);
            println!(
                "verifying P_{{{s}x{s}}} on {devices} simulated devices over {iters} SGD iterations…",
                s = 1usize << k
            );
            let mut rng = StdRng::seed_from_u64(42);
            let width = 16usize.max(1 << (k + 2));
            let input = Tensor::randn(vec![4, 8, width], 1.0, &mut rng);
            let target = Tensor::randn(vec![4, 8, width], 1.0, &mut rng);
            let w1 = Tensor::randn(vec![width, width], 0.4, &mut rng);
            let w2 = Tensor::randn(vec![width, width], 0.4, &mut rng);
            let serial = train_serial(&input, &target, &w1, &w2, 0.05, iters)
                .map_err(|e| Error::internal(e.to_string()))?;
            let seq = PartitionSeq::new(vec![Primitive::Temporal { k }])
                .map_err(|e| Error::internal(e.to_string()))?;
            let dist = train_distributed(&input, &target, &w1, &w2, 0.05, iters, seq.clone(), seq)
                .map_err(|e| Error::internal(e.to_string()))?;
            for (i, (a, b)) in serial.losses.iter().zip(&dist.losses).enumerate() {
                println!(
                    "  iter {i:>2}: serial loss {a:.6}, distributed {b:.6}, |diff| {:.2e}",
                    (a - b).abs()
                );
            }
            let diff = serial
                .w1
                .max_abs_diff(&dist.w1)
                .max(serial.w2.max_abs_diff(&dist.w2));
            println!("final weight max |diff|: {diff:.2e}");
            if diff < 1e-3 {
                println!("OK: spatial-temporal training is numerically identical to serial.");
                Ok(())
            } else {
                Err(Error::internal(format!(
                    "verification failed: weight divergence {diff}"
                )))
            }
        }
        "sweep" => {
            let model = required_model(&args)?;
            let list = args.value("--devices")?.unwrap_or("2,4,8,16");
            let batch: u64 = args.parse("--batch", 8)?;
            let seq: u64 = args.parse("--seq", 2048)?;
            let (profile, opts) = robustness_options(&args, 0)?;
            println!("{} scaling sweep\n", model.name);
            if opts.scenarios > 0 {
                println!(
                    "(robustness columns: {profile} variance model, \
                     {} scenarios, seed {})\n",
                    opts.scenarios, opts.base_seed
                );
                println!(
                    "{:>8} {:>14} {:>14} {:>9} {:>13} {:>13} {:>12}",
                    "devices",
                    "megatron t/s",
                    "primepar t/s",
                    "speedup",
                    "mega p95 ms",
                    "prime p95 ms",
                    "p95 speedup"
                );
            } else {
                println!(
                    "{:>8} {:>14} {:>14} {:>9}",
                    "devices", "megatron t/s", "primepar t/s", "speedup"
                );
            }
            let mut metrics = primepar::obs::Metrics::new();
            metrics.text("run.model", model.name);
            metrics.text("run.system", "sweep");
            metrics.gauge("run.batch", batch as f64);
            metrics.gauge("run.seq", seq as f64);
            let mut last_prime_layer = None;
            for tok in list.split(',') {
                let devices: usize = tok
                    .trim()
                    .parse()
                    .map_err(|_| Error::config(format!("bad device count: {tok}")))?;
                let cluster = cluster_for(devices)?;
                let graph = model.layer_graph(batch, seq);
                let (mega_plan, _, _) = best_megatron(&cluster, &graph, 0.0);
                let mega = simulate_model(
                    &cluster,
                    &graph,
                    &mega_plan,
                    model.layers,
                    (batch * seq) as f64,
                );
                let plan = Planner::new(&cluster, &graph, PlannerOptions::default())
                    .optimize(model.layers);
                let prime = simulate_model(
                    &cluster,
                    &graph,
                    &plan.seqs,
                    model.layers,
                    (batch * seq) as f64,
                );
                let p = format!("sweep.{devices:02}");
                if opts.scenarios > 0 {
                    let mega_s = robustness_sweep(&cluster, &graph, &mega_plan, &opts);
                    let prime_s = robustness_sweep(&cluster, &graph, &plan.seqs, &opts);
                    println!(
                        "{devices:>8} {:>14.0} {:>14.0} {:>8.2}x {:>13.2} {:>13.2} {:>11.2}x",
                        mega.tokens_per_second,
                        prime.tokens_per_second,
                        prime.tokens_per_second / mega.tokens_per_second,
                        mega_s.p95_makespan * 1e3,
                        prime_s.p95_makespan * 1e3,
                        mega_s.p95_makespan / prime_s.p95_makespan
                    );
                    metrics.gauge(&format!("{p}.megatron_p95_makespan_s"), mega_s.p95_makespan);
                    metrics.gauge(
                        &format!("{p}.primepar_p95_makespan_s"),
                        prime_s.p95_makespan,
                    );
                    metrics.gauge(
                        &format!("{p}.p95_speedup"),
                        mega_s.p95_makespan / prime_s.p95_makespan,
                    );
                } else {
                    println!(
                        "{devices:>8} {:>14.0} {:>14.0} {:>8.2}x",
                        mega.tokens_per_second,
                        prime.tokens_per_second,
                        prime.tokens_per_second / mega.tokens_per_second
                    );
                }
                metrics.gauge(
                    &format!("{p}.megatron_tokens_per_second"),
                    mega.tokens_per_second,
                );
                metrics.gauge(
                    &format!("{p}.primepar_tokens_per_second"),
                    prime.tokens_per_second,
                );
                metrics.gauge(
                    &format!("{p}.speedup"),
                    prime.tokens_per_second / mega.tokens_per_second,
                );
                last_prime_layer = Some(prime.layer);
            }
            if let Some(path) = args.value("--metrics-json")? {
                primepar::write_metrics_json(path, &metrics)
                    .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
                println!("metrics written to {path}");
            }
            if let Some(path) = args.value("--chrome-trace")? {
                let layer =
                    last_prime_layer.ok_or_else(|| Error::config("empty --devices list"))?;
                primepar::write_layer_chrome_trace(path, &layer)
                    .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
                println!("chrome trace written to {path}");
            }
            Ok(())
        }
        "audit" => {
            let model = required_model(&args)?;
            let devices: usize = args.parse("--devices", 4)?;
            let batch: u64 = args.parse("--batch", 8)?;
            let seq: u64 = args.parse("--seq", 2048)?;
            let alpha: f64 = args.parse("--alpha", 0.0)?;
            let system = args.value("--system")?.unwrap_or("primepar").to_lowercase();
            let cluster = cluster_for(devices)?;
            let graph = if args.flag("--mlp-block") {
                model.mlp_block_graph(batch, seq)
            } else {
                model.layer_graph(batch, seq)
            };
            let seqs = match system.as_str() {
                "megatron" => best_megatron(&cluster, &graph, alpha).0,
                "alpa" => primepar::search::alpa_plan(&cluster, &graph, 1, alpha).seqs,
                "primepar" => {
                    let opts = PlannerOptions::default().with_alpha(alpha);
                    Planner::new(&cluster, &graph, opts).optimize(1).seqs
                }
                other => return Err(Error::config(format!("unknown system: {other}"))),
            };
            let block = if args.flag("--mlp-block") {
                "MLP block"
            } else {
                "layer"
            };
            println!("{} {block} on {devices} GPUs — {system} plan\n", model.name);
            let audit = audit_layer(&cluster, &graph, &seqs, alpha);
            print!("{}", render_audit(&audit));
            if let Some(path) = args.value("--metrics-json")? {
                let mut m = primepar::obs::Metrics::new();
                m.text("run.model", model.name);
                m.text("run.system", &system);
                m.gauge("run.devices", devices as f64);
                m.gauge("run.batch", batch as f64);
                m.gauge("run.seq", seq as f64);
                m.merge(&audit_metrics(&audit));
                m.merge(&primepar::sim::accounting_metrics(&audit.sim.accounting));
                primepar::write_metrics_json(path, &m)
                    .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
                println!("metrics written to {path}");
            }
            Ok(())
        }
        "robustness" => {
            let model = required_model(&args)?;
            let devices: usize = args.parse("--devices", 8)?;
            let batch: u64 = args.parse("--batch", 8)?;
            let seq: u64 = args.parse("--seq", 2048)?;
            let (profile, opts) = robustness_options(&args, 16)?;
            if opts.scenarios == 0 {
                return Err(Error::config("--perturb-scenarios must be > 0"));
            }
            let cluster = cluster_for(devices)?;
            let (graph, block) = if args.flag("--mlp-block") {
                (model.mlp_block_graph(batch, seq), "MLP block")
            } else {
                (model.layer_graph(batch, seq), "layer")
            };
            println!(
                "{} {block} on {devices} GPUs — {profile} variance model, \
                 {} scenarios (seed {})\n",
                model.name, opts.scenarios, opts.base_seed
            );
            let (mega_plan, (d, m), _) = best_megatron(&cluster, &graph, 0.0);
            let prime_plan = Planner::new(&cluster, &graph, PlannerOptions::default())
                .optimize(model.layers)
                .seqs;
            let mega = robustness_sweep(&cluster, &graph, &mega_plan, &opts);
            let prime = robustness_sweep(&cluster, &graph, &prime_plan, &opts);
            println!(
                "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10} {:>14}",
                "system", "ideal ms", "min ms", "median ms", "p95 ms", "max ms", "mean slowdown"
            );
            for (name, s) in [
                (format!("Megatron (d={d}, m={m})"), &mega),
                ("PrimePar".to_string(), &prime),
            ] {
                println!(
                    "{name:<22} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>13.2}x",
                    s.ideal_makespan * 1e3,
                    s.min_makespan * 1e3,
                    s.median_makespan * 1e3,
                    s.p95_makespan * 1e3,
                    s.max_makespan * 1e3,
                    s.mean_slowdown
                );
            }
            let ideal_prime_wins = prime.ideal_makespan < mega.ideal_makespan;
            let perturbed_prime_wins = prime.p95_makespan < mega.p95_makespan;
            println!(
                "\nideal ranking:      {}  ({:.2}x)",
                if ideal_prime_wins {
                    "PrimePar < Megatron"
                } else {
                    "Megatron <= PrimePar"
                },
                mega.ideal_makespan / prime.ideal_makespan
            );
            println!(
                "perturbed (p95):    {}  ({:.2}x)",
                if perturbed_prime_wins {
                    "PrimePar < Megatron"
                } else {
                    "Megatron <= PrimePar"
                },
                mega.p95_makespan / prime.p95_makespan
            );
            let flipped = ideal_prime_wins != perturbed_prime_wins;
            if flipped {
                println!(
                    "note: the variance sweep flips the ideal ranking — temporal rings \
                     serialize\nthrough the group's worst link every step, while collectives \
                     pay it once per\nphase (DESIGN.md §9)."
                );
            }
            if let Some(path) = args.value("--metrics-json")? {
                let mut metrics = primepar::obs::Metrics::new();
                metrics.text("run.model", model.name);
                metrics.text("run.system", "robustness");
                metrics.gauge("run.devices", devices as f64);
                metrics.gauge("run.batch", batch as f64);
                metrics.gauge("run.seq", seq as f64);
                metrics.text("sim.robustness.profile", profile);
                metrics.text(
                    "sim.robustness.ranking_flipped",
                    if flipped { "yes" } else { "no" },
                );
                for (key, s) in [("megatron", &mega), ("primepar", &prime)] {
                    metrics.gauge(
                        &format!("sim.robustness.compare.{key}.ideal_makespan_s"),
                        s.ideal_makespan,
                    );
                    metrics.gauge(
                        &format!("sim.robustness.compare.{key}.p95_makespan_s"),
                        s.p95_makespan,
                    );
                    metrics.gauge(
                        &format!("sim.robustness.compare.{key}.mean_slowdown"),
                        s.mean_slowdown,
                    );
                }
                metrics.merge(&robustness_metrics(&prime));
                primepar::write_metrics_json(path, &metrics)
                    .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
                println!("metrics written to {path}");
            }
            if let Some(path) = args.value("--report-json")? {
                std::fs::write(path, robustness_json(&prime).render())
                    .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
                println!("robustness report written to {path}");
            }
            Ok(())
        }
        "replan" => {
            let model = required_model(&args)?;
            let devices: usize = args.parse("--devices", 8)?;
            let batch: u64 = args.parse("--batch", 8)?;
            let seq: u64 = args.parse("--seq", 2048)?;
            let layers: u64 = args.parse("--layers", 0)?;
            let (profile, _) = perturb_profile(&args)?;
            let perturb_seed: u64 = args.parse("--perturb-seed", 42)?;
            let lambda: f64 = args.parse("--lambda", 1.0)?;
            let horizon: u64 = args.parse("--horizon", 1000)?;
            let request = primepar::api::ReplanRequest::of(
                primepar::api::PlanRequest::builder(model.name)
                    .devices(devices)
                    .batch(batch)
                    .seq(seq)
                    .layers((layers > 0).then_some(layers))
                    .build(),
            )
            .with_scenario(profile, perturb_seed)
            .with_lambda(lambda)
            .with_horizon(horizon);
            let resp = request.run()?;
            println!(
                "{} on {devices} GPUs — {profile} scenario (seed {perturb_seed}, λ {lambda}), \
                 horizon {horizon} iteration(s)\n",
                model.name
            );
            println!(
                "{:<8} {:>8} {:>13} {:>12} {:>11} {:>11}",
                "action", "feasible", "migration GB", "migration s", "iter s", "total s"
            );
            for c in &resp.outcome.candidates {
                println!(
                    "{:<8} {:>8} {:>13.3} {:>12.6} {:>11.6} {:>11.6}",
                    c.decision.tag(),
                    if c.feasible { "yes" } else { "no" },
                    c.migration_bytes / 1e9,
                    c.migration_seconds,
                    c.iteration_seconds,
                    c.total_seconds
                );
            }
            println!(
                "\ndecision: {} ({:.3} GB moved in {:.6}s; plan {})",
                resp.decision.tag(),
                resp.outcome.migration_bytes / 1e9,
                resp.outcome.migration_seconds,
                resp.fingerprint
            );
            if let Some(path) = args.value("--metrics-json")? {
                let mut m = primepar::obs::Metrics::new();
                m.text("run.model", model.name);
                m.text("run.system", "replan");
                m.gauge("run.devices", devices as f64);
                m.gauge("run.batch", batch as f64);
                m.gauge("run.seq", seq as f64);
                m.text("replan.profile", profile);
                m.gauge("replan.seed", perturb_seed as f64);
                m.gauge("replan.lambda", lambda);
                m.gauge("replan.horizon_iterations", horizon as f64);
                m.text("replan.decision", resp.decision.tag());
                m.gauge("replan.migration_bytes", resp.outcome.migration_bytes);
                m.gauge("replan.migration_seconds", resp.outcome.migration_seconds);
                for c in &resp.outcome.candidates {
                    let key = format!("replan.candidate.{}", c.decision.tag());
                    m.gauge(&format!("{key}.migration_bytes"), c.migration_bytes);
                    m.gauge(&format!("{key}.migration_seconds"), c.migration_seconds);
                    m.gauge(&format!("{key}.iteration_seconds"), c.iteration_seconds);
                    m.gauge(&format!("{key}.total_seconds"), c.total_seconds);
                    m.text(
                        &format!("{key}.feasible"),
                        if c.feasible { "yes" } else { "no" },
                    );
                }
                primepar::write_metrics_json(path, &m)
                    .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
                println!("metrics written to {path}");
            }
            Ok(())
        }
        "validate" => {
            let dirs = args.values("--dir")?;
            let dirs: Vec<&str> = if dirs.is_empty() {
                vec!["results"]
            } else {
                dirs
            };
            for dir in dirs {
                let summary = validate_artifacts(dir)?;
                println!(
                    "{dir}: {} metrics document(s), {} trace(s), {} report(s), \
                     {} cache dump(s), {} event log(s), {} stats snapshot(s) \
                     parsed cleanly",
                    summary.metrics_files,
                    summary.trace_files,
                    summary.report_files,
                    summary.cache_files,
                    summary.events_files,
                    summary.stats_files
                );
            }
            Ok(())
        }
        "serve" => {
            let workers: usize = args.parse("--workers", 2)?;
            let plan_dir = args.value("--plan-dir")?.map(PathBuf::from);
            if let Some(dir) = &plan_dir {
                std::fs::create_dir_all(dir).map_err(|e| {
                    Error::internal(format!("cannot create {}: {e}", dir.display()))
                })?;
            }
            let cache_file = args.value("--cache-file")?.map(PathBuf::from);
            let slow_ms = match args.value("--slow-ms")? {
                None => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| Error::config(format!("invalid value for --slow-ms: {v}")))?,
                ),
            };
            let opts = ServeOptions {
                workers,
                plan_dir,
                cache_file,
                event_log: args.value("--event-log")?.map(PathBuf::from),
                trace_out: args.value("--trace-out")?.map(PathBuf::from),
                stats_out: args.value("--stats-out")?.map(PathBuf::from),
                slow_ms,
                logical_clock: args.flag("--logical-clock"),
            };
            if let Some(path) = args.value("--socket")? {
                #[cfg(unix)]
                {
                    eprintln!("primepar serve: listening on {path} ({workers} workers)");
                    let end = primepar::api::serve_unix_socket(std::path::Path::new(path), &opts)?;
                    eprintln!(
                        "primepar serve: {} request(s), {} error(s)",
                        end.requests, end.errors
                    );
                    return Ok(());
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    return Err(Error::config("--socket requires a unix platform"));
                }
            }
            // Out-of-order emission reads input on a sibling thread, which
            // needs a Send reader — Stdin itself, not the non-Send lock.
            let stdout = std::io::stdout();
            let reader = std::io::BufReader::new(std::io::stdin());
            let end = serve_lines(reader, &mut stdout.lock(), &opts)?;
            eprintln!(
                "primepar serve: {} request(s), {} error(s){}",
                end.requests,
                end.errors,
                if end.shutdown { ", shutdown" } else { "" }
            );
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(Error::config(format!("unknown command: {other}"))),
    }
}

/// Honors `--metrics-json` / `--chrome-trace`, writing the run's telemetry
/// registry and the Fig. 9 timeline as machine-readable artifacts.
fn write_observability(
    args: &Args,
    run: &RunInfo<'_>,
    planner: Option<&PlannerMetrics>,
    report: &ModelReport,
) -> Result<(), Error> {
    if let Some(path) = args.value("--metrics-json")? {
        let metrics = run_metrics(run, planner, Some(report));
        primepar::write_metrics_json(path, &metrics)
            .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
        println!("metrics written to {path}");
    }
    if let Some(path) = args.value("--chrome-trace")? {
        primepar::write_layer_chrome_trace(path, &report.layer)
            .map_err(|e| Error::internal(format!("cannot write {path}: {e}")))?;
        println!("chrome trace written to {path}");
    }
    Ok(())
}

/// The seeded variance sweep of `--perturb-scenarios` (default `scenarios`),
/// `--perturb-seed` (default 42) and `--perturb-profile`, with the profile's
/// name.
fn robustness_options(args: &Args, scenarios: usize) -> Result<(&str, RobustnessOptions), Error> {
    let (profile, model) = perturb_profile(args)?;
    let opts = RobustnessOptions {
        model,
        scenarios: args.parse("--perturb-scenarios", scenarios)?,
        base_seed: args.parse("--perturb-seed", 42)?,
        ..RobustnessOptions::default()
    };
    Ok((profile, opts))
}

/// Resolves `--perturb-profile` (default `mild`) to a named variance model.
fn perturb_profile(args: &Args) -> Result<(&str, PerturbationModel), Error> {
    match args.value("--perturb-profile")?.unwrap_or("mild") {
        "ideal" => Ok(("ideal", PerturbationModel::ideal())),
        "mild" => Ok(("mild", PerturbationModel::mild())),
        "harsh" => Ok(("harsh", PerturbationModel::harsh())),
        other => Err(Error::config(format!(
            "unknown perturbation profile: {other} (expected ideal|mild|harsh)"
        ))),
    }
}

fn required_model(args: &Args) -> Result<ModelConfig, Error> {
    let name = args
        .value("--model")?
        .ok_or_else(|| Error::config("missing --model"))?;
    ModelConfig::by_name(name).ok_or_else(|| {
        Error::config(format!(
            "unknown model: {name} (known: {})",
            ModelConfig::all().map(|m| m.name).join(", ")
        ))
    })
}
