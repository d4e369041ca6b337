//! `primepar` — command-line front end for the PrimePar reproduction.
//!
//! `primepar help` lists every subcommand and flag. Each subcommand resolves
//! its workload through [`PlanRequest::resolve`], and `plan` and `sweep`
//! plan PrimePar through [`PlanRequest::run`], so the CLI and the planner
//! service validate and answer a workload alike.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use primepar::api::{perturbation_profile, serve_lines, PlanRequest, ReplanRequest, ServeOptions};
use primepar::audit::{audit_layer, audit_metrics, render_audit};
use primepar::exec::{train_distributed, train_serial};
use primepar::graph::{Graph, ModelConfig};
use primepar::obs::Metrics;
use primepar::partition::{PartitionSeq, Primitive};
use primepar::search::{
    alpa_plan, best_megatron, parse_plan, render_plan, Planner, SearchStrategy,
};
use primepar::service::{read_artifact, ResolvedPlan};
use primepar::sim::{
    layer_report_metrics, render_gantt, robustness_json, robustness_metrics, robustness_sweep,
    simulate_layer, simulate_model, LayerReport, RobustnessOptions, RobustnessReport,
};
use primepar::tensor::Tensor;
use primepar::topology::Cluster;
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

fn usage() -> &'static str {
    "usage: primepar <command> [options]\n\
     \n\
     commands:\n\
     \x20 models                       list the model zoo\n\
     \x20 plan    --model M --devices N   search and explain a partition plan\n\
     \x20         [--system primepar|alpa|megatron] [--batch B] [--seq S]\n\
     \x20         [--alpha A] [--threads T] [--no-batch-split] [--gantt]\n\
     \x20         [--strategy exact|beam:WIDTH|anytime:BUDGETms]\n\
     \x20         exact (default) runs the full segment DP; beam:8 keeps the 8\n\
     \x20         best-looking states per operator; anytime:500ms widens the\n\
     \x20         beam until the budget runs out, reporting optimality gap\n\
     \x20         [--set OP=SEQ]...  override an operator's sequence, e.g. fc2=N.P2x2\n\
     \x20         [--plan PATH]  explain a saved plan instead of searching\n\
     \x20         [--save PATH]  write the plan as text\n\
     \x20         [--metrics-json PATH] [--chrome-trace PATH]\n\
     \x20 compare --model M --devices N   Megatron vs Alpa vs PrimePar\n\
     \x20         [--batch B] [--seq S]\n\
     \x20         [--perturb-scenarios N] [--perturb-seed S] [--perturb-profile ideal|mild|harsh]\n\
     \x20         [--metrics-json PATH] [--chrome-trace PATH]\n\
     \x20 verify  [--k 1|2] [--iters N]   functional equivalence check of P_{2^k x 2^k}\n\
     \x20 sweep   --model M [--devices 2,4,8,16]  scaling study\n\
     \x20         [--batch B] [--seq S]\n\
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
     \x20         [--slow-ms N | --logical-clock]\n\
     \x20         long-lived planner service: line-delimited JSON requests on\n\
     \x20         stdin (or a Unix socket), out-of-order responses tagged with\n\
     \x20         request_id on stdout; --cache-file persists the warm cache\n\
     \x20         across restarts as a primepar.cache.v1 artifact;\n\
     \x20         --event-log appends primepar.events.v1 JSONL, --trace-out\n\
     \x20         writes a per-session Chrome trace (one lane per worker),\n\
     \x20         --stats-out dumps a primepar.stats.v1 snapshot on shutdown,\n\
     \x20         --slow-ms logs a stage breakdown for slow requests, and\n\
     \x20         --logical-clock makes the event log deterministic; the\n\
     \x20         two exclude each other (slowness is a wall-clock verdict)\n\
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
            let mut request = workload(&args, 4)?;
            request.alpha = args.parse("--alpha", request.alpha)?;
            request.threads = args.parse("--threads", request.threads)?;
            request.allow_batch_split &= !args.flag("--no-batch-split");
            if let Some(text) = args.value("--strategy")? {
                request.strategy = text
                    .parse()
                    .map_err(|e| Error::config(format!("--strategy: {e}")))?;
            }
            let resolved = request.resolve()?;
            let (model, devices) = (resolved.model, resolved.devices);
            let cluster = Cluster::v100_like(devices);
            let graph = model.layer_graph(resolved.batch, resolved.seq);
            let alpha = resolved.opts.alpha;
            let mut planner = None;
            let (mut seqs, label, system) = if let Some(path) = args.value("--plan")? {
                let text = read_artifact(Path::new(path))?;
                let seqs = parse_plan(&graph, &text).map_err(|e| Error::protocol(e.to_string()))?;
                (seqs, format!("plan from {path}"), "saved-plan".to_string())
            } else {
                let system = args.value("--system")?.unwrap_or("primepar").to_lowercase();
                let (seqs, label) = match system.as_str() {
                    "megatron" => {
                        let (plan, (d, m), _) = best_megatron(&cluster, &graph, alpha);
                        (plan, format!("Megatron (d={d}, m={m})"))
                    }
                    "alpa" => {
                        let p = alpa_plan(&cluster, &graph, resolved.layers, alpha);
                        (p.seqs, format!("Alpa ({:?} search)", p.search_time))
                    }
                    "primepar" => {
                        let resp = request.run()?;
                        let (strategy, time) = (resp.strategy, resp.plan.search_time);
                        let label = if strategy == SearchStrategy::Exact {
                            format!("PrimePar ({time:?} search)")
                        } else {
                            format!(
                                "PrimePar ({strategy}, {time:?} search, optimality gap ≤ {:.1}%)",
                                resp.metrics.optimality_gap * 100.0
                            )
                        };
                        planner = Some(resp.metrics);
                        (resp.plan.seqs, label)
                    }
                    other => return Err(Error::config(format!("unknown system: {other}"))),
                };
                (seqs, label, system)
            };
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
            let tokens = (resolved.batch * resolved.seq) as f64;
            let report = simulate_model(&cluster, &graph, &seqs, resolved.layers, tokens);
            let audit = audit_layer(&cluster, &graph, &seqs, &report.layer);
            println!("{}", render_audit(&audit));
            println!(
                "simulated: {:.0} tokens/s, {:.1} GB peak per device",
                report.tokens_per_second,
                report.peak_memory_bytes / 1e9
            );
            if let Some(path) = args.value("--save")? {
                std::fs::write(path, render_plan(&graph, &seqs)).map_err(cannot_write(path))?;
                println!("plan saved to {path}");
            }
            if args.flag("--gantt") {
                println!("\n{}", render_gantt(&report.layer.timeline, 100));
            }
            let run = RunInfo::of(&resolved, &system);
            write_metrics(&args, || run_metrics(&run, planner.as_ref(), Some(&report)))?;
            write_trace(&args, || report.layer.clone())
        }
        "compare" => {
            let resolved = workload(&args, 4)?.resolve()?;
            let (model, devices) = (resolved.model, resolved.devices);
            let (batch, seq) = (resolved.batch, resolved.seq);
            let cluster = Cluster::v100_like(devices);
            let graph = model.layer_graph(batch, seq);
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
            let mut robust = Metrics::new();
            if opts.scenarios > 0 {
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
                    robustness_gauges(&mut robust, &r.system.to_lowercase(), &s);
                }
            }
            write_metrics(&args, || {
                let mut metrics = compare_metrics(&RunInfo::of(&resolved, "compare"), &rows);
                metrics.merge(&robust);
                metrics
            })?;
            write_trace(&args, || simulate_layer(&cluster, &graph, &prime.plan))
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
            let list = args.value("--devices")?.unwrap_or("2,4,8,16");
            let requests = list
                .split(',')
                .map(|tok| {
                    let devices = tok
                        .trim()
                        .parse()
                        .map_err(|_| Error::config(format!("bad device count: {tok}")))?;
                    let request = workload_on(&args, devices)?;
                    Ok((request.resolve()?, request))
                })
                .collect::<Result<Vec<_>, Error>>()?;
            let first = &requests[0].0;
            let (model, batch, seq) = (first.model, first.batch, first.seq);
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
            // No single device count, so no run_metrics header.
            let mut metrics = Metrics::new();
            metrics.text("run.model", model.name);
            metrics.text("run.system", "sweep");
            metrics.gauge("run.batch", batch as f64);
            metrics.gauge("run.seq", seq as f64);
            let mut last_prime_layer = None;
            for (resolved, request) in &requests {
                let devices = resolved.devices;
                let cluster = Cluster::v100_like(devices);
                let graph = model.layer_graph(batch, seq);
                let (layers, tokens) = (resolved.layers, (batch * seq) as f64);
                let (mega_plan, _, _) = best_megatron(&cluster, &graph, 0.0);
                let mega = simulate_model(&cluster, &graph, &mega_plan, layers, tokens);
                let plan = request.run()?.plan;
                let prime = simulate_model(&cluster, &graph, &plan.seqs, layers, tokens);
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
            write_metrics(&args, || metrics)?;
            write_trace(&args, || {
                last_prime_layer.expect("--devices names at least one count")
            })
        }
        "audit" => {
            let mut request = workload(&args, 4)?;
            request.alpha = args.parse("--alpha", request.alpha)?;
            let resolved = request.resolve()?;
            let system = args.value("--system")?.unwrap_or("primepar").to_lowercase();
            let cluster = Cluster::v100_like(resolved.devices);
            let (graph, block) = block_graph(&args, &resolved);
            let seqs = match system.as_str() {
                "megatron" => best_megatron(&cluster, &graph, resolved.opts.alpha).0,
                "alpa" => alpa_plan(&cluster, &graph, 1, resolved.opts.alpha).seqs,
                "primepar" => {
                    Planner::new(&cluster, &graph, resolved.opts)
                        .optimize(1)
                        .seqs
                }
                other => return Err(Error::config(format!("unknown system: {other}"))),
            };
            println!(
                "{} {block} on {} GPUs — {system} plan\n",
                resolved.model.name, resolved.devices
            );
            let report = simulate_layer(&cluster, &graph, &seqs);
            let audit = audit_layer(&cluster, &graph, &seqs, &report);
            print!("{}", render_audit(&audit));
            write_metrics(&args, || {
                let mut m = run_metrics(&RunInfo::of(&resolved, &system), None, None);
                m.merge(&audit_metrics(&audit));
                m.merge(&layer_report_metrics(&report));
                m
            })
        }
        "robustness" => {
            let resolved = workload(&args, 8)?.resolve()?;
            let (profile, opts) = robustness_options(&args, 16)?;
            if opts.scenarios == 0 {
                return Err(Error::config("--perturb-scenarios must be > 0"));
            }
            let cluster = Cluster::v100_like(resolved.devices);
            let (graph, block) = block_graph(&args, &resolved);
            println!(
                "{} {block} on {} GPUs — {profile} variance model, \
                 {} scenarios (seed {})\n",
                resolved.model.name, resolved.devices, opts.scenarios, opts.base_seed
            );
            let (mega_plan, (d, m), _) = best_megatron(&cluster, &graph, 0.0);
            let prime_plan = Planner::new(&cluster, &graph, resolved.opts)
                .optimize(resolved.layers)
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
            write_metrics(&args, || {
                let mut metrics = run_metrics(&RunInfo::of(&resolved, "robustness"), None, None);
                metrics.text("sim.robustness.profile", profile);
                metrics.text(
                    "sim.robustness.ranking_flipped",
                    if flipped { "yes" } else { "no" },
                );
                robustness_gauges(&mut metrics, "megatron", &mega);
                robustness_gauges(&mut metrics, "primepar", &prime);
                metrics.merge(&robustness_metrics(&prime));
                metrics
            })?;
            if let Some(path) = args.value("--report-json")? {
                std::fs::write(path, robustness_json(&prime).render())
                    .map_err(cannot_write(path))?;
                println!("robustness report written to {path}");
            }
            Ok(())
        }
        "replan" => {
            let mut request = workload(&args, 8)?;
            request.layers = Some(args.parse("--layers", 0)?).filter(|&l| l > 0);
            let resolved = request.resolve()?;
            let (profile, scenario) = robustness_options(&args, 0)?;
            let mut replan = ReplanRequest::of(request).with_scenario(profile, scenario.base_seed);
            replan.lambda = args.parse("--lambda", replan.lambda)?;
            replan.horizon = args.parse("--horizon", replan.horizon)?;
            let resp = replan.run()?;
            let (seed, lambda, horizon) = (replan.seed, replan.lambda, replan.horizon);
            println!(
                "{} on {} GPUs — {profile} scenario (seed {seed}, λ {lambda}), \
                 horizon {horizon} iteration(s)\n",
                resolved.model.name, resolved.devices
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
                resp.outcome.decision.tag(),
                resp.outcome.migration_bytes / 1e9,
                resp.outcome.migration_seconds,
                resp.fingerprint
            );
            write_metrics(&args, || {
                let mut m = run_metrics(&RunInfo::of(&resolved, "replan"), None, None);
                m.text("replan.profile", profile);
                m.gauge("replan.seed", seed as f64);
                m.gauge("replan.lambda", lambda);
                m.gauge("replan.horizon_iterations", horizon as f64);
                m.text("replan.decision", resp.outcome.decision.tag());
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
                m
            })
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

/// The workload of `--model`, `--batch` and `--seq` on `devices` GPUs, with
/// the service's defaults for every other field. Callers set the flags they
/// read, then [`resolve`](PlanRequest::resolve) it before any work.
fn workload_on(args: &Args, devices: usize) -> Result<PlanRequest, Error> {
    let model = args
        .value("--model")?
        .ok_or_else(|| Error::config("missing --model"))?;
    let mut request = PlanRequest::builder(model).devices(devices).build();
    request.batch = args.parse("--batch", request.batch)?;
    request.seq = args.parse("--seq", request.seq)?;
    Ok(request)
}

/// [`workload_on`] the `--devices` count, `default_devices` when absent.
fn workload(args: &Args, default_devices: usize) -> Result<PlanRequest, Error> {
    workload_on(args, args.parse("--devices", default_devices)?)
}

/// The graph `--mlp-block` picks — the Fig. 9 MLP block, else a full
/// layer — and its name.
fn block_graph(args: &Args, resolved: &ResolvedPlan) -> (Graph, &'static str) {
    let (model, batch, seq) = (resolved.model, resolved.batch, resolved.seq);
    if args.flag("--mlp-block") {
        (model.mlp_block_graph(batch, seq), "MLP block")
    } else {
        (model.layer_graph(batch, seq), "layer")
    }
}

fn cannot_write(path: &str) -> impl FnOnce(std::io::Error) -> Error + '_ {
    move |e| Error::internal(format!("cannot write {path}: {e}"))
}

/// Honors `--metrics-json`, writing the registry `metrics` builds.
fn write_metrics(args: &Args, metrics: impl FnOnce() -> Metrics) -> Result<(), Error> {
    if let Some(path) = args.value("--metrics-json")? {
        primepar::write_metrics_json(path, &metrics()).map_err(cannot_write(path))?;
        println!("metrics written to {path}");
    }
    Ok(())
}

/// Honors `--chrome-trace`, writing the walk `layer` yields: spans and counters.
fn write_trace(args: &Args, layer: impl FnOnce() -> LayerReport) -> Result<(), Error> {
    if let Some(path) = args.value("--chrome-trace")? {
        primepar::write_chrome_trace(path, &layer()).map_err(cannot_write(path))?;
        println!("chrome trace written to {path}");
    }
    Ok(())
}

/// The seeded variance sweep of `--perturb-scenarios` (default `scenarios`),
/// `--perturb-seed` (default 42) and `--perturb-profile` (default `mild`),
/// with the profile's name.
fn robustness_options(args: &Args, scenarios: usize) -> Result<(&str, RobustnessOptions), Error> {
    let profile = args.value("--perturb-profile")?.unwrap_or("mild");
    let opts = RobustnessOptions {
        model: perturbation_profile(profile)?,
        scenarios: args.parse("--perturb-scenarios", scenarios)?,
        base_seed: args.parse("--perturb-seed", 42)?,
        ..RobustnessOptions::default()
    };
    Ok((profile, opts))
}

/// The `sim.robustness.compare.<system>.*` gauges of one system's sweep.
fn robustness_gauges(m: &mut Metrics, system: &str, s: &RobustnessReport) {
    let key = format!("sim.robustness.compare.{system}");
    m.gauge(&format!("{key}.ideal_makespan_s"), s.ideal_makespan);
    m.gauge(&format!("{key}.p95_makespan_s"), s.p95_makespan);
    m.gauge(&format!("{key}.mean_slowdown"), s.mean_slowdown);
}
