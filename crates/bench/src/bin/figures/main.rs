//! Regenerates the paper's evaluation (§6) and the studies beyond it: every
//! entry of [`FIGURES`] is one table, figure or study, described by its
//! module doc.
//!
//! `cargo run --release -p primepar-bench --bin figures -- <name>... [--out-dir DIR] [--quick] [--devices 4,8]`
//!
//! Each figure prints its table on stdout and writes `<name>.metrics.json`
//! under `--out-dir` (default `results/`). `--quick` keeps the first two
//! device scales (and Fig. 10's two 7B models); `--devices` sets the scales
//! of the figures that sweep them. A bad command line exits with status 2.

mod ablations;
mod fig10_3d;
mod fig2_motivation;
mod fig7_throughput;
mod fig8_memory;
mod fig9_ablation;
mod replan;
mod robustness;
mod table2_opt_time;
mod work;

use std::path::PathBuf;
use std::process::ExitCode;

// The figure modules import these with `use crate::*`.
use primepar::graph::{Graph, ModelConfig};
use primepar::obs::Metrics;
use primepar::partition::PartitionSeq;
use primepar::search::{best_megatron, megatron_layer_plan, Planner, PlannerOptions, SpaceOptions};
use primepar::sim::{simulate_layer, simulate_model, LayerReport};
use primepar::topology::Cluster;

/// A figure's body: prints its table and writes its artifacts.
type Figure = fn(&Opts);

/// Every figure the driver knows, by the name it is run under.
const FIGURES: &[(&str, Figure)] = &[
    ("fig2_motivation", fig2_motivation::run),
    ("fig7_throughput", fig7_throughput::run),
    ("fig8_memory", fig8_memory::run),
    ("fig9_ablation", fig9_ablation::run),
    ("fig10_3d", fig10_3d::run),
    ("table2_opt_time", table2_opt_time::run),
    ("ablations", ablations::run),
    ("robustness", robustness::run),
    ("replan", replan::run),
    ("work", work::run),
];

const USAGE: &str = "usage: figures <name>... [--out-dir DIR] [--quick] [--devices 4,8]";

/// The options every figure shares, parsed once.
struct Opts {
    /// `--out-dir DIR`: where metrics and trace artifacts land.
    out_dir: PathBuf,
    /// `--quick`: trims the default device scales and Fig. 10's model set.
    quick: bool,
    /// `--devices 4,8,16`: explicit device scales.
    devices: Option<Vec<usize>>,
}

impl Opts {
    /// Parses the command line into the figures to run, in order, and the
    /// options. An unknown name or flag, a flag missing its value or a bad
    /// device list is an error.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<(Vec<Figure>, Opts), String> {
        let mut runs = Vec::new();
        let mut opts = Opts {
            out_dir: PathBuf::from("results"),
            quick: false,
            devices: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--out-dir" => opts.out_dir = PathBuf::from(value()?),
                "--quick" => opts.quick = true,
                "--devices" => {
                    let list = value()?;
                    let scales = list
                        .split(',')
                        .map(|s| s.trim().parse().ok().filter(|&d: &usize| d > 0))
                        .collect::<Option<Vec<usize>>>()
                        .ok_or(format!("invalid value for --devices: {list}"))?;
                    opts.devices = Some(scales);
                }
                name => match FIGURES.iter().find(|(known, _)| *known == name) {
                    Some(&(_, run)) => runs.push(run),
                    None => return Err(format!("unknown figure or flag: {name}")),
                },
            }
        }
        if runs.is_empty() {
            return Err("no figure named".into());
        }
        Ok((runs, opts))
    }

    /// The device scales to sweep: `--devices` when given, else `default`
    /// (its first two entries under `--quick`).
    fn scales(&self, default: &[usize]) -> Vec<usize> {
        match &self.devices {
            Some(scales) => scales.clone(),
            None if self.quick => default.iter().copied().take(2).collect(),
            None => default.to_vec(),
        }
    }

    /// Writes `metrics` to `<out-dir>/<name>.metrics.json`, announcing the
    /// path. A filesystem failure is reported but non-fatal: the console
    /// table stays the figure's primary artifact.
    fn write_metrics(&self, name: &str, metrics: &Metrics) {
        let path = self.out_dir.join(format!("{name}.metrics.json"));
        match primepar::write_metrics_json(&path, metrics) {
            Ok(()) => println!("metrics written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// The PrimePar plan of `graph` on `cluster` under the default options.
fn primepar_plan(cluster: &Cluster, graph: &Graph, layers: u64) -> Vec<PartitionSeq> {
    Planner::new(cluster, graph, PlannerOptions::default())
        .optimize(layers)
        .seqs
}

/// Runs the cost-model drift auditor on one plan and its walk `sim`, and
/// folds its one-line summary (`audit.layer.rel_drift`,
/// `audit.max_rel_drift`, worst component, conservation verdict) into the
/// figure's metrics.
fn merge_drift_summary(
    metrics: &mut Metrics,
    cluster: &Cluster,
    graph: &Graph,
    plan: &[PartitionSeq],
    sim: &LayerReport,
) {
    let audit = primepar::audit::audit_layer(cluster, graph, plan, sim);
    metrics.merge(&primepar::audit::summary_metrics(&audit));
}

/// Plans one representative point of a figure on `devices` GPUs and folds
/// the drift audit of that plan into the figure's metrics: did the
/// simulated timeline stay attributable to Eqs. 7–9?
fn audit_point(
    metrics: &mut Metrics,
    devices: usize,
    graph: &Graph,
    plan: impl FnOnce(&Cluster, &Graph) -> Vec<PartitionSeq>,
) {
    let cluster = Cluster::v100_like(devices);
    let plan = plan(&cluster, graph);
    let sim = simulate_layer(&cluster, graph, &plan);
    merge_drift_summary(metrics, &cluster, graph, &plan, &sim);
}

/// Kebab-cases a label for use inside a metric key: `"OPT 6.7B"` →
/// `"opt-6.7b"`.
fn slug(label: &str) -> String {
    label
        .trim()
        .chars()
        .map(|c| {
            if c.is_whitespace() || c == '/' {
                '-'
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

fn main() -> ExitCode {
    match Opts::parse(std::env::args().skip(1)) {
        Ok((runs, opts)) => {
            runs.into_iter().for_each(|run| run(&opts));
            ExitCode::SUCCESS
        }
        Err(e) => {
            let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
            eprintln!("error: {e}\n{USAGE}\nfigures: {}", names.join(", "));
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Vec<Figure>, Opts), String> {
        Opts::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn slug_kebab_cases() {
        assert_eq!(slug("OPT 6.7B"), "opt-6.7b");
        assert_eq!(slug("  Llama2 70B "), "llama2-70b");
    }

    #[test]
    fn options_parse_once_for_every_figure() {
        let (runs, opts) = parse(&[
            "fig7_throughput",
            "--quick",
            "--out-dir",
            "o",
            "fig8_memory",
        ])
        .expect("valid command line");
        assert_eq!(runs.len(), 2);
        assert_eq!(opts.out_dir, PathBuf::from("o"));
        assert_eq!(opts.scales(&[4, 8, 16, 32]), [4, 8]);
        let (_, opts) = parse(&["replan", "--devices", "4, 16", "--quick"]).expect("valid");
        assert_eq!(opts.scales(&[4, 8, 16, 32]), [4, 16]);
    }

    #[test]
    fn a_trailing_flag_or_bad_argument_is_an_error() {
        for args in [
            &["fig2_motivation", "--out-dir"][..],
            &["fig7_throughput", "--devices"],
            &["replan", "--devices", "4,x"],
            &["replan", "--devices", "0"],
            &["replan", "--verbose"],
            &["fig11"],
            &["--quick"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }

    #[test]
    fn drift_summary_merges_the_audit_keys() {
        let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
        let mut m = Metrics::new();
        audit_point(&mut m, 4, &graph, |_, g| megatron_layer_plan(g, 1, 4));
        assert!(m.gauge_value("audit.layer.rel_drift").is_some());
        assert!(m.gauge_value("audit.max_rel_drift").is_some());
        assert_eq!(m.text_value("audit.conservation"), Some("ok"));
    }
}
