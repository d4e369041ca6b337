//! Robustness sweeps: how a plan's makespan degrades under seeded fault &
//! variance scenarios.
//!
//! The paper compares partition strategies on ideal hardware, but its
//! headline trade-off — the temporal primitive's P2P-only rings versus the
//! conventional partitions' collectives — has very different *sensitivity*
//! to stragglers and degraded links: a Cannon-style ring serializes through
//! its slowest hop on every temporal step, while an all-reduce pays the
//! group's worst member once per phase. This module quantifies that: it draws
//! `N` scenarios from a [`PerturbationModel`] (seeds `base_seed + i`), runs
//! the SPMD walk under each, and folds the results into a
//! [`RobustnessReport`] — min/median/p95/max makespan, slowdown versus the
//! ideal cluster, and a critical-device histogram. The critical device is a
//! property of the draw ([`AppliedPerturbation::slowest_device`]): the
//! cluster runs at its slowest device's pace and every ring step, collective
//! and redistribution synchronizes the devices, so that device finishes last
//! under any plan.
//!
//! Everything is bit-reproducible: identical `(model, base_seed, scenarios)`
//! inputs produce identical reports, and [`robustness_json`] /
//! [`parse_robustness`] round-trip a report exactly.

use primepar_cost::PlanGeometry;
use primepar_graph::Graph;
use primepar_obs::{Json, Metrics, SchemaError};
use primepar_partition::PartitionSeq;
use primepar_topology::{AppliedPerturbation, Cluster, PerturbationModel};

use crate::engine::{simulate_layer_geometry, SimOptions};

/// Schema tag of the robustness-report JSON document.
pub const ROBUSTNESS_SCHEMA: &str = "primepar.robustness.v2";

/// Knobs of a robustness sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessOptions {
    /// Distribution the scenarios are drawn from.
    pub model: PerturbationModel,
    /// Number of seeded scenarios (> 0).
    pub scenarios: usize,
    /// Scenario `i` is drawn with seed `base_seed.wrapping_add(i)`.
    pub base_seed: u64,
    /// Simulator options shared by the ideal run and every scenario.
    pub sim: SimOptions,
}

impl Default for RobustnessOptions {
    fn default() -> Self {
        RobustnessOptions {
            model: PerturbationModel::mild(),
            scenarios: 16,
            base_seed: 42,
            sim: SimOptions::default(),
        }
    }
}

/// One scenario's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario index within the sweep.
    pub scenario: usize,
    /// Seed the scenario was drawn with.
    pub seed: u64,
    /// SPMD-walk makespan under the scenario (s).
    pub makespan: f64,
    /// `makespan / ideal_makespan`.
    pub slowdown: f64,
    /// The scenario's slowest device
    /// ([`AppliedPerturbation::slowest_device`]), which finishes last.
    pub critical_device: usize,
    /// The scenario's worst per-device compute slowdown factor.
    pub max_compute_slowdown: f64,
    /// The scenario's worst per-device link slowdown factor.
    pub worst_link_factor: f64,
    /// Dead (failed-over) devices in the scenario.
    pub dead_devices: usize,
}

/// Folded results of a robustness sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Base seed of the sweep.
    pub base_seed: u64,
    /// Number of scenarios swept.
    pub scenarios: usize,
    /// Makespan on the unperturbed cluster (s).
    pub ideal_makespan: f64,
    /// Best-case scenario makespan (s).
    pub min_makespan: f64,
    /// Median scenario makespan (nearest-rank, s).
    pub median_makespan: f64,
    /// 95th-percentile scenario makespan (nearest-rank, s).
    pub p95_makespan: f64,
    /// Worst-case scenario makespan (s).
    pub max_makespan: f64,
    /// Mean of the per-scenario slowdowns versus ideal.
    pub mean_slowdown: f64,
    /// Worst per-scenario slowdown versus ideal.
    pub max_slowdown: f64,
    /// How often each device was the critical device, indexed by device.
    pub critical_device_histogram: Vec<u64>,
    /// Per-scenario outcomes, in scenario order.
    pub outcomes: Vec<ScenarioOutcome>,
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 100]`).
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite makespans"));
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sweeps `opts.scenarios` seeded fault/variance scenarios over the plan and
/// folds the outcomes. Every scenario's accounting is validated — the
/// busy+idle==makespan and byte-conservation identities must hold under
/// perturbation, not just on ideal hardware.
///
/// # Panics
///
/// Panics if `opts.scenarios == 0`, the perturbation model is invalid, or an
/// accounting identity breaks.
pub fn robustness_sweep(
    cluster: &Cluster,
    graph: &Graph,
    seqs: &[PartitionSeq],
    opts: &RobustnessOptions,
) -> RobustnessReport {
    assert!(opts.scenarios > 0, "robustness sweep needs >= 1 scenario");
    // One plan on clusters of one size: its geometry is shared by the ideal
    // run and every scenario's run.
    let geometry = PlanGeometry::new(graph, seqs);
    let ideal = simulate_layer_geometry(cluster, graph, &geometry, &opts.sim);
    let ideal_makespan = ideal.layer_time;

    let mut outcomes = Vec::with_capacity(opts.scenarios);
    let mut histogram = vec![0u64; cluster.num_devices()];
    for scenario in 0..opts.scenarios {
        let seed = opts.base_seed.wrapping_add(scenario as u64);
        let draw = AppliedPerturbation::draw(&opts.model, seed, cluster.num_devices());
        let critical_device = draw.slowest_device();
        let dead_devices = draw.dead_devices();
        let perturbed = cluster.with_perturbation(draw);
        let walk = simulate_layer_geometry(&perturbed, graph, &geometry, &opts.sim);
        walk.accounting
            .validate()
            .expect("accounting identities must hold under perturbation");
        histogram[critical_device] += 1;
        outcomes.push(ScenarioOutcome {
            scenario,
            seed,
            makespan: walk.layer_time,
            slowdown: walk.layer_time / ideal_makespan,
            critical_device,
            max_compute_slowdown: perturbed.max_compute_slowdown(),
            worst_link_factor: perturbed.worst_link_factor(),
            dead_devices,
        });
    }

    let makespans: Vec<f64> = outcomes.iter().map(|o| o.makespan).collect();
    let slowdowns: Vec<f64> = outcomes.iter().map(|o| o.slowdown).collect();
    RobustnessReport {
        base_seed: opts.base_seed,
        scenarios: opts.scenarios,
        ideal_makespan,
        min_makespan: makespans.iter().copied().fold(f64::INFINITY, f64::min),
        median_makespan: percentile(&makespans, 50.0),
        p95_makespan: percentile(&makespans, 95.0),
        max_makespan: makespans.iter().copied().fold(0.0, f64::max),
        mean_slowdown: slowdowns.iter().sum::<f64>() / slowdowns.len() as f64,
        max_slowdown: slowdowns.iter().copied().fold(0.0, f64::max),
        critical_device_histogram: histogram,
        outcomes,
    }
}

/// Flattens a report into `sim.robustness.*` metrics. Purely derived from the
/// report — no wall-clock — so metrics JSON is deterministic under a fixed
/// seed.
pub fn robustness_metrics(report: &RobustnessReport) -> Metrics {
    let mut m = Metrics::new();
    m.incr("sim.robustness.scenarios", report.scenarios as u64);
    m.text("sim.robustness.base_seed", &report.base_seed.to_string());
    m.gauge("sim.robustness.ideal_makespan_s", report.ideal_makespan);
    m.gauge("sim.robustness.makespan.min_s", report.min_makespan);
    m.gauge("sim.robustness.makespan.median_s", report.median_makespan);
    m.gauge("sim.robustness.makespan.p95_s", report.p95_makespan);
    m.gauge("sim.robustness.makespan.max_s", report.max_makespan);
    m.gauge("sim.robustness.slowdown.mean", report.mean_slowdown);
    m.gauge("sim.robustness.slowdown.max", report.max_slowdown);
    for o in &report.outcomes {
        m.observe("sim.robustness.makespan_s", o.makespan);
        m.observe(
            "sim.robustness.max_compute_slowdown",
            o.max_compute_slowdown,
        );
        m.observe("sim.robustness.worst_link_factor", o.worst_link_factor);
        m.incr("sim.robustness.dead_devices", o.dead_devices as u64);
    }
    for (d, &count) in report.critical_device_histogram.iter().enumerate() {
        m.incr(&format!("sim.robustness.critical_device.{d}"), count);
    }
    m
}

/// Renders a report as a JSON document that [`parse_robustness`] re-parses
/// exactly (seeds are carried as strings so 64-bit values survive the `f64`
/// number model).
pub fn robustness_json(report: &RobustnessReport) -> Json {
    let outcomes: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            Json::obj()
                .with("scenario", o.scenario as f64)
                .with("seed", o.seed.to_string())
                .with("makespan", o.makespan)
                .with("slowdown", o.slowdown)
                .with("critical_device", o.critical_device as f64)
                .with("max_compute_slowdown", o.max_compute_slowdown)
                .with("worst_link_factor", o.worst_link_factor)
                .with("dead_devices", o.dead_devices as f64)
        })
        .collect();
    Json::tagged(ROBUSTNESS_SCHEMA)
        .with("base_seed", report.base_seed.to_string())
        .with("scenarios", report.scenarios as f64)
        .with("ideal_makespan", report.ideal_makespan)
        .with(
            "makespan",
            Json::obj()
                .with("min", report.min_makespan)
                .with("median", report.median_makespan)
                .with("p95", report.p95_makespan)
                .with("max", report.max_makespan),
        )
        .with(
            "slowdown",
            Json::obj()
                .with("mean", report.mean_slowdown)
                .with("max", report.max_slowdown),
        )
        .with(
            "critical_device_histogram",
            Json::Arr(
                report
                    .critical_device_histogram
                    .iter()
                    .map(|&c| Json::Num(c as f64))
                    .collect(),
            ),
        )
        .with("outcomes", Json::Arr(outcomes))
}

/// Reads a seed carried as a decimal string (exact past 2^53).
fn seed(doc: &Json, key: &str) -> Result<u64, SchemaError> {
    doc.req::<&str>(key)?
        .parse()
        .map_err(|e| SchemaError::shape(key, format!("is not a u64: {e}")))
}

fn outcome(o: &Json) -> Result<ScenarioOutcome, SchemaError> {
    Ok(ScenarioOutcome {
        scenario: o.req("scenario")?,
        seed: seed(o, "seed")?,
        makespan: o.req("makespan")?,
        slowdown: o.req("slowdown")?,
        critical_device: o.req("critical_device")?,
        max_compute_slowdown: o.req("max_compute_slowdown")?,
        worst_link_factor: o.req("worst_link_factor")?,
        dead_devices: o.req("dead_devices")?,
    })
}

/// Parses a document produced by [`robustness_json`].
///
/// # Errors
///
/// Returns the first structural mismatch: a missing or wrong
/// `schema_version` tag, a missing field, or a wrong type.
pub fn parse_robustness(doc: &Json) -> Result<RobustnessReport, SchemaError> {
    doc.check_schema(ROBUSTNESS_SCHEMA)?;
    let stat = |section: &str, key: &str| {
        doc.req::<&Json>(section)
            .and_then(|s| s.req::<f64>(key).map_err(|e| e.at(section)))
    };
    Ok(RobustnessReport {
        base_seed: seed(doc, "base_seed")?,
        scenarios: doc.req("scenarios")?,
        ideal_makespan: doc.req("ideal_makespan")?,
        min_makespan: stat("makespan", "min")?,
        median_makespan: stat("makespan", "median")?,
        p95_makespan: stat("makespan", "p95")?,
        max_makespan: stat("makespan", "max")?,
        mean_slowdown: stat("slowdown", "mean")?,
        max_slowdown: stat("slowdown", "max")?,
        critical_device_histogram: doc.req_items("critical_device_histogram", Json::read)?,
        outcomes: doc.req_items("outcomes", outcome)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;
    use primepar_search::megatron_layer_plan;

    fn sweep(scenarios: usize, seed: u64) -> RobustnessReport {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 1, 4);
        robustness_sweep(
            &cluster,
            &graph,
            &plan,
            &RobustnessOptions {
                model: PerturbationModel::harsh(),
                scenarios,
                base_seed: seed,
                sim: SimOptions::default(),
            },
        )
    }

    #[test]
    fn sweep_bounds_and_shapes() {
        let r = sweep(6, 11);
        assert_eq!(r.outcomes.len(), 6);
        assert_eq!(r.critical_device_histogram.len(), 4);
        assert_eq!(
            r.critical_device_histogram.iter().sum::<u64>(),
            6,
            "every scenario names one critical device"
        );
        // Perturbations only slow things down.
        let tol = 1e-9 * (1.0 + r.ideal_makespan);
        assert!(r.min_makespan >= r.ideal_makespan - tol);
        assert!(r.median_makespan >= r.min_makespan);
        assert!(r.p95_makespan >= r.median_makespan);
        assert!(r.max_makespan >= r.p95_makespan);
        assert!(r.max_slowdown >= r.mean_slowdown && r.mean_slowdown >= 1.0 - 1e-9);
        for o in &r.outcomes {
            assert!(o.max_compute_slowdown >= 1.0 && o.worst_link_factor >= 1.0);
        }
    }

    #[test]
    fn identical_inputs_give_bitwise_identical_reports() {
        let a = sweep(5, 99);
        let b = sweep(5, 99);
        assert_eq!(a, b);
        assert_eq!(
            robustness_json(&a).render(),
            robustness_json(&b).render(),
            "rendered JSON must match byte-for-byte"
        );
        let c = sweep(5, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sweep(4, 7);
        let doc = robustness_json(&r);
        let text = doc.render();
        let back = primepar_obs::parse_json(&text).expect("renders valid JSON");
        assert_eq!(back, doc);
        let parsed = parse_robustness(&back).expect("parses back");
        assert_eq!(parsed, r, "round-trip must be exact, not approximate");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_robustness(&Json::obj()).is_err());
        let bad = robustness_json(&sweep(2, 1)).with("schema_version", "nope");
        assert!(parse_robustness(&bad)
            .unwrap_err()
            .to_string()
            .contains("schema"));
    }

    #[test]
    fn parse_rejects_a_v1_document() {
        // v1 outcomes carried a second, per-device makespan; v2 has one.
        let mut doc =
            robustness_json(&sweep(2, 3)).with("schema_version", "primepar.robustness.v1");
        let err = parse_robustness(&doc).unwrap_err().to_string();
        assert!(err.contains("primepar.robustness.v1"), "{err}");
        doc = doc.with("schema_version", ROBUSTNESS_SCHEMA);
        assert!(parse_robustness(&doc).is_ok());
    }

    #[test]
    fn parse_rejects_legacy_schema_only_documents() {
        let report = sweep(2, 3);
        let doc = robustness_json(&report);
        // Emitted documents lead with `schema_version` and no longer carry
        // the pre-versioning `schema` key.
        assert_eq!(doc.as_object().expect("object")[0].0, "schema_version");
        assert!(doc.get("schema").is_none());
        let Json::Obj(entries) = &doc else {
            unreachable!()
        };
        // A document tagged only with the legacy `schema` key is rejected,
        // as is one with a wrong `schema_version` next to a good legacy tag.
        let legacy_only = Json::Obj(
            entries
                .iter()
                .filter(|(k, _)| k != "schema_version")
                .cloned()
                .collect(),
        )
        .with("schema", ROBUSTNESS_SCHEMA);
        let err = parse_robustness(&legacy_only).unwrap_err().to_string();
        assert!(err.contains("missing schema_version"), "{err}");
        let wrong = doc
            .clone()
            .with("schema", ROBUSTNESS_SCHEMA)
            .with("schema_version", "primepar.robustness.v999");
        assert!(parse_robustness(&wrong)
            .unwrap_err()
            .to_string()
            .contains("schema"));
        assert_eq!(parse_robustness(&doc).expect("tagged accepted"), report);
    }

    #[test]
    fn metrics_expose_the_sweep() {
        let r = sweep(3, 5);
        let m = robustness_metrics(&r);
        assert_eq!(m.counter("sim.robustness.scenarios"), 3);
        assert_eq!(
            m.gauge_value("sim.robustness.makespan.p95_s"),
            Some(r.p95_makespan)
        );
        assert_eq!(m.text_value("sim.robustness.base_seed"), Some("5"));
        let hist = m.histogram("sim.robustness.makespan_s").expect("observed");
        assert_eq!(hist.count, 3);
        let critical: u64 = (0..4)
            .map(|d| m.counter(&format!("sim.robustness.critical_device.{d}")))
            .sum();
        assert_eq!(critical, 3);
    }
}
