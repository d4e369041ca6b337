//! Machine-readable run reporting shared by the CLI and the figure benches.
//!
//! One run — a planner search plus a simulated iteration — folds into a
//! single [`Metrics`] registry: `run.*` identifies the configuration,
//! `planner.*` carries the search telemetry
//! ([`PlannerMetrics`]), and `sim.*` the
//! iteration breakdown. [`write_metrics_json`] / [`write_chrome_trace`]
//! drop the artifacts next to the figure outputs (creating parent
//! directories), so every figure script leaves a diffable JSON record.

use std::io;
use std::path::Path;

use primepar_obs::{parse_event_log, parse_json, parse_trace, Json, Metrics, SchemaError};
use primepar_search::PlannerMetrics;
use primepar_service::{
    read_artifact, validate_cache_doc, validate_stats_doc, Error, ResolvedPlan,
};
use primepar_sim::{
    layer_report_metrics, parse_robustness, render_chrome_trace, LayerReport, ModelReport,
};

use crate::SystemReport;

/// Identity of one planning/simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunInfo<'a> {
    /// Model zoo name (e.g. `"OPT 175B"`).
    pub model: &'a str,
    /// System label (`"primepar"`, `"megatron"`, `"alpa"`, …).
    pub system: &'a str,
    /// Cluster size.
    pub devices: usize,
    /// Micro-batch size.
    pub batch: u64,
    /// Sequence length.
    pub seq: u64,
}

impl<'a> RunInfo<'a> {
    /// The identity of a `system` run on a validated workload.
    pub fn of(resolved: &ResolvedPlan, system: &'a str) -> Self {
        RunInfo {
            model: resolved.model.name,
            system,
            devices: resolved.devices,
            batch: resolved.batch,
            seq: resolved.seq,
        }
    }
}

/// Builds the combined registry for one run. `planner` is absent for manual
/// or baseline plans that skip the DP; `report` is absent when nothing was
/// simulated.
pub fn run_metrics(
    run: &RunInfo<'_>,
    planner: Option<&PlannerMetrics>,
    report: Option<&ModelReport>,
) -> Metrics {
    let mut m = Metrics::new();
    m.text("run.model", run.model);
    m.text("run.system", run.system);
    m.gauge("run.devices", run.devices as f64);
    m.gauge("run.batch", run.batch as f64);
    m.gauge("run.seq", run.seq as f64);
    if let Some(p) = planner {
        m.merge(&p.to_metrics());
    }
    if let Some(r) = report {
        m.gauge("sim.iteration_time_seconds", r.iteration_time);
        m.gauge("sim.tokens_per_second", r.tokens_per_second);
        m.gauge("sim.model_peak_memory_bytes", r.peak_memory_bytes);
        m.merge(&layer_report_metrics(&r.layer));
    }
    m
}

/// Folds a `compare` run — all systems on one configuration — into a
/// registry: `run.*` identifies the configuration, `compare.<system>.*` the
/// per-system throughput, memory and breakdown.
pub fn compare_metrics(run: &RunInfo<'_>, rows: &[SystemReport]) -> Metrics {
    let mut m = run_metrics(run, None, None);
    for r in rows {
        let p = format!("compare.{}", r.system.to_lowercase());
        m.gauge(&format!("{p}.tokens_per_second"), r.tokens_per_second);
        m.gauge(&format!("{p}.peak_memory_bytes"), r.peak_memory_bytes);
        m.gauge(&format!("{p}.compute_seconds"), r.breakdown.compute);
        m.gauge(&format!("{p}.collective_seconds"), r.breakdown.collective);
        m.gauge(
            &format!("{p}.ring_exposed_seconds"),
            r.breakdown.ring_exposed,
        );
        m.gauge(
            &format!("{p}.redistribution_seconds"),
            r.breakdown.redistribution,
        );
        m.gauge(&format!("{p}.search_seconds"), r.search_time.as_secs_f64());
    }
    m
}

/// Schema tag carried by every emitted metrics document (`schema_version`).
pub const METRICS_SCHEMA: &str = "primepar.metrics.v1";

/// What [`validate_artifacts`] found in one directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArtifactSummary {
    /// `*.metrics.json` files parsed.
    pub metrics_files: usize,
    /// `*.trace.json` files parsed.
    pub trace_files: usize,
    /// `*.report.json` robustness reports parsed.
    pub report_files: usize,
    /// `*.cache.json` warm-cache dumps parsed.
    pub cache_files: usize,
    /// `*.events.jsonl` service event logs parsed.
    pub events_files: usize,
    /// `*.stats.json` service stats snapshots parsed.
    pub stats_files: usize,
}

fn parse(text: &str) -> Result<Json, Error> {
    Ok(parse_json(text).map_err(SchemaError::from)?)
}

/// A strict reader of one artifact's text, and the summary count it bumps.
type Validator = fn(&str) -> Result<(), Error>;
type Counter = fn(&mut ArtifactSummary) -> &mut usize;

/// Which reader validates which file suffix, and which count it bumps.
#[rustfmt::skip]
const VALIDATORS: [(&str, Validator, Counter); 6] = [
    (".metrics.json", |t| Ok(parse(t)?.check_schema(METRICS_SCHEMA)?), |s| &mut s.metrics_files),
    (".trace.json", |t| Ok(parse_trace(t).map(drop)?), |s| &mut s.trace_files),
    (".report.json", |t| Ok(parse_robustness(&parse(t)?).map(drop)?), |s| &mut s.report_files),
    (".cache.json", |t| validate_cache_doc(&parse(t)?).map(drop), |s| &mut s.cache_files),
    (".events.jsonl", |t| Ok(parse_event_log(t).map(drop)?), |s| &mut s.events_files),
    (".stats.json", |t| validate_stats_doc(&parse(t)?), |s| &mut s.stats_files),
];

/// Re-parses every `*.metrics.json`, `*.trace.json`, `*.report.json`,
/// `*.cache.json`, `*.events.jsonl` and `*.stats.json` under `dir` with the
/// strict `obs`/`sim`/`service` readers. Every document must carry its
/// `schema_version` tag ([`METRICS_SCHEMA`], `primepar.trace.v1`,
/// `primepar.robustness.v2`, `primepar.cache.v1`, `primepar.events.v1` on
/// every line, `primepar.stats.v1`); untagged documents are malformed. Files
/// longer than [`MAX_ARTIFACT_BYTES`](primepar_service::MAX_ARTIFACT_BYTES)
/// are rejected unread.
///
/// # Errors
///
/// [`Error::Internal`] for an unreadable directory or file,
/// [`Error::Protocol`] for the first malformed, untagged, wrongly-versioned
/// or oversized artifact.
pub fn validate_artifacts(dir: impl AsRef<Path>) -> Result<ArtifactSummary, Error> {
    let dir = dir.as_ref();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| Error::internal(format!("cannot read {}: {e}", dir.display())))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    let mut summary = ArtifactSummary::default();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some((_, validate, count)) = VALIDATORS
            .iter()
            .find(|(suffix, ..)| name.ends_with(suffix))
        else {
            continue;
        };
        validate(&read_artifact(&path)?)
            .map_err(|e| Error::protocol(format!("{}: {}", path.display(), e.message())))?;
        *count(&mut summary) += 1;
    }
    Ok(summary)
}

/// Writes `text` plus a trailing newline at `path`, creating parent
/// directories.
fn write_artifact(path: &Path, mut text: String) -> io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir)?,
        _ => {}
    }
    text.push('\n');
    std::fs::write(path, text)
}

/// Writes the registry as pretty JSON at `path`, creating parent
/// directories. The document leads with `schema_version`
/// ([`METRICS_SCHEMA`]), which [`validate_artifacts`] checks on re-parse.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_metrics_json(path: impl AsRef<Path>, metrics: &Metrics) -> io::Result<()> {
    let mut doc = Json::tagged(METRICS_SCHEMA);
    if let (Json::Obj(head), Json::Obj(entries)) = (&mut doc, metrics.to_json()) {
        head.extend(entries);
    }
    write_artifact(path.as_ref(), doc.render_pretty())
}

/// Writes the walk `report` as a Chrome/Perfetto-loadable
/// `primepar.trace.v1` document at `path`, creating parent directories: the
/// kernel spans plus the cluster-accounting counter lanes (live memory,
/// cumulative per-link wire bytes).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_trace(path: impl AsRef<Path>, report: &LayerReport) -> io::Result<()> {
    write_artifact(path.as_ref(), render_chrome_trace(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;
    use primepar_search::{Planner, PlannerOptions};
    use primepar_sim::simulate_model;
    use primepar_topology::Cluster;

    #[test]
    fn run_registry_has_all_three_sections() {
        let cluster = Cluster::v100_like(4);
        let model = ModelConfig::opt_6_7b();
        let graph = model.layer_graph(8, 256);
        let (plan, tm) =
            Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(4);
        let report = simulate_model(&cluster, &graph, &plan.seqs, 4, (8 * 256) as f64);
        let run = RunInfo {
            model: model.name,
            system: "primepar",
            devices: 4,
            batch: 8,
            seq: 256,
        };
        let m = run_metrics(&run, Some(&tm), Some(&report));
        // The ISSUE's minimum schema: DP sweep wall time, evaluation counts,
        // per-operator space sizes, sim breakdown totals.
        assert!(m.timer_seconds("planner.stage.segment_dp_seconds") >= 0.0);
        assert!(m.counter("planner.intra_evaluations") > 0);
        assert!(m.counter("planner.edge_evaluations") > 0);
        assert!(m
            .names()
            .any(|n| n.starts_with("planner.space.") && n.ends_with(".size")));
        assert!(m.gauge_value("sim.breakdown.total_seconds").unwrap() > 0.0);
        assert!(m.gauge_value("sim.tokens_per_second").unwrap() > 0.0);
        assert_eq!(m.gauge_value("run.devices"), Some(4.0));
    }

    #[test]
    fn writers_create_parents_and_valid_documents() {
        let dir = std::env::temp_dir().join("primepar-obsreport-test");
        let _ = std::fs::remove_dir_all(&dir);
        let metrics_path = dir.join("nested").join("run.metrics.json");
        let mut m = Metrics::new();
        m.incr("x", 1);
        write_metrics_json(&metrics_path, &m).unwrap();
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(primepar_obs::parse_json(&text).is_ok());

        let cluster = Cluster::v100_like(2);
        let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
        let plan = primepar_search::megatron_layer_plan(&graph, 1, 2);
        let report = primepar_sim::simulate_layer(&cluster, &graph, &plan);
        let trace_path = dir.join("run.trace.json");
        write_chrome_trace(&trace_path, &report).unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let timeline = primepar_sim::parse_chrome_trace(&text).unwrap();
        assert_eq!(timeline, report.timeline);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emitted_metrics_lead_with_the_schema_version() {
        let dir = std::env::temp_dir().join("primepar-obsreport-schema-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("run.metrics.json");
        let mut m = Metrics::new();
        m.incr("x", 1);
        write_metrics_json(&path, &m).unwrap();
        let doc = primepar_obs::parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let entries = doc.as_object().expect("object");
        assert_eq!(entries[0].0, "schema_version", "tag must be the first key");
        assert_eq!(entries[0].1.as_str(), Some(METRICS_SCHEMA));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_rejects_untagged_and_wrong_versions() {
        use primepar_sim::{robustness_json, robustness_sweep, RobustnessOptions};
        let dir = std::env::temp_dir().join("primepar-obsreport-validate-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut m = Metrics::new();
        m.incr("x", 1);
        write_metrics_json(dir.join("a.metrics.json"), &m).unwrap();

        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
        let plan = primepar_search::megatron_layer_plan(&graph, 1, 4);
        let report = robustness_sweep(
            &cluster,
            &graph,
            &plan,
            &RobustnessOptions {
                scenarios: 1,
                ..RobustnessOptions::default()
            },
        );
        std::fs::write(dir.join("c.report.json"), robustness_json(&report).render()).unwrap();

        let cache = primepar_service::WarmCache::new();
        cache
            .execute_plan(
                &primepar_service::PlanRequest::builder("opt-6.7b")
                    .id("v")
                    .devices(4)
                    .batch(8)
                    .seq(256)
                    .layers(Some(1))
                    .build(),
            )
            .unwrap();
        cache.save(dir.join("warm.cache.json")).unwrap();

        let line = primepar_obs::render_event(
            &primepar_obs::Event::new(primepar_obs::EventLevel::Info, "request.done")
                .context("t-00000001", "s0")
                .field("status", "ok"),
        );
        std::fs::write(dir.join("serve.events.jsonl"), format!("{line}\n")).unwrap();

        primepar_service::serve_lines(
            &b""[..],
            &mut Vec::new(),
            &primepar_service::ServeOptions {
                stats_out: Some(dir.join("serve.stats.json")),
                ..primepar_service::ServeOptions::default()
            },
        )
        .unwrap();

        let summary = validate_artifacts(&dir).unwrap();
        assert_eq!(summary.metrics_files, 1);
        assert_eq!(summary.report_files, 1);
        assert_eq!(summary.cache_files, 1);
        assert_eq!(summary.events_files, 1);
        assert_eq!(summary.stats_files, 1);

        // Every untagged document is malformed: the pre-versioning metrics
        // object, the bare-array trace and the `schema`-only robustness
        // report included.
        let mut legacy_report = robustness_json(&report);
        if let Json::Obj(entries) = &mut legacy_report {
            entries[0].0 = "schema".into();
        }
        for (name, text) in [
            ("b.metrics.json", "{\"x\": 1}\n".to_string()),
            ("b.trace.json", "[]\n".to_string()),
            ("b.report.json", legacy_report.render()),
            ("bad.cache.json", "{\"entries\": []}\n".to_string()),
            ("bad.events.jsonl", "{\"name\": \"x\"}\n".to_string()),
            ("bad.stats.json", "{\"uptime_us\": 0}\n".to_string()),
        ] {
            std::fs::write(dir.join(name), text).unwrap();
            let verdict = validate_artifacts(&dir);
            assert!(
                matches!(&verdict, Err(Error::Protocol(m)) if m.contains(name) && m.contains("schema_version")),
                "untagged {name} must be rejected: {verdict:?}"
            );
            std::fs::remove_file(dir.join(name)).unwrap();
        }

        std::fs::write(
            dir.join("d.metrics.json"),
            "{\"schema_version\": \"primepar.metrics.v999\"}\n",
        )
        .unwrap();
        let verdict = validate_artifacts(&dir);
        assert!(
            matches!(verdict, Err(Error::Protocol(_))),
            "wrong versions must be rejected: {verdict:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
