//! What a workload process measured, and the two documents it is reported
//! in: the one-line result the command prints last, and the
//! schema-tagged `primepar.bench.v1` document `--out` writes and `compare`
//! reads.

use std::collections::BTreeMap;

use primepar::obs::{parse_json, Json, TraceEvent};

use crate::spec::{spec, MetricSpec};
use crate::stats::{median, nearest_rank};

pub const BENCH_SCHEMA: &str = "primepar.bench.v1";

/// One closed- or open-loop phase of timed operations. Closed-loop times
/// are scaled to the nominal host speed (see `host.rs`); open-loop times
/// are wall times.
#[derive(Debug, Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    /// The same ops' wall times (the latencies themselves in an open loop).
    pub wall_ms: Vec<f64>,
    pub ok: u64,
    pub failed: u64,
    /// The seconds throughput is taken over: the ops' summed time in a
    /// closed loop, the session's length in an open loop.
    pub timed_s: f64,
    /// Process CPU seconds spent on the ops.
    pub cpu_s: f64,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }
}

/// Everything one workload process measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Seconds of each full set-up (inputs, service, calibration and the
    /// untimed warm-up op), scaled to the nominal host speed.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase: every end-to-end number comes from here.
    pub untraced: Phase,
    /// The traced phase of a `--trace 1` run (empty otherwise).
    pub traced_phase: Phase,
    /// `None` when every output matched its reference and pin; otherwise
    /// why not.
    pub mismatch: Option<String>,
    /// Digest of the run's outputs, for comparing runs of one seed.
    pub digest: String,
    /// Median time of the host reference's passes in this run.
    pub ref_loop_ms: f64,
    /// Open-loop generator lag, nearest-rank p99 (open loops only).
    pub lag_p99_ms: Option<f64>,
    /// Reasons the run does not measure what the workload names.
    pub flags: Vec<String>,
    pub peak_rss_bytes: u64,
    pub layers: BTreeMap<String, f64>,
    pub self_time_ms: BTreeMap<&'static str, f64>,
    pub chrome: Vec<TraceEvent>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.untraced.attempted() + self.traced_phase.attempted()
    }

    pub fn failed(&self) -> u64 {
        self.untraced.failed + self.traced_phase.failed
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.mismatch.is_none() && self.attempted() > 0
    }

    /// The end-to-end metrics of the untraced phase, by name.
    pub fn end_to_end(&self) -> BTreeMap<String, f64> {
        let p = &self.untraced;
        let pct = |q| nearest_rank(&p.latencies_ms, q).unwrap_or(0.0);
        // A phase that timed nothing completed nothing per second; a NaN
        // would not render as a JSON number.
        let throughput = if p.timed_s > 0.0 {
            p.ok as f64 / p.timed_s
        } else {
            0.0
        };
        [
            ("setup_s", median(&self.setup_s)),
            ("latency_p50_ms", pct(50.0)),
            ("latency_p90_ms", pct(90.0)),
            ("throughput_ops", throughput),
            ("cpu_ms_per_op", p.cpu_s * 1e3 / p.attempted().max(1) as f64),
            ("peak_rss_mb", self.peak_rss_bytes as f64 / 1e6),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// The per-layer metrics of a traced run: every metric the contract
    /// lists, 0 where the layer is off this workload's path.
    pub fn per_layer(&self) -> BTreeMap<String, f64> {
        let mut out = self.layers.clone();
        out.insert("host.ref_loop_ms".into(), self.ref_loop_ms);
        out.insert("loadgen.lag_p99_ms".into(), self.lag_p99_ms.unwrap_or(0.0));
        let untraced = median(&self.untraced.latencies_ms);
        let traced = median(&self.traced_phase.latencies_ms);
        let overhead = if untraced > 0.0 {
            (traced / untraced - 1.0) * 100.0
        } else {
            0.0
        };
        out.insert("trace.overhead_pct".into(), overhead);
        out
    }

    /// The metrics this run reports: the contract's end-to-end list
    /// untraced, its per-layer list traced.
    ///
    /// # Panics
    ///
    /// Panics if the contract names an end-to-end metric this binary does
    /// not measure.
    pub fn reported(&self) -> Vec<(&'static MetricSpec, f64)> {
        if self.traced {
            let values = self.per_layer();
            let value = |m: &MetricSpec| values.get(&m.name).copied().unwrap_or(0.0);
            spec().per_layer.iter().map(|m| (m, value(m))).collect()
        } else {
            let values = self.end_to_end();
            spec()
                .end_to_end
                .iter()
                .map(|m| (m, values[&m.name]))
                .collect()
        }
    }

    /// The last line the command prints.
    pub fn result_line(&self) -> Json {
        let mut metrics = Json::obj();
        for (m, value) in self.reported() {
            metrics.set(
                &m.name,
                Json::obj()
                    .with("value", value)
                    .with("unit", m.unit.as_str()),
            );
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted())
            .with("failed", self.failed())
            .with("metrics", metrics)
    }

    /// This run as one `workloads` entry of a `primepar.bench.v1` document.
    pub fn entry(&self) -> Json {
        let mut doc = self
            .result_line()
            .with("name", self.workload.as_str())
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("trace", self.traced)
            .with("fail_frac", self.fail_frac())
            .with("samples", self.untraced.latencies_ms.len())
            .with(
                "setup_runs_s",
                Json::Arr(self.setup_s.iter().map(|&s| Json::from(s)).collect()),
            )
            .with("digest", self.digest.as_str())
            .with("wall_latency_ms", {
                let wall = &self.untraced.wall_ms;
                let pct = |q| nearest_rank(wall, q).unwrap_or(0.0);
                Json::obj()
                    .with("p50", pct(50.0))
                    .with("p90", pct(90.0))
                    .with("p99", pct(99.0))
            })
            .with(
                "probes",
                Json::obj()
                    .with("host.ref_loop_ms", self.ref_loop_ms)
                    .with("loadgen.lag_p99_ms", self.lag_p99_ms.unwrap_or(0.0)),
            )
            .with(
                "flags",
                Json::Arr(self.flags.iter().map(|f| Json::from(f.as_str())).collect()),
            );
        if let Some(why) = &self.mismatch {
            doc.set("mismatch", why.as_str());
        }
        if self.traced {
            let mut self_time = Json::obj();
            for (layer, ms) in &self.self_time_ms {
                self_time.set(layer, *ms);
            }
            doc.set("traced_samples", self.traced_phase.latencies_ms.len());
            doc.set("self_time_ms", self_time);
        }
        doc
    }
}

/// A `primepar.bench.v1` document over workload entries.
pub fn bench_doc(entries: Vec<Json>) -> Json {
    Json::obj()
        .with("schema_version", BENCH_SCHEMA)
        .with("workloads", Json::Arr(entries))
}

/// One workload entry as `compare` reads it back.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEntry {
    pub name: String,
    pub trace: bool,
    pub fail_frac: f64,
    pub flags: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

/// Reads the workload entries of a `primepar.bench.v1` document.
pub fn parse_bench_doc(text: &str) -> Result<Vec<RunEntry>, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    if doc.get("schema_version").and_then(Json::as_str) != Some(BENCH_SCHEMA) {
        return Err(format!("not a {BENCH_SCHEMA} document"));
    }
    let entries = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("`workloads` must be an array")?;
    entries
        .iter()
        .map(|e| {
            let num = |key: &str| {
                e.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("workload entry lacks numeric `{key}`"))
            };
            let metrics = e
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or("workload entry lacks `metrics`")?
                .iter()
                .map(|(name, m)| {
                    m.get("value")
                        .and_then(Json::as_f64)
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("metric {name} lacks a value"))
                })
                .collect::<Result<_, String>>()?;
            Ok(RunEntry {
                name: e
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("workload entry lacks `name`")?
                    .to_string(),
                trace: e.get("trace").and_then(Json::as_bool).unwrap_or(false),
                fail_frac: num("fail_frac")?,
                flags: e
                    .get("flags")
                    .and_then(Json::as_array)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|f| f.as_str().map(str::to_string))
                    .collect(),
                metrics,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(traced: bool) -> Outcome {
        Outcome {
            workload: "plan-t2".into(),
            seed: 42,
            seconds: 20.0,
            traced,
            setup_s: vec![0.21, 0.2, 0.19],
            untraced: Phase {
                latencies_ms: vec![150.0, 160.0, 155.0, 170.0],
                wall_ms: vec![120.0, 130.0, 125.0, 140.0],
                ok: 4,
                failed: 0,
                timed_s: 0.7,
                cpu_s: 0.6,
            },
            digest: "00ff".into(),
            ref_loop_ms: 12.5,
            peak_rss_bytes: 50_000_000,
            ..Outcome::default()
        }
    }

    #[test]
    fn result_json_round_trips_through_the_strict_parser() {
        for traced in [false, true] {
            let o = outcome(traced);
            let line = o.result_line().render();
            assert!(!line.contains('\n'), "the result is one line");
            let back = parse_json(&line).expect("strict parser accepts the result line");
            assert_eq!(back, o.result_line());
            let keys: Vec<&str> = back
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let list = if traced {
                &spec().per_layer
            } else {
                &spec().end_to_end
            };
            let metrics = back.get("metrics").and_then(Json::as_object).unwrap();
            assert_eq!(metrics.len(), list.len());
            for (m, (name, value)) in list.iter().zip(metrics) {
                assert_eq!(&m.name, name);
                assert_eq!(
                    value.get("unit").and_then(Json::as_str),
                    Some(m.unit.as_str())
                );
            }

            let doc = bench_doc(vec![o.entry()]).render_pretty();
            assert_eq!(
                parse_json(&doc).unwrap(),
                bench_doc(vec![o.entry()]),
                "the --out document round-trips"
            );
            let entries = parse_bench_doc(&doc).expect("compare reads it back");
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].name, "plan-t2");
            assert_eq!(entries[0].trace, traced);
            let doc = parse_json(&doc).unwrap();
            let entry = &doc.get("workloads").and_then(Json::as_array).unwrap()[0];
            let wall_p50 = entry
                .get("wall_latency_ms")
                .and_then(|w| w.get("p50"))
                .and_then(Json::as_f64);
            assert_eq!(wall_p50, Some(125.0), "the document keeps the wall times");
        }
    }

    #[test]
    fn end_to_end_metrics_follow_their_definitions() {
        let m = outcome(false).end_to_end();
        assert_eq!(m["setup_s"], 0.2);
        assert_eq!(m["latency_p50_ms"], 155.0);
        assert_eq!(m["latency_p90_ms"], 170.0);
        assert!((m["throughput_ops"] - 4.0 / 0.7).abs() < 1e-12);
        assert!((m["cpu_ms_per_op"] - 150.0).abs() < 1e-9);
        assert_eq!(m["peak_rss_mb"], 50.0);
        assert!(outcome(false).correct());
        let mut wrong = outcome(false);
        wrong.mismatch = Some("digest differs".into());
        assert!(!wrong.correct(), "a pin mismatch fails the run");
    }

    #[test]
    fn a_run_with_no_answers_still_reads_back_as_a_failure() {
        // A hung service: every request attempted, none answered, nothing
        // timed.
        let mut hung = outcome(false);
        hung.untraced = Phase {
            failed: 40,
            ..Phase::default()
        };
        let m = hung.end_to_end();
        assert!(m.values().all(|v| v.is_finite()), "{m:?}");
        assert_eq!(m["throughput_ops"], 0.0);
        assert!(!hung.correct());
        let doc = bench_doc(vec![hung.entry()]).render_pretty();
        let entries = parse_bench_doc(&doc).expect("compare reads the failed run");
        assert_eq!(entries[0].fail_frac, 1.0);
        assert_eq!(entries[0].metrics["throughput_ops"], 0.0);
    }

    #[test]
    fn foreign_documents_are_rejected() {
        assert!(parse_bench_doc("{}").is_err());
        assert!(parse_bench_doc("[1]").is_err());
        let untagged = bench_doc(vec![]).with("schema_version", "primepar.bench.v0");
        assert!(parse_bench_doc(&untagged.render()).is_err());
    }
}
