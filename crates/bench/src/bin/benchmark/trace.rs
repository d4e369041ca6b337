//! The traced run's bookkeeping: in-memory spans around every public call
//! the benchmark makes (children synthesized from the breakdowns those calls
//! return), per-layer self time, the Chrome trace export, and the per-op
//! samples behind the per-layer metrics. Nothing here reaches inside the
//! crates under test.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use primepar::obs::{Json, TraceEvent, TracePhase};
use primepar::search::PlannerMetrics;

#[derive(Debug, Clone, PartialEq)]
struct Span {
    name: String,
    /// The crate the span's time is spent in (`search`, `cost`, `sim`,
    /// `service`, `obs`) or `bench` for the benchmark's own glue.
    layer: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn us_since_origin(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    pub fn span(
        &mut self,
        name: &str,
        layer: &'static str,
        start: Instant,
        dur: Duration,
        parent: Option<usize>,
    ) -> usize {
        let start_us = self.us_since_origin(start);
        self.span_us(name, layer, start_us, dur.as_secs_f64() * 1e6, parent)
    }

    /// Records a span in microseconds since the origin. A child is clamped
    /// into its parent's window so the tree stays well-nested even when its
    /// times come from another clock or from rounded totals.
    pub fn span_us(
        &mut self,
        name: &str,
        layer: &'static str,
        start_us: f64,
        dur_us: f64,
        parent: Option<usize>,
    ) -> usize {
        let (start_us, dur_us) = match parent.map(|p| &self.spans[p]) {
            Some(p) => {
                let end = p.start_us + p.dur_us;
                let start = start_us.clamp(p.start_us, end);
                (start, dur_us.min(end - start).max(0.0))
            }
            None => (start_us, dur_us.max(0.0)),
        };
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us,
            dur_us,
            parent,
        });
        self.spans.len() - 1
    }

    /// Lays a planner run's stage timings out back to back under `parent`,
    /// from the parent's start: the stages ran in that order.
    pub fn planner_stages(&mut self, parent: usize, metrics: &PlannerMetrics) {
        let mut cursor = self.spans[parent].start_us;
        for (stage, seconds) in metrics.stage_spans() {
            let layer = if stage == "edge_matrices" {
                "cost"
            } else {
                "search"
            };
            self.span_us(stage, layer, cursor, seconds * 1e6, Some(parent));
            cursor += seconds * 1e6;
        }
    }

    fn self_times_us(&self) -> Vec<f64> {
        let mut self_us: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                self_us[p] -= span.dur_us;
            }
        }
        self_us.into_iter().map(|us| us.max(0.0)).collect()
    }

    /// Milliseconds of self time (span minus its children) per layer.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, us) in self.spans.iter().zip(self.self_times_us()) {
            *out.entry(span.layer).or_insert(0.0) += us / 1e3;
        }
        out
    }

    /// The spans as Chrome trace events in process lane `pid`, each carrying
    /// its layer, self time and parent link.
    pub fn chrome_events(&self, pid: u64) -> Vec<TraceEvent> {
        self.spans
            .iter()
            .zip(self.self_times_us())
            .enumerate()
            .map(|(i, (span, self_us))| {
                let mut args = vec![
                    ("span_id".to_string(), Json::from(format!("s{i}"))),
                    ("self_us".to_string(), Json::from(self_us)),
                ];
                if let Some(p) = span.parent {
                    args.push(("parent".to_string(), Json::from(format!("s{p}"))));
                }
                TraceEvent {
                    name: span.name.clone(),
                    cat: span.layer.to_string(),
                    ph: TracePhase::Complete,
                    pid,
                    tid: 1,
                    ts_us: span.start_us,
                    dur_us: span.dur_us,
                    args,
                }
            })
            .collect()
    }
}

/// Per-layer metric samples of a traced run: per-op values (reported as
/// their median), ratio numerators/denominators (summed over the run), and
/// values measured once.
#[derive(Debug, Default)]
pub struct LayerSamples {
    per_op: BTreeMap<&'static str, Vec<f64>>,
    ratios: BTreeMap<&'static str, (f64, f64)>,
    values: BTreeMap<&'static str, f64>,
}

impl LayerSamples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.per_op.entry(name).or_default().push(value);
    }

    pub fn ratio(&mut self, name: &'static str, numerator: f64, denominator: f64) {
        let slot = self.ratios.entry(name).or_insert((0.0, 0.0));
        slot.0 += numerator;
        slot.1 += denominator;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The search and cost layers' share of one planner run.
    pub fn planner(&mut self, m: &PlannerMetrics) {
        let bellman: u64 = m.segments.iter().map(|s| s.bellman_relaxations).sum();
        self.planner_values(PlannerValues {
            spaces_intra_s: m.spaces_intra_seconds,
            segment_dp_s: m.segment_dp_seconds,
            merge_s: m.merge_seconds,
            compose_s: m.compose_seconds,
            prune_s: m.prune_seconds,
            edge_matrices_s: m.edge_matrices_seconds,
            bellman_relaxations: bellman as f64,
            merge_relaxations: m.merge_relaxations as f64,
            states_pruned: m.states_pruned as f64,
            thread_utilization: m.thread_utilization(),
            edge_evaluations: m.edge_evaluations as f64,
            intra_evaluations: m.intra_evaluations as f64,
            edge_matrix_hits: (
                m.edge_matrix_cache_hits as f64,
                m.edge_matrix_cache_misses as f64,
            ),
            profile_hits: (m.profile_cache_hits as f64, m.profile_cache_misses as f64),
            warm_matrix_hits: (m.warm_matrix_hits as f64, m.warm_matrix_misses as f64),
        });
    }

    /// [`LayerSamples::planner`] from a served response's `metrics`
    /// registry (`PlannerMetrics::to_metrics` rendered as JSON) and its
    /// `cache` block.
    pub fn planner_json(&mut self, metrics: &Json, cache: Option<&Json>) {
        let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let cache = cache.unwrap_or(&Json::Null);
        let stage = |name: &str| {
            metrics
                .get(&format!("planner.stage.{name}_seconds"))
                .map_or(0.0, |t| num(t, "seconds"))
        };
        let bellman = metrics.as_object().map_or(0.0, |entries| {
            entries
                .iter()
                .filter(|(k, _)| {
                    k.starts_with("planner.segment.") && k.ends_with(".bellman_relaxations")
                })
                .filter_map(|(_, v)| v.as_f64())
                .sum()
        });
        self.planner_values(PlannerValues {
            spaces_intra_s: stage("spaces_intra"),
            segment_dp_s: stage("segment_dp"),
            merge_s: stage("merge"),
            compose_s: stage("compose"),
            prune_s: stage("prune"),
            edge_matrices_s: stage("edge_matrices"),
            bellman_relaxations: bellman,
            merge_relaxations: num(metrics, "planner.merge_relaxations"),
            states_pruned: num(metrics, "planner.prune.states_pruned"),
            thread_utilization: num(metrics, "planner.threads.utilization"),
            edge_evaluations: num(metrics, "planner.edge_evaluations"),
            intra_evaluations: num(metrics, "planner.intra_evaluations"),
            edge_matrix_hits: (
                num(metrics, "planner.cache.edge_matrix.hits"),
                num(metrics, "planner.cache.edge_matrix.misses"),
            ),
            profile_hits: (
                num(metrics, "planner.cache.profile.hits"),
                num(metrics, "planner.cache.profile.misses"),
            ),
            warm_matrix_hits: (
                num(cache, "warm_matrix_hits"),
                num(cache, "warm_matrix_misses"),
            ),
        });
    }

    fn planner_values(&mut self, v: PlannerValues) {
        self.push("search.spaces_intra_ms", v.spaces_intra_s * 1e3);
        self.push("search.segment_dp_ms", v.segment_dp_s * 1e3);
        self.push("search.merge_ms", v.merge_s * 1e3);
        self.push("search.compose_ms", v.compose_s * 1e3);
        self.push("search.prune_ms", v.prune_s * 1e3);
        self.push("search.bellman_relaxations", v.bellman_relaxations);
        self.push("search.merge_relaxations", v.merge_relaxations);
        self.push("search.states_pruned", v.states_pruned);
        self.push("search.thread_utilization", v.thread_utilization);
        self.push("cost.edge_matrices_ms", v.edge_matrices_s * 1e3);
        self.push("cost.edge_evaluations", v.edge_evaluations);
        self.push("cost.intra_evaluations", v.intra_evaluations);
        let (hits, misses) = v.edge_matrix_hits;
        self.ratio("cost.edge_matrix_hit_ratio", hits, hits + misses);
        let (hits, misses) = v.profile_hits;
        self.ratio("cost.profile_hit_ratio", hits, hits + misses);
        let (hits, misses) = v.warm_matrix_hits;
        self.ratio("cost.warm_matrix_hit_ratio", hits, hits + misses);
    }

    /// Every sampled metric by name: medians of per-op samples, ratios of
    /// the summed parts (0 when the layer saw nothing to count), and the
    /// values set once.
    pub fn finish(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, values) in &self.per_op {
            out.insert(name.to_string(), crate::stats::median(values));
        }
        for (name, &(num, den)) in &self.ratios {
            out.insert(name.to_string(), if den > 0.0 { num / den } else { 0.0 });
        }
        for (name, &value) in &self.values {
            out.insert(name.to_string(), value);
        }
        out
    }
}

struct PlannerValues {
    spaces_intra_s: f64,
    segment_dp_s: f64,
    merge_s: f64,
    compose_s: f64,
    prune_s: f64,
    edge_matrices_s: f64,
    bellman_relaxations: f64,
    merge_relaxations: f64,
    states_pruned: f64,
    thread_utilization: f64,
    edge_evaluations: f64,
    intra_evaluations: f64,
    edge_matrix_hits: (f64, f64),
    profile_hits: (f64, f64),
    warm_matrix_hits: (f64, f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_clamps_them_inside_parents() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let root = t.span_us("op", "search", 100.0, 1000.0, None);
        t.span_us("edge_matrices", "cost", 100.0, 600.0, Some(root));
        // Starts inside the parent but would overrun it: clamped to 300 µs.
        t.span_us("segment_dp", "search", 800.0, 5000.0, Some(root));
        assert_eq!(t.spans[2].dur_us, 300.0);
        let self_ms = t.self_time_ms();
        assert!((self_ms["cost"] - 0.6).abs() < 1e-9);
        // 100 µs of the root itself plus the 300 µs DP child.
        assert!((self_ms["search"] - 0.4).abs() < 1e-9);
        let events = t.chrome_events(3);
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.pid == 3));
        assert_eq!(events[1].cat, "cost");
    }

    #[test]
    fn samples_report_medians_and_summed_ratios() {
        let mut s = LayerSamples::default();
        for v in [3.0, 1.0, 2.0] {
            s.push("search.segment_dp_ms", v);
        }
        s.ratio("service.hit_ratio", 1.0, 4.0);
        s.ratio("service.hit_ratio", 2.0, 2.0);
        s.ratio("cost.warm_matrix_hit_ratio", 0.0, 0.0);
        s.set("sim.sweep_ms", 7.5);
        let out = s.finish();
        assert_eq!(out["search.segment_dp_ms"], 2.0);
        assert_eq!(out["service.hit_ratio"], 0.5);
        assert_eq!(out["cost.warm_matrix_hit_ratio"], 0.0);
        assert_eq!(out["sim.sweep_ms"], 7.5);
    }
}
