//! A lightweight metrics registry: counters, gauges, histograms, timers.
//!
//! Metric names are dotted paths (`"planner.segment_dp_seconds"`). The
//! registry preserves first-insertion order so rendered JSON is stable across
//! runs, which keeps machine-readable artifacts diffable.

use crate::json::Json;

/// Histogram summary statistics: count / sum / min / max plus the
/// nearest-rank p50/p95/p99 percentiles (mean derived).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramStats {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Median (nearest-rank, 0 when empty).
    pub p50: f64,
    /// 95th percentile (nearest-rank, 0 when empty).
    pub p95: f64,
    /// 99th percentile (nearest-rank, 0 when empty).
    pub p99: f64,
}

impl HistogramStats {
    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Raw histogram state: every observation is retained so merged registries
/// report exact percentiles instead of approximations.
#[derive(Debug, Clone, PartialEq, Default)]
struct HistogramData {
    samples: Vec<f64>,
}

impl HistogramData {
    fn observe(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Nearest-rank percentile: the smallest observation such that at least
    /// `q` percent of the data is ≤ it (`⌈q/100 · n⌉`-th order statistic).
    fn percentile(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    fn stats(&self) -> HistogramStats {
        if self.samples.is_empty() {
            return HistogramStats::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
        HistogramStats {
            count: sorted.len() as u64,
            sum: sorted.iter().sum(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: Self::percentile(&sorted, 50.0),
            p95: Self::percentile(&sorted, 95.0),
            p99: Self::percentile(&sorted, 99.0),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramData),
    /// Accumulated time: total seconds and number of recorded durations
    /// (rendered as `spans`).
    Timer {
        seconds: f64,
        spans: u64,
    },
    Text(String),
}

/// The registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, Value)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn slot(&mut self, name: &str, default: Value) -> &mut Value {
        if let Some(idx) = self.entries.iter().position(|(k, _)| k == name) {
            &mut self.entries[idx].1
        } else {
            self.entries.push((name.to_string(), default));
            &mut self.entries.last_mut().expect("just pushed").1
        }
    }

    /// Adds `by` to the counter `name` (creating it at zero).
    pub fn incr(&mut self, name: &str, by: u64) {
        match self.slot(name, Value::Counter(0)) {
            Value::Counter(c) => *c += by,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Sets the gauge `name`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        *self.slot(name, Value::Gauge(0.0)) = Value::Gauge(value);
    }

    /// Sets the informational text field `name`.
    pub fn text(&mut self, name: &str, value: &str) {
        *self.slot(name, Value::Text(String::new())) = Value::Text(value.to_string());
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self.slot(name, Value::Histogram(HistogramData::default())) {
            Value::Histogram(h) => h.observe(value),
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    /// Accumulates an externally measured duration into the timer `name`.
    pub fn record_seconds(&mut self, name: &str, seconds: f64) {
        match self.slot(
            name,
            Value::Timer {
                seconds: 0.0,
                spans: 0,
            },
        ) {
            Value::Timer {
                seconds: total,
                spans,
            } => {
                *total += seconds;
                *spans += 1;
            }
            other => panic!("metric `{name}` is not a timer: {other:?}"),
        }
    }

    /// The counter's current value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.lookup(name) {
            Some(Value::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// The gauge's current value, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.lookup(name) {
            Some(Value::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// The text field's current value, if set.
    pub fn text_value(&self, name: &str) -> Option<&str> {
        match self.lookup(name) {
            Some(Value::Text(t)) => Some(t.as_str()),
            _ => None,
        }
    }

    /// Total accumulated seconds of the timer `name` (0 if absent).
    pub fn timer_seconds(&self, name: &str) -> f64 {
        match self.lookup(name) {
            Some(Value::Timer { seconds, .. }) => *seconds,
            _ => 0.0,
        }
    }

    /// The histogram's summary, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<HistogramStats> {
        match self.lookup(name) {
            Some(Value::Histogram(h)) if !h.samples.is_empty() => Some(h.stats()),
            _ => None,
        }
    }

    /// An arbitrary nearest-rank percentile of the histogram `name`
    /// (`q` in percent, clamped to `[0, 100]`), beyond the fixed
    /// p50/p95/p99 trio in [`HistogramStats`]. `None` when the histogram is
    /// absent or empty.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        match self.lookup(name) {
            Some(Value::Histogram(h)) if !h.samples.is_empty() => {
                let mut sorted = h.samples.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
                Some(HistogramData::percentile(&sorted, q.clamp(0.0, 100.0)))
            }
            _ => None,
        }
    }

    fn lookup(&self, name: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// All metric names, in first-insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Folds another registry into this one: counters/timers/histograms
    /// accumulate, gauges/text take the other's value.
    ///
    /// # Panics
    ///
    /// Panics when a key exists in both registries under different metric
    /// types — a cross-type collision is a schema bug, not mergeable data.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, value) in &other.entries {
            match value {
                Value::Counter(c) => self.incr(name, *c),
                Value::Gauge(g) => self.gauge(name, *g),
                Value::Text(t) => self.text(name, t),
                Value::Timer { seconds, spans } => {
                    match self.slot(
                        name,
                        Value::Timer {
                            seconds: 0.0,
                            spans: 0,
                        },
                    ) {
                        Value::Timer {
                            seconds: total,
                            spans: n,
                        } => {
                            *total += seconds;
                            *n += spans;
                        }
                        other => panic!("metric `{name}` is not a timer: {other:?}"),
                    }
                }
                Value::Histogram(h) => {
                    match self.slot(name, Value::Histogram(HistogramData::default())) {
                        Value::Histogram(mine) => mine.samples.extend_from_slice(&h.samples),
                        other => panic!("metric `{name}` is not a histogram: {other:?}"),
                    }
                }
            }
        }
    }

    /// Renders the registry as a flat JSON object: counters and gauges as
    /// numbers, timers as `{seconds, spans}`, histograms as
    /// `{count, sum, min, max, mean, p50, p95, p99}`.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        for (name, value) in &self.entries {
            let v = match value {
                Value::Counter(c) => Json::Num(*c as f64),
                Value::Gauge(g) => Json::Num(*g),
                Value::Text(t) => Json::Str(t.clone()),
                Value::Timer { seconds, spans } => {
                    Json::obj().with("seconds", *seconds).with("spans", *spans)
                }
                Value::Histogram(data) => {
                    let h = data.stats();
                    Json::obj()
                        .with("count", h.count)
                        .with("sum", h.sum)
                        .with("min", h.min)
                        .with("max", h.max)
                        .with("mean", h.mean())
                        .with("p50", h.p50)
                        .with("p95", h.p95)
                        .with("p99", h.p99)
                }
            };
            doc.set(name, v);
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("a", 2);
        m.incr("a", 3);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn histogram_summary_is_correct() {
        let mut m = Metrics::new();
        for v in [2.0, 8.0, 5.0] {
            m.observe("h", v);
        }
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 8.0);
        assert!((h.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_pin_nearest_rank_on_known_distribution() {
        // 1..=100 inserted in reverse: p-th percentile is exactly p.
        let mut m = Metrics::new();
        for v in (1..=100).rev() {
            m.observe("h", v as f64);
        }
        let h = m.histogram("h").unwrap();
        assert_eq!(h.p50, 50.0);
        assert_eq!(h.p95, 95.0);
        assert_eq!(h.p99, 99.0);
        assert_eq!((h.min, h.max), (1.0, 100.0));
    }

    #[test]
    fn histogram_quantile_matches_fixed_percentiles_and_extends_them() {
        let mut m = Metrics::new();
        for v in (1..=100).rev() {
            m.observe("h", v as f64);
        }
        let h = m.histogram("h").unwrap();
        assert_eq!(m.histogram_quantile("h", 50.0), Some(h.p50));
        assert_eq!(m.histogram_quantile("h", 95.0), Some(h.p95));
        assert_eq!(m.histogram_quantile("h", 99.0), Some(h.p99));
        // Beyond the fixed trio: p90 and the clamped extremes.
        assert_eq!(m.histogram_quantile("h", 90.0), Some(90.0));
        assert_eq!(m.histogram_quantile("h", 100.0), Some(100.0));
        assert_eq!(m.histogram_quantile("h", -5.0), Some(1.0));
        assert_eq!(m.histogram_quantile("h", 400.0), Some(100.0));
        assert_eq!(m.histogram_quantile("absent", 50.0), None);
    }

    #[test]
    fn percentiles_of_small_histograms() {
        // Single observation: every percentile is that value.
        let mut m = Metrics::new();
        m.observe("one", 7.5);
        let h = m.histogram("one").unwrap();
        assert_eq!((h.p50, h.p95, h.p99), (7.5, 7.5, 7.5));
        // Two observations: nearest-rank p50 is the lower one (⌈0.5·2⌉ = 1st).
        let mut m = Metrics::new();
        m.observe("two", 10.0);
        m.observe("two", 4.0);
        let h = m.histogram("two").unwrap();
        assert_eq!(h.p50, 4.0);
        assert_eq!(h.p95, 10.0);
        assert_eq!(h.p99, 10.0);
    }

    #[test]
    fn percentiles_survive_merge() {
        // Percentiles of a merged registry equal percentiles of the union of
        // the raw samples — the registry retains samples, not summaries.
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        for v in 1..=50 {
            a.observe("h", v as f64);
        }
        for v in 51..=100 {
            b.observe("h", v as f64);
        }
        a.merge(&b);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!((h.p50, h.p95, h.p99), (50.0, 95.0, 99.0));
    }

    #[test]
    fn spans_accumulate_time() {
        let mut m = Metrics::new();
        m.record_seconds("t", 0.25);
        m.record_seconds("t", 1.0);
        assert_eq!(m.timer_seconds("t"), 1.25);
    }

    #[test]
    fn merge_accumulates_and_overrides() {
        let mut a = Metrics::new();
        a.incr("c", 1);
        a.gauge("g", 1.0);
        a.observe("h", 1.0);
        let mut b = Metrics::new();
        b.incr("c", 2);
        b.gauge("g", 9.0);
        b.observe("h", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge_value("g"), Some(9.0));
        let h = a.histogram("h").unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 1.0, 3.0));
    }

    #[test]
    fn merging_empty_registries_is_identity() {
        // empty ⊕ empty stays empty.
        let mut empty = Metrics::new();
        empty.merge(&Metrics::new());
        assert!(empty.is_empty());
        assert_eq!(empty, Metrics::new());

        // populated ⊕ empty is unchanged.
        let mut a = Metrics::new();
        a.incr("c", 2);
        a.observe("h", 1.5);
        let before = a.clone();
        a.merge(&Metrics::new());
        assert_eq!(a, before);

        // empty ⊕ populated copies everything, including histogram samples.
        let mut fresh = Metrics::new();
        fresh.merge(&before);
        assert_eq!(fresh, before);
        assert_eq!(fresh.histogram("h").unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn merge_panics_on_counter_gauge_collision() {
        let mut a = Metrics::new();
        a.gauge("k", 1.0);
        let mut b = Metrics::new();
        b.incr("k", 1);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "is not a histogram")]
    fn merge_panics_on_histogram_timer_collision() {
        let mut a = Metrics::new();
        a.record_seconds("k", 1.0);
        let mut b = Metrics::new();
        b.observe("k", 1.0);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "is not a timer")]
    fn merge_panics_on_timer_text_collision() {
        let mut a = Metrics::new();
        a.text("k", "hello");
        let mut b = Metrics::new();
        b.record_seconds("k", 1.0);
        a.merge(&b);
    }

    #[test]
    fn json_rendering_is_stable_and_parsable() {
        let mut m = Metrics::new();
        m.incr("z.count", 1);
        m.gauge("a.value", 2.5);
        m.text("note", "hello");
        m.record_seconds("t", 0.25);
        let doc = m.to_json();
        // Insertion order, not alphabetical.
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z.count", "a.value", "note", "t"]);
        let parsed = crate::parse_json(&doc.render()).unwrap();
        assert_eq!(
            parsed
                .get("t")
                .and_then(|t| t.get("seconds"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
    }

    #[test]
    fn json_histograms_carry_percentiles() {
        let mut m = Metrics::new();
        for v in 1..=20 {
            m.observe("h", v as f64);
        }
        let doc = m.to_json();
        let h = doc.get("h").unwrap();
        assert_eq!(h.get("count").and_then(Json::as_f64), Some(20.0));
        assert_eq!(h.get("p50").and_then(Json::as_f64), Some(10.0));
        assert_eq!(h.get("p95").and_then(Json::as_f64), Some(19.0));
        assert_eq!(h.get("p99").and_then(Json::as_f64), Some(20.0));
        assert_eq!(h.get("mean").and_then(Json::as_f64), Some(10.5));
    }
}
