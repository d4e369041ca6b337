//! Chrome-trace export of simulated timelines.
//!
//! [`chrome_trace`] maps a [`Timeline`] onto `trace_event` spans — one lane
//! (`tid`) per `(operator, event kind)` pair in first-appearance order, the
//! same lane assignment as [`render_gantt`](crate::render_gantt) — so the
//! paper's Fig. 9 kernel timelines open directly in `chrome://tracing` or
//! Perfetto. [`timeline_from_trace`] inverts the mapping exactly: the span
//! `args` carry the original `f64` start/duration in seconds (rendered in
//! shortest-round-trip form), so export → parse reproduces every
//! [`TimelineEvent`] bit for bit. [`render_chrome_trace`] writes a walk's
//! [`LayerReport`] as the one trace document: those spans plus the cluster
//! accounting's counter lanes.

use primepar_obs::{Json, Metrics, SchemaError, TraceEvent, TracePhase};
use primepar_partition::Phase;
use primepar_topology::LinkClass;

use crate::{ClusterAccounting, EventKind, LayerReport, Timeline, TimelineEvent};

/// `pid` used for all simulator spans (one simulated device timeline).
const SIM_PID: u64 = 1;

/// First `tid` of the counter lanes emitted by
/// [`chrome_trace_with_accounting`] — far above any span lane.
const COUNTER_TID_BASE: u64 = 1000;

/// The `cat` spelling of each event kind and the `args.phase` spelling of
/// each phase: written by [`chrome_trace`], read back by
/// [`timeline_from_trace`].
const KINDS: [(EventKind, &str); 4] = [
    (EventKind::Compute, "compute"),
    (EventKind::Ring, "ring"),
    (EventKind::AllReduce, "allreduce"),
    (EventKind::Redistribution, "redistribution"),
];
const PHASES: [(Phase, &str); 3] = [
    (Phase::Forward, "forward"),
    (Phase::Backward, "backward"),
    (Phase::Gradient, "gradient"),
];

fn name_of<T: PartialEq>(table: &[(T, &'static str)], value: T) -> &'static str {
    let entry = table.iter().find(|(v, _)| *v == value);
    entry.expect("the tables name every variant").1
}

fn named<T: Copy>(table: &[(T, &str)], name: &str) -> Option<T> {
    table.iter().find(|(_, n)| *n == name).map(|(v, _)| *v)
}

/// Maps a timeline onto Chrome `trace_event` spans: `name` is the operator,
/// `cat` the event kind, `tid` the `(op, kind)` lane in first-appearance
/// order, `ts`/`dur` microseconds. `args` carries the phase and the exact
/// second-resolution start/duration used by [`timeline_from_trace`].
pub fn chrome_trace(timeline: &Timeline) -> Vec<TraceEvent> {
    let mut lanes: Vec<(String, EventKind)> = Vec::new();
    timeline
        .iter()
        .map(|ev| {
            let lane = lanes
                .iter()
                .position(|(op, kind)| *op == ev.op && *kind == ev.kind)
                .unwrap_or_else(|| {
                    lanes.push((ev.op.clone(), ev.kind));
                    lanes.len() - 1
                });
            TraceEvent {
                name: ev.op.clone(),
                cat: name_of(&KINDS, ev.kind).to_string(),
                ph: TracePhase::Complete,
                pid: SIM_PID,
                tid: lane as u64,
                ts_us: ev.start * 1e6,
                dur_us: ev.duration * 1e6,
                args: vec![
                    (
                        "phase".to_string(),
                        Json::Str(name_of(&PHASES, ev.phase).to_string()),
                    ),
                    ("start_s".to_string(), Json::Num(ev.start)),
                    ("dur_s".to_string(), Json::Num(ev.duration)),
                ],
            }
        })
        .collect()
}

/// Reconstructs the timeline from exported spans — the exact inverse of
/// [`chrome_trace`] thanks to the `start_s`/`dur_s` args. Counter lanes
/// (the accounting series added by [`chrome_trace_with_accounting`]) are
/// skipped: they carry no kernel spans.
///
/// # Errors
///
/// Returns [`SchemaError::Shape`] when a span is missing the simulator args
/// or names an unknown phase or event kind.
pub fn timeline_from_trace(events: &[TraceEvent]) -> Result<Timeline, SchemaError> {
    events
        .iter()
        .enumerate()
        .filter(|(_, ev)| ev.ph != TracePhase::Counter)
        .map(|(i, ev)| timeline_event(ev).map_err(|e| e.at(&format!("traceEvents[{i}]"))))
        .collect()
}

fn timeline_event(ev: &TraceEvent) -> Result<TimelineEvent, SchemaError> {
    let args = Json::Obj(ev.args.clone());
    let in_args = |e: SchemaError| e.at("args");
    let unknown = |path: &str| SchemaError::shape(path, "has an unknown value");
    Ok(TimelineEvent {
        op: ev.name.clone(),
        phase: named(&PHASES, args.req("phase").map_err(in_args)?)
            .ok_or_else(|| unknown("args.phase"))?,
        kind: named(&KINDS, &ev.cat).ok_or_else(|| unknown("cat"))?,
        start: args.req("start_s").map_err(in_args)?,
        duration: args.req("dur_s").map_err(in_args)?,
    })
}

/// Parses a rendered Chrome trace back into a timeline.
///
/// # Errors
///
/// Returns [`SchemaError`] on invalid JSON, a malformed trace document, or
/// spans that are not simulator exports.
pub fn parse_chrome_trace(text: &str) -> Result<Timeline, SchemaError> {
    timeline_from_trace(&primepar_obs::parse_trace(text)?)
}

fn link_class_name(class: LinkClass) -> &'static str {
    match class {
        LinkClass::Loopback => "loopback",
        LinkClass::IntraNode => "intra_node",
        LinkClass::InterNode => "inter_node",
    }
}

fn counter_event(name: &str, tid: u64, time_s: f64, key: &str, value: f64) -> TraceEvent {
    TraceEvent {
        name: name.to_string(),
        cat: "counter".to_string(),
        ph: TracePhase::Counter,
        pid: SIM_PID,
        tid,
        ts_us: time_s * 1e6,
        dur_us: 0.0,
        args: vec![(key.to_string(), Json::Num(value))],
    }
}

/// The kernel spans of [`chrome_trace`] plus counter lanes from the cluster
/// accounting: per-device live memory (`sim.memory.live_bytes`) and one
/// cumulative-wire-bytes lane per link class (`sim.link.<class>.bytes`).
/// [`timeline_from_trace`] skips the counter lanes, so the span round-trip
/// is unchanged.
pub fn chrome_trace_with_accounting(report: &LayerReport) -> Vec<TraceEvent> {
    let mut events = chrome_trace(&report.timeline);
    let acct = &report.accounting;
    for s in &acct.memory_timeline {
        events.push(counter_event(
            "sim.memory.live_bytes",
            COUNTER_TID_BASE,
            s.time_s,
            "bytes",
            s.bytes,
        ));
    }
    for (i, link) in acct.links.iter().enumerate() {
        let name = format!("sim.link.{}.bytes", link_class_name(link.class));
        for s in &link.cumulative {
            events.push(counter_event(
                &name,
                COUNTER_TID_BASE + 1 + i as u64,
                s.time_s,
                "bytes",
                s.bytes,
            ));
        }
    }
    events
}

/// Renders a walk as a Chrome/Perfetto-loadable `primepar.trace.v1`
/// document: the spans-plus-counters trace of
/// [`chrome_trace_with_accounting`].
pub fn render_chrome_trace(report: &LayerReport) -> String {
    primepar_obs::render_trace(&chrome_trace_with_accounting(report))
}

/// The accounting section of [`layer_report_metrics`]: `sim.link.*`,
/// `sim.collective.*.wire_bytes` and `sim.memory.*`.
fn accounting_metrics(acct: &ClusterAccounting, layer_time: f64) -> Metrics {
    let mut m = Metrics::new();
    for link in &acct.links {
        let p = format!("sim.link.{}", link_class_name(link.class));
        m.gauge(&format!("{p}.bytes"), link.bytes);
        m.incr(&format!("{p}.transfers"), link.transfers);
        m.gauge(&format!("{p}.busy_seconds"), link.busy_seconds);
        m.gauge(&format!("{p}.occupancy"), link.occupancy(layer_time));
    }
    for c in &acct.collectives {
        let p = format!("sim.collective.{}", name_of(&KINDS, c.kind));
        m.gauge(&format!("{p}.wire_bytes"), c.wire_bytes);
    }
    m.gauge("sim.memory.peak_bytes", acct.peak_memory_bytes());
    m.incr("sim.memory.samples", acct.memory_timeline.len() as u64);
    m
}

/// Folds a simulated layer report into an observability registry under
/// `sim.*`: per-iteration breakdown totals, latency, memory, event counts,
/// and the cluster accounting's links, wire bytes and memory timeline.
pub fn layer_report_metrics(report: &LayerReport) -> Metrics {
    let mut m = Metrics::new();
    m.gauge("sim.layer_time_seconds", report.layer_time);
    m.gauge("sim.breakdown.compute_seconds", report.breakdown.compute);
    m.gauge(
        "sim.breakdown.collective_seconds",
        report.breakdown.collective,
    );
    m.gauge(
        "sim.breakdown.ring_total_seconds",
        report.breakdown.ring_total,
    );
    m.gauge(
        "sim.breakdown.ring_exposed_seconds",
        report.breakdown.ring_exposed,
    );
    m.gauge(
        "sim.breakdown.redistribution_seconds",
        report.breakdown.redistribution,
    );
    m.gauge("sim.breakdown.total_seconds", report.breakdown.total());
    m.gauge("sim.peak_memory_bytes", report.peak_memory_bytes);
    m.gauge("sim.persistent_bytes", report.persistent_bytes);
    m.gauge("sim.stash_bytes", report.stash_bytes);
    m.incr("sim.timeline.events", report.timeline.len() as u64);
    for ev in &report.timeline {
        m.incr(
            &format!("sim.timeline.{}_events", name_of(&KINDS, ev.kind)),
            1,
        );
        m.observe(
            &format!("sim.timeline.{}_seconds", name_of(&KINDS, ev.kind)),
            ev.duration,
        );
    }
    m.merge(&accounting_metrics(&report.accounting, report.layer_time));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_timeline() -> Timeline {
        vec![
            TimelineEvent {
                op: "fc1".into(),
                phase: Phase::Forward,
                kind: EventKind::Compute,
                start: 0.0,
                duration: 0.125e-3,
            },
            TimelineEvent {
                op: "fc1".into(),
                phase: Phase::Forward,
                kind: EventKind::Ring,
                start: 0.0,
                duration: 0.1e-3, // not exactly representable: exercises round-trip
            },
            TimelineEvent {
                op: "fc2".into(),
                phase: Phase::Backward,
                kind: EventKind::AllReduce,
                start: 0.125e-3,
                duration: 0.25e-3,
            },
        ]
    }

    #[test]
    fn lanes_match_gantt_order() {
        let spans = chrome_trace(&sample_timeline());
        // (fc1, compute) -> 0, (fc1, ring) -> 1, (fc2, allreduce) -> 2.
        assert_eq!(
            spans.iter().map(|s| s.tid).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(spans[1].cat, "ring");
        assert!((spans[2].ts_us - 125.0).abs() < 1e-9);
    }

    #[test]
    fn rendered_trace_roundtrips_exactly() {
        let tl = sample_timeline();
        let text = primepar_obs::render_trace(&chrome_trace(&tl));
        assert_eq!(parse_chrome_trace(&text).unwrap(), tl);
    }

    #[test]
    fn foreign_spans_are_rejected() {
        let mut spans = chrome_trace(&sample_timeline());
        spans[0].cat = "mystery".into();
        assert!(matches!(
            timeline_from_trace(&spans),
            Err(SchemaError::Shape { .. })
        ));
        let mut spans = chrome_trace(&sample_timeline());
        spans[0].args.clear();
        assert!(matches!(
            timeline_from_trace(&spans),
            Err(SchemaError::Shape { .. })
        ));
    }

    #[test]
    fn real_simulation_exports_and_reloads() {
        use primepar_graph::ModelConfig;
        use primepar_search::megatron_layer_plan;
        use primepar_topology::Cluster;

        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
        let report = crate::simulate_layer(&cluster, &graph, &megatron_layer_plan(&graph, 1, 4));
        let text = render_chrome_trace(&report);
        assert_eq!(parse_chrome_trace(&text).unwrap(), report.timeline);

        let m = layer_report_metrics(&report);
        assert!(m.counter("sim.timeline.events") > 0);
        assert!(m.gauge_value("sim.breakdown.total_seconds").unwrap() > 0.0);
    }

    #[test]
    fn empty_timeline_traces_to_empty_array() {
        let tl: Timeline = Vec::new();
        assert!(chrome_trace(&tl).is_empty());
        let text = primepar_obs::render_trace(&chrome_trace(&tl));
        assert_eq!(parse_chrome_trace(&text).unwrap(), tl);
    }

    #[test]
    fn counter_lanes_are_skipped_by_timeline_roundtrip() {
        use primepar_graph::ModelConfig;
        use primepar_search::megatron_layer_plan;
        use primepar_topology::Cluster;

        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
        let report = crate::simulate_layer(&cluster, &graph, &megatron_layer_plan(&graph, 1, 4));

        let events = chrome_trace_with_accounting(&report);
        let counters = events
            .iter()
            .filter(|e| e.ph == TracePhase::Counter)
            .count();
        assert!(counters > 0, "accounting should add counter lanes");
        assert!(events.iter().any(|e| e.name == "sim.memory.live_bytes"));

        // The full spans-plus-counters document still parses back to the
        // exact timeline: counters are skipped, spans are untouched.
        let text = render_chrome_trace(&report);
        assert_eq!(parse_chrome_trace(&text).unwrap(), report.timeline);
    }

    #[test]
    fn accounting_metrics_report_devices_and_links() {
        use primepar_graph::ModelConfig;
        use primepar_search::megatron_layer_plan;
        use primepar_topology::Cluster;

        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
        let report = crate::simulate_layer(&cluster, &graph, &megatron_layer_plan(&graph, 1, 4));

        let m = layer_report_metrics(&report);
        let acct = &report.accounting;
        let link = &acct.links[0];
        assert_eq!(link.class, LinkClass::IntraNode);
        assert_eq!(
            m.gauge_value("sim.link.intra_node.bytes"),
            Some(acct.total_wire_bytes())
        );
        assert_eq!(m.counter("sim.link.intra_node.transfers"), link.transfers);
        assert_eq!(
            m.gauge_value("sim.link.intra_node.occupancy"),
            Some(link.busy_seconds / report.layer_time)
        );
        assert_eq!(
            m.gauge_value("sim.collective.allreduce.wire_bytes"),
            Some(acct.wire_bytes_of(EventKind::AllReduce))
        );
        assert!(acct.wire_bytes_of(EventKind::AllReduce) > 0.0);
        assert_eq!(
            m.gauge_value("sim.memory.peak_bytes"),
            Some(report.peak_memory_bytes)
        );
        assert_eq!(
            m.counter("sim.memory.samples"),
            acct.memory_timeline.len() as u64
        );
    }
}
