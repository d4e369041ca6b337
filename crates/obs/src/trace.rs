//! Chrome `trace_event` export: complete (`"ph": "X"`) duration spans and
//! counter (`"ph": "C"`) samples in the JSON object format that
//! `chrome://tracing` and Perfetto load directly (a `traceEvents` array plus
//! top-level metadata — here the [`TRACE_SCHEMA`] version tag).
//!
//! Timestamps and durations are microseconds per the trace-event spec; `pid`
//! groups a whole export and `tid` carries the lane (e.g. one lane per
//! operator × event-kind in the simulator's timeline export). Counter events
//! render their `args` as the plotted series and carry no duration.

use crate::json::{parse_json, Json, SchemaError};

/// Version tag stamped on every emitted trace document.
pub const TRACE_SCHEMA: &str = "primepar.trace.v1";

/// Which `trace_event` phase an event renders as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TracePhase {
    /// A complete duration span (`"ph": "X"`).
    #[default]
    Complete,
    /// A counter sample (`"ph": "C"`): the viewer plots each numeric `args`
    /// entry as a stacked series at `ts`.
    Counter,
}

impl TracePhase {
    fn as_str(self) -> &'static str {
        match self {
            TracePhase::Complete => "X",
            TracePhase::Counter => "C",
        }
    }
}

/// One trace event: a complete (`X`) span or a counter (`C`) sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name (rendered on the block; counter lane name for `C` events).
    pub name: String,
    /// Category string (comma-separated in the spec; used for filtering).
    pub cat: String,
    /// Event phase: complete span or counter sample.
    pub ph: TracePhase,
    /// Process id lane group.
    pub pid: u64,
    /// Thread id — the lane within the process group.
    pub tid: u64,
    /// Start, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds (0 for counter samples; they have no extent).
    pub dur_us: f64,
    /// Extra key/value payload (`args` in the viewer; the plotted series of
    /// a counter event).
    pub args: Vec<(String, Json)>,
}

impl TraceEvent {
    fn to_json(&self) -> Json {
        // Counter events carry no `dur` per the trace-event spec.
        Json::obj()
            .with("name", self.name.as_str())
            .with("cat", self.cat.as_str())
            .with("ph", self.ph.as_str())
            .with("ts", self.ts_us)
            .with_opt(
                "dur",
                (self.ph == TracePhase::Complete).then_some(self.dur_us),
            )
            .with("pid", self.pid)
            .with("tid", self.tid)
            .with("args", Json::Obj(self.args.clone()))
    }
}

/// Renders events as a Chrome-loadable JSON object: a `schema_version` tag
/// plus the `traceEvents` array (the viewer ignores unknown metadata keys).
pub fn render_trace(events: &[TraceEvent]) -> String {
    Json::tagged(TRACE_SCHEMA)
        .with(
            "traceEvents",
            Json::Arr(events.iter().map(TraceEvent::to_json).collect()),
        )
        .render_pretty()
}

/// Parses a [`TRACE_SCHEMA`] document back into events, validating the
/// `trace_event` contract: every element of `traceEvents` must be an object
/// with a string `name`, `"ph"` either `"X"` (with numeric `dur`) or `"C"`
/// (no duration), numeric `ts` and integer `pid`/`tid`.
///
/// # Errors
///
/// Returns [`SchemaError`] on invalid JSON, a missing or wrong tag, or a
/// non-conforming event.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, SchemaError> {
    let doc = parse_json(text)?;
    doc.check_schema(TRACE_SCHEMA)?;
    doc.req_items("traceEvents", trace_event)
}

fn trace_event(item: &Json) -> Result<TraceEvent, SchemaError> {
    let ph = match item.req::<&str>("ph")? {
        "X" => TracePhase::Complete,
        "C" => TracePhase::Counter,
        _ => return Err(SchemaError::shape("ph", "must be \"X\" or \"C\"")),
    };
    let dur_us = match ph {
        TracePhase::Complete => item.req("dur")?,
        TracePhase::Counter if item.get("dur").is_some() => {
            return Err(SchemaError::shape(
                "dur",
                "must be absent on counter events",
            ))
        }
        TracePhase::Counter => 0.0,
    };
    // The parser yields finite numbers only: a negative span is the one defect left.
    if dur_us < 0.0 {
        return Err(SchemaError::shape("dur", "must not be negative"));
    }
    Ok(TraceEvent {
        name: item.req("name")?,
        cat: item.opt("cat")?.unwrap_or_default(),
        ph,
        pid: item.req("pid")?,
        tid: item.req("tid")?,
        ts_us: item.req("ts")?,
        dur_us,
        args: item
            .opt::<&[(String, Json)]>("args")?
            .map_or_else(Vec::new, <[_]>::to_vec),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u64, ts: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: "compute".into(),
            ph: TracePhase::Complete,
            pid: 1,
            tid,
            ts_us: ts,
            dur_us: dur,
            args: vec![("phase".into(), Json::Str("fwd".into()))],
        }
    }

    fn counter(name: &str, ts: f64, value: f64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: "memory".into(),
            ph: TracePhase::Counter,
            pid: 1,
            tid: 99,
            ts_us: ts,
            dur_us: 0.0,
            args: vec![("bytes".into(), Json::Num(value))],
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let events = vec![ev("fc1", 0, 0.0, 12.5), ev("fc2", 1, 12.5, 3.25)];
        let text = render_trace(&events);
        assert_eq!(parse_trace(&text).unwrap(), events);
    }

    #[test]
    fn rendered_trace_is_a_tagged_object_of_x_events() {
        let text = render_trace(&[ev("a", 0, 0.0, 1.0)]);
        let doc = parse_json(&text).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_str),
            Some(TRACE_SCHEMA)
        );
        let items = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].get("ph").and_then(Json::as_str), Some("X"));
        for key in ["name", "ts", "dur", "pid", "tid"] {
            assert!(items[0].get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn parser_rejects_legacy_arrays_and_wrong_versions() {
        let events = vec![ev("fc1", 0, 0.0, 12.5)];
        let tagged = render_trace(&events);
        let doc = parse_json(&tagged).unwrap();
        // The pre-versioning export was the bare array: no longer a trace.
        let legacy = doc.get("traceEvents").unwrap().render();
        assert!(matches!(
            parse_trace(&legacy),
            Err(SchemaError::Shape { .. })
        ));
        // A present-but-wrong tag is a hard error.
        let wrong = tagged.replace(TRACE_SCHEMA, "primepar.trace.v0");
        assert!(matches!(
            parse_trace(&wrong),
            Err(SchemaError::Shape { .. })
        ));
    }

    #[test]
    fn counter_events_roundtrip_without_dur() {
        let events = vec![
            counter("live_bytes", 0.0, 1.5e9),
            ev("fc1", 0, 0.0, 12.5),
            counter("live_bytes", 12.5, 2.0e9),
        ];
        let text = render_trace(&events);
        // Counter samples render as `"ph": "C"` with no `dur` field.
        let doc = parse_json(&text).unwrap();
        let items = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(items[0].get("ph").and_then(Json::as_str), Some("C"));
        assert!(items[0].get("dur").is_none());
        assert!(items[1].get("dur").is_some());
        assert_eq!(parse_trace(&text).unwrap(), events);
    }

    #[test]
    fn parser_rejects_non_traces() {
        let traced = |event: &str| {
            format!("{{\"schema_version\":\"{TRACE_SCHEMA}\",\"traceEvents\":[{event}]}}")
        };
        let shape = |text: &str| matches!(parse_trace(text), Err(SchemaError::Shape { .. }));
        assert!(shape("{}"));
        assert!(shape(&format!("{{\"schema_version\":\"{TRACE_SCHEMA}\"}}")));
        assert!(matches!(
            parse_trace("not json"),
            Err(SchemaError::Syntax(_))
        ));
        assert!(shape(&traced(
            r#"{"name":"a","ph":"B","ts":0,"dur":0,"pid":0,"tid":0}"#
        )));
        assert!(shape(&traced(
            r#"{"name":"a","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}"#
        )));
        // A counter smuggling a duration violates the spec.
        let counter = traced(r#"{"name":"a","ph":"C","ts":0,"dur":1,"pid":0,"tid":0}"#);
        let err = parse_trace(&counter).unwrap_err().to_string();
        assert!(err.contains("traceEvents[0].dur"), "{err}");
    }

    #[test]
    fn empty_trace_roundtrips() {
        assert_eq!(
            parse_trace(&render_trace(&[])).unwrap(),
            Vec::<TraceEvent>::new()
        );
    }
}
