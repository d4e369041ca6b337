//! Structured service events: an append-only JSONL log with trace context.
//!
//! One [`Event`] per line, schema `primepar.events.v1`. Every event carries a
//! severity [`EventLevel`], a timestamp (`ts_us`), the request's
//! `trace_id`/`span_id` pair, a dotted event name, and an ordered list of
//! typed key-value [`FieldValue`]s. The line format round-trips exactly:
//! [`parse_event`]`(`[`render_event`]`(e)) == e` for every constructible
//! event, which the proptest suite pins (including escaped field values).
//!
//! Timestamps come from the sink's [`ClockMode`]: `Wall` stamps microseconds
//! since the log was opened, `Logical` stamps the log's own append sequence
//! number — so two runs of the same request stream produce byte-identical
//! logs, which CI exploits with `cmp`.

use std::fmt;
use std::io::{self, Write};
use std::time::Instant;

use crate::json::{parse_json, Json, SchemaError};

/// Schema tag stamped on every event line.
pub const EVENTS_SCHEMA: &str = "primepar.events.v1";

/// Event severity, rendered lowercase on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventLevel {
    /// Fine-grained tracing detail.
    Debug,
    /// Normal request lifecycle.
    Info,
    /// Something off-nominal, such as a slow request.
    Warn,
    /// A failed or panicked request.
    Error,
}

/// Each level with its wire spelling, in declaration order (`as_str`
/// indexes it by discriminant).
const LEVELS: [(EventLevel, &str); 4] = [
    (EventLevel::Debug, "debug"),
    (EventLevel::Info, "info"),
    (EventLevel::Warn, "warn"),
    (EventLevel::Error, "error"),
];

impl EventLevel {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        LEVELS[self as usize].1
    }

    /// Parses the wire spelling back.
    pub fn parse(text: &str) -> Option<EventLevel> {
        LEVELS.iter().find(|(_, s)| *s == text).map(|(l, _)| *l)
    }
}

impl fmt::Display for EventLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed event field value.
///
/// The JSON number line cannot distinguish `2` from `2.0`, so values are
/// canonical by construction: [`FieldValue::num`] folds integral, in-range
/// floats into [`FieldValue::U64`] and spells non-finite floats as strings.
/// Construct through the typed helpers and the render→parse round trip is
/// exact.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string value.
    Str(String),
    /// A non-negative integer below 2^53 (exact in the JSON number line).
    U64(u64),
    /// A finite float with a fractional part (or out of u64 range).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl FieldValue {
    /// Canonicalizes a float: integral values representable as `u64` become
    /// [`FieldValue::U64`]; non-finite values become their string spelling
    /// (JSON has no NaN/Inf).
    pub fn num(value: f64) -> FieldValue {
        if !value.is_finite() {
            return FieldValue::Str(format!("{value}"));
        }
        if value >= 0.0 && value.fract() == 0.0 && value < 9_007_199_254_740_992.0 {
            return FieldValue::U64(value as u64);
        }
        FieldValue::F64(value)
    }

    fn to_json(&self) -> Json {
        match self {
            FieldValue::Str(s) => Json::Str(s.clone()),
            FieldValue::U64(n) => Json::from(*n),
            FieldValue::F64(x) => Json::from(*x),
            FieldValue::Bool(b) => Json::Bool(*b),
        }
    }

    fn from_json(value: &Json) -> Option<FieldValue> {
        match value {
            Json::Str(s) => Some(FieldValue::Str(s.clone())),
            Json::Bool(b) => Some(FieldValue::Bool(*b)),
            Json::Num(_) => Some(match value.as_u64() {
                Some(n) => FieldValue::U64(n),
                None => FieldValue::F64(value.as_f64()?),
            }),
            _ => None,
        }
    }
}

impl From<&str> for FieldValue {
    fn from(value: &str) -> Self {
        FieldValue::Str(value.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(value: String) -> Self {
        FieldValue::Str(value)
    }
}

impl From<u64> for FieldValue {
    fn from(value: u64) -> Self {
        // `Json` keeps numbers as f64, so counts at or above 2^53 would lose
        // bits on the wire; spell them as strings to stay exact.
        if value < (1u64 << 53) {
            FieldValue::U64(value)
        } else {
            FieldValue::Str(value.to_string())
        }
    }
}

impl From<bool> for FieldValue {
    fn from(value: bool) -> Self {
        FieldValue::Bool(value)
    }
}

impl From<f64> for FieldValue {
    fn from(value: f64) -> Self {
        FieldValue::num(value)
    }
}

/// One structured event: a line of the `primepar.events.v1` log.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Severity.
    pub level: EventLevel,
    /// Timestamp in the sink's clock domain: microseconds since the log
    /// opened (`Wall`) or the append sequence number (`Logical`).
    pub ts_us: u64,
    /// The request's trace context (empty for server-lifecycle events).
    pub trace_id: String,
    /// The span within the trace this event belongs to.
    pub span_id: String,
    /// Dotted event name, e.g. `request.done` or `cache.hit`.
    pub name: String,
    /// Ordered typed payload fields.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// A new event with empty trace context and no fields.
    pub fn new(level: EventLevel, name: impl Into<String>) -> Event {
        Event {
            level,
            ts_us: 0,
            trace_id: String::new(),
            span_id: String::new(),
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Sets the trace context.
    pub fn context(mut self, trace_id: impl Into<String>, span_id: impl Into<String>) -> Event {
        self.trace_id = trace_id.into();
        self.span_id = span_id.into();
        self
    }

    /// Appends a typed field.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<FieldValue>) -> Event {
        self.fields.push((key.into(), value.into()));
        self
    }
}

/// Renders one event as a single JSONL line (no trailing newline).
pub fn render_event(event: &Event) -> String {
    // Build the object directly: `Json::set` would collapse duplicate keys,
    // and the round trip must preserve the field list exactly as recorded.
    let fields = Json::Obj(
        event
            .fields
            .iter()
            .map(|(key, value)| (key.clone(), value.to_json()))
            .collect(),
    );
    Json::tagged(EVENTS_SCHEMA)
        .with("level", event.level.as_str())
        .with("ts_us", event.ts_us)
        .with("trace_id", event.trace_id.as_str())
        .with("span_id", event.span_id.as_str())
        .with("name", event.name.as_str())
        .with("fields", fields)
        .render()
}

/// Parses one JSONL event line.
///
/// # Errors
///
/// [`SchemaError`] for a line that is not JSON, not tagged
/// [`EVENTS_SCHEMA`], or not an event.
pub fn parse_event(line: &str) -> Result<Event, SchemaError> {
    let doc = parse_json(line)?;
    doc.check_schema(EVENTS_SCHEMA)?;
    let level = doc.req::<&str>("level")?;
    let fields = doc
        .req::<&[(String, Json)]>("fields")?
        .iter()
        .map(|(key, value)| match FieldValue::from_json(value) {
            Some(value) => Ok((key.clone(), value)),
            None => Err(SchemaError::shape(
                format!("fields.{key}"),
                "must be a scalar",
            )),
        })
        .collect::<Result<_, _>>()?;
    Ok(Event {
        level: EventLevel::parse(level)
            .ok_or_else(|| SchemaError::shape("level", format!("has unknown value {level:?}")))?,
        ts_us: doc.req("ts_us")?,
        trace_id: doc.req("trace_id")?,
        span_id: doc.req("span_id")?,
        name: doc.req("name")?,
        fields,
    })
}

/// Parses a whole JSONL event log (blank lines are skipped). Errors name the
/// 1-based line of the first defect.
///
/// # Errors
///
/// A [`SchemaError::Shape`] naming the first bad line and its error.
pub fn parse_event_log(text: &str) -> Result<Vec<Event>, SchemaError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            parse_event(line).map_err(|e| SchemaError::shape("", format!("line {}: {e}", i + 1)))
        })
        .collect()
}

/// Timestamp domain of an [`EventLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// `ts_us` = wall microseconds since the log was opened.
    #[default]
    Wall,
    /// `ts_us` = the append sequence number (0, 1, 2…). Two identical
    /// request streams then produce byte-identical logs.
    Logical,
}

/// An append-only JSONL event sink.
///
/// The log owns the clock: [`EventLog::emit`] stamps `ts_us` on the way out,
/// so callers build events with `ts_us = 0` and never read the clock
/// themselves — the only wall-time read is here, behind [`ClockMode`].
pub struct EventLog {
    out: Box<dyn Write + Send>,
    clock: ClockMode,
    origin: Instant,
    seq: u64,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventLog")
            .field("clock", &self.clock)
            .field("seq", &self.seq)
            .finish()
    }
}

impl EventLog {
    /// Opens a log over any writer (a file, a Vec for tests…).
    pub fn new(out: impl Write + Send + 'static, clock: ClockMode) -> EventLog {
        EventLog {
            out: Box::new(out),
            clock,
            origin: Instant::now(),
            seq: 0,
        }
    }

    /// The clock mode the log stamps with.
    pub fn clock(&self) -> ClockMode {
        self.clock
    }

    /// Events appended so far.
    pub fn appended(&self) -> u64 {
        self.seq
    }

    /// Stamps `ts_us` from the log's clock and appends one line.
    pub fn emit(&mut self, mut event: Event) -> io::Result<()> {
        event.ts_us = match self.clock {
            ClockMode::Wall => self.origin.elapsed().as_micros() as u64,
            ClockMode::Logical => self.seq,
        };
        self.seq += 1;
        writeln!(self.out, "{}", render_event(&event))
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn sample() -> Event {
        Event::new(EventLevel::Info, "request.done")
            .context("trace-0001", "span-2")
            .field("fingerprint", "plan:opt:d4")
            .field("elapsed_us", 1234u64)
            .field("hit_rate", 0.5)
            .field("ok", true)
    }

    #[test]
    fn render_parse_round_trip_is_exact() {
        let e = sample();
        assert_eq!(parse_event(&render_event(&e)).unwrap(), e);
    }

    #[test]
    fn escaped_field_values_round_trip() {
        let e = Event::new(EventLevel::Warn, "odd \"name\"\n")
            .context("t\\1", "s\t2")
            .field("msg", "line1\nline2 \"quoted\" \\ \u{1}");
        assert_eq!(parse_event(&render_event(&e)).unwrap(), e);
    }

    #[test]
    fn numbers_are_canonical_by_construction() {
        assert_eq!(FieldValue::num(2.0), FieldValue::U64(2));
        assert_eq!(FieldValue::num(2.5), FieldValue::F64(2.5));
        assert_eq!(FieldValue::num(-1.0), FieldValue::F64(-1.0));
        assert_eq!(
            FieldValue::num(f64::INFINITY),
            FieldValue::Str("inf".into())
        );
        let e = Event::new(EventLevel::Debug, "x").field("n", 3.0);
        assert_eq!(parse_event(&render_event(&e)).unwrap(), e);
    }

    #[test]
    fn untagged_and_mistagged_lines_are_rejected() {
        let line = render_event(&sample());
        let untagged = line.replacen("\"schema_version\":\"primepar.events.v1\",", "", 1);
        assert!(matches!(
            parse_event(&untagged),
            Err(SchemaError::Shape { message, .. }) if message.contains("schema_version")
        ));
        let wrong = line.replace("primepar.events.v1", "primepar.events.v0");
        assert!(matches!(
            parse_event(&wrong),
            Err(SchemaError::Shape { .. })
        ));
        assert!(matches!(
            parse_event("[1,2]"),
            Err(SchemaError::Shape { .. })
        ));
        assert!(matches!(parse_event("{"), Err(SchemaError::Syntax(_))));
    }

    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn logical_clock_stamps_the_append_sequence() {
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut log = EventLog::new(buf.clone(), ClockMode::Logical);
        for _ in 0..3 {
            log.emit(Event::new(EventLevel::Info, "tick")).unwrap();
        }
        assert_eq!(log.appended(), 3);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let events = parse_event_log(&text).unwrap();
        assert_eq!(
            events.iter().map(|e| e.ts_us).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn wall_clock_is_monotone_nondecreasing() {
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut log = EventLog::new(buf.clone(), ClockMode::Wall);
        log.emit(Event::new(EventLevel::Info, "a")).unwrap();
        log.emit(Event::new(EventLevel::Info, "b")).unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let events = parse_event_log(&text).unwrap();
        assert!(events[0].ts_us <= events[1].ts_us);
    }

    #[test]
    fn log_parser_reports_the_offending_line() {
        let good = render_event(&sample());
        let text = format!("{good}\n\nnot json\n");
        let err = parse_event_log(&text).unwrap_err();
        assert!(err.to_string().contains("line 3"));
    }
}
