//! Observability core for the PrimePar reproduction.
//!
//! The paper's headline claims are all *measurements* — Table 2 optimization
//! times, Fig. 9 kernel timelines, Eq. 7 cost breakdowns — so every layer of
//! this workspace reports through this crate:
//!
//! * [`json`] — a hand-rolled JSON value model with writer **and** strict
//!   parser (the build is offline, so no serde), plus the one schema layer
//!   every frame and artifact reader goes through ([`SchemaError`]),
//! * [`metrics`] — a lightweight registry of counters, gauges, histograms and
//!   timers that renders to a stable machine-readable JSON document,
//! * [`trace`] — Chrome `trace_event` spans loadable in `chrome://tracing` /
//!   Perfetto, with a parser so exports can be validated in tests,
//! * [`events`] — an append-only JSONL structured-event log
//!   (`primepar.events.v1`) with trace context on every line and a
//!   logical-clock mode for byte-identical reruns.
//!
//! The crate is dependency-free by design: it sits below `search`, `sim` and
//! `cost` in the workspace DAG, so all of them can report without cycles.
//!
//! # Example
//!
//! ```
//! use primepar_obs::metrics::Metrics;
//!
//! let mut m = Metrics::new();
//! m.incr("planner.intra_evaluations", 1272);
//! m.gauge("planner.layer_cost", 0.0123);
//! m.record_seconds("planner.segment_dp_seconds", 0.013);
//! let doc = m.to_json().render();
//! assert!(doc.contains("planner.intra_evaluations"));
//! ```

// Loops indexed by device id / wide internal signatures are deliberate.
#![allow(clippy::needless_range_loop)]

pub mod events;
pub mod json;
pub mod metrics;
pub mod rss;
pub mod trace;

pub use events::{
    parse_event, parse_event_log, render_event, ClockMode, Event, EventLevel, EventLog, FieldValue,
    EVENTS_SCHEMA,
};
pub use json::{parse_json, FromJson, Json, JsonError, SchemaError};
pub use metrics::{HistogramStats, Metrics};
pub use rss::peak_rss_bytes;
pub use trace::{parse_trace, render_trace, TraceEvent, TracePhase, TRACE_SCHEMA};
