//! Request-scoped tracing and live service introspection.
//!
//! One [`ServiceObserver`] lives for the duration of a serve session. It
//! owns everything the request path reports into:
//!
//! * **trace context** — every accepted `plan`/`sim` frame gets a
//!   [`RequestTrace`] carrying its `trace_id` (client-supplied or generated
//!   from a deterministic counter) and an append-only span list. Workers
//!   and the cache record spans into it; the serve loop converts the
//!   finished tree into `primepar.events.v1` lines and Chrome trace lanes.
//! * **live gauges** — queue depth, per-worker busy/idle, latency samples —
//!   answered over the wire by the `stats` protocol frame as a
//!   schema-tagged [`STATS_SCHEMA`] snapshot.
//! * **the flight recorder** — a bounded ring of the last N request
//!   summaries (fingerprint, cache outcome, stage timings, status), dumped
//!   as a `*.stats.json` artifact on shutdown and from the worker pool's
//!   `catch_unwind` panic path.
//!
//! Instrumentation must not perturb planning: traces record *around* the
//! planner (stage spans are synthesized from [`PlannerMetrics`] after the
//! fact), never inside it, so served plans stay bitwise-identical with
//! tracing on and off.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use primepar_obs::{
    peak_rss_bytes, render_trace, ClockMode, FromJson, Json, Metrics, SchemaError, TraceEvent,
};
use primepar_search::SearchStrategy;

use crate::cache::WarmCache;
use crate::error::Error;

/// Schema tag of the live stats snapshot / flight-recorder artifact.
pub const STATS_SCHEMA: &str = "primepar.stats.v1";

/// One recorded span of a request: a named interval with a parent link.
///
/// Spans are well-nested by construction — a child is always recorded
/// after its parent and clamped inside it — so the tree reconstructs from
/// the flat list without timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Dotted span name (`request`, `exec`, `cache.miss`, `planner.segment_dp`…).
    pub name: String,
    /// Start offset, microseconds since the session began.
    pub start_us: u64,
    /// Duration in microseconds (0 while still open).
    pub dur_us: u64,
    /// Index of the parent span in the request's span list (`None` for the
    /// root `request` span).
    pub parent: Option<usize>,
}

#[derive(Debug, Default)]
struct TraceInner {
    spans: Vec<SpanRecord>,
    exec_span: usize,
    worker: Option<usize>,
}

/// The trace context of one in-flight request, shared between the serve
/// loop (which creates and finally drains it) and the worker executing the
/// job (which records execution spans into it).
#[derive(Debug)]
pub struct RequestTrace {
    trace_id: String,
    request_id: u64,
    kind: &'static str,
    origin: Instant,
    submitted_us: u64,
    inner: Mutex<TraceInner>,
}

impl RequestTrace {
    fn new(trace_id: String, request_id: u64, kind: &'static str, origin: Instant) -> RequestTrace {
        let submitted_us = origin.elapsed().as_micros() as u64;
        RequestTrace {
            trace_id,
            request_id,
            kind,
            origin,
            submitted_us,
            inner: Mutex::new(TraceInner {
                spans: vec![SpanRecord {
                    name: "request".to_string(),
                    start_us: submitted_us,
                    dur_us: 0,
                    parent: None,
                }],
                exec_span: 0,
                worker: None,
            }),
        }
    }

    /// The request's trace id, echoed on its response.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// The server-assigned request id.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// `"plan"`, `"sim"` or `"replan"`.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Microseconds since the observer session began.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Wall microseconds this request has been in the service so far
    /// (submission to now).
    pub fn elapsed_us(&self) -> u64 {
        self.now_us().saturating_sub(self.submitted_us)
    }

    /// Records a closed span under `parent`; returns its index.
    pub fn span(&self, parent: usize, name: &str, start_us: u64, dur_us: u64) -> usize {
        let mut inner = self.inner.lock().expect("trace lock");
        // Clamp into the parent's window when the parent is already closed,
        // so the recorded tree is well-nested by construction.
        let (start_us, dur_us) = match inner.spans.get(parent) {
            Some(p) if p.dur_us > 0 => {
                let end = p.start_us + p.dur_us;
                let start = start_us.clamp(p.start_us, end);
                (start, dur_us.min(end - start))
            }
            _ => (start_us, dur_us),
        };
        inner.spans.push(SpanRecord {
            name: name.to_string(),
            start_us,
            dur_us,
            parent: Some(parent),
        });
        inner.spans.len() - 1
    }

    /// Marks worker pickup: opens the `exec` span on `worker`'s lane.
    pub fn begin_exec(&self, worker: usize) {
        let now = self.now_us();
        let mut inner = self.inner.lock().expect("trace lock");
        inner.worker = Some(worker);
        inner.spans.push(SpanRecord {
            name: "exec".to_string(),
            start_us: now,
            dur_us: 0,
            parent: Some(0),
        });
        inner.exec_span = inner.spans.len() - 1;
    }

    /// Closes the `exec` span.
    pub fn end_exec(&self) {
        let now = self.now_us();
        let mut inner = self.inner.lock().expect("trace lock");
        let idx = inner.exec_span;
        if idx > 0 {
            let span = &mut inner.spans[idx];
            span.dur_us = now.saturating_sub(span.start_us);
        }
    }

    /// The index of the open `exec` span (0 — the root — before pickup).
    pub fn exec_span(&self) -> usize {
        self.inner.lock().expect("trace lock").exec_span
    }

    /// Closes the root `request` span; call once, at response emission.
    pub fn finish(&self) {
        let now = self.now_us();
        let mut inner = self.inner.lock().expect("trace lock");
        inner.spans[0].dur_us = now.saturating_sub(self.submitted_us);
    }

    /// The worker that executed the request, if one picked it up.
    pub fn worker(&self) -> Option<usize> {
        self.inner.lock().expect("trace lock").worker
    }

    /// A snapshot of the recorded spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().expect("trace lock").spans.clone()
    }
}

/// One entry of the flight recorder: the summary of a finished request.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Server-assigned request id.
    pub request_id: u64,
    /// Caller-chosen id (may be empty).
    pub id: String,
    /// The request's trace id.
    pub trace_id: String,
    /// `"plan"`, `"sim"` or `"replan"`.
    pub kind: String,
    /// Canonical plan fingerprint (empty when the request failed before
    /// resolving).
    pub fingerprint: String,
    /// Cache outcome: `hit`, `miss`, `coalesced`, or `-` when no lookup ran.
    pub outcome: String,
    /// `ok`, `cancelled`, or `error:<kind>`.
    pub status: String,
    /// Wall-clock service time in microseconds.
    pub elapsed_us: u64,
    /// Worker lane that executed the request, if one picked it up.
    pub worker: Option<usize>,
    /// Stage-level breakdown: `(span name, dur_us)` of the non-root spans.
    pub stages: Vec<(String, u64)>,
}

impl FlightRecord {
    fn to_json(&self) -> Json {
        let mut stages = Json::obj();
        for (name, dur) in &self.stages {
            stages.set(name, *dur);
        }
        Json::obj()
            .with("request_id", self.request_id)
            .with("id", self.id.as_str())
            .with("trace_id", self.trace_id.as_str())
            .with("kind", self.kind.as_str())
            .with("fingerprint", self.fingerprint.as_str())
            .with("outcome", self.outcome.as_str())
            .with("status", self.status.as_str())
            .with("elapsed_us", self.elapsed_us)
            .with("stages_us", stages)
            .with_opt("worker", self.worker)
    }
}

/// [`ServiceObserver`] configuration.
#[derive(Debug, Clone, Default)]
pub struct ObserveOptions {
    /// Worker lanes to track (the pool's effective worker count).
    pub workers: usize,
    /// Event-timestamp domain: logical mode makes same-input serve runs
    /// byte-identical (CI `cmp`s two such logs).
    pub clock: ClockMode,
    /// Emit a stage-level `request.slow` event for requests over this
    /// wall-clock threshold.
    pub slow_ms: Option<u64>,
    /// Where to dump the stats snapshot (with the flight recorder) on
    /// shutdown and from the worker panic path.
    pub stats_out: Option<PathBuf>,
    /// Accumulate the per-session Chrome trace ([`ServiceObserver::chrome_trace`]).
    /// Off by default: span trees are unbounded state, so only sessions that
    /// will export them should pay for keeping them.
    pub chrome: bool,
    /// Flight-recorder ring capacity (default 64).
    pub recorder_capacity: usize,
}

#[derive(Debug, Default)]
struct WorkerSlot {
    busy: AtomicBool,
    busy_us: AtomicU64,
    jobs: AtomicU64,
}

/// Session-wide observability state: trace-context minting, live gauges,
/// latency histograms, the flight recorder, and the per-session Chrome
/// trace. See the module docs for the full picture.
#[derive(Debug)]
pub struct ServiceObserver {
    clock: ClockMode,
    slow_ms: Option<u64>,
    stats_out: Option<PathBuf>,
    chrome: bool,
    recorder_capacity: usize,
    origin: Instant,
    next_trace: AtomicU64,
    submitted: AtomicU64,
    started: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    // Plan/sim submissions by requested search strategy: exact, beam, anytime.
    strategies: [AtomicU64; 3],
    workers: Vec<WorkerSlot>,
    latency: Mutex<Metrics>,
    recorder: Mutex<VecDeque<FlightRecord>>,
    trace_events: Mutex<Vec<TraceEvent>>,
}

impl ServiceObserver {
    /// A fresh observer; the session clock starts now.
    pub fn new(opts: ObserveOptions) -> ServiceObserver {
        ServiceObserver {
            clock: opts.clock,
            slow_ms: opts.slow_ms,
            stats_out: opts.stats_out,
            chrome: opts.chrome,
            recorder_capacity: if opts.recorder_capacity == 0 {
                64
            } else {
                opts.recorder_capacity
            },
            origin: Instant::now(),
            next_trace: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            started: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            strategies: Default::default(),
            workers: (0..opts.workers.max(1))
                .map(|_| WorkerSlot::default())
                .collect(),
            latency: Mutex::new(Metrics::new()),
            recorder: Mutex::new(VecDeque::new()),
            trace_events: Mutex::new(Vec::new()),
        }
    }

    /// The timestamp domain events are stamped in.
    pub fn clock(&self) -> ClockMode {
        self.clock
    }

    /// The `--slow-ms` threshold, if configured.
    pub fn slow_ms(&self) -> Option<u64> {
        self.slow_ms
    }

    /// Where the stats snapshot is dumped, if configured.
    pub fn stats_out(&self) -> Option<&PathBuf> {
        self.stats_out.as_ref()
    }

    /// Microseconds since the observer was created.
    pub fn uptime_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Mints a server-side trace id: counter-based, so generated ids are
    /// deterministic across same-input runs.
    pub fn gen_trace_id(&self) -> String {
        format!(
            "t-{:08x}",
            self.next_trace.fetch_add(1, Ordering::Relaxed) + 1
        )
    }

    /// Registers an accepted request and opens its trace.
    pub fn begin_request(
        &self,
        trace_id: String,
        request_id: u64,
        kind: &'static str,
    ) -> Arc<RequestTrace> {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        Arc::new(RequestTrace::new(trace_id, request_id, kind, self.origin))
    }

    /// Counts an accepted plan/sim/replan submission against its requested
    /// search strategy (the `strategies` section of the stats snapshot).
    pub fn note_strategy(&self, strategy: SearchStrategy) {
        let slot = match strategy {
            SearchStrategy::Exact => 0,
            SearchStrategy::Beam { .. } => 1,
            SearchStrategy::Anytime { .. } => 2,
        };
        self.strategies[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Worker `idx` picked a job off the queue.
    pub fn job_started(&self, idx: usize) {
        self.started.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.workers.get(idx) {
            slot.busy.store(true, Ordering::Relaxed);
        }
    }

    /// Worker `idx` finished a job after `busy_us` microseconds.
    pub fn job_finished(&self, idx: usize, busy_us: u64) {
        if let Some(slot) = self.workers.get(idx) {
            slot.busy.store(false, Ordering::Relaxed);
            slot.busy_us.fetch_add(busy_us, Ordering::Relaxed);
            slot.jobs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> u64 {
        self.submitted
            .load(Ordering::Relaxed)
            .saturating_sub(self.started.load(Ordering::Relaxed))
    }

    /// Folds a finished request into the session: closes the trace, records
    /// latency, appends the flight-recorder entry, and converts the span
    /// tree into Chrome trace lanes. Returns whether the request crossed
    /// the `--slow-ms` threshold.
    pub fn complete_request(&self, trace: &RequestTrace, record: FlightRecord) -> bool {
        trace.finish();
        self.completed.fetch_add(1, Ordering::Relaxed);
        if record.status != "ok" {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency
            .lock()
            .expect("latency lock")
            .observe("service.latency_us", record.elapsed_us as f64);
        let slow = self
            .slow_ms
            .is_some_and(|ms| record.elapsed_us >= ms.saturating_mul(1000));
        if self.chrome {
            self.absorb_chrome(trace);
        }
        let mut ring = self.recorder.lock().expect("recorder lock");
        if ring.len() == self.recorder_capacity {
            ring.pop_front();
        }
        ring.push_back(record);
        slow
    }

    /// A latency quantile in microseconds (`None` before the first sample).
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latency
            .lock()
            .expect("latency lock")
            .histogram_quantile("service.latency_us", q)
    }

    /// The flight recorder's current entries, oldest first.
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        self.recorder
            .lock()
            .expect("recorder lock")
            .iter()
            .cloned()
            .collect()
    }

    fn absorb_chrome(&self, trace: &RequestTrace) {
        // One lane per worker: lane 0 is the serve loop (requests that
        // never reached a worker), lanes 1..=N are the pool.
        let tid = trace.worker().map_or(0, |w| w as u64 + 1);
        let mut events = self.trace_events.lock().expect("trace events lock");
        for (idx, span) in trace.spans().iter().enumerate() {
            let mut args = vec![
                ("trace_id".to_string(), Json::from(trace.trace_id())),
                ("span_id".to_string(), Json::from(format!("s{idx}"))),
            ];
            if let Some(parent) = span.parent {
                args.push(("parent".to_string(), Json::from(format!("s{parent}"))));
            }
            events.push(TraceEvent {
                name: span.name.clone(),
                cat: trace.kind().to_string(),
                ph: Default::default(),
                pid: 1,
                tid,
                ts_us: span.start_us as f64,
                dur_us: span.dur_us as f64,
                args,
            });
        }
    }

    /// The per-session Chrome trace (one lane per worker) as a
    /// `primepar.trace.v1` document.
    pub fn chrome_trace(&self) -> String {
        render_trace(&self.trace_events.lock().expect("trace events lock"))
    }

    /// The live introspection snapshot as a self-contained
    /// `primepar.stats.v1` document.
    pub fn stats_json(&self, cache: &WarmCache) -> Json {
        let cache_stats = cache.stats();
        let shards = Json::Arr(
            cache
                .plan_shard_loads()
                .iter()
                .map(|load| {
                    Json::obj()
                        .with("len", load.len as u64)
                        .with("weight", load.weight)
                        .with("in_flight", load.in_flight as u64)
                })
                .collect(),
        );
        let workers = Json::Arr(
            self.workers
                .iter()
                .map(|slot| {
                    let busy_us = slot.busy_us.load(Ordering::Relaxed);
                    Json::obj()
                        .with("busy", slot.busy.load(Ordering::Relaxed))
                        .with("busy_us", busy_us)
                        .with("idle_us", self.uptime_us().saturating_sub(busy_us))
                        .with("jobs", slot.jobs.load(Ordering::Relaxed))
                })
                .collect(),
        );
        let latency = self.latency.lock().expect("latency lock");
        let mut latency_doc = Json::obj().with(
            "count",
            latency
                .histogram("service.latency_us")
                .map_or(0, |h| h.count),
        );
        for (key, q) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
            if let Some(v) = latency.histogram_quantile("service.latency_us", q) {
                latency_doc.set(key, v);
            }
        }
        drop(latency);
        Json::tagged(STATS_SCHEMA)
            .with("uptime_us", self.uptime_us())
            .with("peak_rss_bytes", peak_rss_bytes())
            .with(
                "requests",
                Json::obj()
                    .with("submitted", self.submitted.load(Ordering::Relaxed))
                    .with("completed", self.completed.load(Ordering::Relaxed))
                    .with("errors", self.errors.load(Ordering::Relaxed))
                    .with("queue_depth", self.queue_depth()),
            )
            .with(
                "strategies",
                Json::obj()
                    .with("exact", self.strategies[0].load(Ordering::Relaxed))
                    .with("beam", self.strategies[1].load(Ordering::Relaxed))
                    .with("anytime", self.strategies[2].load(Ordering::Relaxed)),
            )
            .with(
                "replan",
                Json::obj()
                    .with("stay", cache_stats.replan_stay)
                    .with("patch", cache_stats.replan_patch)
                    .with("replan", cache_stats.replan_full),
            )
            .with("workers", workers)
            .with(
                "cache",
                Json::obj()
                    .with("hits", cache_stats.plan_hits)
                    .with("misses", cache_stats.plan_misses)
                    .with("coalesced", cache_stats.plan_coalesced)
                    .with("evictions", cache_stats.plan_evictions)
                    .with("len", cache_stats.plans_interned as u64)
                    .with("weight", cache_stats.plan_bytes)
                    .with("shards", shards),
            )
            .with(
                "warm",
                Json::obj()
                    .with("entries", cache_stats.warm.entries as u64)
                    .with("hits", cache_stats.warm.hits)
                    .with("misses", cache_stats.warm.misses)
                    .with("bytes", cache_stats.warm.bytes),
            )
            .with("latency_us", latency_doc)
            .with(
                "flight_recorder",
                Json::Arr(
                    self.flight_records()
                        .iter()
                        .map(FlightRecord::to_json)
                        .collect(),
                ),
            )
    }

    /// Dumps the stats snapshot (flight recorder included) to
    /// [`ObserveOptions::stats_out`], if configured. `reason` is stamped
    /// into the artifact (`shutdown` or `panic`).
    ///
    /// # Errors
    ///
    /// [`Error::Internal`] when the artifact cannot be written.
    pub fn dump_stats(&self, cache: &WarmCache, reason: &str) -> Result<(), Error> {
        let Some(path) = &self.stats_out else {
            return Ok(());
        };
        let mut doc = self.stats_json(cache);
        doc.set("dump_reason", reason);
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| Error::internal(format!("cannot write {}: {e}", path.display())))
    }

    /// The panic-path hook: best-effort recorder dump from inside the
    /// worker pool's `catch_unwind` handler (errors are swallowed — the
    /// panic verdict must still reach the client).
    pub fn dump_on_panic(&self, cache: &WarmCache) {
        let _ = self.dump_stats(cache, "panic");
    }
}

/// Strictly validates a `primepar.stats.v1` document: the tag and every
/// section the snapshot promises must be present and well-typed.
///
/// # Errors
///
/// [`Error::Protocol`] naming the first defect.
pub fn validate_stats_doc(doc: &Json) -> Result<(), Error> {
    check_stats(doc).map_err(|e| Error::protocol(format!("stats document: {e}")))
}

/// Checks that each of `keys` in `doc` reads as a `T`.
fn each<'a, T: FromJson<'a>>(doc: &'a Json, keys: &[&str]) -> Result<(), SchemaError> {
    keys.iter().try_for_each(|key| doc.req::<T>(key).map(drop))
}

/// Checks that each of `keys` in the object field `section` is a number.
fn numbers(doc: &Json, section: &str, keys: &[&str]) -> Result<(), SchemaError> {
    each::<f64>(doc.req(section)?, keys).map_err(|e| e.at(section))
}

fn check_stats(doc: &Json) -> Result<(), SchemaError> {
    doc.check_schema(STATS_SCHEMA)?;
    each::<f64>(doc, &["uptime_us", "peak_rss_bytes"])?;
    numbers(
        doc,
        "requests",
        &["submitted", "completed", "errors", "queue_depth"],
    )?;
    numbers(doc, "strategies", &["exact", "beam", "anytime"])?;
    numbers(doc, "replan", &["stay", "patch", "replan"])?;
    numbers(
        doc,
        "cache",
        &["hits", "misses", "coalesced", "evictions", "len", "weight"],
    )?;
    numbers(doc, "warm", &["entries", "hits", "misses", "bytes"])?;
    doc.req_items("workers", |worker| {
        worker.req::<bool>("busy")?;
        each::<f64>(worker, &["busy_us", "idle_us", "jobs"])
    })?;
    let cache: &Json = doc.req("cache")?;
    cache
        .req_items("shards", |shard| {
            each::<f64>(shard, &["len", "weight", "in_flight"])
        })
        .map_err(|e| e.at("cache"))?;
    if doc
        .req::<&Json>("latency_us")?
        .req::<u64>("count")
        .map_err(|e| e.at("latency_us"))?
        > 0
    {
        numbers(doc, "latency_us", &["p50", "p95", "p99"])?;
    }
    doc.req_items("flight_recorder", |entry| {
        each::<f64>(entry, &["request_id", "elapsed_us"])?;
        each::<&str>(
            entry,
            &["trace_id", "status", "fingerprint", "kind", "outcome"],
        )?;
        entry.req::<&[(String, Json)]>("stages_us").map(drop)
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observer() -> ServiceObserver {
        ServiceObserver::new(ObserveOptions {
            workers: 2,
            recorder_capacity: 3,
            ..ObserveOptions::default()
        })
    }

    fn record(n: u64, status: &str) -> FlightRecord {
        FlightRecord {
            request_id: n,
            id: format!("r{n}"),
            trace_id: format!("t-{n:08x}"),
            kind: "plan".to_string(),
            fingerprint: "plan:opt67b:d4".to_string(),
            outcome: "miss".to_string(),
            status: status.to_string(),
            elapsed_us: 100 * n,
            worker: Some(0),
            stages: vec![("exec".to_string(), 90 * n)],
        }
    }

    #[test]
    fn generated_trace_ids_are_deterministic_counters() {
        let obs = observer();
        assert_eq!(obs.gen_trace_id(), "t-00000001");
        assert_eq!(obs.gen_trace_id(), "t-00000002");
        let again = observer();
        assert_eq!(again.gen_trace_id(), "t-00000001");
    }

    #[test]
    fn span_trees_are_well_nested_by_construction() {
        let obs = observer();
        let trace = obs.begin_request("t-1".to_string(), 1, "plan");
        trace.begin_exec(1);
        let exec = trace.exec_span();
        let lookup_start = trace.now_us();
        while trace.now_us() < lookup_start + 60 {
            std::hint::spin_loop();
        }
        let lookup_dur = trace.now_us() - lookup_start;
        let lookup = trace.span(exec, "cache.miss", lookup_start, lookup_dur);
        // A synthesized stage span far wider than its parent must clamp.
        trace.span(lookup, "planner.segment_dp", lookup_start, 1_000_000);
        trace.end_exec();
        obs.complete_request(&trace, record(1, "ok"));
        let spans = trace.spans();
        assert_eq!(spans[0].name, "request");
        for (idx, span) in spans.iter().enumerate().skip(1) {
            let parent = span.parent.expect("non-root spans have parents");
            assert!(parent < idx, "parents precede children");
            let p = &spans[parent];
            if p.dur_us > 0 {
                assert!(span.start_us >= p.start_us);
                assert!(span.start_us + span.dur_us <= p.start_us + p.dur_us);
            }
        }
    }

    #[test]
    fn flight_recorder_is_a_bounded_ring() {
        let obs = observer();
        for n in 1..=5 {
            let trace = obs.begin_request(format!("t-{n}"), n, "plan");
            obs.complete_request(
                &trace,
                record(n, if n == 5 { "error:internal" } else { "ok" }),
            );
        }
        let records = obs.flight_records();
        assert_eq!(records.len(), 3, "capacity 3 keeps the last 3");
        assert_eq!(
            records.iter().map(|r| r.request_id).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn queue_depth_tracks_submit_minus_pickup() {
        let obs = observer();
        let _t1 = obs.begin_request("a".into(), 1, "plan");
        let _t2 = obs.begin_request("b".into(), 2, "plan");
        assert_eq!(obs.queue_depth(), 2);
        obs.job_started(0);
        assert_eq!(obs.queue_depth(), 1);
        obs.job_finished(0, 1234);
        assert_eq!(obs.queue_depth(), 1);
    }

    #[test]
    fn stats_snapshot_validates_and_round_trips() {
        let cache = WarmCache::new();
        cache
            .execute_plan(
                &crate::PlanRequest::builder("opt-6.7b")
                    .devices(2)
                    .seq(512)
                    .build(),
            )
            .expect("plans");
        let obs = observer();
        let trace = obs.begin_request("t-1".into(), 1, "plan");
        obs.job_started(0);
        obs.job_finished(0, 500);
        obs.complete_request(&trace, record(1, "ok"));
        let doc = obs.stats_json(&cache);
        validate_stats_doc(&doc).expect("snapshot must validate");
        let reparsed = primepar_obs::parse_json(&doc.render_pretty()).expect("renders as JSON");
        validate_stats_doc(&reparsed).expect("round-tripped snapshot must validate");
        assert_eq!(
            reparsed
                .get("latency_us")
                .and_then(|l| l.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        // The warm section reports the planner warm cache the plan filled.
        let warm = cache.stats().warm;
        let section = reparsed.get("warm").expect("warm section");
        for (key, value) in [
            ("entries", warm.entries as u64),
            ("hits", warm.hits),
            ("misses", warm.misses),
            ("bytes", warm.bytes),
        ] {
            assert_eq!(
                section.get(key).and_then(Json::as_u64),
                Some(value),
                "{key}"
            );
        }
        assert!(
            warm.entries > 0 && warm.misses > 0 && warm.bytes > 0,
            "{warm:?}"
        );
        // A snapshot without it does not validate.
        let mut stripped = reparsed.clone();
        stripped.set("warm", Json::obj());
        assert!(validate_stats_doc(&stripped).is_err());
    }

    #[test]
    fn stats_validation_rejects_untagged_and_mistagged_documents() {
        let cache = WarmCache::new();
        let obs = observer();
        let mut doc = obs.stats_json(&cache);
        doc.set("schema_version", "primepar.stats.v0");
        assert!(matches!(
            validate_stats_doc(&doc),
            Err(Error::Protocol(m)) if m.contains("schema_version")
        ));
        let untagged = Json::obj().with("uptime_us", 1u64);
        assert!(matches!(
            validate_stats_doc(&untagged),
            Err(Error::Protocol(m)) if m.contains("missing schema_version")
        ));
        assert!(validate_stats_doc(&Json::Arr(vec![])).is_err());
    }

    #[test]
    fn chrome_trace_parses_and_lanes_follow_workers() {
        let obs = ServiceObserver::new(ObserveOptions {
            workers: 2,
            chrome: true,
            ..ObserveOptions::default()
        });
        let trace = obs.begin_request("t-1".into(), 7, "plan");
        trace.begin_exec(1);
        trace.end_exec();
        obs.complete_request(&trace, record(7, "ok"));
        let events = primepar_obs::parse_trace(&obs.chrome_trace()).expect("valid trace");
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.tid == 2), "worker 1 is lane 2");
        assert!(events.iter().any(|e| e.name == "request"));
        assert!(events.iter().any(|e| e.name == "exec"));
    }
}
