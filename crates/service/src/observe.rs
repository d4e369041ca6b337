//! Request-scoped tracing and live service introspection.
//!
//! One [`ServiceObserver`] lives for the duration of a serve session. Every
//! accepted `plan`/`sim`/`replan` frame gets a [`RequestTrace`]: its
//! `trace_id` (client-supplied or minted from a deterministic counter) and
//! an append-only span tree that workers and the cache record into. When
//! the response goes out the serve loop closes the trace, stamping how the
//! request ended, and the closed trace is the request's one record. Three
//! views render from it:
//!
//! * **the flight recorder** — the last [`RECORDER_CAPACITY`] closed traces,
//!   one [`RequestTrace::record_json`] entry each, in the [`STATS_SCHEMA`]
//!   snapshot that the `stats` frame answers and that is dumped on shutdown
//!   and from the worker pool's `catch_unwind` panic path;
//! * **the stage breakdown** — [`RequestTrace::stages`], which is both the
//!   recorder's `stages_us` and the `request.slow` event's `stage.*` fields;
//! * **the Chrome trace** — every closed trace's spans on its worker's lane,
//!   rendered at exit by [`ServiceObserver::chrome_trace`].
//!
//! Beside the traces the observer keeps the live gauges: queue depth,
//! per-worker busy/idle and latency samples.
//!
//! Instrumentation must not perturb planning: traces record *around* the
//! planner (stage spans are synthesized from [`PlannerMetrics`] after the
//! fact), never inside it, so served plans stay bitwise-identical with
//! tracing on and off.
//!
//! [`PlannerMetrics`]: primepar_search::PlannerMetrics

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use primepar_obs::{
    peak_rss_bytes, render_trace, FromJson, Json, Metrics, SchemaError, TraceEvent,
};
use primepar_search::SearchStrategy;

use crate::cache::WarmCache;
use crate::error::Error;
use crate::{Request, Response, ServeOptions};

/// Schema tag of the live stats snapshot / flight-recorder artifact.
pub const STATS_SCHEMA: &str = "primepar.stats.v1";

/// How many closed traces the flight recorder holds.
const RECORDER_CAPACITY: usize = 64;

/// One recorded span of a request: a named interval with a parent link.
///
/// Spans are well-nested by construction — a child is always recorded
/// after its parent and clamped inside it — so the tree reconstructs from
/// the flat list without timestamps.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpanRecord {
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

/// How a request ended, stamped on its trace when it closes.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Ending {
    /// `ok`, `cancelled`, or `error:<kind>`.
    pub status: String,
    /// Cache outcome (`hit`, `miss`, `coalesced`), a replan's decision, or
    /// `-` when the request failed.
    pub outcome: &'static str,
    /// Canonical plan fingerprint (empty when the request failed).
    pub fingerprint: String,
}

impl Ending {
    /// How `verdict` ends its request.
    pub fn of(verdict: &Result<Response, Error>) -> Ending {
        let failed = |status| Ending {
            status,
            outcome: "-",
            fingerprint: String::new(),
        };
        match verdict {
            Ok(resp) => Ending {
                status: "ok".to_string(),
                outcome: outcome_label(resp),
                fingerprint: resp.fingerprint().to_string(),
            },
            Err(Error::Cancelled(_)) => failed("cancelled".to_string()),
            Err(err) => failed(format!("error:{}", err.kind())),
        }
    }

    /// Whether the request answered successfully.
    pub fn ok(&self) -> bool {
        self.status == "ok"
    }
}

/// The outcome of a served request: the decision of a replan (not the memo
/// result its running plan came from), else the cache outcome.
fn outcome_label(resp: &Response) -> &'static str {
    let cache = match resp {
        Response::Plan(resp) => &resp.cache,
        Response::Sim(resp) => &resp.cache,
        Response::Replan(resp) => return resp.outcome.decision.tag(),
    };
    if cache.plan_cache_hit {
        "hit"
    } else if cache.coalesced {
        "coalesced"
    } else {
        "miss"
    }
}

#[derive(Debug, Default)]
struct TraceInner {
    spans: Vec<SpanRecord>,
    exec_span: usize,
    worker: Option<usize>,
    ending: Ending,
}

/// The record of one request, shared between the serve loop (which opens,
/// closes and renders it) and the worker executing the job (which records
/// execution spans into it).
#[derive(Debug)]
pub(crate) struct RequestTrace {
    trace_id: String,
    id: String,
    request_id: u64,
    kind: &'static str,
    origin: Instant,
    inner: Mutex<TraceInner>,
}

impl RequestTrace {
    fn lock(&self) -> MutexGuard<'_, TraceInner> {
        self.inner.lock().expect("trace lock")
    }

    /// The request's trace id, echoed on its response.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// The caller-chosen id (may be empty).
    pub fn id(&self) -> &str {
        &self.id
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

    /// Wall microseconds from submission to close: the root span's
    /// duration (0 while the trace is open).
    pub fn elapsed_us(&self) -> u64 {
        self.lock().spans[0].dur_us
    }

    /// Records a closed span under `parent`; returns its index.
    pub fn span(&self, parent: usize, name: &str, start_us: u64, dur_us: u64) -> usize {
        let mut inner = self.lock();
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
        let mut inner = self.lock();
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
        let mut inner = self.lock();
        let idx = inner.exec_span;
        if idx > 0 {
            let span = &mut inner.spans[idx];
            span.dur_us = now.saturating_sub(span.start_us);
        }
    }

    /// The index of the open `exec` span (0 — the root — before pickup).
    pub fn exec_span(&self) -> usize {
        self.lock().exec_span
    }

    /// The worker that executed the request, if one picked it up.
    pub fn worker(&self) -> Option<usize> {
        self.lock().worker
    }

    /// Closes the root `request` span and stamps how the request ended;
    /// call once, at response emission.
    fn close(&self, ending: Ending) {
        let now = self.now_us();
        let mut inner = self.lock();
        inner.spans[0].dur_us = now.saturating_sub(inner.spans[0].start_us);
        inner.ending = ending;
    }

    /// The stage breakdown: `(span name, dur_us)` of every span below the
    /// root, whose own duration is [`RequestTrace::elapsed_us`].
    pub fn stages(&self) -> Vec<(String, u64)> {
        self.lock().spans[1..]
            .iter()
            .map(|span| (span.name.clone(), span.dur_us))
            .collect()
    }

    /// The request's flight-recorder entry.
    fn record_json(&self) -> Json {
        let mut stages = Json::obj();
        for (name, dur_us) in self.stages() {
            stages.set(&name, dur_us);
        }
        let inner = self.lock();
        Json::obj()
            .with("request_id", self.request_id)
            .with("id", self.id.as_str())
            .with("trace_id", self.trace_id.as_str())
            .with("kind", self.kind)
            .with("fingerprint", inner.ending.fingerprint.as_str())
            .with("outcome", inner.ending.outcome)
            .with("status", inner.ending.status.as_str())
            .with("elapsed_us", inner.spans[0].dur_us)
            .with("stages_us", stages)
            .with_opt("worker", inner.worker)
    }

    /// The request's spans as Chrome trace events on its worker's lane:
    /// lane 0 is the serve loop (requests that never reached a worker),
    /// lanes 1..=N are the pool.
    fn chrome_events(&self) -> Vec<TraceEvent> {
        let inner = self.lock();
        let tid = inner.worker.map_or(0, |w| w as u64 + 1);
        inner
            .spans
            .iter()
            .enumerate()
            .map(|(idx, span)| {
                let mut args = vec![
                    ("trace_id".to_string(), Json::from(self.trace_id.as_str())),
                    ("span_id".to_string(), Json::from(format!("s{idx}"))),
                ];
                if let Some(parent) = span.parent {
                    args.push(("parent".to_string(), Json::from(format!("s{parent}"))));
                }
                TraceEvent {
                    name: span.name.clone(),
                    cat: self.kind.to_string(),
                    ph: Default::default(),
                    pid: 1,
                    tid,
                    ts_us: span.start_us as f64,
                    dur_us: span.dur_us as f64,
                    args,
                }
            })
            .collect()
    }
}

#[derive(Debug, Default)]
struct WorkerSlot {
    busy: AtomicBool,
    busy_us: AtomicU64,
    jobs: AtomicU64,
}

/// Session-wide observability state: trace-context minting, live gauges,
/// latency histograms and the closed request traces. See the module docs
/// for the full picture.
#[derive(Debug)]
pub(crate) struct ServiceObserver {
    slow_ms: Option<u64>,
    stats_out: Option<PathBuf>,
    /// Keep every closed trace for the Chrome trace export, not just the
    /// flight recorder's: span trees are unbounded state, so only sessions
    /// that export them pay for keeping them.
    chrome: bool,
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
    /// Closed traces in completion order; the last [`RECORDER_CAPACITY`] are
    /// the flight recorder.
    closed: Mutex<VecDeque<Arc<RequestTrace>>>,
}

impl ServiceObserver {
    /// A fresh observer of a serve session configured by `opts`, over
    /// `workers` worker lanes (the pool's effective count); the session
    /// clock starts now.
    pub fn new(opts: &ServeOptions, workers: usize) -> ServiceObserver {
        ServiceObserver {
            slow_ms: opts.slow_ms,
            stats_out: opts.stats_out.clone(),
            chrome: opts.trace_out.is_some(),
            origin: Instant::now(),
            next_trace: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            started: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            strategies: Default::default(),
            workers: (0..workers.max(1)).map(|_| WorkerSlot::default()).collect(),
            latency: Mutex::new(Metrics::new()),
            closed: Mutex::new(VecDeque::new()),
        }
    }

    /// Microseconds since the observer was created.
    pub fn uptime_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Mints a server-side trace id: counter-based, so generated ids are
    /// deterministic across same-input runs.
    fn gen_trace_id(&self) -> String {
        format!(
            "t-{:08x}",
            self.next_trace.fetch_add(1, Ordering::Relaxed) + 1
        )
    }

    /// Registers an accepted request as `request_id`, counts its search
    /// strategy (the `strategies` section of the stats snapshot) and opens
    /// its trace, minting a trace id when the client sent none.
    pub fn begin_request(
        &self,
        trace_id: Option<String>,
        request_id: u64,
        req: &Request,
    ) -> Arc<RequestTrace> {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let slot = match req.strategy() {
            SearchStrategy::Exact => 0,
            SearchStrategy::Beam { .. } => 1,
            SearchStrategy::Anytime { .. } => 2,
        };
        self.strategies[slot].fetch_add(1, Ordering::Relaxed);
        Arc::new(RequestTrace {
            trace_id: trace_id.unwrap_or_else(|| self.gen_trace_id()),
            id: req.id().to_string(),
            request_id,
            kind: req.kind(),
            origin: self.origin,
            inner: Mutex::new(TraceInner {
                spans: vec![SpanRecord {
                    name: "request".to_string(),
                    start_us: self.uptime_us(),
                    dur_us: 0,
                    parent: None,
                }],
                ..TraceInner::default()
            }),
        })
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

    /// Closes a finished request's trace with its `ending`, records its
    /// latency and keeps the closed trace. Returns whether the request
    /// crossed the `--slow-ms` threshold.
    pub fn complete_request(&self, trace: &Arc<RequestTrace>, ending: Ending) -> bool {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if !ending.ok() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        trace.close(ending);
        let elapsed_us = trace.elapsed_us();
        self.latency
            .lock()
            .expect("latency lock")
            .observe("service.latency_us", elapsed_us as f64);
        let mut closed = self.closed.lock().expect("closed traces lock");
        if !self.chrome && closed.len() == RECORDER_CAPACITY {
            closed.pop_front();
        }
        closed.push_back(trace.clone());
        self.slow_ms
            .is_some_and(|ms| elapsed_us >= ms.saturating_mul(1000))
    }

    /// The flight recorder: the last [`RECORDER_CAPACITY`] closed traces,
    /// oldest first.
    fn recorder(&self) -> Vec<Arc<RequestTrace>> {
        let closed = self.closed.lock().expect("closed traces lock");
        let skip = closed.len().saturating_sub(RECORDER_CAPACITY);
        closed.iter().skip(skip).cloned().collect()
    }

    /// The per-session Chrome trace (one lane per worker) as a
    /// `primepar.trace.v1` document, rendered from every closed trace.
    pub fn chrome_trace(&self) -> String {
        let closed = self.closed.lock().expect("closed traces lock");
        let events: Vec<TraceEvent> = closed.iter().flat_map(|t| t.chrome_events()).collect();
        render_trace(&events)
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
                Json::Arr(self.recorder().iter().map(|t| t.record_json()).collect()),
            )
    }

    /// Dumps the stats snapshot (flight recorder included) to
    /// [`ServeOptions::stats_out`], if configured. `reason` is stamped
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
    use crate::PlanRequest;

    fn observer_with(opts: &ServeOptions) -> ServiceObserver {
        ServiceObserver::new(opts, 2)
    }

    fn observer() -> ServiceObserver {
        observer_with(&ServeOptions::default())
    }

    fn plan() -> Request {
        Request::Plan(PlanRequest::builder("opt-6.7b").id("r").build())
    }

    fn ending(status: &str) -> Ending {
        Ending {
            status: status.to_string(),
            outcome: "miss",
            fingerprint: "plan:opt67b:d4".to_string(),
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
        let trace = obs.begin_request(Some("t-1".to_string()), 1, &plan());
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
        obs.complete_request(&trace, ending("ok"));
        let spans = trace.lock().spans.clone();
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
        let total = RECORDER_CAPACITY as u64 + 6;
        for n in 1..=total {
            let trace = obs.begin_request(Some(format!("t-{n}")), n, &plan());
            let status = if n == total { "error:internal" } else { "ok" };
            obs.complete_request(&trace, ending(status));
        }
        let records = obs.recorder();
        assert_eq!(
            records.len(),
            RECORDER_CAPACITY,
            "the ring keeps the last {RECORDER_CAPACITY}"
        );
        assert_eq!(
            records.iter().map(|r| r.request_id()).collect::<Vec<_>>(),
            (7..=total).collect::<Vec<_>>()
        );
    }

    #[test]
    fn queue_depth_tracks_submit_minus_pickup() {
        let obs = observer();
        let _t1 = obs.begin_request(Some("a".into()), 1, &plan());
        let _t2 = obs.begin_request(Some("b".into()), 2, &plan());
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
        let trace = obs.begin_request(Some("t-1".into()), 1, &plan());
        obs.job_started(0);
        obs.job_finished(0, 500);
        obs.complete_request(&trace, ending("ok"));
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
        let obs = observer_with(&ServeOptions {
            trace_out: Some(PathBuf::from("session.trace.json")),
            ..ServeOptions::default()
        });
        let trace = obs.begin_request(Some("t-1".into()), 7, &plan());
        trace.begin_exec(1);
        trace.end_exec();
        obs.complete_request(&trace, ending("ok"));
        let events = primepar_obs::parse_trace(&obs.chrome_trace()).expect("valid trace");
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.tid == 2), "worker 1 is lane 2");
        assert!(events.iter().any(|e| e.name == "request"));
        assert!(events.iter().any(|e| e.name == "exec"));
    }
}
