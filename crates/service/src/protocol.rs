//! The line-delimited JSON wire protocol of `primepar serve`.
//!
//! One frame per line, one JSON object per frame. Frames in both directions
//! carry `schema_version` = [`SERVICE_SCHEMA`] (the first key of every frame
//! the service emits). A request frame without the tag, or with any other
//! one (the retired `primepar.service.v1` included), is answered with an
//! in-band `protocol` error, and the session goes on. So is a line longer
//! than [`MAX_FRAME_BYTES`] or not valid UTF-8.
//!
//! ```text
//! → {"schema_version":"primepar.service.v2","type":"plan","id":"r1","model":"opt-6.7b","devices":16}
//! ← {"schema_version":"primepar.service.v2","type":"plan_response","id":"r1","ok":true,...,"request_id":1}
//! ```
//!
//! Responses are **out of order**: each is emitted as soon as its worker
//! finishes, so under parallel workers a cheap request overtakes an
//! expensive one submitted earlier. Every plan/sim/replan response carries
//! two correlation keys: the echoed client `id` and a server-assigned
//! `request_id` — a `u64` counting accepted plan/sim/replan frames in
//! submission order from 1, so a client that counts its own submissions can
//! name any request without waiting for a response.
//!
//! Frame types: `plan`, `sim`, `replan` (v2: the costed migration decision
//! for a running workload under an observed degradation scenario), `cancel`
//! (by client `id` or by `request_id`), `stats` (answered immediately with
//! a live `primepar.stats.v1` snapshot — queue depth, worker utilization,
//! cache shards, replan decisions, latency quantiles, the flight recorder),
//! `ping` (answered with `pong` immediately, ahead of queued work),
//! `shutdown` (drain outstanding work and exit; input after `shutdown` is
//! ignored).
//!
//! **Trace context**: any frame may carry a `trace_id`; plan/sim/replan
//! frames without one get a server-minted id (`t-<counter>`). The response
//! echoes it, the event log ([`ServeOptions::event_log`]) stamps it on every
//! request-lifecycle event, and the per-session Chrome trace
//! ([`ServeOptions::trace_out`]) groups the request's spans under it — one
//! lane per worker.
//!
//! With [`ServeOptions::cache_file`] set, [`serve_lines`] and
//! [`serve_unix_socket`] load the whole-plan memo from a
//! `primepar.cache.v1` artifact on startup and dump it back on exit, so a
//! restarted service serves memo hits for everything the previous run
//! planned (see [`crate::persist`]).

use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use primepar_obs::{parse_json, peak_rss_bytes, ClockMode, Event, EventLevel, EventLog, Json};
use primepar_search::{SearchInterrupt, SearchStrategy};
use primepar_sim::robustness_json;

use crate::cache::WarmCache;
use crate::observe::{Ending, RequestTrace, ServiceObserver};
use crate::server::{PlannerService, ServiceOptions};
use crate::{
    Error, PlanRequest, PlanResponse, ReplanRequest, ReplanResponse, Request, Response, SimRequest,
    SimResponse, SERVICE_SCHEMA,
};

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A `plan`, `sim` or `replan` request for the worker pool.
    Request(Request),
    /// Cancel in-flight requests by client `id`, server `request_id`, or
    /// both (a frame carrying neither is a protocol error). Cancelling a
    /// request that already answered is a no-op.
    Cancel {
        /// Client id of the request(s) to cancel.
        id: Option<String>,
        /// Server-assigned request id of the request to cancel.
        request_id: Option<u64>,
    },
    /// Live introspection probe; answered out of band with a
    /// `primepar.stats.v1` snapshot.
    Stats,
    /// Liveness probe; answered out of band with `pong`.
    Ping,
    /// Drain outstanding work and exit.
    Shutdown,
}

/// A [`Frame`] plus its trace context.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFrame {
    /// The decoded frame.
    pub frame: Frame,
    /// Client-supplied trace context, echoed on the response. Plan/sim/replan
    /// frames without one get a server-minted id.
    pub trace_id: Option<String>,
}

fn parse_plan_request(obj: &Json) -> Result<PlanRequest, Error> {
    let defaults = PlanRequest::default();
    Ok(PlanRequest {
        id: obj.opt("id")?.unwrap_or_default(),
        model: obj.opt("model")?.unwrap_or_default(),
        devices: obj.opt("devices")?.unwrap_or(defaults.devices),
        batch: obj.opt("batch")?.unwrap_or(defaults.batch),
        seq: obj.opt("seq")?.unwrap_or(defaults.seq),
        layers: obj.opt("layers")?,
        alpha: obj.opt("alpha")?.unwrap_or(defaults.alpha),
        threads: obj.opt("threads")?.unwrap_or(defaults.threads),
        allow_temporal: obj
            .opt("allow_temporal")?
            .unwrap_or(defaults.allow_temporal),
        allow_batch_split: obj
            .opt("allow_batch_split")?
            .unwrap_or(defaults.allow_batch_split),
        max_temporal_k: obj
            .opt("max_temporal_k")?
            .unwrap_or(defaults.max_temporal_k),
        deadline_ms: obj.opt("deadline_ms")?,
        strategy: match obj.opt::<&str>("strategy")? {
            None => defaults.strategy,
            Some(text) => text
                .parse::<SearchStrategy>()
                .map_err(|e| Error::protocol(format!("field strategy rejected: {e}")))?,
        },
    })
}

fn parse_sim_request(obj: &Json) -> Result<SimRequest, Error> {
    let base = SimRequest::of(parse_plan_request(obj)?);
    Ok(SimRequest {
        recompute_activations: obj
            .opt("recompute_activations")?
            .unwrap_or(base.recompute_activations),
        scenarios: obj.opt("scenarios")?.unwrap_or(base.scenarios),
        profile: obj.opt("profile")?.unwrap_or(base.profile),
        seed: obj.opt("seed")?.unwrap_or(base.seed),
        ..base
    })
}

fn parse_replan_request(obj: &Json) -> Result<ReplanRequest, Error> {
    let base = ReplanRequest::of(parse_plan_request(obj)?);
    Ok(ReplanRequest {
        profile: obj.opt("profile")?.unwrap_or(base.profile),
        seed: obj.opt("seed")?.unwrap_or(base.seed),
        lambda: obj.opt("lambda")?.unwrap_or(base.lambda),
        horizon: obj.opt("horizon")?.unwrap_or(base.horizon),
        ..base
    })
}

/// Decodes one request line.
///
/// # Errors
///
/// [`Error::Protocol`] for non-JSON input, a non-object frame, a missing or
/// non-[`SERVICE_SCHEMA`] `schema_version`, a missing/unknown `type`, a
/// mistyped field, or a `cancel` naming neither an `id` nor a `request_id`.
pub fn parse_frame(line: &str) -> Result<ParsedFrame, Error> {
    let doc = parse_json(line).map_err(|e| Error::protocol(format!("bad frame: {e}")))?;
    doc.check_schema(SERVICE_SCHEMA)
        .map_err(|e| Error::protocol(format!("frame rejected: {e}; see CHANGELOG.md")))?;
    let kind = doc
        .opt::<&str>("type")?
        .ok_or_else(|| Error::protocol("frame is missing its type field"))?;
    let frame = match kind {
        "plan" => Frame::Request(Request::Plan(parse_plan_request(&doc)?)),
        "sim" => Frame::Request(Request::Sim(parse_sim_request(&doc)?)),
        "replan" => Frame::Request(Request::Replan(parse_replan_request(&doc)?)),
        "cancel" => {
            let id = doc.opt("id")?;
            let request_id = doc.opt("request_id")?;
            if id.is_none() && request_id.is_none() {
                return Err(Error::protocol("cancel frame needs an id or a request_id"));
            }
            Frame::Cancel { id, request_id }
        }
        "stats" => Frame::Stats,
        "ping" => Frame::Ping,
        "shutdown" => Frame::Shutdown,
        other => {
            return Err(Error::protocol(format!(
                "unknown frame type: {other} (expected plan|sim|replan|cancel|stats|ping|shutdown)"
            )))
        }
    };
    Ok(ParsedFrame {
        frame,
        trace_id: doc.opt("trace_id")?,
    })
}

fn tagged(kind: &str) -> Json {
    Json::tagged(SERVICE_SCHEMA).with("type", kind)
}

/// Encodes a [`PlanRequest`] as a `plan` frame (the client side of the
/// protocol; also the transcript format of the README quickstart).
pub fn request_json(req: &PlanRequest) -> Json {
    // `strategy` is emitted only when non-default so pre-strategy
    // transcripts replay byte-identically (mirrors the fingerprint's `:st:`
    // suffix rule). For the same reason the retired `simulate` key is still
    // written, always false; parsers ignore it.
    tagged("plan")
        .with("id", req.id.as_str())
        .with("model", req.model.as_str())
        .with("devices", req.devices)
        .with("batch", req.batch)
        .with("seq", req.seq)
        .with_opt("layers", req.layers)
        .with("alpha", req.alpha)
        .with("threads", req.threads)
        .with("allow_temporal", req.allow_temporal)
        .with("allow_batch_split", req.allow_batch_split)
        .with("max_temporal_k", req.max_temporal_k)
        .with("simulate", false)
        .with_opt("deadline_ms", req.deadline_ms)
        .with_opt(
            "strategy",
            (req.strategy != SearchStrategy::Exact).then(|| req.strategy.to_string()),
        )
}

/// Encodes a [`SimRequest`] as a `sim` frame.
pub fn sim_request_json(req: &SimRequest) -> Json {
    let mut doc = request_json(&req.plan);
    doc.set("type", "sim");
    doc.set("recompute_activations", req.recompute_activations);
    doc.set("scenarios", req.scenarios);
    doc.set("profile", req.profile.as_str());
    doc.set("seed", req.seed);
    doc
}

/// Encodes a [`ReplanRequest`] as a `replan` frame.
pub fn replan_request_json(req: &ReplanRequest) -> Json {
    let mut doc = request_json(&req.plan);
    doc.set("type", "replan");
    doc.set("profile", req.profile.as_str());
    doc.set("seed", req.seed);
    doc.set("lambda", req.lambda);
    doc.set("horizon", req.horizon);
    doc
}

/// Encodes a `cancel` frame naming a client `id` and/or a server
/// `request_id`.
pub fn cancel_json(id: Option<&str>, request_id: Option<u64>) -> Json {
    tagged("cancel")
        .with_opt("id", id)
        .with_opt("request_id", request_id)
}

/// Encodes a `stats` introspection frame, optionally carrying a trace id to
/// be echoed on the snapshot response.
pub fn stats_request_json(trace_id: Option<&str>) -> Json {
    tagged("stats").with_opt("trace_id", trace_id)
}

fn cache_json(resp: &crate::CacheOutcome) -> Json {
    Json::obj()
        .with("plan_cache_hit", resp.plan_cache_hit)
        .with("coalesced", resp.coalesced)
        .with("warm_matrix_hits", resp.warm_matrix_hits)
        .with("warm_matrix_misses", resp.warm_matrix_misses)
}

/// Encodes a [`PlanResponse`] as a `plan_response` frame.
pub fn plan_response_json(resp: &PlanResponse) -> Json {
    tagged("plan_response")
        .with("id", resp.id.as_str())
        .with("ok", true)
        .with("fingerprint", resp.fingerprint.as_str())
        .with("model", resp.model.as_str())
        .with("devices", resp.devices)
        .with("batch", resp.batch)
        .with("seq", resp.seq)
        .with("layers", resp.layers)
        .with("strategy", resp.strategy.to_string())
        .with("optimality_gap", resp.metrics.optimality_gap)
        .with("elapsed_us", resp.elapsed.as_micros() as u64)
        .with("layer_cost", resp.plan.layer_cost)
        .with("total_cost", resp.plan.total_cost)
        .with("plan_text", resp.plan_text.as_str())
        .with("cache", cache_json(&resp.cache))
        .with("metrics", resp.metrics.to_metrics().to_json())
}

/// Encodes a [`SimResponse`] as a `sim_response` frame.
pub fn sim_response_json(resp: &SimResponse) -> Json {
    let report = &resp.report;
    tagged("sim_response")
        .with("id", resp.id.as_str())
        .with("ok", true)
        .with("fingerprint", resp.fingerprint.as_str())
        .with("elapsed_us", resp.elapsed.as_micros() as u64)
        .with("iteration_time", report.iteration_time)
        .with("peak_memory_bytes", report.peak_memory_bytes)
        .with("tokens_per_second", report.tokens_per_second)
        .with("cache", cache_json(&resp.cache))
        .with_opt("robustness", resp.robustness.as_ref().map(robustness_json))
}

/// Encodes a [`ReplanResponse`] as a `replan_response` frame: the decision
/// tag, the migration bill, and the full candidate table the decision was
/// ranked over.
pub fn replan_response_json(resp: &ReplanResponse) -> Json {
    let outcome = &resp.outcome;
    let candidates = Json::Arr(
        outcome
            .candidates
            .iter()
            .map(|cand| {
                Json::obj()
                    .with("decision", cand.decision.tag())
                    .with("feasible", cand.feasible)
                    .with("migration_bytes", cand.migration_bytes)
                    .with("migration_seconds", cand.migration_seconds)
                    .with("iteration_seconds", cand.iteration_seconds)
                    .with("total_seconds", cand.total_seconds)
            })
            .collect(),
    );
    tagged("replan_response")
        .with("id", resp.id.as_str())
        .with("ok", true)
        .with("fingerprint", resp.fingerprint.as_str())
        .with("decision", outcome.decision.tag())
        .with("migration_bytes", outcome.migration_bytes)
        .with("migration_seconds", outcome.migration_seconds)
        .with("candidates", candidates)
        .with("elapsed_us", resp.elapsed.as_micros() as u64)
        .with("cache", cache_json(&resp.cache))
}

/// Encodes a failure as an `error` frame.
pub fn error_json(id: &str, err: &Error) -> Json {
    tagged("error").with("id", id).with("ok", false).with(
        "error",
        Json::obj()
            .with("kind", err.kind())
            .with("message", err.message()),
    )
}

/// `primepar serve` configuration.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Worker threads of the underlying pool (0 = pool default).
    pub workers: usize,
    /// When set, each successful plan response is also written to
    /// `<dir>/<id>.plan.txt` in the canonical text format.
    pub plan_dir: Option<PathBuf>,
    /// When set, [`serve_lines`] / [`serve_unix_socket`] load the warm
    /// cache from this `primepar.cache.v1` artifact on startup (if it
    /// exists) and dump it back on exit.
    pub cache_file: Option<PathBuf>,
    /// When set, the session appends a `primepar.events.v1` JSONL event log
    /// here: serve lifecycle, every request received/done, rejections, and
    /// slow-request breakdowns.
    pub event_log: Option<PathBuf>,
    /// When set, the session writes its Chrome trace (`primepar.trace.v1`,
    /// one lane per worker) here on exit.
    pub trace_out: Option<PathBuf>,
    /// When set, the session dumps a `primepar.stats.v1` snapshot — flight
    /// recorder included — here on shutdown and from the worker-pool panic
    /// path.
    pub stats_out: Option<PathBuf>,
    /// Emit a `request.slow` event (stage-level breakdown) for any request
    /// over this wall-clock threshold, milliseconds.
    pub slow_ms: Option<u64>,
    /// Stamp event timestamps from a logical clock (append sequence) instead
    /// of wall time, omit wall-derived event fields, and hold each request's
    /// completion events until the input closes, then write them in admit
    /// order: two serve runs over the same input then produce
    /// byte-identical event logs. Whether a request is slow is a wall-clock
    /// verdict, so a session that sets both this and
    /// [`ServeOptions::slow_ms`] is refused with [`Error::Config`].
    pub logical_clock: bool,
}

/// How a serve loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeEnd {
    /// Plan/sim/replan requests submitted.
    pub requests: u64,
    /// Error frames emitted (parse failures and failed requests).
    pub errors: u64,
    /// The stream ended with an explicit `shutdown` frame (vs EOF).
    pub shutdown: bool,
}

/// What the serve loop waits on: the reader thread's lines and the
/// workers' verdicts, in one arrival order.
enum Input {
    /// One request line, or the transport failure that ended the input.
    Line(std::io::Result<Result<String, Error>>),
    /// End of input.
    Eof,
    /// Request `request_id` finished.
    Done(u64, Result<Response, Error>),
}

/// One accepted request awaiting its verdict.
struct Admitted {
    trace: Arc<RequestTrace>,
    cancel: SearchInterrupt,
}

fn sanitize_artifact_id(id: &str) -> String {
    let cleaned: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "plan".to_string()
    } else {
        cleaned
    }
}

/// A request-lifecycle event: the request's trace context, kind, client id
/// and request id.
fn request_event(level: EventLevel, name: &str, trace: &RequestTrace) -> Event {
    Event::new(level, name)
        .context(trace.trace_id(), "s0")
        .field("kind", trace.kind())
        .field("id", trace.id())
        .field("request_id", trace.request_id())
}

/// The serve loop's output side: the client writer, the session's observer
/// and event log, and the running totals.
struct Session<'s, W> {
    writer: &'s mut W,
    opts: &'s ServeOptions,
    observer: &'s ServiceObserver,
    events: Option<EventLog>,
    /// Under the logical clock, each finished request's `request.done`
    /// event keyed by its `request_id`: [`Session::close_log`] writes them
    /// in admit order, after the input events, so the log's order depends
    /// on the input alone and not on when workers finish.
    held: Vec<(u64, Event)>,
    end: ServeEnd,
}

impl<W: Write> Session<'_, W> {
    /// Writes one frame to the client and flushes it.
    fn send(&mut self, doc: &Json) -> Result<(), Error> {
        writeln!(self.writer, "{}", doc.render())
            .and_then(|()| self.writer.flush())
            .map_err(|e| Error::internal(format!("transport failed: {e}")))
    }

    /// Appends an event to the session log, if one is configured.
    fn log(&mut self, event: Event) -> Result<(), Error> {
        match &mut self.events {
            Some(log) => log
                .emit(event)
                .map_err(|e| Error::internal(format!("event log write failed: {e}"))),
            None => Ok(()),
        }
    }

    /// Logs request `request_id`'s `request.done` event: at once on the
    /// wall clock, held for [`Session::close_log`] on the logical one.
    fn log_finished(&mut self, request_id: u64, event: Event) -> Result<(), Error> {
        if self.opts.logical_clock && self.events.is_some() {
            self.held.push((request_id, event));
            Ok(())
        } else {
            self.log(event)
        }
    }

    /// Writes the held `request.done` events in admit order, then the
    /// closing `serve.shutdown` event, and flushes the log.
    fn close_log(&mut self) -> Result<(), Error> {
        let mut held = std::mem::take(&mut self.held);
        held.sort_by_key(|&(request_id, _)| request_id);
        for (_, event) in held {
            self.log(event)?;
        }
        let end = self.end;
        self.log(
            Event::new(EventLevel::Info, "serve.shutdown")
                .field("requests", end.requests)
                .field("errors", end.errors)
                .field("shutdown_frame", end.shutdown),
        )?;
        if let Some(log) = &mut self.events {
            log.flush()
                .map_err(|e| Error::internal(format!("event log flush failed: {e}")))?;
        }
        Ok(())
    }

    /// Answers a line that failed to read or parse.
    fn reject(&mut self, err: &Error) -> Result<(), Error> {
        self.end.errors += 1;
        self.log(
            Event::new(EventLevel::Error, "request.rejected").field("message", err.message()),
        )?;
        self.send(&error_json("", err))
    }

    /// Admits one request frame as the session's next `request_id`: opens
    /// its trace and logs its receipt.
    fn admit(
        &mut self,
        trace_id: Option<String>,
        req: &Request,
    ) -> Result<Arc<RequestTrace>, Error> {
        self.end.requests += 1;
        let trace = self
            .observer
            .begin_request(trace_id, self.end.requests, req);
        self.log(request_event(EventLevel::Info, "request.received", &trace))?;
        Ok(trace)
    }

    /// Answers an admitted request with its worker's verdict, then closes
    /// its trace and logs it: a `request.done` event, and a `request.slow`
    /// breakdown past the threshold.
    fn emit(
        &mut self,
        trace: &Arc<RequestTrace>,
        verdict: Result<Response, Error>,
    ) -> Result<(), Error> {
        // Read how the request ended before the verdict is consumed building
        // the response document.
        let ending = Ending::of(&verdict);
        let level = if ending.ok() {
            EventLevel::Info
        } else {
            EventLevel::Error
        };
        let mut done = request_event(level, "request.done", trace)
            .field("status", ending.status.as_str())
            .field("outcome", ending.outcome);
        let mut doc = match verdict {
            Ok(Response::Plan(resp)) => {
                if let Some(dir) = &self.opts.plan_dir {
                    let path = dir.join(format!("{}.plan.txt", sanitize_artifact_id(trace.id())));
                    std::fs::write(&path, &resp.plan_text)
                        .map_err(|e| Error::internal(format!("--plan-dir write failed: {e}")))?;
                }
                plan_response_json(&resp)
            }
            Ok(Response::Sim(resp)) => sim_response_json(&resp),
            Ok(Response::Replan(resp)) => replan_response_json(&resp),
            Err(err) => {
                self.end.errors += 1;
                error_json(trace.id(), &err)
            }
        };
        doc.set("request_id", trace.request_id());
        doc.set("trace_id", trace.trace_id());
        doc.set("peak_rss_bytes", peak_rss_bytes());
        self.send(&doc)?;

        let slow = self.observer.complete_request(trace, ending);
        let elapsed_us = trace.elapsed_us();
        // Wall-derived fields would break the logical clock's byte-identical
        // same-input guarantee; the flight recorder still has them.
        if !self.opts.logical_clock {
            done = done.field("elapsed_us", elapsed_us);
            if let Some(worker) = trace.worker() {
                done = done.field("worker", worker as u64);
            }
        }
        self.log_finished(trace.request_id(), done)?;
        // Slow verdicts exist only on the wall clock (see `check_clock`), so
        // the breakdown is never held.
        if slow {
            let mut warn = request_event(EventLevel::Warn, "request.slow", trace)
                .field("elapsed_us", elapsed_us)
                .field("threshold_ms", self.opts.slow_ms.unwrap_or(0));
            for (name, dur_us) in trace.stages() {
                warn = warn.field(format!("stage.{name}"), dur_us);
            }
            self.log(warn)?;
        }
        Ok(())
    }
}

/// A fresh cache, warmed from [`ServeOptions::cache_file`] if it exists.
fn restored_cache(opts: &ServeOptions) -> Result<WarmCache, Error> {
    let cache = WarmCache::new();
    match &opts.cache_file {
        Some(path) if path.exists() => cache.load(path).map(|_| cache),
        _ => Ok(cache),
    }
}

/// Serves the line protocol from `reader` to `writer` over a private
/// [`WarmCache`] until EOF or a `shutdown` frame, honouring
/// [`ServeOptions::cache_file`].
///
/// # Errors
///
/// [`Error::Internal`] when the transport itself fails (read/write errors)
/// or the cache file cannot be written; [`Error::Protocol`] for a corrupt
/// cache file. Malformed frames and failed requests are answered in-band as
/// `error` frames, never escalated.
pub fn serve_lines(
    reader: impl BufRead + Send,
    writer: &mut impl Write,
    opts: &ServeOptions,
) -> Result<ServeEnd, Error> {
    let cache = restored_cache(opts)?;
    let end = serve_lines_with_cache(reader, writer, &cache, opts)?;
    if let Some(path) = &opts.cache_file {
        cache.save(path)?;
    }
    Ok(end)
}

/// Longest request frame the serve loop reads, in bytes, line terminator
/// excluded. A longer line is skipped, never buffered past the cap, and
/// answered with an in-band `protocol` error; the session goes on.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Largest artifact file the CLI and the service read whole, in bytes:
/// `primepar validate`, `serve --cache-file` and `plan --plan` go through
/// [`read_artifact`]. The largest artifact `scripts/ci.sh` writes, a
/// 2-device plan's Chrome trace, is 28,971 bytes, and a 32-device OPT-175B
/// trace is 67 KB: 16 MiB leaves over 200× room, and holds a warm-cache dump
/// of some 20,000 plans.
pub const MAX_ARTIFACT_BYTES: u64 = 16 << 20;

/// Reads an artifact file as UTF-8 text, refusing one longer than
/// [`MAX_ARTIFACT_BYTES`] without reading it whole.
///
/// # Errors
///
/// [`Error::Internal`] when the file cannot be opened or read;
/// [`Error::Protocol`] naming the cap for an oversized file, or for one that
/// is not UTF-8.
pub fn read_artifact(path: &std::path::Path) -> Result<String, Error> {
    let io = |e: std::io::Error| Error::internal(format!("cannot read {}: {e}", path.display()));
    let too_long = || {
        Error::protocol(format!(
            "{}: file longer than {MAX_ARTIFACT_BYTES} bytes",
            path.display()
        ))
    };
    let file = std::fs::File::open(path).map_err(io)?;
    // The size check refuses a regular file unread; the `take` bounds what a
    // pipe, a device or a growing file can deliver.
    if file.metadata().map_err(io)?.len() > MAX_ARTIFACT_BYTES {
        return Err(too_long());
    }
    let mut bytes = Vec::new();
    file.take(MAX_ARTIFACT_BYTES + 1)
        .read_to_end(&mut bytes)
        .map_err(io)?;
    if bytes.len() as u64 > MAX_ARTIFACT_BYTES {
        return Err(too_long());
    }
    String::from_utf8(bytes)
        .map_err(|_| Error::protocol(format!("{}: not valid UTF-8", path.display())))
}

/// Reads the next `\n`-terminated frame (a trailing `\r` is dropped, as
/// [`BufRead::lines`] does). Returns `Ok(None)` at end of input, and an
/// in-band `protocol` error for a line longer than [`MAX_FRAME_BYTES`] or
/// not valid UTF-8.
fn read_frame(reader: &mut impl BufRead) -> std::io::Result<Option<Result<String, Error>>> {
    let cap = MAX_FRAME_BYTES as u64 + 1;
    let mut buf = Vec::new();
    if reader.by_ref().take(cap).read_until(b'\n', &mut buf)? == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') && buf.len() > MAX_FRAME_BYTES {
        // Skip the rest of the line, holding at most one capped chunk.
        while buf.last() != Some(&b'\n') {
            buf.clear();
            if reader.by_ref().take(cap).read_until(b'\n', &mut buf)? == 0 {
                break;
            }
        }
        return Ok(Some(Err(Error::protocol(format!(
            "frame longer than {MAX_FRAME_BYTES} bytes"
        )))));
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    Ok(Some(
        String::from_utf8(buf).map_err(|_| Error::protocol("frame is not valid UTF-8")),
    ))
}

/// [`serve_lines`] over a caller-owned cache — the shape multi-connection
/// hosts use so warm state survives across sessions. The caller also owns
/// persistence ([`ServeOptions::cache_file`] is ignored here).
///
/// The loop returns once its input stream closes: a client that sent
/// `shutdown` gets its drained responses and the `bye` frame immediately,
/// but must close its write side for the call to return.
///
/// # Errors
///
/// See [`serve_lines`]; also [`Error::Config`] when `opts` sets both
/// [`ServeOptions::logical_clock`] and [`ServeOptions::slow_ms`].
pub fn serve_lines_with_cache(
    reader: impl BufRead + Send,
    writer: &mut impl Write,
    cache: &WarmCache,
    opts: &ServeOptions,
) -> Result<ServeEnd, Error> {
    check_clock(opts)?;
    let pool = ServiceOptions {
        workers: if opts.workers == 0 {
            ServiceOptions::default().workers
        } else {
            opts.workers
        },
    };
    let observer = &ServiceObserver::new(opts, pool.workers);
    let events = match &opts.event_log {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| Error::internal(format!("--event-log open failed: {e}")))?;
            let clock = if opts.logical_clock {
                ClockMode::Logical
            } else {
                ClockMode::Wall
            };
            Some(EventLog::new(std::io::BufWriter::new(file), clock))
        }
        None => None,
    };
    let mut session = Session {
        writer,
        opts,
        observer,
        events,
        held: Vec::new(),
        end: ServeEnd::default(),
    };
    PlannerService::run_observed(pool, cache, Some(observer), |client| {
        thread::scope(|scope| {
            // The reader thread and the workers post into one inbox, so the
            // loop blocks on a single `recv` and handles input lines and
            // finished requests in the order they arrive: a response goes
            // out as soon as its worker finishes, input idle or not.
            let (inbox_tx, inbox) = mpsc::channel::<Input>();
            let reader_tx = inbox_tx.clone();
            scope.spawn(move || {
                let mut reader = reader;
                loop {
                    let input = match read_frame(&mut reader) {
                        Ok(Some(line)) => Input::Line(Ok(line)),
                        Ok(None) => Input::Eof,
                        Err(e) => Input::Line(Err(e)),
                    };
                    let last = !matches!(input, Input::Line(Ok(_)));
                    if reader_tx.send(input).is_err() || last {
                        return;
                    }
                }
            });

            let mut pending: Vec<Admitted> = Vec::new();
            let mut input_open = true;
            session.log(
                Event::new(EventLevel::Info, "serve.start")
                    .field("workers", pool.workers as u64)
                    .field(
                        "clock",
                        if opts.logical_clock {
                            "logical"
                        } else {
                            "wall"
                        },
                    ),
            )?;
            // Every accepted request answers exactly one `Done` (see
            // `ServiceClient::dispatch`), so draining `pending` terminates.
            while (input_open && !session.end.shutdown) || !pending.is_empty() {
                let input = inbox
                    .recv()
                    .map_err(|_| Error::internal("serve inbox closed"))?;
                let line = match input {
                    Input::Eof => {
                        input_open = false;
                        continue;
                    }
                    Input::Done(request_id, verdict) => {
                        let at = pending
                            .iter()
                            .position(|r| r.trace.request_id() == request_id);
                        if let Some(at) = at {
                            session.emit(&pending.remove(at).trace, verdict)?;
                        }
                        continue;
                    }
                    // Input after `shutdown` is ignored.
                    Input::Line(_) if session.end.shutdown => continue,
                    Input::Line(line) => {
                        line.map_err(|e| Error::internal(format!("transport failed: {e}")))?
                    }
                };
                if line.as_ref().is_ok_and(|l| l.trim().is_empty()) {
                    continue;
                }
                let ParsedFrame { frame, trace_id } = match line.and_then(|l| parse_frame(&l)) {
                    Ok(parsed) => parsed,
                    Err(err) => {
                        session.reject(&err)?;
                        continue;
                    }
                };
                match frame {
                    Frame::Request(req) => {
                        let trace = session.admit(trace_id, &req)?;
                        let request_id = trace.request_id();
                        let done = inbox_tx.clone();
                        let cancel = client.dispatch(req, Some(trace.clone()), move |verdict| {
                            drop(done.send(Input::Done(request_id, verdict)));
                        });
                        pending.push(Admitted { trace, cancel });
                    }
                    Frame::Cancel { id, request_id } => {
                        for reply in pending.iter().filter(|r| {
                            id.as_deref() == Some(r.trace.id())
                                || request_id == Some(r.trace.request_id())
                        }) {
                            reply.cancel.interrupt();
                        }
                    }
                    Frame::Stats => session.send(
                        &tagged("stats")
                            .with("ok", true)
                            .with_opt("trace_id", trace_id)
                            .with("stats", observer.stats_json(cache)),
                    )?,
                    Frame::Ping => session.send(&tagged("pong").with_opt("trace_id", trace_id))?,
                    Frame::Shutdown => session.end.shutdown = true,
                }
            }
            session.close_log()?;
            let end = session.end;
            if let Some(path) = &opts.trace_out {
                std::fs::write(path, observer.chrome_trace())
                    .map_err(|e| Error::internal(format!("--trace-out write failed: {e}")))?;
            }
            observer.dump_stats(cache, "shutdown")?;
            session.send(&tagged("bye"))?;
            Ok(end)
        })
    })
}

/// Refuses a session that would judge slowness under the logical clock:
/// `request.slow` is a wall-clock verdict carrying wall-clock fields, so it
/// would break the clock's byte-identical event logs.
fn check_clock(opts: &ServeOptions) -> Result<(), Error> {
    if opts.logical_clock && opts.slow_ms.is_some() {
        return Err(Error::config(
            "--slow-ms needs the wall clock: a slow verdict and its stage times are \
             wall-clock readings, which --logical-clock omits from the event log",
        ));
    }
    Ok(())
}

/// Hosts the line protocol on a Unix domain socket, one connection at a
/// time, sharing one [`WarmCache`] across connections (and persisting it
/// via [`ServeOptions::cache_file`]). A `shutdown` frame ends the whole
/// server and removes the socket; a disconnect only ends that connection.
/// A stale socket left at `path` is replaced; any other file there is left
/// alone.
///
/// # Errors
///
/// [`Error::Config`] when `path` exists and is not a socket, or `opts` sets
/// both [`ServeOptions::logical_clock`] and [`ServeOptions::slow_ms`];
/// [`Error::Internal`] when binding or accepting fails.
#[cfg(unix)]
pub fn serve_unix_socket(path: &std::path::Path, opts: &ServeOptions) -> Result<ServeEnd, Error> {
    use std::io::BufReader;
    use std::os::unix::fs::FileTypeExt;
    use std::os::unix::net::UnixListener;

    check_clock(opts)?;
    if let Ok(meta) = std::fs::symlink_metadata(path) {
        if !meta.file_type().is_socket() {
            return Err(Error::config(format!(
                "{} exists and is not a socket; refusing to replace it",
                path.display()
            )));
        }
        std::fs::remove_file(path)
            .map_err(|e| Error::internal(format!("remove {} failed: {e}", path.display())))?;
    }
    let listener = UnixListener::bind(path)
        .map_err(|e| Error::internal(format!("bind {} failed: {e}", path.display())))?;
    let cache = restored_cache(opts)?;
    let mut total = ServeEnd::default();
    loop {
        let (stream, _) = listener
            .accept()
            .map_err(|e| Error::internal(format!("accept failed: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| Error::internal(format!("socket clone failed: {e}")))?,
        );
        let mut writer = stream;
        let end = serve_lines_with_cache(reader, &mut writer, &cache, opts)?;
        total.requests += end.requests;
        total.errors += end.errors;
        if end.shutdown {
            total.shutdown = true;
            let _ = std::fs::remove_file(path);
            if let Some(file) = &opts.cache_file {
                cache.save(file)?;
            }
            return Ok(total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(json: &str) -> String {
        format!("{json}\n")
    }

    fn by_id<'l>(lines: &'l [Json], id: &str) -> &'l Json {
        lines
            .iter()
            .find(|doc| doc.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no response with id {id}"))
    }

    fn parse_lines(out: Vec<u8>) -> Vec<Json> {
        String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(|l| parse_json(l).expect("frame json"))
            .collect()
    }

    #[test]
    fn read_frame_caps_line_length_and_resynchronizes() {
        let fits = "a".repeat(MAX_FRAME_BYTES);
        // Spans three capped chunks, so skipping it takes more than one read.
        let over = "b".repeat(2 * MAX_FRAME_BYTES + 5);
        let mut bytes = format!("{fits}\n{over}\nnext\r\n").into_bytes();
        bytes.extend_from_slice(b"\xff\nlast");
        let mut reader = std::io::Cursor::new(bytes);
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut reader).expect("in-memory read") {
            frames.push(frame);
        }
        assert_eq!(frames.len(), 5);
        assert_eq!(frames[0].as_deref().ok(), Some(fits.as_str()));
        assert!(frames[1]
            .as_ref()
            .unwrap_err()
            .message()
            .contains("longer than"));
        assert_eq!(frames[2].as_deref().ok(), Some("next"));
        assert!(frames[3].as_ref().unwrap_err().message().contains("UTF-8"));
        assert_eq!(frames[4].as_deref().ok(), Some("last"));
    }

    #[test]
    fn read_artifact_refuses_files_over_the_cap_unread() {
        let dir = std::env::temp_dir().join(format!("primepar-read-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let fits = dir.join("fits.metrics.json");
        std::fs::write(&fits, "{}").expect("writes");
        assert_eq!(read_artifact(&fits).expect("reads"), "{}");
        // A sparse file one byte over the cap: refused from its size alone.
        let over = dir.join("over.trace.json");
        std::fs::File::create(&over)
            .and_then(|f| f.set_len(MAX_ARTIFACT_BYTES + 1))
            .expect("sizes");
        match read_artifact(&over) {
            Err(Error::Protocol(m)) => assert!(m.contains(&MAX_ARTIFACT_BYTES.to_string()), "{m}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            read_artifact(&dir.join("absent")).unwrap_err().exit_code(),
            6
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_memoize_and_prune_keys_are_ignored() {
        // Older clients still send the three retired request knobs; like any
        // unknown key they no longer change (or fail) the parse.
        let plain = r#"{"schema_version":"primepar.service.v2","type":"plan","id":"r1","model":"opt-6.7b"}"#;
        let retired = r#"{"schema_version":"primepar.service.v2","type":"plan","id":"r1","model":"opt-6.7b","memoize":false,"prune":true,"simulate":true}"#;
        let expect = parse_frame(plain).expect("parses");
        assert_eq!(parse_frame(retired).expect("parses"), expect);
        let encoded = request_json(&PlanRequest::builder("opt-6.7b").build()).render();
        assert!(!encoded.contains("memoize") && !encoded.contains("prune"));
        // `simulate` is still written, always false, so transcripts replay
        // byte-identically.
        assert!(encoded.contains(r#""simulate":false"#));
    }

    #[test]
    fn frames_round_trip_through_their_builders() {
        let req = PlanRequest::builder("opt-6.7b")
            .id("r1")
            .devices(16)
            .layers(Some(2))
            .deadline_ms(Some(250))
            .build();
        let encoded = request_json(&req).render();
        assert!(
            !encoded.contains("strategy"),
            "exact requests omit the strategy field"
        );
        let parsed = parse_frame(&encoded).expect("parses");
        assert_eq!(parsed.frame, Frame::Request(Request::Plan(req.clone())));

        // Non-default strategies survive the wire both ways.
        let anytime = PlanRequest::builder("opt-6.7b")
            .id("r2")
            .strategy(SearchStrategy::Anytime { budget_ms: 500 })
            .build();
        let encoded = request_json(&anytime).render();
        assert!(encoded.contains(r#""strategy":"anytime:500ms""#));
        assert_eq!(
            parse_frame(&encoded).expect("parses").frame,
            Frame::Request(Request::Plan(anytime))
        );
        assert!(matches!(
            parse_frame(
                r#"{"schema_version":"primepar.service.v2","type":"plan","model":"opt-6.7b","strategy":"beam:zero"}"#
            ),
            Err(Error::Protocol(_))
        ));

        let sim = SimRequest::of(req.clone()).with_sweep("harsh", 3, 9);
        let parsed = parse_frame(&sim_request_json(&sim).render()).expect("parses");
        assert_eq!(parsed.frame, Frame::Request(Request::Sim(sim)));

        let replan = ReplanRequest::of(req)
            .with_scenario("mild", 7)
            .with_lambda(1.5)
            .with_horizon(250);
        let parsed = parse_frame(&replan_request_json(&replan).render()).expect("parses");
        assert_eq!(parsed.frame, Frame::Request(Request::Replan(replan)));

        let cancel = cancel_json(Some("r1"), Some(7));
        assert_eq!(
            parse_frame(&cancel.render()).expect("parses").frame,
            Frame::Cancel {
                id: Some("r1".into()),
                request_id: Some(7),
            }
        );
        // Either cancellation key alone is enough.
        assert_eq!(
            parse_frame(&cancel_json(None, Some(3)).render())
                .expect("parses")
                .frame,
            Frame::Cancel {
                id: None,
                request_id: Some(3),
            }
        );
    }

    #[test]
    fn untagged_and_v1_frames_are_rejected_in_band() {
        let untagged = r#"{"type":"plan","id":"old","model":"opt-6.7b"}"#;
        let v1 = r#"{"schema_version":"primepar.service.v1","type":"plan","id":"old","model":"opt-6.7b"}"#;
        for frame in [untagged, v1] {
            match parse_frame(frame) {
                Err(Error::Protocol(message)) => assert!(
                    message.contains(SERVICE_SCHEMA) && message.contains("CHANGELOG"),
                    "the rejection names the current tag and the migration notes: {message}"
                ),
                other => panic!("{frame}: {other:?}"),
            }
        }
        // Each draws exactly one error frame; the next v2 frame is served.
        let input = format!(
            "{}{}{}",
            line(untagged),
            line(v1),
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"new","model":"opt-6.7b","devices":4,"seq":512,"layers":1}"#
            ),
        );
        let mut out = Vec::new();
        let end = serve_lines(
            input.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!((end.requests, end.errors), (1, 2));
        let lines = parse_lines(out);
        let types: Vec<_> = lines
            .iter()
            .map(|doc| doc.get("type").and_then(Json::as_str).expect("type"))
            .collect();
        assert_eq!(types, ["error", "error", "plan_response", "bye"]);
        for doc in &lines[..2] {
            assert_eq!(
                doc.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some("protocol")
            );
        }
        assert_eq!(
            by_id(&lines, "new").get("ok").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn bad_frames_are_protocol_errors() {
        for (label, input) in [
            ("not json", "{nope"),
            ("not an object", "[1,2]"),
            (
                "wrong schema",
                r#"{"schema_version":"primepar.service.v999","type":"ping"}"#,
            ),
            (
                "missing type",
                r#"{"schema_version":"primepar.service.v2"}"#,
            ),
            (
                "unknown type",
                r#"{"schema_version":"primepar.service.v2","type":"dance"}"#,
            ),
            (
                "mistyped field",
                r#"{"schema_version":"primepar.service.v2","type":"plan","model":"opt-6.7b","devices":"many"}"#,
            ),
            (
                "cancel without keys",
                r#"{"schema_version":"primepar.service.v2","type":"cancel"}"#,
            ),
            (
                "cancel with mistyped request_id",
                r#"{"schema_version":"primepar.service.v2","type":"cancel","request_id":"three"}"#,
            ),
        ] {
            let verdict = parse_frame(input);
            assert!(
                matches!(verdict, Err(Error::Protocol(_))),
                "{label}: {verdict:?}"
            );
        }
    }

    #[test]
    fn serve_lines_tags_request_ids_and_reports_cache_hits() {
        let request = r#"{"schema_version":"primepar.service.v2","type":"plan","id":"ID","model":"opt-6.7b","devices":4,"seq":512,"layers":2}"#;
        let input = format!(
            "{}{}{}",
            line(&request.replace("ID", "r1")),
            line(&request.replace("ID", "r2")),
            line(r#"{"schema_version":"primepar.service.v2","type":"shutdown"}"#),
        );
        let mut out = Vec::new();
        let end = serve_lines(
            input.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!((end.requests, end.errors, end.shutdown), (2, 0, true));
        let lines = parse_lines(out);
        assert_eq!(lines.len(), 3, "r1, r2, bye");
        for doc in &lines[..2] {
            assert_eq!(
                doc.get("schema_version").and_then(Json::as_str),
                Some(SERVICE_SCHEMA)
            );
        }
        let (r1, r2) = (by_id(&lines, "r1"), by_id(&lines, "r2"));
        assert_eq!(r1.get("request_id").and_then(Json::as_u64), Some(1));
        assert_eq!(r2.get("request_id").and_then(Json::as_u64), Some(2));
        assert_eq!(
            r1.get("cache")
                .and_then(|c| c.get("plan_cache_hit"))
                .and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            r2.get("cache")
                .and_then(|c| c.get("plan_cache_hit"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            r1.get("plan_text").and_then(Json::as_str),
            r2.get("plan_text").and_then(Json::as_str),
            "served plans are byte-identical"
        );
    }

    /// A client writer that runs `on_line` on each complete line written.
    struct Watched<F> {
        bytes: Vec<u8>,
        scanned: usize,
        on_line: F,
    }

    impl<F: FnMut(&str)> Write for Watched<F> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            while let Some(end) = self.bytes[self.scanned..].iter().position(|&b| b == b'\n') {
                let line = &self.bytes[self.scanned..self.scanned + end];
                (self.on_line)(std::str::from_utf8(line).expect("utf8 frame"));
                self.scanned += end + 1;
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn cheap_responses_overtake_expensive_ones() {
        // Two workers, an expensive request first, a cheap one second: the
        // cheap response must come back first (out-of-order emission).
        // Scheduling alone cannot promise that under load, so the test
        // holds the expensive plan: it leads that plan's memo flight before
        // the session starts, and releases it only once the client has
        // read the cheap response. The expensive request coalesces onto
        // the held flight. A loop that answered in admit order would hold
        // the cheap response behind it; the flight then lands after the
        // timeout and the order check below fails.
        let slow = r#"{"schema_version":"primepar.service.v2","type":"plan","id":"slow","model":"opt-6.7b","devices":8,"seq":512,"layers":4}"#;
        let input = format!(
            "{}{}{}",
            line(slow),
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"fast","model":"opt-6.7b","devices":4,"seq":512,"layers":1}"#
            ),
            line(r#"{"schema_version":"primepar.service.v2","type":"shutdown"}"#),
        );
        let Ok(ParsedFrame {
            frame: Frame::Request(Request::Plan(slow_req)),
            ..
        }) = parse_frame(slow)
        else {
            panic!("the slow frame is a plan request");
        };
        let cache = WarmCache::new();
        let (held_tx, held) = mpsc::channel::<()>();
        let (release_tx, release) = mpsc::channel::<()>();
        let (end, out) = thread::scope(|scope| {
            let (cache, slow_req) = (&cache, &slow_req);
            scope.spawn(move || {
                cache.plan_held(slow_req, || {
                    held_tx.send(()).expect("test waits for the hold");
                    let _ = release.recv_timeout(std::time::Duration::from_secs(60));
                });
            });
            held.recv().expect("the slow plan's flight is held");
            let mut release_tx = Some(release_tx);
            let mut out = Watched {
                bytes: Vec::new(),
                scanned: 0,
                on_line: |frame: &str| {
                    if let Some(tx) = release_tx.take_if(|_| frame.contains(r#""id":"fast""#)) {
                        let _ = tx.send(());
                    }
                },
            };
            let end = serve_lines_with_cache(
                input.as_bytes(),
                &mut out,
                cache,
                &ServeOptions {
                    workers: 2,
                    ..ServeOptions::default()
                },
            )
            .expect("serves");
            (end, out.bytes)
        });
        assert_eq!((end.requests, end.errors), (2, 0));
        let lines = parse_lines(out);
        assert_eq!(lines[0].get("id").and_then(Json::as_str), Some("fast"));
        assert_eq!(lines[0].get("request_id").and_then(Json::as_u64), Some(2));
        assert_eq!(lines[1].get("id").and_then(Json::as_str), Some("slow"));
        assert_eq!(lines[1].get("request_id").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn cancel_by_request_id_answers_in_band() {
        // One worker: "busy" occupies it while "doomed" sits queued; the
        // cancel frame names request_id 2 and must land before a worker
        // picks "doomed" up.
        let input = format!(
            "{}{}{}{}",
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"busy","model":"opt-6.7b","devices":4,"seq":512,"layers":2}"#
            ),
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"doomed","model":"opt-6.7b","devices":8,"seq":512,"layers":4}"#
            ),
            line(r#"{"schema_version":"primepar.service.v2","type":"cancel","request_id":2}"#),
            line(r#"{"schema_version":"primepar.service.v2","type":"shutdown"}"#),
        );
        let mut out = Vec::new();
        let end = serve_lines(
            input.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!((end.requests, end.errors, end.shutdown), (2, 1, true));
        let lines = parse_lines(out);
        let doomed = by_id(&lines, "doomed");
        assert_eq!(doomed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doomed
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("cancelled")
        );
        assert_eq!(doomed.get("request_id").and_then(Json::as_u64), Some(2));
        // The pool survived: "busy" answered fine.
        assert_eq!(
            by_id(&lines, "busy").get("ok").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn expired_deadline_answers_in_band_and_spares_the_pool() {
        let input = format!(
            "{}{}",
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"late","model":"opt-6.7b","devices":4,"seq":512,"layers":2,"deadline_ms":0}"#
            ),
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"fine","model":"opt-6.7b","devices":4,"seq":512,"layers":2}"#
            ),
        );
        let mut out = Vec::new();
        let end = serve_lines(
            input.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!((end.requests, end.errors, end.shutdown), (2, 1, false));
        let lines = parse_lines(out);
        let late = by_id(&lines, "late");
        assert_eq!(late.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            late.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("cancelled")
        );
        let fine = by_id(&lines, "fine");
        assert_eq!(fine.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn malformed_lines_answer_errors_without_ending_the_session() {
        let input = format!(
            "{}{}",
            line("{broken"),
            line(r#"{"schema_version":"primepar.service.v2","type":"ping"}"#),
        );
        let mut out = Vec::new();
        let end =
            serve_lines(input.as_bytes(), &mut out, &ServeOptions::default()).expect("serves");
        assert_eq!((end.requests, end.errors), (0, 1));
        let text = String::from_utf8(out).expect("utf8");
        let first = parse_json(text.lines().next().expect("line")).expect("json");
        assert_eq!(first.get("type").and_then(Json::as_str), Some("error"));
        let second = parse_json(text.lines().nth(1).expect("line")).expect("json");
        assert_eq!(second.get("type").and_then(Json::as_str), Some("pong"));
    }

    #[test]
    fn cache_file_round_trips_across_serve_sessions() {
        let dir = std::env::temp_dir().join(format!("primepar-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let opts = ServeOptions {
            workers: 1,
            cache_file: Some(dir.join("warm.cache.json")),
            ..ServeOptions::default()
        };
        let request = r#"{"schema_version":"primepar.service.v2","type":"plan","id":"ID","model":"opt-6.7b","devices":4,"seq":512,"layers":2}"#;

        let mut first_out = Vec::new();
        serve_lines(
            line(&request.replace("ID", "r1")).as_bytes(),
            &mut first_out,
            &opts,
        )
        .expect("first session serves");
        let first = parse_lines(first_out);
        assert_eq!(
            by_id(&first, "r1")
                .get("cache")
                .and_then(|c| c.get("plan_cache_hit"))
                .and_then(Json::as_bool),
            Some(false)
        );

        // A fresh serve session over the dumped cache starts warm.
        let mut second_out = Vec::new();
        serve_lines(
            line(&request.replace("ID", "r2")).as_bytes(),
            &mut second_out,
            &opts,
        )
        .expect("second session serves");
        let second = parse_lines(second_out);
        let r2 = by_id(&second, "r2");
        assert_eq!(
            r2.get("cache")
                .and_then(|c| c.get("plan_cache_hit"))
                .and_then(Json::as_bool),
            Some(true),
            "restart serves a memo hit"
        );
        assert_eq!(
            r2.get("plan_text").and_then(Json::as_str),
            by_id(&first, "r1").get("plan_text").and_then(Json::as_str),
            "restored plan text is byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_ids_are_sanitized() {
        assert_eq!(sanitize_artifact_id("r1"), "r1");
        assert_eq!(sanitize_artifact_id("../evil name"), "___evil_name");
        assert_eq!(sanitize_artifact_id(""), "plan");
    }

    #[test]
    fn responses_echo_client_trace_ids_and_mint_absent_ones() {
        let input = format!(
            "{}{}{}",
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"tagged","trace_id":"abc-123","model":"opt-6.7b","devices":4,"seq":512,"layers":2}"#
            ),
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"bare","model":"opt-6.7b","devices":4,"seq":512,"layers":2}"#
            ),
            line(r#"{"schema_version":"primepar.service.v2","type":"ping","trace_id":"ping-7"}"#),
        );
        let mut out = Vec::new();
        let end = serve_lines(
            input.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!(end.errors, 0);
        let lines = parse_lines(out);
        assert_eq!(
            by_id(&lines, "tagged")
                .get("trace_id")
                .and_then(Json::as_str),
            Some("abc-123"),
            "client trace ids are echoed verbatim"
        );
        assert_eq!(
            by_id(&lines, "bare").get("trace_id").and_then(Json::as_str),
            Some("t-00000001"),
            "absent trace ids are minted from the deterministic counter"
        );
        let pong = lines
            .iter()
            .find(|doc| doc.get("type").and_then(Json::as_str) == Some("pong"))
            .expect("pong");
        assert_eq!(pong.get("trace_id").and_then(Json::as_str), Some("ping-7"));
        for doc in &lines {
            if doc.get("type").and_then(Json::as_str) == Some("plan_response") {
                assert!(
                    doc.get("peak_rss_bytes").and_then(Json::as_u64).is_some(),
                    "responses carry peak_rss_bytes"
                );
            }
        }
    }

    #[test]
    fn stats_frame_answers_a_validating_live_snapshot() {
        let input = format!(
            "{}{}{}",
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"warm","model":"opt-6.7b","devices":4,"seq":512,"layers":2}"#
            ),
            line(r#"{"schema_version":"primepar.service.v2","type":"stats","trace_id":"probe-1"}"#),
            line(r#"{"schema_version":"primepar.service.v2","type":"shutdown"}"#),
        );
        let mut out = Vec::new();
        serve_lines(
            input.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        let lines = parse_lines(out);
        let stats = lines
            .iter()
            .find(|doc| doc.get("type").and_then(Json::as_str) == Some("stats"))
            .expect("stats response");
        assert_eq!(
            stats.get("trace_id").and_then(Json::as_str),
            Some("probe-1")
        );
        let snapshot = stats.get("stats").expect("snapshot");
        crate::observe::validate_stats_doc(snapshot).expect("snapshot validates");
        // The stats frame is answered inline, ahead of queued work, so the
        // plan may or may not have completed — but it was submitted.
        let submitted = snapshot
            .get("requests")
            .and_then(|r| r.get("submitted"))
            .and_then(Json::as_u64);
        assert_eq!(submitted, Some(1));
    }

    #[test]
    fn event_log_captures_the_request_lifecycle_deterministically() {
        let dir = std::env::temp_dir().join(format!("primepar-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let input = format!(
            "{}{}{}",
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"a","model":"opt-6.7b","devices":4,"seq":512,"layers":2}"#
            ),
            line("{broken"),
            line(r#"{"schema_version":"primepar.service.v2","type":"shutdown"}"#),
        );
        let serve = |path: &std::path::Path| {
            let mut out = Vec::new();
            serve_lines(
                input.as_bytes(),
                &mut out,
                &ServeOptions {
                    workers: 1,
                    event_log: Some(path.to_path_buf()),
                    logical_clock: true,
                    ..ServeOptions::default()
                },
            )
            .expect("serves");
            std::fs::read_to_string(path).expect("event log written")
        };
        let first = serve(&dir.join("a.events.jsonl"));
        let events = primepar_obs::parse_event_log(&first).expect("log parses");
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "serve.start",
                "request.received",
                "request.rejected",
                "request.done",
                "serve.shutdown"
            ]
        );
        // Logical clock: timestamps are the append sequence.
        assert_eq!(
            events.iter().map(|e| e.ts_us).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        let done = &events[3];
        assert_eq!(done.trace_id, "t-00000001");
        assert_eq!(done.span_id, "s0");
        // Same input, fresh session: the log is byte-identical.
        let second = serve(&dir.join("b.events.jsonl"));
        assert_eq!(first, second);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_dumps_trace_and_stats_artifacts() {
        let dir = std::env::temp_dir().join(format!("primepar-dumps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let trace_out = dir.join("session.trace.json");
        let stats_out = dir.join("session.stats.json");
        let input = format!(
            "{}{}",
            line(
                r#"{"schema_version":"primepar.service.v2","type":"plan","id":"a","trace_id":"tr-a","model":"opt-6.7b","devices":4,"seq":512,"layers":2}"#
            ),
            line(r#"{"schema_version":"primepar.service.v2","type":"shutdown"}"#),
        );
        let mut out = Vec::new();
        serve_lines(
            input.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                trace_out: Some(trace_out.clone()),
                stats_out: Some(stats_out.clone()),
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        let trace_text = std::fs::read_to_string(&trace_out).expect("trace written");
        let events = primepar_obs::parse_trace(&trace_text).expect("trace parses");
        assert!(events.iter().any(|e| e.name == "request"));
        assert!(
            events.iter().any(|e| e.name.starts_with("planner.")),
            "cold plan synthesizes planner stage spans"
        );
        assert!(events.iter().all(|e| {
            e.args
                .iter()
                .any(|(k, v)| k == "trace_id" && v.as_str() == Some("tr-a"))
        }));
        let stats_doc =
            parse_json(&std::fs::read_to_string(&stats_out).expect("stats written")).expect("json");
        crate::observe::validate_stats_doc(&stats_doc).expect("stats artifact validates");
        assert_eq!(
            stats_doc.get("dump_reason").and_then(Json::as_str),
            Some("shutdown")
        );
        let recorder = stats_doc
            .get("flight_recorder")
            .and_then(Json::as_array)
            .expect("recorder");
        assert_eq!(recorder.len(), 1);
        assert_eq!(
            recorder[0].get("trace_id").and_then(Json::as_str),
            Some("tr-a")
        );
        assert_eq!(
            recorder[0].get("outcome").and_then(Json::as_str),
            Some("miss")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
