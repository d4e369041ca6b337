//! `serve-zipf`: the resident service under an open loop. One connection
//! (`UnixStream::pair()` into `service::serve_lines_with_cache`, 2 workers)
//! receives seeded Poisson arrivals at 100 requests/s; each asks for one of
//! 96 plan keys — OPT-6.7B × devices {4, 8} × sequence {512, 1024, 2048} ×
//! layers 1..=16 — drawn Zipf(1.1). The whole-plan memo's budget is 25% of
//! the 96 plans' resident bytes, calibrated in set-up, so evictions and
//! re-plans (writes) run beside hits (reads) while frame parse/render and
//! the worker queue carry every request.
//!
//! Latency runs from each request's *due* time to its response, so a stall
//! also charges the requests queued behind it. These are wall times: an
//! open loop's latency is set by thread wake-ups and queueing, which do not
//! scale with the host reference the closed loops are scaled by. Every
//! served `plan_text` and `total_cost` must equal a direct
//! `Planner::optimize` of its key, and the 96 direct plans must reproduce
//! the pinned digest.
//!
//! `run` runs this workload, but `BENCHMARK.json` does not list it: on the
//! shared 2-vCPU host its latencies' run-to-run spread reached 40–120%,
//! wider than any bound the contract allows (README.md).

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use primepar::graph::ModelConfig;
use primepar::obs::{parse_json, parse_trace, Json, TraceEvent};
use primepar::search::{Planner, PlannerOptions};
use primepar::service::{
    request_json, serve_lines_with_cache, stats_request_json, CacheConfig, PlanRequest,
    ServeOptions, WarmCache,
};
use primepar::topology::Cluster;

use crate::draw::{open_loop_schedule, Arrival, Zipf};
use crate::host::HostRef;
use crate::plan::plan_digest;
use crate::report::{Outcome, Phase};
use crate::stats::{median, nearest_rank, process_cpu_seconds, Digest};
use crate::{timed_setup, Args, Traced};

/// Well below the knee of a 2-vCPU host: at 400 requests/s the two workers
/// and the client saturate both cores, and latency then measures the
/// scheduler rather than the service.
const RATE_PER_S: f64 = 100.0;
const ZIPF_S: f64 = 1.1;
const WORKERS: usize = 2;
/// Share of the 96 plans' resident bytes the memo may hold.
const BUDGET_SHARE: f64 = 0.25;
/// Memo shards. The service splits the budget evenly across shards, so at
/// the default 16 each shard holds one or two plans and the memo acts as a
/// last-key cache per shard: 50% of requests hit (measured 0.496), which
/// puts p50 on the hit/miss boundary, where its spread measures the hit
/// ratio's jitter rather than latency. At 4 each shard is an LRU of about
/// six plans and two thirds of requests hit, so p50 is a hit and p99 a miss,
/// the pairing the per-layer map assumes.
const SHARDS: usize = 4;
/// A generator later than one mean inter-arrival gap at p99 no longer
/// offers the scheduled arrival process, so the run is flagged invalid.
const MAX_LAG_P99_MS: f64 = 1e3 / RATE_PER_S;
const DEVICES: [usize; 2] = [4, 8];
const SEQS: [u64; 3] = [512, 1024, 2048];
const MAX_LAYERS: u64 = 16;
/// How long after the last due time unanswered requests are waited for
/// before they count as failed.
const DRAIN: Duration = Duration::from_secs(30);
/// Head start of the schedule over the session's start, so the first
/// arrival is not already late while the threads spin up.
const LEAD: Duration = Duration::from_millis(20);

/// Digest of the 96 direct plans (plan text, then `total_cost` bits, in
/// key order) the planner returns today.
const PIN_REFERENCES: &str = "515f73be58d3cbc9";

#[derive(Debug, Clone, Copy)]
struct Key {
    devices: usize,
    seq: u64,
    layers: u64,
}

/// The keys in Zipf rank order: device count varies fastest, then
/// sequence, then layers, so every band of hot ranks mixes the cheap
/// (4-device) and the expensive (8-device) misses evenly and the offered
/// work does not depend on the seed.
fn keys() -> Vec<Key> {
    (1..=MAX_LAYERS)
        .flat_map(|layers| {
            SEQS.into_iter().flat_map(move |seq| {
                DEVICES.into_iter().map(move |devices| Key {
                    devices,
                    seq,
                    layers,
                })
            })
        })
        .collect()
}

impl Key {
    fn request(&self, id: String) -> PlanRequest {
        PlanRequest::builder("opt-6.7b")
            .id(id)
            .devices(self.devices)
            .batch(8)
            .seq(self.seq)
            .layers(Some(self.layers))
            .build()
    }

    fn reference_digest(&self) -> String {
        let cluster = Cluster::v100_like(self.devices);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, self.seq);
        let plan = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(self.layers);
        plan_digest(&graph, &plan)
    }
}

/// Set-up: calibrate the memo budget on an unbudgeted cache, then build the
/// budgeted cache and warm it with one request per key.
fn setup(keys: &[Key]) -> WarmCache {
    let unbudgeted = WarmCache::new();
    for (i, key) in keys.iter().enumerate() {
        unbudgeted
            .execute_plan(&key.request(format!("calibrate{i}")))
            .expect("every key plans");
    }
    let budget = (unbudgeted.stats().plan_bytes as f64 * BUDGET_SHARE) as u64;
    let cache = WarmCache::with_config(CacheConfig {
        shards: SHARDS,
        memory_budget_bytes: budget,
    });
    for (i, key) in keys.iter().enumerate() {
        cache
            .execute_plan(&key.request(format!("warm{i}")))
            .expect("every key plans");
    }
    cache
}

/// What one serve session observed.
#[derive(Default)]
struct Session {
    phase: Phase,
    lags_ms: Vec<f64>,
    /// `(key rank, digest of the served plan)` of every ok response.
    served: Vec<(usize, String)>,
}

/// Per-request observations of a traced session.
#[derive(Default, Clone, Copy)]
struct Exchange {
    sent: Option<Instant>,
    rendered: Duration,
    received: Option<Instant>,
}

fn text<'d>(doc: &'d Json, key: &str) -> Option<&'d str> {
    doc.get(key).and_then(Json::as_str)
}

/// One connection's worth of the open loop: `arrivals` (due times relative
/// to the session start) are sent on schedule by a generator thread while
/// this thread reads, parses and checks the responses.
fn session(
    cache: &WarmCache,
    keys: &[Key],
    arrivals: &[Arrival],
    id_base: usize,
    mut traced: Option<&mut Traced>,
    service_trace: Option<&Path>,
) -> Session {
    let n = arrivals.len();
    let (client, server) = UnixStream::pair().expect("socket pair");
    let opts = ServeOptions {
        workers: WORKERS,
        trace_out: service_trace.map(Path::to_path_buf),
        ..ServeOptions::default()
    };
    let evictions_before = cache.stats().plan_evictions;
    let mut out = Session::default();
    let mut exchanges = vec![Exchange::default(); n];
    let mut worker_utilization = 0.0;
    let service_origin = thread::scope(|scope| {
        let server_reader = BufReader::new(server.try_clone().expect("socket clone"));
        let serving = scope.spawn(move || {
            let mut writer = server;
            serve_lines_with_cache(server_reader, &mut writer, cache, &opts)
        });
        let service_origin = Instant::now();
        let cpu_before = process_cpu_seconds();
        let start = Instant::now() + LEAD;
        let mut sink = client.try_clone().expect("socket clone");
        let generator = scope.spawn(move || {
            let mut sent = Vec::with_capacity(n);
            for (k, arrival) in arrivals.iter().enumerate() {
                let due = start + Duration::from_secs_f64(arrival.due_s);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let send = Instant::now();
                let id = format!("r{}", id_base + k);
                let mut line = request_json(&keys[arrival.rank].request(id.clone()))
                    .with("trace_id", id)
                    .render();
                let rendered = send.elapsed();
                line.push('\n');
                sink.write_all(line.as_bytes()).expect("request write");
                sent.push((send, rendered, send.saturating_duration_since(due)));
            }
            sent
        });

        client
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("read timeout");
        let mut reader = BufReader::new(client.try_clone().expect("socket clone"));
        let last_due = start + Duration::from_secs_f64(arrivals.last().map_or(0.0, |a| a.due_s));
        let deadline = last_due + DRAIN;
        let mut buf = Vec::new();
        let mut answered = 0;
        // The timed phase lasts until the last request is due, or until its
        // last response if the service ran behind: goodput then falls.
        let mut last_response = last_due;
        // The next whole line, or `None` at end of stream or once `until`
        // passes.
        let next_line =
            |reader: &mut BufReader<UnixStream>, buf: &mut Vec<u8>, until: Option<Instant>| loop {
                match reader.read_until(b'\n', buf) {
                    Ok(0) => return None,
                    Ok(_) if buf.ends_with(b"\n") => return Some(Instant::now()),
                    Ok(_) => return None,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        if until.is_some_and(|until| Instant::now() > until) {
                            return None;
                        }
                    }
                    Err(e) => panic!("response read failed: {e}"),
                }
            };
        while answered < n {
            let Some(received) = next_line(&mut reader, &mut buf, Some(deadline)) else {
                break;
            };
            let line = String::from_utf8_lossy(&buf).into_owned();
            buf.clear();
            let parse_start = Instant::now();
            let doc = parse_json(line.trim_end()).expect("responses are JSON");
            let parse_time = parse_start.elapsed();
            let Some(k) = text(&doc, "id")
                .and_then(|id| id.strip_prefix('r'))
                .and_then(|i| i.parse::<usize>().ok())
                .and_then(|i| i.checked_sub(id_base))
                .filter(|&k| k < n && exchanges[k].received.is_none())
            else {
                continue;
            };
            answered += 1;
            last_response = last_response.max(received);
            exchanges[k].received = Some(received);
            let due = start + Duration::from_secs_f64(arrivals[k].due_s);
            let latency_ms = received.saturating_duration_since(due).as_secs_f64() * 1e3;
            out.phase.latencies_ms.push(latency_ms);
            out.phase.wall_ms.push(latency_ms);
            let plan_text = text(&doc, "plan_text");
            let total_cost = doc.get("total_cost").and_then(Json::as_f64);
            match (text(&doc, "type"), plan_text, total_cost) {
                (Some("plan_response"), Some(plan_text), Some(cost)) => {
                    let digest = Digest::default()
                        .bytes(plan_text.as_bytes())
                        .u64(cost.to_bits())
                        .hex();
                    out.served.push((arrivals[k].rank, digest));
                    out.phase.ok += 1;
                }
                _ => out.phase.failed += 1,
            }
            if let Some(t) = traced.as_deref_mut() {
                t.tracer
                    .span("parse_json", "obs", parse_start, parse_time, None);
                let bytes = line.len() as f64;
                t.samples.ratio("service.response_bytes_mean", bytes, 1.0);
                t.samples.ratio(
                    "obs.parse_us_per_kb",
                    parse_time.as_secs_f64() * 1e6,
                    bytes / 1024.0,
                );
                let cache_block = doc.get("cache");
                let flag = |key: &str| {
                    cache_block
                        .and_then(|c| c.get(key))
                        .and_then(Json::as_bool)
                        .unwrap_or(false)
                };
                let (hit, coalesced) = (flag("plan_cache_hit"), flag("coalesced"));
                t.samples
                    .ratio("service.hit_ratio", f64::from(u8::from(hit)), 1.0);
                t.samples.ratio(
                    "service.coalesced_frac",
                    f64::from(u8::from(coalesced)),
                    1.0,
                );
                // Only a memo miss ran the planner; hits echo the
                // breakdown of the run that filled the memo.
                match doc.get("metrics") {
                    Some(metrics) if !hit && !coalesced => {
                        t.samples.planner_json(metrics, cache_block);
                    }
                    _ => {}
                }
            }
        }
        out.phase.failed += (n - answered) as u64;
        out.phase.timed_s = last_response.saturating_duration_since(start).as_secs_f64();
        out.phase.cpu_s = process_cpu_seconds() - cpu_before;

        for (k, (send, rendered, lag)) in generator
            .join()
            .expect("generator thread")
            .into_iter()
            .enumerate()
        {
            exchanges[k].sent = Some(send);
            exchanges[k].rendered = rendered;
            out.lags_ms.push(lag.as_secs_f64() * 1e3);
        }

        // A final `stats` frame reads the workers' busy time, then closing
        // our write side lets the service drain and say `bye`.
        let mut control = client.try_clone().expect("socket clone");
        let mut frame = stats_request_json(None).render();
        frame.push('\n');
        control.write_all(frame.as_bytes()).expect("stats write");
        while next_line(&mut reader, &mut buf, Some(deadline)).is_some() {
            let doc = parse_json(String::from_utf8_lossy(&buf).trim_end());
            buf.clear();
            if let Ok(doc) = doc {
                if text(&doc, "type") == Some("stats") {
                    worker_utilization = utilization(&doc);
                    break;
                }
            }
        }
        // Read to the end even past the deadline: a service still draining
        // a backlog must never block on a socket nobody reads.
        client.shutdown(Shutdown::Write).expect("shutdown");
        while next_line(&mut reader, &mut buf, None).is_some() {
            buf.clear();
        }
        serving
            .join()
            .expect("service thread")
            .expect("the service ends cleanly");
        service_origin
    });

    if let Some(t) = traced {
        let wall = out.phase.timed_s.max(f64::MIN_POSITIVE);
        t.samples.set(
            "service.evictions_per_s",
            (cache.stats().plan_evictions - evictions_before) as f64 / wall,
        );
        t.samples
            .set("service.worker_utilization", worker_utilization);
        for x in &exchanges {
            if let Some(sent) = x.sent {
                t.tracer
                    .span("request_json.render", "obs", sent, x.rendered, None);
            }
        }
        t.samples.set(
            "obs.render_us_per_request",
            median(
                &exchanges
                    .iter()
                    .map(|x| x.rendered.as_secs_f64() * 1e6)
                    .collect::<Vec<_>>(),
            ),
        );
        if let Some(path) = service_trace {
            let text = std::fs::read_to_string(path).expect("service trace");
            let events = parse_trace(&text).expect("the service trace parses");
            let _ = std::fs::remove_file(path);
            import_service_trace(t, &events, &exchanges, id_base, service_origin);
        }
    }
    out
}

/// Worker utilization from a `stats` frame: busy time over the session's
/// worker capacity.
fn utilization(frame: &Json) -> f64 {
    let stats = frame.get("stats");
    let uptime = stats
        .and_then(|s| s.get("uptime_us"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let workers = stats
        .and_then(|s| s.get("workers"))
        .and_then(Json::as_array)
        .unwrap_or_default();
    let busy: f64 = workers
        .iter()
        .filter_map(|w| w.get("busy_us").and_then(Json::as_f64))
        .sum();
    let capacity = uptime * workers.len() as f64;
    if capacity > 0.0 {
        busy / capacity
    } else {
        0.0
    }
}

fn layer_of(service_span: &str) -> &'static str {
    match service_span {
        "planner.edge_matrices" => "cost",
        "sim.simulate" => "sim",
        name if name.starts_with("planner.") || name == "replan.decide" => "search",
        _ => "service",
    }
}

/// Folds the service's own Chrome trace into the benchmark's: each request
/// becomes a `serve.request` span from send to response with the service's
/// spans for it (matched by trace id, re-based onto the benchmark's clock)
/// as children. Queue wait is the service's exec start minus its request
/// start; hit and miss execution times are its `cache.*` spans.
fn import_service_trace(
    t: &mut Traced,
    events: &[TraceEvent],
    exchanges: &[Exchange],
    id_base: usize,
    service_origin: Instant,
) {
    let shift_us = t.tracer.us_since_origin(service_origin);
    let mut by_request: HashMap<usize, Vec<&TraceEvent>> = HashMap::new();
    for e in events {
        let k = e
            .args
            .iter()
            .find(|(k, _)| k == "trace_id")
            .and_then(|(_, v)| v.as_str())
            .and_then(|id| id.strip_prefix('r'))
            .and_then(|i| i.parse::<usize>().ok())
            .and_then(|i| i.checked_sub(id_base));
        if let Some(k) = k.filter(|&k| k < exchanges.len()) {
            by_request.entry(k).or_default().push(e);
        }
    }
    let (mut waits, mut hits, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    let mut requests: Vec<_> = by_request.into_iter().collect();
    requests.sort_by_key(|(k, _)| *k);
    for (k, spans) in requests {
        let x = exchanges[k];
        let (Some(sent), Some(received)) = (x.sent, x.received) else {
            continue;
        };
        let root = t.tracer.span(
            "serve.request",
            "service",
            sent,
            received.saturating_duration_since(sent),
            None,
        );
        let arrived = spans.iter().find(|e| e.name == "request").map(|e| e.ts_us);
        let mut ids: HashMap<String, usize> = HashMap::new();
        for e in &spans {
            let arg = |key: &str| {
                e.args
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.as_str())
                    .map(str::to_string)
            };
            match e.name.as_str() {
                "request" => {
                    if let Some(id) = arg("span_id") {
                        ids.insert(id, root);
                    }
                    continue;
                }
                "exec" => waits.extend(arrived.map(|a| (e.ts_us - a) / 1e3)),
                "cache.hit" => hits.push(e.dur_us),
                "cache.miss" => misses.push(e.dur_us / 1e3),
                _ => {}
            }
            let parent = arg("parent")
                .and_then(|p| ids.get(&p).copied())
                .unwrap_or(root);
            let idx = t.tracer.span_us(
                &e.name,
                layer_of(&e.name),
                e.ts_us + shift_us,
                e.dur_us,
                Some(parent),
            );
            if let Some(id) = arg("span_id") {
                ids.insert(id, idx);
            }
        }
    }
    let pct = |v: &[f64], q| nearest_rank(v, q).unwrap_or(0.0);
    t.samples
        .set("service.queue_wait_p50_ms", pct(&waits, 50.0));
    t.samples
        .set("service.queue_wait_p99_ms", pct(&waits, 99.0));
    t.samples.set("service.hit_exec_us_p50", pct(&hits, 50.0));
    t.samples
        .set("service.miss_exec_ms_p50", pct(&misses, 50.0));
}

/// Where the traced session's service trace is staged: next to the
/// benchmark binary, inside the build directory.
fn staging_path() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_default()
        .join("benchmark-staging");
    std::fs::create_dir_all(&dir).expect("staging directory");
    dir.join(format!("serve-{}.trace.json", std::process::id()))
}

pub fn run(args: &Args, host: &mut HostRef, traced: Option<&mut Traced>) -> Outcome {
    let mut outcome = Outcome::default();
    let keys = keys();
    let cache = timed_setup(&mut outcome, host, || setup(&keys));
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let arrivals = open_loop_schedule(args.seed, RATE_PER_S, args.seconds, &zipf);
    let mut sessions = Vec::new();
    match traced {
        None => sessions.push(session(&cache, &keys, &arrivals, 0, None, None)),
        Some(t) => {
            // An untraced third, then the traced rest of the same schedule:
            // the per-layer numbers come from the second, and the two
            // medians give the tracing overhead.
            let split_s = args.seconds / 3.0;
            let cut = arrivals.partition_point(|a| a.due_s < split_s);
            let (head, tail) = arrivals.split_at(cut);
            let tail: Vec<Arrival> = tail
                .iter()
                .map(|a| Arrival {
                    due_s: a.due_s - split_s,
                    ..*a
                })
                .collect();
            sessions.push(session(&cache, &keys, head, 0, None, None));
            let path = staging_path();
            sessions.push(session(&cache, &keys, &tail, cut, Some(t), Some(&path)));
        }
    }

    let references: Vec<String> = keys.iter().map(Key::reference_digest).collect();
    let pinned = references
        .iter()
        .fold(Digest::default(), |d, r| d.bytes(r.as_bytes()))
        .hex();
    if pinned != PIN_REFERENCES {
        outcome.mismatch = Some(format!(
            "reference digest {pinned} differs from the pinned {PIN_REFERENCES}"
        ));
    }
    // Responses arrive out of order, so the run's digest covers the distinct
    // plans served, by key.
    let mut distinct = BTreeMap::new();
    for s in &mut sessions {
        for (rank, digest) in &s.served {
            distinct.insert(*rank, digest.clone());
            if *digest != references[*rank] {
                s.phase.ok -= 1;
                s.phase.failed += 1;
            }
        }
    }
    outcome.digest = distinct
        .values()
        .fold(Digest::default(), |d, digest| d.bytes(digest.as_bytes()))
        .hex();
    let lags: Vec<f64> = sessions.iter().flat_map(|s| s.lags_ms.clone()).collect();
    outcome.lag_p99_ms = nearest_rank(&lags, 99.0);
    if let Some(lag) = outcome.lag_p99_ms.filter(|&lag| lag > MAX_LAG_P99_MS) {
        outcome
            .flags
            .push(format!("loadgen.lag_p99_ms {lag:.3} > {MAX_LAG_P99_MS}"));
    }
    let mut sessions = sessions.into_iter();
    outcome.untraced = sessions.next().map(|s| s.phase).unwrap_or_default();
    outcome.traced_phase = sessions.next().map(|s| s.phase).unwrap_or_default();
    outcome
}
