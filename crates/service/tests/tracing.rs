//! Trace-context propagation through the wire protocol (PR 8 acceptance).
//!
//! * N concurrent requests each get their *own* `trace_id` echoed on the
//!   response — client-supplied ids verbatim, server-generated ids for
//!   untagged frames — and every response carries `peak_rss_bytes`.
//! * The exported per-session Chrome trace groups spans by trace id, every
//!   span tree is well-nested (children inside their parent's window), and
//!   executed requests land on a worker lane (`tid >= 1`).
//! * One record, three views: a request's `request.slow` breakdown, its
//!   flight-recorder entry and its Chrome spans report the same stage
//!   durations.

use std::collections::{BTreeMap, HashMap, HashSet};

use primepar_obs::{parse_event_log, parse_json, parse_trace, FieldValue, Json, TraceEvent};
use primepar_service::{request_json, serve_lines, PlanRequest, ServeOptions};

fn arg<'a>(event: &'a TraceEvent, key: &str) -> Option<&'a str> {
    event
        .args
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_str())
}

#[test]
fn parallel_clients_get_their_own_trace_ids_and_well_nested_spans() {
    let dir = std::env::temp_dir().join("primepar-tracing-itest");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace_out = dir.join("session.trace.json");

    // Six requests with distinct configurations (no shared memo entries),
    // five carrying a client trace id and one untagged.
    let mut input = String::new();
    for i in 0..6u64 {
        let req = PlanRequest::builder("opt-6.7b")
            .id(format!("c{i}"))
            .devices(4)
            .batch(8)
            .seq(256 + 64 * i)
            .layers(Some(1))
            .build();
        let mut frame = request_json(&req);
        if i < 5 {
            frame.set("trace_id", format!("client-{i}"));
        }
        input.push_str(&frame.render());
        input.push('\n');
    }
    input.push_str("{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}\n");

    let mut out = Vec::new();
    serve_lines(
        input.as_bytes(),
        &mut out,
        &ServeOptions {
            workers: 4,
            trace_out: Some(trace_out.clone()),
            ..ServeOptions::default()
        },
    )
    .expect("serves");

    // Every response echoes the trace id of its own request.
    let mut echoed: HashMap<String, String> = HashMap::new();
    for line in String::from_utf8(out).unwrap().lines() {
        let doc = parse_json(line).expect("response is JSON");
        if doc.get("type").and_then(Json::as_str) != Some("plan_response") {
            continue;
        }
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .expect("id")
            .to_string();
        let trace_id = doc
            .get("trace_id")
            .and_then(Json::as_str)
            .expect("responses carry trace_id")
            .to_string();
        assert!(
            doc.get("peak_rss_bytes").and_then(Json::as_u64).is_some(),
            "responses carry peak_rss_bytes: {line}"
        );
        echoed.insert(id, trace_id);
    }
    assert_eq!(echoed.len(), 6, "all six requests answered");
    for i in 0..5 {
        assert_eq!(echoed[&format!("c{i}")], format!("client-{i}"));
    }
    assert!(
        echoed["c5"].starts_with("t-"),
        "untagged frames get a server-generated id: {}",
        echoed["c5"]
    );
    let distinct: HashSet<&String> = echoed.values().collect();
    assert_eq!(distinct.len(), 6, "trace ids are never shared");

    // The Chrome export: per-trace span trees, well-nested by construction.
    let events = parse_trace(&std::fs::read_to_string(&trace_out).unwrap()).expect("valid trace");
    let mut by_trace: HashMap<&str, Vec<&TraceEvent>> = HashMap::new();
    for event in &events {
        by_trace
            .entry(arg(event, "trace_id").expect("span carries trace_id"))
            .or_default()
            .push(event);
    }
    assert_eq!(by_trace.len(), 6, "one span tree per request");
    for (trace_id, spans) in &by_trace {
        let windows: HashMap<&str, (f64, f64)> = spans
            .iter()
            .map(|e| {
                (
                    arg(e, "span_id").expect("span_id"),
                    (e.ts_us, e.ts_us + e.dur_us),
                )
            })
            .collect();
        let root = spans
            .iter()
            .find(|e| arg(e, "span_id") == Some("s0"))
            .unwrap_or_else(|| panic!("{trace_id}: no root span"));
        assert_eq!(root.name, "request");
        assert!(arg(root, "parent").is_none(), "the root has no parent");
        assert!(
            spans.iter().any(|e| e.name == "exec"),
            "{trace_id}: executed requests record an exec span"
        );
        for event in spans {
            assert_eq!(event.pid, 1);
            if event.name == "exec" {
                assert!(
                    (1..=4).contains(&event.tid),
                    "{trace_id}: exec lands on a worker lane, got tid {}",
                    event.tid
                );
            }
            if let Some(parent) = arg(event, "parent") {
                let (p_start, p_end) = windows[parent];
                let (start, end) = (event.ts_us, event.ts_us + event.dur_us);
                assert!(
                    start >= p_start && end <= p_end,
                    "{trace_id}: span {} [{start}, {end}] escapes its parent \
                     {parent} [{p_start}, {p_end}]",
                    event.name
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per trace id: the root duration and each stage's duration, µs.
type Breakdowns = BTreeMap<String, (u64, BTreeMap<String, u64>)>;

#[test]
fn slow_log_flight_recorder_and_chrome_trace_agree_per_trace_id() {
    let dir = std::env::temp_dir().join("primepar-slow-views-itest");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (event_log, trace_out, stats_out) = (
        dir.join("slow.events.jsonl"),
        dir.join("slow.trace.json"),
        dir.join("slow.stats.json"),
    );

    // Two cold plans and a repeat of the first (a memo hit or a coalesced
    // wait), each under a client trace id.
    let mut input = String::new();
    for (i, seq) in [256u64, 320, 256].into_iter().enumerate() {
        let req = PlanRequest::builder("opt-6.7b")
            .id(format!("s{i}"))
            .devices(4)
            .batch(8)
            .seq(seq)
            .layers(Some(1))
            .build();
        let mut frame = request_json(&req);
        frame.set("trace_id", format!("slow-{i}"));
        input.push_str(&frame.render());
        input.push('\n');
    }
    let mut out = Vec::new();
    let end = serve_lines(
        input.as_bytes(),
        &mut out,
        &ServeOptions {
            workers: 2,
            event_log: Some(event_log.clone()),
            trace_out: Some(trace_out.clone()),
            stats_out: Some(stats_out.clone()),
            slow_ms: Some(0),
            ..ServeOptions::default()
        },
    )
    .expect("serves");
    assert_eq!((end.requests, end.errors), (3, 0));

    // Every request crosses a 0 ms threshold: its `request.slow` event.
    let mut slow = Breakdowns::new();
    for event in parse_event_log(&std::fs::read_to_string(&event_log).unwrap()).unwrap() {
        if event.name != "request.slow" {
            continue;
        }
        let mut elapsed = None;
        let mut stages = BTreeMap::new();
        for (key, value) in &event.fields {
            let FieldValue::U64(us) = value else {
                continue;
            };
            if key == "elapsed_us" {
                elapsed = Some(*us);
            } else if let Some(stage) = key.strip_prefix("stage.") {
                stages.insert(stage.to_string(), *us);
            }
        }
        let elapsed = elapsed.expect("request.slow carries elapsed_us");
        assert!(slow.insert(event.trace_id, (elapsed, stages)).is_none());
    }

    // The shutdown dump's flight recorder.
    let stats = parse_json(&std::fs::read_to_string(&stats_out).unwrap()).unwrap();
    let mut recorded = Breakdowns::new();
    for entry in stats
        .get("flight_recorder")
        .and_then(Json::as_array)
        .expect("flight recorder")
    {
        let field = |key| entry.get(key).expect(key);
        let Json::Obj(stages) = field("stages_us") else {
            panic!("stages_us is an object");
        };
        let stages = stages
            .iter()
            .map(|(name, us)| (name.clone(), us.as_u64().expect("µs")))
            .collect();
        let trace_id = field("trace_id").as_str().unwrap().to_string();
        let elapsed = field("elapsed_us").as_u64().unwrap();
        assert!(recorded.insert(trace_id, (elapsed, stages)).is_none());
    }

    // The Chrome trace: the root span and the spans below it.
    let mut chrome = Breakdowns::new();
    for event in parse_trace(&std::fs::read_to_string(&trace_out).unwrap()).unwrap() {
        let trace_id = arg(&event, "trace_id").expect("trace_id").to_string();
        let (elapsed, stages) = chrome.entry(trace_id).or_default();
        if arg(&event, "parent").is_none() {
            *elapsed = event.dur_us as u64;
        } else {
            assert!(stages
                .insert(event.name.clone(), event.dur_us as u64)
                .is_none());
        }
    }

    let ids: Vec<&str> = slow.keys().map(String::as_str).collect();
    assert_eq!(ids, ["slow-0", "slow-1", "slow-2"]);
    assert_eq!(slow, recorded, "slow log vs flight recorder");
    assert_eq!(slow, chrome, "slow log vs Chrome trace");
    for (trace_id, (_, stages)) in &slow {
        assert!(stages.contains_key("exec"), "{trace_id}: {stages:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
