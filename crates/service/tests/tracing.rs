//! Trace-context propagation through the wire protocol (PR 8 acceptance).
//!
//! * N concurrent requests each get their *own* `trace_id` echoed on the
//!   response — client-supplied ids verbatim, server-generated ids for
//!   untagged frames — and every response carries `peak_rss_bytes`.
//! * The exported per-session Chrome trace groups spans by trace id, every
//!   span tree is well-nested (children inside their parent's window), and
//!   executed requests land on a worker lane (`tid >= 1`).

use std::collections::{HashMap, HashSet};

use primepar_obs::{parse_json, parse_trace, Json, TraceEvent};
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
