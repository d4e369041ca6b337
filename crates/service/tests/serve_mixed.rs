//! One `serve_lines` session mixing every request kind — `plan`, `sim` and
//! `replan` frames plus a `cancel` — on two workers. Each accepted request
//! is answered exactly once, by its kind's response; the served simulation
//! carries the same bits as a direct [`WarmCache::execute_sim`]; and the
//! stats counters balance, live and at shutdown.

use primepar_obs::{parse_json, Json};
use primepar_service::{
    cancel_json, replan_request_json, request_json, serve_lines, sim_request_json,
    stats_request_json, validate_stats_doc, PlanRequest, ReplanRequest, ServeOptions, SimRequest,
    WarmCache,
};
use primepar_sim::robustness_json;

fn workload(id: &str, devices: usize, layers: u64) -> PlanRequest {
    PlanRequest::builder("opt-6.7b")
        .id(id)
        .devices(devices)
        .seq(512)
        .layers(Some(layers))
        .build()
}

fn counter(doc: &Json, section: &str, key: &str) -> u64 {
    doc.get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats {section}.{key}"))
}

fn f64_field(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("field {key}"))
}

#[test]
fn mixed_kinds_are_each_answered_once_and_counters_balance() {
    let sim = SimRequest::of(workload("s1", 4, 2)).with_sweep("mild", 2, 7);
    let replan = ReplanRequest::of(workload("r1", 4, 2)).with_scenario("harsh", 5);
    let frames = [
        request_json(&workload("p1", 8, 4)).render(), // request_id 1
        sim_request_json(&sim).render(),              // 2
        // 3: queued behind two cold plans when its cancel lands. Should a
        // worker pick it up first, its slow 16-device plan is still in
        // flight when the cancel lands, which answers `cancelled` too.
        request_json(&workload("doomed", 16, 1)).render(),
        cancel_json(Some("doomed"), None).render(),
        replan_request_json(&replan).render(),        // 4
        request_json(&workload("p2", 4, 1)).render(), // 5
        stats_request_json(Some("probe")).render(),
        r#"{"schema_version":"primepar.service.v2","type":"shutdown"}"#.to_string(),
    ];
    let input: String = frames.iter().map(|f| format!("{f}\n")).collect();
    let dir = std::env::temp_dir().join(format!("primepar-serve-mixed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let stats_out = dir.join("session.stats.json");
    let mut out = Vec::new();
    let end = serve_lines(
        input.as_bytes(),
        &mut out,
        &ServeOptions {
            workers: 2,
            stats_out: Some(stats_out.clone()),
            ..ServeOptions::default()
        },
    )
    .expect("serves");
    assert_eq!((end.requests, end.errors, end.shutdown), (5, 1, true));

    let lines: Vec<Json> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| parse_json(l).expect("frame json"))
        .collect();
    let kind = |doc: &Json| doc.get("type").and_then(Json::as_str).map(str::to_string);
    let expected = [
        (1, "p1", "plan_response"),
        (2, "s1", "sim_response"),
        (3, "doomed", "error"),
        (4, "r1", "replan_response"),
        (5, "p2", "plan_response"),
    ];
    for (request_id, id, response_type) in expected {
        let answers: Vec<&Json> = lines
            .iter()
            .filter(|doc| doc.get("request_id").and_then(Json::as_u64) == Some(request_id))
            .collect();
        assert_eq!(answers.len(), 1, "request {request_id} answered once");
        let doc = answers[0];
        assert_eq!(doc.get("id").and_then(Json::as_str), Some(id));
        assert_eq!(kind(doc).as_deref(), Some(response_type), "{id}");
    }
    let doomed = lines
        .iter()
        .find(|doc| doc.get("id").and_then(Json::as_str) == Some("doomed"))
        .expect("doomed answered");
    assert_eq!(
        doomed
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("cancelled")
    );
    let request_frames = lines.iter().filter(|d| d.get("request_id").is_some());
    assert_eq!(request_frames.count(), 5, "no request is answered twice");
    assert_eq!(kind(lines.last().expect("bye")).as_deref(), Some("bye"));

    // The served simulation is the direct one, bit for bit.
    let direct = WarmCache::new().execute_sim(&sim).expect("simulates");
    let served = lines
        .iter()
        .find(|doc| kind(doc).as_deref() == Some("sim_response"))
        .expect("sim response");
    for (key, value) in [
        ("iteration_time", direct.report.iteration_time),
        ("peak_memory_bytes", direct.report.peak_memory_bytes),
        ("tokens_per_second", direct.report.tokens_per_second),
    ] {
        assert_eq!(f64_field(served, key).to_bits(), value.to_bits(), "{key}");
    }
    let sweep = direct.robustness.as_ref().expect("sweep ran");
    assert_eq!(
        served.get("robustness").map(Json::render),
        Some(robustness_json(sweep).render())
    );

    // The live snapshot is taken when its frame is read: every request was
    // already admitted, and none can have finished uncounted.
    let live = lines
        .iter()
        .find(|doc| kind(doc).as_deref() == Some("stats"))
        .and_then(|doc| doc.get("stats"))
        .expect("stats snapshot");
    validate_stats_doc(live).expect("live snapshot validates");
    let submitted = counter(live, "requests", "submitted");
    let completed = counter(live, "requests", "completed");
    assert_eq!(submitted, 5);
    assert!(completed <= submitted);
    assert!(counter(live, "requests", "errors") <= completed);
    assert!(counter(live, "requests", "queue_depth") <= submitted - completed);

    // After the drain the books close exactly.
    let dump = parse_json(&std::fs::read_to_string(&stats_out).expect("stats written"))
        .expect("stats json");
    validate_stats_doc(&dump).expect("shutdown snapshot validates");
    assert_eq!(counter(&dump, "requests", "submitted"), 5);
    assert_eq!(counter(&dump, "requests", "completed"), 5);
    assert_eq!(counter(&dump, "requests", "errors"), 1);
    assert_eq!(counter(&dump, "requests", "queue_depth"), 0);
    assert_eq!(counter(&dump, "strategies", "exact"), 5);
    let lookups = ["hits", "misses", "coalesced"]
        .iter()
        .map(|key| counter(&dump, "cache", key))
        .sum::<u64>();
    assert_eq!(
        lookups, 4,
        "every request but the cancelled one looked up its plan"
    );
    let decisions = ["stay", "patch", "replan"]
        .iter()
        .map(|key| counter(&dump, "replan", key))
        .sum::<u64>();
    assert_eq!(decisions, 1);
    let recorder = dump
        .get("flight_recorder")
        .and_then(Json::as_array)
        .expect("recorder");
    let mut recorded: Vec<u64> = recorder
        .iter()
        .filter_map(|r| r.get("request_id").and_then(Json::as_u64))
        .collect();
    recorded.sort_unstable();
    assert_eq!(recorded, [1, 2, 3, 4, 5]);
    std::fs::remove_dir_all(&dir).ok();
}
