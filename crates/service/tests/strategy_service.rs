//! ISSUE 9 service acceptance: anytime requests never answer `cancelled`.
//!
//! The pickup-deadline/cancel machinery that turns a late exact plan into an
//! in-band `cancelled` error instead *interrupts* an anytime search: the
//! request's stop flag is the planner's `SearchInterrupt`, the width-1
//! round still runs, and the response carries the best-so-far plan plus its
//! `optimality_gap`. That holds for every request whose workload plans with
//! anytime, `sim` requests included.

use primepar_obs::{parse_json, Json};
use primepar_search::SearchStrategy;
use primepar_service::{
    serve_lines, PlanRequest, PlannerService, Request, Response, ServeOptions, ServiceOptions,
    SimRequest, WarmCache,
};
use primepar_sim::simulate_model;
use primepar_topology::Cluster;

fn anytime_request(id: &str, budget_ms: u64, deadline_ms: Option<u64>) -> PlanRequest {
    PlanRequest::builder("opt-6.7b")
        .id(id)
        .devices(4)
        .seq(512)
        .layers(Some(2))
        .strategy(SearchStrategy::Anytime { budget_ms })
        .deadline_ms(deadline_ms)
        .build()
}

#[test]
fn an_expired_deadline_still_yields_a_valid_simulatable_plan() {
    // deadline_ms 0 is already expired at worker pickup — the exact path
    // answers `cancelled` here (see server.rs's guarded tests); the anytime
    // path must instead answer with a real plan.
    let cache = WarmCache::new();
    let resp = PlannerService::run_with_cache(ServiceOptions { workers: 1 }, &cache, |client| {
        client
            .plan(anytime_request("late", 60_000, Some(0)))
            .expect("anytime requests never answer cancelled")
    });
    let resolved = anytime_request("late", 60_000, Some(0))
        .resolve()
        .expect("valid request");
    let graph = resolved.model.layer_graph(resolved.batch, resolved.seq);
    assert_eq!(
        resp.plan.seqs.len(),
        graph.ops.len(),
        "plan covers every op"
    );
    assert!(resp.plan.total_cost.is_finite());
    assert!((0.0..=1.0).contains(&resp.metrics.optimality_gap));
    assert!(resp.metrics.anytime_rounds >= 1, "one round always runs");
    let sim = simulate_model(
        &Cluster::v100_like(resolved.devices),
        &graph,
        &resp.plan.seqs,
        resolved.layers,
        (resolved.batch * resolved.seq) as f64,
    );
    assert!(sim.iteration_time.is_finite() && sim.iteration_time > 0.0);
    assert!(sim.peak_memory_bytes > 0.0);
}

#[test]
fn an_expired_deadline_still_simulates_an_anytime_workload() {
    // A `sim` request is guarded by its workload's strategy like a `plan`
    // request: the expired deadline interrupts the anytime search, and the
    // best-so-far plan is simulated instead of answering `cancelled`.
    let cache = WarmCache::new();
    let req = SimRequest::of(anytime_request("late-sim", 60_000, Some(0)));
    let verdict = PlannerService::run_with_cache(ServiceOptions { workers: 1 }, &cache, |client| {
        client.submit(Request::Sim(req)).wait()
    });
    let Ok(Response::Sim(resp)) = verdict else {
        panic!("anytime workloads never answer cancelled, got {verdict:?}");
    };
    assert_eq!(resp.id, "late-sim");
    assert!(resp.report.iteration_time.is_finite() && resp.report.iteration_time > 0.0);
    assert!(resp.report.peak_memory_bytes > 0.0);
}

#[test]
fn anytime_with_headroom_converges_and_reports_gap_zero() {
    let cache = WarmCache::new();
    let resp = PlannerService::run_with_cache(ServiceOptions { workers: 1 }, &cache, |client| {
        client
            .plan(anytime_request("roomy", 60_000, None))
            .expect("serves")
    });
    assert!(resp.metrics.anytime_converged, "60 s covers 4 devices");
    assert_eq!(resp.metrics.optimality_gap, 0.0);
    assert_eq!(resp.strategy, SearchStrategy::Anytime { budget_ms: 60_000 });
}

#[test]
fn served_anytime_frames_echo_strategy_and_gap() {
    let input = concat!(
        r#"{"schema_version":"primepar.service.v2","type":"plan","id":"a1","model":"opt-6.7b","devices":4,"seq":512,"layers":2,"strategy":"anytime:60000ms","deadline_ms":0}"#,
        "\n",
        r#"{"schema_version":"primepar.service.v2","type":"shutdown"}"#,
        "\n",
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
    assert_eq!((end.requests, end.errors), (1, 0), "no cancelled error");
    let lines: Vec<Json> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| parse_json(l).expect("frame json"))
        .collect();
    let resp = lines
        .iter()
        .find(|doc| doc.get("type").and_then(Json::as_str) == Some("plan_response"))
        .expect("plan_response frame");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        resp.get("strategy").and_then(Json::as_str),
        Some("anytime:60000ms")
    );
    let gap = resp
        .get("optimality_gap")
        .and_then(Json::as_f64)
        .expect("gap on the frame");
    assert!((0.0..=1.0).contains(&gap));
    assert!(resp
        .get("plan_text")
        .and_then(Json::as_str)
        .is_some_and(|text| !text.is_empty()));
}
