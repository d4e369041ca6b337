//! Service determinism under concurrency (PR 5 acceptance).
//!
//! * N parallel clients get responses bitwise-identical to serial direct
//!   [`Planner::optimize`] calls on the same inputs — including the paper's
//!   Table-2 OPT-6.7B / 16-device configuration.
//! * A repeated identical request is served from the whole-plan memo: at
//!   least 2× faster than the cold call, with nonzero reported cache hits.
//! * A cancelled/deadline-expired request answers `Error::Cancelled` and
//!   leaves the pool serving.

use std::thread;

use primepar_search::{render_plan, ModelPlan, Planner};
use primepar_service::{Error, PlanRequest, PlannerService, ServiceOptions};
use primepar_topology::Cluster;

/// The plan a direct (service-free) optimizer call produces for `req`.
fn direct_plan(req: &PlanRequest) -> (ModelPlan, String) {
    let resolved = req.resolve().expect("valid request");
    let cluster = Cluster::v100_like(resolved.devices);
    let graph = resolved.model.layer_graph(resolved.batch, resolved.seq);
    let plan = Planner::new(&cluster, &graph, resolved.opts).optimize(resolved.layers);
    let text = render_plan(&graph, &plan.seqs);
    (plan, text)
}

fn assert_bitwise_equal(served: &ModelPlan, served_text: &str, direct: &ModelPlan, text: &str) {
    assert_eq!(served.seqs, direct.seqs);
    assert_eq!(served.layer_cost.to_bits(), direct.layer_cost.to_bits());
    assert_eq!(served.total_cost.to_bits(), direct.total_cost.to_bits());
    assert_eq!(served_text.as_bytes(), text.as_bytes());
}

#[test]
fn table2_served_plan_is_bitwise_identical_to_direct_optimize() {
    // The paper's Table-2 headline configuration: OPT-6.7B on 16 devices,
    // micro-batch 8, sequence 2048.
    let req = PlanRequest::builder("opt-6.7b")
        .id("table2")
        .devices(16)
        .batch(8)
        .seq(2048)
        .build();
    let (expected, expected_text) = direct_plan(&req);
    let (cold, warm, stats) = PlannerService::run(ServiceOptions::default(), |client| {
        let cold = client.plan(req.clone()).expect("serves");
        let warm = client.plan(req.clone()).expect("serves");
        (cold, warm, client.stats())
    });
    assert_bitwise_equal(&cold.plan, &cold.plan_text, &expected, &expected_text);
    assert_bitwise_equal(&warm.plan, &warm.plan_text, &expected, &expected_text);

    // Warm-repeat contract: served from the memo, with the speedup and the
    // hit counters the `stats` frame reports.
    assert!(!cold.cache.plan_cache_hit);
    assert!(warm.cache.plan_cache_hit);
    assert!(stats.plan_hits > 0);
    assert!(
        warm.elapsed * 2 <= cold.elapsed,
        "memo hit must be at least 2x faster: cold {:?}, warm {:?}",
        cold.elapsed,
        warm.elapsed
    );
}

#[test]
fn parallel_clients_match_serial_direct_calls() {
    // Distinct configurations so every client does real work (no shared
    // memo entries), exercising the pool and the warm cache concurrently.
    let requests: Vec<PlanRequest> = [
        (4usize, 512u64, 0.0f64, true),
        (4, 1024, 0.0, true),
        (8, 512, 0.0, true),
        (8, 512, 1e-12, true),
        (4, 512, 0.0, false),
        (16, 512, 0.0, true),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (devices, seq, alpha, temporal))| {
        PlanRequest::builder("opt-6.7b")
            .id(format!("c{i}"))
            .devices(devices)
            .batch(8)
            .seq(seq)
            .layers(Some(2))
            .alpha(alpha)
            .allow_temporal(temporal)
            .build()
    })
    .collect();

    let expected: Vec<(ModelPlan, String)> = requests.iter().map(direct_plan).collect();

    let served = PlannerService::run(ServiceOptions { workers: 4 }, |client| {
        thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|req| {
                    let client = client.clone();
                    scope.spawn(move || client.plan(req.clone()).expect("serves"))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    });

    for (resp, (plan, text)) in served.iter().zip(&expected) {
        assert_bitwise_equal(&resp.plan, &resp.plan_text, plan, text);
        assert!(!resp.cache.plan_cache_hit, "all configurations distinct");
    }
}

#[test]
fn cancelled_and_expired_requests_do_not_poison_the_pool() {
    let tiny = |id: &str| {
        PlanRequest::builder("opt-6.7b")
            .id(id)
            .devices(4)
            .seq(512)
            .layers(Some(2))
            .build()
    };
    PlannerService::run(ServiceOptions { workers: 1 }, |client| {
        // Deadline already expired at pickup.
        let verdict = client.plan(PlanRequest {
            deadline_ms: Some(0),
            ..tiny("expired")
        });
        assert!(matches!(verdict, Err(Error::Cancelled(_))), "{verdict:?}");

        // Explicit cancellation of a queued request behind a busy worker.
        let busy = client.submit_plan(tiny("busy"));
        let doomed = client.submit_plan(tiny("doomed2"));
        doomed.cancel();
        assert!(busy.wait().is_ok());
        let verdict = doomed.wait();
        assert!(matches!(verdict, Err(Error::Cancelled(_))), "{verdict:?}");

        // The sole worker survived all of it.
        let after = client.plan(tiny("after")).expect("pool still serves");
        assert!(after.plan.total_cost.is_finite());
    });
}
