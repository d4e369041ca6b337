//! Pinned end-to-end test of the elastic re-planning loop (ISSUE 10
//! tentpole acceptance).
//!
//! A seeded degradation timeline — congestion building on the inter-node
//! fabric, 8× at iteration 300 and collapsing to 32× at iteration 350 (the
//! kind of fabric variance §6's study injects) — is played against the
//! three policies on a two-node cluster. The costed elastic loop must
//! **strictly** beat both static extremes on makespan:
//!
//! * `Never` keeps the now comm-heavy layout through the full brownout and
//!   pays the inflated iteration time for the last 50 iterations;
//! * `Always` re-plans at every event, so it chases the mild event's
//!   optimum — a migration whose tiny per-iteration gain never amortizes —
//!   and then pays the full layout switch over the degraded fabric again.
//!
//! The decision trace is also pinned bit-reproducible: the same scenario
//! gives the same decisions, bytes, and seconds, twice — locally through
//! [`run_elastic`] and over the wire through a served `replan` frame.

use std::time::Duration;

use primepar_graph::ModelConfig;
use primepar_search::{
    run_elastic, ElasticEvent, ElasticPolicy, Planner, PlannerOptions, ReplanOptions,
};
use primepar_service::{
    parse_frame, replan_request_json, serve_lines, Frame, PlanRequest, ReplanRequest, Request,
    ServeOptions,
};
use primepar_topology::{AppliedPerturbation, Cluster};

const DEVICES: usize = 8;
const LAYERS: u64 = 2;
const TOTAL_ITERATIONS: u64 = 400;

/// The observed brownout: the inter-node link class degrades by `factor`,
/// intra-node NVLink and compute untouched. Built by mutating the public
/// scenario fields, the way an operator would inject measured telemetry.
fn brownout(factor: f64) -> AppliedPerturbation {
    let mut p = AppliedPerturbation::ideal(DEVICES);
    p.inter_link_factor = factor;
    p
}

/// The pinned timeline: a mild 8× inter-node brownout at iteration 300
/// (its optimum differs from the running plan by ~60 µs/iteration — far
/// less than the migration toll over the congested fabric), collapsing to
/// 32× at iteration 350 (now migrating to the inter-node-light layout wins
/// back ~12 ms/iteration over the remaining 50).
fn timeline() -> Vec<ElasticEvent> {
    vec![
        ElasticEvent {
            at_iteration: 300,
            perturbation: brownout(8.0),
        },
        ElasticEvent {
            at_iteration: 350,
            perturbation: brownout(32.0),
        },
    ]
}

fn fixture() -> (Cluster, primepar_graph::Graph) {
    let cluster = Cluster::v100_like(DEVICES);
    let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
    (cluster, graph)
}

#[test]
fn elastic_strictly_beats_both_static_extremes() {
    let (cluster, graph) = fixture();
    let seqs = Planner::new(&cluster, &graph, PlannerOptions::default())
        .optimize(LAYERS)
        .seqs;
    let events = timeline();
    let opts = ReplanOptions::default();
    let run = |policy: ElasticPolicy| {
        run_elastic(
            &cluster,
            &graph,
            &seqs,
            LAYERS,
            TOTAL_ITERATIONS,
            &events,
            policy,
            &opts,
            None,
        )
    };
    let never = run(ElasticPolicy::Never);
    let always = run(ElasticPolicy::Always);
    let elastic = run(ElasticPolicy::Elastic);

    assert!(
        elastic.makespan < never.makespan,
        "elastic {} must strictly beat never-replan {}",
        elastic.makespan,
        never.makespan
    );
    assert!(
        elastic.makespan < always.makespan,
        "elastic {} must strictly beat always-full-replan {}",
        elastic.makespan,
        always.makespan
    );

    // The loop took the migration when it paid and skipped it when it
    // couldn't amortize.
    let trace = elastic.decision_trace();
    assert_eq!(trace, vec!["stay", "replan"]);

    // Same scenario, same decisions, same bytes — bit-for-bit.
    let again = run(ElasticPolicy::Elastic);
    assert_eq!(again.decision_trace(), trace);
    assert_eq!(again.makespan.to_bits(), elastic.makespan.to_bits());
    assert_eq!(
        again.migration_bytes_total.to_bits(),
        elastic.migration_bytes_total.to_bits()
    );
    for (a, b) in elastic.outcomes.iter().zip(&again.outcomes) {
        assert_eq!(a.decision, b.decision);
        assert_eq!(a.migration_bytes.to_bits(), b.migration_bytes.to_bits());
        assert_eq!(a.migration_seconds.to_bits(), b.migration_seconds.to_bits());
    }
}

/// The same decision machinery, served: a `replan` frame over the line
/// protocol answers with the scenario's decision and candidate table, and
/// two identically-seeded servings agree byte-for-byte on everything but
/// wall clock. Harsh seed 13 kills a device at 4 devices, so the decision is
/// a (deterministic) ring-buddy patch, never a stay.
#[test]
fn served_replan_decisions_are_reproducible() {
    let request = ReplanRequest::of(
        PlanRequest::builder("opt-6.7b")
            .id("e2e")
            .devices(4)
            .batch(8)
            .seq(256)
            .layers(Some(LAYERS))
            .build(),
    )
    .with_scenario("harsh", 13)
    .with_horizon(390);

    let serve_once = || {
        let input = format!(
            "{}\n{}\n",
            replan_request_json(&request).render(),
            r#"{"schema_version":"primepar.service.v2","type":"shutdown"}"#
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
        assert_eq!((end.requests, end.errors), (1, 0));
        String::from_utf8(out).expect("utf8")
    };

    // The round-trip of the frame itself is lossless.
    let encoded = replan_request_json(&request).render();
    let parsed = parse_frame(&encoded).expect("parses");
    assert_eq!(
        parsed.frame,
        Frame::Request(Request::Replan(request.clone()))
    );

    let first = serve_once();
    let second = serve_once();
    let doc = |text: &str| {
        let line = text
            .lines()
            .find(|l| l.contains("replan_response"))
            .expect("a replan_response line")
            .to_string();
        primepar_obs::parse_json(&line).expect("response json")
    };
    let (a, b) = (doc(&first), doc(&second));
    assert_eq!(a.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        a.get("decision").and_then(|v| v.as_str()),
        b.get("decision").and_then(|v| v.as_str()),
        "same seeds, same decision"
    );
    for key in [
        "fingerprint",
        "migration_bytes",
        "migration_seconds",
        "candidates",
    ] {
        assert_eq!(
            a.get(key).map(|v| v.render()),
            b.get(key).map(|v| v.render()),
            "field {key} must be byte-identical across servings"
        );
    }
    // The decision trace the CLI prints comes from these fields; pin the
    // shape so transcripts stay stable.
    let candidates = a
        .get("candidates")
        .and_then(|v| v.as_array())
        .expect("array");
    assert_eq!(candidates.len(), 3, "stay, patch, replan — always ranked");
    let decision = a
        .get("decision")
        .and_then(|v| v.as_str())
        .expect("decision");
    assert_ne!(decision, "stay", "a dead device forces a migration");

    // Sanity: the serve path is fast enough that the response carries a
    // plausible elapsed time rather than a placeholder.
    let elapsed = a
        .get("elapsed_us")
        .and_then(|v| v.as_u64())
        .expect("elapsed");
    assert!(Duration::from_micros(elapsed) < Duration::from_secs(60));
}
