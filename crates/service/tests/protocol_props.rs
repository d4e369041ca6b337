//! Protocol round-trip properties (ISSUE 10 satellite).
//!
//! Every request frame the v2 builders can spell — plan, sim, and the new
//! replan — must survive `encode → parse_frame` losslessly and carry its
//! scenario identity, and the same frame without the v2 tag must be refused.
//! The generators deliberately
//! roam the full knob space (including `f64` fields like `alpha` and
//! `lambda`, which exercise the JSON writer's shortest-round-trip float
//! formatting).

use proptest::prelude::*;

use primepar_search::SearchStrategy;
use primepar_service::{
    parse_frame, replan_request_json, request_json, sim_request_json, Error, Frame, PlanRequest,
    ReplanRequest, Request, SimRequest, SERVICE_SCHEMA,
};

const MODELS: [&str; 4] = ["opt-6.7b", "gpt3-13b", "opt-30b", "llama2-70b"];
const PROFILES: [&str; 3] = ["ideal", "mild", "harsh"];

fn strategy_strategy() -> impl Strategy<Value = SearchStrategy> {
    prop_oneof![
        Just(SearchStrategy::Exact),
        (1usize..64).prop_map(|width| SearchStrategy::Beam { width }),
        (0u64..5_000).prop_map(|budget_ms| SearchStrategy::Anytime { budget_ms }),
    ]
}

/// The full 12-knob [`PlanRequest`] space, folded into the vendored
/// harness's 6-wide tuples.
fn plan_request_strategy() -> impl Strategy<Value = PlanRequest> {
    let shape = (0usize..MODELS.len(), 0u32..7, 1u64..64, 5u32..12, 0u64..17);
    let knobs = (1e-7f64..1e-3, 0usize..8, 0u8..2, 0u8..2);
    let delivery = (1u32..8, 0u64..10_001, strategy_strategy());
    (shape, knobs, delivery).prop_map(
        |(
            (model_ix, dev_pow, batch, seq_pow, layers),
            (alpha, threads, allow_temporal, allow_batch_split),
            (max_temporal_k, deadline_ms, strategy),
        )| {
            PlanRequest::builder(MODELS[model_ix])
                .id(format!("p{dev_pow}-{batch}"))
                .devices(1usize << dev_pow)
                .batch(batch)
                .seq(1u64 << seq_pow)
                .layers((layers > 0).then_some(layers))
                .alpha(alpha)
                .threads(threads)
                .allow_temporal(allow_temporal == 1)
                .allow_batch_split(allow_batch_split == 1)
                .max_temporal_k(max_temporal_k)
                .deadline_ms((deadline_ms > 0).then_some(deadline_ms))
                .strategy(strategy)
                .build()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `plan` frames round-trip bit-for-bit.
    #[test]
    fn plan_frames_round_trip(req in plan_request_strategy()) {
        let parsed = parse_frame(&request_json(&req).render()).expect("parses");
        prop_assert_eq!(parsed.frame, Frame::Request(Request::Plan(req)));
    }

    /// `sim` frames round-trip, sweep knobs included.
    #[test]
    fn sim_frames_round_trip(
        plan in plan_request_strategy(),
        profile_ix in 0usize..PROFILES.len(),
        scenarios in 1usize..32,
        seed in 0u64..(1 << 53),
        recompute in 0u8..2,
    ) {
        let mut req = SimRequest::of(plan).with_sweep(PROFILES[profile_ix], scenarios, seed);
        req.recompute_activations = recompute == 1;
        let parsed = parse_frame(&sim_request_json(&req).render()).expect("parses");
        prop_assert_eq!(parsed.frame, Frame::Request(Request::Sim(req)));
    }

    /// `replan` frames (new in v2) round-trip, scenario identity — profile,
    /// seed, λ, horizon — included, so a decision trace can be replayed from
    /// its transcript alone.
    #[test]
    fn replan_frames_round_trip(
        plan in plan_request_strategy(),
        profile_ix in 0usize..PROFILES.len(),
        seed in 0u64..(1 << 53),
        lambda in 1.0f64..8.0,
        horizon in 1u64..1_000_000,
    ) {
        let req = ReplanRequest::of(plan)
            .with_scenario(PROFILES[profile_ix], seed)
            .with_lambda(lambda)
            .with_horizon(horizon);
        let parsed = parse_frame(&replan_request_json(&req).render()).expect("parses");
        prop_assert_eq!(parsed.frame, Frame::Request(Request::Replan(req)));
    }

    /// The same frame tagged v1, or untagged, is a protocol error that
    /// names the v2 tag.
    #[test]
    fn v1_and_untagged_frames_are_protocol_errors(req in plan_request_strategy()) {
        let v2 = request_json(&req).render();
        let v1 = v2.replace(SERVICE_SCHEMA, "primepar.service.v1");
        let untagged = v2.replace(&format!(r#""schema_version":"{SERVICE_SCHEMA}","#), "");
        prop_assert!(!untagged.contains("schema_version"));
        for frame in [v1, untagged] {
            match parse_frame(&frame) {
                Err(Error::Protocol(message)) => prop_assert!(message.contains(SERVICE_SCHEMA)),
                other => prop_assert!(false, "{frame}: {other:?}"),
            }
        }
    }
}
