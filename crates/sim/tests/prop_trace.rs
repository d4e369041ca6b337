//! Property tests of the Chrome-trace export (ISSUE 1 satellite c): for any
//! timeline, the rendered trace is structurally valid JSON, parses back into
//! exactly the same events (each exported exactly once, in order), and no
//! span's `ts + dur` extends past the timeline end.

use proptest::prelude::*;

use primepar_obs::{parse_json, render_trace};
use primepar_partition::Phase;
use primepar_sim::{chrome_trace, parse_chrome_trace, EventKind, Timeline, TimelineEvent};

const OPS: &[&str] = &["qkv", "qk", "softmax", "av", "proj", "fc1", "act", "fc2"];
const PHASES: &[Phase] = &[Phase::Forward, Phase::Backward, Phase::Gradient];
const KINDS: &[EventKind] = &[
    EventKind::Compute,
    EventKind::Ring,
    EventKind::AllReduce,
    EventKind::Redistribution,
];

/// Strategy output: (op index, phase index, kind index, start s, duration s).
type RawEvent = (usize, usize, usize, f64, f64);

fn timeline_from(raw: Vec<RawEvent>) -> Timeline {
    raw.into_iter()
        .map(|(op, phase, kind, start, duration)| TimelineEvent {
            op: OPS[op].to_string(),
            phase: PHASES[phase],
            kind: KINDS[kind],
            start,
            duration,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The rendered export is a syntactically valid trace object — a
    /// `schema_version` tag over a `traceEvents` array of objects, every one
    /// an `X`-phase span with the fields Perfetto requires.
    #[test]
    fn export_is_structurally_valid_json(
        raw in proptest::collection::vec(
            (0usize..8, 0usize..3, 0usize..4, 0.0f64..0.05, 0.0f64..0.01),
            0..32,
        ),
    ) {
        let timeline = timeline_from(raw);
        let text = render_trace(&chrome_trace(&timeline));
        let doc = parse_json(&text).expect("export must be valid JSON");
        prop_assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_str()),
            Some(primepar_obs::TRACE_SCHEMA)
        );
        let items = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("export must carry a traceEvents array");
        prop_assert_eq!(items.len(), timeline.len());
        for item in items {
            prop_assert_eq!(item.get("ph").and_then(|v| v.as_str()), Some("X"));
            for key in ["name", "cat", "pid", "tid", "ts", "dur", "args"] {
                prop_assert!(item.get(key).is_some(), "span missing `{}`", key);
            }
        }
    }

    /// Export → parse reproduces every event exactly once, in order, bit for
    /// bit — including sub-microsecond durations the `ts`/`dur` fields round.
    #[test]
    fn export_roundtrips_every_event_exactly_once(
        raw in proptest::collection::vec(
            (0usize..8, 0usize..3, 0usize..4, 0.0f64..0.05, 0.0f64..0.01),
            0..32,
        ),
    ) {
        let timeline = timeline_from(raw);
        let reloaded = parse_chrome_trace(&render_trace(&chrome_trace(&timeline)))
            .expect("own export must parse");
        prop_assert_eq!(reloaded, timeline);
    }

    /// No span may extend past the timeline end: for every exported event,
    /// `ts + dur` is bounded by the latest `start + duration` (in µs).
    #[test]
    fn spans_never_outlive_the_timeline(
        raw in proptest::collection::vec(
            (0usize..8, 0usize..3, 0usize..4, 0.0f64..0.05, 0.0f64..0.01),
            1..32,
        ),
    ) {
        let timeline = timeline_from(raw);
        let end_us =
            timeline.iter().map(|e| e.start + e.duration).fold(0.0f64, f64::max) * 1e6;
        for span in chrome_trace(&timeline) {
            prop_assert!(
                span.ts_us + span.dur_us <= end_us * (1.0 + 1e-12) + 1e-9,
                "span `{}` ends at {} µs, past timeline end {} µs",
                span.name, span.ts_us + span.dur_us, end_us
            );
        }
    }

    /// Lane ids are dense and stable: tids form a contiguous 0..n range and
    /// every (op, kind) pair maps to exactly one tid.
    #[test]
    fn lanes_are_dense_and_consistent(
        raw in proptest::collection::vec(
            (0usize..8, 0usize..3, 0usize..4, 0.0f64..0.05, 0.0f64..0.01),
            1..48,
        ),
    ) {
        let timeline = timeline_from(raw);
        let spans = chrome_trace(&timeline);
        let mut lane_of: std::collections::HashMap<(String, String), u64> =
            std::collections::HashMap::new();
        let mut max_tid = 0u64;
        for span in &spans {
            let key = (span.name.clone(), span.cat.clone());
            let tid = *lane_of.entry(key.clone()).or_insert(span.tid);
            prop_assert_eq!(tid, span.tid, "lane for {:?} moved", key);
            max_tid = max_tid.max(span.tid);
        }
        prop_assert_eq!(lane_of.len() as u64, max_tid + 1, "tids are not dense");
    }
}
