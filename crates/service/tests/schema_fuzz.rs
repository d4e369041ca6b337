//! Seeded fuzzing of every schema reader.
//!
//! Each reader starts from one valid document: a request frame, a warm-cache
//! dump, a stats snapshot, a robustness report, a simulator Chrome trace and
//! an event line. The document is mutated by truncating it at any byte,
//! flipping a bit, dropping an object key, retyping a value, or nesting a
//! value past `MAX_JSON_DEPTH`. Every reader must answer every mutation with
//! `Ok` or `Err` and never panic; the unmutated documents must read `Ok`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;

use primepar_obs::json::MAX_JSON_DEPTH;
use primepar_obs::{parse_event, parse_json, render_trace, Json, TraceEvent, TracePhase};
use primepar_service::{
    parse_frame, serve_lines, validate_cache_doc, validate_stats_doc, ServeOptions,
};
use primepar_sim::{
    parse_chrome_trace, parse_robustness, robustness_json, RobustnessReport, ScenarioOutcome,
};

/// A reader under test, its errors flattened to text.
type Reader = fn(&str) -> Result<(), String>;

fn json(text: &str) -> Result<Json, String> {
    parse_json(text).map_err(|e| e.to_string())
}

const READERS: [(&str, Reader); 6] = [
    ("frame", |t| {
        parse_frame(t).map(drop).map_err(|e| e.to_string())
    }),
    ("cache", |t| {
        validate_cache_doc(&json(t)?)
            .map(drop)
            .map_err(|e| e.to_string())
    }),
    ("stats", |t| {
        validate_stats_doc(&json(t)?).map_err(|e| e.to_string())
    }),
    ("robustness", |t| {
        parse_robustness(&json(t)?)
            .map(drop)
            .map_err(|e| e.to_string())
    }),
    ("trace", |t| {
        parse_chrome_trace(t).map(drop).map_err(|e| e.to_string())
    }),
    ("event", |t| {
        parse_event(t).map(drop).map_err(|e| e.to_string())
    }),
];

const FRAME: &str = r#"{"schema_version":"primepar.service.v2","type":"plan","id":"f1","model":"opt-6.7b","devices":2,"seq":256,"layers":1,"trace_id":"fz"}"#;

/// One valid document per reader, in [`READERS`] order. The cache dump, the
/// stats snapshot and the event line come from one served session.
fn seeds() -> &'static [String; 6] {
    static SEEDS: OnceLock<[String; 6]> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("primepar-schema-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let opts = ServeOptions {
            workers: 1,
            cache_file: Some(dir.join("warm.cache.json")),
            event_log: Some(dir.join("serve.events.jsonl")),
            stats_out: Some(dir.join("serve.stats.json")),
            logical_clock: true,
            ..ServeOptions::default()
        };
        let input = format!(
            "{FRAME}\n{{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}}\n"
        );
        serve_lines(input.as_bytes(), &mut Vec::new(), &opts).expect("serves");
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("artifact written");
        let events = read("serve.events.jsonl");
        let done = events
            .lines()
            .find(|line| line.contains("request.done"))
            .expect("request.done logged")
            .to_string();
        let seeds = [
            FRAME.to_string(),
            read("warm.cache.json"),
            read("serve.stats.json"),
            robustness_json(&report()).render(),
            render_trace(&sim_spans()),
            done,
        ];
        std::fs::remove_dir_all(&dir).ok();
        seeds
    })
}

fn report() -> RobustnessReport {
    let outcome = |scenario: usize| ScenarioOutcome {
        scenario,
        seed: u64::MAX - scenario as u64,
        makespan: 0.25,
        slowdown: 1.25,
        critical_device: 1,
        max_compute_slowdown: 1.5,
        worst_link_factor: 2.0,
        dead_devices: 0,
    };
    RobustnessReport {
        base_seed: u64::MAX - 1,
        scenarios: 2,
        ideal_makespan: 0.2,
        min_makespan: 0.25,
        median_makespan: 0.25,
        p95_makespan: 0.25,
        max_makespan: 0.25,
        mean_slowdown: 1.25,
        max_slowdown: 1.25,
        critical_device_histogram: vec![0, 2],
        outcomes: vec![outcome(0), outcome(1)],
    }
}

/// A span and a counter as the simulator exports them.
fn sim_spans() -> Vec<TraceEvent> {
    let span = TraceEvent {
        name: "fc1".into(),
        cat: "compute".into(),
        ph: TracePhase::Complete,
        pid: 1,
        tid: 0,
        ts_us: 0.0,
        dur_us: 125.0,
        args: vec![
            ("phase".into(), Json::from("forward")),
            ("start_s".into(), Json::Num(0.0)),
            ("dur_s".into(), Json::Num(125e-6)),
        ],
    };
    let counter = TraceEvent {
        name: "sim.memory.live_bytes".into(),
        cat: "counter".into(),
        ph: TracePhase::Counter,
        tid: 1000,
        dur_us: 0.0,
        args: vec![("bytes".into(), Json::Num(1.5e9))],
        ..span.clone()
    };
    vec![span, counter]
}

/// The child-index path of every node of `doc`, root first.
fn node_paths(doc: &Json, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    let children: Vec<&Json> = match doc {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(entries) => entries.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        node_paths(child, at, out);
        at.pop();
    }
}

fn node_mut<'d>(doc: &'d mut Json, path: &[usize]) -> &'d mut Json {
    path.iter().fold(doc, |node, &i| match node {
        Json::Arr(items) => &mut items[i],
        Json::Obj(entries) => &mut entries[i].1,
        _ => unreachable!("paths only descend into containers"),
    })
}

/// Values of every JSON type, including out-of-range numbers.
fn retyped(pick: u64) -> Json {
    let values = [
        Json::Null,
        Json::Bool(true),
        Json::Num(0.0),
        Json::Num(-1.0),
        Json::Num(1.5),
        Json::Num(18_446_744_073_709_551_616.0),
        Json::Num(1e300),
        Json::from(""),
        Json::from("😀 x"),
        Json::Arr(vec![Json::Num(1.0)]),
        Json::obj().with("k", Json::Null),
    ];
    values[(pick % values.len() as u64) as usize].clone()
}

/// Applies mutation `kind` (truncate, flip, drop a key, retype, nest) at the
/// positions drawn by `a` and `b`.
fn mutate(seed: &str, kind: u64, a: u64, b: u64) -> String {
    let bytes = seed.as_bytes();
    match kind {
        0 => String::from_utf8_lossy(&bytes[..(a % (bytes.len() as u64 + 1)) as usize]).into(),
        1 => {
            let mut bytes = bytes.to_vec();
            let at = (a % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << (b % 8);
            String::from_utf8_lossy(&bytes).into()
        }
        _ => {
            let mut doc = parse_json(seed).expect("seed parses");
            let mut paths = Vec::new();
            node_paths(&doc, &mut Vec::new(), &mut paths);
            if kind == 2 {
                paths.retain(
                    |p| matches!(node_mut(&mut doc, p), Json::Obj(entries) if !entries.is_empty()),
                );
            }
            let path = &paths[(a % paths.len() as u64) as usize];
            let node = node_mut(&mut doc, path);
            match kind {
                2 => {
                    let Json::Obj(entries) = node else {
                        unreachable!("only non-empty objects were kept")
                    };
                    entries.remove((b % entries.len() as u64) as usize);
                }
                3 => *node = retyped(b),
                _ => {
                    for _ in 0..MAX_JSON_DEPTH {
                        *node = Json::Arr(vec![node.clone()]);
                    }
                }
            }
            doc.render()
        }
    }
}

#[test]
fn unmutated_documents_read_ok() {
    for ((name, reader), seed) in READERS.iter().zip(seeds()) {
        assert_eq!(reader(seed), Ok(()), "{name} seed:\n{seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn readers_answer_every_mutation_without_panicking(
        which in 0usize..6,
        kind in 0u64..5,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
    ) {
        let (name, reader) = READERS[which];
        let text = mutate(&seeds()[which], kind, a, b);
        let verdict = catch_unwind(AssertUnwindSafe(|| reader(&text)));
        prop_assert!(verdict.is_ok(), "{name} reader panicked on:\n{text}");
        if kind == 4 {
            prop_assert!(
                verdict.unwrap().is_err(),
                "{name} reader accepted nesting past MAX_JSON_DEPTH"
            );
        }
    }
}
