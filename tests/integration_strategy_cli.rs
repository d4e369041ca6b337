//! End-to-end tests of the `--strategy` surface, invoking the actual
//! binary: beam and anytime plans produce schema-tagged artifacts with
//! strategy telemetry, malformed strategy strings exit with the config
//! code, and served plan frames echo the strategy and optimality gap.

use std::io::Write;
use std::process::{Command, Stdio};

use primepar::api::{request_json, PlanRequest};
use primepar::obs::{parse_json, Json};
use primepar::search::SearchStrategy;

fn primepar(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_primepar"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Plans opt-6.7b on 2 devices under `strategy`, writing the metrics
/// artifact to a temp path, and returns the parsed artifact plus stdout.
fn plan_with_strategy(strategy: &str, tag: &str) -> (Json, String) {
    let path = std::env::temp_dir().join(format!(
        "primepar_strategy_cli_{tag}_{}.metrics.json",
        std::process::id()
    ));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = primepar(&[
        "plan",
        "--model",
        "opt-6.7b",
        "--devices",
        "2",
        "--seq",
        "512",
        "--strategy",
        strategy,
        "--metrics-json",
        path_str,
    ]);
    assert!(
        out.status.success(),
        "plan --strategy {strategy} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("metrics artifact written");
    let _ = std::fs::remove_file(&path);
    (
        parse_json(&text).expect("metrics artifact is valid JSON"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn str_field<'j>(doc: &'j Json, key: &str) -> &'j str {
    doc.get(key).and_then(Json::as_str).unwrap_or_default()
}

fn gap_of(doc: &Json) -> f64 {
    doc.get("planner.optimality_gap")
        .and_then(Json::as_f64)
        .expect("artifact carries planner.optimality_gap")
}

#[test]
fn beam_plan_writes_a_schema_tagged_artifact_with_strategy_telemetry() {
    let (doc, stdout) = plan_with_strategy("beam:8", "beam");
    assert_eq!(
        str_field(&doc, "schema_version"),
        "primepar.metrics.v1",
        "artifact must be schema-tagged"
    );
    assert_eq!(str_field(&doc, "planner.strategy"), "beam:8");
    assert_eq!(
        doc.get("planner.beam_width").and_then(Json::as_f64),
        Some(8.0)
    );
    let gap = gap_of(&doc);
    assert!((0.0..=1.0).contains(&gap), "gap {gap} must be a fraction");
    // The human-facing label reports the bounded search and its gap.
    assert!(stdout.contains("beam:8"), "{stdout}");
    assert!(stdout.contains("optimality gap"), "{stdout}");
}

#[test]
fn anytime_plan_writes_a_schema_tagged_artifact_with_strategy_telemetry() {
    let (doc, stdout) = plan_with_strategy("anytime:200ms", "anytime");
    assert_eq!(str_field(&doc, "schema_version"), "primepar.metrics.v1");
    assert_eq!(str_field(&doc, "planner.strategy"), "anytime:200ms");
    let gap = gap_of(&doc);
    assert!((0.0..=1.0).contains(&gap), "gap {gap} must be a fraction");
    assert!(
        stdout.contains("tokens/s"),
        "anytime plan simulates:\n{stdout}"
    );
}

#[test]
fn exact_strategy_reports_a_zero_gap() {
    let (doc, _) = plan_with_strategy("exact", "exact");
    assert_eq!(str_field(&doc, "planner.strategy"), "exact");
    assert_eq!(gap_of(&doc), 0.0, "exact search is provably optimal");
}

#[test]
fn bad_strategy_strings_exit_with_the_config_code() {
    for bad in [
        "warp",
        "beam",
        "beam:",
        "beam:0",
        "beam:eight",
        "anytime",
        "anytime:ms",
        "anytime:-5ms",
    ] {
        let out = primepar(&[
            "plan",
            "--model",
            "opt-6.7b",
            "--devices",
            "2",
            "--seq",
            "512",
            "--strategy",
            bad,
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--strategy {bad} must exit with the config code, stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--strategy"),
            "error must name the flag"
        );
    }
}

#[test]
fn served_plan_frames_echo_the_strategy_and_gap() {
    let beam = PlanRequest::builder("opt-6.7b")
        .id("beam")
        .devices(4)
        .seq(512)
        .layers(Some(2))
        .strategy(SearchStrategy::Beam { width: 4 })
        .build();
    let exact = PlanRequest::builder("opt-6.7b")
        .id("exact")
        .devices(4)
        .seq(512)
        .layers(Some(2))
        .build();
    let mut input = String::new();
    for req in [&beam, &exact] {
        input.push_str(&request_json(req).render());
        input.push('\n');
    }
    input.push_str("{\"schema_version\":\"primepar.service.v2\",\"type\":\"shutdown\"}\n");

    let mut child = Command::new(env!("CARGO_BIN_EXE_primepar"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let frames: Vec<Json> = stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_json(l).expect("response frame parses"))
        .collect();
    let by_id = |id: &str| {
        frames
            .iter()
            .find(|f| str_field(f, "id") == id)
            .unwrap_or_else(|| panic!("no response for id {id}:\n{stdout}"))
    };

    let beamed = by_id("beam");
    assert_eq!(beamed.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(str_field(beamed, "strategy"), "beam:4");
    let gap = beamed
        .get("optimality_gap")
        .and_then(Json::as_f64)
        .expect("beam frame echoes the gap");
    assert!((0.0..=1.0).contains(&gap), "gap {gap} must be a fraction");

    let exacted = by_id("exact");
    assert_eq!(exacted.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(str_field(exacted, "strategy"), "exact");
    assert_eq!(
        exacted.get("optimality_gap").and_then(Json::as_f64),
        Some(0.0),
        "exact frames report a provably-zero gap"
    );
}
