//! End-to-end tests of the `primepar` command-line interface, invoking the
//! actual binary.

use std::process::Command;

fn primepar(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_primepar"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn models_lists_the_zoo() {
    let (ok, stdout, _) = primepar(&["models"]);
    assert!(ok);
    for name in ["OPT 6.7B", "Llama2 70B", "BLOOM 176B"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn plan_explains_and_simulates() {
    let (ok, stdout, _) = primepar(&[
        "plan",
        "--model",
        "opt-6.7b",
        "--devices",
        "2",
        "--seq",
        "512",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("fc2"));
    assert!(stdout.contains("tokens/s"));
    assert!(stdout.contains("redistribution"));
}

#[test]
fn plan_save_and_reload_roundtrip() {
    let path = std::env::temp_dir().join("primepar_cli_plan_test.txt");
    let path = path.to_str().expect("utf-8 temp path");
    let (ok, _, stderr) = primepar(&[
        "plan",
        "--model",
        "llama2-7b",
        "--devices",
        "2",
        "--seq",
        "512",
        "--save",
        path,
    ]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = primepar(&[
        "plan",
        "--model",
        "llama2-7b",
        "--devices",
        "2",
        "--seq",
        "512",
        "--plan",
        path,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("plan from"));
    // A loaded plan runs the same pipeline as a searched one: `--save`
    // writes it back byte for byte.
    let resaved = std::env::temp_dir().join("primepar_cli_plan_test_resaved.txt");
    let resaved = resaved.to_str().expect("utf-8 temp path");
    let (ok, stdout, stderr) = primepar(&[
        "plan",
        "--model",
        "llama2-7b",
        "--devices",
        "2",
        "--seq",
        "512",
        "--plan",
        path,
        "--save",
        resaved,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("plan saved to"), "{stdout}");
    assert_eq!(
        std::fs::read(path).expect("saved plan"),
        std::fs::read(resaved).expect("re-saved plan"),
        "--plan FILE --save must write FILE back unchanged"
    );
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(resaved);
}

#[test]
fn manual_strategy_override_applies() {
    let (ok, stdout, stderr) = primepar(&[
        "plan",
        "--model",
        "opt-6.7b",
        "--devices",
        "8",
        "--seq",
        "512",
        "--system",
        "megatron",
        "--set",
        "fc2=N.P2x2",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("[N P2x2]"), "override missing:\n{stdout}");
}

#[test]
fn verify_reports_equivalence() {
    let (ok, stdout, _) = primepar(&["verify", "--k", "1", "--iters", "2"]);
    assert!(ok);
    assert!(stdout.contains("numerically identical"), "{stdout}");
}

#[test]
fn metrics_json_flag_reports_planner_and_sim_sections() {
    // ISSUE 1 acceptance: `--metrics-json` must report the per-segment DP
    // sweep wall time, total intra/edge cost evaluations, space size per
    // operator and the sim breakdown totals — with counts > 0.
    let path = std::env::temp_dir().join("primepar_cli_metrics_test.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let (ok, stdout, stderr) = primepar(&[
        "plan",
        "--model",
        "opt-6.7b",
        "--devices",
        "2",
        "--seq",
        "512",
        "--metrics-json",
        path_str,
    ]);
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("metrics written to"), "{stdout}");

    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let doc = primepar::obs::parse_json(&text).expect("metrics file is valid JSON");
    let num = |key: &str| {
        doc.get(key)
            .unwrap_or_else(|| panic!("missing metric `{key}` in:\n{text}"))
            .as_f64()
            .unwrap_or_else(|| panic!("metric `{key}` is not numeric"))
    };
    // Planner counters are positive.
    assert!(num("planner.intra_evaluations") > 0.0);
    assert!(num("planner.edge_evaluations") > 0.0);
    // Per-segment DP telemetry: table shape, relaxations and sweep wall time.
    for key in [
        "planner.segment.00.rows",
        "planner.segment.00.cols",
        "planner.segment.00.bellman_relaxations",
    ] {
        assert!(num(key) > 0.0, "`{key}` should be positive");
    }
    assert!(
        doc.get("planner.segment.00.sweep_seconds")
            .and_then(|t| t.get("seconds"))
            .and_then(primepar::obs::Json::as_f64)
            .is_some(),
        "missing per-segment sweep timer in:\n{text}"
    );
    // Stage timers exist as {seconds, spans} objects.
    assert!(
        doc.get("planner.stage.segment_dp_seconds")
            .and_then(|t| t.get("spans"))
            .is_some(),
        "missing stage timer in:\n{text}"
    );
    // Per-operator space sizes: one gauge per operator, all positive.
    let spaces: Vec<&String> = doc
        .as_object()
        .expect("flat object")
        .iter()
        .filter(|(k, _)| k.starts_with("planner.space.") && k.ends_with(".size"))
        .map(|(k, _)| k)
        .collect();
    assert!(
        !spaces.is_empty(),
        "no planner.space.*.size gauges in:\n{text}"
    );
    for key in spaces {
        assert!(num(key) > 0.0, "space size `{key}` should be positive");
    }
    // Sim breakdown totals and run identity.
    assert!(num("sim.breakdown.total_seconds") > 0.0);
    assert!(num("sim.breakdown.compute_seconds") > 0.0);
    assert!(num("sim.tokens_per_second") > 0.0);
    assert_eq!(num("run.devices"), 2.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn chrome_trace_flag_writes_perfetto_loadable_spans() {
    // ISSUE 1 acceptance: `--chrome-trace` must produce a Chrome-loadable
    // trace of complete X-phase events with name/ph/ts/dur/pid/tid, verified
    // by parsing the file back. Since PR 5 the export is the object format:
    // a `schema_version` tag plus the `traceEvents` array.
    let path = std::env::temp_dir().join("primepar_cli_trace_test.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let (ok, stdout, stderr) = primepar(&[
        "plan",
        "--model",
        "opt-6.7b",
        "--devices",
        "2",
        "--seq",
        "512",
        "--chrome-trace",
        path_str,
    ]);
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("chrome trace written to"), "{stdout}");

    let text = std::fs::read_to_string(&path).expect("trace file written");
    // Raw shape: a tagged object whose `traceEvents` array holds X-phase
    // spans (with `dur`) plus the cluster accounting's C-phase counter lanes
    // (no `dur`).
    let doc = primepar::obs::parse_json(&text).expect("trace file is valid JSON");
    assert_eq!(
        doc.get("schema_version")
            .and_then(primepar::obs::Json::as_str),
        Some(primepar::obs::TRACE_SCHEMA)
    );
    let items = doc
        .get("traceEvents")
        .and_then(primepar::obs::Json::as_array)
        .expect("trace carries a traceEvents array");
    assert!(!items.is_empty(), "trace should contain spans");
    let mut spans = 0;
    let mut counters = 0;
    for item in items {
        let ph = item.get("ph").and_then(primepar::obs::Json::as_str);
        match ph {
            Some("X") => {
                spans += 1;
                for key in ["name", "cat", "pid", "tid", "ts", "dur"] {
                    assert!(item.get(key).is_some(), "span missing `{key}` in:\n{text}");
                }
            }
            Some("C") => {
                counters += 1;
                assert!(item.get("dur").is_none(), "counter must not carry `dur`");
                for key in ["name", "pid", "tid", "ts"] {
                    assert!(item.get(key).is_some(), "counter missing `{key}`");
                }
            }
            other => panic!("unexpected ph {other:?} in:\n{text}"),
        }
    }
    assert!(spans > 0, "trace should contain kernel spans");
    assert!(
        counters > 0,
        "trace should contain accounting counter lanes"
    );
    // Typed parse-back: the exporter's own reader accepts the file and
    // reconstructs a non-empty timeline with sane span extents (counters
    // are skipped).
    let timeline = primepar::sim::parse_chrome_trace(&text).expect("trace parses back");
    assert_eq!(timeline.len(), spans);
    let end = timeline
        .iter()
        .map(|e| e.start + e.duration)
        .fold(0.0f64, f64::max);
    assert!(end > 0.0);
    for ev in &timeline {
        assert!(ev.start >= 0.0 && ev.duration >= 0.0);
        assert!(ev.start + ev.duration <= end * (1.0 + 1e-12));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = primepar(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn unknown_model_fails_helpfully() {
    let (ok, _, stderr) = primepar(&["plan", "--model", "gpt-5"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
    assert!(stderr.contains("OPT 6.7B"));
}

#[test]
fn a_trailing_flag_without_a_value_is_a_config_error() {
    for args in [
        &[
            "plan",
            "--model",
            "opt-6.7b",
            "--devices",
            "2",
            "--seq",
            "512",
            "--metrics-json",
        ][..],
        &[
            "plan",
            "--model",
            "opt-6.7b",
            "--devices",
            "2",
            "--seq",
            "512",
            "--batch",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_primepar"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let flag = args.last().expect("non-empty");
        assert!(stderr.contains(flag), "error must name {flag}: {stderr}");
    }
}

#[test]
fn invalid_workloads_exit_with_the_served_config_error() {
    let degenerate = "batch and seq must be positive";
    for (command, message) in [
        ("plan --model opt-6.7b --batch 0", degenerate),
        ("audit --model opt-6.7b --seq 0", degenerate),
        ("compare --model opt-6.7b --seq 0", degenerate),
        ("sweep --model opt-6.7b --batch 0", degenerate),
        ("robustness --model opt-6.7b --batch 0", degenerate),
        (
            "plan --model opt-6.7b --devices 2 --alpha inf",
            "alpha must be finite and non-negative",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_primepar"))
            .args(command.split_whitespace())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(
            stderr.contains(message),
            "{command} must answer the served frame's message: {stderr}"
        );
    }
}

#[test]
fn help_names_every_flag_plan_reads() {
    let (ok, stdout, _) = primepar(&["help"]);
    assert!(ok);
    for flag in [
        "--model",
        "--devices",
        "--batch",
        "--seq",
        "--alpha",
        "--threads",
        "--strategy",
        "--no-batch-split",
        "--system",
        "--plan",
        "--set",
        "--save",
        "--gantt",
        "--metrics-json",
        "--chrome-trace",
    ] {
        // `--plan` must not count as named through `--plan-dir`.
        let named = stdout.match_indices(flag).any(|(at, _)| {
            !stdout[at + flag.len()..].starts_with(|c: char| c == '-' || c.is_ascii_alphanumeric())
        });
        assert!(named, "usage omits {flag}:\n{stdout}");
    }
}
