//! End-to-end tests of the cluster accounting and drift-audit observability:
//! `compare`/`sweep` artifact flags, the `audit` subcommand's deterministic
//! drift report, and the `validate` artifact re-parser.

use std::path::PathBuf;
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

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("primepar_obs_it_{name}"))
}

#[test]
fn compare_writes_parseable_metrics_and_trace() {
    let metrics = temp_path("compare.metrics.json");
    let trace = temp_path("compare.trace.json");
    let (ok, stdout, stderr) = primepar(&[
        "compare",
        "--model",
        "opt-6.7b",
        "--devices",
        "2",
        "--seq",
        "256",
        "--metrics-json",
        metrics.to_str().unwrap(),
        "--chrome-trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");

    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let doc = primepar::obs::parse_json(&text).expect("valid JSON");
    for system in ["megatron", "alpa", "primepar"] {
        let key = format!("compare.{system}.tokens_per_second");
        let v = doc
            .get(&key)
            .and_then(primepar::obs::Json::as_f64)
            .unwrap_or_else(|| panic!("missing `{key}` in:\n{text}"));
        assert!(v > 0.0);
    }

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let timeline = primepar::sim::parse_chrome_trace(&text).expect("trace parses back");
    assert!(!timeline.is_empty());
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn sweep_writes_per_scale_gauges() {
    let metrics = temp_path("sweep.metrics.json");
    let (ok, stdout, stderr) = primepar(&[
        "sweep",
        "--model",
        "opt-6.7b",
        "--devices",
        "2,4",
        "--seq",
        "256",
        "--metrics-json",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let doc = primepar::obs::parse_json(&text).expect("valid JSON");
    for key in [
        "sweep.02.megatron_tokens_per_second",
        "sweep.02.primepar_tokens_per_second",
        "sweep.04.speedup",
    ] {
        assert!(
            doc.get(key).and_then(primepar::obs::Json::as_f64).unwrap() > 0.0,
            "missing `{key}` in:\n{text}"
        );
    }
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn audit_emits_deterministic_drift_report() {
    // ISSUE 3 acceptance: `primepar audit` on the Fig. 9 OPT-175B MLP block
    // must print a per-component drift table, byte-identical across runs.
    let args = [
        "audit",
        "--model",
        "opt-175b",
        "--devices",
        "8",
        "--mlp-block",
    ];
    let (ok, first, stderr) = primepar(&args);
    assert!(ok, "{stderr}");
    let (ok, second, _) = primepar(&args);
    assert!(ok);
    assert_eq!(first, second, "audit output must be deterministic");

    assert!(first.contains("cost-model drift audit"));
    assert!(first.contains("predicted"), "{first}");
    for component in ["compute", "ring_exposed", "allreduce", "peak memory"] {
        assert!(
            first.contains(component),
            "missing {component} in:\n{first}"
        );
    }
    for op in ["fc1", "fc2"] {
        assert!(first.contains(op), "missing {op} rows in:\n{first}");
    }
    assert!(
        first.contains("conservation: breakdown total = layer time: ok"),
        "conservation line missing or violated in:\n{first}"
    );
}

#[test]
fn audit_metrics_json_carries_rows_and_accounting() {
    let metrics = temp_path("audit.metrics.json");
    let (ok, _, stderr) = primepar(&[
        "audit",
        "--model",
        "opt-6.7b",
        "--devices",
        "4",
        "--mlp-block",
        "--seq",
        "256",
        "--metrics-json",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let doc = primepar::obs::parse_json(&text).expect("valid JSON");
    for key in [
        "audit.layer.predicted_seconds",
        "audit.layer.simulated_seconds",
        "audit.row.fc2.allreduce.predicted",
        "sim.breakdown.total_seconds",
        "sim.memory.peak_bytes",
    ] {
        assert!(
            doc.get(key).and_then(primepar::obs::Json::as_f64).is_some(),
            "missing `{key}` in:\n{text}"
        );
    }
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn validate_accepts_emitted_artifacts_and_rejects_garbage() {
    let dir = temp_path("validate_dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("run.metrics.json");
    let trace = dir.join("run.trace.json");
    let (ok, _, stderr) = primepar(&[
        "plan",
        "--model",
        "opt-6.7b",
        "--devices",
        "2",
        "--seq",
        "256",
        "--metrics-json",
        metrics.to_str().unwrap(),
        "--chrome-trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");

    let (ok, stdout, stderr) = primepar(&["validate", "--dir", dir.to_str().unwrap()]);
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stdout.contains("1 metrics document(s), 1 trace(s)"),
        "{stdout}"
    );

    std::fs::write(dir.join("broken.metrics.json"), "{not json").unwrap();
    let (ok, _, stderr) = primepar(&["validate", "--dir", dir.to_str().unwrap()]);
    assert!(!ok, "validate must fail on a malformed artifact");
    assert!(stderr.contains("broken.metrics.json"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn library_accounting_is_exposed_through_the_facade() {
    use primepar::audit::{audit_layer, plan_comm_volume};
    use primepar::graph::ModelConfig;
    use primepar::search::megatron_layer_plan;
    use primepar::sim::simulate_layer;
    use primepar::topology::Cluster;

    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
    let plan = megatron_layer_plan(&graph, 1, 4);
    let report = simulate_layer(&cluster, &graph, &plan);
    report
        .check_time_conservation()
        .expect("conservative accounting");
    let volume = plan_comm_volume(&cluster, &graph, &plan);
    let tol = 1e-6 * (1.0 + volume.total());
    assert!((report.accounting.total_wire_bytes() - volume.total()).abs() <= tol);

    let audit = audit_layer(&cluster, &graph, &plan, &report);
    assert!(audit.predicted_layer_time > 0.0);
    assert!(!audit.rows().is_empty());
}
