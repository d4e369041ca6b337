//! Golden snapshot of the plan explanation `plan` and `audit` print.
//!
//! The input is fully deterministic — a fixed cluster, a fixed layer graph and
//! the closed-form Megatron dp=2, tp=2 plan (no search involved) — so the
//! rendered explanation must be byte-identical run over run. If a legitimate
//! cost-model, simulator or formatting change moves it, regenerate the golden
//! with:
//!
//! ```text
//! cargo test -p primepar-audit --test golden_explain -- --nocapture
//! ```
//!
//! and copy the printed actual output over `tests/golden/explain_opt67b_tp4.txt`.

use primepar_audit::{audit_layer, render_audit};
use primepar_graph::ModelConfig;
use primepar_search::megatron_layer_plan;
use primepar_sim::simulate_layer;
use primepar_topology::Cluster;

const GOLDEN: &str = include_str!("golden/explain_opt67b_tp4.txt");

#[test]
fn explain_plan_matches_golden_snapshot() {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
    let plan = megatron_layer_plan(&graph, 2, 2);
    let sim = simulate_layer(&cluster, &graph, &plan);
    let actual = render_audit(&audit_layer(&cluster, &graph, &plan, &sim));
    if actual != GOLDEN {
        println!("--- actual output ---\n{actual}--- end actual ---");
    }
    assert_eq!(
        actual, GOLDEN,
        "the plan explanation drifted from the golden snapshot"
    );
}

#[test]
fn explain_plan_mentions_every_operator() {
    let cluster = Cluster::v100_like(4);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
    let plan = megatron_layer_plan(&graph, 2, 2);
    let sim = simulate_layer(&cluster, &graph, &plan);
    let audit = audit_layer(&cluster, &graph, &plan, &sim);
    let rendered = render_audit(&audit);
    for op in &graph.ops {
        assert!(
            rendered.contains(&op.name),
            "missing operator row: {}",
            op.name
        );
    }
    for e in &audit.edges {
        assert!(rendered.contains(&e.label), "missing edge row: {}", e.label);
    }
    assert!(rendered.contains("layer time"), "missing layer summary");
    assert!(rendered.contains("redistribution"), "missing edge table");
}
