//! The two conservation laws of the cluster accounting, pinned across plans:
//!
//! 1. the walk's breakdown accounts for the whole simulated layer time, and
//! 2. the simulator's per-link wire bytes sum to the plan's analytically
//!    derived communication volume, component by component.
//!
//! Both laws are checked on the ideal cluster *and* under seeded fault &
//! variance scenarios: perturbation rescales time, never invents or destroys
//! it, and moves no extra bytes, so the identities must hold for any
//! scenario.

use primepar_audit::{audit_layer, plan_comm_volume};
use primepar_cost::{CostCtx, PlanGeometry};
use primepar_graph::ModelConfig;
use primepar_partition::PartitionSeq;
use primepar_search::{megatron_layer_plan, Planner, PlannerOptions};
use primepar_sim::{simulate_layer, EventKind};
use primepar_topology::{Cluster, PerturbationModel};

fn plans(cluster: &Cluster, graph: &primepar_graph::Graph) -> Vec<Vec<PartitionSeq>> {
    let n = cluster.num_devices();
    vec![
        megatron_layer_plan(graph, 1, n),
        megatron_layer_plan(graph, 2, n / 2),
        Planner::new(cluster, graph, PlannerOptions::default())
            .optimize(1)
            .seqs,
    ]
}

/// The ideal cluster plus a mild and a harsh perturbed derivation of it.
fn clusters() -> Vec<Cluster> {
    let base = Cluster::v100_like(8);
    vec![
        base.perturbed(&PerturbationModel::mild(), 7),
        base.perturbed(&PerturbationModel::harsh(), 11),
        base,
    ]
}

/// Every device runs the walk's one program and never idles, so its busy
/// time is the breakdown's total and must equal the layer time.
#[test]
fn busy_plus_idle_is_the_makespan_for_every_plan() {
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    for cluster in clusters() {
        for plan in plans(&cluster, &graph) {
            simulate_layer(&cluster, &graph, &plan)
                .check_time_conservation()
                .expect("the breakdown must account for the layer time");
        }
    }
}

#[test]
fn link_bytes_sum_to_the_plan_volume_per_component() {
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    for cluster in clusters() {
        for plan in plans(&cluster, &graph) {
            let report = simulate_layer(&cluster, &graph, &plan);
            let acct = &report.accounting;
            let volume = plan_comm_volume(&cluster, &graph, &plan);
            let tol = 1e-6 * (1.0 + volume.total());
            assert!(
                (acct.wire_bytes_of(EventKind::Ring) - volume.ring_bytes).abs() <= tol,
                "ring: sim {} vs plan {}",
                acct.wire_bytes_of(EventKind::Ring),
                volume.ring_bytes
            );
            assert!(
                (acct.wire_bytes_of(EventKind::AllReduce) - volume.collective_bytes).abs() <= tol,
                "allreduce: sim {} vs plan {}",
                acct.wire_bytes_of(EventKind::AllReduce),
                volume.collective_bytes
            );
            assert!(
                (acct.wire_bytes_of(EventKind::Redistribution) - volume.redistribution_bytes).abs()
                    <= tol,
                "redistribution: sim {} vs plan {}",
                acct.wire_bytes_of(EventKind::Redistribution),
                volume.redistribution_bytes
            );
            assert!((acct.total_wire_bytes() - volume.total()).abs() <= tol);
            // Something must actually move under tensor parallelism.
            assert!(volume.total() > 0.0, "plan moved no bytes at all");
        }
    }
}

#[test]
fn memory_timeline_peak_matches_the_report() {
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    for cluster in clusters() {
        for plan in plans(&cluster, &graph) {
            let report = simulate_layer(&cluster, &graph, &plan);
            let acct = &report.accounting;
            assert!(!acct.memory_timeline.is_empty());
            assert_eq!(acct.peak_memory_bytes(), report.peak_memory_bytes);
            // Samples are chronological.
            for w in acct.memory_timeline.windows(2) {
                assert!(w[1].time_s >= w[0].time_s - 1e-12);
            }
        }
    }
}

/// Regression for the redistribution latency double-charge: every folded
/// redistribution row's walked seconds are, bit for bit, the per-direction
/// charge [`CostCtx::redistribution_time_split`] summed over the row's edges
/// in edge order — across ideal and perturbed clusters alike — and never
/// undercut the planner's single-exchange model. So the only model-vs-walk
/// gap on redistribution is the charging convention; migration costing
/// (`cost::migration`, the replan decision's numerator) charges the
/// single-exchange model.
#[test]
fn corrected_redistribution_column_eliminates_the_double_charge_drift() {
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    for cluster in clusters() {
        for plan in plans(&cluster, &graph) {
            let sim = simulate_layer(&cluster, &graph, &plan);
            let audit = audit_layer(&cluster, &graph, &plan, &sim);
            let geometry = PlanGeometry::new(&graph, &plan);
            let ctx = CostCtx::new(&cluster, 0.0);
            let mut travelled = 0;
            for r in &audit.edges {
                let split = graph
                    .edges
                    .iter()
                    .zip(&geometry.edge_bytes)
                    .filter(|(e, _)| {
                        format!("{}->{}", graph.ops[e.src].name, graph.ops[e.dst].name) == r.label
                    })
                    .fold(0.0, |sum, (_, &bytes)| {
                        sum + ctx.redistribution_time_split(bytes)
                    });
                assert_eq!(
                    r.simulated.to_bits(),
                    split.to_bits(),
                    "{}: simulated {} vs split charge {}",
                    r.label,
                    r.simulated,
                    split
                );
                if r.simulated > 0.0 {
                    travelled += 1;
                    assert!(r.simulated >= r.predicted, "{}", r.label);
                }
            }
            assert!(travelled > 0, "fixture should exercise redistribution");
        }
    }
}

#[test]
fn perturbation_dilates_time_but_conserves_bytes() {
    let base = Cluster::v100_like(8);
    let perturbed = base.perturbed(&PerturbationModel::harsh(), 42);
    let graph = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
    for plan in plans(&base, &graph) {
        let ideal = simulate_layer(&base, &graph, &plan);
        let hurt = simulate_layer(&perturbed, &graph, &plan);
        assert!(
            hurt.layer_time >= ideal.layer_time,
            "a slowdown-only scenario cannot speed the plan up"
        );
        // The same plan moves the same bytes regardless of the scenario.
        let tol = 1e-6 * (1.0 + ideal.accounting.total_wire_bytes());
        assert!(
            (hurt.accounting.total_wire_bytes() - ideal.accounting.total_wire_bytes()).abs() <= tol,
            "perturbation must not change wire-byte volume"
        );
    }
}
