//! One geometry per plan: `PlanGeometry`'s per-edge volumes equal
//! `inter_traffic_bytes`, its priced operators equal `intra_cost` and the
//! walk's per-operator and per-edge records, and a robustness sweep that shares the geometry across its simulations reports
//! bitwise what per-scenario calls of the public entry points report.

use primepar_cost::{inter_traffic_bytes, intra_cost, CostCtx, PlanGeometry};
use primepar_graph::ModelConfig;
use primepar_search::{Planner, PlannerOptions};
use primepar_sim::{robustness_sweep, simulate_layer_with, RobustnessOptions, SimOptions};
use primepar_topology::{AppliedPerturbation, Cluster, PerturbationModel};

#[test]
fn plan_traffic_matches_per_edge_traffic_on_the_table2_plan() {
    let cluster = Cluster::v100_like(16);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
    let plan = Planner::new(&cluster, &graph, PlannerOptions::default())
        .optimize(32)
        .seqs;
    let geometry = PlanGeometry::new(&graph, &plan);
    let traffic = &geometry.edge_bytes;
    assert_eq!(traffic.len(), graph.edges.len());
    for (e, edge) in graph.edges.iter().enumerate() {
        let direct = inter_traffic_bytes(
            edge,
            &graph.ops[edge.src],
            &graph.ops[edge.dst],
            &plan[edge.src],
            &plan[edge.dst],
        );
        assert_eq!(
            traffic[e].to_bits(),
            direct.to_bits(),
            "edge {e} ({} -> {})",
            edge.src,
            edge.dst
        );
    }
    // The fused qkv projection feeds qk twice (as Q and as K): both parallel
    // edges keep their own entry.
    let qkv_to_qk: Vec<usize> = (0..graph.edges.len())
        .filter(|&e| {
            let edge = &graph.edges[e];
            graph.ops[edge.src].name == "qkv" && graph.ops[edge.dst].name == "qk"
        })
        .collect();
    assert_eq!(qkv_to_qk.len(), 2, "qkv feeds qk as Q and as K");
    // Pricing the shared geometry is Eq. 7 itself, field by field.
    let ctx = CostCtx::new(&cluster, 0.0);
    for (i, op) in graph.ops.iter().enumerate() {
        let priced = ctx.price_intra(&geometry.ops[i]);
        let direct = intra_cost(&ctx, op, &plan[i]);
        for (field, p, d) in [
            ("latency", priced.latency, direct.latency),
            ("compute", priced.compute, direct.compute),
            ("ring_total", priced.ring_total, direct.ring_total),
            ("ring_exposed", priced.ring_exposed, direct.ring_exposed),
            ("allreduce", priced.allreduce, direct.allreduce),
            ("memory_bytes", priced.memory_bytes, direct.memory_bytes),
            ("cost", priced.cost, direct.cost),
        ] {
            assert_eq!(p.to_bits(), d.to_bits(), "{}.{field}", op.name);
        }
    }
    // The walk records Eq. 7 per operator and the per-direction charge per
    // edge, bit for bit, on ideal and perturbed hardware alike.
    let perturbed = cluster.perturbed(&PerturbationModel::harsh(), 11);
    for cluster in [&cluster, &perturbed] {
        let ctx = CostCtx::new(cluster, 0.0);
        let report = simulate_layer_with(cluster, &graph, &plan, &SimOptions::default());
        assert_eq!(report.op_breakdown.len(), graph.ops.len());
        for (i, op) in graph.ops.iter().enumerate() {
            let priced = ctx.price_intra(&geometry.ops[i]);
            let walked = &report.op_breakdown[i];
            for (field, p, w) in [
                ("compute", priced.compute, walked.compute),
                ("ring_total", priced.ring_total, walked.ring_total),
                ("ring_exposed", priced.ring_exposed, walked.ring_exposed),
                ("allreduce", priced.allreduce, walked.collective),
            ] {
                assert_eq!(p.to_bits(), w.to_bits(), "{}.{field}", op.name);
            }
            assert_eq!(walked.redistribution, 0.0, "{}: edges carry it", op.name);
        }
        assert_eq!(report.edge_seconds.len(), graph.edges.len());
        for (e, &seconds) in report.edge_seconds.iter().enumerate() {
            let split = ctx.redistribution_time_split(geometry.edge_bytes[e]);
            assert_eq!(seconds.to_bits(), split.to_bits(), "edge {e}");
        }
    }
}

#[test]
fn shared_traffic_sweep_matches_per_scenario_simulations() {
    let cluster = Cluster::v100_like(8);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 1024);
    let plan = Planner::new(&cluster, &graph, PlannerOptions::default())
        .optimize(32)
        .seqs;
    for sim in [
        SimOptions::default(),
        SimOptions {
            recompute_activations: true,
        },
    ] {
        let opts = RobustnessOptions {
            model: PerturbationModel::harsh(),
            scenarios: 16,
            base_seed: 42,
            sim,
        };
        let report = robustness_sweep(&cluster, &graph, &plan, &opts);
        let ideal = simulate_layer_with(&cluster, &graph, &plan, &sim);
        assert_eq!(report.ideal_makespan.to_bits(), ideal.layer_time.to_bits());
        assert_eq!(report.outcomes.len(), 16);
        let mut histogram = vec![0u64; cluster.num_devices()];
        for o in &report.outcomes {
            let draw = AppliedPerturbation::draw(&opts.model, o.seed, cluster.num_devices());
            histogram[draw.slowest_device()] += 1;
            let perturbed = cluster.perturbed(&opts.model, o.seed);
            let walk = simulate_layer_with(&perturbed, &graph, &plan, &sim);
            let s = o.scenario;
            assert_eq!(
                o.makespan.to_bits(),
                walk.layer_time.to_bits(),
                "{sim:?} scenario {s}"
            );
            assert_eq!(
                o.slowdown.to_bits(),
                (walk.layer_time / ideal.layer_time).to_bits(),
                "{sim:?} scenario {s}"
            );
            assert_eq!(o.critical_device, draw.slowest_device(), "scenario {s}");
        }
        assert_eq!(report.critical_device_histogram, histogram, "{sim:?}");
    }
}
