//! The edge-cost cache is *bitwise-identical* to the direct Eqs. 8–9 path at
//! a real device count: every cell of every unique prepared matrix of the
//! Table-2 layer (OPT-6.7B, 16 devices) equals `edge_cost_matrix` over the
//! same operator spaces, enumerated as the planner enumerates them. The
//! simulator's per-pair volume, `inter_traffic_bytes`, equals the swept
//! plane's cell bit for bit too, so the planner optimizes the volumes the
//! simulator charges.

use primepar_cost::{
    edge_cost_matrix, inter_traffic_bytes, matrix_job_ids, CacheStats, CostCtx, EdgeCostCache,
};
use primepar_graph::{Graph, ModelConfig};
use primepar_partition::PartitionSeq;
use primepar_search::{operator_space, Planner, PlannerOptions, SpaceOptions};
use primepar_topology::{AppliedPerturbation, Cluster, PerturbationModel};

/// Every operator's partition space, enumerated as the planner enumerates it.
fn op_spaces(cluster: &Cluster, graph: &Graph) -> Vec<Vec<PartitionSeq>> {
    let n_bits = cluster.space().n_bits();
    graph
        .ops
        .iter()
        .map(|op| operator_space(op, n_bits, &SpaceOptions::default()))
        .collect()
}

/// Checks `inter_traffic_bytes` of edge `e` at every listed `(i, j)` state
/// pair against cell `i·cols + j` of its swept volume plane, bit for bit.
/// Returns the number of cells checked.
fn check_cells(
    cluster: &Cluster,
    graph: &Graph,
    spaces: &[Vec<PartitionSeq>],
    e: usize,
    cells: impl Iterator<Item = (usize, usize)>,
) -> usize {
    let edge = &graph.edges[e];
    let (src, dst) = (&graph.ops[edge.src], &graph.ops[edge.dst]);
    let (src_seqs, dst_seqs) = (&spaces[edge.src], &spaces[edge.dst]);
    let ctx = CostCtx::new(cluster, 0.0);
    let mut cache = EdgeCostCache::new();
    let (src_list, dst_list) = (cache.list(src_seqs), cache.list(dst_seqs));
    let plane = cache
        .prepare(
            &mut CacheStats::default(),
            edge,
            src,
            dst,
            src_list,
            dst_list,
        )
        .volumes(&ctx);
    let mut checked = 0;
    for (i, j) in cells {
        let sim = inter_traffic_bytes(edge, src, dst, &src_seqs[i], &dst_seqs[j]);
        let swept = plane[i * dst_seqs.len() + j];
        assert_eq!(
            sim.to_bits(),
            swept.to_bits(),
            "edge {e} ({} -> {}) cell ({i}, {j}): {sim} vs {swept}",
            edge.src,
            edge.dst
        );
        checked += 1;
    }
    checked
}

#[test]
fn simulator_volumes_match_swept_planes_on_the_replan_point() {
    // The elastic replan point (OPT-6.7B, 8 devices, seq 1024): every cell of
    // every edge.
    let cluster = Cluster::v100_like(8);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 1024);
    let spaces = op_spaces(&cluster, &graph);
    let checked: usize = (0..graph.edges.len())
        .map(|e| {
            let edge = &graph.edges[e];
            let (rows, cols) = (spaces[edge.src].len(), spaces[edge.dst].len());
            let cells = (0..rows).flat_map(move |i| (0..cols).map(move |j| (i, j)));
            check_cells(&cluster, &graph, &spaces, e, cells)
        })
        .sum();
    assert_eq!(checked, 22_788);
}

#[test]
fn simulator_volumes_match_swept_planes_at_the_table2_plan() {
    // The Table-2 point (OPT-6.7B, 16 devices): the cell of every edge at
    // the exact plan's states.
    let cluster = Cluster::v100_like(16);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
    let plan = Planner::new(&cluster, &graph, PlannerOptions::default())
        .optimize(32)
        .seqs;
    let spaces = op_spaces(&cluster, &graph);
    let state = |op: usize| {
        spaces[op]
            .iter()
            .position(|s| *s == plan[op])
            .expect("the plan's state is in its operator's space")
    };
    for (e, edge) in graph.edges.iter().enumerate() {
        let cell = (state(edge.src), state(edge.dst));
        assert_eq!(
            check_cells(&cluster, &graph, &spaces, e, std::iter::once(cell)),
            1
        );
    }
}

/// Checks every unique prepared matrix of `graph` on `cluster`'s spaces
/// against `edge_cost_matrix`, bit for bit, each priced on `cluster` and on
/// every cluster of `repriced`: the swept volume plane carries no cluster,
/// so one sweep prices on any of them. Returns the matrices checked.
fn check_prepared_against_direct(cluster: &Cluster, repriced: &[Cluster], graph: &Graph) -> usize {
    let spaces = op_spaces(cluster, graph);
    let sig_ids = graph.signature_ids();
    let jobs = matrix_job_ids(&graph.edges, &sig_ids);
    let mut cache = EdgeCostCache::new();
    let mut stats = CacheStats::default();
    let mut checked = 0;
    for (e, edge) in graph.edges.iter().enumerate() {
        if jobs[..e].contains(&jobs[e]) {
            continue;
        }
        let (src, dst) = (&graph.ops[edge.src], &graph.ops[edge.dst]);
        let (src_seqs, dst_seqs) = (&spaces[edge.src], &spaces[edge.dst]);
        let (src_list, dst_list) = (cache.list(src_seqs), cache.list(dst_seqs));
        let prepared = cache.prepare(&mut stats, edge, src, dst, src_list, dst_list);
        for on in std::iter::once(cluster).chain(repriced) {
            let ctx = CostCtx::new(on, 0.0);
            let direct = edge_cost_matrix(&ctx, edge, src, dst, src_seqs, dst_seqs);
            let mut swept = prepared.plane(&ctx).to_vec();
            ctx.price(&mut swept);
            assert_eq!(direct.len(), src_seqs.len() * dst_seqs.len());
            assert_eq!(direct.len(), swept.len());
            for (i, (a, b)) in direct.iter().zip(&swept).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "edge ({}, {}) cell {i}: {a} vs {b}",
                    edge.src,
                    edge.dst
                );
            }
        }
        checked += 1;
    }
    checked
}

#[test]
fn prepared_matrices_match_direct_on_the_table2_spaces_at_16_devices() {
    let cluster = Cluster::v100_like(16);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
    // The Table-2 layer has 14 unique matrices (residual adds dedup).
    assert_eq!(check_prepared_against_direct(&cluster, &[], &graph), 14);
}

#[test]
fn prepared_matrices_match_direct_at_the_replan_point_under_harsh_scenarios() {
    // The elastic replan point (OPT-6.7B, 8 devices, seq 1024), each matrix
    // priced on the ideal cluster and on the first two harsh draws with every
    // device alive and the first two with a dead device failing over.
    let cluster = Cluster::v100_like(8);
    let draws: Vec<AppliedPerturbation> = (0..)
        .map(|seed| AppliedPerturbation::draw(&PerturbationModel::harsh(), seed, 8))
        .take(128)
        .collect();
    let (dead, alive): (Vec<_>, Vec<_>) = draws.into_iter().partition(|s| s.dead_devices() > 0);
    assert!(dead.len() >= 2, "harsh draws kill a device now and then");
    let harsh: Vec<Cluster> = alive[..2]
        .iter()
        .chain(&dead[..2])
        .map(|s| cluster.with_perturbation(s.clone()))
        .collect();
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 1024);
    assert_eq!(check_prepared_against_direct(&cluster, &harsh, &graph), 14);
}

/// The edge stage's work on the Table-2 point, counted: profiles and matrix
/// sweeps are keyed by layout, so each is built once per distinct
/// input rather than once per operator that holds it; the device-major sweep
/// builds one term-row entry per distinct holding, not one per summed term.
#[test]
fn table2_edge_stage_builds_each_layout_once() {
    let cluster = Cluster::v100_like(16);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
    let (_, tm) =
        Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(32);
    // 56 side requests (14 matrix jobs × 4 sides) build 25 profiles.
    assert_eq!((tm.profile_cache_misses, tm.profile_cache_hits), (25, 31));
    // 16 edges, 14 matrix jobs, 10 sweeps.
    assert_eq!(
        (tm.edge_matrix_cache_misses, tm.edge_matrix_cache_hits),
        (14, 2)
    );
    assert_eq!(tm.edge_matrix_aliases, 4);
    assert_eq!(tm.edge_evaluations, 180_144);
    assert_eq!(tm.edge_terms, 180_144 * 16 * 2);
    assert_eq!(tm.edge_term_row_entries, 2_341_231);
}
