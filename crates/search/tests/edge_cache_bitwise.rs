//! The edge-cost cache is *bitwise-identical* to the direct Eqs. 8–9 path at
//! a real device count: every cell of every unique prepared matrix of the
//! Table-2 layer (OPT-6.7B, 16 devices) equals `edge_cost_matrix` over the
//! same operator spaces, enumerated as the planner enumerates them.

use primepar_cost::{edge_cost_matrix, matrix_job_ids, CacheStats, CostCtx, EdgeCostCache};
use primepar_graph::ModelConfig;
use primepar_search::{Planner, PlannerOptions, SpaceCache, SpaceOptions};
use primepar_topology::Cluster;

#[test]
fn prepared_matrices_match_direct_on_the_table2_spaces_at_16_devices() {
    let cluster = Cluster::v100_like(16);
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
    let n_bits = cluster.space().n_bits();
    let mut spaces = SpaceCache::new();
    let spaces: Vec<_> = graph
        .ops
        .iter()
        .map(|op| spaces.get(op, n_bits, &SpaceOptions::default()))
        .collect();
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
        let ctx = CostCtx::new(&cluster, 0.0);
        let direct = edge_cost_matrix(&ctx, edge, src, dst, src_seqs, dst_seqs);
        let mut prepared = cache
            .prepare(&mut stats, edge, src, dst, src_seqs, dst_seqs)
            .volumes(&ctx);
        ctx.price(&mut prepared);
        assert_eq!(direct.len(), src_seqs.len() * dst_seqs.len());
        assert_eq!(direct.len(), prepared.len());
        for (i, (a, b)) in direct.iter().zip(&prepared).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "edge ({}, {}) cell {i}: {a} vs {b}",
                edge.src,
                edge.dst
            );
        }
        checked += 1;
    }
    // The Table-2 layer has 14 unique matrices (residual adds dedup).
    assert_eq!(checked, 14);
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
