//! The edge-cost cache is *bitwise-identical* to the direct Eqs. 8–9 path at
//! a real device count: every cell of every unique prepared matrix of the
//! Table-2 layer (OPT-6.7B, 16 devices) equals `edge_cost_matrix` over the
//! same operator spaces, enumerated as the planner enumerates them.

use primepar_cost::{edge_cost_matrix, matrix_job_ids, CostCtx, EdgeCostCache};
use primepar_graph::ModelConfig;
use primepar_search::{SpaceCache, SpaceOptions};
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
    let mut checked = 0;
    for (e, edge) in graph.edges.iter().enumerate() {
        if jobs[..e].contains(&jobs[e]) {
            continue;
        }
        let (src, dst) = (&graph.ops[edge.src], &graph.ops[edge.dst]);
        let (src_seqs, dst_seqs) = (&spaces[edge.src], &spaces[edge.dst]);
        let ctx = CostCtx::new(&cluster, 0.0);
        let direct = edge_cost_matrix(&ctx, edge, src, dst, src_seqs, dst_seqs);
        let prepared = cache
            .prepare(
                edge,
                src,
                dst,
                src_seqs,
                dst_seqs,
                sig_ids[edge.src],
                sig_ids[edge.dst],
            )
            .matrix(&ctx);
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
