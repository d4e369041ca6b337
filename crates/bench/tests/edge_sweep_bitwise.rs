//! The device-major edge sweep is *bitwise-identical* to the direct Eqs. 8–9
//! path at 64 devices, on the scaling chain's operators
//! ([`primepar_bench::planner_scale_graph`]): full spaces, the one-row and
//! one-column anchored probes a beam prices, and an `N × 8` pair of a full
//! space against a beam-restricted one (both orientations), every cell
//! checked bit for bit against `edge_cost_matrix`.
//!
//! `cargo test -p primepar-bench --test edge_sweep_bitwise`

use primepar::cost::{edge_cost_matrix, CacheStats, CostCtx, EdgeCostCache};
use primepar::search::{operator_space, SpaceOptions};
use primepar::topology::Cluster;
use primepar_bench::planner_scale_graph;

#[test]
fn device_major_sweep_matches_direct_on_the_chain_at_64_devices() {
    let cluster = Cluster::v100_like(64);
    let graph = planner_scale_graph(64, 5);
    let n_bits = cluster.space().n_bits();
    let spaces: Vec<_> = graph
        .ops
        .iter()
        .map(|op| operator_space(op, n_bits, &SpaceOptions::default()))
        .collect();
    let mut cache = EdgeCostCache::new();
    let mut stats = CacheStats::default();
    let mut checked = 0;
    // A linear → pointwise edge and a pointwise → linear one.
    for edge in &graph.edges[..2] {
        let (src, dst) = (&graph.ops[edge.src], &graph.ops[edge.dst]);
        let (s, d) = (&spaces[edge.src][..], &spaces[edge.dst][..]);
        assert!(
            s.len() > 8 && d.len() > 8,
            "spaces {} × {}",
            s.len(),
            d.len()
        );
        let shapes: [(&[_], &[_]); 5] = [
            (s, d),
            (&s[3..4], d),
            (s, &d[5..6]),
            (s, &d[d.len() - 8..]),
            (&s[..8], d),
        ];
        for (src_seqs, dst_seqs) in shapes {
            let direct_ctx = CostCtx::new(&cluster, 0.0);
            let direct = edge_cost_matrix(&direct_ctx, edge, src, dst, src_seqs, dst_seqs);
            let ctx = CostCtx::new(&cluster, 0.0);
            let (src_list, dst_list) = (cache.list(src_seqs), cache.list(dst_seqs));
            let mut swept = cache
                .prepare(&mut stats, edge, src, dst, src_list, dst_list)
                .volumes(&ctx);
            ctx.price(&mut swept);
            assert_eq!(direct.len(), src_seqs.len() * dst_seqs.len());
            assert_eq!(swept.len(), direct.len());
            for (i, (a, b)) in direct.iter().zip(&swept).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "edge ({}, {}) {}×{} cell {i}: {a} vs {b}",
                    edge.src,
                    edge.dst,
                    src_seqs.len(),
                    dst_seqs.len()
                );
            }
            // The term rows never outnumber the terms they sum.
            let terms = direct.len() as u64 * 64 * 2;
            assert!((1..=terms).contains(&ctx.term_row_entries()));
            checked += 1;
        }
    }
    assert_eq!(checked, 10);
}
