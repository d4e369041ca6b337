//! Human-readable plan reports: per-operator cost tables in the spirit of
//! the paper's Fig. 9 strategy listings, used by the CLI and examples.

use primepar_cost::{CostCtx, PlanGeometry};
use primepar_graph::Graph;
use primepar_partition::PartitionSeq;
use primepar_topology::Cluster;

/// Formats a per-operator cost table for `seqs` on `cluster`:
/// strategy string, modeled latency, collective/ring shares, and per-device
/// memory, followed by the inter-operator redistribution summary.
///
/// # Example
///
/// ```
/// use primepar_graph::ModelConfig;
/// use primepar_search::{explain_plan, megatron_layer_plan};
/// use primepar_topology::Cluster;
///
/// let cluster = Cluster::v100_like(4);
/// let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
/// let plan = megatron_layer_plan(&graph, 2, 2);
/// let table = explain_plan(&cluster, &graph, &plan);
/// assert!(table.contains("fc2") && table.contains("redistribution"));
/// ```
pub fn explain_plan(cluster: &Cluster, graph: &Graph, seqs: &[PartitionSeq]) -> String {
    let geometry = PlanGeometry::new(graph, seqs);
    let ctx = CostCtx::new(cluster, 0.0);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<9} {:<18} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "operator", "strategy", "lat ms", "comp ms", "coll ms", "ring ms", "mem MB"
    ));
    let mut totals = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for ((op, seq), op_geometry) in graph.ops.iter().zip(seqs).zip(&geometry.ops) {
        let c = ctx.price_intra(op_geometry);
        out.push_str(&format!(
            "{:<9} {:<18} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.1}\n",
            op.name,
            format!("[{seq}]"),
            c.latency * 1e3,
            c.compute * 1e3,
            c.allreduce * 1e3,
            c.ring_total * 1e3,
            c.memory_bytes / 1e6,
        ));
        totals.0 += c.latency;
        totals.1 += c.compute;
        totals.2 += c.allreduce;
        totals.3 += c.ring_total;
        totals.4 += c.memory_bytes;
    }
    out.push_str(&format!(
        "{:<9} {:<18} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.1}\n",
        "total",
        "",
        totals.0 * 1e3,
        totals.1 * 1e3,
        totals.2 * 1e3,
        totals.3 * 1e3,
        totals.4 / 1e6,
    ));
    let redistribution: f64 = geometry
        .edge_bytes
        .iter()
        .map(|&bytes| ctx.redistribution_time(bytes))
        .sum();
    out.push_str(&format!(
        "redistribution across edges: {:.3} ms\n",
        redistribution * 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::megatron_layer_plan;
    use primepar_graph::ModelConfig;

    #[test]
    fn report_covers_every_operator() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
        let plan = megatron_layer_plan(&graph, 2, 2);
        let text = explain_plan(&cluster, &graph, &plan);
        for op in &graph.ops {
            assert!(text.contains(&op.name), "missing {} in report", op.name);
        }
        assert!(text.contains("redistribution"));
        assert!(text.contains("total"));
    }

    #[test]
    #[should_panic(expected = "one sequence per operator")]
    fn report_rejects_mismatched_plan() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
        explain_plan(&cluster, &graph, &[]);
    }
}
