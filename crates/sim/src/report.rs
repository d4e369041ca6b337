use std::fmt;

use primepar_partition::Phase;

use crate::accounting::ClusterAccounting;

/// What a timeline event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A compute kernel (one temporal step of one phase).
    Compute,
    /// A ring point-to-point transfer overlapped with compute.
    Ring,
    /// A collective (all-reduce) kernel.
    AllReduce,
    /// Inter-operator redistribution traffic.
    Redistribution,
}

/// One span on the simulated device timeline (the paper's Fig. 9 kernel
/// timelines).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Operator name (e.g. `"fc2"`).
    pub op: String,
    /// Training phase.
    pub phase: Phase,
    /// Event class.
    pub kind: EventKind,
    /// Start time in seconds from iteration start.
    pub start: f64,
    /// Duration in seconds.
    pub duration: f64,
}

/// An ordered list of timeline events.
pub type Timeline = Vec<TimelineEvent>;

/// Latency breakdown of a simulated iteration (the paper's Fig. 9 bars and
/// Fig. 2a proportions).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Pure compute time.
    pub compute: f64,
    /// Collective (all-reduce) time.
    pub collective: f64,
    /// Ring point-to-point time if serialized.
    pub ring_total: f64,
    /// Ring time not hidden behind compute.
    pub ring_exposed: f64,
    /// Inter-operator redistribution time.
    pub redistribution: f64,
}

impl Breakdown {
    /// Total critical-path latency.
    pub fn total(&self) -> f64 {
        self.compute + self.collective + self.ring_exposed + self.redistribution
    }

    /// Fraction of latency spent in collective communication (Fig. 2a).
    pub fn collective_fraction(&self) -> f64 {
        if self.total() > 0.0 {
            self.collective / self.total()
        } else {
            0.0
        }
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compute {:.3}ms, collective {:.3}ms, ring {:.3}ms (exposed {:.3}ms), redist {:.3}ms",
            self.compute * 1e3,
            self.collective * 1e3,
            self.ring_total * 1e3,
            self.ring_exposed * 1e3,
            self.redistribution * 1e3
        )
    }
}

/// Result of simulating one transformer layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Critical-path latency of one layer's training iteration (s).
    pub layer_time: f64,
    /// Component breakdown.
    pub breakdown: Breakdown,
    /// Each operator's own compute, ring and collective seconds (indexed
    /// like `graph.ops`), summed increment for increment with `breakdown`:
    /// the simulated side of Eq. 7, term by term. Its `redistribution` is 0;
    /// edges carry that in `edge_seconds`.
    pub op_breakdown: Vec<Breakdown>,
    /// Each edge's forward plus backward redistribution seconds (indexed
    /// like `graph.edges`): the simulated side of Eqs. 8–9.
    pub edge_seconds: Vec<f64>,
    /// Peak per-device memory of this layer alone (bytes): persistent
    /// parameters + gradients plus the activation-stash high-water mark,
    /// the maximum of `accounting.memory_timeline`.
    pub peak_memory_bytes: f64,
    /// Persistent (parameters + gradients) bytes per device.
    pub persistent_bytes: f64,
    /// Stash bytes alive at the end of the forward pass per device.
    pub stash_bytes: f64,
    /// Kernel timeline (forward, then backward/gradient).
    pub timeline: Timeline,
    /// Where the wires went, beside the time stated above: per-link-class
    /// bytes, transfers and busy seconds, wire bytes per communication
    /// kind, and the per-device live-memory timeline.
    pub accounting: ClusterAccounting,
}

impl LayerReport {
    /// Conservation law 1: the breakdown accounts for the whole layer time,
    /// `breakdown.total()` equal to `layer_time` within
    /// `1e-9·(1 + layer_time)`.
    ///
    /// # Errors
    ///
    /// Returns both figures when they disagree.
    pub fn check_time_conservation(&self) -> Result<(), String> {
        let total = self.breakdown.total();
        if (total - self.layer_time).abs() > 1e-9 * (1.0 + self.layer_time) {
            return Err(format!(
                "breakdown total {total} != layer time {}",
                self.layer_time
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_fraction() {
        let b = Breakdown {
            compute: 2.0,
            collective: 1.0,
            ring_total: 0.5,
            ring_exposed: 0.25,
            redistribution: 0.75,
        };
        assert_eq!(b.total(), 4.0);
        assert_eq!(b.collective_fraction(), 0.25);
        assert!(!b.to_string().is_empty());
    }

    #[test]
    fn zero_breakdown_fraction_is_zero() {
        assert_eq!(Breakdown::default().collective_fraction(), 0.0);
    }

    #[test]
    fn report_covers_every_operator() {
        // The plan explanation reads each operator's and each edge's figures
        // off the report, so the walk must record every one of them.
        use primepar_graph::ModelConfig;
        use primepar_search::megatron_layer_plan;
        use primepar_topology::Cluster;

        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 256);
        let plan = megatron_layer_plan(&graph, 2, 2);
        let report = crate::simulate_layer(&cluster, &graph, &plan);
        assert_eq!(report.op_breakdown.len(), graph.ops.len());
        assert_eq!(report.edge_seconds.len(), graph.edges.len());
        for (op, b) in graph.ops.iter().zip(&report.op_breakdown) {
            assert!(b.compute > 0.0, "no compute recorded for {}", op.name);
            assert_eq!(
                b.redistribution, 0.0,
                "{} carries an edge's seconds",
                op.name
            );
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        let sum = |f: fn(&Breakdown) -> f64| report.op_breakdown.iter().map(f).sum::<f64>();
        assert!(close(sum(|b| b.compute), report.breakdown.compute));
        assert!(close(sum(|b| b.collective), report.breakdown.collective));
        assert!(close(
            sum(|b| b.ring_exposed),
            report.breakdown.ring_exposed
        ));
        let edges: f64 = report.edge_seconds.iter().sum();
        assert!(close(edges, report.breakdown.redistribution));
    }
}
