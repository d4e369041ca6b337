//! Cluster-level accounting of a simulated iteration: where the wires went.
//!
//! The SPMD walk in [`crate::simulate_layer`] states the layer's time once,
//! in [`LayerReport::layer_time`](crate::LayerReport::layer_time) and its
//! [`breakdown`](crate::LayerReport::breakdown): every device runs the same
//! program, so one timeline stands for all of them. This module keeps what
//! the report does not already say: per link class (NVLink-like intra-node
//! vs IB-like inter-node), wire bytes, transfers, busy seconds and a
//! cumulative byte series; per communication kind, wire bytes; and the
//! per-device live-memory timeline.
//!
//! Two conservation laws hold by construction and are pinned by tests:
//!
//! 1. the breakdown accounts for the whole layer time
//!    ([`LayerReport::check_time_conservation`](crate::LayerReport::check_time_conservation)),
//!    and
//! 2. the per-link-class wire bytes sum to the plan's analytically derived
//!    communication volume (ring + collective + redistribution).

use primepar_topology::{Cluster, GroupIndicator, LinkClass};

use crate::EventKind;

/// One `(time, bytes)` sample of a running byte series (live memory, or
/// cumulative wire traffic of a link class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByteSample {
    /// Seconds from iteration start.
    pub time_s: f64,
    /// Bytes at that instant.
    pub bytes: f64,
}

/// Wire traffic over one link class across the whole iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkAccount {
    /// Link class (intra-node NVLink-like or inter-node IB-like).
    pub class: LinkClass,
    /// Total wire bytes that crossed this class.
    pub bytes: f64,
    /// Number of transfer events (ring steps, collectives, redistributions).
    pub transfers: u64,
    /// Seconds the class was carrying traffic, serialized (event durations
    /// summed; overlapped ring traffic still occupies the link).
    pub busy_seconds: f64,
    /// Cumulative wire bytes over time, one sample per transfer event —
    /// rendered as a Chrome-trace counter lane.
    pub cumulative: Vec<ByteSample>,
}

impl LinkAccount {
    /// Fraction of the layer time the class was busy.
    pub fn occupancy(&self, layer_time: f64) -> f64 {
        if layer_time > 0.0 {
            self.busy_seconds / layer_time
        } else {
            0.0
        }
    }
}

/// Cluster-wide wire bytes of one communication kind (ring / all-reduce /
/// redistribution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveAccount {
    /// Communication kind.
    pub kind: EventKind,
    /// Cluster-wide wire bytes moved.
    pub wire_bytes: f64,
}

/// The cluster accounting of one simulated layer iteration, filled in as
/// the walk runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterAccounting {
    /// One account per link class that carried traffic, in
    /// intra-node-before-inter-node order.
    pub links: Vec<LinkAccount>,
    /// One account per communication kind that occurred, in ring /
    /// all-reduce / redistribution order.
    pub collectives: Vec<CollectiveAccount>,
    /// Per-device live-memory samples at every allocation change (the
    /// high-water timeline; the peak equals `LayerReport::peak_memory_bytes`).
    pub memory_timeline: Vec<ByteSample>,
}

impl ClusterAccounting {
    /// Total wire bytes across all link classes.
    pub fn total_wire_bytes(&self) -> f64 {
        self.links.iter().map(|l| l.bytes).sum()
    }

    /// Wire bytes of one communication kind (0 when absent).
    pub fn wire_bytes_of(&self, kind: EventKind) -> f64 {
        self.collectives
            .iter()
            .find(|c| c.kind == kind)
            .map_or(0.0, |c| c.wire_bytes)
    }

    /// Peak of the live-memory timeline (0 when empty).
    pub fn peak_memory_bytes(&self) -> f64 {
        self.memory_timeline
            .iter()
            .map(|s| s.bytes)
            .fold(0.0, f64::max)
    }

    fn link(&mut self, class: LinkClass) -> &mut LinkAccount {
        if let Some(idx) = self.links.iter().position(|l| l.class == class) {
            return &mut self.links[idx];
        }
        self.links.push(LinkAccount {
            class,
            bytes: 0.0,
            transfers: 0,
            busy_seconds: 0.0,
            cumulative: Vec::new(),
        });
        // Keep intra-node before inter-node for stable rendering.
        self.links.sort_by_key(|l| match l.class {
            LinkClass::Loopback => 0,
            LinkClass::IntraNode => 1,
            LinkClass::InterNode => 2,
        });
        self.links
            .iter_mut()
            .find(|l| l.class == class)
            .expect("just inserted")
    }

    fn collective_slot(&mut self, kind: EventKind) -> &mut CollectiveAccount {
        if let Some(idx) = self.collectives.iter().position(|c| c.kind == kind) {
            return &mut self.collectives[idx];
        }
        self.collectives.push(CollectiveAccount {
            kind,
            wire_bytes: 0.0,
        });
        self.collectives.sort_by_key(|c| match c.kind {
            EventKind::Compute => 0,
            EventKind::Ring => 1,
            EventKind::AllReduce => 2,
            EventKind::Redistribution => 3,
        });
        self.collectives
            .iter_mut()
            .find(|c| c.kind == kind)
            .expect("just inserted")
    }

    /// One transfer of `kind` that ends at `end_time`: a ring step, a
    /// collective or a redistribution, carried by `class` (`None` when no
    /// link is involved).
    pub(crate) fn on_traffic(
        &mut self,
        kind: EventKind,
        class: Option<LinkClass>,
        wire_bytes: f64,
        seconds: f64,
        end_time: f64,
    ) {
        self.collective_slot(kind).wire_bytes += wire_bytes;
        if let Some(class) = class {
            let link = self.link(class);
            link.bytes += wire_bytes;
            link.transfers += 1;
            link.busy_seconds += seconds;
            let cum = link.bytes;
            link.cumulative.push(ByteSample {
                time_s: end_time,
                bytes: cum,
            });
        }
    }

    /// A live-memory change at `time_s`.
    pub(crate) fn on_memory(&mut self, time_s: f64, live_bytes: f64) {
        self.memory_timeline.push(ByteSample {
            time_s,
            bytes: live_bytes,
        });
    }
}

/// The link class a group-indicator communication pattern exercises: the
/// slowest bottleneck across its groups (`None` for an empty indicator —
/// nothing moves).
pub fn indicator_link_class(cluster: &Cluster, indicator: GroupIndicator) -> Option<LinkClass> {
    if indicator.is_empty() {
        return None;
    }
    // A group spans nodes when some member's node differs from its leader's.
    let space = cluster.space();
    let spans = space.group_leaders(indicator).any(|leader| {
        space
            .group_members(indicator, leader)
            .any(|d| cluster.node_of(d) != cluster.node_of(leader))
    });
    Some(if spans {
        LinkClass::InterNode
    } else {
        LinkClass::IntraNode
    })
}

/// The link class redistribution traffic is charged on — mirrors
/// `CostCtx::redistribution_time`: the slowest class present in the cluster.
pub fn redistribution_link_class(cluster: &Cluster) -> LinkClass {
    if cluster.num_devices() > cluster.devices_per_node() {
        LinkClass::InterNode
    } else {
        LinkClass::IntraNode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_topology::Cluster;

    #[test]
    fn validate_flags_leaky_accounting() {
        use primepar_graph::ModelConfig;
        use primepar_search::megatron_layer_plan;

        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().mlp_block_graph(8, 256);
        let mut report =
            crate::simulate_layer(&cluster, &graph, &megatron_layer_plan(&graph, 1, 4));
        assert!(report.check_time_conservation().is_ok());
        report.breakdown.collective = 0.0;
        let err = report.check_time_conservation().unwrap_err();
        assert!(err.contains("layer time"), "{err}");
    }

    #[test]
    fn indicator_class_follows_node_span() {
        // 8 devices, 4 per node: position 1 (the high device bit) separates
        // the two nodes, so grouping over it crosses nodes.
        let cluster = Cluster::v100_like(8);
        assert_eq!(
            indicator_link_class(&cluster, GroupIndicator::new(vec![1])),
            Some(LinkClass::InterNode)
        );
        assert_eq!(
            indicator_link_class(&cluster, GroupIndicator::new(vec![3])),
            Some(LinkClass::IntraNode)
        );
        assert_eq!(
            indicator_link_class(&cluster, GroupIndicator::empty()),
            None
        );
        assert_eq!(redistribution_link_class(&cluster), LinkClass::InterNode);
        assert_eq!(
            redistribution_link_class(&Cluster::v100_like(4)),
            LinkClass::IntraNode
        );
    }

    #[test]
    fn traffic_accumulates_per_link_and_kind() {
        let intra = Some(LinkClass::IntraNode);
        let mut acct = ClusterAccounting::default();
        acct.on_memory(0.0, 10.0);
        acct.on_traffic(EventKind::Ring, intra, 100.0, 1.0, 2.0);
        acct.on_traffic(EventKind::Ring, intra, 100.0, 3.0, 5.0);
        acct.on_traffic(EventKind::AllReduce, intra, 50.0, 0.5, 5.5);
        acct.on_traffic(EventKind::Redistribution, intra, 25.0, 0.25, 5.75);
        assert_eq!(acct.total_wire_bytes(), 275.0);
        assert_eq!(acct.wire_bytes_of(EventKind::Ring), 200.0);
        assert_eq!(acct.wire_bytes_of(EventKind::Compute), 0.0);
        let link = &acct.links[0];
        assert_eq!(link.class, LinkClass::IntraNode);
        assert_eq!(link.transfers, 4);
        assert_eq!(link.cumulative.last().unwrap().bytes, 275.0);
        assert!((link.occupancy(5.75) - 4.75 / 5.75).abs() < 1e-12);
        assert_eq!(acct.peak_memory_bytes(), 10.0);
    }
}
