//! Cluster-level accounting of a simulated iteration.
//!
//! The SPMD walk in [`crate::simulate_layer`] reports *what the critical path
//! is*; this module reports *where the cluster's time and wires went*: per
//! device, busy/idle/overlap seconds; per link class (NVLink-like intra-node
//! vs IB-like inter-node), wire bytes and occupancy; per communication kind,
//! event counts and volumes; and the per-device memory high-water timeline.
//!
//! Two conservation laws hold by construction and are pinned by tests:
//!
//! 1. every device's `busy + idle` seconds equal the simulated makespan, and
//! 2. the per-link-class wire bytes sum to the plan's analytically derived
//!    communication volume (ring + collective + redistribution).

use primepar_topology::{Cluster, GroupIndicator, LinkClass};

use crate::EventKind;

/// Where one device spent the iteration. Every device runs the same
/// program, so in the SPMD walk every device carries identical numbers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceAccount {
    /// Device index.
    pub device: usize,
    /// Kernel-busy seconds (compute steps, including time a ring transfer
    /// proceeds concurrently).
    pub compute_seconds: f64,
    /// Ring-shift seconds *not* hidden behind compute.
    pub ring_exposed_seconds: f64,
    /// Collective (all-reduce) seconds.
    pub collective_seconds: f64,
    /// Inter-operator redistribution seconds.
    pub redistribution_seconds: f64,
    /// Seconds compute and a ring shift proceeded together
    /// (`Σ min(compute, ring)` per step) — informational, already contained
    /// in `compute_seconds`.
    pub overlap_seconds: f64,
    /// Seconds the device sat idle: 0 in the SPMD walk, whose devices all
    /// run at the cluster's bottleneck pace.
    pub idle_seconds: f64,
}

impl DeviceAccount {
    /// Seconds the device was doing *something*: compute, exposed ring,
    /// collectives or redistribution.
    pub fn busy_seconds(&self) -> f64 {
        self.compute_seconds
            + self.ring_exposed_seconds
            + self.collective_seconds
            + self.redistribution_seconds
    }

    /// `busy + idle` — equals the makespan when accounting is conservative.
    pub fn accounted_seconds(&self) -> f64 {
        self.busy_seconds() + self.idle_seconds
    }
}

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
    /// Fraction of the makespan the class was busy.
    pub fn occupancy(&self, makespan: f64) -> f64 {
        if makespan > 0.0 {
            self.busy_seconds / makespan
        } else {
            0.0
        }
    }
}

/// Counts and volumes of one communication kind (ring / all-reduce /
/// redistribution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveAccount {
    /// Communication kind.
    pub kind: EventKind,
    /// Number of events.
    pub count: u64,
    /// Cluster-wide wire bytes moved.
    pub wire_bytes: f64,
    /// Total seconds (serialized).
    pub seconds: f64,
}

/// The full cluster accounting of one simulated layer iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterAccounting {
    /// The simulated makespan (equals `LayerReport::layer_time`).
    pub makespan: f64,
    /// One account per device, index-aligned with the cluster.
    pub devices: Vec<DeviceAccount>,
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

    /// Checks the conservation law `busy + idle = makespan` on every device.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violating device.
    pub fn validate(&self) -> Result<(), String> {
        let tol = 1e-9 * (1.0 + self.makespan);
        for d in &self.devices {
            let accounted = d.accounted_seconds();
            if (accounted - self.makespan).abs() > tol {
                return Err(format!(
                    "device {}: busy+idle {accounted} != makespan {}",
                    d.device, self.makespan
                ));
            }
        }
        Ok(())
    }
}

/// The link class a group-indicator communication pattern exercises: the
/// slowest bottleneck across its groups (`None` for an empty indicator —
/// nothing moves).
pub fn indicator_link_class(cluster: &Cluster, indicator: &GroupIndicator) -> Option<LinkClass> {
    if indicator.is_empty() {
        return None;
    }
    let space = cluster.space();
    let spans = space
        .groups(indicator)
        .iter()
        .any(|g| cluster.group_spans_nodes(g));
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

/// Incrementally builds a [`ClusterAccounting`] while the SPMD walk runs.
/// All devices are symmetric, so one prototype account is accumulated and
/// replicated per device at [`finish`](AccountingBuilder::finish).
#[derive(Debug)]
pub(crate) struct AccountingBuilder {
    num_devices: usize,
    prototype: DeviceAccount,
    links: Vec<LinkAccount>,
    collectives: Vec<CollectiveAccount>,
    memory_timeline: Vec<ByteSample>,
}

impl AccountingBuilder {
    pub(crate) fn new(cluster: &Cluster) -> Self {
        AccountingBuilder {
            num_devices: cluster.num_devices(),
            prototype: DeviceAccount::default(),
            links: Vec::new(),
            collectives: Vec::new(),
            memory_timeline: Vec::new(),
        }
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
            count: 0,
            wire_bytes: 0.0,
            seconds: 0.0,
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

    fn record_traffic(
        &mut self,
        kind: EventKind,
        class: Option<LinkClass>,
        wire_bytes: f64,
        seconds: f64,
        end_time: f64,
    ) {
        let c = self.collective_slot(kind);
        c.count += 1;
        c.wire_bytes += wire_bytes;
        c.seconds += seconds;
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

    /// One overlapped `(compute ‖ ring)` step on every device.
    pub(crate) fn on_step(
        &mut self,
        compute: f64,
        ring: f64,
        ring_class: Option<LinkClass>,
        ring_wire_bytes: f64,
        end_time: f64,
    ) {
        self.prototype.compute_seconds += compute;
        self.prototype.ring_exposed_seconds += (ring - compute).max(0.0);
        self.prototype.overlap_seconds += compute.min(ring);
        if ring > 0.0 {
            self.record_traffic(EventKind::Ring, ring_class, ring_wire_bytes, ring, end_time);
        }
    }

    /// One end-of-phase collective on every device.
    pub(crate) fn on_collective(
        &mut self,
        seconds: f64,
        class: Option<LinkClass>,
        wire_bytes: f64,
        end_time: f64,
    ) {
        self.prototype.collective_seconds += seconds;
        self.record_traffic(EventKind::AllReduce, class, wire_bytes, seconds, end_time);
    }

    /// One inter-operator redistribution involving every device.
    pub(crate) fn on_redistribution(
        &mut self,
        seconds: f64,
        class: LinkClass,
        wire_bytes: f64,
        end_time: f64,
    ) {
        self.prototype.redistribution_seconds += seconds;
        self.record_traffic(
            EventKind::Redistribution,
            Some(class),
            wire_bytes,
            seconds,
            end_time,
        );
    }

    /// A live-memory change at `time_s`.
    pub(crate) fn on_memory(&mut self, time_s: f64, live_bytes: f64) {
        self.memory_timeline.push(ByteSample {
            time_s,
            bytes: live_bytes,
        });
    }

    pub(crate) fn finish(self, makespan: f64) -> ClusterAccounting {
        let devices = (0..self.num_devices)
            .map(|device| DeviceAccount {
                device,
                ..self.prototype.clone()
            })
            .collect();
        ClusterAccounting {
            makespan,
            devices,
            links: self.links,
            collectives: self.collectives,
            memory_timeline: self.memory_timeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_topology::Cluster;

    #[test]
    fn device_account_sums() {
        let d = DeviceAccount {
            device: 0,
            compute_seconds: 2.0,
            ring_exposed_seconds: 0.5,
            collective_seconds: 1.0,
            redistribution_seconds: 0.25,
            overlap_seconds: 0.75,
            idle_seconds: 0.25,
        };
        assert_eq!(d.busy_seconds(), 3.75);
        assert_eq!(d.accounted_seconds(), 4.0);
    }

    #[test]
    fn validate_flags_leaky_accounting() {
        let mut acct = ClusterAccounting {
            makespan: 4.0,
            devices: vec![DeviceAccount {
                device: 0,
                compute_seconds: 3.0,
                idle_seconds: 1.0,
                ..DeviceAccount::default()
            }],
            ..ClusterAccounting::default()
        };
        assert!(acct.validate().is_ok());
        acct.devices[0].idle_seconds = 0.0;
        assert!(acct.validate().unwrap_err().contains("device 0"));
    }

    #[test]
    fn indicator_class_follows_node_span() {
        // 8 devices, 4 per node: position 1 (the high device bit) separates
        // the two nodes, so grouping over it crosses nodes.
        let cluster = Cluster::v100_like(8);
        assert_eq!(
            indicator_link_class(&cluster, &GroupIndicator::new(vec![1])),
            Some(LinkClass::InterNode)
        );
        assert_eq!(
            indicator_link_class(&cluster, &GroupIndicator::new(vec![3])),
            Some(LinkClass::IntraNode)
        );
        assert_eq!(
            indicator_link_class(&cluster, &GroupIndicator::empty()),
            None
        );
        assert_eq!(redistribution_link_class(&cluster), LinkClass::InterNode);
        assert_eq!(
            redistribution_link_class(&Cluster::v100_like(4)),
            LinkClass::IntraNode
        );
    }

    #[test]
    fn builder_accumulates_and_replicates() {
        let cluster = Cluster::v100_like(4);
        let mut b = AccountingBuilder::new(&cluster);
        b.on_memory(0.0, 10.0);
        b.on_step(2.0, 1.0, Some(LinkClass::IntraNode), 100.0, 2.0);
        b.on_step(1.0, 3.0, Some(LinkClass::IntraNode), 100.0, 5.0);
        b.on_collective(0.5, Some(LinkClass::IntraNode), 50.0, 5.5);
        b.on_redistribution(0.25, LinkClass::IntraNode, 25.0, 5.75);
        let acct = b.finish(5.75);
        assert_eq!(acct.devices.len(), 4);
        let d = &acct.devices[2];
        assert_eq!(d.device, 2);
        assert_eq!(d.compute_seconds, 3.0);
        assert_eq!(d.ring_exposed_seconds, 2.0);
        assert_eq!(d.overlap_seconds, 2.0);
        assert_eq!(d.collective_seconds, 0.5);
        assert_eq!(d.redistribution_seconds, 0.25);
        assert!(acct.validate().is_ok());
        assert_eq!(acct.total_wire_bytes(), 275.0);
        assert_eq!(acct.wire_bytes_of(EventKind::Ring), 200.0);
        let link = &acct.links[0];
        assert_eq!(link.class, LinkClass::IntraNode);
        assert_eq!(link.transfers, 4);
        assert_eq!(link.cumulative.last().unwrap().bytes, 275.0);
        assert!((link.occupancy(5.75) - 4.75 / 5.75).abs() < 1e-12);
        assert_eq!(acct.peak_memory_bytes(), 10.0);
    }
}
