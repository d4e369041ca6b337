use std::error::Error;
use std::fmt;

use crate::perturb::{AppliedPerturbation, PerturbationModel};
use crate::{DeviceId, DeviceSpace};

/// Interconnect class between a pair of devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Same physical device (no transfer).
    Loopback,
    /// Same node, e.g. NVLink.
    IntraNode,
    /// Different nodes, e.g. InfiniBand.
    InterNode,
}

/// Alpha–beta cost model of one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Fixed per-message latency in seconds (the alpha term).
    pub latency_s: f64,
    /// Sustained bandwidth in bytes per second (the beta term's reciprocal).
    pub bandwidth: f64,
}

impl LinkModel {
    /// Time to move `bytes` over this link once.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / self.bandwidth
    }
}

/// Per-device compute/memory performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// Peak floating-point throughput in FLOP/s.
    pub flops: f64,
    /// Device memory bandwidth in bytes per second.
    pub mem_bandwidth: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: f64,
    /// Fixed kernel-launch overhead in seconds.
    pub kernel_overhead_s: f64,
}

impl DeviceModel {
    /// Latency of a kernel performing `flops` floating-point operations over
    /// `bytes` of memory traffic. The paper models computation latency as a
    /// linear function of FLOPs and memory access fitted by profiling (§4.1);
    /// this is that linear function with physically-motivated coefficients.
    pub fn kernel_time(&self, flops: f64, bytes: f64) -> f64 {
        self.kernel_overhead_s + flops / self.flops + bytes / self.mem_bandwidth
    }
}

/// Physical arrangement of the devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Fat-tree-style hierarchy: fast intra-node links, slower shared
    /// inter-node links (the paper's V100 testbed).
    Hierarchical,
    /// 2-D torus (TPU-v4-style, paper §7): uniform neighbor links, ring
    /// communication never crosses a slow shared link.
    Torus,
}

/// Error raised by cluster construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Device count must be a power of two.
    NotPowerOfTwo(usize),
    /// Devices-per-node must divide the device count.
    BadNodeSize { devices: usize, per_node: usize },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NotPowerOfTwo(n) => write!(f, "device count {n} is not a power of two"),
            ClusterError::BadNodeSize { devices, per_node } => {
                write!(
                    f,
                    "devices per node {per_node} does not divide device count {devices}"
                )
            }
        }
    }
}

impl Error for ClusterError {}

/// A homogeneous accelerator cluster: `2^n` devices grouped into nodes, with
/// per-class interconnect models and a per-device performance model.
///
/// The default constructor [`Cluster::v100_like`] mirrors the paper's
/// evaluation platform: 8 nodes × 4 NVIDIA V100-SXM2-32GB, NVLink within a
/// node and InfiniBand across nodes (§6).
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    space: DeviceSpace,
    devices_per_node: usize,
    intra: LinkModel,
    inter: LinkModel,
    device: DeviceModel,
    /// Bottleneck-paced device model: `device` scaled by the scenario's
    /// slowest device (`== device` when unperturbed).
    effective_device: DeviceModel,
    topology: Topology,
    /// The applied fault/variance scenario; `None` on ideal hardware.
    scenario: Option<AppliedPerturbation>,
}

impl Cluster {
    /// Builds a cluster resembling the paper's testbed scaled to
    /// `num_devices` GPUs (4 per node; a smaller count becomes a single node).
    ///
    /// # Panics
    ///
    /// Panics if `num_devices` is not a power of two.
    pub fn v100_like(num_devices: usize) -> Self {
        let per_node = num_devices.min(4);
        Cluster::new(
            num_devices,
            per_node,
            // NVLink 300 GB/s aggregate → ~150 GB/s effective per direction.
            LinkModel {
                latency_s: 5e-6,
                bandwidth: 150e9,
            },
            // "100 GB/s InfiniBand" per node (§6); NIC sharing between
            // concurrent flows is modeled per-call via the `concurrent_flows`
            // argument of the timing functions.
            LinkModel {
                latency_s: 12e-6,
                bandwidth: 100e9,
            },
            DeviceModel {
                // V100 deep-learning throughput (mixed precision) and HBM2.
                flops: 112e12,
                mem_bandwidth: 900e9,
                memory_bytes: 32e9,
                kernel_overhead_s: 8e-6,
            },
            Topology::Hierarchical,
        )
        .expect("v100_like parameters are valid")
    }

    /// Builds a TPU-v4-style torus cluster (paper §7): every neighbor link has
    /// the same bandwidth, so ring communication scales uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices` is not a power of two.
    pub fn torus_like(num_devices: usize) -> Self {
        let link = LinkModel {
            latency_s: 4e-6,
            bandwidth: 100e9,
        };
        Cluster::new(
            num_devices,
            num_devices, // a torus has no node hierarchy
            link,
            link,
            DeviceModel {
                flops: 112e12,
                mem_bandwidth: 900e9,
                memory_bytes: 32e9,
                kernel_overhead_s: 8e-6,
            },
            Topology::Torus,
        )
        .expect("torus_like parameters are valid")
    }

    /// Fully parameterized constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] when `num_devices` is not a power of two or
    /// `devices_per_node` does not divide it.
    pub fn new(
        num_devices: usize,
        devices_per_node: usize,
        intra: LinkModel,
        inter: LinkModel,
        device: DeviceModel,
        topology: Topology,
    ) -> Result<Self, ClusterError> {
        if !num_devices.is_power_of_two() {
            return Err(ClusterError::NotPowerOfTwo(num_devices));
        }
        if devices_per_node == 0 || !num_devices.is_multiple_of(devices_per_node) {
            return Err(ClusterError::BadNodeSize {
                devices: num_devices,
                per_node: devices_per_node,
            });
        }
        Ok(Cluster {
            space: DeviceSpace::for_devices(num_devices),
            devices_per_node,
            intra,
            inter,
            device,
            effective_device: device,
            topology,
            scenario: None,
        })
    }

    /// Derives a cluster with one seeded fault/variance scenario applied (see
    /// [`crate::perturb`]): same topology shape, but the timing functions and
    /// [`Cluster::device_model`] answer as the degraded hardware would.
    ///
    /// Perturbing an already-perturbed cluster replaces the previous scenario
    /// (it does not compose); the scenario is always drawn against the base
    /// hardware models.
    ///
    /// # Panics
    ///
    /// Panics if the model fails [`PerturbationModel::validate`].
    pub fn perturbed(&self, model: &PerturbationModel, seed: u64) -> Cluster {
        self.with_perturbation(AppliedPerturbation::draw(model, seed, self.num_devices()))
    }

    /// Applies an already-drawn (or observed) scenario directly — the entry
    /// point for the elastic replan loop, which receives a concrete
    /// [`AppliedPerturbation`] from monitoring rather than a `(model, seed)`
    /// pair. Replaces any previous scenario; always folds against the base
    /// hardware models.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's device count differs from the cluster's.
    pub fn with_perturbation(&self, applied: AppliedPerturbation) -> Cluster {
        assert_eq!(
            applied.num_devices(),
            self.num_devices(),
            "scenario device count must match the cluster"
        );
        let mut out = self.clone();
        // The SPMD walk is bulk-synchronous: every step waits for the slowest
        // device, so the effective (profiled) device model is the base model
        // paced by the scenario's worst compute factor.
        let f = applied.max_compute_factor();
        out.effective_device = DeviceModel {
            flops: self.device.flops / f,
            mem_bandwidth: self.device.mem_bandwidth / f,
            memory_bytes: self.device.memory_bytes,
            kernel_overhead_s: self.device.kernel_overhead_s * f,
        };
        out.scenario = Some(applied);
        out
    }

    /// The applied fault/variance scenario, if any.
    pub fn perturbation(&self) -> Option<&AppliedPerturbation> {
        self.scenario.as_ref()
    }

    /// The scenario's worst per-device compute slowdown (1 when unperturbed).
    pub fn max_compute_slowdown(&self) -> f64 {
        self.scenario
            .as_ref()
            .map_or(1.0, AppliedPerturbation::max_compute_factor)
    }

    /// Link slowdown factor of `device` under the applied scenario, excluding
    /// the per-class factor (1 when unperturbed).
    pub fn link_factor_of(&self, device: DeviceId) -> f64 {
        self.scenario
            .as_ref()
            .map_or(1.0, |p| p.link_factors[device.index()])
    }

    /// The scenario's worst per-device link slowdown (1 when unperturbed).
    pub fn worst_link_factor(&self) -> f64 {
        self.scenario
            .as_ref()
            .map_or(1.0, AppliedPerturbation::max_link_factor)
    }

    /// The worst per-device link slowdown within `group` (1 when unperturbed
    /// or the group is empty).
    pub fn group_link_factor(&self, group: &[DeviceId]) -> f64 {
        match &self.scenario {
            None => 1.0,
            Some(p) => group
                .iter()
                .map(|d| p.link_factors[d.index()])
                .fold(1.0, f64::max),
        }
    }

    /// The device address space.
    pub fn space(&self) -> DeviceSpace {
        self.space
    }

    /// Total number of devices.
    pub fn num_devices(&self) -> usize {
        self.space.num_devices()
    }

    /// Devices per node.
    pub fn devices_per_node(&self) -> usize {
        self.devices_per_node
    }

    /// The per-device performance model. Under an applied perturbation this
    /// is the *bottleneck-paced* model: every device runs at the slowest
    /// device's pace ([`AppliedPerturbation::slowest_device`]), which is what
    /// a bulk-synchronous schedule observes.
    pub fn device_model(&self) -> &DeviceModel {
        &self.effective_device
    }

    /// The physical topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The node hosting `device`.
    pub fn node_of(&self, device: DeviceId) -> usize {
        device.index() / self.devices_per_node
    }

    /// Interconnect class between two devices.
    pub fn link_class(&self, a: DeviceId, b: DeviceId) -> LinkClass {
        if a == b {
            LinkClass::Loopback
        } else if self.node_of(a) == self.node_of(b) {
            LinkClass::IntraNode
        } else {
            LinkClass::InterNode
        }
    }

    /// The link model for a class; [`LinkClass::Loopback`] is free. Under an
    /// applied perturbation the class-wide degradation factor is folded in
    /// (per-device factors are applied by the group/pair timing functions).
    pub fn link(&self, class: LinkClass) -> LinkModel {
        let base = match class {
            LinkClass::Loopback => {
                return LinkModel {
                    latency_s: 0.0,
                    bandwidth: f64::INFINITY,
                }
            }
            LinkClass::IntraNode => self.intra,
            LinkClass::InterNode => self.inter,
        };
        match &self.scenario {
            None => base,
            Some(p) => {
                let f = match class {
                    LinkClass::IntraNode => p.intra_link_factor,
                    _ => p.inter_link_factor,
                };
                LinkModel {
                    latency_s: base.latency_s * f,
                    bandwidth: base.bandwidth / f,
                }
            }
        }
    }

    /// `true` when the group's devices live on more than one node.
    pub fn group_spans_nodes(&self, group: &[DeviceId]) -> bool {
        group
            .windows(2)
            .any(|w| self.node_of(w[0]) != self.node_of(w[1]))
    }

    /// The slowest link class used within a communication group. On a torus
    /// there is a single uniform class.
    pub fn group_bottleneck(&self, group: &[DeviceId]) -> LinkClass {
        match self.topology {
            Topology::Torus => LinkClass::IntraNode,
            Topology::Hierarchical => {
                if self.group_spans_nodes(group) {
                    LinkClass::InterNode
                } else {
                    LinkClass::IntraNode
                }
            }
        }
    }

    /// Latency of a ring all-reduce of `bytes` within `group`.
    ///
    /// Standard ring all-reduce: `2(g-1)` steps, each moving `bytes/g` over the
    /// bottleneck link. `concurrent_flows` is the number of simultaneous flows
    /// sharing the bottleneck link (e.g. parallel groups all crossing the same
    /// NIC); bandwidth is divided accordingly.
    ///
    /// # Example
    ///
    /// ```
    /// use primepar_topology::{Cluster, DeviceId};
    ///
    /// let c = Cluster::v100_like(8);
    /// let intra_pair = vec![DeviceId(0), DeviceId(1)];
    /// let spanning_pair = vec![DeviceId(0), DeviceId(4)];
    /// // At equal group size, crossing the node boundary is slower.
    /// assert!(c.allreduce_time(1e7, &spanning_pair, 1) > c.allreduce_time(1e7, &intra_pair, 1));
    /// ```
    pub fn allreduce_time(&self, bytes: f64, group: &[DeviceId], concurrent_flows: usize) -> f64 {
        let g = group.len();
        if g <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        let link = self.effective_link(group, concurrent_flows);
        let steps = 2 * (g - 1);
        steps as f64 * link.latency_s + steps as f64 / g as f64 * bytes / link.bandwidth
    }

    /// Latency of one ring point-to-point shift: every member of `group`
    /// sends `bytes` to a neighbor simultaneously.
    pub fn ring_shift_time(&self, bytes: f64, group: &[DeviceId], concurrent_flows: usize) -> f64 {
        if group.len() <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        let link = self.effective_link(group, concurrent_flows);
        link.transfer_time(bytes)
    }

    /// Latency of one point-to-point transfer of `bytes` between two devices.
    pub fn p2p_time(&self, bytes: f64, a: DeviceId, b: DeviceId) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let mut link = self.link(self.link_class(a, b));
        let f = self.link_factor_of(a).max(self.link_factor_of(b));
        if f > 1.0 {
            link.latency_s *= f;
            link.bandwidth /= f;
        }
        link.transfer_time(bytes)
    }

    fn effective_link(&self, group: &[DeviceId], concurrent_flows: usize) -> LinkModel {
        let mut link = self.link(self.group_bottleneck(group));
        if self.group_bottleneck(group) == LinkClass::InterNode {
            link.bandwidth /= concurrent_flows.max(1) as f64;
        }
        // Ring and tree schedules serialize through the group's slowest
        // member: charge the group-worst per-device link factor.
        let f = self.group_link_factor(group);
        if f > 1.0 {
            link.latency_s *= f;
            link.bandwidth /= f;
        }
        link
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_like_layout() {
        let c = Cluster::v100_like(8);
        assert_eq!(c.num_devices(), 8);
        assert_eq!(c.node_of(DeviceId(3)), 0);
        assert_eq!(c.node_of(DeviceId(4)), 1);
        assert_eq!(c.link_class(DeviceId(0), DeviceId(1)), LinkClass::IntraNode);
        assert_eq!(c.link_class(DeviceId(0), DeviceId(4)), LinkClass::InterNode);
        assert_eq!(c.link_class(DeviceId(2), DeviceId(2)), LinkClass::Loopback);
    }

    #[test]
    fn small_cluster_single_node() {
        let c = Cluster::v100_like(2);
        assert_eq!(c.link_class(DeviceId(0), DeviceId(1)), LinkClass::IntraNode);
    }

    #[test]
    fn new_validates_inputs() {
        let lm = LinkModel {
            latency_s: 1e-6,
            bandwidth: 1e9,
        };
        let dm = DeviceModel {
            flops: 1e12,
            mem_bandwidth: 1e11,
            memory_bytes: 1e9,
            kernel_overhead_s: 1e-6,
        };
        assert!(matches!(
            Cluster::new(6, 2, lm, lm, dm, Topology::Hierarchical),
            Err(ClusterError::NotPowerOfTwo(6))
        ));
        assert!(matches!(
            Cluster::new(8, 3, lm, lm, dm, Topology::Hierarchical),
            Err(ClusterError::BadNodeSize { .. })
        ));
    }

    #[test]
    fn allreduce_scales_with_bytes_and_group() {
        let c = Cluster::v100_like(8);
        let intra: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        let t1 = c.allreduce_time(1e6, &intra, 1);
        let t2 = c.allreduce_time(2e6, &intra, 1);
        assert!(t2 > t1);
        // Spanning nodes is slower than staying within one.
        let spanning: Vec<DeviceId> = vec![DeviceId(0), DeviceId(4)];
        let pair_intra: Vec<DeviceId> = vec![DeviceId(0), DeviceId(1)];
        assert!(c.allreduce_time(1e6, &spanning, 1) > c.allreduce_time(1e6, &pair_intra, 1));
    }

    #[test]
    fn allreduce_trivial_cases_are_free() {
        let c = Cluster::v100_like(4);
        assert_eq!(c.allreduce_time(1e6, &[DeviceId(0)], 1), 0.0);
        assert_eq!(c.allreduce_time(0.0, &[DeviceId(0), DeviceId(1)], 1), 0.0);
    }

    #[test]
    fn concurrent_flows_divide_internode_bandwidth() {
        let c = Cluster::v100_like(8);
        let spanning: Vec<DeviceId> = vec![DeviceId(0), DeviceId(4)];
        let t1 = c.allreduce_time(1e7, &spanning, 1);
        let t4 = c.allreduce_time(1e7, &spanning, 4);
        assert!(t4 > 3.0 * t1 && t4 < 4.5 * t1, "t1={t1}, t4={t4}");
        // Intra-node groups are not affected by NIC sharing.
        let intra: Vec<DeviceId> = vec![DeviceId(0), DeviceId(1)];
        assert_eq!(
            c.allreduce_time(1e7, &intra, 1),
            c.allreduce_time(1e7, &intra, 4)
        );
    }

    #[test]
    fn ring_shift_cheaper_than_allreduce() {
        let c = Cluster::v100_like(16);
        let group: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        assert!(c.ring_shift_time(1e6, &group, 1) < c.allreduce_time(1e6, &group, 1));
    }

    #[test]
    fn torus_has_uniform_links() {
        let c = Cluster::torus_like(16);
        let spanning: Vec<DeviceId> = vec![DeviceId(0), DeviceId(12)];
        assert_eq!(c.group_bottleneck(&spanning), LinkClass::IntraNode);
        // No NIC sharing penalty on the torus.
        assert_eq!(
            c.allreduce_time(1e7, &spanning, 1),
            c.allreduce_time(1e7, &spanning, 8)
        );
    }

    #[test]
    fn kernel_time_monotone() {
        let c = Cluster::v100_like(4);
        let d = c.device_model();
        assert!(d.kernel_time(1e12, 1e9) > d.kernel_time(1e9, 1e6));
        assert!(d.kernel_time(0.0, 0.0) >= d.kernel_overhead_s);
    }

    #[test]
    fn perturbed_cluster_is_slower_never_faster() {
        let c = Cluster::v100_like(8);
        let p = c.perturbed(&PerturbationModel::harsh(), 42);
        assert_eq!(p.num_devices(), c.num_devices());
        assert_eq!(p.devices_per_node(), c.devices_per_node());
        assert_eq!(p.topology(), c.topology());
        let group: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        assert!(p.allreduce_time(1e7, &group, 1) >= c.allreduce_time(1e7, &group, 1));
        assert!(p.ring_shift_time(1e6, &group, 1) >= c.ring_shift_time(1e6, &group, 1));
        assert!(
            p.p2p_time(1e6, DeviceId(0), DeviceId(4)) >= c.p2p_time(1e6, DeviceId(0), DeviceId(4))
        );
        assert!(p.device_model().kernel_time(1e12, 1e9) >= c.device_model().kernel_time(1e12, 1e9));
        // Loopback stays free under any scenario.
        assert_eq!(p.p2p_time(1e6, DeviceId(3), DeviceId(3)), 0.0);
    }

    #[test]
    fn perturbed_same_seed_is_bitwise_identical() {
        let c = Cluster::v100_like(8);
        let a = c.perturbed(&PerturbationModel::mild(), 7);
        let b = c.perturbed(&PerturbationModel::mild(), 7);
        assert_eq!(a, b);
        let group: Vec<DeviceId> = vec![DeviceId(0), DeviceId(4)];
        assert_eq!(
            a.allreduce_time(1e7, &group, 2),
            b.allreduce_time(1e7, &group, 2)
        );
    }

    #[test]
    fn with_perturbation_matches_perturbed_and_scales_linearly() {
        let c = Cluster::v100_like(8);
        let applied = AppliedPerturbation::draw(&PerturbationModel::harsh(), 42, 8);
        assert_eq!(
            c.with_perturbation(applied.clone()),
            c.perturbed(&PerturbationModel::harsh(), 42)
        );
        // Scaling the per-device factors by λ scales every timing primitive
        // by exactly λ — the invariant the replan monotonicity proofs use.
        let lambda = 2.0;
        let base = c.with_perturbation(applied.clone());
        let worse = c.with_perturbation(applied.scaled(lambda));
        let group: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        let rel =
            |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        assert!(rel(
            worse.allreduce_time(1e7, &group, 1),
            lambda * base.allreduce_time(1e7, &group, 1)
        ));
        assert!(rel(
            worse.ring_shift_time(1e6, &group, 2),
            lambda * base.ring_shift_time(1e6, &group, 2)
        ));
        assert!(rel(
            worse.p2p_time(1e6, DeviceId(0), DeviceId(4)),
            lambda * base.p2p_time(1e6, DeviceId(0), DeviceId(4))
        ));
        assert!(rel(
            worse.device_model().kernel_time(1e12, 1e9),
            lambda * base.device_model().kernel_time(1e12, 1e9)
        ));
    }

    #[test]
    fn ideal_perturbation_preserves_all_timings() {
        let c = Cluster::v100_like(8);
        let p = c.perturbed(&PerturbationModel::ideal(), 9);
        let group: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        assert_eq!(
            p.allreduce_time(1e7, &group, 1),
            c.allreduce_time(1e7, &group, 1)
        );
        assert_eq!(p.device_model(), c.device_model());
        assert_eq!(p.max_compute_slowdown(), 1.0);
        assert_eq!(p.worst_link_factor(), 1.0);
    }

    #[test]
    fn p2p_time_depends_on_link_class() {
        let c = Cluster::v100_like(8);
        assert!(
            c.p2p_time(1e6, DeviceId(0), DeviceId(4)) > c.p2p_time(1e6, DeviceId(0), DeviceId(1))
        );
        assert_eq!(c.p2p_time(1e6, DeviceId(0), DeviceId(0)), 0.0);
    }
}
