use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use primepar_topology::{
    Cluster, CommProfile, ComputeProfile, GroupIndicator, LinkClass, LinkModel,
};

use crate::hash::WordHash;

/// Shared state for cost evaluation: the cluster model, the latency/memory
/// trade-off coefficient `α` of Eq. 7, and a cache of fitted communication
/// profiles (one per group indicator, mirroring the paper's profiling
/// methodology, §4.1), keyed by the indicator's bit mask.
///
/// The context is `Sync`: the profile cache sits behind an `RwLock` (reads
/// dominate once the handful of group indicators is fitted) and the telemetry
/// counters are atomics, so the planner's worker threads share one context
/// instead of each rebuilding its own fitted-latency cache.
#[derive(Debug)]
pub struct CostCtx<'a> {
    cluster: &'a Cluster,
    alpha: f64,
    profiles: RwLock<HashMap<GroupIndicator, CommProfile, WordHash>>,
    compute: ComputeProfile,
    /// The link redistribution is charged on and the worst per-device link
    /// factor: both fixed by the cluster, so they are picked once here
    /// instead of on every edge-matrix cell.
    redistribution_link: LinkModel,
    worst_link_factor: f64,
    /// Telemetry: Eq. 7 evaluations performed through this context.
    intra_evals: AtomicU64,
    /// Telemetry: Eq. 8-9 pair evaluations performed through this context.
    inter_evals: AtomicU64,
    /// Telemetry: entries of the per-device term rows the edge sweeps built.
    term_row_entries: AtomicU64,
}

impl<'a> CostCtx<'a> {
    /// Creates a context. `alpha` weighs peak memory (bytes) against latency
    /// (seconds) in the intra-operator cost; `0.0` optimizes latency only.
    pub fn new(cluster: &'a Cluster, alpha: f64) -> Self {
        // Redistribution is all-to-all-ish: charge the slowest link class
        // present in the cluster, with per-device traffic in flight.
        let class = if cluster.num_devices() > cluster.devices_per_node() {
            LinkClass::InterNode
        } else {
            LinkClass::IntraNode
        };
        CostCtx {
            cluster,
            alpha,
            profiles: RwLock::new(HashMap::default()),
            compute: ComputeProfile::profile(cluster.device_model()),
            redistribution_link: cluster.link(class),
            worst_link_factor: cluster.worst_link_factor(),
            intra_evals: AtomicU64::new(0),
            inter_evals: AtomicU64::new(0),
            term_row_entries: AtomicU64::new(0),
        }
    }

    /// Number of intra-operator (Eq. 7) cost evaluations charged so far.
    pub fn intra_evaluations(&self) -> u64 {
        self.intra_evals.load(Ordering::Relaxed)
    }

    /// Number of inter-operator (Eqs. 8-9) pair evaluations charged so far —
    /// each cell of an [`edge_cost_matrix`](crate::edge_cost_matrix) counts
    /// as one.
    pub fn inter_evaluations(&self) -> u64 {
        self.inter_evals.load(Ordering::Relaxed)
    }

    pub(crate) fn note_intra_eval(&self) {
        self.intra_evals.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_inter_evals(&self, n: u64) {
        self.inter_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of term-row entries the prepared edge sweeps built so far —
    /// one `(V − total·overlap)⁺` per entry, against `inter_evaluations() ×
    /// devices × 2` terms summed (see
    /// [`PreparedEdge::volumes`](crate::PreparedEdge::volumes)).
    pub fn term_row_entries(&self) -> u64 {
        self.term_row_entries.load(Ordering::Relaxed)
    }

    pub(crate) fn note_term_row_entries(&self, n: u64) {
        self.term_row_entries.fetch_add(n, Ordering::Relaxed);
    }

    /// Predicted kernel latency from the fitted compute profile (§4.1's
    /// linear model of FLOPs and memory access).
    pub fn kernel_time(&self, flops: f64, bytes: f64) -> f64 {
        self.compute.kernel_time(flops, bytes)
    }

    /// The cluster under evaluation.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// The Eq. 7 memory coefficient.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Predicted all-reduce latency of `bytes` under the grouping pattern of
    /// `indicator`, from the cached fitted linear model.
    pub fn allreduce_time(&self, indicator: GroupIndicator, bytes: f64) -> f64 {
        if indicator.is_empty() || bytes <= 0.0 {
            return 0.0;
        }
        self.comm_profile(indicator).allreduce_time(bytes)
    }

    /// Predicted single ring-shift latency of `bytes` under the grouping
    /// pattern of `indicator`.
    pub fn ring_shift_time(&self, indicator: GroupIndicator, bytes: f64) -> f64 {
        if indicator.is_empty() || bytes <= 0.0 {
            return 0.0;
        }
        self.comm_profile(indicator).ring_shift_time(bytes)
    }

    /// Latency of redistributing `total_bytes` of inter-operator traffic
    /// spread across all devices (paper §4.2's linear model of the summed
    /// forward + backward redistribution traffic).
    pub fn redistribution_time(&self, total_bytes: f64) -> f64 {
        if total_bytes <= 0.0 {
            return 0.0;
        }
        let n = self.cluster.num_devices() as f64;
        let per_device = total_bytes / n;
        // All-to-all finishes with its slowest participant: under a fault /
        // variance scenario the worst per-device link factor gates the
        // exchange (the class-wide factor is already in the link model).
        self.redistribution_link.transfer_time(per_device) * self.worst_link_factor
    }

    /// Eq. 10's pricing step over a plane of redistribution volumes: each
    /// cell's bytes `4·(f + b)` become [`redistribution_time`] of them, in
    /// place. The volumes depend on the layouts alone; this is where the
    /// cluster comes in.
    ///
    /// [`redistribution_time`]: CostCtx::redistribution_time
    pub fn price(&self, plane: &mut [f64]) {
        for cell in plane {
            *cell = self.redistribution_time(*cell);
        }
    }

    /// Latency of the same traffic charged the way the simulator executes it:
    /// the forward and backward redistribution halves are two separate
    /// exchanges of `total_bytes / 2` each, so the fixed per-exchange latency
    /// (the alpha term) is paid twice. [`CostCtx::redistribution_time`] — the
    /// model plan search optimizes — charges one combined exchange and thus
    /// one latency term; the gap between the two is exactly the audit's
    /// known redistribution-latency drift (one extra alpha per edge). It is
    /// the reference the audit's conservation and the simulator's
    /// traffic-sharing tests hold the walk's edge seconds to, bit for bit;
    /// no planner path charges it. Those charge
    /// [`CostCtx::redistribution_time`]: the search, so every pinned plan
    /// stays bitwise stable, and replan migration
    /// ([`migration_seconds`](crate::migration_seconds)), because the
    /// simulator moves migration traffic as one exchange.
    pub fn redistribution_time_split(&self, total_bytes: f64) -> f64 {
        if total_bytes <= 0.0 {
            return 0.0;
        }
        2.0 * self.redistribution_time(total_bytes / 2.0)
    }

    /// The fitted communication profile of `indicator`, fitted on first use.
    pub(crate) fn comm_profile(&self, indicator: GroupIndicator) -> CommProfile {
        if let Some(&profile) = self
            .profiles
            .read()
            .expect("profile cache poisoned")
            .get(&indicator)
        {
            return profile;
        }
        // Fit outside the write lock; a racing thread's duplicate fit is
        // discarded by `or_insert` (fits are deterministic, so either wins).
        let fitted = CommProfile::profile(self.cluster, indicator);
        *self
            .profiles
            .write()
            .expect("profile cache poisoned")
            .entry(indicator)
            .or_insert(fitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_topology::Cluster;

    #[test]
    fn profile_cache_is_reused() {
        let cluster = Cluster::v100_like(8);
        let ctx = CostCtx::new(&cluster, 0.5);
        let ind = GroupIndicator::new(vec![1]);
        let a = ctx.allreduce_time(ind, 1e6);
        let b = ctx.allreduce_time(ind, 1e6);
        assert_eq!(a, b);
        assert_eq!(ctx.profiles.read().unwrap().len(), 1);
        assert_eq!(ctx.alpha(), 0.5);
    }

    #[test]
    fn context_is_shareable_across_threads() {
        // The planner hands one &CostCtx to every worker: Sync is load-bearing.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<CostCtx<'_>>();

        let cluster = Cluster::v100_like(8);
        let ctx = CostCtx::new(&cluster, 0.0);
        let ind = GroupIndicator::new(vec![1, 2]);
        let expect = ctx.allreduce_time(ind, 1e6);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    ctx.note_intra_eval();
                    assert_eq!(ctx.allreduce_time(ind, 1e6), expect);
                });
            }
        });
        assert_eq!(ctx.intra_evaluations(), 4);
        assert_eq!(ctx.profiles.read().unwrap().len(), 1);
    }

    #[test]
    fn empty_indicator_is_free() {
        let cluster = Cluster::v100_like(4);
        let ctx = CostCtx::new(&cluster, 0.0);
        assert_eq!(ctx.allreduce_time(GroupIndicator::empty(), 1e9), 0.0);
        assert_eq!(ctx.ring_shift_time(GroupIndicator::empty(), 1e9), 0.0);
    }

    #[test]
    fn redistribution_scales_with_bytes() {
        let cluster = Cluster::v100_like(8);
        let ctx = CostCtx::new(&cluster, 0.0);
        assert_eq!(ctx.redistribution_time(0.0), 0.0);
        assert!(ctx.redistribution_time(2e6) > ctx.redistribution_time(1e6));
        // Single-node cluster uses the fast link.
        let small = Cluster::v100_like(4);
        let ctx_small = CostCtx::new(&small, 0.0);
        assert!(ctx_small.redistribution_time(1e6) < ctx.redistribution_time(1e6));
    }

    #[test]
    fn split_charge_adds_exactly_one_latency_term() {
        let cluster = Cluster::v100_like(8);
        let ctx = CostCtx::new(&cluster, 0.0);
        let bytes = 1e7;
        let single = ctx.redistribution_time(bytes);
        let split = ctx.redistribution_time_split(bytes);
        // Same volume term, one extra fixed latency charge.
        let alpha = cluster
            .link(primepar_topology::LinkClass::InterNode)
            .latency_s;
        assert!(
            (split - single - alpha).abs() < 1e-15,
            "split={split}, single={single}"
        );
        assert_eq!(ctx.redistribution_time_split(0.0), 0.0);
    }

    #[test]
    fn perturbed_cluster_never_cheapens_costs() {
        let cluster = Cluster::v100_like(8);
        let perturbed = cluster.perturbed(&primepar_topology::PerturbationModel::harsh(), 5);
        let base = CostCtx::new(&cluster, 0.0);
        let pert = CostCtx::new(&perturbed, 0.0);
        assert!(pert.redistribution_time(1e7) >= base.redistribution_time(1e7));
        let ind = GroupIndicator::new(vec![1]);
        assert!(pert.allreduce_time(ind, 1e7) >= base.allreduce_time(ind, 1e7));
        assert!(pert.ring_shift_time(ind, 1e6) >= base.ring_shift_time(ind, 1e6));
    }

    #[test]
    fn hoisted_redistribution_charge_is_bitwise_the_per_call_one() {
        // The link and worst factor picked once in `new` must price every
        // volume exactly as picking them per call did, perturbed or not,
        // single-node or not.
        let harsh = primepar_topology::PerturbationModel::harsh();
        for cluster in [
            Cluster::v100_like(4),
            Cluster::v100_like(16),
            Cluster::v100_like(8).perturbed(&harsh, 3),
            Cluster::v100_like(512).perturbed(&harsh, 11),
        ] {
            let ctx = CostCtx::new(&cluster, 0.0);
            let class = if cluster.num_devices() > cluster.devices_per_node() {
                LinkClass::InterNode
            } else {
                LinkClass::IntraNode
            };
            for bytes in [1.0, 3.5e4, 1e7, 2.75e9] {
                let per_device = bytes / cluster.num_devices() as f64;
                let expect =
                    cluster.link(class).transfer_time(per_device) * cluster.worst_link_factor();
                assert_eq!(ctx.redistribution_time(bytes).to_bits(), expect.to_bits());
            }
        }
    }
}
