//! Cross-run warm state for the planner.
//!
//! A [`PlannerWarmCache`] is one [`EdgeCostCache`] kept alive across
//! [`Planner`](crate::Planner) runs: the same layout-keyed cache a cold pass
//! builds for itself and drops. Its sequence lists, side profiles and
//! volume planes are keyed by what their bytes depend on — operators,
//! sequences, device bits — and never by the cluster or `α`,
//! which only the per-run pricing step ([`CostCtx::price`]) reads. So a run
//! on a perturbed cluster of the same size, or under another `α`, reuses
//! every plane an earlier run swept, and a different device count, a
//! beam-restricted space or other space options are different sequence
//! lists and miss. Equal keys name bitwise-equal volumes, so
//! [`Planner::optimize_warm_instrumented`](crate::Planner::optimize_warm_instrumented)
//! stays bitwise-identical to [`Planner::optimize`](crate::Planner::optimize),
//! pinned by `tests/warm_equivalence.rs`.
//!
//! The cache is `Sync`. Runs lock it only to prepare an edge — intern its
//! profiles and plane entry — never across a sweep or a pricing step; a
//! plane sweeps once however many runs wait for it. It holds profiles and
//! planes only: each plane entry owns the four profiles its key names, and
//! a sweep's factor rows live only as long as the sweep, outside the lock.
//! Nothing is evicted.
//!
//! [`CostCtx::price`]: primepar_cost::CostCtx::price

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use primepar_cost::{CacheStats, EdgeCostCache};

/// Point-in-time counters of a [`PlannerWarmCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Swept volume planes held, one per distinct sweep identity.
    pub entries: usize,
    /// Planes warm runs found already swept, summed over runs.
    pub hits: u64,
    /// Planes warm runs found unswept, summed over runs.
    pub misses: u64,
    /// Heap bytes of the held side profiles and swept volume planes
    /// (payloads only).
    pub bytes: u64,
}

/// An edge cache shared between planner invocations.
#[derive(Debug, Default)]
pub struct PlannerWarmCache {
    /// The shared cache; locked per prepare, never across a sweep.
    pub(crate) edges: Mutex<EdgeCostCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlannerWarmCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlannerWarmCache::default()
    }

    /// Adds one run's plane hits and misses to the totals.
    pub(crate) fn note_run(&self, run: &CacheStats) {
        self.hits.fetch_add(run.plane_hits, Ordering::Relaxed);
        self.misses.fetch_add(run.plane_misses, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn stats(&self) -> WarmStats {
        let (entries, bytes) = self.edges.lock().expect("warm cache lock").footprint();
        WarmStats {
            entries,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Planner, PlannerOptions};
    use primepar_graph::ModelConfig;
    use primepar_topology::Cluster;

    #[test]
    fn stats_track_lookups_and_entries() {
        let cache = PlannerWarmCache::new();
        assert_eq!(cache.stats(), WarmStats::default());
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let planner = Planner::new(&cluster, &graph, PlannerOptions::default());
        let (_, cold) = planner.optimize_warm_instrumented(1, &cache);
        let first = cache.stats();
        assert_eq!((first.hits, first.misses), (0, cold.warm_matrix_misses));
        assert_eq!(first.entries as u64, cold.warm_matrix_misses);
        assert!(first.bytes > 0);
        // A repeat run hits every plane and adds nothing.
        let (_, warm) = planner.optimize_warm_instrumented(1, &cache);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (warm.warm_matrix_hits, first.misses));
        assert_eq!((s.entries, s.bytes), (first.entries, first.bytes));
    }
}
