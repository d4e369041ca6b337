//! Cross-request warm state of the planner service.
//!
//! A [`WarmCache`] owns three layers of reuse, coarsest first:
//!
//! 1. **Whole-plan memo** — finished plans keyed by the request's canonical
//!    [fingerprint](crate::PlanRequest::fingerprint), held in a
//!    [`ShardedMap`]: per-shard hashmaps behind a shared-seed hasher
//!    (rout3serv's `ThreadPartitionedMap` idiom), so concurrent tenants
//!    touching different plans never contend on one lock. The map adds
//!    **in-flight coalescing** — N identical concurrent requests plan once
//!    and share the result — and **LRU eviction** under a configurable
//!    memory budget ([`CacheConfig::memory_budget_bytes`]).
//! 2. **Edge-matrix warm cache** — a
//!    [`PlannerWarmCache`] shared by
//!    every planner run. Its side profiles and volume planes are keyed by
//!    layout alone — model shape, device count and space, never the
//!    cluster's links or α — so *similar* requests reuse the expensive
//!    stage-2 DP inputs even on a memo miss: another layer count or α, and
//!    every replan on a perturbed cluster of the same size.
//! 3. **Interned clusters** — one [`Cluster`] handle per device count,
//!    shared by `Arc`.
//!
//! The memo also **persists across restarts**: [`WarmCache::save`] writes a
//! `primepar.cache.v1` JSON artifact and [`WarmCache::load`] rebuilds
//! bitwise-identical entries from it (see [`crate::persist`]).
//!
//! Everything is `Sync` and lock-light: lookups and inserts are short
//! critical sections, with the planning work outside any lock, so a worker
//! pool shares one cache without serializing.

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use primepar_graph::Graph;
use primepar_search::{
    render_plan, replan, MigrationDecision, ModelPlan, Planner, PlannerMetrics, PlannerWarmCache,
    SearchInterrupt, WarmStats,
};
use primepar_sim::{robustness_sweep, simulate_model_with};
use primepar_topology::Cluster;

use crate::api::{
    CacheOutcome, PlanRequest, PlanResponse, ReplanRequest, ReplanResponse, Request, ResolvedPlan,
    Response, SimRequest, SimResponse,
};
use crate::observe::RequestTrace;
use crate::shard::{Outcome, ShardLoad, ShardedMap};
use crate::Error;

/// One memoized plan: everything a repeat request needs.
#[derive(Debug)]
pub struct CachedPlan {
    /// The plan's identity (what [`WarmCache::save`] persists so a restart
    /// can rebuild the entry).
    pub resolved: ResolvedPlan,
    /// The optimized plan.
    pub plan: ModelPlan,
    /// Telemetry of the cold run that produced it (defaulted on entries
    /// restored from a cache artifact — the restart did not plan).
    pub metrics: PlannerMetrics,
    /// Canonical text rendering (the byte-comparison format).
    pub plan_text: String,
}

impl CachedPlan {
    /// Rough resident size of this entry in bytes — the weight the memo's
    /// LRU budget charges. Deterministic for identical plans, so eviction
    /// order is reproducible under a fixed request sequence.
    pub fn approx_bytes(&self) -> u64 {
        let seqs: usize = self
            .plan
            .seqs
            .iter()
            .map(|s| size_of::<usize>() * 4 + s.primitives().len() * 16)
            .sum();
        let metrics = self.metrics.op_names.iter().map(String::len).sum::<usize>()
            + self.metrics.space_sizes.len() * size_of::<usize>()
            + self.metrics.segments.len() * 64
            + self.metrics.thread_busy_seconds.len() * size_of::<f64>();
        (size_of::<CachedPlan>()
            + self.resolved.model.name.len()
            + self.plan_text.len()
            + seqs
            + metrics) as u64
    }
}

fn weigh(entry: &CachedPlan) -> u64 {
    entry.approx_bytes()
}

/// Sizing of a [`WarmCache`]'s whole-plan memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Shard count of the plan memo (rounded up to a power of two).
    pub shards: usize,
    /// Total memory budget of memoized plans in bytes; `0` = unlimited.
    /// The budget is split evenly across shards and enforced LRU-first as a
    /// hard invariant (see [`ShardedMap`]).
    pub memory_budget_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            memory_budget_bytes: 0,
        }
    }
}

/// Point-in-time counters of a [`WarmCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceCacheStats {
    /// Whole-plan memo hits since creation.
    pub plan_hits: u64,
    /// Whole-plan memo misses (planner invocations) since creation.
    pub plan_misses: u64,
    /// Requests that coalesced onto another request's in-flight plan.
    pub plan_coalesced: u64,
    /// Plans evicted to respect the memory budget.
    pub plan_evictions: u64,
    /// Plans currently interned.
    pub plans_interned: usize,
    /// Resident bytes of the plan memo (approximate, the budget's unit).
    pub plan_bytes: u64,
    /// Clusters currently interned.
    pub clusters_interned: usize,
    /// Edge-matrix warm-cache counters.
    pub warm: WarmStats,
    /// Replan requests that decided `Stay`.
    pub replan_stay: u64,
    /// Replan requests that decided `Patch`.
    pub replan_patch: u64,
    /// Replan requests that decided `FullReplan`.
    pub replan_full: u64,
}

/// The cross-request warm state shared by a service's workers.
#[derive(Debug)]
pub struct WarmCache {
    clusters: Mutex<HashMap<usize, Arc<Cluster>>>,
    plans: ShardedMap<CachedPlan>,
    warm: PlannerWarmCache,
    config: CacheConfig,
    // Replan decisions answered, by decision (stay / patch / full).
    replans: [AtomicU64; 3],
}

impl Default for WarmCache {
    fn default() -> Self {
        WarmCache::with_config(CacheConfig::default())
    }
}

impl WarmCache {
    /// An empty cache with the default sizing (16 shards, no budget).
    pub fn new() -> Self {
        WarmCache::default()
    }

    /// An empty cache with explicit sharding/budget.
    pub fn with_config(config: CacheConfig) -> Self {
        WarmCache {
            clusters: Mutex::new(HashMap::new()),
            plans: ShardedMap::with_budget(config.shards, config.memory_budget_bytes, weigh),
            warm: PlannerWarmCache::default(),
            config,
            replans: Default::default(),
        }
    }

    /// The sizing this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The process-wide cache behind [`PlanRequest::run`] and the
    /// `primepar::api` facade.
    pub fn global() -> &'static WarmCache {
        static GLOBAL: OnceLock<WarmCache> = OnceLock::new();
        GLOBAL.get_or_init(WarmCache::new)
    }

    /// The interned cluster handle for `devices` (insert on first use).
    fn cluster(&self, devices: usize) -> Arc<Cluster> {
        self.clusters
            .lock()
            .expect("cluster intern lock")
            .entry(devices)
            .or_insert_with(|| Arc::new(Cluster::v100_like(devices)))
            .clone()
    }

    /// Plans `key` from scratch (the memo-miss path, also used by restarts
    /// to verify restored entries). An `interrupt`, when given, is attached
    /// to the planner — the anytime driver polls it between beam rounds, so
    /// a cancelled request still yields its best-so-far plan.
    fn plan_cold(
        &self,
        resolved: &ResolvedPlan,
        interrupt: Option<&SearchInterrupt>,
    ) -> CachedPlan {
        let cluster = self.cluster(resolved.devices);
        let graph = resolved.model.layer_graph(resolved.batch, resolved.seq);
        let mut planner = Planner::new(&cluster, &graph, resolved.opts);
        if let Some(interrupt) = interrupt {
            planner = planner.with_interrupt(interrupt.clone());
        }
        let (plan, metrics) = planner.optimize_warm_instrumented(resolved.layers, &self.warm);
        CachedPlan {
            resolved: resolved.clone(),
            plan_text: render_plan(&graph, &plan.seqs),
            plan,
            metrics,
        }
    }

    /// The memoized plan for a resolved request: a shard hit, a coalesced
    /// wait on another request's in-flight plan, or a cold planner run.
    fn plan_for(
        &self,
        resolved: &ResolvedPlan,
        interrupt: Option<&SearchInterrupt>,
    ) -> (Arc<CachedPlan>, Outcome) {
        let fingerprint = resolved.fingerprint();
        self.plans
            .get_or_compute(&fingerprint, || self.plan_cold(resolved, interrupt))
    }

    /// Seeds the memo with an already-built entry (the restore path).
    pub(crate) fn adopt(&self, entry: CachedPlan) {
        let fingerprint = entry.resolved.fingerprint();
        self.plans.insert(&fingerprint, Arc::new(entry));
    }

    /// Visits every resident memo entry.
    pub(crate) fn each_plan(&self, f: impl FnMut(&str, &Arc<CachedPlan>)) {
        self.plans.for_each(f);
    }

    /// Executes any request against the cache — the one path the worker
    /// pool runs. Each request is validated before its plan lookup, so a bad
    /// one never plans.
    ///
    /// With a `trace`, the cache lookup becomes a span named by its outcome
    /// (`cache.hit` / `cache.miss` / `cache.coalesced`), a miss adds
    /// `planner.<stage>` child spans synthesized from the cold run's
    /// [`PlannerMetrics`] (recorded after the fact, so tracing cannot
    /// perturb planning), and the simulation or replan decision becomes a
    /// `sim.simulate` / `replan.decide` span. An `interrupt`, when given, is
    /// attached to any cold planner run: the worker pool passes an anytime
    /// workload's stop flag, so the search answers with its best-so-far
    /// plan instead of `cancelled`. Memo hits and coalesced
    /// waits never consult it (there is nothing to stop).
    pub(crate) fn execute(
        &self,
        req: &Request,
        trace: Option<&RequestTrace>,
        interrupt: Option<&SearchInterrupt>,
    ) -> Result<Response, Error> {
        let start = Instant::now();
        Ok(match req {
            Request::Plan(req) => {
                let resolved = req.resolve()?;
                let (cached, outcome) = self.lookup(&resolved, trace, interrupt);
                Response::Plan(Box::new(PlanResponse {
                    id: req.id.clone(),
                    fingerprint: resolved.fingerprint(),
                    model: resolved.model.name.to_string(),
                    devices: resolved.devices,
                    batch: resolved.batch,
                    seq: resolved.seq,
                    layers: resolved.layers,
                    strategy: resolved.opts.strategy,
                    plan: cached.plan.clone(),
                    plan_text: cached.plan_text.clone(),
                    metrics: cached.metrics.clone(),
                    cache: planned_outcome(outcome, &cached.metrics),
                    elapsed: start.elapsed(),
                }))
            }
            Request::Sim(req) => {
                let (resolved, opts, sweep) = req.resolve()?;
                let (cached, outcome) = self.lookup(&resolved, trace, interrupt);
                let (cluster, graph) = self.scene(&resolved);
                let seqs = &cached.plan.seqs;
                let tokens = (resolved.batch * resolved.seq) as f64;
                let report = traced(trace, "sim.simulate", || {
                    simulate_model_with(&cluster, &graph, seqs, resolved.layers, tokens, &opts)
                });
                let robustness =
                    sweep.map(|sweep| robustness_sweep(&cluster, &graph, seqs, &sweep));
                Response::Sim(Box::new(SimResponse {
                    id: req.plan.id.clone(),
                    fingerprint: resolved.fingerprint(),
                    report,
                    robustness,
                    cache: planned_outcome(outcome, &cached.metrics),
                    elapsed: start.elapsed(),
                }))
            }
            Request::Replan(req) => {
                let (resolved, applied, opts) = req.resolve()?;
                let (cached, outcome) = self.lookup(&resolved, trace, interrupt);
                let (cluster, graph) = self.scene(&resolved);
                let decision = traced(trace, "replan.decide", || {
                    let (seqs, layers) = (&cached.plan.seqs, resolved.layers);
                    let warm = Some(&self.warm);
                    replan(&cluster, &graph, seqs, &applied, layers, &opts, warm)
                });
                let slot = match decision.decision {
                    MigrationDecision::Stay => 0,
                    MigrationDecision::Patch => 1,
                    MigrationDecision::FullReplan => 2,
                };
                self.replans[slot].fetch_add(1, Ordering::Relaxed);
                // The warm counters are the decision's own planner run's, not
                // the memoized base plan's.
                let cache = cache_outcome(
                    outcome,
                    (decision.warm_matrix_hits, decision.warm_matrix_misses),
                );
                Response::Replan(Box::new(ReplanResponse {
                    id: req.plan.id.clone(),
                    fingerprint: resolved.fingerprint(),
                    outcome: decision,
                    cache,
                    elapsed: start.elapsed(),
                }))
            }
        })
    }

    /// Executes a plan request against the cache.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanRequest::resolve`] failures; never panics on bad
    /// input.
    pub fn execute_plan(&self, req: &PlanRequest) -> Result<PlanResponse, Error> {
        match self.execute(&Request::Plan(req.clone()), None, None)? {
            Response::Plan(resp) => Ok(*resp),
            _ => unreachable!("a plan request is answered by a plan response"),
        }
    }

    /// Executes a simulation request: plans (or recalls) the workload, then
    /// prices it on the simulator, optionally under a robustness sweep.
    ///
    /// # Errors
    ///
    /// Propagates [`SimRequest::resolve`] failures.
    pub fn execute_sim(&self, req: &SimRequest) -> Result<SimResponse, Error> {
        match self.execute(&Request::Sim(req.clone()), None, None)? {
            Response::Sim(resp) => Ok(*resp),
            _ => unreachable!("a sim request is answered by a sim response"),
        }
    }

    /// Executes a replan request: recalls (or plans) the running workload,
    /// draws the named scenario, and answers the costed
    /// [`MigrationDecision`]. The `FullReplan` candidate's planner run
    /// shares the cache's edge-matrix warm state, so decisions on any
    /// degraded cluster of a planned shape reuse its stage-2 volume planes.
    ///
    /// # Errors
    ///
    /// Propagates [`ReplanRequest::resolve`] failures.
    pub fn execute_replan(&self, req: &ReplanRequest) -> Result<ReplanResponse, Error> {
        match self.execute(&Request::Replan(req.clone()), None, None)? {
            Response::Replan(resp) => Ok(*resp),
            _ => unreachable!("a replan request is answered by a replan response"),
        }
    }

    /// The memoized plan for a validated request, looked up under the
    /// trace's lookup span (see [`record_lookup`]).
    fn lookup(
        &self,
        resolved: &ResolvedPlan,
        trace: Option<&RequestTrace>,
        interrupt: Option<&SearchInterrupt>,
    ) -> (Arc<CachedPlan>, Outcome) {
        let start_us = trace.map(RequestTrace::now_us);
        let (cached, outcome) = self.plan_for(resolved, interrupt);
        if let (Some(trace), Some(start_us)) = (trace, start_us) {
            record_lookup(trace, start_us, outcome, &cached.metrics);
        }
        (cached, outcome)
    }

    /// The interned cluster and the layer graph a resolved request runs on.
    fn scene(&self, resolved: &ResolvedPlan) -> (Arc<Cluster>, Graph) {
        let graph = resolved.model.layer_graph(resolved.batch, resolved.seq);
        (self.cluster(resolved.devices), graph)
    }

    /// Per-shard occupancy of the whole-plan memo, for the live `stats`
    /// snapshot.
    pub fn plan_shard_loads(&self) -> Vec<ShardLoad> {
        self.plans.shard_loads()
    }

    /// Current counters.
    pub fn stats(&self) -> ServiceCacheStats {
        let shard = self.plans.stats();
        ServiceCacheStats {
            plan_hits: shard.hits,
            plan_misses: shard.misses,
            plan_coalesced: shard.coalesced,
            plan_evictions: shard.evictions,
            plans_interned: shard.len,
            plan_bytes: shard.weight,
            clusters_interned: self.clusters.lock().expect("cluster intern lock").len(),
            warm: self.warm.stats(),
            replan_stay: self.replans[0].load(Ordering::Relaxed),
            replan_patch: self.replans[1].load(Ordering::Relaxed),
            replan_full: self.replans[2].load(Ordering::Relaxed),
        }
    }
}

/// What the caches did for one request; `warm` is the `(hits, misses)` of
/// the planner run the request made, if any.
fn cache_outcome(outcome: Outcome, warm: (u64, u64)) -> CacheOutcome {
    CacheOutcome {
        plan_cache_hit: outcome == Outcome::Hit,
        coalesced: outcome == Outcome::Coalesced,
        warm_matrix_hits: warm.0,
        warm_matrix_misses: warm.1,
    }
}

/// [`cache_outcome`] of a plan lookup, whose planner run is the cold run on
/// a memo miss and none on a hit or a coalesced wait.
fn planned_outcome(outcome: Outcome, metrics: &PlannerMetrics) -> CacheOutcome {
    let warm = match outcome {
        Outcome::Miss => (metrics.warm_matrix_hits, metrics.warm_matrix_misses),
        _ => (0, 0),
    };
    cache_outcome(outcome, warm)
}

/// Runs `f`, recorded as a `name` span under the trace's execution span.
fn traced<T>(trace: Option<&RequestTrace>, name: &str, f: impl FnOnce() -> T) -> T {
    let start_us = trace.map(RequestTrace::now_us);
    let out = f();
    if let (Some(trace), Some(start_us)) = (trace, start_us) {
        let dur_us = trace.now_us().saturating_sub(start_us);
        trace.span(trace.exec_span(), name, start_us, dur_us);
    }
    out
}

/// Records the cache-lookup span (named by outcome) under the trace's
/// execution span. A miss ran the planner inside the lookup window, so the
/// already-collected per-stage timings are laid out sequentially as
/// `planner.<stage>` children — the stages genuinely ran back-to-back, and
/// [`RequestTrace::span`] clamps them into the closed lookup span, keeping
/// the tree well-nested.
fn record_lookup(trace: &RequestTrace, start_us: u64, outcome: Outcome, metrics: &PlannerMetrics) {
    let dur_us = trace.now_us().saturating_sub(start_us);
    let name = match outcome {
        Outcome::Hit => "cache.hit",
        Outcome::Miss => "cache.miss",
        Outcome::Coalesced => "cache.coalesced",
    };
    let lookup = trace.span(trace.exec_span(), name, start_us, dur_us);
    if outcome == Outcome::Miss {
        let mut cursor = start_us;
        for (stage, seconds) in metrics.stage_spans() {
            let stage_us = (seconds * 1e6) as u64;
            trace.span(lookup, &format!("planner.{stage}"), cursor, stage_us);
            cursor = cursor.saturating_add(stage_us);
        }
    }
}

#[cfg(test)]
impl WarmCache {
    /// Plans `req` as the leader of its memo flight, running `hold` before
    /// the planner: an identical request that arrives meanwhile coalesces
    /// onto the flight and cannot answer until `hold` returns and the plan
    /// lands. Tests use it to fix which of two requests finishes first.
    pub(crate) fn plan_held(&self, req: &PlanRequest, hold: impl FnOnce()) {
        let resolved = req.resolve().expect("a valid plan request");
        self.plans.get_or_compute(&resolved.fingerprint(), || {
            hold();
            self.plan_cold(&resolved, None)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_sim::{RobustnessOptions, RobustnessReport, SimOptions};

    fn small_request(id: &str) -> PlanRequest {
        PlanRequest::builder("opt-6.7b")
            .id(id)
            .devices(4)
            .batch(8)
            .seq(512)
            .layers(Some(4))
            .build()
    }

    #[test]
    fn repeat_requests_hit_the_plan_memo() {
        let cache = WarmCache::new();
        let cold = cache.execute_plan(&small_request("cold")).expect("plans");
        assert!(!cold.cache.plan_cache_hit);
        assert!(!cold.cache.coalesced);
        assert!(cold.cache.warm_matrix_misses > 0);
        let warm = cache.execute_plan(&small_request("warm")).expect("plans");
        assert!(warm.cache.plan_cache_hit);
        assert_eq!(cache.stats().plan_hits, 1);
        assert_eq!(warm.id, "warm", "id echoes the request, not the memo");
        assert_eq!(warm.plan_text, cold.plan_text);
        assert_eq!(
            warm.plan.total_cost.to_bits(),
            cold.plan.total_cost.to_bits()
        );
        let stats = cache.stats();
        assert_eq!((stats.plan_hits, stats.plan_misses), (1, 1));
        assert_eq!(stats.plans_interned, 1);
        assert_eq!(stats.clusters_interned, 1);
        assert!(stats.plan_bytes > 0, "resident entries weigh something");
    }

    #[test]
    fn memo_miss_with_shared_scope_still_reuses_matrices() {
        let cache = WarmCache::new();
        cache.execute_plan(&small_request("a")).expect("plans");
        // Different layer count → different fingerprint, same layouts.
        let sibling = PlanRequest {
            layers: Some(2),
            ..small_request("b")
        };
        let resp = cache.execute_plan(&sibling).expect("plans");
        assert!(!resp.cache.plan_cache_hit);
        assert!(resp.cache.warm_matrix_hits > 0, "stage-2 inputs reused");
        assert_eq!(resp.cache.warm_matrix_misses, 0);
    }

    #[test]
    fn sim_requests_ride_the_same_memo() {
        let cache = WarmCache::new();
        let sim = SimRequest::of(small_request("s1")).with_sweep("mild", 2, 7);
        let first = cache.execute_sim(&sim).expect("simulates");
        assert!(!first.cache.plan_cache_hit);
        let sweep = first.robustness.as_ref().expect("sweep ran");
        assert_eq!(sweep.outcomes.len(), 2);
        let second = cache.execute_sim(&sim).expect("simulates");
        assert!(second.cache.plan_cache_hit);
        assert!(second.report.iteration_time > 0.0);
    }

    #[test]
    fn sim_responses_carry_the_sweep_beside_the_report() {
        let cache = WarmCache::new();
        // Without a sweep there is no report, and the frame has no key.
        let plain = cache
            .execute_sim(&SimRequest::of(small_request("plain")))
            .expect("simulates");
        assert!(plain.robustness.is_none());
        let frame = crate::protocol::sim_response_json(&plain);
        assert!(frame.get("robustness").is_none());

        // A sweep under recomputation is the direct sweep, bit for bit.
        let mut req = SimRequest::of(small_request("swept")).with_sweep("harsh", 3, 11);
        req.recompute_activations = true;
        let swept = cache.execute_sim(&req).expect("simulates");
        let seqs = cache
            .execute_plan(&small_request("plan"))
            .expect("plans")
            .plan
            .seqs;
        let (cluster, graph) = (
            Cluster::v100_like(4),
            primepar_graph::ModelConfig::opt_6_7b().layer_graph(8, 512),
        );
        let opts = RobustnessOptions {
            model: primepar_topology::PerturbationModel::harsh(),
            scenarios: 3,
            base_seed: 11,
            sim: SimOptions {
                recompute_activations: true,
            },
        };
        let direct = robustness_sweep(&cluster, &graph, &seqs, &opts);
        let served = swept.robustness.as_ref().expect("sweep ran");
        assert_eq!(served, &direct);
        let render = |r: &RobustnessReport| primepar_sim::robustness_json(r).render();
        assert_eq!(render(served), render(&direct));
        let frame = crate::protocol::sim_response_json(&swept);
        assert_eq!(
            frame.get("robustness").map(|j| j.render()),
            Some(render(&direct))
        );
        // The option reached the sweep: recomputation moves the ideal run.
        let without = robustness_sweep(
            &cluster,
            &graph,
            &seqs,
            &RobustnessOptions {
                sim: SimOptions::default(),
                ..opts
            },
        );
        assert_ne!(without.ideal_makespan, direct.ideal_makespan);
    }

    #[test]
    fn errors_pass_through_without_caching() {
        let cache = WarmCache::new();
        let bad = PlanRequest::builder("nope").build();
        assert!(matches!(cache.execute_plan(&bad), Err(Error::Config(_))));
        assert_eq!(cache.stats().plans_interned, 0);
    }

    #[test]
    fn replan_requests_ride_the_memo_and_count_decisions() {
        let cache = WarmCache::new();
        let req = ReplanRequest::of(small_request("r1")).with_scenario("harsh", 5);
        let cold = cache.execute_replan(&req).expect("decides");
        assert!(!cold.cache.plan_cache_hit, "first touch plans the workload");
        // A repeat decision recalls the running plan from the memo and is
        // bit-identical.
        let warm = cache.execute_replan(&req).expect("decides");
        assert!(warm.cache.plan_cache_hit);
        assert_eq!(warm.outcome.decision, cold.outcome.decision);
        assert_eq!(
            warm.outcome.migration_bytes.to_bits(),
            cold.outcome.migration_bytes.to_bits()
        );
        let stats = cache.stats();
        assert_eq!(
            stats.replan_stay + stats.replan_patch + stats.replan_full,
            2,
            "{stats:?}"
        );
        // The ideal profile draws a no-op scenario: always Stay.
        let idle = cache
            .execute_replan(&ReplanRequest::of(small_request("r2")).with_scenario("ideal", 1))
            .expect("decides");
        assert_eq!(idle.outcome.decision, MigrationDecision::Stay);
        assert_eq!(cache.stats().replan_stay, stats.replan_stay + 1);
    }

    #[test]
    fn replan_frames_report_their_own_warm_counters() {
        // Each decision reports its own planner run's warm counters, not the
        // memoized base plan's. The base plan fills the warm cache with the
        // shape's volume planes; every decision on a perturbed cluster of
        // the same size then reads them all, whatever its seed.
        let cache = WarmCache::new();
        for (id, seed, base_planned) in [("r1", 5, true), ("r2", 6, false)] {
            let req = ReplanRequest::of(small_request(id)).with_scenario("harsh", seed);
            let resp = cache.execute_replan(&req).expect("decides");
            assert_eq!(resp.cache.plan_cache_hit, !base_planned, "{id}");
            let own = (
                resp.outcome.warm_matrix_hits,
                resp.outcome.warm_matrix_misses,
            );
            assert_eq!(
                (resp.cache.warm_matrix_hits, resp.cache.warm_matrix_misses),
                own,
                "{id}"
            );
            assert!(own.0 > 0 && own.1 == 0, "{id}: {own:?}");
        }
    }

    #[test]
    fn tiny_budget_evicts_lru_and_recomputes_identically() {
        // Budget below two entries (one shard, so the split is the budget):
        // the second distinct plan evicts the first.
        let cache = WarmCache::with_config(CacheConfig {
            shards: 1,
            memory_budget_bytes: 3000,
        });
        let first = cache.execute_plan(&small_request("a")).expect("plans");
        let sibling = PlanRequest {
            layers: Some(2),
            ..small_request("b")
        };
        cache.execute_plan(&sibling).expect("plans");
        let stats = cache.stats();
        assert!(
            stats.plan_bytes <= 3000,
            "budget is a hard invariant, got {} bytes",
            stats.plan_bytes
        );
        assert!(stats.plan_evictions > 0, "{stats:?}");
        // The evicted entry replans — and bitwise-identically.
        let again = cache.execute_plan(&small_request("a2")).expect("plans");
        assert!(!again.cache.plan_cache_hit, "entry was evicted");
        assert_eq!(again.plan_text, first.plan_text);
        assert_eq!(
            again.plan.total_cost.to_bits(),
            first.plan.total_cost.to_bits()
        );
    }
}
