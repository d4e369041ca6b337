//! Segmented dynamic programming (paper §5).
//!
//! The optimizer computes, for each Fig. 6 segment, the optimal-substructure
//! table `C_{s,e}(p_s, p_e)` by the Bellman iteration of Eqs. 11–12, merges
//! segments per Eq. 13 (adding cross-segment edges such as `e_{0,7}` and
//! subtracting the shared node), and finally composes `log₂(#layers)` min-plus
//! doublings across the stacked identical layers per Eq. 14.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use primepar_cost::{
    intra_cost, matrix_job_ids, CacheStats, CostCtx, EdgeCostCache, ListedSpace, PreparedEdge,
};
use primepar_graph::Graph;
use primepar_partition::PartitionSeq;
use primepar_topology::Cluster;

use crate::arena::EdgeTables;
use crate::prune::{dominance_prune, prune_keys};
use crate::strategy::{self, SearchInterrupt, SearchStrategy};
use crate::{
    minplus, operator_space, PlannerMetrics, PlannerWarmCache, SegmentMetrics, SpaceOptions,
};

/// Per-node partition spaces, shared by `Arc` between structurally equal nodes.
type SharedSpaces = Vec<Arc<Vec<PartitionSeq>>>;
/// Per-node per-state vectors (intra cost, memory), shared the same way.
type SharedVecs = Vec<Arc<Vec<f64>>>;

/// Upper bound on the relative optimality gap from an intra-only lower
/// bound: `lb ≤ exact ≤ best` gives `(best − exact)/best ≤ (best − lb)/best`,
/// clamped into `[0, 1]` (degenerate bounds report the vacuous `1.0`).
fn gap_upper_bound(best_total: f64, lower_bound: f64) -> f64 {
    if !best_total.is_finite() || best_total <= 0.0 || !lower_bound.is_finite() {
        return 1.0;
    }
    ((best_total - lower_bound) / best_total).clamp(0.0, 1.0)
}

/// Planner configuration.
///
/// Construct with [`PlannerOptions::default`] (or
/// [`PlannerOptions::new`]) and the `with_*` setters — the struct is
/// `#[non_exhaustive]`, so knobs added by later versions don't break
/// callers:
///
/// ```
/// use primepar_search::{PlannerOptions, SearchStrategy};
///
/// let opts = PlannerOptions::new()
///     .with_threads(4)
///     .with_strategy(SearchStrategy::Beam { width: 64 });
/// assert_eq!(opts.threads, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct PlannerOptions {
    /// The per-operator space to search.
    pub space: SpaceOptions,
    /// Eq. 7's latency/memory trade-off coefficient `α`.
    pub alpha: f64,
    /// Worker threads for the edge-cost matrices and Bellman sweeps — the
    /// parallelism §5.3 observes is available in Eqs. 11–14. `0` (default)
    /// runs single-threaded, matching the paper's Table 2 measurement setup.
    pub threads: usize,
    /// How the partition spaces are explored: the provably optimal
    /// [`SearchStrategy::Exact`] sweep (default), a per-node
    /// [`SearchStrategy::Beam`], or the width-doubling
    /// [`SearchStrategy::Anytime`] driver (see `strategy.rs`). A beam wide
    /// enough to cover every interior space runs the byte-for-byte exact
    /// pipeline, pinned by `tests/strategy_equivalence.rs`.
    pub strategy: SearchStrategy,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            space: SpaceOptions::default(),
            alpha: 0.0,
            threads: 0,
            strategy: SearchStrategy::Exact,
        }
    }
}

impl PlannerOptions {
    /// The default configuration: full space, `α = 0`, single-threaded,
    /// exact.
    pub fn new() -> Self {
        PlannerOptions::default()
    }

    /// Replaces the per-operator space options.
    #[must_use]
    pub fn with_space(mut self, space: SpaceOptions) -> Self {
        self.space = space;
        self
    }

    /// Replaces Eq. 7's latency/memory coefficient `α`.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Replaces the worker thread count (`0` = single-threaded).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the search strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// An optimized model plan.
#[derive(Debug, Clone)]
pub struct ModelPlan {
    /// Per-operator partition sequences of the representative (steady-state)
    /// layer, indexed like `graph.ops`.
    pub seqs: Vec<PartitionSeq>,
    /// Marginal cost of one steady-state layer (the boundary node counted
    /// once), in Eq. 7 units.
    pub layer_cost: f64,
    /// Exact total cost of all stacked layers from the min-plus composition.
    pub total_cost: f64,
    /// Wall-clock time spent searching (the paper's Table 2 metric).
    pub search_time: Duration,
}

/// A `|rows| × |cols|` cost table between two operators' partition states.
#[derive(Debug, Clone)]
struct Table {
    rows: usize,
    cols: usize,
    cost: Vec<f64>,
    /// How [`extract`] recovers the interior states behind a cell.
    step: BacktrackStep,
}

/// How [`extract`] resolves a table's interior states for one endpoint
/// pair. Neither step stores a choice: the backtrack recomputes each argmin
/// it needs, in the compose stage.
#[derive(Debug, Clone)]
enum BacktrackStep {
    /// The Bellman sweep of segment `(s, e)` (Eqs. 11–12): [`Sweep::resweep`]
    /// re-sweeps the chosen start row alone, which reproduces that row of
    /// every step, argmins included, bit for bit.
    Segment { s: usize, e: usize },
    /// Merge of two tables at node `mid` (Eq. 13), kept as its inputs:
    /// [`minplus::merge_argmin`] rescans one cell's mid states over them.
    Merge {
        mid: usize,
        left: Box<Table>,
        right: Box<Table>,
    },
}

/// What every stage after stage 1 reads: each operator's partition space
/// with its per-state Eq. 7 intra-cost and memory vectors, the structural
/// signature ids that key stage 2's matrix jobs and the prune, and the
/// Fig. 6 segments with their endpoints. Stage 1 builds it once per
/// `optimize` call; the beam and the dominance prune narrow it with
/// [`restrict`](PassState::restrict). A clone shares every vector by `Arc`.
#[derive(Debug, Clone)]
pub(crate) struct PassState {
    pub(crate) spaces: SharedSpaces,
    pub(crate) intra: SharedVecs,
    pub(crate) mem: SharedVecs,
    pub(crate) sig_ids: Vec<usize>,
    pub(crate) segments: Vec<(usize, usize)>,
    /// Whether each node is a segment endpoint. Endpoints are never beamed
    /// or pruned: merges (Eq. 13) and layer joins (Eq. 14) subtract their
    /// intra cost, and the stackability test compares their spaces.
    pub(crate) endpoint: Vec<bool>,
}

impl PassState {
    /// Each node's state count.
    fn sizes(&self) -> Vec<usize> {
        self.spaces.iter().map(|s| s.len()).collect()
    }

    /// The nodes that are not segment endpoints.
    fn interior(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.spaces.len()).filter(|&n| !self.endpoint[n])
    }

    /// Intra-only lower bound on the exact optimum over these spaces: each
    /// interior operator contributes its cheapest Eq. 7 cost in every
    /// stacked layer, and every other cost term (boundary intra, Eqs. 8–9
    /// edge costs) is nonnegative. On stage 1's state it bounds the exact
    /// plan, not just a beam's restricted one, so the reported gap bounds
    /// the true gap.
    fn lower_bound(&self, layers: u64) -> f64 {
        layers.max(1) as f64
            * self
                .interior()
                .map(|n| self.intra[n].iter().copied().fold(f64::INFINITY, f64::min))
                .sum::<f64>()
    }

    /// The widest interior space: a beam at least this wide is exact.
    fn max_interior(&self) -> usize {
        self.interior()
            .map(|n| self.spaces[n].len())
            .max()
            .unwrap_or(0)
    }

    /// Narrows every node with `Some(kept)` to those states (ascending ids
    /// into its current space), gathering its space, intra and memory
    /// vectors; `None` nodes keep their shared vectors. Equal-signature
    /// nodes may keep different subsets, so each distinct (signature id,
    /// kept set) class of restricted nodes gets a fresh id above the
    /// current maximum: matrix job ids and prune keys then identify only
    /// nodes whose signature and kept set agree. Equal signature ids carry
    /// equal vectors, so a class gathers once and its nodes share the
    /// result. Returns the states dropped.
    fn restrict(&mut self, kept: &[Option<Vec<u32>>]) -> u64 {
        fn gather<T: Clone>(v: &[T], kept: &[u32]) -> Arc<Vec<T>> {
            Arc::new(kept.iter().map(|&i| v[i as usize].clone()).collect())
        }
        let fresh = self.sig_ids.iter().max().map_or(0, |m| m + 1);
        let mut classes: Vec<((usize, &Vec<u32>), usize)> = Vec::new();
        let mut dropped = 0;
        for (n, k) in kept.iter().enumerate() {
            let Some(k) = k else { continue };
            dropped += (self.spaces[n].len() - k.len()) as u64;
            let key = (self.sig_ids[n], k);
            let class = match classes.iter().position(|c| c.0 == key) {
                Some(class) => {
                    let first = classes[class].1;
                    self.spaces[n] = self.spaces[first].clone();
                    self.intra[n] = self.intra[first].clone();
                    self.mem[n] = self.mem[first].clone();
                    class
                }
                None => {
                    self.spaces[n] = gather(self.spaces[n].as_slice(), k);
                    self.intra[n] = gather(self.intra[n].as_slice(), k);
                    self.mem[n] = gather(self.mem[n].as_slice(), k);
                    classes.push((key, n));
                    classes.len() - 1
                }
            };
            self.sig_ids[n] = fresh + class;
        }
        dropped
    }
}

/// The segmented-DP planner for one transformer layer graph stacked
/// `layers` times.
#[derive(Debug)]
pub struct Planner<'a> {
    cluster: &'a Cluster,
    graph: &'a Graph,
    opts: PlannerOptions,
    interrupt: Option<SearchInterrupt>,
}

impl<'a> Planner<'a> {
    /// Creates a planner over `cluster` for the layer `graph`.
    pub fn new(cluster: &'a Cluster, graph: &'a Graph, opts: PlannerOptions) -> Self {
        Planner {
            cluster,
            graph,
            opts,
            interrupt: None,
        }
    }

    /// Attaches a stop flag the [`SearchStrategy::Anytime`] driver polls
    /// between beam rounds: once set, the search stops widening and returns
    /// the best plan found so far. Exact and fixed-width beam runs ignore
    /// it — their single pass is not interruptible.
    pub fn with_interrupt(mut self, interrupt: SearchInterrupt) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// Runs the optimization for `layers` stacked layers.
    ///
    /// # Panics
    ///
    /// Panics if any operator's partition space is empty for this cluster
    /// size (an operator too small to split that far).
    pub fn optimize(&self, layers: u64) -> ModelPlan {
        self.optimize_instrumented(layers).0
    }

    /// [`optimize`](Planner::optimize), additionally reporting what the DP
    /// did as a [`PlannerMetrics`]: space sizes, per-segment sweep timings
    /// and table dimensions, cost-model evaluation counts, stage wall times
    /// and worker utilization.
    ///
    /// # Panics
    ///
    /// Panics if any operator's partition space is empty for this cluster
    /// size (an operator too small to split that far).
    pub fn optimize_instrumented(&self, layers: u64) -> (ModelPlan, PlannerMetrics) {
        self.optimize_inner(layers, None)
    }

    /// [`optimize_instrumented`](Planner::optimize_instrumented) against a
    /// cross-run [`PlannerWarmCache`]: side profiles and volume planes an
    /// earlier run interned under the same layout are reused instead of
    /// rebuilt, whatever that run's cluster and `α`, and fresh ones are
    /// interned for later runs. Plans are bitwise-identical to the cold path
    /// (equal layouts imply equal volumes, and each run prices them on its
    /// own cluster). The metrics include the warm-cache hit/miss counters
    /// of this run.
    ///
    /// # Panics
    ///
    /// Panics if any operator's partition space is empty for this cluster
    /// size (an operator too small to split that far).
    pub fn optimize_warm_instrumented(
        &self,
        layers: u64,
        warm: &PlannerWarmCache,
    ) -> (ModelPlan, PlannerMetrics) {
        self.optimize_inner(layers, Some(warm))
    }

    fn optimize_inner(
        &self,
        layers: u64,
        warm: Option<&PlannerWarmCache>,
    ) -> (ModelPlan, PlannerMetrics) {
        let start = Instant::now();
        let threads_used = self.opts.threads.max(1);
        let mut tm = PlannerMetrics {
            strategy: self.opts.strategy.to_string(),
            threads_requested: self.opts.threads,
            threads_used,
            thread_busy_seconds: vec![0.0; threads_used],
            ..PlannerMetrics::default()
        };
        let ctx = CostCtx::new(self.cluster, self.opts.alpha);
        let full = self.spaces(&ctx, &mut tm);
        let max_interior = full.max_interior();
        // A beam is one round at its width. The anytime driver doubles the
        // width from 1 until a round covers every interior space (which is
        // exact), the budget runs out or the interrupt fires.
        let (mut width, budget) = match self.opts.strategy {
            SearchStrategy::Exact => (usize::MAX, None),
            SearchStrategy::Beam { width } => (width.max(1), None),
            SearchStrategy::Anytime { budget_ms } => (1, Some(Duration::from_millis(budget_ms))),
        };
        let mut best: Option<ModelPlan> = None;
        loop {
            let plan = self.pass(full.clone(), &ctx, layers, warm, width, &mut tm);
            // Strict improvement only: a wider round that merely ties keeps
            // the earlier plan, so the winner is a deterministic function of
            // the completed rounds.
            if best.as_ref().is_none_or(|b| plan.total_cost < b.total_cost) {
                best = Some(plan);
            }
            let Some(budget) = budget else { break };
            tm.anytime_rounds += 1;
            tm.anytime_converged = width >= max_interior;
            let interrupted = self
                .interrupt
                .as_ref()
                .is_some_and(SearchInterrupt::is_interrupted);
            if tm.anytime_converged || interrupted || start.elapsed() >= budget {
                break;
            }
            width = width.saturating_mul(2);
        }
        let mut plan = best.expect("at least one round");
        if self.opts.strategy != SearchStrategy::Exact {
            tm.beam_width = width;
        }
        tm.optimality_gap = if width >= max_interior {
            0.0
        } else {
            gap_upper_bound(plan.total_cost, full.lower_bound(layers))
        };
        tm.peak_rss_bytes = primepar_obs::peak_rss_bytes();
        tm.total_seconds = start.elapsed().as_secs_f64();
        plan.search_time = start.elapsed();
        (plan, tm)
    }

    /// Stages 1b–6 over a copy of stage 1's state under an optional
    /// per-node beam: beam, edges, prune, solve. `beam_width == usize::MAX`
    /// runs the unrestricted exact pipeline. The anytime driver runs one
    /// pass per round; see [`PlannerMetrics`] for which fields add up over
    /// rounds and which describe the last one.
    fn pass(
        &self,
        mut state: PassState,
        ctx: &CostCtx<'_>,
        layers: u64,
        warm: Option<&PlannerWarmCache>,
        beam_width: usize,
        tm: &mut PlannerMetrics,
    ) -> ModelPlan {
        // One edge cache serves the whole pass — the warm one, or one of the
        // pass's own: the beam's anchored probes intern the probed nodes'
        // *full-space* side profiles, and stage 2 reuses them verbatim for
        // every node the beam left untouched (endpoints above all) instead
        // of rebuilding the most expensive profiles.
        let own = Mutex::new(EdgeCostCache::new());
        let mut stats = CacheStats::default();
        let cache = warm.map_or(&own, |w| &w.edges);
        self.beam(&mut state, ctx, cache, &mut stats, beam_width, tm);
        let (edge_tables, edge_jobs) = self.edges(&state, ctx, own, warm, stats, tm);
        let (edge_tables, seg_pruned) = self.prune(&mut state, edge_tables, &edge_jobs, tm);
        self.solve(&state, &edge_tables, &seg_pruned, layers, tm)
    }

    /// Stage 1: per-operator spaces plus per-state intra-cost and memory
    /// vectors (both unzipped from the *same* Eq. 7 evaluation): one
    /// enumeration and one vector pair per unique structural signature,
    /// shared by every node carrying it. Runs once per `optimize` call.
    fn spaces(&self, ctx: &CostCtx<'_>, tm: &mut PlannerMetrics) -> PassState {
        let n_bits = self.cluster.space().n_bits();
        let sig_ids = self.graph.signature_ids();
        tm.unique_signatures = sig_ids.iter().max().map_or(0, |m| m + 1);
        let t0 = Instant::now();
        // Enumerate and price each signature once, at its first node.
        let enumerate = |op: &primepar_graph::Operator| {
            let space = operator_space(op, n_bits, &self.opts.space);
            assert!(!space.is_empty(), "empty partition space for {}", op.name);
            let (cost, mem): (Vec<f64>, Vec<f64>) = space
                .iter()
                .map(|q| {
                    let ic = intra_cost(ctx, op, q);
                    (ic.cost, ic.memory_bytes)
                })
                .unzip();
            (Arc::new(space), Arc::new(cost), Arc::new(mem))
        };
        type Entry = (Arc<Vec<PartitionSeq>>, Arc<Vec<f64>>, Arc<Vec<f64>>);
        let mut by_sig: Vec<Option<Entry>> = vec![None; tm.unique_signatures];
        let mut spaces: SharedSpaces = Vec::with_capacity(self.graph.ops.len());
        let mut intra: SharedVecs = Vec::with_capacity(self.graph.ops.len());
        let mut mem: SharedVecs = Vec::with_capacity(self.graph.ops.len());
        for (op, &sig) in self.graph.ops.iter().zip(&sig_ids) {
            let (s, c, m) = by_sig[sig].get_or_insert_with(|| enumerate(op)).clone();
            spaces.push(s);
            intra.push(c);
            mem.push(m);
        }
        tm.op_names = self.graph.ops.iter().map(|op| op.name.clone()).collect();
        tm.space_sizes = spaces.iter().map(|s| s.len()).collect();
        tm.intra_evaluations = ctx.intra_evaluations();
        tm.spaces_intra_seconds = t0.elapsed().as_secs_f64();

        let segments = self.graph.segments();
        let mut endpoint = vec![false; spaces.len()];
        for &(s, e) in &segments {
            endpoint[s] = true;
            endpoint[e] = true;
        }
        PassState {
            spaces,
            intra,
            mem,
            sig_ids,
            segments,
            endpoint,
        }
    }

    /// Stage 1b, the beam (strategy layer): interior nodes wider than the
    /// beam keep only their `width` best states by the anchored probe
    /// heuristic — *before* the stage-2 matrices are built on them, so both
    /// the O(P²) matrix volume and the O(P³) sweeps shrink. Nodes already
    /// inside the beam are untouched, so a wide-enough beam leaves this
    /// stage a literal no-op and the pass stays bitwise-exact (pinned by
    /// `tests/strategy_equivalence.rs`).
    fn beam(
        &self,
        state: &mut PassState,
        ctx: &CostCtx<'_>,
        cache: &Mutex<EdgeCostCache>,
        stats: &mut CacheStats,
        width: usize,
        tm: &mut PlannerMetrics,
    ) {
        let tb = Instant::now();
        if width != usize::MAX {
            let kept = strategy::beam_kept(self.graph, ctx, cache, stats, state, width);
            tm.states_beamed = state.restrict(&kept);
        }
        tm.beam_seconds += tb.elapsed().as_secs_f64();
    }

    /// Stage 2: edge-cost matrices, summed per (src, dst) pair into the
    /// flat columnar arena. Whole matrices dedup by the precomputed
    /// interned job ids (structural keys over the state's signature ids)
    /// *before* any parallelism — so cache telemetry is
    /// thread-count-invariant — then jobs whose prepared edges share a
    /// volume plane (the same four profiles at the same element count)
    /// share its sweep, and each unswept plane sweeps once against the one
    /// shared `Sync` context. Returns the tables and each edge's job id.
    fn edges(
        &self,
        state: &PassState,
        ctx: &CostCtx<'_>,
        own: Mutex<EdgeCostCache>,
        warm: Option<&PlannerWarmCache>,
        mut stats: CacheStats,
        tm: &mut PlannerMetrics,
    ) -> (EdgeTables, Vec<usize>) {
        let t1 = Instant::now();
        let cache = warm.map_or(&own, |w| &w.edges);
        let edge_jobs = matrix_job_ids(&self.graph.edges, &state.sig_ids);
        // Each distinct node space is listed once: nodes of one signature
        // share their space's `Arc`, which outlives this call.
        let lists: Vec<ListedSpace<'_>> = {
            let mut cache = cache.lock().expect("edge cache lock");
            let mut lists: Vec<ListedSpace<'_>> = Vec::with_capacity(state.spaces.len());
            for (n, space) in state.spaces.iter().enumerate() {
                let same = state.spaces[..n].iter().position(|s| Arc::ptr_eq(s, space));
                lists.push(same.map_or_else(|| cache.list(space), |m| lists[m]));
            }
            lists
        };
        // One prepared edge per distinct plane, and each job's plane.
        let mut sweeps: Vec<PreparedEdge> = Vec::new();
        let mut job_planes: Vec<usize> = Vec::new();
        for (edge, &job) in self.graph.edges.iter().zip(&edge_jobs) {
            if job < job_planes.len() {
                tm.edge_matrix_cache_hits += 1;
                continue;
            }
            tm.edge_matrix_cache_misses += 1;
            let prepared = cache.lock().expect("edge cache lock").prepare(
                &mut stats,
                edge,
                &self.graph.ops[edge.src],
                &self.graph.ops[edge.dst],
                lists[edge.src],
                lists[edge.dst],
            );
            let plane = match sweeps.iter().position(|s| s.shares_plane(&prepared)) {
                Some(plane) => plane,
                None => {
                    sweeps.push(prepared);
                    sweeps.len() - 1
                }
            };
            job_planes.push(plane);
        }
        tm.edge_matrix_aliases += (job_planes.len() - sweeps.len()) as u64;
        tm.edge_prepare_seconds += t1.elapsed().as_secs_f64();
        // Planes an earlier run swept are read as they are; only the rest
        // sweep. With no warm cache every plane is pending and this is the
        // full sweep.
        let pending: Vec<&PreparedEdge> = sweeps.iter().filter(|s| !s.is_swept()).collect();
        if self.opts.threads > 1 {
            let threads = self.opts.threads;
            std::thread::scope(|scope| {
                let chunk = pending.len().div_ceil(threads).max(1);
                let handles: Vec<_> = pending
                    .chunks(chunk)
                    .map(|band| {
                        scope.spawn(move || {
                            let busy = Instant::now();
                            for job in band {
                                job.plane(ctx);
                            }
                            busy.elapsed().as_secs_f64()
                        })
                    })
                    .collect();
                for (slot, handle) in handles.into_iter().enumerate() {
                    tm.thread_busy_seconds[slot] += handle.join().expect("edge-matrix worker");
                }
            });
        } else {
            let sweep = Instant::now();
            for job in &pending {
                job.plane(ctx);
            }
            tm.thread_busy_seconds[0] += sweep.elapsed().as_secs_f64();
        }
        tm.profile_cache_hits += stats.profile_hits;
        tm.profile_cache_misses += stats.profile_misses;
        if let Some(w) = warm {
            tm.warm_matrix_hits += stats.plane_hits;
            tm.warm_matrix_misses += stats.plane_misses;
            w.note_run(&stats);
        }
        // The pricing step: the tables take the planes over priced, one per
        // distinct plane. The pass's own cache goes first, so each plane is
        // priced in place; a warm cache keeps its volumes and the pass
        // prices copies. The prepared edges and their profiles are done
        // with before prune and the DP allocate.
        drop(own);
        let planes: Vec<Arc<Vec<f64>>> = sweeps
            .into_iter()
            .map(|job| Arc::new(job.into_priced(ctx)))
            .collect();
        let edge_planes: Vec<usize> = edge_jobs.iter().map(|&j| job_planes[j]).collect();
        let edge_tables =
            EdgeTables::build(&self.graph.edges, &state.sizes(), &edge_planes, planes);
        // The context has counted every Eqs. 8–9 cell of this call — each
        // round's probes and sweeps — so these add up over anytime rounds.
        let devices = 1u64 << self.cluster.space().n_bits();
        tm.edge_evaluations = ctx.inter_evaluations();
        tm.edge_terms = ctx.inter_evaluations() * 2 * devices;
        tm.edge_term_row_entries = ctx.term_row_entries();
        tm.edge_matrices_seconds += t1.elapsed().as_secs_f64();
        (edge_tables, edge_jobs)
    }

    /// Stage 2b, dominance pruning: drop interior states an earlier state
    /// dominates on (intra, memory, every incident edge row/column), then
    /// restrict the state and compact the edge planes to the survivors. A
    /// dominated state can never be a strict argmin, so the plan and every
    /// cost are bitwise-unchanged. Returns the compacted tables and the
    /// states pruned inside each segment.
    fn prune(
        &self,
        state: &mut PassState,
        edge_tables: EdgeTables,
        edge_jobs: &[usize],
        tm: &mut PlannerMetrics,
    ) -> (EdgeTables, Vec<u64>) {
        let tp = Instant::now();
        // Structural prune keys: nodes with equal keys share one survivor
        // scan.
        let keys = prune_keys(&self.graph.edges, edge_jobs, &state.sig_ids);
        let report = dominance_prune(
            &state.endpoint,
            &state.intra,
            &state.mem,
            &edge_tables,
            &keys,
        );
        let seg_pruned: Vec<u64> = state
            .segments
            .iter()
            .map(|&(s, e)| report.pruned_in_segment(s, e))
            .collect();
        tm.states_pruned += state.restrict(&report.kept);
        let edge_tables = edge_tables.compact(&report.kept);
        tm.arena_bytes = edge_tables.bytes() as u64;
        tm.edge_planes = edge_tables.planes();
        tm.prune_seconds += tp.elapsed().as_secs_f64();
        (edge_tables, seg_pruned)
    }

    /// Stages 3–6 over the pruned state — segment DP (Eqs. 11–12), merges
    /// (Eq. 13), layer composition (Eq. 14) and backtrack. `seg_pruned`
    /// holds the states pruned in each segment. Stamps the stage seconds
    /// and the bytes the edge arena holds into `tm`.
    fn solve(
        &self,
        state: &PassState,
        edge_tables: &EdgeTables,
        seg_pruned: &[u64],
        layers: u64,
        tm: &mut PlannerMetrics,
    ) -> ModelPlan {
        let (spaces, intra, segments) = (&state.spaces, &state.intra, &state.segments);
        let t2 = Instant::now();
        // 3. Segment DP (Eqs. 11-12), costs only: the backtrack re-sweeps
        // the chosen rows.
        let sweep = Sweep {
            intra,
            edges: edge_tables,
        };
        let mut tables: Vec<Table> = Vec::with_capacity(segments.len());
        tm.segments.clear();
        for (&(s, e), &pruned) in segments.iter().zip(seg_pruned) {
            let started = Instant::now();
            let (table, mut seg_tm) =
                sweep.forward(s, e, self.opts.threads, &mut tm.thread_busy_seconds);
            seg_tm.sweep_seconds = started.elapsed().as_secs_f64();
            seg_tm.states_pruned = pruned;
            tm.segments.push(seg_tm);
            tables.push(table);
        }
        tm.segment_dp_seconds += t2.elapsed().as_secs_f64();

        let t3 = Instant::now();
        // 4. Merge segments left to right (Eq. 13), costs only: each merged
        // table keeps its two inputs for the backtrack.
        let mut merged = tables.remove(0);
        let mut span = segments[0];
        for (table, seg) in tables.into_iter().zip(&segments[1..]) {
            tm.merge_relaxations += (merged.rows * table.cols * merged.cols) as u64;
            let visited;
            (merged, visited) = merge(
                merged,
                table,
                span.1,
                &intra[seg.0],
                edge_tables.get(span.0, seg.1),
                self.opts.threads,
                &mut tm.thread_busy_seconds,
            );
            tm.merge_visited += visited;
            span = (span.0, seg.1);
        }
        tm.merge_seconds += t3.elapsed().as_secs_f64();

        let t4 = Instant::now();
        // 5. Compose layers by min-plus doubling (Eq. 14). Boundary nodes of
        // consecutive layers coincide, so the shared node's intra cost is
        // subtracted once per join.
        let first = span.0;
        let last = span.1;
        let stackable = spaces[first] == spaces[last];
        let (total_cost, row_star, col_star, layer_cost);
        if stackable {
            let boundary_intra: &[f64] = &intra[last];
            total_cost = minplus_chain(
                &merged,
                boundary_intra,
                layers,
                self.opts.threads,
                &mut tm.thread_busy_seconds,
            );
            // Steady-state representative layer: the boundary state with the
            // best marginal per-layer cost.
            let nb = spaces[first].len();
            let (q_star, marginal) = (0..nb)
                .map(|q| (q, merged.cost[q * nb + q] - boundary_intra[q]))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
                .expect("non-empty boundary space");
            row_star = q_star;
            col_star = q_star;
            layer_cost = marginal;
        } else {
            // Non-repeating graph (e.g. the model endcaps): plain optimum of
            // the merged table; no layer composition is possible.
            assert_eq!(
                layers, 1,
                "stacking requires identical boundary operators (got a non-repeating graph)"
            );
            let (idx, &best) = merged
                .cost
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite costs"))
                .expect("non-empty table");
            total_cost = best;
            row_star = idx / merged.cols;
            col_star = idx % merged.cols;
            layer_cost = best;
        }
        // 6. Backtrack per-operator states for the chosen endpoint pair.
        let mut states = vec![usize::MAX; self.graph.ops.len()];
        extract(&merged.step, row_star, col_star, &sweep, &mut states);
        tm.compose_seconds += t4.elapsed().as_secs_f64();
        let seqs = states
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                assert!(s != usize::MAX, "operator {i} missing from backtrack");
                spaces[i][s].clone()
            })
            .collect();
        // The caller stamps the whole run's search time.
        ModelPlan {
            seqs,
            layer_cost,
            total_cost,
            search_time: Duration::ZERO,
        }
    }
}

/// What every Bellman sweep (Eqs. 11–12) reads: each node's intra vector,
/// whose length is the node's state count, and the edge planes.
#[derive(Debug, Clone, Copy)]
struct Sweep<'a> {
    intra: &'a [Arc<Vec<f64>>],
    edges: &'a EdgeTables,
}

impl Sweep<'_> {
    /// Row `r` of segment `(s, _)`'s base table `Model_{s, s+1}` into
    /// `out`: both endpoints' intra costs plus the chain edge.
    fn base_row(&self, s: usize, r: usize, out: &mut [f64]) {
        let chain = self.edges.get(s, s + 1).expect("chain edge present");
        let cols = out.len();
        for (c, v) in out.iter_mut().enumerate() {
            *v = self.intra[s][r] + self.intra[s + 1][c] + chain[r * cols + c];
        }
    }

    /// The largest state count among segment `(s, e)`'s right endpoints.
    fn max_cols(&self, s: usize, e: usize) -> usize {
        (s + 1..=e)
            .map(|j| self.intra[j].len())
            .max()
            .expect("span")
    }

    /// The forward Bellman iteration over segment `(s, e)`, costs only,
    /// ping-ponging between two cost planes (no allocation per extension)
    /// and storing no choices. Worker busy time is accumulated into `busy`
    /// (indexed by worker slot); the returned [`SegmentMetrics`] carries
    /// table dimensions and relaxation counts, nominal and visited — the
    /// caller stamps `sweep_seconds`.
    fn forward(
        &self,
        s: usize,
        e: usize,
        threads: usize,
        busy: &mut [f64],
    ) -> (Table, SegmentMetrics) {
        let (mut relaxations, mut visited) = (0u64, 0u64);
        let rows = self.intra[s].len();
        let max_cols = self.max_cols(s, e);
        let mut cur = vec![0.0; rows * max_cols];
        let mut next = vec![0.0; rows * max_cols];
        // Base: Model_{s, s+1}.
        let mut cols = self.intra[s + 1].len();
        for (r, row) in cur[..rows * cols].chunks_mut(cols).enumerate() {
            self.base_row(s, r, row);
        }
        for j in (s + 2)..=e {
            let new_cols = self.intra[j].len();
            relaxations += (rows * new_cols * cols) as u64;
            let chain = self.edges.get(j - 1, j).expect("chain edge present");
            // Eq. 12's e_{i,j+1} term.
            let head = self.edges.get(s, j);
            visited += minplus::bellman_costs(
                threads,
                rows,
                cols,
                new_cols,
                &cur[..rows * cols],
                chain,
                &self.intra[j],
                head,
                &mut next[..rows * new_cols],
                busy,
            );
            std::mem::swap(&mut cur, &mut next);
            cols = new_cols;
        }
        cur.truncate(rows * cols);
        let seg_tm = SegmentMetrics {
            span: (s, e),
            rows,
            cols,
            bellman_relaxations: relaxations,
            bellman_visited: visited,
            sweep_seconds: 0.0,
            states_pruned: 0,
        };
        (
            Table {
                rows,
                cols,
                cost: cur,
                step: BacktrackStep::Segment { s, e },
            },
            seg_tm,
        )
    }

    /// Resolves segment `(s, e)`'s states for endpoint states `(row, col)`
    /// into `states`. Re-sweeps row `row` alone with
    /// [`minplus::extend_row_argmin`], keeping one choice vector per
    /// extension step, then walks the choices back from `col`. Bellman row
    /// `row` reads only its own previous row, the shared chain plane, the
    /// new node's intra vector and head row `row`, so the one-row sweep
    /// reproduces the forward sweep's row bit for bit, with its first
    /// minimizers. Its relaxations are not counted.
    fn resweep(&self, (s, e): (usize, usize), (row, col): (usize, usize), states: &mut [usize]) {
        let max_cols = self.max_cols(s, e);
        let mut cur = vec![0.0; max_cols];
        let mut next = vec![0.0; max_cols];
        let mut cols = self.intra[s + 1].len();
        self.base_row(s, row, &mut cur[..cols]);
        let mut choices: Vec<Vec<usize>> = Vec::with_capacity(e - s - 1);
        for j in (s + 2)..=e {
            let new_cols = self.intra[j].len();
            let chain = self.edges.get(j - 1, j).expect("chain edge present");
            let head = self
                .edges
                .get(s, j)
                .map(|h| &h[row * new_cols..(row + 1) * new_cols]);
            let mut choice = vec![0; new_cols];
            minplus::extend_row_argmin(
                &cur[..cols],
                chain,
                &self.intra[j],
                head,
                &mut next[..new_cols],
                &mut choice,
            );
            choices.push(choice);
            std::mem::swap(&mut cur, &mut next);
            cols = new_cols;
        }
        // Walk back from the right endpoint: step `i` extended to node
        // `s + 2 + i` from node `s + 1 + i`.
        states[s] = row;
        let mut current = col;
        for (i, choice) in choices.iter().enumerate().rev() {
            states[s + 2 + i] = current;
            current = choice[current];
        }
        states[s + 1] = current;
    }
}

/// Eq. 13: merge `left` (span `a..mid`) and `right` (span `mid..c`),
/// subtracting the shared node's intra cost and adding any direct `a → c`
/// edge. Routed through the lane-tiled min-plus kernels, row-parallel when
/// threads are requested — bitwise-identical either way. The merged table
/// keeps both inputs for the backtrack. Also returns the candidates the
/// kernel relaxed.
fn merge(
    left: Table,
    right: Table,
    mid: usize,
    mid_intra: &[f64],
    span_edge: Option<&[f64]>,
    threads: usize,
    busy: &mut [f64],
) -> (Table, u64) {
    assert_eq!(left.cols, right.rows, "merge point spaces must agree");
    let rows = left.rows;
    let cols = right.cols;
    let k = left.cols;
    let mut cost = vec![0.0; rows * cols];
    let visited = minplus::merge_tables(
        threads,
        rows,
        k,
        cols,
        &left.cost,
        &right.cost,
        mid_intra,
        span_edge,
        &mut cost,
        busy,
    );
    let step = BacktrackStep::Merge {
        mid,
        left: Box::new(left),
        right: Box::new(right),
    };
    (
        Table {
            rows,
            cols,
            cost,
            step,
        },
        visited,
    )
}

/// Eq. 14 generalized: exact cost of `layers` stacked copies of the layer
/// table `t` sharing boundary nodes, via min-plus doubling (row-parallel
/// joins when threads are requested). The table is borrowed, not copied,
/// and the last doubling moves into the result: only join results are
/// owned, and none is copied.
fn minplus_chain(
    t: &Table,
    boundary_intra: &[f64],
    layers: u64,
    threads: usize,
    busy: &mut [f64],
) -> f64 {
    assert_eq!(t.rows, t.cols, "layer table must be square");
    let n = t.rows;
    let mut join =
        |a: &[f64], b: &[f64]| minplus::minplus_join(threads, n, a, b, boundary_intra, busy);
    let mut result: Option<Cow<'_, [f64]>> = None;
    let mut power = Cow::Borrowed(t.cost.as_slice());
    let mut remaining = layers.max(1);
    loop {
        if remaining & 1 == 1 {
            result = Some(match result {
                // The last set bit: `power` is not read again.
                None if remaining == 1 => std::mem::take(&mut power),
                None => power.clone(),
                Some(r) => Cow::Owned(join(&r, &power)),
            });
        }
        remaining >>= 1;
        if remaining == 0 {
            break;
        }
        power = Cow::Owned(join(&power, &power));
    }
    result
        .expect("at least one layer")
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
}

/// Recursively resolves the argmin interior states for endpoint states
/// `(row, col)` into `states`, recomputing every argmin: a merge rescans
/// cell `(row, col)`'s mid states over its kept inputs
/// ([`minplus::merge_argmin`]), a segment re-sweeps its row
/// ([`Sweep::resweep`]).
fn extract(step: &BacktrackStep, row: usize, col: usize, sweep: &Sweep<'_>, states: &mut [usize]) {
    match step {
        &BacktrackStep::Segment { s, e } => sweep.resweep((s, e), (row, col), states),
        BacktrackStep::Merge { mid, left, right } => {
            let left_row = &left.cost[row * left.cols..(row + 1) * left.cols];
            let (m, _) =
                minplus::merge_argmin(left_row, &right.cost, &sweep.intra[*mid], right.cols, col);
            states[*mid] = m;
            extract(&left.step, row, m, sweep, states);
            extract(&right.step, m, col, sweep, states);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_layer_plan, operator_space};
    use primepar_graph::{Edge, ModelConfig};

    #[test]
    fn edge_prepare_is_timed_inside_the_edge_stage() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let (_, tm) =
            Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(4);
        assert!(tm.edge_prepare_seconds > 0.0);
        assert!(tm.edge_prepare_seconds <= tm.edge_matrices_seconds);
    }

    #[test]
    fn optimizer_runs_and_improves_on_naive_dp() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let planner = Planner::new(&cluster, &graph, PlannerOptions::default());
        let plan = planner.optimize(4);
        assert_eq!(plan.seqs.len(), 13);
        assert!(plan.layer_cost > 0.0);
        assert!(plan.total_cost > 0.0);
        // The found plan must be no worse than pure data parallelism.
        let dp_plan = crate::megatron_layer_plan(&graph, 4, 1);
        let planner_cost: f64 = plan.layer_cost;
        let dp_cost: f64 = evaluate_layer_plan(&cluster, &graph, &dp_plan, 0.0);
        assert!(
            planner_cost <= dp_cost * 1.001,
            "{planner_cost} vs DP {dp_cost}"
        );
    }

    #[test]
    fn plan_cost_matches_backtracked_states() {
        // The DP's reported layer cost must equal the independent evaluation
        // of the extracted plan (guards both the Bellman recursion and the
        // backtracking).
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::llama2_7b().layer_graph(8, 512);
        let planner = Planner::new(&cluster, &graph, PlannerOptions::default());
        let plan = planner.optimize(1);
        let eval = evaluate_layer_plan(&cluster, &graph, &plan.seqs, 0.0);
        let rel = (plan.layer_cost - eval).abs() / eval.max(1e-12);
        assert!(rel < 1e-9, "dp {} vs eval {}", plan.layer_cost, eval);
    }

    #[test]
    fn dp_is_optimal_on_exhaustive_small_space() {
        // 2 devices: spaces are tiny; brute-force every assignment of the
        // MLP sub-chain and compare (validates Eqs. 11-14 end to end).
        let cluster = Cluster::v100_like(2);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let planner = Planner::new(&cluster, &graph, PlannerOptions::default());
        let plan = planner.optimize(1);

        // Brute force: iterate the product of all operator spaces... the
        // full 13-node product is too large even at 2 devices (5^13), so
        // check optimality by local perturbation: changing any single
        // operator's sequence must not improve the cost.
        let opts = SpaceOptions::default();
        let mut best = evaluate_layer_plan(&cluster, &graph, &plan.seqs, 0.0);
        for i in 1..graph.ops.len() {
            for alt in operator_space(&graph.ops[i], 1, &opts) {
                let mut seqs = plan.seqs.clone();
                // Keep boundary nodes consistent (they are shared across
                // layers; the steady-state plan pins them equal).
                if i == 0 || i == 12 {
                    continue;
                }
                seqs[i] = alt;
                let c = evaluate_layer_plan(&cluster, &graph, &seqs, 0.0);
                best = best.min(c);
            }
        }
        let own = evaluate_layer_plan(&cluster, &graph, &plan.seqs, 0.0);
        assert!(
            own <= best * 1.0001,
            "one-step improvement found: {best} < {own}"
        );
    }

    #[test]
    fn parallel_planner_matches_single_threaded() {
        // §5.3: the Bellman/merge computation is parallelizable; the result
        // must be identical regardless of thread count.
        let cluster = Cluster::v100_like(8);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let single = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(4);
        let multi = Planner::new(
            &cluster,
            &graph,
            PlannerOptions {
                threads: 4,
                ..PlannerOptions::default()
            },
        )
        .optimize(4);
        assert!((single.total_cost - multi.total_cost).abs() < 1e-9 * single.total_cost);
        assert!((single.layer_cost - multi.layer_cost).abs() < 1e-9 * single.layer_cost);
        assert_eq!(single.seqs, multi.seqs);
    }

    #[test]
    fn pruned_planner_matches_unpruned_bitwise() {
        // The dominance relation only ever removes states that can never be
        // a strict argmin: the cost bits equal the ones the unpruned
        // per-edge planner produced for this point (recorded before that
        // path was retired; `tests/goldens/mod.rs` holds the full table).
        let cluster = Cluster::v100_like(8);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let (plan, tm) =
            Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(4);
        assert_eq!(plan.layer_cost.to_bits(), 0x3f8a_5bd1_2db9_fae3);
        assert_eq!(plan.total_cost.to_bits(), 0x3faa_62ce_4e56_d24a);
        assert_eq!(
            tm.states_pruned,
            tm.segments.iter().map(|s| s.states_pruned).sum::<u64>()
        );
    }

    #[test]
    fn planner_metrics_are_thread_count_invariant() {
        // ISSUE 1 satellite e: not just the plan — the deterministic half of
        // the telemetry (space sizes, DP table shapes, relaxation and cost
        // evaluation counts) must be identical for threads = 0 and threads = 4.
        let cluster = Cluster::v100_like(8);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let (single_plan, single_tm) =
            Planner::new(&cluster, &graph, PlannerOptions::default()).optimize_instrumented(4);
        let (multi_plan, multi_tm) = Planner::new(
            &cluster,
            &graph,
            PlannerOptions {
                threads: 4,
                ..PlannerOptions::default()
            },
        )
        .optimize_instrumented(4);

        assert_eq!(single_plan.seqs, multi_plan.seqs);
        assert!(
            (single_plan.total_cost - multi_plan.total_cost).abs() < 1e-9 * single_plan.total_cost
        );

        assert_eq!(single_tm.op_names, multi_tm.op_names);
        assert_eq!(single_tm.space_sizes, multi_tm.space_sizes);
        assert_eq!(single_tm.intra_evaluations, multi_tm.intra_evaluations);
        assert_eq!(single_tm.edge_evaluations, multi_tm.edge_evaluations);
        assert_eq!(single_tm.merge_relaxations, multi_tm.merge_relaxations);
        assert_eq!(single_tm.merge_visited, multi_tm.merge_visited);
        // ISSUE 2: cache telemetry is deterministic too — the matrix dedup
        // happens before any work is parallelized.
        assert_eq!(single_tm.unique_signatures, multi_tm.unique_signatures);
        assert_eq!(single_tm.profile_cache_hits, multi_tm.profile_cache_hits);
        assert_eq!(
            single_tm.profile_cache_misses,
            multi_tm.profile_cache_misses
        );
        assert_eq!(
            single_tm.edge_matrix_cache_hits,
            multi_tm.edge_matrix_cache_hits
        );
        assert_eq!(
            single_tm.edge_matrix_cache_misses,
            multi_tm.edge_matrix_cache_misses
        );
        assert_eq!(single_tm.edge_matrix_aliases, multi_tm.edge_matrix_aliases);
        assert_eq!(single_tm.edge_terms, multi_tm.edge_terms);
        assert_eq!(
            single_tm.edge_term_row_entries,
            multi_tm.edge_term_row_entries
        );
        assert!(single_tm.unique_signatures > 0);
        assert!(
            single_tm.edge_matrix_aliases > 0,
            "equal layouts share sweeps"
        );
        assert_eq!(single_tm.edge_terms, single_tm.edge_evaluations * 8 * 2);
        assert!((1..=single_tm.edge_terms).contains(&single_tm.edge_term_row_entries));
        assert!(single_tm.edge_matrix_cache_hits > 0, "residual adds repeat");
        assert_eq!(single_tm.segments.len(), multi_tm.segments.len());
        for (s, m) in single_tm.segments.iter().zip(&multi_tm.segments) {
            assert_eq!(s.span, m.span);
            assert_eq!(s.rows, m.rows);
            assert_eq!(s.cols, m.cols);
            assert_eq!(s.bellman_relaxations, m.bellman_relaxations);
            assert_eq!(s.bellman_visited, m.bellman_visited);
        }

        // Sanity on the counters themselves: the planner did real work.
        assert!(single_tm.intra_evaluations > 0);
        assert!(single_tm.edge_evaluations > 0);
        assert!(single_tm.segments.iter().any(|s| s.bellman_relaxations > 0));
        assert_eq!(single_tm.threads_used, 1);
        assert_eq!(multi_tm.threads_used, 4);
        assert!(multi_tm.thread_busy_seconds.len() == 4);
    }

    #[test]
    fn arena_bytes_are_stamped_under_every_strategy() {
        // Every pass stamps the bytes its compacted arena holds: full,
        // beam-restricted, and the last of several anytime rounds, serial
        // and threaded.
        let cluster = Cluster::v100_like(8);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        for (strategy, threads) in [
            (SearchStrategy::Exact, 0),
            (SearchStrategy::Exact, 3),
            (SearchStrategy::Beam { width: 4 }, 0),
            (SearchStrategy::Anytime { budget_ms: 0 }, 0),
        ] {
            let opts = PlannerOptions::new()
                .with_strategy(strategy)
                .with_threads(threads);
            let (_, tm) = Planner::new(&cluster, &graph, opts).optimize_instrumented(4);
            assert!(tm.arena_bytes > 0, "{strategy}");
            assert!(tm.edge_planes > 0 && tm.edge_planes <= graph.edges.len());
        }
    }

    #[test]
    fn restrict_composes_shares_untouched_vectors_and_refines_signatures() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let planner = Planner::new(&cluster, &graph, PlannerOptions::default());
        let ctx = CostCtx::new(&cluster, 0.0);
        let full = planner.spaces(&ctx, &mut PlannerMetrics::default());
        let nodes = full.spaces.len();
        let every = |state: &PassState, n: usize, step: usize| -> Vec<u32> {
            (0..state.spaces[n].len() as u32).step_by(step).collect()
        };

        // A beam keeps every other state of the odd nodes, then a prune
        // every third survivor of the nodes divisible by 3: the same
        // vectors as one restrict by the composed kept lists.
        let beam: Vec<Option<Vec<u32>>> = (0..nodes)
            .map(|n| (n % 2 == 1).then(|| every(&full, n, 2)))
            .collect();
        let mut twice = full.clone();
        twice.restrict(&beam);
        let prune: Vec<Option<Vec<u32>>> = (0..nodes)
            .map(|n| (n % 3 == 0).then(|| every(&twice, n, 3)))
            .collect();
        twice.restrict(&prune);
        let composed: Vec<Option<Vec<u32>>> = beam
            .iter()
            .zip(&prune)
            .map(|(b, p)| match (b, p) {
                (Some(b), Some(p)) => Some(p.iter().map(|&i| b[i as usize]).collect()),
                (b, None) => b.clone(),
                (None, p) => p.clone(),
            })
            .collect();
        let mut once = full.clone();
        let dropped = once.restrict(&composed);
        assert_eq!(twice.spaces, once.spaces);
        assert_eq!(twice.intra, once.intra);
        assert_eq!(twice.mem, once.mem);
        let total = |s: &PassState| s.spaces.iter().map(|v| v.len() as u64).sum::<u64>();
        assert_eq!(dropped, total(&full) - total(&once));

        // Untouched nodes keep stage 1's shared vectors.
        let untouched: Vec<usize> = (0..nodes).filter(|&n| composed[n].is_none()).collect();
        assert!(!untouched.is_empty());
        for n in untouched {
            assert!(Arc::ptr_eq(&once.spaces[n], &full.spaces[n]));
            assert!(Arc::ptr_eq(&once.intra[n], &full.intra[n]));
            assert!(Arc::ptr_eq(&once.mem[n], &full.mem[n]));
            assert_eq!(once.sig_ids[n], full.sig_ids[n]);
        }

        // Two nodes of one signature: equal kept sets share a fresh id,
        // different ones get two.
        let (a, b) = (0..nodes)
            .flat_map(|a| (a + 1..nodes).map(move |b| (a, b)))
            .find(|&(a, b)| full.sig_ids[a] == full.sig_ids[b] && full.spaces[a].len() > 3)
            .expect("a repeated signature");
        let ids = |ka: Vec<u32>, kb: Vec<u32>| {
            let mut kept = vec![None; nodes];
            kept[a] = Some(ka);
            kept[b] = Some(kb);
            let mut state = full.clone();
            state.restrict(&kept);
            (state.sig_ids[a], state.sig_ids[b])
        };
        let max = *full.sig_ids.iter().max().expect("nodes");
        let (same_a, same_b) = ids(every(&full, a, 2), every(&full, a, 2));
        assert_eq!(same_a, same_b);
        assert!(same_a > max);
        let (diff_a, diff_b) = ids(every(&full, a, 2), every(&full, a, 3));
        assert_ne!(diff_a, diff_b);
        assert!(diff_a > max && diff_b > max);
    }

    /// Pseudo-random draws in `0..levels` from an LCG, as `f64`s: with few
    /// levels, exactly tied costs recur.
    fn draws(len: usize, levels: u64, state: &mut u64) -> Vec<f64> {
        (0..len)
            .map(|_| {
                *state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((*state >> 33) % levels) as f64
            })
            .collect()
    }

    /// The stored-plane segment sweep the re-sweep replaced, built on the
    /// scalar extension row: segment `(s, e)`'s final cost table and one
    /// choice plane per extension step.
    fn stored_segment(sweep: &Sweep<'_>, s: usize, e: usize) -> (Vec<f64>, Vec<Vec<usize>>) {
        let intra = sweep.intra;
        let rows = intra[s].len();
        let mut cols = intra[s + 1].len();
        let chain = sweep.edges.get(s, s + 1).expect("chain edge");
        let mut cur: Vec<f64> = (0..rows * cols)
            .map(|i| intra[s][i / cols] + intra[s + 1][i % cols] + chain[i])
            .collect();
        let mut planes = Vec::new();
        for j in s + 2..=e {
            let new_cols = intra[j].len();
            let chain = sweep.edges.get(j - 1, j).expect("chain edge");
            let head = sweep.edges.get(s, j);
            let mut next = vec![0.0; rows * new_cols];
            let mut plane = vec![0; rows * new_cols];
            for r in 0..rows {
                let cells = r * new_cols..(r + 1) * new_cols;
                minplus::extend_row_scalar(
                    &cur[r * cols..(r + 1) * cols],
                    chain,
                    &intra[j],
                    head.map(|h| &h[cells.clone()]),
                    &mut next[cells.clone()],
                    &mut plane[cells],
                );
            }
            planes.push(plane);
            cur = next;
            cols = new_cols;
        }
        (cur, planes)
    }

    /// The stored merge plane the recomputed argmin replaced, built on the
    /// scalar merge row: for every cell of the `left ⋈ right` merge at a
    /// node with intra vector `mid_intra`, its argmin mid state.
    fn stored_merge(left: &Table, right: &Table, mid_intra: &[f64]) -> Vec<usize> {
        let mut cost = vec![0.0; left.rows * right.cols];
        let mut plane = vec![0; left.rows * right.cols];
        for r in 0..left.rows {
            let cells = r * right.cols..(r + 1) * right.cols;
            minplus::merge_row_scalar(
                &left.cost[r * left.cols..(r + 1) * left.cols],
                &right.cost,
                mid_intra,
                None,
                &mut cost[cells.clone()],
                &mut plane[cells],
            );
        }
        plane
    }

    /// One segment's span with its per-step choice planes.
    type SegmentPlanes = ((usize, usize), Vec<Vec<usize>>);

    /// The stored choice planes of one chain: each segment's, and each
    /// merge's mid node with its plane.
    struct StoredPlanes {
        segments: Vec<SegmentPlanes>,
        merges: Vec<(usize, Vec<usize>)>,
    }

    /// The old backtrack: a segment walks its stored planes back from the
    /// right endpoint (the `Extend` steps, then the `Base`), a merge reads
    /// its stored plane.
    fn stored_extract(
        step: &BacktrackStep,
        (row, col): (usize, usize),
        sweep: &Sweep<'_>,
        stored: &StoredPlanes,
        states: &mut [usize],
    ) {
        match step {
            BacktrackStep::Merge { mid, left, right } => {
                let plane = &stored
                    .merges
                    .iter()
                    .find(|(node, _)| node == mid)
                    .expect("stored merge")
                    .1;
                let m = plane[row * right.cols + col];
                states[*mid] = m;
                stored_extract(&left.step, (row, m), sweep, stored, states);
                stored_extract(&right.step, (m, col), sweep, stored, states);
            }
            &BacktrackStep::Segment { s, e } => {
                let planes = &stored
                    .segments
                    .iter()
                    .find(|(span, _)| *span == (s, e))
                    .expect("stored segment")
                    .1;
                let mut current = col;
                for (i, plane) in planes.iter().enumerate().rev() {
                    let node = s + 2 + i;
                    states[node] = current;
                    let prev = plane[row * sweep.intra[node].len() + current];
                    states[node - 1] = prev;
                    current = prev;
                }
                states[s] = row;
                states[s + 1] = current;
            }
        }
    }

    #[test]
    fn resweep_backtrack_names_the_stored_plane_states() {
        // Random small chains of three segments — a two-node one (0, 1),
        // then two longer ones joined by merges — with head edges, span
        // edges onto the merges, and costs on a few levels so that exact
        // ties abound. Every fourth chain also sets about a fifth of its
        // edge cells to +∞, so its merge tables hold ∞ entries. Every cell
        // of the merged table must backtrack to the states the stored
        // planes name.
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let mut infinite_merge_cells = 0;
        for case in 0..64usize {
            let mid = 3 + case % 3;
            let n = mid + 2 + case % 4;
            let segments = [(0, 1), (1, mid), (mid, n - 1)];
            let sizes: Vec<usize> = draws(n, 11, &mut state)
                .iter()
                .map(|&v| 1 + v as usize)
                .collect();
            let mut edges: Vec<Edge> = (1..n).map(|j| Edge::plain(j - 1, j)).collect();
            let coin = |state: &mut u64| draws(1, 2, state)[0] == 1.0;
            for &(s, e) in &segments {
                for j in s + 2..=e {
                    if coin(&mut state) {
                        edges.push(Edge::plain(s, j));
                    }
                }
            }
            for &(_, e) in &segments[1..] {
                if coin(&mut state) {
                    edges.push(Edge::plain(0, e));
                }
            }
            let poisoned = case % 4 == 3;
            let mats: Vec<Vec<f64>> = edges
                .iter()
                .map(|edge| {
                    let len = sizes[edge.src] * sizes[edge.dst];
                    let mut mat = draws(len, 4, &mut state);
                    if poisoned {
                        for (v, roll) in mat.iter_mut().zip(draws(len, 5, &mut state)) {
                            if roll == 0.0 {
                                *v = f64::INFINITY;
                            }
                        }
                    }
                    mat
                })
                .collect();
            let tables = EdgeTables::per_edge(&edges, &sizes, &mats);
            let intra: SharedVecs = sizes
                .iter()
                .map(|&k| Arc::new(draws(k, 3, &mut state)))
                .collect();
            let sweep = Sweep {
                intra: &intra,
                edges: &tables,
            };
            let threads = case % 3;
            let mut busy = vec![0.0; 3];
            let mut stored = StoredPlanes {
                segments: Vec::new(),
                merges: Vec::new(),
            };
            let mut merged: Option<Table> = None;
            for &(s, e) in &segments {
                let (table, _) = sweep.forward(s, e, threads, &mut busy);
                let (cost, planes) = stored_segment(&sweep, s, e);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&table.cost),
                    bits(&cost),
                    "case {case}, segment ({s}, {e})"
                );
                stored.segments.push(((s, e), planes));
                merged = Some(match merged {
                    None => table,
                    Some(left) => {
                        infinite_merge_cells += left
                            .cost
                            .iter()
                            .chain(&table.cost)
                            .filter(|v| v.is_infinite())
                            .count();
                        stored
                            .merges
                            .push((s, stored_merge(&left, &table, &intra[s])));
                        let span_edge = tables.get(0, e);
                        merge(left, table, s, &intra[s], span_edge, threads, &mut busy).0
                    }
                });
            }
            let merged = merged.expect("three segments");
            for row in 0..merged.rows {
                for col in 0..merged.cols {
                    let mut got = vec![usize::MAX; n];
                    extract(&merged.step, row, col, &sweep, &mut got);
                    let mut want = vec![usize::MAX; n];
                    stored_extract(&merged.step, (row, col), &sweep, &stored, &mut want);
                    assert_eq!(got, want, "case {case}, cell ({row}, {col})");
                }
            }
        }
        assert!(infinite_merge_cells > 0, "no merge table held +∞");
    }

    #[test]
    fn temporal_space_beats_conventional_space() {
        // The PrimePar claim in cost-model terms: searching the extended
        // space can only improve (and for large models strictly improves)
        // on the conventional space.
        let cluster = Cluster::v100_like(8);
        let graph = ModelConfig::opt_175b().layer_graph(8, 2048);
        let full = Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(4);
        let conventional = Planner::new(
            &cluster,
            &graph,
            PlannerOptions {
                space: SpaceOptions {
                    allow_temporal: false,
                    ..SpaceOptions::default()
                },
                alpha: 0.0,
                ..PlannerOptions::default()
            },
        )
        .optimize(4);
        assert!(full.total_cost <= conventional.total_cost * 1.0001);
    }
}
