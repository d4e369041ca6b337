//! Planner telemetry: what the segmented DP actually did, as data.
//!
//! [`Planner::optimize_instrumented`](crate::Planner::optimize_instrumented)
//! fills one [`PlannerMetrics`] per run: per-operator space sizes, per-segment
//! Bellman sweep timings and DP table dimensions, intra/edge cost-model
//! evaluation counts, per-stage wall time and worker-thread utilization for
//! the [`PlannerOptions::threads`](crate::PlannerOptions) path.
//!
//! Everything except wall-clock timings is deterministic — identical for
//! `threads = 0` and `threads = N` — which the test suite relies on to pin
//! the parallel planner to the sequential one.

use primepar_obs::Metrics;

/// Telemetry of one Fig. 6 segment's Bellman iteration (Eqs. 11-12).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SegmentMetrics {
    /// Operator index span `(s, e)` of the segment.
    pub span: (usize, usize),
    /// Rows of the final table `C_{s,e}` — `|space(op_s)|`.
    pub rows: usize,
    /// Columns of the final table — `|space(op_e)|`.
    pub cols: usize,
    /// Inner-loop candidate evaluations across all chain extensions:
    /// `Σ_j rows × |space(op_j)| × |space(op_{j-1})|`.
    pub bellman_relaxations: u64,
    /// The candidates of those the extension kernel actually relaxed, in
    /// the same cell units: the rest provably could not win their tile.
    /// At most `bellman_relaxations`. Both count the forward sweep only,
    /// not the backtrack's one-row re-sweep.
    pub bellman_visited: u64,
    /// Wall-clock seconds of this segment's sweep.
    pub sweep_seconds: f64,
    /// Interior states dominance pruning removed from this segment's nodes.
    pub states_pruned: u64,
}

/// Telemetry of one [`Planner::optimize`](crate::Planner::optimize) run.
///
/// The [`SearchStrategy::Anytime`](crate::SearchStrategy::Anytime) driver
/// builds stage 1 once and then runs one pass (beam, edges, prune, solve)
/// per round, so a field falls in one of three groups. Each field's doc
/// says which:
///
/// * **once per run** (stage 1): `op_names`, `space_sizes`,
///   `unique_signatures`, the space-cache counters, `intra_evaluations`
///   and `spaces_intra_seconds`;
/// * **summed over rounds**: the edge-stage counters (evaluations, terms,
///   term rows, profile, matrix and warm cache counters, aliases), the
///   merge counters, `states_pruned`, and every stage's seconds after
///   stage 1 and the worker busy time;
/// * **last round**: `beam_width`, `states_beamed`, `segments` (with their
///   Bellman counts), `arena_bytes` and `edge_planes`.
///
/// Exact and beam runs have one round, so the groups agree there.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlannerMetrics {
    /// The [`SearchStrategy`](crate::SearchStrategy) that produced the run,
    /// in its canonical `Display` form (`exact`, `beam:8`, `anytime:500ms`).
    /// Empty only on hand-built metrics.
    pub strategy: String,
    /// Final effective beam width (0 = unrestricted exact sweep). Last
    /// round: for anytime runs, the width of the last completed round.
    pub beam_width: usize,
    /// Upper bound on the relative optimality gap of the returned plan:
    /// `(total_cost − lower_bound) / total_cost`, clamped to `[0, 1]`, and
    /// exactly `0.0` when the search was provably exact (exact strategy, or
    /// a beam/anytime run whose width covered every interior space).
    pub optimality_gap: f64,
    /// Beam rounds the anytime driver completed (0 for exact/beam runs).
    pub anytime_rounds: u64,
    /// Whether the anytime driver's last round covered every interior
    /// space — i.e. the returned plan is provably optimal.
    pub anytime_converged: bool,
    /// Interior partition states the beam dropped before stage 2, summed
    /// over nodes (last round; 0 for exact or wide-enough beams).
    pub states_beamed: u64,
    /// Beam-restriction stage (1b) wall seconds, heuristic probes included
    /// (summed over rounds).
    pub beam_seconds: f64,
    /// Operator names, indexed like `graph.ops` (stage 1).
    pub op_names: Vec<String>,
    /// Enumerated partition-space size per operator, before any beam or
    /// prune (same indexing; stage 1).
    pub space_sizes: Vec<usize>,
    /// One entry per segment of `graph.segments()`, in order (last round).
    pub segments: Vec<SegmentMetrics>,
    /// Eq. 7 evaluations (stage 1's per-operator intra-cost vectors, once
    /// per run). With memoization these drop by the structural-dedup
    /// factor: one vector per unique signature instead of per node.
    pub intra_evaluations: u64,
    /// Eqs. 8-9 pair evaluations (stage 2's edge-cost matrix cells and the
    /// beam's probe cells, summed over rounds). With memoization each
    /// *unique* matrix is charged once, so duplicate edges add nothing.
    pub edge_evaluations: u64,
    /// Per-device terms behind those cells: `edge_evaluations × devices ×
    /// 2` (one forward and one backward term per device per cell; summed
    /// over rounds).
    pub edge_terms: u64,
    /// Entries of the per-device term rows the device-major sweep built to
    /// sum those terms: one `(V − total·overlap)⁺` per distinct holding on a
    /// direction's hold side, per device, across its need side. At most
    /// `edge_terms` (summed over rounds).
    pub edge_term_row_entries: u64,
    /// Distinct structural operator signatures in the graph (vs `op_names
    /// .len()` nodes; stage 1).
    pub unique_signatures: usize,
    /// Stage 2 side-profile vectors reused across edges (summed over
    /// rounds, as are the four counters below).
    pub profile_cache_hits: u64,
    /// Stage 2 side-profile vectors built from scratch.
    pub profile_cache_misses: u64,
    /// Stage 2 whole edge matrices reused via structural keys.
    pub edge_matrix_cache_hits: u64,
    /// Stage 2 whole edge matrices prepared, one per distinct structural
    /// key.
    pub edge_matrix_cache_misses: u64,
    /// Prepared matrices that read the same four profiles as an earlier
    /// one and share its sweep and plane: `edge_matrix_cache_misses −
    /// edge_matrix_aliases` sweeps run (fewer on warm hits).
    pub edge_matrix_aliases: u64,
    /// Distinct volume planes (stage 2's and the beam probes', each counted
    /// once per round and summed over rounds) a cross-run
    /// [`PlannerWarmCache`](crate::PlannerWarmCache) already held swept when
    /// the run first read them (always 0 on the cold
    /// [`optimize`](crate::Planner::optimize) path).
    pub warm_matrix_hits: u64,
    /// Distinct volume planes the warm cache did not hold swept yet (0
    /// unless running
    /// [`optimize_warm_instrumented`](crate::Planner::optimize_warm_instrumented)).
    pub warm_matrix_misses: u64,
    /// Inner-loop candidate evaluations of the Eq. 13 segment merges
    /// (summed over rounds).
    pub merge_relaxations: u64,
    /// The merge candidates the kernel actually relaxed (at most
    /// `merge_relaxations`; summed over rounds).
    pub merge_visited: u64,
    /// Interior partition states removed by dominance pruning across all
    /// nodes (summed over rounds).
    pub states_pruned: u64,
    /// Stage 1 (spaces + intra vectors) wall seconds (once per run).
    pub spaces_intra_seconds: f64,
    /// Dominance-pruning stage wall seconds (summed over rounds, as are
    /// the stage seconds below).
    pub prune_seconds: f64,
    /// Stage 2 (edge-cost matrices) wall seconds.
    pub edge_matrices_seconds: f64,
    /// The part of [`edge_matrices_seconds`](Self::edge_matrices_seconds)
    /// spent preparing the unique matrices (interning their side profiles
    /// and plane entries) before the device-major sweep; the rest is the
    /// sweep, which builds each direction's per-axis factor rows itself,
    /// and the pricing step.
    pub edge_prepare_seconds: f64,
    /// Stage 3 (per-segment Bellman sweeps) wall seconds.
    pub segment_dp_seconds: f64,
    /// Stage 4 (segment merges) wall seconds.
    pub merge_seconds: f64,
    /// Stage 5 (min-plus layer composition + backtrack) wall seconds. The
    /// backtrack re-sweeps each segment's chosen row (one row of Eqs.
    /// 11–12 per segment), so that work is timed here, not in
    /// `segment_dp_seconds`, and no `bellman_*` counter includes it.
    pub compose_seconds: f64,
    /// Whole-run wall seconds (equals `ModelPlan::search_time`).
    pub total_seconds: f64,
    /// `PlannerOptions::threads` as configured.
    pub threads_requested: usize,
    /// Worker count actually used (1 when running single-threaded).
    pub threads_used: usize,
    /// Per-worker busy seconds across the parallelizable stages (edge
    /// matrices, Bellman sweeps, merges and min-plus joins), indexed by
    /// worker slot.
    pub thread_busy_seconds: Vec<f64>,
    /// Process peak resident set size (`VmHWM`) sampled at the end of the
    /// run, in bytes; 0 where the platform has no cheap probe.
    pub peak_rss_bytes: u64,
    /// Bytes the DP's edge arena — the compacted edge planes — holds once
    /// the prune has compacted it (last round). The DP stores no backtrack
    /// choices: the compose stage recomputes each argmin it needs,
    /// re-sweeping one row per segment and rescanning one cell per merge,
    /// in buffers outside the arena.
    pub arena_bytes: u64,
    /// Distinct compacted edge planes the DP read (last round): pairs with
    /// one edge share their matrix sweep's plane.
    pub edge_planes: usize,
}

impl PlannerMetrics {
    /// Fraction of the parallel stages' wall time the workers were busy:
    /// `Σ busy / (threads_used × (edge + segment_dp + merge + compose
    /// seconds))`, in `0..=1` for an ideal measurement (scheduling noise can
    /// nudge it past 1).
    pub fn thread_utilization(&self) -> f64 {
        let wall = self.edge_matrices_seconds
            + self.segment_dp_seconds
            + self.merge_seconds
            + self.compose_seconds;
        let capacity = self.threads_used as f64 * wall;
        if capacity <= 0.0 {
            return 0.0;
        }
        self.thread_busy_seconds.iter().sum::<f64>() / capacity
    }

    /// The run's pipeline stages as ordered `(name, wall_seconds)` spans, in
    /// execution order — the hook request-scoped tracing uses to synthesize
    /// per-stage spans without threading callbacks through the DP itself.
    /// Zero-duration stages (e.g. `beam` on an exact run) are skipped.
    pub fn stage_spans(&self) -> Vec<(&'static str, f64)> {
        [
            ("spaces_intra", self.spaces_intra_seconds),
            ("beam", self.beam_seconds),
            ("edge_matrices", self.edge_matrices_seconds),
            ("prune", self.prune_seconds),
            ("segment_dp", self.segment_dp_seconds),
            ("merge", self.merge_seconds),
            ("compose", self.compose_seconds),
        ]
        .into_iter()
        .filter(|&(_, seconds)| seconds > 0.0)
        .collect()
    }

    /// Renders the run into an observability registry under `planner.*`.
    pub fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.text("planner.strategy", &self.strategy);
        m.gauge("planner.beam_width", self.beam_width as f64);
        m.gauge("planner.optimality_gap", self.optimality_gap);
        m.incr("planner.anytime.rounds", self.anytime_rounds);
        m.gauge(
            "planner.anytime.converged",
            if self.anytime_converged { 1.0 } else { 0.0 },
        );
        m.incr("planner.beam.states_dropped", self.states_beamed);
        m.record_seconds("planner.stage.beam_seconds", self.beam_seconds);
        m.record_seconds("planner.total_seconds", self.total_seconds);
        m.record_seconds(
            "planner.stage.spaces_intra_seconds",
            self.spaces_intra_seconds,
        );
        m.record_seconds("planner.stage.prune_seconds", self.prune_seconds);
        m.record_seconds(
            "planner.stage.edge_matrices_seconds",
            self.edge_matrices_seconds,
        );
        m.record_seconds(
            "planner.stage.edge_prepare_seconds",
            self.edge_prepare_seconds,
        );
        m.record_seconds("planner.stage.segment_dp_seconds", self.segment_dp_seconds);
        m.record_seconds("planner.stage.merge_seconds", self.merge_seconds);
        m.record_seconds("planner.stage.compose_seconds", self.compose_seconds);
        m.incr("planner.intra_evaluations", self.intra_evaluations);
        m.incr("planner.edge_evaluations", self.edge_evaluations);
        m.incr("planner.edge_terms", self.edge_terms);
        m.incr("planner.edge_term_rows", self.edge_term_row_entries);
        m.incr("planner.merge_relaxations", self.merge_relaxations);
        m.incr("planner.merge_visited", self.merge_visited);
        m.incr("planner.prune.states_pruned", self.states_pruned);
        m.gauge("planner.peak_rss_bytes", self.peak_rss_bytes as f64);
        m.gauge("planner.arena_bytes", self.arena_bytes as f64);
        m.gauge("planner.edge_planes", self.edge_planes as f64);
        m.gauge("planner.unique_signatures", self.unique_signatures as f64);
        m.incr("planner.cache.profile.hits", self.profile_cache_hits);
        m.incr("planner.cache.profile.misses", self.profile_cache_misses);
        m.incr(
            "planner.cache.edge_matrix.hits",
            self.edge_matrix_cache_hits,
        );
        m.incr(
            "planner.cache.edge_matrix.misses",
            self.edge_matrix_cache_misses,
        );
        m.incr(
            "planner.cache.edge_matrix.aliased",
            self.edge_matrix_aliases,
        );
        m.incr("planner.cache.warm_matrix.hits", self.warm_matrix_hits);
        m.incr("planner.cache.warm_matrix.misses", self.warm_matrix_misses);
        m.gauge("planner.threads.requested", self.threads_requested as f64);
        m.gauge("planner.threads.used", self.threads_used as f64);
        for &busy in &self.thread_busy_seconds {
            m.observe("planner.threads.busy_seconds", busy);
        }
        m.gauge("planner.threads.utilization", self.thread_utilization());
        for (i, (name, size)) in self.op_names.iter().zip(&self.space_sizes).enumerate() {
            m.gauge(&format!("planner.space.{i:02}.{name}.size"), *size as f64);
        }
        for (k, seg) in self.segments.iter().enumerate() {
            let prefix = format!("planner.segment.{k:02}");
            m.text(
                &format!("{prefix}.span"),
                &format!("{}..{}", seg.span.0, seg.span.1),
            );
            m.gauge(&format!("{prefix}.rows"), seg.rows as f64);
            m.gauge(&format!("{prefix}.cols"), seg.cols as f64);
            m.incr(
                &format!("{prefix}.bellman_relaxations"),
                seg.bellman_relaxations,
            );
            m.incr(&format!("{prefix}.bellman_visited"), seg.bellman_visited);
            m.incr(&format!("{prefix}.states_pruned"), seg.states_pruned);
            m.record_seconds(&format!("{prefix}.sweep_seconds"), seg.sweep_seconds);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PlannerMetrics {
        PlannerMetrics {
            strategy: "beam:2".into(),
            beam_width: 2,
            optimality_gap: 0.125,
            anytime_rounds: 0,
            anytime_converged: false,
            states_beamed: 15,
            beam_seconds: 0.05,
            op_names: vec!["embed".into(), "fc1".into()],
            space_sizes: vec![4, 17],
            segments: vec![SegmentMetrics {
                span: (0, 1),
                rows: 4,
                cols: 17,
                bellman_relaxations: 40,
                bellman_visited: 12,
                sweep_seconds: 0.25,
                states_pruned: 6,
            }],
            intra_evaluations: 21,
            edge_evaluations: 68,
            edge_terms: 544,
            edge_term_row_entries: 200,
            merge_relaxations: 0,
            merge_visited: 0,
            states_pruned: 6,
            unique_signatures: 2,
            profile_cache_hits: 4,
            profile_cache_misses: 8,
            edge_matrix_cache_hits: 5,
            edge_matrix_cache_misses: 12,
            edge_matrix_aliases: 2,
            warm_matrix_hits: 9,
            warm_matrix_misses: 3,
            spaces_intra_seconds: 0.5,
            prune_seconds: 0.1,
            edge_matrices_seconds: 1.0,
            edge_prepare_seconds: 0.75,
            segment_dp_seconds: 1.0,
            merge_seconds: 0.0,
            compose_seconds: 0.0,
            total_seconds: 2.5,
            threads_requested: 2,
            threads_used: 2,
            thread_busy_seconds: vec![1.0, 1.0],
            peak_rss_bytes: 1 << 20,
            arena_bytes: 3 << 10,
            edge_planes: 4,
        }
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let tm = sample();
        // 2 seconds busy over 2 workers × 2 seconds of parallel-stage wall.
        assert!((tm.thread_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(PlannerMetrics::default().thread_utilization(), 0.0);
    }

    #[test]
    fn stage_spans_follow_execution_order_and_skip_idle_stages() {
        let spans = sample().stage_spans();
        let names: Vec<&str> = spans.iter().map(|(n, _)| *n).collect();
        // merge/compose are 0.0 in the sample, so they must be absent.
        assert_eq!(
            names,
            vec![
                "spaces_intra",
                "beam",
                "edge_matrices",
                "prune",
                "segment_dp"
            ]
        );
        assert!(spans.iter().all(|&(_, s)| s > 0.0));
        assert!(PlannerMetrics::default().stage_spans().is_empty());
    }

    #[test]
    fn registry_carries_the_issue_required_keys() {
        let m = sample().to_metrics();
        assert_eq!(m.text_value("planner.strategy"), Some("beam:2"));
        assert_eq!(m.gauge_value("planner.beam_width"), Some(2.0));
        assert_eq!(m.gauge_value("planner.optimality_gap"), Some(0.125));
        assert_eq!(m.counter("planner.beam.states_dropped"), 15);
        assert!(m.timer_seconds("planner.stage.beam_seconds") > 0.0);
        assert_eq!(m.counter("planner.intra_evaluations"), 21);
        assert_eq!(m.counter("planner.edge_evaluations"), 68);
        assert_eq!(m.counter("planner.edge_terms"), 544);
        assert_eq!(m.counter("planner.edge_term_rows"), 200);
        assert_eq!(m.gauge_value("planner.unique_signatures"), Some(2.0));
        assert_eq!(m.counter("planner.cache.profile.misses"), 8);
        assert_eq!(m.counter("planner.cache.edge_matrix.hits"), 5);
        assert_eq!(m.counter("planner.cache.edge_matrix.aliased"), 2);
        assert_eq!(m.counter("planner.cache.warm_matrix.hits"), 9);
        assert_eq!(m.counter("planner.cache.warm_matrix.misses"), 3);
        assert_eq!(m.counter("planner.prune.states_pruned"), 6);
        assert_eq!(m.counter("planner.segment.00.states_pruned"), 6);
        assert_eq!(m.counter("planner.segment.00.bellman_relaxations"), 40);
        assert_eq!(m.counter("planner.segment.00.bellman_visited"), 12);
        assert_eq!(
            m.gauge_value("planner.peak_rss_bytes"),
            Some((1u64 << 20) as f64)
        );
        assert_eq!(m.gauge_value("planner.arena_bytes"), Some(3072.0));
        assert_eq!(m.gauge_value("planner.edge_planes"), Some(4.0));
        assert!(m.timer_seconds("planner.stage.prune_seconds") > 0.0);
        assert_eq!(m.timer_seconds("planner.stage.edge_prepare_seconds"), 0.75);
        assert!(m.timer_seconds("planner.stage.segment_dp_seconds") > 0.0);
        assert_eq!(m.gauge_value("planner.space.01.fc1.size"), Some(17.0));
        assert_eq!(m.gauge_value("planner.segment.00.rows"), Some(4.0));
        assert_eq!(
            m.histogram("planner.threads.busy_seconds").unwrap().count,
            2
        );
        let doc = m.to_json().render();
        assert!(doc.contains("planner.segment.00.sweep_seconds"));
    }
}
