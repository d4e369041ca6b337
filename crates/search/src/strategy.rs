//! Search strategies over the segmented DP: exact, beam, anytime.
//!
//! The exact planner sweeps every interior partition state (Eqs. 11–14).
//! [`SearchStrategy::Beam`] keeps, per *interior* node, only the `width`
//! states with the best heuristic score before the stage-2 edge matrices are
//! built, so the `O(P³)` Bellman volume *and* the `O(P²)` matrix setup both
//! shrink. [`SearchStrategy::Anytime`] reruns the beam with doubling widths
//! until the space is covered, a deadline passes, or a
//! [`SearchInterrupt`] fires — always returning the best plan found so far
//! plus an upper bound on the optimality gap.
//!
//! # Beam admissibility (DESIGN §14)
//!
//! The heuristic `h(n, i) = intra[n][i] + Σ_{edges at n} probe(edge, i)`
//! scores state `i` of node `n` by its Eq. 7 intra cost plus, per incident
//! edge, the Eqs. 8–9 redistribution cost against the neighbour pinned at
//! its *anchor* state (its intra-cost argmin, ties to the lowest index).
//! Three properties follow:
//!
//! * **Width independence** — `h` never looks at `width`, so the kept sets
//!   are nested: `kept(w) ⊆ kept(w+1)`. The DP optimum over a superset of
//!   states is never worse, so beam cost is monotone non-increasing in
//!   width and never below the exact cost (the proptests pin both).
//! * **No-op at full width** — a node whose space fits inside the beam is
//!   left untouched (same `Arc`, no probe evaluated), so `beam(∞)` runs the
//!   byte-for-byte exact pipeline (the equivalence suite pins bitwise
//!   identity).
//! * **Endpoint exemption** — segment endpoints are never beamed, for the
//!   same reason dominance pruning exempts them: merges (Eq. 13) and layer
//!   joins (Eq. 14) *subtract* endpoint intra costs, and the stackability
//!   test compares endpoint spaces for equality.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use primepar_cost::{matrix_job_ids, CacheStats, CostCtx, EdgeCostCache, PreparedEdge};
use primepar_graph::{Edge, Graph};
use primepar_partition::PartitionSeq;

use crate::dp::PassState;

/// How the planner explores the per-operator partition spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// The full Bellman/min-plus sweep over every enumerated state — the
    /// provably optimal default.
    #[default]
    Exact,
    /// One pass with each interior node restricted to its `width`
    /// best-scoring states (see the module docs for the heuristic).
    Beam {
        /// States kept per interior node; `width ≥ 1`.
        width: usize,
    },
    /// Beam passes with doubling widths (1, 2, 4, …) until every interior
    /// space is covered, `budget_ms` of wall clock elapses, or the planner's
    /// [`SearchInterrupt`] fires. At least one pass always completes, so an
    /// expired budget still yields a valid plan.
    Anytime {
        /// Wall-clock budget in milliseconds (`0` runs exactly one
        /// width-1 pass).
        budget_ms: u64,
    },
}

impl fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchStrategy::Exact => write!(f, "exact"),
            SearchStrategy::Beam { width } => write!(f, "beam:{width}"),
            SearchStrategy::Anytime { budget_ms } => write!(f, "anytime:{budget_ms}ms"),
        }
    }
}

impl FromStr for SearchStrategy {
    type Err = String;

    /// Parses `exact`, `beam:WIDTH` and `anytime:BUDGET[ms]` (the canonical
    /// forms [`Display`](fmt::Display) emits).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s == "exact" {
            return Ok(SearchStrategy::Exact);
        }
        if let Some(width) = s.strip_prefix("beam:") {
            let width: usize = width
                .parse()
                .map_err(|_| format!("bad beam width: {width} (expected beam:WIDTH)"))?;
            if width == 0 {
                return Err("beam width must be >= 1".into());
            }
            return Ok(SearchStrategy::Beam { width });
        }
        if let Some(budget) = s.strip_prefix("anytime:") {
            let digits = budget.strip_suffix("ms").unwrap_or(budget);
            let budget_ms: u64 = digits
                .parse()
                .map_err(|_| format!("bad anytime budget: {budget} (expected anytime:MILLISms)"))?;
            return Ok(SearchStrategy::Anytime { budget_ms });
        }
        Err(format!(
            "unknown strategy: {s} (expected exact, beam:WIDTH or anytime:MILLISms)"
        ))
    }
}

/// A shared stop flag the anytime driver polls between beam rounds. Clones
/// share the flag. The service's per-request stop flag is one of these, so
/// a cancelled or deadline-expired anytime request makes the search stop
/// widening and answer with the best plan found so far instead of
/// `cancelled`.
#[derive(Debug, Clone, Default)]
pub struct SearchInterrupt(Arc<AtomicBool>);

impl SearchInterrupt {
    /// A fresh, unset interrupt.
    pub fn new() -> Self {
        SearchInterrupt::default()
    }

    /// Requests the search stop at the next round boundary.
    pub fn interrupt(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether an interrupt has been requested.
    pub fn is_interrupted(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Per-node kept sets for a beam of `width`: `Some(ascending state ids)` for
/// each interior node whose space exceeds the width, `None` for everything
/// left untouched (endpoints, and nodes already inside the beam). Probes
/// are prepared once per interned matrix-job id and direction — nodes of
/// equal structural signature share anchors, spaces and intra vectors, so
/// the memoized probe is bitwise the one a fresh evaluation would produce.
///
/// Probes route through the pass's [`EdgeCostCache`], which keys profiles
/// and volume planes by layout, sequence list included: the probed node's
/// full-space side profiles are the very ones stage 2 reuses for the
/// never-beamed endpoints instead of rebuilding them, an anchored
/// single-state side can never collide with a full-space one, and a warm
/// cache serves a probe's plane to every later run with the same anchors.
/// Each probe cell is priced as it is added into the score.
pub(crate) fn beam_kept(
    graph: &Graph,
    ctx: &CostCtx<'_>,
    cache: &Mutex<EdgeCostCache>,
    stats: &mut CacheStats,
    state: &PassState,
    width: usize,
) -> Vec<Option<Vec<u32>>> {
    let (spaces, intra) = (&state.spaces, &state.intra);
    // Anchor: each node's cheapest state by intra cost, ties to the lowest
    // index — width-independent, so kept sets nest across widths.
    let anchors: Vec<usize> = intra
        .iter()
        .map(|v| {
            v.iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite intra cost"))
                .map(|(i, _)| i)
                .expect("non-empty space")
        })
        .collect();
    let jobs = matrix_job_ids(&graph.edges, &state.sig_ids);
    // (job id, node-is-src) → the prepared probe over the node's full space.
    let mut probes: HashMap<(usize, bool), PreparedEdge> = HashMap::new();
    let prepare = |stats: &mut CacheStats, edge: &Edge, src: &[PartitionSeq], dst| {
        let mut cache = cache.lock().expect("edge cache lock");
        let (src, dst) = (cache.list(src), cache.list(dst));
        cache.prepare(
            stats,
            edge,
            &graph.ops[edge.src],
            &graph.ops[edge.dst],
            src,
            dst,
        )
    };
    let mut kept: Vec<Option<Vec<u32>>> = vec![None; spaces.len()];
    for n in 0..spaces.len() {
        if state.endpoint[n] || spaces[n].len() <= width {
            continue;
        }
        let mut h: Vec<f64> = intra[n].to_vec();
        for (e, edge) in graph.edges.iter().enumerate() {
            let probe = if edge.dst == n {
                probes.entry((jobs[e], false)).or_insert_with(|| {
                    let anchor = std::slice::from_ref(&spaces[edge.src][anchors[edge.src]]);
                    prepare(stats, edge, anchor, &spaces[n])
                })
            } else if edge.src == n {
                probes.entry((jobs[e], true)).or_insert_with(|| {
                    let anchor = std::slice::from_ref(&spaces[edge.dst][anchors[edge.dst]]);
                    prepare(stats, edge, &spaces[n], anchor)
                })
            } else {
                continue;
            };
            let bytes = probe.plane(ctx);
            debug_assert_eq!(bytes.len(), h.len(), "probe shape mismatch");
            for (hi, &b) in h.iter_mut().zip(bytes) {
                *hi += ctx.redistribution_time(b);
            }
        }
        // Top `width` by (score, state index), re-sorted ascending so the
        // restricted space preserves the exact DP's state order.
        let mut order: Vec<u32> = (0..h.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            h[a as usize]
                .partial_cmp(&h[b as usize])
                .expect("finite heuristic")
                .then(a.cmp(&b))
        });
        let mut keep = order[..width].to_vec();
        keep.sort_unstable();
        kept[n] = Some(keep);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_forms_round_trip() {
        for (text, strategy) in [
            ("exact", SearchStrategy::Exact),
            ("beam:8", SearchStrategy::Beam { width: 8 }),
            ("anytime:500ms", SearchStrategy::Anytime { budget_ms: 500 }),
        ] {
            assert_eq!(text.parse::<SearchStrategy>().unwrap(), strategy);
            assert_eq!(strategy.to_string(), text);
        }
        // The bare-millis spelling parses to the same strategy.
        assert_eq!(
            "anytime:200".parse::<SearchStrategy>().unwrap(),
            SearchStrategy::Anytime { budget_ms: 200 }
        );
        assert_eq!(SearchStrategy::default(), SearchStrategy::Exact);
    }

    #[test]
    fn bad_strategies_are_rejected_with_context() {
        for bad in [
            "",
            "beams:3",
            "beam:",
            "beam:0",
            "beam:x",
            "anytime:",
            "anytime:5s",
        ] {
            let err = bad.parse::<SearchStrategy>().unwrap_err();
            assert!(!err.is_empty(), "{bad:?} must not parse");
        }
        assert!("beam:0"
            .parse::<SearchStrategy>()
            .unwrap_err()
            .contains(">= 1"));
    }

    #[test]
    fn interrupt_is_shared_through_clones_and_flags() {
        let interrupt = SearchInterrupt::new();
        let sibling = interrupt.clone();
        assert!(!sibling.is_interrupted());
        interrupt.interrupt();
        assert!(sibling.is_interrupted());
        let own = SearchInterrupt::new();
        assert!(!own.is_interrupted());
        own.interrupt();
        assert!(own.is_interrupted());
    }
}
