//! Dominance pruning of interior partition states (planner scaling).
//!
//! Before the Bellman sweeps, a partition state `j` of an *interior* chain
//! node is dropped when an earlier state `i < j` of the same node is no worse
//! everywhere the DP can observe the node:
//!
//! * intra cost: `intra[i] ≤ intra[j]` (Eq. 7),
//! * memory: `mem[i] ≤ mem[j]`,
//! * boundary profile class: for every incident edge plane, state `i`'s
//!   column (incoming) / row (outgoing) is element-wise `≤` state `j`'s —
//!   i.e. against every possible neighbour state, `i` redistributes no more
//!   than `j`.
//!
//! Why this is bitwise-safe: every DP recursion touching an interior state
//! only *adds* that state's intra cost and incident edge entries
//! (Eqs. 11–12), and IEEE-754 addition is monotone in each argument
//! (`x ≤ y ⇒ fl(x + c) ≤ fl(y + c)`), so by induction every table entry
//! through `i` stays `≤` the matching entry through `j`. The argmin uses
//! strict `<` with ascending state order, so a dominated `j` (with its
//! dominator at a *smaller* index) can never be selected — removing it
//! changes no surviving value and no choice. Segment endpoints are exempt:
//! merges (Eq. 13) and layer joins (Eq. 14) *subtract* their intra cost, and
//! subtraction breaks the monotonicity argument — so only interior nodes
//! prune, which is also where the `O(P³)` sweep volume lives.

use std::collections::HashMap;
use std::sync::Arc;

use crate::arena::EdgeTables;

/// Structural identity of one node's prune inputs: its operator signature id
/// plus, per coalesced edge slot, the direction and the sorted interned
/// matrix-job ids summed into that slot. Nodes with equal keys see
/// bitwise-identical intra/memory vectors and edge planes, so they share one
/// survivor scan (every interior repeat of a stacked layer, for instance).
pub(crate) type PruneKey = (usize, Vec<(bool, Vec<usize>)>);

/// Outcome of one dominance pass over all interior nodes.
#[derive(Debug, Clone, Default)]
pub(crate) struct PruneReport {
    /// Per node: surviving state ids (ascending), or `None` for nodes left
    /// untouched (segment endpoints, or nothing pruned).
    pub kept: Vec<Option<Vec<u32>>>,
    /// Per node: states dropped.
    pub pruned: Vec<u64>,
}

impl PruneReport {
    /// Total states dropped across all nodes.
    pub fn total(&self) -> u64 {
        self.pruned.iter().sum()
    }

    /// States dropped from nodes strictly inside segment `(s, e)`.
    pub fn pruned_in_segment(&self, s: usize, e: usize) -> u64 {
        self.pruned[s + 1..e].iter().sum()
    }
}

/// One node's constraint views into the edge planes: columns of incoming
/// pairs, rows of outgoing pairs.
struct NodeEdges<'a> {
    /// `(plane, cols)` pairs where this node is the destination — state `j`
    /// reads column `j` (stride `cols`).
    incoming: Vec<(&'a [f64], usize)>,
    /// Planes where this node is the source — state `j` reads row `j`.
    outgoing: Vec<(&'a [f64], usize)>,
}

/// Runs the dominance pass. `sizes[n]` is node `n`'s state count; `intra`
/// and `mem` are the per-state Eq. 7 cost and memory vectors; `keys[n]` is
/// the node's structural [`PruneKey`] — equal keys reuse one survivor scan.
pub(crate) fn dominance_prune(
    segments: &[(usize, usize)],
    sizes: &[usize],
    intra: &[Arc<Vec<f64>>],
    mem: &[Arc<Vec<f64>>],
    edges: &EdgeTables,
    keys: &[PruneKey],
) -> PruneReport {
    let nodes = sizes.len();
    let mut endpoint = vec![false; nodes];
    for &(s, e) in segments {
        endpoint[s] = true;
        endpoint[e] = true;
    }
    let mut report = PruneReport {
        kept: vec![None; nodes],
        pruned: vec![0; nodes],
    };
    let mut memo: HashMap<&PruneKey, Vec<u32>> = HashMap::new();
    for n in 0..nodes {
        if endpoint[n] || sizes[n] < 2 {
            continue;
        }
        let kept = match memo.get(&keys[n]) {
            Some(kept) => kept.clone(),
            None => {
                let views = NodeEdges {
                    incoming: edges
                        .slots()
                        .filter(|&(_, dst, ..)| dst == n)
                        .map(|(.., cols, plane)| (plane, cols))
                        .collect(),
                    outgoing: edges
                        .slots()
                        .filter(|&(src, ..)| src == n)
                        .map(|(.., cols, plane)| (plane, cols))
                        .collect(),
                };
                let kept = prune_node(sizes[n], &intra[n], &mem[n], &views);
                memo.insert(&keys[n], kept.clone());
                kept
            }
        };
        if kept.len() < sizes[n] {
            report.pruned[n] = (sizes[n] - kept.len()) as u64;
            report.kept[n] = Some(kept);
        }
    }
    report
}

/// Survivor scan of one node: state `j` is dropped when some surviving
/// `i < j` passes the cheap summary prefilter and then the full
/// element-wise comparison on every constraint array.
fn prune_node(states: usize, intra: &[f64], mem: &[f64], views: &NodeEdges<'_>) -> Vec<u32> {
    // Summary prefilter: element-wise dominance implies dominance of the
    // column/row sums, so most candidate pairs reject on two comparisons
    // per edge instead of a full O(P) scan.
    let col_sums: Vec<Vec<f64>> = views
        .incoming
        .iter()
        .map(|&(plane, cols)| {
            let mut sums = vec![0.0; states];
            for row in plane.chunks(cols) {
                for (s, &v) in sums.iter_mut().zip(row) {
                    *s += v;
                }
            }
            sums
        })
        .collect();
    let row_sums: Vec<Vec<f64>> = views
        .outgoing
        .iter()
        .map(|&(plane, cols)| plane.chunks(cols).map(|row| row.iter().sum()).collect())
        .collect();

    let mut kept: Vec<u32> = Vec::with_capacity(states);
    'states: for j in 0..states {
        for &i in &kept {
            let i = i as usize;
            if intra[i] > intra[j] || mem[i] > mem[j] {
                continue;
            }
            if col_sums.iter().any(|s| s[i] > s[j]) || row_sums.iter().any(|s| s[i] > s[j]) {
                continue;
            }
            if dominates(i, j, views) {
                continue 'states; // j pruned
            }
        }
        kept.push(j as u32);
    }
    kept
}

/// Full element-wise check: `i`'s column/row `≤` `j`'s in every incident
/// plane (early exit on the first violated cell).
fn dominates(i: usize, j: usize, views: &NodeEdges<'_>) -> bool {
    for &(plane, cols) in &views.incoming {
        let rows = plane.len() / cols;
        for r in 0..rows {
            if plane[r * cols + i] > plane[r * cols + j] {
                return false;
            }
        }
    }
    for &(plane, cols) in &views.outgoing {
        let row_i = &plane[i * cols..(i + 1) * cols];
        let row_j = &plane[j * cols..(j + 1) * cols];
        if row_i.iter().zip(row_j).any(|(a, b)| a > b) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::Edge;

    fn arc(v: Vec<f64>) -> Arc<Vec<f64>> {
        Arc::new(v)
    }

    /// Distinct per-node keys: no survivor-scan sharing in these tests.
    fn keys(n: usize) -> Vec<PruneKey> {
        (0..n).map(|i| (i, Vec::new())).collect()
    }

    #[test]
    fn interior_dominated_state_is_pruned() {
        // Chain 0 → 1 → 2, node 1 interior with 3 states; state 2 is worse
        // than state 0 everywhere, state 1 is cheaper on the outgoing edge.
        let edges = [Edge::plain(0, 1), Edge::plain(1, 2)];
        let sizes = [2usize, 3, 2];
        let m01 = vec![1.0, 2.0, 1.5, 1.0, 2.0, 1.5]; // 2×3, col 2 ≥ col 0
        let m12 = vec![3.0, 3.0, 0.0, 0.0, 4.0, 4.0]; // 3×2, row 2 ≥ row 0
        let mats = [m01, m12];
        let arena = EdgeTables::per_edge(&edges, &sizes, &mats);
        let intra = vec![
            arc(vec![0.0; 2]),
            arc(vec![5.0, 9.0, 6.0]),
            arc(vec![0.0; 2]),
        ];
        let mem = vec![
            arc(vec![0.0; 2]),
            arc(vec![1.0, 1.0, 1.0]),
            arc(vec![0.0; 2]),
        ];
        let report = dominance_prune(&[(0, 2)], &sizes, &intra, &mem, &arena, &keys(3));
        assert_eq!(report.kept[1], Some(vec![0, 1]));
        assert_eq!(report.pruned, vec![0, 1, 0]);
        assert_eq!(report.total(), 1);
        assert_eq!(report.pruned_in_segment(0, 2), 1);
        // Endpoints are never pruned, whatever their vectors say.
        assert_eq!(report.kept[0], None);
        assert_eq!(report.kept[2], None);
    }

    #[test]
    fn pareto_incomparable_states_all_survive() {
        // State 1 beats state 0 on intra but loses on the edge: no pruning.
        let edges = [Edge::plain(0, 1), Edge::plain(1, 2)];
        let sizes = [1usize, 2, 1];
        let m01 = vec![1.0, 2.0];
        let m12 = vec![5.0, 1.0];
        let mats = [m01, m12];
        let arena = EdgeTables::per_edge(&edges, &sizes, &mats);
        let intra = vec![arc(vec![0.0]), arc(vec![9.0, 2.0]), arc(vec![0.0])];
        let mem = vec![arc(vec![0.0]), arc(vec![0.0, 0.0]), arc(vec![0.0])];
        let report = dominance_prune(&[(0, 2)], &sizes, &intra, &mem, &arena, &keys(3));
        assert_eq!(report.kept[1], None);
        assert_eq!(report.total(), 0);
    }

    #[test]
    fn memory_tie_break_blocks_pruning() {
        // Equal costs but state 1 uses less memory than its would-be
        // dominator: both survive.
        let edges = [Edge::plain(0, 1), Edge::plain(1, 2)];
        let sizes = [1usize, 2, 1];
        let mats = [vec![1.0, 1.0], vec![2.0, 2.0]];
        let arena = EdgeTables::per_edge(&edges, &sizes, &mats);
        let intra = vec![arc(vec![0.0]), arc(vec![3.0, 3.0]), arc(vec![0.0])];
        let mem = vec![arc(vec![0.0]), arc(vec![8.0, 4.0]), arc(vec![0.0])];
        let report = dominance_prune(&[(0, 2)], &sizes, &intra, &mem, &arena, &keys(3));
        assert_eq!(report.kept[1], None);
        // With equal memory the tie resolves to the earlier state.
        let mem_eq = vec![arc(vec![0.0]), arc(vec![4.0, 4.0]), arc(vec![0.0])];
        let report = dominance_prune(&[(0, 2)], &sizes, &intra, &mem_eq, &arena, &keys(3));
        assert_eq!(report.kept[1], Some(vec![0]));
    }
}
