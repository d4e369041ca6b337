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
//!
//! The survivor scan visits states in ascending order and keeps `j` unless
//! a state kept so far is no worse everywhere — "no worse" is `!(a > b)`,
//! so a NaN never blocks dominance. That defines the kept set; how the scan
//! finds a dominator does not change it. Order is free because the set of
//! survivors below `j` is fixed by the time `j` is decided. Any extra
//! necessary condition is free too: it only rejects pairs the full check
//! would reject. Without NaN, `≤` is transitive, so a state some pruned
//! state dominates is also dominated by that state's own dominator, and
//! the kept set is "no earlier state dominates `j`".
//!
//! The scan narrows each `j`'s candidates by necessary conditions, cheapest
//! first: intra, memory and one total per incident plane (per-state sums;
//! fl addition is monotone, so element-wise `≤` implies `≤` of sums folded
//! in the same order), tested for all survivors at once as an AND of
//! per-summary bitsets; then each plane's column or row as at most
//! [`BLOCKS`] block sums; then [`WITNESSES`] cells where the latest full
//! checks failed; then every cell. On the Table-2 point (OPT-6.7B, 16
//! devices) the bitsets leave 17,273 of 153,816 survivor pairs, block sums
//! 1,521, witnesses 145 full checks over 10,557 cells, and 8 states are
//! dominated. The pairwise scan this replaced made 16,598 full checks over
//! 848,931 cells.

use std::collections::HashMap;
use std::sync::Arc;

use primepar_graph::Edge;

use crate::arena::EdgeTables;

/// Structural identity of one node's prune inputs: its operator signature id
/// plus, per coalesced edge slot, the direction and the sorted interned
/// matrix-job ids summed into that slot. Nodes with equal keys see
/// bitwise-identical intra/memory vectors and edge planes, so they share one
/// survivor scan (every interior repeat of a stacked layer, for instance).
pub(crate) type PruneKey = (usize, Vec<(bool, Vec<usize>)>);

/// Each node's [`PruneKey`] from the graph's `edges`, each edge's interned
/// matrix-job id `jobs[e]` and the nodes' signature ids.
pub(crate) fn prune_keys(edges: &[Edge], jobs: &[usize], sig_ids: &[usize]) -> Vec<PruneKey> {
    (0..sig_ids.len())
        .map(|n| {
            let mut slots: HashMap<(usize, bool), Vec<usize>> = HashMap::new();
            for (edge, &job) in edges.iter().zip(jobs) {
                if edge.dst == n {
                    slots.entry((edge.src, true)).or_default().push(job);
                } else if edge.src == n {
                    slots.entry((edge.dst, false)).or_default().push(job);
                }
            }
            let mut slots: Vec<(bool, Vec<usize>)> = slots
                .into_iter()
                .map(|((_, incoming), mut jobs)| {
                    jobs.sort_unstable();
                    (incoming, jobs)
                })
                .collect();
            slots.sort_unstable();
            (sig_ids[n], slots)
        })
        .collect()
}

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
    /// States dropped from nodes strictly inside segment `(s, e)`.
    pub fn pruned_in_segment(&self, s: usize, e: usize) -> u64 {
        self.pruned[s + 1..e].iter().sum()
    }
}

/// One incident edge plane as a node's states read it: state `s` owns a
/// column of an incoming plane (`s` is the pair's destination) or a row of
/// an outgoing one. Its cell `t` is the neighbour state `t`.
#[derive(Clone, Copy)]
struct View<'a> {
    plane: &'a [f64],
    cols: usize,
    incoming: bool,
}

impl View<'_> {
    /// Cells per state.
    fn cells(&self) -> usize {
        if self.incoming {
            self.plane.len() / self.cols
        } else {
            self.cols
        }
    }

    /// State `s`'s cell `t`.
    fn at(&self, s: usize, t: usize) -> f64 {
        if self.incoming {
            self.plane[t * self.cols + s]
        } else {
            self.plane[s * self.cols + t]
        }
    }

    /// Cuts each state's cells into `blocks` consecutive runs and sums each
    /// run in cell order into `out[s * stride + k]`, `k` the run.
    fn block_sums(&self, blocks: usize, out: &mut [f64], stride: usize) {
        let cells = self.cells();
        let start = |k: usize| k * cells / blocks;
        if self.incoming {
            let mut sums = vec![0.0; self.cols];
            for k in 0..blocks {
                sums.fill(0.0);
                let rows = &self.plane[start(k) * self.cols..start(k + 1) * self.cols];
                for row in rows.chunks(self.cols) {
                    for (sum, &v) in sums.iter_mut().zip(row) {
                        *sum += v;
                    }
                }
                for (s, &sum) in sums.iter().enumerate() {
                    out[s * stride + k] = sum;
                }
            }
        } else {
            for (row, sums) in self.plane.chunks(self.cols).zip(out.chunks_mut(stride)) {
                for (k, sum) in sums[..blocks].iter_mut().enumerate() {
                    *sum = row[start(k)..start(k + 1)].iter().sum();
                }
            }
        }
    }

    /// The first cell where `i` exceeds `j`, if any.
    fn violation(&self, i: usize, j: usize) -> Option<usize> {
        if self.incoming {
            (0..self.cells()).find(|&t| self.at(i, t) > self.at(j, t))
        } else {
            let row_i = &self.plane[i * self.cols..][..self.cols];
            let row_j = &self.plane[j * self.cols..][..self.cols];
            row_i.iter().zip(row_j).position(|(a, b)| a > b)
        }
    }
}

/// Runs of cells a block sum covers: each state's column or row in an
/// incident plane is summed in at most this many consecutive runs.
const BLOCKS: usize = 8;

/// Witness cells a scan keeps: the cells, as `(view, cell)`, where the
/// latest full checks failed, most recent first.
const WITNESSES: usize = 4;

/// Runs the dominance pass over the nodes `endpoint` leaves interior.
/// `intra` and `mem` are the per-state Eq. 7 cost and memory vectors;
/// `keys[n]` is the node's structural [`PruneKey`] — equal keys reuse one
/// survivor scan.
pub(crate) fn dominance_prune(
    endpoint: &[bool],
    intra: &[Arc<Vec<f64>>],
    mem: &[Arc<Vec<f64>>],
    edges: &EdgeTables,
    keys: &[PruneKey],
) -> PruneReport {
    let nodes = intra.len();
    let mut report = PruneReport {
        kept: vec![None; nodes],
        pruned: vec![0; nodes],
    };
    let mut memo: HashMap<&PruneKey, Vec<u32>> = HashMap::new();
    for n in 0..nodes {
        let states = intra[n].len();
        if endpoint[n] || states < 2 {
            continue;
        }
        let kept = match memo.get(&keys[n]) {
            Some(kept) => kept.clone(),
            None => {
                // Outgoing rows first: they are contiguous, and on the
                // Table-2 point and the chain they fail sooner.
                let mut views: Vec<View<'_>> = edges
                    .slots()
                    .filter(|&(src, dst, ..)| src == n || dst == n)
                    .map(|(_, dst, _, cols, plane)| View {
                        plane,
                        cols,
                        incoming: dst == n,
                    })
                    .collect();
                views.sort_by_key(|v| v.incoming);
                let kept = prune_node(&intra[n], &mem[n], &views);
                memo.insert(&keys[n], kept.clone());
                kept
            }
        };
        if kept.len() < states {
            report.pruned[n] = (states - kept.len()) as u64;
            report.kept[n] = Some(kept);
        }
    }
    report
}

/// Survivor scan of one node, states in ascending order; `j` survives
/// unless a survivor dominates it. Each state is summarised by its intra
/// cost, its memory, and per incident plane its column/row cut into block
/// sums and their total. The scan narrows `j`'s possible dominators by
/// necessary conditions, cheapest first:
///
/// 1. intra, memory and every total, as one AND of bitsets per word: the
///    survivors with each summary not above `j`'s;
/// 2. every block sum, compared branch-free;
/// 3. the witness cells, where the latest full checks failed;
/// 4. every cell, until one fails — that cell becomes the newest witness.
fn prune_node(intra: &[f64], mem: &[f64], views: &[View<'_>]) -> Vec<u32> {
    let states = intra.len();
    let words = states.div_ceil(64);
    // Element-wise `≤` implies `≤` of sums folded in the same order, and of
    // sums of those sums: fl addition is monotone, and a NaN cell makes a
    // NaN sum, which passes.
    let blocks: Vec<usize> = views.iter().map(|v| v.cells().min(BLOCKS)).collect();
    let width: usize = blocks.iter().sum();
    let mut fine = vec![0.0; states * width];
    let mut totals: Vec<Vec<f64>> = Vec::with_capacity(views.len());
    let mut offset = 0;
    for (view, &b) in views.iter().zip(&blocks) {
        view.block_sums(b, &mut fine[offset..], width);
        totals.push(
            fine.chunks(width)
                .map(|f| f[offset..offset + b].iter().sum())
                .collect(),
        );
        offset += b;
    }
    let not_above: Vec<Vec<u64>> = [intra, mem]
        .into_iter()
        .chain(totals.iter().map(Vec::as_slice))
        .map(|summary| not_above(summary, words))
        .collect();
    let mut alive = vec![0u64; words];
    let mut candidates = vec![0u64; words];
    let mut witnesses: Vec<(usize, usize)> = Vec::with_capacity(WITNESSES + 1);
    'states: for j in 0..states {
        candidates.copy_from_slice(&alive);
        for sets in &not_above {
            for (c, &s) in candidates.iter_mut().zip(&sets[j * words..]) {
                *c &= s;
            }
        }
        let fine_j = &fine[j * width..][..width];
        for i in ones(&candidates) {
            let fine_i = &fine[i * width..][..width];
            if fine_i
                .iter()
                .zip(fine_j)
                .fold(false, |above, (a, b)| above | (a > b))
            {
                continue;
            }
            if witnesses
                .iter()
                .any(|&(v, t)| views[v].at(i, t) > views[v].at(j, t))
            {
                continue;
            }
            match (0..views.len()).find_map(|v| views[v].violation(i, j).map(|t| (v, t))) {
                None => continue 'states, // j pruned
                Some(cell) => {
                    witnesses.insert(0, cell);
                    witnesses.truncate(WITNESSES);
                }
            }
        }
        alive[j / 64] |= 1 << (j % 64);
    }
    ones(&alive).map(|s| s as u32).collect()
}

/// For each state `j`, `words` bitset words at `j * words` holding every
/// state before `j` whose entry of `values` is not above `j`'s
/// (`!(v > values[j])`), plus later states the scan never asks about. A
/// NaN entry is not above any other, and nothing is above a NaN entry.
/// Sorting by `(key, state)` puts every earlier equal entry before `j`.
fn not_above(values: &[f64], words: usize) -> Vec<u64> {
    let mut below = vec![0u64; words];
    let mut order: Vec<(u64, u32)> = Vec::with_capacity(values.len());
    for (s, &v) in values.iter().enumerate() {
        if v.is_nan() {
            below[s / 64] |= 1 << (s % 64);
        } else {
            order.push((order_key(v), s as u32));
        }
    }
    order.sort_unstable();
    let mut sets = vec![!0u64; values.len() * words];
    for (_, s) in order {
        let s = s as usize;
        below[s / 64] |= 1 << (s % 64);
        sets[s * words..][..words].copy_from_slice(&below);
    }
    sets
}

/// A key whose unsigned order is the order of non-NaN `v`, with `-0.0`
/// and `+0.0` equal.
fn order_key(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The indices of the set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &bits)| {
        std::iter::successors((bits != 0).then_some(bits), |&b| {
            let rest = b & (b - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |b| w * 64 + b.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(v: Vec<f64>) -> Arc<Vec<f64>> {
        Arc::new(v)
    }

    /// The three-node chain of every test: node 1 is interior.
    const ENDPOINTS: [bool; 3] = [true, false, true];

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
        let report = dominance_prune(&ENDPOINTS, &intra, &mem, &arena, &keys(3));
        assert_eq!(report.kept[1], Some(vec![0, 1]));
        assert_eq!(report.pruned, vec![0, 1, 0]);
        assert_eq!(report.pruned.iter().sum::<u64>(), 1);
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
        let report = dominance_prune(&ENDPOINTS, &intra, &mem, &arena, &keys(3));
        assert_eq!(report.kept[1], None);
        assert_eq!(report.pruned.iter().sum::<u64>(), 0);
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
        let report = dominance_prune(&ENDPOINTS, &intra, &mem, &arena, &keys(3));
        assert_eq!(report.kept[1], None);
        // With equal memory the tie resolves to the earlier state.
        let mem_eq = vec![arc(vec![0.0]), arc(vec![4.0, 4.0]), arc(vec![0.0])];
        let report = dominance_prune(&ENDPOINTS, &intra, &mem_eq, &arena, &keys(3));
        assert_eq!(report.kept[1], Some(vec![0]));
    }

    /// `a` is nowhere above `b`: the definition's `≤` on every entry, which
    /// a NaN on either side passes.
    fn nowhere_above(a: &[f64], b: &[f64]) -> bool {
        !a.iter().zip(b).any(|(x, y)| x > y)
    }

    /// The definition by brute force: `j` survives unless some `i < j` is
    /// nowhere above it. Without NaN, `≤` is transitive and this equals
    /// the survivor scan.
    fn brute_force(states: &[Vec<f64>]) -> Vec<u32> {
        (0..states.len())
            .filter(|&j| !(0..j).any(|i| nowhere_above(&states[i], &states[j])))
            .map(|j| j as u32)
            .collect()
    }

    /// The pairwise scan the columnar filter replaced: `j` survives unless
    /// an earlier *survivor* is nowhere above it. NaN breaks transitivity,
    /// so this, not [`brute_force`], is the definition with NaN entries.
    fn pairwise_scan(states: &[Vec<f64>]) -> Vec<u32> {
        let mut kept: Vec<u32> = Vec::new();
        for (j, state) in states.iter().enumerate() {
            if !kept
                .iter()
                .any(|&i| nowhere_above(&states[i as usize], state))
            {
                kept.push(j as u32);
            }
        }
        kept
    }

    /// Prunes a star around interior node 0: `states[s]` is state `s`'s
    /// intra cost, memory, then its cells in the plane from each of
    /// `sizes_in`'s neighbours (a column) and to each of `sizes_out`'s (a
    /// row). Returns the kept states.
    fn prune_star(states: &[Vec<f64>], sizes_in: &[usize], sizes_out: &[usize]) -> Vec<u32> {
        let p = states.len();
        let neighbours = sizes_in.iter().chain(sizes_out);
        let sizes: Vec<usize> = std::iter::once(p).chain(neighbours.copied()).collect();
        let mut edges = Vec::new();
        let mut mats = Vec::new();
        let mut at = 2;
        for (k, &size) in sizes.iter().enumerate().skip(1) {
            let incoming = k <= sizes_in.len();
            let cell = |s: usize, t: usize| states[s][at + t];
            let mat: Vec<f64> = if incoming {
                edges.push(Edge::plain(k, 0));
                (0..size)
                    .flat_map(|t| (0..p).map(move |s| cell(s, t)))
                    .collect()
            } else {
                edges.push(Edge::plain(0, k));
                (0..p)
                    .flat_map(|s| (0..size).map(move |t| cell(s, t)))
                    .collect()
            };
            mats.push(mat);
            at += size;
        }
        let arena = EdgeTables::per_edge(&edges, &sizes, &mats);
        let column = |e: usize| arc(states.iter().map(|v| v[e]).collect());
        let filler = |n: usize| arc(vec![0.0; n]);
        let intra: Vec<_> = std::iter::once(column(0))
            .chain(sizes[1..].iter().map(|&n| filler(n)))
            .collect();
        let mem: Vec<_> = std::iter::once(column(1))
            .chain(sizes[1..].iter().map(|&n| filler(n)))
            .collect();
        let endpoint: Vec<bool> = (0..sizes.len()).map(|n| n > 0).collect();
        let report = dominance_prune(&endpoint, &intra, &mem, &arena, &keys(sizes.len()));
        report.kept[0]
            .clone()
            .unwrap_or_else(|| (0..p as u32).collect())
    }

    #[test]
    fn nan_infinities_and_signed_zeros_keep_the_scan_semantics() {
        // Only `a > b` rejects a pair: a NaN on either side never blocks
        // dominance, `±∞` compare as ordered, and `-0.0` equals `+0.0`.
        let zero_pair = vec![vec![0.0, 1.0, -0.0, 2.0], vec![-0.0, 1.0, 0.0, 2.0]];
        assert_eq!(prune_star(&zero_pair, &[1], &[1]), vec![0]);
        let infinite = vec![
            vec![f64::INFINITY, 0.0, 1.0],
            vec![f64::INFINITY, 0.0, f64::INFINITY],
            vec![f64::NEG_INFINITY, 0.0, f64::INFINITY],
        ];
        assert_eq!(prune_star(&infinite, &[], &[1]), vec![0, 2]);
        // NaN is not transitive: state 0 dominates the NaN state 1, which
        // would dominate state 2 — but 1 does not survive to do it, and 0
        // is above 2. The scan keeps 2; the brute force over every earlier
        // state would not.
        let chain = vec![
            vec![1.0, 0.0, 5.0],
            vec![f64::NAN, 0.0, 5.0],
            vec![0.0, 0.0, 5.0],
        ];
        assert_eq!(prune_star(&chain, &[1], &[]), vec![0, 2]);
        assert_eq!(brute_force(&chain), vec![0]);
        // Random landscapes over a poisoned alphabet, every entry possibly
        // NaN, ±∞ or a signed zero, on every summary and cell; planes of up
        // to 13 cells reach the witness and full checks.
        let alphabet = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            2.0,
        ];
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..200 {
            let sizes_in = &[3 + case % 10, 2][..case % 3];
            let sizes_out = [1 + case % 13];
            let width = 2 + sizes_in.iter().chain(&sizes_out).sum::<usize>();
            let states: Vec<Vec<f64>> = (0..2 + case % 11)
                .map(|_| {
                    (0..width)
                        .map(|_| alphabet[(draw() % 7) as usize])
                        .collect()
                })
                .collect();
            assert_eq!(
                prune_star(&states, sizes_in, &sizes_out),
                pairwise_scan(&states),
                "case {case}: {states:?}"
            );
        }
    }

    #[test]
    fn equal_keys_share_one_scan_with_the_separate_result() {
        // Chain 0 → 1 → 2 → 3 → 4 with endpoints 0 and 4. Nodes 1 and 3 see
        // bitwise-equal landscapes (incoming plane, intra, memory, outgoing
        // plane); node 2 sits between them.
        let edges: Vec<Edge> = (0..4).map(|n| Edge::plain(n, n + 1)).collect();
        let sizes = [2usize, 4, 2, 4, 2];
        let m_in = vec![1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 2.0, 3.0]; // 2×4
        let m_out = vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 2.0]; // 4×2
        let mats = [m_in.clone(), m_out.clone(), m_in, m_out];
        let arena = EdgeTables::per_edge(&edges, &sizes, &mats);
        let spaced = |v: Vec<f64>| -> Vec<Arc<Vec<f64>>> {
            let v = arc(v);
            let end = arc(vec![0.0; 2]);
            vec![end.clone(), v.clone(), arc(vec![1.0, 0.0]), v, end]
        };
        let intra = spaced(vec![1.0, 1.0, 0.5, 2.0]);
        let mem = spaced(vec![1.0, 1.0, 1.0, 1.0]);
        let endpoint = [true, false, false, false, true];
        let separate = dominance_prune(&endpoint, &intra, &mem, &arena, &keys(5));
        let mut shared = keys(5);
        shared[3] = shared[1].clone();
        let once = dominance_prune(&endpoint, &intra, &mem, &arena, &shared);
        assert_eq!(separate.kept, once.kept);
        assert_eq!(separate.pruned, once.pruned);
        assert_eq!(once.kept[1], Some(vec![0, 1, 2]));
        assert_eq!(once.kept[3], once.kept[1]);
        // The key alone decides: node 3 under node 1's key takes node 1's
        // survivors without a scan of its own, whatever its landscape says.
        let mut flat = mem.clone();
        flat[3] = arc(vec![1.0, 1.0, 1.0, 0.0]);
        let reused = dominance_prune(&endpoint, &intra, &flat, &arena, &shared);
        assert_eq!(reused.kept[3], Some(vec![0, 1, 2]));
        let scanned = dominance_prune(&endpoint, &intra, &flat, &arena, &keys(5));
        assert_eq!(scanned.kept[3], None);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Entries per state at most: intra, memory and six planes' cells.
        const WIDEST: usize = 2 + 6 * 19;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// The scan returns the definition's kept set on tie-heavy
            /// landscapes: entries from {0, 1, 2, +∞}, duplicated and
            /// near-duplicated states (a copy with up to three neighbouring
            /// entries redrawn), and 0–3 incoming and 0–3 outgoing planes.
            /// Neighbours of up to 19 states give planes more cells per
            /// state than block sums, so witnesses and full checks run too.
            #[test]
            fn scan_matches_the_brute_force_definition(
                p in 2usize..14,
                n_in in 0usize..4,
                n_out in 0usize..4,
                sizes in proptest::collection::vec(1usize..20, 6),
                copies in proptest::collection::vec(0usize..20, 14),
                edits in proptest::collection::vec((0usize..WIDEST, 0u8..4, 0u8..4), 14),
                pool in proptest::collection::vec(0u8..4, 14 * WIDEST),
            ) {
                let (sizes_in, sizes_out) = (&sizes[..n_in], &sizes[3..3 + n_out]);
                let width = 2 + sizes_in.iter().chain(sizes_out).sum::<usize>();
                let alphabet = [0.0, 1.0, 2.0, f64::INFINITY];
                let mut states: Vec<Vec<f64>> = pool
                    .chunks(WIDEST)
                    .take(p)
                    .map(|v| v[..width].iter().map(|&k| alphabet[usize::from(k)]).collect())
                    .collect();
                for j in 1..p {
                    if copies[j] < j {
                        states[j] = states[copies[j]].clone();
                        // Redraw up to three neighbouring entries: a
                        // change and its compensation inside one block sum.
                        let (at, value, times) = edits[j];
                        for (e, step) in [0, 1, width - 1].into_iter().enumerate() {
                            if e < usize::from(times) {
                                let k = usize::from(value) ^ e;
                                states[j][(at + step) % width] = alphabet[k];
                            }
                        }
                    }
                }
                let kept = prune_star(&states, sizes_in, sizes_out);
                prop_assert_eq!(&kept, &brute_force(&states));
                prop_assert_eq!(&kept, &pairwise_scan(&states));
            }
        }
    }
}
