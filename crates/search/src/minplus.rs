//! Vectorizable, multi-threaded min-plus kernels for the segmented DP.
//!
//! The Bellman extension (Eq. 12), the segment merge (Eq. 13) and the layer
//! doubling (Eq. 14) are all min-plus matrix products. A scalar loop walks
//! the chain matrix column-wise (`chain[p·C + nc]` with `p` innermost),
//! touching one cache line per element; these kernels instead tile the
//! output into fixed-width lanes of [`LANES`] `f64`s with a scalar tail, so
//! the row-min reduction becomes `LANES` independent running minima the
//! autovectorizer can keep in SIMD registers (compare + blend, no cross-lane
//! dependency). The candidate *order* per output cell is the scalar one
//! (ascending interior state, strict `<`), and every sum keeps the scalar
//! association — results are bitwise-identical to the per-cell scalar rows,
//! which survive only as the tests' oracle.
//!
//! The kernels compute costs only. Eqs. 12–13 also skip every candidate
//! that provably cannot reach a tile's minimum; [`min_row`] states the
//! bound and why the result stays bitwise. The backtrack recomputes the
//! argmins it needs on its own path, with two scalar scans kept here beside
//! the products they invert: [`extend_row_argmin`] re-sweeps one Bellman
//! row, [`merge_argmin`] resolves one merged cell. Both scan candidates in
//! the kernels' order with their strict `<`, so they name the first
//! minimizer of the very sums the kernels reduced.
//!
//! All three products parallelize over output rows and write into
//! caller-provided planes, so the hot loop does no allocation. Per-worker
//! busy seconds accumulate into the planner's `thread_busy_seconds` slots.

use std::time::Instant;

/// Fixed lane width of the vectorized kernels: 8 `f64`s — one 64-byte cache
/// line, two AVX2 registers or one AVX-512 register.
const LANES: usize = 8;

/// Runs `row_fn(r, cost_row)` for every `width`-wide row of `cost`, chunked
/// across `threads` scoped workers (serial when `threads <= 1`), adding
/// per-worker busy seconds into `busy`. Returns the sum of `row_fn`'s
/// counts.
fn drive(
    threads: usize,
    rows: usize,
    width: usize,
    cost: &mut [f64],
    busy: &mut [f64],
    row_fn: impl Fn(usize, &mut [f64]) -> u64 + Sync,
) -> u64 {
    if threads > 1 && rows > 1 {
        std::thread::scope(|scope| {
            let chunk = rows.div_ceil(threads).max(1);
            let mut handles = Vec::new();
            for (band, cost_band) in cost.chunks_mut(chunk * width).enumerate() {
                let row_fn = &row_fn;
                handles.push(scope.spawn(move || {
                    let sweep = Instant::now();
                    let mut count = 0;
                    for (i, out) in cost_band.chunks_mut(width).enumerate() {
                        count += row_fn(band * chunk + i, out);
                    }
                    (sweep.elapsed().as_secs_f64(), count)
                }));
            }
            let mut count = 0;
            for (slot, handle) in handles.into_iter().enumerate() {
                let (seconds, band_count) = handle.join().expect("min-plus worker");
                busy[slot] += seconds;
                count += band_count;
            }
            count
        })
    } else {
        let sweep = Instant::now();
        let mut count = 0;
        for (r, out) in cost.chunks_mut(width).enumerate() {
            count += row_fn(r, out);
        }
        busy[0] += sweep.elapsed().as_secs_f64();
        count
    }
}

/// Per-column minima of a row-major plane `width` wide, or `None` when the
/// plane holds a non-finite value — which turns the skip bound off.
fn column_minima(plane: &[f64], width: usize) -> Option<Vec<f64>> {
    if plane.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut min = vec![f64::INFINITY; width];
    for row in plane.chunks_exact(width) {
        for (m, &v) in min.iter_mut().zip(row) {
            if v < *m {
                *m = v;
            }
        }
    }
    Some(min)
}

/// One Bellman chain extension (Eq. 12): from the `rows × cols` table against
/// the `cols × new_cols` chain-edge matrix, adding the new endpoint's intra
/// cost and the optional segment-head edge, into the caller's `rows ×
/// new_cols` plane. Returns the candidates relaxed, in cells (see
/// [`min_row`]).
///
/// Output row `r` reads only input row `r`, head row `r` and the shared
/// chain matrix and intra vector, which is what lets [`extend_row_argmin`]
/// recompute one row alone.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bellman_costs(
    threads: usize,
    rows: usize,
    cols: usize,
    new_cols: usize,
    cost: &[f64],
    chain: &[f64],
    intra_j: &[f64],
    head: Option<&[f64]>,
    out_cost: &mut [f64],
    busy: &mut [f64],
) -> u64 {
    assert_eq!(out_cost.len(), rows * new_cols);
    assert_eq!(chain.len(), cols * new_cols);
    let chain_min = column_minima(chain, new_cols);
    drive(threads, rows, new_cols, out_cost, busy, |r, out_cost| {
        let row = &cost[r * cols..(r + 1) * cols];
        let head_row = head.map(|h| &h[r * new_cols..(r + 1) * new_cols]);
        let bound = chain_min
            .as_deref()
            .filter(|_| row.iter().all(|v| v.is_finite()));
        min_row(
            chain,
            bound,
            |p| {
                let base = row[p];
                move |c| base + c
            },
            |nc, best| {
                let v = best + intra_j[nc];
                head_row.map_or(v, |h| v + h[nc])
            },
            out_cost,
        )
    })
}

/// One row of [`bellman_costs`] with its argmins, for the backtrack: cell
/// `nc` of `out_cost` gets the row's Eq. 12 cost and `out_choice[nc]` the
/// previous-endpoint state that attains it. Candidate-outer: each `p` in
/// ascending order relaxes every cell with `row[p] + chain[p·new_cols +
/// nc]` under a strict `<`, then each cell adds `intra_j[nc]` and, if
/// present, `head_row[nc]`. Per cell that is the scalar row's candidate
/// order and association, so the costs are [`bellman_costs`]' bits and each
/// choice is the first minimizer.
pub(crate) fn extend_row_argmin(
    row: &[f64],
    chain: &[f64],
    intra_j: &[f64],
    head_row: Option<&[f64]>,
    out_cost: &mut [f64],
    out_choice: &mut [usize],
) {
    let new_cols = out_cost.len();
    out_cost.fill(f64::INFINITY);
    out_choice.fill(0);
    for (p, &base) in row.iter().enumerate() {
        let chain_row = &chain[p * new_cols..(p + 1) * new_cols];
        for (nc, &c) in chain_row.iter().enumerate() {
            let v = base + c;
            if v < out_cost[nc] {
                out_cost[nc] = v;
                out_choice[nc] = p;
            }
        }
    }
    for (nc, v) in out_cost.iter_mut().enumerate() {
        *v += intra_j[nc];
        if let Some(h) = head_row {
            *v += h[nc];
        }
    }
}

/// The per-cell scalar extension row: the oracle the lane-tiled kernel and
/// [`extend_row_argmin`] are pinned against.
#[cfg(test)]
pub(crate) fn extend_row_scalar(
    row: &[f64],
    chain: &[f64],
    intra_j: &[f64],
    head_row: Option<&[f64]>,
    out_cost: &mut [f64],
    out_choice: &mut [usize],
) {
    let new_cols = out_cost.len();
    for nc in 0..new_cols {
        let mut best = f64::INFINITY;
        let mut best_p = 0;
        for (p, &base) in row.iter().enumerate() {
            let v = base + chain[p * new_cols + nc];
            if v < best {
                best = v;
                best_p = p;
            }
        }
        let mut v = best + intra_j[nc];
        if let Some(h) = head_row {
            v += h[nc];
        }
        out_cost[nc] = v;
        out_choice[nc] = best_p;
    }
}

/// One output row of a min-plus product over the `n × width` plane `m`:
/// cell `c` is `finish(c, min_p value(p)(m[p, c]))`; `value(p)` reads
/// candidate `p`'s row terms once for all the lanes it relaxes. Returns the
/// candidates relaxed, counted in cells: `LANES` per candidate a tile
/// visits, one per candidate a tail cell visits.
///
/// `LANES` output cells share one pass over the candidates, each lane
/// keeping its own running minimum — the `if`-converted compare/select has
/// no loop-carried cross-lane dependency, so the reduction vectorizes.
/// Candidates arrive per cell in the same ascending-`p` order with the same
/// strict `<`, and `value` and `finish` keep the scalar row's association,
/// so each cost matches it bitwise: every cell keeps the sum of its first
/// minimizer, the candidate a backtrack argmin names.
///
/// With `colmin` (the per-column minima of `m`, given only when every input
/// is finite) each tile first takes a bound `U = max over its lanes of
/// value(p0)(m[p0, c])` at the seed `p0` that minimizes `value(p)(0)`, and
/// skips every `p` with `value(p)(min over its lanes of colmin) > U`.
/// Each `value(p)` is monotone — a chain of correctly rounded additions —
/// so a skipped candidate is strictly above `U`, which is at least every
/// lane's final minimum. No minimizer is ever skipped, so under
/// ascending-`p`, strict-`<` scanning each cell keeps the sum of the same
/// first minimizer as the full scan: the cost bits are the full scan's.
/// Without `colmin` every candidate is visited, as in the dense kernel.
///
/// The bound costs a test per candidate, which only pays while it skips:
/// once the row's tiles have visited half their candidates, the rest of the
/// row scans densely — the same result, without the test.
fn min_row<V: Fn(f64) -> f64>(
    m: &[f64],
    colmin: Option<&[f64]>,
    value: impl Fn(usize) -> V,
    finish: impl Fn(usize, f64) -> f64,
    out_cost: &mut [f64],
) -> u64 {
    let width = out_cost.len();
    let n = m.len() / width;
    let seed = colmin.map(|colmin| {
        let (p0, _) = (0..n).fold((0, f64::INFINITY), |(best, least), p| {
            let v = value(p)(0.0);
            if v < least {
                (p, v)
            } else {
                (best, least)
            }
        });
        (&m[p0 * width..(p0 + 1) * width], colmin, value(p0))
    });
    // The skip rule for output columns `cols`: (lane floor, bound U).
    let bound = |cols: std::ops::Range<usize>| match seed {
        Some((seed_row, colmin, ref seed)) => (
            colmin[cols.clone()]
                .iter()
                .fold(f64::INFINITY, |a, &b| a.min(b)),
            seed_row[cols]
                .iter()
                .fold(f64::NEG_INFINITY, |a, &b| a.max(seed(b))),
        ),
        None => (0.0, f64::INFINITY),
    };
    let mut bounded = seed.is_some();
    let mut visited = 0u64;
    let tiled = width - width % LANES;
    for (t, c0) in (0..tiled).step_by(LANES).enumerate() {
        let (min, tile_visited) = if bounded {
            let (floor, cap) = bound(c0..c0 + LANES);
            relax_tile::<true, _>(m, width, c0, &value, floor, cap)
        } else {
            relax_tile::<false, _>(m, width, c0, &value, 0.0, 0.0)
        };
        visited += LANES as u64 * tile_visited;
        bounded &= 2 * visited < ((t + 1) * n * LANES) as u64;
        for l in 0..LANES {
            out_cost[c0 + l] = finish(c0 + l, min[l]);
        }
    }
    // Scalar tail: the per-cell loop of the scalar row, each cell its own
    // one-lane tile.
    for c in tiled..width {
        let (floor, cap) = bound(c..c + 1);
        let mut best = f64::INFINITY;
        for p in 0..n {
            let value = value(p);
            if value(floor) > cap {
                continue;
            }
            visited += 1;
            let v = value(m[p * width + c]);
            if v < best {
                best = v;
            }
        }
        out_cost[c] = finish(c, best);
    }
    visited
}

/// One tile of [`min_row`] — the `LANES` columns from `c0` of the plane
/// `m`, `width` wide: each lane's minimum over the candidates, skipping
/// those with `value(p)(floor) > cap` when `BOUNDED`, and how many
/// candidates it visited.
fn relax_tile<const BOUNDED: bool, V: Fn(f64) -> f64>(
    m: &[f64],
    width: usize,
    c0: usize,
    value: &impl Fn(usize) -> V,
    floor: f64,
    cap: f64,
) -> ([f64; LANES], u64) {
    let n = m.len() / width;
    let mut min = [f64::INFINITY; LANES];
    let mut visited = 0;
    for p in 0..n {
        let value = value(p);
        if BOUNDED && value(floor) > cap {
            continue;
        }
        visited += 1;
        let x: &[f64; LANES] = m[p * width + c0..][..LANES].try_into().expect("lane");
        for l in 0..LANES {
            let v = value(x[l]);
            min[l] = if v < min[l] { v } else { min[l] };
        }
    }
    (min, visited)
}

/// One segment merge (Eq. 13): `out[r, c] = min_m (left[r, m] + right[m, c] −
/// mid_intra[m])`, plus the optional direct span edge added after the
/// minimum. Writes into the caller's `rows × cols` plane. Returns the
/// candidates relaxed, in cells.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_tables(
    threads: usize,
    rows: usize,
    k: usize,
    cols: usize,
    left: &[f64],
    right: &[f64],
    mid_intra: &[f64],
    span_edge: Option<&[f64]>,
    out_cost: &mut [f64],
    busy: &mut [f64],
) -> u64 {
    assert_eq!(out_cost.len(), rows * cols);
    assert_eq!(right.len(), k * cols);
    let right_min = column_minima(right, cols).filter(|_| mid_intra.iter().all(|v| v.is_finite()));
    drive(threads, rows, cols, out_cost, busy, |r, out_cost| {
        let left_row = &left[r * k..(r + 1) * k];
        let edge_row = span_edge.map(|e| &e[r * cols..(r + 1) * cols]);
        let bound = right_min
            .as_deref()
            .filter(|_| left_row.iter().all(|v| v.is_finite()));
        min_row(
            right,
            bound,
            |m| {
                let (l, mid) = (left_row[m], mid_intra[m]);
                move |x| l + x - mid
            },
            |c, best| edge_row.map_or(best, |e| best + e[c]),
            out_cost,
        )
    })
}

/// The argmin behind merged cell `(r, col)` of [`merge_tables`], for the
/// backtrack: the first `m`, scanning ascending with a strict `<`, that
/// minimizes `left_row[m] + right[m·cols + col] − mid_intra[m]`, with that
/// minimum. This is the kernel's expression and association; the span edge
/// is constant over `m`, so it is left out. `(0, +∞)` when no candidate
/// is finite.
pub(crate) fn merge_argmin(
    left_row: &[f64],
    right: &[f64],
    mid_intra: &[f64],
    cols: usize,
    col: usize,
) -> (usize, f64) {
    let (mut best_m, mut best) = (0, f64::INFINITY);
    for (m, &l) in left_row.iter().enumerate() {
        let v = l + right[m * cols + col] - mid_intra[m];
        if v < best {
            (best_m, best) = (m, v);
        }
    }
    (best_m, best)
}

/// The per-cell scalar merge row: the oracle the lane-tiled kernel and
/// [`merge_argmin`] are pinned against.
#[cfg(test)]
pub(crate) fn merge_row_scalar(
    left_row: &[f64],
    right: &[f64],
    mid_intra: &[f64],
    edge_row: Option<&[f64]>,
    out_cost: &mut [f64],
    out_choice: &mut [usize],
) {
    let cols = out_cost.len();
    for c in 0..cols {
        let mut best = f64::INFINITY;
        let mut best_m = 0;
        for (m, &l) in left_row.iter().enumerate() {
            let v = l + right[m * cols + c] - mid_intra[m];
            if v < best {
                best = v;
                best_m = m;
            }
        }
        if let Some(e) = edge_row {
            best += e[c];
        }
        out_cost[c] = best;
        out_choice[c] = best_m;
    }
}

/// One layer-doubling join (Eq. 14): `out[r, c] = min_q (a[r, q] −
/// boundary_intra[q] + b[q, c])` over the shared `n × n` boundary space.
pub(crate) fn minplus_join(
    threads: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    boundary_intra: &[f64],
    busy: &mut [f64],
) -> Vec<f64> {
    let mut out = vec![f64::INFINITY; n * n];
    drive(threads, n, n, &mut out, busy, |r, out_row| {
        join_row_lanes(r * n, a, b, boundary_intra, out_row);
        0
    });
    out
}

/// The per-cell scalar join row, `a_off = r · n` (test oracle).
#[cfg(test)]
fn join_row(a_off: usize, a: &[f64], b: &[f64], boundary_intra: &[f64], out_row: &mut [f64]) {
    let n = out_row.len();
    for q in 0..n {
        let lead = a[a_off + q] - boundary_intra[q];
        if !lead.is_finite() {
            continue;
        }
        let b_row = &b[q * n..(q + 1) * n];
        for (c, &bv) in b_row.iter().enumerate() {
            let v = lead + bv;
            if v < out_row[c] {
                out_row[c] = v;
            }
        }
    }
}

/// Lane-tiled join: same per-cell candidate order (`q` ascending, non-finite
/// leads skipped) and the same `fl(a − intra) + b` sums — bitwise-identical
/// to the scalar join row of the tests. No argmin here; the layer
/// composition needs values only.
fn join_row_lanes(a_off: usize, a: &[f64], b: &[f64], boundary_intra: &[f64], out_row: &mut [f64]) {
    let n = out_row.len();
    let tiled = n - n % LANES;
    let mut c0 = 0;
    while c0 < tiled {
        let mut min = [f64::INFINITY; LANES];
        for q in 0..n {
            let lead = a[a_off + q] - boundary_intra[q];
            if !lead.is_finite() {
                continue;
            }
            let br: &[f64; LANES] = b[q * n + c0..][..LANES].try_into().expect("lane");
            for l in 0..LANES {
                let v = lead + br[l];
                min[l] = if v < min[l] { v } else { min[l] };
            }
        }
        out_row[c0..c0 + LANES].copy_from_slice(&min);
        c0 += LANES;
    }
    for c in tiled..n {
        let mut best = f64::INFINITY;
        for q in 0..n {
            let lead = a[a_off + q] - boundary_intra[q];
            if !lead.is_finite() {
                continue;
            }
            let v = lead + b[q * n + c];
            if v < best {
                best = v;
            }
        }
        out_row[c] = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random doubles in `[0, 1)` (an LCG; no RNG dep).
    fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn assert_bitwise(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "cell {i}: {x} vs {y}");
        }
    }

    /// The lane-tiled [`bellman_costs`] into a fresh plane, with the
    /// candidates it relaxed.
    #[allow(clippy::too_many_arguments)]
    fn extend(
        threads: usize,
        rows: usize,
        cols: usize,
        new_cols: usize,
        cost: &[f64],
        chain: &[f64],
        intra: &[f64],
        head: Option<&[f64]>,
    ) -> (Vec<f64>, u64) {
        let mut busy = vec![0.0; threads.max(1)];
        let mut out = vec![f64::NAN; rows * new_cols];
        let visited = bellman_costs(
            threads, rows, cols, new_cols, cost, chain, intra, head, &mut out, &mut busy,
        );
        (out, visited)
    }

    /// Oracle: the scalar extension row over every row, serially.
    fn extend_scalar(
        cols: usize,
        new_cols: usize,
        cost: &[f64],
        chain: &[f64],
        intra: &[f64],
        head: Option<&[f64]>,
    ) -> (Vec<f64>, Vec<usize>) {
        let rows = cost.len() / cols;
        let mut out_cost = vec![f64::NAN; rows * new_cols];
        let mut out_choice = vec![usize::MAX; rows * new_cols];
        for r in 0..rows {
            extend_row_scalar(
                &cost[r * cols..(r + 1) * cols],
                chain,
                intra,
                head.map(|h| &h[r * new_cols..(r + 1) * new_cols]),
                &mut out_cost[r * new_cols..(r + 1) * new_cols],
                &mut out_choice[r * new_cols..(r + 1) * new_cols],
            );
        }
        (out_cost, out_choice)
    }

    /// [`extend_row_argmin`] over every row, serially.
    fn extend_argmin(
        cols: usize,
        new_cols: usize,
        cost: &[f64],
        chain: &[f64],
        intra: &[f64],
        head: Option<&[f64]>,
    ) -> (Vec<f64>, Vec<usize>) {
        let rows = cost.len() / cols;
        let mut out_cost = vec![f64::NAN; rows * new_cols];
        let mut out_choice = vec![usize::MAX; rows * new_cols];
        for r in 0..rows {
            let cells = r * new_cols..(r + 1) * new_cols;
            extend_row_argmin(
                &cost[r * cols..(r + 1) * cols],
                chain,
                intra,
                head.map(|h| &h[cells.clone()]),
                &mut out_cost[cells.clone()],
                &mut out_choice[cells],
            );
        }
        (out_cost, out_choice)
    }

    /// The lane-tiled [`merge_tables`] into a fresh plane, with the
    /// candidates it relaxed.
    #[allow(clippy::too_many_arguments)]
    fn merge(
        threads: usize,
        rows: usize,
        k: usize,
        cols: usize,
        left: &[f64],
        right: &[f64],
        mid: &[f64],
        span: Option<&[f64]>,
    ) -> (Vec<f64>, u64) {
        let mut busy = vec![0.0; threads.max(1)];
        let mut out = vec![f64::NAN; rows * cols];
        let visited = merge_tables(
            threads, rows, k, cols, left, right, mid, span, &mut out, &mut busy,
        );
        (out, visited)
    }

    /// Oracle: the scalar merge row over every row, serially.
    fn merge_scalar(
        k: usize,
        cols: usize,
        left: &[f64],
        right: &[f64],
        mid: &[f64],
        span: Option<&[f64]>,
    ) -> (Vec<f64>, Vec<usize>) {
        let rows = left.len() / k;
        let mut out_cost = vec![f64::NAN; rows * cols];
        let mut out_choice = vec![usize::MAX; rows * cols];
        for r in 0..rows {
            merge_row_scalar(
                &left[r * k..(r + 1) * k],
                right,
                mid,
                span.map(|e| &e[r * cols..(r + 1) * cols]),
                &mut out_cost[r * cols..(r + 1) * cols],
                &mut out_choice[r * cols..(r + 1) * cols],
            );
        }
        (out_cost, out_choice)
    }

    /// [`merge_argmin`] over every cell, the span edge added after it as
    /// the kernel does.
    fn merge_cells(
        k: usize,
        cols: usize,
        left: &[f64],
        right: &[f64],
        mid: &[f64],
        span: Option<&[f64]>,
    ) -> (Vec<f64>, Vec<usize>) {
        let rows = left.len() / k;
        (0..rows * cols)
            .map(|cell| {
                let (r, c) = (cell / cols, cell % cols);
                let (m, best) = merge_argmin(&left[r * k..(r + 1) * k], right, mid, cols, c);
                (span.map_or(best, |e| best + e[cell]), m)
            })
            .unzip()
    }

    /// Oracle: the scalar join row over every row, serially.
    fn join_scalar(n: usize, a: &[f64], b: &[f64], intra: &[f64]) -> Vec<f64> {
        let mut out = vec![f64::INFINITY; n * n];
        for (r, out_row) in out.chunks_mut(n).enumerate() {
            join_row(r * n, a, b, intra, out_row);
        }
        out
    }

    #[test]
    fn vectorized_extension_matches_scalar_bitwise() {
        // Sizes straddle the lane width: 5 exercises the pure tail, 21 the
        // tiled body plus a 5-cell tail.
        for new_cols in [5usize, 16, 21] {
            let (rows, cols) = (7, 11);
            let cost = noise(rows * cols, 1);
            let chain = noise(cols * new_cols, 2);
            let intra = noise(new_cols, 3);
            let head = noise(rows * new_cols, 4);
            for (head_opt, threads) in [(None, 0usize), (Some(&head), 0), (Some(&head), 3)] {
                let head_opt = head_opt.map(|h: &Vec<f64>| h.as_slice());
                let (c_scalar, _) = extend_scalar(cols, new_cols, &cost, &chain, &intra, head_opt);
                let (c_lanes, _) = extend(
                    threads, rows, cols, new_cols, &cost, &chain, &intra, head_opt,
                );
                assert_bitwise(&c_scalar, &c_lanes);
            }
        }
    }

    #[test]
    fn extension_ties_pick_the_earliest_state() {
        // A constant landscape makes every interior state tie: the argmin
        // must stay at p = 0 in both argmin scans (strict `<` discipline),
        // and the kernel's costs are theirs.
        let (rows, cols, new_cols) = (2, 6, 19);
        let cost = vec![1.0; rows * cols];
        let chain = vec![2.0; cols * new_cols];
        let intra = vec![0.5; new_cols];
        let (c_lanes, _) = extend(1, rows, cols, new_cols, &cost, &chain, &intra, None);
        assert!(c_lanes.iter().all(|&v| v == 3.5));
        for (c, ch) in [
            extend_scalar(cols, new_cols, &cost, &chain, &intra, None),
            extend_argmin(cols, new_cols, &cost, &chain, &intra, None),
        ] {
            assert!(ch.iter().all(|&p| p == 0));
            assert_bitwise(&c, &c_lanes);
        }
    }

    #[test]
    fn vectorized_merge_matches_scalar_bitwise() {
        for cols in [3usize, 8, 27] {
            let (rows, k) = (6, 9);
            let left = noise(rows * k, 10);
            let right = noise(k * cols, 11);
            let mid = noise(k, 12);
            let span = noise(rows * cols, 13);
            for (span_opt, threads) in [(None, 0usize), (Some(&span), 0), (Some(&span), 4)] {
                let span_opt = span_opt.map(|s: &Vec<f64>| s.as_slice());
                let (c_scalar, _) = merge_scalar(k, cols, &left, &right, &mid, span_opt);
                let (c_lanes, _) = merge(threads, rows, k, cols, &left, &right, &mid, span_opt);
                assert_bitwise(&c_scalar, &c_lanes);
            }
        }
    }

    /// Checks the extension kernel's costs against the scalar oracle
    /// bitwise — with and without a head plane, serial and on 3 workers —
    /// and returns the candidates it relaxed.
    fn check_extension(cols: usize, new_cols: usize, cost: &[f64], chain: &[f64]) -> u64 {
        let rows = cost.len() / cols;
        let intra = noise(new_cols, 30);
        let head = noise(rows * new_cols, 31);
        let mut visited = Vec::new();
        for head_opt in [None, Some(head.as_slice())] {
            let (c_scalar, _) = extend_scalar(cols, new_cols, cost, chain, &intra, head_opt);
            for threads in [0, 3] {
                let (c, v) = extend(threads, rows, cols, new_cols, cost, chain, &intra, head_opt);
                assert_bitwise(&c_scalar, &c);
                visited.push(v);
            }
        }
        assert!(visited.windows(2).all(|w| w[0] == w[1]), "{visited:?}");
        assert!(visited[0] <= (rows * cols * new_cols) as u64);
        visited[0]
    }

    /// [`check_extension`] for the merge kernel (`k` interior states, a
    /// span-edge plane or none).
    fn check_merge(k: usize, cols: usize, left: &[f64], right: &[f64], mid: &[f64]) -> u64 {
        let rows = left.len() / k;
        let span = noise(rows * cols, 32);
        let mut visited = Vec::new();
        for span_opt in [None, Some(span.as_slice())] {
            let (c_scalar, _) = merge_scalar(k, cols, left, right, mid, span_opt);
            for threads in [0, 3] {
                let (c, v) = merge(threads, rows, k, cols, left, right, mid, span_opt);
                assert_bitwise(&c_scalar, &c);
                visited.push(v);
            }
        }
        assert!(visited.windows(2).all(|w| w[0] == w[1]), "{visited:?}");
        assert!(visited[0] <= (rows * k * cols) as u64);
        visited[0]
    }

    /// `len` values on a coarse grid of four levels, so equal values recur
    /// at many positions.
    fn coarse(len: usize, seed: u64) -> Vec<f64> {
        noise(len, seed).iter().map(|v| (v * 4.0).floor()).collect()
    }

    /// Landscapes built against the skip bound, at widths straddling
    /// `LANES` (tail only, one tile, tiles plus a tail): every candidate
    /// tied, equal minima at different states, and `+∞` or NaN in a table
    /// row or in the chain matrix (the dense fallback).
    #[test]
    fn bounded_kernels_match_the_oracle_on_adversarial_landscapes() {
        let (rows, cols) = (4, 9);
        for new_cols in [5usize, 8, 13, 21] {
            let nominal = (rows * cols * new_cols) as u64;
            // Every candidate ties: the earliest state wins every cell.
            check_extension(
                cols,
                new_cols,
                &vec![1.0; rows * cols],
                &vec![2.0; cols * new_cols],
            );
            // Equal minima at different p: coarse rows, and chain rows that
            // repeat every three states.
            let chain: Vec<f64> = (0..cols)
                .flat_map(|p| coarse(new_cols, 40 + (p % 3) as u64))
                .collect();
            check_extension(cols, new_cols, &coarse(rows * cols, 41), &chain);
            // Non-finite entries. A row holding one falls back to the dense
            // sweep; a chain holding one turns the bound off for every row.
            let base = noise(rows * cols, 42);
            let chain = noise(cols * new_cols, 43);
            for (at, poison) in [(1, f64::INFINITY), (cols + 4, f64::NAN)] {
                let mut cost = base.clone();
                cost[at] = poison;
                check_extension(cols, new_cols, &cost, &chain);
                let mut bad_chain = chain.clone();
                bad_chain[at % (cols * new_cols)] = poison;
                assert_eq!(check_extension(cols, new_cols, &base, &bad_chain), nominal);
            }
            let mut dead_row = base.clone();
            dead_row[2 * cols..3 * cols].fill(f64::INFINITY);
            check_extension(cols, new_cols, &dead_row, &chain);
        }
    }

    #[test]
    fn bounded_merge_matches_the_oracle_on_adversarial_landscapes() {
        let (rows, k) = (4, 9);
        for cols in [5usize, 8, 13, 21] {
            let nominal = (rows * k * cols) as u64;
            check_merge(
                k,
                cols,
                &vec![3.0; rows * k],
                &vec![2.0; k * cols],
                &vec![1.0; k],
            );
            let right: Vec<f64> = (0..k)
                .flat_map(|m| coarse(cols, 50 + (m % 3) as u64))
                .collect();
            check_merge(k, cols, &coarse(rows * k, 51), &right, &coarse(k, 52));
            let (left, right, mid) = (noise(rows * k, 53), noise(k * cols, 54), noise(k, 55));
            for (at, poison) in [(2, f64::INFINITY), (k + 5, f64::NAN)] {
                let mut bad_left = left.clone();
                bad_left[at] = poison;
                check_merge(k, cols, &bad_left, &right, &mid);
                let mut bad_right = right.clone();
                bad_right[at % (k * cols)] = poison;
                assert_eq!(check_merge(k, cols, &left, &bad_right, &mid), nominal);
                let mut bad_mid = mid.clone();
                bad_mid[at % k] = poison;
                assert_eq!(check_merge(k, cols, &left, &right, &bad_mid), nominal);
            }
        }
    }

    #[test]
    fn the_bound_skips_candidates_that_cannot_win() {
        // One cheap state per row and a chain in [0, 1): every other state
        // starts 100 above the seed's worst lane, so each tile and tail cell
        // relaxes the seed alone.
        let (rows, cols, new_cols) = (3, 12, 21);
        let mut cost = vec![100.0; rows * cols];
        for r in 0..rows {
            cost[r * cols + (r * 5) % cols] = 0.0;
        }
        let chain = noise(cols * new_cols, 60);
        assert_eq!(
            check_extension(cols, new_cols, &cost, &chain),
            (rows * new_cols) as u64
        );
        let mid = vec![0.5; cols];
        assert_eq!(
            check_merge(cols, new_cols, &cost, &chain, &mid),
            (rows * new_cols) as u64
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// A pool of random positive cost entries, spanning magnitudes so
        /// ties and near-ties both occur. Dimensions are drawn separately and
        /// the pool is sliced to shape (the offline proptest shim has no
        /// `prop_flat_map` for size-dependent strategies).
        fn entries(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
            proptest::collection::vec(0.0f64..1e6, max_len)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Eq. 12: the lane-tiled Bellman extension's costs are
            /// bitwise-identical to the scalar sweep's on random cost
            /// matrices of random shapes, serial and threaded.
            #[test]
            fn vectorized_extension_is_bitwise_on_random_matrices(
                rows in 1usize..8,
                cols in 1usize..12,
                new_cols in 1usize..24,
                threads in 0usize..4,
                pool in entries(7 * 11 + 11 * 23 + 23),
            ) {
                let (cost, rest) = pool.split_at(rows * cols);
                let (chain, rest) = rest.split_at(cols * new_cols);
                let intra = &rest[..new_cols];
                let (c_scalar, _) = extend_scalar(cols, new_cols, cost, chain, intra, None);
                let (c_lanes, _) = extend(threads, rows, cols, new_cols, cost, chain, intra, None);
                assert_bitwise(&c_scalar, &c_lanes);
            }

            /// Eqs. 12–13 on tie-heavy inputs: entries from four levels, so
            /// equal candidates recur, with an optional `+∞` or NaN planted in
            /// the table or in the matrix.
            #[test]
            fn bounded_kernels_are_bitwise_on_tied_and_poisoned_matrices(
                rows in 1usize..6,
                cols in 1usize..10,
                new_cols in 1usize..20,
                poison in 0u8..5,
                poison_at in 0usize..1000,
                pool in proptest::collection::vec(0u8..4, 5 * 9 + 9 * 19 + 9)
                    .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>()),
            ) {
                let mut pool = pool;
                let (table_len, matrix_len) = (rows * cols, cols * new_cols);
                let value = [f64::INFINITY, f64::NAN][usize::from(poison % 2)];
                match poison {
                    1 | 2 => pool[poison_at % table_len] = value,
                    3 | 4 => pool[table_len + poison_at % matrix_len] = value,
                    _ => {}
                }
                let (table, rest) = pool.split_at(table_len);
                let (matrix, rest) = rest.split_at(matrix_len);
                check_extension(cols, new_cols, table, matrix);
                check_merge(cols, new_cols, table, matrix, &rest[..cols]);
            }

            /// The backtrack's argmins: [`extend_row_argmin`] (the
            /// re-sweep's row) and [`merge_argmin`] (one merged cell) equal
            /// [`extend_row_scalar`] and [`merge_row_scalar`], costs and
            /// choices bit for bit, and their costs are the kernels'. Widths
            /// fall below `LANES` and leave tails; the tables are
            /// continuous, tied (four levels) or one cheap state per row;
            /// an `+∞` lands in a table, an edge matrix or a whole table
            /// row; head rows and span edges are present or absent.
            #[test]
            fn backtrack_argmins_match_the_scalar_oracles(
                rows in 1usize..6,
                cols in 1usize..12,
                new_cols in 1usize..20,
                regime in 0u8..3,
                poison in 0u8..4,
                poison_at in 0usize..1000,
                with_edge in 0u8..2,
                pool in entries(5 * 11 + 11 * 19 + 19 + 5 * 19),
            ) {
                let (table, rest) = pool.split_at(rows * cols);
                let (matrix, rest) = rest.split_at(cols * new_cols);
                let (intra, rest) = rest.split_at(new_cols);
                let edge = (with_edge == 1).then_some(&rest[..rows * new_cols]);
                let mut table = match regime {
                    0 => table.to_vec(),
                    1 => table.iter().map(|v| (v / 250_000.0).floor()).collect(),
                    _ => (0..rows * cols)
                        .map(|i| if i % cols == (i / cols * 5) % cols { 0.0 } else { 1e7 })
                        .collect(),
                };
                let mut matrix = matrix.to_vec();
                match poison {
                    1 => table[poison_at % (rows * cols)] = f64::INFINITY,
                    2 => matrix[poison_at % (cols * new_cols)] = f64::INFINITY,
                    3 => {
                        let r = poison_at % rows;
                        table[r * cols..(r + 1) * cols].fill(f64::INFINITY);
                    }
                    _ => {}
                }
                let (table, matrix) = (table.as_slice(), matrix.as_slice());

                // Eq. 12, the re-sweep's row: `matrix` is the chain plane.
                let (c_scalar, ch_scalar) =
                    extend_scalar(cols, new_cols, table, matrix, intra, edge);
                let (c_argmin, ch_argmin) =
                    extend_argmin(cols, new_cols, table, matrix, intra, edge);
                assert_bitwise(&c_scalar, &c_argmin);
                prop_assert_eq!(ch_scalar, ch_argmin);
                let (c_kernel, _) = extend(2, rows, cols, new_cols, table, matrix, intra, edge);
                assert_bitwise(&c_kernel, &c_argmin);

                // Eq. 13, one merged cell: `table` is the left table over
                // `cols` mid states, `matrix` the right one.
                let mid = &intra[..cols.min(new_cols)];
                let k = mid.len();
                let left: Vec<f64> = table.chunks(cols).flat_map(|r| r[..k].to_vec()).collect();
                let right = &matrix[..k * new_cols];
                let (c_scalar, ch_scalar) = merge_scalar(k, new_cols, &left, right, mid, edge);
                let (c_cell, ch_cell) = merge_cells(k, new_cols, &left, right, mid, edge);
                assert_bitwise(&c_scalar, &c_cell);
                prop_assert_eq!(ch_scalar, ch_cell);
                let (c_kernel, _) = merge(2, rows, k, new_cols, &left, right, mid, edge);
                assert_bitwise(&c_kernel, &c_cell);
            }

            /// Eq. 13: the merge, with and without a span-edge plane.
            #[test]
            fn vectorized_merge_is_bitwise_on_random_matrices(
                rows in 1usize..7,
                k in 1usize..10,
                cols in 1usize..20,
                with_span in 0u8..2,
                pool in entries(6 * 9 + 9 * 19 + 9 + 6 * 19),
            ) {
                let (left, rest) = pool.split_at(rows * k);
                let (right, rest) = rest.split_at(k * cols);
                let (mid, rest) = rest.split_at(k);
                let span_opt = (with_span == 1).then_some(&rest[..rows * cols]);
                let (c_scalar, _) = merge_scalar(k, cols, left, right, mid, span_opt);
                let (c_lanes, _) = merge(2, rows, k, cols, left, right, mid, span_opt);
                assert_bitwise(&c_scalar, &c_lanes);
            }

            /// Eq. 14: the layer-doubling join, including unreachable
            /// (infinite) boundary states.
            #[test]
            fn vectorized_join_is_bitwise_on_random_matrices(
                n in 1usize..24,
                poison_at in 0usize..(23 * 23),
                poison in 0u8..2,
                pool in entries(2 * 23 * 23 + 23),
            ) {
                let (a, rest) = pool.split_at(n * n);
                let (b, rest) = rest.split_at(n * n);
                let intra = &rest[..n];
                let mut a = a.to_vec();
                if poison == 1 {
                    a[poison_at % (n * n)] = f64::INFINITY;
                }
                let mut busy = vec![0.0; 4];
                let serial = join_scalar(n, &a, b, intra);
                let lanes = minplus_join(4, n, &a, b, intra, &mut busy);
                assert_bitwise(&serial, &lanes);
            }
        }
    }

    #[test]
    fn parallel_join_matches_serial_and_skips_infinities() {
        // 9 is lane-tail-only; 19 covers one full tile plus a tail.
        for n in [9usize, 19] {
            let mut a = noise(n * n, 20);
            let b = noise(n * n, 21);
            let intra = noise(n, 22);
            a[3] = f64::INFINITY; // an unreachable boundary state
            let mut busy = vec![0.0; 4];
            let serial = join_scalar(n, &a, &b, &intra);
            for threads in [1, 4] {
                let other = minplus_join(threads, n, &a, &b, &intra, &mut busy);
                assert_bitwise(&serial, &other);
            }
            assert!(serial.iter().all(|v| v.is_finite()));
            assert!(busy.iter().sum::<f64>() >= 0.0);
        }
    }
}
