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
//! association — results and argmin choices are bitwise-identical to the
//! per-cell scalar rows, which survive only as the tests' oracle.
//!
//! All three products parallelize over output rows and write into
//! caller-provided planes (the DP's arena scratch), so the hot loop does no
//! allocation. Per-worker busy seconds accumulate into the planner's
//! `thread_busy_seconds` slots.

use std::time::Instant;

/// Fixed lane width of the vectorized kernels: 8 `f64`s — one 64-byte cache
/// line, two AVX2 registers or one AVX-512 register.
const LANES: usize = 8;

/// Runs `row_fn(r, cost_row, choice_row)` for every row, chunked across
/// `threads` scoped workers (serial when `threads <= 1`), adding per-worker
/// busy seconds into `busy`.
fn drive(
    threads: usize,
    rows: usize,
    width: usize,
    cost: &mut [f64],
    choice: &mut [u32],
    busy: &mut [f64],
    row_fn: impl Fn(usize, &mut [f64], &mut [u32]) + Sync,
) {
    if threads > 1 && rows > 1 {
        std::thread::scope(|scope| {
            let chunk = rows.div_ceil(threads).max(1);
            let mut handles = Vec::new();
            for (band, (cost_band, choice_band)) in cost
                .chunks_mut(chunk * width)
                .zip(choice.chunks_mut(chunk * width))
                .enumerate()
            {
                let row_fn = &row_fn;
                handles.push(scope.spawn(move || {
                    let sweep = Instant::now();
                    for (i, (oc, och)) in cost_band
                        .chunks_mut(width)
                        .zip(choice_band.chunks_mut(width))
                        .enumerate()
                    {
                        row_fn(band * chunk + i, oc, och);
                    }
                    sweep.elapsed().as_secs_f64()
                }));
            }
            for (slot, handle) in handles.into_iter().enumerate() {
                busy[slot] += handle.join().expect("min-plus worker");
            }
        });
    } else {
        let sweep = Instant::now();
        for (r, (oc, och)) in cost
            .chunks_mut(width)
            .zip(choice.chunks_mut(width))
            .enumerate()
        {
            row_fn(r, oc, och);
        }
        busy[0] += sweep.elapsed().as_secs_f64();
    }
}

/// One Bellman chain extension (Eq. 12): from the `rows × cols` table against
/// the `cols × new_cols` chain-edge matrix, adding the new endpoint's intra
/// cost and the optional segment-head edge. Writes into the caller's
/// `rows × new_cols` planes: `out_choice[r·new_cols + nc]` is the argmin
/// previous-endpoint state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bellman_extend(
    threads: usize,
    rows: usize,
    cols: usize,
    new_cols: usize,
    cost: &[f64],
    chain: &[f64],
    intra_j: &[f64],
    head: Option<&[f64]>,
    out_cost: &mut [f64],
    out_choice: &mut [u32],
    busy: &mut [f64],
) {
    assert_eq!(out_cost.len(), rows * new_cols);
    assert_eq!(out_choice.len(), rows * new_cols);
    drive(
        threads,
        rows,
        new_cols,
        out_cost,
        out_choice,
        busy,
        |r, out_cost, out_choice| {
            let row = &cost[r * cols..(r + 1) * cols];
            let head_row = head.map(|h| &h[r * new_cols..(r + 1) * new_cols]);
            extend_row_lanes(row, chain, intra_j, head_row, out_cost, out_choice);
        },
    );
}

/// The per-cell scalar extension row: the oracle the lane-tiled kernel is
/// pinned against.
#[cfg(test)]
fn extend_row_scalar(
    row: &[f64],
    chain: &[f64],
    intra_j: &[f64],
    head_row: Option<&[f64]>,
    out_cost: &mut [f64],
    out_choice: &mut [u32],
) {
    let new_cols = out_cost.len();
    for nc in 0..new_cols {
        let mut best = f64::INFINITY;
        let mut best_p = 0u32;
        for (p, &base) in row.iter().enumerate() {
            let v = base + chain[p * new_cols + nc];
            if v < best {
                best = v;
                best_p = p as u32;
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

/// Lane-tiled extension: `LANES` output cells share one pass over the
/// candidates, each lane keeping its own running (min, argmin) pair — the
/// `if`-converted compare/select has no loop-carried cross-lane dependency,
/// so the reduction vectorizes. Candidates arrive per cell in the same
/// ascending-`p` order with the same strict `<`, and the final sums keep the
/// `(best + intra) + head` association, so cost and argmin match the scalar
/// row bitwise.
fn extend_row_lanes(
    row: &[f64],
    chain: &[f64],
    intra_j: &[f64],
    head_row: Option<&[f64]>,
    out_cost: &mut [f64],
    out_choice: &mut [u32],
) {
    let new_cols = out_cost.len();
    let tiled = new_cols - new_cols % LANES;
    let mut nc0 = 0;
    while nc0 < tiled {
        let mut min = [f64::INFINITY; LANES];
        let mut arg = [0u32; LANES];
        for (p, &base) in row.iter().enumerate() {
            let c: &[f64; LANES] = chain[p * new_cols + nc0..][..LANES]
                .try_into()
                .expect("lane");
            for l in 0..LANES {
                let v = base + c[l];
                let better = v < min[l];
                min[l] = if better { v } else { min[l] };
                arg[l] = if better { p as u32 } else { arg[l] };
            }
        }
        for l in 0..LANES {
            let mut v = min[l] + intra_j[nc0 + l];
            if let Some(h) = head_row {
                v += h[nc0 + l];
            }
            out_cost[nc0 + l] = v;
            out_choice[nc0 + l] = arg[l];
        }
        nc0 += LANES;
    }
    // Scalar tail: the per-cell loop of the scalar row.
    for nc in tiled..new_cols {
        let mut best = f64::INFINITY;
        let mut best_p = 0u32;
        for (p, &base) in row.iter().enumerate() {
            let v = base + chain[p * new_cols + nc];
            if v < best {
                best = v;
                best_p = p as u32;
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

/// One segment merge (Eq. 13): `out[r, c] = min_m (left[r, m] + right[m, c] −
/// mid_intra[m])`, plus the optional direct span edge added after the argmin.
/// Writes into the caller's `rows × cols` planes.
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
    out_choice: &mut [u32],
    busy: &mut [f64],
) {
    assert_eq!(out_cost.len(), rows * cols);
    assert_eq!(out_choice.len(), rows * cols);
    drive(
        threads,
        rows,
        cols,
        out_cost,
        out_choice,
        busy,
        |r, out_cost, out_choice| {
            let left_row = &left[r * k..(r + 1) * k];
            let edge_row = span_edge.map(|e| &e[r * cols..(r + 1) * cols]);
            merge_row_lanes(left_row, right, mid_intra, edge_row, out_cost, out_choice);
        },
    );
}

/// The per-cell scalar merge row (test oracle).
#[cfg(test)]
fn merge_row_scalar(
    left_row: &[f64],
    right: &[f64],
    mid_intra: &[f64],
    edge_row: Option<&[f64]>,
    out_cost: &mut [f64],
    out_choice: &mut [u32],
) {
    let cols = out_cost.len();
    for c in 0..cols {
        let mut best = f64::INFINITY;
        let mut best_m = 0u32;
        for (m, &l) in left_row.iter().enumerate() {
            let v = l + right[m * cols + c] - mid_intra[m];
            if v < best {
                best = v;
                best_m = m as u32;
            }
        }
        if let Some(e) = edge_row {
            best += e[c];
        }
        out_cost[c] = best;
        out_choice[c] = best_m;
    }
}

/// Lane-tiled merge; same candidate order and association
/// (`(l + r) − mid`), bitwise-identical to the scalar row.
fn merge_row_lanes(
    left_row: &[f64],
    right: &[f64],
    mid_intra: &[f64],
    edge_row: Option<&[f64]>,
    out_cost: &mut [f64],
    out_choice: &mut [u32],
) {
    let cols = out_cost.len();
    let tiled = cols - cols % LANES;
    let mut c0 = 0;
    while c0 < tiled {
        let mut min = [f64::INFINITY; LANES];
        let mut arg = [0u32; LANES];
        for (m, &l) in left_row.iter().enumerate() {
            let mid = mid_intra[m];
            let r: &[f64; LANES] = right[m * cols + c0..][..LANES].try_into().expect("lane");
            for lane in 0..LANES {
                let v = l + r[lane] - mid;
                let better = v < min[lane];
                min[lane] = if better { v } else { min[lane] };
                arg[lane] = if better { m as u32 } else { arg[lane] };
            }
        }
        for lane in 0..LANES {
            let mut best = min[lane];
            if let Some(e) = edge_row {
                best += e[c0 + lane];
            }
            out_cost[c0 + lane] = best;
            out_choice[c0 + lane] = arg[lane];
        }
        c0 += LANES;
    }
    for c in tiled..cols {
        let mut best = f64::INFINITY;
        let mut best_m = 0u32;
        for (m, &l) in left_row.iter().enumerate() {
            let v = l + right[m * cols + c] - mid_intra[m];
            if v < best {
                best = v;
                best_m = m as u32;
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
    let join = |r: usize, out_row: &mut [f64]| join_row_lanes(r * n, a, b, boundary_intra, out_row);
    if threads > 1 && n > 1 {
        std::thread::scope(|scope| {
            let chunk = n.div_ceil(threads).max(1);
            let mut handles = Vec::new();
            for (band, out_band) in out.chunks_mut(chunk * n).enumerate() {
                let join = &join;
                handles.push(scope.spawn(move || {
                    let sweep = Instant::now();
                    for (i, out_row) in out_band.chunks_mut(n).enumerate() {
                        join(band * chunk + i, out_row);
                    }
                    sweep.elapsed().as_secs_f64()
                }));
            }
            for (slot, handle) in handles.into_iter().enumerate() {
                busy[slot] += handle.join().expect("join worker");
            }
        });
    } else {
        let sweep = Instant::now();
        for (r, out_row) in out.chunks_mut(n).enumerate() {
            join(r, out_row);
        }
        busy[0] += sweep.elapsed().as_secs_f64();
    }
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
/// to [`join_row`]. No argmin here; the layer composition needs values only.
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

    /// The lane-tiled [`bellman_extend`] into fresh planes.
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
    ) -> (Vec<f64>, Vec<u32>) {
        let mut out_cost = vec![f64::NAN; rows * new_cols];
        let mut out_choice = vec![u32::MAX; rows * new_cols];
        let mut busy = vec![0.0; threads.max(1)];
        bellman_extend(
            threads,
            rows,
            cols,
            new_cols,
            cost,
            chain,
            intra,
            head,
            &mut out_cost,
            &mut out_choice,
            &mut busy,
        );
        (out_cost, out_choice)
    }

    /// Oracle: the scalar extension row over every row, serially.
    fn extend_scalar(
        cols: usize,
        new_cols: usize,
        cost: &[f64],
        chain: &[f64],
        intra: &[f64],
        head: Option<&[f64]>,
    ) -> (Vec<f64>, Vec<u32>) {
        let rows = cost.len() / cols;
        let mut out_cost = vec![f64::NAN; rows * new_cols];
        let mut out_choice = vec![u32::MAX; rows * new_cols];
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

    /// The lane-tiled [`merge_tables`] into fresh planes.
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
    ) -> (Vec<f64>, Vec<u32>) {
        let mut out_cost = vec![f64::NAN; rows * cols];
        let mut out_choice = vec![u32::MAX; rows * cols];
        let mut busy = vec![0.0; threads.max(1)];
        merge_tables(
            threads,
            rows,
            k,
            cols,
            left,
            right,
            mid,
            span,
            &mut out_cost,
            &mut out_choice,
            &mut busy,
        );
        (out_cost, out_choice)
    }

    /// Oracle: the scalar merge row over every row, serially.
    fn merge_scalar(
        k: usize,
        cols: usize,
        left: &[f64],
        right: &[f64],
        mid: &[f64],
        span: Option<&[f64]>,
    ) -> (Vec<f64>, Vec<u32>) {
        let rows = left.len() / k;
        let mut out_cost = vec![f64::NAN; rows * cols];
        let mut out_choice = vec![u32::MAX; rows * cols];
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
                let (c_scalar, ch_scalar) =
                    extend_scalar(cols, new_cols, &cost, &chain, &intra, head_opt);
                let (c_lanes, ch_lanes) = extend(
                    threads, rows, cols, new_cols, &cost, &chain, &intra, head_opt,
                );
                assert_bitwise(&c_scalar, &c_lanes);
                assert_eq!(ch_scalar, ch_lanes);
            }
        }
    }

    #[test]
    fn extension_ties_pick_the_earliest_state() {
        // A constant landscape makes every interior state tie: the argmin
        // must stay at p = 0 in both variants (strict `<` discipline).
        let (rows, cols, new_cols) = (2, 6, 19);
        let cost = vec![1.0; rows * cols];
        let chain = vec![2.0; cols * new_cols];
        let intra = vec![0.5; new_cols];
        for (c, ch) in [
            extend_scalar(cols, new_cols, &cost, &chain, &intra, None),
            extend(1, rows, cols, new_cols, &cost, &chain, &intra, None),
        ] {
            assert!(ch.iter().all(|&p| p == 0));
            assert!(c.iter().all(|&v| v == 3.5));
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
                let (c_scalar, ch_scalar) = merge_scalar(k, cols, &left, &right, &mid, span_opt);
                let (c_lanes, ch_lanes) =
                    merge(threads, rows, k, cols, &left, &right, &mid, span_opt);
                assert_bitwise(&c_scalar, &c_lanes);
                assert_eq!(ch_scalar, ch_lanes);
            }
        }
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

            /// Eq. 12: the lane-tiled Bellman extension is bitwise-identical
            /// to the scalar sweep — costs and argmin choices — on random
            /// cost matrices of random shapes, serial and threaded.
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
                let (c_scalar, ch_scalar) =
                    extend_scalar(cols, new_cols, cost, chain, intra, None);
                let (c_lanes, ch_lanes) =
                    extend(threads, rows, cols, new_cols, cost, chain, intra, None);
                assert_bitwise(&c_scalar, &c_lanes);
                prop_assert_eq!(ch_scalar, ch_lanes);
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
                let (c_scalar, ch_scalar) = merge_scalar(k, cols, left, right, mid, span_opt);
                let (c_lanes, ch_lanes) =
                    merge(2, rows, k, cols, left, right, mid, span_opt);
                assert_bitwise(&c_scalar, &c_lanes);
                prop_assert_eq!(ch_scalar, ch_lanes);
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
