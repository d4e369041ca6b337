//! Fractional axis-interval algebra for the inter-operator cost (Eqs. 8–9).
//!
//! A device's slice of an operator dimension is the half-open fraction
//! `[i/s, (i+1)/s)` of that dimension. Dimensions decompose into ordered
//! named axes (e.g. the fused-QKV output's `K` is `(qkv, embed)`); the slice
//! projects onto per-axis intervals, and the intersection of two devices'
//! holdings is the product of per-axis interval overlaps. Exact when slices
//! align with axis boundaries (the power-of-two common case); a slight
//! overestimate of the overlap otherwise — conservative for a cost model.
//!
//! [`DenseIntervals`] is the one holding type every Eqs. 8–9 path builds:
//! the planner's side profiles (which store each as its per-axis interval
//! ids), the simulator's plan volumes, the reference edge matrix and the
//! migration and failover prices.

use primepar_graph::Axis;

/// Per-axis fractional intervals `[lo, hi) ⊆ [0, 1)` describing the part of a
/// tensor a device holds: one pair per [`Axis`], `[0, 1)` (held in full) on
/// every axis the holding does not narrow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseIntervals(pub [(f64, f64); Axis::COUNT]);

impl DenseIntervals {
    /// The full tensor: `[0, 1)` on every axis.
    pub const FULL: DenseIntervals = DenseIntervals([(0.0, 1.0); Axis::COUNT]);

    /// The interval held on `axis`.
    pub fn interval(&self, axis: Axis) -> (f64, f64) {
        self.0[axis.index()]
    }

    /// Intersects (narrows) the interval held on `axis` with `[lo, hi)`.
    pub fn narrow(&mut self, axis: Axis, lo: f64, hi: f64) {
        let e = &mut self.0[axis.index()];
        e.0 = e.0.max(lo);
        e.1 = e.1.min(hi);
    }

    /// Projects the flattened slice `[lo, hi) ⊆ [0, 1)` of a dimension onto
    /// its ordered axis decomposition, renaming each axis through `rename`,
    /// and narrows the per-axis intervals.
    ///
    /// The projection is hierarchical: while the slice fits within a single
    /// cell of the major axis, that cell is recorded and the recursion
    /// descends into the next axis with the coordinates rescaled; once the
    /// slice spans several cells, the covering interval is recorded and all
    /// finer axes are held (approximately) in full.
    pub fn project(
        &mut self,
        axes: &[(Axis, u64)],
        lo: f64,
        hi: f64,
        rename: impl Fn(Axis) -> Axis + Copy,
    ) {
        let Some(&(axis, extent)) = axes.first() else {
            return;
        };
        let e = extent as f64;
        let cell_lo = (lo * e).floor();
        let cell_hi = (hi * e).ceil();
        self.narrow(rename(axis), cell_lo / e, cell_hi / e);
        if cell_hi - cell_lo <= 1.0 + 1e-9 && axes.len() > 1 {
            // Within one cell: rescale and descend.
            let inner_lo = (lo * e - cell_lo).clamp(0.0, 1.0);
            let inner_hi = (hi * e - cell_lo).clamp(0.0, 1.0);
            self.project(&axes[1..], inner_lo, inner_hi, rename);
        }
        // Spanning multiple cells: finer axes stay at [0, 1).
    }

    /// Re-expresses this holding relative to a sub-range `[s0, s1)` of `axis`
    /// (the edge *selector*): the interval on `axis` is intersected with the
    /// selector and rescaled to `[0, 1)`. Returns `false`, leaving the
    /// holding as it was, when it misses the selected range entirely.
    pub fn select(&mut self, axis: Axis, s0: f64, s1: f64) -> bool {
        let (lo, hi) = self.interval(axis);
        let new_lo = lo.max(s0);
        let new_hi = hi.min(s1);
        if new_hi <= new_lo {
            return false;
        }
        let w = s1 - s0;
        self.0[axis.index()] = ((new_lo - s0) / w, (new_hi - s0) / w);
        true
    }

    /// Fraction of the full tensor in the overlap of two holdings: the
    /// product, axes ascending from `1.0`, of the interval intersections.
    pub fn overlap_fraction(&self, other: &DenseIntervals) -> f64 {
        let mut fraction = 1.0;
        for (a, b) in self.0.iter().zip(&other.0) {
            // Sanity: an interval wider than its holder means a bookkeeping bug.
            debug_assert!(
                [a, b]
                    .iter()
                    .all(|&&(lo, hi)| lo <= hi + 1e-9 && (-1e-9..=1.0 + 1e-9).contains(&lo)),
                "bad interval"
            );
            fraction *= (a.1.min(b.1) - a.0.max(b.0)).max(0.0);
        }
        fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: fn(Axis) -> Axis = |a| a;

    /// The fraction of the full tensor `iv` covers.
    fn volume(iv: &DenseIntervals) -> f64 {
        iv.0.iter().map(|&(lo, hi)| (hi - lo).max(0.0)).product()
    }

    #[test]
    fn project_single_axis() {
        let mut iv = DenseIntervals::FULL;
        iv.project(&[(Axis::Hidden, 8)], 0.25, 0.5, ID);
        assert_eq!(iv.interval(Axis::Hidden), (0.25, 0.5));
        assert_eq!(volume(&iv), 0.25);
    }

    #[test]
    fn project_nested_within_one_cell() {
        // Dim = (head: 4, embed: 16); slice [1/8, 2/8) lies inside head cell 0.
        let mut iv = DenseIntervals::FULL;
        iv.project(&[(Axis::Head, 4), (Axis::Embed, 16)], 0.125, 0.25, ID);
        assert_eq!(iv.interval(Axis::Head), (0.0, 0.25));
        assert_eq!(iv.interval(Axis::Embed), (0.5, 1.0));
    }

    #[test]
    fn project_spanning_cells_keeps_inner_full() {
        // Slice [0, 1/2) covers head cells 0..2 entirely: embed stays full.
        let mut iv = DenseIntervals::FULL;
        iv.project(&[(Axis::Head, 4), (Axis::Embed, 16)], 0.0, 0.5, ID);
        assert_eq!(iv.interval(Axis::Head), (0.0, 0.5));
        assert_eq!(iv.interval(Axis::Embed), (0.0, 1.0));
    }

    #[test]
    fn project_applies_rename() {
        let mut iv = DenseIntervals::FULL;
        iv.project(&[(Axis::Qkv, 3)], 0.0, 1.0 / 3.0, |_| Axis::Head);
        assert_eq!(iv.interval(Axis::Head), (0.0, 1.0 / 3.0));
        assert_eq!(iv.interval(Axis::Qkv), (0.0, 1.0));
    }

    #[test]
    fn select_renormalizes() {
        let mut iv = DenseIntervals::FULL;
        // Device holds qkv slice [0, 1/6) = first half of the Q third.
        iv.project(&[(Axis::Qkv, 6)], 0.0, 1.0 / 6.0, ID);
        assert!(iv.select(Axis::Qkv, 0.0, 1.0 / 3.0));
        let (lo, hi) = iv.interval(Axis::Qkv);
        assert!((lo - 0.0).abs() < 1e-12 && (hi - 0.5).abs() < 1e-12);
    }

    #[test]
    fn select_misses_disjoint_range() {
        let mut iv = DenseIntervals::FULL;
        // Device holds the V part only; the Q selector misses it and leaves
        // the holding untouched.
        iv.project(&[(Axis::Qkv, 3)], 2.0 / 3.0, 1.0, ID);
        let before = iv;
        assert!(!iv.select(Axis::Qkv, 0.0, 1.0 / 3.0));
        assert_eq!(iv, before);
    }

    #[test]
    fn overlap_of_identical_holdings_is_volume() {
        let mut iv = DenseIntervals::FULL;
        iv.project(&[(Axis::Seq, 8)], 0.25, 0.5, ID);
        iv.project(&[(Axis::Hidden, 8)], 0.0, 0.5, ID);
        let v = volume(&iv);
        assert!((v - 0.125).abs() < 1e-12);
        assert!((iv.overlap_fraction(&iv) - v).abs() < 1e-12);
    }

    #[test]
    fn overlap_with_full_is_own_volume() {
        let mut iv = DenseIntervals::FULL;
        iv.project(&[(Axis::Batch, 4)], 0.5, 0.75, ID);
        assert!((iv.overlap_fraction(&DenseIntervals::FULL) - 0.25).abs() < 1e-12);
        assert_eq!(
            DenseIntervals::FULL.overlap_fraction(&DenseIntervals::FULL),
            1.0
        );
    }

    #[test]
    fn disjoint_holdings_do_not_overlap() {
        let mut a = DenseIntervals::FULL;
        a.project(&[(Axis::Ffn, 4)], 0.0, 0.25, ID);
        let mut b = DenseIntervals::FULL;
        b.project(&[(Axis::Ffn, 4)], 0.5, 0.75, ID);
        assert_eq!(a.overlap_fraction(&b), 0.0);
    }

    #[test]
    fn narrow_intersects_repeated_axes() {
        let mut iv = DenseIntervals::FULL;
        iv.narrow(Axis::Seq, 0.0, 0.5);
        iv.narrow(Axis::Seq, 0.25, 1.0);
        assert_eq!(iv.interval(Axis::Seq), (0.25, 0.5));
    }
}
