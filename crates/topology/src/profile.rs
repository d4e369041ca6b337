//! Profiling and linear-regression machinery (paper §4.1).
//!
//! PrimePar obtains the coefficients of its latency cost functions "by
//! profiling real system latency with different all-reduce tensor sizes and
//! applying linear regression". The substrate here is the analytic cluster
//! model rather than hardware, but the methodology — sample latencies at a
//! range of sizes per *group indicator*, fit a linear model, use the fit in
//! the optimizer — is reproduced faithfully, including its scalability
//! property (one profile per group indicator, not per device).

use crate::{Cluster, DeviceId, DeviceSpace, GroupIndicator};

/// A fitted one-variable linear latency model `y = intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinearModel {
    /// Constant term (seconds).
    pub intercept: f64,
    /// Per-unit term (seconds per byte, per FLOP, ...).
    pub slope: f64,
}

impl LinearModel {
    /// Evaluates the model at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// A fitted two-variable linear model `y = c0 + c1·x1 + c2·x2`
/// (used for compute latency as a function of FLOPs and memory traffic).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinearModel2 {
    /// Constant term.
    pub c0: f64,
    /// Coefficient of the first regressor.
    pub c1: f64,
    /// Coefficient of the second regressor.
    pub c2: f64,
}

impl LinearModel2 {
    /// Evaluates the model at `(x1, x2)`.
    pub fn eval(&self, x1: f64, x2: f64) -> f64 {
        self.c0 + self.c1 * x1 + self.c2 * x2
    }
}

/// Ordinary least squares for `y = a + b·x`.
///
/// # Panics
///
/// Panics if fewer than two samples are supplied or all `x` are identical.
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> LinearModel {
    assert!(
        xs.len() >= 2 && xs.len() == ys.len(),
        "need >= 2 paired samples"
    );
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    assert!(
        denom.abs() > f64::EPSILON * n * sxx.max(1.0),
        "degenerate regressor"
    );
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    LinearModel { intercept, slope }
}

/// Ordinary least squares for `y = c0 + c1·x1 + c2·x2` via 3×3 normal equations.
///
/// # Panics
///
/// Panics if fewer than three samples are supplied or the normal matrix is
/// singular (collinear regressors).
pub fn fit_linear2(x1: &[f64], x2: &[f64], ys: &[f64]) -> LinearModel2 {
    assert!(
        x1.len() >= 3 && x1.len() == x2.len() && x1.len() == ys.len(),
        "need >= 3 paired samples"
    );
    let n = x1.len() as f64;
    // Normal matrix A (symmetric) and right-hand side b for [c0, c1, c2].
    let s1: f64 = x1.iter().sum();
    let s2: f64 = x2.iter().sum();
    let s11: f64 = x1.iter().map(|v| v * v).sum();
    let s22: f64 = x2.iter().map(|v| v * v).sum();
    let s12: f64 = x1.iter().zip(x2).map(|(a, b)| a * b).sum();
    let sy: f64 = ys.iter().sum();
    let s1y: f64 = x1.iter().zip(ys).map(|(a, y)| a * y).sum();
    let s2y: f64 = x2.iter().zip(ys).map(|(a, y)| a * y).sum();
    let a = [[n, s1, s2], [s1, s11, s12], [s2, s12, s22]];
    let b = [sy, s1y, s2y];
    let c = solve3(a, b).expect("collinear regressors in fit_linear2");
    LinearModel2 {
        c0: c[0],
        c1: c[1],
        c2: c[2],
    }
}

/// Solves a 3×3 linear system by Gaussian elimination with partial pivoting.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("finite")
        })?;
        if a[pivot][col].abs() < 1e-300 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..3 {
            let f = a[row][col] / a[col][col];
            for k in col..3 {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let mut acc = b[row];
        for k in row + 1..3 {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// A profiled communication latency model for one group indicator: the paper's
/// per-grouping-pattern linear function of tensor size (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommProfile {
    indicator: GroupIndicator,
    allreduce: LinearModel,
    ring_shift: LinearModel,
}

impl CommProfile {
    /// Profiles `cluster` for the grouping pattern induced by `indicator`:
    /// samples all-reduce and ring-shift latencies across a size sweep and
    /// fits linear models. The slowest group dominates, exactly as in Eq. 7's
    /// inputs.
    pub fn profile(cluster: &Cluster, indicator: GroupIndicator) -> Self {
        let space = cluster.space();
        // One group at a time, walked from the indicator's mask into one
        // reused buffer.
        let mut group = Vec::with_capacity(indicator.group_size());
        let mut for_each_group = |visit: &mut dyn FnMut(&[DeviceId])| {
            for leader in space.group_leaders(indicator) {
                group.clear();
                group.extend(space.group_members(indicator, leader));
                visit(&group);
            }
        };
        let mut spanning = 0;
        for_each_group(&mut |g| spanning += usize::from(cluster.group_spans_nodes(g)));
        let flows = concurrent_internode_flows(cluster, spanning);
        let sizes: [f64; 8] = std::array::from_fn(|i| 64.0 * 1024.0 * (1 << (2 * i)) as f64);
        let mut ar = [0.0; 8];
        let mut rs = [0.0; 8];
        for_each_group(&mut |g| {
            for (i, &bytes) in sizes.iter().enumerate() {
                ar[i] = f64::max(ar[i], cluster.allreduce_time(bytes, g, flows));
                rs[i] = f64::max(rs[i], cluster.ring_shift_time(bytes, g, flows));
            }
        });
        CommProfile {
            indicator,
            allreduce: fit_linear(&sizes, &ar),
            ring_shift: fit_linear(&sizes, &rs),
        }
    }

    /// The indicator this profile describes.
    pub fn indicator(&self) -> GroupIndicator {
        self.indicator
    }

    /// Predicted all-reduce latency for a tensor of `bytes`.
    pub fn allreduce_time(&self, bytes: f64) -> f64 {
        if self.indicator.is_empty() || bytes <= 0.0 {
            0.0
        } else {
            self.allreduce.eval(bytes).max(0.0)
        }
    }

    /// Predicted single ring-shift latency for a block of `bytes`.
    pub fn ring_shift_time(&self, bytes: f64) -> f64 {
        if self.indicator.is_empty() || bytes <= 0.0 {
            0.0
        } else {
            self.ring_shift.eval(bytes).max(0.0)
        }
    }
}

/// Number of simultaneous inter-node flows induced when every group of an
/// indicator communicates at once, `spanning` of them across nodes:
/// node-spanning groups contend for the NICs.
pub(crate) fn concurrent_internode_flows(cluster: &Cluster, spanning: usize) -> usize {
    // Each spanning group crosses each involved node boundary; spread over the
    // number of nodes, the per-NIC flow count is roughly the number of
    // spanning groups per node pair.
    let nodes = cluster.num_devices() / cluster.devices_per_node();
    if nodes <= 1 {
        1
    } else {
        (spanning / (nodes / 2).max(1)).max(1)
    }
}

/// A profiled compute-latency model: the paper fits kernel latency as a
/// linear function of FLOPs and memory traffic (§4.1, "the coefficients are
/// profiled separately for different types of operators"); this samples the
/// device model across a grid of (FLOPs, bytes) points and regresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeProfile {
    model: LinearModel2,
}

impl ComputeProfile {
    /// Fits the device's kernel-latency surface by sampling a log-spaced grid.
    pub fn profile(device: &crate::DeviceModel) -> Self {
        let mut flops = Vec::new();
        let mut bytes = Vec::new();
        let mut times = Vec::new();
        for fe in 0..5 {
            for be in 0..5 {
                let f = 1e9 * 8f64.powi(fe);
                let b = 1e6 * 8f64.powi(be);
                flops.push(f);
                bytes.push(b);
                times.push(device.kernel_time(f, b));
            }
        }
        ComputeProfile {
            model: fit_linear2(&flops, &bytes, &times),
        }
    }

    /// Predicted kernel latency for `flops` floating-point operations over
    /// `bytes` of memory traffic.
    pub fn kernel_time(&self, flops: f64, bytes: f64) -> f64 {
        self.model.eval(flops, bytes).max(0.0)
    }

    /// The fitted coefficients `(overhead s, s/FLOP, s/byte)`.
    pub fn coefficients(&self) -> (f64, f64, f64) {
        (self.model.c0, self.model.c1, self.model.c2)
    }
}

/// Profiles every subset-of-bits indicator is infeasible; callers profile the
/// indicators they need. This helper enumerates all indicators for a space —
/// useful in tests and for exhaustive small-scale studies.
pub fn all_indicators(space: DeviceSpace) -> Vec<GroupIndicator> {
    let n = space.n_bits();
    (0..(1usize << n))
        .map(|mask| GroupIndicator::new((1..=n).filter(|&p| mask & (1 << (p - 1)) != 0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;

    #[test]
    fn fit_linear_recovers_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let m = fit_linear(&xs, &ys);
        assert!((m.intercept - 3.0).abs() < 1e-9);
        assert!((m.slope - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fit_linear2_recovers_exact_plane() {
        let x1 = [1.0, 2.0, 3.0, 5.0, 7.0];
        let x2 = [2.0, 1.0, 5.0, 2.0, 9.0];
        let ys: Vec<f64> = x1
            .iter()
            .zip(&x2)
            .map(|(a, b)| 1.5 + 0.5 * a - 2.0 * b)
            .collect();
        let m = fit_linear2(&x1, &x2, &ys);
        assert!((m.c0 - 1.5).abs() < 1e-8);
        assert!((m.c1 - 0.5).abs() < 1e-8);
        assert!((m.c2 + 2.0).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn fit_linear_rejects_constant_x() {
        fit_linear(&[1.0, 1.0], &[2.0, 3.0]);
    }

    #[test]
    fn comm_profile_matches_cluster_model() {
        // The underlying model *is* linear, so the fit should be near-perfect.
        let cluster = Cluster::v100_like(8);
        let ind = GroupIndicator::new(vec![2, 3]); // intra-node groups of 4
        let profile = CommProfile::profile(&cluster, ind);
        let groups = cluster.space().groups(ind);
        for bytes in [1e5, 1e6, 1e7] {
            let expect = groups
                .iter()
                .map(|g| cluster.allreduce_time(bytes, g, 1))
                .fold(0.0, f64::max);
            let got = profile.allreduce_time(bytes);
            assert!(
                (got - expect).abs() < 0.05 * expect + 1e-6,
                "bytes {bytes}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn internode_indicator_costs_more_than_intranode() {
        // Fig. 5's point: indicator (d1,d3) groups contain slow inter-node
        // links; (d2,d3) groups stay within a node and are faster.
        let cluster = Cluster::v100_like(8);
        let slow = CommProfile::profile(&cluster, GroupIndicator::new(vec![1, 3]));
        let fast = CommProfile::profile(&cluster, GroupIndicator::new(vec![2, 3]));
        assert!(slow.allreduce_time(1e7) > fast.allreduce_time(1e7));
        assert!(slow.ring_shift_time(1e7) > fast.ring_shift_time(1e7));
    }

    #[test]
    fn empty_indicator_profiles_to_zero() {
        let cluster = Cluster::v100_like(4);
        let p = CommProfile::profile(&cluster, GroupIndicator::empty());
        assert_eq!(p.allreduce_time(1e9), 0.0);
        assert_eq!(p.ring_shift_time(1e9), 0.0);
    }

    #[test]
    fn all_indicators_enumeration() {
        let space = DeviceSpace::new(3);
        let inds = all_indicators(space);
        assert_eq!(inds.len(), 8);
        assert!(inds.iter().any(|i| i.is_empty()));
        assert!(inds.iter().any(|i| i.len() == 3));
    }

    #[test]
    fn compute_profile_recovers_the_device_surface() {
        // The device model is itself linear, so the fit is near-exact — the
        // same situation the paper's profiling-and-regression methodology
        // assumes on hardware.
        let cluster = Cluster::v100_like(4);
        let device = cluster.device_model();
        let profile = ComputeProfile::profile(device);
        for (f, b) in [(1e10, 1e7), (5e12, 2e9), (1e9, 1e6)] {
            let exact = device.kernel_time(f, b);
            let fitted = profile.kernel_time(f, b);
            assert!(
                (exact - fitted).abs() < 1e-6 * exact + 1e-9,
                "({f}, {b}): exact {exact} vs fitted {fitted}"
            );
        }
        let (c0, c1, c2) = profile.coefficients();
        assert!(c0 > 0.0 && c1 > 0.0 && c2 > 0.0);
    }

    #[test]
    fn solve3_handles_permuted_pivot() {
        // Leading zero forces a pivot swap.
        let a = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]];
        let x = solve3(a, [2.0, 1.0, 3.0]).unwrap();
        assert_eq!(x, [1.0, 2.0, 3.0]);
    }
}
