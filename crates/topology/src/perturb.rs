//! Seeded fault & variance injection for clusters.
//!
//! The paper's cost model (Eq. 7) and the simulator assume ideal, homogeneous
//! devices and links. Real deployments are not: kernels jitter, NICs degrade,
//! devices die and their shards fail over to a neighbor. This module defines a
//! [`PerturbationModel`] — the *distribution* of such non-ideal effects — and
//! [`AppliedPerturbation`] — one concrete scenario drawn from it with the
//! vendored seeded RNG, so every scenario is bit-reproducible from
//! `(model, seed)`.
//!
//! [`crate::Cluster::perturbed`] applies a drawn scenario: the cluster keeps
//! its topology shape (device count, nodes, link classes) but its timing
//! functions — `kernel_time` via the effective device model, `allreduce_time`
//! / `ring_shift_time` / `p2p_time` via per-device and per-link-class factors
//! — answer as the degraded hardware would.
//!
//! # Seeding contract
//!
//! A scenario draw consumes the SplitMix64 stream in a fixed order regardless
//! of which knobs are zero: first one draw per link class (intra, inter),
//! then per device index `0..n` exactly four draws (compute jitter, link
//! jitter, degraded-link coin, dead-device coin). This keeps `(model, seed)`
//! → scenario a pure function and makes scenario `i` of a sweep independent
//! of the model's zero/non-zero structure.

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distribution of hardware non-idealities a scenario is drawn from.
///
/// All factors are multiplicative slowdowns ≥ 1: a device with compute factor
/// `f` runs every kernel `f×` slower; a link with factor `f` has `f×` the
/// latency and `1/f×` the bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbationModel {
    /// Per-device compute slowdown is uniform in `[1, 1 + compute_jitter]`.
    pub compute_jitter: f64,
    /// Per-link-class degradation: each class (intra-node, inter-node) draws
    /// one factor uniform in `[1, 1 + link_class_jitter]` applied to every
    /// link of that class.
    pub link_class_jitter: f64,
    /// Per-device link degradation is uniform in `[1, 1 + device_link_jitter]`
    /// on top of the class factor.
    pub device_link_jitter: f64,
    /// Probability that a device's links are *severely* degraded (a flapping
    /// NIC or downgraded PCIe lane).
    pub degraded_link_prob: f64,
    /// Extra multiplicative link slowdown of a severely degraded device
    /// (≥ 1; clamped up to 1 when applied).
    pub degraded_link_factor: f64,
    /// Probability that a device is dead. A dead device's shard fails over to
    /// its bit-flip buddy `d ^ 1`, which then carries twice the work: both
    /// slots run at the buddy's pace with compute and link factors doubled.
    /// If both buddies die the pair is revived (the scenario stays runnable).
    /// Single-device clusters ignore dead draws.
    pub dead_device_prob: f64,
}

impl PerturbationModel {
    /// No perturbation at all: every factor is exactly 1.
    pub fn ideal() -> Self {
        PerturbationModel {
            compute_jitter: 0.0,
            link_class_jitter: 0.0,
            device_link_jitter: 0.0,
            degraded_link_prob: 0.0,
            degraded_link_factor: 1.0,
            dead_device_prob: 0.0,
        }
    }

    /// Day-to-day variance: a few percent of kernel jitter, ~10% link jitter,
    /// the odd degraded NIC, no dead devices.
    pub fn mild() -> Self {
        PerturbationModel {
            compute_jitter: 0.05,
            link_class_jitter: 0.05,
            device_link_jitter: 0.10,
            degraded_link_prob: 0.05,
            degraded_link_factor: 4.0,
            dead_device_prob: 0.0,
        }
    }

    /// A bad day: heavy jitter, frequent degraded links, occasional dead
    /// devices failing over to their buddies.
    pub fn harsh() -> Self {
        PerturbationModel {
            compute_jitter: 0.30,
            link_class_jitter: 0.20,
            device_link_jitter: 0.30,
            degraded_link_prob: 0.15,
            degraded_link_factor: 8.0,
            dead_device_prob: 0.05,
        }
    }

    /// Checks the model describes a valid distribution.
    ///
    /// # Errors
    ///
    /// Returns [`PerturbationError`] when a jitter is negative or non-finite,
    /// a probability is outside `[0, 1]`, or the degraded-link factor is
    /// below 1 or non-finite.
    pub fn validate(&self) -> Result<(), PerturbationError> {
        let jitters = [
            ("compute_jitter", self.compute_jitter),
            ("link_class_jitter", self.link_class_jitter),
            ("device_link_jitter", self.device_link_jitter),
        ];
        for (name, v) in jitters {
            if !v.is_finite() || v < 0.0 {
                return Err(PerturbationError::BadJitter { name, value: v });
            }
        }
        let probs = [
            ("degraded_link_prob", self.degraded_link_prob),
            ("dead_device_prob", self.dead_device_prob),
        ];
        for (name, v) in probs {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(PerturbationError::BadProbability { name, value: v });
            }
        }
        if !self.degraded_link_factor.is_finite() || self.degraded_link_factor < 1.0 {
            return Err(PerturbationError::BadFactor {
                name: "degraded_link_factor",
                value: self.degraded_link_factor,
            });
        }
        Ok(())
    }
}

impl Default for PerturbationModel {
    fn default() -> Self {
        PerturbationModel::mild()
    }
}

/// Error raised by [`PerturbationModel::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerturbationError {
    /// A jitter knob is negative or non-finite.
    BadJitter {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A probability knob is outside `[0, 1]` or non-finite.
    BadProbability {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A factor knob is below 1 or non-finite.
    BadFactor {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for PerturbationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerturbationError::BadJitter { name, value } => {
                write!(f, "{name} must be finite and >= 0, got {value}")
            }
            PerturbationError::BadProbability { name, value } => {
                write!(f, "{name} must be a probability in [0, 1], got {value}")
            }
            PerturbationError::BadFactor { name, value } => {
                write!(f, "{name} must be finite and >= 1, got {value}")
            }
        }
    }
}

impl Error for PerturbationError {}

/// One concrete scenario: the factors actually drawn from a
/// [`PerturbationModel`] for a cluster of `n` devices.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedPerturbation {
    /// Seed the scenario was drawn with.
    pub seed: u64,
    /// Per-link-class factor for intra-node links.
    pub intra_link_factor: f64,
    /// Per-link-class factor for inter-node links.
    pub inter_link_factor: f64,
    /// Per-device compute slowdown factors (all ≥ 1).
    pub compute_factors: Vec<f64>,
    /// Per-device link slowdown factors (all ≥ 1), on top of the class factor.
    pub link_factors: Vec<f64>,
    /// Devices that died and were remapped onto their `d ^ 1` buddy.
    pub dead: Vec<bool>,
}

impl AppliedPerturbation {
    /// Draws one scenario for `n` devices. See the module docs for the
    /// seeding contract.
    ///
    /// # Panics
    ///
    /// Panics if the model fails [`PerturbationModel::validate`] or `n == 0`.
    pub fn draw(model: &PerturbationModel, seed: u64, n: usize) -> Self {
        model.validate().expect("valid perturbation model");
        assert!(n > 0, "cluster must have at least one device");
        let mut rng = StdRng::seed_from_u64(seed);
        let severe = model.degraded_link_factor.max(1.0);
        // Fixed draw order: class factors first, then 4 draws per device.
        let intra_link_factor = 1.0 + rng.gen_range(0.0..1.0) * model.link_class_jitter;
        let inter_link_factor = 1.0 + rng.gen_range(0.0..1.0) * model.link_class_jitter;
        let mut compute_factors = Vec::with_capacity(n);
        let mut link_factors = Vec::with_capacity(n);
        let mut dead = Vec::with_capacity(n);
        for _ in 0..n {
            compute_factors.push(1.0 + rng.gen_range(0.0..1.0) * model.compute_jitter);
            let mut link = 1.0 + rng.gen_range(0.0..1.0) * model.device_link_jitter;
            if rng.gen_bool(model.degraded_link_prob) {
                link *= severe;
            }
            link_factors.push(link);
            dead.push(n > 1 && rng.gen_bool(model.dead_device_prob));
        }
        // Revive pairs that both died, then fail dead shards over: the buddy
        // carries both shards (factors doubled) and the dead slot mirrors the
        // buddy's pace so the bulk-synchronous schedule stays well-defined.
        for d in 0..n {
            let b = d ^ 1;
            if b < n && dead[d] && dead[b] && d < b {
                dead[b] = false;
            }
        }
        for d in 0..n {
            if dead[d] {
                let b = d ^ 1;
                compute_factors[b] *= 2.0;
                link_factors[b] *= 2.0;
                compute_factors[d] = compute_factors[b];
                link_factors[d] = link_factors[b];
            }
        }
        AppliedPerturbation {
            seed,
            intra_link_factor,
            inter_link_factor,
            compute_factors,
            link_factors,
            dead,
        }
    }

    /// The no-op scenario for `n` devices: every factor exactly 1, nobody
    /// dead. Equivalent to drawing from [`PerturbationModel::ideal`] but
    /// without consuming an RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn ideal(n: usize) -> Self {
        assert!(n > 0, "cluster must have at least one device");
        AppliedPerturbation {
            seed: 0,
            intra_link_factor: 1.0,
            inter_link_factor: 1.0,
            compute_factors: vec![1.0; n],
            link_factors: vec![1.0; n],
            dead: vec![false; n],
        }
    }

    /// `true` when the scenario is indistinguishable from ideal hardware:
    /// every factor is exactly 1 and no device is dead.
    pub fn is_noop(&self) -> bool {
        self.intra_link_factor == 1.0
            && self.inter_link_factor == 1.0
            && self.compute_factors.iter().all(|&f| f == 1.0)
            && self.link_factors.iter().all(|&f| f == 1.0)
            && self.dead.iter().all(|&d| !d)
    }

    /// A strictly-comparable severity dial: multiplies every *per-device*
    /// compute and link factor by `lambda` (≥ 1), leaving the per-class
    /// factors and the dead set untouched. Because every cluster timing
    /// primitive is linear in the per-device factors, all timings of the
    /// scaled scenario are exactly `lambda ×` the base scenario's — the
    /// canonical "strictly worse perturbation" family used by the replan
    /// monotonicity tests.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is below 1 or non-finite.
    pub fn scaled(&self, lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 1.0,
            "scale factor must be finite and >= 1, got {lambda}"
        );
        AppliedPerturbation {
            seed: self.seed,
            intra_link_factor: self.intra_link_factor,
            inter_link_factor: self.inter_link_factor,
            compute_factors: self.compute_factors.iter().map(|f| f * lambda).collect(),
            link_factors: self.link_factors.iter().map(|f| f * lambda).collect(),
            dead: self.dead.clone(),
        }
    }

    /// Number of devices the scenario was drawn for.
    pub fn num_devices(&self) -> usize {
        self.compute_factors.len()
    }

    /// The largest per-device compute slowdown of the scenario.
    pub fn max_compute_factor(&self) -> f64 {
        self.compute_factors.iter().copied().fold(1.0, f64::max)
    }

    /// The largest per-device link slowdown of the scenario (excluding the
    /// class factors).
    pub fn max_link_factor(&self) -> f64 {
        self.link_factors.iter().copied().fold(1.0, f64::max)
    }

    /// Number of dead (failed-over) devices.
    pub fn dead_devices(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_deterministic() {
        let m = PerturbationModel::harsh();
        let a = AppliedPerturbation::draw(&m, 7, 16);
        let b = AppliedPerturbation::draw(&m, 7, 16);
        assert_eq!(a, b);
        let c = AppliedPerturbation::draw(&m, 8, 16);
        assert_ne!(a, c, "different seeds must draw different scenarios");
    }

    #[test]
    fn ideal_model_draws_unit_factors() {
        let a = AppliedPerturbation::draw(&PerturbationModel::ideal(), 3, 8);
        assert!(a.compute_factors.iter().all(|&f| f == 1.0));
        assert!(a.link_factors.iter().all(|&f| f == 1.0));
        assert_eq!(a.intra_link_factor, 1.0);
        assert_eq!(a.inter_link_factor, 1.0);
        assert_eq!(a.dead_devices(), 0);
    }

    #[test]
    fn factors_stay_at_least_one() {
        for seed in 0..32 {
            let a = AppliedPerturbation::draw(&PerturbationModel::harsh(), seed, 8);
            assert!(a.compute_factors.iter().all(|&f| f >= 1.0 && f.is_finite()));
            assert!(a.link_factors.iter().all(|&f| f >= 1.0 && f.is_finite()));
            assert!(a.intra_link_factor >= 1.0 && a.inter_link_factor >= 1.0);
        }
    }

    #[test]
    fn dead_devices_mirror_their_buddy() {
        let m = PerturbationModel {
            dead_device_prob: 0.5,
            ..PerturbationModel::ideal()
        };
        let mut saw_dead = false;
        for seed in 0..64 {
            let a = AppliedPerturbation::draw(&m, seed, 8);
            for d in 0..8 {
                let b = d ^ 1;
                assert!(!(a.dead[d] && a.dead[b]), "buddy pair both dead");
                if a.dead[d] {
                    saw_dead = true;
                    assert_eq!(a.compute_factors[d], a.compute_factors[b]);
                    assert_eq!(a.link_factors[d], a.link_factors[b]);
                    assert_eq!(a.compute_factors[b], 2.0, "ideal buddy doubles");
                }
            }
        }
        assert!(saw_dead, "p=0.5 over 64 seeds must kill someone");
    }

    #[test]
    fn ideal_scenario_is_noop_and_drawn_ideal_matches() {
        let a = AppliedPerturbation::ideal(8);
        assert!(a.is_noop());
        let mut drawn = AppliedPerturbation::draw(&PerturbationModel::ideal(), 0, 8);
        drawn.seed = 0;
        assert_eq!(a, drawn);
        let harsh = AppliedPerturbation::draw(&PerturbationModel::harsh(), 1, 8);
        assert!(!harsh.is_noop());
    }

    #[test]
    fn scaled_multiplies_only_per_device_factors() {
        let a = AppliedPerturbation::draw(&PerturbationModel::harsh(), 11, 8);
        let s = a.scaled(1.5);
        assert_eq!(s.intra_link_factor, a.intra_link_factor);
        assert_eq!(s.inter_link_factor, a.inter_link_factor);
        assert_eq!(s.dead, a.dead);
        for d in 0..8 {
            assert_eq!(s.compute_factors[d], a.compute_factors[d] * 1.5);
            assert_eq!(s.link_factors[d], a.link_factors[d] * 1.5);
        }
        // Identity scale is a no-op.
        assert_eq!(a.scaled(1.0), a);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaled_rejects_sub_unit_lambda() {
        AppliedPerturbation::ideal(4).scaled(0.5);
    }

    #[test]
    fn single_device_ignores_dead_draws() {
        let m = PerturbationModel {
            dead_device_prob: 1.0,
            ..PerturbationModel::ideal()
        };
        let a = AppliedPerturbation::draw(&m, 0, 1);
        assert_eq!(a.dead_devices(), 0);
    }

    #[test]
    fn validate_rejects_bad_models() {
        let bad_jitter = PerturbationModel {
            compute_jitter: -0.1,
            ..PerturbationModel::ideal()
        };
        assert!(matches!(
            bad_jitter.validate(),
            Err(PerturbationError::BadJitter {
                name: "compute_jitter",
                ..
            })
        ));
        let bad_prob = PerturbationModel {
            dead_device_prob: 1.5,
            ..PerturbationModel::ideal()
        };
        assert!(matches!(
            bad_prob.validate(),
            Err(PerturbationError::BadProbability { .. })
        ));
        let bad_factor = PerturbationModel {
            degraded_link_factor: 0.5,
            ..PerturbationModel::ideal()
        };
        assert!(matches!(
            bad_factor.validate(),
            Err(PerturbationError::BadFactor { .. })
        ));
        assert!(!bad_factor.validate().unwrap_err().to_string().is_empty());
        assert!(PerturbationModel::mild().validate().is_ok());
        assert!(PerturbationModel::harsh().validate().is_ok());
    }
}
