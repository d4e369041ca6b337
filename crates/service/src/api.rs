//! Typed requests and responses of the planner service and the
//! `primepar::api` v2 facade.
//!
//! A [`PlanRequest`] names a workload (zoo model, cluster size,
//! micro-batch/sequence shape) plus planner options; executing one — through
//! [`WarmCache::execute_plan`](crate::WarmCache::execute_plan), a
//! [`ServiceClient`](crate::ServiceClient), or the line protocol — yields a
//! [`PlanResponse`] carrying the [`ModelPlan`], its canonical text rendering,
//! the run's [`PlannerMetrics`] and the cache outcome. A [`ReplanRequest`]
//! names a *running* workload plus an observed degradation scenario and
//! yields a [`ReplanResponse`] carrying the costed
//! [`MigrationDecision`](primepar_search::MigrationDecision).
//! Validation happens in the `resolve` methods; nothing in this crate panics
//! on bad input.
//!
//! A [`PlanRequest`] is the one place a request states its workload, `id`
//! and deadline: a [`SimRequest`] or [`ReplanRequest`] embeds one and adds
//! only its own knobs ([`Request::workload`]). Resolving it yields the
//! [`ResolvedPlan`], the plan's identity, whose *canonical fingerprint*
//! names the plan it produces: everything that changes the optimizer's
//! output is included (model, devices, batch, seq, layers, `α`, space
//! options, and any non-exact search strategy) and everything proven not to
//! is excluded (`threads` — pinned to bitwise-identical plans; `id` and
//! `deadline_ms` — delivery concerns). Whole-plan memoization keys on this
//! fingerprint, and a persisted memo entry is restored by resolving its
//! workload again.

use std::time::Duration;

use primepar_graph::ModelConfig;
use primepar_search::{
    ModelPlan, PlannerMetrics, PlannerOptions, ReplanOptions, ReplanOutcome, SearchStrategy,
    SpaceOptions,
};
use primepar_sim::{ModelReport, RobustnessOptions, RobustnessReport, SimOptions};
use primepar_topology::{AppliedPerturbation, PerturbationModel};

use crate::Error;

/// Schema tag carried by every service protocol frame (`schema_version`),
/// in both directions: a request frame without it, or with any other tag,
/// is answered with an in-band `protocol` error.
pub const SERVICE_SCHEMA: &str = "primepar.service.v2";

/// A plan request: one workload to optimize.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Caller-chosen request id, echoed in the response (and naming the
    /// `--plan-dir` artifact in protocol mode).
    pub id: String,
    /// Zoo model name, resolved via [`ModelConfig::by_name`] — any CLI
    /// spelling (`"opt-6.7b"`, `"OPT 6.7B"`) works.
    pub model: String,
    /// Cluster size (must be a power of two).
    pub devices: usize,
    /// Micro-batch size.
    pub batch: u64,
    /// Sequence length.
    pub seq: u64,
    /// Stacked layer count; `None` uses the zoo model's depth.
    pub layers: Option<u64>,
    /// Eq. 7 latency/memory trade-off `α` (finite and non-negative).
    pub alpha: f64,
    /// Planner worker threads (`0` = single-threaded).
    pub threads: usize,
    /// Include the temporal `P_{2^k×2^k}` primitives in the space.
    pub allow_temporal: bool,
    /// Include batch splits in the space.
    pub allow_batch_split: bool,
    /// Largest temporal primitive, as `k`.
    pub max_temporal_k: u32,
    /// Search strategy (`PlannerOptions::strategy`): the exact sweep, a
    /// fixed-width beam, or the anytime driver. Non-exact strategies change
    /// the plan the request names, so they are part of the fingerprint.
    pub strategy: SearchStrategy,
    /// Relative deadline: the request is cancelled if a worker has not
    /// picked it up within this budget.
    pub deadline_ms: Option<u64>,
}

impl Default for PlanRequest {
    fn default() -> Self {
        let space = SpaceOptions::default();
        PlanRequest {
            id: String::new(),
            model: String::new(),
            devices: 4,
            batch: 8,
            seq: 2048,
            layers: None,
            alpha: 0.0,
            threads: 0,
            allow_temporal: space.allow_temporal,
            allow_batch_split: space.allow_batch_split,
            max_temporal_k: space.max_temporal_k,
            strategy: SearchStrategy::Exact,
            deadline_ms: None,
        }
    }
}

impl PlanRequest {
    /// A builder pre-loaded with the CLI defaults (4 devices, batch 8,
    /// sequence 2048, full space, exact search).
    pub fn builder(model: impl Into<String>) -> PlanRequestBuilder {
        PlanRequestBuilder(PlanRequest {
            model: model.into(),
            ..PlanRequest::default()
        })
    }

    /// Validates the request and resolves names to domain objects.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for an unknown model, a degenerate shape, or an `α`
    /// that is non-finite or negative (the DP's lower bound assumes
    /// non-negative terms); [`Error::Topology`] for a device count that is
    /// not a power of two.
    pub fn resolve(&self) -> Result<ResolvedPlan, Error> {
        let model = ModelConfig::by_name(&self.model).ok_or_else(|| {
            Error::config(format!(
                "unknown model: {} (known: {})",
                self.model,
                ModelConfig::all().map(|m| m.name).join(", ")
            ))
        })?;
        if self.devices == 0 || !self.devices.is_power_of_two() {
            return Err(Error::topology(format!(
                "devices must be a power of two, got {}",
                self.devices
            )));
        }
        if self.batch == 0 || self.seq == 0 {
            return Err(Error::config(format!(
                "batch and seq must be positive, got batch={} seq={}",
                self.batch, self.seq
            )));
        }
        let layers = self.layers.unwrap_or(model.layers);
        if layers == 0 {
            return Err(Error::config("layers must be positive, got 0"));
        }
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err(Error::config(format!(
                "alpha must be finite and non-negative, got {}",
                self.alpha
            )));
        }
        Ok(ResolvedPlan {
            model,
            devices: self.devices,
            batch: self.batch,
            seq: self.seq,
            layers,
            opts: PlannerOptions::default()
                .with_space(SpaceOptions {
                    allow_temporal: self.allow_temporal,
                    allow_batch_split: self.allow_batch_split,
                    max_temporal_k: self.max_temporal_k,
                })
                .with_alpha(self.alpha)
                .with_threads(self.threads)
                .with_strategy(self.strategy),
        })
    }

    /// The canonical fingerprint of the plan this request produces (see the
    /// module docs for what is included and why).
    ///
    /// # Errors
    ///
    /// Propagates [`resolve`](PlanRequest::resolve) failures — an invalid
    /// request names no plan.
    pub fn fingerprint(&self) -> Result<String, Error> {
        Ok(self.resolve()?.fingerprint())
    }

    /// Executes this request against the process-wide warm cache — the
    /// one-call facade entry point.
    ///
    /// # Errors
    ///
    /// Propagates [`resolve`](PlanRequest::resolve) failures.
    pub fn run(&self) -> Result<PlanResponse, Error> {
        crate::WarmCache::global().execute_plan(self)
    }
}

/// Fluent constructor for [`PlanRequest`].
#[derive(Debug, Clone)]
pub struct PlanRequestBuilder(PlanRequest);

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        #[must_use]
        pub fn $name(mut self, value: $ty) -> Self {
            self.0.$name = value.into();
            self
        }
    };
}

impl PlanRequestBuilder {
    setter!(
        /// Sets the request id echoed in the response.
        id: impl Into<String>
    );
    setter!(
        /// Sets the cluster size (validated to a power of two at resolve).
        devices: usize
    );
    setter!(
        /// Sets the micro-batch size.
        batch: u64
    );
    setter!(
        /// Sets the sequence length.
        seq: u64
    );
    setter!(
        /// Overrides the stacked layer count.
        layers: Option<u64>
    );
    setter!(
        /// Sets Eq. 7's `α`.
        alpha: f64
    );
    setter!(
        /// Sets the planner thread count.
        threads: usize
    );
    setter!(
        /// Toggles the temporal primitives.
        allow_temporal: bool
    );
    setter!(
        /// Toggles batch splits.
        allow_batch_split: bool
    );
    setter!(
        /// Caps the temporal primitive size.
        max_temporal_k: u32
    );
    setter!(
        /// Picks the search strategy (exact, beam, anytime).
        strategy: SearchStrategy
    );
    setter!(
        /// Sets the pickup deadline in milliseconds.
        deadline_ms: Option<u64>
    );

    /// The finished request (validation happens at execution).
    pub fn build(self) -> PlanRequest {
        self.0
    }
}

/// A validated [`PlanRequest`] with names resolved to domain objects: the
/// identity of one plan. Two requests that resolve to equal workloads
/// produce bitwise-identical plans; the [fingerprint](ResolvedPlan::fingerprint)
/// names it, and a memo entry keeps it (`primepar.cache.v1` persists it so a
/// restart can rebuild the entry).
#[derive(Debug, Clone)]
pub struct ResolvedPlan {
    /// The zoo model.
    pub model: ModelConfig,
    /// Cluster size (power of two).
    pub devices: usize,
    /// Micro-batch size.
    pub batch: u64,
    /// Sequence length.
    pub seq: u64,
    /// Stacked layer count.
    pub layers: u64,
    /// Planner configuration.
    pub opts: PlannerOptions,
}

impl ResolvedPlan {
    /// The canonical plan fingerprint: the plan identity rendered as a
    /// string (see the module docs for what is included and why). Model
    /// names canonicalize to their lowercase alphanumeric spine, so every
    /// CLI spelling of a model collides into the same memo slot; `α` is
    /// rendered by bit pattern so distinct floats never alias. Non-exact
    /// strategies append a `:st:` suffix; the exact default appends nothing,
    /// so every fingerprint ever written by a pre-strategy build still names
    /// the same (exact) plan — persisted caches restore unchanged.
    pub fn fingerprint(&self) -> String {
        let canon: String = self
            .model
            .name
            .chars()
            .filter(char::is_ascii_alphanumeric)
            .map(|c| c.to_ascii_lowercase())
            .collect();
        let (space, strategy) = (&self.opts.space, self.opts.strategy);
        let mut fp = format!(
            "plan:{canon}:d{}:b{}:s{}:l{}:a{:016x}:t{}:bs{}:k{}",
            self.devices,
            self.batch,
            self.seq,
            self.layers,
            self.opts.alpha.to_bits(),
            u8::from(space.allow_temporal),
            u8::from(space.allow_batch_split),
            space.max_temporal_k,
        );
        if strategy != SearchStrategy::Exact {
            fp.push_str(&format!(":st:{strategy}"));
        }
        fp
    }
}

/// How the caches treated this one request. The serving cache's cumulative
/// counts are [`WarmCache::stats`](crate::WarmCache::stats), and the `stats`
/// frame on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheOutcome {
    /// This response was served from the whole-plan memo.
    pub plan_cache_hit: bool,
    /// This response coalesced onto another request's in-flight planner run
    /// (the plan was computed exactly once and shared).
    pub coalesced: bool,
    /// Volume planes the request's planner run found in the warm cache:
    /// the cold plan's run on a memo miss, the decision's own run for a
    /// replan, 0 when no planner ran.
    pub warm_matrix_hits: u64,
    /// Volume planes that run had to sweep.
    pub warm_matrix_misses: u64,
}

/// The answer to a [`PlanRequest`].
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// Echo of the request id.
    pub id: String,
    /// Canonical plan fingerprint (the memo key).
    pub fingerprint: String,
    /// Canonical zoo model name.
    pub model: String,
    /// Cluster size.
    pub devices: usize,
    /// Micro-batch size.
    pub batch: u64,
    /// Sequence length.
    pub seq: u64,
    /// Stacked layer count actually planned.
    pub layers: u64,
    /// The search strategy this request asked for (memo hits echo the
    /// request's strategy even when the stored metrics came from another).
    pub strategy: SearchStrategy,
    /// The optimized plan — bitwise-identical to a direct
    /// [`Planner::optimize`](primepar_search::Planner::optimize) call on the
    /// same inputs.
    pub plan: ModelPlan,
    /// [`render_plan`](primepar_search::render_plan) text of the plan — the
    /// byte-for-byte comparison and `--plan-dir` artifact format.
    pub plan_text: String,
    /// Planner telemetry of the run that produced the plan (the original
    /// cold run's, when served from the memo).
    pub metrics: PlannerMetrics,
    /// Cache accounting for this request.
    pub cache: CacheOutcome,
    /// Wall-clock service time of this request (memo hits are microseconds;
    /// cold plans are the full search).
    pub elapsed: Duration,
}

/// A simulation request: price an optimized plan on the cluster simulator,
/// optionally under a seeded fault/variance sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// The workload to plan and simulate, with the request's id and
    /// deadline.
    pub plan: PlanRequest,
    /// Activation recomputation (gradient checkpointing).
    pub recompute_activations: bool,
    /// Robustness scenarios; `0` simulates ideal hardware only.
    pub scenarios: usize,
    /// Variance profile: `ideal`, `mild` or `harsh`.
    pub profile: String,
    /// Base seed of the scenario sweep.
    pub seed: u64,
}

impl SimRequest {
    /// A simulation of `plan` on ideal hardware (no sweep).
    pub fn of(plan: PlanRequest) -> Self {
        SimRequest {
            plan,
            recompute_activations: false,
            scenarios: 0,
            profile: "mild".into(),
            seed: 42,
        }
    }

    /// Adds a seeded robustness sweep to the simulation.
    #[must_use]
    pub fn with_sweep(mut self, profile: impl Into<String>, scenarios: usize, seed: u64) -> Self {
        self.profile = profile.into();
        self.scenarios = scenarios;
        self.seed = seed;
        self
    }

    /// Validates the sweep configuration.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for an unknown profile name or an invalid embedded
    /// plan request.
    pub fn resolve(&self) -> Result<(ResolvedPlan, SimOptions, Option<RobustnessOptions>), Error> {
        let resolved = self.plan.resolve()?;
        let sim = SimOptions {
            recompute_activations: self.recompute_activations,
        };
        let sweep = if self.scenarios == 0 {
            None
        } else {
            let model = perturbation_profile(&self.profile)?;
            Some(RobustnessOptions {
                model,
                scenarios: self.scenarios,
                base_seed: self.seed,
                sim,
            })
        };
        Ok((resolved, sim, sweep))
    }

    /// Executes this request against the process-wide warm cache.
    ///
    /// # Errors
    ///
    /// Propagates [`resolve`](SimRequest::resolve) failures.
    pub fn run(&self) -> Result<SimResponse, Error> {
        crate::WarmCache::global().execute_sim(self)
    }
}

/// The answer to a [`SimRequest`].
#[derive(Debug, Clone)]
pub struct SimResponse {
    /// Echo of the request id.
    pub id: String,
    /// Fingerprint of the plan that was simulated.
    pub fingerprint: String,
    /// The simulated iteration on the ideal cluster.
    pub report: ModelReport,
    /// The robustness sweep of the plan, when one was requested.
    pub robustness: Option<RobustnessReport>,
    /// Cache accounting of the underlying plan lookup.
    pub cache: CacheOutcome,
    /// Wall-clock service time of this request.
    pub elapsed: Duration,
}

/// Resolves a perturbation profile name (`ideal` / `mild` / `harsh`).
///
/// # Errors
///
/// [`Error::Config`] for any other name.
pub fn perturbation_profile(name: &str) -> Result<PerturbationModel, Error> {
    match name {
        "ideal" => Ok(PerturbationModel::ideal()),
        "mild" => Ok(PerturbationModel::mild()),
        "harsh" => Ok(PerturbationModel::harsh()),
        other => Err(Error::config(format!(
            "unknown perturbation profile: {other} (expected ideal|mild|harsh)"
        ))),
    }
}

/// A replan request: a running workload hit by an observed degradation
/// scenario, asking for the costed migration decision (v2 `replan` frame).
///
/// The scenario is named reproducibly — a profile, a seed, and an optional
/// `λ ≥ 1` severity multiplier ([`AppliedPerturbation::scaled`]) — so a
/// decision trace can be replayed bit-for-bit. The embedded [`PlanRequest`]
/// is the job as it was planned (the service recalls it from the memo, or
/// plans it cold on a miss); `horizon` is the iteration count the recovery
/// is amortized over.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanRequest {
    /// The running workload, with the request's id and deadline.
    pub plan: PlanRequest,
    /// Perturbation profile of the observed scenario: `ideal`, `mild` or
    /// `harsh`.
    pub profile: String,
    /// Scenario seed (drawn via [`AppliedPerturbation::draw`]).
    pub seed: u64,
    /// Severity multiplier `λ ≥ 1` applied to the drawn scenario.
    pub lambda: f64,
    /// Iterations remaining in the job — the recovery deadline `H` in
    /// `migration + H × iteration_cost`.
    pub horizon: u64,
}

impl ReplanRequest {
    /// A replan of `plan` under the harsh profile, seed 42, `λ = 1`, and a
    /// 1000-iteration horizon.
    pub fn of(plan: PlanRequest) -> Self {
        ReplanRequest {
            plan,
            profile: "harsh".into(),
            seed: 42,
            lambda: 1.0,
            horizon: 1000,
        }
    }

    /// Replaces the observed scenario (profile and seed).
    #[must_use]
    pub fn with_scenario(mut self, profile: impl Into<String>, seed: u64) -> Self {
        self.profile = profile.into();
        self.seed = seed;
        self
    }

    /// Replaces the severity multiplier.
    #[must_use]
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Replaces the amortization horizon.
    #[must_use]
    pub fn with_horizon(mut self, iterations: u64) -> Self {
        self.horizon = iterations;
        self
    }

    /// Validates the request: the embedded plan, the profile name, `λ` and
    /// the horizon. Returns the resolved workload, the reproducibly drawn
    /// scenario, and the replan configuration (the workload's own planner
    /// options drive the `FullReplan` candidate).
    ///
    /// # Errors
    ///
    /// Propagates [`PlanRequest::resolve`] failures; [`Error::Config`] for
    /// an unknown profile, a non-finite or `< 1` `λ`, or a zero horizon.
    pub fn resolve(&self) -> Result<(ResolvedPlan, AppliedPerturbation, ReplanOptions), Error> {
        let resolved = self.plan.resolve()?;
        let model = perturbation_profile(&self.profile)?;
        if !self.lambda.is_finite() || self.lambda < 1.0 {
            return Err(Error::config(format!(
                "lambda must be a finite severity multiplier >= 1, got {}",
                self.lambda
            )));
        }
        if self.horizon == 0 {
            return Err(Error::config("horizon must be positive, got 0"));
        }
        let mut applied = AppliedPerturbation::draw(&model, self.seed, resolved.devices);
        if self.lambda != 1.0 {
            applied = applied.scaled(self.lambda);
        }
        let opts = ReplanOptions::new()
            .with_horizon(self.horizon)
            .with_planner(resolved.opts);
        Ok((resolved, applied, opts))
    }

    /// Executes this request against the process-wide warm cache.
    ///
    /// # Errors
    ///
    /// Propagates [`resolve`](ReplanRequest::resolve) failures.
    pub fn run(&self) -> Result<ReplanResponse, Error> {
        crate::WarmCache::global().execute_replan(self)
    }
}

/// The answer to a [`ReplanRequest`].
#[derive(Debug, Clone)]
pub struct ReplanResponse {
    /// Echo of the request id.
    pub id: String,
    /// Fingerprint of the running plan the decision was made for.
    pub fingerprint: String,
    /// The costed decision (`outcome.decision`, the argmin) with its full
    /// audit trail (every candidate priced, the adopted plan when the
    /// decision is `FullReplan`).
    pub outcome: ReplanOutcome,
    /// Cache accounting of the running-plan lookup.
    pub cache: CacheOutcome,
    /// Wall-clock service time of this request.
    pub elapsed: Duration,
}

/// Any one request the service answers: the single job type its worker
/// pool runs and its `plan` / `sim` / `replan` frames decode to.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Plan a workload.
    Plan(PlanRequest),
    /// Plan and simulate a workload.
    Sim(SimRequest),
    /// Decide the costed migration for a running workload.
    Replan(ReplanRequest),
}

impl Request {
    /// The frame type: `"plan"`, `"sim"` or `"replan"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Plan(_) => "plan",
            Request::Sim(_) => "sim",
            Request::Replan(_) => "replan",
        }
    }

    /// The workload the request plans, recalls or simulates, with its id
    /// and deadline.
    pub fn workload(&self) -> &PlanRequest {
        match self {
            Request::Plan(req) => req,
            Request::Sim(req) => &req.plan,
            Request::Replan(req) => &req.plan,
        }
    }

    /// The caller-chosen request id.
    pub fn id(&self) -> &str {
        &self.workload().id
    }

    /// The search strategy of the workload's plan.
    pub fn strategy(&self) -> SearchStrategy {
        self.workload().strategy
    }

    /// The relative pickup deadline.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.workload().deadline_ms
    }
}

/// The answer to a [`Request`], of the same kind. The payloads are boxed so
/// a verdict moves through the service's channels as one pointer.
#[derive(Debug, Clone)]
pub enum Response {
    /// The answer to [`Request::Plan`].
    Plan(Box<PlanResponse>),
    /// The answer to [`Request::Sim`].
    Sim(Box<SimResponse>),
    /// The answer to [`Request::Replan`].
    Replan(Box<ReplanResponse>),
}

impl Response {
    /// Fingerprint of the plan the request was answered from.
    pub fn fingerprint(&self) -> &str {
        match self {
            Response::Plan(resp) => &resp.fingerprint,
            Response::Sim(resp) => &resp.fingerprint,
            Response::Replan(resp) => &resp.fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_every_knob() {
        let req = PlanRequest::builder("opt-6.7b")
            .id("r1")
            .devices(16)
            .batch(4)
            .seq(1024)
            .layers(Some(2))
            .alpha(1e-12)
            .threads(3)
            .allow_temporal(false)
            .allow_batch_split(false)
            .max_temporal_k(1)
            .deadline_ms(Some(50))
            .build();
        assert_eq!(req.id, "r1");
        assert_eq!(req.devices, 16);
        assert_eq!(req.layers, Some(2));
        assert!(!req.allow_temporal && !req.allow_batch_split);
        assert_eq!(req.deadline_ms, Some(50));
        let resolved = req.resolve().expect("valid");
        assert_eq!(resolved.model.name, "OPT 6.7B");
        assert_eq!(resolved.layers, 2);
        assert_eq!(resolved.opts.threads, 3);
    }

    #[test]
    fn resolve_classifies_failures() {
        let unknown = PlanRequest::builder("gpt-j").build().resolve();
        assert!(matches!(unknown, Err(Error::Config(_))), "{unknown:?}");
        let lopsided = PlanRequest::builder("opt-6.7b")
            .devices(6)
            .build()
            .resolve();
        assert!(matches!(lopsided, Err(Error::Topology(_))), "{lopsided:?}");
        let empty = PlanRequest::builder("opt-6.7b").batch(0).build().resolve();
        assert!(matches!(empty, Err(Error::Config(_))), "{empty:?}");
        for alpha in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1e-12] {
            let bad = PlanRequest::builder("opt-6.7b")
                .alpha(alpha)
                .build()
                .resolve();
            assert!(
                matches!(bad, Err(Error::Config(_))),
                "alpha {alpha}: {bad:?}"
            );
        }
    }

    #[test]
    fn fingerprint_ignores_delivery_knobs_only() {
        let base = PlanRequest::builder("opt-6.7b").devices(16).build();
        let fp = base.fingerprint().expect("valid");
        // Delivery/bitwise-invariant knobs do not change the plan identity…
        for twin in [
            PlanRequest {
                id: "other".into(),
                ..base.clone()
            },
            PlanRequest {
                threads: 8,
                ..base.clone()
            },
            PlanRequest {
                deadline_ms: Some(1),
                ..base.clone()
            },
            PlanRequest {
                model: "OPT 6.7B".into(),
                ..base.clone()
            },
        ] {
            assert_eq!(twin.fingerprint().expect("valid"), fp);
        }
        // …while anything the optimizer sees does.
        for (label, other) in [
            (
                "devices",
                PlanRequest {
                    devices: 8,
                    ..base.clone()
                },
            ),
            (
                "batch",
                PlanRequest {
                    batch: 4,
                    ..base.clone()
                },
            ),
            (
                "alpha",
                PlanRequest {
                    alpha: 1e-9,
                    ..base.clone()
                },
            ),
            (
                "temporal",
                PlanRequest {
                    allow_temporal: false,
                    ..base.clone()
                },
            ),
            (
                "layers",
                PlanRequest {
                    layers: Some(1),
                    ..base.clone()
                },
            ),
            (
                "strategy",
                PlanRequest {
                    strategy: SearchStrategy::Beam { width: 8 },
                    ..base.clone()
                },
            ),
        ] {
            assert_ne!(other.fingerprint().expect("valid"), fp, "{label}");
        }
        // The exact default adds no suffix, so pre-strategy fingerprints
        // (and the caches persisted under them) keep their exact meaning.
        assert!(!fp.contains(":st:"));
        let beamed = PlanRequest {
            strategy: SearchStrategy::Beam { width: 8 },
            ..base
        };
        assert!(beamed.fingerprint().expect("valid").ends_with(":st:beam:8"));
    }

    #[test]
    fn sim_request_rejects_unknown_profile() {
        let sim = SimRequest::of(PlanRequest::builder("opt-6.7b").build()).with_sweep("wild", 4, 1);
        assert!(matches!(sim.resolve(), Err(Error::Config(_))));
    }

    #[test]
    fn replan_request_resolves_a_reproducible_scenario() {
        let base = ReplanRequest::of(PlanRequest::builder("opt-6.7b").devices(4).build())
            .with_scenario("mild", 7)
            .with_lambda(1.5)
            .with_horizon(250);
        let (resolved, applied, opts) = base.resolve().expect("valid");
        assert_eq!(resolved.devices, 4);
        assert_eq!(applied.num_devices(), 4);
        assert_eq!(opts.horizon_iterations, 250);
        // Same request, same scenario — bit-for-bit.
        let (_, again, _) = base.resolve().expect("valid");
        assert_eq!(applied, again);
    }

    #[test]
    fn replan_request_rejects_bad_scenarios() {
        let plan = PlanRequest::builder("opt-6.7b").build();
        for bad in [
            ReplanRequest::of(plan.clone()).with_scenario("wild", 1),
            ReplanRequest::of(plan.clone()).with_lambda(0.5),
            ReplanRequest::of(plan.clone()).with_lambda(f64::NAN),
            ReplanRequest::of(plan).with_horizon(0),
        ] {
            assert!(matches!(bad.resolve(), Err(Error::Config(_))), "{bad:?}");
        }
    }
}
