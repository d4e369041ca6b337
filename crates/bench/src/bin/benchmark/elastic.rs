//! `replan-harsh`: the elastic re-planning loop end to end, closed loop, one
//! caller. The running plan is OPT-6.7B (batch 8, sequence 1024, 32 layers)
//! on 8 V100-like devices, planned once in set-up. Op `i` draws a harsh
//! degradation scenario with seed `--seed + i`, decides stay / patch / full
//! replan with `search::replan`, then sweeps the adopted plan over 16 harsh
//! scenarios with `sim::robustness_sweep` — the only workload where `sim`
//! does a large share of the work.
//!
//! The scenario seeds cycle through a fixed pool of [`SCENARIOS`], starting
//! at `--seed`, so that every op's output can be checked against a pinned
//! reference: each op must be self-consistent (the decision is the argmin
//! of its priced candidates; the sweep's median is its outcomes' median),
//! must repeat exactly what every other op of its scenario returned, and
//! the pool's decisions and sweep medians must reproduce the pinned digest.

use std::time::Instant;

use primepar::graph::{Graph, ModelConfig};
use primepar::partition::PartitionSeq;
use primepar::search::{replan, MigrationDecision, Planner, ReplanOptions, ReplanOutcome};
use primepar::sim::{robustness_sweep, RobustnessOptions, RobustnessReport};
use primepar::topology::{AppliedPerturbation, Cluster, PerturbationModel};

use crate::host::HostRef;
use crate::report::Outcome;
use crate::stats::{nearest_rank, Digest};
use crate::{closed_loop, timed_setup, Args, OpResult, Traced};

const DEVICES: usize = 8;
const LAYERS: u64 = 32;
const SWEEP_SCENARIOS: usize = 16;

/// Size of the scenario pool. A 20 s run makes several hundred ops, so it
/// covers the pool several times over.
const SCENARIOS: u64 = 128;
/// Digest of the decisions and sweep medians of scenarios `0..SCENARIOS`,
/// in order, as the planner and simulator return them today.
const PIN_SCENARIOS: &str = "68e88288cbdd9de9";

struct Elastic {
    cluster: Cluster,
    graph: Graph,
    running: Vec<PartitionSeq>,
}

struct Decided {
    outcome: ReplanOutcome,
    sweep: RobustnessReport,
}

impl Decided {
    fn digest(&self, d: Digest) -> Digest {
        d.bytes(self.outcome.decision.tag().as_bytes())
            .u64(self.sweep.median_makespan.to_bits())
    }

    /// The decision is the cheapest feasible candidate (ties toward the
    /// less disruptive action), only a full replan carries a new plan, and
    /// the sweep's median is the nearest-rank median of its outcomes.
    fn consistent(&self) -> bool {
        let o = &self.outcome;
        let cheapest = o
            .candidates
            .iter()
            .filter(|c| c.feasible)
            .min_by(|a, b| {
                a.total_seconds
                    .total_cmp(&b.total_seconds)
                    .then(a.decision.cmp(&b.decision))
            })
            .map(|c| c.decision);
        let makespans: Vec<f64> = self.sweep.outcomes.iter().map(|s| s.makespan).collect();
        cheapest == Some(o.decision)
            && o.new_seqs.is_some() == (o.decision == MigrationDecision::FullReplan)
            && makespans.len() == SWEEP_SCENARIOS
            && makespans.iter().all(|m| m.is_finite() && *m > 0.0)
            && nearest_rank(&makespans, 50.0).map(f64::to_bits)
                == Some(self.sweep.median_makespan.to_bits())
    }
}

impl Elastic {
    fn new() -> Elastic {
        let cluster = Cluster::v100_like(DEVICES);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 1024);
        let running = Planner::new(&cluster, &graph, ReplanOptions::default().planner)
            .optimize(LAYERS)
            .seqs;
        Elastic {
            cluster,
            graph,
            running,
        }
    }

    fn op(&self, scenario_seed: u64, traced: Option<&mut Traced>) -> (OpResult, Decided) {
        let applied =
            AppliedPerturbation::draw(&PerturbationModel::harsh(), scenario_seed, DEVICES);
        let opts = ReplanOptions::default();
        let start = Instant::now();
        let outcome = replan(
            &self.cluster,
            &self.graph,
            &self.running,
            &applied,
            LAYERS,
            &opts,
            None,
        );
        let replan_time = start.elapsed();
        let sweep_start = Instant::now();
        let adopted = outcome.new_seqs.as_deref().unwrap_or(&self.running);
        let sweep = robustness_sweep(
            &self.cluster,
            &self.graph,
            adopted,
            &RobustnessOptions {
                model: PerturbationModel::harsh(),
                scenarios: SWEEP_SCENARIOS,
                base_seed: scenario_seed,
                ..RobustnessOptions::default()
            },
        );
        let sweep_time = sweep_start.elapsed();
        let elapsed = start.elapsed();
        if let Some(t) = traced {
            let root = t.tracer.span("replan.op", "bench", start, elapsed, None);
            t.tracer
                .span("replan", "search", start, replan_time, Some(root));
            t.tracer.span(
                "robustness_sweep",
                "sim",
                sweep_start,
                sweep_time,
                Some(root),
            );
            t.samples
                .push("search.replan_ms", replan_time.as_secs_f64() * 1e3);
            t.samples
                .push("sim.sweep_ms", sweep_time.as_secs_f64() * 1e3);
            t.samples.ratio(
                "sim.scenarios_per_s",
                SWEEP_SCENARIOS as f64,
                sweep_time.as_secs_f64(),
            );
            // `replan` returns no planner breakdown, so the cost and search
            // layers are read from an instrumented run of the same planner
            // call on the same degraded cluster, outside the timed op.
            if !applied.is_noop() {
                let degraded = self.cluster.with_perturbation(applied);
                let shadow_start = Instant::now();
                let (_, metrics) = Planner::new(&degraded, &self.graph, opts.planner)
                    .optimize_instrumented(LAYERS);
                let shadow = t.tracer.span(
                    "shadow.optimize_instrumented",
                    "search",
                    shadow_start,
                    shadow_start.elapsed(),
                    None,
                );
                t.tracer.planner_stages(shadow, &metrics);
                t.samples.planner(&metrics);
            }
        }
        let decided = Decided { outcome, sweep };
        let ok = decided.consistent();
        (OpResult { elapsed, ok }, decided)
    }
}

pub fn run(args: &Args, host: &mut HostRef, traced: Option<&mut Traced>) -> Outcome {
    let mut outcome = Outcome::default();
    let scenario = |i: u64| args.seed.wrapping_add(i) % SCENARIOS;
    let elastic = timed_setup(&mut outcome, host, || {
        let e = Elastic::new();
        e.op(scenario(0), None);
        e
    });
    // Each scenario's output as its first op returned it.
    let mut seen: Vec<Option<String>> = vec![None; SCENARIOS as usize];
    let mut decisions = [0u64; 3];
    closed_loop(args, &mut outcome, host, traced, |i, traced| {
        let k = scenario(i);
        let (mut result, decided) = elastic.op(k, traced);
        let digest = decided.digest(Digest::default()).hex();
        let first = seen[k as usize].get_or_insert_with(|| digest.clone());
        result.ok &= *first == digest;
        decisions[decided.outcome.decision as usize] += 1;
        result
    });
    eprintln!(
        "replan-harsh decisions: stay {} patch {} replan {}",
        decisions[0], decisions[1], decisions[2]
    );
    // Scenarios the timed phase did not reach are run now, untimed.
    let pool = (0..SCENARIOS)
        .zip(seen)
        .fold(Digest::default(), |d, (k, first)| {
            let digest =
                first.unwrap_or_else(|| elastic.op(k, None).1.digest(Digest::default()).hex());
            d.bytes(digest.as_bytes())
        })
        .hex();
    if pool != PIN_SCENARIOS {
        outcome.mismatch = Some(format!(
            "scenario digest {pool} differs from the pinned {PIN_SCENARIOS}"
        ));
    }
    outcome.digest = pool;
    outcome
}
