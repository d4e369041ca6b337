//! The two planner workloads: one cold `optimize_instrumented` per op on a
//! fixed input, closed loop, one caller.
//!
//! * `plan-t2` — the Table-2 point behind `primepar plan --devices 16`:
//!   OPT-6.7B, batch 8, sequence 2048, 32 layers, on 16 V100-like devices.
//!   Eqs. 8–9 edge-matrix construction (`cost`) is most of each op.
//! * `plan-chain512` — the planner-scaling chain
//!   (`primepar_bench::planner_scale_graph(512, 97)`) on 512 devices. The
//!   segment DP (`search`) is most of each op and edge matrices are a
//!   minority, so a `cost` change should barely move it while a DP,
//!   min-plus or prune change moves it most.
//!
//! Neither input is random, so `--seed` changes nothing here. Every op's
//! plan text and total-cost bits must hash to the pinned digest below.

use std::time::Instant;

use primepar::graph::{Graph, ModelConfig};
use primepar::search::{render_plan, ModelPlan, Planner, PlannerOptions};
use primepar::topology::Cluster;

use crate::host::HostRef;
use crate::report::Outcome;
use crate::stats::Digest;
use crate::{closed_loop, timed_setup, Args, OpResult, Traced};

/// Digests of the plans the planner returns today (plan text, then
/// `total_cost` bits). A change that alters either plan fails the run.
const PIN_T2: &str = "40c4e1ed95bc75a3";
const PIN_CHAIN512: &str = "d666d0256cea7fcb";

struct PlanPoint {
    cluster: Cluster,
    graph: Graph,
    layers: u64,
    pin: &'static str,
}

fn point(workload: &str) -> PlanPoint {
    match workload {
        "plan-t2" => PlanPoint {
            cluster: Cluster::v100_like(16),
            graph: ModelConfig::opt_6_7b().layer_graph(8, 2048),
            layers: 32,
            pin: PIN_T2,
        },
        _ => PlanPoint {
            cluster: Cluster::v100_like(512),
            graph: primepar_bench::planner_scale_graph(512, 97),
            layers: 1,
            pin: PIN_CHAIN512,
        },
    }
}

pub fn plan_digest(graph: &Graph, plan: &ModelPlan) -> String {
    Digest::default()
        .bytes(render_plan(graph, &plan.seqs).as_bytes())
        .u64(plan.total_cost.to_bits())
        .hex()
}

impl PlanPoint {
    fn op(&self, traced: Option<&mut Traced>) -> (OpResult, String) {
        let start = Instant::now();
        let (plan, metrics) = Planner::new(&self.cluster, &self.graph, PlannerOptions::default())
            .optimize_instrumented(self.layers);
        let elapsed = start.elapsed();
        if let Some(t) = traced {
            let root = t
                .tracer
                .span("optimize_instrumented", "search", start, elapsed, None);
            t.tracer.planner_stages(root, &metrics);
            t.samples.planner(&metrics);
        }
        let digest = plan_digest(&self.graph, &plan);
        let ok = digest == self.pin;
        (OpResult { elapsed, ok }, digest)
    }
}

pub fn run(args: &Args, host: &mut HostRef, traced: Option<&mut Traced>) -> Outcome {
    let mut outcome = Outcome::default();
    let mut warm_digest = String::new();
    let point = timed_setup(&mut outcome, host, || {
        let p = point(&args.workload);
        warm_digest = p.op(None).1;
        p
    });
    let mut digest = warm_digest;
    closed_loop(args, &mut outcome, host, traced, |_, traced| {
        let (result, d) = point.op(traced);
        digest = d;
        result
    });
    if digest != point.pin {
        outcome.mismatch = Some(format!(
            "plan digest {digest} differs from the pinned {}",
            point.pin
        ));
    }
    outcome.digest = digest;
    outcome
}
