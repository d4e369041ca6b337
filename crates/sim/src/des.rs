//! Per-device discrete-event execution with heterogeneity injection.
//!
//! The SPMD walk in [`crate::simulate_layer`] exploits the paper's
//! observation that all devices execute symmetrically, so one timeline
//! suffices. This module drops that assumption: every device carries its own
//! clock, ring transfers synchronize a receiver with its *sender*, and
//! collectives barrier whole groups — so a slow device (a *straggler*)
//! propagates delay exactly the way the communication pattern dictates.
//!
//! Both simulators execute one [`PlanGeometry`] priced by
//! [`CostCtx::price_phase`], the step the planner's Eq. 7 prices too. Each
//! priced collective barriers the groups of its own indicator, so a norm's
//! statistics all-reduce waits for its hidden-split peers only.
//!
//! With homogeneous devices the result provably coincides with the SPMD walk
//! (unit-tested). A straggler is a cluster scenario like any other — an
//! [`AppliedPerturbation`](primepar_topology::AppliedPerturbation) with one
//! raised `compute_factors` entry, applied by
//! [`Cluster::with_perturbation`] — and the DES quantifies how tightly each
//! strategy couples devices to it: the temporal primitive's per-step ring
//! handoffs versus the conventional strategies' per-phase collectives.

use primepar_cost::{CostCtx, PlanGeometry};
use primepar_graph::Graph;
use primepar_partition::{ring_transfers, PartitionSeq, Phase};
use primepar_topology::{Cluster, DeviceId, DeviceSpace};

/// Result of a per-device simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DesReport {
    /// Iteration completion time: the slowest device's final clock.
    pub iteration_time: f64,
    /// Final clock per device.
    pub device_clocks: Vec<f64>,
    /// Seconds each device spent working (kernels, ring shifts, collectives,
    /// redistribution) as opposed to waiting at a barrier or for a ring
    /// sender. `busy + idle = iteration_time` per device.
    pub device_busy: Vec<f64>,
}

impl DesReport {
    /// Index of the device finishing last.
    pub fn critical_device(&self) -> usize {
        self.device_clocks
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite clocks"))
            .map(|(i, _)| i)
            .expect("at least one device")
    }

    /// Seconds device `d` spent waiting: barrier arrivals before the group's
    /// latest, ring-sender stalls, and time after its last kernel until the
    /// slowest device finishes.
    pub fn idle_seconds(&self, d: usize) -> f64 {
        self.iteration_time - self.device_busy[d]
    }
}

/// Runs one training iteration of the layer plan with per-device clocks.
///
/// # Panics
///
/// Panics if `seqs.len() != graph.ops.len()`.
pub fn simulate_layer_des(cluster: &Cluster, graph: &Graph, seqs: &[PartitionSeq]) -> DesReport {
    let geometry = PlanGeometry::new(graph, seqs);
    simulate_layer_des_geometry(cluster, graph, seqs, &geometry)
}

/// [`simulate_layer_des`] over the plan's precomputed geometry
/// ([`PlanGeometry::new`]`(graph, seqs)`).
pub(crate) fn simulate_layer_des_geometry(
    cluster: &Cluster,
    graph: &Graph,
    seqs: &[PartitionSeq],
    geometry: &PlanGeometry,
) -> DesReport {
    let n = cluster.num_devices();
    let ctx = CostCtx::new(cluster, 0.0);
    let space = cluster.space();
    let mut clocks = vec![0.0f64; n];
    let mut busy = vec![0.0f64; n];
    // Kernel times from the cost context are paced by the cluster's slowest
    // device (bulk-synchronous bottleneck); rescaling by each device's
    // relative pace recovers genuine per-device heterogeneity under an
    // applied perturbation. On an ideal cluster the pace is exactly 1.
    let slow =
        |device: usize, t: f64| -> f64 { t * cluster.relative_compute_pace(DeviceId(device)) };

    let run_op_phase =
        |clocks: &mut Vec<f64>, busy: &mut Vec<f64>, op_index: usize, phase: Phase| {
            let seq = &seqs[op_index];
            let op = &geometry.ops[op_index];
            let ev = ctx.price_phase(op, phase);
            for (t, &ring) in ev.ring_steps.iter().enumerate() {
                if ring > 0.0 {
                    // Ring handoff: each receiver waits for its sender of this
                    // step before the overlapped (compute ‖ shift) completes.
                    let mut next = clocks.clone();
                    for d in 0..n {
                        let mut ready = clocks[d];
                        for tr in ring_transfers(seq, phase, t) {
                            let sender =
                                ring_peer(seq, space, op.ring_indicator.positions(), d, tr.delta);
                            ready = ready.max(clocks[sender]);
                        }
                        let step = slow(d, ev.compute_step).max(ring);
                        next[d] = ready + step;
                        busy[d] += step;
                    }
                    *clocks = next;
                } else {
                    for (d, c) in clocks.iter_mut().enumerate() {
                        let step = slow(d, ev.compute_step).max(ring);
                        *c += step;
                        busy[d] += step;
                    }
                }
            }
            // Each collective barriers its own groups: everyone leaves at the
            // group's latest arrival plus the collective time. The collective
            // itself is work; the wait to the group's latest arrival was idle.
            for c in &ev.collectives {
                for group in space.groups(&c.indicator) {
                    let latest = group.iter().map(|d| clocks[d.index()]).fold(0.0, f64::max);
                    for d in &group {
                        clocks[d.index()] = latest + c.seconds;
                    }
                }
                for b in busy.iter_mut() {
                    *b += c.seconds;
                }
            }
        };

    let redistribute = |clocks: &mut Vec<f64>, busy: &mut Vec<f64>, e: usize| {
        let t = ctx.redistribution_time(geometry.edge_bytes[e] / 2.0);
        if t > 0.0 {
            // All-to-all-ish: a global synchronization point.
            let latest = clocks.iter().cloned().fold(0.0, f64::max);
            for c in clocks.iter_mut() {
                *c = latest + t;
            }
            for b in busy.iter_mut() {
                *b += t;
            }
        }
    };

    for i in 0..graph.ops.len() {
        for e in graph.in_edge_ids(i) {
            redistribute(&mut clocks, &mut busy, e);
        }
        run_op_phase(&mut clocks, &mut busy, i, Phase::Forward);
    }
    for i in (0..graph.ops.len()).rev() {
        for e in graph.out_edge_ids(i) {
            redistribute(&mut clocks, &mut busy, e);
        }
        run_op_phase(&mut clocks, &mut busy, i, Phase::Backward);
        run_op_phase(&mut clocks, &mut busy, i, Phase::Gradient);
    }

    let iteration_time = clocks.iter().cloned().fold(0.0, f64::max);
    DesReport {
        iteration_time,
        device_clocks: clocks,
        device_busy: busy,
    }
}

/// The device whose block `device` receives under a ring transfer with
/// `delta`, within the same temporal square group; `positions` are the
/// sequence's ring-indicator bits.
fn ring_peer(
    seq: &PartitionSeq,
    space: DeviceSpace,
    positions: &[usize],
    device: usize,
    delta: (i64, i64),
) -> usize {
    let k = seq.temporal_k().expect("temporal primitive present") as usize;
    let side = 1i64 << k;
    let (r, c) = seq
        .square_coords(space, DeviceId(device))
        .expect("temporal primitive present");
    let sr = (r as i64 + delta.0).rem_euclid(side) as usize;
    let sc = (c as i64 + delta.1).rem_euclid(side) as usize;
    let nb = space.n_bits();
    let mut idx = device;
    for j in 0..k {
        let rp = positions[2 * j];
        let cp = positions[2 * j + 1];
        let rb = (sr >> (k - 1 - j)) & 1;
        let cb = (sc >> (k - 1 - j)) & 1;
        idx = (idx & !(1 << (nb - rp))) | (rb << (nb - rp));
        idx = (idx & !(1 << (nb - cp))) | (cb << (nb - cp));
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;
    use primepar_search::{megatron_layer_plan, Planner, PlannerOptions};
    use primepar_topology::AppliedPerturbation;

    /// `cluster` with `device`'s kernels `factor ×` slower, nothing else
    /// perturbed.
    fn with_straggler(cluster: &Cluster, device: usize, factor: f64) -> Cluster {
        let mut scenario = AppliedPerturbation::ideal(cluster.num_devices());
        scenario.compute_factors[device] = factor;
        cluster.with_perturbation(scenario)
    }

    #[test]
    fn homogeneous_des_matches_spmd_walk() {
        // Without a straggler every device's clock is identical and equals
        // the SPMD simulator's critical path.
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        for plan in [
            megatron_layer_plan(&graph, 2, 2),
            Planner::new(&cluster, &graph, PlannerOptions::default())
                .optimize(1)
                .seqs,
        ] {
            let spmd = crate::simulate_layer(&cluster, &graph, &plan);
            let des = simulate_layer_des(&cluster, &graph, &plan);
            assert!(
                (des.iteration_time - spmd.layer_time).abs() < 1e-9 * (1.0 + spmd.layer_time),
                "DES {} vs SPMD {}",
                des.iteration_time,
                spmd.layer_time
            );
            let first = des.device_clocks[0];
            assert!(des.device_clocks.iter().all(|&c| (c - first).abs() < 1e-12));
        }
    }

    #[test]
    fn busy_plus_idle_covers_the_iteration() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 2, 2);
        for c in [cluster.clone(), with_straggler(&cluster, 1, 1.5)] {
            let des = simulate_layer_des(&c, &graph, &plan);
            let tol = 1e-9 * (1.0 + des.iteration_time);
            for d in 0..4 {
                let accounted = des.device_busy[d] + des.idle_seconds(d);
                assert!(
                    (accounted - des.iteration_time).abs() <= tol,
                    "device {d}: busy+idle {accounted} != {}",
                    des.iteration_time
                );
                assert!(des.idle_seconds(d) >= -tol, "negative idle on {d}");
            }
        }
        // Homogeneous: no barrier drags anyone, so busy == makespan and the
        // per-device busy matches the SPMD walk's device accounts.
        let des = simulate_layer_des(&cluster, &graph, &plan);
        let spmd = crate::simulate_layer(&cluster, &graph, &plan);
        for d in 0..4 {
            assert!(
                (des.device_busy[d] - spmd.accounting.devices[d].busy_seconds()).abs()
                    <= 1e-9 * (1.0 + des.iteration_time),
                "device {d}: DES busy {} vs SPMD busy {}",
                des.device_busy[d],
                spmd.accounting.devices[d].busy_seconds()
            );
        }
    }

    #[test]
    fn straggler_slows_the_iteration() {
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 1, 4);
        let base = simulate_layer_des(&cluster, &graph, &plan);
        let slow = simulate_layer_des(&with_straggler(&cluster, 2, 1.5), &graph, &plan);
        assert!(slow.iteration_time > base.iteration_time);
        // The collective barriers drag everyone to the straggler's pace.
        assert!(
            slow.iteration_time > 1.2 * base.iteration_time,
            "{} vs {}",
            slow.iteration_time,
            base.iteration_time
        );
    }

    #[test]
    fn straggler_sensitivity_is_bounded_by_slowdown() {
        // The whole iteration can never be slower than scaling every kernel.
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::llama2_7b().layer_graph(8, 512);
        let plan = Planner::new(&cluster, &graph, PlannerOptions::default())
            .optimize(1)
            .seqs;
        let base = simulate_layer_des(&cluster, &graph, &plan);
        let slow = simulate_layer_des(&with_straggler(&cluster, 0, 2.0), &graph, &plan);
        assert!(slow.iteration_time <= 2.0 * base.iteration_time * 1.0001);
        assert_ne!(slow.device_clocks[0], 0.0);
    }

    #[test]
    fn ring_coupling_propagates_to_square_partners() {
        // Under a pure temporal plan, the straggler's square partners finish
        // later than under no straggler (the ring handoffs couple them).
        let cluster = Cluster::v100_like(4);
        let graph = ModelConfig::opt_175b().layer_graph(8, 2048);
        let plan = Planner::new(&cluster, &graph, PlannerOptions::default())
            .optimize(1)
            .seqs;
        assert!(
            plan.iter().any(|s| s.temporal_k().is_some()),
            "want a temporal plan"
        );
        let base = simulate_layer_des(&cluster, &graph, &plan);
        let slow = simulate_layer_des(&with_straggler(&cluster, 1, 1.3), &graph, &plan);
        for d in 0..4 {
            assert!(
                slow.device_clocks[d] > base.device_clocks[d],
                "device {d} unaffected by ring-coupled straggler"
            );
        }
        assert_eq!(slow.critical_device(), 1);
    }
}
