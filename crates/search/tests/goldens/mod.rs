//! The planner's golden table: plan and cost bits on a fixed set of points,
//! shared by `memo_equivalence.rs`, `prune_equivalence.rs` and
//! `plan_goldens.rs`.
//!
//! Every value below was recorded from the retired seed planner — per-node
//! spaces, per-edge cost matrices, scalar min-plus rows, no dominance
//! pruning — so the one remaining pipeline (structural memoization,
//! dominance pruning and lane-tiled min-plus kernels) is pinned to that
//! reference to the last bit. Each point is checked for threads {1, 4}.
//!
//! A golden row is `(render_plan digest, layer_cost bits, total_cost bits)`;
//! the digest is FNV-1a (64-bit) over the rendered plan text.

// Each test crate that includes this module uses a different subset of it.
#![allow(dead_code)]

use primepar_graph::{Graph, ModelConfig};
use primepar_search::{render_plan, Planner, PlannerMetrics, PlannerOptions, SpaceOptions};
use primepar_topology::Cluster;

/// `(plan digest, layer_cost bits, total_cost bits)`.
pub type Golden = (u64, u64, u64);

/// The thread counts every golden is checked at.
pub const THREADS: [usize; 2] = [1, 4];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn space(allow_temporal: bool, allow_batch_split: bool, max_temporal_k: u32) -> SpaceOptions {
    SpaceOptions {
        allow_temporal,
        allow_batch_split,
        max_temporal_k,
    }
}

/// The graph of the grid and eight-device points: one OPT-6.7B layer.
pub fn opt_layer() -> Graph {
    ModelConfig::opt_6_7b().layer_graph(8, 512)
}

/// OPT-6.7B on 4 devices, 4 layers: temporal on/off × batch splits on/off ×
/// temporal depth.
pub fn option_grid() -> Vec<(SpaceOptions, Golden)> {
    let temporal = (
        0x0dae_84b1_6997_e0c3,
        0x3f92_2fc6_821e_174e,
        0x3fb2_35b7_3340_e354,
    );
    let spatial = (0x3f93_93d4_cd2f_e7dc, 0x3fb3_99c5_7e52_b3e2);
    vec![
        (space(true, true, 1), temporal),
        (space(true, true, 2), temporal),
        (space(true, false, 1), temporal),
        (space(true, false, 2), temporal),
        (
            space(false, true, 1),
            (0x5031_6b68_533c_6d59, spatial.0, spatial.1),
        ),
        (
            space(false, true, 2),
            (0x5031_6b68_533c_6d59, spatial.0, spatial.1),
        ),
        (
            space(false, false, 1),
            (0x5f44_3998_aa32_1b7d, spatial.0, spatial.1),
        ),
        (
            space(false, false, 2),
            (0x5f44_3998_aa32_1b7d, spatial.0, spatial.1),
        ),
    ]
}

/// OPT-6.7B on 8 devices, 4 layers: the default space and no temporal splits.
pub fn eight_devices() -> Vec<(SpaceOptions, Golden)> {
    vec![
        (
            SpaceOptions::default(),
            (
                0xbe79_e0f7_dc7e_edc2,
                0x3f8a_5bd1_2db9_fae3,
                0x3faa_62ce_4e56_d24a,
            ),
        ),
        (
            space(false, true, 2),
            (
                0x8735_cfcb_4b24_6ce2,
                0x3f8e_225a_f9ba_a3f1,
                0x3fae_2958_1a57_7b58,
            ),
        ),
    ]
}

/// LLaMA-2 7B on 8 devices, 2 layers, default space.
pub const SECOND_MODEL: Golden = (
    0xbe79_e0f7_dc7e_edc2,
    0x3f86_de60_ed48_26fb,
    0x3f96_ec5b_2e81_d5ca,
);

/// The 9-node alternating chain on 64 devices, 2 layers, default space.
pub const ALTERNATING_CHAIN: Golden = (
    0xb0af_670d_5a4a_2e8a,
    0x3f5d_1917_480d_d977,
    0x3f70_342b_9c33_29cb,
);

/// Plans one point and returns its golden row with the run's telemetry.
pub fn plan_point(
    devices: usize,
    graph: &Graph,
    layers: u64,
    space: SpaceOptions,
    threads: usize,
) -> (Golden, PlannerMetrics) {
    let cluster = Cluster::v100_like(devices);
    let opts = PlannerOptions::default()
        .with_space(space)
        .with_threads(threads);
    let (plan, tm) = Planner::new(&cluster, graph, opts).optimize_instrumented(layers);
    let row = (
        fnv1a(render_plan(graph, &plan.seqs).as_bytes()),
        plan.layer_cost.to_bits(),
        plan.total_cost.to_bits(),
    );
    (row, tm)
}

/// Asserts one point's golden row for every thread count in [`THREADS`] and
/// returns each run's telemetry for further checks.
pub fn assert_golden(
    devices: usize,
    graph: &Graph,
    layers: u64,
    space: SpaceOptions,
    golden: Golden,
) -> Vec<PlannerMetrics> {
    THREADS
        .iter()
        .map(|&threads| {
            let (got, tm) = plan_point(devices, graph, layers, space, threads);
            assert_eq!(
                got, golden,
                "{devices} devices, {space:?}, threads {threads}"
            );
            tm
        })
        .collect()
}
