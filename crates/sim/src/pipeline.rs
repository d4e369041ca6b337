//! 3D parallelism composition (paper §6.4): pipeline × data × model.
//!
//! Devices split into `p` pipeline groups of `d·m` devices; each group runs
//! `layers/p` stages under a model-parallel plan of size `m`, replicated
//! `d`-ways over the batch with a gradient all-reduce. Pipeline execution is
//! 1F1B (PipeDream-flush): `micro + p − 1` stage slots per iteration — the
//! GPipe bubble for uniform stages — plus inter-stage activation
//! point-to-point transfers, with at most `p` micro-batch stashes live per
//! device.

use primepar_cost::memory_bytes;
use primepar_graph::{Graph, ModelConfig};
use primepar_partition::{Dim, PartitionSeq, Primitive};
use primepar_topology::{Cluster, DeviceId};

use crate::{simulate_layer, LayerReport};

/// One (p, d, m) configuration of §6.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreeDConfig {
    /// Pipeline stages.
    pub p: usize,
    /// Data-parallel degree.
    pub d: usize,
    /// Model (tensor) parallel degree.
    pub m: usize,
    /// Micro-batches per iteration.
    pub micro_batches: usize,
}

impl ThreeDConfig {
    /// Total devices `p·d·m`.
    pub fn devices(&self) -> usize {
        self.p * self.d * self.m
    }
}

/// Result of a 3D-parallel simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreeDReport {
    /// Configuration simulated.
    pub config: ThreeDConfig,
    /// End-to-end iteration latency (s).
    pub iteration_time: f64,
    /// Training throughput in tokens per second.
    pub tokens_per_second: f64,
    /// Per-device peak memory (bytes).
    pub peak_memory_bytes: f64,
    /// Pipeline fill/drain bubble: `(p − 1) · stage_time` seconds of the
    /// iteration no stage overlaps with useful work.
    pub bubble_seconds: f64,
    /// `bubble_seconds / iteration_time` — the pipeline bubble fraction.
    pub bubble_fraction: f64,
    /// Full (pre-overlap) data-parallel gradient all-reduce seconds.
    pub dp_allreduce_seconds: f64,
    /// The part of the gradient all-reduce not hidden behind the backward
    /// half of the pipeline.
    pub exposed_dp_allreduce_seconds: f64,
    /// Serialized inter-stage activation point-to-point seconds.
    pub p2p_seconds: f64,
    /// Inter-stage activation bytes sent per device over the iteration.
    pub p2p_bytes: f64,
    /// The per-micro-batch stage report underlying the pipeline math.
    pub stage: LayerReport,
}

/// Wraps a model-parallel layer plan of size `m` with `log2(d)` outer batch
/// splits (data parallelism), mirroring §6.4's controlled-`d` composition.
/// Attention operators carry the sample batch in `M`.
fn widen_with_data_parallel(graph: &Graph, plan: &[PartitionSeq], d: usize) -> Vec<PartitionSeq> {
    let dp = d.trailing_zeros() as usize;
    graph
        .ops
        .iter()
        .zip(plan)
        .map(|(op, seq)| {
            let dim = if op.weight_has_batch() || op.extent(Dim::B) == 1 || op.name == "softmax" {
                Dim::M
            } else {
                Dim::B
            };
            let mut prims: Vec<Primitive> =
                std::iter::repeat_n(Primitive::Split(dim), dp).collect();
            prims.extend_from_slice(seq.primitives());
            PartitionSeq::new(prims).expect("adding splits keeps at most one temporal")
        })
        .collect()
}

/// Simulates one (p, d, m) 3D-parallel iteration of `cfg` with the given
/// per-layer model-parallel plan (sized for `m` devices).
///
/// # Example
///
/// ```
/// use primepar_graph::ModelConfig;
/// use primepar_search::megatron_layer_plan;
/// use primepar_sim::{simulate_3d, ThreeDConfig};
///
/// let model = ModelConfig { layers: 8, ..ModelConfig::opt_6_7b() };
/// let graph = model.layer_graph(8, 512);
/// let plan = megatron_layer_plan(&graph, 1, 2);
/// let cfg = ThreeDConfig { p: 2, d: 1, m: 2, micro_batches: 4 };
/// let report = simulate_3d(&model, &plan, cfg, 8, 512);
/// assert_eq!(report.config.devices(), 4);
/// assert!(report.tokens_per_second > 0.0);
/// ```
///
/// The stage plan is widened with the `d` batch splits, simulated on a
/// `d·m`-device cluster, composed 1F1B over `p` stages, and charged the
/// data-parallel gradient all-reduce and inter-stage activation traffic.
///
/// # Panics
///
/// Panics if the configuration does not match the model-parallel plan size
/// or the layer count is not divisible by `p`.
pub fn simulate_3d(
    model: &ModelConfig,
    stage_plan_m: &[PartitionSeq],
    config: ThreeDConfig,
    batch: u64,
    seq_len: u64,
) -> ThreeDReport {
    let ThreeDConfig {
        p,
        d,
        m,
        micro_batches,
    } = config;
    assert_eq!(model.layers % p as u64, 0, "layers must divide into stages");
    assert!(
        stage_plan_m.iter().all(|s| s.num_devices() == m),
        "plan must be m-wide"
    );
    let layers_per_stage = model.layers / p as u64;

    // Per-micro-batch stage graph: each of the `d` replicas processes
    // batch/d samples, cut into `micro_batches` micro-batches; the simulated
    // stage executes all `d` replicas' concurrent micro-batches, which the
    // widened plan then splits `d` ways.
    let replica_micro = (batch as usize / (d * micro_batches)).max(1) as u64;
    let micro_batch = d as u64 * replica_micro;
    let stage_graph = model.layer_graph(micro_batch, seq_len);
    let stage_cluster = Cluster::v100_like(d * m);
    let plan = widen_with_data_parallel(&stage_graph, stage_plan_m, d);
    let stage = simulate_layer(&stage_cluster, &stage_graph, &plan);
    let stage_time = stage.layer_time * layers_per_stage as f64;

    // Pipeline slots: (micro + p - 1) of stage_time, plus per-boundary
    // activation sends (micro crossings per boundary, overlappable but we
    // charge them serialized — conservative for every system equally).
    let slots = (micro_batches + p - 1) as f64;
    let activation_bytes = 4.0 * (micro_batch * seq_len * model.hidden) as f64 / (d * m) as f64;
    let full_cluster = Cluster::v100_like(config.devices());
    let p2p = if p > 1 {
        full_cluster.p2p_time(
            activation_bytes,
            DeviceId(0),
            DeviceId(full_cluster.num_devices() - 1),
        )
    } else {
        0.0
    };
    let pipeline_time = slots * stage_time + (p - 1) as f64 * micro_batches as f64 * p2p;

    // Data-parallel gradient all-reduce over the d replicas: each device
    // holds params/m-ish; groups of d devices spanning nodes.
    let params_per_device: f64 = stage_graph
        .ops
        .iter()
        .zip(&plan)
        .map(|(op, s)| memory_bytes(op, s).params)
        .sum::<f64>()
        * layers_per_stage as f64;
    let dp_group: Vec<DeviceId> = (0..d).map(|i| DeviceId(i * m)).collect();
    let dp_allreduce = if d > 1 {
        stage_cluster.allreduce_time(params_per_device, &dp_group, m.min(4))
    } else {
        0.0
    };
    // Gradient all-reduce overlaps with the backward half of the pipeline
    // (bucketed DDP-style); only the excess beyond that window is exposed.
    let exposed_allreduce = (dp_allreduce - 0.5 * pipeline_time).max(0.0);

    let iteration_time = pipeline_time + exposed_allreduce;
    let tokens = (batch * seq_len) as f64;
    // Memory: stage layers' persistent + stash, with at most `p` micro-batch
    // stashes simultaneously live on the first stage under 1F1B.
    let in_flight = p.min(micro_batches) as f64;
    let peak_memory_bytes =
        layers_per_stage as f64 * (stage.persistent_bytes + in_flight * stage.stash_bytes);

    let bubble_seconds = (p - 1) as f64 * stage_time;
    let p2p_seconds = (p - 1) as f64 * micro_batches as f64 * p2p;
    ThreeDReport {
        config,
        iteration_time,
        tokens_per_second: tokens / iteration_time,
        peak_memory_bytes,
        bubble_seconds,
        bubble_fraction: bubble_seconds / iteration_time,
        dp_allreduce_seconds: dp_allreduce,
        exposed_dp_allreduce_seconds: exposed_allreduce,
        p2p_seconds,
        p2p_bytes: (p - 1) as f64 * micro_batches as f64 * activation_bytes,
        stage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_search::{megatron_layer_plan, Planner, PlannerOptions, SpaceOptions};

    fn small_model() -> ModelConfig {
        // A shrunken stand-in so debug-mode tests stay fast.
        ModelConfig {
            layers: 8,
            ..ModelConfig::opt_6_7b()
        }
    }

    #[test]
    fn pipeline_reduces_bubble_with_more_micro_batches() {
        let model = small_model();
        let graph = model.layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 1, 2);
        let base = ThreeDConfig {
            p: 2,
            d: 1,
            m: 2,
            micro_batches: 2,
        };
        let more = ThreeDConfig {
            micro_batches: 8,
            ..base
        };
        let r2 = simulate_3d(&model, &plan, base, 8, 512);
        let r8 = simulate_3d(&model, &plan, more, 8, 512);
        assert!(
            r8.tokens_per_second > r2.tokens_per_second,
            "more micro-batches must shrink the bubble: {} vs {}",
            r8.tokens_per_second,
            r2.tokens_per_second
        );
    }

    #[test]
    fn data_parallel_charges_gradient_allreduce() {
        let model = small_model();
        let graph = model.layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 1, 2);
        let no_dp = simulate_3d(
            &model,
            &plan,
            ThreeDConfig {
                p: 2,
                d: 1,
                m: 2,
                micro_batches: 4,
            },
            8,
            512,
        );
        let with_dp = simulate_3d(
            &model,
            &plan,
            ThreeDConfig {
                p: 2,
                d: 2,
                m: 2,
                micro_batches: 4,
            },
            8,
            512,
        );
        // Twice the devices with DP: better throughput, but not linear
        // (the all-reduce and the unchanged pipeline depth see to that).
        assert!(with_dp.tokens_per_second > no_dp.tokens_per_second);
        assert!(with_dp.tokens_per_second < 2.0 * no_dp.tokens_per_second);
    }

    #[test]
    fn one_f_one_b_caps_in_flight_stashes() {
        let model = small_model();
        let graph = model.layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 1, 2);
        let layers_per_stage = (model.layers / 2) as f64;
        // micro_batches = 1 (< p) and 8 (> p): min(p, micro_batches) = 1, 2.
        for (micro_batches, stashes) in [(1, 1.0), (8, 2.0)] {
            let cfg = ThreeDConfig {
                p: 2,
                d: 1,
                m: 2,
                micro_batches,
            };
            let r = simulate_3d(&model, &plan, cfg, 8, 512);
            let stage = &r.stage;
            assert!(stage.stash_bytes > 0.0);
            let want = layers_per_stage * (stage.persistent_bytes + stashes * stage.stash_bytes);
            assert_eq!(r.peak_memory_bytes.to_bits(), want.to_bits(), "{cfg:?}");
        }
    }

    #[test]
    fn primepar_stage_plan_composes_into_3d() {
        let model = small_model();
        let graph = model.layer_graph(4, 512);
        let cluster_m = Cluster::v100_like(4);
        let opts = PlannerOptions::default()
            .with_space(SpaceOptions {
                allow_batch_split: false,
                ..SpaceOptions::default()
            })
            .with_alpha(0.0);
        let plan = Planner::new(&cluster_m, &graph, opts).optimize(model.layers);
        let cfg = ThreeDConfig {
            p: 2,
            d: 1,
            m: 4,
            micro_batches: 4,
        };
        let r = simulate_3d(&model, &plan.seqs, cfg, 8, 512);
        assert!(r.tokens_per_second > 0.0);
        assert_eq!(r.config.devices(), 8);
    }

    #[test]
    fn pipeline_accounting_is_consistent() {
        let model = small_model();
        let graph = model.layer_graph(8, 512);
        let plan = megatron_layer_plan(&graph, 1, 2);
        let cfg = ThreeDConfig {
            p: 2,
            d: 2,
            m: 2,
            micro_batches: 4,
        };
        let r = simulate_3d(&model, &plan, cfg, 16, 512);
        // One stage slot of fill plus one of drain: bubble = (p-1)·stage.
        let stage_time = r.stage.layer_time * (model.layers / 2) as f64;
        assert!((r.bubble_seconds - stage_time).abs() < 1e-12 * (1.0 + stage_time));
        assert!(r.bubble_fraction > 0.0 && r.bubble_fraction < 1.0);
        assert!(r.dp_allreduce_seconds > 0.0, "d=2 must pay an all-reduce");
        assert!(r.exposed_dp_allreduce_seconds <= r.dp_allreduce_seconds);
        assert!(r.p2p_seconds > 0.0 && r.p2p_bytes > 0.0);
        // The iteration decomposes into slots + p2p + exposed all-reduce.
        let slots = (cfg.micro_batches + cfg.p - 1) as f64 * stage_time;
        let rebuilt = slots + r.p2p_seconds + r.exposed_dp_allreduce_seconds;
        assert!(
            (rebuilt - r.iteration_time).abs() <= 1e-9 * (1.0 + r.iteration_time),
            "{rebuilt} vs {}",
            r.iteration_time
        );

        // p=1: no pipeline, no bubble, no p2p.
        let flat = simulate_3d(
            &model,
            &plan,
            ThreeDConfig {
                p: 1,
                d: 2,
                m: 2,
                micro_batches: 4,
            },
            16,
            512,
        );
        assert_eq!(flat.bubble_seconds, 0.0);
        assert_eq!(flat.p2p_seconds, 0.0);
        assert_eq!(flat.p2p_bytes, 0.0);
    }
}
