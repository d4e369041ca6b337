//! Criterion benchmarks of the segmented-DP optimizer (the paper's Table 2
//! metric) across parallelism sizes and model structures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use primepar::graph::ModelConfig;
use primepar::search::{alpa_plan, best_megatron, Planner, PlannerOptions};
use primepar::topology::Cluster;

fn bench_optimizer_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/devices");
    group.sample_size(10);
    let model = ModelConfig::opt_175b();
    for devices in [4usize, 8, 16] {
        let cluster = Cluster::v100_like(devices);
        let graph = model.layer_graph(8, 2048);
        group.bench_with_input(BenchmarkId::from_parameter(devices), &devices, |b, _| {
            b.iter(|| {
                Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(model.layers)
            })
        });
    }
    group.finish();
}

fn bench_optimizer_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/model");
    group.sample_size(10);
    let cluster = Cluster::v100_like(8);
    for model in [
        ModelConfig::opt_175b(),
        ModelConfig::llama2_70b(),
        ModelConfig::bloom_176b(),
    ] {
        let graph = model.layer_graph(8, 2048);
        group.bench_with_input(BenchmarkId::from_parameter(model.name), &model, |b, m| {
            b.iter(|| Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(m.layers))
        });
    }
    group.finish();
}

fn bench_baseline_planners(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/baselines");
    group.sample_size(10);
    let cluster = Cluster::v100_like(8);
    let model = ModelConfig::opt_6_7b();
    let graph = model.layer_graph(8, 2048);
    group.bench_function("megatron_enumeration", |b| {
        b.iter(|| best_megatron(&cluster, &graph, 0.0))
    });
    group.bench_function("alpa_conventional_space", |b| {
        b.iter(|| alpa_plan(&cluster, &graph, model.layers, 0.0))
    });
    group.finish();
}

fn bench_table2_slab(c: &mut Criterion) {
    // The Table-2 unit of work: OPT-6.7B at 16 devices, single-threaded,
    // planning a 4-layer slab of the stack (layer doubling composes it to
    // full depth).
    let mut group = c.benchmark_group("planner_table2_slab");
    group.sample_size(10);
    let model = ModelConfig::opt_6_7b();
    let cluster = Cluster::v100_like(16);
    let stack = 4usize;
    let graph = model.layer_graph(8, 2048).stack(stack);
    let layers = model.layers / stack as u64;
    group.bench_function("exact", |b| {
        b.iter(|| Planner::new(&cluster, &graph, PlannerOptions::default()).optimize(layers))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_optimizer_scaling,
    bench_optimizer_models,
    bench_baseline_planners,
    bench_table2_slab
);
criterion_main!(benches);
