//! B1/B2: runtime scaling of the two labeling phases with machine size and
//! fault count (sequential executor — the per-node work the distributed
//! protocol performs, without thread overhead).
//!
//! B8: the labeling engines compared on one fixed problem — sequential,
//! frontier worklist, and the bit-packed kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocp_core::prelude::*;
use ocp_distsim::Executor;
use ocp_mesh::Topology;
use ocp_workloads::uniform_faults;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn phase_scaling_by_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_by_size");
    group.sample_size(20);
    for side in [32u32, 64, 100, 128] {
        let topology = Topology::mesh(side, side);
        let mut rng = SmallRng::seed_from_u64(42);
        // 1% fault density, the regime of the paper's sweep midpoint.
        let faults = uniform_faults(topology, (side * side / 100) as usize, &mut rng);
        let map = FaultMap::new(topology, faults);
        group.bench_with_input(BenchmarkId::from_parameter(side), &map, |b, map| {
            b.iter(|| black_box(run_pipeline(map, &PipelineConfig::default())));
        });
    }
    group.finish();
}

fn phase_scaling_by_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_by_faults");
    group.sample_size(20);
    let topology = Topology::mesh(100, 100);
    for f in [10usize, 50, 100, 200] {
        let mut rng = SmallRng::seed_from_u64(7);
        let faults = uniform_faults(topology, f, &mut rng);
        let map = FaultMap::new(topology, faults);
        group.bench_with_input(BenchmarkId::from_parameter(f), &map, |b, map| {
            b.iter(|| black_box(run_pipeline(map, &PipelineConfig::default())));
        });
    }
    group.finish();
}

fn safety_rules_compared(c: &mut Criterion) {
    let mut group = c.benchmark_group("safety_rule");
    group.sample_size(20);
    let topology = Topology::mesh(100, 100);
    let mut rng = SmallRng::seed_from_u64(9);
    let faults = uniform_faults(topology, 100, &mut rng);
    let map = FaultMap::new(topology, faults);
    for (name, rule) in [
        ("def2a", SafetyRule::TwoUnsafeNeighbors),
        ("def2b", SafetyRule::BothDimensions),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_pipeline(
                    &map,
                    &PipelineConfig {
                        rule,
                        ..PipelineConfig::default()
                    },
                ))
            });
        });
    }
    group.finish();
}

fn label_engines_compared(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_engine");
    group.sample_size(20);
    // 256x256 at 1% fault density — the E15 sweep midpoint.
    let topology = Topology::mesh(256, 256);
    let mut rng = SmallRng::seed_from_u64(15);
    let faults = uniform_faults(topology, topology.len() / 100, &mut rng);
    let map = FaultMap::new(topology, faults);
    for (name, engine) in [
        ("sequential", LabelEngine::Lockstep(Executor::Sequential)),
        ("frontier", LabelEngine::Lockstep(Executor::Frontier)),
        ("bitboard1", LabelEngine::Bitboard),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_pipeline(
                    &map,
                    &PipelineConfig {
                        engine,
                        ..PipelineConfig::default()
                    },
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    phase_scaling_by_size,
    phase_scaling_by_faults,
    safety_rules_compared,
    label_engines_compared
);
criterion_main!(benches);
