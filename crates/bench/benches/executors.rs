//! B3: the executors on the same labeling problem.
//!
//! Sequential measures the pure per-node work on a medium machine; the
//! actor executor pays one thread per node and is only run on a small
//! one, next to the sequential reference. (The frontier executor is in
//! B8.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocp_core::labeling::safety::{compute_safety, SafetyRule};
use ocp_core::prelude::*;
use ocp_distsim::Executor;
use ocp_mesh::Topology;
use ocp_workloads::uniform_faults;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn executors_on_medium_mesh(c: &mut Criterion) {
    let mut group = c.benchmark_group("executors_96x96");
    group.sample_size(10);
    let topology = Topology::mesh(96, 96);
    let mut rng = SmallRng::seed_from_u64(5);
    let faults = uniform_faults(topology, 96, &mut rng);
    let map = FaultMap::new(topology, faults);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            black_box(compute_safety(
                &map,
                SafetyRule::BothDimensions,
                Executor::Sequential,
                400,
            ))
        });
    });
    group.finish();
}

fn actor_on_small_mesh(c: &mut Criterion) {
    let mut group = c.benchmark_group("executors_16x16_actor");
    group.sample_size(10);
    let topology = Topology::mesh(16, 16);
    let mut rng = SmallRng::seed_from_u64(6);
    let faults = uniform_faults(topology, 8, &mut rng);
    let map = FaultMap::new(topology, faults);
    for (name, exec) in [
        ("sequential", Executor::Sequential),
        ("actor", Executor::Actor),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &exec, |b, &exec| {
            b.iter(|| black_box(compute_safety(&map, SafetyRule::BothDimensions, exec, 400)));
        });
    }
    group.finish();
}

fn async_vs_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_vs_sync_40x40");
    group.sample_size(20);
    let topology = Topology::mesh(40, 40);
    let mut rng = SmallRng::seed_from_u64(8);
    let faults = uniform_faults(topology, 20, &mut rng);
    let map = FaultMap::new(topology, faults);
    group.bench_function("sync_sequential", |b| {
        b.iter(|| {
            black_box(compute_safety(
                &map,
                SafetyRule::BothDimensions,
                Executor::Sequential,
                400,
            ))
        });
    });
    for delay in [1u64, 8] {
        group.bench_function(format!("async_delay_{delay}"), |b| {
            b.iter(|| {
                let p = ocp_core::labeling::safety::SafetyProtocol::new(
                    &map,
                    SafetyRule::BothDimensions,
                );
                black_box(ocp_distsim::run_async(&p, 7, delay, 50_000_000))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    executors_on_medium_mesh,
    actor_on_small_mesh,
    async_vs_sync
);
criterion_main!(benches);
