//! B9: the indexed query path — `route_len` cost of the single-lane
//! segment-jump traversal against the per-hop reference.
//!
//! B10: the batch entry point — `route_len_batch_with` over 64-pair
//! chunks of the same machine and workload, the data path behind the
//! serve `route_len_batch` endpoint.
//!
//! B11: `route_disjoint` — the k-disjoint max-flow path against the
//! single-route traversal it builds on, at k in {1, 2, 3}. k=1 rides the
//! plain traversal (no flow network); k >= 2 pays vertex-split max-flow
//! plus deterministic decomposition per query.
//!
//! All engines return byte-identical answers (pinned by the routing
//! equivalence suite); the spread between them is pure query cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocp_core::prelude::*;
use ocp_mesh::{Coord, Topology};
use ocp_routing::{EnabledMap, FaultTolerantRouter, RouteScratch};
use ocp_workloads::clustered_faults;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;

fn build_router(side: u32, f: usize, seed: u64) -> FaultTolerantRouter {
    let topology = Topology::mesh(side, side);
    let mut rng = SmallRng::seed_from_u64(seed);
    let faults = clustered_faults(topology, f, (f / 24).max(1), &mut rng);
    let map = FaultMap::new(topology, faults);
    let out = run_pipeline(&map, &PipelineConfig::default());
    let enabled = EnabledMap::from_outcome(&out);
    let regions: Vec<_> = out.regions.iter().map(|r| r.cells.clone()).collect();
    FaultTolerantRouter::new(enabled, &regions)
}

fn query_pairs(router: &FaultTolerantRouter, n: usize, seed: u64) -> Vec<(Coord, Coord)> {
    let nodes = router.enabled().enabled_coords();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let p: Vec<_> = nodes.choose_multiple(&mut rng, 2).collect();
            (*p[0], *p[1])
        })
        .collect()
}

fn route_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_query");
    group.sample_size(20);
    // 48² at ~10% clustered faults: big enough for multi-ring detours,
    // small enough for the bench smoke.
    let router = build_router(48, 230, 0xB9);
    let queries = query_pairs(&router, 64, 29);

    group.bench_with_input(
        BenchmarkId::from_parameter("reference"),
        &queries,
        |b, queries| {
            b.iter(|| {
                for &(s, d) in queries {
                    let _ = black_box(router.route_len_reference(s, d));
                }
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("indexed"),
        &queries,
        |b, queries| {
            b.iter(|| {
                for &(s, d) in queries {
                    let _ = black_box(router.route_len(s, d));
                }
            });
        },
    );
    group.finish();
}

fn route_query_wide(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_query_wide");
    group.sample_size(20);
    // Same machine and workload shape as B9, over four full batches.
    let router = build_router(48, 230, 0xB9);
    let queries = query_pairs(&router, 256, 29);

    group.bench_with_input(
        BenchmarkId::from_parameter("batch64"),
        &queries,
        |b, queries| {
            // Persistent scratch and results vector across batches, as a
            // serve worker's handle reuses them across successive
            // `route_len_batch` requests.
            let mut scratch = RouteScratch::new();
            let mut out = Vec::new();
            b.iter(|| {
                for chunk in queries.chunks(64) {
                    router.route_len_batch_with(chunk, &mut scratch, &mut out);
                    black_box(&out);
                }
            });
        },
    );
    group.finish();
}

fn route_disjoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_disjoint");
    group.sample_size(20);
    // Same machine and workload shape as B9/B10, so the k=1 row is
    // directly comparable to the single-route query cost.
    let router = build_router(48, 230, 0xB9);
    let queries = query_pairs(&router, 64, 29);

    group.bench_with_input(
        BenchmarkId::from_parameter("route"),
        &queries,
        |b, queries| {
            b.iter(|| {
                for &(s, d) in queries {
                    let _ = black_box(router.route(s, d));
                }
            });
        },
    );
    for k in [1usize, 2, 3] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}")),
            &queries,
            |b, queries| {
                // Persistent scratch across queries: the fast (k=1) path
                // stays allocation-free, exactly as a serve worker runs it.
                let mut scratch = RouteScratch::new();
                b.iter(|| {
                    for &(s, d) in queries {
                        let _ = black_box(router.route_disjoint_with(s, d, k, &mut scratch));
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, route_query, route_query_wide, route_disjoint);
criterion_main!(benches);
