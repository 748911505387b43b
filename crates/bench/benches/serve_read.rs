//! B7: in-process query throughput of the mesh-state service.
//!
//! Measures the `ServiceHandle` read hot path — the epoch check plus the
//! query against the cached snapshot — with the writer idle, so the
//! numbers isolate serving overhead from re-convergence cost. `route_len`
//! vs `route` quantifies what the allocation-free fast path buys.
//!
//! The wire rows price what the TCP path adds on top:
//! `dispatch_bytes/route_len` answers the same 64 queries as the typed
//! `route_len` row, but from encoded request frames to encoded replies.
//! The `codec/*` rows time only the JSON: each round trip is the four
//! codec steps of one request (client encode, server decode, server
//! encode of the reply, client decode), over the 64 queries for
//! `route_len` and `route` and over one 64-pair batch for
//! `route_len_batch64`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocp_mesh::{Coord, Topology};
use ocp_serve::{dispatch_bytes, MeshService, Request, Response, ServeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn build_service(side: u32, faults: usize) -> MeshService {
    let mut rng = SmallRng::seed_from_u64(0xB6);
    let topology = Topology::mesh(side, side);
    let faults = ocp_workloads::uniform_faults(topology, faults, &mut rng);
    MeshService::start(topology, faults, ServeConfig::default()).expect("service starts")
}

fn pairs(side: u32, n: usize, seed: u64) -> Vec<(Coord, Coord)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                Coord::new(rng.gen_range(0..side as i32), rng.gen_range(0..side as i32)),
                Coord::new(rng.gen_range(0..side as i32), rng.gen_range(0..side as i32)),
            )
        })
        .collect()
}

fn serve_queries(c: &mut Criterion) {
    let side = 32u32;
    let mut group = c.benchmark_group("serve_read");
    group.sample_size(30);
    for faults in [8usize, 64] {
        let service = build_service(side, faults);
        let queries = pairs(side, 64, 21);
        let mut handle = service.handle();
        group.bench_with_input(BenchmarkId::new("route", faults), &queries, |b, queries| {
            b.iter(|| {
                for &(s, d) in queries {
                    let _ = black_box(handle.route(s, d));
                }
            });
        });
        let mut handle = service.handle();
        group.bench_with_input(
            BenchmarkId::new("route_len", faults),
            &queries,
            |b, queries| {
                b.iter(|| {
                    for &(s, d) in queries {
                        let _ = black_box(handle.route_len(s, d));
                    }
                });
            },
        );
        let mut handle = service.handle();
        let frames: Vec<Vec<u8>> = queries
            .iter()
            .map(|&(src, dst)| serde_json::to_vec(&Request::RouteLen { src, dst }).unwrap())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("dispatch_bytes/route_len", faults),
            &frames,
            |b, frames| {
                b.iter(|| {
                    for frame in frames {
                        black_box(dispatch_bytes(&mut handle, frame));
                    }
                });
            },
        );
        let mut handle = service.handle();
        group.bench_with_input(
            BenchmarkId::new("status", faults),
            &queries,
            |b, queries| {
                b.iter(|| {
                    for &(s, _) in queries {
                        let _ = black_box(handle.status(s));
                    }
                });
            },
        );
        service.shutdown();
    }
    group.finish();
}

/// One four-step codec round trip of `request` and its `response`.
fn codec_round_trip(request: &Request, response: &Response) {
    let frame = serde_json::to_vec(request).unwrap();
    let decoded: Request = serde_json::from_slice(&frame).unwrap();
    let reply = serde_json::to_vec(response).unwrap();
    let answer: Response = serde_json::from_slice(&reply).unwrap();
    black_box((decoded, answer));
}

fn codec(c: &mut Criterion) {
    let side = 32u32;
    let service = build_service(side, 64);
    let mut handle = service.handle();
    let queries = pairs(side, 64, 21);
    let mut exchanges = |request: fn(Coord, Coord) -> Request| -> Vec<(Request, Response)> {
        queries
            .iter()
            .map(|&(src, dst)| {
                let request = request(src, dst);
                let response = handle.dispatch(request.clone());
                (request, response)
            })
            .collect()
    };
    let route_len = exchanges(|src, dst| Request::RouteLen { src, dst });
    let route = exchanges(|src, dst| Request::Route { src, dst });
    let batch = Request::RouteLenBatch {
        pairs: queries.clone(),
    };
    let batch_reply = handle.dispatch(batch.clone());
    let mut group = c.benchmark_group("serve_read/codec");
    group.sample_size(30);
    for (name, exchanges) in [("route_len", &route_len), ("route", &route)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for (request, response) in exchanges {
                    codec_round_trip(request, response);
                }
            });
        });
    }
    group.bench_function("route_len_batch64", |b| {
        b.iter(|| codec_round_trip(&batch, &batch_reply));
    });
    group.finish();
    service.shutdown();
}

criterion_group!(benches, serve_queries, codec);
criterion_main!(benches);
