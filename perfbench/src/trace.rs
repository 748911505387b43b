//! The traced run's instruments: a reactor handler that times each call it
//! makes, and off-the-clock replays that time the routing, labeling,
//! certificate, index-build and WAL functions on the run's own inputs.

use crate::spans::SpanRecorder;
use ocp_core::maintenance::try_relabel_after_faults;
use ocp_core::prelude::*;
use ocp_geometry::Region;
use ocp_reactor::{loopback, Handler, ReactorConfig, ReactorServer};
use ocp_routing::{EnabledMap, FaultTolerantRouter, RouteScratch};
use ocp_serve::{
    EpochRecord, EventBatch, MeshService, Request, Response, ServiceHandle, Snapshot, Wal,
    WalRecord,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Handler recorders, one slot per load phase.
pub type Sink = Arc<Mutex<Vec<(usize, SpanRecorder)>>>;

/// Load phases: closed loop, open loop, publish tail.
const PHASES: usize = 3;

/// The benchmark's own reactor handler: what `dispatch_bytes` does —
/// decode, `ServiceHandle::dispatch`, encode, with the same reply bytes —
/// with each call timed.
struct TracedHandler {
    handle: ServiceHandle,
    /// Which slot of `recs` the current phase records into.
    phase: Arc<AtomicUsize>,
    recs: Vec<SpanRecorder>,
    sink: Sink,
    worker: u64,
    seq: u64,
}

impl Handler for TracedHandler {
    fn handle(&mut self, payload: &[u8]) -> Vec<u8> {
        let t0 = Instant::now();
        let parsed = serde_json::from_slice::<Request>(payload);
        let t1 = Instant::now();
        let response = match parsed {
            Ok(request) => self.handle.dispatch(request),
            Err(e) => Response::Error {
                message: format!("bad request: {e}"),
            },
        };
        let t2 = Instant::now();
        let bytes = serde_json::to_vec(&response).unwrap_or_else(|_| b"{}".to_vec());
        let t3 = Instant::now();
        self.seq += 1;
        let id = (self.worker << 48) | self.seq;
        let rec = &mut self.recs[self.phase.load(Ordering::Relaxed)];
        let child = t3.duration_since(t0).as_nanos() as u64;
        let parent = rec.record("server.handle", id, 0, t0, t3, child);
        rec.record("codec.server_decode", id, parent, t0, t1, 0);
        rec.record("serve.dispatch", id, parent, t1, t2, 0);
        rec.record("codec.server_encode", id, parent, t2, t3, 0);
        bytes
    }
}

impl Drop for TracedHandler {
    fn drop(&mut self) {
        let recs = std::mem::take(&mut self.recs);
        if let Ok(mut sink) = self.sink.lock() {
            sink.extend(recs.into_iter().enumerate());
        }
    }
}

/// Starts the reactor with the traced handler over `service`; returns the
/// server, the phase selector and the sink the handlers' spans land in
/// once the server shuts down.
pub fn start_traced(
    service: &MeshService,
    origin: Instant,
) -> std::io::Result<(ReactorServer, Arc<AtomicUsize>, Sink)> {
    let phase = Arc::new(AtomicUsize::new(0));
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let prototype = service.handle();
    let workers = AtomicU64::new(0);
    let (p, s) = (phase.clone(), sink.clone());
    let server = ReactorServer::start(loopback(), ReactorConfig::default(), move || {
        TracedHandler {
            handle: prototype.clone(),
            phase: p.clone(),
            recs: (0..PHASES).map(|_| SpanRecorder::new(origin)).collect(),
            sink: s.clone(),
            worker: workers.fetch_add(1, Ordering::Relaxed) + 1,
            seq: 0,
        }
    })?;
    Ok((server, phase, sink))
}

/// Routing costs from replaying the read pool on the served snapshot.
#[derive(Default)]
pub struct ReadReplay {
    /// Mean routing time per pool request, by the request's own kind.
    pub per_request_ns: f64,
    pub route_len_ns: f64,
    pub route_ns: f64,
    pub batch_ns_per_pair: f64,
    pub disjoint_ns: f64,
    pub hops_mean: f64,
}

/// Replays `pool` through the router's public functions on `snapshot`.
pub fn replay_reads(rec: &mut SpanRecorder, snapshot: &Snapshot, pool: &[Request]) -> ReadReplay {
    let router = &snapshot.router;
    let mut scratch = RouteScratch::new();
    let mut out = Vec::new();
    let mut total = 0u64;
    for (i, request) in pool.iter().enumerate() {
        let id = i as u64;
        let start = Instant::now();
        match request {
            Request::RouteLen { src, dst } => rec.time("routing.route_len", id, || {
                black_box(router.route_len_with(*src, *dst, &mut scratch)).ok();
            }),
            Request::Route { src, dst } => rec.time("routing.route", id, || {
                black_box(router.route(*src, *dst)).ok();
            }),
            Request::RouteLenBatch { pairs } => rec.time("routing.route_len_batch", id, || {
                router.route_len_batch_with(pairs, &mut scratch, &mut out);
                black_box(&out);
            }),
            Request::RouteDisjoint { src, dst, k } => {
                rec.time("routing.route_disjoint", id, || {
                    black_box(router.route_disjoint_with(*src, *dst, *k, &mut scratch)).ok();
                })
            }
            Request::Status { node } => rec.time("serve.node_state", id, || {
                black_box(snapshot.node_state(*node));
            }),
            _ => {}
        }
        total += start.elapsed().as_nanos() as u64;
    }

    // Every kind of query on the pool's pairs, whichever kinds the
    // workload sends, so each routing metric exists on every workload.
    let pairs: Vec<_> = pool
        .iter()
        .flat_map(|r| match r {
            Request::RouteLen { src, dst }
            | Request::Route { src, dst }
            | Request::RouteDisjoint { src, dst, .. } => vec![(*src, *dst)],
            Request::RouteLenBatch { pairs } => pairs.clone(),
            _ => Vec::new(),
        })
        .take(4096)
        .collect();
    let mut stats = ReadReplay {
        per_request_ns: total as f64 / pool.len().max(1) as f64,
        ..ReadReplay::default()
    };
    let mut hops = (0u64, 0u64);
    let t = Instant::now();
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        if let Ok(len) = rec.time("replay.route_len", i as u64, || {
            router.route_len_with(src, dst, &mut scratch)
        }) {
            hops.0 += len as u64;
            hops.1 += 1;
        }
    }
    stats.route_len_ns = t.elapsed().as_nanos() as f64 / pairs.len().max(1) as f64;
    stats.hops_mean = hops.0 as f64 / hops.1.max(1) as f64;
    let routed = &pairs[..pairs.len().min(1024)];
    let t = Instant::now();
    for (i, &(src, dst)) in routed.iter().enumerate() {
        rec.time("replay.route", i as u64, || {
            black_box(router.route(src, dst)).ok()
        });
    }
    stats.route_ns = t.elapsed().as_nanos() as f64 / routed.len().max(1) as f64;
    let t = Instant::now();
    for (i, chunk) in pairs.chunks(crate::workload::BATCH_PAIRS).enumerate() {
        rec.time("replay.route_len_batch", i as u64, || {
            router.route_len_batch_with(chunk, &mut scratch, &mut out);
            black_box(&out);
        });
    }
    stats.batch_ns_per_pair = t.elapsed().as_nanos() as f64 / pairs.len().max(1) as f64;
    // Disjoint queries cost milliseconds on large meshes: bound the replay.
    let t = Instant::now();
    let mut n = 0usize;
    for &(src, dst) in &pairs {
        if n == 64 || (n >= 4 && t.elapsed() > Duration::from_millis(500)) {
            break;
        }
        rec.time("replay.route_disjoint", n as u64, || {
            black_box(router.route_disjoint_with(src, dst, 2, &mut scratch)).ok()
        });
        n += 1;
    }
    stats.disjoint_ns = t.elapsed().as_nanos() as f64 / n.max(1) as f64;
    stats
}

/// Publish-path layer costs from replaying the epoch log.
#[derive(Default)]
pub struct PublishReplay {
    pub pipeline_cold_ms: Vec<f64>,
    pub build_cold_ms: Vec<f64>,
    pub relabel_warm_ms: Vec<f64>,
    pub warm_rounds: Vec<f64>,
    pub build_incremental_ms: Vec<f64>,
    pub build_segment_ms: Vec<f64>,
    pub build_ring_ms: Vec<f64>,
    pub build_wide_ms: Vec<f64>,
    pub build_exit_ms: Vec<f64>,
    pub reuse_ratio: Vec<f64>,
    pub cert_describe_ms: Vec<f64>,
    pub cert_check_ms: Vec<f64>,
    pub wal_append_us: Vec<f64>,
    pub wal_fsync_us: Vec<f64>,
    pub wal_bytes: Vec<f64>,
    /// Replayed warm rounds that differ from the service's own record.
    pub problems: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn regions_of(outcome: &PipelineOutcome) -> Vec<Region> {
    outcome.regions.iter().map(|r| r.cells.clone()).collect()
}

/// Replays up to `max_batches` records of `log` from `initial` through the
/// public labeling, certificate, index-build and WAL functions, appending
/// to a scratch log at `wal_path`. The epoch-0 map is also cold-built
/// three times, so the cold layers are measured on every workload.
pub fn replay_publishes(
    rec: &mut SpanRecorder,
    initial: &Snapshot,
    log: &[EpochRecord],
    config: &PipelineConfig,
    wal_path: &Path,
    max_batches: usize,
) -> PublishReplay {
    let mut out = PublishReplay::default();
    let threads = crate::sysinfo::nproc();
    let cold = |rec: &mut SpanRecorder, out: &mut PublishReplay, epoch: u64, map: &FaultMap| {
        let t = Instant::now();
        let outcome = rec.time("core.pipeline_cold", epoch, || {
            try_run_pipeline(map, config).expect("cold pipeline converges")
        });
        out.pipeline_cold_ms.push(ms(t.elapsed()));
        let enabled = EnabledMap::from_outcome(&outcome);
        let regions = regions_of(&outcome);
        let t = Instant::now();
        let (router, build) = rec.time("routing.build_cold", epoch, || {
            FaultTolerantRouter::new_with_threads(enabled.clone(), &regions, threads)
        });
        out.build_cold_ms.push(ms(t.elapsed()));
        (outcome, enabled, router, build)
    };
    for _ in 0..3 {
        cold(rec, &mut out, 0, &initial.map);
    }

    let init = WalRecord::Init {
        topology: initial.map.topology(),
        faults: initial.map.faults(),
        rule: config.rule,
        digest: outcome_digest(&initial.map, &initial.outcome),
    };
    let mut wal = Wal::create(wal_path, &init).expect("create the scratch WAL");
    let mut prev = initial.clone();
    for record in log.iter().take(max_batches) {
        let epoch = record.epoch;
        let (map, outcome, enabled, router, build) = if record.repairs.is_empty() {
            let t = Instant::now();
            let (map, m) = rec.time("core.relabel_warm", epoch, || {
                try_relabel_after_faults(&prev.map, &record.faults, &prev.outcome, config)
                    .expect("warm relabel converges")
            });
            out.relabel_warm_ms.push(ms(t.elapsed()));
            let rounds = m.outcome.safety_trace.rounds();
            out.warm_rounds.push(rounds as f64);
            if rounds != record.warm_rounds {
                out.problems.push(format!(
                    "epoch {epoch}: replay took {rounds} warm rounds, the service {}",
                    record.warm_rounds
                ));
            }
            let enabled = EnabledMap::from_outcome(&m.outcome);
            let regions = regions_of(&m.outcome);
            let t = Instant::now();
            let (router, build) = rec.time("routing.build_incremental", epoch, || {
                FaultTolerantRouter::rebuild_from(&prev.router, enabled.clone(), &regions)
            });
            out.build_incremental_ms.push(ms(t.elapsed()));
            out.build_segment_ms.push(build.segment_ns as f64 / 1e6);
            out.build_ring_ms.push(build.ring_ns as f64 / 1e6);
            out.build_wide_ms.push(build.wide_ns as f64 / 1e6);
            out.build_exit_ms.push(build.exit_ns as f64 / 1e6);
            out.reuse_ratio.push(build.reuse_ratio());
            (map, m.outcome, enabled, router, build)
        } else {
            let mut map = prev.map.clone();
            for &r in &record.repairs {
                map = map.with_repaired_node(r);
            }
            for &f in &record.faults {
                map = map.with_additional_fault(f);
            }
            let (outcome, enabled, router, build) = cold(rec, &mut out, epoch, &map);
            (map, outcome, enabled, router, build)
        };
        let t = Instant::now();
        let cert = rec.time("core.cert_describe", epoch, || {
            EpochCertificate::describe(epoch, &map, &outcome)
        });
        out.cert_describe_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let checked = rec.time("core.cert_check", epoch, || {
            cert.check(&map, &outcome).is_ok()
        });
        out.cert_check_ms.push(ms(t.elapsed()));
        if !checked {
            out.problems.push(format!(
                "epoch {epoch}: replayed certificate fails its check"
            ));
        }
        let batch = EventBatch {
            faults: record.faults.clone(),
            repairs: record.repairs.clone(),
        };
        let before = wal.offset();
        let t = Instant::now();
        rec.time("serve.wal_append", epoch, || {
            wal.append(&WalRecord::batch(epoch, &batch, cert.grid_digest))
                .expect("append to the scratch WAL")
        });
        out.wal_append_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        rec.time("serve.wal_fsync", epoch, || {
            wal.sync().expect("fsync the scratch WAL")
        });
        out.wal_fsync_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.wal_bytes.push((wal.offset() - before) as f64);
        prev = Snapshot {
            epoch,
            map,
            outcome,
            enabled,
            router,
            build,
        };
    }
    out
}
