//! E17: the indexed query path payoff — `route_len` throughput of the
//! segment-jump/indexed-ring router against the per-hop reference
//! traversal, across mesh sizes, clustered-fault densities, and batch
//! sizes.
//!
//! All engines are pinned byte-identical by the routing equivalence
//! suite, so this experiment measures pure query cost. Three tiers:
//!
//! * **reference** walks every cell of every segment and rebuilds its
//!   livelock guard and exit scans per query;
//! * **indexed** is the public singleton path (`route_len`): the
//!   single-lane traversal jumps whole segments with one next-blocked
//!   load, decodes ring entries from packed hit words, and resolves exits
//!   through the O(1) exit directory;
//! * **wide-batchN** is the SIMD-lane batch engine behind the serve
//!   `route_len_batch` endpoint: whole batches move through the same
//!   cache-line-packed tables together (experiment E20 documents the
//!   layout).
//!
//! The one-off cost the index shifts to publication time is reported
//! alongside as the *cold baseline*: a from-scratch
//! `FaultTolerantRouter::new` of every table. Since E22 the serve
//! writer's warm path no longer pays it per epoch — fault-only batches
//! patch the previous epoch's tables incrementally
//! (`FaultTolerantRouter::rebuild_from`, digest-identical, ≥5× cheaper
//! at the flagship) and only repair batches fall back to this cold
//! build. E22 (`repro -- rebuild`) measures that split.

use super::Settings;
use ocp_analysis::Table;
use ocp_core::prelude::*;
use ocp_mesh::{Coord, Topology};
use ocp_routing::{EnabledMap, FaultTolerantRouter, RouteScratch};
use ocp_workloads::clustered_faults;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One measured (mesh size, fault density, engine) cell.
#[derive(Clone, Debug, Serialize)]
pub struct RouteperfRow {
    /// Mesh side length (the machine is `side x side`).
    pub side: u32,
    /// Fraction of nodes faulty (clustered placement).
    pub density: f64,
    /// Faults actually placed.
    pub faults: usize,
    /// Query engine label.
    pub engine: String,
    /// Scratch-sharing batch size (1 = singleton queries).
    pub batch: usize,
    /// Hop-count queries per measured pass.
    pub queries: u64,
    /// Median nanoseconds per query across trials.
    pub ns_per_query: f64,
    /// Median single-thread throughput, queries per second.
    pub qps: f64,
    /// Throughput vs the reference engine at the same (side, density).
    pub speedup: f64,
}

/// Cold-baseline router + index construction cost of one machine: the
/// from-scratch build the serve writer now pays only for epoch 0 and
/// repair batches — fault-only epochs patch the previous snapshot's
/// tables instead (E22, `results/rebuild.json`).
#[derive(Clone, Debug, Serialize)]
pub struct BuildRow {
    /// Mesh side length.
    pub side: u32,
    /// Fraction of nodes faulty.
    pub density: f64,
    /// Faults actually placed.
    pub faults: usize,
    /// Disabled regions (= fault rings) on the machine.
    pub regions: usize,
    /// Median `FaultTolerantRouter::new` wall time, milliseconds
    /// (segment table + ring indexes included).
    pub build_ms: f64,
}

/// Everything E17 produces (`results/routeperf.json`).
#[derive(Clone, Debug, Serialize)]
pub struct RouteperfReport {
    /// Query-throughput cells.
    pub rows: Vec<RouteperfRow>,
    /// Router construction cost per machine.
    pub build: Vec<BuildRow>,
}

const REFERENCE: &str = "reference";

#[derive(Clone, Copy)]
enum Engine {
    /// The pre-index per-hop traversal (`route_len_reference`).
    Reference,
    /// The single-lane traversal through the public singleton path
    /// (`route_len`, thread-local scratch).
    Indexed,
    /// The wide SIMD-lane batch engine (`route_len_batch_with`) at this
    /// batch width — the serve `route_len_batch` endpoint's actual data
    /// path, byte-identical to the single-lane traversal.
    WideBatch(usize),
}

impl Engine {
    fn label(self) -> String {
        match self {
            Engine::Reference => REFERENCE.into(),
            Engine::Indexed => "indexed".into(),
            Engine::WideBatch(n) => format!("wide-batch{n}"),
        }
    }

    fn batch(self) -> usize {
        match self {
            Engine::Reference | Engine::Indexed => 1,
            Engine::WideBatch(n) => n,
        }
    }
}

fn engines() -> Vec<Engine> {
    vec![
        Engine::Reference,
        Engine::Indexed,
        Engine::WideBatch(16),
        Engine::WideBatch(64),
        Engine::WideBatch(256),
    ]
}

/// Experiment shape: (sides, queries per pass). CI/quick keeps machines
/// small; the full run reaches the 256² flagship cell of the acceptance
/// bar.
fn shape(settings: &Settings) -> (Vec<u32>, usize) {
    if settings.side < 100 {
        (vec![24, 48], 512)
    } else {
        (vec![64, 128, 256], 2048)
    }
}

fn median_of(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// One timed pass over every query pair.
fn pass_ns(router: &FaultTolerantRouter, pairs: &[(Coord, Coord)], engine: Engine) -> f64 {
    let start = Instant::now();
    match engine {
        Engine::Reference => {
            for &(s, d) in pairs {
                let _ = black_box(router.route_len_reference(s, d));
            }
        }
        Engine::Indexed => {
            for &(s, d) in pairs {
                let _ = black_box(router.route_len(s, d));
            }
        }
        Engine::WideBatch(n) => {
            // The wide engine with one persistent scratch and results
            // vector — exactly how a long-lived serve worker's handle
            // answers successive `route_len_batch` requests.
            let mut scratch = RouteScratch::new();
            let mut out = Vec::new();
            for chunk in pairs.chunks(n) {
                router.route_len_batch_with(chunk, &mut scratch, &mut out);
                black_box(&out);
            }
        }
    }
    start.elapsed().as_nanos() as f64
}

/// Runs the query-path sweep: mesh size x clustered density x engine.
pub fn run(settings: &Settings) -> RouteperfReport {
    let (sides, queries) = shape(settings);
    let densities = [0.02f64, 0.05, 0.10];
    let trials = settings.trials.clamp(3, 7) as usize;
    let engines = engines();
    let mut rows = Vec::new();
    let mut build = Vec::new();

    for &side in &sides {
        let topology = Topology::mesh(side, side);
        for &density in &densities {
            let f = ((topology.len() as f64) * density).round().max(1.0) as usize;
            let seed = settings.seed ^ 0xE17 ^ ((side as u64) << 24) ^ (f as u64);
            let mut rng = SmallRng::seed_from_u64(seed);
            // ~24-cell clusters: large enough to merge into real detour
            // regions, the regime the ring indexes are for.
            let faults = clustered_faults(topology, f, (f / 24).max(1), &mut rng);
            let map = FaultMap::new(topology, faults);
            let out = run_pipeline(&map, &PipelineConfig::default());
            let enabled = EnabledMap::from_outcome(&out);
            let regions: Vec<_> = out.regions.iter().map(|r| r.cells.clone()).collect();

            // Construction cost (index build included), then one router
            // shared by every engine.
            let mut build_samples: Vec<f64> = (0..trials)
                .map(|_| {
                    let start = Instant::now();
                    black_box(FaultTolerantRouter::new(enabled.clone(), &regions));
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            let router = FaultTolerantRouter::new(enabled.clone(), &regions);
            build.push(BuildRow {
                side,
                density,
                faults: f,
                regions: regions.len(),
                build_ms: median_of(&mut build_samples),
            });

            // Same enabled-pair workload for every engine.
            let nodes = enabled.enabled_coords();
            let pairs: Vec<(Coord, Coord)> = (0..queries)
                .map(|_| {
                    let p: Vec<_> = nodes.choose_multiple(&mut rng, 2).collect();
                    (*p[0], *p[1])
                })
                .collect();

            let mut reference_qps = 0.0f64;
            for &engine in &engines {
                pass_ns(&router, &pairs, engine); // warm-up, untimed
                let mut samples: Vec<f64> = (0..trials)
                    .map(|_| pass_ns(&router, &pairs, engine))
                    .collect();
                let total_ns = median_of(&mut samples);
                let ns_per_query = total_ns / pairs.len() as f64;
                let qps = 1e9 / ns_per_query;
                if matches!(engine, Engine::Reference) {
                    reference_qps = qps;
                }
                rows.push(RouteperfRow {
                    side,
                    density,
                    faults: f,
                    engine: engine.label(),
                    batch: engine.batch(),
                    queries: pairs.len() as u64,
                    ns_per_query,
                    qps,
                    speedup: qps / reference_qps,
                });
            }
        }
    }
    RouteperfReport { rows, build }
}

/// Renders the throughput sweep as a table.
pub fn table(report: &RouteperfReport) -> Table {
    let mut t = Table::new([
        "side", "density", "faults", "engine", "batch", "ns/query", "Mq/s", "speedup",
    ]);
    for r in &report.rows {
        t.push_row([
            format!("{}", r.side),
            format!("{:.2}", r.density),
            format!("{}", r.faults),
            r.engine.clone(),
            format!("{}", r.batch),
            format!("{:.0}", r.ns_per_query),
            format!("{:.3}", r.qps / 1e6),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t
}

/// Renders the construction-cost table.
pub fn build_table(report: &RouteperfReport) -> Table {
    let mut t = Table::new(["side", "density", "faults", "regions", "build ms"]);
    for b in &report.build {
        t.push_row([
            format!("{}", b.side),
            format!("{:.2}", b.density),
            format!("{}", b.faults),
            format!("{}", b.regions),
            format!("{:.2}", b.build_ms),
        ]);
    }
    t
}

/// The flagship speedup: the wide engine at batch=64 vs reference at the
/// largest (side, density) cell measured. The full run's acceptance bar
/// checks this against 7x at 256² / 10%; the smoke run checks a relaxed
/// bar on the quick shape.
pub fn flagship_speedup(report: &RouteperfReport) -> Option<&RouteperfRow> {
    report
        .rows
        .iter()
        .filter(|r| r.engine == "wide-batch64")
        .max_by(|a, b| {
            (a.side, a.density)
                .partial_cmp(&(b.side, b.density))
                .expect("finite densities")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_indexed_wins() {
        let report = run(&Settings::quick());
        // 2 sides x 3 densities x 5 engines.
        assert_eq!(report.rows.len(), 30);
        assert_eq!(report.build.len(), 6);
        for r in &report.rows {
            assert!(r.ns_per_query > 0.0);
            assert!(r.speedup > 0.0);
            if r.engine == REFERENCE {
                assert!((r.speedup - 1.0).abs() < 1e-9);
            }
        }
        // Indexed must beat the reference at every cell, even tiny ones.
        for r in report.rows.iter().filter(|r| r.engine != REFERENCE) {
            assert!(
                r.speedup > 1.0,
                "{} at {}x{} d={} only reached {:.2}x",
                r.engine,
                r.side,
                r.side,
                r.density,
                r.speedup
            );
        }
        let flagship = flagship_speedup(&report).expect("batch64 rows exist");
        assert_eq!(flagship.side, 48);
        assert!((flagship.density - 0.10).abs() < 1e-9);
    }
}
