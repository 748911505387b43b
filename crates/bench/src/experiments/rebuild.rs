//! E22: incremental epoch builds — `FaultTolerantRouter::rebuild_from`
//! against the cold constructor it is digest-pinned to, across fault-batch
//! sizes, mesh sides, and clustered densities, plus the banded parallel
//! cold build against its single-thread baseline. Every fault cell has a
//! repair twin: the epoch after it, which repairs the whole blob again
//! (the serve writer patches repair deltas the same way as fault ones).
//!
//! Every measured cell re-verifies `table_digest` equality between the
//! warm and cold routers before its timings are reported, so the speedups
//! in `results/rebuild.json` are speedups of *identical* outputs. The E17
//! build-cost table is the cold baseline this experiment's incremental
//! column is measured against.

use super::Settings;
use ocp_analysis::Table;
use ocp_core::prelude::*;
use ocp_geometry::Region;
use ocp_mesh::{Coord, Topology};
use ocp_routing::{EnabledMap, FaultTolerantRouter};
use ocp_workloads::clustered_faults;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// One measured (side, density, fault-batch size) cell.
#[derive(Clone, Debug, Serialize)]
pub struct RebuildRow {
    /// Mesh side length (the machine is `side x side`).
    pub side: u32,
    /// Fraction of nodes faulty before the delta (clustered placement).
    pub density: f64,
    /// Faults on the base machine.
    pub faults: usize,
    /// `"faults"` (the batch breaks a blob of enabled nodes) or
    /// `"repairs"` (the next epoch repairs that blob again).
    pub delta: String,
    /// Cells in the applied delta batch.
    pub batch: usize,
    /// Median single-thread cold `FaultTolerantRouter::new`, milliseconds.
    pub cold_ms: f64,
    /// Median banded cold build at `threads` workers, milliseconds.
    pub cold_par_ms: f64,
    /// Median incremental `rebuild_from`, milliseconds.
    pub incremental_ms: f64,
    /// `cold_ms / incremental_ms` — the epoch-build speedup the serve
    /// writer's warm path gains.
    pub speedup_incremental: f64,
    /// `cold_ms / cold_par_ms` — the banded cold-build speedup.
    pub speedup_parallel: f64,
    /// Fraction of rings/rows/columns the incremental build reused.
    pub reuse_ratio: f64,
    /// Warm router digest equals the cold router digest (re-verified in
    /// every cell; a `false` here fails the run).
    pub digest_match: bool,
}

/// Everything E22 produces (`results/rebuild.json`).
#[derive(Clone, Debug, Serialize)]
pub struct RebuildReport {
    /// Worker threads the parallel cold build ran with.
    pub threads: usize,
    /// Measured cells.
    pub rows: Vec<RebuildRow>,
}

/// Experiment shape: (sides, batch sizes). CI/quick keeps machines small;
/// the full run reaches the 256² flagship cell of the acceptance bar.
fn shape(settings: &Settings) -> (Vec<u32>, Vec<usize>) {
    if settings.side < 100 {
        (vec![24, 48], vec![1, 16])
    } else {
        (vec![64, 128, 256], vec![1, 16, 64])
    }
}

fn median_of(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// One correlated fault batch: a compact blob of up to `n` enabled cells
/// grown breadth-first from a random enabled anchor (crossing currently
/// disabled cells, so the blob stays compact next to existing regions).
fn correlated_batch(enabled: &EnabledMap, n: usize, rng: &mut SmallRng) -> Vec<Coord> {
    let t = enabled.topology();
    let nodes = enabled.enabled_coords();
    let Some(&anchor) = nodes.choose(rng) else {
        return Vec::new();
    };
    let mut seen = std::collections::BTreeSet::from([anchor]);
    let mut queue = VecDeque::from([anchor]);
    let mut blob = Vec::new();
    while let Some(c) = queue.pop_front() {
        if enabled.is_enabled(c) {
            blob.push(c);
            if blob.len() == n {
                break;
            }
        }
        for d in ocp_mesh::DIRECTIONS {
            let (dx, dy) = d.offset();
            let next = Coord::new(c.x + dx, c.y + dy);
            let next = match t.kind() {
                ocp_mesh::TopologyKind::Torus => t.wrap(next),
                ocp_mesh::TopologyKind::Mesh => next,
            };
            if t.contains(next) && seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    blob
}

/// Timings of one epoch build: the median cold, banded cold and
/// incremental build, the reuse ratio, and the digest check.
struct Cell {
    cold_ms: f64,
    cold_par_ms: f64,
    incremental_ms: f64,
    reuse_ratio: f64,
    digest_match: bool,
}

/// Builds the epoch of `(enabled, regions)` incrementally from `prev` and
/// cold, checks the two digest-identical, and times all three builds.
/// Returns the incremental router (the next cell's previous epoch).
fn measure(
    prev: &FaultTolerantRouter,
    enabled: &EnabledMap,
    regions: &[Region],
    trials: usize,
    threads: usize,
) -> (FaultTolerantRouter, Cell) {
    let (warm, stats) = FaultTolerantRouter::rebuild_from(prev, enabled.clone(), regions);
    let cold = FaultTolerantRouter::new(enabled.clone(), regions);
    let digest_match = warm.table_digest() == cold.table_digest();
    let time = |build: &dyn Fn()| {
        let mut samples: Vec<f64> = (0..trials)
            .map(|_| {
                let start = Instant::now();
                build();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median_of(&mut samples)
    };
    let cell = Cell {
        cold_ms: time(&|| {
            black_box(FaultTolerantRouter::new(enabled.clone(), regions));
        }),
        cold_par_ms: time(&|| {
            black_box(FaultTolerantRouter::new_with_threads(
                enabled.clone(),
                regions,
                threads,
            ));
        }),
        incremental_ms: time(&|| {
            black_box(FaultTolerantRouter::rebuild_from(
                prev,
                enabled.clone(),
                regions,
            ));
        }),
        reuse_ratio: stats.reuse_ratio(),
        digest_match,
    };
    (warm, cell)
}

/// Runs the rebuild sweep: side x density x delta-batch size.
pub fn run(settings: &Settings) -> RebuildReport {
    let (sides, batches) = shape(settings);
    let densities = [0.05f64, 0.10];
    let trials = settings.trials.clamp(3, 7) as usize;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();

    for &side in &sides {
        let topology = Topology::mesh(side, side);
        for &density in &densities {
            let f = ((topology.len() as f64) * density).round().max(1.0) as usize;
            let seed = settings.seed ^ 0xE22 ^ ((side as u64) << 24) ^ (f as u64);
            let mut rng = SmallRng::seed_from_u64(seed);
            let faults = clustered_faults(topology, f, (f / 24).max(1), &mut rng);
            let base_map = FaultMap::new(topology, faults);
            let base_out = run_pipeline(&base_map, &PipelineConfig::default());
            let base_enabled = EnabledMap::from_outcome(&base_out);
            let base_regions: Vec<_> = base_out.regions.iter().map(|r| r.cells.clone()).collect();
            // The previous epoch every incremental rebuild patches from.
            let prev = FaultTolerantRouter::new(base_enabled.clone(), &base_regions);

            for &batch in &batches {
                // Delta: one correlated batch of `batch` fresh faults on
                // currently-enabled cells (the clustered failure model
                // every serving workload in this suite uses — a dying
                // switch or power domain takes out a compact blob, not a
                // uniform scatter), then the epoch that repairs it again.
                let new_faults = correlated_batch(&base_enabled, batch, &mut rng);
                let map = base_map.with_events(&new_faults, &[]);
                let out = run_pipeline(&map, &PipelineConfig::default());
                let enabled = EnabledMap::from_outcome(&out);
                let regions: Vec<_> = out.regions.iter().map(|r| r.cells.clone()).collect();
                let (broken, fault_cell) = measure(&prev, &enabled, &regions, trials, threads);
                let (_, repair_cell) =
                    measure(&broken, &base_enabled, &base_regions, trials, threads);
                for (delta, cell) in [("faults", fault_cell), ("repairs", repair_cell)] {
                    rows.push(RebuildRow {
                        side,
                        density,
                        faults: f,
                        delta: delta.into(),
                        batch,
                        speedup_incremental: cell.cold_ms / cell.incremental_ms,
                        speedup_parallel: cell.cold_ms / cell.cold_par_ms,
                        cold_ms: cell.cold_ms,
                        cold_par_ms: cell.cold_par_ms,
                        incremental_ms: cell.incremental_ms,
                        reuse_ratio: cell.reuse_ratio,
                        digest_match: cell.digest_match,
                    });
                }
            }
        }
    }
    RebuildReport { threads, rows }
}

/// Renders the sweep as a table.
pub fn table(report: &RebuildReport) -> Table {
    let mut t = Table::new([
        "side", "density", "delta", "batch", "cold ms", "par ms", "incr ms", "incr x", "par x",
        "reuse", "digest",
    ]);
    for r in &report.rows {
        t.push_row([
            format!("{}", r.side),
            format!("{:.2}", r.density),
            r.delta.clone(),
            format!("{}", r.batch),
            format!("{:.2}", r.cold_ms),
            format!("{:.2}", r.cold_par_ms),
            format!("{:.3}", r.incremental_ms),
            format!("{:.1}", r.speedup_incremental),
            format!("{:.2}", r.speedup_parallel),
            format!("{:.2}", r.reuse_ratio),
            format!("{}", r.digest_match),
        ]);
    }
    t
}

/// The flagship cell of the acceptance bar: the largest (side, density)
/// at the largest fault batch ≤ 64.
pub fn flagship(report: &RebuildReport) -> Option<&RebuildRow> {
    let faults = report.rows.iter().filter(|r| r.delta == "faults");
    faults.filter(|r| r.batch <= 64).max_by(|a, b| {
        (a.side, a.density, a.batch)
            .partial_cmp(&(b.side, b.density, b.batch))
            .expect("finite densities")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_digest_identical_and_reuses() {
        let report = run(&Settings::quick());
        // 2 sides x 2 densities x 2 batch sizes x (faults, repairs).
        assert_eq!(report.rows.len(), 16);
        assert_eq!(
            report.rows.iter().filter(|r| r.delta == "repairs").count(),
            8
        );
        assert!(report.threads >= 1);
        for r in &report.rows {
            assert!(r.digest_match, "warm != cold at {r:?}");
            assert!(r.cold_ms > 0.0 && r.incremental_ms > 0.0);
            assert!(
                r.reuse_ratio > 0.0,
                "small deltas must reuse something: {r:?}"
            );
        }
        assert!(flagship(&report).is_some());
    }
}
