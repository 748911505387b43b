//! E15: labeling-engine scaling — wall-clock cost of the two labeling
//! phases across mesh sizes, fault densities and engines, plus the warm
//! relabel latency the mesh-state service writer pays per published epoch.
//!
//! All engines produce byte-identical grids and traces (pinned by the
//! equivalence suite), so this experiment measures pure execution cost:
//! the generic lockstep executors against the frontier worklist and the
//! bit-packed kernels of `ocp_core::labeling::bits`.

use super::Settings;
use ocp_analysis::Table;
use ocp_core::labeling::enablement::compute_enablement_with;
use ocp_core::labeling::safety::compute_safety_with;
use ocp_core::labeling::{default_round_cap, LabelEngine};
use ocp_core::maintenance::try_relabel_after_faults;
use ocp_core::prelude::*;
use ocp_distsim::Executor;
use ocp_mesh::Topology;
use ocp_workloads::uniform_faults;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// One measured (mesh size, fault density, engine) cell.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingRow {
    /// Mesh side length (the machine is `side x side`).
    pub side: u32,
    /// Fraction of nodes faulty.
    pub density: f64,
    /// Engine label.
    pub engine: String,
    /// Median wall time of both labeling phases, milliseconds.
    pub median_ms: f64,
    /// Speedup vs the sequential lockstep baseline at the same cell.
    pub speedup: f64,
}

/// One measured warm-relabel (service writer path) cell.
#[derive(Clone, Debug, Serialize)]
pub struct RelabelRow {
    /// Mesh side length.
    pub side: u32,
    /// Fraction of nodes faulty before the new fault lands.
    pub density: f64,
    /// Engine label.
    pub engine: String,
    /// Median wall time of one warm-started relabel batch, milliseconds.
    pub median_ms: f64,
    /// Speedup vs the sequential lockstep baseline at the same cell.
    pub speedup: f64,
}

/// Everything E15 produces (`results/scaling.json`).
#[derive(Clone, Debug, Serialize)]
pub struct ScalingReport {
    /// Cold two-phase labeling cost per (side, density, engine).
    pub labeling: Vec<ScalingRow>,
    /// Warm relabel-after-one-fault cost per (side, density, engine) —
    /// the latency the `ocp-serve` writer pays per published epoch.
    pub relabel: Vec<RelabelRow>,
}

/// The engines, baseline first; rows are named by [`LabelEngine::label`].
const ENGINES: [LabelEngine; 3] = [
    LabelEngine::Lockstep(Executor::Sequential),
    LabelEngine::Lockstep(Executor::Frontier),
    LabelEngine::Bitboard,
];

fn sides(settings: &Settings) -> Vec<u32> {
    if settings.side < 100 {
        vec![48, 96] // quick / CI shape
    } else {
        vec![128, 256, 512]
    }
}

fn median_of(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Runs the scaling sweep: mesh size x fault density x engine.
pub fn run(settings: &Settings) -> ScalingReport {
    let densities = [0.001f64, 0.01];
    let trials = settings.trials.clamp(3, 5) as usize;
    let mut labeling = Vec::new();
    let mut relabel = Vec::new();

    for &side in &sides(settings) {
        let topology = Topology::mesh(side, side);
        let cap = default_round_cap(topology);
        for &density in &densities {
            let f = ((topology.len() as f64) * density).round().max(1.0) as usize;

            // Same fault maps for every engine, one per trial.
            let mut maps = Vec::with_capacity(trials);
            let mut new_faults = Vec::with_capacity(trials);
            for trial in 0..trials {
                let seed = settings.seed ^ 0xE15 ^ ((side as u64) << 32) ^ trial as u64;
                let mut rng = SmallRng::seed_from_u64(seed);
                let map = FaultMap::new(topology, uniform_faults(topology, f, &mut rng));
                let healthy: Vec<_> = topology.coords().filter(|&c| !map.is_faulty(c)).collect();
                new_faults.push(*healthy.choose(&mut rng).expect("healthy node"));
                maps.push(map);
            }
            // One converged outcome per trial to warm-start relabels from
            // (engine-independent, so computed once with the fast engine).
            let previous: Vec<PipelineOutcome> = maps
                .iter()
                .map(|map| {
                    run_pipeline(
                        map,
                        &PipelineConfig {
                            engine: LabelEngine::Bitboard,
                            ..PipelineConfig::default()
                        },
                    )
                })
                .collect();

            let mut baseline_label_ms = f64::NAN;
            let mut baseline_relabel_ms = f64::NAN;
            for engine in ENGINES {
                let mut label_samples = Vec::with_capacity(trials);
                let mut relabel_samples = Vec::with_capacity(trials);
                for trial in 0..trials {
                    let map = &maps[trial];
                    let start = Instant::now();
                    let safety = compute_safety_with(map, SafetyRule::BothDimensions, engine, cap);
                    let enable = compute_enablement_with(map, &safety.grid, engine, cap);
                    label_samples.push(start.elapsed().as_secs_f64() * 1e3);
                    assert!(safety.trace.converged && enable.trace.converged);

                    let cfg = PipelineConfig {
                        engine,
                        ..PipelineConfig::default()
                    };
                    let start = Instant::now();
                    let warm =
                        try_relabel_after_faults(map, &[new_faults[trial]], &previous[trial], &cfg)
                            .expect("warm relabel converges");
                    relabel_samples.push(start.elapsed().as_secs_f64() * 1e3);
                    drop(warm);
                }
                let label_ms = median_of(&mut label_samples);
                let relabel_ms = median_of(&mut relabel_samples);
                if engine == ENGINES[0] {
                    baseline_label_ms = label_ms;
                    baseline_relabel_ms = relabel_ms;
                }
                labeling.push(ScalingRow {
                    side,
                    density,
                    engine: engine.label().to_string(),
                    median_ms: label_ms,
                    speedup: baseline_label_ms / label_ms,
                });
                relabel.push(RelabelRow {
                    side,
                    density,
                    engine: engine.label().to_string(),
                    median_ms: relabel_ms,
                    speedup: baseline_relabel_ms / relabel_ms,
                });
            }
        }
    }
    ScalingReport { labeling, relabel }
}

/// Renders the cold-labeling speedup table.
pub fn labeling_table(report: &ScalingReport) -> Table {
    let mut t = Table::new(["side", "density", "engine", "median ms", "speedup"]);
    for row in &report.labeling {
        t.push_row([
            format!("{}", row.side),
            format!("{:.3}", row.density),
            row.engine.clone(),
            format!("{:.3}", row.median_ms),
            format!("{:.1}x", row.speedup),
        ]);
    }
    t
}

/// Renders the warm-relabel (serve writer path) latency table.
pub fn relabel_table(report: &ScalingReport) -> Table {
    let mut t = Table::new(["side", "density", "engine", "median ms", "speedup"]);
    for row in &report.relabel {
        t.push_row([
            format!("{}", row.side),
            format!("{:.3}", row.density),
            row.engine.clone(),
            format!("{:.3}", row.median_ms),
            format!("{:.1}x", row.speedup),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_complete_grid_of_rows() {
        let settings = Settings {
            trials: 3,
            ..Settings::quick()
        };
        let report = run(&settings);
        let expected = sides(&settings).len() * 2 * ENGINES.len();
        assert_eq!(report.labeling.len(), expected);
        assert_eq!(report.relabel.len(), expected);
        for row in &report.labeling {
            assert!(row.median_ms > 0.0, "{row:?} non-positive timing");
            assert!(row.speedup.is_finite(), "{row:?} bad speedup");
        }
        for row in &report.relabel {
            assert!(row.median_ms > 0.0, "{row:?} non-positive timing");
            assert!(row.speedup.is_finite(), "{row:?} bad speedup");
        }
    }
}
