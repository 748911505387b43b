//! Incremental maintenance of the labeling when new faults appear.
//!
//! The paper observes that faulty blocks "can be easily established and
//! maintained through message exchanges among neighboring nodes". This
//! module makes that concrete: when a node fails *after* the labels have
//! converged, phase 1 can resume from the previous fixpoint — the
//! safe/unsafe rule is monotone in the fault set, so every previously
//! unsafe node stays unsafe and only the neighborhood of the new fault
//! needs extra rounds. Phase 2 is *not* monotone in the fault set (a new
//! fault can force previously enabled nodes back to disabled), so it is
//! recomputed from the fresh safety grid, which is cheap.

use crate::labeling::enablement::try_compute_enablement_with;
use crate::labeling::safety::{SafetyOutcome, SafetyRule, SafetyState};
use crate::labeling::{default_round_cap, LabelEngine};
use crate::pipeline::{try_run_pipeline, PipelineConfig, PipelineOutcome};
use crate::status::FaultMap;
use ocp_distsim::{try_run, ConvergenceError, LockstepProtocol, NeighborStates, RunTrace};
use ocp_mesh::{Coord, Grid, Topology};

/// Phase-1 protocol warm-started from a previous fixpoint.
struct WarmSafetyProtocol<'a> {
    map: &'a FaultMap,
    rule: SafetyRule,
    previous: &'a Grid<SafetyState>,
}

impl LockstepProtocol for WarmSafetyProtocol<'_> {
    type State = SafetyState;

    fn topology(&self) -> Topology {
        self.map.topology()
    }

    fn initial(&self, c: Coord) -> SafetyState {
        if self.map.is_faulty(c) {
            SafetyState::Unsafe
        } else {
            *self.previous.get(c)
        }
    }

    fn ghost(&self) -> SafetyState {
        SafetyState::Safe
    }

    fn participates(&self, c: Coord) -> bool {
        !self.map.is_faulty(c)
    }

    fn step(
        &self,
        c: Coord,
        current: SafetyState,
        neighbors: &NeighborStates<SafetyState>,
    ) -> SafetyState {
        crate::labeling::safety::SafetyProtocol::new(self.map, self.rule)
            .step(c, current, neighbors)
    }

    fn initial_frontier(&self) -> Option<Vec<Coord>> {
        // The warm initial state differs from the previous fixpoint only at
        // faults that were previously safe (forced unsafe), so in round 1
        // only the participating neighbors of those cells can flip.
        let t = self.topology();
        Some(
            self.map
                .faults()
                .into_iter()
                .filter(|&f| *self.previous.get(f) == SafetyState::Safe)
                .flat_map(|f| {
                    ocp_mesh::Neighborhood::of(t, f)
                        .nodes()
                        .collect::<Vec<Coord>>()
                })
                .collect(),
        )
    }
}

/// Result of an incremental re-labeling.
#[derive(Clone, Debug)]
pub struct MaintenanceOutcome {
    /// The refreshed full outcome (blocks, regions, grids).
    pub outcome: PipelineOutcome,
    /// Rounds the warm-started phase 1 needed (compare against the
    /// from-scratch `outcome.safety_trace` of a cold run).
    pub incremental_safety_trace: RunTrace,
}

/// Re-labels after `new_fault` appears, warm-starting phase 1 from
/// `previous`'s converged safety grid.
///
/// # Panics
/// Panics if `previous` was computed under a different rule than
/// `config.rule` or on a different machine than `map`, or (with the
/// convergence diagnostics) if the warm run stalls at the round cap.
pub fn relabel_after_fault(
    map: &FaultMap,
    new_fault: Coord,
    previous: &PipelineOutcome,
    config: &PipelineConfig,
) -> (FaultMap, MaintenanceOutcome) {
    relabel_after_faults(map, &[new_fault], previous, config)
}

/// Re-labels after a whole batch of simultaneous new faults, warm-starting
/// phase 1 from `previous`'s converged safety grid. The batch is the unit
/// [`run_fault_schedule`] replays for same-time crash events; phase 1 is
/// monotone in the fault set, so one warm run absorbs the entire batch.
///
/// # Panics
/// Same conditions as [`relabel_after_fault`].
pub fn relabel_after_faults(
    map: &FaultMap,
    new_faults: &[Coord],
    previous: &PipelineOutcome,
    config: &PipelineConfig,
) -> (FaultMap, MaintenanceOutcome) {
    try_relabel_after_faults(map, new_faults, previous, config).unwrap_or_else(|e| panic!("{e}"))
}

/// [`relabel_after_faults`] with the convergence watchdog: a warm run that
/// stalls at the round cap is an explicit [`ConvergenceError`].
pub fn try_relabel_after_faults(
    map: &FaultMap,
    new_faults: &[Coord],
    previous: &PipelineOutcome,
    config: &PipelineConfig,
) -> Result<(FaultMap, MaintenanceOutcome), ConvergenceError> {
    assert_eq!(previous.rule, config.rule, "rule changed between runs");
    assert_eq!(
        map.topology(),
        previous.safety.topology(),
        "machine changed between runs"
    );
    let mut updated = map.clone();
    for &f in new_faults {
        updated = updated.with_additional_fault(f);
    }
    let cap = config
        .max_rounds
        .unwrap_or_else(|| default_round_cap(map.topology()));

    let warm_timer = crate::telemetry::PhaseTimer::start();
    let safety_run: SafetyOutcome = match config.engine {
        LabelEngine::Lockstep(executor) => {
            let warm = WarmSafetyProtocol {
                map: &updated,
                rule: config.rule,
                previous: &previous.safety,
            };
            let out = try_run(&warm, executor, cap)
                .map_err(|e| e.with_label("warm-started phase-1 safety relabeling"))?;
            SafetyOutcome {
                grid: out.states,
                trace: out.trace,
            }
        }
        LabelEngine::Bitboard => crate::labeling::bits::try_compute_safety_bits(
            &updated,
            config.rule,
            Some(&previous.safety),
            cap,
        )
        .map_err(|e| e.with_label("warm-started phase-1 safety relabeling"))?,
    };
    // The warm arms call their engines directly (not through
    // `compute_safety_with`), so this is the exactly-once recording point
    // for warm-started phase-1 runs.
    crate::telemetry::record_phase("safety-warm", config.engine, &safety_run.trace, warm_timer);
    let blocks = crate::blocks::extract_blocks(&updated, &safety_run.grid);
    let enablement = try_compute_enablement_with(&updated, &safety_run.grid, config.engine, cap)?;
    let regions = crate::regions::extract_regions(&updated, &enablement.grid);

    let outcome = PipelineOutcome {
        rule: config.rule,
        safety: safety_run.grid,
        activation: enablement.grid,
        blocks,
        regions,
        safety_trace: safety_run.trace.clone(),
        enablement_trace: enablement.trace,
    };
    Ok((
        updated,
        MaintenanceOutcome {
            outcome,
            incremental_safety_trace: safety_run.trace,
        },
    ))
}

/// Relabels after the node at `repaired` comes back to life.
///
/// Repair is not monotone for phase 1 (unsafe labels may need to *retract*),
/// so the safe thing — and what this function does — is a cold rerun of the
/// whole pipeline on the updated map. It exists for API symmetry with
/// [`relabel_after_fault`] and to centralize the reasoning: do not warm-start
/// safety labels across repairs.
pub fn relabel_after_repair(
    map: &FaultMap,
    repaired: Coord,
    config: &PipelineConfig,
) -> (FaultMap, PipelineOutcome) {
    let updated = map.with_repaired_node(repaired);
    let outcome = crate::pipeline::run_pipeline(&updated, config);
    (updated, outcome)
}

/// One replayed batch of a fault schedule.
#[derive(Clone, Debug)]
pub struct ScheduleStep {
    /// Virtual time of the batch.
    pub time: u64,
    /// Nodes that crashed in this batch.
    pub new_faults: Vec<Coord>,
    /// Warm-started phase-1 trace for this batch.
    pub safety_trace: RunTrace,
}

/// Result of replaying a whole fault schedule through the warm-start path.
#[derive(Clone, Debug)]
pub struct FaultScheduleOutcome {
    /// The fault map after every scheduled crash has landed.
    pub final_map: FaultMap,
    /// The re-stabilized labeling on the final fault set (verified
    /// byte-identical to a cold pipeline run on `final_map`).
    pub outcome: PipelineOutcome,
    /// One entry per crash-time batch, in replay order.
    pub steps: Vec<ScheduleStep>,
    /// Productive warm phase-1 rounds summed over all batches — the total
    /// incremental re-convergence cost of the schedule.
    pub total_incremental_rounds: u32,
}

/// Replays a time-ordered list of `(virtual_time, node)` crash events
/// (e.g. `ocp_workloads::FaultSchedule::events`) through the incremental
/// maintenance path: a cold pipeline run on `map`, then one warm-started
/// re-labeling per batch of same-time crashes.
///
/// This is the self-stabilization claim made executable: **the verifier at
/// the end asserts the re-stabilized labels are byte-identical to a cold
/// oracle pipeline on the final fault set**, so no matter when faults
/// landed mid-protocol, the machine converges to the state it would have
/// computed had it known the final fault set from the start. (Phase 1 is
/// monotone in the fault set, which is what makes the warm path sound;
/// phase 2 is recomputed per batch.)
///
/// # Panics
/// Panics if a scheduled node is already faulty in `map` or scheduled
/// twice, or — the verifier — if the final labels diverge from the cold
/// oracle (which would be a bug in the maintenance path, not the
/// schedule).
pub fn run_fault_schedule(
    map: &FaultMap,
    events: &[(u64, Coord)],
    config: &PipelineConfig,
) -> Result<FaultScheduleOutcome, ConvergenceError> {
    let mut current_map = map.clone();
    let mut current = try_run_pipeline(&current_map, config)?;
    let mut steps = Vec::new();

    let mut i = 0usize;
    while i < events.len() {
        let time = events[i].0;
        assert!(
            steps.last().is_none_or(|s: &ScheduleStep| s.time <= time),
            "fault schedule must be sorted by time"
        );
        let mut batch = Vec::new();
        while i < events.len() && events[i].0 == time {
            let node = events[i].1;
            assert!(
                !current_map.is_faulty(node),
                "schedule crashes {node:?} twice (or it was already faulty)"
            );
            batch.push(node);
            i += 1;
        }
        let (next_map, step) = try_relabel_after_faults(&current_map, &batch, &current, config)?;
        steps.push(ScheduleStep {
            time,
            new_faults: batch,
            safety_trace: step.incremental_safety_trace.clone(),
        });
        current_map = next_map;
        current = step.outcome;
    }

    // The verifier: re-stabilization must land exactly on the cold oracle.
    let oracle = try_run_pipeline(&current_map, config)?;
    assert_eq!(
        current.safety, oracle.safety,
        "re-stabilized safety labels diverge from the cold oracle"
    );
    assert_eq!(
        current.activation, oracle.activation,
        "re-stabilized activation labels diverge from the cold oracle"
    );
    crate::verify::verify(&current_map, &current)
        .expect("re-stabilized outcome violates the paper's invariants");

    let total_incremental_rounds = steps.iter().map(|s| s.safety_trace.rounds()).sum();
    Ok(FaultScheduleOutcome {
        final_map: current_map,
        outcome: current,
        steps,
        total_incremental_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;
    use crate::verify::verify;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let t = Topology::mesh(14, 14);
        let map = FaultMap::new(t, [c(3, 3), c(4, 4), c(10, 2)]);
        let cfg = PipelineConfig::default();
        let cold = run_pipeline(&map, &cfg);

        let new_fault = c(4, 2);
        let (updated, warm) = relabel_after_fault(&map, new_fault, &cold, &cfg);

        let scratch_map = map.with_additional_fault(new_fault);
        let scratch = run_pipeline(&scratch_map, &cfg);

        assert_eq!(warm.outcome.safety, scratch.safety);
        assert_eq!(warm.outcome.activation, scratch.activation);
        assert_eq!(warm.outcome.blocks.len(), scratch.blocks.len());
        verify(&updated, &warm.outcome).expect("warm outcome verifies");
    }

    #[test]
    fn warm_start_is_no_slower_than_cold() {
        let t = Topology::mesh(20, 20);
        // A sizable diagonal cluster so the cold run needs several rounds.
        let faults: Vec<Coord> = (0..5).map(|i| c(5 + i, 5 + i)).collect();
        let cfg = PipelineConfig::default();
        let map = FaultMap::new(t, faults);
        let cold = run_pipeline(&map, &cfg);
        assert!(cold.safety_trace.rounds() >= 2);

        // A far-away isolated fault should cost ~0 incremental rounds.
        let (_updated, warm) = relabel_after_fault(&map, c(17, 2), &cold, &cfg);
        assert!(
            warm.incremental_safety_trace.rounds() < cold.safety_trace.rounds(),
            "incremental {} >= cold {}",
            warm.incremental_safety_trace.rounds(),
            cold.safety_trace.rounds()
        );
    }

    #[test]
    fn repair_shrinks_blocks_and_verifies() {
        // A 2x2 diagonal block; repairing one fault leaves a lone fault.
        let map = FaultMap::new(Topology::mesh(10, 10), [c(4, 4), c(5, 5)]);
        let cfg = PipelineConfig::default();
        let before = run_pipeline(&map, &cfg);
        assert_eq!(before.blocks[0].len(), 4);

        let (updated, after) = relabel_after_repair(&map, c(5, 5), &cfg);
        assert_eq!(updated.fault_count(), 1);
        assert_eq!(after.blocks.len(), 1);
        assert_eq!(after.blocks[0].len(), 1);
        verify(&updated, &after).expect("invariants after repair");
    }

    #[test]
    fn fault_schedule_replays_to_the_cold_oracle() {
        let t = Topology::mesh(16, 16);
        let map = FaultMap::new(t, [c(2, 2), c(3, 3)]);
        // Three batches: a simultaneous pair, then two singletons.
        let events = vec![(3, c(10, 10)), (3, c(11, 11)), (9, c(4, 2)), (15, c(12, 3))];
        let cfg = PipelineConfig::default();
        let out = run_fault_schedule(&map, &events, &cfg).expect("schedule converges");
        assert_eq!(out.final_map.fault_count(), 6);
        assert_eq!(out.steps.len(), 3);
        assert_eq!(out.steps[0].new_faults, vec![c(10, 10), c(11, 11)]);
        // Oracle equality is asserted inside; spot-check independently too.
        let oracle = run_pipeline(&out.final_map, &cfg);
        assert_eq!(out.outcome.safety, oracle.safety);
        assert_eq!(out.outcome.activation, oracle.activation);
        assert_eq!(out.outcome.blocks.len(), oracle.blocks.len());
    }

    #[test]
    fn random_fault_schedules_self_stabilize() {
        use ocp_workloads::FaultSchedule;
        use rand::{rngs::SmallRng, SeedableRng};
        let t = Topology::mesh(20, 20);
        for seed in 0..5u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let schedule = FaultSchedule::random(t, 12, 30, &mut rng);
            let out = run_fault_schedule(
                &FaultMap::healthy(t),
                schedule.events(),
                &PipelineConfig::default(),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut got = out.final_map.faults();
            got.sort();
            assert_eq!(got, schedule.final_faults());
        }
    }

    #[test]
    fn empty_schedule_is_a_cold_run() {
        let map = FaultMap::new(Topology::mesh(8, 8), [c(2, 2)]);
        let cfg = PipelineConfig::default();
        let out = run_fault_schedule(&map, &[], &cfg).expect("converges");
        assert!(out.steps.is_empty());
        assert_eq!(out.total_incremental_rounds, 0);
        let cold = run_pipeline(&map, &cfg);
        assert_eq!(out.outcome.safety, cold.safety);
    }

    #[test]
    fn adding_fault_inside_existing_block_is_free() {
        let map = FaultMap::new(Topology::mesh(10, 10), [c(2, 2), c(3, 3)]);
        let cfg = PipelineConfig::default();
        let cold = run_pipeline(&map, &cfg);
        // (2,3) is already unsafe; making it faulty changes no safety label.
        let (_u, warm) = relabel_after_fault(&map, c(2, 3), &cold, &cfg);
        assert_eq!(warm.incremental_safety_trace.rounds(), 0);
    }
}
