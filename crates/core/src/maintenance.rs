//! Incremental maintenance of the labeling across epochs.
//!
//! The paper observes that faulty blocks "can be easily established and
//! maintained through message exchanges among neighboring nodes". This
//! module makes that concrete in two ways.
//!
//! * **Warm start.** When a node fails *after* the labels have converged,
//!   phase 1 can resume from the previous fixpoint: the safe/unsafe rule
//!   is monotone in the fault set, so every previously unsafe node stays
//!   unsafe and only the neighborhood of the new fault needs extra rounds
//!   ([`try_relabel_after_faults`], over the whole machine). Phase 2 is
//!   *not* monotone in the fault set (a new fault can force previously
//!   enabled nodes back to disabled), so it is recomputed from the fresh
//!   safety grid.
//! * **Block-local epochs.** Blocks never interact, so one batch of faults
//!   and repairs changes labels only inside the [`dirty windows`] it
//!   touches ([`crate::window`]). [`try_relabel_batch`] runs both phases
//!   of the configured engine on each window as a sub-mesh and splices the
//!   result into copies of the previous grids, block list and region list,
//!   in the cold extraction's order. Phase 1 starts warm from the previous
//!   labels, except in the old blocks of repaired nodes: repair is not
//!   monotone (unsafe labels may need to *retract*), so those restart
//!   cold. A window is exact once its edge ring comes out safe; if it
//!   does not, or the windows reach around a torus, the epoch goes
//!   machine-wide — warm over the whole machine for a fault-only batch,
//!   the cold pipeline once a repair is in it.
//!
//! [`dirty windows`]: crate::window::dirty_windows

use crate::blocks::FaultyBlock;
use crate::labeling::enablement::{try_compute_enablement_with, ActivationState};
use crate::labeling::safety::{SafetyOutcome, SafetyRule, SafetyState};
use crate::labeling::{default_round_cap, LabelEngine};
use crate::pipeline::{try_run_pipeline, PipelineConfig, PipelineOutcome};
use crate::regions::DisabledRegion;
use crate::status::FaultMap;
use crate::window::{DirtyWindows, Window};
use ocp_distsim::{try_run, ConvergenceError, LockstepProtocol, NeighborStates, RunTrace};
use ocp_mesh::{connected_components_grid, Coord, Grid, Topology};

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
/// stalls at the round cap is an explicit [`ConvergenceError`]. The warm
/// run covers the whole machine; [`try_relabel_batch`] is its block-local
/// counterpart and reports the same phase-1 round count.
pub fn try_relabel_after_faults(
    map: &FaultMap,
    new_faults: &[Coord],
    previous: &PipelineOutcome,
    config: &PipelineConfig,
) -> Result<(FaultMap, MaintenanceOutcome), ConvergenceError> {
    assert_same_machine(map, previous, config);
    let updated = map.with_events(new_faults, &[]);
    let outcome = relabel_warm(&updated, previous, config)?;
    Ok((
        updated,
        MaintenanceOutcome {
            incremental_safety_trace: outcome.safety_trace.clone(),
            outcome,
        },
    ))
}

/// Relabels after the node at `repaired` comes back to life, through the
/// block-local path ([`try_relabel_batch`]): the repaired node's old block
/// restarts cold inside its dirty window, everything else is carried over.
///
/// # Panics
/// Same conditions as [`relabel_after_fault`].
pub fn relabel_after_repair(
    map: &FaultMap,
    repaired: Coord,
    previous: &PipelineOutcome,
    config: &PipelineConfig,
) -> (FaultMap, PipelineOutcome) {
    let (updated, epoch) = try_relabel_batch(map, &[], &[repaired], previous, config)
        .unwrap_or_else(|e| panic!("{e}"));
    (updated, epoch.outcome)
}

/// Result of one block-local epoch relabel ([`try_relabel_batch`]).
#[derive(Clone, Debug)]
pub struct EpochRelabel {
    /// The next epoch's full outcome. Its traces sum the windows' runs
    /// round by round, so for a fault-only batch `safety_trace.rounds()`
    /// equals the whole-machine warm run's.
    pub outcome: PipelineOutcome,
    /// Where labels were recomputed; [`DirtyWindows::Machine`] when the
    /// epoch went machine-wide.
    pub windows: DirtyWindows,
}

/// Relabels after one batch of `faults` and `repairs` (repairs applied
/// first, as [`FaultMap::with_events`] does), recomputing only the dirty
/// windows the batch touches — see the module docs. The result equals a
/// cold [`try_run_pipeline`] on the updated map: grids, block and region
/// lists (order included).
///
/// # Panics
/// Same conditions as [`relabel_after_fault`].
pub fn try_relabel_batch(
    map: &FaultMap,
    faults: &[Coord],
    repairs: &[Coord],
    previous: &PipelineOutcome,
    config: &PipelineConfig,
) -> Result<(FaultMap, EpochRelabel), ConvergenceError> {
    assert_same_machine(map, previous, config);
    let updated = map.with_events(faults, repairs);
    let (windows, reset) = crate::window::plan(
        map.topology(),
        config.rule,
        &previous.blocks,
        faults,
        repairs,
    );
    if let DirtyWindows::Local(list) = &windows {
        if let Some(outcome) = relabel_windows(&updated, list, &reset, previous, config)? {
            return Ok((updated, EpochRelabel { outcome, windows }));
        }
    }
    // The terminal case: the whole machine.
    let outcome = if repairs.is_empty() {
        relabel_warm(&updated, previous, config)?
    } else {
        try_run_pipeline(&updated, config)?
    };
    Ok((
        updated,
        EpochRelabel {
            outcome,
            windows: DirtyWindows::Machine,
        },
    ))
}

fn assert_same_machine(map: &FaultMap, previous: &PipelineOutcome, config: &PipelineConfig) {
    assert_eq!(previous.rule, config.rule, "rule changed between runs");
    assert_eq!(
        map.topology(),
        previous.safety.topology(),
        "machine changed between runs"
    );
}

fn round_cap(config: &PipelineConfig, topology: Topology) -> u32 {
    config
        .max_rounds
        .unwrap_or_else(|| default_round_cap(topology))
}

/// Phase 1 on the configured engine, resumed from `warm` (a fixpoint of a
/// subset of `map`'s faults).
fn warm_safety(
    map: &FaultMap,
    warm: &Grid<SafetyState>,
    config: &PipelineConfig,
    cap: u32,
) -> Result<SafetyOutcome, ConvergenceError> {
    let out = match config.engine {
        LabelEngine::Lockstep(executor) => {
            let protocol = WarmSafetyProtocol {
                map,
                rule: config.rule,
                previous: warm,
            };
            try_run(&protocol, executor, cap).map(|out| SafetyOutcome {
                grid: out.states,
                trace: out.trace,
            })
        }
        LabelEngine::Bitboard => {
            crate::labeling::bits::try_compute_safety_bits(map, config.rule, Some(warm), cap)
        }
    };
    out.map_err(|e| e.with_label("warm-started phase-1 safety relabeling"))
}

/// The whole-machine warm relabel of `updated` from `previous`.
fn relabel_warm(
    updated: &FaultMap,
    previous: &PipelineOutcome,
    config: &PipelineConfig,
) -> Result<PipelineOutcome, ConvergenceError> {
    let cap = round_cap(config, updated.topology());
    let warm_timer = crate::telemetry::PhaseTimer::start();
    let safety_run = warm_safety(updated, &previous.safety, config, cap)?;
    // The warm arms call their engines directly (not through
    // `compute_safety_with`), so this is the exactly-once recording point
    // for warm-started phase-1 runs.
    crate::telemetry::record_phase("safety-warm", config.engine, &safety_run.trace, warm_timer);
    let blocks = crate::blocks::extract_blocks(updated, &safety_run.grid);
    let enablement = try_compute_enablement_with(updated, &safety_run.grid, config.engine, cap)?;
    let regions = crate::regions::extract_regions(updated, &enablement.grid);
    Ok(PipelineOutcome {
        rule: config.rule,
        safety: safety_run.grid,
        activation: enablement.grid,
        blocks,
        regions,
        safety_trace: safety_run.trace,
        enablement_trace: enablement.trace,
    })
}

/// Both phases on every window; `None` when a window's edge ring comes
/// out unsafe (the window was not exact).
fn relabel_windows(
    updated: &FaultMap,
    windows: &[Window],
    reset: &[usize],
    previous: &PipelineOutcome,
    config: &PipelineConfig,
) -> Result<Option<PipelineOutcome>, ConvergenceError> {
    let topology = updated.topology();
    let cap = round_cap(config, topology);
    let mut safety = previous.safety.clone();
    let mut activation = previous.activation.clone();
    let mut blocks: Vec<FaultyBlock> = Vec::new();
    let mut regions: Vec<DisabledRegion> = Vec::new();
    let mut safety_traces = Vec::with_capacity(windows.len());
    let mut enablement_traces = Vec::with_capacity(windows.len());
    let to_machine = |win: &Window, cells: Vec<Coord>| {
        let mut cells: Vec<Coord> = cells
            .into_iter()
            .map(|l| win.to_machine(topology, l))
            .collect();
        cells.sort_unstable();
        cells
    };
    let warm_timer = crate::telemetry::PhaseTimer::start();
    let mut local_runs = Vec::with_capacity(windows.len());
    for win in windows {
        let local_map = FaultMap::from_health(win.cut(updated.health_grid()));
        let mut warm = win.cut(&previous.safety);
        for block in reset.iter().map(|&i| &previous.blocks[i]) {
            // Safe faults too: the frontier executors seed round 1 from the
            // faults the warm grid calls safe.
            for l in block.cells.iter().filter_map(|c| win.to_local(topology, c)) {
                warm.set(l, SafetyState::Safe);
            }
        }
        let run = warm_safety(&local_map, &warm, config, cap)?;
        if win
            .edge(topology)
            .into_iter()
            .any(|l| *run.grid.get(l) == SafetyState::Unsafe)
        {
            return Ok(None);
        }
        safety_traces.push(run.trace.clone());
        local_runs.push((local_map, run.grid));
    }
    let safety_trace = merge_traces(&safety_traces);
    crate::telemetry::record_phase("safety-warm", config.engine, &safety_trace, warm_timer);
    for (win, (local_map, local_safety)) in windows.iter().zip(local_runs) {
        let enablement =
            try_compute_enablement_with(&local_map, &local_safety, config.engine, cap)?;
        blocks.extend(
            connected_components_grid(&local_safety, |&s| s == SafetyState::Unsafe)
                .into_iter()
                .map(|comp| FaultyBlock::of_component(updated, to_machine(win, comp.cells))),
        );
        regions.extend(
            connected_components_grid(&enablement.grid, |&a| a == ActivationState::Disabled)
                .into_iter()
                .map(|comp| DisabledRegion::of_component(updated, to_machine(win, comp.cells))),
        );
        win.paste(&local_safety, &mut safety);
        win.paste(&enablement.grid, &mut activation);
        enablement_traces.push(enablement.trace);
    }
    let dirty = DirtyWindows::Local(windows.to_vec());
    let first = |r: &ocp_geometry::Region| r.iter().next();
    let kept = |r: &ocp_geometry::Region| first(r).is_some_and(|c| !dirty.contains(topology, c));
    Ok(Some(PipelineOutcome {
        rule: config.rule,
        safety,
        activation,
        blocks: splice(
            previous.blocks.iter().filter(|b| kept(&b.cells)),
            blocks,
            |b| first(&b.cells),
        ),
        regions: splice(
            previous.regions.iter().filter(|r| kept(&r.cells)),
            regions,
            |r| first(&r.cells),
        ),
        safety_trace,
        enablement_trace: merge_traces(&enablement_traces),
    }))
}

/// Merges the carried-over components with the windows' fresh ones into
/// the cold extraction's order: ascending by smallest cell.
fn splice<'a, T: Clone + 'a>(
    kept: impl Iterator<Item = &'a T>,
    mut fresh: Vec<T>,
    key: impl Fn(&T) -> Option<Coord>,
) -> Vec<T> {
    fresh.sort_by_key(|t| key(t));
    let mut out = Vec::with_capacity(fresh.len());
    let mut fresh = fresh.into_iter().peekable();
    for old in kept {
        while let Some(new) = fresh.next_if(|new| key(new) < key(old)) {
            out.push(new);
        }
        out.push(old.clone());
    }
    out.extend(fresh);
    out
}

/// The trace of independent runs side by side: per-round changes and
/// messages add up, so the rounds needed are the slowest window's. An
/// empty set is one quiet round.
fn merge_traces(traces: &[RunTrace]) -> RunTrace {
    let rounds = traces
        .iter()
        .map(|t| t.changes_per_round.len())
        .max()
        .unwrap_or(1);
    let mut changes = vec![0u32; rounds];
    for t in traces {
        for (sum, &c) in changes.iter_mut().zip(&t.changes_per_round) {
            *sum += c;
        }
    }
    RunTrace::new(
        changes,
        traces.iter().map(|t| t.messages_sent).sum(),
        traces.iter().all(|t| t.converged),
    )
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

    /// Field-by-field equality with a cold run, list order included.
    fn assert_matches_cold(
        map: &FaultMap,
        got: &PipelineOutcome,
        cfg: &PipelineConfig,
        what: &str,
    ) {
        let cold = run_pipeline(map, cfg);
        assert_eq!(got.safety, cold.safety, "{what}: safety");
        assert_eq!(got.activation, cold.activation, "{what}: activation");
        let blocks = |o: &PipelineOutcome| {
            o.blocks
                .iter()
                .map(|b| (b.cells.clone(), b.planar.clone(), b.faults.clone()))
                .collect::<Vec<_>>()
        };
        let regions = |o: &PipelineOutcome| {
            o.regions
                .iter()
                .map(|r| {
                    let planar = (r.planar.clone(), r.planar_faults.clone());
                    (r.cells.clone(), r.faults.clone(), planar)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(blocks(got), blocks(&cold), "{what}: blocks");
        assert_eq!(regions(got), regions(&cold), "{what}: regions");
    }

    #[test]
    fn block_local_churn_matches_cold_on_every_engine() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let engines = [
            LabelEngine::Bitboard,
            LabelEngine::Lockstep(ocp_distsim::Executor::Sequential),
            LabelEngine::Lockstep(ocp_distsim::Executor::Frontier),
        ];
        for (k, t) in [Topology::mesh(24, 20), Topology::torus(22, 18)]
            .into_iter()
            .enumerate()
        {
            for (r, rule) in [SafetyRule::BothDimensions, SafetyRule::TwoUnsafeNeighbors]
                .into_iter()
                .enumerate()
            {
                let engine = engines[(2 * k + r) % engines.len()];
                let cfg = PipelineConfig {
                    rule,
                    engine,
                    ..PipelineConfig::default()
                };
                let mut rng = SmallRng::seed_from_u64(7 + k as u64);
                let mut map = FaultMap::healthy(t);
                let mut out = run_pipeline(&map, &cfg);
                for step in 0..40 {
                    let faults: Vec<Coord> = (0..rng.gen_range(0..4))
                        .map(|_| {
                            c(
                                rng.gen_range(0..t.width() as i32),
                                rng.gen_range(0..t.height() as i32),
                            )
                        })
                        .filter(|&f| !map.is_faulty(f))
                        .collect();
                    let live = map.faults();
                    let repairs: Vec<Coord> = if live.is_empty() || rng.gen_bool(0.6) {
                        Vec::new()
                    } else {
                        (0..rng.gen_range(1..4))
                            .map(|_| live[rng.gen_range(0..live.len())])
                            .collect()
                    };
                    let what = format!("{t:?} {rule:?} step {step}");
                    let (next, epoch) =
                        try_relabel_batch(&map, &faults, &repairs, &out, &cfg).expect("converges");
                    assert_matches_cold(&next, &epoch.outcome, &cfg, &what);
                    if repairs.is_empty() {
                        let (_, warm) =
                            try_relabel_after_faults(&map, &faults, &out, &cfg).unwrap();
                        assert_eq!(
                            epoch.outcome.safety_trace.rounds(),
                            warm.incremental_safety_trace.rounds(),
                            "{what}: rounds"
                        );
                    }
                    map = next;
                    out = epoch.outcome;
                }
            }
        }
    }

    #[test]
    fn a_window_one_node_too_small_is_caught() {
        // The old 2x2 block [3,4]² plus a fault at (5,5) grow one 3x3
        // block [3,5]². The derived window is [2,6]²; cut one row off its
        // north side and the new block reaches the edge ring.
        let t = Topology::mesh(12, 12);
        let cfg = PipelineConfig::default();
        let map = FaultMap::new(t, [c(3, 3), c(4, 4)]);
        let before = run_pipeline(&map, &cfg);
        let updated = map.with_events(&[c(5, 5)], &[]);
        let derived = crate::window::dirty_windows(t, cfg.rule, &before.blocks, &[c(5, 5)], &[]);
        assert_eq!(
            derived,
            DirtyWindows::Local(vec![Window::new(c(2, 2), 5, 5)])
        );
        let exact = relabel_windows(&updated, &[Window::new(c(2, 2), 5, 5)], &[], &before, &cfg)
            .unwrap()
            .expect("the derived window is exact");
        assert_matches_cold(&updated, &exact, &cfg, "derived window");
        for small in [Window::new(c(2, 2), 5, 4), Window::new(c(2, 2), 4, 5)] {
            let got = relabel_windows(&updated, &[small], &[], &before, &cfg).unwrap();
            assert!(got.is_none(), "{small:?} must be refused");
        }
        // The public path never publishes such a window: it matches cold.
        let (_, epoch) = try_relabel_batch(&map, &[c(5, 5)], &[], &before, &cfg).unwrap();
        assert_matches_cold(&updated, &epoch.outcome, &cfg, "public path");
    }

    #[test]
    fn repair_shrinks_blocks_and_verifies() {
        // A 2x2 diagonal block; repairing one fault leaves a lone fault.
        let map = FaultMap::new(Topology::mesh(10, 10), [c(4, 4), c(5, 5)]);
        let cfg = PipelineConfig::default();
        let before = run_pipeline(&map, &cfg);
        assert_eq!(before.blocks[0].len(), 4);

        let (updated, after) = relabel_after_repair(&map, c(5, 5), &before, &cfg);
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
