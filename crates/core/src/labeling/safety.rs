//! Phase 1: the safe/unsafe labeling protocol (Definitions 2a and 2b).

use crate::status::FaultMap;
use ocp_distsim::{
    run, try_run, ConvergenceError, Executor, LockstepProtocol, NeighborStates, RunTrace,
};
use ocp_mesh::{Coord, Dimension, Grid, Topology};
use serde::{Deserialize, Serialize};

/// Which unsafe-node definition phase 1 applies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SafetyRule {
    /// Definition 2a: a nonfaulty node is unsafe iff it has **two or more**
    /// unsafe neighbors. Classical faulty blocks; pairwise distance ≥ 3.
    TwoUnsafeNeighbors,
    /// Definition 2b: a nonfaulty node is unsafe iff it has an unsafe
    /// neighbor **in both dimensions**. Enhanced blocks with fewer nonfaulty
    /// members; pairwise distance ≥ 2. This is the rule the paper's
    /// algorithm (Section 3) uses.
    BothDimensions,
}

/// Safe/unsafe status exchanged by phase 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SafetyState {
    /// Not (yet) implicated in a faulty block.
    Safe,
    /// Faulty, or a nonfaulty node absorbed into a faulty block.
    Unsafe,
}

/// The phase-1 protocol: all faulty nodes are permanently unsafe; nonfaulty
/// nodes start safe and monotonically turn unsafe per the chosen rule.
///
/// The paper initializes every nonfaulty node to safe precisely so that the
/// iteration is monotone and the fixpoint well defined (the same subtlety
/// Definition 3 addresses for phase 2).
pub struct SafetyProtocol<'a> {
    map: &'a FaultMap,
    rule: SafetyRule,
}

impl<'a> SafetyProtocol<'a> {
    /// Protocol over `map` with `rule`.
    pub fn new(map: &'a FaultMap, rule: SafetyRule) -> Self {
        Self { map, rule }
    }
}

impl LockstepProtocol for SafetyProtocol<'_> {
    type State = SafetyState;

    fn topology(&self) -> Topology {
        self.map.topology()
    }

    fn initial(&self, c: Coord) -> SafetyState {
        if self.map.is_faulty(c) {
            SafetyState::Unsafe
        } else {
            SafetyState::Safe
        }
    }

    fn ghost(&self) -> SafetyState {
        // The added boundary lines consist of permanently safe ghost nodes.
        SafetyState::Safe
    }

    fn participates(&self, c: Coord) -> bool {
        !self.map.is_faulty(c)
    }

    fn step(
        &self,
        _c: Coord,
        current: SafetyState,
        neighbors: &NeighborStates<SafetyState>,
    ) -> SafetyState {
        if current == SafetyState::Unsafe {
            return SafetyState::Unsafe; // monotone
        }
        let is_unsafe = |s: SafetyState| s == SafetyState::Unsafe;
        let becomes_unsafe = match self.rule {
            SafetyRule::TwoUnsafeNeighbors => neighbors.count(is_unsafe) >= 2,
            SafetyRule::BothDimensions => {
                neighbors.any_in_dimension(Dimension::X, is_unsafe)
                    && neighbors.any_in_dimension(Dimension::Y, is_unsafe)
            }
        };
        if becomes_unsafe {
            SafetyState::Unsafe
        } else {
            SafetyState::Safe
        }
    }

    fn initial_frontier(&self) -> Option<Vec<Coord>> {
        // Round 1 sees only the faults unsafe, so only their neighbors
        // can flip; the frontier executor filters and deduplicates.
        let t = self.topology();
        Some(
            self.map
                .faults()
                .into_iter()
                .flat_map(|f| {
                    ocp_mesh::Neighborhood::of(t, f)
                        .nodes()
                        .collect::<Vec<Coord>>()
                })
                .collect(),
        )
    }
}

/// Result of phase 1.
#[derive(Clone, Debug)]
pub struct SafetyOutcome {
    /// Converged safe/unsafe status of every node.
    pub grid: Grid<SafetyState>,
    /// Rounds/messages of the distributed run.
    pub trace: RunTrace,
}

/// Runs phase 1 to quiescence.
///
/// Low-level: a run that stalls at `max_rounds` is only reported through
/// [`RunTrace::converged`]. Callers that treat the grid as a fixpoint
/// should prefer [`try_compute_safety`], which makes the stall an error.
pub fn compute_safety(
    map: &FaultMap,
    rule: SafetyRule,
    executor: Executor,
    max_rounds: u32,
) -> SafetyOutcome {
    let protocol = SafetyProtocol::new(map, rule);
    let out = run(&protocol, executor, max_rounds);
    SafetyOutcome {
        grid: out.states,
        trace: out.trace,
    }
}

/// [`compute_safety`] with the convergence watchdog: a run that stalls at
/// `max_rounds` is an explicit [`ConvergenceError`] with diagnostics.
pub fn try_compute_safety(
    map: &FaultMap,
    rule: SafetyRule,
    executor: Executor,
    max_rounds: u32,
) -> Result<SafetyOutcome, ConvergenceError> {
    let protocol = SafetyProtocol::new(map, rule);
    let out = try_run(&protocol, executor, max_rounds)
        .map_err(|e| e.with_label("phase-1 safety labeling"))?;
    Ok(SafetyOutcome {
        grid: out.states,
        trace: out.trace,
    })
}

/// Runs phase 1 on the chosen [`crate::labeling::LabelEngine`]. All engines
/// produce identical grids and traces; see the engine docs.
pub fn compute_safety_with(
    map: &FaultMap,
    rule: SafetyRule,
    engine: crate::labeling::LabelEngine,
    max_rounds: u32,
) -> SafetyOutcome {
    let timer = crate::telemetry::PhaseTimer::start();
    let out = match engine {
        crate::labeling::LabelEngine::Lockstep(executor) => {
            compute_safety(map, rule, executor, max_rounds)
        }
        crate::labeling::LabelEngine::Bitboard => {
            crate::labeling::bits::compute_safety_bits(map, rule, None, max_rounds)
        }
    };
    crate::telemetry::record_phase("safety", engine, &out.trace, timer);
    out
}

/// [`compute_safety_with`] with the convergence watchdog.
pub fn try_compute_safety_with(
    map: &FaultMap,
    rule: SafetyRule,
    engine: crate::labeling::LabelEngine,
    max_rounds: u32,
) -> Result<SafetyOutcome, ConvergenceError> {
    let timer = crate::telemetry::PhaseTimer::start();
    let out = match engine {
        crate::labeling::LabelEngine::Lockstep(executor) => {
            try_compute_safety(map, rule, executor, max_rounds)
        }
        crate::labeling::LabelEngine::Bitboard => {
            crate::labeling::bits::try_compute_safety_bits(map, rule, None, max_rounds)
        }
    }?;
    crate::telemetry::record_phase("safety", engine, &out.trace, timer);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn unsafe_set(out: &SafetyOutcome) -> Vec<Coord> {
        out.grid
            .coords_where(|&s| s == SafetyState::Unsafe)
            .collect()
    }

    fn run_mesh(faults: &[Coord], rule: SafetyRule) -> SafetyOutcome {
        let map = FaultMap::new(Topology::mesh(8, 8), faults.iter().copied());
        compute_safety(&map, rule, Executor::Sequential, 100)
    }

    #[test]
    fn no_faults_all_safe_zero_rounds() {
        let out = run_mesh(&[], SafetyRule::BothDimensions);
        assert!(unsafe_set(&out).is_empty());
        assert_eq!(out.trace.rounds(), 0);
    }

    #[test]
    fn isolated_fault_stays_alone_under_both_rules() {
        for rule in [SafetyRule::TwoUnsafeNeighbors, SafetyRule::BothDimensions] {
            let out = run_mesh(&[c(4, 4)], rule);
            assert_eq!(unsafe_set(&out), vec![c(4, 4)]);
            assert_eq!(out.trace.rounds(), 0);
        }
    }

    #[test]
    fn diagonal_faults_merge_into_2x2_block() {
        // The paper notes faults (x,y) and (x+1,y+1) end up in one region.
        let out = run_mesh(&[c(3, 3), c(4, 4)], SafetyRule::BothDimensions);
        let mut got = unsafe_set(&out);
        got.sort();
        assert_eq!(got, vec![c(3, 3), c(3, 4), c(4, 3), c(4, 4)]);
    }

    #[test]
    fn rules_differ_on_colinear_neighbors() {
        // A node with two unsafe neighbors along the SAME dimension is
        // unsafe under 2a but safe under 2b (the paper's distinguishing
        // example).
        let faults = [c(2, 4), c(4, 4)]; // (3,4) has unsafe west and east
        let a = run_mesh(&faults, SafetyRule::TwoUnsafeNeighbors);
        let b = run_mesh(&faults, SafetyRule::BothDimensions);
        let au = unsafe_set(&a);
        let bu = unsafe_set(&b);
        assert!(au.contains(&c(3, 4)), "2a should absorb the middle node");
        assert!(
            !bu.contains(&c(3, 4)),
            "2b should keep the middle node safe"
        );
    }

    #[test]
    fn def2b_produces_no_more_unsafe_than_def2a() {
        // Sweep a few seeded random patterns; 2b is the enhanced definition
        // that sacrifices fewer nonfaulty nodes.
        use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};
        let t = Topology::mesh(16, 16);
        for seed in 0..5u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut all: Vec<Coord> = t.coords().collect();
            all.shuffle(&mut rng);
            let faults: Vec<Coord> = all.into_iter().take(20).collect();
            let map = FaultMap::new(t, faults.iter().copied());
            let a = compute_safety(
                &map,
                SafetyRule::TwoUnsafeNeighbors,
                Executor::Sequential,
                200,
            );
            let b = compute_safety(&map, SafetyRule::BothDimensions, Executor::Sequential, 200);
            let ca = a.grid.count_where(|&s| s == SafetyState::Unsafe);
            let cb = b.grid.count_where(|&s| s == SafetyState::Unsafe);
            assert!(cb <= ca, "seed {seed}: 2b={cb} > 2a={ca}");
        }
    }

    #[test]
    fn section3_example_block() {
        // Faults (1,3), (2,1), (3,2) -> block {1..3} x {1..3} under 2b.
        let map = FaultMap::new(Topology::mesh(6, 6), [c(1, 3), c(2, 1), c(3, 2)]);
        let out = compute_safety(&map, SafetyRule::BothDimensions, Executor::Sequential, 100);
        let mut got = unsafe_set(&out);
        got.sort();
        let want: Vec<Coord> = (1..=3)
            .flat_map(|x| (1..=3).map(move |y| c(x, y)))
            .collect();
        assert_eq!(got, want);
        assert!(out.trace.converged);
    }

    #[test]
    fn ghost_boundary_keeps_border_faults_small() {
        // A fault hugging the mesh corner: ghosts are safe, so nothing
        // special happens at the border.
        let out = run_mesh(&[c(0, 0)], SafetyRule::BothDimensions);
        assert_eq!(unsafe_set(&out), vec![c(0, 0)]);
    }

    #[test]
    fn torus_labeling_wraps() {
        // Diagonal faults across the torus seam merge exactly like interior
        // ones.
        let t = Topology::torus(8, 8);
        let map = FaultMap::new(t, [c(7, 7), c(0, 0)]);
        let out = compute_safety(&map, SafetyRule::BothDimensions, Executor::Sequential, 100);
        let mut got = unsafe_set(&out);
        got.sort();
        assert_eq!(got, vec![c(0, 0), c(0, 7), c(7, 0), c(7, 7)]);
    }
}
