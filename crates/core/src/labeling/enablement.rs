//! Phase 2: the enabled/disabled labeling protocol (Definition 3).

use crate::labeling::safety::SafetyState;
use crate::status::FaultMap;
use ocp_distsim::{
    run, try_run, ConvergenceError, Executor, LockstepProtocol, NeighborStates, RunTrace,
};
use ocp_mesh::{Coord, Grid, Topology};
use serde::{Deserialize, Serialize};

/// Enabled/disabled status exchanged by phase 2. Only enabled nodes take
/// part in routing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ActivationState {
    /// Participates in routing.
    Enabled,
    /// Treated as faulty by routing (faulty, or sacrificed for convexity).
    Disabled,
}

/// The phase-2 protocol (Definition 3, Wu):
///
/// * all faulty nodes are permanently disabled;
/// * all safe nodes are enabled;
/// * an unsafe (nonfaulty) node starts disabled and flips to enabled once it
///   has **two or more enabled** neighbors.
///
/// The rule is deliberately monotone — nodes only ever go disabled →
/// enabled — so each node has exactly one well-defined final status. (A
/// recursive two-way definition admits "double status": the paper's Figure
/// 2(b) configuration could consistently be either all-enabled or
/// all-disabled.)
pub struct EnablementProtocol<'a> {
    map: &'a FaultMap,
    safety: &'a Grid<SafetyState>,
}

impl<'a> EnablementProtocol<'a> {
    /// Protocol over `map`, consuming phase 1's converged safety grid.
    ///
    /// # Panics
    /// Panics if the safety grid covers a different topology.
    pub fn new(map: &'a FaultMap, safety: &'a Grid<SafetyState>) -> Self {
        assert_eq!(
            map.topology(),
            safety.topology(),
            "safety grid belongs to a different machine"
        );
        Self { map, safety }
    }
}

impl LockstepProtocol for EnablementProtocol<'_> {
    type State = ActivationState;

    fn topology(&self) -> Topology {
        self.map.topology()
    }

    fn initial(&self, c: Coord) -> ActivationState {
        if self.map.is_faulty(c) {
            ActivationState::Disabled
        } else if *self.safety.get(c) == SafetyState::Safe {
            ActivationState::Enabled
        } else {
            ActivationState::Disabled
        }
    }

    fn ghost(&self) -> ActivationState {
        // Ghost nodes are "safe but do not participate in any activities";
        // for the labeling they count as enabled neighbors.
        ActivationState::Enabled
    }

    fn participates(&self, c: Coord) -> bool {
        !self.map.is_faulty(c)
    }

    fn step(
        &self,
        _c: Coord,
        current: ActivationState,
        neighbors: &NeighborStates<ActivationState>,
    ) -> ActivationState {
        if current == ActivationState::Enabled {
            return ActivationState::Enabled; // monotone
        }
        if neighbors.count(|s| s == ActivationState::Enabled) >= 2 {
            ActivationState::Enabled
        } else {
            ActivationState::Disabled
        }
    }

    fn initial_frontier(&self) -> Option<Vec<Coord>> {
        // Enabled nodes never change (monotone) and faulty nodes don't
        // participate, so only the disabled nonfaulty — i.e. the unsafe
        // nonfaulty — can flip in round 1.
        Some(
            self.safety
                .iter()
                .filter(|&(c, &s)| s == SafetyState::Unsafe && !self.map.is_faulty(c))
                .map(|(c, _)| c)
                .collect(),
        )
    }
}

/// Result of phase 2.
#[derive(Clone, Debug)]
pub struct EnablementOutcome {
    /// Converged enabled/disabled status of every node.
    pub grid: Grid<ActivationState>,
    /// Rounds/messages of the distributed run.
    pub trace: RunTrace,
}

/// Runs phase 2 to quiescence on top of a converged phase-1 grid.
///
/// Low-level: a run that stalls at `max_rounds` is only reported through
/// [`RunTrace::converged`]. Callers that treat the grid as a fixpoint
/// should prefer [`try_compute_enablement`], which makes the stall an
/// error.
pub fn compute_enablement(
    map: &FaultMap,
    safety: &Grid<SafetyState>,
    executor: Executor,
    max_rounds: u32,
) -> EnablementOutcome {
    let protocol = EnablementProtocol::new(map, safety);
    let out = run(&protocol, executor, max_rounds);
    EnablementOutcome {
        grid: out.states,
        trace: out.trace,
    }
}

/// [`compute_enablement`] with the convergence watchdog: a run that stalls
/// at `max_rounds` is an explicit [`ConvergenceError`] with diagnostics.
pub fn try_compute_enablement(
    map: &FaultMap,
    safety: &Grid<SafetyState>,
    executor: Executor,
    max_rounds: u32,
) -> Result<EnablementOutcome, ConvergenceError> {
    let protocol = EnablementProtocol::new(map, safety);
    let out = try_run(&protocol, executor, max_rounds)
        .map_err(|e| e.with_label("phase-2 enablement labeling"))?;
    Ok(EnablementOutcome {
        grid: out.states,
        trace: out.trace,
    })
}

/// Runs phase 2 on the chosen [`crate::labeling::LabelEngine`]. All engines
/// produce identical grids and traces; see the engine docs.
pub fn compute_enablement_with(
    map: &FaultMap,
    safety: &Grid<SafetyState>,
    engine: crate::labeling::LabelEngine,
    max_rounds: u32,
) -> EnablementOutcome {
    let timer = crate::telemetry::PhaseTimer::start();
    let out = match engine {
        crate::labeling::LabelEngine::Lockstep(executor) => {
            compute_enablement(map, safety, executor, max_rounds)
        }
        crate::labeling::LabelEngine::Bitboard => {
            crate::labeling::bits::compute_enablement_bits(map, safety, max_rounds)
        }
    };
    crate::telemetry::record_phase("enablement", engine, &out.trace, timer);
    out
}

/// [`compute_enablement_with`] with the convergence watchdog.
pub fn try_compute_enablement_with(
    map: &FaultMap,
    safety: &Grid<SafetyState>,
    engine: crate::labeling::LabelEngine,
    max_rounds: u32,
) -> Result<EnablementOutcome, ConvergenceError> {
    let timer = crate::telemetry::PhaseTimer::start();
    let out = match engine {
        crate::labeling::LabelEngine::Lockstep(executor) => {
            try_compute_enablement(map, safety, executor, max_rounds)
        }
        crate::labeling::LabelEngine::Bitboard => {
            crate::labeling::bits::try_compute_enablement_bits(map, safety, max_rounds)
        }
    }?;
    crate::telemetry::record_phase("enablement", engine, &out.trace, timer);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::safety::{compute_safety, SafetyRule};

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn pipeline(t: Topology, faults: &[Coord]) -> (FaultMap, EnablementOutcome) {
        let map = FaultMap::new(t, faults.iter().copied());
        let safety = compute_safety(&map, SafetyRule::BothDimensions, Executor::Sequential, 400);
        let enable = compute_enablement(&map, &safety.grid, Executor::Sequential, 400);
        (map, enable)
    }

    fn disabled(out: &EnablementOutcome) -> Vec<Coord> {
        out.grid
            .coords_where(|&s| s == ActivationState::Disabled)
            .collect()
    }

    #[test]
    fn section3_example_enables_all_nonfaulty() {
        let (_map, out) = pipeline(Topology::mesh(6, 6), &[c(1, 3), c(2, 1), c(3, 2)]);
        // "All the nonfaulty nodes in the faulty block are enabled."
        let mut got = disabled(&out);
        got.sort();
        assert_eq!(got, vec![c(1, 3), c(2, 1), c(3, 2)]);
    }

    #[test]
    fn faulty_nodes_never_enable() {
        let (map, out) = pipeline(Topology::mesh(8, 8), &[c(2, 2), c(3, 3), c(2, 3), c(3, 2)]);
        for f in map.faults() {
            assert_eq!(*out.grid.get(f), ActivationState::Disabled);
        }
    }

    #[test]
    fn fig2a_corner_pocket_is_re_enabled() {
        // Faulty 4x4 block except its upper-right 2x2 pocket.
        let block = ocp_geometry::Rect::new(c(1, 1), c(4, 4));
        let pocket = ocp_geometry::Rect::new(c(3, 3), c(4, 4));
        let faults: Vec<Coord> = block.cells().filter(|&x| !pocket.contains(x)).collect();
        let (_map, out) = pipeline(Topology::mesh(8, 8), &faults);
        for p in pocket.cells() {
            assert_eq!(
                *out.grid.get(p),
                ActivationState::Enabled,
                "corner pocket node {p} should re-enable"
            );
        }
    }

    #[test]
    fn fig2b_center_pocket_stays_disabled() {
        // Faulty 5x4 block except a 2x2 pocket at the top center: each
        // pocket node sees at most one enabled neighbor, so the monotone
        // rule keeps the whole pocket disabled.
        let block = ocp_geometry::Rect::new(c(1, 1), c(5, 4));
        let pocket = ocp_geometry::Rect::new(c(2, 3), c(3, 4));
        let faults: Vec<Coord> = block.cells().filter(|&x| !pocket.contains(x)).collect();
        let (_map, out) = pipeline(Topology::mesh(9, 8), &faults);
        for p in pocket.cells() {
            assert_eq!(
                *out.grid.get(p),
                ActivationState::Disabled,
                "center pocket node {p} must stay disabled"
            );
        }
    }

    #[test]
    fn border_pocket_uses_ghost_neighbors() {
        // A pocket in the mesh corner: ghost nodes count as enabled
        // neighbors, so the corner cell of the machine re-enables exactly
        // like an interior corner pocket.
        let block = ocp_geometry::Rect::new(c(0, 0), c(2, 2));
        let faults: Vec<Coord> = block.cells().filter(|&x| x != c(0, 0)).collect();
        let (_map, out) = pipeline(Topology::mesh(6, 6), &faults);
        assert_eq!(*out.grid.get(c(0, 0)), ActivationState::Enabled);
    }

    #[test]
    fn enablement_rounds_zero_when_nothing_unsafe_nonfaulty() {
        let (_map, out) = pipeline(Topology::mesh(8, 8), &[c(4, 4)]);
        assert_eq!(out.trace.rounds(), 0);
        assert!(out.trace.converged);
    }

    #[test]
    #[should_panic(expected = "different machine")]
    fn topology_mismatch_panics() {
        let map = FaultMap::healthy(Topology::mesh(4, 4));
        let other = FaultMap::healthy(Topology::mesh(5, 5));
        let safety = compute_safety(&other, SafetyRule::BothDimensions, Executor::Sequential, 10);
        let _ = EnablementProtocol::new(&map, &safety.grid);
    }
}
