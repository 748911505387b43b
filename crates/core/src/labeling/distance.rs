//! Distributed fault-region distance field.
//!
//! The paper's conclusion promises a "refined fault model to efficiently
//! support several routing objectives". One classic such objective is
//! *early avoidance*: a message should start skirting a fault region before
//! bumping into it, which requires every node to know how far away the
//! nearest disabled region is. That knowledge is computable with exactly
//! the same machinery as the labeling phases — one more monotone
//! neighbor-exchange protocol:
//!
//! * disabled nodes (faulty or sacrificed) hold distance 0;
//! * every other node starts at "infinity" and repeatedly adopts
//!   `1 + min(neighbor distances)`.
//!
//! The fixpoint is the hop distance to the nearest disabled node *through
//! healthy nodes* (messages cannot cross faulty nodes, so a pocket of
//! healthy nodes walled off by faults correctly reports the distance to the
//! wall it can reach). Convergence takes at most ecc rounds where ecc is
//! the largest such distance — still far below the machine diameter with
//! any faults present.

use crate::labeling::enablement::ActivationState;
use crate::status::FaultMap;
use ocp_distsim::{
    run, try_run, ConvergenceError, Executor, LockstepProtocol, NeighborStates, RunTrace,
};
use ocp_mesh::{Coord, Grid, Topology};

/// Distance value for "no disabled region reachable" (fault-free machine,
/// or a healthy pocket the flood cannot leave).
pub const UNREACHABLE: u16 = u16::MAX;

/// The distance-field protocol (phase 3, optional).
pub struct DistanceProtocol<'a> {
    map: &'a FaultMap,
    activation: &'a Grid<ActivationState>,
}

impl<'a> DistanceProtocol<'a> {
    /// Protocol over `map`, consuming phase 2's converged activation grid.
    ///
    /// # Panics
    /// Panics if the activation grid covers a different machine.
    pub fn new(map: &'a FaultMap, activation: &'a Grid<ActivationState>) -> Self {
        assert_eq!(
            map.topology(),
            activation.topology(),
            "activation grid belongs to a different machine"
        );
        Self { map, activation }
    }
}

impl LockstepProtocol for DistanceProtocol<'_> {
    type State = u16;

    fn topology(&self) -> Topology {
        self.map.topology()
    }

    fn initial(&self, c: Coord) -> u16 {
        if *self.activation.get(c) == ActivationState::Disabled {
            0
        } else {
            UNREACHABLE
        }
    }

    fn ghost(&self) -> u16 {
        // Ghost nodes are infinitely far from every fault; they never pull
        // a border node's distance down.
        UNREACHABLE
    }

    fn participates(&self, c: Coord) -> bool {
        !self.map.is_faulty(c)
    }

    fn step(&self, _c: Coord, current: u16, neighbors: &NeighborStates<u16>) -> u16 {
        if current == 0 {
            return 0; // disabled nodes anchor the field
        }
        let best = neighbors
            .iter()
            .map(|(_, d)| d)
            .min()
            .expect("four neighbors");
        current.min(best.saturating_add(1))
    }
}

/// Result of the distance-field computation.
#[derive(Clone, Debug)]
pub struct DistanceField {
    /// Hop distance to the nearest disabled node, through healthy nodes
    /// ([`UNREACHABLE`] where no disabled node is reachable).
    pub grid: Grid<u16>,
    /// Distributed-run trace.
    pub trace: RunTrace,
}

impl DistanceField {
    /// Distance at one node.
    pub fn at(&self, c: Coord) -> u16 {
        *self.grid.get(c)
    }
}

/// Computes the distance field on top of a converged phase-2 grid.
///
/// ```
/// use ocp_core::prelude::*;
/// use ocp_core::labeling::distance::compute_distance_field;
/// use ocp_distsim::Executor;
/// use ocp_mesh::{Coord, Topology};
///
/// let map = FaultMap::new(Topology::mesh(8, 8), [Coord::new(4, 4)]);
/// let out = run_pipeline(&map, &PipelineConfig::default());
/// let field = compute_distance_field(&map, &out.activation, Executor::Sequential, 100);
/// assert_eq!(field.at(Coord::new(4, 5)), 1);
/// assert_eq!(field.at(Coord::new(0, 0)), 8);
/// ```
pub fn compute_distance_field(
    map: &FaultMap,
    activation: &Grid<ActivationState>,
    executor: Executor,
    max_rounds: u32,
) -> DistanceField {
    let protocol = DistanceProtocol::new(map, activation);
    let out = run(&protocol, executor, max_rounds);
    DistanceField {
        grid: out.states,
        trace: out.trace,
    }
}

/// [`compute_distance_field`] with the convergence watchdog: a run that
/// stalls at `max_rounds` is an explicit [`ConvergenceError`] with
/// diagnostics instead of a grid that silently isn't the distance fixpoint.
pub fn try_compute_distance_field(
    map: &FaultMap,
    activation: &Grid<ActivationState>,
    executor: Executor,
    max_rounds: u32,
) -> Result<DistanceField, ConvergenceError> {
    let protocol = DistanceProtocol::new(map, activation);
    let out = try_run(&protocol, executor, max_rounds)
        .map_err(|e| e.with_label("fault-distance field"))?;
    Ok(DistanceField {
        grid: out.states,
        trace: out.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, PipelineConfig};
    use std::collections::VecDeque;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn field_for(t: Topology, faults: &[Coord]) -> (FaultMap, DistanceField) {
        let map = FaultMap::new(t, faults.iter().copied());
        let out = run_pipeline(&map, &PipelineConfig::default());
        let field = compute_distance_field(&map, &out.activation, Executor::Sequential, 1000);
        (map, field)
    }

    /// Oracle: multi-source BFS from disabled nodes over healthy nodes.
    fn bfs_oracle(map: &FaultMap, activation: &Grid<ActivationState>) -> Grid<u16> {
        let t = map.topology();
        let mut dist = Grid::filled(t, UNREACHABLE);
        let mut queue = VecDeque::new();
        for (coord, &a) in activation.iter() {
            if a == ActivationState::Disabled {
                dist.set(coord, 0);
                queue.push_back(coord);
            }
        }
        while let Some(cur) = queue.pop_front() {
            // Faulty nodes anchor the field but do not relay it.
            if map.is_faulty(cur) && *dist.get(cur) > 0 {
                continue;
            }
            let next_d = dist.get(cur).saturating_add(1);
            for n in ocp_mesh::Neighborhood::of(t, cur).nodes() {
                if map.is_faulty(n) {
                    continue; // cannot propagate through dead nodes
                }
                if *dist.get(n) > next_d {
                    dist.set(n, next_d);
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    #[test]
    fn matches_bfs_oracle() {
        for t in [Topology::mesh(12, 12), Topology::torus(12, 12)] {
            let faults = [c(3, 3), c(4, 4), c(8, 2), c(2, 9)];
            let map = FaultMap::new(t, faults);
            let out = run_pipeline(&map, &PipelineConfig::default());
            let field = compute_distance_field(&map, &out.activation, Executor::Sequential, 1000);
            let oracle = bfs_oracle(&map, &out.activation);
            for (coord, &want) in oracle.iter() {
                if map.is_faulty(coord) {
                    continue;
                }
                assert_eq!(field.at(coord), want, "{t:?} at {coord}");
            }
            assert!(field.trace.converged);
        }
    }

    #[test]
    fn fault_free_field_is_all_unreachable() {
        let (_, field) = field_for(Topology::mesh(8, 8), &[]);
        assert!(field.grid.iter().all(|(_, &d)| d == UNREACHABLE));
        assert_eq!(field.trace.rounds(), 0);
    }

    #[test]
    fn adjacent_to_fault_is_one() {
        let (_, field) = field_for(Topology::mesh(9, 9), &[c(4, 4)]);
        assert_eq!(field.at(c(4, 5)), 1);
        assert_eq!(field.at(c(5, 5)), 2);
        assert_eq!(field.at(c(0, 0)), 8);
    }

    #[test]
    fn executors_agree_on_distance_field() {
        let t = Topology::mesh(14, 14);
        let map = FaultMap::new(t, [c(3, 3), c(10, 10), c(4, 4)]);
        let out = run_pipeline(&map, &PipelineConfig::default());
        let seq = compute_distance_field(&map, &out.activation, Executor::Sequential, 1000);
        for exec in [Executor::Frontier, Executor::Actor] {
            let got = compute_distance_field(&map, &out.activation, exec, 1000);
            assert_eq!(got.grid, seq.grid, "{exec:?}");
            assert_eq!(got.trace, seq.trace, "{exec:?}");
        }
    }

    #[test]
    fn async_reaches_same_field() {
        let t = Topology::mesh(10, 10);
        let map = FaultMap::new(t, [c(5, 5), c(2, 7)]);
        let out = run_pipeline(&map, &PipelineConfig::default());
        let sync = compute_distance_field(&map, &out.activation, Executor::Sequential, 1000);
        let protocol = DistanceProtocol::new(&map, &out.activation);
        let a = ocp_distsim::run_async(&protocol, 99, 7, 10_000_000);
        assert!(a.converged);
        assert_eq!(a.states, sync.grid);
    }

    #[test]
    fn enclosed_pocket_is_itself_disabled() {
        // A ring of faults around a pocket: the pocket cannot be re-enabled
        // (the Figure 2(b) phenomenon writ large), so the field is 0 there —
        // the pocket *is* part of the disabled region.
        let t = Topology::mesh(9, 9);
        let ring: Vec<Coord> = ocp_geometry::Rect::new(c(2, 2), c(6, 6))
            .cells()
            .filter(|cc| cc.x == 2 || cc.x == 6 || cc.y == 2 || cc.y == 6)
            .collect();
        let (_, field) = field_for(t, &ring);
        assert_eq!(field.at(c(4, 4)), 0);
        // Outside the ring the field grows normally.
        assert_eq!(field.at(c(0, 4)), 2);
    }

    #[test]
    fn wall_distance_measured_through_healthy_nodes() {
        // A vertical wall of faults: distances grow away from it on both
        // sides; the route "through" the wall does not exist.
        let t = Topology::mesh(9, 9);
        let wall: Vec<Coord> = (2..=6).map(|y| c(4, y)).collect();
        let (_, field) = field_for(t, &wall);
        assert_eq!(field.at(c(3, 4)), 1);
        assert_eq!(field.at(c(0, 4)), 4);
        assert_eq!(field.at(c(8, 4)), 4);
        // Corner nodes are farther (must path around).
        assert!(field.at(c(0, 0)) >= 4);
    }
}
