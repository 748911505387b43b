//! Ground-truth fault state.

use ocp_mesh::{Coord, Grid, Topology};
use serde::{Deserialize, Serialize};

/// Whether a node works. Faulty nodes "just cease to work" (Section 2):
/// they send no messages and route no traffic; link faults are treated as
/// faults of an endpoint, as in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Health {
    /// The node works.
    Healthy,
    /// The node has failed.
    Faulty,
}

/// The fault configuration of a machine: topology + per-node health.
///
/// Construction is the only place fault knowledge is global; the labeling
/// protocols themselves only ever look at their own node's health and the
/// messages of direct neighbors, honoring the paper's "no a-priori global
/// information of fault distribution" assumption.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMap {
    grid: Grid<Health>,
    fault_count: usize,
}

impl FaultMap {
    /// A machine with the given faulty nodes.
    ///
    /// # Panics
    /// Panics if a fault coordinate is outside the machine.
    pub fn new<I: IntoIterator<Item = Coord>>(topology: Topology, faults: I) -> Self {
        let mut grid = Grid::filled(topology, Health::Healthy);
        let mut fault_count = 0;
        for f in faults {
            assert!(topology.contains(f), "fault {f} outside machine");
            if *grid.get(f) == Health::Healthy {
                grid.set(f, Health::Faulty);
                fault_count += 1;
            }
        }
        Self { grid, fault_count }
    }

    /// The map over an existing per-node health grid (e.g. one window of a
    /// larger machine, cut out as a machine of its own).
    pub fn from_health(grid: Grid<Health>) -> Self {
        let fault_count = grid.count_where(|&h| h == Health::Faulty);
        Self { grid, fault_count }
    }

    /// A fault-free machine.
    pub fn healthy(topology: Topology) -> Self {
        Self::new(topology, std::iter::empty())
    }

    /// The machine.
    pub fn topology(&self) -> Topology {
        self.grid.topology()
    }

    /// True if the node at `c` has failed.
    ///
    /// # Panics
    /// Panics if `c` is not a real node.
    pub fn is_faulty(&self, c: Coord) -> bool {
        *self.grid.get(c) == Health::Faulty
    }

    /// The underlying per-node health grid — dense row-major storage that
    /// bulk kernels pack into bit masks without per-coordinate lookups.
    pub fn health_grid(&self) -> &Grid<Health> {
        &self.grid
    }

    /// Number of faulty nodes.
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }

    /// Sorted fault coordinates.
    pub fn faults(&self) -> Vec<Coord> {
        self.grid.coords_where(|&h| h == Health::Faulty).collect()
    }

    /// A copy of this map with one more faulty node (for incremental
    /// maintenance experiments). No-op if `c` is already faulty.
    pub fn with_additional_fault(&self, c: Coord) -> Self {
        self.with_events(&[c], &[])
    }

    /// A copy of this map with the node at `c` repaired. No-op if `c` is
    /// healthy. Repair can retract unsafe labels, so relabeling after it
    /// restarts the repaired node's old block cold — see
    /// [`crate::maintenance::try_relabel_batch`].
    pub fn with_repaired_node(&self, c: Coord) -> Self {
        self.with_events(&[], &[c])
    }

    /// A copy of this map after one batch of events: `repairs` applied
    /// first, then `faults` — one clone for the whole batch. Repairs of
    /// healthy nodes and faults of faulty ones are no-ops.
    ///
    /// # Panics
    /// Panics if an event lies outside the machine.
    pub fn with_events(&self, faults: &[Coord], repairs: &[Coord]) -> Self {
        let topology = self.topology();
        for &c in faults.iter().chain(repairs) {
            assert!(topology.contains(c), "event {c} outside machine");
        }
        let mut next = self.clone();
        for &c in repairs {
            if next.is_faulty(c) {
                next.grid.set(c, Health::Healthy);
                next.fault_count -= 1;
            }
        }
        for &c in faults {
            if !next.is_faulty(c) {
                next.grid.set(c, Health::Faulty);
                next.fault_count += 1;
            }
        }
        next
    }

    /// Converts link faults into node faults, as the paper prescribes
    /// ("link faults can be treated as node faults"): for each failed link,
    /// the smaller-addressed endpoint is marked faulty (a deterministic
    /// convention — any one endpoint suffices, since disabling either
    /// removes the link from service).
    ///
    /// # Panics
    /// Panics if a link's endpoints are not neighbors in `topology`, or
    /// lie outside the machine.
    pub fn from_link_faults<I>(topology: Topology, links: I) -> Self
    where
        I: IntoIterator<Item = (Coord, Coord)>,
    {
        let mut faults = Vec::new();
        for (a, b) in links {
            assert!(
                topology.contains(a) && topology.contains(b),
                "link endpoint outside machine: {a} - {b}"
            );
            let adjacent = ocp_mesh::DIRECTIONS
                .into_iter()
                .any(|d| topology.neighbor(a, d).coord() == Some(b));
            assert!(adjacent, "{a} - {b} is not a link of the machine");
            faults.push(a.min(b));
        }
        Self::new(topology, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn construction_and_queries() {
        let map = FaultMap::new(Topology::mesh(5, 5), [c(1, 1), c(3, 4)]);
        assert_eq!(map.fault_count(), 2);
        assert!(map.is_faulty(c(1, 1)));
        assert!(!map.is_faulty(c(0, 0)));
        assert_eq!(map.faults(), vec![c(1, 1), c(3, 4)]);
    }

    #[test]
    fn duplicate_faults_collapse() {
        let map = FaultMap::new(Topology::mesh(4, 4), [c(2, 2), c(2, 2)]);
        assert_eq!(map.fault_count(), 1);
    }

    #[test]
    fn healthy_machine() {
        let map = FaultMap::healthy(Topology::torus(8, 8));
        assert_eq!(map.fault_count(), 0);
        assert!(map.faults().is_empty());
    }

    #[test]
    #[should_panic(expected = "outside machine")]
    fn out_of_range_fault_panics() {
        FaultMap::new(Topology::mesh(3, 3), [c(3, 0)]);
    }

    #[test]
    fn link_faults_become_node_faults() {
        let t = Topology::mesh(5, 5);
        let map = FaultMap::from_link_faults(t, [(c(1, 1), c(2, 1)), (c(3, 3), c(3, 4))]);
        assert_eq!(map.fault_count(), 2);
        assert!(map.is_faulty(c(1, 1))); // smaller endpoint
        assert!(map.is_faulty(c(3, 3)));
        assert!(!map.is_faulty(c(2, 1)));
    }

    #[test]
    fn link_faults_wrap_on_torus() {
        let t = Topology::torus(5, 5);
        let map = FaultMap::from_link_faults(t, [(c(4, 0), c(0, 0))]);
        assert_eq!(map.fault_count(), 1);
        assert!(map.is_faulty(c(0, 0)));
    }

    #[test]
    #[should_panic(expected = "not a link")]
    fn non_adjacent_link_fault_panics() {
        FaultMap::from_link_faults(Topology::mesh(5, 5), [(c(0, 0), c(2, 0))]);
    }

    #[test]
    fn repair_restores_health() {
        let map = FaultMap::new(Topology::mesh(4, 4), [c(1, 1), c(2, 2)]);
        let repaired = map.with_repaired_node(c(1, 1));
        assert_eq!(repaired.fault_count(), 1);
        assert!(!repaired.is_faulty(c(1, 1)));
        // idempotent on healthy nodes
        assert_eq!(repaired.with_repaired_node(c(1, 1)).fault_count(), 1);
    }

    #[test]
    fn one_batch_applies_repairs_then_faults() {
        let map = FaultMap::new(Topology::mesh(4, 4), [c(0, 0), c(1, 1)]);
        let next = map.with_events(&[c(2, 2), c(3, 3), c(2, 2)], &[c(1, 1), c(0, 1)]);
        assert_eq!(next.faults(), vec![c(0, 0), c(2, 2), c(3, 3)]);
        assert_eq!(next.fault_count(), 3);
        // A node repaired and re-broken in one batch ends up faulty.
        assert!(map.with_events(&[c(1, 1)], &[c(1, 1)]).is_faulty(c(1, 1)));
        assert_eq!(FaultMap::from_health(next.health_grid().clone()), next);
    }

    #[test]
    #[should_panic(expected = "outside machine")]
    fn out_of_range_event_panics() {
        FaultMap::healthy(Topology::mesh(3, 3)).with_events(&[], &[c(-1, 1)]);
    }

    #[test]
    fn incremental_fault_addition() {
        let map = FaultMap::new(Topology::mesh(4, 4), [c(0, 0)]);
        let more = map.with_additional_fault(c(1, 1));
        assert_eq!(map.fault_count(), 1);
        assert_eq!(more.fault_count(), 2);
        assert!(more.is_faulty(c(1, 1)));
        // idempotent
        assert_eq!(more.with_additional_fault(c(1, 1)).fault_count(), 2);
    }
}
