//! Disabled-region extraction (connected disabled nodes) — the paper's
//! orthogonal convex polygons.

use crate::labeling::enablement::ActivationState;
use crate::status::FaultMap;
use ocp_geometry::{Rect, Region};
use ocp_mesh::{connected_components_grid, Coord, Grid, TopologyKind};

/// One disabled region: a maximal connected set of disabled nodes after
/// phase 2. Theorem 1: it is an orthogonal convex polygon; Theorem 2: the
/// smallest one covering its faults.
#[derive(Clone, Debug)]
pub struct DisabledRegion {
    /// Member cells in machine coordinates.
    pub cells: Region,
    /// Member cells in planar coordinates (unwrapped across a torus seam);
    /// `None` if the region wraps around the torus.
    pub planar: Option<Region>,
    /// The faulty cells of the region (machine coordinates).
    pub faults: Region,
    /// The faulty cells in planar coordinates, translated consistently with
    /// [`DisabledRegion::planar`].
    pub planar_faults: Option<Region>,
}

impl DisabledRegion {
    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the region has no members (never produced by extraction).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Nonfaulty nodes still sacrificed after phase 2 — what remains of the
    /// block's cost once the maximum number of nodes is re-enabled.
    pub fn nonfaulty_count(&self) -> usize {
        self.cells.len() - self.faults.len()
    }

    /// Planar bounding box (`None` for an unwrappable torus region).
    pub fn bbox(&self) -> Option<Rect> {
        self.planar.as_ref().and_then(|p| p.bbox())
    }

    /// Theorem 1 check: is this region an orthogonal convex polygon?
    /// (`false` when the region wraps a torus and has no planar embedding.)
    pub fn is_orthogonally_convex(&self) -> bool {
        self.planar
            .as_ref()
            .is_some_and(ocp_geometry::is_orthogonally_convex)
    }
}

/// Extracts the disabled regions from a converged phase-2 grid.
///
/// # Panics
/// Panics if the activation grid covers a different machine than `map`.
pub fn extract_regions(map: &FaultMap, activation: &Grid<ActivationState>) -> Vec<DisabledRegion> {
    assert_eq!(
        map.topology(),
        activation.topology(),
        "activation grid belongs to a different machine"
    );
    connected_components_grid(activation, |&s| s == ActivationState::Disabled)
        .into_iter()
        .map(|comp| DisabledRegion::of_component(map, comp.cells))
        .collect()
}

impl DisabledRegion {
    /// The region over one disabled component, given as its sorted
    /// machine-coordinate cells — shared by the whole-machine extraction
    /// and the dirty-window splice, so the two agree field for field.
    pub(crate) fn of_component(map: &FaultMap, cells: Vec<Coord>) -> Self {
        let topology = map.topology();
        let faults: Vec<Coord> = cells
            .iter()
            .copied()
            .filter(|&c| map.is_faulty(c))
            .collect();
        // One embedding serves both the cells and their fault subset, so
        // convexity and minimality checks see consistent coordinates. On a
        // mesh that embedding is the identity — skip the seam-unwrapping
        // BFS, which dominates extraction on big regions.
        if topology.kind() == TopologyKind::Mesh {
            let cells = Region::from_cells(cells);
            let faults = Region::from_cells(faults);
            return DisabledRegion {
                planar: Some(cells.clone()),
                cells,
                planar_faults: Some(faults.clone()),
                faults,
            };
        }
        let mapping = Region::unwrap_mapping(topology, &cells);
        let planar = mapping
            .as_ref()
            .map(|m| Region::from_cells(m.values().copied()));
        let planar_faults = mapping
            .as_ref()
            .map(|m| Region::from_cells(faults.iter().map(|f| m[f])));
        DisabledRegion {
            cells: Region::from_cells(cells),
            planar,
            faults: Region::from_cells(faults),
            planar_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::enablement::compute_enablement;
    use crate::labeling::safety::{compute_safety, SafetyRule};
    use ocp_distsim::Executor;
    use ocp_mesh::Topology;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn regions_of(t: Topology, faults: &[Coord]) -> (FaultMap, Vec<DisabledRegion>) {
        let map = FaultMap::new(t, faults.iter().copied());
        let safety = compute_safety(&map, SafetyRule::BothDimensions, Executor::Sequential, 400);
        let act = compute_enablement(&map, &safety.grid, Executor::Sequential, 400);
        let regions = extract_regions(&map, &act.grid);
        (map, regions)
    }

    #[test]
    fn section3_regions_are_fault_only() {
        let (_m, regions) = regions_of(Topology::mesh(6, 6), &[c(1, 3), c(2, 1), c(3, 2)]);
        // All nonfaulty nodes re-enabled: the disabled set is exactly the
        // three faults, i.e. three singleton regions (no two faults are
        // axis-adjacent). The paper groups {(2,1),(3,2)} by originating
        // block; under 4-connectivity they are separate components — see
        // DESIGN.md §4.
        assert_eq!(regions.len(), 3);
        for r in &regions {
            assert_eq!(r.len(), 1);
            assert_eq!(r.nonfaulty_count(), 0);
            assert!(r.is_orthogonally_convex());
        }
    }

    #[test]
    fn dense_square_block_stays_whole() {
        let block = Rect::new(c(2, 2), c(4, 4));
        let (_m, regions) = regions_of(Topology::mesh(9, 9), &block.cells().collect::<Vec<_>>());
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].len(), 9);
        assert_eq!(regions[0].nonfaulty_count(), 0);
        assert!(regions[0].is_orthogonally_convex());
    }

    #[test]
    fn regions_pairwise_distance_at_least_two() {
        use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};
        let t = Topology::mesh(20, 20);
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut all: Vec<Coord> = t.coords().collect();
            all.shuffle(&mut rng);
            let faults: Vec<Coord> = all.into_iter().take(30).collect();
            let (_m, regions) = regions_of(t, &faults);
            for i in 0..regions.len() {
                for j in i + 1..regions.len() {
                    let d = regions[i].cells.distance(&regions[j].cells).unwrap();
                    assert!(d >= 2, "seed {seed}: regions at distance {d}");
                }
            }
        }
    }

    #[test]
    fn planar_faults_follow_unwrap() {
        let t = Topology::torus(8, 8);
        let (_m, regions) = regions_of(t, &[c(7, 4), c(0, 4)]);
        assert_eq!(regions.len(), 1);
        let r = &regions[0];
        let p = r.planar.as_ref().unwrap();
        let pf = r.planar_faults.as_ref().unwrap();
        assert!(p.is_superset(pf));
        assert_eq!(pf.len(), 2);
        // In planar coordinates the two faults are adjacent.
        let cells: Vec<Coord> = pf.iter().collect();
        assert!(cells[0].is_adjacent(cells[1]));
    }

    #[test]
    fn no_faults_no_regions() {
        let (_m, regions) = regions_of(Topology::mesh(8, 8), &[]);
        assert!(regions.is_empty());
    }
}
