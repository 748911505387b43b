//! Faulty-block extraction (connected unsafe nodes).

use crate::labeling::safety::SafetyState;
use crate::status::FaultMap;
use ocp_geometry::{Rect, Region};
use ocp_mesh::{connected_components_grid, Coord, Grid, TopologyKind};

/// One faulty block: a maximal connected set of unsafe nodes.
///
/// Section 3: faulty blocks in 2-D meshes are disjoint rectangles; under
/// Definition 2a any two are at distance ≥ 3, under Definition 2b ≥ 2.
#[derive(Clone, Debug)]
pub struct FaultyBlock {
    /// Member cells in machine coordinates.
    pub cells: Region,
    /// Member cells in planar coordinates (unwrapped across a torus seam);
    /// `None` if the block wraps all the way around a torus and admits no
    /// planar embedding.
    pub planar: Option<Region>,
    /// The faulty cells of the block (machine coordinates).
    pub faults: Region,
}

impl FaultyBlock {
    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the block has no members (never produced by extraction).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Nonfaulty nodes sacrificed to this block — the cost the paper's
    /// phase 2 recovers.
    pub fn nonfaulty_count(&self) -> usize {
        self.cells.len() - self.faults.len()
    }

    /// Planar bounding box (`None` for an unwrappable torus block).
    pub fn bbox(&self) -> Option<Rect> {
        self.planar.as_ref().and_then(|p| p.bbox())
    }

    /// True if the block is exactly a full rectangle (the shape Section 3
    /// guarantees). Unwrappable torus blocks report `false`.
    pub fn is_rectangle(&self) -> bool {
        self.planar.as_ref().is_some_and(|p| p.is_rectangle())
    }

    /// Block diameter `d(B)` — the paper's per-phase round bound is
    /// `max d(B)` over all blocks. `None` for unwrappable torus blocks.
    pub fn diameter(&self) -> Option<u32> {
        self.bbox().map(|b| b.diameter())
    }
}

/// Extracts the faulty blocks from a converged phase-1 grid.
///
/// # Panics
/// Panics if the safety grid covers a different machine than `map`.
pub fn extract_blocks(map: &FaultMap, safety: &Grid<SafetyState>) -> Vec<FaultyBlock> {
    assert_eq!(
        map.topology(),
        safety.topology(),
        "safety grid belongs to a different machine"
    );
    connected_components_grid(safety, |&s| s == SafetyState::Unsafe)
        .into_iter()
        .map(|comp| FaultyBlock::of_component(map, comp.cells))
        .collect()
}

impl FaultyBlock {
    /// The block over one unsafe component, given as its sorted
    /// machine-coordinate cells — the one constructor behind both the
    /// whole-machine extraction and the dirty-window splice, so the two
    /// agree field for field.
    pub(crate) fn of_component(map: &FaultMap, cells: Vec<Coord>) -> Self {
        let topology = map.topology();
        let faults: Vec<Coord> = cells
            .iter()
            .copied()
            .filter(|&c| map.is_faulty(c))
            .collect();
        // On a mesh the planar embedding is the identity — skip the
        // seam-unwrapping BFS, which dominates extraction on big blocks.
        let unwrapped =
            (topology.kind() == TopologyKind::Torus).then(|| Region::unwrapped(topology, &cells));
        let cells = Region::from_cells(cells);
        let planar = match unwrapped {
            Some(p) => p, // torus: `None` when the block wraps around
            None => Some(cells.clone()),
        };
        FaultyBlock {
            planar,
            cells,
            faults: Region::from_cells(faults),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::safety::{compute_safety, SafetyRule};
    use ocp_distsim::Executor;
    use ocp_mesh::Topology;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn blocks_of(t: Topology, faults: &[Coord], rule: SafetyRule) -> (FaultMap, Vec<FaultyBlock>) {
        let map = FaultMap::new(t, faults.iter().copied());
        let safety = compute_safety(&map, rule, Executor::Sequential, 400);
        let blocks = extract_blocks(&map, &safety.grid);
        (map, blocks)
    }

    #[test]
    fn section3_single_block() {
        let (_m, blocks) = blocks_of(
            Topology::mesh(6, 6),
            &[c(1, 3), c(2, 1), c(3, 2)],
            SafetyRule::BothDimensions,
        );
        assert_eq!(blocks.len(), 1);
        let b = &blocks[0];
        assert_eq!(b.len(), 9);
        assert_eq!(b.faults.len(), 3);
        assert_eq!(b.nonfaulty_count(), 6);
        assert!(b.is_rectangle());
        assert_eq!(b.bbox(), Some(Rect::new(c(1, 1), c(3, 3))));
        assert_eq!(b.diameter(), Some(4));
    }

    #[test]
    fn blocks_are_rectangles_on_random_patterns() {
        use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};
        for rule in [SafetyRule::TwoUnsafeNeighbors, SafetyRule::BothDimensions] {
            for seed in 0..8u64 {
                let t = Topology::mesh(20, 20);
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut all: Vec<Coord> = t.coords().collect();
                all.shuffle(&mut rng);
                let faults: Vec<Coord> = all.into_iter().take(25).collect();
                let (_m, blocks) = blocks_of(t, &faults, rule);
                for b in &blocks {
                    assert!(
                        b.is_rectangle(),
                        "{rule:?} seed {seed}: non-rect block {:?}",
                        b.cells
                    );
                }
            }
        }
    }

    #[test]
    fn block_distance_bounds() {
        use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};
        let t = Topology::mesh(24, 24);
        for (rule, min_d) in [
            (SafetyRule::TwoUnsafeNeighbors, 3),
            (SafetyRule::BothDimensions, 2),
        ] {
            for seed in 0..6u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut all: Vec<Coord> = t.coords().collect();
                all.shuffle(&mut rng);
                let faults: Vec<Coord> = all.into_iter().take(30).collect();
                let (_m, blocks) = blocks_of(t, &faults, rule);
                for i in 0..blocks.len() {
                    for j in i + 1..blocks.len() {
                        let d = blocks[i].cells.distance(&blocks[j].cells).unwrap();
                        assert!(
                            d >= min_d,
                            "{rule:?} seed {seed}: blocks at distance {d} < {min_d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn torus_seam_block_unwraps_to_rectangle() {
        let t = Topology::torus(10, 10);
        // Diagonal faults across the corner seam.
        let (_m, blocks) = blocks_of(t, &[c(9, 9), c(0, 0)], SafetyRule::BothDimensions);
        assert_eq!(blocks.len(), 1);
        let b = &blocks[0];
        assert_eq!(b.len(), 4);
        assert!(b.is_rectangle(), "seam block should unwrap to a 2x2 rect");
    }

    #[test]
    fn every_fault_is_in_exactly_one_block() {
        let faults = [c(2, 2), c(3, 3), c(10, 10), c(12, 10)];
        let (map, blocks) = blocks_of(Topology::mesh(16, 16), &faults, SafetyRule::BothDimensions);
        for f in map.faults() {
            let owners = blocks.iter().filter(|b| b.cells.contains(f)).count();
            assert_eq!(owners, 1, "fault {f} in {owners} blocks");
        }
    }

    #[test]
    fn no_faults_no_blocks() {
        let (_m, blocks) = blocks_of(Topology::mesh(8, 8), &[], SafetyRule::BothDimensions);
        assert!(blocks.is_empty());
    }
}
