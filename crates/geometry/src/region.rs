//! Arbitrary finite cell sets.

use crate::Rect;
use ocp_mesh::{Coord, Neighborhood, Topology};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

/// A finite set of grid cells.
///
/// This is the working representation for faulty blocks, disabled regions and
/// fault sets. Cells are kept in a sorted set, so iteration order — and
/// therefore everything derived from it — is deterministic.
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Region {
    cells: BTreeSet<Coord>,
}

impl Region {
    /// The empty region.
    pub fn new() -> Self {
        Self::default()
    }

    /// Region over the given cells (duplicates collapse).
    pub fn from_cells<I: IntoIterator<Item = Coord>>(cells: I) -> Self {
        Self {
            cells: cells.into_iter().collect(),
        }
    }

    /// Region of an entire rectangle.
    pub fn from_rect(rect: Rect) -> Self {
        Self::from_cells(rect.cells())
    }

    /// Unwraps a *connected* cell set living on `topology` into planar
    /// coordinates, so that planar geometry (convexity, closure) applies.
    ///
    /// On a mesh this is the identity. On a torus, a connected component may
    /// straddle the wraparound seam; this walks the component from its first
    /// cell, assigning each cell the planar offset of the path that reached
    /// it. Returns `None` if the component wraps all the way around the
    /// torus (no consistent planar embedding exists — such a region can
    /// never be a finite orthogonal convex polygon).
    pub fn unwrapped(topology: Topology, cells: &[Coord]) -> Option<Self> {
        Self::unwrap_mapping(topology, cells).map(|mapping| Self::from_cells(mapping.into_values()))
    }

    /// Like [`Region::unwrapped`], but returns the full machine-coordinate →
    /// planar-coordinate mapping, so callers can translate *subsets* (e.g.
    /// the faults of a region) consistently with the embedding.
    pub fn unwrap_mapping(topology: Topology, cells: &[Coord]) -> Option<HashMap<Coord, Coord>> {
        let member: BTreeSet<Coord> = cells.iter().copied().collect();
        let Some(&start) = member.first() else {
            return Some(HashMap::new());
        };
        let mut planar: HashMap<Coord, Coord> = HashMap::with_capacity(member.len());
        planar.insert(start, start);
        let mut queue = VecDeque::from([start]);
        while let Some(c) = queue.pop_front() {
            let base = planar[&c];
            for (dir, n) in Neighborhood::of(topology, c).iter() {
                let Some(nc) = n.coord() else { continue };
                if !member.contains(&nc) {
                    continue;
                }
                let candidate = base.step(dir);
                match planar.get(&nc) {
                    Some(&existing) if existing != candidate => return None, // wraps around
                    Some(_) => {}
                    None => {
                        planar.insert(nc, candidate);
                        queue.push_back(nc);
                    }
                }
            }
        }
        if planar.len() != member.len() {
            // `cells` was not connected; unreached cells have no defined offset.
            return None;
        }
        Some(planar)
    }

    /// The smallest cell in `Coord` order (`(x, y)` lexicographic).
    pub fn first(&self) -> Option<Coord> {
        self.cells.first().copied()
    }

    /// The largest cell in `Coord` order.
    pub fn last(&self) -> Option<Coord> {
        self.cells.last().copied()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the region has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, c: Coord) -> bool {
        self.cells.contains(&c)
    }

    /// Inserts a cell; returns true if it was new.
    pub fn insert(&mut self, c: Coord) -> bool {
        self.cells.insert(c)
    }

    /// Removes a cell; returns true if it was present.
    pub fn remove(&mut self, c: Coord) -> bool {
        self.cells.remove(&c)
    }

    /// Iterates cells in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        self.cells.iter().copied()
    }

    /// True if every cell of `other` is in `self`.
    pub fn is_superset(&self, other: &Region) -> bool {
        other.cells.is_subset(&self.cells)
    }

    /// Cells of `self` not in `other`.
    pub fn difference(&self, other: &Region) -> Region {
        Region {
            cells: self.cells.difference(&other.cells).copied().collect(),
        }
    }

    /// Bounding box; `None` when empty.
    pub fn bbox(&self) -> Option<Rect> {
        Rect::bounding(self.iter())
    }

    /// True if the cells form one 4-connected component (planar adjacency).
    /// The empty region counts as connected.
    pub fn is_connected(&self) -> bool {
        let Some(&start) = self.cells.first() else {
            return true;
        };
        let mut seen = BTreeSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(c) = queue.pop_front() {
            for n in c.raw_neighbors() {
                if self.cells.contains(&n) && seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        seen.len() == self.cells.len()
    }

    /// True if the region is exactly a full rectangle.
    pub fn is_rectangle(&self) -> bool {
        match self.bbox() {
            None => true, // vacuously (empty region)
            Some(r) => r.area() == self.len(),
        }
    }

    /// For every occupied row `y`: the sorted x-coordinates present.
    pub fn rows(&self) -> BTreeMap<i32, Vec<i32>> {
        let mut rows: BTreeMap<i32, Vec<i32>> = BTreeMap::new();
        for c in self.iter() {
            rows.entry(c.y).or_default().push(c.x);
        }
        for xs in rows.values_mut() {
            xs.sort_unstable();
        }
        rows
    }

    /// For every occupied column `x`: the sorted y-coordinates present.
    pub fn cols(&self) -> BTreeMap<i32, Vec<i32>> {
        let mut cols: BTreeMap<i32, Vec<i32>> = BTreeMap::new();
        for c in self.iter() {
            cols.entry(c.x).or_default().push(c.y);
        }
        for ys in cols.values_mut() {
            ys.sort_unstable();
        }
        cols
    }

    /// Minimum Manhattan distance between a cell of `self` and one of
    /// `other`; `None` if either is empty. This is the region-distance
    /// `d(A, B)` of Section 3.
    pub fn distance(&self, other: &Region) -> Option<u32> {
        if self.is_empty() || other.is_empty() {
            return None;
        }
        let mut best = u32::MAX;
        for a in self.iter() {
            for b in other.iter() {
                best = best.min(a.manhattan(b));
                if best == 0 {
                    return Some(0);
                }
            }
        }
        Some(best)
    }
}

impl FromIterator<Coord> for Region {
    fn from_iter<I: IntoIterator<Item = Coord>>(iter: I) -> Self {
        Self::from_cells(iter)
    }
}

impl<'a> IntoIterator for &'a Region {
    type Item = Coord;
    type IntoIter = std::iter::Copied<std::collections::btree_set::Iter<'a, Coord>>;

    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter().copied()
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Region{:?}", self.cells.iter().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn region(raw: &[(i32, i32)]) -> Region {
        Region::from_cells(raw.iter().map(|&(x, y)| c(x, y)))
    }

    #[test]
    fn basic_set_operations() {
        let mut r = region(&[(0, 0), (1, 0)]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(c(1, 0)));
        assert!(r.insert(c(2, 0)));
        assert!(!r.insert(c(2, 0)));
        assert!(r.remove(c(0, 0)));
        assert!(!r.remove(c(0, 0)));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn connectivity() {
        assert!(Region::new().is_connected());
        assert!(region(&[(0, 0)]).is_connected());
        assert!(region(&[(0, 0), (0, 1), (1, 1)]).is_connected());
        assert!(!region(&[(0, 0), (1, 1)]).is_connected()); // diagonal only
        assert!(!region(&[(0, 0), (2, 0)]).is_connected());
    }

    #[test]
    fn rectangle_detection() {
        assert!(Region::from_rect(Rect::new(c(1, 1), c(3, 2))).is_rectangle());
        let mut r = Region::from_rect(Rect::new(c(0, 0), c(2, 2)));
        r.remove(c(1, 1));
        assert!(!r.is_rectangle());
        assert!(Region::new().is_rectangle());
        assert!(region(&[(4, 4)]).is_rectangle());
    }

    #[test]
    fn rows_and_cols_views() {
        let r = region(&[(0, 0), (2, 0), (1, 1)]);
        let rows = r.rows();
        assert_eq!(rows[&0], vec![0, 2]);
        assert_eq!(rows[&1], vec![1]);
        let cols = r.cols();
        assert_eq!(cols[&0], vec![0]);
        assert_eq!(cols[&1], vec![1]);
        assert_eq!(cols[&2], vec![0]);
    }

    #[test]
    fn region_distance() {
        let a = region(&[(0, 0), (0, 1)]);
        let b = region(&[(3, 0)]);
        assert_eq!(a.distance(&b), Some(3));
        assert_eq!(a.distance(&a), Some(0));
        assert_eq!(a.distance(&Region::new()), None);
    }

    #[test]
    fn superset_and_difference() {
        let big = region(&[(0, 0), (1, 0), (2, 0)]);
        let small = region(&[(1, 0)]);
        assert!(big.is_superset(&small));
        assert!(!small.is_superset(&big));
        assert_eq!(big.difference(&small), region(&[(0, 0), (2, 0)]));
    }

    #[test]
    fn unwrapped_identity_on_mesh() {
        let t = Topology::mesh(6, 6);
        let cells = vec![c(0, 0), c(0, 1), c(1, 1)];
        let r = Region::unwrapped(t, &cells).unwrap();
        assert_eq!(r, region(&[(0, 0), (0, 1), (1, 1)]));
    }

    #[test]
    fn unwrapped_translates_torus_seam_component() {
        // Cells straddling the x seam of a 6-wide torus: (5, 2) and (0, 2).
        let t = Topology::torus(6, 6);
        let r = Region::unwrapped(t, &[c(5, 2), c(0, 2)]).unwrap();
        // Planar embedding keeps them adjacent.
        let cells: Vec<_> = r.iter().collect();
        assert_eq!(cells.len(), 2);
        assert!(cells[0].is_adjacent(cells[1]));
    }

    #[test]
    fn unwrapped_rejects_full_wrap() {
        // A full ring around the torus has no planar embedding.
        let t = Topology::torus(5, 3);
        let ring: Vec<_> = (0..5).map(|x| c(x, 1)).collect();
        assert!(Region::unwrapped(t, &ring).is_none());
    }

    #[test]
    fn unwrapped_rejects_disconnected_input() {
        let t = Topology::mesh(8, 8);
        assert!(Region::unwrapped(t, &[c(0, 0), c(4, 4)]).is_none());
    }

    #[test]
    fn bbox() {
        assert_eq!(Region::new().bbox(), None);
        assert_eq!(
            region(&[(1, 5), (3, 2)]).bbox(),
            Some(Rect::new(c(1, 2), c(3, 5)))
        );
    }
}
