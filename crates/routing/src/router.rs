//! Fault-tolerant XY routing with fault-ring traversal.
//!
//! The routing strategy is the one the paper's fault model is designed for
//! (extended e-cube in the spirit of Chalasani–Boppana): follow dimension-
//! order routing; when the next XY hop is disabled, the message is sitting
//! on the blocking region's fault ring (the hop before a disabled cell is
//! always ring-adjacent to the region). Traverse the ring to the best
//! *exit* — the ring cell closest to the destination from which XY routing
//! can resume — then continue XY. Orthogonal convexity of the fault region
//! is what guarantees such an exit exists and the traversal never has to
//! enter the region's row/column "pockets".
//!
//! [`FaultTolerantRouter`] owns the labeled view and its query tables;
//! every query entry point runs the engine in [`crate::wide`] over them,
//! and the per-hop traversal kept here is the oracle that engine is
//! pinned byte-identical to.

use crate::fault_ring::FaultRing;
use crate::index::{RouteIndex, RouteScratch};
use crate::path::{EnabledMap, Path, RoutingError};
use crate::xy::preferred_direction;
use ocp_geometry::Region;
use ocp_mesh::{Coord, Grid, Topology};
use std::cell::RefCell;
use std::collections::HashSet;

thread_local! {
    /// Per-thread scratch backing the allocation-free `route` / `route_len`
    /// entry points; callers that want explicit control use `route_into` /
    /// `route_len_with` with their own [`RouteScratch`].
    static SCRATCH: RefCell<RouteScratch> = RefCell::new(RouteScratch::new());
}

/// A router instance bound to one labeled machine state.
///
/// Cloning copies the labeled view (enabled map, rings, region index) and
/// is how `ocp-serve` shares a router per epoch snapshot; per-ring query
/// indexes are `Arc`-held and shared between clones (and between
/// incremental epochs, see [`crate::incremental`]). The router is
/// immutable after construction, so a clone — or an `Arc`-shared
/// instance — answers queries from any number of threads.
///
/// Construction also builds the query indexes (the segment table, per-ring
/// exit candidates and the exit directory, see [`crate::index`]) so that
/// per-query cost is proportional to the number of fault encounters rather
/// than to path length. Every query entry point runs the single-lane
/// traversal in [`crate::wide`] over those tables. The pre-index per-hop
/// algorithm is preserved as the oracle
/// [`route_reference`](FaultTolerantRouter::route_reference) /
/// [`route_len_reference`](FaultTolerantRouter::route_len_reference); the
/// engine is byte-identical to it by construction and by the proptest
/// suite in `tests/equivalence.rs`.
#[derive(Clone)]
pub struct FaultTolerantRouter {
    pub(crate) enabled: EnabledMap,
    pub(crate) rings: Vec<FaultRing>,
    /// For each node: index of the ring group containing it, if disabled.
    pub(crate) region_of: Grid<Option<usize>>,
    /// Ring groups: fault regions merged when diagonally adjacent.
    pub(crate) groups: Vec<Region>,
    /// Precomputed query indexes (built once per router).
    pub(crate) index: RouteIndex,
}

/// Chebyshev distance on the topology (wraparound-aware per dimension).
fn topo_chebyshev(t: Topology, a: Coord, b: Coord) -> u32 {
    let dx = a.x.abs_diff(b.x);
    let dy = a.y.abs_diff(b.y);
    match t.kind() {
        ocp_mesh::TopologyKind::Mesh => dx.max(dy),
        ocp_mesh::TopologyKind::Torus => dx.min(t.width() - dx).max(dy.min(t.height() - dy)),
    }
}

/// Lower bound on the Chebyshev gap between two coordinate intervals
/// along one axis (wraparound-aware). Zero when they overlap.
fn axis_gap(a0: i32, a1: i32, b0: i32, b1: i32, extent: i32, torus: bool) -> i32 {
    if b0 <= a1 && a0 <= b1 {
        return 0;
    }
    if torus {
        // Cyclic gap in either direction around the ring of coordinates.
        (b0 - a1)
            .rem_euclid(extent)
            .min((a0 - b1).rem_euclid(extent))
    } else if b0 > a1 {
        b0 - a1
    } else {
        a0 - b1
    }
}

/// Merges fault regions that touch (Chebyshev distance ≤ 1) into ring
/// groups. Regions two apart in Manhattan distance can still be diagonal
/// neighbors, in which case their fault rings would interleave; merging is
/// the standard fix (extended fault regions).
///
/// A bounding-box prefilter skips cell-pair scans for region pairs whose
/// boxes are provably more than one apart on some axis — the per-axis
/// interval gap lower-bounds every pairwise Chebyshev distance, so the
/// filter never separates touching regions and the output is identical to
/// the unfiltered scan.
#[allow(clippy::needless_range_loop)]
pub(crate) fn merge_touching(t: Topology, regions: &[Region]) -> Vec<Region> {
    let n = regions.len();
    let torus = t.kind() == ocp_mesh::TopologyKind::Torus;
    let (w, h) = (t.width() as i32, t.height() as i32);
    let boxes: Vec<Option<ocp_geometry::Rect>> = regions.iter().map(Region::bbox).collect();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..n {
        for j in i + 1..n {
            let (Some(bi), Some(bj)) = (&boxes[i], &boxes[j]) else {
                continue;
            };
            let gx = axis_gap(bi.min.x, bi.max.x, bj.min.x, bj.max.x, w, torus);
            let gy = axis_gap(bi.min.y, bi.max.y, bj.min.y, bj.max.y, h, torus);
            if gx.max(gy) > 1 {
                continue;
            }
            let touching = regions[i]
                .iter()
                .any(|a| regions[j].iter().any(|b| topo_chebyshev(t, a, b) <= 1));
            if touching {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                parent[ri] = rj;
            }
        }
    }
    let mut grouped: std::collections::BTreeMap<usize, Region> = Default::default();
    for i in 0..n {
        let root = find(&mut parent, i);
        let entry = grouped.entry(root).or_default();
        for c in regions[i].iter() {
            entry.insert(c);
        }
    }
    grouped.into_values().collect()
}

impl FaultTolerantRouter {
    /// Builds a router for the machine view `enabled`, around the given
    /// fault regions (typically the disabled regions of a pipeline outcome,
    /// or the faulty blocks for the baseline model). Diagonally adjacent
    /// regions are merged into one ring group, as their rings interleave.
    ///
    /// # Panics
    /// Panics if a region cell is enabled, or region grids mismatch the
    /// topology.
    pub fn new(enabled: EnabledMap, regions: &[Region]) -> Self {
        crate::incremental::build_cold(enabled, regions, 1).0
    }

    /// [`new`](Self::new) with the cold-build pipeline banded over
    /// `threads` scoped workers, returning the per-phase
    /// [`BuildBreakdown`](crate::BuildBreakdown) alongside. Output is
    /// byte-identical for every thread count.
    pub fn new_with_threads(
        enabled: EnabledMap,
        regions: &[Region],
        threads: usize,
    ) -> (Self, crate::BuildBreakdown) {
        crate::incremental::build_cold(enabled, regions, threads)
    }

    /// Rebuilds a router for the epoch `(enabled, regions)` by patching
    /// `prev`'s tables instead of constructing from scratch: untouched
    /// segment/wide lines copy their slabs, unchanged rings `Arc`-share
    /// their indexes, and matched exit-directory segments are copied (see
    /// [`crate::incremental`]). The result is byte-identical to
    /// `Self::new(enabled, regions)` — pinned by
    /// [`table_digest`](Self::table_digest) equivalence suites — so
    /// callers may use it wherever a cold build is correct.
    ///
    /// # Panics
    /// Panics if `prev` was built for a different topology, or on the
    /// same region-grid violations as [`new`](Self::new).
    pub fn rebuild_from(
        prev: &Self,
        enabled: EnabledMap,
        regions: &[Region],
    ) -> (Self, crate::BuildBreakdown) {
        crate::incremental::rebuild(prev, enabled, regions)
    }

    /// FNV-1a digest of every routing table and grid this router answers
    /// queries from. Two routers with equal digests are byte-identical
    /// for routing purposes; the incremental-vs-cold equivalence suites
    /// pin on it.
    pub fn table_digest(&self) -> u64 {
        crate::incremental::digest(self)
    }

    /// The merged ring groups the router navigates around.
    pub fn groups(&self) -> &[Region] {
        &self.groups
    }

    /// The machine.
    pub fn topology(&self) -> Topology {
        self.enabled.topology()
    }

    /// The rings the router navigates.
    pub fn rings(&self) -> &[FaultRing] {
        &self.rings
    }

    /// The enabled view.
    pub fn enabled(&self) -> &EnabledMap {
        &self.enabled
    }

    /// Routes `src → dst`, detouring around fault regions on their rings.
    pub fn route(&self, src: Coord, dst: Coord) -> Result<Path, RoutingError> {
        let mut path = Path::new(src);
        SCRATCH.with(|s| {
            crate::wide::traverse(
                self,
                src,
                dst,
                Some(&mut path.hops),
                &mut s.borrow_mut().enc,
            )
        })?;
        Ok(path)
    }

    /// Hop count of [`FaultTolerantRouter::route`] without allocating the
    /// [`Path`]: the fast path for callers that only need the cost of a
    /// route (load generators, admission estimates). Returns exactly
    /// `route(src, dst).map(|p| p.len())`.
    pub fn route_len(&self, src: Coord, dst: Coord) -> Result<usize, RoutingError> {
        SCRATCH.with(|s| crate::wide::traverse(self, src, dst, None, &mut s.borrow_mut().enc))
    }

    /// [`route`](FaultTolerantRouter::route) into a caller-owned [`Path`]
    /// buffer and scratch: the zero-allocation form for tight query loops.
    /// On success the path holds the full route and the hop count is
    /// returned; on error the buffer contents are unspecified.
    pub fn route_into(
        &self,
        src: Coord,
        dst: Coord,
        path: &mut Path,
        scratch: &mut RouteScratch,
    ) -> Result<usize, RoutingError> {
        path.hops.clear();
        path.hops.push(src);
        crate::wide::traverse(self, src, dst, Some(&mut path.hops), &mut scratch.enc)
    }

    /// [`route_len`](FaultTolerantRouter::route_len) with a caller-owned
    /// scratch, bypassing the thread-local.
    pub fn route_len_with(
        &self,
        src: Coord,
        dst: Coord,
        scratch: &mut RouteScratch,
    ) -> Result<usize, RoutingError> {
        crate::wide::traverse(self, src, dst, None, &mut scratch.enc)
    }

    /// Hop counts of many pairs, with a caller-owned scratch and output
    /// buffer: the zero-allocation batch form for serving loops. `out` is
    /// cleared and refilled with one result per pair, in pair order, each
    /// exactly [`route_len_with`](FaultTolerantRouter::route_len_with) on
    /// that pair.
    pub fn route_len_batch_with(
        &self,
        pairs: &[(Coord, Coord)],
        scratch: &mut RouteScratch,
        out: &mut Vec<Result<usize, RoutingError>>,
    ) {
        out.clear();
        out.extend(
            pairs
                .iter()
                .map(|&(src, dst)| crate::wide::traverse(self, src, dst, None, &mut scratch.enc)),
        );
    }

    /// Up to `k` pairwise vertex-disjoint routes `src → dst` (disjoint
    /// except at the endpoints). See [`crate::disjoint`] for the
    /// construction and the stretch bound the result asserts; path 1 of a
    /// `k = 1` query is byte-identical to
    /// [`route`](FaultTolerantRouter::route).
    pub fn route_disjoint(
        &self,
        src: Coord,
        dst: Coord,
        k: usize,
    ) -> Result<crate::disjoint::DisjointRoutes, RoutingError> {
        SCRATCH.with(|s| crate::disjoint::compute(self, src, dst, k, &mut s.borrow_mut()))
    }

    /// [`route_disjoint`](FaultTolerantRouter::route_disjoint) with a
    /// caller-owned scratch (the serve handles reuse theirs across
    /// queries, as with the other `_with` entry points).
    pub fn route_disjoint_with(
        &self,
        src: Coord,
        dst: Coord,
        k: usize,
        scratch: &mut RouteScratch,
    ) -> Result<crate::disjoint::DisjointRoutes, RoutingError> {
        crate::disjoint::compute(self, src, dst, k, scratch)
    }

    /// The pre-index per-hop algorithm, preserved verbatim: the oracle for
    /// the equivalence suite and the "old" side of the E17 `routeperf`
    /// comparison. Behaviorally identical to
    /// [`route`](FaultTolerantRouter::route).
    pub fn route_reference(&self, src: Coord, dst: Coord) -> Result<Path, RoutingError> {
        let mut path = Path::new(src);
        self.traverse_reference(src, dst, Some(&mut path.hops))?;
        Ok(path)
    }

    /// Hop-count form of
    /// [`route_reference`](FaultTolerantRouter::route_reference).
    pub fn route_len_reference(&self, src: Coord, dst: Coord) -> Result<usize, RoutingError> {
        self.traverse_reference(src, dst, None)
    }

    /// The pre-index traversal core, preserved for
    /// [`route_reference`](FaultTolerantRouter::route_reference): per-hop
    /// XY steps, linear `position_of`, full-perimeter `best_exit`, and a
    /// per-query `HashSet` livelock guard.
    fn traverse_reference(
        &self,
        src: Coord,
        dst: Coord,
        mut record: Option<&mut Vec<Coord>>,
    ) -> Result<usize, RoutingError> {
        let t = self.topology();
        for endpoint in [src, dst] {
            if !self.enabled.is_enabled(endpoint) {
                return Err(RoutingError::EndpointDisabled { node: endpoint });
            }
        }
        let mut hops = 0usize;
        let mut cur = src;
        // Livelock guard: never traverse the same ring from the same entry
        // cell twice.
        let mut ring_entries: HashSet<(usize, Coord)> = HashSet::new();
        let cap = (t.len() * 4).max(64);

        while cur != dst {
            if hops + 1 > cap {
                return Err(RoutingError::LivelockDetected);
            }
            let dir = preferred_direction(t, cur, dst).expect("cur != dst");
            let next = t
                .neighbor(cur, dir)
                .coord()
                .expect("XY never leaves the machine");
            if self.enabled.is_enabled(next) {
                if let Some(hops_out) = record.as_mut() {
                    hops_out.push(next);
                }
                hops += 1;
                cur = next;
                continue;
            }
            // Blocked: identify the region and traverse its ring.
            let region_idx = self
                .region_of
                .get(next)
                .expect("disabled non-region cell blocks XY");
            let ring = &self.rings[region_idx];
            if !ring.is_cycle() {
                return Err(RoutingError::BoundaryFaultChain);
            }
            if !ring_entries.insert((region_idx, cur)) {
                return Err(RoutingError::LivelockDetected);
            }
            let here = ring
                .position_of(cur)
                .expect("blocked node is on the blocking region's ring");
            let exit = self
                .best_exit(ring, dst)
                .ok_or(RoutingError::LivelockDetected)?;
            match record.as_mut() {
                Some(hops_out) => {
                    let walk = ring.shorter_walk(here, exit);
                    hops += walk.len();
                    hops_out.extend(walk);
                    cur = *hops_out.last().expect("path never empty");
                }
                None => {
                    hops += ring.shorter_walk_len(here, exit);
                    cur = ring.cycle_cell(exit).expect("exit is a cycle position");
                }
            }
        }
        Ok(hops)
    }

    /// The ring position whose cell minimizes remaining distance to `dst`
    /// among cells from which the immediate XY hop is not blocked by the
    /// same ring's region (or is the destination itself).
    fn best_exit(&self, ring: &FaultRing, dst: Coord) -> Option<usize> {
        let t = self.topology();
        let cells = match &ring.shape {
            crate::fault_ring::RingShape::Cycle(v) => v,
            crate::fault_ring::RingShape::Chain(_) => return None,
        };
        cells
            .iter()
            .enumerate()
            .filter(|(_, &c)| {
                if c == dst {
                    return true;
                }
                match preferred_direction(t, c, dst) {
                    Some(d) => {
                        let nxt = t.neighbor(c, d).coord().expect("XY stays inside");
                        // Exit must immediately escape this region (other
                        // regions are handled by subsequent traversals).
                        self.region_of.get(nxt) != &Some(ring.region_index)
                    }
                    None => true,
                }
            })
            .min_by_key(|(_, &c)| t.distance(c, dst))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocp_core::prelude::*;
    use ocp_mesh::Topology;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    /// Router over the disabled regions of a labeled machine.
    fn dr_router(t: Topology, faults: &[Coord]) -> FaultTolerantRouter {
        let map = FaultMap::new(t, faults.iter().copied());
        let out = run_pipeline(&map, &PipelineConfig::default());
        let enabled = crate::path::EnabledMap::from_outcome(&out);
        let regions: Vec<Region> = out.regions.iter().map(|r| r.cells.clone()).collect();
        FaultTolerantRouter::new(enabled, &regions)
    }

    #[test]
    fn unobstructed_routes_stay_minimal() {
        let router = dr_router(Topology::mesh(10, 10), &[c(5, 5)]);
        let p = router.route(c(0, 0), c(3, 0)).unwrap();
        assert_eq!(p.len(), 3);
        p.validate(router.enabled()).unwrap();
    }

    #[test]
    fn detours_around_single_fault() {
        let router = dr_router(Topology::mesh(9, 9), &[c(4, 4)]);
        let p = router.route(c(0, 4), c(8, 4)).unwrap();
        p.validate(router.enabled()).unwrap();
        // Minimal possible detour around one cell costs 2 extra hops.
        assert_eq!(p.len(), 10);
    }

    #[test]
    fn detours_around_block() {
        // Diagonal faults -> 2x2 disabled block in the middle of row 4/5.
        let router = dr_router(Topology::mesh(12, 12), &[c(5, 4), c(6, 5)]);
        let p = router.route(c(0, 4), c(11, 4)).unwrap();
        p.validate(router.enabled()).unwrap();
        assert!(p.len() >= 11, "must detour");
        assert!(p.len() <= 15, "detour should be tight, got {}", p.len());
    }

    #[test]
    fn all_pairs_delivery_matches_bfs_reachability() {
        let t = Topology::mesh(10, 10);
        let faults = [c(4, 4), c(5, 5), c(4, 5), c(8, 2), c(2, 7)];
        let router = dr_router(t, &faults);
        let enabled = router.enabled().clone();
        let nodes = enabled.enabled_coords();
        let mut routed = 0usize;
        let mut failures = 0usize;
        for (i, &src) in nodes.iter().enumerate().step_by(7) {
            for &dst in nodes.iter().skip(i % 3).step_by(11) {
                let bfs = crate::oracle::bfs_path(&enabled, src, dst);
                match (router.route(src, dst), bfs) {
                    (Ok(p), Ok(q)) => {
                        p.validate(&enabled).unwrap();
                        assert!(p.len() >= q.len());
                        routed += 1;
                    }
                    (Err(_), Ok(_)) => failures += 1,
                    (_, Err(_)) => {} // genuinely unreachable
                }
            }
        }
        assert!(routed > 50, "sampled too few pairs");
        assert_eq!(failures, 0, "router failed on reachable pairs");
    }

    #[test]
    fn boundary_chain_is_reported() {
        // Fault hugging the west edge: its ring is an open chain; routes
        // blocked by it report BoundaryFaultChain.
        let router = dr_router(Topology::mesh(8, 8), &[c(0, 4)]);
        let err = router.route(c(0, 0), c(0, 7)).unwrap_err();
        assert_eq!(err, RoutingError::BoundaryFaultChain);
        // ...but unrelated routes still work.
        assert!(router.route(c(3, 0), c(3, 7)).is_ok());
    }

    #[test]
    fn torus_ring_traversal_works_at_seam() {
        let router = dr_router(Topology::torus(10, 10), &[c(0, 5)]);
        let p = router.route(c(8, 5), c(2, 5)).unwrap();
        p.validate(router.enabled()).unwrap();
        // Minimal distance is 4 through the seam; the fault adds a detour.
        assert!(p.len() >= 4 && p.len() <= 8, "got {}", p.len());
    }

    #[test]
    fn route_len_matches_route_everywhere() {
        // Mixed workload: open space, a merged diagonal block, a lone
        // fault, and a boundary chain — every router outcome class.
        let t = Topology::mesh(12, 12);
        let faults = [c(5, 4), c(6, 5), c(9, 9), c(0, 6), c(2, 2)];
        let router = dr_router(t, &faults);
        let nodes = router.enabled().enabled_coords();
        let mut checked = 0usize;
        for (i, &src) in nodes.iter().enumerate().step_by(5) {
            for &dst in nodes.iter().skip(i % 4).step_by(9) {
                match (router.route(src, dst), router.route_len(src, dst)) {
                    (Ok(p), Ok(len)) => assert_eq!(p.len(), len, "{src}->{dst}"),
                    (Err(a), Err(b)) => assert_eq!(a, b, "{src}->{dst}"),
                    (a, b) => panic!("{src}->{dst}: route {a:?} vs route_len {b:?}"),
                }
                checked += 1;
            }
        }
        assert!(checked > 100, "sampled too few pairs");
    }

    #[test]
    fn route_len_matches_on_torus_seam() {
        let router = dr_router(Topology::torus(10, 10), &[c(0, 5)]);
        let p = router.route(c(8, 5), c(2, 5)).unwrap();
        assert_eq!(router.route_len(c(8, 5), c(2, 5)).unwrap(), p.len());
    }

    #[test]
    fn cloned_router_routes_identically() {
        let router = dr_router(Topology::mesh(9, 9), &[c(4, 4)]);
        let copy = router.clone();
        let (src, dst) = (c(0, 4), c(8, 4));
        assert_eq!(router.route(src, dst), copy.route(src, dst));
        assert_eq!(copy.groups().len(), router.groups().len());
    }

    #[test]
    fn endpoint_in_region_rejected() {
        let router = dr_router(Topology::mesh(8, 8), &[c(3, 3)]);
        assert!(matches!(
            router.route(c(3, 3), c(0, 0)),
            Err(RoutingError::EndpointDisabled { .. })
        ));
    }
}
