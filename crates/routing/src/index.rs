//! Per-snapshot query indexes for the fault-tolerant router.
//!
//! [`crate::router::FaultTolerantRouter::new`] builds these tables once per
//! labeled machine view (in `ocp-serve`, once per epoch snapshot) so the
//! per-query traversal does work proportional to the number of *fault
//! encounters*, not to path length:
//!
//! * [`RouteIndex`] — every table one router answers from: the segment
//!   table ([`crate::layout::WideSegments`]: per-row and per-column
//!   sorted disabled coordinates, whose probe jumps a whole unobstructed
//!   XY segment at once), the packed exit candidates and exit directory,
//!   and a `ring << 16 | position` grid for O(1) `position_of`.
//! * [`RingIndex`] — per-ring `coord → cycle position` table (hash-free
//!   O(log n) `position_of`) plus an exact exit-candidate index: the only
//!   cycle positions where the router's exit objective can attain a
//!   minimum are corners of the ring walk, cells whose region-blocked
//!   status changes, and cells aligned with (or torus-antipodal to) the
//!   destination's row/column. The exit scan evaluates just those
//!   candidates — with precomputed feasibility masks — instead of the
//!   whole perimeter.
//! * [`RouteScratch`] — reusable traversal state (livelock guard, exit
//!   memo, batch staging) so `route_len` performs no heap allocation
//!   after warm-up.
//!
//! Correctness contract: the traversals in [`crate::wide`] must be
//! *byte-identical* to the reference per-hop traversal (same paths, same
//! hop counts, same errors); `crates/routing/tests/equivalence.rs`
//! enforces this property on random mesh and torus fault maps.

use crate::fault_ring::{FaultRing, RingShape};
use crate::incremental::{BuildBreakdown, Fnv};
use crate::layout::{ExitDirectory, WideRings, WideSegments};
use crate::path::EnabledMap;
use ocp_mesh::{Coord, Direction, Grid, Topology, TopologyKind, DIRECTIONS};
use std::sync::Arc;

/// Marker entry in [`RouteIndex::position`]'s grid for cells on no
/// (encodable) ring. Unambiguous: a real entry would need ring index and
/// cycle position both `0xFFFF`, which the builder refuses to encode.
const NO_RING_POS: u32 = u32::MAX;

/// Marker region code for a disabled cell outside every fault region
/// (would make the traversal's "disabled non-region cell" invariant fail,
/// exactly like the reference path's `expect`).
pub(crate) const NO_REGION: u32 = u32::MAX;

/// The feasibility-mask bit for direction `d` (see
/// [`CandidateColumns::masks`]).
pub(crate) fn dir_bit(d: Direction) -> u8 {
    match d {
        Direction::West => 1,
        Direction::East => 2,
        Direction::South => 4,
        Direction::North => 8,
    }
}

/// Sort/search key of an in-machine coordinate (non-negative components).
fn coord_key(c: Coord) -> u64 {
    ((c.y as u32 as u64) << 32) | c.x as u32 as u64
}

/// Structure-of-arrays store of exit candidates: cell coordinates,
/// precomputed infeasibility masks, and cycle positions in parallel
/// columns. [`WideRings`] packs them into scan words for compact rings;
/// the u64 exit scan of `wide.rs` reads them directly for the rest.
#[derive(Clone, Debug, Default)]
pub(crate) struct CandidateColumns {
    /// Cell x per candidate.
    pub xs: Vec<i32>,
    /// Cell y per candidate.
    pub ys: Vec<i32>,
    /// Infeasibility bits per candidate ([`dir_bit`]`(d)` set ⇔ the
    /// neighbor in `d` lies in the ring's region, i.e. the exit predicate
    /// rejects an exit toward `d`).
    pub masks: Vec<u8>,
    /// Cycle position per candidate.
    pub poss: Vec<u32>,
}

impl CandidateColumns {
    /// Number of stored candidates.
    pub fn len(&self) -> usize {
        self.xs.len()
    }
}

/// Per-ring query index. Only cycle rings are indexed; chains keep the
/// default empty index (the router rejects them before lookup).
///
/// The exit-candidate set is *exact*, not padded: the minimum of the exit
/// objective over feasible cycle positions is provably attained at a
/// position where either the distance slope can change (ring-walk corners
/// — including both endpoints of diagonal steps — destination-aligned
/// cells, torus-antipodal cells) or the feasibility predicate can change
/// (both endpoints of every per-direction region-blocked transition).
/// Between two consecutive candidates the walk direction, the preferred
/// direction toward `dst`, and every blocked bit are constant, so the
/// distance is strictly monotone across the gap and no interior position
/// can be a minimum.
#[derive(Clone, Debug, Default)]
pub(crate) struct RingIndex {
    /// `(coord key, cycle position)` sorted by key — hash-free
    /// `position_of` in O(log n).
    sorted: Vec<(u64, u32)>,
    /// Destination-independent exit candidates: ring-walk corners and
    /// region-blocked-status transitions; ascending by position,
    /// deduplicated. (Exposed crate-wide so
    /// [`crate::layout::WideRings`] can pack them into scan words.)
    pub static_candidates: CandidateColumns,
    /// CSR of candidates per column: column `x` holds the `cols` range
    /// `col_off[x]..col_off[x + 1]`.
    pub col_off: Vec<u32>,
    /// Candidates grouped by column, CSR order.
    pub cols: CandidateColumns,
    /// CSR of candidates per row.
    pub row_off: Vec<u32>,
    /// Candidates grouped by row, CSR order.
    pub rows: CandidateColumns,
    /// Whether the exit objective fits the packed-u32 scan: cycle
    /// positions in 16 bits and distances in 15.
    compact: bool,
}

/// Builds one CSR side (`off`, `data`) over `extent` lines keyed by `line`.
fn build_csr(
    cells: &[Coord],
    masks: &[u8],
    extent: usize,
    line: impl Fn(Coord) -> usize,
) -> (Vec<u32>, CandidateColumns) {
    let n = cells.len();
    let mut off = vec![0u32; extent + 1];
    for &c in cells {
        off[line(c) + 1] += 1;
    }
    for i in 0..extent {
        off[i + 1] += off[i];
    }
    let mut cursor = off.clone();
    let mut data = CandidateColumns {
        xs: vec![0; n],
        ys: vec![0; n],
        masks: vec![0; n],
        poss: vec![0; n],
    };
    for (i, &c) in cells.iter().enumerate() {
        let slot = &mut cursor[line(c)];
        let s = *slot as usize;
        data.xs[s] = c.x;
        data.ys[s] = c.y;
        data.masks[s] = masks[i];
        data.poss[s] = i as u32;
        *slot += 1;
    }
    (off, data)
}

impl RingIndex {
    /// Builds the index of one ring. `region_of` is the router's region
    /// membership grid, used to precompute the feasibility masks.
    pub fn build(t: Topology, ring: &FaultRing, region_of: &Grid<Option<usize>>) -> Self {
        let RingShape::Cycle(cells) = &ring.shape else {
            return Self::default();
        };
        let n = cells.len();
        let mut sorted: Vec<(u64, u32)> = cells
            .iter()
            .enumerate()
            .map(|(i, &c)| (coord_key(c), i as u32))
            .collect();
        sorted.sort_unstable();

        // Feasibility masks: which XY hops out of each ring cell are
        // blocked by this ring's own region.
        let masks: Vec<u8> = cells
            .iter()
            .map(|&c| {
                DIRECTIONS
                    .into_iter()
                    .filter(|&d| {
                        t.neighbor(c, d)
                            .coord()
                            .is_some_and(|nxt| region_of.get(nxt) == &Some(ring.region_index))
                    })
                    .fold(0u8, |acc, d| acc | dir_bit(d))
            })
            .collect();
        let (col_off, cols) = build_csr(cells, &masks, t.width() as usize, |c| c.x as usize);
        let (row_off, rows) = build_csr(cells, &masks, t.height() as usize, |c| c.y as usize);

        let mut marked = vec![false; n];
        // Corners: the walk direction changes at cell i (`None` covers
        // diagonal steps, whose flats need both endpoints).
        for i in 0..n {
            let before = dir_between(t, cells[(i + n - 1) % n], cells[i]);
            let after = dir_between(t, cells[i], cells[(i + 1) % n]);
            if before.is_none() || before != after {
                marked[i] = true;
            }
        }
        // Feasibility transitions: pred(c) can only change where some
        // blocked bit changes; both sides of the change are breakpoints.
        for i in 0..n {
            let j = (i + 1) % n;
            if masks[i] != masks[j] {
                marked[i] = true;
                marked[j] = true;
            }
        }
        let mut static_candidates = CandidateColumns::default();
        for (i, &c) in cells.iter().enumerate().filter(|&(i, _)| marked[i]) {
            static_candidates.xs.push(c.x);
            static_candidates.ys.push(c.y);
            static_candidates.masks.push(masks[i]);
            static_candidates.poss.push(i as u32);
        }
        let compact = n <= usize::from(u16::MAX) && t.width() as u64 + t.height() as u64 <= 0x8000;
        Self {
            sorted,
            static_candidates,
            col_off,
            cols,
            row_off,
            rows,
            compact,
        }
    }

    /// Whether the packed-u32 exit scan is valid for this ring (always,
    /// except on machines with perimeter-scale rings or extents summing
    /// past 2^15, which fall back to the u64 scan).
    pub fn compact(&self) -> bool {
        self.compact
    }

    /// Whether this is the empty default index (a chain ring, which the
    /// router rejects before any exit lookup).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Cycle position of `c` in O(log n), hash-free (`None` for
    /// non-members and chains).
    pub fn position(&self, c: Coord) -> Option<usize> {
        let key = coord_key(c);
        self.sorted
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.sorted[i].1 as usize)
    }

    /// Range of `cols` holding candidates in column `x`.
    fn column(&self, x: i32) -> core::ops::Range<usize> {
        self.col_off[x as usize] as usize..self.col_off[x as usize + 1] as usize
    }

    /// Range of `rows` holding candidates in row `y`.
    fn row(&self, y: i32) -> core::ops::Range<usize> {
        self.row_off[y as usize] as usize..self.row_off[y as usize + 1] as usize
    }

    /// Feeds the whole ring index into the router digest.
    pub fn digest(&self, h: &mut Fnv) {
        h.u64(self.sorted.len() as u64);
        for &(k, p) in &self.sorted {
            h.u64(k);
            h.u64(u64::from(p));
        }
        let cands = |h: &mut Fnv, c: &CandidateColumns| {
            h.u64(c.len() as u64);
            for i in 0..c.len() {
                h.coord(Coord::new(c.xs[i], c.ys[i]));
                h.u64((u64::from(c.masks[i]) << 32) | u64::from(c.poss[i]));
            }
        };
        cands(h, &self.static_candidates);
        h.u32s(&self.col_off);
        cands(h, &self.cols);
        h.u32s(&self.row_off);
        cands(h, &self.rows);
        h.u64(u64::from(self.compact));
    }

    /// Calls `f` on every `(columns, range)` slice holding a cycle
    /// position where the exit objective (feasibility predicate + distance
    /// to `dst`) can attain its minimum: the static candidates plus cells
    /// on `dst`'s column/row and, on a torus, the antipodal
    /// column(s)/row(s) where the wrap distance kinks (two lines per axis,
    /// covering odd extents' flat step). The slices are scanned in place —
    /// no candidate is ever copied — and may overlap. Must only be called
    /// for cycle rings.
    pub fn candidate_slices(
        &self,
        t: Topology,
        dst: Coord,
        mut f: impl FnMut(&CandidateColumns, core::ops::Range<usize>),
    ) {
        f(&self.static_candidates, 0..self.static_candidates.len());
        f(&self.cols, self.column(dst.x));
        f(&self.rows, self.row(dst.y));
        if t.kind() == TopologyKind::Torus {
            let (w, h) = (t.width() as i32, t.height() as i32);
            for ax in [(dst.x + w / 2) % w, (dst.x + (w + 1) / 2) % w] {
                f(&self.cols, self.column(ax));
            }
            for ay in [(dst.y + h / 2) % h, (dst.y + (h + 1) / 2) % h] {
                f(&self.rows, self.row(ay));
            }
        }
    }
}

/// The direction `d` with `t.neighbor(a, d) == b`, for adjacent cells
/// (torus-wrap aware). `None` if the cells are not linked.
fn dir_between(t: Topology, a: Coord, b: Coord) -> Option<Direction> {
    DIRECTIONS
        .into_iter()
        .find(|&d| t.neighbor(a, d).coord() == Some(b))
}

/// All per-snapshot indexes of one router, built in
/// `FaultTolerantRouter::new`.
#[derive(Clone, Debug)]
pub(crate) struct RouteIndex {
    /// Row/column disabled-coordinate tables for segment-jump XY.
    pub segments: WideSegments,
    /// One [`RingIndex`] per fault ring, in ring order. `Arc`-held so an
    /// incremental epoch build shares unchanged rings with its
    /// predecessor instead of recomputing them.
    pub rings: Vec<Arc<RingIndex>>,
    /// Cache-packed per-ring exit-candidate words.
    pub wide_rings: WideRings,
    /// O(1) best-exit directory for destinations outside each ring's
    /// bounding box (mesh snapshots; tori always scan).
    pub exit_dir: ExitDirectory,
    /// `ring << 16 | cycle position` of the first ring each cell appears
    /// on ([`NO_RING_POS`] elsewhere) — one 4-byte grid probe resolves
    /// almost every `position_of`. Cells sitting on a *second* ring as
    /// well (two non-merged regions two apart) fall back to that ring's
    /// sorted-key search.
    pub ring_pos: Grid<u32>,
}

/// The `ring << 16 | position` grid (see [`RouteIndex::ring_pos`]) —
/// linear in ring cells, so both cold and incremental builds regenerate
/// it fresh.
pub(crate) fn build_ring_pos(t: Topology, rings: &[FaultRing]) -> Grid<u32> {
    let mut ring_pos = Grid::filled(t, NO_RING_POS);
    for (r, ring) in rings.iter().enumerate() {
        let RingShape::Cycle(cells) = &ring.shape else {
            continue;
        };
        // Rings or positions past 16 bits stay unencoded and resolve
        // through the per-ring fallback.
        if r >= usize::from(u16::MAX) || cells.len() > usize::from(u16::MAX) {
            continue;
        }
        for (i, &c) in cells.iter().enumerate() {
            if *ring_pos.get(c) == NO_RING_POS {
                ring_pos.set(c, ((r as u32) << 16) | i as u32);
            }
        }
    }
    ring_pos
}

impl RouteIndex {
    /// Builds all indexes for the given labeled view, spreading the
    /// per-line and per-ring phases over `threads` bands and recording
    /// the phase timings into `stats`.
    pub fn build(
        enabled: &EnabledMap,
        rings: &[FaultRing],
        region_of: &Grid<Option<usize>>,
        threads: usize,
        stats: &mut BuildBreakdown,
    ) -> Self {
        use std::time::Instant;
        let t = enabled.topology();
        let ring_start = Instant::now();
        let ring_pos = build_ring_pos(t, rings);
        let ring_indexes: Vec<Arc<RingIndex>> =
            crate::incremental::par_map(rings.len(), threads, |i| {
                Arc::new(RingIndex::build(t, &rings[i], region_of))
            });
        stats.ring_ns += ring_start.elapsed().as_nanos() as u64;

        let seg_start = Instant::now();
        let segments = WideSegments::build(enabled, region_of, rings, &ring_indexes, threads);
        stats.segment_ns += seg_start.elapsed().as_nanos() as u64;

        let wide_start = Instant::now();
        let wide_rings = WideRings::build(&ring_indexes);
        stats.wide_ns += wide_start.elapsed().as_nanos() as u64;

        let exit_start = Instant::now();
        let exit_dir = ExitDirectory::build(t, rings, &ring_indexes, &wide_rings, threads);
        stats.exit_ns += exit_start.elapsed().as_nanos() as u64;
        Self {
            segments,
            rings: ring_indexes,
            wide_rings,
            exit_dir,
            ring_pos,
        }
    }

    /// Feeds every index table into the router digest.
    pub fn digest(&self, h: &mut Fnv) {
        self.segments.digest(h);
        h.u64(self.rings.len() as u64);
        for ring in &self.rings {
            ring.digest(h);
        }
        self.wide_rings.digest(h);
        self.exit_dir.digest(h);
        for (_, &v) in self.ring_pos.iter() {
            h.u64(u64::from(v));
        }
    }

    /// Cycle position of `c` on ring `region_idx`: O(1) via the position
    /// grid, falling back to the ring's sorted table when the grid entry
    /// belongs to a different ring (or was too large to encode). `None`
    /// when `c` is not on that ring.
    pub fn position(&self, region_idx: usize, c: Coord) -> Option<usize> {
        let v = *self.ring_pos.get(c);
        if v != NO_RING_POS && (v >> 16) as usize == region_idx {
            Some((v & 0xFFFF) as usize)
        } else {
            self.rings[region_idx].position(c)
        }
    }
}

/// Reusable traversal state for the query paths.
///
/// One scratch serves any number of sequential queries against any router;
/// its buffers are cleared (not freed) between traversals, so a warmed-up
/// `route_len` performs no heap allocation. `FaultTolerantRouter::route`
/// and `route_len` use a thread-local scratch transparently; callers in
/// tight loops can hold their own and use `route_into` /
/// `route_len_with`.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// Livelock guard and exit memo of the single-lane traversal.
    pub(crate) enc: crate::wide::Encounters,
    /// SoA staging buffers for the batch engine
    /// (`FaultTolerantRouter::route_len_batch`).
    pub(crate) wide: crate::wide::WideBuffers,
}

impl RouteScratch {
    /// A fresh scratch. Equivalent to `RouteScratch::default()`.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_ring::{FaultRing, RingShape};
    use crate::wide::{advance_by, probe_next, probe_search, Encounters, DIRS};
    use ocp_mesh::Grid;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_map(t: Topology, density: f64, seed: u64) -> EnabledMap {
        let mut rng = SmallRng::seed_from_u64(seed);
        let grid = Grid::from_fn(t, |_| !rng.gen_bool(density));
        EnabledMap::from_grid(grid)
    }

    /// A synthetic region grid giving every disabled cell its own region
    /// code, so probes can be checked to report the right one.
    fn fake_regions(enabled: &EnabledMap) -> Grid<Option<usize>> {
        let t = enabled.topology();
        Grid::from_fn(t, |c| {
            (!enabled.is_enabled(c)).then(|| (c.y * t.width() as i32 + c.x) as usize % 5)
        })
    }

    /// The segment table over `fake_regions`-style codes `0..5`, each
    /// backed by an (empty) chain ring.
    fn segments(enabled: &EnabledMap, region_of: &Grid<Option<usize>>) -> WideSegments {
        let rings: Vec<FaultRing> = (0..5)
            .map(|i| FaultRing {
                region_index: i,
                shape: RingShape::Chain(Vec::new()),
            })
            .collect();
        let indexes: Vec<Arc<RingIndex>> = (0..5).map(|_| Arc::default()).collect();
        WideSegments::build(enabled, region_of, &rings, &indexes, 1)
    }

    /// Free hops and the first disabled cell (with its region code) of
    /// one probe, as a naive per-hop scan reports them.
    type Probe = (usize, Option<(Coord, u32)>);

    /// Naive per-hop reference for the segment probe.
    fn naive_probe(
        enabled: &EnabledMap,
        region_of: &Grid<Option<usize>>,
        from: Coord,
        dir: Direction,
        steps: usize,
    ) -> Probe {
        let t = enabled.topology();
        let mut cur = from;
        for k in 0..steps {
            let Some(next) = t.neighbor(cur, dir).coord() else {
                return (k, None);
            };
            if !enabled.is_enabled(next) {
                let code = region_of.get(next).map_or(NO_REGION, |r| r as u32);
                return (k, Some((next, code)));
            }
            cur = next;
        }
        (steps, None)
    }

    /// Both probe kernels over `segments`, in [`Probe`] form.
    fn wide_probes(
        segments: &WideSegments,
        t: Topology,
        from: Coord,
        d: usize,
        steps: usize,
    ) -> [Probe; 2] {
        let decode = |hit: Option<(i32, u64)>| match hit {
            None => (steps, None),
            Some((dist, word)) => (
                dist as usize - 1,
                Some((advance_by(t, from, DIRS[d], dist as usize), word as u32)),
            ),
        };
        [
            decode(probe_next(segments, t, from, d, steps as i32)),
            decode(probe_search(segments, t, from, d, steps as i32)),
        ]
    }

    #[test]
    fn probe_matches_naive_scan() {
        for t in [Topology::mesh(13, 9), Topology::torus(13, 9)] {
            for seed in 0..4u64 {
                let enabled = random_map(t, 0.25, seed);
                let region_of = fake_regions(&enabled);
                let index = segments(&enabled, &region_of);
                assert!(index.have_next());
                for from in t.coords() {
                    for (d, dir) in DIRS.into_iter().enumerate() {
                        let max = match dir {
                            Direction::East | Direction::West => t.width(),
                            Direction::North | Direction::South => t.height(),
                        } / 2;
                        for steps in 0..=max as usize {
                            // XY probes never walk off a mesh edge; skip
                            // windows the router would never ask for.
                            if t.kind() == TopologyKind::Mesh {
                                let (dx, dy) = dir.offset();
                                let far = Coord::new(
                                    from.x + dx * steps as i32,
                                    from.y + dy * steps as i32,
                                );
                                if !t.contains(far) {
                                    continue;
                                }
                            }
                            let want = naive_probe(&enabled, &region_of, from, dir, steps);
                            for got in wide_probes(&index, t, from, d, steps) {
                                assert_eq!(got, want, "{t:?} {from} {dir:?} x{steps} seed {seed}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn probe_handles_torus_seam_windows() {
        let t = Topology::torus(8, 8);
        let mut grid = Grid::filled(t, true);
        grid.set(Coord::new(1, 0), false);
        let enabled = EnabledMap::from_grid(grid);
        let mut region_of = Grid::filled(t, None);
        region_of.set(Coord::new(1, 0), Some(3));
        let index = segments(&enabled, &region_of);
        // Eastward from x=6: wraps the seam and hits x=1 after 3 hops.
        for got in wide_probes(&index, t, Coord::new(6, 0), 0, 4) {
            assert_eq!(got, (2, Some((Coord::new(1, 0), 3))));
        }
        // Westward from x=3 with a clear window.
        for got in wide_probes(&index, t, Coord::new(3, 1), 1, 4) {
            assert_eq!(got, (4, None));
        }
    }

    #[test]
    fn scratch_guard_and_memo_semantics() {
        let mut s = RouteScratch::new();
        let enc: &mut Encounters = &mut s.enc;
        let exit = (7, Coord::new(2, 3), 12);
        enc.clear();
        assert!(enc.note_entry(0, Coord::new(1, 1)));
        assert!(enc.note_entry(1, Coord::new(1, 1)));
        assert!(!enc.note_entry(0, Coord::new(1, 1)));
        assert_eq!(enc.lookup_exit(0), None);
        enc.store_exit(0, Some(exit));
        assert_eq!(enc.lookup_exit(0), Some(Some(exit)));
        enc.clear();
        assert!(
            enc.note_entry(0, Coord::new(1, 1)),
            "clear resets the guard"
        );
        assert_eq!(enc.lookup_exit(0), None, "clear resets the memo");
    }
}
