//! The router's query engine over the per-snapshot wide tables: the
//! single-lane [`traverse`] behind every query entry point — `route`,
//! `route_len`, `route_into`, `route_len_with`, `route_len_batch_with`
//! (one traversal per pair) and the primary path of `route_disjoint`. One
//! query runs to completion as a plain loop, and cells are pushed only
//! when a path is requested.
//!
//! The loop aims with `preferred_direction` unrolled into branch-free
//! selects (a computed direction index replaces a mispredict-prone branch
//! per probe) and is built from three pieces:
//!
//! 1. **Probe** — on snapshots with next-blocked tables (see
//!    [`crate::layout::WideSegments`], all but degenerate geometries) a
//!    probe is a *single* table load: the packed word carries both the
//!    distance to the first disabled cell in the aim direction (torus
//!    seams baked in at build) and the arena index of the blocking cell's
//!    packed hit word. Otherwise a probe is the partition point of the
//!    walked line's sorted keys, resolved by [`resolve_blocked`]. Both
//!    forms sit behind the one [`probe`].
//! 2. **Hit-word decode** — [`decode_hit`] turns a blocked probe's packed
//!    hit word into the fault-encounter bookkeeping (chain rejection,
//!    livelock guard, entry cycle position) without chasing dependent
//!    ring loads; the per-traversal [`Encounters`] hold the guard and the
//!    exit memo.
//! 3. **Exit** — [`compute_exit`]: destinations strictly outside the
//!    ring's bounding box (the common case) resolve O(1) through the
//!    packed [`crate::layout::ExitDirectory`]; the rest stream the packed
//!    candidate blocks from [`crate::layout::WideRings`] as a branch-free
//!    `reject << 31 | dist << 16 | pos` minimum in [`U32x8`] lanes (u64
//!    lanes via [`U64x4`] over the ring's candidate columns for
//!    non-compact rings).
//!
//! **Exactness contract**: the traversal is byte-identical to the per-hop
//! reference traversal (`route_reference`) — same paths, hop counts and
//! errors. Each query performs the reference's checks in the same order
//! on the same values; the next-blocked word and hit word are built from
//! the very predicates the reference evaluates per hop; min-reductions are
//! order-independent, so lane-unrolled scans produce the scalar fold's
//! exact minimum and tie-break; the exit directory is consulted only
//! where the scan's argmin is position-invariant. `tests/equivalence.rs`
//! enforces this on random mesh/torus maps.

use crate::index::NO_REGION;
use crate::layout::{WideSegments, ENTRY_CHAIN, ENTRY_UNPACKED};
use crate::path::RoutingError;
use crate::router::FaultTolerantRouter;
use crate::xy::wrap_delta;
use ocp_mesh::{Coord, Direction, Topology, TopologyKind};

/// Directions by computed aim index: positive/negative x, then y —
/// matching the per-direction block order of the next-blocked tables.
pub(crate) const DIRS: [Direction; 4] = [
    Direction::East,
    Direction::West,
    Direction::North,
    Direction::South,
];

/// Eight u32 lanes — the manual-SIMD idiom of `ocp_core::labeling::bits`,
/// sized for the packed u32 exit objective. All ops are lane-wise and
/// branch-free; the compiler lowers them to vector instructions.
#[derive(Clone, Copy, Debug)]
pub(crate) struct U32x8(pub [u32; 8]);

impl U32x8 {
    /// All lanes at `u32::MAX` — the identity of a min-reduction.
    pub const MAX: Self = Self([u32::MAX; 8]);

    /// Lane-wise minimum.
    #[inline(always)]
    pub fn min(self, other: Self) -> Self {
        let mut out = self.0;
        for (o, b) in out.iter_mut().zip(other.0) {
            *o = (*o).min(b);
        }
        Self(out)
    }

    /// Minimum across lanes.
    #[inline(always)]
    pub fn horizontal_min(self) -> u32 {
        self.0.into_iter().fold(u32::MAX, u32::min)
    }
}

/// Four u64 lanes, for the non-compact exit objective.
#[derive(Clone, Copy, Debug)]
pub(crate) struct U64x4(pub [u64; 4]);

impl U64x4 {
    /// All lanes at `u64::MAX` — the identity of a min-reduction.
    pub const MAX: Self = Self([u64::MAX; 4]);

    /// Lane-wise minimum.
    #[inline(always)]
    pub fn min(self, other: Self) -> Self {
        let mut out = self.0;
        for (o, b) in out.iter_mut().zip(other.0) {
            *o = (*o).min(b);
        }
        Self(out)
    }

    /// Minimum across lanes.
    #[inline(always)]
    pub fn horizontal_min(self) -> u64 {
        self.0.into_iter().fold(u64::MAX, u64::min)
    }
}

/// A resolved exit: `(cycle position, exit cell, ring length)`, enough to
/// re-apply the ring walk without loading the ring.
pub(crate) type Exit = (u32, Coord, u32);

/// One traversal's fault-encounter state: the livelock guard (`(region,
/// entry cell)` pairs seen) and the exit memo (dst is fixed within one
/// traversal, so a ring's best exit never changes across re-encounters;
/// `None` records infeasibility). Cleared, not freed, per traversal.
#[derive(Debug, Default)]
pub(crate) struct Encounters {
    entries: Vec<(u32, Coord)>,
    exits: Vec<(u32, Option<Exit>)>,
}

impl Encounters {
    /// Resets the guard and memo, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.exits.clear();
    }

    /// Records a ring entry; `false` if this (region, entry) was already
    /// seen this traversal (the livelock condition).
    pub fn note_entry(&mut self, region: u32, entry: Coord) -> bool {
        if self.entries.contains(&(region, entry)) {
            return false;
        }
        self.entries.push((region, entry));
        true
    }

    /// The memoized exit of `region`, if resolved this traversal.
    pub fn lookup_exit(&self, region: u32) -> Option<Option<Exit>> {
        self.exits
            .iter()
            .find(|&&(r, _)| r == region)
            .map(|&(_, e)| e)
    }

    /// Memoizes the exit of `region`.
    pub fn store_exit(&mut self, region: u32, exit: Option<Exit>) {
        self.exits.push((region, exit));
    }
}

/// `FaultRing::shorter_walk_len` on packed operands: the shorter of the
/// two cycle walks between positions `from` and `to` on an `n`-cell ring
/// (both formulas are the ring's `walk_len` arithmetic verbatim).
#[inline(always)]
fn walk_min(from: u32, to: u32, n: u32) -> usize {
    let inc = (to + n - from) % n;
    let dec = (from + n - to) % n;
    inc.min(dec) as usize
}

/// Unpacks an [`crate::layout::ExitDirectory`] table word into
/// `(cycle position, exit cell)`.
#[inline(always)]
pub(crate) fn decode_exit_word(word: u64) -> (u32, Coord) {
    (
        (word >> 32) as u32,
        Coord::new((word & 0x7FFF) as i32, ((word >> 15) & 0x7FFF) as i32),
    )
}

/// Resolves a probe from a partition point: hops to the first disabled
/// cell within `steps` of `pos` toward `dir` plus its packed hit word
/// (region code + entry positions — see [`WideSegments`]), or `None` if
/// the window is clear. `line` is the walked line's sorted keys,
/// `line_hits` their hit words, and `pp` the count of keys `< pos` for a
/// negative probe or `<= pos` for a positive one. On a torus a window
/// that crosses the seam wraps to the line's far end.
#[inline]
fn resolve_blocked(
    line: &[i32],
    line_hits: &[u64],
    pp: usize,
    pos: i32,
    steps: i32,
    t: Topology,
    dir: Direction,
) -> Option<(i32, u64)> {
    let (positive, extent) = dir_info(t, dir);
    let torus = t.kind() == TopologyKind::Torus;
    let len = line.len();
    if positive {
        let end = pos + steps;
        if !torus || end < extent {
            return (pp < len && line[pp] <= end).then(|| (line[pp] - pos, line_hits[pp]));
        }
        if pp < len {
            return Some((line[pp] - pos, line_hits[pp]));
        }
        (line[0] <= end - extent).then(|| (line[0] + extent - pos, line_hits[0]))
    } else {
        let end = pos - steps;
        if !torus || end >= 0 {
            return (pp > 0 && line[pp - 1] >= end)
                .then(|| (pos - line[pp - 1], line_hits[pp - 1]));
        }
        if pp > 0 {
            return Some((pos - line[pp - 1], line_hits[pp - 1]));
        }
        (line[len - 1] >= end + extent).then(|| (pos + extent - line[len - 1], line_hits[len - 1]))
    }
}

/// Orientation and axis extent of a probe direction.
#[inline(always)]
fn dir_info(t: Topology, dir: Direction) -> (bool, i32) {
    let positive = matches!(dir, Direction::East | Direction::North);
    let extent = match dir {
        Direction::East | Direction::West => t.width() as i32,
        Direction::North | Direction::South => t.height() as i32,
    };
    (positive, extent)
}

/// The XY aim from `cur` toward `dst != cur`: `preferred_direction`
/// unrolled into selects, as a computed index into [`DIRS`] (E=0 W=1 N=2
/// S=3 — the next-blocked block order), plus the window length in hops.
/// Both axis deltas are computed up front and the x-first rule is a
/// select, so nothing here branches on the (effectively random) aim.
#[inline(always)]
fn aim(t: Topology, cur: Coord, dst: Coord) -> (usize, i32) {
    let dx = wrap_delta(t, cur.x, dst.x, t.width());
    let dy = wrap_delta(t, cur.y, dst.y, t.height());
    let xfirst = dx != 0;
    let delta = if xfirst { dx } else { dy };
    let dir_idx = (usize::from(!xfirst) << 1) | usize::from(delta < 0);
    (dir_idx, delta.unsigned_abs() as i32)
}

/// One-load probe through the next-blocked tables (valid only when
/// [`WideSegments::have_next`]): hops to the first disabled cell within
/// `steps` of `cur` toward `DIRS[dir_idx]` and its hit word, or `None`
/// when the window is clear. The address reuses the computed direction
/// index (row-major x-lines, column-major y-lines), so nothing on this
/// path re-branches on the direction.
#[inline(always)]
pub(crate) fn probe_next(
    segments: &WideSegments,
    t: Topology,
    cur: Coord,
    dir_idx: usize,
    steps: i32,
) -> Option<(i32, u64)> {
    let cell = if dir_idx < 2 {
        cur.y * t.width() as i32 + cur.x
    } else {
        cur.x * t.height() as i32 + cur.y
    };
    let v = segments.next()[(segments.next_base()[dir_idx] + cell as u32) as usize];
    let dist = (v & 0xFFFF) as i32;
    (dist <= steps).then(|| (dist, segments.hits()[(v >> 16) as usize]))
}

/// The same probe without next-blocked tables: the partition point of the
/// walked line's keys, resolved by [`resolve_blocked`].
pub(crate) fn probe_search(
    segments: &WideSegments,
    t: Topology,
    cur: Coord,
    dir_idx: usize,
    steps: i32,
) -> Option<(i32, u64)> {
    let dir = DIRS[dir_idx];
    let (start, len) = segments.line(dir, cur);
    if len == 0 {
        return None;
    }
    let line = start as usize..(start + len) as usize;
    let keys = &segments.keys()[line.clone()];
    let pos = if dir_idx < 2 { cur.x } else { cur.y };
    let thr = pos + i32::from(dir_idx & 1 == 0);
    let pp = keys.partition_point(|&k| k < thr);
    resolve_blocked(keys, &segments.hits()[line], pp, pos, steps, t, dir)
}

/// The probe [`traverse`] runs at every aim:
/// [`probe_next`] where the snapshot has next-blocked tables, else
/// [`probe_search`].
#[inline(always)]
fn probe(
    segments: &WideSegments,
    t: Topology,
    cur: Coord,
    dir_idx: usize,
    steps: i32,
) -> Option<(i32, u64)> {
    if segments.have_next() {
        probe_next(segments, t, cur, dir_idx, steps)
    } else {
        probe_search(segments, t, cur, dir_idx, steps)
    }
}

/// The coordinate `k` hops from `c` in `dir` (wrapping on tori), without
/// visiting the intermediate cells — the `route_len` side of a segment
/// jump.
pub(crate) fn advance_by(t: Topology, c: Coord, dir: Direction, k: usize) -> Coord {
    let (dx, dy) = dir.offset();
    let raw = Coord::new(c.x + dx * k as i32, c.y + dy * k as i32);
    match t.kind() {
        TopologyKind::Mesh => raw,
        TopologyKind::Torus => t.wrap(raw),
    }
}

/// The [`crate::index::dir_bit`] of `preferred_direction` derived from
/// already-wrapped axis deltas, branch-light: x is corrected first, so the
/// bit is East/West whenever `dx != 0`, else North/South, else 0 at the
/// destination (0 never rejects, matching the `c == dst` feasibility case).
fn exit_bit(dx: i32, dy: i32) -> u32 {
    // West = 1, East = 2; South = 4, North = 8, none = 0 — all selects,
    // no branches, so the exit scan vectorizes.
    let xbit = 1 + (dx > 0) as u32;
    let ybit = ((dy != 0) as u32) << (2 + (dy > 0) as u32);
    if dx != 0 {
        xbit
    } else {
        ybit
    }
}

/// One torus axis of the exit objective: the wrap-aware signed delta (as
/// `crate::xy::wrap_delta` — ties to the positive side) and the axis
/// distance (as [`Topology::distance`]), from one shared reduction. `raw`
/// must lie in `(-extent, extent)` (both coordinates in-machine).
fn torus_axis(raw: i32, extent: i32) -> (i32, u32) {
    let m = if raw < 0 { raw + extent } else { raw };
    let delta = if 2 * m > extent { m - extent } else { m };
    (delta, m.min(extent - m) as u32)
}

/// "No feasible candidate" bit of the u64 packed exit objective.
const INFEASIBLE: u64 = 1 << 63;

/// The packed-u32 exit key of one candidate word on a mesh: `reject << 31
/// | distance << 16 | position`, so the u32 minimum is exactly the
/// lexicographic (feasibility, distance, position) minimum — the
/// reference `min_by_key`'s first-minimum tie-break — and bit 31 of the
/// minimum says whether any candidate was feasible.
#[inline(always)]
fn word_key_mesh(w: u64, dst: Coord) -> u32 {
    let dx = dst.x - (w & 0x7FFF) as i32;
    let dy = dst.y - ((w >> 15) & 0x7FFF) as i32;
    let mask = ((w >> 30) & 0xF) as u32;
    let pos = ((w >> 34) & 0xFFFF) as u32;
    let dist = dx.unsigned_abs() + dy.unsigned_abs();
    let reject = u32::from(mask & exit_bit(dx, dy) != 0);
    (reject << 31) | (dist << 16) | pos
}

/// Torus variant of [`word_key_mesh`].
#[inline(always)]
fn word_key_torus(w: u64, dst: Coord, width: i32, height: i32) -> u32 {
    let (dx, ax) = torus_axis(dst.x - (w & 0x7FFF) as i32, width);
    let (dy, ay) = torus_axis(dst.y - ((w >> 15) & 0x7FFF) as i32, height);
    let mask = ((w >> 30) & 0xF) as u32;
    let pos = ((w >> 34) & 0xFFFF) as u32;
    let reject = u32::from(mask & exit_bit(dx, dy) != 0);
    (reject << 31) | ((ax + ay) << 16) | pos
}

/// Minimum packed exit key over one packed word slice, reduced in
/// [`U32x8`] lanes (min is order-independent, so the lane reduction is
/// bit-exact against the scalar left fold).
fn scan_words(t: Topology, dst: Coord, words: &[u64]) -> u32 {
    let mut acc = U32x8::MAX;
    let mut chunks = words.chunks_exact(8);
    match t.kind() {
        TopologyKind::Mesh => {
            for chunk in &mut chunks {
                let mut keys = [0u32; 8];
                for (k, &w) in keys.iter_mut().zip(chunk) {
                    *k = word_key_mesh(w, dst);
                }
                acc = acc.min(U32x8(keys));
            }
            let mut best = acc.horizontal_min();
            for &w in chunks.remainder() {
                best = best.min(word_key_mesh(w, dst));
            }
            best
        }
        TopologyKind::Torus => {
            let (w_, h_) = (t.width() as i32, t.height() as i32);
            for chunk in &mut chunks {
                let mut keys = [0u32; 8];
                for (k, &w) in keys.iter_mut().zip(chunk) {
                    *k = word_key_torus(w, dst, w_, h_);
                }
                acc = acc.min(U32x8(keys));
            }
            let mut best = acc.horizontal_min();
            for &w in chunks.remainder() {
                best = best.min(word_key_torus(w, dst, w_, h_));
            }
            best
        }
    }
}

/// Non-compact fallback: the same objective widened to `reject << 63 |
/// distance << 32 | position` over the ring's candidate columns, reduced
/// in [`U64x4`] lanes.
fn scan_columns_u64(
    t: Topology,
    dst: Coord,
    cands: &crate::index::CandidateColumns,
    range: core::ops::Range<usize>,
) -> u64 {
    let xs = &cands.xs[range.clone()];
    let ys = &cands.ys[range.clone()];
    let masks = &cands.masks[range.clone()];
    let poss = &cands.poss[range];
    let key = |i: usize| -> u64 {
        let (dx, dy, dist) = match t.kind() {
            TopologyKind::Mesh => {
                let (dx, dy) = (dst.x - xs[i], dst.y - ys[i]);
                (dx, dy, (dx.unsigned_abs() + dy.unsigned_abs()) as u64)
            }
            TopologyKind::Torus => {
                let (dx, ax) = torus_axis(dst.x - xs[i], t.width() as i32);
                let (dy, ay) = torus_axis(dst.y - ys[i], t.height() as i32);
                (dx, dy, (ax + ay) as u64)
            }
        };
        let reject = u64::from(masks[i] as u32 & exit_bit(dx, dy) != 0) * INFEASIBLE;
        (dist << 32) | poss[i] as u64 | reject
    };
    let n = xs.len();
    let mut acc = U64x4::MAX;
    let mut i = 0;
    while i + 4 <= n {
        let keys = [key(i), key(i + 1), key(i + 2), key(i + 3)];
        acc = acc.min(U64x4(keys));
        i += 4;
    }
    let mut best = acc.horizontal_min();
    while i < n {
        best = best.min(key(i));
        i += 1;
    }
    best
}

/// Best exit of one ring for `dst` by candidate scan — packed-word scan
/// for compact rings, u64-lane column scan otherwise — over the exact
/// candidate set of [`crate::index::RingIndex`]. Decision-identical to
/// the reference full-perimeter `best_exit`. The only exit scan: shared
/// by the runtime fallback and the build-time
/// [`crate::layout::ExitDirectory`] precomputation.
pub(crate) fn exit_scan(
    t: Topology,
    ring_index: &crate::index::RingIndex,
    meta: &crate::layout::WideRingMeta,
    words: &[u64],
    dst: Coord,
) -> Option<u32> {
    if meta.packed {
        let mut best = u32::MAX;
        crate::layout::WideRings::packed_slices(meta, ring_index, t, dst, |range| {
            best = best.min(scan_words(t, dst, &words[range]));
        });
        (best >> 31 == 0).then_some(best & 0xFFFF)
    } else {
        let mut best = u64::MAX;
        ring_index.candidate_slices(t, dst, |cands, range| {
            best = best.min(scan_columns_u64(t, dst, cands, range));
        });
        (best & INFEASIBLE == 0).then_some(best as u32)
    }
}

/// Best exit of `region` for `dst` as `(cycle position, exit cell, ring
/// length)` — O(1) through the snapshot's
/// [`crate::layout::ExitDirectory`] whenever `dst` lies strictly outside
/// the ring's bounding box (the overwhelmingly common case — queries that
/// hit a ring usually aim far past it), candidate scan otherwise.
/// `None` when the ring has no feasible exit toward `dst`.
fn compute_exit(
    router: &FaultTolerantRouter,
    t: Topology,
    region: usize,
    dst: Coord,
) -> Option<(u32, Coord, u32)> {
    let index = &router.index;
    if let Some((word, ring_len)) = index.exit_dir.lookup(region, dst) {
        return (word != u64::MAX).then(|| {
            let (pos, cell) = decode_exit_word(word);
            (pos, cell, ring_len)
        });
    }
    exit_scan(
        t,
        &index.rings[region],
        &index.wide_rings.meta[region],
        index.wide_rings.words(),
        dst,
    )
    .map(|pos| {
        let ring = &router.rings[region];
        let cell = ring
            .cycle_cell(pos as usize)
            .expect("exit is a cycle position");
        (pos, cell, ring.cells().len() as u32)
    })
}

/// Decodes a blocked probe's hit word for the query standing on `entry`:
/// the chain rejection reads the word's [`ENTRY_CHAIN`] sentinel, the
/// livelock guard records `(region, entry)`, and the entry's cycle
/// position comes from the word's direction-matching field (falling back
/// to `RouteIndex::position` on [`ENTRY_UNPACKED`]) — the reference's
/// checks in the reference's order. Returns `(region, position)`.
#[inline]
fn decode_hit(
    router: &FaultTolerantRouter,
    word: u64,
    dir_idx: usize,
    entry: Coord,
    enc: &mut Encounters,
) -> Result<(u32, u32), RoutingError> {
    let region = word as u32;
    assert_ne!(region, NO_REGION, "disabled non-region cell blocks XY");
    // Positive probes (E, N: even indices) enter at the key's minus side.
    let epos = ((word >> if dir_idx & 1 == 0 { 32 } else { 48 }) & 0xFFFF) as u32;
    if epos == ENTRY_CHAIN {
        return Err(RoutingError::BoundaryFaultChain);
    }
    if !enc.note_entry(region, entry) {
        return Err(RoutingError::LivelockDetected);
    }
    let here = if epos == ENTRY_UNPACKED {
        router
            .index
            .position(region as usize, entry)
            .expect("blocked node is on the blocking region's ring") as u32
    } else {
        epos
    };
    Ok((region, here))
}

/// The single-lane traversal: XY segments plus ring walks for one query,
/// run to completion. Records every visited cell into `record` when
/// present (the `route` case) or only counts hops (the `route_len` case).
/// Returns the number of links traversed.
///
/// Must stay byte-identical to the reference per-hop traversal — same
/// paths, hop counts and errors — which `tests/equivalence.rs` enforces.
pub(crate) fn traverse(
    router: &FaultTolerantRouter,
    src: Coord,
    dst: Coord,
    mut record: Option<&mut Vec<Coord>>,
    enc: &mut Encounters,
) -> Result<usize, RoutingError> {
    let t = router.topology();
    for endpoint in [src, dst] {
        if !router.enabled.is_enabled(endpoint) {
            return Err(RoutingError::EndpointDisabled { node: endpoint });
        }
    }
    enc.clear();
    let segments = &router.index.segments;
    let cap = (t.len() * 4).max(64);
    let mut hops = 0usize;
    let mut cur = src;
    while cur != dst {
        if hops + 1 > cap {
            return Err(RoutingError::LivelockDetected);
        }
        let (dir_idx, steps) = aim(t, cur, dst);
        let dir = DIRS[dir_idx];
        let hit = probe(segments, t, cur, dir_idx, steps);
        let advance = hit.map_or(steps, |(d, _)| d - 1) as usize;
        // The reference checks the cap before every hop; a segment that
        // would run past it fails at the same hop count.
        if hops + advance > cap {
            return Err(RoutingError::LivelockDetected);
        }
        match record.as_mut() {
            Some(path) => {
                for _ in 0..advance {
                    cur = t
                        .neighbor(cur, dir)
                        .coord()
                        .expect("XY never leaves the machine");
                    path.push(cur);
                }
            }
            None => cur = advance_by(t, cur, dir, advance),
        }
        hops += advance;
        let Some((_, word)) = hit else {
            continue; // this axis is fully corrected; re-aim
        };
        // The reference's loop-top check for the iteration that
        // discovers the blocked hop.
        if hops + 1 > cap {
            return Err(RoutingError::LivelockDetected);
        }
        let (region, here) = decode_hit(router, word, dir_idx, cur, enc)?;
        let exit = match enc.lookup_exit(region) {
            Some(memo) => memo,
            None => {
                let exit = compute_exit(router, t, region as usize, dst);
                enc.store_exit(region, exit);
                exit
            }
        };
        let (exit, cell, ring_len) = exit.ok_or(RoutingError::LivelockDetected)?;
        match record.as_mut() {
            Some(path) => {
                let walk = router.rings[region as usize].shorter_walk(here as usize, exit as usize);
                hops += walk.len();
                path.extend(walk);
            }
            None => hops += walk_min(here, exit, ring_len),
        }
        cur = cell;
    }
    Ok(hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn lane_min_reductions_match_scalar_folds() {
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..50 {
            let v32: Vec<u32> = (0..rng.gen_range(0..50)).map(|_| rng.next_u32()).collect();
            let mut acc = U32x8::MAX;
            let mut chunks = v32.chunks_exact(8);
            for c in &mut chunks {
                let mut lane = [0u32; 8];
                lane.copy_from_slice(c);
                acc = acc.min(U32x8(lane));
            }
            let mut best = acc.horizontal_min();
            for &k in chunks.remainder() {
                best = best.min(k);
            }
            assert_eq!(best, v32.iter().copied().fold(u32::MAX, u32::min));

            let v64: Vec<u64> = (0..rng.gen_range(0..50)).map(|_| rng.next_u64()).collect();
            let mut acc = U64x4::MAX;
            let mut chunks = v64.chunks_exact(4);
            for c in &mut chunks {
                let mut lane = [0u64; 4];
                lane.copy_from_slice(c);
                acc = acc.min(U64x4(lane));
            }
            let mut best = acc.horizontal_min();
            for &k in chunks.remainder() {
                best = best.min(k);
            }
            assert_eq!(best, v64.iter().copied().fold(u64::MAX, u64::min));
        }
    }
}
