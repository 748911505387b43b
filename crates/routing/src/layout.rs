//! Cache-packed per-snapshot tables behind the router's query engine.
//!
//! The traversals in [`crate::wide`] — single-lane and batched — stream
//! these flat 64-byte-aligned arenas, so a query touches the minimum
//! number of cache lines and resolves the traversal's dependent lookups
//! with precomputed single loads:
//!
//! * [`WideSegments`] — the segment table: per-row and per-column sorted
//!   disabled coordinates as structure-of-arrays columns (keys in one
//!   arena, packed *hit words* — region code plus both possible
//!   ring-entry positions — in a parallel one), every line starting on a
//!   cache-line boundary, plus per-cell next-blocked tables that answer
//!   almost every probe — window clear, or the encounter distance and its
//!   hit word's location — with a single `u64` load.
//! * [`WideRings`] — each ring's exit candidates packed one-per-`u64`
//!   (`x | y << 15 | mask << 30 | pos << 34`), all rings in a single
//!   arena with each candidate block cache-line aligned. A batch's exit
//!   tasks are sorted by region, so consecutive tasks re-stream the same
//!   block while it is still resident.
//! * [`ExitDirectory`] — O(1) precomputed best exits (cell and cycle
//!   position in one word) for destinations strictly outside a ring's
//!   bounding box, replacing the candidate scan in the common case.
//!
//! Only *compact* rings (cycle positions ≤ 16 bits, extents summing under
//! 2^15 — see [`RingIndex::compact`]) are packed; the packed word needs 15
//! bits per coordinate and 16 per position. Non-compact rings keep
//! `packed == false` in their [`WideRingMeta`] and the exit scan falls
//! back to the ring's [`CandidateColumns`] with u64-lane reductions.
//!
//! Nothing here affects routing results: every table is built from the
//! same predicates the reference traversal evaluates per hop, and
//! `tests/equivalence.rs` pins the engine byte-identical to it.

use crate::fault_ring::{FaultRing, RingShape};
use crate::incremental::Fnv;
use crate::index::{CandidateColumns, RingIndex, NO_REGION};
use crate::path::EnabledMap;
use ocp_mesh::{Coord, Direction, Grid, Topology, TopologyKind};
use std::sync::Arc;

/// The cache-line size every arena base and table block aligns to.
pub(crate) const CACHE_LINE: usize = 64;

/// A flat arena whose payload starts on a [`CACHE_LINE`] boundary.
///
/// `ocp-routing` forbids `unsafe`, so alignment is arranged without
/// `alloc` tricks: the backing `Vec` over-allocates by one cache line and
/// the payload begins at the first aligned element. [`Self::as_slice`] is
/// correct regardless — alignment is a throughput property, not a
/// correctness one — and `Clone` re-aligns for the new allocation.
#[derive(Debug)]
pub(crate) struct AlignedArena<T> {
    buf: Vec<T>,
    base: usize,
}

impl<T: Copy + Default> AlignedArena<T> {
    /// An aligned arena of `len` copies of `value`, written in place.
    pub fn filled(len: usize, value: T) -> Self {
        let elem = std::mem::size_of::<T>().max(1);
        let pad = CACHE_LINE / elem.min(CACHE_LINE);
        let mut buf: Vec<T> = Vec::with_capacity(len + pad);
        let addr = buf.as_ptr() as usize;
        let base = ((CACHE_LINE - addr % CACHE_LINE) % CACHE_LINE) / elem;
        // The grow stays within the reserved capacity, so the base
        // computed from `as_ptr` above remains valid.
        buf.resize(base + len, value);
        Self { buf, base }
    }

    /// Packs `data` into a freshly aligned arena.
    pub fn from_slice(data: &[T]) -> Self {
        let mut arena = Self::filled(data.len(), T::default());
        arena.as_mut_slice().copy_from_slice(data);
        arena
    }

    /// The aligned payload.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.buf[self.base..]
    }

    /// The aligned payload, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[self.base..]
    }
}

impl<T: Copy + Default> Clone for AlignedArena<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

/// Rounds `len` up so the next block starts cache-line aligned (given an
/// aligned arena base), in units of `T`-sized elements.
fn pad_to_line<T>(len: usize) -> usize {
    let per_line = CACHE_LINE / std::mem::size_of::<T>().max(1);
    len.div_ceil(per_line) * per_line
}

/// Entry-position sentinel in a hit word: not precomputable — resolve
/// with `RouteIndex::position` at query time (covers [`NO_REGION`] keys,
/// off-line entry cells that can never be probe origins, and ring
/// positions too large to pack).
pub(crate) const ENTRY_UNPACKED: u32 = 0xFFFF;

/// Entry-position sentinel in a hit word: the blocking ring is an open
/// chain — the traversal fails with `BoundaryFaultChain` without ever
/// loading the ring.
pub(crate) const ENTRY_CHAIN: u32 = 0xFFFE;

/// The router's segment table: the sorted disabled coordinates of every
/// row and column line in one arena of keys (row lines then column lines,
/// each line cache-line aligned — row `y` holds the ascending x of its
/// disabled cells, column `x` the ascending y) and a parallel arena of
/// *hit words* at the same offsets. An unobstructed XY segment resolves
/// with one probe instead of one enabled-map check per hop: a
/// next-blocked load, or the partition point of the walked line's keys.
/// Probes touch `hits` once per *blocked* probe.
///
/// A hit word packs everything a fault encounter needs, so resolving one
/// costs a single load instead of three dependent ones (region grid →
/// ring shape → position table):
///
/// * bits 0..32 — the region code ([`NO_REGION`] for stray disabled
///   cells, which the traversal's invariant assert rejects);
/// * bits 32..48 — the entry cell's cycle position when the probe ran in
///   the positive direction (the entry cell is then `key − 1` on the
///   walked axis, torus-wrapped);
/// * bits 48..64 — the same for negative probes (entry `key + 1`).
///
/// The position fields use [`ENTRY_CHAIN`] for chain rings and
/// [`ENTRY_UNPACKED`] where no position can be packed; both are produced
/// at build time from the very predicates (`FaultRing::is_cycle`,
/// `RingIndex::position`) a traversal would otherwise evaluate per
/// encounter.
#[derive(Clone, Debug)]
pub(crate) struct WideSegments {
    /// `(start, len)` of each row's keys in the arenas, indexed by y.
    rows: Vec<(u32, u32)>,
    /// `(start, len)` of each column's keys, indexed by x.
    cols: Vec<(u32, u32)>,
    keys: AlignedArena<i32>,
    hits: AlignedArena<u64>,
    /// Per-cell next-blocked tables, one block per probe direction
    /// (east, west row-major; north, south column-major): each entry
    /// packs `distance to the first disabled cell in that direction |
    /// hit-word arena index << 16`. Distance is axis-cyclic on a torus
    /// (the seam wrap is baked in at build time) and [`NEXT_NONE`] when
    /// the line holds no disabled cell that way — so an entire probe
    /// resolves from one load: `dist > steps` means the window is clear,
    /// anything else is an encounter `dist − 1` hops out whose hit word
    /// sits at the packed index.
    next: AlignedArena<u64>,
    /// Start of each direction's block in `next` (E, W, N, S order).
    next_base: [u32; 4],
    /// Whether the next-blocked tables exist (extents below 2^16 so
    /// distances pack, and at most [`NEXT_CELL_CAP`] cells so the four
    /// per-cell blocks stay a bounded fraction of snapshot memory;
    /// absent tables fall back to `wide::probe_search`).
    have_next: bool,
}

/// Cell-count cap for building the per-direction next-blocked tables
/// (4 × 8 bytes per cell; 1M cells ⇒ 32 MiB).
const NEXT_CELL_CAP: u64 = 1 << 20;

/// Packs one next-blocked entry (see [`WideSegments::next`]).
#[inline(always)]
fn pack_next(dist: u32, idx: u32) -> u64 {
    u64::from(dist) | (u64::from(idx) << 16)
}

/// Next-blocked entry for "no disabled cell in this direction": distance
/// `0xFFFF` exceeds every probe window (`steps` is at most `extent − 1 ≤
/// 0xFFFE` on a mesh and `extent / 2` on a torus).
const NEXT_NONE: u64 = 0xFFFF;

/// One entry-position field of a hit word (see [`WideSegments`]): the
/// cycle position of `entry` on the ring of region `code`, or a sentinel.
/// `None` entries (off the mesh) belong to keys a probe can never hit
/// from that side.
fn entry_pos(
    fault_rings: &[FaultRing],
    ring_indexes: &[Arc<RingIndex>],
    code: u32,
    entry: Option<Coord>,
) -> u64 {
    let Some(entry) = entry else {
        return u64::from(ENTRY_UNPACKED);
    };
    if code == NO_REGION {
        return u64::from(ENTRY_UNPACKED);
    }
    if !fault_rings[code as usize].is_cycle() {
        return u64::from(ENTRY_CHAIN);
    }
    match ring_indexes[code as usize].position(entry) {
        Some(p) if p < ENTRY_CHAIN as usize => p as u64,
        _ => u64::from(ENTRY_UNPACKED),
    }
}

/// The `(key, hit word)` entries of one row (`is_row`) or column line:
/// an ascending scan for disabled cells, each paired with its region code
/// and both possible ring-entry positions (see [`WideSegments`]).
fn scan_line(
    enabled: &EnabledMap,
    region_of: &Grid<Option<usize>>,
    fault_rings: &[FaultRing],
    ring_indexes: &[Arc<RingIndex>],
    is_row: bool,
    li: usize,
) -> Vec<(i32, u64)> {
    let t = enabled.topology();
    let torus = t.kind() == TopologyKind::Torus;
    let extent = if is_row { t.width() } else { t.height() } as i32;
    // The cell at `v` on this line (torus-wrapped; `None` off a mesh edge).
    let cell = |v: i32| -> Option<Coord> {
        let v = if torus { v.rem_euclid(extent) } else { v };
        (0..extent).contains(&v).then(|| {
            if is_row {
                Coord::new(v, li as i32)
            } else {
                Coord::new(li as i32, v)
            }
        })
    };
    (0..extent)
        .filter_map(|v| {
            let c = cell(v).expect("in-line coordinate");
            if enabled.is_enabled(c) {
                return None;
            }
            let code = region_of.get(c).map_or(NO_REGION, |r| r as u32);
            // The cells one step before the key from either probe side.
            let entry = |e: i32| entry_pos(fault_rings, ring_indexes, code, cell(e));
            Some((
                v,
                u64::from(code) | (entry(v - 1) << 32) | (entry(v + 1) << 48),
            ))
        })
        .collect()
}

/// Appends one line's entries to the arenas, padded so the next line
/// starts on a cache-line boundary; returns the line's `(start, len)`.
fn push_line(
    keys: &mut Vec<i32>,
    hits: &mut Vec<u64>,
    entries: impl IntoIterator<Item = (i32, u64)>,
) -> (u32, u32) {
    let start = keys.len();
    for (k, hit) in entries {
        keys.push(k);
        hits.push(hit);
    }
    let len = keys.len() - start;
    // Keys the padding exposes are never searched; i32::MAX keeps an
    // out-of-window load harmless either way. The hit arena pads to the
    // same element count so the two share line offsets (its lines land
    // 128-byte aligned).
    keys.resize(pad_to_line::<i32>(keys.len()), i32::MAX);
    hits.resize(keys.len(), 0);
    (start as u32, len as u32)
}

/// Allocates the four per-direction next-blocked blocks of `t` (none when
/// the tables are skipped — see [`WideSegments::have_next`]), fills the
/// east/west blocks with `rows` and the north/south ones with `cols` in
/// place, and returns `(arena, next_base, have_next)`.
fn fill_next(
    t: Topology,
    rows: impl FnOnce(&mut [u64], &mut [u64]),
    cols: impl FnOnce(&mut [u64], &mut [u64]),
) -> (AlignedArena<u64>, [u32; 4], bool) {
    let (width, height) = (t.width(), t.height());
    let have_next = width < u32::from(u16::MAX)
        && height < u32::from(u16::MAX)
        && u64::from(width) * u64::from(height) <= NEXT_CELL_CAP;
    if !have_next {
        return (AlignedArena::filled(0, 0), [0; 4], false);
    }
    let block = width as usize * height as usize;
    let mut next = AlignedArena::filled(4 * block, 0);
    let (ew, ns) = next.as_mut_slice().split_at_mut(2 * block);
    let (east, west) = ew.split_at_mut(block);
    let (north, south) = ns.split_at_mut(block);
    rows(east, west);
    cols(north, south);
    let b = block as u32;
    (next, [0, b, 2 * b, 3 * b], true)
}

/// Two-pointer next-blocked sweep of one line: fills the positive- and
/// negative-direction entries of its `extent` cells. `le` counts keys
/// ≤ v, `lt` keys < v.
fn sweep_line(
    line: &[i32],
    start: u32,
    extent: i32,
    torus: bool,
    fwd: &mut [u64],
    bwd: &mut [u64],
) {
    let n = line.len();
    let (mut le, mut lt) = (0usize, 0usize);
    for v in 0..extent {
        while le < n && line[le] <= v {
            le += 1;
        }
        while lt < n && line[lt] < v {
            lt += 1;
        }
        fwd[v as usize] = if le < n {
            pack_next((line[le] - v) as u32, start + le as u32)
        } else if torus && n > 0 {
            pack_next((line[0] + extent - v) as u32, start)
        } else {
            NEXT_NONE
        };
        bwd[v as usize] = if lt > 0 {
            pack_next((v - line[lt - 1]) as u32, start + lt as u32 - 1)
        } else if torus && n > 0 {
            pack_next((v + extent - line[n - 1]) as u32, start + n as u32 - 1)
        } else {
            NEXT_NONE
        };
    }
}

/// Sweeps every line of one orientation into its slots of the forward
/// and backward direction blocks, banded over `threads` scoped workers.
/// Each line owns a disjoint `extent`-entry window at `line_index ×
/// extent`, so bands write disjoint slices and the result is identical
/// for every thread count.
fn sweep_block(
    keys: &[i32],
    lines: &[(u32, u32)],
    extent: i32,
    torus: bool,
    threads: usize,
    fwd: &mut [u64],
    bwd: &mut [u64],
) {
    let e = extent as usize;
    let run = |li: usize, fwd: &mut [u64], bwd: &mut [u64]| {
        let (start, len) = lines[li];
        let line = &keys[start as usize..(start + len) as usize];
        sweep_line(line, start, extent, torus, fwd, bwd);
    };
    let n = lines.len();
    let threads = threads.min(n);
    if threads <= 1 {
        for li in 0..n {
            let (f, b) = (
                &mut fwd[li * e..(li + 1) * e],
                &mut bwd[li * e..(li + 1) * e],
            );
            run(li, f, b);
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let (mut fw, mut bw) = (fwd, bwd);
        for band in 0..threads {
            let lo = band * chunk;
            let hi = n.min(lo + chunk);
            if lo >= hi {
                break;
            }
            let (f1, f2) = fw.split_at_mut((hi - lo) * e);
            let (b1, b2) = bw.split_at_mut((hi - lo) * e);
            (fw, bw) = (f2, b2);
            let run = &run;
            s.spawn(move || {
                for (k, li) in (lo..hi).enumerate() {
                    run(li, &mut f1[k * e..(k + 1) * e], &mut b1[k * e..(k + 1) * e]);
                }
            });
        }
    });
}

impl WideSegments {
    /// Builds the tables from the enabled view and region membership,
    /// resolving each disabled key's two possible ring-entry positions
    /// against the ring indexes (see the hit-word layout on
    /// [`WideSegments`]). The per-line scans and the next-blocked sweeps
    /// are banded over `threads` scoped workers; lines concatenate in line
    /// order, so the output is identical for every thread count.
    pub fn build(
        enabled: &EnabledMap,
        region_of: &Grid<Option<usize>>,
        fault_rings: &[FaultRing],
        ring_indexes: &[Arc<RingIndex>],
        threads: usize,
    ) -> Self {
        let t = enabled.topology();
        let torus = t.kind() == TopologyKind::Torus;
        let scan = |is_row: bool, lines: u32| {
            crate::incremental::par_map(lines as usize, threads, |li| {
                scan_line(enabled, region_of, fault_rings, ring_indexes, is_row, li)
            })
        };
        let (row_lines, col_lines) = (scan(true, t.height()), scan(false, t.width()));
        let (mut keys, mut hits) = (Vec::new(), Vec::new());
        let mut pack = |lines: Vec<Vec<(i32, u64)>>| -> Vec<(u32, u32)> {
            lines
                .into_iter()
                .map(|line| push_line(&mut keys, &mut hits, line))
                .collect()
        };
        let (rows, cols) = (pack(row_lines), pack(col_lines));
        let (w, h) = (t.width() as i32, t.height() as i32);
        let (next, next_base, have_next) = fill_next(
            t,
            |east, west| sweep_block(&keys, &rows, w, torus, threads, east, west),
            |north, south| sweep_block(&keys, &cols, h, torus, threads, north, south),
        );
        Self {
            rows,
            cols,
            keys: AlignedArena::from_slice(&keys),
            hits: AlignedArena::from_slice(&hits),
            next,
            next_base,
            have_next,
        }
    }

    /// Incremental rebuild: touched lines re-run the cold build's line
    /// scan and sweep; untouched lines copy their key/hit slabs and rebase
    /// their next-blocked entries by the line's new arena start (the
    /// entries' distance fields are start-independent; [`NEXT_NONE`]
    /// carries no index and is copied as-is); renumbered lines do the same
    /// but remap each hit word's low-32-bit region code through
    /// `code_map` (keys, entry positions, and next entries depend only on
    /// cell geometry and ring content, which a renumbered group keeps).
    /// Byte-identical to [`Self::build`] under the [`crate::incremental`]
    /// line contract.
    #[allow(clippy::too_many_arguments)]
    pub fn patch(
        prev: &Self,
        enabled: &EnabledMap,
        region_of: &Grid<Option<usize>>,
        fault_rings: &[FaultRing],
        ring_indexes: &[Arc<RingIndex>],
        touched_rows: &[bool],
        touched_cols: &[bool],
        renum_rows: &[bool],
        renum_cols: &[bool],
        code_map: &[u32],
    ) -> Self {
        let t = enabled.topology();
        let torus = t.kind() == TopologyKind::Torus;
        let (pkeys, phits) = (prev.keys.as_slice(), prev.hits.as_slice());
        let mut keys: Vec<i32> = Vec::with_capacity(pkeys.len());
        let mut hits: Vec<u64> = Vec::with_capacity(phits.len());
        let mut pack = |prev_lines: &[(u32, u32)], touched: &[bool], renum: &[bool], is_row| {
            let mut lines = Vec::with_capacity(prev_lines.len());
            for (li, &(ps, pl)) in prev_lines.iter().enumerate() {
                if touched[li] {
                    let line = scan_line(enabled, region_of, fault_rings, ring_indexes, is_row, li);
                    lines.push(push_line(&mut keys, &mut hits, line));
                    continue;
                }
                let slab = ps as usize..(ps + pl) as usize;
                let remap = |hit: u64| {
                    let code = hit as u32;
                    if !renum[li] || code == NO_REGION {
                        hit
                    } else {
                        (hit & 0xFFFF_FFFF_0000_0000) | u64::from(code_map[code as usize])
                    }
                };
                let copied = pkeys[slab.clone()].iter().zip(&phits[slab]);
                lines.push(push_line(
                    &mut keys,
                    &mut hits,
                    copied.map(|(&k, &hit)| (k, remap(hit))),
                ));
            }
            lines
        };
        let rows = pack(&prev.rows, touched_rows, renum_rows, true);
        let cols = pack(&prev.cols, touched_cols, renum_cols, false);
        let prev_next = prev.next.as_slice();
        let patch_block = |lines: &[(u32, u32)],
                           prev_lines: &[(u32, u32)],
                           touched: &[bool],
                           prev_base: [u32; 2],
                           extent: i32,
                           fwd: &mut [u64],
                           bwd: &mut [u64]| {
            let e = extent as usize;
            for (li, &(start, len)) in lines.iter().enumerate() {
                let o = li * e;
                if touched[li] || !prev.have_next {
                    let line = &keys[start as usize..(start + len) as usize];
                    let (f, b) = (&mut fwd[o..o + e], &mut bwd[o..o + e]);
                    sweep_line(line, start, extent, torus, f, b);
                    continue;
                }
                // The previous entries with the hit-word index shifted to
                // the line's new start.
                let shift = (i64::from(start) - i64::from(prev_lines[li].0)) << 16;
                let rebase = |v: u64| {
                    if v == NEXT_NONE {
                        v
                    } else {
                        (v as i64 + shift) as u64
                    }
                };
                for (out, base) in [(&mut *fwd, prev_base[0]), (&mut *bwd, prev_base[1])] {
                    let src = &prev_next[base as usize + o..base as usize + o + e];
                    for (d, &v) in out[o..o + e].iter_mut().zip(src) {
                        *d = rebase(v);
                    }
                }
            }
        };
        let pb = prev.next_base;
        let (w, h) = (t.width() as i32, t.height() as i32);
        let (next, next_base, have_next) = fill_next(
            t,
            |east, west| {
                patch_block(
                    &rows,
                    &prev.rows,
                    touched_rows,
                    [pb[0], pb[1]],
                    w,
                    east,
                    west,
                )
            },
            |north, south| {
                patch_block(
                    &cols,
                    &prev.cols,
                    touched_cols,
                    [pb[2], pb[3]],
                    h,
                    north,
                    south,
                )
            },
        );
        Self {
            rows,
            cols,
            keys: AlignedArena::from_slice(&keys),
            hits: AlignedArena::from_slice(&hits),
            next,
            next_base,
            have_next,
        }
    }

    /// Feeds every arena (including the next-blocked tables) into the
    /// router digest.
    pub fn digest(&self, h: &mut Fnv) {
        for &(s, l) in self.rows.iter().chain(self.cols.iter()) {
            h.u64((u64::from(s) << 32) | u64::from(l));
        }
        h.u64(self.keys.as_slice().len() as u64);
        for &k in self.keys.as_slice() {
            h.u64(u64::from(k as u32));
        }
        h.u64s(self.hits.as_slice());
        h.u64s(self.next.as_slice());
        h.u32s(&self.next_base);
        h.u64(u64::from(self.have_next));
    }

    /// Whether the next-blocked tables exist (see [`Self::next`]).
    #[inline(always)]
    pub fn have_next(&self) -> bool {
        self.have_next
    }

    /// The next-blocked arena.
    #[inline(always)]
    pub fn next(&self) -> &[u64] {
        self.next.as_slice()
    }

    /// Block offsets of the four per-direction tables in [`Self::next`],
    /// ordered East, West, North, South. Probe `(dir, c)`'s entry lives
    /// at `next_base[dir] + (row-major c)` for x-lines and
    /// `next_base[dir] + (column-major c)` for y-lines; exposing the
    /// offsets lets the batch scheduler form that address from a
    /// computed direction index without re-branching on the direction.
    /// Valid only when [`Self::have_next`].
    #[inline(always)]
    pub fn next_base(&self) -> &[u32; 4] {
        &self.next_base
    }

    /// `(start, len)` of the line a probe from `c` in `dir` walks along.
    #[inline(always)]
    pub fn line(&self, dir: Direction, c: Coord) -> (u32, u32) {
        match dir {
            Direction::East | Direction::West => self.rows[c.y as usize],
            Direction::North | Direction::South => self.cols[c.x as usize],
        }
    }

    /// The key arena (sorted coordinates per line).
    #[inline(always)]
    pub fn keys(&self) -> &[i32] {
        self.keys.as_slice()
    }

    /// The hit-word arena, parallel to [`Self::keys`].
    #[inline(always)]
    pub fn hits(&self) -> &[u64] {
        self.hits.as_slice()
    }
}

/// Packs one exit candidate into a scan word: `x` (15 bits) `| y << 15`
/// (15 bits) `| mask << 30` (4 bits) `| pos << 34` (16 bits). Valid for
/// compact rings only (checked by the caller).
#[inline(always)]
fn pack_word(x: i32, y: i32, mask: u8, pos: u32) -> u64 {
    (x as u64) | ((y as u64) << 15) | ((mask as u64) << 30) | ((pos as u64) << 34)
}

/// Per-ring directory entry of the packed candidate arena. `repr(align)`
/// keeps each ring's metadata on its own cache line, so concurrent
/// readers of different rings never false-share.
#[repr(align(64))]
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WideRingMeta {
    /// Start of the static candidates (corners + blocked-bit transitions).
    pub static_start: u32,
    /// Number of static candidates.
    pub static_len: u32,
    /// Base of the per-column CSR block (add the ring's `col_off`).
    pub cols_start: u32,
    /// Base of the per-row CSR block (add the ring's `row_off`).
    pub rows_start: u32,
    /// Whether packed words exist for this ring (cycle + compact). When
    /// false the exit scan reads the ring's candidate columns instead.
    pub packed: bool,
}

/// All rings' packed exit-candidate words in one aligned arena, plus the
/// per-ring directory. Candidate order inside every block is exactly the
/// ring's [`CandidateColumns`] order, so a packed scan visits the same
/// candidates with the same tie-break positions.
#[derive(Clone, Debug)]
pub(crate) struct WideRings {
    /// Per-ring directory, in ring order.
    pub meta: Vec<WideRingMeta>,
    words: AlignedArena<u64>,
}

impl WideRings {
    /// Packs every compact cycle ring of `rings`.
    pub fn build(rings: &[Arc<RingIndex>]) -> Self {
        let mut words: Vec<u64> = Vec::new();
        let append = |words: &mut Vec<u64>, c: &CandidateColumns| -> (u32, u32) {
            let start = words.len() as u32;
            for i in 0..c.len() {
                words.push(pack_word(c.xs[i], c.ys[i], c.masks[i], c.poss[i]));
            }
            // Padding words sit between blocks and are never scanned.
            words.resize(pad_to_line::<u64>(words.len()), u64::MAX);
            (start, c.len() as u32)
        };
        let meta = rings
            .iter()
            .map(|ring| {
                if !ring.compact() || ring.is_empty() {
                    return WideRingMeta::default();
                }
                let (static_start, static_len) = append(&mut words, &ring.static_candidates);
                let (cols_start, _) = append(&mut words, &ring.cols);
                let (rows_start, _) = append(&mut words, &ring.rows);
                WideRingMeta {
                    static_start,
                    static_len,
                    cols_start,
                    rows_start,
                    packed: true,
                }
            })
            .collect();
        Self {
            meta,
            words: AlignedArena::from_slice(&words),
        }
    }

    /// The packed word arena.
    #[inline(always)]
    pub fn words(&self) -> &[u64] {
        self.words.as_slice()
    }

    /// Feeds the directory and word arena into the router digest.
    pub fn digest(&self, h: &mut Fnv) {
        h.u64(self.meta.len() as u64);
        for m in &self.meta {
            h.u64((u64::from(m.static_start) << 32) | u64::from(m.static_len));
            h.u64((u64::from(m.cols_start) << 32) | u64::from(m.rows_start));
            h.u64(u64::from(m.packed));
        }
        h.u64s(self.words.as_slice());
    }

    /// Calls `f` on every packed word range holding a candidate the exit
    /// objective for `dst` can minimize at — the same slices, in the same
    /// order, as [`RingIndex::candidate_slices`].
    pub fn packed_slices(
        meta: &WideRingMeta,
        ring: &RingIndex,
        t: Topology,
        dst: Coord,
        mut f: impl FnMut(core::ops::Range<usize>),
    ) {
        let col = |x: i32| {
            let lo = meta.cols_start + ring.col_off[x as usize];
            let hi = meta.cols_start + ring.col_off[x as usize + 1];
            lo as usize..hi as usize
        };
        let row = |y: i32| {
            let lo = meta.rows_start + ring.row_off[y as usize];
            let hi = meta.rows_start + ring.row_off[y as usize + 1];
            lo as usize..hi as usize
        };
        f(meta.static_start as usize..(meta.static_start + meta.static_len) as usize);
        f(col(dst.x));
        f(row(dst.y));
        if t.kind() == TopologyKind::Torus {
            let (w, h) = (t.width() as i32, t.height() as i32);
            for ax in [(dst.x + w / 2) % w, (dst.x + (w + 1) / 2) % w] {
                f(col(ax));
            }
            for ay in [(dst.y + h / 2) % h, (dst.y + (h + 1) / 2) % h] {
                f(row(ay));
            }
        }
    }
}

/// "No feasible exit" sentinel word in the [`ExitDirectory`] table. A
/// real entry's x field is at most `0x7FFE` (the directory requires mesh
/// extents ≤ `0x7FFF`), so the all-ones word is unambiguous.
const NO_EXIT_WORD: u64 = u64::MAX;

/// Per-ring directory entry: the ring-cell bounding box that classifies a
/// destination, and the four side tables' offsets into the shared table.
#[derive(Clone, Copy, Debug, Default)]
struct ExitDirMeta {
    minx: i32,
    maxx: i32,
    miny: i32,
    maxy: i32,
    /// `table[east + dst.y]` answers destinations with `dst.x > maxx`.
    east: u32,
    /// `table[west + dst.y]` answers destinations with `dst.x < minx`.
    west: u32,
    /// `table[north + dst.x]` answers destinations with `dst.y > maxy`.
    north: u32,
    /// `table[south + dst.x]` answers destinations with `dst.y < miny`.
    south: u32,
    /// Cycle length of the ring, so a directory hit can apply the
    /// shorter-walk arithmetic without loading the ring.
    ring_len: u32,
    /// Whether the directory covers this ring at all (cycle ring on a
    /// mesh with packable coordinates). Chains, empty indexes, and every
    /// torus ring stay false.
    valid: bool,
}

/// O(1) best-exit lookup for destinations strictly outside a ring's
/// bounding box — the common case, since a query that hits a ring is
/// usually aiming far past it.
///
/// **Why a 1-D table per side is exact.** Take `dst.x > maxx` (strictly
/// east of every ring cell). Then the candidate set the exit scan
/// visits — static candidates ∪ column(`dst.x`) ∪ row(`dst.y`) — loses
/// its column slice (no ring cell has that x), leaving a set that depends
/// only on `dst.y`. For every candidate `c`, `dx = dst.x − c.x > 0`, so
/// `exit_bit` is East regardless of `dst.x`, and the L1 distance splits
/// as `(dst.x − c.x) + |dst.y − c.y|`: moving `dst.x` further east adds
/// the same constant to every candidate's packed key (never carrying into
/// the reject bit — compact rings bound distances below 2^15, the u64
/// objective below 2^31), so the argmin, its feasibility, and the
/// tie-break are all invariant along x. One scan per `dst.y` at the
/// representative `x = maxx + 1` therefore answers the whole half-plane
/// exactly. The north/south sides are symmetric with `dst.x` as the table
/// index (there `dx`'s *sign* varies per candidate, which is why the
/// table must be indexed by x, and `dy > 0` fixes the rest). Tori wrap —
/// no half-plane is ever strict — so they always take the scan fallback.
///
/// Entries are produced by [`crate::wide::exit_scan`] itself, so the
/// directory can never diverge from the scan it replaces. Each table word
/// packs the exit *cell* alongside its cycle position (`x | y << 15 |
/// pos << 32`; [`NO_EXIT_WORD`] when infeasible), so a hit hands the
/// traversal its next coordinate directly — no ring-cell load.
#[derive(Clone, Debug)]
pub(crate) struct ExitDirectory {
    meta: Vec<ExitDirMeta>,
    table: Vec<u64>,
}

/// Builds one ring's directory entry and its four side tables, with side
/// offsets relative to the returned table segment (the caller rebases
/// them by the segment's position in the shared table).
fn ring_exit_tables(
    t: Topology,
    cells: &[Coord],
    index: &RingIndex,
    meta: &WideRingMeta,
    words: &[u64],
) -> (ExitDirMeta, Vec<u64>) {
    let (w, h) = (t.width() as i32, t.height() as i32);
    let (mut minx, mut maxx, mut miny, mut maxy) = (i32::MAX, i32::MIN, i32::MAX, i32::MIN);
    for c in cells {
        minx = minx.min(c.x);
        maxx = maxx.max(c.x);
        miny = miny.min(c.y);
        maxy = maxy.max(c.y);
    }
    let encode = |dst: Coord| -> u64 {
        match crate::wide::exit_scan(t, index, meta, words, dst) {
            None => NO_EXIT_WORD,
            Some(pos) => {
                let c = cells[pos as usize];
                (c.x as u64) | ((c.y as u64) << 15) | (u64::from(pos) << 32)
            }
        }
    };
    let mut seg: Vec<u64> = Vec::new();
    let mut side = |rep: Option<Coord>, by_y: bool| -> u32 {
        let start = seg.len() as u32;
        if let Some(rep) = rep {
            if by_y {
                seg.extend((0..h).map(|y| encode(Coord::new(rep.x, y))));
            } else {
                seg.extend((0..w).map(|x| encode(Coord::new(x, rep.y))));
            }
        }
        start
    };
    let east = side((maxx + 1 < w).then(|| Coord::new(maxx + 1, 0)), true);
    let west = side((minx > 0).then(|| Coord::new(minx - 1, 0)), true);
    let north = side((maxy + 1 < h).then(|| Coord::new(0, maxy + 1)), false);
    let south = side((miny > 0).then(|| Coord::new(0, miny - 1)), false);
    (
        ExitDirMeta {
            minx,
            maxx,
            miny,
            maxy,
            east,
            west,
            north,
            south,
            ring_len: cells.len() as u32,
            valid: true,
        },
        seg,
    )
}

/// Length of the table segment a valid entry owns: its four side tables
/// sit contiguously starting at `meta.east`.
fn segment_len(m: &ExitDirMeta, w: i32, h: i32) -> usize {
    (usize::from(m.maxx + 1 < w) + usize::from(m.minx > 0)) * h as usize
        + (usize::from(m.maxy + 1 < h) + usize::from(m.miny > 0)) * w as usize
}

/// Shifts an entry's side offsets to the segment's absolute base.
fn rebase(mut m: ExitDirMeta, base: u32) -> ExitDirMeta {
    m.east += base;
    m.west += base;
    m.north += base;
    m.south += base;
    m
}

impl ExitDirectory {
    /// Whether the directory covers this topology at all (mesh with
    /// packable coordinates — larger extents would not fit the table
    /// word, and tori wrap so no half-plane is ever strict).
    fn covers(t: Topology) -> bool {
        t.kind() == TopologyKind::Mesh && t.width() <= 0x7FFF && t.height() <= 0x7FFF
    }

    /// Builds the directory for every cycle ring of a mesh snapshot. The
    /// per-ring side scans are banded over `threads` scoped workers and
    /// concatenated in ring order, so output is identical for every
    /// thread count.
    pub fn build(
        t: Topology,
        fault_rings: &[crate::fault_ring::FaultRing],
        indexes: &[Arc<RingIndex>],
        wide: &WideRings,
        threads: usize,
    ) -> Self {
        let mut dir = Self {
            meta: vec![ExitDirMeta::default(); indexes.len()],
            table: Vec::new(),
        };
        if !Self::covers(t) {
            return dir;
        }
        let words = wide.words();
        let per_ring = crate::incremental::par_map(fault_rings.len(), threads, |r| {
            let RingShape::Cycle(cells) = &fault_rings[r].shape else {
                return None;
            };
            if indexes[r].is_empty() {
                return None;
            }
            Some(ring_exit_tables(
                t,
                cells,
                &indexes[r],
                &wide.meta[r],
                words,
            ))
        });
        for (r, item) in per_ring.into_iter().enumerate() {
            if let Some((meta, seg)) = item {
                let base = dir.table.len() as u32;
                dir.meta[r] = rebase(meta, base);
                dir.table.extend(seg);
            }
        }
        dir
    }

    /// Incremental rebuild: a ring matched to a previous ring with the
    /// same cell set copies its table segment verbatim (entries depend
    /// only on ring content — `exit_scan` sees the same candidates and
    /// cycle positions) with the side offsets rebased to the segment's
    /// new position; unmatched rings scan fresh. Byte-identical to
    /// [`Self::build`].
    pub fn patch(
        prev: &Self,
        t: Topology,
        fault_rings: &[crate::fault_ring::FaultRing],
        indexes: &[Arc<RingIndex>],
        wide: &WideRings,
        matched: &[Option<usize>],
    ) -> Self {
        let mut dir = Self {
            meta: vec![ExitDirMeta::default(); indexes.len()],
            table: Vec::new(),
        };
        if !Self::covers(t) {
            return dir;
        }
        let (w, h) = (t.width() as i32, t.height() as i32);
        let words = wide.words();
        for (r, ring) in fault_rings.iter().enumerate() {
            if let Some(pm) = matched[r].map(|j| prev.meta[j]).filter(|pm| pm.valid) {
                let base = dir.table.len() as u32;
                let start = pm.east as usize;
                dir.table
                    .extend_from_slice(&prev.table[start..start + segment_len(&pm, w, h)]);
                // Rebase from the old segment base to the new one.
                let delta = base.wrapping_sub(pm.east);
                dir.meta[r] = ExitDirMeta {
                    east: pm.east.wrapping_add(delta),
                    west: pm.west.wrapping_add(delta),
                    north: pm.north.wrapping_add(delta),
                    south: pm.south.wrapping_add(delta),
                    ..pm
                };
            } else if matched[r].is_none() {
                let RingShape::Cycle(cells) = &ring.shape else {
                    continue;
                };
                if indexes[r].is_empty() {
                    continue;
                }
                let base = dir.table.len() as u32;
                let (meta, seg) = ring_exit_tables(t, cells, &indexes[r], &wide.meta[r], words);
                dir.meta[r] = rebase(meta, base);
                dir.table.extend(seg);
            }
        }
        dir
    }

    /// Feeds the directory and table into the router digest.
    pub fn digest(&self, h: &mut Fnv) {
        h.u64(self.meta.len() as u64);
        for m in &self.meta {
            h.coord(Coord::new(m.minx, m.miny));
            h.coord(Coord::new(m.maxx, m.maxy));
            h.u64((u64::from(m.east) << 32) | u64::from(m.west));
            h.u64((u64::from(m.north) << 32) | u64::from(m.south));
            h.u64((u64::from(m.ring_len) << 32) | u64::from(m.valid));
        }
        h.u64s(&self.table);
    }

    /// The precomputed exit of ring `region` for `dst` as `(packed exit
    /// word, ring length)`, or `None` when `dst` falls inside the
    /// bounding box (or the ring/topology is uncovered) and the caller
    /// must scan. The word is [`u64::MAX`] when no feasible exit exists;
    /// otherwise [`crate::wide::decode_exit_word`] unpacks it. Side
    /// classification is checked in a fixed order; a side the ring
    /// presses against the mesh edge on can never match, so its (unbuilt)
    /// table is never indexed.
    #[inline(always)]
    pub fn lookup(&self, region: usize, dst: Coord) -> Option<(u64, u32)> {
        let m = &self.meta[region];
        if !m.valid {
            return None;
        }
        let idx = if dst.x > m.maxx {
            m.east + dst.y as u32
        } else if dst.x < m.minx {
            m.west + dst.y as u32
        } else if dst.y > m.maxy {
            m.north + dst.x as u32
        } else if dst.y < m.miny {
            m.south + dst.x as u32
        } else {
            return None;
        };
        Some((self.table[idx as usize], m.ring_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_bases_are_cache_line_aligned() {
        for len in [0usize, 1, 7, 64, 1000] {
            let data: Vec<i32> = (0..len as i32).collect();
            let arena = AlignedArena::from_slice(&data);
            assert_eq!(arena.as_slice(), &data[..]);
            if len > 0 {
                assert_eq!(arena.as_slice().as_ptr() as usize % CACHE_LINE, 0);
            }
            let copy = arena.clone();
            assert_eq!(copy.as_slice(), &data[..]);
            if len > 0 {
                assert_eq!(copy.as_slice().as_ptr() as usize % CACHE_LINE, 0);
            }
        }
    }

    #[test]
    fn packed_word_round_trips() {
        let w = pack_word(0x7FFE, 0x7ABC, 0b1010, 0xFFFE);
        assert_eq!(w & 0x7FFF, 0x7FFE);
        assert_eq!((w >> 15) & 0x7FFF, 0x7ABC);
        assert_eq!((w >> 30) & 0xF, 0b1010);
        assert_eq!((w >> 34) & 0xFFFF, 0xFFFE);
        assert_eq!(w >> 50, 0, "word uses 50 bits");
    }
}
