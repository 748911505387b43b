//! Dirty windows: the part of the machine one epoch delta can relabel.
//!
//! Under both safety rules a faulty block is the least fixpoint of its
//! own faults, and it lies inside their bounding box: a node outside that
//! box has no unsafe neighbor on its far side, so it never collects the
//! unsafe neighbors either rule asks for. Blocks sit at distance ≥ 2
//! (Definition 2b) or ≥ 3 (Definition 2a) and never interact, and
//! Theorem 2 makes every disabled region depend only on the faults of its
//! own block. So an epoch delta changes labels only in the blocks it
//! touches, plus whatever new blocks its faults grow.
//!
//! [`dirty_windows`] turns a delta into disjoint rectangles that contain
//! every such block with room to spare:
//!
//! 1. each new fault, and the old block rectangle of each repaired node,
//!    seeds a window grown by the rule's halo (1 for 2b, 2 for 2a);
//! 2. every old block that meets a window or its outer ring is absorbed,
//!    grown by the halo too, and windows that come closer than distance 2
//!    merge; this repeats until nothing changes.
//!
//! Inside a window every fault then lies at least the halo away from the
//! window's edge, and so do the blocks they form. The ring just outside
//! the window holds no unsafe node of the previous epoch. Relabeling the
//! window as a sub-mesh, whose ghosts are Safe and Enabled as at the
//! paper's boundary, is therefore exact once its edge ring comes out
//! safe, and everything outside keeps its previous labels. On a torus the
//! windows wrap; a window that would span a whole torus dimension (or a
//! block with no planar embedding) makes the epoch machine-wide.

use crate::blocks::FaultyBlock;
use crate::labeling::safety::SafetyRule;
use ocp_geometry::Rect;
use ocp_mesh::{Coord, Grid, Topology, TopologyKind};

/// How far the rule lets a new fault reach an old block in one step:
/// Definition 2b merges blocks at distance 1, Definition 2a at distance 2.
fn halo(rule: SafetyRule) -> i32 {
    match rule {
        SafetyRule::BothDimensions => 1,
        SafetyRule::TwoUnsafeNeighbors => 2,
    }
}

/// One axis of a window: `len` consecutive lines from `start`, wrapping
/// modulo the machine's extent on a torus (where `len` stays below it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    start: i32,
    len: i32,
}

/// `v` modulo `n` for `v` in `[-n, 2n)` — every difference or sum of two
/// lines in `[0, n)` — without a division.
#[inline]
fn modulo(v: i32, n: i32) -> i32 {
    if v < 0 {
        v + n
    } else if v >= n {
        v - n
    } else {
        v
    }
}

impl Span {
    /// Offset of machine line `v` inside the span, if it lies there.
    fn offset(self, v: i32, n: i32) -> Option<i32> {
        let d = modulo(v - self.start, n);
        (d < self.len).then_some(d)
    }

    fn meets(self, other: Span, n: i32) -> bool {
        modulo(other.start - self.start, n) < self.len
            || modulo(self.start - other.start, n) < other.len
    }

    fn contains(self, other: Span, n: i32) -> bool {
        modulo(other.start - self.start, n) + other.len <= self.len
    }

    /// Grown by `k` lines on both sides (clipped on a mesh); `None` once a
    /// torus span would close into a ring.
    fn grow(self, k: i32, n: i32, wrap: bool) -> Option<Span> {
        if wrap {
            let len = self.len + 2 * k;
            (len < n).then(|| Span {
                start: modulo(self.start - k, n),
                len,
            })
        } else {
            let lo = (self.start - k).max(0);
            let hi = (self.start + self.len + k).min(n);
            Some(Span {
                start: lo,
                len: hi - lo,
            })
        }
    }

    /// The smallest span covering both; `None` if on a torus it would
    /// close into a ring.
    fn cover(self, other: Span, n: i32, wrap: bool) -> Option<Span> {
        if !wrap {
            let lo = self.start.min(other.start);
            let hi = (self.start + self.len).max(other.start + other.len);
            return Some(Span {
                start: lo,
                len: hi - lo,
            });
        }
        // A covering arc starts at one of the two starts.
        let from = |a: Span, b: Span| Span {
            start: a.start,
            len: a.len.max(modulo(b.start - a.start, n) + b.len),
        };
        let (x, y) = (from(self, other), from(other, self));
        let best = if x.len <= y.len { x } else { y };
        (best.len < n).then_some(best)
    }

    /// The machine lines of the span as at most two ascending `[lo, hi)`
    /// runs (two when it wraps past the seam).
    fn runs(self, n: i32) -> [(i32, i32); 2] {
        let end = self.start + self.len;
        if end <= n {
            [(self.start, end), (0, 0)]
        } else {
            [(self.start, n), (0, end - n)]
        }
    }
}

/// A rectangle of the machine, wrapping across the seam on a torus, that
/// one epoch relabels as a sub-mesh of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    x: Span,
    y: Span,
}

impl Window {
    /// The one-cell window at `c`.
    pub(crate) fn cell(c: Coord) -> Self {
        Self {
            x: Span { start: c.x, len: 1 },
            y: Span { start: c.y, len: 1 },
        }
    }

    /// The window of `width × height` nodes whose local `(0, 0)` is the
    /// machine node `origin` (a real node: on a torus the window wraps
    /// from there).
    ///
    /// # Panics
    /// Panics if either extent is zero.
    pub fn new(origin: Coord, width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "a window holds at least one node");
        Self {
            x: Span {
                start: origin.x,
                len: width as i32,
            },
            y: Span {
                start: origin.y,
                len: height as i32,
            },
        }
    }

    /// The window over a planar rectangle (a block's bounding box, whose
    /// corners may lie past a torus seam); `None` when it spans a whole
    /// torus dimension.
    fn of_rect(topology: Topology, rect: Rect) -> Option<Self> {
        let (w, h) = extent(topology);
        let span = |lo: i32, len: i32, n: i32| {
            (len < n || topology.kind() == TopologyKind::Mesh).then(|| Span {
                start: lo.rem_euclid(n),
                len: len.min(n),
            })
        };
        Some(Self {
            x: span(rect.min.x, rect.width() as i32, w)?,
            y: span(rect.min.y, rect.height() as i32, h)?,
        })
    }

    /// Machine-coordinate origin (the local `(0, 0)`).
    pub fn origin(&self) -> Coord {
        Coord::new(self.x.start, self.y.start)
    }

    /// Width and height in nodes.
    pub fn size(&self) -> (u32, u32) {
        (self.x.len as u32, self.y.len as u32)
    }

    /// Nodes in the window.
    pub(crate) fn len(&self) -> usize {
        self.x.len as usize * self.y.len as usize
    }

    /// True if the machine node `c` lies in the window.
    pub fn contains(&self, topology: Topology, c: Coord) -> bool {
        let (w, h) = extent(topology);
        self.x.offset(c.x, w).is_some() && self.y.offset(c.y, h).is_some()
    }

    /// The window as a mesh of its own: its ghosts stand for the safe,
    /// enabled ring around it.
    pub(crate) fn local_topology(&self) -> Topology {
        Topology::mesh(self.x.len as u32, self.y.len as u32)
    }

    /// Local coordinates of the machine node `c`, if it lies in the window.
    pub(crate) fn to_local(self, topology: Topology, c: Coord) -> Option<Coord> {
        let (w, h) = extent(topology);
        Some(Coord::new(self.x.offset(c.x, w)?, self.y.offset(c.y, h)?))
    }

    /// Machine coordinates of the local node `l`.
    pub(crate) fn to_machine(self, topology: Topology, l: Coord) -> Coord {
        let (w, h) = extent(topology);
        Coord::new(modulo(self.x.start + l.x, w), modulo(self.y.start + l.y, h))
    }

    /// Local nodes on the sides that face other machine nodes: every side
    /// on a torus, the sides off the machine border on a mesh. These are
    /// the nodes whose labels must come out safe for the window to be
    /// exact.
    pub(crate) fn edge(&self, topology: Topology) -> Vec<Coord> {
        let (w, h) = extent(topology);
        let wrap = topology.kind() == TopologyKind::Torus;
        let (lw, lh) = (self.x.len, self.y.len);
        let west = wrap || self.x.start > 0;
        let east = wrap || self.x.start + lw < w;
        let south = wrap || self.y.start > 0;
        let north = wrap || self.y.start + lh < h;
        let mut out = Vec::new();
        for ly in 0..lh {
            for lx in 0..lw {
                let on_edge = (west && lx == 0)
                    || (east && lx == lw - 1)
                    || (south && ly == 0)
                    || (north && ly == lh - 1);
                if on_edge {
                    out.push(Coord::new(lx, ly));
                }
            }
        }
        out
    }

    /// The window's part of a machine grid, as a grid over
    /// [`Window::local_topology`].
    pub(crate) fn cut<T: Clone>(&self, grid: &Grid<T>) -> Grid<T> {
        let topology = grid.topology();
        let (w, h) = extent(topology);
        let mut cells = Vec::with_capacity(self.len());
        for ly in 0..self.y.len {
            let row = grid.row(((self.y.start + ly).rem_euclid(h)) as u32);
            for (lo, hi) in self.x.runs(w) {
                cells.extend_from_slice(&row[lo as usize..hi as usize]);
            }
        }
        Grid::from_row_major(self.local_topology(), cells)
    }

    /// Writes a local grid back into the window's part of a machine grid.
    pub(crate) fn paste<T: Clone>(&self, local: &Grid<T>, grid: &mut Grid<T>) {
        let topology = grid.topology();
        let (w, h) = extent(topology);
        let lw = self.x.len as usize;
        let cells = grid.as_mut_slice();
        for ly in 0..self.y.len {
            let y = (self.y.start + ly).rem_euclid(h) as usize;
            let src = &local.as_slice()[ly as usize * lw..(ly as usize + 1) * lw];
            let mut at = 0;
            for (lo, hi) in self.x.runs(w) {
                let n = (hi - lo) as usize;
                let base = y * w as usize + lo as usize;
                cells[base..base + n].clone_from_slice(&src[at..at + n]);
                at += n;
            }
        }
    }

    fn grow(self, topology: Topology, k: i32) -> Option<Self> {
        let (w, h) = extent(topology);
        let wrap = topology.kind() == TopologyKind::Torus;
        Some(Self {
            x: self.x.grow(k, w, wrap)?,
            y: self.y.grow(k, h, wrap)?,
        })
    }

    fn meets(self, other: Self, topology: Topology) -> bool {
        let (w, h) = extent(topology);
        self.x.meets(other.x, w) && self.y.meets(other.y, h)
    }

    fn covers(self, other: Self, topology: Topology) -> bool {
        let (w, h) = extent(topology);
        self.x.contains(other.x, w) && self.y.contains(other.y, h)
    }

    fn cover(self, other: Self, topology: Topology) -> Option<Self> {
        let (w, h) = extent(topology);
        let wrap = topology.kind() == TopologyKind::Torus;
        Some(Self {
            x: self.x.cover(other.x, w, wrap)?,
            y: self.y.cover(other.y, h, wrap)?,
        })
    }
}

fn extent(topology: Topology) -> (i32, i32) {
    (topology.width() as i32, topology.height() as i32)
}

/// Where one epoch delta can change labels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirtyWindows {
    /// Disjoint windows at distance ≥ 2 from each other; everything
    /// outside them keeps the previous epoch's labels. Empty for an empty
    /// delta.
    Local(Vec<Window>),
    /// The delta reaches around a torus (or a block there admits no
    /// planar embedding): the epoch is relabeled machine-wide.
    Machine,
}

impl DirtyWindows {
    /// True for the machine-wide case.
    pub fn is_machine(&self) -> bool {
        matches!(self, DirtyWindows::Machine)
    }

    /// Nodes the epoch relabels: the windows' total, or the whole machine.
    pub fn cells(&self, topology: Topology) -> usize {
        match self {
            DirtyWindows::Local(windows) => windows.iter().map(Window::len).sum(),
            DirtyWindows::Machine => topology.len(),
        }
    }

    /// True if the machine node `c` may change labels.
    pub(crate) fn contains(&self, topology: Topology, c: Coord) -> bool {
        match self {
            DirtyWindows::Local(windows) => windows.iter().any(|w| w.contains(topology, c)),
            DirtyWindows::Machine => true,
        }
    }

    /// True if the grids agree on every node outside the windows (always
    /// true machine-wide). One slice comparison per uncovered row run.
    ///
    /// # Panics
    /// Panics if the grids cover different machines.
    pub(crate) fn same_outside<T: PartialEq>(&self, a: &Grid<T>, b: &Grid<T>) -> bool {
        let topology = a.topology();
        assert_eq!(topology, b.topology(), "grids of different machines");
        let DirtyWindows::Local(windows) = self else {
            return true;
        };
        let (w, h) = extent(topology);
        let mut covered: Vec<(i32, i32)> = Vec::new();
        for y in 0..h {
            covered.clear();
            for win in windows.iter().filter(|win| win.y.offset(y, h).is_some()) {
                covered.extend(win.x.runs(w).into_iter().filter(|r| r.0 < r.1));
            }
            covered.sort_unstable();
            let (ra, rb) = (a.row(y as u32), b.row(y as u32));
            let mut x = 0;
            for &(lo, hi) in covered.iter().chain([(w, w)].iter()) {
                if lo > x && ra[x as usize..lo as usize] != rb[x as usize..lo as usize] {
                    return false;
                }
                x = x.max(hi);
            }
        }
        true
    }
}

/// The windows an epoch delta relabels, derived from the previous
/// epoch's blocks and the delta alone (see the module docs).
pub fn dirty_windows(
    topology: Topology,
    rule: SafetyRule,
    previous: &[FaultyBlock],
    faults: &[Coord],
    repairs: &[Coord],
) -> DirtyWindows {
    plan(topology, rule, previous, faults, repairs).0
}

/// [`dirty_windows`], plus the indices of the previous blocks that hold a
/// repaired node (their labels restart cold: repair can retract them).
pub(crate) fn plan(
    topology: Topology,
    rule: SafetyRule,
    previous: &[FaultyBlock],
    faults: &[Coord],
    repairs: &[Coord],
) -> (DirtyWindows, Vec<usize>) {
    let halo = halo(rule);
    // Old block rectangles; `None` for a torus block with no planar
    // embedding or one spanning a whole dimension. Blocks of a converged
    // epoch are rectangles (Section 3, and the certificate checks it), so
    // a block's first and last planar cells are its corners.
    let rects: Vec<Option<Window>> = previous
        .iter()
        .map(|b| {
            let planar = b.planar.as_ref()?;
            Window::of_rect(topology, Rect::new(planar.first()?, planar.last()?))
        })
        .collect();
    let mut reset: Vec<usize> = Vec::new();
    let mut seeds: Vec<Option<Window>> = Vec::with_capacity(faults.len() + repairs.len());
    for &r in repairs {
        let owner = previous.iter().enumerate().position(|(i, b)| {
            rects[i].is_none_or(|w| w.contains(topology, r)) && b.cells.contains(r)
        });
        match owner {
            Some(i) => {
                if !reset.contains(&i) {
                    reset.push(i);
                    seeds.push(rects[i]);
                }
            }
            None => seeds.push(Some(Window::cell(r))),
        }
    }
    seeds.extend(faults.iter().map(|&f| Some(Window::cell(f))));
    let machine = (DirtyWindows::Machine, Vec::new());
    let mut windows = Vec::with_capacity(seeds.len());
    for seed in seeds {
        match seed.and_then(|w| w.grow(topology, halo)) {
            Some(w) => windows.push(w),
            None => return machine,
        }
    }
    loop {
        // Merge windows closer than distance 2: one meets the other's ring.
        'merge: loop {
            for i in 0..windows.len() {
                let Some(ring) = windows[i].grow(topology, 1) else {
                    return machine;
                };
                for j in i + 1..windows.len() {
                    if ring.meets(windows[j], topology) {
                        let other = windows.swap_remove(j);
                        match windows[i].cover(other, topology) {
                            Some(w) => windows[i] = w,
                            None => return machine,
                        }
                        continue 'merge;
                    }
                }
            }
            break;
        }
        // Absorb every old block that meets a window or its outer ring.
        let mut changed = false;
        for win in windows.iter_mut() {
            let Some(ring) = win.grow(topology, 1) else {
                return machine;
            };
            for rect in &rects {
                let Some(rect) = rect else {
                    return machine;
                };
                if !ring.meets(*rect, topology) {
                    continue;
                }
                let Some(grown) = rect.grow(topology, halo) else {
                    return machine;
                };
                if !win.covers(grown, topology) {
                    match win.cover(grown, topology) {
                        Some(w) => *win = w,
                        None => return machine,
                    }
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (DirtyWindows::Local(windows), reset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, PipelineConfig};
    use crate::status::FaultMap;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn blocks(t: Topology, faults: &[Coord]) -> Vec<FaultyBlock> {
        run_pipeline(
            &FaultMap::new(t, faults.iter().copied()),
            &PipelineConfig::default(),
        )
        .blocks
    }

    #[test]
    fn a_lone_fault_gets_its_halo() {
        let t = Topology::mesh(10, 10);
        let d = dirty_windows(t, SafetyRule::BothDimensions, &[], &[c(5, 5)], &[]);
        let DirtyWindows::Local(w) = d else {
            panic!("local")
        };
        assert_eq!(w.len(), 1);
        assert_eq!((w[0].origin(), w[0].size()), (c(4, 4), (3, 3)));
        // Definition 2a reaches one node further.
        let d = dirty_windows(t, SafetyRule::TwoUnsafeNeighbors, &[], &[c(5, 5)], &[]);
        assert_eq!(d.cells(t), 25);
    }

    #[test]
    fn mesh_windows_clip_at_the_border() {
        let t = Topology::mesh(10, 10);
        let d = dirty_windows(t, SafetyRule::BothDimensions, &[], &[c(0, 9)], &[]);
        let DirtyWindows::Local(w) = d else {
            panic!("local")
        };
        assert_eq!((w[0].origin(), w[0].size()), (c(0, 8), (2, 2)));
        // The border sides face ghosts, so only the inner sides are edge.
        assert_eq!(w[0].edge(t).len(), 3);
    }

    #[test]
    fn nearby_blocks_are_absorbed_with_their_halo() {
        let t = Topology::mesh(16, 16);
        let old = blocks(t, &[c(3, 3), c(4, 4)]); // one 2x2 block
        let d = dirty_windows(t, SafetyRule::BothDimensions, &old, &[c(6, 5)], &[]);
        let DirtyWindows::Local(w) = d else {
            panic!("local")
        };
        assert_eq!(w.len(), 1);
        // Block [3,4]² grown by 1 = [2,5]², fault (6,5) grown = [5,7]x[4,6].
        assert_eq!((w[0].origin(), w[0].size()), (c(2, 2), (6, 5)));
    }

    #[test]
    fn far_apart_deltas_keep_separate_windows() {
        let t = Topology::mesh(32, 32);
        let d = dirty_windows(
            t,
            SafetyRule::BothDimensions,
            &[],
            &[c(3, 3), c(20, 20)],
            &[],
        );
        assert_eq!(d.cells(t), 18);
        // Windows whose rings touch merge.
        let d = dirty_windows(t, SafetyRule::BothDimensions, &[], &[c(3, 3), c(6, 3)], &[]);
        let DirtyWindows::Local(w) = d else {
            panic!("local")
        };
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn torus_windows_wrap_and_a_full_span_goes_machine_wide() {
        let t = Topology::torus(10, 10);
        let d = dirty_windows(t, SafetyRule::BothDimensions, &[], &[c(0, 0)], &[]);
        let DirtyWindows::Local(w) = d.clone() else {
            panic!("local")
        };
        assert_eq!(w[0].origin(), c(9, 9));
        assert!(d.contains(t, c(1, 9)) && d.contains(t, c(9, 1)));
        assert!(!d.contains(t, c(2, 0)));
        assert_eq!(w[0].to_machine(t, c(1, 1)), c(0, 0));
        // A row of faults around the ring spans a whole dimension.
        let row: Vec<Coord> = (0..10).step_by(3).map(|x| c(x, 4)).collect();
        let d = dirty_windows(t, SafetyRule::BothDimensions, &[], &row, &[]);
        assert!(d.is_machine());
    }

    #[test]
    fn repairs_seed_their_old_block() {
        let t = Topology::mesh(16, 16);
        let old = blocks(t, &[c(3, 3), c(4, 4), c(12, 12)]);
        let (d, reset) = plan(t, SafetyRule::BothDimensions, &old, &[], &[c(4, 4)]);
        assert_eq!(reset, vec![0]);
        let DirtyWindows::Local(w) = d else {
            panic!("local")
        };
        assert_eq!((w[0].origin(), w[0].size()), (c(2, 2), (4, 4)));
    }

    #[test]
    fn cut_paste_and_outside_comparison_round_trip() {
        let t = Topology::torus(7, 5);
        let grid = Grid::from_fn(t, |p| p.x * 10 + p.y);
        let win = Window::cell(c(6, 4)).grow(t, 1).unwrap();
        let local = win.cut(&grid);
        assert_eq!(*local.get(c(0, 0)), 53);
        assert_eq!(*local.get(c(2, 2)), 0);
        let mut copy = Grid::filled(t, -1);
        win.paste(&local, &mut copy);
        assert_eq!(*copy.get(c(0, 0)), 0);
        assert_eq!(*copy.get(c(3, 3)), -1);
        let d = DirtyWindows::Local(vec![win]);
        let mut other = grid.clone();
        other.set(c(0, 0), 99);
        assert!(d.same_outside(&grid, &other), "inside the window");
        other.set(c(3, 3), 99);
        assert!(!d.same_outside(&grid, &other), "outside the window");
    }
}
