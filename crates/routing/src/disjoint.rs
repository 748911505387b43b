//! k vertex-disjoint fault-tolerant routes.
//!
//! The paper's orthogonally convex fault regions admit exactly two detours
//! around any blocking ring — the clockwise and counter-clockwise walks —
//! and those walks share no vertex besides the points where they leave and
//! rejoin the XY spine. [`FaultTolerantRouter::route_disjoint`] turns that
//! structure into a query: up to `k` pairwise vertex-disjoint paths per
//! `(src, dst)` pair, disjoint everywhere except the endpoints.
//!
//! **Construction.** `k = 1` is the production fast path: one indexed
//! traversal reusing the caller's [`RouteScratch`], byte-identical to
//! [`FaultTolerantRouter::route`] and allocation-free beyond the returned
//! path. For `k ≥ 2` the query becomes a unit-capacity vertex flow over
//! the enabled map (Menger's theorem): every enabled node is split into an
//! in/out pair joined by a capacity-1 arc, every mesh link becomes a
//! capacity-1 arc between the split halves, and the flow is *seeded with
//! the production route* before BFS augmentation. Seeding matters for more
//! than speed: when a single ring blocks the pair, the second augmenting
//! path threads the residual graph "the other way around" the ring, so the
//! returned pair is precisely the CW/CCW detour split. With multiple rings
//! between `src` and `dst` the same machinery yields up to the vertex
//! min-cut (≤ 4 on degree-4 meshes) — `paths.len() == min(k, min-cut)`.
//!
//! **Stretch.** [`DisjointRoutes::stretch`] is the worst per-path hop
//! count over the topology's fault-free distance. The API asserts the
//! Routing-Complexity-style bound
//! [`FaultTolerantRouter::disjoint_len_bound`]: every returned path
//! satisfies `len ≤ d + 2k + 2·P + 2` where `d` is the minimal distance
//! and `P` the total perimeter of all fault rings — a detour cannot cost
//! more than walking each ring once per side plus the constant overhead of
//! fanning out at the endpoints. The property suite
//! (`tests/routing_properties.rs`) enforces the bound on random fault
//! maps; `debug_assert`s enforce it on every query in debug builds.
//!
//! **Failure semantics.** `route_disjoint` fails exactly when
//! [`FaultTolerantRouter::route`] fails (same [`RoutingError`]): the
//! primary traversal is the first path, so a pair the router cannot serve
//! has no disjoint answer either. No new error variants are introduced —
//! the serve wire format stays compatible.

use crate::index::RouteScratch;
use crate::path::{Path, RoutingError};
use crate::router::FaultTolerantRouter;
use ocp_mesh::{Coord, Topology, DIRECTIONS};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

/// Result of [`FaultTolerantRouter::route_disjoint`]: up to `k` pairwise
/// vertex-disjoint paths plus the worst-case stretch over the minimal
/// distance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DisjointRoutes {
    /// The routes, pairwise vertex-disjoint except at `src`/`dst`.
    /// `paths[0]` of a `k = 1` query is byte-identical to
    /// [`FaultTolerantRouter::route`]; `paths.len()` is the smaller of
    /// `k` and the vertex min-cut between the endpoints.
    pub paths: Vec<Path>,
    /// `max_i len(paths[i]) / distance(src, dst)`; `1.0` when the
    /// endpoints coincide.
    pub stretch: f64,
}

impl DisjointRoutes {
    /// Per-path hop counts, in path order.
    pub fn hop_counts(&self) -> Vec<usize> {
        self.paths.iter().map(Path::len).collect()
    }

    /// Hop count of the longest returned path.
    pub fn max_len(&self) -> usize {
        self.paths.iter().map(Path::len).max().unwrap_or(0)
    }

    /// True if no two *distinct* paths share a vertex besides `src` and
    /// `dst`. The constructor guarantees this; the test suites re-check it
    /// through this method so the guarantee cannot silently rot.
    ///
    /// Within-path revisits are deliberately not flagged: a `k = 1` answer
    /// is byte-identical to [`FaultTolerantRouter::route`], and production
    /// routes can legitimately revisit a cell (the A→B→A pocket U-turn
    /// around diagonal-contact fault rings). Disjointness is a property of
    /// path *pairs*; the `k ≥ 2` flow decomposition additionally yields
    /// simple paths because each split vertex carries unit capacity.
    pub fn pairwise_disjoint(&self) -> bool {
        let mut seen: HashSet<Coord> = HashSet::new();
        for p in &self.paths {
            if p.hops.len() < 2 {
                continue;
            }
            let interior: HashSet<Coord> = p.hops[1..p.hops.len() - 1].iter().copied().collect();
            for &c in &interior {
                if !seen.insert(c) {
                    return false;
                }
            }
        }
        true
    }
}

impl FaultTolerantRouter {
    /// The per-path hop-count ceiling `route_disjoint` asserts:
    /// `distance(src, dst) + 2k + 2·(total ring perimeter) + 2`. A detour
    /// around a ring costs at most its perimeter, each of the `k` paths
    /// pays at most two extra hops fanning out of `src` and into `dst`,
    /// and augmentation reroutes a path around each ring at most once per
    /// side.
    pub fn disjoint_len_bound(&self, src: Coord, dst: Coord, k: usize) -> usize {
        let d = self.topology().distance(src, dst) as usize;
        let p: usize = self.rings().iter().map(|r| r.cells().len()).sum();
        d + 2 * k + 2 * p + 2
    }
}

/// Shared implementation behind `route_disjoint` / `route_disjoint_with`.
pub(crate) fn compute(
    router: &FaultTolerantRouter,
    src: Coord,
    dst: Coord,
    k: usize,
    scratch: &mut RouteScratch,
) -> Result<DisjointRoutes, RoutingError> {
    let t = router.topology();
    let mut primary = Path::new(src);
    crate::wide::traverse(router, src, dst, Some(&mut primary.hops), &mut scratch.enc)?;
    let k = k.max(1);
    let d = t.distance(src, dst) as usize;
    if k == 1 || src == dst {
        let stretch = primary.stretch(t).unwrap_or(1.0);
        debug_assert!(primary.len() <= router.disjoint_len_bound(src, dst, k));
        return Ok(DisjointRoutes {
            paths: vec![primary],
            stretch,
        });
    }

    let mut flow = FlowNetwork::build(router, src, dst);
    // Seed with the production route when it is simple (traversals around
    // merged rings can in principle revisit a cell, in which case plain
    // augmentation finds the first unit itself).
    flow.seed(&primary);
    flow.augment_to(k);
    let paths = flow.decompose(src, dst);
    debug_assert!(!paths.is_empty(), "primary route exists, so min-cut >= 1");
    let bound = router.disjoint_len_bound(src, dst, k);
    debug_assert!(paths.iter().all(|p| p.len() <= bound));
    let max_len = paths.iter().map(Path::len).max().unwrap_or(0);
    let stretch = if d == 0 {
        1.0
    } else {
        max_len as f64 / d as f64
    };
    Ok(DisjointRoutes { paths, stretch })
}

/// Unit-capacity vertex-splitting flow network over the enabled map.
///
/// Node ids: the enabled cell with topology index `i` becomes the pair
/// `in = 2i` (even) and `out = 2i + 1` (odd). Edges are stored as dual
/// pairs — edge `e` and `e ^ 1` are each other's residuals, forward edges
/// at even indices — the classic adjacency-list max-flow layout. The
/// source is `out(src)` and the sink `in(dst)`, so the endpoint split
/// arcs never carry flow and only interior cells are capacity-limited.
/// All iteration orders are insertion orders, so the returned
/// decomposition is fully deterministic — cold oracles replaying a serve
/// reply reproduce it bit-for-bit.
struct FlowNetwork {
    topology: Topology,
    to: Vec<u32>,
    cap: Vec<u32>,
    init: Vec<u32>,
    adj: Vec<Vec<u32>>,
    source: u32,
    sink: u32,
}

impl FlowNetwork {
    fn build(router: &FaultTolerantRouter, src: Coord, dst: Coord) -> Self {
        let t = router.topology();
        let enabled = router.enabled();
        let n = t.len();
        let mut net = FlowNetwork {
            topology: t,
            to: Vec::new(),
            cap: Vec::new(),
            init: Vec::new(),
            adj: vec![Vec::new(); 2 * n],
            source: 2 * t.index_of(src) as u32 + 1,
            sink: 2 * t.index_of(dst) as u32,
        };
        for c in t.coords() {
            if !enabled.is_enabled(c) {
                continue;
            }
            let i = t.index_of(c) as u32;
            net.add_edge(2 * i, 2 * i + 1, 1);
            for dir in DIRECTIONS {
                if let Some(nb) = t.neighbor(c, dir).coord() {
                    if enabled.is_enabled(nb) {
                        net.add_edge(2 * i + 1, 2 * t.index_of(nb) as u32, 1);
                    }
                }
            }
        }
        net
    }

    fn in_node(&self, c: Coord) -> u32 {
        2 * self.topology.index_of(c) as u32
    }

    fn cell_of(&self, node: u32) -> Coord {
        self.topology.coord_of(node as usize / 2)
    }

    fn add_edge(&mut self, from: u32, to: u32, cap: u32) {
        let e = self.to.len() as u32;
        self.to.push(to);
        self.cap.push(cap);
        self.init.push(cap);
        self.adj[from as usize].push(e);
        self.to.push(from);
        self.cap.push(0);
        self.init.push(0);
        self.adj[to as usize].push(e + 1);
    }

    fn find_forward(&self, from: u32, to: u32) -> Option<u32> {
        self.adj[from as usize]
            .iter()
            .copied()
            .find(|&e| e % 2 == 0 && self.to[e as usize] == to)
    }

    /// Pushes one unit of flow along the production route, if it is a
    /// simple path through the network. Returns false (and changes
    /// nothing) otherwise.
    fn seed(&mut self, primary: &Path) -> bool {
        if primary.hops.len() < 2 {
            return false;
        }
        let mut seen = HashSet::new();
        if !primary.hops.iter().all(|&c| seen.insert(c)) {
            return false;
        }
        let mut edges = Vec::with_capacity(2 * primary.hops.len());
        for w in primary.hops.windows(2) {
            let a_out = self.in_node(w[0]) + 1;
            let b_in = self.in_node(w[1]);
            match self.find_forward(a_out, b_in) {
                Some(e) => edges.push(e),
                None => return false,
            }
            if b_in != self.sink {
                match self.find_forward(b_in, b_in + 1) {
                    Some(e) => edges.push(e),
                    None => return false,
                }
            }
        }
        if edges.iter().any(|&e| self.cap[e as usize] == 0) {
            return false;
        }
        for &e in &edges {
            self.cap[e as usize] -= 1;
            self.cap[(e ^ 1) as usize] += 1;
        }
        true
    }

    fn flow_value(&self) -> usize {
        self.adj[self.source as usize]
            .iter()
            .map(|&e| {
                if e % 2 == 0 {
                    (self.init[e as usize] - self.cap[e as usize]) as usize
                } else {
                    0
                }
            })
            .sum()
    }

    /// BFS augmentation (Edmonds–Karp) until the flow value reaches `k`
    /// or the residual graph disconnects.
    fn augment_to(&mut self, k: usize) {
        let mut value = self.flow_value();
        while value < k && self.augment_once() {
            value += 1;
        }
    }

    fn augment_once(&mut self) -> bool {
        let n = self.adj.len();
        let mut parent: Vec<u32> = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        queue.push_back(self.source);
        let mut found = false;
        'bfs: while let Some(u) = queue.pop_front() {
            for &e in &self.adj[u as usize] {
                let v = self.to[e as usize];
                if self.cap[e as usize] > 0 && v != self.source && parent[v as usize] == u32::MAX {
                    parent[v as usize] = e;
                    if v == self.sink {
                        found = true;
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if !found {
            return false;
        }
        let mut v = self.sink;
        while v != self.source {
            let e = parent[v as usize];
            self.cap[e as usize] -= 1;
            self.cap[(e ^ 1) as usize] += 1;
            v = self.to[(e ^ 1) as usize];
        }
        true
    }

    /// Decomposes the flow into vertex-disjoint simple paths. With unit
    /// interior split capacities every interior cell carries at most one
    /// unit, so each walk from the source is forced and never revisits a
    /// cell; residual cycle flow (possible in principle after
    /// cancellation) is simply left unconsumed.
    fn decompose(&mut self, src: Coord, dst: Coord) -> Vec<Path> {
        let m = self.flow_value();
        let mut paths = Vec::with_capacity(m);
        let node_limit = self.adj.len() + 2;
        for _ in 0..m {
            let mut hops = vec![src];
            let mut cur = self.source;
            let mut steps = 0;
            let mut ok = true;
            while cur != self.sink {
                steps += 1;
                if steps > node_limit {
                    ok = false;
                    break;
                }
                let next = self.adj[cur as usize]
                    .iter()
                    .copied()
                    .find(|&e| e % 2 == 0 && self.cap[e as usize] < self.init[e as usize]);
                let e = match next {
                    Some(e) => e,
                    None => {
                        ok = false;
                        break;
                    }
                };
                self.cap[e as usize] += 1;
                self.cap[(e ^ 1) as usize] -= 1;
                cur = self.to[e as usize];
                if cur % 2 == 1 && cur != self.source {
                    hops.push(self.cell_of(cur));
                }
            }
            if ok {
                hops.push(dst);
                paths.push(Path { hops });
            }
        }
        paths
    }
}
