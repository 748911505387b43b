//! # ocp-routing
//!
//! Fault-tolerant routing on 2-D meshes — the application the paper's fault
//! model exists to serve.
//!
//! The paper's motivation (Sections 1–2): a fault region that is
//! **orthogonally convex** admits simple progressive (never-backtracking)
//! routing around its boundary with few virtual channels, but the classical
//! rectangular model disables many healthy nodes. This crate quantifies that
//! trade-off end to end:
//!
//! * [`xy`] — dimension-order (e-cube) routing, the deadlock-free baseline.
//! * [`fault_ring`] — fault rings: the cycle of enabled nodes hugging each
//!   fault region (Boppana–Chalasani style, including the diagonal-contact
//!   cells). For orthogonally convex regions away from the mesh boundary the
//!   ring is a simple 4-connected cycle; regions touching the boundary
//!   degrade to open *fault chains*.
//! * [`router`] — fault-tolerant XY: route dimension-ordered, and when
//!   blocked by a fault region traverse its ring to the best exit
//!   (Chalasani–Boppana extended e-cube in spirit). Works uniformly over
//!   rectangular faulty blocks and orthogonal convex disabled regions.
//! * [`index`] — per-snapshot query indexes (the segment table, ring
//!   position maps, exit-candidate sets) built once per router so query
//!   cost scales with fault encounters, not path length, plus the
//!   reusable [`RouteScratch`] that makes `route_len` allocation-free.
//! * `layout` / `wide` (crate-internal) — the query engine: the
//!   cache-line-aligned tables every query reads, the single-lane
//!   traversal behind `route` / `route_len`, and the batch scheduler
//!   behind `FaultTolerantRouter::route_len_batch` (struct-of-arrays
//!   rounds that move a whole batch through the tables together), both
//!   sharing one probe, hit-word decode and exit computation, and both
//!   byte-identical to the per-hop reference.
//! * [`incremental`] — delta-driven epoch builds: `rebuild_from` patches
//!   the previous epoch's tables (untouched segment lines copied,
//!   unchanged ring indexes `Arc`-shared, matched exit-directory
//!   segments memcpy'd) instead of rebuilding from scratch, and the cold
//!   path itself is banded over scoped threads — both byte-identical to
//!   a single-threaded cold `FaultTolerantRouter::new`, pinned by
//!   `table_digest` equivalence suites.
//! * [`oracle`] — BFS shortest paths over enabled nodes: ground truth for
//!   reachability and minimal hop counts.
//! * [`cdg`] — empirical channel-dependency-graph analysis: collect the
//!   link-to-link dependencies the router actually exercises and check for
//!   cycles (Dally–Seitz criterion) under a chosen virtual-channel
//!   assignment.
//! * [`disjoint`] — k pairwise vertex-disjoint routes per query
//!   (`FaultTolerantRouter::route_disjoint`): the CW/CCW ring-detour
//!   split generalized to the vertex min-cut via unit-capacity flow
//!   seeded with the production route.
//! * [`deadlock`] — the virtual-channel discipline the detour routes are
//!   modeled under (XY base + ring-detour channel, torus dateline) and a
//!   CDG-based prover that checks any labeled snapshot deadlock-free.
//! * [`wormhole`] — a flit-level wormhole network simulator (per-link
//!   virtual-channel buffers, credit flow, cycle-accurate worm advancement,
//!   deadlock watchdog) for latency/throughput measurements under faults.
//! * [`minimal`] / [`adaptive`] — minimal-path existence and construction,
//!   and an online adaptive minimal router steered by `ocp-core`'s
//!   fault-region distance field (early avoidance).
//! * [`metrics`] — routability and stretch comparisons between the
//!   faulty-block and disabled-region models (experiment E10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod cdg;
pub mod deadlock;
pub mod disjoint;
pub mod fault_ring;
pub mod incremental;
pub mod index;
mod layout;
pub mod metrics;
pub mod minimal;
pub mod oracle;
pub mod path;
pub mod router;
mod wide;
pub mod wormhole;
pub mod xy;

pub use adaptive::adaptive_minimal_route;
pub use deadlock::{DeadlockProof, DetourVcModel};
pub use disjoint::DisjointRoutes;
pub use fault_ring::{build_rings, FaultRing, RingShape};
pub use incremental::BuildBreakdown;
pub use index::RouteScratch;
pub use metrics::{compare_models, ModelComparison};
pub use minimal::{minimal_routability, minimal_route};
pub use oracle::bfs_path;
pub use path::{EnabledMap, Path, RoutingError};
pub use router::FaultTolerantRouter;
