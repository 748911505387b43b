//! Byte-identical equivalence of the indexed query path and the reference
//! per-hop router.
//!
//! The indexed traversal (`route` / `route_len` / `route_into` /
//! `route_len_with`) must reproduce the pre-index algorithm
//! (`route_reference` / `route_len_reference`) *exactly*: same cell-for-cell
//! paths, same hop counts, and same errors — on meshes (including boundary
//! fault chains) and on tori (including seam-crossing segments and rings).
//! Anything less would change what `ocp-serve` returns across a release.
//!
//! The batch entry point (`route_len_batch_with`) is pinned to the same
//! contract: every result in a batch must equal the single-pair
//! `route_len_with` *and* reference result for that pair, for every batch
//! size — including a partial final chunk (pairs % width ≠ 0),
//! single-pair batches, and batches mixing every outcome class.

use ocp_core::prelude::*;
use ocp_mesh::{Coord, Topology, TopologyKind};
use ocp_routing::{EnabledMap, FaultTolerantRouter, Path, RouteScratch};
use proptest::prelude::*;

/// Router over the disabled regions of a pipeline-labeled machine.
fn labeled_router(topology: Topology, faults: &[Coord]) -> FaultTolerantRouter {
    let map = FaultMap::new(topology, faults.iter().copied());
    let out = run_pipeline(&map, &PipelineConfig::default());
    let enabled = EnabledMap::from_outcome(&out);
    let regions: Vec<_> = out.regions.iter().map(|r| r.cells.clone()).collect();
    FaultTolerantRouter::new(enabled, &regions)
}

/// Asserts full equivalence for one pair across all four entry points.
fn assert_pair_equivalent(
    router: &FaultTolerantRouter,
    src: Coord,
    dst: Coord,
    path_buf: &mut Path,
    scratch: &mut RouteScratch,
) {
    let reference = router.route_reference(src, dst);
    let indexed = router.route(src, dst);
    assert_eq!(indexed, reference, "route {src}->{dst}");
    assert_eq!(
        router.route_len(src, dst),
        router.route_len_reference(src, dst),
        "route_len {src}->{dst}"
    );
    let via_into = router.route_into(src, dst, path_buf, scratch);
    match &reference {
        Ok(p) => {
            assert_eq!(
                via_into.as_ref().ok(),
                Some(&p.len()),
                "route_into {src}->{dst}"
            );
            assert_eq!(path_buf, p, "route_into path {src}->{dst}");
            assert_eq!(
                router.route_len_with(src, dst, scratch),
                Ok(p.len()),
                "route_len_with {src}->{dst}"
            );
        }
        Err(e) => {
            assert_eq!(
                via_into.as_ref().err(),
                Some(e),
                "route_into err {src}->{dst}"
            );
            assert_eq!(
                router.route_len_with(src, dst, scratch).as_ref().err(),
                Some(e),
                "route_len_with err {src}->{dst}"
            );
        }
    }
}

/// Asserts the batch entry point agrees with single-pair `route_len_with`
/// and the reference on every pair of `pairs`, splitting the workload
/// into batches of `width` (the final batch is usually shorter than
/// `width`).
fn assert_batches_equivalent(
    router: &FaultTolerantRouter,
    pairs: &[(Coord, Coord)],
    width: usize,
    scratch: &mut RouteScratch,
) {
    let mut out = Vec::new();
    for batch in pairs.chunks(width) {
        router.route_len_batch_with(batch, scratch, &mut out);
        assert_eq!(out.len(), batch.len());
        for (&(src, dst), got) in batch.iter().zip(&out) {
            assert_eq!(
                *got,
                router.route_len_with(src, dst, scratch),
                "wide vs scalar {src}->{dst} (width {width})"
            );
            assert_eq!(
                *got,
                router.route_len_reference(src, dst),
                "wide vs reference {src}->{dst} (width {width})"
            );
        }
    }
}

/// Exhaustive all-pairs equivalence on a mixed mesh workload: open space,
/// a merged diagonal block, a lone fault, and a boundary chain — every
/// router outcome class, with one shared path buffer and scratch reused
/// across every query.
#[test]
fn all_pairs_equivalent_on_mesh() {
    let c = Coord::new;
    let router = labeled_router(
        Topology::mesh(12, 12),
        &[c(5, 4), c(6, 5), c(9, 9), c(0, 6), c(2, 2)],
    );
    let nodes = router.enabled().enabled_coords();
    let mut path_buf = Path::new(c(0, 0));
    let mut scratch = RouteScratch::new();
    let mut pairs = Vec::new();
    for &src in &nodes {
        for &dst in &nodes {
            assert_pair_equivalent(&router, src, dst, &mut path_buf, &mut scratch);
            pairs.push((src, dst));
        }
    }
    // The same all-pairs workload through the wide engine: one partial
    // final lane per 7-wide batch, then everything in a single batch.
    assert_batches_equivalent(&router, &pairs, 7, &mut scratch);
    assert_batches_equivalent(&router, &pairs, pairs.len(), &mut scratch);
}

/// Exhaustive all-pairs equivalence on a torus with faults hugging the
/// seam, so segments and ring walks wrap in both dimensions.
#[test]
fn all_pairs_equivalent_on_torus_seam() {
    let c = Coord::new;
    let router = labeled_router(
        Topology::torus(10, 10),
        &[c(0, 5), c(9, 0), c(5, 9), c(4, 4), c(5, 5)],
    );
    let nodes = router.enabled().enabled_coords();
    let mut path_buf = Path::new(c(0, 0));
    let mut scratch = RouteScratch::new();
    let mut pairs = Vec::new();
    for &src in &nodes {
        for &dst in &nodes {
            assert_pair_equivalent(&router, src, dst, &mut path_buf, &mut scratch);
            pairs.push((src, dst));
        }
    }
    assert_batches_equivalent(&router, &pairs, 7, &mut scratch);
    assert_batches_equivalent(&router, &pairs, pairs.len(), &mut scratch);
}

/// Two pairs of unmerged fault regions exactly two apart: the cell between
/// each pair sits on *both* rings, so the wide engine's position lookups
/// exercise the grid-fallback path (`ring_pos` can only encode the first
/// ring). All pairs, every batch width class — including width 1 and a
/// width that leaves a partial final lane.
#[test]
fn batch_handles_multi_ring_cells() {
    let c = Coord::new;
    let router = labeled_router(
        Topology::mesh(12, 12),
        &[c(4, 4), c(4, 6), c(8, 3), c(8, 5)],
    );
    let nodes = router.enabled().enabled_coords();
    let mut scratch = RouteScratch::new();
    let pairs: Vec<(Coord, Coord)> = nodes
        .iter()
        .flat_map(|&src| nodes.iter().map(move |&dst| (src, dst)))
        .collect();
    for width in [1, 3, 8, 13, pairs.len()] {
        assert_batches_equivalent(&router, &pairs, width, &mut scratch);
    }
}

/// A machine too wide for the next-blocked probe tables (extent ≥ 2^16,
/// so blocked distances would not pack): every probe must fall back to
/// the sorted-key search — on the short column lines and on the long
/// faulty row, which carries 100 disabled cells. Equivalence on
/// straight, detouring, multi-encounter, and infeasible-endpoint pairs,
/// at several batch widths.
#[test]
fn batch_falls_back_to_search_kernels_on_wide_mesh() {
    let c = Coord::new;
    // 100 isolated faults along y = 1: row 1 carries 100 disabled
    // intervals (> the count cutoff of 64), while every column carries
    // at most one.
    let faults: Vec<Coord> = (0..100).map(|k| c(300 + 650 * k, 1)).collect();
    let router = labeled_router(Topology::mesh(65_535, 4), &faults);
    let mut scratch = RouteScratch::new();
    let mut pairs: Vec<(Coord, Coord)> = Vec::new();
    // West-to-east sweeps along the faulty row hit many rings in one
    // query; cross-row pairs mix in column probes; short pairs stay
    // straight.
    for k in 0..12 {
        let x = 120 + 5_000 * k;
        pairs.push((c(x, 1), c(x + 4_800, 1)));
        pairs.push((c(x + 4_800, 2), c(x, 0)));
        pairs.push((c(x, 3), c(x + 37, 3)));
    }
    pairs.push((c(0, 1), c(65_534, 1))); // full-width, every ring en route
    pairs.push((c(300, 0), c(300, 3))); // column probe straight past a ring
    pairs.push((c(300, 1), c(5, 2))); // starts on a disabled cell
    for width in [1, 5, pairs.len()] {
        assert_batches_equivalent(&router, &pairs, width, &mut scratch);
    }
}

/// Strategy: a side, fault cells anywhere in the machine (boundary chains
/// included on meshes), and an endpoint-sampling seed.
fn pattern() -> impl Strategy<Value = (u32, Vec<Coord>, u64)> {
    (8u32..=16).prop_flat_map(|side| {
        let cells = proptest::collection::btree_set(
            (0..side as i32, 0..side as i32).prop_map(|(x, y)| Coord::new(x, y)),
            0..14,
        );
        (
            Just(side),
            cells.prop_map(|s| s.into_iter().collect()),
            any::<u64>(),
        )
    })
}

/// Shared proptest body: build the labeled router and compare sampled
/// pairs (plus every fault-adjacent endpoint pairing, the ring-heavy
/// cases) across implementations.
fn check_random_machine(
    kind: TopologyKind,
    side: u32,
    faults: Vec<Coord>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let topology = Topology::new(kind, side, side);
    let router = labeled_router(topology, &faults);
    let nodes = router.enabled().enabled_coords();
    if nodes.is_empty() {
        return Ok(());
    }
    let mut path_buf = Path::new(Coord::new(0, 0));
    let mut scratch = RouteScratch::new();
    let pick = |k: u64| nodes[(seed.wrapping_mul(k + 1) % nodes.len() as u64) as usize];
    let mut pairs = Vec::new();
    for k in 0..24u64 {
        let (src, dst) = (pick(2 * k), pick(2 * k + 1));
        assert_pair_equivalent(&router, src, dst, &mut path_buf, &mut scratch);
        pairs.push((src, dst));
    }
    // Endpoints right next to the fault regions force immediate ring
    // entries and multi-ring detours.
    let ring_cells: Vec<Coord> = router
        .rings()
        .iter()
        .flat_map(|r| r.cells().iter().copied())
        .collect();
    for (i, &src) in ring_cells.iter().enumerate() {
        let dst = pick(i as u64);
        assert_pair_equivalent(&router, src, dst, &mut path_buf, &mut scratch);
        assert_pair_equivalent(&router, dst, src, &mut path_buf, &mut scratch);
        pairs.push((src, dst));
        pairs.push((dst, src));
    }
    // The same workload through the wide engine, at a width that leaves a
    // partial final lane and as one full-size batch.
    assert_batches_equivalent(&router, &pairs, 5, &mut scratch);
    assert_batches_equivalent(&router, &pairs, pairs.len(), &mut scratch);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Indexed == reference on random meshes (boundary chains included).
    #[test]
    fn indexed_matches_reference_on_mesh(
        (side, faults, seed) in pattern()
    ) {
        check_random_machine(TopologyKind::Mesh, side, faults, seed)?;
    }

    /// Indexed == reference on random tori (seam-crossing segments and
    /// wrap-around rings included).
    #[test]
    fn indexed_matches_reference_on_torus(
        (side, faults, seed) in pattern()
    ) {
        check_random_machine(TopologyKind::Torus, side, faults, seed)?;
    }
}
