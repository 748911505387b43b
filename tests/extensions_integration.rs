//! Integration of the extension features: link faults, repair
//! maintenance, the distance field, and distance-guided adaptive routing.

use ocp_core::labeling::distance::{compute_distance_field, UNREACHABLE};
use ocp_core::maintenance::{relabel_after_fault, relabel_after_repair};
use ocp_core::prelude::*;
use ocp_distsim::Executor;
use ocp_mesh::{Coord, Topology};
use ocp_routing::adaptive::adaptive_minimal_route;
use ocp_routing::{minimal_route, EnabledMap};

fn c(x: i32, y: i32) -> Coord {
    Coord::new(x, y)
}

#[test]
fn link_faults_flow_through_whole_pipeline() {
    // Three failed links -> node faults -> labeling -> verification.
    let t = Topology::mesh(12, 12);
    let map = FaultMap::from_link_faults(
        t,
        [
            (c(3, 3), c(3, 4)),
            (c(4, 4), c(3, 4)), // shares an endpoint with the first
            (c(8, 8), c(9, 8)),
        ],
    );
    // Two links share a neighborhood: endpoints dedupe.
    assert_eq!(map.fault_count(), 3);
    let out = run_pipeline(&map, &PipelineConfig::default());
    ocp_core::verify::verify(&map, &out).expect("link-fault pipeline verifies");
    // (3,3) and (3,4) are adjacent faults -> one block contains both.
    assert!(out
        .blocks
        .iter()
        .any(|b| b.cells.contains(c(3, 3)) && b.cells.contains(c(3, 4))));
}

#[test]
fn fault_then_repair_roundtrips_to_original_labels() {
    let t = Topology::mesh(14, 14);
    let map = FaultMap::new(t, [c(4, 4), c(5, 5)]);
    let cfg = PipelineConfig::default();
    let original = run_pipeline(&map, &cfg);

    // Break one more node, then repair it again.
    let (broken_map, broken) = relabel_after_fault(&map, c(9, 9), &original, &cfg);
    assert_eq!(broken_map.fault_count(), 3);
    assert!(broken.outcome.blocks.len() > original.blocks.len());

    let (repaired_map, repaired) =
        relabel_after_repair(&broken_map, c(9, 9), &broken.outcome, &cfg);
    assert_eq!(repaired_map, map);
    assert_eq!(repaired.safety, original.safety);
    assert_eq!(repaired.activation, original.activation);
}

#[test]
fn distance_field_guides_adaptive_router_around_regions() {
    let t = Topology::mesh(16, 16);
    let map = FaultMap::new(t, [c(7, 7), c(8, 8), c(7, 8), c(8, 7)]);
    let out = run_pipeline(&map, &PipelineConfig::default());
    let enabled = EnabledMap::from_outcome(&out);
    let field = compute_distance_field(&map, &out.activation, Executor::Sequential, 1000);
    assert!(field.trace.converged);

    // Endpoints diagonal across the block: the src-dst rectangle contains
    // the 2x2 disabled region, so minimal paths exist but must swerve.
    let (src, dst) = (c(5, 6), c(11, 9));
    let p = adaptive_minimal_route(&enabled, &field.grid, src, dst).unwrap();
    assert_eq!(p.len() as u32, t.distance(src, dst));
    p.validate(&enabled).unwrap();
    for hop in &p.hops {
        assert!(field.at(*hop) >= 1, "route entered a disabled region");
    }

    // Global minimal agrees on length.
    let q = minimal_route(&enabled, src, dst).unwrap();
    assert_eq!(p.len(), q.len());
}

#[test]
fn distance_field_unreachable_only_without_faults() {
    let t = Topology::torus(10, 10);
    let healthy = FaultMap::healthy(t);
    let out = run_pipeline(&healthy, &PipelineConfig::default());
    let field = compute_distance_field(&healthy, &out.activation, Executor::Sequential, 100);
    assert!(field.grid.iter().all(|(_, &d)| d == UNREACHABLE));

    let map = FaultMap::new(t, [c(0, 0)]);
    let out = run_pipeline(&map, &PipelineConfig::default());
    let field = compute_distance_field(&map, &out.activation, Executor::Sequential, 100);
    // On a torus every node reaches the fault; max distance = diameter.
    let max = field
        .grid
        .iter()
        .filter(|(cc, _)| !map.is_faulty(*cc))
        .map(|(_, &d)| d)
        .max()
        .unwrap();
    assert_eq!(max as u32, t.diameter());
}

#[test]
fn distance_field_rounds_scale_with_fault_spread() {
    // One central fault: field radius ~ diameter/2. Faults sprinkled
    // everywhere: the field converges much faster.
    let t = Topology::mesh(20, 20);
    let single = FaultMap::new(t, [c(10, 10)]);
    let out1 = run_pipeline(&single, &PipelineConfig::default());
    let f1 = compute_distance_field(&single, &out1.activation, Executor::Sequential, 1000);

    let spread: Vec<Coord> = (0..5)
        .flat_map(|i| (0..5).map(move |j| c(2 + 4 * i, 2 + 4 * j)))
        .collect();
    let many = FaultMap::new(t, spread);
    let out2 = run_pipeline(&many, &PipelineConfig::default());
    let f2 = compute_distance_field(&many, &out2.activation, Executor::Sequential, 1000);

    assert!(
        f2.trace.rounds() < f1.trace.rounds(),
        "dense faults {} rounds vs single {} rounds",
        f2.trace.rounds(),
        f1.trace.rounds()
    );
}
