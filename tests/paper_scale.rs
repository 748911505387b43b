//! One full run at the paper's exact scale (100×100, f = 100), end to end
//! through labeling, verification, statistics, distance field and routing —
//! the "does the whole stack hold together at evaluation size" test.

use ocp_core::labeling::distance::compute_distance_field;
use ocp_core::prelude::*;
use ocp_distsim::Executor;
use ocp_mesh::Topology;
use ocp_routing::{EnabledMap, FaultTolerantRouter};
use ocp_workloads::uniform_faults;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[test]
fn full_stack_at_paper_scale() {
    let topology = Topology::mesh(100, 100);
    let mut rng = SmallRng::seed_from_u64(20010425);
    let faults = uniform_faults(topology, 100, &mut rng);
    let map = FaultMap::new(topology, faults);

    // Labeling with the frontier executor (the fast lockstep path).
    let out = run_pipeline(
        &map,
        &PipelineConfig {
            engine: LabelEngine::Lockstep(Executor::Frontier),
            ..PipelineConfig::default()
        },
    );
    assert!(out.safety_trace.converged && out.enablement_trace.converged);

    // The sequential executor agrees exactly.
    let seq = run_pipeline(&map, &PipelineConfig::default());
    assert_eq!(out.safety, seq.safety);
    assert_eq!(out.activation, seq.activation);

    // So does the bit-packed engine, traces included.
    let bits = run_pipeline(
        &map,
        &PipelineConfig {
            engine: LabelEngine::Bitboard,
            ..PipelineConfig::default()
        },
    );
    assert_eq!(bits.safety, seq.safety);
    assert_eq!(bits.activation, seq.activation);
    assert_eq!(bits.safety_trace, seq.safety_trace);
    assert_eq!(bits.enablement_trace, seq.enablement_trace);

    // All Section 4 invariants hold.
    let report = ocp_core::verify::verify(&map, &out).expect("invariants at scale");
    assert_eq!(report.blocks_checked, out.blocks.len());
    assert_eq!(report.regions_checked, out.regions.len());
    assert_eq!(report.wrapped_blocks, 0);

    // Statistics in the paper's reported ranges.
    let stats = ModelStats::collect(&map, &out);
    assert_eq!(stats.faults, 100);
    assert!(
        stats.rounds_phase1 <= 5,
        "phase1 {} rounds",
        stats.rounds_phase1
    );
    assert!(
        stats.rounds_phase2 <= 5,
        "phase2 {} rounds",
        stats.rounds_phase2
    );
    if let Some(ratio) = stats.enabled_ratio() {
        assert!(ratio > 0.8, "enabled ratio {ratio}");
    }

    // Distance field converges and is 1 next to every region.
    let field = compute_distance_field(&map, &out.activation, Executor::Sequential, 1000);
    assert!(field.trace.converged);
    for region in &out.regions {
        for cell in region.cells.iter() {
            assert_eq!(field.at(cell), 0);
        }
    }

    // Routing works across the machine.
    let enabled = EnabledMap::from_outcome(&out);
    let regions: Vec<_> = out.regions.iter().map(|r| r.cells.clone()).collect();
    let router = FaultTolerantRouter::new(enabled.clone(), &regions);
    let nodes = enabled.enabled_coords();
    let mut delivered = 0;
    let mut attempted = 0;
    for _ in 0..50 {
        let pick: Vec<_> = nodes.choose_multiple(&mut rng, 2).collect();
        attempted += 1;
        if let Ok(p) = router.route(*pick[0], *pick[1]) {
            p.validate(&enabled).unwrap();
            delivered += 1;
        }
    }
    assert!(
        delivered * 10 >= attempted * 9,
        "only {delivered}/{attempted} delivered at paper scale"
    );
}
