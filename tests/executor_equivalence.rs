//! Every executor — and every labeling engine, including the bit-packed
//! kernels — must be observationally identical on the paper's protocols:
//! same final labels, same round counts, same message totals. With the
//! chaos layer, the *lossy* executors must still reach the exact fixpoint
//! of the reliable sequential executor — the monotone protocols
//! self-stabilize through drops, duplicates, reordering, down windows and
//! mid-run crashes.

use ocp_core::labeling::enablement::{
    compute_enablement, compute_enablement_with, EnablementProtocol,
};
use ocp_core::labeling::safety::{
    compute_safety, compute_safety_with, SafetyProtocol, SafetyRule, SafetyState,
};
use ocp_core::maintenance::relabel_after_faults;
use ocp_core::prelude::*;
use ocp_distsim::{run_actor_chaos, run_chaos, ChaosConfig, CrashPlan, Executor};
use ocp_mesh::{Coord, Topology, TopologyKind};
use ocp_workloads::uniform_faults;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn check_equivalence(topology: Topology, f: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let faults = uniform_faults(topology, f, &mut rng);
    let map = FaultMap::new(topology, faults);

    let reference_safety =
        compute_safety(&map, SafetyRule::BothDimensions, Executor::Sequential, 400);
    let reference_enable =
        compute_enablement(&map, &reference_safety.grid, Executor::Sequential, 400);

    // The bit-packed engine must match too. Every engine is held to the
    // grids AND the full traces (changes per round, messages, convergence
    // flag).
    let mut engines = vec![LabelEngine::Lockstep(Executor::Frontier)];
    if topology.len() <= 4096 {
        engines.push(LabelEngine::Lockstep(Executor::Actor));
    }
    engines.push(LabelEngine::Bitboard);

    for engine in engines {
        let safety = compute_safety_with(&map, SafetyRule::BothDimensions, engine, 400);
        assert_eq!(
            safety.grid, reference_safety.grid,
            "{engine:?} safety grid diverged on {topology:?} f={f} seed={seed}"
        );
        assert_eq!(
            safety.trace, reference_safety.trace,
            "{engine:?} safety trace"
        );
        let enable = compute_enablement_with(&map, &safety.grid, engine, 400);
        assert_eq!(
            enable.grid, reference_enable.grid,
            "{engine:?} activation grid diverged"
        );
        assert_eq!(
            enable.trace, reference_enable.trace,
            "{engine:?} enable trace"
        );
    }
}

#[test]
fn equivalence_on_meshes() {
    for (side, f, seed) in [(12u32, 10usize, 1u64), (16, 20, 2), (20, 8, 3)] {
        check_equivalence(Topology::new(TopologyKind::Mesh, side, side), f, seed);
    }
}

#[test]
fn equivalence_on_tori() {
    for (side, f, seed) in [(12u32, 10usize, 4u64), (16, 24, 5)] {
        check_equivalence(Topology::new(TopologyKind::Torus, side, side), f, seed);
    }
}

#[test]
fn equivalence_on_rectangular_machines() {
    // Non-square shapes exercise uneven row/column extents and the
    // bit kernel's partial last word.
    check_equivalence(Topology::mesh(30, 7), 12, 6);
    check_equivalence(Topology::mesh(5, 29), 12, 7);
    check_equivalence(Topology::torus(9, 31), 15, 8);
}

#[test]
fn equivalence_at_high_fault_density() {
    // 25% faults: big merged blocks, many rounds.
    check_equivalence(Topology::mesh(16, 16), 64, 9);
    check_equivalence(Topology::torus(16, 16), 64, 10);
}

/// Acceptance criterion of the chaos layer: with a 20% drop rate plus
/// duplication and reordering on every link, both labeling phases reach the
/// byte-identical fixpoint of the sequential executor, across ten seeds.
#[test]
fn chaos_async_reaches_sequential_fixpoint_across_ten_seeds() {
    let topology = Topology::mesh(16, 16);
    for seed in 0..10u64 {
        let mut rng = SmallRng::seed_from_u64(0xCA05 ^ seed);
        let faults = uniform_faults(topology, 20, &mut rng);
        let map = FaultMap::new(topology, faults);

        let ref_safety =
            compute_safety(&map, SafetyRule::BothDimensions, Executor::Sequential, 400);
        let ref_enable = compute_enablement(&map, &ref_safety.grid, Executor::Sequential, 400);

        let chaos = ChaosConfig::uniform(0xC0FFEE ^ seed, 0.2, 0.1, 0.1);
        let p1 = SafetyProtocol::new(&map, SafetyRule::BothDimensions);
        let a1 = run_chaos(&p1, seed, 4, 50_000_000, &chaos, None);
        assert!(a1.converged, "seed {seed}: phase 1 hit the event cap");
        assert_eq!(
            a1.states, ref_safety.grid,
            "seed {seed}: phase-1 fixpoint diverged"
        );
        assert!(
            a1.chaos.anomalies() > 0,
            "seed {seed}: chaos layer injected nothing"
        );

        let p2 = EnablementProtocol::new(&map, &a1.states);
        let a2 = run_chaos(&p2, seed ^ 1, 4, 50_000_000, &chaos, None);
        assert!(a2.converged, "seed {seed}: phase 2 hit the event cap");
        assert_eq!(
            a2.states, ref_enable.grid,
            "seed {seed}: phase-2 fixpoint diverged"
        );
    }
}

/// The lockstep actor executor under the same chaos model also
/// self-stabilizes to the sequential fixpoint.
#[test]
fn chaos_actor_reaches_sequential_fixpoint() {
    let topology = Topology::mesh(10, 10);
    for seed in 0..3u64 {
        let mut rng = SmallRng::seed_from_u64(0xAC7 ^ seed);
        let faults = uniform_faults(topology, 12, &mut rng);
        let map = FaultMap::new(topology, faults);
        let ref_safety =
            compute_safety(&map, SafetyRule::BothDimensions, Executor::Sequential, 400);
        let ref_enable = compute_enablement(&map, &ref_safety.grid, Executor::Sequential, 400);

        let chaos = ChaosConfig::uniform(0xFACADE ^ seed, 0.2, 0.1, 0.1);
        let p1 = SafetyProtocol::new(&map, SafetyRule::BothDimensions);
        let a1 = run_actor_chaos(&p1, 10_000, &chaos);
        assert!(a1.trace.converged, "seed {seed}: phase 1 hit the round cap");
        assert_eq!(
            a1.states, ref_safety.grid,
            "seed {seed}: phase-1 fixpoint diverged"
        );

        let p2 = EnablementProtocol::new(&map, &a1.states);
        let a2 = run_actor_chaos(&p2, 10_000, &chaos);
        assert!(a2.trace.converged, "seed {seed}: phase 2 hit the round cap");
        assert_eq!(
            a2.states, ref_enable.grid,
            "seed {seed}: phase-2 fixpoint diverged"
        );
    }
}

/// Mid-run crashes (phase 1 only — the safety protocol is monotone in the
/// fault set, with `Unsafe` the absorbing crash state): the run must
/// re-stabilize to the cold fixpoint of the *final* fault set, even with
/// lossy links underneath.
#[test]
fn chaos_crashes_re_stabilize_to_final_fault_oracle() {
    let topology = Topology::mesh(14, 14);
    for seed in 0..5u64 {
        let mut rng = SmallRng::seed_from_u64(0xDEAD ^ seed);
        let faults = uniform_faults(topology, 10, &mut rng);
        let map = FaultMap::new(topology, faults.clone());

        // Crash three healthy nodes at staggered virtual times.
        let victims: Vec<Coord> = topology
            .coords()
            .filter(|c| !map.is_faulty(*c))
            .step_by(17 + seed as usize)
            .take(3)
            .collect();
        let plan = CrashPlan::new(
            victims
                .iter()
                .enumerate()
                .map(|(i, &v)| (3 + 4 * i as u64, v)),
            SafetyState::Unsafe,
        );

        let chaos = ChaosConfig::uniform(0xBAD ^ seed, 0.1, 0.05, 0.05);
        let p1 = SafetyProtocol::new(&map, SafetyRule::BothDimensions);
        let a1 = run_chaos(&p1, seed, 4, 50_000_000, &chaos, Some(&plan));
        assert!(a1.converged, "seed {seed}: hit the event cap");
        assert_eq!(a1.chaos.crashes, victims.len() as u64);

        // Oracle: cold sequential run on the final fault set.
        let final_map = FaultMap::new(topology, faults.into_iter().chain(victims.iter().copied()));
        let oracle = compute_safety(
            &final_map,
            SafetyRule::BothDimensions,
            Executor::Sequential,
            400,
        );
        assert_eq!(
            a1.states, oracle.grid,
            "seed {seed}: crash path diverged from oracle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary fault maps and any drop/duplicate/reorder rates up to
    /// the chaos layer's tested ceiling (drop ≤ 0.2), the chaos-enabled
    /// asynchronous executor reaches the same phase-1 and phase-2 fixpoint
    /// as the sequential executor.
    #[test]
    fn chaos_fixpoint_matches_sequential(
        seed in 0u64..1_000_000,
        drop in 0.0f64..0.2,
        f in 0usize..25,
    ) {
        let topology = Topology::mesh(12, 12);
        let mut rng = SmallRng::seed_from_u64(seed);
        let faults = uniform_faults(topology, f, &mut rng);
        let map = FaultMap::new(topology, faults);

        let ref_safety =
            compute_safety(&map, SafetyRule::BothDimensions, Executor::Sequential, 400);
        let ref_enable = compute_enablement(&map, &ref_safety.grid, Executor::Sequential, 400);

        let chaos = ChaosConfig::uniform(seed ^ 0x5EED, drop, drop / 2.0, drop / 2.0);
        let p1 = SafetyProtocol::new(&map, SafetyRule::BothDimensions);
        let a1 = run_chaos(&p1, seed, 3, 20_000_000, &chaos, None);
        prop_assert!(a1.converged);
        prop_assert_eq!(&a1.states, &ref_safety.grid);
        let p2 = EnablementProtocol::new(&map, &a1.states);
        let a2 = run_chaos(&p2, seed ^ 1, 3, 20_000_000, &chaos, None);
        prop_assert!(a2.converged);
        prop_assert_eq!(&a2.states, &ref_enable.grid);
    }
}

/// The warm-start maintenance path must be engine-independent too: the
/// frontier executor and the bit-packed kernels (warm-initialized from the
/// previous fixpoint) produce the same grids and the same incremental
/// phase-1 trace as the sequential warm protocol.
#[test]
fn warm_start_maintenance_is_engine_independent() {
    for (topology, seed) in [
        (Topology::mesh(20, 20), 21u64),
        (Topology::torus(18, 18), 22),
        (Topology::mesh(33, 9), 23),
    ] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let faults = uniform_faults(topology, 16, &mut rng);
        let map = FaultMap::new(topology, faults);
        let new_faults: Vec<Coord> = uniform_faults(topology, 40, &mut rng)
            .into_iter()
            .filter(|&c| !map.is_faulty(c))
            .take(5)
            .collect();

        let engines = [
            LabelEngine::Lockstep(Executor::Sequential),
            LabelEngine::Lockstep(Executor::Frontier),
            LabelEngine::Bitboard,
        ];
        let mut reference = None;
        for engine in engines {
            let cfg = PipelineConfig {
                engine,
                ..PipelineConfig::default()
            };
            let cold = run_pipeline(&map, &cfg);
            let (_updated, warm) = relabel_after_faults(&map, &new_faults, &cold, &cfg);
            let got = (
                warm.outcome.safety.clone(),
                warm.outcome.activation.clone(),
                warm.incremental_safety_trace.clone(),
            );
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(got.0, want.0, "{engine:?} warm safety grid, seed {seed}");
                    assert_eq!(
                        got.1, want.1,
                        "{engine:?} warm activation grid, seed {seed}"
                    );
                    assert_eq!(
                        got.2, want.2,
                        "{engine:?} warm incremental trace, seed {seed}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary fault maps on meshes and tori, every engine —
    /// frontier executor and bit-packed kernels — produces byte-identical grids and identical per-round change
    /// histories for both phases.
    #[test]
    fn engines_match_sequential_on_random_maps(
        seed in 0u64..1_000_000,
        width in 3u32..24,
        height in 3u32..24,
        torus in any::<bool>(),
        f in 0usize..30,
    ) {
        let kind = if torus { TopologyKind::Torus } else { TopologyKind::Mesh };
        let topology = Topology::new(kind, width, height);
        let mut rng = SmallRng::seed_from_u64(seed);
        let faults = uniform_faults(topology, f.min(topology.len() / 2), &mut rng);
        let map = FaultMap::new(topology, faults);

        let ref_safety =
            compute_safety(&map, SafetyRule::BothDimensions, Executor::Sequential, 400);
        let ref_enable = compute_enablement(&map, &ref_safety.grid, Executor::Sequential, 400);

        for engine in [
            LabelEngine::Lockstep(Executor::Frontier),
            LabelEngine::Bitboard,
        ] {
            let safety = compute_safety_with(&map, SafetyRule::BothDimensions, engine, 400);
            prop_assert_eq!(&safety.grid, &ref_safety.grid, "{:?} safety grid", engine);
            prop_assert_eq!(
                &safety.trace.changes_per_round,
                &ref_safety.trace.changes_per_round,
                "{:?} safety changes_per_round", engine
            );
            prop_assert_eq!(&safety.trace, &ref_safety.trace, "{:?} safety trace", engine);
            let enable = compute_enablement_with(&map, &safety.grid, engine, 400);
            prop_assert_eq!(&enable.grid, &ref_enable.grid, "{:?} activation grid", engine);
            prop_assert_eq!(&enable.trace, &ref_enable.trace, "{:?} enable trace", engine);
        }
    }
}

#[test]
fn equivalence_with_def2a_rule() {
    let topology = Topology::mesh(18, 18);
    let mut rng = SmallRng::seed_from_u64(11);
    let faults = uniform_faults(topology, 25, &mut rng);
    let map = FaultMap::new(topology, faults);
    let reference = compute_safety(
        &map,
        SafetyRule::TwoUnsafeNeighbors,
        Executor::Sequential,
        400,
    );
    for engine in [
        LabelEngine::Lockstep(Executor::Frontier),
        LabelEngine::Lockstep(Executor::Actor),
        LabelEngine::Bitboard,
    ] {
        let got = compute_safety_with(&map, SafetyRule::TwoUnsafeNeighbors, engine, 400);
        assert_eq!(got.grid, reference.grid, "{engine:?}");
        assert_eq!(got.trace, reference.trace, "{engine:?}");
    }
}
