//! Block-local epochs ≡ cold: every snapshot `Snapshot::apply` derives —
//! relabeled only in the batch's dirty windows, router patched from the
//! previous epoch — must equal `Snapshot::cold` of the same map: the
//! safety and activation grids, the block and region lists (order
//! included), `outcome_digest` and `table_digest`. Its windowed
//! certificate must equal the full describe and pass both the windowed
//! and the full check.
//!
//! Randomized churn mixes faults and repairs on meshes and tori under
//! both safety rules; scripted cases drive the window through its growth
//! paths (a fault bridging two blocks, a block on the mesh edge, a torus
//! block on the seam, a window spanning a whole torus dimension).

use ocp_core::certificate::{outcome_digest, CertifiedEpoch, EpochCertificate};
use ocp_core::prelude::*;
use ocp_core::window::{dirty_windows, DirtyWindows};
use ocp_mesh::{Coord, Topology, TopologyKind};
use ocp_serve::{EventBatch, Snapshot};
use proptest::prelude::*;

fn c(x: i32, y: i32) -> Coord {
    Coord::new(x, y)
}

fn config(rule: SafetyRule) -> PipelineConfig {
    PipelineConfig {
        rule,
        engine: LabelEngine::Bitboard,
        ..PipelineConfig::default()
    }
}

/// Applies `batch` to `prev` and checks the result against the cold
/// oracle and the windowed certificate against the full one.
fn step(prev: &Snapshot, batch: &EventBatch, cfg: &PipelineConfig, what: &str) -> Snapshot {
    let next = prev.apply(batch, cfg).expect("converges");
    let cold = Snapshot::cold(next.epoch, next.map.clone(), cfg).expect("converges");
    assert_eq!(next.outcome.safety, cold.outcome.safety, "{what}: safety");
    assert_eq!(
        next.outcome.activation, cold.outcome.activation,
        "{what}: activation"
    );
    let blocks = |s: &Snapshot| {
        let b = &s.outcome.blocks;
        b.iter()
            .map(|b| (b.cells.clone(), b.planar.clone(), b.faults.clone()))
            .collect::<Vec<_>>()
    };
    let regions = |s: &Snapshot| {
        let r = &s.outcome.regions;
        r.iter()
            .map(|r| (r.cells.clone(), r.planar.clone(), r.faults.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(blocks(&next), blocks(&cold), "{what}: block list");
    assert_eq!(regions(&next), regions(&cold), "{what}: region list");
    assert_eq!(
        outcome_digest(&next.map, &next.outcome),
        outcome_digest(&cold.map, &cold.outcome),
        "{what}: outcome digest"
    );
    assert_eq!(
        next.router.table_digest(),
        cold.router.table_digest(),
        "{what}: table digest"
    );

    let prev_cert = EpochCertificate::describe(prev.epoch, &prev.map, &prev.outcome);
    let base = CertifiedEpoch {
        certificate: &prev_cert,
        map: &prev.map,
        outcome: &prev.outcome,
    };
    let (faults, repairs) = (&batch.faults, &batch.repairs);
    let cert = EpochCertificate::describe_after(base, faults, repairs, &next.map, &next.outcome);
    assert_eq!(
        cert,
        EpochCertificate::describe(next.epoch, &next.map, &next.outcome),
        "{what}: windowed describe"
    );
    if let Err(v) = cert.check_after(base, faults, repairs, &next.map, &next.outcome) {
        panic!("{what}: windowed check: {v:?}");
    }
    if let Err(v) = cert.check(&next.map, &next.outcome) {
        panic!("{what}: full check: {v:?}");
    }
    next
}

fn windows(prev: &Snapshot, batch: &EventBatch) -> DirtyWindows {
    dirty_windows(
        prev.map.topology(),
        prev.outcome.rule,
        &prev.outcome.blocks,
        &batch.faults,
        &batch.repairs,
    )
}

fn faults(f: &[Coord]) -> EventBatch {
    EventBatch {
        faults: f.to_vec(),
        repairs: Vec::new(),
    }
}

fn repairs(r: &[Coord]) -> EventBatch {
    EventBatch {
        faults: Vec::new(),
        repairs: r.to_vec(),
    }
}

#[test]
fn a_fault_bridging_two_blocks_absorbs_both() {
    for rule in [SafetyRule::BothDimensions, SafetyRule::TwoUnsafeNeighbors] {
        let cfg = config(rule);
        let t = Topology::mesh(24, 16);
        // Two 2x2 blocks three columns apart; a diagonal chain of faults
        // from one corner to the other merges them into one block.
        let initial = [c(4, 4), c(5, 5), c(9, 4), c(10, 5)];
        let s0 = Snapshot::cold(0, FaultMap::new(t, initial), &cfg).unwrap();
        assert_eq!(s0.outcome.blocks.len(), 2);
        let bridge = faults(&[c(6, 6), c(7, 5), c(8, 4)]);
        let DirtyWindows::Local(w) = windows(&s0, &bridge) else {
            panic!("{rule:?}: the bridge stays local")
        };
        assert_eq!(w.len(), 1, "{rule:?}: one window holds both blocks");
        for cell in [c(4, 4), c(10, 5)] {
            assert!(w[0].contains(t, cell), "{rule:?}: {cell} absorbed");
        }
        let s1 = step(&s0, &bridge, &cfg, &format!("{rule:?} bridge"));
        assert_eq!(s1.outcome.blocks.len(), 1, "{rule:?}: the blocks merged");
        // Repairing the bridge splits them again.
        step(&s1, &repairs(&[c(7, 5)]), &cfg, &format!("{rule:?} split"));
    }
}

#[test]
fn a_block_on_the_mesh_edge_clips_its_window() {
    let cfg = config(SafetyRule::BothDimensions);
    let t = Topology::mesh(16, 16);
    let s0 = Snapshot::cold(0, FaultMap::new(t, [c(0, 0), c(1, 1)]), &cfg).unwrap();
    let batch = faults(&[c(2, 2), c(15, 7)]);
    let DirtyWindows::Local(w) = windows(&s0, &batch) else {
        panic!("local")
    };
    assert_eq!(w.len(), 2);
    assert!(w.iter().any(|w| w.origin() == c(0, 0)), "{w:?}");
    assert!(
        w.iter()
            .any(|w| w.origin() == c(14, 6) && w.size() == (2, 3)),
        "{w:?}"
    );
    let s1 = step(&s0, &batch, &cfg, "edge faults");
    step(&s1, &repairs(&[c(0, 0), c(15, 7)]), &cfg, "edge repairs");
}

#[test]
fn a_torus_block_on_the_seam_wraps_its_window() {
    for rule in [SafetyRule::BothDimensions, SafetyRule::TwoUnsafeNeighbors] {
        let cfg = config(rule);
        let t = Topology::torus(16, 12);
        let s0 = Snapshot::cold(0, FaultMap::new(t, [c(15, 11), c(0, 0)]), &cfg).unwrap();
        let batch = faults(&[c(1, 1)]);
        let DirtyWindows::Local(w) = windows(&s0, &batch) else {
            panic!("{rule:?}: local")
        };
        assert_eq!(w.len(), 1);
        assert!(w[0].contains(t, c(15, 11)) && w[0].contains(t, c(1, 1)));
        assert!(!w[0].contains(t, c(8, 6)));
        let s1 = step(&s0, &batch, &cfg, &format!("{rule:?} seam fault"));
        step(
            &s1,
            &repairs(&[c(0, 0)]),
            &cfg,
            &format!("{rule:?} seam repair"),
        );
    }
}

#[test]
fn a_window_spanning_a_torus_dimension_goes_machine_wide() {
    let cfg = config(SafetyRule::BothDimensions);
    let t = Topology::torus(12, 12);
    let s0 = Snapshot::cold(0, FaultMap::new(t, [c(0, 5), c(4, 5)]), &cfg).unwrap();
    let batch = faults(&[c(2, 5), c(6, 5), c(8, 5), c(10, 5)]);
    assert!(windows(&s0, &batch).is_machine());
    let s1 = step(&s0, &batch, &cfg, "ring of faults");
    assert!(windows(&s1, &repairs(&[c(4, 5)])).is_machine());
    step(&s1, &repairs(&[c(4, 5)]), &cfg, "repair on the ring");
}

#[test]
fn escalations_and_window_cells_are_observable() {
    let cfg = config(SafetyRule::BothDimensions);
    let was_enabled = ocp_obs::enabled();
    ocp_obs::set_enabled(true);
    let escalations = ocp_obs::global().counter(
        "ocp_epoch_window_escalations_total",
        "Epochs whose relabeling went machine-wide instead of staying in dirty windows.",
        &[],
    );
    let before = escalations.get();
    let t = Topology::torus(12, 12);
    let s0 = Snapshot::cold(0, FaultMap::new(t, [c(0, 5), c(4, 5)]), &cfg).unwrap();
    let s1 = s0.apply(&faults(&[c(7, 2)]), &cfg).unwrap();
    let _ = s1
        .apply(&faults(&[c(2, 5), c(6, 5), c(8, 5), c(10, 5)]), &cfg)
        .unwrap();
    ocp_obs::set_enabled(was_enabled);
    // `>`: the registry is process-global and other tests run alongside.
    assert!(escalations.get() > before);
    let cells = ocp_obs::global()
        .snapshot()
        .histogram("ocp_epoch_window_cells", &[])
        .cloned()
        .expect("window histogram registered");
    assert!(cells.count >= 2);
}

/// A churn script: an initial fault set, then batches of `(new faults,
/// repair picks)`; a pick indexes the live faults modulo their count.
type Churn = (u32, Vec<Coord>, Vec<(Vec<Coord>, Vec<usize>)>);

fn churn() -> impl Strategy<Value = Churn> {
    (8u32..=18).prop_flat_map(|side| {
        let cell = move || (0..side as i32, 0..side as i32).prop_map(|(x, y)| Coord::new(x, y));
        let initial = proptest::collection::vec(cell(), 0..24);
        let batch = (
            proptest::collection::vec(cell(), 0..5),
            proptest::collection::vec(0usize..64, 0..4),
        );
        (Just(side), initial, proptest::collection::vec(batch, 1..8))
    })
}

fn run_churn(kind: TopologyKind, rule: SafetyRule, (side, initial, batches): Churn) {
    let cfg = config(rule);
    let t = Topology::new(kind, side, side);
    let mut snap = Snapshot::cold(0, FaultMap::new(t, initial), &cfg).unwrap();
    for (i, (new, picks)) in batches.into_iter().enumerate() {
        let live = snap.map.faults();
        let mut batch = EventBatch::default();
        for k in picks.into_iter().filter(|_| !live.is_empty()) {
            let r = live[k % live.len()];
            if !batch.repairs.contains(&r) {
                batch.repairs.push(r);
            }
        }
        for f in new {
            if !snap.map.is_faulty(f) && !batch.faults.contains(&f) {
                batch.faults.push(f);
            }
        }
        snap = step(
            &snap,
            &batch,
            &cfg,
            &format!("{kind:?} {rule:?} epoch {}", i + 1),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mesh_churn_matches_cold_under_2b(script in churn()) {
        run_churn(TopologyKind::Mesh, SafetyRule::BothDimensions, script);
    }

    #[test]
    fn mesh_churn_matches_cold_under_2a(script in churn()) {
        run_churn(TopologyKind::Mesh, SafetyRule::TwoUnsafeNeighbors, script);
    }

    #[test]
    fn torus_churn_matches_cold_under_2b(script in churn()) {
        run_churn(TopologyKind::Torus, SafetyRule::BothDimensions, script);
    }

    #[test]
    fn torus_churn_matches_cold_under_2a(script in churn()) {
        run_churn(TopologyKind::Torus, SafetyRule::TwoUnsafeNeighbors, script);
    }
}
