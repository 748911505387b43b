//! Immutable epoch snapshots of the labeled machine.
//!
//! A [`Snapshot`] is everything a query needs, computed once per published
//! epoch and never mutated afterwards: the fault map, the converged
//! two-phase labeling, the enabled view, and a ready-built
//! [`FaultTolerantRouter`]. Readers hold snapshots behind `Arc`s, so a
//! query is answered entirely against one self-consistent machine state no
//! matter how many newer epochs the writer publishes mid-flight.
//!
//! Epoch `k+1` is derived from epoch `k` by [`Snapshot::apply`], one path
//! for every batch, faults, repairs or both. The labeling is block-local
//! (`ocp-core::maintenance::try_relabel_batch`): only the dirty windows
//! around the faulty blocks the batch touches are relabeled, and the rest
//! of the grids, blocks and regions is carried over. The router's tables
//! are then patched from epoch `k`'s by
//! [`FaultTolerantRouter::rebuild_from`]. Both results are byte-identical
//! to the cold pipeline and the cold index build, which stay the oracles
//! ([`Snapshot::cold`]). Each epoch records its window size in
//! `ocp_epoch_window_cells` and, when it went machine-wide, bumps
//! `ocp_epoch_window_escalations_total`.

use crate::api::NodeState;
use ocp_core::maintenance::try_relabel_batch;
use ocp_core::prelude::*;
use ocp_geometry::Region;
use ocp_mesh::Coord;
use ocp_routing::{BuildBreakdown, EnabledMap, FaultTolerantRouter};

/// One batch of coalesced fault/repair events, the unit of epoch
/// advancement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventBatch {
    /// Nodes that crashed.
    pub faults: Vec<Coord>,
    /// Nodes that came back to life.
    pub repairs: Vec<Coord>,
}

impl EventBatch {
    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.faults.len() + self.repairs.len()
    }

    /// True when the batch carries no events.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.repairs.is_empty()
    }
}

/// An immutable, fully-labeled machine state at one epoch.
#[derive(Clone)]
pub struct Snapshot {
    /// Monotone publication counter; epoch 0 is the initial cold run.
    pub epoch: u64,
    /// The fault set this snapshot was labeled under.
    pub map: FaultMap,
    /// The converged two-phase labeling.
    pub outcome: PipelineOutcome,
    /// The routing view (enabled nodes only).
    pub enabled: EnabledMap,
    /// Router built over the disabled regions, ready to answer queries.
    pub router: FaultTolerantRouter,
    /// Phase breakdown of this snapshot's router/index construction
    /// (cold banded build or incremental patch of the previous epoch).
    pub build: BuildBreakdown,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("faults", &self.map.fault_count())
            .field("regions", &self.outcome.regions.len())
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// Cold-builds the snapshot for `map`: epoch 0, recovery's genesis,
    /// the certificate gate's fallback, and the oracle every derived
    /// epoch must equal.
    pub fn cold(
        epoch: u64,
        map: FaultMap,
        config: &PipelineConfig,
    ) -> Result<Self, ConvergenceError> {
        let outcome = try_run_pipeline(&map, config)?;
        Ok(Self::from_outcome(epoch, map, outcome))
    }

    /// Wraps an already-converged outcome into a snapshot, cold-building
    /// the enabled view and the router (including its per-snapshot query
    /// indexes, banded over the machine's cores; build time lands in the
    /// global obs registry when enabled).
    pub fn from_outcome(epoch: u64, map: FaultMap, outcome: PipelineOutcome) -> Self {
        Self::build_with(epoch, map, outcome, None)
    }

    /// [`from_outcome`](Self::from_outcome), but patching `prev`'s router
    /// tables incrementally instead of cold-building — byte-identical
    /// output (pinned by `FaultTolerantRouter::table_digest` suites), at
    /// a cost proportional to the epoch delta rather than the machine.
    pub fn from_outcome_after(
        prev: &Snapshot,
        epoch: u64,
        map: FaultMap,
        outcome: PipelineOutcome,
    ) -> Self {
        Self::build_with(epoch, map, outcome, Some(prev))
    }

    fn build_with(
        epoch: u64,
        map: FaultMap,
        outcome: PipelineOutcome,
        prev: Option<&Snapshot>,
    ) -> Self {
        let enabled = EnabledMap::from_outcome(&outcome);
        let regions: Vec<Region> = outcome.regions.iter().map(|r| r.cells.clone()).collect();
        let build_obs = ocp_obs::enabled().then(|| {
            let reg = ocp_obs::global();
            (
                reg.counter(
                    "ocp_routing_index_builds_total",
                    "Router + query-index constructions (one per published snapshot).",
                    &[],
                ),
                reg.histogram(
                    "ocp_routing_index_build_ns",
                    "Wall-clock cost of one FaultTolerantRouter construction, \
                     including segment and ring index builds, nanoseconds.",
                    &[],
                ),
                std::time::Instant::now(),
            )
        });
        let (router, build) = match prev {
            Some(p) => FaultTolerantRouter::rebuild_from(&p.router, enabled.clone(), &regions),
            None => {
                let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
                FaultTolerantRouter::new_with_threads(enabled.clone(), &regions, threads)
            }
        };
        if let Some((builds, build_ns, start)) = build_obs {
            builds.inc();
            build_ns.record(start.elapsed().as_nanos() as u64);
        }
        Self {
            epoch,
            map,
            outcome,
            enabled,
            router,
            build,
        }
    }

    /// Derives the next epoch's snapshot after `batch`: relabels only the
    /// dirty windows the batch touches (machine-wide when they reach
    /// around a torus) and patches the router's tables incrementally from
    /// this snapshot's, repairs included.
    pub fn apply(
        &self,
        batch: &EventBatch,
        config: &PipelineConfig,
    ) -> Result<Self, ConvergenceError> {
        let (map, epoch) = try_relabel_batch(
            &self.map,
            &batch.faults,
            &batch.repairs,
            &self.outcome,
            config,
        )?;
        if ocp_obs::enabled() {
            let reg = ocp_obs::global();
            reg.histogram(
                "ocp_epoch_window_cells",
                "Nodes one published epoch relabeled: its dirty windows' total, \
                 or the whole machine when it escalated.",
                &[],
            )
            .record(epoch.windows.cells(map.topology()) as u64);
            if epoch.windows.is_machine() {
                reg.counter(
                    "ocp_epoch_window_escalations_total",
                    "Epochs whose relabeling went machine-wide instead of staying \
                     in dirty windows.",
                    &[],
                )
                .inc();
            }
        }
        Ok(Self::from_outcome_after(
            self,
            self.epoch + 1,
            map,
            epoch.outcome,
        ))
    }

    /// The service-level label of one coordinate under this snapshot.
    pub fn node_state(&self, c: Coord) -> NodeState {
        if !self.map.topology().contains(c) {
            NodeState::OffMachine
        } else if self.map.is_faulty(c) {
            NodeState::Faulty
        } else if self.enabled.is_enabled(c) {
            NodeState::Enabled
        } else {
            NodeState::Disabled
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocp_mesh::Topology;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn warm_fault_batch_matches_cold_oracle() {
        let cfg = PipelineConfig::default();
        let base = Snapshot::cold(
            0,
            FaultMap::new(Topology::mesh(12, 12), [c(3, 3), c(4, 4)]),
            &cfg,
        )
        .unwrap();
        let batch = EventBatch {
            faults: vec![c(8, 8), c(9, 9)],
            repairs: vec![],
        };
        let next = base.apply(&batch, &cfg).unwrap();
        assert_eq!(next.epoch, 1);
        let oracle = Snapshot::cold(1, next.map.clone(), &cfg).unwrap();
        assert_eq!(next.outcome.safety, oracle.outcome.safety);
        assert_eq!(next.outcome.activation, oracle.outcome.activation);
    }

    #[test]
    fn repair_batch_matches_the_cold_oracle() {
        // A concave fault pattern: (3,4) is nonfaulty but disabled to make
        // the surrounding region orthogonal convex.
        let cfg = PipelineConfig::default();
        let base = Snapshot::cold(
            0,
            FaultMap::new(Topology::mesh(8, 8), [c(3, 3), c(4, 4), c(3, 5)]),
            &cfg,
        )
        .unwrap();
        assert_eq!(base.node_state(c(3, 4)), NodeState::Disabled);
        let batch = EventBatch {
            faults: vec![c(6, 6)],
            repairs: vec![c(4, 4)],
        };
        let next = base.apply(&batch, &cfg).unwrap();
        assert_eq!(next.map.fault_count(), 3); // -1 repair, +1 fault
                                               // With the concavity's corner fault repaired, (3,4) is re-enabled.
        assert_eq!(next.node_state(c(3, 4)), NodeState::Enabled);
        assert_eq!(next.node_state(c(4, 4)), NodeState::Enabled);
        assert_eq!(next.node_state(c(6, 6)), NodeState::Faulty);
        let oracle = Snapshot::cold(1, next.map.clone(), &cfg).unwrap();
        assert_eq!(next.outcome.activation, oracle.outcome.activation);
        assert_eq!(next.router.table_digest(), oracle.router.table_digest());
        assert!(next.build.incremental, "repairs patch the previous tables");
    }

    #[test]
    fn node_state_covers_all_labels() {
        let cfg = PipelineConfig::default();
        let snap = Snapshot::cold(
            0,
            FaultMap::new(Topology::mesh(8, 8), [c(3, 3), c(4, 4), c(3, 5)]),
            &cfg,
        )
        .unwrap();
        assert_eq!(snap.node_state(c(-1, 0)), NodeState::OffMachine);
        assert_eq!(snap.node_state(c(3, 3)), NodeState::Faulty);
        assert_eq!(snap.node_state(c(3, 4)), NodeState::Disabled);
        assert_eq!(snap.node_state(c(0, 0)), NodeState::Enabled);
    }

    #[test]
    fn router_build_is_observable_when_obs_is_on() {
        let cfg = PipelineConfig::default();
        let before_enabled = ocp_obs::enabled();
        ocp_obs::set_enabled(true);
        let builds = ocp_obs::global().counter(
            "ocp_routing_index_builds_total",
            "Router + query-index constructions (one per published snapshot).",
            &[],
        );
        let before = builds.get();
        let _snap =
            Snapshot::cold(0, FaultMap::new(Topology::mesh(8, 8), [c(3, 3)]), &cfg).unwrap();
        ocp_obs::set_enabled(before_enabled);
        // `>=`: the registry is process-global and other tests may build
        // snapshots concurrently.
        assert!(builds.get() > before);
        let build_ns = ocp_obs::global()
            .snapshot()
            .histogram("ocp_routing_index_build_ns", &[])
            .cloned()
            .expect("build-time histogram registered");
        assert!(build_ns.count >= 1);
    }

    #[test]
    fn router_in_snapshot_respects_the_labeling() {
        let cfg = PipelineConfig::default();
        let snap = Snapshot::cold(0, FaultMap::new(Topology::mesh(9, 9), [c(4, 4)]), &cfg).unwrap();
        let p = snap.router.route(c(0, 4), c(8, 4)).unwrap();
        p.validate(&snap.enabled).unwrap();
        assert_eq!(p.len(), 10); // minimal detour around one cell
    }
}
